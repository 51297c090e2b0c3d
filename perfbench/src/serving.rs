//! The three serving workloads: `lookup` (one monolithic 1M-pipe server),
//! `analytics` (an in-process sharded server with a republishing shard)
//! and `federated` (a front end over four in-process backends).
//!
//! A run goes: generate inputs from the seed; set up a few times
//! (rankings → snapshot → load → serve → first correct answer), keeping
//! the last server; compute every expected body outside the timed phases
//! and keep its digest; drop the harness's own buffers and reset the
//! memory high-water mark; drive the open-loop plan; read the server's
//! counters. A traced run then replays the plan's operations
//! through each layer's public functions under spans.

use crate::client::{run_open_loop, Client, Fate, Outcome, CONNECTIONS};
use crate::report::{Headline, Report};
use crate::rng::Rng;
use crate::schedule::{get, poisson_arrivals, Action, Digest, OpKind, Plan, Zipf};
use crate::speed::{self, Probe};
use crate::stats::{beyond, median, percentile, sorted};
use crate::sys::{self, HostNoise};
use crate::trace::{write_jsonl, RequestSpan, Tracer};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot, SnapshotFormat};
use pipefail_network::attributes::Material;
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use pipefail_serve::aggregate::{AggField, AggOp, AggregateSpec, GroupKey};
use pipefail_serve::http::{render_global_top_k, render_pipe_risk, render_top_k};
use pipefail_serve::parser::parse_request;
use pipefail_serve::{
    merge_top_k, region_key, serve, serve_federated, FedConfig, Federation, Metrics, Query,
    RiskSlice, Scorer, ServeContext, ServerConfig, ServerHandle, ShardSet,
};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the served pipes are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One snapshot behind one server.
    Monolithic,
    /// One server over a shard set, one shard per region, reload on.
    Sharded,
    /// A federation front end over one backend server per region.
    Federated,
}

/// A serving workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Layout.
    pub topology: Topology,
    /// Regions (shards or backends); 1 when monolithic.
    pub shards: usize,
    /// Pipes over all regions.
    pub pipes: u32,
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Set-up cycles per run; `setup_s` is their median.
    pub setup_cycles: usize,
}

/// 1M pipes, one server: per-request fixed costs over a large working set.
pub const LOOKUP: Workload = Workload {
    name: "lookup",
    topology: Topology::Monolithic,
    shards: 1,
    pipes: 1_000_000,
    rate: 6000.0,
    setup_cycles: 7,
};

/// 8 × 12,500 pipes, cached `/aggregate` and `/top`, one shard republished.
pub const ANALYTICS: Workload = Workload {
    name: "analytics",
    topology: Topology::Sharded,
    shards: 8,
    pipes: 100_000,
    rate: 800.0,
    setup_cycles: 25,
};

/// The lookup pipes behind a federation of 4 × 250k backends.
pub const FEDERATED: Workload = Workload {
    name: "federated",
    topology: Topology::Federated,
    shards: 4,
    pipes: 1_000_000,
    rate: 500.0,
    setup_cycles: 15,
};

/// Reload-watcher poll interval of the `analytics` server, in seconds.
const RELOAD_POLL_S: f64 = 0.25;
/// Seconds between republishes of the `analytics` shard.
const REPUBLISH_EVERY_S: f64 = 5.0;
/// Distinct `/aggregate` specs of `analytics` and `federated`.
const ANALYTICS_SPECS: usize = 50;
const FEDERATED_SPECS: usize = 16;
/// `/top` k values of `analytics`.
const ANALYTICS_K: [usize; 4] = [10, 25, 50, 100];
/// Lines per `/batch` of `lookup`.
const BATCH_LINES: usize = 64;
/// Closed-loop samples for the request floor and the federation hop.
const PROBES: usize = 2000;

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Display name of region `s` (`"Region A"`, …); its routing key is
/// `region_key` of it.
fn region_name(w: &Workload, s: usize) -> String {
    if w.topology == Topology::Monolithic {
        "Metro".into()
    } else {
        format!("Region {}", (b'A' + s as u8) as char)
    }
}

/// Per-pipe generated inputs, indexed by pipe id.
#[derive(Debug)]
struct Inputs {
    score: Vec<f64>,
    length_m: Vec<f64>,
    material: Vec<f64>,
    laid_year: Vec<f64>,
}

/// Draw every pipe's score and attributes from the seed.
fn inputs(w: &Workload, seed: u64) -> Inputs {
    let mut rng = Rng::stream(seed, 1);
    let n = w.pipes as usize;
    let materials = Material::ALL.len() as u64;
    let mut out = Inputs {
        score: Vec::with_capacity(n),
        length_m: Vec::with_capacity(n),
        material: Vec::with_capacity(n),
        laid_year: Vec::with_capacity(n),
    };
    for _ in 0..n {
        out.score.push(rng.f64().powi(3));
        out.length_m.push(10.0 + 490.0 * rng.f64());
        out.material.push(rng.below(materials) as f64);
        out.laid_year.push(1900.0 + rng.below(110) as f64);
    }
    out
}

/// Pipe ids of region `s`: every `shards`-th id.
fn region_ids(w: &Workload, s: usize) -> impl Iterator<Item = u32> {
    (s as u32..w.pipes).step_by(w.shards)
}

/// Region `s`'s snapshot: its pipes ranked, attributes in rank order.
fn region_snapshot(w: &Workload, inp: &Inputs, s: usize, seed: u64) -> Snapshot {
    let ranking = RiskRanking::new(
        region_ids(w, s)
            .map(|id| RiskScore {
                pipe: PipeId(id),
                score: inp.score[id as usize],
            })
            .collect(),
    );
    let order: Vec<usize> = ranking.scores().iter().map(|r| r.pipe.0 as usize).collect();
    let mut snap = Snapshot::new("DPMHBP", region_name(w, s), seed, &ranking);
    snap.push_section(attributes_section(
        order.iter().map(|&i| inp.length_m[i]).collect(),
        order.iter().map(|&i| inp.material[i]).collect(),
        order.iter().map(|&i| inp.laid_year[i]).collect(),
    ));
    snap
}

/// Region `s`'s pipe ids in descending-score order, computed here from
/// the inputs (stable on ties, like `RiskRanking::new`) to check the
/// scorer's answers independently of it.
fn expected_order(w: &Workload, inp: &Inputs, s: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = region_ids(w, s).collect();
    ids.sort_by(|a, b| inp.score[*b as usize].total_cmp(&inp.score[*a as usize]));
    ids
}

/// The `/aggregate` spec catalogue, as JSON bodies: group keys over
/// region, material and decade, all five operators (the first five specs
/// each lead with one), and some `top_groups` and `budget` clauses. The
/// catalogue is the same for every seed, so every run recomputes the same
/// uncached work after a reload; the seed draws which specs are popular.
pub fn specs(n: usize) -> Vec<String> {
    let mut rng = Rng::stream(0, 2);
    let columns = [
        (AggOp::Count, None),
        (AggOp::Sum, Some(AggField::Risk)),
        (AggOp::Sum, Some(AggField::LengthM)),
        (AggOp::Avg, Some(AggField::Risk)),
        (AggOp::Avg, Some(AggField::LengthM)),
        (AggOp::Min, Some(AggField::Risk)),
        (AggOp::Min, Some(AggField::LengthM)),
        (AggOp::Max, Some(AggField::Risk)),
        (AggOp::Max, Some(AggField::LengthM)),
    ];
    // Index of the first column using each operator, in AggOp order.
    let lead_of_op = [0usize, 1, 3, 5, 7];
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut keys = [GroupKey::Region, GroupKey::Material, GroupKey::Decade];
        rng.shuffle(&mut keys);
        let mut spec = AggregateSpec::new();
        for &key in &keys[..rng.range(1, 3) as usize] {
            spec = spec.group_by(key);
        }
        let mut cols: Vec<usize> = (0..columns.len()).collect();
        rng.shuffle(&mut cols);
        if let Some(&lead) = lead_of_op.get(out.len()) {
            cols.retain(|&c| c != lead);
            cols.insert(0, lead);
        }
        for &c in &cols[..rng.range(1, 3) as usize] {
            spec = spec.aggregate(columns[c].0, columns[c].1);
        }
        if rng.f64() < 0.3 {
            spec = spec.with_top_groups(rng.range(1, 10) as usize);
        }
        if rng.f64() < 0.2 {
            spec = spec.with_budget(1000.0 * rng.range(1, 50) as f64);
        }
        let json = spec.to_json();
        if seen.insert(json.clone()) {
            out.push(json);
        }
    }
    out
}

/// The workload's open-loop plan over `seconds`: arrivals, the mix, and
/// which keys a republish retires. Timed renames are attached later,
/// once the files exist.
pub fn plan(w: &Workload, seed: u64, seconds: f64) -> Plan {
    let mut rng = Rng::stream(seed, 3);
    let arrivals = poisson_arrivals(&mut Rng::stream(seed, 4), w.rate, seconds);
    let regions: Vec<String> = (0..w.shards)
        .map(|s| region_key(&region_name(w, s)))
        .collect();
    let route_pipes = w.topology != Topology::Monolithic;
    let republished = republished_shard(w, seed);
    match w.topology {
        Topology::Monolithic => {
            let mut plan = Plan::new(regions, route_pipes, Vec::new());
            for at in arrivals {
                let u = rng.f64();
                if u < 0.85 {
                    let id = rng.below(u64::from(w.pipes)) as u32;
                    plan.push(at, OpKind::Pipe { shard: 0, id }, false);
                } else if u < 0.95 {
                    let k = rng.range(10, 100) as usize;
                    plan.push(at, OpKind::Top { shard: None, k }, false);
                } else {
                    let ids: Vec<u32> = (0..BATCH_LINES)
                        .map(|_| rng.below(u64::from(w.pipes)) as u32)
                        .collect();
                    plan.push(at, OpKind::Batch { ids }, false);
                }
            }
            plan.sealed()
        }
        Topology::Sharded => {
            let mut plan = Plan::new(regions, route_pipes, specs(ANALYTICS_SPECS));
            let popular = popularity(&mut rng, plan.specs.len());
            let zipf = Zipf::new(plan.specs.len(), 1.0);
            for at in arrivals {
                let u = rng.f64();
                let k = ANALYTICS_K[rng.below(ANALYTICS_K.len() as u64) as usize];
                if u < 0.70 {
                    let spec = popular[zipf.sample(&mut rng)];
                    plan.push(at, OpKind::Aggregate { spec }, true);
                } else if u < 0.85 {
                    plan.push(at, OpKind::Top { shard: None, k }, true);
                } else {
                    let s = rng.below(w.shards as u64) as usize;
                    plan.push(
                        at,
                        OpKind::Top { shard: Some(s), k },
                        Some(s) == republished,
                    );
                }
            }
            plan.sealed()
        }
        Topology::Federated => {
            let mut plan = Plan::new(regions, route_pipes, specs(FEDERATED_SPECS));
            let popular = popularity(&mut rng, plan.specs.len());
            let zipf = Zipf::new(plan.specs.len(), 1.0);
            let per_region = u64::from(w.pipes) / w.shards as u64;
            for at in arrivals {
                let u = rng.f64();
                if u < 0.92 {
                    let s = rng.below(w.shards as u64) as usize;
                    let id = (rng.below(per_region) * w.shards as u64 + s as u64) as u32;
                    plan.push(at, OpKind::Pipe { shard: s, id }, false);
                } else if u < 0.97 {
                    let k = rng.range(1, 600) as usize;
                    plan.push(at, OpKind::Top { shard: None, k }, true);
                } else {
                    let spec = popular[zipf.sample(&mut rng)];
                    plan.push(at, OpKind::Aggregate { spec }, true);
                }
            }
            plan.sealed()
        }
    }
}

/// Spec indices in popularity order: Zipf rank `r` asks for spec
/// `popular[r]`.
fn popularity(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// The shard `analytics` republishes during its measured phase.
fn republished_shard(w: &Workload, seed: u64) -> Option<usize> {
    (w.topology == Topology::Sharded).then(|| Rng::stream(seed, 5).below(w.shards as u64) as usize)
}

/// A running topology.
struct Served {
    front: ServerHandle,
    /// Backend servers (federated only).
    backends: Vec<ServerHandle>,
    /// The in-process contexts: the server's (monolithic, sharded) or one
    /// per backend (federated).
    ctxs: Vec<Arc<ServeContext>>,
    paths: Vec<PathBuf>,
}

impl Served {
    fn shutdown(self) {
        self.front.shutdown();
        for b in self.backends {
            b.shutdown();
        }
    }
}

/// One set-up cycle, from the generated inputs to the first `200`: rank,
/// attach attributes, write v2 snapshots, load, start the servers, and ask
/// `GET /top?k=10`. Returns the servers, the cycle's cost, and the first
/// answer's body for checking once references exist.
fn setup_cycle(w: &Workload, inp: &Inputs, seed: u64, dir: &Path) -> Res<(Served, Cycle, Vec<u8>)> {
    let speed_before = speed::host_speed();
    let t0 = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let mut paths = Vec::with_capacity(w.shards);
    for s in 0..w.shards {
        let path = dir.join(format!("{}.pfsnap", region_key(&region_name(w, s))));
        region_snapshot(w, inp, s, seed)
            .save_as(&path, SnapshotFormat::V2)
            .map_err(err("write snapshot"))?;
        paths.push(path);
    }
    let served = match w.topology {
        Topology::Monolithic => {
            let scorer = Scorer::load(&paths[0]).map_err(err("load snapshot"))?;
            let ctx = Arc::new(ServeContext::new(scorer));
            let front = serve(Arc::clone(&ctx), &ServerConfig::default()).map_err(err("serve"))?;
            Served {
                front,
                backends: Vec::new(),
                ctxs: vec![ctx],
                paths,
            }
        }
        Topology::Sharded => {
            let set =
                ShardSet::load_paths(&paths, &TaskPool::from_env()).map_err(err("load shards"))?;
            let ctx = Arc::new(ServeContext::sharded(set));
            let config = ServerConfig {
                reload_poll_secs: RELOAD_POLL_S,
                ..ServerConfig::default()
            };
            let front = serve(Arc::clone(&ctx), &config).map_err(err("serve"))?;
            Served {
                front,
                backends: Vec::new(),
                ctxs: vec![ctx],
                paths,
            }
        }
        Topology::Federated => {
            let mut backends = Vec::with_capacity(w.shards);
            let mut ctxs = Vec::with_capacity(w.shards);
            let mut targets = Vec::with_capacity(w.shards);
            for (s, path) in paths.iter().enumerate() {
                let scorer = Scorer::load(path).map_err(err("load snapshot"))?;
                let ctx = Arc::new(ServeContext::new(scorer));
                let handle = serve(Arc::clone(&ctx), &ServerConfig::default())
                    .map_err(err("serve backend"))?;
                targets.push((region_name(w, s), handle.addr().to_string()));
                backends.push(handle);
                ctxs.push(ctx);
            }
            let fed = Federation::new(targets, FedConfig::default()).map_err(err("federation"))?;
            let front = serve_federated(Arc::new(fed), &ServerConfig::default())
                .map_err(err("serve front end"))?;
            Served {
                front,
                backends,
                ctxs,
                paths,
            }
        }
    };
    let mut client = Client::new(served.front.addr());
    let first = loop {
        let r = client
            .call(&get("/top?k=10"))
            .map_err(err("first request"))?;
        if r.status == 200 {
            break r.body;
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err(format!(
                "no 200 within 10 s of start (last status {})",
                r.status
            ));
        }
    };
    let cycle = Cycle {
        cpu_s: (sys::process_cpu_ns() - cpu0) as f64 / 1e9,
        wall_s: t0.elapsed().as_secs_f64(),
        speed: (speed_before + speed::host_speed()) / 2.0,
    };
    Ok((served, cycle, first))
}

/// Cost of one set-up cycle. `setup_s` counts CPU time: this kernel's
/// CPU clocks exclude the time the hypervisor steals, which the wall time
/// includes. They do count the slower cycles of a slowed vCPU, which the
/// host speed read beside the cycle divides out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cycle {
    /// Process CPU seconds.
    pub(crate) cpu_s: f64,
    /// Wall seconds.
    pub(crate) wall_s: f64,
    /// Mean [`speed::host_speed`] just before and just after the cycle.
    pub(crate) speed: f64,
}

/// Print the set-up cycles and return the median of their CPU seconds at
/// the reference speed.
pub(crate) fn setup_summary(cycles: &[Cycle], report: &mut Report) -> f64 {
    let list = |f: fn(&Cycle) -> f64| {
        cycles
            .iter()
            .map(|c| format!("{:.4}", f(c)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "setup cycles: cpu (s) {}; host speed {}; wall (s) {}",
        list(|c| c.cpu_s),
        list(|c| c.speed),
        list(|c| c.wall_s)
    ));
    median(&cycles.iter().map(|c| c.cpu_s / c.speed).collect::<Vec<_>>())
}

/// A cache-off server answering exactly what the measured server would,
/// for references to `/batch` and `/aggregate` bodies, and the context it
/// serves (federated: an in-process shard set over the backends' files).
fn twin(w: &Workload, served: &Served) -> Res<(ServerHandle, Arc<ServeContext>)> {
    let config = ServerConfig {
        cache: false,
        ..ServerConfig::default()
    };
    let ctx = match w.topology {
        Topology::Monolithic | Topology::Sharded => Arc::clone(&served.ctxs[0]),
        Topology::Federated => Arc::new(ServeContext::sharded(
            ShardSet::load_paths(&served.paths, &TaskPool::from_env())
                .map_err(err("load twin shards"))?,
        )),
    };
    let handle = serve(Arc::clone(&ctx), &config).map_err(err("serve twin"))?;
    Ok((handle, ctx))
}

/// The scorer serving region `s` of the running topology.
fn region_scorer(w: &Workload, served: &Served, s: usize) -> Res<Arc<Scorer>> {
    match w.topology {
        Topology::Monolithic => Ok(served.ctxs[0].scorer()),
        Topology::Federated => Ok(served.ctxs[s].scorer()),
        Topology::Sharded => {
            let shards = served.ctxs[0].shards();
            let idx = shards
                .index_of(&region_key(&region_name(w, s)))
                .ok_or("region missing from shard set")?;
            shards.shards()[idx].serving()
        }
    }
}

/// Fill every key's expected body digest. `/pipe` and `/top` come from the
/// program's renderers over the served snapshots, after checking the
/// scorer's entries against the order computed here from the inputs;
/// `/batch` and `/aggregate` come from the cache-off twin. Returns the
/// twin's time per distinct `/aggregate` spec in ms, and the expected
/// body of the set-up probe `GET /top?k=10`.
fn references(
    w: &Workload,
    inp: &Inputs,
    served: &Served,
    plan: &mut Plan,
) -> Res<(Vec<f64>, Vec<u8>)> {
    let orders: Vec<Vec<u32>> = (0..w.shards).map(|s| expected_order(w, inp, s)).collect();
    let ranks: Vec<Vec<u32>> = orders
        .iter()
        .map(|order| {
            let mut rank = vec![0u32; w.pipes as usize / w.shards + 1];
            for (r, id) in order.iter().enumerate() {
                rank[*id as usize / w.shards] = r as u32;
            }
            rank
        })
        .collect();
    let scorers: Vec<Arc<Scorer>> = (0..w.shards)
        .map(|s| region_scorer(w, served, s))
        .collect::<Res<_>>()?;
    let (twin, twin_ctx) = twin(w, served)?;
    let fleet_set = (w.topology != Topology::Monolithic).then(|| twin_ctx.shards());
    let mut all_scores: Vec<f64> = Vec::new();
    if fleet_set.is_some() {
        all_scores = inp.score.clone();
        all_scores.sort_by(|a, b| b.total_cmp(a));
    }
    let top_ref = |k: usize| -> Res<Vec<u8>> {
        match fleet_set {
            None => {
                check_top(&scorers[0], &orders[0], k)?;
                Ok(render_top_k(&scorers[0], k).into_bytes())
            }
            Some(set) => {
                let merged = set
                    .global_top_k(k)
                    .map_err(|d| format!("degraded shards {d:?}"))?;
                let want = &all_scores[..k.min(all_scores.len())];
                if merged.len() != want.len()
                    || merged
                        .iter()
                        .zip(want)
                        .any(|(g, s)| g.risk.score.to_bits() != s.to_bits())
                {
                    return Err(format!(
                        "global top-{k} differs from the inputs' top scores"
                    ));
                }
                Ok(render_global_top_k(set, &merged, k).into_bytes())
            }
        }
    };
    let first = top_ref(10)?;
    let mut twin_client = Client::new(twin.addr());
    let mut uncached_ms = Vec::new();
    for k in 0..plan.keys.len() {
        let request = plan.request(k as u32);
        let key = &mut plan.keys[k];
        let body = match &key.kind {
            OpKind::Pipe { shard, id } => {
                let got = scorers[*shard]
                    .risk_of(PipeId(*id))
                    .ok_or("ranked pipe missing")?;
                let rank = ranks[*shard][*id as usize / w.shards] as usize;
                if got.rank != rank || got.score.to_bits() != inp.score[*id as usize].to_bits() {
                    return Err(format!(
                        "scorer answers pipe {id} at rank {}, expected {rank}",
                        got.rank
                    ));
                }
                render_pipe_risk(&got).into_bytes()
            }
            OpKind::Top { shard: Some(s), k } => {
                check_top(&scorers[*s], &orders[*s], *k)?;
                render_top_k(&scorers[*s], *k).into_bytes()
            }
            OpKind::Top { shard: None, k } => top_ref(*k)?,
            OpKind::Batch { .. } => twin_body(&mut twin_client, &request)?,
            OpKind::Aggregate { .. } => {
                let t = Instant::now();
                let body = twin_body(&mut twin_client, &request)?;
                uncached_ms.push(t.elapsed().as_secs_f64() * 1e3);
                body
            }
        };
        key.expect = Digest::of(&body);
    }
    twin.shutdown();
    Ok((uncached_ms, first))
}

/// Check `scorer.top_k(k)` against the order computed from the inputs.
fn check_top(scorer: &Scorer, order: &[u32], k: usize) -> Res<()> {
    let top = scorer.top_k(k);
    if top.len() != k.min(order.len()) || top.iter().zip(order).any(|(r, id)| r.pipe.0 != *id) {
        return Err(format!("scorer top-{k} differs from the inputs' order"));
    }
    Ok(())
}

fn twin_body(client: &mut Client, request: &[u8]) -> Res<Vec<u8>> {
    let r = client.call(request).map_err(err("twin request"))?;
    if r.status != 200 {
        return Err(format!("twin answered {}", r.status));
    }
    Ok(r.body)
}

/// Closed-loop latency of `request` against `addr`, `n` times, in µs.
fn probe_us(addr: SocketAddr, request: &[u8], n: usize) -> Res<Vec<f64>> {
    let mut client = Client::new(addr);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let r = client.call(request).map_err(err("probe"))?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
        if r.status != 200 {
            return Err(format!("probe answered {}", r.status));
        }
    }
    Ok(out)
}

/// Directory for one run's snapshot files, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new(name: &str) -> Res<Self> {
        let dir = PathBuf::from(".bench_out").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(err("create run dir"))?;
        Ok(Self(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `w` once. Untraced, `report` gets the end-to-end metrics; traced,
/// the per-layer ones (with tracing overhead against `untraced`) and the
/// spans are written under `.bench_out/`.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: Option<Headline>,
    report: &mut Report,
) -> Res<Headline> {
    let run_dir = RunDir::new(w.name)?;
    let inp = inputs(w, seed);
    let mut plan = plan(w, seed, seconds);

    let mut cycles = Vec::with_capacity(w.setup_cycles);
    let mut kept = None;
    for _ in 0..w.setup_cycles {
        if let Some((served, _)) = kept.take() {
            Served::shutdown(served);
        }
        let (served, cycle, first) = setup_cycle(w, &inp, seed, &run_dir.0)?;
        cycles.push(cycle);
        kept = Some((served, first));
    }
    let (served, first) = kept.ok_or("no set-up cycle ran")?;
    let (uncached_ms, first_expected) = references(w, &inp, &served, &mut plan)?;
    let first_ok = first == first_expected;

    let republished = republished_shard(w, seed);
    if let Some(s) = republished {
        let snap = region_snapshot(w, &inp, s, seed);
        let mut at = REPUBLISH_EVERY_S;
        let mut i = 0u64;
        while at < seconds - 1.0 {
            let mut next = snap.clone();
            next.seed = seed + i + 1;
            let from = run_dir.0.join(format!("republish-{i}.pfsnap"));
            next.save_as(&from, SnapshotFormat::V2)
                .map_err(err("write republish"))?;
            plan.actions.push(Action {
                at_ns: (at * 1e9) as u64,
                from,
                to: served.paths[s].clone(),
            });
            at += REPUBLISH_EVERY_S;
            i += 1;
        }
    }

    // The peak resident set should be the servers', not the harness's:
    // drop the inputs (regenerated from the seed if a traced run needs
    // them) and hand freed memory back before resetting the high-water
    // mark. The plan keeps only digests of the expected bodies and builds
    // each request's bytes when it sends them.
    drop(inp);
    sys::trim_heap();
    let rss_at_reset_mb = sys::rss_mb();
    sys::reset_peak_rss().map_err(err("reset VmHWM"))?;
    let noise = HostNoise::start();
    let probe = Probe::start();
    let addr = served.front.addr();
    let outcome = std::thread::scope(|s| s.spawn(|| run_open_loop(addr, &plan)).join())
        .map_err(|_| "generator thread panicked".to_string())?
        .map_err(err("generator"))?;
    let (speed, speed_samples, probe_ns) = probe.finish();
    let (steal_pct, switches) = noise.finish();
    let peak_rss_mb = sys::peak_rss_mb();
    let raw_cpu_us_per_op = outcome.cpu_us_per_op(probe_ns);
    let metrics = served.front.metrics();
    // The last republish lands a second before the phase ends; give the
    // watcher a few polls to record it before reading the counters.
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.reloads_total() < plan.actions.len() as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }

    let n = plan.len();
    let lat = sorted(
        &(0..n)
            .map(|i| outcome.latency_us(&plan.due_ns, i))
            .collect::<Vec<_>>(),
    );
    let quiet = outcome.quiet_windows();
    // The gated median runs from dispatch: the generator never waits for
    // the server, so dispatch differs from schedule only by the
    // generator's own wake-up jitter, reported separately as lateness.
    let quiet_lat = sorted(&outcome.latencies_in(&outcome.sent_ns, &quiet));
    let all_dispatch = sorted(
        &(0..plan.len())
            .map(|i| outcome.latency_us(&outcome.sent_ns, i))
            .collect::<Vec<_>>(),
    );
    let lateness = sorted(&outcome.lateness_us(&plan.due_ns));
    let ok = n - outcome.failed();
    let reloads_ok = metrics.reloads_total() == plan.actions.len() as u64
        && metrics.reload_failures_total() == 0
        && outcome.action_errors == 0;
    let headline = Headline {
        latency_p50_us: percentile(&quiet_lat, 50.0),
        cpu_us_per_op: raw_cpu_us_per_op / speed,
    };
    report.correct = first_ok && outcome.mismatched() == 0 && reloads_ok;
    report.attempted = n as u64;
    report.failed = outcome.failed() as u64;
    report.note(format!(
        "workload {} seed {seed} seconds {seconds}: offered {:.0} req/s, {} requests, {} distinct keys, {:.1}% repeated keys",
        w.name,
        n as f64 / seconds,
        n,
        plan.keys.len(),
        plan.repeat_pct()
    ));
    report.note(format!(
        "generator: 1 thread, {CONNECTIONS} pipelined keep-alive connections, {} reconnects, {} requests re-sent, lateness p50 {:.1} us p99 {:.1} us",
        outcome.reconnects,
        outcome.resent,
        percentile(&lateness, 50.0),
        percentile(&lateness, 99.0)
    ));
    report.note(format!(
        "diagnostics (not gated): latency from schedule p99 {:.1} us ({} samples beyond), p99.9 {:.1} us ({} samples beyond), of {} samples",
        percentile(&lat, 99.0),
        beyond(&lat, 99.0),
        percentile(&lat, 99.9),
        beyond(&lat, 99.9),
        lat.len()
    ));
    report.note(format!(
        "host: nproc {}, steal {steal_pct:.2}% of CPU ticks, {switches} nonvoluntary context switches, phase {:.2} s",
        sys::nproc(),
        outcome.wall_ns as f64 / 1e9
    ));
    report.note(format!(
        "latency p50 {:.1} us from dispatch in {} of {} steal-free windows ({} requests); over all windows {:.1} us from dispatch, {:.1} us from schedule",
        percentile(&quiet_lat, 50.0),
        quiet.iter().filter(|q| **q).count(),
        quiet.len(),
        quiet_lat.len(),
        percentile(&all_dispatch, 50.0),
        percentile(&lat, 50.0),
    ));
    report.note(format!(
        "server cpu {raw_cpu_us_per_op:.2} us per request (process minus generator and speed probe threads, whole phase) at host speed {speed:.4} (mean of {speed_samples} samples): {:.2} us at the reference speed",
        headline.cpu_us_per_op
    ));
    report.note(format!(
        "memory: {rss_at_reset_mb:.1} MB resident when the high-water mark was reset, peak {peak_rss_mb:.1} MB"
    ));
    report.note(format!(
        "failures: {} non-200, {} mismatched bodies, {} timeouts; first set-up answer correct {first_ok}; reloads {} of {} republishes, {} reload failures",
        outcome.fate.iter().filter(|f| **f == Fate::Status).count(),
        outcome.mismatched(),
        outcome.fate.iter().filter(|f| **f == Fate::Timeout).count(),
        metrics.reloads_total(),
        plan.actions.len(),
        metrics.reload_failures_total()
    ));
    let setup_s = setup_summary(&cycles, report);

    match traced {
        None => {
            report.set("setup_s", setup_s);
            report.set("cpu_us_per_op", headline.cpu_us_per_op);
            report.set("peak_rss_mb", peak_rss_mb);
            report.set("quality_pct", 100.0 * ok as f64 / n.max(1) as f64);
        }
        Some(untraced) => {
            headline.overhead(&untraced, report);
            report.set("cpu.us_per_op", headline.cpu_us_per_op);
            report.set("client.latency_p50_us", headline.latency_p50_us);
            report.set("client.lateness_p50_us", percentile(&lateness, 50.0));
            report.set("client.lateness_p99_us", percentile(&lateness, 99.0));
            report.set("client.latency_p99_us", percentile(&lat, 99.0));
            report.set("client.latency_p99_samples", beyond(&lat, 99.0) as f64);
            report.set("host.steal_pct", steal_pct);
            report.set("host.nonvoluntary_switches", switches as f64);
            report.set("host.speed", speed);
            let tracer = layer_metrics(
                w,
                &inputs(w, seed),
                &served,
                &plan,
                &outcome,
                &metrics,
                &uncached_ms,
                seed,
                report,
            )?;
            let spans: Vec<RequestSpan> = (0..n)
                .map(|i| RequestSpan {
                    index: i,
                    due_ns: plan.due_ns[i],
                    sent_ns: outcome.sent_ns[i],
                    done_ns: if outcome.fate[i] == Fate::Timeout {
                        u64::MAX
                    } else {
                        outcome.done_ns[i]
                    },
                })
                .collect();
            let path =
                PathBuf::from(".bench_out").join(format!("trace-{}-seed{seed}.jsonl", w.name));
            write_jsonl(&path, &spans, &tracer).map_err(err("write trace"))?;
            report.note(format!(
                "trace: {} request spans and {} layer spans written to {}",
                spans.len(),
                tracer.spans().len(),
                path.display()
            ));
        }
    }
    served.shutdown();
    Ok(headline)
}

/// Per-layer metrics of a traced run: counters from the measured phase,
/// latencies split by cache state, closed-loop probes, and the replay of
/// every operation through the layers' public functions.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    inp: &Inputs,
    served: &Served,
    plan: &Plan,
    outcome: &Outcome,
    metrics: &Metrics,
    uncached_ms: &[f64],
    seed: u64,
    report: &mut Report,
) -> Res<Tracer> {
    // Cache counters and latency by whether the key was already answered
    // in its current epoch.
    let hits = metrics.cache_hits_total() as f64;
    let misses = metrics.cache_misses_total() as f64;
    report.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.set(
        "cache.coalesced_waits",
        metrics.cache_coalesced_waits_total() as f64,
    );
    report.set("cache.evictions", metrics.cache_evictions_total() as f64);
    let (mut seen_lat, mut fresh_lat) = (Vec::new(), Vec::new());
    let mut seen = HashSet::new();
    for i in 0..plan.len() {
        if outcome.fate[i] != Fate::Ok {
            continue;
        }
        let key = plan.key_of[i];
        let epoch = if plan.keys[key as usize].dynamic {
            outcome.epoch[i]
        } else {
            0
        };
        let lat = outcome.latency_us(&outcome.sent_ns, i);
        if seen.insert((key, epoch)) {
            fresh_lat.push(lat);
        } else {
            seen_lat.push(lat);
        }
    }
    report.set("cache.hit_p50_us", median(&seen_lat));
    report.set("cache.miss_p50_us", median(&fresh_lat));
    if w.topology == Topology::Sharded {
        report.set("reload.swaps", metrics.reloads_total() as f64);
        report.set("reload.failures", metrics.reload_failures_total() as f64);
    }

    // Request floor: GET /healthz on the measured server.
    let healthz = get("/healthz");
    let floor_us = median(&probe_us(served.front.addr(), &healthz, PROBES)?);
    report.set("http.floor_p50_us", floor_us);
    if !uncached_ms.is_empty() {
        report.set(
            "aggregate.uncached_ms",
            median(uncached_ms) - floor_us / 1e3,
        );
    }
    if w.topology == Topology::Federated {
        report.set("federation.hedges", metrics.fed_hedges_total() as f64);
        report.set(
            "federation.hedge_wins",
            metrics.fed_hedge_wins_total() as f64,
        );
        report.set("federation.retries", metrics.fed_retries_total() as f64);
        // The same region-routed requests, straight to the backend and
        // through the front end, alternating; the measured phase already
        // put each answer in the backend's cache.
        let mut direct = Vec::with_capacity(PROBES);
        let mut relayed = Vec::with_capacity(PROBES);
        let mut front = Client::new(served.front.addr());
        let mut backs: Vec<Client> = served
            .backends
            .iter()
            .map(|b| Client::new(b.addr()))
            .collect();
        for (k, key) in plan.keys.iter().enumerate().take(PROBES) {
            let OpKind::Pipe { shard, .. } = key.kind else {
                continue;
            };
            let request = plan.request(k as u32);
            let t = Instant::now();
            backs[shard].call(&request).map_err(err("direct probe"))?;
            direct.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            front.call(&request).map_err(err("relayed probe"))?;
            relayed.push(t.elapsed().as_secs_f64() * 1e6);
        }
        report.set(
            "federation.overhead_p50_us",
            median(&relayed) - median(&direct),
        );
    }

    // Snapshot codec on region 0.
    let snap = region_snapshot(w, inp, 0, seed);
    let mut encode = Vec::new();
    let mut load = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(snap.to_bytes_v2());
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(Scorer::load(&served.paths[0]).map_err(err("reload snapshot"))?);
        load.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("snapshot.encode_ms", median(&encode));
    report.set("snapshot.load_ms", median(&load));
    let bytes = std::fs::metadata(&served.paths[0])
        .map_err(err("stat snapshot"))?
        .len();
    report.set("snapshot.file_mb", bytes as f64 / (1024.0 * 1024.0));

    replay(w, served, plan, report)
}

/// Replay every operation of the plan through the layers' public
/// functions: one root span per operation, one child per layer call.
fn replay(w: &Workload, served: &Served, plan: &Plan, report: &mut Report) -> Res<Tracer> {
    let mut tracer = Tracer::new();
    let overhead = tracer.overhead_ns();
    let scorers: Vec<Arc<Scorer>> = (0..w.shards)
        .map(|s| region_scorer(w, served, s))
        .collect::<Res<_>>()?;
    let fed_set = match w.topology {
        Topology::Federated => Some(
            ShardSet::load_paths(&served.paths, &TaskPool::from_env())
                .map_err(err("load shards"))?,
        ),
        _ => None,
    };
    let fleet: Option<&ShardSet> = match w.topology {
        Topology::Sharded => Some(served.ctxs[0].shards()),
        Topology::Federated => fed_set.as_ref(),
        Topology::Monolithic => None,
    };
    let pool = TaskPool::from_env();
    for &k in &plan.key_of {
        let key = &plan.keys[k as usize];
        let request = plan.request(k);
        let root = tracer.begin("op", 0);
        let parsed = tracer.time("parser.parse_request", root, || {
            parse_request(&request, 64 * 1024)
        });
        if !matches!(parsed, Ok(pipefail_serve::ParseOutcome::Complete(..))) {
            return Err("replayed request does not parse".into());
        }
        match &key.kind {
            OpKind::Pipe { shard, id } => {
                tracer.time("scorer.risk_of", root, || {
                    scorers[*shard].risk_of(PipeId(*id))
                });
            }
            OpKind::Top { shard: Some(s), k } => {
                tracer.time("http.render_top_k", root, || render_top_k(&scorers[*s], *k));
            }
            OpKind::Top { shard: None, k } => match (w.topology, fleet) {
                (Topology::Sharded, Some(set)) => {
                    let merged = tracer.time("shards.global_top_k", root, || set.global_top_k(*k));
                    let merged = merged.map_err(|d| format!("degraded {d:?}"))?;
                    tracer.time("http.render_global_top_k", root, || {
                        render_global_top_k(set, &merged, *k)
                    });
                }
                (Topology::Federated, Some(set)) => {
                    // What the backends and the front end each do for a
                    // region-less /top.
                    for scorer in &scorers {
                        tracer.time("http.render_top_k", root, || render_top_k(scorer, *k));
                    }
                    let tables: Vec<RiskSlice<'_>> = scorers.iter().map(|s| s.top_k(*k)).collect();
                    let merged =
                        tracer.time("shards.merge_top_k", root, || merge_top_k(&tables, *k));
                    tracer.time("http.render_global_top_k", root, || {
                        render_global_top_k(set, &merged, *k)
                    });
                }
                _ => {
                    tracer.time("http.render_top_k", root, || render_top_k(&scorers[0], *k));
                }
            },
            OpKind::Batch { ids } => {
                let queries: Vec<Query> = ids.iter().map(|id| Query::Pipe(PipeId(*id))).collect();
                tracer.time("scorer.answer_batch", root, || {
                    scorers[0].answer_batch(&queries, &pool)
                });
            }
            OpKind::Aggregate { .. } => {
                let body = match parsed {
                    Ok(pipefail_serve::ParseOutcome::Complete(req, _)) => req.body,
                    _ => String::new(),
                };
                let spec = tracer.time("aggregate.parse", root, || AggregateSpec::parse(&body));
                spec.map_err(err("replayed spec"))?;
            }
        }
        tracer.end(root);
    }
    if let Topology::Sharded = w.topology {
        // merge_top_k over the shards' own top-k slices.
        for &key in &plan.key_of {
            if let OpKind::Top { shard: None, k } = plan.keys[key as usize].kind {
                let root = tracer.begin("op.merge", 0);
                let tables: Vec<RiskSlice<'_>> = scorers.iter().map(|s| s.top_k(k)).collect();
                tracer.time("shards.merge_top_k", root, || merge_top_k(&tables, k));
                tracer.end(root);
            }
        }
    }

    // Metric, span name, ns per unit.
    for (metric, span, scale) in [
        ("parser.parse_ns", "parser.parse_request", 1.0),
        ("scorer.risk_of_ns", "scorer.risk_of", 1.0),
        ("scorer.top_k_render_us", "http.render_top_k", 1e3),
        ("scorer.batch_us", "scorer.answer_batch", 1e3),
        ("aggregate.parse_us", "aggregate.parse", 1e3),
        ("shards.global_top_k_us", "shards.global_top_k", 1e3),
        ("shards.merge_top_k_us", "shards.merge_top_k", 1e3),
    ] {
        let v = tracer.layer_self_ns(span);
        if !v.is_empty() {
            report.set(metric, (median(&v) - overhead).max(0.0) / scale);
        }
    }
    report.note(format!(
        "replay: {} layer spans, tracer cost {overhead:.0} ns per span (subtracted)",
        tracer.spans().len()
    ));
    Ok(tracer)
}
