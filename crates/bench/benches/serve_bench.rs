//! Serving-layer bench: keep-alive payoff, sharded scatter-gather cost,
//! and point-lookup latency.
//!
//! The `serve/keepalive` and `serve/fresh` entries issue 100
//! `GET /top?k=10` queries against a live server on a loopback socket;
//! `keepalive` reuses ONE connection for all of them, `fresh` opens a new
//! connection per request (the pre-keep-alive behaviour). The ratio is the
//! per-request cost of TCP setup + teardown that connection reuse
//! amortises away.
//!
//! The `serve/sharded/*` entries price shard-by-region serving on the same
//! total pipe count: `monolithic_topk` serves 100k pipes from one
//! snapshot, `global_topk` serves the same pipes split over 8 regional
//! shards and scatter-gathers the global top-K with the bounded k-way
//! merge (the acceptance bound: ≤ 1.5× monolithic), and `region_routed`
//! answers `?region=...` queries routed to a single shard (expected within
//! noise of single-snapshot serving). All three issue the same
//! `/top?k=10` query shape as the keep-alive entries.
//!
//! The `serve/federated/*` entries price remote-shard federation on the
//! same shard tables served behind real sockets: `region_routed` is one
//! relay hop over `sharded/region_routed`, `global_topk` scatters to every
//! backend over TCP and k-way-merges at the front-end, and the
//! `{hedged,unhedged}_with_stragglers` pair routes one region through a
//! proxy that delays every 10th response by 25ms — hedging (5ms trigger)
//! should strip most of the stragglers' contribution from the total,
//! the unhedged run eats every delay.
//!
//! The `serve/aggregate/*` entries price the declarative `POST /aggregate`
//! pipeline (group by material × decade; count, summed length, average
//! risk) across the three topologies on the same 100k attribute-tagged
//! pipes: `monolithic` runs the whole pipeline in one pass, `sharded`
//! executes per-shard partials on the task pool and merges in-process,
//! `federated` scatters the spec to 8 backend processes over TCP and
//! merges their wire partials at the front-end. All three answer
//! byte-identical bodies (pinned by the e2e battery); the deltas are pure
//! fan-out and wire cost.
//!
//! The `scorer/risk_of_100k` entry times in-process `/pipe` point lookups
//! against the 100k-pipe table — a binary search over the snapshot's
//! sorted id→rank index columns.
//!
//! The `serve/mmap/{cold_start,reload}/*` and `serve/heap/cold_start/*`
//! entries come from the snapshot-loading harness (see [`mmap_load`]):
//! the zero-copy v2 mmap loader vs the v1 load (parse, re-encode as v2
//! into an owned buffer, validate) across a size sweep, plus the
//! watcher-shaped load-and-swap reload.
//!
//! The `serve/epoll/open_loop/*` entries come from the open-loop Poisson
//! load generator (see [`open_loop`]): a concurrency sweep against the
//! epoll event-loop core at a fixed offered rate, recording
//! coordinated-omission-free latency percentiles per point. (The
//! `serve/threaded/open_loop/*` entries already in `BENCH_perf.json` are
//! history from the thread-per-connection core this crate no longer
//! ships.)
//!
//! A custom `main` appends every measurement to the `BENCH_perf.json`
//! trajectory.

use criterion::{black_box, criterion_group, Criterion};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_serve::{
    serve, serve_federated, FedConfig, Federation, Scorer, ServeContext, ServerConfig, ShardSet,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const QUERIES: usize = 100;
/// Total pipes in the sharded-vs-monolithic comparison (8 shards × 12.5k).
const TOTAL_PIPES: u32 = 100_000;
const SHARDS: u32 = 8;

/// Synthetic per-pipe attributes in score order — all 9 materials and 12
/// decades — so every bench snapshot can also answer `/aggregate`.
fn push_attributes(snap: &mut Snapshot, n: u32) {
    snap.push_section(attributes_section(
        (0..n).map(|i| 50.0 + f64::from(i % 200)).collect(),
        (0..n).map(|i| f64::from(i % 9)).collect(),
        (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
    ));
}

/// The bench snapshot: `n` pipes with strictly descending scores and full
/// per-pipe attributes (shared by the serving benches and the mmap
/// cold-start/reload harness).
fn bench_snapshot(n: u32) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: 1.0 - f64::from(i) / f64::from(n),
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
    push_attributes(&mut snap, n);
    snap
}

fn scorer(n: u32) -> Scorer {
    Scorer::new(bench_snapshot(n)).expect("valid snapshot")
}

/// One regional shard holding `n` of the `TOTAL_PIPES` scores: shard `s`
/// gets the scores at positions `s, s+8, s+16, …` of the global descending
/// order, so the merged global top-K draws from every shard.
fn shard_scorer(s: u32, n: u32) -> Scorer {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: 1.0 - f64::from(i * SHARDS + s) / f64::from(TOTAL_PIPES),
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", format!("Shard {s}"), 7, &ranking);
    push_attributes(&mut snap, n);
    Scorer::new(snap).expect("valid snapshot")
}

/// Read exactly one `Content-Length`-framed response off the stream.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> usize {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read head");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length")))
        .map(|(_, v)| v.trim().parse().expect("integer Content-Length"))
        .expect("Content-Length header");
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.drain(..total);
    content_length
}

fn get_path(stream: &mut TcpStream, buf: &mut Vec<u8>, path: &str, keep_alive: bool) -> usize {
    let request = format!(
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    stream.write_all(request.as_bytes()).expect("send");
    read_response(stream, buf)
}

fn get(stream: &mut TcpStream, buf: &mut Vec<u8>, keep_alive: bool) -> usize {
    get_path(stream, buf, "/top?k=10", keep_alive)
}

/// One keep-alive connection, `QUERIES` requests for `path`.
fn keepalive_round(addr: SocketAddr, path: &str) -> usize {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..QUERIES {
        bytes += get_path(&mut stream, &mut buf, path, true);
    }
    bytes
}

/// One keep-alive connection, `QUERIES` POSTs of `body` to `path`.
fn post_round(addr: SocketAddr, path: &str, body: &str) -> usize {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..QUERIES {
        stream.write_all(request.as_bytes()).expect("send");
        bytes += read_response(&mut stream, &mut buf);
    }
    bytes
}

/// One-shot probe asserting a server answers `POST /aggregate` with 200 —
/// a silent 4xx/5xx would turn the aggregate entries into error-path
/// measurements.
fn assert_aggregate_ok(addr: SocketAddr, body: &str) {
    let request = format!(
        "POST /aggregate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.write_all(request.as_bytes()).expect("send");
    let raw = read_framed_raw(&mut stream).expect("aggregate probe response");
    assert!(
        raw.starts_with(b"HTTP/1.1 200"),
        "aggregate probe failed: {}",
        String::from_utf8_lossy(&raw[..raw.len().min(200)])
    );
}

fn bench_serving(c: &mut Criterion) {
    let config = ServerConfig {
        // High enough that one keep-alive iteration (100 requests) never
        // trips the per-connection cap mid-measurement.
        keepalive_requests: 0,
        // Every pre-cache serve entry keeps measuring the *compute* path;
        // the result cache gets its own `serve/cache/*` group below.
        cache: false,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::new(scorer(1000))), &config).expect("server starts");
    let addr: SocketAddr = handle.addr();

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);

    // 100 queries down ONE reused connection.
    g.bench_function(format!("keepalive/{QUERIES}_top_queries"), |b| {
        b.iter(|| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            let mut buf = Vec::new();
            let mut bytes = 0usize;
            for _ in 0..QUERIES {
                bytes += get(&mut stream, &mut buf, true);
            }
            black_box(bytes)
        })
    });

    // The same 100 queries, each on a fresh connection.
    g.bench_function(format!("fresh/{QUERIES}_top_queries"), |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for _ in 0..QUERIES {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut buf = Vec::new();
                bytes += get(&mut stream, &mut buf, false);
            }
            black_box(bytes)
        })
    });
    g.finish();
    handle.shutdown();
}

/// Scatter-gather vs monolithic on the same 100k pipes, plus region-routed
/// single-shard queries. Everything runs over keep-alive connections so the
/// delta is pure scoring/merge cost, not TCP churn.
fn bench_sharded(c: &mut Criterion) {
    let config = ServerConfig {
        keepalive_requests: 0,
        cache: false,
        ..ServerConfig::default()
    };
    let per_shard = TOTAL_PIPES / SHARDS;

    let mono = serve(
        Arc::new(ServeContext::new(scorer(TOTAL_PIPES))),
        &config,
    )
    .expect("monolithic server starts");
    let shard_set = ShardSet::from_scorers((0..SHARDS).map(|s| shard_scorer(s, per_shard)).collect())
        .expect("distinct regions");
    let sharded = serve(Arc::new(ServeContext::sharded(shard_set)), &config)
        .expect("sharded server starts");

    let mut g = c.benchmark_group("serve");
    // The sharded/monolithic ratio is the acceptance bound; more samples
    // keep single-core scheduler noise from dominating it.
    g.sample_size(30);

    // Baseline: top-10 out of one 100k-pipe snapshot — the same query the
    // `serve/keepalive` entry issues, so every serve entry shares one
    // operating point.
    g.bench_function(format!("sharded/monolithic_topk/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(mono.addr(), "/top?k=10")))
    });

    // The same pipes behind 8 regional shards: each query fans out to every
    // shard and k-way-merges 8×10 candidates. The delta over the
    // monolithic entry is the routing + scatter-gather cost (bound: ≤ 1.5×;
    // the global entries also carry region/shard_rank tags, so the body is
    // a little larger by construction).
    g.bench_function(format!("sharded/global_topk/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(sharded.addr(), "/top?k=10")))
    });

    // Region-tagged queries touch exactly one shard — expected within noise
    // of single-snapshot serving.
    g.bench_function(format!("sharded/region_routed/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(sharded.addr(), "/top?region=shard_3&k=10")))
    });
    g.finish();

    mono.shutdown();
    sharded.shutdown();
}

/// Read one exact-framed response and return its raw bytes (head + body),
/// ready to forward verbatim.
fn read_framed_raw(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let content_length: usize = head
        .split("\r\n")
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length")))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let total = head_end + 4 + content_length;
    while buf.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    buf.truncate(total);
    Some(buf)
}

/// A minimal forwarding proxy that delays every `stride`-th response by
/// `delay` — a deterministic straggler injector for the hedged-vs-unhedged
/// comparison. No faults, just tail latency.
fn straggler_proxy(upstream: SocketAddr, stride: usize, delay: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    let counter = Arc::new(AtomicUsize::new(0));
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(mut client) = client else { continue };
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                client.set_nodelay(true).ok();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                loop {
                    // One GET request head == one request.
                    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        match client.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                    let request = std::mem::take(&mut buf);
                    let Ok(mut up) = TcpStream::connect(upstream) else { return };
                    up.set_nodelay(true).ok();
                    if up.write_all(&request).is_err() {
                        return;
                    }
                    let Some(response) = read_framed_raw(&mut up) else { return };
                    if counter.fetch_add(1, Ordering::Relaxed) % stride == stride - 1 {
                        std::thread::sleep(delay);
                    }
                    if client.write_all(&response).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// Federated serving vs the in-process sharded baseline, plus the
/// hedged-vs-unhedged tail-latency comparison through a deterministic
/// straggler proxy (every 10th response +25ms).
fn bench_federated(c: &mut Criterion) {
    let config = ServerConfig {
        keepalive_requests: 0,
        workers: 4,
        cache: false,
        ..ServerConfig::default()
    };
    let per_shard = TOTAL_PIPES / SHARDS;

    // One backend serve process per region — the same shard tables the
    // `serve/sharded/*` entries serve in-process, now behind sockets.
    let backends: Vec<_> = (0..SHARDS)
        .map(|s| {
            serve(
                Arc::new(ServeContext::new(shard_scorer(s, per_shard))),
                &config,
            )
            .expect("backend starts")
        })
        .collect();
    let targets: Vec<(String, String)> = backends
        .iter()
        .enumerate()
        .map(|(s, h)| (format!("Shard {s}"), h.addr().to_string()))
        .collect();
    let fed_config = FedConfig {
        retries: 0,
        hedge_ms: Some(0),
        ..FedConfig::default()
    };
    let fed = Arc::new(Federation::new(targets.clone(), fed_config.clone()).expect("federation"));
    let front = serve_federated(Arc::clone(&fed), &config).expect("front-end starts");

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);

    // Region-routed: one relay hop over the in-process `sharded/region_routed`
    // baseline — the price of the extra socket round trip.
    g.bench_function(format!("federated/region_routed/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(front.addr(), "/top?region=shard_3&k=10")))
    });

    // Global top-K: scatter to every backend over TCP, k-way merge at the
    // front-end — against the in-process `sharded/global_topk` baseline.
    g.bench_function(format!("federated/global_topk/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(front.addr(), "/top?k=10")))
    });
    g.finish();
    front.shutdown();

    // Tail latency: one region behind a straggler proxy; hedging ON should
    // cut the stragglers' contribution, hedging OFF eats every delay.
    let proxied = straggler_proxy(
        backends[0].addr(),
        10,
        Duration::from_millis(25),
    );
    let straggler_targets: Vec<(String, String)> = vec![("Shard 0".into(), proxied.to_string())];
    for (label, hedge_ms) in [("unhedged", Some(0)), ("hedged", Some(5))] {
        let fed = Arc::new(
            Federation::new(
                straggler_targets.clone(),
                FedConfig {
                    retries: 0,
                    hedge_ms,
                    ..FedConfig::default()
                },
            )
            .expect("federation"),
        );
        let front = serve_federated(fed, &config).expect("front-end starts");
        let mut g = c.benchmark_group("serve");
        g.sample_size(10);
        g.bench_function(
            format!("federated/{label}_with_stragglers/{QUERIES}_queries"),
            |b| b.iter(|| black_box(keepalive_round(front.addr(), "/top?region=shard_0&k=10"))),
        );
        g.finish();
        front.shutdown();
    }

    for h in backends {
        h.shutdown();
    }
}

/// The declarative aggregation pipeline across the three topologies on
/// the same 100k attribute-tagged pipes (see the module docs): identical
/// bodies, different execution plans.
fn bench_aggregate(c: &mut Criterion) {
    const SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";
    let config = ServerConfig {
        keepalive_requests: 0,
        workers: 4,
        cache: false,
        ..ServerConfig::default()
    };
    let per_shard = TOTAL_PIPES / SHARDS;

    let mono = serve(Arc::new(ServeContext::new(scorer(TOTAL_PIPES))), &config)
        .expect("monolithic server starts");
    let shard_set =
        ShardSet::from_scorers((0..SHARDS).map(|s| shard_scorer(s, per_shard)).collect())
            .expect("distinct regions");
    let sharded = serve(Arc::new(ServeContext::sharded(shard_set)), &config)
        .expect("sharded server starts");
    let backends: Vec<_> = (0..SHARDS)
        .map(|s| {
            serve(
                Arc::new(ServeContext::new(shard_scorer(s, per_shard))),
                &config,
            )
            .expect("backend starts")
        })
        .collect();
    let targets: Vec<(String, String)> = backends
        .iter()
        .enumerate()
        .map(|(s, h)| (format!("Shard {s}"), h.addr().to_string()))
        .collect();
    let fed = Arc::new(
        Federation::new(
            targets,
            FedConfig {
                retries: 0,
                hedge_ms: Some(0),
                ..FedConfig::default()
            },
        )
        .expect("federation"),
    );
    let front = serve_federated(fed, &config).expect("front-end starts");

    for handle in [&mono, &sharded, &front] {
        assert_aggregate_ok(handle.addr(), SPEC);
    }

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function(format!("aggregate/monolithic/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(post_round(mono.addr(), "/aggregate", SPEC)))
    });
    g.bench_function(format!("aggregate/sharded/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(post_round(sharded.addr(), "/aggregate", SPEC)))
    });
    g.bench_function(format!("aggregate/federated/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(post_round(front.addr(), "/aggregate", SPEC)))
    });
    g.finish();

    front.shutdown();
    mono.shutdown();
    sharded.shutdown();
    for h in backends {
        h.shutdown();
    }
}

/// The epoch-keyed result cache on the same 100k-pipe operating point the
/// `serve/aggregate/*` entries measure: a cached hit (pooled-buffer
/// replay of the rendered body) vs the uncached full-table scan, plus the
/// single-flight coalesced path (8 identical concurrent misses, one
/// compute). Prints one greppable
/// `CACHEBENCH pipes=… hit_ns=… miss_ns=…` stdout line; the CI gate
/// asserts `hit_ns * 5 <= miss_ns`.
fn bench_cache(c: &mut Criterion) {
    const SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";
    let cached_config = ServerConfig {
        keepalive_requests: 0,
        workers: 4,
        ..ServerConfig::default()
    };
    let uncached_config = ServerConfig { cache: false, ..cached_config.clone() };

    let warm = serve(Arc::new(ServeContext::new(scorer(TOTAL_PIPES))), &cached_config)
        .expect("cached server starts");
    let cold = serve(Arc::new(ServeContext::new(scorer(TOTAL_PIPES))), &uncached_config)
        .expect("uncached server starts");
    // Probe both (and store the cached server's entry) before the clock.
    assert_aggregate_ok(warm.addr(), SPEC);
    assert_aggregate_ok(cold.addr(), SPEC);

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function(format!("cache/hit/aggregate_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(post_round(warm.addr(), "/aggregate", SPEC)))
    });
    g.bench_function(format!("cache/miss/aggregate_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(post_round(cold.addr(), "/aggregate", SPEC)))
    });
    g.bench_function(format!("cache/hit/global_topk_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(keepalive_round(warm.addr(), "/top?k=10")))
    });
    // Coalesced: every iteration invents a fresh key (the budget value
    // varies) and hammers it with 8 identical concurrent requests — one
    // leads the compute, seven wait on the flight and replay its bytes.
    let round = std::sync::atomic::AtomicU64::new(0);
    g.bench_function("cache/coalesced/aggregate_100k/8_clients", |b| {
        b.iter(|| {
            let n = round.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let spec = format!(
                "{{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{{\"op\":\"count\"}},{{\"op\":\"sum\",\"field\":\"length_m\"}}],\"budget\":{{\"length_m\":{}}}}}",
                100_000_000 + n
            );
            let addr = warm.addr();
            std::thread::scope(|s| {
                let spec = spec.as_str();
                let clients: Vec<_> = (0..8)
                    .map(|_| {
                        s.spawn(move || {
                            let request = format!(
                                "POST /aggregate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{spec}",
                                spec.len()
                            );
                            let mut stream = TcpStream::connect(addr).expect("connect");
                            stream.set_nodelay(true).ok();
                            stream.write_all(request.as_bytes()).expect("send");
                            let mut buf = Vec::new();
                            read_response(&mut stream, &mut buf)
                        })
                    })
                    .collect();
                let bytes: usize =
                    clients.into_iter().map(|h| h.join().expect("client")).sum();
                black_box(bytes)
            })
        })
    });
    g.finish();

    // The greppable gate line: median single-request latency, hit vs miss,
    // measured outside criterion so smoke mode still produces real medians.
    let median_ns = |addr: SocketAddr| -> u64 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let mut buf = Vec::new();
        let request = format!(
            "POST /aggregate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{SPEC}",
            SPEC.len()
        );
        let mut samples: Vec<u64> = (0..31)
            .map(|_| {
                let t = std::time::Instant::now();
                stream.write_all(request.as_bytes()).expect("send");
                black_box(read_response(&mut stream, &mut buf));
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    let hit_ns = median_ns(warm.addr());
    let miss_ns = median_ns(cold.addr());
    println!("CACHEBENCH pipes={TOTAL_PIPES} hit_ns={hit_ns} miss_ns={miss_ns}");

    warm.shutdown();
    cold.shutdown();
}

/// In-process `/pipe` point lookups against the 100k-pipe table: the
/// binary-searched id→rank index (`Scorer::risk_of`), no HTTP in the loop.
fn bench_scorer_lookup(c: &mut Criterion) {
    let s = scorer(TOTAL_PIPES);
    let mut g = c.benchmark_group("scorer");
    g.sample_size(10);
    g.bench_function("risk_of_100k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            // A stride that is coprime with 100k walks the whole id space.
            let mut id = 0u32;
            for _ in 0..1000 {
                id = (id + 77_773) % (TOTAL_PIPES + 7);
                hits += usize::from(s.risk_of(PipeId(id)).is_some());
            }
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_serving,
    bench_sharded,
    bench_federated,
    bench_aggregate,
    bench_cache,
    bench_scorer_lookup
);

/// Open-loop load generation: Poisson arrivals at a fixed offered rate,
/// swept across connection counts.
///
/// Open-loop means request *arrival times* are scheduled up front from the
/// target rate and latency is measured from the **scheduled** arrival, not
/// from when the client got around to sending — a server that stalls
/// therefore accumulates queueing delay into its percentiles instead of
/// silently slowing the load down (the coordinated-omission trap of
/// closed-loop harnesses). Every swept connection is opened before the
/// clock starts and held for the whole window, so a sweep point measures
/// the server *holding* `N` sockets while serving the offered rate over
/// them. Requests that miss the 2s client deadline are counted as errors
/// *at* the deadline value, keeping them inside the percentiles.
///
/// Knobs: `PIPEFAIL_LOADTEST_CONNS` (comma-separated sweep, default
/// `64,256,1024,4096`), `PIPEFAIL_LOADTEST_RPS` (offered rate, default
/// 500), `PIPEFAIL_LOADTEST_SECS` (window per point, default 5);
/// `PIPEFAIL_BENCH_SMOKE=1` shrinks the defaults to `64,256` @ 200 rps ×
/// 1s. `PIPEFAIL_LOADTEST_ONLY=1` skips the criterion groups so CI can run
/// just this harness.
///
/// Each point yields `serve/epoll/open_loop/c{N}/{p50,p95,p99,p999}`
/// trajectory entries (ns per request) plus an `…/errors` entry, and one
/// greppable `LOADTEST core=epoll conns=… errors=… p99_us=…` stdout line.
///
/// After the sweep (which runs with the result cache OFF so it measures
/// compute), the harness re-runs the largest swept point
/// twice over a **skewed** key mix — 90% one hot key, 10% a warm tail —
/// with the cache off and on, yielding
/// `serve/cache/{off,on}/open_loop/c{N}/…` entries and
/// `LOADTEST core=… cache={off,on} …` lines.
mod open_loop {
    use super::{scorer, ServeContext, ServerConfig};
    use criterion::BenchRecord;
    use pipefail_serve::serve;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    /// A request unanswered this long after its scheduled arrival is an
    /// error, recorded at exactly this latency.
    const CLIENT_DEADLINE: Duration = Duration::from_secs(2);
    /// The sweep query: the same `/top` shape every serve bench issues.
    const PATH: &str = "/top?k=10";

    /// Serialized keep-alive GET for `path`.
    fn request_line(path: &str) -> String {
        format!("GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n")
    }

    /// The skewed key mix for the cache comparison: 90% ONE hot key (the
    /// sweep's `/top?k=10`) plus a 10% warm tail of recurring `/aggregate`
    /// pipelines (four distinct specs) — each client cycles this fixed
    /// population, so every key recurs and is cacheable. The aggregates
    /// are the point: against the 100k-pipe table an uncached scan costs
    /// real milliseconds, so with the cache off the tail requests occupy
    /// workers and queue the hot key behind them; with the cache on both
    /// collapse to a buffer replay. Deterministic, so cache-on and
    /// cache-off see the identical mix.
    fn skewed_requests() -> Vec<String> {
        (0..100)
            .map(|i| {
                if i % 10 == 0 {
                    let spec = format!(
                        "{{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{{\"op\":\"count\"}},{{\"op\":\"sum\",\"field\":\"length_m\"}}],\"budget\":{{\"length_m\":{}}}}}",
                        1_000_000 * (1 + (i / 10) % 4)
                    );
                    format!(
                        "POST /aggregate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{spec}",
                        spec.len()
                    )
                } else {
                    request_line(PATH)
                }
            })
            .collect()
    }

    struct Point {
        conns: usize,
        rps: f64,
        secs: f64,
        latencies_us: Vec<u64>,
        errors: u64,
    }

    /// SplitMix64 — deterministic Poisson schedules, no external RNG.
    struct SplitMix(u64);

    impl SplitMix {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Exponential inter-arrivals at `rps` until `secs` — one schedule per
    /// connection count, reused by the cache-off and cache-on runs so that
    /// comparison is paired.
    fn poisson_schedule(rps: f64, secs: f64, seed: u64) -> Vec<Duration> {
        let mut rng = SplitMix(seed);
        let mut t = 0.0f64;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - rng.next_f64()).ln() / rps;
            if t >= secs {
                return out;
            }
            out.push(Duration::from_secs_f64(t));
        }
    }

    /// Read one `Content-Length`-framed response, failing (instead of
    /// panicking like the closed-loop helpers) on close or deadline.
    fn read_framed(
        stream: &mut TcpStream,
        buf: &mut Vec<u8>,
        deadline: Instant,
    ) -> std::io::Result<()> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..head_end]);
                let content_length: usize = head
                    .split("\r\n")
                    .find_map(|l| {
                        l.split_once(':')
                            .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                    })
                    .and_then(|(_, v)| v.trim().parse().ok())
                    .ok_or_else(|| {
                        std::io::Error::new(ErrorKind::InvalidData, "missing Content-Length")
                    })?;
                let total = head_end + 4 + content_length;
                if buf.len() >= total {
                    buf.drain(..total);
                    return Ok(());
                }
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| std::io::Error::from(ErrorKind::TimedOut))?;
            stream.set_read_timeout(Some(left.max(Duration::from_millis(1))))?;
            match stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(ref e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// One swept connection: open before the clock starts, fire the
    /// requests of its slice of the Poisson schedule, hold the socket
    /// until the window ends. Returns `(latency_us, is_error)` per
    /// request; a failed request reconnects so one dead socket doesn't
    /// void the rest of the slice.
    fn client(
        addr: SocketAddr,
        start: &Barrier,
        epoch_at: Instant,
        schedule: Vec<Duration>,
        window: Duration,
        requests: Arc<Vec<String>>,
    ) -> Vec<(u64, bool)> {
        let mut conn = TcpStream::connect(addr).ok();
        if let Some(c) = conn.as_ref() {
            c.set_nodelay(true).ok();
        }
        start.wait();
        let mut buf = Vec::new();
        let mut out = Vec::with_capacity(schedule.len());
        for (i, at) in schedule.into_iter().enumerate() {
            let request = &requests[i % requests.len()];
            if let Some(wait) = (epoch_at + at).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let scheduled = epoch_at + at;
            let deadline = scheduled + CLIENT_DEADLINE;
            let result = (|| -> std::io::Result<()> {
                if conn.is_none() {
                    let left = deadline
                        .checked_duration_since(Instant::now())
                        .ok_or_else(|| std::io::Error::from(ErrorKind::TimedOut))?;
                    let fresh = TcpStream::connect_timeout(&addr, left)?;
                    fresh.set_nodelay(true).ok();
                    buf.clear();
                    conn = Some(fresh);
                }
                let stream = conn.as_mut().expect("just connected");
                stream.write_all(request.as_bytes())?;
                read_framed(stream, &mut buf, deadline)
            })();
            match result {
                Ok(()) => {
                    let lat = Instant::now().saturating_duration_since(scheduled);
                    out.push((lat.as_micros() as u64, false));
                }
                Err(_) => {
                    // Open-loop convention: a miss costs the full deadline.
                    out.push((CLIENT_DEADLINE.as_micros() as u64, true));
                    conn = None;
                }
            }
        }
        // Keep holding the socket until the window closes — the point is
        // to measure the server sustaining N open connections.
        if let Some(wait) = (epoch_at + window).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out
    }

    /// Run one sweep point against a fresh server.
    fn run_point(
        conns: usize,
        rps: f64,
        secs: f64,
        cache: bool,
        pipes: u32,
        requests: Arc<Vec<String>>,
    ) -> Point {
        let config = ServerConfig {
            // The sweep measures raw concurrency: admission off, keep-alive
            // uncapped, a fixed worker pool so every host scores alike.
            // The result cache is off for the sweep and swept explicitly by
            // the cache comparison.
            keepalive_requests: 0,
            max_connections: 0,
            max_inflight: 0,
            workers: 8,
            cache,
            ..ServerConfig::default()
        };
        let handle = serve(Arc::new(ServeContext::new(scorer(pipes))), &config).expect("server");
        let addr = handle.addr();

        // Same seed per conns-point: cache-off and cache-on see paired
        // arrivals.
        let schedule = poisson_schedule(rps, secs, 0x70_69_70_65 ^ conns as u64);
        let mut slices: Vec<Vec<Duration>> = vec![Vec::new(); conns];
        for (i, &at) in schedule.iter().enumerate() {
            slices[i % conns].push(at);
        }

        let start = Barrier::new(conns + 1);
        let window = Duration::from_secs_f64(secs);
        let mut results: Vec<(u64, bool)> = Vec::with_capacity(schedule.len());
        std::thread::scope(|s| {
            let start = &start;
            let handles: Vec<_> = slices
                .into_iter()
                .map(|slice| {
                    let requests = Arc::clone(&requests);
                    std::thread::Builder::new()
                        // 4096 idle clients don't need default-sized stacks.
                        .stack_size(128 * 1024)
                        .spawn_scoped(s, move || {
                            // Epoch resolves after every thread passes the
                            // barrier; measure from there.
                            client(addr, start, Instant::now(), slice, window, requests)
                        })
                        .expect("spawn load client")
                })
                .collect();
            start.wait();
            for h in handles {
                results.extend(h.join().expect("load client panicked"));
            }
        });
        handle.shutdown();

        let errors = results.iter().filter(|(_, e)| *e).count() as u64;
        let mut latencies_us: Vec<u64> = results.into_iter().map(|(us, _)| us).collect();
        latencies_us.sort_unstable();
        Point { conns, rps, secs, latencies_us, errors }
    }

    fn percentile_us(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The full sweep: every connection count, then the cache comparison.
    /// Returns trajectory records ready to append to the bench snapshot.
    pub fn run() -> Vec<BenchRecord> {
        let smoke = criterion::smoke_mode();
        let conns_default = if smoke { "64,256" } else { "64,256,1024,4096" };
        let conns: Vec<usize> = std::env::var("PIPEFAIL_LOADTEST_CONNS")
            .unwrap_or_else(|_| conns_default.into())
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&n| n > 0)
            .collect();
        let rps: f64 = env_or("PIPEFAIL_LOADTEST_RPS", if smoke { 200.0 } else { 500.0 });
        let secs: f64 = env_or("PIPEFAIL_LOADTEST_SECS", if smoke { 1.0 } else { 5.0 });

        let hot = Arc::new(vec![request_line(PATH)]);
        let mut records = Vec::new();
        let push_point = |records: &mut Vec<BenchRecord>,
                              point: &Point,
                              prefix: String,
                              line_tag: String| {
            let total = point.latencies_us.len() as u64;
            let (p50, p95, p99, p999) = (
                percentile_us(&point.latencies_us, 0.50),
                percentile_us(&point.latencies_us, 0.95),
                percentile_us(&point.latencies_us, 0.99),
                percentile_us(&point.latencies_us, 0.999),
            );
            println!(
                "LOADTEST core=epoll{} conns={} rps={} secs={} requests={} errors={} \
                 p50_us={p50} p95_us={p95} p99_us={p99} p999_us={p999}",
                line_tag, point.conns, point.rps, point.secs, total, point.errors,
            );
            for (tag, us) in [("p50", p50), ("p95", p95), ("p99", p99), ("p999", p999)] {
                records.push(BenchRecord {
                    id: format!("{prefix}/{tag}"),
                    ns_per_iter: us as f64 * 1000.0,
                    iters: total,
                });
            }
            records.push(BenchRecord {
                id: format!("{prefix}/errors"),
                ns_per_iter: point.errors as f64,
                iters: total,
            });
        };

        for &n in &conns {
            let point = run_point(n, rps, secs, false, 1000, Arc::clone(&hot));
            let prefix = format!("serve/epoll/open_loop/c{}", point.conns);
            push_point(&mut records, &point, prefix, String::new());
        }

        // Cache-on vs cache-off over the skewed key mix: the cache's
        // open-loop win is the hot key's render cost disappearing from the
        // tail percentiles. The comparison point is c1024 when swept — at
        // the very top of the sweep (c4096 on a small host) client-scheduler
        // noise drowns the pairing — else the largest swept point.
        let cache_conns = conns
            .iter()
            .copied()
            .find(|&n| n == 1024)
            .or_else(|| conns.iter().copied().max())
            .unwrap_or(256);
        let skewed = Arc::new(skewed_requests());
        for (label, cache) in [("off", false), ("on", true)] {
            let point =
                run_point(cache_conns, rps, secs, cache, super::TOTAL_PIPES, Arc::clone(&skewed));
            let prefix = format!("serve/cache/{label}/open_loop/c{}", point.conns);
            push_point(&mut records, &point, prefix, format!(" cache={label}"));
        }
        records
    }
}

/// Snapshot-loading harness: v2 **mmap** cold start vs the v1 load (held
/// on the heap as an owned v2 copy), plus mmap hot-reload (load the
/// replacement + swap the served `Arc`, exactly the watcher's work),
/// across a size sweep.
///
/// Both loaders end in the same strict one-pass v2 validation; the mmap
/// path's win is everything *besides* the scan — no file copy into a Vec,
/// no per-entry parse, no v2 re-encode with its index sort — so the delta
/// grows with snapshot size and the bench pins it.
///
/// Each size yields `serve/mmap/{cold_start,reload}/<n>_pipes` and
/// `serve/heap/cold_start/<n>_pipes` trajectory entries plus one greppable
/// `MMAPLOAD pipes=… v2_cold_ns=… v1_heap_ns=… v2_reload_ns=…` stdout
/// line (the CI gate asserts `v2_cold_ns <= v1_heap_ns` at the largest
/// size).
mod mmap_load {
    use criterion::{black_box, BenchRecord};
    use pipefail_core::snapshot::SnapshotFormat;
    use pipefail_serve::Scorer;
    use std::path::PathBuf;
    use std::sync::{Arc, RwLock};
    use std::time::Instant;

    /// Median of `reps` timed runs of `f`, in nanoseconds.
    fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
        let mut samples: Vec<u64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    pub fn run() -> Vec<BenchRecord> {
        let smoke = criterion::smoke_mode();
        let sizes: &[u32] = if smoke {
            &[10_000, 100_000]
        } else {
            &[10_000, 100_000, 1_000_000]
        };
        let reps = if smoke { 5 } else { 9 };
        let dir = std::env::temp_dir().join(format!("pipefail_mmap_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench temp dir");

        let mut records = Vec::new();
        for &n in sizes {
            let snap = super::bench_snapshot(n);
            let v2: PathBuf = dir.join(format!("cold_{n}.v2.pfsnap"));
            let v1: PathBuf = dir.join(format!("cold_{n}.v1.pfsnap"));
            snap.save_as(&v2, SnapshotFormat::V2).expect("write v2");
            snap.save_as(&v1, SnapshotFormat::V1).expect("write v1");
            drop(snap);

            // Cold start: file → answering scorer, including the strict
            // validation pass both loaders share.
            let v2_cold_ns = median_ns(reps, || {
                let s = Scorer::load(&v2).expect("v2 mmap load");
                assert!(s.mapped());
                black_box(s.len());
            });
            let v1_heap_ns = median_ns(reps, || {
                let s = Scorer::load(&v1).expect("v1 load");
                black_box(s.len());
            });

            // Reload: the watcher's work — strict-load the replacement and
            // swap the served Arc; the old mapping dies with the last
            // reader's Arc, off the serving path.
            let served = RwLock::new(Arc::new(Scorer::load(&v2).expect("initial load")));
            let v2_reload_ns = median_ns(reps, || {
                let fresh = Arc::new(Scorer::load(&v2).expect("reload"));
                let old = std::mem::replace(
                    &mut *served.write().expect("swap lock"),
                    fresh,
                );
                black_box(&old);
            });

            println!(
                "MMAPLOAD pipes={n} v2_cold_ns={v2_cold_ns} v1_heap_ns={v1_heap_ns} \
                 v2_reload_ns={v2_reload_ns}"
            );
            records.push(BenchRecord {
                id: format!("serve/mmap/cold_start/{n}_pipes"),
                ns_per_iter: v2_cold_ns as f64,
                iters: reps as u64,
            });
            records.push(BenchRecord {
                id: format!("serve/heap/cold_start/{n}_pipes"),
                ns_per_iter: v1_heap_ns as f64,
                iters: reps as u64,
            });
            records.push(BenchRecord {
                id: format!("serve/mmap/reload/{n}_pipes"),
                ns_per_iter: v2_reload_ns as f64,
                iters: reps as u64,
            });
            std::fs::remove_file(&v2).ok();
            std::fs::remove_file(&v1).ok();
        }
        records
    }
}

fn main() {
    let loadtest_only = std::env::var("PIPEFAIL_LOADTEST_ONLY").is_ok_and(|v| v == "1");
    if !loadtest_only {
        benches();
    }
    let mut records = criterion::take_records();
    records.extend(mmap_load::run());
    records.extend(open_loop::run());
    let snap = pipefail_bench::perf::snapshot("serve_bench", records);
    match pipefail_bench::perf::append_to_trajectory(&snap) {
        Ok(path) => println!("[appended trajectory entry to {}]", path.display()),
        Err(e) => eprintln!("cannot write bench trajectory: {e}"),
    }
}
