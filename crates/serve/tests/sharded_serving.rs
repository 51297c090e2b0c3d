//! The shard-by-region serving battery:
//!
//! * property: the scatter-gathered global top-K is byte-identical to the
//!   top-K of ONE monolithic snapshot holding the same pipes (shard-order
//!   concatenation; `RiskRanking`'s stable sort is the oracle);
//! * region-tagged queries answer byte-identically to a single-snapshot
//!   server holding only that region;
//! * an unknown region is a typed 404 listing every known region;
//! * a corrupt hot-swap of one shard's file degrades ONLY that region
//!   (typed 503) while concurrent keep-alive clients of sibling regions
//!   complete with zero failures — and a valid replacement heals it;
//! * a live valid hot-swap of one shard never perturbs another shard's
//!   bytes;
//! * a one-shard set loaded from a directory keeps serving its last good
//!   scorer through a corrupt replacement, like a single-snapshot server.

mod common;

use common::{get_once, Conn};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::Snapshot;
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use pipefail_serve::http::{render_model, render_pipe_risk, render_top_k};
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig, ShardSet};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic regional snapshot: `n` pipes with scores descending from
/// `base`, tagged with `region` (the shard key is derived from it).
fn snapshot(region: &str, n: u32, base: f64) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: base - f64::from(i) / f64::from(n),
            })
            .collect(),
    );
    Snapshot::new("DPMHBP", region, 7, &ranking)
}

fn scorer(region: &str, n: u32, base: f64) -> Scorer {
    Scorer::new(snapshot(region, n, base)).expect("valid snapshot")
}

/// Temp directory unique to this test process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipefail_sharded_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

// ---------------------------------------------------------------------------
// Property: merged global top-K == monolithic top-K, byte for byte.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Split a random score table across 2–5 regional shards, then ask the
    /// `ShardSet` for the global top-K. The oracle is a single monolithic
    /// snapshot holding the shard tables concatenated in shard order:
    /// `RiskRanking::new`'s stable descending sort is exactly the order the
    /// bounded k-way merge must reproduce — including tie-breaks, which the
    /// merge resolves toward the lowest shard index. Scores are drawn from
    /// a tiny set so ties are common, not accidental.
    #[test]
    fn merged_global_top_k_is_byte_identical_to_a_monolithic_snapshot(
        sizes in proptest::collection::vec(0usize..20, 2..6),
        score_picks in proptest::collection::vec(0usize..4, 100..101),
        k in 0usize..30,
    ) {
        let score_of = |pick: usize| [0.9, 0.5, 0.5, 0.1][pick];
        let mut shard_tables: Vec<Vec<RiskScore>> = Vec::new();
        let mut next_pick = 0usize;
        for (s, &n) in sizes.iter().enumerate() {
            shard_tables.push(
                (0..n)
                    .map(|i| {
                        let score = score_of(score_picks[next_pick % score_picks.len()]);
                        next_pick += 1;
                        // Pipe ids are unique per shard but reused across
                        // shards (the whole point of per-region routing);
                        // tag the id with the shard so the oracle
                        // comparison can tell entries apart.
                        RiskScore { pipe: PipeId((s * 1000 + i) as u32), score }
                    })
                    .collect(),
            );
        }

        // Oracle: one snapshot of the shard-order concatenation.
        let concatenated: Vec<RiskScore> =
            shard_tables.iter().flatten().cloned().collect();
        let mono = Scorer::new(Snapshot::new(
            "DPMHBP",
            "Everywhere",
            7,
            &RiskRanking::new(concatenated),
        ))
        .expect("valid snapshot");

        let scorers: Vec<Scorer> = shard_tables
            .iter()
            .enumerate()
            .map(|(s, table)| {
                Scorer::new(Snapshot::new(
                    "DPMHBP",
                    format!("Region {s}"),
                    7,
                    &RiskRanking::new(table.clone()),
                ))
                .expect("valid snapshot")
            })
            .collect();
        let set = ShardSet::from_scorers(scorers).expect("distinct regions");

        let merged = set.global_top_k(k).expect("no shard is degraded");
        let expected: Vec<(PipeId, u64)> = mono
            .top_k(k)
            .iter()
            .map(|r| (r.pipe, r.score.to_bits()))
            .collect();
        let got: Vec<(PipeId, u64)> = merged
            .iter()
            .map(|g| (g.risk.pipe, g.risk.score.to_bits()))
            .collect();
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// End-to-end: routing, typed errors, isolation under hot-swap.
// ---------------------------------------------------------------------------

#[test]
fn region_routed_responses_are_byte_identical_to_single_snapshot_serving() {
    let sharded = serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(vec![
                scorer("Region A", 30, 1.0),
                scorer("Region B", 20, 2.0),
            ])
            .expect("distinct regions"),
        )),
        &ServerConfig::default(),
    )
    .expect("sharded server starts");

    let single = serve(
        Arc::new(ServeContext::new(scorer("Region B", 20, 2.0))),
        &ServerConfig::default(),
    )
    .expect("single server starts");

    // /top and /pipe routed to region_b answer byte-identically to the
    // server that holds ONLY that snapshot.
    for (routed, legacy) in [
        ("/top?region=region_b&k=6", "/top?k=6"),
        ("/pipe?region=region_b&id=3", "/pipe?id=3"),
    ] {
        let a = get_once(sharded.addr(), routed);
        let b = get_once(single.addr(), legacy);
        assert_eq!(a.status, 200, "{routed}: {}", a.body);
        assert_eq!(a.body, b.body, "{routed} differs from single-snapshot {legacy}");
    }

    // Region-less /pipe cannot be routed on a multi-shard server.
    let ambiguous = get_once(sharded.addr(), "/pipe?id=3");
    assert_eq!(ambiguous.status, 400);
    assert!(ambiguous.body.contains("per-region"), "{}", ambiguous.body);

    sharded.shutdown();
    single.shutdown();
}

#[test]
fn unknown_region_is_a_typed_404_end_to_end() {
    let handle = serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(vec![
                scorer("Region A", 5, 1.0),
                scorer("Region B", 5, 1.0),
            ])
            .expect("distinct regions"),
        )),
        &ServerConfig::default(),
    )
    .expect("server starts");

    let response = get_once(handle.addr(), "/top?region=atlantis&k=3");
    assert_eq!(response.status, 404);
    assert!(response.body.contains("unknown region \\\"atlantis\\\""), "{}", response.body);
    // The 404 lists every known region so the caller can self-correct.
    assert!(response.body.contains("\"region_a\""), "{}", response.body);
    assert!(response.body.contains("\"region_b\""), "{}", response.body);
    handle.shutdown();
}

/// The acceptance scenario: two shards served from a snapshot directory
/// with per-shard reload polling. Corrupting ONE shard's file on disk
/// degrades only that region — its queries answer a typed 503 — while a
/// concurrent keep-alive client hammering the OTHER region completes every
/// request with status 200 and byte-identical bodies. A valid replacement
/// then heals the degraded shard.
#[test]
fn corrupt_hot_swap_degrades_one_region_while_siblings_serve_zero_failures() {
    let dir = temp_dir("degrade");
    let path_a = dir.join("region_a.pfsnap");
    let path_b = dir.join("region_b.pfsnap");
    snapshot("Region A", 25, 1.0).save(&path_a).expect("save A");
    snapshot("Region B", 25, 2.0).save(&path_b).expect("save B");

    let set = ShardSet::load_dir(&dir, &TaskPool::new(2)).expect("load shard dir");
    let reference_b = render_top_k(&set.get("region_b").expect("region_b").last_good(), 5);
    let config = ServerConfig {
        reload_poll_secs: 0.05,
        // The sibling client stays on ONE socket for the whole experiment;
        // the per-connection request cap must not cut it off mid-assert,
        // and the pool needs more than the 1-core default worker so the
        // main thread's fresh connections are served alongside it.
        keepalive_requests: 0,
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::sharded(set)), &config).expect("server starts");
    let addr = handle.addr();

    // Both regions healthy at the start.
    assert_eq!(get_once(addr, "/top?region=region_a&k=5").status, 200);
    assert_eq!(get_once(addr, "/top?region=region_b&k=5").status, 200);

    // A concurrent keep-alive client hammers region B for the whole
    // experiment; every response must be a 200 with the exact same bytes.
    let stop = Arc::new(AtomicBool::new(false));
    let sibling = {
        let stop = Arc::clone(&stop);
        let reference_b = reference_b.clone();
        std::thread::spawn(move || {
            let mut conn = Conn::connect(addr);
            let mut requests = 0u64;
            // Hard deadline so a failed assert on the main thread (which
            // skips the `stop` store) cannot leave this loop pinning a
            // server worker and wedging `ServerHandle::drop`.
            let give_up = Instant::now() + Duration::from_secs(60);
            while !stop.load(Ordering::Relaxed) && Instant::now() < give_up {
                let response = conn.get("/top?region=region_b&k=5");
                assert_eq!(response.status, 200, "sibling region failed: {}", response.body);
                assert_eq!(response.body, reference_b, "sibling region bytes changed");
                requests += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            requests
        })
    };

    // Corrupt region A's snapshot; the watcher must degrade it.
    std::fs::write(&path_a, b"PFSNAPgarbage").expect("corrupt A");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "shard never degraded");
        let response = get_once(addr, "/top?region=region_a&k=5");
        if response.status == 503 {
            // The failure is typed: it names the degraded shard.
            assert!(response.body.contains("\"region_a\""), "{}", response.body);
            assert!(response.body.contains("degraded"), "{}", response.body);
            break;
        }
        assert_eq!(response.status, 200, "unexpected status: {}", response.body);
        std::thread::sleep(Duration::from_millis(10));
    }

    // Region-less global top-K refuses to serve a partial fleet.
    let global = get_once(addr, "/top?k=5");
    assert_eq!(global.status, 503);
    assert!(global.body.contains("global top-k unavailable"), "{}", global.body);

    // The degradation is visible per shard on /metrics.
    let exposition = get_once(addr, "/metrics").body;
    assert!(
        exposition.contains("pipefail_shard_reload_failures{shard=\"region_a\"}"),
        "{exposition}"
    );
    let b_failures = exposition
        .lines()
        .find(|l| l.starts_with("pipefail_shard_reload_failures{shard=\"region_b\"}"))
        .unwrap_or_else(|| panic!("region_b series missing: {exposition}"));
    assert!(b_failures.ends_with(" 0"), "{b_failures}");

    // A valid replacement heals the shard: 200s come back.
    snapshot("Region A", 25, 5.0).save(&path_a).expect("heal A");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "shard never healed");
        let response = get_once(addr, "/top?region=region_a&k=5");
        if response.status == 200 {
            break;
        }
        assert_eq!(response.status, 503, "unexpected status: {}", response.body);
        std::thread::sleep(Duration::from_millis(10));
    }

    // The sibling saw zero failures across degrade AND heal.
    stop.store(true, Ordering::Relaxed);
    let sibling_requests = sibling.join().expect("sibling client panicked");
    assert!(sibling_requests > 0, "sibling client never ran");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A *valid* hot-swap of one shard goes live without perturbing the other
/// shard: region B's bytes are identical before, during, and after region
/// A's ranking changes underneath the server.
#[test]
fn live_hot_swap_of_one_shard_never_affects_another() {
    let dir = temp_dir("swap");
    let path_a = dir.join("region_a.pfsnap");
    let path_b = dir.join("region_b.pfsnap");
    snapshot("Region A", 20, 1.0).save(&path_a).expect("save A");
    snapshot("Region B", 20, 2.0).save(&path_b).expect("save B");

    let set = ShardSet::load_dir(&dir, &TaskPool::new(2)).expect("load shard dir");
    let reference_a = render_top_k(&set.get("region_a").expect("region_a").last_good(), 5);
    let reference_b = render_top_k(&set.get("region_b").expect("region_b").last_good(), 5);
    let replacement = snapshot("Region A", 20, 9.0);
    let reference_a2 = render_top_k(&Scorer::new(replacement.clone()).expect("valid snapshot"), 5);
    assert_ne!(reference_a, reference_a2, "the swap must be observable");

    let config = ServerConfig { reload_poll_secs: 0.05, ..ServerConfig::default() };
    let handle = serve(Arc::new(ServeContext::sharded(set)), &config).expect("server starts");
    let addr = handle.addr();

    assert_eq!(get_once(addr, "/top?region=region_a&k=5").body, reference_a);
    replacement.save(&path_a).expect("replace A");

    // Poll region A until the new ranking lands; region B must answer the
    // exact same bytes on every interleaved request.
    let mut conn = Conn::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "swap never observed");
        let b = conn.get("/top?region=region_b&k=5");
        assert_eq!(b.status, 200);
        assert_eq!(b.body, reference_b, "region B perturbed by region A's swap");
        let a = conn.get("/top?region=region_a&k=5");
        assert_eq!(a.status, 200, "valid swap must never fail a request: {}", a.body);
        if a.body == reference_a2 {
            break;
        }
        assert_eq!(a.body, reference_a, "mixed ranking served during swap");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The reload was counted against region A's series only.
    let exposition = get_once(addr, "/metrics").body;
    let reloads = |shard: &str| -> u64 {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(&format!("pipefail_shard_reloads{{shard=\"{shard}\"}} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("missing {shard} series: {exposition}"))
    };
    assert_eq!(reloads("region_a"), 1, "{exposition}");
    assert_eq!(reloads("region_b"), 0, "{exposition}");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// What a corrupt replacement does depends on the shard count, not on the
/// constructor: a one-shard set loaded with `load_dir` is the
/// single-snapshot server, so a corrupt file renamed over its snapshot is
/// rejected and counted while every route keeps answering 200 from the
/// last good model. A valid replacement afterwards still swaps in.
#[test]
fn one_shard_dir_keeps_its_last_good_scorer_through_a_corrupt_replacement() {
    let dir = temp_dir("one_shard");
    let path = dir.join("region_a.pfsnap");
    let staged = dir.join("region_a.staged");
    snapshot("Region A", 25, 1.0).save(&path).expect("save A");

    let set = ShardSet::load_dir(&dir, &TaskPool::new(2)).expect("load shard dir");
    assert!(set.is_single());
    let old = set.shards()[0].last_good();
    let expected = [
        ("/top?k=3", render_top_k(&old, 3)),
        (
            "/pipe?id=1",
            render_pipe_risk(&old.risk_of(PipeId(1)).expect("ranked")),
        ),
        ("/model", render_model(&old)),
        ("/healthz", "{\"status\":\"ok\"}".to_string()),
    ];
    let config = ServerConfig {
        reload_poll_secs: 0.05,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::sharded(set)), &config).expect("server starts");
    let addr = handle.addr();
    let metrics = handle.metrics();

    // Publish garbage by atomic rename: one stamp change, one rejection.
    std::fs::write(&staged, b"PFSNAPgarbage-that-is-not-a-snapshot").expect("stage corrupt");
    std::fs::rename(&staged, &path).expect("rename corrupt");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reload_failures_total() == 0 {
        assert!(Instant::now() < deadline, "reload failure never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    for (route, body) in &expected {
        let response = get_once(addr, route);
        assert_eq!(response.status, 200, "{route}: {}", response.body);
        assert_eq!(
            &response.body, body,
            "{route} changed after a rejected replacement"
        );
    }
    let exposition = get_once(addr, "/metrics").body;
    assert!(
        exposition
            .lines()
            .any(|l| l == "pipefail_reload_failures_total 1"),
        "{exposition}"
    );
    assert_eq!(metrics.reloads_total(), 0);

    // A valid replacement renamed over the corrupt file goes live.
    let replacement = snapshot("Region A", 25, 5.0);
    let reference = render_top_k(
        &Scorer::new(replacement.clone()).expect("valid snapshot"),
        3,
    );
    replacement.save(&staged).expect("stage replacement");
    std::fs::rename(&staged, &path).expect("rename replacement");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reloads_total() == 0 {
        assert!(
            Instant::now() < deadline,
            "valid replacement never reloaded"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(get_once(addr, "/top?k=3").body, reference);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
