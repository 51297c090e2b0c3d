//! The remote-shard federation battery, driven through a wire-level
//! fault-injection proxy:
//!
//! * region-routed federated responses are byte-identical to a direct
//!   request against the backend, and the federated global top-K is
//!   byte-identical to an in-process sharded server over the same regions
//!   (plus a property over random shard tables and `k`);
//! * every wire fault — killed backend, hang, reset, garbage bytes,
//!   truncated response — degrades ONLY the faulty region to a typed 503
//!   with `Retry-After`, while concurrent keep-alive clients of healthy
//!   regions complete with **zero** failures and the global top-K keeps
//!   answering with an `X-Pipefail-Partial` header and a body
//!   byte-identical to an in-process server over the live regions;
//! * clearing the fault heals the backend via the health probe, with no
//!   restarts anywhere;
//! * a `Down` backend short-circuits (fast typed 503, no timeout burn);
//! * a hedged duplicate beats a stalled primary without inflating errors;
//! * backend `/healthz` probe traffic stays out of the request metrics;
//! * federated `POST /aggregate` answers byte-identically to an
//!   in-process sharded server, degrades per-region behind
//!   `X-Pipefail-Partial`, and a fully dark fleet is a typed 503 with
//!   `Retry-After` — driven through the same fault proxy.

mod common;

use common::faultproxy::{Fault, FaultProxy};
use common::{get_once, post_once, Conn};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_serve::{
    serve, serve_federated, BackendState, FedConfig, Federation, Scorer, ServeContext,
    ServerConfig, ServerHandle, ShardSet,
};
use proptest::prelude::*;
use std::net::SocketAddr;
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

/// The same regional snapshot with a deterministic attributes section in
/// score order, so the region can answer `/aggregate` pipelines.
fn attr_scorer(region: &str, n: u32, base: f64) -> Scorer {
    let mut snap = snapshot(region, n, base);
    snap.push_section(attributes_section(
        (0..n).map(|i| 100.0 + f64::from(i)).collect(),
        (0..n).map(|i| f64::from(i % 9)).collect(),
        (0..n).map(|i| f64::from(1940 + (i % 4) * 10)).collect(),
    ));
    Scorer::new(snap).expect("valid snapshot")
}

/// One attribute-tagged backend serve process.
fn attr_backend(region: &str, n: u32, base: f64) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(attr_scorer(region, n, base))),
        &server_config(),
    )
    .expect("backend starts")
}

/// Server tuning for every process in these tests: enough workers that
/// concurrent keep-alive clients plus the federation's pooled connections
/// never serialize on worker capacity (the machine running the tests may
/// have a single core, which would otherwise floor the pool at two).
fn server_config() -> ServerConfig {
    ServerConfig { workers: 4, ..ServerConfig::default() }
}

/// One single-snapshot backend serve process (in-process, real socket).
fn backend(region: &str, n: u32, base: f64) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(scorer(region, n, base))),
        &server_config(),
    )
    .expect("backend starts")
}

/// An in-process sharded server over the given scorers — the byte-identity
/// oracle for federated global top-K responses.
fn oracle(scorers: Vec<Scorer>) -> ServerHandle {
    serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(scorers).expect("distinct regions"),
        )),
        &server_config(),
    )
    .expect("oracle starts")
}

/// Aggressive test tuning: tight deadline, one retry, fast probes, a low
/// `Down` threshold, hedging off (the hedge test opts in explicitly).
fn fed_test_config() -> FedConfig {
    FedConfig {
        request_timeout_secs: 0.5,
        retries: 1,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        hedge_ms: Some(0),
        probe_secs: 0.1,
        fail_threshold: 2,
    }
}

/// Boot a federation front-end over `(region, addr)` targets, returning
/// both the serving handle and the shared `Federation` (for health-state
/// inspection).
fn federate(
    targets: Vec<(&str, SocketAddr)>,
    config: FedConfig,
) -> (ServerHandle, Arc<Federation>) {
    let fed = Arc::new(
        Federation::new(
            targets
                .into_iter()
                .map(|(k, a)| (k.to_string(), a.to_string()))
                .collect(),
            config,
        )
        .expect("federation builds"),
    );
    let handle =
        serve_federated(Arc::clone(&fed), &server_config()).expect("front-end starts");
    (handle, fed)
}

/// Poll `cond` until it holds or `deadline` elapses (then panic). Every
/// state transition in this battery is probe-driven, so tests wait on the
/// observable state instead of sleeping fixed amounts.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

// ---------------------------------------------------------------------------
// Byte-identity: the federation is invisible in the response bytes.
// ---------------------------------------------------------------------------

#[test]
fn federated_responses_are_byte_identical_to_direct_and_in_process_serving() {
    let a = backend("Region A", 30, 1.0);
    let b = backend("Region B", 20, 2.0);
    let c = backend("Region C", 25, 1.5);
    let (fed_handle, _fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", c.addr()),
        ],
        fed_test_config(),
    );
    let oracle = oracle(vec![
        scorer("Region A", 30, 1.0),
        scorer("Region B", 20, 2.0),
        scorer("Region C", 25, 1.5),
    ]);

    // Region-routed /top and /pipe relay the backend's bytes untouched.
    for path in [
        "/top?region=region_b&k=6",
        "/top?region=region_a&k=0",
        "/pipe?region=region_c&id=3",
        "/pipe?region=region_a&id=999999",
    ] {
        let via_fed = get_once(fed_handle.addr(), path);
        let direct = get_once(
            match path.contains("region_a") {
                true => a.addr(),
                false if path.contains("region_b") => b.addr(),
                false => c.addr(),
            },
            path,
        );
        assert_eq!(via_fed.status, direct.status, "{path}: {}", via_fed.body);
        assert_eq!(via_fed.body, direct.body, "{path} differs from direct backend");
    }

    // Region-less global top-K: scatter-gather + k-way merge answers
    // byte-identically to ONE in-process sharded server.
    for k in [0, 1, 7, 10, 200] {
        let path = format!("/top?k={k}");
        let via_fed = get_once(fed_handle.addr(), &path);
        let in_process = get_once(oracle.addr(), &path);
        assert_eq!(via_fed.status, 200, "{path}: {}", via_fed.body);
        assert_eq!(via_fed.body, in_process.body, "{path} differs from in-process");
        assert!(
            via_fed.header("x-pipefail-partial").is_none(),
            "healthy fleet must not mark the merge partial"
        );
    }

    // Typed edges behave exactly like the in-process sharded server.
    let unknown_fed = get_once(fed_handle.addr(), "/top?region=atlantis&k=3");
    let unknown_oracle = get_once(oracle.addr(), "/top?region=atlantis&k=3");
    assert_eq!(unknown_fed.status, 404);
    assert_eq!(unknown_fed.body, unknown_oracle.body);
    let ambiguous = get_once(fed_handle.addr(), "/pipe?id=3");
    assert_eq!(ambiguous.status, 400, "{}", ambiguous.body);
    assert!(ambiguous.body.contains("region"));

    // Federation-specific surfaces: local /model inventory, refused /batch,
    // and the fed_* metrics that only a front-end exposes.
    let model = get_once(fed_handle.addr(), "/model");
    assert_eq!(model.status, 200);
    assert!(model.body.contains("\"federation\":3"), "{}", model.body);
    assert!(model.body.contains("\"region\":\"region_b\""));
    let batch = post_once(fed_handle.addr(), "/batch", "{\"queries\":[]}");
    assert_eq!(batch.status, 501, "{}", batch.body);
    let fed_metrics = get_once(fed_handle.addr(), "/metrics");
    assert!(fed_metrics.body.contains("pipefail_fed_probes_total"));
    let backend_metrics = get_once(a.addr(), "/metrics");
    assert!(!backend_metrics.body.contains("pipefail_fed_"));

    fed_handle.shutdown();
    oracle.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shard tables (scores from a tiny set, so cross-region ties
    /// are common) split across live backend sockets: the federated global
    /// top-K must be byte-identical to an in-process sharded server over
    /// the same tables — including tie-breaks, which both sides resolve
    /// toward the lowest region index in sorted-key order.
    #[test]
    fn federated_global_top_k_is_byte_identical_to_in_process_sharding(
        sizes in proptest::collection::vec(0usize..10, 2..4),
        score_picks in proptest::collection::vec(0usize..4, 40..41),
        k in 0usize..12,
    ) {
        let score_of = |pick: usize| [0.9, 0.5, 0.5, 0.1][pick];
        let mut next_pick = 0usize;
        let scorers: Vec<Scorer> = sizes
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                let table: Vec<RiskScore> = (0..n)
                    .map(|i| {
                        let score = score_of(score_picks[next_pick % score_picks.len()]);
                        next_pick += 1;
                        RiskScore { pipe: PipeId((s * 1000 + i) as u32), score }
                    })
                    .collect();
                Scorer::new(Snapshot::new(
                    "DPMHBP",
                    format!("Region {s}"),
                    7,
                    &RiskRanking::new(table),
                ))
                .expect("valid snapshot")
            })
            .collect();

        let backends: Vec<ServerHandle> = scorers
            .iter()
            .map(|sc| {
                serve(
                    Arc::new(ServeContext::new(sc.clone())),
                    &server_config(),
                )
                .expect("backend starts")
            })
            .collect();
        let targets: Vec<(String, String)> = backends
            .iter()
            .enumerate()
            .map(|(s, h)| (format!("Region {s}"), h.addr().to_string()))
            .collect();
        let fed = Arc::new(Federation::new(targets, fed_test_config()).expect("federation"));
        let fed_handle =
            serve_federated(Arc::clone(&fed), &server_config()).expect("front-end");
        let oracle = oracle(scorers);

        let path = format!("/top?k={k}");
        let via_fed = get_once(fed_handle.addr(), &path);
        let in_process = get_once(oracle.addr(), &path);
        prop_assert!(via_fed.status == 200, "global top-k failed: {}", via_fed.body);
        prop_assert_eq!(via_fed.body, in_process.body);

        fed_handle.shutdown();
        oracle.shutdown();
        for h in backends {
            h.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The fault battery: degrade exactly one region, keep everything else
// perfect, heal without restarts.
// ---------------------------------------------------------------------------

#[test]
fn every_wire_fault_degrades_only_its_region_and_probe_heals_it() {
    let a = backend("Region A", 30, 1.0);
    let b = backend("Region B", 20, 2.0);
    let c = backend("Region C", 25, 1.5);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", proxy.addr()),
        ],
        fed_test_config(),
    );
    let oracle_ab = oracle(vec![scorer("Region A", 30, 1.0), scorer("Region B", 20, 2.0)]);
    let oracle_abc = oracle(vec![
        scorer("Region A", 30, 1.0),
        scorer("Region B", 20, 2.0),
        scorer("Region C", 25, 1.5),
    ]);
    let give_up = Duration::from_secs(30);

    let faults = [
        Fault::CloseOnAccept,
        Fault::Reset,
        Fault::Garbage,
        Fault::Truncate(60),
        Fault::Blackhole,
    ];
    for fault in faults {
        // Inject: the health probe alone must drive region_c to Down —
        // no client traffic required to notice a dead backend.
        proxy.set_fault(fault);
        wait_for(&format!("{fault:?} to mark region_c down"), give_up, || {
            fed.state_of("region_c") == Some(BackendState::Down)
        });

        // The faulty region is a typed 503 with Retry-After, naming the
        // region — never a hang, never a panic, never a 200 lie.
        let down = get_once(fed_handle.addr(), "/top?region=region_c&k=5");
        assert_eq!(down.status, 503, "{fault:?}: {}", down.body);
        assert_eq!(down.header("retry-after"), Some("1"), "{fault:?}");
        assert!(down.body.contains("region_c"), "{fault:?}: {}", down.body);

        // The front-end /healthz reports the degradation, typed.
        let hz = get_once(fed_handle.addr(), "/healthz");
        assert_eq!(hz.status, 503, "{fault:?}: {}", hz.body);
        assert!(hz.body.contains("\"status\":\"degraded\""), "{}", hz.body);
        assert!(
            hz.body.contains("{\"region\":\"region_c\",\"state\":\"down\"}"),
            "{fault:?}: {}",
            hz.body
        );
        assert_eq!(hz.header("retry-after"), Some("1"));

        // Concurrent keep-alive clients on the healthy regions: ZERO
        // failures while region_c is on fire.
        let fed_addr = fed_handle.addr();
        std::thread::scope(|s| {
            for region in ["region_a", "region_b"] {
                s.spawn(move || {
                    let mut conn = Conn::connect(fed_addr);
                    for i in 0..10 {
                        let path = format!("/top?region={region}&k=4");
                        let resp = conn.get(&path);
                        assert_eq!(
                            resp.status, 200,
                            "{fault:?}: {region} request {i} failed: {}",
                            resp.body
                        );
                    }
                });
            }
        });
        // ... and byte-identical to the direct backend, fault or no fault.
        let sibling = "/top?region=region_a&k=7";
        assert_eq!(
            get_once(fed_addr, sibling).body,
            get_once(a.addr(), sibling).body,
            "{fault:?}: sibling bytes drifted"
        );

        // Global top-K keeps answering: 200, partial header naming exactly
        // the lost region, body byte-identical to an in-process sharded
        // server over exactly the live regions.
        let partial = get_once(fed_addr, "/top?k=12");
        assert_eq!(partial.status, 200, "{fault:?}: {}", partial.body);
        assert_eq!(
            partial.header("x-pipefail-partial"),
            Some("region_c"),
            "{fault:?}"
        );
        assert_eq!(
            partial.body,
            get_once(oracle_ab.addr(), "/top?k=12").body,
            "{fault:?}: partial merge bytes drifted"
        );

        // Heal: clear the fault; the probe alone brings region_c back.
        proxy.set_fault(Fault::None);
        wait_for(&format!("probe to heal region_c after {fault:?}"), give_up, || {
            fed.state_of("region_c") == Some(BackendState::Healthy)
        });
        let hz = get_once(fed_addr, "/healthz");
        assert_eq!(hz.status, 200, "{fault:?}: {}", hz.body);
        assert!(hz.body.contains("\"status\":\"ok\""), "{}", hz.body);
        let healed = get_once(fed_addr, "/top?region=region_c&k=5");
        assert_eq!(healed.status, 200, "{fault:?}: {}", healed.body);
        assert_eq!(
            healed.body,
            get_once(c.addr(), "/top?region=region_c&k=5").body,
            "{fault:?}: healed region bytes drifted"
        );
        let whole = get_once(fed_addr, "/top?k=12");
        assert_eq!(whole.status, 200);
        assert!(
            whole.header("x-pipefail-partial").is_none(),
            "{fault:?}: healed merge still marked partial"
        );
        assert_eq!(
            whole.body,
            get_once(oracle_abc.addr(), "/top?k=12").body,
            "{fault:?}: healed merge bytes drifted"
        );
    }

    // The whole battery must not have failed a single healthy-region or
    // global request; retries/probe failures were the only error traffic.
    let metrics_text = get_once(fed_handle.addr(), "/metrics").body;
    assert!(
        metrics_text.contains("pipefail_fed_probe_failures_total"),
        "{metrics_text}"
    );

    fed_handle.shutdown();
    oracle_ab.shutdown();
    oracle_abc.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn down_backend_short_circuits_without_burning_the_timeout() {
    let a = backend("Region A", 10, 1.0);
    let c = backend("Region C", 10, 1.0);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![("Region A", a.addr()), ("Region C", proxy.addr())],
        fed_test_config(),
    );

    proxy.set_fault(Fault::Blackhole);
    wait_for("blackhole to mark region_c down", Duration::from_secs(30), || {
        fed.state_of("region_c") == Some(BackendState::Down)
    });

    // A Down backend answers from local state: no connect, no timeout —
    // five requests in well under one request_timeout (0.5s) each.
    for _ in 0..5 {
        let start = Instant::now();
        let resp = get_once(fed_handle.addr(), "/top?region=region_c&k=3");
        let elapsed = start.elapsed();
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(
            elapsed < Duration::from_millis(250),
            "Down short-circuit took {elapsed:?}"
        );
    }

    fed_handle.shutdown();
    a.shutdown();
    c.shutdown();
}

#[test]
fn hedged_duplicate_beats_a_stalled_primary() {
    let a = backend("Region A", 30, 1.0);
    let proxy = FaultProxy::start(a.addr());
    // Generous deadline + fixed 25ms hedge, no retries: the hedge is the
    // only thing that can rescue the stalled request quickly. Slow probes
    // and a high threshold keep the health machinery out of the way.
    let config = FedConfig {
        request_timeout_secs: 2.0,
        retries: 0,
        backoff_base_ms: 10,
        backoff_cap_ms: 50,
        hedge_ms: Some(25),
        probe_secs: 5.0,
        fail_threshold: 10,
    };
    let (fed_handle, _fed) = federate(vec![("Region A", proxy.addr())], config);

    // Warm up: one clean round trip (also seeds the connection pool).
    let warm = get_once(fed_handle.addr(), "/top?region=region_a&k=5");
    assert_eq!(warm.status, 200, "{}", warm.body);

    // Stall exactly the next scoring request by 500ms; the hedge fires at
    // 25ms on a second connection, which the proxy forwards immediately.
    proxy.delay_next(Duration::from_millis(500));
    let start = Instant::now();
    let resp = get_once(fed_handle.addr(), "/top?region=region_a&k=5");
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, warm.body, "hedged response bytes drifted");
    assert!(
        elapsed < Duration::from_millis(400),
        "hedge failed to rescue the stalled request: {elapsed:?}"
    );
    let metrics = fed_handle.metrics();
    assert!(metrics.fed_hedges_total() >= 1, "no hedge was fired");
    assert!(metrics.fed_hedge_wins_total() >= 1, "the hedge never won");

    fed_handle.shutdown();
    a.shutdown();
}

// ---------------------------------------------------------------------------
// Federated aggregation: byte-identity, per-region degradation, and the
// zero-healthy-backends 503.
// ---------------------------------------------------------------------------

const AGG_SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";

#[test]
fn federated_aggregate_is_byte_identical_and_degrades_per_region() {
    let a = attr_backend("Region A", 30, 1.0);
    let b = attr_backend("Region B", 20, 2.0);
    let c = attr_backend("Region C", 25, 1.5);
    let proxy = FaultProxy::start(c.addr());
    let (fed_handle, fed) = federate(
        vec![
            ("Region A", a.addr()),
            ("Region B", b.addr()),
            ("Region C", proxy.addr()),
        ],
        fed_test_config(),
    );
    let oracle_abc = oracle(vec![
        attr_scorer("Region A", 30, 1.0),
        attr_scorer("Region B", 20, 2.0),
        attr_scorer("Region C", 25, 1.5),
    ]);
    let oracle_ab = oracle(vec![
        attr_scorer("Region A", 30, 1.0),
        attr_scorer("Region B", 20, 2.0),
    ]);
    let give_up = Duration::from_secs(30);

    // Healthy fleet: the scatter-gathered merge of wire partials is
    // byte-identical to ONE in-process sharded server — for plain
    // grouping, top_groups, and the greedy budget operator alike.
    let budget_spec = "{\"group_by\":[\"region\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"}],\"budget\":{\"length_m\":500}}";
    let top_spec = "{\"group_by\":[\"material\"],\"aggregates\":[{\"op\":\"max\",\"field\":\"risk\"}],\"top_groups\":3}";
    for spec in [AGG_SPEC, budget_spec, top_spec] {
        let via_fed = post_once(fed_handle.addr(), "/aggregate", spec);
        let in_process = post_once(oracle_abc.addr(), "/aggregate", spec);
        assert_eq!(via_fed.status, 200, "{spec}: {}", via_fed.body);
        assert_eq!(via_fed.body, in_process.body, "{spec} drifted from in-process");
        assert!(
            via_fed.header("x-pipefail-partial").is_none(),
            "healthy fleet must not mark the aggregate partial"
        );
    }

    // A malformed spec 400s locally — no backend traffic, same body shape
    // as a backend would answer.
    let bad = post_once(fed_handle.addr(), "/aggregate", "{\"group_by\":[\"altitude\"]}");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(bad.body.starts_with("{\"error\":"), "{}", bad.body);

    // Kill region_c: the aggregate keeps answering over the live fleet,
    // naming the lost region — byte-identical to an in-process server
    // over exactly the live regions.
    proxy.set_fault(Fault::Blackhole);
    wait_for("blackhole to mark region_c down", give_up, || {
        fed.state_of("region_c") == Some(BackendState::Down)
    });
    let partial = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(partial.status, 200, "{}", partial.body);
    assert_eq!(partial.header("x-pipefail-partial"), Some("region_c"));
    assert_eq!(
        partial.body,
        post_once(oracle_ab.addr(), "/aggregate", AGG_SPEC).body,
        "partial aggregate drifted from the live-fleet oracle"
    );

    // Heal and the full merge returns, unmarked.
    proxy.set_fault(Fault::None);
    wait_for("probe to heal region_c", give_up, || {
        fed.state_of("region_c") == Some(BackendState::Healthy)
    });
    let whole = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(whole.status, 200, "{}", whole.body);
    assert!(whole.header("x-pipefail-partial").is_none());
    assert_eq!(whole.body, post_once(oracle_abc.addr(), "/aggregate", AGG_SPEC).body);

    fed_handle.shutdown();
    oracle_ab.shutdown();
    oracle_abc.shutdown();
    a.shutdown();
    b.shutdown();
    c.shutdown();
}

#[test]
fn aggregate_with_zero_healthy_backends_answers_503_with_retry_after() {
    let a = attr_backend("Region A", 10, 1.0);
    let b = attr_backend("Region B", 10, 1.0);
    let proxy_a = FaultProxy::start(a.addr());
    let proxy_b = FaultProxy::start(b.addr());
    let (fed_handle, fed) = federate(
        vec![("Region A", proxy_a.addr()), ("Region B", proxy_b.addr())],
        fed_test_config(),
    );

    // Sanity: the healthy pair answers.
    let ok = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(ok.status, 200, "{}", ok.body);

    // Black-hole the whole fleet: a roll-up with zero live regions would
    // be silently wrong, so the front-end refuses with a typed 503 and
    // tells the client when to retry.
    proxy_a.set_fault(Fault::Blackhole);
    proxy_b.set_fault(Fault::Blackhole);
    wait_for("both backends down", Duration::from_secs(30), || {
        fed.state_of("region_a") == Some(BackendState::Down)
            && fed.state_of("region_b") == Some(BackendState::Down)
    });
    let dark = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(dark.status, 503, "{}", dark.body);
    assert_eq!(dark.header("retry-after"), Some("1"));
    assert!(
        dark.body.contains("all backends degraded"),
        "{}",
        dark.body
    );
    assert!(dark.body.contains("region_a") && dark.body.contains("region_b"), "{}", dark.body);

    // Healing either backend restores service (partial, flagged).
    proxy_b.set_fault(Fault::None);
    wait_for("region_b heals", Duration::from_secs(30), || {
        fed.state_of("region_b") == Some(BackendState::Healthy)
    });
    let back = post_once(fed_handle.addr(), "/aggregate", AGG_SPEC);
    assert_eq!(back.status, 200, "{}", back.body);
    assert_eq!(back.header("x-pipefail-partial"), Some("region_a"));

    fed_handle.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn backend_healthz_probe_traffic_stays_out_of_request_metrics() {
    let a = backend("Region A", 10, 1.0);
    let (fed_handle, _fed) = federate(vec![("Region A", a.addr())], fed_test_config());

    // Let several probe rounds land on the backend's /healthz.
    let backend_metrics = a.metrics();
    wait_for("three probe rounds", Duration::from_secs(10), || {
        backend_metrics.healthz_total() >= 3
    });

    // Probes are answered and counted in their own series — and in NONE of
    // the request counters (requests_total still zero, healthz route 0).
    let text = backend_metrics.render();
    assert!(text.contains("pipefail_requests_total 0"), "{text}");
    assert!(text.contains("pipefail_requests{route=\"healthz\"} 0"), "{text}");
    let fed_hz = get_once(fed_handle.addr(), "/healthz");
    assert_eq!(fed_hz.status, 200, "{}", fed_hz.body);
    assert!(fed_hz.body.contains("\"status\":\"ok\""), "{}", fed_hz.body);

    fed_handle.shutdown();
    a.shutdown();
}
