//! The result-cache battery:
//!
//! * property: cache-on and cache-off servers answer **byte-identical**
//!   bodies for the same request stream on all three topologies
//!   (monolithic, in-process sharded, federated front end) — including
//!   the repeat request that the cache-on server serves from the LRU;
//! * `ETag` round trips: a conditional GET with the returned validator is
//!   a `304` with an empty body, and `HEAD` answers the GET's headers
//!   (including `Content-Length` and `ETag`) without writing body bytes —
//!   proven by keep-alive framing staying aligned; a `304` carries no
//!   `Content-Length`;
//! * `/metrics`: hits and `304`s count the shard, global-merge, and
//!   per-route series exactly like recomputes, so a cache-on and a
//!   cache-off server expose identical series;
//! * invalidation under churn: keep-alive clients drive repeated queries
//!   through an atomic snapshot rename and a corrupt-swap degrade → heal;
//!   once a new ranking (or the degraded 503) is observed, no stale-epoch
//!   body is ever served again, a stale validator never produces a `304`,
//!   and the hit rate recovers after heal;
//! * federated responses carrying `X-Pipefail-Partial` are never cached:
//!   repeated partial queries produce zero cache hits, and healing the
//!   backend restores the exact full-fleet bytes.

mod common;

use common::{
    get_if_none_match, get_once, get_request, head_request, post_once, request_once, Conn,
};
use common::faultproxy::{Fault, FaultProxy};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use pipefail_serve::http::render_top_k;
use pipefail_serve::{
    serve, serve_federated, FedConfig, Federation, Scorer, ServeContext, ServerConfig,
    ServerHandle, ShardSet,
};
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUP_SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";

/// Deterministic regional snapshot with a canonical attributes section,
/// so every topology can answer `/aggregate` as well as `/top`.
fn snapshot(region: &str, n: u32, base: f64) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(i),
                score: base - f64::from(i) / f64::from(n.max(1)),
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
    snap.push_section(attributes_section(
        (0..n).map(|i| 100.0 + f64::from(i)).collect(),
        (0..n).map(|i| f64::from(i % 9)).collect(),
        (0..n).map(|i| f64::from(1940 + (i % 4) * 10)).collect(),
    ));
    snap
}

fn scorer(region: &str, n: u32, base: f64) -> Scorer {
    Scorer::new(snapshot(region, n, base)).expect("valid snapshot")
}

/// Enough workers that keep-alive clients and federation pools never
/// serialize on a single-core default; `cache` as given.
fn config(cache: bool) -> ServerConfig {
    ServerConfig { workers: 4, cache, ..ServerConfig::default() }
}

fn mono(n: u32, base: f64, cache: bool) -> ServerHandle {
    serve(Arc::new(ServeContext::new(scorer("Region A", n, base))), &config(cache))
        .expect("monolithic server starts")
}

fn sharded(sizes: &[(u32, f64)], cache: bool) -> ServerHandle {
    let scorers = sizes
        .iter()
        .enumerate()
        .map(|(i, &(n, base))| scorer(&format!("Region {}", (b'A' + i as u8) as char), n, base))
        .collect();
    serve(
        Arc::new(ServeContext::sharded(
            ShardSet::from_scorers(scorers).expect("distinct regions"),
        )),
        &config(cache),
    )
    .expect("sharded server starts")
}

/// A federation front end over `(region, addr)` targets.
fn federate(targets: &[(&str, SocketAddr)], cache: bool) -> ServerHandle {
    let fed = Arc::new(
        Federation::new(
            targets.iter().map(|(k, a)| (k.to_string(), a.to_string())).collect(),
            FedConfig {
                request_timeout_secs: 2.0,
                retries: 1,
                backoff_base_ms: 10,
                backoff_cap_ms: 50,
                probe_secs: 0.1,
                fail_threshold: 2,
                ..FedConfig::default()
            },
        )
        .expect("federation builds"),
    );
    serve_federated(fed, &config(cache)).expect("front-end starts")
}

/// Scrape one counter/gauge value from `/metrics`.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let exposition = get_once(addr, "/metrics").body;
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("missing {name} series: {exposition}"))
}

/// Temp directory unique to this test process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipefail_cachebat_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

// ---------------------------------------------------------------------------
// Property: the cache is invisible in the response bytes, everywhere.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random shard sizes, score bases, `k`, and pipe ids, a cache-on
    /// server and a cache-off server answer byte-identical `(status, body)`
    /// for the same request stream — on the monolithic, sharded, AND
    /// federated topologies. Every GET/POST is issued twice against the
    /// cache-on server so the second response comes from the LRU (asserted
    /// via the hit counter afterwards), and a *permuted* query spelling is
    /// thrown in so key normalization is exercised end to end.
    #[test]
    fn cached_responses_are_byte_identical_on_every_topology(
        na in 1u32..40,
        nb in 1u32..40,
        base_a in 0.5f64..3.0,
        base_b in 0.5f64..3.0,
        k in 0usize..12,
        id in 0u32..60,
    ) {
        // Monolithic pair.
        let mono_on = mono(na, base_a, true);
        let mono_off = mono(na, base_a, false);
        // Sharded pair over the same two regions.
        let sizes = [(na, base_a), (nb, base_b)];
        let shard_on = sharded(&sizes, true);
        let shard_off = sharded(&sizes, false);
        // Federated pair over ONE set of backends (read-only traffic).
        let back_a = mono(na, base_a, true);
        let back_b = serve(
            Arc::new(ServeContext::new(scorer("Region B", nb, base_b))),
            &config(true),
        ).expect("backend b");
        let targets = [("Region A", back_a.addr()), ("Region B", back_b.addr())];
        let fed_on = federate(&targets, true);
        let fed_off = federate(&targets, false);

        let top = format!("/top?k={k}");
        let top_permuted = format!("/top?x=1&k=0{k}"); // same k, different spelling
        let top_a = format!("/top?region=region_a&k={k}");
        let pipe_a = format!("/pipe?region=region_a&id={id}");
        let pipe_mono = format!("/pipe?id={id}");

        let gets: &[(&ServerHandle, &ServerHandle, &str)] = &[
            (&mono_on, &mono_off, top.as_str()),
            (&mono_on, &mono_off, pipe_mono.as_str()),
            (&shard_on, &shard_off, top.as_str()),
            (&shard_on, &shard_off, top_a.as_str()),
            (&shard_on, &shard_off, pipe_a.as_str()),
            (&fed_on, &fed_off, top.as_str()),
            (&fed_on, &fed_off, top_a.as_str()),
            (&fed_on, &fed_off, pipe_a.as_str()),
        ];
        for &(on, off, path) in gets {
            let oracle = get_once(off.addr(), path);
            let first = get_once(on.addr(), path);
            let again = get_once(on.addr(), path);
            prop_assert!(first.status == oracle.status, "{}: status differs", path);
            prop_assert!(first.body == oracle.body, "{}: body differs", path);
            prop_assert!(again.body == oracle.body, "cached repeat differs: {}", path);
            prop_assert!(
                oracle.header("x-pipefail-partial").is_none(),
                "full fleet must not be partial: {}", path
            );
        }
        // A permuted spelling of the same query lands on the same entry.
        let canonical = get_once(shard_on.addr(), &top);
        let permuted = get_once(shard_on.addr(), &top_permuted);
        prop_assert_eq!(&permuted.body, &canonical.body);
        prop_assert_eq!(permuted.header("etag"), canonical.header("etag"));

        for (on, off) in [(&mono_on, &mono_off), (&shard_on, &shard_off), (&fed_on, &fed_off)] {
            let oracle = post_once(off.addr(), "/aggregate", GROUP_SPEC);
            let first = post_once(on.addr(), "/aggregate", GROUP_SPEC);
            let again = post_once(on.addr(), "/aggregate", GROUP_SPEC);
            prop_assert_eq!(first.status, oracle.status);
            prop_assert_eq!(&first.body, &oracle.body);
            prop_assert!(again.body == oracle.body, "cached aggregate differs");
        }

        // The repeats above were real cache hits, not recomputes.
        for on in [&mono_on, &shard_on, &fed_on] {
            prop_assert!(metric(on.addr(), "pipefail_cache_hits_total") > 0);
        }
        // And the cache-off servers never stored or hit anything.
        for off in [&mono_off, &shard_off, &fed_off] {
            prop_assert_eq!(metric(off.addr(), "pipefail_cache_hits_total"), 0);
            prop_assert_eq!(metric(off.addr(), "pipefail_cache_resident_bytes"), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// ETag / 304 / HEAD.
// ---------------------------------------------------------------------------

#[test]
fn etag_conditional_gets_and_head_answer() {
    let handle = serve(
        Arc::new(ServeContext::new(scorer("Region A", 50, 1.0))),
        &ServerConfig { workers: 4, ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr();

    // A cacheable GET carries a validator.
    let full = get_once(addr, "/top?k=7");
    assert_eq!(full.status, 200, "{}", full.body);
    let etag = full.header("etag").expect("cacheable GET must carry ETag").to_string();
    assert!(etag.starts_with('"') && etag.ends_with('"'), "opaque quoted ETag: {etag}");

    // Conditional GET with the validator: 304, empty body, same tag.
    let not_modified = request_once(addr, &get_if_none_match("/top?k=7", &etag, false));
    assert_eq!(not_modified.status, 304);
    assert_eq!(not_modified.body, "", "304 must not carry a body");
    assert_eq!(not_modified.header("etag"), Some(etag.as_str()));
    // A different validator is a full 200.
    let miss = request_once(addr, &get_if_none_match("/top?k=7", "\"deadbeef\"", false));
    assert_eq!(miss.status, 200);
    assert_eq!(miss.body, full.body);

    // HEAD answers the GET's headers without body bytes. Framing is
    // proven by the SAME keep-alive connection serving a strict GET
    // right after: any stray body bytes would desync it.
    let mut conn = Conn::connect(addr);
    conn.send(&head_request("/top?k=7", true));
    let head = conn.read_head_response();
    assert_eq!(head.status, 200);
    assert_eq!(
        head.header("content-length"),
        Some(full.body.len().to_string().as_str()),
        "HEAD must advertise the GET body length"
    );
    assert_eq!(head.header("etag"), Some(etag.as_str()));
    let after = conn.get("/top?k=7");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, full.body, "keep-alive desync after HEAD");

    // HEAD of an unknown path is a headers-only 404, not a hang.
    conn.send(&head_request("/nope", true));
    let missing = conn.read_head_response();
    assert_eq!(missing.status, 404);
    // HEAD of a POST-only route stays a (headers-only) 405.
    conn.send(&head_request("/aggregate", true));
    assert_eq!(conn.read_head_response().status, 405);
    // The connection is still aligned.
    assert_eq!(conn.get("/top?k=7").body, full.body);

    handle.shutdown();
}

/// A `304` is header-only and carries no `Content-Length` (RFC 9110
/// §8.6 allows only the 200 body's length). Pipelined behind and ahead of
/// full GETs on one keep-alive connection, every response stays aligned.
#[test]
fn not_modified_carries_no_content_length_and_keeps_keep_alive_aligned() {
    let handle = serve(
        Arc::new(ServeContext::new(scorer("Region A", 50, 1.0))),
        &config(true),
    )
    .expect("server starts");
    let mut conn = Conn::connect(handle.addr());
    let full = conn.get("/top?k=7");
    let etag = full.header("etag").expect("validator").to_string();
    let conditional = get_if_none_match("/top?k=7", &etag, true);
    conn.send(&format!("{conditional}{conditional}{}", get_request("/top?k=7", true)));
    for _ in 0..2 {
        let not_modified = conn.read_response();
        assert_eq!(not_modified.status, 304);
        assert_eq!(not_modified.header("content-length"), None, "{not_modified:?}");
        assert_eq!(not_modified.header("etag"), Some(etag.as_str()));
        not_modified.assert_connection("keep-alive");
    }
    assert_eq!(conn.read_response().body, full.body, "keep-alive desync after 304");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A stored answer counts in /metrics exactly like a computed one.
// ---------------------------------------------------------------------------

/// The `/metrics` lines that account for which shard or backend served
/// each query, and on which route.
fn routing_series(addr: SocketAddr) -> Vec<String> {
    const PREFIXES: [&str; 4] = [
        "pipefail_shard_requests{",
        "pipefail_shard_unavailable{",
        "pipefail_global_topk_total ",
        "pipefail_requests{",
    ];
    get_once(addr, "/metrics")
        .body
        .lines()
        .filter(|l| PREFIXES.iter().any(|p| l.starts_with(p)))
        .map(String::from)
        .collect()
}

/// Cache hits and `304`s must move the routing counters exactly as a
/// recompute would: a cache-on and a cache-off server fed the same stream
/// (every request twice, plus a conditional GET on each validator) expose
/// identical per-shard, global-merge and per-route series, on every
/// topology.
#[test]
fn stored_answers_count_like_computed_ones_on_every_topology() {
    let sizes = [(30, 1.0), (20, 2.0)];
    let back_a = mono(30, 1.0, true);
    let back_b = serve(
        Arc::new(ServeContext::new(scorer("Region B", 20, 2.0))),
        &config(true),
    )
    .expect("backend b");
    let targets = [("Region A", back_a.addr()), ("Region B", back_b.addr())];
    let topologies = [
        (
            mono(30, 1.0, true),
            mono(30, 1.0, false),
            &[
                "/top?k=5",
                "/pipe?id=3",
                "/pipe?id=999",
                "/top?region=region_a&k=4",
                "/pipe?region=region_a&id=4",
            ][..],
        ),
        (
            sharded(&sizes, true),
            sharded(&sizes, false),
            &[
                "/top?k=5",
                "/top?region=region_b&k=3",
                "/pipe?region=region_a&id=4",
                "/pipe?region=region_b&id=999",
            ][..],
        ),
        (
            federate(&targets, true),
            federate(&targets, false),
            &["/top?k=5", "/top?region=region_b&k=3", "/pipe?region=region_a&id=4"][..],
        ),
    ];
    for (on, off, paths) in &topologies {
        for server in [on, off] {
            let addr = server.addr();
            // A federation front end's generation moves when it first sees
            // each backend's epoch; settle it so the validators hold.
            get_once(addr, "/top?k=1");
            for path in *paths {
                let first = get_once(addr, path);
                assert_eq!(get_once(addr, path).body, first.body, "{path}");
                if let Some(etag) = first.header("etag") {
                    let revalidated = request_once(addr, &get_if_none_match(path, etag, false));
                    assert_eq!(revalidated.status, 304, "{path}");
                }
            }
            for _ in 0..2 {
                assert_eq!(post_once(addr, "/aggregate", GROUP_SPEC).status, 200);
            }
        }
        let counted = routing_series(on.addr());
        assert!(counted.iter().any(|l| l.starts_with("pipefail_shard_requests{")), "{counted:?}");
        assert_eq!(counted, routing_series(off.addr()));
        assert!(metric(on.addr(), "pipefail_cache_hits_total") > 0);
    }
}

// ---------------------------------------------------------------------------
// Invalidation under churn: rename reload + corrupt-swap degrade → heal.
// ---------------------------------------------------------------------------

/// Keep-alive clients drive repeated queries through an atomic snapshot
/// rename and a per-shard corrupt-swap degrade → heal. The assertions:
/// once the new ranking (or the 503) is observed, the previous epoch's
/// body is NEVER served again; a stale validator never earns a `304`; the
/// sibling region sees zero failures and constant bytes throughout; and
/// after heal the hit rate recovers (repeat queries hit the cache again).
#[test]
fn no_stale_epoch_body_across_rename_reload_and_degrade_heal() {
    let dir = temp_dir("churn");
    let path_a = dir.join("region_a.pfsnap");
    let path_b = dir.join("region_b.pfsnap");
    snapshot("Region A", 25, 1.0).save(&path_a).expect("save A");
    snapshot("Region B", 25, 2.0).save(&path_b).expect("save B");

    let set = ShardSet::load_dir(&dir, &TaskPool::new(2)).expect("load shard dir");
    let ref_a1 = render_top_k(&set.get("region_a").expect("region_a").last_good(), 5);
    let ref_b = render_top_k(&set.get("region_b").expect("region_b").last_good(), 5);
    let replacement = snapshot("Region A", 25, 6.0);
    let ref_a2 = render_top_k(&Scorer::new(replacement.clone()).expect("valid snapshot"), 5);
    let healed = snapshot("Region A", 25, 9.0);
    let ref_a3 = render_top_k(&Scorer::new(healed.clone()).expect("valid snapshot"), 5);
    assert_ne!(ref_a1, ref_a2);
    assert_ne!(ref_a2, ref_a3);

    let cfg = ServerConfig {
        reload_poll_secs: 0.05,
        keepalive_requests: 0,
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::sharded(set)), &cfg).expect("server starts");
    let addr = handle.addr();

    // Sibling keep-alive client hammers region B for the whole experiment:
    // every response must be a 200 with the exact same bytes — reloads and
    // degrades of region A must never surface stale or wrong bytes here.
    let stop = Arc::new(AtomicBool::new(false));
    let sibling = {
        let stop = Arc::clone(&stop);
        let ref_b = ref_b.clone();
        std::thread::spawn(move || {
            let mut conn = Conn::connect(addr);
            let mut requests = 0u64;
            let give_up = Instant::now() + Duration::from_secs(60);
            while !stop.load(Ordering::Relaxed) && Instant::now() < give_up {
                let response = conn.get("/top?region=region_b&k=5");
                assert_eq!(response.status, 200, "sibling failed: {}", response.body);
                assert_eq!(response.body, ref_b, "sibling bytes changed");
                requests += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            requests
        })
    };

    // Warm the cache and capture the first epoch's validator.
    let mut conn = Conn::connect(addr);
    let warm = conn.get("/top?region=region_a&k=5");
    assert_eq!(warm.body, ref_a1);
    let etag_a1 = warm.header("etag").expect("validator").to_string();
    assert_eq!(conn.get("/top?region=region_a&k=5").body, ref_a1);

    // --- Atomic rename reload -------------------------------------------
    let tmp = dir.join("region_a.pfsnap.tmp");
    replacement.save(&tmp).expect("save replacement");
    std::fs::rename(&tmp, &path_a).expect("atomic rename");

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen_new = false;
    while !seen_new {
        assert!(Instant::now() < deadline, "rename reload never observed");
        let r = conn.get("/top?region=region_a&k=5");
        assert_eq!(r.status, 200, "valid swap must not fail: {}", r.body);
        if r.body == ref_a2 {
            seen_new = true;
        } else {
            assert_eq!(r.body, ref_a1, "mixed/unknown ranking during swap");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    // From the first new-epoch response on, the old body must never
    // reappear — this is exactly what a TTL cache gets wrong.
    for _ in 0..20 {
        let r = conn.get("/top?region=region_a&k=5");
        assert_eq!(r.body, ref_a2, "STALE-EPOCH body served after reload");
    }
    // A stale validator must not earn a 304: the entry it names is gone.
    let revalidated = request_once(addr, &get_if_none_match("/top?region=region_a&k=5", &etag_a1, false));
    assert_eq!(revalidated.status, 200, "stale validator must refetch");
    assert_eq!(revalidated.body, ref_a2);
    assert_ne!(revalidated.header("etag"), Some(etag_a1.as_str()), "validator must change with the epoch");

    // --- Corrupt swap: degrade ------------------------------------------
    std::fs::write(&path_a, b"PFSNAPgarbage").expect("corrupt A");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "shard never degraded");
        let r = conn.get("/top?region=region_a&k=5");
        if r.status == 503 {
            break;
        }
        assert_eq!(r.body, ref_a2, "stale body during degrade window");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Degraded now: the cached healthy-epoch body must NOT be served.
    for _ in 0..20 {
        let r = conn.get("/top?region=region_a&k=5");
        assert_eq!(r.status, 503, "cached body served from a degraded shard: {}", r.body);
    }

    // --- Heal ------------------------------------------------------------
    healed.save(&tmp).expect("save heal");
    std::fs::rename(&tmp, &path_a).expect("heal rename");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "shard never healed");
        let r = conn.get("/top?region=region_a&k=5");
        if r.status == 200 {
            assert_eq!(r.body, ref_a3, "healed shard served a pre-heal body");
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Hit rate recovers after heal: repeats hit the cache again.
    let hits_before = metric(addr, "pipefail_cache_hits_total");
    for _ in 0..10 {
        let r = conn.get("/top?region=region_a&k=5");
        assert_eq!((r.status, r.body.as_str()), (200, ref_a3.as_str()));
    }
    let hits_after = metric(addr, "pipefail_cache_hits_total");
    assert!(
        hits_after >= hits_before + 9,
        "hit rate did not recover after heal: {hits_before} -> {hits_after}"
    );

    // All cache series are exposed.
    let exposition = get_once(addr, "/metrics").body;
    for series in [
        "pipefail_cache_hits_total",
        "pipefail_cache_misses_total",
        "pipefail_cache_evictions_total",
        "pipefail_cache_coalesced_waits_total",
        "pipefail_cache_resident_bytes",
    ] {
        assert!(exposition.contains(series), "missing {series}: {exposition}");
    }

    stop.store(true, Ordering::Relaxed);
    let sibling_requests = sibling.join().expect("sibling panicked");
    assert!(sibling_requests > 0, "sibling never ran");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Partial federated responses are never cached.
// ---------------------------------------------------------------------------

#[test]
fn partial_federated_responses_are_never_cached_and_heal_restores_full_bytes() {
    let back_a = mono(30, 1.0, true);
    let back_b = serve(
        Arc::new(ServeContext::new(scorer("Region B", 20, 2.0))),
        &config(true),
    )
    .expect("backend b");
    let proxy = FaultProxy::start(back_b.addr());
    let front = federate(&[("Region A", back_a.addr()), ("Region B", proxy.addr())], true);
    let addr = front.addr();

    // First contact observes each backend's epoch for the first time,
    // which itself advances the federation generation — so the very first
    // response is (correctly) not stored. Warm once before asserting.
    assert_eq!(get_once(addr, "/top?k=5").status, 200);

    // Full fleet: the merge caches and hits.
    let full = get_once(addr, "/top?k=5");
    assert_eq!(full.status, 200, "{}", full.body);
    assert!(full.header("x-pipefail-partial").is_none(), "fleet must start full");
    assert_eq!(get_once(addr, "/top?k=5").body, full.body);
    assert!(metric(addr, "pipefail_cache_hits_total") > 0);

    // Fault region B's wire: the global top-K goes partial.
    proxy.set_fault(Fault::Reset);
    let deadline = Instant::now() + Duration::from_secs(15);
    let partial = loop {
        assert!(Instant::now() < deadline, "fleet never went partial");
        let r = get_once(addr, "/top?k=5");
        if r.header("x-pipefail-partial").is_some() {
            break r;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_ne!(partial.body, full.body, "partial merge must omit the dark region");

    // Repeated partial queries: byte-stable, but NEVER from the cache.
    let hits_before = metric(addr, "pipefail_cache_hits_total");
    for _ in 0..5 {
        let r = get_once(addr, "/top?k=5");
        assert!(r.header("x-pipefail-partial").is_some(), "fleet flapped mid-assert");
        assert_eq!(r.body, partial.body, "partial bytes unstable");
    }
    assert_eq!(
        metric(addr, "pipefail_cache_hits_total"),
        hits_before,
        "a partial response was served from the cache"
    );

    // Heal the wire: the probe revives region B and the exact full-fleet
    // bytes come back (a cached partial would be a stale-health body).
    proxy.set_fault(Fault::None);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        assert!(Instant::now() < deadline, "fleet never healed");
        let r = get_once(addr, "/top?k=5");
        if r.header("x-pipefail-partial").is_none() {
            assert_eq!(r.body, full.body, "healed merge differs from the original");
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the full response caches again at the new generation.
    let hits = metric(addr, "pipefail_cache_hits_total");
    assert_eq!(get_once(addr, "/top?k=5").body, full.body);
    assert!(metric(addr, "pipefail_cache_hits_total") > hits);

    front.shutdown();
    back_a.shutdown();
    back_b.shutdown();
}
