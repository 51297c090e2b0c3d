//! The serve-layer battery for keep-alive serving and snapshot hot-reload:
//!
//! * one TCP connection answers ≥ 10 sequential keep-alive requests with
//!   bodies byte-identical to close-per-request mode;
//! * pipelined back-to-back requests written in one syscall all answer, in
//!   order, with exact framing;
//! * an idle keep-alive connection is disconnected at the idle timeout and
//!   a capped connection is closed at the request cap;
//! * a snapshot swap on disk changes the served ranking with zero failed
//!   requests for a client polling mid-stream, while a corrupt replacement
//!   is rejected and the old scorer keeps serving;
//! * a replacement published the moment `serve` returns is reloaded.

mod common;

use common::{get_once, get_request, Conn};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::Snapshot;
use pipefail_network::ids::PipeId;
use pipefail_serve::http::{render_model, render_top_k};
use pipefail_serve::{serve, Counter, ServeContext, ServerConfig, Scorer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic synthetic snapshot: `n` pipes, scores descending from
/// `base`. Different `base` values produce visibly different rankings.
fn snapshot(n: u32, base: f64, seed: u64) -> Snapshot {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                pipe: PipeId(if seed.is_multiple_of(2) { i } else { n - 1 - i }),
                score: base - f64::from(i) / f64::from(n),
            })
            .collect(),
    );
    Snapshot::new("DPMHBP", "Region A", seed, &ranking)
}

fn scorer(n: u32, base: f64, seed: u64) -> Scorer {
    Scorer::new(snapshot(n, base, seed)).expect("valid snapshot")
}

/// Temp file path unique to this test process.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipefail_keepalive_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn one_connection_serves_many_requests_byte_identical_to_fresh_connections() {
    let s = scorer(50, 1.0, 0);
    let reference_top = render_top_k(&s, 7);
    let reference_model = render_model(&s);
    let handle = serve(Arc::new(ServeContext::new(s)), &ServerConfig::default())
        .expect("server starts");
    let addr = handle.addr();

    // Close-per-request baseline bodies.
    let paths = ["/top?k=7", "/pipe?id=3", "/model", "/health"];
    let fresh: Vec<String> = paths.iter().map(|p| get_once(addr, p).body.clone()).collect();
    assert_eq!(fresh[0], reference_top);
    assert_eq!(fresh[2], reference_model);

    // Twelve sequential requests on ONE socket (acceptance: ≥ 10), cycling
    // the paths; every body must be byte-identical to its fresh-connection
    // twin and every response must advertise keep-alive.
    let mut conn = Conn::connect(addr);
    for i in 0..12 {
        let which = i % paths.len();
        let response = conn.get(paths[which]);
        assert_eq!(response.status, 200, "request {i}");
        assert_eq!(response.body, fresh[which], "request {i} body differs from fresh connection");
        response.assert_connection("keep-alive");
    }
    drop(conn);

    // 11 of the 12 were reuses of an existing connection.
    let metrics = handle.metrics();
    let reuses = metrics.get(Counter::KeepaliveReuses);
    assert_eq!(reuses, 11, "exactly 11 reuses on the shared socket");
    assert_eq!(metrics.total(), (paths.len() + 12) as u64);
    handle.shutdown();
}

#[test]
fn pipelined_requests_in_one_write_all_answer_in_order() {
    let s = scorer(30, 1.0, 0);
    let handle = serve(Arc::new(ServeContext::new(s)), &ServerConfig::default())
        .expect("server starts");
    let addr = handle.addr();

    let paths = ["/top?k=2", "/pipe?id=0", "/health", "/top?k=4", "/model"];
    let fresh: Vec<String> = paths.iter().map(|p| get_once(addr, p).body.clone()).collect();

    // All six requests in ONE write: five keep-alive, the last closes.
    let mut batch = String::new();
    for p in &paths {
        batch.push_str(&get_request(p, true));
    }
    batch.push_str(&get_request("/health", false));

    let mut conn = Conn::connect(addr);
    conn.send(&batch); // one write carries all six requests

    for (i, p) in paths.iter().enumerate() {
        let response = conn.read_response();
        assert_eq!(response.status, 200, "pipelined response {i} ({p})");
        assert_eq!(response.body, fresh[i], "pipelined response {i} ({p})");
        response.assert_connection("keep-alive");
    }
    let last = conn.read_response();
    assert_eq!(last.status, 200);
    last.assert_connection("close");
    // The server hangs up after honoring Connection: close.
    conn.assert_eof();
    handle.shutdown();
}

#[test]
fn idle_keepalive_connection_is_disconnected_at_the_idle_timeout() {
    let s = scorer(10, 1.0, 0);
    let config = ServerConfig { idle_timeout_secs: 0.2, ..ServerConfig::default() };
    let handle = serve(Arc::new(ServeContext::new(s)), &config).expect("server starts");
    let addr = handle.addr();

    let mut conn = Conn::connect(addr);
    let response = conn.get("/health");
    assert_eq!(response.status, 200);
    response.assert_connection("keep-alive");

    // Go idle. The server must close (EOF, no 408 — nothing was asked)
    // within a couple of timeout periods.
    let waited = Instant::now();
    conn.assert_eof();
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "idle disconnect took {:?}",
        waited.elapsed()
    );
    handle.shutdown();
}

#[test]
fn request_cap_closes_the_connection_after_n_requests() {
    let s = scorer(10, 1.0, 0);
    let config = ServerConfig { keepalive_requests: 3, ..ServerConfig::default() };
    let handle = serve(Arc::new(ServeContext::new(s)), &config).expect("server starts");
    let addr = handle.addr();

    let mut conn = Conn::connect(addr);
    for i in 1..=3 {
        let response = conn.get("/health");
        assert_eq!(response.status, 200);
        // The third (capped) response must advertise the close.
        response.assert_connection(if i < 3 { "keep-alive" } else { "close" });
    }
    conn.assert_eof();

    // The server itself is fine — a new connection serves again.
    assert_eq!(get_once(addr, "/health").status, 200);
    handle.shutdown();
}

#[test]
fn hot_reload_swaps_ranking_mid_stream_with_zero_failed_requests() {
    let path = temp_path("hot_reload.pfsnap");
    snapshot(40, 1.0, 0).save(&path).expect("save initial snapshot");

    let reference_a = render_top_k(&Scorer::load(&path).expect("load A"), 5);
    let snapshot_b = snapshot(40, 9.0, 1); // different scores AND pipe order
    let reference_b = render_top_k(&Scorer::new(snapshot_b.clone()).expect("valid snapshot"), 5);
    assert_ne!(reference_a, reference_b, "the swap must be observable");

    let scorer_a = Scorer::load(&path).expect("load snapshot");
    let config = ServerConfig {
        reload_poll_secs: 0.05,
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::new(scorer_a)), &config).expect("server starts");
    let addr = handle.addr();

    // A chatty client polling /top on ONE keep-alive connection while the
    // snapshot is replaced underneath it.
    let mut conn = Conn::connect(addr);

    let mut seen_a = 0usize;
    let mut seen_b = 0usize;
    let mut swapped_on_disk = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen_b == 0 {
        assert!(Instant::now() < deadline, "swap never observed (A seen {seen_a} times)");
        let response = conn.get("/top?k=5");
        // Zero failed requests across the swap: every single poll is a 200
        // serving one complete, consistent ranking.
        assert_eq!(response.status, 200);
        if response.body == reference_a {
            seen_a += 1;
        } else if response.body == reference_b {
            seen_b += 1;
        } else {
            panic!("mixed/partial ranking served during swap: {}", response.body);
        }
        if seen_a >= 3 && !swapped_on_disk {
            // Mid-stream: atomically replace the snapshot file.
            snapshot_b.save(&path).expect("replace snapshot");
            swapped_on_disk = true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(seen_a >= 3, "client observed the old ranking before the swap");

    // The swap is durable and counted.
    let after = conn.get("/top?k=5");
    assert_eq!(after.body, reference_b);
    let metrics = handle.metrics();
    assert_eq!(metrics.reloads_total(), 1);
    assert_eq!(metrics.reload_failures_total(), 0);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_replacement_is_rejected_and_the_old_scorer_keeps_serving() {
    let path = temp_path("corrupt_reload.pfsnap");
    snapshot(25, 1.0, 0).save(&path).expect("save initial snapshot");
    let reference = render_top_k(&Scorer::load(&path).expect("load"), 5);

    let config = ServerConfig {
        reload_poll_secs: 0.05,
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let handle = serve(
        Arc::new(ServeContext::new(Scorer::load(&path).expect("load"))),
        &config,
    )
    .expect("server starts");
    let addr = handle.addr();
    assert_eq!(get_once(addr, "/top?k=5").body, reference);

    // Clobber the snapshot with garbage the strict loader must reject.
    std::fs::write(&path, b"PFSNAPgarbage-that-is-not-a-snapshot").expect("corrupt file");

    // The watcher notices, rejects, and counts the failure…
    let deadline = Instant::now() + Duration::from_secs(10);
    let metrics = handle.metrics();
    while metrics.reload_failures_total() == 0 {
        assert!(Instant::now() < deadline, "reload failure never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …without disrupting serving: the old ranking still answers,
    // byte-identically, and no successful reload was counted.
    assert_eq!(get_once(addr, "/top?k=5").body, reference);
    assert_eq!(metrics.reloads_total(), 0);

    // The rejection is visible to scrapes (the non-atomic corrupting write
    // may be polled more than once, so assert ≥ 1 rather than == 1).
    let exposition = get_once(addr, "/metrics").body;
    let failures: u64 = exposition
        .lines()
        .find_map(|l| l.strip_prefix("pipefail_reload_failures_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("counter missing from exposition: {exposition}"));
    assert!(failures >= 1, "{exposition}");

    // A subsequent *valid* replacement still goes live: rejection does not
    // wedge the watcher.
    let recovery = snapshot(25, 5.0, 1);
    let reference_recovery = render_top_k(&Scorer::new(recovery.clone()).expect("valid snapshot"), 5);
    recovery.save(&path).expect("save recovery snapshot");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reloads_total() == 0 {
        assert!(Instant::now() < deadline, "recovery reload never happened");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(get_once(addr, "/top?k=5").body, reference_recovery);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The watcher's baseline is the file `serve` started on: a replacement
/// renamed over it the moment `serve` returns — before the watcher thread
/// has necessarily run — is still reloaded.
#[test]
fn replacement_renamed_as_serve_returns_is_reloaded() {
    let path = temp_path("first_stamp.pfsnap");
    let staged = temp_path("first_stamp.staged");
    snapshot(30, 1.0, 0).save(&path).expect("save initial snapshot");
    let replacement = snapshot(30, 7.0, 1);
    let reference = render_top_k(&Scorer::new(replacement.clone()).expect("valid snapshot"), 5);
    replacement.save(&staged).expect("stage replacement");

    let config = ServerConfig {
        reload_poll_secs: 0.05,
        snapshot_path: Some(path.clone()),
        ..ServerConfig::default()
    };
    let ctx = Arc::new(ServeContext::new(Scorer::load(&path).expect("load")));
    // Keep the cores busy across `serve` and the rename, so the watcher
    // thread has likely not run yet when the file changes.
    let busy = AtomicBool::new(true);
    let (started, renamed) = std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                while busy.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let started = serve(ctx, &config);
        let renamed = std::fs::rename(&staged, &path);
        busy.store(false, Ordering::Relaxed);
        (started, renamed)
    });
    let handle = started.expect("server starts");
    renamed.expect("atomic rename");

    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reloads_total() == 0 {
        assert!(Instant::now() < deadline, "replacement never reloaded");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(get_once(handle.addr(), "/top?k=5").body, reference);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn http10_and_explicit_close_both_disable_reuse() {
    let s = scorer(10, 1.0, 0);
    let handle = serve(Arc::new(ServeContext::new(s)), &ServerConfig::default())
        .expect("server starts");
    let addr = handle.addr();

    // HTTP/1.0 without a Connection header: server must close.
    let mut conn = Conn::connect(addr);
    conn.send("GET /health HTTP/1.0\r\nHost: x\r\n\r\n");
    let response = conn.read_response();
    assert_eq!(response.status, 200);
    response.assert_connection("close");
    conn.assert_eof();

    // Malformed framing gets a typed 4xx and a close, not a hang or panic.
    let mut conn = Conn::connect(addr);
    conn.send("GET /health HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
    let response = conn.read_response();
    assert_eq!(response.status, 400);
    response.assert_connection("close");
    conn.assert_eof();
    handle.shutdown();
}
