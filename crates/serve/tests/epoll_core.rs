//! Epoll-core battery: what the event-driven connection core answers must
//! not depend on how the client's bytes are scheduled.
//!
//! The proptest writes a pipelined request stream to a live server under
//! arbitrary partial-write schedules (chunk sizes down to one byte, with
//! pauses) and reads the response stream back under arbitrary
//! partial-read schedules, then sends the same stream to the same server
//! in one write and reads it to EOF. The two byte streams must be
//! **identical to the last byte**: same status lines, same headers, same
//! framing, same close behaviour. Deterministic companions pin the exact
//! typed-error bytes for broken framing and the admission-control
//! protocol: at the connection cap the longest-idle keep-alive connection
//! is shed first (quiet close, counted), and only when nothing is
//! sheddable does a new client get `429` + `Retry-After` + close.
//!
//! The serving threads share one epoll instance, so three more companions
//! pin what sharing must not break: a stalled handler holds only its own
//! thread, `shutdown()` wakes every thread promptly, and the open-connection
//! gauge returns to zero however (and by whom) connections are closed. A
//! last one holds 1,024 connections open and answers a request on every
//! one of them, all in flight at once.
#![cfg(target_os = "linux")]

mod common;

use common::faultproxy::{Fault, FaultProxy};
use common::Conn;
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::Snapshot;
use pipefail_network::ids::PipeId;
use pipefail_serve::http::render_pipe_risk;
use pipefail_serve::{
    serve, serve_federated, Counter, FedConfig, Federation, Scorer, ServeContext, ServerConfig,
    ServerHandle,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// 1000 pipes with strictly decreasing scores — big enough that
/// `/top?k=1000` yields a multi-kilobyte body (so server-side writes can
/// go partial), small and deterministic.
fn scorer() -> Scorer {
    ranked(1000)
}

/// `n` pipes with strictly decreasing scores: pipe `i` has rank `i`.
fn ranked(n: u32) -> Scorer {
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / f64::from(n) })
            .collect(),
    );
    Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking)).expect("valid snapshot")
}

fn start(max_connections: usize) -> ServerHandle {
    serve(
        Arc::new(ServeContext::new(scorer())),
        &ServerConfig { max_connections, ..ServerConfig::default() },
    )
    .expect("server start")
}

/// The request repertoire the schedule proptest samples from. `/metrics`
/// is deliberately absent: its body changes with every request served.
const REQUESTS: &[(&str, &str, &str)] = &[
    ("GET", "/health", ""),
    ("GET", "/top?k=3", ""),
    ("GET", "/top?k=1000", ""),
    ("GET", "/top?k=0", ""),
    ("GET", "/pipe?id=5", ""),
    ("GET", "/pipe?id=4294967295", ""),
    ("GET", "/model", ""),
    ("GET", "/healthz", ""),
    ("GET", "/no/such/route", ""),
    ("DELETE", "/top", ""),
    ("POST", "/batch", "top 3\npipe 7\npipe 999"),
    ("POST", "/batch", "frobnicate 7"),
];

fn render_request(idx: usize, keep_alive: bool) -> String {
    let (method, path, body) = REQUESTS[idx];
    let conn = if keep_alive { "keep-alive" } else { "close" };
    if body.is_empty() {
        format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\n\r\n")
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
            body.len()
        )
    }
}

/// The whole pipelined stream: every request keep-alive except the last,
/// which says `Connection: close` so the server terminates the stream
/// and the client can read to EOF.
fn render_stream(indices: &[usize]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, &r) in indices.iter().enumerate() {
        out.extend_from_slice(render_request(r, i + 1 < indices.len()).as_bytes());
    }
    out
}

/// Write `stream` in the given chunk schedule (cycled, with short pauses
/// so the server really sees fragmented reads), then drain the response
/// stream to EOF in the read-chunk schedule.
fn exchange(addr: SocketAddr, stream: &[u8], write_chunks: &[usize], read_chunks: &[usize]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut sent = 0;
    for (i, &chunk) in write_chunks.iter().cycle().enumerate() {
        if sent >= stream.len() {
            break;
        }
        let end = (sent + chunk).min(stream.len());
        conn.write_all(&stream[sent..end]).expect("send chunk");
        sent = end;
        // Pause every few chunks so fragments hit the server as separate
        // reads instead of coalescing in the loopback buffer.
        if i % 4 == 3 {
            sleep(Duration::from_micros(300));
        }
    }
    let mut out = Vec::new();
    let mut buf = vec![0u8; *read_chunks.iter().max().unwrap_or(&1)];
    for &chunk in read_chunks.iter().cycle() {
        match conn.read(&mut buf[..chunk]) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) => panic!("read response stream: {e}"),
        }
    }
    out
}

/// One server shared by every proptest case (leaked for the test binary's
/// lifetime — starting a server per case would dominate the property's
/// runtime).
static SERVER_ADDR: OnceLock<SocketAddr> = OnceLock::new();

fn server_addr() -> SocketAddr {
    *SERVER_ADDR.get_or_init(|| {
        let server = start(0);
        let addr = server.addr();
        std::mem::forget(server);
        addr
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: for any request sequence and any
    /// client-side fragmentation schedule, the server answers with the
    /// **same byte stream** it gives the stream written in one call.
    #[test]
    fn fragmented_exchanges_match_one_shot_writes_under_arbitrary_schedules(
        indices in proptest::collection::vec(0usize..REQUESTS.len(), 1..6),
        write_chunks in proptest::collection::vec(1usize..98, 1..24),
        read_chunks in proptest::collection::vec(1usize..1025, 1..8),
    ) {
        let addr = server_addr();
        let stream = render_stream(&indices);
        let fragmented = exchange(addr, &stream, &write_chunks, &read_chunks);
        let one_shot = exchange(addr, &stream, &[stream.len()], &[64 * 1024]);
        prop_assert_eq!(
            String::from_utf8_lossy(&fragmented),
            String::from_utf8_lossy(&one_shot)
        );
    }
}

/// A malformed request draws one exact typed `400` and a close: broken
/// framing means the rest of the byte stream cannot be trusted to align
/// with another request. (`exchange` reads to EOF, so the close is part
/// of the assertion.)
#[test]
fn parse_errors_answer_exact_typed_bytes_and_close() {
    let server = start(0);
    let garbage = b"GET /health HTTP/9.9\r\nHost: t\r\n\r\n";
    let body = r#"{"error":"bad request line: \"GET /health HTTP/9.9\""}"#;
    let expected = format!(
        "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let out = exchange(server.addr(), garbage, &[1], &[7]);
    assert_eq!(String::from_utf8_lossy(&out), expected);
    server.shutdown();
}

/// Byte-at-a-time writes against the epoll core: the slowest possible
/// client still gets exactly framed pipelined responses (deterministic
/// companion to the proptest, easier to debug when it fails).
#[test]
fn epoll_core_serves_byte_at_a_time_writes() {
    let server = start(0);
    let stream = render_stream(&[0, 1, 4, 6]);
    let out = exchange(server.addr(), &stream, &[1], &[1]);
    let text = String::from_utf8_lossy(&out);
    assert_eq!(text.matches("HTTP/1.1 200 OK").count(), 4, "{text}");
    assert!(text.ends_with('}'), "stream should end exactly at the last body: {text:?}");
    server.shutdown();
}

/// At the connection cap the longest-idle keep-alive connection is shed
/// (quiet close, `Counter::ConnectionsShed` counted, the open-connection
/// gauge tracking it) so the newcomer gets service — idle clients lose a
/// socket they weren't using, live clients lose nothing.
#[test]
fn cap_sheds_longest_idle_connection_for_newcomer() {
    let server = start(2);
    let addr = server.addr();

    let mut first = Conn::connect(addr);
    assert_eq!(first.get("/health").status, 200);
    sleep(Duration::from_millis(30)); // make first strictly the longest-idle
    let mut second = Conn::connect(addr);
    assert_eq!(second.get("/health").status, 200);

    // Third connection: over the cap of 2, sheds `first` (longest idle).
    let mut third = Conn::connect(addr);
    assert_eq!(third.get("/top?k=1").status, 200);

    let metrics = server.metrics();
    assert_eq!(metrics.get(Counter::ConnectionsShed), 1);
    assert_eq!(metrics.get(Counter::AdmissionRejected), 0);
    // The gauge counted the shed connection out and the newcomer in.
    assert_eq!(metrics.get(Counter::ConnectionsOpen), 2);
    assert_eq!(metrics.total(), 3);

    // The shed connection sees a quiet close: EOF, not an error response.
    first.assert_eof();

    // The surviving keep-alive connection still serves.
    assert_eq!(second.get("/health").status, 200);
    server.shutdown();
}

/// When every connection is mid-request (nothing sheddable), admission
/// control answers the newcomer with `429` + `Retry-After` + close
/// instead of silently starving the accept queue.
#[test]
fn cap_answers_429_when_nothing_is_sheddable() {
    let server = start(1);
    let addr = server.addr();

    // Occupy the only slot with a connection stuck *mid-request*: it has
    // sent half a request line, so it is not sheddable.
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    busy.write_all(b"GET /top").expect("partial request");
    // Let the event loop read the fragment and start the request clock.
    sleep(Duration::from_millis(100));

    let mut rejected = Conn::connect(addr);
    rejected.send(&common::get_request("/health", true));
    let response = rejected.read_response();
    assert_eq!(response.status, 429);
    assert_eq!(response.header("retry-after"), Some("1"));
    response.assert_connection("close");
    rejected.assert_eof();

    let metrics = server.metrics();
    assert_eq!(metrics.get(Counter::AdmissionRejected), 1);
    assert_eq!(metrics.get(Counter::ConnectionsShed), 0);
    server.shutdown();
}

/// A handler stalled on a dark backend holds one serving thread, not the
/// connection core: with two threads, `/health` on another connection is
/// answered at once while the relay waits out its deadline.
#[test]
fn stalled_handler_holds_one_serving_thread_only() {
    let backend = start(0);
    let proxy = FaultProxy::start(backend.addr());
    proxy.set_fault(Fault::Blackhole);
    let fed = Federation::new(
        vec![("region_a".to_string(), proxy.addr().to_string())],
        FedConfig {
            request_timeout_secs: 0.5,
            retries: 0,
            hedge_ms: Some(0),
            // Never `Down`: a `Down` backend short-circuits instead of
            // stalling.
            fail_threshold: u32::MAX,
            ..FedConfig::default()
        },
    )
    .expect("federation builds");
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let front = serve_federated(Arc::new(fed), &config).expect("front end starts");

    for round in 0..3 {
        // Back to back, so both requests tend to be ready at once: a thread
        // that took them in one batch would answer `/health` only after
        // the stall.
        let mut relay = Conn::connect(front.addr());
        relay.send(&common::get_request("/pipe?region=region_a&id=5", true));
        let started = Instant::now();
        let health = Conn::connect(front.addr()).get("/health");
        let waited = started.elapsed();
        assert_eq!(health.status, 200, "round {round}");
        assert!(
            waited < Duration::from_millis(250),
            "round {round}: /health waited {waited:?} behind a stalled relay"
        );
        assert_eq!(relay.read_response().status, 504, "round {round}");
    }
    front.shutdown();
}

/// `shutdown()` wakes every serving thread, not just one: a thread left
/// asleep would hold the join until its `epoll_wait` timeout (up to 1 s).
#[test]
fn shutdown_wakes_every_serving_thread() {
    for cycle in 0..20 {
        let server = serve(
            Arc::new(ServeContext::new(scorer())),
            &ServerConfig { workers: 4, ..ServerConfig::default() },
        )
        .expect("server start");
        let _idle: Vec<Conn> = (0..3)
            .map(|_| {
                let mut conn = Conn::connect(server.addr());
                assert_eq!(conn.get("/health").status, 200);
                conn
            })
            .collect();
        let started = Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "cycle {cycle}: shutdown took {took:?}");
    }
}

/// One client ending its connection one way (`kind`); returns the socket,
/// still open, when the server is the one that must close it.
fn closing_client(addr: SocketAddr, kind: usize) -> Option<TcpStream> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    let keep_alive = common::get_request("/health", true);
    match kind {
        // Client close after its answer (or after a `429`, or a shed).
        0 => {
            stream.write_all(keep_alive.as_bytes()).ok()?;
            let _ = stream.read(&mut [0u8; 512]);
            None
        }
        // Idle after its answer: swept, or shed at the cap.
        1 | 2 => {
            stream.write_all(keep_alive.as_bytes()).ok()?;
            Some(stream)
        }
        // Stalled mid-request: answered `408`.
        3 => {
            stream.write_all(b"GET /top").ok()?;
            Some(stream)
        }
        // Connect, then vanish without a byte.
        _ => None,
    }
}

/// Serving threads, the deadline sweep and the cap shedder all close
/// connections concurrently; however a connection ends — client close,
/// idle sweep, `408`, shed at the cap, connect-then-vanish — the
/// open-connection gauge must come back to zero, while the clients the
/// server must close still hold their sockets open.
#[test]
fn open_connection_gauge_returns_to_zero_under_concurrent_closers() {
    let server = serve(
        Arc::new(ServeContext::new(scorer())),
        &ServerConfig {
            max_connections: 8,
            idle_timeout_secs: 0.2,
            request_timeout_secs: 0.3,
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let clients: Vec<_> = (0..48)
        .map(|i| std::thread::spawn(move || closing_client(addr, i % 5)))
        .collect();
    let held: Vec<TcpStream> = clients
        .into_iter()
        .filter_map(|client| client.join().expect("client thread"))
        .collect();
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.get(Counter::ConnectionsOpen) != 0 && Instant::now() < deadline {
        sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.get(Counter::ConnectionsOpen), 0, "open-connection gauge leaked");
    drop(held);
    server.shutdown();
}

/// The default configuration holds 1,024 open connections and answers
/// every request on each. One test thread opens them all and holds them;
/// each round writes one request on every connection before reading any
/// answer, so all 1,024 requests are in flight at once. Every request asks
/// for a different pipe, so an answer delivered to the wrong connection
/// fails on its body. Each connection takes two descriptors in this
/// process, its client end and its server end, so the test needs an
/// open-file limit of about 2,100.
#[test]
fn holds_1024_connections_and_answers_every_request() {
    const CLIENTS: u32 = 1024;
    const ROUNDS: u32 = 2;
    let ctx = Arc::new(ServeContext::new(ranked(CLIENTS * ROUNDS)));
    let server = serve(Arc::clone(&ctx), &ServerConfig::default()).expect("server start");
    let mut clients: Vec<Conn> = (0..CLIENTS).map(|_| Conn::connect(server.addr())).collect();
    for round in 0..ROUNDS {
        let id = |i: u32| round * CLIENTS + i;
        for (i, conn) in (0..).zip(clients.iter_mut()) {
            conn.send(&common::get_request(&format!("/pipe?id={}", id(i)), true));
        }
        for (i, conn) in (0..).zip(clients.iter_mut()) {
            let expected = render_pipe_risk(&ctx.scorer().risk_of(PipeId(id(i))).expect("ranked"));
            let response = conn.read_response();
            assert_eq!(
                (response.status, response.body),
                (200, expected),
                "round {round}, connection {i}"
            );
        }
    }
    assert_eq!(server.metrics().get(Counter::ConnectionsOpen), clients.len() as u64);
    server.shutdown();
}
