//! Serving-layer bench: the two timing gates the end-to-end benchmark
//! cannot express.
//!
//! The `serve/cache/*` entries come from [`bench_cache`]: the epoch-keyed
//! result cache's hit against the uncached scan on a 100k-pipe
//! `/aggregate`, plus the single-flight coalesced path. Its greppable
//! `CACHEBENCH` stdout line carries a CI gate: a hit must stay at least 5×
//! faster than the scan.
//!
//! The `serve/mmap/{cold_start,reload}/*` and `serve/heap/cold_start/*`
//! entries come from the snapshot-loading harness (see [`mmap_load`]):
//! the zero-copy v2 mmap loader vs the v1 load (parse, re-encode as v2
//! into an owned buffer, validate) across a size sweep, plus the
//! watcher-shaped load-and-swap reload. Its `MMAPLOAD` line carries the
//! other gate: the v2 cold start must be no slower than the v1 load.
//!
//! Serving CPU, memory and latency are measured by perfbench's `lookup`,
//! `analytics` and `federated` workloads (`BENCHMARK.json`); older
//! `serve/*` and `scorer/*` ids in `BENCH_perf.json` are frozen history.
//!
//! A custom `main` appends every measurement to the `BENCH_perf.json`
//! trajectory.

use criterion::{black_box, criterion_group, Criterion};
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{attributes_section, Snapshot};
use pipefail_network::ids::PipeId;
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const QUERIES: usize = 100;
/// Pipes behind the result-cache entries.
const TOTAL_PIPES: u32 = 100_000;

/// The bench snapshot: `n` pipes with strictly descending scores and
/// synthetic per-pipe attributes in score order — all 9 materials and 12
/// decades — so it can answer `/aggregate` (shared by the cache bench and
/// the mmap cold-start/reload harness).
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
    snap.push_section(attributes_section(
        (0..n).map(|i| 50.0 + f64::from(i % 200)).collect(),
        (0..n).map(|i| f64::from(i % 9)).collect(),
        (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
    ));
    snap
}

fn scorer(n: u32) -> Scorer {
    Scorer::new(bench_snapshot(n)).expect("valid snapshot")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream
}

/// Serialized `POST` of `body` to `path`; `keep_alive` picks the
/// `Connection` header.
fn post_request(path: &str, body: &str, keep_alive: bool) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// Read exactly one `Content-Length`-framed response off the stream and
/// return its body length. Anything but a `200` panics: a silent 4xx/5xx
/// would turn an entry into an error-path measurement.
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
    assert!(head.starts_with("HTTP/1.1 200 "), "bench request failed: {head}");
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

/// One fresh connection: send `request`, read its one response.
fn once(addr: SocketAddr, request: &str) -> usize {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send");
    read_response(&mut stream, &mut Vec::new())
}

/// One keep-alive connection, `QUERIES` round trips of `request`.
fn round(addr: SocketAddr, request: &str) -> usize {
    let mut stream = connect(addr);
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..QUERIES {
        stream.write_all(request.as_bytes()).expect("send");
        bytes += read_response(&mut stream, &mut buf);
    }
    bytes
}

/// The epoch-keyed result cache on a 100k-pipe `/aggregate` (group by
/// material × decade; count, summed length, average risk): a cached hit
/// (pooled-buffer replay of the rendered body) vs the uncached full-table
/// scan, plus the single-flight coalesced path (8 identical concurrent
/// misses, one compute). Prints one greppable
/// `CACHEBENCH pipes=… hit_ns=… miss_ns=…` stdout line; the CI gate
/// asserts `hit_ns * 5 <= miss_ns`.
fn bench_cache(c: &mut Criterion) {
    const SPEC: &str = "{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{\"op\":\"count\"},{\"op\":\"sum\",\"field\":\"length_m\"},{\"op\":\"avg\",\"field\":\"risk\"}]}";
    const TOP: &str = "GET /top?k=10 HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n";
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
    let probe = post_request("/aggregate", SPEC, false);
    once(warm.addr(), &probe);
    once(cold.addr(), &probe);
    let aggregate = post_request("/aggregate", SPEC, true);

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    g.bench_function(format!("cache/hit/aggregate_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(round(warm.addr(), &aggregate)))
    });
    g.bench_function(format!("cache/miss/aggregate_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(round(cold.addr(), &aggregate)))
    });
    g.bench_function(format!("cache/hit/global_topk_100k/{QUERIES}_queries"), |b| {
        b.iter(|| black_box(round(warm.addr(), TOP)))
    });
    // Coalesced: every iteration invents a fresh key (the budget value
    // varies) and hammers it with 8 identical concurrent requests — one
    // leads the compute, seven wait on the flight and replay its bytes.
    let mut fresh_key = 0u64;
    g.bench_function("cache/coalesced/aggregate_100k/8_clients", |b| {
        b.iter(|| {
            fresh_key += 1;
            let spec = format!(
                "{{\"group_by\":[\"material\",\"decade\"],\"aggregates\":[{{\"op\":\"count\"}},{{\"op\":\"sum\",\"field\":\"length_m\"}}],\"budget\":{{\"length_m\":{}}}}}",
                100_000_000 + fresh_key
            );
            let request = post_request("/aggregate", &spec, false);
            let addr = warm.addr();
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..8).map(|_| s.spawn(|| once(addr, &request))).collect();
                let bytes: usize = clients.into_iter().map(|h| h.join().expect("client")).sum();
                black_box(bytes)
            })
        })
    });
    g.finish();

    // The greppable gate line: median single-request latency, hit vs miss,
    // measured outside criterion so smoke mode still produces real medians.
    let median_ns = |addr: SocketAddr| -> u64 {
        let mut stream = connect(addr);
        let mut buf = Vec::new();
        let mut samples: Vec<u64> = (0..31)
            .map(|_| {
                let t = std::time::Instant::now();
                stream.write_all(aggregate.as_bytes()).expect("send");
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

criterion_group!(benches, bench_cache);

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
    benches();
    let mut records = criterion::take_records();
    records.extend(mmap_load::run());
    let snap = pipefail_bench::perf::snapshot("serve_bench", records);
    match pipefail_bench::perf::append_to_trajectory(&snap) {
        Ok(path) => println!("[appended trajectory entry to {}]", path.display()),
        Err(e) => eprintln!("cannot write bench trajectory: {e}"),
    }
}
