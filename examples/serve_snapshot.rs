//! The full serving pipeline in one program: fit a DPMHBP model, freeze it
//! to a snapshot file, start the HTTP scoring server on an ephemeral port,
//! query it over ONE keep-alive connection as a production client would,
//! hot-swap the snapshot on disk while the server is live, and shut down
//! gracefully.
//!
//! ```text
//! cargo run --release --example serve_snapshot
//! ```
//!
//! In production the fit and the serve run on different machines — the
//! snapshot file is the only thing that crosses the boundary, and the
//! hot-reload watcher is how a nightly re-fit goes live with zero downtime
//! (see docs/SERVING.md).

use pipefail::prelude::*;
use pipefail::serve::Counter;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A keep-alive client: one TCP connection, many requests. Responses are
/// split on their `Content-Length` framing — the same contract the
/// server's own test battery enforces byte-for-byte.
struct KeepAliveClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to server");
        Self { stream, buf: Vec::new() }
    }

    fn get(&mut self, path: &str) -> String {
        write!(
            self.stream,
            "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n"
        )
        .expect("send request");
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "server closed the kept-alive connection");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let content_length: usize = head
            .split("\r\n")
            .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length")))
            .map(|(_, v)| v.trim().parse().expect("integer Content-Length"))
            .expect("Content-Length header");
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            let n = self.stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "server closed mid-body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).into_owned();
        self.buf.drain(..total);
        body
    }
}

fn main() {
    // 1. Fit: train DPMHBP on 1998-2008 failures of a small synthetic region.
    let world = WorldConfig::paper().scaled(0.03).only_region("Region A").build(7);
    let region = &world.regions()[0];
    let split = TrainTestSplit::paper_protocol();
    let mut model = Dpmhbp::new(DpmhbpConfig::fast());
    let ranking = model.fit_rank(region, &split, 7).expect("fit");
    println!("fitted {} on {} ({} ranked pipes)", model.name(), region.name(), ranking.len());

    // 2. Freeze: export the posterior summary + ranking to a snapshot file.
    let path = std::env::temp_dir().join("pipefail_example.pfsnap");
    let snap = Snapshot::from_fit(&model, region.name(), 7, &ranking);
    snap.save(&path).expect("save snapshot");
    println!("snapshot: {} bytes -> {}", snap.to_bytes_v2().len(), path.display());

    // 3. Serve: load the snapshot into a scorer, bind an ephemeral port,
    //    and arm the hot-reload watcher on the file the scorer came from.
    let scorer = Scorer::load(&path).expect("load snapshot");
    let ctx = Arc::new(ServeContext::new(scorer).with_dataset(region.clone()));
    let config = ServerConfig {
        reload_poll_secs: 0.1,
        ..ServerConfig::default()
    };
    let handle = pipefail::serve::serve(ctx, &config).expect("start server");
    let addr = handle.addr();
    println!("serving on http://{addr} (hot-reload polling every {}s)", config.reload_poll_secs);

    // 4. Query: every endpoint down ONE reused connection — no TCP setup
    //    cost after the first request.
    let mut client = KeepAliveClient::connect(addr);
    println!("\nGET /top?k=5\n{}", client.get("/top?k=5"));
    println!("\nGET /model\n{}", client.get("/model"));
    let svg = client.get("/riskmap.svg");
    println!("\nGET /riskmap.svg -> {} bytes of SVG", svg.len());
    println!(
        "\n{} requests on one connection, {} keep-alive reuses",
        handle.metrics().total(),
        handle.metrics().get(Counter::KeepaliveReuses)
    );

    // 5. Hot-swap: re-fit with a different seed and overwrite the snapshot
    //    file; the watcher validates and swaps it in with zero downtime.
    let mut refit = Dpmhbp::new(DpmhbpConfig::fast());
    let reranking = refit.fit_rank(region, &split, 8).expect("refit");
    Snapshot::from_fit(&refit, region.name(), 8, &reranking).save(&path).expect("overwrite");
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().reloads_total() == 0 {
        assert!(Instant::now() < deadline, "hot reload never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    // The same kept-alive connection now answers from the new model
    // (seed 8 in the metadata) without ever having been dropped.
    println!("\nafter hot reload, GET /model\n{}", client.get("/model"));
    println!("\nGET /metrics\n{}", client.get("/metrics"));

    // 6. Shut down: joins the accept thread, watcher, and every worker.
    handle.shutdown();
    println!("server stopped");
    std::fs::remove_file(&path).ok();
}
