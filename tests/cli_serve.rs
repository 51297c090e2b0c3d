//! End to end: `pipefail serve` as a child process, over snapshots written
//! with the library.
//!
//! * one `--snapshot` serves the file's ranking, keeps it through a
//!   corrupt replacement (counted on `/metrics`), and hot-reloads a valid
//!   one;
//! * two `--snapshot` flags serve one shard per region: region-less
//!   `/pipe` is refused, region-tagged `/top` answers.

use pipefail::core::model::RiskScore;
use pipefail::prelude::*;
use pipefail::serve::http::render_top_k;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A `pipefail serve` child, killed when dropped — on a failed assert too —
/// so no server outlives its test.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Every stdout line up to and including `serving on http://…`.
    banner: Vec<String>,
    addr: String,
}

impl Server {
    fn start(args: &[&str], reload_secs: Option<&str>) -> Self {
        let mut command = Command::new(env!("CARGO_BIN_EXE_pipefail"));
        command
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .env_remove("PIPEFAIL_HTTP_RELOAD_SECS")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(secs) = reload_secs {
            command.env("PIPEFAIL_HTTP_RELOAD_SECS", secs);
        }
        let mut child = command.spawn().expect("spawn pipefail serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdout,
            banner: Vec::new(),
            addr: String::new(),
        };
        loop {
            let mut line = String::new();
            if server.stdout.read_line(&mut line).expect("read stdout") == 0 {
                let stderr = server.stderr();
                panic!(
                    "server exited before serving: {:?}\n{stderr}",
                    server.banner
                );
            }
            let line = line.trim_end().to_string();
            if let Some(addr) = line.strip_prefix("serving on http://") {
                server.addr = addr
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                server.banner.push(line);
                return server;
            }
            server.banner.push(line);
        }
    }

    /// One `Connection: close` GET: (status, body).
    fn get(&self, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let (head, body) = raw.split_once("\r\n\r\n").expect("response head");
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {head}"));
        (status, body.to_string())
    }

    /// Poll `path` until its 200 body satisfies `done`, for up to 10 s.
    fn wait_for(&self, path: &str, what: &str, done: impl Fn(&str) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = self.get(path);
            if status == 200 && done(&body) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "{what} never happened; {path}: {status} {body}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stop the server and return everything it wrote to stderr.
    fn stderr(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut err = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut err);
        }
        err
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

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

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pipefail_cli_serve_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn top(path: &Path, k: usize) -> String {
    render_top_k(&Scorer::load(path).expect("load snapshot"), k)
}

#[test]
fn one_snapshot_serves_keeps_its_model_through_a_corrupt_publish_and_reloads() {
    let dir = temp_dir("one");
    let path = dir.join("region_a.pfsnap");
    let staged = dir.join("region_a.staged");
    snapshot("Region A", 30, 1.0)
        .save(&path)
        .expect("save snapshot");
    let original = top(&path, 3);

    let path_arg = path.to_str().expect("utf-8 temp path");
    let mut server = Server::start(&["--snapshot", path_arg], Some("0.05"));
    let armed = "hot-reload armed: polling 1 snapshot file(s)";
    assert!(
        server.banner.iter().any(|l| l.starts_with(armed)),
        "{:?}",
        server.banner
    );
    assert_eq!(server.get("/top?k=3"), (200, original.clone()));

    // A corrupt publish is rejected and counted; the old ranking serves on.
    std::fs::write(&staged, b"PFSNAPgarbage-that-is-not-a-snapshot").expect("stage corrupt");
    std::fs::rename(&staged, &path).expect("rename corrupt");
    server.wait_for("/metrics", "the reload failure", |body| {
        body.lines()
            .any(|l| l == "pipefail_reload_failures_total 1")
    });
    assert_eq!(server.get("/top?k=3"), (200, original.clone()));

    // A valid publish goes live.
    let replacement = snapshot("Region A", 30, 5.0);
    let reloaded = render_top_k(
        &Scorer::new(replacement.clone()).expect("valid snapshot"),
        3,
    );
    assert_ne!(reloaded, original, "the reload must be observable");
    replacement.save(&staged).expect("stage replacement");
    std::fs::rename(&staged, &path).expect("rename replacement");
    server.wait_for("/top?k=3", "the reload", |body| body == reloaded);

    let stderr = server.stderr();
    assert!(stderr.contains("keeping previous scorer"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_snapshots_serve_one_shard_per_region() {
    let dir = temp_dir("two");
    let path_a = dir.join("a.pfsnap");
    let path_b = dir.join("b.pfsnap");
    snapshot("Region A", 20, 1.0).save(&path_a).expect("save A");
    snapshot("Region B", 20, 2.0).save(&path_b).expect("save B");

    let args = [
        "--snapshot",
        path_a.to_str().expect("utf-8 temp path"),
        "--snapshot",
        path_b.to_str().expect("utf-8 temp path"),
    ];
    let server = Server::start(&args, None);
    for key in ["region_a", "region_b"] {
        assert!(
            server
                .banner
                .iter()
                .any(|l| l.ends_with(&format!("[region={key}]"))),
            "{:?}",
            server.banner
        );
    }
    let (status, body) = server.get("/pipe?id=0");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        server.get("/top?region=region_b&k=2"),
        (200, top(&path_b, 2))
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
