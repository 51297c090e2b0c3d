//! Remap-under-load regression battery: replacing a **memory-mapped** v2
//! snapshot by atomic rename while keep-alive clients are mid-stream must
//! lose zero requests — every poll answers `200` with one complete,
//! consistent ranking (old or new, never a blend). And the old mapping must be torn down cleanly: it stays valid
//! (inode-backed) for as long as any in-flight request can hold the old
//! scorer, then actually disappears from the address space once the last
//! `Arc<Scorer>` drops — no use-after-unmap, no mapping leak.

mod common;

use common::Conn;
use pipefail_core::model::{RiskRanking, RiskScore};
use pipefail_core::snapshot::{Snapshot, SnapshotFormat};
use pipefail_network::ids::PipeId;
use pipefail_serve::http::render_top_k;
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipefail_mmapremap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// Publish `snap` over `path` by the documented protocol: write to a
/// sibling temp file, then atomic rename.
fn publish(snap: &Snapshot, path: &PathBuf) {
    let tmp = path.with_extension("tmp");
    snap.save_as(&tmp, SnapshotFormat::V2).expect("write replacement");
    std::fs::rename(&tmp, path).expect("atomic rename");
}

/// Does `/proc/self/maps` still hold a mapping of `path` (live or
/// renamed-over, which the kernel reports with a ` (deleted)` suffix)?
fn is_mapped(path: &std::path::Path) -> bool {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let needle = path.to_str().expect("utf8 temp path");
    maps.lines().any(|l| l.contains(needle))
}

/// Three keep-alive clients poll `/top` through an atomic-rename
/// replacement of the mapped snapshot; every response must be a complete
/// old or new ranking; afterwards all clients converge on the new one.
#[test]
fn remap_under_load_loses_zero_requests() {
    let path = temp_path("swap.pfsnap");
    let snap_a = snapshot(400, 1.0, 0);
    let snap_b = snapshot(400, 9.0, 1); // different scores AND pipe order
    publish(&snap_a, &path);

    let scorer = Scorer::load(&path).expect("v2 load");
    assert!(scorer.mapped());
    let reference_a = render_top_k(&scorer, 12);
    let reference_b = render_top_k(&Scorer::new(snap_b.clone()).expect("valid snapshot"), 12);
    assert_ne!(reference_a, reference_b, "the swap must be observable");

    let config = ServerConfig {
        reload_poll_secs: 0.05,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::new(scorer)), &config).expect("server starts");
    let addr = handle.addr();

    let saw_old = Arc::new(AtomicBool::new(false));
    let saw_new = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..3)
        .map(|c| {
            let (a, b) = (reference_a.clone(), reference_b.clone());
            let (saw_old, saw_new, stop) = (saw_old.clone(), saw_new.clone(), stop.clone());
            std::thread::spawn(move || -> (u64, u64) {
                let mut conn = Conn::connect(addr);
                let (mut olds, mut news) = (0u64, 0u64);
                while !stop.load(Ordering::SeqCst) {
                    let response = conn.get("/top?k=12");
                    // Zero failed requests across the remap, on every
                    // client, on every poll.
                    assert_eq!(response.status, 200, "client {c} saw a failure");
                    if response.body == a {
                        olds += 1;
                        saw_old.store(true, Ordering::SeqCst);
                    } else if response.body == b {
                        news += 1;
                        saw_new.store(true, Ordering::SeqCst);
                    } else {
                        panic!("client {c}: blended/partial ranking served: {}", response.body);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                (olds, news)
            })
        })
        .collect();

    // Let the clients observe the old ranking, then publish the new one
    // underneath them.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !saw_old.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "old ranking never observed");
        std::thread::sleep(Duration::from_millis(5));
    }
    publish(&snap_b, &path);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !saw_new.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "new ranking never observed after rename");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let every client take a few more polls on the new mapping.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    for (c, client) in clients.into_iter().enumerate() {
        let (olds, news) = client.join().expect("client thread panicked");
        assert!(news > 0, "client {c} never reached the new ranking ({olds} old polls)");
    }

    let metrics = handle.metrics();
    assert_eq!(metrics.reload_failures_total(), 0, "no rejected reloads in a clean swap");
    assert!(metrics.reloads_total() >= 1, "the rename must have been detected");

    // Clean teardown: the watcher swapped the shard to the new mapping and
    // every client thread has joined, so nothing holds the old scorer; its
    // renamed-over (deleted-inode) mapping must leave the address space.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("maps");
        let needle = path.to_str().expect("utf8 path");
        let stale = maps
            .lines()
            .any(|l| l.contains(needle) && l.trim_end().ends_with("(deleted)"));
        if !stale {
            break;
        }
        assert!(Instant::now() < deadline, "old snapshot mapping never unmapped");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The *new* snapshot is still mapped and serving.
    assert!(is_mapped(&path), "replacement snapshot must be mapped");
    assert_eq!(handle.metrics().reload_failures_total(), 0);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// The inode-persistence property the whole reload design rests on: a
/// scorer mapped from a file keeps answering — byte-identically — after
/// the file is renamed over *and* the replacement is deleted. The old
/// pages belong to the old inode; nothing can pull them out from under a
/// live scorer.
#[test]
fn mapped_scorer_survives_rename_over_and_unlink() {
    let path = temp_path("survive.pfsnap");
    let snap = snapshot(200, 1.0, 0);
    publish(&snap, &path);
    let scorer = Scorer::load(&path).expect("v2 load");
    let before = render_top_k(&scorer, 50);

    publish(&snapshot(200, 9.0, 1), &path);
    std::fs::remove_file(&path).expect("unlink replacement");

    assert_eq!(render_top_k(&scorer, 50), before, "old mapping must be untouched");
    for &(pipe, _) in snap.scores.iter().take(25) {
        assert!(scorer.risk_of(pipe).is_some(), "point lookups must still hit");
    }
}

/// Dropping the last `Scorer` really unmaps the snapshot — the Drop side
/// of the zero-copy contract, asserted against the kernel's own map table.
#[test]
fn dropping_the_last_scorer_unmaps_the_snapshot() {
    let path = temp_path("teardown.pfsnap");
    publish(&snapshot(300, 1.0, 0), &path);
    let scorer = Scorer::load(&path).expect("v2 load");
    assert!(is_mapped(&path), "a mapped scorer must appear in /proc/self/maps");
    drop(scorer);
    assert!(!is_mapped(&path), "dropping the last scorer must munmap the snapshot");
    std::fs::remove_file(&path).ok();
}
