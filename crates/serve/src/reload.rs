//! Snapshot hot-reload: an mtime-polling watcher that swaps shard scorers.
//!
//! Long-horizon deployments re-fit models as new failure records arrive; a
//! serving process must absorb the refreshed snapshots without a restart or
//! a pause. One watcher thread owns a **per-shard** change stamp (mtime,
//! length, and — on Unix — inode) and polls every watched snapshot file
//! every [`ServerConfig::reload_poll_secs`] seconds; on change it re-runs
//! the *strict* `pipefail_core::snapshot` loader for just the shards that
//! changed and — only on a clean load — swaps that shard's [`Scorer`]
//! behind its `RwLock<Arc<..>>`. One region's refresh never blocks or
//! invalidates the others: in-flight requests keep the `Arc` they already
//! cloned, sibling shards are untouched, and each shard's stamp advances
//! independently. Every swap (and degrade/heal) also bumps that shard's
//! epoch counter (`Shard::epoch` via [`crate::shards`]), which is what
//! invalidates exactly the affected entries in the result cache
//! (`crate::cache`) — reload correctness and cache correctness are the
//! same atomic event, not two clocks to keep in sync.
//!
//! A corrupt or truncated replacement is rejected with a typed error,
//! logged, and counted in `pipefail_reload_failures_total` (and the
//! shard's own `pipefail_shard_reload_failures` series). What happens next
//! depends on the shard set's [`ReloadPolicy`]:
//!
//! * [`ReloadPolicy::KeepLastGood`] (single-snapshot mode): the previous
//!   scorer keeps serving every request, invisibly to clients.
//! * [`ReloadPolicy::Degrade`] (sharded mode): *that shard only* starts
//!   answering a typed `503` until a valid snapshot lands — a region
//!   silently pinned to last week's model while its siblings move on is
//!   the invisible failure mode sharded serving refuses. The shard heals
//!   on the next valid swap.
//!
//! ## Replace snapshots by atomic rename
//!
//! Publish a new snapshot by writing to a temporary file in the same
//! directory and `rename(2)`-ing it over the watched path. The stamp is
//! metadata, not content: an *in-place* rewrite that keeps the byte length
//! and lands within the filesystem's mtime granularity (a full second on
//! some filesystems) is undetectable, and a stamp taken mid-write can make
//! the watcher treat the half-written file as the settled version. A
//! rename is atomic (the watcher only ever sees the old or the complete
//! new file) and always changes the inode, so it is detected regardless of
//! mtime resolution. The strict loader makes a non-atomic copy merely
//! *delayed* (rejected, retried on the next stamp change) rather than
//! wrong — but rename makes it exact.
//!
//! The rename protocol is also what makes **memory-mapped** (v2) snapshot
//! reloads safe without any extra coordination here: the watcher calls the
//! same [`Scorer::load`], which maps the *new* inode; the old scorer's
//! mapping belongs to the old inode, whose pages stay valid until the last
//! in-flight request drops its `Arc<Scorer>` — at which point the mapping
//! is unmapped. Nothing ever rewrites a mapped file in place, so a served
//! request can never observe a torn snapshot (or fault on a truncated
//! one).
//!
//! [`ServerConfig::reload_poll_secs`]: crate::http::ServerConfig
//! [`ReloadPolicy`]: crate::shards::ReloadPolicy
//! [`ReloadPolicy::KeepLastGood`]: crate::shards::ReloadPolicy::KeepLastGood
//! [`ReloadPolicy::Degrade`]: crate::shards::ReloadPolicy::Degrade

use crate::http::ServeContext;
use crate::metrics::{Counter, Metrics, ShardCounter};
use crate::scorer::Scorer;
use crate::shards::ReloadPolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime};

/// Change-detection stamp for a watched file: modification time, length,
/// and (on Unix) the inode — an atomic-rename replacement always allocates
/// a fresh inode, so it is detected even when mtime granularity and length
/// both collide. Any component changing (or the file appearing) triggers a
/// reload attempt; `None` means the file is currently absent or
/// unreadable. See the module docs: in-place same-length rewrites within
/// the mtime granularity are not detectable from metadata alone.
pub(crate) fn stamp(path: &Path) -> Option<(SystemTime, u64, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    #[cfg(unix)]
    let ino = std::os::unix::fs::MetadataExt::ino(&meta);
    #[cfg(not(unix))]
    let ino = 0u64;
    Some((meta.modified().ok()?, meta.len(), ino))
}

/// Sleep `total` in short slices so a shutdown is honored promptly.
pub(crate) fn sleep_interruptible(total: Duration, shutdown: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() && !shutdown.load(Ordering::SeqCst) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Spawn the watcher thread over every watched shard path. Each shard's
/// own snapshot path is watched; `override_path` (the legacy
/// `ServerConfig::snapshot_path`) stands in for the *first* shard when it
/// has none — exactly the single-snapshot configuration. Joined by
/// `ServerHandle::shutdown` via the shared shutdown flag.
///
/// The baseline stamps are taken here, before the thread exists: `serve`
/// returns only after this call, so any file replaced after `serve`
/// returns differs from its baseline and is reloaded (or rejected).
pub(crate) fn spawn_watcher(
    ctx: Arc<ServeContext>,
    metrics: Arc<Metrics>,
    override_path: Option<PathBuf>,
    poll: Duration,
    shutdown: Arc<AtomicBool>,
) -> JoinHandle<()> {
    // The effective watch list, parallel to the shard set: a shard
    // without a path (built in-process) is simply never reloaded.
    let paths: Vec<Option<PathBuf>> = ctx
        .shards()
        .shards()
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            shard
                .path()
                .map(Path::to_path_buf)
                .or_else(|| if i == 0 { override_path.clone() } else { None })
        })
        .collect();
    let mut last: Vec<Option<(SystemTime, u64, u64)>> = paths
        .iter()
        .map(|p| p.as_deref().and_then(stamp))
        .collect();
    std::thread::spawn(move || {
        let policy = ctx.shards().policy();
        while !shutdown.load(Ordering::SeqCst) {
            sleep_interruptible(poll, &shutdown);
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            for (idx, path) in paths.iter().enumerate() {
                let Some(path) = path.as_deref() else { continue };
                let current = stamp(path);
                if current.is_none() || current == last[idx] {
                    continue;
                }
                last[idx] = current;
                let shard = &ctx.shards().shards()[idx];
                // Strict load first, swap only on success: requests racing
                // this reload either hold the old Arc or pick up the new
                // one whole.
                match Scorer::load(path) {
                    Ok(scorer) => {
                        let fresh = shard.swap(scorer);
                        metrics.add(Counter::Reloads, 1);
                        metrics.shard_add(idx, ShardCounter::Reloads);
                        eprintln!(
                            "pipefail-serve: reloaded snapshot {}: shard {:?} now serving {}",
                            path.display(),
                            shard.key(),
                            fresh.describe()
                        );
                    }
                    Err(e) => {
                        metrics.add(Counter::ReloadFailures, 1);
                        metrics.shard_add(idx, ShardCounter::ReloadFailures);
                        match policy {
                            ReloadPolicy::KeepLastGood => eprintln!(
                                "pipefail-serve: rejected snapshot {}: {e}; keeping previous scorer",
                                path.display()
                            ),
                            ReloadPolicy::Degrade => {
                                shard.degrade(e.to_string());
                                eprintln!(
                                    "pipefail-serve: rejected snapshot {}: {e}; shard {:?} degraded until a valid snapshot lands",
                                    path.display(),
                                    shard.key()
                                );
                            }
                        }
                    }
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_tracks_mtime_and_len() {
        let dir = std::env::temp_dir().join(format!("pipefail_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watched");
        assert_eq!(stamp(&path), None);
        std::fs::write(&path, b"one").unwrap();
        let first = stamp(&path).expect("file exists");
        assert_eq!(first.1, 3);
        std::fs::write(&path, b"longer").unwrap();
        let second = stamp(&path).expect("file exists");
        assert_ne!(first, second);

        // The documented publish protocol: same-length replacement via
        // atomic rename is detected (fresh inode) even if mtime
        // granularity and length both collide.
        #[cfg(unix)]
        {
            let tmp = dir.join("watched.tmp");
            std::fs::write(&tmp, b"LONGER").unwrap();
            std::fs::rename(&tmp, &path).unwrap();
            let third = stamp(&path).expect("file exists");
            assert_eq!(third.1, second.1, "same byte length by construction");
            assert_ne!(second.2, third.2, "rename must change the inode");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The worst-case publish race: a replacement with the *same byte
    /// length* whose mtime is pinned to the original's (as can happen when
    /// both writes land within one filesystem timestamp granule, within a
    /// single poll tick). mtime and length are then both blind; only the
    /// inode component of the stamp sees the atomic rename.
    #[test]
    #[cfg(unix)]
    fn stamp_catches_same_mtime_same_len_rename_by_inode() {
        let dir = std::env::temp_dir().join(format!(
            "pipefail_reload_inode_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watched");
        std::fs::write(&path, b"model v1").unwrap();
        let before = stamp(&path).expect("file exists");

        // Publish a same-length v2 by rename, then force its mtime to the
        // exact mtime of v1 — simulating a replacement inside one
        // timestamp granule.
        let tmp = dir.join("watched.tmp");
        std::fs::write(&tmp, b"model v2").unwrap();
        let original_mtime = before.0;
        let f = std::fs::File::options().append(true).open(&tmp).unwrap();
        f.set_modified(original_mtime).unwrap();
        drop(f);
        std::fs::rename(&tmp, &path).unwrap();

        let after = stamp(&path).expect("file exists");
        assert_eq!(after.0, before.0, "mtime pinned equal by construction");
        assert_eq!(after.1, before.1, "length equal by construction");
        assert_ne!(after.2, before.2, "the inode must differ after rename");
        assert_ne!(after, before, "the composite stamp detects the swap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sleep_interruptible_returns_early_on_shutdown() {
        let flag = AtomicBool::new(true);
        let start = std::time::Instant::now();
        sleep_interruptible(Duration::from_secs(30), &flag);
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
