//! Shard-by-region serving: many per-region scorers behind one endpoint.
//!
//! The paper's method ranks pipes *per region/network* (metro water vs.
//! wastewater vs. regional bins), so a utility covering a whole metropolis
//! fits one model per region and wants all of them served from one
//! process. A [`ShardSet`] holds one [`Shard`] per region: each shard is
//! the familiar `RwLock<Arc<Scorer>>` hot-swap cell plus its own snapshot
//! path, so shards load, serve, reload, and fail independently.
//!
//! * **Loading** (`load_dir` / `load_paths`) strict-validates every
//!   snapshot **in parallel** on the caller's [`TaskPool`]; any corrupt
//!   file fails the whole startup with a typed error (a serving process
//!   never starts on bad data), reported deterministically (first failing
//!   path in input order, at any thread count).
//! * **Region-tagged queries** (`/top?region=R`, `/pipe?region=R&id=N`,
//!   `region=R`-prefixed `/batch` lines) route to one shard with zero
//!   cross-shard work — exactly the single-snapshot fast path.
//! * **Region-less `/top`** becomes a scatter-gather **global top-K**: each
//!   shard contributes its own (already sorted) top-K slice and
//!   [`merge_top_k`] k-way-merges them, so the global ranking costs
//!   O(shards · k) — the union of all shards is never materialised or
//!   re-sorted.
//! * **Hot-reload is per-shard**: one region's refresh never blocks or
//!   invalidates the others. Under [`ReloadPolicy::Degrade`] (the sharded
//!   default) a corrupt replacement marks *only that shard* unavailable
//!   (typed 503) until a valid snapshot lands, while every other region
//!   keeps serving; [`ReloadPolicy::KeepLastGood`] preserves the legacy
//!   single-snapshot behaviour of serving the previous model.
//!
//! ## Why the two reload policies differ
//!
//! A single-snapshot server has exactly one model: serving the last good
//! one through a botched publish beats serving nothing, so rejection is
//! silent-but-counted. In a sharded deployment the region's ranking is one
//! of many sibling artefacts refreshed together; a region silently pinned
//! to last week's model while its siblings move on is the *invisible*
//! failure mode, so the sharded default is to fail loudly — a typed 503
//! for that region only — until the publish is fixed. The shard heals the
//! moment a valid snapshot replaces the corrupt one.

use crate::scorer::{PipeRisk, RiskSlice, Scorer};
use crate::ServeError;
use pipefail_core::snapshot::SnapshotError;
use pipefail_par::TaskPool;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// What a shard serves after its snapshot is replaced with a corrupt file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadPolicy {
    /// Keep answering from the last good scorer (legacy single-snapshot
    /// behaviour): a bad publish is rejected, counted, and retried on the
    /// next file change, invisibly to clients.
    KeepLastGood,
    /// Mark the shard unavailable: queries for that region answer a typed
    /// `503` until a valid snapshot lands, while every other shard keeps
    /// serving (the sharded default — see the module docs for why).
    Degrade,
}

/// The canonical routing key for a region name: lowercase with spaces
/// replaced by underscores — the same convention `pipefail generate` uses
/// for dataset directory names, so `"Region A"` is addressed as
/// `?region=region_a`. Keys are plain query-string/label-safe tokens; no
/// percent-decoding is needed anywhere.
pub fn region_key(region: &str) -> String {
    region.to_lowercase().replace(' ', "_")
}

/// A shard's swap cell: the active scorer plus an optional fault. The
/// scorer is always the *last good* model (so recovery and diagnostics
/// never lose it); `fault` is `Some` only under [`ReloadPolicy::Degrade`]
/// after a corrupt replacement, and makes the shard answer 503.
#[derive(Debug)]
struct ShardState {
    scorer: Arc<Scorer>,
    fault: Option<String>,
}

/// One region's independently loaded, served, and reloaded scorer.
#[derive(Debug)]
pub struct Shard {
    key: String,
    path: Option<PathBuf>,
    state: RwLock<ShardState>,
    /// Monotonic generation of this shard's observable state. Starts at 1
    /// and is bumped by every [`Shard::swap`] *and* every
    /// [`Shard::degrade`] — any transition that can change what this shard
    /// answers. The result cache keys entries by this value, so a bump
    /// makes every cached body for the old state unreachable without any
    /// TTL or explicit flush.
    epoch: AtomicU64,
}

impl Shard {
    fn new(scorer: Scorer, path: Option<PathBuf>) -> Self {
        Self {
            key: region_key(scorer.region()),
            path,
            state: RwLock::new(ShardState {
                scorer: Arc::new(scorer),
                fault: None,
            }),
            epoch: AtomicU64::new(1),
        }
    }

    /// The routing key ([`region_key`] of the snapshot's region).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The snapshot file this shard was loaded from (watched for reload),
    /// if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The active scorer if the shard is serving, or the degradation
    /// reason if a corrupt hot-swap took it out
    /// ([`ReloadPolicy::Degrade`] only).
    pub fn serving(&self) -> Result<Arc<Scorer>, String> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        match &state.fault {
            None => Ok(Arc::clone(&state.scorer)),
            Some(reason) => Err(reason.clone()),
        }
    }

    /// The last successfully loaded scorer, whether or not the shard is
    /// currently degraded. Never fails: every shard is constructed from a
    /// valid scorer and swaps only keep valid ones.
    pub fn last_good(&self) -> Arc<Scorer> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&state.scorer)
    }

    /// The degradation reason, if the shard is currently answering 503.
    pub fn fault(&self) -> Option<String> {
        let state = self.state.read().unwrap_or_else(|p| p.into_inner());
        state.fault.clone()
    }

    /// Atomically install a freshly validated scorer, clearing any fault
    /// (a valid publish heals a degraded shard). Returns the new handle.
    ///
    /// The epoch is bumped *after* the state write unlocks: a request that
    /// raced the swap and read the old epoch can at worst write a cache
    /// entry under a key that every post-swap lookup has already moved
    /// past (the store path additionally revalidates the epoch, see
    /// `cache.rs`). Epoch keys only ever move forward.
    pub(crate) fn swap(&self, scorer: Scorer) -> Arc<Scorer> {
        let fresh = Arc::new(scorer);
        let mut state = self.state.write().unwrap_or_else(|p| p.into_inner());
        state.scorer = Arc::clone(&fresh);
        state.fault = None;
        drop(state);
        self.epoch.fetch_add(1, Ordering::SeqCst);
        fresh
    }

    /// Mark the shard unavailable ([`ReloadPolicy::Degrade`] after a
    /// corrupt replacement). The last good scorer is retained for
    /// diagnostics but no longer served. Bumps the epoch: cached bodies
    /// from the healthy state must not outlive the degradation.
    pub(crate) fn degrade(&self, reason: String) {
        let mut state = self.state.write().unwrap_or_else(|p| p.into_inner());
        state.fault = Some(reason);
        drop(state);
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The shard's current state generation (see the `epoch` field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// One entry of a scatter-gathered global ranking: which shard the pipe
/// came from (index into [`ShardSet::shards`]) and its risk with the
/// *shard-local* rank (the global rank is the entry's position in the
/// merged output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalRisk {
    /// Index of the contributing shard.
    pub shard: usize,
    /// The pipe's risk; `rank` is its rank *within its shard*.
    pub risk: PipeRisk,
}

/// An immutable set of per-region shards, sorted by routing key.
#[derive(Debug)]
pub struct ShardSet {
    /// Sorted by `key` — lookup is binary search, iteration order is
    /// deterministic, and the scatter-gather tie-break follows this order.
    shards: Vec<Shard>,
    policy: ReloadPolicy,
}

impl ShardSet {
    /// A one-shard set with legacy single-snapshot semantics
    /// ([`ReloadPolicy::KeepLastGood`]).
    pub fn single(scorer: Scorer) -> Self {
        Self {
            shards: vec![Shard::new(scorer, None)],
            policy: ReloadPolicy::KeepLastGood,
        }
    }

    /// Build a sharded set from already-loaded scorers (no watched paths).
    /// Fails on an empty list or on two scorers mapping to the same
    /// region key.
    pub fn from_scorers(scorers: Vec<Scorer>) -> Result<Self, ServeError> {
        Self::assemble(scorers.into_iter().map(|s| (s, None)).collect())
    }

    /// Load and strict-validate one snapshot per path, **in parallel** on
    /// `pool`. Any failure aborts the whole load with a typed error naming
    /// the first failing path *in input order* (deterministic at any
    /// thread count); duplicate region keys are rejected.
    pub fn load_paths(paths: &[PathBuf], pool: &TaskPool) -> Result<Self, ServeError> {
        if paths.is_empty() {
            return Err(ServeError::BadConfig("no snapshot paths to load".into()));
        }
        let loaded: Vec<Result<Scorer, SnapshotError>> =
            pool.run(paths.len(), |i| Scorer::load(&paths[i]));
        let mut shards = Vec::with_capacity(paths.len());
        for (path, result) in paths.iter().zip(loaded) {
            match result {
                Ok(scorer) => shards.push((scorer, Some(path.clone()))),
                Err(error) => {
                    return Err(ServeError::Shard {
                        path: path.display().to_string(),
                        error,
                    });
                }
            }
        }
        Self::assemble(shards)
    }

    /// Load every `*.pfsnap` file in `dir` (sorted by file name for a
    /// deterministic load order) as one shard each, in parallel on `pool`.
    pub fn load_dir(dir: &Path, pool: &TaskPool) -> Result<Self, ServeError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| ServeError::Io(format!("reading snapshot dir {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "pfsnap"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(ServeError::BadConfig(format!(
                "no *.pfsnap snapshots in {}",
                dir.display()
            )));
        }
        Self::load_paths(&paths, pool)
    }

    fn assemble(scorers: Vec<(Scorer, Option<PathBuf>)>) -> Result<Self, ServeError> {
        if scorers.is_empty() {
            return Err(ServeError::BadConfig("a shard set needs at least one shard".into()));
        }
        let mut shards: Vec<Shard> = scorers
            .into_iter()
            .map(|(scorer, path)| Shard::new(scorer, path))
            .collect();
        shards.sort_by(|a, b| a.key.cmp(&b.key));
        if let Some(w) = shards.windows(2).find(|w| w[0].key == w[1].key) {
            return Err(ServeError::BadConfig(format!(
                "two snapshots map to the same region key {:?} (regions {:?} and {:?})",
                w[0].key,
                w[0].last_good().region(),
                w[1].last_good().region(),
            )));
        }
        Ok(Self {
            shards,
            policy: ReloadPolicy::Degrade,
        })
    }

    /// Number of shards (always ≥ 1).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Never true — constructors reject empty sets — but provided for the
    /// usual container idiom.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// True when region-less `/pipe` and `/top` can route unambiguously
    /// (exactly one shard).
    pub fn is_single(&self) -> bool {
        self.shards.len() == 1
    }

    /// What a corrupt hot-swap does to a shard.
    pub fn policy(&self) -> ReloadPolicy {
        self.policy
    }

    /// The shards, sorted by routing key.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Routing keys in shard order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.shards.iter().map(|s| s.key())
    }

    /// Index of the shard serving `key` (binary search over the sorted
    /// keys), or `None` for an unknown region.
    pub fn index_of(&self, key: &str) -> Option<usize> {
        self.shards
            .binary_search_by(|s| s.key.as_str().cmp(key))
            .ok()
    }

    /// The shard serving `key`, if any.
    pub fn get(&self, key: &str) -> Option<&Shard> {
        self.index_of(key).map(|i| &self.shards[i])
    }

    /// Sum of every shard's [`Shard::epoch`] — a fleet-wide state
    /// generation. Each shard's epoch is monotonic, so the sum is too:
    /// any swap, degrade, or heal anywhere in the set changes this value
    /// and retires every cached fleet-scope artefact (global top-K merge,
    /// `/aggregate`) keyed under the previous one.
    pub fn fleet_epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch()).sum()
    }

    /// Routing keys of shards currently refusing requests (Degrade policy
    /// after a failed reload), in shard order. Empty when fully healthy —
    /// the `/healthz` answer is derived from this.
    pub fn degraded_keys(&self) -> Vec<String> {
        self.shards
            .iter()
            .filter(|s| s.serving().is_err())
            .map(|s| s.key().to_string())
            .collect()
    }

    /// Scatter-gather global top-K: every *serving* shard contributes its
    /// own top-K slice and the slices are k-way merged. Errs with the keys
    /// of degraded shards — a global ranking computed over a partial fleet
    /// would be silently wrong, so it is refused loudly instead.
    ///
    /// The merged prefix is byte-identical to the top-K of one monolithic
    /// snapshot holding the same pipes (shard-order concatenation, stable
    /// descending sort) — ties break to the lower shard index, then the
    /// lower shard-local rank, exactly like `RiskRanking::new`'s stable
    /// sort. Property-tested in `tests/sharded_serving.rs`.
    pub fn global_top_k(&self, k: usize) -> Result<Vec<GlobalRisk>, Vec<String>> {
        let mut tops: Vec<Arc<Scorer>> = Vec::with_capacity(self.shards.len());
        let mut degraded = Vec::new();
        for shard in &self.shards {
            match shard.serving() {
                Ok(scorer) => tops.push(scorer),
                Err(_) => degraded.push(shard.key.clone()),
            }
        }
        if !degraded.is_empty() {
            return Err(degraded);
        }
        let tables: Vec<RiskSlice<'_>> = tops.iter().map(|s| s.top_k(k)).collect();
        Ok(merge_top_k(&tables, k))
    }
}

/// Bounded k-way merge of per-shard descending rankings: pick the best
/// head among the tables `k` times. Ties break to the lowest table index,
/// which makes the output identical to a stable descending sort of the
/// tables' concatenation — without ever materialising or re-sorting that
/// union. Cost is O(tables · k) comparisons; each table only ever
/// contributes its own first `k` entries.
///
/// # Examples
///
/// Two shards' descending rankings merge into one global top-3; the tie
/// at `0.5` breaks to the lower table index:
///
/// ```
/// use pipefail_network::ids::PipeId;
/// use pipefail_serve::{merge_top_k, PipeRisk};
///
/// let a = [
///     PipeRisk { pipe: PipeId(0), score: 0.9, rank: 0 },
///     PipeRisk { pipe: PipeId(1), score: 0.5, rank: 1 },
/// ];
/// let b = [PipeRisk { pipe: PipeId(7), score: 0.5, rank: 0 }];
/// let merged = merge_top_k(&[a[..].into(), b[..].into()], 3);
/// let order: Vec<(usize, u32)> =
///     merged.iter().map(|g| (g.shard, g.risk.pipe.0)).collect();
/// assert_eq!(order, vec![(0, 0), (0, 1), (1, 7)]);
/// ```
pub fn merge_top_k(tables: &[RiskSlice<'_>], k: usize) -> Vec<GlobalRisk> {
    let total: usize = tables.iter().map(|t| t.len()).sum();
    let mut heads = vec![0usize; tables.len()];
    let mut out = Vec::with_capacity(k.min(total));
    while out.len() < k {
        let mut best: Option<usize> = None;
        for (s, table) in tables.iter().enumerate() {
            let Some(candidate) = table.get(heads[s]) else { continue };
            // Strict `>` keeps the earliest table on ties — the stable-sort
            // order of the concatenated union.
            let beats = match best {
                None => true,
                Some(b) => candidate.score > tables[b].at(heads[b]).score,
            };
            if beats {
                best = Some(s);
            }
        }
        let Some(s) = best else { break };
        out.push(GlobalRisk { shard: s, risk: tables[s].at(heads[s]) });
        heads[s] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::Snapshot;
    use pipefail_network::ids::PipeId;

    fn scorer(region: &str, scores: &[(u32, f64)]) -> Scorer {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .map(|&(pipe, score)| RiskScore { pipe: PipeId(pipe), score })
                .collect(),
        );
        Scorer::new(Snapshot::new("DPMHBP", region, 7, &ranking)).expect("valid snapshot")
    }

    #[test]
    fn region_key_is_lowercase_underscored() {
        assert_eq!(region_key("Region A"), "region_a");
        assert_eq!(region_key("Metro Water North"), "metro_water_north");
        assert_eq!(region_key("already_ok"), "already_ok");
    }

    #[test]
    fn shards_sort_by_key_and_route_by_binary_search() {
        let set = ShardSet::from_scorers(vec![
            scorer("Region B", &[(0, 1.0)]),
            scorer("Region A", &[(0, 2.0)]),
            scorer("Region C", &[(0, 3.0)]),
        ])
        .expect("distinct regions");
        let keys: Vec<&str> = set.keys().collect();
        assert_eq!(keys, ["region_a", "region_b", "region_c"]);
        assert_eq!(set.index_of("region_b"), Some(1));
        assert_eq!(set.index_of("region_z"), None);
        assert_eq!(set.get("region_c").unwrap().last_good().region(), "Region C");
        assert!(!set.is_single());
        assert_eq!(set.policy(), ReloadPolicy::Degrade);
    }

    #[test]
    fn duplicate_region_keys_are_rejected() {
        let err = ShardSet::from_scorers(vec![
            scorer("Region A", &[(0, 1.0)]),
            scorer("region a", &[(1, 1.0)]), // same key after sanitising
        ])
        .expect_err("duplicate key");
        assert!(matches!(err, ServeError::BadConfig(ref m) if m.contains("region_a")), "{err}");
    }

    #[test]
    fn empty_sets_are_rejected() {
        assert!(matches!(
            ShardSet::from_scorers(vec![]),
            Err(ServeError::BadConfig(_))
        ));
        assert!(matches!(
            ShardSet::load_paths(&[], &TaskPool::serial()),
            Err(ServeError::BadConfig(_))
        ));
    }

    #[test]
    fn single_uses_keep_last_good_policy() {
        let set = ShardSet::single(scorer("Region A", &[(0, 1.0)]));
        assert!(set.is_single());
        assert_eq!(set.policy(), ReloadPolicy::KeepLastGood);
        assert_eq!(set.keys().collect::<Vec<_>>(), ["region_a"]);
    }

    #[test]
    fn degrade_then_heal_round_trips() {
        let set = ShardSet::from_scorers(vec![
            scorer("A", &[(0, 1.0)]),
            scorer("B", &[(0, 2.0)]),
        ])
        .expect("set");
        let a = set.get("a").unwrap();
        assert!(a.serving().is_ok());
        a.degrade("checksum mismatch".into());
        assert_eq!(a.serving().expect_err("degraded"), "checksum mismatch");
        assert_eq!(a.fault().as_deref(), Some("checksum mismatch"));
        // The last good scorer is retained while degraded.
        assert_eq!(a.last_good().region(), "A");
        // Global top-K refuses a partial fleet, naming the degraded shard.
        assert_eq!(set.global_top_k(3).expect_err("degraded"), vec!["a".to_string()]);
        // The sibling shard is untouched.
        assert!(set.get("b").unwrap().serving().is_ok());
        // A valid swap heals the shard.
        a.swap(scorer("A", &[(5, 9.0)]));
        assert!(a.serving().is_ok());
        assert_eq!(a.fault(), None);
        assert_eq!(set.global_top_k(1).expect("healed")[0].risk.pipe, PipeId(5));
    }

    #[test]
    fn epochs_advance_on_every_swap_degrade_and_heal() {
        let set = ShardSet::from_scorers(vec![
            scorer("A", &[(0, 1.0)]),
            scorer("B", &[(0, 2.0)]),
        ])
        .expect("set");
        let a = set.get("a").unwrap();
        assert_eq!(a.epoch(), 1);
        assert_eq!(set.fleet_epoch(), 2);
        // A swap retires cached bodies for the old model…
        a.swap(scorer("A", &[(5, 9.0)]));
        assert_eq!(a.epoch(), 2);
        // …a degrade retires cached bodies for the healthy state…
        a.degrade("bad bytes".into());
        assert_eq!(a.epoch(), 3);
        // …and the heal retires any (nonexistent) degraded-state entries.
        a.swap(scorer("A", &[(6, 9.0)]));
        assert_eq!(a.epoch(), 4);
        // The sibling never moved; the fleet epoch tracked every change.
        assert_eq!(set.get("b").unwrap().epoch(), 1);
        assert_eq!(set.fleet_epoch(), 5);
    }

    #[test]
    fn merge_matches_stable_sort_of_concatenation_with_ties() {
        // Scores tie across AND within shards; the merge must reproduce the
        // stable descending sort of the shard-order concatenation.
        let a = scorer("A", &[(0, 0.5), (1, 0.5), (2, 0.1)]);
        let b = scorer("B", &[(10, 0.9), (11, 0.5), (12, 0.5)]);
        let tables = [a.top_k(10), b.top_k(10)];
        let merged = merge_top_k(&tables, 10);
        let got: Vec<(usize, u32)> = merged.iter().map(|g| (g.shard, g.risk.pipe.0)).collect();
        // 0.9 first (shard B), then the 0.5 tie block in (shard, rank)
        // order: A/0, A/1, B/11, B/12, then 0.1.
        assert_eq!(got, [(1, 10), (0, 0), (0, 1), (1, 11), (1, 12), (0, 2)]);
        // k truncates the merge, not the tables.
        assert_eq!(merge_top_k(&tables, 2).len(), 2);
        assert_eq!(merge_top_k(&tables, 0).len(), 0);
        assert_eq!(merge_top_k(&[], 5).len(), 0);
    }

    #[test]
    fn load_paths_is_parallel_deterministic_and_strict() {
        let dir = std::env::temp_dir().join(format!("pipefail_shards_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for (i, region) in ["North", "South", "East", "West"].iter().enumerate() {
            let path = dir.join(format!("{region}.pfsnap"));
            let ranking = RiskRanking::new(vec![RiskScore {
                pipe: PipeId(i as u32),
                score: 1.0,
            }]);
            Snapshot::new("DPMHBP", *region, i as u64, &ranking)
                .save(&path)
                .unwrap();
            paths.push(path);
        }
        // Same shard set at any thread count.
        for threads in [1, 2, 8] {
            let set = ShardSet::load_paths(&paths, &TaskPool::new(threads)).expect("loads");
            assert_eq!(
                set.keys().collect::<Vec<_>>(),
                ["east", "north", "south", "west"]
            );
            assert_eq!(set.get("south").unwrap().path(), Some(paths[1].as_path()));
        }
        // Directory discovery finds the same files (plus ignores strays).
        std::fs::write(dir.join("README.txt"), b"not a snapshot").unwrap();
        let set = ShardSet::load_dir(&dir, &TaskPool::new(4)).expect("dir loads");
        assert_eq!(set.len(), 4);
        // One corrupt file fails the whole load with a typed error naming
        // the earliest failing path in input order.
        std::fs::write(&paths[2], b"PFSNAPgarbage").unwrap();
        let err = ShardSet::load_paths(&paths, &TaskPool::new(4)).expect_err("corrupt");
        match err {
            ServeError::Shard { path, .. } => assert_eq!(path, paths[2].display().to_string()),
            other => panic!("expected ServeError::Shard, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
