//! Sampler state for the DPMHBP: clusters in stable slots.
//!
//! Clusters are created and destroyed constantly during the CRP sweep; to
//! keep `z` indices stable (and avoid O(L) remaps on every removal) clusters
//! live in a slot arena with a free list. Each cluster caches its marginal
//! log-likelihood per observation pattern, invalidated whenever its `(q, c)`
//! are resampled.

use crate::hier::{MarginalContext, PatternTable};

/// One mixture component: group parameters plus member bookkeeping.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Group failure rate `q_k`.
    pub q: f64,
    /// Group concentration `c_k`.
    pub c: f64,
    /// Number of member segments.
    pub n: usize,
    /// Member count per observation pattern.
    pub pattern_counts: Vec<f64>,
    /// Cached `log_marginal(pattern | q, c)` per pattern.
    pub loglik: Vec<f64>,
}

impl Cluster {
    /// Create an empty cluster with parameters `(q, c)`, caching its
    /// likelihood column.
    pub fn new(q: f64, c: f64, table: &PatternTable) -> Self {
        let mut cl = Self {
            q,
            c,
            n: 0,
            pattern_counts: vec![0.0; table.len()],
            loglik: vec![0.0; table.len()],
        };
        cl.refresh_cache(table);
        cl
    }

    /// Recompute the likelihood cache after a `(q, c)` update. The shared
    /// `(q, c)` log-gammas are hoisted once for the whole column.
    pub fn refresh_cache(&mut self, table: &PatternTable) {
        let ctx = MarginalContext::new(self.q, self.c);
        for (idx, pat) in table.patterns().iter().enumerate() {
            self.loglik[idx] = ctx.log_marginal(*pat);
        }
    }

    /// Largest deviation between the cached likelihood column and a
    /// from-scratch recompute at the current `(q, c)` — zero unless the
    /// cache went stale. Used by the debug cross-check and the cache tests
    /// (both compiled only in debug builds).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub fn cache_error(&self, table: &PatternTable) -> f64 {
        let ctx = MarginalContext::new(self.q, self.c);
        table
            .patterns()
            .iter()
            .enumerate()
            .map(|(idx, pat)| (self.loglik[idx] - ctx.log_marginal(*pat)).abs())
            .fold(0.0, f64::max)
    }
}

/// Slot arena of clusters.
#[derive(Debug, Clone, Default)]
pub struct ClusterSlots {
    slots: Vec<Option<Cluster>>,
    free: Vec<usize>,
    occupied: usize,
}

impl ClusterSlots {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live clusters.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Insert a cluster, returning its slot id.
    pub fn insert(&mut self, cluster: Cluster) -> usize {
        self.occupied += 1;
        if let Some(slot) = self.free.pop() {
            self.slots[slot] = Some(cluster);
            slot
        } else {
            self.slots.push(Some(cluster));
            self.slots.len() - 1
        }
    }

    /// Remove the cluster in `slot` (must be live).
    pub fn remove(&mut self, slot: usize) -> Cluster {
        let c = self.slots[slot].take().expect("remove of live slot");
        self.free.push(slot);
        self.occupied -= 1;
        c
    }

    /// Immutable access (must be live).
    pub fn get(&self, slot: usize) -> &Cluster {
        self.slots[slot].as_ref().expect("live slot")
    }

    /// Mutable access (must be live).
    pub fn get_mut(&mut self, slot: usize) -> &mut Cluster {
        self.slots[slot].as_mut().expect("live slot")
    }

    /// One past the largest slot id ever handed out: every live slot is
    /// below it.
    pub fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterate `(slot, cluster)` over live clusters.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Cluster)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i, c)))
    }

    /// Live slot ids (collected; used where mutation happens inside a loop).
    pub fn live_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PatternTable {
        PatternTable::build(vec![(0.0, 11.0, 1.0), (1.0, 10.0, 1.0)].into_iter())
    }

    #[test]
    fn cluster_cache_matches_direct() {
        let t = table();
        let c = Cluster::new(0.05, 20.0, &t);
        for (i, pat) in t.patterns().iter().enumerate() {
            assert!((c.loglik[i] - pat.log_marginal(0.05, 20.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn slots_reuse_freed_entries() {
        let t = table();
        let mut slots = ClusterSlots::new();
        let a = slots.insert(Cluster::new(0.1, 5.0, &t));
        let b = slots.insert(Cluster::new(0.2, 5.0, &t));
        assert_eq!(slots.len(), 2);
        slots.remove(a);
        assert_eq!(slots.len(), 1);
        let c = slots.insert(Cluster::new(0.3, 5.0, &t));
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(slots.len(), 2);
        let live = slots.live_slots();
        assert!(live.contains(&b) && live.contains(&c));
    }

    #[test]
    fn iter_skips_dead_slots() {
        let t = table();
        let mut slots = ClusterSlots::new();
        let a = slots.insert(Cluster::new(0.1, 5.0, &t));
        slots.insert(Cluster::new(0.2, 5.0, &t));
        slots.remove(a);
        assert_eq!(slots.iter().count(), 1);
    }
}
