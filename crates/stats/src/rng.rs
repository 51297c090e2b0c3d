//! Deterministic RNG helpers.
//!
//! Every stochastic component in the workspace takes an explicit RNG so whole
//! experiments replay exactly from a single `u64` seed. These helpers
//! centralise the choice of generator (`StdRng`, a ChaCha-based PRNG) and a
//! cheap stream-splitting scheme so parallel replicates get decorrelated
//! streams from one master seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RNG from a single `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a sub-seed for stream `stream` of the master seed.
///
/// Uses the SplitMix64 finaliser, whose avalanche properties make consecutive
/// stream ids produce effectively independent seeds.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG for stream `stream` of the master seed.
pub fn stream_rng(master: u64, stream: u64) -> StdRng {
    seeded_rng(derive_seed(master, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = seeded_rng(42);
            (0..10).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = seeded_rng(42);
            (0..10).map(|_| r.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_differ() {
        let mut r0 = stream_rng(7, 0);
        let mut r1 = stream_rng(7, 1);
        let a: Vec<u64> = (0..8).map(|_| r0.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_seed_is_pure() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    /// The retry path derives sub-seeds at a large stream offset; every
    /// (master, retry-attempt) pair must get its own seed or a retried fit
    /// could replay the exact chain that just failed.
    #[test]
    fn retry_stream_subseeds_are_pairwise_distinct() {
        // Mirrors the offset used by the eval runner's retry engine.
        const RETRY_STREAM_BASE: u64 = 0x0052_4554_5259;
        let mut seen = std::collections::HashSet::new();
        for master in 0..64u64 {
            assert!(seen.insert(master), "master seeds are distinct inputs");
            for attempt in 1..=8u64 {
                let sub = derive_seed(master, RETRY_STREAM_BASE + attempt);
                assert!(
                    seen.insert(sub),
                    "collision: master {master} attempt {attempt} → {sub}"
                );
            }
        }
        // 64 masters + 64×8 sub-seeds, all distinct.
        assert_eq!(seen.len(), 64 + 64 * 8);
    }

    /// Retry streams must decorrelate the generator, not just the seed:
    /// the first draws of consecutive retry attempts share no prefix.
    #[test]
    fn retry_streams_produce_different_chains() {
        const RETRY_STREAM_BASE: u64 = 0x0052_4554_5259;
        let draws = |stream: u64| -> Vec<u64> {
            let mut r = stream_rng(42, stream);
            (0..16).map(|_| r.gen()).collect()
        };
        let a = draws(RETRY_STREAM_BASE + 1);
        let b = draws(RETRY_STREAM_BASE + 2);
        assert_ne!(a, b);
        assert_ne!(a[0], b[0], "chains diverge from the very first draw");
        // And the same retry attempt replays byte-identically, so a
        // retried experiment stays a pure function of its master seed.
        assert_eq!(a, draws(RETRY_STREAM_BASE + 1));
    }
}
