//! SplitMix64: the benchmark's own deterministic generator. Every input
//! and every schedule is drawn from it, so a run's inputs depend only on
//! `--seed` and never on the program under test.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// Independent stream number `stream` of `seed` — one per input kind,
    /// so adding draws to one kind never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = Self::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Exponential with rate `rate` (mean `1 / rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.f64()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
