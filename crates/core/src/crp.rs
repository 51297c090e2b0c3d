//! The Chinese restaurant process (§18.3.2, Eq. 18.6).
//!
//! The constructive representation of the Dirichlet process used for
//! flexible pipe grouping: customer `l` joins occupied table `r` with
//! probability ∝ `n_r`, or a new table with probability ∝ `α`. DPMHBP's
//! assignment sweep weighs its clusters this way itself; this module holds
//! the Escobar–West resampling step for `α`.

use pipefail_stats::dist::{Beta as BetaDist, Gamma, Sampler};
use rand::Rng;

/// One Escobar–West update of the DP concentration `α` under a
/// `Gamma(a, b)` prior (rate parameterisation), given `k` occupied tables
/// and `n` customers.
pub fn resample_alpha<R: Rng + ?Sized>(
    alpha: f64,
    k: usize,
    n: usize,
    prior_shape: f64,
    prior_rate: f64,
    rng: &mut R,
) -> f64 {
    if n == 0 || k == 0 {
        return alpha;
    }
    // Auxiliary eta ~ Beta(alpha + 1, n)
    let eta = BetaDist::new(alpha + 1.0, n as f64)
        .expect("valid")
        .sample(rng);
    // Mixture weight for the "shape + k" component.
    let a = prior_shape;
    let b = prior_rate;
    let odds = (a + k as f64 - 1.0) / (n as f64 * (b - eta.ln()));
    let pi = odds / (1.0 + odds);
    let shape = if rng.gen::<f64>() < pi { a + k as f64 } else { a + k as f64 - 1.0 };
    Gamma::new(shape.max(1e-3), b - eta.ln())
        .expect("positive rate since eta<1")
        .sample(rng)
        .max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_stats::rng::seeded_rng;

    #[test]
    fn alpha_resampling_tracks_table_count() {
        let mut rng = seeded_rng(133);
        // Many tables → alpha should drift upward from a small start.
        let mut alpha = 0.5;
        let mut acc = 0.0;
        let reps = 400;
        for _ in 0..reps {
            alpha = resample_alpha(alpha, 60, 500, 1.0, 1.0, &mut rng);
            acc += alpha;
        }
        let avg = acc / reps as f64;
        assert!(avg > 3.0, "alpha stayed low: {avg}");
        // Few tables → alpha drifts down.
        let mut alpha = 10.0;
        let mut acc = 0.0;
        for _ in 0..reps {
            alpha = resample_alpha(alpha, 2, 500, 1.0, 1.0, &mut rng);
            acc += alpha;
        }
        let avg = acc / reps as f64;
        assert!(avg < 3.0, "alpha stayed high: {avg}");
    }
}
