//! Neal's univariate slice sampler (stepping-out and shrinkage).
//!
//! The tuning-free workhorse for the non-conjugate coordinates of the HBP and
//! DPMHBP posteriors (group failure rates `q_k`, concentrations `c_k`). Each
//! call makes one transition. It leaves the target invariant unless the
//! stepping-out cap binds: the cap is per side, where Neal (2003, §4) splits
//! one budget at random between the two sides.

use crate::error::McmcError;
use rand::Rng;

/// Stepping-out expansions allowed on each side of the initial bracket.
const MAX_STEPS_PER_SIDE: usize = 64;

/// Univariate slice sampler with stepping-out and shrinkage (Neal 2003).
#[derive(Debug, Clone, Copy)]
pub struct SliceSampler {
    /// Initial bracket width `w`.
    width: f64,
}

impl SliceSampler {
    /// Create a sampler with bracket width `w` (must be positive; a width on
    /// the scale of the posterior standard deviation is ideal but anything
    /// within a couple orders of magnitude works).
    ///
    /// Panics on an invalid width; fit paths that must not panic should use
    /// [`SliceSampler::try_new`].
    pub fn new(width: f64) -> Self {
        match Self::try_new(width) {
            Ok(s) => s,
            Err(e) => panic!("slice width must be positive: {e}"),
        }
    }

    /// Fallible constructor: `Err(McmcError::BadKernelConfig)` on a
    /// non-positive or non-finite width.
    pub fn try_new(width: f64) -> Result<Self, McmcError> {
        if !(width > 0.0 && width.is_finite()) {
            return Err(McmcError::BadKernelConfig(
                "slice bracket width must be positive and finite",
            ));
        }
        Ok(Self { width })
    }

    /// One slice-sampling transition from `x0` under log-density `log_f`.
    ///
    /// `log_f` may return `NEG_INFINITY` outside the support; `x0` itself
    /// must have finite log-density.
    ///
    /// Panics if `x0` has non-finite log-density; fit paths that must not
    /// panic should use [`SliceSampler::try_step`].
    pub fn step<R, F>(&self, x0: f64, log_f: &F, rng: &mut R) -> f64
    where
        R: Rng + ?Sized,
        F: Fn(f64) -> f64,
    {
        match self.try_step(x0, log_f, rng) {
            Ok(x1) => x1,
            Err(e) => panic!("slice sampler started outside the support: {e}"),
        }
    }

    /// Fallible slice transition: `Err(NonFiniteLogPosterior)` when `x0`
    /// itself has NaN, `+inf`, or zero posterior mass — a slice level cannot
    /// be drawn from such a point. NaN log-densities at *candidate* points
    /// are survivable: NaN compares false against the slice level, so the
    /// candidate is treated as outside the slice and the bracket shrinks.
    pub fn try_step<R, F>(&self, x0: f64, log_f: &F, rng: &mut R) -> Result<f64, McmcError>
    where
        R: Rng + ?Sized,
        F: Fn(f64) -> f64,
    {
        let lf0 = log_f(x0);
        if !lf0.is_finite() {
            return Err(McmcError::NonFiniteLogPosterior {
                coordinate: "slice current state",
                at: x0,
            });
        }
        // Vertical level: ln u = ln f(x0) − Exp(1)
        let ln_y = lf0 - rand_exp(rng);

        // Stepping out.
        let u: f64 = rng.gen();
        let mut lo = x0 - self.width * u;
        let mut hi = lo + self.width;
        let mut steps_lo = MAX_STEPS_PER_SIDE;
        let mut steps_hi = MAX_STEPS_PER_SIDE;
        while steps_lo > 0 && log_f(lo) > ln_y {
            lo -= self.width;
            steps_lo -= 1;
        }
        while steps_hi > 0 && log_f(hi) > ln_y {
            hi += self.width;
            steps_hi -= 1;
        }

        // Shrinkage.
        loop {
            let x1 = lo + (hi - lo) * rng.gen::<f64>();
            if log_f(x1) > ln_y {
                return Ok(x1);
            }
            if x1 < x0 {
                lo = x1;
            } else {
                hi = x1;
            }
            if (hi - lo) < f64::EPSILON * (1.0 + x0.abs()) {
                // Numerical corner: the bracket collapsed onto x0.
                return Ok(x0);
            }
        }
    }
}

/// Standard exponential variate.
fn rand_exp<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_stats::descriptive::{mean, variance};
    use pipefail_stats::rng::seeded_rng;

    fn collect<F: Fn(f64) -> f64>(
        log_f: F,
        x0: f64,
        width: f64,
        n: usize,
        seed: u64,
    ) -> Vec<f64> {
        let mut rng = seeded_rng(seed);
        let s = SliceSampler::new(width);
        let mut x = x0;
        // burn-in
        for _ in 0..500 {
            x = s.step(x, &log_f, &mut rng);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            x = s.step(x, &log_f, &mut rng);
            out.push(x);
        }
        out
    }

    #[test]
    fn standard_normal_moments() {
        let xs = collect(|x| -0.5 * x * x, 0.0, 1.0, 20_000, 31);
        assert!(mean(&xs).unwrap().abs() < 0.05);
        assert!((variance(&xs).unwrap() - 1.0).abs() < 0.1);
    }

    #[test]
    fn bounded_beta_target() {
        // Beta(3, 7): mean 0.3, var 3*7/(100*11) ≈ 0.0190909
        let log_f = |p: f64| {
            if p <= 0.0 || p >= 1.0 {
                f64::NEG_INFINITY
            } else {
                2.0 * p.ln() + 6.0 * (1.0 - p).ln()
            }
        };
        let xs = collect(log_f, 0.5, 0.2, 20_000, 32);
        assert!((mean(&xs).unwrap() - 0.3).abs() < 0.02);
        assert!((variance(&xs).unwrap() - 0.019_09).abs() < 0.004);
        assert!(xs.iter().all(|&x| x > 0.0 && x < 1.0));
    }

    #[test]
    fn badly_tuned_width_still_correct() {
        // Width 100x too large and 10x too small both stay correct (the
        // stepping-out cap bounds how far a too-small width can expand, so
        // widths orders of magnitude below the posterior scale mix too
        // slowly to test this way).
        for &(w, seed) in &[(100.0, 33u64), (0.1, 34u64)] {
            let xs = collect(|x: f64| -0.5 * x * x, 0.3, w, 30_000, seed);
            assert!(mean(&xs).unwrap().abs() < 0.1, "width {w}");
            assert!((variance(&xs).unwrap() - 1.0).abs() < 0.2, "width {w}");
        }
    }

    #[test]
    fn bimodal_target_visits_both_modes() {
        // Mixture of N(−1.5, 0.5²) and N(1.5, 0.5²): the inter-mode valley
        // is shallow enough (~e⁻⁴·⁵ of the mode) that slice levels below it
        // occur regularly and the sampler bridges the modes.
        let log_f = |x: f64| {
            let a = -0.5 * ((x + 1.5) / 0.5).powi(2);
            let b = -0.5 * ((x - 1.5) / 0.5).powi(2);
            pipefail_stats::special::log_sum_exp2(a, b)
        };
        let xs = collect(log_f, -1.5, 2.0, 30_000, 35);
        let left = xs.iter().filter(|&&x| x < 0.0).count() as f64 / xs.len() as f64;
        assert!((left - 0.5).abs() < 0.15, "left fraction {left}");
    }

    #[test]
    #[should_panic(expected = "slice width must be positive")]
    fn rejects_bad_width() {
        let _ = SliceSampler::new(0.0);
    }

    #[test]
    fn try_new_reports_bad_width_without_panicking() {
        assert!(matches!(
            SliceSampler::try_new(0.0),
            Err(McmcError::BadKernelConfig(_))
        ));
        assert!(matches!(
            SliceSampler::try_new(f64::INFINITY),
            Err(McmcError::BadKernelConfig(_))
        ));
        assert!(SliceSampler::try_new(1.0).is_ok());
    }

    #[test]
    fn try_step_errors_outside_support() {
        let mut rng = seeded_rng(36);
        let s = SliceSampler::new(1.0);
        let log_f = |p: f64| {
            if p <= 0.0 || p >= 1.0 {
                f64::NEG_INFINITY
            } else {
                2.0 * p.ln() + 6.0 * (1.0 - p).ln()
            }
        };
        assert!(matches!(
            s.try_step(-0.5, &log_f, &mut rng),
            Err(McmcError::NonFiniteLogPosterior { .. })
        ));
        assert!(matches!(
            s.try_step(f64::NAN, &|_| f64::NAN, &mut rng),
            Err(McmcError::NonFiniteLogPosterior { .. })
        ));
        assert!(s.try_step(0.3, &log_f, &mut rng).is_ok());
    }

    #[test]
    fn nan_candidates_shrink_the_bracket() {
        // Log-density is NaN right of 0.5: those candidates must be treated
        // as outside the slice, never returned.
        let mut rng = seeded_rng(37);
        let s = SliceSampler::new(2.0);
        let log_f = |x: f64| if x > 0.5 { f64::NAN } else { -0.5 * x * x };
        let mut x = -0.2;
        for _ in 0..500 {
            x = s.try_step(x, &log_f, &mut rng).expect("state stays valid");
            assert!(x <= 0.5, "NaN candidate escaped the shrinkage loop");
        }
    }
}
