//! Neal's univariate slice sampler: the doubling procedure, shrinkage and
//! the acceptance test (Neal 2003, *Ann. Statist.* 31(3), §4, Figs. 4–6).
//!
//! The tuning-free workhorse for the non-conjugate coordinates of the HBP and
//! DPMHBP posteriors (group failure rates `q_k`, concentrations `c_k`). Each
//! call makes one transition, and it leaves the target invariant. Doubling
//! grows the initial bracket geometrically, so a slice far wider than the
//! width costs a few evaluations, not one per width. The number of doublings
//! is capped; the acceptance test keeps the capped procedure exact, because
//! it accepts a point only if doubling from that point could have produced
//! the same bracket.

use crate::error::McmcError;
use rand::Rng;

/// Doublings allowed per transition: the bracket grows to at most
/// 2¹⁰ = 1024 widths.
const MAX_DOUBLINGS: usize = 10;

/// Univariate slice sampler with doubling, shrinkage and the acceptance test
/// (Neal 2003).
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
    /// be drawn from such a point. NaN log-densities at every other point
    /// are survivable: NaN compares false against the slice level, so the
    /// point counts as outside the slice, whether it is a bracket end, a
    /// candidate or an end in the acceptance test.
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
        // Vertical level: ln u = ln f(x0) − Exp(1).
        let ln_y = lf0 - rand_exp(rng);
        let inside = |lf: f64| lf > ln_y;

        // Doubling (Fig. 4): widen the bracket on a random side until both
        // ends lie outside the slice or the cap binds.
        let mut lo = x0 - self.width * rng.gen::<f64>();
        let mut hi = lo + self.width;
        let (mut f_lo, mut f_hi) = (log_f(lo), log_f(hi));
        for _ in 0..MAX_DOUBLINGS {
            if !(inside(f_lo) || inside(f_hi)) {
                break;
            }
            let span = hi - lo;
            if rng.gen::<f64>() < 0.5 {
                lo -= span;
                f_lo = log_f(lo);
            } else {
                hi += span;
                f_hi = log_f(hi);
            }
        }
        let bracket = Bracket { lo, hi, f_lo, f_hi };

        // Shrinkage (Fig. 5), accepting a candidate in the slice only if it
        // passes the acceptance test.
        let (mut s_lo, mut s_hi) = (lo, hi);
        loop {
            let x1 = s_lo + (s_hi - s_lo) * rng.gen::<f64>();
            if inside(log_f(x1)) && self.acceptable(&bracket, x0, x1, &inside, log_f) {
                return Ok(x1);
            }
            if x1 < x0 {
                s_lo = x1;
            } else {
                s_hi = x1;
            }
            if (s_hi - s_lo) < f64::EPSILON * (1.0 + x0.abs()) {
                // Numerical corner: the bracket collapsed onto x0.
                return Ok(x0);
            }
        }
    }

    /// Neal's acceptance test (Fig. 6): could doubling from `x1` have
    /// produced `bracket`? Halve the bracket towards `x1`. Once the halves
    /// holding `x0` and `x1` differ, reject if neither end of the current
    /// half lies in the slice. An end is evaluated only after the paths
    /// split, and the doubled bracket's own end values are reused.
    fn acceptable<F>(
        &self,
        bracket: &Bracket,
        x0: f64,
        x1: f64,
        inside: &impl Fn(f64) -> bool,
        log_f: &F,
    ) -> bool
    where
        F: Fn(f64) -> f64,
    {
        let (mut lo, mut hi) = (bracket.lo, bracket.hi);
        let (mut f_lo, mut f_hi) = (Some(bracket.f_lo), Some(bracket.f_hi));
        let mut split = false;
        while hi - lo > 1.1 * self.width {
            let mid = 0.5 * (lo + hi);
            split |= (x0 < mid) != (x1 < mid);
            if x1 < mid {
                hi = mid;
                f_hi = None;
            } else {
                lo = mid;
                f_lo = None;
            }
            if split
                && !inside(*f_lo.get_or_insert_with(|| log_f(lo)))
                && !inside(*f_hi.get_or_insert_with(|| log_f(hi)))
            {
                return false;
            }
        }
        true
    }
}

/// The doubled bracket and the log-density at its ends.
struct Bracket {
    lo: f64,
    hi: f64,
    f_lo: f64,
    f_hi: f64,
}

/// Standard exponential variate.
fn rand_exp<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::effective_sample_size;
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

    /// Assert that the mean of `xs` lies within 4 Monte Carlo standard
    /// errors of `exact`, with the error sized by the chain's ESS.
    fn assert_mean_within_mc_error(xs: &[f64], exact: f64) {
        let m = mean(xs).unwrap();
        let mcse = (variance(xs).unwrap() / effective_sample_size(xs)).sqrt();
        assert!(
            (m - exact).abs() <= 4.0 * mcse,
            "mean {m:.4} vs exact {exact:.4} (Monte Carlo error {mcse:.4})"
        );
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
        // Widths 100x too large and 10x and 100x too small all stay correct.
        for &(w, seed) in &[(100.0, 33u64), (0.1, 34u64), (0.01, 38u64)] {
            let xs = collect(|x: f64| -0.5 * x * x, 0.3, w, 30_000, seed);
            assert!(mean(&xs).unwrap().abs() < 0.1, "width {w}");
            assert!((variance(&xs).unwrap() - 1.0).abs() < 0.2, "width {w}");
        }
    }

    #[test]
    fn wide_one_sided_target_is_exact() {
        // log f = 0.01·x on x ≤ 0: an exponential of mean −100 and sd 100,
        // whose slices run to the support's edge and reach hundreds of
        // widths to the left. A bracket whose growth is capped per side,
        // with no acceptance test, reads a mean near −83 here.
        let log_f = |x: f64| if x <= 0.0 { 0.01 * x } else { f64::NEG_INFINITY };
        assert_mean_within_mc_error(&collect(log_f, -100.0, 1.0, 400_000, 39), -100.0);
    }

    #[test]
    fn gapped_target_is_exact() {
        // Uniform on [0, 1] ∪ [1.5, 4]: every slice is the two pieces, and
        // the left one holds 2/7 of the mass. A doubled bracket can reach a
        // piece from which doubling would have stopped short of x0; the
        // acceptance test rejects such candidates. Without it the chain
        // reads about 0.316 here.
        let log_f = |x: f64| {
            if (0.0..=1.0).contains(&x) || (1.5..=4.0).contains(&x) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        };
        let left: Vec<f64> = collect(log_f, 0.5, 1.0, 200_000, 40)
            .iter()
            .map(|&x| if x <= 1.0 { 1.0 } else { 0.0 })
            .collect();
        assert_mean_within_mc_error(&left, 2.0 / 7.0);
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
