//! Property-based tests on the statistical substrate's invariants.

#![cfg(test)]

use crate::descriptive;
use crate::dist::{Beta, ContinuousDist, DiscreteDist, Gamma, Normal, Poisson};
use crate::special;
use proptest::prelude::*;

proptest! {
    /// CDFs are monotone non-decreasing and bounded in [0, 1].
    #[test]
    fn beta_cdf_monotone(a in 0.05f64..50.0, b in 0.05f64..50.0, x in 0.0f64..1.0, dx in 0.0f64..0.5) {
        let d = Beta::new(a, b).unwrap();
        let c1 = d.cdf(x);
        let c2 = d.cdf((x + dx).min(1.0));
        prop_assert!((0.0..=1.0).contains(&c1));
        prop_assert!(c2 + 1e-12 >= c1);
    }

    #[test]
    fn gamma_cdf_monotone(shape in 0.05f64..50.0, rate in 0.05f64..10.0, x in 0.0f64..100.0, dx in 0.0f64..10.0) {
        let d = Gamma::new(shape, rate).unwrap();
        prop_assert!(d.cdf(x + dx) + 1e-12 >= d.cdf(x));
        prop_assert!(d.cdf(x) <= 1.0 && d.cdf(x) >= 0.0);
    }

    /// Normal quantile is the inverse of the CDF over a broad range.
    #[test]
    fn normal_quantile_inverse(mu in -100.0f64..100.0, sigma in 0.01f64..50.0, p in 0.001f64..0.999) {
        let d = Normal::new(mu, sigma).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-7);
    }

    /// Discrete pmfs are non-negative and no single mass exceeds 1.
    #[test]
    fn poisson_pmf_bounds(lambda in 0.01f64..200.0, k in 0u64..400) {
        let d = Poisson::new(lambda).unwrap();
        let p = d.pmf(k);
        prop_assert!((0.0..=1.0).contains(&p), "pmf {p}");
    }

    /// ln Γ satisfies the recurrence ln Γ(x+1) = ln Γ(x) + ln x.
    #[test]
    fn ln_gamma_recurrence(x in 0.01f64..300.0) {
        let lhs = special::ln_gamma(x + 1.0);
        let rhs = special::ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    /// Regularised incomplete beta is monotone in x and complements its
    /// mirror image.
    #[test]
    fn betainc_symmetry(a in 0.1f64..40.0, b in 0.1f64..40.0, x in 0.0f64..1.0) {
        let v = special::betainc_reg(a, b, x);
        prop_assert!((0.0..=1.0).contains(&v));
        let mirror = special::betainc_reg(b, a, 1.0 - x);
        prop_assert!((v + mirror - 1.0).abs() < 1e-9);
    }

    /// log_sum_exp dominates the max and is bounded by max + ln n.
    #[test]
    fn log_sum_exp_bounds(xs in proptest::collection::vec(-700.0f64..700.0, 1..40)) {
        let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = special::log_sum_exp(&xs);
        prop_assert!(lse >= m - 1e-12);
        prop_assert!(lse <= m + (xs.len() as f64).ln() + 1e-12);
    }

    /// Quantiles are monotone in q and bounded by the sample extremes.
    #[test]
    fn quantile_monotone(xs in proptest::collection::vec(-1e6f64..1e6, 1..100), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = descriptive::quantile(&xs, lo).unwrap();
        let b = descriptive::quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let (mn, mx) = descriptive::min_max(&xs).unwrap();
        prop_assert!(a >= mn - 1e-9 && b <= mx + 1e-9);
    }

    /// Ranks are a permutation-weight-preserving transform: they always sum
    /// to n(n+1)/2.
    #[test]
    fn ranks_sum_invariant(xs in proptest::collection::vec(-1e3f64..1e3, 1..80)) {
        let r = descriptive::ranks(&xs).unwrap();
        let n = xs.len() as f64;
        let total: f64 = r.iter().sum();
        prop_assert!((total - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }
}
