//! Hypothesis tests.
//!
//! The paper's Table 18.4 reports *one-sided paired t-tests at the 5% level*
//! comparing the proposed model's AUC against each baseline across runs; this
//! module provides exactly that test (plus its one-sample form and the other
//! alternatives).

use crate::descriptive::{mean, std_dev};
use crate::dist::{ContinuousDist, Sampler, StudentT};
use crate::{Result, StatsError};

/// Which tail(s) the alternative hypothesis covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alternative {
    /// H₁: mean difference > 0 (the paper's "proposed beats baseline").
    Greater,
    /// H₁: mean difference < 0.
    Less,
    /// H₁: mean difference ≠ 0.
    TwoSided,
}

/// Outcome of a t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic.
    pub t: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// p-value for the requested alternative.
    pub p_value: f64,
    /// Mean of the differences (paired) or mean difference (two-sample).
    pub mean_diff: f64,
}

impl TTestResult {
    /// True when the null is rejected at significance level `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Paired t-test on matched samples `xs[i]` vs `ys[i]`.
///
/// With `Alternative::Greater` the alternative is "mean(xs − ys) > 0", i.e.
/// the first method is better (for a metric where larger is better).
pub fn paired_t_test(xs: &[f64], ys: &[f64], alt: Alternative) -> Result<TTestResult> {
    if xs.len() != ys.len() {
        return Err(StatsError::BadParameter("paired t-test needs equal lengths"));
    }
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData("paired t-test needs >= 2 pairs"));
    }
    let diffs: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| x - y).collect();
    one_sample_t_test(&diffs, 0.0, alt)
}

/// One-sample t-test of H₀: mean = `mu0`.
pub fn one_sample_t_test(xs: &[f64], mu0: f64, alt: Alternative) -> Result<TTestResult> {
    if xs.len() < 2 {
        return Err(StatsError::NotEnoughData("t-test needs >= 2 points"));
    }
    let n = xs.len() as f64;
    let m = mean(xs)?;
    let s = std_dev(xs)?;
    let df = n - 1.0;
    let t = if s == 0.0 {
        // Degenerate: identical differences. Sign decides the direction.
        match (m - mu0).partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Greater) => f64::INFINITY,
            Some(std::cmp::Ordering::Less) => f64::NEG_INFINITY,
            _ => 0.0,
        }
    } else {
        (m - mu0) / (s / n.sqrt())
    };
    Ok(TTestResult {
        t,
        df,
        p_value: p_from_t(t, df, alt),
        mean_diff: m - mu0,
    })
}

fn p_from_t(t: f64, df: f64, alt: Alternative) -> f64 {
    if t.is_infinite() {
        return match alt {
            Alternative::Greater => {
                if t > 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
            Alternative::Less => {
                if t < 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
            Alternative::TwoSided => 0.0,
        };
    }
    let dist = StudentT::new(df).expect("df > 0");
    match alt {
        Alternative::Greater => dist.sf(t),
        Alternative::Less => dist.cdf(t),
        Alternative::TwoSided => 2.0 * dist.sf(t.abs()),
    }
}

/// A Kolmogorov–Smirnov-style goodness-of-fit statistic: the sup-distance
/// between the empirical CDF of `xs` and a reference CDF. Used by the test
/// suites to validate samplers against their analytic CDFs.
pub fn ks_statistic<F: Fn(f64) -> f64>(xs: &[f64], cdf: F) -> Result<f64> {
    if xs.is_empty() {
        return Err(StatsError::NotEnoughData("ks on empty slice"));
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in ks input"));
    let n = v.len() as f64;
    let mut d = 0.0_f64;
    for (i, &x) in v.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    Ok(d)
}

/// Sample-based two-distribution check helper: draws `n` values from `dist`
/// and returns the KS distance to `cdf`.
pub fn ks_check<D, R>(dist: &D, cdf: impl Fn(f64) -> f64, n: usize, rng: &mut R) -> f64
where
    D: Sampler<Value = f64>,
    R: rand::Rng + ?Sized,
{
    let xs = dist.sample_n(rng, n);
    ks_statistic(&xs, cdf).expect("n > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Normal, Sampler};
    use crate::rng::seeded_rng;

    #[test]
    fn paired_detects_signal() {
        // ys = xs − 0.5 + small noise → xs clearly greater
        let xs = [1.0, 1.2, 0.9, 1.5, 1.1, 1.3, 0.8, 1.0];
        let ys: Vec<f64> = xs.iter().map(|x| x - 0.5).collect();
        let r = paired_t_test(&xs, &ys, Alternative::Greater).unwrap();
        assert!(r.p_value < 1e-6);
        assert!(r.significant_at(0.05));
        assert!((r.mean_diff - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paired_no_signal_under_null() {
        let mut rng = seeded_rng(22);
        let n = Normal::standard();
        let mut rejections = 0;
        let trials = 400;
        for _ in 0..trials {
            let xs = n.sample_n(&mut rng, 10);
            let ys = n.sample_n(&mut rng, 10);
            let r = paired_t_test(&xs, &ys, Alternative::Greater).unwrap();
            if r.significant_at(0.05) {
                rejections += 1;
            }
        }
        // Should reject ~5% of the time; allow generous slack.
        let rate = rejections as f64 / trials as f64;
        assert!(rate < 0.12, "false positive rate {rate}");
    }

    #[test]
    fn one_sided_vs_two_sided() {
        let xs = [0.1, 0.2, 0.15, 0.12, 0.18];
        let g = one_sample_t_test(&xs, 0.0, Alternative::Greater).unwrap();
        let two = one_sample_t_test(&xs, 0.0, Alternative::TwoSided).unwrap();
        assert!((two.p_value - 2.0 * g.p_value).abs() < 1e-12);
        let l = one_sample_t_test(&xs, 0.0, Alternative::Less).unwrap();
        assert!((g.p_value + l.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_constant_differences() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [0.5, 0.5, 0.5];
        let r = paired_t_test(&xs, &ys, Alternative::Greater).unwrap();
        assert_eq!(r.p_value, 0.0);
        let r = paired_t_test(&xs, &xs, Alternative::Greater).unwrap();
        assert!(r.p_value > 0.4);
    }

    #[test]
    fn ks_accepts_correct_sampler() {
        let mut rng = seeded_rng(24);
        let n = Normal::standard();
        let d = ks_check(&n, crate::special::std_normal_cdf, 5_000, &mut rng);
        // critical value ~1.36/sqrt(n) at 5%
        assert!(d < 1.36 / (5000.0_f64).sqrt() * 1.5, "ks {d}");
    }

    #[test]
    fn ks_rejects_wrong_cdf() {
        let mut rng = seeded_rng(25);
        let n = Normal::new(0.5, 1.0).unwrap();
        let d = ks_check(&n, crate::special::std_normal_cdf, 5_000, &mut rng);
        assert!(d > 0.1, "ks {d} should be large for shifted distribution");
    }
}
