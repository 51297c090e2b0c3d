//! Probability distributions.
//!
//! Each distribution is a small value type validated at construction
//! ([`crate::StatsError::BadParameter`] on bad input) and implements
//! [`Sampler`] plus, where meaningful, [`ContinuousDist`] or [`DiscreteDist`].
//! Samplers take any [`rand::Rng`] so callers control seeding; nothing in the
//! crate touches a global RNG.

use rand::Rng;

mod bernoulli;
mod beta;
mod categorical;
mod gamma;
mod normal;
mod poisson;
mod student_t;

pub use bernoulli::Bernoulli;
pub use beta::Beta;
pub use categorical::{AliasTable, Categorical};
pub use gamma::Gamma;
pub use normal::Normal;
pub use poisson::Poisson;
pub use student_t::StudentT;

/// A distribution that can be sampled with a caller-provided RNG.
pub trait Sampler {
    /// Type of one draw.
    type Value;

    /// Draw one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Value;

    /// Draw `n` samples into a fresh `Vec`.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Self::Value> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// A univariate continuous distribution.
pub trait ContinuousDist: Sampler<Value = f64> {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    /// Natural log of the density at `x` (`−∞` outside the support).
    fn ln_pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
}

/// A univariate discrete distribution over non-negative integers.
pub trait DiscreteDist: Sampler<Value = u64> {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }
    /// Natural log of the mass at `k` (`−∞` outside the support).
    fn ln_pmf(&self, k: u64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Sampler;
    use crate::descriptive;
    use rand::Rng;

    /// Draw `n` samples and check the empirical mean/variance against the
    /// analytic moments within `tol` absolute-ish tolerance (scaled by the
    /// magnitude of the moment).
    pub fn check_moments<D, R>(dist: &D, rng: &mut R, n: usize, mean: f64, var: f64, tol: f64)
    where
        D: Sampler<Value = f64>,
        R: Rng + ?Sized,
    {
        let xs = dist.sample_n(rng, n);
        let m = descriptive::mean(&xs).unwrap();
        let v = descriptive::variance(&xs).unwrap();
        let scale_m = mean.abs().max(1.0);
        let scale_v = var.abs().max(1.0);
        assert!(
            (m - mean).abs() / scale_m < tol,
            "empirical mean {m} vs analytic {mean}"
        );
        assert!(
            (v - var).abs() / scale_v < 3.0 * tol,
            "empirical var {v} vs analytic {var}"
        );
    }
}
