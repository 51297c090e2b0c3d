// Library code must surface sampler failures as typed `McmcError`s, never
// unwrap its way into a panic; tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! # pipefail-mcmc
//!
//! A small, hand-written MCMC toolkit.
//!
//! The DPMHBP model (Dirichlet-process mixture of hierarchical beta
//! processes) has no conjugate posterior for its group-level parameters, so
//! the paper runs *Metropolis-within-Gibbs*: conjugate coordinates are drawn
//! exactly, non-conjugate ones by a univariate kernel inside the Gibbs sweep.
//! The sweeps themselves live with the models in `pipefail-core`; this crate
//! provides what they share:
//!
//! * [`slice::SliceSampler`] — Neal's univariate slice sampler with
//!   stepping-out and shrinkage; tuning-free, the one within-Gibbs kernel.
//! * [`transform`] — bijections (logit/log) so constrained parameters
//!   (probabilities, concentrations) can be sampled on ℝ with the correct
//!   Jacobian.
//! * [`Schedule`] — burn-in, retained sweeps and thinning.
//! * [`diagnostics`] — autocorrelation, effective sample size, R̂ and the
//!   Geweke score for convergence checking, plus [`ChainHealth`], the online
//!   monitor the fit loops run every sweep.
//!
//! ## Example: sampling a Beta posterior by slice sampling
//!
//! ```
//! use pipefail_mcmc::slice::SliceSampler;
//! use pipefail_stats::rng::seeded_rng;
//!
//! // Posterior of p under Beta(2, 2) prior and 8 successes / 2 failures:
//! // Beta(10, 4), mean 10/14.
//! let log_post = |p: f64| {
//!     if p <= 0.0 || p >= 1.0 { return f64::NEG_INFINITY; }
//!     9.0 * p.ln() + 3.0 * (1.0 - p).ln()
//! };
//! let mut rng = seeded_rng(1);
//! let s = SliceSampler::new(0.1);
//! let mut x = 0.5;
//! let mut acc = 0.0;
//! let n = 4000;
//! for _ in 0..n {
//!     x = s.step(x, &log_post, &mut rng);
//!     acc += x;
//! }
//! let mean = acc / n as f64;
//! assert!((mean - 10.0 / 14.0).abs() < 0.03);
//! ```

pub mod diagnostics;
pub mod error;
pub mod slice;
pub mod transform;

pub use diagnostics::{ChainHealth, HealthConfig};
pub use error::McmcError;

/// How many iterations to run, discard and keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Iterations discarded before collecting samples.
    pub burn_in: usize,
    /// Iterations collected after burn-in (pre-thinning).
    pub samples: usize,
    /// Keep every `thin`-th sample (1 = keep all).
    pub thin: usize,
}

impl Schedule {
    /// Create a schedule; `thin` is clamped to at least 1.
    pub fn new(burn_in: usize, samples: usize, thin: usize) -> Self {
        Self {
            burn_in,
            samples,
            thin: thin.max(1),
        }
    }

    /// Total number of sweeps the sampler will execute.
    pub fn total_iterations(&self) -> usize {
        self.burn_in + self.samples
    }

    /// Number of samples that will actually be retained.
    pub fn retained(&self) -> usize {
        self.samples.div_ceil(self.thin)
    }

    /// True when iteration `it` (0-based) should be recorded.
    pub fn keep(&self, it: usize) -> bool {
        it >= self.burn_in && (it - self.burn_in).is_multiple_of(self.thin)
    }
}

impl Default for Schedule {
    /// A schedule adequate for the pipe-failure posteriors: 500 burn-in,
    /// 1000 retained sweeps, no thinning.
    fn default() -> Self {
        Self::new(500, 1000, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_counts() {
        let s = Schedule::new(100, 50, 5);
        assert_eq!(s.total_iterations(), 150);
        assert_eq!(s.retained(), 10);
        assert!(!s.keep(99));
        assert!(s.keep(100));
        assert!(!s.keep(101));
        assert!(s.keep(105));
    }

    #[test]
    fn thin_clamped() {
        let s = Schedule::new(0, 10, 0);
        assert_eq!(s.thin, 1);
        assert_eq!(s.retained(), 10);
    }

    #[test]
    fn keep_count_matches_retained() {
        for &(b, s, t) in &[(10usize, 37usize, 3usize), (0, 10, 1), (5, 9, 2)] {
            let sched = Schedule::new(b, s, t);
            let kept = (0..sched.total_iterations()).filter(|&i| sched.keep(i)).count();
            assert_eq!(kept, sched.retained(), "b={b} s={s} t={t}");
        }
    }
}
