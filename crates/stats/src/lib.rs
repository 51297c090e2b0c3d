//! # pipefail-stats
//!
//! Statistical substrate for the `pipefail` workspace.
//!
//! The pipe-failure models (hierarchical beta processes, Dirichlet-process
//! mixtures, survival baselines) need exact, well-tested probability
//! machinery: special functions, densities, samplers, descriptive statistics
//! and the hypothesis tests used by the paper's evaluation (one-sided paired
//! t-tests, Table 18.4). No mature Bayesian-statistics crate is available in
//! this environment, so everything here is written from scratch and verified
//! against reference values in the unit tests.
//!
//! ## Layout
//!
//! * [`special`] — log-gamma, digamma/trigamma, log-beta, regularised
//!   incomplete beta/gamma, error function.
//! * [`dist`] — probability distributions with sampling, (log-)densities and
//!   CDFs where meaningful.
//! * [`descriptive`] — means, variances, quantiles, correlation.
//! * [`linalg`] — the Cholesky solve of the Newton-step systems.
//! * [`hypothesis`] — t-tests and p-values.
//! * [`rng`] — deterministic seeding helpers used across the workspace.
//!
//! ## Example
//!
//! ```
//! use pipefail_stats::dist::{Beta, ContinuousDist, Sampler};
//! use pipefail_stats::rng::seeded_rng;
//!
//! let mut rng = seeded_rng(7);
//! let beta = Beta::new(2.0, 5.0).unwrap();
//! let x = beta.sample(&mut rng);
//! assert!((0.0..=1.0).contains(&x));
//! assert!(beta.pdf(0.2) > 0.0);
//! ```

pub mod descriptive;
pub mod dist;
#[cfg(test)]
mod proptests;
pub mod hypothesis;
pub mod linalg;
pub mod rng;
pub mod special;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was out of its domain (e.g. a non-positive
    /// shape). The payload names the offending parameter.
    BadParameter(&'static str),
    /// The input slice was empty or too short for the requested statistic.
    NotEnoughData(&'static str),
    /// An iterative routine failed to converge.
    NoConvergence(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::BadParameter(what) => write!(f, "invalid parameter: {what}"),
            StatsError::NotEnoughData(what) => write!(f, "not enough data: {what}"),
            StatsError::NoConvergence(what) => write!(f, "no convergence: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
