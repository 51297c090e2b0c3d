// Library code must surface failures as typed `CoreError`s, never unwrap
// its way into a panic; tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Every public item carries documentation; rustdoc builds warning-clean
// (CI runs `cargo doc` with `-D warnings`).
#![warn(missing_docs)]

//! # pipefail-core
//!
//! The papers' contributions, implemented from scratch:
//!
//! * [`bernoulli_process`] — the sparse binary failure matrices of
//!   §18.3.1.2 (Fig. 18.3);
//! * [`hier`] — what the two hierarchical beta-process models share: the
//!   deduplicated observation patterns, their marginal Beta–Bernoulli
//!   likelihood, and [`hier::GroupPrior`], the prior on a group's `(q, c)`
//!   with the one step that updates them;
//! * [`crp`] — the Escobar–West update of the Dirichlet-process
//!   concentration of the Chinese restaurant process (Eq. 18.6);
//! * [`hbp`] — the hierarchical beta process with *fixed expert groupings*
//!   (material / diameter / laid-year), the strongest prior-work baseline
//!   [Li et al., Mach. Learn. 95(1)];
//! * [`dpmhbp`] — the proposed Dirichlet-process mixture of hierarchical
//!   beta processes (Eq. 18.7), fitted by Metropolis-within-Gibbs (Neal's
//!   Algorithm 8 for assignments, the shared group step for group
//!   parameters, Escobar–West for the DP concentration);
//! * [`ranking`] — the rank-based data-mining method of the ICDE'13 paper
//!   (Eq. 18.10): a linear scoring function optimised for AUC, via pairwise
//!   hinge SGD and an evolution-strategy direct optimiser;
//! * [`covariates`] — the multiplicative covariate adjustment ("features are
//!   applied multiplicatively", §18.4.3) shared by the Bayesian models;
//! * [`model`] — the [`model::FailureModel`] trait every predictor
//!   implements, producing a [`model::RiskRanking`] over pipes;
//! * [`snapshot`] — the versioned, checksummed model-snapshot format that
//!   freezes a fitted model (ranking + posterior summary) for the serving
//!   layer (`pipefail-serve`); spec in `docs/SNAPSHOT_FORMAT.md`.

pub mod bernoulli_process;
pub mod covariates;
pub mod crp;
pub mod dpmhbp;
pub mod hbp;
pub mod hier;
pub mod model;
pub mod ranking;
pub mod snapshot;
pub mod validate;

use pipefail_network::NetworkError;
// Re-exported so downstream crates can match on `CoreError::Chain(..)`
// variants without a direct pipefail-mcmc dependency.
pub use pipefail_mcmc::McmcError;

/// Errors from model fitting and the experiment pipeline around it.
///
/// `Clone + PartialEq` are kept so retry policies can compare and store
/// failures; wrapped I/O errors are therefore carried as strings.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid configuration value.
    BadConfig(&'static str),
    /// The dataset lacks what the model needs (e.g. no pipes of the class).
    EmptyEvaluationSet(&'static str),
    /// An optimisation failed to make progress.
    FitFailed(String),
    /// The input data is corrupt in a way fitting cannot tolerate
    /// (non-finite covariates, negative ages, dangling references, …).
    DataFault(String),
    /// An MCMC chain failed (diverged, stuck, non-finite posterior, timeout).
    Chain(McmcError),
    /// A network-dataset error (CSV I/O, referential integrity).
    Network(NetworkError),
    /// An I/O error outside the dataset layer (snapshot files, artefacts).
    Io(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadConfig(s) => write!(f, "bad config: {s}"),
            CoreError::EmptyEvaluationSet(s) => write!(f, "empty evaluation set: {s}"),
            CoreError::FitFailed(s) => write!(f, "fit failed: {s}"),
            CoreError::DataFault(s) => write!(f, "data fault: {s}"),
            CoreError::Chain(e) => write!(f, "chain failure: {e}"),
            CoreError::Network(e) => write!(f, "network dataset error: {e}"),
            CoreError::Io(s) => write!(f, "io error: {s}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Chain(e) => Some(e),
            CoreError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<McmcError> for CoreError {
    fn from(e: McmcError) -> Self {
        CoreError::Chain(e)
    }
}

impl From<NetworkError> for CoreError {
    fn from(e: NetworkError) -> Self {
        CoreError::Network(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn question_mark_converts_across_crates() {
        fn chain() -> Result<()> {
            Err(McmcError::BadKernelConfig("w"))?
        }
        fn io() -> Result<()> {
            Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))?
        }
        fn network() -> Result<()> {
            Err(NetworkError::Invalid("bad row".into()))?
        }
        assert!(matches!(chain(), Err(CoreError::Chain(_))));
        assert!(matches!(io(), Err(CoreError::Io(_))));
        assert!(matches!(network(), Err(CoreError::Network(_))));
    }

    #[test]
    fn source_exposes_the_underlying_error() {
        use std::error::Error;
        let e = CoreError::Chain(McmcError::ChainStuck {
            sweep: 10,
            detail: "flat".into(),
        });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("chain failure"));
    }
}
