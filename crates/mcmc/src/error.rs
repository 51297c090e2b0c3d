//! Typed sampler failures.
//!
//! The long-running Metropolis-within-Gibbs fits must *report* numerical
//! trouble instead of panicking: a non-finite log-posterior, a diverged or
//! stuck chain, or an exhausted wall-clock budget all surface as
//! [`McmcError`] values that callers (the eval runner's retry policy, the
//! experiment suite) can match on and recover from.

/// A failure inside an MCMC kernel or sweep loop.
#[derive(Debug, Clone, PartialEq)]
pub enum McmcError {
    /// The log-posterior evaluated to NaN (or the chain's current state has
    /// zero posterior mass), so no transition kernel can proceed.
    NonFiniteLogPosterior {
        /// Which coordinate / monitor was being updated.
        coordinate: &'static str,
        /// The state at which the log-posterior was non-finite.
        at: f64,
    },
    /// The chain produced more non-finite draws/monitors than the
    /// divergence budget allows.
    ChainDiverged {
        /// Sweep index at which the budget was exhausted.
        sweep: usize,
        /// Number of divergent observations.
        divergences: usize,
    },
    /// The chain stopped moving: a full monitoring window showed (near-)zero
    /// draw variance.
    ChainStuck {
        /// Sweep index at which stickiness was declared.
        sweep: usize,
        /// Human-readable detector detail (which window tripped and why).
        detail: String,
    },
    /// The sampler exceeded its wall-clock budget.
    Timeout {
        /// Seconds elapsed when the deadline check tripped.
        elapsed_secs: f64,
        /// The configured budget in seconds.
        budget_secs: f64,
    },
    /// A kernel was configured with an invalid width.
    BadKernelConfig(&'static str),
}

impl std::fmt::Display for McmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McmcError::NonFiniteLogPosterior { coordinate, at } => {
                write!(f, "non-finite log-posterior for {coordinate} at {at}")
            }
            McmcError::ChainDiverged { sweep, divergences } => {
                write!(f, "chain diverged by sweep {sweep} ({divergences} divergences)")
            }
            McmcError::ChainStuck { sweep, detail } => {
                write!(f, "chain stuck at sweep {sweep}: {detail}")
            }
            McmcError::Timeout {
                elapsed_secs,
                budget_secs,
            } => write!(
                f,
                "sampler exceeded wall-clock budget: {elapsed_secs:.1}s of {budget_secs:.1}s"
            ),
            McmcError::BadKernelConfig(s) => write!(f, "bad kernel config: {s}"),
        }
    }
}

impl std::error::Error for McmcError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, McmcError>;
