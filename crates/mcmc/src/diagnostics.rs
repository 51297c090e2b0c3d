//! Chain convergence diagnostics: autocorrelation, effective sample size,
//! split-R̂ (Gelman–Rubin) and the Geweke score — plus [`ChainHealth`], the
//! *online* monitor the fit loops run every sweep to turn numerical trouble
//! (divergent draws, stuck chains, blown wall-clock budgets) into typed
//! [`McmcError`]s instead of silent garbage or panics.

use crate::error::McmcError;
use pipefail_stats::descriptive::{mean, variance};
use std::time::Instant;

/// Autocorrelation of `xs` at `lag` (biased estimator, the standard choice
/// for ESS computation). Returns 0 for degenerate inputs.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n || n < 2 {
        return 0.0;
    }
    let m = match mean(xs) {
        Ok(v) => v,
        Err(_) => return 0.0,
    };
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = xs[..n - lag]
        .iter()
        .zip(&xs[lag..])
        .map(|(a, b)| (a - m) * (b - m))
        .sum();
    num / denom
}

/// Effective sample size by Geyer's initial positive sequence: sum paired
/// autocorrelations `ρ_{2t} + ρ_{2t+1}` until the pair goes non-positive.
pub fn effective_sample_size(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return n as f64;
    }
    let mut acf_sum = 0.0;
    let mut t = 1;
    while 2 * t + 1 < n {
        let pair = autocorrelation(xs, 2 * t - 1) + autocorrelation(xs, 2 * t);
        if pair <= 0.0 {
            break;
        }
        acf_sum += pair;
        t += 1;
    }
    let ess = n as f64 / (1.0 + 2.0 * acf_sum);
    ess.clamp(1.0, n as f64)
}

/// Split-R̂: fold one chain into halves and compute the Gelman–Rubin
/// potential scale-reduction factor. Values near 1.0 indicate convergence;
/// above ~1.05 the chain has not mixed.
pub fn split_r_hat(xs: &[f64]) -> f64 {
    let n = xs.len() / 2;
    if n < 2 {
        return f64::NAN;
    }
    let a = &xs[..n];
    let b = &xs[n..2 * n];
    r_hat_two(a, b)
}

/// R̂ for two chains of equal length.
pub fn r_hat_two(a: &[f64], b: &[f64]) -> f64 {
    r_hat_many(&[a, b])
}

/// Gelman–Rubin R̂ across `m ≥ 2` independent chains (the multi-chain
/// diagnostic the two-chain and split variants specialise). Chains are
/// truncated to the shortest length; values near 1.0 indicate the chains
/// explore the same distribution.
pub fn r_hat_many(chains: &[&[f64]]) -> f64 {
    let m = chains.len();
    let n = chains.iter().map(|c| c.len()).min().unwrap_or(0);
    if m < 2 || n < 2 {
        return f64::NAN;
    }
    let chains: Vec<&[f64]> = chains.iter().map(|c| &c[..n]).collect();
    let means: Vec<f64> = chains.iter().map(|c| mean(c).unwrap_or(0.0)).collect();
    let w = chains
        .iter()
        .map(|c| variance(c).unwrap_or(0.0))
        .sum::<f64>()
        / m as f64;
    if w == 0.0 {
        return 1.0; // constant chains: formally converged
    }
    let grand = means.iter().sum::<f64>() / m as f64;
    // B = n/(m−1) · Σ (mean_j − grand)², the between-chain variance.
    let b = n as f64 / (m as f64 - 1.0)
        * means.iter().map(|mj| (mj - grand).powi(2)).sum::<f64>();
    let var_plus = (n as f64 - 1.0) / n as f64 * w + b / n as f64;
    (var_plus / w).sqrt()
}

/// Geweke convergence score: z-statistic comparing the mean of the first
/// `frac_a` of the chain against the last `frac_b`. |z| > 2 suggests the
/// chain has not reached stationarity.
pub fn geweke(xs: &[f64], frac_a: f64, frac_b: f64) -> f64 {
    let n = xs.len();
    let na = (n as f64 * frac_a) as usize;
    let nb = (n as f64 * frac_b) as usize;
    if na < 2 || nb < 2 || na + nb > n {
        return f64::NAN;
    }
    let a = &xs[..na];
    let b = &xs[n - nb..];
    let ma = mean(a).unwrap_or(0.0);
    let mb = mean(b).unwrap_or(0.0);
    // Spectral-density-at-zero estimate via ESS-corrected variance.
    let se2_a = variance(a).unwrap_or(0.0) / effective_sample_size(a);
    let se2_b = variance(b).unwrap_or(0.0) / effective_sample_size(b);
    let denom = (se2_a + se2_b).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (ma - mb) / denom
}

/// Non-finite monitor draws [`ChainHealth`] tolerates before it declares
/// the chain diverged. Divergences can be transient (one pathological
/// proposal), so a small budget avoids failing chains that recover.
const MAX_DIVERGENCES: usize = 25;

/// Sweeps per stuck-detection window. Each full window is tested and the
/// window then restarts, so detection latency is at most twice this.
const STUCK_WINDOW: usize = 50;

/// A full window whose draw standard deviation falls below
/// `MIN_DRAW_STD * (1 + |window mean|)` is declared stuck.
const MIN_DRAW_STD: f64 = 1e-10;

/// Online chain-health monitor.
///
/// A fit loop calls [`ChainHealth::begin_sweep`] at the top of every Gibbs
/// sweep (wall-clock check) and [`ChainHealth::observe_monitor`] with one or
/// more scalar monitors of the chain state (e.g. the size-weighted mean
/// failure rate). Any check that trips returns a typed [`McmcError`] the caller propagates; the retry
/// policy upstream decides whether to restart with a fresh seed. The
/// chain is declared diverged after its 26th non-finite monitor draw, and
/// stuck when a 50-sweep window of draws has a standard deviation below
/// `1e-10 · (1 + |window mean|)`.
#[derive(Debug)]
pub struct ChainHealth {
    budget_secs: Option<f64>,
    sweep: usize,
    divergences: usize,
    window_draws: Vec<f64>,
    started: Instant,
}

impl ChainHealth {
    /// Start monitoring now, with an optional wall-clock budget in seconds
    /// that runs from this call.
    pub fn new(budget_secs: Option<f64>) -> Self {
        Self {
            budget_secs,
            sweep: 0,
            divergences: 0,
            window_draws: Vec::with_capacity(STUCK_WINDOW),
            started: Instant::now(),
        }
    }

    /// Sweeps observed so far.
    pub fn sweep(&self) -> usize {
        self.sweep
    }

    /// Non-finite monitor draws observed so far.
    pub fn divergences(&self) -> usize {
        self.divergences
    }

    /// Mark the start of a Gibbs sweep; errors if the wall-clock budget is
    /// exhausted.
    pub fn begin_sweep(&mut self) -> Result<(), McmcError> {
        self.sweep += 1;
        if let Some(budget) = self.budget_secs {
            let elapsed = self.started.elapsed().as_secs_f64();
            if elapsed > budget {
                return Err(McmcError::Timeout {
                    elapsed_secs: elapsed,
                    budget_secs: budget,
                });
            }
        }
        Ok(())
    }

    /// Feed one scalar monitor of the chain state. Non-finite values count
    /// against the divergence budget; finite values feed the stuck-chain
    /// variance window.
    pub fn observe_monitor(&mut self, x: f64) -> Result<(), McmcError> {
        if !x.is_finite() {
            self.divergences += 1;
            if self.divergences > MAX_DIVERGENCES {
                return Err(McmcError::ChainDiverged {
                    sweep: self.sweep,
                    divergences: self.divergences,
                });
            }
            return Ok(());
        }
        self.window_draws.push(x);
        if self.window_draws.len() >= STUCK_WINDOW {
            let m = mean(&self.window_draws).unwrap_or(0.0);
            let sd = variance(&self.window_draws).unwrap_or(0.0).sqrt();
            self.window_draws.clear();
            if sd < MIN_DRAW_STD * (1.0 + m.abs()) {
                return Err(McmcError::ChainStuck {
                    sweep: self.sweep,
                    detail: format!(
                        "monitor draw std {sd:.3e} below floor over a {STUCK_WINDOW} -sweep window"
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_stats::dist::{Normal, Sampler};
    use pipefail_stats::rng::seeded_rng;

    #[test]
    fn iid_chain_has_near_full_ess() {
        let mut rng = seeded_rng(50);
        let xs = Normal::standard().sample_n(&mut rng, 5_000);
        let ess = effective_sample_size(&xs);
        assert!(ess > 3_500.0, "ess {ess}");
    }

    #[test]
    fn ar1_chain_has_reduced_ess() {
        // AR(1) with φ = 0.9 has ESS ≈ n(1−φ)/(1+φ) ≈ n/19.
        let mut rng = seeded_rng(51);
        let n = 20_000;
        let mut xs = Vec::with_capacity(n);
        let mut x = 0.0;
        let noise = Normal::standard();
        for _ in 0..n {
            x = 0.9 * x + noise.sample(&mut rng);
            xs.push(x);
        }
        let ess = effective_sample_size(&xs);
        let expected = n as f64 / 19.0;
        assert!(
            ess > expected * 0.5 && ess < expected * 2.0,
            "ess {ess} vs expected {expected}"
        );
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0];
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
        assert_eq!(autocorrelation(&xs, 10), 0.0);
    }

    #[test]
    fn r_hat_near_one_for_same_distribution() {
        let mut rng = seeded_rng(52);
        let xs = Normal::standard().sample_n(&mut rng, 4_000);
        let r = split_r_hat(&xs);
        assert!((r - 1.0).abs() < 0.02, "r_hat {r}");
    }

    #[test]
    fn r_hat_large_for_divergent_chains() {
        let mut rng = seeded_rng(53);
        let a = Normal::new(0.0, 1.0).unwrap().sample_n(&mut rng, 1_000);
        let b = Normal::new(10.0, 1.0).unwrap().sample_n(&mut rng, 1_000);
        let r = r_hat_two(&a, &b);
        assert!(r > 2.0, "r_hat {r}");
    }

    #[test]
    fn r_hat_many_agrees_with_two_chain_case() {
        let mut rng = seeded_rng(57);
        let a = Normal::standard().sample_n(&mut rng, 500);
        let b = Normal::standard().sample_n(&mut rng, 500);
        assert_eq!(r_hat_two(&a, &b), r_hat_many(&[&a, &b]));
    }

    #[test]
    fn r_hat_many_near_one_for_iid_chains() {
        let mut rng = seeded_rng(58);
        let chains: Vec<Vec<f64>> = (0..4)
            .map(|_| Normal::standard().sample_n(&mut rng, 2_000))
            .collect();
        let refs: Vec<&[f64]> = chains.iter().map(Vec::as_slice).collect();
        let r = r_hat_many(&refs);
        assert!((r - 1.0).abs() < 0.03, "r_hat {r}");
    }

    #[test]
    fn r_hat_many_flags_one_divergent_chain() {
        let mut rng = seeded_rng(59);
        let mut chains: Vec<Vec<f64>> = (0..3)
            .map(|_| Normal::standard().sample_n(&mut rng, 1_000))
            .collect();
        chains.push(Normal::new(8.0, 1.0).unwrap().sample_n(&mut rng, 1_000));
        let refs: Vec<&[f64]> = chains.iter().map(Vec::as_slice).collect();
        let r = r_hat_many(&refs);
        assert!(r > 1.5, "r_hat {r}");
    }

    #[test]
    fn r_hat_many_degenerate_inputs() {
        let a = [1.0, 2.0, 3.0];
        assert!(r_hat_many(&[&a]).is_nan(), "one chain is no comparison");
        assert!(r_hat_many(&[&a, &[1.0]]).is_nan(), "too short after truncation");
        let c = [2.0; 50];
        assert_eq!(r_hat_many(&[&c, &c, &c]), 1.0);
    }

    #[test]
    fn geweke_flags_trend() {
        // Strong linear trend: early vs late means differ.
        let xs: Vec<f64> = (0..2_000).map(|i| i as f64 * 0.01).collect();
        let z = geweke(&xs, 0.1, 0.5);
        assert!(z.abs() > 3.0, "geweke {z}");
    }

    #[test]
    fn geweke_ok_for_stationary() {
        let mut rng = seeded_rng(54);
        let xs = Normal::standard().sample_n(&mut rng, 5_000);
        let z = geweke(&xs, 0.1, 0.5);
        assert!(z.abs() < 3.0, "geweke {z}");
    }

    #[test]
    fn constant_chain_edge_cases() {
        let xs = [2.0; 100];
        assert_eq!(autocorrelation(&xs, 3), 0.0);
        assert_eq!(split_r_hat(&xs), 1.0);
    }

    #[test]
    fn health_tolerates_sporadic_divergences() {
        let mut h = ChainHealth::new(None);
        let mut rng = seeded_rng(55);
        let noise = Normal::standard();
        for i in 0..500 {
            h.begin_sweep().unwrap();
            let x = if i % 100 == 7 { f64::NAN } else { noise.sample(&mut rng) };
            h.observe_monitor(x).unwrap();
        }
        assert_eq!(h.divergences(), 5);
    }

    #[test]
    fn health_flags_divergence_budget_exhaustion() {
        let mut h = ChainHealth::new(None);
        let mut err = None;
        for _ in 0..2 * MAX_DIVERGENCES {
            h.begin_sweep().unwrap();
            if let Err(e) = h.observe_monitor(f64::INFINITY) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(
            err,
            Some(McmcError::ChainDiverged { divergences, .. }) if divergences == MAX_DIVERGENCES + 1
        ));
    }

    #[test]
    fn health_flags_stuck_constant_monitor() {
        let mut h = ChainHealth::new(None);
        let mut err = None;
        for _ in 0..200 {
            h.begin_sweep().unwrap();
            if let Err(e) = h.observe_monitor(3.25) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(McmcError::ChainStuck { .. })), "{err:?}");
    }

    #[test]
    fn health_accepts_a_moving_chain() {
        let mut h = ChainHealth::new(None);
        let mut rng = seeded_rng(56);
        let noise = Normal::standard();
        for _ in 0..1_000 {
            h.begin_sweep().unwrap();
            h.observe_monitor(noise.sample(&mut rng)).unwrap();
        }
    }

    #[test]
    fn health_enforces_wall_clock_budget() {
        let mut h = ChainHealth::new(Some(0.0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(h.begin_sweep(), Err(McmcError::Timeout { .. })));
    }
}
