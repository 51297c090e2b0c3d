//! Cox proportional hazards (Eq. 18.8) with left truncation and Breslow
//! ties.
//!
//! `h(t, z) = h₀(t)·exp(bᵀz)` on the pipe-age time scale. The partial
//! likelihood is maximised by Newton–Raphson with step halving; risk sets
//! honour delayed entry (see [`crate::survival`]). The baseline hazard comes
//! from the Breslow estimator, kernel-smoothed so that one-year-ahead risk
//! is defined at ages beyond the last training event.

use crate::survival::{build_survival, SurvivalRow};
use pipefail_core::model::{FailureModel, RiskRanking, RiskScore};
use pipefail_core::{CoreError, Result};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::FeatureMask;
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::linalg::solve_spd;

/// Fitted coefficients plus Breslow baseline increments `(event age, dΛ₀)`.
type CoxFit = (Vec<f64>, Vec<(f64, f64)>);

/// Cox model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoxConfig {
    /// Feature groups.
    pub features: FeatureMask,
    /// Newton iterations.
    pub max_iter: usize,
    /// L2 ridge on the coefficients (stabilises separation).
    pub l2: f64,
    /// Bandwidth (years) of the Epanechnikov smoother on the baseline
    /// hazard increments.
    pub baseline_bandwidth: f64,
}

impl Default for CoxConfig {
    fn default() -> Self {
        Self {
            features: FeatureMask::water_mains(),
            max_iter: 30,
            l2: 1e-3,
            baseline_bandwidth: 7.0,
        }
    }
}

/// The fitted-state Cox model.
#[derive(Debug, Clone)]
pub struct CoxModel {
    config: CoxConfig,
    beta: Vec<f64>,
    /// (event age, Breslow increment) pairs from the last fit.
    baseline: Vec<(f64, f64)>,
}

impl CoxModel {
    /// Create with a configuration.
    pub fn new(config: CoxConfig) -> Self {
        Self {
            config,
            beta: Vec::new(),
            baseline: Vec::new(),
        }
    }

    /// Create with defaults.
    pub fn default_config() -> Self {
        Self::new(CoxConfig::default())
    }

    /// Fitted coefficients of the last fit.
    pub fn beta(&self) -> &[f64] {
        &self.beta
    }

    /// Smoothed baseline hazard rate at age `t` (per year).
    pub fn baseline_hazard(&self, t: f64) -> f64 {
        if self.baseline.is_empty() {
            return 0.0;
        }
        let bw = self.config.baseline_bandwidth.max(1e-6);
        let mut num = 0.0;
        let mut den = 0.0;
        for &(age, inc) in &self.baseline {
            let u = (t - age) / bw;
            if u.abs() < 1.0 {
                let k = 0.75 * (1.0 - u * u);
                num += k * inc;
                den += k;
            }
        }
        if den > 0.0 {
            // Kernel-weighted mean increment ≈ hazard per year near t.
            num / den
        } else {
            // Outside the data range: fall back to the mean increment.
            let mean: f64 =
                self.baseline.iter().map(|(_, i)| i).sum::<f64>() / self.baseline.len() as f64;
            mean
        }
    }

    /// Fit the partial likelihood; returns `(beta, baseline increments)`.
    fn fit_partial_likelihood(
        rows: &[SurvivalRow],
        l2: f64,
        max_iter: usize,
    ) -> Result<CoxFit> {
        let d = rows.first().map_or(0, |r| r.x.len());
        let engine = RiskSetEngine::new(rows)?;
        let mut beta = vec![0.0; d];
        let mut current_ll = engine.loglik(&beta, l2);
        for _ in 0..max_iter {
            let (grad, mut hess) = engine.newton_terms(&beta, l2);
            let step = solve_spd(&mut hess, &grad, d)
                .ok_or_else(|| CoreError::FitFailed("Cox: singular information matrix".into()))?;
            // Step halving.
            let mut scale = 1.0;
            let mut improved = false;
            for _ in 0..8 {
                let cand: Vec<f64> = beta
                    .iter()
                    .zip(&step)
                    .map(|(b, s)| b + scale * s)
                    .collect();
                let ll = engine.loglik(&cand, l2);
                if ll > current_ll - 1e-12 {
                    let delta = ll - current_ll;
                    beta = cand;
                    current_ll = ll;
                    improved = true;
                    if delta < 1e-8 {
                        let baseline = engine.breslow(&beta);
                        return Ok((beta, baseline));
                    }
                    break;
                }
                scale *= 0.5;
            }
            if !improved {
                break;
            }
        }
        let baseline = engine.breslow(&beta);
        Ok((beta, baseline))
    }
}

/// Risk-set sweeps for the partial likelihood with delayed entry.
///
/// With left truncation the risk sets `{j : entry_j < t ≤ exit_j}` are not
/// nested, so instead of rescanning all subjects per event time (O(events ×
/// n · d²), prohibitive at full network scale) the engine sweeps event times
/// in *descending* order, adding each subject's weighted moments when `t`
/// drops to its exit and subtracting them when `t` drops to its entry —
/// O((n + events) · d²) total per Newton iteration.
struct RiskSetEngine<'a> {
    rows: &'a [SurvivalRow],
    d: usize,
    /// Distinct event ages, descending.
    event_ages_desc: Vec<f64>,
    /// Subject indices sorted by exit age, descending.
    by_exit: Vec<usize>,
    /// Subject indices sorted by entry age, descending.
    by_entry: Vec<usize>,
    /// `events_of[k]` = subjects whose event age equals `event_ages_desc[k]`.
    events_of: Vec<Vec<usize>>,
}

impl<'a> RiskSetEngine<'a> {
    fn new(rows: &'a [SurvivalRow]) -> Result<Self> {
        let d = rows.first().map_or(0, |r| r.x.len());
        let mut event_ages_desc: Vec<f64> = rows.iter().filter_map(|r| r.event_age).collect();
        event_ages_desc.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        event_ages_desc.dedup();
        if event_ages_desc.is_empty() {
            return Err(CoreError::FitFailed("Cox: no events in training window".into()));
        }
        let mut by_exit: Vec<usize> = (0..rows.len()).collect();
        by_exit.sort_by(|&a, &b| rows[b].exit.partial_cmp(&rows[a].exit).expect("finite"));
        let mut by_entry: Vec<usize> = (0..rows.len()).collect();
        by_entry.sort_by(|&a, &b| rows[b].entry.partial_cmp(&rows[a].entry).expect("finite"));
        let events_of = event_ages_desc
            .iter()
            .map(|&t| {
                rows.iter()
                    .enumerate()
                    .filter(|(_, r)| r.event_age == Some(t))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        Ok(Self {
            rows,
            d,
            event_ages_desc,
            by_exit,
            by_entry,
            events_of,
        })
    }

    fn weights(&self, beta: &[f64]) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                let lp: f64 = beta.iter().zip(&r.x).map(|(b, x)| b * x).sum();
                lp.clamp(-30.0, 30.0).exp()
            })
            .collect()
    }

    /// Sweep event times descending, calling `visit(k, d_t, event_idx, s0,
    /// s1, s2)` at each; `s1`/`s2` are only maintained when `order >= 1` /
    /// `>= 2`.
    fn sweep<F>(&self, w: &[f64], order: usize, mut visit: F)
    where
        F: FnMut(usize, &[usize], f64, &[f64], &[f64]),
    {
        let d = self.d;
        let mut s0 = 0.0;
        let mut s1 = vec![0.0; if order >= 1 { d } else { 0 }];
        let mut s2 = vec![0.0; if order >= 2 { d * d } else { 0 }];
        let mut next_exit = 0;
        let mut next_entry = 0;
        let apply = |i: usize, sign: f64, s0: &mut f64, s1: &mut [f64], s2: &mut [f64]| {
            let wi = sign * w[i];
            *s0 += wi;
            let x = &self.rows[i].x;
            if !s1.is_empty() {
                for j in 0..d {
                    s1[j] += wi * x[j];
                }
            }
            if !s2.is_empty() {
                for j in 0..d {
                    let wx = wi * x[j];
                    for k in j..d {
                        s2[j * d + k] += wx * x[k];
                    }
                }
            }
        };
        for (k, &t) in self.event_ages_desc.iter().enumerate() {
            // Add subjects whose exit is ≥ t (they are at risk at t).
            while next_exit < self.by_exit.len() && self.rows[self.by_exit[next_exit]].exit >= t {
                apply(self.by_exit[next_exit], 1.0, &mut s0, &mut s1, &mut s2);
                next_exit += 1;
            }
            // Remove subjects whose entry is ≥ t (not yet under observation).
            while next_entry < self.by_entry.len()
                && self.rows[self.by_entry[next_entry]].entry >= t
            {
                let i = self.by_entry[next_entry];
                // Only subtract subjects that were added (exit ≥ t implies
                // already swept in, since exit > entry ≥ t).
                if self.rows[i].exit >= t {
                    apply(i, -1.0, &mut s0, &mut s1, &mut s2);
                }
                next_entry += 1;
            }
            visit(k, &self.events_of[k], s0, &s1, &s2);
        }
    }

    fn loglik(&self, beta: &[f64], l2: f64) -> f64 {
        let w = self.weights(beta);
        let mut ll = 0.0;
        self.sweep(&w, 0, |_, events, s0, _, _| {
            if s0 > 0.0 {
                for &i in events {
                    ll += w[i].ln();
                }
                ll -= events.len() as f64 * s0.ln();
            }
        });
        ll - 0.5 * l2 * beta.iter().map(|b| b * b).sum::<f64>()
    }

    fn newton_terms(&self, beta: &[f64], l2: f64) -> (Vec<f64>, Vec<f64>) {
        let d = self.d;
        let w = self.weights(beta);
        let mut grad = vec![0.0; d];
        let mut hess = vec![0.0; d * d];
        self.sweep(&w, 2, |_, events, s0, s1, s2| {
            if s0 <= 0.0 {
                return;
            }
            let d_t = events.len() as f64;
            for &i in events {
                for (g, x) in grad.iter_mut().zip(&self.rows[i].x) {
                    *g += x;
                }
            }
            for j in 0..d {
                grad[j] -= d_t * s1[j] / s0;
                for k in j..d {
                    let cov = s2[j * d + k] / s0 - (s1[j] / s0) * (s1[k] / s0);
                    hess[j * d + k] += d_t * cov;
                }
            }
        });
        for j in 0..d {
            grad[j] -= l2 * beta[j];
            hess[j * d + j] += l2;
        }
        for j in 0..d {
            for k in 0..j {
                hess[j * d + k] = hess[k * d + j];
            }
        }
        (grad, hess)
    }

    /// Breslow baseline-hazard increments, returned in ascending age order.
    fn breslow(&self, beta: &[f64]) -> Vec<(f64, f64)> {
        let w = self.weights(beta);
        let mut out = Vec::with_capacity(self.event_ages_desc.len());
        self.sweep(&w, 0, |k, events, s0, _, _| {
            let t = self.event_ages_desc[k];
            let inc = if s0 > 0.0 { events.len() as f64 / s0 } else { 0.0 };
            out.push((t, inc));
        });
        out.reverse();
        out
    }
}

impl FailureModel for CoxModel {
    fn name(&self) -> &'static str {
        "Cox"
    }

    fn posterior_summary(&self) -> Vec<pipefail_core::snapshot::SummarySection> {
        use pipefail_core::snapshot::SummarySection;
        vec![
            SummarySection::new("coefficients").with_field("beta", self.beta.clone()),
            SummarySection::new("baseline_hazard")
                .with_field("event_age", self.baseline.iter().map(|b| b.0).collect())
                .with_field("breslow_increment", self.baseline.iter().map(|b| b.1).collect()),
        ]
    }

    fn fit_rank_class(
        &mut self,
        dataset: &Dataset,
        split: &TrainTestSplit,
        class: PipeClass,
        _seed: u64,
    ) -> Result<RiskRanking> {
        pipefail_core::validate::validate_fit_inputs(dataset, split, class)?;
        let (rows, _) = build_survival(dataset, split, class, self.config.features);
        if rows.is_empty() {
            return Err(CoreError::EmptyEvaluationSet("no pipes with exposure"));
        }
        let (beta, baseline) =
            Self::fit_partial_likelihood(&rows, self.config.l2, self.config.max_iter)?;
        self.beta = beta;
        self.baseline = baseline;
        // One-year-ahead risk at the prediction year:
        // 1 − exp(−h₀(test_age)·e^{βᵀx}).
        let scores = rows
            .iter()
            .map(|r| {
                let lp: f64 = self.beta.iter().zip(&r.x).map(|(b, x)| b * x).sum();
                let h = self.baseline_hazard(r.test_age) * lp.clamp(-30.0, 30.0).exp();
                RiskScore {
                    pipe: r.pipe,
                    score: -(-h).exp_m1(),
                }
            })
            .collect();
        RiskRanking::try_new(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_synth::WorldConfig;

    fn demo_region() -> Dataset {
        WorldConfig::paper()
            .scaled(0.02)
            .only_region("Region A")
            .build(5)
            .regions()[0]
            .clone()
    }

    #[test]
    fn fits_and_ranks() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut cox = CoxModel::default_config();
        let ranking = cox.fit_rank(&ds, &split, 0).unwrap();
        assert!(!ranking.is_empty());
        assert!(!cox.beta().is_empty());
        assert!(cox.beta().iter().all(|b| b.is_finite()));
        for s in ranking.scores() {
            assert!((0.0..=1.0).contains(&s.score));
        }
    }

    #[test]
    fn recovers_sign_of_planted_covariate() {
        // Synthetic survival data with one covariate doubling the hazard.
        use pipefail_network::ids::PipeId;
        use pipefail_stats::rng::seeded_rng;
        use rand::Rng;
        let mut rng = seeded_rng(160);
        let mut rows = Vec::new();
        for i in 0..800 {
            let x = if i % 2 == 0 { 1.0 } else { 0.0 };
            let rate: f64 = 0.02 * (1.0f64.ln() * 0.0 + x * 0.9).exp();
            // Exponential event times with delayed entry at age 40.
            let entry = 40.0;
            let u: f64 = rng.gen();
            let t = entry - u.ln() / rate;
            let (exit, event) = if t <= 51.0 {
                (t, Some(t))
            } else {
                (51.0, None)
            };
            rows.push(SurvivalRow {
                pipe: PipeId(i),
                entry,
                exit,
                event_age: event,
                all_event_ages: event.into_iter().collect(),
                x: vec![x],
                test_age: 52.0,
            });
        }
        let (beta, baseline) = CoxModel::fit_partial_likelihood(&rows, 1e-4, 30).unwrap();
        assert!(
            (beta[0] - 0.9).abs() < 0.25,
            "beta {} should be near 0.9",
            beta[0]
        );
        assert!(!baseline.is_empty());
    }

    #[test]
    fn errors_without_events() {
        use pipefail_network::ids::PipeId;
        let rows = vec![SurvivalRow {
            pipe: PipeId(0),
            entry: 10.0,
            exit: 20.0,
            event_age: None,
            all_event_ages: vec![],
            x: vec![0.0],
            test_age: 21.0,
        }];
        assert!(CoxModel::fit_partial_likelihood(&rows, 1e-3, 10).is_err());
    }

    #[test]
    fn baseline_hazard_positive_near_events() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut cox = CoxModel::default_config();
        cox.fit_rank(&ds, &split, 0).unwrap();
        // Somewhere in the typical age range the baseline must be positive.
        let h: f64 = (30..90).map(|a| cox.baseline_hazard(a as f64)).sum();
        assert!(h > 0.0);
    }
}
