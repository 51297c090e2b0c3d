//! The Dirichlet process mixture of hierarchical beta processes (§18.3.3,
//! Eq. 18.7) — the paper's proposed model.
//!
//! Failure probability is modelled on three levels:
//!
//! * **segment-group level** — group failure rates `q_k ~ Beta(c₀q₀,
//!   c₀(1−q₀))`, with the number of groups unbounded (CRP prior on
//!   assignments `z_l`);
//! * **segment level** — `ρ_l ~ Beta(c_k q_k, c_k(1−q_k))`, with annual
//!   failure events `y_{l,j} ~ Bernoulli(ρ_l)` (sufficient statistics only;
//!   the binary matrix is never materialised);
//! * **pipe level** — `π_i = 1 − Π_l (1 − ρ_l)` over the pipe's segments in
//!   series, which is where pipe length enters (longer pipes have more
//!   segments).
//!
//! Inference is Metropolis-within-Gibbs: segment assignments by **Neal's
//! Algorithm 8** (auxiliary prior draws stand in for the intractable
//! new-cluster integral), group parameters `(q_k, c_k)` by
//! [`GroupPrior::step`], the slice step HBP's fixed groups use too, and the
//! DP concentration `α` by the Escobar–West auxiliary-variable step.
//! Covariates enter as exposure multipliers fitted by Poisson regression
//! (see [`crate::covariates`]).
//!
//! The auxiliary components follow the **ReUse** scheme of Favaro & Teh
//! (2013, *Statistical Science* 28(3)): a pool of `aux_m` empty clusters is
//! drawn from the prior at the start of each assignment sweep and kept alive
//! across unit updates, each with its cached likelihood column. A slot a
//! unit takes becomes a live cluster and is refilled from the prior; a
//! cluster that empties replaces a uniformly drawn slot, so a singleton's
//! own `(q, c)` stay among the auxiliaries, as Algorithm 8 requires.
//!
//! The sweep visits units pattern by pattern (the pattern table's order,
//! units ascending within a pattern). For each pattern it scales every
//! candidate's cached likelihood once, relative to the largest, and rescales
//! only when the candidates change (a cluster empties into the pool, or a
//! unit takes a pool slot), so a unit update is one multiply-add per
//! candidate and one uniform draw, with no `ln` or `exp`. A systematic scan
//! leaves the posterior invariant in any fixed order, and the order is a
//! function of the data, so a fit stays a pure function of its seed.

mod state;

use crate::covariates::CovariateAdjuster;
use crate::crp::resample_alpha;
use crate::hier::{sparse_counts, GroupPrior, PatternTable};
use crate::model::{FailureModel, RiskRanking, RiskScore};
use crate::{CoreError, Result};
use pipefail_mcmc::{ChainHealth, Schedule};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::FeatureMask;
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::rng::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;
use state::{Cluster, ClusterSlots};
use std::time::Instant;

/// DPMHBP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DpmhbpConfig {
    /// MCMC schedule.
    pub schedule: Schedule,
    /// Initial DP concentration α.
    pub alpha: f64,
    /// Resample α by Escobar–West each sweep.
    pub sample_alpha: bool,
    /// Gamma prior (shape, rate) on α when sampled.
    pub alpha_prior: (f64, f64),
    /// Hyper-prior mean failure rate `q₀`; `None` = empirical.
    pub q0: Option<f64>,
    /// Hyper concentration `c₀`.
    pub c0: f64,
    /// Gamma prior (shape, rate) on the group concentrations `c_k`.
    pub c_prior: (f64, f64),
    /// Number of auxiliary components in Neal's Algorithm 8: the size of
    /// the auxiliary pool that Favaro & Teh's ReUse scheme keeps alive
    /// across unit updates (0 counts as 1).
    pub aux_m: usize,
    /// Multiplicative covariate adjustment; `None` disables it.
    pub covariates: Option<FeatureMask>,
    /// Wall-clock budget of the whole fit in seconds, enforced by the
    /// online [`ChainHealth`] monitor; `None` = unbounded.
    pub budget_secs: Option<f64>,
}

impl Default for DpmhbpConfig {
    fn default() -> Self {
        Self {
            schedule: Schedule::new(300, 700, 1),
            alpha: 1.0,
            sample_alpha: true,
            alpha_prior: (2.0, 0.5),
            q0: None,
            c0: 5.0,
            c_prior: (2.0, 0.05),
            aux_m: 3,
            covariates: Some(FeatureMask::water_mains()),
            budget_secs: None,
        }
    }
}

impl DpmhbpConfig {
    /// A reduced schedule for tests, demos and benches.
    pub fn fast() -> Self {
        Self {
            schedule: Schedule::new(80, 150, 1),
            ..Self::default()
        }
    }
}

/// A pipe's posterior risk summary: Monte Carlo mean and standard
/// deviation of π across retained sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskPosterior {
    /// The pipe.
    pub pipe: pipefail_network::ids::PipeId,
    /// Posterior mean of the next-year failure probability.
    pub mean: f64,
    /// Posterior standard deviation (MCMC, parameter uncertainty only).
    pub sd: f64,
}

/// Convergence/diagnostic traces from a fit.
#[derive(Debug, Clone, Default)]
pub struct DpmhbpDiagnostics {
    /// Number of live clusters at each retained sweep.
    pub clusters: Vec<f64>,
    /// DP concentration α at each retained sweep.
    pub alpha: Vec<f64>,
    /// Size-weighted mean group rate at each retained sweep.
    pub mean_q: Vec<f64>,
    /// Wall-clock seconds spent in the assignment phase. Like the other
    /// phase times it is kept out of the posterior summary, which stays a
    /// function of the seed.
    pub assignment_secs: f64,
    /// Wall-clock seconds spent in the `(q_k, c_k)` parameter phase.
    pub parameter_secs: f64,
    /// Wall-clock seconds spent resampling `α`.
    pub alpha_secs: f64,
}

/// The DPMHBP failure-prediction model.
#[derive(Debug, Clone)]
pub struct Dpmhbp {
    config: DpmhbpConfig,
    diagnostics: DpmhbpDiagnostics,
    posterior: Vec<RiskPosterior>,
}

impl Dpmhbp {
    /// Create with a configuration.
    pub fn new(config: DpmhbpConfig) -> Self {
        Self {
            config,
            diagnostics: DpmhbpDiagnostics::default(),
            posterior: Vec::new(),
        }
    }

    /// Per-pipe posterior risk summaries (mean ± sd) from the most recent
    /// fit, in the evaluated pipes' order.
    pub fn risk_posterior(&self) -> &[RiskPosterior] {
        &self.posterior
    }

    /// Diagnostics of the most recent fit.
    pub fn diagnostics(&self) -> &DpmhbpDiagnostics {
        &self.diagnostics
    }

    /// Posterior-mean number of clusters from the most recent fit.
    pub fn mean_cluster_count(&self) -> Option<f64> {
        pipefail_stats::descriptive::mean(&self.diagnostics.clusters).ok()
    }
}

struct Sampler8<'a> {
    table: &'a PatternTable,
    slots: ClusterSlots,
    z: Vec<usize>,
    alpha: f64,
    prior: GroupPrior,
    aux_m: usize,
    /// The ReUse auxiliary pool: `aux_m` empty clusters with cached
    /// likelihood columns, drawn at the start of every assignment sweep.
    pool: Vec<Cluster>,
    /// The live clusters' slots, in the order the candidate list weighs
    /// them.
    cand_slots: Vec<usize>,
    /// `exp(loglik[p] − M)` of each live cluster in `cand_slots`, then of
    /// each pool slot, for the pattern `p` being swept, where `M` is the
    /// largest of these `loglik[p]`.
    cand_lik: Vec<f64>,
    /// `ln(1 − ρ̂)` per live slot and pattern (slot-major), scratch for
    /// [`Sampler8::unit_ln_survival`].
    ln_survival: Vec<f64>,
}

impl<'a> Sampler8<'a> {
    fn new(table: &'a PatternTable, config: &DpmhbpConfig, q0: f64, rng: &mut StdRng) -> Result<Self> {
        let aux_m = config.aux_m.max(1);
        let mut s = Self {
            table,
            slots: ClusterSlots::new(),
            z: vec![usize::MAX; table.units()],
            alpha: config.alpha,
            prior: GroupPrior::new(q0, config.c0, config.c_prior)?,
            aux_m,
            pool: Vec::with_capacity(aux_m),
            cand_slots: Vec::new(),
            cand_lik: Vec::new(),
            ln_survival: Vec::new(),
        };
        // Initialise: everyone in one cluster drawn from the prior.
        let first = s.prior_cluster(rng);
        let slot = s.slots.insert(first);
        for l in 0..table.units() {
            s.assign(l, slot);
        }
        Ok(s)
    }

    /// An empty cluster with `(q, c)` drawn from the prior and its
    /// likelihood column cached.
    fn prior_cluster(&self, rng: &mut StdRng) -> Cluster {
        let (q, c) = self.prior.draw(rng);
        Cluster::new(q, c, self.table)
    }

    fn assign(&mut self, unit: usize, slot: usize) {
        let pat = self.table.pattern_of(unit);
        let c = self.slots.get_mut(slot);
        c.n += 1;
        c.pattern_counts[pat] += 1.0;
        self.z[unit] = slot;
    }

    /// One CRP sweep over all units: Neal's Algorithm 8 over the ReUse
    /// pool, visiting units pattern by pattern. A unit weighs the live
    /// clusters by `n_k · lik_k` and the pool slots by `(α/m) · lik_j`, with
    /// the candidates' likelihoods of its pattern scaled once by
    /// [`scale_candidates`](Self::scale_candidates); a prior draw happens
    /// only to refill a slot that a unit took.
    fn sweep_assignments(&mut self, rng: &mut StdRng) {
        self.pool.clear();
        for _ in 0..self.aux_m {
            let aux = self.prior_cluster(rng);
            self.pool.push(aux);
        }
        let alpha_m = self.alpha / self.aux_m as f64;
        let table = self.table;
        for pat in 0..table.len() {
            self.scale_candidates(pat);
            for &unit in table.units_of(pat) {
                // Take the unit out. A cluster left empty replaces a
                // uniformly drawn pool slot, column included, so its (q, c)
                // stay among the auxiliaries the unit is weighed against.
                let slot = self.z[unit];
                let c = self.slots.get_mut(slot);
                c.n -= 1;
                c.pattern_counts[pat] -= 1.0;
                if c.n == 0 {
                    let j = rng.gen_range(0..self.pool.len());
                    self.pool[j] = self.slots.remove(slot);
                    self.scale_candidates(pat);
                }
                let choice = self.draw_candidate(alpha_m, rng.gen());
                let slot = match choice.checked_sub(self.cand_slots.len()) {
                    None => self.cand_slots[choice],
                    Some(j) => {
                        let refill = self.prior_cluster(rng);
                        self.open_pool_slot(j, refill, pat)
                    }
                };
                self.assign(unit, slot);
            }
        }
    }

    /// Rebuild the candidate list for pattern `pat`: every live cluster,
    /// then every pool slot, each with `exp(loglik[pat] − M)`, where `M` is
    /// the largest candidate `loglik[pat]`. One `exp` per candidate; only a
    /// likelihood more than ~745 below the largest in log scale underflows.
    fn scale_candidates(&mut self, pat: usize) {
        self.cand_slots.clear();
        self.cand_lik.clear();
        for (slot, cluster) in self.slots.iter() {
            self.cand_slots.push(slot);
            self.cand_lik.push(cluster.loglik[pat]);
        }
        self.cand_lik
            .extend(self.pool.iter().map(|aux| aux.loglik[pat]));
        let max = self
            .cand_lik
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        for lik in &mut self.cand_lik {
            *lik = (*lik - max).exp();
        }
    }

    /// The unnormalised weights of the candidates, in list order: `n_k ·
    /// lik_k` per live cluster, then `(α/m) · lik_j` per pool slot.
    fn candidate_weights(&self, alpha_m: f64) -> impl Iterator<Item = f64> + '_ {
        self.cand_slots
            .iter()
            .map(|&slot| self.slots.get(slot).n as f64)
            .chain(std::iter::repeat(alpha_m))
            .zip(&self.cand_lik)
            .map(|(w, lik)| w * lik)
    }

    /// The candidate whose cumulative weight first exceeds `u` times the
    /// total, for a uniform `u ∈ [0, 1)`: an index into the candidate list.
    /// A weight of zero is never chosen.
    fn draw_candidate(&self, alpha_m: f64, u: f64) -> usize {
        let target = u * self.candidate_weights(alpha_m).sum::<f64>();
        let mut acc = 0.0;
        let mut last_positive = 0;
        for (i, w) in self.candidate_weights(alpha_m).enumerate() {
            acc += w;
            if target < acc {
                return i;
            }
            if w > 0.0 {
                last_positive = i;
            }
        }
        last_positive // `u · total` rounded up to the total
    }

    /// Move pool slot `j` into the live clusters and put `refill` in its
    /// place, then rescale the candidates for pattern `pat`. Returns the new
    /// cluster's slot.
    fn open_pool_slot(&mut self, j: usize, refill: Cluster, pat: usize) -> usize {
        let slot = self
            .slots
            .insert(std::mem::replace(&mut self.pool[j], refill));
        self.scale_candidates(pat);
        slot
    }

    /// Update `(q_k, c_k)` for every live cluster and refresh caches.
    /// Errors (instead of panicking) when a cluster's current parameters
    /// have non-finite posterior density.
    fn sweep_parameters(&mut self, rng: &mut StdRng) -> Result<()> {
        for slot in self.slots.live_slots() {
            let cl = self.slots.get_mut(slot);
            let counts = sparse_counts(&cl.pattern_counts);
            (cl.q, cl.c) = self.prior.step(self.table, &counts, cl.q, cl.c, rng)?;
            cl.refresh_cache(self.table);
        }
        Ok(())
    }

    fn sweep_alpha(&mut self, prior: (f64, f64), rng: &mut StdRng) {
        self.alpha = resample_alpha(
            self.alpha,
            self.slots.len(),
            self.table.units(),
            prior.0,
            prior.1,
            rng,
        );
    }

    /// `ln(1 − ρ̂)` of every unit under the current state, in unit order,
    /// where `ρ̂` is the posterior mean of the unit's failure probability
    /// given its cluster's `(q, c)`, clamped to `[0, 1 − 1e-12]`. Each
    /// (cluster, pattern) pair with members is evaluated once.
    fn unit_ln_survival(&mut self) -> impl Iterator<Item = f64> + '_ {
        let width = self.table.len();
        self.ln_survival
            .resize(self.slots.slot_bound() * width, 0.0);
        for (slot, cl) in self.slots.iter() {
            for (pat, &count) in cl.pattern_counts.iter().enumerate() {
                if count > 0.0 {
                    let rho = self
                        .table
                        .pattern(pat)
                        .posterior_mean(cl.q, cl.c)
                        .clamp(0.0, 1.0 - 1e-12);
                    self.ln_survival[slot * width + pat] = (1.0 - rho).ln();
                }
            }
        }
        let (table, ln_survival) = (self.table, &self.ln_survival);
        self.z
            .iter()
            .enumerate()
            .map(move |(unit, &slot)| ln_survival[slot * width + table.pattern_of(unit)])
    }

    /// Debug cross-check of the incremental caches: every live cluster's
    /// and every pool slot's likelihood column must match a from-scratch
    /// recompute at its current `(q, c)`; a live cluster's membership
    /// bookkeeping must match a from-scratch histogram of `z`, and a pool
    /// slot must have no members. Compiled away in release builds.
    #[cfg(debug_assertions)]
    fn debug_validate_caches(&self) {
        debug_assert_eq!(self.pool.len(), self.aux_m);
        for (j, aux) in self.pool.iter().enumerate() {
            let err = aux.cache_error(self.table);
            debug_assert!(
                err <= 1e-12,
                "stale likelihood cache in pool slot {j}: max deviation {err:e}"
            );
            debug_assert_eq!(aux.n, 0, "pool slot {j} has members");
            debug_assert!(
                aux.pattern_counts.iter().all(|&k| k == 0.0),
                "pool slot {j} has pattern counts"
            );
        }
        let mut n_by_slot: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        let mut counts_by_slot: std::collections::HashMap<usize, Vec<f64>> =
            std::collections::HashMap::new();
        for (unit, &slot) in self.z.iter().enumerate() {
            *n_by_slot.entry(slot).or_insert(0) += 1;
            counts_by_slot
                .entry(slot)
                .or_insert_with(|| vec![0.0; self.table.len()])[self.table.pattern_of(unit)] += 1.0;
        }
        for (slot, cl) in self.slots.iter() {
            let err = cl.cache_error(self.table);
            debug_assert!(
                err <= 1e-12,
                "stale likelihood cache in slot {slot}: max deviation {err:e}"
            );
            debug_assert_eq!(n_by_slot.get(&slot).copied(), Some(cl.n));
            debug_assert_eq!(counts_by_slot.get(&slot), Some(&cl.pattern_counts));
        }
        debug_assert_eq!(n_by_slot.len(), self.slots.len());
    }

    fn size_weighted_mean_q(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (_, cl) in self.slots.iter() {
            num += cl.n as f64 * cl.q;
            den += cl.n as f64;
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

impl Dpmhbp {
    /// Fit and rank, also returning diagnostics (the trait method keeps them
    /// on `self`).
    pub fn fit_rank_detailed(
        &mut self,
        dataset: &Dataset,
        split: &TrainTestSplit,
        class: PipeClass,
        seed: u64,
    ) -> Result<RiskRanking> {
        crate::validate::validate_fit_inputs(dataset, split, class)?;
        let pipes: Vec<&pipefail_network::dataset::Pipe> =
            dataset.pipes_of_class(class).collect();
        if pipes.is_empty() {
            return Err(CoreError::EmptyEvaluationSet("no pipes of requested class"));
        }

        // Segment-level sufficient statistics, exposure-scaled by covariates.
        let seg_stats = dataset.segment_stats(split.train);
        let adjuster = match self.config.covariates {
            Some(mask) => CovariateAdjuster::fit(dataset, split, mask, class)?,
            None => CovariateAdjuster::identity(dataset.segments().len()),
        };
        // Units: all segments of evaluated pipes, in pipe order.
        let mut unit_pipe: Vec<usize> = Vec::new();
        let mut unit_multiplier: Vec<f64> = Vec::new();
        let mut rows: Vec<(f64, f64, f64)> = Vec::new();
        for (pi, pipe) in pipes.iter().enumerate() {
            for &sid in &pipe.segments {
                let st = seg_stats[sid.index()];
                let e = adjuster.multiplier(sid.index());
                rows.push((st.failure_years as f64, st.clean_years() as f64, e));
                unit_pipe.push(pi);
                unit_multiplier.push(crate::hier::quantize_multiplier(e));
            }
        }
        let table = PatternTable::build(rows.into_iter());

        let q0 = self.config.q0.unwrap_or_else(|| table.empirical_rate());
        let mut rng = seeded_rng(seed);
        let mut sampler = Sampler8::new(&table, &self.config, q0, &mut rng)?;

        let sched = self.config.schedule;
        let mut pipe_sum = vec![0.0; pipes.len()];
        let mut pipe_sq = vec![0.0; pipes.len()];
        let mut log_survive_t = vec![0.0; pipes.len()];
        let mut retained = 0usize;
        self.diagnostics = DpmhbpDiagnostics::default();

        let mut health = ChainHealth::new(self.config.budget_secs);
        for it in 0..sched.total_iterations() {
            health.begin_sweep()?;
            let d = &mut self.diagnostics;
            timed(&mut d.assignment_secs, || {
                sampler.sweep_assignments(&mut rng)
            });
            timed(&mut d.parameter_secs, || sampler.sweep_parameters(&mut rng))?;
            #[cfg(debug_assertions)]
            sampler.debug_validate_caches();
            if self.config.sample_alpha {
                let prior = self.config.alpha_prior;
                timed(&mut d.alpha_secs, || sampler.sweep_alpha(prior, &mut rng));
            }
            health.observe_monitor(sampler.size_weighted_mean_q())?;
            if sched.keep(it) {
                retained += 1;
                // Pipe-level combination at the current posterior draw:
                // π_i = 1 − Π (1 − ρ̂_l), where each segment's predicted
                // probability re-applies its covariate hazard multiplier
                // (inference scaled the exposure, so ρ is the *base* rate):
                // (1 − ρ̂) = (1 − ρ)^e. Accumulating π per sweep gives the
                // exact Monte Carlo posterior mean plus an uncertainty.
                log_survive_t.iter_mut().for_each(|v| *v = 0.0);
                let units = unit_pipe.iter().zip(&unit_multiplier);
                for ((&pi, &e), ln_s) in units.zip(sampler.unit_ln_survival()) {
                    log_survive_t[pi] += e * ln_s;
                }
                for (pi, ls) in log_survive_t.iter().enumerate() {
                    let p = 1.0 - ls.exp();
                    pipe_sum[pi] += p;
                    pipe_sq[pi] += p * p;
                }
                self.diagnostics.clusters.push(sampler.slots.len() as f64);
                self.diagnostics.alpha.push(sampler.alpha);
                self.diagnostics.mean_q.push(sampler.size_weighted_mean_q());
            }
        }
        if retained == 0 {
            return Err(CoreError::BadConfig("schedule retained zero samples"));
        }

        let n = retained as f64;
        self.posterior = pipes
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                let mean = pipe_sum[pi] / n;
                let var = (pipe_sq[pi] / n - mean * mean).max(0.0);
                RiskPosterior {
                    pipe: p.id,
                    mean,
                    sd: var.sqrt(),
                }
            })
            .collect();
        let scores = self
            .posterior
            .iter()
            .map(|rp| RiskScore {
                pipe: rp.pipe,
                score: rp.mean,
            })
            .collect();
        RiskRanking::try_new(scores)
    }
}

/// Run `f`, adding its wall-clock seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

impl FailureModel for Dpmhbp {
    fn name(&self) -> &'static str {
        "DPMHBP"
    }

    fn fit_rank_class(
        &mut self,
        dataset: &Dataset,
        split: &TrainTestSplit,
        class: PipeClass,
        seed: u64,
    ) -> Result<RiskRanking> {
        self.fit_rank_detailed(dataset, split, class, seed)
    }

    fn posterior_summary(&self) -> Vec<crate::snapshot::SummarySection> {
        use crate::snapshot::SummarySection;
        let d = &self.diagnostics;
        let mut clusters = SummarySection::new("clusters")
            .with_field("count_trace", d.clusters.clone())
            .with_field("alpha_trace", d.alpha.clone())
            .with_field("mean_q_trace", d.mean_q.clone());
        if let Some(mean) = self.mean_cluster_count() {
            clusters = clusters.with_scalar("mean_count", mean);
        }
        let pipe_posterior = SummarySection::new("pipe_posterior")
            .with_field("pipe", self.posterior.iter().map(|p| p.pipe.0 as f64).collect())
            .with_field("mean", self.posterior.iter().map(|p| p.mean).collect())
            .with_field("sd", self.posterior.iter().map(|p| p.sd).collect());
        vec![clusters, pipe_posterior]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_stats::dist::{Beta, ContinuousDist, Gamma};
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
    fn ranks_all_cwm_pipes_with_probability_scores() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        let ranking = model.fit_rank(&ds, &split, 11).unwrap();
        assert_eq!(
            ranking.len(),
            ds.pipes_of_class(PipeClass::Critical).count()
        );
        for s in ranking.scores() {
            assert!(s.score > 0.0 && s.score < 1.0, "score {}", s.score);
        }
    }

    #[test]
    fn diagnostics_are_recorded() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        model.fit_rank(&ds, &split, 11).unwrap();
        let d = model.diagnostics();
        assert_eq!(d.clusters.len(), DpmhbpConfig::fast().schedule.retained());
        assert!(model.mean_cluster_count().unwrap() >= 1.0);
        assert!(d.alpha.iter().all(|a| *a > 0.0));
        assert!(d.assignment_secs > 0.0 && d.parameter_secs > 0.0);
    }

    #[test]
    fn discovers_multiple_clusters_on_heterogeneous_data() {
        // The synthetic world has multi-modal cohort hazards; the CRP should
        // open more than one table.
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        model.fit_rank(&ds, &split, 13).unwrap();
        assert!(
            model.mean_cluster_count().unwrap() > 1.2,
            "mean clusters {}",
            model.mean_cluster_count().unwrap()
        );
    }

    #[test]
    fn longer_pipes_of_equal_rate_score_higher() {
        // π_i = 1 − Π(1 − ρ̄) rises with segment count; verify the pipe-level
        // combination respects length.
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        let ranking = model.fit_rank(&ds, &split, 17).unwrap();
        // Compare average score of the longest vs shortest quartile of
        // *clean* pipes (no train failures) — length should matter.
        let failed = ds.pipe_failed_in(split.train);
        let mut clean: Vec<(f64, f64)> = ranking
            .scores()
            .iter()
            .filter(|s| !failed[s.pipe.index()])
            .map(|s| (ds.pipe_length_m(s.pipe), s.score))
            .collect();
        clean.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let quarter = clean.len() / 4;
        if quarter >= 5 {
            let short: f64 =
                clean[..quarter].iter().map(|x| x.1).sum::<f64>() / quarter as f64;
            let long: f64 = clean[clean.len() - quarter..]
                .iter()
                .map(|x| x.1)
                .sum::<f64>()
                / quarter as f64;
            assert!(long > short, "long {long} vs short {short}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let a = Dpmhbp::new(DpmhbpConfig::fast())
            .fit_rank(&ds, &split, 99)
            .unwrap();
        let b = Dpmhbp::new(DpmhbpConfig::fast())
            .fit_rank(&ds, &split, 99)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn posterior_summaries_are_consistent_with_scores() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        let ranking = model.fit_rank(&ds, &split, 23).unwrap();
        let post = model.risk_posterior();
        assert_eq!(post.len(), ranking.len());
        for rp in post {
            assert!(rp.mean > 0.0 && rp.mean < 1.0);
            assert!(rp.sd >= 0.0 && rp.sd < 0.5, "sd {}", rp.sd);
            assert_eq!(ranking.score_of(rp.pipe), Some(rp.mean));
        }
        // MCMC uncertainty should be non-trivial for at least some pipes.
        assert!(post.iter().any(|rp| rp.sd > 1e-6));
    }

    #[test]
    fn cached_cluster_logliks_stay_fresh_across_sweeps() {
        // The incremental-cache contract: after every assignment and
        // parameter sweep, each live cluster's cached likelihood column
        // matches a from-scratch recompute at its current (q, c) to 1e-12,
        // and its membership counts match a from-scratch histogram of z.
        // Every pool slot holds a fresh column too, and no members.
        let table = PatternTable::build(
            (0..600)
                .map(|i| {
                    let s = if i % 23 == 0 { 1.0 } else { 0.0 };
                    let e = if i % 5 == 0 { 1.4 } else { 1.0 };
                    (s, 11.0 - s, e)
                }),
        );
        let config = DpmhbpConfig::fast();
        let mut rng = seeded_rng(321);
        let mut s = Sampler8::new(&table, &config, 0.01, &mut rng).unwrap();
        for sweep in 0..60 {
            s.sweep_assignments(&mut rng);
            s.sweep_parameters(&mut rng).unwrap();
            s.sweep_alpha(config.alpha_prior, &mut rng);
            let mut counts_by_slot: std::collections::HashMap<usize, Vec<f64>> =
                std::collections::HashMap::new();
            for (unit, &slot) in s.z.iter().enumerate() {
                counts_by_slot
                    .entry(slot)
                    .or_insert_with(|| vec![0.0; table.len()])[table.pattern_of(unit)] += 1.0;
            }
            for (slot, cl) in s.slots.iter() {
                let err = cl.cache_error(&table);
                assert!(
                    err <= 1e-12,
                    "sweep {sweep}, slot {slot}: cached loglik deviates by {err:e}"
                );
                assert_eq!(
                    counts_by_slot.get(&slot),
                    Some(&cl.pattern_counts),
                    "sweep {sweep}, slot {slot}: stale pattern counts"
                );
            }
            assert_eq!(s.pool.len(), config.aux_m);
            for (j, aux) in s.pool.iter().enumerate() {
                let err = aux.cache_error(&table);
                assert!(
                    err <= 1e-12,
                    "sweep {sweep}, pool slot {j}: cached loglik deviates by {err:e}"
                );
                assert_eq!(aux.n, 0, "sweep {sweep}, pool slot {j}: has members");
                assert!(
                    aux.pattern_counts.iter().all(|&k| k == 0.0),
                    "sweep {sweep}, pool slot {j}: nonzero pattern counts"
                );
            }
        }
    }

    #[test]
    fn candidate_weights_survive_underflow_and_a_refill_above_the_maximum() {
        // The block rebuild's numerics. Likelihoods that all lie below
        // −800, where each `exp` alone underflows, keep their exact ratios
        // relative to their maximum. A pool slot refilled far above that
        // maximum is weighed by the next unit update against a rescaled
        // list, not the old maximum, where its weight would overflow.
        let table = PatternTable::build(
            std::iter::repeat_n((0.0, 11.0, 1.0), 3).chain(std::iter::repeat_n((6.0, 5.0, 1.0), 2)),
        );
        let config = DpmhbpConfig::default();
        let mut rng = seeded_rng(5);
        let mut s = Sampler8::new(&table, &config, 0.05, &mut rng).unwrap();
        let pat = table.pattern_of(0);
        let alpha_m = s.alpha / s.aux_m as f64;
        let check_weights = |s: &Sampler8| {
            let weights: Vec<f64> = s.candidate_weights(alpha_m).collect();
            let total: f64 = weights.iter().sum();
            assert!(total > 0.0 && total.is_finite(), "total weight {total}");
            // The exact conditional from the log weights, in list order.
            let ln_w: Vec<f64> = s
                .slots
                .iter()
                .map(|(_, cl)| (cl.n as f64).ln() + cl.loglik[pat])
                .chain(s.pool.iter().map(|aux| alpha_m.ln() + aux.loglik[pat]))
                .collect();
            assert_eq!(weights.len(), ln_w.len(), "candidate list is stale");
            let ln_norm = pipefail_stats::special::log_sum_exp(&ln_w);
            for (w, l) in weights.iter().zip(&ln_w) {
                let exact = (l - ln_norm).exp();
                assert!(
                    (w / total - exact).abs() <= 1e-12 * exact,
                    "{} vs exact {exact:e}",
                    w / total
                );
            }
        };
        let live = s.slots.live_slots()[0];
        s.slots.get_mut(live).loglik[pat] = -900.0;
        for ll in [-850.0, -1000.0, -820.0] {
            let mut aux = s.prior_cluster(&mut rng);
            aux.loglik[pat] = ll;
            s.pool.push(aux);
        }
        assert_eq!((-820.0f64).exp(), 0.0);
        s.scale_candidates(pat);
        check_weights(&s);

        // The sweep's next steps: unit 0 leaves its cluster and takes pool
        // slot 1, which is refilled with a column 810 above the maximum.
        let leave = |s: &mut Sampler8| {
            let c = s.slots.get_mut(live);
            c.n -= 1;
            c.pattern_counts[pat] -= 1.0;
        };
        leave(&mut s);
        let mut refill = s.prior_cluster(&mut rng);
        refill.loglik[pat] = -10.0;
        let opened = s.open_pool_slot(1, refill, pat);
        s.assign(0, opened);
        // Unit 1 leaves its cluster and is weighed: the refilled slot holds
        // all the mass.
        leave(&mut s);
        check_weights(&s);
        assert_eq!(s.draw_candidate(alpha_m, 0.5), s.cand_slots.len() + 1);
    }

    /// Every set partition of `0..n` (n ≥ 1) as a restricted growth
    /// string: entry `u` numbers unit `u`'s block, blocks numbered in order
    /// of first appearance.
    fn set_partitions(n: usize) -> Vec<Vec<usize>> {
        let mut out = vec![vec![0]];
        for _ in 1..n {
            out = out
                .into_iter()
                .flat_map(|rgs| {
                    let blocks = rgs.iter().max().unwrap() + 1;
                    (0..=blocks).map(move |b| [rgs.as_slice(), &[b]].concat())
                })
                .collect();
        }
        out
    }

    /// The restricted growth string of a cluster assignment.
    fn restricted_growth(z: &[usize]) -> Vec<usize> {
        let mut seen: Vec<usize> = Vec::new();
        z.iter()
            .map(|&slot| {
                seen.iter().position(|&s| s == slot).unwrap_or_else(|| {
                    seen.push(slot);
                    seen.len() - 1
                })
            })
            .collect()
    }

    #[test]
    fn partition_frequencies_match_exact_posterior() {
        // With α fixed the partition posterior is exact: CRP(α) times, per
        // block, the marginal likelihood
        // ∫∫ Π_{u ∈ block} m(pattern_u | q, c) p(q) p(c) dq dc, here by
        // 400×400 midpoint quadrature over logit q and ln c. Two tables:
        // three units, two alike; and four units with patterns A, B, A, B,
        // which the sweep visits in the order 0, 2, 1, 3. A sampler that
        // drops an emptied singleton's (q, c) instead of keeping it among
        // the auxiliaries puts far too much mass on the one-cluster
        // partition and fails this.
        let (a, b) = ((0.0, 11.0, 1.0), (6.0, 5.0, 1.0));
        for units in [vec![a, a, b], vec![a, b, a, b]] {
            let n = units.len();
            let table = PatternTable::build(units.into_iter());
            let q0 = 0.1;
            let config = DpmhbpConfig {
                alpha: 1.0,
                sample_alpha: false,
                q0: Some(q0),
                ..DpmhbpConfig::default()
            };
            let partitions = set_partitions(n);

            let q_prior = Beta::with_mean_concentration(q0, config.c0).unwrap();
            let c_prior = Gamma::new(config.c_prior.0, config.c_prior.1).unwrap();
            const N: usize = 400;
            let (y_lo, y_hi, t_lo, t_hi) = (-20.0, 12.0, -9.0, 11.0);
            let (dy, dt) = ((y_hi - y_lo) / N as f64, (t_hi - t_lo) / N as f64);
            // Per midpoint: ln(prior density × Jacobian × cell area), and
            // each unit's log marginal there.
            let mut grid: Vec<(f64, Vec<f64>)> = Vec::with_capacity(N * N);
            for i in 0..N {
                let y = y_lo + (i as f64 + 0.5) * dy;
                let q = 1.0 / (1.0 + (-y).exp());
                let ln_q_part = q_prior.ln_pdf(q) + q.ln() + (1.0 - q).ln();
                for j in 0..N {
                    let t = t_lo + (j as f64 + 0.5) * dt;
                    let c = t.exp();
                    let ln_w = ln_q_part + c_prior.ln_pdf(c) + t + (dy * dt).ln();
                    let lm = (0..n)
                        .map(|u| table.pattern(table.pattern_of(u)).log_marginal(q, c))
                        .collect();
                    grid.push((ln_w, lm));
                }
            }
            let block_ln_marginal = |block: &[usize]| {
                let terms: Vec<f64> = grid
                    .iter()
                    .map(|(ln_w, lm)| ln_w + block.iter().map(|&u| lm[u]).sum::<f64>())
                    .collect();
                pipefail_stats::special::log_sum_exp(&terms)
            };
            // CRP: α^K Π_k (n_k − 1)!, up to a constant shared by all
            // partitions.
            let ln_post: Vec<f64> = partitions
                .iter()
                .map(|rgs| {
                    (0..=*rgs.iter().max().unwrap())
                        .map(|k| {
                            let block: Vec<usize> = (0..n).filter(|&u| rgs[u] == k).collect();
                            config.alpha.ln()
                                + ((1..block.len()).product::<usize>() as f64).ln()
                                + block_ln_marginal(&block)
                        })
                        .sum()
                })
                .collect();
            let ln_norm = pipefail_stats::special::log_sum_exp(&ln_post);
            let exact: Vec<f64> = ln_post.iter().map(|l| (l - ln_norm).exp()).collect();

            let mut rng = seeded_rng(11);
            let mut s = Sampler8::new(&table, &config, q0, &mut rng).unwrap();
            let (burn_in, counted) = (1_000, 60_000);
            let mut hits = vec![0usize; partitions.len()];
            for sweep in 0..burn_in + counted {
                s.sweep_assignments(&mut rng);
                s.sweep_parameters(&mut rng).unwrap();
                if sweep >= burn_in {
                    let rgs = restricted_growth(&s.z);
                    hits[partitions.iter().position(|p| *p == rgs).unwrap()] += 1;
                }
            }
            for (k, rgs) in partitions.iter().enumerate() {
                let freq = hits[k] as f64 / counted as f64;
                assert!(
                    (freq - exact[k]).abs() <= 0.02,
                    "{n} units, partition {rgs:?}: sampled {freq:.4}, exact {:.4} (all: {exact:.4?})",
                    exact[k]
                );
            }
        }
    }

    #[test]
    fn covariate_free_variant_runs() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut model = Dpmhbp::new(DpmhbpConfig {
            covariates: None,
            ..DpmhbpConfig::fast()
        });
        let ranking = model.fit_rank(&ds, &split, 3).unwrap();
        assert!(!ranking.is_empty());
    }
}
