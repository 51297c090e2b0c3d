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
//! across unit updates, each with its cached likelihood column, so a unit
//! update costs one cached lookup per live cluster and pool slot plus one
//! categorical draw. A slot a unit takes becomes a live cluster and is
//! refilled from the prior; a cluster that empties replaces a uniformly
//! drawn slot, so a singleton's own `(q, c)` stay among the auxiliaries, as
//! Algorithm 8 requires.

mod state;

use crate::checkpoint::{CheckpointSpec, Fingerprint, Reader, Writer};
use crate::covariates::CovariateAdjuster;
use crate::crp::resample_alpha;
use crate::hier::{sparse_counts, GroupPrior, PatternTable};
use crate::model::{FailureModel, RiskRanking, RiskScore};
use crate::{CoreError, Result};
use pipefail_mcmc::{ChainHealth, HealthConfig, Schedule};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::FeatureMask;
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::dist::sample_from_log_weights;
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
    /// Online chain-health thresholds (divergence budget, stuck detection,
    /// optional wall-clock budget).
    pub health: HealthConfig,
    /// Periodic sampler-state checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointSpec>,
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
            health: HealthConfig::default(),
            checkpoint: None,
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
    /// Wall-clock seconds spent in the assignment phase over the sweeps the
    /// call ran (a resumed fit counts only its own sweeps). Like the other
    /// phase times it is kept out of the checkpoint and the posterior
    /// summary, which stay functions of the seed.
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
    /// Between sweeps it holds nothing the next sweep reads, so checkpoints
    /// do not store it.
    pool: Vec<Cluster>,
    // scratch buffers to avoid per-unit allocation
    weight_slots: Vec<usize>,
    weights: Vec<f64>,
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
            weight_slots: Vec::new(),
            weights: Vec::new(),
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

    /// Take `unit` out of its cluster. A cluster left empty replaces a
    /// uniformly drawn pool slot, column included, so its `(q, c)` stay
    /// among the auxiliaries the unit is weighed against.
    fn unassign(&mut self, unit: usize, rng: &mut StdRng) {
        let slot = self.z[unit];
        let pat = self.table.pattern_of(unit);
        let dead = {
            let c = self.slots.get_mut(slot);
            c.n -= 1;
            c.pattern_counts[pat] -= 1.0;
            c.n == 0
        };
        if dead {
            let j = rng.gen_range(0..self.pool.len());
            self.pool[j] = self.slots.remove(slot);
        }
        self.z[unit] = usize::MAX;
    }

    /// One CRP sweep over all units: Neal's Algorithm 8 over the ReUse
    /// pool. Each unit weighs the live clusters by `ln n_k` and the pool
    /// slots by `ln(α/m)`, plus the cached likelihood of its pattern; a
    /// prior draw happens only to refill a slot that a unit took.
    fn sweep_assignments(&mut self, rng: &mut StdRng) {
        self.pool.clear();
        for _ in 0..self.aux_m {
            let aux = self.prior_cluster(rng);
            self.pool.push(aux);
        }
        let ln_alpha_m = (self.alpha / self.aux_m as f64).ln();
        for unit in 0..self.table.units() {
            self.unassign(unit, rng);
            let pat = self.table.pattern_of(unit);
            self.weight_slots.clear();
            self.weights.clear();
            for (slot, cluster) in self.slots.iter() {
                self.weight_slots.push(slot);
                self.weights
                    .push((cluster.n as f64).ln() + cluster.loglik[pat]);
            }
            self.weights
                .extend(self.pool.iter().map(|aux| ln_alpha_m + aux.loglik[pat]));
            let choice = sample_from_log_weights(&self.weights, rng);
            let slot = match choice.checked_sub(self.weight_slots.len()) {
                None => self.weight_slots[choice],
                Some(j) => {
                    let refill = self.prior_cluster(rng);
                    self.slots
                        .insert(std::mem::replace(&mut self.pool[j], refill))
                }
            };
            self.assign(unit, slot);
        }
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

    /// Write the posterior mean of every unit's ρ under the current state
    /// into `out`.
    fn current_rho(&self, out: &mut [f64]) {
        for (unit, &slot) in self.z.iter().enumerate() {
            let cl = self.slots.get(slot);
            out[unit] = self
                .table
                .pattern(self.table.pattern_of(unit))
                .posterior_mean(cl.q, cl.c);
        }
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

        // Fingerprint ties any checkpoint to this exact (seed, config, data)
        // triple; a stale or foreign checkpoint is silently ignored.
        let fingerprint = {
            let mut fp = Fingerprint::new();
            // The sampler tag names the assignment scheme: a checkpoint
            // written by another scheme's chain must not resume this one.
            fp.push_str("dpmhbp")
                .push_str("algorithm8-reuse")
                .push_u64(seed);
            let s = &self.config.schedule;
            fp.push_usize(s.burn_in).push_usize(s.samples).push_usize(s.thin);
            fp.push_f64(self.config.alpha)
                .push_usize(self.config.sample_alpha as usize)
                .push_f64(self.config.alpha_prior.0)
                .push_f64(self.config.alpha_prior.1)
                .push_f64(q0)
                .push_f64(self.config.c0)
                .push_f64(self.config.c_prior.0)
                .push_f64(self.config.c_prior.1)
                .push_usize(self.config.aux_m)
                .push_str(&format!("{:?}", self.config.covariates))
                .push_usize(table.units())
                .push_usize(table.len());
            for p in table.patterns() {
                fp.push_f64(p.s).push_f64(p.f);
            }
            for u in 0..table.units() {
                fp.push_usize(table.pattern_of(u));
            }
            for (&pi, &m) in unit_pipe.iter().zip(&unit_multiplier) {
                fp.push_usize(pi).push_f64(m);
            }
            fp.finish()
        };

        let mut rng = seeded_rng(seed);
        let mut sampler = Sampler8::new(&table, &self.config, q0, &mut rng)?;

        let sched = self.config.schedule;
        let total = sched.total_iterations();
        let mut rho_t = vec![0.0; table.units()];
        let mut pipe_sum = vec![0.0; pipes.len()];
        let mut pipe_sq = vec![0.0; pipes.len()];
        let mut log_survive_t = vec![0.0; pipes.len()];
        let mut retained = 0usize;
        let mut start_it = 0usize;
        self.diagnostics = DpmhbpDiagnostics::default();

        // Resume a matching checkpoint if one is on disk. All chain state —
        // RNG counters, cluster arena (including free-list order), α,
        // accumulators — is restored bit-for-bit, so the resumed run is
        // indistinguishable from an uninterrupted one.
        if let Some(spec) = &self.config.checkpoint {
            if let Some(state) =
                restore_checkpoint(&spec.path, fingerprint, &table, pipes.len(), total)
            {
                rng = state.rng;
                sampler.slots = state.slots;
                sampler.z = state.z;
                sampler.alpha = state.alpha;
                pipe_sum = state.pipe_sum;
                pipe_sq = state.pipe_sq;
                retained = state.retained;
                start_it = state.next_iteration;
                self.diagnostics = state.diagnostics;
            }
        }

        let mut health = ChainHealth::new(self.config.health);
        for it in start_it..total {
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
                sampler.current_rho(&mut rho_t);
                log_survive_t.iter_mut().for_each(|v| *v = 0.0);
                for (unit, &pi) in unit_pipe.iter().enumerate() {
                    let rho = rho_t[unit].clamp(0.0, 1.0 - 1e-12);
                    log_survive_t[pi] += unit_multiplier[unit] * (1.0 - rho).ln();
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
            if let Some(spec) = &self.config.checkpoint {
                if (it + 1).is_multiple_of(spec.every.max(1)) && it + 1 < total {
                    save_checkpoint(
                        &spec.path,
                        fingerprint,
                        it + 1,
                        &rng,
                        &sampler,
                        retained,
                        &pipe_sum,
                        &pipe_sq,
                        &self.diagnostics,
                    )?;
                }
            }
        }
        if retained == 0 {
            return Err(CoreError::BadConfig("schedule retained zero samples"));
        }
        // The chain finished: a leftover checkpoint would be stale, so drop it.
        if let Some(spec) = &self.config.checkpoint {
            let _ = std::fs::remove_file(&spec.path);
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

/// Chain state reconstructed from a checkpoint file.
struct ResumedFit {
    rng: StdRng,
    slots: ClusterSlots,
    z: Vec<usize>,
    alpha: f64,
    retained: usize,
    pipe_sum: Vec<f64>,
    pipe_sq: Vec<f64>,
    diagnostics: DpmhbpDiagnostics,
    next_iteration: usize,
}

/// Serialize the complete chain state after `next_iteration` sweeps.
#[allow(clippy::too_many_arguments)] // flat state snapshot, called from one place
fn save_checkpoint(
    path: &std::path::Path,
    fingerprint: u64,
    next_iteration: usize,
    rng: &StdRng,
    sampler: &Sampler8<'_>,
    retained: usize,
    pipe_sum: &[f64],
    pipe_sq: &[f64],
    diag: &DpmhbpDiagnostics,
) -> Result<()> {
    let mut w = Writer::new(fingerprint);
    w.put_usize("next_iteration", next_iteration);
    w.put_u64_slice("rng", &rng.to_raw_state());
    w.put_f64("alpha", sampler.alpha);
    w.put_usize_slice("z", &sampler.z);
    let (slots, free) = sampler.slots.raw_parts();
    w.put_usize("n_slots", slots.len());
    w.put_usize_slice("free", free);
    let live: Vec<usize> = slots.iter().map(|s| s.is_some() as usize).collect();
    w.put_usize_slice("slot_live", &live);
    let mut qs = Vec::with_capacity(slots.len());
    let mut cs = Vec::with_capacity(slots.len());
    let mut ns = Vec::with_capacity(slots.len());
    let mut counts_flat = Vec::new();
    for s in slots {
        match s {
            Some(c) => {
                qs.push(c.q);
                cs.push(c.c);
                ns.push(c.n);
                counts_flat.extend_from_slice(&c.pattern_counts);
            }
            None => {
                qs.push(0.0);
                cs.push(0.0);
                ns.push(0);
            }
        }
    }
    w.put_f64_slice("slot_q", &qs);
    w.put_f64_slice("slot_c", &cs);
    w.put_usize_slice("slot_n", &ns);
    w.put_f64_slice("pattern_counts", &counts_flat);
    w.put_usize("retained", retained);
    w.put_f64_slice("pipe_sum", pipe_sum);
    w.put_f64_slice("pipe_sq", pipe_sq);
    w.put_f64_slice("diag_clusters", &diag.clusters);
    w.put_f64_slice("diag_alpha", &diag.alpha);
    w.put_f64_slice("diag_mean_q", &diag.mean_q);
    w.save(path)
}

/// Rebuild chain state from `path`, or `None` when the file is absent,
/// corrupt, from a different (seed, config, data), or internally
/// inconsistent — all of which mean "fit from scratch".
fn restore_checkpoint(
    path: &std::path::Path,
    fingerprint: u64,
    table: &PatternTable,
    n_pipes: usize,
    total_iterations: usize,
) -> Option<ResumedFit> {
    let r = Reader::load(path, fingerprint)?;
    let next_iteration = r.usize("next_iteration")?;
    if next_iteration == 0 || next_iteration > total_iterations {
        return None;
    }
    let raw: [u64; 4] = r.u64_slice("rng")?.try_into().ok()?;
    if raw == [0u64; 4] {
        return None; // xoshiro cannot be in the all-zero state
    }
    let rng = StdRng::from_raw_state(raw);
    let alpha = r.f64("alpha")?;
    if !(alpha.is_finite() && alpha > 0.0) {
        return None;
    }
    let z = r.usize_slice("z")?;
    if z.len() != table.units() {
        return None;
    }
    let n_slots = r.usize("n_slots")?;
    let live = r.usize_slice("slot_live")?;
    let qs = r.f64_slice("slot_q")?;
    let cs = r.f64_slice("slot_c")?;
    let ns = r.usize_slice("slot_n")?;
    let counts_flat = r.f64_slice("pattern_counts")?;
    if live.len() != n_slots || qs.len() != n_slots || cs.len() != n_slots || ns.len() != n_slots {
        return None;
    }
    let n_live = live.iter().filter(|&&l| l == 1).count();
    if counts_flat.len() != n_live * table.len() {
        return None;
    }
    let mut slot_vec: Vec<Option<Cluster>> = Vec::with_capacity(n_slots);
    let mut k = 0;
    for i in 0..n_slots {
        if live[i] == 1 {
            if !(qs[i].is_finite() && qs[i] > 0.0 && qs[i] < 1.0 && cs[i].is_finite() && cs[i] > 0.0)
            {
                return None;
            }
            let mut cl = Cluster {
                q: qs[i],
                c: cs[i],
                n: ns[i],
                pattern_counts: counts_flat[k * table.len()..(k + 1) * table.len()].to_vec(),
                loglik: vec![0.0; table.len()],
            };
            cl.refresh_cache(table);
            slot_vec.push(Some(cl));
            k += 1;
        } else {
            slot_vec.push(None);
        }
    }
    let free = r.usize_slice("free")?;
    if free.iter().any(|&f| f >= n_slots || live[f] == 1) {
        return None;
    }
    if z.iter().any(|&s| s >= n_slots || live[s] == 0) {
        return None;
    }
    let pipe_sum = r.f64_slice("pipe_sum")?;
    let pipe_sq = r.f64_slice("pipe_sq")?;
    if pipe_sum.len() != n_pipes || pipe_sq.len() != n_pipes {
        return None;
    }
    Some(ResumedFit {
        rng,
        slots: ClusterSlots::from_raw_parts(slot_vec, free),
        z,
        alpha,
        retained: r.usize("retained")?,
        pipe_sum,
        pipe_sq,
        diagnostics: DpmhbpDiagnostics {
            clusters: r.f64_slice("diag_clusters")?,
            alpha: r.f64_slice("diag_alpha")?,
            mean_q: r.f64_slice("diag_mean_q")?,
            ..DpmhbpDiagnostics::default()
        },
        next_iteration,
    })
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
    fn interrupted_fit_resumes_to_identical_ranking() {
        // Kill-and-resume determinism: repeatedly run the fit under a tiny
        // wall-clock budget (each attempt times out mid-chain but leaves a
        // checkpoint), then finish with no budget. The final ranking must be
        // bit-identical to an uninterrupted reference run.
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let dir = std::env::temp_dir().join("pipefail_dpmhbp_ckpt_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("fit.ckpt");
        std::fs::remove_file(&ckpt).ok();

        let mut reference_model = Dpmhbp::new(DpmhbpConfig::fast());
        let reference = reference_model.fit_rank(&ds, &split, 41).unwrap();

        let spec = CheckpointSpec::new(&ckpt, 20);
        let mut timeouts = 0usize;
        for _ in 0..300 {
            let mut m = Dpmhbp::new(DpmhbpConfig {
                checkpoint: Some(spec.clone()),
                health: HealthConfig::default().with_budget_secs(0.05),
                ..DpmhbpConfig::fast()
            });
            match m.fit_rank(&ds, &split, 41) {
                Err(CoreError::Chain(pipefail_mcmc::McmcError::Timeout { .. })) => timeouts += 1,
                Ok(_) => break,
                Err(e) => panic!("unexpected failure: {e}"),
            }
        }
        let mut resumed_model = Dpmhbp::new(DpmhbpConfig {
            checkpoint: Some(spec.clone()),
            ..DpmhbpConfig::fast()
        });
        let resumed = resumed_model.fit_rank(&ds, &split, 41).unwrap();
        assert_eq!(resumed, reference, "resume after {timeouts} interruptions diverged");
        // Diagnostics traces must also be identical, bit for bit.
        let (a, b) = (resumed_model.diagnostics(), reference_model.diagnostics());
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.mean_q, b.mean_q);
        assert!(!ckpt.exists(), "checkpoint must be removed after completion");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_foreign_checkpoint_is_ignored() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let dir = std::env::temp_dir().join("pipefail_dpmhbp_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("fit.ckpt");

        let reference = Dpmhbp::new(DpmhbpConfig::fast())
            .fit_rank(&ds, &split, 43)
            .unwrap();

        // Corrupt file: not even key=value.
        std::fs::write(&ckpt, "garbage\u{0} bytes \n\n===").unwrap();
        let got = Dpmhbp::new(DpmhbpConfig {
            checkpoint: Some(CheckpointSpec::new(&ckpt, 50)),
            ..DpmhbpConfig::fast()
        })
        .fit_rank(&ds, &split, 43)
        .unwrap();
        assert_eq!(got, reference);

        // Foreign checkpoint: valid format, different fit (other seed).
        let mut other = Dpmhbp::new(DpmhbpConfig {
            checkpoint: Some(CheckpointSpec::new(&ckpt, 20)),
            health: HealthConfig::default().with_budget_secs(0.05),
            ..DpmhbpConfig::fast()
        });
        let _ = other.fit_rank(&ds, &split, 999); // may time out, leaving a checkpoint
        let got = Dpmhbp::new(DpmhbpConfig {
            checkpoint: Some(CheckpointSpec::new(&ckpt, 50)),
            ..DpmhbpConfig::fast()
        })
        .fit_rank(&ds, &split, 43)
        .unwrap();
        assert_eq!(got, reference, "checkpoint from another seed must not be resumed");
        std::fs::remove_dir_all(&dir).ok();
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
    fn partition_frequencies_match_exact_posterior() {
        // Three units, two alike. With α fixed the partition posterior is
        // exact: CRP(α) times, per block, the marginal likelihood
        // ∫∫ Π_{u ∈ block} m(pattern_u | q, c) p(q) p(c) dq dc, here by
        // 400×400 midpoint quadrature over logit q and ln c. A sampler that
        // drops an emptied singleton's (q, c) instead of keeping it among
        // the auxiliaries puts far too much mass on the one-cluster
        // partition and fails this.
        let table =
            PatternTable::build([(0.0, 11.0, 1.0), (0.0, 11.0, 1.0), (6.0, 5.0, 1.0)].into_iter());
        let q0 = 0.1;
        let config = DpmhbpConfig {
            alpha: 1.0,
            sample_alpha: false,
            q0: Some(q0),
            ..DpmhbpConfig::default()
        };
        // The five partitions of {0, 1, 2}, in the order `partition_of`
        // below numbers them.
        let partitions: [&[&[usize]]; 5] = [
            &[&[0, 1, 2]],
            &[&[0, 1], &[2]],
            &[&[0, 2], &[1]],
            &[&[1, 2], &[0]],
            &[&[0], &[1], &[2]],
        ];
        let partition_of = |z: &[usize]| match (z[0] == z[1], z[0] == z[2], z[1] == z[2]) {
            (true, true, _) => 0,
            (true, false, _) => 1,
            (false, true, _) => 2,
            (false, false, true) => 3,
            (false, false, false) => 4,
        };

        let q_prior = Beta::with_mean_concentration(q0, config.c0).unwrap();
        let c_prior = Gamma::new(config.c_prior.0, config.c_prior.1).unwrap();
        const N: usize = 400;
        let (y_lo, y_hi, t_lo, t_hi) = (-20.0, 12.0, -9.0, 11.0);
        let (dy, dt) = ((y_hi - y_lo) / N as f64, (t_hi - t_lo) / N as f64);
        // Per midpoint: ln(prior density × Jacobian × cell area), and each
        // unit's log marginal there.
        let mut grid: Vec<(f64, [f64; 3])> = Vec::with_capacity(N * N);
        for i in 0..N {
            let y = y_lo + (i as f64 + 0.5) * dy;
            let q = 1.0 / (1.0 + (-y).exp());
            let ln_q_part = q_prior.ln_pdf(q) + q.ln() + (1.0 - q).ln();
            for j in 0..N {
                let t = t_lo + (j as f64 + 0.5) * dt;
                let c = t.exp();
                let ln_w = ln_q_part + c_prior.ln_pdf(c) + t + (dy * dt).ln();
                let lm = [0, 1, 2].map(|u| table.pattern(table.pattern_of(u)).log_marginal(q, c));
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
        // CRP: α^K Π_k (n_k − 1)!, up to a constant shared by all partitions.
        let ln_post: Vec<f64> = partitions
            .iter()
            .map(|blocks| {
                blocks
                    .iter()
                    .map(|b| {
                        config.alpha.ln()
                            + ((1..b.len()).product::<usize>() as f64).ln()
                            + block_ln_marginal(b)
                    })
                    .sum()
            })
            .collect();
        let ln_norm = pipefail_stats::special::log_sum_exp(&ln_post);
        let exact: Vec<f64> = ln_post.iter().map(|l| (l - ln_norm).exp()).collect();

        let mut rng = seeded_rng(7);
        let mut s = Sampler8::new(&table, &config, q0, &mut rng).unwrap();
        let (burn_in, counted) = (1_000, 40_000);
        let mut hits = [0usize; 5];
        for sweep in 0..burn_in + counted {
            s.sweep_assignments(&mut rng);
            s.sweep_parameters(&mut rng).unwrap();
            if sweep >= burn_in {
                hits[partition_of(&s.z)] += 1;
            }
        }
        for (k, blocks) in partitions.iter().enumerate() {
            let freq = hits[k] as f64 / counted as f64;
            assert!(
                (freq - exact[k]).abs() <= 0.03,
                "partition {blocks:?}: sampled {freq:.3}, exact {:.3} (all: {exact:.3?})",
                exact[k]
            );
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
