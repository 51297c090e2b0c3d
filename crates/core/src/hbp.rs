//! The hierarchical beta process with fixed expert groupings (§18.3.1.3).
//!
//! The strongest prior-work baseline [Li et al., Mach. Learn. 95(1), 2014]:
//! pipes are grouped by a heuristic domain attribute (material, diameter
//! band, or laid-year band), a beta process models each group's failure rate
//! `q_k`, and pipe failure probabilities `π_i ~ Beta(c_k q_k, c_k (1−q_k))`
//! shrink toward their group rate — sharing the sparse failure data within
//! groups. Inference is Metropolis-within-Gibbs: each group's non-conjugate
//! `(q_k, c_k)` are updated by [`GroupPrior::step`], the slice step DPMHBP's
//! clusters use too.
//!
//! This model works at *pipe* level and ignores pipe length — exactly the
//! two limitations (§18.3.3) the DPMHBP removes.

use crate::covariates::CovariateAdjuster;
use crate::hier::{GroupPrior, PatternTable};
use crate::model::{FailureModel, RiskRanking, RiskScore};
use crate::{CoreError, Result};
use pipefail_mcmc::{ChainHealth, Schedule};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::FeatureMask;
use pipefail_network::ids::PipeId;
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::rng::seeded_rng;

/// How pipes are grouped (the domain-expert heuristics of §18.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupingScheme {
    /// One group per material.
    Material,
    /// Diameter bands (one group per nominal diameter).
    Diameter,
    /// Laid-year bands of the given width in years.
    LaidYear(u32),
}

impl GroupingScheme {
    /// Group key of a pipe under this scheme.
    fn key(&self, pipe: &pipefail_network::dataset::Pipe) -> u64 {
        match self {
            GroupingScheme::Material => pipe.material.code().bytes().fold(0u64, |a, b| a * 31 + b as u64),
            GroupingScheme::Diameter => pipe.diameter_mm.round() as u64,
            GroupingScheme::LaidYear(w) => {
                (pipe.laid_year.max(0) as u64) / (*w).max(1) as u64
            }
        }
    }

    /// Display name for result tables.
    pub fn label(&self) -> String {
        match self {
            GroupingScheme::Material => "material".into(),
            GroupingScheme::Diameter => "diameter".into(),
            GroupingScheme::LaidYear(w) => format!("laid-year/{w}"),
        }
    }
}

/// HBP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HbpConfig {
    /// Fixed grouping scheme.
    pub grouping: GroupingScheme,
    /// MCMC schedule.
    pub schedule: Schedule,
    /// Hyper-prior mean failure rate `q₀`; `None` = empirical rate.
    pub q0: Option<f64>,
    /// Hyper concentration `c₀` of the group-rate prior.
    pub c0: f64,
    /// Gamma prior (shape, rate) on each group concentration `c_k`.
    pub c_prior: (f64, f64),
    /// Multiplicative covariate adjustment; `None` disables it.
    pub covariates: Option<FeatureMask>,
    /// Wall-clock budget of the whole fit in seconds, enforced by the
    /// online [`ChainHealth`] monitor; `None` = unbounded.
    pub budget_secs: Option<f64>,
}

impl Default for HbpConfig {
    fn default() -> Self {
        Self {
            grouping: GroupingScheme::Material,
            schedule: Schedule::new(300, 700, 1),
            q0: None,
            c0: 5.0,
            c_prior: (2.0, 0.05),
            covariates: Some(FeatureMask::water_mains()),
            budget_secs: None,
        }
    }
}

impl HbpConfig {
    /// A reduced schedule for tests and demos.
    pub fn fast() -> Self {
        Self {
            schedule: Schedule::new(100, 200, 1),
            ..Self::default()
        }
    }
}

/// The HBP failure-prediction model.
#[derive(Debug, Clone)]
pub struct Hbp {
    config: HbpConfig,
    /// Posterior-mean group rates from the last fit, keyed by group label
    /// order (for reports).
    last_group_rates: Vec<f64>,
}

impl Hbp {
    /// Create with a configuration.
    pub fn new(config: HbpConfig) -> Self {
        Self {
            config,
            last_group_rates: Vec::new(),
        }
    }

    /// Posterior-mean group failure rates from the most recent fit.
    pub fn group_rates(&self) -> &[f64] {
        &self.last_group_rates
    }
}

impl FailureModel for Hbp {
    fn name(&self) -> &'static str {
        "HBP"
    }

    fn posterior_summary(&self) -> Vec<crate::snapshot::SummarySection> {
        vec![crate::snapshot::SummarySection::new(format!(
            "group_posterior[{}]",
            self.config.grouping.label()
        ))
        .with_field("rate", self.last_group_rates.clone())]
    }

    fn fit_rank_class(
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

        // Pipe-level sufficient statistics over the training window.
        let adjuster = match self.config.covariates {
            Some(mask) => CovariateAdjuster::fit(dataset, split, mask, class)?,
            None => CovariateAdjuster::identity(dataset.segments().len()),
        };

        // Pipe failure-years: distinct (pipe, year) pairs in train.
        let mut pipe_fail_years: std::collections::HashSet<(PipeId, i32)> =
            std::collections::HashSet::new();
        for f in dataset.failures() {
            if split.train.contains(f.year) {
                pipe_fail_years.insert((f.pipe, f.year));
            }
        }
        let mut s_by_pipe = vec![0u32; dataset.pipes().len()];
        for (pid, _) in &pipe_fail_years {
            s_by_pipe[pid.index()] += 1;
        }

        // Group assignment and pattern table rows per evaluated pipe.
        let mut group_keys: Vec<u64> = Vec::with_capacity(pipes.len());
        let mut key_index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut groups: Vec<usize> = Vec::with_capacity(pipes.len());
        let mut multipliers: Vec<f64> = Vec::with_capacity(pipes.len());
        let rows: Vec<(f64, f64, f64)> = pipes
            .iter()
            .map(|p| {
                let key = self.config.grouping.key(p);
                let g = *key_index.entry(key).or_insert_with(|| {
                    group_keys.push(key);
                    group_keys.len() - 1
                });
                groups.push(g);
                let s = s_by_pipe[p.id.index()] as f64;
                let exposure = {
                    let first = split.train.start.max(p.laid_year + 1);
                    (split.train.end - first + 1).max(0) as f64
                }
                .max(s);
                // Pipe multiplier: length-weighted mean of segment multipliers.
                let mut w = 0.0;
                let mut acc = 0.0;
                for &sid in &p.segments {
                    let len = dataset.segment(sid).length_m();
                    acc += len * adjuster.multiplier(sid.index());
                    w += len;
                }
                let e = if w > 0.0 { acc / w } else { 1.0 };
                multipliers.push(crate::hier::quantize_multiplier(e));
                (s, (exposure - s).max(0.0), e)
            })
            .collect();
        let table = PatternTable::build(rows.into_iter());
        let n_groups = group_keys.len();

        // Per-group pattern counts. Groups are fixed for the whole fit, so
        // the sparse nonzero lists the likelihood evaluations iterate are
        // built once here, not per sweep.
        let mut counts = vec![vec![0.0; table.len()]; n_groups];
        for (i, &g) in groups.iter().enumerate() {
            counts[g][table.pattern_of(i)] += 1.0;
        }
        let sparse: Vec<Vec<(usize, f64)>> =
            counts.iter().map(|c| crate::hier::sparse_counts(c)).collect();

        let q0 = self.config.q0.unwrap_or_else(|| table.empirical_rate());
        let (ca, cb) = self.config.c_prior;
        let prior = GroupPrior::new(q0, self.config.c0, self.config.c_prior)?;

        // State: per-group (q, c), starting at the prior means.
        let mut q = vec![q0; n_groups];
        let mut c = vec![ca / cb; n_groups];

        let mut rng = seeded_rng(seed);
        let mut pi_acc = vec![0.0; table.units()];
        let mut retained = 0usize;
        let mut q_acc = vec![0.0; n_groups];

        let mut health = ChainHealth::new(self.config.budget_secs);
        let sched = self.config.schedule;
        for it in 0..sched.total_iterations() {
            health.begin_sweep()?;
            for g in 0..n_groups {
                (q[g], c[g]) = prior.step(&table, &sparse[g], q[g], c[g], &mut rng)?;
            }
            // Online health: the group-mean rate is the scalar monitor.
            health.observe_monitor(q.iter().sum::<f64>() / n_groups as f64)?;
            if sched.keep(it) {
                retained += 1;
                for (i, &g) in groups.iter().enumerate() {
                    pi_acc[i] += table.pattern(table.pattern_of(i)).posterior_mean(q[g], c[g]);
                }
                for g in 0..n_groups {
                    q_acc[g] += q[g];
                }
            }
        }
        if retained == 0 {
            return Err(CoreError::BadConfig("schedule retained zero samples"));
        }
        self.last_group_rates = q_acc.iter().map(|v| v / retained as f64).collect();

        // Prediction applies the covariate multiplier back: the posterior
        // mean is the *base* annual failure probability (exposure was scaled
        // during inference), so the next-year risk of a pipe with hazard
        // multiplier e is 1 − (1 − ρ̄)^e.
        let scores = pipes
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let base = (pi_acc[i] / retained as f64).clamp(0.0, 1.0 - 1e-12);
                RiskScore {
                    pipe: p.id,
                    score: 1.0 - (1.0 - base).powf(multipliers[i]),
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
    fn ranks_all_cwm_pipes() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut hbp = Hbp::new(HbpConfig::fast());
        let ranking = hbp.fit_rank(&ds, &split, 9).unwrap();
        assert_eq!(
            ranking.len(),
            ds.pipes_of_class(PipeClass::Critical).count()
        );
        // Scores are probabilities.
        for s in ranking.scores() {
            assert!(s.score > 0.0 && s.score < 1.0, "score {}", s.score);
        }
        assert!(!hbp.group_rates().is_empty());
    }

    #[test]
    fn failed_pipes_rank_higher_on_average() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut hbp = Hbp::new(HbpConfig::fast());
        let ranking = hbp.fit_rank(&ds, &split, 9).unwrap();
        let train_failed = ds.pipe_failed_in(split.train);
        let mut failed_scores = Vec::new();
        let mut clean_scores = Vec::new();
        for s in ranking.scores() {
            if train_failed[s.pipe.index()] {
                failed_scores.push(s.score);
            } else {
                clean_scores.push(s.score);
            }
        }
        if !failed_scores.is_empty() && !clean_scores.is_empty() {
            let mf: f64 = failed_scores.iter().sum::<f64>() / failed_scores.len() as f64;
            let mc: f64 = clean_scores.iter().sum::<f64>() / clean_scores.len() as f64;
            assert!(mf > mc, "train-failed pipes should score higher: {mf} vs {mc}");
        }
    }

    #[test]
    fn grouping_schemes_produce_different_rankings() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mk = |g| {
            Hbp::new(HbpConfig {
                grouping: g,
                ..HbpConfig::fast()
            })
            .fit_rank(&ds, &split, 9)
            .unwrap()
        };
        let by_material = mk(GroupingScheme::Material);
        let by_year = mk(GroupingScheme::LaidYear(10));
        // Same pipes, different order (almost surely).
        assert_eq!(by_material.len(), by_year.len());
        let top_m: Vec<_> = by_material.pipes_in_order().take(10).collect();
        let top_y: Vec<_> = by_year.pipes_in_order().take(10).collect();
        assert_ne!(top_m, top_y, "groupings should disagree somewhere");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let a = Hbp::new(HbpConfig::fast()).fit_rank(&ds, &split, 77).unwrap();
        let b = Hbp::new(HbpConfig::fast()).fit_rank(&ds, &split, 77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn errors_on_empty_class() {
        // A dataset whose pipes are all RWM has no critical mains.
        let ds = demo_region();
        let split = TrainTestSplit::paper_protocol();
        let mut only_rwm_pipes = Vec::new();
        let mut segs = Vec::new();
        let mut remap = std::collections::HashMap::new();
        for p in ds.pipes_of_class(PipeClass::Reticulation).take(5) {
            let mut p2 = p.clone();
            p2.id = PipeId(only_rwm_pipes.len() as u32);
            let mut new_segs = Vec::new();
            for &sid in &p.segments {
                let mut s2 = ds.segment(sid).clone();
                let nid = pipefail_network::ids::SegmentId(segs.len() as u32);
                remap.insert(sid, nid);
                s2.id = nid;
                s2.pipe = p2.id;
                segs.push(s2);
                new_segs.push(nid);
            }
            p2.segments = new_segs;
            only_rwm_pipes.push(p2);
        }
        let ds2 = Dataset::new(
            "rwm-only",
            ds.region(),
            ds.observation(),
            only_rwm_pipes,
            segs,
            vec![],
        )
        .unwrap();
        let err = Hbp::new(HbpConfig::fast())
            .fit_rank(&ds2, &split, 1)
            .unwrap_err();
        assert!(matches!(err, CoreError::EmptyEvaluationSet(_)));
    }
}
