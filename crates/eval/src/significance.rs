//! Replicated runs and the paired significance tests of Table 18.4.
//!
//! The paper reports one-sided paired t-tests at the 5% level comparing the
//! proposed model's AUC against each baseline. Our substitute for the
//! paper's multiple real regions/years is a set of seeded replicate worlds:
//! each replicate regenerates the synthetic region and re-fits every model,
//! giving the matched samples the paired test needs. Replicates run in
//! parallel on a [`pipefail_par::TaskPool`]; the static partitioning keeps
//! every metric byte-identical at any thread count.

use crate::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail_network::split::TrainTestSplit;
use pipefail_stats::hypothesis::{paired_t_test, Alternative, TTestResult};
use pipefail_synth::WorldConfig;

/// AUC samples per model across replicates.
#[derive(Debug, Clone)]
pub struct ReplicateAucs {
    /// Model display names, in input order.
    pub models: Vec<String>,
    /// `aucs_full[m][r]` = full-budget AUC of model `m` in replicate `r`.
    pub aucs_full: Vec<Vec<f64>>,
    /// Same for the restricted budget (basis points).
    pub aucs_restricted: Vec<Vec<f64>>,
    /// Fraction of test-year failures detected within 1% of CWM *length*
    /// (the Fig 18.8 statistic), per model per replicate.
    pub detect_1pct_length: Vec<Vec<f64>>,
    /// Same statistic under risk-density (score/metre) ordering — the
    /// greedy inspection plan for a length budget.
    pub detect_1pct_density: Vec<Vec<f64>>,
}

impl ReplicateAucs {
    /// Replicate mean of a metric matrix row.
    pub fn mean_of(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    }
}

/// Run `replicates` seeded worlds of `region_config` and evaluate `models`
/// on each, in parallel.
pub fn replicate_aucs(
    region_config: &WorldConfig,
    models: &[ModelKind],
    run: RunConfig,
    replicates: usize,
    base_seed: u64,
) -> ReplicateAucs {
    // Per-model metric tuple: (auc_full, auc_restricted_bp, %len@1%, %len-density@1%).
    type RepMetrics = Vec<(f64, f64, f64, f64)>;
    let split = TrainTestSplit::paper_protocol();
    let pool = run.pool();
    // Replicates are the outer (homogeneous-cost) axis, so the pool fans out
    // here; each replicate's inner `evaluate_region` runs serially to avoid
    // oversubscribing cores with nested pools.
    let inner = if pool.threads() > 1 {
        run.with_threads(1)
    } else {
        run
    };
    let results: Vec<Option<RepMetrics>> = pool.run(replicates, |rep| {
        let seed = base_seed.wrapping_add(rep as u64 * 1_000_003);
        let world = region_config.build(seed);
        let ds = &world.regions()[0];
        // The paired tests need every model in every replicate; a replicate
        // where any model fails (even after its retries) is dropped whole so
        // the samples stay aligned.
        let r = evaluate_region(ds, &split, models, inner, seed);
        if !r.all_succeeded() {
            eprintln!(
                "[replicate {rep}] dropped: models failed: {}",
                r.failed_models().join(", ")
            );
            return None;
        }
        Some(
            r.models
                .iter()
                .map(|m| {
                    (
                        m.auc_full,
                        m.auc_restricted_bp,
                        m.curve_length.y_at(0.01),
                        m.curve_length_density.y_at(0.01),
                    )
                })
                .collect(),
        )
    });

    let mut aucs_full = vec![Vec::with_capacity(replicates); models.len()];
    let mut aucs_restricted = vec![Vec::with_capacity(replicates); models.len()];
    let mut detect_1pct_length = vec![Vec::with_capacity(replicates); models.len()];
    let mut detect_1pct_density = vec![Vec::with_capacity(replicates); models.len()];
    for rep in results.into_iter().flatten() {
        for (m, (full, restr, det, den)) in rep.into_iter().enumerate() {
            aucs_full[m].push(full);
            aucs_restricted[m].push(restr);
            detect_1pct_length[m].push(det);
            detect_1pct_density[m].push(den);
        }
    }
    ReplicateAucs {
        models: models.iter().map(ModelKind::display).collect(),
        aucs_full,
        aucs_restricted,
        detect_1pct_length,
        detect_1pct_density,
    }
}

/// One row of Table 18.4: proposed vs one baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Baseline name.
    pub versus: String,
    /// Test on the full-budget AUCs.
    pub full: TTestResult,
    /// Test on the restricted-budget AUCs.
    pub restricted: TTestResult,
}

/// Paired one-sided t-tests of the first model (the proposed method)
/// against every other, on both AUC variants.
pub fn compare_first_against_rest(aucs: &ReplicateAucs) -> Vec<Comparison> {
    let proposed_full = &aucs.aucs_full[0];
    let proposed_restricted = &aucs.aucs_restricted[0];
    (1..aucs.models.len())
        .map(|m| Comparison {
            versus: aucs.models[m].clone(),
            full: paired_t_test(proposed_full, &aucs.aucs_full[m], Alternative::Greater)
                .expect("replicate vectors are aligned"),
            restricted: paired_t_test(
                proposed_restricted,
                &aucs.aucs_restricted[m],
                Alternative::Greater,
            )
            .expect("replicate vectors are aligned"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::hbp::GroupingScheme;

    #[test]
    fn replicates_produce_aligned_samples() {
        let cfg = WorldConfig::paper().scaled(0.012).only_region("Region A");
        let models = [ModelKind::Dpmhbp, ModelKind::Hbp(GroupingScheme::Material)];
        let aucs = replicate_aucs(&cfg, &models, RunConfig::fast(), 4, 31);
        assert_eq!(aucs.models.len(), 2);
        assert_eq!(aucs.aucs_full[0].len(), 4);
        assert_eq!(aucs.aucs_full[1].len(), 4);
        assert!(aucs.aucs_full.iter().flatten().all(|a| (0.0..=1.0).contains(a)));
        let comps = compare_first_against_rest(&aucs);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].versus, "HBP[material]");
        assert!(comps[0].full.p_value >= 0.0 && comps[0].full.p_value <= 1.0);
    }

    #[test]
    fn replicates_are_deterministic_in_seed() {
        let cfg = WorldConfig::paper().scaled(0.012).only_region("Region A");
        let models = [ModelKind::TimeExp];
        let a = replicate_aucs(&cfg, &models, RunConfig::fast(), 3, 7);
        let b = replicate_aucs(&cfg, &models, RunConfig::fast(), 3, 7);
        assert_eq!(a.aucs_full, b.aucs_full);
    }
}
