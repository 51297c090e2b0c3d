//! Cross-crate integration: world generation → model fitting → evaluation,
//! exercising the same path as the paper's comparison experiments.

use pipefail::eval::metrics::mann_whitney_auc;
use pipefail::eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail::prelude::*;

fn region_with_test_failures(scale: f64, base_seed: u64) -> pipefail::network::Dataset {
    // Tiny worlds sometimes have no test-year CWM failures; scan seeds.
    let split = TrainTestSplit::paper_protocol();
    for offset in 0..20 {
        let world = WorldConfig::paper()
            .scaled(scale)
            .only_region("Region A")
            .build(base_seed + offset);
        let ds = world.regions()[0].clone();
        if ds
            .failures_in(split.test, Some(PipeClass::Critical), None)
            .count()
            >= 2
        {
            return ds;
        }
    }
    panic!("no seed produced test-year failures at scale {scale}");
}

#[test]
fn all_models_rank_the_same_pipe_set() {
    let ds = region_with_test_failures(0.03, 100);
    let split = TrainTestSplit::paper_protocol();
    let result = evaluate_region(
        &ds,
        &split,
        &[
            ModelKind::Dpmhbp,
            ModelKind::Hbp(pipefail::core::hbp::GroupingScheme::Material),
            ModelKind::Cox,
            ModelKind::Weibull,
            ModelKind::RankSvm,
            ModelKind::TimeExp,
            ModelKind::TimePow,
            ModelKind::TimeLin,
        ],
        RunConfig::fast(),
        9,
    );
    let n = ds.pipes_of_class(PipeClass::Critical).count();
    for m in &result.models {
        assert_eq!(m.curve_count.len(), n, "{} ranked a different set", m.model);
        assert!(m.auc_full.is_finite());
    }
}

#[test]
fn dpmhbp_beats_chance_on_average() {
    // Averaged over replicate worlds, the proposed model must rank 2009
    // failures well above chance (MW-AUC 0.5). Single worlds are noisy, so
    // average over several.
    let split = TrainTestSplit::paper_protocol();
    let mut aucs = Vec::new();
    for seed in [201u64, 202, 203, 204, 205] {
        let world = WorldConfig::paper()
            .scaled(0.04)
            .only_region("Region A")
            .build(seed);
        let ds = &world.regions()[0];
        let mut model = Dpmhbp::new(DpmhbpConfig::fast());
        let ranking = model.fit_rank(ds, &split, seed).unwrap();
        if let Some(a) = mann_whitney_auc(&ranking, ds, split.test) {
            aucs.push(a);
        }
    }
    assert!(aucs.len() >= 3, "too few informative replicates");
    let mean: f64 = aucs.iter().sum::<f64>() / aucs.len() as f64;
    assert!(mean > 0.55, "mean MW-AUC {mean} not above chance: {aucs:?}");
}

#[test]
fn informed_models_beat_age_only_models_on_average() {
    // The paper's qualitative shape: multivariate/nonparametric models beat
    // the early time-only models. Checked on averaged MW-AUC across seeds.
    let split = TrainTestSplit::paper_protocol();
    let mut dpm = Vec::new();
    let mut tim = Vec::new();
    for seed in [301u64, 302, 303, 304] {
        let world = WorldConfig::paper()
            .scaled(0.04)
            .only_region("Region C")
            .build(seed);
        let ds = &world.regions()[0];
        let mut a = Dpmhbp::new(DpmhbpConfig::fast());
        let mut b = pipefail::baselines::time_models::TimeModel::new(
            pipefail::baselines::time_models::TimeModelKind::Linear,
        );
        let ra = a.fit_rank(ds, &split, seed).unwrap();
        let rb = pipefail::core::model::FailureModel::fit_rank(&mut b, ds, &split, seed).unwrap();
        if let (Some(x), Some(y)) = (
            mann_whitney_auc(&ra, ds, split.test),
            mann_whitney_auc(&rb, ds, split.test),
        ) {
            dpm.push(x);
            tim.push(y);
        }
    }
    assert!(!dpm.is_empty());
    let mean_dpm: f64 = dpm.iter().sum::<f64>() / dpm.len() as f64;
    let mean_tim: f64 = tim.iter().sum::<f64>() / tim.len() as f64;
    assert!(
        mean_dpm + 0.02 > mean_tim,
        "DPMHBP {mean_dpm} should not trail TimeLin {mean_tim} badly"
    );
}

#[test]
fn rankings_are_reproducible_across_processes() {
    // Same world + same seed ⇒ byte-identical ranking (the whole stack is
    // deterministic in the seed).
    let world = WorldConfig::paper().scaled(0.02).only_region("Region B").build(77);
    let ds = &world.regions()[0];
    let split = TrainTestSplit::paper_protocol();
    let r1 = Dpmhbp::new(DpmhbpConfig::fast()).fit_rank(ds, &split, 5).unwrap();
    let r2 = Dpmhbp::new(DpmhbpConfig::fast()).fit_rank(ds, &split, 5).unwrap();
    assert_eq!(r1, r2);
}
