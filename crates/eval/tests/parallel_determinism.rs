//! The parallel fit engine's core guarantee, property-tested: thread count
//! is a pure performance knob. Every fit is a pure function of
//! `(data, config, seed)` and the task pool partitions work statically, so
//! the serial runner and the parallel runner must agree bit for bit —
//! rankings, curves, AUCs, and retry accounting alike.

use pipefail_core::hbp::GroupingScheme;
use pipefail_eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail_eval::significance::replicate_aucs;
use pipefail_network::split::TrainTestSplit;
use pipefail_synth::WorldConfig;
use proptest::prelude::*;

/// A model mix covering both fit families: MCMC samplers (seed-sensitive,
/// retry-capable) and closed-form baselines (instantaneous).
fn model_mix() -> Vec<ModelKind> {
    vec![
        ModelKind::Dpmhbp,
        ModelKind::Hbp(GroupingScheme::Material),
        ModelKind::Cox,
        ModelKind::TimeExp,
    ]
}

proptest! {
    // Each case fits the model mix three times (threads = 1, 2, 4) on a
    // small world; a handful of random seeds is plenty to catch any
    // partition- or order-dependence.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `evaluate_region` at 2 and 4 threads replays the serial run
    /// byte-identically: same model results (curves and AUCs are pure
    /// functions of the rankings) and same fit reports.
    #[test]
    fn evaluate_region_is_thread_count_invariant(seed in 0u64..1_000_000) {
        let world = WorldConfig::paper()
            .scaled(0.02)
            .only_region("Region A")
            .build(5);
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let models = model_mix();
        let serial = evaluate_region(ds, &split, &models, RunConfig::fast().with_threads(1), seed);
        for threads in [2usize, 4] {
            let parallel = evaluate_region(
                ds,
                &split,
                &models,
                RunConfig::fast().with_threads(threads),
                seed,
            );
            // Any divergence here means the partitioning leaked into the
            // results — the one thing the task pool promises never happens.
            prop_assert_eq!(&serial, &parallel);
        }
    }

    /// The replicate engine inherits the same guarantee: AUC samples and
    /// detection statistics are identical whether replicates run serially
    /// or fanned out.
    #[test]
    fn replicate_aucs_are_thread_count_invariant(base_seed in 0u64..1_000_000) {
        let cfg = WorldConfig::paper().scaled(0.012).only_region("Region A");
        let models = [ModelKind::TimeExp, ModelKind::Cox];
        let serial = replicate_aucs(&cfg, &models, RunConfig::fast().with_threads(1), 3, base_seed);
        for threads in [2usize, 4] {
            let parallel =
                replicate_aucs(&cfg, &models, RunConfig::fast().with_threads(threads), 3, base_seed);
            prop_assert_eq!(&serial.aucs_full, &parallel.aucs_full);
            prop_assert_eq!(&serial.aucs_restricted, &parallel.aucs_restricted);
            prop_assert_eq!(&serial.detect_1pct_length, &parallel.detect_1pct_length);
            prop_assert_eq!(&serial.detect_1pct_density, &parallel.detect_1pct_density);
        }
    }
}
