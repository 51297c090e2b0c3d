//! One entry point for the comparison experiments: fit every model on a
//! region and collect detection curves and AUCs (Fig 18.7, Table 18.3).

use crate::detection::DetectionCurve;
use crate::metrics::{auc_at_fraction, full_auc, mann_whitney_auc, to_basis_points};
use pipefail_baselines::cox::{CoxConfig, CoxModel};
use pipefail_baselines::time_models::{TimeModel, TimeModelKind};
use pipefail_baselines::weibull_nhpp::{WeibullNhpp, WeibullNhppConfig};
use pipefail_core::dpmhbp::{Dpmhbp, DpmhbpConfig};
use pipefail_core::hbp::{GroupingScheme, Hbp, HbpConfig};
use pipefail_core::model::{FailureModel, RiskRanking};
use pipefail_core::ranking::{RankSvm, RankSvmConfig};
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::split::TrainTestSplit;
use pipefail_par::TaskPool;
use pipefail_stats::rng::derive_seed;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The models compared in §18.4.3 (plus the early time models and the
/// ICDE-faithful evolution-strategy ranker as extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The proposed Dirichlet-process mixture of HBPs.
    Dpmhbp,
    /// HBP with a fixed grouping scheme.
    Hbp(GroupingScheme),
    /// Cox proportional hazards.
    Cox,
    /// Weibull NHPP.
    Weibull,
    /// Pairwise-hinge linear ranker (RankSVM).
    RankSvm,
    /// Direct-AUC evolution-strategy ranker (ICDE'13 Eq. 18.10).
    RankSvmEs,
    /// Time-exponential early model.
    TimeExp,
    /// Time-power early model.
    TimePow,
    /// Time-linear early model.
    TimeLin,
}

impl ModelKind {
    /// The paper's five compared methods (best HBP grouping chosen per the
    /// paper by material).
    pub fn paper_five() -> Vec<ModelKind> {
        vec![
            ModelKind::Dpmhbp,
            ModelKind::Hbp(GroupingScheme::Material),
            ModelKind::Cox,
            ModelKind::RankSvm,
            ModelKind::Weibull,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn display(&self) -> String {
        match self {
            ModelKind::Dpmhbp => "DPMHBP".into(),
            ModelKind::Hbp(g) => format!("HBP[{}]", g.label()),
            ModelKind::Cox => "Cox".into(),
            ModelKind::Weibull => "Weibull".into(),
            ModelKind::RankSvm => "SVM".into(),
            ModelKind::RankSvmEs => "SVM-ES".into(),
            ModelKind::TimeExp => "TimeExp".into(),
            ModelKind::TimePow => "TimePow".into(),
            ModelKind::TimeLin => "TimeLin".into(),
        }
    }

    /// Instantiate the model; `fast` selects reduced MCMC/SGD effort for
    /// tests and benches.
    pub fn build(&self, fast: bool) -> Box<dyn FailureModel> {
        self.build_with_budget(fast, None)
    }

    /// Like [`ModelKind::build`], but wires a wall-clock budget (seconds)
    /// into the MCMC chain-health monitor of the sampling models, so a hung
    /// chain surfaces `McmcError::Timeout` instead of running forever. The
    /// closed-form baselines ignore the budget (they are effectively
    /// instantaneous).
    pub fn build_with_budget(&self, fast: bool, budget_secs: Option<f64>) -> Box<dyn FailureModel> {
        match self {
            ModelKind::Dpmhbp => {
                let cfg = if fast { DpmhbpConfig::fast() } else { DpmhbpConfig::default() };
                Box::new(Dpmhbp::new(DpmhbpConfig { budget_secs, ..cfg }))
            }
            ModelKind::Hbp(g) => {
                let cfg = if fast { HbpConfig::fast() } else { HbpConfig::default() };
                Box::new(Hbp::new(HbpConfig {
                    grouping: *g,
                    budget_secs,
                    ..cfg
                }))
            }
            ModelKind::Cox => Box::new(CoxModel::new(CoxConfig::default())),
            ModelKind::Weibull => Box::new(WeibullNhpp::new(WeibullNhppConfig::default())),
            ModelKind::RankSvm => Box::new(RankSvm::new(if fast {
                RankSvmConfig::fast()
            } else {
                RankSvmConfig::default()
            })),
            ModelKind::RankSvmEs => Box::new(RankSvm::new(RankSvmConfig::evolution())),
            ModelKind::TimeExp => Box::new(TimeModel::new(TimeModelKind::Exponential)),
            ModelKind::TimePow => Box::new(TimeModel::new(TimeModelKind::Power)),
            ModelKind::TimeLin => Box::new(TimeModel::new(TimeModelKind::Linear)),
        }
    }
}

/// Recovery policy for failed model fits.
///
/// A chain that diverges, gets stuck, or exhausts its wall-clock budget is
/// restarted with a jittered initialisation: the retry reseeds the fit from a
/// sub-seed of the original seed (via [`pipefail_stats::rng::derive_seed`]),
/// which perturbs every initial draw while keeping the whole experiment a
/// pure function of the master seed. Retries are bounded both by attempt
/// count and by a per-model wall-clock budget; when both are exhausted the
/// model is reported as failed and evaluation of the remaining models
/// continues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failed fit (0 disables retries).
    pub max_retries: usize,
    /// Per-model wall-clock budget in seconds across *all* attempts;
    /// `f64::INFINITY` disables the budget. The remaining budget is also
    /// wired into the MCMC chain-health monitor so a hung chain times out
    /// from the inside rather than blocking the runner.
    pub budget_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            budget_secs: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// No retries, no budget: a failing model fails on its first attempt.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            budget_secs: f64::INFINITY,
        }
    }

    /// Read the policy from the environment:
    /// `PIPEFAIL_MAX_RETRIES` (default 2) and
    /// `PIPEFAIL_MODEL_BUDGET_SECS` (default unlimited). Unparseable values
    /// fall back to the defaults.
    pub fn from_env() -> Self {
        let defaults = Self::default();
        let max_retries = std::env::var("PIPEFAIL_MAX_RETRIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.max_retries);
        let budget_secs = std::env::var("PIPEFAIL_MODEL_BUDGET_SECS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|b| *b > 0.0)
            .unwrap_or(defaults.budget_secs);
        Self {
            max_retries,
            budget_secs,
        }
    }
}

/// Evaluation configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Reduced model effort (short MCMC schedules).
    pub fast: bool,
    /// Pipe class to evaluate (the paper: critical water mains).
    pub class: PipeClass,
    /// Restricted inspection budget for the AUC(x%) column (the paper: 1%).
    pub restricted_budget: f64,
    /// Recovery policy for failed fits.
    pub retry: RetryPolicy,
    /// Worker threads for the model/replicate fan-out; `0` defers to
    /// `PIPEFAIL_THREADS` (and machine auto-sizing). Results are
    /// byte-identical at any value — every fit is a pure function of
    /// `(data, config, seed)` and threads only change the work partition.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            fast: false,
            class: PipeClass::Critical,
            restricted_budget: 0.01,
            retry: RetryPolicy::default(),
            threads: 0,
        }
    }
}

impl RunConfig {
    /// Fast configuration for tests/benches.
    pub fn fast() -> Self {
        Self {
            fast: true,
            ..Self::default()
        }
    }

    /// This configuration with an explicit worker-thread count.
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// The task pool this configuration fans out on.
    pub fn pool(&self) -> TaskPool {
        if self.threads == 0 {
            TaskPool::from_env()
        } else {
            TaskPool::new(self.threads)
        }
    }
}

/// One model's evaluation on one region.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResult {
    /// Display name.
    pub model: String,
    /// Detection curve with the pipe-count budget axis (Fig 18.7).
    pub curve_count: DetectionCurve,
    /// Detection curve with the network-length budget axis (Fig 18.8).
    pub curve_length: DetectionCurve,
    /// Length-budget curve with risk-density (score/metre) ordering — the
    /// greedy inspection plan for a km budget (Fig 18.8 companion).
    pub curve_length_density: DetectionCurve,
    /// AUC over the full budget (Table 18.3, row "AUC (100%)").
    pub auc_full: f64,
    /// AUC up to the restricted budget, in basis points (row "AUC (1%)").
    pub auc_restricted_bp: f64,
    /// Mann–Whitney AUC against test-window labels (cross-check).
    pub mann_whitney: Option<f64>,
}

/// The outcome of fitting one model (with retries) on one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitReport {
    /// Display name.
    pub model: String,
    /// Total fit attempts made (1 = succeeded or failed first try).
    pub attempts: usize,
    /// `Some(message)` when all attempts failed; `None` on success.
    pub error: Option<String>,
}

impl FitReport {
    /// True when some attempt produced a ranking.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }

    /// True when the model needed more than one attempt (regardless of the
    /// final outcome).
    pub fn retried(&self) -> bool {
        self.attempts > 1
    }
}

/// All models' evaluations on one region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionResult {
    /// Region name.
    pub region: String,
    /// Per-model results for the models that fit successfully, in input
    /// order (failed models are absent here — see `fits`).
    pub models: Vec<ModelResult>,
    /// Per-model fit outcome for *every* requested model, in input order.
    pub fits: Vec<FitReport>,
}

impl RegionResult {
    /// Result for a model by display name.
    pub fn model(&self, name: &str) -> Option<&ModelResult> {
        self.models.iter().find(|m| m.model == name)
    }

    /// True when every requested model produced a ranking.
    pub fn all_succeeded(&self) -> bool {
        self.fits.iter().all(FitReport::succeeded)
    }

    /// Display names of the models whose every attempt failed.
    pub fn failed_models(&self) -> Vec<&str> {
        self.fits
            .iter()
            .filter(|f| !f.succeeded())
            .map(|f| f.model.as_str())
            .collect()
    }

    /// Number of models that needed more than one attempt.
    pub fn retried_count(&self) -> usize {
        self.fits.iter().filter(|f| f.retried()).count()
    }
}

/// Stream offset for retry sub-seeds, far from the small stream ids the
/// replicate machinery uses, so a retried fit never collides with another
/// component's RNG stream.
const RETRY_STREAM_BASE: u64 = 0x0052_4554_5259; // "RETRY"

/// Fit `kind` on `dataset` under the recovery policy in `config.retry`.
///
/// Attempt 0 uses `seed` unchanged (so a clean run is byte-identical to the
/// pre-retry behaviour); attempt `k > 0` reseeds from
/// `derive_seed(seed, RETRY_STREAM_BASE + k)`, which jitters the chain's
/// initialisation away from whatever poisoned the previous attempt. A panic
/// inside a model is caught and treated as a failed attempt, so one broken
/// baseline cannot abort a whole experiment sweep.
///
/// Returns the ranking of the first successful attempt plus the report, or
/// the report alone when the attempt/wall-clock budget is exhausted.
pub fn fit_with_retry(
    kind: ModelKind,
    dataset: &Dataset,
    split: &TrainTestSplit,
    config: RunConfig,
    seed: u64,
) -> (Option<RiskRanking>, FitReport) {
    fit_with_retry_using(
        kind.display(),
        |budget| kind.build_with_budget(config.fast, budget),
        dataset,
        split,
        config,
        seed,
    )
}

/// Retry engine behind [`fit_with_retry`], generic over the model builder so
/// tests can inject deterministic-failure models.
fn fit_with_retry_using(
    name: String,
    mut build: impl FnMut(Option<f64>) -> Box<dyn FailureModel>,
    dataset: &Dataset,
    split: &TrainTestSplit,
    config: RunConfig,
    seed: u64,
) -> (Option<RiskRanking>, FitReport) {
    let policy = config.retry;
    let started = Instant::now();
    let mut attempts = 0;
    let mut last_error = String::from("no fit attempted");
    while attempts <= policy.max_retries {
        let remaining = policy.budget_secs - started.elapsed().as_secs_f64();
        if attempts > 0 && remaining <= 0.0 {
            last_error = format!(
                "wall-clock budget of {:.1}s exhausted after {attempts} attempt(s); last error: {last_error}",
                policy.budget_secs
            );
            break;
        }
        let attempt_seed = if attempts == 0 {
            seed
        } else {
            derive_seed(seed, RETRY_STREAM_BASE + attempts as u64)
        };
        let budget = remaining.is_finite().then_some(remaining);
        let mut model = build(budget);
        attempts += 1;
        let fit = catch_unwind(AssertUnwindSafe(|| {
            model.fit_rank_class(dataset, split, config.class, attempt_seed)
        }));
        match fit {
            Ok(Ok(ranking)) => {
                return (
                    Some(ranking),
                    FitReport {
                        model: name,
                        attempts,
                        error: None,
                    },
                );
            }
            Ok(Err(e)) => last_error = e.to_string(),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                last_error = format!("model panicked: {msg}");
            }
        }
    }
    (
        None,
        FitReport {
            model: name,
            attempts,
            error: Some(last_error),
        },
    )
}

/// Fit and evaluate every `model` on `dataset`.
///
/// A model whose every attempt fails (see [`RetryPolicy`]) is recorded in
/// [`RegionResult::fits`] and skipped; the remaining models still evaluate.
pub fn evaluate_region(
    dataset: &Dataset,
    split: &TrainTestSplit,
    models: &[ModelKind],
    config: RunConfig,
    seed: u64,
) -> RegionResult {
    // Each model fit is a pure function of `(dataset, split, config, seed)`,
    // so fanning the loop out over a task pool cannot change any result —
    // only the wall clock. Curves and AUCs are computed inside the task (they
    // are per-model work too), and the pool returns slots in input order.
    let evaluated = config.pool().run(models.len(), |m| {
        let kind = models[m];
        let (ranking, report) = fit_with_retry(kind, dataset, split, config, seed);
        let result = ranking.map(|ranking| {
            let curve_count = DetectionCurve::by_count(&ranking, dataset, split.test);
            let curve_length = DetectionCurve::by_length(&ranking, dataset, split.test);
            let curve_length_density =
                DetectionCurve::by_length_density(&ranking, dataset, split.test);
            ModelResult {
                model: kind.display(),
                auc_full: full_auc(&curve_count),
                // Table 18.3's restricted row is "when 1% of CWMs are
                // inspected" — a pipe-count budget; Fig 18.8's length budget
                // is served by `curve_length`.
                auc_restricted_bp: to_basis_points(auc_at_fraction(
                    &curve_count,
                    config.restricted_budget,
                )),
                mann_whitney: mann_whitney_auc(&ranking, dataset, split.test),
                curve_count,
                curve_length,
                curve_length_density,
            }
        });
        (result, report)
    });
    let mut out = Vec::with_capacity(models.len());
    let mut fits = Vec::with_capacity(models.len());
    for (result, report) in evaluated {
        fits.push(report);
        out.extend(result);
    }
    RegionResult {
        region: dataset.name().to_string(),
        models: out,
        fits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::{CoreError, Result};
    use pipefail_synth::WorldConfig;

    #[test]
    fn evaluates_all_paper_models_on_demo_region() {
        // Scale/seed chosen so the test year has CWM failures (tiny worlds
        // often have none in a single year, which makes every AUC trivially
        // zero).
        let world = WorldConfig::paper()
            .scaled(0.04)
            .only_region("Region A")
            .build(5);
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        assert!(
            ds.failures_in(split.test, Some(PipeClass::Critical), None)
                .count()
                > 0,
            "fixture must have test-year CWM failures"
        );
        let result = evaluate_region(ds, &split, &ModelKind::paper_five(), RunConfig::fast(), 7);
        assert_eq!(result.models.len(), 5);
        for m in &result.models {
            assert!(
                m.auc_full > 0.0 && m.auc_full < 1.0,
                "{}: auc {}",
                m.model,
                m.auc_full
            );
            assert!(m.auc_restricted_bp >= 0.0);
            assert!(!m.curve_count.is_empty());
        }
        assert!(result.model("DPMHBP").is_some());
        assert!(result.model("nonexistent").is_none());
    }

    #[test]
    fn model_kind_display_names() {
        assert_eq!(ModelKind::Dpmhbp.display(), "DPMHBP");
        assert_eq!(
            ModelKind::Hbp(GroupingScheme::Material).display(),
            "HBP[material]"
        );
        assert_eq!(ModelKind::paper_five().len(), 5);
    }

    fn tiny_world() -> pipefail_synth::World {
        WorldConfig::paper().scaled(0.02).only_region("Region A").build(5)
    }

    #[test]
    fn diverged_chain_is_retried_with_a_jittered_seed() {
        let world = tiny_world();
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let seeds = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seeds_for_build = seeds.clone();
        let (ranking, report) = fit_with_retry_using(
            "flaky".into(),
            move |_budget| {
                // A fresh model per attempt, like the real builder; the
                // shared log collects the seed of every attempt.
                Box::new(SeedLogger {
                    fail_on_seed: 7,
                    log: seeds_for_build.clone(),
                })
            },
            ds,
            &split,
            RunConfig::fast(),
            7,
        );
        assert!(ranking.is_some(), "jittered retry should succeed");
        assert!(report.succeeded());
        assert!(report.retried(), "first attempt fails on the master seed");
        assert_eq!(report.attempts, 2);
        let seen = seeds.borrow();
        assert_eq!(seen[0], 7, "attempt 0 must use the master seed");
        assert_ne!(seen[1], 7, "the retry must reseed");
        assert_eq!(
            seen[1],
            derive_seed(7, RETRY_STREAM_BASE + 1),
            "retry sub-seed is a pure function of the master seed"
        );
    }

    /// Like [`FlakyModel`] but logging into a shared cell so the test can
    /// observe seeds across the per-attempt rebuilds.
    struct SeedLogger {
        fail_on_seed: u64,
        log: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }

    impl FailureModel for SeedLogger {
        fn name(&self) -> &'static str {
            "seed-logger"
        }

        fn fit_rank_class(
            &mut self,
            _dataset: &Dataset,
            _split: &TrainTestSplit,
            _class: PipeClass,
            seed: u64,
        ) -> Result<RiskRanking> {
            self.log.borrow_mut().push(seed);
            if seed == self.fail_on_seed {
                Err(CoreError::Chain(pipefail_core::McmcError::ChainDiverged {
                    sweep: 3,
                    divergences: 40,
                }))
            } else {
                Ok(RiskRanking::new(vec![]))
            }
        }
    }

    struct AlwaysPanics;

    impl FailureModel for AlwaysPanics {
        fn name(&self) -> &'static str {
            "panics"
        }

        fn fit_rank_class(
            &mut self,
            _dataset: &Dataset,
            _split: &TrainTestSplit,
            _class: PipeClass,
            _seed: u64,
        ) -> Result<RiskRanking> {
            panic!("boom in model code")
        }
    }

    #[test]
    fn panicking_model_degrades_to_a_failure_report() {
        let world = tiny_world();
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let mut run = RunConfig::fast();
        run.retry = RetryPolicy {
            max_retries: 1,
            budget_secs: f64::INFINITY,
        };
        let (ranking, report) = fit_with_retry_using(
            "panics".into(),
            |_budget| Box::new(AlwaysPanics),
            ds,
            &split,
            run,
            7,
        );
        assert!(ranking.is_none());
        assert_eq!(report.attempts, 2, "one retry after the panic");
        let err = report.error.expect("failure recorded");
        assert!(err.contains("panicked") && err.contains("boom"), "{err}");
    }

    /// A model that burns `delay` of wall clock per attempt and always fails
    /// — the fixture for budget-bound retry tests. The tunable delay keeps
    /// the test fast while still giving the budget something to measure.
    struct SlowFailure {
        delay: std::time::Duration,
    }

    impl SlowFailure {
        fn with_millis(ms: u64) -> Self {
            Self {
                delay: std::time::Duration::from_millis(ms),
            }
        }
    }

    impl FailureModel for SlowFailure {
        fn name(&self) -> &'static str {
            "slow-failure"
        }

        fn fit_rank_class(
            &mut self,
            _dataset: &Dataset,
            _split: &TrainTestSplit,
            _class: PipeClass,
            _seed: u64,
        ) -> Result<RiskRanking> {
            std::thread::sleep(self.delay);
            Err(CoreError::FitFailed("still broken".into()))
        }
    }

    #[test]
    fn wall_clock_budget_bounds_the_retries() {
        let world = tiny_world();
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let mut run = RunConfig::fast();
        run.retry = RetryPolicy {
            max_retries: 1_000,
            budget_secs: 0.02,
        };
        let (ranking, report) = fit_with_retry_using(
            "slow-failure".into(),
            |_budget| Box::new(SlowFailure::with_millis(5)),
            ds,
            &split,
            run,
            7,
        );
        assert!(ranking.is_none());
        assert!(
            report.attempts < 100,
            "budget must stop retries long before the attempt cap: {}",
            report.attempts
        );
        let err = report.error.expect("failure recorded");
        assert!(err.contains("wall-clock budget"), "{err}");
        assert!(err.contains("still broken"), "last error preserved: {err}");
    }

    #[test]
    fn evaluate_region_continues_past_a_failed_model() {
        let world = tiny_world();
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let mut run = RunConfig::fast();
        // A microscopic budget makes the DPMHBP chain time out from the
        // inside; the closed-form time model ignores the budget and fits.
        run.retry = RetryPolicy {
            max_retries: 2,
            budget_secs: 1e-4,
        };
        let result = evaluate_region(ds, &split, &[ModelKind::Dpmhbp, ModelKind::TimeExp], run, 7);
        assert_eq!(result.fits.len(), 2);
        assert!(!result.all_succeeded());
        assert_eq!(result.failed_models(), vec!["DPMHBP"]);
        assert!(result.model("TimeExp").is_some(), "survivor still evaluated");
        assert!(result.model("DPMHBP").is_none());
    }

    #[test]
    fn identical_seeds_replay_identical_rankings() {
        // The determinism guard behind the seeded retries and the
        // byte-identical experiment artefacts: a clean fit is a pure
        // function of (data, config, seed), bit for bit.
        let world = tiny_world();
        let ds = &world.regions()[0];
        let split = TrainTestSplit::paper_protocol();
        let (r1, rep1) = fit_with_retry(ModelKind::Dpmhbp, ds, &split, RunConfig::fast(), 9);
        let (r2, rep2) = fit_with_retry(ModelKind::Dpmhbp, ds, &split, RunConfig::fast(), 9);
        assert_eq!(rep1.attempts, 1);
        assert_eq!(rep2.attempts, 1);
        assert_eq!(
            r1.expect("clean fit"),
            r2.expect("clean fit"),
            "same seed must replay byte-identical scores"
        );
    }

    #[test]
    fn retry_policy_env_parsing() {
        // Temporarily set the knobs; tests in this binary run in threads of
        // one process, so restore them to avoid cross-test pollution.
        std::env::set_var("PIPEFAIL_MAX_RETRIES", "5");
        std::env::set_var("PIPEFAIL_MODEL_BUDGET_SECS", "12.5");
        let p = RetryPolicy::from_env();
        std::env::remove_var("PIPEFAIL_MAX_RETRIES");
        std::env::remove_var("PIPEFAIL_MODEL_BUDGET_SECS");
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.budget_secs, 12.5);
        let d = RetryPolicy::from_env();
        assert_eq!(d, RetryPolicy::default());
    }
}
