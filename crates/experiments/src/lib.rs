//! # pipefail-experiments
//!
//! Experiment drivers: one binary per table/figure of the paper's
//! evaluation (§18.4), plus the ablations called out in DESIGN.md.
//!
//! Every binary reads the same environment knobs:
//!
//! * `PIPEFAIL_SCALE` — world scale relative to Table 18.1 (default 0.12;
//!   1.0 regenerates the full ~45k-pipe metropolis);
//! * `PIPEFAIL_SEED`  — master seed (default 20260704);
//! * `PIPEFAIL_FAST`  — `1` (default) for reduced MCMC schedules, `0` for
//!   the full schedules;
//! * `PIPEFAIL_REPLICATES` — replicate worlds for the significance tests
//!   (default 10);
//! * `PIPEFAIL_OUT`   — output directory (default `target/repro`);
//! * `PIPEFAIL_MAX_RETRIES` — extra fit attempts after a chain failure
//!   (default 2); retries reseed from a derived sub-seed;
//! * `PIPEFAIL_MODEL_BUDGET_SECS` — per-model wall-clock budget across all
//!   attempts (default unlimited).
//!
//! Outputs are printed to stdout **and** written under the output directory
//! so `EXPERIMENTS.md` can reference stable artefacts.

use pipefail_eval::runner::{evaluate_region, ModelKind, RegionResult, RetryPolicy, RunConfig};
use pipefail_network::split::TrainTestSplit;
use pipefail_synth::{World, WorldConfig};
use std::path::{Path, PathBuf};

/// Shared experiment context parsed from the environment.
#[derive(Debug, Clone)]
pub struct Context {
    /// World scale in (0, 1].
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Reduced model effort.
    pub fast: bool,
    /// Replicates for significance tests.
    pub replicates: usize,
    /// Output directory.
    pub out_dir: PathBuf,
}

impl Context {
    /// Read the context from the environment (see crate docs for knobs).
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        let scale = get("PIPEFAIL_SCALE")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.12_f64)
            .clamp(0.001, 1.0);
        let seed = get("PIPEFAIL_SEED")
            .and_then(|v| v.parse().ok())
            .unwrap_or(20_260_704);
        let fast = get("PIPEFAIL_FAST").is_none_or(|v| v != "0");
        let replicates = get("PIPEFAIL_REPLICATES")
            .and_then(|v| v.parse().ok())
            .unwrap_or(10)
            .max(2);
        let out_dir = get("PIPEFAIL_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/repro"));
        Self {
            scale,
            seed,
            fast,
            replicates,
            out_dir,
        }
    }

    /// The scaled three-region world configuration.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig::paper().scaled(self.scale)
    }

    /// Generate the world.
    pub fn build_world(&self) -> World {
        self.world_config().build(self.seed)
    }

    /// The paper's train/test protocol.
    pub fn split(&self) -> TrainTestSplit {
        TrainTestSplit::paper_protocol()
    }

    /// Run configuration for the evaluation harness, including the
    /// environment-configured recovery policy.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            fast: self.fast,
            retry: RetryPolicy::from_env(),
            ..RunConfig::default()
        }
    }

    /// Write an artefact under the output directory (creating it), echoing
    /// the path.
    pub fn write_artifact(&self, name: &str, content: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(name);
        std::fs::write(&path, content)?;
        println!("[wrote {}]", path.display());
        Ok(path)
    }
}

/// Fit the paper's five models on every region of `world` (the shared core
/// of Fig 18.7, Table 18.3, Fig 18.8 and Fig 18.9).
pub fn run_comparison(ctx: &Context, world: &World) -> Vec<RegionResult> {
    let split = ctx.split();
    let models = ModelKind::paper_five();
    world
        .regions()
        .iter()
        .map(|ds| {
            let r = evaluate_region(ds, &split, &models, ctx.run_config(), ctx.seed);
            // Failed models are skipped, not fatal; surface them so the
            // report's missing rows are explained.
            for f in r.fits.iter().filter(|f| !f.succeeded()) {
                eprintln!(
                    "[{}] {} failed after {} attempt(s): {}",
                    r.region,
                    f.model,
                    f.attempts,
                    f.error.as_deref().unwrap_or("unknown")
                );
            }
            r
        })
        .collect()
}

/// Echo a report section to stdout.
pub fn section(title: &str, body: &str) {
    println!("\n### {title}\n");
    println!("{body}");
}

/// Path helper for tests.
pub fn exists(p: &Path) -> bool {
    p.exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_defaults_are_sane() {
        let ctx = Context::from_env();
        assert!(ctx.scale > 0.0 && ctx.scale <= 1.0);
        assert!(ctx.replicates >= 2);
        assert_eq!(ctx.world_config().regions.len(), 3);
    }

    #[test]
    fn artifact_roundtrip() {
        let ctx = Context {
            scale: 0.01,
            seed: 1,
            fast: true,
            replicates: 2,
            out_dir: std::env::temp_dir().join(format!("pipefail_exp_{}", std::process::id())),
        };
        let p = ctx.write_artifact("hello.txt", "world").unwrap();
        assert!(exists(&p));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "world");
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
