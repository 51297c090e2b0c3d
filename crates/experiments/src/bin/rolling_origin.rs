//! Extension — rolling-origin temporal evaluation.
//!
//! The paper fixes one split (train 1998–2008, test 2009). Utilities
//! re-plan yearly, so a more informative protocol rolls the origin: train on
//! 1998..y−1, test on year y, for every y with at least five training
//! years. Each year gives a matched sample per model — the same pairing
//! structure the paper's significance tests rely on, but within one world.
//! Fits go through the experiments' retry policy; a (model, year) pair that
//! fails every attempt is named in the artifact and left out of that model's
//! mean and of its paired tests.

use pipefail_eval::metrics::mann_whitney_auc;
use pipefail_eval::runner::{fit_with_retry, ModelKind};
use pipefail_experiments::{section, Context};
use pipefail_network::split::{ObservationWindow, TrainTestSplit};
use pipefail_stats::hypothesis::{paired_t_test, Alternative};

fn main() {
    let ctx = Context::from_env();
    let config = ctx.run_config();
    let world = ctx.build_world();
    let models = ModelKind::paper_five();
    let mut out = String::new();
    for ds in world.regions() {
        let years: Vec<i32> = (2003..=2009).collect();
        // aucs[m]: (test year, AUC) for every year model m was scored on. A
        // fit that fails every attempt is named below and its year skipped.
        let mut aucs: Vec<Vec<(i32, f64)>> = vec![Vec::new(); models.len()];
        let mut failed = Vec::new();
        for &year in &years {
            let split = TrainTestSplit::new(
                ObservationWindow::new(1998, year - 1),
                ObservationWindow::new(year, year),
            );
            for (m, &kind) in models.iter().enumerate() {
                match fit_with_retry(kind, ds, &split, config, ctx.seed ^ year as u64) {
                    (Some(ranking), _) => {
                        if let Some(a) = mann_whitney_auc(&ranking, ds, split.test) {
                            aucs[m].push((year, a));
                        }
                    }
                    (None, report) => failed.push(format!(
                        "{} {year} ({} attempt(s): {})",
                        report.model,
                        report.attempts,
                        report.error.as_deref().unwrap_or("unknown")
                    )),
                }
            }
        }
        out.push_str(&format!(
            "== {} (MW-AUC by rolling test year {}..={}) ==\n",
            ds.name(),
            years.first().unwrap(),
            years.last().unwrap()
        ));
        for (m, kind) in models.iter().enumerate() {
            let mean = aucs[m].iter().map(|&(_, a)| a).sum::<f64>() / aucs[m].len().max(1) as f64;
            out.push_str(&format!(
                "{:<16} mean {:>6.2}%  ({} years)\n",
                kind.display(),
                mean * 100.0,
                aucs[m].len()
            ));
        }
        // Paired test DPMHBP vs each baseline across the years both were
        // scored on (the paper's pairing unit).
        for m in 1..models.len() {
            let (ours, theirs): (Vec<f64>, Vec<f64>) = aucs[0]
                .iter()
                .filter_map(|&(year, a)| {
                    let b = aucs[m].iter().find(|&&(y, _)| y == year)?.1;
                    Some((a, b))
                })
                .unzip();
            if ours.len() < 3 {
                continue;
            }
            if let Ok(t) = paired_t_test(&ours, &theirs, Alternative::Greater) {
                out.push_str(&format!(
                    "  DPMHBP vs {:<12} t = {:>6.2}, p = {:.4} {}\n",
                    models[m].display(),
                    t.t,
                    t.p_value,
                    if t.significant_at(0.05) { "(sig)" } else { "" }
                ));
            }
        }
        for f in &failed {
            out.push_str(&format!("  not scored: {f}\n"));
        }
        out.push('\n');
    }
    section("Rolling-origin evaluation", &out);
    ctx.write_artifact("rolling_origin.txt", &out)
        .expect("write artifact");
}
