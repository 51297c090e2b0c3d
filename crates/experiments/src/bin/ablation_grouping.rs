//! A1 — Ablation: grouping scheme.
//!
//! §18.4.3 integrates three expert groupings with the HBP (material,
//! diameter, laid-year) and reports only the best; the DPMHBP replaces all
//! of them with the CRP. This ablation shows all four side by side per
//! region — the argument for nonparametric grouping.

use pipefail_core::hbp::GroupingScheme;
use pipefail_eval::report::format_auc_table;
use pipefail_eval::runner::{evaluate_region, ModelKind};
use pipefail_experiments::{section, Context};

fn main() {
    let ctx = Context::from_env();
    let world = ctx.build_world();
    let split = ctx.split();
    let models = [
        ModelKind::Dpmhbp,
        ModelKind::Hbp(GroupingScheme::Material),
        ModelKind::Hbp(GroupingScheme::Diameter),
        ModelKind::Hbp(GroupingScheme::LaidYear(10)),
    ];
    let results: Vec<_> = world
        .regions()
        .iter()
        .map(|ds| evaluate_region(ds, &split, &models, ctx.run_config(), ctx.seed))
        .collect();
    let table = format_auc_table(&results);
    section("Ablation A1 — CRP grouping vs fixed expert groupings", &table);
    ctx.write_artifact("ablation_grouping.txt", &table)
        .expect("write artifact");
}
