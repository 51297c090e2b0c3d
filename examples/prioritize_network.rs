//! Renewal-planning scenario: compare all five models from the paper on one
//! region and print the Table 18.3-style summary plus the 1%-budget
//! detection shares that drive real inspection planning.
//!
//! ```text
//! cargo run --release --example prioritize_network -- "Region B" 0.05
//! ```
//!
//! Arguments (optional): region name, world scale.

use pipefail::eval::report::format_auc_table;
use pipefail::eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let region_name = args.get(1).map(String::as_str).unwrap_or("Region A");
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.05);

    let world = WorldConfig::paper()
        .scaled(scale)
        .only_region(region_name)
        .build(7);
    let region = world
        .region_named(region_name)
        .unwrap_or_else(|| panic!("unknown region {region_name:?} (use \"Region A\"/\"B\"/\"C\")"));
    let split = TrainTestSplit::paper_protocol();
    println!(
        "{}: {} CWM pipes, {} test-year failures",
        region.name(),
        region.pipes_of_class(PipeClass::Critical).count(),
        region
            .failures_in(split.test, Some(PipeClass::Critical), None)
            .count()
    );

    let result = evaluate_region(
        region,
        &split,
        &ModelKind::paper_five(),
        RunConfig::fast(),
        7,
    );

    println!("\n{}", format_auc_table(std::slice::from_ref(&result)));
    println!("Failures detected within a 1%-of-length inspection budget:");
    for m in &result.models {
        println!("  {:<16} {:>5.1}%", m.model, m.curve_length.y_at(0.01) * 100.0);
    }
}
