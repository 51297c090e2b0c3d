//! Integration: the figure/table artefact producers generate well-formed
//! outputs on a miniature world (the experiment binaries drive the same
//! code at larger scale).

use pipefail::eval::report::{binned_rates, detection_curves_csv, format_auc_table};
use pipefail::eval::riskmap::risk_map;
use pipefail::eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail::eval::svg::network_map;
use pipefail::network::summary::{format_table, summarize};
use pipefail::prelude::*;

fn demo() -> pipefail::network::Dataset {
    WorldConfig::paper()
        .scaled(0.04)
        .only_region("Region A")
        .build(5)
        .regions()[0]
        .clone()
}

#[test]
fn table18_1_shape() {
    let ds = demo();
    let rows = summarize(&ds);
    assert_eq!(rows.len(), 2);
    let text = format_table(&rows);
    assert!(text.contains("Region A"));
    assert!(text.contains("CWM"));
    assert!(text.contains("1998-2009"));
}

#[test]
fn fig18_2_svg_is_wellformed() {
    let ds = demo();
    let svg = network_map(&ds, 400.0, 400.0);
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("#cc2222") && svg.contains("#2244cc"));
    assert!(svg.trim_end().ends_with("</svg>"));
}

#[test]
fn fig18_7_and_table18_3_artifacts() {
    let ds = demo();
    let split = TrainTestSplit::paper_protocol();
    let result = evaluate_region(
        &ds,
        &split,
        &[ModelKind::Dpmhbp, ModelKind::Cox],
        RunConfig::fast(),
        5,
    );
    let csv = detection_curves_csv(&result, 50);
    assert_eq!(csv.lines().count(), 51);
    assert!(csv.starts_with("budget,DPMHBP,Cox"));
    let table = format_auc_table(std::slice::from_ref(&result));
    assert!(table.contains("DPMHBP") && table.contains("Cox"));
}

#[test]
fn fig18_9_riskmap_renders() {
    let ds = demo();
    let split = TrainTestSplit::paper_protocol();
    let mut model = Hbp::new(HbpConfig::fast());
    let ranking = model.fit_rank(&ds, &split, 5).unwrap();
    let svg = risk_map(&ds, &ranking, split.test, 500.0, 500.0);
    assert!(svg.contains("<polyline"));
    assert!(svg.contains("#d73027"), "top decile colour present");
}

#[test]
fn fig18_5_6_binned_relationship_is_positive() {
    use pipefail::stats::rng::seeded_rng;
    use pipefail::synth::wastewater::{self, WastewaterConfig};
    let mut rng = seeded_rng(19);
    let ds = wastewater::generate(&WastewaterConfig::default_catchment().scaled(0.1), &mut rng);
    let stats = ds.segment_stats(ds.observation());
    let (mut canopy, mut ev, mut ex) = (Vec::new(), Vec::new(), Vec::new());
    for seg in ds.segments() {
        canopy.push(seg.tree_canopy);
        ev.push(stats[seg.id.index()].failure_years as f64);
        ex.push(stats[seg.id.index()].exposure_years as f64);
    }
    let bins = binned_rates(&canopy, &ev, &ex, 5);
    assert!(bins.len() >= 3);
    // First-to-last trend must be rising (the paper's Fig 18.5 shape).
    assert!(
        bins.last().unwrap().1 > bins.first().unwrap().1,
        "choke rate must rise with canopy: {bins:?}"
    );
}
