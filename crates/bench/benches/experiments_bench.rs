//! End-to-end experiment benches: one per table/figure of the paper's
//! evaluation, at reduced scale. These measure the cost of *regenerating*
//! each artefact; the experiment binaries produce the artefacts themselves.
//!
//! The `parallel` group times the same five-model evaluation at 1 and 4
//! worker threads; a custom `main` appends every measurement (plus derived
//! speedups) to the `BENCH_perf.json` trajectory at the repo root.

use criterion::{black_box, criterion_group, Criterion};
use pipefail_eval::detection::DetectionCurve;
use pipefail_eval::metrics::{auc_at_fraction, full_auc};
use pipefail_eval::report::{binned_rates, detection_curves_csv, format_auc_table};
use pipefail_eval::riskmap::risk_map;
use pipefail_eval::runner::{evaluate_region, ModelKind, RunConfig};
use pipefail_eval::svg::network_map;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::{FeatureEncoder, FeatureMask};
use pipefail_network::split::TrainTestSplit;
use pipefail_network::summary::{format_table, summarize};
use pipefail_stats::rng::seeded_rng;
use pipefail_synth::wastewater::{self, WastewaterConfig};
use pipefail_synth::WorldConfig;

fn region() -> Dataset {
    WorldConfig::paper()
        .scaled(0.03)
        .only_region("Region A")
        .build(5)
        .regions()[0]
        .clone()
}

fn bench_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables");
    g.sample_size(10);
    let ds = region();
    let split = TrainTestSplit::paper_protocol();

    // Table 18.1 — dataset summary.
    g.bench_function("table18_1_summary", |b| {
        b.iter(|| black_box(format_table(&summarize(black_box(&ds)))))
    });

    // Table 18.2 — feature schema + encoding of every segment.
    g.bench_function("table18_2_feature_encoding", |b| {
        b.iter(|| {
            let enc = FeatureEncoder::fit(&ds, FeatureMask::all(), 2009);
            let mut acc = 0.0;
            for seg in ds.segments() {
                acc += enc.encode_segment(&ds, seg).iter().sum::<f64>();
            }
            black_box(acc)
        })
    });

    // Table 18.3 — the five-model comparison (fast schedules).
    g.bench_function("table18_3_five_models", |b| {
        b.iter(|| {
            let r = evaluate_region(&ds, &split, &ModelKind::paper_five(), RunConfig::fast(), 1);
            black_box(format_auc_table(std::slice::from_ref(&r)))
        })
    });

    // Table 18.4 — the paired-test statistic on precomputed AUC vectors.
    g.bench_function("table18_4_paired_t", |b| {
        let xs: Vec<f64> = (0..20).map(|i| 0.8 + 0.001 * i as f64).collect();
        let ys: Vec<f64> = (0..20).map(|i| 0.75 + 0.0012 * i as f64).collect();
        b.iter(|| {
            black_box(
                pipefail_stats::hypothesis::paired_t_test(
                    &xs,
                    &ys,
                    pipefail_stats::hypothesis::Alternative::Greater,
                )
                .unwrap(),
            )
        })
    });
    g.finish();
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    let ds = region();
    let split = TrainTestSplit::paper_protocol();
    let mut model = ModelKind::Dpmhbp.build(true);
    let ranking = model.fit_rank(&ds, &split, 1).unwrap();

    // Fig 18.2 — network map SVG.
    g.bench_function("fig18_2_network_map", |b| {
        b.iter(|| black_box(network_map(&ds, 900.0, 900.0)))
    });

    // Fig 18.5/18.6 — wastewater binned relationships.
    g.bench_function("fig18_5_6_wastewater_bins", |b| {
        let mut rng = seeded_rng(7);
        let ww = wastewater::generate(
            &WastewaterConfig::default_catchment().scaled(0.05),
            &mut rng,
        );
        let stats = ww.segment_stats(ww.observation());
        let canopy: Vec<f64> = ww.segments().iter().map(|s| s.tree_canopy).collect();
        let ev: Vec<f64> = ww
            .segments()
            .iter()
            .map(|s| stats[s.id.index()].failure_years as f64)
            .collect();
        let ex: Vec<f64> = ww
            .segments()
            .iter()
            .map(|s| stats[s.id.index()].exposure_years as f64)
            .collect();
        b.iter(|| black_box(binned_rates(&canopy, &ev, &ex, 10)))
    });

    // Fig 18.7 — detection curves + CSV.
    g.bench_function("fig18_7_detection_csv", |b| {
        let r = evaluate_region(
            &ds,
            &split,
            &[ModelKind::Dpmhbp, ModelKind::Cox],
            RunConfig::fast(),
            1,
        );
        b.iter(|| black_box(detection_curves_csv(black_box(&r), 100)))
    });

    // Fig 18.8 — restricted-budget AUC on the length axis.
    g.bench_function("fig18_8_length_budget", |b| {
        b.iter(|| {
            let curve = DetectionCurve::by_length(&ranking, &ds, split.test);
            black_box((full_auc(&curve), auc_at_fraction(&curve, 0.01)))
        })
    });

    // Fig 18.9 — risk-map SVG with decile colouring and failure stars.
    g.bench_function("fig18_9_risk_map", |b| {
        b.iter(|| black_box(risk_map(&ds, &ranking, split.test, 900.0, 900.0)))
    });
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    g.sample_size(5);
    let ds = region();
    let split = TrainTestSplit::paper_protocol();

    // The same work at 1 vs 4 workers: the task pool guarantees identical
    // results, so the ratio of these two entries is pure speedup. On a host
    // with fewer than 4 cores the ratio degrades toward 1x — check
    // `host_parallelism` in BENCH_perf.json before reading anything into it.
    for threads in [1usize, 4] {
        g.bench_function(format!("five_models/threads={threads}"), |b| {
            b.iter(|| {
                black_box(evaluate_region(
                    &ds,
                    &split,
                    &ModelKind::paper_five(),
                    RunConfig::fast().with_threads(threads),
                    1,
                ))
            })
        });
    }

    // Single-model fit at 1 thread: the trajectory entry that tracks the
    // sweep-time effect of the likelihood caches across commits.
    g.bench_function("dpmhbp_fit/threads=1", |b| {
        b.iter(|| {
            let mut model = ModelKind::Dpmhbp.build(true);
            black_box(model.fit_rank(&ds, &split, 1).unwrap())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_figures, bench_parallel);

fn main() {
    benches();
    let snap = pipefail_bench::perf::snapshot("experiments_bench", criterion::take_records());
    for s in pipefail_bench::perf::speedups(&snap.entries) {
        // More worker threads than cores is guaranteed slower — say so
        // instead of letting the ratio read as a parallelism regression
        // (the trajectory entry carries the same flag).
        let caveat = if s.threads > snap.host_parallelism {
            " [OVERSUBSCRIBED: threads > host cores; ratio not meaningful]"
        } else {
            ""
        };
        println!(
            "speedup {} at {} threads: {:.2}x (host parallelism {}){caveat}",
            s.id, s.threads, s.speedup, snap.host_parallelism
        );
    }
    match pipefail_bench::perf::append_to_trajectory(&snap) {
        Ok(path) => println!("[appended trajectory entry to {}]", path.display()),
        Err(e) => eprintln!("cannot write bench trajectory: {e}"),
    }
}
