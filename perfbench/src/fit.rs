//! The `fit` workload: DPMHBP with `DpmhbpConfig::default()` (300 burn-in
//! plus 700 sampling sweeps) on the Critical class of Region A of
//! `WorldConfig::paper().scaled(0.1)`, one thread, called directly.
//!
//! A run fits a fixed number of chains, each on its own world; world and
//! chain seeds are derived from `--seed`. One world per chain rather than
//! one world for all: fit time and AUC vary far more between worlds than
//! between chains on one world, so a run over several worlds is what keeps
//! the run-to-run spread inside the bounds. The chain count is fixed by
//! `--seconds`, never by how fast the fits run, so two builds fit the same
//! chains.

use crate::report::{Headline, Report};
use crate::rng::Rng;
use crate::serving::{setup_summary, Cycle};
use crate::speed::{self, Probe};
use crate::stats::{ess_per_s, mean, median, min_ess, trace_ess};
use crate::sys::{self, HostNoise};
use crate::trace::{write_jsonl, Tracer};
use pipefail_core::covariates::CovariateAdjuster;
use pipefail_core::dpmhbp::{Dpmhbp, DpmhbpConfig};
use pipefail_core::hier::{MarginalContext, PatternTable};
use pipefail_eval::detection::DetectionCurve;
use pipefail_eval::metrics::full_auc;
use pipefail_network::attributes::PipeClass;
use pipefail_network::dataset::Dataset;
use pipefail_network::features::FeatureMask;
use pipefail_network::split::TrainTestSplit;
use pipefail_synth::config::WorldConfig;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

/// Share of the paper's world that is generated.
const WORLD_SCALE: f64 = 0.1;
/// The generated region.
const REGION: &str = "Region A";
/// Seconds of fitting budgeted per chain when sizing the chain count.
const NOMINAL_FIT_S: f64 = 2.5;
/// Set-up cycles per run; `setup_s` is their median.
const SETUP_CYCLES: usize = 9;

/// Chains a run of `seconds` fits.
pub fn chains_for(seconds: f64) -> usize {
    ((seconds / NOMINAL_FIT_S) as usize).max(2)
}

fn world_seed(seed: u64, chain: usize) -> u64 {
    Rng::stream(seed, 100 + chain as u64).next_u64()
}

fn chain_seed(seed: u64, chain: usize) -> u64 {
    Rng::stream(seed, 200 + chain as u64).next_u64()
}

fn world_config() -> WorldConfig {
    WorldConfig::paper().scaled(WORLD_SCALE).only_region(REGION)
}

/// Generate chain `i`'s world and take its region.
fn build_world(seed: u64, chain: usize) -> Result<Dataset, String> {
    world_config()
        .build(world_seed(seed, chain))
        .region_named(REGION)
        .cloned()
        .ok_or_else(|| format!("world has no {REGION}"))
}

/// Run the fit workload once (see [`crate::serving::run`] for the
/// traced/untraced split).
pub fn run(
    seed: u64,
    seconds: f64,
    traced: Option<Headline>,
    report: &mut Report,
) -> Result<Headline, String> {
    let chains = chains_for(seconds);
    let split = TrainTestSplit::paper_protocol();

    let mut cycles = Vec::with_capacity(SETUP_CYCLES);
    let mut worlds = Vec::new();
    for _ in 0..SETUP_CYCLES {
        drop(std::mem::take(&mut worlds));
        let speed_before = speed::host_speed();
        let t = Instant::now();
        let cpu0 = sys::process_cpu_ns();
        worlds = (0..chains)
            .map(|i| build_world(seed, i))
            .collect::<Result<Vec<_>, _>>()?;
        std::hint::black_box(TrainTestSplit::paper_protocol());
        cycles.push(Cycle {
            cpu_s: (sys::process_cpu_ns() - cpu0) as f64 / 1e9,
            wall_s: t.elapsed().as_secs_f64(),
            speed: (speed_before + speed::host_speed()) / 2.0,
        });
    }

    sys::trim_heap();
    let rss_at_reset_mb = sys::rss_mb();
    sys::reset_peak_rss().map_err(|e| format!("reset VmHWM: {e}"))?;
    let noise = HostNoise::start();
    let probe = Probe::start();
    // Process CPU less the probe's samples: the fit's own CPU.
    let fit_cpu_ns = || sys::process_cpu_ns() - probe.cpu_ns();
    let mut wall = Vec::with_capacity(chains);
    let mut cpu = Vec::with_capacity(chains);
    let mut aucs = Vec::with_capacity(chains);
    let mut chain_min_ess = Vec::with_capacity(chains);
    let mut ess_by_trace: [Vec<f64>; 3] = Default::default();
    let mut failed = 0u64;
    let mut correct = true;
    for (i, world) in worlds.iter().enumerate() {
        let mut model = Dpmhbp::new(DpmhbpConfig::default());
        let c0 = fit_cpu_ns();
        let t = Instant::now();
        let fitted =
            model.fit_rank_detailed(world, &split, PipeClass::Critical, chain_seed(seed, i));
        wall.push(t.elapsed().as_secs_f64());
        cpu.push((fit_cpu_ns() - c0) as f64 / 1e3);
        let ranking = match fitted {
            Ok(r) => r,
            Err(e) => {
                report.note(format!("chain {i}: fit failed: {e}"));
                failed += 1;
                continue;
            }
        };
        // Every Critical pipe ranked exactly once, and a finite AUC. A
        // world whose Critical pipes had no 2009 failure has no detection
        // curve to speak of; its AUC is left out of the mean.
        let critical: HashSet<u32> = world
            .pipes_of_class(PipeClass::Critical)
            .map(|p| p.id.0)
            .collect();
        let ranked: HashSet<u32> = ranking.pipes_in_order().map(|p| p.0).collect();
        let curve = DetectionCurve::by_count(&ranking, world, split.test);
        let auc = full_auc(&curve);
        if ranked != critical || ranking.len() != critical.len() || !auc.is_finite() {
            report.note(format!(
                "chain {i}: ranking covers {} of {} Critical pipes, AUC {auc}",
                ranked.len(),
                critical.len()
            ));
            correct = false;
        }
        if curve.ys().last().is_some_and(|y| *y > 0.0) {
            aucs.push(auc);
        } else {
            report.note(format!(
                "chain {i}: no 2009 failure among Critical pipes; AUC undefined, left out"
            ));
        }
        let d = model.diagnostics();
        let traces = [
            d.clusters.as_slice(),
            d.alpha.as_slice(),
            d.mean_q.as_slice(),
        ];
        for (slot, ess) in ess_by_trace.iter_mut().zip(trace_ess(&traces)) {
            slot.push(ess);
        }
        chain_min_ess.push(min_ess(&traces));
    }
    let (speed, speed_samples, _) = probe.finish();
    let (steal_pct, switches) = noise.finish();
    let peak_rss_mb = sys::peak_rss_mb();
    let total_wall: f64 = wall.iter().sum();

    let headline = Headline {
        latency_p50_us: median(&wall) * 1e6,
        cpu_us_per_op: mean(&cpu) / speed,
    };
    report.correct = correct && !aucs.is_empty();
    report.attempted = chains as u64;
    report.failed = failed;
    report.note(format!(
        "workload fit seed {seed} seconds {seconds}: {chains} chains, each on its own {REGION} world at scale {WORLD_SCALE}, DpmhbpConfig::default() on Critical pipes"
    ));
    report.note(format!(
        "fit wall (s): {}; cpu per fit {:.0} us at host speed {speed:.4} (mean of {speed_samples} samples), {:.0} us at the reference speed; AUC: {}; min ESS: {}",
        wall.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        mean(&cpu),
        headline.cpu_us_per_op,
        aucs.iter()
            .map(|a| format!("{a:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        chain_min_ess
            .iter()
            .map(|e| format!("{e:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "diagnostics (not gated): ESS per second {:.3} over {total_wall:.2} s of fitting; world sizes {}",
        ess_per_s(&chain_min_ess, total_wall),
        worlds
            .iter()
            .map(|w| format!("{}p/{}s", w.pipes_of_class(PipeClass::Critical).count(), w.segments().len()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "host: nproc {}, steal {steal_pct:.2}% of CPU ticks, {switches} nonvoluntary context switches",
        sys::nproc()
    ));
    report.note(format!(
        "memory: {rss_at_reset_mb:.1} MB resident when the high-water mark was reset, peak {peak_rss_mb:.1} MB"
    ));
    let setup_s = setup_summary(&cycles, report);

    match traced {
        None => {
            report.set("setup_s", setup_s);
            report.set("cpu_us_per_op", headline.cpu_us_per_op);
            report.set("peak_rss_mb", peak_rss_mb);
            report.set("quality_pct", 100.0 * mean(&aucs));
        }
        Some(untraced) => {
            headline.overhead(&untraced, report);
            report.set("cpu.us_per_op", headline.cpu_us_per_op);
            let sweeps = DpmhbpConfig::default().schedule.total_iterations() as f64;
            report.set("dpmhbp.fit_s", median(&wall));
            report.set("dpmhbp.ms_per_sweep", median(&wall) * 1e3 / sweeps);
            report.set("dpmhbp.ess_clusters", median(&ess_by_trace[0]));
            report.set("dpmhbp.ess_alpha", median(&ess_by_trace[1]));
            report.set("dpmhbp.ess_mean_q", median(&ess_by_trace[2]));
            report.set("dpmhbp.ess_per_s", ess_per_s(&chain_min_ess, total_wall));
            report.set("host.steal_pct", steal_pct);
            report.set("host.nonvoluntary_switches", switches as f64);
            report.set("host.speed", speed);
            let tracer = replay(seed, &worlds, &split, report)?;
            let path = PathBuf::from(".bench_out").join(format!("trace-fit-seed{seed}.jsonl"));
            write_jsonl(&path, &[], &tracer).map_err(|e| format!("write trace: {e}"))?;
            report.note(format!(
                "trace: {} layer spans written to {}",
                tracer.spans().len(),
                path.display()
            ));
        }
    }
    Ok(headline)
}

/// Replay each chain's set-up and likelihood layers under spans: world
/// generation, segment statistics, the covariate fit, the pattern table
/// DPMHBP builds over the Critical segments, and the marginal likelihood
/// over every pattern of that table.
fn replay(
    seed: u64,
    worlds: &[Dataset],
    split: &TrainTestSplit,
    report: &mut Report,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new();
    let overhead = tracer.overhead_ns();
    let config = DpmhbpConfig::default();
    let mut log_marginal_ns = Vec::with_capacity(worlds.len());
    for (i, world) in worlds.iter().enumerate() {
        let root = tracer.begin("op", 0);
        tracer.time("synth.world", root, || {
            world_config().build(world_seed(seed, i))
        });
        let stats = tracer.time("network.segment_stats", root, || {
            world.segment_stats(split.train)
        });
        let adjuster = tracer
            .time("covariates.fit", root, || {
                CovariateAdjuster::fit(
                    world,
                    split,
                    FeatureMask::water_mains(),
                    PipeClass::Critical,
                )
            })
            .map_err(|e| format!("covariate fit: {e}"))?;
        let rows: Vec<(f64, f64, f64)> = world
            .pipes_of_class(PipeClass::Critical)
            .flat_map(|p| p.segments.iter())
            .map(|sid| {
                let st = stats[sid.index()];
                (
                    st.failure_years as f64,
                    st.clean_years() as f64,
                    adjuster.multiplier(sid.index()),
                )
            })
            .collect();
        let table = tracer.time("hier.pattern_table", root, || {
            PatternTable::build(rows.into_iter())
        });
        let q = table.patterns().iter().map(|p| p.s).sum::<f64>()
            / table
                .patterns()
                .iter()
                .map(|p| p.s + p.f)
                .sum::<f64>()
                .max(1.0);
        let ctx = MarginalContext::new(q.clamp(1e-6, 0.5), config.c0);
        let id = tracer.begin("hier.log_marginal", root);
        let total: f64 = table.patterns().iter().map(|&p| ctx.log_marginal(p)).sum();
        tracer.end(id);
        std::hint::black_box(total);
        let span = &tracer.spans()[id as usize - 1];
        log_marginal_ns.push((span.end_ns - span.start_ns) as f64 / table.len().max(1) as f64);
        tracer.end(root);
    }
    let layer = |name: &str| median(&tracer.layer_self_ns(name)).max(overhead) - overhead;
    report.set("synth.world_ms", layer("synth.world") / 1e6);
    report.set(
        "network.segment_stats_ms",
        layer("network.segment_stats") / 1e6,
    );
    report.set("covariates.fit_ms", layer("covariates.fit") / 1e6);
    report.set("hier.pattern_table_ms", layer("hier.pattern_table") / 1e6);
    report.set("hier.log_marginal_ns", median(&log_marginal_ns));
    Ok(tracer)
}
