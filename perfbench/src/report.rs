//! Metric names, units, and the result line.
//!
//! Every run reports the same metric set whatever its workload: all of
//! [`END_TO_END`] untraced, all of [`PER_LAYER`] traced. A per-layer
//! metric whose layer the workload does not exercise reads 0 and is
//! listed as "n/a" in the human-readable lines above the result.

use std::collections::BTreeMap;

/// End-to-end metrics: name, unit. CPU timings are at the reference host
/// speed (see [`crate::sys::host_speed`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("quality_pct", "%"),
];

/// Per-layer metrics of the traced run: name, unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("http.floor_p50_us", "us"),
    ("parser.parse_ns", "ns"),
    ("scorer.risk_of_ns", "ns"),
    ("scorer.top_k_render_us", "us"),
    ("scorer.batch_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.coalesced_waits", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_p50_us", "us"),
    ("cache.miss_p50_us", "us"),
    ("aggregate.parse_us", "us"),
    ("aggregate.uncached_ms", "ms"),
    ("shards.global_top_k_us", "us"),
    ("shards.merge_top_k_us", "us"),
    ("reload.swaps", "count"),
    ("reload.failures", "count"),
    ("federation.overhead_p50_us", "us"),
    ("federation.hedges", "count"),
    ("federation.hedge_wins", "count"),
    ("federation.retries", "count"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.file_mb", "MB"),
    ("synth.world_ms", "ms"),
    ("network.segment_stats_ms", "ms"),
    ("covariates.fit_ms", "ms"),
    ("hier.pattern_table_ms", "ms"),
    ("hier.log_marginal_ns", "ns"),
    ("dpmhbp.fit_s", "s"),
    ("dpmhbp.ms_per_sweep", "ms"),
    ("dpmhbp.ess_clusters", "count"),
    ("dpmhbp.ess_alpha", "count"),
    ("dpmhbp.ess_mean_q", "count"),
    ("dpmhbp.ess_per_s", "1/s"),
    ("cpu.us_per_op", "us"),
    ("client.latency_p50_us", "us"),
    ("client.lateness_p50_us", "us"),
    ("client.lateness_p99_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.latency_p99_samples", "count"),
    ("host.steal_pct", "%"),
    ("host.nonvoluntary_switches", "count"),
    ("host.speed", "ratio"),
    ("trace.overhead_latency_pct", "%"),
    ("trace.overhead_cpu_pct", "%"),
];

/// The end-to-end figures of one measured phase, kept so a traced run can
/// report its tracing overhead against the untraced phase before it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Headline {
    /// Median latency of one operation, µs.
    pub latency_p50_us: f64,
    /// CPU per operation, µs.
    pub cpu_us_per_op: f64,
}

impl Headline {
    /// Record the tracing overhead of `self` (traced) against `untraced`,
    /// in % of the untraced figures.
    pub fn overhead(&self, untraced: &Headline, report: &mut Report) {
        let pct = |t: f64, u: f64| if u > 0.0 { 100.0 * (t - u) / u } else { 0.0 };
        report.note(format!(
            "tracing overhead: latency p50 {:.1} us traced vs {:.1} us untraced; cpu {:.2} vs {:.2} us/op",
            self.latency_p50_us, untraced.latency_p50_us, self.cpu_us_per_op, untraced.cpu_us_per_op
        ));
        report.set(
            "trace.overhead_latency_pct",
            pct(self.latency_p50_us, untraced.latency_p50_us),
        );
        report.set(
            "trace.overhead_cpu_pct",
            pct(self.cpu_us_per_op, untraced.cpu_us_per_op),
        );
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The result object over `metrics`: every listed metric, 0 where the
    /// run measured none. A non-finite value makes the run incorrect.
    pub fn json(&self, metrics: &[(&str, &str)]) -> String {
        let mut correct = self.correct;
        let mut fields = Vec::with_capacity(metrics.len());
        for (name, unit) in metrics {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                correct = false;
                v = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    /// Print the notes, one line per metric with its unit, then the
    /// result object as the last line of standard output.
    pub fn print(&self, metrics: &[(&str, &str)]) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, unit) in metrics {
            match self.values.get(name) {
                Some(v) => println!("metric {name} = {v} {unit}"),
                None => println!("metric {name} = n/a on this workload (reported as 0)"),
            }
        }
        println!(
            "operations attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        println!("{}", self.json(metrics));
    }
}
