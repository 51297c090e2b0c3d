//! Request counters and per-route latency histograms for the `/metrics`
//! endpoint.
//!
//! Everything is a relaxed atomic — observation never blocks a request
//! thread, and the exposition is a consistent-enough point-in-time read
//! (standard practice for counter scrapes). The exposition format is the
//! Prometheus text format, so the endpoint can be scraped as-is.
//!
//! Past the per-route series, each process-wide counter or gauge is a
//! [`Counter`] and each per-shard family a [`ShardCounter`]; their
//! `SERIES` tables give the names, types and exposition order that
//! [`Metrics::render`] walks. `docs/SERVING.md`'s metrics reference lists
//! every series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (seconds) of the per-route request-duration histogram
/// (`pipefail_http_request_duration_seconds`), log-spaced 100µs → 10s
/// (1-2.5-5 per decade, the Prometheus convention); the last implicit
/// bucket is `+Inf`. Wide enough to resolve both in-memory scoring (tens
/// of µs) and federation tail latency under fault injection (seconds).
pub const DURATION_BUCKETS_S: [f64; 16] = [
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// The served routes, for per-route request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /health`
    Health,
    /// `GET /healthz` — the cheap health-check probe target. Deliberately
    /// **excluded** from the request counters/histogram (the connection
    /// core never calls [`Metrics::observe`] for it) so a federation
    /// front-end probing every second does not pollute the serving
    /// metrics; probes count in [`Counter::Healthz`] instead.
    Healthz,
    /// `GET /top`
    Top,
    /// `GET /pipe`
    Pipe,
    /// `GET /model`
    Model,
    /// `POST /batch`
    Batch,
    /// `POST /aggregate`
    Aggregate,
    /// `GET /riskmap.svg`
    Riskmap,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404s, parse failures).
    Other,
}

impl Route {
    const ALL: [Route; 10] = [
        Route::Health,
        Route::Healthz,
        Route::Top,
        Route::Pipe,
        Route::Model,
        Route::Batch,
        Route::Aggregate,
        Route::Riskmap,
        Route::Metrics,
        Route::Other,
    ];

    /// Stable label used in the exposition.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Health => "health",
            Route::Healthz => "healthz",
            Route::Top => "top",
            Route::Pipe => "pipe",
            Route::Model => "model",
            Route::Batch => "batch",
            Route::Aggregate => "aggregate",
            Route::Riskmap => "riskmap",
            Route::Metrics => "metrics",
            Route::Other => "other",
        }
    }

    fn index(&self) -> usize {
        Route::ALL.iter().position(|r| r == self).unwrap_or(Route::ALL.len() - 1)
    }
}

/// A process-wide series of the `/metrics` exposition: a counter, or a
/// gauge that also falls. [`Counter::SERIES`] gives each its name, its
/// Prometheus type and its place in the exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Currently open connections (gauge).
    ConnectionsOpen,
    /// Idle keep-alive connections shed to admit new ones at the cap.
    ConnectionsShed,
    /// New connections answered `429` at the cap, none being sheddable.
    AdmissionRejected,
    /// Requests after the first on their connection.
    KeepaliveReuses,
    /// Successful snapshot hot-reload swaps (all shards).
    Reloads,
    /// Snapshot replacements rejected by the strict loader (all shards).
    ReloadFailures,
    /// Region-less `/top` scatter-gathers on a sharded server or front end.
    GlobalTopk,
    /// `GET /healthz` probes answered — kept out of the request counters
    /// (see [`Route::Healthz`]).
    Healthz,
    /// Result-cache hits: stored bodies served, and `304`s.
    CacheHits,
    /// Result-cache misses: cacheable requests the router computed.
    CacheMisses,
    /// Entries evicted past the cache byte budget (LRU order).
    CacheEvictions,
    /// Requests that waited for an identical in-flight miss's body.
    CacheCoalescedWaits,
    /// Resident cache bytes (gauge): bodies + keys + per-entry overhead.
    CacheResidentBytes,
    /// Federation: retries after a failed backend request.
    FedRetries,
    /// Federation: hedged duplicate requests fired.
    FedHedges,
    /// Federation: hedged duplicates that answered before their primary.
    FedHedgeWins,
    /// Federation: health probes sent to backends.
    FedProbes,
    /// Federation: health probes that got no well-formed answer.
    FedProbeFailures,
}

impl Counter {
    /// Every counter in declaration and exposition order, with its series
    /// name and Prometheus type. The `pipefail_fed_` series render only on
    /// a federation front end ([`Metrics::with_backends`]).
    pub const SERIES: [(Counter, &'static str, &'static str); 18] = [
        (Counter::ConnectionsOpen, "pipefail_http_connections_open", "gauge"),
        (Counter::ConnectionsShed, "pipefail_http_connections_shed_total", "counter"),
        (Counter::AdmissionRejected, "pipefail_http_admission_rejected_total", "counter"),
        (Counter::KeepaliveReuses, "pipefail_keepalive_reuses_total", "counter"),
        (Counter::Reloads, "pipefail_reloads_total", "counter"),
        (Counter::ReloadFailures, "pipefail_reload_failures_total", "counter"),
        (Counter::GlobalTopk, "pipefail_global_topk_total", "counter"),
        (Counter::Healthz, "pipefail_healthz_total", "counter"),
        (Counter::CacheHits, "pipefail_cache_hits_total", "counter"),
        (Counter::CacheMisses, "pipefail_cache_misses_total", "counter"),
        (Counter::CacheEvictions, "pipefail_cache_evictions_total", "counter"),
        (Counter::CacheCoalescedWaits, "pipefail_cache_coalesced_waits_total", "counter"),
        (Counter::CacheResidentBytes, "pipefail_cache_resident_bytes", "gauge"),
        (Counter::FedRetries, "pipefail_fed_retries_total", "counter"),
        (Counter::FedHedges, "pipefail_fed_hedges_total", "counter"),
        (Counter::FedHedgeWins, "pipefail_fed_hedge_wins_total", "counter"),
        (Counter::FedProbes, "pipefail_fed_probes_total", "counter"),
        (Counter::FedProbeFailures, "pipefail_fed_probe_failures_total", "counter"),
    ];
}

/// A per-shard counter family, rendered with one `shard="<region key>"`
/// series per shard of a sharded server or backend of a federation front
/// end. [`ShardCounter::SERIES`] names each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCounter {
    /// Requests routed to the shard (each `/batch` line counts
    /// separately).
    Requests,
    /// Successful hot-reloads of the shard.
    Reloads,
    /// Rejected snapshot replacements on the shard.
    ReloadFailures,
    /// Requests refused because the shard was degraded or its backend failed.
    Unavailable,
}

impl ShardCounter {
    /// Every family in declaration and exposition order, with its series
    /// name; all are counters.
    pub const SERIES: [(ShardCounter, &'static str); 4] = [
        (ShardCounter::Requests, "pipefail_shard_requests"),
        (ShardCounter::Reloads, "pipefail_shard_reloads"),
        (ShardCounter::ReloadFailures, "pipefail_shard_reload_failures"),
        (ShardCounter::Unavailable, "pipefail_shard_unavailable"),
    ];
}

/// One per-route latency histogram in seconds: `DURATION_BUCKETS_S` +
/// the +Inf overflow bucket, a sum (µs resolution), and a count.
#[derive(Debug, Default)]
struct DurationHisto {
    buckets: [AtomicU64; 17],
    sum_us: AtomicU64,
    count: AtomicU64,
}

/// Lock-free request metrics shared by all serving threads.
#[derive(Debug, Default)]
pub struct Metrics {
    total: AtomicU64,
    by_route: [AtomicU64; 10],
    /// Per-route request-duration histograms
    /// (`pipefail_http_request_duration_seconds{route=...}`).
    durations: [DurationHisto; 10],
    /// Status classes 1xx..5xx.
    by_status: [AtomicU64; 5],
    /// One slot per [`Counter`], indexed by its discriminant.
    counters: [AtomicU64; Counter::SERIES.len()],
    /// True when this server is a federation front-end: the
    /// `pipefail_fed_` series render (and the shard series are labelled
    /// per backend).
    federated: bool,
    /// One `(label, slot per ShardCounter)` entry per shard, in shard-set
    /// (routing-key) order; empty for a plain `Metrics::new()`.
    shards: Vec<(String, [AtomicU64; ShardCounter::SERIES.len()])>,
}

impl Metrics {
    /// Fresh zeroed metrics with no per-shard series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh zeroed metrics with one `shard="<label>"` series per shard,
    /// in shard-set order (indices passed to [`Metrics::shard_add`] are
    /// positions in this list).
    pub fn with_shards(labels: Vec<String>) -> Self {
        Self {
            shards: labels.into_iter().map(|label| (label, Default::default())).collect(),
            ..Self::default()
        }
    }

    /// Fresh zeroed metrics for a federation front-end: one shard series
    /// per remote backend (labelled with its region key) plus the
    /// federation-specific `pipefail_fed_*` counters in the exposition.
    pub fn with_backends(labels: Vec<String>) -> Self {
        Self {
            federated: true,
            ..Self::with_shards(labels)
        }
    }

    /// Record one handled request.
    pub fn observe(&self, route: Route, status: u16, elapsed: Duration) {
        self.total.fetch_add(1, Ordering::Relaxed);
        self.by_route[route.index()].fetch_add(1, Ordering::Relaxed);
        let class = (status / 100).clamp(1, 5) as usize - 1;
        self.by_status[class].fetch_add(1, Ordering::Relaxed);
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let histo = &self.durations[route.index()];
        let secs = elapsed.as_secs_f64();
        let bucket = DURATION_BUCKETS_S
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(DURATION_BUCKETS_S.len());
        histo.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        histo.sum_us.fetch_add(us, Ordering::Relaxed);
        histo.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests handled so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Requests handled on `route` so far.
    pub fn route_count(&self, route: Route) -> u64 {
        self.by_route[route.index()].load(Ordering::Relaxed)
    }

    /// Move `counter` by `delta`. Only a gauge is ever given a negative
    /// delta; two's-complement wrapping keeps its running sum exact as
    /// long as the sum never goes negative, which its callers guarantee
    /// (every connection closed was opened, every cache byte freed was
    /// stored).
    pub fn add(&self, counter: Counter, delta: i64) {
        if delta != 0 {
            self.counters[counter as usize].fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// `counter`'s value now.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Count one event of `counter` on shard `idx`. Out-of-range indices
    /// are ignored — metrics must never take a request down.
    pub fn shard_add(&self, idx: usize, counter: ShardCounter) {
        if let Some((_, slots)) = self.shards.get(idx) {
            slots[counter as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `counter`'s value on shard `idx` now (0 for an out-of-range index).
    pub fn shard_get(&self, idx: usize, counter: ShardCounter) -> u64 {
        self.shards.get(idx).map_or(0, |(_, slots)| slots[counter as usize].load(Ordering::Relaxed))
    }

    /// [`Counter::Reloads`] now.
    pub fn reloads_total(&self) -> u64 {
        self.get(Counter::Reloads)
    }

    /// [`Counter::ReloadFailures`] now.
    pub fn reload_failures_total(&self) -> u64 {
        self.get(Counter::ReloadFailures)
    }

    /// [`Counter::CacheHits`] now.
    pub fn cache_hits_total(&self) -> u64 {
        self.get(Counter::CacheHits)
    }

    /// [`Counter::CacheMisses`] now.
    pub fn cache_misses_total(&self) -> u64 {
        self.get(Counter::CacheMisses)
    }

    /// [`Counter::CacheEvictions`] now.
    pub fn cache_evictions_total(&self) -> u64 {
        self.get(Counter::CacheEvictions)
    }

    /// [`Counter::CacheCoalescedWaits`] now.
    pub fn cache_coalesced_waits_total(&self) -> u64 {
        self.get(Counter::CacheCoalescedWaits)
    }

    /// [`Counter::FedRetries`] now.
    pub fn fed_retries_total(&self) -> u64 {
        self.get(Counter::FedRetries)
    }

    /// [`Counter::FedHedges`] now.
    pub fn fed_hedges_total(&self) -> u64 {
        self.get(Counter::FedHedges)
    }

    /// [`Counter::FedHedgeWins`] now.
    pub fn fed_hedge_wins_total(&self) -> u64 {
        self.get(Counter::FedHedgeWins)
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# TYPE pipefail_requests_total counter\n");
        out.push_str(&format!("pipefail_requests_total {}\n", self.total()));
        out.push_str("# TYPE pipefail_requests counter\n");
        for route in Route::ALL {
            out.push_str(&format!(
                "pipefail_requests{{route=\"{}\"}} {}\n",
                route.label(),
                self.route_count(route)
            ));
        }
        out.push_str("# TYPE pipefail_responses counter\n");
        for (i, c) in self.by_status.iter().enumerate() {
            out.push_str(&format!(
                "pipefail_responses{{status=\"{}xx\"}} {}\n",
                i + 1,
                c.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE pipefail_http_request_duration_seconds histogram\n");
        for route in Route::ALL {
            let histo = &self.durations[route.index()];
            let label = route.label();
            let mut cumulative = 0u64;
            for (i, &ub) in DURATION_BUCKETS_S.iter().enumerate() {
                cumulative += histo.buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "pipefail_http_request_duration_seconds_bucket{{route=\"{label}\",le=\"{ub}\"}} {cumulative}\n"
                ));
            }
            cumulative += histo.buckets[DURATION_BUCKETS_S.len()].load(Ordering::Relaxed);
            out.push_str(&format!(
                "pipefail_http_request_duration_seconds_bucket{{route=\"{label}\",le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "pipefail_http_request_duration_seconds_sum{{route=\"{label}\"}} {}\n",
                histo.sum_us.load(Ordering::Relaxed) as f64 / 1e6
            ));
            out.push_str(&format!(
                "pipefail_http_request_duration_seconds_count{{route=\"{label}\"}} {}\n",
                histo.count.load(Ordering::Relaxed)
            ));
        }
        for (counter, name, kind) in Counter::SERIES {
            if self.federated || !name.starts_with("pipefail_fed_") {
                out.push_str(&format!("# TYPE {name} {kind}\n{name} {}\n", self.get(counter)));
            }
        }
        if !self.shards.is_empty() {
            for (counter, name) in ShardCounter::SERIES {
                out.push_str(&format!("# TYPE {name} counter\n"));
                for (label, slots) in &self.shards {
                    out.push_str(&format!(
                        "{name}{{shard=\"{label}\"}} {}\n",
                        slots[counter as usize].load(Ordering::Relaxed)
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_counts_routes_statuses_and_buckets() {
        let m = Metrics::new();
        m.observe(Route::Top, 200, Duration::from_micros(40));
        m.observe(Route::Top, 200, Duration::from_micros(90));
        m.observe(Route::Pipe, 404, Duration::from_micros(600));
        m.observe(Route::Other, 400, Duration::from_millis(500));
        assert_eq!(m.total(), 4);
        assert_eq!(m.route_count(Route::Top), 2);
        assert_eq!(m.route_count(Route::Pipe), 1);
        assert_eq!(m.route_count(Route::Health), 0);
        let text = m.render();
        assert!(text.contains("pipefail_requests_total 4"));
        assert!(text.contains("pipefail_requests{route=\"top\"} 2"));
        assert!(text.contains("pipefail_responses{status=\"2xx\"} 2"));
        assert!(text.contains("pipefail_responses{status=\"4xx\"} 2"));
        // Each route's histogram is cumulative: top's 100µs bucket holds
        // both its requests; pipe and other land in their own series.
        let bucket = |route: &str, le: &str, n: u64| {
            format!(
                "pipefail_http_request_duration_seconds_bucket{{route=\"{route}\",le=\"{le}\"}} {n}\n"
            )
        };
        assert!(text.contains(&bucket("top", "0.0001", 2)), "{text}");
        assert!(text.contains(&bucket("top", "+Inf", 2)), "{text}");
        assert!(text.contains(&bucket("pipe", "0.0005", 0)), "{text}");
        assert!(text.contains(&bucket("pipe", "0.001", 1)), "{text}");
        assert!(text.contains(&bucket("other", "0.5", 1)), "{text}");
        // Summed over routes, the counts give every observed request.
        let counts: u64 = Route::ALL
            .iter()
            .map(|r| {
                let key = format!(
                    "pipefail_http_request_duration_seconds_count{{route=\"{}\"}} ",
                    r.label()
                );
                let line = text.lines().find(|l| l.starts_with(&key)).expect("count line");
                line[key.len()..].parse::<u64>().expect("count")
            })
            .sum();
        assert_eq!(counts, 4);
    }

    #[test]
    fn zeroed_exposition_is_well_formed() {
        let text = Metrics::new().render();
        assert!(text.contains("pipefail_requests_total 0"));
        assert!(text.contains("le=\"+Inf\"} 0"));
        for route in Route::ALL {
            assert!(text.contains(&format!("route=\"{}\"", route.label())));
        }
        assert!(text.contains("pipefail_keepalive_reuses_total 0"));
        assert!(text.contains("pipefail_reloads_total 0"));
        assert!(text.contains("pipefail_reload_failures_total 0"));
    }

    #[test]
    fn shard_series_render_with_labels_and_feed_aggregates() {
        let m = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        m.shard_add(0, ShardCounter::Requests);
        m.shard_add(0, ShardCounter::Requests);
        m.shard_add(1, ShardCounter::Requests);
        m.add(Counter::Reloads, 1);
        m.shard_add(1, ShardCounter::Reloads);
        m.add(Counter::ReloadFailures, 1);
        m.shard_add(0, ShardCounter::ReloadFailures);
        m.shard_add(0, ShardCounter::Unavailable);
        m.add(Counter::GlobalTopk, 1);
        // Out-of-range indices are ignored, never panic.
        m.shard_add(99, ShardCounter::Requests);
        m.add(Counter::Reloads, 1);
        m.shard_add(99, ShardCounter::Reloads);
        assert_eq!(m.shard_get(0, ShardCounter::Requests), 2);
        assert_eq!(m.shard_get(1, ShardCounter::Requests), 1);
        assert_eq!(m.shard_get(0, ShardCounter::Unavailable), 1);
        assert_eq!(m.get(Counter::GlobalTopk), 1);
        // Per-shard reload outcomes also count in the aggregates the
        // single-snapshot dashboards already scrape.
        assert_eq!(m.reloads_total(), 2); // 1 for shard 1 + 1 out-of-range
        assert_eq!(m.reload_failures_total(), 1);
        let text = m.render();
        assert!(text.contains("pipefail_shard_requests{shard=\"region_a\"} 2"));
        assert!(text.contains("pipefail_shard_requests{shard=\"region_b\"} 1"));
        assert!(text.contains("pipefail_shard_reloads{shard=\"region_b\"} 1"));
        assert!(text.contains("pipefail_shard_reload_failures{shard=\"region_a\"} 1"));
        assert!(text.contains("pipefail_shard_unavailable{shard=\"region_a\"} 1"));
        assert!(text.contains("pipefail_global_topk_total 1"));
        // A shard-less Metrics::new() renders no shard series at all.
        assert!(!Metrics::new().render().contains("pipefail_shard_"));
    }

    #[test]
    fn healthz_counts_outside_request_metrics() {
        let m = Metrics::new();
        m.add(Counter::Healthz, 1);
        m.add(Counter::Healthz, 1);
        assert_eq!(m.get(Counter::Healthz), 2);
        // Probes never touch the request counters.
        assert_eq!(m.total(), 0);
        assert_eq!(m.route_count(Route::Healthz), 0);
        assert!(m.render().contains("pipefail_healthz_total 2"));
    }

    #[test]
    fn federation_counters_render_only_on_federated_metrics() {
        let m = Metrics::with_backends(vec!["region_a".into(), "region_b".into()]);
        m.add(Counter::FedRetries, 1);
        m.add(Counter::FedHedges, 1);
        m.add(Counter::FedHedges, 1);
        m.add(Counter::FedHedgeWins, 1);
        m.add(Counter::FedProbes, 1);
        m.add(Counter::FedProbes, 1);
        m.add(Counter::FedProbeFailures, 1);
        m.add(Counter::FedProbes, 1);
        m.add(Counter::FedProbeFailures, 1);
        assert_eq!(m.fed_retries_total(), 1);
        assert_eq!(m.fed_hedges_total(), 2);
        assert_eq!(m.fed_hedge_wins_total(), 1);
        assert_eq!(m.get(Counter::FedProbes), 3);
        assert_eq!(m.get(Counter::FedProbeFailures), 2);
        let text = m.render();
        assert!(text.contains("pipefail_fed_retries_total 1"));
        assert!(text.contains("pipefail_fed_hedges_total 2"));
        assert!(text.contains("pipefail_fed_hedge_wins_total 1"));
        assert!(text.contains("pipefail_fed_probes_total 3"));
        assert!(text.contains("pipefail_fed_probe_failures_total 2"));
        // Backends reuse the per-shard series, labelled by region key.
        m.shard_add(1, ShardCounter::Requests);
        assert!(m.render().contains("pipefail_shard_requests{shard=\"region_b\"} 1"));
        // Non-federated expositions never mention the fed counters.
        assert!(!Metrics::with_shards(vec!["x".into()]).render().contains("pipefail_fed_"));
    }

    #[test]
    fn duration_histogram_is_per_route_and_cumulative() {
        let m = Metrics::new();
        m.observe(Route::Top, 200, Duration::from_micros(80)); // ≤ 0.0001
        m.observe(Route::Top, 200, Duration::from_micros(400)); // ≤ 0.0005
        m.observe(Route::Batch, 200, Duration::from_secs(20)); // +Inf
        let text = m.render();
        assert!(text.contains(
            "pipefail_http_request_duration_seconds_bucket{route=\"top\",le=\"0.0001\"} 1"
        ));
        assert!(text.contains(
            "pipefail_http_request_duration_seconds_bucket{route=\"top\",le=\"0.0005\"} 2"
        ));
        assert!(text.contains(
            "pipefail_http_request_duration_seconds_bucket{route=\"top\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("pipefail_http_request_duration_seconds_count{route=\"top\"} 2"));
        // The 20s observation overflows every finite bucket of its route.
        assert!(text.contains(
            "pipefail_http_request_duration_seconds_bucket{route=\"batch\",le=\"10\"} 0"
        ));
        assert!(text.contains(
            "pipefail_http_request_duration_seconds_bucket{route=\"batch\",le=\"+Inf\"} 1"
        ));
        // Untouched routes still render a (zeroed) series.
        assert!(text.contains("pipefail_http_request_duration_seconds_count{route=\"pipe\"} 0"));
    }

    #[test]
    fn connection_gauges_and_admission_counters() {
        let m = Metrics::new();
        m.add(Counter::ConnectionsOpen, 1);
        m.add(Counter::ConnectionsOpen, 1);
        m.add(Counter::ConnectionsOpen, 1);
        m.add(Counter::ConnectionsOpen, -1);
        m.add(Counter::ConnectionsShed, 1);
        m.add(Counter::AdmissionRejected, 1);
        m.add(Counter::AdmissionRejected, 1);
        assert_eq!(m.get(Counter::ConnectionsOpen), 2);
        assert_eq!(m.get(Counter::ConnectionsShed), 1);
        assert_eq!(m.get(Counter::AdmissionRejected), 2);
        let text = m.render();
        assert!(text.contains("pipefail_http_connections_open 2"));
        assert!(text.contains("pipefail_http_connections_shed_total 1"));
        assert!(text.contains("pipefail_http_admission_rejected_total 2"));
    }

    #[test]
    fn keepalive_and_reload_counters_accumulate() {
        let m = Metrics::new();
        m.add(Counter::KeepaliveReuses, 1);
        m.add(Counter::KeepaliveReuses, 1);
        m.add(Counter::Reloads, 1);
        m.add(Counter::ReloadFailures, 1);
        m.add(Counter::ReloadFailures, 1);
        assert_eq!(m.get(Counter::KeepaliveReuses), 2);
        assert_eq!(m.reloads_total(), 1);
        assert_eq!(m.reload_failures_total(), 2);
        let text = m.render();
        assert!(text.contains("pipefail_keepalive_reuses_total 2"));
        assert!(text.contains("pipefail_reloads_total 1"));
        assert!(text.contains("pipefail_reload_failures_total 2"));
    }

    #[test]
    fn series_tables_follow_declaration_order() {
        // Slots are indexed by discriminant and rendered in table order:
        // listing each discriminant once, in order, renders every slot
        // once under its own name.
        for (i, (counter, ..)) in Counter::SERIES.iter().enumerate() {
            assert_eq!(*counter as usize, i, "{counter:?}");
        }
        for (i, (counter, _)) in ShardCounter::SERIES.iter().enumerate() {
            assert_eq!(*counter as usize, i, "{counter:?}");
        }
    }

    /// Everything `render()` writes after the duration histogram, for one
    /// fixed sequence through every series, byte for byte. The expected
    /// text was produced by the per-series implementation this table
    /// replaced.
    #[test]
    fn golden_exposition_after_the_histogram() {
        let m = Metrics::with_backends(vec!["region_a".into(), "region_b".into()]);
        let times = |n: u32, f: &dyn Fn()| (0..n).for_each(|_| f());
        times(7, &|| m.add(Counter::ConnectionsOpen, 1));
        times(5, &|| m.add(Counter::ConnectionsOpen, -1));
        times(3, &|| m.add(Counter::ConnectionsShed, 1));
        times(4, &|| m.add(Counter::AdmissionRejected, 1));
        times(5, &|| m.add(Counter::KeepaliveReuses, 1));
        times(3, &|| m.add(Counter::Reloads, 1));
        m.add(Counter::Reloads, 1);
        m.shard_add(0, ShardCounter::Reloads);
        times(2, &|| {
            m.add(Counter::Reloads, 1);
            m.shard_add(1, ShardCounter::Reloads);
        });
        times(4, &|| m.add(Counter::ReloadFailures, 1));
        times(3, &|| {
            m.add(Counter::ReloadFailures, 1);
            m.shard_add(1, ShardCounter::ReloadFailures);
        });
        times(8, &|| m.add(Counter::GlobalTopk, 1));
        times(9, &|| m.add(Counter::Healthz, 1));
        times(10, &|| m.add(Counter::CacheHits, 1));
        times(11, &|| m.add(Counter::CacheMisses, 1));
        m.add(Counter::CacheEvictions, 12);
        m.add(Counter::CacheEvictions, 0);
        times(13, &|| m.add(Counter::CacheCoalescedWaits, 1));
        m.add(Counter::CacheResidentBytes, 1000);
        m.add(Counter::CacheResidentBytes, -986);
        m.add(Counter::CacheResidentBytes, 0);
        times(15, &|| m.add(Counter::FedRetries, 1));
        times(16, &|| m.add(Counter::FedHedges, 1));
        times(17, &|| m.add(Counter::FedHedgeWins, 1));
        m.add(Counter::FedProbes, 1);
        times(18, &|| {
            m.add(Counter::FedProbes, 1);
            m.add(Counter::FedProbeFailures, 1);
        });
        times(21, &|| m.shard_add(0, ShardCounter::Requests));
        times(22, &|| m.shard_add(1, ShardCounter::Requests));
        times(23, &|| m.shard_add(0, ShardCounter::Unavailable));
        times(24, &|| m.shard_add(1, ShardCounter::Unavailable));
        m.shard_add(2, ShardCounter::Requests);
        m.shard_add(99, ShardCounter::Unavailable);
        let text = m.render();
        let (_, tail) = text
            .split_once("pipefail_http_request_duration_seconds_count{route=\"other\"} 0\n")
            .expect("the histogram renders before the counters");
        assert_eq!(
            tail,
            r#"# TYPE pipefail_http_connections_open gauge
pipefail_http_connections_open 2
# TYPE pipefail_http_connections_shed_total counter
pipefail_http_connections_shed_total 3
# TYPE pipefail_http_admission_rejected_total counter
pipefail_http_admission_rejected_total 4
# TYPE pipefail_keepalive_reuses_total counter
pipefail_keepalive_reuses_total 5
# TYPE pipefail_reloads_total counter
pipefail_reloads_total 6
# TYPE pipefail_reload_failures_total counter
pipefail_reload_failures_total 7
# TYPE pipefail_global_topk_total counter
pipefail_global_topk_total 8
# TYPE pipefail_healthz_total counter
pipefail_healthz_total 9
# TYPE pipefail_cache_hits_total counter
pipefail_cache_hits_total 10
# TYPE pipefail_cache_misses_total counter
pipefail_cache_misses_total 11
# TYPE pipefail_cache_evictions_total counter
pipefail_cache_evictions_total 12
# TYPE pipefail_cache_coalesced_waits_total counter
pipefail_cache_coalesced_waits_total 13
# TYPE pipefail_cache_resident_bytes gauge
pipefail_cache_resident_bytes 14
# TYPE pipefail_fed_retries_total counter
pipefail_fed_retries_total 15
# TYPE pipefail_fed_hedges_total counter
pipefail_fed_hedges_total 16
# TYPE pipefail_fed_hedge_wins_total counter
pipefail_fed_hedge_wins_total 17
# TYPE pipefail_fed_probes_total counter
pipefail_fed_probes_total 19
# TYPE pipefail_fed_probe_failures_total counter
pipefail_fed_probe_failures_total 18
# TYPE pipefail_shard_requests counter
pipefail_shard_requests{shard="region_a"} 21
pipefail_shard_requests{shard="region_b"} 22
# TYPE pipefail_shard_reloads counter
pipefail_shard_reloads{shard="region_a"} 1
pipefail_shard_reloads{shard="region_b"} 2
# TYPE pipefail_shard_reload_failures counter
pipefail_shard_reload_failures{shard="region_a"} 0
pipefail_shard_reload_failures{shard="region_b"} 3
# TYPE pipefail_shard_unavailable counter
pipefail_shard_unavailable{shard="region_a"} 23
pipefail_shard_unavailable{shard="region_b"} 24
"#
        );
    }

    #[test]
    fn metrics_reference_names_every_series() {
        let doc = include_str!("../../../docs/SERVING.md");
        let (_, reference) = doc.split_once("\n## Metrics reference\n").expect("section");
        let reference = reference.split("\n## ").next().unwrap_or_default();
        let names = Counter::SERIES.iter().map(|s| s.1);
        for name in names.chain(ShardCounter::SERIES.iter().map(|s| s.1)) {
            let row = format!("\n| `{name}` |");
            assert!(reference.contains(&row), "the metrics reference lacks `{name}`");
        }
    }
}
