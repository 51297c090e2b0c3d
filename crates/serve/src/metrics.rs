//! Request counters and per-route latency histograms for the `/metrics`
//! endpoint.
//!
//! Everything is a relaxed atomic — observation never blocks a request
//! thread, and the exposition is a consistent-enough point-in-time read
//! (standard practice for counter scrapes). The exposition format is the
//! Prometheus text format, so the endpoint can be scraped as-is.

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
    /// loop never calls [`Metrics::observe`] for it) so a federation
    /// front-end probing every second does not pollute the serving
    /// metrics; probes count in [`Metrics::healthz_total`] instead.
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

/// Per-shard counters for sharded serving: requests routed to the shard,
/// its reload outcomes, and requests refused because the shard was
/// degraded. Exposed with a `shard="<region key>"` label.
#[derive(Debug, Default)]
struct ShardCounters {
    label: String,
    requests: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    unavailable: AtomicU64,
}

/// One per-route latency histogram in seconds: `DURATION_BUCKETS_S` +
/// the +Inf overflow bucket, a sum (µs resolution), and a count.
#[derive(Debug, Default)]
struct DurationHisto {
    buckets: [AtomicU64; 17],
    sum_us: AtomicU64,
    count: AtomicU64,
}

/// Lock-free request metrics shared by all server workers.
#[derive(Debug, Default)]
pub struct Metrics {
    total: AtomicU64,
    by_route: [AtomicU64; 10],
    /// Per-route request-duration histograms
    /// (`pipefail_http_request_duration_seconds{route=...}`).
    durations: [DurationHisto; 10],
    /// Currently open connections (gauge).
    connections_open: AtomicU64,
    /// Idle keep-alive connections closed to admit new ones at the
    /// connection cap (admission control).
    connections_shed: AtomicU64,
    /// Requests/connections answered `429` by admission control.
    admission_rejected: AtomicU64,
    /// Status classes 1xx..5xx.
    by_status: [AtomicU64; 5],
    /// Requests served on an already-used connection (request ≥ 2 on its
    /// socket) — the payoff of keep-alive.
    keepalive_reuses: AtomicU64,
    /// Successful snapshot hot-reload swaps (all shards).
    reloads_total: AtomicU64,
    /// Snapshot replacements rejected by the strict loader (all shards).
    reload_failures_total: AtomicU64,
    /// Region-less `/top` scatter-gathers on a sharded server.
    global_topk: AtomicU64,
    /// `GET /healthz` probes answered — kept out of the request counters
    /// (see [`Route::Healthz`]).
    healthz: AtomicU64,
    /// Result-cache hits: responses served from a stored rendered body
    /// (including `304`s answered from the epoch-derived `ETag` alone).
    cache_hits: AtomicU64,
    /// Result-cache misses: cacheable requests computed by the router
    /// (single-flight leaders and fallbacks).
    cache_misses: AtomicU64,
    /// Entries evicted past the cache byte budget (LRU order).
    cache_evictions: AtomicU64,
    /// Requests that blocked on another request's identical in-flight
    /// miss and reused its body instead of recomputing.
    cache_coalesced_waits: AtomicU64,
    /// Resident cache bytes (gauge): bodies + keys + per-entry overhead.
    cache_resident_bytes: AtomicU64,
    /// Federation only: retry attempts after a failed backend request.
    fed_retries: AtomicU64,
    /// Federation only: hedged duplicate requests fired.
    fed_hedges: AtomicU64,
    /// Federation only: hedged duplicates that finished before the primary.
    fed_hedge_wins: AtomicU64,
    /// Federation only: health probes sent.
    fed_probes: AtomicU64,
    /// Federation only: health probes that failed.
    fed_probe_failures: AtomicU64,
    /// True when this server is a federation front-end: the `fed_*`
    /// counters render (and the shard series are labelled per backend).
    federated: bool,
    /// One entry per shard, in shard-set (routing-key) order; empty for a
    /// plain `Metrics::new()`.
    shards: Vec<ShardCounters>,
}

impl Metrics {
    /// Fresh zeroed metrics with no per-shard series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh zeroed metrics with one `shard="<label>"` series per shard,
    /// in shard-set order (indices passed to the `shard_*` methods are
    /// positions in this list).
    pub fn with_shards(labels: Vec<String>) -> Self {
        Self {
            shards: labels
                .into_iter()
                .map(|label| ShardCounters {
                    label,
                    ..ShardCounters::default()
                })
                .collect(),
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

    /// Record one connection opened.
    pub fn conn_opened(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one connection closed.
    pub fn conn_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Currently open connections.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Record one idle keep-alive connection shed at the connection cap.
    pub fn connection_shed(&self) {
        self.connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle connections shed so far.
    pub fn connections_shed_total(&self) -> u64 {
        self.connections_shed.load(Ordering::Relaxed)
    }

    /// Record one `429` answered by admission control (in-flight bound or
    /// un-sheddable connection cap).
    pub fn admission_rejected(&self) {
        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Admission-control rejections so far.
    pub fn admission_rejected_total(&self) -> u64 {
        self.admission_rejected.load(Ordering::Relaxed)
    }

    /// Total requests handled so far.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Requests handled on `route` so far.
    pub fn route_count(&self, route: Route) -> u64 {
        self.by_route[route.index()].load(Ordering::Relaxed)
    }

    /// Record one request answered on an already-used (kept-alive)
    /// connection.
    pub fn keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests served on reused connections so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Record one successful snapshot hot-reload.
    pub fn reload_ok(&self) {
        self.reloads_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one rejected snapshot replacement.
    pub fn reload_failed(&self) {
        self.reload_failures_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Successful hot-reload swaps so far.
    pub fn reloads_total(&self) -> u64 {
        self.reloads_total.load(Ordering::Relaxed)
    }

    /// Rejected snapshot replacements so far.
    pub fn reload_failures_total(&self) -> u64 {
        self.reload_failures_total.load(Ordering::Relaxed)
    }

    /// Record one request routed to shard `idx` (each `/batch` line counts
    /// separately). Out-of-range indices are ignored — metrics must never
    /// take a request down.
    pub fn shard_request(&self, idx: usize) {
        if let Some(s) = self.shards.get(idx) {
            s.requests.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one successful hot-reload of shard `idx`; also counts in the
    /// aggregate [`Metrics::reloads_total`].
    pub fn shard_reload_ok(&self, idx: usize) {
        self.reload_ok();
        if let Some(s) = self.shards.get(idx) {
            s.reloads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one rejected snapshot replacement on shard `idx`; also
    /// counts in the aggregate [`Metrics::reload_failures_total`].
    pub fn shard_reload_failed(&self, idx: usize) {
        self.reload_failed();
        if let Some(s) = self.shards.get(idx) {
            s.reload_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one request refused with `503` because shard `idx` was
    /// degraded.
    pub fn shard_unavailable(&self, idx: usize) {
        if let Some(s) = self.shards.get(idx) {
            s.unavailable.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests routed to shard `idx` so far.
    pub fn shard_requests(&self, idx: usize) -> u64 {
        self.shards
            .get(idx)
            .map_or(0, |s| s.requests.load(Ordering::Relaxed))
    }

    /// Requests refused because shard `idx` was degraded, so far.
    pub fn shard_unavailable_total(&self, idx: usize) -> u64 {
        self.shards
            .get(idx)
            .map_or(0, |s| s.unavailable.load(Ordering::Relaxed))
    }

    /// Record one region-less scatter-gather global top-K.
    pub fn global_topk(&self) {
        self.global_topk.fetch_add(1, Ordering::Relaxed);
    }

    /// Scatter-gather global top-K requests so far.
    pub fn global_topk_total(&self) -> u64 {
        self.global_topk.load(Ordering::Relaxed)
    }

    /// Record one answered `GET /healthz` probe (kept out of the request
    /// counters — see [`Route::Healthz`]).
    pub fn healthz(&self) {
        self.healthz.fetch_add(1, Ordering::Relaxed);
    }

    /// `GET /healthz` probes answered so far.
    pub fn healthz_total(&self) -> u64 {
        self.healthz.load(Ordering::Relaxed)
    }

    /// Record one result-cache hit (stored body served, or a `304`
    /// answered from the epoch-derived `ETag`).
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Result-cache hits so far.
    pub fn cache_hits_total(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Record one result-cache miss (request computed by the router).
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Result-cache misses so far.
    pub fn cache_misses_total(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Record `n` entries evicted past the cache byte budget.
    pub fn cache_evicted(&self, n: u64) {
        if n > 0 {
            self.cache_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Result-cache evictions so far.
    pub fn cache_evictions_total(&self) -> u64 {
        self.cache_evictions.load(Ordering::Relaxed)
    }

    /// Record one request coalesced onto another's in-flight miss.
    pub fn cache_coalesced(&self) {
        self.cache_coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Coalesced waits so far.
    pub fn cache_coalesced_waits_total(&self) -> u64 {
        self.cache_coalesced_waits.load(Ordering::Relaxed)
    }

    /// Adjust the resident-bytes gauge by a signed delta (stores and
    /// evictions report their net effect; two's-complement wrapping keeps
    /// the running sum exact as long as it never goes negative, which the
    /// cache guarantees by accounting every byte it frees).
    pub fn cache_resident_delta(&self, delta: i64) {
        if delta != 0 {
            self.cache_resident_bytes.fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Resident result-cache bytes right now.
    pub fn cache_resident_bytes(&self) -> u64 {
        self.cache_resident_bytes.load(Ordering::Relaxed)
    }

    /// Record one federation retry (a repeat attempt after a failed
    /// backend request, not the first attempt).
    pub fn fed_retry(&self) {
        self.fed_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Federation retries so far.
    pub fn fed_retries_total(&self) -> u64 {
        self.fed_retries.load(Ordering::Relaxed)
    }

    /// Record one hedged duplicate request fired after the hedge delay.
    pub fn fed_hedge(&self) {
        self.fed_hedges.fetch_add(1, Ordering::Relaxed);
    }

    /// Hedged duplicates fired so far.
    pub fn fed_hedges_total(&self) -> u64 {
        self.fed_hedges.load(Ordering::Relaxed)
    }

    /// Record one hedged duplicate that answered before its primary.
    pub fn fed_hedge_win(&self) {
        self.fed_hedge_wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Hedge wins so far.
    pub fn fed_hedge_wins_total(&self) -> u64 {
        self.fed_hedge_wins.load(Ordering::Relaxed)
    }

    /// Record one health probe sent to a backend; `ok` is whether the
    /// backend answered a well-formed response.
    pub fn fed_probe(&self, ok: bool) {
        self.fed_probes.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.fed_probe_failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Health probes sent so far.
    pub fn fed_probes_total(&self) -> u64 {
        self.fed_probes.load(Ordering::Relaxed)
    }

    /// Health probes that failed so far.
    pub fn fed_probe_failures_total(&self) -> u64 {
        self.fed_probe_failures.load(Ordering::Relaxed)
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
        out.push_str("# TYPE pipefail_http_connections_open gauge\n");
        out.push_str(&format!(
            "pipefail_http_connections_open {}\n",
            self.connections_open()
        ));
        out.push_str("# TYPE pipefail_http_connections_shed_total counter\n");
        out.push_str(&format!(
            "pipefail_http_connections_shed_total {}\n",
            self.connections_shed_total()
        ));
        out.push_str("# TYPE pipefail_http_admission_rejected_total counter\n");
        out.push_str(&format!(
            "pipefail_http_admission_rejected_total {}\n",
            self.admission_rejected_total()
        ));
        out.push_str("# TYPE pipefail_keepalive_reuses_total counter\n");
        out.push_str(&format!(
            "pipefail_keepalive_reuses_total {}\n",
            self.keepalive_reuses()
        ));
        out.push_str("# TYPE pipefail_reloads_total counter\n");
        out.push_str(&format!("pipefail_reloads_total {}\n", self.reloads_total()));
        out.push_str("# TYPE pipefail_reload_failures_total counter\n");
        out.push_str(&format!(
            "pipefail_reload_failures_total {}\n",
            self.reload_failures_total()
        ));
        out.push_str("# TYPE pipefail_global_topk_total counter\n");
        out.push_str(&format!(
            "pipefail_global_topk_total {}\n",
            self.global_topk_total()
        ));
        out.push_str("# TYPE pipefail_healthz_total counter\n");
        out.push_str(&format!("pipefail_healthz_total {}\n", self.healthz_total()));
        out.push_str("# TYPE pipefail_cache_hits_total counter\n");
        out.push_str(&format!("pipefail_cache_hits_total {}\n", self.cache_hits_total()));
        out.push_str("# TYPE pipefail_cache_misses_total counter\n");
        out.push_str(&format!(
            "pipefail_cache_misses_total {}\n",
            self.cache_misses_total()
        ));
        out.push_str("# TYPE pipefail_cache_evictions_total counter\n");
        out.push_str(&format!(
            "pipefail_cache_evictions_total {}\n",
            self.cache_evictions_total()
        ));
        out.push_str("# TYPE pipefail_cache_coalesced_waits_total counter\n");
        out.push_str(&format!(
            "pipefail_cache_coalesced_waits_total {}\n",
            self.cache_coalesced_waits_total()
        ));
        out.push_str("# TYPE pipefail_cache_resident_bytes gauge\n");
        out.push_str(&format!(
            "pipefail_cache_resident_bytes {}\n",
            self.cache_resident_bytes()
        ));
        if self.federated {
            out.push_str("# TYPE pipefail_fed_retries_total counter\n");
            out.push_str(&format!(
                "pipefail_fed_retries_total {}\n",
                self.fed_retries_total()
            ));
            out.push_str("# TYPE pipefail_fed_hedges_total counter\n");
            out.push_str(&format!(
                "pipefail_fed_hedges_total {}\n",
                self.fed_hedges_total()
            ));
            out.push_str("# TYPE pipefail_fed_hedge_wins_total counter\n");
            out.push_str(&format!(
                "pipefail_fed_hedge_wins_total {}\n",
                self.fed_hedge_wins_total()
            ));
            out.push_str("# TYPE pipefail_fed_probes_total counter\n");
            out.push_str(&format!(
                "pipefail_fed_probes_total {}\n",
                self.fed_probes_total()
            ));
            out.push_str("# TYPE pipefail_fed_probe_failures_total counter\n");
            out.push_str(&format!(
                "pipefail_fed_probe_failures_total {}\n",
                self.fed_probe_failures_total()
            ));
        }
        if !self.shards.is_empty() {
            out.push_str("# TYPE pipefail_shard_requests counter\n");
            for s in &self.shards {
                out.push_str(&format!(
                    "pipefail_shard_requests{{shard=\"{}\"}} {}\n",
                    s.label,
                    s.requests.load(Ordering::Relaxed)
                ));
            }
            out.push_str("# TYPE pipefail_shard_reloads counter\n");
            for s in &self.shards {
                out.push_str(&format!(
                    "pipefail_shard_reloads{{shard=\"{}\"}} {}\n",
                    s.label,
                    s.reloads.load(Ordering::Relaxed)
                ));
            }
            out.push_str("# TYPE pipefail_shard_reload_failures counter\n");
            for s in &self.shards {
                out.push_str(&format!(
                    "pipefail_shard_reload_failures{{shard=\"{}\"}} {}\n",
                    s.label,
                    s.reload_failures.load(Ordering::Relaxed)
                ));
            }
            out.push_str("# TYPE pipefail_shard_unavailable counter\n");
            for s in &self.shards {
                out.push_str(&format!(
                    "pipefail_shard_unavailable{{shard=\"{}\"}} {}\n",
                    s.label,
                    s.unavailable.load(Ordering::Relaxed)
                ));
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
        m.shard_request(0);
        m.shard_request(0);
        m.shard_request(1);
        m.shard_reload_ok(1);
        m.shard_reload_failed(0);
        m.shard_unavailable(0);
        m.global_topk();
        // Out-of-range indices are ignored, never panic.
        m.shard_request(99);
        m.shard_reload_ok(99);
        assert_eq!(m.shard_requests(0), 2);
        assert_eq!(m.shard_requests(1), 1);
        assert_eq!(m.shard_unavailable_total(0), 1);
        assert_eq!(m.global_topk_total(), 1);
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
        m.healthz();
        m.healthz();
        assert_eq!(m.healthz_total(), 2);
        // Probes never touch the request counters.
        assert_eq!(m.total(), 0);
        assert_eq!(m.route_count(Route::Healthz), 0);
        assert!(m.render().contains("pipefail_healthz_total 2"));
    }

    #[test]
    fn federation_counters_render_only_on_federated_metrics() {
        let m = Metrics::with_backends(vec!["region_a".into(), "region_b".into()]);
        m.fed_retry();
        m.fed_hedge();
        m.fed_hedge();
        m.fed_hedge_win();
        m.fed_probe(true);
        m.fed_probe(false);
        m.fed_probe(false);
        assert_eq!(m.fed_retries_total(), 1);
        assert_eq!(m.fed_hedges_total(), 2);
        assert_eq!(m.fed_hedge_wins_total(), 1);
        assert_eq!(m.fed_probes_total(), 3);
        assert_eq!(m.fed_probe_failures_total(), 2);
        let text = m.render();
        assert!(text.contains("pipefail_fed_retries_total 1"));
        assert!(text.contains("pipefail_fed_hedges_total 2"));
        assert!(text.contains("pipefail_fed_hedge_wins_total 1"));
        assert!(text.contains("pipefail_fed_probes_total 3"));
        assert!(text.contains("pipefail_fed_probe_failures_total 2"));
        // Backends reuse the per-shard series, labelled by region key.
        m.shard_request(1);
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
        m.conn_opened();
        m.conn_opened();
        m.conn_opened();
        m.conn_closed();
        m.connection_shed();
        m.admission_rejected();
        m.admission_rejected();
        assert_eq!(m.connections_open(), 2);
        assert_eq!(m.connections_shed_total(), 1);
        assert_eq!(m.admission_rejected_total(), 2);
        let text = m.render();
        assert!(text.contains("pipefail_http_connections_open 2"));
        assert!(text.contains("pipefail_http_connections_shed_total 1"));
        assert!(text.contains("pipefail_http_admission_rejected_total 2"));
    }

    #[test]
    fn keepalive_and_reload_counters_accumulate() {
        let m = Metrics::new();
        m.keepalive_reuse();
        m.keepalive_reuse();
        m.reload_ok();
        m.reload_failed();
        m.reload_failed();
        assert_eq!(m.keepalive_reuses(), 2);
        assert_eq!(m.reloads_total(), 1);
        assert_eq!(m.reload_failures_total(), 2);
        let text = m.render();
        assert!(text.contains("pipefail_keepalive_reuses_total 2"));
        assert!(text.contains("pipefail_reloads_total 1"));
        assert!(text.contains("pipefail_reload_failures_total 2"));
    }
}
