//! A minimal hand-rolled HTTP/1.1 server for the scoring engine.
//!
//! No async runtime, no HTTP crate — a fixed set of identical serving
//! threads shares one epoll instance over the listener and every
//! connection, and each request is answered on the thread that read it, in
//! the same spirit as the workspace's hand-rolled CSV and SVG writers.
//! Serving is Linux-only: elsewhere [`serve`] returns
//! [`ServeError::BadConfig`]. On each connection, requests are parsed
//! incrementally off one buffer (pipelined requests included) by
//! [`crate::parser`], responses carry exact `Content-Length` framing so the
//! socket can be reused, and the `Connection: close` / `keep-alive` headers
//! are honored with HTTP/1.0-vs-1.1 defaulting. A per-connection request
//! cap and an idle timeout (the `PIPEFAIL_HTTP_KEEPALIVE_REQS` /
//! `PIPEFAIL_HTTP_IDLE_SECS` knobs) bound how long one client can hold a
//! connection, following the same `PIPEFAIL_*` environment-knob idiom as
//! the experiment runner's wall-clock budgets.
//!
//! When watched snapshot paths are configured, a watcher thread
//! ([`crate::reload`]) polls them and hot-swaps each shard's scorer on
//! change — see [`ServerConfig::reload_poll_secs`].
//!
//! ## Routes
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /health` | liveness probe |
//! | `GET /healthz` | readiness probe: `200` when every shard serves, `503` + `Retry-After` while any shard is degraded; excluded from the request metrics so federation health checks don't pollute them |
//! | `GET /top?k=N` | the N riskiest pipes, descending (default 10); sharded servers scatter-gather a **global** top-K across every region |
//! | `GET /top?region=R&k=N` | one region's top-K (routed to that shard; unknown region → typed 404, degraded shard → typed 503) |
//! | `GET /pipe?region=R&id=N` | one pipe's score and rank (`region` required when serving more than one shard) |
//! | `GET /model` | snapshot identity + posterior-summary inventory (sharded: the full shard inventory) |
//! | `POST /batch` | one query per line (`[region=R ]top K` / `region=R pipe ID`), answered in order on the serving thread |
//! | `POST /aggregate` | declarative group-by/aggregate pipeline (body = JSON spec, see `docs/AGGREGATE.md`) computed per-shard on the task pool and merged deterministically; `?partial=1` answers the merge-ready partial state (the federation scatter leg) |
//! | `GET /riskmap.svg` | Fig 18.9 risk map (single-snapshot mode with a dataset only) |
//! | `GET /metrics` | Prometheus text exposition (sharded: per-shard `shard="R"` series) |

use crate::aggregate::{self, AggregateSpec};
use crate::cache::{self, Answer, ResultCache};
use crate::metrics::{Counter, Metrics, Route, ShardCounter};
use crate::parser::ParsedRequest;
use crate::reload;
use crate::scorer::{PipeRisk, Query, QueryResult, RiskSlice, Scorer};
use crate::shards::{GlobalRisk, ShardSet};
use crate::ServeError;
use pipefail_network::dataset::Dataset;
use pipefail_network::ids::PipeId;
use pipefail_network::split::TrainTestSplit;
use pipefail_par::TaskPool;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable: cumulative per-request deadline in seconds (same
/// parsing rules as `PIPEFAIL_MODEL_BUDGET_SECS` — positive float, bad
/// values fall back to the default).
pub const HTTP_TIMEOUT_ENV: &str = "PIPEFAIL_HTTP_TIMEOUT_SECS";

/// Environment variable: serving-thread count (`0`/unset = auto).
pub const HTTP_WORKERS_ENV: &str = "PIPEFAIL_HTTP_WORKERS";

/// Environment variable: maximum requests served per connection before the
/// server closes it (`0` = unlimited).
pub const HTTP_KEEPALIVE_REQS_ENV: &str = "PIPEFAIL_HTTP_KEEPALIVE_REQS";

/// Environment variable: idle timeout in seconds for a keep-alive
/// connection waiting between requests (positive float).
pub const HTTP_IDLE_ENV: &str = "PIPEFAIL_HTTP_IDLE_SECS";

/// Environment variable: snapshot hot-reload poll interval in seconds
/// (`0`/unset = reloading off).
pub const HTTP_RELOAD_ENV: &str = "PIPEFAIL_HTTP_RELOAD_SECS";

/// Environment variable: maximum concurrently open connections (`0` =
/// unlimited). At the cap the longest-idle keep-alive connection is shed;
/// when nothing is sheddable, new connections get `429` + `Retry-After`.
pub const HTTP_MAX_CONNS_ENV: &str = "PIPEFAIL_HTTP_MAX_CONNS";

/// Environment variable: result-cache switch — `off`/`0`/`false` disables
/// the rendered-response cache (every request recomputes). `ETag`/`304`
/// revalidation and `HEAD` synthesis stay on either way, so observable
/// behaviour never depends on this knob — only latency does.
pub const CACHE_ENV: &str = "PIPEFAIL_CACHE";

/// Environment variable: result-cache byte budget (total across lock
/// shards; default 64 MiB). Bodies, keys, and fixed per-entry overhead
/// all count; least-recently-used entries are evicted past the budget.
pub const CACHE_BYTES_ENV: &str = "PIPEFAIL_CACHE_BYTES";

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port (tests).
    pub addr: String,
    /// Serving threads; `0` = auto (available parallelism, at least 2,
    /// at most 8). Each answers one connection's requests at a time.
    pub workers: usize,
    /// Cumulative per-request deadline in seconds, counted from the first
    /// byte of a request — the serving analogue of the fit engine's
    /// wall-clock budget: a client stalled (or dribbling bytes)
    /// *mid-request* is cut off with `408` once the total elapsed time
    /// exceeds this, so it cannot hold a connection by trickling traffic.
    /// A response the client stops reading is dropped after the same
    /// budget.
    pub request_timeout_secs: f64,
    /// Idle timeout in seconds for a keep-alive connection with no request
    /// in flight; expiry closes the socket quietly.
    pub idle_timeout_secs: f64,
    /// Maximum requests served on one connection before the server answers
    /// `Connection: close` (`0` = unlimited).
    pub keepalive_requests: usize,
    /// Maximum accepted request size (head + body) in bytes.
    pub max_request_bytes: usize,
    /// Snapshot hot-reload poll interval in seconds; `0` disables the
    /// watcher. Requires [`ServerConfig::snapshot_path`].
    pub reload_poll_secs: f64,
    /// Snapshot file watched for hot-reload (usually the file the scorer
    /// was loaded from).
    pub snapshot_path: Option<PathBuf>,
    /// Maximum open connections (`0` = unlimited). See
    /// [`HTTP_MAX_CONNS_ENV`].
    pub max_connections: usize,
    /// Whether the epoch-keyed result cache stores rendered responses
    /// (see [`CACHE_ENV`]). Off still answers `ETag`/`304`/`HEAD`
    /// identically — the knob trades only latency, never behaviour.
    pub cache: bool,
    /// Result-cache byte budget (see [`CACHE_BYTES_ENV`]).
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            request_timeout_secs: 10.0,
            idle_timeout_secs: 5.0,
            keepalive_requests: 100,
            max_request_bytes: 64 * 1024,
            reload_poll_secs: 0.0,
            snapshot_path: None,
            max_connections: 8192,
            cache: true,
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden from the environment ([`HTTP_TIMEOUT_ENV`],
    /// [`HTTP_IDLE_ENV`], [`HTTP_WORKERS_ENV`], [`HTTP_KEEPALIVE_REQS_ENV`],
    /// [`HTTP_RELOAD_ENV`], [`HTTP_MAX_CONNS_ENV`], [`CACHE_ENV`],
    /// [`CACHE_BYTES_ENV`]), mirroring
    /// `RetryPolicy::from_env`: unset or unparsable values keep the
    /// defaults, timeouts must be positive.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(t) = positive_f64_env(HTTP_TIMEOUT_ENV) {
            cfg.request_timeout_secs = t;
        }
        if let Some(t) = positive_f64_env(HTTP_IDLE_ENV) {
            cfg.idle_timeout_secs = t;
        }
        if let Some(w) = std::env::var(HTTP_WORKERS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.workers = w;
        }
        if let Some(n) = std::env::var(HTTP_KEEPALIVE_REQS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.keepalive_requests = n;
        }
        if let Some(t) = std::env::var(HTTP_RELOAD_ENV)
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|t| *t >= 0.0)
        {
            cfg.reload_poll_secs = t;
        }
        if let Some(n) = std::env::var(HTTP_MAX_CONNS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            cfg.max_connections = n;
        }
        if let Ok(v) = std::env::var(CACHE_ENV) {
            match v.to_ascii_lowercase().as_str() {
                "off" | "0" | "false" => cfg.cache = false,
                "on" | "1" | "true" => cfg.cache = true,
                _ => {} // unknown value keeps the default (on)
            }
        }
        if let Some(n) = std::env::var(CACHE_BYTES_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)
        {
            cfg.cache_bytes = n;
        }
        cfg
    }

    /// This configuration with a different bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// This configuration watching `path` for snapshot hot-reload.
    pub fn with_snapshot_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot_path = Some(path.into());
        self
    }

    pub(crate) fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            // Floor of 2 even on a single-core box: with one thread, one
            // slow request (a large `/aggregate` scan, a risk-map render)
            // holds every other connection's requests behind it.
            std::thread::available_parallelism()
                .map_or(2, |n| n.get())
                .clamp(2, 8)
        }
    }
}

fn positive_f64_env(key: &str) -> Option<f64> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| *t > 0.0)
}

/// Everything a serving thread needs to answer queries: the
/// (hot-swappable) per-region shards, a task pool for `/aggregate`'s
/// per-shard partials, and an optional dataset for the risk-map route.
#[derive(Debug)]
pub struct ServeContext {
    /// The served shards (a single-snapshot server is a one-shard set).
    /// Requests clone a shard's `Arc<Scorer>` once and answer from that
    /// consistent view; the reload watcher replaces each shard's `Arc`
    /// whole, so in-flight requests finish on the scorer they started
    /// with.
    shards: ShardSet,
    pool: TaskPool,
    dataset: Option<Dataset>,
}

impl ServeContext {
    /// Context serving one `scorer` (legacy single-snapshot mode),
    /// aggregating over `PIPEFAIL_THREADS`.
    pub fn new(scorer: Scorer) -> Self {
        Self::sharded(ShardSet::single(scorer))
    }

    /// Context serving a whole shard set behind one endpoint, aggregating
    /// over `PIPEFAIL_THREADS`.
    pub fn sharded(shards: ShardSet) -> Self {
        Self {
            shards,
            pool: TaskPool::from_env(),
            dataset: None,
        }
    }

    /// This context with the dataset the model was fitted on, enabling
    /// `GET /riskmap.svg` (the Fig 18.9 renderer of `pipefail-eval` over
    /// the served ranking; single-snapshot mode only).
    pub fn with_dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// The served shards.
    pub fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// The currently active scoring engine of the *first* shard — the
    /// single-snapshot accessor (a one-shard set is exactly the legacy
    /// server). The returned `Arc` is a stable view: it keeps answering
    /// consistently even if a hot-reload swaps the shard's scorer
    /// mid-request.
    pub fn scorer(&self) -> Arc<Scorer> {
        self.shards.shards()[0].last_good()
    }

    /// Atomically replace the first shard's active scorer (the
    /// single-snapshot hot-reload swap), returning the new shared handle.
    /// Never blocks readers for longer than one pointer store.
    pub fn swap_scorer(&self, scorer: Scorer) -> Arc<Scorer> {
        self.shards.shards()[0].swap(scorer)
    }
}

/// Handle to a running server: its bound address, shared metrics, and the
/// shutdown switch.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    /// The serving threads' listener, shut on stop to wake them all.
    listener: TcpListener,
    /// Every thread joined on stop: the reload watcher (local serving) or
    /// the backend health prober (federation), then the serving threads.
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live request metrics (also served at `/metrics`).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// finish, join all threads. Idempotent via `Drop` (calling this
    /// consumes the handle).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A shut listener stays ready: every serving thread wakes out of
        // `epoll_wait`, sees the flag and exits.
        #[cfg(target_os = "linux")]
        crate::sys::shutdown_listener(&self.listener);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the serving threads answer with: anything that turns a parsed
/// request into a routed response. The local snapshot router ([`LocalRouter`]) and the
/// federation front-end (`crate::federation`) both plug in here, sharing
/// the whole connection layer — keep-alive loop, pipelining, timeouts,
/// framing — unchanged.
pub(crate) trait RequestHandler: Send + Sync + 'static {
    /// Answer one request. `Route::Healthz` responses are counted in
    /// [`Counter::Healthz`] instead of the request metrics.
    fn handle(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response);
}

/// The in-process router: answers every route from the local
/// [`ServeContext`] shards, through the result cache where the answer is
/// a pure function of a shard's or the fleet's epoch.
pub(crate) struct LocalRouter {
    ctx: Arc<ServeContext>,
    cache: ResultCache,
    /// Seconds advertised in `Retry-After` on degrade `503`s — derived
    /// from the reload poll interval, since that is when a degraded shard
    /// can next heal.
    retry_after_secs: u64,
}

impl RequestHandler for LocalRouter {
    fn handle(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response) {
        route_request(req, &self.ctx, &self.cache, metrics, self.retry_after_secs)
    }
}

/// `Retry-After` seconds for degrade responses: the next reload poll is
/// the soonest a degraded shard can recover, so advertise that (minimum
/// 1s); without a watcher there is no self-heal schedule, so advertise a
/// nominal 1s.
pub(crate) fn retry_after_secs(reload_poll_secs: f64) -> u64 {
    if reload_poll_secs > 0.0 {
        (reload_poll_secs.ceil() as u64).max(1)
    } else {
        1
    }
}

/// Bind, spawn the serving threads and (when configured) the
/// snapshot-reload watcher, and return immediately.
pub fn serve(ctx: Arc<ServeContext>, config: &ServerConfig) -> Result<ServerHandle, ServeError> {
    let any_shard_path = ctx.shards().shards().iter().any(|s| s.path().is_some());
    if config.reload_poll_secs > 0.0 && config.snapshot_path.is_none() && !any_shard_path {
        return Err(ServeError::BadConfig(
            "reload_poll_secs set but no snapshot_path to watch".into(),
        ));
    }
    let metrics = Arc::new(Metrics::with_shards(
        ctx.shards().keys().map(String::from).collect(),
    ));
    let handler = Arc::new(LocalRouter {
        ctx: Arc::clone(&ctx),
        cache: ResultCache::new(config),
        retry_after_secs: retry_after_secs(config.reload_poll_secs),
    });
    let watcher_metrics = Arc::clone(&metrics);
    let poll = config.reload_poll_secs;
    let snapshot_path = config.snapshot_path.clone();
    serve_handler(handler, metrics, config, move |shutdown| {
        if poll > 0.0 {
            vec![reload::spawn_watcher(
                ctx,
                watcher_metrics,
                snapshot_path,
                Duration::from_secs_f64(poll),
                Arc::clone(shutdown),
            )]
        } else {
            vec![]
        }
    })
}

/// The handler-generic server core: bind, spawn the serving threads around
/// `handler`, start any `background` threads (reload watcher, health
/// prober) wired to the shutdown switch, and return immediately.
#[cfg(target_os = "linux")]
pub(crate) fn serve_handler(
    handler: Arc<dyn RequestHandler>,
    metrics: Arc<Metrics>,
    config: &ServerConfig,
    background: impl FnOnce(&Arc<AtomicBool>) -> Vec<JoinHandle<()>>,
) -> Result<ServerHandle, ServeError> {
    if config.request_timeout_secs <= 0.0 {
        return Err(ServeError::BadConfig(
            "request_timeout_secs must be positive".into(),
        ));
    }
    if config.idle_timeout_secs <= 0.0 {
        return Err(ServeError::BadConfig(
            "idle_timeout_secs must be positive".into(),
        ));
    }
    // SO_REUSEADDR-before-bind: a restarted server (or a test re-binding a
    // just-freed port) never flakes on EADDRINUSE from TIME_WAIT.
    let listener = crate::sys::bind_reuseaddr(&config.addr)
        .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut threads = background(&shutdown);
    threads.extend(
        crate::event_loop::spawn(
            handler,
            Arc::clone(&metrics),
            config,
            listener.try_clone()?,
            Arc::clone(&shutdown),
        )
        .map_err(|e| ServeError::Io(format!("serving threads: {e}")))?,
    );
    Ok(ServerHandle { addr, shutdown, metrics, listener, threads })
}

/// The connection core is built on epoll: off Linux, refuse before
/// binding.
#[cfg(not(target_os = "linux"))]
pub(crate) fn serve_handler(
    _handler: Arc<dyn RequestHandler>,
    _metrics: Arc<Metrics>,
    _config: &ServerConfig,
    _background: impl FnOnce(&Arc<AtomicBool>) -> Vec<JoinHandle<()>>,
) -> Result<ServerHandle, ServeError> {
    Err(ServeError::BadConfig("serving requires Linux (epoll)".into()))
}

/// A response ready to serialize.
pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    /// Shared with the result cache, whose hits reuse it without a copy.
    pub(crate) body: Arc<str>,
    /// Extra headers beyond the always-present framing set
    /// (`Retry-After`, `X-Pipefail-Partial`, …).
    pub(crate) headers: Vec<(&'static str, String)>,
    /// Epoch-derived validator, rendered as a quoted 16-hex-digit `ETag`
    /// header (cacheable GET routes only).
    pub(crate) etag: Option<u64>,
    /// Fleet epoch rendered as `X-Pipefail-Epoch` — how a federation
    /// front end notices a backend snapshot reload between health probes.
    /// Set by the router on every answer it routes.
    pub(crate) epoch: Option<u64>,
    /// `HEAD` answer: frame the headers (with the body's true
    /// `Content-Length`) but send no body bytes.
    pub(crate) head_only: bool,
    /// Whether the server closes the connection after this response; also
    /// decides the advertised `Connection` header.
    pub(crate) close: bool,
}

impl Response {
    pub(crate) fn json(status: u16, body: impl Into<Arc<str>>) -> Self {
        Self::text(status, "application/json", body)
    }

    pub(crate) fn text(
        status: u16,
        content_type: &'static str,
        body: impl Into<Arc<str>>,
    ) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
            headers: Vec::new(),
            etag: None,
            epoch: None,
            head_only: false,
            close: false,
        }
    }

    /// This response with one extra header appended.
    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// First extra-header value with the given name, if set.
    #[cfg(test)]
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialize the full response frame — status line, framing headers,
    /// extras, body — into a caller-owned buffer (cleared first). The
    /// connection core passes each connection's output buffer, whose
    /// capacity outlives the request, so the steady-state request path
    /// (cache hits especially) allocates nothing here; the frame goes out in one write,
    /// since two would let Nagle hold the body back until the client ACKs
    /// the head.
    pub(crate) fn render_into(&self, frame: &mut Vec<u8>) {
        frame.clear();
        let reason = match self.status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Error",
        };
        let _ = write!(
            frame,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status, reason, self.content_type
        );
        // `Content-Length` is the body's length even for `head_only`
        // frames: HEAD advertises what the matching GET would carry. A
        // `304` sends none — RFC 9110 §8.6 forbids any value but the
        // length of the 200 body it stands for.
        if self.status != 304 {
            let _ = write!(frame, "Content-Length: {}\r\n", self.body.len());
        }
        let _ = write!(
            frame,
            "Connection: {}\r\n",
            if self.close { "close" } else { "keep-alive" }
        );
        if let Some(etag) = self.etag {
            let _ = write!(frame, "ETag: \"{etag:016x}\"\r\n");
        }
        if let Some(epoch) = self.epoch {
            let _ = write!(frame, "X-Pipefail-Epoch: {epoch}\r\n");
        }
        for (name, value) in &self.headers {
            let _ = write!(frame, "{name}: {value}\r\n");
        }
        frame.extend_from_slice(b"\r\n");
        if !self.head_only {
            frame.extend_from_slice(self.body.as_bytes());
        }
    }

    /// [`Response::render_into`] into a fresh buffer (cold paths and
    /// tests).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut frame = Vec::with_capacity(128 + self.body.len());
        self.render_into(&mut frame);
        frame
    }
}

fn route_request(
    req: &ParsedRequest,
    ctx: &ServeContext,
    cache: &ResultCache,
    metrics: &Metrics,
    retry_after_secs: u64,
) -> (Route, Response) {
    let (route, mut response) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => (Route::Health, Response::json(200, "{\"status\":\"ok\"}")),
        ("GET", "/healthz") => (Route::Healthz, healthz_response(ctx)),
        ("GET", "/top") => (Route::Top, top_response(req, ctx, cache, metrics)),
        ("GET", "/pipe") => (Route::Pipe, pipe_response(req, ctx, cache, metrics)),
        ("GET", "/model") => (Route::Model, model_response(ctx)),
        ("POST", "/batch") => (Route::Batch, batch_response(req, ctx, metrics)),
        ("POST", "/aggregate") => {
            (Route::Aggregate, aggregate_response(req, ctx, cache, metrics))
        }
        ("GET", "/metrics") => (
            Route::Metrics,
            Response::text(200, "text/plain; version=0.0.4", metrics.render()),
        ),
        ("GET", "/riskmap.svg") => (Route::Riskmap, riskmap_response(ctx)),
        (m, "/health" | "/healthz" | "/top" | "/pipe" | "/model" | "/metrics" | "/riskmap.svg")
            if m != "GET" =>
        {
            (Route::Other, Response::json(405, "{\"error\":\"method not allowed\"}"))
        }
        (m, "/batch" | "/aggregate") if m != "POST" => {
            (Route::Other, Response::json(405, "{\"error\":\"method not allowed\"}"))
        }
        _ => (Route::Other, Response::json(404, "{\"error\":\"no such route\"}")),
    };
    // Every local 503 is a degraded shard that can heal at the next reload
    // poll: tell the client when to come back. (One place, so no degrade
    // path — region-routed, global merge, batch, healthz — can forget it.)
    if response.status == 503 {
        response = response.with_header("Retry-After", retry_after_secs.to_string());
    }
    response.epoch = Some(ctx.shards().fleet_epoch());
    (route, response)
}

/// The readiness answer: `200` when every shard serves, `503` naming the
/// degraded shards otherwise. Cheap — no scoring, no per-route counter
/// (see [`Route::Healthz`]).
fn healthz_response(ctx: &ServeContext) -> Response {
    let degraded = ctx.shards().degraded_keys();
    if degraded.is_empty() {
        return Response::json(200, "{\"status\":\"ok\"}");
    }
    let keys: Vec<String> = degraded.iter().map(|k| json_str(k)).collect();
    Response::json(
        503,
        format!(
            "{{\"status\":\"degraded\",\"shards\":[{}]}}",
            keys.join(",")
        ),
    )
}

/// Value of query-string parameter `key` — the shared reader in
/// [`crate::query`], re-exported under the name the router and the
/// federation front-end have always used.
pub(crate) use crate::query::param as query_param;

/// The typed 404 body for a region key naming no loaded shard: the error
/// plus the full list of known regions, so a caller can self-correct
/// without a second round trip.
fn unknown_region_body(shards: &ShardSet, key: &str) -> String {
    unknown_region_body_keys(shards.keys(), key)
}

/// [`unknown_region_body`] over raw routing keys — shared with the
/// federation front-end, whose regions live behind remote backends.
pub(crate) fn unknown_region_body_keys<'a>(
    keys: impl Iterator<Item = &'a str>,
    key: &str,
) -> String {
    let regions: Vec<String> = keys.map(json_str).collect();
    format!(
        "{{\"error\":{},\"regions\":[{}]}}",
        json_str(&format!("unknown region {key:?}")),
        regions.join(",")
    )
}

/// The typed 503 body for a degraded shard (corrupt hot-swap under
/// [`crate::shards::ReloadPolicy::Degrade`]); names the shard so the
/// client knows every *other* region is still serving.
fn degraded_shard_body(key: &str, reason: &str) -> String {
    format!(
        "{{\"error\":{},\"shard\":{}}}",
        json_str(&format!("shard {key:?} degraded: {reason}")),
        json_str(key)
    )
}

/// The shard a `/top` or `/pipe` request routes to: its `?region=` key,
/// or the only shard of a one-shard server. `Ok(None)` is a region-less
/// request on a sharded server; `Err` the typed 404 for an unknown region.
fn shard_of(req: &ParsedRequest, shards: &ShardSet) -> Result<Option<usize>, Response> {
    match query_param(&req.query, "region") {
        Some(key) => match shards.index_of(key) {
            Some(idx) => Ok(Some(idx)),
            None => Err(Response::json(404, unknown_region_body(shards, key))),
        },
        None if shards.is_single() => Ok(Some(0)),
        None => Ok(None),
    }
}

/// Answer a shard-scoped request through the cache under `key`. The
/// shard's epoch is read before its scorer, a degraded shard is a typed
/// 503, and the shard is counted here, so a stored answer counts exactly
/// like a computed one.
fn shard_answer(
    req: &ParsedRequest,
    ctx: &ServeContext,
    cache: &ResultCache,
    metrics: &Metrics,
    idx: usize,
    key: std::fmt::Arguments<'_>,
    render: impl FnOnce(&Scorer) -> Response,
) -> Response {
    let shard = &ctx.shards().shards()[idx];
    let epoch = shard.epoch();
    let scorer = match shard.serving() {
        Ok(scorer) => scorer,
        Err(reason) => {
            metrics.shard_add(idx, ShardCounter::Unavailable);
            return Response::json(503, degraded_shard_body(shard.key(), &reason));
        }
    };
    metrics.shard_add(idx, ShardCounter::Requests);
    cache.answer(req, metrics, epoch, key, || shard.epoch(), || render(&scorer)).0
}

fn top_response(
    req: &ParsedRequest,
    ctx: &ServeContext,
    cache: &ResultCache,
    metrics: &Metrics,
) -> Response {
    let k = match crate::query::top_k(&req.query) {
        Ok(k) => k,
        Err(e) => return e.response(),
    };
    match shard_of(req, ctx.shards()) {
        // Region-tagged (or the only shard): route straight to one shard,
        // zero cross-shard work.
        Ok(Some(idx)) => {
            let key = format_args!("top|s{idx}|k{k}");
            shard_answer(req, ctx, cache, metrics, idx, key, |scorer| {
                Response::json(200, render_top_k(scorer, k))
            })
        }
        // Scatter-gather global top-K across every region.
        Ok(None) => {
            let shards = ctx.shards();
            let (response, answer) = cache.answer(
                req,
                metrics,
                shards.fleet_epoch(),
                format_args!("gtop|k{k}"),
                || shards.fleet_epoch(),
                || global_top_response(shards, metrics, k),
            );
            if answer == Answer::Stored {
                metrics.add(Counter::GlobalTopk, 1);
            }
            response
        }
        Err(response) => response,
    }
}

fn global_top_response(shards: &ShardSet, metrics: &Metrics, k: usize) -> Response {
    match shards.global_top_k(k) {
        Ok(merged) => {
            metrics.add(Counter::GlobalTopk, 1);
            Response::json(200, render_global_top_k(shards, &merged, k))
        }
        Err(degraded) => {
            for key in &degraded {
                if let Some(idx) = shards.index_of(key) {
                    metrics.shard_add(idx, ShardCounter::Unavailable);
                }
            }
            let keys: Vec<String> = degraded.iter().map(|k| json_str(k)).collect();
            Response::json(
                503,
                format!(
                    "{{\"error\":\"global top-k unavailable: degraded shards\",\"shards\":[{}]}}",
                    keys.join(",")
                ),
            )
        }
    }
}

fn pipe_response(
    req: &ParsedRequest,
    ctx: &ServeContext,
    cache: &ResultCache,
    metrics: &Metrics,
) -> Response {
    let id = match crate::query::pipe_id(&req.query) {
        Ok(id) => id,
        Err(e) => return e.response(),
    };
    match shard_of(req, ctx.shards()) {
        Ok(Some(idx)) => {
            let key = format_args!("pipe|s{idx}|i{id}");
            shard_answer(req, ctx, cache, metrics, idx, key, |scorer| {
                match scorer.risk_of(PipeId(id)) {
                    Some(risk) => Response::json(200, render_pipe_risk(&risk)),
                    None => Response::json(404, format!("{{\"error\":\"pipe {id} not ranked\"}}")),
                }
            })
        }
        // Pipe ids are only unique within a region's snapshot; answering
        // from an arbitrary shard would be silently wrong.
        Ok(None) => {
            let regions: Vec<String> = ctx.shards().keys().map(json_str).collect();
            Response::json(
                400,
                format!(
                    "{{\"error\":\"pipe ids are per-region; pass ?region=<key>\",\"regions\":[{}]}}",
                    regions.join(",")
                ),
            )
        }
        Err(response) => response,
    }
}

fn model_response(ctx: &ServeContext) -> Response {
    // One shard: the legacy body, byte-identical to the single-snapshot
    // server (pinned by the end-to-end tests).
    if ctx.shards().is_single() {
        return Response::json(200, render_model(&ctx.scorer()));
    }
    Response::json(200, render_shard_inventory(ctx.shards()))
}

/// One parsed, shard-resolved `/batch` line.
enum BatchOp {
    /// A query answered by one shard (index into the shard set).
    Shard(usize, Query),
    /// A region-less `top K` on a sharded server: the scatter-gather
    /// global top-K.
    GlobalTop(usize),
}

fn batch_response(req: &ParsedRequest, ctx: &ServeContext, metrics: &Metrics) -> Response {
    let shards = ctx.shards();
    let mut ops = Vec::new();
    let mut wants_global = false;
    for (lineno, raw_line) in req.body.lines().enumerate() {
        let mut line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        // Optional routing prefix: `region=<key> ` in front of the query.
        let mut region: Option<&str> = None;
        if let Some(rest) = line.strip_prefix("region=") {
            let Some((key, query)) = rest.split_once(' ') else {
                return Response::json(
                    400,
                    format!(
                        "{{\"error\":\"bad query on line {}: {raw_line:?}\"}}",
                        lineno + 1
                    ),
                );
            };
            region = Some(key);
            line = query.trim();
        }
        let parsed = match line.split_once(' ') {
            Some(("top", k)) => k.parse::<usize>().ok().map(Query::TopK),
            Some(("pipe", id)) => id.parse::<u32>().ok().map(|i| Query::Pipe(PipeId(i))),
            _ => None,
        };
        let Some(query) = parsed else {
            return Response::json(
                400,
                format!("{{\"error\":\"bad query on line {}: {raw_line:?}\"}}", lineno + 1),
            );
        };
        // Resolve the shard up front: a batch with an unaddressable line
        // fails whole, before any scoring work.
        let op = match (region, query) {
            (Some(key), query) => {
                let Some(idx) = shards.index_of(key) else {
                    return Response::json(404, unknown_region_body(shards, key));
                };
                BatchOp::Shard(idx, query)
            }
            (None, query) if shards.is_single() => BatchOp::Shard(0, query),
            (None, Query::TopK(k)) => {
                wants_global = true;
                BatchOp::GlobalTop(k)
            }
            (None, Query::Pipe(_)) => {
                let regions: Vec<String> = shards.keys().map(json_str).collect();
                return Response::json(
                    400,
                    format!(
                        "{{\"error\":\"pipe ids are per-region; prefix line {} with region=<key>\",\"regions\":[{}]}}",
                        lineno + 1,
                        regions.join(",")
                    ),
                );
            }
        };
        ops.push(op);
    }

    // One Arc clone per shard for the whole batch: every line answers from
    // the same set of snapshots even if a reload lands mid-batch. A
    // referenced degraded shard fails the batch with the same typed 503 a
    // single request would get; a global line needs the whole fleet.
    let mut views: Vec<Option<Arc<Scorer>>> = vec![None; shards.len()];
    for (idx, shard) in shards.shards().iter().enumerate() {
        let referenced = wants_global
            || ops
                .iter()
                .any(|op| matches!(op, BatchOp::Shard(i, _) if *i == idx));
        if !referenced {
            continue;
        }
        match shard.serving() {
            Ok(scorer) => views[idx] = Some(scorer),
            Err(reason) => {
                metrics.shard_add(idx, ShardCounter::Unavailable);
                return Response::json(503, degraded_shard_body(shard.key(), &reason));
            }
        }
    }
    for op in &ops {
        match op {
            BatchOp::Shard(idx, _) => metrics.shard_add(*idx, ShardCounter::Requests),
            BatchOp::GlobalTop(_) => metrics.add(Counter::GlobalTopk, 1),
        }
    }

    // Answer the lines in order on this thread: each is a lookup or a
    // bounded merge, cheaper than handing it to another thread.
    let answer = |op: &BatchOp| match op {
        BatchOp::Shard(idx, query) => {
            let scorer = views[*idx].as_ref().expect("resolved above");
            render_query_result(&scorer.answer(*query))
        }
        BatchOp::GlobalTop(k) => {
            let tables: Vec<RiskSlice<'_>> = views
                .iter()
                .map(|v| v.as_ref().expect("resolved above").top_k(*k))
                .collect();
            let merged = crate::shards::merge_top_k(&tables, *k);
            let keys: Vec<String> = shards.shards().iter().map(|s| json_str(s.key())).collect();
            let mut out = String::with_capacity(16 + merged.len() * 80);
            out.push_str("{\"top\":[");
            for (rank, g) in merged.iter().enumerate() {
                if rank > 0 {
                    out.push(',');
                }
                write_global_risk(&mut out, &keys, g, rank);
            }
            out.push_str("]}");
            out
        }
    };
    let rendered: Vec<String> = ops.iter().map(answer).collect();
    Response::json(200, format!("{{\"results\":[{}]}}", rendered.join(",")))
}

/// `POST /aggregate`: parse the declarative pipeline spec, compute one
/// partial aggregate state per shard on the task pool, and merge the
/// partials fold-left in routing-key order — the canonical computation
/// every topology shares, so monolithic, in-process sharded, and
/// federated servers answer byte-identically (`docs/AGGREGATE.md`).
/// `?partial=1` returns the merge-ready partial state instead of the
/// final body: the scatter leg a federation front-end drives.
fn aggregate_response(
    req: &ParsedRequest,
    ctx: &ServeContext,
    cache: &ResultCache,
    metrics: &Metrics,
) -> Response {
    let shards = ctx.shards();
    let partial = u8::from(crate::query::wants_partial(&req.query));
    let (response, answer) = cache.answer(
        req,
        metrics,
        shards.fleet_epoch(),
        format_args!("agg|p{partial}|{:032x}", cache::fingerprint(&req.body)),
        || shards.fleet_epoch(),
        || aggregate_compute(req, ctx, metrics),
    );
    if answer == Answer::Stored {
        for idx in 0..shards.len() {
            metrics.shard_add(idx, ShardCounter::Requests);
        }
    }
    response
}

fn aggregate_compute(req: &ParsedRequest, ctx: &ServeContext, metrics: &Metrics) -> Response {
    let spec = match AggregateSpec::parse(&req.body) {
        Ok(spec) => spec,
        Err(e) => {
            return Response::json(400, format!("{{\"error\":{}}}", json_str(&e.to_string())));
        }
    };
    let shards = ctx.shards();
    // Aggregation needs every region (a roll-up over a partial fleet would
    // be silently wrong): refuse with the degraded list, like the global
    // top-K. The central 503 hook appends Retry-After.
    let mut views: Vec<Arc<Scorer>> = Vec::with_capacity(shards.len());
    let mut degraded: Vec<&str> = Vec::new();
    for (idx, shard) in shards.shards().iter().enumerate() {
        match shard.serving() {
            Ok(scorer) => views.push(scorer),
            Err(_) => {
                metrics.shard_add(idx, ShardCounter::Unavailable);
                degraded.push(shard.key());
            }
        }
    }
    if !degraded.is_empty() {
        let keys: Vec<String> = degraded.iter().map(|k| json_str(k)).collect();
        return Response::json(
            503,
            format!(
                "{{\"error\":\"aggregate unavailable: degraded shards\",\"shards\":[{}]}}",
                keys.join(",")
            ),
        );
    }
    // Length/material/decade queries need the snapshot attribute section;
    // refuse typed (naming the bare shards) instead of aggregating zeros.
    if spec.needs_attributes() {
        let missing: Vec<String> = views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.attributes().is_none())
            .map(|(i, _)| json_str(shards.shards()[i].key()))
            .collect();
        if !missing.is_empty() {
            return Response::json(
                400,
                format!(
                    "{{\"error\":{},\"shards\":[{}]}}",
                    json_str(&aggregate::AggregateError::NoAttributes.to_string()),
                    missing.join(",")
                ),
            );
        }
    }
    for idx in 0..views.len() {
        metrics.shard_add(idx, ShardCounter::Requests);
    }
    let partials = ctx.pool.run(views.len(), |i| {
        aggregate::shard_partial(&spec, &views[i]).expect("attributes checked above")
    });
    if crate::query::wants_partial(&req.query) {
        let merged = aggregate::merge_to_partial(&spec, &partials);
        return Response::json(200, aggregate::render_partial(&merged));
    }
    let (groups, budget) = aggregate::merge_partials(&spec, &partials);
    Response::json(200, aggregate::render_aggregate(&spec, groups, budget))
}

fn riskmap_response(ctx: &ServeContext) -> Response {
    if !ctx.shards().is_single() {
        return Response::json(
            404,
            "{\"error\":\"risk maps are single-region; serve one snapshot with --data to enable them\"}",
        );
    }
    match &ctx.dataset {
        Some(dataset) => {
            let ranking = ctx.scorer().ranking();
            let svg = pipefail_eval::riskmap::risk_map(
                dataset,
                &ranking,
                TrainTestSplit::paper_protocol().test,
                800.0,
                800.0,
            );
            Response::text(200, "image/svg+xml", svg)
        }
        None => Response::json(
            404,
            "{\"error\":\"no dataset loaded; start the server with --data to enable risk maps\"}",
        ),
    }
}

/// JSON for one [`PipeRisk`]. Scores use Rust's shortest-round-trip `f64`
/// formatting, so the serialized score parses back to the exact bits that
/// were served — the HTTP answer carries the same information as the
/// in-process one.
pub fn render_pipe_risk(risk: &PipeRisk) -> String {
    format!(
        "{{\"pipe\":{},\"score\":{},\"rank\":{}}}",
        risk.pipe.0, risk.score, risk.rank
    )
}

/// JSON for a top-K answer; the exact body served by `GET /top`.
///
/// Streams into one preallocated buffer instead of allocating a `String`
/// per entry: at `k=100`, per-entry allocation cost more than the top-K
/// merge itself.
pub fn render_top_k(scorer: &Scorer, k: usize) -> String {
    use std::fmt::Write as _;
    let top = scorer.top_k(k);
    let mut out = String::with_capacity(64 + top.len() * 48);
    let _ = write!(
        out,
        "{{\"model\":{},\"region\":{},\"k\":{},\"results\":[",
        json_str(scorer.model()),
        json_str(scorer.region()),
        top.len(),
    );
    for (i, r) in top.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"pipe\":{},\"score\":{},\"rank\":{}}}", r.pipe.0, r.score, r.rank);
    }
    out.push_str("]}");
    out
}

/// JSON for the snapshot identity and posterior-summary inventory; the
/// exact body served by `GET /model`.
pub fn render_model(scorer: &Scorer) -> String {
    let sections: Vec<String> = scorer
        .sections_info()
        .iter()
        .map(|s| {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|(name, len)| format!("{{\"name\":{},\"len\":{len}}}", json_str(name)))
                .collect();
            format!(
                "{{\"name\":{},\"fields\":[{}]}}",
                json_str(&s.name),
                fields.join(",")
            )
        })
        .collect();
    format!(
        "{{\"model\":{},\"region\":{},\"seed\":{},\"pipes\":{},\"format\":\"{}\",\"loader\":\"{}\",\"sections\":[{}]}}",
        json_str(scorer.model()),
        json_str(scorer.region()),
        scorer.seed(),
        scorer.len(),
        scorer.format(),
        scorer.loader(),
        sections.join(",")
    )
}

/// JSON for the scatter-gathered global top-K; the exact body served by a
/// region-less `GET /top` on a sharded server. Entries carry the global
/// rank, the owning region, and the entry's rank *within* that region.
///
/// Streamed into one buffer with the shard keys escaped once up front:
/// per-entry allocation here was the bulk of the scatter-gather overhead
/// over monolithic serving.
pub fn render_global_top_k(shards: &ShardSet, merged: &[GlobalRisk], k: usize) -> String {
    let keys: Vec<String> = shards.shards().iter().map(|s| json_str(s.key())).collect();
    render_global_top_k_keys(&keys, merged, k)
}

/// [`render_global_top_k`] over pre-escaped shard keys instead of a local
/// [`ShardSet`] — the federation front-end renders the same body from
/// remote backends, so the two paths share one serializer (byte-identity
/// by construction).
pub(crate) fn render_global_top_k_keys(
    keys_escaped: &[String],
    merged: &[GlobalRisk],
    k: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(48 + merged.len() * 80);
    let _ = write!(
        out,
        "{{\"k\":{},\"shards\":{},\"results\":[",
        k,
        keys_escaped.len()
    );
    for (rank, g) in merged.iter().enumerate() {
        if rank > 0 {
            out.push(',');
        }
        write_global_risk(&mut out, keys_escaped, g, rank);
    }
    out.push_str("]}");
    out
}

/// Append the JSON for one merged [`GlobalRisk`] entry to `out`: the
/// pipe's risk, its *global* rank (position in the merged ranking), the
/// region key it came from, and its rank within that shard. `keys` holds
/// the pre-escaped shard keys so per-entry rendering never re-escapes.
fn write_global_risk(out: &mut String, keys: &[String], g: &GlobalRisk, global_rank: usize) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"pipe\":{},\"score\":{},\"rank\":{},\"region\":{},\"shard_rank\":{}}}",
        g.risk.pipe.0, g.risk.score, global_rank, keys[g.shard], g.risk.rank
    );
}

/// JSON for the whole shard inventory; the exact body served by
/// `GET /model` on a sharded server. Degraded shards are listed with
/// their fault (identity fields come from the last good scorer) so the
/// inventory stays complete while a region is down.
pub fn render_shard_inventory(shards: &ShardSet) -> String {
    let entries: Vec<String> = shards
        .shards()
        .iter()
        .map(|shard| {
            let scorer = shard.last_good();
            let status = match shard.fault() {
                None => "\"serving\"".to_string(),
                Some(reason) => format!("\"degraded\",\"fault\":{}", json_str(&reason)),
            };
            format!(
                "{{\"shard\":{},\"model\":{},\"region\":{},\"seed\":{},\"pipes\":{},\"format\":\"{}\",\"loader\":\"{}\",\"status\":{}}}",
                json_str(shard.key()),
                json_str(scorer.model()),
                json_str(scorer.region()),
                scorer.seed(),
                scorer.len(),
                scorer.format(),
                scorer.loader(),
                status
            )
        })
        .collect();
    format!(
        "{{\"shards\":{},\"models\":[{}]}}",
        shards.len(),
        entries.join(",")
    )
}

fn render_query_result(result: &QueryResult) -> String {
    match result {
        QueryResult::TopK(items) => {
            let rendered: Vec<String> = items.iter().map(render_pipe_risk).collect();
            format!("{{\"top\":[{}]}}", rendered.join(","))
        }
        QueryResult::Pipe(Some(risk)) => format!("{{\"pipe_risk\":{}}}", render_pipe_risk(risk)),
        QueryResult::Pipe(None) => "{\"pipe_risk\":null}".to_string(),
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::Snapshot;

    fn test_scorer() -> Scorer {
        let ranking = RiskRanking::new(
            (0..20u32)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: f64::from(20 - i) / 20.0,
                })
                .collect(),
        );
        Scorer::new(Snapshot::new("DPMHBP", "Region \"A\"", 7, &ranking)).expect("valid snapshot")
    }

    #[test]
    fn query_param_parses() {
        assert_eq!(query_param("k=5", "k"), Some("5"));
        assert_eq!(query_param("a=1&k=9&b=2", "k"), Some("9"));
        assert_eq!(query_param("", "k"), None);
        assert_eq!(query_param("kk=5", "k"), None);
    }

    #[test]
    fn render_top_k_is_valid_shape_and_escapes() {
        let s = test_scorer();
        let body = render_top_k(&s, 2);
        assert!(body.starts_with("{\"model\":\"DPMHBP\""));
        assert!(body.contains("\\\"A\\\""), "region quotes escaped: {body}");
        assert!(body.contains("\"k\":2"));
        assert!(body.contains("\"pipe\":0"));
        // Scores round-trip through the shortest f64 formatting.
        assert!(body.contains(&format!("\"score\":{}", 20.0 / 20.0)));
    }

    #[test]
    fn json_str_escapes_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn render_model_lists_sections() {
        use pipefail_core::snapshot::SummarySection;
        let ranking = RiskRanking::new(vec![RiskScore { pipe: PipeId(1), score: 1.0 }]);
        let mut snap = Snapshot::new("Cox", "R", 3, &ranking);
        snap.push_section(SummarySection::new("coefficients").with_field("beta", vec![0.1, 0.2]));
        let body = render_model(&Scorer::new(snap).expect("valid snapshot"));
        assert!(body.contains("\"model\":\"Cox\""));
        assert!(body.contains("\"pipes\":1"));
        assert!(body.contains("\"name\":\"coefficients\""));
        assert!(body.contains("\"len\":2"));
    }

    #[test]
    fn swap_scorer_changes_answers_and_keeps_old_arcs_valid() {
        let ctx = ServeContext::new(test_scorer());
        let before = ctx.scorer();
        let replacement = Scorer::new(Snapshot::new(
            "HBP",
            "Region B",
            9,
            &RiskRanking::new(vec![RiskScore { pipe: PipeId(99), score: 0.5 }]),
        ))
        .expect("valid snapshot");
        let after = ctx.swap_scorer(replacement);
        // The old handle still answers from the old table (in-flight
        // requests are undisturbed)…
        assert_eq!(before.model(), "DPMHBP");
        assert_eq!(before.len(), 20);
        // …while new requests see the new scorer.
        assert_eq!(after.model(), "HBP");
        assert_eq!(ctx.scorer().model(), "HBP");
        assert_eq!(ctx.scorer().len(), 1);
    }

    fn region_scorer(region: &str, scores: &[(u32, f64)]) -> Scorer {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .map(|&(pipe, score)| RiskScore { pipe: PipeId(pipe), score })
                .collect(),
        );
        Scorer::new(Snapshot::new("DPMHBP", region, 7, &ranking)).expect("valid snapshot")
    }

    fn sharded_ctx() -> ServeContext {
        ServeContext::sharded(
            ShardSet::from_scorers(vec![
                region_scorer("Region A", &[(1, 0.9), (2, 0.4)]),
                region_scorer("Region B", &[(1, 0.7), (9, 0.5)]),
            ])
            .expect("distinct regions"),
        )
    }

    /// Route through a local router whose cache stores nothing.
    fn route_uncached(
        req: &ParsedRequest,
        ctx: &ServeContext,
        metrics: &Metrics,
        retry_after_secs: u64,
    ) -> (Route, Response) {
        let cache = ResultCache::new(&ServerConfig { cache: false, ..ServerConfig::default() });
        route_request(req, ctx, &cache, metrics, retry_after_secs)
    }

    fn get(path_and_query: &str) -> ParsedRequest {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path_and_query.to_string(), String::new()),
        };
        ParsedRequest {
            method: "GET".into(),
            path,
            query,
            http11: true,
            connection: crate::parser::ConnectionDirective::Unspecified,
            if_none_match: None,
            body: String::new(),
        }
    }

    #[test]
    fn unknown_region_is_a_typed_404_listing_known_regions() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let (route, resp) = route_uncached(&get("/top?region=region_z&k=3"), &ctx, &metrics, 1);
        assert_eq!(route, Route::Top);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("unknown region \\\"region_z\\\""), "{}", resp.body);
        assert!(resp.body.contains("\"regions\":[\"region_a\",\"region_b\"]"), "{}", resp.body);
        // Same typed body on /pipe.
        let (_, resp) = route_uncached(&get("/pipe?region=nope&id=1"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("\"regions\":["));
    }

    #[test]
    fn region_tagged_queries_route_to_one_shard() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let (_, resp) = route_uncached(&get("/top?region=region_b&k=1"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"region\":\"Region B\""), "{}", resp.body);
        assert!(resp.body.contains("\"pipe\":1"));
        // Pipe 9 exists only in Region B.
        let (_, resp) = route_uncached(&get("/pipe?region=region_b&id=9"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 200);
        let (_, resp) = route_uncached(&get("/pipe?region=region_a&id=9"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 404);
        assert_eq!(metrics.shard_get(1, ShardCounter::Requests), 2);
        assert_eq!(metrics.shard_get(0, ShardCounter::Requests), 1);
    }

    #[test]
    fn regionless_top_scatter_gathers_and_regionless_pipe_is_rejected() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let (_, resp) = route_uncached(&get("/top?k=3"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 200);
        // Global order: 0.9 (A), 0.7 (B), 0.5 (B) — ranks are global,
        // shard_rank is the within-region rank.
        assert!(resp.body.starts_with("{\"k\":3,\"shards\":2,"), "{}", resp.body);
        assert!(resp.body.contains(
            "{\"pipe\":1,\"score\":0.9,\"rank\":0,\"region\":\"region_a\",\"shard_rank\":0}"
        ), "{}", resp.body);
        assert!(resp.body.contains(
            "{\"pipe\":9,\"score\":0.5,\"rank\":2,\"region\":\"region_b\",\"shard_rank\":1}"
        ), "{}", resp.body);
        assert_eq!(metrics.get(Counter::GlobalTopk), 1);
        // Region-less /pipe cannot route: pipe ids are per-region.
        let (_, resp) = route_uncached(&get("/pipe?id=1"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("per-region"), "{}", resp.body);
    }

    #[test]
    fn degraded_shard_answers_503_and_siblings_keep_serving() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        ctx.shards().get("region_a").unwrap().degrade("checksum mismatch".into());
        let (_, resp) = route_uncached(&get("/top?region=region_a"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("degraded: checksum mismatch"), "{}", resp.body);
        assert!(resp.body.contains("\"shard\":\"region_a\""), "{}", resp.body);
        // The sibling still answers…
        let (_, resp) = route_uncached(&get("/top?region=region_b"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 200);
        // …but the global merge refuses a partial fleet.
        let (_, resp) = route_uncached(&get("/top"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("\"shards\":[\"region_a\"]"), "{}", resp.body);
        assert_eq!(metrics.shard_get(0, ShardCounter::Unavailable), 2);
    }

    #[test]
    fn healthz_reports_readiness_and_degrade_503s_carry_retry_after() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let (route, resp) = route_uncached(&get("/healthz"), &ctx, &metrics, 5);
        assert_eq!(route, Route::Healthz);
        assert_eq!(resp.status, 200);
        assert_eq!(&*resp.body, "{\"status\":\"ok\"}");
        assert!(resp.header("Retry-After").is_none());
        ctx.shards().get("region_a").unwrap().degrade("bad bytes".into());
        // Readiness flips to 503 naming the degraded shard…
        let (_, resp) = route_uncached(&get("/healthz"), &ctx, &metrics, 5);
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("\"shards\":[\"region_a\"]"), "{}", resp.body);
        assert_eq!(resp.header("Retry-After"), Some("5"));
        // …and every other degrade path advertises the same Retry-After:
        // region-routed, global merge, and batch.
        let (_, resp) = route_uncached(&get("/top?region=region_a"), &ctx, &metrics, 5);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("Retry-After"), Some("5"));
        let (_, resp) = route_uncached(&get("/top"), &ctx, &metrics, 5);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("Retry-After"), Some("5"));
        let mut req = get("/batch");
        req.method = "POST".into();
        req.body = "region=region_a top 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 5);
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("Retry-After"), Some("5"));
        // Healthy responses never carry it.
        let (_, resp) = route_uncached(&get("/top?region=region_b"), &ctx, &metrics, 5);
        assert_eq!(resp.status, 200);
        assert!(resp.header("Retry-After").is_none());
    }

    #[test]
    fn retry_after_derives_from_poll_interval() {
        assert_eq!(retry_after_secs(0.0), 1);
        assert_eq!(retry_after_secs(0.25), 1);
        assert_eq!(retry_after_secs(2.0), 2);
        assert_eq!(retry_after_secs(2.5), 3);
    }

    #[test]
    fn sharded_model_inventories_every_shard_and_riskmap_is_refused() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let (_, resp) = route_uncached(&get("/model"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 200);
        assert!(resp.body.starts_with("{\"shards\":2,"), "{}", resp.body);
        assert!(resp.body.contains("\"shard\":\"region_a\""));
        assert!(resp.body.contains("\"status\":\"serving\""));
        ctx.shards().get("region_b").unwrap().degrade("boom".into());
        let (_, resp) = route_uncached(&get("/model"), &ctx, &metrics, 1);
        assert!(resp.body.contains("\"status\":\"degraded\",\"fault\":\"boom\""), "{}", resp.body);
        let (_, resp) = route_uncached(&get("/riskmap.svg"), &ctx, &metrics, 1);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("single-region"), "{}", resp.body);
    }

    #[test]
    fn batch_routes_region_prefixed_lines_and_global_top() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let mut req = get("/batch");
        req.method = "POST".into();
        req.body = "region=region_b pipe 9\ntop 2\nregion=region_a top 1\n".into();
        let (route, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(route, Route::Batch);
        assert_eq!(resp.status, 200, "{}", resp.body);
        // Line 1: shard-routed pipe lookup; line 2: global top with region
        // tags; line 3: shard-routed top.
        assert!(resp.body.contains("\"pipe_risk\":{\"pipe\":9"), "{}", resp.body);
        assert!(resp.body.contains("\"region\":\"region_a\""), "{}", resp.body);
        assert_eq!(metrics.shard_get(1, ShardCounter::Requests), 1);
        assert_eq!(metrics.shard_get(0, ShardCounter::Requests), 1);
        assert_eq!(metrics.get(Counter::GlobalTopk), 1);
        // Unknown region in a batch line fails the whole batch, typed.
        req.body = "region=region_z top 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("\"regions\":["));
        // Region-less pipe line on a sharded server is a typed 400.
        req.body = "pipe 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("region=<key>"), "{}", resp.body);
        // A degraded shard fails batches that reference it, including via
        // a global line.
        ctx.shards().get("region_a").unwrap().degrade("bad".into());
        req.body = "region=region_a top 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(resp.status, 503);
        req.body = "top 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(resp.status, 503);
        // …but a batch touching only healthy shards still works.
        req.body = "region=region_b top 1\n".into();
        let (_, resp) = route_uncached(&req, &ctx, &metrics, 1);
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    fn post(path: &str, body: &str) -> ParsedRequest {
        let mut req = get(path);
        req.method = "POST".into();
        req.body = body.into();
        req
    }

    fn attr_scorer(region: &str, scores: &[(u32, f64)]) -> Scorer {
        use pipefail_core::snapshot::attributes_section;
        let ranking = RiskRanking::new(
            scores
                .iter()
                .map(|&(pipe, score)| RiskScore { pipe: PipeId(pipe), score })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        let n = scores.len();
        snap.push_section(attributes_section(
            (0..n).map(|i| 100.0 + i as f64).collect(),
            (0..n).map(|i| (i % 9) as f64).collect(),
            (0..n).map(|i| (1940 + (i % 4) * 10) as f64).collect(),
        ));
        Scorer::new(snap).expect("valid snapshot")
    }

    #[test]
    fn aggregate_routes_with_405_and_typed_400() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        // Wrong method.
        let (route, resp) = route_uncached(&get("/aggregate"), &ctx, &metrics, 1);
        assert_eq!(route, Route::Other);
        assert_eq!(resp.status, 405);
        // Malformed spec: typed 400 naming the problem.
        let (route, resp) =
            route_uncached(&post("/aggregate", "{\"group_by\":[]}"), &ctx, &metrics, 1);
        assert_eq!(route, Route::Aggregate);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("group_by"), "{}", resp.body);
        // Attribute query against attribute-less snapshots: typed 400
        // naming the bare shards, not zeros.
        let spec = r#"{"group_by":["material"],"aggregates":[{"op":"count"}]}"#;
        let (_, resp) = route_uncached(&post("/aggregate", spec), &ctx, &metrics, 1);
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("pipe_attributes"), "{}", resp.body);
        assert!(resp.body.contains("\"shards\":[\"region_a\",\"region_b\"]"), "{}", resp.body);
    }

    #[test]
    fn aggregate_groups_across_shards_and_degrade_503s_with_retry_after() {
        let ctx = sharded_ctx();
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let spec = r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}]}"#;
        let (route, resp) = route_uncached(&post("/aggregate", spec), &ctx, &metrics, 2);
        assert_eq!(route, Route::Aggregate);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            &*resp.body,
            "{\"groups\":[\
             {\"key\":{\"region\":\"region_a\"},\"count\":2,\"max_risk\":0.9},\
             {\"key\":{\"region\":\"region_b\"},\"count\":2,\"max_risk\":0.7}]}"
        );
        assert_eq!(metrics.shard_get(0, ShardCounter::Requests), 1);
        assert_eq!(metrics.shard_get(1, ShardCounter::Requests), 1);
        // A degraded shard refuses the whole aggregate, with Retry-After.
        ctx.shards().get("region_b").unwrap().degrade("bad bytes".into());
        let (_, resp) = route_uncached(&post("/aggregate", spec), &ctx, &metrics, 2);
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("\"shards\":[\"region_b\"]"), "{}", resp.body);
        assert_eq!(resp.header("Retry-After"), Some("2"));
        assert_eq!(metrics.shard_get(1, ShardCounter::Unavailable), 1);
    }

    #[test]
    fn aggregate_partial_mode_round_trips_to_the_same_final_body() {
        use crate::aggregate;
        let ctx = ServeContext::sharded(
            ShardSet::from_scorers(vec![
                attr_scorer("Region A", &[(1, 0.9), (2, 0.4), (3, 0.3)]),
                attr_scorer("Region B", &[(1, 0.7), (9, 0.5)]),
            ])
            .expect("distinct regions"),
        );
        let metrics = Metrics::with_shards(vec!["region_a".into(), "region_b".into()]);
        let spec_body = r#"{"group_by":["material","decade"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#;
        let (_, full) = route_uncached(&post("/aggregate", spec_body), &ctx, &metrics, 1);
        assert_eq!(full.status, 200, "{}", full.body);
        // The ?partial=1 answer re-parses and re-merges to the same body —
        // what a federation front end does with backend replies.
        let (_, partial) = route_uncached(&post("/aggregate?partial=1", spec_body), &ctx, &metrics, 1);
        assert_eq!(partial.status, 200, "{}", partial.body);
        let spec = AggregateSpec::parse(spec_body).unwrap();
        let wire = aggregate::parse_partial(&spec, &partial.body).expect("valid partial");
        let (groups, budget) = aggregate::merge_partials(&spec, &[wire]);
        assert_eq!(&*full.body, aggregate::render_aggregate(&spec, groups, budget));
        // Budget mode over the wire too.
        let budget_body = r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"}],"budget":{"length_m":250}}"#;
        let (_, full) = route_uncached(&post("/aggregate", budget_body), &ctx, &metrics, 1);
        assert_eq!(full.status, 200, "{}", full.body);
        assert!(full.body.contains("\"budget\":{\"length_m\":250,"), "{}", full.body);
        let (_, partial) =
            route_uncached(&post("/aggregate?partial=1", budget_body), &ctx, &metrics, 1);
        let spec = AggregateSpec::parse(budget_body).unwrap();
        let wire = aggregate::parse_partial(&spec, &partial.body).expect("valid partial");
        let (groups, b) = aggregate::merge_partials(&spec, &[wire]);
        assert_eq!(&*full.body, aggregate::render_aggregate(&spec, groups, b));
    }

    #[test]
    fn config_rejects_reload_without_path() {
        let ctx = Arc::new(ServeContext::new(test_scorer()));
        let bad = ServerConfig { reload_poll_secs: 0.5, ..ServerConfig::default() };
        assert!(matches!(serve(Arc::clone(&ctx), &bad), Err(ServeError::BadConfig(_))));
        let bad_idle = ServerConfig { idle_timeout_secs: 0.0, ..ServerConfig::default() };
        assert!(matches!(serve(ctx, &bad_idle), Err(ServeError::BadConfig(_))));
    }
}
