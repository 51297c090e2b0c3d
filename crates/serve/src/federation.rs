//! Remote-shard federation: one front-end process routing `?region=K`
//! queries to backend serve processes over keep-alive TCP.
//!
//! PR 5 put a fleet of regional snapshots behind one *in-process*
//! [`crate::shards::ShardSet`]; this module moves the shard boundary
//! across the network. Each backend is an ordinary `pipefail serve`
//! process owning one region; the front-end holds no snapshots at all —
//! only addresses, health state, and a connection pool per backend.
//! Region-tagged requests relay to one backend; region-less `/top`
//! scatter-gathers every backend's top-K and merges with the same bounded
//! k-way merge ([`crate::shards::merge_top_k`]) and the same serializer as
//! the in-process sharded server, so federated bodies are byte-identical
//! to monolithic ones (pinned by proptest in the e2e battery). Declarative
//! `POST /aggregate` pipelines federate the same way: the spec is
//! forwarded verbatim to every backend's `/aggregate?partial=1`, the
//! merge-ready partial states come back over the wire (every f64 as
//! shortest-round-trip text, so re-parsing recovers exact bits), and the
//! front-end merges them fold-left in sorted-key order — the same
//! canonical computation as the crate-internal `merge_partials` in
//! process, hence byte-identical bodies again.
//!
//! ## Robustness model
//!
//! The network makes every backend a failure domain, handled in layers:
//!
//! * **Health states** — each backend is `Healthy`, `Suspect` (recent
//!   failures, still tried), or `Down` (failures reached the threshold;
//!   requests short-circuit to a typed `503` without touching the wire).
//!   Requests mark failures *passively*; a periodic `/healthz` probe heals
//!   a `Down` backend the moment it answers again.
//! * **Timeout + retry** — every attempt runs under one per-request
//!   deadline (connect, write, read all draw from the same budget).
//!   Idempotent requests retry with capped exponential backoff and full
//!   jitter. "Idempotent" means read-only here: every GET, plus
//!   `POST /aggregate` — a pure query whose body is a pipeline spec, so
//!   re-sending it is as safe as re-sending a GET. The front-end still
//!   refuses `/batch` rather than re-POST blindly.
//! * **Hedging** — after a delay derived from the backend's observed p99
//!   latency (or a fixed `PIPEFAIL_FED_HEDGE_MS`), a duplicate request is
//!   fired on a second connection — the classic tail-at-scale move for
//!   slow-but-alive backends. Both exchanges run on the request's own
//!   thread, waited on together with `poll`; the first well-formed answer
//!   wins and the loser is closed at once.
//! * **Typed degradation** — a `Down` backend 503s *only its own region*
//!   (with `Retry-After` derived from the probe interval); sibling
//!   regions keep serving, and the global top-K merges the live fleet,
//!   flagging missing regions in an `X-Pipefail-Partial` header instead
//!   of failing the whole query.
//!
//! Every failure mode maps to a [`FederationError`] — never a panic or a
//! hung connection (the fault-injection e2e battery drives drops, delays,
//! truncations, resets, and garbage through all of these paths).

use crate::aggregate::{self, AggregateSpec};
use crate::cache::{self, Answer, ResultCache};
use crate::http::{
    self, positive_f64_env, query_param, render_global_top_k_keys, serve_handler,
    unknown_region_body_keys, RequestHandler, Response, ServerConfig, ServerHandle,
};
use crate::metrics::{Counter, Metrics, Route, ShardCounter};
use crate::parser::ParsedRequest;
use crate::reload::sleep_interruptible;
use crate::scorer::PipeRisk;
use crate::shards::{merge_top_k, region_key};
use crate::ServeError;
use pipefail_network::ids::PipeId;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Environment variable: per-request deadline in seconds for one backend
/// attempt (connect + write + read; positive float).
pub const FED_TIMEOUT_ENV: &str = "PIPEFAIL_FED_TIMEOUT_SECS";

/// Environment variable: retry attempts after the first failure on an
/// idempotent GET (`0` = no retries).
pub const FED_RETRIES_ENV: &str = "PIPEFAIL_FED_RETRIES";

/// Environment variable: base backoff in milliseconds before the first
/// retry (doubles per retry, full jitter, capped).
pub const FED_BACKOFF_ENV: &str = "PIPEFAIL_FED_BACKOFF_MS";

/// Environment variable: backoff cap in milliseconds.
pub const FED_BACKOFF_CAP_ENV: &str = "PIPEFAIL_FED_BACKOFF_CAP_MS";

/// Environment variable: hedge delay in milliseconds. Unset = derive from
/// the backend's observed p99 latency; `0` = hedging off.
pub const FED_HEDGE_ENV: &str = "PIPEFAIL_FED_HEDGE_MS";

/// Environment variable: health-probe interval in seconds (positive
/// float).
pub const FED_PROBE_ENV: &str = "PIPEFAIL_FED_PROBE_SECS";

/// Environment variable: consecutive failures before a backend is marked
/// `Down` (minimum 1).
pub const FED_FAIL_THRESHOLD_ENV: &str = "PIPEFAIL_FED_FAIL_THRESHOLD";

/// Federation tuning knobs, all overridable via `PIPEFAIL_FED_*`.
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Per-attempt deadline in seconds (connect + write + read).
    pub request_timeout_secs: f64,
    /// Retries after the first failed attempt on an idempotent GET.
    pub retries: usize,
    /// Base backoff before the first retry, in milliseconds; doubles per
    /// retry with full jitter.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Hedge delay: `None` derives it from the backend's observed p99
    /// latency (no hedging until enough samples exist), `Some(0)` disables
    /// hedging, `Some(ms)` hedges after a fixed delay.
    pub hedge_ms: Option<u64>,
    /// Health-probe interval in seconds.
    pub probe_secs: f64,
    /// Consecutive failures that flip a backend `Suspect` → `Down`.
    pub fail_threshold: u32,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            request_timeout_secs: 2.0,
            retries: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 2000,
            hedge_ms: None,
            probe_secs: 1.0,
            fail_threshold: 3,
        }
    }
}

impl FedConfig {
    /// Defaults overridden from the environment (the `PIPEFAIL_FED_*`
    /// knobs), mirroring `ServerConfig::from_env`: unset or unparsable
    /// values keep the defaults.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(t) = positive_f64_env(FED_TIMEOUT_ENV) {
            cfg.request_timeout_secs = t;
        }
        if let Some(n) = uint_env(FED_RETRIES_ENV) {
            cfg.retries = n as usize;
        }
        if let Some(n) = uint_env(FED_BACKOFF_ENV) {
            cfg.backoff_base_ms = n;
        }
        if let Some(n) = uint_env(FED_BACKOFF_CAP_ENV) {
            cfg.backoff_cap_ms = n;
        }
        if let Some(n) = uint_env(FED_HEDGE_ENV) {
            cfg.hedge_ms = Some(n);
        }
        if let Some(t) = positive_f64_env(FED_PROBE_ENV) {
            cfg.probe_secs = t;
        }
        if let Some(n) = uint_env(FED_FAIL_THRESHOLD_ENV) {
            cfg.fail_threshold = (n as u32).max(1);
        }
        cfg
    }
}

fn uint_env(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok())
}

/// Every way a federated request can fail, typed — the status-code mapping
/// is [`FederationError::status`], and none of these ever surfaces as a
/// panic or a hung connection.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// TCP connect to the backend failed or timed out.
    Connect {
        /// The backend's region key.
        backend: String,
        /// The underlying socket error.
        detail: String,
    },
    /// The per-attempt deadline expired mid-exchange.
    Timeout {
        /// The backend's region key.
        backend: String,
    },
    /// A socket read/write failed mid-exchange (reset, broken pipe, …).
    Io {
        /// The backend's region key.
        backend: String,
        /// The underlying socket error.
        detail: String,
    },
    /// The backend closed the connection before `Content-Length` bytes of
    /// body arrived.
    TruncatedBody {
        /// The backend's region key.
        backend: String,
    },
    /// The backend sent bytes that don't parse as an HTTP/1.1 response
    /// (or an unexpected status for the route).
    BadResponse {
        /// The backend's region key.
        backend: String,
        /// What was wrong with the bytes.
        detail: String,
    },
    /// The backend is marked `Down`; the request short-circuited without
    /// touching the wire.
    BackendDown {
        /// The backend's region key.
        backend: String,
        /// The failure that drove it down.
        detail: String,
    },
    /// The requested region names no configured backend.
    UnknownRegion {
        /// The unknown key as requested.
        region: String,
    },
    /// Invalid federation configuration (bad backend spec, empty fleet).
    BadConfig(
        /// What was invalid.
        String,
    ),
}

impl FederationError {
    /// The HTTP status this error maps to on the front-end.
    pub fn status(&self) -> u16 {
        match self {
            Self::BackendDown { .. } => 503,
            Self::Timeout { .. } => 504,
            Self::Connect { .. } | Self::Io { .. } | Self::TruncatedBody { .. } => 502,
            Self::BadResponse { .. } => 502,
            Self::UnknownRegion { .. } => 404,
            Self::BadConfig(_) => 500,
        }
    }
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Connect { backend, detail } => {
                write!(f, "backend {backend:?}: connect failed: {detail}")
            }
            Self::Timeout { backend } => write!(f, "backend {backend:?}: request timed out"),
            Self::Io { backend, detail } => write!(f, "backend {backend:?}: io error: {detail}"),
            Self::TruncatedBody { backend } => {
                write!(f, "backend {backend:?}: response truncated mid-body")
            }
            Self::BadResponse { backend, detail } => {
                write!(f, "backend {backend:?}: bad response: {detail}")
            }
            Self::BackendDown { backend, detail } => {
                write!(f, "backend {backend:?} down: {detail}")
            }
            Self::UnknownRegion { region } => write!(f, "unknown region {region:?}"),
            Self::BadConfig(detail) => write!(f, "bad federation config: {detail}"),
        }
    }
}

impl std::error::Error for FederationError {}

/// A backend's health, driven by passive failure marking and the periodic
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Answering normally.
    Healthy,
    /// Recent failures below the threshold; still tried (with retries).
    Suspect,
    /// Consecutive failures reached the threshold; requests short-circuit
    /// until a probe succeeds.
    Down,
}

impl BackendState {
    /// Lowercase label for JSON bodies and logs.
    pub fn label(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Suspect => "suspect",
            Self::Down => "down",
        }
    }
}

#[derive(Debug)]
struct Health {
    state: BackendState,
    consecutive_failures: u32,
    last_error: String,
}

/// Ring of recent request latencies (µs) for the p99 hedge delay.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    pos: usize,
}

const LATENCY_RING: usize = 64;
/// Samples required before an auto (p99-derived) hedge delay kicks in.
const HEDGE_MIN_SAMPLES: usize = 16;

impl LatencyRing {
    fn record(&mut self, us: u64) {
        if self.samples.len() < LATENCY_RING {
            self.samples.push(us);
        } else {
            self.samples[self.pos] = us;
            self.pos = (self.pos + 1) % LATENCY_RING;
        }
    }

    /// The ~p99 of the ring (with ≤ 64 samples this is close to the max).
    fn p99_us(&self) -> Option<u64> {
        if self.samples.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() * 99 / 100).min(sorted.len() - 1);
        Some(sorted[idx])
    }
}

/// One remote backend: address, health, a small keep-alive connection
/// pool, and a latency ring feeding the hedge delay.
#[derive(Debug)]
struct Backend {
    key: String,
    addr: SocketAddr,
    health: Mutex<Health>,
    pool: Mutex<Vec<TcpStream>>,
    latencies: Mutex<LatencyRing>,
    /// Change counter feeding [`Federation::generation`] (the front-end
    /// cache's epoch analogue): bumped on every health-state *transition*
    /// and every observed backend snapshot-epoch change, so the front
    /// end's fleet-scope cache entries key on exactly the state that can
    /// change a merged body.
    changes: AtomicU64,
    /// Last `X-Pipefail-Epoch` this backend advertised (0 = never seen).
    last_epoch: AtomicU64,
}

/// Idle keep-alive connections kept per backend.
const POOL_CAP: usize = 4;

impl Backend {
    fn new(key: String, addr: SocketAddr) -> Self {
        Self {
            key,
            addr,
            health: Mutex::new(Health {
                state: BackendState::Healthy,
                consecutive_failures: 0,
                last_error: String::new(),
            }),
            pool: Mutex::new(Vec::new()),
            latencies: Mutex::new(LatencyRing::default()),
            changes: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
        }
    }

    fn state(&self) -> BackendState {
        self.health.lock().unwrap_or_else(|p| p.into_inner()).state
    }

    fn last_error(&self) -> String {
        self.health
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .last_error
            .clone()
    }

    /// Passive failure marking: every failed attempt pushes the backend
    /// toward `Down` at the threshold. Only a probe heals `Down`. A state
    /// *transition* bumps the change counter — the front-end cache must
    /// retire fleet-scope bodies merged under the old health picture.
    fn mark_failure(&self, error: &FederationError, threshold: u32) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        h.last_error = error.to_string();
        let next = if h.consecutive_failures >= threshold {
            BackendState::Down
        } else {
            BackendState::Suspect
        };
        if h.state != next {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
        h.state = next;
        // A sick backend's pooled connections are not to be trusted.
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Any well-formed response proves the wire works (whatever the
    /// status code says about the backend's shards). Healing from
    /// `Suspect`/`Down` is a state transition, so it bumps the change
    /// counter too.
    fn mark_success(&self) {
        let mut h = self.health.lock().unwrap_or_else(|p| p.into_inner());
        h.consecutive_failures = 0;
        if h.state != BackendState::Healthy {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
        h.state = BackendState::Healthy;
    }

    /// Record the snapshot epoch this backend just advertised in an
    /// `X-Pipefail-Epoch` header (responses and `/healthz` probes both
    /// carry it); a change means the backend hot-reloaded or degraded, so
    /// anything merged from it is stale.
    fn note_epoch(&self, epoch: u64) {
        if self.last_epoch.swap(epoch, Ordering::SeqCst) != epoch {
            self.changes.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn record_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        self.latencies
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .record(us);
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.pool.lock().unwrap_or_else(|p| p.into_inner()).pop()
    }

    fn check_in(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }
}

/// One complete backend answer: status code, exact-framed body, and the
/// backend's advertised snapshot epoch (when it sent one).
#[derive(Debug)]
struct BackendReply {
    status: u16,
    body: String,
    epoch: Option<u64>,
}

/// The federation: a sorted fleet of backends plus the tuning knobs.
#[derive(Debug)]
pub struct Federation {
    backends: Vec<Backend>,
    config: FedConfig,
}

impl Federation {
    /// Build a federation from `(region key, address)` pairs. Keys are
    /// sanitized with [`region_key`] and sorted; duplicate keys, an empty
    /// fleet, or an unresolvable address are [`ServeError::BadConfig`].
    pub fn new(
        targets: Vec<(String, String)>,
        config: FedConfig,
    ) -> Result<Self, ServeError> {
        if targets.is_empty() {
            return Err(ServeError::BadConfig("no federation backends".into()));
        }
        if config.request_timeout_secs <= 0.0 {
            return Err(ServeError::BadConfig(
                "fed request timeout must be positive".into(),
            ));
        }
        if config.probe_secs <= 0.0 {
            return Err(ServeError::BadConfig("fed probe interval must be positive".into()));
        }
        let mut backends = Vec::with_capacity(targets.len());
        for (raw_key, raw_addr) in targets {
            let key = region_key(&raw_key);
            if key.is_empty() {
                return Err(ServeError::BadConfig(format!(
                    "empty region key in backend spec {raw_key:?}"
                )));
            }
            let addr = raw_addr
                .to_socket_addrs()
                .map_err(|e| {
                    ServeError::BadConfig(format!("backend {key}: bad address {raw_addr:?}: {e}"))
                })?
                .next()
                .ok_or_else(|| {
                    ServeError::BadConfig(format!(
                        "backend {key}: address {raw_addr:?} resolved to nothing"
                    ))
                })?;
            backends.push(Backend::new(key, addr));
        }
        backends.sort_by(|a, b| a.key.cmp(&b.key));
        if backends.windows(2).any(|w| w[0].key == w[1].key) {
            return Err(ServeError::BadConfig("duplicate backend region keys".into()));
        }
        Ok(Self { backends, config })
    }

    /// Region keys in routing order (sorted).
    pub fn keys(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.key.clone()).collect()
    }

    /// The current health state of the backend serving `key`, if any —
    /// exposed for tests and operational tooling.
    pub fn state_of(&self, key: &str) -> Option<BackendState> {
        self.index_of(key).map(|i| self.backends[i].state())
    }

    fn index_of(&self, key: &str) -> Option<usize> {
        self.backends
            .binary_search_by(|b| b.key.as_str().cmp(key))
            .ok()
    }

    /// The fleet's state generation — the front-end cache's epoch: a
    /// monotonic sum of every backend's change counter (health
    /// transitions + observed snapshot-epoch changes). Any event that
    /// could alter a merged fleet-scope body moves it; staleness is
    /// bounded by the probe interval, since probes carry the backends'
    /// epochs even when no request traffic does.
    pub(crate) fn generation(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.changes.load(Ordering::SeqCst))
            .sum()
    }

    /// `Retry-After` seconds advertised on federated 503s: the next probe
    /// is the soonest a `Down` backend can heal.
    fn retry_after_secs(&self) -> u64 {
        (self.config.probe_secs.ceil() as u64).max(1)
    }

    // ---- wire client -----------------------------------------------------

    fn timeout(&self) -> Duration {
        Duration::from_secs_f64(self.config.request_timeout_secs)
    }

    /// One request against one backend with health gating, hedging,
    /// retries, and backoff. The only public-facing failure is a typed
    /// [`FederationError`]. Callers must only route *read-only* requests
    /// here (GETs, plus the pure-query `POST /aggregate`): retries and
    /// hedges re-send the request verbatim, which is only safe when
    /// re-execution is free of side effects.
    fn fetch(
        &self,
        backend: &Backend,
        request: &[u8],
        metrics: &Metrics,
    ) -> Result<BackendReply, FederationError> {
        if backend.state() == BackendState::Down {
            return Err(FederationError::BackendDown {
                backend: backend.key.clone(),
                detail: backend.last_error(),
            });
        }
        let mut backoff_ms = self.config.backoff_base_ms;
        let mut last = None;
        for attempt in 0..=self.config.retries {
            if attempt > 0 {
                metrics.add(Counter::FedRetries, 1);
                if backoff_ms > 0 {
                    std::thread::sleep(Duration::from_millis(jitter(backoff_ms)));
                }
                backoff_ms = (backoff_ms.saturating_mul(2)).min(self.config.backoff_cap_ms);
            }
            let started = Instant::now();
            match self.attempt(backend, request, true, self.hedge_delay(backend), metrics) {
                Ok(reply) => {
                    backend.mark_success();
                    if let Some(epoch) = reply.epoch {
                        backend.note_epoch(epoch);
                    }
                    backend.record_latency(started.elapsed());
                    return Ok(reply);
                }
                Err(e) => {
                    backend.mark_failure(&e, self.config.fail_threshold);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| FederationError::BackendDown {
            backend: backend.key.clone(),
            detail: "no attempts made".into(),
        }))
    }

    /// How long an attempt waits before hedging: the fixed `hedge_ms`, or
    /// the backend's observed p99 once enough samples exist. `None` means
    /// no hedge — `hedge_ms: Some(0)`, or a delay at or past the deadline,
    /// which could never fire.
    fn hedge_delay(&self, backend: &Backend) -> Option<Duration> {
        match self.config.hedge_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => backend
                .latencies
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .p99_us()
                .map(Duration::from_micros),
        }
        .filter(|d| *d < self.timeout())
    }

    /// One attempt under one deadline, on the calling thread: the primary
    /// exchange and, once `hedge_delay` passes, a duplicate on a second
    /// connection, both waited on together with `poll`. The first complete
    /// response wins and the other exchange is closed with it. An error
    /// settles the attempt only once every exchange has failed, so a
    /// primary that fails before the hedge fires ends the attempt
    /// unhedged; at the deadline the primary's error is returned, else the
    /// hedge's, else `Timeout`. `reuse` draws connections from the
    /// keep-alive pool and returns the winner's to it; probes pass `false`.
    fn attempt(
        &self,
        backend: &Backend,
        request: &[u8],
        reuse: bool,
        hedge_delay: Option<Duration>,
        metrics: &Metrics,
    ) -> Result<BackendReply, FederationError> {
        let started = Instant::now();
        let deadline = started + self.timeout();
        let mut hedge_at = hedge_delay.map(|d| started + d);
        let mut live = vec![Exchange::open(backend, reuse, false, deadline)?];
        let mut primary_error = None;
        let mut hedge_error = None;
        loop {
            // Step every live exchange. Each step is non-blocking, so this
            // also picks up whatever arrived while a dial held the thread.
            let mut i = 0;
            while i < live.len() {
                let e = match live[i].step(request, &backend.key) {
                    Ok(None) => {
                        i += 1;
                        continue;
                    }
                    Ok(Some((reply, keep_alive))) => {
                        let winner = live.swap_remove(i);
                        if winner.hedge {
                            metrics.add(Counter::FedHedgeWins, 1);
                        }
                        if reuse && keep_alive {
                            backend.check_in(winner.conn);
                        }
                        return Ok(reply);
                    }
                    Err(e) => e,
                };
                let failed = live.remove(i);
                // A pooled connection that dies before its first response
                // byte went stale between requests: redial once, uncounted.
                let e = if failed.pooled && failed.buf.is_empty() {
                    match dial(backend, deadline) {
                        Ok(conn) => {
                            live.insert(i, Exchange::new(conn, false, failed.hedge));
                            continue;
                        }
                        Err(e) => e,
                    }
                } else {
                    e
                };
                if failed.hedge {
                    hedge_error = Some(e);
                } else {
                    primary_error = Some(e);
                }
            }
            let now = Instant::now();
            if live.is_empty() || now >= deadline {
                return Err(primary_error
                    .or(hedge_error)
                    .unwrap_or_else(|| FederationError::Timeout { backend: backend.key.clone() }));
            }
            if hedge_at.is_some_and(|at| now >= at) {
                hedge_at = None;
                metrics.add(Counter::FedHedges, 1);
                match Exchange::open(backend, reuse, true, deadline) {
                    Ok(hedge) => live.push(hedge),
                    Err(e) => hedge_error = Some(e),
                }
                continue;
            }
            let socks: Vec<(&TcpStream, bool)> = live
                .iter()
                .map(|x| (&x.conn, x.written < request.len()))
                .collect();
            let wake = hedge_at.map_or(deadline, |at| at.min(deadline));
            crate::sys::poll_until(&socks, wake).map_err(|e| FederationError::Io {
                backend: backend.key.clone(),
                detail: e.to_string(),
            })?;
        }
    }

    // ---- probing ---------------------------------------------------------

    /// One probe round: `GET /healthz` on every backend. Any well-formed
    /// response (whatever the status) proves the wire and heals `Down`.
    /// Probes deliberately use one-shot `Connection: close` requests and
    /// never touch the connection pool: each probe proves a fresh connect
    /// works, and a probe socket kept warm every `probe_secs` would hold
    /// one of the backend's connection slots forever.
    fn probe_all(&self, metrics: &Metrics) {
        let request = request_bytes("GET", "/healthz", "", false);
        for backend in &self.backends {
            let ok = match self.attempt(backend, &request, false, None, metrics) {
                Ok(reply) => {
                    backend.mark_success();
                    if let Some(epoch) = reply.epoch {
                        backend.note_epoch(epoch);
                    }
                    true
                }
                Err(e) => {
                    backend.mark_failure(&e, self.config.fail_threshold);
                    false
                }
            };
            metrics.add(Counter::FedProbes, 1);
            metrics.add(Counter::FedProbeFailures, i64::from(!ok));
        }
    }
}

/// One request (a body gains a `Content-Length` header); `keep_alive`
/// asks the backend to hold the connection open for the pool.
fn request_bytes(method: &str, path_query: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let keep = if keep_alive { "keep-alive" } else { "close" };
    if body.is_empty() {
        format!("{method} {path_query} HTTP/1.1\r\nHost: backend\r\nConnection: {keep}\r\n\r\n")
    } else {
        format!(
            "{method} {path_query} HTTP/1.1\r\nHost: backend\r\nContent-Length: {}\r\nConnection: {keep}\r\n\r\n{body}",
            body.len()
        )
    }
    .into_bytes()
}

/// Fresh TCP dial under the remaining deadline budget.
fn dial(backend: &Backend, deadline: Instant) -> Result<TcpStream, FederationError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(FederationError::Timeout { backend: backend.key.clone() });
    }
    let conn = TcpStream::connect_timeout(&backend.addr, left).map_err(|e| {
        if e.kind() == ErrorKind::TimedOut || e.kind() == ErrorKind::WouldBlock {
            FederationError::Timeout { backend: backend.key.clone() }
        } else {
            FederationError::Connect {
                backend: backend.key.clone(),
                detail: e.to_string(),
            }
        }
    })?;
    conn.set_nodelay(true).ok();
    // Backend sockets are non-blocking for their whole (pooled) lifetime:
    // `Federation::attempt` waits on them with `poll` against the request
    // deadline, so a stalled backend can never hold the thread or a pooled
    // connection past it — per-read socket timeouts reset on every byte
    // dribbled, a deadline does not.
    conn.set_nonblocking(true)
        .map_err(|e| FederationError::Connect {
            backend: backend.key.clone(),
            detail: e.to_string(),
        })?;
    Ok(conn)
}

/// One request/response exchange on one non-blocking backend socket,
/// driven by [`Federation::attempt`].
struct Exchange {
    conn: TcpStream,
    /// How many request bytes the socket has taken.
    written: usize,
    /// The response bytes read so far.
    buf: Vec<u8>,
    /// The connection came from the keep-alive pool.
    pooled: bool,
    /// This exchange is the hedged duplicate.
    hedge: bool,
}

impl Exchange {
    fn new(conn: TcpStream, pooled: bool, hedge: bool) -> Self {
        Self { conn, written: 0, buf: Vec::new(), pooled, hedge }
    }

    /// An idle pooled connection when `reuse` allows one, else a fresh
    /// dial (which blocks, at most until the deadline).
    fn open(
        backend: &Backend,
        reuse: bool,
        hedge: bool,
        deadline: Instant,
    ) -> Result<Self, FederationError> {
        match reuse.then(|| backend.checkout()).flatten() {
            Some(conn) => Ok(Self::new(conn, true, hedge)),
            None => Ok(Self::new(dial(backend, deadline)?, false, hedge)),
        }
    }

    /// Write what the socket takes, read what it holds, and try to frame
    /// the response: `Ok(None)` until it is complete, then the reply and
    /// whether the connection can carry another request. Reading stops at
    /// the first complete response, so an end of stream is always an
    /// error, typed by how far the response got.
    fn step(
        &mut self,
        request: &[u8],
        key: &str,
    ) -> Result<Option<(BackendReply, bool)>, FederationError> {
        let io = |detail: String| FederationError::Io { backend: key.to_string(), detail };
        while self.written < request.len() {
            match (&self.conn).write(&request[self.written..]) {
                Ok(0) => return Err(io("socket closed mid-write".into())),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e.to_string())),
            }
        }
        let mut chunk = [0u8; 8192];
        loop {
            match (&self.conn).read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => {
                    return Err(io("connection closed before response".into()))
                }
                Ok(0) if head_end(&self.buf).is_none() => {
                    return Err(FederationError::BadResponse {
                        backend: key.to_string(),
                        detail: "connection closed mid-head".into(),
                    })
                }
                Ok(0) => return Err(FederationError::TruncatedBody { backend: key.to_string() }),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    let framed = parse_reply(&self.buf).map_err(|detail| {
                        FederationError::BadResponse { backend: key.to_string(), detail }
                    })?;
                    if framed.is_some() {
                        return Ok(framed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io(e.to_string())),
            }
        }
    }
}

/// Largest response head accepted from a backend.
const MAX_HEAD: usize = 16 * 1024;

fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Frame one backend response from the bytes read so far: `Ok(None)`
/// while it is incomplete, else the reply and whether the backend keeps
/// the connection open. The error says what is wrong with the bytes.
fn parse_reply(buf: &[u8]) -> Result<Option<(BackendReply, bool)>, String> {
    let Some(head_end) = head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            Err("response head too large".into())
        } else {
            Ok(None)
        };
    };
    // Parse the status line and the headers that matter: framing
    // (Content-Length), reuse (Connection) and the snapshot epoch.
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    if !status_line.starts_with("HTTP/1.1 ") && !status_line.starts_with("HTTP/1.0 ") {
        return Err(format!("not an HTTP status line: {status_line:?}"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status code in {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut close = status_line.starts_with("HTTP/1.0 ");
    let mut epoch: Option<u64> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("bad header line {line:?}"));
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
            if content_length.is_none() {
                return Err(format!("bad Content-Length {value:?}"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-pipefail-epoch") {
            // Advisory: an unparsable value reads as absent, never an error.
            epoch = value.parse().ok();
        }
    }
    let content_length = content_length.ok_or("missing Content-Length")?;
    let total = (head_end + 4).saturating_add(content_length);
    if buf.len() < total {
        return Ok(None);
    }
    if buf.len() > total {
        // The backend wrote past its declared length: framing is broken,
        // the connection cannot be reused.
        return Err("response overran Content-Length".into());
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..]).into_owned();
    Ok(Some((BackendReply { status, body, epoch }, !close)))
}

/// Full jitter over `[ms/2, ms]` — desynchronizes retry storms across
/// workers without a global RNG (splitmix64 over a time-derived seed).
fn jitter(ms: u64) -> u64 {
    if ms <= 1 {
        return ms;
    }
    let seed = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ (d.as_secs() << 32))
        .unwrap_or(0x9e3779b97f4a7c15);
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    let half = ms / 2;
    half + z % (ms - half + 1)
}

/// Parse the `"results":[…]` entries of a backend `/top` body back into
/// [`PipeRisk`]s. Scores were serialized with Rust's shortest-round-trip
/// `f64` formatting, so `parse` recovers the exact bits — re-rendering
/// after the merge is byte-identical to the in-process path.
fn parse_top_entries(body: &str) -> Option<Vec<PipeRisk>> {
    let start = body.find("\"results\":[")? + "\"results\":[".len();
    let mut rest = &body[start..];
    let mut entries = Vec::new();
    loop {
        rest = rest.trim_start_matches(',');
        if rest.starts_with(']') {
            return Some(entries);
        }
        let end = rest.find('}')?;
        let obj = &rest[..end];
        let pipe: u32 = field(obj, "\"pipe\":")?.parse().ok()?;
        let score: f64 = field(obj, "\"score\":")?.parse().ok()?;
        let rank: usize = field(obj, "\"rank\":")?.parse().ok()?;
        entries.push(PipeRisk { pipe: PipeId(pipe), score, rank });
        rest = &rest[end + 1..];
    }
}

fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(key)? + key.len();
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

// ---- the front-end router ----------------------------------------------

/// The federation front-end's request handler: relays region-tagged
/// queries, scatter-gathers the global top-K, and answers inventory and
/// metrics locally. Only the merged fleet-scope answers go through the
/// result cache, keyed on [`Federation::generation`]; region relays pass
/// through, so the backends' own caches serve them with exact epochs.
struct FederationRouter {
    fed: Arc<Federation>,
    cache: ResultCache,
}

impl FederationRouter {
    fn error_response(&self, e: &FederationError) -> Response {
        let status = e.status();
        let body = match e {
            FederationError::UnknownRegion { region } => {
                let keys = self.fed.keys();
                unknown_region_body_keys(keys.iter().map(String::as_str), region)
            }
            FederationError::BackendDown { backend, .. } => format!(
                "{{\"error\":{},\"region\":{}}}",
                http::json_str(&e.to_string()),
                http::json_str(backend)
            ),
            _ => format!("{{\"error\":{}}}", http::json_str(&e.to_string())),
        };
        let response = Response::json(status, body);
        if status == 503 {
            response.with_header("Retry-After", self.fed.retry_after_secs().to_string())
        } else {
            response
        }
    }

    /// Relay one region-tagged GET to its backend, passing the backend's
    /// status and body through untouched (byte-identity with a direct
    /// request); a relayed 503 gains the federation's `Retry-After`.
    fn relay(&self, req: &ParsedRequest, metrics: &Metrics) -> Response {
        let Some(raw_key) = query_param(&req.query, "region") else {
            return self.regionless_refusal(req);
        };
        let key = region_key(raw_key);
        let Some(idx) = self.fed.index_of(&key) else {
            return self.error_response(&FederationError::UnknownRegion {
                region: raw_key.to_string(),
            });
        };
        let request = request_bytes("GET", &format!("{}?{}", req.path, req.query), "", true);
        match self.fed.fetch(&self.fed.backends[idx], &request, metrics) {
            Ok(reply) => {
                metrics.shard_add(idx, ShardCounter::Requests);
                let response = Response::json(reply.status, reply.body);
                if reply.status == 503 {
                    response.with_header("Retry-After", self.fed.retry_after_secs().to_string())
                } else {
                    response
                }
            }
            Err(e) => {
                metrics.shard_add(idx, ShardCounter::Unavailable);
                self.error_response(&e)
            }
        }
    }

    /// A region-less request that cannot be federated (`/pipe` without a
    /// region): the same typed 400 the in-process sharded server answers.
    fn regionless_refusal(&self, _req: &ParsedRequest) -> Response {
        let keys = self.fed.keys();
        let regions: Vec<String> = keys.iter().map(|k| http::json_str(k)).collect();
        Response::json(
            400,
            format!(
                "{{\"error\":\"pipe ids are per-region; pass ?region=<key>\",\"regions\":[{}]}}",
                regions.join(",")
            ),
        )
    }

    /// Region-less `/top`: scatter to every backend, merge with the
    /// bounded k-way merge, render with the shared serializer. Backends
    /// that are down or fail contribute nothing; the response carries
    /// `X-Pipefail-Partial` naming them and the body covers the live
    /// fleet only (byte-identical to an in-process sharded server over
    /// exactly those regions).
    fn global_top(&self, req: &ParsedRequest, metrics: &Metrics) -> Response {
        let k = match crate::query::top_k(&req.query) {
            Ok(k) => k,
            Err(e) => return e.response(),
        };
        let fed = &self.fed;
        let (response, answer) = self.cache.answer(
            req,
            metrics,
            fed.generation(),
            format_args!("gtop|k{k}"),
            || fed.generation(),
            || self.scatter_top(k, metrics),
        );
        if answer == Answer::Stored {
            self.count_fanout(metrics);
            metrics.add(Counter::GlobalTopk, 1);
        }
        response
    }

    /// A stored fleet-scope answer stands for a fan-out in which every
    /// backend answered: count each, as the computed answer did.
    fn count_fanout(&self, metrics: &Metrics) {
        for idx in 0..self.fed.backends.len() {
            metrics.shard_add(idx, ShardCounter::Requests);
        }
    }

    fn scatter_top(&self, k: usize, metrics: &Metrics) -> Response {
        let request = request_bytes("GET", &format!("/top?k={k}"), "", true);
        self.scatter("global top-k", &request, metrics, parse_top_entries, |live| {
            metrics.add(Counter::GlobalTopk, 1);
            let keys_escaped: Vec<String> = live
                .iter()
                .map(|(idx, _)| http::json_str(&self.fed.backends[*idx].key))
                .collect();
            let tables: Vec<crate::scorer::RiskSlice<'_>> =
                live.iter().map(|(_, t)| t.as_slice().into()).collect();
            render_global_top_k_keys(&keys_escaped, &merge_top_k(&tables, k), k)
        })
    }

    /// Send one read-only request to every backend — one scoped thread
    /// each, all joined before the answer — and `merge` the live replies,
    /// decoded by `decode`, in fleet (sorted-key) order with their fleet
    /// indices. A backend that fails, answers anything but `200`, or sends
    /// a body `decode` rejects is missing: the body covers the live fleet
    /// and `X-Pipefail-Partial` names the missing regions. A fully dark
    /// fleet is a `503` with `Retry-After`, saying `what` is unavailable.
    fn scatter<T: Send>(
        &self,
        what: &str,
        request: &[u8],
        metrics: &Metrics,
        decode: impl Fn(&str) -> Option<T> + Sync,
        merge: impl FnOnce(Vec<(usize, T)>) -> String,
    ) -> Response {
        let fed = &self.fed;
        let decode = &decode;
        let replies: Vec<Option<T>> = std::thread::scope(|s| {
            let legs: Vec<_> = fed
                .backends
                .iter()
                .map(|backend| {
                    s.spawn(move || {
                        let reply = fed.fetch(backend, request, metrics).ok()?;
                        if reply.status == 200 {
                            decode(&reply.body)
                        } else {
                            None
                        }
                    })
                })
                .collect();
            // A leg that panicked counts as a missing backend.
            legs.into_iter()
                .map(|leg| leg.join().ok().flatten())
                .collect()
        });
        let mut live = Vec::new();
        let mut missing: Vec<&str> = Vec::new();
        for (idx, reply) in replies.into_iter().enumerate() {
            match reply {
                Some(value) => {
                    live.push((idx, value));
                    metrics.shard_add(idx, ShardCounter::Requests);
                }
                None => {
                    missing.push(&fed.backends[idx].key);
                    metrics.shard_add(idx, ShardCounter::Unavailable);
                }
            }
        }
        if live.is_empty() {
            let keys: Vec<String> = missing.iter().map(|k| http::json_str(k)).collect();
            return Response::json(
                503,
                format!(
                    "{{\"error\":\"{what} unavailable: all backends degraded\",\"shards\":[{}]}}",
                    keys.join(",")
                ),
            )
            .with_header("Retry-After", fed.retry_after_secs().to_string());
        }
        let response = Response::json(200, merge(live));
        if missing.is_empty() {
            response
        } else {
            response.with_header("X-Pipefail-Partial", missing.join(","))
        }
    }

    /// Federated `POST /aggregate`: validate the pipeline spec locally
    /// (a malformed spec 400s without touching the wire), then forward the
    /// client body *verbatim* to every backend's `/aggregate?partial=1`
    /// and merge the returned partial states fold-left in sorted-key
    /// order — the exact computation [`aggregate::merge_partials`] runs
    /// over in-process shard partials, so a healthy fleet answers
    /// byte-identically to a monolithic or sharded server over the same
    /// snapshots. Degraded backends (down, failing, or answering anything
    /// but a parseable 200 partial — including a backend 400 for snapshots
    /// without attributes, an asymmetry with the in-process server where
    /// missing attributes are a client-visible 400) contribute nothing:
    /// the body covers the live fleet and `X-Pipefail-Partial` names the
    /// missing regions. A fully dark fleet is a 503 with `Retry-After`.
    fn aggregate(&self, req: &ParsedRequest, metrics: &Metrics) -> Response {
        let fed = &self.fed;
        let partial = u8::from(crate::query::wants_partial(&req.query));
        let (response, answer) = self.cache.answer(
            req,
            metrics,
            fed.generation(),
            format_args!("agg|p{partial}|{:032x}", cache::fingerprint(&req.body)),
            || fed.generation(),
            || self.scatter_aggregate(req, metrics),
        );
        if answer == Answer::Stored {
            self.count_fanout(metrics);
        }
        response
    }

    fn scatter_aggregate(&self, req: &ParsedRequest, metrics: &Metrics) -> Response {
        let spec = match AggregateSpec::parse(&req.body) {
            Ok(spec) => spec,
            Err(e) => {
                return Response::json(
                    400,
                    format!("{{\"error\":{}}}", http::json_str(&e.to_string())),
                );
            }
        };
        let request = request_bytes("POST", "/aggregate?partial=1", &req.body, true);
        let decode = |body: &str| aggregate::parse_partial(&spec, body).ok();
        self.scatter("aggregate", &request, metrics, decode, |live| {
            // Backends are pre-sorted by key, so the live partials arrive
            // in sorted-key order — the canonical merge order.
            let partials: Vec<aggregate::AggregatePartial> =
                live.into_iter().map(|(_, partial)| partial).collect();
            let (groups, budget) = aggregate::merge_partials(&spec, &partials);
            aggregate::render_aggregate(&spec, groups, budget)
        })
    }

    /// The front-end's own readiness: 200 while no backend is `Down`, a
    /// 503 naming the down backends otherwise; the body always lists every
    /// backend's state.
    fn healthz(&self) -> Response {
        let mut any_down = false;
        let entries: Vec<String> = self
            .fed
            .backends
            .iter()
            .map(|b| {
                let state = b.state();
                any_down |= state == BackendState::Down;
                format!(
                    "{{\"region\":{},\"state\":{}}}",
                    http::json_str(&b.key),
                    http::json_str(state.label())
                )
            })
            .collect();
        let status_word = if any_down { "degraded" } else { "ok" };
        let body = format!(
            "{{\"status\":\"{status_word}\",\"backends\":[{}]}}",
            entries.join(",")
        );
        if any_down {
            Response::json(503, body)
                .with_header("Retry-After", self.fed.retry_after_secs().to_string())
        } else {
            Response::json(200, body)
        }
    }

    /// The federated `/model`: the backend inventory with health states —
    /// answered locally (no fan-out) so it works while backends are down.
    fn model(&self) -> Response {
        let entries: Vec<String> = self
            .fed
            .backends
            .iter()
            .map(|b| {
                format!(
                    "{{\"region\":{},\"addr\":{},\"state\":{}}}",
                    http::json_str(&b.key),
                    http::json_str(&b.addr.to_string()),
                    http::json_str(b.state().label())
                )
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"federation\":{},\"backends\":[{}]}}",
                self.fed.backends.len(),
                entries.join(",")
            ),
        )
    }
}

impl RequestHandler for FederationRouter {
    fn handle(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response) {
        let (route, mut response) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => (Route::Health, Response::json(200, "{\"status\":\"ok\"}")),
            ("GET", "/healthz") => (Route::Healthz, self.healthz()),
            ("GET", "/top") => {
                let response = if query_param(&req.query, "region").is_some() {
                    self.relay(req, metrics)
                } else {
                    self.global_top(req, metrics)
                };
                (Route::Top, response)
            }
            ("GET", "/pipe") => (Route::Pipe, self.relay(req, metrics)),
            ("GET", "/model") => (Route::Model, self.model()),
            ("GET", "/metrics") => (
                Route::Metrics,
                Response::text(200, "text/plain; version=0.0.4", metrics.render()),
            ),
            ("POST", "/batch") => (
                Route::Batch,
                Response::json(
                    501,
                    "{\"error\":\"batch is not federated; send it to a backend\"}",
                ),
            ),
            ("POST", "/aggregate") => (Route::Aggregate, self.aggregate(req, metrics)),
            ("GET", "/riskmap.svg") => (
                Route::Riskmap,
                Response::json(404, "{\"error\":\"risk maps are not federated\"}"),
            ),
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
        response.epoch = Some(self.fed.generation());
        (route, response)
    }
}

/// Start the federation front-end: the shared connection layer of
/// [`crate::http::serve`] around the federation request router, plus the
/// health prober as a background thread. Returns immediately with the
/// handle.
pub fn serve_federated(
    fed: Arc<Federation>,
    config: &ServerConfig,
) -> Result<ServerHandle, ServeError> {
    let metrics = Arc::new(Metrics::with_backends(fed.keys()));
    let handler = Arc::new(FederationRouter {
        fed: Arc::clone(&fed),
        cache: ResultCache::new(config),
    });
    let prober_metrics = Arc::clone(&metrics);
    let probe_interval = Duration::from_secs_f64(fed.config.probe_secs);
    serve_handler(handler, metrics, config, move |shutdown| {
        let shutdown = Arc::clone(shutdown);
        vec![std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            while !shutdown.load(Ordering::SeqCst) {
                fed.probe_all(&prober_metrics);
                sleep_interruptible(probe_interval, &shutdown);
            }
        })]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_top_entries_round_trips_the_rendered_body() {
        use crate::scorer::Scorer;
        use pipefail_core::model::{RiskRanking, RiskScore};
        use pipefail_core::snapshot::Snapshot;
        let ranking = RiskRanking::new(
            (0..50u32)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: f64::from(50 - i) / 7.0,
                })
                .collect(),
        );
        let scorer = Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking)).expect("valid snapshot");
        let body = http::render_top_k(&scorer, 20);
        let parsed = parse_top_entries(&body).expect("parseable");
        assert_eq!(parsed.len(), 20);
        // Exact bit recovery: shortest-round-trip f64 text → the same f64.
        for (got, want) in parsed.iter().zip(scorer.top_k(20)) {
            assert_eq!(got.pipe, want.pipe);
            assert_eq!(got.score.to_bits(), want.score.to_bits());
            assert_eq!(got.rank, want.rank);
        }
        // Empty results and garbage are handled, never panic.
        assert_eq!(parse_top_entries("{\"results\":[]}"), Some(vec![]));
        assert_eq!(parse_top_entries("{\"nope\":1}"), None);
        assert_eq!(parse_top_entries("{\"results\":[{\"pipe\":}"), None);
    }

    #[test]
    fn parse_reply_frames_rendered_responses_from_any_prefix() {
        for status in [200u16, 404, 503] {
            for body in [String::new(), "{\"ok\":1}".into(), "r".repeat(MAX_HEAD + 1)] {
                for epoch in [None, Some(42)] {
                    for close in [false, true] {
                        let mut response = Response::json(status, body.clone());
                        response.epoch = epoch;
                        response.close = close;
                        let bytes = response.to_bytes();
                        let case = format!(
                            "{status}, {} body bytes, {epoch:?}, close {close}",
                            body.len()
                        );
                        for cut in 0..bytes.len() {
                            assert!(
                                matches!(parse_reply(&bytes[..cut]), Ok(None)),
                                "{case}: framed at {cut} of {} bytes",
                                bytes.len()
                            );
                        }
                        let (reply, keep_alive) =
                            parse_reply(&bytes).expect(&case).expect(&case);
                        assert_eq!(reply.status, status, "{case}");
                        assert_eq!(reply.body, body, "{case}");
                        assert_eq!(reply.epoch, epoch, "{case}");
                        assert_eq!(keep_alive, !close, "{case}");
                        let mut over = bytes;
                        over.push(b'x');
                        assert_eq!(
                            parse_reply(&over).map(|_| ()),
                            Err("response overran Content-Length".into()),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parse_reply_types_every_malformed_head() {
        let error = |raw: &[u8]| match parse_reply(raw) {
            Err(detail) => detail,
            Ok(framed) => panic!("{:?} framed as {framed:?}", String::from_utf8_lossy(raw)),
        };
        assert!(error(b"SSH-2.0-OpenSSH\r\n\r\n").starts_with("not an HTTP status line"));
        assert!(error(b"HTTP/1.1 2xx OK\r\nContent-Length: 0\r\n\r\n")
            .starts_with("bad status code"));
        assert!(error(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").starts_with("bad header line"));
        assert!(error(b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n")
            .starts_with("bad Content-Length"));
        assert_eq!(
            error(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"),
            "missing Content-Length"
        );
        // A head may grow to the cap while its terminator is still to come;
        // one byte past the cap without it is an error.
        let mut head = b"HTTP/1.1 200 OK\r\nX-Filler: ".to_vec();
        head.resize(MAX_HEAD, b'a');
        assert!(matches!(parse_reply(&head), Ok(None)));
        head.push(b'a');
        assert_eq!(error(&head), "response head too large");
    }

    #[test]
    fn jitter_stays_in_range() {
        for ms in [1u64, 2, 10, 50, 2000] {
            for _ in 0..100 {
                let j = jitter(ms);
                assert!(j >= ms / 2 && j <= ms, "jitter({ms}) = {j}");
            }
        }
        assert_eq!(jitter(0), 0);
    }

    #[test]
    fn latency_ring_needs_samples_before_hedging() {
        let mut ring = LatencyRing::default();
        assert_eq!(ring.p99_us(), None);
        for i in 0..HEDGE_MIN_SAMPLES as u64 {
            ring.record(100 + i);
        }
        // With 16 samples, p99 index = 15 → the max.
        assert_eq!(ring.p99_us(), Some(100 + HEDGE_MIN_SAMPLES as u64 - 1));
        // The ring wraps: old samples are overwritten.
        for _ in 0..LATENCY_RING * 2 {
            ring.record(7);
        }
        assert_eq!(ring.p99_us(), Some(7));
    }

    #[test]
    fn error_status_mapping_is_typed() {
        let b = "region_a".to_string();
        assert_eq!(
            FederationError::BackendDown { backend: b.clone(), detail: String::new() }.status(),
            503
        );
        assert_eq!(FederationError::Timeout { backend: b.clone() }.status(), 504);
        assert_eq!(
            FederationError::Connect { backend: b.clone(), detail: String::new() }.status(),
            502
        );
        assert_eq!(FederationError::TruncatedBody { backend: b.clone() }.status(), 502);
        assert_eq!(
            FederationError::BadResponse { backend: b, detail: String::new() }.status(),
            502
        );
        assert_eq!(
            FederationError::UnknownRegion { region: "x".into() }.status(),
            404
        );
    }

    #[test]
    fn health_transitions_suspect_then_down_then_probe_heals() {
        let backend = Backend::new("region_a".into(), "127.0.0.1:1".parse().unwrap());
        assert_eq!(backend.state(), BackendState::Healthy);
        let err = FederationError::Timeout { backend: "region_a".into() };
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Suspect);
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Suspect);
        backend.mark_failure(&err, 3);
        assert_eq!(backend.state(), BackendState::Down);
        assert!(backend.last_error().contains("timed out"), "{}", backend.last_error());
        // Any successful exchange (a probe answering) heals fully.
        backend.mark_success();
        assert_eq!(backend.state(), BackendState::Healthy);
    }

    #[test]
    fn federation_new_validates_the_fleet() {
        // Empty fleet.
        assert!(Federation::new(vec![], FedConfig::default()).is_err());
        // Duplicate keys after sanitizing ("Region A" and "region_a" collide).
        let dup = Federation::new(
            vec![
                ("Region A".into(), "127.0.0.1:9001".into()),
                ("region_a".into(), "127.0.0.1:9002".into()),
            ],
            FedConfig::default(),
        );
        assert!(dup.is_err());
        // Unresolvable address.
        assert!(Federation::new(
            vec![("a".into(), "not-an-address".into())],
            FedConfig::default()
        )
        .is_err());
        // Valid fleet sorts by key.
        let fed = Federation::new(
            vec![
                ("Region B".into(), "127.0.0.1:9002".into()),
                ("Region A".into(), "127.0.0.1:9001".into()),
            ],
            FedConfig::default(),
        )
        .expect("valid");
        assert_eq!(fed.keys(), vec!["region_a".to_string(), "region_b".to_string()]);
        assert_eq!(fed.state_of("region_a"), Some(BackendState::Healthy));
        assert_eq!(fed.state_of("region_z"), None);
    }

    #[test]
    fn fed_config_reads_env_knobs() {
        // Serialized via a throwaway thread to avoid polluting the
        // process environment for sibling tests.
        std::thread::spawn(|| {
            std::env::set_var(FED_TIMEOUT_ENV, "0.75");
            std::env::set_var(FED_RETRIES_ENV, "5");
            std::env::set_var(FED_BACKOFF_ENV, "10");
            std::env::set_var(FED_HEDGE_ENV, "0");
            std::env::set_var(FED_PROBE_ENV, "0.2");
            std::env::set_var(FED_FAIL_THRESHOLD_ENV, "0");
            let cfg = FedConfig::from_env();
            assert_eq!(cfg.request_timeout_secs, 0.75);
            assert_eq!(cfg.retries, 5);
            assert_eq!(cfg.backoff_base_ms, 10);
            assert_eq!(cfg.hedge_ms, Some(0));
            assert_eq!(cfg.probe_secs, 0.2);
            // Threshold 0 would mean "down before the first request";
            // clamped to 1.
            assert_eq!(cfg.fail_threshold, 1);
        })
        .join()
        .expect("env test thread");
    }
}
