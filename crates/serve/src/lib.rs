// Library code must surface failures as typed errors, never unwrap its way
// into a panic; tests are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
// Every public item carries documentation; rustdoc builds warning-clean
// (CI runs `cargo doc` with `-D warnings`).
#![warn(missing_docs)]

//! # pipefail-serve
//!
//! The risk-scoring service: the subsystem that turns a *fitted* model into
//! a *servable* one. Fitting (minutes of MCMC) and scoring (microseconds of
//! lookup) have completely different operational profiles, so they are
//! decoupled through the model-snapshot format of
//! [`pipefail_core::snapshot`]:
//!
//! ```text
//! pipefail snapshot  ──fit──▶  model.pfsnap  ──load──▶  pipefail serve
//!    (batch, slow)             (one file)              (online, fast)
//! ```
//!
//! * [`scorer`] — loads a snapshot and answers "top-K riskiest pipes" and
//!   per-pipe risk queries straight from its validated v2 columns (a
//!   memory-mapped file, or an owned copy for v1 files and in-memory
//!   snapshots); batches of queries fan out over a
//!   [`pipefail_par::TaskPool`].
//! * [`parser`] — the incremental HTTP/1.1 request parser: typed errors,
//!   exact consumed-byte accounting for pipelining, proptest-hardened
//!   against fragmented and adversarial byte streams.
//! * [`http`] — a minimal hand-rolled HTTP/1.1 server (the workspace's
//!   dependency policy rules out async frameworks, as it does serde):
//!   keep-alive connections with pipelined-request parsing, per-request
//!   and idle timeouts reusing the `PIPEFAIL_*` budget-knob idiom of the
//!   experiment runner, graceful shutdown, and an optional risk-map SVG
//!   endpoint reusing [`pipefail_eval::riskmap`]. One connection core
//!   (`event_loop`): identical serving threads share one hand-rolled epoll
//!   instance over thousands of sockets, each request is answered on the
//!   thread that read it, and at the connection cap admission control
//!   sheds idle connections or answers `429` + `Retry-After`.
//!   Serving is Linux-only; elsewhere [`serve`] returns
//!   [`ServeError::BadConfig`].
//! * [`shards`] — shard-by-region serving: a [`ShardSet`] loads one
//!   snapshot per region **in parallel on the `TaskPool`** and serves them
//!   behind one endpoint. Region-tagged queries route to one shard;
//!   region-less `/top` scatter-gathers a global top-K with a bounded
//!   k-way merge (O(shards·k), never re-sorting the union).
//! * [`reload`] — snapshot hot-reload: an mtime-polling watcher with a
//!   per-shard `(mtime, len, inode)` stamp that atomically swaps each
//!   shard's scorer behind an `Arc` so a re-fitted model goes live with
//!   zero downtime. A corrupt replacement is rejected by the strict
//!   loader; in single-snapshot mode the old model keeps serving, in
//!   sharded mode only that shard degrades to a typed 503 until a valid
//!   snapshot heals it.
//! * [`aggregate`] — the declarative `POST /aggregate` analytics engine:
//!   a typed JSON pipeline spec (group by `region`/`material`/`decade`;
//!   `count`/`sum`/`avg`/`min`/`max` over risk and pipe length; optional
//!   `top_groups` limit and a greedy length-`budget` selection) executed
//!   per-shard with partial states merged deterministically, so every
//!   topology — monolithic, sharded, federated — answers byte-identically.
//!   The query reference and quickstart live in `docs/AGGREGATE.md`.
//! * `cache` (crate-private) — the epoch-keyed result cache. The routers
//!   consult it where they have already resolved a request's shard, fleet,
//!   or federation scope: they read that scope's epoch, count the request,
//!   and let the cache answer from rendered bytes, coalesce identical
//!   misses, or compute through a closure. It knows no topology, and
//!   serves `ETag`/`304` revalidation whether or not `PIPEFAIL_CACHE`
//!   stores anything. `HEAD` is answered by the connection core as the GET
//!   without its body.
//! * [`metrics`] — lock-free per-route request counters and latency
//!   histograms, plus two tables that declare every other series once:
//!   [`Counter`] for the process-wide counters and gauges (connections,
//!   keep-alive reuse, reloads, cache, federation) and [`ShardCounter`]
//!   for the per-shard families. Exposed at `/metrics` in Prometheus text
//!   exposition format; the metrics reference in `docs/SERVING.md` lists
//!   every series.
//! * [`federation`] — remote-shard federation: a front-end process that
//!   routes `?region=K` queries to backend serve processes over keep-alive
//!   TCP and scatter-gathers the global top-K with the same k-way merge
//!   (byte-identical bodies). Robustness layer: typed
//!   `Healthy`/`Suspect`/`Down` backend health (periodic `/healthz`
//!   probes plus passive failure marking), per-request deadlines with capped
//!   jittered backoff retries on idempotent GETs, p99-derived hedged
//!   requests, and per-region degradation — a `Down` backend 503s only
//!   its own region (with `Retry-After`) while the global merge keeps
//!   serving behind an `X-Pipefail-Partial` header.
//!
//! The fit → snapshot → serve → query walkthrough lives in
//! `docs/SERVING.md`; the byte-level snapshot spec in
//! `docs/SNAPSHOT_FORMAT.md`.

// The scorer reinterprets the snapshot's little-endian columns in place.
#[cfg(target_endian = "big")]
compile_error!("pipefail-serve supports little-endian targets only");

pub mod aggregate;
pub(crate) mod cache;
#[cfg(target_os = "linux")]
pub(crate) mod event_loop;
pub mod federation;
pub mod http;
pub mod metrics;
pub mod parser;
pub(crate) mod query;
pub mod reload;
pub mod scorer;
pub mod shards;
pub(crate) mod sys;

pub use aggregate::{AggField, AggOp, Aggregate, AggregateError, AggregateSpec, GroupKey};
pub use federation::{serve_federated, BackendState, FedConfig, Federation, FederationError};
pub use http::{serve, ServeContext, ServerConfig, ServerHandle};
pub use metrics::{Counter, Metrics, ShardCounter};
pub use parser::{ParseError, ParseOutcome, ParsedRequest};
pub use scorer::{
    AttributesView, PipeRisk, Query, QueryResult, RiskSlice, RiskSliceIter, SectionInfo, Scorer,
};
pub use shards::{merge_top_k, region_key, GlobalRisk, ReloadPolicy, Shard, ShardSet};

use pipefail_core::snapshot::SnapshotError;

/// Errors from the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The snapshot failed to load or validate.
    Snapshot(SnapshotError),
    /// A socket/listener operation failed.
    Io(String),
    /// Invalid server configuration.
    BadConfig(String),
    /// One shard's snapshot failed to load during a sharded startup —
    /// names the offending file so a multi-snapshot load error is
    /// actionable.
    Shard {
        /// The snapshot path that failed to load.
        path: String,
        /// Why the strict loader rejected it.
        error: SnapshotError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::BadConfig(e) => write!(f, "bad config: {e}"),
            ServeError::Shard { path, error } => {
                write!(f, "shard snapshot {path}: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Snapshot(e) => Some(e),
            ServeError::Shard { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
