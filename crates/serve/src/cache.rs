//! Epoch-keyed result cache with single-flight miss coalescing.
//!
//! Snapshots only change at discrete hot-reload epochs, so between swaps
//! every `/top`, `/pipe`, and `/aggregate` answer is a pure function of
//! `(epoch, normalized query)`. [`CachingHandler`] wraps either router
//! ([`crate::http::LocalRouter`] or the federation front-end) behind the
//! shared [`RequestHandler`] seam, so the connection core gets caching,
//! `ETag`/`304` revalidation, and `HEAD` synthesis without knowing it
//! exists.
//!
//! **Correctness comes from epochs, not TTLs.** Every cache key embeds a
//! state generation:
//!
//! * region-scoped queries key on that shard's [`crate::shards::Shard::epoch`]
//!   — bumped by every swap *and* every degrade, so a hot-reload or a
//!   corrupt-swap degrade retires exactly that shard's entries;
//! * fleet-scoped artefacts (the global top-K merge, `/aggregate`) key on
//!   [`crate::shards::ShardSet::fleet_epoch`] — any shard's change retires
//!   them;
//! * the federation front-end keys its merged artefacts on
//!   [`crate::federation::Federation::generation`], which advances on
//!   every backend health transition and every observed backend snapshot
//!   epoch (carried in the `X-Pipefail-Epoch` response header and read by
//!   the health prober), bounding staleness by the probe interval.
//!
//! Only **full 200s** are stored. Degraded-shard 503s, partial federation
//! merges (`X-Pipefail-Partial`), typed 4xx — anything whose body depends
//! on transient health — is never cached ("per-epoch-per-health-state or
//! not at all": we choose not at all, and the epoch bump on degrade/heal
//! keeps even the 200s exact). A store additionally revalidates that the
//! epoch it computed under is still current, so a body that raced a swap
//! can never be published under the new generation.
//!
//! A per-key **single-flight** gate coalesces concurrent identical
//! misses: one leader computes, N waiters block on a condvar and reuse
//! the rendered body (counted in
//! `pipefail_cache_coalesced_waits_total`). Waiters fall back to
//! computing themselves if the leader's answer was uncacheable or the
//! wait times out, so the gate can serve stale nothing and deadlock
//! nothing.
//!
//! Hits rebuild a [`Response`] around the shared `Arc<str>` body — no
//! body copy, no header vector — and the workers render it into a pooled
//! frame buffer, so a cache hit allocates nothing on the
//! request path once the pools are warm.

use crate::federation::Federation;
use crate::http::{RequestHandler, Response, ServeContext};
use crate::metrics::{Metrics, Route};
use crate::parser::ParsedRequest;
use crate::query;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Lock shards: keyed requests spread over independent LRU + pending
/// maps, so a burst of distinct queries doesn't serialize on one mutex.
const LOCK_SHARDS: usize = 8;

/// Slot-list terminator for the intrusive LRU links.
const NIL: usize = usize::MAX;

/// Fixed per-entry overhead charged against the byte budget on top of the
/// key and body lengths (slot links, map entry, `Arc` headers).
const ENTRY_OVERHEAD: usize = 96;

/// FNV-1a 64-bit — the workspace's standard tiny hash (snapshot checksums
/// use the same family). Used for key → lock-shard selection, the `ETag`
/// token, and the `/aggregate` body fingerprint.
fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Standard FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent lane for the 128-bit aggregate-body fingerprint.
const FNV_BASIS_B: u64 = 0x6c62_272e_07bb_0142;

/// Which state generation covers a cacheable request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// One local shard: epoch = [`crate::shards::Shard::epoch`].
    Shard(usize),
    /// The whole local fleet: epoch = [`crate::shards::ShardSet::fleet_epoch`].
    Fleet,
    /// The federation's merged artefact: epoch =
    /// [`Federation::generation`].
    Federation,
}

/// Metric side effects an *uncached* request would have had. Replayed on
/// every hit, coalesced wait, and `304`, so `/metrics` reads identically
/// whether or not the cache answered — the per-shard request counters
/// stay a truthful account of which shard's data served each query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effects {
    /// One shard answered (`shard_request(i)`).
    Shard(usize),
    /// Local scatter-gather global top-K (`global_topk` only).
    GlobalTopK,
    /// Federated global top-K: every backend scattered, then the merge.
    FanoutTopK(usize),
    /// Aggregate fan-out: every shard/backend computed a partial.
    Fanout(usize),
}

impl Effects {
    fn replay(self, metrics: &Metrics) {
        match self {
            Effects::Shard(i) => metrics.shard_request(i),
            Effects::GlobalTopK => metrics.global_topk(),
            Effects::FanoutTopK(n) => {
                for i in 0..n {
                    metrics.shard_request(i);
                }
                metrics.global_topk();
            }
            Effects::Fanout(n) => {
                for i in 0..n {
                    metrics.shard_request(i);
                }
            }
        }
    }
}

/// A classified cacheable request: its route, covering scope, the epoch
/// read *before* dispatch, the full canonical key, and the replayable
/// side effects.
struct Spec {
    route: Route,
    scope: Scope,
    epoch: u64,
    key: Arc<str>,
    effects: Effects,
    /// GET routes get an epoch-derived `ETag`; `/aggregate` (POST) does
    /// not.
    etag: Option<Arc<str>>,
}

/// One stored rendered response. Only full 200s are ever constructed.
struct Entry {
    content_type: &'static str,
    body: Arc<str>,
    etag: Option<Arc<str>>,
    effects: Effects,
}

impl Entry {
    fn cost(&self, key: &str) -> usize {
        key.len()
            + self.body.len()
            + self.etag.as_ref().map_or(0, |e| e.len())
            + ENTRY_OVERHEAD
    }
}

/// Result of a single-flight admission attempt.
enum Admission {
    /// Entry was resident: serve it.
    Hit(Arc<Entry>),
    /// Nobody is computing this key: the caller is now the leader and
    /// must call [`ResultCache::finish`] exactly once.
    Lead(Arc<Flight>),
    /// Another request is already computing this key: wait on the flight.
    Join(Arc<Flight>),
}

/// The rendezvous for one in-flight key: leader publishes
/// `Some(entry)`/`None` (uncacheable answer), waiters block on the
/// condvar.
struct Flight {
    done: Mutex<Option<Option<Arc<Entry>>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn publish(&self, result: Option<Arc<Entry>>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        *done = Some(result);
        self.cv.notify_all();
    }

    /// Wait for the leader, up to `timeout`. `None` = timed out (or the
    /// leader died — its drop guard publishes, so only a hard wedge ends
    /// here); `Some(None)` = leader's answer was uncacheable.
    fn wait(&self, timeout: Duration) -> Option<Option<Arc<Entry>>> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        while done.is_none() {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, left)
                .unwrap_or_else(|p| p.into_inner());
            done = guard;
        }
        done.clone()
    }
}

/// One slot of a lock shard's intrusive LRU list.
struct Slot {
    key: Arc<str>,
    entry: Arc<Entry>,
    cost: usize,
    prev: usize,
    next: usize,
}

/// One lock shard: a byte-budgeted LRU (hash map over an intrusive
/// doubly-linked slot list — O(1) touch, insert, evict) plus the pending
/// single-flight map for keys hashing here.
struct LruShard {
    map: HashMap<Arc<str>, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    pending: HashMap<Arc<str>, Arc<Flight>>,
}

impl LruShard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            pending: HashMap::new(),
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get_touch(&mut self, key: &str) -> Option<Arc<Entry>> {
        let i = *self.map.get(key)?;
        self.detach(i);
        self.push_front(i);
        Some(Arc::clone(&self.slots[i].entry))
    }

    /// Insert (or replace) `key`, then evict from the tail until the
    /// shard fits its budget. Returns `(bytes_delta, evictions)`.
    fn insert(&mut self, key: Arc<str>, entry: Arc<Entry>, budget: usize) -> (i64, u64) {
        let cost = entry.cost(&key);
        let mut delta = 0i64;
        if let Some(&i) = self.map.get(&key) {
            delta -= self.slots[i].cost as i64;
            self.bytes -= self.slots[i].cost;
            self.slots[i].entry = entry;
            self.slots[i].cost = cost;
            self.bytes += cost;
            delta += cost as i64;
            self.detach(i);
            self.push_front(i);
        } else {
            let slot = Slot { key: Arc::clone(&key), entry, cost, prev: NIL, next: NIL };
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, i);
            self.push_front(i);
            self.bytes += cost;
            delta += cost as i64;
        }
        let mut evictions = 0u64;
        while self.bytes > budget && self.tail != NIL && self.map.len() > 1 {
            let t = self.tail;
            self.detach(t);
            self.bytes -= self.slots[t].cost;
            delta -= self.slots[t].cost as i64;
            self.map.remove(&self.slots[t].key);
            self.free.push(t);
            // Drop the evicted body now rather than at slot reuse.
            self.slots[t].entry = Arc::new(Entry {
                content_type: "",
                body: Arc::from(""),
                etag: None,
                effects: Effects::GlobalTopK,
            });
            evictions += 1;
        }
        (delta, evictions)
    }
}

/// The bounded, sharded-lock LRU over fully rendered response bodies.
pub(crate) struct ResultCache {
    shards: Vec<Mutex<LruShard>>,
    /// Per-lock-shard byte budget (`PIPEFAIL_CACHE_BYTES / LOCK_SHARDS`).
    shard_budget: usize,
}

impl ResultCache {
    pub(crate) fn new(total_bytes: usize) -> Self {
        Self {
            shards: (0..LOCK_SHARDS).map(|_| Mutex::new(LruShard::new())).collect(),
            shard_budget: (total_bytes / LOCK_SHARDS).max(1),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<LruShard> {
        let h = fnv64(FNV_BASIS, key.as_bytes());
        &self.shards[(h as usize) % LOCK_SHARDS]
    }

    /// Look the key up; on miss either become the leader for it or join
    /// the flight already computing it.
    fn admit(&self, key: &Arc<str>) -> Admission {
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = shard.get_touch(key) {
            return Admission::Hit(entry);
        }
        if let Some(flight) = shard.pending.get(key.as_ref()) {
            return Admission::Join(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        shard.pending.insert(Arc::clone(key), Arc::clone(&flight));
        Admission::Lead(flight)
    }

    /// Leader's epilogue: store the entry (if any), clear the pending
    /// marker, and wake every waiter. Exactly one call per
    /// [`Admission::Lead`]; the [`FlightGuard`] drop path covers unwinds.
    fn finish(
        &self,
        key: &Arc<str>,
        flight: &Flight,
        entry: Option<Arc<Entry>>,
        metrics: &Metrics,
    ) {
        let (delta, evictions) = {
            let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
            shard.pending.remove(key.as_ref());
            match &entry {
                Some(e) => shard.insert(Arc::clone(key), Arc::clone(e), self.shard_budget),
                None => (0, 0),
            }
        };
        metrics.cache_resident_delta(delta);
        metrics.cache_evicted(evictions);
        flight.publish(entry);
    }

    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).bytes)
            .sum()
    }
}

/// Unwind guard for a single-flight leader: if the inner handler panics,
/// publish "uncacheable" and clear the pending marker so waiters fall
/// back to computing instead of timing out against a dead flight.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: &'a Arc<str>,
    flight: &'a Arc<Flight>,
    metrics: &'a Metrics,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.finish(self.key, self.flight, None, self.metrics);
        }
    }
}

/// Which router the cache fronts — and therefore where epochs come from.
pub(crate) enum CacheTopology {
    /// Monolithic or in-process sharded serving: epochs are the local
    /// shard counters.
    Local(Arc<ServeContext>),
    /// Federation front end: the only cacheable artefacts are the merged
    /// fleet-scope answers, keyed on the health-and-epoch generation.
    /// Region-relayed requests pass through — the backend's own cache
    /// serves them with exact epochs.
    Federated(Arc<Federation>),
}

/// The [`RequestHandler`] decorator that gives the connection core the
/// result cache, `ETag`/`304` revalidation, and `HEAD` synthesis. Always
/// installed — with `PIPEFAIL_CACHE=off` the LRU and single-flight gate
/// are skipped but `ETag`, `304`, `HEAD`, and the `X-Pipefail-Epoch`
/// header remain, so observable behaviour never depends on the knob.
pub(crate) struct CachingHandler {
    inner: Arc<dyn RequestHandler>,
    topology: CacheTopology,
    cache: Option<ResultCache>,
    /// How long a coalesced waiter blocks before giving up and computing
    /// itself (the request timeout — past that the client is gone anyway).
    wait_timeout: Duration,
    /// Memoized `X-Pipefail-Epoch` value: one rendered token per epoch,
    /// so attaching the header allocates nothing on the steady state.
    epoch_token: Mutex<(u64, Arc<str>)>,
}

impl CachingHandler {
    pub(crate) fn new(
        inner: Arc<dyn RequestHandler>,
        topology: CacheTopology,
        config: &crate::http::ServerConfig,
    ) -> Self {
        Self {
            inner,
            topology,
            cache: config.cache.then(|| ResultCache::new(config.cache_bytes)),
            wait_timeout: Duration::from_secs_f64(config.request_timeout_secs.max(0.001)),
            epoch_token: Mutex::new((0, Arc::from("0"))),
        }
    }

    /// The current epoch for a scope. Reads are cheap atomic loads; the
    /// fleet value is a sum so any shard's change moves it.
    fn epoch_of(&self, scope: Scope) -> u64 {
        match (&self.topology, scope) {
            (CacheTopology::Local(ctx), Scope::Shard(i)) => ctx.shards().shards()[i].epoch(),
            (CacheTopology::Local(ctx), _) => ctx.shards().fleet_epoch(),
            (CacheTopology::Federated(fed), _) => fed.generation(),
        }
    }

    /// The fleet-wide epoch advertised in `X-Pipefail-Epoch` — what a
    /// federation front end's prober reads to notice a backend reload.
    fn fleet_token(&self) -> Arc<str> {
        let epoch = match &self.topology {
            CacheTopology::Local(ctx) => ctx.shards().fleet_epoch(),
            CacheTopology::Federated(fed) => fed.generation(),
        };
        let mut slot = self.epoch_token.lock().unwrap_or_else(|p| p.into_inner());
        if slot.0 != epoch {
            *slot = (epoch, Arc::from(epoch.to_string().as_str()));
        }
        Arc::clone(&slot.1)
    }

    /// Classify a request: `Some` iff its 200 body is a pure function of
    /// `(epoch, canonical key)`. Anything else — unknown regions, bad
    /// parameters, regionless `/pipe`, federation relays — passes through
    /// untouched.
    fn classify(&self, req: &ParsedRequest) -> Option<Spec> {
        let spec = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/top") => {
                let k = query::top_k(&req.query).ok()?;
                match (query::param(&req.query, "region"), &self.topology) {
                    (Some(_), CacheTopology::Federated(_)) => return None,
                    (Some(key), CacheTopology::Local(ctx)) => {
                        let idx = ctx.shards().index_of(key)?;
                        self.spec(
                            Route::Top,
                            Scope::Shard(idx),
                            format!("top|s{idx}|k{k}"),
                            Effects::Shard(idx),
                            true,
                        )
                    }
                    (None, CacheTopology::Local(ctx)) if ctx.shards().is_single() => self.spec(
                        Route::Top,
                        Scope::Shard(0),
                        format!("top|s0|k{k}"),
                        Effects::Shard(0),
                        true,
                    ),
                    (None, CacheTopology::Local(_)) => self.spec(
                        Route::Top,
                        Scope::Fleet,
                        format!("gtop|k{k}"),
                        Effects::GlobalTopK,
                        true,
                    ),
                    (None, CacheTopology::Federated(fed)) => self.spec(
                        Route::Top,
                        Scope::Federation,
                        format!("gtop|k{k}"),
                        Effects::FanoutTopK(fed.backend_count()),
                        true,
                    ),
                }
            }
            ("GET", "/pipe") => {
                let id = query::pipe_id(&req.query).ok()?;
                match (query::param(&req.query, "region"), &self.topology) {
                    (_, CacheTopology::Federated(_)) => return None,
                    (Some(key), CacheTopology::Local(ctx)) => {
                        let idx = ctx.shards().index_of(key)?;
                        self.spec(
                            Route::Pipe,
                            Scope::Shard(idx),
                            format!("pipe|s{idx}|i{id}"),
                            Effects::Shard(idx),
                            true,
                        )
                    }
                    (None, CacheTopology::Local(ctx)) if ctx.shards().is_single() => self.spec(
                        Route::Pipe,
                        Scope::Shard(0),
                        format!("pipe|s0|i{id}"),
                        Effects::Shard(0),
                        true,
                    ),
                    (None, CacheTopology::Local(_)) => return None,
                }
            }
            ("POST", "/aggregate") => {
                let partial = u8::from(query::wants_partial(&req.query));
                let a = fnv64(FNV_BASIS, req.body.as_bytes());
                let b = fnv64(FNV_BASIS_B, req.body.as_bytes());
                let (scope, effects) = match &self.topology {
                    CacheTopology::Local(ctx) => {
                        (Scope::Fleet, Effects::Fanout(ctx.shards().len()))
                    }
                    CacheTopology::Federated(fed) => {
                        (Scope::Federation, Effects::Fanout(fed.backend_count()))
                    }
                };
                self.spec(
                    Route::Aggregate,
                    scope,
                    format!("agg|p{partial}|{a:016x}{b:016x}"),
                    effects,
                    false,
                )
            }
            _ => return None,
        };
        Some(spec)
    }

    fn spec(&self, route: Route, scope: Scope, tail: String, effects: Effects, etag: bool) -> Spec {
        let epoch = self.epoch_of(scope);
        let key: Arc<str> = Arc::from(format!("{epoch:x}|{tail}").as_str());
        let etag = etag.then(|| {
            Arc::from(format!("\"{:016x}\"", fnv64(FNV_BASIS, key.as_bytes())).as_str())
        });
        Spec { route, scope, epoch, key, effects, etag }
    }

    /// Rebuild the full response from a stored entry: shared body, shared
    /// `ETag` — nothing allocated beyond two refcount bumps.
    fn entry_response(&self, entry: &Entry) -> Response {
        let mut response = Response::json(200, crate::http::Body::Shared(Arc::clone(&entry.body)));
        response.content_type = entry.content_type;
        response.etag = entry.etag.clone();
        response
    }

    /// Compute through the inner handler as the single-flight leader, and
    /// store the answer when it is a full 200 still covered by the epoch
    /// the key was built under.
    fn lead(
        &self,
        cache: &ResultCache,
        flight: &Arc<Flight>,
        spec: &Spec,
        req: &ParsedRequest,
        metrics: &Metrics,
    ) -> (Route, Response) {
        let mut guard =
            FlightGuard { cache, key: &spec.key, flight, metrics, armed: true };
        let (route, mut response) = self.inner.handle(req, metrics);
        let entry = self.storable(spec, &mut response);
        guard.armed = false;
        cache.finish(&spec.key, flight, entry, metrics);
        (route, response)
    }

    /// If this answer may be cached, share its body and build the entry:
    /// full 200s only (a partial federation merge carries
    /// `X-Pipefail-Partial` and is skipped), and only if the scope's epoch
    /// still equals the one the key embeds — an answer that raced a swap
    /// or degrade must not survive it.
    fn storable(&self, spec: &Spec, response: &mut Response) -> Option<Arc<Entry>> {
        if response.status != 200 {
            return None;
        }
        if response.headers.iter().any(|(name, _)| *name == "X-Pipefail-Partial") {
            return None;
        }
        response.etag = spec.etag.clone();
        if self.epoch_of(spec.scope) != spec.epoch {
            return None;
        }
        let body = response.share_body();
        Some(Arc::new(Entry {
            content_type: response.content_type,
            body,
            etag: spec.etag.clone(),
            effects: spec.effects,
        }))
    }

    fn handle_cacheable(
        &self,
        spec: &Spec,
        req: &ParsedRequest,
        metrics: &Metrics,
    ) -> (Route, Response) {
        // `If-None-Match` against the epoch-derived ETag: the epoch moved
        // iff the body could have changed, so a match is answered `304`
        // without touching the cache or the scorer.
        if let (Some(etag), Some(inm)) = (&spec.etag, &req.if_none_match) {
            if inm.as_str() == etag.as_ref() {
                spec.effects.replay(metrics);
                metrics.cache_hit();
                let mut response = Response::json(304, "");
                response.etag = Some(Arc::clone(etag));
                return (spec.route, response);
            }
        }
        let Some(cache) = &self.cache else {
            // Cache off: same classification, same ETags, no storage.
            let (route, mut response) = self.inner.handle(req, metrics);
            if response.status == 200
                && !response.headers.iter().any(|(n, _)| *n == "X-Pipefail-Partial")
            {
                response.etag = spec.etag.clone();
            }
            return (route, response);
        };
        match cache.admit(&spec.key) {
            Admission::Hit(entry) => {
                metrics.cache_hit();
                entry.effects.replay(metrics);
                (spec.route, self.entry_response(&entry))
            }
            Admission::Lead(flight) => {
                metrics.cache_miss();
                self.lead(cache, &flight, spec, req, metrics)
            }
            Admission::Join(flight) => match flight.wait(self.wait_timeout) {
                Some(Some(entry)) => {
                    metrics.cache_coalesced();
                    entry.effects.replay(metrics);
                    (spec.route, self.entry_response(&entry))
                }
                // Leader's answer was uncacheable (or it wedged): compute
                // our own — correctness never depends on the gate.
                _ => {
                    metrics.cache_miss();
                    self.inner.handle(req, metrics)
                }
            },
        }
    }
}

impl RequestHandler for CachingHandler {
    fn handle(&self, req: &ParsedRequest, metrics: &Metrics) -> (Route, Response) {
        // HEAD = GET minus the body bytes (`Content-Length` still reports
        // the body's length). Synthesized here so every GET route — and
        // the cache in front of it — answers HEAD instead of falling
        // through to 405/404.
        let converted;
        let (req, head_only) = if req.method == "HEAD" {
            converted = ParsedRequest { method: "GET".into(), ..req.clone() };
            (&converted, true)
        } else {
            (req, false)
        };
        let (route, mut response) = match self.classify(req) {
            Some(spec) => self.handle_cacheable(&spec, req, metrics),
            None => self.inner.handle(req, metrics),
        };
        response.head_only = head_only;
        response.epoch_token = Some(self.fleet_token());
        (route, response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(body: &str) -> Arc<Entry> {
        Arc::new(Entry {
            content_type: "application/json",
            body: Arc::from(body),
            etag: None,
            effects: Effects::Shard(0),
        })
    }

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn lru_touches_and_evicts_from_the_tail() {
        let mut shard = LruShard::new();
        let budget = entry("x").cost("a") * 2 + 10;
        shard.insert(key("a"), entry("x"), budget);
        shard.insert(key("b"), entry("y"), budget);
        // Touch `a` so `b` is the LRU victim.
        assert!(shard.get_touch("a").is_some());
        let (_, evicted) = shard.insert(key("c"), entry("z"), budget);
        assert_eq!(evicted, 1);
        assert!(shard.get_touch("b").is_none(), "tail entry evicted");
        assert!(shard.get_touch("a").is_some());
        assert!(shard.get_touch("c").is_some());
    }

    #[test]
    fn replacing_a_key_updates_bytes_without_growing_the_map() {
        let mut shard = LruShard::new();
        shard.insert(key("a"), entry("short"), usize::MAX);
        let before = shard.bytes;
        shard.insert(key("a"), entry("a much longer body than before"), usize::MAX);
        assert_eq!(shard.map.len(), 1);
        assert!(shard.bytes > before);
    }

    #[test]
    fn over_budget_single_entry_is_kept() {
        // One huge entry: the `map.len() > 1` floor keeps it rather than
        // thrash-evicting the only resident body.
        let mut shard = LruShard::new();
        let (_, evicted) = shard.insert(key("big"), entry(&"x".repeat(4096)), 8);
        assert_eq!(evicted, 0);
        assert!(shard.get_touch("big").is_some());
    }

    #[test]
    fn cache_accounts_resident_bytes() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        let k = key("e1|top|s0|k10");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!("fresh key must lead")
        };
        cache.finish(&k, &flight, Some(entry("body")), &metrics);
        assert!(cache.resident_bytes() > 0);
        assert!(matches!(cache.admit(&k), Admission::Hit(_)));
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_misses() {
        let cache = Arc::new(ResultCache::new(1 << 20));
        let metrics = Arc::new(Metrics::new());
        let k = key("e1|gtop|k10");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!("fresh key must lead")
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let k = Arc::clone(&k);
                std::thread::spawn(move || match cache.admit(&k) {
                    Admission::Join(f) => f
                        .wait(Duration::from_secs(5))
                        .expect("published")
                        .expect("cacheable")
                        .body
                        .to_string(),
                    Admission::Hit(e) => e.body.to_string(),
                    Admission::Lead(_) => panic!("only one leader per key"),
                })
            })
            .collect();
        // Let the waiters pile onto the flight, then publish once.
        std::thread::sleep(Duration::from_millis(20));
        cache.finish(&k, &flight, Some(entry("the body")), &metrics);
        for w in waiters {
            assert_eq!(w.join().unwrap(), "the body");
        }
    }

    #[test]
    fn uncacheable_leader_answers_release_waiters_with_none() {
        let cache = ResultCache::new(1 << 20);
        let metrics = Metrics::new();
        let k = key("e1|top|s0|k3");
        let Admission::Lead(flight) = cache.admit(&k) else {
            panic!()
        };
        let joined = match cache.admit(&k) {
            Admission::Join(f) => f,
            _ => panic!("second admit must join"),
        };
        cache.finish(&k, &flight, None, &metrics);
        assert!(matches!(joined.wait(Duration::from_secs(1)), Some(None)));
        // Nothing stored; the next admit leads again.
        assert!(matches!(cache.admit(&k), Admission::Lead(_)));
    }

    #[test]
    fn fnv_lanes_differ() {
        let a = fnv64(FNV_BASIS, b"{\"group_by\":[\"material\"]}");
        let b = fnv64(FNV_BASIS_B, b"{\"group_by\":[\"material\"]}");
        assert_ne!(a, b);
    }
}
