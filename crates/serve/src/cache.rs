//! Epoch-keyed result cache with single-flight miss coalescing.
//!
//! Snapshots only change at discrete hot-reload epochs, so between swaps
//! every `/top`, `/pipe`, and `/aggregate` answer is a pure function of
//! `(epoch, normalized query)`. The routers — the local one in
//! [`crate::http`] and the federation front end — decide which state
//! answers a request, read that state's epoch, and hand
//! [`ResultCache::answer`] the key plus a closure that computes the
//! response. This module knows no topology: it stores rendered bodies,
//! coalesces identical misses, revalidates epochs at store time, and
//! answers `304`s. The router does its own `/metrics` accounting, told
//! by [`Answer`] whether its compute closure ran.
//!
//! **Correctness comes from epochs, not TTLs.** Every cache key embeds
//! the state generation the router read for the request's scope: one
//! shard's epoch for region-scoped queries (bumped by every swap *and*
//! every degrade, so a hot-reload or a corrupt-swap degrade retires
//! exactly that shard's entries), the sum of the shard epochs for
//! fleet-scoped artefacts (the global top-K merge, `/aggregate`), and the
//! federation generation at a federation front end (advanced by every
//! backend health transition and every observed backend snapshot epoch,
//! which the health prober reads from the `X-Pipefail-Epoch` header).
//!
//! Only **full 200s** are stored. Degraded-shard 503s, partial federation
//! merges (`X-Pipefail-Partial`), typed 4xx — anything whose body depends
//! on transient health — is never cached ("per-epoch-per-health-state or
//! not at all": we choose not at all, and the epoch bump on degrade/heal
//! keeps even the 200s exact). A store additionally revalidates that the
//! epoch it computed under is still current. Routers read the epoch
//! *before* any scorer or backend state, and a swap bumps the epoch only
//! after installing the new state, so a body that raced a swap is either
//! refused here or stored under the older epoch, which the bump retires —
//! never under the new generation.
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
//! body copy, no header vector — and the connection core renders it into
//! the connection's output buffer, whose capacity outlives the request, so
//! a cache hit allocates only its key on the request path once that buffer
//! is warm.

use crate::http::{Response, ServerConfig};
use crate::metrics::{Counter, Metrics};
use crate::parser::ParsedRequest;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
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

/// Rendered length of a validator: `"` + 16 hex digits + `"`.
const ETAG_LEN: usize = 18;

/// FNV-1a 64-bit — the workspace's standard tiny hash (snapshot checksums
/// use the same family). Used for key → lock-shard selection, the `ETag`
/// validator, and the `/aggregate` body fingerprint.
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

/// 128-bit fingerprint of a raw `/aggregate` body (two independent FNV
/// lanes). Routers key on it before parsing the spec, so a hit never
/// parses.
pub(crate) fn fingerprint(body: &str) -> u128 {
    let a = fnv64(FNV_BASIS, body.as_bytes());
    let b = fnv64(FNV_BASIS_B, body.as_bytes());
    (u128::from(a) << 64) | u128::from(b)
}

/// Whether an answer may be stored: a full 200, not a partial federation
/// merge.
fn is_full(response: &Response) -> bool {
    response.status == 200
        && !response.headers.iter().any(|(name, _)| *name == "X-Pipefail-Partial")
}

/// Compute an answer outside the store; a full one still carries the
/// validator.
fn unstored(etag: Option<u64>, compute: impl FnOnce() -> Response) -> (Response, Answer) {
    let mut response = compute();
    if is_full(&response) {
        response.etag = etag;
    }
    (response, Answer::Computed)
}

/// Where an answer came from. A `Stored` answer (a hit, a coalesced wait,
/// or a `304`) never ran the router's compute closure, so the router
/// counts for it what that closure would have counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    /// Served from the cache or the validator; the compute closure did not run.
    Stored,
    /// The compute closure ran for this request.
    Computed,
}

/// One stored rendered response. Only full 200s are ever constructed.
struct Entry {
    content_type: &'static str,
    body: Arc<str>,
    etag: Option<u64>,
}

impl Entry {
    fn cost(&self, key: &str) -> usize {
        key.len() + self.body.len() + self.etag.map_or(0, |_| ETAG_LEN) + ENTRY_OVERHEAD
    }

    /// Rebuild the full response: shared body, no copy.
    fn response(&self) -> Response {
        let mut response = Response::text(200, self.content_type, Arc::clone(&self.body));
        response.etag = self.etag;
        response
    }
}

/// Result of a single-flight admission attempt.
enum Admission {
    /// Entry was resident: serve it.
    Hit(Arc<Entry>),
    /// Nobody is computing this key: the caller is now the leader and
    /// must call [`ResultCache::finish`] exactly once.
    Lead(Arc<str>, Arc<Flight>),
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
            });
            evictions += 1;
        }
        (delta, evictions)
    }
}

/// The bounded, sharded-lock LRU over fully rendered response bodies,
/// plus the validators every cacheable GET carries. With
/// `PIPEFAIL_CACHE=off` nothing is stored, but `ETag`s and `304`s are
/// answered identically, so observable behaviour never depends on the
/// knob.
pub(crate) struct ResultCache {
    /// The lock shards; empty when the cache is off.
    shards: Vec<Mutex<LruShard>>,
    /// Per-lock-shard byte budget (`PIPEFAIL_CACHE_BYTES / LOCK_SHARDS`).
    shard_budget: usize,
    /// How long a coalesced waiter blocks before giving up and computing
    /// itself (the request timeout — past that the client is gone anyway).
    wait_timeout: Duration,
}

impl ResultCache {
    pub(crate) fn new(config: &ServerConfig) -> Self {
        let lock_shards = if config.cache { LOCK_SHARDS } else { 0 };
        Self {
            shards: (0..lock_shards).map(|_| Mutex::new(LruShard::new())).collect(),
            shard_budget: (config.cache_bytes / LOCK_SHARDS).max(1),
            wait_timeout: Duration::from_secs_f64(config.request_timeout_secs.max(0.001)),
        }
    }

    /// Answer a cacheable request. `epoch` is the covering state
    /// generation, read by the caller *before* any scorer or backend
    /// state; `key` the canonical query it prefixes into the cache key
    /// `{epoch:x}|{key}`; `epoch_now` re-reads the generation at store
    /// time; `compute` renders the answer. GET answers carry the FNV-1a
    /// hash of the cache key as their `ETag`, and a matching
    /// `If-None-Match` is a `304` without computing anything.
    pub(crate) fn answer(
        &self,
        req: &ParsedRequest,
        metrics: &Metrics,
        epoch: u64,
        key: fmt::Arguments<'_>,
        epoch_now: impl Fn() -> u64,
        compute: impl FnOnce() -> Response,
    ) -> (Response, Answer) {
        let mut text = String::with_capacity(48);
        let _ = write!(text, "{epoch:x}|{key}");
        let etag = (req.method == "GET").then(|| fnv64(FNV_BASIS, text.as_bytes()));
        // The epoch moved iff the body could have changed, so a matching
        // validator is answered without touching the cache or the scorer.
        if let (Some(tag), Some(inm)) = (etag, &req.if_none_match) {
            if *inm == format!("\"{tag:016x}\"") {
                metrics.add(Counter::CacheHits, 1);
                let mut response = Response::json(304, "");
                response.etag = Some(tag);
                return (response, Answer::Stored);
            }
        }
        if self.shards.is_empty() {
            return unstored(etag, compute);
        }
        match self.admit(&text) {
            Admission::Hit(entry) => {
                metrics.add(Counter::CacheHits, 1);
                (entry.response(), Answer::Stored)
            }
            Admission::Lead(key, flight) => {
                metrics.add(Counter::CacheMisses, 1);
                let mut guard =
                    FlightGuard { cache: self, key: &key, flight: &flight, metrics, armed: true };
                let (response, answer) = unstored(etag, compute);
                let entry = (is_full(&response) && epoch_now() == epoch).then(|| {
                    Arc::new(Entry {
                        content_type: response.content_type,
                        body: Arc::clone(&response.body),
                        etag,
                    })
                });
                guard.armed = false;
                self.finish(&key, &flight, entry, metrics);
                (response, answer)
            }
            Admission::Join(flight) => match flight.wait(self.wait_timeout) {
                Some(Some(entry)) => {
                    metrics.add(Counter::CacheCoalescedWaits, 1);
                    (entry.response(), Answer::Stored)
                }
                // Leader's answer was uncacheable (or it wedged): compute
                // our own — correctness never depends on the gate.
                _ => {
                    metrics.add(Counter::CacheMisses, 1);
                    unstored(etag, compute)
                }
            },
        }
    }

    fn shard(&self, key: &str) -> &Mutex<LruShard> {
        let h = fnv64(FNV_BASIS, key.as_bytes());
        &self.shards[(h as usize) % LOCK_SHARDS]
    }

    /// Look the key up; on miss either become the leader for it or join
    /// the flight already computing it.
    fn admit(&self, key: &str) -> Admission {
        let mut shard = self.shard(key).lock().unwrap_or_else(|p| p.into_inner());
        if let Some(entry) = shard.get_touch(key) {
            return Admission::Hit(entry);
        }
        if let Some(flight) = shard.pending.get(key) {
            return Admission::Join(Arc::clone(flight));
        }
        let key: Arc<str> = Arc::from(key);
        let flight = Arc::new(Flight::new());
        shard.pending.insert(Arc::clone(&key), Arc::clone(&flight));
        Admission::Lead(key, flight)
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
        metrics.add(Counter::CacheResidentBytes, delta);
        metrics.add(Counter::CacheEvictions, evictions as i64);
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

/// Unwind guard for a single-flight leader: if the compute closure
/// panics, publish "uncacheable" and clear the pending marker so waiters
/// fall back to computing instead of timing out against a dead flight.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(body: &str) -> Arc<Entry> {
        Arc::new(Entry {
            content_type: "application/json",
            body: Arc::from(body),
            etag: None,
        })
    }

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    fn cache(on: bool) -> ResultCache {
        ResultCache::new(&ServerConfig { cache: on, cache_bytes: 1 << 20, ..ServerConfig::default() })
    }

    fn lead(cache: &ResultCache, k: &str) -> (Arc<str>, Arc<Flight>) {
        match cache.admit(k) {
            Admission::Lead(key, flight) => (key, flight),
            _ => panic!("fresh key must lead"),
        }
    }

    fn get(if_none_match: Option<String>) -> ParsedRequest {
        ParsedRequest {
            method: "GET".into(),
            path: "/top".into(),
            query: String::new(),
            http11: true,
            connection: crate::parser::ConnectionDirective::Unspecified,
            if_none_match,
            body: String::new(),
        }
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
        let cache = cache(true);
        let metrics = Metrics::new();
        let (k, flight) = lead(&cache, "e1|top|s0|k10");
        cache.finish(&k, &flight, Some(entry("body")), &metrics);
        assert!(cache.resident_bytes() > 0);
        assert!(matches!(cache.admit(&k), Admission::Hit(_)));
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_misses() {
        let cache = Arc::new(cache(true));
        let metrics = Arc::new(Metrics::new());
        let (k, flight) = lead(&cache, "e1|gtop|k10");
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
                    Admission::Lead(..) => panic!("only one leader per key"),
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
        let cache = cache(true);
        let metrics = Metrics::new();
        let (k, flight) = lead(&cache, "e1|top|s0|k3");
        let joined = match cache.admit(&k) {
            Admission::Join(f) => f,
            _ => panic!("second admit must join"),
        };
        cache.finish(&k, &flight, None, &metrics);
        assert!(matches!(joined.wait(Duration::from_secs(1)), Some(None)));
        // Nothing stored; the next admit leads again.
        assert!(matches!(cache.admit(&k), Admission::Lead(..)));
    }

    #[test]
    fn answer_stores_full_200s_still_covered_by_their_epoch() {
        let cache = cache(true);
        let metrics = Metrics::new();
        let ok = || Response::json(200, "{}");
        let ask = |epoch_now: u64, compute: &dyn Fn() -> Response| {
            cache.answer(&get(None), &metrics, 1, format_args!("top|s0|k5"), || epoch_now, compute)
        };
        // An epoch that moved mid-compute, a partial merge, and an error
        // are served but never stored.
        assert_eq!(ask(2, &ok).1, Answer::Computed);
        assert_eq!(ask(1, &|| ok().with_header("X-Pipefail-Partial", "b")).1, Answer::Computed);
        assert_eq!(ask(1, &|| Response::json(503, "{}")).1, Answer::Computed);
        assert_eq!(cache.resident_bytes(), 0);
        // A full 200 under its own epoch is stored, then served stored.
        let (first, answer) = ask(1, &ok);
        assert_eq!(answer, Answer::Computed);
        let (again, answer) = ask(1, &ok);
        assert_eq!(answer, Answer::Stored);
        assert_eq!((again.etag, again.body), (first.etag, first.body));
        assert_eq!((metrics.cache_misses_total(), metrics.cache_hits_total()), (4, 1));
    }

    #[test]
    fn validators_answer_304_with_the_cache_on_or_off() {
        for on in [true, false] {
            let cache = cache(on);
            let metrics = Metrics::new();
            let ask = |inm: Option<String>| {
                cache.answer(&get(inm), &metrics, 7, format_args!("pipe|s0|i3"), || 7, || {
                    Response::json(200, "{\"pipe\":3}")
                })
            };
            let (full, _) = ask(None);
            let tag = full.etag.expect("GET answers carry a validator");
            assert_eq!(tag, fnv64(FNV_BASIS, b"7|pipe|s0|i3"));
            let (matched, answer) = ask(Some(format!("\"{tag:016x}\"")));
            assert_eq!((matched.status, matched.etag, answer), (304, Some(tag), Answer::Stored));
            // Only the exact wire form matches.
            for other in [format!("\"{tag:016X}\""), format!("{tag:016x}"), "\"0\"".into()] {
                assert_eq!(ask(Some(other)).0.status, 200);
            }
        }
    }

    #[test]
    fn fnv_lanes_differ() {
        let fp = fingerprint("{\"group_by\":[\"material\"]}");
        assert_ne!(fp >> 64, fp & u128::from(u64::MAX));
    }
}
