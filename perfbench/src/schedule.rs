//! Open-loop plans: Poisson arrival times, the request each arrival sends,
//! the body each request must be answered with, and timed side actions
//! (snapshot republishes). A plan is a pure function of its workload, seed
//! and length; the expected bodies' digests are filled in from references
//! computed outside the timed phases. Request bytes are built from each
//! key's kind when sent, so the plan holds little beyond the schedule
//! through the measured phase.

use crate::rng::Rng;
use std::collections::HashMap;
use std::path::PathBuf;

/// What an operation asks, in terms the traced replay can send again
/// through the layers' public functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `GET /pipe?id=` on shard `shard` (region-routed unless monolithic).
    Pipe {
        /// Shard (region) index.
        shard: usize,
        /// Pipe id.
        id: u32,
    },
    /// `GET /top?k=`; `shard` is `Some` for a region-routed query.
    Top {
        /// Region-routed shard, or `None` for the whole fleet.
        shard: Option<usize>,
        /// Requested k.
        k: usize,
    },
    /// `POST /batch` of `pipe <id>` lines.
    Batch {
        /// The ids, one line each.
        ids: Vec<u32>,
    },
    /// `POST /aggregate` with spec number `spec` of the workload's set.
    Aggregate {
        /// Index into the workload's spec list.
        spec: usize,
    },
}

/// One distinct request of a plan: repeated sends of it are repeated keys.
#[derive(Debug, Clone)]
pub struct Key {
    /// What the request asks.
    pub kind: OpKind,
    /// Digest of the exact body a correct server answers (filled from
    /// references).
    pub expect: Digest,
    /// Whether the cached answer depends on a shard that republishes, so
    /// its cache entry is retired at every reload epoch.
    pub dynamic: bool,
}

/// A body's length and a 128-bit fingerprint of its bytes: what each
/// response is checked against, so the plan need not keep every expected
/// body resident through the measured phase. Each lane absorbs one 8-byte
/// word per step through a map that is a bijection of the lane for a fixed
/// word and of the word for a fixed lane, so two bodies of equal length
/// that differ in a single word always get different digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    len: usize,
    lanes: [u64; 2],
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        let mut lanes = [0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344];
        let mut absorb = |word: u64| {
            lanes[0] = (lanes[0] ^ word)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29);
            lanes[1] = (lanes[1] ^ word)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .rotate_left(37);
        };
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            absorb(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        absorb(u64::from_le_bytes(tail));
        Self {
            len: bytes.len(),
            lanes,
        }
    }
}

/// A timed rename: republish a snapshot over a watched path.
#[derive(Debug, Clone)]
pub struct Action {
    /// When, in nanoseconds from the start of the measured phase.
    pub at_ns: u64,
    /// The prepared file.
    pub from: PathBuf,
    /// The watched path it replaces.
    pub to: PathBuf,
}

/// An open-loop plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Routing key of each region, by shard index.
    pub regions: Vec<String>,
    /// Whether `/pipe` requests name their region (not when monolithic).
    pub route_pipes: bool,
    /// `/aggregate` spec bodies, by index.
    pub specs: Vec<String>,
    /// Scheduled send time of each operation, ascending, in ns.
    pub due_ns: Vec<u64>,
    /// The key each operation sends.
    pub key_of: Vec<u32>,
    /// The distinct requests.
    pub keys: Vec<Key>,
    /// Timed side actions, ascending.
    pub actions: Vec<Action>,
    index: HashMap<OpKind, u32>,
}

impl Plan {
    /// An empty plan over these regions and specs.
    pub fn new(regions: Vec<String>, route_pipes: bool, specs: Vec<String>) -> Self {
        Self {
            regions,
            route_pipes,
            specs,
            ..Self::default()
        }
    }

    /// Append an operation at `due_ns`; identical kinds share one key
    /// (batches never repeat, so they always get a fresh one).
    pub fn push(&mut self, due_ns: u64, kind: OpKind, dynamic: bool) {
        let key = match self.index.get(&kind) {
            Some(&k) => k,
            None => {
                let k = self.keys.len() as u32;
                if !matches!(kind, OpKind::Batch { .. }) {
                    self.index.insert(kind.clone(), k);
                }
                self.keys.push(Key {
                    kind,
                    expect: Digest::default(),
                    dynamic,
                });
                k
            }
        };
        self.due_ns.push(due_ns);
        self.key_of.push(key);
    }

    /// Done adding operations: drop the index that merged repeated kinds.
    pub fn sealed(mut self) -> Self {
        self.index = HashMap::new();
        self
    }

    /// The full request bytes of key `key`.
    pub fn request(&self, key: u32) -> Vec<u8> {
        match &self.keys[key as usize].kind {
            OpKind::Pipe { shard, id } if self.route_pipes => {
                get(&format!("/pipe?region={}&id={id}", self.regions[*shard]))
            }
            OpKind::Pipe { id, .. } => get(&format!("/pipe?id={id}")),
            OpKind::Top { shard: Some(s), k } => {
                get(&format!("/top?region={}&k={k}", self.regions[*s]))
            }
            OpKind::Top { shard: None, k } => get(&format!("/top?k={k}")),
            OpKind::Batch { ids } => {
                let body: String = ids.iter().map(|id| format!("pipe {id}\n")).collect();
                post("/batch", &body)
            }
            OpKind::Aggregate { spec } => post("/aggregate", &self.specs[*spec]),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    /// Whether the plan has no operations.
    pub fn is_empty(&self) -> bool {
        self.due_ns.is_empty()
    }

    /// Share of operations whose key was sent earlier in the plan, in %.
    pub fn repeat_pct(&self) -> f64 {
        let mut seen = vec![false; self.keys.len()];
        let mut repeats = 0usize;
        for &k in &self.key_of {
            if std::mem::replace(&mut seen[k as usize], true) {
                repeats += 1;
            }
        }
        100.0 * repeats as f64 / self.len().max(1) as f64
    }
}

/// Poisson arrival times at `rate` per second over `[0, seconds)`, in ns.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize);
    let mut t = rng.exp(rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exp(rate);
    }
    out
}

/// Zipf sampler over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Weights `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A keep-alive `GET` request.
pub fn get(path_query: &str) -> Vec<u8> {
    format!("GET {path_query} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// A keep-alive `POST` request with a body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
