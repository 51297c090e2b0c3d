//! The scoring engine: snapshot in, microsecond risk queries out.
//!
//! A [`Scorer`] is an immutable, shareable (`Sync`) view of one model
//! snapshot, always held the same way: as validated PFSNAP v2 bytes
//! ([`pipefail_core::snapshot::v2::validate`]) whose ranking, id→rank
//! index, and attribute columns are served **directly from those bytes** —
//! nothing O(n_pipes) is decoded. The bytes come from one of two places:
//!
//! * a v2 file, `mmap`ed read-only (`sys`'s raw-syscall mapping): loading
//!   is O(ms) regardless of snapshot size, and the page cache is shared
//!   across processes serving the same file;
//! * an owned 8-byte-aligned copy of the v2 encoding, for v1 files and
//!   in-memory [`Snapshot`]s ([`Scorer::new`]): parsed, re-encoded as v2,
//!   then validated by the same strict pass a mapped file gets.
//!
//! The bytes live inside an `Arc`, so a hot-reload swap keeps the old
//! pages valid until the last in-flight request drops its clone.
//!
//! Queries return view types ([`RiskSlice`], [`AttributesView`]) instead
//! of slices of owned structs, so the zero-copy property survives the API
//! boundary. Batches of queries fan out over a [`pipefail_par::TaskPool`]
//! with the pool's usual determinism contract: results come back in query
//! order at any thread count.

use crate::sys;
use pipefail_core::model::RiskRanking;
use pipefail_core::snapshot::{
    v2, Snapshot, SnapshotError, SnapshotFormat, ATTRIBUTES_SECTION, ATTR_LAID_YEAR,
    ATTR_LENGTH_M, ATTR_MATERIAL, HEADER_LEN, MAGIC, SNAPSHOT_VERSION_V2,
};
use pipefail_network::attributes::Material;
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use std::io::Read;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One pipe's served risk: its score and its position in the ranking
/// (rank 0 = riskiest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipeRisk {
    /// The pipe.
    pub pipe: PipeId,
    /// The frozen model score (posterior failure probability for the
    /// Bayesian models, a raw ordinal score for the rankers).
    pub score: f64,
    /// Position in the descending ranking, 0-based.
    pub rank: usize,
}

/// A single scoring request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The `k` riskiest pipes.
    TopK(usize),
    /// One pipe's score and rank.
    Pipe(PipeId),
}

/// The answer to a [`Query`], in the same order as the batch.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Top-K answer, descending.
    TopK(Vec<PipeRisk>),
    /// Per-pipe answer; `None` when the pipe is not in the ranking.
    Pipe(Option<PipeRisk>),
}

/// A borrowed run of ranking entries starting at rank 0 — what
/// [`Scorer::top_k`] returns. It wraps the raw id and score columns of a
/// snapshot and materializes each `PipeRisk` on the fly, so rendering a
/// top-K response never copies the table; it can also wrap a parsed
/// `&[PipeRisk]` table (federation merges remote backends' answers this
/// way).
#[derive(Debug, Clone, Copy)]
pub struct RiskSlice<'a> {
    inner: SliceInner<'a>,
}

#[derive(Debug, Clone, Copy)]
enum SliceInner<'a> {
    Entries(&'a [PipeRisk]),
    Cols { ids: &'a [u32], scores: &'a [f64] },
}

impl<'a> RiskSlice<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self.inner {
            SliceInner::Entries(s) => s.len(),
            SliceInner::Cols { ids, .. } => ids.len(),
        }
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at position `i` (which is also its rank), if in range.
    pub fn get(&self, i: usize) -> Option<PipeRisk> {
        match self.inner {
            SliceInner::Entries(s) => s.get(i).copied(),
            SliceInner::Cols { ids, scores } => Some(PipeRisk {
                pipe: PipeId(*ids.get(i)?),
                score: *scores.get(i)?,
                rank: i,
            }),
        }
    }

    /// The entry at position `i`; panics when out of range.
    pub fn at(&self, i: usize) -> PipeRisk {
        self.get(i).expect("RiskSlice index out of range")
    }

    /// Iterate the entries in rank order.
    pub fn iter(&self) -> RiskSliceIter<'a> {
        RiskSliceIter { slice: *self, pos: 0 }
    }

    /// Copy the entries into an owned vector.
    pub fn to_vec(&self) -> Vec<PipeRisk> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [PipeRisk]> for RiskSlice<'a> {
    fn from(s: &'a [PipeRisk]) -> Self {
        RiskSlice { inner: SliceInner::Entries(s) }
    }
}

/// Iterator over a [`RiskSlice`], yielding [`PipeRisk`] by value.
#[derive(Debug, Clone)]
pub struct RiskSliceIter<'a> {
    slice: RiskSlice<'a>,
    pos: usize,
}

impl Iterator for RiskSliceIter<'_> {
    type Item = PipeRisk;

    fn next(&mut self) -> Option<PipeRisk> {
        let out = self.slice.get(self.pos)?;
        self.pos += 1;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.slice.len().saturating_sub(self.pos);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RiskSliceIter<'_> {}

impl<'a> IntoIterator for RiskSlice<'a> {
    type Item = PipeRisk;
    type IntoIter = RiskSliceIter<'a>;

    fn into_iter(self) -> RiskSliceIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &RiskSlice<'a> {
    type Item = PipeRisk;
    type IntoIter = RiskSliceIter<'a>;

    fn into_iter(self) -> RiskSliceIter<'a> {
        self.iter()
    }
}

/// A borrowed view of the per-pipe asset attributes decoded from the
/// snapshot's well-known `pipe_attributes` section, aligned with the
/// ranking (index `i` describes the pipe at rank `i`): three `f64`
/// columns, validated at load, so the conversions here cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct AttributesView<'a> {
    length_m: &'a [f64],
    material: &'a [f64],
    laid_year: &'a [f64],
}

impl AttributesView<'_> {
    /// Number of described pipes (always the ranking length).
    pub fn len(&self) -> usize {
        self.length_m.len()
    }

    /// True when no pipes are described.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length in metres of the pipe at rank `i`.
    pub fn length_m(&self, i: usize) -> f64 {
        self.length_m[i]
    }

    /// Material of the pipe at rank `i`.
    pub fn material(&self, i: usize) -> Material {
        Material::ALL[self.material_index(i)]
    }

    /// Index into `Material::ALL` of the pipe at rank `i`'s material.
    pub fn material_index(&self, i: usize) -> usize {
        self.material[i] as usize
    }

    /// Construction year of the pipe at rank `i`.
    pub fn laid_year(&self, i: usize) -> i32 {
        self.laid_year[i] as i32
    }
}

/// Shape of one posterior summary section as reported by
/// [`Scorer::sections_info`]: the section name and each field's name and
/// value count. Values themselves stay in the snapshot (or the mapping) —
/// the `/model` endpoint only reports shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name.
    pub name: String,
    /// `(field name, value count)` in export order.
    pub fields: Vec<(String, usize)>,
}

/// The one backing: validated v2 bytes plus their layout. Held in an
/// `Arc` by every clone of the scorer, so a mapping's `munmap` happens
/// exactly when the last holder (shard table or in-flight request) lets go.
#[derive(Debug)]
struct Columns {
    bytes: sys::Mapping,
    layout: v2::Layout,
    /// `length_m`/`material`/`laid_year` decoded from the summary blob,
    /// where the writer leaves a `pipe_attributes` section it could not
    /// extract into columns (non-canonical field order or extra fields).
    summary_attrs: Option<[Vec<f64>; 3]>,
}

impl Columns {
    /// Reinterpret a validated column range as a `u32` slice.
    fn u32s(&self, range: &Range<usize>) -> &[u32] {
        let bytes = &self.bytes.bytes()[range.clone()];
        // SAFETY: the validator proved the range 8-byte-aligned within the
        // file and the base is 8-aligned (see `sys::Mapping`), so the
        // pointer is aligned for u32; the length is a multiple of 4 by the
        // section-table element check. The crate only builds for
        // little-endian targets (see `lib.rs`), where `u32` memory layout
        // equals the on-disk little-endian encoding.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) }
    }

    /// Reinterpret a validated column range as an `f64` slice.
    fn f64s(&self, range: &Range<usize>) -> &[f64] {
        let bytes = &self.bytes.bytes()[range.clone()];
        // SAFETY: as `u32s`, with 8-byte elements.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f64, bytes.len() / 8) }
    }
}

/// In-memory scoring engine over one loaded snapshot (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct Scorer {
    model: String,
    region: String,
    seed: u64,
    format: SnapshotFormat,
    path: Option<PathBuf>,
    columns: Arc<Columns>,
}

impl Scorer {
    /// Build from an in-memory snapshot: encoded as v2 into an owned
    /// buffer and validated like a file, so a non-finite or unsorted score
    /// is refused here exactly as the file loaders refuse it. The format
    /// tag is [`SnapshotFormat::V1`], matching what `to_bytes` would write.
    pub fn new(snapshot: Snapshot) -> Result<Self, SnapshotError> {
        Self::from_snapshot(&snapshot, SnapshotFormat::V1)
    }

    fn from_snapshot(snapshot: &Snapshot, format: SnapshotFormat) -> Result<Self, SnapshotError> {
        Self::from_bytes(sys::Mapping::copy_of(&snapshot.to_bytes_v2()), format)
    }

    /// Load a snapshot file: v2 files are memory-mapped (one strict
    /// validation pass over the mapped bytes, then zero-copy serving); v1
    /// files are parsed and held as an owned v2 copy. The scorer remembers
    /// `path` ([`Scorer::path`]).
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let io = |e: std::io::Error| SnapshotError::Io(e.to_string());
        let mut scorer = if peek_version(path)? == SNAPSHOT_VERSION_V2 {
            Self::from_bytes(
                sys::Mapping::map_path(path).map_err(io)?,
                SnapshotFormat::V2,
            )?
        } else {
            let snapshot = Snapshot::from_bytes(&std::fs::read(path).map_err(io)?)?;
            Self::from_snapshot(&snapshot, SnapshotFormat::V1)?
        };
        scorer.path = Some(path.to_path_buf());
        Ok(scorer)
    }

    /// Validate v2 `bytes` in place and serve from them.
    fn from_bytes(bytes: sys::Mapping, format: SnapshotFormat) -> Result<Self, SnapshotError> {
        let layout = v2::validate(bytes.bytes())?;
        let text = |range: &Range<usize>| {
            String::from_utf8_lossy(&bytes.bytes()[range.clone()]).into_owned()
        };
        let (model, region) = (text(&layout.model), text(&layout.region));
        let summary_attrs = summary_attrs(&layout);
        Ok(Self {
            model,
            region,
            seed: layout.seed,
            format,
            path: None,
            columns: Arc::new(Columns { bytes, layout, summary_attrs }),
        })
    }

    /// Display name of the frozen model.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Region/dataset the model was fitted on.
    pub fn region(&self) -> &str {
        &self.region
    }

    /// Master seed of the fit (provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// On-disk format this scorer was built from (`v1`/`v2`). In-memory
    /// scorers report v1, the format `Snapshot::to_bytes` writes.
    pub fn format(&self) -> SnapshotFormat {
        self.format
    }

    /// The file this scorer was loaded from ([`Scorer::load`]); `None` for
    /// an in-memory snapshot ([`Scorer::new`]). A served shard watches this
    /// file for hot-reload (see [`crate::reload`]).
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// True when the scorer serves directly from a memory-mapped file.
    pub fn mapped(&self) -> bool {
        self.columns.bytes.is_mapped()
    }

    /// How the snapshot is held: `"mmap"` (zero-copy mapping) or `"heap"`
    /// (owned copy). Reported by `/model`.
    pub fn loader(&self) -> &'static str {
        if self.mapped() {
            "mmap"
        } else {
            "heap"
        }
    }

    /// Number of ranked pipes.
    pub fn len(&self) -> usize {
        self.columns.layout.n_pipes
    }

    /// True when the snapshot ranked no pipes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of the posterior summary sections carried by the snapshot
    /// (names and field value counts, as reported by `/model`), in export
    /// order: extracted attribute columns are reported at their original
    /// position.
    pub fn sections_info(&self) -> Vec<SectionInfo> {
        let layout = &self.columns.layout;
        let mut infos: Vec<SectionInfo> = layout
            .summary
            .iter()
            .map(|s| SectionInfo {
                name: s.name.clone(),
                fields: s
                    .fields
                    .iter()
                    .map(|f| (f.name.clone(), f.values.len()))
                    .collect(),
            })
            .collect();
        if let (Some(_), Some(pos)) = (&layout.attrs, layout.attr_pos) {
            let n = layout.n_pipes;
            infos.insert(
                pos,
                SectionInfo {
                    name: ATTRIBUTES_SECTION.to_string(),
                    fields: vec![
                        (ATTR_LENGTH_M.to_string(), n),
                        (ATTR_MATERIAL.to_string(), n),
                        (ATTR_LAID_YEAR.to_string(), n),
                    ],
                },
            );
        }
        infos
    }

    /// Per-pipe asset attributes (length / material / construction year),
    /// when the snapshot carries a valid `pipe_attributes` section: every
    /// field the same length as the ranking, lengths finite and
    /// non-negative, material indices inside the catalogue, integral years.
    /// A malformed section is ignored rather than served — top-K and point
    /// lookups keep working, aggregation queries that need attributes get
    /// a typed refusal. Rank `i` of the ranking owns index `i` of the view.
    pub fn attributes(&self) -> Option<AttributesView<'_>> {
        let c = &self.columns;
        if let Some(cols) = &c.layout.attrs {
            return Some(AttributesView {
                length_m: c.f64s(&cols.length_m),
                material: c.f64s(&cols.material),
                laid_year: c.f64s(&cols.laid_year),
            });
        }
        c.summary_attrs.as_ref().map(|[length_m, material, laid_year]| AttributesView {
            length_m,
            material,
            laid_year,
        })
    }

    /// One-line identity used in logs ("which model is this process
    /// serving right now?") — the hot-reload watcher prints it after every
    /// successful swap.
    pub fn describe(&self) -> String {
        format!(
            "{} / {} ({} pipes, seed {})",
            self.model,
            self.region,
            self.len(),
            self.seed
        )
    }

    /// The `k` riskiest pipes (all of them when `k > len`), descending:
    /// a pair of column prefixes, zero-copy.
    pub fn top_k(&self, k: usize) -> RiskSlice<'_> {
        let c = &self.columns;
        let k = k.min(self.len());
        RiskSlice {
            inner: SliceInner::Cols {
                ids: &c.u32s(&c.layout.pipe_ids)[..k],
                scores: &c.f64s(&c.layout.scores)[..k],
            },
        }
    }

    /// One pipe's risk, if it was ranked. O(log n): a binary search over
    /// the index columns (a traced perfbench `lookup` run reports its cost
    /// as `scorer.risk_of_ns`).
    pub fn risk_of(&self, pipe: PipeId) -> Option<PipeRisk> {
        let c = &self.columns;
        let i = c.u32s(&c.layout.index_ids).binary_search(&pipe.0).ok()?;
        let rank = c.u32s(&c.layout.index_ranks)[i] as usize;
        Some(PipeRisk {
            pipe,
            score: c.f64s(&c.layout.scores)[rank],
            rank,
        })
    }

    /// Reconstruct the full [`RiskRanking`] — bit-identical to the ranking
    /// that was frozen (used by the risk-map endpoint and equivalence
    /// tests).
    pub fn ranking(&self) -> RiskRanking {
        RiskRanking::new(
            self.top_k(usize::MAX)
                .iter()
                .map(|e| pipefail_core::model::RiskScore {
                    pipe: e.pipe,
                    score: e.score,
                })
                .collect(),
        )
    }

    /// Answer one query.
    pub fn answer(&self, query: Query) -> QueryResult {
        match query {
            Query::TopK(k) => QueryResult::TopK(self.top_k(k).to_vec()),
            Query::Pipe(pipe) => QueryResult::Pipe(self.risk_of(pipe)),
        }
    }

    /// Answer a batch of queries, fanned out over `pool`. Results are in
    /// query order at any thread count (the pool's determinism contract —
    /// each answer is a pure function of the query and the frozen table).
    pub fn answer_batch(&self, queries: &[Query], pool: &TaskPool) -> Vec<QueryResult> {
        pool.run(queries.len(), |i| self.answer(queries[i]))
    }
}

/// Read the 24-byte header of a snapshot file and return its version,
/// with the same errors the full parse would produce for a short or
/// mislabeled file.
fn peek_version(path: &Path) -> Result<u16, SnapshotError> {
    let mut file = std::fs::File::open(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    let mut head = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < head.len() {
        match file.read(&mut head[got..]) {
            Ok(0) => {
                return Err(SnapshotError::TooShort {
                    need: HEADER_LEN,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(SnapshotError::Io(e.to_string())),
        }
    }
    if head[..6] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u16::from_le_bytes([head[6], head[7]]))
}

/// Decode a `pipe_attributes` section the writer left in the summary blob
/// into three owned columns, by field name — `None` when the writer
/// extracted columns instead, or when the section is absent, misaligned
/// with the ranking, or fails the rules the validator applies to
/// extracted columns ([`v2::attr_values_valid`]).
fn summary_attrs(layout: &v2::Layout) -> Option<[Vec<f64>; 3]> {
    if layout.attrs.is_some() {
        return None;
    }
    let section = layout.summary.iter().find(|s| s.name == ATTRIBUTES_SECTION)?;
    let [Some(length_m), Some(material), Some(laid_year)] =
        [ATTR_LENGTH_M, ATTR_MATERIAL, ATTR_LAID_YEAR].map(|name| section.field(name))
    else {
        return None;
    };
    let n = layout.n_pipes;
    (length_m.len() == n
        && material.len() == n
        && laid_year.len() == n
        && v2::attr_values_valid(length_m, material, laid_year))
    .then(|| [length_m.to_vec(), material.to_vec(), laid_year.to_vec()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};

    fn snapshot() -> Snapshot {
        let ranking = RiskRanking::new(
            (0..100u32)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: f64::from(i % 10) + f64::from(i) / 1000.0,
                })
                .collect(),
        );
        Snapshot::new("DPMHBP", "Region A", 7, &ranking)
    }

    fn scorer() -> Scorer {
        Scorer::new(snapshot()).expect("valid snapshot")
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pipefail_scorer_tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(format!("{tag}_{}.pfsnap", std::process::id()))
    }

    #[test]
    fn top_k_matches_ranking_order() {
        let s = scorer();
        assert_eq!(s.len(), 100);
        let top = s.top_k(3);
        assert_eq!(top.len(), 3);
        assert!(top.at(0).score >= top.at(1).score && top.at(1).score >= top.at(2).score);
        assert_eq!(top.at(0).rank, 0);
        // k beyond len clamps.
        assert_eq!(s.top_k(1000).len(), 100);
        assert_eq!(s.top_k(0).len(), 0);
        assert!(s.top_k(0).is_empty());
        // The reconstructed ranking is the same object the snapshot froze.
        let r = s.ranking();
        assert_eq!(r.len(), 100);
        assert_eq!(r.scores()[0].pipe, top.at(0).pipe);
    }

    #[test]
    fn risk_of_finds_every_pipe_and_misses_unranked() {
        let s = scorer();
        for e in s.top_k(100) {
            let hit = s.risk_of(e.pipe).expect("ranked pipe");
            assert_eq!(hit, e);
        }
        assert_eq!(s.risk_of(PipeId(10_000)), None);
    }

    #[test]
    fn batch_answers_in_query_order_at_any_thread_count() {
        let s = scorer();
        let queries = vec![
            Query::TopK(5),
            Query::Pipe(PipeId(42)),
            Query::Pipe(PipeId(9999)),
            Query::TopK(0),
        ];
        let serial = s.answer_batch(&queries, &TaskPool::serial());
        for threads in [2, 4, 8] {
            assert_eq!(s.answer_batch(&queries, &TaskPool::new(threads)), serial);
        }
        assert!(matches!(&serial[0], QueryResult::TopK(v) if v.len() == 5));
        assert!(matches!(&serial[1], QueryResult::Pipe(Some(r)) if r.pipe == PipeId(42)));
        assert!(matches!(&serial[2], QueryResult::Pipe(None)));
        assert!(matches!(&serial[3], QueryResult::TopK(v) if v.is_empty()));
    }

    #[test]
    fn attributes_decode_only_when_aligned_and_valid() {
        use pipefail_core::snapshot::attributes_section;

        let ranking = RiskRanking::new(
            (0..4u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let attach = |length: Vec<f64>, material: Vec<f64>, year: Vec<f64>| {
            let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
            snap.push_section(attributes_section(length, material, year));
            Scorer::new(snap).expect("valid snapshot")
        };

        // Valid: aligned, finite, catalogued materials.
        let s = attach(
            vec![10.0, 20.0, 30.0, 40.0],
            vec![0.0, 8.0, 1.0, 1.0],
            vec![1920.0, 1950.0, 1980.0, 2010.0],
        );
        let attrs = s.attributes().expect("valid attributes decode");
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs.length_m(1), 20.0);
        assert_eq!(attrs.material(0), Material::ALL[0]);
        assert_eq!(attrs.material(1), Material::ALL[8]);
        assert_eq!(attrs.material_index(1), 8);
        assert_eq!(attrs.laid_year(3), 2010);

        // No section at all: attributes absent, scorer still works.
        assert!(scorer().attributes().is_none());

        // Misaligned, negative length, out-of-catalogue material, and
        // fractional year are each dropped whole.
        for (length, material, year) in [
            (vec![10.0; 3], vec![0.0; 4], vec![1950.0; 4]),
            (vec![10.0, -1.0, 10.0, 10.0], vec![0.0; 4], vec![1950.0; 4]),
            (vec![10.0; 4], vec![0.0, 99.0, 0.0, 0.0], vec![1950.0; 4]),
            (vec![10.0; 4], vec![0.0; 4], vec![1950.5, 1950.0, 1950.0, 1950.0]),
        ] {
            assert!(attach(length, material, year).attributes().is_none());
        }
    }

    #[test]
    fn metadata_round_trips() {
        let s = scorer();
        assert_eq!(s.model(), "DPMHBP");
        assert_eq!(s.region(), "Region A");
        assert_eq!(s.seed(), 7);
        assert!(!s.is_empty());
        assert!(s.sections_info().is_empty());
        assert_eq!(s.describe(), "DPMHBP / Region A (100 pipes, seed 7)");
        assert_eq!(s.format(), SnapshotFormat::V1);
        assert!(!s.mapped());
        assert_eq!(s.loader(), "heap");
        assert_eq!(s.path(), None);
    }

    #[test]
    fn load_maps_v2_files_and_copies_v1_files() {
        let snap = snapshot();

        let v1_path = temp_path("negotiate_v1");
        snap.save_as(&v1_path, SnapshotFormat::V1).expect("save v1");
        let v1 = Scorer::load(&v1_path).expect("load v1");
        assert_eq!(v1.format(), SnapshotFormat::V1);
        assert!(!v1.mapped());
        assert_eq!(v1.loader(), "heap");
        assert_eq!(v1.path(), Some(v1_path.as_path()));

        let v2_path = temp_path("negotiate_v2");
        snap.save_as(&v2_path, SnapshotFormat::V2).expect("save v2");
        let v2 = Scorer::load(&v2_path).expect("load v2");
        assert_eq!(v2.format(), SnapshotFormat::V2);
        assert!(v2.mapped());
        assert_eq!(v2.loader(), "mmap");
        assert_eq!(v2.path(), Some(v2_path.as_path()));

        // All three (with the in-memory scorer) answer identically.
        let mem = scorer();
        for s in [&v1, &v2] {
            assert_eq!(s.describe(), mem.describe());
            assert_eq!(s.top_k(10).to_vec(), mem.top_k(10).to_vec());
            for pipe in [PipeId(0), PipeId(57), PipeId(10_000)] {
                assert_eq!(s.risk_of(pipe), mem.risk_of(pipe));
            }
            assert_eq!(s.ranking(), mem.ranking());
        }

        std::fs::remove_file(&v1_path).ok();
        std::fs::remove_file(&v2_path).ok();
    }

    #[test]
    fn new_validates_like_the_file_loaders() {
        let ranking = RiskRanking::new(vec![
            RiskScore { pipe: PipeId(1), score: 0.5 },
            RiskScore { pipe: PipeId(2), score: f64::NAN },
        ]);
        assert!(matches!(
            Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking)),
            Err(SnapshotError::NonFiniteScore(_))
        ));
    }

    #[test]
    fn short_and_foreign_files_fail_typed() {
        let path = temp_path("short");
        std::fs::write(&path, b"PFSN").expect("write");
        assert!(matches!(
            Scorer::load(&path),
            Err(SnapshotError::TooShort { .. })
        ));
        std::fs::write(&path, vec![0u8; 64]).expect("write");
        assert!(matches!(Scorer::load(&path), Err(SnapshotError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }
}
