//! Model snapshots: the frozen, servable output of a fit.
//!
//! A [`Snapshot`] decouples *fitting* from *scoring*: an experiment binary
//! (or `pipefail snapshot`) fits a model once, exports the ranking plus a
//! compact posterior summary, and a serving process (`pipefail serve`,
//! `pipefail-serve`) loads the file and answers top-K / per-pipe queries
//! without ever touching MCMC. The format is hand-rolled binary — the
//! dependency policy of this workspace rules out serde — and is specified
//! byte by byte in `docs/SNAPSHOT_FORMAT.md`; this module is the reference
//! implementation of that spec.
//!
//! Design points:
//!
//! * **Lossless floats.** Scores and summary values round-trip through
//!   `f64::to_bits`, so a served ranking is *byte-identical* to the
//!   in-process ranking that produced it.
//! * **Integrity first.** A magic string, a format version, and an FNV-1a
//!   checksum over the payload guard the header; loading is *strict*: any
//!   truncation, bit flip, unsorted ranking, or trailing garbage is a typed
//!   [`SnapshotError`], never a silent best-effort load, because a serving
//!   process must refuse to serve a corrupt model.
//! * **Atomic writes.** Files are written to a `.tmp` sibling and renamed
//!   into place, so a crash mid-export never leaves a half-written snapshot
//!   where a server might pick it up.
//!
//! # Examples
//!
//! ```
//! use pipefail_core::model::{RiskRanking, RiskScore};
//! use pipefail_core::snapshot::{Snapshot, SummarySection};
//! use pipefail_network::ids::PipeId;
//!
//! let ranking = RiskRanking::new(vec![
//!     RiskScore { pipe: PipeId(3), score: 0.9 },
//!     RiskScore { pipe: PipeId(1), score: 0.2 },
//! ]);
//! let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
//! snap.push_section(
//!     SummarySection::new("clusters").with_scalar("mean_count", 4.5),
//! );
//! let bytes = snap.to_bytes();
//! let back = Snapshot::from_bytes(&bytes).unwrap();
//! assert_eq!(back, snap);
//! assert_eq!(back.ranking().pipes_in_order().next(), Some(PipeId(3)));
//! ```

use crate::model::{FailureModel, RiskRanking, RiskScore};
use crate::Result;
use pipefail_network::ids::PipeId;
use std::path::Path;

/// The six leading bytes of every snapshot file.
pub const MAGIC: [u8; 6] = *b"PFSNAP";

/// Name of the well-known summary section carrying per-pipe asset
/// attributes for aggregation queries (`POST /aggregate`). Its three
/// fields — [`ATTR_LENGTH_M`], [`ATTR_MATERIAL`], [`ATTR_LAID_YEAR`] —
/// are vectors **aligned with the snapshot's score order** (entry `i`
/// describes the pipe at rank `i`). The section is optional: snapshots
/// without it still serve top-K and point lookups, but aggregation
/// queries that need pipe length, material, or age cohorts are refused
/// with a typed error.
pub const ATTRIBUTES_SECTION: &str = "pipe_attributes";

/// Per-pipe length in metres (finite, non-negative).
pub const ATTR_LENGTH_M: &str = "length_m";

/// Per-pipe material, stored as the f64 of its index into the material
/// catalogue (`pipefail_network::attributes::Material::ALL`).
pub const ATTR_MATERIAL: &str = "material";

/// Per-pipe construction year, stored as the f64 of the year.
pub const ATTR_LAID_YEAR: &str = "laid_year";

/// Build the [`ATTRIBUTES_SECTION`] from three equally-long vectors
/// aligned with the snapshot's score order. The caller is responsible for
/// the alignment; serving-side validation rejects misaligned sections at
/// load instead of serving garbage aggregates.
pub fn attributes_section(
    length_m: Vec<f64>,
    material: Vec<f64>,
    laid_year: Vec<f64>,
) -> SummarySection {
    SummarySection::new(ATTRIBUTES_SECTION)
        .with_field(ATTR_LENGTH_M, length_m)
        .with_field(ATTR_MATERIAL, material)
        .with_field(ATTR_LAID_YEAR, laid_year)
}

/// The original (version-1) heap-parsed format (header bytes 6..8,
/// little-endian).
pub const SNAPSHOT_VERSION: u16 = 1;

/// The version-2 mmap-friendly columnar format: fixed-width, 8-byte-aligned
/// sections laid out for zero-copy serving. See the [`v2`] module and
/// `docs/SNAPSHOT_FORMAT.md`.
pub const SNAPSHOT_VERSION_V2: u16 = 2;

/// Fixed header size in bytes: magic (6) + version (2) + checksum (8) +
/// payload length (8). Shared by both format versions.
pub const HEADER_LEN: usize = 24;

/// Which on-disk encoding to write. Both decode through
/// [`Snapshot::from_bytes`], which negotiates on the header version;
/// [`Snapshot::save`] writes v2, and v1 remains readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFormat {
    /// Version 1: variable-width, heap-parsed.
    V1,
    /// Version 2: aligned columnar, mmap-servable. The default for new
    /// snapshots.
    V2,
}

impl SnapshotFormat {
    /// Short human label (`"v1"` / `"v2"`), as printed by the CLI and the
    /// `/model` endpoint.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotFormat::V1 => "v1",
            SnapshotFormat::V2 => "v2",
        }
    }

    /// The header version this format writes.
    pub fn version(self) -> u16 {
        match self {
            SnapshotFormat::V1 => SNAPSHOT_VERSION,
            SnapshotFormat::V2 => SNAPSHOT_VERSION_V2,
        }
    }
}

impl std::fmt::Display for SnapshotFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A named vector of posterior-summary values (e.g. `"beta"` for Cox
/// coefficients, `"mean"` for per-pipe posterior means).
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryField {
    /// Field name, unique within its section.
    pub name: String,
    /// The values; scalars are length-1 vectors.
    pub values: Vec<f64>,
}

/// A named group of [`SummaryField`]s describing one aspect of a fitted
/// model's posterior (cluster traces, group rates, coefficient vectors).
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySection {
    /// Section name (e.g. `"clusters"`, `"group_posterior[material]"`).
    pub name: String,
    /// The section's fields, in export order.
    pub fields: Vec<SummaryField>,
}

impl SummarySection {
    /// An empty section called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    /// This section with a vector field appended.
    pub fn with_field(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.fields.push(SummaryField {
            name: name.into(),
            values,
        });
        self
    }

    /// This section with a scalar field appended.
    pub fn with_scalar(self, name: impl Into<String>, value: f64) -> Self {
        self.with_field(name, vec![value])
    }

    /// The values of the field called `name`, if present.
    pub fn field(&self, name: &str) -> Option<&[f64]> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.values.as_slice())
    }
}

/// Why a snapshot failed to load. Every variant means "do not serve this
/// file" — there is deliberately no lenient fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    TooShort {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        got: usize,
    },
    /// The first six bytes are not [`MAGIC`].
    BadMagic,
    /// Header version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u16),
    /// The header's payload length disagrees with the file size.
    LengthMismatch {
        /// Payload length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// FNV-1a checksum over the payload does not match the header.
    ChecksumMismatch {
        /// Checksum the header declares.
        declared: u64,
        /// Checksum of the bytes as read.
        actual: u64,
    },
    /// The payload ended mid-field.
    Truncated(&'static str),
    /// A string field is not valid UTF-8.
    BadUtf8(&'static str),
    /// A score is NaN or infinite — a snapshot never stores a poisoned fit.
    NonFiniteScore(u32),
    /// Scores are not in descending order — the ranking invariant is part
    /// of the format, not a load-time courtesy.
    UnsortedScores {
        /// Index of the first out-of-order entry.
        at: usize,
    },
    /// A v2 structure violates the format's 8-byte alignment rules (payload
    /// length or a section offset).
    Misaligned(&'static str),
    /// The v2 section table is malformed: unknown or duplicate kind,
    /// reserved bits set, out-of-bounds, overlapping or gapped sections,
    /// mismatched lengths, or a missing required section.
    BadSectionTable(&'static str),
    /// The v2 binary-search index is not sorted ascending by
    /// `(pipe id, rank)` — point lookups over mapped bytes would be wrong.
    UnsortedIndex {
        /// Index of the first out-of-order entry.
        at: usize,
    },
    /// A v2 attribute column holds a value the serving-side decoder would
    /// reject (negative length, out-of-catalogue material, fractional
    /// year). The writer never emits these, so they always mean corruption.
    BadAttributes(&'static str),
    /// Reading the file itself failed.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort { need, got } => {
                write!(f, "snapshot too short: need {need} bytes, got {got}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION}, {SNAPSHOT_VERSION_V2})"
                )
            }
            SnapshotError::LengthMismatch { declared, actual } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, found {actual}"
            ),
            SnapshotError::ChecksumMismatch { declared, actual } => write!(
                f,
                "checksum mismatch: header declares {declared:016x}, payload hashes to {actual:016x}"
            ),
            SnapshotError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            SnapshotError::BadUtf8(what) => write!(f, "invalid UTF-8 in {what}"),
            SnapshotError::NonFiniteScore(pipe) => {
                write!(f, "non-finite score for pipe {pipe}")
            }
            SnapshotError::UnsortedScores { at } => {
                write!(f, "scores not in descending order at index {at}")
            }
            SnapshotError::Misaligned(what) => write!(f, "misaligned {what}"),
            SnapshotError::BadSectionTable(what) => {
                write!(f, "bad section table: {what}")
            }
            SnapshotError::UnsortedIndex { at } => {
                write!(f, "index not sorted by (pipe id, rank) at entry {at}")
            }
            SnapshotError::BadAttributes(what) => {
                write!(f, "invalid attribute column {what}")
            }
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A fitted model frozen for serving: identity, the full descending risk
/// ranking, and the posterior summary sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Model display name ("DPMHBP", "Cox", …).
    pub model: String,
    /// Dataset/region the model was fitted on.
    pub region: String,
    /// Master seed of the fit (provenance; replaying the fit with this seed
    /// reproduces the ranking bit for bit).
    pub seed: u64,
    /// `(pipe, score)` pairs in descending score order.
    pub scores: Vec<(PipeId, f64)>,
    /// Posterior summary sections, in export order.
    pub sections: Vec<SummarySection>,
}

impl Snapshot {
    /// Freeze `ranking` under the given identity; summary sections start
    /// empty (see [`Snapshot::push_section`] / [`Snapshot::from_fit`]).
    pub fn new(
        model: impl Into<String>,
        region: impl Into<String>,
        seed: u64,
        ranking: &RiskRanking,
    ) -> Self {
        Self {
            model: model.into(),
            region: region.into(),
            seed,
            scores: ranking.scores().iter().map(|s| (s.pipe, s.score)).collect(),
            sections: Vec::new(),
        }
    }

    /// Freeze a fitted model: takes the display name and posterior summary
    /// from the model itself ([`FailureModel::posterior_summary`]).
    pub fn from_fit(
        model: &dyn FailureModel,
        region: impl Into<String>,
        seed: u64,
        ranking: &RiskRanking,
    ) -> Self {
        let mut snap = Self::new(model.name(), region, seed, ranking);
        snap.sections = model.posterior_summary();
        snap
    }

    /// Append a posterior summary section.
    pub fn push_section(&mut self, section: SummarySection) {
        self.sections.push(section);
    }

    /// The section called `name`, if present.
    pub fn section(&self, name: &str) -> Option<&SummarySection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Number of ranked pipes.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no pipes are ranked.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Reconstruct the [`RiskRanking`]. Scores are stored sorted, so this
    /// is exactly the ranking that was frozen (stable re-sort of an
    /// already-sorted vector).
    pub fn ranking(&self) -> RiskRanking {
        RiskRanking::new(
            self.scores
                .iter()
                .map(|&(pipe, score)| RiskScore { pipe, score })
                .collect(),
        )
    }

    /// Serialize to the on-disk byte format (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        put_str(&mut payload, &self.model);
        put_str(&mut payload, &self.region);
        payload.extend_from_slice(&self.seed.to_le_bytes());
        put_u32(&mut payload, self.scores.len() as u32);
        for &(pipe, score) in &self.scores {
            put_u32(&mut payload, pipe.0);
            payload.extend_from_slice(&score.to_bits().to_le_bytes());
        }
        put_sections(&mut payload, &self.sections);

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv_bytes(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Serialize to the version-2 aligned columnar format (see [`v2`]).
    pub fn to_bytes_v2(&self) -> Vec<u8> {
        v2::encode(self)
    }

    /// Serialize in the requested format.
    pub fn to_bytes_as(&self, format: SnapshotFormat) -> Vec<u8> {
        match format {
            SnapshotFormat::V1 => self.to_bytes(),
            SnapshotFormat::V2 => self.to_bytes_v2(),
        }
    }

    /// Parse and fully validate the byte format. Strict: any malformation
    /// is an error, and the scores' descending-order invariant is checked
    /// so a loaded snapshot can be served without re-sorting.
    pub fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::TooShort {
                need: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[..6] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        match version {
            SNAPSHOT_VERSION => {}
            SNAPSHOT_VERSION_V2 => return v2::decode(bytes),
            v => return Err(SnapshotError::UnsupportedVersion(v)),
        }
        let declared_sum = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let declared_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if declared_len != payload.len() as u64 {
            return Err(SnapshotError::LengthMismatch {
                declared: declared_len,
                actual: payload.len() as u64,
            });
        }
        let actual_sum = fnv_bytes(payload);
        if actual_sum != declared_sum {
            return Err(SnapshotError::ChecksumMismatch {
                declared: declared_sum,
                actual: actual_sum,
            });
        }

        let mut cur = Cursor { buf: payload, pos: 0 };
        let model = cur.str("model name")?;
        let region = cur.str("region name")?;
        let seed = cur.u64("seed")?;
        let n_scores = cur.count("score count", 12)?;
        let mut scores = Vec::with_capacity(n_scores);
        for i in 0..n_scores {
            let pipe = cur.u32("score pipe id")?;
            let score = f64::from_bits(cur.u64("score value")?);
            if !score.is_finite() {
                return Err(SnapshotError::NonFiniteScore(pipe));
            }
            if let Some(&(_, prev)) = scores.last() {
                if score > prev {
                    return Err(SnapshotError::UnsortedScores { at: i });
                }
            }
            scores.push((PipeId(pipe), score));
        }
        let sections = read_sections(&mut cur)?;
        if cur.pos != payload.len() {
            return Err(SnapshotError::Truncated("trailing bytes after payload"));
        }
        Ok(Self {
            model,
            region,
            seed,
            scores,
            sections,
        })
    }

    /// Write atomically to `path` in the v2 format the server maps.
    pub fn save(&self, path: &Path) -> Result<()> {
        atomic_write(path, &self.to_bytes_v2())
    }

    /// Write atomically in the requested format.
    pub fn save_as(&self, path: &Path, format: SnapshotFormat) -> Result<()> {
        atomic_write(path, &self.to_bytes_as(format))
    }

    /// Load and validate a snapshot file.
    pub fn load(path: &Path) -> std::result::Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

/// FNV-1a 64 over raw bytes, one byte per step: the v1 payload checksum.
fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Crash-safe file write: create the parent directory, write `bytes` to a
/// `.tmp` sibling, then rename into place so a crash mid-write never
/// corrupts an existing file.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or(crate::CoreError::BadConfig(
            "atomic_write needs a file path",
        ))?
        .to_string_lossy();
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Encode a section list (count + sections) in the v1 wire shape. Used for
/// the v1 payload tail and for the v2 `SUMMARY` blob.
fn put_sections(buf: &mut Vec<u8>, sections: &[SummarySection]) {
    put_u32(buf, sections.len() as u32);
    for section in sections {
        put_str(buf, &section.name);
        put_u32(buf, section.fields.len() as u32);
        for field in &section.fields {
            put_str(buf, &field.name);
            put_u32(buf, field.values.len() as u32);
            for v in &field.values {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Decode a section list written by [`put_sections`].
fn read_sections(cur: &mut Cursor<'_>) -> std::result::Result<Vec<SummarySection>, SnapshotError> {
    let n_sections = cur.count("section count", 8)?;
    let mut sections = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let name = cur.str("section name")?;
        let n_fields = cur.count("field count", 8)?;
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let fname = cur.str("field name")?;
            let n_values = cur.count("value count", 8)?;
            let mut values = Vec::with_capacity(n_values);
            for _ in 0..n_values {
                values.push(f64::from_bits(cur.u64("field value")?));
            }
            fields.push(SummaryField { name: fname, values });
        }
        sections.push(SummarySection { name, fields });
    }
    Ok(sections)
}

/// Bounds-checked little-endian reader over the payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize, what: &'static str) -> std::result::Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated(what))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, what: &'static str) -> std::result::Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> std::result::Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an element count and pre-validate that `count * min_elem_bytes`
    /// still fits in the remaining payload, so a corrupted count can never
    /// drive a huge allocation.
    fn count(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> std::result::Result<usize, SnapshotError> {
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(SnapshotError::Truncated(what));
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> std::result::Result<String, SnapshotError> {
        let len = self.count(what, 1)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::BadUtf8(what))
    }
}

pub mod v2 {
    //! The version-2 mmap-friendly snapshot layout.
    //!
    //! The payload (everything after the shared 24-byte header) is built
    //! from fixed-width, 8-byte-aligned pieces so a serving process can map
    //! the file and binary-search / scan it in place:
    //!
    //! * a 32-byte **preamble**: `seed u64`, `n_pipes u64`, `n_sections
    //!   u64`, `attr_pos u64` (original index of the extracted attribute
    //!   section among the snapshot's summary sections, or
    //!   [`NO_ATTRIBUTES`]);
    //! * a **section table** of `n_sections` 32-byte entries: `kind u32`,
    //!   `reserved u32` (zero), `offset u64` (payload-relative, 8-aligned),
    //!   `count u64` (elements), `byte_len u64`;
    //! * the section **data blobs**, contiguous in table order, each padded
    //!   with zero bytes to the next 8-byte boundary.
    //!
    //! Sections `MODEL..=INDEX_RANKS` are mandatory; the three attribute
    //! columns are all-or-none; `SUMMARY` (the remaining posterior sections
    //! in the v1 wire shape) is optional. The checksum is FNV-1a folded
    //! over little-endian 8-byte words ([`fnv1a_words`]) — the payload
    //! length is a multiple of 8 by construction — so the one-pass
    //! integrity check stays cheap enough to run on every map.
    //!
    //! [`validate`] is the single strict validator: both the heap decoder
    //! ([`decode`], reached through [`Snapshot::from_bytes`]) and the
    //! serving-side mmap loader run it over the raw bytes, so the two
    //! loaders accept exactly the same set of files.

    use super::*;
    use pipefail_network::attributes::Material;
    use std::ops::Range;

    /// Preamble length in bytes (seed, n_pipes, n_sections, attr_pos).
    pub const PREAMBLE_LEN: usize = 32;

    /// Section-table entry length in bytes (kind, reserved, offset, count,
    /// byte_len).
    pub const SECTION_ENTRY_LEN: usize = 32;

    /// `attr_pos` sentinel: the snapshot has no extracted attribute columns.
    pub const NO_ATTRIBUTES: u64 = u64::MAX;

    /// Model name, UTF-8 bytes.
    pub const KIND_MODEL: u32 = 1;
    /// Region name, UTF-8 bytes.
    pub const KIND_REGION: u32 = 2;
    /// Pipe ids in rank order, `u32` little-endian.
    pub const KIND_PIPE_IDS: u32 = 3;
    /// Risk scores in descending order, `f64` bits little-endian.
    pub const KIND_SCORES: u32 = 4;
    /// Binary-search index: pipe ids sorted ascending by `(id, rank)`.
    pub const KIND_INDEX_IDS: u32 = 5;
    /// Binary-search index: rank of the pipe at the same position of
    /// [`KIND_INDEX_IDS`].
    pub const KIND_INDEX_RANKS: u32 = 6;
    /// Per-pipe length in metres, rank order, `f64`.
    pub const KIND_ATTR_LENGTH_M: u32 = 7;
    /// Per-pipe material catalogue index, rank order, `f64`.
    pub const KIND_ATTR_MATERIAL: u32 = 8;
    /// Per-pipe construction year, rank order, `f64`.
    pub const KIND_ATTR_LAID_YEAR: u32 = 9;
    /// Remaining posterior summary sections, v1 wire shape.
    pub const KIND_SUMMARY: u32 = 10;

    const KIND_MAX: u32 = KIND_SUMMARY;

    /// Element width in bytes for a section kind.
    fn elem_len(kind: u32) -> usize {
        match kind {
            KIND_MODEL | KIND_REGION | KIND_SUMMARY => 1,
            KIND_PIPE_IDS | KIND_INDEX_IDS | KIND_INDEX_RANKS => 4,
            _ => 8,
        }
    }

    /// FNV-1a folded over little-endian 8-byte words, four interleaved
    /// lanes. `bytes.len()` must be a multiple of 8 (the v2 payload always
    /// is). Lane `i` folds words `i, i+4, i+8, …`; trailing words (when
    /// the word count is not a multiple of 4) feed the lanes in order.
    ///
    /// Why lanes: the plain FNV chain is one serial xor→multiply
    /// dependency per word, which caps the scan far below memory
    /// bandwidth; four independent chains let the multiplies overlap, and
    /// cold-start validation of a large mapped snapshot is dominated by
    /// exactly this scan. Integrity is unchanged: each lane's step is
    /// bijective on `u64` (xor, then multiply by the odd FNV prime), and
    /// the final combine — xor of lane digests, each first multiplied
    /// once more — is a bijection of each lane holding the others fixed.
    /// So any single-bit flip changes exactly one lane's digest and
    /// therefore the result (exhaustively asserted in the bit-flip tests).
    pub fn fnv1a_words(bytes: &[u8]) -> u64 {
        debug_assert_eq!(bytes.len() % 8, 0);
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        const LANES: usize = 4;
        // Distinct per-lane bases (BASIS·PRIMEⁱ) so a word contributes
        // differently by position even across lane-sized swaps.
        let mut lanes = [0u64; LANES];
        let mut basis = BASIS;
        for lane in &mut lanes {
            *lane = basis;
            basis = basis.wrapping_mul(PRIME);
        }
        let mut chunks = bytes.chunks_exact(8 * LANES);
        for block in &mut chunks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
                *lane = lane.wrapping_mul(PRIME);
            }
        }
        for (lane, word) in lanes.iter_mut().zip(chunks.remainder().chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = lane.wrapping_mul(PRIME);
        }
        lanes
            .into_iter()
            .fold(0u64, |acc, lane| acc ^ lane.wrapping_mul(PRIME))
    }

    /// Round `n` up to the next multiple of 8.
    pub fn align8(n: usize) -> usize {
        n.div_ceil(8) * 8
    }

    /// Byte ranges (into the full file buffer) of the three attribute
    /// columns.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AttrColumns {
        /// [`KIND_ATTR_LENGTH_M`] data.
        pub length_m: Range<usize>,
        /// [`KIND_ATTR_MATERIAL`] data.
        pub material: Range<usize>,
        /// [`KIND_ATTR_LAID_YEAR`] data.
        pub laid_year: Range<usize>,
    }

    /// The validated shape of a v2 snapshot: byte ranges into the full file
    /// buffer for every zero-copy column, plus the (small) decoded summary
    /// sections. Produced by [`validate`]; consumed by the heap decoder and
    /// the serving-side mmap scorer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Layout {
        /// Master seed of the fit.
        pub seed: u64,
        /// Number of ranked pipes.
        pub n_pipes: usize,
        /// Model name bytes (validated UTF-8).
        pub model: Range<usize>,
        /// Region name bytes (validated UTF-8).
        pub region: Range<usize>,
        /// Pipe-id column, rank order.
        pub pipe_ids: Range<usize>,
        /// Score column, descending.
        pub scores: Range<usize>,
        /// Index id column, ascending by `(id, rank)`.
        pub index_ids: Range<usize>,
        /// Index rank column, parallel to `index_ids`.
        pub index_ranks: Range<usize>,
        /// Attribute columns, when the writer extracted them.
        pub attrs: Option<AttrColumns>,
        /// Where the attribute section sat among the original summary
        /// sections (an insertion position into `summary`).
        pub attr_pos: Option<usize>,
        /// The non-extracted posterior summary sections, decoded.
        pub summary: Vec<SummarySection>,
    }

    /// Read the little-endian `u32` at element position `i` of a column.
    pub fn u32_at(col: &[u8], i: usize) -> u32 {
        u32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
    }

    /// Read the little-endian `f64` at element position `i` of a column.
    pub fn f64_at(col: &[u8], i: usize) -> f64 {
        f64::from_bits(u64::from_le_bytes(
            col[i * 8..i * 8 + 8].try_into().expect("8 bytes"),
        ))
    }

    /// True when the three attribute vectors satisfy every rule the
    /// serving-side decoder enforces: finite non-negative lengths, integral
    /// in-catalogue material indices, integral years in `i32` range. The
    /// writer only extracts columns that pass; the validator rejects
    /// columns that don't.
    pub fn attr_values_valid(length_m: &[f64], material: &[f64], laid_year: &[f64]) -> bool {
        length_m.iter().all(|&v| valid_length_m(v))
            && material.iter().all(|&v| valid_material(v))
            && laid_year.iter().all(|&v| valid_laid_year(v))
    }

    // The three attribute predicates below are shared by the writer-side
    // column extraction and the validator's full-column scans, so both
    // accept exactly the same set of values. They are phrased for the
    // scan's inner loop: `v <= f64::MAX` stands in for `is_finite` once
    // negatives are excluded, and a cast round-trip (`v as i32 as f64 ==
    // v`) stands in for `is_finite && fract() == 0 && in i32 range` —
    // the saturating cast collapses NaN, infinities, non-integral, and
    // out-of-range values to something that fails the round-trip. The
    // equivalences are asserted exhaustively over the edge cases in the
    // tests below; `fract()` itself was measurably the single hottest
    // call in cold-start validation of a million-pipe snapshot.

    /// Finite and non-negative.
    pub(crate) fn valid_length_m(v: f64) -> bool {
        (0.0..=f64::MAX).contains(&v)
    }

    /// Integral index into the material catalogue.
    pub(crate) fn valid_material(v: f64) -> bool {
        let i = v as i32;
        i as f64 == v && i >= 0 && (i as usize) < Material::ALL.len()
    }

    /// Integral year representable as `i32`.
    pub(crate) fn valid_laid_year(v: f64) -> bool {
        v as i32 as f64 == v
    }

    /// Payload size at or above which [`validate`] fans its checksum and
    /// column scans out over scoped threads. Below it the spawns cost more
    /// than they save and everything runs serially.
    const PARALLEL_VALIDATE_MIN_BYTES: usize = 4 << 20;

    /// One strict pass over a full v2 file: header, checksum, preamble,
    /// section table (alignment, bounds, contiguity, uniqueness), column
    /// invariants (UTF-8, finiteness, descending scores, sorted consistent
    /// index, attribute value rules), and the summary blob. Any
    /// malformation is a typed [`SnapshotError`]; nothing proportional to
    /// the pipe count is allocated.
    ///
    /// On payloads of `PARALLEL_VALIDATE_MIN_BYTES` (4 MiB) or more, the
    /// full-payload checksum and the independent column scans run on
    /// scoped threads so a large mapped snapshot validates in roughly the
    /// wall time of its slowest single scan. The reported error is
    /// identical either way: a checksum mismatch always wins, and scan
    /// errors surface in the serial order (scores, index, attributes).
    pub fn validate(bytes: &[u8]) -> std::result::Result<Layout, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::TooShort {
                need: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[..6] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[6], bytes[7]]);
        if version != SNAPSHOT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let declared_sum = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let declared_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if declared_len != payload.len() as u64 {
            return Err(SnapshotError::LengthMismatch {
                declared: declared_len,
                actual: payload.len() as u64,
            });
        }
        if !payload.len().is_multiple_of(8) {
            return Err(SnapshotError::Misaligned("payload length"));
        }
        if payload.len() < PARALLEL_VALIDATE_MIN_BYTES {
            let actual_sum = fnv1a_words(payload);
            if actual_sum != declared_sum {
                return Err(SnapshotError::ChecksumMismatch {
                    declared: declared_sum,
                    actual: actual_sum,
                });
            }
            validate_structure(bytes, false)
        } else {
            std::thread::scope(|s| {
                let sum = s.spawn(|| fnv1a_words(payload));
                let structure = validate_structure(bytes, true);
                let actual_sum = sum.join().expect("checksum thread");
                if actual_sum != declared_sum {
                    return Err(SnapshotError::ChecksumMismatch {
                        declared: declared_sum,
                        actual: actual_sum,
                    });
                }
                structure
            })
        }
    }

    /// Everything [`validate`] checks after the header and checksum:
    /// preamble, section table, column invariants, summary blob. With
    /// `parallel` the three independent column scans run on scoped
    /// threads; results are collected in the serial scan order so the
    /// reported error is the same either way.
    fn validate_structure(
        bytes: &[u8],
        parallel: bool,
    ) -> std::result::Result<Layout, SnapshotError> {
        let payload = &bytes[HEADER_LEN..];
        if payload.len() < PREAMBLE_LEN {
            return Err(SnapshotError::Truncated("v2 preamble"));
        }
        let word = |i: usize| u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let seed = word(0);
        let n_pipes_raw = word(1);
        let n_sections = word(2);
        let attr_pos_raw = word(3);
        if n_pipes_raw > u32::MAX as u64 {
            return Err(SnapshotError::BadSectionTable("pipe count exceeds u32"));
        }
        let n_pipes = n_pipes_raw as usize;
        let table_end = (n_sections as usize)
            .checked_mul(SECTION_ENTRY_LEN)
            .and_then(|t| t.checked_add(PREAMBLE_LEN))
            .filter(|&e| e <= payload.len())
            .ok_or(SnapshotError::Truncated("section table"))?;

        // Walk the table: every section strictly contiguous (offset equals
        // the aligned end of its predecessor), aligned, in bounds, unique.
        let mut ranges: [Option<(Range<usize>, usize)>; KIND_MAX as usize + 1] =
            Default::default();
        let mut cursor = table_end;
        for s in 0..n_sections as usize {
            let base = PREAMBLE_LEN + s * SECTION_ENTRY_LEN;
            let entry = &payload[base..base + SECTION_ENTRY_LEN];
            let kind = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
            let reserved = u32::from_le_bytes(entry[4..8].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let count = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
            let byte_len = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
            if reserved != 0 {
                return Err(SnapshotError::BadSectionTable("reserved bits set"));
            }
            if kind == 0 || kind > KIND_MAX {
                return Err(SnapshotError::BadSectionTable("unknown section kind"));
            }
            if ranges[kind as usize].is_some() {
                return Err(SnapshotError::BadSectionTable("duplicate section kind"));
            }
            if offset % 8 != 0 {
                return Err(SnapshotError::Misaligned("section offset"));
            }
            let offset = usize::try_from(offset)
                .map_err(|_| SnapshotError::Truncated("section data"))?;
            if offset != cursor {
                return Err(SnapshotError::BadSectionTable(
                    "sections overlap or leave a gap",
                ));
            }
            let byte_len = usize::try_from(byte_len)
                .map_err(|_| SnapshotError::Truncated("section data"))?;
            let end = offset
                .checked_add(byte_len)
                .filter(|&e| e <= payload.len())
                .ok_or(SnapshotError::Truncated("section data"))?;
            if count
                .checked_mul(elem_len(kind) as u64)
                .is_none_or(|b| b != byte_len as u64)
            {
                return Err(SnapshotError::BadSectionTable("section byte length mismatch"));
            }
            ranges[kind as usize] =
                Some((HEADER_LEN + offset..HEADER_LEN + end, count as usize));
            cursor = align8(end);
        }
        if cursor != payload.len() {
            return Err(SnapshotError::BadSectionTable("trailing bytes after sections"));
        }

        let required = |kind: u32| {
            ranges[kind as usize]
                .clone()
                .ok_or(SnapshotError::BadSectionTable("missing required section"))
        };
        let (model, _) = required(KIND_MODEL)?;
        let (region, _) = required(KIND_REGION)?;
        let column = |kind: u32| -> std::result::Result<Range<usize>, SnapshotError> {
            let (range, count) = required(kind)?;
            if count != n_pipes {
                return Err(SnapshotError::BadSectionTable("column length mismatch"));
            }
            Ok(range)
        };
        let pipe_ids = column(KIND_PIPE_IDS)?;
        let scores = column(KIND_SCORES)?;
        let index_ids = column(KIND_INDEX_IDS)?;
        let index_ranks = column(KIND_INDEX_RANKS)?;

        let attr_kinds = [KIND_ATTR_LENGTH_M, KIND_ATTR_MATERIAL, KIND_ATTR_LAID_YEAR];
        let present = attr_kinds
            .iter()
            .filter(|&&k| ranges[k as usize].is_some())
            .count();
        let attrs = match present {
            0 => None,
            3 => Some(AttrColumns {
                length_m: column(KIND_ATTR_LENGTH_M)?,
                material: column(KIND_ATTR_MATERIAL)?,
                laid_year: column(KIND_ATTR_LAID_YEAR)?,
            }),
            _ => return Err(SnapshotError::BadSectionTable("partial attribute columns")),
        };

        std::str::from_utf8(&bytes[model.clone()])
            .map_err(|_| SnapshotError::BadUtf8("model name"))?;
        std::str::from_utf8(&bytes[region.clone()])
            .map_err(|_| SnapshotError::BadUtf8("region name"))?;

        // Column scans: each is independent of the others, so on large
        // snapshots they can run concurrently. Results are collected in
        // the serial order (scores, index, attributes) so which error is
        // reported does not depend on thread timing.
        let score_col = &bytes[scores.clone()];
        let id_col = &bytes[pipe_ids.clone()];
        let ix_id_col = &bytes[index_ids.clone()];
        let ix_rank_col = &bytes[index_ranks.clone()];
        let attr_cols = attrs.as_ref().map(|c| {
            (
                &bytes[c.length_m.clone()],
                &bytes[c.material.clone()],
                &bytes[c.laid_year.clone()],
            )
        });
        if parallel {
            std::thread::scope(|s| {
                let sc = s.spawn(|| scan_scores(score_col, id_col, n_pipes));
                let ix = s.spawn(|| scan_index(ix_id_col, ix_rank_col, id_col, n_pipes));
                let at = scan_attrs(attr_cols, n_pipes);
                sc.join().expect("score scan thread")?;
                ix.join().expect("index scan thread")?;
                at
            })?;
        } else {
            scan_scores(score_col, id_col, n_pipes)?;
            scan_index(ix_id_col, ix_rank_col, id_col, n_pipes)?;
            scan_attrs(attr_cols, n_pipes)?;
        }

        // Summary blob: decode eagerly (posterior summaries are small) and
        // insist it is self-delimiting.
        let summary = match &ranges[KIND_SUMMARY as usize] {
            Some((range, _)) => {
                let mut cur = Cursor { buf: &bytes[range.clone()], pos: 0 };
                let sections = read_sections(&mut cur)?;
                if cur.pos != range.len() {
                    return Err(SnapshotError::Truncated("trailing bytes after summary"));
                }
                sections
            }
            None => Vec::new(),
        };

        let attr_pos = if attrs.is_some() {
            let pos = usize::try_from(attr_pos_raw)
                .ok()
                .filter(|&p| p <= summary.len())
                .ok_or(SnapshotError::BadSectionTable("attribute position out of range"))?;
            Some(pos)
        } else {
            if attr_pos_raw != NO_ATTRIBUTES {
                return Err(SnapshotError::BadSectionTable("stray attribute position"));
            }
            None
        };

        Ok(Layout {
            seed,
            n_pipes,
            model,
            region,
            pipe_ids,
            scores,
            index_ids,
            index_ranks,
            attrs,
            attr_pos,
            summary,
        })
    }

    // The column scans iterate `chunks_exact` rather than indexing
    // element-at-a-time: on a million-pipe mapped snapshot these scans
    // (not the table walk) are the cold-start cost, and per-element
    // bounds checks measurably slow them down.

    /// Score column: finite, descending (ties allowed).
    fn scan_scores(
        score_col: &[u8],
        id_col: &[u8],
        n_pipes: usize,
    ) -> std::result::Result<(), SnapshotError> {
        let mut prev = f64::INFINITY;
        for (i, word) in score_col.chunks_exact(8).take(n_pipes).enumerate() {
            let score = f64::from_le_bytes(word.try_into().expect("8 bytes"));
            if !score.is_finite() {
                return Err(SnapshotError::NonFiniteScore(u32_at(id_col, i)));
            }
            if score > prev {
                return Err(SnapshotError::UnsortedScores { at: i });
            }
            prev = score;
        }
        Ok(())
    }

    /// Index columns: strictly ascending by (id, rank), every rank in
    /// range, and consistent with the id column — together with the
    /// matched lengths this makes the index a permutation of the ranks.
    fn scan_index(
        ix_id_col: &[u8],
        ix_rank_col: &[u8],
        id_col: &[u8],
        n_pipes: usize,
    ) -> std::result::Result<(), SnapshotError> {
        let mut prev_pair = None;
        for (i, (id_word, rank_word)) in ix_id_col
            .chunks_exact(4)
            .zip(ix_rank_col.chunks_exact(4))
            .take(n_pipes)
            .enumerate()
        {
            let id = u32::from_le_bytes(id_word.try_into().expect("4 bytes"));
            let rank = u32::from_le_bytes(rank_word.try_into().expect("4 bytes"));
            if (rank as usize) >= n_pipes {
                return Err(SnapshotError::BadSectionTable("index rank out of range"));
            }
            if prev_pair.is_some_and(|p| (id, rank) <= p) {
                return Err(SnapshotError::UnsortedIndex { at: i });
            }
            prev_pair = Some((id, rank));
            if u32_at(id_col, rank as usize) != id {
                return Err(SnapshotError::BadSectionTable("index does not match pipe ids"));
            }
        }
        Ok(())
    }

    /// Attribute columns: enforce the serving-side decoder's value rules
    /// (the same predicates the writer's column extraction uses). Generic
    /// over the predicate so each column's check inlines into its own
    /// tight loop (a shared `fn(f64) -> bool` pointer costs an indirect
    /// call per element — millions on a large snapshot).
    fn scan_attrs(
        cols: Option<(&[u8], &[u8], &[u8])>,
        n_pipes: usize,
    ) -> std::result::Result<(), SnapshotError> {
        fn check_col<F: Fn(f64) -> bool>(
            col: &[u8],
            n: usize,
            what: &'static str,
            ok: F,
        ) -> std::result::Result<(), SnapshotError> {
            for word in col.chunks_exact(8).take(n) {
                if !ok(f64::from_le_bytes(word.try_into().expect("8 bytes"))) {
                    return Err(SnapshotError::BadAttributes(what));
                }
            }
            Ok(())
        }
        let Some((length_m, material, laid_year)) = cols else {
            return Ok(());
        };
        check_col(length_m, n_pipes, ATTR_LENGTH_M, valid_length_m)?;
        check_col(material, n_pipes, ATTR_MATERIAL, valid_material)?;
        check_col(laid_year, n_pipes, ATTR_LAID_YEAR, valid_laid_year)?;
        Ok(())
    }

    /// The attribute section's canonical shape: exactly the three
    /// well-known fields in [`attributes_section`] order, each aligned with
    /// the ranking, with values the decoder accepts. Only such sections are
    /// extracted into columns; anything else rides along verbatim in the
    /// summary blob so both loaders agree on what the snapshot contains.
    fn extractable_attrs(snap: &Snapshot) -> Option<usize> {
        let n = snap.scores.len();
        let (pos, section) = snap
            .sections
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == ATTRIBUTES_SECTION)?;
        let names: Vec<&str> = section.fields.iter().map(|f| f.name.as_str()).collect();
        if names != [ATTR_LENGTH_M, ATTR_MATERIAL, ATTR_LAID_YEAR] {
            return None;
        }
        if section.fields.iter().any(|f| f.values.len() != n) {
            return None;
        }
        if !attr_values_valid(
            &section.fields[0].values,
            &section.fields[1].values,
            &section.fields[2].values,
        ) {
            return None;
        }
        Some(pos)
    }

    /// Serialize a snapshot into the v2 byte format.
    pub fn encode(snap: &Snapshot) -> Vec<u8> {
        let n = snap.scores.len();
        assert!(n <= u32::MAX as usize, "snapshot exceeds u32 pipe count");
        let attr_pos = extractable_attrs(snap);

        let mut index: Vec<(u32, u32)> = snap
            .scores
            .iter()
            .enumerate()
            .map(|(rank, &(pipe, _))| (pipe.0, rank as u32))
            .collect();
        index.sort_unstable();

        let mut blobs: Vec<(u32, u64, Vec<u8>)> = Vec::new();
        let mut push = |kind: u32, count: usize, data: Vec<u8>| {
            blobs.push((kind, count as u64, data));
        };
        push(KIND_MODEL, snap.model.len(), snap.model.as_bytes().to_vec());
        push(KIND_REGION, snap.region.len(), snap.region.as_bytes().to_vec());
        let mut ids = Vec::with_capacity(n * 4);
        let mut scores = Vec::with_capacity(n * 8);
        for &(pipe, score) in &snap.scores {
            ids.extend_from_slice(&pipe.0.to_le_bytes());
            scores.extend_from_slice(&score.to_bits().to_le_bytes());
        }
        push(KIND_PIPE_IDS, n, ids);
        push(KIND_SCORES, n, scores);
        let mut ix_ids = Vec::with_capacity(n * 4);
        let mut ix_ranks = Vec::with_capacity(n * 4);
        for &(id, rank) in &index {
            ix_ids.extend_from_slice(&id.to_le_bytes());
            ix_ranks.extend_from_slice(&rank.to_le_bytes());
        }
        push(KIND_INDEX_IDS, n, ix_ids);
        push(KIND_INDEX_RANKS, n, ix_ranks);
        if let Some(pos) = attr_pos {
            let section = &snap.sections[pos];
            for (kind, field) in [
                (KIND_ATTR_LENGTH_M, &section.fields[0]),
                (KIND_ATTR_MATERIAL, &section.fields[1]),
                (KIND_ATTR_LAID_YEAR, &section.fields[2]),
            ] {
                let mut col = Vec::with_capacity(n * 8);
                for v in &field.values {
                    col.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                push(kind, n, col);
            }
        }
        let summary: Vec<&SummarySection> = snap
            .sections
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != attr_pos)
            .map(|(_, s)| s)
            .collect();
        if !summary.is_empty() {
            let owned: Vec<SummarySection> = summary.iter().map(|s| (*s).clone()).collect();
            let mut blob = Vec::new();
            put_sections(&mut blob, &owned);
            let len = blob.len();
            push(KIND_SUMMARY, len, blob);
        }

        let table_end = PREAMBLE_LEN + blobs.len() * SECTION_ENTRY_LEN;
        let mut payload = Vec::new();
        payload.extend_from_slice(&snap.seed.to_le_bytes());
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        payload.extend_from_slice(&(blobs.len() as u64).to_le_bytes());
        // attr_pos is the section's index among the *summary* sections it
        // would be re-inserted into (its original index, since everything
        // before it stays in the summary blob).
        payload.extend_from_slice(
            &attr_pos.map_or(NO_ATTRIBUTES, |p| p as u64).to_le_bytes(),
        );
        let mut offset = table_end;
        for (kind, count, data) in &blobs {
            payload.extend_from_slice(&kind.to_le_bytes());
            payload.extend_from_slice(&0u32.to_le_bytes());
            payload.extend_from_slice(&(offset as u64).to_le_bytes());
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&(data.len() as u64).to_le_bytes());
            offset = align8(offset + data.len());
        }
        for (_, _, data) in &blobs {
            payload.extend_from_slice(data);
            payload.resize(align8(payload.len()), 0);
        }
        debug_assert_eq!(payload.len(), offset);

        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION_V2.to_le_bytes());
        bytes.extend_from_slice(&fnv1a_words(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Validate and heap-decode a v2 file into a [`Snapshot`], the exact
    /// inverse of [`encode`].
    pub fn decode(bytes: &[u8]) -> std::result::Result<Snapshot, SnapshotError> {
        let layout = validate(bytes)?;
        let n = layout.n_pipes;
        let model = std::str::from_utf8(&bytes[layout.model.clone()])
            .expect("validated utf8")
            .to_string();
        let region = std::str::from_utf8(&bytes[layout.region.clone()])
            .expect("validated utf8")
            .to_string();
        let id_col = &bytes[layout.pipe_ids.clone()];
        let score_col = &bytes[layout.scores.clone()];
        let scores: Vec<(PipeId, f64)> = (0..n)
            .map(|i| (PipeId(u32_at(id_col, i)), f64_at(score_col, i)))
            .collect();
        let mut sections = layout.summary;
        if let (Some(cols), Some(pos)) = (&layout.attrs, layout.attr_pos) {
            let col_vec = |range: &Range<usize>| -> Vec<f64> {
                let col = &bytes[range.clone()];
                (0..n).map(|i| f64_at(col, i)).collect()
            };
            sections.insert(
                pos,
                attributes_section(
                    col_vec(&cols.length_m),
                    col_vec(&cols.material),
                    col_vec(&cols.laid_year),
                ),
            );
        }
        Ok(Snapshot {
            model,
            region,
            seed: layout.seed,
            scores,
            sections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let ranking = RiskRanking::new(vec![
            RiskScore { pipe: PipeId(5), score: 0.75 },
            RiskScore { pipe: PipeId(0), score: 0.5 },
            RiskScore { pipe: PipeId(9), score: 0.5 },
            RiskScore { pipe: PipeId(2), score: -1.25 },
        ]);
        let mut snap = Snapshot::new("DPMHBP", "Region A", 42, &ranking);
        snap.push_section(
            SummarySection::new("clusters")
                .with_scalar("mean_count", 3.5)
                .with_field("alpha_trace", vec![0.9, 1.1, 1.0]),
        );
        snap.push_section(SummarySection::new("empty"));
        snap
    }

    #[test]
    fn fast_attribute_predicates_match_the_definitional_forms() {
        // The scan predicates are phrased for speed (compare-only
        // finiteness, cast round-trips); this pins them to the slow,
        // definitional forms across every edge-case family: NaN,
        // infinities, signed zero, subnormals, non-integral values,
        // integral values inside and outside the accepted ranges, and the
        // exact range boundaries with their f64 neighbours.
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            -f64::MIN_POSITIVE,
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            8.0,
            8.5,
            9.0,
            1900.0,
            1900.25,
            -4000.0,
            1e15 + 0.5,
            1e300,
            -1e300,
            i32::MIN as f64,
            (i32::MIN as f64) - 1.0,
            i32::MAX as f64,
            (i32::MAX as f64) + 1.0,
            (1u64 << 53) as f64,
            (1u64 << 63) as f64,
            u64::MAX as f64,
        ];
        for v in edges.into_iter().flat_map(|v| [v, v.next_up(), v.next_down()]) {
            assert_eq!(
                v2::valid_length_m(v),
                v.is_finite() && v >= 0.0,
                "length_m predicate diverges at {v:?}"
            );
            assert_eq!(
                v2::valid_material(v),
                v.is_finite()
                    && v.fract() == 0.0
                    && v >= 0.0
                    && (v as usize) < pipefail_network::attributes::Material::ALL.len(),
                "material predicate diverges at {v:?}"
            );
            assert_eq!(
                v2::valid_laid_year(v),
                v.is_finite()
                    && v.fract() == 0.0
                    && v >= i32::MIN as f64
                    && v <= i32::MAX as f64,
                "laid_year predicate diverges at {v:?}"
            );
        }
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("valid snapshot");
        assert_eq!(back, snap);
        // Scores survive bit-for-bit.
        for ((pa, sa), (pb, sb)) in snap.scores.iter().zip(&back.scores) {
            assert_eq!(pa, pb);
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
        assert_eq!(back.section("clusters").unwrap().field("mean_count"), Some(&[3.5][..]));
        assert_eq!(back.section("absent"), None);
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join("pipefail_snapshot_test_file");
        let path = dir.join("model.pfsnap");
        let snap = sample();
        snap.save(&path).expect("save");
        assert_eq!(std::fs::read(&path).expect("read"), snap.to_bytes_v2(), "save writes v2");
        let back = Snapshot::load(&path).expect("load");
        assert_eq!(back, snap);
        assert!(Snapshot::load(&dir.join("absent.pfsnap")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
        }
    }

    #[test]
    fn header_corruptions_are_typed() {
        let good = sample().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(Snapshot::from_bytes(&bad_magic), Err(SnapshotError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[6] = 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version),
            Err(SnapshotError::UnsupportedVersion(_))
        ));

        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&trailing),
            Err(SnapshotError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn unsorted_and_nonfinite_scores_are_rejected() {
        // Hand-build an unsorted payload by swapping two score entries and
        // re-stamping the checksum (so only the ordering check can fire).
        let snap = sample();
        let mut bytes = snap.to_bytes();
        let scores_off = HEADER_LEN + 4 + snap.model.len() + 4 + snap.region.len() + 8 + 4;
        let entry = 12;
        let (a, b) = (scores_off, scores_off + entry);
        for i in 0..entry {
            bytes.swap(a + i, b + i);
        }
        restamp(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsortedScores { at: 1 })
        ));

        let mut bytes = snap.to_bytes();
        bytes[scores_off + 4..scores_off + 12]
            .copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::NonFiniteScore(5))
        ));
    }

    fn restamp(bytes: &mut [u8]) {
        let sum = fnv_bytes(&bytes[HEADER_LEN..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn huge_declared_count_fails_fast_without_allocating() {
        // 4 GiB worth of scores declared in a 50-byte payload must be a
        // clean Truncated error (the count pre-check), not an OOM attempt.
        let mut snap = sample();
        snap.scores.clear();
        let mut bytes = snap.to_bytes();
        let count_off = HEADER_LEN + 4 + snap.model.len() + 4 + snap.region.len() + 8;
        bytes[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        restamp(&mut bytes);
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Truncated(_))
        ));
    }

    #[test]
    fn attributes_section_round_trips_with_well_known_names() {
        let mut snap = sample();
        snap.push_section(attributes_section(
            vec![12.5, 80.0, 3.25, 200.0],
            vec![0.0, 4.0, 8.0, 1.0],
            vec![1923.0, 1950.0, 1987.0, 2004.0],
        ));
        let back = Snapshot::from_bytes(&snap.to_bytes()).expect("valid snapshot");
        let section = back.section(ATTRIBUTES_SECTION).expect("attributes section");
        assert_eq!(section.field(ATTR_LENGTH_M), Some(&[12.5, 80.0, 3.25, 200.0][..]));
        assert_eq!(section.field(ATTR_MATERIAL), Some(&[0.0, 4.0, 8.0, 1.0][..]));
        assert_eq!(
            section.field(ATTR_LAID_YEAR),
            Some(&[1923.0, 1950.0, 1987.0, 2004.0][..])
        );
    }

    fn sample_with_attrs() -> Snapshot {
        let mut snap = sample();
        snap.push_section(attributes_section(
            vec![12.5, 80.0, 3.25, 200.0],
            vec![0.0, 4.0, 8.0, 1.0],
            vec![1923.0, 1950.0, 1987.0, 2004.0],
        ));
        snap.push_section(SummarySection::new("tail").with_scalar("z", -0.25));
        snap
    }

    fn restamp_v2(bytes: &mut [u8]) {
        let sum = v2::fnv1a_words(&bytes[HEADER_LEN..]);
        bytes[8..16].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn v2_bytes_round_trip_exactly() {
        for snap in [sample(), sample_with_attrs()] {
            let bytes = snap.to_bytes_v2();
            assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), SNAPSHOT_VERSION_V2);
            let back = Snapshot::from_bytes(&bytes).expect("valid v2 snapshot");
            assert_eq!(back, snap);
            for ((pa, sa), (pb, sb)) in snap.scores.iter().zip(&back.scores) {
                assert_eq!(pa, pb);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }

    #[test]
    fn v2_payload_is_word_aligned_and_sections_are_contiguous() {
        let bytes = sample_with_attrs().to_bytes_v2();
        assert_eq!((bytes.len() - HEADER_LEN) % 8, 0);
        let layout = v2::validate(&bytes).expect("valid layout");
        for range in [
            &layout.pipe_ids,
            &layout.scores,
            &layout.index_ids,
            &layout.index_ranks,
        ] {
            assert_eq!((range.start - HEADER_LEN) % 8, 0, "column start must be 8-aligned");
        }
        assert!(layout.attrs.is_some());
        assert_eq!(layout.attr_pos, Some(2));
        assert_eq!(layout.summary.len(), 3);
    }

    #[test]
    fn v2_noncanonical_attribute_sections_stay_in_summary() {
        // A shuffled-field attribute section is not extractable; it must
        // round-trip verbatim through the summary blob instead.
        let mut snap = sample();
        snap.push_section(
            SummarySection::new(ATTRIBUTES_SECTION)
                .with_field(ATTR_MATERIAL, vec![0.0; 4])
                .with_field(ATTR_LENGTH_M, vec![1.0; 4])
                .with_field(ATTR_LAID_YEAR, vec![1950.0; 4]),
        );
        let bytes = snap.to_bytes_v2();
        let layout = v2::validate(&bytes).expect("valid layout");
        assert!(layout.attrs.is_none());
        assert_eq!(Snapshot::from_bytes(&bytes).expect("valid"), snap);
    }

    #[test]
    fn v2_every_truncation_is_rejected() {
        let bytes = sample_with_attrs().to_bytes_v2();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must not parse"
            );
        }
    }

    #[test]
    fn v2_every_single_bit_flip_is_rejected() {
        let good = sample_with_attrs().to_bytes_v2();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&bad).is_err(),
                    "bit flip at byte {byte} bit {bit} must not parse"
                );
            }
        }
    }

    #[test]
    fn v2_structural_corruptions_are_typed() {
        let snap = sample_with_attrs();
        let good = snap.to_bytes_v2();

        // Misaligned section offset: the first table entry's offset field.
        let entry0 = HEADER_LEN + v2::PREAMBLE_LEN;
        let mut bad = good.clone();
        let off = u64::from_le_bytes(bad[entry0 + 8..entry0 + 16].try_into().unwrap());
        bad[entry0 + 8..entry0 + 16].copy_from_slice(&(off + 4).to_le_bytes());
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::Misaligned("section offset"))
        );

        // Overlapping sections: pull the second section's offset backwards.
        let entry1 = entry0 + v2::SECTION_ENTRY_LEN;
        let mut bad = good.clone();
        let off = u64::from_le_bytes(bad[entry1 + 8..entry1 + 16].try_into().unwrap());
        bad[entry1 + 8..entry1 + 16].copy_from_slice(&(off - 8).to_le_bytes());
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadSectionTable("sections overlap or leave a gap"))
        );

        // Unknown section kind.
        let mut bad = good.clone();
        bad[entry0..entry0 + 4].copy_from_slice(&99u32.to_le_bytes());
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadSectionTable("unknown section kind"))
        );

        // Reserved bits set.
        let mut bad = good.clone();
        bad[entry0 + 4] = 1;
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadSectionTable("reserved bits set"))
        );
    }

    #[test]
    fn v2_column_corruptions_are_typed() {
        let snap = sample_with_attrs();
        let good = snap.to_bytes_v2();
        let layout = v2::validate(&good).expect("valid layout");

        // Swap the first two scores: descending order breaks at index 1.
        let mut bad = good.clone();
        let s = layout.scores.start;
        for i in 0..8 {
            bad.swap(s + i, s + 8 + i);
        }
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsortedScores { at: 1 })
        );

        // NaN score carries the pipe id from the id column.
        let mut bad = good.clone();
        bad[s..s + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::NonFiniteScore(5))
        );

        // Swap the first two index entries (ids and ranks together): the
        // (id, rank) order breaks at entry 1.
        let mut bad = good.clone();
        let (ii, ir) = (layout.index_ids.start, layout.index_ranks.start);
        for i in 0..4 {
            bad.swap(ii + i, ii + 4 + i);
            bad.swap(ir + i, ir + 4 + i);
        }
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::UnsortedIndex { at: 1 })
        );

        // A negative pipe length in the attribute column.
        let attrs = layout.attrs.as_ref().expect("attrs present");
        let mut bad = good.clone();
        let a = attrs.length_m.start;
        bad[a..a + 8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        restamp_v2(&mut bad);
        assert_eq!(
            Snapshot::from_bytes(&bad),
            Err(SnapshotError::BadAttributes(ATTR_LENGTH_M))
        );
    }

    #[test]
    fn format_labels_and_versions_negotiate() {
        assert_eq!(SnapshotFormat::V2.label(), "v2");
        assert_eq!(SnapshotFormat::V1.version(), SNAPSHOT_VERSION);
        assert_eq!(SnapshotFormat::V2.version(), SNAPSHOT_VERSION_V2);

        let snap = sample();
        let dir = std::env::temp_dir().join("pipefail_snapshot_test_formats");
        for format in [SnapshotFormat::V1, SnapshotFormat::V2] {
            let path = dir.join(format!("m_{format}.pfsnap"));
            snap.save_as(&path, format).expect("save");
            assert_eq!(Snapshot::load(&path).expect("load"), snap);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranking_round_trips_identically() {
        let ranking = sample().ranking();
        let snap = Snapshot::new("m", "r", 0, &ranking);
        assert_eq!(snap.ranking(), ranking);
        assert_eq!(snap.len(), 4);
        assert!(!snap.is_empty());
        assert!(Snapshot::new("m", "r", 0, &RiskRanking::new(vec![])).is_empty());
    }

    #[test]
    fn v1_checksum_matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The snapshot behind [`GOLDEN_V1`] and [`GOLDEN_V2`]: a plain section
    /// and the attributes section, which v2 stores as columns.
    fn golden_snapshot() -> Snapshot {
        let ranking = RiskRanking::new(vec![
            RiskScore { pipe: PipeId(7), score: 0.5 },
            RiskScore { pipe: PipeId(2), score: 0.125 },
        ]);
        let mut snap = Snapshot::new("HBP", "Region B", 11, &ranking);
        snap.push_section(SummarySection::new("clusters").with_scalar("mean_count", 2.5));
        snap.push_section(attributes_section(
            vec![40.0, 12.5],
            vec![1.0, 3.0],
            vec![1961.0, 1990.0],
        ));
        snap
    }

    /// [`golden_snapshot`] in the v1 format, as hex.
    const GOLDEN_V1: &str = "\
        5046534e415001006f84b64e3290323cdd000000000000000300000048425008\
        000000526567696f6e20420b0000000000000002000000070000000000000000\
        00e03f02000000000000000000c03f0200000008000000636c75737465727301\
        0000000a0000006d65616e5f636f756e740100000000000000000004400f0000\
        00706970655f6174747269627574657303000000080000006c656e6774685f6d\
        0200000000000000000044400000000000002940080000006d6174657269616c\
        02000000000000000000f03f0000000000000840090000006c6169645f796561\
        72020000000000000000a49e400000000000189f40";

    /// [`golden_snapshot`] in the v2 format, as hex.
    const GOLDEN_V2: &str = "\
        5046534e41500200edd29f13db9d180ef8010000000000000b00000000000000\
        02000000000000000a0000000000000001000000000000000100000000000000\
        6001000000000000030000000000000003000000000000000200000000000000\
        6801000000000000080000000000000008000000000000000300000000000000\
        7001000000000000020000000000000008000000000000000400000000000000\
        7801000000000000020000000000000010000000000000000500000000000000\
        8801000000000000020000000000000008000000000000000600000000000000\
        9001000000000000020000000000000008000000000000000700000000000000\
        9801000000000000020000000000000010000000000000000800000000000000\
        a801000000000000020000000000000010000000000000000900000000000000\
        b801000000000000020000000000000010000000000000000a00000000000000\
        c8010000000000002e000000000000002e000000000000004842500000000000\
        526567696f6e20420700000002000000000000000000e03f000000000000c03f\
        0200000007000000010000000000000000000000000044400000000000002940\
        000000000000f03f00000000000008400000000000a49e400000000000189f40\
        0100000008000000636c757374657273010000000a0000006d65616e5f636f75\
        6e740100000000000000000004400000";

    #[test]
    fn both_formats_match_the_committed_bytes() {
        // Every other codec test round-trips through this build's own
        // encoder and checksums, so a wrong constant would go unseen there
        // while files written by earlier builds stopped loading.
        let snap = golden_snapshot();
        for (format, hex) in [
            (SnapshotFormat::V1, GOLDEN_V1),
            (SnapshotFormat::V2, GOLDEN_V2),
        ] {
            let golden: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect();
            assert_eq!(
                Snapshot::from_bytes(&golden),
                Ok(snap.clone()),
                "{format} decode"
            );
            assert_eq!(snap.to_bytes_as(format), golden, "{format} encode");
        }
    }
}
