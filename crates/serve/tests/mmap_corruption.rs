//! The v2 (mmap) corruption battery, driven through the *serving* loader
//! (`Scorer::load`, the path the watcher and cold start actually take):
//!
//! * truncation at (and around) **every** structural boundary — header
//!   fields, preamble, section table, each section's start/end — is
//!   rejected with a typed [`SnapshotError`], never a panic or a fault;
//! * arbitrary single-bit flips anywhere in the file are rejected (the
//!   word-FNV checksum plus strict structural validation leave no blind
//!   spots);
//! * surgical structural corruptions *with a recomputed checksum* — so
//!   only the structural validator can catch them — each land on their
//!   specific typed error: misaligned section offsets, overlapping
//!   sections, unsorted score columns, unsorted index columns, invalid
//!   attribute values;
//! * a corrupt v2 replacement under the hot-reload watcher is rejected
//!   while the old **mapped** scorer keeps serving byte-identically, and a
//!   valid v2 replacement afterwards still swaps in (the mmap extension of
//!   the reload degrade battery).

mod common;

use common::snapgen::{save_to_temp, ARB_SNAPSHOT};
use common::{get_once, Conn};
use pipefail_core::snapshot::{v2, Snapshot, SnapshotError, SnapshotFormat, HEADER_LEN};
use pipefail_serve::http::render_top_k;
use pipefail_serve::{serve, Scorer, ServeContext, ServerConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Recompute the v2 word-FNV checksum after a surgical payload edit, so
/// the *structural* validator — not the checksum — is what must catch it.
fn restamp_v2(bytes: &mut [u8]) {
    let sum = v2::fnv1a_words(&bytes[HEADER_LEN..]);
    bytes[8..16].copy_from_slice(&sum.to_le_bytes());
}

/// Write `bytes` to a fresh temp file and run the serving loader on it.
fn load_bytes(tag: &str, bytes: &[u8]) -> Result<Scorer, SnapshotError> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("pipefail_mmapcorrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("{tag}_{seq}.pfsnap"));
    std::fs::write(&path, bytes).expect("write corrupt candidate");
    let result = Scorer::load(&path);
    std::fs::remove_file(&path).ok();
    result
}

/// A fixed snapshot with canonical attributes — big enough that every
/// section is non-empty and the index is non-trivial.
fn attributed_snapshot(n: u32, base: f64, seed: u64) -> Snapshot {
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::attributes_section;
    use pipefail_network::ids::PipeId;
    let ranking = RiskRanking::new(
        (0..n)
            .map(|i| RiskScore {
                // Shuffle ids away from rank order so the index matters.
                pipe: PipeId((i * 7919) % (n * 8)),
                score: base - f64::from(i) / f64::from(n),
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", "Region A", seed, &ranking);
    let len = (0..n).map(|i| 10.0 + f64::from(i)).collect();
    let mat = (0..n).map(|i| f64::from(i % 9)).collect();
    let year = (0..n).map(|i| f64::from(1900 + (i % 120) as i32)).collect();
    snap.push_section(attributes_section(len, mat, year));
    snap
}

/// Every structural boundary of a v2 file: header field edges, preamble
/// and table edges, and each section's start/end — plus a neighborhood
/// around each so off-by-one truncations are covered too.
fn truncation_points(bytes: &[u8]) -> Vec<usize> {
    let layout = v2::validate(bytes).expect("pristine file validates");
    let n_sections = u64::from_le_bytes(
        bytes[HEADER_LEN + 16..HEADER_LEN + 24].try_into().expect("8 bytes"),
    ) as usize;
    let table_end = HEADER_LEN + v2::PREAMBLE_LEN + v2::SECTION_ENTRY_LEN * n_sections;
    let mut points = vec![
        0,
        1,
        6,               // after magic
        8,               // after version
        16,              // after checksum
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + v2::PREAMBLE_LEN - 1,
        HEADER_LEN + v2::PREAMBLE_LEN,
        table_end - 1,
        table_end,
        bytes.len() - 1,
    ];
    for range in [
        &layout.model,
        &layout.region,
        &layout.pipe_ids,
        &layout.scores,
        &layout.index_ids,
        &layout.index_ranks,
    ] {
        for edge in [range.start, range.end] {
            points.extend([edge.saturating_sub(1), edge, edge + 1]);
            points.push(range.start + (range.end - range.start) / 2);
        }
    }
    points.retain(|&p| p < bytes.len());
    points.sort_unstable();
    points.dedup();
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncation at every structural boundary of an arbitrary valid v2
    /// snapshot is rejected with a typed error through `Scorer::load`.
    #[test]
    fn every_boundary_truncation_is_rejected_by_the_mmap_loader(snap in &ARB_SNAPSHOT) {
        let bytes = snap.to_bytes_v2();
        for cut in truncation_points(&bytes) {
            match load_bytes("trunc", &bytes[..cut]) {
                Err(_) => {} // typed rejection, by construction of SnapshotError
                Ok(_) => prop_assert!(false, "truncation to {} of {} bytes loaded", cut, bytes.len()),
            }
        }
    }

    /// Arbitrary single-bit flips anywhere in an arbitrary v2 snapshot are
    /// rejected: the word-FNV checksum (payload) and strict header checks
    /// (magic/version/length fields) leave no byte uncovered.
    #[test]
    fn random_single_bit_flips_are_rejected_by_the_mmap_loader(
        snap in &ARB_SNAPSHOT, picks in proptest::collection::vec((0usize..1 << 20, 0usize..8), 24..25),
    ) {
        let bytes = snap.to_bytes_v2();
        for (byte_pick, bit) in picks {
            let at = byte_pick % bytes.len();
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << bit;
            match load_bytes("flip", &corrupt) {
                Err(_) => {}
                Ok(_) => prop_assert!(false, "bit {} of byte {} flipped and still loaded", bit, at),
            }
        }
    }
}

/// Read the section-table entry for `kind`, returning the byte offset of
/// the *entry itself* within the file. Entry layout: kind u32, reserved
/// u32, offset u64, count u64, byte_len u64.
fn entry_pos(bytes: &[u8], kind: u32) -> usize {
    let n_sections = u64::from_le_bytes(
        bytes[HEADER_LEN + 16..HEADER_LEN + 24].try_into().expect("8 bytes"),
    ) as usize;
    let table = HEADER_LEN + v2::PREAMBLE_LEN;
    (0..n_sections)
        .map(|i| table + i * v2::SECTION_ENTRY_LEN)
        .find(|&pos| u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) == kind)
        .expect("section kind present")
}

#[test]
fn misaligned_section_offset_is_typed() {
    let bytes = attributed_snapshot(40, 1.0, 7).to_bytes_v2();
    let entry = entry_pos(&bytes, v2::KIND_SCORES);
    let mut corrupt = bytes.clone();
    let offset = u64::from_le_bytes(corrupt[entry + 8..entry + 16].try_into().expect("8 bytes"));
    corrupt[entry + 8..entry + 16].copy_from_slice(&(offset + 4).to_le_bytes());
    restamp_v2(&mut corrupt);
    assert!(
        matches!(load_bytes("misalign", &corrupt), Err(SnapshotError::Misaligned(_))),
        "a 4-byte-shifted f64 column must be a typed misalignment"
    );
}

#[test]
fn overlapping_sections_are_typed() {
    let bytes = attributed_snapshot(40, 1.0, 7).to_bytes_v2();
    // Point the scores column back at the pipe-ids column: two sections
    // now overlap (and the layout leaves a gap where scores lived).
    let ids_entry = entry_pos(&bytes, v2::KIND_PIPE_IDS);
    let scores_entry = entry_pos(&bytes, v2::KIND_SCORES);
    let ids_offset: [u8; 8] = bytes[ids_entry + 8..ids_entry + 16].try_into().expect("8 bytes");
    let mut corrupt = bytes.clone();
    corrupt[scores_entry + 8..scores_entry + 16].copy_from_slice(&ids_offset);
    restamp_v2(&mut corrupt);
    assert!(
        matches!(load_bytes("overlap", &corrupt), Err(SnapshotError::BadSectionTable(_))),
        "overlapping sections must be a typed section-table error"
    );
}

#[test]
fn unsorted_score_column_is_typed() {
    let snap = attributed_snapshot(40, 1.0, 7);
    let mut bytes = snap.to_bytes_v2();
    let layout = v2::validate(&bytes).expect("pristine");
    // Swap the first two (strictly descending) scores in place.
    let s = layout.scores.start;
    let (a, b): ([u8; 8], [u8; 8]) = (
        bytes[s..s + 8].try_into().expect("8 bytes"),
        bytes[s + 8..s + 16].try_into().expect("8 bytes"),
    );
    bytes[s..s + 8].copy_from_slice(&b);
    bytes[s + 8..s + 16].copy_from_slice(&a);
    restamp_v2(&mut bytes);
    assert!(
        matches!(load_bytes("unsorted_scores", &bytes), Err(SnapshotError::UnsortedScores { .. })),
        "an ascending pair in the score column must be typed as unsorted"
    );
}

#[test]
fn unsorted_index_column_is_typed() {
    let snap = attributed_snapshot(40, 1.0, 7);
    let mut bytes = snap.to_bytes_v2();
    let layout = v2::validate(&bytes).expect("pristine");
    // Swap the first two *entries* — id and rank together, so each entry
    // stays self-consistent with the pipe-id column and only the strictly
    // ascending (id, rank) order is violated.
    for s in [layout.index_ids.start, layout.index_ranks.start] {
        let (a, b): ([u8; 4], [u8; 4]) = (
            bytes[s..s + 4].try_into().expect("4 bytes"),
            bytes[s + 4..s + 8].try_into().expect("4 bytes"),
        );
        bytes[s..s + 4].copy_from_slice(&b);
        bytes[s + 4..s + 8].copy_from_slice(&a);
    }
    restamp_v2(&mut bytes);
    assert!(
        matches!(load_bytes("unsorted_index", &bytes), Err(SnapshotError::UnsortedIndex { .. })),
        "a descending pair in the index id column must be typed as unsorted"
    );
}

#[test]
fn invalid_attribute_value_is_typed() {
    let snap = attributed_snapshot(40, 1.0, 7);
    let mut bytes = snap.to_bytes_v2();
    let layout = v2::validate(&bytes).expect("pristine");
    let attrs = layout.attrs.expect("canonical attributes extracted");
    // A material index far outside the catalogue, with a fresh checksum:
    // only the attribute-column validator can reject it.
    let m = attrs.material.start;
    bytes[m..m + 8].copy_from_slice(&42.0f64.to_le_bytes());
    restamp_v2(&mut bytes);
    assert!(
        matches!(load_bytes("bad_attr", &bytes), Err(SnapshotError::BadAttributes(_))),
        "an out-of-catalogue material must be a typed attribute error"
    );
}

/// The reload degrade battery, extended to the mmap path: a corrupt v2
/// replacement is rejected by the watcher while the old **mapped** scorer
/// keeps serving byte-identically; a valid v2 replacement afterwards still
/// swaps in.
#[test]
fn corrupt_v2_replacement_keeps_the_mapped_scorer_serving() {
    let snap = attributed_snapshot(30, 1.0, 3);
    let path = save_to_temp(&snap, "reload_v2", SnapshotFormat::V2);
    let scorer = Scorer::load(&path).expect("v2 load");
    assert!(scorer.mapped());
    let reference = render_top_k(&scorer, 5);

    let config = ServerConfig {
        reload_poll_secs: 0.05,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::new(ServeContext::new(scorer)), &config).expect("server starts");
    let addr = handle.addr();
    assert_eq!(get_once(addr, "/top?k=5").body, reference);
    // The serving loader really is the zero-copy one.
    assert!(
        get_once(addr, "/model").body.contains("\"loader\":\"mmap\""),
        "/model must report the mmap loader"
    );

    // Replace with a *bit-flipped* v2 file (valid header prefix, corrupt
    // payload) via atomic rename — the realistic torn-publish failure.
    let mut corrupt = snap.to_bytes_v2();
    let mid = HEADER_LEN + corrupt[HEADER_LEN..].len() / 2;
    corrupt[mid] ^= 0x10;
    let tmp: PathBuf = path.with_extension("tmp");
    std::fs::write(&tmp, &corrupt).expect("write corrupt replacement");
    std::fs::rename(&tmp, &path).expect("atomic rename");

    let metrics = handle.metrics();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reload_failures_total() == 0 {
        assert!(Instant::now() < deadline, "reload failure never recorded");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The old mapping keeps answering, byte-identically, on a keep-alive
    // connection opened *after* the corruption landed.
    let mut conn = Conn::connect(addr);
    for _ in 0..5 {
        let response = conn.get("/top?k=5");
        assert_eq!(response.status, 200);
        assert_eq!(response.body, reference);
    }
    assert_eq!(metrics.reloads_total(), 0);

    // A valid v2 replacement still heals: rejection does not wedge the
    // watcher or leak the rejected candidate's state.
    let recovery = attributed_snapshot(30, 9.0, 4);
    let reference_recovery = render_top_k(&Scorer::new(recovery.clone()).expect("valid snapshot"), 5);
    assert_ne!(reference, reference_recovery, "the recovery must be observable");
    let tmp = path.with_extension("tmp2");
    recovery.save_as(&tmp, SnapshotFormat::V2).expect("write recovery");
    std::fs::rename(&tmp, &path).expect("atomic rename");
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.reloads_total() == 0 {
        assert!(Instant::now() < deadline, "recovery reload never happened");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(conn.get("/top?k=5").body, reference_recovery);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
