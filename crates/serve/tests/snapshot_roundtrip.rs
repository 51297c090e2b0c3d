//! Property tests for the model-snapshot format as the serving layer uses
//! it: export → load must reproduce the *identical* top-K ranking, and any
//! corruption — truncation anywhere, any single flipped bit — must be
//! rejected with a typed error, never served.

use pipefail_core::model::{FailureModel, RiskRanking, RiskScore};
use pipefail_core::snapshot::{Snapshot, SummarySection};
use pipefail_network::ids::PipeId;
use pipefail_par::TaskPool;
use pipefail_serve::{Query, QueryResult, Scorer};
use proptest::prelude::*;

/// Build a snapshot from raw (pipe, score) data: distinct ids, finite
/// scores, ranking-sorted by construction.
fn snapshot_from(raw: &[f64], seed: u64) -> Snapshot {
    let ranking = RiskRanking::new(
        raw.iter()
            .enumerate()
            .map(|(i, &s)| RiskScore {
                pipe: PipeId(i as u32),
                score: s,
            })
            .collect(),
    );
    let mut snap = Snapshot::new("DPMHBP", "Region A", seed, &ranking);
    snap.push_section(
        SummarySection::new("clusters")
            .with_scalar("mean_count", raw.len() as f64)
            .with_field("alpha_trace", raw.to_vec()),
    );
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Export → load → identical top-K ranking, bit for bit, for every K.
    #[test]
    fn roundtrip_preserves_topk_ranking(
        raw in proptest::collection::vec(-1e6f64..1e6, 1..60),
        seed in 0u64..u64::MAX,
    ) {
        let snap = snapshot_from(&raw, seed);
        let loaded = Snapshot::from_bytes(&snap.to_bytes()).expect("clean roundtrip");
        prop_assert_eq!(&loaded, &snap);

        let before = Scorer::new(snap).expect("valid snapshot");
        let after = Scorer::new(loaded).expect("valid snapshot");
        for k in [1usize, 2, raw.len() / 2, raw.len(), raw.len() + 10] {
            let a = before.top_k(k);
            let b = after.top_k(k);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.pipe, y.pipe);
                // Bit-identical scores, not just approximately equal.
                prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                prop_assert_eq!(x.rank, y.rank);
            }
        }
    }

    /// Every proper prefix of a snapshot is rejected — there is no
    /// truncation point that still parses.
    #[test]
    fn every_truncation_is_rejected(
        raw in proptest::collection::vec(-1e3f64..1e3, 1..20),
        cut in 0.0f64..1.0,
    ) {
        let bytes = snapshot_from(&raw, 7).to_bytes();
        let len = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(len < bytes.len());
        prop_assert!(Snapshot::from_bytes(&bytes[..len]).is_err());
    }

    /// Any single flipped bit anywhere in the file is rejected: header
    /// corruption trips the typed header checks, payload corruption trips
    /// the FNV-1a checksum (every byte feeds a bijective update, so no
    /// single-byte change can collide).
    #[test]
    fn any_single_bit_flip_is_rejected(
        raw in proptest::collection::vec(-1e3f64..1e3, 1..20),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = snapshot_from(&raw, 7).to_bytes();
        let i = ((bytes.len() as f64) * pos) as usize % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(
            Snapshot::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} must not parse", i, bit
        );
    }
}

#[test]
fn from_fit_carries_model_coefficients() {
    use pipefail_baselines::cox::{CoxConfig, CoxModel};
    use pipefail_network::split::TrainTestSplit;
    use pipefail_synth::WorldConfig;

    let world = WorldConfig::paper().scaled(0.02).only_region("Region A").build(5);
    let ds = &world.regions()[0];
    let split = TrainTestSplit::paper_protocol();
    let mut model = CoxModel::new(CoxConfig::default());
    let ranking = model.fit_rank(ds, &split, 7).expect("cox fit");
    let snap = Snapshot::from_fit(&model, ds.name(), 7, &ranking);
    assert_eq!(snap.model, "Cox");
    let coef = snap.section("coefficients").expect("coefficients section");
    assert!(!coef.field("beta").expect("beta field").is_empty());
    assert!(snap.section("baseline_hazard").is_some());
    // The full snapshot (ranking + summary) survives the byte format.
    let back = Snapshot::from_bytes(&snap.to_bytes()).expect("roundtrip");
    assert_eq!(back, snap);
}

#[test]
fn scorer_load_rejects_corrupt_file_on_disk() {
    let dir = std::env::temp_dir().join("pipefail_serve_test_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.pfsnap");
    let snap = snapshot_from(&[0.3, 0.9, 0.1], 7);
    snap.save(&path).unwrap();
    assert!(Scorer::load(&path).is_ok());
    // Truncate the file on disk: the scorer must refuse it.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(Scorer::load(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_queries_match_single_queries() {
    let snap = snapshot_from(&[0.5, 0.25, 0.75, 0.1], 7);
    let scorer = Scorer::new(snap).expect("valid snapshot");
    let queries = vec![Query::TopK(2), Query::Pipe(PipeId(1)), Query::Pipe(PipeId(99))];
    let batched = scorer.answer_batch(&queries, &TaskPool::new(4));
    assert_eq!(batched.len(), 3);
    for (q, r) in queries.iter().zip(&batched) {
        assert_eq!(&scorer.answer(*q), r);
    }
    assert!(matches!(&batched[2], QueryResult::Pipe(None)));
}
