//! The cross-loader identity battery: the three ways a snapshot reaches a
//! [`Scorer`] — a **memory-mapped** v2 file, a **v1 file** (parsed, then
//! held as an owned v2 copy), and an **in-memory** [`Scorer::new`] — must
//! answer *byte-identically* on arbitrary generated snapshots, and every
//! answer must match the generated [`Snapshot`] itself, decoded
//! independently of any serving path:
//!
//! * `/top` bodies at a spread of K values (including 0 and over-ask),
//!   and the top-K entries against the prefix of `snap.scores`;
//! * `/pipe` point lookups for every present id (against the id's
//!   position in `snap.scores`) and for misses;
//! * attribute views against the `pipe_attributes` section's fields, and
//!   section inventories against `snap.sections`;
//! * `/model` bodies, which differ only in the reported format/loader;
//! * the global top-K k-way merge over shard fleets built each way
//!   (results *and* rendered bodies);
//! * and full HTTP end-to-end: a server over the mapped file and a server
//!   over the in-memory scorer answer `/top`, `/pipe`, `/batch` and
//!   `/aggregate` with identical bytes.
//!
//! `/metrics` is deliberately excluded: it carries each server's own
//! counters.

mod common;

use common::snapgen::{save_to_temp, ARB_SNAPSHOT};
use common::{get_once, post_once};
use pipefail_core::snapshot::{
    Snapshot, SnapshotFormat, ATTRIBUTES_SECTION, ATTR_LAID_YEAR, ATTR_LENGTH_M, ATTR_MATERIAL,
};
use pipefail_network::ids::PipeId;
use pipefail_serve::http::{render_global_top_k, render_model, render_top_k};
use pipefail_serve::{
    serve, PipeRisk, Scorer, SectionInfo, ServeContext, ServerConfig, ServerHandle, ShardSet,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// The three scorers over one snapshot — mapped v2 file, v1 file,
/// in-memory — plus the two temp files for cleanup.
fn load_three(snap: &Snapshot) -> ([Scorer; 3], [PathBuf; 2]) {
    let v2_path = save_to_temp(snap, "ident_v2", SnapshotFormat::V2);
    let v1_path = save_to_temp(snap, "ident_v1", SnapshotFormat::V1);
    let mapped = Scorer::load(&v2_path).expect("v2 load");
    let v1 = Scorer::load(&v1_path).expect("v1 load");
    let mem = Scorer::new(snap.clone()).expect("valid snapshot");
    ([mapped, v1, mem], [v2_path, v1_path])
}

fn start(scorer: Scorer) -> ServerHandle {
    serve(Arc::new(ServeContext::new(scorer)), &ServerConfig::default()).expect("server starts")
}

/// The generated snapshot's attribute columns, read straight from its
/// `pipe_attributes` section by field name (the generator only emits
/// valid, aligned sections).
fn section_attrs(snap: &Snapshot) -> Option<[&[f64]; 3]> {
    let section = snap.section(ATTRIBUTES_SECTION)?;
    Some([ATTR_LENGTH_M, ATTR_MATERIAL, ATTR_LAID_YEAR].map(|f| section.field(f).expect("field")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Library-level identity: top-K renders, every point lookup, misses,
    /// attribute views, section metadata and `/model` bodies agree across
    /// the three loaders and with the generated snapshot.
    #[test]
    fn mapped_v1_and_in_memory_scorers_answer_like_the_snapshot(snap in &ARB_SNAPSHOT) {
        let (scorers, paths) = load_three(&snap);
        let [mapped, v1, mem] = &scorers;

        // Only the v2 file is served zero-copy.
        prop_assert!(mapped.mapped());
        prop_assert!(!v1.mapped());
        prop_assert!(!mem.mapped());

        let n = snap.len();
        for k in [0, 1, 2, n / 2, n, n + 7, usize::MAX] {
            let body = render_top_k(mapped, k);
            prop_assert!(body == render_top_k(v1, k), "mapped vs v1 /top differs at k={}", k);
            prop_assert!(body == render_top_k(mem, k), "mapped vs in-memory /top differs at k={}", k);
            let want: Vec<PipeRisk> = snap.scores[..k.min(n)]
                .iter()
                .enumerate()
                .map(|(rank, &(pipe, score))| PipeRisk { pipe, score, rank })
                .collect();
            prop_assert!(mapped.top_k(k).to_vec() == want, "top-{} vs the snapshot prefix", k);
        }

        // Every present pipe hits at its position; ids past the key space
        // miss.
        for (rank, &(pipe, score)) in snap.scores.iter().enumerate() {
            let got = mapped.risk_of(pipe);
            prop_assert_eq!(got, Some(PipeRisk { pipe, score, rank }));
            prop_assert_eq!(got, v1.risk_of(pipe));
            prop_assert_eq!(got, mem.risk_of(pipe));
        }
        let max_id = snap.scores.iter().map(|s| (s.0).0).max().unwrap_or(0);
        for miss in [max_id + 1, max_id + 1000, u32::MAX] {
            for s in &scorers {
                prop_assert_eq!(s.risk_of(PipeId(miss)), None);
            }
        }

        // Attribute presence and every per-pipe value match the section —
        // including the non-extractable (shuffled-field) sections decoded
        // from the summary blob.
        let want = section_attrs(&snap);
        for s in &scorers {
            let got = s.attributes();
            prop_assert!(got.is_some() == want.is_some(), "attribute presence ({})", s.loader());
            if let (Some(got), Some([length_m, material, laid_year])) = (got, want) {
                prop_assert_eq!(got.len(), n);
                for i in 0..n {
                    prop_assert!(got.length_m(i) == length_m[i], "length_m[{}]", i);
                    prop_assert!(got.material_index(i) == material[i] as usize, "material[{}]", i);
                    prop_assert!(got.laid_year(i) == laid_year[i] as i32, "laid_year[{}]", i);
                }
            }
        }

        // Identity metadata and the section inventory match the snapshot.
        let sections: Vec<SectionInfo> = snap
            .sections
            .iter()
            .map(|s| SectionInfo {
                name: s.name.clone(),
                fields: s.fields.iter().map(|f| (f.name.clone(), f.values.len())).collect(),
            })
            .collect();
        for s in &scorers {
            prop_assert_eq!(s.model(), snap.model.as_str());
            prop_assert_eq!(s.region(), snap.region.as_str());
            prop_assert_eq!(s.seed(), snap.seed);
            prop_assert_eq!(s.len(), n);
            prop_assert_eq!(s.sections_info(), sections.clone());
        }

        // `/model` differs only in the reported format and loader.
        let model = render_model(v1);
        prop_assert!(model.contains("\"format\":\"v1\",\"loader\":\"heap\""), "{}", model);
        prop_assert_eq!(&render_model(mem), &model);
        prop_assert_eq!(
            render_model(mapped).replace("\"format\":\"v2\",\"loader\":\"mmap\"", "\"format\":\"v1\",\"loader\":\"heap\""),
            model
        );

        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }

    /// The global top-K k-way merge over a fleet of *mapped* shards equals
    /// the merge over the same fleet loaded from v1 files and built in
    /// memory — merged entries and the rendered body both — and every
    /// merged entry is its shard's snapshot entry at that rank.
    #[test]
    fn global_top_k_is_identical_over_mapped_v1_and_in_memory_shard_fleets(
        a in &ARB_SNAPSHOT, b in &ARB_SNAPSHOT, c in &ARB_SNAPSHOT, k in 0usize..48,
    ) {
        let mut snaps = [a, b, c];
        for (i, s) in snaps.iter_mut().enumerate() {
            s.region = format!("Region {i}"); // shard keys must be distinct
        }
        let loaded: Vec<([Scorer; 3], [PathBuf; 2])> = snaps.iter().map(load_three).collect();
        let fleet = |which: usize| {
            ShardSet::from_scorers(loaded.iter().map(|(s, _)| s[which].clone()).collect())
                .expect("distinct regions")
        };
        let (mapped, v1, mem) = (fleet(0), fleet(1), fleet(2));

        let merged = mapped.global_top_k(k).expect("no degraded shards");
        let body = render_global_top_k(&mapped, &merged, k);
        for other in [&v1, &mem] {
            let m = other.global_top_k(k).expect("no degraded shards");
            prop_assert_eq!(&m, &merged);
            prop_assert_eq!(render_global_top_k(other, &m, k), body.clone());
        }
        let total: usize = snaps.iter().map(|s| s.len()).sum();
        prop_assert_eq!(merged.len(), k.min(total));
        for g in &merged {
            let region = mapped.shards()[g.shard].last_good().region().to_string();
            let snap = snaps.iter().find(|s| s.region == region).expect("shard's snapshot");
            prop_assert_eq!(snap.scores[g.risk.rank], (g.risk.pipe, g.risk.score));
        }
        for (_, paths) in loaded {
            for p in paths {
                std::fs::remove_file(p).ok();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full HTTP end-to-end: a server over the mapped file and a server
    /// over the in-memory scorer answer byte-identical bodies for `/top`,
    /// `/pipe`, `/batch` (global top + point lookups), and `/aggregate`.
    #[test]
    fn live_servers_answer_identically_from_a_mapped_file_and_from_memory(snap in &ARB_SNAPSHOT) {
        let path = save_to_temp(&snap, "e2e_v2", SnapshotFormat::V2);
        let n = snap.len();
        let some_id = snap.scores.first().map(|s| (s.0).0).unwrap_or(0);
        let mapped = Scorer::load(&path).expect("v2 load");
        prop_assert!(mapped.mapped());
        let hm = start(mapped);
        let hh = start(Scorer::new(snap.clone()).expect("valid snapshot"));

        let gets = [
            "/top?k=5".to_string(),
            format!("/top?k={n}"),
            "/top?k=0".to_string(),
            format!("/pipe?id={some_id}"),
            "/pipe?id=4294967295".to_string(),
            "/health".to_string(),
        ];
        for p in &gets {
            let rm = get_once(hm.addr(), p);
            let rh = get_once(hh.addr(), p);
            prop_assert!(rm.status == rh.status, "status for {}: {} vs {}", p, rm.status, rh.status);
            prop_assert!(rm.body == rh.body, "body for {}:\n  mapped:    {}\n  in-memory: {}", p, rm.body, rh.body);
        }

        let batch = format!("top 5\npipe {some_id}\npipe 4294967295");
        let bm = post_once(hm.addr(), "/batch", &batch);
        let bh = post_once(hh.addr(), "/batch", &batch);
        prop_assert_eq!(bm.status, bh.status);
        prop_assert!(bm.body == bh.body, "batch body:\n  mapped:    {}\n  in-memory: {}", bm.body, bh.body);

        // Aggregations scan the attribute columns in place; specs cover
        // grouping, multi-aggregate, and the budget path. Snapshots
        // without attributes must *refuse* identically too.
        let specs = [
            r#"{"group_by":["material"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#,
            r#"{"group_by":["decade"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}],"top_groups":3}"#,
            r#"{"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"}],"budget":5000.0}"#,
        ];
        for spec in specs {
            let am = post_once(hm.addr(), "/aggregate", spec);
            let ah = post_once(hh.addr(), "/aggregate", spec);
            prop_assert!(am.status == ah.status, "aggregate status: {} vs {}", am.status, ah.status);
            prop_assert!(am.body == ah.body, "aggregate body:\n  mapped:    {}\n  in-memory: {}", am.body, ah.body);
        }

        hm.shutdown();
        hh.shutdown();
        std::fs::remove_file(&path).ok();
    }
}
