//! Property tests for the segmented updatable index: after any random
//! interleaving of inserts, deletes, freezes, and merges, (a) no tombstoned
//! row ever surfaces, hybrid search answers bit-identically to the plan
//! rebuilt with the interpreter (`common::interpreted_plan`), and the
//! router's scan/traverse decision agrees with exact per-segment passing
//! counts computed here from the lifecycle's own ground truth (not from the
//! planner), and (b) once `compact_all` collapses the log into one segment,
//! every query — pure and hybrid (held to the interpreter's plan too), plus
//! raw layer searches in all three `LookupMode`s — is **result-identical**
//! to a fresh index `bulk_load`ed from scratch with the surviving rows, and
//! (c) snapshots pinned at random points of such an interleaving stay what
//! they were: same answers, and an active view equal to a twin index grown
//! to that epoch and no further (`common::Pinned`).

mod common;

use std::sync::Arc;

use acorn_core::search::{acorn_search_layer, LookupMode};
use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{GraphView, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, Predicate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::Pinned;

const DIM: usize = 8;

fn params(seed: u64) -> AcornParams {
    AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, seed, ..Default::default() }
}

/// Everything the oracle needs to rebuild the surviving state from scratch.
struct Lifecycle {
    index: SegmentedAcornIndex,
    /// Vector of every row ever inserted, indexed by global id.
    vectors: Vec<Vec<f32>>,
    /// Attribute value of every row ever inserted, indexed by global id.
    labels: Vec<i64>,
    /// Liveness per global id.
    alive: Vec<bool>,
}

/// Drive a random interleaving of insert / delete / freeze / merge ops.
fn run_lifecycle(seed: u64, n0: usize, ops: usize, variant: AcornVariant) -> Lifecycle {
    run_lifecycle_with(seed, n0, ops, variant, |_| {})
}

/// [`run_lifecycle`], calling `after_op` on the state after each of the
/// `ops` random operations.
fn run_lifecycle_with(
    seed: u64,
    n0: usize,
    ops: usize,
    variant: AcornVariant,
    mut after_op: impl FnMut(&Lifecycle),
) -> Lifecycle {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lc = Lifecycle {
        index: SegmentedAcornIndex::new(DIM, params(seed), variant),
        vectors: Vec::new(),
        labels: Vec::new(),
        alive: Vec::new(),
    };
    let insert = |lc: &mut Lifecycle, rng: &mut StdRng| {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gid = lc.index.insert(&v);
        assert_eq!(gid as usize, lc.vectors.len(), "global ids must be dense and monotone");
        lc.vectors.push(v);
        lc.labels.push(rng.gen_range(0..4));
        lc.alive.push(true);
    };
    for _ in 0..n0 {
        insert(&mut lc, &mut rng);
    }
    for _ in 0..ops {
        match rng.gen_range(0..100) {
            0..=44 => insert(&mut lc, &mut rng),
            45..=74 => {
                // Delete a random row (live or already dead — both paths).
                let gid = rng.gen_range(0..lc.vectors.len()) as u64;
                let was_alive = lc.alive[gid as usize];
                assert_eq!(lc.index.delete(gid), was_alive, "delete({gid}) outcome");
                lc.alive[gid as usize] = false;
            }
            75..=89 => lc.index.freeze(),
            _ => {
                let _ = lc.index.merge();
            }
        }
        after_op(&lc);
    }
    lc
}

/// What exact-count routing must do, from ground truth alone: true iff
/// some non-empty segment has fewer live rows passing `label == value` than
/// `s_min · rows`, so that segment takes the pre-filter scan.
fn expected_fallback(lc: &Lifecycle, value: i64) -> bool {
    let snap = lc.index.snapshot();
    let s_min = snap.params().s_min();
    snap.frozen_segments().iter().chain(snap.active_segment()).filter(|seg| !seg.is_empty()).any(
        |seg| {
            let passing = seg
                .global_ids()
                .iter()
                .filter(|&&g| lc.alive[g as usize] && lc.labels[g as usize] == value)
                .count();
            (passing as f64) < s_min * seg.rows() as f64
        },
    )
}

fn query(rng: &mut StdRng) -> Vec<f32> {
    (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn global_pairs(out: &[acorn_core::GlobalNeighbor]) -> Vec<(u64, f32)> {
    out.iter().map(|n| (n.id, n.dist)).collect()
}

/// Map a rebuilt index's results (its global id = position in the survivor
/// list) through that list so they are comparable with the original's.
fn mapped_pairs(out: &[acorn_core::GlobalNeighbor], survivors: &[u64]) -> Vec<(u64, f32)> {
    out.iter().map(|n| (survivors[n.id as usize], n.dist)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn segmented_equals_rebuild_after_interleaved_ops(
        seed in 0u64..u64::MAX,
        n0 in 120usize..250,
        ops in 10usize..40,
    ) {
        for variant in [AcornVariant::Gamma, AcornVariant::One] {
            let mut lc = run_lifecycle(seed, n0, ops, variant);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1E5);
            let mut scratch = SearchScratch::new(lc.index.snapshot().max_segment_rows().max(1));
            let attrs_global =
                AttrStore::builder().add_int("label", lc.labels.clone()).build();
            let field = attrs_global.field("label").unwrap();

            // ---- Mid-lifecycle invariants (multi-segment, tombstones live) ----
            prop_assert_eq!(
                lc.index.snapshot().len(),
                lc.alive.iter().filter(|&&a| a).count(),
                "live-row accounting"
            );
            // Labels are 0..4; 9 passes nowhere (the all-sparse extreme).
            for value in [rng.gen_range(0..4), rng.gen_range(0..4), 9] {
                let q = query(&mut rng);
                for n in lc.index.reader().search(&q, 10, 48) {
                    prop_assert!(lc.alive[n.id as usize], "dead gid {} surfaced", n.id);
                }
                let pred = Predicate::Equals { field, value };
                let snap = lc.index.snapshot();
                let (a, sa) = common::interpreted_plan(&snap, &q, &pred, &attrs_global, 10, 48);
                let (b, sb) = snap.hybrid_search(&q, &pred, &attrs_global, 10, 48, &mut scratch);
                prop_assert_eq!(global_pairs(&a), global_pairs(&b),
                    "the engine must answer as the interpreter's plan mid-lifecycle ({:?})",
                    variant);
                prop_assert_eq!(
                    (sa.fallback, sa.ndis, sa.nhops),
                    (sb.fallback, sb.ndis, sb.nhops),
                    "the same route and traversal ({:?})", variant
                );
                prop_assert_eq!(sb.fallback, expected_fallback(&lc, value),
                    "routing must follow the exact per-segment counts (label {})", value);
                if value == 9 {
                    prop_assert!(b.is_empty());
                    prop_assert_eq!(sb.ndis, 0, "segments with no passing row cost no distances");
                }
                for n in &b {
                    prop_assert!(lc.alive[n.id as usize]);
                    prop_assert_eq!(lc.labels[n.id as usize], value);
                }
            }

            // ---- Full compaction: bit-identical to a from-scratch rebuild ----
            lc.index.compact_all();
            let survivors: Vec<u64> = (0..lc.vectors.len() as u64)
                .filter(|&g| lc.alive[g as usize])
                .collect();
            prop_assert_eq!(lc.index.snapshot().live_ids(), survivors.clone());
            if survivors.is_empty() {
                prop_assert!(lc.index.reader().search(&query(&mut rng), 5, 32).is_empty());
                continue;
            }
            prop_assert_eq!(lc.index.snapshot().num_segments(), 1);
            prop_assert_eq!(lc.index.snapshot().deleted_rows(), 0, "compaction drops every tombstone");

            let mut store = VectorStore::with_capacity(DIM, survivors.len());
            for &g in &survivors {
                store.push(&lc.vectors[g as usize]);
            }
            let mut rebuilt = SegmentedAcornIndex::new(DIM, params(seed), variant);
            rebuilt.bulk_load(store);
            let (compacted, rebuilt) = (lc.index.snapshot(), rebuilt.snapshot());
            let attrs_local = AttrStore::builder()
                .add_int("label", survivors.iter().map(|&g| lc.labels[g as usize]).collect())
                .build();
            let mut rscratch = SearchScratch::new(survivors.len());

            for _ in 0..3 {
                let q = query(&mut rng);
                // Pure search.
                let (mut seg_stats, mut reb_stats) = Default::default();
                let seg_out = compacted.search_with(&q, 10, 48, &mut scratch, &mut seg_stats);
                let reb_out = rebuilt.search_with(&q, 10, 48, &mut rscratch, &mut reb_stats);
                prop_assert_eq!(seg_stats, reb_stats, "pure search: the same work");
                prop_assert_eq!(
                    global_pairs(&seg_out),
                    mapped_pairs(&reb_out, &survivors),
                    "pure search must match the rebuild ({:?})", variant
                );
                // Hybrid: the compacted index, the rebuild and the
                // interpreter's plan over the compacted index.
                let pred = Predicate::Equals { field, value: rng.gen_range(0..4) };
                let (seg_h, seg_stats) =
                    compacted.hybrid_search(&q, &pred, &attrs_global, 10, 48, &mut scratch);
                let (reb_h, reb_stats) =
                    rebuilt.hybrid_search(&q, &pred, &attrs_local, 10, 48, &mut rscratch);
                let (want, want_stats) =
                    common::interpreted_plan(&compacted, &q, &pred, &attrs_global, 10, 48);
                prop_assert_eq!(
                    global_pairs(&seg_h),
                    mapped_pairs(&reb_h, &survivors),
                    "hybrid must match the rebuild ({:?})", variant
                );
                prop_assert_eq!(global_pairs(&seg_h), global_pairs(&want),
                    "hybrid must match the interpreter's plan ({:?})", variant);
                // Same route, same traversal. (`npred` may differ: the block
                // kernel runs over a segment's gid *span*, and only the
                // compacted one has gaps in it.)
                let work = |s: &SearchStats| (s.fallback, s.ndis, s.nhops);
                prop_assert_eq!(work(&seg_stats), work(&reb_stats),
                    "routing must agree with the rebuild ({:?})", variant);
                prop_assert_eq!(work(&seg_stats), work(&want_stats),
                    "routing must agree with the interpreter's plan ({:?})", variant);
            }
        }
    }

    /// Snapshot isolation: the writer shares graph nodes and vector rows
    /// with every epoch it published, so each pinned epoch is checked, after
    /// the whole script has run, against what it answered when pinned and
    /// against a twin grown by `insert_vector` to exactly its rows.
    #[test]
    fn pinned_epochs_stay_equal_to_a_twin_grown_to_that_epoch(
        seed in 0u64..u64::MAX,
        n0 in 60usize..200,
        ops in 20usize..80,
    ) {
        let (attrs, predicate) = common::labels(n0 + ops);
        for variant in [AcornVariant::Gamma, AcornVariant::One] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x91A5);
            // Each pin with the gids the lifecycle's own bookkeeping says
            // its active view holds tombstoned at that moment.
            let mut pins: Vec<(Pinned, Vec<u64>)> = Vec::new();
            let lc = run_lifecycle_with(seed, n0, ops, variant, |lc| {
                if rng.gen_range(0..4) > 0 {
                    return;
                }
                let snap = lc.index.snapshot();
                let tombstoned = snap.active_segment().map_or_else(Vec::new, |view| {
                    let gids = view.global_ids().iter();
                    gids.copied().filter(|&g| !lc.alive[g as usize]).collect()
                });
                let pin = Pinned::take(snap, DIM, rng.gen_range(0..u64::MAX), &attrs, &predicate);
                pins.push((pin, tombstoned));
            });
            for (pin, tombstoned) in &pins {
                let held = pin.snapshot().active_segment().map_or_else(Vec::new, |view| {
                    let locals = view.tombstones().iter_ones();
                    locals.map(|l| view.global_ids()[l as usize]).collect()
                });
                prop_assert_eq!(&held, tombstoned,
                    "epoch {} pinned the wrong tombstones", pin.snapshot().epoch());
                pin.verify(&lc.vectors, &params(seed), variant, &attrs, &predicate);
            }
        }
    }

    /// Raw layer searches over the compacted segment's CSR agree with the
    /// rebuild's nested graph in **all three** `LookupMode`s — the merged
    /// graph is not merely equivalent, it is the same graph, in the layout a
    /// sealed segment actually holds.
    #[test]
    fn compacted_graph_is_identical_in_every_lookup_mode(
        seed in 0u64..u64::MAX,
        n0 in 100usize..200,
        deletes in 5usize..40,
    ) {
        let mut lc = run_lifecycle(seed, n0, 0, AcornVariant::Gamma);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        lc.index.freeze();
        for _ in 0..deletes {
            let gid = rng.gen_range(0..lc.vectors.len()) as u64;
            lc.index.delete(gid);
            lc.alive[gid as usize] = false;
        }
        lc.index.compact_all();
        let survivors: Vec<u64> =
            (0..lc.vectors.len() as u64).filter(|&g| lc.alive[g as usize]).collect();
        // The vendored proptest shim has no prop_assume; an emptied-out
        // dataset simply has nothing left to compare.
        if survivors.is_empty() {
            return Ok(());
        }

        let mut store = VectorStore::with_capacity(DIM, survivors.len());
        for &g in &survivors {
            store.push(&lc.vectors[g as usize]);
        }
        let vecs = Arc::new(store);
        let rebuilt = AcornIndex::build(vecs.clone(), params(seed), AcornVariant::Gamma);
        let snap = lc.index.snapshot();
        let seg = &snap.frozen_segments()[0];
        let csr = seg.index().csr().expect("a frozen segment is sealed");
        let nested = rebuilt.graph().expect("a built index is growing");
        prop_assert_eq!(csr.len(), nested.len());

        let n = survivors.len();
        let filter = BitmapFilter::new(Bitset::from_ids(
            n,
            (0..n as u32).filter(|i| i % 2 == 0),
        ));
        let q = query(&mut rng);
        let entry = nested.entry_point().unwrap();
        prop_assert_eq!(csr.entry_point(), Some(entry));
        let entries =
            vec![Neighbor::new(Metric::L2.distance(vecs.get(entry), &q), entry)];

        for mode in [
            LookupMode::Truncate,
            LookupMode::GammaSearch { m_beta: 16, compressed_levels: 1 },
            LookupMode::TwoHop,
        ] {
            let mut s1 = SearchScratch::new(n);
            let mut s2 = SearchScratch::new(n);
            let mut st1 = SearchStats::default();
            let mut st2 = SearchStats::default();
            s1.begin(n);
            s2.begin(n);
            let a = acorn_search_layer(
                &**seg.index().vectors(), csr, Metric::L2, &q, &filter,
                &entries, 8, 0, 8, mode, &mut s1, &mut st1,
            );
            let b = acorn_search_layer(
                &*vecs, nested, Metric::L2, &q, &filter,
                &entries, 8, 0, 8, mode, &mut s2, &mut st2,
            );
            let pa: Vec<(u32, f32)> = a.iter().map(|x| (x.id, x.dist)).collect();
            let pb: Vec<(u32, f32)> = b.iter().map(|x| (x.id, x.dist)).collect();
            prop_assert_eq!(pa, pb, "layer search must agree in {:?}", mode);
            prop_assert_eq!(st1, st2, "stats must agree in {:?}", mode);
        }
    }
}
