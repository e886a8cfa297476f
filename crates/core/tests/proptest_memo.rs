//! Property tests: per-query predicate memoization and the compiled
//! predicate engine must never change search results — across every
//! `LookupMode` (Truncate, GammaSearch compressed/uncompressed, TwoHop),
//! both `AcornVariant`s, and both routing outcomes (graph traversal and the
//! pre-filter scan, which every case takes). The end-to-end reference is
//! the plan rebuilt with the AST interpreter (`common::interpreted_plan`).

mod common;

use std::sync::Arc;

use acorn_core::search::{acorn_search_layer, LookupMode};
use acorn_core::{
    AcornIndex, AcornParams, AcornVariant, GlobalNeighbor, Route, SegmentedAcornIndex,
};
use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, MemoFilter, MemoTable, Predicate, Regex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CAPTIONS: [&str; 6] = ["red dog", "blue cat", "a photo of x", "fish 9", "red", "dogma"];

fn random_store(n: usize, dim: usize, rng: &mut StdRng) -> Arc<VectorStore> {
    let mut s = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

fn random_attrs(n: usize, rng: &mut StdRng) -> AttrStore {
    AttrStore::builder()
        .add_int("year", (0..n).map(|_| rng.gen_range(1990i64..2020)).collect())
        .add_text(
            "cap",
            (0..n).map(|_| CAPTIONS[rng.gen_range(0..CAPTIONS.len())].into()).collect(),
        )
        .build()
}

fn random_pred(rng: &mut StdRng) -> Predicate {
    match rng.gen_range(0..5) {
        0 => Predicate::Equals { field: 0, value: rng.gen_range(1990..2020) },
        1 => {
            let lo = rng.gen_range(1990i64..2015);
            Predicate::Between { field: 0, lo, hi: lo + rng.gen_range(0i64..20) }
        }
        2 => Predicate::in_values(0, (0..3).map(|_| rng.gen_range(1990..2020)).collect()),
        3 => Predicate::RegexMatch { field: 1, regex: Regex::new("red|fish").unwrap() },
        _ => Predicate::And(vec![
            Predicate::Between { field: 0, lo: 1995, hi: 2015 },
            Predicate::RegexMatch { field: 1, regex: Regex::new("o").unwrap() },
        ]),
    }
}

fn pairs(out: &[Neighbor]) -> Vec<(u32, f32)> {
    out.iter().map(|n| (n.id, n.dist)).collect()
}

fn global_pairs(out: &[GlobalNeighbor]) -> Vec<(u32, f32)> {
    out.iter().map(|n| (n.id as u32, n.dist)).collect()
}

fn params(m: usize, gamma: usize, seed: u64) -> AcornParams {
    AcornParams { m, gamma, m_beta: m * 2, ef_construction: 32, seed, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// End-to-end: the engine's hybrid search over both variants
    /// (GammaSearch and TwoHop lookups) must be bit-identical to the plan
    /// rebuilt with the interpreter, route and traversal included, so recall
    /// is unchanged by construction. Each case traverses (every row passes
    /// at a beam of one) and scans above `s_min` (half the years at a beam
    /// of 40), then draws predicates, `k` and beams.
    #[test]
    fn strategies_agree_end_to_end(seed in 0u64..u64::MAX, n in 200usize..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vecs = random_store(n, 8, &mut rng);
        let attrs = random_attrs(n, &mut rng);
        for variant in [AcornVariant::Gamma, AcornVariant::One] {
            // One bulk-loaded segment: global id == row id.
            let mut index = SegmentedAcornIndex::new(8, params(8, 4, seed), variant);
            index.bulk_load(VectorStore::clone(&vecs));
            let snap = index.snapshot();
            let graph_params = snap.frozen_segments()[0].index().params().clone();
            let mut scratch = SearchScratch::new(n);
            let mut queries = vec![
                (Predicate::Between { field: 0, lo: 1990, hi: 2019 }, 1, 1),
                (Predicate::Between { field: 0, lo: 1990, hi: 2004 }, 10, 40),
            ];
            queries.extend((0..4).map(|_| {
                let k = [1, 10][rng.gen_range(0..2usize)];
                (random_pred(&mut rng), k, [1, 10, 40][rng.gen_range(0..3usize)])
            }));
            let (mut scanned_above_floor, mut traversed) = (false, false);
            for (pred, k, efs) in queries {
                let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (a, sa) = common::interpreted_plan(&snap, &q, &pred, &attrs, k, efs);
                let (b, sb) = snap.hybrid_search(&q, &pred, &attrs, k, efs, &mut scratch);
                let (a, b) = (global_pairs(&a), global_pairs(&b));
                prop_assert_eq!(&a, &b, "variant {:?}", variant);
                prop_assert_eq!(
                    (sa.fallback, sa.ndis, sa.nhops),
                    (sb.fallback, sb.ndis, sb.nhops),
                    "the same route and traversal ({:?})", variant
                );
                // No row is evaluated twice in one query: a segment this
                // small is counted, not sampled, so at most one pass over
                // the rows.
                prop_assert!(sb.npred_evaluated() <= n as u64);
                // Ground truth computed here, not from the plan: every hit
                // passes, and the route is the one the exact passing count
                // dictates.
                let passing: Vec<u32> =
                    (0..n as u32).filter(|&i| pred.eval(&attrs, i)).collect();
                for &(id, _) in &b {
                    prop_assert!(pred.eval(&attrs, id), "row {} fails the predicate", id);
                }
                let route = Route::choose(n, passing.len(), 8, efs, k, &graph_params);
                prop_assert_eq!(sb.fallback, route == Route::Scan, "exact-count routing");
                if sb.fallback {
                    // The scan is exact: brute force over the passing rows.
                    let mut want: Vec<Neighbor> = passing
                        .iter()
                        .map(|&i| Neighbor::new(Metric::L2.distance(vecs.get(i), &q), i))
                        .collect();
                    want.sort_unstable();
                    want.truncate(k);
                    prop_assert_eq!(&b, &pairs(&want), "the pre-filter scan is exact");
                    scanned_above_floor |= passing.len() as f64 >= graph_params.s_min() * n as f64;
                } else {
                    traversed = true;
                }
            }
            prop_assert!(scanned_above_floor && traversed, "both routes ({:?})", variant);
        }
    }

    /// Layer-level: wrapping any filter in a MemoFilter must leave the beam
    /// search's output untouched for every LookupMode.
    #[test]
    fn memo_filter_is_transparent_in_every_lookup_mode(
        seed in 0u64..u64::MAX,
        n in 150usize..400,
        keep_mod in 2u32..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vecs = random_store(n, 8, &mut rng);
        let idx = AcornIndex::build(vecs.clone(), params(8, 3, seed), AcornVariant::Gamma);
        let graph = idx.graph().expect("growing");
        let filter = BitmapFilter::new(Bitset::from_ids(
            n,
            (0..n as u32).filter(|i| i % keep_mod != 0),
        ));
        let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let entry = graph.entry_point().unwrap();
        let entries = vec![Neighbor::new(Metric::L2.distance(vecs.get(entry), &q), entry)];

        for mode in [
            LookupMode::Truncate,
            LookupMode::GammaSearch { m_beta: 16, compressed_levels: 1 },
            LookupMode::TwoHop,
        ] {
            let mut scratch = SearchScratch::new(n);
            let mut stats = SearchStats::default();
            scratch.begin(n);
            let plain = acorn_search_layer(
                &*vecs, graph, Metric::L2, &q, &filter, &entries, 10, 0, 8, mode,
                &mut scratch, &mut stats,
            );

            let mut memo = MemoTable::new();
            memo.reset_for(n);
            let memoized_filter = MemoFilter::new(&filter, memo);
            let mut stats2 = SearchStats::default();
            scratch.begin(n);
            let memoized = acorn_search_layer(
                &*vecs, graph, Metric::L2, &q, &memoized_filter, &entries, 10, 0, 8, mode,
                &mut scratch, &mut stats2,
            );

            prop_assert_eq!(pairs(&plain), pairs(&memoized), "mode {:?}", mode);
            prop_assert_eq!(stats.npred, stats2.npred, "same checks must be requested");
            // The memo can only reduce inner evaluations, never add any.
            prop_assert!(memoized_filter.hits() <= stats2.npred);
        }
    }
}
