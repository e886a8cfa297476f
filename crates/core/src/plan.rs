//! The hybrid query planner: §5.2's cost-model routing, decided **per
//! segment** on the segment's exact passing count.
//!
//! [`SegmentSnapshot::hybrid_search`](crate::snapshot::SegmentSnapshot::hybrid_search)
//! is the one way in. A static corpus is the one-segment case — a
//! [`bulk_load`](crate::segment::SegmentedAcornIndex::bulk_load)ed segment
//! with a contiguous id map and no tombstones — so a fully-merged segment
//! and a from-scratch load of its surviving rows run the same code over the
//! same numbers: the compaction ≡ rebuild bit-identity holds by
//! construction.
//!
//! The plan, in order:
//!
//! 1. **Compile** the predicate. A program that folded to a constant needs
//!    no filter at all: `false` answers empty without touching a segment,
//!    `true` traverses with tombstones only — the pure-ANN path.
//! 2. **Per segment, count.** Materialize the predicate **into the
//!    segment's local id space** — one block-kernel pass over the segment's
//!    global-id span, a gather through the id map only when merges left
//!    gaps in it — and clear the tombstoned bits. The bitmap's popcount is
//!    the segment's exact number of passing live rows.
//! 3. **Per segment, route** on that count: under `s_min · rows` the set
//!    bits are enumerated and scored exactly (the pre-filter scan),
//!    otherwise the graph is traversed with constant-time bit tests. Both
//!    branches see a plain local-id [`BitmapFilter`]; no id-map gather and
//!    no tombstone test remain in their inner loops.
//!
//! There is no sample and no seed: a plan depends only on the snapshot and
//! the predicate. Every row verdict comes from the compiled program. The AST
//! interpreter ([`Predicate::eval`]) is the tests' oracle: `core/tests/common`
//! rebuilds this plan from public calls with it and holds the engine to the
//! result.

use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{AllPass, AttrStore, BitmapFilter, Bitset, CompiledPredicate, Predicate};

use crate::segment::GlobalNeighbor;
use crate::snapshot::{merge_segments, SegmentView};

/// The selectivity under which the repo benchmark's staged replay
/// block-materializes a segment it has sampled, instead of filtering it
/// lazily through a memo. The engine no longer reads it: the planner
/// materializes and counts every segment. It stays public only because the
/// benchmark adapter binds it; ROADMAP item 2(b) retires it along with the
/// staged replay.
pub const MATERIALIZE_BELOW_SELECTIVITY: f64 = 0.25;

/// Write `{l : pred(attrs[gid[l]]) ∧ ¬tomb[l]}` over the segment's local ids
/// into `bits`, returning the number of rows the predicate ran on (the
/// segment's gid span).
fn materialize_local(
    seg: &SegmentView,
    compiled: &CompiledPredicate,
    attrs: &AttrStore,
    bits: &mut Bitset,
) -> u64 {
    let gids = seg.global_ids();
    let rows = gids.len();
    let (first, last) = (gids[0] as u32, gids[rows - 1] as u32);
    compiled.to_bitset_range(attrs, first..=last, bits);
    let span = bits.len();
    if span != rows {
        bits.gather_ascending(gids.iter().map(|&g| g as u32 - first));
    }
    bits.and_not_with(&seg.tombstones);
    span as u64
}

/// Plan and run one hybrid query over `segments` (non-empty, in query
/// order); returns the k-way merge of their top-`k` lists by global id and
/// the query's summed stats.
pub(crate) fn hybrid_search<'a>(
    segments: impl Iterator<Item = &'a SegmentView>,
    query: &[f32],
    predicate: &Predicate,
    attrs: &AttrStore,
    k: usize,
    efs: usize,
    scratch: &mut SearchScratch,
) -> (Vec<GlobalNeighbor>, SearchStats) {
    let mut stats = SearchStats::default();
    let compiled = CompiledPredicate::compile(predicate);
    match compiled.as_const() {
        Some(false) => return (Vec::new(), stats),
        Some(true) => {
            let lists = segments
                .map(|seg| (seg, seg.search_live(query, &AllPass, k, efs, scratch, &mut stats)));
            return (merge_segments(lists, k), stats);
        }
        None => {}
    }

    let lists = segments.map(|seg| {
        let index = seg.index();
        let mut bits = std::mem::take(&mut scratch.bitmap);
        stats.npred += materialize_local(seg, &compiled, attrs, &mut bits);
        let passing = bits.count();
        let filter = BitmapFilter::new(bits);
        let out = if (passing as f64) < index.params().s_min() * seg.rows() as f64 {
            index.prefilter_scan(query, &filter, k, &mut stats)
        } else {
            let before = stats.npred;
            let out = index.search_filtered(query, &filter, k, efs, scratch, &mut stats);
            // Every traversal check against the bitmap is a cache answer.
            stats.npred_cached += stats.npred - before;
            out
        };
        scratch.bitmap = filter.into_bits();
        (seg, out)
    });
    (merge_segments(lists, k), stats)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::params::{AcornParams, AcornVariant};
    use crate::segment::SegmentedAcornIndex;
    use crate::snapshot::SegmentSnapshot;
    use acorn_hnsw::heap::Neighbor;
    use acorn_hnsw::{Metric, VectorStore};
    use acorn_predicate::Regex;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 4;
    const CAPTIONS: [&str; 4] = ["red dog", "blue cat", "fish 9", "red"];

    fn params(seed: u64) -> AcornParams {
        AcornParams { m: 4, gamma: 4, m_beta: 8, ef_construction: 16, seed, ..Default::default() }
    }

    fn random_pred(rng: &mut StdRng) -> Predicate {
        match rng.gen_range(0..5) {
            0 => Predicate::Equals { field: 0, value: rng.gen_range(0..6) },
            1 => {
                let lo = rng.gen_range(0i64..6);
                Predicate::Between { field: 0, lo, hi: lo + rng.gen_range(0i64..4) }
            }
            2 => Predicate::Not(Box::new(Predicate::Equals { field: 0, value: 3 })),
            3 => Predicate::RegexMatch { field: 1, regex: Regex::new("red|9").unwrap() },
            _ => Predicate::And(vec![
                Predicate::Between { field: 0, lo: 1, hi: 4 },
                Predicate::RegexMatch { field: 1, regex: Regex::new("d").unwrap() },
            ]),
        }
    }

    /// A static corpus served the one way there is: `bulk_load`ed as a
    /// single frozen segment, so global id == row id.
    fn one_segment(n: usize, gamma: usize, seed: u64) -> (Arc<SegmentSnapshot>, VectorStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<f32> = (0..n * 8).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let store = VectorStore::from_flat(8, rows);
        let params = AcornParams {
            m: 8,
            gamma,
            m_beta: 8,
            ef_construction: 48,
            seed: 7,
            ..Default::default()
        };
        let mut index = SegmentedAcornIndex::new(8, params, AcornVariant::Gamma);
        assert_eq!(index.bulk_load(store.clone()), 0..n as u64);
        (index.snapshot(), store)
    }

    fn bits(out: &[GlobalNeighbor]) -> Vec<(u64, u32)> {
        out.iter().map(|x| (x.id, x.dist.to_bits())).collect()
    }

    fn local_bits(out: &[Neighbor]) -> Vec<(u64, u32)> {
        out.iter().map(|x| (u64::from(x.id), x.dist.to_bits())).collect()
    }

    fn brute_force(
        vecs: &VectorStore,
        q: &[f32],
        pass: impl Fn(u32) -> bool,
        k: usize,
    ) -> Vec<u64> {
        let mut all: Vec<Neighbor> = (0..vecs.len() as u32)
            .filter(|&i| pass(i))
            .map(|i| Neighbor::new(Metric::L2.distance(vecs.get(i), q), i))
            .collect();
        all.sort_unstable();
        all.iter().take(k).map(|n| u64::from(n.id)).collect()
    }

    #[test]
    fn one_segment_snapshot_answers_as_its_graph_on_every_route() {
        // What lets a one-segment `bulk_load` stand in for a bare graph: on
        // each route the planner can take, the snapshot returns exactly what
        // the segment's `AcornIndex` returns for a bitmap of the predicate
        // built row by row with the interpreter. γ = 8 → s_min = 0.125;
        // `v = row id`, so `v < c` passes exactly `c` of the 1,000 rows.
        let n = 1000;
        let (snap, _) = one_segment(n, 8, 70);
        let graph = snap.frozen_segments()[0].index();
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let field = attrs.field("v").unwrap();
        let mut scratch = SearchScratch::new(n);
        let q = vec![0.1; 8];
        let (k, efs) = (10, 64);

        let mut want_stats = SearchStats::default();
        let want = graph.search_filtered(&q, &AllPass, k, efs, &mut scratch, &mut want_stats);
        let (got, stats) = snap.hybrid_search(&q, &Predicate::True, &attrs, k, efs, &mut scratch);
        assert_eq!(bits(&got), local_bits(&want), "constant true");
        assert_eq!(stats, want_stats, "constant true: the pure search and nothing else");

        // (passing rows, scanned)
        for (passing, scan) in [(50i64, true), (200, false), (600, false)] {
            let pred = Predicate::Between { field, lo: 0, hi: passing - 1 };
            let interpreted =
                Bitset::from_ids(n, (0..n as u32).filter(|&row| pred.eval(&attrs, row)));
            let filter = BitmapFilter::new(interpreted);
            let mut want_stats = SearchStats::default();
            let want = if scan {
                graph.prefilter_scan(&q, &filter, k, &mut want_stats)
            } else {
                graph.search_filtered(&q, &filter, k, efs, &mut scratch, &mut want_stats)
            };
            let (got, stats) = snap.hybrid_search(&q, &pred, &attrs, k, efs, &mut scratch);
            assert_eq!(bits(&got), local_bits(&want), "{passing} rows");
            assert_eq!(
                (stats.ndis, stats.nhops, stats.fallback),
                (want_stats.ndis, want_stats.nhops, scan),
                "{passing} rows: the same traversal"
            );
            // One pass over the rows, then the graph's own checks, each a
            // bit test.
            assert_eq!(stats.npred, n as u64 + want_stats.npred, "{passing} rows");
            assert_eq!(stats.npred_cached, want_stats.npred, "{passing} rows: bit tests");
        }
    }

    #[test]
    fn two_segments_charge_their_gid_spans_and_their_traversal_checks() {
        // Two segments, 300 and 900 rows, and a predicate half the rows of
        // each pass (γ = 4 → s_min = 0.25, so both traverse): each segment
        // is materialized over its gid span and then traversed over its
        // bitmap, and nothing else is charged — no sample.
        let mut index = SegmentedAcornIndex::new(8, params(5), AcornVariant::Gamma);
        let mut rng = StdRng::seed_from_u64(5);
        for rows in [300, 900] {
            let flat: Vec<f32> = (0..rows * 8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.bulk_load(VectorStore::from_flat(8, flat));
        }
        let snap = index.snapshot();
        assert_eq!(snap.frozen_segments().len(), 2);
        let attrs = AttrStore::builder().add_int("v", (0..1200).map(|g| g % 2).collect()).build();
        let pred = Predicate::Equals { field: 0, value: 1 };
        let mut scratch = SearchScratch::new(900);
        let q = vec![0.2; 8];

        let mut want_stats = SearchStats::default();
        let mut want: Vec<GlobalNeighbor> = Vec::new();
        for seg in snap.frozen_segments() {
            let gids = seg.global_ids();
            let passing =
                (0..gids.len() as u32).filter(|&l| pred.eval(&attrs, gids[l as usize] as u32));
            let filter = BitmapFilter::new(Bitset::from_ids(gids.len(), passing));
            let out =
                seg.index().search_filtered(&q, &filter, 10, 48, &mut scratch, &mut want_stats);
            want.extend(out.iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])));
        }
        want.sort_unstable();
        want.truncate(10);

        let (got, stats) = snap.hybrid_search(&q, &pred, &attrs, 10, 48, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "the merge of the two traversals");
        assert_eq!(
            (stats.ndis, stats.nhops, stats.fallback),
            (want_stats.ndis, want_stats.nhops, false)
        );
        assert_eq!(stats.npred, 300 + 900 + want_stats.npred, "two gid spans, then the checks");
        assert_eq!(stats.npred_cached, want_stats.npred, "every check is a bit test");
    }

    #[test]
    fn constant_predicates_bypass_sampling_and_filtering() {
        let n = 900;
        let (snap, _) = one_segment(n, 4, 50);
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let field = attrs.field("v").unwrap();
        let mut scratch = SearchScratch::new(n);
        let q = vec![0.3; 8];

        let mut pure_stats = SearchStats::default();
        let pure = snap.search_with(&q, 10, 40, &mut scratch, &mut pure_stats);
        // `True`, and anything normalization folds to it.
        let folded = Predicate::Or(vec![Predicate::Equals { field, value: 3 }, Predicate::True]);
        for pred in [Predicate::True, folded] {
            let (out, stats) = snap.hybrid_search(&q, &pred, &attrs, 10, 40, &mut scratch);
            assert_eq!(bits(&out), bits(&pure), "a constant-true predicate is the pure search");
            assert_eq!(stats, pure_stats, "no bitmap: the same work");
        }
        // Constant false: empty, and nothing at all is touched.
        let never = Predicate::And(vec![
            Predicate::Equals { field, value: 3 },
            Predicate::In { field, values: vec![] },
        ]);
        for pred in [Predicate::const_false(), never] {
            let (out, stats) = snap.hybrid_search(&q, &pred, &attrs, 10, 40, &mut scratch);
            assert!(out.is_empty());
            assert_eq!(stats, SearchStats::default());
        }
    }

    #[test]
    fn exact_count_routes_at_s_min_and_bitmap_traversal_matches_the_oracle() {
        // γ = 8 → s_min = 0.125; 800 rows → the scan/traverse boundary is
        // exactly 100 passing rows. `v = row id`, so `v < c` passes exactly
        // `c` rows, and the decision is made on that exact count.
        let n = 800;
        let (snap, vecs) = one_segment(n, 8, 60);
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let field = attrs.field("v").unwrap();
        assert_eq!(snap.frozen_segments()[0].index().params().s_min(), 0.125);
        let mut scratch = SearchScratch::new(n);
        let q = vec![-0.2; 8];
        for (passing, fallback) in [(99i64, true), (100, false), (101, false), (1, true)] {
            let pred = Predicate::Between { field, lo: 0, hi: passing - 1 };
            let (a, sa) = snap.hybrid_search(&q, &pred, &attrs, 10, n, &mut scratch);
            assert_eq!(sa.fallback, fallback, "{passing} passing rows of {n}");
            // With efs ≥ n the traversal is exhaustive, so either route
            // equals brute force.
            let want = brute_force(&vecs, &q, |i| i64::from(i) < passing, 10);
            assert_eq!(a.iter().map(|x| x.id).collect::<Vec<_>>(), want);
            // One block pass over the 800 rows; the scan
            // enumerates bits, the traversal's bit tests are cached.
            assert_eq!(sa.npred_evaluated(), n as u64);
            if !fallback {
                assert!(sa.npred_cached > 0, "bitmap bit tests count as cache answers");
            }
        }
    }

    #[test]
    fn hybrid_search_falls_back_below_smin() {
        let n = 1200;
        let (snap, _) = one_segment(n, 4, 9);
        // Attribute: only rows < 12 have value 1 → selectivity 0.01 < 1/γ = 0.25.
        let values: Vec<i64> = (0..n as i64).map(|i| if i < 12 { 1 } else { 0 }).collect();
        let attrs = AttrStore::builder().add_int("v", values).build();
        let field = attrs.field("v").unwrap();
        let mut scratch = SearchScratch::new(n);
        let pred = Predicate::Equals { field, value: 1 };
        let (out, stats) = snap.hybrid_search(&[0.0; 8], &pred, &attrs, 5, 32, &mut scratch);
        assert!(stats.fallback, "selective predicate must trigger pre-filtering");
        assert_eq!(out.len(), 5);
        for n in &out {
            assert!(n.id < 12, "fallback returned non-passing row {}", n.id);
        }

        // Broad predicate: stays on the graph path.
        let pred = Predicate::Equals { field, value: 0 };
        let (_, stats) = snap.hybrid_search(&[0.0; 8], &pred, &attrs, 5, 32, &mut scratch);
        assert!(!stats.fallback);
    }

    #[test]
    fn adaptive_strategy_matches_interpreted_and_cuts_evaluations() {
        let n = 2000;
        let (snap, _) = one_segment(n, 4, 33);
        let graph = snap.frozen_segments()[0].index();
        let s_min = graph.params().s_min();
        let mut rng = StdRng::seed_from_u64(34);
        let years: Vec<i64> = (0..n).map(|_| rng.gen_range(1990..2020)).collect();
        let attrs = AttrStore::builder().add_int("year", years).build();
        let field = attrs.field("year").unwrap();
        let mut scratch = SearchScratch::new(n);

        for (pred, label) in [
            (Predicate::Between { field, lo: 1995, hi: 2010 }, "mid-selectivity"),
            (Predicate::Between { field, lo: 1990, hi: 2020 }, "high-selectivity"),
            (Predicate::Equals { field, value: 1999 }, "low-selectivity"),
            (Predicate::in_values(field, vec![1991, 2001, 2011]), "in-list"),
        ] {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // The reference: the interpreter's bitmap, routed on its count.
            let interpreted =
                Bitset::from_ids(n, (0..n as u32).filter(|&row| pred.eval(&attrs, row)));
            let scan = (interpreted.count() as f64) < s_min * n as f64;
            let filter = BitmapFilter::new(interpreted);
            let mut sb = SearchStats::default();
            let b = if scan {
                graph.prefilter_scan(&q, &filter, 10, &mut sb)
            } else {
                graph.search_filtered(&q, &filter, 10, 48, &mut scratch, &mut sb)
            };
            let (a, sa) = snap.hybrid_search(&q, &pred, &attrs, 10, 48, &mut scratch);
            assert_eq!(bits(&a), local_bits(&b), "{label}: routes must answer bit-identically");
            assert_eq!(
                (sa.fallback, sa.ndis, sa.nhops),
                (sb.fallback, sb.ndis, sb.nhops),
                "{label}: the same route and traversal"
            );
            assert_eq!(sa.npred_evaluated(), n as u64, "{label}: one pass over the rows");
            if !sa.fallback {
                // Without the bitmap, every check the traversal asks for
                // would be an evaluation.
                assert!(
                    sa.npred_evaluated() < sa.npred,
                    "{label}: the plan must evaluate fewer rows than it checks \
                     ({} vs {})",
                    sa.npred_evaluated(),
                    sa.npred
                );
            }
        }
    }

    /// Every segment layout a lifecycle produces, in one snapshot: two
    /// frozen segments of `chunks[0]` and `chunks[1]` rows merged after
    /// deletes (a gid span with gaps), a fresh contiguous one of `chunks[2]`
    /// rows, tombstones on both, then an active segment of `active_rows`
    /// rows (none when 0).
    fn lifecycle(
        rng: &mut StdRng,
        seed: u64,
        chunks: [usize; 3],
        active_rows: usize,
    ) -> Arc<SegmentSnapshot> {
        let mut index = SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma);
        let insert = |index: &mut SegmentedAcornIndex, rng: &mut StdRng, n: usize| {
            for _ in 0..n {
                let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
                index.insert(&v);
            }
        };
        let delete_some = |index: &mut SegmentedAcornIndex, rng: &mut StdRng, upto: usize| {
            for _ in 0..upto / 4 {
                index.delete(rng.gen_range(0..upto as u64));
            }
        };
        insert(&mut index, rng, chunks[0]);
        index.freeze();
        insert(&mut index, rng, chunks[1]);
        index.freeze();
        delete_some(&mut index, rng, chunks[0] + chunks[1]);
        index.merge();
        insert(&mut index, rng, chunks[2]);
        index.freeze();
        delete_some(&mut index, rng, chunks.iter().sum());
        insert(&mut index, rng, active_rows);
        index.snapshot()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Over every segment layout a lifecycle produces — contiguous gid
        /// spans (fresh freezes), spans with gaps (merged survivors),
        /// tombstoned rows, an active segment that is empty or not — the
        /// planner's local bitmap is `{l : pred(attrs[gid[l]]) ∧ ¬tomb[l]}`
        /// with `pred` the interpreter, whatever the recycled bitmap held
        /// before.
        #[test]
        fn local_bitmap_is_the_predicate_over_live_rows(
            seed in 0u64..u64::MAX,
            chunk in 30usize..130,
            active_rows in prop::sample::select(vec![0usize, 1, 70]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let snap = lifecycle(&mut rng, seed, [chunk; 3], active_rows);
            let total = 3 * chunk + active_rows;
            let attrs = AttrStore::builder()
                .add_int("label", (0..total).map(|_| rng.gen_range(0i64..6)).collect())
                .add_text(
                    "cap",
                    (0..total).map(|_| CAPTIONS[rng.gen_range(0..CAPTIONS.len())].into()).collect(),
                )
                .build();
            prop_assert_eq!(snap.active.is_some(), active_rows > 0);
            let (mut gapped, mut contiguous, mut tombstoned) = (false, false, false);
            for _ in 0..3 {
                let pred = random_pred(&mut rng);
                let compiled = CompiledPredicate::compile(&pred);
                for view in snap.frozen.iter().chain(snap.active.iter()) {
                    let gids = &view.payload.global_ids;
                    let (rows, span) = (gids.len(), (gids[gids.len() - 1] - gids[0] + 1) as usize);
                    gapped |= span != rows;
                    contiguous |= span == rows;
                    tombstoned |= view.deleted > 0;
                    let want = Bitset::from_ids(
                        rows,
                        (0..rows as u32).filter(|&l| {
                            pred.eval(&attrs, gids[l as usize] as u32) && !view.tombstones.get(l)
                        }),
                    );
                    let mut bits = Bitset::full(777); // stale pooled content
                    let n = materialize_local(view, &compiled, &attrs, &mut bits);
                    prop_assert_eq!(&bits, &want, "gids {}..={}", gids[0], gids[rows - 1]);
                    prop_assert_eq!(n, span as u64, "rows charged to npred");
                }
            }
            prop_assert!(gapped && contiguous && tombstoned, "every layout must be exercised");
        }
    }
}
