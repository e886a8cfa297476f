//! The hybrid query planner: §5.2's cost-model routing, decided **once per
//! query** for every segment the query will touch.
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
//! 2. **Count small segments, sample large ones.** A segment of at most
//!    64,000 rows (`EXACT_COUNT_ROWS`) is materialized outright and routed
//!    on its exact count: it has no more 64-row blocks than the sample has
//!    draws, and one block-kernel pass over 64 rows costs about what one
//!    sampled row does. Over the larger segments only, `SELECTIVITY_SAMPLES`
//!    (1,000) positions are drawn once per query over their concatenated
//!    rows ([`sample_positions`]), tallying draws and hits per segment; a
//!    query whose segments are all small draws nothing.
//!    [`CostClass::Expensive`] programs are not sampled either — they
//!    materialize whatever the tally would say.
//! 3. **Per segment**, when it was counted, or its tally is under
//!    `max(`[`MATERIALIZE_BELOW_SELECTIVITY`]`, s_min)`, or it drew nothing,
//!    or the program is expensive: materialize the predicate **into the
//!    segment's local id space** — one block-kernel pass over the segment's
//!    global-id span, a gather through the id map only when merges left
//!    gaps in it — clear the tombstoned bits, and route on the **exact**
//!    passing count: under `s_min · rows` the set bits are enumerated and
//!    scored exactly (the pre-filter scan), otherwise the graph is traversed
//!    with constant-time bit tests. Both branches see a plain local-id
//!    [`BitmapFilter`]; no id-map gather and no tombstone test remain in
//!    their inner loops.
//! 4. Otherwise (a sampled segment whose tally is at or above both
//!    thresholds): traverse with the compiled program as a lazy per-row
//!    filter through the id map, memoized, the memo seeded with the shared
//!    sample's verdicts.
//!
//! Every row verdict comes from the compiled program. The AST interpreter
//! ([`Predicate::eval`]) is the tests' oracle: `core/tests/common` rebuilds
//! this plan from public calls with it and holds the engine to the result.

use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{
    sample_positions, AllPass, AttrStore, BitmapFilter, Bitset, CompiledPredicate, CostClass,
    MemoFilter, NodeFilter, Predicate,
};

use crate::segment::GlobalNeighbor;
use crate::snapshot::{merge_segments, SegmentView};

/// Materialization gate of the hybrid query planner for **sampled**
/// segments — those over 64,000 rows; a smaller segment is always
/// materialized and counted. A sampled segment whose **tally of the
/// per-query selectivity sample** (hits ÷ draws that landed in the
/// segment) falls below this value — or below the segment's `s_min`,
/// whichever is larger — has the predicate **block-materialized** into a
/// segment-local bitmap (one 64-row columnar scan per mask word, then
/// constant-time bit tests) instead of evaluated lazily; the segment is then
/// routed to the exact scan or to graph traversal on the bitmap's exact
/// count. Rationale: at low selectivity the traversal spends most of its
/// predicate checks on *failing* rows spread across many neighborhoods, so
/// the number of distinct rows it would evaluate lazily approaches the
/// segment's row count anyway — at which point one vectorized scan
/// (≈ `rows / 64` mask-word stores) is strictly cheaper than `rows` scalar
/// evaluations. At or above the gate the traversal touches a small, reused
/// subset of rows and lazy memoized evaluation wins. Queries with a regex
/// clause ([`CostClass::Expensive`]) always materialize, unsampled, because
/// per-row regex cost dwarfs the scan overhead; so does a segment the
/// sample drew nothing from. The repo benchmark's staged replay binds this
/// value and still applies it to every segment it estimates.
pub const MATERIALIZE_BELOW_SELECTIVITY: f64 = 0.25;

/// Rows the per-query selectivity sample draws (over the sampled segments
/// together).
pub(crate) const SELECTIVITY_SAMPLES: usize = 1000;

/// Segments of at most this many rows are materialized and routed on their
/// exact count instead of being sampled: such a segment has no more 64-row
/// blocks than the sample has draws, and one block-kernel pass costs about
/// what one sampled row does (`benches/predicate_eval.rs` times both).
pub(crate) const EXACT_COUNT_ROWS: usize = 64 * SELECTIVITY_SAMPLES;

/// A segment plus its slice of the concatenated sample universe and its
/// tally of the shared sample. A counted (unsampled) segment owns the empty
/// slice and draws nothing.
struct Planned<'a> {
    seg: &'a SegmentView,
    /// Positions `start..end` of the sample universe are this segment's
    /// local rows `0..end - start`.
    start: usize,
    end: usize,
    draws: u32,
    hits: u32,
}

/// Lazy per-row evaluation at a segment-local id: through the id map to the
/// attribute row (global ids index the attribute store), then the compiled
/// program.
struct SegmentRows<'a> {
    attrs: &'a AttrStore,
    compiled: &'a CompiledPredicate,
    global_ids: &'a [u64],
}

impl NodeFilter for SegmentRows<'_> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.compiled.eval(self.attrs, self.global_ids[id as usize] as u32)
    }
}

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
/// the query's summed stats. `seed` seeds the selectivity sample; segments
/// of at most `count_rows` rows are counted instead of sampled (the public
/// entry passes [`EXACT_COUNT_ROWS`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn hybrid_search<'a>(
    segments: impl Iterator<Item = &'a SegmentView>,
    seed: u64,
    query: &[f32],
    predicate: &Predicate,
    attrs: &AttrStore,
    k: usize,
    efs: usize,
    scratch: &mut SearchScratch,
    count_rows: usize,
) -> (Vec<GlobalNeighbor>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut sampled_rows = 0usize;
    let mut planned: Vec<Planned<'a>> = segments
        .map(|seg| {
            let start = sampled_rows;
            if seg.rows() > count_rows {
                sampled_rows += seg.rows();
            }
            Planned { seg, start, end: sampled_rows, draws: 0, hits: 0 }
        })
        .collect();

    let compiled = CompiledPredicate::compile(predicate);
    match compiled.as_const() {
        Some(false) => return (Vec::new(), stats),
        Some(true) => {
            let lists = planned
                .iter()
                .map(|p| (p.seg, p.seg.search_live(query, &AllPass, k, efs, scratch, &mut stats)));
            return (merge_segments(lists, k), stats);
        }
        None => {}
    }

    // The shared sample: `(position, verdict)` in draw order, kept so a
    // segment that ends up on the lazy branch starts its memo warm. One
    // 8 KB allocation per sampled query (~0.1 µs); measured alternatives
    // and why it is not pooled: CHANGES.md, PR 15.
    // A query whose segments are all counted allocates nothing here.
    let mut sample: Vec<(u32, bool)> = Vec::new();
    if compiled.cost_class() == CostClass::Cheap && sampled_rows > 0 {
        sample.reserve_exact(SELECTIVITY_SAMPLES);
        sample_positions(sampled_rows, SELECTIVITY_SAMPLES, seed, |pos| {
            let owner = planned.partition_point(|p| p.end <= pos);
            let p = &mut planned[owner];
            let pass = compiled.eval(attrs, p.seg.global_ids()[pos - p.start] as u32);
            p.draws += 1;
            p.hits += u32::from(pass);
            sample.push((pos as u32, pass));
        });
        stats.npred += sample.len() as u64;
    }

    let lists = planned.iter().map(|p| {
        let (seg, rows) = (p.seg, p.seg.rows());
        let index = seg.index();
        let s_min = index.params().s_min();
        // Anything that could route to the exact scan is materialized, so
        // the scan/traverse decision is always made on an exact count. A
        // counted segment drew nothing, so it is never lazy.
        let lazy = p.draws > 0
            && f64::from(p.hits) / f64::from(p.draws) >= MATERIALIZE_BELOW_SELECTIVITY.max(s_min);
        let out = if !lazy {
            let mut bits = std::mem::take(&mut scratch.bitmap);
            stats.npred += materialize_local(seg, &compiled, attrs, &mut bits);
            let passing = bits.count();
            let filter = BitmapFilter::new(bits);
            let out = if (passing as f64) < s_min * rows as f64 {
                index.prefilter_scan(query, &filter, k, &mut stats)
            } else {
                let before = stats.npred;
                let out = index.search_filtered(query, &filter, k, efs, scratch, &mut stats);
                // Every traversal check against the bitmap is a cache answer.
                stats.npred_cached += stats.npred - before;
                out
            };
            scratch.bitmap = filter.into_bits();
            out
        } else {
            let rows_filter =
                SegmentRows { attrs, compiled: &compiled, global_ids: seg.global_ids() };
            let memo = scratch.take_memo(rows);
            for &(pos, pass) in &sample {
                if (p.start..p.end).contains(&(pos as usize)) {
                    memo.record(pos - p.start as u32, pass);
                }
            }
            let memoized = MemoFilter::new(&rows_filter, memo);
            let out = seg.search_live(query, &memoized, k, efs, scratch, &mut stats);
            stats.npred_cached += memoized.hits();
            scratch.put_memo(memoized.into_memo());
            out
        };
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

    /// The planner over `snap` with an explicit row rule: segments of at
    /// most `count_rows` rows are counted, larger ones sampled (0 samples
    /// every segment, which is how a 1,000-row test segment reaches the
    /// lazy branch without a 64k-row graph).
    #[allow(clippy::too_many_arguments)]
    fn plan_with(
        snap: &SegmentSnapshot,
        count_rows: usize,
        q: &[f32],
        pred: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<GlobalNeighbor>, SearchStats) {
        let seed = snap.params().seed;
        hybrid_search(snap.segments(), seed, q, pred, attrs, k, efs, scratch, count_rows)
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

        // (passing rows, scanned, lazily filtered when sampled)
        for (passing, scan, lazy) in [(50i64, true, false), (200, false, false), (600, false, true)]
        {
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
            // Counted (the default for a 1,000-row segment), then sampled.
            for (count_rows, sampled) in [(EXACT_COUNT_ROWS, 0), (0, SELECTIVITY_SAMPLES as u64)] {
                let lazy = lazy && sampled > 0;
                let (got, stats) =
                    plan_with(&snap, count_rows, &q, &pred, &attrs, k, efs, &mut scratch);
                let case = format!("{passing} rows, {sampled} sampled");
                assert_eq!(bits(&got), local_bits(&want), "{case}");
                assert_eq!(
                    (stats.ndis, stats.nhops, stats.fallback),
                    (want_stats.ndis, want_stats.nhops, scan),
                    "{case}: the same traversal"
                );
                // The sample if drawn, one pass over the rows unless
                // filtered lazily, and the graph's own checks.
                let materialized = if lazy { 0 } else { n as u64 };
                assert_eq!(stats.npred, sampled + materialized + want_stats.npred, "{case}");
                if lazy {
                    assert!(stats.npred_cached > 0, "{case}: memo hits");
                } else {
                    assert_eq!(stats.npred_cached, want_stats.npred, "{case}: bit tests");
                }
            }
        }
        // The public entry counts this segment: the default threshold.
        let pred = Predicate::Between { field, lo: 0, hi: 599 };
        let entry = snap.hybrid_search(&q, &pred, &attrs, k, efs, &mut scratch);
        let counted = plan_with(&snap, EXACT_COUNT_ROWS, &q, &pred, &attrs, k, efs, &mut scratch);
        assert_eq!((bits(&entry.0), entry.1), (bits(&counted.0), counted.1));
    }

    #[test]
    fn the_row_rule_counts_small_segments_and_samples_only_the_rest() {
        // Two segments, 300 and 900 rows, and a predicate every row passes:
        // a sampled segment tallies 1.0 and filters lazily, a counted one is
        // materialized whatever its tally would say.
        let mut index = SegmentedAcornIndex::new(8, params(5), AcornVariant::Gamma);
        let mut rng = StdRng::seed_from_u64(5);
        for rows in [300, 900] {
            let flat: Vec<f32> = (0..rows * 8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.bulk_load(VectorStore::from_flat(8, flat));
        }
        let snap = index.snapshot();
        assert_eq!(snap.frozen_segments().len(), 2);
        let attrs = AttrStore::builder().add_int("v", vec![1; 1200]).build();
        let pred = Predicate::Equals { field: 0, value: 1 };
        let mut scratch = SearchScratch::new(900);
        let q = vec![0.2; 8];
        let mut run =
            |count_rows| plan_with(&snap, count_rows, &q, &pred, &attrs, 10, 48, &mut scratch);
        // Both sampled, both lazy: beyond the sample it charges only the
        // traversal's checks, which the routes below charge after their
        // passes over the rows.
        let (want, all_lazy) = run(0);
        let lazy_checks = all_lazy.npred - SELECTIVITY_SAMPLES as u64;
        // (row rule, rows materialized, sample drawn)
        for (count_rows, materialized, sampled) in [(300, 300, true), (900, 1200, false)] {
            let (got, stats) = run(count_rows);
            assert_eq!(bits(&got), bits(&want), "{count_rows}: same answers");
            assert_eq!((stats.ndis, stats.nhops), (all_lazy.ndis, all_lazy.nhops));
            // The same checks are asked for on every route; on a counted
            // segment they became bitmap tests.
            let draws = if sampled { SELECTIVITY_SAMPLES as u64 } else { 0 };
            assert_eq!(stats.npred, draws + materialized + lazy_checks, "{count_rows}");
            assert!(stats.npred_cached > 0, "{count_rows}: the counted segment");
        }
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
            assert_eq!(stats, pure_stats, "no sample, no memo, no bitmap: the same work");
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
        // `c` rows; an 800-row segment is counted, not sampled, so the
        // decision is made on the exact count.
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
            // One block pass over the 800 rows and no sample; the scan
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
            // Sampled, so the dense predicates take the lazy memo branch;
            // the reference is the counted route (materialized bitmap).
            let (b, sb) = plan_with(&snap, 0, &q, &pred, &attrs, 10, 48, &mut scratch);
            let (a, sa) =
                plan_with(&snap, EXACT_COUNT_ROWS, &q, &pred, &attrs, 10, 48, &mut scratch);
            assert_eq!(bits(&a), bits(&b), "{label}: routes must answer bit-identically");
            assert_eq!(
                (sa.fallback, sa.ndis, sa.nhops),
                (sb.fallback, sb.ndis, sb.nhops),
                "{label}: the same route and traversal"
            );
            if !sb.fallback {
                // Without the memo or the bitmap, every check the traversal
                // asks for would be an evaluation.
                assert!(
                    sb.npred_evaluated() < sb.npred,
                    "{label}: the plan must evaluate fewer rows than it checks \
                     ({} vs {})",
                    sb.npred_evaluated(),
                    sb.npred
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

    #[test]
    fn lazy_memo_and_counted_bitmap_agree_on_every_segment_layout() {
        // No benchmark workload takes the lazy branch (every benchmark
        // segment is counted), so it is held here to the counted route over
        // a merge-gapped, a tombstoned and an active segment. The third
        // segment outgrows the merged one, so its sample positions overlap
        // its own local ids: a memo seeded at the wrong offset gives wrong
        // verdicts instead of only unused ones.
        let mut rng = StdRng::seed_from_u64(90);
        let snap = lifecycle(&mut rng, 90, [100, 100, 400], 70);
        let views: Vec<&SegmentView> = snap.segments().collect();
        let span = |v: &SegmentView| v.global_ids()[v.rows() - 1] - v.global_ids()[0] + 1;
        assert!(views.iter().any(|v| span(v) != v.rows() as u64), "a merge-gapped segment");
        assert!(views.iter().any(|v| v.deleted_rows() > 0), "a tombstoned segment");
        assert!(snap.active_segment().is_some(), "an active segment");
        let spans: u64 = views.iter().map(|v| span(v)).sum();

        let attrs = AttrStore::builder()
            .add_int("label", (0..snap.next_global_id()).map(|_| rng.gen_range(0i64..6)).collect())
            .build();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        // Dense enough that every segment tallies ≥ 0.25 = s_min.
        for pred in [
            Predicate::Not(Box::new(Predicate::Equals { field: 0, value: 3 })),
            Predicate::Between { field: 0, lo: 1, hi: 4 },
            Predicate::in_values(0, vec![0, 2, 4]),
        ] {
            for _ in 0..4 {
                let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (lazy, ls) = plan_with(&snap, 0, &q, &pred, &attrs, 10, 32, &mut scratch);
                let (counted, cs) =
                    plan_with(&snap, EXACT_COUNT_ROWS, &q, &pred, &attrs, 10, 32, &mut scratch);
                assert_eq!(bits(&lazy), bits(&counted), "{pred:?}: the same answers");
                assert_eq!(
                    (ls.ndis, ls.nhops),
                    (cs.ndis, cs.nhops),
                    "{pred:?}: the same traversal"
                );
                assert!(!ls.fallback && !cs.fallback, "{pred:?}: dense, so traversed");
                // Every segment filtered lazily after the sample on one side
                // and was materialized over its gid span on the other, in
                // front of the same checks.
                assert_eq!(ls.npred - SELECTIVITY_SAMPLES as u64, cs.npred - spans, "{pred:?}");
                assert!(ls.npred_cached > 0, "{pred:?}: memo hits");
            }
        }
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
