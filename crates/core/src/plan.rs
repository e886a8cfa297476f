//! The hybrid query planner: §5.2's cost-model routing, decided **per
//! segment** on the segment's exact passing count.
//!
//! [`SegmentSnapshot::hybrid_search`](crate::snapshot::SegmentSnapshot::hybrid_search)
//! is the one way in for a predicate, and the pure search
//! ([`search_with`](crate::snapshot::SegmentSnapshot::search_with)) is the
//! same plan with none. A static corpus is the one-segment case — a
//! [`bulk_load`](crate::segment::SegmentedAcornIndex::bulk_load)ed segment
//! with a contiguous id map and no tombstones — so a fully-merged segment
//! and a from-scratch load of its surviving rows run the same code over the
//! same numbers: the compaction ≡ rebuild bit-identity holds by
//! construction.
//!
//! The plan, in order:
//!
//! 1. **Compile** the predicate. A program that folded to `false` answers
//!    empty without touching a segment; one that folded to `true` is no
//!    predicate at all — the pure search.
//! 2. **Per segment, one bitmap** of its passing live rows, in its local
//!    id space. With a predicate, it is materialized — one block-kernel
//!    pass over the segment's global-id span, a gather through the id map
//!    only when merges left gaps in it — and the tombstoned bits cleared.
//!    With none, it is the negated tombstones. Its popcount is the
//!    segment's exact number of passing live rows.
//! 3. **Per segment, route** on that count to one of §5.2's two leaves,
//!    both feeding **one top-`k` per query** (by global id). Under
//!    `s_min · rows` the set rows are scored exactly by
//!    [`scan_into`], 64 per batch, straight into that top-`k` (the
//!    pre-filter scan): a row above the current `k`-th distance costs one
//!    compare and never reaches the heap or the id map, and that bound
//!    carries from each segment to the next. Otherwise the graph is
//!    traversed with constant-time bit tests over the bitmap as a plain
//!    local-id [`BitmapFilter`], and its top-`k` list is offered to the
//!    same top-`k`. No id-map gather and no tombstone test remain in
//!    either inner loop, and there is no k-way merge: a segment's global
//!    ids ascend with its local ones, so `(dist, gid)` orders its rows as
//!    `(dist, local)` does and the query's top-`k` holds exactly what
//!    merging sorted per-segment lists would.
//!
//! A traced query ([`SegmentSnapshot::try_hybrid_search_traced`](crate::snapshot::SegmentSnapshot::try_hybrid_search_traced))
//! runs the same plan and records, in a [`QueryTrace`], the wall time of
//! each stage — compile, materialize, scan, traverse — and per segment its
//! rows, its passing count, the route that count chose and its share of
//! the [`SearchStats`]. Untraced, the clock is never read.
//!
//! There is no sample and no seed: a plan depends only on the snapshot and
//! the predicate. Every row verdict comes from the compiled program. The AST
//! interpreter ([`Predicate::eval`]) is the tests' oracle: `core/tests/common`
//! rebuilds this plan from public calls with it and holds the engine to the
//! result.

use std::time::Instant;

use acorn_hnsw::heap::TopK;
use acorn_hnsw::search::scan_into;
use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, CompiledPredicate, Predicate};

use crate::segment::GlobalNeighbor;
use crate::snapshot::SegmentView;

/// The selectivity under which the repo benchmark's staged replay
/// block-materializes a segment it has sampled, instead of filtering it
/// lazily through a memo. The engine no longer reads it: the planner
/// materializes and counts every segment. It stays public only because the
/// benchmark adapter binds it; ROADMAP item 2(b) retires it along with the
/// staged replay.
pub const MATERIALIZE_BELOW_SELECTIVITY: f64 = 0.25;

/// The leaf a segment was routed to, on its exact passing count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The exact pre-filter scan: fewer than `s_min · rows` rows passed.
    Scan,
    /// Graph traversal over the segment's bitmap.
    Traverse,
}

/// One segment's part in a traced query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentTrace {
    /// The segment's rows, tombstoned ones included.
    pub rows: usize,
    /// Its live rows that pass the predicate (all live rows without one):
    /// the count the route was chosen on.
    pub passing: usize,
    /// The route that count chose.
    pub route: Route,
    /// This segment's share of the query's [`SearchStats`]; the shares sum
    /// to the query's.
    pub stats: SearchStats,
}

/// Where one query's time went, stage by stage, and what each segment did.
/// Filled by
/// [`SegmentSnapshot::try_hybrid_search_traced`](crate::snapshot::SegmentSnapshot::try_hybrid_search_traced);
/// times are wall-clock nanoseconds, summed over the segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Compiling the predicate.
    pub compile_ns: u64,
    /// Building and counting every segment's bitmap.
    pub materialize_ns: u64,
    /// The exact scans of the segments routed to [`Route::Scan`].
    pub scan_ns: u64,
    /// The traversals of the segments routed to [`Route::Traverse`],
    /// offering their lists to the query's top-`k` included.
    pub traverse_ns: u64,
    /// One entry per segment, in query order.
    pub segments: Vec<SegmentTrace>,
}

/// A wall clock read only for a traced query.
struct Lap(Option<Instant>);

impl Lap {
    fn new(traced: bool) -> Self {
        Self(traced.then(Instant::now))
    }

    /// Nanoseconds since the previous lap; 0, without reading the clock,
    /// when untraced.
    fn lap(&mut self) -> u64 {
        let Some(last) = &mut self.0 else { return 0 };
        let now = Instant::now();
        let ns = now.duration_since(*last).as_nanos() as u64;
        *last = now;
        ns
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

/// Plan and run one query over `segments` (non-empty, in query order,
/// `k > 0`), adding its work to `stats` and, when traced, its stages and
/// segments to `trace`; returns the query's top-`k` by global id. With no
/// predicate (or one that folds to `true`) each segment's bitmap is its
/// live rows: the pure search.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search<'a>(
    segments: impl Iterator<Item = &'a SegmentView>,
    query: &[f32],
    predicate: Option<(&Predicate, &AttrStore)>,
    k: usize,
    efs: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    mut trace: Option<&mut QueryTrace>,
) -> Vec<GlobalNeighbor> {
    let mut clock = Lap::new(trace.is_some());
    let compiled = predicate.map(|(p, attrs)| (CompiledPredicate::compile(p), attrs));
    if let Some(trace) = trace.as_deref_mut() {
        trace.compile_ns += clock.lap();
    }
    let filter = match &compiled {
        Some((program, _)) if program.as_const() == Some(false) => return Vec::new(),
        Some((program, attrs)) if program.as_const().is_none() => Some((program, *attrs)),
        _ => None,
    };
    let mut top = TopK::new(k);
    for seg in segments {
        let (index, gids) = (seg.index(), seg.global_ids());
        let mut own = SearchStats::default();
        let mut bits = std::mem::take(&mut scratch.bitmap);
        if let Some((compiled, attrs)) = filter {
            own.npred += materialize_local(seg, compiled, attrs, &mut bits);
        } else {
            bits.clone_from(&seg.tombstones);
            bits.negate();
        }
        let passing = bits.count();
        let route = if (passing as f64) < index.params().s_min() * seg.rows() as f64 {
            Route::Scan
        } else {
            Route::Traverse
        };
        let materialize_ns = clock.lap();
        match route {
            Route::Scan => {
                let (vecs, metric) = (&**index.vectors(), index.params().metric);
                let to_global = |d, l: u32| GlobalNeighbor::new(d, gids[l as usize]);
                let dists = &mut scratch.dist_buf;
                own.ndis +=
                    scan_into(vecs, metric, query, bits.iter_ones(), dists, &mut top, to_global);
                own.fallback = true;
                scratch.bitmap = bits;
            }
            Route::Traverse => {
                let filter = BitmapFilter::new(bits);
                let before = own.npred;
                let out = index.search_filtered(query, &filter, k, efs, scratch, &mut own);
                // Every traversal check against the bitmap is a cache answer.
                own.npred_cached += own.npred - before;
                for n in out {
                    top.push(GlobalNeighbor::new(n.dist, gids[n.id as usize]));
                }
                scratch.bitmap = filter.into_bits();
            }
        }
        stats.merge(&own);
        if let Some(trace) = trace.as_deref_mut() {
            trace.materialize_ns += materialize_ns;
            *match route {
                Route::Scan => &mut trace.scan_ns,
                Route::Traverse => &mut trace.traverse_ns,
            } += clock.lap();
            trace.segments.push(SegmentTrace { rows: seg.rows(), passing, route, stats: own });
        }
    }
    top.into_sorted()
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
    use acorn_predicate::{AllPass, Regex};
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
        // The pure search: the live rows' bitmap, traversed; every check
        // is a bit test against it.
        let checks = SearchStats { npred_cached: want_stats.npred, ..want_stats };
        assert_eq!(stats, checks, "constant true: the live-row bitmap and nothing else");

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
            // One pass over the rows; then the scan enumerates set bits,
            // while the traversal's checks are each a bit test (the
            // reference `prefilter_scan` asks the bitmap about every row).
            let checks = if scan { 0 } else { want_stats.npred };
            assert_eq!(stats.npred, n as u64 + checks, "{passing} rows");
            assert_eq!(stats.npred_cached, checks, "{passing} rows: bit tests");
        }
    }

    #[test]
    fn bad_input_is_a_typed_error_at_the_snapshot_and_a_panic_in_the_wrappers() {
        use crate::snapshot::QueryError;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let n = 300;
        let mut index = SegmentedAcornIndex::new(8, params(80), AcornVariant::Gamma);
        let mut rng = StdRng::seed_from_u64(80);
        index.bulk_load(VectorStore::from_flat(
            8,
            (0..n * 8).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        ));
        let (snap, reader) = (index.snapshot(), index.reader());
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let short = AttrStore::builder().add_int("v", (1..n as i64).collect()).build();
        let pred = Predicate::Between { field: 0, lo: 0, hi: 9 };
        let mut scratch = SearchScratch::new(n);
        let good = vec![0.1f32; 8];
        let with = |i: usize, x: f32| {
            let mut q = good.clone();
            q[i] = x;
            q
        };
        let cases = [
            (vec![0.1; 7], &attrs, QueryError::Dimension { expected: 8, got: 7 }),
            (vec![0.1; 9], &attrs, QueryError::Dimension { expected: 8, got: 9 }),
            (Vec::new(), &attrs, QueryError::Dimension { expected: 8, got: 0 }),
            (with(3, f32::NAN), &attrs, QueryError::NonFinite { index: 3 }),
            (with(0, -f32::NAN), &attrs, QueryError::NonFinite { index: 0 }),
            (with(7, f32::NEG_INFINITY), &attrs, QueryError::NonFinite { index: 7 }),
            (
                good.clone(),
                &short,
                QueryError::ShortAttrs { rows: n - 1, next_global_id: n as u64 },
            ),
        ];
        for (q, attrs, want) in cases {
            for k in [0, 10] {
                let got = catch_unwind(AssertUnwindSafe(|| {
                    snap.try_hybrid_search(&q, &pred, attrs, k, 32, &mut scratch)
                }));
                assert_eq!(got.expect("a typed error, not a panic"), Err(want.clone()), "k {k}");
                let message = |payload: Box<dyn std::any::Any + Send>| {
                    payload.downcast::<String>().map(|s| *s).unwrap_or_default()
                };
                let snapshot_panic = catch_unwind(AssertUnwindSafe(|| {
                    snap.hybrid_search(&q, &pred, attrs, k, 32, &mut scratch)
                }));
                assert_eq!(snapshot_panic.map_err(message).unwrap_err(), want.to_string());
                let pooled = catch_unwind(AssertUnwindSafe(|| {
                    reader.hybrid_search(&q, &pred, attrs, k, 32)
                }));
                assert_eq!(
                    pooled.expect("a typed error, not a panic"),
                    Err(want.clone()),
                    "reader"
                );
            }
        }
        let (hits, stats) =
            snap.try_hybrid_search(&good, &pred, &attrs, 10, 32, &mut scratch).unwrap();
        assert_eq!((hits.len(), stats.fallback), (10, true), "good input still answers");
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
        let pure = snap.search_with(&q, 10, 40, &mut scratch, &mut pure_stats).unwrap();
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

    #[test]
    fn a_traced_query_answers_as_the_untraced_one_and_accounts_for_every_segment() {
        let mut rng = StdRng::seed_from_u64(91);
        let snap = lifecycle(&mut rng, 91, [120, 120, 200], 70);
        let total = 440 + 70;
        let attrs = AttrStore::builder()
            .add_int("label", (0..total).map(|_| rng.gen_range(0i64..6)).collect())
            .add_text(
                "cap",
                (0..total).map(|_| CAPTIONS[rng.gen_range(0..CAPTIONS.len())].into()).collect(),
            )
            .build();
        let views: Vec<&SegmentView> = snap.segments().collect();
        assert!(views.len() >= 3, "frozen segments and an active one");
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let mut trace = QueryTrace::default();
        let mut routes = Vec::new();
        let mut preds = vec![Predicate::True, Predicate::const_false()];
        preds.extend((0..12).map(|_| random_pred(&mut rng)));
        for pred in &preds {
            let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (want, want_stats) =
                snap.try_hybrid_search(&q, pred, &attrs, 10, 32, &mut scratch).unwrap();
            let t0 = std::time::Instant::now();
            let (got, stats) = snap
                .try_hybrid_search_traced(&q, pred, &attrs, 10, 32, &mut scratch, &mut trace)
                .unwrap();
            let wall = t0.elapsed().as_nanos() as u64;
            let what = pred.describe(&attrs);
            assert_eq!(bits(&got), bits(&want), "{what}: the untraced list");
            assert_eq!(stats, want_stats, "{what}: the untraced stats");
            if CompiledPredicate::compile(pred).as_const() == Some(false) {
                assert!(trace.segments.is_empty(), "{what}: no segment is touched");
                continue;
            }
            assert_eq!(trace.segments.len(), views.len(), "{what}: one entry per segment");
            let mut sum = SearchStats::default();
            for (view, seg) in views.iter().zip(&trace.segments) {
                let gids = view.global_ids();
                let live_passing = (0..gids.len() as u32)
                    .filter(|&l| {
                        !view.tombstones.get(l) && pred.eval(&attrs, gids[l as usize] as u32)
                    })
                    .count();
                assert_eq!((seg.rows, seg.passing), (gids.len(), live_passing), "{what}");
                let s_min = view.index().params().s_min();
                let scan = (seg.passing as f64) < s_min * seg.rows as f64;
                assert_eq!(seg.route, if scan { Route::Scan } else { Route::Traverse }, "{what}");
                assert_eq!(seg.stats.fallback, scan, "{what}");
                routes.push(seg.route);
                sum.merge(&seg.stats);
            }
            assert_eq!(sum, stats, "{what}: the segments' shares sum to the query's stats");
            let staged =
                trace.compile_ns + trace.materialize_ns + trace.scan_ns + trace.traverse_ns;
            assert!(staged <= wall, "{what}: stages {staged} ns within the call's {wall} ns");
        }
        assert!(routes.contains(&Route::Scan) && routes.contains(&Route::Traverse));
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
