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
//!    id space. With a predicate, it is materialized over the segment's
//!    global-id span on one of two routes, picked once per query by the
//!    predicate crate's work rule (candidates against the rows every
//!    segment spans; [`CompiledPredicate::ordered_candidates`]):
//!    - *ordered*: when the program is an int `Equals`/`Between`/`In`, or
//!      an `And` with one, and few enough rows pass it, the attribute
//!      store's value-ordered index sets them, with two searches per
//!      value range, in one store-wide bitmap; each segment's span is
//!      shifted out of it, and the `And`'s other conjuncts run on the rows
//!      set there alone ([`CompiledPredicate::ordered_range`]);
//!    - *blocks*: one block-kernel pass over the span.
//!
//!    Either way, a gather through the id map follows only when merges
//!    left gaps in the span, and the tombstoned bits are cleared. Both
//!    routes give the same bits. With no predicate, the bitmap is the
//!    negated tombstones. Its popcount is the segment's exact number of
//!    passing live rows.
//! 3. **Per segment, route** on that count to one of §5.2's two leaves,
//!    both feeding **one top-`k` per query** (by global id). A segment
//!    without a graph — the active segment, a pending one — scans: it has
//!    nothing to traverse. A sealed one scans when fewer than `s_min · rows`
//!    rows pass (§5.2's recall floor) or when scoring its passing rows is
//!    predicted to cost no more work than a traversal of its graph would
//!    ([`Route::choose`]). A scan scores the set rows exactly with [`scan_into`], 64 per
//!    batch, straight into that top-`k` (the pre-filter scan): a row above
//!    the current `k`-th distance costs one compare and never reaches the
//!    heap or the id map, and that bound carries from each segment to the
//!    next. Otherwise the graph is traversed with constant-time bit tests
//!    over the bitmap as a plain local-id [`BitmapFilter`], and its top-`k`
//!    list is offered to the same top-`k`. No id-map gather and no
//!    tombstone test remain in either inner loop, and there is no k-way
//!    merge: a segment's global ids ascend with its local ones, so
//!    `(dist, gid)` orders its rows as `(dist, local)` does and the query's
//!    top-`k` holds exactly what merging sorted per-segment lists would.
//!
//! A traced query ([`SegmentSnapshot::try_hybrid_search_traced`](crate::snapshot::SegmentSnapshot::try_hybrid_search_traced))
//! runs the same plan and records, in a [`QueryTrace`], the wall time of
//! each stage — compile, materialize, scan, traverse — and per segment its
//! rows, its passing count, the route that count chose and its share of
//! the [`SearchStats`]. Untraced, the clock is never read.
//!
//! There is no sample, no seed and no clock in the route: a plan depends
//! only on the snapshot, the predicate, `k` and `efs`. Every row verdict
//! comes from the compiled program. The AST interpreter
//! ([`Predicate::eval`]) is the tests' oracle: `core/tests/common` rebuilds
//! this plan from public calls with it and holds the engine to the result.

use std::time::Instant;

use acorn_hnsw::heap::TopK;
use acorn_hnsw::search::scan_into;
use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, CompiledPredicate, Predicate};

use crate::params::AcornParams;
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
    /// The exact pre-filter scan: the segment has no graph, fewer than
    /// `s_min · rows` rows passed, or the scan is predicted to cost no more
    /// than the traversal ([`Route::choose`]).
    Scan,
    /// Graph traversal over the segment's bitmap.
    Traverse,
}

// The work model behind `Route::choose`, in units of one vector component
// scored by a scan (~0.21 ns on a 2-vCPU AVX2 host). Fitted by least
// squares on per-query times of a scan and of a traversal over the same
// bitmaps, k = 10, at the repo benchmark's M = 16, γ = 8 and at the paper's
// M = 32, γ = 12 (ACORN-γ and ACORN-1), on five shapes:
// - 8,000 × 32-d correlated rows, 20 / 50 / 100 % passing, efs 16–256;
// - 4,000 × 512-d LAION-like rows, all passing, efs 16–256;
// - 10,000 × 768-d TripClick-like rows (`reproduce fig9`), date ranges
//   passing 12 / 25 / 68 %, efs 10–320;
// - 100,000 × 32-d correlated rows (`reproduce serve`'s segments),
//   10 / 50 % passing, efs 20–640.
// `cargo bench --bench hybrid_query`'s `scan_route` and `traverse_route`
// rows time the first three. What the fit says:
// - A scan costs its rows' components plus `SCAN_ROW` each, and
//   `SCAN_SPAN` per row of the segment: the bitmap walk, and the cache
//   lines a sparse scan cannot stream (10 % of 100,000 rows scanned at
//   30 ns a row, all of 8,000 at 12).
// - A traversal makes about `ef` hops (`nhops` read 0.95–1.6 × efs on
//   every shape). A hop admits `M` rows at `TRAVERSE_ADMIT` each and
//   `TRAVERSE_CHECK` per bitmap check, `rows / passing` checks per admitted
//   row; its distances cost `TRAVERSE_DIMS` components per dimension, not
//   `M`: most admitted rows were visited already. At `fig9`'s 99th
//   percentile (68 %), efs 160 computed 450 distances in 165 hops where
//   `ef · M` is 5,120, and took 336–570 µs against the scan's 1,090.
// - Where the fit errs it traverses, as the `s_min` rule alone always did:
//   on every point above it picks the cheaper route or one within 5 %,
//   except that it traverses where a scan is up to 1.9× cheaper on the
//   100,000-row segments past efs ~140 (a hop there costs twice what the
//   fit charges) and on the 512-d segment between efs ~220 and 323.

/// Scan work per scored row, beyond its `dim` components: the top-`k`
/// compare, the id map.
const SCAN_ROW: f64 = 14.0;
/// Scan work per row of the segment, scored or not.
const SCAN_SPAN: f64 = 9.0;
/// Traversal work per admitted row: the visited stamp, the heaps, the list.
const TRAVERSE_ADMIT: f64 = 300.0;
/// Traversal work per bitmap check of a neighbor.
const TRAVERSE_CHECK: f64 = 57.0;
/// A hop's distance work per vector dimension.
const TRAVERSE_DIMS: f64 = 1.8;

impl Route {
    /// The route of a segment with a graph, of `rows` rows of which
    /// `passing` live rows pass, for a query of `k` at beam `efs` over
    /// `dim`-d vectors. (A segment without one always scans.)
    ///
    /// Below §5.2's recall floor, `passing < s_min · rows`, it scans. Above
    /// it, it still scans when the scan is predicted to be no more work:
    ///
    /// `passing · (dim + S) + W · rows ≤ ef · (M · (A + C · rows / passing) + B · dim)`,
    ///
    /// with `ef = max(efs, k)` capped at `rows`: about `ef` hops, each
    /// admitting `M` rows at `rows / passing` checks per admitted row and
    /// computing a few distances. `S`, `W`, `A`, `C` and `B` are fixed work
    /// constants (`SCAN_ROW`, `SCAN_SPAN`, `TRAVERSE_ADMIT`,
    /// `TRAVERSE_CHECK`, `TRAVERSE_DIMS`, fitted in this module's source);
    /// the rule reads no clock, so a plan stays a function of its inputs.
    /// The scan is exact, so it never lowers recall.
    pub fn choose(
        rows: usize,
        passing: usize,
        dim: usize,
        efs: usize,
        k: usize,
        params: &AcornParams,
    ) -> Route {
        let (n, p) = (rows as f64, passing as f64);
        if p < params.s_min() * n {
            return Route::Scan;
        }
        let (ef, m, dim) = (efs.max(k).min(rows) as f64, params.m as f64, dim as f64);
        // Both sides times `passing`, so an empty bitmap needs no division.
        let scan = p * (p * (dim + SCAN_ROW) + SCAN_SPAN * n);
        let traverse =
            ef * (m * (TRAVERSE_ADMIT * p + TRAVERSE_CHECK * n) + TRAVERSE_DIMS * dim * p);
        if scan <= traverse {
            Route::Scan
        } else {
            Route::Traverse
        }
    }
}

/// How many segments of one query took each route: read from the plan
/// without a clock or an allocation, and added to an
/// [`IndexReader`](crate::snapshot::IndexReader)'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Routes {
    /// Segments routed to [`Route::Scan`].
    pub(crate) scanned: u64,
    /// Segments routed to [`Route::Traverse`].
    pub(crate) traversed: u64,
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
    /// Building and counting every segment's bitmap, the ordered index's
    /// store-wide candidates included.
    pub materialize_ns: u64,
    /// Whether the predicate's ordered index served the query (step 2 of
    /// the plan); false without a predicate. The rows the predicate program
    /// ran on are the segments' [`SearchStats::npred_evaluated`]: each
    /// one's global-id span on the block route, the candidates in it on
    /// the ordered one.
    pub ordered: bool,
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

/// How the planner materializes a predicate: on the route the work rule
/// picks, or on one forced (the seam the tests hold the routes to each
/// other through).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Materialize {
    /// The route [`CompiledPredicate::ordered_candidates`] picks.
    Rule,
    /// The ordered index whenever the program has an indexed conjunct.
    #[cfg_attr(not(test), allow(dead_code))]
    Ordered,
    /// The block kernels.
    #[cfg_attr(not(test), allow(dead_code))]
    Blocks,
}

/// A segment's global-id span: its first and last global id.
fn gid_span(seg: &SegmentView) -> (u32, u32) {
    let gids = seg.global_ids();
    (gids[0] as u32, gids[gids.len() - 1] as u32)
}

/// Write `{l : pred(attrs[gid[l]]) ∧ ¬tomb[l]}` over the segment's local ids
/// into `bits`, cut from the ordered index's store-wide `candidates` when
/// given, block-evaluated otherwise; returns the number of rows the
/// predicate ran on (the candidates in the segment's gid span, or the
/// span).
fn materialize_local(
    seg: &SegmentView,
    compiled: &CompiledPredicate,
    attrs: &AttrStore,
    candidates: Option<&Bitset>,
    bits: &mut Bitset,
) -> u64 {
    let gids = seg.global_ids();
    let (first, last) = gid_span(seg);
    let read = match candidates {
        Some(candidates) => compiled.ordered_range(attrs, candidates, first..=last, bits),
        None => {
            compiled.to_bitset_range(attrs, first..=last, bits);
            bits.len()
        }
    };
    if bits.len() != gids.len() {
        bits.gather_ascending(gids.iter().map(|&g| g as u32 - first));
    }
    bits.and_not_with(&seg.tombstones);
    read as u64
}

/// Plan and run one query over `segments` (non-empty, in query order,
/// `k > 0`), adding its work to `stats` and, when traced, its stages and
/// segments to `trace`; returns the query's top-`k` by global id and how
/// many segments took each route. With no predicate (or one that folds to
/// `true`) each segment's bitmap is its live rows: the pure search. A
/// predicate's bitmaps are materialized as `via` says.
#[allow(clippy::too_many_arguments)]
pub(crate) fn search<'a>(
    segments: impl Iterator<Item = &'a SegmentView> + Clone,
    query: &[f32],
    predicate: Option<(&Predicate, &AttrStore)>,
    k: usize,
    efs: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    mut trace: Option<&mut QueryTrace>,
    via: Materialize,
) -> (Vec<GlobalNeighbor>, Routes) {
    let mut clock = Lap::new(trace.is_some());
    let compiled = predicate.map(|(p, attrs)| (CompiledPredicate::compile(p), attrs));
    if let Some(trace) = trace.as_deref_mut() {
        trace.compile_ns += clock.lap();
    }
    let filter = match &compiled {
        Some((program, _)) if program.as_const() == Some(false) => {
            return (Vec::new(), Routes::default())
        }
        Some((program, attrs)) if program.as_const().is_none() => Some((program, *attrs)),
        _ => None,
    };
    // The ordered index answers the query once, store-wide, when the rule
    // finds its candidates cheaper than the block kernels over every
    // segment's span (forced, the span counts as unbounded).
    let mut store_bits = std::mem::take(&mut scratch.store_bits);
    let ordered = filter.is_some_and(|(compiled, attrs)| {
        let spanned = match via {
            Materialize::Rule => {
                segments.clone().map(gid_span).map(|(f, l)| (l - f) as usize + 1).sum()
            }
            Materialize::Ordered => usize::MAX,
            Materialize::Blocks => return false,
        };
        compiled.ordered_candidates(attrs, spanned, &mut store_bits).is_some()
    });
    if let Some(trace) = trace.as_deref_mut() {
        trace.ordered = ordered;
    }
    let candidates = ordered.then_some(&store_bits);
    let mut top = TopK::new(k);
    let mut routes = Routes::default();
    for seg in segments {
        let (index, gids) = (seg.index(), seg.global_ids());
        let mut own = SearchStats::default();
        let mut bits = std::mem::take(&mut scratch.bitmap);
        if let Some((compiled, attrs)) = filter {
            own.npred = materialize_local(seg, compiled, attrs, candidates, &mut bits);
        } else {
            bits.clone_from(&seg.tombstones);
            bits.negate();
        }
        let (rows, passing, dim) = (seg.rows(), bits.count(), index.vectors().dim());
        let route = if index.is_empty() {
            Route::Scan
        } else {
            Route::choose(rows, passing, dim, efs, k, index.params())
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
                routes.scanned += 1;
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
                routes.traversed += 1;
            }
        }
        stats.merge(&own);
        if let Some(trace) = trace.as_deref_mut() {
            trace.materialize_ns += materialize_ns;
            *match route {
                Route::Scan => &mut trace.scan_ns,
                Route::Traverse => &mut trace.traverse_ns,
            } += clock.lap();
            trace.segments.push(SegmentTrace { rows, passing, route, stats: own });
        }
    }
    scratch.store_bits = store_bits;
    (top.into_sorted(), routes)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::params::{AcornParams, AcornVariant};
    use crate::segment::{MergePolicy, SegmentedAcornIndex};
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
        // `v = row id`, so `v < c` passes exactly `c` of the 1,000 rows. At
        // k = efs = 5, 50 rows scan under the recall floor, 300 scan because
        // the scan costs less than a traversal, and 600, 900 and all rows
        // traverse.
        let n = 1000;
        let (snap, _) = one_segment(n, 8, 70);
        let graph = snap.frozen_segments()[0].index();
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let field = attrs.field("v").unwrap();
        let mut scratch = SearchScratch::new(n);
        let q = vec![0.1; 8];
        let (k, efs) = (5, 5);

        let mut want_stats = SearchStats::default();
        let want = graph.search_filtered(&q, &AllPass, k, efs, &mut scratch, &mut want_stats);
        let (got, stats) = snap.hybrid_search(&q, &Predicate::True, &attrs, k, efs, &mut scratch);
        assert_eq!(bits(&got), local_bits(&want), "constant true");
        // The pure search: the live rows' bitmap, traversed; every check
        // is a bit test against it.
        let checks = SearchStats { npred_cached: want_stats.npred, ..want_stats };
        assert_eq!(stats, checks, "constant true: the live-row bitmap and nothing else");

        // (passing rows, scanned, rows the program reads): the ordered
        // index serves the 50-row band, under a quarter of the rows, and
        // the program reads those rows alone; the block kernels read all.
        let cases = [(50i64, true, 50), (300, true, n), (600, false, n), (900, false, n)];
        for (passing, scan, read) in cases {
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
            // One materialization; then the scan enumerates set bits,
            // while the traversal's checks are each a bit test (the
            // reference `prefilter_scan` asks the bitmap about every row).
            let checks = if scan { 0 } else { want_stats.npred };
            assert_eq!(stats.npred, read as u64 + checks, "{passing} rows");
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
        // Two segments, 600 and 900 rows, and a predicate half the rows of
        // each pass (γ = 4 → s_min = 0.25, and at k = efs = 5 a traversal
        // costs less than scanning 300 or 450 rows, so both traverse): each
        // segment is materialized over its gid span and then traversed over
        // its bitmap, and nothing else is charged — no sample.
        let mut index = SegmentedAcornIndex::new(8, params(5), AcornVariant::Gamma);
        let mut rng = StdRng::seed_from_u64(5);
        for rows in [600, 900] {
            let flat: Vec<f32> = (0..rows * 8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.bulk_load(VectorStore::from_flat(8, flat));
        }
        let snap = index.snapshot();
        assert_eq!(snap.frozen_segments().len(), 2);
        let attrs = AttrStore::builder().add_int("v", (0..1500).map(|g| g % 2).collect()).build();
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
            let out = seg.index().search_filtered(&q, &filter, 5, 5, &mut scratch, &mut want_stats);
            want.extend(out.iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])));
        }
        want.sort_unstable();
        want.truncate(5);

        let (got, stats) = snap.hybrid_search(&q, &pred, &attrs, 5, 5, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "the merge of the two traversals");
        assert_eq!(
            (stats.ndis, stats.nhops, stats.fallback),
            (want_stats.ndis, want_stats.nhops, false)
        );
        assert_eq!(stats.npred, 600 + 900 + want_stats.npred, "two gid spans, then the checks");
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
        // γ = 8 → s_min = 0.125; 800 rows → the recall floor is exactly 100
        // passing rows. `v = row id`, so `v < c` passes exactly `c` rows,
        // and the decision is made on that exact count. At k = efs = 1 a
        // traversal costs less than scanning any count from the floor up,
        // so the route flips exactly there; at efs = n (an exhaustive beam)
        // the scan always costs less, so every count scans.
        let n = 800;
        let (snap, vecs) = one_segment(n, 8, 60);
        let graph = snap.frozen_segments()[0].index();
        let attrs = AttrStore::builder().add_int("v", (0..n as i64).collect()).build();
        let field = attrs.field("v").unwrap();
        assert_eq!(graph.params().s_min(), 0.125);
        let mut scratch = SearchScratch::new(n);
        let q = vec![-0.2; 8];
        let cases = [(99i64, true, true), (100, false, true), (101, false, true), (1, true, true)];
        for (passing, narrow_scans, wide_scans) in cases {
            let pred = Predicate::Between { field, lo: 0, hi: passing - 1 };
            for (k, efs, fallback) in [(1, 1, narrow_scans), (10, n, wide_scans)] {
                let what = format!("{passing} passing rows of {n}, efs {efs}");
                let (a, sa) = snap.hybrid_search(&q, &pred, &attrs, k, efs, &mut scratch);
                assert_eq!(sa.fallback, fallback, "{what}");
                if fallback {
                    // The scan is exact.
                    let want = brute_force(&vecs, &q, |i| i64::from(i) < passing, k);
                    assert_eq!(a.iter().map(|x| x.id).collect::<Vec<_>>(), want, "{what}");
                } else {
                    // The traversal is the graph's over the interpreter's
                    // bitmap, and its bit tests count as cache answers.
                    let filter = BitmapFilter::new(Bitset::from_ids(n, 0..passing as u32));
                    let mut sb = SearchStats::default();
                    let b = graph.search_filtered(&q, &filter, k, efs, &mut scratch, &mut sb);
                    assert_eq!(bits(&a), local_bits(&b), "{what}");
                    assert_eq!((sa.ndis, sa.nhops), (sb.ndis, sb.nhops), "{what}");
                    assert!(sa.npred_cached > 0, "{what}: bit tests are cache answers");
                }
                // Under a quarter of the rows pass, so the ordered index
                // serves every case: the program reads the passing rows.
                assert_eq!(sa.npred_evaluated(), passing as u64, "{what}");
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
        let (out, stats) = snap.hybrid_search(&[0.0; 8], &pred, &attrs, 5, 16, &mut scratch);
        assert!(stats.fallback, "selective predicate must trigger pre-filtering");
        assert_eq!(out.len(), 5);
        for n in &out {
            assert!(n.id < 12, "fallback returned non-passing row {}", n.id);
        }

        // Broad predicate: at efs 10 a traversal costs less than scanning
        // its 1,188 rows, so it stays on the graph path.
        let pred = Predicate::Equals { field, value: 0 };
        let (_, stats) = snap.hybrid_search(&[0.0; 8], &pred, &attrs, 5, 10, &mut scratch);
        assert!(!stats.fallback);
    }

    #[test]
    fn adaptive_strategy_matches_interpreted_and_cuts_evaluations() {
        let n = 2000;
        let (snap, _) = one_segment(n, 4, 33);
        let graph = snap.frozen_segments()[0].index();
        let mut rng = StdRng::seed_from_u64(34);
        let years: Vec<i64> = (0..n).map(|_| rng.gen_range(1990..2020)).collect();
        let attrs = AttrStore::builder().add_int("year", years).build();
        let field = attrs.field("year").unwrap();
        let mut scratch = SearchScratch::new(n);
        let mut routes = Vec::new();

        // At k = efs = 10 the two wide ranges traverse and the two narrow
        // predicates scan under the recall floor; the block kernels
        // materialize the wide ones and the ordered index the narrow ones.
        for (pred, label, ordered) in [
            (Predicate::Between { field, lo: 1995, hi: 2010 }, "mid-selectivity", false),
            (Predicate::Between { field, lo: 1990, hi: 2020 }, "high-selectivity", false),
            (Predicate::Equals { field, value: 1999 }, "low-selectivity", true),
            (Predicate::in_values(field, vec![1991, 2001, 2011]), "in-list", true),
        ] {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // The reference: the interpreter's bitmap, routed on its count.
            let interpreted =
                Bitset::from_ids(n, (0..n as u32).filter(|&row| pred.eval(&attrs, row)));
            let passing = interpreted.count();
            let route = Route::choose(n, passing, 8, 10, 10, graph.params());
            routes.push(route);
            let filter = BitmapFilter::new(interpreted);
            let mut sb = SearchStats::default();
            let b = if route == Route::Scan {
                graph.prefilter_scan(&q, &filter, 10, &mut sb)
            } else {
                graph.search_filtered(&q, &filter, 10, 10, &mut scratch, &mut sb)
            };
            let (a, sa) = snap.hybrid_search(&q, &pred, &attrs, 10, 10, &mut scratch);
            assert_eq!(bits(&a), local_bits(&b), "{label}: routes must answer bit-identically");
            assert_eq!(
                (sa.fallback, sa.ndis, sa.nhops),
                (sb.fallback, sb.ndis, sb.nhops),
                "{label}: the same route and traversal"
            );
            let read = if ordered { passing } else { n };
            assert_eq!(sa.npred_evaluated(), read as u64, "{label}: one materialization");
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
        assert_eq!(routes, [Route::Traverse, Route::Traverse, Route::Scan, Route::Scan]);
    }

    #[test]
    fn the_route_rule_on_the_benchmarks_shapes() {
        use Route::{Scan, Traverse};
        // The repo benchmark's segments (M 16, γ 8); `reproduce serve`'s
        // 100,000-row segments and `reproduce fig9`'s 10,000-row 768-d one
        // at the paper's M 32, γ 12; k = 10.
        let bench = AcornParams { m: 16, gamma: 8, m_beta: 32, ..Default::default() };
        let paper = AcornParams::default();
        let route = |p: &AcornParams, rows, passing, dim, efs| {
            Route::choose(rows, passing, dim, efs, 10, p)
        };
        for (what, params, rows, passing, dim, efs, want) in [
            ("bands-graph sel20 @ 64", &bench, 8_000, 1_600, 32, 64, Scan),
            ("bands-graph sel50 @ 32", &bench, 8_000, 4_000, 32, 32, Traverse),
            ("bands-graph pure @ 16", &bench, 8_000, 8_000, 32, 16, Traverse),
            ("hcps-512d pure @ 64", &bench, 4_000, 4_000, 512, 64, Traverse),
            ("serve s0.1 @ 48", &paper, 100_000, 10_000, 32, 48, Traverse),
            ("serve s0.1 @ 49", &paper, 100_000, 10_000, 32, 49, Scan),
            ("serve s0.5 @ 240", &paper, 100_000, 50_000, 32, 240, Traverse),
            ("serve s0.5 @ 241", &paper, 100_000, 50_000, 32, 241, Scan),
            // fig9's 99th-percentile band: a traversal of the dense 768-d
            // graph computed 450 distances in 165 hops at efs 160, and
            // took a third of the scan's time; at 320, two thirds.
            ("fig9 99p @ 160", &paper, 10_000, 6_835, 768, 160, Traverse),
            ("fig9 99p @ 320", &paper, 10_000, 6_835, 768, 320, Traverse),
            ("fig9 25p @ 320", &paper, 10_000, 2_882, 768, 320, Scan),
        ] {
            assert_eq!(route(params, rows, passing, dim, efs), want, "{what}");
        }

        // Under `s_min · rows` (12,500 of 100,000) a segment scans, even at
        // a beam of one where the traversal is cheaper.
        let at = |passing| Route::choose(100_000, passing, 32, 1, 1, &bench);
        assert_eq!((at(0), at(12_499), at(12_500)), (Scan, Scan, Traverse));
        // `efs` past the crossover flips a segment to the scan, and so does
        // a `k` past it (the beam is `max(efs, k)`), and a beam past the
        // rows is capped at them.
        let s01 = |efs, k| Route::choose(100_000, 10_000, 32, efs, k, &paper);
        assert_eq!((s01(20, 10), s01(60, 10), s01(20, 60)), (Traverse, Scan, Scan));
        assert_eq!(Route::choose(8_000, 8_000, 32, usize::MAX, 10, &bench), Scan);
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
        lifecycle_with_pending(rng, seed, chunks, 0, active_rows)
    }

    /// [`lifecycle`], with `pending_rows` (more than any chunk and than
    /// `active_rows`, or 0 for none) inserted before the active rows and
    /// sealed into a pending segment: one that scans until its graph is
    /// built.
    fn lifecycle_with_pending(
        rng: &mut StdRng,
        seed: u64,
        chunks: [usize; 3],
        pending_rows: usize,
        active_rows: usize,
    ) -> Arc<SegmentSnapshot> {
        let policy = MergePolicy { active_max_rows: pending_rows, ..Default::default() };
        let mut index =
            SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma).with_policy(policy);
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
        insert(&mut index, rng, pending_rows);
        insert(&mut index, rng, active_rows);
        index.snapshot()
    }

    #[test]
    fn a_traced_query_answers_as_the_untraced_one_and_accounts_for_every_segment() {
        // At k = efs = 5 the sealed segments traverse their live rows and
        // scan a label (a sixth of them, under the floor); the 600-row
        // active segment has no graph and scans, its live rows included,
        // where a sealed segment of its counts would traverse.
        let mut rng = StdRng::seed_from_u64(91);
        let snap = lifecycle(&mut rng, 91, [400, 400, 600], 600);
        let total = 1400 + 600;
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
        let (mut routes, mut active_scanned_above_the_floor) = (Vec::new(), false);
        let mut preds = vec![
            Predicate::True,
            Predicate::const_false(),
            Predicate::Equals { field: 0, value: 0 },
        ];
        preds.extend((0..12).map(|_| random_pred(&mut rng)));
        for pred in &preds {
            let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (want, want_stats) =
                snap.try_hybrid_search(&q, pred, &attrs, 5, 5, &mut scratch).unwrap();
            let t0 = std::time::Instant::now();
            let (got, stats) = snap
                .try_hybrid_search_traced(&q, pred, &attrs, 5, 5, &mut scratch, &mut trace)
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
                let sealed = view.index().csr().is_some();
                let params = view.index().params();
                let graph_route = Route::choose(seg.rows, seg.passing, DIM, 5, 5, params);
                let route = if sealed { graph_route } else { Route::Scan };
                assert_eq!(seg.route, route, "{what}");
                assert_eq!(seg.stats.fallback, seg.route == Route::Scan, "{what}");
                active_scanned_above_the_floor |= !sealed && graph_route == Route::Traverse;
                routes.push((sealed, seg.route));
                sum.merge(&seg.stats);
            }
            assert_eq!(sum, stats, "{what}: the segments' shares sum to the query's stats");
            // A label passes a sixth of the rows: the ordered index serves
            // it, and the program reads those rows alone. Without a
            // predicate there is nothing to serve or read.
            if matches!(pred, Predicate::Equals { .. }) {
                assert!(trace.ordered, "{what}");
                let spans = views.iter().map(|&v| gid_span(v));
                let read: usize =
                    spans.map(|(f, l)| (f..=l).filter(|&g| pred.eval(&attrs, g)).count()).sum();
                assert_eq!(stats.npred_evaluated(), read as u64, "{what}");
            }
            if matches!(pred, Predicate::True) {
                assert!(!trace.ordered && stats.npred_evaluated() == 0, "{what}");
            }
            let staged =
                trace.compile_ns + trace.materialize_ns + trace.scan_ns + trace.traverse_ns;
            assert!(staged <= wall, "{what}: stages {staged} ns within the call's {wall} ns");
        }
        for route in [Route::Scan, Route::Traverse] {
            assert!(routes.contains(&(true, route)), "a sealed segment takes {route:?}");
        }
        assert!(active_scanned_above_the_floor, "the graph-less active segment always scans");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Over one sealed segment, predicates of every density and beams
        /// from 1 to past the rows: a segment the rule scans answers the
        /// brute-force top-`k` bit for bit, above `s_min` too; one that
        /// `s_min` alone would also have traversed answers as that
        /// traversal — the segment's graph over the interpreter's bitmap.
        #[test]
        fn a_scan_is_exact_and_an_unchanged_traversal_answers_as_before(
            seed in 0u64..u64::MAX,
            n in 200usize..1000,
        ) {
            let (snap, vecs) = one_segment(n, 4, seed);
            let graph = snap.frozen_segments()[0].index();
            let v = (0..n as i64).map(|g| g % 100).collect();
            let attrs = AttrStore::builder().add_int("v", v).build();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = SearchScratch::new(n);
            let mut trace = QueryTrace::default();
            let (mut scanned_above_floor, mut traversed) = (false, false);
            // The pure search at a beam of one traverses, half the rows at a
            // wide beam scan above the floor; then drawn ones.
            let mut queries = vec![(100, 1, 1), (50, 10, 128)];
            queries.extend((0..6).map(|_| {
                let efs = [1, 8, 32, 128, n + 1][rng.gen_range(0..5usize)];
                (rng.gen_range(0..=100i64), [1, 10][rng.gen_range(0..2usize)], efs)
            }));
            for (below, k, efs) in queries {
                let what = format!("v < {below}, k {k}, efs {efs}");
                let pred = Predicate::Between { field: 0, lo: 0, hi: below - 1 };
                let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (got, stats) = snap
                    .try_hybrid_search_traced(&q, &pred, &attrs, k, efs, &mut scratch, &mut trace)
                    .unwrap();
                let passing: Vec<u32> = (0..n as u32).filter(|&i| pred.eval(&attrs, i)).collect();
                let floor = (passing.len() as f64) < graph.params().s_min() * n as f64;
                let route = Route::choose(n, passing.len(), 8, efs, k, graph.params());
                prop_assert_eq!(trace.segments[0].route, route, "{}", &what);
                if route == Route::Scan {
                    let mut want: Vec<Neighbor> = passing
                        .iter()
                        .map(|&i| Neighbor::new(vecs.distance_to(Metric::L2, i, &q), i))
                        .collect();
                    want.sort_unstable();
                    want.truncate(k);
                    prop_assert_eq!(bits(&got), local_bits(&want), "{}: the exact top-k", &what);
                    scanned_above_floor |= !floor;
                } else {
                    prop_assert!(!floor, "{}: under the floor every segment scans", &what);
                    let filter = BitmapFilter::new(Bitset::from_ids(n, passing.iter().copied()));
                    let mut want_stats = SearchStats::default();
                    let want =
                        graph.search_filtered(&q, &filter, k, efs, &mut scratch, &mut want_stats);
                    prop_assert_eq!(bits(&got), local_bits(&want), "{}: the traversal", &what);
                    prop_assert_eq!((stats.ndis, stats.nhops), (want_stats.ndis, want_stats.nhops));
                    traversed = true;
                }
            }
            prop_assert!(scanned_above_floor && traversed, "both routes, the scan above s_min");
        }

        /// Both materialization routes, forced through the planner over
        /// snapshots with merge gaps, tombstones, a pending segment and an
        /// active one, and an attribute store longer than the index (rows
        /// not inserted yet): the same hits to the distance bit, the same
        /// per-segment counts and routes, the same `ndis` and `nhops`; and
        /// the rule's choice answers as both.
        #[test]
        fn the_ordered_and_block_routes_plan_the_same_query(
            seed in 0u64..u64::MAX,
            chunk in 30usize..130,
            active_rows in prop::sample::select(vec![0usize, 1, 70]),
            pool_rows in prop::sample::select(vec![0usize, 1, 200]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pending_rows = 140;
            let snap = lifecycle_with_pending(&mut rng, seed, [chunk; 3], pending_rows, active_rows);
            let total = 3 * chunk + pending_rows + active_rows + pool_rows;
            let attrs = AttrStore::builder()
                .add_int("label", (0..total).map(|_| rng.gen_range(0i64..6)).collect())
                .add_text(
                    "cap",
                    (0..total).map(|_| CAPTIONS[rng.gen_range(0..CAPTIONS.len())].into()).collect(),
                )
                .build();
            let pending = snap.frozen_segments().iter().filter(|s| s.is_pending()).count();
            prop_assert_eq!((pending, snap.active.is_some()), (1, active_rows > 0));
            let mut scratch = SearchScratch::new(snap.max_segment_rows());
            let mut preds: Vec<Predicate> = (0..6).map(|_| random_pred(&mut rng)).collect();
            preds.push(Predicate::in_values(0, vec![1, 4]));
            let mut served = false;
            for pred in &preds {
                let q: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let (k, efs) = (rng.gen_range(1usize..10), [5, 40][rng.gen_range(0..2usize)]);
                let what = pred.describe(&attrs);
                let mut run = |via| {
                    let (mut stats, mut trace) = (SearchStats::default(), QueryTrace::default());
                    let predicate = Some((pred, &attrs));
                    let segments = snap.segments();
                    let (hits, _) = search(
                        segments, &q, predicate, k, efs, &mut scratch, &mut stats, Some(&mut trace), via,
                    );
                    let plan: Vec<_> = trace.segments.iter().map(|s| (s.rows, s.passing, s.route)).collect();
                    (bits(&hits), (stats.ndis, stats.nhops, stats.fallback), plan, trace.ordered)
                };
                let (ordered, blocks, rule) =
                    (run(Materialize::Ordered), run(Materialize::Blocks), run(Materialize::Rule));
                prop_assert!(!blocks.3, "{}: forced onto the blocks", &what);
                served |= ordered.3;
                for (got, name) in [(&ordered, "ordered"), (&rule, "rule")] {
                    prop_assert_eq!(&got.0, &blocks.0, "{}: {} hits", &what, name);
                    prop_assert_eq!(got.1, blocks.1, "{}: {} ndis, nhops, fallback", &what, name);
                    prop_assert_eq!(&got.2, &blocks.2, "{}: {} counts and routes", &what, name);
                }
            }
            prop_assert!(served, "the ordered index must serve some query");
        }

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
                    let n = materialize_local(view, &compiled, &attrs, None, &mut bits);
                    prop_assert_eq!(&bits, &want, "gids {}..={}", gids[0], gids[rows - 1]);
                    prop_assert_eq!(n, span as u64, "rows charged to npred");
                    // The ordered route, where the program has an indexed
                    // conjunct: the same bits, its candidates in the span
                    // charged.
                    let mut all = Bitset::full(999);
                    if compiled.ordered_candidates(&attrs, usize::MAX, &mut all).is_some() {
                        let mut bits = Bitset::full(777);
                        let n = materialize_local(view, &compiled, &attrs, Some(&all), &mut bits);
                        prop_assert_eq!(&bits, &want, "ordered, gids {}..={}", gids[0], gids[rows - 1]);
                        let read = (gids[0]..=gids[rows - 1]).filter(|&g| all.get(g as u32)).count();
                        prop_assert_eq!(n, read as u64, "candidates charged to npred");
                    }
                }
            }
            prop_assert!(gapped && contiguous && tombstoned, "every layout must be exercised");
        }
    }
}
