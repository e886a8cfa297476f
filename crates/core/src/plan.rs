//! The hybrid query planner: §5.2's cost-model routing, decided **once per
//! query** for every segment the query will touch.
//!
//! [`AcornIndex::hybrid_search_with`] and
//! [`SegmentSnapshot::hybrid_search_with`](crate::snapshot::SegmentSnapshot::hybrid_search_with)
//! both end here. A monolithic index is the one-segment case with the
//! identity id map and no tombstones, so a fully-merged segment and a
//! from-scratch rebuild over its surviving rows run the same code over the
//! same numbers — the compaction ≡ rebuild bit-identity holds by
//! construction.
//!
//! The plan, in order:
//!
//! 1. **Compile** the predicate. A program that folded to a constant needs
//!    no filter at all: `false` answers empty without touching a segment,
//!    `true` traverses with tombstones only — the pure-ANN path.
//! 2. **Sample once**: `SELECTIVITY_SAMPLES` (1,000) positions over the
//!    concatenated rows of all segments ([`sample_positions`]), tallying
//!    draws and hits per segment. [`CostClass::Expensive`] programs are not
//!    sampled — they materialize whatever the tally would say.
//! 3. **Per segment**, when the tally is under
//!    `max(`[`MATERIALIZE_BELOW_SELECTIVITY`]`, s_min)` (or the segment drew
//!    nothing, or the program is expensive): materialize the predicate
//!    **into the segment's local id space** — one block-kernel pass over
//!    the segment's global-id span, a gather through the id map only when
//!    merges left gaps in it — clear the tombstoned bits, and route on the
//!    **exact** passing count: under `s_min · rows` the set bits are
//!    enumerated and scored exactly (the pre-filter scan), otherwise the
//!    graph is traversed with constant-time bit tests. Both branches see a
//!    plain local-id [`BitmapFilter`]; no id-map gather and no tombstone
//!    test remain in their inner loops.
//! 4. Otherwise (tally at or above both thresholds): traverse with a lazy
//!    per-row filter through the id map; the adaptive strategy memoizes it
//!    and seeds the memo with the shared sample's verdicts.
//!
//! [`PredicateStrategy::Interpreted`] follows the same plan with every row
//! verdict produced by the AST interpreter (no block kernel, no memo), which
//! is what makes it an oracle for the compiled engine rather than a second
//! router.

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{SearchScratch, SearchStats};
use acorn_predicate::{
    sample_positions, AllPass, AttrStore, BitmapFilter, Bitset, CompiledPredicate, CostClass,
    MemoFilter, NodeFilter, Predicate,
};

use crate::index::{AcornIndex, PredicateStrategy, MATERIALIZE_BELOW_SELECTIVITY};

/// Rows the per-query selectivity sample draws (over all segments together).
pub(crate) const SELECTIVITY_SAMPLES: usize = 1000;

/// One segment as the planner sees it.
#[derive(Clone, Copy)]
pub(crate) struct PlanSegment<'a> {
    /// The segment's graph and vectors.
    pub(crate) index: &'a AcornIndex,
    /// Strictly ascending local → global id map (global ids index the
    /// attribute store); `None` is the identity of a monolithic index.
    pub(crate) global_ids: Option<&'a [u64]>,
    /// Set bit = deleted local row; `None` when the segment has no
    /// tombstone set at all.
    pub(crate) tombstones: Option<&'a Bitset>,
}

impl PlanSegment<'_> {
    /// The attribute-store row of local row `local`.
    #[inline]
    fn attr_row(&self, local: u32) -> u32 {
        match self.global_ids {
            Some(gids) => gids[local as usize] as u32,
            None => local,
        }
    }
}

/// A segment plus its slice of the concatenated sample universe and its
/// tally of the shared sample.
struct Planned<'a> {
    seg: PlanSegment<'a>,
    /// Positions `start..end` of the sample universe are this segment's
    /// local rows `0..end - start`.
    start: usize,
    end: usize,
    draws: u32,
    hits: u32,
}

/// How a row verdict is produced: the only thing the two strategies differ
/// in.
#[derive(Clone, Copy)]
enum RowEval<'a> {
    Interpreted(&'a Predicate),
    Compiled(&'a CompiledPredicate),
}

impl RowEval<'_> {
    #[inline]
    fn passes(&self, attrs: &AttrStore, row: u32) -> bool {
        match self {
            RowEval::Interpreted(p) => p.eval(attrs, row),
            RowEval::Compiled(c) => c.eval(attrs, row),
        }
    }
}

/// Lazy per-row evaluation at a segment-local id: through the id map to the
/// attribute row, then the strategy's evaluator.
struct SegmentRows<'a> {
    attrs: &'a AttrStore,
    eval: RowEval<'a>,
    seg: PlanSegment<'a>,
}

impl NodeFilter for SegmentRows<'_> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        self.eval.passes(self.attrs, self.seg.attr_row(id))
    }
}

/// Composes a segment's tombstones with any row filter: a tombstoned row
/// never passes, whatever the inner filter says. Without tombstones (or with
/// an empty set) this is transparent, which is what keeps a fully-merged
/// segment bit-identical to a monolithic index.
pub(crate) struct LiveFilter<'a, F: NodeFilter> {
    pub(crate) inner: &'a F,
    pub(crate) tombstones: Option<&'a Bitset>,
}

impl<F: NodeFilter> NodeFilter for LiveFilter<'_, F> {
    #[inline]
    fn passes(&self, id: u32) -> bool {
        !self.tombstones.is_some_and(|t| t.get(id)) && self.inner.passes(id)
    }
}

/// Write `{l : pred(attrs[gid[l]]) ∧ ¬tomb[l]}` over the segment's local ids
/// into `bits`, returning the number of rows the predicate ran on.
fn materialize_local(
    seg: &PlanSegment<'_>,
    eval: RowEval<'_>,
    attrs: &AttrStore,
    bits: &mut Bitset,
) -> u64 {
    let rows = seg.index.len();
    let evaluated = match eval {
        RowEval::Compiled(compiled) => {
            let first = seg.attr_row(0);
            compiled.to_bitset_range(attrs, first..=seg.attr_row(rows as u32 - 1), bits);
            let span = bits.len();
            if let (true, Some(gids)) = (span != rows, seg.global_ids) {
                bits.gather_ascending(gids.iter().map(|&g| g as u32 - first));
            }
            span
        }
        RowEval::Interpreted(_) => {
            *bits = Bitset::from_ids(
                rows,
                (0..rows as u32).filter(|&l| eval.passes(attrs, seg.attr_row(l))),
            );
            rows
        }
    };
    if let Some(tombstones) = seg.tombstones {
        bits.and_not_with(tombstones);
    }
    evaluated as u64
}

/// Plan and run one hybrid query over `segments`; returns each segment's
/// top-`k` in **local** ids, in the order the segments were given, and the
/// query's summed stats. `seed` seeds the selectivity sample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hybrid_search<'a>(
    segments: impl Iterator<Item = PlanSegment<'a>>,
    seed: u64,
    query: &[f32],
    predicate: &Predicate,
    attrs: &AttrStore,
    k: usize,
    efs: usize,
    scratch: &mut SearchScratch,
    strategy: PredicateStrategy,
) -> (Vec<Vec<Neighbor>>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut total = 0usize;
    let mut planned: Vec<Planned<'a>> = segments
        .map(|seg| {
            let start = total;
            total += seg.index.len();
            Planned { seg, start, end: total, draws: 0, hits: 0 }
        })
        .collect();

    let compiled = CompiledPredicate::compile(predicate);
    match compiled.as_const() {
        Some(false) => return (vec![Vec::new(); planned.len()], stats),
        Some(true) => {
            let lists = planned
                .iter()
                .map(|p| {
                    let live = LiveFilter { inner: &AllPass, tombstones: p.seg.tombstones };
                    p.seg.index.search_filtered(query, &live, k, efs, scratch, &mut stats)
                })
                .collect();
            return (lists, stats);
        }
        None => {}
    }
    let eval = match strategy {
        PredicateStrategy::Interpreted => RowEval::Interpreted(predicate),
        PredicateStrategy::Adaptive => RowEval::Compiled(&compiled),
    };

    // The shared sample: `(position, verdict)` in draw order, kept so a
    // segment that ends up on the lazy branch starts its memo warm. One
    // 8 KB allocation per sampled query (~0.1 µs); measured alternatives
    // and why it is not pooled: CHANGES.md, PR 15.
    let mut sample: Vec<(u32, bool)> = Vec::new();
    if compiled.cost_class() == CostClass::Cheap {
        sample.reserve_exact(SELECTIVITY_SAMPLES);
        sample_positions(total, SELECTIVITY_SAMPLES, seed, |pos| {
            let owner = planned.partition_point(|p| p.end <= pos);
            let p = &mut planned[owner];
            let pass = eval.passes(attrs, p.seg.attr_row((pos - p.start) as u32));
            p.draws += 1;
            p.hits += u32::from(pass);
            sample.push((pos as u32, pass));
        });
        stats.npred += sample.len() as u64;
    }

    let mut lists = Vec::with_capacity(planned.len());
    for p in &planned {
        let (seg, rows) = (&p.seg, p.end - p.start);
        let s_min = seg.index.params().s_min();
        // Anything that could route to the exact scan is materialized, so
        // the scan/traverse decision is always made on an exact count.
        let lazy = p.draws > 0
            && f64::from(p.hits) / f64::from(p.draws) >= MATERIALIZE_BELOW_SELECTIVITY.max(s_min);
        lists.push(if rows == 0 {
            Vec::new()
        } else if !lazy {
            let mut bits = std::mem::take(&mut scratch.bitmap);
            stats.npred += materialize_local(seg, eval, attrs, &mut bits);
            let passing = bits.count();
            let filter = BitmapFilter::new(bits);
            let out = if (passing as f64) < s_min * rows as f64 {
                seg.index.prefilter_scan(query, &filter, k, &mut stats)
            } else {
                let before = stats.npred;
                let out = seg.index.search_filtered(query, &filter, k, efs, scratch, &mut stats);
                // Every traversal check against the bitmap is a cache answer.
                stats.npred_cached += stats.npred - before;
                out
            };
            scratch.bitmap = filter.into_bits();
            out
        } else {
            let rows_filter = SegmentRows { attrs, eval, seg: *seg };
            match strategy {
                PredicateStrategy::Interpreted => {
                    let live = LiveFilter { inner: &rows_filter, tombstones: seg.tombstones };
                    seg.index.search_filtered(query, &live, k, efs, scratch, &mut stats)
                }
                PredicateStrategy::Adaptive => {
                    let memo = scratch.take_memo(rows);
                    for &(pos, pass) in &sample {
                        if (p.start..p.end).contains(&(pos as usize)) {
                            memo.record(pos - p.start as u32, pass);
                        }
                    }
                    let memoized = MemoFilter::new(&rows_filter, memo);
                    let live = LiveFilter { inner: &memoized, tombstones: seg.tombstones };
                    let out = seg.index.search_filtered(query, &live, k, efs, scratch, &mut stats);
                    stats.npred_cached += memoized.hits();
                    scratch.put_memo(memoized.into_memo());
                    out
                }
            }
        });
    }
    (lists, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AcornParams, AcornVariant};
    use crate::segment::SegmentedAcornIndex;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Over every segment layout a lifecycle produces — contiguous gid
        /// spans (fresh freezes), spans with gaps (merged survivors),
        /// tombstoned rows, an active segment that is empty or not — the
        /// planner's local bitmap is `{l : pred(attrs[gid[l]]) ∧ ¬tomb[l]}`
        /// under both evaluators, whatever the recycled bitmap held before.
        #[test]
        fn local_bitmap_is_the_predicate_over_live_rows(
            seed in 0u64..u64::MAX,
            chunk in 30usize..130,
            active_rows in prop::sample::select(vec![0usize, 1, 70]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut index = SegmentedAcornIndex::new(DIM, params(seed), AcornVariant::Gamma);
            let insert = |index: &mut SegmentedAcornIndex, rng: &mut StdRng, n: usize| {
                for _ in 0..n {
                    let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    index.insert(&v);
                }
            };
            let delete_some = |index: &mut SegmentedAcornIndex, rng: &mut StdRng, upto: u64| {
                for _ in 0..upto / 4 {
                    index.delete(rng.gen_range(0..upto));
                }
            };
            // Two frozen segments, deletes, one merge: a span with gaps.
            insert(&mut index, &mut rng, chunk);
            index.freeze();
            insert(&mut index, &mut rng, chunk);
            index.freeze();
            delete_some(&mut index, &mut rng, 2 * chunk as u64);
            index.merge();
            // A fresh contiguous segment, then tombstones on both.
            insert(&mut index, &mut rng, chunk);
            index.freeze();
            delete_some(&mut index, &mut rng, 3 * chunk as u64);
            insert(&mut index, &mut rng, active_rows);

            let total = 3 * chunk + active_rows;
            let attrs = AttrStore::builder()
                .add_int("label", (0..total).map(|_| rng.gen_range(0i64..6)).collect())
                .add_text(
                    "cap",
                    (0..total).map(|_| CAPTIONS[rng.gen_range(0..CAPTIONS.len())].into()).collect(),
                )
                .build();
            let snap = index.snapshot();
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
                    let seg = PlanSegment {
                        index: &view.payload.index,
                        global_ids: Some(gids),
                        tombstones: Some(&view.tombstones),
                    };
                    let want = Bitset::from_ids(
                        rows,
                        (0..rows as u32).filter(|&l| {
                            pred.eval(&attrs, gids[l as usize] as u32) && !view.tombstones.get(l)
                        }),
                    );
                    for (eval, evaluated) in [
                        (RowEval::Compiled(&compiled), span),
                        (RowEval::Interpreted(&pred), rows),
                    ] {
                        let mut bits = Bitset::full(777); // stale pooled content
                        let n = materialize_local(&seg, eval, &attrs, &mut bits);
                        prop_assert_eq!(&bits, &want, "gids {}..={}", gids[0], gids[rows - 1]);
                        prop_assert_eq!(n, evaluated as u64, "rows charged to npred");
                    }
                }
            }
            prop_assert!(gapped && contiguous && tombstoned, "every layout must be exercised");
        }
    }
}
