//! Oracles shared by the integration tests; each test crate uses its own
//! part of them.
//!
//! [`interpreted_plan`] (`proptest_memo.rs`, `proptest_segment.rs`) is the
//! planner rebuilt from public calls, with every row verdict from the AST
//! interpreter: the reference the engine's compiled, materialized and
//! memoized verdicts are held to.
//!
//! [`Pinned`] is the snapshot-isolation oracle (`proptest_segment.rs`'s
//! scripted interleavings, `concurrent_churn.rs`'s reader threads). It
//! records what a snapshot answered the moment it was pinned. After any
//! amount of later writing, [`Pinned::verify`] demands that the snapshot
//! still answers the same, bit for bit, and that its active view is — node
//! by node, level by level, row by row — the `AcornIndex` a twin reaches by
//! `insert_vector`-ing that epoch's rows and stopping there. The writer
//! shares the view's graph nodes and vector buffer and keeps inserting, so
//! any write that leaks into a published epoch shows up as a difference from
//! the twin.

#![allow(dead_code)]

use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant, GlobalNeighbor, SegmentSnapshot};
use acorn_hnsw::{SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `snap.hybrid_search(q, predicate, attrs, k, efs, ..)` as the plan says it
/// must come out, built from public calls and [`Predicate::eval`]. Per
/// non-empty segment: the live passing bitmap, row by row with the
/// interpreter; the exact pre-filter scan when it counts under
/// `s_min · rows`, else traversal over it; then the lists mapped to global
/// ids and merged.
///
/// Valid for non-constant predicates (a constant one skips the bitmap). Its
/// `fallback`, `ndis` and `nhops` are the engine's; `npred` is not (the
/// engine's block kernel runs over gid spans and its traversal checks are
/// bit tests).
pub fn interpreted_plan(
    snap: &SegmentSnapshot,
    q: &[f32],
    predicate: &Predicate,
    attrs: &AttrStore,
    k: usize,
    efs: usize,
) -> (Vec<GlobalNeighbor>, SearchStats) {
    let mut scratch = SearchScratch::new(snap.max_segment_rows());
    let mut stats = SearchStats::default();
    let mut hits = Vec::new();
    for seg in snap.frozen_segments().iter().chain(snap.active_segment()) {
        let gids = seg.global_ids();
        if gids.is_empty() {
            continue;
        }
        let live = (0..gids.len() as u32).filter(|&l| {
            !seg.tombstones().get(l) && predicate.eval(attrs, gids[l as usize] as u32)
        });
        let bits = Bitset::from_ids(gids.len(), live);
        let scan = (bits.count() as f64) < snap.params().s_min() * gids.len() as f64;
        let filter = BitmapFilter::new(bits);
        let out = if scan {
            seg.index().prefilter_scan(q, &filter, k, &mut stats)
        } else {
            seg.index().search_filtered(q, &filter, k, efs, &mut scratch, &mut stats)
        };
        hits.extend(out.iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])));
    }
    hits.sort_unstable();
    hits.truncate(k);
    (hits, stats)
}

/// An attribute store over global ids `0..rows` with one int column
/// `label = gid % 4`, and the predicate `label == 1` (a quarter of the rows:
/// dense enough to traverse, sparse enough to materialize).
pub fn labels(rows: usize) -> (AttrStore, Predicate) {
    let attrs =
        AttrStore::builder().add_int("label", (0..rows as i64).map(|g| g % 4).collect()).build();
    let field = attrs.field("label").expect("column just added");
    (attrs, Predicate::Equals { field, value: 1 })
}

type Hits = Vec<(u64, u32)>;

/// One query's answers from a snapshot: pure search, hybrid search, and the
/// work counters of both.
#[derive(Debug, PartialEq)]
struct Answers {
    pure: Hits,
    pure_stats: SearchStats,
    hybrid: Hits,
    hybrid_stats: SearchStats,
}

fn answer(snap: &SegmentSnapshot, q: &[f32], attrs: &AttrStore, predicate: &Predicate) -> Answers {
    let bits = |out: Vec<acorn_core::GlobalNeighbor>| -> Hits {
        out.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    };
    let mut scratch = SearchScratch::new(snap.max_segment_rows());
    let mut pure_stats = SearchStats::default();
    let pure = bits(snap.search_with(q, 10, 48, &mut scratch, &mut pure_stats));
    let (hybrid, hybrid_stats) = snap.hybrid_search(q, predicate, attrs, 10, 48, &mut scratch);
    Answers { pure, pure_stats, hybrid: bits(hybrid), hybrid_stats }
}

/// A pinned epoch plus what it looked like when pinned.
pub struct Pinned {
    snap: Arc<SegmentSnapshot>,
    queries: Vec<Vec<f32>>,
    answers: Vec<Answers>,
    /// Tombstoned local ids of the active view at pin time.
    active_tombstones: Vec<u32>,
}

impl Pinned {
    /// Pin `snap`: run three queries drawn from `seed` and keep the answers.
    pub fn take(
        snap: Arc<SegmentSnapshot>,
        dim: usize,
        seed: u64,
        attrs: &AttrStore,
        predicate: &Predicate,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<Vec<f32>> =
            (0..3).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let answers = queries.iter().map(|q| answer(&snap, q, attrs, predicate)).collect();
        let active_tombstones =
            snap.active_segment().map_or_else(Vec::new, |v| v.tombstones().iter_ones().collect());
        Self { snap, queries, answers, active_tombstones }
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &SegmentSnapshot {
        &self.snap
    }

    /// Check the pinned epoch against its own past and against a twin.
    /// `vectors[gid]` is the row inserted under `gid`; it must cover every
    /// gid the snapshot knows.
    pub fn verify(
        &self,
        vectors: &[Vec<f32>],
        params: &AcornParams,
        variant: AcornVariant,
        attrs: &AttrStore,
        predicate: &Predicate,
    ) {
        let epoch = self.snap.epoch();
        for (q, then) in self.queries.iter().zip(&self.answers) {
            let now = answer(&self.snap, q, attrs, predicate);
            assert_eq!(&now, then, "epoch {epoch} answers differently than when it was pinned");
        }
        let Some(view) = self.snap.active_segment() else {
            return;
        };
        let still: Vec<u32> = view.tombstones().iter_ones().collect();
        assert_eq!(still, self.active_tombstones, "epoch {epoch}: tombstones moved");

        let dim = self.snap.dim();
        let mut twin = AcornIndex::new(Arc::new(VectorStore::new(dim)), params.clone(), variant);
        for &gid in view.global_ids() {
            twin.insert_vector(&vectors[gid as usize]);
        }
        let (got, want) = (view.index(), &twin);
        assert_eq!(got.len(), want.len(), "epoch {epoch}: active rows");
        assert_eq!(got.vectors().len(), want.len(), "epoch {epoch}: rows visible in the store");
        assert_eq!(got.vectors().as_flat().len(), want.len() * dim);
        let (g, t) = (got.graph().expect("active"), want.graph().expect("growing"));
        assert_eq!(g.len(), t.len());
        assert_eq!(
            (g.entry_point(), g.max_level()),
            (t.entry_point(), t.max_level()),
            "epoch {epoch}: entry point"
        );
        for v in 0..t.len() as u32 {
            assert_eq!(got.vectors().get(v), want.vectors().get(v), "epoch {epoch}: row {v}");
            assert_eq!(g.level_of(v), t.level_of(v), "epoch {epoch}: level of node {v}");
            for level in 0..=t.level_of(v) {
                assert_eq!(
                    g.neighbors(v, level),
                    t.neighbors(v, level),
                    "epoch {epoch}: neighbors of node {v} at level {level}"
                );
            }
        }
    }
}
