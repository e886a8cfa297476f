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
//! still answers the same, bit for bit, and that its active view holds —
//! row by row — exactly that epoch's rows and no graph. The writer shares
//! the view's vector buffer and keeps appending to it, so any write that
//! leaks into a published epoch shows up as a difference.

#![allow(dead_code)]

use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant, GlobalNeighbor, Route, SegmentSnapshot};
use acorn_hnsw::{Neighbor, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::{AttrStore, BitmapFilter, Bitset, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `snap.hybrid_search(q, predicate, attrs, k, efs, ..)` as the plan says it
/// must come out, built from public calls and [`Predicate::eval`]. Per
/// non-empty segment: the live passing bitmap, row by row with the
/// interpreter; when the segment has no graph, or [`Route::choose`] sends
/// its count to the scan (under `s_min · rows`, or a scan that costs less
/// than the traversal), brute force (one `distance_to` per passing row,
/// sorted, truncated to `k` — none of the engine's scan code), else
/// traversal over it; then the lists mapped to global ids, sorted and
/// truncated.
///
/// With [`Predicate::True`] the bitmap is the live rows: the plan of the
/// pure search. Valid for every predicate but a constant `false` (which
/// answers without touching a segment). Its `fallback`, `ndis` and `nhops`
/// are the engine's; `npred` is not (the engine's block kernel runs over
/// gid spans and its traversal checks are bit tests).
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
        let (index, rows) = (seg.index(), gids.len());
        let route = if index.csr().is_none() {
            Route::Scan
        } else {
            Route::choose(rows, bits.count(), snap.dim(), efs, k, index.params())
        };
        let filter = BitmapFilter::new(bits);
        let out = if route == Route::Scan {
            let vecs = seg.index().vectors();
            let mut all: Vec<Neighbor> = filter
                .bits()
                .iter_ones()
                .map(|l| Neighbor::new(vecs.distance_to(snap.params().metric, l, q), l))
                .collect();
            all.sort_unstable();
            all.truncate(k);
            stats.ndis += filter.bits().count() as u64;
            stats.fallback = true;
            all
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
    let pure = bits(snap.search_with(q, 10, 48, &mut scratch, &mut pure_stats).unwrap());
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

    /// Check the pinned epoch against its own past and against the rows
    /// its active view's ids name. `vectors[gid]` is the row inserted under
    /// `gid`; it must cover every gid the snapshot knows. `params` and
    /// `variant` are the index's: the view's index carries them.
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

        let (got, rows) = (view.index(), view.global_ids().len());
        let twin =
            AcornIndex::new(Arc::new(VectorStore::new(self.snap.dim())), params.clone(), variant);
        assert_eq!((got.params(), got.variant()), (twin.params(), variant), "epoch {epoch}");
        assert!(got.is_empty() && got.graph().is_none() && got.csr().is_none(), "epoch {epoch}");
        assert_eq!(got.vectors().len(), rows, "epoch {epoch}: rows visible in the store");
        assert_eq!(got.vectors().as_flat().len(), rows * self.snap.dim());
        for (local, &gid) in view.global_ids().iter().enumerate() {
            let row = got.vectors().get(local as u32);
            assert_eq!(row, &vectors[gid as usize][..], "epoch {epoch}: row {local}");
        }
    }
}
