//! Snapshot-epoch concurrency for the segmented index: one value — the
//! published [`SegmentSnapshot`] — describes the index, readers acquire it
//! with one cheap load and hold it lock-free for the whole query, and a
//! write replaces it.
//!
//! The concurrency model is MVCC over Lucene-style segments:
//!
//! * The published [`SegmentSnapshot`] **is** the writer's state: the
//!   segment list (each segment one [`SegmentView`]), the tombstones, the
//!   next global id, the policies. There is no second, writer-side copy to
//!   keep in step. Every mutation ([`insert`], [`delete`], [`freeze`], a
//!   merge's splice) takes the writer lock, copies the published value (two
//!   `Arc` bumps per segment), edits the copy and publishes it as the next
//!   epoch. The only thing kept outside it is what a snapshot cannot hold:
//!   the writer's growing active index.
//! * It is also the one read surface. The writer
//!   ([`SegmentedAcornIndex`](crate::segment::SegmentedAcornIndex)) writes
//!   and answers nothing; its [`snapshot`](crate::segment::SegmentedAcornIndex::snapshot),
//!   an [`IndexReader`]'s, or a batch engine's pin is where counts,
//!   liveness, configuration, queries and `save` are asked.
//! * A reader calls [`IndexReader::snapshot`] once — a read-lock held only
//!   long enough to clone an `Arc` — and then serves the entire query from
//!   that snapshot **without acquiring any lock**: segment payloads are
//!   `Arc<SegmentPayload>`, tombstone sets are `Arc<Bitset>`, and nothing in
//!   a published snapshot is ever mutated again.
//! * Old epochs are reclaimed by `Arc` drop when the last in-flight reader
//!   releases them; a background merge publishing a new epoch never stalls
//!   or retroactively changes a query that started on the old one.
//!
//! A segment's identity is its payload: two views show the same segment
//! exactly when their `Arc<SegmentPayload>`s are the same allocation
//! ([`Arc::ptr_eq`]). A merge finds its sources in a later epoch that way,
//! and the durable store maps payloads to the files that hold them.
//!
//! Tombstones are copy-on-write, in the active segment's view as in a
//! frozen one's: deleting a row clones the (small) bitset via
//! [`Arc::make_mut`] while the (large) graph + vector data stay shared by
//! every epoch that references the segment.
//!
//! [`insert`]: crate::segment::SegmentedAcornIndex::insert
//! [`delete`]: crate::segment::SegmentedAcornIndex::delete
//! [`freeze`]: crate::segment::SegmentedAcornIndex::freeze

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use acorn_hnsw::heap::{merge_k_sorted, Neighbor};
use acorn_hnsw::{ScratchPool, SearchScratch, SearchStats};
use acorn_predicate::{AllPass, AttrStore, Bitset, NodeFilter, Predicate};

use crate::index::AcornIndex;
use crate::params::{AcornParams, AcornVariant};
use crate::plan;
use crate::segment::{GlobalNeighbor, MergePolicy};

/// The immutable payload of one published segment generation: the
/// per-segment ACORN index — [sealed](AcornIndex::seal) for a frozen
/// segment, a growing clone for a view of the active one — and its sorted
/// local → global id map. Shared by every snapshot that references the
/// segment; its address is the segment's identity.
#[derive(Debug)]
pub(crate) struct SegmentPayload {
    pub(crate) index: AcornIndex,
    pub(crate) global_ids: Vec<u64>,
}

/// A read-only view of one segment inside a [`SegmentSnapshot`]: the shared
/// payload plus the tombstone set as of the snapshot's epoch.
///
/// Cloning a view clones two `Arc`s — the graph, vectors, and id map are
/// never copied.
#[derive(Debug, Clone)]
pub struct SegmentView {
    pub(crate) payload: Arc<SegmentPayload>,
    /// Set bit = deleted row, frozen at this view's epoch (copy-on-write:
    /// later deletes clone the bitset, never mutate this one).
    pub(crate) tombstones: Arc<Bitset>,
    /// Cached count of set tombstone bits.
    pub(crate) deleted: usize,
}

impl SegmentView {
    /// The view of `payload` under `tombstones`.
    pub(crate) fn new(payload: SegmentPayload, tombstones: Bitset) -> Self {
        Self {
            payload: Arc::new(payload),
            deleted: tombstones.count(),
            tombstones: Arc::new(tombstones),
        }
    }

    /// Total rows (live + tombstoned).
    pub fn rows(&self) -> usize {
        self.payload.global_ids.len()
    }

    /// Rows not tombstoned.
    pub fn live_rows(&self) -> usize {
        self.rows() - self.deleted
    }

    /// Tombstoned rows.
    pub fn deleted_rows(&self) -> usize {
        self.deleted
    }

    /// `deleted / rows` (0.0 for an empty segment).
    pub fn tombstone_fraction(&self) -> f64 {
        if self.payload.global_ids.is_empty() {
            0.0
        } else {
            self.deleted as f64 / self.payload.global_ids.len() as f64
        }
    }

    /// True when the segment holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.payload.global_ids.is_empty()
    }

    /// The per-segment ACORN index: sealed (CSR) for a frozen segment,
    /// growing (nested graph) for the view of the active one.
    pub fn index(&self) -> &AcornIndex {
        &self.payload.index
    }

    /// The sorted local → global id map.
    pub fn global_ids(&self) -> &[u64] {
        &self.payload.global_ids
    }

    /// The tombstone set (set bit = deleted local row).
    pub fn tombstones(&self) -> &Bitset {
        &self.tombstones
    }

    /// The lowest global id of a non-empty segment.
    pub(crate) fn first_gid(&self) -> u64 {
        self.payload.global_ids[0]
    }

    /// Local row id of `gid`, if this segment owns it (tombstoned or not).
    pub fn local_of(&self, gid: u64) -> Option<u32> {
        self.payload.global_ids.binary_search(&gid).ok().map(|i| i as u32)
    }

    /// Bytes held by this segment: its graph, the vector rows, the id map,
    /// and the tombstone words.
    pub fn memory_bytes(&self) -> usize {
        self.payload.index.memory_bytes()
            + self.payload.index.vectors().memory_bytes()
            + self.payload.global_ids.len() * std::mem::size_of::<u64>()
            + self.tombstones.memory_bytes()
    }

    /// Algorithm 2 over this segment's live rows that pass `filter` (local
    /// ids): a tombstoned row never passes, whatever `filter` says, while
    /// its node keeps serving as a traversal waypoint.
    pub(crate) fn search_live<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let live = LiveFilter { inner: filter, tombstones: &self.tombstones };
        self.payload.index.search_filtered(query, &live, k, efs, scratch, stats)
    }
}

/// Composes a segment's tombstones with a row filter. With no bit set this
/// is transparent, which is what keeps a fully-merged segment bit-identical
/// to a from-scratch build over its rows.
struct LiveFilter<'a, F: NodeFilter> {
    inner: &'a F,
    tombstones: &'a Bitset,
}

impl<F: NodeFilter> NodeFilter for LiveFilter<'_, F> {
    const BRANCH_FREE: bool = F::BRANCH_FREE;

    #[inline]
    fn passes(&self, id: u32) -> bool {
        !self.tombstones.get(id) && self.inner.passes(id)
    }
}

/// The one fan-in of every query: each segment's top-`k` in local ids,
/// remapped to global ids and k-way merged. A list arrives ascending by
/// `(dist, local)`; because `global_ids` is strictly ascending it leaves
/// ascending by `(dist, global)`, which is what the merge needs.
pub(crate) fn merge_segments<'a>(
    lists: impl Iterator<Item = (&'a SegmentView, Vec<Neighbor>)>,
    k: usize,
) -> Vec<GlobalNeighbor> {
    let per_seg: Vec<Vec<GlobalNeighbor>> = lists
        .map(|(seg, out)| {
            let gids = &seg.payload.global_ids;
            out.into_iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])).collect()
        })
        .collect();
    merge_k_sorted(&per_seg, k)
}

/// One immutable epoch of the segmented index: every segment (the frozen
/// list plus a view of the active segment) with the tombstone state as of
/// publication.
///
/// A snapshot answers every query the segmented index supports — pure
/// ([`search_with`](Self::search_with)) and hybrid
/// ([`hybrid_search`](Self::hybrid_search)) — **without any locking or
/// shared mutable state**: all methods take `&self` and caller-owned
/// scratch. Two queries against the same snapshot are
/// bit-identical, whatever the writer does in between.
///
/// It is also the only description of the index's mutable state: a write
/// clones the published snapshot, edits the clone and publishes it.
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    pub(crate) epoch: u64,
    pub(crate) params: AcornParams,
    pub(crate) variant: AcornVariant,
    pub(crate) dim: usize,
    pub(crate) policy: MergePolicy,
    pub(crate) next_global: u64,
    /// Frozen (sealed, CSR) segments, ascending by first global id.
    pub(crate) frozen: Vec<SegmentView>,
    /// View of the active segment at publication (absent when the active
    /// segment was empty).
    pub(crate) active: Option<SegmentView>,
}

impl SegmentSnapshot {
    /// Epoch 0 of an index with no rows: default policies, no segments.
    pub(crate) fn empty(params: AcornParams, variant: AcornVariant, dim: usize) -> Self {
        Self {
            epoch: 0,
            params,
            variant,
            dim,
            policy: MergePolicy::default(),
            next_global: 0,
            frozen: Vec::new(),
            active: None,
        }
    }

    /// Add a frozen segment, keeping the list ascending by first global id.
    pub(crate) fn push_frozen(&mut self, seg: SegmentView) {
        self.frozen.push(seg);
        self.frozen.sort_by_key(SegmentView::first_gid);
    }

    /// The epoch counter: strictly increasing across publications, starting
    /// at 0 for a freshly created index.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Construction parameters shared by every segment.
    pub fn params(&self) -> &AcornParams {
        &self.params
    }

    /// Which ACORN variant the segments implement.
    pub fn variant(&self) -> AcornVariant {
        self.variant
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The merge policy in force at this epoch.
    pub fn policy(&self) -> &MergePolicy {
        &self.policy
    }

    /// The next global id the writer would assign at this epoch (also the
    /// exclusive upper bound of every id ever assigned).
    pub fn next_global_id(&self) -> u64 {
        self.next_global
    }

    /// Live (non-tombstoned) rows across all segments.
    pub fn len(&self) -> usize {
        self.segments().map(SegmentView::live_rows).sum()
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total rows still stored, tombstoned included.
    pub fn total_rows(&self) -> usize {
        self.segments().map(SegmentView::rows).sum()
    }

    /// Tombstoned rows awaiting compaction.
    pub fn deleted_rows(&self) -> usize {
        self.segments().map(SegmentView::deleted_rows).sum()
    }

    /// Frozen (sealed, CSR) segments, ascending by first global id.
    pub fn frozen_segments(&self) -> &[SegmentView] {
        &self.frozen
    }

    /// The view of the active segment, if it held rows.
    pub fn active_segment(&self) -> Option<&SegmentView> {
        self.active.as_ref()
    }

    /// Number of non-empty segments queries fan out over.
    pub fn num_segments(&self) -> usize {
        self.segments().count()
    }

    /// All non-empty segments in query order (frozen first, then active).
    pub(crate) fn segments(&self) -> impl Iterator<Item = &SegmentView> {
        self.frozen.iter().chain(self.active.iter()).filter(|s| !s.is_empty())
    }

    /// Sorted global ids of all live rows (diagnostics and tests).
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .segments()
            .flat_map(|s| s.tombstones.iter_zeros().map(|l| s.payload.global_ids[l as usize]))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// True when `gid` is indexed and not tombstoned at this epoch.
    pub fn contains(&self, gid: u64) -> bool {
        self.segments().any(|s| s.local_of(gid).is_some_and(|local| !s.tombstones.get(local)))
    }

    /// Bytes held across all segments: graphs, vector data, id maps, and
    /// tombstone words.
    pub fn memory_bytes(&self) -> usize {
        self.segments().map(SegmentView::memory_bytes).sum()
    }

    /// Row count of the largest segment — the scratch capacity a worker
    /// needs to serve any single query.
    pub fn max_segment_rows(&self) -> usize {
        self.segments().map(SegmentView::rows).max().unwrap_or(0)
    }

    /// Pure ANN search with caller-owned scratch and stats: the `k` nearest
    /// live rows, by global id. Lock-free: touches only this snapshot.
    /// `k == 0` answers empty without searching.
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<GlobalNeighbor> {
        if k == 0 {
            return Vec::new();
        }
        let lists = self
            .segments()
            .map(|seg| (seg, seg.search_live(query, &AllPass, k, efs, scratch, stats)));
        merge_segments(lists, k)
    }

    /// Full hybrid search with ACORN's §5.2 cost-model routing applied
    /// **per segment** by the query planner ([`crate::plan`]): every
    /// segment has the predicate materialized into a bitmap of its live
    /// rows and is routed on that bitmap's exact count — to the exact
    /// pre-filter scan under `s_min · rows`, else to graph traversal over
    /// the bitmap. Per-segment top-`k` lists are k-way merged into the
    /// global answer. No sample is drawn, so the answer depends only on the
    /// snapshot, the query and the predicate.
    ///
    /// `attrs` is indexed by **global id** and must cover every id ever
    /// assigned (`attrs.len() >= next_global_id()`); deleted rows keep
    /// their attribute values but are excluded by tombstone composition.
    /// `k == 0` answers empty, with default stats, before the predicate is
    /// compiled or any segment is touched.
    ///
    /// # Panics
    /// Panics if `attrs` does not cover every assigned global id.
    pub fn hybrid_search(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<GlobalNeighbor>, SearchStats) {
        assert!(
            attrs.len() as u64 >= self.next_global,
            "attribute store ({} rows) must cover every assigned global id (next = {})",
            attrs.len(),
            self.next_global
        );
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        plan::hybrid_search(self.segments(), query, predicate, attrs, k, efs, scratch)
    }
}

/// The atomically swappable current-snapshot holder. `load` takes the read
/// lock only long enough to clone the `Arc` — after that the reader holds
/// the epoch lock-free for as long as it likes.
#[derive(Debug)]
pub(crate) struct SnapshotCell(RwLock<Arc<SegmentSnapshot>>);

impl SnapshotCell {
    fn new(snap: Arc<SegmentSnapshot>) -> Self {
        Self(RwLock::new(snap))
    }

    fn load(&self) -> Arc<SegmentSnapshot> {
        self.0.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    fn store(&self, snap: Arc<SegmentSnapshot>) {
        // The replaced epoch may be the last holder of a just-sealed active
        // segment's graph nodes: free them after the write lock is released.
        let old =
            std::mem::replace(&mut *self.0.write().unwrap_or_else(PoisonError::into_inner), snap);
        drop(old);
    }
}

/// State shared between the writer, every [`IndexReader`], and the
/// background maintenance thread.
///
/// Aligned to two cache lines so that no other heap object shares a line
/// with the locks every pin and every publish write: at 104 bytes
/// unaligned it did, and the repo benchmark's `churn-mixed` lost ~5 % QPS
/// (6 of 6 alternating pairs) until it was aligned.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct SharedState {
    /// Held from reading the published state to publishing its successor,
    /// so two writes (the `&mut` writer and a merge's splice) never build on
    /// the same epoch.
    writer: Mutex<()>,
    cell: SnapshotCell,
    /// Scratch pool shared by reader conveniences and the segmented batch
    /// engine; one checked-out scratch serves all segments of a query
    /// sequentially (`begin(n)` re-arms it per segment).
    pub(crate) pool: ScratchPool,
    /// Serializes merges (foreground `merge`/`compact_all` and the
    /// maintenance thread): merge sources can only disappear through a
    /// merge, so holding this across capture → rebuild → splice keeps the
    /// three-phase protocol race-free while inserts and deletes proceed.
    pub(crate) maintenance_lock: Mutex<()>,
    /// Merges that published a new epoch since the index was created.
    pub(crate) merges_completed: AtomicU64,
    /// Maintenance-thread merge cycles that panicked (caught; the thread
    /// backs off and keeps running). A health gauge: nonzero means merges
    /// are failing and compaction is stalled.
    pub(crate) maintenance_errors: AtomicU64,
    /// Fault injection for tests: the next N merge cycles panic on entry.
    /// Only ever set through the doc-hidden
    /// `SegmentedAcornIndex::inject_merge_panics`.
    pub(crate) merge_fault: AtomicU64,
}

impl SharedState {
    /// Shared state whose first published epoch is `state`.
    pub(crate) fn new(state: SegmentSnapshot) -> Self {
        Self {
            writer: Mutex::new(()),
            cell: SnapshotCell::new(Arc::new(state)),
            pool: ScratchPool::new(),
            maintenance_lock: Mutex::new(()),
            merges_completed: AtomicU64::new(0),
            maintenance_errors: AtomicU64::new(0),
            merge_fault: AtomicU64::new(0),
        }
    }

    /// Begin a write: take the writer lock (surviving a panicked holder —
    /// it guards no data of its own) and copy the published state for the
    /// caller to edit and [`publish`](Self::publish).
    pub(crate) fn begin(&self) -> (MutexGuard<'_, ()>, SegmentSnapshot) {
        let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        (writer, SegmentSnapshot::clone(&self.state()))
    }

    /// Publish `next` as the next epoch. Caller holds the writer lock from
    /// [`begin`](Self::begin); readers pick the new snapshot up on their
    /// next [`IndexReader::snapshot`] call while in-flight queries finish on
    /// whatever epoch they loaded.
    pub(crate) fn publish(&self, mut next: SegmentSnapshot) {
        next.epoch += 1;
        self.cell.store(Arc::new(next));
    }

    /// Pin the published state: a reader's epoch, or the write path's own
    /// bookkeeping.
    pub(crate) fn state(&self) -> Arc<SegmentSnapshot> {
        self.cell.load()
    }
}

/// A cloneable, `Send + Sync` handle for serving queries against the
/// segmented index concurrently with writes and background merges.
///
/// [`snapshot`](Self::snapshot) pins the current epoch with one cheap
/// atomic load/clone; everything after that is lock-free. The convenience
/// search methods pin a fresh snapshot per call — hold a snapshot yourself
/// when several operations must observe one consistent epoch.
#[derive(Debug, Clone)]
pub struct IndexReader {
    pub(crate) shared: Arc<SharedState>,
}

impl IndexReader {
    /// Pin the current epoch. The returned snapshot never changes; drop it
    /// to release the epoch's memory (shared segments stay alive as long as
    /// any epoch references them).
    pub fn snapshot(&self) -> Arc<SegmentSnapshot> {
        self.shared.state()
    }

    /// The shared scratch pool (the segmented batch engine draws from it).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.shared.pool
    }

    /// Merges that have published a new epoch since the index was created.
    pub fn merges_completed(&self) -> u64 {
        self.shared.merges_completed.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Background merge cycles that panicked (each one is caught; the
    /// maintenance thread backs off exponentially and keeps running).
    /// Monitor this: a nonzero, growing value means compaction is stalled
    /// and tombstoned rows are accumulating.
    pub fn maintenance_errors(&self) -> u64 {
        self.shared.maintenance_errors.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Pure ANN search against the current epoch: the `k` nearest live
    /// rows, by global id. Scratch comes from the shared pool.
    pub fn search(&self, query: &[f32], k: usize, efs: usize) -> Vec<GlobalNeighbor> {
        let snap = self.snapshot();
        let mut scratch = self.shared.pool.checkout(snap.max_segment_rows());
        let mut stats = SearchStats::default();
        snap.search_with(query, k, efs, &mut scratch, &mut stats)
    }

    /// Hybrid search against the current epoch. Scratch comes from the
    /// shared pool.
    pub fn hybrid_search(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
    ) -> (Vec<GlobalNeighbor>, SearchStats) {
        let snap = self.snapshot();
        let mut scratch = self.shared.pool.checkout(snap.max_segment_rows());
        snap.hybrid_search(query, predicate, attrs, k, efs, &mut scratch)
    }
}

/// The whole reader side must be shareable across threads; a compile error
/// here means a non-`Send`/`Sync` member crept into the snapshot path.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<SegmentSnapshot>();
    assert_send_sync::<SegmentView>();
    assert_send_sync::<IndexReader>();
    assert_send_sync::<SharedState>();
    assert_send_sync::<acorn_hnsw::CsrGraph>();
};
