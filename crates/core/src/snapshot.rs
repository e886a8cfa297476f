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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use acorn_hnsw::{ScratchPool, SearchScratch, SearchStats};
use acorn_predicate::{AttrStore, Bitset, FieldId, Predicate};

use crate::index::AcornIndex;
use crate::params::{AcornParams, AcornVariant};
use crate::plan::{self, QueryTrace, Routes};
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
/// never copied. (Publishing a new view of the active segment clones the
/// writer's index instead: a copy of its graph's span and level tables,
/// sharing every list and row; see [`AcornIndex`]'s clone.)
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
    /// live rows, by global id. Lock-free: touches only this snapshot. It
    /// is [`try_hybrid_search`](Self::try_hybrid_search)'s plan with no
    /// predicate: each segment's live rows are its bitmap, routed on their
    /// count. `k` is clamped to [`total_rows`](Self::total_rows), and
    /// `k == 0` answers empty without searching.
    ///
    /// # Errors
    /// Refuses, before any work, a query whose length is not
    /// [`dim`](Self::dim) ([`QueryError::Dimension`]) or that holds a NaN
    /// or infinite component ([`QueryError::NonFinite`]).
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Result<Vec<GlobalNeighbor>, QueryError> {
        Ok(self.search_routed(query, k, efs, scratch, stats)?.0)
    }

    /// [`search_with`](Self::search_with), also returning how many segments
    /// took each route (what [`IndexReader::search`] counts).
    fn search_routed(
        &self,
        query: &[f32],
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Result<(Vec<GlobalNeighbor>, Routes), QueryError> {
        self.run(query, None, k, efs, scratch, stats, None)
    }

    /// Full hybrid search with ACORN's §5.2 cost-model routing applied
    /// **per segment** by the query planner ([`crate::plan`]): every
    /// segment has the predicate materialized into a bitmap of its live
    /// rows and is routed on that bitmap's exact count — to the exact
    /// pre-filter scan under `s_min · rows`, else to graph traversal over
    /// the bitmap. Every segment feeds one query-wide top-`k` by global id.
    /// No sample is drawn, so the answer depends only on the snapshot, the
    /// query and the predicate.
    ///
    /// `attrs` is indexed by **global id** and must cover every id ever
    /// assigned (`attrs.len() >= next_global_id()`); deleted rows keep
    /// their attribute values but are excluded by tombstone composition.
    /// `k` is clamped to [`total_rows`](Self::total_rows) (so no top-`k` is
    /// sized past the rows it could hold), and `k == 0` answers empty, with
    /// default stats, before the predicate is compiled or any segment is
    /// touched.
    ///
    /// # Errors
    /// Refuses, before any work:
    /// - a query whose length is not [`dim`](Self::dim)
    ///   ([`QueryError::Dimension`]) or that holds a NaN or infinite
    ///   component ([`QueryError::NonFinite`]);
    /// - an `attrs` store that does not cover every assigned global id
    ///   ([`QueryError::ShortAttrs`]);
    /// - a predicate that names a field `attrs` lacks, or reads a field of
    ///   another kind ([`QueryError::Field`]): `Equals`, `In` and `Between`
    ///   read int, `ContainsAny` and `ContainsAll` keywords, `RegexMatch`
    ///   str.
    pub fn try_hybrid_search(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<GlobalNeighbor>, SearchStats), QueryError> {
        let (hits, stats, _) = self.hybrid_routed(query, predicate, attrs, k, efs, scratch)?;
        Ok((hits, stats))
    }

    /// [`try_hybrid_search`](Self::try_hybrid_search), also returning how
    /// many segments took each route (what [`IndexReader::hybrid_search`]
    /// counts).
    fn hybrid_routed(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
    ) -> Result<(Vec<GlobalNeighbor>, SearchStats, Routes), QueryError> {
        let mut stats = SearchStats::default();
        let predicate = Some((predicate, attrs));
        let (hits, routes) = self.run(query, predicate, k, efs, scratch, &mut stats, None)?;
        Ok((hits, stats, routes))
    }

    /// [`try_hybrid_search`](Self::try_hybrid_search), recording into
    /// `trace` (overwritten) how long each stage of the plan took and what
    /// each segment did: its rows, its passing count, its route and its
    /// share of the stats ([`QueryTrace`]). The answer and the stats are
    /// the untraced call's. A refused query, or `k == 0`, leaves the trace
    /// empty.
    ///
    /// # Errors
    /// As [`try_hybrid_search`](Self::try_hybrid_search).
    #[allow(clippy::too_many_arguments)]
    pub fn try_hybrid_search_traced(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        trace: &mut QueryTrace,
    ) -> Result<(Vec<GlobalNeighbor>, SearchStats), QueryError> {
        *trace = QueryTrace::default();
        let mut stats = SearchStats::default();
        let predicate = Some((predicate, attrs));
        let (hits, _) = self.run(query, predicate, k, efs, scratch, &mut stats, Some(trace))?;
        Ok((hits, stats))
    }

    /// [`try_hybrid_search`](Self::try_hybrid_search) for callers whose
    /// input is known good.
    ///
    /// # Panics
    /// Panics with the [`QueryError`]'s message where `try_hybrid_search`
    /// would refuse the query.
    pub fn hybrid_search(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<GlobalNeighbor>, SearchStats) {
        self.try_hybrid_search(query, predicate, attrs, k, efs, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Check the input, then run the plan (unless `k == 0`), traced when
    /// `trace` is given; returns the hits and how many segments took each
    /// route.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        query: &[f32],
        predicate: Option<(&Predicate, &AttrStore)>,
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        trace: Option<&mut QueryTrace>,
    ) -> Result<(Vec<GlobalNeighbor>, Routes), QueryError> {
        check_vector(self.dim, query)?;
        if let Some((predicate, attrs)) = predicate {
            let (rows, next_global_id) = (attrs.len(), self.next_global);
            if (rows as u64) < next_global_id {
                return Err(QueryError::ShortAttrs { rows, next_global_id });
            }
            check_fields(predicate, attrs)?;
        }
        let k = k.min(self.total_rows());
        if k == 0 {
            return Ok((Vec::new(), Routes::default()));
        }
        Ok(plan::search(self.segments(), query, predicate, k, efs, scratch, stats, trace))
    }
}

/// The rule every vector crossing the API meets, query or row: `dim`
/// components, each finite.
pub(crate) fn check_vector(dim: usize, v: &[f32]) -> Result<(), QueryError> {
    if v.len() != dim {
        return Err(QueryError::Dimension { expected: dim, got: v.len() });
    }
    match v.iter().position(|x| !x.is_finite()) {
        Some(index) => Err(QueryError::NonFinite { index }),
        None => Ok(()),
    }
}

/// Every field `predicate` reads must be a column of `attrs` of the kind
/// it reads; the first leaf (in pre-order) that is not is refused.
fn check_fields(predicate: &Predicate, attrs: &AttrStore) -> Result<(), QueryError> {
    let (field, reads) = match predicate {
        Predicate::True => return Ok(()),
        Predicate::And(ps) | Predicate::Or(ps) => {
            return ps.iter().try_for_each(|p| check_fields(p, attrs));
        }
        Predicate::Not(p) => return check_fields(p, attrs),
        Predicate::Equals { field, .. }
        | Predicate::In { field, .. }
        | Predicate::Between { field, .. } => (*field, "int"),
        Predicate::ContainsAny { field, .. } | Predicate::ContainsAll { field, .. } => {
            (*field, "keywords")
        }
        Predicate::RegexMatch { field, .. } => (*field, "str"),
    };
    let holds = (field < attrs.num_fields()).then(|| attrs.column(field).kind());
    if holds != Some(reads) {
        return Err(QueryError::Field { field, reads, holds });
    }
    Ok(())
}

/// Why a read or a write refused its input. Each case is checked once, at
/// the API boundary, before any segment is touched or any row stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The vector's length is not the index's dimension.
    Dimension {
        /// The index's dimension.
        expected: usize,
        /// The vector's length.
        got: usize,
    },
    /// The vector holds a NaN or infinite component.
    NonFinite {
        /// Position of the first such component.
        index: usize,
    },
    /// A bulk-loaded row holds a NaN or infinite component.
    NonFiniteRow {
        /// The row's position in the loaded store.
        row: usize,
        /// Position of the row's first such component.
        index: usize,
    },
    /// The attribute store does not cover every assigned global id.
    ShortAttrs {
        /// Rows in the store.
        rows: usize,
        /// The snapshot's next global id, which the store must reach.
        next_global_id: u64,
    },
    /// The predicate names a field the attribute store lacks, or reads a
    /// field of another kind.
    Field {
        /// The field the predicate names.
        field: FieldId,
        /// The kind the predicate reads it as: `int`, `keywords` or `str`.
        reads: &'static str,
        /// The kind the store holds there; `None` when it has no such field.
        holds: Option<&'static str>,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Dimension { expected, got } => {
                write!(f, "a {got}-d vector for a {expected}-d index")
            }
            Self::NonFinite { index } => write!(f, "vector component {index} is NaN or infinite"),
            Self::NonFiniteRow { row, index } => {
                write!(f, "row {row}: {}", Self::NonFinite { index })
            }
            Self::ShortAttrs { rows, next_global_id: next } => {
                write!(f, "attribute store ({rows} rows) must cover every global id below {next}")
            }
            Self::Field { field, reads, holds } => {
                let holds = holds.unwrap_or("no column");
                write!(f, "predicate reads field {field} as {reads}; the store holds {holds} there")
            }
        }
    }
}

impl std::error::Error for QueryError {}

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
    /// Wall nanoseconds of those merges, capture to splice.
    pub(crate) merge_ns: AtomicU64,
    /// Epochs published since the index was created.
    pub(crate) publishes: AtomicU64,
    /// Nanoseconds the writer lock was held across those publishes.
    pub(crate) publish_ns: AtomicU64,
    /// Maintenance-thread merge cycles that panicked (caught; the thread
    /// backs off and keeps running). A health gauge: nonzero means merges
    /// are failing and compaction is stalled.
    pub(crate) maintenance_errors: AtomicU64,
    /// Fault injection for tests: the next N merge cycles panic on entry.
    /// Only ever set through the doc-hidden
    /// `SegmentedAcornIndex::inject_merge_panics`.
    pub(crate) merge_fault: AtomicU64,
    /// What the [`IndexReader`] queries routed where.
    routes: RouteCounters,
}

/// The routing mix of every query an [`IndexReader`] answered: relaxed
/// counters, bumped once per query by whichever reader thread ran it, so
/// they sit on a cache line of their own — apart from the locks every pin
/// and every publish write (see [`SharedState`]'s alignment).
#[derive(Debug, Default)]
#[repr(align(128))]
struct RouteCounters {
    queries: AtomicU64,
    scanned: AtomicU64,
    traversed: AtomicU64,
}

impl RouteCounters {
    /// Count one answered query and its segments' routes.
    fn add(&self, routes: Routes) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.scanned.fetch_add(routes.scanned, Ordering::Relaxed);
        self.traversed.fetch_add(routes.traversed, Ordering::Relaxed);
    }
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
            merge_ns: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            publish_ns: AtomicU64::new(0),
            maintenance_errors: AtomicU64::new(0),
            merge_fault: AtomicU64::new(0),
            routes: RouteCounters::default(),
        }
    }

    /// Begin a write: take the writer lock (surviving a panicked holder —
    /// it guards no data of its own) and copy the published state for the
    /// caller to edit and [`publish`](Self::publish).
    pub(crate) fn begin(&self) -> (Writer<'_>, SegmentSnapshot) {
        let lock = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = Writer { _lock: lock, since: Instant::now() };
        (writer, SegmentSnapshot::clone(&self.state()))
    }

    /// Publish `next` as the next epoch and release the writer lock taken
    /// by [`begin`](Self::begin), adding the time it was held to the
    /// publish counters. Readers pick the new snapshot up on their next
    /// [`IndexReader::snapshot`] call while in-flight queries finish on
    /// whatever epoch they loaded.
    pub(crate) fn publish(&self, writer: Writer<'_>, mut next: SegmentSnapshot) {
        next.epoch += 1;
        self.cell.store(Arc::new(next));
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.publish_ns.fetch_add(nanos_since(writer.since), Ordering::Relaxed);
    }

    /// Pin the published state: a reader's epoch, or the write path's own
    /// bookkeeping.
    pub(crate) fn state(&self) -> Arc<SegmentSnapshot> {
        self.cell.load()
    }
}

/// The writer lock, held from [`SharedState::begin`] until
/// [`SharedState::publish`] consumes it (or the write is abandoned), and
/// when it was taken.
pub(crate) struct Writer<'a> {
    _lock: MutexGuard<'a, ()>,
    since: Instant,
}

/// Nanoseconds since `start`, saturating at `u64::MAX`.
pub(crate) fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An index's health at one moment, read with [`IndexReader::metrics`]: the
/// pinned epoch's segment shape, the writer's and the merger's cumulative
/// counters, and the routing mix of the queries the index's readers
/// answered. `Display` prints it as one `name value` line per field, the
/// two nanosecond totals as means (µs per publish, ms per merge), and the
/// [`scan_share`](Self::scan_share).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The pinned epoch.
    pub epoch: u64,
    /// Non-empty segments queries fan out over, the active one included.
    pub segments: usize,
    /// Rows stored, tombstoned ones included.
    pub rows: usize,
    /// Rows not tombstoned.
    pub live_rows: usize,
    /// Rows in the writer's active segment.
    pub active_rows: usize,
    /// Rows of the largest segment.
    pub largest_segment_rows: usize,
    /// Tombstoned share of `rows` (0 with no rows).
    pub tombstone_fraction: f64,
    /// Epochs published since the index was created or loaded: every
    /// insert, delete, freeze, bulk load, policy change and merge.
    pub publishes: u64,
    /// Nanoseconds the writer lock was held across those publishes: copy
    /// the published state, edit it, publish the next epoch.
    pub publish_ns: u64,
    /// Merges that published a new epoch.
    pub merges_completed: u64,
    /// Wall nanoseconds of those merges, capture to splice.
    pub merge_ns: u64,
    /// Queries [`IndexReader::search`] and [`IndexReader::hybrid_search`]
    /// answered (refused ones are not counted). A pinned
    /// [`SegmentSnapshot`]'s own doors count nothing.
    pub queries: u64,
    /// Segments those queries routed to the exact pre-filter scan.
    pub segments_scanned: u64,
    /// Segments those queries routed to graph traversal.
    pub segments_traversed: u64,
    /// Background merge cycles that panicked (see
    /// [`IndexReader::maintenance_errors`]).
    pub maintenance_errors: u64,
}

impl MetricsSnapshot {
    /// The share of the counted queries' segments routed to the scan (0
    /// before any segment was).
    pub fn scan_share(&self) -> f64 {
        let routed = self.segments_scanned + self.segments_traversed;
        if routed == 0 {
            0.0
        } else {
            self.segments_scanned as f64 / routed as f64
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mean = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        writeln!(f, "epoch                 {}", self.epoch)?;
        writeln!(f, "segments              {}", self.segments)?;
        writeln!(f, "rows                  {}", self.rows)?;
        writeln!(f, "live_rows             {}", self.live_rows)?;
        writeln!(f, "active_rows           {}", self.active_rows)?;
        writeln!(f, "largest_segment_rows  {}", self.largest_segment_rows)?;
        writeln!(f, "tombstone_fraction    {:.4}", self.tombstone_fraction)?;
        writeln!(f, "publishes             {}", self.publishes)?;
        writeln!(f, "publish_us_mean       {:.3}", mean(self.publish_ns, self.publishes) / 1e3)?;
        writeln!(f, "merges_completed      {}", self.merges_completed)?;
        writeln!(
            f,
            "merge_ms_mean         {:.3}",
            mean(self.merge_ns, self.merges_completed) / 1e6
        )?;
        writeln!(f, "queries               {}", self.queries)?;
        writeln!(f, "segments_scanned      {}", self.segments_scanned)?;
        writeln!(f, "segments_traversed    {}", self.segments_traversed)?;
        writeln!(f, "scan_share            {:.4}", self.scan_share())?;
        writeln!(f, "maintenance_errors    {}", self.maintenance_errors)
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

    /// The current epoch's segment shape and the index's cumulative
    /// publish, merge, maintenance and routing counters. Pins one snapshot;
    /// the counters are read after it, so they may already count a write
    /// (or a query) the pinned epoch does not show.
    pub fn metrics(&self) -> MetricsSnapshot {
        let snap = self.snapshot();
        let (rows, shared) = (snap.total_rows(), &*self.shared);
        MetricsSnapshot {
            epoch: snap.epoch(),
            segments: snap.num_segments(),
            rows,
            live_rows: snap.len(),
            active_rows: snap.active_segment().map_or(0, SegmentView::rows),
            largest_segment_rows: snap.max_segment_rows(),
            tombstone_fraction: if rows == 0 {
                0.0
            } else {
                snap.deleted_rows() as f64 / rows as f64
            },
            publishes: shared.publishes.load(Ordering::Relaxed),
            publish_ns: shared.publish_ns.load(Ordering::Relaxed),
            merges_completed: shared.merges_completed.load(Ordering::Acquire),
            merge_ns: shared.merge_ns.load(Ordering::Relaxed),
            queries: shared.routes.queries.load(Ordering::Relaxed),
            segments_scanned: shared.routes.scanned.load(Ordering::Relaxed),
            segments_traversed: shared.routes.traversed.load(Ordering::Relaxed),
            maintenance_errors: shared.maintenance_errors.load(Ordering::Acquire),
        }
    }

    /// Merges that have published a new epoch since the index was created
    /// ([`metrics`](Self::metrics)' `merges_completed`).
    pub fn merges_completed(&self) -> u64 {
        self.metrics().merges_completed
    }

    /// Background merge cycles that panicked (each one is caught; the
    /// maintenance thread backs off exponentially and keeps running).
    /// Monitor this: a nonzero, growing value means compaction is stalled
    /// and tombstoned rows are accumulating ([`metrics`](Self::metrics)'
    /// `maintenance_errors`).
    pub fn maintenance_errors(&self) -> u64 {
        self.metrics().maintenance_errors
    }

    /// Pure ANN search against the current epoch: the `k` nearest live
    /// rows, by global id. Scratch comes from the shared pool; the query
    /// and its segments' routes are counted in [`metrics`](Self::metrics).
    ///
    /// # Errors
    /// As [`SegmentSnapshot::search_with`].
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        efs: usize,
    ) -> Result<Vec<GlobalNeighbor>, QueryError> {
        let snap = self.snapshot();
        let mut scratch = self.shared.pool.checkout(snap.max_segment_rows());
        let mut stats = SearchStats::default();
        let (hits, routes) = snap.search_routed(query, k, efs, &mut scratch, &mut stats)?;
        self.shared.routes.add(routes);
        Ok(hits)
    }

    /// Hybrid search against the current epoch. Scratch comes from the
    /// shared pool; the query and its segments' routes are counted in
    /// [`metrics`](Self::metrics).
    ///
    /// # Errors
    /// As [`SegmentSnapshot::try_hybrid_search`].
    pub fn hybrid_search(
        &self,
        query: &[f32],
        predicate: &Predicate,
        attrs: &AttrStore,
        k: usize,
        efs: usize,
    ) -> Result<(Vec<GlobalNeighbor>, SearchStats), QueryError> {
        let snap = self.snapshot();
        let mut scratch = self.shared.pool.checkout(snap.max_segment_rows());
        let (hits, stats, routes) =
            snap.hybrid_routed(query, predicate, attrs, k, efs, &mut scratch)?;
        self.shared.routes.add(routes);
        Ok((hits, stats))
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
