//! The segmented, updatable ACORN index: tombstoned deletes and merge
//! compaction over a log of immutable segments, with snapshot-epoch
//! concurrency between one writer and any number of lock-free readers.
//!
//! ACORN's evaluation assumes a statically built index; a serving system
//! needs inserts, deletes, and maintenance without a full rebuild. This
//! module implements the production pattern proven by Lucene-style engines
//! (segment-per-generation storage; "Vector Search with OpenAI Embeddings:
//! Lucene Is All You Need"):
//!
//! * **one active segment** — rows, not a graph: the [`VectorStore`] an
//!   insert appends its row to, the id list and the tombstones. The rows and
//!   the id list are the only index state the writer holds outside the
//!   published snapshot. Each published epoch holds a view of the segment
//!   whose index is its rows alone ([`AcornIndex`] with an empty graph),
//!   sharing them with the writer — the next insert writes its row past the
//!   view's — so publishing copies the id map and no row. Every query scans
//!   the active segment exactly.
//! * **pending segments** — an active segment that reached the policy's
//!   `active_max_rows` is sealed into the frozen list as it is, rows alone,
//!   and queries keep scanning it. Its graph is built once, off the
//!   writer's path: [`AcornIndex::build`] over its surviving rows in gid
//!   order, through the merge path's `capture`, `rebuild` and
//!   `splice`. A pending segment is always a merge candidate, so the
//!   [maintenance thread](SegmentedAcornIndex::start_maintenance) builds it,
//!   alone or in a run with its neighbours. The backpressure is a count,
//!   never a clock: when a seal would leave a third segment pending, the
//!   writer builds the oldest itself, and [`freeze`] builds every one.
//! * **frozen segments** — immutable, each a [sealed](AcornIndex::seal)
//!   [`AcornIndex`] that holds its graph once, as a
//!   [`CsrGraph`](acorn_hnsw::CsrGraph);
//! * **tombstoned deletes** — [`delete`] locates the owning segment, the
//!   active one or a frozen one alike, by range binary search over the
//!   ascending, disjoint per-segment gid ranges, then sets a bit in that
//!   segment view's copy-on-write [`Bitset`]; a deleted row
//!   never surfaces from `search` or `hybrid_search`
//!   while its graph node keeps serving as a traversal waypoint (recall
//!   degrades gracefully until the next merge, exactly like Lucene's
//!   deleted docs);
//! * **merge compaction** — [`merge`] rebuilds small or tombstone-heavy
//!   frozen segments into one fresh graph over the surviving rows, dropping
//!   dead rows and reclaiming their vector, adjacency, and tombstone
//!   memory. Merges rebuild **off to the side** (no lock held while the
//!   replacement graph is built), find their sources again by payload
//!   identity ([`Arc::ptr_eq`]) when they splice the result in, and may run
//!   on a background
//!   [maintenance thread](SegmentedAcornIndex::start_maintenance).
//!
//! Every mutation edits a copy of the published [`SegmentSnapshot`] — the
//! one description of the index's state — and publishes it as the next
//! epoch; see the [`snapshot`](crate::snapshot) module for the epoch
//! lifecycle and the reader-side guarantees. The writer only writes: every
//! read — a count, a liveness probe, a query, a save — is asked of a pinned
//! snapshot ([`SegmentedAcornIndex::snapshot`], [`IndexReader`],
//! [`SegmentedQueryEngine`](crate::engine::SegmentedQueryEngine)), which
//! costs one cheap load and then answers without acquiring any lock.
//!
//! Rows are addressed by **stable global ids** (`u64`, assigned by
//! [`insert`], never reused); each segment keeps a sorted local → global id
//! map, and every query collects its segments into one top-`k` by global
//! id.
//!
//! **Determinism contract** (property-tested): after [`compact_all`]
//! collapses everything into one segment, every query — pure and hybrid —
//! answers **bit-identically** to a fresh index [`bulk_load`]ed with the
//! surviving rows in global id order. This holds because merge rebuilds with
//! the same parameters, seed, and insertion order, and because both sides
//! are one segment under the **same query planner** ([`crate::plan`]): the
//! merged segment materializes the same local bitmap and routes on the same
//! exact count as the from-scratch load. The planner draws no sample and
//! reads no seed, so nothing else could tell the two apart. Every graph is
//! made that one way — [`AcornIndex::build`] over a segment's surviving
//! rows in global id order, by a bulk load, a pending segment's build or a
//! merge — so `freeze` after inserts equals a `bulk_load` of the rows.
//!
//! [`freeze`]: SegmentedAcornIndex::freeze
//! [`delete`]: SegmentedAcornIndex::delete
//! [`insert`]: SegmentedAcornIndex::insert
//! [`merge`]: SegmentedAcornIndex::merge
//! [`compact_all`]: SegmentedAcornIndex::compact_all
//! [`bulk_load`]: SegmentedAcornIndex::bulk_load

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acorn_hnsw::VectorStore;
use acorn_predicate::Bitset;

use crate::index::{resolve_params, AcornIndex};
use crate::params::{AcornParams, AcornVariant};
use crate::prune::PruneStrategy;
use crate::snapshot::{
    check_vector, nanos_since, IndexReader, QueryError, SegmentPayload, SegmentSnapshot,
    SegmentView, SharedState,
};

/// A search result addressed by **global** row id (stable across freezes
/// and merges), the segmented analogue of
/// [`Neighbor`](acorn_hnsw::Neighbor).
///
/// Ordering is by distance (`total_cmp`), tie-broken by id — the same
/// contract as `Neighbor`, so per-segment lists merge deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalNeighbor {
    /// Distance to the query (smaller = closer).
    pub dist: f32,
    /// Stable global row id assigned at insert time.
    pub id: u64,
}

impl GlobalNeighbor {
    /// Convenience constructor.
    #[inline]
    pub fn new(dist: f32, id: u64) -> Self {
        Self { dist, id }
    }
}

impl Eq for GlobalNeighbor {}

impl Ord for GlobalNeighbor {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist).then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for GlobalNeighbor {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl acorn_hnsw::heap::Scored for GlobalNeighbor {
    fn dist(&self) -> f32 {
        self.dist
    }
}

/// When [`SegmentedAcornIndex::merge`] considers a frozen segment a
/// compaction candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct MergePolicy {
    /// Frozen segments with fewer total rows than this are merge candidates
    /// (many small segments fan every query out needlessly).
    pub min_rows: usize,
    /// Frozen segments whose tombstoned fraction exceeds this are merge
    /// candidates (dead rows waste memory and traversal work).
    pub max_tombstone_fraction: f64,
    /// Seal the active segment into a pending one once it reaches this
    /// many rows (`0` = only explicit [`freeze`](SegmentedAcornIndex::freeze)
    /// calls seal it).
    pub active_max_rows: usize,
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self { min_rows: 2048, max_tombstone_fraction: 0.2, active_max_rows: 0 }
    }
}

/// What a [`merge`](SegmentedAcornIndex::merge) /
/// [`compact_all`](SegmentedAcornIndex::compact_all) call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MergeOutcome {
    /// Number of frozen segments compacted away (0 = the call was a no-op).
    pub segments_merged: usize,
    /// Tombstoned rows dropped — their vectors, edges, and tombstone bits
    /// are gone.
    pub rows_dropped: usize,
    /// Surviving rows carried into the merged segment(s).
    pub rows_kept: usize,
    /// [`SegmentSnapshot::memory_bytes`] before the merge.
    pub bytes_before: usize,
    /// [`SegmentSnapshot::memory_bytes`] after the merge.
    pub bytes_after: usize,
}

/// The most pending segments a seal leaves: when it would leave a third,
/// the writer builds the oldest itself ([`build_pending`]).
const MAX_PENDING: usize = 2;

/// What only the writer can own of the active segment: its handle on the
/// rows, which it appends to, and the id list. Everything else about the
/// segment — its tombstones included — is in the published [`SegmentView`]
/// of it, which shares the rows (readers never see this struct).
#[derive(Debug)]
struct ActiveSegment {
    vecs: VectorStore,
    global_ids: Vec<u64>,
    /// The parameters every segment's index carries ([`resolve_params`]).
    params: AcornParams,
}

impl ActiveSegment {
    fn new(dim: usize, params: AcornParams) -> Self {
        Self { vecs: VectorStore::new(dim), global_ids: Vec::new(), params }
    }

    /// Move the active segment's tombstone state out of its view in `next`,
    /// grown (copy-on-write) to the rows the writer holds now.
    fn take_tombstones(&self, next: &mut SegmentSnapshot) -> (Arc<Bitset>, usize) {
        let (mut tombstones, deleted) =
            next.active.take().map_or_else(|| (Arc::default(), 0), |v| (v.tombstones, v.deleted));
        if tombstones.len() < self.global_ids.len() {
            Arc::make_mut(&mut tombstones).grow(self.global_ids.len());
        }
        (tombstones, deleted)
    }

    /// Replace the active view in `next` with one of the current rows: an
    /// index of the rows alone, sharing them with the writer (its next
    /// insert writes past the view's rows, so the view never changes), a
    /// copy of the id map and (when a row was added) of the tombstone words.
    fn publish_view(&self, next: &mut SegmentSnapshot) {
        let (tombstones, deleted) = self.take_tombstones(next);
        let vecs = Arc::new(self.vecs.clone());
        let index = AcornIndex::rows(vecs, self.params.clone(), next.variant);
        let payload = SegmentPayload { index, global_ids: self.global_ids.clone() };
        next.active = Some(SegmentView { payload: Arc::new(payload), tombstones, deleted });
    }

    /// Seal the rows into a pending segment of `next`, leaving a fresh,
    /// empty active segment. No-op when there are no rows. Caller publishes.
    fn seal_into(&mut self, next: &mut SegmentSnapshot) {
        if self.global_ids.is_empty() {
            return;
        }
        let (tombstones, deleted) = self.take_tombstones(next);
        let full = std::mem::replace(self, Self::new(next.dim, self.params.clone()));
        let index = AcornIndex::rows(Arc::new(full.vecs), full.params, next.variant);
        let payload = SegmentPayload { index, global_ids: full.global_ids };
        next.push_frozen(SegmentView { payload: Arc::new(payload), tombstones, deleted });
    }
}

/// Background maintenance thread handle: a condvar-signalled stop flag and
/// the join handle.
#[derive(Debug)]
struct MaintenanceHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: Option<JoinHandle<()>>,
}

/// A segmented, updatable ACORN index: one active segment of rows plus any
/// number of frozen segments — CSR-served, or pending their graph — with
/// tombstone deletes and merge compaction. See the [module docs](self) for
/// the architecture and the determinism contract.
///
/// This struct is the **writer**: `insert` / `delete` / `freeze` take
/// `&mut self` and publish a new epoch atomically. It answers no question
/// about the index's contents: [`snapshot`](Self::snapshot) pins the
/// current epoch, and concurrent serving goes through
/// [`reader`](Self::reader) handles, which stay valid while the writer (and
/// the background maintenance thread) keep mutating.
#[derive(Debug)]
pub struct SegmentedAcornIndex {
    shared: Arc<SharedState>,
    active: ActiveSegment,
    maintenance: Option<MaintenanceHandle>,
}

impl SegmentedAcornIndex {
    /// An empty segmented index for vectors of dimension `dim`.
    ///
    /// `params`/`variant` apply to every segment ever built (the active
    /// segment now, every merge product later), so all segments share one
    /// level-sampling seed and pruning configuration.
    ///
    /// # Panics
    /// Panics if the parameters are inconsistent (see
    /// [`AcornParams::validate`]), or if they ask for
    /// [`PruneStrategy::RngMetadataAware`]: that ablation prunes by node
    /// labels, which no segment has, so every write past the first would
    /// panic — even through [`try_insert`](Self::try_insert) and
    /// [`try_bulk_load`](Self::try_bulk_load).
    pub fn new(dim: usize, params: AcornParams, variant: AcornVariant) -> Self {
        assert!(
            params.prune != PruneStrategy::RngMetadataAware,
            "PruneStrategy::RngMetadataAware needs node labels, which a segmented index \
             does not have; build one labelled graph with AcornIndex::build_with_labels"
        );
        Self {
            active: ActiveSegment::new(dim, resolve_params(params.clone(), variant)),
            shared: Arc::new(SharedState::new(SegmentSnapshot::empty(params, variant, dim))),
            maintenance: None,
        }
    }

    /// Reassemble a segmented index from the state `serialize::load`
    /// decoded — every frozen segment attached — and the view of the active
    /// segment, whose rows the writer resumes appending to (not part of the
    /// construction API).
    pub(crate) fn from_loaded_parts(mut loaded: SegmentSnapshot, active: SegmentView) -> Self {
        let index = active.index();
        let writer = ActiveSegment {
            vecs: VectorStore::clone(index.vectors()),
            global_ids: active.payload.global_ids.clone(),
            params: index.params().clone(),
        };
        loaded.active = (!active.is_empty()).then_some(active);
        Self { active: writer, shared: Arc::new(SharedState::new(loaded)), maintenance: None }
    }

    /// Replace the merge policy (builder style). Publishes a new epoch.
    pub fn with_policy(self, policy: MergePolicy) -> Self {
        {
            let (writer, mut next) = self.shared.begin();
            next.policy = policy;
            self.shared.publish(writer, next);
        }
        self
    }

    /// A cloneable, `Send + Sync` handle for serving queries concurrently
    /// with writes and background merges.
    pub fn reader(&self) -> IndexReader {
        IndexReader { shared: self.shared.clone() }
    }

    /// Pin the current epoch (see [`IndexReader::snapshot`]): every read of
    /// the index's state is a question to the returned snapshot.
    pub fn snapshot(&self) -> Arc<SegmentSnapshot> {
        self.shared.state()
    }

    /// Rows currently in the writer's active segment.
    pub fn active_rows(&self) -> usize {
        self.active.global_ids.len()
    }

    /// [`try_insert`](Self::try_insert) for callers whose rows are known
    /// good.
    ///
    /// # Panics
    /// Panics with the [`QueryError`]'s message where `try_insert` would
    /// refuse the row.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        self.try_insert(v).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Insert a vector, returning its stable global id. The row is appended
    /// to the active segment, and no graph is touched; if the merge
    /// policy's `active_max_rows` is set and reached, the active segment is
    /// sealed into a pending one afterwards, and if that leaves a third
    /// segment pending, the oldest is built here.
    /// Publishes a new epoch — readers see the row on their next snapshot.
    ///
    /// # Errors
    /// Refuses a vector of the wrong dimension or with a NaN or infinite
    /// component before anything is stored: no row and no global id is
    /// spent on it.
    pub fn try_insert(&mut self, v: &[f32]) -> Result<u64, QueryError> {
        check_vector(self.active.vecs.dim(), v)?;
        let local = self.active.vecs.push(v);
        debug_assert_eq!(local as usize, self.active.global_ids.len());
        let (writer, mut next) = self.shared.begin();
        let gid = next.next_global;
        next.next_global += 1;
        self.active.global_ids.push(gid);
        let max_rows = next.policy.active_max_rows;
        let seal = max_rows > 0 && self.active.global_ids.len() >= max_rows;
        if seal {
            self.active.seal_into(&mut next);
        } else {
            self.active.publish_view(&mut next);
        }
        self.shared.publish(writer, next);
        if seal {
            build_pending(&self.shared, MAX_PENDING);
        }
        Ok(gid)
    }

    /// Tombstone the row with global id `gid`. Returns `true` if the row
    /// was live (idempotent: deleting a missing or already-deleted row
    /// returns `false`). The row stops surfacing from every search at the
    /// published epoch; its memory is reclaimed by the next merge that
    /// touches its segment.
    ///
    /// Segments own ascending, pairwise-disjoint gid ranges (the active
    /// segment's range sits above every frozen one), so the owner is found
    /// by **range binary search** — `O(log segments + log rows)`, not a
    /// linear scan of every segment's id list.
    pub fn delete(&mut self, gid: u64) -> bool {
        let (writer, mut next) = self.shared.begin();
        // At most one segment's range can cover `gid`: the active view's
        // (its gids are the highest ever assigned) or the last frozen one
        // starting at or below it.
        let owner = match &mut next.active {
            Some(active) if active.first_gid() <= gid => Some(active),
            _ => {
                let i = next.frozen.partition_point(|s| s.first_gid() <= gid);
                next.frozen[..i].last_mut()
            }
        };
        let Some(seg) = owner else { return false };
        let Some(local) = seg.local_of(gid).filter(|&l| !seg.tombstones.get(l)) else {
            return false;
        };
        // Copy-on-write: snapshots holding the old bitset keep serving it.
        Arc::make_mut(&mut seg.tombstones).set(local);
        seg.deleted += 1;
        self.shared.publish(writer, next);
        true
    }

    /// Seal the active segment into a pending one and open a fresh active
    /// segment, then build every pending segment here, oldest first: each
    /// becomes [`AcornIndex::build`] over its
    /// surviving rows in gid order, sealed. Publishes an epoch for the seal
    /// (none when the active segment is empty) and one per build.
    pub fn freeze(&mut self) {
        self.seal_active();
        build_pending(&self.shared, 0);
    }

    /// Seal the active segment into a pending one and publish; no-op when
    /// it is empty.
    fn seal_active(&mut self) {
        if !self.active.global_ids.is_empty() {
            let (writer, mut next) = self.shared.begin();
            self.active.seal_into(&mut next);
            self.shared.publish(writer, next);
        }
    }

    /// [`try_bulk_load`](Self::try_bulk_load) for callers whose rows are
    /// known good.
    ///
    /// # Panics
    /// Panics with the [`QueryError`]'s message where `try_bulk_load` would
    /// refuse the store.
    pub fn bulk_load(&mut self, store: VectorStore) -> Range<u64> {
        self.try_bulk_load(store).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Bulk-load a whole vector store as one directly-frozen segment,
    /// returning the contiguous global-id range assigned to its rows (row
    /// `i` of the store gets gid `range.start + i`).
    ///
    /// [`insert`](Self::insert) publishes a view of the active segment per
    /// call — a copy of its per-row tables — which is the right trade
    /// for trickle writes but adds up to quadratic work over a whole chunk;
    /// `try_bulk_load` instead builds the chunk's graph
    /// **off-lock** (queries keep serving the current epoch throughout),
    /// seals it, and publishes exactly one new epoch. By the
    /// determinism contract the resulting segment answers bit-identically
    /// to inserting the same rows one at a time and freezing.
    ///
    /// Any rows in the active segment are sealed into a pending segment
    /// first so segments keep owning ascending, pairwise-disjoint gid ranges
    /// — the invariant [`delete`](Self::delete)'s range binary search relies
    /// on — under the same count rule as [`try_insert`](Self::try_insert)'s
    /// seals.
    ///
    /// # Errors
    /// Refuses, in one pass over the rows before anything is built, a store
    /// of another dimension ([`QueryError::Dimension`]) and the first row
    /// holding a NaN or infinite component ([`QueryError::NonFiniteRow`]).
    /// A refused store spends no global id, seals no active row and
    /// publishes no epoch.
    pub fn try_bulk_load(&mut self, store: VectorStore) -> Result<Range<u64>, QueryError> {
        let (state, dim) = (self.snapshot(), store.dim());
        if dim != state.dim {
            return Err(QueryError::Dimension { expected: state.dim, got: dim });
        }
        if let Some(at) = store.as_flat().iter().position(|x| !x.is_finite()) {
            return Err(QueryError::NonFiniteRow { row: at / dim, index: at % dim });
        }
        let n = store.len();
        if n == 0 {
            return Ok(state.next_global..state.next_global);
        }
        let index = AcornIndex::build(Arc::new(store), state.params.clone(), state.variant).seal();
        let (writer, mut next) = self.shared.begin();
        self.active.seal_into(&mut next);
        let range = next.next_global..next.next_global + n as u64;
        next.next_global = range.end;
        let payload = SegmentPayload { index, global_ids: range.clone().collect() };
        next.push_frozen(SegmentView::new(payload, Bitset::new(n)));
        self.shared.publish(writer, next);
        build_pending(&self.shared, MAX_PENDING);
        Ok(range)
    }

    /// Compact frozen segments the [`MergePolicy`] flags (too small, or too
    /// tombstone-heavy) and every pending one into fresh segments over their
    /// surviving rows. Returns what happened; a call with nothing worth
    /// merging (no adjacent run of two candidates, and no tombstones among
    /// lone sealed ones) is a no-op.
    ///
    /// Takes `&self`: the rebuild happens off to the side while inserts,
    /// deletes, and queries proceed; only the final splice-and-publish
    /// briefly takes the writer lock. Safe to call from any thread holding
    /// a [`reader`](Self::reader)'s shared state — the background
    /// maintenance thread calls exactly this.
    pub fn merge(&self) -> MergeOutcome {
        run_merge(&self.shared, false)
    }

    /// Seal the active segment, then merge **all** frozen segments — the
    /// pending ones included, so each row's graph is built once — into a
    /// single one, dropping every tombstoned row. After this the index
    /// holds at most one (fully live) segment, and every query answers
    /// bit-identically to a fresh index [`bulk_load`](Self::bulk_load)ed
    /// with the surviving rows in global id order.
    pub fn compact_all(&mut self) -> MergeOutcome {
        self.seal_active();
        run_merge(&self.shared, true)
    }

    /// Start a background maintenance thread that runs
    /// [`merge`](Self::merge) every `interval` until
    /// [`stop_maintenance`](Self::stop_maintenance) (or drop) — which builds
    /// every pending segment, so the graph work of an insert-heavy writer
    /// runs here, off its path. No-op when already running.
    ///
    /// The thread rebuilds off to the side and publishes each merge as a
    /// new epoch; in-flight readers keep serving the epoch they pinned,
    /// bit-identically, until they drop it.
    ///
    /// The loop is panic-hardened: each merge cycle runs under
    /// `catch_unwind`, a panicking cycle bumps the
    /// [`maintenance_errors`](IndexReader::maintenance_errors) gauge, and
    /// consecutive failures back the thread off exponentially (doubling up
    /// to 32× `interval`, capped at 30s) instead of hot-looping on a
    /// persistent fault. One successful cycle resets the backoff.
    pub fn start_maintenance(&mut self, interval: Duration) {
        if self.maintenance.is_some() {
            return;
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = self.shared.clone();
        let thread_stop = stop.clone();
        let join = std::thread::Builder::new()
            .name("acorn-maintenance".into())
            .spawn(move || {
                const MAX_BACKOFF_SHIFT: u32 = 5;
                const BACKOFF_CAP: Duration = Duration::from_secs(30);
                let (lock, cvar) = &*thread_stop;
                let mut failures: u32 = 0;
                let mut stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !*stopped {
                    let wait = if failures == 0 {
                        interval
                    } else {
                        BACKOFF_CAP
                            .min(interval.saturating_mul(1 << failures.min(MAX_BACKOFF_SHIFT)))
                    };
                    let (guard, _) =
                        cvar.wait_timeout(stopped, wait).unwrap_or_else(PoisonError::into_inner);
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    drop(stopped);
                    let cycle = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_merge(&shared, false)
                    }));
                    match cycle {
                        Ok(_) => failures = 0,
                        Err(_) => {
                            failures = failures.saturating_add(1);
                            shared.maintenance_errors.fetch_add(1, AtomicOrdering::Release);
                        }
                    }
                    stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                }
            })
            .expect("spawn acorn-maintenance thread");
        self.maintenance = Some(MaintenanceHandle { stop, join: Some(join) });
    }

    /// Signal the maintenance thread to stop and join it. No-op when not
    /// running. Called automatically on drop.
    pub fn stop_maintenance(&mut self) {
        if let Some(mut h) = self.maintenance.take() {
            let (lock, cvar) = &*h.stop;
            *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
            cvar.notify_all();
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }

    /// Test hook: make the next `n` merge cycles (foreground or
    /// background) panic on entry. Exercises the maintenance thread's
    /// `catch_unwind` + backoff path.
    #[doc(hidden)]
    pub fn inject_merge_panics(&self, n: u64) {
        self.shared.merge_fault.store(n, AtomicOrdering::Release);
    }
}

impl Drop for SegmentedAcornIndex {
    fn drop(&mut self) {
        self.stop_maintenance();
    }
}

/// The three-phase merge shared by foreground [`SegmentedAcornIndex::merge`]
/// / [`compact_all`](SegmentedAcornIndex::compact_all) and the background
/// maintenance thread: [`capture`], [`rebuild`], [`splice`].
///
/// `maintenance_lock` serializes whole merges: sources can only be removed
/// by a merge, so a captured source is guaranteed to still be present when
/// it is spliced out.
pub(crate) fn run_merge(shared: &SharedState, select_all: bool) -> MergeOutcome {
    // Injected fault (tests only): dies before touching any state, so the
    // panic leaves no lock residue behind.
    if shared
        .merge_fault
        .fetch_update(AtomicOrdering::AcqRel, AtomicOrdering::Acquire, |n| n.checked_sub(1))
        .is_ok()
    {
        panic!("injected merge panic (SegmentedAcornIndex::inject_merge_panics)");
    }
    let _serialized = shared.maintenance_lock.lock().unwrap_or_else(PoisonError::into_inner);

    let since = Instant::now();
    let (runs, bytes_before) = capture(shared, select_all);
    if runs.is_empty() {
        return MergeOutcome { bytes_before, bytes_after: bytes_before, ..Default::default() };
    }
    let rebuilt = rebuild(shared, &runs);
    let (rows_kept, bytes_after) = splice(shared, &runs, rebuilt);
    shared.merge_ns.fetch_add(nanos_since(since), AtomicOrdering::Relaxed);
    shared.merges_completed.fetch_add(1, AtomicOrdering::AcqRel);

    let rows_before: usize = runs.iter().flatten().map(SegmentView::rows).sum();
    MergeOutcome {
        segments_merged: runs.iter().map(Vec::len).sum(),
        rows_dropped: rows_before - rows_kept,
        rows_kept,
        bytes_before,
        bytes_after,
    }
}

/// Merge phase 1, **capture** (the published state, no lock): select
/// candidate segments and group them into maximal *adjacent* runs (merging
/// only adjacent segments keeps the frozen gid ranges pairwise disjoint —
/// the invariant `delete`'s range binary search relies on). A source is
/// captured as a clone of its view: the payload identifies it at splice
/// time, and holding the tombstone set's `Arc` forces any later delete to
/// copy it, so deletes landing during the off-lock rebuild are detectable
/// afterwards. Also returns the index's bytes as of the capture.
pub(crate) fn capture(shared: &SharedState, select_all: bool) -> (Vec<Vec<SegmentView>>, usize) {
    let state = shared.state();
    let is_candidate = |s: &SegmentView| {
        select_all
            || s.is_pending()
            || s.rows() < state.policy.min_rows
            || s.tombstone_fraction() > state.policy.max_tombstone_fraction
    };
    let mut runs: Vec<Vec<SegmentView>> = Vec::new();
    let mut current: Vec<SegmentView> = Vec::new();
    for s in &state.frozen {
        if is_candidate(s) {
            current.push(s.clone());
        } else if !current.is_empty() {
            runs.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        runs.push(current);
    }
    // A lone sealed candidate with no dead rows gains nothing from a
    // rebuild; a lone pending one gains its graph.
    runs.retain(|r| r.len() >= 2 || r.iter().any(|c| c.deleted > 0 || c.is_pending()));
    (runs, state.memory_bytes())
}

/// Merge phase 2, **rebuild** (no lock): build one fresh graph per run over
/// the captured survivors in global-id order — the exact code path a
/// from-scratch build takes, so answers stay bit-identical — while inserts,
/// deletes, and queries proceed. `None` for a run with no survivor. A run
/// holding pending segments counts them and its build's time as seal
/// builds.
pub(crate) fn rebuild(
    shared: &SharedState,
    runs: &[Vec<SegmentView>],
) -> Vec<Option<SegmentPayload>> {
    // The configuration no write changes, so any epoch's copy will do.
    let state = shared.state();
    let mut rebuilt = Vec::with_capacity(runs.len());
    for run in runs {
        // Survivors, ascending by global id (runs are adjacent, but sorting
        // makes no ordering assumption at all).
        let mut rows: Vec<(u64, usize, u32)> = Vec::new();
        for (ci, c) in run.iter().enumerate() {
            rows.extend(
                c.tombstones
                    .iter_zeros()
                    .map(|local| (c.payload.global_ids[local as usize], ci, local)),
            );
        }
        rows.sort_unstable_by_key(|&(gid, _, _)| gid);
        if rows.is_empty() {
            rebuilt.push(None);
            continue;
        }
        let mut store = VectorStore::with_capacity(state.dim, rows.len());
        let mut global_ids = Vec::with_capacity(rows.len());
        for &(gid, ci, local) in &rows {
            store.push(run[ci].payload.index.vectors().get(local));
            global_ids.push(gid);
        }
        // The exact code path a from-scratch build takes: same params, same
        // seed, same insertion order => an identical graph.
        let since = Instant::now();
        let index = AcornIndex::build(Arc::new(store), state.params.clone(), state.variant);
        let pending = run.iter().filter(|c| c.is_pending()).count() as u64;
        if pending > 0 {
            shared.seal_builds.fetch_add(pending, AtomicOrdering::Relaxed);
            shared.seal_build_ns.fetch_add(nanos_since(since), AtomicOrdering::Relaxed);
        }
        rebuilt.push(Some(SegmentPayload { index: index.seal(), global_ids }));
    }
    rebuilt
}

/// Merge phase 3, **splice** (writer lock): put each rebuilt segment in
/// place of its sources (located by payload identity), re-apply any deletes
/// that landed since the capture as tombstones on the merged segment, and
/// publish the new epoch. In-flight readers keep serving their pinned
/// epoch. Returns the rows kept and the index's bytes afterwards.
pub(crate) fn splice(
    shared: &SharedState,
    runs: &[Vec<SegmentView>],
    rebuilt: Vec<Option<SegmentPayload>>,
) -> (usize, usize) {
    let (writer, mut next) = shared.begin();
    let mut rows_kept = 0;
    for (run, built) in runs.iter().zip(rebuilt) {
        // Deletes that landed after capture: bits set now but not then.
        let mut late: Vec<u64> = Vec::new();
        for c in run {
            let pos = next
                .frozen
                .iter()
                .position(|s| Arc::ptr_eq(&s.payload, &c.payload))
                .expect("merge sources are only removed by merges, and merges are serialized");
            let source = next.frozen.remove(pos);
            for local in source.tombstones.iter_ones() {
                if !c.tombstones.get(local) {
                    late.push(source.payload.global_ids[local as usize]);
                }
            }
        }
        let Some(payload) = built else {
            continue;
        };
        rows_kept += payload.global_ids.len();
        let mut tombstones = Bitset::new(payload.global_ids.len());
        for gid in late {
            if let Ok(local) = payload.global_ids.binary_search(&gid) {
                tombstones.set(local as u32);
            }
        }
        next.push_frozen(SegmentView::new(payload, tombstones));
    }
    let bytes_after = next.memory_bytes();
    shared.publish(writer, next);
    (rows_kept, bytes_after)
}

/// Build every pending segment but the newest `keep`, oldest first, each in
/// a run of its own: [`capture_pending`], [`rebuild`] and [`splice`],
/// serialized with the merges. The writer's backpressure (`keep` =
/// [`MAX_PENDING`], after a seal) and [`freeze`](SegmentedAcornIndex::freeze)
/// (`keep` = 0) call it; with no more than `keep` pending it takes no lock.
pub(crate) fn build_pending(shared: &SharedState, keep: usize) {
    let pending = shared.state().frozen.iter().filter(|s| s.is_pending()).count();
    if pending <= keep {
        return;
    }
    let _serialized = shared.maintenance_lock.lock().unwrap_or_else(PoisonError::into_inner);
    // A merge may have built some while this waited for the lock.
    let runs = capture_pending(shared, keep);
    if !runs.is_empty() {
        let rebuilt = rebuild(shared, &runs);
        splice(shared, &runs, rebuilt);
    }
}

/// Pending-build phase 1, **capture**: every pending segment of the
/// published state but the newest `keep`, oldest first, each a run of its
/// own (see [`capture`] for what holding a view's clone detects).
pub(crate) fn capture_pending(shared: &SharedState, keep: usize) -> Vec<Vec<SegmentView>> {
    let state = shared.state();
    let pending: Vec<&SegmentView> = state.frozen.iter().filter(|s| s.is_pending()).collect();
    let built = pending.len().saturating_sub(keep);
    pending[..built].iter().map(|&s| vec![s.clone()]).collect()
}

// The writer moves across threads in the churn tests (behind a `Mutex`);
// a compile error here means a non-`Send`/`Sync` member crept in.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<SegmentedAcornIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::PruneStrategy;
    use crate::snapshot::MetricsSnapshot;
    use acorn_hnsw::{Metric, SearchScratch, SearchStats};
    use acorn_predicate::{AllPass, AttrStore, BitmapFilter, Predicate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_params(m: usize, gamma: usize, seed: u64) -> AcornParams {
        AcornParams {
            m,
            gamma,
            m_beta: m * 2,
            ef_construction: 32,
            metric: Metric::L2,
            seed,
            prune: PruneStrategy::AcornCompress,
            s_min_override: None,
            compressed_levels: 1,
            flatten_hierarchy: false,
        }
    }

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
    }

    fn ids(out: &[GlobalNeighbor]) -> Vec<u64> {
        out.iter().map(|n| n.id).collect()
    }

    #[test]
    fn insert_search_roundtrip_with_stable_ids() {
        let vecs = random_vecs(300, 8, 1);
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 4, 7), AcornVariant::Gamma);
        for (i, v) in vecs.iter().enumerate() {
            assert_eq!(idx.insert(v), i as u64);
        }
        assert_eq!(idx.snapshot().len(), 300);
        assert_eq!(idx.snapshot().num_segments(), 1, "all rows live in the active segment");
        let out = idx.reader().search(&vecs[17], 5, 48).unwrap();
        assert_eq!(out[0].id, 17, "nearest neighbor of a stored row is itself");
        // Freezing moves serving to CSR without changing answers or ids.
        idx.freeze();
        assert_eq!(idx.snapshot().frozen_segments().len(), 1);
        assert!(
            idx.snapshot().frozen_segments()[0].index().csr().is_some(),
            "frozen segments serve CSR"
        );
        let after = idx.reader().search(&vecs[17], 5, 48).unwrap();
        assert_eq!(
            out.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>(),
            after.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn maintenance_survives_injected_merge_panics_and_reports_them() {
        let vecs = random_vecs(200, 8, 9);
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 2, 5), AcornVariant::Gamma);
        for v in &vecs[..100] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[100..] {
            idx.insert(v);
        }
        idx.freeze();
        let reader = idx.reader();

        // Foreground merges propagate the injected panic to the caller...
        idx.inject_merge_panics(1);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| idx.merge())).is_err());

        // ...but the maintenance thread catches it, bumps the gauge, backs
        // off, and keeps running: later cycles still merge successfully.
        idx.inject_merge_panics(2);
        idx.start_maintenance(Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while (reader.maintenance_errors() < 2 || reader.merges_completed() == 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        idx.stop_maintenance();
        assert_eq!(reader.maintenance_errors(), 2, "both injected panics were caught and counted");
        assert!(
            reader.merges_completed() >= 1,
            "the thread recovered after the faults and completed a merge"
        );
        // The index still works: the two frozen segments were compacted.
        assert_eq!(idx.snapshot().len(), 200);
        let out = idx.reader().search(&vecs[17], 5, 48).unwrap();
        assert_eq!(out[0].id, 17);
    }

    #[test]
    fn deleted_rows_never_surface_anywhere() {
        let vecs = random_vecs(400, 8, 2);
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 4, 3), AcornVariant::Gamma);
        for v in &vecs {
            idx.insert(v);
        }
        idx.freeze();
        for v in random_vecs(100, 8, 3) {
            idx.insert(&v);
        }
        // Delete across both the frozen and the active segment.
        for gid in (0..500u64).step_by(3) {
            assert!(idx.delete(gid), "first delete of {gid} must succeed");
            assert!(!idx.delete(gid), "second delete of {gid} must be a no-op");
        }
        assert!(!idx.snapshot().contains(0) && idx.snapshot().contains(1));
        assert_eq!(idx.snapshot().len(), 500 - 167);
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let attrs =
            AttrStore::builder().add_int("parity", (0..500).map(|g| g % 2).collect()).build();
        let even = Predicate::Equals { field: 0, value: 0 };
        for q in random_vecs(10, 8, 4) {
            for n in idx.reader().search(&q, 10, 64).unwrap() {
                assert!(n.id % 3 != 0, "deleted gid {} surfaced from search", n.id);
            }
            for n in snap.hybrid_search(&q, &even, &attrs, 10, 64, &mut scratch).0 {
                assert!(n.id % 3 != 0 && n.id % 2 == 0, "bad gid {}", n.id);
            }
        }
    }

    #[test]
    fn delete_of_unknown_id_is_false() {
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 0), AcornVariant::Gamma);
        assert!(!idx.delete(0));
        idx.insert(&[0.0; 4]);
        assert!(!idx.delete(5));
        assert!(idx.delete(0));
    }

    #[test]
    fn delete_resolves_gid_gaps_left_by_merges() {
        // After a merge drops rows, the surviving gid space has gaps; the
        // range binary search must answer false for a dropped gid and still
        // find its (merged-segment) neighbors.
        let vecs = random_vecs(200, 4, 40);
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 41), AcornVariant::Gamma);
        for v in &vecs[..100] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[100..] {
            idx.insert(v);
        }
        idx.freeze();
        for gid in (0..200u64).step_by(2) {
            idx.delete(gid);
        }
        idx.merge();
        assert_eq!(idx.snapshot().num_segments(), 1);
        assert!(!idx.delete(42), "dropped gid must not resolve after the merge");
        assert!(idx.delete(43), "surviving gid must resolve inside the merged segment");
        assert!(!idx.delete(1000), "gid above every range must not resolve");
    }

    #[test]
    fn merge_drops_dead_rows_and_reclaims_memory() {
        let vecs = random_vecs(600, 8, 5);
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 3, 9), AcornVariant::Gamma);
        for v in &vecs[..300] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[300..] {
            idx.insert(v);
        }
        idx.freeze();
        for gid in 0..600u64 {
            if gid % 2 == 0 {
                idx.delete(gid);
            }
        }
        let before = idx.snapshot().memory_bytes();
        let outcome = idx.merge(); // 50% tombstones > default 0.2 threshold
        assert_eq!(outcome.segments_merged, 2);
        assert_eq!(outcome.rows_dropped, 300);
        assert_eq!(outcome.rows_kept, 300);
        assert_eq!(outcome.bytes_before, before);
        assert!(
            outcome.bytes_after * 10 <= outcome.bytes_before * 9,
            "dropping half the rows must reclaim at least a tenth of the memory: {} -> {}",
            outcome.bytes_before,
            outcome.bytes_after
        );
        assert_eq!(idx.snapshot().frozen_segments().len(), 1);
        assert_eq!(idx.snapshot().deleted_rows(), 0);
        assert_eq!(idx.snapshot().len(), 300);
        assert_eq!(
            idx.snapshot().live_ids(),
            (0..600).filter(|g| g % 2 == 1).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn metrics_show_the_pinned_shape_and_count_every_publish_and_merge() {
        let vecs = random_vecs(120, 4, 8);
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 2), AcornVariant::Gamma);
        let reader = idx.reader();
        assert_eq!(reader.metrics(), MetricsSnapshot::default(), "a new index has done nothing");
        for v in &vecs[..50] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[50..] {
            idx.insert(v);
        }
        assert!(!idx.delete(1_000), "an unknown id publishes nothing");
        for gid in [0, 1, 60] {
            idx.delete(gid);
        }
        let m = reader.metrics();
        // 120 inserts, the freeze's seal and its build, 3 deletes.
        let (publishes, publish_ns, build_ns) = (120 + 2 + 3, m.publish_ns, m.seal_build_ns);
        let want = MetricsSnapshot {
            epoch: publishes,
            segments: 2,
            rows: 120,
            live_rows: 117,
            active_rows: 70,
            largest_segment_rows: 70,
            tombstone_fraction: 3.0 / 120.0,
            publishes,
            publish_ns,
            seal_builds: 1,
            seal_build_ns: build_ns,
            ..Default::default()
        };
        assert_eq!(m, want);
        assert!(publish_ns > 0 && build_ns > 0, "each publish and each build is timed");

        // A seal leaves the active rows pending; the merge builds them with
        // the first segment's.
        idx.freeze();
        let m = reader.metrics();
        assert_eq!((m.pending_segments, m.seal_builds), (0, 2));
        idx.insert(&vecs[0]);
        let (writer, mut next) = idx.shared.begin();
        idx.active.seal_into(&mut next);
        idx.shared.publish(writer, next);
        assert_eq!(reader.metrics().pending_segments, 1);
        assert_eq!(idx.merge().segments_merged, 3);
        let m = reader.metrics();
        assert_eq!((m.segments, m.rows, m.live_rows, m.active_rows), (1, 118, 118, 0));
        assert_eq!((m.pending_segments, m.seal_builds, m.merges_completed), (0, 3, 1));
        assert_eq!((m.publishes, m.maintenance_errors), (publishes + 5, 0));
        assert!(m.merge_ns > 0 && m.publish_ns > publish_ns && m.seal_build_ns > build_ns);
        assert_eq!(m.epoch, m.publishes);
        assert_eq!((reader.merges_completed(), reader.maintenance_errors()), (1, 0));
        let text = m.to_string();
        assert_eq!(text.lines().count(), 19, "one line per field:\n{text}");
        assert!(text.contains("live_rows             118\n"), "{text}");
        assert!(text.contains("pending_segments      0\n"), "{text}");
        assert!(text.contains("seal_builds           3\n"), "{text}");
        assert!(text.contains("seal_build_ms_mean    "), "{text}");
        assert!(text.ends_with("maintenance_errors    0\n"), "{text}");
    }

    #[test]
    fn a_reader_counts_each_querys_routes_and_a_snapshot_counts_none() {
        // Two segments: 600 frozen rows and 60 active ones, at k = efs = 5.
        // The sealed segment traverses the pure search and an always-true
        // predicate (a traversal costs less than scoring 600 rows) and
        // scans the two predicates none of its rows pass; the active one
        // has no graph and scans every query.
        let vecs = random_vecs(660, 8, 21);
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 2, 3), AcornVariant::Gamma);
        for v in &vecs[..600] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[600..] {
            idx.insert(v);
        }
        let attrs = AttrStore::builder()
            .add_int("active", (0..660).map(|g| i64::from(g >= 600)).collect())
            .build();
        let field = attrs.field("active").unwrap();
        let reader = idx.reader();
        let q = &vecs[7];
        reader.search(q, 5, 5).unwrap();
        reader.hybrid_search(q, &Predicate::Between { field, lo: 0, hi: 1 }, &attrs, 5, 5).unwrap();
        reader.hybrid_search(q, &Predicate::Equals { field, value: 7 }, &attrs, 5, 5).unwrap();
        reader.hybrid_search(q, &Predicate::Equals { field, value: 1 }, &attrs, 5, 5).unwrap();
        // Refused queries and a pinned snapshot's doors count nothing.
        assert!(reader.search(&[f32::NAN; 8], 5, 5).is_err());
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        snap.search_with(q, 5, 5, &mut scratch, &mut SearchStats::default()).unwrap();
        snap.try_hybrid_search(
            q,
            &Predicate::Equals { field, value: 7 },
            &attrs,
            5,
            5,
            &mut scratch,
        )
        .unwrap();

        let m = reader.metrics();
        assert_eq!((m.queries, m.segments_scanned, m.segments_traversed), (4, 6, 2));
        assert_eq!(m.scan_share(), 6.0 / 8.0);
        let text = m.to_string();
        assert!(text.contains("queries               4\n"), "{text}");
        assert!(text.contains("scan_share            0.7500\n"), "{text}");
        assert_eq!(MetricsSnapshot::default().scan_share(), 0.0, "no segment routed yet");
    }

    #[test]
    fn merge_without_candidates_is_a_noop() {
        let mut idx =
            SegmentedAcornIndex::new(4, small_params(4, 2, 1), AcornVariant::Gamma).with_policy(
                MergePolicy { min_rows: 0, max_tombstone_fraction: 0.5, ..Default::default() },
            );
        for v in random_vecs(100, 4, 6) {
            idx.insert(&v);
        }
        idx.freeze();
        let outcome = idx.merge();
        assert_eq!(outcome.segments_merged, 0);
        assert_eq!(outcome.bytes_before, outcome.bytes_after);
        assert_eq!(idx.snapshot().frozen_segments().len(), 1);
    }

    #[test]
    fn writes_between_capture_and_splice_survive_the_merge() {
        let vecs = random_vecs(80, 8, 60);
        // Three small frozen segments (gids 0..60, one row already dead)
        // and ten active rows; `racing` also runs the writes that race the
        // merge, `twin` applies the same ops with the merge last.
        let build = || {
            let mut idx = SegmentedAcornIndex::new(8, small_params(8, 2, 61), AcornVariant::Gamma);
            for (i, v) in vecs[..70].iter().enumerate() {
                idx.insert(v);
                if i % 20 == 19 && i < 60 {
                    idx.freeze();
                }
            }
            assert!(idx.delete(7));
            assert_eq!((idx.snapshot().frozen_segments().len(), idx.active_rows()), (3, 10));
            idx
        };
        let late_writes = |idx: &mut SegmentedAcornIndex| {
            assert!(idx.delete(25), "a row inside a captured segment");
            assert!(idx.delete(65), "an active row, dropped by the freeze's build");
            for v in &vecs[70..] {
                idx.insert(v);
            }
            idx.freeze();
            assert!(idx.delete(72), "a row of the segment frozen mid-merge");
        };

        let mut racing = build();
        let (runs, _) = capture(&racing.shared, false);
        assert_eq!(runs.iter().map(Vec::len).collect::<Vec<_>>(), [3], "one run of three");
        let rebuilt = rebuild(&racing.shared, &runs);
        late_writes(&mut racing);
        let (rows_kept, _) = splice(&racing.shared, &runs, rebuilt);
        assert_eq!(rows_kept, 59, "gid 7 was dead at capture; gid 25 was not");

        let snap = racing.snapshot();
        let frozen = snap.frozen_segments();
        assert_eq!(frozen.len(), 2, "the merged segment and the one frozen mid-merge");
        let (merged, fourth) = (&frozen[0], &frozen[1]);
        assert_eq!(merged.local_of(7), None);
        let late = merged.local_of(25).expect("rebuilt before the delete landed");
        assert!(merged.tombstones().get(late), "the late delete is a tombstone of the merge");
        assert_eq!((merged.rows(), merged.deleted_rows()), (59, 1));
        assert_eq!(fourth.global_ids(), (60..80).filter(|&g| g != 65).collect::<Vec<u64>>());
        assert_eq!(fourth.tombstones().to_ids(), [11], "gid 72");
        assert!(
            merged.global_ids().last() < fourth.global_ids().first(),
            "frozen segments stay ascending with disjoint gid ranges"
        );

        let mut twin = build();
        late_writes(&mut twin);
        twin.merge();
        assert_eq!(racing.snapshot().live_ids(), twin.snapshot().live_ids());
        assert_eq!(racing.snapshot().len(), 80 - 4);
        assert_eq!(racing.snapshot().total_rows(), 80 - 2, "gids 7 and 65 were dropped");
        let saved = |idx: &mut SegmentedAcornIndex| {
            idx.compact_all();
            let mut bytes = Vec::new();
            idx.snapshot().save(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(saved(&mut racing), saved(&mut twin));
    }

    #[test]
    fn deletes_during_a_pending_build_survive_the_splice() {
        // A 40-row segment seals pending at its 40th insert, with gid 3
        // already dead. Its build is driven by hand, and writes land between
        // the capture and the splice: deletes of its rows, a delete of an
        // active row, more inserts.
        let vecs = random_vecs(50, 8, 80);
        let policy = MergePolicy { active_max_rows: 40, ..Default::default() };
        let build = || {
            let mut idx = SegmentedAcornIndex::new(8, small_params(8, 2, 81), AcornVariant::Gamma)
                .with_policy(policy.clone());
            for (i, v) in vecs[..45].iter().enumerate() {
                idx.insert(v);
                if i == 10 {
                    assert!(idx.delete(3));
                }
            }
            let snap = idx.snapshot();
            let pending: Vec<bool> =
                snap.frozen_segments().iter().map(|s| s.is_pending()).collect();
            assert_eq!((pending, idx.active_rows()), (vec![true], 5));
            idx
        };
        let late_writes = |idx: &mut SegmentedAcornIndex| {
            assert!(idx.delete(17) && idx.delete(39), "rows of the segment being built");
            assert!(idx.delete(41), "an active row");
            for v in &vecs[45..] {
                idx.insert(v);
            }
        };

        let mut racing = build();
        let runs = capture_pending(&racing.shared, 0);
        assert_eq!(runs.iter().map(Vec::len).collect::<Vec<_>>(), [1], "one pending segment");
        let rebuilt = rebuild(&racing.shared, &runs);
        late_writes(&mut racing);
        let (rows_kept, _) = splice(&racing.shared, &runs, rebuilt);
        assert_eq!(rows_kept, 39, "gid 3 was dead at capture; gids 17 and 39 were not");

        let snap = racing.snapshot();
        let built = &snap.frozen_segments()[0];
        assert!(!built.is_pending() && built.index().csr().is_some());
        assert_eq!(built.global_ids(), (0..40).filter(|&g| g != 3).collect::<Vec<u64>>());
        let late: Vec<u64> =
            built.tombstones().iter_ones().map(|l| built.global_ids()[l as usize]).collect();
        assert_eq!(late, [17, 39], "the late deletes are tombstones of the built segment");
        let active = snap.active_segment().expect("the rows inserted mid-build");
        assert_eq!(active.global_ids(), (40..50).collect::<Vec<u64>>());
        assert_eq!(active.tombstones().to_ids(), [1], "gid 41");
        let m = racing.reader().metrics();
        assert_eq!((m.pending_segments, m.seal_builds, m.merges_completed), (0, 1, 0));

        // The same writes with the build last: the same live rows, and the
        // same answers once both are compacted.
        let mut twin = build();
        late_writes(&mut twin);
        twin.freeze();
        assert_eq!(racing.snapshot().live_ids(), twin.snapshot().live_ids());
        let saved = |idx: &mut SegmentedAcornIndex| {
            idx.compact_all();
            let mut bytes = Vec::new();
            idx.snapshot().save(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(saved(&mut racing), saved(&mut twin));
    }

    #[test]
    fn auto_seals_leave_at_most_two_pending_segments_and_freeze_leaves_none() {
        // No maintenance thread: every graph is built by the writer. A seal
        // every 20 inserts leaves its segment pending; the third pending
        // segment makes the writer build the oldest, so two stay pending.
        let policy = MergePolicy { active_max_rows: 20, ..Default::default() };
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 5), AcornVariant::Gamma)
            .with_policy(policy);
        let reader = idx.reader();
        let vecs = random_vecs(210, 4, 6);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(v);
            let seals = (i + 1) / 20;
            let m = reader.metrics();
            assert_eq!(m.pending_segments, seals.min(2), "after insert {i}");
            assert_eq!(m.seal_builds, seals.saturating_sub(2) as u64, "after insert {i}");
        }
        // The writer built the oldest first: the pending two are the newest.
        let snap = idx.snapshot();
        let pending: Vec<bool> = snap.frozen_segments().iter().map(|s| s.is_pending()).collect();
        assert_eq!(pending, [vec![false; 8], vec![true; 2]].concat());
        assert_eq!(idx.active_rows(), 10);

        // Pending or built, every segment answers exactly what a scan of the
        // live rows would: the graphs at a beam wide enough to be exhaustive.
        let q = vec![0.05; 4];
        let exact = |idx: &SegmentedAcornIndex| idx.reader().search(&q, 10, 210).unwrap();
        let before = exact(&idx);
        idx.freeze();
        let m = reader.metrics();
        assert_eq!((m.pending_segments, m.seal_builds, m.active_rows), (0, 11, 0));
        assert!(idx.snapshot().frozen_segments().iter().all(|s| !s.is_pending()));
        assert_eq!(exact(&idx), before);
        idx.freeze();
        assert_eq!(reader.metrics().seal_builds, 11, "nothing left to build");
    }

    #[test]
    fn compact_all_matches_from_scratch_rebuild_bitwise() {
        let params = small_params(8, 4, 11);
        let vecs = random_vecs(500, 8, 7);
        let mut idx = SegmentedAcornIndex::new(8, params.clone(), AcornVariant::Gamma);
        for v in &vecs[..200] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[200..] {
            idx.insert(v);
        }
        for gid in [3u64, 77, 130, 201, 256, 444, 499] {
            idx.delete(gid);
        }
        let outcome = idx.compact_all();
        assert_eq!(outcome.rows_dropped, 7);
        assert_eq!(idx.snapshot().num_segments(), 1);

        // The from-scratch side: a fresh index bulk-loaded with the
        // survivors in global id order (row i of it is `survivors[i]`).
        let survivors = idx.snapshot().live_ids();
        let mut store = VectorStore::with_capacity(8, survivors.len());
        for &gid in &survivors {
            store.push(&vecs[gid as usize]);
        }
        let mut rebuilt = SegmentedAcornIndex::new(8, params, AcornVariant::Gamma);
        rebuilt.bulk_load(store);

        for q in random_vecs(8, 8, 12) {
            let seg_out = idx.reader().search(&q, 10, 64).unwrap();
            let reb_out = rebuilt.reader().search(&q, 10, 64).unwrap();
            let mapped: Vec<(u64, f32)> =
                reb_out.iter().map(|n| (survivors[n.id as usize], n.dist)).collect();
            let got: Vec<(u64, f32)> = seg_out.iter().map(|n| (n.id, n.dist)).collect();
            assert_eq!(got, mapped, "post-merge search must be bit-identical to a rebuild");
        }
    }

    #[test]
    fn auto_freeze_rolls_the_active_segment() {
        let policy = MergePolicy { active_max_rows: 50, ..Default::default() };
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 2), AcornVariant::Gamma)
            .with_policy(policy);
        for v in random_vecs(120, 4, 8) {
            idx.insert(&v);
        }
        assert_eq!(idx.snapshot().frozen_segments().len(), 2, "two full segments must have rolled");
        assert_eq!(idx.active_rows(), 20);
        assert_eq!(idx.snapshot().len(), 120);
        let out = idx.reader().search(&[0.0; 4], 5, 32).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn snapshots_pin_their_epoch() {
        let vecs = random_vecs(120, 4, 50);
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 51), AcornVariant::Gamma);
        for v in &vecs[..60] {
            idx.insert(v);
        }
        let reader = idx.reader();
        let pinned = reader.snapshot();
        let pinned_epoch = pinned.epoch();
        let baseline = {
            let mut scratch = SearchScratch::new(pinned.max_segment_rows());
            let mut stats = SearchStats::default();
            pinned.search_with(&vecs[3], 5, 32, &mut scratch, &mut stats).unwrap()
        };
        // Mutate heavily: more inserts, deletes, a freeze, and a merge.
        for v in &vecs[60..] {
            idx.insert(v);
        }
        for gid in (0..60u64).step_by(4) {
            idx.delete(gid);
        }
        idx.freeze();
        idx.merge();
        assert!(reader.snapshot().epoch() > pinned_epoch, "mutations must advance the epoch");
        // The pinned snapshot still answers bit-identically to before.
        let mut scratch = SearchScratch::new(pinned.max_segment_rows());
        let mut stats = SearchStats::default();
        let again = pinned.search_with(&vecs[3], 5, 32, &mut scratch, &mut stats).unwrap();
        assert_eq!(
            baseline.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>(),
            again.iter().map(|n| (n.id, n.dist)).collect::<Vec<_>>(),
            "a pinned epoch must be immutable under writer churn"
        );
        assert_eq!(pinned.len(), 60);
        assert!(pinned.contains(0), "delete landed after the pin");
        assert!(!reader.snapshot().contains(0), "the current epoch sees the delete");
    }

    #[test]
    fn hybrid_strategies_agree_across_segments() {
        let n = 500;
        let vecs = random_vecs(n, 8, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let labels: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
        let attrs = AttrStore::builder().add_int("label", labels.clone()).build();
        let field = attrs.field("label").unwrap();

        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 4, 13), AcornVariant::Gamma);
        for v in &vecs[..250] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[250..] {
            idx.insert(v);
        }
        for gid in (0..n as u64).step_by(7) {
            idx.delete(gid);
        }

        // Each label passes ~43 live rows of a 250-row segment, under
        // s_min · rows = 62.5: both segments take the exact scan, so the
        // reference is brute force over the live passing rows.
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        for t in 0..6 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let pred = Predicate::Equals { field, value: t % 5 };
            let (a, sa) = snap.hybrid_search(&q, &pred, &attrs, 10, 48, &mut scratch);
            let pass = |g: u64| g % 7 != 0 && labels[g as usize] == t % 5;
            assert_eq!(ids(&a), brute_force(&vecs, &q, pass, 10), "label {}", t % 5);
            assert!(sa.fallback);
            let passing = (0..n as u64).filter(|&g| pass(g)).count() as u64;
            assert_eq!(sa.ndis, passing, "both segments scanned exactly their passing rows");
        }
    }

    #[test]
    fn hybrid_fallback_routes_per_segment() {
        // A rare label only present in rows the predicate selects: the
        // segment estimate lands below s_min = 1/4 and the exact fallback
        // must kick in, still excluding tombstones.
        let n = 600;
        let vecs = random_vecs(n, 8, 20);
        let values: Vec<i64> = (0..n as i64).map(|i| if i < 8 { 1 } else { 0 }).collect();
        let attrs = AttrStore::builder().add_int("v", values).build();
        let field = attrs.field("v").unwrap();
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 4, 21), AcornVariant::Gamma);
        for v in &vecs {
            idx.insert(v);
        }
        idx.freeze();
        idx.delete(3);
        let mut scratch = SearchScratch::new(idx.snapshot().max_segment_rows());
        let pred = Predicate::Equals { field, value: 1 };
        let (out, stats) =
            idx.snapshot().hybrid_search(&[0.0; 8], &pred, &attrs, 10, 32, &mut scratch);
        assert!(stats.fallback, "selective predicate must trigger the per-segment fallback");
        let mut got = ids(&out);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 4, 5, 6, 7], "gid 3 is tombstoned, the rest must pass");
    }

    /// Time-ordered ingest: `ts = gid`, three frozen segments of 400 rows.
    fn time_ordered(seed: u64) -> (SegmentedAcornIndex, Vec<Vec<f32>>, AttrStore) {
        let vecs = random_vecs(1200, 8, seed);
        // γ = 8 → s_min = 0.125: a 400-row segment scans under 50 passing
        // rows; from 50 up it traverses unless the scan costs less.
        let mut idx = SegmentedAcornIndex::new(8, small_params(8, 8, seed), AcornVariant::Gamma);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(v);
            if i % 400 == 399 {
                idx.freeze();
            }
        }
        assert_eq!(idx.snapshot().num_segments(), 3);
        let attrs = AttrStore::builder().add_int("ts", (0..1200).collect()).build();
        (idx, vecs, attrs)
    }

    fn brute_force(vecs: &[Vec<f32>], q: &[f32], pass: impl Fn(u64) -> bool, k: usize) -> Vec<u64> {
        let mut all: Vec<GlobalNeighbor> = (0..vecs.len() as u64)
            .filter(|&g| pass(g))
            .map(|g| GlobalNeighbor::new(Metric::L2.distance(&vecs[g as usize], q), g))
            .collect();
        all.sort_unstable();
        all.truncate(k);
        ids(&all)
    }

    #[test]
    fn skewed_segments_route_on_their_own_counts() {
        let (idx, vecs, attrs) = time_ordered(40);
        let field = attrs.field("ts").unwrap();
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let q = vec![0.15; 8];

        // "The last 400 rows": all of the newest segment, none of the older
        // two. The per-segment counts say exactly that; a router that looked
        // at the global selectivity (1/3) would treat all three alike. At
        // k = efs = 3 a traversal of 400 passing rows costs less than their
        // scan.
        let pred = Predicate::Between { field, lo: 800, hi: 1199 };
        let (out, stats) = snap.hybrid_search(&q, &pred, &attrs, 3, 3, &mut scratch);
        // The newest segment passes everywhere, so its share of the work is
        // the pure traversal of that segment; the empty segments must add
        // no distance computation at all.
        let newest = &snap.frozen_segments()[2];
        let mut alone = SearchStats::default();
        let traversed =
            newest.index().search_filtered(&q, &AllPass, 3, 3, &mut scratch, &mut alone);
        let traversed: Vec<GlobalNeighbor> =
            traversed.iter().map(|n| GlobalNeighbor::new(n.dist, 800 + u64::from(n.id))).collect();
        assert_eq!(stats.ndis, alone.ndis, "segments with no passing row cost no distances");
        assert_eq!(stats.nhops, alone.nhops);
        assert_eq!(ids(&out), ids(&traversed));

        // The same shape with the middle segment passing some rows: 49 of
        // 400 is under s_min · rows = 50 and 200 costs less to scan than to
        // traverse, so both scan (exactly their passing rows); 300 does not
        // and traverses. The newest segment traverses every time and the
        // oldest stays empty, so `ndis` pins the middle segment's route.
        let middle = &snap.frozen_segments()[1];
        assert_eq!(middle.global_ids()[0], 400);
        for (sparse, scanned) in [(49u64, true), (200, true), (300, false)] {
            let pred = Predicate::Between { field, lo: 800 - sparse as i64, hi: 1199 };
            let (out, stats) = snap.hybrid_search(&q, &pred, &attrs, 3, 3, &mut scratch);
            assert!(stats.fallback, "the empty oldest segment always takes the scan branch");
            assert_eq!(
                stats.ndis == alone.ndis + sparse,
                scanned,
                "{sparse} passing rows: ndis {} vs newest-alone {}",
                stats.ndis,
                alone.ndis
            );
            // The middle segment's list beside the newest's: its exact
            // top-3 when it scans, else its graph's over the interpreter's
            // bitmap of its rows.
            let mut want = traversed.clone();
            if scanned {
                let in_middle = |g: u64| (800 - sparse..800).contains(&g);
                want.extend(
                    brute_force(&vecs, &q, in_middle, 3).into_iter().map(|g| {
                        GlobalNeighbor::new(Metric::L2.distance(&vecs[g as usize], &q), g)
                    }),
                );
            } else {
                let gids = middle.global_ids();
                let passing =
                    (0..gids.len() as u32).filter(|&l| pred.eval(&attrs, gids[l as usize] as u32));
                let filter = BitmapFilter::new(Bitset::from_ids(gids.len(), passing));
                let mut st = SearchStats::default();
                let out = middle.index().search_filtered(&q, &filter, 3, 3, &mut scratch, &mut st);
                want.extend(out.iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])));
            }
            want.sort_unstable();
            want.truncate(3);
            assert_eq!(ids(&out), ids(&want), "{sparse} passing rows");
        }
    }

    #[test]
    fn constant_true_hybrid_is_the_pure_search() {
        let (mut idx, _, attrs) = time_ordered(41);
        for gid in (0..1200).step_by(5) {
            idx.delete(gid);
        }
        let snap = idx.snapshot();
        let mut scratch = SearchScratch::new(snap.max_segment_rows());
        let q = vec![-0.3; 8];
        let mut pure_stats = SearchStats::default();
        let pure = snap.search_with(&q, 10, 48, &mut scratch, &mut pure_stats).unwrap();
        let (out, stats) = snap.hybrid_search(&q, &Predicate::True, &attrs, 10, 48, &mut scratch);
        assert_eq!(
            out.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>(),
            pure.iter().map(|n| (n.id, n.dist.to_bits())).collect::<Vec<_>>()
        );
        assert_eq!(stats, pure_stats, "no bitmap: the pure search's work");
        assert!(out.iter().all(|n| n.id % 5 != 0), "tombstones still apply");

        let (none, stats) =
            snap.hybrid_search(&q, &Predicate::const_false(), &attrs, 10, 48, &mut scratch);
        assert!(none.is_empty());
        assert_eq!(stats, SearchStats::default(), "constant false touches no segment");
    }

    #[test]
    fn results_merge_across_many_segments() {
        let vecs = random_vecs(300, 4, 30);
        let mut idx = SegmentedAcornIndex::new(4, small_params(4, 2, 31), AcornVariant::Gamma);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(v);
            if i % 60 == 59 {
                idx.freeze();
            }
        }
        assert!(idx.snapshot().num_segments() >= 5);
        // Brute-force oracle over all live rows.
        let q = vec![0.1; 4];
        let mut all: Vec<GlobalNeighbor> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| GlobalNeighbor::new(Metric::L2.distance(v, &q), i as u64))
            .collect();
        all.sort_unstable();
        let got = idx.reader().search(&q, 10, 120).unwrap();
        // With a generous beam, every segment's true top-10 is found, so the
        // merged list equals the global top-10.
        assert_eq!(ids(&got), all[..10].iter().map(|n| n.id).collect::<Vec<_>>());
    }

    #[test]
    fn wrong_dimension_queries_panic_on_frozen_and_active_segments() {
        // A 32-d index whose one segment is frozen, and one whose one
        // segment is active. A query of the wrong length is refused at the
        // snapshot boundary, before any segment is touched: the hybrid
        // search panics with its typed error's message, and the pure search
        // returns that error.
        let vecs = random_vecs(200, 32, 70);
        let new = || SegmentedAcornIndex::new(32, small_params(8, 2, 71), AcornVariant::Gamma);
        let mut frozen = new();
        let mut active = new();
        for v in &vecs {
            frozen.insert(v);
            active.insert(v);
        }
        frozen.freeze();
        assert_eq!(frozen.snapshot().frozen_segments().len(), 1);
        assert_eq!(active.active_rows(), 200);
        let attrs = AttrStore::builder().add_int("x", vec![0; 200]).build();
        let panic_message = |ask: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(ask))
                .expect_err("a wrong-dimension query");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        for idx in [&frozen, &active] {
            let snap = idx.snapshot();
            let mut scratch = SearchScratch::new(snap.max_segment_rows());
            for dim in [3, 40] {
                let query = vec![0.0; dim];
                let msg = panic_message(&mut || {
                    snap.hybrid_search(&query, &Predicate::True, &attrs, 5, 32, &mut scratch);
                });
                let refused = crate::QueryError::Dimension { expected: 32, got: dim };
                assert_eq!(msg, refused.to_string(), "a {dim}-d hybrid query");
                let mut stats = SearchStats::default();
                let got = snap.search_with(&query, 5, 32, &mut scratch, &mut stats);
                assert_eq!(got, Err(refused), "a {dim}-d pure query");
                assert_eq!(stats, SearchStats::default(), "nothing was searched");
            }
        }
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = SegmentedAcornIndex::new(8, small_params(8, 2, 0), AcornVariant::Gamma);
        assert!(idx.snapshot().is_empty());
        assert_eq!(idx.snapshot().num_segments(), 0);
        assert!(idx.reader().search(&[0.0; 8], 5, 32).unwrap().is_empty());
        let mut scratch = SearchScratch::new(0);
        let attrs = AttrStore::builder().add_int("x", vec![]).build();
        let (out, _) =
            idx.snapshot().hybrid_search(&[0.0; 8], &Predicate::True, &attrs, 5, 32, &mut scratch);
        assert!(out.is_empty());
    }
}
