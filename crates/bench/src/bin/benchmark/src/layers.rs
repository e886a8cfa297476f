//! The adapter: **every call into the engine is in this file**, one thin
//! function per bound signature, grouped by the layer (crate module) it
//! lands in. README.md lists the signatures. A change to one of them needs
//! either a compatible wrapper on the engine side or a benchmark-only
//! change here first — nothing else in this package names an engine
//! function.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use acorn_core::{
    AcornIndex, AcornParams, AcornVariant, DurabilityOptions, FsyncPolicy, SegmentedQueryEngine,
    MATERIALIZE_BELOW_SELECTIVITY,
};
use acorn_hnsw::heap::merge_k_sorted;
use acorn_hnsw::{kernels, Metric, Neighbor, Sq8Store};
use acorn_predicate::{
    estimate_selectivity_seeding_mapped, CostClass, MemoFilter, MemoTable, NodeFilter,
};

pub use acorn_core::{
    DurableIndex, GlobalNeighbor, IndexReader, MergePolicy, SegmentSnapshot, SegmentView,
    SegmentedAcornIndex,
};
pub use acorn_hnsw::{SearchScratch, SearchStats, VectorStore};
pub use acorn_predicate::{AttrStore, Bitset, CompiledPredicate, Predicate};

use crate::measure::K;

/// Rows the router's selectivity estimator samples per query × segment
/// (`acorn_core::index::SELECTIVITY_SAMPLES`, which is crate-private).
const ESTIMATOR_SAMPLES: usize = 1_000;

/// Index parameters of every workload (README.md, "Fixed conditions").
pub fn params() -> AcornParams {
    AcornParams {
        m: 16,
        gamma: 8,
        m_beta: 32,
        ef_construction: 64,
        metric: Metric::L2,
        seed: 42,
        ..AcornParams::default()
    }
}

// ---- segment: the writer -------------------------------------------------

/// `SegmentedAcornIndex::new(..).with_policy(..)`.
pub fn new_index(dim: usize, policy: MergePolicy) -> SegmentedAcornIndex {
    SegmentedAcornIndex::new(dim, params(), AcornVariant::Gamma).with_policy(policy)
}

/// `SegmentedAcornIndex::bulk_load`.
pub fn bulk_load(index: &mut SegmentedAcornIndex, chunk: VectorStore) {
    index.bulk_load(chunk);
}

/// `SegmentedAcornIndex::merge`; returns segments merged away (0 = idle).
pub fn merge(index: &SegmentedAcornIndex) -> usize {
    index.merge().segments_merged
}

/// `SegmentedAcornIndex::insert`.
pub fn insert(index: &mut SegmentedAcornIndex, v: &[f32]) -> u64 {
    index.insert(v)
}

/// `SegmentedAcornIndex::delete`.
pub fn delete(index: &mut SegmentedAcornIndex, gid: u64) -> bool {
    index.delete(gid)
}

/// `SegmentedAcornIndex::freeze`.
pub fn freeze(index: &mut SegmentedAcornIndex) {
    index.freeze();
}

/// `SegmentedAcornIndex::active_rows`.
pub fn active_rows(index: &SegmentedAcornIndex) -> usize {
    index.active_rows()
}

/// `SegmentedAcornIndex::start_maintenance`.
pub fn start_maintenance(index: &mut SegmentedAcornIndex, interval: Duration) {
    index.start_maintenance(interval);
}

/// `SegmentedAcornIndex::stop_maintenance`.
pub fn stop_maintenance(index: &mut SegmentedAcornIndex) {
    index.stop_maintenance();
}

/// `SegmentedAcornIndex::reader`.
pub fn reader(index: &SegmentedAcornIndex) -> IndexReader {
    index.reader()
}

// ---- snapshot: the read side ---------------------------------------------

/// `IndexReader::snapshot`.
pub fn pin(reader: &IndexReader) -> Arc<SegmentSnapshot> {
    reader.snapshot()
}

/// `IndexReader::merges_completed`, `IndexReader::maintenance_errors`.
pub fn maintenance_counters(reader: &IndexReader) -> (u64, u64) {
    (reader.merges_completed(), reader.maintenance_errors())
}

/// `SegmentSnapshot::hybrid_search`: the call every read of every workload
/// makes.
pub fn hybrid_search(
    snap: &SegmentSnapshot,
    query: &[f32],
    predicate: &Predicate,
    attrs: &AttrStore,
    efs: usize,
    scratch: &mut SearchScratch,
) -> (Vec<GlobalNeighbor>, SearchStats) {
    snap.hybrid_search(query, predicate, attrs, K, efs, scratch)
}

/// A scratch big enough for any segment of `snap`.
pub fn scratch_for(snap: &SegmentSnapshot) -> SearchScratch {
    SearchScratch::new(snap.max_segment_rows())
}

/// Every segment of a snapshot: `frozen_segments()` then `active_segment()`.
pub fn segments(snap: &SegmentSnapshot) -> impl Iterator<Item = &SegmentView> {
    snap.frozen_segments().iter().chain(snap.active_segment())
}

/// `SegmentSnapshot::contains`.
pub fn is_live(snap: &SegmentSnapshot, gid: u64) -> bool {
    snap.contains(gid)
}

/// `SegmentSnapshot::live_ids`.
pub fn live_ids(snap: &SegmentSnapshot) -> Vec<u64> {
    snap.live_ids()
}

/// `(memory_bytes, live rows, total rows, segments)` of a snapshot.
pub fn shape(snap: &SegmentSnapshot) -> (usize, usize, usize, usize) {
    (snap.memory_bytes(), snap.len(), snap.total_rows(), snap.num_segments())
}

// ---- predicate -------------------------------------------------------------

/// `CompiledPredicate::compile`.
pub fn compile(predicate: &Predicate) -> CompiledPredicate {
    CompiledPredicate::compile(predicate)
}

/// `estimate_selectivity_seeding_mapped` over one segment's rows, exactly
/// as the router calls it (1,000 samples, the index seed, the segment's
/// local → global map, verdicts seeded into `memo`).
pub fn estimate(
    attrs: &AttrStore,
    compiled: &CompiledPredicate,
    seg: &SegmentView,
    memo: &MemoTable,
) -> f64 {
    let gids = seg.global_ids();
    estimate_selectivity_seeding_mapped(
        attrs,
        compiled,
        ESTIMATOR_SAMPLES,
        params().seed,
        memo,
        seg.rows(),
        |p| gids[p as usize] as u32,
    )
}

/// `CompiledPredicate::to_bitset` over the whole attribute store.
pub fn materialize(compiled: &CompiledPredicate, attrs: &AttrStore) -> Bitset {
    compiled.to_bitset(attrs)
}

/// `CompiledPredicate::eval` on one row.
pub fn eval(compiled: &CompiledPredicate, attrs: &AttrStore, row: u32) -> bool {
    compiled.eval(attrs, row)
}

/// `Predicate::eval` on one row (the verifier's independent check).
pub fn eval_interpreted(predicate: &Predicate, attrs: &AttrStore, row: u32) -> bool {
    predicate.eval(attrs, row)
}

/// Whether the router materializes this predicate whatever its selectivity
/// (`cost_class() == CostClass::Expensive`: regex).
pub fn is_expensive(compiled: &CompiledPredicate) -> bool {
    compiled.cost_class() == CostClass::Expensive
}

/// `acorn_core::MATERIALIZE_BELOW_SELECTIVITY`.
pub fn materialize_below() -> f64 {
    MATERIALIZE_BELOW_SELECTIVITY
}

// ---- core: one segment's graph --------------------------------------------

/// `AcornParams::s_min` of a segment's index.
pub fn s_min(seg: &SegmentView) -> f64 {
    seg.index().params().s_min()
}

/// A segment-local filter: not tombstoned, and the inner verdict on the
/// row. The engine's own filters of this shape are private to `acorn-core`.
struct Live<'a, F> {
    inner: &'a F,
    tombstones: &'a Bitset,
}

impl<F: NodeFilter> NodeFilter for Live<'_, F> {
    fn passes(&self, id: u32) -> bool {
        !self.tombstones.get(id) && self.inner.passes(id)
    }
}

/// Bit test on a bitmap over global ids, through the segment's id map.
struct GlobalBits<'a> {
    bits: &'a Bitset,
    global_ids: &'a [u64],
}

impl NodeFilter for GlobalBits<'_> {
    fn passes(&self, id: u32) -> bool {
        self.bits.get(self.global_ids[id as usize] as u32)
    }
}

/// Compiled predicate evaluated at a row's global id.
struct GlobalCompiled<'a> {
    attrs: &'a AttrStore,
    compiled: &'a CompiledPredicate,
    global_ids: &'a [u64],
}

impl NodeFilter for GlobalCompiled<'_> {
    fn passes(&self, id: u32) -> bool {
        self.compiled.eval(self.attrs, self.global_ids[id as usize] as u32)
    }
}

fn to_global(seg: &SegmentView, out: Vec<Neighbor>) -> Vec<GlobalNeighbor> {
    let gids = seg.global_ids();
    out.into_iter().map(|n| GlobalNeighbor::new(n.dist, gids[n.id as usize])).collect()
}

/// `AcornIndex::prefilter_scan` on one segment against a global bitmap.
pub fn prefilter(
    seg: &SegmentView,
    query: &[f32],
    bits: &Bitset,
    stats: &mut SearchStats,
) -> Vec<GlobalNeighbor> {
    let inner = GlobalBits { bits, global_ids: seg.global_ids() };
    let filter = Live { inner: &inner, tombstones: seg.tombstones() };
    to_global(seg, seg.index().prefilter_scan(query, &filter, K, stats))
}

/// `AcornIndex::search_filtered` on one segment against a global bitmap.
pub fn traverse_bits(
    seg: &SegmentView,
    query: &[f32],
    bits: &Bitset,
    efs: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<GlobalNeighbor> {
    let inner = GlobalBits { bits, global_ids: seg.global_ids() };
    let filter = Live { inner: &inner, tombstones: seg.tombstones() };
    to_global(seg, seg.index().search_filtered(query, &filter, K, efs, scratch, stats))
}

/// `AcornIndex::search_filtered` on one segment with the compiled predicate
/// evaluated lazily behind a `MemoFilter` that owns `memo` (pre-seeded by
/// [`estimate`]); hands the memo back.
#[allow(clippy::too_many_arguments)]
pub fn traverse_lazy(
    seg: &SegmentView,
    query: &[f32],
    attrs: &AttrStore,
    compiled: &CompiledPredicate,
    memo: MemoTable,
    efs: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> (Vec<GlobalNeighbor>, MemoTable) {
    let inner = GlobalCompiled { attrs, compiled, global_ids: seg.global_ids() };
    let memoized = MemoFilter::new(&inner, memo);
    let filter = Live { inner: &memoized, tombstones: seg.tombstones() };
    let out = seg.index().search_filtered(query, &filter, K, efs, scratch, stats);
    stats.npred_cached += memoized.hits();
    (to_global(seg, out), memoized.into_memo())
}

/// `AcornIndex::build` over one chunk (what `bulk_load` does per segment,
/// before CSR compaction).
pub fn build_graph(chunk: VectorStore) -> AcornIndex {
    AcornIndex::build(Arc::new(chunk), params(), AcornVariant::Gamma)
}

/// An empty single-segment graph to time `AcornIndex::insert_vector` on.
pub fn empty_graph(dim: usize) -> AcornIndex {
    AcornIndex::new(Arc::new(VectorStore::new(dim)), params(), AcornVariant::Gamma)
}

/// `AcornIndex::insert_vector`: the graph insert alone, no publication.
pub fn graph_insert(graph: &mut AcornIndex, v: &[f32]) {
    graph.insert_vector(v);
}

// ---- hnsw: kernels and the k-way merge --------------------------------------

/// `heap::merge_k_sorted` over per-segment result lists.
pub fn merge_k(lists: &[Vec<GlobalNeighbor>]) -> Vec<GlobalNeighbor> {
    merge_k_sorted(lists, K)
}

/// `VectorStore::distances_batch` under L2.
pub fn l2_batch(store: &VectorStore, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
    store.distances_batch(Metric::L2, query, ids, out);
}

/// `Sq8Store::train`.
pub fn sq8_train(store: &VectorStore) -> Sq8Store {
    Sq8Store::train(store)
}

/// `kernels::sq8_l2_sq` on one row's codes.
pub fn sq8_l2(sq8: &Sq8Store, row: u32, query: &[f32]) -> f32 {
    kernels::sq8_l2_sq(sq8.codes_of(row), sq8.mins(), sq8.steps(), query)
}

/// `kernels::kernel_path().name()`: which distance kernels this process
/// dispatches to.
pub fn kernel_path() -> &'static str {
    kernels::kernel_path().name()
}

// ---- engine: batch serving ---------------------------------------------------

/// `SegmentedQueryEngine::hybrid_search_batch` on `threads` threads;
/// returns the engine's own QPS figure.
pub fn batch_qps(
    reader: &IndexReader,
    queries: &[(&[f32], &Predicate)],
    attrs: &AttrStore,
    efs: usize,
    threads: usize,
) -> f64 {
    SegmentedQueryEngine::for_reader(reader.clone())
        .with_threads(threads)
        .hybrid_search_batch(queries, attrs, K, efs)
        .qps
}

// ---- serialize -------------------------------------------------------------------

/// `SegmentSnapshot::save` into memory.
pub fn save(snap: &SegmentSnapshot) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    snap.save(&mut buf)?;
    Ok(buf)
}

/// `SegmentedAcornIndex::load` from memory.
pub fn load(mut bytes: &[u8]) -> io::Result<SegmentedAcornIndex> {
    SegmentedAcornIndex::load(&mut bytes)
}

// ---- durability ------------------------------------------------------------------

/// Whether every logged op is fsynced before it is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fsync {
    /// `FsyncPolicy::Always`.
    Always,
    /// `FsyncPolicy::Never`.
    Never,
}

fn durability_options(fsync: Fsync) -> DurabilityOptions {
    DurabilityOptions {
        fsync: match fsync {
            Fsync::Always => FsyncPolicy::Always,
            Fsync::Never => FsyncPolicy::Never,
        },
        // Checkpoints happen only where the workload calls for one.
        wal_max_bytes: 0,
        ..DurabilityOptions::default()
    }
}

/// `DurableIndex::create`.
pub fn durable_create(
    dir: &Path,
    index: SegmentedAcornIndex,
    fsync: Fsync,
) -> io::Result<DurableIndex> {
    DurableIndex::create(dir, index, durability_options(fsync))
}

/// `DurableIndex::open` (recovery: load the committed snapshot, replay the
/// WAL).
pub fn durable_open(dir: &Path, fsync: Fsync) -> io::Result<DurableIndex> {
    DurableIndex::open(dir, durability_options(fsync))
}

/// `DurableIndex::insert`.
pub fn durable_insert(store: &mut DurableIndex, v: &[f32]) -> io::Result<u64> {
    store.insert(v)
}

/// `DurableIndex::delete`.
pub fn durable_delete(store: &mut DurableIndex, gid: u64) -> io::Result<bool> {
    store.delete(gid)
}

/// `DurableIndex::checkpoint`.
pub fn checkpoint(store: &mut DurableIndex) -> io::Result<()> {
    store.checkpoint()
}

/// `(wal_bytes, recovered_ops)` of a handle.
pub fn durable_counters(store: &DurableIndex) -> (u64, u64) {
    (store.wal_bytes(), store.recovered_ops())
}

/// `DurableIndex::index().snapshot()`.
pub fn durable_snapshot(store: &DurableIndex) -> Arc<SegmentSnapshot> {
    store.index().snapshot()
}
