//! The method table and the per-run build cache.
//!
//! A [`Method`] is one row of the paper's comparison: how its index is built
//! over a dataset ([`Cache::index`]) and how it answers one query at one
//! value of its quality knob (`BenchCtx::sweep`). A [`Cache`] hands out
//! datasets, workloads with their exact ground truth, and built indices,
//! each keyed by everything that determines it, so a run of several
//! experiments builds every distinct index once and every method is measured
//! by the same driver, ground truth and recall definition.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acorn_baselines::nhq::NhqParams;
use acorn_baselines::stitched_vamana::StitchedParams;
use acorn_baselines::vamana::VamanaParams;
use acorn_baselines::{
    FilteredVamana, IvfFlat, IvfSq8, NhqIndex, OraclePartitionIndex, PostFilterHnsw, PreFilter,
    StitchedVamana,
};
use acorn_core::{
    AcornIndex, AcornParams, AcornVariant, PruneStrategy, SegmentSnapshot, SegmentedAcornIndex,
};
use acorn_data::captions::KEYWORDS;
use acorn_data::datasets::{laion_like, paper_like, sift_like, tripclick_like};
use acorn_data::workloads::{
    area_workload, date_range_workload, equality_workload, keyword_workload, regex_workload,
    Correlation,
};
use acorn_data::{correlated_dataset, ground_truth, CorrelatedSpec, HybridDataset, Workload};
use acorn_eval::sweep::{sweep, SweepPoint};
use acorn_hnsw::graph::LevelStats;
use acorn_hnsw::{HnswParams, Metric, Neighbor, SearchStats, VectorStore};
use acorn_predicate::{Predicate, PredicateFilter};

use crate::{bench_threads, env_or};

/// The stand-in dataset generators of `acorn_data::datasets`, and the
/// scalable corpus of `acorn_data::scale`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// `sift_like`: LCPS, integer label.
    Sift,
    /// `paper_like`: LCPS, integer label.
    Paper,
    /// `tripclick_like`: HCPS, area list and publication date.
    TripClick,
    /// `laion_like`: HCPS, captions and keyword list.
    Laion,
    /// `correlated_dataset` at 32-d: label, keyword list and a `year` over
    /// 0..=9,999, each cluster-correlated.
    Correlated,
}

/// One generated dataset: generator, size and seed determine it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Data {
    /// The generator.
    pub gen: Gen,
    /// Number of rows.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

/// The query-workload generators of `acorn_data::workloads`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Queries {
    /// `equality_workload` (LCPS datasets).
    Equality,
    /// `area_workload` (TripClick-like).
    Area,
    /// `date_range_workload` at a target selectivity (TripClick-like).
    DateRange(f64),
    /// `regex_workload` (LAION-like).
    Regex,
    /// `keyword_workload` in a correlation regime (LAION-like).
    Keyword(Correlation),
}

impl Queries {
    /// Generate `nq` queries over `ds`.
    pub(crate) fn generate(self, ds: &HybridDataset, nq: usize, seed: u64) -> Workload {
        match self {
            Queries::Equality => equality_workload(ds, nq, seed),
            Queries::Area => area_workload(ds, nq, seed),
            Queries::DateRange(s) => date_range_workload(ds, s, nq, seed),
            Queries::Regex => regex_workload(ds, nq, seed),
            Queries::Keyword(c) => keyword_workload(ds, c, nq, seed),
        }
    }
}

/// A benchmarked method. Every parameter that is not a field is the paper's
/// (§7.2): HNSW `M = 32, efc = 40`, FilteredVamana `R = 32, L = 64`,
/// StitchedVamana `R_small = 16, L_small = 48, R_stitched = 32`, NHQ
/// `M = 32, efc = 64` with the fusion weight at twice the dataset's distance
/// scale, IVF with 64 lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// ACORN the way the engine serves a static corpus ([`acorn_segment`]),
    /// queried through the planner with its §5.2 pre-filter fallback.
    Acorn(AcornVariant, AcornParams),
    /// A bare ACORN graph, sealed once its `GraphFacts` are read and
    /// searched without the fallback: the ablations that isolate the graph,
    /// and the size / degree / TTI tables.
    AcornGraph(AcornVariant, AcornParams),
    /// HNSW, searched by post-filtering (`K/s` over-search with each query's
    /// exact selectivity, favoring the baseline).
    Hnsw,
    /// Exact scan of the passing rows; no quality knob.
    PreFilter,
    /// One HNSW per label (requires `Equals` predicates, like the next three).
    Oracle,
    /// FilteredVamana (knob = search beam `L`).
    FilteredVamana,
    /// StitchedVamana (knob = search beam `L`).
    StitchedVamana,
    /// NHQ fusion search.
    Nhq,
    /// IVF-Flat (knob = `nprobe`).
    IvfFlat,
    /// IVF-SQ8 over [`Method::IvfFlat`]'s lists (knob = `nprobe`).
    IvfSq8,
}

impl Method {
    /// ACORN-γ through the planner at the paper's `M = 32, γ = 12, efc = 40`.
    pub(crate) fn acorn_gamma(m_beta: usize) -> Self {
        Method::Acorn(AcornVariant::Gamma, AcornParams { m_beta, ..Default::default() })
    }

    /// ACORN-1 through the planner (it ignores `M_β`, §5.3).
    pub(crate) fn acorn_one() -> Self {
        Method::Acorn(AcornVariant::One, AcornParams::default())
    }

    /// The values of the quality knob a curve sweeps: `efs` unless the
    /// method has its own knob or none.
    pub(crate) fn knob_values(&self, efs: &[usize]) -> Vec<usize> {
        match self {
            Method::PreFilter => vec![0],
            Method::IvfFlat | Method::IvfSq8 => vec![1, 2, 4, 8, 16, 32],
            _ => efs.to_vec(),
        }
    }
}

/// What the size and degree tables read off a bare ACORN graph before it is
/// sealed (the sealed index keeps `edges_pruned` and its CSR bytes).
#[derive(Debug, Clone)]
pub(crate) struct GraphFacts {
    /// Bytes of the nested build-time layout.
    pub nested_bytes: usize,
    /// Per-level node counts and out-degrees (the graph's height is `len`).
    pub levels: Vec<LevelStats>,
}

/// A built index.
pub(crate) enum Index {
    /// [`Method::Acorn`].
    Segment(Arc<SegmentSnapshot>),
    /// [`Method::AcornGraph`], sealed.
    Graph(AcornIndex, GraphFacts),
    /// [`Method::Hnsw`].
    Hnsw(PostFilterHnsw),
    /// [`Method::PreFilter`].
    PreFilter(PreFilter),
    /// [`Method::Oracle`].
    Oracle(OraclePartitionIndex),
    /// [`Method::FilteredVamana`].
    FilteredVamana(FilteredVamana),
    /// [`Method::StitchedVamana`].
    StitchedVamana(StitchedVamana),
    /// [`Method::Nhq`].
    Nhq(NhqIndex),
    /// [`Method::IvfFlat`].
    IvfFlat(IvfFlat),
    /// [`Method::IvfSq8`].
    IvfSq8(IvfSq8),
}

/// A built index with its single-threaded build time (Table 4, Figure 12a).
pub struct Build {
    pub(crate) index: Index,
    /// Wall time of the build, taken when the cache built it.
    pub(crate) tti: Duration,
}

/// Extract the label of an `Equals` predicate (the LCPS benchmarks' key).
///
/// # Panics
/// Panics on any other predicate shape.
pub(crate) fn equals_label(p: &Predicate) -> i64 {
    match p {
        Predicate::Equals { value, .. } => *value,
        other => panic!("expected an Equals predicate, got {other:?}"),
    }
}

/// Mean pairwise distance on a small sample: the NHQ fusion weight scale.
fn distance_scale(ds: &HybridDataset) -> f32 {
    let step = (ds.len() as u32 / 64).max(1);
    let dists: Vec<f64> = (step..ds.len() as u32)
        .step_by(step as usize)
        .map(|i| Metric::L2.distance(ds.vectors.get(i - step), ds.vectors.get(i)) as f64)
        .collect();
    (dists.iter().sum::<f64>() / dists.len().max(1) as f64) as f32
}

/// Rows per bulk-loaded segment: a corpus larger than this is served as
/// several sealed segments, the way a 1M-row index is loaded in chunks.
pub(crate) const SEGMENT_ROWS: usize = 100_000;

/// ACORN (γ or 1) the way the engine serves a static corpus: `vectors`
/// bulk-loaded in `SEGMENT_ROWS`-row chunks, one sealed segment each (one
/// segment for every corpus of at most that size), so global id == row id
/// and queries traverse the CSR layout through the planner.
pub fn acorn_segment(
    vectors: &VectorStore,
    params: AcornParams,
    variant: AcornVariant,
) -> Arc<SegmentSnapshot> {
    let mut index = SegmentedAcornIndex::new(vectors.dim(), params, variant);
    for rows in vectors.as_flat().chunks(SEGMENT_ROWS * vectors.dim()) {
        index.bulk_load(VectorStore::from_flat(vectors.dim(), rows.to_vec()));
    }
    index.snapshot()
}

/// [`Gen::Correlated`]: a 10,000-value `year` span, so a year range hits its
/// target selectivity without ties, and the vocabulary `keyword_workload`
/// draws its correlated keywords from.
fn correlated(n: usize, seed: u64) -> HybridDataset {
    correlated_dataset(&CorrelatedSpec {
        n,
        dim: 32,
        year_lo: 0,
        year_hi: 9_999,
        vocab: KEYWORDS.len(),
        seed,
        ..Default::default()
    })
}

/// Build `method` over `ds` and time its constructor, nothing after it
/// ([`Method::IvfSq8`] is derived by the cache).
fn build(method: &Method, ds: &HybridDataset) -> (Index, Duration) {
    let vecs = ds.vectors.clone();
    let t0 = Instant::now();
    // The `label` column of an LCPS dataset.
    let lcps = || -> Vec<i64> {
        let field = ds.attrs.field("label").expect("a label-partitioned method needs labels");
        (0..ds.len() as u32).map(|i| ds.attrs.int(field, i)).collect()
    };
    let index = match method {
        Method::Acorn(variant, params) => {
            Index::Segment(acorn_segment(&vecs, params.clone(), *variant))
        }
        Method::AcornGraph(variant, params) => {
            let index = if params.prune == PruneStrategy::RngMetadataAware {
                AcornIndex::build_with_labels(vecs, params.clone(), *variant, lcps())
            } else {
                AcornIndex::build(vecs, params.clone(), *variant)
            };
            // The clock stops at the constructor, as it does for HNSW and the
            // Vamana variants: reading the facts and sealing are not TTI.
            let tti = t0.elapsed();
            let graph = index.graph().expect("a built index is growing");
            let facts =
                GraphFacts { nested_bytes: graph.memory_bytes(), levels: graph.level_stats() };
            // Swept in the layout a frozen segment serves: sealed CSR.
            return (Index::Graph(index.seal(None), facts), tti);
        }
        Method::Hnsw => Index::Hnsw(PostFilterHnsw::build(vecs, HnswParams::default())),
        Method::PreFilter => Index::PreFilter(PreFilter::new(vecs, Metric::L2)),
        Method::Oracle => Index::Oracle(OraclePartitionIndex::build_from_labels(
            &vecs,
            &lcps(),
            HnswParams::default(),
        )),
        Method::FilteredVamana => Index::FilteredVamana(FilteredVamana::build(
            vecs,
            lcps(),
            VamanaParams { r: 32, l: 64, alpha: 1.2, ..Default::default() },
        )),
        Method::StitchedVamana => Index::StitchedVamana(StitchedVamana::build(
            vecs,
            lcps(),
            StitchedParams { r_small: 16, l_small: 48, r_stitched: 32, ..Default::default() },
        )),
        Method::Nhq => {
            let weight = distance_scale(ds) * 2.0;
            let params = NhqParams { m: 32, ef_construction: 64, weight, ..Default::default() };
            Index::Nhq(NhqIndex::build(vecs, lcps(), params))
        }
        Method::IvfFlat => Index::IvfFlat(IvfFlat::build(vecs, Metric::L2, 64, 8, 7)),
        Method::IvfSq8 => unreachable!("derived from the cached IVF-Flat"),
    };
    (index, t0.elapsed())
}

/// Recall target size: every experiment reports recall@10.
const K: usize = 10;

/// A prepared workload: dataset + queries + exact top-[`K`] ground truth.
pub(crate) struct BenchCtx {
    /// Which dataset `ds` is (the key its indices are cached under).
    pub data: Data,
    /// The hybrid dataset.
    pub ds: Arc<HybridDataset>,
    /// The query workload.
    pub workload: Workload,
    /// Exact top-`K` passing ids per query.
    pub truth: Vec<Vec<u32>>,
}

impl BenchCtx {
    /// Sweep `index` over this workload: each value of the method's quality
    /// knob becomes a [`SweepPoint`] (recall against [`truth`](Self::truth),
    /// QPS over `ACORN_BENCH_REPEATS` executions per query (default 5, which
    /// keeps wall time well above thread start-up) on
    /// [`bench_threads`](crate::bench_threads) workers).
    pub(crate) fn sweep(&self, index: &Index, knob: &[usize]) -> Vec<SweepPoint> {
        let (threads, repeats) = (bench_threads(), env_or("ACORN_BENCH_REPEATS", 5));
        let (attrs, k) = (&self.ds.attrs, K);
        sweep(knob, &self.truth, k, threads, repeats, |i, param, scratch| {
            let q = &self.workload.queries[i];
            let filter = PredicateFilter::new(attrs, &q.predicate);
            let label = || equals_label(&q.predicate);
            let mut stats = SearchStats::default();
            let st = &mut stats;
            let out = match index {
                Index::Segment(snap) => {
                    let (out, planned) =
                        snap.hybrid_search(&q.vector, &q.predicate, attrs, k, param, scratch);
                    *st = planned;
                    out.iter().map(|n| Neighbor::new(n.dist, n.id as u32)).collect()
                }
                Index::Graph(idx, _) => {
                    idx.search_filtered(&q.vector, &filter, k, param, scratch, st)
                }
                Index::Hnsw(pf) => {
                    pf.search(&q.vector, &filter, k, param, q.selectivity, scratch, st)
                }
                Index::PreFilter(pf) => pf.search(&q.vector, &filter, k, st),
                Index::Oracle(o) => o.search(label(), &q.vector, k, param, scratch, st),
                Index::FilteredVamana(fv) => {
                    fv.search_with(&q.vector, label(), k, param, scratch, st)
                }
                Index::StitchedVamana(sv) => {
                    sv.search_with(&q.vector, label(), k, param, scratch, st)
                }
                Index::Nhq(nhq) => nhq.search_with(&q.vector, label(), k, param, scratch, st),
                Index::IvfFlat(ivf) => ivf.search(&q.vector, &filter, k, param, st),
                Index::IvfSq8(ivf) => ivf.search(&q.vector, &filter, k, param, st),
            };
            (out.iter().map(|n| n.id).collect(), stats)
        })
    }
}

/// Shared values by key; a run holds few enough that a scan finds them.
type Slots<K, V> = Vec<(K, Arc<V>)>;

/// The value cached under `key`, made and cached on first request.
fn memo<K: PartialEq, V>(slots: &mut Slots<K, V>, key: K, make: impl FnOnce() -> V) -> Arc<V> {
    if let Some((_, hit)) = slots.iter().find(|(k, _)| *k == key) {
        return hit.clone();
    }
    let made = Arc::new(make());
    slots.push((key, made.clone()));
    made
}

/// The per-run build cache: datasets, workloads with their ground truth and
/// indices, each built on first request and shared afterwards.
#[derive(Default)]
pub struct Cache {
    datasets: Slots<Data, HybridDataset>,
    ctxs: Slots<(Data, Queries, usize, u64), BenchCtx>,
    builds: Slots<(Data, Method), Build>,
}

impl Cache {
    /// The dataset `data` names.
    pub(crate) fn dataset(&mut self, data: Data) -> Arc<HybridDataset> {
        let generate = match data.gen {
            Gen::Sift => sift_like,
            Gen::Paper => paper_like,
            Gen::TripClick => tripclick_like,
            Gen::Laion => laion_like,
            Gen::Correlated => correlated,
        };
        memo(&mut self.datasets, data, || generate(data.n, data.seed))
    }

    /// `nq` queries of `queries` over `data`, with their exact ground truth.
    pub(crate) fn ctx(
        &mut self,
        data: Data,
        queries: Queries,
        nq: usize,
        seed: u64,
    ) -> Arc<BenchCtx> {
        let ds = self.dataset(data);
        memo(&mut self.ctxs, (data, queries, nq, seed), || {
            let workload = queries.generate(&ds, nq, seed);
            let queries = &workload.queries;
            let truth =
                ground_truth(&ds.vectors, &ds.attrs, Metric::L2, queries, K, bench_threads());
            BenchCtx { data, ds, workload, truth }
        })
    }

    /// How many indices this cache has built.
    pub fn builds(&self) -> usize {
        self.builds.len()
    }

    /// `method`'s index over `data`: built and timed on first request (one
    /// `[build]` line on stderr per build), shared afterwards.
    pub fn index(&mut self, data: Data, method: &Method) -> Arc<Build> {
        let ds = self.dataset(data);
        let flat = (*method == Method::IvfSq8).then(|| self.index(data, &Method::IvfFlat));
        memo(&mut self.builds, (data, method.clone()), || {
            let (index, tti) = match flat.as_deref() {
                Some(Build { index: Index::IvfFlat(flat), .. }) => {
                    let t0 = Instant::now();
                    (Index::IvfSq8(flat.to_sq8()), t0.elapsed())
                }
                _ => build(method, &ds),
            };
            eprintln!("[build] {} n={} {method:?}: {:.1}s", ds.name, data.n, tti.as_secs_f64());
            Build { index, tti }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acorn_sweep_end_to_end_smoke() {
        let mut cache = Cache::default();
        let data = Data { gen: Gen::Sift, n: 1500, seed: 1 };
        let ctx = cache.ctx(data, Queries::Equality, 8, 2);
        let params =
            AcornParams { m: 8, gamma: 6, m_beta: 16, ef_construction: 32, ..Default::default() };
        let built = cache.index(data, &Method::Acorn(AcornVariant::Gamma, params));
        let pts = ctx.sweep(&built.index, &[16, 64]);
        assert_eq!(pts.len(), 2);
        assert!(pts[1].recall >= pts[0].recall - 0.1, "recall should not collapse with ef");
        assert!(pts[1].recall > 0.5);
    }

    #[test]
    fn prefilter_sweep_is_exact() {
        let mut cache = Cache::default();
        let data = Data { gen: Gen::Sift, n: 800, seed: 3 };
        let ctx = cache.ctx(data, Queries::Equality, 5, 4);
        let built = cache.index(data, &Method::PreFilter);
        let pts = ctx.sweep(&built.index, &Method::PreFilter.knob_values(&[]));
        assert_eq!(pts.len(), 1);
        assert!((pts[0].recall - 1.0).abs() < 1e-9, "pre-filtering must be exact");
    }

    #[test]
    fn equals_label_extracts() {
        let p = Predicate::Equals { field: 0, value: 9 };
        assert_eq!(equals_label(&p), 9);
    }
}
