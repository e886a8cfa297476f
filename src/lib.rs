#![warn(missing_docs)]

//! # ACORN: Performant and Predicate-Agnostic Hybrid Search
//!
//! A from-scratch Rust reproduction of *ACORN: Performant and
//! Predicate-Agnostic Search Over Vector Embeddings and Structured Data*
//! (Patel, Kraft, Guestrin, Zaharia — SIGMOD 2024).
//!
//! This facade crate re-exports the full workspace:
//!
//! * [`core`] — the ACORN-γ and ACORN-1 graphs (the paper's contribution)
//!   as the segments of the
//!   [`SegmentedAcornIndex`](core::segment::SegmentedAcornIndex) — the one
//!   index a user builds (bulk load and inserts, tombstoned deletes, frozen
//!   CSR segments, merge compaction); its pinned
//!   [`SegmentSnapshot`](core::snapshot::SegmentSnapshot) is what a user
//!   queries and saves — and the
//!   [`SegmentedQueryEngine`](core::engine::SegmentedQueryEngine)
//!   batch-serving layer over it (concurrent, scratch-pooled query
//!   execution).
//! * [`hnsw`] — the HNSW substrate (vector store, layered graph, Algorithm 1).
//! * [`predicate`] — attributes, predicates (`equals`/`between`/`contains`/
//!   regex), filters, and selectivity estimation.
//! * [`data`] — synthetic datasets and workloads shaped like the paper's
//!   four benchmarks, plus exact ground truth.
//! * [`baselines`] — pre-filtering, HNSW post-filtering, the oracle
//!   partition index, Filtered/Stitched Vamana, NHQ, and IVF-Flat.
//! * [`eval`] — recall, QPS measurement, sweeps, and graph-quality analysis.
//!
//! ## Quickstart
//!
//! ```
//! use acorn::prelude::*;
//!
//! // 1. A hybrid dataset: vectors + structured attributes.
//! let dataset = acorn::data::datasets::sift_like(2000, 42);
//!
//! // 2. Build an ACORN-γ index (predicate-agnostic: no predicate knowledge):
//! //    the corpus bulk-loads as one frozen segment of an updatable index,
//! //    row i gets global id i.
//! let params = AcornParams { m: 16, gamma: 12, m_beta: 32, ef_construction: 48, ..Default::default() };
//! let mut index = SegmentedAcornIndex::new(dataset.vectors.dim(), params, AcornVariant::Gamma);
//! index.bulk_load(VectorStore::clone(&dataset.vectors));
//!
//! // 3. Hybrid query: nearest neighbors among records with label == 7. The
//! //    writer only writes; every read is asked of a pinned snapshot.
//! let field = dataset.attrs.field("label").unwrap();
//! let predicate = Predicate::Equals { field, value: 7 };
//! let query = dataset.vectors.get(0).to_vec();
//! let snap = index.snapshot();
//! let mut scratch = SearchScratch::new(snap.max_segment_rows());
//! let (hits, stats) = snap.hybrid_search(&query, &predicate, &dataset.attrs, 10, 64, &mut scratch);
//!
//! assert!(!hits.is_empty());
//! for h in &hits {
//!     assert_eq!(dataset.attrs.int(field, h.id as u32), 7);
//! }
//! assert!(stats.ndis > 0);
//!
//! // 4. Batch serving: shard a query batch across worker threads with
//! //    pooled scratch space and deterministic output ordering.
//! let engine = SegmentedQueryEngine::for_reader(index.reader()).with_threads(2);
//! let batch: Vec<(&[f32], &Predicate)> =
//!     (0..4).map(|i| (dataset.vectors.get(i), &predicate)).collect();
//! let out = engine.hybrid_search_batch(&batch, &dataset.attrs, 10, 64);
//! assert_eq!(out.results.len(), 4);
//! assert_eq!(out.results[0], hits);
//!
//! // 5. Save the snapshot and load it: one checksummed file, answers unchanged.
//! let mut file = Vec::new();
//! snap.save(&mut file).unwrap();
//! let loaded = SegmentedAcornIndex::load(&mut file.as_slice()).unwrap().snapshot();
//! assert_eq!(loaded.hybrid_search(&query, &predicate, &dataset.attrs, 10, 64, &mut scratch).0, hits);
//! ```

pub use acorn_baselines as baselines;
pub use acorn_core as core;
pub use acorn_data as data;
pub use acorn_eval as eval;
pub use acorn_hnsw as hnsw;
pub use acorn_predicate as predicate;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use acorn_core::{
        AcornIndex, AcornParams, AcornVariant, DurabilityOptions, DurableIndex, FsyncPolicy,
        GlobalNeighbor, IndexReader, MergeOutcome, MergePolicy, PruneStrategy, QueryError,
        SegmentSnapshot, SegmentView, SegmentedAcornIndex, SegmentedQueryEngine,
    };
    pub use acorn_hnsw::{
        CsrGraph, GraphView, HnswIndex, HnswParams, Metric, Neighbor, ScratchPool, SearchScratch,
        SearchStats, ShardedRun, VectorStore,
    };
    pub use acorn_predicate::{
        AllPass, AttrStore, BitmapFilter, Bitset, CompiledFilter, CompiledPredicate, CostClass,
        MemoFilter, MemoTable, NodeFilter, Predicate, PredicateFilter, Regex,
    };
}
