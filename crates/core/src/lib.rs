#![warn(missing_docs)]

//! # acorn-core
//!
//! The ACORN hybrid-search indices (Patel, Kraft, Guestrin, Zaharia —
//! SIGMOD 2024): **ACORN-γ**, designed for high-efficiency search, and
//! **ACORN-1**, designed for low construction overhead.
//!
//! Both are modifications of HNSW (provided by the `acorn-hnsw` crate)
//! around one idea: *predicate subgraph traversal*. The index is built
//! predicate-agnostically but densely enough that, for an arbitrary search
//! predicate `p`, the subgraph induced by the passing nodes `X_p` emulates
//! an HNSW index built directly over `X_p` (the unattainable "oracle
//! partition"):
//!
//! * **ACORN-γ construction** (§5.2): collect `M·γ` candidate edges per node
//!   per level (instead of HNSW's `M`), keep upper-level lists uncompressed,
//!   and compress level-0 lists with a predicate-agnostic two-hop rule
//!   parameterized by `M_β`. The level normalization constant stays
//!   `mL = 1/ln(M)` so predicate subgraphs keep an HNSW-shaped hierarchy.
//! * **ACORN-γ search** (§5.1, Algorithm 2): greedy traversal whose neighbor
//!   lookups filter each list by the query predicate and truncate to `M`;
//!   on the compressed level the lookup expands entries beyond `M_β` to
//!   their one-hop neighbors, provably recovering every pruned edge.
//! * **ACORN-1** (§5.3): construction with `γ = 1, M_β = M`; search expands
//!   the full one-hop *and* two-hop neighborhood of every visited node
//!   before filtering, approximating ACORN-γ's dense graph at search time.
//! * **Pre-filter fallback** (§5.2): a segment whose exact passing count
//!   is below `s_min = 1/γ` of its rows is answered exactly by a filtered
//!   scan, and so is one whose scan is predicted to cost no more work than
//!   a traversal ([`Route::choose`]) or that has no graph yet.
//!
//! The crate also exposes the pruning-strategy ablation of the paper's
//! Figure 12 ([`prune::PruneStrategy`]) and graph introspection for
//! Table 6 / Figure 13, plus the batch-serving layer ([`SegmentedQueryEngine`]):
//! concurrent, scratch-pooled execution of pure and hybrid query
//! batches with deterministic output ordering and aggregated search stats.
//!
//! For live-traffic workloads, [`SegmentedAcornIndex`] layers a
//! Lucene-style storage engine on top: one active segment of rows absorbing
//! inserts, frozen CSR-served segments whose graphs are built once when
//! they seal, tombstoned deletes, and merge compaction that drops dead rows — with a property-tested guarantee that
//! a fully-compacted index answers bit-identically to a from-scratch
//! rebuild over the surviving rows (see [`segment`]). Concurrency is
//! snapshot-epoch MVCC (see [`snapshot`]): every mutation publishes an
//! immutable [`SegmentSnapshot`] atomically; readers pin an epoch through
//! an [`IndexReader`] with one cheap load and serve the whole query
//! lock-free while merges run on a background maintenance thread.

pub mod durability;
pub mod engine;
pub mod index;
pub mod lookup;
pub mod params;
pub mod plan;
pub mod prune;
pub mod search;
pub mod segment;
pub mod serialize;
pub mod snapshot;

pub use durability::{DurabilityMetrics, DurabilityOptions, DurableIndex, FsyncPolicy};
pub use engine::SegmentedQueryEngine;
pub use index::AcornIndex;
pub use params::{AcornParams, AcornVariant};
pub use plan::{QueryTrace, Route, SegmentTrace, MATERIALIZE_BELOW_SELECTIVITY};
pub use prune::PruneStrategy;
pub use segment::{GlobalNeighbor, MergeOutcome, MergePolicy, SegmentedAcornIndex};
pub use snapshot::{IndexReader, MetricsSnapshot, QueryError, SegmentSnapshot, SegmentView};

pub use acorn_hnsw::{CsrGraph, GraphView, Neighbor, ScratchPool, SearchScratch, SearchStats};
