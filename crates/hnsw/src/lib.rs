#![warn(missing_docs)]

//! # acorn-hnsw
//!
//! Hierarchical Navigable Small World (HNSW) substrate for the ACORN
//! reproduction.
//!
//! This crate provides a complete, from-scratch HNSW implementation (Malkov &
//! Yashunin, 2018) together with the shared low-level infrastructure that the
//! ACORN indices and the graph-based baselines are built on:
//!
//! * [`vecs`] — flat vector storage and the pluggable [`VectorData`]
//!   abstraction ([`VectorStore`], [`Metric`]), and the shared append-only
//!   buffer behind both `VectorStore`'s rows and `LayeredGraph`'s lists.
//! * [`kernels`] — explicit AVX2/FMA distance kernels with runtime dispatch
//!   and a portable scalar fallback.
//! * [`sq8`] — the 8-bit scalar-quantized [`Sq8Store`] backend (codes +
//!   per-dimension codebook) behind the IVF-SQ8 baseline.
//! * [`heap`] — binary-heap helpers ordered on `(distance, id)` pairs
//!   ([`Neighbor`]).
//! * [`visited`] — epoch-stamped visited sets reusable across queries, and
//!   the per-layer-search [`ResumeMemo`] of ACORN's two-hop expansion.
//! * [`pool`] — a checkout/return pool of search scratches shared by query
//!   threads ([`ScratchPool`]).
//! * [`level`] — the exponentially decaying level sampler used by HNSW and
//!   ACORN (`mL = 1/ln(M)`).
//! * [`graph`] — the multi-level adjacency structure ([`LayeredGraph`]: a
//!   handle onto a shared edge buffer, cloned by copying its span tables)
//!   and the [`GraphView`] trait the read path is generic over.
//! * [`csr`] — the frozen, flat [`CsrGraph`] layout [`LayeredGraph::freeze`]
//!   produces: what a sealed ACORN index holds in place of the nested graph.
//! * [`select`] — neighbor selection: simple top-`M` and the RNG-based
//!   heuristic pruning from the HNSW paper, with an `alpha` knob that also
//!   serves Vamana's robust prune.
//! * [`search`] — the greedy beam search over one graph layer, the
//!   workspace's one best-first loop (HNSW, ACORN and every graph baseline
//!   pass it their neighborhood), and
//!   [`scan_into`](search::scan_into), the batched brute-force scan
//!   behind every exact nearest-`k` in the workspace (into a top-`k` the
//!   caller may carry across segments;
//!   [`exact_top_k`](search::exact_top_k) is it with a fresh one).
//! * [`index`] — the assembled [`HnswIndex`] with Algorithm 1 search.
//!
//! The ACORN paper (SIGMOD 2024) extends this structure; see the
//! `acorn-core` crate for the extension.

pub mod checksum;
pub mod csr;
pub mod graph;
pub mod heap;
pub mod index;
pub mod kernels;
pub mod level;
pub mod pool;
pub mod search;
pub mod select;
pub mod sq8;
pub mod stats;
pub mod vecs;
pub mod visited;

pub use checksum::{crc32, ChecksumWriter, Crc32};
pub use csr::CsrGraph;
pub use graph::{GraphView, LayeredGraph};
pub use heap::Neighbor;
pub use index::{HnswIndex, HnswParams};
pub use kernels::KernelPath;
pub use level::LevelSampler;
pub use pool::{run_sharded, PooledScratch, ScratchPool, ShardedRun};
pub use search::SearchScratch;
pub use sq8::Sq8Store;
pub use stats::SearchStats;
pub use vecs::{Metric, VectorData, VectorStore};
pub use visited::{ResumeMemo, VisitedSet};
