#![warn(missing_docs)]

//! # acorn-baselines
//!
//! Every hybrid-search method the ACORN paper benchmarks against (§7.2),
//! implemented from scratch on the shared `acorn-hnsw` substrate so that
//! comparisons use identical distance kernels and data layouts. Every graph
//! method's beam search, at build and at query time, is the workspace's one
//! best-first loop [`acorn_hnsw::search::search_layer`] — the loop HNSW and
//! ACORN run, scoring each neighborhood in one batched, prefetched
//! [`VectorData::distances_batch`](acorn_hnsw::VectorData::distances_batch)
//! pass — handed the method's flat `[Vec<u32>]` adjacency as the
//! neighborhood [`gated`](acorn_hnsw::search::gated) builds, with a
//! neighbor gate (label filters), and read through its `frontier` log
//! (Vamana's prune set) or a fusion-distance store (NHQ). Every exact scan — the pre-filter, both
//! IVF probes, k-means assignment and the Vamana medoids — is a call to the
//! one batched scan [`acorn_hnsw::search::exact_top_k`], fed the ids it
//! should score:
//!
//! * [`prefilter`] — exact filtered scan (perfect recall, `O(s·n)`).
//! * [`postfilter`] — HNSW with `K/s` over-search then filtering (the
//!   paper's *strong* post-filter variant, not the naive `K`-candidate one).
//! * [`oracle`] — the theoretically ideal oracle partition index (§4): one
//!   HNSW per predicate, only constructible for small known predicate sets.
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding (substrate for
//!   IVF).
//! * [`ivf`] — IVF-Flat and IVF-SQ8: coarse quantizer + probed-list
//!   post-filtering (the Milvus/FAISS-IVF representatives), one generic
//!   index over the store that scores the probed rows.
//! * [`vamana`] — the DiskANN graph with α-robust pruning (substrate for the
//!   filtered variants).
//! * [`filtered_vamana`] — FilteredVamana (Gollapudi et al. 2023):
//!   label-aware candidate generation and pruning; equality labels only.
//! * [`stitched_vamana`] — StitchedVamana: per-label Vamana graphs unioned
//!   and re-pruned.
//! * [`nhq`] — NHQ-style single-layer proximity graph searched with a
//!   fusion distance (vector distance + attribute-mismatch penalty).

pub mod filtered_vamana;
pub mod ivf;
pub mod kmeans;
pub mod nhq;
pub mod oracle;
pub mod postfilter;
pub mod prefilter;
pub mod stitched_vamana;
pub mod vamana;

pub use filtered_vamana::FilteredVamana;
pub use ivf::{IvfFlat, IvfSq8};
pub use nhq::NhqIndex;
pub use oracle::OraclePartitionIndex;
pub use postfilter::PostFilterHnsw;
pub use prefilter::PreFilter;
pub use stitched_vamana::StitchedVamana;
pub use vamana::{Vamana, VamanaParams};
