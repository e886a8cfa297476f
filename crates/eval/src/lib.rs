#![warn(missing_docs)]

//! # acorn-eval
//!
//! The measurement harness behind every table and figure reproduction:
//!
//! * [`recall`] — recall@K against exact ground truth (§3.1).
//! * [`mod@sweep`] — recall-vs-QPS curves by sweeping the search beam width
//!   (`efs`/`L`/`nprobe`), the x/y axes of Figures 7–11. Each point is one
//!   run of the workspace's batch driver
//!   ([`run_sharded`](acorn_hnsw::pool::run_sharded): queries sharded
//!   across threads with per-thread scratch reuse; the paper reports QPS
//!   on a 96-vCPU machine, and relative QPS at equal recall is what the
//!   reproduction targets).
//! * [`graph_quality`] — predicate-subgraph analysis for Figure 13:
//!   strongly connected components per level (iterative Tarjan), graph
//!   height, and filtered out-degrees.
//! * [`tables`] — aligned text tables and CSV output for the experiment
//!   binaries.

pub mod graph_quality;
pub mod recall;
pub mod sweep;
pub mod tables;

pub use graph_quality::{predicate_subgraph_quality, SubgraphQuality};
pub use recall::{recall_at_k, workload_recall};
pub use sweep::{sweep, SweepPoint};
pub use tables::Table;
