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

use std::time::{Duration, Instant};

pub use graph_quality::{predicate_subgraph_quality, SubgraphQuality};
pub use recall::{recall_at_k, workload_recall};
pub use sweep::{sweep, SweepPoint};
pub use tables::Table;

/// Time a closure (used for TTI measurements, Table 4).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_times_work() {
        let (v, d) = measure(|| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert!(d.as_millis() >= 9);
    }
}
