#![warn(missing_docs)]

//! # acorn-eval
//!
//! The measurement harness behind every table and figure reproduction:
//!
//! * [`recall`] — recall@K against exact ground truth (§3.1).
//! * [`qps`] — a multi-threaded query driver measuring queries/second, with
//!   per-thread scratch reuse (the paper reports QPS on a 96-vCPU machine;
//!   relative QPS at equal recall is what the reproduction targets).
//! * [`mod@sweep`] — recall-vs-QPS curves by sweeping the search beam width
//!   (`efs`/`L`/`nprobe`), the x/y axes of Figures 7–11.
//! * [`graph_quality`] — predicate-subgraph analysis for Figure 13:
//!   strongly connected components per level (iterative Tarjan), graph
//!   height, and filtered out-degrees.
//! * [`tables`] — aligned text tables and CSV output for the experiment
//!   binaries.

pub mod graph_quality;
pub mod qps;
pub mod recall;
pub mod sweep;
pub mod tables;

use std::time::{Duration, Instant};

pub use graph_quality::{predicate_subgraph_quality, SubgraphQuality};
pub use qps::{run_queries_pooled, QpsResult};
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
