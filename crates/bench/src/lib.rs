//! # acorn-bench
//!
//! The experiment harness: one binary per table and figure of the ACORN
//! paper's evaluation (§7), the 1M-row `workload_bench` harness, and
//! Criterion micro-benchmarks of the hot kernels; docs/BENCHMARKS.md is the
//! index. Performance claims are measured by the repo benchmark
//! (`BENCHMARK.json`, a package of its own under `src/bin/benchmark/`).
//!
//! All experiments run on synthetic stand-in datasets (see `acorn-data`)
//! scaled by environment variables so the full suite completes on one
//! machine:
//!
//! * `ACORN_BENCH_N` — base dataset size multiplier context (default sizes
//!   are per-binary; this overrides them).
//! * `ACORN_BENCH_NQ` — queries per workload (default 50).
//! * `ACORN_BENCH_THREADS` — query-driver threads (default: all cores).
//! * `ACORN_BENCH_REPEATS` — executions per query per QPS point (default 5).
//!
//! Output: aligned tables on stdout and CSV files under `results/`.

pub mod methods;
pub mod workload;

use std::path::PathBuf;

/// Dataset size for a binary, overridable via `ACORN_BENCH_N`.
pub fn bench_n(default: usize) -> usize {
    std::env::var("ACORN_BENCH_N").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Queries per workload, overridable via `ACORN_BENCH_NQ`.
pub fn bench_nq(default: usize) -> usize {
    std::env::var("ACORN_BENCH_NQ").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Query-driver thread count (0 = all cores), via `ACORN_BENCH_THREADS`.
pub fn bench_threads() -> usize {
    std::env::var("ACORN_BENCH_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Per-query repetitions for QPS measurement (keeps wall time well above
/// thread start-up), via `ACORN_BENCH_REPEATS` (default 5).
pub fn bench_repeats() -> usize {
    std::env::var("ACORN_BENCH_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(5)
}

/// The beam-width sweep used for recall-QPS curves (the paper sweeps efs
/// 10..800; scaled-down datasets saturate recall earlier).
pub fn efs_sweep() -> Vec<usize> {
    vec![10, 20, 40, 80, 160, 320]
}

/// Directory for CSV outputs (`results/`), created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_parse() {
        // Note: we do not mutate the environment in tests (process-global);
        // just exercise the default paths.
        assert_eq!(bench_n(123), 123);
        assert_eq!(bench_nq(45), 45);
        assert!(efs_sweep().windows(2).all(|w| w[0] < w[1]));
    }
}
