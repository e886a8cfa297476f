//! # acorn-bench
//!
//! The experiment harness: the `reproduce` binary — every table and figure
//! of the ACORN paper's evaluation (§7), plus the 1M-row `serve` run, as a
//! row of [`experiments::EXPERIMENTS`], over the method table and per-run
//! build cache of [`methods`] — and Criterion micro-benchmarks of the hot
//! kernels; docs/BENCHMARKS.md is the index.
//! Performance claims are measured by the repo benchmark (`BENCHMARK.json`,
//! a package of its own under `src/bin/benchmark/`).
//!
//! All experiments run on synthetic stand-in datasets (see `acorn-data`)
//! scaled by environment variables so the full suite completes on one
//! machine:
//!
//! * `ACORN_BENCH_N` — dataset size for every experiment of the run (default
//!   sizes are per experiment; under one size everything over a dataset
//!   shares its builds).
//! * `ACORN_BENCH_NQ` — queries per workload (defaults are per experiment).
//! * `ACORN_BENCH_THREADS` — query-driver threads (default: all cores).
//! * `ACORN_BENCH_REPEATS` — executions per query per QPS point (default 5).
//!
//! Output: aligned tables on stdout and CSV files under `results/`.

pub mod experiments;
pub mod methods;

use std::path::PathBuf;

/// The scale variable `name` as a number, else `default` (non-numeric values
/// fall back silently).
pub fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Query-driver thread count (0 = all cores), via `ACORN_BENCH_THREADS`.
pub(crate) fn bench_threads() -> usize {
    env_or("ACORN_BENCH_THREADS", 0)
}

/// The beam-width sweep used for recall-QPS curves (the paper sweeps efs
/// 10..800; scaled-down datasets saturate recall earlier).
pub(crate) const EFS: [usize; 6] = [10, 20, 40, 80, 160, 320];

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
        assert_eq!(env_or("ACORN_BENCH_N", 123), 123);
        assert_eq!(env_or("ACORN_BENCH_NQ", 45), 45);
        assert!(EFS.windows(2).all(|w| w[0] < w[1]));
    }
}
