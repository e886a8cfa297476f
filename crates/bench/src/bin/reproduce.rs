//! The paper's evaluation from one driver: `reproduce fig9 table4` runs the
//! named experiments in one process (so they share datasets, ground truth
//! and index builds), `reproduce all` runs every one, and no argument lists
//! the names. Tables go to stdout, CSVs to `results/`, one `[build]` line
//! per index build to stderr.

use std::process::ExitCode;

use acorn_bench::experiments::{select, Run, EXPERIMENTS};
use acorn_bench::{env_or, results_dir};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        println!("usage: reproduce <experiment>... | all");
        for experiment in &EXPERIMENTS {
            println!("  {}", experiment.name);
        }
        return ExitCode::SUCCESS;
    }
    match select(&names) {
        Ok(selected) => {
            let mut run = Run::new(results_dir());
            for e in selected {
                run.run(e, env_or("ACORN_BENCH_N", e.n), env_or("ACORN_BENCH_NQ", e.nq));
            }
            ExitCode::SUCCESS
        }
        Err(unknown) => {
            eprintln!("unknown experiment `{unknown}`; run without arguments for the list");
            ExitCode::from(2)
        }
    }
}
