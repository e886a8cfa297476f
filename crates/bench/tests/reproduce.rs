//! The `reproduce` driver's contracts: names resolve, equal build requests
//! share one build, and an experiment's non-timing output is a pure function
//! of its sizes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use acorn_bench::experiments::{select, Run, EXPERIMENTS};
use acorn_bench::methods::{Cache, Data, Gen, Method};
use acorn_core::{AcornParams, AcornVariant};

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// A fresh output directory under the system temp dir.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acorn_reproduce_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The rows of `file` without the columns whose header is in `timed`.
fn untimed_cells(file: &Path, timed: &[&str]) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(file).unwrap();
    let mut lines = text.lines().map(|l| l.split(',').map(str::to_string).collect::<Vec<_>>());
    let header = lines.next().unwrap();
    let keep: Vec<usize> =
        (0..header.len()).filter(|&i| !timed.contains(&header[i].as_str())).collect();
    assert!(keep.len() < header.len(), "{timed:?} names no column of {header:?}");
    lines.map(|row| keep.iter().map(|&i| row[i].clone()).collect()).collect()
}

#[test]
fn every_listed_name_resolves_and_an_unknown_one_is_an_error() {
    for experiment in &EXPERIMENTS {
        let selected = select(&names(&[experiment.name])).unwrap();
        assert_eq!(selected.len(), 1);
        assert!(std::ptr::eq(selected[0], experiment), "{} resolves to itself", experiment.name);
    }
    let all = select(&names(&["all"])).unwrap();
    assert_eq!(all.len(), EXPERIMENTS.len());
    let two = select(&names(&["fig9", "table4"])).unwrap();
    assert_eq!(two.iter().map(|e| e.name).collect::<Vec<_>>(), ["fig9", "table4"]);
    assert_eq!(select(&names(&["fig7", "fig77"])).err(), Some("fig77"));
    assert_eq!(select(&names(&["fig7_lcps"])).err(), Some("fig7_lcps"));
}

#[test]
fn equal_requests_share_one_build_and_a_different_key_does_not() {
    let mut cache = Cache::default();
    let sift = Data { gen: Gen::Sift, n: 300, seed: 1 };
    let graph = |m_beta| {
        let params =
            AcornParams { m: 8, gamma: 4, m_beta, ef_construction: 16, ..Default::default() };
        Method::AcornGraph(AcornVariant::Gamma, params)
    };
    let first = cache.index(sift, &graph(16));
    assert!(Arc::ptr_eq(&first, &cache.index(sift, &graph(16))), "same key, same allocation");
    assert_eq!(cache.builds(), 1);

    // Every part of the key separates builds: parameters, layout, dataset.
    assert!(!Arc::ptr_eq(&first, &cache.index(sift, &graph(8))), "a different M_beta is its own");
    let Method::AcornGraph(variant, params) = graph(16) else { unreachable!() };
    assert!(!Arc::ptr_eq(&first, &cache.index(sift, &Method::Acorn(variant, params))));
    assert!(!Arc::ptr_eq(&first, &cache.index(Data { seed: 2, ..sift }, &graph(16))));
    assert!(!Arc::ptr_eq(&first, &cache.index(Data { n: 200, ..sift }, &graph(16))));
    assert_eq!(cache.builds(), 5);

    // IVF-SQ8 is derived from the cached IVF-Flat, not from a second k-means.
    cache.index(sift, &Method::IvfSq8);
    assert_eq!(cache.builds(), 7);
    cache.index(sift, &Method::IvfFlat);
    assert_eq!(cache.builds(), 7);
}

#[test]
fn table5_weighs_the_builds_table4_timed() {
    let out = out_dir("tables");
    let mut run = Run::new(out.clone());
    let [table4, table5] = select(&names(&["table4", "table5"])).unwrap()[..] else {
        unreachable!("two names select two experiments")
    };
    run.run(table4, 300, 4);
    let built = run.cache.builds();
    // Four datasets: ACORN-gamma, ACORN-1 and HNSW on each, the two Vamana
    // variants on the two that carry labels.
    assert_eq!(built, 4 * 3 + 2 * 2);
    run.run(table5, 300, 4);
    assert_eq!(run.cache.builds(), built, "table5 builds nothing table4 built");
    assert!(out.join("table4_tti.csv").exists() && out.join("table5_size.csv").exists());
    std::fs::remove_dir_all(out).unwrap();
}

/// The columns a run times; every other cell is a function of the sizes.
const TIMED: [&str; 4] = ["QPS", "value", "QPS@0.9", "load rows/s"];

/// The output directory of a fresh run of experiment `name`.
fn run_fresh(name: &str, n: usize, nq: usize, tag: &str) -> PathBuf {
    let out = out_dir(tag);
    // A fresh run each time: the builds are repeated, not shared.
    Run::new(out.clone()).run(select(&names(&[name])).unwrap()[0], n, nq);
    out
}

/// Every CSV under `out`, by file name in name order, without its timed
/// columns.
fn untimed_files(out: &Path) -> Vec<(String, Vec<Vec<String>>)> {
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(out).unwrap().map(|entry| entry.unwrap().path()).collect();
    files.sort();
    let name = |f: &PathBuf| f.file_name().unwrap().to_string_lossy().into_owned();
    files.iter().map(|f| (name(f), untimed_cells(f, &TIMED))).collect()
}

#[test]
fn a_sweep_experiment_run_twice_writes_the_same_untimed_cells() {
    // Rows per file: a curve row per method and beam width, a scorecard row
    // per curve, and for `serve` one summary row per query class.
    let serve_curve = |class: &str| (format!("serve_{class}.csv"), 6);
    let serve_files = [("scorecard.csv".to_string(), 5)]
        .into_iter()
        .chain(["neg_cor", "pos_cor", "s0p01", "s0p1", "s0p5"].map(serve_curve))
        .chain([("serve_summary.csv".to_string(), 5)]);
    let flatten_files =
        [("ablation_flatten.csv".to_string(), 12), ("scorecard.csv".to_string(), 2)];
    for (name, n, files) in
        [("ablation_flatten", 600, flatten_files.to_vec()), ("serve", 1000, serve_files.collect())]
    {
        let [first, second] =
            ["first", "second"].map(|tag| run_fresh(name, n, 6, &format!("{name}_{tag}")));
        let cells = untimed_files(&first);
        let rows: Vec<(String, usize)> = cells.iter().map(|(f, r)| (f.clone(), r.len())).collect();
        assert_eq!(rows, files, "{name}");
        assert_eq!(cells, untimed_files(&second), "{name}");
        if name == "serve" {
            // Every class reaches recall 0.9, so every summary row reads a QPS there.
            let summary = std::fs::read_to_string(first.join("serve_summary.csv")).unwrap();
            let mut lines = summary.lines().map(|l| l.split(',').collect::<Vec<_>>());
            let col = lines.next().unwrap().iter().position(|h| *h == "QPS@0.9").unwrap();
            let qps: Vec<f64> = lines.map(|row| row[col].parse().unwrap()).collect();
            assert!(qps.len() == 5 && qps.iter().all(|&q| q > 0.0), "{qps:?}");
        }
        for out in [first, second] {
            std::fs::remove_dir_all(out).unwrap();
        }
    }
}
