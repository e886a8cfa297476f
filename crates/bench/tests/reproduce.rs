//! The `reproduce` driver's contracts: names resolve, equal build requests
//! share one build, and an experiment's non-timing output is a pure function
//! of its sizes.

use std::path::PathBuf;
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
fn untimed_cells(file: &std::path::Path, timed: &[&str]) -> Vec<Vec<String>> {
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

#[test]
fn a_sweep_experiment_run_twice_writes_the_same_untimed_cells() {
    let flatten = select(&names(&["ablation_flatten"])).unwrap()[0];
    let cells = |tag: &str| {
        let out = out_dir(tag);
        // A fresh run each time: the builds are repeated, not shared.
        Run::new(out.clone()).run(flatten, 600, 6);
        let curves = untimed_cells(&out.join("ablation_flatten.csv"), &["QPS"]);
        let scorecard = untimed_cells(&out.join("scorecard.csv"), &["value"]);
        std::fs::remove_dir_all(out).unwrap();
        (curves, scorecard)
    };
    let (first, second) = (cells("first"), cells("second"));
    // Two methods, six beam widths each; one QPS-at-recall reading a method.
    assert_eq!((first.0.len(), first.1.len()), (12, 2));
    assert_eq!(first, second);
}
