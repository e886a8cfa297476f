//! Table 5 reproduction: index size.
//!
//! Reports the total space footprint (vector storage + index structures)
//! in MB, mirroring Table 5's methods. Paper's finding: ACORN-γ is at most
//! ~1.3× HNSW and smaller than StitchedVamana; ACORN-1 sits between HNSW
//! and ACORN-γ; the flat index is the floor.
//!
//! The extra "ACORN-gamma CSR" column reports the same ACORN-γ graph after
//! `seal(..)`: one flat offsets/targets arena per level instead of nested
//! `Vec`s, which removes the per-list headers and allocator slack that
//! inflate the build-time layout. The "CSR+SQ8" column swaps the f32 rows
//! for the quantized traversal tier (codes + codebook + norms) — what a
//! frozen segment serves from under
//! [`QuantizationPolicy`](acorn_core::QuantizationPolicy), with exact rows
//! demoted to the rerank tier.

use acorn_baselines::stitched_vamana::StitchedParams;
use acorn_baselines::vamana::VamanaParams;
use acorn_baselines::{FilteredVamana, StitchedVamana};
use acorn_bench::{bench_n, results_dir};
use acorn_core::{AcornIndex, AcornParams, AcornVariant, Sq8Tier};
use acorn_data::datasets::{laion_like, paper_like, sift_like, tripclick_like, HybridDataset};
use acorn_eval::Table;
use acorn_hnsw::{HnswIndex, HnswParams};

fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn run(ds: &HybridDataset, t: &mut Table) {
    let vec_bytes = ds.vectors.memory_bytes();
    let acorn_params =
        AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() };
    let hnsw_params = HnswParams { m: 32, ef_construction: 40, ..Default::default() };

    eprintln!("[{}] building indices...", ds.name);
    let acorn_g = AcornIndex::build(ds.vectors.clone(), acorn_params.clone(), AcornVariant::Gamma);
    // A sealed index holds the CSR alone: read the nested bytes first.
    let acorn_g_bytes = acorn_g.memory_bytes();
    let acorn_g = acorn_g.seal(Some(Sq8Tier::Train { rerank_k: 32 }));
    let acorn_g_csr_bytes = acorn_g.memory_bytes();
    let sq8_bytes = acorn_g.quantized().expect("sealed with a tier").memory_bytes();
    let acorn_1 = AcornIndex::build(ds.vectors.clone(), acorn_params, AcornVariant::One);
    let hnsw = HnswIndex::build(ds.vectors.clone(), hnsw_params);

    let (fv_cell, sv_cell) = if let Some(f) = ds.attrs.field("label") {
        let labels: Vec<i64> = (0..ds.len() as u32).map(|i| ds.attrs.int(f, i)).collect();
        let fv = FilteredVamana::build(
            ds.vectors.clone(),
            labels.clone(),
            VamanaParams { r: 32, l: 64, alpha: 1.2, ..Default::default() },
        );
        let sv = StitchedVamana::build(
            ds.vectors.clone(),
            labels,
            StitchedParams { r_small: 16, l_small: 48, r_stitched: 32, ..Default::default() },
        );
        (mb(vec_bytes + fv.memory_bytes()), mb(vec_bytes + sv.memory_bytes()))
    } else {
        ("NA".into(), "NA".into())
    };

    t.row(vec![
        ds.name.clone(),
        mb(vec_bytes + acorn_g_bytes),
        mb(vec_bytes + acorn_g_csr_bytes),
        mb(sq8_bytes + acorn_g_csr_bytes),
        mb(vec_bytes + acorn_1.memory_bytes()),
        mb(vec_bytes + hnsw.graph().memory_bytes()),
        mb(vec_bytes),
        fv_cell,
        sv_cell,
    ]);
}

fn main() {
    let n = bench_n(8000);
    println!("Table 5 (index size MB, vectors + index) — n = {n}\n");
    let mut t = Table::new(
        "Table 5: Index Size (MB)",
        &[
            "dataset",
            "ACORN-gamma",
            "ACORN-gamma CSR",
            "CSR+SQ8",
            "ACORN-1",
            "HNSW",
            "Flat",
            "FilteredVamana",
            "StitchedVamana",
        ],
    );
    run(&sift_like(n, 1), &mut t);
    run(&paper_like(n, 2), &mut t);
    run(&tripclick_like(n, 3), &mut t);
    run(&laion_like(n, 4), &mut t);
    print!("{}", t.render());
    let path = results_dir().join("table5_size.csv");
    t.write_csv(&path).expect("write csv");
    println!("\nCSV: {}", path.display());
}
