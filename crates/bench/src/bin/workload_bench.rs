//! `workload_bench` — the production workload harness: zipf-skewed mixed
//! read/write traffic against the segmented index at configurable scale
//! (CI smoke runs tens of thousands of rows; the committed run is 1M).
//!
//! Three phases, all driven by one [`WorkloadConfig`]:
//!
//! 1. **Load** — the corpus bulk-loads as `segment_rows`-sized frozen
//!    chunks; reported as rows/s.
//! 2. **Mixed** — background maintenance on, the writer applies scripted
//!    inserts/deletes while `concurrency` reader threads drain the search
//!    ops (hybrid/filtered/pure, zipf-skewed over per-band templates),
//!    verifying every hit. Latencies bucket per op class and per band.
//! 3. **Steady state** — maintenance off, a per-band
//!    [`SegmentedQueryEngine`] batch sweep over the post-churn index: the
//!    comparable per-band QPS number after the write phase reshaped the
//!    segment log.
//!
//! Emits aligned tables on stdout and `BENCH_workload.json`: at the
//! repository root for a run at the default (committed, 1M-row) scale,
//! under `results/` for a run scaled by `ACORN_WORKLOAD_ROWS` / `_OPS` /
//! `_SEGMENT_ROWS` (see docs/BENCHMARKS.md), so a smoke run never
//! overwrites the committed file.
//!
//! CI tail-latency gate: `ACORN_WORKLOAD_MAX_P99_US` fails the run when any
//! mixed-phase *search* class's p99 exceeds this many microseconds (skipped
//! with a warning for a class with fewer than 20 samples — percentiles of
//! noise gate nothing). Catches absolute pathologies (a reader blocking
//! across a merge) at any scale.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use acorn_bench::workload::{
    build_index, run_mixed, BandStats, ClassStats, MixedReport, WorkloadConfig, WorkloadPlan,
};
use acorn_core::SegmentedQueryEngine;
use acorn_eval::Table;
use acorn_hnsw::LatencySummary;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn fmt_opt(s: &Option<LatencySummary>) -> String {
    match s {
        Some(s) => s.to_string(),
        None => "(no samples)".into(),
    }
}

/// One steady-state band measurement.
struct SteadyBand {
    band: f64,
    avg_sel: f64,
    nq: usize,
    qps: f64,
    summary: Option<LatencySummary>,
}

fn main() {
    let config = match WorkloadConfig::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL: bad workload config: {e}");
            std::process::exit(1);
        }
    };
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let kernel = acorn_hnsw::kernels::kernel_path().name();
    println!("workload config: {config:#?}");
    println!("cores = {cores}, kernel = {kernel}");

    let plan = match WorkloadPlan::generate(&config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: cannot generate plan: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "plan: {} corpus rows ({} initial + {} insert pool), {} templates, {} ops",
        plan.dataset.len(),
        config.rows,
        plan.inserts,
        plan.templates.len(),
        plan.ops.len()
    );

    // ---- Phase 1: bulk load.
    let (mut idx, load_wall) = build_index(&plan);
    let load_rps = config.rows as f64 / load_wall.as_secs_f64().max(1e-9);
    println!(
        "loaded {} rows as {} segments in {:.1?} ({:.0} rows/s)",
        config.rows,
        idx.snapshot().num_segments(),
        load_wall,
        load_rps
    );

    // ---- Phase 2: mixed traffic under maintenance.
    if config.maintenance_ms > 0 {
        idx.start_maintenance(Duration::from_millis(config.maintenance_ms));
    }
    let report = run_mixed(&plan, &mut idx);
    idx.stop_maintenance();
    println!(
        "mixed phase: {} ops in {:.1?}; {} result rows verified; {} merges completed",
        plan.ops.len(),
        report.wall,
        report.checked_hits,
        idx.reader().merges_completed()
    );

    let mut class_table =
        Table::new("mixed-phase per-op-class latency", &["class", "count", "qps", "latency"]);
    for c in &report.classes {
        class_table.row(vec![
            c.name.to_string(),
            c.count.to_string(),
            format!("{:.1}", c.qps),
            fmt_opt(&c.summary),
        ]);
    }
    println!("{}", class_table.render());

    let mut band_table =
        Table::new("mixed-phase per-band search latency", &["band", "count", "latency"]);
    for b in &report.bands {
        band_table.row(vec![format!("{:.3}", b.band), b.count.to_string(), fmt_opt(&b.summary)]);
    }
    println!("{}", band_table.render());

    // ---- Phase 3: steady-state per-band sweep on the post-churn index.
    let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(config.concurrency);
    let mut steady = Vec::with_capacity(config.bands.len());
    let mut steady_table = Table::new(
        "steady-state per-band hybrid batch",
        &["band", "avg_sel", "nq", "QPS", "latency"],
    );
    for &band in &config.bands {
        let pool: Vec<_> = plan.templates.iter().filter(|t| t.band == band).collect();
        let avg_sel = pool.iter().map(|t| t.selectivity).sum::<f64>() / pool.len().max(1) as f64;
        let queries: Vec<(&[f32], &acorn_predicate::Predicate)> =
            pool.iter().map(|t| (t.vector.as_slice(), &t.predicate)).collect();
        let out = engine.hybrid_search_batch(&queries, &plan.dataset.attrs, config.k, config.efs);
        let summary = out.latency_summary();
        steady_table.row(vec![
            format!("{band:.3}"),
            format!("{avg_sel:.4}"),
            queries.len().to_string(),
            format!("{:.1}", out.qps),
            fmt_opt(&summary),
        ]);
        steady.push(SteadyBand { band, avg_sel, nq: queries.len(), qps: out.qps, summary });
    }
    println!("{}", steady_table.render());

    let reader = idx.reader();
    let end = reader.snapshot();
    println!(
        "end state: epoch {}, {} segments, {} live rows ({} tombstoned), \
         {} merges, {} maintenance errors, {} snapshot pins, {:.1} MiB",
        end.epoch(),
        end.num_segments(),
        end.len(),
        end.deleted_rows(),
        reader.merges_completed(),
        reader.maintenance_errors(),
        reader.snapshot_pins(),
        end.memory_bytes() as f64 / (1024.0 * 1024.0)
    );
    assert_eq!(reader.maintenance_errors(), 0, "maintenance must not panic during the run");

    // ---- JSON emission.
    let json =
        render_json(&config, cores, kernel, load_wall, load_rps, &report, &steady, &reader, &end);
    let dir = if config == WorkloadConfig::default() {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    } else {
        acorn_bench::results_dir()
    };
    let path = dir.join("BENCH_workload.json");
    std::fs::write(&path, json).expect("cannot write BENCH_workload.json");
    println!("wrote {}", path.display());

    // ---- Tail-latency gates.
    run_gates(&report);
}

fn lat_fields(s: &Option<LatencySummary>) -> String {
    match s {
        Some(s) => format!(
            "\"lat_p50_us\": {:.1}, \"lat_p99_us\": {:.1}, \"lat_p999_us\": {:.1}, \
             \"lat_mean_us\": {:.1}, \"lat_max_us\": {:.1}",
            us(s.p50),
            us(s.p99),
            us(s.p999),
            us(s.mean),
            us(s.max)
        ),
        None => "\"lat_p50_us\": null, \"lat_p99_us\": null, \"lat_p999_us\": null, \
                 \"lat_mean_us\": null, \"lat_max_us\": null"
            .into(),
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    config: &WorkloadConfig,
    cores: usize,
    kernel: &str,
    load_wall: Duration,
    load_rps: f64,
    report: &MixedReport,
    steady: &[SteadyBand],
    reader: &acorn_core::IndexReader,
    end: &acorn_core::SegmentSnapshot,
) -> String {
    let mut s = String::new();
    let bands_json = config.bands.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ");
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"workload\",");
    let _ = writeln!(s, "  \"config\": {{");
    let _ = writeln!(s, "    \"rows\": {},", config.rows);
    let _ = writeln!(s, "    \"dim\": {},", config.dim);
    let _ = writeln!(s, "    \"ops\": {},", config.ops);
    let _ = writeln!(s, "    \"zipf_exponent\": {},", config.zipf_exponent);
    let _ = writeln!(s, "    \"concurrency\": {},", config.concurrency);
    let _ = writeln!(
        s,
        "    \"mix_pct\": {{\"hybrid\": {}, \"filtered\": {}, \"pure\": {}, \
         \"insert\": {}, \"delete\": {}}},",
        config.hybrid_pct,
        config.filtered_pct,
        config.pure_pct,
        config.insert_pct,
        config.delete_pct
    );
    let _ = writeln!(s, "    \"bands\": [{bands_json}],");
    let _ = writeln!(s, "    \"k\": {},", config.k);
    let _ = writeln!(s, "    \"efs\": {},", config.efs);
    let _ = writeln!(s, "    \"segment_rows\": {},", config.segment_rows);
    let _ = writeln!(s, "    \"maintenance_ms\": {},", config.maintenance_ms);
    let _ = writeln!(s, "    \"seed\": {}", config.seed);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"available_cores\": {cores},");
    let _ = writeln!(s, "  \"kernel_path\": \"{kernel}\",");
    let _ = writeln!(
        s,
        "  \"load\": {{\"rows\": {}, \"segments_after_load\": {}, \"wall_s\": {:.3}, \
         \"rows_per_s\": {:.1}}},",
        config.rows,
        config.rows.div_ceil(config.segment_rows.max(1)),
        load_wall.as_secs_f64(),
        load_rps
    );
    let _ = writeln!(s, "  \"mixed\": {{");
    let _ = writeln!(s, "    \"wall_s\": {:.3},", report.wall.as_secs_f64());
    let _ = writeln!(s, "    \"checked_hits\": {},", report.checked_hits);
    let _ = writeln!(s, "    \"classes\": [");
    let render_class = |c: &ClassStats| {
        format!(
            "      {{\"class\": \"{}\", \"count\": {}, \"qps\": {:.1}, {}}}",
            c.name,
            c.count,
            c.qps,
            lat_fields(&c.summary)
        )
    };
    let _ =
        writeln!(s, "{}", report.classes.iter().map(render_class).collect::<Vec<_>>().join(",\n"));
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"bands\": [");
    let render_band = |b: &BandStats| {
        format!(
            "      {{\"band\": {}, \"count\": {}, {}}}",
            b.band,
            b.count,
            lat_fields(&b.summary)
        )
    };
    let _ = writeln!(s, "{}", report.bands.iter().map(render_band).collect::<Vec<_>>().join(",\n"));
    let _ = writeln!(s, "    ]");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"steady\": {{");
    let _ = writeln!(s, "    \"bands\": [");
    let render_steady = |b: &SteadyBand| {
        format!(
            "      {{\"band\": {}, \"avg_sel\": {:.4}, \"nq\": {}, \"qps\": {:.1}, {}}}",
            b.band,
            b.avg_sel,
            b.nq,
            b.qps,
            lat_fields(&b.summary)
        )
    };
    let _ = writeln!(s, "{}", steady.iter().map(render_steady).collect::<Vec<_>>().join(",\n"));
    let _ = writeln!(s, "    ]");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"index\": {{\"epoch\": {}, \"segments\": {}, \"live_rows\": {}, \
         \"deleted_rows\": {}, \"merges_completed\": {}, \"maintenance_errors\": {}, \
         \"snapshot_pins\": {}, \"memory_bytes\": {}}}",
        end.epoch(),
        end.num_segments(),
        end.len(),
        end.deleted_rows(),
        reader.merges_completed(),
        reader.maintenance_errors(),
        reader.snapshot_pins(),
        end.memory_bytes()
    );
    let _ = writeln!(s, "}}");
    s
}

/// The CI tail-latency gate over the mixed-phase search classes.
fn run_gates(report: &MixedReport) {
    const MIN_SAMPLES: usize = 20;
    let Ok(max) = std::env::var("ACORN_WORKLOAD_MAX_P99_US") else {
        return;
    };
    let max: f64 = max.parse().expect("ACORN_WORKLOAD_MAX_P99_US must be a float");
    let mut failed = false;
    for c in report.classes.iter().filter(|c| matches!(c.name, "hybrid" | "filtered" | "pure")) {
        if c.count < MIN_SAMPLES {
            println!(
                "WARN: tail gate skipped for {} — {} samples < {MIN_SAMPLES}",
                c.name, c.count
            );
            continue;
        }
        let got = us(c.summary.expect("count >= MIN_SAMPLES implies a summary").p99);
        let verdict = if got <= max { "ok" } else { "FAIL" };
        println!("{} p99 = {got:.1} us (ceiling {max:.1} us) {verdict}", c.name);
        failed |= got > max;
    }
    if failed {
        eprintln!("FAIL: workload tail-latency gate violated");
        std::process::exit(1);
    }
    println!("workload tail-latency gate passed");
}
