//! The experiment table: the paper's evaluation (§7: Figures 7–13, Tables
//! 2–6, two ablations) and the 1M-row serving run as rows of
//! [`EXPERIMENTS`] for the `reproduce` binary. A row names its datasets,
//! workloads and methods and prints its readout; the [`Run`] it executes in
//! owns the build [`Cache`], so experiments run together share datasets,
//! ground truth and indices.

use std::path::PathBuf;
use std::sync::Arc;

use acorn_core::{
    AcornIndex, AcornParams, AcornVariant, PruneStrategy, QueryTrace, Route, SearchScratch,
    SegmentSnapshot,
};
use acorn_data::correlation::query_correlation;
use acorn_data::Correlation;
use acorn_eval::graph_quality::predicate_subgraph_quality_with;
use acorn_eval::sweep::{ndis_at_recall, qps_at_recall, SweepPoint};
use acorn_eval::{predicate_subgraph_quality, Table};
use acorn_hnsw::{HnswIndex, HnswParams, Metric, Sq8Store};
use acorn_predicate::{AllPass, BitmapFilter};

use crate::methods::{BenchCtx, Build, Cache, Data, Gen, GraphFacts, Index, Method, Queries, K};
use crate::EFS;

/// One reproduction of a figure or table.
pub struct Experiment {
    /// The name `reproduce` takes on its command line.
    pub name: &'static str,
    /// Default dataset size (`ACORN_BENCH_N` overrides it).
    pub n: usize,
    /// Default queries per workload (`ACORN_BENCH_NQ` overrides it); 0 for
    /// an experiment that runs no queries.
    pub nq: usize,
    /// Declares the datasets, workloads and methods and prints the readout.
    run: fn(&mut Run, usize, usize),
}

/// Every experiment, in the paper's order, then the serving run.
pub static EXPERIMENTS: [Experiment; 15] = [
    Experiment { name: "table2", n: 5000, nq: 30, run: table2 },
    Experiment { name: "fig7", n: 10_000, nq: 50, run: fig7 },
    Experiment { name: "fig8", n: 8000, nq: 40, run: fig8 },
    Experiment { name: "fig9", n: 10_000, nq: 30, run: fig9 },
    Experiment { name: "fig10", n: 10_000, nq: 30, run: fig10 },
    Experiment { name: "fig11", n: 32_000, nq: 30, run: fig11 },
    Experiment { name: "table3", n: 10_000, nq: 40, run: table3 },
    Experiment { name: "table4", n: 8000, nq: 0, run: table4 },
    Experiment { name: "table5", n: 8000, nq: 0, run: table5 },
    Experiment { name: "table6", n: 8000, nq: 0, run: table6 },
    Experiment { name: "fig12", n: 10_000, nq: 30, run: fig12 },
    Experiment { name: "fig13", n: 6000, nq: 0, run: fig13 },
    Experiment { name: "ablation_flatten", n: 10_000, nq: 30, run: ablation_flatten },
    Experiment { name: "ablation_multilevel", n: 10_000, nq: 30, run: ablation_multilevel },
    Experiment { name: "serve", n: 1_000_000, nq: 100, run: serve },
];

/// The experiments `names` select, in order (`all` selects every one), or
/// the first name that is not an experiment.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, &str> {
    let mut selected = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(experiment) => selected.push(experiment),
            None if name == "all" => selected.extend(&EXPERIMENTS),
            None => return Err(name),
        }
    }
    Ok(selected)
}

/// A method under the label an experiment prints it with.
type Labelled = (&'static str, Method);

/// The curves of one workload: a labelled sweep per method.
type Sweeps = Vec<(&'static str, Vec<SweepPoint>)>;

/// An "X at recall r" readout: what is read, the recall target, and the
/// interpolation that reads it.
type AtRecall = (&'static str, f64, fn(&[SweepPoint], f64) -> Option<f64>);
const QPS_AT_09: AtRecall = ("QPS", 0.9, qps_at_recall);
const NDIS_AT_08: AtRecall = ("ndis", 0.8, ndis_at_recall);

/// One `reproduce` invocation: where the CSVs go, the build cache its
/// experiments share, and the scorecard their at-recall readouts append to.
pub struct Run {
    out: PathBuf,
    /// Datasets, ground truth and indices built so far.
    pub cache: Cache,
    scorecard: Table,
    experiment: &'static str,
}

impl Run {
    /// A run writing its CSVs under `out`.
    pub fn new(out: PathBuf) -> Self {
        let scorecard =
            Table::new("scorecard", &["experiment", "workload", "method", "target", "value"]);
        Self { out, cache: Cache::default(), scorecard, experiment: "" }
    }

    /// Run one experiment over `n` rows and `nq` queries per workload, then
    /// rewrite `scorecard.csv` with every at-recall readout of this run so
    /// far.
    pub fn run(&mut self, experiment: &Experiment, n: usize, nq: usize) {
        // An experiment whose default `nq` is 0 runs no queries.
        let queries = if experiment.nq > 0 { format!(", nq = {nq}") } else { String::new() };
        println!("--- {} — n = {n}{queries} ---\n", experiment.name);
        self.experiment = experiment.name;
        (experiment.run)(self, n, nq);
        self.scorecard.write_csv(&self.out.join("scorecard.csv")).expect("write scorecard");
    }

    /// Print `table` and write it to `file` under the output directory.
    fn emit(&self, table: &Table, file: &str) {
        let path = self.out.join(file);
        table.write_csv(&path).expect("write csv");
        println!("{}\nCSV: {}\n", table.render(), path.display());
    }

    /// The one sweep readout: sweep each method over `ctx` (building what the
    /// cache does not hold), print and write the curve table (`table` is
    /// its title and file; Figure 11 and Table 3 have none), then print each
    /// curve's value at the recall target and append it to the scorecard.
    /// Returns the values in method order.
    fn readout(
        &mut self,
        ctx: &BenchCtx,
        methods: &[Labelled],
        efs: &[usize],
        (what, target, read): AtRecall,
        table: Option<(&str, &str)>,
    ) -> Vec<Option<f64>> {
        let sweep = |(label, method): &Labelled| {
            let built = self.cache.index(ctx.data, method);
            (*label, ctx.sweep(&built.index, &method.knob_values(efs)))
        };
        let sweeps: Sweeps = methods.iter().map(sweep).collect();
        if let Some((title, file)) = table {
            self.emit(&curve_table(title, &sweeps), file);
        }
        let workload = format!("{} n={}", ctx.workload.name, ctx.data.n);
        println!("{what} at {target} recall ({workload}):");
        let width = methods.iter().map(|(label, _)| label.len()).max().unwrap_or(0);
        let values: Vec<Option<f64>> = sweeps.iter().map(|(_, pts)| read(pts, target)).collect();
        for ((method, _), value) in methods.iter().zip(&values) {
            let cell = value.map_or(format!("below {target}"), |v| format!("{v:.1}"));
            println!("  {method:<width$} {cell:>12}");
            self.scorecard.row(vec![
                self.experiment.to_string(),
                workload.clone(),
                method.to_string(),
                format!("{what}@{target}"),
                value.map_or(String::new(), |v| format!("{v:.1}")),
            ]);
        }
        println!();
        values
    }
}

/// The standard sweep table of a workload's curves.
fn curve_table(title: &str, sweeps: &Sweeps) -> Table {
    let mut t = Table::new(
        title,
        &["method", "param", "recall@10", "QPS", "avg_ndis", "avg_npred", "pred_hit"],
    );
    for (method, points) in sweeps {
        for p in points {
            t.row(vec![
                method.to_string(),
                p.param.to_string(),
                format!("{:.4}", p.recall),
                format!("{:.0}", p.qps),
                format!("{:.1}", p.avg_ndis),
                format!("{:.1}", p.avg_npred),
                format!("{:.2}", p.pred_hit_rate()),
            ]);
        }
    }
    t
}

/// A summary-table row: `head` cells, then one "QPS at 0.9" cell per method.
fn summary_row(head: Vec<String>, qps: &[Option<f64>]) -> Vec<String> {
    let cells = qps.iter().map(|v| v.map_or("<0.9".into(), |q| format!("{q:.0}")));
    head.into_iter().chain(cells).collect()
}

fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

fn secs(build: &Build) -> String {
    format!("{:.1}", build.tti.as_secs_f64())
}

/// A bare ACORN-γ graph at the paper's parameters and this `M_β`.
fn gamma_graph(m_beta: usize) -> Method {
    Method::AcornGraph(AcornVariant::Gamma, AcornParams { m_beta, ..Default::default() })
}

/// The four methods that run on any predicate (Figures 8–11), by label.
const HCPS: [&str; 4] = ["ACORN-gamma", "ACORN-1", "HNSW post-filter", "pre-filter"];

fn hcps_methods(m_beta: usize) -> Vec<Labelled> {
    let methods =
        [Method::acorn_gamma(m_beta), Method::acorn_one(), Method::Hnsw, Method::PreFilter];
    HCPS.into_iter().zip(methods).collect()
}

/// Summary-table header: `head`, then a column per [`HCPS`] method.
fn hcps_header(head: &[&'static str]) -> Vec<&'static str> {
    [head, &HCPS].concat()
}

/// The paper's Figure 9 / 13 selectivity percentiles (1/25/50/75/99) of the
/// TripClick date filters.
const DATE_PERCENTILES: [(&str, f64); 5] =
    [("1p", 0.0127), ("25p", 0.0485), ("50p", 0.1215), ("75p", 0.2529), ("99p", 0.6164)];

/// The four datasets of Tables 4–6.
fn table_datasets(n: usize) -> [Data; 4] {
    [(Gen::Sift, 1), (Gen::Paper, 2), (Gen::TripClick, 3), (Gen::Laion, 4)]
        .map(|(gen, seed)| Data { gen, n, seed })
}

/// The facts and sealed index of a cached [`Method::AcornGraph`] build.
fn graph_of(build: &Build) -> (&AcornIndex, &GraphFacts) {
    match &build.index {
        Index::Graph(index, facts) => (index, facts),
        _ => unreachable!("an AcornGraph method builds a graph"),
    }
}

/// Table 2: base-data and query-workload characteristics of the four
/// synthetic stand-in datasets, mirroring the paper's columns (vector count,
/// dimension, structured data, predicate operators, average query
/// selectivity, predicate cardinality).
fn table2(run: &mut Run, n: usize, nq: usize) {
    let mut t = Table::new(
        "Table 2: Datasets",
        &[
            "dataset",
            "#vectors",
            "dim",
            "structured data",
            "operators",
            "avg sel",
            "pred cardinality",
        ],
    );
    let rows = [
        (Gen::Sift, 1, vec![(Queries::Equality, 2)], ["random int", "equals(y)", "12"]),
        (Gen::Paper, 3, vec![(Queries::Equality, 4)], ["random int", "equals(y)", "12"]),
        (
            Gen::TripClick,
            5,
            vec![(Queries::Area, 6), (Queries::DateRange(0.36), 7)],
            ["area list & pub date", "contains(y1∨y2∨...) & between(y1,y2)", "> 2^28"],
        ),
        (
            Gen::Laion,
            8,
            vec![(Queries::Regex, 9), (Queries::Keyword(Correlation::None), 10)],
            ["text captions & keyword list", "regex-match(y) & contains(y1∨y2∨...)", "> 10^11"],
        ),
    ];
    for (gen, seed, workloads, [structured, operators, cardinality]) in rows {
        let ds = run.cache.dataset(Data { gen, n, seed });
        let sel: Vec<f64> =
            workloads.iter().map(|(q, s)| q.generate(&ds, nq, *s).avg_selectivity()).collect();
        let avg_sel = match (gen, sel.as_slice()) {
            (Gen::TripClick, [areas, dates]) => format!("{areas:.2}, {dates:.2}"),
            (_, [a, b]) => format!("{:.3} - {:.3}", a.min(*b), a.max(*b)),
            (_, all) => format!("{:.3}", all[0]),
        };
        t.row(vec![
            ds.name.clone(),
            ds.len().to_string(),
            ds.vectors.dim().to_string(),
            structured.into(),
            operators.into(),
            avg_sel,
            cardinality.into(),
        ]);
    }
    run.emit(&t, "table2_datasets.csv");
}

/// Figure 7: recall@10 vs QPS on the LCPS datasets across every method.
///
/// Paper's finding (§7.3.1): ACORN-γ tracks the oracle partition most
/// closely and beats every practical method (2–10× the specialized
/// indices); ACORN-1 trails ACORN-γ by ~1.5–5×; post-filtering is the
/// weakest graph method and pre-filtering is throughput-bound.
fn fig7(run: &mut Run, n: usize, nq: usize) {
    let mut methods = hcps_methods(64);
    methods.extend([
        ("Oracle partition", Method::Oracle),
        ("FilteredVamana", Method::FilteredVamana),
        ("StitchedVamana", Method::StitchedVamana),
        ("NHQ", Method::Nhq),
        ("IVF-Flat", Method::IvfFlat),
        ("IVF-SQ8", Method::IvfSq8),
    ]);
    for (gen, seed) in [(Gen::Sift, 1), (Gen::Paper, 2)] {
        let ctx = run.cache.ctx(Data { gen, n, seed }, Queries::Equality, nq, 21);
        let name = ctx.ds.name.as_str();
        let title = format!("Figure 7: Recall@10 vs QPS — {name}");
        let file = format!("fig7_{}.csv", name.replace('-', "_"));
        run.readout(&ctx, &methods, &EFS, QPS_AT_09, Some((&title, &file)));
    }
}

/// Figure 8: recall@10 vs QPS on the HCPS workloads — TripClick-like
/// clinical areas and dates, LAION-like regex. The specialized indices
/// cannot run here: the predicate sets are high-cardinality and
/// non-equality, exactly the regime that motivates ACORN.
///
/// Paper's finding (§7.3.2): ACORN-γ attains 30–50× the best baseline's QPS
/// at 0.9 recall; pre-filtering is exact but slow; post-filtering cannot
/// reach high recall.
fn fig8(run: &mut Run, n: usize, nq: usize) {
    let (trip, laion) =
        (Data { gen: Gen::TripClick, n, seed: 1 }, Data { gen: Gen::Laion, n, seed: 4 });
    for (data, queries, seed, m_beta) in [
        (trip, Queries::Area, 2, 64),
        (trip, Queries::DateRange(0.36), 3, 64),
        (laion, Queries::Regex, 5, 32),
    ] {
        let ctx = run.cache.ctx(data, queries, nq, seed);
        let (label, avg_s) = (ctx.workload.name.as_str(), ctx.workload.avg_selectivity());
        let title = format!("Figure 8: Recall@10 vs QPS — {label} (avg selectivity {avg_s:.3})");
        let file = format!("fig8_{}.csv", label.replace(['/', '-'], "_").replace('.', "p"));
        run.readout(&ctx, &hcps_methods(m_beta), &EFS, QPS_AT_09, Some((&title, &file)));
    }
}

/// Figure 9: varied predicate selectivity on TripClick-like date filters,
/// at the paper's five selectivity percentiles.
///
/// Paper's finding (§7.3.2): ACORN-γ wins at every percentile; pre-filter is
/// the runner-up at low selectivity (s ≈ 0.01) and fades as selectivity
/// grows; post-filter is the opposite. ACORN's planner exploits exactly
/// this crossover: it scans a segment below `s_min`, and above it wherever
/// the exact scan is predicted to cost less than the traversal.
fn fig9(run: &mut Run, n: usize, nq: usize) {
    let data = Data { gen: Gen::TripClick, n, seed: 1 };
    let mut summary = Table::new(
        "Figure 9 summary: QPS at 0.9 recall per selectivity percentile",
        &hcps_header(&["selectivity"]),
    );
    for (pct, s) in DATE_PERCENTILES {
        let ctx = run.cache.ctx(data, Queries::DateRange(s), nq, 7);
        let avg_s = ctx.workload.avg_selectivity();
        let title = format!("Figure 9 ({pct}, target s = {s}, achieved {avg_s:.4})");
        let file = format!("fig9_{pct}.csv");
        let qps = run.readout(&ctx, &hcps_methods(128), &EFS, QPS_AT_09, Some((&title, &file)));
        summary.row(summary_row(vec![format!("{pct} ({avg_s:.4})")], &qps));
    }
    run.emit(&summary, "fig9_summary.csv");
}

/// Figure 10: varied query correlation on LAION-like keyword workloads
/// (negative / none / positive), with the measured correlation statistic
/// `C(D, Q)` (§3.2.1) per workload to confirm the generators produce the
/// intended regimes.
///
/// Paper's finding (§7.3.2): ACORN-γ is robust across all three regimes
/// (28–100× the next best baseline); post-filtering collapses under negative
/// correlation because its candidates can't route toward passing nodes;
/// pre-filtering is correlation-insensitive but slow.
fn fig10(run: &mut Run, n: usize, nq: usize) {
    let data = Data { gen: Gen::Laion, n, seed: 1 };
    let mut summary = Table::new(
        "Figure 10 summary: QPS at 0.9 recall per correlation regime",
        &hcps_header(&["workload", "C(D,Q)"]),
    );
    for corr in [Correlation::Negative, Correlation::None, Correlation::Positive] {
        let ctx = run.cache.ctx(data, Queries::Keyword(corr), nq, 5);
        let (ds, label) = (&ctx.ds, corr.label());
        let cdq =
            query_correlation(&ds.vectors, &ds.attrs, Metric::L2, &ctx.workload.queries, 3, 11);
        let avg_s = ctx.workload.avg_selectivity();
        let title = format!("Figure 10 ({label}, avg selectivity {avg_s:.3}, C(D,Q) = {cdq:.3})");
        let file = format!("fig10_{}.csv", label.replace('-', "_"));
        let qps = run.readout(&ctx, &hcps_methods(32), &EFS, QPS_AT_09, Some((&title, &file)));
        summary.row(summary_row(vec![label.to_string(), format!("{cdq:.3}")], &qps));
    }
    run.emit(&summary, "fig10_summary.csv");
}

/// Figure 11: dataset-size scaling on the LAION-like no-correlation keyword
/// workload, over a doubling ladder of `n` up to the configured size.
///
/// Paper's finding (§7.3.2): the gap between ACORN and the baselines *grows*
/// with dataset size (three orders of magnitude at 25M); the trend, not the
/// absolute scale, is the target.
fn fig11(run: &mut Run, max_n: usize, nq: usize) {
    let mut sizes: Vec<usize> =
        (0..4).map(|halvings| max_n >> halvings).take_while(|&n| n >= 5000).collect();
    sizes.reverse();
    println!("sizes {sizes:?}\n");
    let mut summary =
        Table::new("Figure 11 summary: QPS at 0.9 recall vs dataset size", &hcps_header(&["n"]));
    // Larger datasets need wider beams to cross the 0.9 recall bar.
    let efs = [&EFS[..], &[640, 1280]].concat();
    for n in sizes {
        let data = Data { gen: Gen::Laion, n, seed: 1 };
        let ctx = run.cache.ctx(data, Queries::Keyword(Correlation::None), nq, 2);
        let qps = run.readout(&ctx, &hcps_methods(32), &efs, QPS_AT_09, None);
        summary.row(summary_row(vec![n.to_string()], &qps));
    }
    run.emit(&summary, "fig11_scaling.csv");
}

/// Table 3: distance computations to reach recall@10 = 0.8 on the LCPS
/// datasets, relative to the oracle partition index.
///
/// Paper's finding (§7.3.1): oracle < ACORN-γ < ACORN-1 < HNSW post-filter,
/// with ACORN-γ within tens of percent of the oracle while the post-filter
/// needs several times more distance computations. The ACORN rows search
/// the bare graphs, as the paper's do: through the planner a segment may
/// scan its passing rows instead, and the cell would count those.
fn table3(run: &mut Run, n: usize, nq: usize) {
    let methods = [
        ("Oracle Partition", Method::Oracle),
        ("ACORN-gamma", gamma_graph(64)),
        ("ACORN-1", Method::AcornGraph(AcornVariant::One, AcornParams::default())),
        ("HNSW Post-filter", Method::Hnsw),
    ];
    let mut t = Table::new(
        "Table 3: # Distance Computations to Achieve 0.8 Recall",
        &["dataset", "method", "ndis@0.8", "vs oracle"],
    );
    for (gen, seed) in [(Gen::Sift, 1), (Gen::Paper, 2)] {
        let ctx = run.cache.ctx(Data { gen, n, seed }, Queries::Equality, nq, 11);
        let ndis = run.readout(&ctx, &methods, &EFS, NDIS_AT_08, None);
        for ((method, _), value) in methods.iter().zip(&ndis) {
            let cell = value.map_or("recall target not reached".into(), |v| format!("{v:.1}"));
            let rel = match (value, ndis[0]) {
                (Some(v), Some(o)) if o > 0.0 => format!("{:+.1}%", (v - o) / o * 100.0),
                _ => "-".into(),
            };
            t.row(vec![ctx.ds.name.clone(), method.to_string(), cell, rel]);
        }
    }
    run.emit(&t, "table3_distcomps.csv");
}

/// The five index cells of a Table 4 / 5 row — ACORN-γ, ACORN-1, HNSW,
/// FilteredVamana, StitchedVamana — each read off its cached build by
/// `cell`; the Vamana variants only support equality labels (LCPS datasets)
/// and read `NA` elsewhere.
fn table_cells(run: &mut Run, data: Data, cell: impl Fn(&Build) -> String) -> Vec<String> {
    let lcps = run.cache.dataset(data).attrs.field("label").is_some();
    let methods = [
        gamma_graph(64),
        Method::AcornGraph(AcornVariant::One, AcornParams::default()),
        Method::Hnsw,
        Method::FilteredVamana,
        Method::StitchedVamana,
    ];
    let cells = methods.iter().map(|method| {
        let needs_labels = matches!(method, Method::FilteredVamana | Method::StitchedVamana);
        if needs_labels && !lcps {
            "NA".to_string()
        } else {
            cell(&run.cache.index(data, method))
        }
    });
    cells.collect()
}

/// Table 4: time-to-index in seconds.
///
/// Paper's finding (§7.4.1): ACORN-1 builds fastest of all listed methods
/// (9–53× lower TTI than ACORN-γ); ACORN-γ costs up to ~11× HNSW due to its
/// `M·γ` candidate generation; StitchedVamana is the slowest specialized
/// index.
fn table4(run: &mut Run, n: usize, _nq: usize) {
    let mut t = Table::new(
        "Table 4: TTI (s)",
        &["dataset", "ACORN-gamma", "ACORN-1", "HNSW", "FilteredVamana", "StitchedVamana"],
    );
    for data in table_datasets(n) {
        let name = run.cache.dataset(data).name.clone();
        t.row([vec![name], table_cells(run, data, secs)].concat());
    }
    run.emit(&t, "table4_tti.csv");
}

/// Table 5: total space footprint (vector storage + index structures) in MB.
/// "ACORN-gamma CSR" is the same ACORN-γ graph once sealed: one flat
/// offsets/targets arena per level instead of nested `Vec`s. "CSR+SQ8" swaps
/// the f32 rows for SQ8 codes (codes + codebook + norms): the footprint a
/// quantized segment would reach if its exact rows need not stay resident.
/// No segment serves from SQ8 codes today.
///
/// Paper's finding: ACORN-γ is at most ~1.3× HNSW and smaller than
/// StitchedVamana; ACORN-1 sits between HNSW and ACORN-γ; the flat index is
/// the floor.
fn table5(run: &mut Run, n: usize, _nq: usize) {
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
    for data in table_datasets(n) {
        let ds = run.cache.dataset(data);
        let vec_bytes = ds.vectors.memory_bytes();
        let [gamma, one, hnsw, fv, sv]: [String; 5] = table_cells(run, data, |build| {
            mb(vec_bytes
                + match &build.index {
                    Index::Graph(_, facts) => facts.nested_bytes,
                    Index::Hnsw(pf) => pf.index().graph().memory_bytes(),
                    Index::FilteredVamana(fv) => fv.memory_bytes(),
                    Index::StitchedVamana(sv) => sv.memory_bytes(),
                    _ => unreachable!("not a Table 5 method"),
                })
        })
        .try_into()
        .expect("five methods");
        let csr_bytes = graph_of(&run.cache.index(data, &gamma_graph(64))).0.memory_bytes();
        let sq8_bytes = Sq8Store::train(&ds.vectors).memory_bytes();
        let (csr, csr_sq8) = (mb(vec_bytes + csr_bytes), mb(sq8_bytes + csr_bytes));
        t.row(vec![ds.name.clone(), gamma, csr, csr_sq8, one, hnsw, mb(vec_bytes), fv, sv]);
    }
    run.emit(&t, "table5_size.csv");
}

/// Table 6: ACORN-γ average out-degree per level.
///
/// Paper's finding (§7.4.2): level 0 (compressed) stays near `M_β + O(M)`
/// while uncompressed upper levels approach the full `M·γ` budget,
/// confirming the compression targets exactly the level that dominates the
/// footprint.
fn table6(run: &mut Run, n: usize, _nq: usize) {
    let mut t = Table::new(
        "Table 6: ACORN-gamma Average Out Degree",
        &["dataset", "level", "#nodes", "avg out-degree", "max out-degree"],
    );
    for (data, m_beta) in table_datasets(n).into_iter().zip([32, 32, 64, 16]) {
        let build = run.cache.index(data, &gamma_graph(m_beta));
        let (index, facts) = graph_of(&build);
        let name = &run.cache.dataset(data).name;
        for s in &facts.levels {
            let level = if s.level == 0 { "0 (compressed)".into() } else { s.level.to_string() };
            let (avg, max) = (format!("{:.1}", s.avg_out_degree), s.max_out_degree.to_string());
            t.row(vec![name.clone(), level, s.nodes.to_string(), avg, max]);
        }
        let budget = index.params().edge_budget().to_string();
        t.row(vec![name.clone(), "M*gamma".into(), "-".into(), budget, "-".into()]);
        t.row(vec![name.clone(), "M_beta".into(), "-".into(), m_beta.to_string(), "-".into()]);
    }
    run.emit(&t, "table6_degrees.csv");
}

/// The SIFT-like equality workload the graph ablations share.
fn ablation_ctx(run: &mut Run, n: usize, nq: usize) -> Arc<BenchCtx> {
    run.cache.ctx(Data { gen: Gen::Sift, n, seed: 1 }, Queries::Equality, nq, 2)
}

/// One build's recall and QPS cells on `ctx` at `efs = 64`.
fn at_efs_64(ctx: &BenchCtx, build: &Build) -> [String; 2] {
    let p = &ctx.sweep(&build.index, &[64])[0];
    [format!("{:.4}", p.recall), format!("{:.0}", p.qps)]
}

/// Figure 12: the pruning ablation on the SIFT-like dataset. Compares, at
/// level 0: (i) ACORN's predicate-agnostic compression at several `M_β`
/// values (smaller = more aggressive), (ii) the metadata-aware RNG pruning
/// (FilteredDiskANN's approach, needs labels), and (iii) HNSW's
/// metadata-blind RNG pruning. Reports TTI (a), space footprint via average
/// level-0 out-degree (b), candidate edges pruned (c), and hybrid search
/// performance (d).
///
/// Paper's finding (§7.4.2): ACORN's pruning cuts TTI and space while
/// *keeping* search performance; metadata-blind pruning destroys hybrid
/// recall; metadata-aware pruning matches search quality but is less
/// efficient at small `M_β`.
fn fig12(run: &mut Run, n: usize, nq: usize) {
    let ctx = ablation_ctx(run, n, nq);
    let budget = AcornParams::default().edge_budget();
    // ACORN compression at several M_β, then the two RNG strategies (the
    // paper plots them at a fixed target degree). At `M_β = M·γ` the
    // compression keeps every candidate: the "no prune" row.
    let mut variants: Vec<(String, usize, PruneStrategy)> = [16, 32, 64, 128, 256]
        .map(|m_beta| (format!("ACORN Mb={m_beta}"), m_beta, PruneStrategy::AcornCompress))
        .into();
    variants.extend([
        (format!("ACORN Mb={budget} (no prune)"), budget, PruneStrategy::AcornCompress),
        ("RNG metadata-aware".into(), 32, PruneStrategy::RngMetadataAware),
        ("RNG metadata-blind (HNSW)".into(), 32, PruneStrategy::RngBlind),
    ]);
    let mut t = Table::new(
        "Figure 12: Pruning strategies (a: TTI, b: space, c: edges pruned, d: search perf)",
        &["strategy", "TTI (s)", "lvl0 avg deg", "edges pruned", "recall@efs=64", "QPS@efs=64"],
    );
    for (label, m_beta, prune) in variants {
        let params = AcornParams { m_beta, prune, ..Default::default() };
        let build = run.cache.index(ctx.data, &Method::AcornGraph(AcornVariant::Gamma, params));
        let (index, facts) = graph_of(&build);
        let [recall, qps] = at_efs_64(&ctx, &build);
        let lvl0 = format!("{:.1}", facts.levels[0].avg_out_degree);
        t.row(vec![label, secs(&build), lvl0, index.edges_pruned().to_string(), recall, qps]);
    }
    run.emit(&t, "fig12_pruning.csv");
}

/// Figure 13: predicate-subgraph quality vs the HNSW oracle partition, on
/// TripClick-like date predicates at the paper's five selectivity
/// percentiles. For one representative predicate per percentile, compares
/// (a) strongly connected components per level, (b) graph height, and (c)
/// average (filtered, truncated) out-degree between ACORN-γ's predicate
/// subgraph and an HNSW index built directly over the passing records.
///
/// Paper's finding (§7.4.3): ACORN's predicate subgraphs match or exceed the
/// oracle's connectivity, emulate its controlled hierarchy, and keep
/// out-degrees close to (and bounded by) `M`.
fn fig13(run: &mut Run, n: usize, _nq: usize) {
    let data = Data { gen: Gen::TripClick, n, seed: 1 };
    let ds = run.cache.dataset(data);
    let (m, m_beta) = (AcornParams::default().m, 64);
    let build = run.cache.index(data, &gamma_graph(m_beta));
    let graph = graph_of(&build).0.csr().expect("a cached graph is sealed");
    let mut t = Table::new(
        "Figure 13: predicate-subgraph quality (ACORN-gamma vs HNSW oracle partition)",
        &[
            "selectivity",
            "index",
            "height",
            "SCC per level (bottom..top)",
            "avg out-degree per level",
            "nodes per level",
        ],
    );
    for (pct, s) in DATE_PERCENTILES {
        // One representative predicate at this percentile.
        let q = &Queries::DateRange(s).generate(&ds, 1, 7).queries[0];
        let filter = BitmapFilter::from_predicate(&ds.attrs, &q.predicate);
        let passing: Vec<u32> = filter.bits().to_ids();
        // ACORN's predicate subgraph under the search-time lookup (filter +
        // truncate, with level-0 two-hop recovery) ...
        let acorn = predicate_subgraph_quality_with(graph, &filter, m, Some(m_beta));
        // ... against an HNSW over exactly the passing records.
        eprintln!("[{pct}] building oracle partition over {} records...", passing.len());
        let oracle = HnswIndex::build(Arc::new(ds.vectors.subset(&passing)), HnswParams::default());
        let oracle = predicate_subgraph_quality(oracle.graph(), &AllPass, usize::MAX);
        for (index, quality) in [("ACORN-gamma subgraph", acorn), ("HNSW oracle partition", oracle)]
        {
            let degrees: Vec<f64> = quality
                .avg_out_degree_per_level
                .iter()
                .map(|d| (d * 10.0).round() / 10.0)
                .collect();
            t.row(vec![
                format!("{pct} ({:.4})", q.selectivity),
                index.into(),
                quality.height.to_string(),
                format!("{:?}", quality.scc_per_level),
                format!("{degrees:?}"),
                format!("{:?}", quality.nodes_per_level),
            ]);
        }
    }
    run.emit(&t, "fig13_graph_quality.csv");
}

/// Ablation (§8 related-work claim): Qdrant's densification flattens the
/// HNSW hierarchy by tying `mL` to the enlarged degree, which Malkov et al.
/// show degrades search. ACORN densifies while *keeping* `mL = 1/ln(M)`.
/// Builds ACORN-γ twice — once normally, once with the flattened level
/// sampler — and compares hierarchy height and the hybrid recall-QPS curve
/// on the SIFT-like equality workload.
fn ablation_flatten(run: &mut Run, n: usize, nq: usize) {
    let ctx = ablation_ctx(run, n, nq);
    let flat = AcornParams { flatten_hierarchy: true, ..Default::default() };
    let methods = [
        ("ACORN-gamma (mL=1/lnM)", gamma_graph(64)),
        ("flattened (mL=1/ln(M*g))", Method::AcornGraph(AcornVariant::Gamma, flat)),
    ];
    let [normal, flat] =
        methods.clone().map(|(_, m)| graph_of(&run.cache.index(ctx.data, &m)).1.levels.len());
    println!("graph height: ACORN = {normal} levels, flattened = {flat} levels\n");
    let title = "Ablation: hierarchy vs flattening (SIFT-like equality)";
    run.readout(&ctx, &methods, &EFS, QPS_AT_09, Some((title, "ablation_flatten.csv")));
}

/// Ablation (§6.1 extension): generalized multi-level compression. The
/// paper compresses only level 0 but notes compression "could be applied to
/// more levels in bottom-up order to further reduce the index size", with
/// per-node memory `O(n_c(M_β + M) + (mL − n_c)(M·γ))`. Sweeps `n_c` and
/// reports index size, TTI, and hybrid search performance on the SIFT-like
/// equality workload.
fn ablation_multilevel(run: &mut Run, n: usize, nq: usize) {
    let ctx = ablation_ctx(run, n, nq);
    let mut t = Table::new(
        "Ablation: compressed levels n_c (SIFT-like equality)",
        &["n_c", "TTI (s)", "index MB", "lvl1 avg deg", "recall@efs=64", "QPS@efs=64"],
    );
    for n_c in 1..=3 {
        let params = AcornParams { compressed_levels: n_c, ..Default::default() };
        let build = run.cache.index(ctx.data, &Method::AcornGraph(AcornVariant::Gamma, params));
        let facts = graph_of(&build).1;
        let lvl1 = facts.levels.get(1).map_or(0.0, |s| s.avg_out_degree);
        let [recall, qps] = at_efs_64(&ctx, &build);
        let size = mb(facts.nested_bytes);
        t.row(vec![n_c.to_string(), secs(&build), size, format!("{lvl1:.1}"), recall, qps]);
    }
    run.emit(&t, "ablation_multilevel.csv");
}

/// The `serve` query classes: year ranges at three selectivities, then
/// keyword filters drawn from the query vector's own cluster and from the
/// cluster farthest from it (~0.06 selectivity each).
const SERVE_CLASSES: [(&str, Queries); 5] = [
    ("s0.01", Queries::DateRange(0.01)),
    ("s0.1", Queries::DateRange(0.1)),
    ("s0.5", Queries::DateRange(0.5)),
    ("pos-cor", Queries::Keyword(Correlation::Positive)),
    ("neg-cor", Queries::Keyword(Correlation::Negative)),
];

/// The `serve` stage table's row for one class: one traced pass over its
/// queries at every efs of the sweep, as per-query means of the stage
/// times (µs) and of the segments each route served, the share of queries
/// the predicate's ordered index served, and the mean rows the predicate
/// program ran on.
fn stage_row(class: &str, ctx: &BenchCtx, snap: &SegmentSnapshot) -> Vec<String> {
    let mut scratch = SearchScratch::new(snap.max_segment_rows());
    let mut trace = QueryTrace::default();
    let (mut ns, mut scanned, mut segments, mut queries) = ([0u64; 4], 0, 0, 0);
    let (mut ordered, mut predicate_rows) = (0, 0);
    let attrs = &ctx.ds.attrs;
    for efs in EFS {
        for q in &ctx.workload.queries {
            let (v, p) = (&q.vector, &q.predicate);
            snap.try_hybrid_search_traced(v, p, attrs, K, efs, &mut scratch, &mut trace)
                .expect("serve queries are well-formed");
            let stages = [trace.compile_ns, trace.materialize_ns, trace.scan_ns, trace.traverse_ns];
            ns.iter_mut().zip(stages).for_each(|(sum, t)| *sum += t);
            scanned += trace.segments.iter().filter(|s| s.route == Route::Scan).count();
            segments += trace.segments.len();
            ordered += usize::from(trace.ordered);
            predicate_rows += trace.segments.iter().map(|s| s.stats.npred_evaluated()).sum::<u64>();
            queries += 1;
        }
    }
    let mean = |x: f64| format!("{:.1}", x / queries.max(1) as f64);
    let mut row = vec![class.to_string()];
    row.extend(ns.map(|t| mean(t as f64 / 1e3)));
    row.extend([mean(scanned as f64), mean((segments - scanned) as f64)]);
    row.extend([
        mean(ordered as f64 * 100.0),
        format!("{:.0}", predicate_rows as f64 / queries.max(1) as f64),
    ]);
    row
}

/// The serving run: ACORN-γ at the paper's parameters over the correlated
/// corpus, loaded the way a large index is (one sealed segment per
/// `SEGMENT_ROWS` rows: ten at 1M, each routed on its exact passing
/// count), and queried through the planner. Each class is swept over efs with recall@10 against exact
/// ground truth; the summary reads QPS at recall 0.9 per class beside the
/// index's segment count (every query visits every segment), load rows/s
/// and resident bytes per row. A traced pass per class then prints (to
/// stdout only, no CSV) where a query's time goes: compile, materialize,
/// scan and traverse µs per query, the segments scanned and traversed, the
/// percentage of queries the predicate's ordered index served, and the
/// rows the predicate program ran on per query.
///
/// # Panics
/// Panics, after writing the summary, when a class reaches recall 0.9 at no
/// efs of the sweep: the recall floor this run gates.
fn serve(run: &mut Run, n: usize, nq: usize) {
    let data = Data { gen: Gen::Correlated, n, seed: 1 };
    let acorn = [("ACORN-gamma", Method::acorn_gamma(64))];
    let mut summary = Table::new(
        "serve: ACORN-gamma per query class",
        &["class", "avg sel", "QPS@0.9", "segments", "load rows/s", "bytes/row"],
    );
    let mut stages = Table::new(
        "serve: per-query stages (µs; traced, one pass per efs of the sweep)",
        &[
            "class",
            "compile",
            "materialize",
            "scan",
            "traverse",
            "scanned",
            "traversed",
            "ordered %",
            "pred rows",
        ],
    );
    let mut below = Vec::new();
    for (seed, (class, queries)) in (1..).zip(SERVE_CLASSES) {
        let ctx = run.cache.ctx(data, queries, nq, seed);
        let avg_s = ctx.workload.avg_selectivity();
        let title = format!("serve ({class}, avg selectivity {avg_s:.4})");
        let file = format!("serve_{}.csv", class.replace('.', "p").replace('-', "_"));
        let qps = run.readout(&ctx, &acorn, &EFS, QPS_AT_09, Some((&title, &file)));
        let build = run.cache.index(data, &acorn[0].1);
        let Index::Segment(snap) = &build.index else {
            unreachable!("an Acorn method builds a segmented index")
        };
        let head = vec![class.to_string(), format!("{avg_s:.4}")];
        let mut row = summary_row(head, &qps);
        row.push(snap.num_segments().to_string());
        row.push(format!("{:.0}", n as f64 / build.tti.as_secs_f64()));
        row.push(format!("{:.1}", snap.memory_bytes() as f64 / n as f64));
        summary.row(row);
        stages.row(stage_row(class, &ctx, snap));
        if qps[0].is_none() {
            below.push(class);
        }
    }
    run.emit(&summary, "serve_summary.csv");
    println!("{}\n", stages.render());
    assert!(below.is_empty(), "serve: {below:?} never reach recall 0.9 over efs {EFS:?}");
}
