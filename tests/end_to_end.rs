//! End-to-end integration tests: recall floors and correctness contracts
//! for every index on seeded workloads, spanning all workspace crates.

use acorn::baselines::{OraclePartitionIndex, PostFilterHnsw, PreFilter};
use acorn::data::datasets::{laion_like, sift_like, tripclick_like};
use acorn::data::workloads::{
    date_range_workload, equality_workload, keyword_workload, regex_workload, Correlation,
};
use acorn::data::{ground_truth, HybridDataset, Workload};
use acorn::eval::{recall_at_k, workload_recall};
use acorn::prelude::*;

/// The dataset as one bulk-loaded segment: global id == row id.
fn one_segment(
    ds: &HybridDataset,
    params: AcornParams,
    variant: AcornVariant,
) -> SegmentedAcornIndex {
    let mut idx = SegmentedAcornIndex::new(ds.vectors.dim(), params, variant);
    idx.bulk_load(VectorStore::clone(&ds.vectors));
    idx
}

fn acorn_recall(
    ds: &HybridDataset,
    w: &Workload,
    variant: AcornVariant,
    params: AcornParams,
    efs: usize,
) -> f64 {
    let truth = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10, 0);
    let snap = one_segment(ds, params, variant).snapshot();
    let mut scratch = SearchScratch::new(ds.len());
    let got: Vec<Vec<u32>> = w
        .queries
        .iter()
        .map(|q| {
            let (hits, _) =
                snap.hybrid_search(&q.vector, &q.predicate, &ds.attrs, 10, efs, &mut scratch);
            hits.iter().map(|n| n.id as u32).collect()
        })
        .collect();
    workload_recall(&got, &truth, 10)
}

fn paper_params() -> AcornParams {
    AcornParams { m: 32, gamma: 12, m_beta: 64, ef_construction: 40, ..Default::default() }
}

#[test]
fn acorn_gamma_equality_recall_floor() {
    let ds = sift_like(6000, 1);
    let w = equality_workload(&ds, 25, 2);
    let r = acorn_recall(&ds, &w, AcornVariant::Gamma, paper_params(), 80);
    assert!(r >= 0.9, "ACORN-gamma recall@10 = {r} < 0.9 on equality workload");
}

#[test]
fn acorn_one_equality_recall_floor() {
    let ds = sift_like(6000, 3);
    let w = equality_workload(&ds, 25, 4);
    let r = acorn_recall(&ds, &w, AcornVariant::One, paper_params(), 160);
    assert!(r >= 0.8, "ACORN-1 recall@10 = {r} < 0.8 on equality workload");
}

#[test]
fn acorn_gamma_keyword_recall_all_correlations() {
    let ds = laion_like(5000, 5);
    for corr in [Correlation::Negative, Correlation::None, Correlation::Positive] {
        let w = keyword_workload(&ds, corr, 15, 6);
        let params =
            AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() };
        let r = acorn_recall(&ds, &w, AcornVariant::Gamma, params, 80);
        assert!(r >= 0.85, "ACORN-gamma recall {r} < 0.85 under {corr:?} correlation");
    }
}

#[test]
fn acorn_gamma_regex_workload() {
    let ds = laion_like(4000, 7);
    let w = regex_workload(&ds, 10, 8);
    let params =
        AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() };
    let r = acorn_recall(&ds, &w, AcornVariant::Gamma, params, 80);
    assert!(r >= 0.85, "ACORN-gamma recall {r} < 0.85 on regex workload");
}

#[test]
fn acorn_date_ranges_across_selectivities() {
    let ds = tripclick_like(4000, 9);
    for target in [0.05, 0.25, 0.6] {
        let w = date_range_workload(&ds, target, 10, 10);
        let params = AcornParams {
            m: 32,
            gamma: 12,
            m_beta: 128,
            ef_construction: 40,
            ..Default::default()
        };
        let r = acorn_recall(&ds, &w, AcornVariant::Gamma, params, 80);
        assert!(r >= 0.85, "recall {r} < 0.85 at target selectivity {target}");
    }
}

#[test]
fn results_always_pass_predicate_even_under_bad_estimates() {
    // §5.2: selectivity-estimation errors may cost efficiency, never
    // correctness. Force both routing decisions and check result validity.
    let ds = sift_like(3000, 11);
    let field = ds.attrs.field("label").unwrap();
    let snap = one_segment(&ds, paper_params(), AcornVariant::Gamma).snapshot();
    let graph = snap.frozen_segments()[0].index();
    let mut scratch = SearchScratch::new(ds.len());
    let q = ds.vectors.get(0).to_vec();

    for value in 1..=12 {
        let pred = Predicate::Equals { field, value };
        let (hits, _) = snap.hybrid_search(&q, &pred, &ds.attrs, 10, 64, &mut scratch);
        for h in &hits {
            assert_eq!(ds.attrs.int(field, h.id as u32), value, "invalid result for label {value}");
        }

        // Graph-only path (as if the estimate wrongly said "not selective").
        let filter = PredicateFilter::new(&ds.attrs, &pred);
        let mut stats = SearchStats::default();
        let hits = graph.search_filtered(&q, &filter, 10, 64, &mut scratch, &mut stats);
        for h in &hits {
            assert_eq!(ds.attrs.int(field, h.id), value);
        }

        // Forced pre-filter path (as if the estimate wrongly said "selective").
        let mut stats = SearchStats::default();
        let hits = graph.prefilter_scan(&q, &filter, 10, &mut stats);
        for h in &hits {
            assert_eq!(ds.attrs.int(field, h.id), value);
        }
        assert!(stats.fallback);
    }
}

#[test]
fn hybrid_fallback_is_equivalent_to_explicit_prefilter_scan() {
    // §5.2: when a query routes below s_min, hybrid_search must answer with
    // exactly the pre-filter scan — same ids, same distances, exact results.
    let ds = sift_like(3000, 21);
    let field = ds.attrs.field("label").unwrap();
    // s_min raised to 0.5 so the ≈ 1/12-selectivity equality predicate
    // routes to the fallback deterministically (no estimator borderline).
    let params = AcornParams { s_min_override: Some(0.5), ..paper_params() };
    let snap = one_segment(&ds, params, AcornVariant::Gamma).snapshot();
    let mut scratch = SearchScratch::new(ds.len());

    let pred = Predicate::Equals { field, value: 3 };
    let filter = PredicateFilter::new(&ds.attrs, &pred);

    for qi in [0u32, 100, 2000] {
        let q = ds.vectors.get(qi).to_vec();
        let (hybrid, stats) = snap.hybrid_search(&q, &pred, &ds.attrs, 10, 64, &mut scratch);
        assert!(stats.fallback, "predicate must route to the fallback");

        let mut scan_stats = SearchStats::default();
        let graph = snap.frozen_segments()[0].index();
        let scan = graph.prefilter_scan(&q, &filter, 10, &mut scan_stats);
        let h: Vec<(u32, f32)> = hybrid.iter().map(|n| (n.id as u32, n.dist)).collect();
        let s: Vec<(u32, f32)> = scan.iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(h, s, "fallback answer must equal an explicit prefilter_scan");

        // And both must agree with brute force (the fallback is exact).
        let mut truth: Vec<(f32, u32)> = (0..ds.len() as u32)
            .filter(|&i| ds.attrs.int(field, i) == 3)
            .map(|i| (Metric::L2.distance(ds.vectors.get(i), &q), i))
            .collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<u64> = truth.iter().take(10).map(|&(_, i)| u64::from(i)).collect();
        assert_eq!(hybrid.iter().map(|n| n.id).collect::<Vec<_>>(), want);
    }
}

#[test]
fn query_engine_batch_matches_per_query_calls_end_to_end() {
    let ds = sift_like(2500, 23);
    let w = equality_workload(&ds, 12, 24);
    let batch: Vec<(&[f32], &Predicate)> =
        w.queries.iter().map(|q| (q.vector.as_slice(), &q.predicate)).collect();
    let pairs = |results: &[Vec<GlobalNeighbor>]| -> Vec<Vec<(u64, f32)>> {
        results.iter().map(|r| r.iter().map(|n| (n.id, n.dist)).collect()).collect()
    };

    // (a) The static corpus served as one bulk-loaded frozen segment, where
    // local row id == global id ...
    let static_corpus = one_segment(&ds, paper_params(), AcornVariant::Gamma);
    // ... and (b) the same rows trickled in across three segments, with
    // every 7th row deleted.
    let mut churned =
        SegmentedAcornIndex::new(ds.vectors.dim(), paper_params(), AcornVariant::Gamma);
    for i in 0..ds.len() {
        churned.insert(ds.vectors.get(i as u32));
        if i == 900 || i == 1800 {
            churned.freeze();
        }
    }
    for gid in (0..ds.len() as u64).step_by(7) {
        churned.delete(gid);
    }

    // Whatever the shape, a batch answers like a per-query loop over the
    // same pinned snapshot, at every thread count.
    let mut scratch = SearchScratch::new(ds.len());
    let mut check = |idx: &SegmentedAcornIndex| {
        let snap = idx.snapshot();
        let sequential: Vec<Vec<GlobalNeighbor>> = batch
            .iter()
            .map(|(q, p)| snap.hybrid_search(q, p, &ds.attrs, 10, 64, &mut scratch).0)
            .collect();
        for threads in [1, 2, 4] {
            let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
            let out = engine.hybrid_search_batch(&batch, &ds.attrs, 10, 64);
            assert_eq!(
                pairs(&out.results),
                pairs(&sequential),
                "engine batch diverged at {threads} threads"
            );
        }
        pairs(&sequential)
    };
    check(&static_corpus);
    let churned_answers = check(&churned);
    for (gid, _) in churned_answers.iter().flatten() {
        assert!(gid % 7 != 0, "deleted gid {gid} surfaced");
    }
}

#[test]
fn empty_predicate_result_returns_empty_not_panic() {
    let ds = sift_like(1000, 13);
    let field = ds.attrs.field("label").unwrap();
    let idx = one_segment(&ds, paper_params(), AcornVariant::Gamma);
    let mut scratch = SearchScratch::new(ds.len());
    let pred = Predicate::Equals { field, value: 99 }; // no record has label 99
    let q = ds.vectors.get(0).to_vec();
    let (hits, stats) = idx.snapshot().hybrid_search(&q, &pred, &ds.attrs, 10, 64, &mut scratch);
    assert!(hits.is_empty());
    assert!(stats.fallback, "zero-selectivity predicate must route to the fallback");
}

#[test]
fn acorn_beats_postfilter_on_negative_correlation() {
    // Figure 10(a): under negative correlation, post-filtering cannot reach
    // the recall ACORN attains at comparable work.
    let ds = laion_like(5000, 15);
    let w = keyword_workload(&ds, Correlation::Negative, 15, 16);
    let truth = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10, 0);

    let acorn = AcornIndex::build(
        ds.vectors.clone(),
        AcornParams { m: 32, gamma: 12, m_beta: 32, ef_construction: 40, ..Default::default() },
        AcornVariant::Gamma,
    );
    let post = PostFilterHnsw::build(
        ds.vectors.clone(),
        HnswParams { m: 32, ef_construction: 40, ..Default::default() },
    );

    let mut scratch = SearchScratch::new(ds.len());
    let mut acorn_recall_sum = 0.0;
    let mut post_recall_sum = 0.0;
    for (q, t) in w.queries.iter().zip(&truth) {
        let filter = PredicateFilter::new(&ds.attrs, &q.predicate);
        let mut stats = SearchStats::default();
        let a = acorn.search_filtered(&q.vector, &filter, 10, 80, &mut scratch, &mut stats);
        let a_ids: Vec<u32> = a.iter().map(|n| n.id).collect();
        acorn_recall_sum += recall_at_k(&a_ids, t, 10);

        let mut stats = SearchStats::default();
        // Same beam width for the post-filter.
        let p = post.search(&q.vector, &filter, 10, 80, q.selectivity, &mut scratch, &mut stats);
        let p_ids: Vec<u32> = p.iter().map(|n| n.id).collect();
        post_recall_sum += recall_at_k(&p_ids, t, 10);
    }
    let nq = w.queries.len() as f64;
    assert!(
        acorn_recall_sum / nq > post_recall_sum / nq,
        "ACORN ({}) must beat post-filtering ({}) under negative correlation",
        acorn_recall_sum / nq,
        post_recall_sum / nq
    );
}

#[test]
fn oracle_partition_is_best_and_prefilter_is_exact() {
    let ds = sift_like(4000, 17);
    let w = equality_workload(&ds, 15, 18);
    let truth = ground_truth(&ds.vectors, &ds.attrs, Metric::L2, &w.queries, 10, 0);
    let field = ds.attrs.field("label").unwrap();
    let labels: Vec<i64> = (0..ds.len() as u32).map(|i| ds.attrs.int(field, i)).collect();

    let oracle = OraclePartitionIndex::build_from_labels(
        &ds.vectors,
        &labels,
        HnswParams { m: 32, ef_construction: 40, ..Default::default() },
    );
    let prefilter = PreFilter::new(ds.vectors.clone(), Metric::L2);

    let mut scratch = SearchScratch::new(ds.len());
    for (q, t) in w.queries.iter().zip(&truth) {
        let label = match &q.predicate {
            Predicate::Equals { value, .. } => *value,
            _ => unreachable!(),
        };
        let mut stats = SearchStats::default();
        let o = oracle.search(label, &q.vector, 10, 80, &mut scratch, &mut stats);
        let o_ids: Vec<u32> = o.iter().map(|n| n.id).collect();
        assert!(recall_at_k(&o_ids, t, 10) >= 0.8, "oracle recall unexpectedly low");

        let filter = PredicateFilter::new(&ds.attrs, &q.predicate);
        let mut stats = SearchStats::default();
        let p = prefilter.search(&q.vector, &filter, 10, &mut stats);
        let p_ids: Vec<u32> = p.iter().map(|n| n.id).collect();
        assert_eq!(&p_ids, t, "pre-filtering must be exact");
    }
}
