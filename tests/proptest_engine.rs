//! Property tests for the [`SegmentedQueryEngine`] batch layer: whatever
//! the thread count, batched execution must be indistinguishable from a
//! per-query loop over the same pinned snapshot. Every property runs over
//! (a) a static corpus `bulk_load`ed as one frozen segment — where local
//! row id == global id, so the pure answers are additionally held to a bare
//! [`AcornIndex`] graph built over the same store when the planner traverses
//! it, and to brute force over the store when it scans — and (b) a
//! multi-segment index with tombstones.

use std::sync::Arc;

use acorn::core::Route;
use acorn::prelude::*;
use proptest::prelude::*;

fn store(n: usize, dim: usize, seed: u64) -> VectorStore {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    s
}

fn query_set(nq: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    (0..nq).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect()
}

/// (a): the whole store as one directly-frozen segment.
fn one_segment(vecs: &VectorStore, params: &AcornParams) -> SegmentedAcornIndex {
    let mut idx = SegmentedAcornIndex::new(vecs.dim(), params.clone(), AcornVariant::Gamma);
    idx.bulk_load(vecs.clone());
    idx
}

/// (b): the same rows inserted one at a time across two frozen segments
/// and a non-empty active one, with every 7th gid tombstoned.
fn churned(vecs: &VectorStore, params: &AcornParams) -> SegmentedAcornIndex {
    let mut idx = SegmentedAcornIndex::new(vecs.dim(), params.clone(), AcornVariant::Gamma);
    let n = vecs.len();
    for i in 0..n {
        idx.insert(vecs.get(i as u32));
        if i == n / 3 || i == 2 * n / 3 {
            idx.freeze();
        }
    }
    for gid in (0..n as u64).step_by(7) {
        idx.delete(gid);
    }
    idx
}

fn pairs(results: &[Vec<GlobalNeighbor>]) -> Vec<Vec<(u64, f32)>> {
    results.iter().map(|r| r.iter().map(|nb| (nb.id, nb.dist)).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `search_batch` over 1, 2, and 4 threads returns results bit-identical
    /// (ids *and* distances) to a sequential loop at the same epoch.
    #[test]
    fn search_batch_matches_sequential_for_any_thread_count(
        n in 60usize..300,
        nq in 1usize..24,
        k in 1usize..12,
        efs in 4usize..48,
        seed in 0u64..300,
    ) {
        let vecs = store(n, 6, seed);
        let params = AcornParams {
            m: 8, gamma: 3, m_beta: 8, ef_construction: 24, seed,
            ..Default::default()
        };
        let qs = query_set(nq, 6, seed);

        let mono = AcornIndex::build(Arc::new(vecs.clone()), params.clone(), AcornVariant::Gamma);
        let mut scratch = SearchScratch::new(n);
        let scans = Route::choose(n, n, 6, efs, k, &params) == Route::Scan;
        let mono_answers: Vec<Vec<(u64, f32)>> = qs
            .iter()
            .map(|q| {
                let mut stats = SearchStats::default();
                let found = if scans {
                    // Brute force: one distance per row, sorted.
                    let mut all: Vec<Neighbor> = (0..n as u32)
                        .map(|id| Neighbor::new(vecs.distance_to(params.metric, id, q), id))
                        .collect();
                    all.sort_unstable();
                    all.truncate(k);
                    all
                } else {
                    mono.search_filtered(q, &AllPass, k, efs, &mut scratch, &mut stats)
                };
                found.iter().map(|nb| (nb.id as u64, nb.dist)).collect()
            })
            .collect();

        for (shape, idx, mono_answers) in [
            ("one segment", one_segment(&vecs, &params), Some(&mono_answers)),
            ("churned", churned(&vecs, &params), None),
        ] {
            let snap = idx.snapshot();
            let mut stats = SearchStats::default();
            let sequential: Vec<Vec<GlobalNeighbor>> =
                qs.iter().map(|q| snap.search_with(q, k, efs, &mut scratch, &mut stats).unwrap()).collect();
            if let Some(want) = mono_answers {
                prop_assert_eq!(&pairs(&sequential), want);
            }
            for threads in [1usize, 2, 4] {
                let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
                let out = engine.search_batch(&qs, k, efs);
                prop_assert_eq!(
                    pairs(&out.results), pairs(&sequential),
                    "{}: batch diverged from the sequential loop at {} threads", shape, threads
                );
                prop_assert_eq!(out.stats, stats, "{}: aggregated stats", shape);
            }
        }
    }

    /// The hybrid batch path (cost-model routing included) is also
    /// thread-count invariant, and its aggregated stats match a sequential
    /// accumulation.
    #[test]
    fn hybrid_batch_is_thread_count_invariant(
        n in 80usize..300,
        nq in 1usize..12,
        seed in 0u64..200,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let vecs = store(n, 6, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACE);
        let labels: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        let attrs = AttrStore::builder().add_int("label", labels).build();
        let field = attrs.field("label").unwrap();
        let params = AcornParams {
            m: 8, gamma: 4, m_beta: 8, ef_construction: 24, seed,
            ..Default::default()
        };

        let qs = query_set(nq, 6, seed);
        let preds: Vec<Predicate> = (0..nq)
            .map(|i| Predicate::Equals { field, value: (i % 4) as i64 })
            .collect();
        let batch: Vec<(&[f32], &Predicate)> =
            qs.iter().zip(&preds).map(|(q, p)| (q.as_slice(), p)).collect();

        let mut scratch = SearchScratch::new(n);
        for (shape, idx) in [
            ("one segment", one_segment(&vecs, &params)),
            ("churned", churned(&vecs, &params)),
        ] {
            let snap = idx.snapshot();
            let mut stats = SearchStats::default();
            let sequential: Vec<Vec<GlobalNeighbor>> = batch
                .iter()
                .map(|(q, p)| {
                    let (hits, st) = snap.hybrid_search(q, p, &attrs, 5, 24, &mut scratch);
                    stats.merge(&st);
                    hits
                })
                .collect();
            for threads in [1usize, 2, 4] {
                let engine = SegmentedQueryEngine::for_reader(idx.reader()).with_threads(threads);
                let out = engine.hybrid_search_batch(&batch, &attrs, 5, 24);
                prop_assert_eq!(
                    pairs(&out.results), pairs(&sequential),
                    "{}: hybrid batch diverged at {} threads", shape, threads
                );
                prop_assert_eq!(out.stats, stats,
                    "{}: aggregated stats must not depend on sharding", shape);
            }
        }
    }
}
