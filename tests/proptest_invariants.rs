//! Cross-crate property tests on structural invariants of the indices.

use acorn::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Random small vector stores for structural tests.
fn store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        s.push(&v);
    }
    Arc::new(s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Upper-level neighbor lists never exceed M·γ; level-0 compressed lists
    /// never exceed M_β + M (the re-compression trigger); node levels are
    /// consistent with list presence.
    #[test]
    fn acorn_gamma_structure_invariants(
        n in 50usize..400,
        m in 4usize..12,
        gamma in 1usize..5,
        seed in 0u64..500,
    ) {
        let m_beta = m; // smallest sensible compression
        let vecs = store(n, 8, seed);
        let params = AcornParams {
            m, gamma, m_beta, ef_construction: 24, seed,
            ..Default::default()
        };
        let idx = AcornIndex::build(vecs, params, AcornVariant::Gamma);
        let g = idx.graph().expect("a built index is growing");
        prop_assert_eq!(g.len(), n);
        for v in 0..n as u32 {
            for lev in 0..=g.level_of(v) {
                let len = g.neighbors(v, lev).len();
                if lev == 0 {
                    prop_assert!(len <= m_beta + m, "level-0 list {len} > M_β + M");
                } else {
                    prop_assert!(len <= m * gamma, "level-{lev} list {len} > M·γ");
                }
                // No self-loops, no out-of-range ids.
                for &w in g.neighbors(v, lev) {
                    prop_assert!(w != v, "self loop at {v}");
                    prop_assert!((w as usize) < n, "dangling edge");
                    prop_assert!(g.level_of(w) >= lev, "edge to node below its level");
                }
            }
        }
    }

    /// Search results are sorted, unique, pass the filter, and never exceed k.
    #[test]
    fn acorn_search_contract(
        n in 50usize..300,
        k in 1usize..15,
        efs in 1usize..64,
        modulus in 2u32..6,
        seed in 0u64..500,
    ) {
        let vecs = store(n, 6, seed);
        let params = AcornParams { m: 8, gamma: 3, m_beta: 8, ef_construction: 24, seed, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);
        let bits = Bitset::from_ids(n, (0..n as u32).filter(|i| i % modulus == 0));
        let filter = BitmapFilter::new(bits);
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let q = vecs.get((seed % n as u64) as u32).to_vec();
        let out = idx.search_filtered(&q, &filter, k, efs, &mut scratch, &mut stats);
        prop_assert!(out.len() <= k);
        for w in out.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist, "unsorted results");
            prop_assert!(w[0].id != w[1].id, "duplicate results");
        }
        for nb in &out {
            prop_assert_eq!(nb.id % modulus, 0, "result fails predicate");
        }
    }

    /// The hybrid entry point never returns results failing the predicate,
    /// whichever routing path it takes.
    #[test]
    fn hybrid_routing_never_leaks_failing_rows(
        n in 100usize..400,
        value in 0i64..6,
        seed in 0u64..200,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let vecs = store(n, 6, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let labels: Vec<i64> = (0..n).map(|_| rng.gen_range(0..6)).collect();
        let attrs = AttrStore::builder().add_int("x", labels.clone()).build();
        let field = attrs.field("x").unwrap();
        let params = AcornParams { m: 8, gamma: 4, m_beta: 8, ef_construction: 24, seed, ..Default::default() };
        let mut idx = SegmentedAcornIndex::new(6, params, AcornVariant::Gamma);
        idx.bulk_load(VectorStore::clone(&vecs)); // global id == row id
        let mut scratch = SearchScratch::new(n);
        let pred = Predicate::Equals { field, value };
        let (out, _) = idx.snapshot().hybrid_search(vecs.get(0), &pred, &attrs, 5, 32, &mut scratch);
        for nb in &out {
            prop_assert_eq!(labels[nb.id as usize], value);
        }
    }

    /// HNSW and ACORN with an all-pass filter solve the same problem: on
    /// tiny datasets with a wide beam both must find the exact top-k.
    #[test]
    fn acorn_allpass_matches_exact_on_tiny_data(
        n in 20usize..80,
        seed in 0u64..300,
    ) {
        let vecs = store(n, 4, seed);
        let params = AcornParams { m: 8, gamma: 2, m_beta: 16, ef_construction: 32, seed, ..Default::default() };
        let mut idx = SegmentedAcornIndex::new(4, params, AcornVariant::Gamma);
        idx.bulk_load(VectorStore::clone(&vecs)); // global id == row id
        let q = vec![0.0; 4];
        let got: Vec<u32> = idx.reader().search(&q, 5, n).unwrap().iter().map(|x| x.id as u32).collect();
        let mut exact: Vec<(f32, u32)> = (0..n as u32)
            .map(|i| (Metric::L2.distance(vecs.get(i), &q), i))
            .collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<u32> = exact[..5.min(n)].iter().map(|&(_, i)| i).collect();
        prop_assert_eq!(got, want, "exhaustive-beam ACORN must be exact on tiny data");
    }
}
