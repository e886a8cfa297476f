//! `k = 0` asks for nothing: every baseline's search door answers empty,
//! whatever its beam width or probe count.

use std::sync::Arc;

use acorn_baselines::nhq::NhqParams;
use acorn_baselines::stitched_vamana::StitchedParams;
use acorn_baselines::{
    FilteredVamana, IvfFlat, NhqIndex, OraclePartitionIndex, PostFilterHnsw, PreFilter,
    StitchedVamana, Vamana, VamanaParams,
};
use acorn_hnsw::{HnswParams, Metric, SearchScratch, SearchStats, VectorStore};
use acorn_predicate::AllPass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn k_zero_answers_empty_at_every_door() {
    let (n, dim) = (300, 4);
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = VectorStore::with_capacity(dim, n);
    for _ in 0..n {
        store.push(&(0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect::<Vec<f32>>());
    }
    let vecs = Arc::new(store);
    let labels: Vec<i64> = (0..n as i64).map(|i| i % 3).collect();
    let hnsw = HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 2 };
    let vamana = VamanaParams { r: 12, l: 24, ..Default::default() };

    let post = PostFilterHnsw::build(vecs.clone(), hnsw);
    let pre = PreFilter::new(vecs.clone(), Metric::L2);
    let ivf = IvfFlat::build(vecs.clone(), Metric::L2, 8, 4, 3);
    let sq8 = ivf.to_sq8();
    let oracle = OraclePartitionIndex::build_from_labels(&vecs, &labels, hnsw);
    let plain = Vamana::build(vecs.clone(), vamana);
    let fv = FilteredVamana::build(vecs.clone(), labels.clone(), vamana);
    let sp = StitchedParams { r_small: 8, l_small: 16, r_stitched: 12, ..Default::default() };
    let sv = StitchedVamana::build(vecs.clone(), labels.clone(), sp);
    let nhq = NhqIndex::build(vecs, labels, NhqParams { m: 8, ..Default::default() });

    let q = [0.0f32; 4];
    let (mut scratch, mut st) = (SearchScratch::new(0), SearchStats::default());
    for efs in [0, 16] {
        let answers = [
            ("post-filter", post.search(&q, &AllPass, 0, efs, 1.0, &mut scratch, &mut st)),
            ("pre-filter", pre.search(&q, &AllPass, 0, &mut st)),
            ("IVF-Flat", ivf.search(&q, &AllPass, 0, efs, &mut st)),
            ("IVF-SQ8", sq8.search(&q, &AllPass, 0, efs, &mut st)),
            ("oracle", oracle.search(1, &q, 0, efs, &mut scratch, &mut st)),
            ("Vamana", plain.search_with(&q, 0, efs, &mut scratch, &mut st)),
            ("FilteredVamana", fv.search_with(&q, 1, 0, efs, &mut scratch, &mut st)),
            ("StitchedVamana", sv.search_with(&q, 1, 0, efs, &mut scratch, &mut st)),
            ("NHQ", nhq.search_with(&q, 1, 0, efs, &mut scratch, &mut st)),
        ];
        for (door, got) in answers {
            assert!(got.is_empty(), "{door} at efs = {efs} answered {} results", got.len());
        }
    }
}
