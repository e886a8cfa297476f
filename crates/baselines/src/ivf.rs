//! IVF-Flat and IVF-SQ8: inverted-file indexes scanning their probed lists.
//!
//! The space-partitioning baseline class (Milvus IVF-Flat/SQ8/PQ, FAISS-IVF)
//! from the paper's related work and Figure 7. Vectors are bucketed by their
//! nearest k-means centroid; a query scans the `nprobe` nearest buckets,
//! applying the predicate as it goes (post-filtering within probed lists).
//! Both variants run one probe, generic over the store that scores rows.

use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::exact_top_k;
use acorn_hnsw::{Metric, SearchStats, Sq8Store, VectorData, VectorStore};
use acorn_predicate::NodeFilter;

use crate::kmeans::kmeans;

/// An inverted-file index whose probed rows are scored by the store `V`.
#[derive(Debug, Clone)]
pub struct Ivf<V> {
    vecs: Arc<V>,
    metric: Metric,
    centroids: VectorStore,
    lists: Vec<Vec<u32>>,
}

/// IVF-Flat: exact f32 distances in the probed lists.
pub type IvfFlat = Ivf<VectorStore>;

/// IVF with 8-bit scalar-quantized vectors (the Milvus IVF-SQ8 variant):
/// same coarse quantizer and probing, asymmetric distances against SQ8 codes.
pub type IvfSq8 = Ivf<Sq8Store>;

impl IvfFlat {
    /// Build with `nlist` coarse clusters (`kmeans_iters` Lloyd iterations).
    pub fn build(
        vecs: Arc<VectorStore>,
        metric: Metric,
        nlist: usize,
        kmeans_iters: usize,
        seed: u64,
    ) -> Self {
        let km = kmeans(&vecs, nlist, kmeans_iters, seed);
        let mut lists = vec![Vec::new(); km.centroids.len()];
        for (i, &c) in km.assignments.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        Self { vecs, metric, centroids: km.centroids, lists }
    }

    /// Index-only memory (inverted lists + centroids).
    pub fn memory_bytes(&self) -> usize {
        self.index_bytes()
    }

    /// Convert to an IVF-SQ8 index (quantize the stored vectors).
    pub fn to_sq8(&self) -> IvfSq8 {
        Ivf {
            vecs: Arc::new(Sq8Store::train(&self.vecs)),
            metric: self.metric,
            centroids: self.centroids.clone(),
            lists: self.lists.clone(),
        }
    }
}

impl IvfSq8 {
    /// Index + codes memory (the point of SQ8: ~4x smaller than flat).
    pub fn memory_bytes(&self) -> usize {
        self.vecs.memory_bytes() + self.index_bytes()
    }
}

impl<V: VectorData> Ivf<V> {
    fn index_bytes(&self) -> usize {
        self.centroids.memory_bytes()
            + self
                .lists
                .iter()
                .map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>())
                .sum::<usize>()
    }

    /// Hybrid search scanning the `nprobe` nearest lists, filtering inline
    /// (`k = 0` answers empty and ranks no centroid).
    pub fn search<F: NodeFilter>(
        &self,
        query: &[f32],
        filter: &F,
        k: usize,
        nprobe: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let nprobe = nprobe.clamp(1, self.lists.len());
        let centroids = 0..self.centroids.len() as u32;
        let (probes, ncent) = exact_top_k(&self.centroids, self.metric, query, nprobe, centroids);
        stats.ndis += ncent;
        let rows = probes.iter().flat_map(|probe| {
            let list = &self.lists[probe.id as usize];
            stats.npred += list.len() as u64;
            list.iter().copied().filter(|&id| filter.passes(id))
        });
        let (top, ndis) = exact_top_k(&*self.vecs, self.metric, query, k, rows);
        stats.ndis += ndis;
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_predicate::AllPass;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let n = 500;
        let vecs = random_store(n, 6, 1);
        let ivf = IvfFlat::build(vecs.clone(), Metric::L2, 8, 5, 2);
        let q = vec![0.3; 6];
        let mut stats = SearchStats::default();
        let got: Vec<u32> = ivf
            .search(&q, &AllPass, 10, ivf.lists.len(), &mut stats)
            .iter()
            .map(|n| n.id)
            .collect();
        let mut truth: Vec<(f32, u32)> =
            (0..n as u32).map(|i| (Metric::L2.distance(vecs.get(i), &q), i)).collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<u32> = truth[..10].iter().map(|&(_, i)| i).collect();
        assert_eq!(got, want, "probing all lists must be exact");
    }

    #[test]
    fn partial_probe_has_decent_recall() {
        let n = 2000;
        let vecs = random_store(n, 8, 3);
        let ivf = IvfFlat::build(vecs.clone(), Metric::L2, 32, 8, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut stats = SearchStats::default();
            let got: Vec<u32> =
                ivf.search(&q, &AllPass, 10, 8, &mut stats).iter().map(|n| n.id).collect();
            let mut truth: Vec<(f32, u32)> =
                (0..n as u32).map(|i| (Metric::L2.distance(vecs.get(i), &q), i)).collect();
            truth.sort_by(|a, b| a.0.total_cmp(&b.0));
            hits += truth[..10].iter().filter(|&&(_, i)| got.contains(&i)).count();
        }
        assert!(hits as f64 / 200.0 > 0.6, "IVF recall too low: {}", hits as f64 / 200.0);
    }

    #[test]
    fn filter_is_respected() {
        let n = 300;
        let vecs = random_store(n, 4, 6);
        let ivf = IvfFlat::build(vecs, Metric::L2, 4, 5, 7);
        let bits = acorn_predicate::Bitset::from_ids(n, (0..n as u32).filter(|i| i % 5 == 0));
        let filter = acorn_predicate::BitmapFilter::new(bits);
        let mut stats = SearchStats::default();
        let out = ivf.search(&[0.0; 4], &filter, 10, 4, &mut stats);
        for nb in &out {
            assert_eq!(nb.id % 5, 0);
        }
    }
}

#[cfg(test)]
mod sq8_tests {
    use super::*;
    use acorn_predicate::AllPass;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    #[test]
    fn sq8_close_to_flat_results() {
        let n = 1000;
        let vecs = random_store(n, 16, 1);
        let flat = IvfFlat::build(vecs.clone(), Metric::L2, 16, 5, 2);
        let sq = flat.to_sq8();
        let q = vec![0.2; 16];
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let a: Vec<u32> = flat.search(&q, &AllPass, 10, 16, &mut s1).iter().map(|n| n.id).collect();
        let b: Vec<u32> = sq.search(&q, &AllPass, 10, 16, &mut s2).iter().map(|n| n.id).collect();
        let overlap = a.iter().filter(|x| b.contains(x)).count();
        assert!(overlap >= 8, "SQ8 top-10 diverges too much from flat: {overlap}/10");
    }

    #[test]
    fn sq8_full_probe_ranks_codes_by_the_index_metric() {
        let n = 400;
        let vecs = random_store(n, 8, 5);
        let sq = IvfFlat::build(vecs.clone(), Metric::InnerProduct, 8, 5, 6).to_sq8();
        let q = vec![0.4; 8];
        let mut stats = SearchStats::default();
        let got = sq.search(&q, &AllPass, 10, sq.lists.len(), &mut stats);
        let codes = Sq8Store::train(&vecs);
        let mut want: Vec<Neighbor> = (0..n as u32)
            .map(|i| Neighbor::new(codes.distance_to(Metric::InnerProduct, i, &q), i))
            .collect();
        want.sort_unstable();
        want.truncate(10);
        assert_eq!(got, want, "a full probe must rank the codes by inner product");
    }

    #[test]
    fn sq8_memory_smaller_than_flat() {
        let vecs = random_store(2000, 64, 3);
        let flat = IvfFlat::build(vecs.clone(), Metric::L2, 16, 5, 4);
        let sq = flat.to_sq8();
        assert!(sq.memory_bytes() < vecs.memory_bytes() / 2 + flat.memory_bytes());
    }
}
