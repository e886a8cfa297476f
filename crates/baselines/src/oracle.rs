//! The oracle partition index (§4 of the paper).
//!
//! If every query predicate were known at construction time, the ideal
//! strategy would build one HNSW index per predicate over exactly the
//! passing records (`X_p`) and search that index — `O(log(s·n) + K)` with no
//! filtering overhead. That is unattainable for unbounded predicate sets
//! (the whole point of ACORN) but serves as the evaluation's upper bound on
//! the low-cardinality datasets (Figure 7, Table 3).

use std::collections::HashMap;
use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::{HnswIndex, HnswParams, SearchScratch, SearchStats, VectorStore};

/// One HNSW partition per predicate key.
#[derive(Debug, Clone)]
pub struct OraclePartitionIndex {
    partitions: HashMap<i64, Partition>,
}

#[derive(Debug, Clone)]
struct Partition {
    /// Local row → global id mapping.
    ids: Vec<u32>,
    index: HnswIndex,
}

impl OraclePartitionIndex {
    /// Build one HNSW per `(key, member ids)` group.
    ///
    /// For the paper's LCPS datasets the key is the label value and the
    /// groups partition the dataset; overlapping groups are also fine (each
    /// partition copies its vectors).
    pub fn build(vecs: &VectorStore, groups: &[(i64, Vec<u32>)], params: HnswParams) -> Self {
        let mut partitions = HashMap::with_capacity(groups.len());
        for (key, ids) in groups {
            let sub = Arc::new(vecs.subset(ids));
            let index = HnswIndex::build(sub, params);
            partitions.insert(*key, Partition { ids: ids.clone(), index });
        }
        Self { partitions }
    }

    /// Group rows by an integer label and build all partitions.
    pub fn build_from_labels(vecs: &VectorStore, labels: &[i64], params: HnswParams) -> Self {
        assert_eq!(vecs.len(), labels.len(), "one label per vector required");
        let mut groups: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(i as u32);
        }
        let groups: Vec<(i64, Vec<u32>)> = groups.into_iter().collect();
        Self::build(vecs, &groups, params)
    }

    /// Total index memory across partitions (adjacency lists only).
    pub fn memory_bytes(&self) -> usize {
        self.partitions.values().map(|p| p.index.graph().memory_bytes()).sum()
    }

    /// Search the partition for `key`; returns global ids. Empty when the
    /// key has no partition.
    pub fn search(
        &self,
        key: i64,
        query: &[f32],
        k: usize,
        efs: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let Some(part) = self.partitions.get(&key) else {
            return Vec::new();
        };
        let local = part.index.search_with(query, k, efs, scratch, stats);
        local.into_iter().map(|n| Neighbor::new(n.dist, part.ids[n.id as usize])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_hnsw::Metric;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn partition_search_returns_only_group_members() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 600;
        let mut vecs = VectorStore::new(8);
        for _ in 0..n {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vecs.push(&v);
        }
        let labels: Vec<i64> = (0..n).map(|i| (i % 3) as i64).collect();
        let oracle = OraclePartitionIndex::build_from_labels(
            &vecs,
            &labels,
            HnswParams { m: 8, ef_construction: 32, metric: Metric::L2, seed: 2 },
        );
        assert_eq!(oracle.partitions.len(), 3);

        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let out = oracle.search(1, &[0.0; 8], 10, 32, &mut scratch, &mut stats);
        assert_eq!(out.len(), 10);
        for nb in &out {
            assert_eq!(labels[nb.id as usize], 1, "result outside the partition");
        }
    }

    #[test]
    fn partition_search_is_near_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 900;
        let mut vecs = VectorStore::new(8);
        for _ in 0..n {
            let v: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            vecs.push(&v);
        }
        let labels: Vec<i64> = (0..n).map(|i| (i % 2) as i64).collect();
        let oracle = OraclePartitionIndex::build_from_labels(
            &vecs,
            &labels,
            HnswParams { m: 16, ef_construction: 64, metric: Metric::L2, seed: 4 },
        );
        let q = vec![0.2; 8];
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();
        let got: Vec<u32> =
            oracle.search(0, &q, 10, 64, &mut scratch, &mut stats).iter().map(|n| n.id).collect();
        // Exact filtered top-10 by brute force.
        let mut truth: Vec<(f32, u32)> = (0..n as u32)
            .filter(|&i| labels[i as usize] == 0)
            .map(|i| (Metric::L2.distance(vecs.get(i), &q), i))
            .collect();
        truth.sort_by(|a, b| a.0.total_cmp(&b.0));
        let want: Vec<u32> = truth[..10].iter().map(|&(_, i)| i).collect();
        let overlap = want.iter().filter(|w| got.contains(w)).count();
        assert!(overlap >= 9, "oracle recall too low: {overlap}/10");
    }

    #[test]
    fn missing_key_returns_empty() {
        let vecs = VectorStore::from_flat(2, vec![0.0, 0.0, 1.0, 1.0]);
        let oracle = OraclePartitionIndex::build_from_labels(&vecs, &[5, 5], HnswParams::default());
        let mut scratch = SearchScratch::new(2);
        let mut stats = SearchStats::default();
        assert!(oracle.search(9, &[0.0, 0.0], 3, 8, &mut scratch, &mut stats).is_empty());
    }
}
