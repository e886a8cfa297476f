//! FilteredVamana (Gollapudi et al., WWW 2023).
//!
//! The specialized low-cardinality baseline of the paper's Figure 7 /
//! Tables 3–5. Each point carries one equality label; search starts from a
//! per-label start point and traverses only matching nodes, and the build's
//! pruning only allows a relay node to shadow a candidate when it shares
//! the label (so every label's subgraph stays navigable).
//!
//! Exactly as the paper notes (§7.3), the method is *restricted*: it
//! supports only equality predicates over a label set fixed at construction
//! time — the restriction ACORN removes.

use std::collections::HashMap;
use std::sync::Arc;

use acorn_hnsw::heap::{Neighbor, TopK};
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::vamana::{medoid, VamanaParams};

/// A FilteredVamana index over single-label points.
#[derive(Debug, Clone)]
pub struct FilteredVamana {
    params: VamanaParams,
    vecs: Arc<VectorStore>,
    labels: Vec<i64>,
    adj: Vec<Vec<u32>>,
    start_points: HashMap<i64, u32>,
}

/// Filtered greedy beam search: only nodes whose label equals `label` are
/// expanded or reported.
#[allow(clippy::too_many_arguments)]
fn filtered_greedy(
    vecs: &VectorStore,
    metric: Metric,
    adj: &[Vec<u32>],
    labels: &[i64],
    start: u32,
    label: i64,
    query: &[f32],
    l: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    scratch.begin(adj.len());
    let mut beam = TopK::new(l.max(1));
    let cands = &mut scratch.candidates;
    let d0 = vecs.distance_to(metric, start, query);
    stats.ndis += 1;
    scratch.visited.insert(start);
    let e = Neighbor::new(d0, start);
    if labels[start as usize] == label {
        beam.push(e);
    }
    cands.push(e);
    while let Some(c) = cands.pop() {
        if beam.is_full() {
            if let Some(w) = beam.worst() {
                if c.dist > w.dist {
                    break;
                }
            }
        }
        stats.nhops += 1;
        scratch.frontier.push(c);
        for &nb in &adj[c.id as usize] {
            stats.npred += 1;
            if labels[nb as usize] != label {
                continue;
            }
            if !scratch.visited.insert(nb) {
                continue;
            }
            let d = vecs.distance_to(metric, nb, query);
            stats.ndis += 1;
            let n = Neighbor::new(d, nb);
            let admit = match beam.worst() {
                Some(w) => d < w.dist || !beam.is_full(),
                None => true,
            };
            if admit {
                cands.push(n);
                beam.push(n);
            }
        }
    }
    beam.into_sorted()
}

/// Label-aware robust prune: relay `p*` may shadow candidate `c` only when
/// all three nodes share a label.
fn filtered_robust_prune(
    vecs: &VectorStore,
    metric: Metric,
    labels: &[i64],
    p: u32,
    mut candidates: Vec<Neighbor>,
    r: usize,
    alpha: f32,
) -> Vec<u32> {
    candidates.sort_unstable();
    candidates.dedup_by_key(|n| n.id);
    let mut kept: Vec<u32> = Vec::with_capacity(r);
    let mut alive = vec![true; candidates.len()];
    for i in 0..candidates.len() {
        if !alive[i] {
            continue;
        }
        let p_star = candidates[i];
        kept.push(p_star.id);
        if kept.len() >= r {
            break;
        }
        for (j, c) in candidates.iter().enumerate().skip(i + 1) {
            if !alive[j] {
                continue;
            }
            let relay_ok = labels[p_star.id as usize] == labels[c.id as usize]
                && labels[p_star.id as usize] == labels[p as usize];
            if relay_ok && alpha * vecs.distance_between(metric, p_star.id, c.id) <= c.dist {
                alive[j] = false;
            }
        }
    }
    kept
}

impl FilteredVamana {
    /// Build over single-label points.
    ///
    /// # Panics
    /// Panics if `labels.len() != vecs.len()`.
    pub fn build(vecs: Arc<VectorStore>, labels: Vec<i64>, params: VamanaParams) -> Self {
        assert_eq!(labels.len(), vecs.len(), "one label per vector required");
        let n = vecs.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];

        // Per-label start points: the medoid of each label's subset.
        let mut groups: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            groups.entry(l).or_default().push(i as u32);
        }
        let mut start_points = HashMap::with_capacity(groups.len());
        for (&l, ids) in &groups {
            let sub = vecs.subset(ids);
            let local = medoid(&sub, params.metric);
            start_points.insert(l, ids[local as usize]);
        }

        let mut idx = Self { params, vecs, labels, adj: Vec::new(), start_points };
        if n == 0 {
            return idx;
        }

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut rng);
        let mut scratch = SearchScratch::new(n);
        let mut stats = SearchStats::default();

        for &p in &order {
            let label = idx.labels[p as usize];
            let start = idx.start_points[&label];
            let q = idx.vecs.get(p).to_vec();
            let _ = filtered_greedy(
                &idx.vecs,
                idx.params.metric,
                &adj,
                &idx.labels,
                start,
                label,
                &q,
                idx.params.l,
                &mut scratch,
                &mut stats,
            );
            let mut cands: Vec<Neighbor> =
                scratch.frontier.iter().copied().filter(|nb| nb.id != p).collect();
            for &nb in &adj[p as usize] {
                cands.push(Neighbor::new(idx.vecs.distance_between(idx.params.metric, p, nb), nb));
            }
            let kept = filtered_robust_prune(
                &idx.vecs,
                idx.params.metric,
                &idx.labels,
                p,
                cands,
                idx.params.r,
                idx.params.alpha,
            );
            adj[p as usize] = kept.clone();
            for j in kept {
                if !adj[j as usize].contains(&p) {
                    adj[j as usize].push(p);
                    if adj[j as usize].len() > idx.params.r {
                        let c: Vec<Neighbor> = adj[j as usize]
                            .iter()
                            .map(|&w| {
                                Neighbor::new(idx.vecs.distance_between(idx.params.metric, j, w), w)
                            })
                            .collect();
                        adj[j as usize] = filtered_robust_prune(
                            &idx.vecs,
                            idx.params.metric,
                            &idx.labels,
                            j,
                            c,
                            idx.params.r,
                            idx.params.alpha,
                        );
                    }
                }
            }
        }
        idx.adj = adj;
        idx
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Index-only memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.adj.iter().map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>()).sum()
    }

    /// Search for the `k` nearest points carrying exactly `label` using
    /// caller-provided scratch space.
    #[allow(clippy::too_many_arguments)]
    pub fn search_with(
        &self,
        query: &[f32],
        label: i64,
        k: usize,
        l: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let Some(&start) = self.start_points.get(&label) else {
            return Vec::new();
        };
        let mut beam = filtered_greedy(
            &self.vecs,
            self.params.metric,
            &self.adj,
            &self.labels,
            start,
            label,
            query,
            l.max(k),
            scratch,
            stats,
        );
        beam.truncate(k);
        beam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn labeled_store(
        n: usize,
        dim: usize,
        nlabels: i64,
        seed: u64,
    ) -> (Arc<VectorStore>, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
            labels.push(rng.gen_range(0..nlabels));
        }
        (Arc::new(s), labels)
    }

    #[test]
    fn results_match_query_label() {
        let (vecs, labels) = labeled_store(800, 8, 4, 1);
        let fv = FilteredVamana::build(
            vecs,
            labels.clone(),
            VamanaParams { r: 16, l: 32, alpha: 1.2, metric: Metric::L2, seed: 2 },
        );
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        let out = fv.search_with(&[0.0; 8], 2, 10, 32, &mut scratch, &mut stats);
        assert!(!out.is_empty());
        for n in &out {
            assert_eq!(labels[n.id as usize], 2);
        }
    }

    #[test]
    fn filtered_recall_is_high() {
        let (vecs, labels) = labeled_store(1500, 10, 3, 3);
        let fv = FilteredVamana::build(
            vecs.clone(),
            labels.clone(),
            VamanaParams { r: 24, l: 48, alpha: 1.2, metric: Metric::L2, seed: 4 },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut hits = 0;
        let mut total = 0;
        for t in 0..15 {
            let q: Vec<f32> = (0..10).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = t % 3;
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            let got: Vec<u32> = fv
                .search_with(&q, label, 10, 64, &mut scratch, &mut stats)
                .iter()
                .map(|n| n.id)
                .collect();
            let mut truth: Vec<(f32, u32)> = (0..vecs.len() as u32)
                .filter(|&i| labels[i as usize] == label)
                .map(|i| (Metric::L2.distance(vecs.get(i), &q), i))
                .collect();
            truth.sort_by(|a, b| a.0.total_cmp(&b.0));
            hits += truth[..10].iter().filter(|&&(_, i)| got.contains(&i)).count();
            total += 10;
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.85, "FilteredVamana recall too low: {recall}");
    }

    #[test]
    fn unknown_label_returns_empty() {
        let (vecs, labels) = labeled_store(100, 4, 2, 6);
        let fv = FilteredVamana::build(vecs, labels, VamanaParams::default());
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        assert!(fv.search_with(&[0.0; 4], 99, 5, 16, &mut scratch, &mut stats).is_empty());
    }
}
