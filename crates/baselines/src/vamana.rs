//! The Vamana graph (DiskANN; Jayaram Subramanya et al. 2019).
//!
//! Substrate for the FilteredDiskANN baselines the paper benchmarks
//! (FilteredVamana, StitchedVamana). A single-layer graph built by iterative
//! re-insertion with *α-robust pruning*: a candidate `c` is removed once a
//! kept neighbor `p*` satisfies `α·d(p*, c) ≤ d(p, c)`, with `α > 1`
//! retaining long-range "highway" edges that plain RNG pruning would cut.

use std::sync::Arc;

use acorn_hnsw::heap::Neighbor;
use acorn_hnsw::search::{gated, search_layer};
use acorn_hnsw::{Metric, SearchScratch, SearchStats, VectorStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::kmeans::nearest_row;

/// Vamana construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct VamanaParams {
    /// Degree bound `R`.
    pub r: usize,
    /// Construction beam width `L`.
    pub l: usize,
    /// Pruning slack `α ≥ 1`.
    pub alpha: f32,
    /// Distance metric.
    pub metric: Metric,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VamanaParams {
    fn default() -> Self {
        // FilteredVamana's recommended parameters from the paper (§7.2).
        Self { r: 96, l: 90, alpha: 1.2, metric: Metric::L2, seed: 0 }
    }
}

/// A Vamana proximity graph.
#[derive(Debug, Clone)]
pub struct Vamana {
    params: VamanaParams,
    vecs: Arc<VectorStore>,
    adj: Vec<Vec<u32>>,
    medoid: u32,
}

/// α-robust prune: `candidates` are (distance-to-p, id) pairs; returns at
/// most `r` kept ids (nearest-first). A kept relay `p*` removes a later
/// candidate `c` when `shadows(p*, c)` and `α·d(p*, c) ≤ d(p, c)`: Vamana
/// passes `|_, _| true`, FilteredVamana its same-label relay rule.
pub fn robust_prune(
    vecs: &VectorStore,
    metric: Metric,
    mut candidates: Vec<Neighbor>,
    r: usize,
    alpha: f32,
    shadows: impl Fn(u32, u32) -> bool,
) -> Vec<u32> {
    candidates.sort_unstable();
    candidates.dedup_by_key(|n| n.id);
    let mut kept: Vec<u32> = Vec::with_capacity(r);
    let mut alive: Vec<bool> = vec![true; candidates.len()];
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
            if alive[j]
                && shadows(p_star.id, c.id)
                && alpha * vecs.distance_between(metric, p_star.id, c.id) <= c.dist
            {
                alive[j] = false;
            }
        }
    }
    kept
}

/// Beam search (width `max(l, k)`) over a flat adjacency from `start`,
/// through the nodes `gate` admits: the `k` nearest found, nearest-first.
/// The shared loop is [`search_layer`]; `k = 0` answers empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn beam_search(
    vecs: &VectorStore,
    metric: Metric,
    adj: &[Vec<u32>],
    start: u32,
    query: &[f32],
    k: usize,
    l: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    gate: impl FnMut(u32, &mut SearchStats) -> bool,
) -> Vec<Neighbor> {
    if k == 0 {
        return Vec::new();
    }
    scratch.begin(adj.len());
    let entry = [Neighbor::new(vecs.distance_to(metric, start, query), start)];
    stats.ndis += 1;
    let hood = gated(adj, 0, gate);
    let mut beam =
        search_layer(vecs, metric, query, &entry, l.max(k), scratch, stats, |_, _| true, hood);
    beam.truncate(k);
    beam
}

/// One re-insertion pass over `order`: each `p` beam-searches (width `L`)
/// from `start(label(p))` through the nodes sharing its label, robust-prunes
/// the nodes the beam expanded plus its current list, and links back from
/// every kept neighbor, re-pruning any list that outgrows `R`. A relay may
/// shadow a candidate only when both carry the label of the node being
/// pruned. Vamana runs it with one label for every node (`|_| 0`), which
/// makes the gate and the relay rule always true; FilteredVamana's build is
/// one pass with the real labels.
pub(crate) fn insert_pass(
    vecs: &VectorStore,
    adj: &mut [Vec<u32>],
    order: &[u32],
    params: &VamanaParams,
    alpha: f32,
    label: impl Fn(u32) -> i64,
    start: impl Fn(i64) -> u32,
) {
    let (metric, ef) = (params.metric, params.l.max(1));
    let (mut scratch, mut stats) = (SearchScratch::new(adj.len()), SearchStats::default());
    let prune = |cands: Vec<Neighbor>, p: u32| {
        let relay = |s: u32, c: u32| label(s) == label(c) && label(s) == label(p);
        robust_prune(vecs, metric, cands, params.r, alpha, relay)
    };
    let scored = |p: u32, list: &[u32]| -> Vec<Neighbor> {
        list.iter().map(|&w| Neighbor::new(vecs.distance_between(metric, p, w), w)).collect()
    };
    for &p in order {
        let (q, lp) = (vecs.get(p), label(p));
        let s = start(lp);
        scratch.begin(adj.len());
        let entry = [Neighbor::new(vecs.distance_to(metric, s, q), s)];
        let gate = |nb: u32, _: &mut SearchStats| label(nb) == lp;
        let hood = gated(&*adj, 0, gate);
        search_layer(vecs, metric, q, &entry, ef, &mut scratch, &mut stats, |_, _| true, hood);
        let mut cands: Vec<Neighbor> =
            scratch.frontier.iter().copied().filter(|nb| nb.id != p).collect();
        cands.extend(scored(p, &adj[p as usize]));
        let kept = prune(cands, p);
        adj[p as usize] = kept.clone();
        for j in kept {
            if !adj[j as usize].contains(&p) {
                adj[j as usize].push(p);
                if adj[j as usize].len() > params.r {
                    adj[j as usize] = prune(scored(j, &adj[j as usize]), j);
                }
            }
        }
    }
}

/// The medoid: the dataset point nearest the coordinate mean.
pub fn medoid(vecs: &VectorStore, metric: Metric) -> u32 {
    assert!(!vecs.is_empty(), "medoid of empty dataset");
    let dim = vecs.dim();
    let mut mean = vec![0.0f64; dim];
    for i in 0..vecs.len() as u32 {
        for (m, &x) in mean.iter_mut().zip(vecs.get(i)) {
            *m += x as f64;
        }
    }
    let mean_f32: Vec<f32> = mean.iter().map(|&m| (m / vecs.len() as f64) as f32).collect();
    nearest_row(vecs, metric, &mean_f32)
}

impl Vamana {
    /// Build the graph: random `R`-regular init, then two re-insertion
    /// passes (α = 1, then the configured α) with robust pruning.
    pub fn build(vecs: Arc<VectorStore>, params: VamanaParams) -> Self {
        let n = vecs.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        if n == 0 {
            return Self { params, vecs, adj, medoid: 0 };
        }
        let mut rng = StdRng::seed_from_u64(params.seed);
        if n > 1 {
            for (v, list) in adj.iter_mut().enumerate() {
                while list.len() < params.r.min(n - 1) {
                    let w = rng.gen_range(0..n) as u32;
                    if w as usize != v && !list.contains(&w) {
                        list.push(w);
                    }
                }
            }
        }
        let medoid = medoid(&vecs, params.metric);
        let mut order: Vec<u32> = (0..n as u32).collect();
        for alpha in [1.0, params.alpha] {
            order.shuffle(&mut rng);
            insert_pass(&vecs, &mut adj, &order, &params, alpha, |_| 0, |_| medoid);
        }
        Self { params, vecs, adj, medoid }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// The graph's fixed entry point.
    pub fn medoid(&self) -> u32 {
        self.medoid
    }

    /// Adjacency lists (read-only; used by StitchedVamana).
    pub fn adjacency(&self) -> &[Vec<u32>] {
        &self.adj
    }

    /// Index-only memory footprint.
    pub fn memory_bytes(&self) -> usize {
        self.adj.iter().map(|l| l.len() * 4 + std::mem::size_of::<Vec<u32>>()).sum()
    }

    /// ANN search with beam width `l` using caller-provided scratch space
    /// (the form used by the benchmark driver and thread pools).
    pub fn search_with(
        &self,
        query: &[f32],
        k: usize,
        l: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        if self.adj.is_empty() {
            return Vec::new();
        }
        let (vecs, metric, all) = (&self.vecs, self.params.metric, |_, _: &mut SearchStats| true);
        beam_search(vecs, metric, &self.adj, self.medoid, query, k, l, scratch, stats, all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn robust_prune_keeps_diverse_and_bounds_r() {
        let mut s = VectorStore::new(2);
        for p in [[0.0f32, 0.0], [1.0, 0.0], [1.1, 0.0], [0.0, 1.0], [-1.0, 0.0]] {
            s.push(&p);
        }
        let q = s.get(0).to_vec();
        let cands: Vec<Neighbor> =
            (1..5u32).map(|i| Neighbor::new(Metric::L2.distance(s.get(i), &q), i)).collect();
        let kept = robust_prune(&s, Metric::L2, cands.clone(), 4, 1.0, |_, _| true);
        // Node 2 (1.1, 0) is shadowed by node 1 (1.0, 0).
        assert!(kept.contains(&1));
        assert!(!kept.contains(&2));
        assert!(kept.contains(&3));
        assert!(kept.contains(&4));

        let kept_r1 = robust_prune(&s, Metric::L2, cands, 1, 1.0, |_, _| true);
        assert_eq!(kept_r1.len(), 1);
    }

    #[test]
    fn alpha_retains_more_edges() {
        let mut s = VectorStore::new(1);
        for x in [0.0f32, 1.0, 1.9, 3.5] {
            s.push(&[x]);
        }
        let q = s.get(0).to_vec();
        let cands: Vec<Neighbor> =
            (1..4u32).map(|i| Neighbor::new(Metric::L2.distance(s.get(i), &q), i)).collect();
        let strict = robust_prune(&s, Metric::L2, cands.clone(), 4, 1.0, |_, _| true);
        let slack = robust_prune(&s, Metric::L2, cands, 4, 2.0, |_, _| true);
        // α > 1 makes the removal condition α·d(p*,c) ≤ d(p,c) harder to
        // satisfy, so fewer candidates are pruned (denser graph).
        assert!(slack.len() >= strict.len(), "alpha > 1 must retain at least as many edges");
    }

    #[test]
    fn medoid_of_line_is_middle() {
        let mut s = VectorStore::new(1);
        for x in 0..5 {
            s.push(&[x as f32]);
        }
        assert_eq!(medoid(&s, Metric::L2), 2);
    }

    #[test]
    fn vamana_recall_on_random_data() {
        let n = 1500;
        let vecs = random_store(n, 12, 1);
        let v = Vamana::build(
            vecs.clone(),
            VamanaParams { r: 24, l: 48, alpha: 1.2, metric: Metric::L2, seed: 2 },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0;
        for _ in 0..20 {
            let q: Vec<f32> = (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
            let got: Vec<u32> =
                v.search_with(&q, 10, 48, &mut scratch, &mut stats).iter().map(|n| n.id).collect();
            let mut truth: Vec<(f32, u32)> =
                (0..n as u32).map(|i| (Metric::L2.distance(vecs.get(i), &q), i)).collect();
            truth.sort_by(|a, b| a.0.total_cmp(&b.0));
            hits += truth[..10].iter().filter(|&&(_, i)| got.contains(&i)).count();
        }
        let recall = hits as f64 / 200.0;
        assert!(recall >= 0.85, "Vamana recall too low: {recall}");
    }

    #[test]
    fn degree_bound_holds() {
        let vecs = random_store(400, 8, 4);
        let v = Vamana::build(
            vecs,
            VamanaParams { r: 12, l: 24, alpha: 1.2, metric: Metric::L2, seed: 5 },
        );
        for list in v.adjacency() {
            assert!(list.len() <= 12, "degree {} exceeds R", list.len());
        }
    }

    #[test]
    fn empty_and_single() {
        let v0 = Vamana::build(Arc::new(VectorStore::new(3)), VamanaParams::default());
        let (mut scratch, mut stats) = (SearchScratch::new(0), SearchStats::default());
        assert!(v0.search_with(&[0.0; 3], 5, 10, &mut scratch, &mut stats).is_empty());

        let mut s = VectorStore::new(2);
        s.push(&[1.0, 1.0]);
        let v1 = Vamana::build(Arc::new(s), VamanaParams::default());
        let out = v1.search_with(&[0.0, 0.0], 5, 10, &mut scratch, &mut stats);
        assert_eq!(out.len(), 1);
    }
}
