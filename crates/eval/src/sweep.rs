//! Recall-vs-QPS sweeps — the axes of Figures 7–11.
//!
//! A sweep runs the same workload at increasing beam widths (HNSW/ACORN
//! `efs`, Vamana `L`, IVF `nprobe`) and records `(recall, QPS, avg
//! distance computations)` per point. The paper generates its curves by
//! "varying the search parameter efs from 10 to 800" (§7.2); the experiment
//! binaries do the same.

use acorn_hnsw::pool::run_sharded;
use acorn_hnsw::{ScratchPool, SearchScratch, SearchStats};

use crate::recall::workload_recall;

/// One point on a recall-QPS curve.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept beam-width parameter value.
    pub param: usize,
    /// Mean recall@K over the workload.
    pub recall: f64,
    /// Queries per second.
    pub qps: f64,
    /// Mean distance computations per query.
    pub avg_ndis: f64,
    /// Mean predicate checks per query (`SearchStats::npred`).
    pub avg_npred: f64,
    /// Mean predicate checks answered from a per-query cache
    /// (`SearchStats::npred_cached`); `avg_npred - avg_npred_cached` is the
    /// mean number of rows actually evaluated.
    pub avg_npred_cached: f64,
}

impl SweepPoint {
    /// Fraction of predicate checks answered from a cache (0 when nothing
    /// was cached — e.g. interpreted evaluation).
    pub fn pred_hit_rate(&self) -> f64 {
        if self.avg_npred > 0.0 {
            self.avg_npred_cached / self.avg_npred
        } else {
            0.0
        }
    }
}

/// Sweep a beam-width parameter over a workload.
///
/// `f(query_index, param, scratch)` runs one query at the given parameter
/// value and returns the retrieved ids plus its [`SearchStats`]; each point
/// is one [`run_sharded`] batch on `threads` workers (`0` = all cores) that
/// executes every query `repeats` times — results from the final pass, QPS
/// over every execution — so wall time dwarfs thread start-up on small
/// workloads. `truth` supplies exact ground truth for recall@`k`.
pub fn sweep<F>(
    params: &[usize],
    truth: &[Vec<u32>],
    k: usize,
    threads: usize,
    repeats: usize,
    f: F,
) -> Vec<SweepPoint>
where
    F: Fn(usize, usize, &mut SearchScratch) -> (Vec<u32>, SearchStats) + Sync,
{
    let nq = truth.len();
    // One pool for the whole sweep: every parameter point reuses the same
    // worker scratches instead of re-allocating visited sets per run.
    let pool = ScratchPool::new();
    params
        .iter()
        .map(|&param| {
            let run = run_sharded(&pool, nq, threads, repeats, 0, |i, scratch, stats| {
                let (ids, st) = f(i, param, scratch);
                stats.merge(&st);
                ids
            });
            let recall = workload_recall(&run.results, truth, k);
            let denom = nq.max(1) as f64;
            SweepPoint {
                param,
                recall,
                qps: run.qps,
                avg_ndis: run.stats.ndis as f64 / denom,
                avg_npred: run.stats.npred as f64 / denom,
                avg_npred_cached: run.stats.npred_cached as f64 / denom,
            }
        })
        .collect()
}

/// A curve's `value` at a recall target, by linear interpolation between the
/// two straddling sweep points (`None` if the target recall is never
/// reached).
fn at_recall(points: &[SweepPoint], target: f64, value: fn(&SweepPoint) -> f64) -> Option<f64> {
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    sorted.sort_by(|a, b| a.recall.total_cmp(&b.recall));
    // First point at or above the target.
    let above = sorted.iter().position(|p| p.recall >= target)?;
    if above == 0 || (sorted[above].recall - target).abs() < 1e-12 {
        return Some(value(sorted[above]));
    }
    let (lo, hi) = (sorted[above - 1], sorted[above]);
    let t = (target - lo.recall) / (hi.recall - lo.recall);
    Some(value(lo) + t * (value(hi) - value(lo)))
}

/// The QPS a curve achieves at a recall target — how "QPS at 0.9 recall"
/// comparisons are read off.
pub fn qps_at_recall(points: &[SweepPoint], target: f64) -> Option<f64> {
    at_recall(points, target, |p| p.qps)
}

/// Distance computations needed to reach a recall target (Table 3).
pub fn ndis_at_recall(points: &[SweepPoint], target: f64) -> Option<f64> {
    at_recall(points, target, |p| p.avg_ndis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_improves_with_param() {
        // Fake index: with param p, "find" the first min(p, 10) truth items.
        let truth: Vec<Vec<u32>> =
            (0..8).map(|q| (0..10u32).map(|i| q * 100 + i).collect()).collect();
        let points = sweep(&[2, 5, 10], &truth, 10, 2, 1, |q, p, _s| {
            let ids: Vec<u32> = (0..p.min(10) as u32).map(|i| q as u32 * 100 + i).collect();
            (ids, SearchStats { ndis: p as u64, ..Default::default() })
        });
        assert!((points[0].recall - 0.2).abs() < 1e-9);
        assert!((points[1].recall - 0.5).abs() < 1e-9);
        assert!((points[2].recall - 1.0).abs() < 1e-9);
        assert!(points[2].avg_ndis > points[0].avg_ndis);
    }

    fn mk(recall: f64, qps: f64) -> SweepPoint {
        SweepPoint {
            param: 0,
            recall,
            qps,
            avg_ndis: 100.0 / qps,
            avg_npred: 0.0,
            avg_npred_cached: 0.0,
        }
    }

    #[test]
    fn qps_at_recall_interpolates() {
        let pts = vec![mk(0.5, 1000.0), mk(0.9, 500.0), mk(1.0, 100.0)];
        let q = qps_at_recall(&pts, 0.7).unwrap();
        assert!((q - 750.0).abs() < 1e-6, "got {q}");
        assert_eq!(qps_at_recall(&pts, 0.9).unwrap(), 500.0);
        assert!(qps_at_recall(&pts, 1.01).is_none());
    }

    #[test]
    fn ndis_at_recall_interpolates() {
        let pts = vec![mk(0.5, 1000.0), mk(1.0, 100.0)];
        let nd = ndis_at_recall(&pts, 0.75).unwrap();
        assert!(nd > 0.1 && nd < 1.0, "got {nd}");
    }
}
