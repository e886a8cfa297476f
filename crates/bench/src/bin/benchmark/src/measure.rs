//! Engine-free measuring rules: percentiles, the speed probe and calibrated
//! time, the operating-point ladder, recall, the hit verifier, and open-loop
//! pacing. Everything here is a pure function or takes closures, so the
//! rules are unit-tested without building an index.

use std::time::{Duration, Instant};

/// Results per query.
pub const K: usize = 10;

/// The recall every class must reach at its operating `efs`; a class below
/// it fails all its reads.
pub const RECALL_FLOOR: f64 = 0.90;

/// Candidate `efs` values, ascending (`efs` cannot be below `k`). The fixed
/// operating points in `inputs::SPECS` are steps of this ladder.
pub const LADDER: [usize; 14] = [10, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024];

/// Percentile `p` (0–100) of an ascending slice, nearest-rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it in a sample of `n` (the choosing-metrics rule), or
/// `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In hundredths of a percent, so the count beyond is exact.
    [9_999usize, 9_990, 9_900, 9_500, 9_000, 5_000]
        .into_iter()
        .find(|bp| n * (10_000 - bp) / 10_000 >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// What one [`Probe::run`] takes on the machine this benchmark was written
/// on when nothing else runs there, ns. Calibrated time is wall time scaled
/// by `PROBE_REFERENCE_NS / probe time measured alongside`: the time the
/// work would have taken at that reference speed.
pub const PROBE_REFERENCE_NS: f64 = 28_000.0;

/// Rows of the probe's private table (32 floats each: 16 MiB, several times
/// the L2 cache, like the corpora).
const PROBE_ROWS: usize = 128 * 1024;
const PROBE_DIM: usize = 32;
/// Rows one probe run gathers.
const PROBE_GATHER: usize = 256;

/// The speed probe: a fixed piece of work that shares no code with the
/// engine — squared distances from a fixed query to 256 pseudo-randomly
/// chosen rows of a private table, the access pattern of a graph traversal —
/// timed right beside the operations being measured.
///
/// Why: this box is a small VM on a shared host. For minutes at a time
/// everything on it (graph build, regex evaluation, scans alike) runs
/// 1.3–1.6× slower, and ten runs of the same code spread by 20–40 %. The
/// probe slows down with the engine, so wall time ÷ probe time is steady
/// where wall time is not (measured over ten runs across such phases:
/// `qps` spread 20 % raw, 5 % calibrated). A change to the engine cannot
/// move the probe; a change that slows the engine shows in full.
#[derive(Debug)]
pub struct Probe {
    table: Vec<f32>,
    next: u64,
    sink: f32,
}

impl Probe {
    /// Allocate and fill the table (every page touched), then warm up.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..PROBE_ROWS * PROBE_DIM)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 24) as f32
            })
            .collect();
        let mut probe = Self { table, next: 12_345, sink: 0.0 };
        probe.burst(64);
        probe
    }

    /// One probe; its wall time in ns.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..PROBE_GATHER {
            self.next = self
                .next
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (self.next >> 33) as usize % PROBE_ROWS;
            let row = &self.table[r * PROBE_DIM..(r + 1) * PROBE_DIM];
            acc += row.iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f32>();
        }
        self.sink += acc;
        std::hint::black_box(self.sink);
        t.elapsed().as_nanos() as u64
    }

    /// Median of `n` back-to-back probes, ns.
    pub fn burst(&mut self, n: usize) -> f64 {
        let times: Vec<f64> = (0..n).map(|_| self.run() as f64).collect();
        median(&times)
    }

    /// Run `work` between two probe bursts; its result, its wall time and
    /// its calibrated time, seconds.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.burst(SPAN_BURST);
        let t = Instant::now();
        let result = work();
        let raw_s = t.elapsed().as_secs_f64();
        let probe_ns = (before + self.burst(SPAN_BURST)) / 2.0;
        (result, raw_s, calibrated(raw_s, probe_ns))
    }
}

/// Probes on each side of a [`Probe::time`] span (≈ 1 ms a side).
const SPAN_BURST: usize = 32;

/// `wall` (any unit) as it would have been at the reference speed, given
/// what the probe took alongside.
pub fn calibrated(wall: f64, probe_ns: f64) -> f64 {
    wall * PROBE_REFERENCE_NS / probe_ns.max(1.0)
}

/// One timed operation and the probe run right after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// Wall time of the operation, ns.
    pub ns: u64,
    /// Wall time of the probe beside it, ns.
    pub probe_ns: u64,
}

impl Timed {
    /// A sample with the probe at its reference: calibration leaves it as
    /// it is (the traced run's per-layer timings are raw wall time).
    pub fn raw(ns: u64) -> Self {
        Self { ns, probe_ns: PROBE_REFERENCE_NS as u64 }
    }
}

/// Time-ordered chunks a latency sample is cut into. Each statistic is
/// computed per chunk, calibrated by the chunk's median probe, and the
/// median chunk is reported: short bursts of outside interference move some
/// chunks and leave the median one alone, and what slows a whole run down
/// slows its probes down too.
const CHUNKS: usize = 20;

/// Fewest samples a chunk may hold: ten beyond its 90th percentile.
const MIN_CHUNK: usize = 100;

/// The median over the chunks of `samples` of the calibrated `stat(chunk's
/// times, ascending)`. Samples too few for [`CHUNKS`] chunks of
/// [`MIN_CHUNK`] are cut into fewer (at least one).
fn median_over_chunks(samples: &[Timed], stat: impl Fn(&[u64]) -> f64) -> f64 {
    let chunks = (samples.len() / MIN_CHUNK).clamp(1, CHUNKS);
    let per = samples.len() / chunks;
    let stats: Vec<f64> = samples
        .chunks_exact(per)
        .take(chunks)
        .map(|chunk| {
            let mut ns: Vec<u64> = chunk.iter().map(|t| t.ns).collect();
            ns.sort_unstable();
            let probes: Vec<f64> = chunk.iter().map(|t| t.probe_ns as f64).collect();
            calibrated(stat(&ns), median(&probes))
        })
        .collect();
    median(&stats)
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean (every class counts equally, whatever its speed).
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One measured point of a class's recall/efs curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Search beam width.
    pub efs: usize,
    /// Mean recall@10 over the class's templates at that `efs`.
    pub recall: f64,
}

/// The smallest ladder `efs` whose recall reaches the floor, found by
/// climbing (cost grows with `efs`, so climbing is cheaper than probing
/// from the top). On a pinned snapshot recall is deterministic, so the pick
/// repeats exactly. `None` when even the last step stays below the floor.
pub fn calibrate(mut recall_at: impl FnMut(usize) -> f64) -> Option<Point> {
    LADDER
        .into_iter()
        .map(|efs| Point { efs, recall: recall_at(efs) })
        .find(|p| p.recall >= RECALL_FLOOR)
}

/// `|found ∩ truth| / min(k, |truth|)`, summed form: returns `(hits,
/// possible)` so callers can pool queries before dividing.
pub fn recall_counts(found: &[u64], truth: &[u32]) -> (usize, usize) {
    let possible = truth.len().min(K);
    let hits =
        found.iter().filter(|&&id| truth[..possible].iter().any(|&t| u64::from(t) == id)).count();
    (hits, possible)
}

/// Why a result list was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitError {
    /// Hits are not ascending by `(distance, id)`.
    Unsorted,
    /// A hit is not live in the snapshot the query pinned.
    NotLive,
    /// A hit fails the query's predicate.
    FailsPredicate,
    /// More than `k` hits.
    TooMany,
}

/// Check one result list: ascending `(distance, id)`, at most `k`, every
/// id live in the pinned snapshot and passing the predicate.
pub fn check_hits(
    hits: &[(f32, u64)],
    is_live: impl Fn(u64) -> bool,
    passes: impl Fn(u64) -> bool,
) -> Result<(), HitError> {
    if hits.len() > K {
        return Err(HitError::TooMany);
    }
    for w in hits.windows(2) {
        if w[0].0.total_cmp(&w[1].0).then(w[0].1.cmp(&w[1].1)).is_ge() {
            return Err(HitError::Unsorted);
        }
    }
    for &(_, id) in hits {
        if !is_live(id) {
            return Err(HitError::NotLive);
        }
        if !passes(id) {
            return Err(HitError::FailsPredicate);
        }
    }
    Ok(())
}

/// When one open-loop op was due, started and finished, as nanoseconds
/// since the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// Scheduled send time.
    pub due_ns: u64,
    /// When the generator actually issued it.
    pub start_ns: u64,
    /// When it was acknowledged.
    pub end_ns: u64,
}

impl OpTiming {
    /// Latency a client sees: from the **due** time, so a stall is charged
    /// to every op it delayed, not only to the op that stalled.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }

    /// How late the generator issued the op.
    pub fn lag_ns(&self) -> u64 {
        self.start_ns - self.due_ns
    }

    /// Time inside the engine call.
    pub fn service_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Issue ops `0..n` on a fixed schedule (`period` apart), never early, and
/// however late the previous op leaves the generator. Stops before the
/// first op due at or after `window`. `apply(i)` performs op `i` and is
/// what gets timed; `after(i, next_due)` runs once it is acknowledged and
/// may use the time until the next op is due (the churn client runs its
/// speed probe and its reads there); whatever it takes beyond that is
/// charged to the ops it delays.
pub fn run_open_loop(
    n: usize,
    period: Duration,
    window: Duration,
    mut apply: impl FnMut(usize),
    mut after: impl FnMut(usize, Instant),
) -> Vec<OpTiming> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let due = period * i as u32;
        if due >= window {
            break;
        }
        loop {
            let now = t0.elapsed();
            if now >= due {
                break;
            }
            // Spin, never sleep: a sleeping generator has to win a core back
            // at every op, and that wake-up delay (milliseconds on a busy
            // 2-core box) would be reported as write latency.
            std::hint::spin_loop();
        }
        let start = t0.elapsed();
        apply(i);
        let end = t0.elapsed();
        after(i, t0 + period * (i as u32 + 1));
        out.push(OpTiming {
            due_ns: due.as_nanos() as u64,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
    }
    out
}

/// Median and tail of a latency sample in calibrated ns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median (median chunk).
    pub p50_ns: f64,
    /// 90th percentile (median chunk).
    pub p90_ns: f64,
    /// Mean (median chunk).
    pub mean_ns: f64,
}

impl Latency {
    /// Summarize samples of a steady stream (reads going round the same
    /// templates), given in the order they were taken: statistics per
    /// chunk, the median chunk reported.
    pub fn of(samples: &[Timed]) -> Self {
        assert!(!samples.is_empty(), "latency of no samples");
        let at = |p: f64| move |sorted: &[u64]| percentile(sorted, p) as f64;
        Self {
            n: samples.len(),
            p50_ns: median_over_chunks(samples, at(50.0)),
            p90_ns: median_over_chunks(samples, at(90.0)),
            mean_ns: median_over_chunks(samples, |c| c.iter().sum::<u64>() as f64 / c.len() as f64),
        }
    }

    /// Summarize samples whose cost cycles (an insert costs 80 µs into an
    /// empty active segment and 300 µs into a full one, and a chunk of the
    /// window is shorter than that cycle, so chunk statistics would measure
    /// where the chunks fell): every sample is calibrated by the median
    /// probe of its block of [`MIN_CHUNK`] neighbours, and the statistics
    /// are taken over the whole window.
    pub fn over_window(samples: &[Timed]) -> Self {
        assert!(!samples.is_empty(), "latency of no samples");
        let mut ns: Vec<f64> = Vec::with_capacity(samples.len());
        for block in samples.chunks(MIN_CHUNK) {
            let probes: Vec<f64> = block.iter().map(|t| t.probe_ns as f64).collect();
            let probe_ns = median(&probes);
            ns.extend(block.iter().map(|t| calibrated(t.ns as f64, probe_ns)));
        }
        ns.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let rank = ((p / 100.0) * ns.len() as f64).ceil() as usize;
            ns[rank.clamp(1, ns.len()) - 1]
        };
        Self {
            n: ns.len(),
            p50_ns: at(50.0),
            p90_ns: at(90.0),
            mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn latency_reports_the_median_chunk() {
        // 4,000 samples = 20 chunks of 200; a burst slows six chunks down
        // tenfold and leaves the reported statistics where they were.
        let calm: Vec<Timed> = (0..4_000).map(|i| Timed::raw(100 + i % 10)).collect();
        let mut bursty = calm.clone();
        for x in &mut bursty[200..1_400] {
            x.ns *= 10;
        }
        let (a, b) = (Latency::of(&calm), Latency::of(&bursty));
        assert_eq!((a.p50_ns, a.p90_ns, a.mean_ns), (104.0, 108.0, 104.5));
        assert_eq!((b.p50_ns, b.p90_ns, b.mean_ns), (a.p50_ns, a.p90_ns, a.mean_ns));
        assert_eq!(b.n, 4_000);
        // Too few samples to chunk: one chunk, plain statistics.
        let few = Latency::of(&[Timed::raw(1), Timed::raw(3)]);
        assert_eq!((few.p50_ns, few.mean_ns), (1.0, 2.0));
    }

    #[test]
    fn window_statistics_see_the_whole_cycle() {
        // Cost ramps 100 -> 1,099 over each 1,000 samples, four times over:
        // the median is the middle of the ramp wherever chunks would fall.
        let ramp: Vec<Timed> = (0..4_000).map(|i| Timed::raw(100 + i % 1_000)).collect();
        let lat = Latency::over_window(&ramp);
        assert_eq!((lat.n, lat.p50_ns, lat.p90_ns, lat.mean_ns), (4_000, 599.0, 999.0, 599.5));
    }

    #[test]
    fn calibration_cancels_a_slow_machine() {
        // The second half of the run is 1.5x slower, operations and probes
        // alike: calibrated statistics are those of the reference speed.
        let reference = PROBE_REFERENCE_NS as u64;
        let samples: Vec<Timed> = (0..4_000)
            .map(|i| {
                let slow = if i < 2_000 { 2 } else { 3 };
                Timed { ns: (1_000 + i % 10) * slow, probe_ns: reference * slow / 2 }
            })
            .collect();
        let lat = Latency::of(&samples);
        assert!((lat.p50_ns - 2_008.0).abs() < 1e-6, "{}", lat.p50_ns);
        assert!((lat.mean_ns - 2_009.0).abs() < 1e-6, "{}", lat.mean_ns);
        let lat = Latency::over_window(&samples);
        assert!((lat.p50_ns - 2_008.0).abs() < 1e-6, "{}", lat.p50_ns);
        assert_eq!(calibrated(3.0, 1.5 * PROBE_REFERENCE_NS), 2.0);
    }

    #[test]
    fn probe_times_a_span_and_its_own_runs() {
        let mut probe = Probe::new();
        assert!(probe.run() > 0);
        let ((), raw_s, cal_s) = probe.time(|| std::thread::sleep(Duration::from_millis(5)));
        assert!(raw_s >= 0.005);
        assert!(cal_s > 0.0);
    }

    #[test]
    fn ladder_pick_is_the_smallest_step_reaching_the_floor() {
        // recall = efs / 100, so 96 is the first step at or above 0.90.
        let mut calls = Vec::new();
        let pick = calibrate(|efs| {
            calls.push(efs);
            efs as f64 / 100.0
        });
        assert_eq!(pick, Some(Point { efs: 96, recall: 0.96 }));
        assert_eq!(
            calls,
            [10, 16, 24, 32, 48, 64, 96],
            "climbs and stops at the first step reaching it"
        );
        assert_eq!(calibrate(|_| 0.95).map(|p| p.efs), Some(10));
        assert_eq!(calibrate(|_| 0.5), None);
        // Exactly at the floor counts as reaching it.
        assert_eq!(calibrate(|efs| if efs >= 48 { 0.90 } else { 0.1 }).map(|p| p.efs), Some(48));
    }

    #[test]
    fn recall_counts_against_the_true_top_k() {
        let truth: Vec<u32> = (0..20).collect();
        assert_eq!(recall_counts(&[0, 1, 2, 50, 11], &truth), (3, 10));
        assert_eq!(recall_counts(&[5], &[5, 6]), (1, 2));
    }

    #[test]
    fn verifier_rejects_unsorted_dead_and_failing_hits() {
        let live = |id: u64| id != 13;
        let passes = |id: u64| id % 2 == 1 || id == 13;
        assert_eq!(check_hits(&[(0.1, 1), (0.2, 3), (0.2, 5)], live, passes), Ok(()));
        assert_eq!(check_hits(&[(0.3, 1), (0.2, 3)], live, passes), Err(HitError::Unsorted));
        assert_eq!(check_hits(&[(0.2, 3), (0.2, 3)], live, passes), Err(HitError::Unsorted));
        assert_eq!(check_hits(&[(0.1, 1), (0.2, 13)], live, passes), Err(HitError::NotLive));
        assert_eq!(check_hits(&[(0.1, 1), (0.2, 4)], live, passes), Err(HitError::FailsPredicate));
        let many: Vec<(f32, u64)> = (0..11).map(|i| (i as f32, 2 * i + 1)).collect();
        assert_eq!(check_hits(&many, |_| true, |_| true), Err(HitError::TooMany));
    }

    #[test]
    fn open_loop_latency_is_measured_from_the_due_time() {
        // Op 0 stalls for 20 ms on a 2 ms schedule: ops 1..5 are issued
        // late, and their latency must include the time they waited.
        let period = Duration::from_millis(2);
        let mut acked = Vec::new();
        let timings = run_open_loop(
            6,
            period,
            Duration::from_secs(1),
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
            },
            |i, _| acked.push(i),
        );
        assert_eq!(acked, [0, 1, 2, 3, 4, 5]);
        assert_eq!(timings.len(), 6);
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(t.due_ns, 2_000_000 * i as u64);
            assert!(t.start_ns >= t.due_ns, "op {i} issued early");
        }
        // Op 3 was due at 6 ms but could not start before 20 ms.
        assert!(timings[3].lag_ns() >= 13_000_000, "lag {}", timings[3].lag_ns());
        assert!(timings[3].latency_ns() >= 13_000_000);
        assert!(timings[3].service_ns() < 5_000_000);
    }

    #[test]
    fn open_loop_stops_at_the_window() {
        let timings = run_open_loop(
            1_000,
            Duration::from_millis(1),
            Duration::from_millis(5),
            |_| {},
            |_, _| {},
        );
        assert_eq!(timings.len(), 5);
    }
}
