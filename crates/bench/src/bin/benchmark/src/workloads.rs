//! Set-up, the three kinds of timed window (static reads, churn, durable
//! writes), and the checks every answer goes through.

use std::path::Path;
use std::time::{Duration, Instant};

use acorn_data::HybridQuery;
use acorn_hnsw::Metric;

use crate::inputs::{Inputs, Op, Scale};
use crate::layers::{
    self, AttrStore, DurableIndex, Fsync, GlobalNeighbor, IndexReader, MergePolicy, SearchScratch,
    SegmentSnapshot, SegmentedAcornIndex,
};
use crate::measure::{
    check_hits, median, recall_counts, run_open_loop, OpTiming, Probe, Timed, K, RECALL_FLOOR,
};

/// Times the index is built per run; `setup_s` reports the median.
pub const SETUP_REPS: usize = 3;

/// Open-loop write rate of the churn window, writes per second: a 2.5 ms
/// period, in which a read of the slowest class (≈ 1.1 ms) fits twice over.
/// At 500 writes/s it fitted with a quarter to spare: whenever the machine
/// slowed down, reads overran into the next write's due time, more than a
/// tenth of the writes started late, and the inserts' p90 doubled.
pub const CHURN_WRITES_PER_S: u32 = 400;

/// Writes between a durable cycle's checkpoint and its crash: the WAL tail
/// recovery replays.
pub const DURABLE_TAIL_OPS: usize = 200;

/// Writes before a durable cycle's checkpoint.
pub const DURABLE_HEAD_OPS: usize = 400;

/// The merge policy of every workload: the active segment freezes at 1,024
/// rows and frozen segments under 2,048 rows are merged, so the base
/// segments are left alone and a churn window goes through several
/// freeze/merge cycles.
pub fn policy(scale: Scale) -> MergePolicy {
    let div = if scale == Scale::Quick { 8 } else { 1 };
    MergePolicy { active_max_rows: 1_024 / div, min_rows: 2_048 / div, ..MergePolicy::default() }
}

/// One class, ready to be queried.
#[derive(Debug)]
pub struct ClassRun<'a> {
    /// Class name.
    pub name: &'static str,
    /// Query templates.
    pub templates: &'a [HybridQuery],
    /// Exact top-k over the base rows, per template.
    pub truth: Vec<Vec<u32>>,
    /// The class's fixed operating `efs`.
    pub efs: usize,
    /// Mean recall@10 at that `efs` on the index as set up.
    pub recall: f64,
}

impl ClassRun<'_> {
    /// Whether the class may be read: its recall reaches the floor.
    pub fn reaches_floor(&self) -> bool {
        self.recall >= RECALL_FLOOR
    }
}

/// A built index with everything the window needs.
#[derive(Debug)]
pub struct Prepared<'a> {
    /// The inputs.
    pub inputs: &'a Inputs,
    /// The index, base rows loaded and merged.
    pub index: SegmentedAcornIndex,
    /// Per-class templates, truth and recall at the operating point.
    pub classes: Vec<ClassRun<'a>>,
    /// Wall time of each build (bulk load + merge until idle), seconds.
    pub build_s: Vec<f64>,
    /// The same builds in calibrated seconds.
    pub build_cal_s: Vec<f64>,
    /// Exact ground truth + the recall check at each operating point, wall
    /// seconds.
    pub truth_s: f64,
    /// The same in calibrated seconds.
    pub truth_cal_s: f64,
}

impl Prepared<'_> {
    /// `setup_s`: median build plus ground truth and the recall check, in
    /// calibrated seconds.
    pub fn setup_s(&self) -> f64 {
        median(&self.build_cal_s) + self.truth_cal_s
    }
}

/// One build; its wall and calibrated seconds. Every segment is its own
/// calibrated span, so a build that straddles a change in the machine's
/// speed is still scaled piece by piece.
fn build(inputs: &Inputs, probe: &mut Probe) -> (SegmentedAcornIndex, f64, f64) {
    let mut index = layers::new_index(inputs.dataset.vectors.dim(), policy(inputs.scale));
    let (mut raw_s, mut cal_s) = (0.0, 0.0);
    for chunk in inputs.base_chunks() {
        let ((), raw, cal) = probe.time(|| {
            layers::bulk_load(&mut index, chunk);
        });
        raw_s += raw;
        cal_s += cal;
    }
    let ((), raw, cal) = probe.time(|| while layers::merge(&index) > 0 {});
    (index, raw_s + raw, cal_s + cal)
}

/// Build the index [`SETUP_REPS`] times (keeping the last), compute exact
/// ground truth over the base rows, and measure each class's recall at its
/// operating `efs`.
pub fn prepare(inputs: &Inputs) -> Prepared<'_> {
    let mut probe = Probe::new();
    let (mut build_s, mut build_cal_s) = (Vec::new(), Vec::new());
    let mut index = None;
    for _ in 0..SETUP_REPS {
        // Free the previous build first, so every build runs against the
        // same resident set.
        drop(index.take());
        let (built, raw, cal) = build(inputs, &mut probe);
        build_s.push(raw);
        build_cal_s.push(cal);
        index = Some(built);
    }
    let index = index.expect("SETUP_REPS > 0");

    let base = inputs.vectors_prefix(inputs.base_rows);
    let snap = layers::pin(&layers::reader(&index));
    let mut scratch = layers::scratch_for(&snap);
    let (mut truth_s, mut truth_cal_s) = (0.0, 0.0);
    let classes = inputs
        .classes
        .iter()
        .map(|c| {
            let ((truth, recall), raw, cal) = probe.time(|| {
                let truth = acorn_data::ground_truth(
                    &base,
                    inputs.base_attrs(),
                    Metric::L2,
                    &c.templates,
                    K,
                    0,
                );
                let recall = recall_at(
                    &snap,
                    &c.templates,
                    &truth,
                    inputs.base_attrs(),
                    c.efs,
                    &mut scratch,
                );
                (truth, recall)
            });
            truth_s += raw;
            truth_cal_s += cal;
            ClassRun { name: c.class.name(), templates: &c.templates, truth, efs: c.efs, recall }
        })
        .collect();
    Prepared { inputs, index, classes, build_s, build_cal_s, truth_s, truth_cal_s }
}

/// Mean recall@10 of a class's templates at `efs` on a pinned snapshot.
pub fn recall_at(
    snap: &SegmentSnapshot,
    templates: &[HybridQuery],
    truth: &[Vec<u32>],
    attrs: &AttrStore,
    efs: usize,
    scratch: &mut SearchScratch,
) -> f64 {
    let (mut hits, mut possible) = (0usize, 0usize);
    for (q, t) in templates.iter().zip(truth) {
        let (found, _) = layers::hybrid_search(snap, &q.vector, &q.predicate, attrs, efs, scratch);
        let ids: Vec<u64> = found.iter().map(|n| n.id).collect();
        let (h, p) = recall_counts(&ids, t);
        hits += h;
        possible += p;
    }
    hits as f64 / possible.max(1) as f64
}

/// The sorted / live / predicate check on one answer.
pub fn verify(
    snap: &SegmentSnapshot,
    hits: &[GlobalNeighbor],
    q: &HybridQuery,
    attrs: &AttrStore,
) -> bool {
    let pairs: Vec<(f32, u64)> = hits.iter().map(|n| (n.dist, n.id)).collect();
    check_hits(
        &pairs,
        |id| layers::is_live(snap, id),
        |id| layers::eval_interpreted(&q.predicate, attrs, id as u32),
    )
    .is_ok()
}

/// Every read (pin + search) of each class with the probe beside it, in
/// issue order; index = class index. A class below the recall floor is
/// never read.
pub type ReadSamples = Vec<Vec<Timed>>;

/// Reads attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
}

impl Tally {
    /// Fold another tally in.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn timed_read(
    reader: &IndexReader,
    q: &HybridQuery,
    attrs: &AttrStore,
    efs: usize,
    scratch: &mut SearchScratch,
    tally: &mut Tally,
) -> u64 {
    let t = Instant::now();
    let snap = layers::pin(reader);
    let (hits, _) = layers::hybrid_search(&snap, &q.vector, &q.predicate, attrs, efs, scratch);
    let ns = t.elapsed().as_nanos() as u64;
    tally.attempted += 1;
    if !verify(&snap, &hits, q, attrs) {
        tally.failed += 1;
    }
    ns
}

/// Most reads of one class in a round of the static window.
const MAX_READS_PER_ROUND: usize = 16;

/// The static window: one closed-loop client going round the classes, a
/// speed probe after every read, after one untimed pass over every class's
/// templates. That pass also sets how many reads of each class make a round
/// (slowest class's time ÷ this class's, at most 16): every class then gets
/// about the same share of the window and of any drift in the machine's
/// speed, and a fast class is not left with the few samples a slow one
/// allows it (a regex read takes thirty keyword reads).
pub fn static_window(p: &Prepared, seconds: f64) -> (ReadSamples, Tally) {
    let reader = layers::reader(&p.index);
    let attrs = p.inputs.base_attrs();
    let mut scratch = layers::scratch_for(&layers::pin(&reader));
    let mut probe = Probe::new();
    let mut samples: ReadSamples = vec![Vec::new(); p.classes.len()];
    let mut tally = Tally::default();
    let readable: Vec<(usize, &ClassRun)> =
        p.classes.iter().enumerate().filter(|(_, c)| c.reaches_floor()).collect();
    let pass_ns: Vec<f64> = readable
        .iter()
        .map(|(_, c)| {
            let total: u64 = c
                .templates
                .iter()
                .map(|q| timed_read(&reader, q, attrs, c.efs, &mut scratch, &mut Tally::default()))
                .sum();
            total as f64 / c.templates.len() as f64
        })
        .collect();
    let slowest = pass_ns.iter().copied().fold(0.0, f64::max);
    let per_round: Vec<usize> = pass_ns
        .iter()
        .map(|ns| ((slowest / ns.max(1.0)).round() as usize).clamp(1, MAX_READS_PER_ROUND))
        .collect();
    let mut next = vec![0usize; readable.len()];
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds && !readable.is_empty() {
        for (slot, &(i, c)) in readable.iter().enumerate() {
            for _ in 0..per_round[slot] {
                let q = &c.templates[next[slot] % c.templates.len()];
                next[slot] += 1;
                let ns = timed_read(&reader, q, attrs, c.efs, &mut scratch, &mut tally);
                samples[i].push(Timed { ns, probe_ns: probe.run() });
            }
        }
    }
    (samples, tally)
}

/// Position in the write script and the live set the deletes draw from.
#[derive(Debug)]
pub struct WriteState<'a> {
    script: &'a [Op],
    next: usize,
    live: Vec<u64>,
}

/// What the next script op resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Write {
    /// Insert this corpus row.
    Insert(u32),
    /// Delete this live global id.
    Delete(u64),
}

impl<'a> WriteState<'a> {
    /// Start of the script, every base row live.
    pub fn new(inputs: &'a Inputs) -> Self {
        Self { script: &inputs.script, next: 0, live: (0..inputs.base_rows as u64).collect() }
    }

    /// Script ops not yet applied.
    pub fn remaining(&self) -> usize {
        self.script.len() - self.next
    }

    /// Live global ids, in no particular order.
    pub fn live(&self) -> &[u64] {
        &self.live
    }

    /// Resolve the next op against the live set and advance. The caller
    /// applies it; an insert's row becomes live here.
    pub fn next_write(&mut self) -> Write {
        let op = self.script[self.next];
        self.next += 1;
        match op {
            // The live set never empties: a script deletes at most a third
            // of its ops and the base rows outnumber every script.
            Op::Delete { pick } => {
                let at = (pick % self.live.len() as u64) as usize;
                Write::Delete(self.live.swap_remove(at))
            }
            Op::Insert { row } => {
                self.live.push(u64::from(row));
                Write::Insert(row)
            }
        }
    }
}

/// One write of the churn window.
#[derive(Debug, Clone, Copy)]
pub struct WriteSample {
    /// Due, start and end times.
    pub timing: OpTiming,
    /// The writer's speed probe right after the write, ns.
    pub probe_ns: u64,
    /// Insert (true) or delete.
    pub insert: bool,
    /// Rows in the active segment when the op was issued.
    pub active_before: u32,
}

/// Everything the churn window measured.
#[derive(Debug)]
pub struct ChurnOut {
    /// Every write, in schedule order.
    pub writes: Vec<WriteSample>,
    /// Reads, by class.
    pub reads: ReadSamples,
    /// Reads issued / failed.
    pub read_tally: Tally,
    /// Writes issued / failed.
    pub write_tally: Tally,
    /// Background merges that published during the window.
    pub merges_completed: u64,
    /// Background merge cycles that panicked (must be 0).
    pub maintenance_errors: u64,
}

/// The churn window: **one client thread** beside the engine's maintenance
/// thread (a merge cycle every 25 ms) — as many threads as the box has
/// cores. The client writes open-loop at [`CHURN_WRITES_PER_S`] and, in the
/// time until the next write is due, reads closed-loop: templates in Zipf
/// order, a read issued only when twice the class's mean read time (from an
/// untimed warm-up pass) still fits, so that a read rarely makes a write
/// late — and when it does, the write is charged for it from its due time.
/// A speed probe follows every operation.
///
/// An earlier version ran the reader on a thread of its own with a 2 ms
/// think time: writer (spinning), merges and reader then wanted 2.2 cores
/// of 2, the scheduler decided which write waited, and the inserts' p90
/// from due time moved between 0.25 and 5 ms from run to run on the same
/// inputs.
pub fn churn_window(
    index: &mut SegmentedAcornIndex,
    inputs: &Inputs,
    classes: &[ClassRun],
    state: &mut WriteState,
    seconds: f64,
) -> ChurnOut {
    let reader = layers::reader(index);
    let attrs = inputs.attrs();
    let period = Duration::from_secs(1) / CHURN_WRITES_PER_S;
    let mut scratch = layers::scratch_for(&layers::pin(&reader));
    let mut probe = Probe::new();
    // The warm-up pass: what a read of each class may take at most for it
    // to be started in a gap (never the whole period: a class that slow
    // would otherwise never be read).
    let fits_in: Vec<Option<Duration>> = classes
        .iter()
        .map(|c| {
            c.reaches_floor().then(|| {
                let total: u64 = c
                    .templates
                    .iter()
                    .map(|q| {
                        timed_read(&reader, q, attrs, c.efs, &mut scratch, &mut Tally::default())
                    })
                    .sum();
                Duration::from_nanos(2 * total / c.templates.len() as u64).min(period * 4 / 5)
            })
        })
        .collect();
    // Nothing to read (and nothing to wait for) when no class is readable.
    let any_readable = fits_in.iter().any(Option::is_some);

    let (merges_before, _) = layers::maintenance_counters(&reader);
    layers::start_maintenance(index, Duration::from_millis(25));
    let mut write_tally = Tally::default();
    let mut kinds: Vec<(bool, u32)> = Vec::new();
    let mut probe_ns: Vec<u64> = Vec::new();
    let mut reads: ReadSamples = vec![Vec::new(); classes.len()];
    let mut read_tally = Tally::default();
    let mut read_seq = inputs.read_seq.iter().filter(|_| any_readable).cycle().peekable();

    let timings = run_open_loop(
        state.remaining(),
        period,
        Duration::from_secs_f64(seconds),
        |_| {
            let active_before = layers::active_rows(index) as u32;
            write_tally.attempted += 1;
            match state.next_write() {
                Write::Insert(row) => {
                    kinds.push((true, active_before));
                    if layers::insert(index, inputs.vector(row)) != u64::from(row) {
                        write_tally.failed += 1;
                    }
                }
                Write::Delete(gid) => {
                    kinds.push((false, active_before));
                    if !layers::delete(index, gid) {
                        write_tally.failed += 1;
                    }
                }
            }
        },
        |_, next_due| {
            probe_ns.push(probe.run());
            while let Some(&&(c, t)) = read_seq.peek() {
                let class = &classes[usize::from(c)];
                match fits_in[usize::from(c)] {
                    // A class under the recall floor is not read; its reads fail.
                    None => {
                        read_tally.attempted += 1;
                        read_tally.failed += 1;
                    }
                    Some(budget) if Instant::now() + budget > next_due => break,
                    Some(_) => {
                        let q = &class.templates[usize::from(t) % class.templates.len()];
                        let ns =
                            timed_read(&reader, q, attrs, class.efs, &mut scratch, &mut read_tally);
                        reads[usize::from(c)].push(Timed { ns, probe_ns: probe.run() });
                    }
                }
                read_seq.next();
            }
        },
    );
    layers::stop_maintenance(index);

    let (merges_after, maintenance_errors) = layers::maintenance_counters(&reader);
    let writes = timings
        .into_iter()
        .zip(kinds)
        .zip(probe_ns)
        .map(|((timing, (insert, active_before)), probe_ns)| WriteSample {
            timing,
            probe_ns,
            insert,
            active_before,
        })
        .collect();
    ChurnOut {
        writes,
        reads,
        read_tally,
        write_tally,
        merges_completed: merges_after - merges_before,
        maintenance_errors,
    }
}

/// Everything the durable window measured.
#[derive(Debug, Default)]
pub struct DurableOut {
    /// Every acknowledged write with the probe beside it, in issue order.
    pub writes: Vec<Timed>,
    /// Per cycle, the time inside the engine (its writes, its checkpoint,
    /// its recovery; not the probes, not the checks) with the cycle's
    /// median probe.
    pub cycles: Vec<Timed>,
    /// Wall time of the whole window (probes and checks included), s.
    pub wall_s: f64,
    /// `checkpoint()` wall times, ms.
    pub checkpoint_ms: Vec<f64>,
    /// `DurableIndex::open` wall times (snapshot load + WAL replay), ms.
    pub recovery_ms: Vec<f64>,
    /// WAL bytes appended per logged op, sampled before each checkpoint.
    pub wal_bytes_per_op: Vec<f64>,
    /// WAL bytes appended over the window.
    pub wal_bytes: u64,
    /// Bytes of user data the writes carried (vectors and ids).
    pub user_bytes: u64,
    /// Writes issued / failed.
    pub tally: Tally,
}

/// Writes of one durable cycle.
pub const DURABLE_CYCLE_OPS: usize = DURABLE_HEAD_OPS + DURABLE_TAIL_OPS;

/// The durable window: closed-loop writes through the store `store` was
/// opened as (`fsync` says how, for the re-opens) in crash/recover cycles —
/// [`DURABLE_HEAD_OPS`] writes, `checkpoint()`, [`DURABLE_TAIL_OPS`] writes,
/// drop the handle un-checkpointed, `open` — until the time is up or the
/// script runs out. After every recovery the replayed-op count and the
/// live-id set are checked against the script; a mismatch fails every write
/// of the cycle.
pub fn durable_window(
    mut store: DurableIndex,
    dir: &Path,
    fsync: Fsync,
    inputs: &Inputs,
    state: &mut WriteState,
    seconds: f64,
) -> std::io::Result<(DurableIndex, DurableOut)> {
    let mut out = DurableOut::default();
    let mut probe = Probe::new();
    let t0 = Instant::now();
    let cycle = DURABLE_CYCLE_OPS;
    while t0.elapsed().as_secs_f64() < seconds && state.remaining() >= cycle {
        let failed_before = out.tally.failed;
        let first_write = out.writes.len();
        let wal_of = |store: &DurableIndex| layers::durable_counters(store).0;
        let wal_start = wal_of(&store);
        durable_writes(&mut store, inputs, state, DURABLE_HEAD_OPS, &mut probe, &mut out)?;
        let head_bytes = wal_of(&store) - wal_start;
        out.wal_bytes_per_op.push(head_bytes as f64 / DURABLE_HEAD_OPS as f64);
        let t = Instant::now();
        layers::checkpoint(&mut store)?;
        let checkpoint_ns = t.elapsed().as_nanos() as u64;
        out.checkpoint_ms.push(checkpoint_ns as f64 / 1e6);

        let wal_start = wal_of(&store);
        durable_writes(&mut store, inputs, state, DURABLE_TAIL_OPS, &mut probe, &mut out)?;
        out.wal_bytes += head_bytes + wal_of(&store) - wal_start;
        drop(store);
        let t = Instant::now();
        store = layers::durable_open(dir, fsync)?;
        let recovery_ns = t.elapsed().as_nanos() as u64;
        out.recovery_ms.push(recovery_ns as f64 / 1e6);

        let writes = &out.writes[first_write..];
        let probes: Vec<f64> = writes.iter().map(|w| w.probe_ns as f64).collect();
        out.cycles.push(Timed {
            ns: writes.iter().map(|w| w.ns).sum::<u64>() + checkpoint_ns + recovery_ns,
            probe_ns: median(&probes) as u64,
        });

        let (_, replayed) = layers::durable_counters(&store);
        let mut recovered = layers::live_ids(&layers::durable_snapshot(&store));
        let mut expected = state.live().to_vec();
        recovered.sort_unstable();
        expected.sort_unstable();
        if replayed != DURABLE_TAIL_OPS as u64 || recovered != expected {
            out.tally.failed = failed_before + cycle as u64;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok((store, out))
}

fn durable_writes(
    store: &mut DurableIndex,
    inputs: &Inputs,
    state: &mut WriteState,
    n: usize,
    probe: &mut Probe,
    out: &mut DurableOut,
) -> std::io::Result<()> {
    let dim = inputs.dataset.vectors.dim() as u64;
    for _ in 0..n {
        let write = state.next_write();
        out.tally.attempted += 1;
        let t = Instant::now();
        let ok = match write {
            Write::Insert(row) => {
                out.user_bytes += 4 * dim;
                layers::durable_insert(store, inputs.vector(row))? == u64::from(row)
            }
            Write::Delete(gid) => {
                out.user_bytes += 8;
                layers::durable_delete(store, gid)?
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        out.writes.push(Timed { ns, probe_ns: probe.run() });
        if !ok {
            out.tally.failed += 1;
        }
    }
    Ok(())
}

/// `recall_min`: the lowest mean recall@10 any class reaches at its
/// operating `efs`, against exact ground truth over the rows live in
/// `snap`. `live` is `None` when the snapshot still holds exactly the base
/// rows (the truth and the attribute store from set-up apply).
pub fn recall_min(
    snap: &SegmentSnapshot,
    inputs: &Inputs,
    classes: &[ClassRun],
    live: Option<&[u64]>,
) -> f64 {
    let mut scratch = layers::scratch_for(snap);
    let fresh = live.map(|live| live_truth(inputs, classes, live));
    classes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let truth = fresh.as_ref().map_or(&c.truth, |f| &f[i]);
            let attrs = if live.is_some() { inputs.attrs() } else { inputs.base_attrs() };
            recall_at(snap, c.templates, truth, attrs, c.efs, &mut scratch)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Exact top-k per class over an arbitrary live set: `ground_truth` scans
/// every row of the store it is given and knows only predicates, so
/// liveness goes in as an extra 0/1 column and an extra conjunct.
fn live_truth(inputs: &Inputs, classes: &[ClassRun], live: &[u64]) -> Vec<Vec<Vec<u32>>> {
    let rows = live.iter().max().map_or(0, |&m| m as usize + 1);
    let vectors = inputs.vectors_prefix(rows);
    let mut flags = vec![0i64; inputs.attrs().len()];
    for &gid in live {
        flags[gid as usize] = 1;
    }
    let attrs = inputs.attrs();
    let mut builder = AttrStore::builder();
    for f in 0..attrs.num_fields() {
        builder = builder.add(attrs.field_name(f), attrs.column(f).clone());
    }
    let with_live = builder.add_int("__live", flags).build();
    let field = with_live.field("__live").expect("column just added");
    classes
        .iter()
        .map(|c| {
            let queries: Vec<HybridQuery> = c
                .templates
                .iter()
                .map(|q| HybridQuery {
                    vector: q.vector.clone(),
                    predicate: layers::Predicate::And(vec![
                        layers::Predicate::Equals { field, value: 1 },
                        q.predicate.clone(),
                    ]),
                    selectivity: q.selectivity,
                })
                .collect();
            acorn_data::ground_truth(&vectors, &with_live, Metric::L2, &queries, K, 0)
        })
        .collect()
}

/// A directory for durable stores under `out`, removed when dropped — on
/// success and while unwinding from a panic alike.
#[derive(Debug)]
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    /// Create `out/tmp-<pid>-<tag>`, empty.
    pub fn create(out: &Path, tag: &str) -> std::io::Result<Self> {
        let path = out.join(format!("tmp-{}-{tag}", std::process::id()));
        // A previous process with this pid may have been killed mid-run.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of the regular files directly inside.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{spec, Scale};

    #[test]
    fn write_state_resolves_deletes_from_the_live_set() {
        let inputs = Inputs::generate(spec("churn-mixed").unwrap(), 9, Scale::Quick);
        let mut state = WriteState::new(&inputs);
        let mut live: std::collections::BTreeSet<u64> = (0..inputs.base_rows as u64).collect();
        for _ in 0..500 {
            match state.next_write() {
                Write::Insert(row) => assert!(live.insert(u64::from(row)), "row inserted twice"),
                Write::Delete(gid) => assert!(live.remove(&gid), "deleted a dead row"),
            }
        }
        let mut got = state.live().to_vec();
        got.sort_unstable();
        assert_eq!(got, live.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/test-tmp-{}", std::process::id()));
        let path = {
            let dir = TempDir::create(&out, "a").unwrap();
            std::fs::write(dir.path().join("f"), b"12345").unwrap();
            assert_eq!(dir.disk_bytes(), 5);
            dir.path().to_path_buf()
        };
        assert!(!path.exists());
        let out2 = out.clone();
        let caught = std::panic::catch_unwind(move || {
            let _dir = TempDir::create(&out2, "b").unwrap();
            panic!("boom");
        });
        assert!(caught.is_err());
        assert!(!out.join(format!("tmp-{}-b", std::process::id())).exists());
        let _ = std::fs::remove_dir_all(&out);
    }
}
