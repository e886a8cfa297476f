//! Config-driven production workload generation and execution.
//!
//! The figure/table binaries measure one regime at a time; this module
//! generates the regime production actually serves — a zipf-skewed stream
//! of **mixed traffic** (hybrid, filtered, and pure searches interleaved
//! with inserts and deletes) against a [`SegmentedAcornIndex`] with
//! background maintenance merging behind the readers. The `workload_bench`
//! binary drives it at a million rows (the defaults — the committed
//! `BENCH_workload.json`); CI drives the same code at an env-scaled row
//! count and gates on tail latency.
//!
//! The design follows the atomix workload generator (SNIPPETS.md §3): a
//! single declarative config names every axis — row count, dimension,
//! attribute schema, zipf exponent (`0` = uniform, `1.0` = skewed),
//! read/write mix, concurrency, op count — and the whole run is a pure
//! function of that config:
//!
//! 1. [`WorkloadConfig`] — the defaults, scaled by the three
//!    `ACORN_WORKLOAD_*` overrides of [`WorkloadConfig::load`].
//! 2. [`WorkloadPlan::generate`] — expands the config into a corpus
//!    ([`correlated_dataset`]), a pool of per-band query templates, and a
//!    fully materialized op script ([`Op`]). Everything an execution needs
//!    is decided here, which is what makes replay determinism testable.
//! 3. [`build_index`] — bulk-loads the initial corpus in
//!    `segment_rows`-sized frozen chunks (one epoch per chunk, not per
//!    row).
//! 4. [`run_mixed`] — the concurrent measurement: the caller's thread
//!    applies the write ops in script order while `concurrency` reader
//!    threads drain the search ops, each verifying its hits as it goes.
//!    Latencies bucket per op class and per selectivity band.
//! 5. [`replay`] — the same script, strictly sequential with maintenance
//!    off, folded into a digest; two same-seed replays must produce the
//!    same digest bit-for-bit.
//!
//! [`correlated_dataset`]: acorn_data::correlated_dataset

use std::time::{Duration, Instant};

use acorn_core::{
    AcornParams, AcornVariant, GlobalNeighbor, MergePolicy, SegmentSnapshot, SegmentedAcornIndex,
};
use acorn_data::{correlated_dataset, CorrelatedSpec, HybridDataset, Zipf};
use acorn_hnsw::{LatencySummary, Metric, SearchStats, VectorStore};
use acorn_predicate::{exact_selectivity, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every knob of a workload run. The unit of reproducibility: a plan, and
/// therefore a whole run, is a pure function of this struct.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Rows bulk-loaded before the mixed phase starts.
    pub rows: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Mixture clusters in the generated corpus (attribute correlation
    /// anchor; see [`CorrelatedSpec`]).
    pub clusters: usize,
    /// Cardinality of the corpus `label` column.
    pub label_cardinality: usize,
    /// Keyword vocabulary size (max 64).
    pub vocab: usize,
    /// Cluster-affinity of the attribute columns (0 = independent).
    pub affinity: f64,
    /// Ops in the mixed phase (searches + inserts + deletes).
    pub ops: usize,
    /// Zipf exponent over the query-template pool: `0` = uniform traffic,
    /// `1.0` = classic skewed web traffic.
    pub zipf_exponent: f64,
    /// Reader threads draining search ops while the writer applies writes.
    pub concurrency: usize,
    /// Percentage of ops that are hybrid searches.
    pub hybrid_pct: usize,
    /// Percentage of ops that are filtered (pre-filter closure) searches.
    pub filtered_pct: usize,
    /// Percentage of ops that are pure ANN searches.
    pub pure_pct: usize,
    /// Percentage of ops that are inserts.
    pub insert_pct: usize,
    /// Percentage of ops that are deletes (the five must sum to 100).
    pub delete_pct: usize,
    /// Selectivity targets; every band gets its own template pool share
    /// and its own latency bucket.
    pub bands: Vec<f64>,
    /// Query templates generated per band (the zipf pool size is
    /// `bands.len() * templates_per_band`).
    pub templates_per_band: usize,
    /// Neighbors requested per search.
    pub k: usize,
    /// Beam width per search.
    pub efs: usize,
    /// Bulk-load chunk size: the initial corpus becomes
    /// `ceil(rows / segment_rows)` frozen segments.
    pub segment_rows: usize,
    /// Active-segment auto-freeze threshold during the mixed phase.
    pub active_max_rows: usize,
    /// Merge-policy `min_rows`: keep this below `segment_rows` so
    /// maintenance compacts the small mixed-phase segments without ever
    /// rebuilding the bulk-loaded ones mid-run.
    pub min_rows: usize,
    /// Background maintenance interval in milliseconds; `0` disables it.
    pub maintenance_ms: u64,
    /// Seed for corpus, templates, and op script alike.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            rows: 1_000_000,
            dim: 32,
            clusters: 64,
            label_cardinality: 16,
            vocab: 32,
            affinity: 0.8,
            ops: 40_000,
            zipf_exponent: 1.0,
            concurrency: 2,
            hybrid_pct: 40,
            filtered_pct: 15,
            pure_pct: 15,
            insert_pct: 20,
            delete_pct: 10,
            bands: vec![0.01, 0.1, 0.5],
            templates_per_band: 64,
            k: 10,
            efs: 48,
            segment_rows: 100_000,
            active_max_rows: 2_048,
            min_rows: 8_192,
            maintenance_ms: 25,
            seed: 42,
        }
    }
}

impl WorkloadConfig {
    /// The config a bench run uses: the defaults — the scale of the
    /// committed 1M-row run — unless `ACORN_WORKLOAD_ROWS`,
    /// `ACORN_WORKLOAD_OPS` or `ACORN_WORKLOAD_SEGMENT_ROWS` scale it (CI's
    /// smoke run: 20k rows, 6k ops, 10k-row segments).
    pub fn load() -> Result<Self, String> {
        let mut c = Self::default();
        for (key, slot) in [
            ("ACORN_WORKLOAD_ROWS", &mut c.rows),
            ("ACORN_WORKLOAD_OPS", &mut c.ops),
            ("ACORN_WORKLOAD_SEGMENT_ROWS", &mut c.segment_rows),
        ] {
            if let Ok(v) = std::env::var(key) {
                *slot = v.parse().map_err(|_| format!("{key} must be an integer, got `{v}`"))?;
            }
        }
        c.validate()?;
        Ok(c)
    }

    /// Reject configs that cannot run.
    pub fn validate(&self) -> Result<(), String> {
        let mix =
            self.hybrid_pct + self.filtered_pct + self.pure_pct + self.insert_pct + self.delete_pct;
        if mix != 100 {
            return Err(format!("op-mix percentages must sum to 100, got {mix}"));
        }
        if self.rows == 0 || self.dim == 0 || self.ops == 0 {
            return Err("rows, dim, and ops must all be positive".into());
        }
        if self.bands.is_empty()
            || self.bands.iter().any(|&b| !(0.0..=1.0).contains(&b) || b == 0.0)
        {
            return Err(format!("bands must be non-empty, each in (0, 1]: {:?}", self.bands));
        }
        if self.templates_per_band == 0 || self.concurrency == 0 {
            return Err("templates_per_band and concurrency must be positive".into());
        }
        if self.k == 0 || self.efs < self.k {
            return Err(format!(
                "need k >= 1 and efs >= k, got k = {}, efs = {}",
                self.k, self.efs
            ));
        }
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err(format!("zipf_exponent must be finite and >= 0: {}", self.zipf_exponent));
        }
        Ok(())
    }
}

/// One scripted operation. Search ops index into the plan's template pool;
/// `Insert` names the pre-generated corpus row it adds; `Delete` carries a
/// draw that execution resolves against the live set at apply time
/// (`live[pick % live.len()]`) so the script stays valid whatever the
/// interleaving did to the set's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Hybrid (predicate-aware traversal) search of a template.
    Hybrid {
        /// Index into [`WorkloadPlan::templates`].
        template: usize,
    },
    /// Pre-filtered search of the same template pool.
    Filtered {
        /// Index into [`WorkloadPlan::templates`].
        template: usize,
    },
    /// Pure ANN search (predicate ignored).
    Pure {
        /// Index into [`WorkloadPlan::templates`].
        template: usize,
    },
    /// Insert corpus row `row` (rows `config.rows..` feed inserts in
    /// order, so row `config.rows + i` always receives gid
    /// `config.rows + i`).
    Insert {
        /// Row index into the plan's dataset.
        row: usize,
    },
    /// Delete a live row chosen by `pick % live.len()` at apply time.
    Delete {
        /// Raw draw resolved against the live set when applied.
        pick: u64,
    },
}

/// A reusable query: vector, predicate, the selectivity band it was
/// generated for, and its exact selectivity over the full corpus.
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    /// Query vector (a corpus point plus noise).
    pub vector: Vec<f32>,
    /// Year-range predicate hitting the band's target selectivity.
    pub predicate: Predicate,
    /// The band this template belongs to (its latency bucket).
    pub band: f64,
    /// Exact selectivity of `predicate` over the whole corpus.
    pub selectivity: f64,
}

/// A fully materialized run: corpus, template pool, op script. Generation
/// decides everything random up front so concurrent execution and
/// sequential replay observe the same script.
#[derive(Debug)]
pub struct WorkloadPlan {
    /// The config this plan was generated from.
    pub config: WorkloadConfig,
    /// Corpus over `config.rows + inserts` rows: the attribute store must
    /// cover every gid the script will ever assign (hybrid search asserts
    /// it).
    pub dataset: HybridDataset,
    /// Template pool, band-interleaved so the zipf head spans all bands.
    pub templates: Vec<QueryTemplate>,
    /// The op script, applied in order by [`replay`] and split
    /// writer/readers by [`run_mixed`].
    pub ops: Vec<Op>,
    /// Insert ops in the script (`dataset.len() == config.rows + inserts`).
    pub inserts: usize,
}

impl WorkloadPlan {
    /// Expand `config` into corpus + templates + op script.
    ///
    /// Two passes: op classes are sampled first so the corpus can be sized
    /// to `rows + inserts` (every future gid gets its attribute row), then
    /// templates and the script are drawn from the same seeded stream.
    pub fn generate(config: &WorkloadConfig) -> Result<Self, String> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Pass 1: op classes. 0..4 = hybrid/filtered/pure/insert/delete.
        let cuts = [
            config.hybrid_pct,
            config.hybrid_pct + config.filtered_pct,
            config.hybrid_pct + config.filtered_pct + config.pure_pct,
            config.hybrid_pct + config.filtered_pct + config.pure_pct + config.insert_pct,
        ];
        let classes: Vec<u8> = (0..config.ops)
            .map(|_| {
                let r = rng.gen_range(0..100usize);
                cuts.iter().position(|&c| r < c).unwrap_or(4) as u8
            })
            .collect();
        let inserts = classes.iter().filter(|&&c| c == 3).count();

        // Pass 2: corpus sized for every gid the script will assign.
        let dataset = correlated_dataset(&CorrelatedSpec {
            n: config.rows + inserts,
            dim: config.dim,
            clusters: config.clusters,
            label_cardinality: config.label_cardinality,
            vocab: config.vocab,
            affinity: config.affinity,
            seed: config.seed,
            ..Default::default()
        });

        // Per-band templates: year windows sized to the target selectivity
        // (the date_range workload recipe), query vectors near corpus
        // points so searches traverse dense regions.
        let field = dataset.attrs.field("year").expect("correlated corpus has a year column");
        let mut years: Vec<i64> = dataset.attrs.ints(field).to_vec();
        years.sort_unstable();
        let mut by_band: Vec<Vec<QueryTemplate>> = Vec::with_capacity(config.bands.len());
        for &band in &config.bands {
            let mut pool = Vec::with_capacity(config.templates_per_band);
            let window = ((years.len() as f64 * band) as usize).clamp(1, years.len());
            for _ in 0..config.templates_per_band {
                let start = rng.gen_range(0..=years.len() - window);
                let predicate =
                    Predicate::Between { field, lo: years[start], hi: years[start + window - 1] }
                        .normalize();
                let base = rng.gen_range(0..dataset.len());
                let vector: Vec<f32> = dataset
                    .vectors
                    .get(base as u32)
                    .iter()
                    .map(|&x| x + rng.gen_range(-0.1f32..0.1))
                    .collect();
                let selectivity = exact_selectivity(&dataset.attrs, &predicate);
                pool.push(QueryTemplate { vector, predicate, band, selectivity });
            }
            by_band.push(pool);
        }
        // Interleave bands so zipf rank 0, 1, 2, ... cycles across bands:
        // the hot head then skews *within* every band instead of devoting
        // all heat to whichever band came first.
        let mut templates = Vec::with_capacity(config.bands.len() * config.templates_per_band);
        for t in 0..config.templates_per_band {
            for pool in &mut by_band {
                templates.push(std::mem::replace(
                    &mut pool[t],
                    QueryTemplate {
                        vector: Vec::new(),
                        predicate: Predicate::True,
                        band: 0.0,
                        selectivity: 0.0,
                    },
                ));
            }
        }

        // Pass 3: the script. Search ops draw their template through the
        // zipf sampler; inserts consume corpus rows in order.
        let zipf = Zipf::new(templates.len(), config.zipf_exponent);
        let mut next_insert = 0usize;
        let ops: Vec<Op> = classes
            .iter()
            .map(|&class| match class {
                0 => Op::Hybrid { template: zipf.sample(&mut rng) },
                1 => Op::Filtered { template: zipf.sample(&mut rng) },
                2 => Op::Pure { template: zipf.sample(&mut rng) },
                3 => {
                    let row = config.rows + next_insert;
                    next_insert += 1;
                    Op::Insert { row }
                }
                _ => Op::Delete { pick: rng.gen_range(0..u64::MAX) },
            })
            .collect();
        Ok(Self { config: config.clone(), dataset, templates, ops, inserts })
    }
}

/// Construction parameters every workload index uses: γ = 8 keeps the
/// lowest default band (0.01 < 1/γ) on the prefilter-fallback path while
/// the others traverse, so one run exercises both regimes.
fn workload_params(config: &WorkloadConfig) -> AcornParams {
    AcornParams {
        m: 8,
        gamma: 8,
        m_beta: 16,
        ef_construction: 32,
        metric: Metric::L2,
        seed: config.seed,
        ..Default::default()
    }
}

/// Build the starting index: the initial `config.rows` corpus rows
/// bulk-loaded as `segment_rows`-sized frozen chunks (one epoch each).
/// Returns the index and the wall-clock load time.
pub fn build_index(plan: &WorkloadPlan) -> (SegmentedAcornIndex, Duration) {
    let c = &plan.config;
    let policy = MergePolicy {
        min_rows: c.min_rows,
        active_max_rows: c.active_max_rows,
        ..MergePolicy::default()
    };
    let mut idx = SegmentedAcornIndex::new(c.dim, workload_params(c), AcornVariant::Gamma)
        .with_policy(policy);
    let t0 = Instant::now();
    let mut loaded = 0usize;
    while loaded < c.rows {
        let chunk = (c.rows - loaded).min(c.segment_rows.max(1));
        let mut store = VectorStore::with_capacity(c.dim, chunk);
        for row in loaded..loaded + chunk {
            store.push(plan.dataset.vectors.get(row as u32));
        }
        idx.bulk_load(store);
        loaded += chunk;
    }
    (idx, t0.elapsed())
}

/// Latency digest for one op class over the mixed phase.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// `"hybrid"`, `"filtered"`, `"pure"`, `"insert"`, or `"delete"`.
    pub name: &'static str,
    /// Ops of this class executed.
    pub count: usize,
    /// Ops of this class per second of mixed-phase wall time.
    pub qps: f64,
    /// Latency percentiles (`None` when the class drew no ops).
    pub summary: Option<LatencySummary>,
}

/// Latency digest for one selectivity band (search ops only).
#[derive(Debug, Clone)]
pub struct BandStats {
    /// The band's target selectivity.
    pub band: f64,
    /// Search ops that used one of this band's templates.
    pub count: usize,
    /// Latency percentiles (`None` when the band drew no searches).
    pub summary: Option<LatencySummary>,
}

/// Everything [`run_mixed`] measured.
#[derive(Debug, Clone)]
pub struct MixedReport {
    /// Wall time of the whole mixed phase.
    pub wall: Duration,
    /// Per-op-class digests, script order: hybrid, filtered, pure, insert,
    /// delete.
    pub classes: Vec<ClassStats>,
    /// Per-band digests over the search classes.
    pub bands: Vec<BandStats>,
    /// Individual result rows verified (sorted order, liveness, predicate
    /// satisfaction).
    pub checked_hits: u64,
}

fn verify_hits(
    snap: &SegmentSnapshot,
    hits: &[GlobalNeighbor],
    predicate: Option<(&Predicate, &acorn_predicate::AttrStore)>,
) -> u64 {
    for w in hits.windows(2) {
        assert!(w[0].dist <= w[1].dist, "results must stay sorted under churn");
    }
    for h in hits {
        assert!(snap.contains(h.id), "gid {} surfaced but is dead at epoch {}", h.id, snap.epoch());
        if let Some((p, attrs)) = predicate {
            assert!(p.eval(attrs, h.id as u32), "gid {} violates its query's predicate", h.id);
        }
    }
    hits.len() as u64
}

/// Execute the plan's script concurrently: the calling thread applies
/// inserts and deletes in script order while `config.concurrency` reader
/// threads drain the search ops (round-robin split, one pinned snapshot
/// and one pooled scratch per op — the serving pattern). Readers verify
/// every hit. Maintenance is the caller's choice (start it before calling
/// to measure merge interference, leave it off for a quiet baseline).
pub fn run_mixed(plan: &WorkloadPlan, idx: &mut SegmentedAcornIndex) -> MixedReport {
    let c = &plan.config;
    let reader = idx.reader();
    let attrs = &plan.dataset.attrs;

    // Round-robin split of the search ops across reader threads.
    let search_ops: Vec<Op> = plan
        .ops
        .iter()
        .copied()
        .filter(|o| matches!(o, Op::Hybrid { .. } | Op::Filtered { .. } | Op::Pure { .. }))
        .collect();
    let mut shards: Vec<Vec<Op>> = vec![Vec::new(); c.concurrency];
    for (i, op) in search_ops.iter().enumerate() {
        shards[i % c.concurrency].push(*op);
    }

    // (class, band, latency) samples from every reader, plus writer-side
    // insert/delete latencies.
    let mut samples: Vec<(u8, f64, Duration)> = Vec::with_capacity(plan.ops.len());
    let mut checked = 0u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(shards.len());
        for shard in &shards {
            let reader = reader.clone();
            handles.push(s.spawn(move || {
                let mut scratch = reader.scratch_pool().checkout(0);
                let mut stats = SearchStats::default();
                let mut out: Vec<(u8, f64, Duration)> = Vec::with_capacity(shard.len());
                let mut checked = 0u64;
                for op in shard {
                    let snap = reader.snapshot();
                    scratch.reset_for(snap.max_segment_rows());
                    match *op {
                        Op::Hybrid { template } => {
                            let t = &plan.templates[template];
                            let q0 = Instant::now();
                            let (hits, _) = snap.hybrid_search(
                                &t.vector,
                                &t.predicate,
                                attrs,
                                c.k,
                                c.efs,
                                &mut scratch,
                            );
                            let dt = q0.elapsed();
                            checked += verify_hits(&snap, &hits, Some((&t.predicate, attrs)));
                            out.push((0, t.band, dt));
                        }
                        Op::Filtered { template } => {
                            let t = &plan.templates[template];
                            let filter = |gid: u64| t.predicate.eval(attrs, gid as u32);
                            let q0 = Instant::now();
                            let hits = snap.search_filtered(
                                &t.vector,
                                &filter,
                                c.k,
                                c.efs,
                                &mut scratch,
                                &mut stats,
                            );
                            let dt = q0.elapsed();
                            checked += verify_hits(&snap, &hits, Some((&t.predicate, attrs)));
                            out.push((1, t.band, dt));
                        }
                        Op::Pure { template } => {
                            let t = &plan.templates[template];
                            let q0 = Instant::now();
                            let hits =
                                snap.search_with(&t.vector, c.k, c.efs, &mut scratch, &mut stats);
                            let dt = q0.elapsed();
                            checked += verify_hits(&snap, &hits, None);
                            out.push((2, t.band, dt));
                        }
                        Op::Insert { .. } | Op::Delete { .. } => unreachable!("writer-only op"),
                    }
                }
                (out, checked)
            }));
        }

        // Writer: the script's inserts and deletes, in order, on this
        // thread — the single-writer discipline the index requires.
        let mut live: Vec<u64> = (0..c.rows as u64).collect();
        for op in &plan.ops {
            match *op {
                Op::Insert { row } => {
                    let q0 = Instant::now();
                    let gid = idx.insert(plan.dataset.vectors.get(row as u32));
                    samples.push((3, 0.0, q0.elapsed()));
                    debug_assert_eq!(gid as usize, row, "insert order must track corpus rows");
                    live.push(gid);
                }
                Op::Delete { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let victim = live.swap_remove((pick % live.len() as u64) as usize);
                    let q0 = Instant::now();
                    let was_live = idx.delete(victim);
                    samples.push((4, 0.0, q0.elapsed()));
                    assert!(was_live, "scripted delete of {victim} found it already dead");
                }
                _ => {}
            }
        }
        for h in handles {
            let (out, n) = h.join().expect("reader thread panicked");
            samples.extend(out);
            checked += n;
        }
    });
    let wall = t0.elapsed();

    let class_names = ["hybrid", "filtered", "pure", "insert", "delete"];
    let classes = class_names
        .iter()
        .enumerate()
        .map(|(ci, name)| {
            let lats: Vec<Duration> =
                samples.iter().filter(|s| s.0 as usize == ci).map(|s| s.2).collect();
            ClassStats {
                name,
                count: lats.len(),
                qps: lats.len() as f64 / wall.as_secs_f64().max(1e-9),
                summary: LatencySummary::from_samples(&lats),
            }
        })
        .collect();
    let bands = c
        .bands
        .iter()
        .map(|&band| {
            let lats: Vec<Duration> =
                samples.iter().filter(|s| s.0 <= 2 && s.1 == band).map(|s| s.2).collect();
            BandStats { band, count: lats.len(), summary: LatencySummary::from_samples(&lats) }
        })
        .collect();
    MixedReport { wall, classes, bands, checked_hits: checked }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Apply the whole script strictly sequentially (maintenance off, one
/// thread) and fold every op's observable result — hit ids, distance bits,
/// assigned gids, delete outcomes — into an FNV-1a digest. Two replays of
/// the same plan must return the same digest: this is the determinism
/// contract the replay test pins down.
pub fn replay(plan: &WorkloadPlan) -> u64 {
    let c = &plan.config;
    let (mut idx, _) = build_index(plan);
    let reader = idx.reader();
    let attrs = &plan.dataset.attrs;
    let mut scratch = reader.scratch_pool().checkout(0);
    let mut stats = SearchStats::default();
    let mut live: Vec<u64> = (0..c.rows as u64).collect();
    let mut digest = FNV_OFFSET;
    let fold_hits = |digest: &mut u64, hits: &[GlobalNeighbor]| {
        for h in hits {
            fnv_mix(digest, h.id);
            fnv_mix(digest, u64::from(h.dist.to_bits()));
        }
    };
    for op in &plan.ops {
        let snap = reader.snapshot();
        scratch.reset_for(snap.max_segment_rows());
        match *op {
            Op::Hybrid { template } => {
                let t = &plan.templates[template];
                let (hits, _) =
                    snap.hybrid_search(&t.vector, &t.predicate, attrs, c.k, c.efs, &mut scratch);
                fold_hits(&mut digest, &hits);
            }
            Op::Filtered { template } => {
                let t = &plan.templates[template];
                let filter = |gid: u64| t.predicate.eval(attrs, gid as u32);
                let hits =
                    snap.search_filtered(&t.vector, &filter, c.k, c.efs, &mut scratch, &mut stats);
                fold_hits(&mut digest, &hits);
            }
            Op::Pure { template } => {
                let t = &plan.templates[template];
                let hits = snap.search_with(&t.vector, c.k, c.efs, &mut scratch, &mut stats);
                fold_hits(&mut digest, &hits);
            }
            Op::Insert { row } => {
                let gid = idx.insert(plan.dataset.vectors.get(row as u32));
                live.push(gid);
                fnv_mix(&mut digest, gid);
            }
            Op::Delete { pick } => {
                if live.is_empty() {
                    continue;
                }
                let victim = live.swap_remove((pick % live.len() as u64) as usize);
                let was_live = idx.delete(victim);
                fnv_mix(&mut digest, victim);
                fnv_mix(&mut digest, u64::from(was_live));
            }
        }
    }
    digest
}
