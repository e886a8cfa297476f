//! Seeded inputs: the workload table, corpora, query templates, op scripts,
//! and the FNV-1a digest that guards them.
//!
//! Everything the engine is fed is a pure function of `(workload, seed,
//! scale)`. The generators live in `acorn-data`, outside this directory, so
//! a change there would silently change what is measured; the digest makes
//! that loud (see [`EXPECTED_DIGESTS`]).

use std::sync::Arc;

use acorn_data::workloads::{date_range_workload, keyword_workload, regex_workload};
use acorn_data::{
    correlated_dataset, CorrelatedSpec, Correlation, HybridDataset, HybridQuery, Zipf,
};
use acorn_hnsw::VectorStore;
use acorn_predicate::{AttrStore, Column, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed the expected digests are recorded for.
pub const DEFAULT_SEED: u64 = 42;

/// Seed of every corpus. `--seed` draws the templates, the write script and
/// the read order; the rows they run against are a fixed condition, like
/// the index parameters. Measured before fixing it: two 8,000 × 512-d
/// LAION stand-ins from different seeds differ by ±17 % in no-predicate
/// QPS at the same `efs`, several times the run-to-run noise, so a
/// seed-dependent corpus made every ten-seed spread a measure of the
/// generator's variance rather than of the engine.
pub const CORPUS_SEED: u64 = 42;

/// One query class: a predicate family at a fixed selectivity, chosen so
/// that each §5.2 router branch has a class of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `year BETWEEN` at selectivity 0.01: deep pre-filter.
    Sel01,
    /// Selectivity 0.10, just under `s_min = 1/γ = 0.125`: the worst-case
    /// pre-filter scan.
    Sel10,
    /// Selectivity 0.20: global bitmap materialization + graph traversal.
    Sel20,
    /// Selectivity 0.50: lazy memoized filter + graph traversal.
    Sel50,
    /// No predicate: the control that a predicate/router change must leave
    /// flat.
    Pure,
    /// Caption regex (LAION stand-in) at selectivity ≤ 0.10: exact scan,
    /// nearly all time in `acorn-predicate`.
    Regex,
    /// One-keyword `contains` (LAION stand-in, no query correlation) at
    /// selectivity 0.04–0.10: exact scan, bound by the 512-d kernel.
    Keyword,
}

impl Class {
    /// The name used in reports and span files.
    pub fn name(self) -> &'static str {
        match self {
            Class::Sel01 => "sel01",
            Class::Sel10 => "sel10",
            Class::Sel20 => "sel20",
            Class::Sel50 => "sel50",
            Class::Pure => "pure",
            Class::Regex => "regex",
            Class::Keyword => "keyword",
        }
    }

    /// `(target, lowest accepted, highest accepted)` exact selectivity of a
    /// band class's templates. The accepted range keeps every template on
    /// its own side of the router thresholds 0.125 and 0.25 by more than
    /// the estimator's sampling error (σ ≈ 0.01 at 1,000 samples).
    fn band(self) -> Option<(f64, f64, f64)> {
        match self {
            Class::Sel01 => Some((0.01, 0.005, 0.02)),
            Class::Sel10 => Some((0.10, 0.085, 0.105)),
            Class::Sel20 => Some((0.20, 0.17, 0.22)),
            Class::Sel50 => Some((0.50, 0.45, 0.55)),
            _ => None,
        }
    }
}

/// What the timed window of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One closed-loop reader over a frozen, merged index; no writes.
    Static,
    /// One open-loop writer beside one closed-loop reader, maintenance on.
    Churn,
    /// One closed-loop durable writer: WAL + fsync, checkpoints, recovery.
    Durable,
}

/// Which `acorn-data` generator makes the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// `correlated_dataset`: 32-d, cluster-correlated `year` column.
    Bands,
    /// `laion_like`: 512-d, captions and keyword lists.
    Laion,
}

/// The fixed shape of one workload.
#[derive(Debug)]
pub struct Spec {
    /// Workload name (the `--workload` argument).
    pub name: &'static str,
    /// One-line rationale (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// What the timed window does.
    pub kind: Kind,
    /// Corpus generator.
    pub corpus: Corpus,
    /// Rows bulk-loaded before the window.
    pub base_rows: usize,
    /// Frozen segments the base rows are loaded as.
    pub segments: usize,
    /// Query classes, each with its operating `efs`: the ladder step at
    /// which the class's recall@10 sits near 0.95 at this commit, so that
    /// it stays above the 0.90 floor on every seed (README.md, "Operating
    /// points", has the measurements and how to re-pick).
    pub classes: &'static [(Class, usize)],
    /// Templates per class (regex templates cost ~10 ms each to generate
    /// and to ground-truth, so that class gets a quarter).
    pub templates: usize,
    /// Length of the write script. The static workloads never write in
    /// their window; their script feeds the traced run's write probes.
    pub script_ops: usize,
}

const SEL01: (Class, usize) = (Class::Sel01, 16);
const SEL10: (Class, usize) = (Class::Sel10, 16);
const SEL20: (Class, usize) = (Class::Sel20, 64);
const SEL50: (Class, usize) = (Class::Sel50, 32);
const PURE: (Class, usize) = (Class::Pure, 16);

/// The five workloads. Sizes are what fits the driver's run budget (about
/// 25 s per run with three timed set-ups); see README.md, "Fixed conditions".
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "bands-scan",
        why: "year ranges at selectivity 0.01 and 0.10: both route to the exact pre-filter scan, so predicate materialization and distance kernels do the work",
        kind: Kind::Static,
        corpus: Corpus::Bands,
        base_rows: 32_000,
        segments: 4,
        classes: &[SEL01, SEL10],
        templates: 256,
        script_ops: 20_000,
    },
    Spec {
        name: "bands-graph",
        why: "selectivity 0.20 (bitmap + traversal), 0.50 (lazy memo + traversal) and no predicate: graph traversal does the work and the pre-filter branch is bypassed",
        kind: Kind::Static,
        corpus: Corpus::Bands,
        base_rows: 32_000,
        segments: 4,
        classes: &[SEL20, SEL50, PURE],
        templates: 256,
        script_ops: 20_000,
    },
    Spec {
        name: "hcps-512d",
        why: "LAION stand-in at 512-d: a regex query is ~98% predicate evaluation, a keyword query a kernel-bound exact scan, a pure query a kernel-bound traversal",
        kind: Kind::Static,
        corpus: Corpus::Laion,
        base_rows: 8_000,
        segments: 2,
        classes: &[(Class::Regex, 16), (Class::Keyword, 16), (Class::Pure, 64)],
        templates: 192,
        script_ops: 20_000,
    },
    Spec {
        name: "churn-mixed",
        why: "open-loop writes at a fixed rate beside a closed-loop Zipf reader with merges in flight: write publication, freeze and merge cost show, and a read gain that costs the writer shows too",
        kind: Kind::Churn,
        corpus: Corpus::Bands,
        base_rows: 32_000,
        segments: 4,
        classes: &[SEL01, SEL10, SEL20, SEL50, PURE],
        templates: 128,
        script_ops: 10_500,
    },
    Spec {
        name: "durable-writes",
        why: "closed-loop writes through the WAL with checkpoints and crash/recover cycles (device flushes are timed per layer, not gated): the only workload where the durability layer does the work",
        kind: Kind::Durable,
        corpus: Corpus::Bands,
        base_rows: 32_000,
        segments: 4,
        classes: &[SEL20, PURE],
        templates: 64,
        script_ops: 36_000,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Full size, or rows / templates / script divided down for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes in [`SPECS`].
    Full,
    /// Rows and script ÷ 10, templates ÷ 4. Results are tagged and
    /// `compare` refuses them.
    Quick,
}

impl Scale {
    /// The tag written into every report.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }

    fn rows(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => n / 10,
        }
    }

    fn templates(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Quick => (n / 4).max(8),
        }
    }
}

/// One write of the op script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert corpus row `row`; the engine must assign it global id `row`.
    Insert {
        /// Corpus row (past the base rows).
        row: u32,
    },
    /// Delete the live row at position `pick % live.len()` of the live
    /// list, resolved when the op is applied.
    Delete {
        /// Raw random draw.
        pick: u64,
    },
}

/// The templates of one class.
#[derive(Debug, Clone)]
pub struct ClassInputs {
    /// The class.
    pub class: Class,
    /// Its operating `efs`.
    pub efs: usize,
    /// Its query templates.
    pub templates: Vec<HybridQuery>,
}

/// Everything one run feeds the engine.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// Full or quick.
    pub scale: Scale,
    /// Vectors and attributes of the base rows followed by the insert pool.
    pub dataset: HybridDataset,
    /// Rows bulk-loaded at set-up (the rest are the insert pool).
    pub base_rows: usize,
    /// Attributes of the base rows alone.
    base_attrs: Arc<AttrStore>,
    /// Per-class templates.
    pub classes: Vec<ClassInputs>,
    /// The write script.
    pub script: Vec<Op>,
    /// Zipf(1.0)-popular `(class index, template index)` read order for the
    /// churn reader.
    pub read_seq: Vec<(u16, u16)>,
    /// FNV-1a over all of the above.
    pub digest: u64,
}

const READ_SEQ_LEN: usize = 1 << 16;

impl Inputs {
    /// Generate the inputs of `spec` from `seed`.
    ///
    /// # Panics
    /// Panics when the generators cannot produce enough templates inside a
    /// band's accepted selectivity range.
    pub fn generate(spec: &'static Spec, seed: u64, scale: Scale) -> Self {
        let base_rows = scale.rows(spec.base_rows);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x005C_2197);
        let mut next_row = base_rows as u32;
        let script: Vec<Op> = (0..scale.rows(spec.script_ops))
            .map(|_| {
                // insert : delete = 2 : 1
                if rng.gen_range(0..3u32) < 2 {
                    next_row += 1;
                    Op::Insert { row: next_row - 1 }
                } else {
                    Op::Delete { pick: rng.gen_range(0..u64::MAX) }
                }
            })
            .collect();
        let total_rows = next_row as usize;

        let dataset = match spec.corpus {
            // 10,000 distinct years (not the generator's default 121) so a
            // `Between` window can hit a target selectivity without ties
            // stretching it across a router threshold.
            Corpus::Bands => correlated_dataset(&CorrelatedSpec {
                n: total_rows,
                dim: 32,
                year_lo: 0,
                year_hi: 9_999,
                seed: CORPUS_SEED,
                ..CorrelatedSpec::default()
            }),
            Corpus::Laion => acorn_data::datasets::laion_like(total_rows, CORPUS_SEED),
        };

        let n_templates = scale.templates(spec.templates);
        let classes: Vec<ClassInputs> = spec
            .classes
            .iter()
            .enumerate()
            .map(|(i, &(class, efs))| ClassInputs {
                class,
                efs,
                templates: templates(&dataset, class, n_templates, seed ^ (0x7E3 + i as u64)),
            })
            .collect();

        // Rank r of the Zipf draw maps to class r % C, template r / C, so
        // the hot head is spread over every class.
        let c = classes.len();
        let per_class = classes.iter().map(|k| k.templates.len()).min().unwrap_or(0);
        let zipf = Zipf::new(c * per_class, 1.0);
        let read_seq = (0..READ_SEQ_LEN)
            .map(|_| {
                let r = zipf.sample(&mut rng);
                ((r % c) as u16, (r / c) as u16)
            })
            .collect();

        let attrs = &dataset.attrs;
        let mut base = AttrStore::builder();
        for f in 0..attrs.num_fields() {
            let column = match attrs.column(f) {
                Column::Int(v) => Column::Int(v[..base_rows].to_vec()),
                Column::Keywords(v) => Column::Keywords(v[..base_rows].to_vec()),
                Column::Str(v) => Column::Str(v[..base_rows].to_vec()),
            };
            base = base.add(attrs.field_name(f), column);
        }
        let base_attrs = Arc::new(base.build());

        let mut inputs = Self {
            spec,
            scale,
            dataset,
            base_rows,
            base_attrs,
            classes,
            script,
            read_seq,
            digest: 0,
        };
        inputs.digest = inputs.compute_digest();
        inputs
    }

    /// The base rows as chunks, one per frozen segment.
    pub fn base_chunks(&self) -> Vec<VectorStore> {
        let dim = self.dataset.vectors.dim();
        let segments = self.spec.segments;
        let per = self.base_rows.div_ceil(segments);
        (0..segments)
            .map(|s| {
                let (lo, hi) = (s * per, ((s + 1) * per).min(self.base_rows));
                VectorStore::from_flat(
                    dim,
                    self.dataset.vectors.as_flat()[lo * dim..hi * dim].to_vec(),
                )
            })
            .collect()
    }

    /// The first `rows` vectors as a store of their own (exact ground truth
    /// scans every row of the store it is handed).
    pub fn vectors_prefix(&self, rows: usize) -> VectorStore {
        let dim = self.dataset.vectors.dim();
        VectorStore::from_flat(dim, self.dataset.vectors.as_flat()[..rows * dim].to_vec())
    }

    /// Vector of corpus row `row`.
    pub fn vector(&self, row: u32) -> &[f32] {
        self.dataset.vectors.get(row)
    }

    /// The attribute store covering every row the script can insert
    /// (indexed by global id = corpus row): what reads beside writes use.
    pub fn attrs(&self) -> &Arc<AttrStore> {
        &self.dataset.attrs
    }

    /// What reads of the index **as set up** use: the base rows' attributes
    /// alone. The router materializes predicates over the whole store it
    /// is handed, so a store that also held the not-yet-inserted pool rows
    /// would charge a static workload for rows it never serves.
    pub fn base_attrs(&self) -> &Arc<AttrStore> {
        &self.base_attrs
    }

    fn compute_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(self.spec.name);
        h.u64(self.base_rows as u64);
        for &x in self.dataset.vectors.as_flat() {
            h.bytes(&x.to_bits().to_le_bytes());
        }
        let attrs = &self.dataset.attrs;
        for f in 0..attrs.num_fields() {
            h.str(attrs.field_name(f));
            match attrs.column(f) {
                Column::Int(v) => v.iter().for_each(|&x| h.u64(x as u64)),
                Column::Keywords(v) => v.iter().for_each(|&x| h.u64(x)),
                Column::Str(v) => v.iter().for_each(|s| h.str(s)),
            }
        }
        for c in &self.classes {
            h.str(c.class.name());
            for t in &c.templates {
                for &x in &t.vector {
                    h.bytes(&x.to_bits().to_le_bytes());
                }
                h.str(&t.predicate.describe(attrs));
                h.u64(t.selectivity.to_bits());
            }
        }
        for op in &self.script {
            match *op {
                Op::Insert { row } => h.u64(u64::from(row) << 1),
                Op::Delete { pick } => h.u64(pick | 1),
            }
        }
        for &(c, t) in &self.read_seq {
            h.u64(u64::from(c) << 16 | u64::from(t));
        }
        h.finish()
    }

    /// The digest recorded for this workload at the default seed and full
    /// scale, if this run is at those.
    pub fn expected_digest(&self, seed: u64) -> Option<u64> {
        if seed != DEFAULT_SEED || self.scale != Scale::Full {
            return None;
        }
        EXPECTED_DIGESTS.iter().find(|(name, _)| *name == self.spec.name).map(|&(_, d)| d)
    }
}

/// `input_digest` per workload at `--seed 42`, full scale. A run at that
/// seed fails when its digest differs: the generators in `acorn-data`
/// changed, and every number recorded before the change measured other
/// inputs. Re-record (README.md, "Input guard") in a benchmark-only change.
pub const EXPECTED_DIGESTS: [(&str, u64); 5] = [
    ("bands-scan", 0x822f_36f8_0f5b_de02),
    ("bands-graph", 0xdc20_98d8_cd95_ce10),
    ("hcps-512d", 0x5e58_e751_02c9_0976),
    ("churn-mixed", 0xfe5a_87b0_1b24_6362),
    ("durable-writes", 0x10ac_ac32_4adb_7c41),
];

fn templates(ds: &HybridDataset, class: Class, n: usize, seed: u64) -> Vec<HybridQuery> {
    let pure = |mut qs: Vec<HybridQuery>| {
        for q in &mut qs {
            q.predicate = Predicate::True;
            q.selectivity = 1.0;
        }
        qs
    };
    match class {
        Class::Pure if ds.attrs.field("year").is_some() => {
            pure(date_range_workload(ds, 0.5, n, seed).queries)
        }
        Class::Pure => pure(keyword_workload(ds, Correlation::None, n, seed).queries),
        // Both LAION classes are kept under `s_min` with margin, so every
        // segment answers them by the exact pre-filter scan: `regex` is
        // bound by predicate evaluation, `keyword` (a one-word `contains`)
        // by the 512-d scan kernel, and `pure` is the 512-d traversal.
        // Their above-`s_min` templates traverse a predicate subgraph whose
        // recall@10 tops out at 0.91–0.94 on this corpus whatever the
        // `efs` — too close to the 0.90 floor to build a workload on.
        Class::Regex => {
            let n = (n / 4).max(8);
            within(class, n, 0.0, 0.10, |seed| regex_workload(ds, n, seed).queries, seed)
        }
        Class::Keyword => within(
            class,
            n,
            0.04,
            0.10,
            |seed| keyword_workload(ds, Correlation::None, n, seed).queries,
            seed,
        ),
        band => {
            let (target, lo, hi) = band.band().expect("band class");
            within(band, n, lo, hi, |seed| date_range_workload(ds, target, n, seed).queries, seed)
        }
    }
}

/// The first `n` generated templates whose exact selectivity lies in
/// `[lo, hi]`, drawing batch after batch (each from its own seed) until
/// there are enough.
///
/// # Panics
/// Panics when 64 batches do not yield `n`: the generator no longer
/// produces this class at all.
fn within(
    class: Class,
    n: usize,
    lo: f64,
    hi: f64,
    batch: impl Fn(u64) -> Vec<HybridQuery>,
    seed: u64,
) -> Vec<HybridQuery> {
    let mut kept = Vec::with_capacity(n);
    for round in 0..64u64 {
        let candidates = batch(seed.wrapping_add(round.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        kept.extend(candidates.into_iter().filter(|q| (lo..=hi).contains(&q.selectivity)));
        if kept.len() >= n {
            kept.truncate(n);
            return kept;
        }
    }
    panic!(
        "{}: 64 batches gave only {} of {n} templates with selectivity in [{lo}, {hi}]",
        class.name(),
        kept.len()
    );
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a string in, length first so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = spec("churn-mixed").unwrap();
        let a = Inputs::generate(spec, 7, Scale::Quick);
        let b = Inputs::generate(spec, 7, Scale::Quick);
        let c = Inputs::generate(spec, 8, Scale::Quick);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.script, b.script);
        assert_eq!(a.read_seq, b.read_seq);
        assert_ne!(a.digest, c.digest);
        assert_ne!(a.script, c.script);
    }

    #[test]
    fn script_inserts_consume_pool_rows_in_order() {
        let inputs = Inputs::generate(spec("durable-writes").unwrap(), 3, Scale::Quick);
        let mut next = inputs.base_rows as u32;
        let mut inserts = 0usize;
        for op in &inputs.script {
            if let Op::Insert { row } = *op {
                assert_eq!(row, next);
                next += 1;
                inserts += 1;
            }
        }
        assert_eq!(inputs.dataset.len(), inputs.base_rows + inserts);
        let share = inserts as f64 / inputs.script.len() as f64;
        assert!((share - 2.0 / 3.0).abs() < 0.05, "insert share {share}");
    }

    #[test]
    fn band_templates_stay_on_their_side_of_the_router_thresholds() {
        let inputs = Inputs::generate(spec("churn-mixed").unwrap(), 5, Scale::Quick);
        for c in &inputs.classes {
            for t in &c.templates {
                match c.class {
                    Class::Sel01 | Class::Sel10 => assert!(t.selectivity < 0.11),
                    Class::Sel20 => assert!((0.17..=0.22).contains(&t.selectivity)),
                    Class::Sel50 => assert!(t.selectivity >= 0.45),
                    _ => assert_eq!(t.selectivity, 1.0),
                }
            }
        }
    }

    #[test]
    fn base_chunks_cover_the_base_rows_once() {
        let inputs = Inputs::generate(spec("bands-scan").unwrap(), 1, Scale::Quick);
        let chunks = inputs.base_chunks();
        assert_eq!(chunks.len(), inputs.spec.segments);
        assert_eq!(chunks.iter().map(VectorStore::len).sum::<usize>(), inputs.base_rows);
        assert_eq!(chunks[1].get(0), inputs.vector(chunks[0].len() as u32));
    }
}
