//! Determinism tests for the workload harness: the
//! whole run — corpus, templates, op script, and every op's observable
//! result — must be a pure function of the config.

use acorn_bench::workload::{replay, Op, WorkloadConfig, WorkloadPlan};

/// A config small enough that a full sequential replay takes well under a
/// second in debug builds.
fn small_config() -> WorkloadConfig {
    WorkloadConfig {
        rows: 600,
        dim: 8,
        clusters: 8,
        ops: 400,
        templates_per_band: 16,
        segment_rows: 256,
        active_max_rows: 64,
        min_rows: 128,
        maintenance_ms: 0,
        concurrency: 1,
        ..WorkloadConfig::default()
    }
}

#[test]
fn validate_rejects_broken_mixes() {
    let mut c = small_config();
    c.hybrid_pct = 50; // mix no longer sums to 100
    assert!(c.validate().is_err());
    let mut c = small_config();
    c.bands = vec![0.0];
    assert!(c.validate().is_err(), "a zero-selectivity band is meaningless");
    let mut c = small_config();
    c.efs = c.k - 1;
    assert!(c.validate().is_err());
}

#[test]
fn plan_generation_is_deterministic() {
    let c = small_config();
    let (a, b) = (WorkloadPlan::generate(&c).unwrap(), WorkloadPlan::generate(&c).unwrap());
    assert_eq!(a.ops, b.ops, "same config must script the same ops");
    assert_eq!(a.inserts, b.inserts);
    assert_eq!(a.templates.len(), b.templates.len());
    for (ta, tb) in a.templates.iter().zip(&b.templates) {
        assert_eq!(ta.vector, tb.vector);
        assert_eq!(format!("{:?}", ta.predicate), format!("{:?}", tb.predicate));
        assert_eq!(ta.selectivity, tb.selectivity);
    }
    let mut c2 = c;
    c2.seed = 99;
    let other = WorkloadPlan::generate(&c2).unwrap();
    assert_ne!(a.ops, other.ops, "different seeds must script different runs");
}

#[test]
fn plan_covers_every_future_gid() {
    let plan = WorkloadPlan::generate(&small_config()).unwrap();
    // Hybrid search asserts attrs cover every assigned gid; the corpus must
    // therefore be sized rows + inserts, with insert ops consuming rows in
    // order so gid == corpus row throughout.
    assert_eq!(plan.dataset.len(), plan.config.rows + plan.inserts);
    let insert_rows: Vec<usize> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Insert { row } => Some(*row),
            _ => None,
        })
        .collect();
    let expect: Vec<usize> = (plan.config.rows..plan.config.rows + plan.inserts).collect();
    assert_eq!(insert_rows, expect, "insert ops must consume corpus rows in order");
}

#[test]
fn zipf_skew_concentrates_template_traffic() {
    let mut c = small_config();
    c.ops = 4000;
    c.zipf_exponent = 1.2;
    let plan = WorkloadPlan::generate(&c).unwrap();
    let mut counts = vec![0usize; plan.templates.len()];
    for op in &plan.ops {
        if let Op::Hybrid { template } | Op::Filtered { template } | Op::Pure { template } = op {
            counts[*template] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let head: usize = counts[..plan.templates.len() / 10].iter().sum();
    assert!(
        head as f64 > 0.4 * total as f64,
        "zipf 1.2: hottest decile must dominate, got {head}/{total}"
    );

    c.zipf_exponent = 0.0;
    let plan = WorkloadPlan::generate(&c).unwrap();
    let mut counts = vec![0usize; plan.templates.len()];
    for op in &plan.ops {
        if let Op::Hybrid { template } | Op::Filtered { template } | Op::Pure { template } = op {
            counts[*template] += 1;
        }
    }
    let total: usize = counts.iter().sum();
    let head: usize = counts[..plan.templates.len() / 10].iter().sum();
    assert!(
        (head as f64) < 0.25 * total as f64,
        "zipf 0 is uniform: the first decile must stay near 10%, got {head}/{total}"
    );
}

#[test]
fn same_seed_replays_are_identical() {
    let plan = WorkloadPlan::generate(&small_config()).unwrap();
    let (a, b) = (replay(&plan), replay(&plan));
    assert_eq!(a, b, "two same-seed sequential replays must digest identically");

    let mut c2 = small_config();
    c2.seed = 777;
    let other = replay(&WorkloadPlan::generate(&c2).unwrap());
    assert_ne!(a, other, "a different seed must produce a different run");
}
