//! `SegmentSnapshot::memory_bytes` against the global allocator: what a
//! frozen segment reports is what it keeps on the heap. A sealed segment
//! holds one graph (its CSR), its rows, its id map and its tombstones, and
//! nothing of the build that produced it — no nested graph, no level
//! sampler, no insert scratch; a pending one holds its rows, id map and
//! tombstones. An active segment holds no graph and more than it reports,
//! within the bound its buffers' doubling sets (`ACTIVE_SLACK`).
//!
//! A file of its own because `#[global_allocator]` is per binary, and one
//! test only so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use acorn_core::{AcornParams, AcornVariant, MergePolicy, SegmentedAcornIndex};
use acorn_hnsw::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and takes no part in allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DIM: usize = 32;
/// Rows bulk-loaded as one segment: the repo benchmark's segment size.
const BULK_ROWS: usize = 8000;
/// Rows trickled into the active segment before it is frozen. A power of
/// two, so the buffers an active segment doubles as it grows (rows, id map,
/// tombstone words) are exactly full at the freeze. A segment frozen
/// mid-doubling keeps the unwritten tail of those buffers until a merge
/// rewrites it (1.15x at 1,500 rows); that is their growth policy, not the
/// graph layout this test is about.
const TRICKLED_ROWS: usize = 2048;

/// Rows inserted into the active segment after the freeze: the repo
/// benchmark's `active_max_rows`, at which it seals into a pending segment.
const ACTIVE_ROWS: usize = 1024;
/// How often the active segment's heap is checked.
const ACTIVE_STEP: usize = 32;

/// Heap growth may exceed the reported bytes by this factor: the snapshot
/// and segment spines, the empty active segment, `Arc` headers.
const SLACK: f64 = 1.05;
/// The same factor for an active segment, which holds no graph and reports
/// its rows, its id map and its tombstone words. The row buffer, the
/// writer's id map and the tombstone words double as they grow, to at most
/// twice what they hold, and the writer keeps its id map beside the
/// published view's copy: at 32-d, `(2 · 128 + 3 · 8 + 2 / 8) / (128 + 8 +
/// 1 / 8)` ≈ 2.06 B per reported byte just after a doubling.
const ACTIVE_SLACK: f64 = 2.06;

#[test]
fn a_frozen_segment_keeps_on_the_heap_what_memory_bytes_reports() {
    // The repo benchmark's index parameters.
    let params = AcornParams {
        m: 16,
        gamma: 8,
        m_beta: 32,
        ef_construction: 64,
        metric: Metric::L2,
        seed: 42,
        ..AcornParams::default()
    };
    let mut rng = StdRng::seed_from_u64(18);
    let mut v = vec![0.0f32; DIM];
    let check = |what: &str, resident: usize, reported: usize, slack: f64| {
        let ratio = resident as f64 / reported as f64;
        assert!(
            (1.0..=slack).contains(&ratio),
            "{what}: {resident} B live on the heap for {reported} B reported ({ratio:.3}x)"
        );
    };

    let empty = LIVE.load(Ordering::Relaxed);
    let mut index = SegmentedAcornIndex::new(DIM, params, AcornVariant::Gamma);
    let mut store = VectorStore::with_capacity(DIM, BULK_ROWS);
    for _ in 0..BULK_ROWS {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        store.push(&v);
    }
    index.bulk_load(store);
    let bulk_resident = LIVE.load(Ordering::Relaxed) - empty;
    let bulk_reported = index.snapshot().memory_bytes();
    check("bulk_load", bulk_resident, bulk_reported, SLACK);

    // The trickle path: every insert publishes a view of the active
    // segment; with no snapshot pinned, the freeze leaves none of them, and
    // none of its build state, behind.
    for _ in 0..TRICKLED_ROWS {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        index.insert(&v);
    }
    index.freeze();
    assert_eq!((index.active_rows(), index.snapshot().frozen_segments().len()), (0, 2));
    let resident = LIVE.load(Ordering::Relaxed) - empty;
    let reported = index.snapshot().memory_bytes();
    check("insert + freeze", resident - bulk_resident, reported - bulk_reported, SLACK);

    // The active segment through one benchmark cycle, measured every
    // `ACTIVE_STEP` rows. No earlier view is pinned, so no old row buffer
    // outlives its doubling. Its last insert seals it into a pending
    // segment, which keeps what it reports: its buffers are exactly full
    // at a power of two.
    let mut index =
        index.with_policy(MergePolicy { active_max_rows: ACTIVE_ROWS, ..Default::default() });
    let (frozen_resident, frozen_reported) = (resident, reported);
    for rows in 1..=ACTIVE_ROWS {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        index.insert(&v);
        if rows % ACTIVE_STEP == 0 && rows < ACTIVE_ROWS {
            let resident = LIVE.load(Ordering::Relaxed) - empty - frozen_resident;
            let reported = index.snapshot().memory_bytes() - frozen_reported;
            check(&format!("{rows} active rows"), resident, reported, ACTIVE_SLACK);
        }
    }
    let snap = index.snapshot();
    let pending: Vec<bool> = snap.frozen_segments().iter().map(|s| s.is_pending()).collect();
    assert_eq!((index.active_rows(), pending), (0, vec![false, false, true]));
    let resident = LIVE.load(Ordering::Relaxed) - empty - frozen_resident;
    let reported = snap.memory_bytes() - frozen_reported;
    check("a pending segment", resident, reported, SLACK);
}
