//! What one `SegmentedAcornIndex::insert` allocates, counted by the global
//! allocator. The active segment holds rows and no graph, so an insert
//! appends its row to the rows the published views share and publishes: it
//! copies the segment's id map and tombstone words and allocates the new
//! epoch's handles — a constant number of blocks, at 250 rows and at 1,000,
//! and bytes that grow with the rows by those tables' size per row, not by
//! any row.
//!
//! A file of its own because `#[global_allocator]` is per binary, and one
//! test only so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use acorn_core::{AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_hnsw::Metric;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and take no part in allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DIM: usize = 32;
/// Inserts measured at each size; the median ignores the odd insert that
/// doubles the row buffer or the writer's id list.
const WINDOW: usize = 15;

/// Blocks one insert allocates: the published view's rows handle, index
/// `Arc` and id map, the tombstone words and their `Arc`, the epoch's
/// `Arc` and its frozen-segment list. Nothing per row, and no graph work.
const INSERT_BLOCKS: usize = 7;

/// The per-row state a publication copies: a global id (8 B) and a
/// tombstone bit (1 B, rounded up).
const TABLE_BYTES_PER_ROW: usize = 8 + 1;

/// What the median insert among the next `WINDOW` allocates: blocks and
/// bytes.
fn measure(index: &mut SegmentedAcornIndex, rng: &mut StdRng) -> (usize, usize) {
    let count = || (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let mut samples = [(); 2].map(|_| Vec::with_capacity(WINDOW));
    let mut v = vec![0.0f32; DIM];
    for _ in 0..WINDOW {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        let (b0, y0) = count();
        index.insert(&v);
        let (b1, y1) = count();
        samples[0].push(b1 - b0);
        samples[1].push(y1 - y0);
    }
    let [blocks, bytes] = samples.map(|mut s| {
        s.sort_unstable();
        s[WINDOW / 2]
    });
    (blocks, bytes)
}

#[test]
fn an_insert_allocates_what_it_touches_not_the_active_segment() {
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
    let mut index = SegmentedAcornIndex::new(DIM, params, AcornVariant::Gamma);
    let mut rng = StdRng::seed_from_u64(16);
    // One frozen segment, so the epoch's segment list is not empty.
    for _ in 0..64 {
        let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        index.insert(&v);
    }
    index.freeze();
    let mut fill = |index: &mut SegmentedAcornIndex, rows: usize| {
        while index.active_rows() < rows {
            let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.insert(&v);
        }
    };

    fill(&mut index, 250);
    let mut probe = StdRng::seed_from_u64(17);
    let (blocks_250, bytes_250) = measure(&mut index, &mut probe);
    fill(&mut index, 1000);
    let (blocks_1000, bytes_1000) = measure(&mut index, &mut probe);
    assert_eq!(index.active_rows(), 1000 + WINDOW, "no freeze may split the measurement");

    // A constant number of blocks, at either size.
    for (rows, blocks) in [(250, blocks_250), (1000, blocks_1000)] {
        assert!(
            blocks <= INSERT_BLOCKS,
            "an insert into a {rows}-row active segment allocated {blocks} blocks"
        );
    }
    assert_eq!(blocks_1000, blocks_250, "the blocks do not depend on the segment's size");
    // Four times the rows may cost four times the tables and nothing else;
    // a copy of the rows would be 128 B per row.
    let tables = (1000 - 250) * TABLE_BYTES_PER_ROW;
    let slack = 256;
    assert!(
        bytes_1000 <= bytes_250 + tables + slack,
        "insert bytes grew from {bytes_250} at 250 rows to {bytes_1000} at 1,000: \
         more than the {tables} B of tables"
    );
    assert!(
        bytes_1000 <= 1000 * TABLE_BYTES_PER_ROW + 1024,
        "an insert into a 1,000-row active segment allocated {bytes_1000} B"
    );
}
