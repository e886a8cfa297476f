//! What one `SegmentedAcornIndex::insert` allocates, counted by the global
//! allocator: publication shares the active segment's graph nodes and vector
//! rows with the writer instead of copying them, so an insert allocates the
//! nodes it rewires plus a per-row spine — not the segment.
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
/// doubles a `Vec` or the row buffer.
const WINDOW: usize = 15;

/// The per-row state a publication still copies: one node handle (16 B), one
/// level tag (1 B) and one global id (8 B), plus a tombstone bit.
const SPINE_BYTES_PER_ROW: usize = 26;

/// `(blocks, bytes)` of the median insert among the next `WINDOW`.
fn median_insert(index: &mut SegmentedAcornIndex, rng: &mut StdRng) -> (usize, usize) {
    let mut blocks = Vec::with_capacity(WINDOW);
    let mut bytes = Vec::with_capacity(WINDOW);
    let mut v = vec![0.0f32; DIM];
    for _ in 0..WINDOW {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        let (b0, y0) = (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
        index.insert(&v);
        blocks.push(BLOCKS.load(Ordering::Relaxed) - b0);
        bytes.push(BYTES.load(Ordering::Relaxed) - y0);
    }
    blocks.sort_unstable();
    bytes.sort_unstable();
    (blocks[WINDOW / 2], bytes[WINDOW / 2])
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
    let mut fill = |index: &mut SegmentedAcornIndex, rows: usize| {
        while index.active_rows() < rows {
            let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.insert(&v);
        }
    };

    fill(&mut index, 250);
    let mut probe = StdRng::seed_from_u64(17);
    let (_, bytes_250) = median_insert(&mut index, &mut probe);
    fill(&mut index, 1000);
    let (blocks_1000, bytes_1000) = median_insert(&mut index, &mut probe);
    assert_eq!(index.active_rows(), 1000 + WINDOW, "no freeze may split the measurement");

    assert!(
        bytes_1000 < 64 * 1024,
        "an insert into a 1,000-row active segment allocated {bytes_1000} B"
    );
    assert!(
        blocks_1000 < 400,
        "an insert into a 1,000-row active segment allocated {blocks_1000} blocks"
    );
    // Four times the rows may cost four times the spine and nothing else.
    // Inserts differ in how many nodes they rewire, hence the slack; a copy
    // of the lists or the rows would be hundreds of bytes per row.
    let spine = (1000 - 250) * SPINE_BYTES_PER_ROW;
    let slack = 4 * 1024;
    assert!(
        bytes_1000 <= bytes_250 + spine + slack,
        "insert bytes grew from {bytes_250} at 250 rows to {bytes_1000} at 1,000: \
         more than the {spine} B of spine"
    );
}
