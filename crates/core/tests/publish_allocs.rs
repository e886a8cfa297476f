//! What one `SegmentedAcornIndex::insert` allocates, in all and beyond its
//! graph work, counted by the global allocator. The whole median insert
//! allocates a small constant number of blocks, at 250 rows and at 1,000,
//! whatever it rewires. The graph work is the same insert into a twin
//! `AcornIndex` that is never cloned, so the two build the same graph and
//! allocate the same search and pruning buffers. The rest is the
//! publication, which shares the active segment's edge buffer and vector
//! rows with the writer instead of copying them: it copies the segment's
//! span and level tables, its id map and its tombstone words, and allocates
//! the new epoch's handles — a constant number of blocks whatever the
//! insert rewires, and bytes that grow with the rows by those tables' size
//! per row, not by any list or row.
//!
//! A file of its own because `#[global_allocator]` is per binary, and one
//! test only so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use acorn_core::{AcornIndex, AcornParams, AcornVariant, SegmentedAcornIndex};
use acorn_hnsw::{Metric, VectorStore};
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
/// doubles a `Vec`, the row buffer or the edge buffer.
const WINDOW: usize = 15;

/// Blocks one publication allocates: the active segment's four graph
/// tables (level tags, level-0 spans, upper-level indices, upper-level
/// spans), its id map, the tombstone words, the view's and the epoch's
/// `Arc`s, the writer's fresh `VectorStore` handle, with room to spare. A
/// publication that copied a list per rewired node would allocate dozens.
const PUBLISH_BLOCKS: usize = 16;

/// Blocks one whole insert allocates: its publication's plus the graph
/// work's search and pruning buffers and the lists an overflow shrinks
/// (about a dozen, at any segment size), with room to spare.
const INSERT_BLOCKS: usize = 48;

/// The per-row state a publication copies: a level tag (1 B), a level-0
/// span (12 B), an upper-level index (4 B), the upper-level spans (12 B
/// per upper list, ~1/15 of a list per row at `m = 16`: 1 B), a global id
/// (8 B) and a tombstone bit (1 B, rounded up).
const TABLE_BYTES_PER_ROW: usize = 1 + 12 + 4 + 1 + 8 + 1;

/// What the median insert among the next `WINDOW` allocates: in all, and
/// beyond its twin's.
struct Medians {
    blocks: usize,
    bytes: usize,
    publish_blocks: usize,
    publish_bytes: usize,
}

fn measure(index: &mut SegmentedAcornIndex, twin: &mut AcornIndex, rng: &mut StdRng) -> Medians {
    let count = || (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let mut samples = [(); 4].map(|_| Vec::with_capacity(WINDOW));
    let mut v = vec![0.0f32; DIM];
    for _ in 0..WINDOW {
        v.fill_with(|| rng.gen_range(-1.0..1.0));
        let (b0, y0) = count();
        index.insert(&v);
        let (b1, y1) = count();
        twin.insert_vector(&v);
        let (b2, y2) = count();
        samples[0].push(b1 - b0);
        samples[1].push(y1 - y0);
        samples[2].push((b1 - b0).saturating_sub(b2 - b1));
        samples[3].push((y1 - y0).saturating_sub(y2 - y1));
    }
    let [blocks, bytes, publish_blocks, publish_bytes] = samples.map(|mut s| {
        s.sort_unstable();
        s[WINDOW / 2]
    });
    Medians { blocks, bytes, publish_blocks, publish_bytes }
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
    let mut index = SegmentedAcornIndex::new(DIM, params.clone(), AcornVariant::Gamma);
    let mut twin = AcornIndex::new(Arc::new(VectorStore::new(DIM)), params, AcornVariant::Gamma);
    let mut rng = StdRng::seed_from_u64(16);
    let mut fill = |index: &mut SegmentedAcornIndex, twin: &mut AcornIndex, rows: usize| {
        while index.active_rows() < rows {
            let v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
            index.insert(&v);
            twin.insert_vector(&v);
        }
    };

    fill(&mut index, &mut twin, 250);
    let mut probe = StdRng::seed_from_u64(17);
    let at_250 = measure(&mut index, &mut twin, &mut probe);
    fill(&mut index, &mut twin, 1000);
    let at_1000 = measure(&mut index, &mut twin, &mut probe);
    let (blocks_250, bytes_250) = (at_250.publish_blocks, at_250.publish_bytes);
    let (blocks_1000, bytes_1000) = (at_1000.publish_blocks, at_1000.publish_bytes);
    assert_eq!(index.active_rows(), 1000 + WINDOW, "no freeze may split the measurement");
    assert_eq!(twin.len(), index.active_rows());

    // A constant number of blocks, at either size: the median insert
    // rewires dozens of lists, and none of them costs a block.
    for (rows, blocks) in [(250, blocks_250), (1000, blocks_1000)] {
        assert!(
            blocks <= PUBLISH_BLOCKS,
            "publishing a {rows}-row active segment allocated {blocks} blocks"
        );
    }
    assert_eq!(blocks_1000, blocks_250, "the blocks do not depend on the segment's size");
    // Four times the rows may cost four times the tables and nothing else.
    // The slack covers inserts that differ in how many upper-level lists
    // the segment holds; a copy of the lists or the rows would be hundreds
    // of bytes per row.
    let tables = (1000 - 250) * TABLE_BYTES_PER_ROW;
    let slack = 1024;
    assert!(
        bytes_1000 <= bytes_250 + tables + slack,
        "publication bytes grew from {bytes_250} at 250 rows to {bytes_1000} at 1,000: \
         more than the {tables} B of tables"
    );
    assert!(
        bytes_1000 < 1000 * 2 * TABLE_BYTES_PER_ROW,
        "publishing a 1,000-row active segment allocated {bytes_1000} B"
    );

    // The whole insert, graph work included: a small constant number of
    // blocks at either size, and under 64 KB into a 1,000-row segment.
    for (rows, at) in [(250, &at_250), (1000, &at_1000)] {
        assert!(
            at.blocks <= INSERT_BLOCKS,
            "an insert into a {rows}-row active segment allocated {} blocks",
            at.blocks
        );
    }
    assert!(
        at_1000.bytes < 64 * 1024,
        "an insert into a 1,000-row active segment allocated {} B",
        at_1000.bytes
    );
}
