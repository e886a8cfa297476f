//! Flat vector storage, the [`VectorData`] abstraction, and metric dispatch.
//!
//! The default backend is a dense, row-major buffer of `f32` holding `n`
//! vectors of a fixed dimension. Keeping the data flat (rather than
//! `Vec<Vec<f32>>`) avoids per-vector allocations and keeps distance
//! computations cache-friendly, which matters because the ACORN paper's
//! evaluation (and ours) treats distance computations as the dominant search
//! cost.
//!
//! Rows are immutable once written, so the buffer is **append-only and
//! shared**: a [`VectorStore`] is a handle `(buffer, len)`, cloning it copies
//! no row, and a push through one handle writes past the `len` of every
//! other — see [`VectorStore`] for the ownership rule that makes that sound.
//!
//! Search code does not depend on the concrete representation: both search
//! layers and the exact scan are generic over [`VectorData`], so the f32
//! rows and the SQ8-quantized [`Sq8Store`](crate::Sq8Store) share one
//! traversal and one scan. All distances route through the
//! [`crate::kernels`] module, which picks AVX2/FMA or scalar code
//! once per process.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::kernels;

/// The distance metric used by an index.
///
/// All metrics are expressed so that *smaller is closer*; inner product and
/// cosine similarity are negated accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Metric {
    /// Squared Euclidean distance (monotone in L2; avoids the sqrt).
    #[default]
    L2,
    /// Negative inner product (maximum inner-product search).
    InnerProduct,
    /// Negative cosine similarity.
    Cosine,
}

impl Metric {
    /// Distance between two equal-length slices under this metric.
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Cosine => neg_cosine(a, b),
        }
    }
}

/// Squared Euclidean distance, dispatched through
/// [`crate::kernels::l2_sq`] (AVX2/FMA when available).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    kernels::l2_sq(a, b)
}

/// Dot product, dispatched through [`crate::kernels::dot`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernels::dot(a, b)
}

/// Negative cosine similarity (smaller = more similar). Returns 0 for a
/// zero-norm operand, treating it as orthogonal to everything.
#[inline]
pub fn neg_cosine(a: &[f32], b: &[f32]) -> f32 {
    let d = dot(a, b);
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    -(d / (na * nb))
}

/// A pluggable vector-storage backend.
///
/// Everything the search layers need from vector storage: row count and
/// dimensionality for bookkeeping, [`memory_bytes`](VectorData::memory_bytes)
/// for tier accounting, and the two distance entry points. Implementations
/// decide the representation — exact f32 rows ([`VectorStore`]) or 8-bit
/// scalar-quantized codes ([`Sq8Store`](crate::Sq8Store)) — while traversal
/// code stays generic.
///
/// [`distances_batch`](VectorData::distances_batch) is the hot path: it is
/// called once per expanded neighborhood, so backends should override the
/// default (a `distance_to` loop) with a prefetching, kernel-dispatched
/// implementation.
pub trait VectorData {
    /// Number of rows stored.
    fn len(&self) -> usize;

    /// True if no rows are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Bytes resident for this representation (rows + codec tables).
    fn memory_bytes(&self) -> usize;

    /// Distance between stored row `i` and an external query under `metric`.
    fn distance_to(&self, metric: Metric, i: u32, query: &[f32]) -> f32;

    /// Distances from `query` to every row in `ids`, written into `out`
    /// (cleared first; `out[i]` answers `ids[i]`).
    fn distances_batch(&self, metric: Metric, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(ids.len());
        for &id in ids {
            out.push(self.distance_to(metric, id, query));
        }
    }
}

/// One fixed-capacity allocation of `f32` slots shared by every
/// [`VectorStore`] handle cloned from the handle that allocated it.
///
/// A handle owns a *tip*: the slots it has claimed end there, and every slot
/// it reads lies below it. Slots `..committed` are claimed; slots
/// `committed..` belong to whichever handle next moves `committed` forward
/// with [`claim`](Self::claim) — which succeeds only for a handle whose tip is
/// `committed`, for one handle at a time — and to nobody until then. A
/// claimed slot is written once, by the handle that claimed it, before any
/// copy of that handle can reach it, and never again.
pub(crate) struct RowBuf {
    /// Slots claimed so far. Only ever raised, by the compare-exchange in
    /// [`claim`](Self::claim).
    committed: AtomicUsize,
    /// Zeroed at allocation (or holding the rows it was made from), so every
    /// slot is initialized memory.
    slots: Box<[UnsafeCell<f32>]>,
}

// SAFETY: the counter is an atomic. A slot of `slots` is written only by the
// one handle whose compare-exchange moved `committed` over it, before any
// other handle reaches it, and is read only through handles that descend
// from that writer's handle after the write (a handle copies its state after
// writing), so every read of a slot happens-after its one write.
unsafe impl Sync for RowBuf {}

impl RowBuf {
    /// `capacity` unclaimed slots, zeroed by the allocator (lazily, for a
    /// large buffer: its pages are touched as they are claimed).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self::from_vec(vec![0.0; capacity], 0)
    }

    /// The buffer of `slots` (its allocation is reused when it holds no
    /// spare capacity), of which the first `committed` are claimed.
    ///
    /// # Panics
    /// Panics if `committed > slots.len()`.
    pub(crate) fn from_vec(slots: Vec<f32>, committed: usize) -> Self {
        assert!(committed <= slots.len(), "{committed} slots claimed of {}", slots.len());
        let slots = Box::into_raw(slots.into_boxed_slice()) as *mut [UnsafeCell<f32>];
        Self {
            committed: AtomicUsize::new(committed),
            // SAFETY: `UnsafeCell<f32>` is `repr(transparent)` over `f32`, so
            // the boxed slice has the same layout either way, and the box is
            // owned here alone.
            slots: unsafe { Box::from_raw(slots) },
        }
    }

    /// Slots allocated.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Claim slots `at..at + n` for the handle whose tip is `at`: `true` if
    /// `at` is the buffer's committed length and the slots fit. Nothing else
    /// moves `committed`, so on `true` the slots are the caller's alone.
    #[inline]
    pub(crate) fn claim(&self, at: usize, n: usize) -> bool {
        // The exchange only arbitrates who owns the tail; what is written
        // there reaches other threads with the handle that covers it.
        at + n <= self.slots.len()
            && self
                .committed
                .compare_exchange(at, at + n, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Borrow slots `range`.
    ///
    /// # Safety
    /// No slot of `range` may be written while the borrow lives: the range
    /// lies below the caller's tip, and the caller neither writes it itself
    /// during the borrow nor lets a handle that may reach it do so.
    #[inline]
    pub(crate) unsafe fn get(&self, range: Range<usize>) -> &[f32] {
        let cells = &self.slots[range];
        // SAFETY: `UnsafeCell<f32>` has the layout of `f32`, so `cells` is
        // `cells.len()` contiguous initialized values, unwritten while the
        // borrow lives by the caller's contract.
        unsafe { std::slice::from_raw_parts(cells.as_ptr().cast::<f32>(), cells.len()) }
    }

    /// Write `src` to the slots starting at `at`.
    ///
    /// # Safety
    /// The slots must be the caller's alone: just claimed by its handle, not
    /// yet visible to any copy of it, and not borrowed. `src` must not
    /// overlap them.
    #[inline]
    pub(crate) unsafe fn write(&self, at: usize, src: &[f32]) {
        let dst = &self.slots[at..at + src.len()];
        // SAFETY: by the caller's contract nothing reads or writes `dst`
        // meanwhile and `src` does not overlap it. The pointer comes from
        // `UnsafeCell::raw_get` on the slice, so writing through a shared
        // borrow of the buffer is permitted, and `dst` is exactly
        // `src.len()` slots long.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                UnsafeCell::raw_get(dst.as_ptr()),
                src.len(),
            );
        }
    }
}

impl std::fmt::Debug for RowBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowBuf")
            .field("committed", &self.committed)
            .field("capacity", &self.slots.len())
            .finish()
    }
}

/// Dense row-major storage for `n` vectors of fixed dimension.
///
/// A store is a handle onto a shared append-only buffer: the buffer plus the
/// number of floats this handle can see. [`clone`](Clone::clone) copies the
/// handle, never a row, and the two handles then behave as independent
/// stores:
///
/// * a handle reads only the first `len` floats of its buffer, all written
///   before the handle (or the one it was cloned from) came to hold that
///   `len`, and none of them is ever written again;
/// * [`push`](Self::push) claims the slots just past `len` with one
///   compare-exchange on the buffer's committed length. It succeeds only for
///   a handle that sits at the buffer's tip, and for one handle at a time, so
///   the claimed slots are invisible to every other handle — their `len` is
///   no greater — and the row is written in place;
/// * a handle that loses the claim (a clone already pushed past it) or whose
///   buffer is full copies its own rows into a fresh, larger buffer and
///   appends there. Handles left on the old buffer stay valid.
///
/// No interleaving therefore lets one handle observe a row pushed through
/// another.
#[derive(Debug, Clone)]
pub struct VectorStore {
    dim: usize,
    buf: Arc<RowBuf>,
    /// Floats visible through this handle (its tip); at most the buffer's
    /// committed length.
    len: usize,
}

/// An empty store of dimension 1.
///
/// A derived `Default` would set `dim = 0`, violating the `dim > 0`
/// invariant every constructor asserts and making [`VectorStore::len`]
/// divide by zero; the manual impl keeps `Default` usable (e.g. inside
/// other `#[derive(Default)]` types) without a panicking landmine.
impl Default for VectorStore {
    fn default() -> Self {
        Self::new(1)
    }
}

impl VectorStore {
    /// Create an empty store for vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// Create an empty store with capacity reserved for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self { dim, buf: Arc::new(RowBuf::with_capacity(dim * n)), len: 0 }
    }

    /// Wrap an existing flat buffer of `len % dim == 0` floats (its allocation
    /// is reused).
    ///
    /// # Panics
    /// Panics if the buffer length is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(data.len() % dim, 0, "buffer length must be a multiple of dim");
        let len = data.len();
        Self { dim, buf: Arc::new(RowBuf::from_vec(data, len)), len }
    }

    /// Decode rows stored as little-endian `f32`s (the on-disk row format)
    /// straight into a buffer of exactly their size.
    ///
    /// # Panics
    /// Panics if `bytes` is not a whole number of `dim`-float rows.
    pub fn from_le_bytes(dim: usize, bytes: &[u8]) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(bytes.len() % (4 * dim), 0, "byte length must be a multiple of a row's");
        let rows = bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        Self::from_flat(dim, rows.collect())
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len / self.dim
    }

    /// True if the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow vector `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: u32) -> &[f32] {
        let start = i as usize * self.dim;
        &self.as_flat()[start..start + self.dim]
    }

    /// Append one vector.
    ///
    /// Writes in place when this handle sits at the tip of its buffer and
    /// the buffer has room; otherwise (the buffer is full, or a clone of this
    /// store pushed first) the handle moves to a fresh buffer holding a copy
    /// of its rows. Either way no other handle sees the new row.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        let id = self.len() as u32;
        if !self.buf.claim(self.len, self.dim) {
            let mut grown = vec![0.0; (self.len + self.dim).max(2 * self.buf.capacity())];
            grown[..self.len].copy_from_slice(self.as_flat());
            self.buf = Arc::new(RowBuf::from_vec(grown, self.len));
            assert!(self.buf.claim(self.len, self.dim), "a fresh buffer has room at its tip");
        }
        // SAFETY: the claim above made slots `self.len..` this handle's
        // alone: it moved the committed length from `self.len` for this
        // handle only, and every other handle on the buffer has a tip no
        // greater, so none reads these slots. `v` is a caller's slice.
        unsafe { self.buf.write(self.len, v) };
        self.len += self.dim;
        id
    }

    /// The raw flat buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        // SAFETY: no slot below this handle's tip is ever written again:
        // `push` writes only slots it has just claimed, past the committed
        // length.
        unsafe { self.buf.get(0..self.len) }
    }

    /// Distance between stored vector `i` and an external query under `metric`.
    #[inline]
    pub fn distance_to(&self, metric: Metric, i: u32, query: &[f32]) -> f32 {
        metric.distance(self.get(i), query)
    }

    /// Distance between two stored vectors.
    #[inline]
    pub fn distance_between(&self, metric: Metric, i: u32, j: u32) -> f32 {
        metric.distance(self.get(i), self.get(j))
    }

    /// Distances from `query` to every row in `ids`, written into `out`
    /// (cleared first; `out[i]` answers `ids[i]`).
    ///
    /// This is the batched form of [`distance_to`](Self::distance_to) used
    /// once per expanded neighborhood on the search hot path: upcoming rows
    /// are prefetched ([`kernels::prefetch`], two lines of a row wider than
    /// 16 floats) while the current row is being reduced, hiding the cache
    /// misses that dominate pointer-chased graph traversal. L2 rows are
    /// scored four per [`kernels::l2_sq_x4`] call and the remainder one by
    /// one; every distance is bit-identical to `distance_to`'s.
    pub fn distances_batch(&self, metric: Metric, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        /// How many rows ahead of the current one to prefetch: far enough
        /// that the line arrives before it is needed, near enough to stay
        /// within typical hood sizes (M = 16–64).
        const PREFETCH_AHEAD: usize = 4;
        out.clear();
        out.reserve(ids.len());
        // Resolve the handle once: the loops then index a plain slice.
        let (flat, dim) = (self.as_flat(), self.dim);
        let row = |id: u32| {
            let start = id as usize * dim;
            &flat[start..start + dim]
        };
        let prefetch_ahead = |i: usize| {
            if let Some(&ahead) = ids.get(i + PREFETCH_AHEAD) {
                kernels::prefetch(row(ahead));
            }
        };
        let mut done = 0;
        if metric == Metric::L2 {
            for quad in ids.chunks_exact(4) {
                (done..done + 4).for_each(prefetch_ahead);
                let rows = [row(quad[0]), row(quad[1]), row(quad[2]), row(quad[3])];
                out.extend_from_slice(&kernels::l2_sq_x4(rows, query));
                done += 4;
            }
        }
        for (i, &id) in ids.iter().enumerate().skip(done) {
            prefetch_ahead(i);
            out.push(metric.distance(row(id), query));
        }
    }

    /// Bytes consumed by the raw vector data.
    pub fn memory_bytes(&self) -> usize {
        self.len * std::mem::size_of::<f32>()
    }

    /// Extract a sub-store containing the given row ids, in order.
    pub fn subset(&self, ids: &[u32]) -> VectorStore {
        let mut out = VectorStore::with_capacity(self.dim, ids.len());
        for &id in ids {
            out.push(self.get(id));
        }
        out
    }
}

impl VectorData for VectorStore {
    fn len(&self) -> usize {
        VectorStore::len(self)
    }

    fn is_empty(&self) -> bool {
        VectorStore::is_empty(self)
    }

    fn dim(&self) -> usize {
        VectorStore::dim(self)
    }

    fn memory_bytes(&self) -> usize {
        VectorStore::memory_bytes(self)
    }

    fn distance_to(&self, metric: Metric, i: u32, query: &[f32]) -> f32 {
        VectorStore::distance_to(self, metric, i, query)
    }

    fn distances_batch(&self, metric: Metric, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        VectorStore::distances_batch(self, metric, query, ids, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_l2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn l2_matches_naive_various_lengths() {
        for len in [1usize, 3, 7, 8, 9, 16, 33, 128, 200] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            let got = l2_sq(&a, &b);
            let want = naive_l2(&a, &b);
            assert!((got - want).abs() < 1e-3, "len={len}: {got} vs {want}");
        }
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..100).map(|i| 1.0 - i as f32 * 0.01).collect();
        let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - want).abs() < 1e-3);
    }

    #[test]
    fn cosine_of_identical_vectors_is_minus_one() {
        let a = vec![1.0, 2.0, 3.0];
        assert!((neg_cosine(&a, &a) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_norm_is_zero() {
        let z = vec![0.0, 0.0];
        let a = vec![1.0, 2.0];
        assert_eq!(neg_cosine(&z, &a), 0.0);
    }

    #[test]
    fn store_push_get_roundtrip() {
        let mut s = VectorStore::new(3);
        let id0 = s.push(&[1.0, 2.0, 3.0]);
        let id1 = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(id0, 0);
        assert_eq!(id1, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_le_bytes_decodes_rows_into_an_exact_buffer_that_still_grows() {
        let rows = [[1.5f32, -2.0], [0.0, f32::MIN_POSITIVE], [3.25, 4.0]];
        let bytes: Vec<u8> = rows.iter().flatten().flat_map(|x| x.to_le_bytes()).collect();
        let mut s = VectorStore::from_le_bytes(2, &bytes);
        assert_eq!((s.len(), s.buf.capacity()), (3, 6));
        assert_eq!(s.as_flat(), rows.concat());
        // The buffer is full, so a push moves the handle to a grown copy.
        assert_eq!(s.push(&[9.0, 9.5]), 3);
        assert_eq!(s.get(3), &[9.0, 9.5]);
        assert_eq!(s.get(1), &rows[1]);
    }

    #[test]
    fn store_subset_preserves_order() {
        let mut s = VectorStore::new(2);
        for i in 0..5 {
            s.push(&[i as f32, i as f32 + 0.5]);
        }
        let sub = s.subset(&[4, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(0), &[4.0, 4.5]);
        assert_eq!(sub.get(1), &[0.0, 0.5]);
        assert_eq!(sub.get(2), &[2.0, 2.5]);
    }

    #[test]
    fn clones_share_rows_until_one_pushes() {
        let mut a = VectorStore::with_capacity(2, 4);
        a.push(&[1.0, 1.5]);
        let mut b = a.clone();
        assert_eq!(a.as_flat().as_ptr(), b.as_flat().as_ptr(), "a clone copies no row");
        // `a` is at the tip and claims the tail in place; `b` was cloned at
        // the same length, loses the claim and moves to its own buffer.
        a.push(&[2.0, 2.5]);
        assert_eq!(a.as_flat().as_ptr(), b.as_flat().as_ptr());
        b.push(&[9.0, 9.5]);
        assert_ne!(a.as_flat().as_ptr(), b.as_flat().as_ptr());
        assert_eq!(a.as_flat(), &[1.0, 1.5, 2.0, 2.5]);
        assert_eq!(b.as_flat(), &[1.0, 1.5, 9.0, 9.5]);
        // A handle cloned before a push never sees it, even with room left.
        let c = a.clone();
        a.push(&[3.0, 3.5]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.as_flat(), &[1.0, 1.5, 2.0, 2.5]);
        assert_eq!(a.get(2), &[3.0, 3.5]);
    }

    #[test]
    fn growth_keeps_older_handles_valid() {
        let mut s = VectorStore::new(3);
        let mut handles = Vec::new();
        for i in 0..40 {
            s.push(&[i as f32, 0.5, -(i as f32)]);
            handles.push(s.clone());
        }
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.len(), i + 1);
            assert_eq!(h.as_flat().len(), (i + 1) * 3);
            assert_eq!(h.as_flat(), &s.as_flat()[..(i + 1) * 3]);
        }
        assert_eq!(s.memory_bytes(), 40 * 3 * 4);
    }

    #[test]
    fn readers_on_other_threads_see_their_own_length_while_the_writer_appends() {
        // The serving pattern: one writer appends and hands out clones; each
        // reader checks its clone while later pushes land in the same buffer.
        const ROWS: usize = 64;
        let row = |i: usize| [i as f32, i as f32 + 0.25, i as f32 + 0.5, i as f32 + 0.75];
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel::<VectorStore>();
            let reader = scope.spawn(move || {
                let mut seen = 0;
                for snap in rx {
                    seen += 1;
                    assert_eq!(snap.len(), seen);
                    for i in 0..snap.len() {
                        assert_eq!(snap.get(i as u32), &row(i));
                    }
                }
                seen
            });
            let mut writer = VectorStore::with_capacity(4, ROWS / 2);
            for i in 0..ROWS {
                writer.push(&row(i));
                tx.send(writer.clone()).expect("reader is alive");
            }
            drop(tx);
            assert_eq!(reader.join().expect("reader panicked"), ROWS);
        });
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_wrong_dim_panics() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    fn default_store_upholds_dim_invariant() {
        // Regression: the derived Default had dim = 0, so len() divided by
        // zero the moment anyone touched a defaulted store.
        let mut s = VectorStore::default();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(s.dim(), 1);
        s.push(&[2.5]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), &[2.5]);
    }

    #[test]
    fn distances_batch_matches_scalar_calls() {
        let mut s = VectorStore::new(24);
        for i in 0..40 {
            let v: Vec<f32> = (0..24).map(|d| ((i * 7 + d) as f32 * 0.31).sin()).collect();
            s.push(&v);
        }
        let q: Vec<f32> = (0..24).map(|d| (d as f32 * 0.11).cos()).collect();
        let ids: Vec<u32> = vec![39, 0, 17, 17, 3, 21, 8, 30, 2];
        for metric in [Metric::L2, Metric::InnerProduct, Metric::Cosine] {
            let mut out = vec![99.0]; // stale content must be cleared
            s.distances_batch(metric, &q, &ids, &mut out);
            assert_eq!(out.len(), ids.len());
            for (&id, &d) in ids.iter().zip(&out) {
                assert_eq!(d, s.distance_to(metric, id, &q), "{metric:?} id {id}");
            }
        }
        let mut out = vec![1.0];
        s.distances_batch(Metric::L2, &q, &[], &mut out);
        assert!(out.is_empty(), "empty batch must clear the output");
    }

    #[test]
    fn metric_distance_dispatch() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!((Metric::L2.distance(&a, &b) - 2.0).abs() < 1e-6);
        assert!((Metric::InnerProduct.distance(&a, &b) - 0.0).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &b) - 0.0).abs() < 1e-6);
    }
}
