//! A packed bitset over dataset row ids.
//!
//! Used to materialize predicate results ahead of search (the pre-filtering
//! baseline and the paper's `contains`-over-low-cardinality optimization,
//! §7.2) and as the `BitmapFilter` backing store.

/// A fixed-universe bitset over ids `0..len`. The default is the empty
/// universe (what a pooled, not-yet-used bitmap starts as).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: usize,
}

impl Clone for Bitset {
    fn clone(&self) -> Self {
        Self { words: self.words.clone(), len: self.len }
    }

    /// Copy `source` into `self`'s allocation (how the planner fills a
    /// pooled bitmap from a segment's tombstones).
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl Bitset {
    /// All-zeros bitset over `len` ids.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)], len }
    }

    /// All-ones bitset over `len` ids.
    pub fn full(len: usize) -> Self {
        let mut b = Self::new(len);
        for w in &mut b.words {
            *w = u64::MAX;
        }
        b.trim();
        b
    }

    /// Build from an iterator of set ids.
    pub fn from_ids(len: usize, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut b = Self::new(len);
        for id in ids {
            b.set(id);
        }
        b
    }

    /// Build directly from packed words (bit `i` of `words[i / 64]` is row
    /// `i`). The word-at-a-time path used by compiled predicate kernels,
    /// which materialize 64 rows per store instead of calling
    /// [`set`](Self::set) per row. Bits beyond `len` are cleared.
    ///
    /// # Panics
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), len.div_ceil(64), "word count must match the universe");
        let mut b = Self { words, len };
        b.trim();
        b
    }

    /// Replace the contents with `words` over a universe of `len` ids,
    /// keeping the allocation: how the compiled range kernel writes into a
    /// pooled bitmap instead of a fresh `Vec` per query. Bits beyond `len`
    /// are cleared.
    pub(crate) fn refill(&mut self, len: usize, words: impl Iterator<Item = u64>) {
        self.words.clear();
        self.words.extend(words);
        debug_assert_eq!(self.words.len(), len.div_ceil(64), "word count must match the universe");
        self.len = len;
        self.trim();
    }

    /// The packed backing words, writable; bits beyond `len` must stay
    /// clear.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The packed backing words (bit `i` of `words()[i / 64]` is row `i`).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Universe size.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `id`.
    ///
    /// # Panics
    /// Panics if `id >= len`.
    #[inline]
    pub fn set(&mut self, id: u32) {
        assert!((id as usize) < self.len, "bit {id} out of range");
        self.words[id as usize / 64] |= 1u64 << (id % 64);
    }

    /// Clear bit `id`.
    #[inline]
    pub fn clear(&mut self, id: u32) {
        assert!((id as usize) < self.len, "bit {id} out of range");
        self.words[id as usize / 64] &= !(1u64 << (id % 64));
    }

    /// Test bit `id`.
    #[inline]
    pub fn get(&self, id: u32) -> bool {
        debug_assert!((id as usize) < self.len);
        (self.words[id as usize / 64] >> (id % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of the universe that is set (selectivity).
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }

    /// In-place intersection.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    pub fn and_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: clear every bit that is set in `other` (how a
    /// segment's tombstones are removed from a materialized predicate
    /// bitmap, one word at a time).
    ///
    /// # Panics
    /// Panics on universe mismatch.
    pub fn and_not_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place gather: the new universe is `sources.len()` ids and new bit
    /// `i` is the old bit `sources[i]`. `sources` must be strictly
    /// ascending, so `sources[i] >= i` and every output word is complete
    /// before any bit it overwrites is needed — no second buffer. This is
    /// how a predicate bitmap over a segment's global-id span is compacted
    /// into the segment's local id space when merges left gaps in the span.
    ///
    /// # Panics
    /// Panics if a source lies beyond the backing words.
    pub fn gather_ascending(&mut self, sources: impl ExactSizeIterator<Item = u32>) {
        let len = sources.len();
        let mut word = 0u64;
        let mut i = 0usize;
        for src in sources {
            debug_assert!(src as usize >= i, "sources must be strictly ascending");
            word |= (self.words[src as usize / 64] >> (src % 64) & 1) << (i % 64);
            i += 1;
            if i % 64 == 0 {
                self.words[i / 64 - 1] = word;
                word = 0;
            }
        }
        if i % 64 != 0 {
            self.words[i / 64] = word;
        }
        self.words.truncate(len.div_ceil(64));
        self.len = len;
    }

    /// In-place union.
    pub fn or_with(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement (within the universe).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.trim();
    }

    /// Zero any bits beyond `len` in the last word.
    fn trim(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Grow the universe to `len` ids; new ids start cleared. Existing bits
    /// are preserved. Used by the segmented index, whose active segment's
    /// tombstone set must track a row count that grows with every insert.
    ///
    /// # Panics
    /// Panics if `len` would shrink the universe (tombstones never forget).
    pub fn grow(&mut self, len: usize) {
        assert!(len >= self.len, "Bitset::grow cannot shrink the universe");
        self.len = len;
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Iterate over set ids in ascending order.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones { words: &self.words, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Iterate over *clear* ids in ascending order (the complement within
    /// the universe). This is the survivor scan of merge compaction: with
    /// tombstoned rows a small minority, it skips dead rows 64 at a time.
    pub fn iter_zeros(&self) -> Zeros<'_> {
        let mut z = Zeros { bits: self, word_idx: 0, current: 0 };
        z.current = z.masked_complement(0);
        z
    }

    /// Collect set ids into a vector.
    pub fn to_ids(&self) -> Vec<u32> {
        self.iter_ones().collect()
    }

    /// Bytes consumed.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over set bit positions.
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_idx * 64) as u32 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// Iterator over clear bit positions within the universe.
pub struct Zeros<'a> {
    bits: &'a Bitset,
    word_idx: usize,
    current: u64,
}

impl Zeros<'_> {
    /// The complement of word `w`, with bits beyond the universe cleared so
    /// the final partial word never yields out-of-range ids.
    fn masked_complement(&self, w: usize) -> u64 {
        let Some(&word) = self.bits.words.get(w) else { return 0 };
        let mut c = !word;
        if w + 1 == self.bits.words.len() {
            let rem = self.bits.len % 64;
            if rem != 0 {
                c &= (1u64 << rem) - 1;
            }
        }
        c
    }
}

impl Iterator for Zeros<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_idx * 64) as u32 + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bits.words.len() {
                return None;
            }
            self.current = self.masked_complement(self.word_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitset::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert_eq!(b.count(), 3);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn iter_ones_ascending() {
        let b = Bitset::from_ids(200, [5u32, 0, 199, 63, 64]);
        assert_eq!(b.to_ids(), vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn full_and_negate_respect_universe() {
        let mut b = Bitset::full(70);
        assert_eq!(b.count(), 70);
        b.negate();
        assert_eq!(b.count(), 0);
        b.negate();
        assert_eq!(b.count(), 70);
    }

    #[test]
    fn boolean_ops() {
        let a0 = Bitset::from_ids(10, [1u32, 2, 3]);
        let b = Bitset::from_ids(10, [2u32, 3, 4]);
        let mut a = a0.clone();
        a.and_with(&b);
        assert_eq!(a.to_ids(), vec![2, 3]);
        let mut o = a0.clone();
        o.or_with(&b);
        assert_eq!(o.to_ids(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn selectivity_fraction() {
        let b = Bitset::from_ids(100, 0u32..25);
        assert!((b.selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = Bitset::new(8);
        b.set(8);
    }

    #[test]
    fn iter_zeros_is_the_complement() {
        for n in [0usize, 1, 63, 64, 65, 130, 200] {
            let b = Bitset::from_ids(n, (0..n as u32).filter(|i| i % 3 == 0));
            let zeros: Vec<u32> = b.iter_zeros().collect();
            let want: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 0).collect();
            assert_eq!(zeros, want, "universe {n}");
        }
        // A full bitset yields no zeros, and never an out-of-range id from
        // the final partial word.
        assert_eq!(Bitset::full(70).iter_zeros().count(), 0);
    }

    #[test]
    fn grow_preserves_bits_and_extends_universe() {
        let mut b = Bitset::from_ids(10, [0u32, 9]);
        b.grow(130);
        assert_eq!(b.len(), 130);
        assert!(b.get(0) && b.get(9));
        assert_eq!(b.count(), 2);
        b.set(129);
        assert_eq!(b.to_ids(), vec![0, 9, 129]);
        assert_eq!(b.iter_zeros().count(), 127);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn grow_rejects_shrinking() {
        let mut b = Bitset::new(10);
        b.grow(5);
    }

    #[test]
    fn matches_vec_bool_oracle() {
        // Deterministic pseudo-random pattern.
        let n = 500usize;
        let mut oracle = vec![false; n];
        let mut b = Bitset::new(n);
        let mut x = 12345u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = (x >> 33) as usize % n;
            oracle[id] = true;
            b.set(id as u32);
        }
        for (i, &o) in oracle.iter().enumerate() {
            assert_eq!(b.get(i as u32), o, "bit {i}");
        }
        assert_eq!(b.count(), oracle.iter().filter(|&&x| x).count());
    }
}
