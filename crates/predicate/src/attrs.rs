//! Columnar storage for the structured attributes of a hybrid dataset.
//!
//! The ACORN evaluation's datasets carry three attribute shapes: scalar
//! integers (SIFT/Paper's random label, TripClick's publication year),
//! keyword lists with small vocabularies (TripClick's 28 clinical areas,
//! LAION's 30 keywords — stored here as `u64` bitmasks so a `contains`
//! check is a single AND), and free text (LAION captions for regex
//! predicates). Each text column is also copied once, at
//! [`build`](AttrStoreBuilder::build), into a [`TextArena`]: its rows back
//! to back in one buffer, which is what the regex block kernels scan. Each
//! int column gets, at the same time, its rows ordered by value (4 B per
//! row, plus one 8-byte key per 64 rows): the ordered index that answers
//! an equality, range or
//! membership test with two binary searches per value range
//! ([`CompiledPredicate::ordered_candidates`](crate::CompiledPredicate::ordered_candidates)).

use std::ops::Range;

/// Index of a field within an [`AttrStore`].
pub type FieldId = usize;

/// One attribute column.
#[derive(Debug, Clone)]
pub enum Column {
    /// Scalar integers (labels, years, prices-in-cents, ...).
    Int(Vec<i64>),
    /// Keyword sets over a vocabulary of at most 64 terms, as bitmasks.
    Keywords(Vec<u64>),
    /// Free-form text (regex targets).
    Str(Vec<String>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Keywords(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Human-readable kind name (for error messages).
    pub fn kind(&self) -> &'static str {
        match self {
            Column::Int(_) => "int",
            Column::Keywords(_) => "keywords",
            Column::Str(_) => "str",
        }
    }

    /// Approximate heap bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * 8,
            Column::Keywords(v) => v.len() * 8,
            Column::Str(v) => v.iter().map(|s| s.len() + std::mem::size_of::<String>()).sum(),
        }
    }
}

/// One text column's rows back to back in one buffer, for the regex block
/// kernels ([`kernels::literal_block`](crate::kernels::literal_block),
/// [`Regex::match_block`](crate::Regex::match_block)): a 64-row block of
/// text is one contiguous byte span, not 64 separate allocations.
///
/// Row `i` is `text[starts[i]..starts[i + 1]]`; `starts` holds `rows + 1`
/// offsets as `usize`, so the arena imposes no size limit of its own. The
/// buffer ends in 32 NUL bytes that belong to no row, so a 32-byte vector
/// load at any byte of any row stays inside it.
#[derive(Debug, Clone)]
pub struct TextArena {
    text: String,
    starts: Vec<usize>,
}

impl TextArena {
    /// Bytes past the last row: one 32-byte AVX2 load at any row byte fits.
    pub(crate) const PADDING: usize = 32;

    /// Copy `rows` into one buffer.
    fn new(rows: &[String]) -> Self {
        let total: usize = rows.iter().map(String::len).sum();
        let mut text = String::with_capacity(total + Self::PADDING);
        let mut starts = Vec::with_capacity(rows.len() + 1);
        starts.push(0);
        for row in rows {
            text.push_str(row);
            starts.push(text.len());
        }
        text.extend(std::iter::repeat('\0').take(Self::PADDING));
        Self { text, starts }
    }

    /// Row `i`'s text.
    ///
    /// # Panics
    /// Panics if `i` is not a row of the arena.
    #[inline]
    pub fn row(&self, i: usize) -> &str {
        &self.text[self.starts[i]..self.starts[i + 1]]
    }

    /// The `rows + 1` row offsets into [`bytes`](Self::bytes).
    #[inline]
    pub(crate) fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Every row's bytes back to back, then the padding.
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        self.text.as_bytes()
    }

    /// Heap bytes of the buffer and the offsets.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.text.capacity() + self.starts.capacity() * std::mem::size_of::<usize>()
    }
}

/// Immutable columnar attribute store for `n` dataset rows.
#[derive(Debug, Clone, Default)]
pub struct AttrStore {
    names: Vec<String>,
    columns: Vec<Column>,
    /// One [`TextArena`] per column, `Some` exactly for the text columns.
    arenas: Vec<Option<TextArena>>,
    /// One [`ValueOrder`] per column, `Some` exactly for the int columns.
    orders: Vec<Option<ValueOrder>>,
    n: usize,
}

impl AttrStore {
    /// Start building a store.
    pub fn builder() -> AttrStoreBuilder {
        AttrStoreBuilder::default()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the store has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.columns.len()
    }

    /// Resolve a field name to its id.
    pub fn field(&self, name: &str) -> Option<FieldId> {
        self.names.iter().position(|n| n == name)
    }

    /// Field name for an id.
    pub fn field_name(&self, f: FieldId) -> &str {
        &self.names[f]
    }

    /// Borrow a column.
    pub fn column(&self, f: FieldId) -> &Column {
        &self.columns[f]
    }

    /// The whole int column as a slice (block predicate kernels read columns
    /// 64 rows at a time; going through [`int`](Self::int) per row would put
    /// the kind `match` back on the hot path).
    ///
    /// # Panics
    /// Panics if the field is not an int column.
    #[inline]
    pub fn ints(&self, f: FieldId) -> &[i64] {
        match &self.columns[f] {
            Column::Int(v) => v,
            c => panic!("field {} is {}, not int", self.names[f], c.kind()),
        }
    }

    /// The whole keyword-bitmask column as a slice.
    ///
    /// # Panics
    /// Panics if the field is not a keywords column.
    #[inline]
    pub fn keyword_masks(&self, f: FieldId) -> &[u64] {
        match &self.columns[f] {
            Column::Keywords(v) => v,
            c => panic!("field {} is {}, not keywords", self.names[f], c.kind()),
        }
    }

    /// The whole text column as a slice.
    ///
    /// # Panics
    /// Panics if the field is not a text column.
    #[inline]
    pub fn texts(&self, f: FieldId) -> &[String] {
        match &self.columns[f] {
            Column::Str(v) => v,
            c => panic!("field {} is {}, not str", self.names[f], c.kind()),
        }
    }

    /// The text column's [`TextArena`] (what the regex block kernels read;
    /// [`text`](Self::text) reads the column's own strings).
    ///
    /// # Panics
    /// Panics if the field is not a text column.
    #[inline]
    pub fn text_arena(&self, f: FieldId) -> &TextArena {
        match &self.arenas[f] {
            Some(arena) => arena,
            None => panic!("field {} is {}, not str", self.names[f], self.columns[f].kind()),
        }
    }

    /// The int column's [`ValueOrder`]; `None` for any other kind of
    /// column.
    #[inline]
    pub(crate) fn order(&self, f: FieldId) -> Option<&ValueOrder> {
        self.orders[f].as_ref()
    }

    /// Integer value at (`f`, `id`).
    ///
    /// # Panics
    /// Panics if the field is not an int column.
    #[inline]
    pub fn int(&self, f: FieldId, id: u32) -> i64 {
        match &self.columns[f] {
            Column::Int(v) => v[id as usize],
            c => panic!("field {} is {}, not int", self.names[f], c.kind()),
        }
    }

    /// Keyword bitmask at (`f`, `id`).
    #[inline]
    pub fn keywords(&self, f: FieldId, id: u32) -> u64 {
        match &self.columns[f] {
            Column::Keywords(v) => v[id as usize],
            c => panic!("field {} is {}, not keywords", self.names[f], c.kind()),
        }
    }

    /// Text value at (`f`, `id`).
    #[inline]
    pub fn text(&self, f: FieldId, id: u32) -> &str {
        match &self.columns[f] {
            Column::Str(v) => &v[id as usize],
            c => panic!("field {} is {}, not str", self.names[f], c.kind()),
        }
    }

    /// Approximate heap bytes over all columns, text arenas and the int
    /// columns' orders included.
    pub fn memory_bytes(&self) -> usize {
        let arenas: usize = self.arenas.iter().flatten().map(TextArena::memory_bytes).sum();
        let orders: usize = self.orders.iter().flatten().map(ValueOrder::memory_bytes).sum();
        self.columns.iter().map(Column::memory_bytes).sum::<usize>() + arenas + orders
    }
}

/// Builder validating that all columns have equal length.
#[derive(Debug, Default)]
pub struct AttrStoreBuilder {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl AttrStoreBuilder {
    /// Add any column.
    ///
    /// # Panics
    /// Panics on duplicate field names.
    pub fn add(mut self, name: &str, col: Column) -> Self {
        assert!(!self.names.iter().any(|n| n == name), "duplicate attribute field name: {name}");
        self.names.push(name.to_string());
        self.columns.push(col);
        self
    }

    /// Add an integer column.
    pub fn add_int(self, name: &str, values: Vec<i64>) -> Self {
        self.add(name, Column::Int(values))
    }

    /// Add a keyword-bitmask column.
    pub fn add_keywords(self, name: &str, masks: Vec<u64>) -> Self {
        self.add(name, Column::Keywords(masks))
    }

    /// Add a text column.
    pub fn add_text(self, name: &str, values: Vec<String>) -> Self {
        self.add(name, Column::Str(values))
    }

    /// Finish, validating row-count agreement, copy each text column into
    /// its [`TextArena`] and order each int column's rows by value.
    ///
    /// # Panics
    /// Panics if columns disagree on length, or an int column has more
    /// than `u32::MAX` rows.
    pub fn build(self) -> AttrStore {
        let n = self.columns.first().map_or(0, Column::len);
        for (name, col) in self.names.iter().zip(&self.columns) {
            assert_eq!(col.len(), n, "column {name} has {} rows, expected {n}", col.len());
        }
        let arenas = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Str(rows) => Some(TextArena::new(rows)),
                _ => None,
            })
            .collect();
        let orders = self
            .columns
            .iter()
            .map(|col| match col {
                Column::Int(values) => Some(ValueOrder::new(values)),
                _ => None,
            })
            .collect();
        AttrStore { names: self.names, columns: self.columns, arenas, orders, n }
    }
}

/// One int column's rows in ascending order of value, ties in ascending
/// row order, and every [`FENCE`](Self::FENCE)-th of those values: the
/// *fences*. The fences place any value to within `FENCE` positions from
/// one short contiguous array, which is what counting a range for the
/// work rule reads; a search of the `FENCE` rows between two fences then
/// places it exactly.
#[derive(Debug, Clone)]
pub(crate) struct ValueOrder {
    rows: Box<[u32]>,
    fences: Box<[i64]>,
}

impl ValueOrder {
    /// Positions between two fences.
    const FENCE: usize = 64;

    /// Order `values`. The `(value, row)` pairs are distinct, so the
    /// unstable sort is deterministic.
    fn new(values: &[i64]) -> Self {
        let rows = u32::try_from(values.len()).expect("an int column holds at most u32::MAX rows");
        let mut pairs: Vec<(i64, u32)> = values.iter().copied().zip(0..rows).collect();
        pairs.sort_unstable();
        let fences = pairs.iter().step_by(Self::FENCE).map(|&(v, _)| v).collect();
        Self { rows: pairs.into_iter().map(|(_, row)| row).collect(), fences }
    }

    /// The rows, ascending by value.
    #[inline]
    pub(crate) fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// How many fences hold a value `below` passes (`below` holds for a
    /// prefix of the order): the first position it fails lies after
    /// `FENCE · (k - 1)` and at or before `FENCE · k`.
    fn fence(&self, below: impl Fn(i64) -> bool) -> usize {
        self.fences.partition_point(|&v| below(v))
    }

    /// The rows holding a value in `lo..=hi`, counted to within `FENCE` at
    /// each end from the fences alone.
    pub(crate) fn approx_count(&self, lo: i64, hi: i64) -> usize {
        let (start, end) = (self.fence(|v| v < lo), self.fence(|v| v <= hi));
        Self::FENCE * end.saturating_sub(start)
    }

    /// The positions holding a value in `lo..=hi` (`column` is the column
    /// this orders); empty when `lo > hi`.
    pub(crate) fn positions(&self, column: &[i64], lo: i64, hi: i64) -> Range<usize> {
        let point = |below: &dyn Fn(i64) -> bool| match self.fence(below) {
            0 => 0,
            k => {
                let window = Self::FENCE * (k - 1) + 1..(Self::FENCE * k).min(self.rows.len());
                let rows = &self.rows[window.clone()];
                window.start + rows.partition_point(|&r| below(column[r as usize]))
            }
        };
        let start = point(&|v| v < lo);
        start..point(&|v| v <= hi).max(start)
    }

    /// Heap bytes: 4 per row and 8 per fence.
    fn memory_bytes(&self) -> usize {
        self.rows.len() * 4 + self.fences.len() * 8
    }
}

/// Build a keyword bitmask from term indices (< 64).
///
/// # Panics
/// Panics if any index is ≥ 64.
pub fn keyword_mask(terms: &[u8]) -> u64 {
    let mut m = 0u64;
    for &t in terms {
        assert!(t < 64, "keyword index {t} out of range (max 63)");
        m |= 1u64 << t;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttrStore {
        AttrStore::builder()
            .add_int("year", vec![1999, 2005, 2020])
            .add_keywords("areas", vec![0b011, 0b100, 0b110])
            .add_text("caption", vec!["a dog".into(), "a cat".into(), "a bird".into()])
            .build()
    }

    #[test]
    fn field_resolution_and_access() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.num_fields(), 3);
        let year = s.field("year").unwrap();
        let areas = s.field("areas").unwrap();
        let cap = s.field("caption").unwrap();
        assert_eq!(s.int(year, 1), 2005);
        assert_eq!(s.keywords(areas, 2), 0b110);
        assert_eq!(s.text(cap, 0), "a dog");
        assert!(s.field("nope").is_none());
        assert_eq!(s.field_name(year), "year");
    }

    #[test]
    #[should_panic(expected = "expected 3")]
    fn mismatched_lengths_panic() {
        let _ = AttrStore::builder().add_int("a", vec![1, 2, 3]).add_int("b", vec![1]).build();
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        let _ = AttrStore::builder().add_int("a", vec![]).add_int("a", vec![]).build();
    }

    #[test]
    #[should_panic(expected = "not int")]
    fn wrong_kind_access_panics() {
        let s = sample();
        let cap = s.field("caption").unwrap();
        let _ = s.int(cap, 0);
    }

    #[test]
    fn keyword_mask_builds_bits() {
        assert_eq!(keyword_mask(&[0, 2, 5]), 0b100101);
        assert_eq!(keyword_mask(&[]), 0);
    }

    #[test]
    fn memory_accounting_nonzero() {
        assert!(sample().memory_bytes() > 0);
    }

    #[test]
    fn each_int_column_is_ordered_by_value_at_4_bytes_a_row_and_8_per_64() {
        let values = vec![3, i64::MIN, 3, -1, i64::MAX, 0, 3, -1];
        let ints = AttrStore::builder().add_int("a", values.clone()).add_int("b", vec![7; 8]);
        let without = AttrStore::builder().add_keywords("k", vec![0; 8]).build().memory_bytes();
        let s = ints.add_keywords("k", vec![0; 8]).build();
        assert_eq!(s.order(0).unwrap().rows(), &[1, 3, 7, 5, 0, 2, 6, 4], "by value, ties by row");
        assert_eq!(s.order(1).unwrap().rows(), &[0, 1, 2, 3, 4, 5, 6, 7], "a constant column");
        assert!(s.order(2).is_none(), "keywords have no order");
        let (columns, orders) = (2 * 8 * 8, 2 * (8 * 4 + 8));
        assert_eq!(s.memory_bytes(), without + columns + orders, "4 B a row, 8 per 64 rows");
        let big = AttrStore::builder().add_int("a", vec![0; 1000]).build();
        assert_eq!(big.memory_bytes(), 1000 * 8 + 1000 * 4 + 1000usize.div_ceil(64) * 8);
    }

    #[test]
    fn fences_count_a_range_to_within_64_at_each_end_and_the_search_places_it_exactly() {
        let values: Vec<i64> = (0..1000).map(|i| (i * 7919) % 301 - 150).collect();
        let s = AttrStore::builder().add_int("a", values.clone()).build();
        let order = s.order(0).unwrap();
        let bounds = [i64::MIN, -151, -150, -1, 0, 3, 149, 150, 151, i64::MAX];
        for lo in bounds {
            for hi in bounds {
                let want = values.iter().filter(|&&v| lo <= v && v <= hi).count();
                let got = order.positions(&values, lo, hi);
                assert_eq!(got.len(), want, "{lo}..={hi}");
                assert!(got.clone().all(|p| (lo..=hi).contains(&values[order.rows()[p] as usize])));
                let approx = order.approx_count(lo, hi);
                assert!(approx.abs_diff(want) < 2 * 64, "{lo}..={hi}: {approx} for {want}");
            }
        }
    }

    #[test]
    fn the_arena_holds_each_row_at_its_start_then_the_padding() {
        let rows: Vec<String> = ["a dog", "", "日本 é", "🦀"].map(String::from).into();
        let s = AttrStore::builder().add_int("x", vec![0; 4]).add_text("t", rows.clone()).build();
        let arena = s.text_arena(1);
        assert_eq!(arena.starts().len(), 5);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(arena.row(i), row);
            assert_eq!(s.text(1, i as u32), row, "text() reads the column");
        }
        let end = arena.starts()[4];
        assert_eq!(&arena.bytes()[end..], &[0u8; TextArena::PADDING]);
        assert!(s.memory_bytes() >= s.column(1).memory_bytes() + arena.memory_bytes());
        let empty = AttrStore::builder().add_text("t", Vec::new()).build();
        assert_eq!(empty.text_arena(0).starts(), &[0]);
    }

    #[test]
    #[should_panic(expected = "not str")]
    fn an_int_column_has_no_arena() {
        let _ = sample().text_arena(0);
    }
}
