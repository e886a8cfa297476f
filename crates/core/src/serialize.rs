//! Binary serialization for [`AcornIndex`].
//!
//! The index (graph + parameters) is persisted separately from the vectors:
//! embeddings usually already live in the application's own storage, and an
//! ACORN graph is meaningless without exactly the store it was built over.
//! The format is a little-endian, versioned, length-prefixed layout — no
//! external serialization crates needed.
//!
//! ```text
//! magic "ACRN" | version u32 | variant u8 | m u64 | gamma u64 | m_beta u64
//! | efc u64 | metric u8 | seed u64 | s_min f64 (NaN = none) | n_c u64
//! | flatten u8 | n u64 | per node: level u8, per level: len u32, ids [u32]
//! | edges_pruned u64 | compacted u8
//! ```
//!
//! The trailing `compacted` flag records whether the index was
//! [sealed](AcornIndex::seal) when saved; [`AcornIndex::load`] seals the
//! loaded graph again (deterministic, so the reconstructed [`CsrGraph`] is
//! identical) and a growing index comes back growing. `save` walks whichever
//! graph the index holds and writes the same per-node lists either way, so
//! the bytes do not depend on the layout beyond that one flag.
//!
//! ## Format v6 — segmented index
//!
//! [`SegmentedAcornIndex`] files share the magic but use version 6 (the
//! only segmented version; 4 and 5 were footerless predecessors that no
//! deployed file ever used and `load` refuses) and a different body: the
//! shared parameter header, then the segment manifest — `dim`,
//! `next_global`, the [`MergePolicy`], the [`QuantizationPolicy`]
//! (`sq8_frozen u8 | rerank_k u64`), the frozen-segment count, and one
//! block per segment (frozen segments first, the active segment last):
//!
//! ```text
//! encoding u8 (0 = f32, 1 = sq8)
//! | if sq8: rerank_k u64 | mins [f32; dim] | steps [f32; dim]
//! | n u64 | global_ids [u64; n] | tombstone words [u64; ceil(n/64)]
//! | vectors [f32; n · dim] | embedded v3 index blob
//! ```
//!
//! Unlike v3, segment vectors are embedded: the segmented index owns its
//! per-segment stores (rows arrive one at a time through `insert`), so a
//! loaded index resumes serving **and accepting writes** with no external
//! store to re-attach. Only the *codebook* of a quantized segment is
//! persisted — codes are re-derived from the (always embedded) exact f32
//! rows on load, which is deterministic and keeps quantization nearly free
//! on disk. Loading holds each block's embedded `compacted` flag to the
//! block's role — frozen segments are sealed, the active segment is growing
//! — and cross-checks every count in the manifest against the vector data
//! and the embedded graph — a corrupt length fails with `InvalidData`
//! instead of a giant allocation (the same guard philosophy as the v3
//! neighbor-list check).
//!
//! The body is followed by a 4-byte footer: the CRC32 (IEEE) of every
//! preceding byte, magic and version included. [`SegmentedAcornIndex::load`]
//! verifies the footer over the **whole file before parsing a single body
//! field**, so no length read out of a torn or bit-rotted file is ever
//! trusted — corruption anywhere yields a clean `InvalidData` error, never
//! a panic or an attempted giant allocation. The per-field structural
//! guards still run on the body after the checksum passes, as defense in
//! depth, and trailing bytes after the body are rejected. This footer is
//! the commit unit of the [`durability`](crate::durability) layer: a crash
//! mid-write leaves a file whose checksum cannot match.
//!
//! [`CsrGraph`]: acorn_hnsw::CsrGraph

use std::io::{self, Read, Write};
use std::sync::Arc;

use acorn_hnsw::checksum::{ChecksumWriter, Crc32};
use acorn_hnsw::{LayeredGraph, Metric, VectorStore};
use acorn_predicate::Bitset;

use crate::index::{AcornIndex, Sq8Tier};
use crate::params::{AcornParams, AcornVariant};
use crate::prune::PruneStrategy;
use crate::segment::{MergePolicy, QuantizationPolicy, RawSegment, SegmentedAcornIndex};
use crate::snapshot::SegmentSnapshot;

const MAGIC: &[u8; 4] = b"ACRN";
const VERSION: u32 = 3;
/// The segmented format: the body followed by a CRC32 footer over every
/// preceding byte, verified before any body field is parsed.
const SEGMENTED_V6: u32 = 6;
/// Per-segment encoding tags.
const ENC_F32: u8 = 0;
const ENC_SQ8: u8 = 1;
/// Upper bound on a plausible vector dimensionality; a corrupt `dim` above
/// this fails cleanly instead of sizing row buffers from garbage.
const MAX_DIM: usize = 1 << 20;

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The parameter header shared by v3 (per index) and v6 (top level and per
/// embedded segment): variant tag, then every [`AcornParams`] field that
/// round-trips.
fn put_header(w: &mut impl Write, variant: AcornVariant, p: &AcornParams) -> io::Result<()> {
    w.write_all(&[match variant {
        AcornVariant::Gamma => 0u8,
        AcornVariant::One => 1u8,
    }])?;
    put_u64(w, p.m as u64)?;
    put_u64(w, p.gamma as u64)?;
    put_u64(w, p.m_beta as u64)?;
    put_u64(w, p.ef_construction as u64)?;
    w.write_all(&[match p.metric {
        Metric::L2 => 0u8,
        Metric::InnerProduct => 1u8,
        Metric::Cosine => 2u8,
    }])?;
    put_u64(w, p.seed)?;
    w.write_all(&p.s_min_override.unwrap_or(f64::NAN).to_le_bytes())?;
    put_u64(w, p.compressed_levels as u64)?;
    w.write_all(&[p.flatten_hierarchy as u8])
}

/// Inverse of [`put_header`]. The label-dependent ablation prune strategies
/// do not round-trip; loaded params always carry `AcornCompress`.
fn get_header(r: &mut impl Read) -> io::Result<(AcornVariant, AcornParams)> {
    let variant = match get_u8(r)? {
        0 => AcornVariant::Gamma,
        1 => AcornVariant::One,
        _ => return Err(bad("unknown variant tag")),
    };
    let m = get_u64(r)? as usize;
    let gamma = get_u64(r)? as usize;
    let m_beta = get_u64(r)? as usize;
    let ef_construction = get_u64(r)? as usize;
    let metric = match get_u8(r)? {
        0 => Metric::L2,
        1 => Metric::InnerProduct,
        2 => Metric::Cosine,
        _ => return Err(bad("unknown metric tag")),
    };
    let seed = get_u64(r)?;
    let mut s_min_bytes = [0u8; 8];
    r.read_exact(&mut s_min_bytes)?;
    let s_min = f64::from_le_bytes(s_min_bytes);
    let s_min_override = if s_min.is_nan() { None } else { Some(s_min) };
    let compressed_levels = get_u64(r)? as usize;
    let flatten_hierarchy = get_u8(r)? != 0;
    let params = AcornParams {
        m,
        gamma,
        m_beta,
        ef_construction,
        metric,
        seed,
        prune: PruneStrategy::AcornCompress,
        s_min_override,
        compressed_levels,
        flatten_hierarchy,
    };
    Ok((variant, params))
}

impl AcornIndex {
    /// Serialize the index (graph + parameters, not the vectors) to `w`.
    ///
    /// Note: only [`PruneStrategy::AcornCompress`] and
    /// [`PruneStrategy::KeepAll`] round-trip; the label-dependent ablation
    /// strategies are research knobs and serialize as `AcornCompress`.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;
        put_header(w, self.variant(), self.params())?;

        let g = self.graph_view();
        put_u64(w, g.len() as u64)?;
        for v in 0..g.len() as u32 {
            let level = g.level_of(v);
            // The format stores levels as one byte. Real graphs top out
            // around level ~10 (geometric level distribution), so > 255 is
            // pathological — but silently truncating it would corrupt the
            // file, so refuse instead.
            let level_byte = u8::try_from(level).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("node {v} has level {level}, exceeding the format maximum of 255"),
                )
            })?;
            w.write_all(&[level_byte])?;
            for lev in 0..=level {
                let list = g.neighbors(v, lev);
                put_u32(w, list.len() as u32)?;
                for &id in list {
                    put_u32(w, id)?;
                }
            }
        }
        put_u64(w, self.edges_pruned())?;
        w.write_all(&[self.csr().is_some() as u8])?;
        Ok(())
    }

    /// Load an index previously written by [`save`](Self::save), attaching
    /// it to `vecs` (which must be the store the index was built over).
    ///
    /// # Errors
    /// Returns `InvalidData` on magic/version mismatch, and if `vecs` does
    /// not have exactly as many vectors as the serialized graph has nodes.
    pub fn load(r: &mut impl Read, vecs: Arc<VectorStore>) -> io::Result<AcornIndex> {
        let (idx, sealed) = Self::load_growing(r, vecs)?;
        Ok(if sealed { idx.seal(None) } else { idx })
    }

    /// [`load`](Self::load) up to the `compacted` flag: the graph as a
    /// growing index, and whether the saved index was sealed.
    fn load_growing(r: &mut impl Read, vecs: Arc<VectorStore>) -> io::Result<(AcornIndex, bool)> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an ACORN index file"));
        }
        match get_u32(r)? {
            VERSION => {}
            SEGMENTED_V6 => {
                return Err(bad("this is a segmented index file; use SegmentedAcornIndex::load"))
            }
            _ => return Err(bad("unsupported ACORN index version")),
        }
        let (variant, params) = get_header(r)?;

        let n = get_u64(r)? as usize;
        if vecs.len() != n {
            return Err(bad("vector store size does not match serialized index"));
        }
        let mut graph = LayeredGraph::with_capacity(n);
        for _ in 0..n {
            let level = get_u8(r)? as usize;
            let v = graph.add_node(level);
            for lev in 0..=level {
                let len = get_u32(r)? as usize;
                // A node cannot have more neighbors than the graph has
                // nodes; rejecting earlier also stops a corrupt length from
                // driving a multi-gigabyte Vec::with_capacity below.
                if len > n {
                    return Err(bad("neighbor list longer than the graph"));
                }
                let mut list = Vec::with_capacity(len);
                for _ in 0..len {
                    let id = get_u32(r)?;
                    if id as usize >= n {
                        return Err(bad("edge target out of range"));
                    }
                    list.push(id);
                }
                graph.set_neighbors(v, lev, list);
            }
        }
        let edges_pruned = get_u64(r)?;
        let sealed = get_u8(r)? != 0;
        Ok((AcornIndex::from_parts(params, variant, vecs, graph, edges_pruned), sealed))
    }
}

/// One segment block: the encoding tag (+ codebook when quantized), then
/// the manifest (row count, global ids, tombstones), vector data, and the
/// embedded v3 index blob (self-delimiting).
fn put_segment(
    w: &mut impl Write,
    global_ids: &[u64],
    tombstones: &Bitset,
    index: &AcornIndex,
) -> io::Result<()> {
    match index.quantized() {
        Some(sq) => {
            w.write_all(&[ENC_SQ8])?;
            put_u64(w, index.rerank_k().unwrap_or(0) as u64)?;
            for &m in sq.mins() {
                w.write_all(&m.to_le_bytes())?;
            }
            for &s in sq.steps() {
                w.write_all(&s.to_le_bytes())?;
            }
        }
        None => w.write_all(&[ENC_F32])?,
    }
    put_u64(w, global_ids.len() as u64)?;
    for &gid in global_ids {
        put_u64(w, gid)?;
    }
    for &word in tombstones.words() {
        put_u64(w, word)?;
    }
    for &x in index.vectors().as_flat() {
        w.write_all(&x.to_le_bytes())?;
    }
    index.save(w)
}

/// Inverse of [`put_segment`], with every count cross-checked. Allocation
/// is driven by bytes actually present in the stream, never by the
/// untrusted `n` alone, so a corrupt length fails with `InvalidData` or
/// `UnexpectedEof` instead of an OOM. `expected_variant`/`expected_params`
/// are what `save` wrote into every embedded blob (the top-level
/// configuration after any variant override); a disagreeing embedded
/// header means corruption — segments searched under a different metric or
/// seed would merge incommensurable distances.
fn get_segment(
    r: &mut impl Read,
    dim: usize,
    next_global: u64,
    expected_variant: AcornVariant,
    expected_params: &AcornParams,
) -> io::Result<RawSegment> {
    // Blocks lead with the encoding tag (and, for SQ8, the codebook the
    // codes are re-derived from).
    let mut codebook: Option<(usize, Vec<f32>, Vec<f32>)> = None;
    match get_u8(r)? {
        ENC_F32 => {}
        ENC_SQ8 => {
            let rerank_k = get_u64(r)? as usize;
            let mut read_f32s = |count: usize| -> io::Result<Vec<f32>> {
                let mut out = Vec::with_capacity(count);
                let mut b = [0u8; 4];
                for _ in 0..count {
                    r.read_exact(&mut b)?;
                    out.push(f32::from_le_bytes(b));
                }
                Ok(out)
            };
            let mins = read_f32s(dim)?;
            let steps = read_f32s(dim)?;
            if mins.iter().any(|m| !m.is_finite())
                || steps.iter().any(|s| !s.is_finite() || *s <= 0.0)
            {
                return Err(bad("invalid SQ8 codebook in segment block"));
            }
            codebook = Some((rerank_k, mins, steps));
        }
        _ => return Err(bad("unknown segment encoding tag")),
    }

    let n = get_u64(r)? as usize;

    let mut global_ids = Vec::new();
    for _ in 0..n {
        global_ids.push(get_u64(r)?);
    }
    if global_ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("segment manifest global ids must be strictly ascending"));
    }
    if global_ids.last().is_some_and(|&g| g >= next_global) {
        return Err(bad("segment manifest global id at or beyond next_global"));
    }

    let mut words = Vec::new();
    for _ in 0..n.div_ceil(64) {
        words.push(get_u64(r)?);
    }
    let rem = n % 64;
    if rem != 0 && words.last().is_some_and(|&w| w >> rem != 0) {
        return Err(bad("tombstone bits set beyond the segment's row count"));
    }
    let tombstones = Bitset::from_words(n, words);

    let mut store = VectorStore::with_capacity(dim, n.min(4096));
    let mut row_bytes = vec![0u8; dim * 4];
    let mut row = vec![0f32; dim];
    for _ in 0..n {
        r.read_exact(&mut row_bytes)?;
        for (f, c) in row.iter_mut().zip(row_bytes.chunks_exact(4)) {
            *f = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
        store.push(&row);
    }

    // The embedded blob carries its own node count; the load rejects it
    // unless it matches the store we just rebuilt from the manifest — the
    // row-count corruption guard.
    let (index, sealed) = AcornIndex::load_growing(r, Arc::new(store))?;
    if index.len() != global_ids.len() {
        return Err(bad("segment manifest row count disagrees with the vector store"));
    }
    if index.variant() != expected_variant || index.params() != expected_params {
        return Err(bad("embedded segment header disagrees with the segmented index header"));
    }
    let index = match (sealed, codebook) {
        (false, None) => index,
        (false, Some(_)) => return Err(bad("a quantized segment block must be sealed")),
        // Re-encode the embedded exact rows against the persisted codebook:
        // deterministic, so the loaded segment answers bit-identically to
        // the one that was saved.
        (true, codebook) => index.seal(codebook.map(|(rerank_k, mins, steps)| Sq8Tier::Adopt {
            mins,
            steps,
            rerank_k,
        })),
    };
    Ok(RawSegment { index, global_ids, tombstones })
}

impl SegmentSnapshot {
    /// Serialize this snapshot — manifest, tombstones, vectors, and
    /// per-segment graphs — to `w` (format v6: the body plus a CRC32 footer
    /// over every byte written). A snapshot is immutable, so the bytes are
    /// consistent *as of this epoch* no matter how many inserts, deletes,
    /// or background merges land while the write is in flight; saving the
    /// same snapshot twice yields identical bytes.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        // Stream the whole preamble + body through the checksummer, then
        // append the sum as the (unhashed) 4-byte footer.
        let mut cw = ChecksumWriter::new(w);
        let w = &mut cw;
        w.write_all(MAGIC)?;
        put_u32(w, SEGMENTED_V6)?;
        put_header(w, self.variant(), self.params())?;
        put_u64(w, self.dim() as u64)?;
        put_u64(w, self.next_global_id())?;
        let policy = self.policy();
        put_u64(w, policy.min_rows as u64)?;
        w.write_all(&policy.max_tombstone_fraction.to_le_bytes())?;
        put_u64(w, policy.active_max_rows as u64)?;
        let quant = self.quantization();
        w.write_all(&[quant.sq8_frozen as u8])?;
        put_u64(w, quant.rerank_k as u64)?;
        put_u64(w, self.frozen_segments().len() as u64)?;
        for seg in self.frozen_segments() {
            put_segment(w, seg.global_ids(), seg.tombstones(), seg.index())?;
        }
        match self.active_segment() {
            Some(seg) => put_segment(w, seg.global_ids(), seg.tombstones(), seg.index())?,
            None => {
                // No published active view (empty or just sealed): write the
                // block an empty active segment would produce — zero rows,
                // then a fresh empty index blob carrying the expected
                // header — so the on-disk layout is invariant to whether the
                // writer happened to have an unsealed row in flight.
                w.write_all(&[ENC_F32])?;
                put_u64(w, 0)?;
                AcornIndex::new(
                    Arc::new(VectorStore::new(self.dim())),
                    self.params().clone(),
                    self.variant(),
                )
                .save(w)?
            }
        }
        let sum = cw.sum();
        put_u32(cw.inner_mut(), sum)
    }
}

impl SegmentedAcornIndex {
    /// Serialize the whole segmented index to `w` (format v6, checksummed)
    /// by saving the currently published [`SegmentSnapshot`] — see
    /// [`SegmentSnapshot::save`] for the snapshot-consistency guarantee. A
    /// loaded index resumes serving and accepting writes immediately.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        self.snapshot().save(w)
    }

    /// Load an index previously written by [`save`](Self::save): the CRC32
    /// footer is verified over the whole file **before** any body field is
    /// parsed.
    ///
    /// # Errors
    /// Returns `InvalidData` on magic/version mismatch, a checksum-footer
    /// mismatch (torn or corrupt v6 file), trailing bytes after the body,
    /// inconsistent parameters, a tombstone/segment manifest whose row
    /// counts disagree with the embedded vector store or graph,
    /// non-ascending / out-of-range / cross-segment-duplicated global ids,
    /// overlapping segment gid ranges, tombstone bits beyond a segment's
    /// rows, embedded segment headers that disagree with the top-level
    /// configuration, and a frozen block that is not sealed or an active
    /// block that is sealed or quantized.
    pub fn load(r: &mut impl Read) -> io::Result<SegmentedAcornIndex> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not an ACORN index file"));
        }
        match get_u32(r)? {
            SEGMENTED_V6 => {}
            VERSION => {
                return Err(bad("this is a plain (non-segmented) index file; use AcornIndex::load"))
            }
            _ => return Err(bad("unsupported ACORN index version")),
        }
        // Checksum-first: slurp the rest of the stream (allocation bounded
        // by bytes actually present, never by a parsed length), verify the
        // footer over everything, and only then hand the body to the
        // structural parser.
        let mut rest = Vec::new();
        r.read_to_end(&mut rest)?;
        if rest.len() < 4 {
            return Err(bad("segmented index file too short for its checksum footer"));
        }
        let body_len = rest.len() - 4;
        let footer = u32::from_le_bytes(rest[body_len..].try_into().expect("4 footer bytes"));
        let mut crc = Crc32::new();
        crc.update(MAGIC);
        crc.update(&SEGMENTED_V6.to_le_bytes());
        crc.update(&rest[..body_len]);
        if crc.finish() != footer {
            return Err(bad("segmented index checksum mismatch (torn or corrupt file)"));
        }
        let mut body = &rest[..body_len];
        let idx = Self::load_body(&mut body)?;
        if !body.is_empty() {
            return Err(bad("trailing bytes after segmented index body"));
        }
        Ok(idx)
    }

    /// The body parser (everything after magic + version, footer
    /// excluded), with every count cross-checked.
    fn load_body(r: &mut impl Read) -> io::Result<SegmentedAcornIndex> {
        let (variant, params) = get_header(r)?;
        // `AcornParams::validate` panics; a corrupt file must error instead.
        if params.m < 2
            || params.gamma < 1
            || params.m_beta > params.edge_budget()
            || params.ef_construction < 1
            || params.compressed_levels < 1
        {
            return Err(bad("inconsistent parameters in segmented index header"));
        }
        let dim = get_u64(r)? as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(bad("implausible vector dimension in segmented index header"));
        }
        let next_global = get_u64(r)?;
        let min_rows = get_u64(r)? as usize;
        let mut frac_bytes = [0u8; 8];
        r.read_exact(&mut frac_bytes)?;
        let max_tombstone_fraction = f64::from_le_bytes(frac_bytes);
        if !max_tombstone_fraction.is_finite() || max_tombstone_fraction < 0.0 {
            return Err(bad("invalid merge policy tombstone fraction"));
        }
        let active_max_rows = get_u64(r)? as usize;
        let policy = MergePolicy { min_rows, max_tombstone_fraction, active_max_rows };
        let sq8_frozen = match get_u8(r)? {
            0 => false,
            1 => true,
            _ => return Err(bad("invalid quantization policy flag")),
        };
        let quant = QuantizationPolicy { sq8_frozen, rerank_k: get_u64(r)? as usize };

        // Every segment was built from the top-level configuration (with the
        // ACORN-1 override applied by `AcornIndex::new`); reconstruct that
        // expectation once and hold each embedded header to it.
        let expected_params =
            AcornIndex::new(Arc::new(VectorStore::new(dim)), params.clone(), variant)
                .params()
                .clone();

        let nseg = get_u64(r)? as usize;
        let mut frozen = Vec::new();
        for _ in 0..nseg {
            let seg = get_segment(r, dim, next_global, variant, &expected_params)?;
            if seg.global_ids.is_empty() {
                return Err(bad("frozen segments must not be empty"));
            }
            if seg.index.csr().is_none() {
                return Err(bad("frozen segments must be sealed"));
            }
            frozen.push(seg);
        }
        if frozen.windows(2).any(|w| w[0].global_ids[0] >= w[1].global_ids[0]) {
            return Err(bad("frozen segments must be ascending by first global id"));
        }
        let active = get_segment(r, dim, next_global, variant, &expected_params)?;
        if active.index.quantized().is_some() {
            // Codebooks are only ever trained at seal time; a quantized
            // active segment could not absorb inserts.
            return Err(bad("the active segment must not be quantized"));
        }
        if active.index.csr().is_some() {
            // A sealed index accepts no inserts.
            return Err(bad("the active segment must not be sealed"));
        }

        // Global ids must be owned by exactly one segment: a duplicated id
        // would surface twice from one top-k merge and make deletes only
        // half-stick. Segment-local ascending order is already enforced, so
        // one sort over the union exposes any cross-segment duplicate.
        let mut all_ids: Vec<u64> = frozen
            .iter()
            .chain(std::iter::once(&active))
            .flat_map(|s| s.global_ids.iter().copied())
            .collect();
        all_ids.sort_unstable();
        if all_ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad("global id owned by more than one segment"));
        }

        // Beyond uniqueness, segment gid *ranges* must be pairwise disjoint
        // and ascending (frozen by first gid, the active segment above them
        // all): `delete` routes a gid to its owning segment by range binary
        // search, so interleaved ranges would silently misroute deletes.
        let ranges: Vec<(u64, u64)> = frozen
            .iter()
            .chain(std::iter::once(&active).filter(|a| !a.global_ids.is_empty()))
            .map(|s| (s.global_ids[0], *s.global_ids.last().expect("non-empty")))
            .collect();
        if ranges.windows(2).any(|w| w[0].1 >= w[1].0) {
            return Err(bad("segment global id ranges overlap"));
        }

        Ok(SegmentedAcornIndex::from_loaded_parts(
            params,
            variant,
            dim,
            frozen,
            active,
            next_global,
            policy,
            quant,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_store(n: usize, dim: usize, seed: u64) -> Arc<VectorStore> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = VectorStore::with_capacity(dim, n);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            s.push(&v);
        }
        Arc::new(s)
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let vecs = random_store(600, 8, 1);
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);

        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let loaded = AcornIndex::load(&mut buf.as_slice(), vecs.clone()).unwrap();

        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.variant(), idx.variant());
        assert_eq!(loaded.edges_pruned(), idx.edges_pruned());
        let q = vec![0.1; 8];
        let a: Vec<u32> = idx.search(&q, 10, 64).iter().map(|n| n.id).collect();
        let b: Vec<u32> = loaded.search(&q, 10, 64).iter().map(|n| n.id).collect();
        assert_eq!(a, b, "loaded index must answer identically");
    }

    #[test]
    fn roundtrip_acorn1_and_s_min() {
        let vecs = random_store(200, 4, 2);
        let params =
            AcornParams { m: 8, gamma: 6, m_beta: 8, ef_construction: 16, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::One);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let loaded = AcornIndex::load(&mut buf.as_slice(), vecs).unwrap();
        assert_eq!(loaded.variant(), AcornVariant::One);
        assert_eq!(loaded.params().s_min(), idx.params().s_min());
    }

    #[test]
    fn compacted_flag_roundtrips_and_loads_serving_from_csr() {
        let vecs = random_store(400, 8, 6);
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let plain = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);
        let idx = plain.clone().seal(None);

        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let loaded = AcornIndex::load(&mut buf.as_slice(), vecs.clone()).unwrap();
        assert!(loaded.csr().is_some(), "a sealed index must load sealed");
        let q = vec![0.3; 8];
        let a: Vec<(u32, f32)> = idx.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u32, f32)> = loaded.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b);

        // A growing index stays growing through the round trip, and its file
        // differs from the sealed one's in the trailing flag alone: `save`
        // writes the same lists from either graph.
        let mut plain_buf = Vec::new();
        plain.save(&mut plain_buf).unwrap();
        let loaded = AcornIndex::load(&mut plain_buf.as_slice(), vecs).unwrap();
        assert!(loaded.csr().is_none());
        let flag = buf.len() - 1;
        assert_eq!((plain_buf[flag], buf[flag]), (0, 1));
        assert_eq!(plain_buf[..flag], buf[..flag]);
    }

    #[test]
    fn rejects_bad_magic_and_size_mismatch() {
        let vecs = random_store(50, 4, 3);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();

        let mut corrupted = buf.clone();
        corrupted[0] = b'X';
        assert!(AcornIndex::load(&mut corrupted.as_slice(), vecs.clone()).is_err());

        let wrong_store = random_store(49, 4, 4);
        assert!(AcornIndex::load(&mut buf.as_slice(), wrong_store).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds supported maximum")]
    fn levels_beyond_u8_cannot_enter_a_graph() {
        // The save-side `u8::try_from(level)` guard is defense-in-depth:
        // this assertion in `LayeredGraph::add_node` is what makes a > 255
        // level unrepresentable before serialization is ever reached, so
        // `level as u8` can no longer truncate silently anywhere.
        let mut graph = LayeredGraph::with_capacity(1);
        graph.add_node(300);
    }

    #[test]
    fn load_rejects_oversized_neighbor_list() {
        let vecs = random_store(50, 4, 10);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        // Layout: 4 magic + 4 version + 1 variant + 4×8 params + 1 metric
        // + 8 seed + 8 s_min + 8 n_c + 1 flatten = 67 bytes of header, then
        // 8 bytes of n, 1 byte of node-0 level, then node 0's first list
        // length at offset 76. Corrupt it to an absurd value: load must
        // error out instead of attempting a 16 GiB allocation.
        buf[76..80].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = AcornIndex::load(&mut buf.as_slice(), vecs).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("neighbor list"), "unexpected message: {err}");
    }

    /// A segmented index with one frozen segment (100 rows, gids 0..100,
    /// gids 0..10 tombstoned) and one active segment (60 rows).
    fn segmented_fixture() -> (crate::SegmentedAcornIndex, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(77);
        let vecs: Vec<Vec<f32>> =
            (0..160).map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let mut idx = crate::SegmentedAcornIndex::new(8, params, AcornVariant::Gamma);
        for v in &vecs[..100] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[100..] {
            idx.insert(v);
        }
        for gid in 0..10u64 {
            idx.delete(gid);
        }
        (idx, vecs)
    }

    /// `(length, CRC32 of everything before the footer)` of
    /// `saved(segmented_fixture)` and `saved(quantized_fixture)`; see
    /// `saved_bytes_are_those_of_the_two_layout_index`.
    const FIXTURE_SUM: (usize, u32) = (22_094, 70_889_456);
    const QUANTIZED_SUM: (usize, u32) = (22_166, 4_192_036_885);

    /// Bytes before the first frozen segment block: magic 4 + version 4 +
    /// header 59 + dim 8 + next_global 8 + policy 24 + quant 9 + nseg 8.
    const SEG_HEADER_BYTES: usize = 124;
    /// Offset of the fixture's first frozen segment's row count `n`: the
    /// block leads with its 1-byte encoding tag (f32 here, so no codebook).
    const SEG_N_OFF: usize = SEG_HEADER_BYTES + 1;

    fn saved(idx: &crate::SegmentedAcornIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        buf
    }

    /// Recompute the CRC32 footer of a file whose body a test has just
    /// corrupted. The structural-guard tests poke specific byte offsets and
    /// must reach the body parser — the stale footer would (correctly)
    /// reject the corruption first — so each guard is shown to fire *after*
    /// the checksum passes.
    fn reseal(buf: &mut [u8]) {
        let body_len = buf.len() - 4;
        let sum = acorn_hnsw::checksum::crc32(&buf[..body_len]);
        buf[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn segmented_roundtrip_preserves_answers_and_accepts_writes() {
        let (idx, vecs) = segmented_fixture();
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let mut loaded = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.total_rows(), idx.total_rows());
        assert_eq!(loaded.deleted_rows(), 10);
        assert_eq!(loaded.next_global_id(), idx.next_global_id());
        assert_eq!(loaded.policy(), idx.policy());
        assert!(
            loaded.frozen_segments()[0].index().csr().is_some(),
            "loaded frozen segments must be sealed"
        );

        let q = vec![0.2; 8];
        let a: Vec<(u64, f32)> = idx.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u64, f32)> = loaded.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b, "loaded index must answer identically");

        // The loaded index resumes accepting writes: insert into the active
        // segment, delete a frozen row, and observe both take effect.
        let gid = loaded.insert(&vecs[0]);
        assert_eq!(gid, 160);
        assert!(loaded.delete(42));
        assert!(loaded.contains(gid) && !loaded.contains(42));
        // vecs[0]'s original row (gid 0) is tombstoned, so the nearest
        // neighbor of vecs[0] must be its freshly inserted duplicate.
        let nearest = loaded.search(&vecs[0], 1, 64);
        assert_eq!(nearest[0].id, gid);
    }

    #[test]
    fn segmented_load_rejects_corrupt_row_count_without_huge_alloc() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // First frozen segment's n: an absurd value must error (EOF while
        // reading the manifest), never attempt a proportional allocation.
        buf[SEG_N_OFF..SEG_N_OFF + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(
            err.kind() == std::io::ErrorKind::InvalidData
                || err.kind() == std::io::ErrorKind::UnexpectedEof,
            "unexpected error kind: {err}"
        );
    }

    #[test]
    fn segmented_load_rejects_unsorted_global_ids() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // First gid (value 0) -> 5: now >= the second gid (1).
        let off = SEG_N_OFF + 8;
        buf[off..off + 8].copy_from_slice(&5u64.to_le_bytes());
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("strictly ascending"), "unexpected: {err}");
    }

    #[test]
    fn segmented_load_rejects_tombstone_bits_beyond_rows() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // Frozen segment: n = 100 -> 2 tombstone words, valid bits 0..36 of
        // the last word. Set bits 40..48.
        let words_off = SEG_N_OFF + 8 + 100 * 8;
        buf[words_off + 8 + 5] = 0xFF;
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("beyond the segment's row count"), "unexpected: {err}");
    }

    #[test]
    fn segmented_load_rejects_cross_segment_duplicate_global_ids() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // Frozen segment: gids 0..100. Rewrite the last one (99 -> 149):
        // still strictly ascending within the segment and < next_global
        // (160), but 149 is also owned by the active segment (100..160).
        let off = SEG_N_OFF + 8 + 99 * 8;
        buf[off..off + 8].copy_from_slice(&149u64.to_le_bytes());
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("more than one segment"), "unexpected: {err}");
    }

    #[test]
    fn segmented_load_rejects_overlapping_segment_ranges() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // Raise next_global (160 -> 200, at magic 4 + version 4 + header 59
        // + dim 8 = offset 75), then rewrite the frozen segment's last gid
        // (99 -> 170): every per-id check passes (ascending within the
        // segment, below next_global, no duplicate), but the frozen range
        // [0, 170] now straddles the active range [100, 159].
        buf[75..83].copy_from_slice(&200u64.to_le_bytes());
        let off = SEG_N_OFF + 8 + 99 * 8;
        buf[off..off + 8].copy_from_slice(&170u64.to_le_bytes());
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("ranges overlap"), "unexpected: {err}");
    }

    #[test]
    fn segmented_load_rejects_mismatched_embedded_header() {
        let (idx, _) = segmented_fixture();
        let mut buf = saved(&idx);
        // The frozen segment's embedded v3 blob starts after its manifest
        // (n = 100, dim = 8): 8 + 800 gid bytes + 16 tombstone bytes +
        // 3200 vector bytes. Its metric byte sits 8 (magic + version) + 1
        // (variant) + 32 (four u64 params) further in; flip L2 -> IP.
        let blob = SEG_N_OFF + 8 + 800 + 16 + 3200;
        let metric = blob + 8 + 1 + 32;
        assert_eq!(buf[metric], 0, "expected the L2 metric tag at the computed offset");
        buf[metric] = 1;
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("disagrees with the segmented index header"),
            "unexpected: {err}"
        );
    }

    #[test]
    fn segmented_and_plain_files_reject_each_other_with_guidance() {
        let (seg_idx, _) = segmented_fixture();
        let mut seg_buf = Vec::new();
        seg_idx.save(&mut seg_buf).unwrap();
        let store = random_store(1, 8, 1);
        let err = AcornIndex::load(&mut seg_buf.as_slice(), store.clone()).unwrap_err();
        assert!(err.to_string().contains("SegmentedAcornIndex::load"), "unexpected: {err}");

        let plain = AcornIndex::build(
            store.clone(),
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() },
            AcornVariant::Gamma,
        );
        let mut plain_buf = Vec::new();
        plain.save(&mut plain_buf).unwrap();
        let err = crate::SegmentedAcornIndex::load(&mut plain_buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("AcornIndex::load"), "unexpected: {err}");
    }

    #[test]
    fn segmented_truncation_is_an_error_not_a_panic() {
        let (idx, _) = segmented_fixture();
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        for cut in [3usize, 60, SEG_HEADER_BYTES, buf.len() / 2, buf.len() - 1] {
            assert!(
                crate::SegmentedAcornIndex::load(&mut buf[..cut].to_vec().as_slice()).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    /// The segmented fixture with SQ8 quantization on: the frozen segment
    /// traverses codes, the active segment stays f32.
    fn quantized_fixture() -> crate::SegmentedAcornIndex {
        let mut rng = StdRng::seed_from_u64(77);
        let vecs: Vec<Vec<f32>> =
            (0..160).map(|_| (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let mut idx = crate::SegmentedAcornIndex::new(8, params, AcornVariant::Gamma)
            .with_quantization(QuantizationPolicy::sq8(16));
        for v in &vecs[..100] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[100..] {
            idx.insert(v);
        }
        idx
    }

    #[test]
    fn saved_bytes_are_those_of_the_two_layout_index() {
        // Length and CRC32 of what the parent of the one-graph-per-segment
        // change wrote for the same op scripts: sealing changed what a
        // segment holds in memory, not one byte of the file.
        for (file, sum) in [
            (saved(&segmented_fixture().0), FIXTURE_SUM),
            (saved(&quantized_fixture()), QUANTIZED_SUM),
        ] {
            let body = &file[..file.len() - 4];
            assert_eq!((file.len(), acorn_hnsw::checksum::crc32(body)), sum);
        }
    }

    #[test]
    fn segmented_load_holds_each_block_to_the_state_of_its_role() {
        // Every embedded v3 blob ends in its `compacted` byte: the frozen
        // block's is the last byte before the active block, the active
        // block's the last before the footer.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        let active_flag = buf.len() - 5;
        // Active block (the same in both fixtures): tag 1 + n 8 + 60 gids +
        // 1 tombstone word + 60 × 8 floats, then its blob.
        let mut blob = Vec::new();
        idx.snapshot().active_segment().unwrap().index().save(&mut blob).unwrap();
        let active_block = 1 + 8 + 60 * 8 + 8 + 60 * 8 * 4 + blob.len();
        let frozen_flag = active_flag - active_block;
        assert_eq!((buf[frozen_flag], buf[active_flag]), (1, 0));

        for (flag, message) in [
            (frozen_flag, "frozen segments must be sealed"),
            (active_flag, "the active segment must not be sealed"),
        ] {
            let mut flipped = buf.clone();
            flipped[flag] ^= 1;
            reseal(&mut flipped);
            let err = crate::SegmentedAcornIndex::load(&mut flipped.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "unexpected: {err}");
        }

        // A quantized block is sealed by construction; one that claims
        // otherwise is refused before its codebook is used.
        let mut quantized = saved(&quantized_fixture());
        let frozen_flag = quantized.len() - 5 - active_block;
        quantized[frozen_flag] = 0;
        reseal(&mut quantized);
        let err = crate::SegmentedAcornIndex::load(&mut quantized.as_slice()).unwrap_err();
        assert!(err.to_string().contains("quantized segment block must be sealed"), "{err}");
    }

    #[test]
    fn quantized_roundtrip_is_bit_identical_and_stays_quantized() {
        let idx = quantized_fixture();
        assert!(idx.snapshot().frozen_segments()[0].is_quantized(), "fixture must quantize");

        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        let loaded = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.quantization(), QuantizationPolicy::sq8(16));
        let snap = loaded.snapshot();
        assert!(snap.frozen_segments()[0].is_quantized(), "loaded segment must stay SQ8");
        assert!(snap.active_segment().is_some_and(|s| !s.is_quantized()));

        // Codes are re-derived from the persisted codebook + exact rows, so
        // the loaded index answers bit-identically (ids *and* distances).
        let q = vec![0.2; 8];
        let a: Vec<(u64, f32)> = idx.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        let b: Vec<(u64, f32)> = loaded.search(&q, 10, 64).iter().map(|n| (n.id, n.dist)).collect();
        assert_eq!(a, b, "loaded quantized index must answer identically");
    }

    #[test]
    fn load_rejects_corrupt_codebook_and_unknown_encoding_tag() {
        let idx = quantized_fixture();
        let buf = saved(&idx);

        // The frozen block leads with tag 1 | rerank_k u64 | mins [f32; 8]:
        // poison the first step (offset tag 1 + 8 + 32) with 0.0.
        let mut bad_steps = buf.clone();
        let step0 = SEG_HEADER_BYTES + 1 + 8 + 32;
        bad_steps[step0..step0 + 4].copy_from_slice(&0f32.to_le_bytes());
        reseal(&mut bad_steps);
        let err = crate::SegmentedAcornIndex::load(&mut bad_steps.as_slice()).unwrap_err();
        assert!(err.to_string().contains("codebook"), "unexpected: {err}");

        let mut bad_tag = buf;
        bad_tag[SEG_HEADER_BYTES] = 7;
        reseal(&mut bad_tag);
        let err = crate::SegmentedAcornIndex::load(&mut bad_tag.as_slice()).unwrap_err();
        assert!(err.to_string().contains("encoding tag"), "unexpected: {err}");
    }

    /// A small segmented fixture (one frozen + one active segment, a few
    /// tombstones) sized so the exhaustive byte-flip sweep stays fast.
    fn tiny_fixture() -> crate::SegmentedAcornIndex {
        let mut rng = StdRng::seed_from_u64(91);
        let vecs: Vec<Vec<f32>> =
            (0..48).map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 8, ef_construction: 16, ..Default::default() };
        let mut idx = crate::SegmentedAcornIndex::new(4, params, AcornVariant::Gamma);
        for v in &vecs[..32] {
            idx.insert(v);
        }
        idx.freeze();
        for v in &vecs[32..] {
            idx.insert(v);
        }
        for gid in [1u64, 7, 40] {
            idx.delete(gid);
        }
        idx
    }

    #[test]
    fn v6_flipping_any_bit_anywhere_is_a_clean_error() {
        let idx = tiny_fixture();
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        crate::SegmentedAcornIndex::load(&mut buf.as_slice()).expect("pristine file must load");
        // Exhaustive: every bit of every byte — header, manifest, length
        // fields, vector data, embedded graphs, and the footer itself. A
        // flip must yield Err (clean `io::Error`), never a panic and never
        // a length-driven giant allocation (allocations are bounded by the
        // actual byte count before the parser ever runs).
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                let res = crate::SegmentedAcornIndex::load(&mut buf.as_slice());
                assert!(res.is_err(), "flip at byte {i} bit {bit} loaded successfully");
                buf[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn v6_checksum_is_verified_before_any_length_is_trusted() {
        let (idx, _) = segmented_fixture();
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        // The same corrupt row count that the structural guard catches once
        // re-sealed is rejected by the stale checksum, i.e. before parsing.
        buf[SEG_N_OFF..SEG_N_OFF + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "unexpected: {err}");
    }

    #[test]
    fn retired_segmented_versions_are_unsupported() {
        let (idx, _) = segmented_fixture();
        for version in [4u32, 5] {
            let mut buf = saved(&idx);
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            reseal(&mut buf);
            let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("unsupported ACORN index version"), "{err}");
            let store = random_store(1, 8, 1);
            let err = AcornIndex::load(&mut buf.as_slice(), store).unwrap_err();
            assert!(err.to_string().contains("unsupported ACORN index version"), "{err}");
        }
    }

    #[test]
    fn trailing_bytes_after_the_body_are_rejected_in_every_version() {
        let (idx, _) = segmented_fixture();
        // Appended garbage lands inside the checksummed region's tail, so
        // the footer no longer matches ...
        let mut buf = saved(&idx);
        buf.push(0);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "unexpected: {err}");
        // ... and sealed under a matching footer, the body parser must
        // notice it did not consume the file.
        let mut buf = saved(&idx);
        let footer = buf.len() - 4;
        buf.insert(footer, 0);
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "unexpected: {err}");
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let vecs = random_store(50, 4, 5);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = AcornIndex::build(vecs.clone(), params, AcornVariant::Gamma);
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                AcornIndex::load(&mut buf[..cut].to_vec().as_slice(), vecs.clone()).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
