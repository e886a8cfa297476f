//! Binary serialization for [`SegmentedAcornIndex`]: one little-endian,
//! versioned, length-prefixed codec — no external serialization crates —
//! behind three checksummed containers.
//!
//! ## The v3 blob — one segment's graph
//!
//! Every segment block below ends in the graph (+ parameters) of its
//! [`AcornIndex`], in the layout that used to be a file format of its own
//! (hence the magic and version it still leads with; nothing outside this
//! module reads or writes it):
//!
//! ```text
//! magic "ACRN" | version u32 | variant u8 | m u64 | gamma u64 | m_beta u64
//! | efc u64 | metric u8 | seed u64 | s_min f64 (NaN = none) | n_c u64
//! | flatten u8 | nodes u64 | per node: level u8, per level: len u32, ids [u32]
//! | edges_pruned u64 | compacted u8
//! ```
//!
//! The trailing `compacted` flag records whether the index was
//! [sealed](AcornIndex::seal) when saved. A sealed index's graph has a node
//! per row of its block; an unsealed one — the active segment's, or a
//! pending segment's — is its rows alone and writes no node. The active
//! block's flag must be clear; a frozen block's is set once its graph is
//! built. A blob whose node count disagrees with its flag is refused.
//!
//! ## The segment block
//!
//! Everything below stores a segment as the same block, written by one
//! encoder and read by one decoder:
//!
//! ```text
//! encoding u8 (always 0 = f32)
//! | n u64 | global_ids [u64; n] | tombstone words [u64; ceil(n/64)]
//! | vectors [f32; n · dim] | embedded v3 index blob
//! ```
//!
//! The vectors are embedded beside the graph: the segmented index owns its
//! per-segment stores (rows arrive one at a time through `insert`), so a
//! loaded index resumes serving **and accepting writes** with no external
//! store to re-attach. Row data, id maps, tombstone words and neighbor lists
//! are converted to and from little-endian a slice at a time, and the decoder
//! works on bytes already in memory, so every count it reads is checked
//! against the bytes actually present before anything is allocated for it —
//! a corrupt length fails with `InvalidData` or `UnexpectedEof` instead of
//! a giant allocation.
//!
//! The decoder turns a block straight into the [`SegmentView`] the index
//! serves — there is no intermediate "loaded segment" form — and the
//! manifest fields ahead of the blocks into epoch 0 of the loaded index's
//! [`SegmentSnapshot`], to which the views are attached once the
//! cross-segment checks pass. It is told the block's *role* and holds the
//! embedded `compacted` flag to it. Either block's per-node lists are decoded
//! by one decoder, into [`CsrGraph`] arenas through the validating
//! [`CsrBuilder`] (node count, level, list length and every edge target
//! checked; the same entry point the nested graph would have picked). A
//! sealed block serves those arenas as they are — no nested graph is built
//! only to be frozen.
//!
//! ## Retired quantization fields
//!
//! Two fields of a removed SQ8 segment tier stay, so that files keep every
//! byte: the segment block's leading encoding tag, always `0`, and the
//! manifest's 9-byte quantization field (`flag u8 | rerank depth u64`),
//! written as the unquantized default always wrote it (`0`, then `32`) and
//! skipped on load. A tag or flag of `1` — a quantized segment — is refused
//! with `InvalidData`. The next format version drops both fields together
//! with the nested v3 header.
//!
//! ## Format v6 — the one-file export of a segmented index
//!
//! [`SegmentSnapshot::save`] / [`SegmentedAcornIndex::load`] files share the
//! magic but use version 6 (the only segmented version; 4 and 5 were
//! footerless predecessors that no deployed file ever used and `load`
//! refuses): the shared parameter header, then the segment manifest —
//! `dim`, `next_global`, the [`MergePolicy`], the retired quantization
//! field (`0 u8 | 32 u64`), the frozen-segment count — and one
//! block per segment (frozen segments first, the active segment last).
//!
//! The body is followed by a 4-byte footer: the CRC32 (IEEE) of every
//! preceding byte, magic and version included. [`SegmentedAcornIndex::load`]
//! verifies the footer over the **whole file before parsing a single body
//! field**, so no length read out of a torn or bit-rotted file is ever
//! trusted — corruption anywhere yields a clean `InvalidData` error, never
//! a panic or an attempted giant allocation. The per-field structural
//! guards still run on the body after the checksum passes, as defense in
//! depth: every count in the manifest is cross-checked against the vector
//! data and the embedded graph, and trailing bytes after the body are
//! rejected.
//!
//! ## Segment files and checkpoints — the durable store's containers
//!
//! The [`durability`](crate::durability) layer stores the same state as
//! files whose cost follows what changed. A frozen segment is immutable but
//! for its tombstones, so it is written once, as a **segment file**:
//!
//! ```text
//! magic "ACSG" | version u32 | dim u64 | segment block | CRC32 footer
//! ```
//!
//! and each generation's **checkpoint** holds the manifest fields, one
//! reference per frozen segment and the active segment's block:
//!
//! ```text
//! magic "ACCP" | version u32 | parameter header | dim | next_global
//! | merge policy | retired quantization field | frozen count
//! | per frozen segment: file u64, len u64, crc u32, rows u64,
//!                       tombstone words [u64; ceil(rows/64)]
//! | active segment block | CRC32 footer
//! ```
//!
//! A reference pins the segment file's number, byte length and footer, so a
//! checkpoint can only ever be joined with the files it was written
//! against. The tombstone words in the checkpoint are the current ones and
//! replace whatever the block carried when its file was written. Both
//! containers are verified like v6 — footer over the whole file first, then
//! the same structural guards — and a loaded store goes through the same
//! cross-segment checks as a loaded export. Each container versions on its
//! own: a change to the segment block bumps the two numbers that embed it.
//!
//! [`CsrGraph`]: acorn_hnsw::CsrGraph
//! [`CsrBuilder`]: acorn_hnsw::csr::CsrBuilder

use std::io::{self, BufWriter, Read, Write};
use std::sync::Arc;

use acorn_hnsw::checksum::{crc32, ChecksumWriter};
use acorn_hnsw::csr::CsrBuilder;
use acorn_hnsw::{Metric, VectorStore};
use acorn_predicate::Bitset;

use crate::index::{resolve_params, AcornIndex};
use crate::params::{AcornParams, AcornVariant};
use crate::prune::PruneStrategy;
use crate::segment::{MergePolicy, SegmentedAcornIndex};
use crate::snapshot::{SegmentPayload, SegmentSnapshot, SegmentView};

const MAGIC: &[u8; 4] = b"ACRN";
const VERSION: u32 = 3;
/// The segmented format: the body followed by a CRC32 footer over every
/// preceding byte, verified before any body field is parsed.
const SEGMENTED_V6: u32 = 6;
const SEGMENT_FILE_MAGIC: &[u8; 4] = b"ACSG";
const SEGMENT_FILE_VERSION: u32 = 1;
const CHECKPOINT_MAGIC: &[u8; 4] = b"ACCP";
const CHECKPOINT_VERSION: u32 = 1;
/// The only encoding, f32 rows: every block's tag and the manifest's flag.
const ENC_F32: u8 = 0;
/// The retired SQ8 encoding, as a block tag or the manifest's flag.
const ENC_SQ8: u8 = 1;
/// The retired manifest field's rerank depth, as the default policy wrote it.
const RETIRED_RERANK_K: u64 = 32;
/// Upper bound on a plausible vector dimensionality; a corrupt `dim` above
/// this fails cleanly instead of sizing row buffers from garbage.
const MAX_DIM: usize = 1 << 20;

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write `xs` little-endian, converting a buffer's worth at a time so the
/// writer (and the checksummer behind it) is handed slices, not elements.
fn put_le<T: Copy, const N: usize>(
    w: &mut impl Write,
    xs: &[T],
    le: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = [0u8; 4096];
    for chunk in xs.chunks(buf.len() / N) {
        let bytes = &mut buf[..chunk.len() * N];
        for (dst, &x) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&le(x));
        }
        w.write_all(bytes)?;
    }
    Ok(())
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

fn get_f64(r: &mut impl Read) -> io::Result<f64> {
    get_u64(r).map(f64::from_bits)
}

/// The next `count` elements of `size` bytes each, or `UnexpectedEof`: the
/// one place an untrusted count meets the bytes actually present, ahead of
/// any allocation sized by it.
fn take<'a>(r: &mut &'a [u8], count: usize, size: usize) -> io::Result<&'a [u8]> {
    let len = count.checked_mul(size).filter(|&len| len <= r.len()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "a count runs past the end of the file")
    })?;
    let (head, tail) = r.split_at(len);
    *r = tail;
    Ok(head)
}

/// Inverse of [`put_le`] over bytes in memory: `count` elements in one pass.
fn get_le<T, const N: usize>(
    r: &mut &[u8],
    count: usize,
    le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let bytes = take(r, count, N)?;
    Ok(bytes.chunks_exact(N).map(|c| le(c.try_into().expect("N-byte chunk"))).collect())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Run `body` against `w` behind a buffer and the checksummer, then append
/// the CRC32 of everything it wrote as the (unhashed) 4-byte footer.
/// Returns that sum. The buffer turns the body's field-sized writes into
/// runs the checksummer and `w` take in one call each; slices larger than
/// the buffer pass straight through.
fn with_footer<W: Write>(
    w: W,
    body: impl FnOnce(&mut BufWriter<ChecksumWriter<W>>) -> io::Result<()>,
) -> io::Result<u32> {
    let mut buffered = BufWriter::with_capacity(64 << 10, ChecksumWriter::new(w));
    body(&mut buffered)?;
    let mut summed = buffered.into_inner().map_err(io::IntoInnerError::into_error)?;
    let sum = summed.sum();
    put_u32(summed.inner_mut(), sum)?;
    Ok(sum)
}

/// Split a footered file into its body and the sum the footer records,
/// after checking that sum over the whole body.
fn footer_checked<'a>(file: &'a [u8], what: &str) -> io::Result<(&'a [u8], u32)> {
    let Some(body_len) = file.len().checked_sub(4) else {
        return Err(bad(&format!("{what} too short for its checksum footer")));
    };
    let (body, footer) = file.split_at(body_len);
    let sum = u32::from_le_bytes(footer.try_into().expect("4 footer bytes"));
    if crc32(body) != sum {
        return Err(bad(&format!("{what} checksum mismatch (torn or corrupt file)")));
    }
    Ok((body, sum))
}

/// Open one of the durable store's containers: `magic` and `version` up
/// front, the footer checked over the whole file, and what lies between
/// them handed back with the footer's sum.
fn container_body<'a>(
    file: &'a [u8],
    magic: &[u8; 4],
    version: u32,
    what: &str,
) -> io::Result<(&'a [u8], u32)> {
    if file.len() < 8 || &file[..4] != magic {
        return Err(bad(&format!("not an ACORN {what}")));
    }
    if file[4..8] != version.to_le_bytes() {
        return Err(bad(&format!("unsupported ACORN {what} version")));
    }
    let (body, sum) = footer_checked(file, what)?;
    Ok((&body[8..], sum))
}

/// The parameter header shared by v3 (per index) and the segmented
/// containers (top level and per embedded segment): variant tag, then every
/// [`AcornParams`] field but `prune`, which the format has no field for.
///
/// # Errors
/// `InvalidInput` for any prune strategy but [`PruneStrategy::AcornCompress`]:
/// it would load as `AcornCompress`, and every later insert would build a
/// different graph than the never-saved index.
fn put_header(w: &mut impl Write, variant: AcornVariant, p: &AcornParams) -> io::Result<()> {
    if p.prune != PruneStrategy::AcornCompress {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("only AcornCompress pruning can be saved, not {:?}", p.prune),
        ));
    }
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

/// Inverse of [`put_header`]: loaded params carry `AcornCompress`, the one
/// strategy `put_header` writes.
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
    let s_min = get_f64(r)?;
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
    /// Write the v3 blob (graph + parameters, not the vectors) to `w`.
    ///
    /// # Errors
    /// `InvalidInput` unless the index prunes with
    /// [`PruneStrategy::AcornCompress`] (see [`put_header`]); the ablation
    /// strategies are research knobs of in-memory graphs.
    fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;
        put_header(w, self.variant(), self.params())?;

        let g = self.graph_view();
        let nodes = g.map_or(0, |g| g.len());
        put_u64(w, nodes as u64)?;
        for v in 0..nodes as u32 {
            let g = g.expect("an index with nodes has a graph");
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
                put_le(w, list, u32::to_le_bytes)?;
            }
        }
        put_u64(w, self.edges_pruned())?;
        w.write_all(&[self.csr().is_some() as u8])?;
        Ok(())
    }

    /// A v3 blob over `vecs` (the rows of its block): a sealed index, its
    /// per-node lists decoded into CSR arenas through the validating
    /// [`CsrBuilder`] — the one neighbor-list decoder — or, when the blob's
    /// `compacted` flag is clear, the rows alone.
    ///
    /// # Errors
    /// Returns `InvalidData` on magic/version mismatch, if the graph has
    /// neither as many nodes as `vecs` has rows nor none, if its node count
    /// disagrees with the flag (`role` names the block in the message), and
    /// on any list the builder refuses; `UnexpectedEof` for a list length
    /// the bytes present cannot hold.
    fn load(r: &mut &[u8], vecs: Arc<VectorStore>, role: Role) -> io::Result<AcornIndex> {
        if take(r, 4, 1)? != MAGIC {
            return Err(bad("not an ACORN index file"));
        }
        if get_u32(r)? != VERSION {
            return Err(bad("unsupported ACORN index version"));
        }
        let (variant, params) = get_header(r)?;
        let nodes = get_u64(r)? as usize;
        if nodes != vecs.len() && nodes != 0 {
            return Err(bad("vector store size does not match serialized index"));
        }
        let mut csr = CsrBuilder::new(nodes);
        for _ in 0..nodes {
            let level = get_u8(r)? as usize;
            csr.push_node(level).map_err(bad)?;
            for _ in 0..=level {
                let len = get_u32(r)? as usize;
                let ids = take(r, len, 4)?.chunks_exact(4);
                csr.push_list(ids.map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
                    .map_err(bad)?;
            }
        }
        let graph = csr.finish().map_err(bad)?;
        let edges_pruned = get_u64(r)?;
        match (get_u8(r)? != 0, role) {
            (true, Role::Active) => Err(bad("the active segment must not be sealed")),
            (true, Role::Frozen) if nodes != vecs.len() => {
                Err(bad("a sealed segment must hold a graph of every row"))
            }
            (true, Role::Frozen) => {
                Ok(AcornIndex::from_sealed_parts(params, variant, vecs, graph, edges_pruned))
            }
            (false, _) if nodes != 0 => Err(bad("an unsealed segment must hold its rows alone")),
            (false, _) => Ok(AcornIndex::rows(vecs, params, variant)),
        }
    }
}

/// The fields ahead of the segment blocks, shared by the v6 export and the
/// store's checkpoints: the top-level configuration every block is held to.
struct Manifest {
    /// Epoch 0 of the index being loaded, its segments not yet attached.
    state: SegmentSnapshot,
    /// What `save` wrote into every embedded blob: `params` after the
    /// variant override [`AcornIndex::new`] applies.
    expected_params: AcornParams,
}

/// Whether the manifest can hold `fraction` as a merge policy's
/// `max_tombstone_fraction`: [`put_manifest`] refuses and [`get_manifest`]
/// rejects exactly the values this says no to.
fn tombstone_fraction_fits(fraction: f64) -> bool {
    fraction.is_finite() && fraction >= 0.0
}

/// Write the manifest fields of `snap`: parameters, sizes, merge policy.
///
/// # Errors
/// `InvalidInput` for what [`put_header`] refuses, and for a merge policy
/// whose `max_tombstone_fraction` is NaN, negative or infinite: the loader
/// rejects it, so the bytes could never be read back.
fn put_manifest(w: &mut impl Write, snap: &SegmentSnapshot) -> io::Result<()> {
    let policy = snap.policy();
    if !tombstone_fraction_fits(policy.max_tombstone_fraction) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "merge policy tombstone fraction {} cannot be saved",
                policy.max_tombstone_fraction
            ),
        ));
    }
    put_header(w, snap.variant(), snap.params())?;
    put_u64(w, snap.dim() as u64)?;
    put_u64(w, snap.next_global_id())?;
    put_u64(w, policy.min_rows as u64)?;
    w.write_all(&policy.max_tombstone_fraction.to_le_bytes())?;
    put_u64(w, policy.active_max_rows as u64)?;
    w.write_all(&[ENC_F32])?;
    put_u64(w, RETIRED_RERANK_K)?;
    put_u64(w, snap.frozen_segments().len() as u64)
}

/// Inverse of [`put_manifest`]: the manifest and the frozen-segment count.
fn get_manifest(r: &mut impl Read) -> io::Result<(Manifest, usize)> {
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
    let max_tombstone_fraction = get_f64(r)?;
    if !tombstone_fraction_fits(max_tombstone_fraction) {
        return Err(bad("invalid merge policy tombstone fraction"));
    }
    let active_max_rows = get_u64(r)? as usize;
    let policy = MergePolicy { min_rows, max_tombstone_fraction, active_max_rows };
    match get_u8(r)? {
        ENC_F32 => {}
        ENC_SQ8 => return Err(quantized()),
        _ => return Err(bad("invalid quantization policy flag")),
    }
    get_u64(r)?;

    // Every segment was built from the top-level configuration (with the
    // ACORN-1 override applied by `AcornIndex::new`); reconstruct that
    // expectation once and hold each embedded header to it.
    let expected_params = resolve_params(params.clone(), variant);
    let nseg = get_u64(r)? as usize;
    let state =
        SegmentSnapshot { next_global, policy, ..SegmentSnapshot::empty(params, variant, dim) };
    Ok((Manifest { state, expected_params }, nseg))
}

/// The error for a file holding a retired SQ8 segment.
fn quantized() -> io::Error {
    bad("quantized segments are not supported")
}

/// One segment block: the encoding tag, then the row count, global ids,
/// tombstones, vector data, and the embedded v3 index blob
/// (self-delimiting).
fn put_segment(w: &mut impl Write, seg: &SegmentView) -> io::Result<()> {
    let index = seg.index();
    w.write_all(&[ENC_F32])?;
    put_u64(w, seg.global_ids().len() as u64)?;
    put_le(w, seg.global_ids(), u64::to_le_bytes)?;
    put_le(w, seg.tombstones().words(), u64::to_le_bytes)?;
    put_le(w, index.vectors().as_flat(), f32::to_le_bytes)?;
    index.save(w)
}

/// The active segment's block. With no published active view (empty or
/// just sealed) that is the block an empty active segment would produce —
/// zero rows, then the blob of no rows carrying the expected header — so the
/// layout is invariant to whether the writer happened to have an unsealed
/// row in flight.
fn put_active(w: &mut impl Write, snap: &SegmentSnapshot) -> io::Result<()> {
    if let Some(seg) = snap.active_segment() {
        return put_segment(w, seg);
    }
    w.write_all(&[ENC_F32])?;
    put_u64(w, 0)?;
    let (params, variant) = (resolve_params(snap.params().clone(), snap.variant()), snap.variant());
    AcornIndex::rows(Arc::new(VectorStore::new(snap.dim())), params, variant).save(w)
}

/// `n` rows' tombstone words, with no bit set beyond the last row.
fn get_tombstones(r: &mut &[u8], n: usize) -> io::Result<Bitset> {
    let words = get_le(r, n.div_ceil(64), u64::from_le_bytes)?;
    let rem = n % 64;
    if rem != 0 && words.last().is_some_and(|&w| w >> rem != 0) {
        return Err(bad("tombstone bits set beyond the segment's row count"));
    }
    Ok(Bitset::from_words(n, words))
}

/// Which segment of the index a block holds, and so which state its
/// embedded index must be in.
#[derive(Clone, Copy)]
enum Role {
    /// Non-empty: sealed, or pending its graph.
    Frozen,
    /// The one segment taking inserts: its rows alone.
    Active,
}

/// Inverse of [`put_segment`] — the block decodes into the [`SegmentView`]
/// the index will serve — with every count cross-checked against the bytes
/// present and against `m`: a disagreeing embedded header means
/// corruption: segments searched under a different metric or seed would
/// merge incommensurable distances.
fn get_segment(r: &mut &[u8], m: &Manifest, role: Role) -> io::Result<SegmentView> {
    let (dim, next_global) = (m.state.dim, m.state.next_global);
    match get_u8(r)? {
        ENC_F32 => {}
        ENC_SQ8 => return Err(quantized()),
        _ => return Err(bad("unknown segment encoding tag")),
    }

    let n = get_u64(r)? as usize;
    let global_ids = get_le(r, n, u64::from_le_bytes)?;
    if global_ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("segment manifest global ids must be strictly ascending"));
    }
    if global_ids.last().is_some_and(|&g| g >= next_global) {
        return Err(bad("segment manifest global id at or beyond next_global"));
    }
    let tombstones = get_tombstones(r, n)?;
    // One conversion into a store of exactly the rows' size.
    let rows = take(r, n, dim * 4)?;
    let store = Arc::new(VectorStore::from_le_bytes(dim, rows));

    if matches!(role, Role::Frozen) && n == 0 {
        return Err(bad("frozen segments must not be empty"));
    }
    // The embedded blob carries its own node count; the decoder rejects it
    // unless it matches the store just rebuilt (or is 0 for rows alone) —
    // the row-count guard.
    let index = AcornIndex::load(r, store, role)?;
    if index.variant() != m.state.variant || index.params() != &m.expected_params {
        return Err(bad("embedded segment header disagrees with the segmented index header"));
    }
    Ok(SegmentView::new(SegmentPayload { index, global_ids }, tombstones))
}

/// The checks no single block can make, then the index: shared by the v6
/// export and the store's checkpoint + segment files.
fn assemble(
    m: Manifest,
    frozen: Vec<SegmentView>,
    active: SegmentView,
) -> io::Result<SegmentedAcornIndex> {
    if frozen.windows(2).any(|w| w[0].first_gid() >= w[1].first_gid()) {
        return Err(bad("frozen segments must be ascending by first global id"));
    }

    // Global ids must be owned by exactly one segment: a duplicated id
    // would surface twice from one top-k merge and make deletes only
    // half-stick. Segment-local ascending order is already enforced, so
    // one sort over the union exposes any cross-segment duplicate.
    let mut all_ids: Vec<u64> = frozen
        .iter()
        .chain(std::iter::once(&active))
        .flat_map(|s| s.global_ids().iter().copied())
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
        .chain(std::iter::once(&active).filter(|a| !a.is_empty()))
        .map(|s| (s.first_gid(), *s.global_ids().last().expect("non-empty")))
        .collect();
    if ranges.windows(2).any(|w| w[0].1 >= w[1].0) {
        return Err(bad("segment global id ranges overlap"));
    }

    Ok(SegmentedAcornIndex::from_loaded_parts(SegmentSnapshot { frozen, ..m.state }, active))
}

impl SegmentSnapshot {
    /// Serialize this snapshot — manifest, tombstones, vectors, and
    /// per-segment graphs — to `w` (format v6: the body plus a CRC32 footer
    /// over every byte written). A snapshot is immutable, so the bytes are
    /// consistent *as of this epoch* no matter how many inserts, deletes,
    /// or background merges land while the write is in flight; saving the
    /// same snapshot twice yields identical bytes.
    ///
    /// # Errors
    /// `InvalidInput` if the index prunes with anything but
    /// [`PruneStrategy::AcornCompress`] (the format has no field for the
    /// strategy, and the loaded index would grow differently), or if its
    /// merge policy's `max_tombstone_fraction` is NaN, negative or infinite
    /// (the loader would refuse the bytes).
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        with_footer(w, |w| {
            w.write_all(MAGIC)?;
            put_u32(w, SEGMENTED_V6)?;
            put_manifest(w, self)?;
            for seg in self.frozen_segments() {
                put_segment(w, seg)?;
            }
            put_active(w, self)
        })
        .map(drop)
    }
}

impl SegmentedAcornIndex {
    /// Load an index previously written by [`SegmentSnapshot::save`]: the
    /// CRC32 footer is verified over the whole file **before** any body
    /// field is parsed. A loaded index resumes serving and accepting writes
    /// immediately.
    ///
    /// # Errors
    /// Returns `InvalidData` on magic/version mismatch, a checksum-footer
    /// mismatch (torn or corrupt v6 file), trailing bytes after the body,
    /// inconsistent parameters, a tombstone/segment manifest whose row
    /// counts disagree with the embedded vector store or graph,
    /// non-ascending / out-of-range / cross-segment-duplicated global ids,
    /// overlapping segment gid ranges, tombstone bits beyond a segment's
    /// rows, embedded segment headers that disagree with the top-level
    /// configuration, a block whose graph disagrees with its `compacted`
    /// flag, an active block that is sealed, and a quantized segment (see
    /// the module docs).
    pub fn load(r: &mut impl Read) -> io::Result<SegmentedAcornIndex> {
        // Checksum-first: slurp the stream (allocation bounded by bytes
        // actually present, never by a parsed length), verify the footer
        // over everything, and only then hand the body to the structural
        // parser.
        let mut file = Vec::new();
        r.read_to_end(&mut file)?;
        if file.len() < 8 || &file[..4] != MAGIC {
            return Err(bad("not an ACORN index file"));
        }
        if file[4..8] != SEGMENTED_V6.to_le_bytes() {
            return Err(bad("unsupported ACORN index version"));
        }
        let (body, _) = footer_checked(&file, "segmented index")?;
        let mut r = &body[8..];
        let (m, nseg) = get_manifest(&mut r)?;
        let mut frozen = Vec::new();
        for _ in 0..nseg {
            frozen.push(get_segment(&mut r, &m, Role::Frozen)?);
        }
        let active = get_segment(&mut r, &m, Role::Active)?;
        if !r.is_empty() {
            return Err(bad("trailing bytes after segmented index body"));
        }
        assemble(m, frozen, active)
    }
}

/// A checkpoint's reference to one segment file: which file, and the
/// length and CRC32 footer it must have — the file as it was written, or
/// not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentFileRef {
    /// The `<n>` of `seg-<n>.acorn`.
    pub(crate) file: u64,
    /// The file's length in bytes, footer included.
    pub(crate) len: u64,
    /// The file's footer: the CRC32 of every byte before it.
    pub(crate) crc: u32,
    /// Rows in the segment (sizes the tombstone words beside the
    /// reference).
    pub(crate) rows: u64,
}

/// Write `seg` as segment file number `file` to `w`, returning the
/// reference a checkpoint names it by.
pub(crate) fn save_segment_file(
    w: &mut Vec<u8>,
    file: u64,
    seg: &SegmentView,
) -> io::Result<SegmentFileRef> {
    let crc = with_footer(&mut *w, |w| {
        w.write_all(SEGMENT_FILE_MAGIC)?;
        put_u32(w, SEGMENT_FILE_VERSION)?;
        put_u64(w, seg.index().vectors().dim() as u64)?;
        put_segment(w, seg)
    })?;
    Ok(SegmentFileRef { file, len: w.len() as u64, crc, rows: seg.rows() as u64 })
}

/// Write the checkpoint of `snap` to `w`: everything [`SegmentSnapshot::save`]
/// writes, with each frozen segment's block replaced by `refs[i]` and its
/// current tombstone words.
pub(crate) fn save_checkpoint(
    w: &mut impl Write,
    snap: &SegmentSnapshot,
    refs: &[SegmentFileRef],
) -> io::Result<()> {
    debug_assert_eq!(refs.len(), snap.frozen_segments().len());
    with_footer(w, |w| {
        w.write_all(CHECKPOINT_MAGIC)?;
        put_u32(w, CHECKPOINT_VERSION)?;
        put_manifest(w, snap)?;
        for (seg, r) in snap.frozen_segments().iter().zip(refs) {
            put_u64(w, r.file)?;
            put_u64(w, r.len)?;
            put_u32(w, r.crc)?;
            put_u64(w, r.rows)?;
            put_le(w, seg.tombstones().words(), u64::to_le_bytes)?;
        }
        put_active(w, snap)
    })
    .map(drop)
}

/// A decoded checkpoint: everything but the frozen segments' blocks, which
/// [`into_index`](Self::into_index) fetches through their references.
pub(crate) struct Checkpoint {
    manifest: Manifest,
    /// One per frozen segment, in segment order.
    refs: Vec<SegmentFileRef>,
    /// The frozen segments' tombstones as of the checkpoint.
    tombstones: Vec<Bitset>,
    active: SegmentView,
}

impl Checkpoint {
    /// Decode a checkpoint file, footer first.
    pub(crate) fn load(file: &[u8]) -> io::Result<Self> {
        let (mut r, _) =
            container_body(file, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint file")?;
        let (manifest, nseg) = get_manifest(&mut r)?;
        let mut refs = Vec::new();
        let mut tombstones = Vec::new();
        for _ in 0..nseg {
            let (file, len) = (get_u64(&mut r)?, get_u64(&mut r)?);
            let (crc, rows) = (get_u32(&mut r)?, get_u64(&mut r)?);
            refs.push(SegmentFileRef { file, len, crc, rows });
            tombstones.push(get_tombstones(&mut r, rows as usize)?);
        }
        let active = get_segment(&mut r, &manifest, Role::Active)?;
        if !r.is_empty() {
            return Err(bad("trailing bytes after checkpoint body"));
        }
        Ok(Self { manifest, refs, tombstones, active })
    }

    /// Join the checkpoint with its segment files — `read` fetches the one
    /// a reference names — into the index it was taken of, returned with
    /// the references in segment order. Each file must be the one the
    /// reference was written against (length and footer), pass its own
    /// checksum over the whole file, and decode under the same guards as a
    /// v6 block.
    pub(crate) fn into_index(
        self,
        mut read: impl FnMut(&SegmentFileRef) -> io::Result<Vec<u8>>,
    ) -> io::Result<(SegmentedAcornIndex, Vec<SegmentFileRef>)> {
        let m = self.manifest;
        let mut frozen = Vec::with_capacity(self.refs.len());
        for (seg_ref, tombstones) in self.refs.iter().zip(self.tombstones) {
            let file = read(seg_ref)?;
            let (mut r, sum) =
                container_body(&file, SEGMENT_FILE_MAGIC, SEGMENT_FILE_VERSION, "segment file")?;
            if file.len() as u64 != seg_ref.len || sum != seg_ref.crc {
                return Err(bad("segment file is not the one the checkpoint references"));
            }
            if get_u64(&mut r)? as usize != m.state.dim {
                return Err(bad("segment file dimension disagrees with the checkpoint"));
            }
            let mut seg = get_segment(&mut r, &m, Role::Frozen)?;
            if !r.is_empty() {
                return Err(bad("trailing bytes after segment file body"));
            }
            if seg.rows() as u64 != seg_ref.rows {
                return Err(bad("segment file row count disagrees with the checkpoint"));
            }
            seg.deleted = tombstones.count();
            seg.tombstones = Arc::new(tombstones);
            frozen.push(seg);
        }
        Ok((assemble(m, frozen, self.active)?, self.refs))
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

    /// The v3 blob of `idx`.
    fn blob(idx: &AcornIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        idx.save(&mut buf).unwrap();
        buf
    }

    /// Decode a v3 blob the way a frozen segment's block is: sealed, or
    /// rows alone, as its `compacted` flag says.
    fn load_blob(buf: &[u8], vecs: Arc<VectorStore>) -> io::Result<AcornIndex> {
        AcornIndex::load(&mut &*buf, vecs, Role::Frozen)
    }

    /// A sealed index over `vecs`.
    fn sealed(vecs: &Arc<VectorStore>, params: AcornParams, variant: AcornVariant) -> AcornIndex {
        AcornIndex::build(vecs.clone(), params, variant).seal()
    }

    fn search(idx: &AcornIndex, q: &[f32]) -> Vec<(u32, f32)> {
        let mut scratch = acorn_hnsw::SearchScratch::new(idx.len());
        let mut stats = acorn_hnsw::SearchStats::default();
        idx.search_filtered(q, &acorn_predicate::AllPass, 10, 64, &mut scratch, &mut stats)
            .iter()
            .map(|n| (n.id, n.dist))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let vecs = random_store(600, 8, 1);
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::Gamma);

        let loaded = load_blob(&blob(&idx), vecs.clone()).unwrap();

        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.variant(), idx.variant());
        assert_eq!(loaded.edges_pruned(), idx.edges_pruned());
        let q = vec![0.1; 8];
        assert_eq!(search(&idx, &q), search(&loaded, &q), "loaded index must answer identically");
    }

    #[test]
    fn roundtrip_acorn1_and_s_min() {
        let vecs = random_store(200, 4, 2);
        let params =
            AcornParams { m: 8, gamma: 6, m_beta: 8, ef_construction: 16, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::One);
        let loaded = load_blob(&blob(&idx), vecs).unwrap();
        assert_eq!(loaded.variant(), AcornVariant::One);
        assert_eq!(loaded.params().s_min(), idx.params().s_min());
    }

    #[test]
    fn compacted_flag_roundtrips_and_loads_serving_from_csr() {
        let vecs = random_store(400, 8, 6);
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let plain = AcornIndex::build(vecs.clone(), params.clone(), AcornVariant::Gamma);
        let idx = plain.clone().seal();

        let buf = blob(&idx);
        let loaded = load_blob(&buf, vecs.clone()).unwrap();
        assert!(loaded.csr().is_some(), "a sealed index must load sealed");
        let q = vec![0.3; 8];
        assert_eq!(search(&idx, &q), search(&loaded, &q));

        // Rows alone round-trip as rows alone: no node, a clear flag.
        let rows = AcornIndex::rows(vecs.clone(), idx.params().clone(), AcornVariant::Gamma);
        let rows_buf = blob(&rows);
        let loaded = load_blob(&rows_buf, vecs.clone()).unwrap();
        assert!(loaded.is_empty() && loaded.csr().is_none() && loaded.graph().is_none());
        assert_eq!(loaded.vectors().len(), 400);
        assert_eq!(rows_buf[rows_buf.len() - 1], 0);

        // A growing graph's blob — its nodes under a clear flag — and a
        // sealed one with its flag cleared are refused.
        let plain_buf = blob(&plain);
        let flag = buf.len() - 1;
        assert_eq!((plain_buf[flag], buf[flag]), (0, 1));
        assert_eq!(plain_buf[..flag], buf[..flag], "the same lists from either graph");
        let err = load_blob(&plain_buf, vecs).unwrap_err();
        assert!(err.to_string().contains("must hold its rows alone"), "unexpected: {err}");
    }

    #[test]
    fn rejects_bad_magic_and_size_mismatch() {
        let vecs = random_store(50, 4, 3);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::Gamma);
        let buf = blob(&idx);

        let mut corrupted = buf.clone();
        corrupted[0] = b'X';
        assert!(load_blob(&corrupted, vecs.clone()).is_err());

        let wrong_store = random_store(49, 4, 4);
        assert!(load_blob(&buf, wrong_store).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds supported maximum")]
    fn levels_beyond_u8_cannot_enter_a_graph() {
        // The save-side `u8::try_from(level)` guard is defense-in-depth:
        // this assertion in `LayeredGraph::add_node` is what makes a > 255
        // level unrepresentable before serialization is ever reached, so
        // `level as u8` can no longer truncate silently anywhere.
        let mut graph = acorn_hnsw::LayeredGraph::with_capacity(1);
        graph.add_node(300);
    }

    #[test]
    fn load_rejects_oversized_neighbor_list() {
        let vecs = random_store(50, 4, 10);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::Gamma);
        let mut buf = blob(&idx);
        // Layout: 4 magic + 4 version + 1 variant + 4×8 params + 1 metric
        // + 8 seed + 8 s_min + 8 n_c + 1 flatten = 67 bytes of header, then
        // 8 bytes of n, 1 byte of node-0 level, then node 0's first list
        // length at offset 76. Corrupt it to an absurd value: load must
        // error out — on the bytes present — instead of attempting a 16 GiB
        // allocation.
        buf[76..80].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_blob(&buf, vecs.clone()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "unexpected: {err}");
        // A length the bytes could hold is still refused by the graph's size.
        buf[76..80].copy_from_slice(&51u32.to_le_bytes());
        let err = load_blob(&buf, vecs).unwrap_err();
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
    /// `saved(segmented_fixture)`; see
    /// `saved_bytes_are_those_of_the_two_layout_index`.
    const FIXTURE_SUM: (usize, u32) = (16_338, 247_927_260);

    /// Bytes before the first frozen segment block: magic 4 + version 4 +
    /// header 59 + dim 8 + next_global 8 + policy 24 + quant 9 + nseg 8.
    const SEG_HEADER_BYTES: usize = 124;
    /// Offset of the fixture's first frozen segment's row count `n`: the
    /// block leads with its 1-byte encoding tag.
    const SEG_N_OFF: usize = SEG_HEADER_BYTES + 1;

    fn saved(idx: &crate::SegmentedAcornIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        idx.snapshot().save(&mut buf).unwrap();
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
        let buf = saved(&idx);
        let mut loaded = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap();

        let (was, now) = (idx.snapshot(), loaded.snapshot());
        assert_eq!(now.len(), was.len());
        assert_eq!(now.total_rows(), was.total_rows());
        assert_eq!(now.deleted_rows(), 10);
        assert_eq!(now.next_global_id(), was.next_global_id());
        assert_eq!(now.policy(), was.policy());
        assert!(
            now.frozen_segments()[0].index().csr().is_some(),
            "loaded frozen segments must be sealed"
        );

        let q = vec![0.2; 8];
        let search = |idx: &crate::SegmentedAcornIndex, q: &[f32], k| -> Vec<(u64, f32)> {
            idx.reader().search(q, k, 64).unwrap().iter().map(|n| (n.id, n.dist)).collect()
        };
        assert_eq!(
            search(&idx, &q, 10),
            search(&loaded, &q, 10),
            "loaded index must answer identically"
        );

        // The loaded index resumes accepting writes: insert into the active
        // segment, delete a frozen row, and observe both take effect.
        let gid = loaded.insert(&vecs[0]);
        assert_eq!(gid, 160);
        assert!(loaded.delete(42));
        let now = loaded.snapshot();
        assert!(now.contains(gid) && !now.contains(42));
        // vecs[0]'s original row (gid 0) is tombstoned, so the nearest
        // neighbor of vecs[0] must be its freshly inserted duplicate.
        let nearest = search(&loaded, &vecs[0], 1);
        assert_eq!(nearest[0].0, gid);
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
    fn segmented_load_rejects_corrupt_lists_in_a_frozen_block() {
        // A sealed block's lists go straight into CSR arenas through the one
        // decoder. The blob starts after its block's manifest (see the test
        // above); its header is 8 + 59 bytes, then the node count (8), node
        // 0's level (1), node 0's first list length (4) and that list's
        // first target.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        let (len_off, n) = (SEG_N_OFF + 8 + 800 + 16 + 3200 + 67 + 8 + 1, 100);
        let corrupt = |off: usize, value: u32| {
            let mut bad = buf.clone();
            bad[off..off + 4].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bad);
            crate::SegmentedAcornIndex::load(&mut bad.as_slice()).unwrap_err()
        };
        // A length the file cannot hold never sizes anything.
        let err = corrupt(len_off, u32::MAX);
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "unexpected: {err}");
        // One the file can hold, but the graph (`n` nodes) cannot.
        let err = corrupt(len_off, n + 1);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("neighbor list longer"), "unexpected: {err}");
        let err = corrupt(len_off + 4, n);
        assert!(err.to_string().contains("edge target out of range"), "unexpected: {err}");
    }

    #[test]
    fn segmented_and_plain_files_reject_each_other_with_guidance() {
        // A bare v3 blob was a public file format once; the one public
        // loader must still turn it (and the blob decoder a whole v6 file)
        // away by version, before parsing anything else.
        let (seg_idx, _) = segmented_fixture();
        let err = load_blob(&saved(&seg_idx), random_store(1, 8, 1)).unwrap_err();
        assert!(err.to_string().contains("unsupported ACORN index version"), "unexpected: {err}");

        let plain = AcornIndex::build(
            random_store(1, 8, 1),
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() },
            AcornVariant::Gamma,
        );
        let err = crate::SegmentedAcornIndex::load(&mut blob(&plain).as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported ACORN index version"), "unexpected: {err}");
    }

    #[test]
    fn segmented_truncation_is_an_error_not_a_panic() {
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        for cut in [3usize, 60, SEG_HEADER_BYTES, buf.len() / 2, buf.len() - 1] {
            assert!(
                crate::SegmentedAcornIndex::load(&mut buf[..cut].to_vec().as_slice()).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn saved_bytes_are_those_of_the_two_layout_index() {
        // Length and CRC32 of the fixture's file. Re-pinned when the active
        // segment came to hold its rows alone: its block lost its growing
        // graph's nodes (the frozen block's bytes are unchanged, since its
        // graph is built over the same rows in the same order).
        let file = saved(&segmented_fixture().0);
        let body = &file[..file.len() - 4];
        assert_eq!((file.len(), acorn_hnsw::checksum::crc32(body)), FIXTURE_SUM);
    }

    #[test]
    fn segmented_load_holds_each_block_to_the_state_of_its_role() {
        // Every embedded v3 blob ends in its `compacted` byte: the frozen
        // block's is the last byte before the active block, the active
        // block's the last before the footer.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        let active_flag = buf.len() - 5;
        // Active block: tag 1 + n 8 + 60 gids + 1 tombstone word + 60 × 8
        // floats, then its blob: the header (67), no node, edges pruned (8)
        // and the flag.
        let blob = blob(idx.snapshot().active_segment().unwrap().index());
        assert_eq!(blob.len(), 67 + 8 + 8 + 1, "the active segment's rows alone");
        let active_block = 1 + 8 + 60 * 8 + 8 + 60 * 8 * 4 + blob.len();
        let frozen_flag = active_flag - active_block;
        assert_eq!((buf[frozen_flag], buf[active_flag]), (1, 0));

        for (flag, message) in [
            (frozen_flag, "an unsealed segment must hold its rows alone"),
            (active_flag, "the active segment must not be sealed"),
        ] {
            let mut flipped = buf.clone();
            flipped[flag] ^= 1;
            reseal(&mut flipped);
            let err = crate::SegmentedAcornIndex::load(&mut flipped.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "unexpected: {err}");
        }
    }

    #[test]
    fn load_rejects_corrupt_codebook_and_unknown_encoding_tag() {
        // No segment carries a codebook any more: a block tagged SQ8, or a
        // manifest whose retired quantization flag is set, is refused, and
        // so is a tag no version ever wrote.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        // The retired manifest field sits after magic 4 + version 4 + header
        // 59 + dim 8 + next_global 8 + policy 24 = offset 107: flag, then
        // the rerank depth the default policy wrote.
        let flag = 107;
        assert_eq!(buf[flag], 0);
        assert_eq!(buf[flag + 1..flag + 9], 32u64.to_le_bytes());
        assert_eq!(buf[SEG_HEADER_BYTES], 0, "the frozen block's f32 tag");
        for (off, value, message) in [
            (SEG_HEADER_BYTES, 1, "quantized segments are not supported"),
            (SEG_HEADER_BYTES, 7, "unknown segment encoding tag"),
            (flag, 1, "quantized segments are not supported"),
        ] {
            let mut bad = buf.clone();
            bad[off] = value;
            reseal(&mut bad);
            let err = crate::SegmentedAcornIndex::load(&mut bad.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "unexpected: {err}");
        }
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
        let mut buf = saved(&idx);
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
        let mut buf = saved(&idx);
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
            let err = load_blob(&buf, random_store(1, 8, 1)).unwrap_err();
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
        let idx = sealed(&vecs, params, AcornVariant::Gamma);
        let buf = blob(&idx);
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                load_blob(&buf[..cut], vecs.clone()).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
