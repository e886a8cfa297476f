//! Binary serialization for [`SegmentedAcornIndex`]: one little-endian,
//! length-prefixed codec — no external serialization crates — and one
//! checksummed container that every file is an instance of.
//!
//! ## The container
//!
//! ```text
//! magic | version u32 | manifest | per frozen segment: entry
//! | active block | active tombstone words | CRC32 footer
//! ```
//!
//! The magic says which kind of file it is; all three kinds share one
//! `FORMAT_VERSION`, and a loader refuses another kind's magic and any
//! other version (there is no reader for an older one):
//!
//! | magic | file | frozen entry |
//! |---|---|---|
//! | `ACRN` | the export: [`SegmentSnapshot::save`] / [`SegmentedAcornIndex::load`] | block, tombstone words |
//! | `ACCP` | a durable store's checkpoint, one per generation | file reference, tombstone words |
//! | `ACSG` | a durable store's segment file, one per frozen segment | — |
//!
//! A segment file is `ACSG | version | block | CRC32 footer`: no manifest
//! (it is decoded under the checkpoint's) and no tombstones (a frozen
//! segment is immutable but for those, so they live in each checkpoint's
//! entry and the file is written once). A checkpoint's file reference is
//! `file u64 | len u64 | crc u32 | rows u64`: the `<n>` of `seg-<n>.acorn`,
//! and the length, footer and row count the file must have, so a checkpoint
//! can only ever be joined with the files it was written against.
//!
//! ## The manifest
//!
//! Written once per file, it holds what every block is decoded under:
//!
//! ```text
//! variant u8 | m u64 | gamma u64 | m_beta u64 | efc u64 | metric u8
//! | seed u64 | s_min f64 (NaN = none) | n_c u64 | flatten u8
//! | dim u64 | next_global u64
//! | min_rows u64 | max_tombstone_fraction f64 | active_max_rows u64
//! | frozen count u64
//! ```
//!
//! The parameters are those the index was created with; each segment's
//! index carries them as `resolve_params` turns them for the variant.
//! There is no field for [`AcornParams::prune`], so only
//! [`PruneStrategy::AcornCompress`] can be saved.
//!
//! ## The segment block
//!
//! ```text
//! n u64 | global_ids [u64; n] | vectors [f32; n · dim] | sealed u8
//! | if sealed, per node: level u8, per level: len u32, ids [u32; len]
//! | edges_pruned u64
//! ```
//!
//! The vectors are stored beside the graph: the segmented index owns its
//! per-segment stores, so a loaded index resumes serving **and accepting
//! writes** with no external store to re-attach. A sealed block has a node
//! per row; an unsealed one — the active segment's, or a pending segment's
//! — is its rows alone and prunes no edge. The active block must be
//! unsealed, and a frozen block must not be empty. Tombstone words
//! (`[u64; ceil(n/64)]`, no bit past the last row) follow each block in
//! its container, never inside it.
//!
//! ## Reading
//!
//! The footer — the CRC32 (IEEE) of every preceding byte — is checked over
//! the whole file **before a single body field is parsed**, so no length
//! read out of a torn or bit-rotted file is ever trusted. The structural
//! guards still run on the body as defense in depth: every count is
//! checked against the bytes present before anything is allocated for it,
//! global ids must ascend below `next_global`, a block's per-node lists go
//! straight into [`CsrGraph`] arenas through the validating [`CsrBuilder`]
//! (level, list length and every edge target checked), gid ranges must not
//! overlap across segments, and trailing bytes are refused. A loaded store
//! goes through the same cross-segment checks as a loaded export.
//!
//! [`CsrGraph`]: acorn_hnsw::CsrGraph
//! [`CsrBuilder`]: acorn_hnsw::csr::CsrBuilder

use std::io::{self, BufWriter, Read, Write};
use std::sync::Arc;

use acorn_hnsw::checksum::{crc32, ChecksumWriter};
use acorn_hnsw::csr::CsrBuilder;
use acorn_hnsw::{CsrGraph, GraphView, Metric, VectorStore};
use acorn_predicate::Bitset;

use crate::index::{resolve_params, AcornIndex};
use crate::params::{AcornParams, AcornVariant};
use crate::prune::PruneStrategy;
use crate::segment::{MergePolicy, SegmentedAcornIndex};
use crate::snapshot::{SegmentPayload, SegmentSnapshot, SegmentView};

/// The version every container kind is written with and the only one read.
const FORMAT_VERSION: u32 = 7;
/// Upper bound on a plausible vector dimensionality; a corrupt `dim` above
/// this fails cleanly instead of sizing row buffers from garbage.
const MAX_DIM: usize = 1 << 20;

/// One kind of container: the magic its files lead with, and its name.
struct Kind {
    magic: &'static [u8; 4],
    name: &'static str,
}

const EXPORT: Kind = Kind { magic: b"ACRN", name: "index" };
const CHECKPOINT: Kind = Kind { magic: b"ACCP", name: "checkpoint" };
const SEGMENT_FILE: Kind = Kind { magic: b"ACSG", name: "segment" };

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

fn bad(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// What a container's body is written into: a buffer in front of the
/// checksummer in front of the file.
type Sink<W> = BufWriter<ChecksumWriter<W>>;

/// Write a container of `kind` to `w`: its magic and [`FORMAT_VERSION`],
/// what `body` writes, and the CRC32 of all of it as the (unhashed) 4-byte
/// footer, which is returned. The buffer turns the body's field-sized
/// writes into runs the checksummer and `w` take in one call each; slices
/// larger than the buffer pass straight through.
fn with_footer<W: Write>(
    w: W,
    kind: &Kind,
    body: impl FnOnce(&mut Sink<W>) -> io::Result<()>,
) -> io::Result<u32> {
    let mut buffered = BufWriter::with_capacity(64 << 10, ChecksumWriter::new(w));
    buffered.write_all(kind.magic)?;
    put_u32(&mut buffered, FORMAT_VERSION)?;
    body(&mut buffered)?;
    let mut summed = buffered.into_inner().map_err(io::IntoInnerError::into_error)?;
    let sum = summed.sum();
    put_u32(summed.inner_mut(), sum)?;
    Ok(sum)
}

/// Open a container of `kind`: its magic and version checked, then its
/// footer over the whole file, and the body between them handed back with
/// the footer's sum.
fn container_body<'a>(file: &'a [u8], kind: &Kind) -> io::Result<(&'a [u8], u32)> {
    let Kind { magic, name } = kind;
    if file.len() < 8 || &file[..4] != *magic {
        return Err(bad(format!("not an ACORN {name} file")));
    }
    let version = u32::from_le_bytes(file[4..8].try_into().expect("4 version bytes"));
    if version != FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported ACORN {name} file version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let (body, footer) = file.split_at(file.len() - 4);
    let sum = u32::from_le_bytes(footer.try_into().expect("4 footer bytes"));
    if file.len() < 12 || crc32(body) != sum {
        return Err(bad(format!("{name} file checksum mismatch (torn or corrupt file)")));
    }
    Ok((&body[8..], sum))
}

/// Refuse whatever of a container's body its decoder left unread.
fn finished(r: &[u8], kind: &Kind) -> io::Result<()> {
    if !r.is_empty() {
        return Err(bad(format!("trailing bytes after the {} file body", kind.name)));
    }
    Ok(())
}

/// The manifest's parameter header: variant tag, then every
/// [`AcornParams`] field but `prune`, which the format has no field for.
///
/// # Errors
/// `InvalidInput` for any prune strategy but [`PruneStrategy::AcornCompress`]:
/// it would load as `AcornCompress`, and every later insert would build a
/// different graph than the never-saved index.
fn put_header(w: &mut impl Write, variant: AcornVariant, p: &AcornParams) -> io::Result<()> {
    if p.prune != PruneStrategy::AcornCompress {
        return Err(invalid_input(format!(
            "only AcornCompress pruning can be saved, not {:?}",
            p.prune
        )));
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
    // The fields are read in the order they are written.
    let params = AcornParams {
        m: get_u64(r)? as usize,
        gamma: get_u64(r)? as usize,
        m_beta: get_u64(r)? as usize,
        ef_construction: get_u64(r)? as usize,
        metric: match get_u8(r)? {
            0 => Metric::L2,
            1 => Metric::InnerProduct,
            2 => Metric::Cosine,
            _ => return Err(bad("unknown metric tag")),
        },
        seed: get_u64(r)?,
        prune: PruneStrategy::AcornCompress,
        s_min_override: Some(get_f64(r)?).filter(|s| !s.is_nan()),
        compressed_levels: get_u64(r)? as usize,
        flatten_hierarchy: get_u8(r)? != 0,
    };
    Ok((variant, params))
}

/// Whether the manifest can hold `fraction` as a merge policy's
/// `max_tombstone_fraction`: [`put_manifest`] refuses and [`get_manifest`]
/// rejects exactly the values this says no to.
fn tombstone_fraction_fits(fraction: f64) -> bool {
    fraction.is_finite() && fraction >= 0.0
}

/// Write the manifest of `snap`.
///
/// # Errors
/// `InvalidInput` for what [`put_header`] refuses, and for a merge policy
/// whose `max_tombstone_fraction` is NaN, negative or infinite: the loader
/// rejects it, so the bytes could never be read back.
fn put_manifest(w: &mut impl Write, snap: &SegmentSnapshot) -> io::Result<()> {
    let policy = snap.policy();
    if !tombstone_fraction_fits(policy.max_tombstone_fraction) {
        return Err(invalid_input(format!(
            "merge policy tombstone fraction {} cannot be saved",
            policy.max_tombstone_fraction
        )));
    }
    put_header(w, snap.variant(), snap.params())?;
    put_u64(w, snap.dim() as u64)?;
    put_u64(w, snap.next_global_id())?;
    put_u64(w, policy.min_rows as u64)?;
    w.write_all(&policy.max_tombstone_fraction.to_le_bytes())?;
    put_u64(w, policy.active_max_rows as u64)?;
    put_u64(w, snap.frozen_segments().len() as u64)
}

/// Inverse of [`put_manifest`]: epoch 0 of the index being loaded, its
/// segments not yet attached, and the frozen-segment count. Parameters
/// `AcornParams::check` refuses are `InvalidData`, never a panic.
fn get_manifest(r: &mut &[u8]) -> io::Result<(SegmentSnapshot, usize)> {
    let (variant, params) = get_header(r)?;
    params.check().map_err(|e| bad(format!("inconsistent parameters in the manifest: {e}")))?;
    let dim = get_u64(r)? as usize;
    if dim == 0 || dim > MAX_DIM {
        return Err(bad("implausible vector dimension in the manifest"));
    }
    let next_global = get_u64(r)?;
    let min_rows = get_u64(r)? as usize;
    let max_tombstone_fraction = get_f64(r)?;
    if !tombstone_fraction_fits(max_tombstone_fraction) {
        return Err(bad("invalid merge policy tombstone fraction"));
    }
    let active_max_rows = get_u64(r)? as usize;
    let policy = MergePolicy { min_rows, max_tombstone_fraction, active_max_rows };
    let frozen = get_u64(r)? as usize;
    let state =
        SegmentSnapshot { next_global, policy, ..SegmentSnapshot::empty(params, variant, dim) };
    Ok((state, frozen))
}

/// One segment block; `None` writes the block of an empty active segment
/// (no row, unsealed, no edge pruned), so the bytes do not depend on
/// whether the writer had published a view of it.
///
/// # Errors
/// `InvalidInput` for a node above level 255, which the level byte cannot
/// hold (no graph grows one: `LayeredGraph::add_node` refuses it).
fn put_block(w: &mut impl Write, seg: Option<&SegmentView>) -> io::Result<()> {
    let Some(seg) = seg else {
        put_u64(w, 0)?;
        w.write_all(&[0])?;
        return put_u64(w, 0);
    };
    let index = seg.index();
    put_u64(w, seg.rows() as u64)?;
    put_le(w, seg.global_ids(), u64::to_le_bytes)?;
    put_le(w, index.vectors().as_flat(), f32::to_le_bytes)?;
    let csr = index.csr();
    w.write_all(&[csr.is_some() as u8])?;
    if let Some(csr) = csr {
        for v in 0..csr.len() as u32 {
            let level = csr.level_of(v);
            let byte = u8::try_from(level)
                .map_err(|_| invalid_input(format!("node {v} has level {level}, above 255")))?;
            w.write_all(&[byte])?;
            for lev in 0..=level {
                let list = csr.neighbors(v, lev);
                put_u32(w, list.len() as u32)?;
                put_le(w, list, u32::to_le_bytes)?;
            }
        }
    }
    put_u64(w, index.edges_pruned())
}

/// Which segment of the index a block holds, and so which state it must
/// be in.
#[derive(Clone, Copy)]
enum Role {
    /// Non-empty: sealed, or pending its graph.
    Frozen,
    /// The one segment taking inserts: its rows alone.
    Active,
}

/// Inverse of [`put_block`], decoded under manifest `m`: the payload the
/// index will serve, every count checked against the bytes present.
fn get_block(r: &mut &[u8], m: &SegmentSnapshot, role: Role) -> io::Result<SegmentPayload> {
    let n = get_u64(r)? as usize;
    let global_ids = get_le(r, n, u64::from_le_bytes)?;
    if global_ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("segment global ids must be strictly ascending"));
    }
    if global_ids.last().is_some_and(|&g| g >= m.next_global) {
        return Err(bad("segment global id at or beyond next_global"));
    }
    if matches!(role, Role::Frozen) && n == 0 {
        return Err(bad("frozen segments must not be empty"));
    }
    // One conversion into a store of exactly the rows' size.
    let vecs = Arc::new(VectorStore::from_le_bytes(m.dim, take(r, n, m.dim * 4)?));
    let graph = match (get_u8(r)?, role) {
        (0, _) => None,
        (1, Role::Frozen) => Some(get_lists(r, n)?),
        (1, Role::Active) => return Err(bad("the active segment must not be sealed")),
        _ => return Err(bad("invalid sealed flag")),
    };
    let edges_pruned = get_u64(r)?;
    let params = resolve_params(m.params.clone(), m.variant);
    let index = match graph {
        Some(csr) => AcornIndex::from_sealed_parts(params, m.variant, vecs, csr, edges_pruned),
        None if edges_pruned == 0 => AcornIndex::rows(vecs, params, m.variant),
        None => return Err(bad("an unsealed segment must hold its rows alone")),
    };
    Ok(SegmentPayload { index, global_ids })
}

/// A sealed block's per-node lists, for `n` nodes, decoded into CSR arenas
/// through the validating [`CsrBuilder`].
fn get_lists(r: &mut &[u8], n: usize) -> io::Result<CsrGraph> {
    let mut csr = CsrBuilder::new(n);
    for _ in 0..n {
        let level = get_u8(r)? as usize;
        csr.push_node(level).map_err(bad)?;
        for _ in 0..=level {
            let len = get_u32(r)? as usize;
            let ids = take(r, len, 4)?.chunks_exact(4);
            csr.push_list(ids.map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))))
                .map_err(bad)?;
        }
    }
    csr.finish().map_err(bad)
}

/// `payload` under the tombstone words that follow its entry's head: `n`
/// rows' worth, with no bit set beyond the last row.
fn get_view(r: &mut &[u8], payload: SegmentPayload) -> io::Result<SegmentView> {
    let n = payload.global_ids.len();
    let words = get_le(r, n.div_ceil(64), u64::from_le_bytes)?;
    if n % 64 != 0 && words.last().is_some_and(|&w| w >> (n % 64) != 0) {
        return Err(bad("tombstone bits set beyond the segment's row count"));
    }
    Ok(SegmentView::new(payload, Bitset::from_words(n, words)))
}

/// The one writer: `snap` as a container of `kind` — the manifest, each
/// frozen segment's entry (what `head` writes of it, then its tombstone
/// words) and the active segment's block and tombstone words.
fn save_container<W: Write>(
    w: W,
    kind: &Kind,
    snap: &SegmentSnapshot,
    mut head: impl FnMut(&mut Sink<W>, usize, &SegmentView) -> io::Result<()>,
) -> io::Result<()> {
    with_footer(w, kind, |w| {
        put_manifest(w, snap)?;
        for (i, seg) in snap.frozen_segments().iter().enumerate() {
            head(w, i, seg)?;
            put_le(w, seg.tombstones().words(), u64::to_le_bytes)?;
        }
        let active = snap.active_segment();
        put_block(w, active)?;
        put_le(w, active.map_or(&[][..], |a| a.tombstones().words()), u64::to_le_bytes)
    })
    .map(drop)
}

/// The one reader: a container of `kind`, each frozen entry's head decoded
/// by `head` under the manifest, then the checks no single block can make.
fn load_container(
    file: &[u8],
    kind: &Kind,
    mut head: impl FnMut(&mut &[u8], &SegmentSnapshot) -> io::Result<SegmentPayload>,
) -> io::Result<SegmentedAcornIndex> {
    let (mut r, _) = container_body(file, kind)?;
    let (state, nseg) = get_manifest(&mut r)?;
    let mut frozen = Vec::new();
    for _ in 0..nseg {
        let payload = head(&mut r, &state)?;
        frozen.push(get_view(&mut r, payload)?);
    }
    let active = get_block(&mut r, &state, Role::Active)?;
    let active = get_view(&mut r, active)?;
    finished(r, kind)?;
    assemble(state, frozen, active)
}

/// The checks no single block can make, then the index.
fn assemble(
    state: SegmentSnapshot,
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

    Ok(SegmentedAcornIndex::from_loaded_parts(SegmentSnapshot { frozen, ..state }, active))
}

impl SegmentSnapshot {
    /// Serialize this snapshot — manifest, vectors, per-segment graphs and
    /// tombstones — to `w` as one export file (see the [module
    /// docs](self)). A snapshot is immutable, so the bytes are consistent
    /// *as of this epoch* no matter how many inserts, deletes, or
    /// background merges land while the write is in flight; saving the same
    /// snapshot twice yields identical bytes.
    ///
    /// # Errors
    /// `InvalidInput` if the index prunes with anything but
    /// [`PruneStrategy::AcornCompress`] (the format has no field for the
    /// strategy, and the loaded index would grow differently), or if its
    /// merge policy's `max_tombstone_fraction` is NaN, negative or infinite
    /// (the loader would refuse the bytes).
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        save_container(w, &EXPORT, self, |w, _, seg| put_block(w, Some(seg)))
    }
}

impl SegmentedAcornIndex {
    /// Load an index previously written by [`SegmentSnapshot::save`]: the
    /// CRC32 footer is verified over the whole file **before** any body
    /// field is parsed. A loaded index resumes serving and accepting writes
    /// immediately.
    ///
    /// # Errors
    /// Returns `InvalidData` for another kind of file or another format
    /// version, a checksum-footer mismatch (torn or corrupt file), trailing
    /// bytes after the body, inconsistent parameters, non-ascending /
    /// out-of-range / cross-segment-duplicated global ids, overlapping
    /// segment gid ranges, tombstone bits beyond a segment's rows, a
    /// neighbor list the graph cannot hold, and a block whose sealed flag
    /// disagrees with its role; `UnexpectedEof` for a count the bytes
    /// present cannot hold.
    pub fn load(r: &mut impl Read) -> io::Result<SegmentedAcornIndex> {
        // Slurp the stream: the allocation is bounded by the bytes actually
        // present, never by a parsed length.
        let mut file = Vec::new();
        r.read_to_end(&mut file)?;
        load_container(&file, &EXPORT, |r, m| get_block(r, m, Role::Frozen))
    }
}

/// A checkpoint's reference to one segment file: which file, and the
/// length, CRC32 footer and rows it must have — the file as it was
/// written, or not at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentFileRef {
    /// The `<n>` of `seg-<n>.acorn`.
    pub(crate) file: u64,
    /// The file's length in bytes, footer included.
    pub(crate) len: u64,
    /// The file's footer: the CRC32 of every byte before it.
    pub(crate) crc: u32,
    /// Rows in the segment.
    pub(crate) rows: u64,
}

/// Write `seg` as segment file number `file` to `w`, returning the
/// reference a checkpoint names it by.
pub(crate) fn save_segment_file(
    w: &mut Vec<u8>,
    file: u64,
    seg: &SegmentView,
) -> io::Result<SegmentFileRef> {
    let crc = with_footer(&mut *w, &SEGMENT_FILE, |w| put_block(w, Some(seg)))?;
    Ok(SegmentFileRef { file, len: w.len() as u64, crc, rows: seg.rows() as u64 })
}

/// Write the checkpoint of `snap` to `w`: the export with each frozen
/// segment's block replaced by `refs[i]`, the reference to its file.
pub(crate) fn save_checkpoint(
    w: &mut impl Write,
    snap: &SegmentSnapshot,
    refs: &[SegmentFileRef],
) -> io::Result<()> {
    debug_assert_eq!(refs.len(), snap.frozen_segments().len());
    save_container(w, &CHECKPOINT, snap, |w, i, _| {
        put_u64(w, refs[i].file)?;
        put_u64(w, refs[i].len)?;
        put_u32(w, refs[i].crc)?;
        put_u64(w, refs[i].rows)
    })
}

/// Load the index a checkpoint file was taken of, joined with its segment
/// files — `read` fetches the one a reference names — and return it with
/// the references in segment order. Each segment file must be the one its
/// reference was written against (length, footer and rows), pass its own
/// checksum and decode under the same guards as an export's block.
pub(crate) fn load_checkpoint(
    file: &[u8],
    mut read: impl FnMut(&SegmentFileRef) -> io::Result<Vec<u8>>,
) -> io::Result<(SegmentedAcornIndex, Vec<SegmentFileRef>)> {
    let mut refs = Vec::new();
    let index = load_container(file, &CHECKPOINT, |r, m| {
        let (file, len, crc, rows) = (get_u64(r)?, get_u64(r)?, get_u32(r)?, get_u64(r)?);
        let seg_ref = SegmentFileRef { file, len, crc, rows };
        let bytes = read(&seg_ref)?;
        let (mut body, sum) = container_body(&bytes, &SEGMENT_FILE)?;
        if bytes.len() as u64 != len || sum != crc {
            return Err(bad("segment file is not the one the checkpoint references"));
        }
        let payload = get_block(&mut body, m, Role::Frozen)?;
        finished(body, &SEGMENT_FILE)?;
        if payload.global_ids.len() as u64 != rows {
            return Err(bad("segment file row count disagrees with the checkpoint"));
        }
        refs.push(seg_ref);
        Ok(payload)
    })?;
    Ok((index, refs))
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

    /// `idx` as the block of a frozen segment holding gids `0..n`.
    fn block(idx: &AcornIndex) -> Vec<u8> {
        let n = idx.vectors().len();
        let payload = SegmentPayload { index: idx.clone(), global_ids: (0..n as u64).collect() };
        let mut buf = Vec::new();
        put_block(&mut buf, Some(&SegmentView::new(payload, Bitset::new(n)))).unwrap();
        buf
    }

    /// Decode a whole buffer as a frozen segment's block, under the manifest
    /// of an index like `like`: its parameters, variant and dimension
    /// (resolving an index's parameters again changes nothing).
    fn load_block(buf: &[u8], like: &AcornIndex) -> io::Result<AcornIndex> {
        let (params, variant) = (like.params().clone(), like.variant());
        let dim = like.vectors().dim();
        let m = SegmentSnapshot {
            next_global: u64::MAX,
            ..SegmentSnapshot::empty(params, variant, dim)
        };
        let mut r = buf;
        let payload = get_block(&mut r, &m, Role::Frozen)?;
        finished(r, &EXPORT)?;
        Ok(payload.index)
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

        let loaded = load_block(&block(&idx), &idx).unwrap();

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
        let idx = sealed(&vecs, params.clone(), AcornVariant::One);
        // The manifest holds the parameters as given; the block's index
        // carries them as ACORN-1 resolves them.
        let like = AcornIndex::rows(vecs.clone(), params, AcornVariant::One);
        let loaded = load_block(&block(&idx), &like).unwrap();
        assert_eq!(loaded.variant(), AcornVariant::One);
        assert_eq!(loaded.params(), idx.params());
        assert_eq!(loaded.params().s_min(), 1.0 / 6.0);
    }

    #[test]
    fn compacted_flag_roundtrips_and_loads_serving_from_csr() {
        let vecs = random_store(400, 8, 6);
        let params =
            AcornParams { m: 8, gamma: 4, m_beta: 16, ef_construction: 32, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::Gamma);

        let buf = block(&idx);
        let loaded = load_block(&buf, &idx).unwrap();
        assert!(loaded.csr().is_some(), "a sealed index must load sealed");
        let q = vec![0.3; 8];
        assert_eq!(search(&idx, &q), search(&loaded, &q));

        // Rows alone round-trip as rows alone: the same rows, a clear flag,
        // no list and no pruned edge.
        let rows = AcornIndex::rows(vecs.clone(), idx.params().clone(), AcornVariant::Gamma);
        let rows_buf = block(&rows);
        let flag = 8 + 400 * 8 + 400 * 8 * 4;
        assert_eq!(rows_buf.len(), flag + 1 + 8);
        assert_eq!((rows_buf[flag], buf[flag]), (0, 1));
        assert_eq!(rows_buf[..flag], buf[..flag], "the same rows either way");
        let loaded = load_block(&rows_buf, &idx).unwrap();
        assert!(loaded.is_empty() && loaded.csr().is_none() && loaded.graph().is_none());
        assert_eq!(loaded.vectors().len(), 400);

        // A sealed block with its flag cleared leaves its lists unread, and
        // they do not pass for the zero pruned-edge count of rows alone.
        let mut cleared = buf.clone();
        cleared[flag] = 0;
        let err = load_block(&cleared, &idx).unwrap_err();
        assert!(err.to_string().contains("must hold its rows alone"), "unexpected: {err}");
    }

    #[test]
    fn rejects_bad_magic_and_size_mismatch() {
        let vecs = random_store(50, 4, 3);
        let params =
            AcornParams { m: 4, gamma: 2, m_beta: 4, ef_construction: 8, ..Default::default() };
        let idx = sealed(&vecs, params, AcornVariant::Gamma);

        // A block read under another manifest's dimension runs off its rows.
        let wider = AcornIndex::rows(random_store(1, 8, 4), idx.params().clone(), idx.variant());
        assert!(load_block(&block(&idx), &wider).is_err());

        let mut file = saved(&tiny_fixture());
        file[0] = b'X';
        let err = crate::SegmentedAcornIndex::load(&mut file.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not an ACORN index file"), "unexpected: {err}");
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
        let mut buf = block(&idx);
        // Layout: n 8 + 50 gids × 8 + 50 rows × 4 dims × 4 = 1208 bytes,
        // then the sealed flag, node 0's level and node 0's first list
        // length at offset 1210. Corrupt it to an absurd value: load must
        // error out — on the bytes present — instead of attempting a 16 GiB
        // allocation.
        buf[1210..1214].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = load_block(&buf, &idx).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "unexpected: {err}");
        // A length the bytes could hold is still refused by the graph's size.
        buf[1210..1214].copy_from_slice(&51u32.to_le_bytes());
        let err = load_block(&buf, &idx).unwrap_err();
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
    const FIXTURE_SUM: (usize, u32) = (16_177, 2_272_716_043);

    /// Bytes before the first frozen segment block: magic 4 + version 4 +
    /// header 59 + dim 8 + next_global 8 + policy 24 + frozen count 8.
    const SEG_HEADER_BYTES: usize = 115;
    /// Offset of the fixture's first frozen segment's row count `n`, which
    /// its block leads with.
    const SEG_N_OFF: usize = SEG_HEADER_BYTES;
    /// Offset of the fixture's frozen block's sealed flag: after its `n`,
    /// 100 gids and 100 rows of 8 floats. Its lists follow.
    const FROZEN_FLAG: usize = SEG_N_OFF + 8 + 100 * 8 + 100 * 8 * 4;
    /// Bytes of the fixture's active entry, the last before the footer:
    /// `n`, 60 gids, 60 rows of 8 floats, the flag, the pruned-edge count
    /// and one tombstone word.
    const ACTIVE_ENTRY: usize = 8 + 60 * 8 + 60 * 8 * 4 + 1 + 8 + 8;

    fn saved(idx: &crate::SegmentedAcornIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        idx.snapshot().save(&mut buf).unwrap();
        buf
    }

    /// `idx` as a durable store writes it: the checkpoint, and segment file
    /// `i` for frozen segment `i`.
    fn store_files(idx: &crate::SegmentedAcornIndex) -> (Vec<u8>, Vec<Vec<u8>>) {
        let snap = idx.snapshot();
        let (mut files, mut refs) = (Vec::new(), Vec::new());
        for (i, seg) in snap.frozen_segments().iter().enumerate() {
            let mut file = Vec::new();
            refs.push(save_segment_file(&mut file, i as u64, seg).unwrap());
            files.push(file);
        }
        let mut checkpoint = Vec::new();
        save_checkpoint(&mut checkpoint, &snap, &refs).unwrap();
        (checkpoint, files)
    }

    /// Load a checkpoint joined with `files` (file `i` is `files[i]`).
    fn load_store(checkpoint: &[u8], files: &[Vec<u8>]) -> io::Result<crate::SegmentedAcornIndex> {
        let read = |r: &SegmentFileRef| {
            files.get(r.file as usize).cloned().ok_or(io::ErrorKind::NotFound.into())
        };
        load_checkpoint(checkpoint, read).map(|(idx, _)| idx)
    }

    /// A loader of one kind of file, as the tests drive it.
    type Loader<'a> = &'a dyn Fn(&[u8]) -> io::Result<()>;

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
        // reading its gids), never attempt a proportional allocation.
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
        // The frozen entry ends in its 2 tombstone words (n = 100), just
        // ahead of the active entry; valid bits are 0..36 of the last word.
        // Set bits 40..48.
        let words_off = buf.len() - 4 - ACTIVE_ENTRY - 16;
        assert_eq!(buf[words_off..words_off + 8], ((1u64 << 10) - 1).to_le_bytes());
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
    fn segmented_load_rejects_corrupt_lists_in_a_frozen_block() {
        // A sealed block's lists go straight into CSR arenas through the one
        // decoder. Node 0's level follows the frozen block's sealed flag,
        // then its first list length and that list's first target.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        let (len_off, n) = (FROZEN_FLAG + 2, 100);
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
        // A bare `AcornIndex` blob (magic "ACRN", version 3) was a public
        // file format once: the export loader turns a file headed like one
        // away by its version, before parsing anything else.
        let mut blob = saved(&tiny_fixture());
        blob[4..8].copy_from_slice(&3u32.to_le_bytes());
        let err = crate::SegmentedAcornIndex::load(&mut blob.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("index file version 3"), "unexpected: {err}");
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
        // Length and CRC32 of the fixture's file. Re-pinned when every
        // container came to share one version and one block: the blocks
        // lost their encoding tag, nested header and node count, the
        // manifest its retired quantization field, and the tombstone words
        // moved from inside each block to after it.
        let file = saved(&segmented_fixture().0);
        let body = &file[..file.len() - 4];
        assert_eq!((file.len(), acorn_hnsw::checksum::crc32(body)), FIXTURE_SUM);
    }

    #[test]
    fn segmented_load_holds_each_block_to_the_state_of_its_role() {
        // The active block's flag sits before its pruned-edge count and
        // tombstone word, at the end of the file.
        let (idx, _) = segmented_fixture();
        let buf = saved(&idx);
        let active_flag = buf.len() - 4 - 8 - 8 - 1;
        assert_eq!((buf[FROZEN_FLAG], buf[active_flag]), (1, 0));

        for (flag, value, message) in [
            (FROZEN_FLAG, 0, "an unsealed segment must hold its rows alone"),
            (FROZEN_FLAG, 2, "invalid sealed flag"),
            (active_flag, 1, "the active segment must not be sealed"),
        ] {
            let mut flipped = buf.clone();
            flipped[flag] = value;
            reseal(&mut flipped);
            let err = crate::SegmentedAcornIndex::load(&mut flipped.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(message), "unexpected: {err}");
        }
    }

    #[test]
    fn manifest_parameters_that_overflow_are_invalid_data() {
        // m = γ = 2^33 under a valid footer: the loader must refuse the
        // header, not panic (or wrap) multiplying M·γ. `m` and `gamma` follow
        // magic 4 + version 4 + variant 1.
        let mut buf = saved(&tiny_fixture());
        for off in [9, 17] {
            buf[off..off + 8].copy_from_slice(&(1u64 << 33).to_le_bytes());
        }
        reseal(&mut buf);
        let err = crate::SegmentedAcornIndex::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("M_beta"), "unexpected: {err}");
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
        // Exhaustive over every file of every kind: every bit of every byte
        // — header, manifest, length fields, vector data, graphs, file
        // references and the footer itself. A flip must yield Err (clean
        // `io::Error`), never a panic and never a length-driven giant
        // allocation (allocations are bounded by the actual byte count
        // before the parser ever runs).
        let idx = tiny_fixture();
        let (checkpoint, segments) = store_files(&idx);
        let export = |f: &[u8]| crate::SegmentedAcornIndex::load(&mut &*f).map(drop);
        let store = |f: &[u8]| load_store(f, &segments).map(drop);
        let segment = |f: &[u8]| load_store(&checkpoint, &[f.to_vec()]).map(drop);
        let files: [(Loader, Vec<u8>); 3] =
            [(&export, saved(&idx)), (&store, checkpoint.clone()), (&segment, segments[0].clone())];
        for (load, mut buf) in files {
            load(&buf).expect("pristine file must load");
            for i in 0..buf.len() {
                for bit in 0..8 {
                    buf[i] ^= 1 << bit;
                    assert!(load(&buf).is_err(), "flip at byte {i} bit {bit} loaded successfully");
                    buf[i] ^= 1 << bit;
                }
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
        // One loader per kind of file. Each refuses the other two kinds by
        // their magic, and every version but `FORMAT_VERSION` by its number:
        // the v6 export and the footerless v4 and v5 before it, and the
        // first segment files and checkpoints (`ACSG` and `ACCP` v1).
        let (idx, _) = segmented_fixture();
        let (checkpoint, segments) = store_files(&idx);
        let export = |f: &[u8]| crate::SegmentedAcornIndex::load(&mut &*f).map(drop);
        let store = |f: &[u8]| load_store(f, &segments).map(drop);
        let segment = |f: &[u8]| load_store(&checkpoint, &[f.to_vec()]).map(drop);
        let kinds: [(&str, Loader, Vec<u8>, &[u32]); 3] = [
            ("index", &export, saved(&idx), &[4, 5, 6]),
            ("checkpoint", &store, checkpoint.clone(), &[1]),
            ("segment", &segment, segments[0].clone(), &[1]),
        ];
        for (name, load, own, retired) in &kinds {
            load(own).expect("a file of the loader's own kind loads");
            for (_, _, other, _) in kinds.iter().filter(|k| k.0 != *name) {
                let err = load(other).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(&format!("not an ACORN {name} file")), "{err}");
            }
            for &version in *retired {
                let mut old = own.clone();
                old[4..8].copy_from_slice(&version.to_le_bytes());
                reseal(&mut old);
                let err = load(&old).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                let message = format!("unsupported ACORN {name} file version {version}");
                assert!(err.to_string().contains(&message), "{err}");
            }
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
        let buf = block(&idx);
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(load_block(&buf[..cut], &idx).is_err(), "truncation at {cut} must error");
        }
    }
}
