//! Checkpoint bytes follow the change, not the index.
//!
//! A [`Vfs`] that counts what the store creates and writes is put between a
//! [`DurableIndex`] and the real filesystem, and each step of a store's life
//! is held to what it may write:
//!
//! * a checkpoint after a handful of inserts and deletes writes **no**
//!   segment file and fewer bytes than one base segment occupies;
//! * `freeze()` + `checkpoint()` writes exactly one new segment file;
//! * `open` followed at once by `checkpoint()` writes none — the loaded
//!   segments are known by the files they came from;
//! * after a `merge()` or `compact_all()` and two checkpoints, the segment
//!   files on disk are exactly the frozen segments of the index;
//! * and at every reopen the recovered index serializes to the bytes of an
//!   undurable oracle driven by the same ops.
//!
//! The last test runs the repo benchmark's `durable-writes` cycle at its
//! engine parameters and prints the **full-accounting** write amplification:
//! every byte that reached the filesystem — WAL, checkpoints, manifest and
//! segment files — per byte of user data. The benchmark's own
//! `durability.bytes_written_per_user_byte` sees only the WAL and the
//! `snap-*` files, so it under-counts a store that keeps frozen segments in
//! files of their own; this is the number to quote.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use acorn_core::durability::{DurabilityOptions, DurableIndex, FsyncPolicy, StdVfs, Vfs, VfsFile};
use acorn_core::{AcornParams, AcornVariant, MergePolicy, SegmentedAcornIndex};
use acorn_hnsw::VectorStore;

/// Bytes written per file name (the `.tmp` a file was written under counts
/// towards the name it is renamed to), since the last [`CountingVfs::take`].
#[derive(Debug, Default)]
struct Written(Mutex<BTreeMap<String, u64>>);

impl Written {
    fn add(&self, name: &str, bytes: u64) {
        *self.0.lock().unwrap().entry(name.to_string()).or_default() += bytes;
    }
}

/// [`StdVfs`] with every created file and every written byte counted.
#[derive(Debug, Default)]
struct CountingVfs {
    written: Arc<Written>,
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    name: String,
    written: Arc<Written>,
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written.add(&self.name, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for CountingFile {
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl CountingVfs {
    fn counted(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let name = path.file_name().unwrap().to_string_lossy();
        let name = name.strip_suffix(".tmp").unwrap_or(&name).to_string();
        // A file created and never written to still shows up, with 0 bytes.
        self.written.add(&name, 0);
        Box::new(CountingFile { inner, name, written: self.written.clone() })
    }

    /// What was written since the last call: `(segment files, all bytes)`.
    fn take(&self) -> (Vec<String>, u64) {
        let files = std::mem::take(&mut *self.written.0.lock().unwrap());
        let bytes = files.values().sum();
        (files.into_keys().filter(|n| n.starts_with("seg-")).collect(), bytes)
    }
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, StdVfs.create(path)?))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.counted(path, StdVfs.append(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        StdVfs.sync_dir(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        StdVfs.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "acorn-ckptcost-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn opts() -> DurabilityOptions {
    DurabilityOptions { fsync: FsyncPolicy::Never, wal_max_bytes: 0 }
}

fn vec_for(i: u64, dim: usize) -> Vec<f32> {
    (0..dim).map(|d| ((i * 37 + d as u64 * 13) % 101) as f32 / 101.0).collect()
}

/// `segments` bulk-loaded base segments of `rows` rows each.
fn base_index(
    dim: usize,
    params: AcornParams,
    policy: MergePolicy,
    segments: u64,
    rows: u64,
) -> SegmentedAcornIndex {
    let mut idx = SegmentedAcornIndex::new(dim, params, AcornVariant::Gamma).with_policy(policy);
    for s in 0..segments {
        let mut store = VectorStore::with_capacity(dim, rows as usize);
        for i in 0..rows {
            store.push(&vec_for(s * rows + i, dim));
        }
        idx.bulk_load(store);
    }
    idx
}

fn saved(idx: &SegmentedAcornIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    idx.snapshot().save(&mut bytes).unwrap();
    bytes
}

fn segment_files_on_disk(dir: &Path) -> Vec<(String, u64)> {
    let names = StdVfs.list(dir).unwrap();
    let segs = names.into_iter().filter(|n| n.starts_with("seg-"));
    segs.map(|n| (n.clone(), std::fs::metadata(dir.join(&n)).unwrap().len())).collect()
}

/// A durable store and an undurable oracle, given the same ops.
struct Pair {
    dir: PathBuf,
    vfs: Arc<CountingVfs>,
    store: DurableIndex,
    oracle: SegmentedAcornIndex,
    dim: usize,
}

impl Pair {
    fn insert(&mut self, i: u64) {
        let v = vec_for(i, self.dim);
        assert_eq!(self.store.insert(&v).unwrap(), self.oracle.insert(&v));
    }

    fn delete(&mut self, gid: u64) {
        assert!(self.store.delete(gid).unwrap());
        assert!(self.oracle.delete(gid));
    }

    /// Drop the handle without a checkpoint and recover: the reopened index
    /// must be the oracle's, byte for byte.
    fn reopen(&mut self) {
        let vfs: Arc<dyn Vfs> = self.vfs.clone();
        self.store = DurableIndex::open_with_vfs(&self.dir, opts(), vfs).unwrap();
        assert!(saved(self.store.index()) == saved(&self.oracle), "recovery diverged");
    }

    /// After two checkpoints both kept generations reference the current
    /// frozen segments and nothing else, so exactly their files remain.
    fn assert_no_unreferenced_segment_file(&self) {
        let frozen = self.store.index().snapshot().frozen_segments().len();
        let on_disk = segment_files_on_disk(&self.dir);
        assert_eq!(on_disk.len(), frozen, "segment files on disk: {on_disk:?}");
    }
}

#[test]
fn checkpoint_bytes_follow_the_change() {
    const DIM: usize = 8;
    const BASE_SEGMENTS: u64 = 3;
    const BASE_ROWS: u64 = 300;
    let params = AcornParams {
        m: 8,
        gamma: 2,
        m_beta: 12,
        ef_construction: 32,
        seed: 5,
        ..Default::default()
    };
    // Base segments are never merge candidates; the small ones frozen from
    // the active segment are.
    let policy = MergePolicy { min_rows: 128, ..Default::default() };
    let index = || base_index(DIM, params.clone(), policy.clone(), BASE_SEGMENTS, BASE_ROWS);

    let dir = tmp_dir("follow");
    let vfs = Arc::new(CountingVfs::default());
    let store = DurableIndex::create_with_vfs(&dir, index(), opts(), vfs.clone()).unwrap();
    let mut p = Pair { dir: dir.clone(), vfs, store, oracle: index(), dim: DIM };

    // `create` writes each base segment once.
    let (segs, _) = p.vfs.take();
    assert_eq!(segs.len() as u64, BASE_SEGMENTS);
    let base_segment_bytes = segment_files_on_disk(&dir).iter().map(|(_, len)| *len).min().unwrap();

    // A few writes, tombstones on base rows included: the checkpoint is the
    // active segment, the references and the tombstone words.
    let mut next = BASE_SEGMENTS * BASE_ROWS;
    for _ in 0..30 {
        p.insert(next);
        next += 1;
    }
    for gid in [7, 311, 650, next - 3] {
        p.delete(gid);
    }
    p.vfs.take();
    p.store.checkpoint().unwrap();
    let (segs, bytes) = p.vfs.take();
    assert!(segs.is_empty(), "a checkpoint over unchanged segments rewrote {segs:?}");
    assert!(
        bytes < base_segment_bytes,
        "checkpoint wrote {bytes} B; one base segment is {base_segment_bytes} B"
    );
    p.reopen();

    // `open` + `checkpoint()`: every segment is already in its file.
    p.vfs.take();
    p.store.checkpoint().unwrap();
    let (segs, bytes) = p.vfs.take();
    assert!(segs.is_empty(), "a checkpoint right after open rewrote {segs:?}");
    assert!(bytes < base_segment_bytes);

    // Freezing the active segment makes one new immutable segment: one file,
    // written by the checkpoint (not by the freeze), once.
    p.store.freeze().unwrap();
    p.oracle.freeze();
    let (segs, _) = p.vfs.take();
    assert!(segs.is_empty(), "freeze itself writes only its WAL record, not {segs:?}");
    p.store.checkpoint().unwrap();
    let (segs, _) = p.vfs.take();
    assert_eq!(segs.len(), 1, "one new frozen segment, one new file: {segs:?}");
    p.store.checkpoint().unwrap();
    assert!(p.vfs.take().0.is_empty());
    p.assert_no_unreferenced_segment_file();

    // A segment frozen after the last checkpoint exists only in the WAL:
    // recovery re-derives it, and the checkpoint `open` did not need to
    // take leaves it to the next one.
    for _ in 0..20 {
        p.insert(next);
        next += 1;
    }
    p.store.freeze().unwrap();
    p.oracle.freeze();
    p.insert(next);
    p.reopen();

    // Merge the two small frozen segments (the second still file-less):
    // the merged segment gets a file, the sources' go once no kept
    // generation names them.
    p.delete(next - 5);
    let merged = p.store.merge().unwrap();
    assert_eq!(p.oracle.merge(), merged);
    assert_eq!(merged.segments_merged, 2, "the policy must pick both small segments");
    p.vfs.take();
    p.store.checkpoint().unwrap();
    assert_eq!(p.vfs.take().0.len(), 1, "the merged segment's file");
    p.store.checkpoint().unwrap();
    assert!(p.vfs.take().0.is_empty());
    p.assert_no_unreferenced_segment_file();
    p.reopen();

    // Compacting everything leaves one segment and, two checkpoints later,
    // one file.
    assert_eq!(p.store.compact_all().unwrap(), p.oracle.compact_all());
    p.store.checkpoint().unwrap();
    p.store.checkpoint().unwrap();
    p.assert_no_unreferenced_segment_file();
    assert_eq!(segment_files_on_disk(&dir).len(), 1);
    p.reopen();
    std::fs::remove_dir_all(&dir).ok();
}

/// The repo benchmark's `durable-writes` cycle — 400 writes, checkpoint, 200
/// writes, drop the handle, `open` (which replays the 200 and appends to the
/// same WAL) — at its engine parameters and insert : delete mix, with every
/// byte the store wrote counted, segment files included.
#[test]
fn full_accounting_write_amplification_of_the_durable_cycle() {
    const DIM: usize = 32;
    const BASE_ROWS: u64 = 500;
    const CYCLES: u64 = 8;
    let params = AcornParams {
        m: 16,
        gamma: 8,
        m_beta: 32,
        ef_construction: 64,
        seed: 42,
        ..Default::default()
    };
    let policy = MergePolicy { active_max_rows: 1024, min_rows: 2048, max_tombstone_fraction: 0.2 };
    let index = || base_index(DIM, params.clone(), policy.clone(), 2, BASE_ROWS);

    let dir = tmp_dir("cycle");
    let vfs = Arc::new(CountingVfs::default());
    let store = DurableIndex::create_with_vfs(&dir, index(), opts(), vfs.clone()).unwrap();
    let mut p = Pair { dir: dir.clone(), vfs, store, oracle: index(), dim: DIM };
    p.vfs.take();

    let (mut next, mut oldest, mut user_bytes) = (2 * BASE_ROWS, 0u64, 0u64);
    let mut writes = |p: &mut Pair, n: u64| {
        for w in 0..n {
            if w % 3 == 2 {
                p.delete(oldest);
                oldest += 1;
                user_bytes += 8;
            } else {
                p.insert(next);
                next += 1;
                user_bytes += 4 * DIM as u64;
            }
        }
    };
    let (mut written, mut checkpoint_bytes) = (0, 0);
    for _ in 0..CYCLES {
        writes(&mut p, 400);
        written += p.vfs.take().1;
        p.store.checkpoint().unwrap();
        checkpoint_bytes = p.vfs.take().1;
        writes(&mut p, 200);
        p.reopen();
        assert_eq!(p.store.recovered_ops(), 200);
        written += checkpoint_bytes + p.vfs.take().1;
    }
    let amplification = written as f64 / user_bytes as f64;
    println!(
        "durable cycle x{CYCLES}: {written} B written (WAL + checkpoints + manifest + segment \
         files) for {user_bytes} B of user data = {amplification:.2} bytes written per user byte; \
         last explicit checkpoint {checkpoint_bytes} B"
    );
    // Each row is written to the WAL once, to its segment file once, and to
    // the checkpoints taken while it sits in the active segment (one a
    // cycle, the active segment at most 1024 rows): a constant, whatever
    // the index holds. A store that re-serializes the index per checkpoint
    // writes hundreds.
    assert!(amplification < 20.0, "write amplification {amplification:.2}");
    std::fs::remove_dir_all(&dir).ok();
}
