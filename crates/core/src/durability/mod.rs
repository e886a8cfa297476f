//! Crash-safe persistence for [`SegmentedAcornIndex`] whose cost follows
//! what changed: write-once segment files, small per-generation checkpoints,
//! a write-ahead log, and generation-manifest recovery.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   MANIFEST              20 bytes: magic, version, committed generation, CRC32
//!   seg-0000000003.acorn  one frozen segment, written once (CRC32 footer)
//!   seg-0000000005.acorn  ... one file per frozen segment a kept generation names
//!   snap-0000000007.acorn checkpoint of generation 7: the index header, one
//!                         reference per frozen segment (file number, length,
//!                         CRC32, rows, current tombstone words) and the active
//!                         segment's block (CRC32 footer)
//!   wal-0000000007.log    ops applied since checkpoint 7 (checksummed records)
//!   snap-0000000006.acorn previous generation, kept as a bit-rot fallback
//!   wal-0000000006.log    its WAL (completes the fallback to checkpoint state)
//!   *.tmp                 in-flight writes; never read, pruned on sight
//! ```
//!
//! A frozen segment never changes but for its tombstones, so its rows and
//! graph are written exactly once — by the first checkpoint that sees it,
//! never by `insert` or `freeze` — and every later checkpoint only names the
//! file again beside the segment's current tombstone words. A checkpoint
//! therefore costs the active segment plus whatever segments froze or merged
//! since the last one, not the index. The byte formats are
//! [`serialize`]'s: one segment-block codec inside three
//! checksummed containers.
//!
//! # Commit protocol
//!
//! A checkpoint installs generation `g+1` in this order, each file made
//! durable before the commit point (under [`FsyncPolicy::Always`]):
//!
//! 1. for each frozen segment no kept file holds yet: serialize it to
//!    `seg-<n>.acorn.tmp` → fsync → rename to its final name (`<n>` is a
//!    store-wide counter, never reused);
//! 2. serialize the checkpoint to `snap-<g+1>.acorn.tmp` → fsync → rename →
//!    fsync the directory, which makes this rename and step 1's durable;
//! 3. create a fresh `wal-<g+1>.log` (header only) → fsync;
//! 4. **commit point**: write `MANIFEST.tmp` → fsync → rename over
//!    `MANIFEST` → fsync the directory;
//! 5. collect garbage: `*.tmp`, generations older than `g`, and every
//!    segment file that neither `g+1` nor `g` (kept as fallback) references —
//!    merged-away segments and the orphans of a crashed checkpoint alike.
//!
//! A crash anywhere before step 4 leaves `MANIFEST` pointing at `g`, whose
//! checkpoint, WAL and segment files are untouched — recovery reopens `g`
//! and the partial `g+1` files are overwritten or collected later. A crash
//! after step 4 loses nothing: `g+1` holds exactly the state `g + wal-g`
//! replays to.
//!
//! Every mutation is logged to the WAL **before** it is applied (one write
//! call per record, fsynced under [`FsyncPolicy::Always`]), so the
//! recovered index is always the replay of a legal prefix of the op log:
//! everything acknowledged-and-fsynced survives, and at most the single
//! in-flight op is lost. Structural ops (freeze/merge/compact) are logged
//! too — segment boundaries affect approximate answers, and replaying them
//! makes recovery bit-identical, not merely set-equivalent. A segment frozen
//! or merged since the last checkpoint exists only as those records until
//! the next checkpoint writes its file; replay re-derives it.
//!
//! # Recovery rules
//!
//! [`DurableIndex::open`] reads `MANIFEST` (falling back to the highest
//! generation that loads if the manifest is missing or corrupt), loads that
//! generation's checkpoint and every segment file it references — each
//! file's CRC32 footer is verified over the whole file before any length
//! field is trusted, and a segment file must be byte for byte the one the
//! checkpoint was written against — then replays the valid prefix of the
//! generation's WAL. A generation with a damaged checkpoint or segment file
//! falls back to its predecessor and that one's WAL; damage to a segment
//! file both reference is a clean `InvalidData`. A directory in any other
//! layout is `InvalidData` too. The loaded segments are remembered by the
//! files they came from, so the next checkpoint rewrites none of them. If
//! the WAL was torn, missing, or non-trivially replayed, open immediately
//! checkpoints, so the store never appends after a torn tail. Any I/O error
//! from a mutating call poisons the store (mutations fail fast until
//! reopened); the on-disk state stays consistent. The whole protocol is
//! swept by a fault-injection VFS — see [`vfs`] and
//! `crates/core/tests/crash_points.rs`.

pub mod vfs;
pub mod wal;

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use acorn_hnsw::checksum::crc32;

use crate::segment::MergeOutcome;
use crate::serialize::{self, Checkpoint, SegmentFileRef};
use crate::snapshot::{SegmentPayload, SegmentSnapshot, SegmentView};
use crate::SegmentedAcornIndex;

pub use vfs::{FailpointVfs, FaultPlan, StdVfs, Vfs, VfsFile};
pub use wal::WalOp;

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"ACMF";
const MANIFEST_VERSION: u32 = 1;

/// When the store calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync the WAL after every logged op and every checkpoint step. An
    /// `Ok` from a mutation means the op survives any crash.
    Always,
    /// Never fsync. For tests and benchmarks; crash safety then depends on
    /// the OS flushing in order.
    Never,
}

/// The two knobs of a [`DurableIndex`]: when to pay for an fsync, and how
/// much WAL to let a recovery replay.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// When to fsync (default [`FsyncPolicy::Always`]): what an `Ok` from a
    /// mutation promises about a crash.
    pub fsync: FsyncPolicy,
    /// Checkpoint automatically once the WAL outgrows this many bytes
    /// (`0` = only on explicit [`DurableIndex::checkpoint`] calls). Bounds
    /// both the log on disk and the replay a reopen pays. Default 8 MiB.
    pub wal_max_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self { fsync: FsyncPolicy::Always, wal_max_bytes: 8 << 20 }
    }
}

/// A [`SegmentedAcornIndex`] bound to a directory with crash-safe
/// persistence: write-once segment files, checksummed checkpoints, a
/// write-ahead log, and atomic generation commits. See the
/// [module docs](self) for the protocol.
///
/// All mutations go through this wrapper (there is deliberately no `&mut`
/// access to the inner index): each one is WAL-logged before it is applied,
/// which is what makes recovery bit-identical. Reads are free — borrow the
/// inner index with [`index`](Self::index) and ask its snapshot, or serve
/// concurrently through its reader handles.
#[derive(Debug)]
pub struct DurableIndex {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    opts: DurabilityOptions,
    index: SegmentedAcornIndex,
    generation: u64,
    wal: Option<Box<dyn VfsFile>>,
    wal_bytes: u64,
    /// The record being appended; one allocation for the handle's lifetime.
    wal_record: Vec<u8>,
    /// The segment files the committed generation references, each with the
    /// payload it holds: a frozen segment is its `Arc<SegmentPayload>`, so a
    /// pointer match means the file on disk is this segment's. The weak
    /// handle keeps the address from being reused while the entry lives
    /// without keeping a merged-away segment's rows and graph alive.
    seg_files: Vec<(Weak<SegmentPayload>, SegmentFileRef)>,
    /// The number the next segment file gets; never reused.
    next_seg_file: u64,
    recovered_ops: u64,
    checkpoints: u64,
    poisoned: bool,
}

impl DurableIndex {
    // -- construction -------------------------------------------------------

    /// Create a new durable store in `dir` (created if missing), seeded
    /// with `index` as generation 0. Fails with `AlreadyExists` if the
    /// directory already holds a store — use [`open`](Self::open) for that.
    pub fn create(
        dir: impl AsRef<Path>,
        index: SegmentedAcornIndex,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        Self::create_with_vfs(dir, index, opts, Arc::new(StdVfs))
    }

    /// [`create`](Self::create) against an explicit [`Vfs`] (fault
    /// injection, alternate filesystems).
    ///
    /// # Errors
    /// `AlreadyExists` as for [`create`](Self::create); `InvalidInput` for
    /// an index that [`SegmentSnapshot::save`] refuses, and any I/O error of
    /// writing generation 0.
    pub fn create_with_vfs(
        dir: impl AsRef<Path>,
        index: SegmentedAcornIndex,
        opts: DurabilityOptions,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let names = vfs.list(&dir)?;
        if vfs.exists(&dir.join(MANIFEST_NAME))
            || names.iter().any(|n| parse_gen(n, "snap-", ".acorn").is_some())
        {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory already holds a durable index; use DurableIndex::open",
            ));
        }
        let mut store = Self {
            dir,
            vfs,
            opts,
            index,
            generation: 0,
            wal: None,
            wal_bytes: 0,
            wal_record: Vec::new(),
            seg_files: Vec::new(),
            next_seg_file: next_seg_file(&names),
            recovered_ops: 0,
            checkpoints: 0,
            poisoned: false,
        };
        store.run(|s| s.install_generation(0))?;
        Ok(store)
    }

    /// Open the durable store in `dir`, recovering per the
    /// [recovery rules](self#recovery-rules).
    pub fn open(dir: impl AsRef<Path>, opts: DurabilityOptions) -> io::Result<Self> {
        Self::open_with_vfs(dir, opts, Arc::new(StdVfs))
    }

    /// [`open`](Self::open) against an explicit [`Vfs`].
    pub fn open_with_vfs(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
        vfs: Arc<dyn Vfs>,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let names = vfs.list(&dir)?;

        // Candidate generations: the manifest's first, then every
        // checkpoint on disk from newest to oldest (reached only if the
        // manifest or one of its generation's files is damaged — bit rot,
        // not crashes).
        let manifest_gen = read_manifest(&*vfs, &dir);
        let mut snap_gens: Vec<u64> =
            names.iter().filter_map(|n| parse_gen(n, "snap-", ".acorn")).collect();
        snap_gens.sort_unstable_by(|a, b| b.cmp(a));
        let mut candidates = Vec::new();
        candidates.extend(manifest_gen);
        candidates.extend(snap_gens.into_iter().filter(|g| Some(*g) != manifest_gen));

        let mut last_err =
            io::Error::new(io::ErrorKind::NotFound, "no durable index found in directory");
        let mut chosen = None;
        for g in candidates {
            match load_generation(&*vfs, &dir, g) {
                Ok((index, refs)) => {
                    chosen = Some((g, index, refs));
                    break;
                }
                Err(e) => last_err = e,
            }
        }
        let Some((generation, mut index, refs)) = chosen else { return Err(last_err) };
        // Which file holds which segment, taken before replay can merge any
        // of them away: the next checkpoint rewrites none of these.
        let seg_files = held_by(&index.snapshot(), refs);

        // Replay the valid prefix of this generation's WAL, op by op as it
        // is decoded.
        let wal_file = wal_path(&dir, generation);
        let (recovered_ops, valid_len, file_len, wal_present) = match vfs.read(&wal_file) {
            Ok(buf) => {
                let dim = index.snapshot().dim();
                let (ops, valid) = wal::replay(&buf, dim, |op| apply(&mut index, op))?;
                (ops, valid, buf.len(), true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 0, 0, false),
            Err(e) => return Err(e),
        };

        let mut store = Self {
            dir,
            vfs,
            opts,
            index,
            generation,
            wal: None,
            wal_bytes: 0,
            wal_record: Vec::new(),
            seg_files,
            next_seg_file: next_seg_file(&names),
            recovered_ops,
            checkpoints: 0,
            poisoned: false,
        };
        let clean = wal_present && file_len >= wal::WAL_HEADER.len() && valid_len == file_len;
        if clean {
            // Intact WAL: keep appending to it.
            store.run(|s| {
                s.wal = Some(s.vfs.append(&wal_file)?);
                s.wal_bytes = file_len as u64;
                // Segment files stay until a checkpoint knows what the two
                // generations it keeps reference.
                s.prune_stale(None)
            })?;
        } else {
            // Torn tail, missing file, or headerless stub: never append
            // after garbage — roll a fresh generation instead.
            store.run(|s| s.install_generation(s.generation + 1))?;
        }
        Ok(store)
    }

    // -- mutations (all WAL-first) ------------------------------------------

    /// Insert a vector, returning its durable global id. The record is
    /// logged (and fsynced, under [`FsyncPolicy::Always`]) before it is
    /// applied, so an `Ok` means the insert survives a crash.
    ///
    /// # Errors
    /// `InvalidInput` for a vector of the wrong dimension or with a
    /// non-finite component: refused before anything is logged, so the
    /// handle stays usable and the row can never reach a replay.
    pub fn insert(&mut self, v: &[f32]) -> io::Result<u64> {
        let dim = self.index.snapshot().dim();
        if v.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("inserted vector has dimension {}, not {dim}", v.len()),
            ));
        }
        if v.iter().any(|x| !x.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "inserted vector has a non-finite component",
            ));
        }
        self.run(|s| {
            let gid = s.index.snapshot().next_global_id();
            s.append_op(WalOp::Insert { gid, vector: v })?;
            let got = s.index.insert(v);
            debug_assert_eq!(got, gid);
            s.maybe_auto_checkpoint()?;
            Ok(gid)
        })
    }

    /// Tombstone `gid`. Returns `false` (and logs nothing) if it was not
    /// live.
    pub fn delete(&mut self, gid: u64) -> io::Result<bool> {
        self.run(|s| {
            if !s.index.snapshot().contains(gid) {
                return Ok(false);
            }
            s.append_op(WalOp::Delete { gid })?;
            let deleted = s.index.delete(gid);
            debug_assert!(deleted);
            s.maybe_auto_checkpoint()?;
            Ok(true)
        })
    }

    /// Seal the active segment (logged; a no-op on an empty active segment
    /// logs nothing).
    pub fn freeze(&mut self) -> io::Result<()> {
        self.run(|s| {
            if s.index.active_rows() == 0 {
                return Ok(());
            }
            s.append_op(WalOp::Freeze)?;
            s.index.freeze();
            s.maybe_auto_checkpoint()
        })
    }

    /// Run one policy-driven merge pass (logged).
    pub fn merge(&mut self) -> io::Result<MergeOutcome> {
        self.run(|s| {
            s.append_op(WalOp::Merge)?;
            let out = s.index.merge();
            s.maybe_auto_checkpoint()?;
            Ok(out)
        })
    }

    /// Freeze and compact everything into one segment (logged).
    pub fn compact_all(&mut self) -> io::Result<MergeOutcome> {
        self.run(|s| {
            s.append_op(WalOp::CompactAll)?;
            let out = s.index.compact_all();
            s.maybe_auto_checkpoint()?;
            Ok(out)
        })
    }

    /// Write a new checkpoint generation — plus a segment file for each
    /// segment frozen or merged since the last one — and truncate the WAL
    /// (the atomic [commit protocol](self#commit-protocol)).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.run(|s| s.install_generation(s.generation + 1))
    }

    // -- reads --------------------------------------------------------------

    /// The underlying index — the one read: pin its
    /// [`snapshot`](SegmentedAcornIndex::snapshot) or take a
    /// [`reader`](SegmentedAcornIndex::reader) handle to serve concurrently.
    pub fn index(&self) -> &SegmentedAcornIndex {
        &self.index
    }

    /// The committed checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current WAL size in bytes (header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Ops replayed from the WAL when this handle was opened.
    pub fn recovered_ops(&self) -> u64 {
        self.recovered_ops
    }

    /// Checkpoints taken through this handle (auto + explicit + recovery).
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether an earlier I/O error poisoned this handle (mutations fail
    /// fast; reopen to recover).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    // -- internals ----------------------------------------------------------

    /// Run a mutating step; any error poisons the handle, because a failed
    /// protocol step leaves the in-memory bookkeeping out of sync with disk
    /// (the on-disk state itself stays consistent — that is the point).
    fn run<T>(&mut self, f: impl FnOnce(&mut Self) -> io::Result<T>) -> io::Result<T> {
        if self.poisoned {
            return Err(io::Error::other(
                "durable store poisoned by an earlier I/O error; reopen it",
            ));
        }
        let r = f(self);
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn checkpoint_syncs(&self) -> bool {
        self.opts.fsync != FsyncPolicy::Never
    }

    fn append_op(&mut self, op: WalOp<'_>) -> io::Result<()> {
        wal::encode(&mut self.wal_record, op);
        let w = self.wal.as_mut().expect("store always holds a WAL handle when not poisoned");
        // One write call per record: a crash tears at most this record,
        // and the replay-time checksum discards the torn tail.
        w.write_all(&self.wal_record)?;
        if self.opts.fsync == FsyncPolicy::Always {
            w.sync()?;
        }
        self.wal_bytes += self.wal_record.len() as u64;
        Ok(())
    }

    fn maybe_auto_checkpoint(&mut self) -> io::Result<()> {
        if self.opts.wal_max_bytes > 0 && self.wal_bytes > self.opts.wal_max_bytes {
            self.install_generation(self.generation + 1)?;
        }
        Ok(())
    }

    /// Write `bytes` to `path` by way of `<path>.tmp`: a reader sees the
    /// whole file under its final name or no file at all. The rename is
    /// durable once the caller has synced the directory.
    fn write_atomically(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut f = self.vfs.create(&tmp)?;
        f.write_all(bytes)?;
        if self.checkpoint_syncs() {
            f.sync()?;
        }
        drop(f);
        self.vfs.rename(&tmp, path)
    }

    /// The reference to `seg`'s file: the one on disk if a kept file
    /// already holds this segment, a freshly written one otherwise.
    fn segment_file(&mut self, seg: &SegmentView) -> io::Result<SegmentFileRef> {
        let payload = Arc::as_ptr(&seg.payload);
        if let Some((_, on_disk)) = self.seg_files.iter().find(|(p, _)| p.as_ptr() == payload) {
            return Ok(*on_disk);
        }
        let file = self.next_seg_file;
        self.next_seg_file += 1;
        let mut bytes = Vec::new();
        let written = serialize::save_segment_file(&mut bytes, file, seg)?;
        self.write_atomically(&seg_path(&self.dir, file), &bytes)?;
        Ok(written)
    }

    /// The commit protocol: install `next` as the committed generation.
    fn install_generation(&mut self, next: u64) -> io::Result<()> {
        let snap = self.index.snapshot();

        // 1. Segment files, for the frozen segments no kept file holds.
        let mut refs = Vec::with_capacity(snap.frozen_segments().len());
        for seg in snap.frozen_segments() {
            refs.push(self.segment_file(seg)?);
        }

        // 2. The checkpoint, atomically. One directory fsync covers its
        //    rename and the segment files' before it.
        let mut bytes = Vec::new();
        serialize::save_checkpoint(&mut bytes, &snap, &refs)?;
        self.write_atomically(&snap_path(&self.dir, next), &bytes)?;
        if self.checkpoint_syncs() {
            self.vfs.sync_dir(&self.dir)?;
        }

        // 3. Fresh WAL for the new generation. Created before the commit
        //    point so a committed generation always has its (possibly
        //    empty) WAL on disk.
        self.wal = None;
        let mut w = self.vfs.create(&wal_path(&self.dir, next))?;
        w.write_all(&wal::WAL_HEADER)?;
        if self.checkpoint_syncs() {
            w.sync()?;
        }

        // 4. Commit point: the manifest rename.
        let mut content = Vec::with_capacity(20);
        content.extend_from_slice(MANIFEST_MAGIC);
        content.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        content.extend_from_slice(&next.to_le_bytes());
        content.extend_from_slice(&crc32(&content).to_le_bytes());
        self.write_atomically(&self.dir.join(MANIFEST_NAME), &content)?;
        if self.checkpoint_syncs() {
            self.vfs.sync_dir(&self.dir)?;
        }

        self.wal = Some(w);
        self.wal_bytes = wal::WAL_HEADER.len() as u64;
        self.generation = next;
        self.checkpoints += 1;
        let previous = std::mem::replace(&mut self.seg_files, held_by(&snap, refs));

        // 5. Retire everything older than the previous generation, and the
        //    segment files neither generation references.
        let live: Vec<u64> =
            previous.iter().chain(&self.seg_files).map(|(_, on_disk)| on_disk.file).collect();
        self.prune_stale(Some(&live))
    }

    /// Remove `*.tmp` files, generations other than the current one and its
    /// predecessor (kept, WAL included, as a lossless bit-rot fallback to
    /// the checkpoint state) and — when the caller knows which are live —
    /// the segment files neither of the two references.
    fn prune_stale(&mut self, live_segments: Option<&[u64]>) -> io::Result<()> {
        let keep_from = self.generation.saturating_sub(1);
        let kept = |g: u64| keep_from <= g && g <= self.generation;
        for name in self.vfs.list(&self.dir)? {
            let stale = if name.ends_with(".tmp") {
                true
            } else if let Some(g) = parse_gen(&name, "snap-", ".acorn") {
                !kept(g)
            } else if let Some(g) = parse_gen(&name, "wal-", ".log") {
                !kept(g)
            } else if let Some(n) = parse_gen(&name, "seg-", ".acorn") {
                live_segments.is_some_and(|live| !live.contains(&n))
            } else {
                false
            };
            if stale {
                self.vfs.remove(&self.dir.join(name))?;
            }
        }
        Ok(())
    }
}

/// Load generation `gen`: its checkpoint joined with the segment files it
/// references, and those references in segment order.
fn load_generation(
    vfs: &dyn Vfs,
    dir: &Path,
    gen: u64,
) -> io::Result<(SegmentedAcornIndex, Vec<SegmentFileRef>)> {
    Checkpoint::load(&vfs.read(&snap_path(dir, gen))?)?
        .into_index(|seg| vfs.read(&seg_path(dir, seg.file)))
}

/// `refs` (one per frozen segment of `snap`, in order), each beside a weak
/// handle on the payload its file holds.
fn held_by(
    snap: &SegmentSnapshot,
    refs: Vec<SegmentFileRef>,
) -> Vec<(Weak<SegmentPayload>, SegmentFileRef)> {
    snap.frozen_segments().iter().map(|seg| Arc::downgrade(&seg.payload)).zip(refs).collect()
}

/// Apply one replayed op. Fails (rather than corrupting) if the record is
/// inconsistent with the snapshot it claims to extend.
fn apply(index: &mut SegmentedAcornIndex, op: WalOp<'_>) -> io::Result<()> {
    match op {
        WalOp::Insert { gid, vector } => {
            let state = index.snapshot();
            if vector.len() != state.dim() || gid != state.next_global_id() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "WAL insert record inconsistent with the snapshot it extends",
                ));
            }
            let got = index.insert(vector);
            debug_assert_eq!(got, gid);
        }
        WalOp::Delete { gid } => {
            index.delete(gid);
        }
        WalOp::Freeze => index.freeze(),
        WalOp::Merge => {
            index.merge();
        }
        WalOp::CompactAll => {
            index.compact_all();
        }
    }
    Ok(())
}

fn snap_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snap-{gen:010}.acorn"))
}

fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:010}.log"))
}

fn seg_path(dir: &Path, file: u64) -> PathBuf {
    dir.join(format!("seg-{file:010}.acorn"))
}

/// One past the highest segment file number among `names`: a number no file
/// on disk has, a crashed checkpoint's orphans included.
fn next_seg_file(names: &[String]) -> u64 {
    names.iter().filter_map(|n| parse_gen(n, "seg-", ".acorn")).max().map_or(0, |n| n + 1)
}

/// Parse `"<prefix><digits><suffix>"` into the generation or file number.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

/// The committed generation, if the manifest exists and passes its CRC.
fn read_manifest(vfs: &dyn Vfs, dir: &Path) -> Option<u64> {
    let buf = vfs.read(&dir.join(MANIFEST_NAME)).ok()?;
    if buf.len() != 20 || &buf[..4] != MANIFEST_MAGIC {
        return None;
    }
    if u32::from_le_bytes(buf[4..8].try_into().unwrap()) != MANIFEST_VERSION {
        return None;
    }
    if crc32(&buf[..16]) != u32::from_le_bytes(buf[16..20].try_into().unwrap()) {
        return None;
    }
    Some(u64::from_le_bytes(buf[8..16].try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AcornParams, AcornVariant, MergePolicy, PruneStrategy};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "acorn-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn params() -> AcornParams {
        AcornParams {
            m: 8,
            gamma: 2,
            m_beta: 12,
            ef_construction: 32,
            seed: 7,
            ..AcornParams::default()
        }
    }

    fn vec_for(i: u64, dim: usize) -> Vec<f32> {
        (0..dim).map(|d| ((i * 31 + d as u64 * 7) % 97) as f32 / 97.0).collect()
    }

    fn fast_opts() -> DurabilityOptions {
        DurabilityOptions { fsync: FsyncPolicy::Never, ..Default::default() }
    }

    #[test]
    fn create_insert_reopen_roundtrips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let dim = 6;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::Gamma);
        let mut store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        for i in 0..40u64 {
            assert_eq!(store.insert(&vec_for(i, dim)).unwrap(), i);
        }
        store.freeze().unwrap();
        for i in 40..60u64 {
            store.insert(&vec_for(i, dim)).unwrap();
        }
        assert!(store.delete(3).unwrap());
        assert!(!store.delete(3).unwrap(), "double delete is a logged-nothing no-op");
        store.merge().unwrap();

        let reopened = DurableIndex::open(&dir, fast_opts()).unwrap();
        let mut a = Vec::new();
        store.index().snapshot().save(&mut a).unwrap();
        let mut b = Vec::new();
        reopened.index().snapshot().save(&mut b).unwrap();
        assert_eq!(a, b, "recovered index must be bit-identical");
        assert_eq!(reopened.recovered_ops(), store.wal_records_hint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_survives_reopen() {
        let dir = tmp_dir("ckpt");
        let dim = 4;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let mut store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        for i in 0..25u64 {
            store.insert(&vec_for(i, dim)).unwrap();
        }
        let wal_before = store.wal_bytes();
        assert!(wal_before > wal::WAL_HEADER.len() as u64);
        store.checkpoint().unwrap();
        assert_eq!(store.generation(), 1);
        assert_eq!(store.wal_bytes(), wal::WAL_HEADER.len() as u64);

        let reopened = DurableIndex::open(&dir, fast_opts()).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(reopened.recovered_ops(), 0, "a checkpointed store replays nothing");
        assert_eq!(reopened.index().snapshot().len(), 25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_checkpoint_fires_on_wal_growth() {
        let dir = tmp_dir("auto");
        let dim = 4;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let opts = DurabilityOptions { fsync: FsyncPolicy::Never, wal_max_bytes: 256 };
        let mut store = DurableIndex::create(&dir, idx, opts).unwrap();
        for i in 0..64u64 {
            store.insert(&vec_for(i, dim)).unwrap();
        }
        assert!(store.generation() > 0, "WAL growth must trigger auto-checkpoints");
        assert!(store.wal_bytes() <= 256 + 64, "WAL stays near the bound");
        let reopened = DurableIndex::open(&dir, fast_opts()).unwrap();
        assert_eq!(reopened.index().snapshot().len(), 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_an_existing_store_and_open_refuses_an_empty_dir() {
        let dir = tmp_dir("guard");
        let dim = 3;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        drop(store);
        let idx2 = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let err = DurableIndex::create(&dir, idx2, fast_opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);

        let empty = tmp_dir("guard-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(DurableIndex::open(&empty, fast_opts()).is_err());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn save_and_create_refuse_a_prune_strategy_the_format_cannot_hold() {
        // The header has no prune field and every load prunes with
        // `AcornCompress`: an `RngBlind` index that saved and recovered
        // would build a different graph on its next insert than the
        // never-saved one.
        let dim = 4;
        let blind = AcornParams { prune: PruneStrategy::RngBlind, ..params() };
        let mut idx = SegmentedAcornIndex::new(dim, blind, AcornVariant::Gamma);
        for i in 0..30u64 {
            idx.insert(&vec_for(i, dim));
        }
        idx.freeze();
        idx.insert(&vec_for(30, dim));
        let err = idx.snapshot().save(&mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");

        let dir = tmp_dir("prune");
        let err = DurableIndex::create(&dir, idx, fast_opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(DurableIndex::open(&dir, fast_opts()).is_err(), "nothing was committed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_and_create_refuse_a_merge_policy_the_loader_would_reject() {
        // `get_manifest` rejects these fractions, so bytes that held one
        // could never be loaded, and a store created with one could never
        // be reopened.
        let dim = 4;
        for fraction in [f64::NAN, -0.5, f64::INFINITY] {
            let policy = MergePolicy { max_tombstone_fraction: fraction, ..Default::default() };
            let mut idx =
                SegmentedAcornIndex::new(dim, params(), AcornVariant::Gamma).with_policy(policy);
            for i in 0..10u64 {
                idx.insert(&vec_for(i, dim));
            }
            let err = idx.snapshot().save(&mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{fraction}: {err}");

            let dir = tmp_dir("policy");
            let err = DurableIndex::create(&dir, idx, fast_opts()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{fraction}: {err}");
            assert!(DurableIndex::open(&dir, fast_opts()).is_err(), "nothing was committed");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_manifest_falls_back_to_the_newest_valid_snapshot() {
        let dir = tmp_dir("fallback");
        let dim = 4;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let mut store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        for i in 0..10u64 {
            store.insert(&vec_for(i, dim)).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        std::fs::write(dir.join(MANIFEST_NAME), b"garbage").unwrap();
        let reopened = DurableIndex::open(&dir, fast_opts()).unwrap();
        assert_eq!(reopened.index().snapshot().len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_refuses_bad_vectors_before_logging_them() {
        let dir = tmp_dir("total");
        let dim = 4;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let mut store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        assert_eq!(store.insert(&vec_for(0, dim)).unwrap(), 0);
        let wal_before = store.wal_bytes();

        let mut nan = vec_for(1, dim);
        nan[2] = f32::NAN;
        let mut inf = vec_for(1, dim);
        inf[0] = f32::NEG_INFINITY;
        for bad in [vec_for(1, dim + 1), vec_for(1, dim - 1), Vec::new(), nan, inf] {
            let err = store.insert(&bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}: {err}");
            assert_eq!(store.wal_bytes(), wal_before, "a refused row must not reach the WAL");
            assert!(!store.is_poisoned(), "a refused row is the caller's error, not the store's");
        }
        assert_eq!(store.insert(&vec_for(1, dim)).unwrap(), 1, "no gid was spent on a refusal");

        let reopened = DurableIndex::open(&dir, fast_opts()).unwrap();
        assert_eq!((reopened.recovered_ops(), reopened.index().snapshot().len()), (2, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_in_another_layout_is_invalid_data() {
        // The store has one layout. A whole-index v6 file where a
        // checkpoint belongs (what earlier stores wrote) is refused by its
        // magic; so is a checkpoint offered as an index export.
        let dir = tmp_dir("layout");
        let dim = 4;
        let idx = SegmentedAcornIndex::new(dim, params(), AcornVariant::One);
        let mut store = DurableIndex::create(&dir, idx, fast_opts()).unwrap();
        for i in 0..10u64 {
            store.insert(&vec_for(i, dim)).unwrap();
        }
        store.freeze().unwrap();
        store.checkpoint().unwrap();
        let checkpoint = std::fs::read(snap_path(&dir, 1)).unwrap();
        let err = SegmentedAcornIndex::load(&mut checkpoint.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut export = Vec::new();
        store.index().snapshot().save(&mut export).unwrap();
        drop(store);
        for gen in [0, 1] {
            std::fs::write(snap_path(&dir, gen), &export).unwrap();
        }
        let err = DurableIndex::open(&dir, fast_opts()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not an ACORN checkpoint file"), "unexpected: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    impl DurableIndex {
        /// Test helper: ops currently sitting in the WAL (derived, not a
        /// separate counter, so it can't drift).
        fn wal_records_hint(&self) -> u64 {
            // 40 inserts + freeze + 20 inserts + 1 delete + merge = 63 in
            // the roundtrip test; recomputed there from known op counts.
            // This helper only exists to keep that assertion honest if the
            // test evolves — parse the WAL file directly.
            let buf = self.vfs.read(&wal_path(&self.dir, self.generation)).unwrap();
            wal::replay(&buf, self.index.snapshot().dim(), |_| Ok(())).unwrap().0
        }
    }
}
