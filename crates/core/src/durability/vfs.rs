//! The virtual filesystem the durable store is written against.
//!
//! [`DurableIndex`](super::DurableIndex) never touches `std::fs` directly;
//! every byte it persists flows through the [`Vfs`] / [`VfsFile`] traits.
//! Production uses [`StdVfs`] (a thin veneer over `std::fs` that knows how
//! to fsync directories). Tests use [`FailpointVfs`], which wraps it and
//! injects a fault — a torn write, a failed rename, a failed fsync, a short
//! read — at exactly the N-th injectable operation, as counted by a shared
//! [`FaultPlan`]. Sweeping N over every reachable operation is how
//! the crash-point tests prove that *no* single kill point can corrupt the
//! store (see `crates/core/tests/crash_points.rs`).
//!
//! The fault model is "the process died there": once the armed point fires,
//! the first faulted write persists only a prefix of its buffer (a torn
//! write) and **every subsequent operation on the same plan fails too**.
//! A store that shrugged off an I/O error and kept going would otherwise
//! look healthier than it is.
//!
//! The store hands a whole checkpoint or segment file to one `write_all`.
//! A real kernel may persist any prefix of that, so the fault-injecting
//! file accepts at most `WRITE_CAP` (256) bytes per `write` call (`Write`
//! allows a short count; `write_all` comes back with the rest): a kill
//! point falls every `WRITE_CAP` bytes of a large file and a torn write
//! still persists a strict prefix. The granularity belongs to the fault
//! model, so it lives here and not among the production options.

use std::fmt::Debug;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A writable file handle produced by a [`Vfs`].
///
/// `sync` must not return until the bytes written so far are durable (the
/// `fsync` contract); droppping a handle without `sync` makes no promises.
pub trait VfsFile: Write + Send + Debug {
    /// Flush written bytes all the way to stable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the durable store needs, made swappable so the
/// fault-injection harness can interpose on every one of them.
pub trait Vfs: Send + Sync + Debug {
    /// Create (or truncate) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open `path` for appending, creating it if absent.
    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the entire contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory itself, making renames/creates in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of the entries in `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// StdVfs — the real filesystem
// ---------------------------------------------------------------------------

/// The production [`Vfs`]: `std::fs` plus directory fsync.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

#[derive(Debug)]
struct StdFile(fs::File);

impl Write for StdFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for StdFile {
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(fs::File::create(path)?)))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(fs::OpenOptions::new().create(true).append(true).open(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it is the POSIX way to
        // make the directory entry mutations (rename, create) durable.
        fs::File::open(dir)?.sync_all()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Shared fault-point counter driving a [`FailpointVfs`].
///
/// Every *injectable* operation (write, fsync, rename, remove — and reads,
/// when [`set_read_faults`](Self::set_read_faults) is on) increments the
/// counter. If the plan is [armed](Self::arm) at point `N`, the `N`-th
/// operation fails — a write persists only half its buffer first (a torn
/// write) — and all later operations fail outright, modeling a process that
/// died at that instant. Run once with the plan disarmed to count the
/// reachable points, then sweep `N` over `1..=points_passed()`.
#[derive(Debug, Default)]
pub struct FaultPlan {
    counter: AtomicU64,
    trigger: AtomicU64,
    read_faults: AtomicBool,
}

/// The most bytes one `write` call on a [`FailpointFile`] accepts.
const WRITE_CAP: usize = 256;

/// What a single injectable operation should do.
enum Fire {
    /// Proceed normally.
    No,
    /// The armed point: tear the write (persist a prefix), then fail.
    Torn,
    /// Past the armed point: the process is dead; fail outright.
    Dead,
}

impl FaultPlan {
    /// A fresh, disarmed plan behind an [`Arc`] (handed to both the VFS and
    /// the sweeping test).
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// Arm the plan to fail at the `point`-th injectable operation
    /// (1-based) and reset the counter. `0` disarms.
    pub fn arm(&self, point: u64) {
        self.counter.store(0, Ordering::SeqCst);
        self.trigger.store(point, Ordering::SeqCst);
    }

    /// Disarm the plan and reset the counter (used for the counting pass).
    pub fn disarm(&self) {
        self.arm(0);
    }

    /// How many injectable operations have been counted since the last
    /// [`arm`](Self::arm)/[`disarm`](Self::disarm).
    pub fn points_passed(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    /// Also count (and fault) reads, injecting *short reads* — recovery
    /// paths are exercised too, not just the write path.
    pub fn set_read_faults(&self, on: bool) {
        self.read_faults.store(on, Ordering::SeqCst);
    }

    fn fire(&self) -> Fire {
        let c = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        let t = self.trigger.load(Ordering::SeqCst);
        if t == 0 || c < t {
            Fire::No
        } else if c == t {
            Fire::Torn
        } else {
            Fire::Dead
        }
    }

    fn check(&self) -> io::Result<()> {
        match self.fire() {
            Fire::No => Ok(()),
            Fire::Torn | Fire::Dead => Err(injected()),
        }
    }
}

fn injected() -> io::Error {
    io::Error::other("injected fault (FailpointVfs)")
}

/// The real filesystem ([`StdVfs`]) with faults injected according to a
/// [`FaultPlan`].
#[derive(Debug)]
pub struct FailpointVfs {
    inner: StdVfs,
    plan: Arc<FaultPlan>,
}

impl FailpointVfs {
    /// Wrap the real filesystem with fault injection driven by `plan`.
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        Self { inner: StdVfs, plan }
    }
}

impl Vfs for FailpointVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Opening a handle is not itself a kill point; the writes are.
        Ok(Box::new(FailpointFile { inner: self.inner.create(path)?, plan: self.plan.clone() }))
    }

    fn append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FailpointFile { inner: self.inner.append(path)?, plan: self.plan.clone() }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if !self.plan.read_faults.load(Ordering::SeqCst) {
            return self.inner.read(path);
        }
        let buf = self.inner.read(path)?;
        match self.plan.fire() {
            Fire::No => Ok(buf),
            // A short read: the tail of the file never arrives.
            Fire::Torn => Ok(buf[..buf.len() / 2].to_vec()),
            Fire::Dead => Err(injected()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.plan.check()?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.plan.check()?;
        self.inner.remove(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.plan.check()?;
        self.inner.sync_dir(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// A file handle whose writes and fsyncs can fail mid-flight.
#[derive(Debug)]
pub struct FailpointFile {
    inner: Box<dyn VfsFile>,
    plan: Arc<FaultPlan>,
}

impl Write for FailpointFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let buf = &buf[..buf.len().min(WRITE_CAP)];
        match self.plan.fire() {
            Fire::No => self.inner.write(buf),
            Fire::Torn => {
                // Persist a strict prefix, then die: a torn write. The
                // caller sees the error; the bytes are on disk anyway.
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                Err(injected())
            }
            Fire::Dead => Err(injected()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for FailpointFile {
    fn sync(&mut self) -> io::Result<()> {
        self.plan.check()?;
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "acorn-vfs-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn std_vfs_roundtrip_rename_list() {
        let dir = tmp_dir("std");
        let vfs = StdVfs;
        let tmp = dir.join("a.tmp");
        let fin = dir.join("a.dat");
        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &fin).unwrap();
        vfs.sync_dir(&dir).unwrap();
        assert_eq!(vfs.read(&fin).unwrap(), b"hello");
        assert!(vfs.exists(&fin) && !vfs.exists(&tmp));
        assert_eq!(vfs.list(&dir).unwrap(), vec!["a.dat".to_string()]);
        let mut f = vfs.append(&fin).unwrap();
        f.write_all(b" world").unwrap();
        drop(f);
        assert_eq!(vfs.read(&fin).unwrap(), b"hello world");
        vfs.remove(&fin).unwrap();
        assert!(!vfs.exists(&fin));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn armed_point_tears_then_everything_fails() {
        let dir = tmp_dir("torn");
        let plan = FaultPlan::new();
        let vfs = FailpointVfs::new(plan.clone());

        // Counting pass: 2 writes + 1 sync + 1 rename = 4 points.
        plan.disarm();
        let path = dir.join("x.tmp");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        f.write_all(b"bbbb").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&path, &dir.join("x.dat")).unwrap();
        assert_eq!(plan.points_passed(), 4);

        // Arm point 2: first write lands, second is torn (2 of 4 bytes),
        // and the sync afterwards fails too.
        plan.arm(2);
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        assert!(f.write_all(b"bbbb").is_err());
        assert!(f.sync().is_err());
        drop(f);
        plan.disarm();
        assert_eq!(vfs.read(&path).unwrap(), b"aaaabb");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_reads_fire_only_when_enabled() {
        let dir = tmp_dir("reads");
        let plan = FaultPlan::new();
        let vfs = FailpointVfs::new(plan.clone());
        let path = dir.join("r.dat");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);

        plan.arm(1);
        // Reads are not injectable by default.
        assert_eq!(vfs.read(&path).unwrap(), b"0123456789");
        plan.set_read_faults(true);
        plan.arm(1);
        assert_eq!(vfs.read(&path).unwrap(), b"01234");
        assert!(vfs.read(&path).is_err(), "past the point the process is dead");
        fs::remove_dir_all(&dir).ok();
    }
}
