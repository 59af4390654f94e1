//! The store's filesystem seam: every byte [`crate::DiskTier`] moves to
//! or from disk goes through a [`StoreIo`] implementation.
//!
//! Production uses [`RealIo`] (plain `std::fs`). Tests — and the
//! `--fault-schedule` dev flag — wrap it in [`FaultIo`], which injects
//! the failures a loaded box actually throws at a storage engine:
//!
//! * **errno faults**: the Nth operation of a kind fails with `ENOSPC`,
//!   `EIO`, or `EACCES`;
//! * **short writes**: a write persists only a prefix of its bytes and
//!   reports failure (a torn segment or manifest);
//! * **rename loss**: a rename is dropped on the floor;
//! * **crash points**: after N mutating operations the "process" dies —
//!   the operation at the crash point is applied *partially* (torn write,
//!   un-applied rename) and every operation after it fails, freezing the
//!   directory in exactly the state a `kill -9` would leave. The harness
//!   then reopens the directory with a clean [`RealIo`] and checks the
//!   recovery invariants;
//! * **outages**: a runtime toggle ([`FaultIo::set_outage`]) under which
//!   every operation fails until the fault "clears" — how the degraded-
//!   mode serving tests simulate a disk falling over mid-traffic.
//!
//! Schedules are deterministic: the same [`FaultSchedule`] against the
//! same operation sequence injects the same faults, and torn-write prefix
//! lengths are derived from the schedule seed, so every failure a test
//! finds is replayable from its printed seed.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shareable [`StoreIo`] handle (the form [`crate::StoreConfig`] and
/// [`crate::DiskTier`] carry).
pub type DynStoreIo = Arc<dyn StoreIo>;

/// The filesystem operations the disk tier needs, factored behind one
/// object so faults can be injected deterministically between the tier
/// and the kernel. All paths are absolute (the tier joins its store
/// directory before calling).
pub trait StoreIo: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates a file and writes all of `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes a file's contents to stable storage (`fsync`).
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory (and parents) if absent.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not paths) in a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// A file's length in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Whether a path exists (faults are never injected here — existence
    /// probes guide quarantine naming, not durability).
    fn exists(&self, path: &Path) -> bool;
    /// Appends `bytes` to the end of a file, creating it if absent (the
    /// region tier's pack path).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Fills `buf` with the `buf.len()` bytes starting at `offset`; a
    /// range past the end of the file is an error, never a short read.
    ///
    /// A disk-tier entry read is several of these calls, not one: the
    /// tier reads each array of a pool (roots, then per piece index
    /// offsets and postings, plus the header and the small length
    /// fields between them) straight into the buffer that keeps it. So a `read:<kind>=N` fault rule counts each call, and one
    /// entry read spans many of `N`.
    fn read_at(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<()>;
    /// Truncates a file to `len` bytes (recovery trimming a torn region
    /// tail back to its last committed offset).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// The production [`StoreIo`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl RealIo {
    /// A shareable handle to the real filesystem.
    pub fn arc() -> DynStoreIo {
        Arc::new(RealIo)
    }
}

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for dirent in std::fs::read_dir(dir)? {
            let Ok(dirent) = dirent else { continue };
            names.push(dirent.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        file.write_all(bytes)
    }

    fn read_at(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut file = std::fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(len)
    }
}

/// The operation classes a [`FaultRule`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// File writes (segments, manifests, probe files).
    Write,
    /// Atomic renames (commits).
    Rename,
    /// File removals (evictions, temp sweeps).
    Remove,
    /// `fsync` calls.
    Sync,
    /// Reads: whole files and each `read_at` call of an entry read.
    Read,
    /// Directory listings.
    List,
}

impl FaultOp {
    fn parse(s: &str) -> Option<FaultOp> {
        Some(match s {
            "write" => FaultOp::Write,
            "rename" => FaultOp::Rename,
            "remove" => FaultOp::Remove,
            "sync" => FaultOp::Sync,
            "read" => FaultOp::Read,
            "list" => FaultOp::List,
            _ => return None,
        })
    }

    /// Whether the operation mutates directory state (what crash points
    /// count).
    fn mutating(self) -> bool {
        matches!(
            self,
            FaultOp::Write | FaultOp::Rename | FaultOp::Remove | FaultOp::Sync
        )
    }
}

/// What an injected fault does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ENOSPC`: the disk is full.
    Enospc,
    /// `EIO`: the device errored.
    Eio,
    /// `EACCES`: the path is not writable (read-only store directory).
    Eacces,
    /// A write persists only a deterministic prefix of its bytes, then
    /// reports failure (torn write). Non-write operations fail `EIO`.
    Short,
    /// A rename is silently not applied, then reports failure. Non-rename
    /// operations fail `EIO`.
    Loss,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "enospc" => FaultKind::Enospc,
            "eio" => FaultKind::Eio,
            "eacces" => FaultKind::Eacces,
            "short" => FaultKind::Short,
            "loss" => FaultKind::Loss,
            _ => return None,
        })
    }

    fn error(self, what: &str) -> io::Error {
        match self {
            FaultKind::Enospc => io::Error::new(
                io::ErrorKind::StorageFull,
                format!("injected ENOSPC: {what}"),
            ),
            FaultKind::Eacces => io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("injected EACCES: {what}"),
            ),
            FaultKind::Eio | FaultKind::Short | FaultKind::Loss => {
                io::Error::other(format!("injected EIO: {what}"))
            }
        }
    }
}

/// One injected fault: the `nth` operation of class `op` (0-based, per
/// class) fails with `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The operation class the rule targets.
    pub op: FaultOp,
    /// Which occurrence (0-based, counted per class).
    pub nth: u64,
    /// The failure to inject.
    pub kind: FaultKind,
}

/// A deterministic fault plan for one [`FaultIo`].
///
/// The text form (the CLI's `--fault-schedule`) is comma-separated:
///
/// ```text
/// seed=7,crash=12,write:enospc=3,rename:loss=0,read:eio=5,down
/// ```
///
/// * `seed=N` — seeds torn-write prefix lengths (default 0);
/// * `crash=N` — crash at the Nth mutating operation (0-based): that
///   operation is applied partially, everything after fails;
/// * `<op>:<kind>=N` — the Nth operation of that class fails with that
///   kind (`op` ∈ `write|rename|remove|sync|read|list`, `kind` ∈
///   `enospc|eio|eacces|short|loss`);
/// * `down` — start in a full outage (clearable at runtime with
///   [`FaultIo::set_outage`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Seed for deterministic torn-write prefixes.
    pub seed: u64,
    /// Crash at this mutating-operation index (see [`FaultIo`]).
    pub crash_after: Option<u64>,
    /// Per-operation fault rules.
    pub rules: Vec<FaultRule>,
    /// Whether the schedule starts in a full outage.
    pub down: bool,
}

impl FaultSchedule {
    /// A schedule that injects nothing (pass-through counting).
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A schedule that crashes at mutating operation `n`.
    pub fn crash_at(n: u64, seed: u64) -> FaultSchedule {
        FaultSchedule {
            seed,
            crash_after: Some(n),
            ..FaultSchedule::default()
        }
    }

    /// Parses the `--fault-schedule` text form (see the type docs).
    pub fn parse(spec: &str) -> Result<FaultSchedule, String> {
        let mut schedule = FaultSchedule::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "down" {
                schedule.down = true;
                continue;
            }
            let Some((lhs, rhs)) = part.split_once('=') else {
                return Err(format!(
                    "unparseable fault rule {part:?}: expected `down`, `seed=N`, `crash=N`, \
                     or `op:kind=N`"
                ));
            };
            let n: u64 = rhs
                .parse()
                .map_err(|_| format!("fault rule {part:?}: {rhs:?} is not an integer"))?;
            match lhs {
                "seed" => schedule.seed = n,
                "crash" => schedule.crash_after = Some(n),
                _ => {
                    let Some((op, kind)) = lhs.split_once(':') else {
                        return Err(format!(
                            "unknown fault key {lhs:?} (expected seed, crash, or op:kind)"
                        ));
                    };
                    let op = FaultOp::parse(op).ok_or_else(|| {
                        format!("unknown fault op {op:?} (write|rename|remove|sync|read|list)")
                    })?;
                    let kind = FaultKind::parse(kind).ok_or_else(|| {
                        format!("unknown fault kind {kind:?} (enospc|eio|eacces|short|loss)")
                    })?;
                    schedule.rules.push(FaultRule { op, nth: n, kind });
                }
            }
        }
        Ok(schedule)
    }
}

/// Per-class operation counters (how many of each the wrapped tier has
/// attempted).
#[derive(Debug, Default, Clone, Copy)]
struct OpCounts {
    write: u64,
    rename: u64,
    remove: u64,
    sync: u64,
    read: u64,
    list: u64,
}

impl OpCounts {
    fn bump(&mut self, op: FaultOp) -> u64 {
        let slot = match op {
            FaultOp::Write => &mut self.write,
            FaultOp::Rename => &mut self.rename,
            FaultOp::Remove => &mut self.remove,
            FaultOp::Sync => &mut self.sync,
            FaultOp::Read => &mut self.read,
            FaultOp::List => &mut self.list,
        };
        let n = *slot;
        *slot += 1;
        n
    }
}

/// What the schedule decided for one operation.
enum Verdict {
    /// Execute normally.
    Pass,
    /// Fail without touching the filesystem.
    Fail(io::Error),
    /// Write only a deterministic prefix, then fail (torn write).
    Torn,
    /// For renames: do not apply, then fail (rename loss / crash before
    /// the commit landed).
    Drop(io::Error),
}

/// A deterministic fault-injecting [`StoreIo`] wrapper. See the module
/// docs for the fault model and [`FaultSchedule`] for the plan format.
///
/// Thread-safe: the schedule state sits behind a mutex, so a `FaultIo`
/// can back a concurrent [`crate::PoolStore`]. Tests keep their own
/// `Arc<FaultIo>` clone to flip the outage switch or read counters while
/// the store holds the `DynStoreIo` half.
pub struct FaultIo {
    inner: DynStoreIo,
    schedule: FaultSchedule,
    counts: Mutex<OpCounts>,
    /// Mutating operations attempted so far (crash points index this).
    mutations: AtomicU64,
    crashed: AtomicBool,
    outage: AtomicBool,
    readonly: AtomicBool,
}

impl FaultIo {
    /// Wraps an inner [`StoreIo`] with a fault schedule.
    pub fn new(inner: DynStoreIo, schedule: FaultSchedule) -> Arc<FaultIo> {
        let down = schedule.down;
        Arc::new(FaultIo {
            inner,
            schedule,
            counts: Mutex::new(OpCounts::default()),
            mutations: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            outage: AtomicBool::new(down),
            readonly: AtomicBool::new(false),
        })
    }

    /// A fault-injecting wrapper over the real filesystem.
    pub fn over_real(schedule: FaultSchedule) -> Arc<FaultIo> {
        FaultIo::new(RealIo::arc(), schedule)
    }

    /// Raises or clears a full outage: while raised, every operation
    /// fails `EIO` without touching the filesystem. This is the runtime
    /// switch the degraded-mode tests flip mid-traffic.
    pub fn set_outage(&self, down: bool) {
        self.outage.store(down, Ordering::SeqCst);
    }

    /// Whether an outage is currently raised.
    pub fn outage(&self) -> bool {
        self.outage.load(Ordering::SeqCst)
    }

    /// Raises or clears a read-only condition: while raised, every
    /// *mutating* operation (write/rename/remove/sync) fails `EACCES`,
    /// but reads, listings, and stats keep working — the behavior of a
    /// store directory whose filesystem was remounted read-only.
    pub fn set_readonly(&self, readonly: bool) {
        self.readonly.store(readonly, Ordering::SeqCst);
    }

    /// Mutating operations (write/rename/remove/sync) attempted so far —
    /// how a harness sizes its crash-point matrix.
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// Whether a crash point has fired (all operations now fail).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Deterministic torn-write prefix length for mutation index `n`:
    /// a seeded hash folded into `0..len` (strictly shorter than the
    /// intended write, so a torn write is always detectable).
    fn torn_prefix(&self, n: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        use std::hash::Hasher as _;
        let mut h = oipa_graph::hashing::FxHasher::default();
        h.write_u64(self.schedule.seed);
        h.write_u64(n);
        (h.finish() as usize) % len
    }

    /// Applies the schedule to one operation attempt.
    fn decide(&self, op: FaultOp, what: &str) -> Verdict {
        if self.crashed.load(Ordering::SeqCst) {
            return Verdict::Fail(io::Error::other(format!(
                "injected crash: the process died before this {what}"
            )));
        }
        if self.outage.load(Ordering::SeqCst) {
            return Verdict::Fail(io::Error::other(format!("injected outage: {what}")));
        }
        if self.readonly.load(Ordering::SeqCst) && op.mutating() {
            return Verdict::Fail(FaultKind::Eacces.error(what));
        }
        let nth = {
            let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
            counts.bump(op)
        };
        let mutation = if op.mutating() {
            Some(self.mutations.fetch_add(1, Ordering::SeqCst))
        } else {
            None
        };
        if let (Some(m), Some(crash)) = (mutation, self.schedule.crash_after) {
            if m >= crash {
                self.crashed.store(true, Ordering::SeqCst);
                let err = || io::Error::other(format!("injected crash at mutation {m}: {what}"));
                return match op {
                    // The crash-point operation itself is torn: a write
                    // lands a prefix, a rename/remove/sync never applies.
                    FaultOp::Write => Verdict::Torn,
                    _ => Verdict::Drop(err()),
                };
            }
        }
        for rule in &self.schedule.rules {
            if rule.op == op && rule.nth == nth {
                return match rule.kind {
                    FaultKind::Short if op == FaultOp::Write => Verdict::Torn,
                    FaultKind::Loss if op == FaultOp::Rename => {
                        Verdict::Drop(rule.kind.error(what))
                    }
                    kind => Verdict::Fail(kind.error(what)),
                };
            }
        }
        Verdict::Pass
    }
}

impl StoreIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(FaultOp::Read, &format!("reading {}", path.display())) {
            Verdict::Pass => self.inner.read(path),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("reads are never torn"),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let what = format!("writing {} ({} bytes)", path.display(), bytes.len());
        match self.decide(FaultOp::Write, &what) {
            Verdict::Pass => self.inner.write(path, bytes),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => {
                // Torn write: a deterministic strict prefix lands, then
                // the operation reports failure — exactly what a crash or
                // a full disk leaves behind.
                let n = self.mutations.load(Ordering::SeqCst);
                let prefix = self.torn_prefix(n, bytes.len());
                let _ = self.inner.write(path, &bytes[..prefix]);
                Err(io::Error::other(format!(
                    "injected torn write: only {prefix} of {} bytes landed for {}",
                    bytes.len(),
                    path.display()
                )))
            }
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.decide(FaultOp::Sync, &format!("syncing {}", path.display())) {
            Verdict::Pass => self.inner.sync(path),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("syncs are never torn"),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let what = format!("renaming {} -> {}", from.display(), to.display());
        match self.decide(FaultOp::Rename, &what) {
            Verdict::Pass => self.inner.rename(from, to),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("renames drop, not tear"),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.decide(FaultOp::Remove, &format!("removing {}", path.display())) {
            Verdict::Pass => self.inner.remove(path),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("removes are never torn"),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Directory creation rides the outage/crash/read-only state but
        // takes no per-op rules: the store creates its directories once
        // at open.
        if self.crashed.load(Ordering::SeqCst)
            || self.outage.load(Ordering::SeqCst)
            || self.readonly.load(Ordering::SeqCst)
        {
            // Creating an already-existing directory is a no-op even on a
            // sick disk — only creation of something new can fail.
            if self.inner.exists(path) {
                return Ok(());
            }
            return Err(io::Error::other(format!(
                "injected fault: creating {}",
                path.display()
            )));
        }
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        match self.decide(FaultOp::List, &format!("listing {}", dir.display())) {
            Verdict::Pass => self.inner.list(dir),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("listings are never torn"),
        }
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        // Metadata reads ride the read class (a dead disk fails stat too).
        if self.crashed.load(Ordering::SeqCst) || self.outage.load(Ordering::SeqCst) {
            return Err(io::Error::other(format!(
                "injected fault: stat {}",
                path.display()
            )));
        }
        self.inner.len(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let what = format!("appending to {} ({} bytes)", path.display(), bytes.len());
        match self.decide(FaultOp::Write, &what) {
            Verdict::Pass => self.inner.append(path, bytes),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => {
                // A torn append lands a strict prefix at the end of the
                // file — the region tail a crash mid-append leaves behind.
                let n = self.mutations.load(Ordering::SeqCst);
                let prefix = self.torn_prefix(n, bytes.len());
                let _ = self.inner.append(path, &bytes[..prefix]);
                Err(io::Error::other(format!(
                    "injected torn append: only {prefix} of {} bytes landed for {}",
                    bytes.len(),
                    path.display()
                )))
            }
        }
    }

    fn read_at(&self, path: &Path, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let what = format!(
            "reading {} bytes at {offset} from {}",
            buf.len(),
            path.display()
        );
        match self.decide(FaultOp::Read, &what) {
            Verdict::Pass => self.inner.read_at(path, offset, buf),
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => unreachable!("reads are never torn"),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let what = format!("truncating {} to {len} bytes", path.display());
        match self.decide(FaultOp::Write, &what) {
            Verdict::Pass => self.inner.truncate(path, len),
            // A truncate cannot half-apply: torn means it never happened.
            Verdict::Fail(e) | Verdict::Drop(e) => Err(e),
            Verdict::Torn => Err(io::Error::other(format!("injected crash: {what}"))),
        }
    }
}

/// A loud path for fault-schedule parse errors in binaries.
pub fn parse_fault_schedule(spec: &str) -> Result<FaultSchedule, String> {
    FaultSchedule::parse(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("oipa-store-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn schedule_parses_every_form() {
        let s =
            FaultSchedule::parse("seed=7, crash=12, write:enospc=3, rename:loss=0, down").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.crash_after, Some(12));
        assert!(s.down);
        assert_eq!(
            s.rules,
            vec![
                FaultRule {
                    op: FaultOp::Write,
                    nth: 3,
                    kind: FaultKind::Enospc
                },
                FaultRule {
                    op: FaultOp::Rename,
                    nth: 0,
                    kind: FaultKind::Loss
                },
            ]
        );
        for bad in [
            "nonsense",
            "write:enospc",
            "write:bad=1",
            "jump:eio=1",
            "crash=x",
        ] {
            assert!(FaultSchedule::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(FaultSchedule::parse("").unwrap(), FaultSchedule::none());
    }

    #[test]
    fn nth_write_fails_with_the_scheduled_errno() {
        let io = FaultIo::over_real(FaultSchedule::parse("write:enospc=1").unwrap());
        let path = tmp("nth-write");
        io.write(&path, b"first").unwrap();
        let err = io.write(&path, b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        io.write(&path, b"third").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"third");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_write_lands_a_strict_prefix() {
        let io = FaultIo::over_real(FaultSchedule::parse("seed=3,write:short=0").unwrap());
        let path = tmp("short-write");
        let err = io.write(&path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 10, "a torn write must be strictly short");
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rename_loss_leaves_the_source_in_place() {
        let io = FaultIo::over_real(FaultSchedule::parse("rename:loss=0").unwrap());
        let a = tmp("loss-a");
        let b = tmp("loss-b");
        std::fs::write(&a, b"payload").unwrap();
        assert!(io.rename(&a, &b).is_err());
        assert!(a.exists() && !b.exists(), "a lost rename must not apply");
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn crash_freezes_everything_after_the_point() {
        let io = FaultIo::over_real(FaultSchedule::crash_at(2, 9));
        let a = tmp("crash-a");
        io.write(&a, b"one").unwrap(); // mutation 0
        io.sync(&a).unwrap(); // mutation 1
        let err = io.write(&a, b"longer-payload").unwrap_err(); // mutation 2: torn + crash
        assert!(err.to_string().contains("torn write"), "{err}");
        assert!(io.crashed());
        // Everything after the crash fails, reads included.
        assert!(io.write(&a, b"x").is_err());
        assert!(io.read(&a).is_err());
        assert!(io.remove(&a).is_err());
        // The directory state is what the torn op left: a prefix of the
        // second write over the first.
        let on_disk = std::fs::read(&a).unwrap();
        assert!(on_disk.len() < b"longer-payload".len());
        let _ = std::fs::remove_file(&a);
    }

    #[test]
    fn outage_toggles_at_runtime() {
        let io = FaultIo::over_real(FaultSchedule::none());
        let path = tmp("outage");
        io.write(&path, b"up").unwrap();
        io.set_outage(true);
        assert!(io.write(&path, b"down").is_err());
        assert!(io.read(&path).is_err());
        io.set_outage(false);
        assert_eq!(io.read(&path).unwrap(), b"up");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mutation_counter_counts_only_mutations() {
        let io = FaultIo::over_real(FaultSchedule::none());
        let path = tmp("mutcount");
        io.write(&path, b"x").unwrap();
        let _ = io.read(&path).unwrap();
        let _ = io.len(&path).unwrap();
        io.remove(&path).unwrap();
        assert_eq!(io.mutations(), 2, "write + remove; reads don't count");
    }

    #[test]
    fn append_and_read_at_round_trip_region_style() {
        let io = FaultIo::over_real(FaultSchedule::none());
        let path = tmp("append-roundtrip");
        let _ = std::fs::remove_file(&path);
        io.append(&path, b"first-").unwrap(); // creates the file
        io.append(&path, b"second").unwrap();
        assert_eq!(io.len(&path).unwrap(), 12);
        let mut buf = [0u8; 6];
        io.read_at(&path, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"first-");
        io.read_at(&path, 6, &mut buf).unwrap();
        assert_eq!(&buf, b"second");
        assert!(
            io.read_at(&path, 6, &mut [0u8; 7]).is_err(),
            "a read past the end must fail, not short-read"
        );
        io.truncate(&path, 6).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"first-");
        assert_eq!(io.mutations(), 3, "two appends + one truncate");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_append_lands_a_strict_prefix_at_the_tail() {
        let io = FaultIo::over_real(FaultSchedule::parse("seed=5,write:short=1").unwrap());
        let path = tmp("torn-append");
        let _ = std::fs::remove_file(&path);
        io.append(&path, b"committed!").unwrap(); // write op 0 passes
        let err = io.append(&path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn append"), "{err}");
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < 20, "the torn tail must be strictly short");
        assert_eq!(&on_disk[..10], b"committed!", "the committed prefix holds");
        // A crash-point truncate is dropped, never half-applied.
        let crash = FaultIo::over_real(FaultSchedule::crash_at(0, 1));
        assert!(crash.truncate(&path, 3).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), on_disk);
        let _ = std::fs::remove_file(&path);
    }
}
