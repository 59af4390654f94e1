//! Tier 1 of the pool store: checksummed pools packed into region files.
//!
//! A store directory holds one `index.json` manifest plus a small number
//! of fixed-capacity **region** files, each an append-only pack of many
//! pool payloads (the same shape foyer's storage layer uses — fixed-size
//! regions instead of a file per key, so a million cached pools cost a
//! handful of file handles, not a million inodes):
//!
//! ```text
//! store/
//! ├── index.json            manifest v5: epoch lineage, regions + key →
//! │                         (region, offset, bytes, crc, recency, epoch)
//! ├── region-00000001.dat   pool binio v4 payloads, appended back to back
//! │     ┌─────────┬──────────────┬────────┐
//! │     │ pool #0 │    pool #1   │ pool#2 │ … ← committed watermark
//! │     └─────────┴──────────────┴────────┘
//! ├── region-00000002.dat
//! └── quarantine/           corrupt / orphaned files moved aside by
//!     └── region-…dat       recovery and `gc` (never deleted silently)
//! ```
//!
//! Every entry is one binio v4 pool (CRC-32 trailer) at a manifest-
//! recorded `(region, offset, bytes)`. Writes **append** to the newest
//! region through the [`crate::io::StoreIo`] seam, sync, and then commit
//! by atomically rewriting the manifest — the manifest rename is the ack
//! point, so a torn append leaves at worst unindexed bytes past the
//! region's committed watermark, which the next open truncates away.
//! Reads take each array of an entry out of its region straight into the
//! buffer the decoded pool keeps (several [`crate::io::StoreIo::read_at`]
//! calls, every length checked against the manifest's byte count first)
//! and verify the CRC trailer over them; anything that fails to *parse*
//! is dropped (and its region quarantined once no live entry remains) —
//! never served, never silently deleted.
//! An I/O error (as opposed to a parse failure) never quarantines: the
//! bytes may be perfectly healthy on a sick disk, so the tier degrades
//! instead and keeps the entry.
//!
//! Eviction is per entry (LRU over manifest recency stamps, which
//! persist across restarts at both entry and region granularity); dead
//! bytes accumulate inside regions until [`DiskTier::gc`] rewrites the
//! affected regions, copying live entries into fresh packs and
//! reclaiming the rest — reported per region.
//!
//! A directory written under an earlier manifest schema — v1 (one
//! `pool-*.mrr` segment per key), v2 (no epochs), v3 (pool binio v2
//! payloads, which carry no inverted index) or v4 (pool binio v3
//! payloads, which also carry the forward sets) — is not read: its manifest
//! takes the unsupported-version path (quarantined, the tier starts
//! empty) and its data files are quarantined as orphans. The store is a
//! cache, so those keys resample bitwise-identically.
//!
//! All filesystem access goes through the [`crate::io::StoreIo`] seam,
//! so tests can inject ENOSPC, torn appends, rename loss, and crash
//! points deterministically. Any I/O failure trips the tier's
//! [`TierHealth`] machine into **degraded mode**: disk lookups and puts
//! short-circuit (a miss, never an error), and a request-ticked,
//! backoff-gated probe reopens the tier once the disk recovers.

use crate::arena::PoolKey;
use crate::health::{TierHealth, TierHealthSnapshot};
use crate::io::{DynStoreIo, RealIo, StoreIo};
use crate::{Invalidation, StoreError, StoreResult};
use oipa_graph::Lineage;
use oipa_sampler::binio::{PoolEncoding, PoolIoError, RawPool};
use oipa_sampler::MrrPool;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Manifest schema version (v3: epoch lineage — the single instance
/// fingerprint became a fingerprint *chain*, and every entry carries the
/// epoch it was sampled or repaired at; v4: entries are pool binio v3,
/// which stores each piece's inverted index; v5: entries are pool binio
/// v4, which stores only that index).
const MANIFEST_VERSION: u32 = 5;
/// Manifest file name inside the store directory.
pub const MANIFEST_FILE: &str = "index.json";
/// Quarantine subdirectory name.
pub const QUARANTINE_DIR: &str = "quarantine";
/// Region file prefix (`region-{id:08x}.dat`).
pub const REGION_PREFIX: &str = "region-";
/// Region file suffix.
pub const REGION_SUFFIX: &str = ".dat";
/// Legacy v1 segment prefix/suffix (sweeps quarantine them as orphans).
const SEGMENT_PREFIX: &str = "pool-";
const SEGMENT_SUFFIX: &str = ".mrr";
const TMP_PREFIX: &str = ".tmp-";

/// Default capacity of one region file (16 MiB): large enough to pack
/// many pools behind one file handle, small enough that a per-region GC
/// rewrite stays cheap.
pub const DEFAULT_REGION_BYTES: u64 = 16 << 20;

/// One manifest row: a cached pool and where it lives inside its region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The pool's cache key.
    pub key: PoolKey,
    /// Region file name (relative to the store directory).
    pub file: String,
    /// Byte offset of this entry's payload inside the region.
    pub offset: u64,
    /// Payload size in bytes (binio v4 frame, trailer included).
    pub bytes: u64,
    /// CRC-32 of the payload (the binio v4 trailer value).
    pub crc: u32,
    /// LRU recency stamp (larger = more recent); persists across opens.
    pub last_used: u64,
    /// The lineage epoch the pool was sampled (or repaired) at — an
    /// index into the manifest's fingerprint chain. Only entries at the
    /// lineage head's epoch are served; older ones are **stale** (dirty-
    /// repairable through [`crate::PoolStore::get_any`], never served as-is).
    pub epoch: u64,
}

/// The record of a whole-tier purge: what was thrown away, and why.
/// Persisted in the manifest so `store ls` and `/stats` can report the
/// last purge across restarts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PurgeRecord {
    /// Head fingerprint of the lineage whose pools were purged.
    pub from: u64,
    /// Head fingerprint of the lineage that replaced it.
    pub to: u64,
    /// Entries quarantined by the purge.
    pub entries: usize,
}

/// One region file: a fixed-capacity, append-only pack of pool entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionRow {
    /// Region file name (relative to the store directory).
    pub file: String,
    /// Committed watermark: every indexed entry lies wholly below this
    /// offset, and recovery truncates the file back to it — bytes past
    /// it are torn, unacked appends.
    pub committed: u64,
    /// Recency stamp of the most recent touch of any entry in this
    /// region (persists across opens — restart-persistent recency at
    /// region granularity).
    pub last_used: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    /// The epoch chain of instance fingerprints the pools were sampled
    /// from: `lineage[0]` is the cold-load root, `lineage[e]` the
    /// fingerprint after the first `e` deltas, the last element the
    /// current head. Empty while unset. See [`DiskTier::set_lineage`]
    /// for how a new chain is reconciled against the recorded one.
    lineage: Vec<u64>,
    clock: u64,
    /// Whole-tier purges over this directory's lifetime.
    purges: u64,
    /// The most recent whole-tier purge, if any.
    last_purge: Option<PurgeRecord>,
    regions: Vec<RegionRow>,
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn fresh() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            lineage: Vec::new(),
            clock: 0,
            purges: 0,
            last_purge: None,
            regions: Vec::new(),
            entries: Vec::new(),
        }
    }
}

/// What [`DiskTier::open`] had to repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct OpenReport {
    /// The manifest was unreadable and was quarantined (the tier started
    /// empty; its files became orphans).
    pub corrupt_manifest: bool,
    /// Manifest entries dropped because their region vanished or no
    /// longer covers their `(offset, bytes)` range.
    pub dropped_missing: usize,
    /// Files quarantined: segments/regions that failed verification plus
    /// orphaned files the manifest does not know.
    pub quarantined: usize,
    /// Stale temp files removed.
    pub stale_temps: usize,
    /// Regions truncated back to their committed watermark (torn,
    /// unacked appends trimmed away).
    pub trimmed_regions: usize,
}

/// Cumulative disk-tier counters plus the current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Pool entries currently indexed.
    pub entries: usize,
    /// Bytes currently indexed (live entry payloads).
    pub bytes: u64,
    /// The configured byte budget.
    pub capacity_bytes: u64,
    /// Region files currently indexed.
    pub regions: usize,
    /// The configured per-region capacity.
    pub region_bytes: u64,
    /// Committed-but-dead bytes awaiting `gc` (evicted or corrupt
    /// entries still occupying space inside their regions).
    pub dead_bytes: u64,
    /// Lookups served from disk.
    pub hits: u64,
    /// Bytes lookups read from region files: a disk hit reads exactly
    /// its entry's manifest byte count.
    pub read_bytes: u64,
    /// Lookups that found no (usable) entry.
    pub misses: u64,
    /// Pools written to disk (spills + write-through inserts).
    pub spills: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Entries dropped after failing verification on read.
    pub corrupt_dropped: u64,
    /// Pools skipped because they alone exceed the byte budget.
    pub oversized_skipped: u64,
    /// Best-effort writes that failed (the store keeps serving).
    pub write_errors: u64,
    /// Full `index.json` rewrites since open (reads batch recency, so
    /// this tracks structural writes + flushes, not gets).
    pub manifest_writes: u64,
    /// Recency flushes that failed (batched LRU stamps kept in memory;
    /// the loss on a crash is LRU accuracy, never data).
    pub flush_errors: u64,
    /// Operations short-circuited because the tier was degraded (each a
    /// miss or a skipped write, never a request failure).
    pub degraded_skips: u64,
    /// GC passes run since open (successful or not).
    pub gc_runs: u64,
    /// Wall-clock nanoseconds spent inside GC passes since open.
    pub gc_duration_ns: u64,
    /// Nanoseconds serving lookups through a `PoolStore` spent waiting
    /// to take the tier lock since open (0 on a bare `DiskTier`).
    pub lock_wait_ns: u64,
    /// Nanoseconds lookups through a `PoolStore` spent verifying and
    /// decoding the entries they read, outside the tier lock, since open
    /// (0 on a bare `DiskTier`). Divided by `hits`, the decode cost of a
    /// disk hit.
    pub decode_ns: u64,
    /// Entries currently stamped with a non-current lineage epoch:
    /// stale, dirty-repairable, never served as-is.
    pub stale_entries: usize,
    /// Entries dropped because the lineage diverged past their epoch
    /// (abandoned branch — unrepairable).
    pub stale_dropped: u64,
    /// Whole-tier purges over the directory's lifetime (persisted in
    /// the manifest, so the count survives reopens).
    pub purges: u64,
    /// The most recent whole-tier purge, if any.
    pub last_purge: Option<PurgeRecord>,
}

/// Per-entry verification outcome (`oipa-cli store verify`). Labels are
/// `region@offset` — one region carries many entries.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyReport {
    /// Entries that parsed and passed their CRC check: (label, bytes).
    pub ok: Vec<(String, u64)>,
    /// Entries that failed: (label, reason).
    pub corrupt: Vec<(String, String)>,
}

/// What a [`DiskTier::gc`] pass did.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GcReport {
    /// Region files moved to `quarantine/` because an entry inside them
    /// failed verification (live entries were copied out first).
    pub quarantined: Vec<String>,
    /// Manifest entries dropped because their region vanished.
    pub dropped_missing: usize,
    /// Orphaned files (present on disk, absent from the manifest) moved
    /// to `quarantine/`.
    pub orphans_quarantined: usize,
    /// Stale temp files removed.
    pub stale_temps: usize,
    /// Indexed bytes reclaimed from the tier by this pass (missing +
    /// corrupt entries).
    pub reclaimed_bytes: u64,
    /// Physical bytes reclaimed per rewritten region: (region file,
    /// committed bytes not copied forward).
    pub region_reclaimed: Vec<(String, u64)>,
    /// Healthy entries kept.
    pub kept: usize,
}

/// Which entries a disk read may return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// A serving lookup: current-epoch entries only; a miss counts.
    Get,
    /// The stale-ancestor lookup for delta repair: an entry at any
    /// epoch; a miss counts nothing.
    AnyEpoch,
}

/// Where a lookup's bytes came from: the manifest coordinates its
/// settle step matches against.
#[derive(Debug)]
pub(crate) struct EntryAt {
    file: String,
    offset: u64,
    epoch: u64,
}

/// An entry's arrays as read under the tier lock, not yet verified — or
/// the format error that ended the read.
pub(crate) struct RawEntry {
    at: EntryAt,
    read: Result<RawPool, PoolIoError>,
}

impl RawEntry {
    /// Step 2 of a lookup: checks the CRC trailer over the arrays as
    /// read, decodes the stored postings and runs the structural checks
    /// ([`RawPool::decode`]). Needs no lock.
    pub(crate) fn decode(self) -> (EntryAt, Result<MrrPool, PoolIoError>) {
        (self.at, self.read.and_then(RawPool::decode))
    }
}

/// One entry's bytes as a [`std::io::Read`] source: each `read` is one
/// [`StoreIo::read_at`] call that fills the whole buffer, starting where
/// the previous one stopped.
struct EntryReader<'a> {
    io: &'a dyn StoreIo,
    path: &'a Path,
    offset: u64,
}

impl std::io::Read for EntryReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.io.read_at(self.path, self.offset, buf)?;
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }
}

/// Reads the `bytes`-byte entry at `offset` of a region into a
/// [`RawPool`] through the seam. Returns the read and how many bytes it
/// took from the region.
fn read_entry(
    io: &dyn StoreIo,
    path: &Path,
    offset: u64,
    bytes: u64,
) -> (Result<RawPool, PoolIoError>, u64) {
    let mut src = EntryReader { io, path, offset };
    let read = RawPool::read(&mut src, bytes);
    (read, src.offset - offset)
}

/// The on-disk pool tier. See the module docs for layout and guarantees.
pub struct DiskTier {
    dir: PathBuf,
    capacity_bytes: u64,
    region_bytes: u64,
    io: DynStoreIo,
    health: TierHealth,
    manifest: Manifest,
    /// Maintained running total of `manifest.entries[..].bytes`, so the
    /// budget check is O(1) instead of a fold per put.
    indexed_bytes: u64,
    /// Next region id to probe when allocating a fresh region file.
    next_region_id: u64,
    /// The in-memory manifest has recency stamps the on-disk `index.json`
    /// does not. Set by read-path recency updates; cleared by `persist`.
    /// Structural changes (new entries, evictions, quarantines) persist
    /// immediately — only recency is batched, flushed on the next write
    /// or on drop.
    dirty: bool,
    open_report: OpenReport,
    hits: u64,
    read_bytes: u64,
    misses: u64,
    spills: u64,
    evictions: u64,
    corrupt_dropped: u64,
    oversized_skipped: u64,
    write_errors: u64,
    manifest_writes: u64,
    flush_errors: u64,
    degraded_skips: u64,
    gc_runs: u64,
    gc_duration_ns: u64,
    lock_wait_ns: u64,
    decode_ns: u64,
    /// Entries dropped because the lineage diverged past their epoch
    /// (their branch was abandoned; see [`DiskTier::set_lineage`]).
    stale_dropped: u64,
}

fn io_err(what: impl Into<String>, e: impl std::fmt::Display) -> StoreError {
    StoreError::Io {
        what: what.into(),
        detail: e.to_string(),
    }
}

impl DiskTier {
    /// Opens (creating if needed) a store directory over the real
    /// filesystem with the default region capacity. See
    /// [`DiskTier::open_with`].
    pub fn open(dir: impl Into<PathBuf>, capacity_bytes: u64) -> StoreResult<DiskTier> {
        DiskTier::open_with(dir, capacity_bytes, DEFAULT_REGION_BYTES, RealIo::arc())
    }

    /// Opens through a [`StoreIo`] with the default region capacity.
    /// See [`DiskTier::open_with`].
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        capacity_bytes: u64,
        io: DynStoreIo,
    ) -> StoreResult<DiskTier> {
        DiskTier::open_with(dir, capacity_bytes, DEFAULT_REGION_BYTES, io)
    }

    /// Opens (creating if needed) a store directory through a
    /// [`StoreIo`] and recovers its manifest: regions are truncated back
    /// to their committed watermark (torn appends trimmed), entries
    /// whose region vanished or shrank are dropped, files the manifest
    /// does not know are quarantined, stale temp files are removed, and
    /// the byte budget is enforced. A manifest of any other schema than
    /// v4 is quarantined like a corrupt one. Corruption never
    /// fails the open — it is repaired and reported in
    /// [`DiskTier::open_report`]. Neither do repair-write failures (a
    /// read-only or full disk): the affected entries are dropped from
    /// the index and the tier opens **degraded** (see
    /// [`DiskTier::health`]) rather than refusing to serve. Only an
    /// unlistable/uncreatable directory or an unreadable-but-present
    /// manifest fails the open.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        capacity_bytes: u64,
        region_bytes: u64,
        io: DynStoreIo,
    ) -> StoreResult<DiskTier> {
        let dir = dir.into();
        let region_bytes = region_bytes.max(1);
        io.create_dir_all(&dir)
            .map_err(|e| io_err(format!("creating store dir {}", dir.display()), e))?;
        let mut report = OpenReport::default();
        let mut health = TierHealth::new();

        let manifest_path = dir.join(MANIFEST_FILE);
        let mut manifest = match io.read(&manifest_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::fresh(),
            Err(e) => return Err(io_err(format!("reading {}", manifest_path.display()), e)),
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let version = serde_json::from_str::<serde_json::Value>(&text)
                    .ok()
                    .and_then(|v| match v.get("version") {
                        Some(serde_json::Value::Int(i)) if *i >= 0 => Some(*i as u64),
                        Some(serde_json::Value::UInt(u)) => Some(*u),
                        _ => None,
                    });
                let parsed: Result<Manifest, String> = match version {
                    Some(v) if v == u64::from(MANIFEST_VERSION) => {
                        serde_json::from_str::<Manifest>(&text).map_err(|e| e.to_string())
                    }
                    Some(v) => Err(format!("unsupported manifest version {v}")),
                    None => Err("manifest is not a JSON object with a version".to_string()),
                };
                match parsed {
                    Ok(m) => m,
                    Err(reason) => {
                        // Unreadable, retired (v1–v4) or future-versioned: set
                        // the manifest aside and start empty; its files
                        // become orphans below. Never serve entries we
                        // cannot trust.
                        if let Err(e) = quarantine_file(io.as_ref(), &dir, MANIFEST_FILE, &reason) {
                            health.record_error(format!("quarantining corrupt manifest: {e}"));
                        }
                        report.corrupt_manifest = true;
                        Manifest::fresh()
                    }
                }
            }
        };

        // Validate each region against the file actually on disk: a file
        // longer than its committed watermark carries a torn, unacked
        // append and is truncated back; a shorter one lost committed
        // bytes (its watermark shrinks and out-of-range entries drop); a
        // vanished one drops with all its entries.
        let mut rows = Vec::with_capacity(manifest.regions.len());
        for mut row in std::mem::take(&mut manifest.regions) {
            match io.len(&dir.join(&row.file)) {
                Err(_) => {
                    // Vanished (or unreachable) region: entries pointing
                    // into it are dropped below as missing.
                }
                Ok(len) if len > row.committed => {
                    match io.truncate(&dir.join(&row.file), row.committed) {
                        Ok(()) => report.trimmed_regions += 1,
                        Err(e) => {
                            // Reads stay within `committed`, so serving is
                            // safe; the trim retries at the next open.
                            health.record_error(format!("trimming region {}: {e}", row.file));
                        }
                    }
                    rows.push(row);
                }
                Ok(len) if len < row.committed => {
                    row.committed = len;
                    rows.push(row);
                }
                Ok(_) => rows.push(row),
            }
        }
        manifest.regions = rows;

        // Validate each entry against the surviving regions. The
        // manifest carries no whole-file checksum, so a damaged
        // `offset`/`bytes` pair that overflows is just out of range.
        let mut kept = Vec::with_capacity(manifest.entries.len());
        for entry in std::mem::take(&mut manifest.entries) {
            let end = entry.offset.checked_add(entry.bytes);
            let covered = manifest
                .regions
                .iter()
                .any(|r| r.file == entry.file && end.is_some_and(|end| end <= r.committed));
            if covered {
                kept.push(entry);
            } else {
                report.dropped_missing += 1;
            }
        }
        manifest.entries = kept;

        // Sweep the directory: stale temps go away, unknown regions and
        // legacy segments are quarantined (without a manifest row their
        // keys are unknowable — the campaign JSON lives only in the
        // manifest).
        let listing = io
            .list(&dir)
            .map_err(|e| io_err(format!("listing store dir {}", dir.display()), e))?;
        for name in listing {
            if name.starts_with(TMP_PREFIX) {
                let _ = io.remove(&dir.join(&name));
                report.stale_temps += 1;
                continue;
            }
            let region_like = name.starts_with(REGION_PREFIX) && name.ends_with(REGION_SUFFIX);
            let segment_like = name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX);
            if !region_like && !segment_like {
                continue;
            }
            if manifest.regions.iter().any(|r| r.file == name) {
                continue;
            }
            let reason = if region_like {
                "orphaned region"
            } else {
                "orphaned segment"
            };
            if let Err(e) = quarantine_file(io.as_ref(), &dir, &name, reason) {
                health.record_error(format!("quarantining orphan {name}: {e}"));
            }
            report.quarantined += 1;
        }

        let indexed_bytes = manifest.entries.iter().map(|e| e.bytes).sum();
        let next_region_id = manifest
            .regions
            .iter()
            .filter_map(|r| region_id(&r.file))
            .max()
            .map_or(1, |id| id + 1);
        let mut tier = DiskTier {
            dir,
            capacity_bytes,
            region_bytes,
            io,
            health,
            manifest,
            indexed_bytes,
            next_region_id,
            dirty: false,
            open_report: report,
            hits: 0,
            read_bytes: 0,
            misses: 0,
            spills: 0,
            evictions: 0,
            corrupt_dropped: 0,
            oversized_skipped: 0,
            write_errors: 0,
            manifest_writes: 0,
            flush_errors: 0,
            degraded_skips: 0,
            gc_runs: 0,
            gc_duration_ns: 0,
            lock_wait_ns: 0,
            decode_ns: 0,
            stale_dropped: 0,
        };
        tier.enforce_budget(None);
        if tier.persist().is_err() {
            // A store on a read-only/full disk still opens: it serves the
            // recovered index (degraded — no new writes) and re-persists
            // once the reopen probe succeeds.
            tier.dirty = true;
        }
        Ok(tier)
    }

    /// What the open had to repair.
    pub fn open_report(&self) -> OpenReport {
        self.open_report
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest rows, in insertion order.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.manifest.entries
    }

    /// The region files, in allocation order (the last is the active
    /// append target).
    pub fn regions(&self) -> &[RegionRow] {
        &self.manifest.regions
    }

    /// The configured per-region capacity in bytes.
    pub fn region_bytes(&self) -> u64 {
        self.region_bytes
    }

    /// Committed-but-dead bytes awaiting [`DiskTier::gc`]: space inside
    /// regions whose entries were evicted or dropped.
    pub fn dead_bytes(&self) -> u64 {
        let committed: u64 = self.manifest.regions.iter().map(|r| r.committed).sum();
        committed.saturating_sub(self.indexed_bytes)
    }

    /// The recorded instance-fingerprint chain: `lineage()[0]` is the
    /// cold-load root, the last element the current head. Empty while
    /// unset.
    pub fn lineage(&self) -> &[u64] {
        &self.manifest.lineage
    }

    /// The epoch entries currently serve at (the lineage head's index;
    /// 0 while the lineage is unset).
    pub fn current_epoch(&self) -> u64 {
        self.manifest.lineage.len().saturating_sub(1) as u64
    }

    /// Entries stamped with a non-current epoch: stale, dirty-repairable
    /// through [`crate::PoolStore::get_any`], never served as-is.
    pub fn stale_entries(&self) -> usize {
        let current = self.current_epoch();
        self.manifest
            .entries
            .iter()
            .filter(|e| e.epoch != current)
            .count()
    }

    /// The tier's current health (see [`TierHealth`]).
    pub fn health(&self) -> TierHealthSnapshot {
        self.health.snapshot()
    }

    /// Records the fingerprint chain of the (graph, table) this tier
    /// caches pools for, reconciling the recorded chain against it:
    ///
    /// * **Same chain** — no-op.
    /// * **Shared root** (the chains agree on a common prefix) — entries
    ///   at epochs *inside* the prefix are kept: those at the new head's
    ///   epoch serve, older ones become **stale** (dirty-repairable via
    ///   [`crate::PoolStore::get_any`], never served). Entries past the prefix
    ///   sit on an abandoned branch and are dropped (dead bytes await
    ///   [`DiskTier::gc`]). This is the surgical-invalidation path: a
    ///   graph delta advances the lineage and *marks* cached pools
    ///   instead of throwing them away.
    /// * **Different root** — pools sampled from unrelated inputs must
    ///   never be served *or repaired*: every region is quarantined, a
    ///   [`PurgeRecord`] is written, and a warning naming both head
    ///   fingerprints goes to stderr.
    ///
    /// Returns what the change invalidated.
    pub fn set_lineage(&mut self, lineage: &[u64]) -> StoreResult<Invalidation> {
        if self.manifest.lineage == lineage {
            return Ok(Invalidation::default());
        }
        let (stale, entries) = (self.stale_entries(), self.len());
        let prefix = Lineage::from_fingerprints(lineage.to_vec())
            .map_or(0, |l| l.common_prefix(&self.manifest.lineage));
        let diverged_at_root =
            prefix == 0 && !self.manifest.lineage.is_empty() && !lineage.is_empty();
        let purge = diverged_at_root && !self.manifest.entries.is_empty();
        if purge {
            let record = PurgeRecord {
                from: self.manifest.lineage.last().copied().unwrap_or(0),
                to: lineage.last().copied().unwrap_or(0),
                entries: self.manifest.entries.len(),
            };
            // Quarantine one region at a time: if a quarantine fails
            // mid-purge, the failed region goes back on the index with
            // its entries, so `indexed_bytes` never drifts from
            // `entries` on the error path — and nothing here can panic.
            while let Some(row) = self.manifest.regions.pop() {
                let path = self.dir.join(&row.file);
                if row.committed > 0 && self.io.exists(&path) {
                    if let Err(e) = quarantine_file(
                        self.io.as_ref(),
                        &self.dir,
                        &row.file,
                        "instance fingerprint mismatch",
                    ) {
                        self.health
                            .record_error(format!("instance purge of {}: {e}", row.file));
                        self.manifest.regions.push(row);
                        return Err(e);
                    }
                } else if self.io.exists(&path) {
                    // Nothing committed: no pool bytes to preserve.
                    let _ = self.io.remove(&path);
                }
                let mut kept = Vec::with_capacity(self.manifest.entries.len());
                for entry in std::mem::take(&mut self.manifest.entries) {
                    if entry.file == row.file {
                        self.indexed_bytes -= entry.bytes;
                        self.evictions += 1;
                    } else {
                        kept.push(entry);
                    }
                }
                self.manifest.entries = kept;
            }
            // Entries without a region row cannot exist, but never let
            // the invariant depend on it: drop any stragglers.
            for entry in std::mem::take(&mut self.manifest.entries) {
                self.indexed_bytes -= entry.bytes;
                self.evictions += 1;
            }
            eprintln!(
                "oipa-store: purging {}: instance fingerprint {:#018x} is not in the \
                 lineage of {:#018x} ({} entries quarantined)",
                self.dir.display(),
                record.from,
                record.to,
                record.entries,
            );
            self.manifest.purges += 1;
            self.manifest.last_purge = Some(record);
        } else if prefix > 0 {
            // Shared root: entries past the common prefix were sampled
            // on an abandoned branch — unrepairable, dropped in place
            // (their bytes go dead inside their regions until `gc`).
            let cutoff = prefix as u64;
            let mut kept = Vec::with_capacity(self.manifest.entries.len());
            let mut dropped_files: Vec<String> = Vec::new();
            for entry in std::mem::take(&mut self.manifest.entries) {
                if entry.epoch < cutoff {
                    kept.push(entry);
                } else {
                    self.indexed_bytes -= entry.bytes;
                    self.stale_dropped += 1;
                    if !dropped_files.contains(&entry.file) {
                        dropped_files.push(entry.file.clone());
                    }
                }
            }
            self.manifest.entries = kept;
            for file in dropped_files {
                self.drop_region_if_empty(&file);
            }
        }
        self.manifest.lineage = lineage.to_vec();
        self.persist()?;
        Ok(Invalidation {
            dirty: self.stale_entries().saturating_sub(stale),
            dropped: entries - self.len(),
            purged: purge,
        })
    }

    /// Looks up a pool, reading its entry's arrays out of its region and
    /// CRC-verifying it. An entry that fails *verification* is dropped —
    /// and its region quarantined once no live entry remains in it — so
    /// the caller sees a plain miss and resamples. An entry whose read
    /// fails with an *I/O error* is kept (the bytes may be fine; the
    /// disk is not) and the tier degrades: this and subsequent lookups
    /// miss without touching the disk until a reopen probe succeeds.
    ///
    /// A hit only marks the manifest dirty: the recency stamp is flushed
    /// by the next structural write (put/eviction) or on drop, so a
    /// read-only burst of N gets performs at most one manifest write
    /// instead of N full `index.json` rewrites.
    ///
    /// The three lookup steps run back to back on one borrow; `PoolStore`
    /// runs the same steps but releases the tier lock around the decode.
    pub fn get(&mut self, key: &PoolKey) -> Option<MrrPool> {
        let (at, decoded) = self.read(key, Lookup::Get)?.decode();
        self.settle(key, at, decoded, Lookup::Get)
            .map(|(pool, _)| pool)
    }

    /// Step 1 of a lookup: finds the key's entry and reads its arrays,
    /// unverified, each straight into the buffer the decoded pool keeps
    /// ([`RawPool::read`], bounded by the entry's manifest byte count). A
    /// miss, a degraded tier, or a read I/O error ends the lookup here
    /// (counted per [`Lookup`]); an I/O error keeps the entry and
    /// degrades the tier. A read that finds the entry malformed still
    /// returns it, for [`DiskTier::settle`] to drop.
    pub(crate) fn read(&mut self, key: &PoolKey, lookup: Lookup) -> Option<RawEntry> {
        self.maybe_probe();
        if !self.health.healthy() {
            self.degraded_skips += 1;
            self.count_miss(lookup);
            return None;
        }
        let current = self.current_epoch();
        // Entries stamped with a non-current epoch are stale: a serving
        // lookup misses on them (they stay, dirty-repairable), only the
        // repair path reaches them.
        let Some(entry) = self
            .manifest
            .entries
            .iter()
            .find(|e| &e.key == key && (lookup == Lookup::AnyEpoch || e.epoch == current))
        else {
            self.count_miss(lookup);
            return None;
        };
        let at = EntryAt {
            file: entry.file.clone(),
            offset: entry.offset,
            epoch: entry.epoch,
        };
        let bytes = entry.bytes;
        let path = self.dir.join(&at.file);
        let (read, took) = read_entry(self.io.as_ref(), &path, at.offset, bytes);
        self.read_bytes += took;
        match read {
            Err(PoolIoError::Io(e)) => {
                // The disk failed, not the entry: keep it and degrade.
                // Quarantining here would throw away healthy pools every
                // time a disk hiccups.
                self.health
                    .record_error(format!("reading {}: {e}", at.file));
                self.count_miss(lookup);
                None
            }
            read => Some(RawEntry { at, read }),
        }
    }

    /// Step 3 of a lookup: records the outcome of decoding the entry
    /// read at `at`. The outcome applies only if that exact entry (key,
    /// region, offset, epoch) is still indexed — and, for a serving
    /// lookup, still at the current epoch. A pool whose entry moved
    /// while it decoded (lineage advanced, entry rewritten, evicted or
    /// collected) is not served: the lookup is a miss. A decode failure
    /// drops and quarantines only the entry that was read, never a
    /// fresher one written under the same key in the meantime.
    pub(crate) fn settle(
        &mut self,
        key: &PoolKey,
        at: EntryAt,
        decoded: Result<MrrPool, PoolIoError>,
        lookup: Lookup,
    ) -> Option<(MrrPool, u64)> {
        let idx = self.manifest.entries.iter().position(|e| {
            &e.key == key && e.file == at.file && e.offset == at.offset && e.epoch == at.epoch
        });
        let servable = lookup == Lookup::AnyEpoch || at.epoch == self.current_epoch();
        match (decoded, idx) {
            (Ok(pool), Some(idx)) if servable => {
                self.manifest.clock += 1;
                let stamp = self.manifest.clock;
                self.manifest.entries[idx].last_used = stamp;
                if let Some(row) = self.manifest.regions.iter_mut().find(|r| r.file == at.file) {
                    row.last_used = stamp;
                }
                self.hits += 1;
                self.dirty = true; // recency is batched, not rewritten per read
                self.health.record_ok();
                Some((pool, at.epoch))
            }
            (Err(PoolIoError::Io(e)), _) => {
                // Not a parse failure: as in `read`, keep the entry.
                self.health
                    .record_error(format!("reading {}: {e}", at.file));
                self.count_miss(lookup);
                None
            }
            (Err(e), Some(idx)) => {
                let entry = self.manifest.entries.remove(idx);
                self.indexed_bytes -= entry.bytes;
                // Quarantine the region only once nothing live remains
                // in it; otherwise the dead bytes wait for `gc`.
                if !self.manifest.entries.iter().any(|x| x.file == entry.file) {
                    let _ =
                        quarantine_file(self.io.as_ref(), &self.dir, &entry.file, &e.to_string());
                    self.manifest.regions.retain(|r| r.file != entry.file);
                }
                self.corrupt_dropped += 1;
                self.count_miss(lookup);
                let _ = self.persist();
                None
            }
            // The entry moved while the pool decoded (or was dropped by
            // a racer that decoded the same corrupt bytes first).
            _ => {
                self.count_miss(lookup);
                None
            }
        }
    }

    fn count_miss(&mut self, lookup: Lookup) {
        if lookup == Lookup::Get {
            self.misses += 1;
        }
    }

    /// Adds time a serving lookup spent waiting to take the tier lock
    /// (the lock is `PoolStore`'s, so only it can measure the wait).
    pub(crate) fn record_lock_wait(&mut self, waited: std::time::Duration) {
        self.lock_wait_ns = self
            .lock_wait_ns
            .saturating_add(u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Adds time a lookup spent verifying and decoding an entry outside
    /// the tier lock (see [`RawEntry::decode`]).
    pub(crate) fn record_decode(&mut self, took: std::time::Duration) {
        self.decode_ns = self
            .decode_ns
            .saturating_add(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Writes the manifest out if any batched recency stamps are pending.
    /// Called automatically by every structural write and on drop;
    /// exposed so long read-only sessions can checkpoint recency
    /// explicitly. A failure keeps the stamps batched (retried by the
    /// next flush) and bumps [`DiskStats::flush_errors`] — losing them
    /// costs LRU accuracy, never data.
    pub fn flush(&mut self) -> StoreResult<()> {
        if !self.dirty {
            return Ok(());
        }
        if !self.health.healthy() {
            self.flush_errors += 1;
            return Err(io_err(
                "flushing batched recency",
                "disk tier is degraded; stamps stay batched until recovery",
            ));
        }
        self.persist().inspect_err(|_| self.flush_errors += 1)
    }

    /// Appends a pool to the newest region (append + sync), indexes it
    /// at the **current lineage epoch**, and evicts LRU entries until the
    /// byte budget fits. A key already present *at the current epoch* is
    /// only touched — a recency update batched like [`DiskTier::get`]'s,
    /// not a manifest rewrite (keys are content-addressed per epoch: the
    /// campaign, θ, seed and epoch determine the pool bytes). A key
    /// present at an **older** epoch is rewritten: the repaired payload
    /// is appended and the entry re-pointed at it (the stale bytes go
    /// dead inside their region until `gc`) — repair write-back rides
    /// the exact same append/sync/manifest-commit machinery, fault seam
    /// included. A pool whose payload alone exceeds the budget is not
    /// stored. Best-effort: IO failures are counted and degrade the
    /// tier, never surface to the caller — a broken disk tier is a cache
    /// miss, not a serving failure.
    ///
    /// Returns whether the write is **acked**: payload appended + synced
    /// *and* its manifest row committed. Only acked writes are promised
    /// to survive a crash; anything else is at worst torn bytes past the
    /// region's committed watermark, truncated away by the next open. A
    /// failed rewrite keeps the stale entry intact (still repairable,
    /// never served).
    pub fn put(&mut self, key: &PoolKey, pool: &MrrPool) -> bool {
        self.maybe_probe();
        if !self.health.healthy() {
            self.degraded_skips += 1;
            return false;
        }
        let epoch = self.current_epoch();
        let existing = self.manifest.entries.iter().position(|e| &e.key == key);
        if let Some(idx) = existing {
            if self.manifest.entries[idx].epoch == epoch {
                self.manifest.clock += 1;
                let stamp = self.manifest.clock;
                let file = self.manifest.entries[idx].file.clone();
                self.manifest.entries[idx].last_used = stamp;
                if let Some(row) = self.manifest.regions.iter_mut().find(|r| r.file == file) {
                    row.last_used = stamp;
                }
                self.dirty = true;
                return true;
            }
        }
        let encoding = PoolEncoding::new(pool);
        let mut buf = Vec::with_capacity(encoding.encoded_len());
        let crc = match encoding.write(&mut buf) {
            Ok(crc) => crc,
            Err(e) => {
                // Unreachable for a Vec sink, but never panic on it.
                self.write_errors += 1;
                self.health.record_error(format!("serializing pool: {e}"));
                return false;
            }
        };
        let bytes = buf.len() as u64;
        if bytes > self.capacity_bytes {
            self.oversized_skipped += 1;
            return false;
        }
        let Some(file) = self.place(bytes) else {
            self.write_errors += 1;
            return false;
        };
        let path = self.dir.join(&file);
        let commit = self
            .io
            .append(&path, &buf)
            .and_then(|()| self.io.sync(&path));
        if let Err(e) = commit {
            // A torn append leaves bytes past `committed`; the next
            // placement (or open) truncates them away. Nothing indexed.
            self.write_errors += 1;
            self.health
                .record_error(format!("appending to region {file}: {e}"));
            return false;
        }
        self.manifest.clock += 1;
        let stamp = self.manifest.clock;
        let Some(row) = self.manifest.regions.iter_mut().find(|r| r.file == file) else {
            // `place` always returns a manifest row; never panic if not.
            self.write_errors += 1;
            self.health
                .record_error(format!("region {file} lost its manifest row"));
            return false;
        };
        let offset = row.committed;
        row.committed += bytes;
        row.last_used = stamp;
        match existing {
            Some(idx) => {
                // Epoch rewrite: re-point the stale entry at the fresh
                // payload; its old bytes go dead inside their region.
                let old_file = self.manifest.entries[idx].file.clone();
                let old_bytes = self.manifest.entries[idx].bytes;
                let entry = &mut self.manifest.entries[idx];
                entry.file = file;
                entry.offset = offset;
                entry.bytes = bytes;
                entry.crc = crc;
                entry.last_used = stamp;
                entry.epoch = epoch;
                self.indexed_bytes -= old_bytes;
                self.drop_region_if_empty(&old_file);
            }
            None => self.manifest.entries.push(ManifestEntry {
                key: key.clone(),
                file,
                offset,
                bytes,
                crc,
                last_used: stamp,
                epoch,
            }),
        }
        self.indexed_bytes += bytes;
        self.spills += 1;
        self.enforce_budget(Some(stamp));
        let acked = self.persist().is_ok();
        if acked {
            self.health.record_ok();
        }
        acked
    }

    /// Picks (or allocates) the region an incoming `bytes`-sized payload
    /// appends to: the newest region while it has room (a region's first
    /// entry always fits, so a pool larger than `region_bytes` simply
    /// gets a region of its own), else a fresh one. Before reusing a
    /// region the file length is checked against the committed
    /// watermark: a torn tail from an earlier failed append is truncated
    /// away (falling back to a fresh region if the trim fails), and a
    /// region that shrank or vanished underneath us is abandoned for a
    /// fresh one. Returns `None` only when the disk cannot even be
    /// stat-ed — recorded as a degrading error.
    fn place(&mut self, bytes: u64) -> Option<String> {
        if let Some(row) = self.manifest.regions.last() {
            if row.committed == 0 || row.committed + bytes <= self.region_bytes {
                let file = row.file.clone();
                let committed = row.committed;
                let path = self.dir.join(&file);
                match self.io.len(&path) {
                    Ok(len) if len == committed => return Some(file),
                    Ok(len) if len > committed => {
                        if self.io.truncate(&path, committed).is_ok() {
                            return Some(file);
                        }
                        // Trim failed: leave the torn tail alone and pack
                        // into a fresh region instead.
                    }
                    Ok(_) => {
                        // Shrank underneath us: committed bytes are gone;
                        // reads will fault and degrade. Append elsewhere.
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                        if committed == 0 {
                            return Some(file); // append creates it
                        }
                        // Vanished with committed data: append elsewhere.
                    }
                    Err(e) => {
                        self.health
                            .record_error(format!("sizing region {file}: {e}"));
                        return None;
                    }
                }
            }
        }
        let file = self.next_region_name();
        self.manifest.regions.push(RegionRow {
            file: file.clone(),
            committed: 0,
            last_used: self.manifest.clock,
        });
        Some(file)
    }

    /// Allocates the next unused region file name (monotonic ids,
    /// existence-probed so a quarantine-returned or leftover file is
    /// never silently appended to).
    fn next_region_name(&mut self) -> String {
        loop {
            let name = format!("{REGION_PREFIX}{:08x}{REGION_SUFFIX}", self.next_region_id);
            self.next_region_id += 1;
            if !self.io.exists(&self.dir.join(&name))
                && !self.manifest.regions.iter().any(|r| r.file == name)
            {
                return name;
            }
        }
    }

    /// Reads every indexed entry out of its region, checking the CRC
    /// trailer, the decoder's structural checks (see
    /// [`oipa_sampler::binio`]), the manifest's recorded checksum and
    /// the key's θ. Mutates nothing — pair with
    /// [`DiskTier::gc`] to act on the findings. Labels are
    /// `region@offset`.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport {
            ok: Vec::new(),
            corrupt: Vec::new(),
        };
        for entry in &self.manifest.entries {
            let label = format!("{}@{}", entry.file, entry.offset);
            match self.check_entry(entry) {
                Ok(()) => report.ok.push((label, entry.bytes)),
                Err(reason) => report.corrupt.push((label, reason)),
            }
        }
        report
    }

    /// Full verification of one entry: readable, parseable, trailer
    /// matches the manifest CRC, and θ matches the key.
    fn check_entry(&self, entry: &ManifestEntry) -> Result<(), String> {
        let path = self.dir.join(&entry.file);
        let (read, _) = read_entry(self.io.as_ref(), &path, entry.offset, entry.bytes);
        let raw = read.map_err(|e| e.to_string())?;
        let trailer = raw.stored_crc();
        let pool = raw.decode().map_err(|e| e.to_string())?;
        if trailer != entry.crc {
            return Err(format!(
                "manifest crc {:#010x} does not match entry trailer {trailer:#010x}",
                entry.crc
            ));
        }
        if pool.theta() != entry.key.theta() {
            return Err(format!(
                "entry holds θ={} but the key says θ={}",
                pool.theta(),
                entry.key.theta()
            ));
        }
        Ok(())
    }

    /// Repairs and compacts the tier: drops entries whose region
    /// vanished or that fail verification, rewrites every region that is
    /// corrupt or carries dead bytes (live entries are copied into fresh
    /// regions first — corrupt regions are then quarantined, clean ones
    /// removed), quarantines orphaned files, and sweeps stale temps.
    /// Physical bytes reclaimed are reported per region.
    pub fn gc(&mut self) -> StoreResult<GcReport> {
        let started = std::time::Instant::now();
        let outcome = self.gc_inner();
        self.gc_runs += 1;
        self.gc_duration_ns = self
            .gc_duration_ns
            .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        outcome
    }

    fn gc_inner(&mut self) -> StoreResult<GcReport> {
        let mut report = GcReport::default();

        // Vanished regions: drop their rows and entries.
        let mut missing: Vec<String> = Vec::new();
        let io = std::sync::Arc::clone(&self.io);
        let dir = self.dir.clone();
        self.manifest.regions.retain(|r| {
            if io.exists(&dir.join(&r.file)) {
                true
            } else {
                missing.push(r.file.clone());
                false
            }
        });
        if !missing.is_empty() {
            let mut kept = Vec::with_capacity(self.manifest.entries.len());
            for entry in std::mem::take(&mut self.manifest.entries) {
                if missing.iter().any(|f| f == &entry.file) {
                    report.dropped_missing += 1;
                    report.reclaimed_bytes += entry.bytes;
                    self.indexed_bytes -= entry.bytes;
                } else {
                    kept.push(entry);
                }
            }
            self.manifest.entries = kept;
        }

        // Verification: corrupt entries drop and flag their region.
        let mut corrupt_regions: Vec<String> = Vec::new();
        let mut kept = Vec::with_capacity(self.manifest.entries.len());
        for entry in std::mem::take(&mut self.manifest.entries) {
            match self.check_entry(&entry) {
                Ok(()) => kept.push(entry),
                Err(_) => {
                    if !corrupt_regions.contains(&entry.file) {
                        corrupt_regions.push(entry.file.clone());
                    }
                    report.reclaimed_bytes += entry.bytes;
                    self.indexed_bytes -= entry.bytes;
                    self.corrupt_dropped += 1;
                }
            }
        }
        self.manifest.entries = kept;

        // Which regions get rewritten: corrupt ones, plus any carrying
        // dead bytes (live < committed). Fully-live regions are kept
        // as-is — GC cost scales with garbage, not with store size.
        let rewrite: Vec<(String, u64)> = self
            .manifest
            .regions
            .iter()
            .filter(|row| {
                let live: u64 = self
                    .manifest
                    .entries
                    .iter()
                    .filter(|e| e.file == row.file)
                    .map(|e| e.bytes)
                    .sum();
                corrupt_regions.contains(&row.file) || live < row.committed
            })
            .map(|r| (r.file.clone(), r.committed))
            .collect();

        // Copy the live entries of every rewrite region into fresh
        // packs. Old regions stay untouched until the manifest commits,
        // so a failure here leaves a fully consistent (if duplicated)
        // store behind.
        let mut target: Option<String> = None;
        for (file, committed) in &rewrite {
            let mut live_copied = 0u64;
            for i in 0..self.manifest.entries.len() {
                if &self.manifest.entries[i].file != file {
                    continue;
                }
                let (offset, bytes) = {
                    let e = &self.manifest.entries[i];
                    (e.offset, e.bytes)
                };
                let mut data = vec![0u8; bytes as usize];
                self.io
                    .read_at(&self.dir.join(file), offset, &mut data)
                    .map_err(|e| {
                        self.health
                            .record_error(format!("gc: rereading {file}@{offset}: {e}"));
                        self.dirty = true;
                        io_err(format!("gc: rereading {file}@{offset}"), e)
                    })?;
                let tfile = match &target {
                    Some(t) => {
                        let fits = self
                            .manifest
                            .regions
                            .iter()
                            .find(|r| &r.file == t)
                            .is_some_and(|r| {
                                r.committed == 0 || r.committed + bytes <= self.region_bytes
                            });
                        if fits {
                            t.clone()
                        } else {
                            let fresh = self.next_region_name();
                            self.manifest.regions.push(RegionRow {
                                file: fresh.clone(),
                                committed: 0,
                                last_used: 0,
                            });
                            target = Some(fresh.clone());
                            fresh
                        }
                    }
                    None => {
                        let fresh = self.next_region_name();
                        self.manifest.regions.push(RegionRow {
                            file: fresh.clone(),
                            committed: 0,
                            last_used: 0,
                        });
                        target = Some(fresh.clone());
                        fresh
                    }
                };
                let tpath = self.dir.join(&tfile);
                self.io
                    .append(&tpath, &data)
                    .and_then(|()| self.io.sync(&tpath))
                    .map_err(|e| {
                        self.health
                            .record_error(format!("gc: repacking into {tfile}: {e}"));
                        self.dirty = true;
                        io_err(format!("gc: repacking into {tfile}"), e)
                    })?;
                let row = self
                    .manifest
                    .regions
                    .iter_mut()
                    .find(|r| r.file == tfile)
                    .expect("gc target row was just pushed");
                let entry = &mut self.manifest.entries[i];
                entry.file = tfile.clone();
                entry.offset = row.committed;
                row.committed += bytes;
                row.last_used = row.last_used.max(entry.last_used);
                live_copied += bytes;
            }
            report
                .region_reclaimed
                .push((file.clone(), committed.saturating_sub(live_copied)));
        }

        // Commit: drop the rewritten rows and persist. This is the point
        // of no return — before it, the old regions still serve.
        self.manifest
            .regions
            .retain(|r| !rewrite.iter().any(|(f, _)| f == &r.file));
        self.persist()?;

        // Dispose of the old files: corruption is quarantined (never
        // silently deleted), clean dead bytes are removed.
        for (file, _) in &rewrite {
            if corrupt_regions.contains(file) {
                quarantine_file(
                    self.io.as_ref(),
                    &self.dir,
                    file,
                    "gc: region contained corruption",
                )?;
                report.quarantined.push(file.clone());
            } else if let Err(e) = self.io.remove(&self.dir.join(file)) {
                // A leftover becomes an orphan for the next open.
                self.health
                    .record_error(format!("gc: removing {file}: {e}"));
            }
        }

        // Sweep temps and orphans.
        let listing = self
            .io
            .list(&self.dir)
            .map_err(|e| io_err(format!("listing store dir {}", self.dir.display()), e))?;
        for name in listing {
            if name.starts_with(TMP_PREFIX) {
                let _ = self.io.remove(&self.dir.join(&name));
                report.stale_temps += 1;
                continue;
            }
            let region_like = name.starts_with(REGION_PREFIX) && name.ends_with(REGION_SUFFIX);
            let segment_like = name.starts_with(SEGMENT_PREFIX) && name.ends_with(SEGMENT_SUFFIX);
            if (region_like || segment_like)
                && !self.manifest.regions.iter().any(|r| r.file == name)
            {
                let reason = if region_like {
                    "gc: orphaned region"
                } else {
                    "gc: orphaned segment"
                };
                quarantine_file(self.io.as_ref(), &self.dir, &name, reason)?;
                report.orphans_quarantined += 1;
            }
        }
        report.kept = self.manifest.entries.len();
        Ok(report)
    }

    /// Pool entries currently indexed.
    pub fn len(&self) -> usize {
        self.manifest.entries.len()
    }

    /// Whether the tier indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.manifest.entries.is_empty()
    }

    /// Indexed bytes (a maintained total, not a fold).
    pub fn bytes(&self) -> u64 {
        self.indexed_bytes
    }

    /// Full `index.json` rewrites performed since open. Exposed so tests
    /// can assert that read-only bursts batch their recency persistence.
    pub fn manifest_writes(&self) -> u64 {
        self.manifest_writes
    }

    /// Occupancy and cumulative counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            entries: self.len(),
            bytes: self.bytes(),
            capacity_bytes: self.capacity_bytes,
            regions: self.manifest.regions.len(),
            region_bytes: self.region_bytes,
            dead_bytes: self.dead_bytes(),
            hits: self.hits,
            read_bytes: self.read_bytes,
            misses: self.misses,
            spills: self.spills,
            evictions: self.evictions,
            corrupt_dropped: self.corrupt_dropped,
            oversized_skipped: self.oversized_skipped,
            write_errors: self.write_errors,
            manifest_writes: self.manifest_writes,
            flush_errors: self.flush_errors,
            degraded_skips: self.degraded_skips,
            gc_runs: self.gc_runs,
            gc_duration_ns: self.gc_duration_ns,
            lock_wait_ns: self.lock_wait_ns,
            decode_ns: self.decode_ns,
            stale_entries: self.stale_entries(),
            stale_dropped: self.stale_dropped,
            purges: self.manifest.purges,
            last_purge: self.manifest.last_purge,
        }
    }

    /// Ticks the health machine and, when a reopen probe is due, runs it:
    /// write + read-back + remove of a scratch file through the seam. A
    /// success flips the tier back to healthy and re-persists any state
    /// the outage left unflushed; a failure widens the backoff. Healthy
    /// tiers return immediately.
    fn maybe_probe(&mut self) {
        if self.health.healthy() || !self.health.tick() {
            return;
        }
        let probe = self.dir.join(format!("{TMP_PREFIX}health-probe"));
        let payload: &[u8] = b"oipa disk-tier reopen probe";
        let outcome = (|| -> std::io::Result<()> {
            self.io.write(&probe, payload)?;
            let back = self.io.read(&probe)?;
            if back != payload {
                return Err(std::io::Error::other("probe read-back mismatch"));
            }
            self.io.remove(&probe)
        })();
        match outcome {
            Ok(()) => {
                self.health.probe_succeeded();
                // The outage may have left batched recency (or an open-
                // time repair) unpersisted; write it out now that the
                // disk answers again. A failure here re-degrades.
                if self.dirty {
                    let _ = self.persist();
                }
            }
            Err(e) => {
                let _ = self.io.remove(&probe);
                self.health.probe_failed(format!("reopen probe: {e}"));
            }
        }
    }

    /// Drops LRU entries until the budget fits; `protect` exempts one
    /// recency stamp (the entry just inserted). Dropping an entry frees
    /// *indexed* bytes immediately; the physical bytes inside its region
    /// become dead and wait for [`DiskTier::gc`] — unless nothing live
    /// remains in the region, in which case the whole file is removed
    /// on the spot (a failed remove leaves an orphan for the next
    /// open/gc and degrades the tier).
    fn enforce_budget(&mut self, protect: Option<u64>) {
        while self.indexed_bytes > self.capacity_bytes {
            let Some((victim, _)) = self
                .manifest
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| Some(e.last_used) != protect)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let entry = self.manifest.entries.remove(victim);
            self.indexed_bytes -= entry.bytes;
            self.evictions += 1;
            self.drop_region_if_empty(&entry.file);
        }
    }

    /// Removes a region's row and file once no live entry references it.
    /// Never removes the active append target (the last region) — its
    /// row stays so placement keeps appending at the committed offset.
    fn drop_region_if_empty(&mut self, file: &str) {
        if self.manifest.entries.iter().any(|e| e.file == file) {
            return;
        }
        let Some(pos) = self.manifest.regions.iter().position(|r| r.file == file) else {
            return;
        };
        if pos + 1 == self.manifest.regions.len() {
            return;
        }
        self.manifest.regions.remove(pos);
        if let Err(e) = self.io.remove(&self.dir.join(file)) {
            self.health
                .record_error(format!("removing empty region {file}: {e}"));
        }
    }

    /// Atomically rewrites `index.json`, absorbing any batched recency
    /// stamps in the same write. A failure degrades the tier.
    fn persist(&mut self) -> StoreResult<()> {
        let text = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| io_err("serializing the store manifest", e))?;
        let tmp = self.dir.join(format!("{TMP_PREFIX}{MANIFEST_FILE}"));
        let commit = (|| -> std::io::Result<()> {
            self.io.write(&tmp, text.as_bytes())?;
            self.io.sync(&tmp)?;
            self.io.rename(&tmp, &self.dir.join(MANIFEST_FILE))
        })();
        if let Err(e) = commit {
            let _ = self.io.remove(&tmp);
            self.health
                .record_error(format!("committing the store manifest: {e}"));
            return Err(io_err("committing the store manifest", e));
        }
        self.dirty = false;
        self.manifest_writes += 1;
        Ok(())
    }
}

impl Drop for DiskTier {
    /// Flushes batched recency stamps. Best-effort by design: a failed
    /// write on teardown bumps `flush_errors` and costs LRU accuracy,
    /// never data — and never a panic in a destructor.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Parses the id out of a `region-{id:08x}.dat` file name.
fn region_id(file: &str) -> Option<u64> {
    let hex = file
        .strip_prefix(REGION_PREFIX)?
        .strip_suffix(REGION_SUFFIX)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Moves a file into `dir/quarantine/`, suffixing on name collisions.
/// The reason is recorded next to it as `<name>.reason.txt` so operators
/// can see *why* a file was set aside.
fn quarantine_file(io: &dyn StoreIo, dir: &Path, name: &str, reason: &str) -> StoreResult<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    io.create_dir_all(&qdir)
        .map_err(|e| io_err(format!("creating {}", qdir.display()), e))?;
    let mut target = qdir.join(name);
    let mut k = 0u32;
    while io.exists(&target) {
        k += 1;
        target = qdir.join(format!("{name}.{k}"));
    }
    io.rename(&dir.join(name), &target)
        .map_err(|e| io_err(format!("quarantining {name}"), e))?;
    let note = PathBuf::from(format!("{}.reason.txt", target.display()));
    let _ = io.write(&note, format!("{reason}\n").as_bytes());
    Ok(())
}
