//! # oipa-store
//!
//! A tiered, persistent, **concurrent** pool store: an in-memory LRU
//! arena (tier 0) backed by an optional on-disk tier of region-packed,
//! checksummed pools (tier 1).
//!
//! Sampling θ MRR sets dominates end-to-end latency (the paper's "sample
//! time" row; the service bench measures ~126–137× warm-over-cold on the
//! seeded medium instance), yet a memory-only arena loses every warm pool
//! to process exit and to byte pressure. This crate keeps them:
//!
//! * **Tier 0 — the arena**: one [`PoolArena`] behind one `RwLock`,
//!   caching [`MrrPool`]s keyed by [`PoolKey`] under a byte budget and
//!   evicting the least recently used entry first.
//! * **Tier 1 — [`DiskTier`]**: a store directory (an `index.json`
//!   manifest plus a small number of fixed-capacity **region** files,
//!   each an append-only pack of CRC-checksummed pools) with its own
//!   byte budget and LRU eviction. Entries evicted from memory spill
//!   here; an arena miss consults disk before anyone resamples;
//!   reopening the directory after a restart serves yesterday's pools at
//!   disk speed.
//!
//! [`PoolStore::fetch`] is the one way to resolve a pool: memory, then
//! (under the key's in-flight guard) memory again, disk, and finally the
//! caller's `populate` step — handed any stale ancestor of the key to
//! repair — whose pool the store inserts. [`PoolStore::get`] is the same
//! path without the populate step.
//!
//! Concurrency: every cache operation takes `&self` — [`PoolStore`] is
//! `Send + Sync`, so one store can sit behind an `Arc` and serve any
//! number of threads. Memory hits share the arena's read lock (recency
//! stamps and counters are atomics, so readers never block each other);
//! only inserts and evictions take it exclusively. The disk tier sits
//! behind one mutex covering its manifest, recency stamps, counters and
//! file writes (puts and spills). A disk hit holds that lock only to
//! find its entry and read its arrays (straight into the buffers the
//! pool keeps), and again to settle the outcome; the CRC check and the
//! decode of the stored postings run outside it, so lookups of
//! different cold keys decode in parallel. Fetches of
//! the *same* cold key queue on one per-key in-flight guard, held across
//! the disk read and the populate step: every racer after the first
//! takes the pool the first one promoted into memory or populated, so a
//! cold key is decoded or populated once. Lock order is always in-flight
//! guard → epoch state → disk tier → arena lock, and the arena lock is
//! never held while acquiring the disk lock, so none of them can
//! deadlock.
//!
//! Durability rules: pool payloads are appended to the newest region and
//! synced, then committed by an atomic temp+sync+rename manifest rewrite
//! (the rename is the ack point — a torn append is just unindexed bytes
//! past the region's committed watermark, truncated by the next open);
//! every read verifies the pool binio v4 CRC-32 trailer; anything
//! corrupt or unaccounted for is moved to `quarantine/` — recovery never
//! fails an open and corruption is never served. Disk reads batch their
//! LRU stamps in memory (flushed on the next write or on drop) instead
//! of rewriting the manifest per get. A [`DiskTier::set_lineage`]
//! fingerprint *chain* ties a directory to the (graph, probability
//! table) its pools were sampled from — epoch by epoch, so a graph
//! delta marks cached pools stale-but-repairable instead of purging
//! them, while pools from an unrelated instance are never served.
//!
//! [`PoolStore`] is the one owner of the epoch state: the chain (a
//! [`Lineage`]) and each delta's dirty targets, behind one mutex taken
//! before the disk and arena locks. [`PoolStore::advance`] applies a
//! delta and [`PoolStore::dirty_since`] serves repair. The manifest's
//! chain (the persisted copy) and the arena's current epoch (read under
//! the arena's read lock, so memory hits take no further lock) are
//! copies written only under that mutex.
//!
//! ## The `StoreIo` seam and degraded mode
//!
//! The disk tier never calls `std::fs` directly: every byte it moves
//! goes through the [`StoreIo`] trait ([`io::RealIo`] in production).
//! That seam is what makes the crash-safety claims *testable* — the
//! [`io::FaultIo`] wrapper injects ENOSPC/EIO, torn writes and appends,
//! lost renames, full outages, and seeded **crash points** (freeze the
//! directory exactly as a `kill -9` after the Nth operation would),
//! and the test tree replays recovery against every one of them. Wire a
//! custom seam in with [`StoreConfig::with_io`].
//!
//! Failures seen through the seam never fail a request. An I/O error
//! trips the tier's [`TierHealth`] machine into **degraded mode**:
//! lookups and puts short-circuit to misses (callers fall back to the
//! memory tier or resample — answers are bitwise-identical either way),
//! and a request-ticked, exponentially backed-off reopen probe returns
//! the tier to service once the disk recovers. Health is surfaced
//! through [`StatsSnapshot::disk_health`].
//!
//! ```
//! use oipa_sampler::MrrPool;
//! use oipa_store::{Fetched, PoolKey, PoolStore, PoolTier, StoreConfig};
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join("oipa-store-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let (g, table, campaign) = oipa_sampler::testkit::fig1();
//! let pool = Arc::new(MrrPool::generate(&g, &table, &campaign, 500, 7));
//! let key = PoolKey::sampled("doc".into(), 500, 7);
//!
//! // Write-through: the insert lands in memory AND on disk. Note the
//! // shared references — lookups and inserts are `&self`.
//! let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
//! store.insert(key.clone(), Arc::clone(&pool));
//! assert!(matches!(store.get(&key), Some((_, PoolTier::Memory))));
//! drop(store);
//!
//! // A fresh process finds the pool on disk — no resampling.
//! let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
//! let (back, tier) = reopened.get(&key).unwrap();
//! assert_eq!(tier, PoolTier::Disk);
//! assert_eq!(back.fingerprint(), pool.fingerprint());
//!
//! // A key no tier holds is populated once, then served.
//! let other = PoolKey::sampled("doc".into(), 500, 8);
//! let (_, fetched) = reopened
//!     .fetch(&other, |_ancestor| -> Result<_, ()> {
//!         Ok((Arc::new(MrrPool::generate(&g, &table, &campaign, 500, 8)), "sampled"))
//!     })
//!     .unwrap();
//! assert_eq!(fetched, Fetched::Populated("sampled"));
//! assert!(matches!(reopened.get(&other), Some((_, PoolTier::Memory))));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod disk;
pub mod health;
pub mod io;

pub use arena::{ArenaStats, PoolArena, PoolKey};
pub use disk::{
    DiskStats, DiskTier, GcReport, ManifestEntry, OpenReport, PurgeRecord, RegionRow, VerifyReport,
    DEFAULT_REGION_BYTES, MANIFEST_FILE, QUARANTINE_DIR, REGION_PREFIX, REGION_SUFFIX,
};
pub use health::{TierHealth, TierHealthSnapshot, HEALTH_DEGRADED, HEALTH_OK};
pub use io::{DynStoreIo, FaultIo, FaultSchedule, RealIo, StoreIo};

use disk::{Lookup, RawEntry};
use oipa_graph::{Lineage, NodeId};
use oipa_sampler::MrrPool;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Default memory-tier byte budget (≈256 MiB).
pub const DEFAULT_MEM_BYTES: usize = 256 << 20;

/// Default disk-tier byte budget (≈4 GiB).
pub const DEFAULT_DISK_BYTES: u64 = 4 << 30;

/// Errors opening or administering a store directory. Cache *lookups*
/// never error — a broken tier degrades to a miss.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure on the store directory or manifest.
    Io {
        /// What was being done.
        what: String,
        /// The underlying error.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { what, detail } => write!(f, "store io error: {what}: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias for this crate.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Configuration of a tiered store.
#[derive(Clone)]
pub struct StoreConfig {
    /// The store directory (created if absent).
    pub dir: PathBuf,
    /// Memory-tier byte budget override. `None` (the default) leaves the
    /// arena's existing budget alone when attaching to a live store
    /// ([`DEFAULT_MEM_BYTES`] when opening a fresh one) — attaching a
    /// disk tier must not silently rewrite a budget the caller already
    /// chose.
    pub mem_bytes: Option<usize>,
    /// Disk-tier byte budget (default [`DEFAULT_DISK_BYTES`]).
    pub disk_bytes: u64,
    /// Disk-tier region file capacity (default [`DEFAULT_REGION_BYTES`]).
    pub region_bytes: u64,
    /// Write inserts to disk immediately (default `true`). When `false`
    /// pools reach disk only when memory pressure evicts them — cheaper
    /// writes, but pools resident at process exit are lost.
    pub write_through: bool,
    /// The I/O seam the disk tier runs on. `None` (the default) is the
    /// real filesystem; tests and the `--fault-schedule` dev flag inject
    /// a [`FaultIo`] here.
    pub io: Option<DynStoreIo>,
}

impl std::fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreConfig")
            .field("dir", &self.dir)
            .field("mem_bytes", &self.mem_bytes)
            .field("disk_bytes", &self.disk_bytes)
            .field("region_bytes", &self.region_bytes)
            .field("write_through", &self.write_through)
            .field("io", &self.io.as_ref().map(|_| "<custom StoreIo>"))
            .finish()
    }
}

impl StoreConfig {
    /// A config with default budgets and write-through enabled.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            mem_bytes: None,
            disk_bytes: DEFAULT_DISK_BYTES,
            region_bytes: DEFAULT_REGION_BYTES,
            write_through: true,
            io: None,
        }
    }

    /// Runs the disk tier on a custom [`StoreIo`] (fault injection).
    pub fn with_io(mut self, io: DynStoreIo) -> Self {
        self.io = Some(io);
        self
    }
}

/// Which tier answered a [`PoolStore::get`] or [`PoolStore::fetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTier {
    /// Tier 0: the in-memory arena.
    Memory,
    /// Tier 1: a disk region entry (now promoted to memory).
    Disk,
}

impl PoolTier {
    /// The wire name (`memory` / `disk`).
    pub fn name(self) -> &'static str {
        match self {
            PoolTier::Memory => "memory",
            PoolTier::Disk => "disk",
        }
    }
}

impl std::fmt::Display for PoolTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`PoolStore::fetch`] resolved a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched<R> {
    /// Served by a tier. A pool handed over from a concurrent fetch's
    /// populate step counts as a memory hit.
    Hit(PoolTier),
    /// This call's populate step built the pool; carries what it
    /// returned beside the pool.
    Populated(R),
}

/// A stale ancestor of a key, handed to [`PoolStore::fetch`]'s populate
/// step: the pool cached under the key at an older lineage epoch, and
/// that epoch.
pub type Ancestor = (Arc<MrrPool>, u64);

/// What one lineage change did to the cached pools, summed over both
/// tiers: the counts behind a delta report and the invalidation metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Invalidation {
    /// Entries that went stale: kept and repairable, no longer served.
    pub dirty: usize,
    /// Entries dropped: sampled on an abandoned branch, or purged.
    pub dropped: usize,
    /// Whether a tier was purged whole (the new chain's root is foreign).
    pub purged: bool,
}

/// The epoch state: the chain (`None` while unset), and in `dirty[e]`
/// the dirty targets of the delta from epoch `e` to `e + 1` — `None`
/// for epochs announced only through [`PoolStore::set_lineage`].
#[derive(Default)]
struct Epochs {
    lineage: Option<Lineage>,
    dirty: Vec<Option<Vec<NodeId>>>,
}

impl Epochs {
    fn chain(&self) -> &[u64] {
        self.lineage.as_ref().map_or(&[], Lineage::fingerprints)
    }
}

/// Schema identifier stamped into every [`StatsSnapshot`] (v4 adds the
/// epoch-lineage surface: `stale` counts on the memory tier,
/// `stale_entries`/`stale_dropped`/`purges`/`last_purge` on the disk
/// tier; v3 added GC run/duration counters to `disk` and the
/// `degradations` transition counter to `disk_health`; v2 added
/// per-shard memory stats, the eviction-policy name, and region-packed
/// disk counters).
pub const STATS_SCHEMA: &str = "oipa.stats/v4";

/// Occupancy and counters of both tiers, in their versioned,
/// serde-round-trip wire form: the `oipa-server` `GET /stats` endpoint
/// serializes one, `wirebench` deserializes it back, and the schema tag
/// lets either side reject a snapshot from an incompatible peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Schema identifier ([`STATS_SCHEMA`]); consumers should reject a
    /// snapshot carrying any other value.
    pub schema: String,
    /// Memory-tier aggregate occupancy and counters.
    pub mem: ArenaStats,
    /// Per-shard memory-tier stats: one entry, equal to `mem` (the
    /// memory tier is one arena; the field keeps the v4 wire form).
    pub mem_shards: Vec<ArenaStats>,
    /// The memory tier's eviction policy: always `lru`.
    pub policy: String,
    /// Disk-tier occupancy and counters (absent on memory-only stores).
    pub disk: Option<DiskStats>,
    /// Disk-tier health (absent on memory-only stores).
    pub disk_health: Option<TierHealthSnapshot>,
}

impl StatsSnapshot {
    /// Whether the snapshot carries the schema this build understands.
    pub fn schema_ok(&self) -> bool {
        self.schema == STATS_SCHEMA
    }
}

/// The tiered pool store: memory arena in front, optional disk tier
/// behind. All cache operations take `&self` (the store is `Send +
/// Sync`); see the crate docs for the locking discipline.
pub struct PoolStore {
    /// The memory tier: lookups share the read lock, inserts and
    /// evictions take it exclusively.
    arena: RwLock<PoolArena>,
    /// The disk tier. The lock covers manifest state, recency stamps,
    /// counters and writes; a lookup holds it to read an entry's bytes
    /// and to settle the outcome, but not while verifying and decoding
    /// them (see [`Self::settle_disk`]).
    disk: Option<Mutex<DiskTier>>,
    /// Per-key in-flight guards, the one place concurrent fetches of a
    /// key meet: the first fetch to miss memory parks a slot here and
    /// holds it across the disk read and the populate step; concurrent
    /// fetches of the key queue on it, then take the populated pool from
    /// the slot (oversized pools included) or the promoted one from
    /// memory. N concurrent cold fetches ⇒ one decode or one populate.
    in_flight: Mutex<HashMap<PoolKey, Arc<Slot>>>,
    /// The epoch state, kept even on memory-only stores. Lock order:
    /// this lock → disk lock → arena lock.
    epochs: Mutex<Epochs>,
    write_through: bool,
}

impl PoolStore {
    /// A memory-only store (the pre-store service behavior).
    pub fn memory_only(mem_bytes: usize) -> Self {
        PoolStore {
            arena: RwLock::new(PoolArena::new(mem_bytes)),
            disk: None,
            in_flight: Mutex::new(HashMap::new()),
            epochs: Mutex::new(Epochs::default()),
            write_through: false,
        }
    }

    /// Opens a tiered store over a directory, recovering the manifest
    /// (see [`DiskTier::open`]).
    pub fn open(config: StoreConfig) -> StoreResult<Self> {
        let mut store = PoolStore::memory_only(config.mem_bytes.unwrap_or(DEFAULT_MEM_BYTES));
        store.attach_disk(config)?;
        Ok(store)
    }

    /// Attaches (or replaces) the disk tier on an existing store,
    /// keeping the memory tier's contents. The memory budget changes
    /// only when the config names one; entries a smaller budget evicts
    /// spill to the new disk tier. Exclusive (`&mut self`): tier
    /// topology is configuration, not serving. A store with a chain
    /// stamps the directory with it and reports what that invalidated; a
    /// store without one adopts the directory's recorded chain.
    pub fn attach_disk(&mut self, config: StoreConfig) -> StoreResult<Invalidation> {
        let io = config.io.unwrap_or_else(RealIo::arc);
        let mut disk = DiskTier::open_with(config.dir, config.disk_bytes, config.region_bytes, io)?;
        let epochs = self.epochs.get_mut().unwrap_or_else(|e| e.into_inner());
        let invalidated = match &epochs.lineage {
            Some(lineage) => disk.set_lineage(lineage.fingerprints())?,
            None => {
                // Adopt the directory's chain (its deltas' dirty sets are
                // unknown): memory must agree with the manifest on which
                // epoch serves.
                epochs.lineage = Lineage::from_fingerprints(disk.lineage().to_vec());
                epochs.dirty = vec![None; disk.current_epoch() as usize];
                let arena = self.arena.get_mut().unwrap_or_else(|e| e.into_inner());
                arena.set_current_epoch(disk.current_epoch());
                Invalidation::default()
            }
        };
        self.disk = Some(Mutex::new(disk));
        self.write_through = config.write_through;
        if let Some(mem_bytes) = config.mem_bytes {
            self.set_mem_capacity(mem_bytes);
        }
        Ok(invalidated)
    }

    /// The disk tier, when attached (admin surface: `entries`, `verify`,
    /// `gc`, `open_report`). The guard holds the tier's single-writer
    /// lock for its lifetime.
    pub fn disk(&self) -> Option<MutexGuard<'_, DiskTier>> {
        self.disk.as_ref().map(|d| lock(d))
    }

    /// Ties both tiers to an instance-fingerprint chain (see
    /// [`DiskTier::set_lineage`] for the reconciliation rules). On the
    /// memory tier: a shared root keeps resident pools — entries at the
    /// new head's epoch serve, older ones go stale (repairable through
    /// [`Self::get_any`]), entries past the common prefix are dropped —
    /// while a different root drops every sampled entry (pinned pools
    /// stay; the caller owns them). Epochs past the common prefix have
    /// no dirty sets. Returns whether a purge happened on either tier.
    pub fn set_lineage(&self, lineage: &[u64]) -> StoreResult<bool> {
        let lineage = Lineage::from_fingerprints(lineage.to_vec());
        Ok(self.rechain(&mut lock(&self.epochs), lineage)?.purged)
    }

    /// [`Self::set_lineage`] to the one-epoch chain `[root]`, reporting
    /// what it invalidated.
    pub fn set_root(&self, root: u64) -> StoreResult<Invalidation> {
        self.rechain(&mut lock(&self.epochs), Some(Lineage::new(root)))
    }

    /// Advances the chain by one delta ([`Lineage::advance`]) and keeps
    /// its dirty targets for [`Self::dirty_since`]; every cached pool
    /// goes stale. Returns the new head and what was invalidated. Panics
    /// if no chain is set: a delta needs a root to advance from.
    pub fn advance(&self, digest: u64, dirty: Vec<NodeId>) -> StoreResult<(u64, Invalidation)> {
        let mut epochs = lock(&self.epochs);
        let mut lineage = epochs.lineage.clone().expect("a delta needs a root");
        let head = lineage.advance(digest);
        let invalidated = self.rechain(&mut epochs, Some(lineage))?;
        *epochs.dirty.last_mut().expect("one set per delta") = Some(dirty);
        Ok((head, invalidated))
    }

    /// Moves both tiers and the epoch state to `lineage` (`None`: unset).
    fn rechain(&self, epochs: &mut Epochs, lineage: Option<Lineage>) -> StoreResult<Invalidation> {
        let new = lineage.as_ref().map_or(&[][..], Lineage::fingerprints);
        let old = epochs.chain();
        let prefix = lineage.as_ref().map_or(0, |l| l.common_prefix(old));
        let mut invalidated = match self.disk.as_ref() {
            Some(disk) => lock(disk).set_lineage(new)?,
            None => Invalidation::default(),
        };
        let mut arena = write(&self.arena);
        let (stale, resident) = (arena.stats().stale, arena.len());
        if prefix == 0 && !old.is_empty() && !new.is_empty() {
            arena.evict_unpinned();
            invalidated.purged |= arena.len() < resident;
        } else if prefix < old.len() {
            // Shared root, abandoned tail: resident pools sampled past
            // the divergence are unrepairable.
            arena.evict_epochs_from(prefix as u64);
        }
        arena.set_current_epoch(new.len().saturating_sub(1) as u64);
        invalidated.dirty += arena.stats().stale.saturating_sub(stale);
        invalidated.dropped += resident - arena.len();
        epochs.dirty.truncate(prefix.saturating_sub(1));
        epochs.dirty.resize(new.len().saturating_sub(1), None);
        epochs.lineage = lineage;
        Ok(invalidated)
    }

    /// The store's recorded instance-fingerprint chain (empty while
    /// unset).
    pub fn lineage(&self) -> Vec<u64> {
        lock(&self.epochs).chain().to_vec()
    }

    /// The lineage epoch pools currently serve at.
    pub fn current_epoch(&self) -> u64 {
        read(&self.arena).current_epoch()
    }

    /// The sorted, deduplicated union of the dirty sets of the deltas
    /// from `epoch` to the head: what a pool stamped at `epoch` must
    /// resample. `None` when `epoch` is not older than the head or a
    /// delta in between has no dirty set (see [`Self::set_lineage`]).
    pub fn dirty_since(&self, epoch: u64) -> Option<Vec<NodeId>> {
        let epochs = lock(&self.epochs);
        let tail = epochs
            .dirty
            .get(epoch as usize..)
            .filter(|t| !t.is_empty())?;
        let mut dirty = Vec::new();
        for set in tail {
            dirty.extend_from_slice(set.as_deref()?);
        }
        drop(epochs);
        dirty.sort_unstable();
        dirty.dedup();
        Some(dirty)
    }

    /// Resolves a pool, populating it when no tier holds it. The steps:
    ///
    /// 1. memory lookup;
    /// 2. the key's in-flight guard: a concurrent fetch that populated
    ///    the key while this one queued hands its pool over;
    /// 3. memory again (a racer may have promoted or inserted the pool);
    /// 4. disk: read under the tier lock, verify and decode outside it,
    ///    settle under it (a hit is promoted into memory);
    /// 5. the key's stale ancestor at any epoch, memory then disk;
    /// 6. `populate(ancestor)`, run exactly once across concurrent
    ///    fetches of the key.
    ///
    /// The pool `populate` returns is inserted like any [`Self::insert`]
    /// (write-through, spills, oversized pools persisted but not cached)
    /// and put in the guard's slot before the guard is released, so
    /// queued fetches take it and never populate again. A `populate`
    /// error is returned as is and leaves no guard behind: the next
    /// fetch of the key populates afresh. `populate` runs under the key's
    /// guard and must not fetch.
    pub fn fetch<R, E>(
        &self,
        key: &PoolKey,
        populate: impl FnOnce(Option<Ancestor>) -> Result<(Arc<MrrPool>, R), E>,
    ) -> Result<(Arc<MrrPool>, Fetched<R>), E> {
        self.resolve(
            key,
            |pool, tier| Ok((pool, Fetched::Hit(tier))),
            |slot| {
                let ancestor = self.get_any(key).map(|(pool, epoch, _)| (pool, epoch));
                let (pool, made) = populate(ancestor)?;
                self.insert(key.clone(), Arc::clone(&pool));
                *slot = Some(Arc::clone(&pool));
                Ok((pool, Fetched::Populated(made)))
            },
        )
    }

    /// Looks up a pool: [`Self::fetch`] without steps 5 and 6. A disk hit
    /// is promoted into the memory tier (evicted entries spill back
    /// out), so repeat lookups of a hot key stay at memory speed.
    pub fn get(&self, key: &PoolKey) -> Option<(Arc<MrrPool>, PoolTier)> {
        self.resolve(key, |pool, tier| Some((pool, tier)), |_| None)
    }

    /// Fetches a pool **at whatever epoch it carries** — the stale
    /// lookup of [`Self::fetch`]'s step 5, for callers that know the
    /// dirty history between the returned epoch and the head and can
    /// repair the pool forward. Memory first, then disk (CRC-verified
    /// like any disk read). No promotion, and a miss counts nothing: the
    /// caller repairs and re-inserts at the current epoch, which is the
    /// write that lands the repaired pool in both tiers.
    pub fn get_any(&self, key: &PoolKey) -> Option<(Arc<MrrPool>, u64, PoolTier)> {
        // Its own statement: the arena guard must drop before the disk
        // lookup takes the disk lock.
        let resident = read(&self.arena).get_any(key);
        if let Some((pool, epoch)) = resident {
            return Some((pool, epoch, PoolTier::Memory));
        }
        let (pool, epoch) = self.disk_lookup(key, Lookup::AnyEpoch)?;
        Some((pool, epoch, PoolTier::Disk))
    }

    /// Steps 1–4 of [`Self::fetch`], shared with [`Self::get`]: a hit
    /// goes to `hit`; a miss runs `miss` under the key's in-flight guard
    /// with the guard's slot, for it to fill.
    fn resolve<T>(
        &self,
        key: &PoolKey,
        hit: impl FnOnce(Arc<MrrPool>, PoolTier) -> T,
        miss: impl FnOnce(&mut Option<Arc<MrrPool>>) -> T,
    ) -> T {
        let resident = read(&self.arena).get(key);
        if let Some(pool) = resident {
            return hit(pool, PoolTier::Memory);
        }
        let slot = Arc::clone(lock(&self.in_flight).entry(key.clone()).or_default());
        let mut held = lock(&slot);
        let resolved = if let Some(pool) = held.as_ref() {
            hit(Arc::clone(pool), PoolTier::Memory)
        } else if let Some(pool) = self.servable_again(key) {
            hit(pool, PoolTier::Memory)
        } else if let Some((pool, _)) = self.disk_lookup(key, Lookup::Get) {
            hit(pool, PoolTier::Disk)
        } else {
            miss(&mut held)
        };
        drop(held);
        // Only the slot this fetch queued on may go: after a populate
        // error another fetch can have parked a fresh one, and removing
        // *that* would let a third start a duplicate populate.
        let mut in_flight = lock(&self.in_flight);
        if in_flight.get(key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
            in_flight.remove(key);
        }
        resolved
    }

    /// Step 3 of [`Self::fetch`]: a second memory look after a counted
    /// miss. The miss is already counted, so a servable entry counts only
    /// its hit (see [`PoolArena::get_any`]) and a stale one counts
    /// nothing.
    fn servable_again(&self, key: &PoolKey) -> Option<Arc<MrrPool>> {
        let arena = read(&self.arena);
        let (pool, epoch) = arena.get_any(key)?;
        (epoch == arena.current_epoch()).then_some(pool)
    }

    /// A disk-tier lookup, step 1 of which is [`DiskTier::read`] under
    /// the tier lock; see [`Self::settle_disk`] for steps 2 and 3.
    fn disk_lookup(&self, key: &PoolKey, lookup: Lookup) -> Option<(Arc<MrrPool>, u64)> {
        let disk = self.disk.as_ref()?;
        // Its own statement: the tier guard must drop before the decode,
        // not at the end of an enclosing expression.
        let raw = lock_timed(disk).read(key, lookup)?;
        self.settle_disk(disk, key, raw, lookup)
    }

    /// Lookup steps 2 and 3, after [`DiskTier::read`] took an entry's
    /// arrays under the tier lock: verify and decode them with the lock
    /// released, then take it again to settle the outcome (see
    /// [`DiskTier::settle`]). A servable serving hit is promoted into
    /// memory before the lock is released, unless the pool alone exceeds
    /// the memory budget — an oversized pool is served, never cached (it
    /// could only displace everything else and then be evicted itself).
    /// The repair path promotes nothing: its caller re-inserts the
    /// repaired pool.
    fn settle_disk(
        &self,
        disk: &Mutex<DiskTier>,
        key: &PoolKey,
        raw: RawEntry,
        lookup: Lookup,
    ) -> Option<(Arc<MrrPool>, u64)> {
        let started = Instant::now();
        let (at, decoded) = raw.decode();
        let decoding = started.elapsed();
        let mut tier = lock_timed(disk);
        tier.record_decode(decoding);
        let (pool, epoch) = tier.settle(key, at, decoded, lookup)?;
        let pool = Arc::new(pool);
        if lookup != Lookup::AnyEpoch {
            let mut arena = write(&self.arena);
            if pool.memory_bytes() <= arena.capacity_bytes() {
                let evicted = arena.insert_evicting(key.clone(), Arc::clone(&pool));
                drop(arena);
                spill(&mut tier, evicted);
            }
        }
        Some((pool, epoch))
    }

    /// Inserts a sampled pool. With a disk tier and write-through the
    /// pool is persisted immediately; entries the insert evicts from
    /// memory spill to disk either way. A pool larger than the memory
    /// budget is not cached in memory (it is still persisted): the
    /// caller keeps its `Arc` and serves from that.
    pub fn insert(&self, key: PoolKey, pool: Arc<MrrPool>) {
        let oversized = pool.memory_bytes() > read(&self.arena).capacity_bytes();
        if self.write_through || oversized {
            // These paths write the pool now: disk lock first (the
            // crate-wide lock order), held across the arena insert so the
            // publish and its spills stay one atomic disk transaction.
            let mut disk = self.disk.as_ref().map(lock);
            if let Some(disk) = disk.as_deref_mut() {
                disk.put(&key, &pool);
            }
            if oversized {
                // Never resident: served from the caller's Arc, persisted
                // above.
                return;
            }
            let evicted = write(&self.arena).insert_evicting(key, pool);
            if let Some(disk) = disk.as_deref_mut() {
                spill(disk, evicted);
            }
            return;
        }
        // Lazy-write path: a pure memory insert must not queue behind
        // in-flight disk I/O — only take the disk lock when an eviction
        // actually has something to spill (the arena guard is already
        // released by then, preserving the lock order).
        let evicted = write(&self.arena).insert_evicting(key, pool);
        if evicted.is_empty() {
            return;
        }
        if let Some(disk) = self.disk.as_ref() {
            spill(&mut lock(disk), evicted);
        }
    }

    /// Inserts a pool that memory pressure must never evict (an injected
    /// pool the session was built around). Pinned pools stay memory-only
    /// (the caller owns their persistence) — but the *sampled* entries
    /// the insert displaces under byte pressure still spill to disk,
    /// exactly as they would on any other insert.
    pub fn insert_pinned(&self, key: PoolKey, pool: Arc<MrrPool>) {
        let evicted = write(&self.arena).insert_pinned(key, pool);
        if evicted.is_empty() {
            return;
        }
        if let Some(disk) = self.disk.as_ref() {
            spill(&mut lock(disk), evicted);
        }
    }

    /// Replaces the memory-tier byte budget; entries that no longer fit
    /// spill to disk.
    pub fn set_mem_capacity(&self, mem_bytes: usize) {
        let mut disk = self.disk.as_ref().map(lock);
        let evicted = write(&self.arena).set_capacity(mem_bytes);
        if let Some(disk) = disk.as_deref_mut() {
            spill(disk, evicted);
        }
    }

    /// Drops every memory-resident pool (disk entries are kept).
    pub fn clear_memory(&self) {
        write(&self.arena).clear();
    }

    /// Drops every *sampled* (unpinned) memory entry without spilling —
    /// called when the sampling inputs change, so the dropped pools are
    /// stale, not cold. Pair with [`Self::set_lineage`] to purge the
    /// disk tier of the same staleness.
    pub fn evict_unpinned(&self) {
        write(&self.arena).evict_unpinned();
    }

    /// Flushes any batched disk-tier recency stamps to the manifest (see
    /// [`DiskTier::flush`]). No-op on memory-only stores.
    pub fn flush(&self) -> StoreResult<()> {
        match self.disk.as_ref() {
            Some(disk) => lock(disk).flush(),
            None => Ok(()),
        }
    }

    /// Memory-tier stats.
    pub fn arena_stats(&self) -> ArenaStats {
        read(&self.arena).stats()
    }

    /// Both tiers' stats.
    pub fn stats(&self) -> StatsSnapshot {
        let (disk, disk_health) = match self.disk.as_ref() {
            Some(d) => {
                let guard = lock(d);
                (Some(guard.stats()), Some(guard.health()))
            }
            None => (None, None),
        };
        let mem = self.arena_stats();
        StatsSnapshot {
            schema: STATS_SCHEMA.to_string(),
            mem,
            mem_shards: vec![mem],
            policy: "lru".to_string(),
            disk,
            disk_health,
        }
    }

    /// The disk tier's health, when one is attached. `None` on a
    /// memory-only store (nothing to degrade).
    pub fn health(&self) -> Option<TierHealthSnapshot> {
        self.disk.as_ref().map(|d| lock(d).health())
    }
}

/// Spills arena-evicted entries to the disk tier (the caller already
/// holds the disk lock, keeping the spill single-writer).
fn spill(disk: &mut DiskTier, evicted: Vec<(PoolKey, Arc<MrrPool>)>) {
    for (key, pool) in evicted {
        disk.put(&key, &pool);
    }
}

/// A per-key in-flight guard (see `PoolStore::in_flight`): locked by the
/// fetch resolving the key, filled with the pool its populate step
/// built for the fetches queued on it.
type Slot = Mutex<Option<Arc<MrrPool>>>;

// Lock helpers: a poisoned lock means another thread panicked mid-write.
// The cache's data is a redundant copy of recomputable state (pools are
// resampleable, the disk tier re-verifies everything it reads), so
// serving through a poisoned lock is safe — propagating the panic to
// every other request thread is not.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

fn read(arena: &RwLock<PoolArena>) -> RwLockReadGuard<'_, PoolArena> {
    arena.read().unwrap_or_else(|e| e.into_inner())
}

fn write(arena: &RwLock<PoolArena>) -> RwLockWriteGuard<'_, PoolArena> {
    arena.write().unwrap_or_else(|e| e.into_inner())
}

/// Takes the disk-tier lock for a serving lookup, recording how long it
/// waited ([`DiskStats::lock_wait_ns`]).
fn lock_timed(disk: &Mutex<DiskTier>) -> MutexGuard<'_, DiskTier> {
    let started = Instant::now();
    let mut tier = lock(disk);
    tier.record_lock_wait(started.elapsed());
    tier
}

/// Deterministic interleavings of a disk lookup's read and settle steps:
/// each test runs step 1, changes the tier the way a racing thread could
/// while the lock is released, then runs steps 2 and 3. Plus the guard
/// bookkeeping integration tests cannot see.
#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const ROOT: u64 = 0xA11CE;
    const HEAD: u64 = 0xB0B0B;

    fn store(name: &str) -> (PoolStore, PathBuf) {
        let dir = std::env::temp_dir()
            .join("oipa-store-interleave")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
        store.set_lineage(&[ROOT]).unwrap();
        (store, dir)
    }

    fn pool(seed: u64) -> Arc<MrrPool> {
        let (g, table, campaign) = oipa_sampler::testkit::fig1();
        Arc::new(MrrPool::generate(&g, &table, &campaign, 400, seed))
    }

    fn key() -> PoolKey {
        PoolKey::sampled("interleave".into(), 400, 7)
    }

    /// Flips one payload byte of the key's entry inside its region file.
    fn corrupt_entry(store: &PoolStore, dir: &Path) -> String {
        let (file, offset, bytes) = {
            let disk = store.disk().unwrap();
            let e = &disk.entries()[0];
            (e.file.clone(), e.offset, e.bytes)
        };
        let path = dir.join(&file);
        let mut data = std::fs::read(&path).unwrap();
        data[(offset + bytes / 2) as usize] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        file
    }

    fn disk_stats(store: &PoolStore) -> DiskStats {
        store.stats().disk.unwrap()
    }

    #[test]
    fn lineage_advanced_between_read_and_settle_is_a_miss() {
        let (store, _dir) = store("lineage");
        store.insert(key(), pool(7));
        store.clear_memory();
        let disk = store.disk.as_ref().unwrap();

        let raw = lock_timed(disk).read(&key(), Lookup::Get).unwrap();
        store.set_lineage(&[ROOT, HEAD]).unwrap();
        assert!(store.settle_disk(disk, &key(), raw, Lookup::Get).is_none());

        assert_eq!(store.arena_stats().entries, 0, "nothing promoted");
        let stats = disk_stats(&store);
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(stats.stale_entries, 1, "the entry stays, repairable");
        assert_eq!(stats.corrupt_dropped, 0);
    }

    #[test]
    fn failed_decode_spares_an_entry_rewritten_meanwhile() {
        let (store, dir) = store("reput");
        store.insert(key(), pool(7));
        store.clear_memory();
        let file = corrupt_entry(&store, &dir);
        let disk = store.disk.as_ref().unwrap();

        let raw = lock_timed(disk).read(&key(), Lookup::AnyEpoch).unwrap();
        // A delta repair rewrites the key at the next epoch while the
        // corrupt bytes decode.
        store.set_lineage(&[ROOT, HEAD]).unwrap();
        let fresh = pool(8);
        store.insert(key(), Arc::clone(&fresh));
        store.clear_memory();
        assert!(store
            .settle_disk(disk, &key(), raw, Lookup::AnyEpoch)
            .is_none());

        let stats = disk_stats(&store);
        assert_eq!(stats.corrupt_dropped, 0, "the fresh entry was not dropped");
        assert_eq!((stats.entries, stats.stale_entries), (1, 0));
        assert!(!dir.join(QUARANTINE_DIR).join(&file).exists());
        let (served, tier) = store.get(&key()).expect("the fresh entry serves");
        assert_eq!(tier, PoolTier::Disk);
        assert_eq!(served.fingerprint(), fresh.fingerprint());
    }

    #[test]
    fn corrupt_entry_read_twice_is_dropped_once() {
        let (store, dir) = store("corrupt");
        store.insert(key(), pool(7));
        store.clear_memory();
        let file = corrupt_entry(&store, &dir);
        let disk = store.disk.as_ref().unwrap();

        // Two lookups read the same corrupt bytes before either settles.
        let first = lock_timed(disk).read(&key(), Lookup::Get).unwrap();
        let second = lock_timed(disk).read(&key(), Lookup::Get).unwrap();
        assert!(store
            .settle_disk(disk, &key(), first, Lookup::Get)
            .is_none());
        assert!(store
            .settle_disk(disk, &key(), second, Lookup::Get)
            .is_none());

        let stats = disk_stats(&store);
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits + stats.misses, 2, "one count per lookup");
        assert_eq!(stats.hits, 0);
        let quarantined: Vec<_> = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| !name.ends_with(".reason.txt"))
            .collect();
        assert_eq!(quarantined, vec![file]);
        assert_eq!(store.arena_stats().entries, 0, "nothing promoted");
    }

    #[test]
    fn fetch_leaves_no_guard_behind() {
        let (store, _dir) = store("guard");
        let failed = store.fetch(&key(), |_| -> Result<(Arc<MrrPool>, ()), &str> {
            Err("no")
        });
        assert_eq!(failed.unwrap_err(), "no");
        assert!(lock(&store.in_flight).is_empty(), "a failed populate");
        store
            .fetch(&key(), |_| -> Result<_, ()> { Ok((pool(7), ())) })
            .unwrap();
        assert!(store
            .get(&PoolKey::sampled("absent".into(), 1, 1))
            .is_none());
        assert!(lock(&store.in_flight).is_empty(), "a populate and a miss");
    }

    #[test]
    fn serving_lookups_record_their_lock_wait() {
        let (store, _dir) = store("lock-wait");
        store.insert(key(), pool(7));
        store.clear_memory();
        let before = disk_stats(&store).lock_wait_ns;
        std::thread::scope(|scope| {
            let held = store.disk().unwrap();
            let (ready, started) = std::sync::mpsc::channel();
            let store = &store;
            let waiter = scope.spawn(move || {
                ready.send(()).unwrap();
                store.get(&key()).map(|(_, tier)| tier)
            });
            // The waiter is at the lock; keep it waiting a while.
            started.recv().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
            assert_eq!(waiter.join().unwrap(), Some(PoolTier::Disk));
        });
        let waited = disk_stats(&store).lock_wait_ns - before;
        assert!(waited >= 25_000_000, "waited {waited} ns");
    }

    #[test]
    fn disk_hits_record_their_decode_time() {
        let (store, _dir) = store("decode-time");
        store.insert(key(), pool(7));
        store.clear_memory();
        assert_eq!(disk_stats(&store).decode_ns, 0, "nothing decoded yet");
        assert_eq!(
            store.get(&key()).map(|(_, tier)| tier),
            Some(PoolTier::Disk)
        );
        let stats = disk_stats(&store);
        assert_eq!(stats.hits, 1);
        assert!(stats.decode_ns > 0);
    }
}
