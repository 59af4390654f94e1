//! Tier 0 of the pool store: the in-memory keyed pool arena — an LRU
//! cache of sampled [`MrrPool`]s, bounded by resident bytes.
//!
//! Sampling θ MRR sets dominates end-to-end latency (the paper's Table
//! III "sample time" row), yet a pool depends only on the campaign's
//! topic mix, θ, and the sampling seed — not on the adoption model, the
//! budget, the promoter pool, or the solve method. A multi-query session
//! therefore caches pools under that key and lets every subsequent
//! request that shares it skip sampling entirely (the IMM-style
//! amortization of §V-A, applied across requests instead of across
//! parameter sweeps). In a tiered [`crate::PoolStore`], entries evicted
//! from this arena spill to the disk tier instead of being resampled.
//!
//! Concurrency: [`PoolArena::get`] takes `&self` — recency stamps and the
//! hit/miss counters are atomics, so any number of readers can hit the
//! cache simultaneously behind a shared (read) lock. Only inserts and
//! evictions need exclusive access. The resident byte total is maintained
//! incrementally on insert/evict, so budget checks are O(1) instead of a
//! fold over every entry.

use oipa_sampler::MrrPool;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cache key: everything pool contents depend on.
///
/// The campaign component is its canonical JSON rendering, so two
/// requests with structurally equal campaigns share an entry while any
/// difference in topic mixes keys a distinct pool. Externally loaded
/// pools (e.g. a `--pool` file in the CLI) get an `@external:` key that
/// no sampled request can collide with, carrying the pool's content
/// fingerprint in the seed slot so two different injected pools never
/// alias one entry even under the same label and θ.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PoolKey {
    pub(crate) campaign: String,
    pub(crate) theta: usize,
    pub(crate) seed: u64,
}

impl PoolKey {
    /// Key for a pool the service samples itself.
    pub fn sampled(campaign_json: String, theta: usize, seed: u64) -> Self {
        PoolKey {
            campaign: campaign_json,
            theta,
            seed,
        }
    }

    /// Key for a pool injected from outside (file, caller-built). The
    /// seed slot holds [`MrrPool::fingerprint`], so two pools that share
    /// a label and θ but differ in content still key distinct entries —
    /// the label is a human-readable tag, not an identity.
    pub fn external(label: &str, pool: &MrrPool) -> Self {
        PoolKey {
            campaign: format!("@external:{label}"),
            theta: pool.theta(),
            seed: pool.fingerprint(),
        }
    }

    /// The θ the key was built with.
    pub fn theta(&self) -> usize {
        self.theta
    }

    /// The seed slot: the sampling seed for [`PoolKey::sampled`] keys,
    /// the pool content fingerprint for [`PoolKey::external`] keys.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The campaign component (canonical campaign JSON, or the
    /// `@external:<label>` tag of an injected pool).
    pub fn campaign(&self) -> &str {
        &self.campaign
    }
}

struct ArenaEntry {
    key: PoolKey,
    pool: Arc<MrrPool>,
    bytes: usize,
    /// Atomic so a shared-reference `get` can refresh recency while other
    /// readers scan concurrently.
    last_used: AtomicU64,
    /// Pinned entries (injected pools) are never evicted by byte
    /// pressure — only `clear`/`evict_unpinned` removes them. They are
    /// also epoch-exempt: an injected pool is not tied to the instance
    /// lineage, so it serves at any epoch.
    pinned: bool,
    /// The lineage epoch the pool was sampled (or repaired) at. Entries
    /// at older epochs are **stale**: [`PoolArena::get`] misses on them
    /// (they must not serve), but they stay resident so a delta-aware
    /// caller can fetch them via [`PoolArena::get_any`] and repair them
    /// instead of resampling from scratch.
    epoch: u64,
}

/// Cumulative arena counters plus the current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArenaStats {
    /// Pools currently resident.
    pub entries: usize,
    /// Bytes currently resident.
    pub bytes: usize,
    /// The configured byte budget.
    pub capacity_bytes: usize,
    /// Total lookups (always equals `hits + misses`; tracked as its own
    /// counter so concurrency tests can detect lost updates).
    pub lookups: u64,
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that required sampling (or an insert).
    pub misses: u64,
    /// Pools evicted (or displaced by a same-key replace) to stay under
    /// the byte budget.
    pub evictions: u64,
    /// Always 1: the memory tier is one arena. Kept so the
    /// `oipa.stats/v4` wire form is unchanged.
    pub shards: usize,
    /// Resident pools stamped with an older lineage epoch: not servable
    /// as-is, retained as dirty-repairable inputs for delta repair.
    pub stale: usize,
}

/// An LRU pool cache bounded by [`MrrPool::memory_bytes`].
pub struct PoolArena {
    capacity_bytes: usize,
    entries: Vec<ArenaEntry>,
    /// Maintained running total of `entries[..].bytes` — budget checks
    /// must not fold over the arena on every insert.
    resident_bytes: usize,
    clock: AtomicU64,
    /// The lineage epoch entries currently serve at. Entries stamped
    /// with any other epoch are stale: misses for [`Self::get`],
    /// retrievable only through [`Self::get_any`] for repair. A copy of
    /// the owning store's lineage head, written under its write lock.
    current_epoch: u64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PoolArena {
    /// Creates an LRU arena with the given byte budget. A budget of 0
    /// still holds the most recently inserted pool (a usable pool is
    /// never evicted before it serves its own request).
    pub fn new(capacity_bytes: usize) -> Self {
        PoolArena {
            capacity_bytes,
            entries: Vec::new(),
            resident_bytes: 0,
            clock: AtomicU64::new(0),
            current_epoch: 0,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Moves the arena to a new current lineage epoch. Entries stamped
    /// with any other epoch become stale (misses for [`Self::get`],
    /// repairable via [`Self::get_any`]); they stay resident.
    pub fn set_current_epoch(&mut self, epoch: u64) {
        self.current_epoch = epoch;
    }

    /// The epoch entries currently serve at.
    pub fn current_epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Whether an entry may serve as-is: pinned pools are epoch-exempt,
    /// sampled pools must carry the current epoch.
    fn servable(&self, entry: &ArenaEntry) -> bool {
        entry.pinned || entry.epoch == self.current_epoch
    }

    /// Looks up a pool, refreshing its recency on a hit. Takes `&self`:
    /// concurrent readers only contend on atomic counter bumps. An entry
    /// stamped with a non-current epoch is a **miss** (stale pools never
    /// serve); fetch it with [`Self::get_any`] to repair it instead.
    pub fn get(&self, key: &PoolKey) -> Option<Arc<MrrPool>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        match self.entries.iter().find(|e| &e.key == key) {
            Some(entry) if self.servable(entry) => {
                entry.last_used.store(clock, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.pool))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Fetches a pool **at whatever epoch it carries**, with that epoch
    /// (pinned pools, epoch-exempt, report the current one) — the second
    /// look a caller takes after a counted [`Self::get`] miss, and the
    /// delta-repair retrieval path. A servable entry counts as a hit: the
    /// key's miss is already counted and the pool turned up after all. A
    /// stale or absent entry counts nothing. Recency is refreshed either
    /// way, so a stale entry is not evicted out from under the repair it
    /// is about to feed.
    pub fn get_any(&self, key: &PoolKey) -> Option<(Arc<MrrPool>, u64)> {
        let entry = self.entries.iter().find(|e| &e.key == key)?;
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(clock, Ordering::Relaxed);
        if !self.servable(entry) {
            return Some((Arc::clone(&entry.pool), entry.epoch));
        }
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some((Arc::clone(&entry.pool), self.current_epoch()))
    }

    /// Inserts (or replaces) a pool, then evicts least-recently-used
    /// entries until the arena fits its byte budget. The pool just
    /// inserted is exempt from eviction even if it alone exceeds the
    /// budget — a request must be able to use the pool it paid for.
    pub fn insert(&mut self, key: PoolKey, pool: Arc<MrrPool>) {
        self.insert_entry(key, pool, false);
    }

    /// [`Self::insert`], returning the entries eviction removed — and the
    /// pool a same-key replace displaced — so a tiered store can spill
    /// them to disk instead of losing them. Only entries at the current
    /// epoch are returned: a spill stamps the current epoch, so a stale
    /// pool spilled would serve as fresh. Stale entries are dropped (a
    /// disk copy written before the epoch advanced stays repairable).
    pub fn insert_evicting(
        &mut self,
        key: PoolKey,
        pool: Arc<MrrPool>,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        self.insert_entry(key, pool, false)
    }

    /// Inserts a pool that byte pressure must never evict (an injected
    /// pool the session was built around). Only [`Self::clear`] removes
    /// pinned entries. Returns the *sampled* entries the insert evicted
    /// under byte pressure, so a tiered store can spill them.
    pub fn insert_pinned(
        &mut self,
        key: PoolKey,
        pool: Arc<MrrPool>,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        self.insert_entry(key, pool, true)
    }

    fn insert_entry(
        &mut self,
        key: PoolKey,
        pool: Arc<MrrPool>,
        pinned: bool,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        let clock = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let bytes = pool.memory_bytes();
        let mut evicted = Vec::new();
        let mut pinned = pinned;
        // A replace must account for the entry it displaces: keep its pin
        // (an injected pool stays unevictable when re-inserted over) and,
        // for sampled entries, hand the old pool back so a tiered store
        // can spill it and count the displacement so the eviction stats
        // stay accurate. A displaced *pinned* pool is neither counted nor
        // returned: its replacement keeps the pin (the entry never left
        // memory), and pinned pools must not leak to the disk tier — the
        // caller owns their persistence.
        if let Some(idx) = self.entries.iter().position(|e| e.key == key) {
            let old = self.entries.swap_remove(idx);
            self.resident_bytes -= old.bytes;
            pinned |= old.pinned;
            if !old.pinned {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if self.servable(&old) {
                    evicted.push((old.key, old.pool));
                }
            }
        }
        self.entries.push(ArenaEntry {
            key,
            pool,
            bytes,
            last_used: AtomicU64::new(clock),
            pinned,
            epoch: self.current_epoch,
        });
        self.resident_bytes += bytes;
        evicted.extend(self.enforce_budget(Some(clock)));
        evicted
    }

    /// Evicts the least-recently-used unpinned entry (the minimum
    /// `last_used` stamp, the first in entry order on a tie) until the
    /// budget fits; `protect` marks a `last_used` stamp that must survive
    /// (the entry just inserted). Returns the evicted entries at the
    /// current epoch, in eviction order (see [`Self::insert_evicting`]
    /// for why stale ones are not returned).
    fn enforce_budget(&mut self, protect: Option<u64>) -> Vec<(PoolKey, Arc<MrrPool>)> {
        let mut evicted = Vec::new();
        while self.resident_bytes > self.capacity_bytes {
            let Some(victim) = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.pinned && Some(e.last_used.load(Ordering::Relaxed)) != protect)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i)
            else {
                break; // only pinned/protected entries left
            };
            let entry = self.entries.remove(victim);
            self.resident_bytes -= entry.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if self.servable(&entry) {
                evicted.push((entry.key, entry.pool));
            }
        }
        evicted
    }

    /// Bytes currently resident (a maintained total, not a fold).
    pub fn bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Pools currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the arena holds no pools.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached pool (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Changes the byte budget, evicting least-recently-used unpinned
    /// entries until the arena fits (the most recent unpinned entry is
    /// kept if it is all that remains). Returns the evicted entries.
    pub fn set_capacity(&mut self, capacity_bytes: usize) -> Vec<(PoolKey, Arc<MrrPool>)> {
        self.capacity_bytes = capacity_bytes;
        let newest = self
            .entries
            .iter()
            .map(|e| e.last_used.load(Ordering::Relaxed))
            .max();
        self.enforce_budget(newest)
    }

    /// Drops every *sampled* (unpinned) pool, keeping injected ones.
    /// Called when the graph or probability table changes: pools sampled
    /// from the old inputs must not serve the new ones (and must not be
    /// spilled anywhere — they are stale, not cold).
    pub fn evict_unpinned(&mut self) {
        let before = self.entries.len();
        self.entries.retain(|e| e.pinned);
        self.resident_bytes = self.entries.iter().map(|e| e.bytes).sum();
        self.evictions
            .fetch_add((before - self.entries.len()) as u64, Ordering::Relaxed);
    }

    /// Drops every unpinned pool stamped at epoch ≥ `cutoff`. Called when
    /// the lineage diverges from a recorded chain at `cutoff`: entries on
    /// the abandoned branch were sampled from a graph that is not an
    /// ancestor of the new head, so they are unrepairable — stale entries
    /// *below* the divergence stay, still dirty-repairable.
    pub fn evict_epochs_from(&mut self, cutoff: u64) {
        let before = self.entries.len();
        self.entries.retain(|e| e.pinned || e.epoch < cutoff);
        self.resident_bytes = self.entries.iter().map(|e| e.bytes).sum();
        self.evictions
            .fetch_add((before - self.entries.len()) as u64, Ordering::Relaxed);
    }

    /// Occupancy and cumulative counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            entries: self.len(),
            bytes: self.resident_bytes,
            capacity_bytes: self.capacity_bytes,
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            shards: 1,
            stale: self.entries.iter().filter(|e| !self.servable(e)).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_sampler::testkit::fig1;

    fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
        let (g, table, campaign) = fig1();
        Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
    }

    fn key(label: &str, pool: &MrrPool) -> PoolKey {
        PoolKey::external(label, pool)
    }

    #[test]
    fn hit_refreshes_recency() {
        // One seed ⇒ equal byte sizes, so the budget fits exactly two.
        let a = pool(500, 1);
        let bytes = a.memory_bytes();
        let ka = key("a", &a);
        let kb = key("b", &a);
        let kc = key("c", &a);
        let mut arena = PoolArena::new(2 * bytes + 8);
        arena.insert(ka.clone(), a);
        arena.insert(kb.clone(), pool(500, 1));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(arena.get(&ka).is_some());
        arena.insert(kc.clone(), pool(500, 1));
        assert!(arena.get(&ka).is_some());
        assert!(arena.get(&kb).is_none());
        let stats = arena.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn oversized_pool_survives_its_own_insert() {
        let big = pool(1000, 4);
        let kbig = key("big", &big);
        let mut arena = PoolArena::new(0);
        arena.insert(kbig.clone(), big);
        assert_eq!(arena.len(), 1);
        assert!(arena.get(&kbig).is_some());
        // The next insert evicts it — an oversized pool is served, never
        // retained.
        let next = pool(500, 5);
        let knext = key("next", &next);
        arena.insert(knext, next);
        assert_eq!(arena.len(), 1);
        assert!(arena.get(&kbig).is_none());
    }

    /// A zero-byte budget is pass-through, not a panic: every insert
    /// serves its own request and displaces the previous entry.
    #[test]
    fn zero_budget_is_passthrough() {
        let mut arena = PoolArena::new(0);
        for s in 0..4u64 {
            let p = pool(300, s);
            let k = key("zb", &p);
            let evicted = arena.insert_evicting(k.clone(), p);
            assert!(arena.get(&k).is_some(), "seed {s} must serve its insert");
            assert!(evicted.len() <= 1);
            assert_eq!(arena.len(), 1);
        }
        assert_eq!(arena.stats().evictions, 3);
    }

    /// Repeated touches must keep reordering the LRU queue: the victim is
    /// always the least recently *used* entry, not the least recently
    /// inserted one.
    #[test]
    fn eviction_order_tracks_repeated_touches() {
        let a = pool(400, 1);
        let bytes = a.memory_bytes();
        let keys: Vec<PoolKey> = ["a", "b", "c"].iter().map(|l| key(l, &a)).collect();
        let mut arena = PoolArena::new(3 * bytes + 8);
        arena.insert(keys[0].clone(), a.clone());
        arena.insert(keys[1].clone(), pool(400, 1));
        arena.insert(keys[2].clone(), pool(400, 1));
        // Touch a, then b, then a again: recency order is now c < b < a.
        arena.get(&keys[0]);
        arena.get(&keys[1]);
        arena.get(&keys[0]);
        let evicted = arena.insert_evicting(key("d", &a), pool(400, 1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0, keys[2], "c was least recently used");
        // Next victim is b, then a.
        let evicted = arena.insert_evicting(key("e", &a), pool(400, 1));
        assert_eq!(evicted[0].0, keys[1]);
        let evicted = arena.insert_evicting(key("f", &a), pool(400, 1));
        assert_eq!(evicted[0].0, keys[0]);
    }

    /// The PR-5 pin bugfix: re-inserting over a pinned key must not strip
    /// the pin — byte pressure afterwards must still never evict it.
    #[test]
    fn replace_preserves_the_pin_under_pressure() {
        let pinned = pool(500, 1);
        let bytes = pinned.memory_bytes();
        let kp = key("pinned", &pinned);
        let mut arena = PoolArena::new(bytes + 8);
        arena.insert_pinned(kp.clone(), Arc::clone(&pinned));
        // The regression: a plain (unpinned) insert over the same key used
        // to drop the flag, arming eviction of the session's default pool.
        arena.insert(kp.clone(), pinned);
        // Byte pressure: each new pool displaces the previous *sampled*
        // one, never the pinned entry.
        for s in 10..13u64 {
            let p = pool(500, s);
            arena.insert_evicting(key("filler", &p), p);
        }
        assert!(
            arena.get(&kp).is_some(),
            "pinned pool evicted after a same-key replace"
        );
    }

    /// The PR-5 stats bugfix: a same-key replace displaces the old pool —
    /// it must be counted and handed back for spilling, and the running
    /// byte total must not double-count the key.
    #[test]
    fn replace_counts_and_returns_the_displaced_pool() {
        let p = pool(400, 2);
        let bytes = p.memory_bytes();
        let k = key("dup", &p);
        let mut arena = PoolArena::new(usize::MAX);
        assert!(arena.insert_evicting(k.clone(), Arc::clone(&p)).is_empty());
        let displaced = arena.insert_evicting(k.clone(), Arc::clone(&p));
        assert_eq!(displaced.len(), 1, "the replaced pool must be handed back");
        assert_eq!(displaced[0].0, k);
        let stats = arena.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, bytes, "replace must not double-count bytes");
        assert_eq!(stats.evictions, 1, "the displacement must be counted");
    }

    /// The maintained byte total must track every mutation path.
    #[test]
    fn resident_bytes_tracks_all_mutations() {
        let p = pool(300, 7);
        let bytes = p.memory_bytes();
        let mut arena = PoolArena::new(usize::MAX);
        arena.insert(key("a", &p), Arc::clone(&p));
        arena.insert_pinned(key("b", &p), Arc::clone(&p));
        assert_eq!(arena.bytes(), 2 * bytes);
        arena.evict_unpinned();
        assert_eq!(arena.bytes(), bytes);
        arena.clear();
        assert_eq!(arena.bytes(), 0);
        arena.insert(key("c", &p), Arc::clone(&p));
        let evicted = arena.set_capacity(0);
        assert_eq!(evicted.len(), 0, "newest entry survives a zero budget");
        assert_eq!(arena.bytes(), bytes);
        arena.insert(key("d", &p), p);
        assert_eq!(arena.bytes(), bytes, "old entry evicted, total adjusted");
    }

    /// The PR-4 regression: two different externally loaded pools under
    /// the same label and θ must not alias one arena entry.
    #[test]
    fn external_keys_fingerprint_pool_content() {
        let p1 = pool(500, 1);
        let p2 = pool(500, 2); // same θ, different seed ⇒ different content
        assert_ne!(p1.fingerprint(), p2.fingerprint());
        let k1 = PoolKey::external("same-label", &p1);
        let k2 = PoolKey::external("same-label", &p2);
        assert_ne!(k1, k2, "same label + θ must not alias different pools");

        let mut arena = PoolArena::new(usize::MAX);
        arena.insert(k1.clone(), Arc::clone(&p1));
        arena.insert(k2.clone(), Arc::clone(&p2));
        assert_eq!(arena.len(), 2);
        let got1 = arena.get(&k1).unwrap();
        let got2 = arena.get(&k2).unwrap();
        assert_eq!(got1.fingerprint(), p1.fingerprint());
        assert_eq!(got2.fingerprint(), p2.fingerprint());

        // Identical content under the same label still dedups.
        let p1_again = pool(500, 1);
        assert_eq!(PoolKey::external("same-label", &p1_again), k1);
    }

    /// The epoch gate: advancing the current epoch turns resident
    /// sampled entries into misses (stale, repair-only via `get_any`)
    /// without evicting them; pinned entries are epoch-exempt.
    #[test]
    fn epoch_advance_stales_sampled_entries_not_pins() {
        let p = pool(300, 1);
        let ks = PoolKey::sampled("{}".into(), 300, 1);
        let kp = key("pin", &p);
        let mut arena = PoolArena::new(usize::MAX);
        arena.insert(ks.clone(), Arc::clone(&p));
        arena.insert_pinned(kp.clone(), Arc::clone(&p));
        assert!(arena.get(&ks).is_some());

        arena.set_current_epoch(1);
        assert!(arena.get(&ks).is_none(), "stale entry must not serve");
        assert!(arena.get(&kp).is_some(), "pinned entry is epoch-exempt");
        let stats = arena.stats();
        assert_eq!(stats.entries, 2, "stale entries stay resident");
        assert_eq!(stats.stale, 1);
        assert_eq!(stats.lookups, stats.hits + stats.misses);

        // The repair path still reaches it, with its stamped epoch, and
        // counts nothing; the pin reports the current epoch and counts a
        // hit.
        let (back, epoch) = arena.get_any(&ks).expect("stale entry retrievable");
        assert_eq!(epoch, 0);
        assert_eq!(back.fingerprint(), p.fingerprint());
        assert_eq!(arena.stats().lookups, stats.lookups);
        assert_eq!(arena.get_any(&kp).map(|(_, e)| e), Some(1));
        assert_eq!(arena.stats().hits, stats.hits + 1);

        // Re-inserting (a repaired pool) stamps the current epoch and
        // makes the key servable again.
        arena.insert(ks.clone(), Arc::clone(&p));
        assert!(arena.get(&ks).is_some());
        assert_eq!(arena.stats().stale, 0);

        // Divergence drops unpinned entries at or past the cutoff.
        arena.set_current_epoch(2);
        arena.evict_epochs_from(1);
        assert!(arena.get_any(&ks).is_none(), "epoch-1 entry diverged away");
        assert!(arena.get(&kp).is_some(), "pin survives divergence");
    }

    #[test]
    fn pool_key_serde_round_trip() {
        let keys = [
            PoolKey::sampled("{\"pieces\":[]}".into(), 1000, 42),
            PoolKey::external("file.pool", &pool(200, 3)),
        ];
        for k in keys {
            let json = serde_json::to_string(&k).unwrap();
            let back: PoolKey = serde_json::from_str(&json).unwrap();
            assert_eq!(k, back);
        }
    }
}
