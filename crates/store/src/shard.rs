//! Lock striping for the memory tier: N independent [`PoolArena`]
//! shards, each behind its own `RwLock`, keyed by [`PoolKey`] hash.
//!
//! One arena behind one lock serializes every insert against every
//! other insert, and (worse) every memory *hit* against any in-flight
//! insert — the write lock blocks all readers. Striping the arena over
//! N shards cuts both: a lookup or insert locks exactly one shard, so
//! requests for different keys proceed in parallel and only true
//! same-shard collisions contend (the same layering foyer uses in
//! `foyer-memory`, where each eviction container is an independently
//! locked shard).
//!
//! Invariants preserved across sharding:
//!
//! * **Counter losslessness** — each shard keeps its own atomic
//!   counters; [`ShardedArena::stats`] sums them under all read locks,
//!   so `lookups == hits + misses` holds for the aggregate exactly as
//!   it does per shard.
//! * **Budget** — the store's byte budget is split evenly across shards
//!   (remainder bytes go to the low shards), so the aggregate capacity
//!   is exactly the configured total.
//! * **Pins and eviction order** — pinning and victim selection are
//!   per-shard; with one shard (the default) the behavior is bitwise
//!   identical to the pre-shard arena.

use crate::arena::{ArenaStats, PoolArena, PoolKey};
use crate::eviction::EvictionPolicyKind;
use oipa_sampler::MrrPool;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// The default shard count: one — bitwise-compatible with the
/// pre-shard store. Raise it via [`crate::StoreConfig::shards`] when
/// serving from many threads.
pub const DEFAULT_SHARDS: usize = 1;

/// A lock-striped set of [`PoolArena`] shards acting as one cache.
/// Every operation takes `&self` and locks only the shard(s) it needs.
pub(crate) struct ShardedArena {
    shards: Vec<RwLock<PoolArena>>,
    /// Total byte budget across all shards (the sum of per-shard
    /// budgets; kept so `capacity_bytes` needs no locks).
    capacity_bytes: AtomicUsize,
    policy: EvictionPolicyKind,
}

/// Splits `total` bytes into `n` per-shard budgets, remainder to the
/// low shards, so the budgets sum exactly to `total`.
fn split_budget(total: usize, n: usize) -> Vec<usize> {
    let base = total / n;
    let rem = total % n;
    (0..n).map(|i| base + usize::from(i < rem)).collect()
}

/// The shard a key routes to: its Fx hash mod the shard count. Shard 0
/// unconditionally when there is only one (no hashing on the default
/// configuration's hot path).
pub(crate) fn shard_of(key: &PoolKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = oipa_graph::hashing::FxHasher::default();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

impl ShardedArena {
    /// Creates `shards` lock-striped arenas sharing `capacity_bytes`
    /// and evicting by `policy`. `shards` is clamped to at least 1.
    pub(crate) fn new(capacity_bytes: usize, shards: usize, policy: EvictionPolicyKind) -> Self {
        let n = shards.max(1);
        ShardedArena {
            shards: split_budget(capacity_bytes, n)
                .into_iter()
                .map(|b| RwLock::new(PoolArena::with_policy(b, policy.build())))
                .collect(),
            capacity_bytes: AtomicUsize::new(capacity_bytes),
            policy,
        }
    }

    /// How many shards the arena is striped over.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The active eviction policy.
    pub(crate) fn policy(&self) -> EvictionPolicyKind {
        self.policy
    }

    /// The shard index `key` routes to (stable for a given shard count).
    pub(crate) fn shard_of(&self, key: &PoolKey) -> usize {
        shard_of(key, self.shards.len())
    }

    fn shard(&self, key: &PoolKey) -> &RwLock<PoolArena> {
        &self.shards[self.shard_of(key)]
    }

    /// Looks up a pool in the key's shard (shared lock; see
    /// [`PoolArena::get`]).
    pub(crate) fn get(&self, key: &PoolKey) -> Option<Arc<MrrPool>> {
        read(self.shard(key)).get(key)
    }

    /// Epoch-oblivious fetch: a servable entry counts a hit, anything
    /// else counts nothing (see [`PoolArena::get_any`]).
    pub(crate) fn get_any(&self, key: &PoolKey) -> Option<(Arc<MrrPool>, u64)> {
        read(self.shard(key)).get_any(key)
    }

    /// Broadcasts a new current lineage epoch to every shard (see
    /// [`PoolArena::set_current_epoch`]).
    pub(crate) fn set_current_epoch(&self, epoch: u64) {
        for shard in &self.shards {
            read(shard).set_current_epoch(epoch);
        }
    }

    /// The epoch entries currently serve at (shards always agree — the
    /// epoch only changes through [`Self::set_current_epoch`]).
    pub(crate) fn current_epoch(&self) -> u64 {
        read(&self.shards[0]).current_epoch()
    }

    /// Drops unpinned entries at epoch ≥ `cutoff` in every shard (see
    /// [`PoolArena::evict_epochs_from`]).
    pub(crate) fn evict_epochs_from(&self, cutoff: u64) {
        for shard in &self.shards {
            write(shard).evict_epochs_from(cutoff);
        }
    }

    /// Inserts into the key's shard, returning what the insert evicted
    /// or displaced there (see [`PoolArena::insert_evicting`]).
    pub(crate) fn insert_evicting(
        &self,
        key: PoolKey,
        pool: Arc<MrrPool>,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        write(self.shard(&key)).insert_evicting(key, pool)
    }

    /// Pinned insert into the key's shard (see
    /// [`PoolArena::insert_pinned`]).
    pub(crate) fn insert_pinned(
        &self,
        key: PoolKey,
        pool: Arc<MrrPool>,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        write(self.shard(&key)).insert_pinned(key, pool)
    }

    /// The total byte budget across all shards.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity_bytes.load(Ordering::Relaxed)
    }

    /// Re-splits a new total budget across the shards, returning every
    /// entry that no longer fits (each shard keeps its newest unpinned
    /// entry, as the single arena does).
    pub(crate) fn set_capacity(&self, capacity_bytes: usize) -> Vec<(PoolKey, Arc<MrrPool>)> {
        self.capacity_bytes.store(capacity_bytes, Ordering::Relaxed);
        let budgets = split_budget(capacity_bytes, self.shards.len());
        let mut evicted = Vec::new();
        for (shard, budget) in self.shards.iter().zip(budgets) {
            evicted.extend(write(shard).set_capacity(budget));
        }
        evicted
    }

    /// Drops every cached pool in every shard (counters preserved).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            write(shard).clear();
        }
    }

    /// Drops every *sampled* (unpinned) pool in every shard (see
    /// [`PoolArena::evict_unpinned`]).
    pub(crate) fn evict_unpinned(&self) {
        for shard in &self.shards {
            write(shard).evict_unpinned();
        }
    }

    /// Aggregate occupancy and counters: every per-shard counter summed
    /// (losslessly — each shard's own `lookups == hits + misses` holds,
    /// so the sums satisfy it too), `shards` reporting the stripe count.
    pub(crate) fn stats(&self) -> ArenaStats {
        let mut total = ArenaStats {
            entries: 0,
            bytes: 0,
            capacity_bytes: 0,
            lookups: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            shards: self.shards.len(),
            stale: 0,
        };
        for shard in &self.shards {
            let s = read(shard).stats();
            total.entries += s.entries;
            total.bytes += s.bytes;
            total.capacity_bytes += s.capacity_bytes;
            total.lookups += s.lookups;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.stale += s.stale;
        }
        total
    }

    /// Per-shard occupancy and counters, in shard order (the `store ls`
    /// / `/stats` per-shard table).
    pub(crate) fn shard_stats(&self) -> Vec<ArenaStats> {
        self.shards.iter().map(|s| read(s).stats()).collect()
    }

    /// Re-stripes the arena over a new shard count and/or policy,
    /// preserving every entry (recency, frequency, pins) and every
    /// counter. Entries that no longer fit their new shard's budget are
    /// returned for spilling. Exclusive: reconfiguration is topology,
    /// not serving.
    pub(crate) fn reconfigure(
        &mut self,
        shards: usize,
        policy: EvictionPolicyKind,
    ) -> Vec<(PoolKey, Arc<MrrPool>)> {
        let n = shards.max(1);
        let epoch = self.current_epoch();
        let mut entries = Vec::new();
        let mut counters = Vec::new();
        for shard in &self.shards {
            let mut guard = write(shard);
            entries.extend(guard.drain());
            counters.push((guard.stats(), guard.clock()));
        }
        let mut next: Vec<PoolArena> = split_budget(self.capacity_bytes(), n)
            .into_iter()
            .map(|b| {
                let arena = PoolArena::with_policy(b, policy.build());
                arena.set_current_epoch(epoch);
                arena
            })
            .collect();
        // Counters collapse into shard 0: the aggregate stays lossless
        // whatever the old and new stripe counts.
        for (stats, clock) in counters {
            next[0].absorb_counters(stats, clock);
        }
        for entry in entries {
            let idx = shard_of(&entry.key, n);
            next[idx].restore(entry);
        }
        let budgets: Vec<usize> = next.iter().map(|a| a.capacity_bytes()).collect();
        let mut evicted = Vec::new();
        for (arena, budget) in next.iter_mut().zip(budgets) {
            evicted.extend(arena.set_capacity(budget));
        }
        self.shards = next.into_iter().map(RwLock::new).collect();
        self.policy = policy;
        evicted
    }
}

// Poisoned-lock recovery: see the lock helpers in `lib.rs` — cache
// state is redundant, so serving through a poisoned shard is safe.
fn read(shard: &RwLock<PoolArena>) -> std::sync::RwLockReadGuard<'_, PoolArena> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write(shard: &RwLock<PoolArena>) -> std::sync::RwLockWriteGuard<'_, PoolArena> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_sampler::testkit::fig1;

    fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
        let (g, table, campaign) = fig1();
        Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
    }

    fn key(seed: u64) -> PoolKey {
        PoolKey::sampled(format!("shard-{seed}"), 300, seed)
    }

    #[test]
    fn budget_split_sums_exactly_and_routing_is_stable() {
        assert_eq!(split_budget(10, 3), vec![4, 3, 3]);
        assert_eq!(split_budget(0, 2), vec![0, 0]);
        let arena = ShardedArena::new(1 << 20, 4, EvictionPolicyKind::Lru);
        assert_eq!(arena.stats().capacity_bytes, 1 << 20);
        for s in 0..32u64 {
            let k = key(s);
            assert_eq!(arena.shard_of(&k), arena.shard_of(&k.clone()));
            assert!(arena.shard_of(&k) < 4);
        }
        // One shard routes everything to 0 without hashing.
        let one = ShardedArena::new(1 << 20, 1, EvictionPolicyKind::Lru);
        assert_eq!(one.shard_of(&key(7)), 0);
    }

    #[test]
    fn aggregate_counters_stay_lossless_across_shards() {
        let arena = ShardedArena::new(usize::MAX / 2, 4, EvictionPolicyKind::Lru);
        for s in 0..12u64 {
            arena.insert_evicting(key(s), pool(300, s % 3));
        }
        for s in 0..24u64 {
            let _ = arena.get(&key(s)); // 12 hits, 12 misses
        }
        let stats = arena.stats();
        assert_eq!(stats.entries, 12);
        assert_eq!(stats.lookups, 24);
        assert_eq!(stats.hits, 12);
        assert_eq!(stats.misses, 12);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.shards, 4);
        let per: u64 = arena.shard_stats().iter().map(|s| s.lookups).sum();
        assert_eq!(per, stats.lookups, "per-shard view sums to the aggregate");
    }

    #[test]
    fn reconfigure_preserves_entries_pins_and_counters() {
        let mut arena = ShardedArena::new(usize::MAX / 2, 1, EvictionPolicyKind::Lru);
        let pinned = pool(300, 99);
        let kp = PoolKey::external("pin", &pinned);
        arena.insert_pinned(kp.clone(), Arc::clone(&pinned));
        for s in 0..8u64 {
            arena.insert_evicting(key(s), pool(300, s % 3));
        }
        let _ = arena.get(&key(0));
        let _ = arena.get(&key(999)); // one miss
        let before = arena.stats();

        let spilled = arena.reconfigure(4, EvictionPolicyKind::Lfu);
        assert!(spilled.is_empty(), "ample budget spills nothing");
        let after = arena.stats();
        assert_eq!(after.entries, before.entries);
        assert_eq!(after.lookups, before.lookups);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.lookups, after.hits + after.misses);
        assert_eq!(after.shards, 4);
        assert_eq!(arena.policy().name(), "lfu");
        for s in 0..8u64 {
            assert!(arena.get(&key(s)).is_some(), "entry {s} survived");
        }
        assert!(arena.get(&kp).is_some(), "pin survived re-striping");

        // The pin itself survives byte pressure in its new shard.
        let spilled = arena.set_capacity(0);
        assert!(spilled.iter().all(|(k, _)| k != &kp), "pin never spills");
        assert!(arena.get(&kp).is_some());
    }
}
