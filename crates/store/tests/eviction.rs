//! Eviction suite: a golden test pinning the memory tier to its exact
//! least-recently-used victim order.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::{PoolKey, PoolStore};
use std::sync::Arc;

fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
    let (g, table, campaign) = fig1();
    Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
}

fn key(i: u64) -> PoolKey {
    PoolKey::sampled(format!("evict-{i}"), 400, i)
}

/// Golden: the memory tier must reproduce the exact victim order of the
/// pre-shard arena — least-recently-used first, with a `get` refreshing
/// recency. The fixed workload below evicted k1 then k0 before the arena
/// was ever striped; it must keep doing so.
#[test]
fn lru_reproduces_the_pre_shard_eviction_order() {
    let p = pool(400, 1);
    let bytes = p.memory_bytes();
    // Exactly three same-sized pools fit.
    let store = PoolStore::memory_only(3 * bytes);

    store.insert(key(0), Arc::clone(&p)); // clock 1
    store.insert(key(1), Arc::clone(&p)); // clock 2
    store.insert(key(2), Arc::clone(&p)); // clock 3
    assert!(store.get(&key(0)).is_some()); // clock 4: k0 refreshed

    // Fourth insert exceeds the budget: the LRU entry is k1 (clock 2).
    store.insert(key(3), Arc::clone(&p));
    assert!(store.get(&key(1)).is_none(), "victim #1 must be k1 (LRU)");
    for k in [0, 2, 3] {
        assert!(store.get(&key(k)).is_some(), "k{k} evicted out of order");
    }

    // Refresh k2, insert again: the victim must now be k0 — its refresh
    // above is older than everyone else's stamp.
    assert!(store.get(&key(2)).is_some());
    store.insert(key(4), Arc::clone(&p));
    assert!(store.get(&key(0)).is_none(), "victim #2 must be k0");
    for k in [2, 3, 4] {
        assert!(store.get(&key(k)).is_some(), "k{k} evicted out of order");
    }

    let stats = store.arena_stats();
    assert_eq!(stats.evictions, 2, "exactly the two golden evictions");
    assert_eq!(stats.entries, 3);
}

/// The default store's memory tier is one LRU arena, reported on the
/// `oipa.stats/v4` wire form as a single `lru` shard.
#[test]
fn default_store_is_single_shard_lru() {
    let p = pool(400, 2);
    let bytes = p.memory_bytes();
    let store = PoolStore::memory_only(2 * bytes);
    store.insert(key(10), Arc::clone(&p));
    store.insert(key(11), Arc::clone(&p));
    store.insert(key(12), Arc::clone(&p)); // evicts k10
    assert!(store.get(&key(10)).is_none());
    assert!(store.get(&key(11)).is_some());
    assert!(store.get(&key(12)).is_some());

    let snapshot = store.stats();
    assert_eq!(snapshot.policy, "lru");
    assert_eq!(snapshot.mem.shards, 1);
    assert_eq!(snapshot.mem_shards, vec![snapshot.mem]);
}
