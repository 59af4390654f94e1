//! Acceptance suite for epoch-lineage invalidation (the surgical-
//! invalidation PR):
//!
//! * a **descendant** lineage marks cached pools stale-but-repairable —
//!   they stop serving but stay retrievable (with their epoch) through
//!   `get_any`, and a same-key re-insert rewrites the payload at the
//!   new epoch;
//! * a **non-lineage** fingerprint purges the tier — quarantined, never
//!   served — and leaves a persisted purge record.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::{PoolKey, PoolStore, PoolTier, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-lineage-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
    let (g, table, campaign) = fig1();
    Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
}

fn key(theta: usize, seed: u64) -> PoolKey {
    PoolKey::sampled(format!("campaign-{seed}"), theta, seed)
}

const ROOT: u64 = 0xA11CE;
const HEAD: u64 = 0xB0B0B;

/// The tentpole behavior: advancing the lineage by one epoch (a graph
/// delta) must not purge — pools go stale, repairable, and a same-key
/// write at the new epoch replaces the payload on disk.
#[test]
fn descendant_epoch_marks_stale_and_rewrites_in_place() {
    let dir = tmpdir("descendant");
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.set_lineage(&[ROOT]).unwrap();
    let old = pool(400, 7);
    store.insert(key(400, 7), Arc::clone(&old));
    assert!(store.get(&key(400, 7)).is_some());

    // One delta: [ROOT] → [ROOT, HEAD]. No purge.
    assert!(!store.set_lineage(&[ROOT, HEAD]).unwrap());
    assert_eq!(store.current_epoch(), 1);
    assert!(
        store.get(&key(400, 7)).is_none(),
        "stale pools must never serve"
    );
    let stats = store.stats();
    assert_eq!(stats.mem.stale, 1, "memory copy is stale, not gone");
    let disk = stats.disk.unwrap();
    assert_eq!(disk.entries, 1, "disk copy is stale, not purged");
    assert_eq!(disk.stale_entries, 1);
    assert_eq!(disk.purges, 0);

    // The repair path sees the stale pool with its stamped epoch.
    let (got, epoch, tier) = store.get_any(&key(400, 7)).expect("repairable");
    assert_eq!(epoch, 0);
    assert_eq!(tier, PoolTier::Memory);
    assert_eq!(got.fingerprint(), old.fingerprint());

    // Re-inserting under the same key (what repair does) lands at epoch
    // 1 and replaces the disk payload: same key, new bytes, servable.
    let repaired = pool(400, 8); // stands in for the repaired pool
    store.insert(key(400, 7), Arc::clone(&repaired));
    let (served, tier) = store.get(&key(400, 7)).unwrap();
    assert_eq!(tier, PoolTier::Memory);
    assert_eq!(served.fingerprint(), repaired.fingerprint());
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.entries, 1, "rewrite, not a second entry");
    assert_eq!(disk.stale_entries, 0);
    assert!(disk.dead_bytes > 0, "the stale payload went dead, not live");

    // A restart serves the repaired payload from disk at the head epoch.
    drop(store);
    let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(reopened.lineage(), vec![ROOT, HEAD]);
    let (back, tier) = reopened.get(&key(400, 7)).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(back.fingerprint(), repaired.fingerprint());
    let disk = reopened.disk().unwrap();
    assert_eq!(disk.entries()[0].epoch, 1);
}

/// Stale ancestors survive many epochs and a restart: a pool stamped at
/// epoch 0 is still `get_any`-repairable three deltas later.
#[test]
fn ancestors_stay_repairable_across_epochs_and_restarts() {
    let dir = tmpdir("ancestors");
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.set_lineage(&[ROOT]).unwrap();
    let old = pool(350, 3);
    store.insert(key(350, 3), Arc::clone(&old));
    store.set_lineage(&[ROOT, 2, 3, 4]).unwrap();
    drop(store);

    let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(reopened.current_epoch(), 3);
    assert!(reopened.get(&key(350, 3)).is_none());
    let (got, epoch, tier) = reopened.get_any(&key(350, 3)).expect("still repairable");
    assert_eq!(epoch, 0);
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(got.fingerprint(), old.fingerprint());
}

/// A lineage whose root does not match purges the tier (pools sampled
/// from unrelated inputs are never served *or repaired*), and the purge
/// is recorded — surviving a reopen.
#[test]
fn foreign_root_purges_and_records_it() {
    let dir = tmpdir("foreign-root");
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.set_lineage(&[ROOT, HEAD]).unwrap();
    store.insert(key(300, 1), pool(300, 1));
    store.insert(key(300, 2), pool(300, 2));

    assert!(store.set_lineage(&[0xDEAD, 0xBEEF]).unwrap());
    assert!(store.get(&key(300, 1)).is_none());
    assert!(store.get_any(&key(300, 1)).is_none(), "not even repairable");
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.entries, 0);
    assert_eq!(disk.purges, 1);
    let record = disk.last_purge.expect("purge recorded");
    assert_eq!(record.from, HEAD);
    assert_eq!(record.to, 0xBEEF);
    assert_eq!(record.entries, 2);

    drop(store);
    let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    let disk = reopened.stats().disk.unwrap();
    assert_eq!(disk.purges, 1, "purge count survives a reopen");
    assert_eq!(disk.last_purge, Some(record));
    assert_eq!(reopened.lineage(), vec![0xDEAD, 0xBEEF]);
}

/// A cold restart rolls the lineage back to its root (in-memory deltas
/// are gone): epoch-0 pools revive, post-delta pools on the abandoned
/// tail are dropped — surgically, not via a whole-tier purge.
#[test]
fn root_reload_revives_epoch_zero_and_drops_the_tail() {
    let dir = tmpdir("rollback");
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.set_lineage(&[ROOT]).unwrap();
    let original = pool(320, 5);
    store.insert(key(320, 5), Arc::clone(&original));
    store.set_lineage(&[ROOT, HEAD]).unwrap();
    store.insert(key(320, 6), pool(320, 6)); // lands at epoch 1

    // The service restarts, reloads the original inputs, and announces a
    // root-only lineage.
    assert!(
        !store.set_lineage(&[ROOT]).unwrap(),
        "shared root: no purge"
    );
    let (got, tier) = store.get(&key(320, 5)).expect("epoch-0 pool revived");
    assert_eq!(tier, PoolTier::Memory);
    assert_eq!(got.fingerprint(), original.fingerprint());
    assert!(
        store.get_any(&key(320, 6)).is_none(),
        "abandoned-tail pool dropped"
    );
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.entries, 1);
    assert_eq!(disk.stale_dropped, 1);
    assert_eq!(disk.purges, 0);
}

/// Memory-only stores honor the same lineage discipline: stale on
/// descendants, dropped on foreign roots — with no disk tier involved.
#[test]
fn memory_only_store_tracks_lineage_too() {
    let store = PoolStore::memory_only(usize::MAX);
    store.set_lineage(&[ROOT]).unwrap();
    store.insert(key(300, 4), pool(300, 4));

    store.set_lineage(&[ROOT, HEAD]).unwrap();
    assert!(store.get(&key(300, 4)).is_none());
    let (_, epoch, tier) = store.get_any(&key(300, 4)).expect("stale, repairable");
    assert_eq!(epoch, 0);
    assert_eq!(tier, PoolTier::Memory);

    assert!(
        store.set_lineage(&[0xF00D]).unwrap(),
        "foreign root purges the memory tier"
    );
    assert!(store.get_any(&key(300, 4)).is_none());
    assert_eq!(store.stats().mem.entries, 0);
}

/// A stale memory entry evicted after the lineage advanced must not spill:
/// a spill stamps the current epoch, so the pre-delta pool would then be
/// served from disk as if fresh.
#[test]
fn evicted_stale_pool_is_never_served_as_current() {
    let dir = tmpdir("stale-spill");
    let old = pool(400, 1);
    let mut cfg = StoreConfig::new(&dir);
    cfg.mem_bytes = Some(old.memory_bytes() * 3 / 2); // one pool fits
    let store = PoolStore::open(cfg).unwrap();
    store.set_lineage(&[ROOT]).unwrap();
    store.insert(key(400, 1), Arc::clone(&old));
    store.set_lineage(&[ROOT, HEAD]).unwrap();
    // Byte pressure evicts the stale entry.
    store.insert(key(400, 2), pool(400, 2));
    assert!(store.get(&key(400, 1)).is_none(), "stale pool served");
    let (_, epoch, _) = store.get_any(&key(400, 1)).expect("still repairable");
    assert_eq!(epoch, 0);
}
