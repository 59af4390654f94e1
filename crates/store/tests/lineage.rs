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

/// The store owns each delta's dirty set: `dirty_since` is the sorted,
/// deduplicated union from an epoch to the head, `None` at the head.
#[test]
fn dirty_since_unions_the_deltas_after_an_epoch() {
    let store = PoolStore::memory_only(usize::MAX);
    assert_eq!(store.set_root(ROOT).unwrap(), Default::default());
    assert_eq!(store.dirty_since(0), None, "no delta yet");
    let (head, _) = store.advance(0xD1, vec![7, 3]).unwrap();
    store.advance(0xD2, vec![5, 3]).unwrap();
    store.advance(0xD3, vec![9, 1, 7]).unwrap();
    assert_eq!(store.current_epoch(), 3);
    assert_eq!(store.lineage().len(), 4);
    assert_eq!(store.lineage()[1], head);

    assert_eq!(store.dirty_since(0), Some(vec![1, 3, 5, 7, 9]));
    assert_eq!(store.dirty_since(1), Some(vec![1, 3, 5, 7, 9]));
    assert_eq!(store.dirty_since(2), Some(vec![1, 7, 9]));
    assert_eq!(store.dirty_since(3), None, "the head has nothing to repair");
    assert_eq!(store.dirty_since(4), None);
}

/// An advance marks cached pools stale and says so; the new head is the
/// old one mixed with the delta's digest.
#[test]
fn advance_reports_what_it_invalidated() {
    let store = PoolStore::memory_only(usize::MAX);
    store.set_root(ROOT).unwrap();
    store.insert(key(300, 4), pool(300, 4));
    let (head, invalidated) = store.advance(0xD1, vec![2]).unwrap();
    assert_eq!(head, oipa_graph::mix_fingerprint(ROOT, 0xD1));
    assert_eq!((invalidated.dirty, invalidated.dropped), (1, 0));
    assert!(!invalidated.purged);
    assert!(store.get(&key(300, 4)).is_none());
}

/// A new root starts the dirty history afresh.
#[test]
fn dirty_sets_reset_on_a_new_root() {
    let store = PoolStore::memory_only(usize::MAX);
    store.set_root(ROOT).unwrap();
    store.advance(0xD1, vec![4]).unwrap();
    store.insert(key(300, 4), pool(300, 4));
    let invalidated = store.set_root(0xF00D).unwrap();
    assert!(invalidated.purged, "a foreign root purges");
    assert_eq!(invalidated.dropped, 1);
    assert_eq!(store.lineage(), vec![0xF00D]);
    assert_eq!(store.dirty_since(0), None);
    store.advance(0xD2, vec![6]).unwrap();
    assert_eq!(
        store.dirty_since(0),
        Some(vec![6]),
        "no set from the old chain"
    );
}

/// `set_lineage` back to a shared prefix drops the dirty sets of the
/// abandoned tail and keeps those inside the prefix.
#[test]
fn dirty_sets_truncate_to_the_shared_prefix() {
    let store = PoolStore::memory_only(usize::MAX);
    store.set_root(ROOT).unwrap();
    store.advance(0xD1, vec![1]).unwrap();
    store.advance(0xD2, vec![2]).unwrap();
    store.advance(0xD3, vec![3]).unwrap();
    let chain = store.lineage();
    assert!(!store.set_lineage(&chain[..2]).unwrap(), "shared root");
    assert_eq!(store.current_epoch(), 1);
    assert_eq!(store.dirty_since(0), Some(vec![1]));
    store.advance(0xE2, vec![8]).unwrap();
    assert_eq!(
        store.dirty_since(0),
        Some(vec![1, 8]),
        "no set from the tail"
    );
    assert_eq!(store.dirty_since(1), Some(vec![8]));
}

/// Epochs announced only through `set_lineage` carry no dirty set, so
/// nothing repairs across them; deltas advanced after them do.
#[test]
fn epochs_announced_by_set_lineage_have_no_dirty_set() {
    let store = PoolStore::memory_only(usize::MAX);
    store.set_lineage(&[ROOT]).unwrap();
    store.set_lineage(&[ROOT, HEAD]).unwrap();
    assert_eq!(store.current_epoch(), 1);
    assert_eq!(
        store.dirty_since(0),
        None,
        "the delta's dirty set is unknown"
    );
    store.advance(0xD1, vec![5]).unwrap();
    assert_eq!(store.dirty_since(0), None);
    assert_eq!(store.dirty_since(1), Some(vec![5]));

    // A directory's recorded chain is adopted the same way.
    let dir = tmpdir("adopted-chain");
    let writer = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    writer.set_root(ROOT).unwrap();
    writer.advance(0xD1, vec![5]).unwrap();
    assert_eq!(writer.dirty_since(0), Some(vec![5]));
    drop(writer);
    let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    assert_eq!(reopened.current_epoch(), 1);
    assert_eq!(reopened.dirty_since(0), None);
}

/// A store with a chain keeps it when a disk tier is attached: the
/// directory is stamped with the store's chain, dirty sets and all.
#[test]
fn attaching_a_directory_keeps_the_store_chain() {
    let dir = tmpdir("attach-keeps-chain");
    let mut store = PoolStore::memory_only(usize::MAX);
    store.set_root(ROOT).unwrap();
    store.advance(0xD1, vec![2]).unwrap();
    let chain = store.lineage();
    let invalidated = store.attach_disk(StoreConfig::new(&dir)).unwrap();
    assert_eq!(invalidated, Default::default(), "a fresh directory");
    assert_eq!(store.lineage(), chain);
    assert_eq!(store.dirty_since(0), Some(vec![2]));
    assert_eq!(store.disk().unwrap().lineage(), &chain[..]);
}
