//! Fault-injection suite for the disk tier's degraded mode: ENOSPC in
//! the middle of a segment write, a store directory gone read-only, and
//! the drop-flush error counter. The common theme: a sick disk costs
//! cache effectiveness, never a request, and the tier finds its own way
//! back once the fault clears.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::io::{FaultIo, FaultSchedule};
use oipa_store::{DiskTier, PoolKey, PoolStore, PoolTier, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-fault-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
    let (g, table, campaign) = fig1();
    Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
}

fn key(theta: usize, seed: u64) -> PoolKey {
    PoolKey::sampled(format!("fault-{seed}"), theta, seed)
}

/// Drives the request-ticked reopen probe: each get of an unknown key
/// takes the disk path (arena misses), ticking the health machine until
/// the backoff elapses and the probe runs.
fn tick_probe(store: &PoolStore, rounds: usize) {
    for i in 0..rounds {
        let _ = store.get(&key(10, 9_000 + i as u64));
    }
}

/// ENOSPC in the middle of a segment write: the insert is swallowed
/// (counted, degraded), the pool keeps serving from memory, and once
/// space returns the tier probes its way back and persists again.
#[test]
fn enospc_mid_segment_write_degrades_and_recovers() {
    let dir = tmpdir("enospc");
    // Write #0 is the open's manifest persist; write #1 is the first
    // segment write — the one the disk-full moment hits.
    let fault = FaultIo::over_real(FaultSchedule::parse("write:enospc=1").unwrap());
    let store = PoolStore::open(StoreConfig::new(&dir).with_io(fault.clone())).unwrap();
    assert!(store.health().unwrap().is_healthy());

    let p = pool(400, 7);
    let k = key(400, 7);
    store.insert(k.clone(), Arc::clone(&p)); // segment write fails ENOSPC
    let health = store.health().unwrap();
    assert!(!health.is_healthy(), "ENOSPC must degrade the tier");
    assert!(
        health.last_error.unwrap().contains("ENOSPC"),
        "the detail names the fault"
    );
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.write_errors, 1);
    assert_eq!(disk.entries, 0, "nothing half-written is indexed");

    // The request path is unharmed: the pool serves from memory.
    let (served, tier) = store.get(&k).expect("memory tier still serves");
    assert_eq!(tier, PoolTier::Memory);
    assert_eq!(served.fingerprint(), p.fingerprint());

    // Degraded lookups short-circuit (counted), they do not error.
    assert!(store.get(&key(400, 8)).is_none());
    assert!(store.stats().disk.unwrap().degraded_skips > 0);

    // Space "returns" (the rule was one-shot); the probe brings the tier
    // back within a few requests.
    tick_probe(&store, 8);
    let health = store.health().unwrap();
    assert!(health.is_healthy(), "the tier must recover: {health:?}");
    assert_eq!(health.recoveries, 1);

    // And new writes land durably again.
    let p2 = pool(300, 21);
    let k2 = key(300, 21);
    store.insert(k2.clone(), Arc::clone(&p2));
    drop(store);
    let reopened = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    let (back, tier) = reopened.get(&k2).expect("post-recovery write persisted");
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(back.fingerprint(), p2.fingerprint());
}

/// A store directory that goes read-only mid-session: reads keep
/// hitting, writes degrade the tier, and clearing the condition restores
/// full service — all without a single surfaced error.
#[test]
fn read_only_store_dir_degrades_writes_then_recovers() {
    let dir = tmpdir("readonly");
    // Seed the directory with one segment while healthy.
    let p = pool(500, 3);
    let k = key(500, 3);
    {
        let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
        store.insert(k.clone(), Arc::clone(&p));
    }

    let fault = FaultIo::over_real(FaultSchedule::none());
    let store = PoolStore::open(StoreConfig::new(&dir).with_io(fault.clone())).unwrap();
    // Disk-warm read works before the filesystem flips.
    let (back, tier) = store.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(back.fingerprint(), p.fingerprint());

    fault.set_readonly(true);
    // Inserts are swallowed: no error, tier degraded, pool serves from
    // memory.
    let p2 = pool(350, 4);
    let k2 = key(350, 4);
    store.insert(k2.clone(), Arc::clone(&p2));
    assert!(!store.health().unwrap().is_healthy());
    let (served, tier) = store.get(&k2).unwrap();
    assert_eq!(tier, PoolTier::Memory);
    assert_eq!(served.fingerprint(), p2.fingerprint());

    // Writable again: probe recovers, and the tier serves disk hits.
    fault.set_readonly(false);
    tick_probe(&store, 8);
    assert!(store.health().unwrap().is_healthy());
    store.clear_memory();
    let (back, tier) = store.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(back.fingerprint(), p.fingerprint());
}

/// A read-only directory must also *open*: degraded (the recovery
/// persist cannot land), serving whatever the manifest already lists.
#[test]
fn read_only_store_dir_still_opens_and_serves_reads() {
    let dir = tmpdir("readonly-open");
    let p = pool(450, 5);
    let k = key(450, 5);
    {
        let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
        store.insert(k.clone(), Arc::clone(&p));
    }

    let fault = FaultIo::over_real(FaultSchedule::none());
    fault.set_readonly(true);
    let store = PoolStore::open(StoreConfig::new(&dir).with_io(fault.clone()))
        .expect("a read-only directory opens degraded, it does not fail");
    assert!(!store.health().unwrap().is_healthy());
    // Degraded short-circuits the disk path; the caller resamples. No
    // error either way.
    assert!(store.get(&k).is_none());

    // Once writable, the probe re-persists the recovered manifest and
    // the old segment serves again.
    fault.set_readonly(false);
    tick_probe(&store, 8);
    assert!(store.health().unwrap().is_healthy());
    let (back, tier) = store.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(back.fingerprint(), p.fingerprint());
}

/// The drop-flush satellite: a failing recency flush is best-effort with
/// a counter — never a silent swallow, never a panic in the destructor.
#[test]
fn failed_recency_flush_bumps_the_counter_and_never_panics() {
    let dir = tmpdir("flush-counter");
    let fault = FaultIo::over_real(FaultSchedule::none());
    let mut tier = DiskTier::open_with_io(&dir, 1 << 20, fault.clone()).unwrap();
    let p = pool(200, 11);
    let k = key(200, 11);
    assert!(tier.put(&k, &p), "healthy put is acked");
    let _ = tier.get(&k); // batches a recency stamp (dirty manifest)

    fault.set_readonly(true);
    let err = tier.flush().expect_err("flush on a read-only dir fails");
    assert!(err.to_string().contains("store io error"), "{err}");
    assert_eq!(tier.stats().flush_errors, 1);
    // A repeat while degraded is counted too, without touching the disk.
    let _ = tier.flush();
    assert_eq!(tier.stats().flush_errors, 2);
    assert!(!tier.health().is_healthy());

    // The drop-flush takes the same best-effort path: no panic.
    drop(tier);

    // Nothing was lost but recency: a healthy reopen serves the pool.
    let mut reopened = DiskTier::open(&dir, 1 << 20).unwrap();
    let got = reopened.get(&k).expect("the acked segment survived");
    assert_eq!(got.fingerprint(), p.fingerprint());
}

/// An entry read is several `read_at` calls, one per array. An I/O error
/// midway through them is the disk's fault, not the entry's: the lookup
/// misses and the tier degrades, but the entry stays indexed and out of
/// quarantine, and only the bytes read before the fault count as read.
#[test]
fn eio_midway_through_an_entry_read_keeps_the_entry() {
    let dir = tmpdir("eio-mid-read");
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.insert(key(400, 7), pool(400, 7));
    let bytes = store.disk().unwrap().entries()[0].bytes;
    drop(store);

    // Read #0 is the reopen's manifest read; reads #1 to #4 are the
    // entry's header, roots, and piece 0's offsets and nodes.
    let fault = FaultIo::over_real(FaultSchedule::parse("read:eio=4").unwrap());
    let store = PoolStore::open(StoreConfig::new(&dir).with_io(fault)).unwrap();
    assert!(store.get(&key(400, 7)).is_none(), "a failed read is a miss");
    let health = store.health().unwrap();
    assert!(!health.is_healthy(), "an I/O error degrades the tier");
    assert!(health.last_error.unwrap().contains("EIO"));
    let disk = store.stats().disk.unwrap();
    assert_eq!((disk.entries, disk.corrupt_dropped, disk.hits), (1, 0, 0));
    assert!(
        disk.read_bytes > 0 && disk.read_bytes < bytes,
        "read {} of {bytes} bytes",
        disk.read_bytes
    );
    assert!(!dir.join(oipa_store::QUARANTINE_DIR).exists());
}
