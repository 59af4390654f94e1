//! Concurrency suite for the tiered pool store: M threads × K operations
//! over shared keys must leave the store with internally consistent
//! stats (`lookups == hits + misses`, no lost counter updates), serve
//! bitwise-identical pools on every path, and never evict a pinned pool
//! no matter how the interleaving lands.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::{Ancestor, Fetched, PoolKey, PoolStore, PoolTier, StoreConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-store-conc").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn pool(theta: usize, seed: u64) -> Arc<MrrPool> {
    let (g, table, campaign) = fig1();
    Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed))
}

fn key(seed: u64) -> PoolKey {
    PoolKey::sampled(format!("conc-{seed}"), 400, seed)
}

/// M reader threads over shared keys: every hit must return the right
/// pool, and the atomic counters must not lose a single update. Run at
/// two key counts, so the threads collide on few keys and on many.
#[test]
fn concurrent_reads_are_consistent_and_lossless() {
    const THREADS: usize = 8;

    for (keys, rounds) in [(4u64, 50usize), (12, 40)] {
        let store = Arc::new(PoolStore::memory_only(usize::MAX));
        let pools: Vec<Arc<MrrPool>> = (0..keys).map(|s| pool(400, s)).collect();
        for (s, p) in pools.iter().enumerate() {
            store.insert(key(s as u64), Arc::clone(p));
        }
        let barrier = Arc::new(Barrier::new(THREADS));

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                let pools = &pools;
                scope.spawn(move || {
                    barrier.wait();
                    for r in 0..rounds {
                        // Each thread walks the keys in its own order, plus
                        // a guaranteed-miss probe every round.
                        let s = ((t + r) % keys as usize) as u64;
                        let (got, tier) = store.get(&key(s)).expect("resident key");
                        assert_eq!(tier, PoolTier::Memory);
                        assert_eq!(got.fingerprint(), pools[s as usize].fingerprint());
                        assert!(store.get(&key(1000 + s)).is_none(), "phantom key served");
                    }
                });
            }
        });

        let stats = store.arena_stats();
        let expected_lookups = (THREADS * rounds * 2) as u64;
        assert_eq!(stats.lookups, expected_lookups, "{keys} keys: lost lookups");
        assert_eq!(
            stats.hits,
            (THREADS * rounds) as u64,
            "{keys} keys: lost hits"
        );
        assert_eq!(
            stats.misses,
            (THREADS * rounds) as u64,
            "{keys} keys: lost misses"
        );
        assert_eq!(
            stats.lookups,
            stats.hits + stats.misses,
            "stats must stay internally consistent under concurrency"
        );
        assert_eq!(stats.entries, keys as usize);
    }
}

/// Mixed readers and writers racing on overlapping keys: no panics, no
/// lost counters, and every key that was ever inserted serves its exact
/// pool afterwards. Run at two key counts.
#[test]
fn concurrent_inserts_and_reads_do_not_corrupt_the_arena() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 30;

    for keys in [5u64, 10] {
        let store = Arc::new(PoolStore::memory_only(usize::MAX));
        let pools: Vec<Arc<MrrPool>> = (0..keys).map(|s| pool(300, s)).collect();
        let barrier = Arc::new(Barrier::new(THREADS));

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let store = Arc::clone(&store);
                let barrier = Arc::clone(&barrier);
                let pools = &pools;
                scope.spawn(move || {
                    barrier.wait();
                    for r in 0..ROUNDS {
                        let s = ((t * 7 + r) % keys as usize) as u64;
                        if (t + r) % 3 == 0 {
                            // Writers re-insert over live keys (the replace
                            // path) while readers scan them.
                            store.insert(key(s), Arc::clone(&pools[s as usize]));
                        } else if let Some((got, _)) = store.get(&key(s)) {
                            assert_eq!(
                                got.fingerprint(),
                                pools[s as usize].fingerprint(),
                                "a lookup returned the wrong pool for its key"
                            );
                        }
                    }
                });
            }
        });

        let stats = store.arena_stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.entries, keys as usize);
        assert_eq!(stats.bytes, pools.iter().map(|p| p.memory_bytes()).sum());
        // Every key serves its exact pool once the dust settles.
        for s in 0..keys {
            let (got, _) = store.get(&key(s)).expect("inserted key lost");
            assert_eq!(got.fingerprint(), pools[s as usize].fingerprint());
        }
    }
}

/// A pinned pool must survive concurrent byte pressure AND concurrent
/// same-key re-inserts (the PR-5 pin regression, raced).
#[test]
fn pinned_pool_survives_concurrent_pressure_and_replaces() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 20;

    let pinned = pool(400, 99);
    let bytes = pinned.memory_bytes();
    let pinned_key = PoolKey::external("session-default", &pinned);
    let store = Arc::new(PoolStore::memory_only(2 * bytes + 8));
    store.insert_pinned(pinned_key.clone(), Arc::clone(&pinned));
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let barrier = Arc::clone(&barrier);
            let pinned = Arc::clone(&pinned);
            let pinned_key = pinned_key.clone();
            scope.spawn(move || {
                barrier.wait();
                for r in 0..ROUNDS {
                    if t == 0 {
                        // One thread keeps re-inserting over the pinned
                        // key (the pin must survive every replace).
                        store.insert(pinned_key.clone(), Arc::clone(&pinned));
                    } else {
                        // The rest churn sampled pools through the tight
                        // budget, forcing evictions every round.
                        let s = (t * ROUNDS + r) as u64;
                        store.insert(key(s), pool(400, s));
                    }
                    assert!(
                        store.get(&pinned_key).is_some(),
                        "pinned pool evicted under concurrent pressure"
                    );
                }
            });
        }
    });

    let (got, _) = store.get(&pinned_key).expect("pinned pool lost");
    assert_eq!(got.fingerprint(), pinned.fingerprint());
}

/// Concurrent misses promoting the same disk segment: every thread gets
/// the identical pool, and the arena never holds duplicate entries.
#[test]
fn concurrent_disk_promotions_serve_one_pool() {
    const THREADS: usize = 6;

    let dir = tmpdir("promote-race");
    let p = pool(500, 3);
    let store = PoolStore::open(StoreConfig::new(&dir)).unwrap();
    store.insert(key(3), Arc::clone(&p));
    drop(store); // flush to disk

    let reopened = Arc::new(PoolStore::open(StoreConfig::new(&dir)).unwrap());
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let store = Arc::clone(&reopened);
            let barrier = Arc::clone(&barrier);
            let expected = p.fingerprint();
            scope.spawn(move || {
                barrier.wait();
                let (got, _) = store.get(&key(3)).expect("persisted pool lost");
                assert_eq!(got.fingerprint(), expected);
            });
        }
    });
    let stats = reopened.stats();
    assert_eq!(stats.mem.entries, 1, "duplicate arena entries after race");
    assert_eq!(stats.mem.lookups, stats.mem.hits + stats.mem.misses);
    // One decode per cold key: the first racer read the entry, every
    // other one took the promoted pool from memory.
    let disk = stats.disk.unwrap();
    assert_eq!(disk.hits, 1, "racers must not each decode the entry");
    assert_eq!(disk.hits + disk.misses, 1, "one counted disk lookup");
    assert_eq!(
        stats.mem.hits,
        THREADS as u64 - 1,
        "every racer but the first hits memory"
    );
    // Post-race lookups are memory hits.
    let (_, tier) = reopened.get(&key(3)).unwrap();
    assert_eq!(tier, PoolTier::Memory);
}

/// What one racing fetch returned.
type FetchResult = Result<(Arc<MrrPool>, Fetched<()>), String>;

/// A populate step that counts its calls and takes long enough for every
/// racer to queue on the key's guard; the first `fail_first` calls fail.
fn populate_counted<'a>(
    p: &'a Arc<MrrPool>,
    calls: &'a AtomicUsize,
    fail_first: usize,
) -> impl FnOnce(Option<Ancestor>) -> Result<(Arc<MrrPool>, ()), String> + 'a {
    move |_ancestor| {
        let call = calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(100));
        if call < fail_first {
            return Err(format!("populate call {call} failed"));
        }
        Ok((Arc::clone(p), ()))
    }
}

/// Races `THREADS` fetches of one cold key and returns their results.
fn race_fetches(
    store: &PoolStore,
    k: &PoolKey,
    p: &Arc<MrrPool>,
    calls: &AtomicUsize,
    fail_first: usize,
) -> Vec<FetchResult> {
    const THREADS: usize = 6;
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    store.fetch(k, populate_counted(p, calls, fail_first))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The one guard: N fetches of one cold key run `populate` once, and
/// every other fetch is served that pool — on a memory-only store, on a
/// disk store, and for a pool larger than the memory budget (never
/// cached, so the racers can only take it from the guard's slot).
#[test]
fn concurrent_fetches_of_one_cold_key_populate_once() {
    let p = pool(500, 5);
    let oversized = || {
        let mut cfg = StoreConfig::new(tmpdir("fetch-once-oversized"));
        cfg.mem_bytes = Some(p.memory_bytes() / 2);
        PoolStore::open(cfg).unwrap()
    };
    let cases = [
        ("memory-only", PoolStore::memory_only(usize::MAX)),
        (
            "memory-only, oversized",
            PoolStore::memory_only(p.memory_bytes() / 2),
        ),
        (
            "disk",
            PoolStore::open(StoreConfig::new(tmpdir("fetch-once-disk"))).unwrap(),
        ),
        ("disk, oversized", oversized()),
    ];
    for (label, store) in cases {
        let calls = AtomicUsize::new(0);
        let results = race_fetches(&store, &key(5), &p, &calls, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "{label}: populated twice");
        let mut populated = 0;
        for result in results {
            let (got, fetched) = result.unwrap();
            assert_eq!(got.fingerprint(), p.fingerprint(), "{label}");
            match fetched {
                Fetched::Populated(()) => populated += 1,
                Fetched::Hit(tier) => assert_eq!(tier, PoolTier::Memory, "{label}"),
            }
        }
        assert_eq!(populated, 1, "{label}");
        let stats = store.stats();
        let fits = p.memory_bytes() <= stats.mem.capacity_bytes;
        assert_eq!(stats.mem.entries, usize::from(fits), "{label}");
        if let Some(disk) = stats.disk {
            assert_eq!(disk.entries, 1, "{label}: populated pool persisted");
            assert_eq!(disk.misses, 1, "{label}: one disk read, by the populater");
        }
    }
}

/// A failed populate leaves no guard behind: a racer queued on it takes
/// over and populates, the rest take its pool, and a later fetch finds
/// the key cached.
#[test]
fn failed_populate_is_retried_by_the_next_fetch() {
    let p = pool(450, 4);
    let store = PoolStore::open(StoreConfig::new(tmpdir("fetch-retry"))).unwrap();
    let calls = AtomicUsize::new(0);
    let results = race_fetches(&store, &key(4), &p, &calls, 1);
    assert_eq!(calls.load(Ordering::SeqCst), 2, "one failure, one retry");
    let failed = results.iter().filter(|r| r.is_err()).count();
    let populated = results
        .iter()
        .filter(|r| matches!(r, Ok((_, Fetched::Populated(())))))
        .count();
    assert_eq!((failed, populated), (1, 1));
    for (got, _) in results.into_iter().flatten() {
        assert_eq!(got.fingerprint(), p.fingerprint());
    }

    // Sequentially: an error, then a populate, then a plain hit.
    let calls = AtomicUsize::new(0);
    let err = store.fetch(&key(6), populate_counted(&p, &calls, 1));
    assert_eq!(err.unwrap_err(), "populate call 0 failed");
    assert!(store.get(&key(6)).is_none());
    let (_, fetched) = store
        .fetch(&key(6), populate_counted(&p, &calls, 1))
        .unwrap();
    assert_eq!(fetched, Fetched::Populated(()));
    let (_, fetched) = store
        .fetch(&key(6), populate_counted(&p, &calls, 1))
        .unwrap();
    assert_eq!(fetched, Fetched::Hit(PoolTier::Memory));
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}
