//! Acceptance suite for the tiered pool store.
//!
//! * **Golden parity** — a pool served cold (freshly sampled), from the
//!   memory tier, and from a reopened disk tier is bitwise-identical
//!   (fingerprint + roots + every posting), so every downstream plan/utility
//!   is too.
//! * **Durability** — write-to-temp + atomic rename, manifest recovery,
//!   quarantine of corrupt and orphaned segments, instance purges.
//! * **Budgets** — LRU eviction on both tiers, spill-on-eviction,
//!   oversized pools served but never cached.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::{
    DiskTier, PoolKey, PoolStore, PoolTier, StoreConfig, MANIFEST_FILE, QUARANTINE_DIR,
};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-store-tests").join(name);
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

fn config(dir: &PathBuf) -> StoreConfig {
    StoreConfig::new(dir)
}

fn assert_same_pool(a: &MrrPool, b: &MrrPool, label: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{label}: fingerprints");
    assert_eq!(a.roots(), b.roots(), "{label}: roots");
    assert_eq!(a.theta(), b.theta(), "{label}: theta");
    assert_eq!(a.ell(), b.ell(), "{label}: ℓ");
    for j in 0..a.ell() {
        for v in 0..a.node_count() as u32 {
            assert_eq!(
                a.samples_containing(j, v),
                b.samples_containing(j, v),
                "{label}: postings of piece {j} node {v}"
            );
        }
    }
}

/// The PR's golden-parity gate: cold, mem-warm, and disk-warm (after a
/// simulated restart) must serve bitwise-identical pools.
#[test]
fn cold_mem_and_disk_paths_serve_identical_pools() {
    let dir = tmpdir("parity");
    let cold = pool(2_000, 11);
    let k = key(2_000, 11);

    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(k.clone(), Arc::clone(&cold));
    let (mem, tier) = store.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Memory);
    assert_same_pool(&cold, &mem, "mem-warm");

    // "Restart": a fresh store over the same directory has an empty
    // memory tier; the pool must come back from disk, checksum-verified.
    drop(store);
    let reopened = PoolStore::open(config(&dir)).unwrap();
    let (disk, tier) = reopened.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_same_pool(&cold, &disk, "disk-warm");

    // The disk hit promoted the pool: next lookup is memory-tier.
    let (_, tier) = reopened.get(&k).unwrap();
    assert_eq!(tier, PoolTier::Memory);
    drop(reopened);

    // Reads and promotions rewrite nothing: the one pool still packs into
    // one region whose fill (live over committed bytes) is in (0, 1].
    let stats = DiskTier::open(&dir, u64::MAX).unwrap().stats();
    assert_eq!((stats.entries, stats.regions), (1, 1));
    let fill = stats.bytes as f64 / (stats.bytes + stats.dead_bytes) as f64;
    assert!(fill > 0.0 && fill <= 1.0, "region fill {fill}");
}

/// The widest varint a pool's stored postings need: each gap is a
/// sample id minus the node's previous id minus one.
fn widest_varint(pool: &MrrPool) -> u32 {
    let mut widest = 0;
    for j in 0..pool.ell() {
        for v in 0..pool.node_count() as u32 {
            let mut next = 0u32;
            for &id in pool.samples_containing(j, v) {
                widest = widest.max((38 - ((id - next) | 1).leading_zeros()) / 7);
                next = id + 1;
            }
        }
    }
    widest
}

/// A disk hit reads each array of its entry through the store's seam
/// straight into the pool; `binio::read_pool` reads the same bytes from
/// a slice. Both are the one decoder, and over seeded pools — θ = 1
/// (nodes with no postings) up to gaps that need three-byte varints —
/// both give the cold pool back, stored index included, and each hit
/// reads exactly its entry's manifest bytes.
#[test]
fn disk_hits_and_slice_reads_decode_the_cold_pool() {
    use rand::SeedableRng;
    let dir = tmpdir("in-place-read");
    let store = PoolStore::open(config(&dir)).unwrap();
    let mut read_bytes = 0;
    let mut widths = Vec::new();
    for (n, m, theta, seed) in [
        (20, 70, 1, 1),
        (20, 70, 2, 2),
        (20, 70, 20_000, 3),
        (30_000, 60_000, 20_000, 4),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, table, campaign) =
            oipa_sampler::testkit::small_random_instance(&mut rng, n, m, 3, 2);
        let cold = Arc::new(MrrPool::generate(&g, &table, &campaign, theta, seed));
        widths.push(widest_varint(&cold));
        store.insert(key(theta, seed), Arc::clone(&cold));
        store.clear_memory();
        let (hit, tier) = store.get(&key(theta, seed)).unwrap();
        assert_eq!(tier, PoolTier::Disk);
        let (file, offset, bytes) = {
            let disk = store.disk().unwrap();
            let e = disk
                .entries()
                .iter()
                .find(|e| e.key == key(theta, seed))
                .unwrap();
            (e.file.clone(), e.offset as usize, e.bytes as usize)
        };
        let region = std::fs::read(dir.join(file)).unwrap();
        let sliced = oipa_sampler::binio::read_pool(&region[offset..offset + bytes]).unwrap();
        for (label, back) in [("disk hit", &*hit), ("slice read", &sliced)] {
            assert_eq!(back.fingerprint(), cold.fingerprint(), "θ {theta}: {label}");
            assert_eq!(back.roots(), cold.roots(), "θ {theta}: {label}");
            for j in 0..cold.ell() {
                for v in 0..cold.node_count() as u32 {
                    assert_eq!(
                        back.samples_containing(j, v),
                        cold.samples_containing(j, v),
                        "θ {theta}: {label}: piece {j}, node {v}"
                    );
                }
            }
        }
        read_bytes += bytes as u64;
        assert_eq!(
            store.stats().disk.unwrap().read_bytes,
            read_bytes,
            "θ {theta}"
        );
    }
    assert_eq!(widths, [1, 1, 2, 3], "the varint widths these pools cover");
}

#[test]
fn arena_miss_consults_disk_before_resampling() {
    let dir = tmpdir("tiered-lookup");
    let store = PoolStore::open(config(&dir)).unwrap();
    let p = pool(800, 3);
    store.insert(key(800, 3), Arc::clone(&p));
    store.clear_memory();
    assert_eq!(store.arena_stats().entries, 0);
    let (got, tier) = store.get(&key(800, 3)).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(got.fingerprint(), p.fingerprint());
    let stats = store.stats();
    let disk = stats.disk.expect("disk tier attached");
    assert_eq!(disk.hits, 1);
}

#[test]
fn memory_eviction_spills_to_disk() {
    let dir = tmpdir("spill");
    let bytes = pool(600, 0).memory_bytes();
    let mut cfg = config(&dir);
    cfg.mem_bytes = Some(2 * bytes + 8);
    cfg.write_through = false; // force the spill path to do the persisting
    let store = PoolStore::open(cfg).unwrap();
    for s in 0..3u64 {
        store.insert(key(600, s), pool(600, s));
    }
    // Three inserts under a two-pool budget: the LRU entry spilled.
    let stats = store.stats();
    assert_eq!(stats.mem.entries, 2);
    assert_eq!(stats.mem.evictions, 1);
    let disk = stats.disk.unwrap();
    assert_eq!(disk.entries, 1, "evicted pool must land on disk");
    assert_eq!(disk.spills, 1);
    // And it is servable again — from disk, not by resampling.
    let (got, tier) = store.get(&key(600, 0)).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(got.fingerprint(), pool(600, 0).fingerprint());
}

#[test]
fn oversized_pool_is_served_but_never_cached_in_memory() {
    let dir = tmpdir("oversized");
    let mut cfg = config(&dir);
    cfg.mem_bytes = Some(16); // smaller than any real pool
    let store = PoolStore::open(cfg).unwrap();
    let big = pool(1_500, 9);
    store.insert(key(1_500, 9), Arc::clone(&big));
    assert_eq!(
        store.arena_stats().entries,
        0,
        "oversized pools must not occupy the memory tier"
    );
    // Still served — from the disk tier (write-through persisted it).
    let (got, tier) = store.get(&key(1_500, 9)).unwrap();
    assert_eq!(tier, PoolTier::Disk);
    assert_eq!(got.fingerprint(), big.fingerprint());
    // The disk hit must not have force-promoted it into memory either.
    assert_eq!(store.arena_stats().entries, 0);
}

#[test]
fn disk_budget_evicts_lru_segments() {
    let dir = tmpdir("disk-budget");
    let seg_bytes = {
        // Measure one segment's size by writing it through a probe store.
        let probe = tmpdir("disk-budget-probe");
        let store = PoolStore::open(config(&probe)).unwrap();
        store.insert(key(500, 0), pool(500, 0));
        let bytes = store.disk().unwrap().entries()[0].bytes;
        bytes
    };
    let mut cfg = config(&dir);
    cfg.mem_bytes = Some(0); // pass-through memory tier
    cfg.disk_bytes = 2 * seg_bytes + 8;
    let store = PoolStore::open(cfg).unwrap();
    for s in 0..3u64 {
        store.insert(key(500, s), pool(500, s));
    }
    let disk = store.stats().disk.unwrap();
    assert_eq!(disk.entries, 2, "budget holds two segments");
    assert_eq!(disk.evictions, 1);
    // Seed 0 was least recently used; 1 and 2 survive.
    assert!(store.get(&key(500, 0)).is_none());
    assert!(store.get(&key(500, 1)).is_some());
    assert!(store.get(&key(500, 2)).is_some());
}

#[test]
fn corrupt_segment_is_quarantined_not_served() {
    let dir = tmpdir("corrupt");
    let store = PoolStore::open(config(&dir)).unwrap();
    let p = pool(700, 5);
    store.insert(key(700, 5), Arc::clone(&p));
    let file = store.disk().unwrap().entries()[0].file.clone();
    drop(store);

    // Flip one payload byte. The size is unchanged, so only the CRC (or
    // a structural check) can catch it.
    let path = dir.join(&file);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let reopened = PoolStore::open(config(&dir)).unwrap();
    // verify flags it…
    let verdict = reopened.disk().unwrap().verify();
    assert_eq!(verdict.ok.len(), 0);
    assert_eq!(verdict.corrupt.len(), 1, "{verdict:?}");
    // …and a lookup refuses to serve it, quarantining the segment.
    assert!(reopened.get(&key(700, 5)).is_none());
    let disk = reopened.stats().disk.unwrap();
    assert_eq!(disk.corrupt_dropped, 1);
    assert_eq!(disk.entries, 0);
    assert!(
        dir.join(QUARANTINE_DIR).join(&file).exists(),
        "corrupt segment must be moved to quarantine, not deleted"
    );
}

/// A disk entry whose version field reads 1 must not skip the CRC check:
/// v1 pools carry no checksum, so a flipped root bit behind a downgraded
/// version header would otherwise be served as a different pool.
#[test]
fn downgraded_version_field_is_corruption_not_an_unchecked_pool() {
    let dir = tmpdir("v1-header");
    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(key(400, 9), pool(400, 9));
    let (file, offset) = {
        let disk = store.disk().unwrap();
        (
            disk.entries()[0].file.clone(),
            disk.entries()[0].offset as usize,
        )
    };
    drop(store);

    let path = dir.join(&file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[offset + 8..offset + 12].copy_from_slice(&1u32.to_le_bytes());
    bytes[offset + 28] ^= 1; // root 0, still a valid node id on fig1
    std::fs::write(&path, &bytes).unwrap();

    let reopened = PoolStore::open(config(&dir)).unwrap();
    let verdict = reopened.disk().unwrap().verify();
    assert!(verdict.ok.is_empty(), "{verdict:?}");
    assert_eq!(verdict.corrupt.len(), 1, "{verdict:?}");
    assert!(reopened.get(&key(400, 9)).is_none());
    let disk = reopened.stats().disk.unwrap();
    assert_eq!(disk.corrupt_dropped, 1);
    assert_eq!(disk.entries, 0);
    assert!(dir.join(QUARANTINE_DIR).join(&file).exists());
}

/// Writes a v1 (file-per-key) directory holding `p` under `k`; returns
/// its data file.
fn write_v1_dir(dir: &PathBuf, p: &MrrPool, k: &PoolKey) -> String {
    std::fs::create_dir_all(dir).unwrap();
    let mut buf = Vec::new();
    oipa_sampler::binio::write_pool(p, &mut buf).unwrap();
    let segment = "pool-0000000000000001.mrr";
    std::fs::write(dir.join(segment), &buf).unwrap();
    let manifest = format!(
        r#"{{"version":1,"instance":0,"clock":1,"entries":[{{"key":{},"file":"{segment}","bytes":{},"crc":0,"last_used":1}}]}}"#,
        serde_json::to_string(k).unwrap(),
        buf.len(),
    );
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    segment.to_string()
}

/// Writes a v2 (region-packed, one instance fingerprint, no epochs)
/// directory holding `p` under `k`: the current tier's own region file
/// under a manifest rewritten in the v2 schema. Returns the region file.
fn write_v2_dir(dir: &PathBuf, p: &Arc<MrrPool>, k: &PoolKey) -> String {
    let store = PoolStore::open(config(dir)).unwrap();
    store.insert(k.clone(), Arc::clone(p));
    drop(store);
    let tier = DiskTier::open(dir, u64::MAX).unwrap();
    let (entry, region) = (tier.entries()[0].clone(), tier.regions()[0].clone());
    drop(tier);
    let manifest = format!(
        r#"{{"version":2,"instance":7,"clock":5,"eviction":"lru","regions":[{{"file":"{}","committed":{},"last_used":1}}],"entries":[{{"key":{},"file":"{}","offset":{},"bytes":{},"crc":{},"last_used":1}}]}}"#,
        region.file,
        region.committed,
        serde_json::to_string(k).unwrap(),
        entry.file,
        entry.offset,
        entry.bytes,
        entry.crc,
    );
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    region.file
}

/// Writes a directory in the region layout of manifest `version` (3
/// or later) holding `p` under `k`: the current tier's own directory
/// with its manifest's version set back. Returns the region file.
fn write_region_dir(dir: &PathBuf, p: &Arc<MrrPool>, k: &PoolKey, version: u32) -> String {
    let store = PoolStore::open(config(dir)).unwrap();
    store.insert(k.clone(), Arc::clone(p));
    let region = store.disk().unwrap().regions()[0].file.clone();
    drop(store);
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    let retired = manifest.replacen("\"version\": 5", &format!("\"version\": {version}"), 1);
    assert_ne!(retired, manifest, "the manifest records version 5");
    std::fs::write(dir.join(MANIFEST_FILE), retired).unwrap();
    region
}

/// A directory in a retired format — v1 (file-per-key), v2 (regions
/// under one instance fingerprint, no epochs), v3 (entries in pool
/// binio v2, with no stored index) or v4 (entries in pool binio v3,
/// which also stored the forward sets) — is not migrated: its manifest
/// takes the unsupported-version path and its data file is quarantined
/// as an orphan. The store is a cache, so the key misses and resamples
/// to the same pool.
#[test]
fn v1_directory_is_quarantined_and_its_keys_resample() {
    let p = pool(300, 3);
    let k = key(300, 3);
    for version in [1, 2, 3, 4] {
        let dir = tmpdir(&format!("v{version}-dir"));
        let data_file = match version {
            1 => write_v1_dir(&dir, &p, &k),
            2 => write_v2_dir(&dir, &p, &k),
            _ => write_region_dir(&dir, &p, &k, version),
        };

        let store = PoolStore::open(config(&dir)).unwrap();
        let report = store.disk().unwrap().open_report();
        assert!(report.corrupt_manifest, "v{version}");
        assert_eq!(
            report.quarantined, 1,
            "v{version}: the data file is an orphan"
        );
        assert!(dir.join(QUARANTINE_DIR).join(MANIFEST_FILE).exists());
        assert!(dir.join(QUARANTINE_DIR).join(&data_file).exists());
        assert!(store.get(&k).is_none(), "v{version}: nothing is served");
        let (back, _) = store
            .fetch(&k, |ancestor| -> Result<_, ()> {
                assert!(
                    ancestor.is_none(),
                    "v{version}: nothing of the old pool survives"
                );
                Ok((pool(300, 3), ()))
            })
            .unwrap();
        assert_same_pool(&back, &p, &format!("v{version} resampled"));
    }
}

/// A directory whose manifest still records the memory tier's eviction
/// policy (`"eviction": "lfu"`, as stores that let the CLI pick one
/// wrote it) opens without repair and serves its pools from disk: the
/// field is ignored, not treated as corruption.
#[test]
fn manifest_with_an_eviction_label_still_opens_and_serves() {
    let dir = tmpdir("eviction-label");
    let p = pool(400, 6);
    let k = key(400, 6);
    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(k.clone(), Arc::clone(&p));
    drop(store);
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
    assert!(!manifest.contains("eviction"), "{manifest}");
    let labelled = manifest.replacen("\"purges\"", "\"eviction\":\"lfu\",\"purges\"", 1);
    assert_ne!(labelled, manifest, "the label went in");
    std::fs::write(dir.join(MANIFEST_FILE), labelled).unwrap();

    let reopened = PoolStore::open(config(&dir)).unwrap();
    assert_eq!(
        reopened.disk().unwrap().open_report(),
        oipa_store::OpenReport::default(),
        "nothing to repair"
    );
    let (back, tier) = reopened.get(&k).expect("pool still on disk");
    assert_eq!(tier, PoolTier::Disk);
    assert_same_pool(&back, &p, "served from a labelled manifest");
}

#[test]
fn gc_quarantines_corruption_and_orphans() {
    let dir = tmpdir("gc");
    // One-byte regions: a region's first entry always fits, so every
    // pool packs into a region of its own and corrupting/removing one
    // file touches exactly one pool.
    let mut cfg = config(&dir);
    cfg.region_bytes = 1;
    let store = PoolStore::open(cfg).unwrap();
    for s in 0..3u64 {
        store.insert(key(400, s), pool(400, s));
    }
    let files: Vec<String> = store
        .disk()
        .unwrap()
        .entries()
        .iter()
        .map(|e| e.file.clone())
        .collect();
    assert_eq!(
        store.disk().unwrap().regions().len(),
        3,
        "tiny region capacity must give one region per pool"
    );
    drop(store);

    // Corrupt one region, delete another, drop an orphan next to them.
    let mut bytes = std::fs::read(dir.join(&files[0])).unwrap();
    let len = bytes.len();
    bytes[len / 3] ^= 0xFF;
    std::fs::write(dir.join(&files[0]), &bytes).unwrap();
    std::fs::remove_file(dir.join(&files[1])).unwrap();
    std::fs::write(dir.join("pool-feedfacedeadbeef.mrr"), b"not a pool").unwrap();

    // Reopen raw (DiskTier, no budget pressure): the orphan and the
    // missing entry are handled at open, the corrupt one by gc.
    let mut tier = DiskTier::open(&dir, u64::MAX).unwrap();
    let report = tier.open_report();
    assert_eq!(report.dropped_missing, 1);
    assert_eq!(report.quarantined, 1, "orphan quarantined at open");

    let gc = tier.gc().unwrap();
    assert_eq!(gc.quarantined, vec![files[0].clone()]);
    assert_eq!(gc.kept, 1);
    assert!(gc.reclaimed_bytes > 0);
    // Per-region accounting: every committed byte of the corrupt region
    // was reclaimed (nothing live could be copied out of it).
    assert_eq!(gc.region_reclaimed.len(), 1, "{gc:?}");
    assert_eq!(gc.region_reclaimed[0].0, files[0]);
    assert!(gc.region_reclaimed[0].1 > 0);
    // After gc, verify is clean.
    let verdict = tier.verify();
    assert_eq!(verdict.corrupt.len(), 0, "{verdict:?}");
    assert_eq!(verdict.ok.len(), 1);
}

#[test]
fn corrupt_manifest_is_recovered_not_fatal() {
    let dir = tmpdir("bad-manifest");
    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(key(300, 1), pool(300, 1));
    drop(store);
    std::fs::write(dir.join(MANIFEST_FILE), b"{ not json").unwrap();

    let reopened = PoolStore::open(config(&dir)).unwrap();
    let report = reopened.disk().unwrap().open_report();
    assert!(report.corrupt_manifest);
    // Without a manifest the segment's key is unknowable: it must be
    // quarantined, not guessed at.
    assert_eq!(report.quarantined, 1);
    assert_eq!(reopened.disk().unwrap().entries().len(), 0);
}

/// The manifest has no whole-file checksum, so a damaged entry range
/// must be validated without arithmetic overflow: an `offset` near
/// `u64::MAX` drops the entry as missing instead of panicking (debug)
/// or wrapping into a "covered" range (release).
#[test]
fn overflowing_manifest_range_is_dropped_as_missing() {
    let dir = tmpdir("manifest-overflow");
    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(key(300, 4), pool(300, 4));
    drop(store);

    let path = dir.join(MANIFEST_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.matches("\"offset\": 0").count(), 1, "{text}");
    let damaged = text.replace("\"offset\": 0", &format!("\"offset\": {}", u64::MAX - 8));
    std::fs::write(&path, damaged).unwrap();

    let reopened = PoolStore::open(config(&dir)).unwrap();
    let report = reopened.disk().unwrap().open_report();
    assert!(!report.corrupt_manifest);
    assert_eq!(report.dropped_missing, 1);
    assert!(reopened.get(&key(300, 4)).is_none());
    let disk = reopened.stats().disk.unwrap();
    assert_eq!((disk.entries, disk.hits, disk.misses), (0, 0, 1));
}

#[test]
fn stale_temp_files_are_swept_at_open() {
    let dir = tmpdir("stale-temp");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(".tmp-pool-0123456789abcdef.mrr"), b"torn write").unwrap();
    let store = PoolStore::open(config(&dir)).unwrap();
    assert_eq!(store.disk().unwrap().open_report().stale_temps, 1);
    assert!(!dir.join(".tmp-pool-0123456789abcdef.mrr").exists());
}

#[test]
fn instance_mismatch_purges_the_tier() {
    let dir = tmpdir("instance");
    let store = PoolStore::open(config(&dir)).unwrap();
    store.set_lineage(&[0xAAAA]).unwrap();
    store.insert(key(300, 2), pool(300, 2));
    assert_eq!(store.disk().unwrap().entries().len(), 1);

    // Same instance: nothing happens, entries survive a reopen.
    let reopened = PoolStore::open(config(&dir)).unwrap();
    assert!(!reopened.set_lineage(&[0xAAAA]).unwrap());
    assert_eq!(reopened.disk().unwrap().entries().len(), 1);

    // Different instance (a different graph/table): everything goes.
    assert!(reopened.set_lineage(&[0xBBBB]).unwrap());
    assert_eq!(reopened.disk().unwrap().entries().len(), 0);
    assert!(reopened.get(&key(300, 2)).is_none());
}

#[test]
fn recency_survives_restart() {
    let dir = tmpdir("recency");
    let mut cfg = config(&dir);
    cfg.mem_bytes = Some(0);
    let store = PoolStore::open(cfg.clone()).unwrap();
    for s in 0..3u64 {
        store.insert(key(350, s), pool(350, s));
    }
    // Touch seed 0 so seed 1 becomes the disk LRU victim.
    assert!(store.get(&key(350, 0)).is_some());
    drop(store);

    // Reopen with a budget of two segments: the eviction at open must
    // honor the persisted recency, dropping seed 1.
    let seg = DiskTier::open(&dir, u64::MAX).unwrap().entries()[0].bytes;
    cfg.disk_bytes = 2 * seg + 8;
    let store = PoolStore::open(cfg).unwrap();
    assert!(store.get(&key(350, 1)).is_none(), "LRU victim");
    assert!(store.get(&key(350, 0)).is_some());
    assert!(store.get(&key(350, 2)).is_some());
}

/// The PR-5 manifest bugfix: a read-only burst of N disk gets must not
/// rewrite `index.json` N times. Recency is batched in memory (dirty
/// flag) and flushed at most once — by the next write, an explicit
/// `flush`, or drop.
#[test]
fn read_burst_performs_at_most_one_manifest_write() {
    let dir = tmpdir("manifest-batching");
    let mut tier = DiskTier::open(&dir, u64::MAX).unwrap();
    let p = pool(400, 6);
    tier.put(&key(400, 6), &p);
    let writes_after_put = tier.manifest_writes();
    let manifest_after_put = std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();

    // The burst: 25 reads, zero manifest writes.
    for _ in 0..25 {
        assert!(tier.get(&key(400, 6)).is_some());
    }
    assert_eq!(
        tier.manifest_writes(),
        writes_after_put,
        "disk gets must not rewrite the manifest per read"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(),
        manifest_after_put,
        "the on-disk manifest must be untouched during a read burst"
    );

    // One flush persists the whole burst's recency in a single write.
    tier.flush().unwrap();
    assert_eq!(tier.manifest_writes(), writes_after_put + 1);
    assert_ne!(
        std::fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(),
        manifest_after_put,
        "flush must persist the batched recency stamps"
    );
    // Flushing with nothing pending is free.
    tier.flush().unwrap();
    assert_eq!(tier.manifest_writes(), writes_after_put + 1);
}

/// Batched recency still reaches disk without an explicit flush: drop
/// writes it, so a restart honors read-burst LRU order.
#[test]
fn batched_recency_is_flushed_on_drop() {
    let dir = tmpdir("recency-on-drop");
    let mut tier = DiskTier::open(&dir, u64::MAX).unwrap();
    for s in 0..2u64 {
        tier.put(&key(450, s), &pool(450, s));
    }
    // Touch seed 0 (read-only: batched, not persisted) then drop.
    assert!(tier.get(&key(450, 0)).is_some());
    drop(tier);

    let reopened = DiskTier::open(&dir, u64::MAX).unwrap();
    let stamp = |s: u64| {
        reopened
            .entries()
            .iter()
            .find(|e| e.key == key(450, s))
            .unwrap()
            .last_used
    };
    assert!(
        stamp(0) > stamp(1),
        "the read-burst touch must survive the restart via the drop flush"
    );
}

/// The PR-5 pin bugfix at store level: an insert over a pinned key keeps
/// the pin, so byte pressure afterwards cannot evict the injected pool.
#[test]
fn pinned_pool_survives_replace_and_pressure() {
    let dir = tmpdir("pinned-replace");
    let pinned = pool(500, 21);
    let bytes = pinned.memory_bytes();
    let pinned_key = key(500, 21);
    let mut cfg = config(&dir);
    cfg.mem_bytes = Some(bytes + 8); // room for the pinned pool alone
    let store = PoolStore::open(cfg).unwrap();
    store.insert_pinned(pinned_key.clone(), Arc::clone(&pinned));
    // The regression: a plain insert over the pinned key used to strip
    // the pin, making the injected pool evictable.
    store.insert(pinned_key.clone(), Arc::clone(&pinned));
    // Byte pressure from sampled pools.
    for s in 30..33u64 {
        store.insert(key(500, s), pool(500, s));
    }
    let (got, tier) = store
        .get(&pinned_key)
        .expect("pinned pool evicted after a same-key replace");
    assert_eq!(tier, PoolTier::Memory, "pinned pools are memory-resident");
    assert_eq!(got.fingerprint(), pinned.fingerprint());
}

/// The PR-5 stats bugfix at store level: a same-key replace counts as an
/// eviction and the displaced pool is spilled (a disk touch), so
/// `ArenaStats`/`DiskStats` stay accurate in a tiered store.
#[test]
fn replace_is_counted_and_spilled_in_a_tiered_store() {
    let dir = tmpdir("replace-accounting");
    let mut cfg = config(&dir);
    cfg.write_through = false; // only the spill path writes to disk
    let store = PoolStore::open(cfg).unwrap();
    let p = pool(420, 8);
    let k = key(420, 8);
    store.insert(k.clone(), Arc::clone(&p));
    let before = store.stats();
    assert_eq!(before.mem.evictions, 0);
    assert_eq!(before.disk.unwrap().entries, 0, "write-through disabled");

    store.insert(k.clone(), Arc::clone(&p));
    let after = store.stats();
    assert_eq!(after.mem.entries, 1, "replace must not duplicate the key");
    assert_eq!(
        after.mem.evictions, 1,
        "the displaced pool must be counted as an eviction"
    );
    assert_eq!(
        after.mem.bytes,
        p.memory_bytes(),
        "replace must not double-count resident bytes"
    );
    let disk = after.disk.unwrap();
    assert_eq!(
        disk.entries, 1,
        "the displaced pool must spill to disk, not vanish"
    );
}

/// A displaced *pinned* pool must not leak to the disk tier: pinned
/// pools are memory-only (the caller owns their persistence), so a
/// same-key insert over one neither spills it nor counts an eviction.
#[test]
fn replaced_pinned_pool_is_not_spilled_to_disk() {
    let dir = tmpdir("pinned-no-spill");
    let mut cfg = config(&dir);
    cfg.write_through = false; // only displaced entries would reach disk
    let store = PoolStore::open(cfg).unwrap();
    let injected = pool(430, 12);
    let k = key(430, 12);
    store.insert_pinned(k.clone(), Arc::clone(&injected));
    store.insert(k.clone(), Arc::clone(&injected));
    let stats = store.stats();
    assert_eq!(
        stats.disk.unwrap().entries,
        0,
        "a pinned pool leaked to the disk tier via the replace path"
    );
    assert_eq!(
        stats.mem.evictions, 0,
        "replacing a pinned entry is not an eviction — the pin keeps it resident"
    );
    assert!(store.get(&k).is_some());
}

/// The `StatsSnapshot` wire type round-trips through JSON bitwise: it is
/// the contract between the server's `/stats` endpoint and every client
/// (`wirebench`'s stats check included), so serialization must lose nothing
/// — counters, occupancy, the optional disk half, and the schema tag.
#[test]
fn stats_snapshot_round_trips_through_json() {
    use oipa_store::{StatsSnapshot, STATS_SCHEMA};

    let dir = tmpdir("stats-snapshot");
    let store = PoolStore::open(config(&dir)).unwrap();
    store.insert(key(410, 31), pool(410, 31));
    assert!(store.get(&key(410, 31)).is_some()); // a hit
    assert!(store.get(&key(411, 32)).is_none()); // a miss on both tiers

    let snapshot = store.stats();
    assert!(snapshot.schema_ok());
    assert_eq!(snapshot.schema, STATS_SCHEMA);
    assert_eq!(
        snapshot.mem.lookups,
        snapshot.mem.hits + snapshot.mem.misses
    );
    let disk = snapshot.disk.expect("tiered store has a disk half");
    assert_eq!(disk.spills, 1, "write-through insert persists the segment");

    let json = serde_json::to_string(&snapshot).unwrap();
    let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snapshot, "snapshot must survive the wire bitwise");

    // A memory-only snapshot round-trips its absent disk half too.
    let mem_only = PoolStore::memory_only(1 << 20).stats();
    assert!(mem_only.disk.is_none());
    let back: StatsSnapshot =
        serde_json::from_str(&serde_json::to_string(&mem_only).unwrap()).unwrap();
    assert_eq!(back, mem_only);

    // A foreign schema tag is detectable before anyone trusts the counters.
    let mut foreign = snapshot.clone();
    foreign.schema = "oipa.stats/v0".to_string();
    assert!(!foreign.schema_ok());
}
