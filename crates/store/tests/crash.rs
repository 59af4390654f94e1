//! The crash-point matrix: for **every** mutating I/O operation along a
//! fixed put/get/flush/evict/gc workload, simulate a `kill -9` at that
//! operation (the op is applied torn, everything after fails), then
//! reopen the directory with a clean filesystem and check the recovery
//! invariants:
//!
//! * reopening never panics and never fails;
//! * `verify()` is clean — no corrupt entry is ever indexed;
//! * every pool the reopened tier serves is bitwise-identical to its
//!   source (no torn segment survives);
//! * the reopened index only contains keys that were **committed**
//!   (a manifest rename succeeded with that key in it) — an unacked put
//!   can vanish or be quarantined, never be served;
//! * a committed key missing after reopen is explained: the crashed run
//!   had already evicted/dropped it from its live index (budget policy),
//!   or its file was swept into `quarantine/` — never silent loss;
//! * the books balance: indexed bytes equal the sum over entries, every
//!   region file's length equals its committed watermark, and every
//!   entry lies wholly below its region's watermark;
//! * no stale `.tmp-*` files survive the reopen.
//!
//! The torn-write prefixes are seeded; set `OIPA_FAULT_SEED` to replay a
//! failure (the seed is printed in every assertion message). CI runs the
//! fixed default seed plus one randomized-seed smoke.

use oipa_sampler::testkit::fig1;
use oipa_sampler::MrrPool;
use oipa_store::io::{FaultIo, FaultSchedule};
use oipa_store::{DiskTier, PoolKey, PoolStore, StoreConfig, QUARANTINE_DIR};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-crash-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fault_seed() -> u64 {
    std::env::var("OIPA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The fixed corpus the workload runs over: four pools of different
/// sizes plus their exact segment byte sizes.
struct Corpus {
    pools: Vec<(PoolKey, MrrPool)>,
    segment_bytes: Vec<u64>,
}

fn corpus() -> Corpus {
    let (g, table, campaign) = fig1();
    let mut pools = Vec::new();
    let mut segment_bytes = Vec::new();
    for (i, theta) in [140usize, 170, 200, 230].into_iter().enumerate() {
        let pool = MrrPool::generate(&g, &table, &campaign, theta, i as u64 + 1);
        let mut buf = Vec::new();
        let _ = oipa_sampler::binio::write_pool(&pool, &mut buf).unwrap();
        segment_bytes.push(buf.len() as u64);
        pools.push((
            PoolKey::sampled(format!("crash-{i}"), theta, i as u64 + 1),
            pool,
        ));
    }
    Corpus {
        pools,
        segment_bytes,
    }
}

/// What one crashed (or fault-free) workload run leaves behind for the
/// invariant checks.
struct RunRecord {
    /// Keys in the index at the last successful manifest commit — what
    /// the on-disk `index.json` is promised to hold.
    committed: HashSet<PoolKey>,
    /// Keys in the tier's live in-memory index at the end of the run
    /// (post-crash): a committed key absent from here was evicted or
    /// dropped on purpose before the crash.
    live_at_end: HashSet<PoolKey>,
    /// Keys whose `put` was acked at least once.
    acked: HashSet<PoolKey>,
}

/// Runs the fixed workload over `io` against `dir`. The workload drives
/// every mutating path: open-recovery persist, put (write/sync/rename +
/// manifest commit), recency get + flush, budget eviction (remove), gc,
/// and the drop-flush.
fn run_workload(io: std::sync::Arc<FaultIo>, dir: &PathBuf, corpus: &Corpus) -> RunRecord {
    // Budget: the three largest segments fit, all four do not — the
    // fourth put must evict the LRU entry.
    let total: u64 = corpus.segment_bytes.iter().sum();
    let min = *corpus.segment_bytes.iter().min().unwrap();
    let budget = total - min;

    let mut record = RunRecord {
        committed: HashSet::new(),
        live_at_end: HashSet::new(),
        acked: HashSet::new(),
    };
    let mut tier = match DiskTier::open_with_io(dir, budget, io) {
        Ok(tier) => tier,
        Err(_) => return record, // crash during open: nothing committed
    };
    let mut commits = 0;
    let note_commit = |tier: &DiskTier, commits: &mut u64, record: &mut RunRecord| {
        let writes = tier.stats().manifest_writes;
        if writes > *commits {
            *commits = writes;
            record.committed = tier.entries().iter().map(|e| e.key.clone()).collect();
        }
    };
    note_commit(&tier, &mut commits, &mut record);

    // Three puts fill the tier to its budget.
    for (key, pool) in corpus.pools.iter().take(3) {
        if tier.put(key, pool) {
            record.acked.insert(key.clone());
        }
        note_commit(&tier, &mut commits, &mut record);
    }
    // Touch pool 0 (batched recency) and checkpoint it.
    let _ = tier.get(&corpus.pools[0].0);
    let _ = tier.flush();
    note_commit(&tier, &mut commits, &mut record);
    // The fourth put exceeds the budget: the LRU entry (pool 1) goes.
    let (key3, pool3) = &corpus.pools[3];
    if tier.put(key3, pool3) {
        record.acked.insert(key3.clone());
    }
    note_commit(&tier, &mut commits, &mut record);
    // A repair pass and one more recency touch for the drop-flush.
    let _ = tier.gc();
    note_commit(&tier, &mut commits, &mut record);
    let _ = tier.get(&corpus.pools[2].0);

    record.live_at_end = tier.entries().iter().map(|e| e.key.clone()).collect();
    drop(tier); // drop-flush: the final mutating op under test
    record
}

/// Reopens `dir` with a clean filesystem and asserts every recovery
/// invariant against the crashed run's record.
fn assert_recovered(dir: &PathBuf, corpus: &Corpus, record: &RunRecord, label: &str) {
    let budget: u64 = corpus.segment_bytes.iter().sum();
    let mut tier = DiskTier::open(dir, budget)
        .unwrap_or_else(|e| panic!("{label}: reopen must never fail: {e}"));
    assert!(
        tier.health().is_healthy(),
        "{label}: a clean-filesystem reopen starts healthy"
    );

    // No corrupt entry indexed.
    let verdict = tier.verify();
    assert!(
        verdict.corrupt.is_empty(),
        "{label}: reopen indexed corrupt segments: {:?}",
        verdict.corrupt
    );

    // Books balance: indexed bytes equal the sum over entries, every
    // region file's length equals its committed watermark (recovery
    // truncated any torn tail), and every entry lies wholly below it.
    let sum: u64 = tier.entries().iter().map(|e| e.bytes).sum();
    assert_eq!(tier.bytes(), sum, "{label}: indexed_bytes drifted");
    for region in tier.regions() {
        let len = std::fs::metadata(dir.join(&region.file))
            .unwrap_or_else(|e| panic!("{label}: {} unreadable: {e}", region.file))
            .len();
        assert_eq!(
            len, region.committed,
            "{label}: {} length differs from its committed watermark",
            region.file
        );
    }
    for entry in tier.entries() {
        let region = tier
            .regions()
            .iter()
            .find(|r| r.file == entry.file)
            .unwrap_or_else(|| panic!("{label}: entry in {} has no region row", entry.file));
        assert!(
            entry.offset + entry.bytes <= region.committed,
            "{label}: entry {}@{} overruns the committed watermark {}",
            entry.file,
            entry.offset,
            region.committed
        );
    }

    // Only committed keys are served, each bitwise-identical.
    let by_key: HashMap<&PoolKey, &MrrPool> = corpus.pools.iter().map(|(k, p)| (k, p)).collect();
    let reopened: HashSet<PoolKey> = tier.entries().iter().map(|e| e.key.clone()).collect();
    for key in &reopened {
        assert!(
            record.committed.contains(key),
            "{label}: {key:?} served but never committed"
        );
        let source = by_key[key];
        let got = tier
            .get(key)
            .unwrap_or_else(|| panic!("{label}: indexed {key:?} must be servable"));
        assert_eq!(
            got.fingerprint(),
            source.fingerprint(),
            "{label}: {key:?} not bitwise-identical after recovery"
        );
    }

    // No acked-and-live write lost: a committed key the crashed run still
    // had in its live index must survive — unless recovery set its file
    // aside into quarantine/ (accounted, never silent).
    let report = tier.open_report();
    for key in record.committed.intersection(&record.live_at_end) {
        if !reopened.contains(key) {
            assert!(
                report.quarantined > 0 || report.dropped_missing > 0,
                "{label}: committed live key {key:?} vanished without accounting"
            );
        }
    }

    // Stale temps are swept.
    for name in std::fs::read_dir(dir).unwrap().flatten() {
        let name = name.file_name().to_string_lossy().into_owned();
        assert!(
            !name.starts_with(".tmp-"),
            "{label}: stale temp {name} survived reopen"
        );
    }
}

/// The matrix: a fault-free run sizes the schedule, then every mutating
/// operation index becomes one crash point.
#[test]
fn crash_point_matrix_recovers_at_every_point() {
    let seed = fault_seed();
    let corpus = corpus();

    // Pass 0: count the mutating operations of a fault-free run.
    let dir = tmpdir("matrix-count");
    let counter = FaultIo::over_real(FaultSchedule::none());
    let record = run_workload(std::sync::Arc::clone(&counter), &dir, &corpus);
    let mutations = counter.mutations();
    assert!(
        mutations >= 20,
        "the workload must exercise a real spread of crash points, got {mutations}"
    );
    // The fault-free run must ack everything and recover trivially.
    assert_eq!(record.acked.len(), 4, "fault-free run acks every put");
    assert_recovered(&dir, &corpus, &record, "fault-free");

    // The matrix proper.
    for point in 0..mutations {
        let label = format!("crash@{point} (OIPA_FAULT_SEED={seed})");
        let dir = tmpdir(&format!("matrix-{point}"));
        let io = FaultIo::over_real(FaultSchedule::crash_at(point, seed));
        let record = run_workload(std::sync::Arc::clone(&io), &dir, &corpus);
        assert!(io.crashed(), "{label}: the crash point must fire");
        assert_recovered(&dir, &corpus, &record, &label);
    }
}

/// The repair write-back crash matrix: a pool committed at epoch 0 is
/// surgically repaired after a one-epoch lineage advance, and the
/// process dies at every mutating I/O operation along the way. Whatever
/// the crash point, a clean reopen must serve only committed epochs —
/// the key either comes back stamped epoch 0 with the stale payload
/// (still repairable) or stamped at the head epoch with the repaired
/// payload, bitwise-identical to its source either way, never a torn
/// mix of the two.
#[test]
fn repair_write_back_crash_serves_only_committed_epochs() {
    use oipa_graph::{EdgeChange, GraphDelta, TopicProb};

    let seed = fault_seed();
    let (g, table, campaign) = fig1();
    let stale = MrrPool::generate(&g, &table, &campaign, 300, 11);
    let delta = GraphDelta {
        reweight: vec![
            EdgeChange {
                source: 4,
                target: 3,
                probs: vec![TopicProb {
                    topic: 1,
                    prob: 0.4,
                }],
            },
            EdgeChange {
                source: 3,
                target: 2,
                probs: vec![TopicProb {
                    topic: 1,
                    prob: 0.15,
                }],
            },
        ],
        ..GraphDelta::default()
    };
    let app = g.apply_delta(&delta).expect("fig1 edges exist");
    let post_table = table.apply_delta(&delta, &app).expect("rows remap");
    let (repaired, outcome) = stale
        .repaired(&app.graph, &post_table, &campaign, &app.dirty_targets, 11)
        .expect("repair runs");
    assert!(
        outcome.sets_resampled > 0,
        "the delta must dirty some walks"
    );
    assert_ne!(
        stale.fingerprint(),
        repaired.fingerprint(),
        "the delta must change the pool"
    );

    let key = PoolKey::sampled("repair-crash".to_string(), 300, 11);
    let (root, head) = (0xF1u64, 0xF2u64);
    let workload = |io: std::sync::Arc<FaultIo>, dir: &PathBuf| {
        let mut tier = match DiskTier::open_with_io(dir, 1 << 20, io) {
            Ok(tier) => tier,
            Err(_) => return,
        };
        let _ = tier.set_lineage(&[root]);
        let _ = tier.put(&key, &stale);
        let _ = tier.set_lineage(&[root, head]); // the delta: epoch 0 -> 1
        let _ = tier.put(&key, &repaired); // the repair write-back
    };

    // Pass 0: count the mutating operations and pin the fault-free end
    // state (repaired payload at the head epoch).
    let dir = tmpdir("repair-crash-count");
    let counter = FaultIo::over_real(FaultSchedule::none());
    workload(std::sync::Arc::clone(&counter), &dir);
    let mutations = counter.mutations();
    assert!(
        mutations >= 6,
        "the repair workload must hit several crash points, got {mutations}"
    );
    {
        let mut tier = DiskTier::open(&dir, 1 << 20).expect("fault-free reopen");
        assert_eq!(tier.lineage(), [root, head]);
        assert_eq!(tier.entries().len(), 1);
        assert_eq!(tier.entries()[0].epoch, 1);
        let got = tier.get(&key).expect("repaired payload served");
        assert_eq!(got.fingerprint(), repaired.fingerprint());
    }

    // The matrix proper.
    for point in 0..mutations {
        let label = format!("repair-crash@{point} (OIPA_FAULT_SEED={seed})");
        let dir = tmpdir(&format!("repair-crash-{point}"));
        let io = FaultIo::over_real(FaultSchedule::crash_at(point, seed));
        workload(std::sync::Arc::clone(&io), &dir);
        assert!(io.crashed(), "{label}: the crash point must fire");

        let tier = DiskTier::open(&dir, 1 << 20)
            .unwrap_or_else(|e| panic!("{label}: reopen must never fail: {e}"));
        let verdict = tier.verify();
        assert!(
            verdict.corrupt.is_empty(),
            "{label}: reopen indexed corrupt segments: {:?}",
            verdict.corrupt
        );
        let lineage = tier.lineage().to_vec();
        assert!(
            lineage.is_empty() || lineage == [root] || lineage == [root, head],
            "{label}: recovered lineage {lineage:?} was never committed"
        );
        let stamped: Vec<(PoolKey, u64)> = tier
            .entries()
            .iter()
            .map(|e| (e.key.clone(), e.epoch))
            .collect();
        drop(tier);

        // Read the recovered entries back the way the service does:
        // through a store reopened over the same directory.
        let mut config = StoreConfig::new(&dir);
        config.disk_bytes = 1 << 20;
        let store = PoolStore::open(config)
            .unwrap_or_else(|e| panic!("{label}: store reopen must never fail: {e}"));
        for (entry_key, epoch) in stamped {
            assert_eq!(entry_key, key, "{label}: foreign key recovered");
            assert!(
                (epoch as usize) < lineage.len(),
                "{label}: entry stamped epoch {epoch} beyond the committed lineage {lineage:?}"
            );
            // A current-epoch entry serves; a stale ancestor misses on
            // the serving path but stays reachable for repair. Either
            // way the payload must be bitwise the pool of its epoch.
            let (got, got_epoch, _) = store
                .get_any(&entry_key)
                .unwrap_or_else(|| panic!("{label}: indexed entry must be retrievable"));
            assert_eq!(got_epoch, epoch, "{label}: get_any epoch drifted");
            let want = match epoch {
                0 => stale.fingerprint(),
                1 => repaired.fingerprint(),
                other => panic!("{label}: impossible epoch {other}"),
            };
            assert_eq!(
                got.fingerprint(),
                want,
                "{label}: epoch-{epoch} payload is not bitwise the epoch-{epoch} pool"
            );
            if epoch as usize + 1 < lineage.len() {
                assert!(
                    store.get(&entry_key).is_none(),
                    "{label}: a stale ancestor must not serve"
                );
            }
        }
    }
}

/// A crashed directory must also reopen cleanly when the *reopen itself*
/// runs over a still-broken disk: degraded, not failed, and fully
/// recovered on the next healthy open.
#[test]
fn reopen_on_a_still_broken_disk_degrades_then_recovers() {
    let seed = fault_seed();
    let corpus = corpus();
    let dir = tmpdir("broken-reopen");

    let io = FaultIo::over_real(FaultSchedule::crash_at(9, seed));
    let record = run_workload(std::sync::Arc::clone(&io), &dir, &corpus);

    // Reopen through a read-only filesystem: recovery writes (manifest
    // persist, quarantine renames, temp sweeps) all fail, but the open
    // itself must succeed and report a degraded tier.
    let ro = FaultIo::over_real(FaultSchedule::none());
    ro.set_readonly(true);
    let tier = DiskTier::open_with_io(&dir, 1 << 20, ro)
        .expect("a read-only directory must open (degraded), not fail");
    assert!(
        !tier.health().is_healthy(),
        "failed recovery writes must leave the tier degraded"
    );
    drop(tier);

    // And a later healthy open still recovers to a verify-clean state
    // (the read-only open persisted nothing, so the crashed run's record
    // still describes the on-disk directory).
    assert_recovered(&dir, &corpus, &record, "healthy reopen after broken reopen");
    let quarantine = dir.join(QUARANTINE_DIR);
    let _ = quarantine; // layout documented; contents vary by crash point
}
