//! Golden parity across the three pool paths a stored session can take:
//! **cold** (sample now), **mem-warm** (arena hit), and **disk-warm**
//! (restart: fresh service over a populated store directory). Plans and
//! utilities must be bitwise-identical on all three — the store may only
//! ever change latency, never answers — and only the cold path samples.

use oipa_sampler::testkit::small_random_instance;
use oipa_service::{Method, PlannerService, SolveRequest, StoreConfig};
use oipa_topics::Campaign;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("oipa-service-store").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn instance() -> (oipa_graph::DiGraph, oipa_topics::EdgeTopicProbs, Campaign) {
    let mut rng = StdRng::seed_from_u64(17);
    small_random_instance(&mut rng, 80, 600, 4, 2)
}

fn request(campaign: &Campaign) -> SolveRequest {
    request_for(campaign, Method::BabP)
}

fn request_for(campaign: &Campaign, method: Method) -> SolveRequest {
    let mut req = SolveRequest::new(method, 3);
    req.campaign = Some(campaign.clone());
    req.theta = Some(6_000);
    req.seed = Some(5);
    req.promoter_fraction = Some(0.3);
    req.max_nodes = Some(30);
    req
}

/// A service's pool resolutions by outcome (`oipa_pool_requests_total`):
/// `sampled`, `hit_memory`, `hit_disk`.
fn outcomes(registry: &oipa_obs::Registry) -> [u64; 3] {
    ["sampled", "hit_memory", "hit_disk"].map(|outcome| {
        registry
            .counter("oipa_pool_requests_total", "", &[("outcome", outcome)])
            .get()
    })
}

/// Both pool-bound methods share one pool key, so one cold stored solve
/// serves the other method from memory and, after a restart, from disk.
#[test]
fn cold_disk_warm_and_mem_warm_answers_are_bitwise_identical() {
    let dir = tmpdir("parity");
    let (graph, table, campaign) = instance();
    let mut writer = PlannerService::new(graph.clone(), table.clone()).unwrap();
    writer.attach_store(StoreConfig::new(&dir)).unwrap();
    let writer_obs = oipa_obs::Registry::new();
    writer.attach_obs(&writer_obs);
    let mut sampled = 0;
    for method in [Method::BabP, Method::Greedy] {
        let req = request_for(&campaign, method);

        // Cold, no store: the reference answer.
        let plain = PlannerService::new(graph.clone(), table.clone()).unwrap();
        let cold = plain.solve(&req).unwrap();
        assert!(!cold.pool_cache_hit);
        assert_eq!(cold.pool_tier, None);

        // Stored session: the first request samples and persists, every
        // later one (either method) is a memory hit with the cold answer.
        let first = writer.solve(&req).unwrap();
        sampled += usize::from(!first.pool_cache_hit);
        let mem_warm = writer.solve(&req).unwrap();
        for r in [&first, &mem_warm] {
            assert_eq!(r.plan, cold.plan, "{method}: stored plan diverged");
            assert_eq!(r.utility.to_bits(), cold.utility.to_bits(), "{method}");
        }
        assert_eq!(mem_warm.pool_tier.as_deref(), Some("memory"));
    }
    assert_eq!(sampled, 1, "one cold stored solve serves both methods");
    assert_eq!(
        outcomes(&writer_obs),
        [1, 3, 0],
        "only the cold path samples"
    );
    drop(writer);

    for method in [Method::BabP, Method::Greedy] {
        let req = request_for(&campaign, method);
        let cold = PlannerService::new(graph.clone(), table.clone())
            .unwrap()
            .solve(&req)
            .unwrap();

        // Disk-warm: a fresh session ("restart") over the same directory.
        let mut restarted = PlannerService::new(graph.clone(), table.clone()).unwrap();
        restarted.attach_store(StoreConfig::new(&dir)).unwrap();
        let obs = oipa_obs::Registry::new();
        restarted.attach_obs(&obs);
        let disk_warm = restarted.solve(&req).unwrap();
        assert!(disk_warm.pool_cache_hit, "restart must hit the disk tier");
        assert_eq!(disk_warm.pool_tier.as_deref(), Some("disk"));
        assert_eq!(
            disk_warm.plan, cold.plan,
            "{method}: disk-warm plan diverged"
        );
        assert_eq!(
            disk_warm.utility.to_bits(),
            cold.utility.to_bits(),
            "{method}: disk-warm utility diverged"
        );
        // The disk hit promoted the pool: the next request is memory-tier.
        let promoted = restarted.solve(&req).unwrap();
        assert_eq!(promoted.pool_tier.as_deref(), Some("memory"));
        assert_eq!(promoted.plan, cold.plan, "{method}: promoted plan diverged");
        assert_eq!(promoted.utility.to_bits(), cold.utility.to_bits());
        assert_eq!(outcomes(&obs), [0, 1, 1], "a disk hit runs no sampling");

        let stats = restarted.stats_snapshot();
        let disk = stats.disk.expect("disk tier attached");
        assert_eq!(disk.hits, 1);
    }
}

/// A stored session answers like a store-less one: the same request
/// solved cold and then warm through a store directory returns plans and
/// utilities bitwise-identical to a service with no store attached.
#[test]
fn stored_answers_match_a_storeless_service_bitwise() {
    let (graph, table, campaign) = instance();
    let req = request(&campaign);

    let reference = PlannerService::new(graph.clone(), table.clone())
        .unwrap()
        .solve(&req)
        .unwrap();

    let dir = tmpdir("storeless-parity");
    let mut service = PlannerService::new(graph, table).unwrap();
    service.attach_store(StoreConfig::new(&dir)).unwrap();

    let cold = service.solve(&req).unwrap();
    assert!(!cold.pool_cache_hit);
    assert_eq!(cold.plan, reference.plan, "cold plan");
    assert_eq!(
        cold.utility.to_bits(),
        reference.utility.to_bits(),
        "cold utility diverged"
    );

    let warm = service.solve(&req).unwrap();
    assert_eq!(warm.pool_tier.as_deref(), Some("memory"));
    assert_eq!(warm.plan, reference.plan, "warm plan");
    assert_eq!(
        warm.utility.to_bits(),
        reference.utility.to_bits(),
        "warm utility diverged"
    );
}

/// A store directory is bound to the (graph, table) it was filled from:
/// a service over *different* inputs must purge it rather than serve
/// pools that were sampled elsewhere.
#[test]
fn store_directory_never_serves_a_different_instance() {
    let dir = tmpdir("instance-guard");
    let (graph, table, campaign) = instance();
    let req = request(&campaign);

    let mut writer = PlannerService::new(graph, table).unwrap();
    writer.attach_store(StoreConfig::new(&dir)).unwrap();
    writer.solve(&req).unwrap();
    drop(writer);

    // A different seeded instance ⇒ different fingerprint ⇒ purge.
    let mut rng = StdRng::seed_from_u64(99);
    let (other_graph, other_table, _) = small_random_instance(&mut rng, 80, 600, 4, 2);
    let mut other = PlannerService::new(other_graph, other_table).unwrap();
    other.attach_store(StoreConfig::new(&dir)).unwrap();
    let response = other.solve(&req).unwrap();
    assert!(
        !response.pool_cache_hit,
        "a pool sampled from another graph was served"
    );
}

/// `attach_graph` mid-session restamps the disk tier too — stale pools
/// are purged from both tiers in one move.
#[test]
fn attach_graph_restamps_the_disk_tier() {
    let dir = tmpdir("attach-graph");
    let (graph, table, campaign) = instance();
    let req = request(&campaign);

    let mut service = PlannerService::new(graph, table).unwrap();
    service.attach_store(StoreConfig::new(&dir)).unwrap();
    service.solve(&req).unwrap();

    let mut rng = StdRng::seed_from_u64(123);
    let (g2, t2, _) = small_random_instance(&mut rng, 80, 600, 4, 2);
    service.attach_graph(g2, t2).unwrap();
    let response = service.solve(&req).unwrap();
    assert!(
        !response.pool_cache_hit,
        "pool from the pre-attach_graph instance served after the swap"
    );
}
