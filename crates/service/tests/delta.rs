//! End-to-end surgical invalidation at the service layer: applying graph
//! deltas to a live session must leave every later answer **bitwise
//! identical** to a service cold-started on the post-delta inputs — while
//! the session repairs its cached pools instead of resampling them.

use oipa_graph::{DiGraph, NodeId};
use oipa_sampler::testkit::small_random_instance;
use oipa_service::{EdgeChange, GraphDelta, Method, PlannerService, SolveRequest, TopicProb};
use oipa_topics::EdgeTopicProbs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;

fn random_row(rng: &mut StdRng, topic_count: usize) -> Vec<TopicProb> {
    let topic = rng.gen_range(0..topic_count) as u16;
    vec![TopicProb {
        topic,
        prob: rng.gen_range(0.05..0.8f32),
    }]
}

/// A random non-empty valid delta against `graph`: removals, reweights of
/// survivors, and insertions of absent edges.
fn random_delta(rng: &mut StdRng, graph: &DiGraph, topic_count: usize) -> GraphDelta {
    loop {
        let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|e| (e.source, e.target)).collect();
        let n = graph.node_count() as NodeId;
        let mut delta = GraphDelta::default();
        let mut removed = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(0..3usize) {
            let pick = edges[rng.gen_range(0..edges.len())];
            if removed.insert(pick) {
                delta.remove.push(pick);
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let pick = edges[rng.gen_range(0..edges.len())];
            if !removed.contains(&pick)
                && !delta.reweight.iter().any(|c| (c.source, c.target) == pick)
            {
                delta.reweight.push(EdgeChange {
                    source: pick.0,
                    target: pick.1,
                    probs: random_row(rng, topic_count),
                });
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            for _attempt in 0..32 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let absent = graph.find_edge(u, v).is_none() || removed.contains(&(u, v));
                if u != v && absent && !delta.insert.iter().any(|c| (c.source, c.target) == (u, v))
                {
                    delta.insert.push(EdgeChange {
                        source: u,
                        target: v,
                        probs: random_row(rng, topic_count),
                    });
                    break;
                }
            }
        }
        if !delta.is_empty() {
            return delta;
        }
    }
}

fn request() -> SolveRequest {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (_, _, campaign) = small_random_instance(&mut rng, 60, 350, 4, 2);
    let mut request = SolveRequest::new(Method::Bab, 2);
    request.campaign = Some(campaign);
    request.theta = Some(2_000);
    request
}

fn instance() -> (DiGraph, EdgeTopicProbs) {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let (graph, table, _) = small_random_instance(&mut rng, 60, 350, 4, 2);
    (graph, table)
}

/// Drives one delta-evolved session at `warm_threads` against a
/// cold-started reference at `cold_threads` and asserts the answers are
/// bitwise identical (plan, utility, bound) — with the evolved session
/// repairing its pool rather than resampling it.
fn run_against_cold(case_seed: u64, warm_threads: usize, cold_threads: usize) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let (graph, table) = instance();
    let request = request();
    let mut service = PlannerService::new(graph.clone(), table.clone()).unwrap();
    let warm_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(warm_threads)
        .build()
        .unwrap();
    let first = warm_pool.install(|| service.solve(&request)).unwrap();
    assert!(!first.pool_cache_hit && first.pool_repair.is_none());

    // Evolve the session by three deltas, mirroring them onto a copy of
    // the inputs for the cold reference.
    let (mut cold_graph, mut cold_table) = (graph, table);
    for step in 0..3u64 {
        let delta = random_delta(&mut rng, &cold_graph, cold_table.topic_count());
        let report = service.apply_delta(&delta).unwrap();
        assert_eq!(report.epoch, step + 1);
        assert_eq!(report.ops, delta.op_count());
        assert!(report.dirty_targets > 0);
        assert_eq!(report.pools_purged, 0, "deltas never purge");
        if step == 0 {
            assert_eq!(report.pools_dirty, 1, "the cached pool went stale");
        }
        let app = cold_graph.apply_delta(&delta).unwrap();
        cold_table = cold_table.apply_delta(&delta, &app).unwrap();
        cold_graph = app.graph;
    }
    assert_eq!(service.lineage().unwrap().epoch(), 3);

    let repaired = warm_pool.install(|| service.solve(&request)).unwrap();
    let repair = repaired.pool_repair.expect("the stale pool was repaired");
    assert_eq!(repair.from_epoch, 0);
    assert_eq!(repair.to_epoch, 3);
    assert!(repair.sets_resampled <= repair.sets_total);
    assert!(!repaired.pool_cache_hit, "repair is not a free hit");

    let cold_service = PlannerService::new(cold_graph, cold_table).unwrap();
    let cold = rayon::ThreadPoolBuilder::new()
        .num_threads(cold_threads)
        .build()
        .unwrap()
        .install(|| cold_service.solve(&request))
        .unwrap();
    assert!(cold.pool_repair.is_none() && !cold.pool_cache_hit);
    assert_eq!(repaired.plan, cold.plan, "case {case_seed}: plans diverged");
    assert_eq!(repaired.utility, cold.utility);
    assert_eq!(repaired.upper_bound, cold.upper_bound);

    // The repaired pool is warm at the current epoch from here on.
    let warm = service.solve(&request).unwrap();
    assert!(warm.pool_cache_hit && warm.pool_repair.is_none());
    assert_eq!(warm.plan, cold.plan);
}

#[test]
fn delta_repaired_answers_match_cold_service_one_thread() {
    run_against_cold(11, 1, 4);
}

#[test]
fn delta_repaired_answers_match_cold_service_four_threads() {
    run_against_cold(23, 4, 1);
}

/// Repair runs under the same once-per-key guard as sampling: after a
/// delta, N concurrent solves of the stale key repair it once — exactly
/// one response carries `pool_repair`, the rest take the repaired pool —
/// and every answer is identical.
#[test]
fn concurrent_solves_of_a_stale_key_repair_it_once() {
    const THREADS: usize = 6;
    let mut rng = StdRng::seed_from_u64(31);
    let (graph, table) = instance();
    let request = request();
    let mut service = PlannerService::new(graph.clone(), table).unwrap();
    service.solve(&request).unwrap();
    let delta = random_delta(&mut rng, &graph, 4);
    service.apply_delta(&delta).unwrap();

    let barrier = Barrier::new(THREADS);
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.solve(&request).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let repairs = responses.iter().filter(|r| r.pool_repair.is_some()).count();
    assert_eq!(repairs, 1, "the stale pool was repaired more than once");
    assert!(responses
        .iter()
        .all(|r| r.pool_repair.is_some() != r.pool_cache_hit));
    for r in &responses[1..] {
        assert_eq!(r.plan, responses[0].plan, "concurrent answers diverged");
        assert_eq!(r.utility.to_bits(), responses[0].utility.to_bits());
        assert_eq!(
            r.upper_bound.map(f64::to_bits),
            responses[0].upper_bound.map(f64::to_bits)
        );
    }
}

#[test]
fn invalid_and_empty_deltas_are_rejected() {
    let (graph, table) = instance();
    let mut service = PlannerService::new(graph.clone(), table).unwrap();
    assert!(service.apply_delta(&GraphDelta::default()).is_err());
    // Inserting an existing edge is all-or-nothing rejected: the session
    // keeps serving at epoch 0.
    let edge = graph.edges().next().unwrap();
    let bad = GraphDelta {
        insert: vec![EdgeChange {
            source: edge.source,
            target: edge.target,
            probs: vec![TopicProb {
                topic: 0,
                prob: 0.5,
            }],
        }],
        ..GraphDelta::default()
    };
    assert!(service.apply_delta(&bad).is_err());
    assert_eq!(service.lineage().unwrap().epoch(), 0);

    // Pool-only sessions have no graph to mutate.
    let (g, t, campaign) = oipa_sampler::testkit::fig1();
    let pool = oipa_sampler::MrrPool::generate(&g, &t, &campaign, 500, 1);
    let mut injected = PlannerService::from_pool(pool);
    let delta = GraphDelta {
        remove: vec![(0, 1)],
        ..GraphDelta::default()
    };
    assert!(injected.apply_delta(&delta).is_err());
}

#[test]
fn repair_metrics_flow_into_an_attached_registry() {
    let mut rng = StdRng::seed_from_u64(77);
    let (graph, table) = instance();
    let request = request();
    let mut service = PlannerService::new(graph, table).unwrap();
    let registry = oipa_obs::Registry::new();
    service.attach_obs(&registry);
    service.solve(&request).unwrap();
    let delta = {
        let lineage_graph = instance().0;
        random_delta(&mut rng, &lineage_graph, 4)
    };
    service.apply_delta(&delta).unwrap();
    let repaired = service.solve(&request).unwrap();
    assert!(repaired.pool_repair.is_some());

    let outcome = |o: &'static str| {
        registry
            .counter("oipa_pool_requests_total", "", &[("outcome", o)])
            .get()
    };
    assert_eq!(outcome("sampled"), 1);
    assert_eq!(outcome("repaired"), 1);
    assert_eq!(
        registry
            .counter("oipa_pool_invalidations_total", "", &[("kind", "dirty")])
            .get(),
        1
    );
    assert_eq!(
        registry
            .counter("oipa_pool_invalidations_total", "", &[("kind", "purged")])
            .get(),
        0
    );
    assert_eq!(
        registry
            .histogram("oipa_pool_repair_seconds", "", &[])
            .count(),
        1
    );
}

/// Attaching a store directory between deltas keeps the epoch chain and
/// the dirty history: a pool cached at epoch 0 still repairs after a
/// third delta, to the answer a cold session gives on the final inputs.
#[test]
fn attach_store_between_deltas_keeps_the_repair_path() {
    let mut rng = StdRng::seed_from_u64(41);
    let (graph, table) = instance();
    let request = request();
    let mut service = PlannerService::new(graph.clone(), table.clone()).unwrap();
    service.solve(&request).unwrap(); // cached at epoch 0

    let (mut cold_graph, mut cold_table) = (graph, table);
    let mut evolve = |service: &mut PlannerService| {
        let delta = random_delta(&mut rng, &cold_graph, cold_table.topic_count());
        service.apply_delta(&delta).unwrap();
        let app = cold_graph.apply_delta(&delta).unwrap();
        cold_table = cold_table.apply_delta(&delta, &app).unwrap();
        cold_graph = app.graph;
    };
    evolve(&mut service);
    evolve(&mut service);
    let dir = std::env::temp_dir()
        .join("oipa-service-delta")
        .join("attach-between");
    let _ = std::fs::remove_dir_all(&dir);
    service
        .attach_store(oipa_service::StoreConfig::new(&dir))
        .unwrap();
    evolve(&mut service);
    assert_eq!(service.lineage().unwrap().epoch(), 3);

    let repaired = service.solve(&request).unwrap();
    let repair = repaired.pool_repair.expect("the epoch-0 pool was repaired");
    assert_eq!((repair.from_epoch, repair.to_epoch), (0, 3));
    let cold = PlannerService::new(cold_graph, cold_table)
        .unwrap()
        .solve(&request)
        .unwrap();
    assert_eq!(repaired.plan, cold.plan);
    assert_eq!(repaired.utility.to_bits(), cold.utility.to_bits());
}
