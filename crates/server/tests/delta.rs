//! Surgical invalidation over the wire: `POST /delta` mutates the live
//! session behind the exclusive lock, and the next solve for a cached
//! key repairs its pool — with answers bitwise identical to a service
//! cold-started on the post-delta inputs.

mod common;

use common::*;
use oipa_server::ServerConfig;
use oipa_service::{DeltaReport, EdgeChange, GraphDelta, PlannerService, TopicProb};

/// A valid fig-1 delta: one brand-new edge plus one reweight.
fn fig1_delta() -> GraphDelta {
    GraphDelta {
        insert: vec![EdgeChange {
            source: 0, // a -> c did not exist
            target: 2,
            probs: vec![TopicProb {
                topic: 1,
                prob: 0.7,
            }],
        }],
        reweight: vec![EdgeChange {
            source: 4, // e -> d existed on z2
            target: 3,
            probs: vec![TopicProb {
                topic: 1,
                prob: 0.4,
            }],
        }],
        ..GraphDelta::default()
    }
}

/// The store's epoch-chain gauges, `(oipa_store_epoch,
/// oipa_store_lineage_length)`, from one `/metrics` scrape.
fn chain_gauges(addr: std::net::SocketAddr) -> (f64, f64) {
    let resp = request(addr, "GET", "/metrics", None);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let gauge = |name: &str| {
        resp.body_str()
            .lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from /metrics"))
    };
    (
        gauge("oipa_store_epoch"),
        gauge("oipa_store_lineage_length"),
    )
}

#[test]
fn delta_over_wire_repairs_the_cached_pool() {
    let (handle, service) = spawn(ServerConfig::default());
    let addr = handle.addr();
    let req = solve_request(2, 2_000, 7);

    let cold = solve_over_wire(addr, &req);
    assert!(!cold.pool_cache_hit && cold.pool_repair.is_none());

    assert_eq!(chain_gauges(addr), (0.0, 1.0));
    let delta = fig1_delta();
    let body = serde_json::to_string(&delta).unwrap();
    let resp = request(addr, "POST", "/delta", Some(&body));
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        chain_gauges(addr),
        (1.0, 2.0),
        "/metrics shows the new epoch"
    );
    let stats = request(addr, "GET", "/stats", None);
    assert_eq!(stats.status, 200, "{}", stats.body_str());
    let stats: oipa_server::StatsBody = serde_json::from_str(stats.body_str()).unwrap();
    assert_eq!(
        stats.lineage,
        oipa_server::LineageStats {
            epoch: 1,
            length: 2
        },
        "/stats shows the new epoch"
    );
    let report: DeltaReport = serde_json::from_str(resp.body_str()).unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(report.ops, 2);
    assert!(report.dirty_targets > 0);
    assert_eq!(report.pools_dirty, 1, "the cached pool went stale");
    assert_eq!(report.pools_purged, 0, "deltas never purge");

    // The next solve repairs the stale pool instead of resampling it.
    let repaired = solve_over_wire(addr, &req);
    let repair = repaired.pool_repair.expect("the pool was repaired");
    assert_eq!((repair.from_epoch, repair.to_epoch), (0, 1));
    assert!(repair.sets_resampled <= repair.sets_total);
    assert!(!repaired.pool_cache_hit, "repair is not a free hit");

    // Reference: a separate session cold-started on the mutated inputs.
    let (graph, table, _) = oipa_sampler::testkit::fig1();
    let app = graph.apply_delta(&delta).unwrap();
    let table = table.apply_delta(&delta, &app).unwrap();
    let reference = PlannerService::new(app.graph, table).unwrap();
    let expect = reference.solve(&req).unwrap();
    assert_eq!(
        answer(&repaired),
        answer(&expect),
        "repaired answer diverged from a cold solve on the new graph"
    );

    // Warm from here on, at the new epoch.
    let warm = solve_over_wire(addr, &req);
    assert!(warm.pool_cache_hit && warm.pool_repair.is_none());
    assert_eq!(answer(&warm), answer(&repaired));

    // The in-process view agrees about where the lineage stands.
    assert_eq!(service.read().unwrap().lineage().unwrap().epoch(), 1);
    handle.shutdown();
}

#[test]
fn delta_rejections_are_typed_and_harmless() {
    let (handle, service) = spawn(ServerConfig::default());
    let addr = handle.addr();

    request(addr, "POST", "/delta", Some("{ not json")).assert_error(400, "bad_json");
    // Valid JSON, empty delta: rejected before touching the session.
    request(addr, "POST", "/delta", Some("{}")).assert_error(422, "delta_error");
    // Inserting an edge that already exists is all-or-nothing rejected.
    let dup = GraphDelta {
        insert: vec![EdgeChange {
            source: 0,
            target: 1,
            probs: vec![TopicProb {
                topic: 0,
                prob: 0.5,
            }],
        }],
        ..GraphDelta::default()
    };
    let body = serde_json::to_string(&dup).unwrap();
    request(addr, "POST", "/delta", Some(&body)).assert_error(422, "delta_error");

    // Every rejection left the session at epoch 0 and still serving.
    assert_eq!(service.read().unwrap().lineage().unwrap().epoch(), 0);
    assert_healthy(addr);
    handle.shutdown();
}

/// Deltas serialize across concurrent solve traffic: hammer `/solve`
/// on one key while applying deltas, then check the session is coherent
/// — final epoch is the number of deltas and the final answer matches a
/// cold session on the final inputs.
#[test]
fn deltas_interleave_safely_with_solve_traffic() {
    let (handle, service) = spawn(ServerConfig::default());
    let addr = handle.addr();
    let req = solve_request(2, 2_000, 9);
    solve_over_wire(addr, &req); // warm the key at epoch 0

    let deltas = [fig1_delta()];
    let solvers: Vec<_> = (0..3)
        .map(|_| {
            let req = req.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let resp = solve_over_wire(addr, &req);
                    assert_eq!(resp.k, 2);
                }
            })
        })
        .collect();
    for delta in &deltas {
        let body = serde_json::to_string(delta).unwrap();
        let resp = request(addr, "POST", "/delta", Some(&body));
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    for solver in solvers {
        solver.join().expect("solver thread panicked");
    }

    assert_eq!(
        service.read().unwrap().lineage().unwrap().epoch(),
        deltas.len() as u64
    );
    // After the dust settles the served answer equals the cold answer
    // on the final inputs.
    let (graph, table, _) = oipa_sampler::testkit::fig1();
    let app = graph.apply_delta(&deltas[0]).unwrap();
    let table = table.apply_delta(&deltas[0], &app).unwrap();
    let reference = PlannerService::new(app.graph, table).unwrap();
    let expect = reference.solve(&req).unwrap();
    let settled = solve_over_wire(addr, &req);
    assert_eq!(answer(&settled), answer(&expect));
    handle.shutdown();
}
