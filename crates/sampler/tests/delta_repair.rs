//! The safety bar of surgical invalidation: random delta sequences
//! followed by repair must yield pools **bitwise-identical** to cold
//! sampling of the final graph — at 1 and at 4 threads.
//!
//! If this property holds, every downstream consumer (solvers, the pool
//! store, the service) is delta-oblivious: a repaired pool is
//! indistinguishable from one sampled from scratch. On a weighted-cascade
//! instance, repair must also be surgical: it re-walks at most a tenth of
//! the sets.

use oipa_graph::{DiGraph, EdgeChange, GraphDelta, NodeId, TopicProb};
use oipa_sampler::testkit::small_random_instance;
use oipa_sampler::MrrPool;
use oipa_topics::{Campaign, EdgeTopicProbs, SynthesisParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn random_row(rng: &mut StdRng, topic_count: usize) -> Vec<TopicProb> {
    let k = rng.gen_range(1..=2usize.min(topic_count));
    let mut topics: Vec<u16> = (0..topic_count as u16).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let at = rng.gen_range(0..topics.len());
        out.push(TopicProb {
            topic: topics.swap_remove(at),
            prob: rng.gen_range(0.05..0.8f32),
        });
    }
    out
}

/// A random valid delta against `graph`: a few removals, reweights of
/// surviving edges, and insertions of edges absent after the removals.
fn random_delta(rng: &mut StdRng, graph: &DiGraph, topic_count: usize) -> GraphDelta {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|e| (e.source, e.target)).collect();
    let n = graph.node_count() as NodeId;
    let mut delta = GraphDelta::default();
    let mut removed = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..4usize).min(edges.len()) {
        let pick = edges[rng.gen_range(0..edges.len())];
        if removed.insert(pick) {
            delta.remove.push(pick);
        }
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let pick = edges[rng.gen_range(0..edges.len())];
        if !removed.contains(&pick) && !delta.reweight.iter().any(|c| (c.source, c.target) == pick)
        {
            delta.reweight.push(EdgeChange {
                source: pick.0,
                target: pick.1,
                probs: random_row(rng, topic_count),
            });
        }
    }
    'insert: for _ in 0..rng.gen_range(0..4usize) {
        for _attempt in 0..32 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let absent_after_removals =
                graph.find_edge(u, v).is_none() || removed.contains(&(u, v));
            if u != v
                && absent_after_removals
                && !delta.insert.iter().any(|c| (c.source, c.target) == (u, v))
            {
                delta.insert.push(EdgeChange {
                    source: u,
                    target: v,
                    probs: random_row(rng, topic_count),
                });
                continue 'insert;
            }
        }
    }
    delta
}

fn assert_pools_bitwise_equal(a: &MrrPool, b: &MrrPool, context: &str) {
    assert_eq!(a.roots(), b.roots(), "{context}: roots");
    for j in 0..a.ell() {
        for i in 0..a.theta() {
            assert_eq!(
                a.rr_set(j, i),
                b.rr_set(j, i),
                "{context}: piece {j} walk {i}"
            );
        }
        for v in 0..a.node_count() as NodeId {
            assert_eq!(
                a.samples_containing(j, v),
                b.samples_containing(j, v),
                "{context}: index piece {j} node {v}"
            );
        }
    }
    assert_eq!(a.fingerprint(), b.fingerprint(), "{context}: fingerprint");
}

fn run_sequence(case_seed: u64, steps: usize, repair_threads: usize, cold_threads: usize) {
    let mut rng = StdRng::seed_from_u64(case_seed);
    let (base_graph, base_table, campaign) = small_random_instance(&mut rng, 60, 350, 4, 2);
    let theta = 3000;
    let pool_seed = rng.next_u64();
    let worker = rayon::ThreadPoolBuilder::new()
        .num_threads(repair_threads)
        .build()
        .expect("repair thread pool");
    let mut incremental =
        worker.install(|| MrrPool::generate(&base_graph, &base_table, &campaign, theta, pool_seed));
    let mut stale = incremental.clone();

    let (mut graph, mut table) = (base_graph, base_table);
    let mut union_dirty: Vec<NodeId> = Vec::new();
    for step in 0..steps {
        let delta = random_delta(&mut rng, &graph, table.topic_count());
        let app = graph
            .apply_delta(&delta)
            .unwrap_or_else(|e| panic!("random delta invalid at step {step}: {e}"));
        table = table.apply_delta(&delta, &app).unwrap();
        union_dirty.extend_from_slice(&app.dirty_targets);
        graph = app.graph;
        // Repair incrementally after every delta: the pool must track the
        // epoch chain exactly.
        worker
            .install(|| {
                incremental.repair(&graph, &table, &campaign, &app.dirty_targets, pool_seed)
            })
            .unwrap();
    }
    let cold =
        MrrPool::generate_parallel(&graph, &table, &campaign, theta, pool_seed, cold_threads);
    assert_pools_bitwise_equal(
        &incremental,
        &cold,
        &format!("incremental, case {case_seed}"),
    );

    // A single late repair with the unioned dirty set must also converge
    // to the same pool (pools stale by many epochs take this path).
    union_dirty.sort_unstable();
    union_dirty.dedup();
    worker
        .install(|| stale.repair(&graph, &table, &campaign, &union_dirty, pool_seed))
        .unwrap();
    assert_pools_bitwise_equal(&stale, &cold, &format!("unioned, case {case_seed}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random delta sequences + incremental repair == cold resample of
    /// the final graph, single-threaded repair vs 4-thread cold.
    #[test]
    fn repair_equals_cold_one_thread(case_seed in 0u64..1_000_000) {
        run_sequence(case_seed, 3, 1, 4);
    }

    /// Same property with 4-thread repair vs single-threaded cold.
    #[test]
    fn repair_equals_cold_four_threads(case_seed in 0u64..1_000_000) {
        run_sequence(case_seed, 3, 4, 1);
    }
}

/// A weighted-cascade instance (`p(e|z)` scaled by `1/in_degree`, the
/// IM-literature convention): cascades are subcritical and RR sets are
/// small next to the graph, so a dirty target kills few walks.
fn weighted_cascade_instance(seed: u64) -> (DiGraph, EdgeTopicProbs, Campaign) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 400, 3_200);
    let table = oipa_topics::synthesize_random(
        &mut rng,
        &graph,
        SynthesisParams {
            topic_count: 4,
            avg_support: 1.5,
            max_prob: 0.8,
            weighted_cascade: true,
        },
    );
    let campaign = Campaign::sample_one_hot(&mut rng, 4, 3);
    (graph, table, campaign)
}

fn in_degrees(graph: &DiGraph) -> Vec<usize> {
    let mut degree = vec![0usize; graph.node_count()];
    for edge in graph.edges() {
        degree[edge.target as usize] += 1;
    }
    degree
}

/// A fresh single-topic row, scaled by the target's in-degree to stay in
/// the weighted-cascade regime.
fn cascade_row(rng: &mut StdRng, topic_count: usize, in_degree: usize) -> Vec<TopicProb> {
    vec![TopicProb {
        topic: rng.gen_range(0..topic_count) as u16,
        prob: rng.gen_range(0.05..0.8f32) / in_degree.max(1) as f32,
    }]
}

/// Reweights exactly one edge.
fn single_edge_delta(rng: &mut StdRng, graph: &DiGraph, topic_count: usize) -> GraphDelta {
    let edge = graph
        .edges()
        .nth(rng.gen_range(0..graph.edge_count()))
        .unwrap();
    let in_degree = in_degrees(graph)[edge.target as usize];
    GraphDelta {
        reweight: vec![EdgeChange {
            source: edge.source,
            target: edge.target,
            probs: cascade_row(rng, topic_count, in_degree),
        }],
        ..GraphDelta::default()
    }
}

/// Re-estimates every in-edge of the highest-in-degree nodes until at
/// least 1% of the edges have changed: many edges, few dirty targets.
fn one_percent_delta(rng: &mut StdRng, graph: &DiGraph, topic_count: usize) -> GraphDelta {
    let degree = in_degrees(graph);
    let mut order: Vec<usize> = (0..graph.node_count()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(degree[v]));
    let mut hubs = std::collections::HashSet::new();
    let mut covered = 0;
    for &v in &order {
        if covered >= graph.edge_count() / 100 {
            break;
        }
        hubs.insert(v as NodeId);
        covered += degree[v];
    }
    let mut delta = GraphDelta::default();
    for edge in graph.edges().filter(|e| hubs.contains(&e.target)) {
        delta.reweight.push(EdgeChange {
            source: edge.source,
            target: edge.target,
            probs: cascade_row(rng, topic_count, degree[edge.target as usize]),
        });
    }
    delta
}

/// Both weighted-cascade deltas: the repaired pool equals a cold one on
/// the post-delta inputs, and the repair re-walked some, but at most a
/// tenth, of the sets — so it samples at most a tenth of what a cold
/// resample does.
#[test]
fn weighted_cascade_repair_rewalks_at_most_a_tenth_of_the_sets() {
    let (graph, table, campaign) = weighted_cascade_instance(0xd14a);
    let (theta, seed) = (5_000, 0xd15c);
    let pool = MrrPool::generate(&graph, &table, &campaign, theta, seed);
    let mut rng = StdRng::seed_from_u64(0xde17a);
    let deltas = [
        ("single_edge", single_edge_delta(&mut rng, &graph, 4)),
        ("one_percent", one_percent_delta(&mut rng, &graph, 4)),
    ];
    for (scenario, delta) in deltas {
        let app = graph.apply_delta(&delta).unwrap();
        let post_table = table.apply_delta(&delta, &app).unwrap();
        let (repaired, outcome) = pool
            .repaired(&app.graph, &post_table, &campaign, &app.dirty_targets, seed)
            .unwrap();
        assert_eq!(outcome.sets_total, theta * campaign.len());
        assert!(outcome.sets_resampled > 0, "{scenario}: no walk was dead");
        assert!(
            10 * outcome.sets_resampled <= outcome.sets_total,
            "{scenario}: repair re-walked {} of {} sets",
            outcome.sets_resampled,
            outcome.sets_total
        );
        let cold = MrrPool::generate(&app.graph, &post_table, &campaign, theta, seed);
        assert_pools_bitwise_equal(&repaired, &cold, scenario);
    }
}
