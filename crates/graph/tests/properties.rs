//! Property-based invariants of the graph substrate.

use oipa_graph::{generators, io, stats, traverse, DedupPolicy, DiGraph};
use proptest::prelude::*;

/// Arbitrary edge list over a bounded node universe.
fn edges_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..max_m);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR invariants: degree sums equal edge counts, transpose agrees
    /// with forward adjacency, edge-id round trips hold.
    #[test]
    fn csr_invariants((n, edges) in edges_strategy(40, 120)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.edge_count(), edges.len());
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
        for v in g.nodes() {
            for e in g.in_edges(v) {
                let (s, t) = g.edge_endpoints(e.id).unwrap();
                prop_assert_eq!((s, t), (e.source, v));
            }
        }
    }

    /// Double reversal is the identity.
    #[test]
    fn reversal_involution((n, edges) in edges_strategy(30, 80)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    /// Text and binary IO round-trip losslessly (modulo dedup-free input).
    #[test]
    fn io_roundtrips((n, edges) in edges_strategy(30, 60)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let mut text = Vec::new();
        io::write_edge_list(&g, &mut text).unwrap();
        let g2 = io::read_edge_list(&text[..], DedupPolicy::KeepAll).unwrap();
        // Text IO loses trailing isolated nodes; compare edge sets.
        let a: Vec<_> = g.edges().map(|e| (e.source, e.target)).collect();
        let b: Vec<_> = g2.edges().map(|e| (e.source, e.target)).collect();
        prop_assert_eq!(a, b);

        let mut bin = Vec::new();
        oipa_graph::binio::write_graph(&g, &mut bin).unwrap();
        prop_assert_eq!(oipa_graph::binio::read_graph(&bin[..]).unwrap(), g);
    }

    /// Reachability is reflexive and consistent with the transpose:
    /// v ∈ forward(u) ⇔ u ∈ backward(v).
    #[test]
    fn reachability_duality((n, edges) in edges_strategy(20, 50), s1 in 0u32..20, s2 in 0u32..20) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let u = s1 % n;
        let v = s2 % n;
        let fwd = traverse::forward_reachable(&g, u);
        let bwd = traverse::backward_reachable(&g, v);
        prop_assert!(fwd.contains(&u));
        prop_assert_eq!(fwd.contains(&v), bwd.contains(&u));
    }

    /// Graph statistics are internally consistent.
    #[test]
    fn stats_consistency((n, edges) in edges_strategy(30, 80)) {
        let g = DiGraph::from_edges(n, &edges).unwrap();
        let s = stats::graph_stats(&g);
        prop_assert_eq!(s.nodes, n as usize);
        prop_assert_eq!(s.edges, edges.len());
        let hist = stats::out_degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), n as usize);
        let mass: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        prop_assert_eq!(mass, edges.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generators honor their basic contracts for arbitrary seeds.
    #[test]
    fn generator_contracts(seed in 0u64..10_000) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let gnm = generators::erdos_renyi_gnm(&mut rng, 40, 100);
        prop_assert_eq!(gnm.edge_count(), 100);
        let ba = generators::barabasi_albert(&mut rng, 50, 2);
        prop_assert_eq!(ba.node_count(), 50);
        for e in ba.edges() {
            prop_assert_ne!(e.source, e.target);
        }
        let pl = generators::power_law_configuration(&mut rng, 60, 2.5, 1.0, Some(200), None);
        prop_assert!(pl.edge_count() <= 200);
    }
}
