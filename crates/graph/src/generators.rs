//! Synthetic network generators.
//!
//! The paper evaluates on three real social networks we cannot redistribute
//! (`lastfm`, `dblp`, `tweet`). The dataset crate rebuilds stand-ins with
//! matched statistics on top of these generators. The key structural
//! property the paper's §V-C complexity analysis relies on — a power-law
//! influence/degree distribution with exponent `2 < α < 3` — is provided by
//! [`power_law_configuration`] and [`barabasi_albert`].

use crate::builder::{DedupPolicy, GraphBuilder};
use crate::csr::{DiGraph, NodeId};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Samples an integer from a discrete power law `P(d) ∝ d^{-alpha}` over
/// `d ∈ [min_degree, max_degree]` via inverse-CDF on the continuous Pareto
/// approximation.
pub fn power_law_degree<R: Rng + ?Sized>(
    rng: &mut R,
    alpha: f64,
    min_degree: f64,
    max_degree: f64,
) -> usize {
    assert!(alpha > 1.0, "power-law exponent must exceed 1");
    assert!(min_degree >= 1.0 && max_degree >= min_degree);
    let u: f64 = rng.gen_range(0.0..1.0);
    // Inverse CDF of a truncated Pareto with shape alpha-1.
    let a = 1.0 - alpha;
    let lo = min_degree.powf(a);
    let hi = max_degree.powf(a);
    let x = (lo + u * (hi - lo)).powf(1.0 / a);
    x.round().clamp(min_degree, max_degree) as usize
}

/// Directed configuration-model power-law graph.
///
/// Each node draws an out-degree from a truncated power law with exponent
/// `alpha`, then targets are chosen uniformly at random (rejecting
/// self-loops and duplicates). `target_edges` rescales the drawn degree
/// sequence so the expected edge count matches; pass `None` to keep the raw
/// sequence.
pub fn power_law_configuration<R: Rng + ?Sized>(
    rng: &mut R,
    n: u32,
    alpha: f64,
    min_degree: f64,
    target_edges: Option<usize>,
    max_degree: Option<f64>,
) -> DiGraph {
    assert!(n >= 2, "need at least two nodes");
    let max_deg = max_degree
        .unwrap_or(((n - 1) as f64).sqrt() * 4.0)
        .min((n - 1) as f64);
    let mut degrees: Vec<usize> = (0..n)
        .map(|_| power_law_degree(rng, alpha, min_degree, max_deg.max(min_degree)))
        .collect();
    if let Some(target) = target_edges {
        let total: usize = degrees.iter().sum();
        if total > 0 {
            let scale = target as f64 / total as f64;
            for d in &mut degrees {
                let scaled = (*d as f64 * scale).round() as usize;
                *d = scaled.min(n as usize - 1);
            }
            // Fix up rounding drift by topping up random nodes.
            let mut total: isize = degrees.iter().sum::<usize>() as isize;
            let want = target as isize;
            let idx = Uniform::new(0, n as usize);
            let mut attempts = 0usize;
            while total != want && attempts < 20 * n as usize {
                let i = idx.sample(rng);
                if total < want && degrees[i] < n as usize - 1 {
                    degrees[i] += 1;
                    total += 1;
                } else if total > want && degrees[i] > 0 {
                    degrees[i] -= 1;
                    total -= 1;
                }
                attempts += 1;
            }
        }
    }
    let expected: usize = degrees.iter().sum();
    let mut builder = GraphBuilder::with_capacity(DedupPolicy::Simple, expected);
    builder.ensure_nodes(n);
    let pick = Uniform::new(0, n);
    for (u, &d) in degrees.iter().enumerate() {
        let u = u as NodeId;
        let mut placed = 0usize;
        let mut tries = 0usize;
        // Duplicate/self-loop rejection; cap retries so pathological degree
        // requests terminate.
        while placed < d && tries < 10 * d + 32 {
            let v = pick.sample(rng);
            if v != u && builder.add_edge(u, v) {
                placed += 1;
            }
            tries += 1;
        }
    }
    builder.build().expect("generator produces valid edges")
}

/// Directed Barabási–Albert preferential attachment.
///
/// Starts from a small seed clique; each new node attaches `m_attach`
/// out-edges to existing nodes chosen proportionally to (in-degree + 1).
/// Produces a power-law in-degree distribution with exponent ≈ 3.
pub fn barabasi_albert<R: Rng + ?Sized>(rng: &mut R, n: u32, m_attach: usize) -> DiGraph {
    assert!(m_attach >= 1);
    assert!(n as usize > m_attach + 1, "n must exceed m_attach + 1");
    let mut builder = GraphBuilder::with_capacity(DedupPolicy::Simple, n as usize * m_attach);
    builder.ensure_nodes(n);
    // Repeated-endpoint list implements preferential attachment in O(1).
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n as usize * m_attach);
    let seed = (m_attach + 1) as NodeId;
    for u in 0..seed {
        for v in 0..seed {
            if u != v {
                builder.add_edge(u, v);
                endpoints.push(v);
            }
        }
        endpoints.push(u);
    }
    for u in seed..n {
        let mut placed = 0usize;
        let mut tries = 0usize;
        while placed < m_attach && tries < 10 * m_attach + 32 {
            let v = endpoints[rng.gen_range(0..endpoints.len())];
            if v != u && builder.add_edge(u, v) {
                endpoints.push(v);
                placed += 1;
            }
            tries += 1;
        }
        endpoints.push(u);
    }
    builder.build().expect("generator produces valid edges")
}

/// Erdős–Rényi `G(n, m)` digraph: `m` distinct directed edges placed
/// uniformly at random (no self-loops).
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(rng: &mut R, n: u32, m: usize) -> DiGraph {
    assert!(n >= 2);
    let max_edges = n as usize * (n as usize - 1);
    assert!(m <= max_edges, "too many edges requested");
    let mut builder = GraphBuilder::with_capacity(DedupPolicy::Simple, m);
    builder.ensure_nodes(n);
    let pick = Uniform::new(0, n);
    while builder.edge_count() < m {
        let u = pick.sample(rng);
        let v = pick.sample(rng);
        if u != v {
            builder.add_edge(u, v);
        }
    }
    builder.build().expect("generator produces valid edges")
}

/// Complete digraph on `n` nodes (every ordered pair, no loops). Used by the
/// Max-Clique hardness gadget tests.
pub fn complete<Rr>(n: u32) -> DiGraph
where
    Rr: Sized,
{
    let mut builder =
        GraphBuilder::with_capacity(DedupPolicy::Simple, n as usize * (n as usize - 1));
    builder.ensure_nodes(n);
    for u in 0..n {
        for v in 0..n {
            if u != v {
                builder.add_edge(u, v);
            }
        }
    }
    builder.build().expect("complete graph is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn power_law_degree_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = power_law_degree(&mut rng, 2.3, 1.0, 50.0);
            assert!((1..=50).contains(&d));
        }
    }

    #[test]
    fn power_law_degree_skews_low() {
        let mut rng = StdRng::seed_from_u64(7);
        let samples: Vec<usize> = (0..5000)
            .map(|_| power_law_degree(&mut rng, 2.5, 1.0, 100.0))
            .collect();
        let low = samples.iter().filter(|&&d| d <= 3).count();
        assert!(
            low > samples.len() / 2,
            "power law must concentrate at low degrees, got {low}/{}",
            samples.len()
        );
    }

    #[test]
    fn configuration_model_hits_target_edges() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = power_law_configuration(&mut rng, 500, 2.3, 1.0, Some(4000), None);
        assert_eq!(g.node_count(), 500);
        let m = g.edge_count();
        assert!(
            (3200..=4000).contains(&m),
            "edge count {m} too far from target 4000"
        );
    }

    #[test]
    fn ba_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(&mut rng, 300, 3);
        assert_eq!(g.node_count(), 300);
        // Every non-seed node has out-degree close to m_attach.
        let deficient = (4..300).filter(|&u| g.out_degree(u as NodeId) < 2).count();
        assert!(deficient < 10, "too many deficient nodes: {deficient}");
        // Hubs exist: max in-degree well above the mean.
        let max_in = (0..300).map(|u| g.in_degree(u)).max().unwrap();
        assert!(max_in >= 10, "expected a hub, max in-degree {max_in}");
    }

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_gnm(&mut rng, 100, 700);
        assert_eq!(g.edge_count(), 700);
        for e in g.edges() {
            assert_ne!(e.source, e.target);
        }
    }

    #[test]
    fn complete_graph() {
        let g = complete::<()>(5);
        assert_eq!(g.edge_count(), 20);
        for u in 0..5u32 {
            assert_eq!(g.out_degree(u), 4);
        }
    }

    #[test]
    fn generators_deterministic_under_seed() {
        let a = power_law_configuration(
            &mut StdRng::seed_from_u64(42),
            100,
            2.5,
            1.0,
            Some(500),
            None,
        );
        let b = power_law_configuration(
            &mut StdRng::seed_from_u64(42),
            100,
            2.5,
            1.0,
            Some(500),
            None,
        );
        assert_eq!(a, b);
    }
}
