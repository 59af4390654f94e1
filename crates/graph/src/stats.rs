//! Degree statistics and power-law diagnostics.
//!
//! The paper's progressive-bound complexity result (Theorem 4) assumes the
//! social-influence distribution follows a power law with exponent
//! `2 < α < 3`. [`power_law_exponent_mle`] lets the dataset generators and
//! benches verify their stand-in networks actually satisfy that premise.

use crate::csr::DiGraph;
use serde::Serialize;

/// Summary statistics of a graph, mirroring the paper's Table III rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraphStats {
    /// `|V|`.
    pub nodes: usize,
    /// `|E|`.
    pub edges: usize,
    /// Average out-degree (= average in-degree) `m / n`.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of nodes with no edges at all.
    pub isolated: usize,
}

/// Computes [`GraphStats`].
pub fn graph_stats(graph: &DiGraph) -> GraphStats {
    let n = graph.node_count();
    let mut max_out = 0usize;
    let mut max_in = 0usize;
    let mut isolated = 0usize;
    for u in graph.nodes() {
        let od = graph.out_degree(u);
        let id = graph.in_degree(u);
        max_out = max_out.max(od);
        max_in = max_in.max(id);
        if od == 0 && id == 0 {
            isolated += 1;
        }
    }
    GraphStats {
        nodes: n,
        edges: graph.edge_count(),
        avg_degree: if n == 0 {
            0.0
        } else {
            graph.edge_count() as f64 / n as f64
        },
        max_out_degree: max_out,
        max_in_degree: max_in,
        isolated,
    }
}

/// Out-degree histogram: `hist[d]` = number of nodes with out-degree `d`.
pub fn out_degree_histogram(graph: &DiGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for u in graph.nodes() {
        let d = graph.out_degree(u);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Clauset–Shalizi–Newman discrete MLE for the power-law exponent of a
/// degree sequence, `α̂ = 1 + n / Σ ln(d_i / (d_min − 1/2))` over degrees
/// `d_i ≥ d_min`.
///
/// Returns `None` if fewer than 10 observations reach `d_min`.
pub fn power_law_exponent_mle(
    degrees: impl IntoIterator<Item = usize>,
    d_min: usize,
) -> Option<f64> {
    assert!(d_min >= 1);
    let shift = d_min as f64 - 0.5;
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for d in degrees {
        if d >= d_min {
            count += 1;
            log_sum += (d as f64 / shift).ln();
        }
    }
    if count < 10 || log_sum <= 0.0 {
        None
    } else {
        Some(1.0 + count as f64 / log_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stats_small() {
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.isolated, 2);
        assert!((s.avg_degree - 0.6).abs() < 1e-12);
    }

    #[test]
    fn histograms_sum_to_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::erdos_renyi_gnm(&mut rng, 50, 200);
        assert_eq!(out_degree_histogram(&g).iter().sum::<usize>(), 50);
    }

    #[test]
    fn mle_recovers_exponent_on_synthetic_sample() {
        let mut rng = StdRng::seed_from_u64(33);
        let degrees: Vec<usize> = (0..20000)
            .map(|_| generators::power_law_degree(&mut rng, 2.5, 1.0, 10_000.0))
            .collect();
        let alpha = power_law_exponent_mle(degrees, 2).unwrap();
        assert!(
            (2.1..=2.9).contains(&alpha),
            "MLE exponent {alpha} outside plausible band for true 2.5"
        );
    }

    #[test]
    fn mle_requires_enough_observations() {
        assert_eq!(power_law_exponent_mle(vec![5usize; 3], 2), None);
    }

    #[test]
    fn ba_graph_in_power_law_band() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = generators::barabasi_albert(&mut rng, 3000, 4);
        let in_degrees = g.nodes().map(|v| g.in_degree(v));
        let alpha = power_law_exponent_mle(in_degrees, 5).expect("enough hubs");
        // BA is asymptotically exponent 3; finite-size estimates drift.
        assert!(
            (2.0..=4.0).contains(&alpha),
            "BA exponent estimate {alpha} implausible"
        );
    }

    #[test]
    fn empty_graph_stats() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.avg_degree, 0.0);
    }
}
