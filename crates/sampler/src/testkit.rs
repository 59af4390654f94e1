//! Shared test fixtures: the paper's running example and small random
//! instances.
//!
//! Compiled unconditionally (not behind `cfg(test)`) so downstream crates'
//! tests, the examples, and the bench harness can reuse the exact Fig. 1
//! instance the paper's Examples 1–3 are computed on.

use oipa_graph::DiGraph;
use oipa_topics::{
    Campaign, EdgeProbsBuilder, EdgeTopicProbs, Piece, SparseTopicVector, TopicVector,
};
use rand::Rng;

/// Node names of the running example, in id order.
pub const FIG1_NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// The paper's running example (Fig. 1): 5 users `a..e`, two topics
/// (`z1` = "tax", `z2` = "healthcare"), six deterministic edges.
///
/// Under piece `t1 = (1, 0)`, seed `{a}` reaches `{a, b, c, d}`; under
/// `t2 = (0, 1)`, seed `{e}` reaches `{b, c, d, e}` — reproducing
/// Example 1's indicator values and σ({{a},{e}}) = 1.05 at α = 3, β = 1.
pub fn fig1() -> (DiGraph, EdgeTopicProbs, Campaign) {
    // a=0, b=1, c=2, d=3, e=4.
    let edges = [
        (0u32, 1u32, 0u16, 1.0f32), // a -> b on z1
        (1, 2, 0, 1.0),             // b -> c on z1
        (1, 3, 0, 1.0),             // b -> d on z1
        (4, 3, 1, 1.0),             // e -> d on z2
        (3, 2, 1, 1.0),             // d -> c on z2
        (2, 1, 1, 1.0),             // c -> b on z2
    ];
    let g = DiGraph::from_edges(5, &edges.map(|(u, v, _, _)| (u, v))).expect("valid edges");
    let mut b = EdgeProbsBuilder::new(g.edge_count(), 2);
    for &(u, v, z, p) in &edges {
        let e = g.find_edge(u, v).expect("edge exists");
        b.set(
            e.id,
            SparseTopicVector::new(vec![(z, p)], 2).expect("valid row"),
        )
        .expect("edge in range");
    }
    let table = b.build();
    let campaign = Campaign::new(vec![
        Piece::new("t1", TopicVector::one_hot(2, 0).expect("topic 0")),
        Piece::new("t2", TopicVector::one_hot(2, 1).expect("topic 1")),
    ])
    .expect("uniform dimensions");
    (g, table, campaign)
}

/// A small random OIPA instance for property tests: an Erdős–Rényi graph
/// with a synthetic topic table and a one-hot campaign.
pub fn small_random_instance<R: Rng + ?Sized>(
    rng: &mut R,
    n: u32,
    m: usize,
    topics: usize,
    ell: usize,
) -> (DiGraph, EdgeTopicProbs, Campaign) {
    let g = oipa_graph::generators::erdos_renyi_gnm(rng, n, m);
    let table = oipa_topics::synthesize_random(
        rng,
        &g,
        oipa_topics::SynthesisParams {
            topic_count: topics,
            avg_support: 1.5,
            max_prob: 0.8,
            weighted_cascade: false,
        },
    );
    let campaign = Campaign::sample_one_hot(rng, topics, ell);
    (g, table, campaign)
}
