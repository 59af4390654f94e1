//! Edge-probability sources for sampling.

use oipa_graph::EdgeId;
use oipa_topics::{EdgeTopicProbs, TopicVector};

/// A source of per-edge activation probabilities for one homogeneous
/// influence graph (one viral piece, or a collapsed topic-oblivious graph).
///
/// RR sampling reads each edge's probability once per pool, when it
/// builds the piece's [`LiveInEdges`](crate::LiveInEdges); the forward
/// simulator ([`crate::simulate`]) probes it on every edge a cascade
/// tries.
pub trait EdgeProb: Sync {
    /// Probability that the piece passes through edge `e`.
    fn prob(&self, e: EdgeId) -> f32;
}

/// A flat, pre-materialized per-edge probability vector.
///
/// Fastest option; costs `4·m` bytes per piece. Produced by
/// [`EdgeTopicProbs::materialize`].
#[derive(Debug, Clone)]
pub struct MaterializedProbs(pub Vec<f32>);

impl EdgeProb for MaterializedProbs {
    #[inline]
    fn prob(&self, e: EdgeId) -> f32 {
        self.0[e as usize]
    }
}

impl EdgeProb for Vec<f32> {
    #[inline]
    fn prob(&self, e: EdgeId) -> f32 {
        self[e as usize]
    }
}

/// On-the-fly `t · p(e)` evaluation against the sparse topic table.
///
/// Zero extra memory; each probe costs one sparse dot product (cheap at the
/// real-world supports of ~1.5 entries/edge). Sampling pays that once per
/// edge per pool, building a [`LiveInEdges`](crate::LiveInEdges) list;
/// the forward simulator pays it on every probe.
pub struct PieceProbs<'a> {
    table: &'a EdgeTopicProbs,
    piece: &'a TopicVector,
}

impl<'a> PieceProbs<'a> {
    /// Binds a piece to a probability table.
    pub fn new(table: &'a EdgeTopicProbs, piece: &'a TopicVector) -> Self {
        assert_eq!(
            table.topic_count(),
            piece.dim(),
            "piece dimension must match table"
        );
        PieceProbs { table, piece }
    }
}

impl EdgeProb for PieceProbs<'_> {
    #[inline]
    fn prob(&self, e: EdgeId) -> f32 {
        self.table.piece_prob(self.piece, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_topics::{EdgeProbsBuilder, SparseTopicVector};

    #[test]
    fn materialized_and_on_the_fly_agree() {
        let mut b = EdgeProbsBuilder::new(3, 2);
        b.set(0, SparseTopicVector::new(vec![(0, 0.5)], 2).unwrap())
            .unwrap();
        b.set(2, SparseTopicVector::new(vec![(1, 0.9)], 2).unwrap())
            .unwrap();
        let table = b.build();
        let piece = TopicVector::new(vec![1.0, 0.0]).unwrap();
        let mat = MaterializedProbs(table.materialize(&piece));
        let fly = PieceProbs::new(&table, &piece);
        for e in 0..3 {
            assert_eq!(mat.prob(e), fly.prob(e));
        }
        assert_eq!(mat.prob(0), 0.5);
        assert_eq!(mat.prob(2), 0.0);
    }
}
