//! The per-edge topic-probability table `p(e|z)`.
//!
//! Stored as a flat CSR over edge ids: three parallel arrays
//! (`offsets`, `topics`, `probs`). With the sparse real-world supports the
//! paper reports (≈1.5 topics per edge on `tweet`), this costs ~10 bytes
//! per non-zero instead of `4·|Z|` bytes per edge.

use crate::vector::{SparseTopicVector, TopicVector};
use crate::{Result, TopicError};
use oipa_graph::{DeltaApplication, DiGraph, EdgeId, GraphDelta, TopicProb};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Immutable `p(e|z)` table for a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTopicProbs {
    topic_count: usize,
    offsets: Vec<u32>,
    topics: Vec<u16>,
    probs: Vec<f32>,
}

impl EdgeTopicProbs {
    /// Number of edges covered.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of topics `|Z|`.
    #[inline]
    pub fn topic_count(&self) -> usize {
        self.topic_count
    }

    /// Total non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.topics.len()
    }

    /// Average non-zero topic entries per edge — the sparsity statistic the
    /// paper quotes for `tweet` (≈1.5) to explain baseline quality collapse.
    pub fn avg_support(&self) -> f64 {
        if self.edge_count() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.edge_count() as f64
        }
    }

    /// The sparse row `(topics, probs)` of one edge.
    #[inline]
    pub fn row(&self, edge: EdgeId) -> (&[u16], &[f32]) {
        let lo = self.offsets[edge as usize] as usize;
        let hi = self.offsets[edge as usize + 1] as usize;
        (&self.topics[lo..hi], &self.probs[lo..hi])
    }

    /// The paper's `p(t, e) = t · p(e)`, clamped into `[0, 1]`.
    #[inline]
    pub fn piece_prob(&self, piece: &TopicVector, edge: EdgeId) -> f32 {
        let (topics, probs) = self.row(edge);
        let mut acc = 0.0f32;
        for (&z, &p) in topics.iter().zip(probs) {
            acc += piece.as_slice()[z as usize] * p;
        }
        acc.clamp(0.0, 1.0)
    }

    /// Materializes the homogeneous influence graph `G_t` for one piece:
    /// a flat per-edge probability vector (the paper's Fig. 1b/1c).
    pub fn materialize(&self, piece: &TopicVector) -> Vec<f32> {
        (0..self.edge_count() as EdgeId)
            .map(|e| self.piece_prob(piece, e))
            .collect()
    }

    /// Validates the table covers exactly `graph`'s edges.
    pub fn check_against(&self, graph: &DiGraph) -> Result<()> {
        if self.edge_count() != graph.edge_count() {
            return Err(TopicError::EdgeCountMismatch {
                graph_edges: graph.edge_count(),
                table_rows: self.edge_count(),
            });
        }
        Ok(())
    }

    /// A content fingerprint over the topic count and every sparse row in
    /// edge-id order (probabilities hashed by bit pattern). Combined with
    /// [`oipa_graph::DiGraph::fingerprint`] it identifies the sampling
    /// inputs a persistent pool cache was built from.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = oipa_graph::hashing::FxHasher::default();
        h.write_u64(self.topic_count as u64);
        h.write_u64(self.offsets.len() as u64);
        for &off in &self.offsets {
            h.write_u32(off);
        }
        for (&z, &p) in self.topics.iter().zip(&self.probs) {
            h.write_u32(z as u32);
            h.write_u32(p.to_bits());
        }
        h.finish()
    }

    /// Mean of `p(e|z)` over all non-zero entries.
    pub fn mean_nonzero_prob(&self) -> f64 {
        if self.probs.is_empty() {
            0.0
        } else {
            self.probs.iter().map(|&p| p as f64).sum::<f64>() / self.probs.len() as f64
        }
    }

    /// Rebuilds the table for a delta-applied graph.
    ///
    /// Surviving edges keep their rows, re-indexed through
    /// [`DeltaApplication::remap`] (CSR edge ids shift under insertion and
    /// removal); reweighted edges take the delta's replacement rows;
    /// inserted edges take the delta's new rows. The result covers exactly
    /// `app.graph`'s edges, so `new_table.row(app.remap[e])` equals
    /// `self.row(e)` for every untouched edge — which is what keeps live
    /// RR walks bitwise-stable across a delta.
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        app: &DeltaApplication,
    ) -> Result<EdgeTopicProbs> {
        if app.remap.len() != self.edge_count() {
            return Err(TopicError::EdgeCountMismatch {
                graph_edges: app.remap.len(),
                table_rows: self.edge_count(),
            });
        }
        let validate = |probs: &[TopicProb]| -> Result<SparseTopicVector> {
            SparseTopicVector::new(
                probs.iter().map(|tp| (tp.topic, tp.prob)).collect(),
                self.topic_count,
            )
        };
        // Row provenance per new edge id: carried over from an old edge,
        // or a fresh row from the delta (insert/reweight).
        let mut carried: Vec<Option<EdgeId>> = vec![None; app.graph.edge_count()];
        for (old, new) in app.remap.iter().enumerate() {
            if let Some(new) = new {
                carried[*new as usize] = Some(old as EdgeId);
            }
        }
        let mut fresh: Vec<Option<SparseTopicVector>> = vec![None; app.graph.edge_count()];
        for (change, &old_id) in delta.reweight.iter().zip(&app.reweighted_ids) {
            let new_id = app.remap[old_id as usize].expect("reweighted edge survives the delta");
            fresh[new_id as usize] = Some(validate(&change.probs)?);
        }
        for (change, &new_id) in delta.insert.iter().zip(&app.inserted_ids) {
            fresh[new_id as usize] = Some(validate(&change.probs)?);
        }
        let mut offsets = Vec::with_capacity(app.graph.edge_count() + 1);
        offsets.push(0u32);
        let mut topics = Vec::with_capacity(self.nnz());
        let mut probs = Vec::with_capacity(self.nnz());
        for new_id in 0..app.graph.edge_count() {
            if let Some(row) = &fresh[new_id] {
                topics.extend_from_slice(&row.topics);
                probs.extend_from_slice(&row.probs);
            } else if let Some(old_id) = carried[new_id] {
                let (t, p) = self.row(old_id);
                topics.extend_from_slice(t);
                probs.extend_from_slice(p);
            }
            offsets.push(topics.len() as u32);
        }
        Ok(EdgeTopicProbs {
            topic_count: self.topic_count,
            offsets,
            topics,
            probs,
        })
    }

    /// Collapses the topic dimension into a single scalar probability per
    /// edge by averaging non-zero entries — the "plain IC graph" the
    /// paper's topic-oblivious `IM` baseline runs on.
    pub fn collapse_mean(&self) -> Vec<f32> {
        (0..self.edge_count())
            .map(|e| {
                let (topics, probs) = self.row(e as EdgeId);
                if topics.is_empty() {
                    0.0
                } else {
                    probs.iter().sum::<f32>() / topics.len() as f32
                }
            })
            .collect()
    }
}

/// Incremental builder for [`EdgeTopicProbs`].
#[derive(Debug, Clone)]
pub struct EdgeProbsBuilder {
    topic_count: usize,
    rows: Vec<SparseTopicVector>,
}

impl EdgeProbsBuilder {
    /// Creates a builder for `edge_count` edges over `topic_count` topics;
    /// rows default to empty (edge never transmits).
    pub fn new(edge_count: usize, topic_count: usize) -> Self {
        EdgeProbsBuilder {
            topic_count,
            rows: vec![SparseTopicVector::empty(); edge_count],
        }
    }

    /// Sets one edge's sparse row.
    pub fn set(&mut self, edge: EdgeId, row: SparseTopicVector) -> Result<&mut Self> {
        for &z in &row.topics {
            if z as usize >= self.topic_count {
                return Err(TopicError::TopicOutOfRange {
                    topic: z as usize,
                    topic_count: self.topic_count,
                });
            }
        }
        self.rows[edge as usize] = row;
        Ok(self)
    }

    /// Sets a single `(topic, prob)` entry, merging with existing entries.
    pub fn set_entry(&mut self, edge: EdgeId, topic: u16, prob: f32) -> Result<&mut Self> {
        let mut entries: Vec<(u16, f32)> = {
            let row = &self.rows[edge as usize];
            row.topics
                .iter()
                .copied()
                .zip(row.probs.iter().copied())
                .filter(|&(z, _)| z != topic)
                .collect()
        };
        entries.push((topic, prob));
        let row = SparseTopicVector::new(entries, self.topic_count)?;
        self.rows[edge as usize] = row;
        Ok(self)
    }

    /// Finalizes into CSR form.
    pub fn build(self) -> EdgeTopicProbs {
        let mut offsets = Vec::with_capacity(self.rows.len() + 1);
        offsets.push(0u32);
        let nnz: usize = self.rows.iter().map(|r| r.support()).sum();
        let mut topics = Vec::with_capacity(nnz);
        let mut probs = Vec::with_capacity(nnz);
        for row in self.rows {
            topics.extend_from_slice(&row.topics);
            probs.extend_from_slice(&row.probs);
            offsets.push(topics.len() as u32);
        }
        EdgeTopicProbs {
            topic_count: self.topic_count,
            offsets,
            topics,
            probs,
        }
    }
}

/// Random-synthesis parameters for [`synthesize_random`].
#[derive(Debug, Clone, Copy)]
pub struct SynthesisParams {
    /// Number of topics `|Z|`.
    pub topic_count: usize,
    /// Expected non-zero topics per edge (≥ 1 entries are drawn with this
    /// mean, truncated to `topic_count`).
    pub avg_support: f64,
    /// Upper bound on each probability entry; entries are drawn uniformly
    /// from `(0, max_prob]` and then divided by the target's in-degree
    /// (weighted-cascade style) when `weighted_cascade` is set.
    pub max_prob: f32,
    /// Whether to scale probabilities by `1/in_degree(target)` — the
    /// standard weighted-cascade convention of the IM literature.
    pub weighted_cascade: bool,
}

/// Synthesizes a random `p(e|z)` table for `graph`.
///
/// Per edge, a support size is drawn from a geometric-like distribution
/// with the requested mean, topic ids uniformly without replacement, and
/// probabilities per [`SynthesisParams`].
pub fn synthesize_random<R: Rng + ?Sized>(
    rng: &mut R,
    graph: &DiGraph,
    params: SynthesisParams,
) -> EdgeTopicProbs {
    assert!(params.topic_count > 0 && params.topic_count <= u16::MAX as usize);
    assert!(params.avg_support >= 1.0);
    assert!(params.max_prob > 0.0 && params.max_prob <= 1.0);
    let mut builder = EdgeProbsBuilder::new(graph.edge_count(), params.topic_count);
    let topic_pick = Uniform::new(0, params.topic_count as u16);
    // Support = 1 + Geometric(p) with mean avg_support.
    let extra_mean = params.avg_support - 1.0;
    let geo_p = 1.0 / (1.0 + extra_mean);
    for v in graph.nodes() {
        let in_deg = graph.in_degree(v).max(1) as f32;
        for e in graph.in_edges(v) {
            let mut support = 1usize;
            while support < params.topic_count && rng.gen_range(0.0..1.0) >= geo_p {
                support += 1;
            }
            let mut entries: Vec<(u16, f32)> = Vec::with_capacity(support);
            while entries.len() < support {
                let z = topic_pick.sample(rng);
                if entries.iter().any(|&(t, _)| t == z) {
                    continue;
                }
                let mut p = rng.gen_range(f32::EPSILON..=params.max_prob);
                if params.weighted_cascade {
                    p /= in_deg;
                }
                entries.push((z, p));
            }
            builder
                .set(
                    e.id,
                    SparseTopicVector::new(entries, params.topic_count).expect("valid"),
                )
                .expect("edge in range");
        }
    }
    builder.build()
}

/// Derives `p(e|z)` from per-user topic profiles: for edge `(u, v)`,
/// `p(e|z) ∝ base · u_z · v_z` truncated to the `top_k` strongest topics
/// and scaled by `1/in_degree(v)` — the construction the paper uses for
/// `dblp` (research fields as topics, co-author edges weighted by shared
/// fields) and `tweet` (LDA profiles).
pub fn from_user_profiles(
    graph: &DiGraph,
    profiles: &[TopicVector],
    base: f32,
    top_k: usize,
) -> Result<EdgeTopicProbs> {
    assert_eq!(
        profiles.len(),
        graph.node_count(),
        "one profile per node required"
    );
    let topic_count = if profiles.is_empty() {
        0
    } else {
        profiles[0].dim()
    };
    let mut builder = EdgeProbsBuilder::new(graph.edge_count(), topic_count.max(1));
    let mut scored: Vec<(u16, f32)> = Vec::new();
    for v in graph.nodes() {
        let in_deg = graph.in_degree(v).max(1) as f32;
        for e in graph.in_edges(v) {
            let pu = &profiles[e.source as usize];
            let pv = &profiles[v as usize];
            if pu.dim() != topic_count {
                return Err(TopicError::DimensionMismatch {
                    expected: topic_count,
                    actual: pu.dim(),
                });
            }
            scored.clear();
            for z in 0..topic_count {
                let w = pu.get(z) * pv.get(z);
                if w > 0.0 {
                    scored.push((z as u16, w));
                }
            }
            scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN weights"));
            scored.truncate(top_k);
            let entries: Vec<(u16, f32)> = scored
                .iter()
                .map(|&(z, w)| (z, (base * w / in_deg).clamp(0.0, 1.0)))
                .collect();
            builder.set(e.id, SparseTopicVector::new(entries, topic_count.max(1))?)?;
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_graph() -> DiGraph {
        DiGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let g = tiny_graph();
        let mut b = EdgeProbsBuilder::new(g.edge_count(), 4);
        b.set(0, SparseTopicVector::new(vec![(1, 0.5)], 4).unwrap())
            .unwrap();
        b.set_entry(1, 2, 0.25).unwrap();
        b.set_entry(1, 3, 0.75).unwrap();
        let t = b.build();
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.row(0), (&[1u16][..], &[0.5f32][..]));
        assert_eq!(t.row(1).0, &[2u16, 3]);
        assert_eq!(t.row(2).0, &[] as &[u16]);
        t.check_against(&g).unwrap();
    }

    #[test]
    fn set_entry_overwrites_topic() {
        let mut b = EdgeProbsBuilder::new(1, 4);
        b.set_entry(0, 2, 0.25).unwrap();
        b.set_entry(0, 2, 0.5).unwrap();
        let t = b.build();
        assert_eq!(t.row(0), (&[2u16][..], &[0.5f32][..]));
    }

    #[test]
    fn piece_prob_dot() {
        let mut b = EdgeProbsBuilder::new(1, 2);
        b.set(
            0,
            SparseTopicVector::new(vec![(0, 0.4), (1, 0.8)], 2).unwrap(),
        )
        .unwrap();
        let t = b.build();
        let piece = TopicVector::new(vec![0.5, 0.5]).unwrap();
        assert!((t.piece_prob(&piece, 0) - 0.6).abs() < 1e-6);
        let mat = t.materialize(&piece);
        assert_eq!(mat.len(), 1);
        assert!((mat[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn check_against_mismatch() {
        let g = tiny_graph();
        let t = EdgeProbsBuilder::new(2, 2).build();
        assert!(t.check_against(&g).is_err());
    }

    #[test]
    fn synthesis_respects_params() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 200, 2000);
        let t = synthesize_random(
            &mut rng,
            &g,
            SynthesisParams {
                topic_count: 50,
                avg_support: 1.5,
                max_prob: 1.0,
                weighted_cascade: true,
            },
        );
        assert_eq!(t.edge_count(), 2000);
        let support = t.avg_support();
        assert!(
            (1.2..=1.9).contains(&support),
            "avg support {support} far from 1.5"
        );
        // Weighted cascade keeps probabilities within [0, 1].
        for e in 0..t.edge_count() as EdgeId {
            for &p in t.row(e).1 {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn collapse_mean_sane() {
        let mut b = EdgeProbsBuilder::new(2, 3);
        b.set(
            0,
            SparseTopicVector::new(vec![(0, 0.2), (1, 0.4)], 3).unwrap(),
        )
        .unwrap();
        let t = b.build();
        let flat = t.collapse_mean();
        assert!((flat[0] - 0.3).abs() < 1e-6);
        assert_eq!(flat[1], 0.0);
    }

    #[test]
    fn user_profiles_shared_interest() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let profiles = vec![
            TopicVector::new(vec![1.0, 0.0]).unwrap(),
            TopicVector::new(vec![0.5, 0.5]).unwrap(),
        ];
        let t = from_user_profiles(&g, &profiles, 1.0, 2).unwrap();
        // Only topic 0 is shared: p = base * 1.0 * 0.5 / in_deg(1)=1.
        assert_eq!(t.row(0).0, &[0u16]);
        assert!((t.row(0).1[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn empty_table() {
        let t = EdgeProbsBuilder::new(0, 5).build();
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.avg_support(), 0.0);
        assert_eq!(t.mean_nonzero_prob(), 0.0);
    }

    #[test]
    fn apply_delta_tracks_remap_reweight_and_insert() {
        use oipa_graph::{EdgeChange, GraphDelta, TopicProb};
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let mut b = EdgeProbsBuilder::new(g.edge_count(), 3);
        for e in g.edges() {
            b.set_entry(e.id, (e.id % 3) as u16, 0.1 + 0.1 * e.id as f32)
                .unwrap();
        }
        let table = b.build();
        let delta = GraphDelta {
            insert: vec![EdgeChange {
                source: 3,
                target: 0,
                probs: vec![TopicProb {
                    topic: 2,
                    prob: 0.7,
                }],
            }],
            remove: vec![(0, 2)],
            reweight: vec![EdgeChange {
                source: 1,
                target: 3,
                probs: vec![TopicProb {
                    topic: 1,
                    prob: 0.55,
                }],
            }],
        };
        let app = g.apply_delta(&delta).unwrap();
        let new_table = table.apply_delta(&delta, &app).unwrap();
        assert!(new_table.check_against(&app.graph).is_ok());
        // Untouched edges keep their exact rows through the remap.
        for e in g.edges() {
            let touched = (e.source, e.target) == (0, 2) || (e.source, e.target) == (1, 3);
            if touched {
                continue;
            }
            let new_id = app.remap[e.id as usize].unwrap();
            assert_eq!(new_table.row(new_id), table.row(e.id));
        }
        // The reweighted row replaces the old one.
        let rw = app.remap[g.find_edge(1, 3).unwrap().id as usize].unwrap();
        assert_eq!(new_table.row(rw), (&[1u16][..], &[0.55f32][..]));
        // The inserted row lands at the inserted id.
        assert_eq!(
            new_table.row(app.inserted_ids[0]),
            (&[2u16][..], &[0.7f32][..])
        );
        // Bad rows are rejected.
        let bad = GraphDelta {
            reweight: vec![EdgeChange {
                source: 0,
                target: 1,
                probs: vec![TopicProb {
                    topic: 9,
                    prob: 0.5,
                }],
            }],
            ..GraphDelta::default()
        };
        let bad_app = g.apply_delta(&bad).unwrap();
        assert!(table.apply_delta(&bad, &bad_app).is_err());
    }
}
