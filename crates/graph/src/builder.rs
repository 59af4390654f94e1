//! Incremental graph construction with configurable edge deduplication.

use crate::csr::{DiGraph, NodeId};
use crate::hashing::FxHashSet;

/// How [`GraphBuilder`] treats duplicate and self-loop edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupPolicy {
    /// Keep everything verbatim (parallel edges and self-loops allowed).
    KeepAll,
    /// Drop exact duplicate `(u, v)` pairs; self-loops allowed.
    #[default]
    DropDuplicates,
    /// Drop duplicates and self-loops — the setting used for all the
    /// paper-style social graphs, where an edge is a follow/friend relation.
    Simple,
}

/// Incremental builder producing a [`DiGraph`].
///
/// The builder grows the node set automatically: adding edge `(u, v)`
/// extends the graph to `max(u, v) + 1` nodes. Isolated trailing nodes can
/// be declared with [`GraphBuilder::ensure_nodes`].
///
/// ```
/// use oipa_graph::{DedupPolicy, GraphBuilder};
///
/// let mut b = GraphBuilder::with_policy(DedupPolicy::Simple);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate: dropped
/// b.add_edge(1, 2);
/// let g = b.build().unwrap();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(NodeId, NodeId)>,
    policy: DedupPolicy,
    seen: FxHashSet<u64>,
    dropped: usize,
}

impl GraphBuilder {
    /// Creates a builder with the default [`DedupPolicy::DropDuplicates`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with an explicit dedup policy.
    pub fn with_policy(policy: DedupPolicy) -> Self {
        GraphBuilder {
            policy,
            ..Self::default()
        }
    }

    /// Pre-allocates room for `edges` edges.
    pub fn with_capacity(policy: DedupPolicy, edges: usize) -> Self {
        let mut b = Self::with_policy(policy);
        b.edges.reserve(edges);
        if policy != DedupPolicy::KeepAll {
            b.seen.reserve(edges);
        }
        b
    }

    /// Ensures the graph has at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: u32) -> &mut Self {
        self.n = self.n.max(n);
        self
    }

    /// Adds one directed edge, subject to the dedup policy.
    ///
    /// Returns `true` if the edge was kept.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.policy == DedupPolicy::Simple && u == v {
            self.dropped += 1;
            return false;
        }
        if self.policy != DedupPolicy::KeepAll {
            let key = ((u as u64) << 32) | v as u64;
            if !self.seen.insert(key) {
                self.dropped += 1;
                return false;
            }
        }
        self.n = self.n.max(u.max(v).saturating_add(1));
        self.edges.push((u, v));
        true
    }

    /// Number of edges currently kept.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of edges dropped by the dedup policy so far.
    pub fn dropped_count(&self) -> usize {
        self.dropped
    }

    /// Current node count.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Finalizes into a CSR [`DiGraph`].
    pub fn build(self) -> crate::Result<DiGraph> {
        DiGraph::from_edges(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_node_set() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 7);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn drop_duplicates() {
        let mut b = GraphBuilder::new();
        assert!(b.add_edge(0, 1));
        assert!(!b.add_edge(0, 1));
        assert!(b.add_edge(1, 0));
        assert_eq!(b.dropped_count(), 1);
        assert_eq!(b.build().unwrap().edge_count(), 2);
    }

    #[test]
    fn simple_rejects_self_loops() {
        let mut b = GraphBuilder::with_policy(DedupPolicy::Simple);
        assert!(!b.add_edge(2, 2));
        assert!(b.add_edge(2, 3));
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn keep_all_keeps_everything() {
        let mut b = GraphBuilder::with_policy(DedupPolicy::KeepAll);
        b.add_edge(0, 0);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        assert_eq!(b.build().unwrap().edge_count(), 3);
    }

    #[test]
    fn ensure_nodes_adds_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(10);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.out_degree(9), 0);
    }
}
