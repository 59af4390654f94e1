//! Compressed-sparse-row directed graph with a built-in transpose.
//!
//! The OIPA algorithms need two traversal directions:
//!
//! * forward (out-edges) for Monte-Carlo cascade simulation, and
//! * backward (in-edges) for reverse-reachable (RR) set sampling, where each
//!   in-edge must be kept with its *topic-dependent* probability — hence the
//!   transpose stores the original [`EdgeId`] of every in-edge so edge
//!   attribute tables indexed by edge id work in both directions.

/// Dense node identifier (`0..n`).
pub type NodeId = u32;
/// Dense edge identifier (`0..m`) in CSR (source-sorted) order.
pub type EdgeId = u32;

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Edge id in CSR order.
    pub id: EdgeId,
    /// Source node.
    pub source: NodeId,
    /// Target node.
    pub target: NodeId,
}

/// An immutable directed graph in CSR form.
///
/// Construction goes through [`crate::GraphBuilder`] (or the generators /
/// IO helpers, which use the builder internally). The structure keeps both
/// the out-adjacency and the in-adjacency (transpose); the transpose rows
/// carry `(source, edge_id)` pairs so per-edge attributes stored in flat
/// `Vec`s indexed by [`EdgeId`] are usable during reverse traversal.
///
/// ```
/// use oipa_graph::DiGraph;
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_degree(2), 2);
/// // Reverse traversal recovers original edge ids for attribute lookup.
/// let in_edge = g.in_edges(2).next().unwrap();
/// assert_eq!(g.edge_endpoints(in_edge.id), Some((in_edge.source, 2)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiGraph {
    n: u32,
    // Out CSR: edge ids are implicit (row-major position).
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    // In CSR (transpose).
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_edge_ids: Vec<EdgeId>,
}

impl DiGraph {
    /// Builds a graph from a node count and an edge list.
    ///
    /// Edges may be in any order and may contain duplicates (kept verbatim);
    /// use [`crate::GraphBuilder`] for deduplication. Edge ids are assigned
    /// in source-sorted order, stable under permutation of the input.
    pub fn from_edges(n: u32, edges: &[(NodeId, NodeId)]) -> crate::Result<Self> {
        if edges.len() > u32::MAX as usize {
            return Err(crate::GraphError::TooLarge { what: "edge count" });
        }
        for &(u, v) in edges {
            if u >= n || v >= n {
                return Err(crate::GraphError::NodeOutOfRange {
                    node: u.max(v) as u64,
                    node_count: n as u64,
                });
            }
        }
        let m = edges.len();
        // Counting sort by source to build the out-CSR.
        let mut out_offsets = vec![0u32; n as usize + 1];
        for &(u, _) in edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as NodeId; m];
        {
            let mut cursor = out_offsets.clone();
            // Within a source node, preserve input order for determinism, and
            // then sort each row by target for binary-searchable adjacency.
            for &(u, v) in edges {
                let slot = cursor[u as usize] as usize;
                out_targets[slot] = v;
                cursor[u as usize] += 1;
            }
        }
        for u in 0..n as usize {
            let (lo, hi) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            out_targets[lo..hi].sort_unstable();
        }
        // Transpose with edge ids.
        let mut in_offsets = vec![0u32; n as usize + 1];
        for &v in &out_targets {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_edge_ids = vec![0 as EdgeId; m];
        {
            let mut cursor = in_offsets.clone();
            for u in 0..n {
                let (lo, hi) = (out_offsets[u as usize], out_offsets[u as usize + 1]);
                for eid in lo..hi {
                    let v = out_targets[eid as usize];
                    let slot = cursor[v as usize] as usize;
                    in_sources[slot] = u;
                    in_edge_ids[slot] = eid;
                    cursor[v as usize] += 1;
                }
            }
        }
        Ok(DiGraph {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_edge_ids,
        })
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        0..self.n
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        debug_assert!(u < self.n);
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        debug_assert!(v < self.n);
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Out-neighbors of `u`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let (lo, hi) = (
            self.out_offsets[u as usize] as usize,
            self.out_offsets[u as usize + 1] as usize,
        );
        &self.out_targets[lo..hi]
    }

    /// Out-edges of `u` with their edge ids.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        let lo = self.out_offsets[u as usize];
        let hi = self.out_offsets[u as usize + 1];
        (lo..hi).map(move |eid| EdgeRef {
            id: eid,
            source: u,
            target: self.out_targets[eid as usize],
        })
    }

    /// In-edges of `v`: `(source, original edge id)` pairs.
    ///
    /// This is the hot loop of RR-set sampling: the edge id indexes into
    /// per-edge probability tables kept by the topic layer.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        (lo..hi).map(move |slot| EdgeRef {
            id: self.in_edge_ids[slot],
            source: self.in_sources[slot],
            target: v,
        })
    }

    /// In-neighbor slice of `v` (sources only).
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let (lo, hi) = (
            self.in_offsets[v as usize] as usize,
            self.in_offsets[v as usize + 1] as usize,
        );
        &self.in_sources[lo..hi]
    }

    /// Looks up the edge `u -> v`, returning its [`EdgeRef`] if present.
    ///
    /// O(log out_degree(u)) via binary search on the sorted adjacency row.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeRef> {
        if u >= self.n || v >= self.n {
            return None;
        }
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        let row = &self.out_targets[lo..hi];
        row.binary_search(&v).ok().map(|pos| EdgeRef {
            id: (lo + pos) as EdgeId,
            source: u,
            target: v,
        })
    }

    /// Returns `(source, target)` for an edge id.
    ///
    /// O(log n) — the source is recovered by binary search on the offset
    /// array. Prefer carrying [`EdgeRef`]s where possible.
    pub fn edge_endpoints(&self, eid: EdgeId) -> Option<(NodeId, NodeId)> {
        if eid as usize >= self.out_targets.len() {
            return None;
        }
        let target = self.out_targets[eid as usize];
        // partition_point gives the first offset > eid; the source row is one before.
        let source = self.out_offsets.partition_point(|&off| off <= eid) as NodeId - 1;
        Some((source, target))
    }

    /// Iterates over all edges in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        (0..self.n).flat_map(move |u| self.out_edges(u))
    }

    /// Returns a new graph with every edge reversed.
    ///
    /// Note: edge ids are re-assigned in the reversed graph's own CSR order;
    /// this is a structural reversal, not a view.
    pub fn reversed(&self) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = self.edges().map(|e| (e.target, e.source)).collect();
        DiGraph::from_edges(self.n, &edges).expect("reversal preserves validity")
    }

    /// A content fingerprint over the node count and every edge in edge-id
    /// order. Two graphs fingerprint equal iff they have identical CSR
    /// topology, so persistent caches (the pool store) can detect that a
    /// directory of pools was sampled from a different graph.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = crate::hashing::FxHasher::default();
        h.write_u32(self.n);
        h.write_u64(self.out_targets.len() as u64);
        for e in self.edges() {
            h.write_u32(e.source);
            h.write_u32(e.target);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn out_adjacency_sorted() {
        let g = DiGraph::from_edges(3, &[(0, 2), (0, 1)]).unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn transpose_edge_ids_roundtrip() {
        let g = diamond();
        for v in g.nodes() {
            for e in g.in_edges(v) {
                let (s, t) = g.edge_endpoints(e.id).unwrap();
                assert_eq!((s, t), (e.source, v));
            }
        }
    }

    #[test]
    fn find_edge_present_and_absent() {
        let g = diamond();
        let e = g.find_edge(0, 2).unwrap();
        assert_eq!((e.source, e.target), (0, 2));
        assert!(g.find_edge(3, 0).is_none());
        assert!(g.find_edge(0, 99).is_none());
    }

    #[test]
    fn edge_endpoints_all() {
        let g = diamond();
        let collected: Vec<_> = g.edges().map(|e| (e.source, e.target)).collect();
        for (i, &(s, t)) in collected.iter().enumerate() {
            assert_eq!(g.edge_endpoints(i as EdgeId), Some((s, t)));
        }
        assert_eq!(g.edge_endpoints(collected.len() as EdgeId), None);
    }

    #[test]
    fn reversed_swaps_direction() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.out_neighbors(3), &[1, 2]);
        assert_eq!(r.in_degree(0), 2);
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(DiGraph::from_edges(2, &[(0, 2)]).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn parallel_edges_kept() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.in_degree(1), 2);
    }

    #[test]
    fn edge_ids_stable_under_input_permutation() {
        let a = DiGraph::from_edges(4, &[(0, 1), (2, 3), (0, 2)]).unwrap();
        let b = DiGraph::from_edges(4, &[(2, 3), (0, 2), (0, 1)]).unwrap();
        assert_eq!(a, b);
    }
}
