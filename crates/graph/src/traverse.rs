//! Traversals: BFS scratch space and forward/backward closure.
//!
//! [`BfsScratch`] is the visited set of every RR-set walk in the sampler;
//! the closure functions are the reachability oracle its tests check RR
//! sets against.

use crate::csr::{DiGraph, NodeId};

/// Reusable BFS scratch space with O(1) reset via visit stamps.
///
/// RR-set sampling performs millions of tiny BFS runs; clearing a `visited`
/// bitmap each time would dominate. Instead each run bumps a stamp and
/// marks nodes with it, so reset is a single increment.
#[derive(Debug, Clone)]
pub struct BfsScratch {
    stamp: u32,
    marks: Vec<u32>,
}

impl BfsScratch {
    /// Creates scratch space for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            stamp: 0,
            marks: vec![0; n],
        }
    }

    /// Begins a new traversal epoch; all nodes become unvisited.
    #[inline]
    pub fn begin(&mut self) {
        self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
            // Stamp overflow after 2^32 epochs: do a full reset once.
            self.marks.iter_mut().for_each(|m| *m = 0);
            1
        });
    }

    /// Marks `v` visited in the current epoch; returns `true` if newly marked.
    #[inline]
    pub fn mark(&mut self, v: NodeId) -> bool {
        let slot = &mut self.marks[v as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }

    /// Whether `v` has been visited in the current epoch.
    #[inline]
    pub fn is_marked(&self, v: NodeId) -> bool {
        self.marks[v as usize] == self.stamp
    }
}

/// Nodes reachable from `source` following out-edges (including `source`).
pub fn forward_reachable(graph: &DiGraph, source: NodeId) -> Vec<NodeId> {
    bfs(graph, source, Direction::Forward)
}

/// Nodes that can reach `target` following out-edges, i.e. the backward
/// closure (including `target`).
pub fn backward_reachable(graph: &DiGraph, target: NodeId) -> Vec<NodeId> {
    bfs(graph, target, Direction::Backward)
}

enum Direction {
    Forward,
    Backward,
}

fn bfs(graph: &DiGraph, start: NodeId, dir: Direction) -> Vec<NodeId> {
    assert!((start as usize) < graph.node_count(), "start out of range");
    let mut visited = vec![false; graph.node_count()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    visited[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let neighbors: &[NodeId] = match dir {
            Direction::Forward => graph.out_neighbors(u),
            Direction::Backward => graph.in_neighbors(u),
        };
        for &v in neighbors {
            if !visited[v as usize] {
                visited[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn forward_closure() {
        let g = chain();
        assert_eq!(forward_reachable(&g, 1), vec![1, 2, 3]);
        assert_eq!(forward_reachable(&g, 3), vec![3]);
    }

    #[test]
    fn backward_closure() {
        let g = chain();
        assert_eq!(backward_reachable(&g, 2), vec![2, 1, 0]);
        assert_eq!(backward_reachable(&g, 0), vec![0]);
    }

    #[test]
    fn scratch_stamps() {
        let mut s = BfsScratch::new(3);
        s.begin();
        assert!(s.mark(0));
        assert!(!s.mark(0));
        assert!(s.is_marked(0));
        assert!(!s.is_marked(1));
        s.begin();
        assert!(!s.is_marked(0));
        assert!(s.mark(0));
    }

    #[test]
    fn direction_matters_on_cycle_tail() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        assert_eq!(forward_reachable(&g, 0).len(), 3);
        assert_eq!(backward_reachable(&g, 0).len(), 2); // 0 and 1, not 2
    }
}
