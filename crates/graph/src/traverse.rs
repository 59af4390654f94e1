//! Traversals: forward/backward closure, the reachability oracle the
//! sampler's tests check RR sets against.

use crate::csr::{DiGraph, NodeId};

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
    fn direction_matters_on_cycle_tail() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]).unwrap();
        assert_eq!(forward_reachable(&g, 0).len(), 3);
        assert_eq!(backward_reachable(&g, 0).len(), 2); // 0 and 1, not 2
    }
}
