//! Breadth-first and shortest-path traversals over [`Digraph`]s.
//!
//! Distances in the FliX data model are unweighted hop counts, so BFS is the
//! workhorse.

use crate::digraph::{Digraph, NodeId};

/// Hop-count distance type used across the workspace.
pub type Distance = u32;

/// Sentinel for "unreachable".
pub const INFINITE_DISTANCE: Distance = u32::MAX;

/// Which way along the edges a lookup reaches: every index answers both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Forward reachability (`a//B`).
    Descendants,
    /// Backward reachability: elements from which the start is reachable.
    Ancestors,
}

impl Axis {
    /// The other way along the edges.
    pub fn reversed(self) -> Axis {
        match self {
            Axis::Descendants => Axis::Ancestors,
            Axis::Ancestors => Axis::Descendants,
        }
    }
}

/// Returns all nodes reachable from `start` (including `start`) in BFS order.
pub fn bfs_from(g: &Digraph, start: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.successors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    order
}

/// Unit-weight single-source shortest distances. Unreachable nodes get
/// [`INFINITE_DISTANCE`].
pub fn bfs_distances(g: &Digraph, start: NodeId) -> Vec<Distance> {
    let mut dist = vec![INFINITE_DISTANCE; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.successors(u) {
            if dist[v as usize] == INFINITE_DISTANCE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// True if `target` is reachable from `start` (plain BFS; the slow baseline
/// that every index in this workspace is measured against).
pub fn is_reachable(g: &Digraph, start: NodeId, target: NodeId) -> bool {
    if start == target {
        return true;
    }
    let mut seen = vec![false; g.node_count()];
    let mut queue = std::collections::VecDeque::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for &v in g.successors(u) {
            if v == target {
                return true;
            }
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_shortcut() -> Digraph {
        // 0 -> 1 -> 2 -> 3 -> 4 and shortcut 0 -> 3
        Digraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)])
    }

    #[test]
    fn bfs_order_and_reach() {
        let g = chain_with_shortcut();
        let order = bfs_from(&g, 0);
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
        let from2 = bfs_from(&g, 2);
        assert_eq!(from2, vec![2, 3, 4]);
    }

    #[test]
    fn bfs_distances_take_shortcut() {
        let g = chain_with_shortcut();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 1, 2]);
        let d4 = bfs_distances(&g, 4);
        assert_eq!(d4[0], INFINITE_DISTANCE);
        assert_eq!(d4[4], 0);
    }

    #[test]
    fn reachability_and_self() {
        let g = chain_with_shortcut();
        assert!(is_reachable(&g, 0, 4));
        assert!(!is_reachable(&g, 4, 0));
        assert!(is_reachable(&g, 2, 2));
    }
}
