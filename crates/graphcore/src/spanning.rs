//! Spanning forests and the "almost a tree" analysis behind Maximal PPO.
//!
//! The pre/postorder index requires its input to be a forest of rooted
//! trees: every node has at most one parent and there are no cycles. FliX's
//! *Maximal PPO* configuration (paper §4.3) removes a hopefully-small set of
//! edges until that holds, indexes the forest with PPO, and lets the query
//! evaluator chase the removed edges at run time. This module computes the
//! spanning forest and the edges that have to be removed.

use crate::digraph::{Digraph, NodeId};

/// Result of analysing how far a digraph is from being a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestCheck {
    /// True if the input already is a forest (no edge must be removed).
    pub is_forest: bool,
    /// Roots of the spanning forest (nodes without a kept parent).
    pub roots: Vec<NodeId>,
    /// `parent[u]` is the kept tree parent of `u`, or `u32::MAX` for roots.
    pub parent: Vec<NodeId>,
    /// Edges of the input graph that are *not* part of the spanning forest.
    /// Removing exactly these makes the graph a forest.
    pub removed_edges: Vec<(NodeId, NodeId)>,
}

impl ForestCheck {
    /// Fraction of edges that had to be removed (0.0 for a forest).
    pub fn removal_ratio(&self, total_edges: usize) -> f64 {
        if total_edges == 0 {
            0.0
        } else {
            self.removed_edges.len() as f64 / total_edges as f64
        }
    }
}

/// Computes a BFS spanning forest of `g`.
///
/// Roots are chosen as the in-degree-0 nodes first (natural document roots),
/// then any node still unvisited (cycle entry points), in ascending id order
/// so the result is deterministic. Every non-forest edge lands in
/// `removed_edges`.
pub fn spanning_forest(g: &Digraph) -> ForestCheck {
    let n = g.node_count();
    let mut parent = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    let mut roots = Vec::new();
    let mut queue = std::collections::VecDeque::new();

    let grow = |start: NodeId,
                visited: &mut Vec<bool>,
                parent: &mut Vec<NodeId>,
                queue: &mut std::collections::VecDeque<NodeId>| {
        visited[start as usize] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.successors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    parent[v as usize] = u;
                    queue.push_back(v);
                }
            }
        }
    };

    for u in 0..n as NodeId {
        if g.in_degree(u) == 0 && !visited[u as usize] {
            roots.push(u);
            grow(u, &mut visited, &mut parent, &mut queue);
        }
    }
    for u in 0..n as NodeId {
        if !visited[u as usize] {
            roots.push(u);
            grow(u, &mut visited, &mut parent, &mut queue);
        }
    }

    let mut removed = Vec::new();
    for (u, v) in g.edges() {
        if parent[v as usize] != u {
            removed.push((u, v));
        }
    }
    ForestCheck {
        is_forest: removed.is_empty(),
        roots,
        parent,
        removed_edges: removed,
    }
}

/// True if `g` is a forest of rooted trees: every node has in-degree at most
/// one and there is no cycle.
pub fn is_forest(g: &Digraph) -> bool {
    if g.nodes().any(|u| g.in_degree(u) > 1) {
        return false;
    }
    crate::topo::topological_order(g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proper_tree_is_forest() {
        let g = Digraph::from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert!(is_forest(&g));
        let check = spanning_forest(&g);
        assert!(check.is_forest);
        assert_eq!(check.roots, vec![0]);
        assert!(check.removed_edges.is_empty());
        assert_eq!(check.parent[3], 1);
    }

    #[test]
    fn diamond_needs_one_removal() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(!is_forest(&g));
        let check = spanning_forest(&g);
        assert!(!check.is_forest);
        assert_eq!(check.removed_edges.len(), 1);
        // node 3 keeps exactly one parent
        assert!(check.parent[3] == 1 || check.parent[3] == 2);
    }

    #[test]
    fn cycle_without_indegree_zero_gets_root() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let check = spanning_forest(&g);
        assert_eq!(check.roots, vec![0]);
        // the back edge 2 -> 0 must be removed
        assert_eq!(check.removed_edges, vec![(2, 0)]);
    }

    #[test]
    fn multiple_disjoint_trees() {
        let g = Digraph::from_edges(6, [(0, 1), (0, 2), (3, 4), (3, 5)]);
        let check = spanning_forest(&g);
        assert!(check.is_forest);
        assert_eq!(check.roots, vec![0, 3]);
    }

    #[test]
    fn removal_makes_it_a_forest() {
        // dense-ish graph; removing the reported edges must yield a forest
        let g = Digraph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 1),
                (0, 4),
                (4, 5),
                (2, 5),
                (5, 0),
            ],
        );
        let check = spanning_forest(&g);
        let kept: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|e| !check.removed_edges.contains(e))
            .collect();
        let pruned = Digraph::from_edges(6, kept);
        assert!(is_forest(&pruned));
        assert_eq!(
            pruned.edge_count() + check.removed_edges.len(),
            g.edge_count()
        );
    }

    #[test]
    fn removal_ratio() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let check = spanning_forest(&g);
        assert!((check.removal_ratio(g.edge_count()) - 0.25).abs() < 1e-9);
        assert_eq!(check.removal_ratio(0), 0.0);
    }

    #[test]
    fn isolated_nodes_are_their_own_roots() {
        let g = Digraph::from_edges(3, []);
        let check = spanning_forest(&g);
        assert!(check.is_forest);
        assert_eq!(check.roots, vec![0, 1, 2]);
    }
}
