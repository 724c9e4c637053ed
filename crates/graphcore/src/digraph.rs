//! Compact directed graph in compressed-sparse-row (CSR) form.
//!
//! Graphs are constructed through [`DigraphBuilder`] (cheap edge appends,
//! duplicate tolerance) and then frozen into a [`Digraph`] that stores both
//! forward and reverse adjacency as a [`Rows`] table each. All index
//! structures in the workspace operate on frozen graphs.

use crate::Rows;
use serde::{Deserialize, Serialize};

/// Dense node identifier. Nodes of a graph with `n` nodes are `0..n`.
pub type NodeId = u32;

/// Mutable adjacency-list graph used while loading or generating data.
#[derive(Debug, Clone, Default)]
pub struct DigraphBuilder {
    /// `edges[u]` holds the out-neighbours of `u` in insertion order.
    edges: Vec<Vec<NodeId>>,
}

impl DigraphBuilder {
    /// Creates a builder with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            edges: vec![Vec::new(); n],
        }
    }

    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently known to the builder.
    pub fn node_count(&self) -> usize {
        self.edges.len()
    }

    /// Ensures nodes `0..=id` exist.
    pub fn ensure_node(&mut self, id: NodeId) {
        if (id as usize) >= self.edges.len() {
            self.edges.resize(id as usize + 1, Vec::new());
        }
    }

    /// Adds the directed edge `u -> v`, growing the node set as needed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.ensure_node(u.max(v));
        self.edges[u as usize].push(v);
    }

    /// Freezes the builder into CSR form. Duplicate edges and self loops are
    /// removed; adjacency lists come out sorted, which makes neighbour scans
    /// cache-friendly and deterministic.
    pub fn build(mut self) -> Digraph {
        for (u, list) in (0..).zip(&mut self.edges) {
            list.sort_unstable();
            list.dedup();
            list.retain(|&v| v != u);
        }
        let fwd = Rows::from_rows(&self.edges);
        // Every edge keyed by its target, visited by source: each reverse
        // row ascends too.
        let edges = (0..).zip(&self.edges);
        let reversed = edges.flat_map(|(u, list)| list.iter().map(move |&v| (v, u)));
        let rev = Rows::grouped(self.edges.len(), fwd.entries.iter().copied(), reversed);
        Digraph { fwd, rev }
    }
}

/// Immutable CSR digraph with forward and reverse adjacency.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Digraph {
    /// Row `u`: the out-neighbours of `u`, ascending.
    fwd: Rows<NodeId>,
    /// Row `v`: the in-neighbours of `v`, ascending.
    rev: Rows<NodeId>,
}

impl Digraph {
    /// Builds a graph directly from an edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = DigraphBuilder::with_nodes(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.fwd.rows()
    }

    /// Number of (deduplicated) directed edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.entries.len()
    }

    /// Out-neighbours of `u`, sorted ascending.
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        self.fwd.row(u)
    }

    /// In-neighbours of `u`.
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        self.rev.row(u)
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.successors(u).len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.predecessors(u).len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Iterator over all edges as `(u, v)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// True if the directed edge `u -> v` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.successors(u).binary_search(&v).is_ok()
    }

    /// A graph with all edges reversed: the two tables swapped, each of
    /// whose rows ascends.
    pub fn reversed(&self) -> Digraph {
        Digraph {
            fwd: self.rev.clone(),
            rev: self.fwd.clone(),
        }
    }

    /// Extracts the node-induced subgraph on `keep`. Returns the subgraph and
    /// the mapping `local -> global` (index = local id).
    ///
    /// `keep` may be in any order; it is deduplicated internally. The
    /// global-to-local map spans `keep`'s smallest to largest node, not the
    /// graph: a subgraph costs its own span, however large the graph.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Digraph, Vec<NodeId>) {
        let mut locals = keep.to_vec();
        locals.sort_unstable();
        locals.dedup();
        let first = locals.first().copied().unwrap_or(0);
        let span = locals.last().map_or(0, |&last| (last - first) as usize + 1);
        let mut global_to_local = vec![u32::MAX; span];
        for (i, &g) in locals.iter().enumerate() {
            global_to_local[(g - first) as usize] = i as u32;
        }
        let mut b = DigraphBuilder::with_nodes(locals.len());
        for (i, &g) in locals.iter().enumerate() {
            for &v in self.successors(g) {
                let local = v
                    .checked_sub(first)
                    .and_then(|at| global_to_local.get(at as usize));
                if let Some(&lv) = local.filter(|&&lv| lv != u32::MAX) {
                    b.add_edge(i as NodeId, lv);
                }
            }
        }
        (b.build(), locals)
    }

    /// Approximate in-memory footprint in bytes (CSR arrays only).
    pub fn size_bytes(&self) -> usize {
        let table = |rows: &Rows<NodeId>| 4 * (rows.offsets.len() + rows.entries.len());
        table(&self.fwd) + table(&self.rev)
    }

    /// The first way the two tables are laid out so that an adjacency
    /// lookup would slice or index out of bounds, if they are
    /// ([`Rows::fault`]): both `n` rows of neighbours below `n`. A built
    /// graph never has one; a decoded image can, so whoever decodes one
    /// checks before the first lookup. One pass over each array.
    pub fn layout_fault(&self) -> Option<String> {
        let n = self.node_count();
        [("forward", &self.fwd), ("reverse", &self.rev)]
            .into_iter()
            .find_map(|(name, rows)| Some(format!("{name} adjacency: {}", rows.fault(n, n)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Digraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn csr_basic_shape() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.successors(0), &[1, 2]);
        assert_eq!(g.successors(3), &[] as &[NodeId]);
        assert_eq!(g.predecessors(3), &[1, 2]);
        assert_eq!(g.predecessors(0), &[] as &[NodeId]);
    }

    #[test]
    fn duplicate_edges_and_self_loops_removed() {
        let g = Digraph::from_edges(3, [(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[2]);
    }

    #[test]
    fn has_edge_uses_sorted_lists() {
        let g = diamond();
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(2, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn reversed_graph_swaps_directions() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.successors(3), &[1, 2]);
        assert_eq!(r.predecessors(1), &[3]);
        assert!(r.has_edge(1, 0));
        // double reversal is identity
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn degrees_and_edge_iter() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.node_count(), 3);
        // edges inside {0,1,3}: 0->1 and 1->3, remapped to 0->1, 1->2
        assert_eq!(sub.successors(0), &[1]);
        assert_eq!(sub.successors(1), &[2]);
        assert_eq!(sub.successors(2), &[] as &[NodeId]);
    }

    #[test]
    fn induced_subgraph_drops_edges_leaving_the_span() {
        let g = diamond();
        // 0 -> 1 enters from below the span, 1 -> 3 and 2 -> 3 leave above it
        let (sub, map) = g.induced_subgraph(&[2, 1, 2]);
        assert_eq!(map, vec![1, 2]);
        assert_eq!(sub.edge_count(), 0);
        let (sub, map) = g.induced_subgraph(&[]);
        assert!(map.is_empty() && sub.node_count() == 0);
    }

    #[test]
    fn builder_grows_on_demand() {
        let mut b = DigraphBuilder::new();
        b.add_edge(5, 2);
        assert_eq!(b.node_count(), 6);
        let g = b.build();
        assert_eq!(g.node_count(), 6);
        assert!(g.has_edge(5, 2));
    }

    #[test]
    fn layout_faults_are_named() {
        assert_eq!(diamond().layout_fault(), None);
        assert_eq!(DigraphBuilder::new().build().layout_fault(), None);
        type Damage = (fn(&mut Digraph), &'static str);
        let damage: [Damage; 2] = [
            (
                |g| g.fwd.entries[0] = 4,
                "forward adjacency: entry 0 names node 4 of 4",
            ),
            (
                |g| g.rev.offsets.truncate(4),
                "reverse adjacency: 4 offsets for 4 rows",
            ),
        ];
        for (damage, fault) in damage {
            let mut bad = diamond();
            damage(&mut bad);
            assert_eq!(bad.layout_fault().as_deref(), Some(fault));
        }
    }

    #[test]
    fn empty_graph() {
        let g = DigraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
