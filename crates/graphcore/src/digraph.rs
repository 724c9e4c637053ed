//! Compact directed graph in compressed-sparse-row (CSR) form.
//!
//! Graphs are constructed through [`DigraphBuilder`] (cheap edge appends,
//! duplicate tolerance) and then frozen into a [`Digraph`] that stores both
//! forward and reverse adjacency as two flat arrays each. All index
//! structures in the workspace operate on frozen graphs.

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
        let n = self.edges.len();
        let mut edge_count = 0usize;
        for list in &mut self.edges {
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        let mut fwd_off = Vec::with_capacity(n + 1);
        let mut fwd = Vec::with_capacity(edge_count);
        fwd_off.push(0u32);
        for (u, list) in self.edges.iter().enumerate() {
            for &v in list {
                if v as usize != u {
                    fwd.push(v);
                }
            }
            fwd_off.push(fwd.len() as u32);
        }
        // Reverse adjacency via counting sort over target ids.
        let mut indeg = vec![0u32; n];
        for &v in &fwd {
            indeg[v as usize] += 1;
        }
        let mut rev_off = Vec::with_capacity(n + 1);
        rev_off.push(0u32);
        for &d in &indeg {
            let prev = rev_off.last().copied().unwrap_or(0);
            rev_off.push(prev + d);
        }
        let mut rev = vec![0 as NodeId; fwd.len()];
        let mut cursor: Vec<u32> = rev_off[..n].to_vec();
        for u in 0..n {
            let (s, e) = (fwd_off[u] as usize, fwd_off[u + 1] as usize);
            for &v in &fwd[s..e] {
                rev[cursor[v as usize] as usize] = u as NodeId;
                cursor[v as usize] += 1;
            }
        }
        Digraph {
            fwd_off,
            fwd,
            rev_off,
            rev,
        }
    }
}

/// Immutable CSR digraph with forward and reverse adjacency.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct Digraph {
    #[serde(with = "crate::flat")]
    fwd_off: Vec<u32>,
    #[serde(with = "crate::flat")]
    fwd: Vec<NodeId>,
    #[serde(with = "crate::flat")]
    rev_off: Vec<u32>,
    #[serde(with = "crate::flat")]
    rev: Vec<NodeId>,
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
        self.fwd_off.len() - 1
    }

    /// Number of (deduplicated) directed edges.
    pub fn edge_count(&self) -> usize {
        self.fwd.len()
    }

    /// Out-neighbours of `u`, sorted ascending.
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        let (s, e) = (self.fwd_off[u as usize], self.fwd_off[u as usize + 1]);
        &self.fwd[s as usize..e as usize]
    }

    /// In-neighbours of `u`.
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        let (s, e) = (self.rev_off[u as usize], self.rev_off[u as usize + 1]);
        &self.rev[s as usize..e as usize]
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

    /// A graph with all edges reversed. The reverse CSR arrays are reused.
    pub fn reversed(&self) -> Digraph {
        // Reversed graph: swap forward/reverse arrays, but reverse adjacency
        // lists are grouped by target already, and within a group ordered by
        // source ascending (counting-sort order), so they are valid sorted
        // CSR lists.
        Digraph {
            fwd_off: self.rev_off.clone(),
            fwd: self.rev.clone(),
            rev_off: self.fwd_off.clone(),
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
        4 * (self.fwd_off.len() + self.fwd.len() + self.rev_off.len() + self.rev.len())
    }

    /// The first way the CSR arrays are laid out so that an adjacency
    /// lookup would slice or index out of bounds, if they are: both offset
    /// arrays `n + 1` long, non-decreasing from 0 up to the edge count,
    /// and every neighbour below `n`. A built graph never has one; a
    /// decoded image can, so whoever decodes one checks before the first
    /// lookup. One pass over each array.
    pub fn layout_fault(&self) -> Option<String> {
        let rows = self.fwd_off.len();
        let halves = [
            ("forward", &self.fwd_off, &self.fwd),
            ("reverse", &self.rev_off, &self.rev),
        ];
        halves.into_iter().find_map(|(name, off, targets)| {
            let bounded = off.first() == Some(&0) && off.last() == Some(&(targets.len() as u32));
            if off.len() != rows || !bounded || off.windows(2).any(|w| w[0] > w[1]) {
                let edges = targets.len();
                return Some(format!(
                    "{name} offsets are not {rows} non-decreasing bounds from 0 to {edges}"
                ));
            }
            let n = rows - 1;
            let v = targets.iter().find(|&&v| v as usize >= n)?;
            Some(format!("a {name} edge names node {v} of {n}"))
        })
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
        let damage: [Damage; 6] = [
            (|g| g.fwd_off.clear(), "forward offsets"),
            (|g| g.fwd_off[0] = 1, "forward offsets"),
            (|g| g.fwd_off.swap(1, 2), "forward offsets"),
            (|g| g.rev_off.truncate(4), "reverse offsets"),
            (|g| g.fwd[0] = 4, "forward edge names node 4 of 4"),
            (|g| g.rev[3] = 9, "reverse edge names node 9"),
        ];
        for (damage, fault) in damage {
            let mut bad = diamond();
            damage(&mut bad);
            let found = bad.layout_fault().unwrap_or_default();
            assert!(found.contains(fault), "{fault}: {found}");
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
