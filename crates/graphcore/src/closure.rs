//! Exact transitive closure and all-pairs distances.
//!
//! These are the ground-truth oracles: tests compare every index against
//! them, Table 1 uses the closure size as the yardstick the paper mentions
//! ("more than an order of magnitude smaller than the transitive closure"),
//! and the §6 error-rate experiment checks the PEE's result order against
//! [`DistanceOracle`] distances.

use crate::bitset::BitSet;
use crate::digraph::{Digraph, NodeId};
use crate::traversal::{bfs_distances, Distance, INFINITE_DISTANCE};
use serde::{Deserialize, Serialize};

/// Full reachability matrix, one bitset row per node.
///
/// Reachability here is *proper* descendants-or-self: `reaches(u, u)` is
/// always true, matching XPath's `descendant-or-self` axis used throughout
/// the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitiveClosure {
    rows: Vec<BitSet>,
}

impl TransitiveClosure {
    /// Computes the closure by propagating successor sets over the
    /// condensation in ascending component id — successors first, since
    /// every condensation edge runs to a smaller id (cycle-safe).
    pub fn build(g: &Digraph) -> Self {
        let n = g.node_count();
        let cond = crate::scc::condensation(g);
        let c = cond.component_count();
        // Closure on the component DAG first.
        let mut comp_rows: Vec<BitSet> = (0..c).map(|_| BitSet::new(c)).collect();
        for u in 0..c {
            let (settled, rest) = comp_rows.split_at_mut(u);
            let row = &mut rest[0];
            row.insert(u);
            for &v in cond.dag.successors(u as NodeId) {
                row.union_with(&settled[v as usize]);
            }
        }
        // Expand to node granularity.
        let mut rows: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for (u, row) in rows.iter_mut().enumerate() {
            let cu = cond.comp_of[u] as usize;
            for cv in comp_rows[cu].iter() {
                for &v in &cond.members[cv] {
                    row.insert(v as usize);
                }
            }
        }
        Self { rows }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// The first row that fails to be a set over the closure's nodes
    /// ([`BitSet::layout_fault`]), if one does.
    pub fn layout_fault(&self) -> Option<String> {
        let n = self.rows.len();
        (self.rows.iter().enumerate())
            .find_map(|(u, row)| Some(format!("row {u} is {}", row.layout_fault(n)?)))
    }

    /// True if `v` is reachable from `u` (including `u == v`).
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.rows[u as usize].contains(v as usize)
    }

    /// All nodes reachable from `u`, ascending.
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        self.rows[u as usize].iter().map(|i| i as NodeId).collect()
    }

    /// Total number of (u, v) pairs in the closure, the size HOPI is
    /// compared against in the paper.
    pub fn pair_count(&self) -> usize {
        self.rows.iter().map(BitSet::len).sum()
    }
}

/// All-pairs shortest distances, computed lazily per source node.
///
/// The error-rate experiment needs exact distances from a handful of start
/// elements, so we run one BFS per queried source and memoise the rows.
#[derive(Debug)]
pub struct DistanceOracle<'g> {
    graph: &'g Digraph,
    rows: std::cell::RefCell<std::collections::HashMap<NodeId, std::rc::Rc<Vec<Distance>>>>,
}

impl<'g> DistanceOracle<'g> {
    /// Creates an oracle over `g`.
    pub fn new(g: &'g Digraph) -> Self {
        Self {
            graph: g,
            rows: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }

    /// Distance row from `u` (memoised BFS).
    pub fn distances_from(&self, u: NodeId) -> std::rc::Rc<Vec<Distance>> {
        let mut rows = self.rows.borrow_mut();
        rows.entry(u)
            .or_insert_with(|| std::rc::Rc::new(bfs_distances(self.graph, u)))
            .clone()
    }

    /// Hop distance from `u` to `v`, or [`INFINITE_DISTANCE`].
    pub fn distance(&self, u: NodeId, v: NodeId) -> Distance {
        self.distances_from(u)[v as usize]
    }

    /// True if `v` is reachable from `u`.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.distance(u, v) != INFINITE_DISTANCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_reachable;

    fn sample() -> Digraph {
        // 0 -> 1 -> 2 -> 0 (cycle), 2 -> 3 -> 4, isolated 5
        Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    }

    #[test]
    fn closure_matches_bfs_reachability() {
        let g = sample();
        let tc = TransitiveClosure::build(&g);
        for u in 0..6u32 {
            for v in 0..6u32 {
                assert_eq!(tc.reaches(u, v), is_reachable(&g, u, v), "pair {u},{v}");
            }
        }
    }

    #[test]
    fn closure_is_reflexive() {
        let g = sample();
        let tc = TransitiveClosure::build(&g);
        for u in 0..6u32 {
            assert!(tc.reaches(u, u));
        }
    }

    #[test]
    fn descendants_sorted_and_complete() {
        let g = sample();
        let tc = TransitiveClosure::build(&g);
        assert_eq!(tc.descendants(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(tc.descendants(4), vec![4]);
        assert_eq!(tc.descendants(5), vec![5]);
    }

    #[test]
    fn layout_fault_names_a_short_row() {
        let mut tc = TransitiveClosure::build(&sample());
        assert_eq!(tc.layout_fault(), None);
        tc.rows[1] = BitSet::new(2);
        assert!(tc.layout_fault().unwrap().starts_with("row 1 is"));
    }

    #[test]
    fn pair_count() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let tc = TransitiveClosure::build(&g);
        // rows: {0,1,2}, {1,2}, {2} -> 6 pairs
        assert_eq!(tc.pair_count(), 6);
    }

    #[test]
    fn distance_oracle_matches_bfs() {
        let g = sample();
        let oracle = DistanceOracle::new(&g);
        assert_eq!(oracle.distance(0, 4), 4);
        assert_eq!(oracle.distance(2, 1), 2); // through the cycle
        assert_eq!(oracle.distance(4, 0), INFINITE_DISTANCE);
        assert!(oracle.reaches(0, 3));
        assert!(!oracle.reaches(5, 0));
        // memoised second call
        assert_eq!(oracle.distance(0, 4), 4);
    }
}
