//! Extended PPO: the paper's §4.3 adaptation of the pre/postorder index to
//! graphs with links.
//!
//! Given an arbitrary element graph, [`ExtendedPpo::build`] computes a
//! spanning forest, indexes it with the classic [`PpoIndex`], and keeps the
//! removed edges as *runtime links*. Reachability through the forest is
//! answered from the index; anything passing through a removed edge is the
//! caller's job (FliX's path-expression evaluator chases those links with
//! its priority queue). When the input already is a forest the removed set
//! is empty and this is exactly the classic index.

use crate::index::PpoIndex;
use graphcore::{spanning_forest, Digraph, DigraphBuilder, Distance, NodeId};
use serde::{Deserialize, Serialize};

/// PPO over the spanning forest of an arbitrary graph, plus the edges the
/// forest could not represent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedPpo {
    index: PpoIndex,
    /// Edges removed to make the graph a forest, sorted by source.
    #[serde(with = "graphcore::flat")]
    removed: Vec<(NodeId, NodeId)>,
}

impl ExtendedPpo {
    /// Builds the extended index over any directed graph, numbering its
    /// nodes in the spanning forest's preorder. Returns the index and that
    /// numbering — `order[r]` is the node of `g` the index knows as `r`;
    /// the removed edges are in the index's numbering too.
    pub fn build(g: &Digraph, labels: &[u32]) -> (Self, Vec<NodeId>) {
        let check = spanning_forest(g);
        let mut kept = DigraphBuilder::with_nodes(g.node_count());
        for (u, v) in g.edges() {
            if check.parent[v as usize] == u {
                kept.add_edge(u, v);
            }
        }
        let forest = kept.build();
        let (index, order) =
            // flixcheck: allow(unwrap-expect): PpoIndex::build over a spanning forest cannot fail: forest by construction
            PpoIndex::build(&forest, labels).expect("spanning forest is a forest by construction");
        let mut rank = vec![0; order.len()];
        for (r, &u) in (0..).zip(&order) {
            rank[u as usize] = r;
        }
        let mut removed: Vec<(NodeId, NodeId)> = (check.removed_edges.iter())
            .map(|&(u, v)| (rank[u as usize], rank[v as usize]))
            .collect();
        removed.sort_unstable();
        (Self { index, removed }, order)
    }

    /// The underlying forest index.
    pub fn forest_index(&self) -> &PpoIndex {
        &self.index
    }

    /// Edges that are *not* represented in the forest index.
    pub fn removed_edges(&self) -> &[(NodeId, NodeId)] {
        &self.removed
    }

    /// Forest-only descendant test (may answer `false` for pairs connected
    /// only through removed edges — the caller must chase those).
    pub fn is_descendant_or_self(&self, u: NodeId, v: NodeId) -> bool {
        self.index.is_descendant_or_self(u, v)
    }

    /// Forest-only distance.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        self.index.distance(u, v)
    }

    /// Forest-only descendants with a label, ascending by distance.
    pub fn descendants_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        self.index.descendants_by_label(u, label, include_self)
    }

    /// Forest-only ancestors with a label, ascending by distance.
    pub fn ancestors_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        self.index.ancestors_by_label(u, label, include_self)
    }

    /// The paper's Table 1 size of the index in bytes: the forest index's
    /// ([`PpoIndex::size_bytes`]) plus a row per removed edge.
    pub fn size_bytes(&self) -> usize {
        self.index.size_bytes() + self.removed.len() * 8
    }

    /// The first way the stored index is laid out so that a lookup would
    /// go out of bounds ([`PpoIndex::layout_fault`]), or a removed edge
    /// names a node it does not hold, if either is.
    pub fn layout_fault(&self) -> Option<String> {
        let n = self.index.node_count() as NodeId;
        self.index.layout_fault().or_else(|| {
            let (u, v) = self.removed.iter().find(|&&(u, v)| u >= n || v >= n)?;
            Some(format!("removed edge ({u}, {v}) names a rank past {n}"))
        })
    }
}

impl flixcheck::IntegrityCheck for ExtendedPpo {
    /// Audits the residual-edge accounting on top of the forest index:
    /// removed edges must be sorted and must not duplicate forest edges.
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("ExtendedPpo");
        match self.index.integrity_check() {
            Ok(_) => audit.check("forest index audit", true, String::new),
            Err(e) => {
                for v in e.violations {
                    audit.violation("forest index audit", v.to_string());
                }
            }
        }
        let n = self.index.node_count() as NodeId;

        audit.check(
            "removed edges sorted by source",
            self.removed.windows(2).all(|w| w[0] <= w[1]),
            || "removed edge list out of order".to_string(),
        );

        let mut first = None;
        for &(u, v) in &self.removed {
            if u >= n || v >= n {
                first = Some(format!("removed edge ({u}, {v}) out of range"));
                break;
            }
            if self.index.parent(v) == Some(u) {
                first = Some(format!("removed edge ({u}, {v}) is also a forest edge"));
                break;
            }
        }
        audit.check(
            "removed edges are residual (absent from the forest)",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tree 0->{1,2}, 1->3 plus a cross link 3 -> 2 and an up link 2 -> 1.
    fn linked_graph() -> Digraph {
        Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (3, 2), (2, 1)])
    }

    #[test]
    fn forest_input_removes_nothing() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let (x, order) = ExtendedPpo::build(&g, &[0; 4]);
        assert!(x.removed_edges().is_empty());
        assert_eq!(order, vec![0, 1, 3, 2]);
        assert!(x.is_descendant_or_self(1, 2));
        assert!(!x.is_descendant_or_self(1, 3));
    }

    #[test]
    fn removed_edges_reported() {
        let g = linked_graph();
        let (x, order) = ExtendedPpo::build(&g, &[0; 4]);
        // 2 and 3 both have in-degree 2 in the full graph... node 1: parents
        // {0, 2}; node 2: parents {0, 3}. Exactly two edges must go.
        assert_eq!(x.removed_edges().len(), 2);
        for &(u, v) in x.removed_edges() {
            assert!(g.has_edge(order[u as usize], order[v as usize]));
            // removed edges are not answered by the forest test
            assert_ne!(x.index.parent(v), Some(u));
        }
    }

    #[test]
    fn forest_distances_survive() {
        let g = linked_graph();
        let (x, order) = ExtendedPpo::build(&g, &[0; 4]);
        let rank = |u: NodeId| order.iter().position(|&v| v == u).unwrap() as NodeId;
        assert_eq!(x.distance(rank(0), rank(3)), Some(2));
        assert_eq!(x.distance(rank(1), rank(3)), Some(1));
    }

    #[test]
    fn label_queries_respect_forest() {
        let g = linked_graph();
        let (x, _) = ExtendedPpo::build(&g, &[7, 8, 8, 8]);
        let r = x.descendants_by_label(0, 8, false);
        // all of 1, 2, 3 are forest descendants of 0
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].1, 1);
    }

    #[test]
    fn cycle_only_graph() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let (x, order) = ExtendedPpo::build(&g, &[0; 3]);
        assert_eq!(order, vec![0, 1, 2]);
        // the back edge is the one that goes
        assert_eq!(x.removed_edges(), &[(2, 0)]);
        // the spanning chain still answers within-forest queries
        assert!(x.is_descendant_or_self(0, 2));
        assert!(!x.is_descendant_or_self(2, 0));
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let g = linked_graph();
        let (ext, _) = ExtendedPpo::build(&g, &[0; 4]);
        ext.integrity_check().unwrap();
        assert_eq!(ext.layout_fault(), None);
        // an out-of-order removed list breaks the sort invariant
        let mut bad = ext.clone();
        if bad.removed.len() >= 2 {
            bad.removed.swap(0, 1);
            assert!(bad.integrity_check().is_err());
        }
        // a forest edge smuggled into the removed list breaks residency
        let mut bad = ext;
        if let Some(v) = (0..g.node_count() as NodeId).find(|&v| bad.index.parent(v).is_some()) {
            let u = bad.index.parent(v).unwrap();
            bad.removed.push((u, v));
            bad.removed.sort_unstable();
            assert!(bad.integrity_check().is_err());
        }
        // a removed edge past the index is a layout fault
        bad.removed.push((0, 4));
        let fault = bad.layout_fault().unwrap_or_default();
        assert!(fault.contains("names a rank past 4"), "{fault}");
    }
}
