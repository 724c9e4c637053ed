//! Structural summaries via backward partition refinement.

use graphcore::{Digraph, DigraphBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A structural summary: a partition of the element nodes plus the quotient
/// graph over the partition classes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StructuralSummary {
    /// `class_of[u]` = summary class of element `u`.
    #[serde(with = "graphcore::flat")]
    pub class_of: Vec<u32>,
    /// `extents[c]` = elements of class `c`, ascending.
    pub extents: Vec<Vec<NodeId>>,
    /// `class_label[c]` = the common element label of class `c`.
    #[serde(with = "graphcore::flat")]
    pub class_label: Vec<u32>,
    /// Quotient graph over classes.
    pub graph: Digraph,
}

impl StructuralSummary {
    /// Builds the APEX-0 summary: one class per element label.
    pub fn apex0(g: &Digraph, labels: &[u32]) -> Self {
        assert_eq!(labels.len(), g.node_count(), "one label per node");
        // Dense class ids in order of first appearance of each label.
        let mut label_to_class: HashMap<u32, u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(labels.len());
        let mut class_label = Vec::new();
        for &l in labels {
            let next = label_to_class.len() as u32;
            let c = *label_to_class.entry(l).or_insert(next);
            if c as usize == class_label.len() {
                class_label.push(l);
            }
            class_of.push(c);
        }
        Self::finish(g, class_of, class_label)
    }

    /// Refines `self` by one backward-bisimulation round: two elements stay
    /// in the same class only if they agree on the *set of classes of their
    /// parents*. Returns the refined summary and whether anything split.
    pub fn refine_step(&self, g: &Digraph, labels: &[u32]) -> (Self, bool) {
        let mut key_to_class: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(labels.len());
        let mut class_label = Vec::new();
        for (u, &label) in labels.iter().enumerate() {
            let mut parents: Vec<u32> = g
                .predecessors(u as NodeId)
                .iter()
                .map(|&p| self.class_of[p as usize])
                .collect();
            parents.sort_unstable();
            parents.dedup();
            let key = (self.class_of[u], parents);
            let next = key_to_class.len() as u32;
            let c = *key_to_class.entry(key).or_insert(next);
            if c as usize == class_label.len() {
                class_label.push(label);
            }
            class_of.push(c);
        }
        let changed = class_label.len() != self.extents.len();
        (Self::finish(g, class_of, class_label), changed)
    }

    /// Refines up to `k` rounds (or to the fixpoint, whichever is first).
    /// `k = 0` leaves APEX-0 untouched; large `k` converges towards the
    /// 1-index (full backward bisimulation).
    pub fn refine(self, g: &Digraph, labels: &[u32], k: usize) -> Self {
        let mut cur = self;
        for _ in 0..k {
            let (next, changed) = cur.refine_step(g, labels);
            cur = next;
            if !changed {
                break;
            }
        }
        cur
    }

    fn finish(g: &Digraph, class_of: Vec<u32>, class_label: Vec<u32>) -> Self {
        let count = class_label.len();
        let mut extents = vec![Vec::new(); count];
        for (u, &c) in class_of.iter().enumerate() {
            extents[c as usize].push(u as NodeId);
        }
        let mut b = DigraphBuilder::with_nodes(count);
        for (u, v) in g.edges() {
            let (cu, cv) = (class_of[u as usize], class_of[v as usize]);
            if cu != cv || g.has_edge(u, v) {
                b.add_edge(cu, cv);
            }
        }
        Self {
            class_of,
            extents,
            class_label,
            graph: b.build(),
        }
    }

    /// Number of summary classes.
    pub fn class_count(&self) -> usize {
        self.extents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two `b` elements with different parents:
    /// a(0) -> b(1), a(0) -> c(2), c(2) -> b(3)
    fn sample() -> (Digraph, Vec<u32>) {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (2, 3)]);
        (g, vec![10, 20, 30, 20])
    }

    #[test]
    fn apex0_groups_by_label() {
        let (g, labels) = sample();
        let s = StructuralSummary::apex0(&g, &labels);
        assert_eq!(s.class_count(), 3);
        assert_eq!(s.class_of[1], s.class_of[3]); // both label 20
        let b_class = s.class_of[1] as usize;
        assert_eq!(s.extents[b_class], vec![1, 3]);
        assert_eq!(s.class_label[b_class], 20);
    }

    #[test]
    fn summary_graph_mirrors_element_edges() {
        let (g, labels) = sample();
        let s = StructuralSummary::apex0(&g, &labels);
        let (a, b, c) = (s.class_of[0], s.class_of[1], s.class_of[2]);
        assert!(s.graph.has_edge(a, b));
        assert!(s.graph.has_edge(a, c));
        assert!(s.graph.has_edge(c, b));
    }

    #[test]
    fn refinement_splits_by_parent_class() {
        let (g, labels) = sample();
        let s = StructuralSummary::apex0(&g, &labels);
        let (s, changed) = s.refine_step(&g, &labels);
        assert!(changed);
        // the two b elements now differ: parents {a} vs {c}
        assert_ne!(s.class_of[1], s.class_of[3]);
        assert_eq!(s.class_count(), 4);
    }

    #[test]
    fn refinement_reaches_fixpoint() {
        let (g, labels) = sample();
        let s = StructuralSummary::apex0(&g, &labels).refine(&g, &labels, 10);
        let (_, changed) = s.refine_step(&g, &labels);
        assert!(!changed);
    }

    #[test]
    fn extents_partition_nodes() {
        let (g, labels) = sample();
        for k in [0, 1, 5] {
            let s = StructuralSummary::apex0(&g, &labels).refine(&g, &labels, k);
            let mut all: Vec<NodeId> = s.extents.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3], "k={k}");
        }
    }
}
