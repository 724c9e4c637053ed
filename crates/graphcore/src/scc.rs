//! Strongly-connected components (iterative Tarjan) and condensation.
//!
//! HOPI builds its two-hop cover over the condensation of the element graph:
//! all nodes of one SCC share reachability, so the cover only needs to be
//! computed on the (acyclic) component graph.

use crate::digraph::{Digraph, DigraphBuilder, NodeId};

/// Computes strongly connected components with an iterative Tarjan.
///
/// Returns `comp_of`, mapping each node to its component id. Ids are dense
/// and assigned in the order Tarjan completes the components, sinks first:
/// a component completes only after every component it reaches, so **every
/// condensation edge goes from a larger component id to a smaller one**.
/// Ascending ids are a reverse topological order of the condensation and
/// descending ids a topological order; the reachable-set estimator and the
/// closure oracle rely on this instead of sorting the condensation.
pub fn tarjan_scc(g: &Digraph) -> Vec<u32> {
    let n = g.node_count();
    let mut index = vec![u32::MAX; n]; // discovery index
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![u32::MAX; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS machine: (node, next-successor-position).
    let mut call: Vec<(NodeId, usize)> = Vec::new();

    for root in 0..n as NodeId {
        if index[root as usize] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (u, ref mut pos)) = call.last_mut() {
            let succs = g.successors(u);
            if *pos < succs.len() {
                let v = succs[*pos];
                *pos += 1;
                if index[v as usize] == u32::MAX {
                    index[v as usize] = next_index;
                    low[v as usize] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    call.push((v, 0));
                } else if on_stack[v as usize] {
                    low[u as usize] = low[u as usize].min(index[v as usize]);
                }
            } else {
                call.pop();
                if let Some(&mut (p, _)) = call.last_mut() {
                    low[p as usize] = low[p as usize].min(low[u as usize]);
                }
                if low[u as usize] == index[u as usize] {
                    // u is the root of an SCC; pop it off the stack.
                    // The root `u` is always on the stack, so the loop
                    // terminates before the stack can run dry.
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comp_count;
                        if w == u {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    comp_of
}

/// The condensation of a digraph: one node per SCC, edges between distinct
/// components, plus the member lists.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component DAG.
    pub dag: Digraph,
    /// `comp_of[node] = component id`.
    pub comp_of: Vec<u32>,
    /// `members[comp] = nodes of that component` (ascending).
    pub members: Vec<Vec<NodeId>>,
}

impl Condensation {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.members.len()
    }
}

/// Builds the condensation (component DAG) of `g`.
pub fn condensation(g: &Digraph) -> Condensation {
    let comp_of = tarjan_scc(g);
    let comp_count = comp_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut members = vec![Vec::new(); comp_count];
    for u in 0..g.node_count() {
        members[comp_of[u] as usize].push(u as NodeId);
    }
    let mut b = DigraphBuilder::with_nodes(comp_count);
    for (u, v) in g.edges() {
        let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
        if cu != cv {
            b.add_edge(cu, cv);
        }
    }
    Condensation {
        dag: b.build(),
        comp_of,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_reachable;

    #[test]
    fn single_cycle_is_one_component() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = tarjan_scc(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = tarjan_scc(&g);
        let mut ids = c.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn two_cycles_bridge() {
        // cycle {0,1}, cycle {2,3}, bridge 1 -> 2
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]);
        let cond = condensation(&g);
        assert_eq!(cond.component_count(), 2);
        assert_eq!(cond.dag.edge_count(), 1);
        let c01 = cond.comp_of[0];
        let c23 = cond.comp_of[2];
        assert_eq!(cond.comp_of[1], c01);
        assert_eq!(cond.comp_of[3], c23);
        assert!(cond.dag.has_edge(c01, c23));
        assert_eq!(cond.members[c01 as usize], vec![0, 1]);
    }

    #[test]
    fn condensation_is_acyclic() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        let cond = condensation(&g);
        assert_eq!(cond.component_count(), 2);
        // No component can reach itself through the DAG edges.
        for c in cond.dag.nodes() {
            for &s in cond.dag.successors(c) {
                assert!(!is_reachable(&cond.dag, s, c));
            }
        }
    }

    #[test]
    fn mutual_reachability_iff_same_component() {
        let g = Digraph::from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (5, 6)]);
        let c = tarjan_scc(&g);
        for u in 0..7u32 {
            for v in 0..7u32 {
                let mutual = is_reachable(&g, u, v) && is_reachable(&g, v, u);
                assert_eq!(mutual, c[u as usize] == c[v as usize], "pair {u},{v}");
            }
        }
    }

    #[test]
    fn empty_graph_condensation() {
        let g = DigraphBuilder::new().build();
        let cond = condensation(&g);
        assert_eq!(cond.component_count(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn every_condensation_edge_runs_from_a_larger_id_to_a_smaller_one(
            g in crate::testing::arb_graph(60),
        ) {
            let cond = condensation(&g);
            for (c, s) in cond.dag.edges() {
                proptest::prop_assert!(c > s, "condensation edge {} -> {}", c, s);
            }
        }
    }
}
