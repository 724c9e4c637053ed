//! Cohen's randomised size estimation for reachability sets ([5] in the
//! FliX paper: E. Cohen, "Size-estimation framework with applications to
//! transitive closure and reachability", JCSS 1997).
//!
//! Assign every node an i.i.d. `Exp(1)`-distributed rank and propagate the
//! *minimum* rank over each node's reachable set (one linear pass over the
//! condensation per round). The minimum of `|S|` i.i.d. exponentials is
//! `Exp(|S|)`, so after `k` rounds the estimator `(k - 1) / Σ mins` is
//! unbiased for `|S|`. FliX's paper notes HOPI's size must be estimated
//! from the transitive-closure size "without actually building the index";
//! that size is the sum of these per-node estimates, in `O(k·(n + m))`.

use crate::digraph::{Digraph, NodeId};
use crate::scc::condensation;
use crate::topo::topological_order;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Estimates `|descendants-or-self(v)|` for every node with `rounds`
/// independent rank propagations. Larger `rounds` tightens the estimate
/// (relative error ~ `1/sqrt(rounds)`).
///
/// # Panics
/// If `rounds < 2` (the estimator needs at least two rounds).
pub fn estimate_descendant_counts(g: &Digraph, rounds: usize, seed: u64) -> Vec<f64> {
    assert!(rounds >= 2, "need at least two estimation rounds");
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let cond = condensation(g);
    // The condensation is acyclic by construction; fall back to the
    // identity order rather than panicking if that ever breaks.
    let order = topological_order(&cond.dag)
        .unwrap_or_else(|| (0..cond.component_count() as NodeId).collect());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sums = vec![0.0f64; n];
    let mut comp_min = vec![f64::INFINITY; cond.component_count()];
    for _ in 0..rounds {
        // Exp(1) rank per node; each SCC keeps its members' minimum.
        comp_min.fill(f64::INFINITY);
        for u in 0..n {
            let x: f64 = rng.gen::<f64>();
            let rank = -(1.0 - x).ln(); // Exp(1)
            let c = cond.comp_of[u] as usize;
            if rank < comp_min[c] {
                comp_min[c] = rank;
            }
        }
        // Propagate minima along reverse topological order: a component's
        // minimum covers everything it reaches.
        for &c in order.iter().rev() {
            let mut m = comp_min[c as usize];
            for &s in cond.dag.successors(c) {
                if comp_min[s as usize] < m {
                    m = comp_min[s as usize];
                }
            }
            comp_min[c as usize] = m;
        }
        for u in 0..n {
            sums[u] += comp_min[cond.comp_of[u] as usize];
        }
    }
    sums.iter()
        .map(|&s| {
            if s > 0.0 {
                (rounds as f64 - 1.0) / s
            } else {
                n as f64
            }
        })
        .collect()
}

/// Estimates `|ancestors-or-self(v)|` for every node: the mirror of
/// [`estimate_descendant_counts`], computed over the reversed graph.
///
/// HOPI's staged cover builder ranks centers by the product of the two
/// estimates — a node can serve as the 2-hop midpoint for (up to) one pair
/// per (ancestor, descendant) combination, so the product approximates a
/// center's covering power far better than raw degree.
pub fn estimate_ancestor_counts(g: &Digraph, rounds: usize, seed: u64) -> Vec<f64> {
    estimate_descendant_counts(&g.reversed(), rounds, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::TransitiveClosure;

    fn exact_counts(g: &Digraph) -> Vec<f64> {
        let tc = TransitiveClosure::build(g);
        (0..g.node_count() as u32)
            .map(|u| tc.descendants(u).len() as f64)
            .collect()
    }

    fn assert_close(g: &Digraph, rounds: usize, tol: f64) {
        let est = estimate_descendant_counts(g, rounds, 42);
        let exact = exact_counts(g);
        for (u, (e, x)) in est.iter().zip(&exact).enumerate() {
            let rel = (e - x).abs() / x;
            assert!(
                rel < tol,
                "node {u}: est {e:.2} vs exact {x} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn chain_estimates_converge() {
        let g = Digraph::from_edges(50, (0..49u32).map(|i| (i, i + 1)));
        assert_close(&g, 400, 0.35);
    }

    #[test]
    fn star_and_dag() {
        let mut edges: Vec<(u32, u32)> = (1..40u32).map(|i| (0, i)).collect();
        edges.extend((1..20u32).map(|i| (i, i + 20)));
        let g = Digraph::from_edges(41, edges);
        assert_close(&g, 400, 0.35);
    }

    #[test]
    fn cyclic_components_share_counts() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)]);
        let est = estimate_descendant_counts(&g, 300, 7);
        // nodes 0,1,2 all reach the same 6-node set
        assert!((est[0] - est[1]).abs() < 1e-9);
        assert!((est[1] - est[2]).abs() < 1e-9);
        assert!(est[0] > est[3], "upstream set is larger");
        assert!((est[5] - 1.0).abs() < 0.5, "sink reaches only itself");
    }

    #[test]
    fn ancestor_counts_mirror_descendants() {
        // On a chain, ancestors of node i are exactly descendants of node
        // (n-1-i) in the reversed direction.
        let g = Digraph::from_edges(20, (0..19u32).map(|i| (i, i + 1)));
        let anc = estimate_ancestor_counts(&g, 300, 9);
        let desc = estimate_descendant_counts(&g, 300, 9);
        // head has few ancestors, many descendants; tail the opposite
        assert!(anc[0] < anc[19]);
        assert!(desc[0] > desc[19]);
        assert!((anc[0] - 1.0).abs() < 0.5, "source has only itself above");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = Digraph::from_edges(10, (0..9u32).map(|i| (i, i + 1)));
        assert_eq!(
            estimate_descendant_counts(&g, 16, 3),
            estimate_descendant_counts(&g, 16, 3)
        );
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::from_edges(0, []);
        assert!(estimate_descendant_counts(&g, 4, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_round_rejected() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        estimate_descendant_counts(&g, 1, 0);
    }
}
