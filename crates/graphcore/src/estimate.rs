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

use crate::digraph::NodeId;
use crate::scc::Condensation;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which reachable set [`estimate_reach_counts`] sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// `descendants-or-self(v)`: what `v` reaches.
    Descendants,
    /// `ancestors-or-self(v)`: what reaches `v`.
    Ancestors,
}

/// Estimates `|descendants-or-self(v)|` or `|ancestors-or-self(v)|` for every
/// node of the graph `cond` condenses, with `rounds` independent rank
/// propagations. Larger `rounds` tightens the estimate (relative error
/// ~ `1/sqrt(rounds)`).
///
/// HOPI's staged cover builder ranks centers by the product of the two
/// estimates — a node can serve as the 2-hop midpoint for (up to) one pair
/// per (ancestor, descendant) combination, so the product approximates a
/// center's covering power far better than raw degree.
///
/// # Panics
/// If `rounds < 2` (the estimator needs at least two rounds).
pub fn estimate_reach_counts(
    cond: &Condensation,
    reach: Reach,
    rounds: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(rounds >= 2, "need at least two estimation rounds");
    let n = cond.comp_of.len();
    let k = cond.component_count();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sums = vec![0.0f64; n];
    let mut comp_min = vec![f64::INFINITY; k];
    for _ in 0..rounds {
        // Exp(1) rank per node; each SCC keeps its members' minimum.
        comp_min.fill(f64::INFINITY);
        for &c in &cond.comp_of {
            let x: f64 = rng.gen::<f64>();
            let rank = -(1.0 - x).ln(); // Exp(1)
            if rank < comp_min[c as usize] {
                comp_min[c as usize] = rank;
            }
        }
        // A component's minimum covers everything in its reachable set.
        // Condensation edges run from larger ids to smaller ones
        // (`tarjan_scc`), so ascending ids settle every successor before
        // its predecessors, and descending ids the other way round.
        for i in 0..k {
            let (c, next) = match reach {
                Reach::Descendants => (i, cond.dag.successors(i as NodeId)),
                Reach::Ancestors => (k - 1 - i, cond.dag.predecessors((k - 1 - i) as NodeId)),
            };
            let mut m = comp_min[c];
            for &s in next {
                if comp_min[s as usize] < m {
                    m = comp_min[s as usize];
                }
            }
            comp_min[c] = m;
        }
        for (sum, &c) in sums.iter_mut().zip(&cond.comp_of) {
            *sum += comp_min[c as usize];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::TransitiveClosure;
    use crate::digraph::Digraph;
    use crate::scc::condensation;
    use proptest::prelude::*;

    fn estimate(g: &Digraph, reach: Reach, rounds: usize, seed: u64) -> Vec<f64> {
        estimate_reach_counts(&condensation(g), reach, rounds, seed)
    }

    fn exact_counts(g: &Digraph) -> Vec<f64> {
        let tc = TransitiveClosure::build(g);
        (0..g.node_count() as u32)
            .map(|u| tc.descendants(u).len() as f64)
            .collect()
    }

    fn assert_close(g: &Digraph, rounds: usize, tol: f64) {
        let est = estimate(g, Reach::Descendants, rounds, 42);
        let exact = exact_counts(g);
        for (u, (e, x)) in est.iter().zip(&exact).enumerate() {
            let rel = (e - x).abs() / x;
            assert!(
                rel < tol,
                "node {u}: est {e:.2} vs exact {x} (rel {rel:.3})"
            );
        }
        // The ancestors axis of `g` is the descendants axis of its reverse.
        let est = estimate(g, Reach::Ancestors, rounds, 42);
        let exact = exact_counts(&g.reversed());
        for (u, (e, x)) in est.iter().zip(&exact).enumerate() {
            let rel = (e - x).abs() / x;
            assert!(
                rel < tol,
                "node {u} (ancestors): est {e:.2} vs exact {x} (rel {rel:.3})"
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
        let est = estimate(&g, Reach::Descendants, 300, 7);
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
        let anc = estimate(&g, Reach::Ancestors, 300, 9);
        let desc = estimate(&g, Reach::Descendants, 300, 9);
        // head has few ancestors, many descendants; tail the opposite
        assert!(anc[0] < anc[19]);
        assert!(desc[0] > desc[19]);
        assert!((anc[0] - 1.0).abs() < 0.5, "source has only itself above");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = Digraph::from_edges(10, (0..9u32).map(|i| (i, i + 1)));
        assert_eq!(
            estimate(&g, Reach::Descendants, 16, 3),
            estimate(&g, Reach::Descendants, 16, 3)
        );
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::from_edges(0, []);
        assert!(estimate(&g, Reach::Descendants, 4, 1).is_empty());
        assert!(estimate(&g, Reach::Ancestors, 4, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_round_rejected() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        estimate(&g, Reach::Descendants, 1, 0);
    }

    /// The estimators as they were before they shared the caller's
    /// condensation: each condensed its own graph, propagated in Kahn's
    /// topological order, and the ancestors axis ran over a reversed copy.
    mod reference {
        use super::*;
        use crate::topo::topological_order;

        pub fn estimate_descendant_counts(g: &Digraph, rounds: usize, seed: u64) -> Vec<f64> {
            assert!(rounds >= 2, "need at least two estimation rounds");
            let n = g.node_count();
            if n == 0 {
                return Vec::new();
            }
            let cond = condensation(g);
            let order = topological_order(&cond.dag)
                .unwrap_or_else(|| (0..cond.component_count() as NodeId).collect());
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sums = vec![0.0f64; n];
            let mut comp_min = vec![f64::INFINITY; cond.component_count()];
            for _ in 0..rounds {
                comp_min.fill(f64::INFINITY);
                for u in 0..n {
                    let x: f64 = rng.gen::<f64>();
                    let rank = -(1.0 - x).ln();
                    let c = cond.comp_of[u] as usize;
                    if rank < comp_min[c] {
                        comp_min[c] = rank;
                    }
                }
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

        pub fn estimate_ancestor_counts(g: &Digraph, rounds: usize, seed: u64) -> Vec<f64> {
            estimate_descendant_counts(&g.reversed(), rounds, seed)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_condensation_estimates_bit_for_bit_what_two_did(
            g in crate::testing::arb_graph(60),
            rounds in 2usize..10,
            seed in any::<u64>(),
        ) {
            let cond = condensation(&g);
            prop_assert_eq!(
                bits(&estimate_reach_counts(&cond, Reach::Descendants, rounds, seed)),
                bits(&reference::estimate_descendant_counts(&g, rounds, seed))
            );
            prop_assert_eq!(
                bits(&estimate_reach_counts(&cond, Reach::Ancestors, rounds, seed)),
                bits(&reference::estimate_ancestor_counts(&g, rounds, seed))
            );
        }
    }
}
