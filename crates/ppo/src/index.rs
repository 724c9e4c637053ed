//! The pre/postorder index over a graph's spanning forest.

use graphcore::{spanning_forest, Digraph, Distance, NodeId, Rows};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Pre/postorder index over the spanning forest of a graph with per-node
/// labels, numbered in preorder: the index's node ids *are* the forest's
/// preorder ranks, so `u`'s subtree is the rank interval `[u, u + size(u))`
/// and its postorder rank follows from its size and depth.
///
/// Labels are opaque `u32`s (FliX passes interned tag ids). Per label the
/// index keeps the ranks carrying it, ascending, in one flat table, so a
/// descendants-by-label query is a binary search plus a contiguous scan —
/// the operation the paper's structural-vagueness queries hammer.
///
/// The edges of the graph its forest leaves out are kept too
/// ([`Self::removed_edges`]): the index answers reachability through the
/// forest alone, and the caller (FliX's path-expression evaluator) chases
/// those edges with its priority queue.
///
/// An image holds the subtree sizes, the label table and the removed
/// edges. Depth and parent are a function of the sizes — in preorder a
/// rank's parent is the nearest earlier rank whose subtree holds it — so
/// an image leaves them out and [`Self::derive_forest`] rebuilds them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PpoIndex {
    /// Subtree size per rank (the node included).
    #[serde(with = "graphcore::flat")]
    size: Vec<u32>,
    /// Depth per rank (roots have depth 0); not in the image.
    #[serde(skip)]
    depth: Vec<u32>,
    /// The parent's rank per rank (`u32::MAX` for roots); not in the image.
    #[serde(skip)]
    parent: Vec<NodeId>,
    /// The labels some node carries, ascending.
    #[serde(with = "graphcore::flat")]
    label_keys: Vec<u32>,
    /// Row `k`: the ranks carrying `label_keys[k]`, ascending.
    labels: Rows<u32>,
    /// Edges of the graph the forest leaves out, as rank pairs, ascending.
    #[serde(with = "graphcore::flat")]
    removed: Vec<(NodeId, NodeId)>,
}

impl PpoIndex {
    /// Builds the index over any directed graph: takes its
    /// [`spanning_forest`] and numbers the forest's nodes in preorder,
    /// roots in id order, children in successor order. Returns the index
    /// and that numbering — `order[r]` is the node of `g` with rank `r`,
    /// the id the index knows it by; the removed edges are in it too.
    ///
    /// `labels[u]` is the label of node `u` of `g` (`labels.len() == node
    /// count`).
    pub fn build(g: &Digraph, labels: &[u32]) -> (Self, Vec<NodeId>) {
        assert_eq!(labels.len(), g.node_count(), "one label per node");
        let n = g.node_count();
        let forest = spanning_forest(g);
        let kept = |u: NodeId, v: &NodeId| forest.parent[*v as usize] == u;
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let (mut depth, mut parent) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut size = vec![0u32; n];
        // Iterative DFS per root; (rank, successor cursor).
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in g
            .nodes()
            .filter(|&u| forest.parent[u as usize] == NodeId::MAX)
        {
            stack.push((order.len() as u32, 0));
            order.push(root);
            depth.push(0);
            parent.push(NodeId::MAX);
            while let Some(&mut (r, ref mut cursor)) = stack.last_mut() {
                let u = order[r as usize];
                let rest = &g.successors(u)[*cursor..];
                if let Some(at) = rest.iter().position(|v| kept(u, v)) {
                    *cursor += at + 1;
                    stack.push((order.len() as u32, 0));
                    order.push(rest[at]);
                    depth.push(depth[r as usize] + 1);
                    parent.push(r);
                } else {
                    size[r as usize] = order.len() as u32 - r;
                    stack.pop();
                }
            }
        }
        let mut rank = vec![0; n];
        for (r, &u) in (0..).zip(&order) {
            rank[u as usize] = r;
        }
        let mut removed: Vec<(NodeId, NodeId)> = (forest.removed_edges.iter())
            .map(|&(u, v)| (rank[u as usize], rank[v as usize]))
            .collect();
        removed.sort_unstable();
        let label_keys: Vec<u32> = BTreeSet::from_iter(labels).into_iter().copied().collect();
        // Each rank under its label's key, visited in rank order.
        let key = |label: u32| label_keys.partition_point(|&k| k < label) as u32;
        let keys = labels.iter().map(|&label| key(label));
        let ranked = (0..)
            .zip(&order)
            .map(|(r, &u)| (key(labels[u as usize]), r));
        let index = Self {
            size,
            depth,
            parent,
            labels: Rows::grouped(label_keys.len(), keys, ranked),
            label_keys,
            removed,
        };
        (index, order)
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.size.len()
    }

    /// Parent of `u` in the forest, `None` for roots.
    fn parent(&self, u: NodeId) -> Option<NodeId> {
        let p = self.parent[u as usize];
        (p != u32::MAX).then_some(p)
    }

    /// `u`'s subtree (`u` included) as the half-open interval of ranks
    /// `[u, u + size(u))` — every subtree test and subtree scan of this
    /// index is a comparison against it.
    pub fn subtree(&self, u: NodeId) -> (u32, u32) {
        (u, u + self.size[u as usize])
    }

    /// Hop distance from `u` down to `v` through the forest, if `v` is in
    /// `u`'s subtree (`u` itself at 0). A pair connected only through a
    /// removed edge answers `None`: the caller chases those.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        let (lo, hi) = self.subtree(u);
        (lo..hi)
            .contains(&v)
            .then(|| self.depth[v as usize] - self.depth[u as usize])
    }

    /// The ranks carrying `label`, ascending; empty if no node does.
    pub fn label_list(&self, label: u32) -> &[u32] {
        let Ok(k) = self.label_keys.binary_search(&label) else {
            return &[];
        };
        self.labels.row(k as u32)
    }

    /// Edges of the graph that are *not* represented in the forest, as
    /// rank pairs, ascending.
    pub fn removed_edges(&self) -> &[(NodeId, NodeId)] {
        &self.removed
    }

    /// The members of `ranked` — ranks, ascending — inside `u`'s subtree,
    /// `u` itself only if `include_self`, with their depth below `u`,
    /// written into `out` (its contents replaced) ascending by distance,
    /// ties by `tie` of the rank; returns how many there are. A subtree is
    /// a rank interval, so this is one binary search plus the answer,
    /// whatever the length of `ranked` — and the answer is the run of
    /// `ranked` read, the rows a database-backed deployment pays for.
    // Inlined into `flix::meta` (as a codegen-unit split may choose), ×0.88 on `linkchase`.
    #[inline(never)]
    pub fn descendants_among_into<K: Ord>(
        &self,
        u: NodeId,
        ranked: &[u32],
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
        tie: impl Fn(NodeId) -> K,
    ) -> usize {
        let (lo, hi) = self.subtree(u);
        let lo = lo + u32::from(!include_self);
        // One search finds the range's start; reading the answer finds its end.
        let start = ranked.partition_point(|&v| v < lo);
        let inside = ranked[start..].iter().take_while(|&&v| v < hi);
        let top = self.depth[u as usize];
        out.clear();
        out.extend(inside.map(|&v| (v, self.depth[v as usize] - top)));
        out.sort_unstable_by_key(|&(v, d)| (d, tie(v)));
        out.len()
    }

    /// The members of `ranked` — ranks, ascending — on the parent chain
    /// from `u` up to its root, `u` itself only if `include_self`, with
    /// their distance from `u`, written into `out` (its contents replaced)
    /// nearest first; returns the number of chain nodes probed, one binary
    /// search of `ranked` each (and one row fetch each in a database-backed
    /// deployment) — the ancestors mirror of [`Self::descendants_among_into`].
    pub fn ancestors_among_into(
        &self,
        u: NodeId,
        ranked: &[u32],
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        out.clear();
        let mut probed = 0usize;
        let (mut cur, mut d) = if include_self {
            (Some(u), 0)
        } else {
            (self.parent(u), 1)
        };
        while let Some(a) = cur {
            probed += 1;
            if ranked.binary_search(&a).is_ok() {
                out.push((a, d));
            }
            cur = self.parent(a);
            d += 1;
        }
        probed
    }

    /// The paper's Table 1 size of the index in bytes: per element a
    /// pre/post row of six `u32`s (pre, post, depth, parent, size, node)
    /// and a label row of two, as the paper's database holds them, plus a
    /// row of two per removed edge. It is not what this struct holds or
    /// persists — ranks are the ids, so pre and node are implicit and post
    /// is derived — and it counts elements, not the label table's
    /// bookkeeping, so the figure does not depend on how the index is laid
    /// out.
    pub fn size_bytes(&self) -> usize {
        (6 * 4 + 8) * self.node_count() + self.removed.len() * 8
    }

    /// Rebuilds depth and parent from the subtree sizes, which is how a
    /// decoded image, which holds neither, becomes an index a lookup can
    /// read; or says why the sizes are no preorder forest: a subtree that
    /// holds not even its root, ends past the index or does not nest inside
    /// its parent's. Until it succeeds, no lookup may run.
    pub fn derive_forest(&mut self) -> Option<String> {
        let derived = forest(&self.size).map(|forest| (self.depth, self.parent) = forest);
        derived.err()
    }

    /// The first way the stored arrays are laid out so that a lookup would
    /// index or slice out of bounds, if they are: the labelled ranks `n`
    /// long, the label lists one row of ranks below `n` per key
    /// ([`Rows::fault`]) behind strictly ascending keys, and every
    /// removed-edge end below `n`. One pass over each array; the sizes are
    /// [`Self::derive_forest`]'s to check.
    pub fn layout_fault(&self) -> Option<String> {
        let n = self.node_count();
        let ranks = self.labels.entries().len();
        if ranks != n {
            return Some(format!("{n} subtree sizes, {ranks} labelled ranks"));
        }
        let keys = &self.label_keys;
        if let Some(fault) = self.labels.fault(keys.len(), n) {
            return Some(format!("label lists: {fault}"));
        }
        if let Some(at) = keys.windows(2).position(|w| w[0] >= w[1]) {
            return Some(format!(
                "label keys are not ascending at position {}",
                at + 1
            ));
        }
        let past = |r: NodeId| r as usize >= n;
        let (u, v) = *self.removed.iter().find(|&&(u, v)| past(u) || past(v))?;
        Some(format!("removed edge ({u}, {v}) names a rank past {n}"))
    }
}

/// Depth and parent per rank of the preorder forest whose subtree sizes are
/// `size`, or the first rank whose subtree holds not even itself, ends past
/// the forest or ends past its parent's: one pass, keeping the subtrees
/// still open at each rank on a stack.
fn forest(size: &[u32]) -> Result<(Vec<u32>, Vec<NodeId>), String> {
    let n = size.len() as u64;
    let (mut depth, mut parent) = (
        Vec::with_capacity(size.len()),
        Vec::with_capacity(size.len()),
    );
    // The open subtrees around rank `r`, outermost first, as (rank, end).
    let mut open: Vec<(NodeId, u64)> = Vec::new();
    for (r, &s) in (0..).zip(size) {
        while open.last().is_some_and(|&(_, end)| end <= u64::from(r)) {
            open.pop();
        }
        if s == 0 {
            return Err(format!("rank {r}'s subtree is empty"));
        }
        let end = u64::from(r) + u64::from(s);
        if end > n {
            return Err(format!("rank {r}'s subtree of {s} ends past {n}"));
        }
        if let Some(&(p, up)) = open.last().filter(|&&(_, up)| end > up) {
            return Err(format!(
                "rank {r}'s subtree of {s} does not nest in its parent {p}'s, which ends at {up}"
            ));
        }
        depth.push(open.len() as u32);
        parent.push(open.last().map_or(NodeId::MAX, |&(p, _)| p));
        open.push((r, end));
    }
    Ok((depth, parent))
}

impl flixcheck::IntegrityCheck for PpoIndex {
    /// Audits the interval structure in rank form: the layout must be sound
    /// ([`PpoIndex::layout_fault`]), the subtree sizes a preorder forest
    /// whose depths and parents are the ones held — which is what an image
    /// loads ([`PpoIndex::derive_forest`]) — the label lists must cover
    /// every rank exactly once, each ascending, and the removed edges must
    /// be sorted and none of them a forest edge.
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("PpoIndex");
        let fault = self.layout_fault();
        audit.check("arrays are laid out for lookups", fault.is_none(), || {
            fault.unwrap_or_default()
        });
        if audit.violation_count() > 0 {
            return audit.finish();
        }
        let n = self.node_count();

        let first = match forest(&self.size) {
            Err(fault) => Some(fault),
            Ok((depth, parent)) => (depth != self.depth || parent != self.parent)
                .then(|| "the depths and parents held are not the ones the sizes give".to_string()),
        };
        audit.check(
            "subtree sizes nest, and determine the depths and parents",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut covered = vec![false; n];
        let mut first = None;
        'lists: for (k, &label) in (0..).zip(&self.label_keys) {
            let list = self.labels.row(k);
            if let Some(at) = list.windows(2).position(|w| w[0] >= w[1]) {
                first = Some(format!(
                    "label {label}: list not ascending at rank {}",
                    list[at + 1]
                ));
                break;
            }
            for &r in list {
                if std::mem::replace(&mut covered[r as usize], true) {
                    first = Some(format!("rank {r} appears under more than one label"));
                    break 'lists;
                }
            }
        }
        audit.check(
            "label lists partition the ranks, each ascending",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        audit.check(
            "removed edges sorted by source",
            self.removed.windows(2).all(|w| w[0] <= w[1]),
            || "removed edge list out of order".to_string(),
        );
        let forest_edge = (self.removed.iter()).find(|&&(u, v)| self.parent(v) == Some(u));
        audit.check(
            "removed edges are residual (absent from the forest)",
            forest_edge.is_none(),
            || {
                let (u, v) = forest_edge.copied().unwrap_or_default();
                format!("removed edge ({u}, {v}) is also a forest edge")
            },
        );

        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The running example tree, and its preorder:
    /// ```text
    ///        0                      0
    ///      /   \                  /   \
    ///     1     2                1     5
    ///    / \     \     ranks    / \     \
    ///   3   4     5            2   3     6
    ///        \                      \
    ///         6                      4
    /// ```
    /// Labels by node: 0=A, 1=B, 2=B, 3=C, 4=C, 5=C, 6=B.
    fn tree() -> (PpoIndex, Vec<NodeId>) {
        let g = Digraph::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 6), (2, 5)]);
        PpoIndex::build(&g, &[0, 1, 1, 2, 2, 2, 1])
    }

    /// Tree 0->{1,2}, 1->3 plus a cross link 3 -> 2 and an up link 2 -> 1.
    fn linked_graph() -> Digraph {
        Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (3, 2), (2, 1)])
    }

    /// The descendants of `u` carrying `label`, nearest first, ties by rank.
    fn block(idx: &PpoIndex, u: NodeId, label: u32, include_self: bool) -> Vec<(NodeId, Distance)> {
        let list = idx.label_list(label);
        graphcore::filled(|out| idx.descendants_among_into(u, list, include_self, out, |v| v)).0
    }

    /// The paper's postorder rank of `u`: of the nodes before `u` in
    /// preorder, all but its `depth` ancestors come before it in postorder,
    /// and so do its `size - 1` descendants.
    fn post(idx: &PpoIndex, u: NodeId) -> u32 {
        u + idx.size[u as usize] - 1 - idx.depth[u as usize]
    }

    #[test]
    fn pre_post_invariants() {
        let (idx, order) = tree();
        assert_eq!(order, vec![0, 1, 3, 4, 6, 2, 5]);
        assert_eq!(idx.depth[4], 3);
        assert_eq!(idx.parent(4), Some(3));
        assert_eq!(idx.parent(0), None);
        // postorder 3, 6, 4, 1, 5, 2, 0 — by rank 2, 4, 3, 1, 6, 5, 0
        let post: Vec<u32> = (0..7).map(|r| post(&idx, r)).collect();
        assert_eq!(post, vec![6, 3, 0, 2, 1, 5, 4]);
    }

    #[test]
    fn ancestor_test_matches_paper_formula() {
        let (idx, order) = tree();
        let g = Digraph::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 6), (2, 5)]);
        let oracle = graphcore::TransitiveClosure::build(&g);
        for u in 0..7u32 {
            for v in 0..7u32 {
                let reaches = oracle.reaches(order[u as usize], order[v as usize]);
                assert_eq!(idx.distance(u, v).is_some(), reaches, "pair {u},{v}");
                if u != v {
                    assert_eq!(u < v && post(&idx, u) > post(&idx, v), reaches);
                }
            }
        }
    }

    #[test]
    fn distances_are_depth_differences() {
        let (idx, _) = tree();
        assert_eq!(idx.distance(0, 4), Some(3));
        assert_eq!(idx.distance(1, 4), Some(2));
        assert_eq!(idx.distance(4, 0), None);
        assert_eq!(idx.distance(5, 5), Some(0));
    }

    #[test]
    fn descendants_by_label_sorted_by_distance() {
        let (idx, _) = tree();
        // label 1 (B) under the root: nodes 1, 2 (d=1), 6 (d=3) — ranks 1, 5, 4
        assert_eq!(block(&idx, 0, 1, false), vec![(1, 1), (5, 1), (4, 3)]);
        // include_self on a B node
        assert_eq!(block(&idx, 1, 1, true), vec![(1, 0), (4, 2)]);
        // no match
        assert!(block(&idx, 6, 0, false).is_empty());
        // unknown label entirely
        assert!(block(&idx, 0, 99, true).is_empty());
        assert_eq!(idx.label_list(1), &[1, 4, 5]);
        assert!(idx.label_list(99).is_empty());
    }

    #[test]
    fn descendants_iterator_is_subtree() {
        let (idx, _) = tree();
        assert_eq!(idx.subtree(1), (1, 5));
        assert_eq!(idx.subtree(6), (6, 7));
        assert_eq!(idx.subtree(0), (0, 7));
    }

    #[test]
    fn ancestors_walk() {
        let (idx, _) = tree();
        let walk = |u, ranked: &[u32], include_self| {
            graphcore::filled(|out| idx.ancestors_among_into(u, ranked, include_self, out))
        };
        let every: Vec<u32> = (0..7).collect();
        assert_eq!(walk(4, &every, false), (vec![(3, 1), (1, 2), (0, 3)], 3));
        // B-labelled ancestors of node 6 (rank 4): node 1 at distance 2 (+
        // self at 0); every step of the chain is one probe
        let b = idx.label_list(1);
        assert_eq!(walk(4, b, true), (vec![(4, 0), (1, 2)], 4));
        assert_eq!(walk(4, b, false), (vec![(1, 2)], 3));
        assert_eq!(walk(0, b, false), (vec![], 0));
    }

    #[test]
    fn anchored_lookups_match_the_distance_scan() {
        let (idx, _) = tree();
        for anchors in [
            vec![],
            vec![4],
            vec![0, 2, 4, 5],
            (0..7).collect::<Vec<_>>(),
        ] {
            for u in 0..7u32 {
                let scan = |pairs: &mut dyn Iterator<Item = (NodeId, Option<Distance>)>| {
                    let mut out: Vec<(NodeId, Distance)> =
                        pairs.filter_map(|(v, d)| d.map(|d| (v, d))).collect();
                    out.sort_unstable_by_key(|&(v, d)| (d, v));
                    out
                };
                for include_self in [false, true] {
                    let below = scan(
                        &mut anchors
                            .iter()
                            .map(|&a| (a, idx.distance(u, a).filter(|_| include_self || a != u))),
                    );
                    let (got, len) = graphcore::filled(|out| {
                        idx.descendants_among_into(u, &anchors, include_self, out, |v| v)
                    });
                    assert_eq!((got, len), (below.clone(), below.len()), "{u} {anchors:?}");
                    let above = scan(
                        &mut anchors
                            .iter()
                            .map(|&a| (a, idx.distance(a, u).filter(|_| include_self || a != u))),
                    );
                    let (got, probed) = graphcore::filled(|out| {
                        idx.ancestors_among_into(u, &anchors, include_self, out)
                    });
                    assert_eq!(got, above, "{u} {anchors:?}");
                    let chain = idx.depth[u as usize] as usize + usize::from(include_self);
                    assert_eq!(probed, chain);
                }
            }
        }
        // Ties go by the caller's key: ranks 1 and 5 both lie one below the root.
        let (got, _) = graphcore::filled(|out| {
            idx.descendants_among_into(0, &[1, 5], false, out, std::cmp::Reverse)
        });
        assert_eq!(got, vec![(5, 1), (1, 1)]);
    }

    #[test]
    fn forest_with_multiple_roots() {
        let g = Digraph::from_edges(5, [(0, 1), (2, 3), (2, 4)]);
        let (idx, order) = PpoIndex::build(&g, &[0; 5]);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(idx.distance(2, 4).is_some());
        assert!(idx.distance(0, 3).is_none());
    }

    #[test]
    fn forest_input_removes_nothing() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let (x, order) = PpoIndex::build(&g, &[0; 4]);
        assert!(x.removed_edges().is_empty());
        assert_eq!(order, vec![0, 1, 3, 2]);
        assert!(x.distance(1, 2).is_some());
        assert!(x.distance(1, 3).is_none());
    }

    /// A node with two parents keeps its first BFS parent; the edge from
    /// the other is rejected from the forest and kept as removed.
    #[test]
    fn rejects_dag() {
        let g = Digraph::from_edges(3, [(0, 2), (1, 2)]);
        let (x, order) = PpoIndex::build(&g, &[0; 3]);
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(x.removed_edges(), &[(2, 1)]);
        assert_eq!(x.distance(0, 1), Some(1));
        assert_eq!(x.distance(2, 1), None);
    }

    /// A cycle entered from a root: the edge that closes it is rejected
    /// from the forest and kept as removed.
    #[test]
    fn rejects_cycle() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 1)]);
        let (x, order) = PpoIndex::build(&g, &[0; 3]);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(x.removed_edges(), &[(2, 1)]);
        assert_eq!(x.distance(1, 2), Some(1));
        assert_eq!(x.distance(2, 1), None);
    }

    #[test]
    fn removed_edges_reported() {
        let g = linked_graph();
        let (x, order) = PpoIndex::build(&g, &[0; 4]);
        // 2 and 3 both have in-degree 2 in the full graph... node 1: parents
        // {0, 2}; node 2: parents {0, 3}. Exactly two edges must go.
        assert_eq!(x.removed_edges().len(), 2);
        for &(u, v) in x.removed_edges() {
            assert!(g.has_edge(order[u as usize], order[v as usize]));
            // removed edges are not answered by the forest test
            assert_ne!(x.parent(v), Some(u));
        }
    }

    #[test]
    fn forest_distances_survive() {
        let g = linked_graph();
        let (x, order) = PpoIndex::build(&g, &[0; 4]);
        let rank = |u: NodeId| order.iter().position(|&v| v == u).unwrap() as NodeId;
        assert_eq!(x.distance(rank(0), rank(3)), Some(2));
        assert_eq!(x.distance(rank(1), rank(3)), Some(1));
    }

    #[test]
    fn label_queries_respect_forest() {
        let g = linked_graph();
        let (x, _) = PpoIndex::build(&g, &[7, 8, 8, 8]);
        let r = block(&x, 0, 8, false);
        // all of 1, 2, 3 are forest descendants of 0
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].1, 1);
    }

    #[test]
    fn cycle_only_graph() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let (x, order) = PpoIndex::build(&g, &[0; 3]);
        assert_eq!(order, vec![0, 1, 2]);
        // the back edge is the one that goes
        assert_eq!(x.removed_edges(), &[(2, 0)]);
        // the spanning chain still answers within-forest queries
        assert!(x.distance(0, 2).is_some());
        assert!(x.distance(2, 0).is_none());
    }

    #[test]
    fn size_accounting_positive() {
        let (idx, _) = tree();
        assert_eq!(idx.size_bytes(), 7 * (6 * 4 + 8));
        let (x, _) = PpoIndex::build(&linked_graph(), &[0; 4]);
        assert_eq!(x.size_bytes(), 4 * (6 * 4 + 8) + 2 * 8);
    }

    /// `idx` with the ranks of its `k`th label replaced by `list`.
    fn relisted(idx: &PpoIndex, k: usize, list: &[u32]) -> PpoIndex {
        let keys = 0..idx.label_keys.len() as u32;
        let mut lists: Vec<Vec<u32>> = keys.map(|j| idx.labels.row(j).to_vec()).collect();
        lists[k] = list.to_vec();
        PpoIndex {
            labels: Rows::from_rows(&lists),
            ..idx.clone()
        }
    }

    #[test]
    fn layout_faults_are_named() {
        let (idx, _) = tree();
        assert_eq!(idx.layout_fault(), None);
        assert_eq!(idx.label_list(1), &[1, 4, 5]);
        type Damage = (fn(&mut PpoIndex), &'static str);
        let damage: [Damage; 4] = [
            (
                |i| *i = relisted(i, 2, &[2, 3]),
                "7 subtree sizes, 6 labelled ranks",
            ),
            (|i| i.label_keys.swap(0, 1), "keys are not ascending"),
            (
                |i| *i = relisted(i, 1, &[1, 7, 5]),
                "label lists: entry 2 names node 7 of 7",
            ),
            (|i| i.removed.push((0, 7)), "names a rank past 7"),
        ];
        for (damage, fault) in damage {
            let mut bad = idx.clone();
            damage(&mut bad);
            let found = bad.layout_fault().unwrap_or_default();
            assert!(found.contains(fault), "{fault}: {found}");
        }
        // Sizes that are no preorder forest give no depths and parents.
        let damage: [Damage; 3] = [
            (|i| i.size[5] = 3, "rank 5's subtree of 3 ends past 7"),
            (
                |i| i.size[2] = 4,
                "rank 2's subtree of 4 does not nest in its parent 1's, which ends at 5",
            ),
            (|i| i.size[6] = 0, "rank 6's subtree is empty"),
        ];
        for (damage, fault) in damage {
            let mut bad = idx.clone();
            damage(&mut bad);
            let found = bad.derive_forest().unwrap_or_default();
            assert_eq!(found, fault);
        }
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let (idx, _) = tree();
        idx.integrity_check().unwrap();
        // a child interval that escapes its parent's
        let mut bad = idx.clone();
        bad.size[2] = 4;
        assert!(bad.integrity_check().is_err());
        // an inflated subtree size breaks the recurrence
        let mut bad = idx.clone();
        bad.size[0] -= 1;
        assert!(bad.integrity_check().is_err());
        // a rank under two labels
        let bad = relisted(&idx, 0, &[1]);
        assert!(bad.integrity_check().is_err());
        // a label list out of order
        let bad = relisted(&idx, 1, &[4, 1, 5]);
        assert!(bad.integrity_check().is_err());
        // a corrupted depth breaks parent consistency
        let mut bad = idx.clone();
        bad.depth[4] += 7;
        assert!(bad.integrity_check().is_err());
        // a parent the sizes do not give
        let mut bad = idx.clone();
        bad.parent[2] = 2;
        let err = bad.integrity_check().unwrap_err();
        assert!(
            err.to_string().contains("not the ones the sizes give"),
            "{err}"
        );
        // a bad layout is reported on its own
        let mut bad = idx;
        bad.label_keys.swap(0, 1);
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("keys are not ascending"), "{err}");
    }

    #[test]
    fn integrity_detects_removed_edge_corruption() {
        use flixcheck::IntegrityCheck;
        let (ext, _) = PpoIndex::build(&linked_graph(), &[0; 4]);
        ext.integrity_check().unwrap();
        assert_eq!(ext.layout_fault(), None);
        // an out-of-order removed list breaks the sort invariant
        let mut bad = ext.clone();
        bad.removed.swap(0, 1);
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
        // a forest edge smuggled into the removed list breaks residency
        let mut bad = ext;
        let v = (0..4).find(|&v| bad.parent(v).is_some()).unwrap();
        bad.removed.push((bad.parent(v).unwrap(), v));
        bad.removed.sort_unstable();
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("also a forest edge"), "{err}");
        // a removed edge past the index is a layout fault
        bad.removed.push((0, 4));
        let fault = bad.layout_fault().unwrap_or_default();
        assert!(fault.contains("names a rank past 4"), "{fault}");
    }

    /// The arrays of the forest-only index builds before any graph was
    /// accepted held, in their order; an image holds all but the depths and
    /// parents.
    #[derive(Serialize)]
    struct ForestIndex {
        #[serde(with = "graphcore::flat")]
        size: Vec<u32>,
        #[serde(skip)]
        depth: Vec<u32>,
        #[serde(skip)]
        parent: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_keys: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_offsets: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_ranks: Vec<u32>,
    }

    /// The wrapper those builds persisted: the forest index, then the
    /// removed edges.
    #[derive(Serialize)]
    struct TwoStep {
        index: ForestIndex,
        #[serde(with = "graphcore::flat")]
        removed: Vec<(NodeId, NodeId)>,
    }

    /// The build before the index accepted any graph, in its two steps:
    /// the spanning forest as a `Digraph` of the kept edges, the forest-only
    /// index over it (roots are the nodes without an edge in, children
    /// come in successor order), then the removed edges renumbered — the
    /// oracle [`PpoIndex::build`] is tested against.
    fn two_step_build(g: &Digraph, labels: &[u32]) -> (TwoStep, Vec<NodeId>) {
        let check = spanning_forest(g);
        let kept = g.edges().filter(|&(u, v)| check.parent[v as usize] == u);
        let forest = Digraph::from_edges(g.node_count(), kept);
        let n = forest.node_count();
        let mut order: Vec<NodeId> = Vec::new();
        let (mut depth, mut parent, mut size) = (Vec::new(), Vec::new(), vec![0u32; n]);
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in forest.nodes().filter(|&u| forest.in_degree(u) == 0) {
            stack.push((order.len() as u32, 0));
            order.push(root);
            depth.push(0);
            parent.push(NodeId::MAX);
            while let Some(&mut (r, ref mut cursor)) = stack.last_mut() {
                if let Some(&v) = forest.successors(order[r as usize]).get(*cursor) {
                    *cursor += 1;
                    stack.push((order.len() as u32, 0));
                    order.push(v);
                    depth.push(depth[r as usize] + 1);
                    parent.push(r);
                } else {
                    size[r as usize] = order.len() as u32 - r;
                    stack.pop();
                }
            }
        }
        assert_eq!(order.len(), n, "a spanning forest is a forest");
        let mut rows: Vec<(u32, u32)> = (0..)
            .zip(&order)
            .map(|(r, &u)| (labels[u as usize], r))
            .collect();
        rows.sort_unstable();
        let (mut label_keys, mut label_offsets, mut label_ranks) = (vec![], vec![], vec![]);
        for (at, &(label, r)) in (0..).zip(&rows) {
            if label_keys.last() != Some(&label) {
                label_keys.push(label);
                label_offsets.push(at);
            }
            label_ranks.push(r);
        }
        label_offsets.push(n as u32);
        let mut rank = vec![0; n];
        for (r, &u) in (0..).zip(&order) {
            rank[u as usize] = r;
        }
        let mut removed: Vec<(NodeId, NodeId)> = (check.removed_edges.iter())
            .map(|&(u, v)| (rank[u as usize], rank[v as usize]))
            .collect();
        removed.sort_unstable();
        let index = ForestIndex {
            size,
            depth,
            parent,
            label_keys,
            label_offsets,
            label_ranks,
        };
        (TwoStep { index, removed }, order)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One pass over any graph — cycles, self loops, repeated edges,
        /// nodes with several parents — numbers it, removes edges, sets
        /// depths and parents and writes image bytes exactly as the
        /// two-step build did; the image decodes to the built index once
        /// its depths and parents are derived from its sizes.
        #[test]
        fn the_graph_build_equals_the_two_step_build(
            (g, labels) in (1usize..24).prop_flat_map(|n| (
                proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n),
                proptest::collection::vec(0u32..4, n),
            ).prop_map(move |(edges, labels)| (Digraph::from_edges(n, edges), labels)))
        ) {
            let (idx, order) = PpoIndex::build(&g, &labels);
            let (old, old_order) = two_step_build(&g, &labels);
            prop_assert_eq!(&order, &old_order);
            prop_assert_eq!(&idx.removed, &old.removed);
            prop_assert_eq!((&idx.depth, &idx.parent), (&old.index.depth, &old.index.parent));
            let image = pagestore::to_bytes(&idx).unwrap();
            prop_assert_eq!(&image, &pagestore::to_bytes(&old).unwrap());
            prop_assert_eq!(idx.layout_fault(), None);
            let mut back: PpoIndex = pagestore::from_bytes(&image).unwrap();
            prop_assert_eq!(back.derive_forest(), None);
            prop_assert_eq!(back, idx);
        }
    }
}
