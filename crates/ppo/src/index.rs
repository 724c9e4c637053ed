//! The classic pre/postorder index over a forest.

use graphcore::{Digraph, Distance, NodeId};
use serde::{Deserialize, Serialize};

/// Errors raised when the input graph is not a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PpoError {
    /// A node has more than one parent.
    MultipleParents(NodeId),
    /// The graph contains a cycle.
    Cyclic,
}

impl std::fmt::Display for PpoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpoError::MultipleParents(n) => write!(f, "node {n} has multiple parents"),
            PpoError::Cyclic => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for PpoError {}

/// Pre/postorder index over a forest with per-node labels, numbered in
/// preorder: the index's node ids *are* the forest's preorder ranks, so
/// `u`'s subtree is the rank interval `[u, u + size(u))` and its postorder
/// rank follows from its size and depth.
///
/// Labels are opaque `u32`s (FliX passes interned tag ids). Per label the
/// index keeps the ranks carrying it, ascending, in one flat table, so a
/// descendants-by-label query is a binary search plus a contiguous scan —
/// the operation the paper's structural-vagueness queries hammer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoIndex {
    /// Subtree size per rank (the node included).
    #[serde(with = "graphcore::flat")]
    size: Vec<u32>,
    /// Depth per rank (roots have depth 0).
    #[serde(with = "graphcore::flat")]
    depth: Vec<u32>,
    /// The parent's rank per rank (`u32::MAX` for roots).
    #[serde(with = "graphcore::flat")]
    parent: Vec<NodeId>,
    /// The labels some node carries, ascending.
    #[serde(with = "graphcore::flat")]
    label_keys: Vec<u32>,
    /// Where each key's ranks begin in `label_ranks`, then its length.
    #[serde(with = "graphcore::flat")]
    label_offsets: Vec<u32>,
    /// The ranks carrying each key, ascending, key after key.
    #[serde(with = "graphcore::flat")]
    label_ranks: Vec<u32>,
}

impl PpoIndex {
    /// Builds the index over `g`, which must be a forest, numbering its
    /// nodes in preorder: roots in id order, children in successor order.
    /// Returns the index and that numbering — `order[r]` is the node of `g`
    /// with rank `r`, the id the index knows it by.
    ///
    /// `labels[u]` is the label of node `u` of `g` (`labels.len() == node
    /// count`).
    pub fn build(g: &Digraph, labels: &[u32]) -> Result<(Self, Vec<NodeId>), PpoError> {
        assert_eq!(labels.len(), g.node_count(), "one label per node");
        let n = g.node_count();
        if let Some(u) = g.nodes().find(|&u| g.in_degree(u) > 1) {
            return Err(PpoError::MultipleParents(u));
        }
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        let (mut depth, mut parent) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut size = vec![0u32; n];
        // Iterative DFS per root; (rank, child cursor).
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in g.nodes().filter(|&u| g.in_degree(u) == 0) {
            stack.push((order.len() as u32, 0));
            order.push(root);
            depth.push(0);
            parent.push(NodeId::MAX);
            while let Some(&mut (r, ref mut cursor)) = stack.last_mut() {
                if let Some(&v) = g.successors(order[r as usize]).get(*cursor) {
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
        if order.len() != n {
            // Some node was never reached from an in-degree-0 root, which in
            // an in-degree<=1 graph means a cycle.
            return Err(PpoError::Cyclic);
        }
        let mut rows: Vec<(u32, u32)> = (0..)
            .zip(&order)
            .map(|(r, &u)| (labels[u as usize], r))
            .collect();
        rows.sort_unstable();
        let mut index = Self {
            size,
            depth,
            parent,
            label_keys: Vec::new(),
            label_offsets: Vec::new(),
            label_ranks: Vec::with_capacity(n),
        };
        for (at, &(label, r)) in (0..).zip(&rows) {
            if index.label_keys.last() != Some(&label) {
                index.label_keys.push(label);
                index.label_offsets.push(at);
            }
            index.label_ranks.push(r);
        }
        index.label_offsets.push(n as u32);
        Ok((index, order))
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.size.len()
    }

    /// Postorder rank of `u`: of the nodes before `u` in preorder, all but
    /// its `depth` ancestors come before it in postorder, and so do its
    /// `size - 1` descendants.
    pub fn post(&self, u: NodeId) -> u32 {
        u + self.size[u as usize] - 1 - self.depth[u as usize]
    }

    /// Depth of `u` (roots are 0).
    pub fn depth(&self, u: NodeId) -> u32 {
        self.depth[u as usize]
    }

    /// Parent of `u`, `None` for roots.
    pub fn parent(&self, u: NodeId) -> Option<NodeId> {
        let p = self.parent[u as usize];
        (p != u32::MAX).then_some(p)
    }

    /// `u`'s subtree (`u` included) as the half-open interval of ranks
    /// `[u, u + size(u))` — every subtree test and subtree scan of this
    /// index is a comparison against it.
    pub fn subtree(&self, u: NodeId) -> (u32, u32) {
        (u, u + self.size[u as usize])
    }

    /// True if `v` is a descendant of `u` (descendant-or-self: `u == v`
    /// also answers true).
    pub fn is_descendant_or_self(&self, u: NodeId, v: NodeId) -> bool {
        let (lo, hi) = self.subtree(u);
        (lo..hi).contains(&v)
    }

    /// Classic pre/post formulation of the ancestor test (equivalent to the
    /// interval test; exposed for the paper-faithful axis checks).
    pub fn is_ancestor(&self, x: NodeId, y: NodeId) -> bool {
        x < y && self.post(x) > self.post(y)
    }

    /// Hop distance from `u` down to `v`, if `v` is in `u`'s subtree.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        self.is_descendant_or_self(u, v)
            .then(|| self.depth[v as usize] - self.depth[u as usize])
    }

    /// All descendants of `u` (excluding `u`), in preorder.
    pub fn descendants(&self, u: NodeId) -> impl Iterator<Item = NodeId> {
        let (lo, hi) = self.subtree(u);
        lo + 1..hi
    }

    /// Descendants of `u` carrying `label`, as `(node, distance)` sorted by
    /// ascending distance, ties by rank (the contract FliX's evaluator
    /// relies on).
    ///
    /// `include_self` controls whether `u` itself may qualify
    /// (descendant-or-self vs. strict descendant semantics).
    pub fn descendants_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        let list = self.label_list(label);
        graphcore::filled(|out| self.descendants_among_into(u, list, include_self, out, |v| v)).0
    }

    /// The ranks carrying `label`, ascending; empty if no node does.
    pub fn label_list(&self, label: u32) -> &[u32] {
        let Ok(k) = self.label_keys.binary_search(&label) else {
            return &[];
        };
        let (lo, hi) = (self.label_offsets[k], self.label_offsets[k + 1]);
        &self.label_ranks[lo as usize..hi as usize]
    }

    /// Ancestors of `u` from parent to root, each with its distance.
    pub fn ancestors(&self, u: NodeId) -> Vec<(NodeId, Distance)> {
        let mut out = Vec::new();
        let mut cur = u;
        let mut d = 0;
        while let Some(p) = self.parent(cur) {
            d += 1;
            out.push((p, d));
            cur = p;
        }
        out
    }

    /// Ancestors of `u` carrying `label`, nearest first.
    pub fn ancestors_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.ancestors_by_label_into(u, label, include_self, out)).0
    }

    /// [`Self::ancestors_by_label`] written into `out`, whose contents it
    /// replaces, returning the number of nodes probed on the parent chain
    /// (each probe is one row fetch in a database-backed deployment) — the
    /// ancestors mirror of [`Self::descendants_among_into`].
    pub fn ancestors_by_label_into(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        out.clear();
        let list = self.label_list(label);
        let mut probed = 0usize;
        let (mut cur, mut d) = if include_self {
            (Some(u), 0)
        } else {
            (self.parent(u), 1)
        };
        while let Some(a) = cur {
            probed += 1;
            if list.binary_search(&a).is_ok() {
                out.push((a, d));
            }
            cur = self.parent(a);
            d += 1;
        }
        probed
    }

    /// The members of `ranked` — ranks, ascending — inside `u`'s subtree,
    /// `u` itself only if `include_self`, with their depth below `u`,
    /// written into `out` (its contents replaced) ascending by distance,
    /// ties by `tie` of the rank; returns how many there are. A subtree is
    /// a rank interval, so this is one binary search plus the answer,
    /// whatever the length of `ranked` — and the answer is the run of
    /// `ranked` read, the rows a database-backed deployment pays for.
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

    /// The members of `sorted` — ranks in ascending order — on the path
    /// from `u` (included) up to its root, nearest first, written into
    /// `out`, whose contents it replaces: one binary search per step of the
    /// parent chain.
    pub fn ancestors_among_into(
        &self,
        u: NodeId,
        sorted: &[NodeId],
        out: &mut Vec<(NodeId, Distance)>,
    ) {
        out.clear();
        let (mut cur, mut d) = (Some(u), 0);
        while let Some(a) = cur {
            if sorted.binary_search(&a).is_ok() {
                out.push((a, d));
            }
            cur = self.parent(a);
            d += 1;
        }
    }

    /// The paper's Table 1 size of the index in bytes: per element a
    /// pre/post row of six `u32`s (pre, post, depth, parent, size, node)
    /// and a label row of two, as the paper's database holds them. It is
    /// not what this struct holds or persists — ranks are the ids, so pre
    /// and node are implicit and post is derived — and it counts elements,
    /// not the label table's bookkeeping, so the figure does not depend on
    /// how the index is laid out.
    pub fn size_bytes(&self) -> usize {
        (6 * 4 + 8) * self.node_count()
    }

    /// The first way the stored arrays are laid out so that a lookup would
    /// index or slice out of bounds, or walk a parent chain without end, if
    /// they are: the per-rank arrays and the labelled ranks all `n` long,
    /// the label offsets non-decreasing from 0 up to `n` behind strictly
    /// ascending keys, every labelled rank below `n`, every subtree inside
    /// the index (`r + size[r] ≤ n`) and every parent before its child. One
    /// pass over each array.
    pub fn layout_fault(&self) -> Option<String> {
        let n = self.node_count();
        let (depths, parents, ranks) =
            (self.depth.len(), self.parent.len(), self.label_ranks.len());
        if depths != n || parents != n || ranks != n {
            return Some(format!(
                "{n} subtree sizes, {depths} depths, {parents} parents, {ranks} labelled ranks"
            ));
        }
        let (keys, offsets) = (&self.label_keys, &self.label_offsets);
        let bounded = offsets.first() == Some(&0) && offsets.last() == Some(&(n as u32));
        if offsets.len() != keys.len() + 1 || !bounded || offsets.windows(2).any(|w| w[0] > w[1]) {
            let bounds = keys.len() + 1;
            return Some(format!(
                "label offsets are not {bounds} non-decreasing bounds from 0 to {n}"
            ));
        }
        if let Some(at) = keys.windows(2).position(|w| w[0] >= w[1]) {
            return Some(format!(
                "label keys are not ascending at position {}",
                at + 1
            ));
        }
        if let Some(r) = self.label_ranks.iter().find(|&&r| r as usize >= n) {
            return Some(format!("a label list names rank {r} of {n}"));
        }
        let mut ranked = (0u32..).zip(self.size.iter().zip(&self.parent));
        ranked.find_map(|(r, (&size, &p))| {
            if u64::from(r) + u64::from(size) > n as u64 {
                Some(format!("rank {r}'s subtree of {size} ends past {n}"))
            } else {
                (p >= r && p != NodeId::MAX).then(|| format!("rank {r}'s parent is rank {p}"))
            }
        })
    }
}

impl flixcheck::IntegrityCheck for PpoIndex {
    /// Audits the interval structure in rank form: the layout must be sound
    /// ([`PpoIndex::layout_fault`]), parent intervals must nest child
    /// intervals, depths must increase by one along parent edges, subtree
    /// sizes must satisfy the size recurrence, and the label lists must
    /// cover every rank exactly once, each ascending.
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

        let mut first = None;
        for r in 0..n {
            let (p, d) = (self.parent[r], self.depth[r]);
            if p == NodeId::MAX {
                if d != 0 {
                    first = Some(format!("root {r} has depth {d}"));
                    break;
                }
                continue;
            }
            let p = p as usize;
            if d != self.depth[p] + 1 {
                first = Some(format!(
                    "rank {r}: depth {d} but parent {p} has depth {}",
                    self.depth[p]
                ));
                break;
            }
            let (end, parent_end) = (r + self.size[r] as usize, p + self.size[p] as usize);
            if end > parent_end {
                first = Some(format!(
                    "rank {r}: interval [{r}, {end}) escapes parent {p} [{p}, {parent_end})"
                ));
                break;
            }
        }
        audit.check(
            "parent intervals nest children (rank/depth consistent)",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut child_sum = vec![0u64; n];
        for r in 0..n {
            if let Some(p) = self.parent(r as NodeId) {
                child_sum[p as usize] += u64::from(self.size[r]);
            }
        }
        let first = child_sum
            .iter()
            .zip(&self.size)
            .position(|(&sum, &size)| u64::from(size) != sum + 1)
            .map(|r| {
                let (size, sum) = (self.size[r], child_sum[r] + 1);
                format!("rank {r}: size {size} but 1 + children sizes = {sum}")
            });
        audit.check(
            "subtree sizes satisfy the size recurrence",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut covered = vec![false; n];
        let mut first = None;
        'lists: for (&label, w) in self.label_keys.iter().zip(self.label_offsets.windows(2)) {
            let list = &self.label_ranks[w[0] as usize..w[1] as usize];
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

        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        PpoIndex::build(&g, &[0, 1, 1, 2, 2, 2, 1]).unwrap()
    }

    #[test]
    fn pre_post_invariants() {
        let (idx, order) = tree();
        assert_eq!(order, vec![0, 1, 3, 4, 6, 2, 5]);
        assert_eq!(idx.depth(4), 3);
        assert_eq!(idx.parent(4), Some(3));
        assert_eq!(idx.parent(0), None);
        // postorder 3, 6, 4, 1, 5, 2, 0 — by rank 2, 4, 3, 1, 6, 5, 0
        let post: Vec<u32> = (0..7).map(|r| idx.post(r)).collect();
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
                assert_eq!(idx.is_descendant_or_self(u, v), reaches, "pair {u},{v}");
                if u != v {
                    assert_eq!(idx.is_ancestor(u, v), reaches);
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
        let r = idx.descendants_by_label(0, 1, false);
        assert_eq!(r, vec![(1, 1), (5, 1), (4, 3)]);
        // include_self on a B node
        let r = idx.descendants_by_label(1, 1, true);
        assert_eq!(r, vec![(1, 0), (4, 2)]);
        // no match
        assert!(idx.descendants_by_label(6, 0, false).is_empty());
        // unknown label entirely
        assert!(idx.descendants_by_label(0, 99, true).is_empty());
        assert_eq!(idx.label_list(1), &[1, 4, 5]);
        assert!(idx.label_list(99).is_empty());
    }

    #[test]
    fn descendants_iterator_is_subtree() {
        let (idx, _) = tree();
        assert_eq!(idx.descendants(1).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(idx.descendants(6).count(), 0);
        assert_eq!(idx.subtree(1), (1, 5));
        assert_eq!(idx.subtree(6), (6, 7));
    }

    #[test]
    fn ancestors_walk() {
        let (idx, _) = tree();
        assert_eq!(idx.ancestors(4), vec![(3, 1), (1, 2), (0, 3)]);
        // B-labelled ancestors of node 6 (rank 4): node 1 at distance 2 (+ self at 0)
        assert_eq!(idx.ancestors_by_label(4, 1, true), vec![(4, 0), (1, 2)]);
        assert_eq!(idx.ancestors_by_label(4, 1, false), vec![(1, 2)]);
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
                }
                let above = scan(&mut anchors.iter().map(|&a| (a, idx.distance(a, u))));
                let got = graphcore::filled(|out| idx.ancestors_among_into(u, &anchors, out)).0;
                assert_eq!(got, above, "{u} {anchors:?}");
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
        let (idx, order) = PpoIndex::build(&g, &[0; 5]).unwrap();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(idx.is_descendant_or_self(2, 4));
        assert!(!idx.is_descendant_or_self(0, 3));
    }

    #[test]
    fn rejects_dag() {
        let g = Digraph::from_edges(3, [(0, 2), (1, 2)]);
        assert_eq!(
            PpoIndex::build(&g, &[0; 3]).unwrap_err(),
            PpoError::MultipleParents(2)
        );
    }

    #[test]
    fn rejects_cycle() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        assert_eq!(PpoIndex::build(&g, &[0; 3]).unwrap_err(), PpoError::Cyclic);
    }

    #[test]
    fn size_accounting_positive() {
        let (idx, _) = tree();
        assert_eq!(idx.size_bytes(), 7 * (6 * 4 + 8));
    }

    #[test]
    fn layout_faults_are_named() {
        let (idx, _) = tree();
        assert_eq!(idx.layout_fault(), None);
        type Damage = (fn(&mut PpoIndex), &'static str);
        let damage: [Damage; 7] = [
            (|i| i.parent.truncate(6), "6 parents"),
            (|i| i.label_offsets[1] = 8, "non-decreasing bounds"),
            (|i| i.label_offsets.truncate(3), "non-decreasing bounds"),
            (|i| i.label_keys.swap(0, 1), "keys are not ascending"),
            (|i| i.label_ranks[2] = 7, "names rank 7"),
            (|i| i.size[5] = 3, "ends past 7"),
            (|i| i.parent[2] = 2, "parent is rank 2"),
        ];
        for (damage, fault) in damage {
            let mut bad = idx.clone();
            damage(&mut bad);
            let found = bad.layout_fault().unwrap_or_default();
            assert!(found.contains(fault), "{fault}: {found}");
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
        let mut bad = idx.clone();
        bad.label_ranks[0] = bad.label_ranks[1];
        assert!(bad.integrity_check().is_err());
        // a label list out of order
        let mut bad = idx.clone();
        bad.label_ranks.swap(1, 2);
        assert!(bad.integrity_check().is_err());
        // a corrupted depth breaks parent consistency
        let mut bad = idx.clone();
        bad.depth[4] += 7;
        assert!(bad.integrity_check().is_err());
        // a bad layout is reported on its own
        let mut bad = idx;
        bad.parent[2] = 2;
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("parent is rank 2"), "{err}");
    }
}
