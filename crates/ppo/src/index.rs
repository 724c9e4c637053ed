//! The classic pre/postorder index over a forest.

use graphcore::{Digraph, Distance, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// Pre/postorder index over a forest with per-node labels.
///
/// Labels are opaque `u32`s (FliX passes interned tag ids). Per label the
/// index keeps the preorder ranks of all nodes carrying it, so a
/// descendants-by-label query is a binary search plus a contiguous scan —
/// the operation the paper's structural-vagueness queries hammer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PpoIndex {
    /// Preorder rank per node.
    #[serde(with = "graphcore::flat")]
    pre: Vec<u32>,
    /// Postorder rank per node.
    #[serde(with = "graphcore::flat")]
    post: Vec<u32>,
    /// Depth per node (roots have depth 0).
    #[serde(with = "graphcore::flat")]
    depth: Vec<u32>,
    /// Parent per node (`u32::MAX` for roots).
    #[serde(with = "graphcore::flat")]
    parent: Vec<NodeId>,
    /// Subtree size per node (including the node).
    #[serde(with = "graphcore::flat")]
    size: Vec<u32>,
    /// `pre_to_node[r]` = node with preorder rank `r`.
    #[serde(with = "graphcore::flat")]
    pre_to_node: Vec<NodeId>,
    /// label -> sorted `(pre, node)` pairs. A `BTreeMap` so the serialized
    /// image is deterministic (persisted frameworks must be byte-identical
    /// across builds of the same collection).
    by_label: BTreeMap<u32, Vec<(u32, NodeId)>>,
}

impl PpoIndex {
    /// Builds the index over `g`, which must be a forest.
    ///
    /// `labels[u]` is the label of node `u` (`labels.len() == node count`).
    pub fn build(g: &Digraph, labels: &[u32]) -> Result<Self, PpoError> {
        assert_eq!(labels.len(), g.node_count(), "one label per node");
        let n = g.node_count();
        for u in g.nodes() {
            if g.in_degree(u) > 1 {
                return Err(PpoError::MultipleParents(u));
            }
        }
        let mut pre = vec![u32::MAX; n];
        let mut post = vec![u32::MAX; n];
        let mut depth = vec![0u32; n];
        let mut parent = vec![u32::MAX; n];
        let mut size = vec![1u32; n];
        let mut pre_to_node = vec![0 as NodeId; n];
        let mut next_pre = 0u32;
        let mut next_post = 0u32;
        // Iterative DFS per root; (node, child cursor).
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for root in g.nodes() {
            if g.in_degree(root) != 0 {
                continue;
            }
            pre[root as usize] = next_pre;
            pre_to_node[next_pre as usize] = root;
            next_pre += 1;
            stack.push((root, 0));
            while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
                let kids = g.successors(u);
                if *cursor < kids.len() {
                    let v = kids[*cursor];
                    *cursor += 1;
                    parent[v as usize] = u;
                    depth[v as usize] = depth[u as usize] + 1;
                    pre[v as usize] = next_pre;
                    pre_to_node[next_pre as usize] = v;
                    next_pre += 1;
                    stack.push((v, 0));
                } else {
                    post[u as usize] = next_post;
                    next_post += 1;
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        size[p as usize] += size[u as usize];
                    }
                }
            }
        }
        if next_pre as usize != n {
            // Some node was never reached from an in-degree-0 root, which in
            // an in-degree<=1 graph means a cycle.
            return Err(PpoError::Cyclic);
        }
        let mut by_label: BTreeMap<u32, Vec<(u32, NodeId)>> = BTreeMap::new();
        for u in 0..n {
            by_label
                .entry(labels[u])
                .or_default()
                .push((pre[u], u as NodeId));
        }
        for list in by_label.values_mut() {
            list.sort_unstable();
        }
        Ok(Self {
            pre,
            post,
            depth,
            parent,
            size,
            pre_to_node,
            by_label,
        })
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.pre.len()
    }

    /// Preorder rank of `u`.
    pub fn pre(&self, u: NodeId) -> u32 {
        self.pre[u as usize]
    }

    /// Postorder rank of `u`.
    pub fn post(&self, u: NodeId) -> u32 {
        self.post[u as usize]
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

    /// `u`'s subtree (`u` included) as the half-open interval of preorder
    /// ranks `[pre(u), pre(u) + size(u))` — every subtree test and subtree
    /// scan of this index is a comparison against it.
    pub fn subtree(&self, u: NodeId) -> (u32, u32) {
        let lo = self.pre[u as usize];
        (lo, lo + self.size[u as usize])
    }

    /// True if `v` is a descendant of `u` (descendant-or-self: `u == v`
    /// also answers true).
    pub fn is_descendant_or_self(&self, u: NodeId, v: NodeId) -> bool {
        let (lo, hi) = self.subtree(u);
        (lo..hi).contains(&self.pre[v as usize])
    }

    /// Classic pre/post formulation of the ancestor test (equivalent to the
    /// interval test; exposed for the paper-faithful axis checks).
    pub fn is_ancestor(&self, x: NodeId, y: NodeId) -> bool {
        self.pre[x as usize] < self.pre[y as usize] && self.post[x as usize] > self.post[y as usize]
    }

    /// Hop distance from `u` down to `v`, if `v` is in `u`'s subtree.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        self.is_descendant_or_self(u, v)
            .then(|| self.depth[v as usize] - self.depth[u as usize])
    }

    /// All descendants of `u` (excluding `u`), in preorder.
    pub fn descendants(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (lo, hi) = self.subtree(u);
        self.pre_to_node[lo as usize + 1..hi as usize]
            .iter()
            .copied()
    }

    /// Descendants of `u` carrying `label`, as `(node, distance)` sorted by
    /// ascending distance (the contract FliX's evaluator relies on).
    ///
    /// `include_self` controls whether `u` itself may qualify
    /// (descendant-or-self vs. strict descendant semantics).
    pub fn descendants_with_label(
        &self,
        u: NodeId,
        label_nodes: Option<&[(u32, NodeId)]>,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.descendants_with_label_into(u, label_nodes, include_self, out))
            .0
    }

    /// [`Self::descendants_with_label`] written into `out`, whose contents
    /// it replaces, returning the number of index rows touched (the scanned
    /// range of the per-label rank list) — the unit a database-backed
    /// deployment pays per row fetch.
    pub fn descendants_with_label_into(
        &self,
        u: NodeId,
        label_nodes: Option<&[(u32, NodeId)]>,
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        out.clear();
        let Some(list) = label_nodes else {
            return 0;
        };
        let (lo, hi) = self.subtree(u);
        let lo = lo + u32::from(!include_self);
        // One search finds the range's start; reading the answer finds its end.
        let start = list.partition_point(|&(p, _)| p < lo);
        let inside = list[start..].iter().take_while(|&&(p, _)| p < hi);
        let depth = |v: NodeId| self.depth[v as usize] - self.depth[u as usize];
        out.extend(inside.map(|&(_, v)| (v, depth(v))));
        out.sort_unstable_by_key(|&(v, d)| (d, v));
        out.len()
    }

    /// Convenience wrapper over [`Self::descendants_with_label`] using the
    /// index's own label table.
    pub fn descendants_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        self.descendants_with_label(u, self.label_list(label), include_self)
    }

    /// The sorted `(pre, node)` list for a label, if any node carries it.
    pub fn label_list(&self, label: u32) -> Option<&[(u32, NodeId)]> {
        self.by_label.get(&label).map(Vec::as_slice)
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
    /// ancestors mirror of [`Self::descendants_with_label_into`].
    pub fn ancestors_by_label_into(
        &self,
        u: NodeId,
        label: u32,
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
            if self.node_label_matches(a, label) {
                out.push((a, d));
            }
            cur = self.parent(a);
            d += 1;
        }
        probed
    }

    /// The members of `ranked` — node ids in ascending *preorder rank* —
    /// inside `u`'s subtree (`u` included), with their depth below `u`,
    /// ascending by `(distance, node)`. A subtree is the rank interval
    /// `[pre(u), pre(u) + size(u))`, so this is one binary search plus the
    /// answer, whatever the length of `ranked`.
    pub fn descendants_among(&self, u: NodeId, ranked: &[NodeId]) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.descendants_among_into(u, ranked, out)).0
    }

    /// [`Self::descendants_among`] written into `out`, whose contents it
    /// replaces.
    pub fn descendants_among_into(
        &self,
        u: NodeId,
        ranked: &[NodeId],
        out: &mut Vec<(NodeId, Distance)>,
    ) {
        let (lo, hi) = self.subtree(u);
        // One search finds the range's start; reading the answer finds its end.
        let start = ranked.partition_point(|&v| self.pre[v as usize] < lo);
        let inside = ranked[start..]
            .iter()
            .take_while(|&&v| self.pre[v as usize] < hi);
        let depth = |v: NodeId| self.depth[v as usize] - self.depth[u as usize];
        out.clear();
        out.extend(inside.map(|&v| (v, depth(v))));
        out.sort_unstable_by_key(|&(v, d)| (d, v));
    }

    /// The members of `sorted` — node ids in ascending order — on the path
    /// from `u` (included) up to its root, nearest first: one binary search
    /// per step of the parent chain.
    pub fn ancestors_among(&self, u: NodeId, sorted: &[NodeId]) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.ancestors_among_into(u, sorted, out)).0
    }

    /// [`Self::ancestors_among`] written into `out`, whose contents it
    /// replaces.
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

    fn node_label_matches(&self, u: NodeId, label: u32) -> bool {
        self.by_label
            .get(&label)
            .is_some_and(|l| l.binary_search(&(self.pre[u as usize], u)).is_ok())
    }

    /// Approximate in-memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        let n = self.pre.len();
        let label_entries: usize = self.by_label.values().map(Vec::len).sum();
        6 * 4 * n + label_entries * 8
    }
}

impl flixcheck::IntegrityCheck for PpoIndex {
    /// Audits the interval structure: `pre`/`post` must be inverse-mapped
    /// permutations, parent intervals must strictly nest child intervals,
    /// depths must increase by one along parent edges, subtree sizes must
    /// satisfy the size recurrence, and the per-label lists must cover
    /// every node exactly once in strict preorder.
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("PpoIndex");
        let n = self.pre.len();
        audit.check(
            "parallel arrays same length",
            self.post.len() == n
                && self.depth.len() == n
                && self.parent.len() == n
                && self.size.len() == n
                && self.pre_to_node.len() == n,
            || {
                format!(
                    "pre={n} post={} depth={} parent={} size={} pre_to_node={}",
                    self.post.len(),
                    self.depth.len(),
                    self.parent.len(),
                    self.size.len(),
                    self.pre_to_node.len()
                )
            },
        );
        if audit.violation_count() > 0 {
            return audit.finish();
        }

        let mut first = None;
        for u in 0..n {
            let r = self.pre[u] as usize;
            if r >= n || self.pre_to_node[r] != u as NodeId {
                first = Some(format!(
                    "node {u}: pre rank {r} not inverted by pre_to_node"
                ));
                break;
            }
        }
        audit.check("pre/pre_to_node inverse bijection", first.is_none(), || {
            first.unwrap_or_default()
        });

        let mut seen = vec![false; n];
        let mut first = None;
        for u in 0..n {
            let r = self.post[u] as usize;
            if r >= n || seen[r] {
                first = Some(format!(
                    "node {u}: post rank {} out of range or duplicated",
                    self.post[u]
                ));
                break;
            }
            seen[r] = true;
        }
        audit.check("post is a permutation of 0..n", first.is_none(), || {
            first.unwrap_or_default()
        });

        let mut first = None;
        for u in 0..n {
            let p = self.parent[u];
            if p == NodeId::MAX {
                if self.depth[u] != 0 {
                    first = Some(format!("root {u} has depth {}", self.depth[u]));
                    break;
                }
                continue;
            }
            let p = p as usize;
            if p >= n || p == u {
                first = Some(format!("node {u}: parent {p} invalid"));
                break;
            }
            if self.depth[u] != self.depth[p] + 1 {
                first = Some(format!(
                    "node {u}: depth {} but parent {p} has depth {}",
                    self.depth[u], self.depth[p]
                ));
                break;
            }
            let nested = self.pre[p] < self.pre[u]
                && self.post[p] > self.post[u]
                && self.pre[u] + self.size[u] <= self.pre[p] + self.size[p];
            if !nested {
                first = Some(format!(
                    "node {u}: interval [{}, {}) post {} escapes parent {p} [{}, {}) post {}",
                    self.pre[u],
                    self.pre[u] + self.size[u],
                    self.post[u],
                    self.pre[p],
                    self.pre[p] + self.size[p],
                    self.post[p]
                ));
                break;
            }
        }
        audit.check(
            "parent intervals nest children (pre/post/depth consistent)",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut child_sum = vec![0u64; n];
        for u in 0..n {
            let p = self.parent[u];
            if p != NodeId::MAX && (p as usize) < n {
                child_sum[p as usize] += u64::from(self.size[u]);
            }
        }
        let mut first = None;
        for (u, &sum) in child_sum.iter().enumerate() {
            if u64::from(self.size[u]) != sum + 1 {
                first = Some(format!(
                    "node {u}: size {} but 1 + children sizes = {}",
                    self.size[u],
                    sum + 1
                ));
                break;
            }
        }
        audit.check(
            "subtree sizes satisfy the size recurrence",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut covered = vec![false; n];
        let mut total = 0usize;
        let mut first = None;
        'outer: for (label, list) in &self.by_label {
            let mut prev: Option<u32> = None;
            for &(r, v) in list {
                total += 1;
                if prev.is_some_and(|p| p >= r) {
                    first = Some(format!(
                        "label {label}: list not strictly sorted at pre {r}"
                    ));
                    break 'outer;
                }
                prev = Some(r);
                let vu = v as usize;
                if vu >= n || self.pre[vu] != r {
                    first = Some(format!(
                        "label {label}: entry ({r}, {v}) disagrees with pre[]"
                    ));
                    break 'outer;
                }
                if covered[vu] {
                    first = Some(format!("node {v} appears under more than one label"));
                    break 'outer;
                }
                covered[vu] = true;
            }
        }
        if first.is_none() && total != n {
            first = Some(format!("label lists hold {total} entries for {n} nodes"));
        }
        audit.check(
            "label lists partition the nodes in strict preorder",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example tree:
    /// ```text
    ///        0
    ///      /   \
    ///     1     2
    ///    / \     \
    ///   3   4     5
    ///        \
    ///         6
    /// ```
    fn tree() -> (Digraph, Vec<u32>) {
        let g = Digraph::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 6), (2, 5)]);
        // labels: 0=A, 1=B, 2=B, 3=C, 4=C, 5=C, 6=B
        (g, vec![0, 1, 1, 2, 2, 2, 1])
    }

    #[test]
    fn pre_post_invariants() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        // all ranks distinct and within range
        let mut pres: Vec<u32> = (0..7).map(|u| idx.pre(u)).collect();
        pres.sort_unstable();
        assert_eq!(pres, (0..7).collect::<Vec<_>>());
        assert_eq!(idx.pre(0), 0);
        assert_eq!(idx.depth(6), 3);
        assert_eq!(idx.parent(6), Some(4));
        assert_eq!(idx.parent(0), None);
    }

    #[test]
    fn ancestor_test_matches_paper_formula() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        let oracle = graphcore::TransitiveClosure::build(&g);
        for u in 0..7u32 {
            for v in 0..7u32 {
                assert_eq!(
                    idx.is_descendant_or_self(u, v),
                    oracle.reaches(u, v),
                    "pair {u},{v}"
                );
                if u != v {
                    assert_eq!(idx.is_ancestor(u, v), oracle.reaches(u, v));
                }
            }
        }
    }

    #[test]
    fn distances_are_depth_differences() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        assert_eq!(idx.distance(0, 6), Some(3));
        assert_eq!(idx.distance(1, 6), Some(2));
        assert_eq!(idx.distance(6, 0), None);
        assert_eq!(idx.distance(2, 2), Some(0));
    }

    #[test]
    fn descendants_by_label_sorted_by_distance() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        // label 1 (B) under root: nodes 1 (d=1), 2 (d=1), 6 (d=3)
        let r = idx.descendants_by_label(0, 1, false);
        assert_eq!(r, vec![(1, 1), (2, 1), (6, 3)]);
        // include_self on a B node
        let r = idx.descendants_by_label(1, 1, true);
        assert_eq!(r, vec![(1, 0), (6, 2)]);
        // no match
        assert!(idx.descendants_by_label(5, 0, false).is_empty());
        // unknown label entirely
        assert!(idx.descendants_by_label(0, 99, true).is_empty());
    }

    #[test]
    fn descendants_iterator_is_subtree() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        let mut d: Vec<NodeId> = idx.descendants(1).collect();
        d.sort_unstable();
        assert_eq!(d, vec![3, 4, 6]);
        assert_eq!(idx.descendants(5).count(), 0);
        assert_eq!(idx.subtree(1), (idx.pre(1), idx.pre(1) + 4));
        assert_eq!(idx.subtree(5), (idx.pre(5), idx.pre(5) + 1));
    }

    #[test]
    fn ancestors_walk() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        assert_eq!(idx.ancestors(6), vec![(4, 1), (1, 2), (0, 3)]);
        // B-labelled ancestors of 6: node 1 at distance 2 (+ self at 0)
        assert_eq!(idx.ancestors_by_label(6, 1, true), vec![(6, 0), (1, 2)]);
        assert_eq!(idx.ancestors_by_label(6, 1, false), vec![(1, 2)]);
    }

    #[test]
    fn anchored_lookups_match_the_distance_scan() {
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        for anchors in [
            vec![],
            vec![6],
            vec![0, 2, 3, 6],
            (0..7).collect::<Vec<_>>(),
        ] {
            let mut ranked: Vec<NodeId> = anchors.clone();
            ranked.sort_unstable_by_key(|&v| idx.pre(v));
            for u in 0..7u32 {
                let scan = |pairs: &mut dyn Iterator<Item = (NodeId, Option<Distance>)>| {
                    let mut out: Vec<(NodeId, Distance)> =
                        pairs.filter_map(|(v, d)| d.map(|d| (v, d))).collect();
                    out.sort_unstable_by_key(|&(v, d)| (d, v));
                    out
                };
                let below = scan(&mut anchors.iter().map(|&a| (a, idx.distance(u, a))));
                assert_eq!(idx.descendants_among(u, &ranked), below, "{u} {anchors:?}");
                let above = scan(&mut anchors.iter().map(|&a| (a, idx.distance(a, u))));
                assert_eq!(idx.ancestors_among(u, &anchors), above, "{u} {anchors:?}");
            }
        }
    }

    #[test]
    fn forest_with_multiple_roots() {
        let g = Digraph::from_edges(5, [(0, 1), (2, 3), (2, 4)]);
        let idx = PpoIndex::build(&g, &[0; 5]).unwrap();
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
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        assert!(idx.size_bytes() > 0);
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let (g, labels) = tree();
        let idx = PpoIndex::build(&g, &labels).unwrap();
        idx.integrity_check().unwrap();
        // swapped preorder ranks break the inverse map
        let mut bad = idx.clone();
        bad.pre.swap(0, 1);
        assert!(bad.integrity_check().is_err());
        // an inflated subtree size breaks the recurrence
        let mut bad = idx.clone();
        bad.size[0] += 1;
        assert!(bad.integrity_check().is_err());
        // a dropped label entry breaks node coverage
        let mut bad = idx.clone();
        let k = *bad.by_label.keys().next().unwrap();
        bad.by_label.get_mut(&k).unwrap().pop();
        assert!(bad.integrity_check().is_err());
        // a corrupted depth breaks parent consistency
        let mut bad = idx;
        if let Some(u) = (0..bad.node_count() as NodeId).find(|&u| bad.parent(u).is_some()) {
            bad.depth[u as usize] += 7;
            assert!(bad.integrity_check().is_err());
        }
    }
}
