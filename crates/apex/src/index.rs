//! The queryable APEX index.

use crate::summary::StructuralSummary;
use graphcore::{BitSet, Digraph, DistScratch, Distance, NodeId, TransitiveClosure};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::ControlFlow;

thread_local! {
    /// This thread's BFS scratch (visited set, distances and queue in one),
    /// shared by every [`ApexIndex`] the thread queries. Borrowed only
    /// inside [`ApexIndex::bfs`], whose callbacks are closures of this
    /// module that read the index's own tables, so a traversal can never
    /// re-enter it.
    static SCRATCH: RefCell<DistScratch> = const { RefCell::new(DistScratch::new()) };
}

/// APEX index: a structural summary over a retained element graph.
///
/// Label-path queries (`/a/b`) run on the summary alone. Descendants-or-
/// self queries traverse the element graph, pruned by summary-level
/// reachability — correct, but per-element work, which is what makes APEX
/// the slow baseline in the paper's experiments.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApexIndex {
    graph: Digraph,
    #[serde(with = "graphcore::flat")]
    labels: Vec<u32>,
    summary: StructuralSummary,
    /// Summary-level transitive closure (small).
    summary_closure: TransitiveClosure,
    /// `label_reach[c]` = labels reachable from summary class `c`
    /// (including its own), as a bitset over label ids.
    label_reach: Vec<BitSet>,
    max_label: u32,
}

impl ApexIndex {
    /// Builds APEX-0 refined `k` rounds over `g`.
    pub fn build(g: &Digraph, labels: &[u32], refine_rounds: usize) -> Self {
        let summary = StructuralSummary::apex0(g, labels).refine(g, labels, refine_rounds);
        Self::from_summary(g.clone(), labels.to_vec(), summary)
    }

    /// Builds APEX-0 refined adaptively for a workload of frequent paths.
    pub fn build_adaptive(g: &Digraph, labels: &[u32], paths: &[Vec<u32>]) -> Self {
        let summary = StructuralSummary::apex0(g, labels).refine_for_paths(g, labels, paths);
        Self::from_summary(g.clone(), labels.to_vec(), summary)
    }

    fn from_summary(graph: Digraph, labels: Vec<u32>, summary: StructuralSummary) -> Self {
        let summary_closure = TransitiveClosure::build(&summary.graph);
        let max_label = labels.iter().copied().max().unwrap_or(0);
        let mut label_reach = Vec::with_capacity(summary.class_count());
        for c in 0..summary.class_count() as u32 {
            let mut set = BitSet::new(max_label as usize + 1);
            for rc in summary_closure.descendants(c) {
                set.insert(summary.class_label[rc as usize] as usize);
            }
            label_reach.push(set);
        }
        Self {
            graph,
            labels,
            summary,
            summary_closure,
            label_reach,
            max_label,
        }
    }

    /// The structural summary.
    pub fn summary(&self) -> &StructuralSummary {
        &self.summary
    }

    /// Elements matched by an absolute child-axis label path `/p0/p1/.../pk`
    /// (p0 must label a root-class element). Runs on the summary, then
    /// verifies each extent element against the element graph, so refined
    /// and coarse summaries answer identically.
    pub fn elements_with_path(&self, path: &[u32]) -> Vec<NodeId> {
        if path.is_empty() {
            return Vec::new();
        }
        // Candidate classes per step through the summary graph.
        let mut classes: Vec<u32> = self
            .summary
            .classes_with_label(path[0])
            .into_iter()
            .filter(|&c| {
                self.summary.extents[c as usize]
                    .iter()
                    .any(|&u| self.graph.in_degree(u) == 0)
            })
            .collect();
        for &label in &path[1..] {
            let mut next: Vec<u32> = Vec::new();
            for &c in &classes {
                for &s in self.summary.graph.successors(c) {
                    if self.summary.class_label[s as usize] == label {
                        next.push(s);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            classes = next;
        }
        // Verify elements: walk the concrete parent chain backwards.
        let mut out: Vec<NodeId> = Vec::new();
        for &c in &classes {
            'candidate: for &u in &self.summary.extents[c as usize] {
                // match path suffix-first from u upwards
                let mut frontier = vec![u];
                for step in (0..path.len() - 1).rev() {
                    let mut parents = Vec::new();
                    for &f in &frontier {
                        for &p in self.graph.predecessors(f) {
                            if self.labels[p as usize] == path[step] {
                                parents.push(p);
                            }
                        }
                    }
                    if parents.is_empty() {
                        continue 'candidate;
                    }
                    frontier = parents;
                }
                if frontier.iter().any(|&r| self.graph.in_degree(r) == 0) {
                    out.push(u);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The one traversal: BFS from `u` over successors (`forward`) or
    /// predecessors, entering only the neighbours `enter` admits. `visit`
    /// sees every reached element with its distance, `u` first, in BFS
    /// order (ascending distance), and may end the walk.
    fn bfs(
        &self,
        u: NodeId,
        forward: bool,
        enter: impl Fn(NodeId) -> bool,
        mut visit: impl FnMut(NodeId, Distance) -> ControlFlow<()>,
    ) {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.begin(self.graph.node_count());
            scratch.relax(u, 0);
            // The first-touch list doubles as the BFS queue.
            let mut head = 0;
            while let Some((x, d)) = scratch.nth(head) {
                head += 1;
                if visit(x, d).is_break() {
                    return;
                }
                let next = if forward {
                    self.graph.successors(x)
                } else {
                    self.graph.predecessors(x)
                };
                for &v in next {
                    if scratch.get(v).is_none() && enter(v) {
                        scratch.relax(v, d + 1);
                    }
                }
            }
        });
    }

    /// [`Self::bfs`] collecting the elements `keep` admits into `out`,
    /// whose contents it replaces; returns the number of elements visited.
    fn collect_into(
        &self,
        u: NodeId,
        forward: bool,
        enter: impl Fn(NodeId) -> bool,
        keep: impl Fn(NodeId) -> bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        out.clear();
        let mut visited = 0usize;
        self.bfs(u, forward, enter, |x, d| {
            visited += 1;
            if keep(x) {
                out.push((x, d));
            }
            ControlFlow::Continue(())
        });
        visited
    }

    /// Descendants of `u` carrying `label`, ascending by distance.
    ///
    /// Summary-pruned BFS over the element graph: a branch is only expanded
    /// while its summary class can still reach the target label.
    pub fn descendants_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        self.descendants_by_label_counted(u, label, include_self).0
    }

    /// [`Self::descendants_by_label`] plus the number of elements visited
    /// by the traversal — the per-element table accesses a database-backed
    /// APEX pays, and the reason it loses Figure 5 in the paper.
    pub fn descendants_by_label_counted(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> (Vec<(NodeId, Distance)>, usize) {
        graphcore::filled(|out| self.descendants_by_label_into(u, label, include_self, out))
    }

    /// [`Self::descendants_by_label_counted`] written into `out`, whose
    /// contents it replaces; returns the elements visited.
    pub fn descendants_by_label_into(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        if label > self.max_label {
            out.clear();
            return 0;
        }
        // prune: enter a branch only while something with this label is
        // still reachable down there
        let can_reach = |v: NodeId| {
            let class = self.summary.class_of[v as usize];
            self.label_reach[class as usize].contains(label as usize)
        };
        let matches = |x: NodeId| self.labels[x as usize] == label && (include_self || x != u);
        self.collect_into(u, true, can_reach, matches, out)
    }

    /// The members of `anchors` (ascending ids) among `u`'s descendants,
    /// `u` included, ascending by `(distance, element)` — a plain BFS: the
    /// anchors carry any label, so there is nothing to prune by.
    pub fn descendants_among(&self, u: NodeId, anchors: &[NodeId]) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.among_into(u, true, anchors, out)).0
    }

    /// The members of `anchors` (ascending ids) among `u`'s ancestors, `u`
    /// included, ascending by `(distance, element)`.
    pub fn ancestors_among(&self, u: NodeId, anchors: &[NodeId]) -> Vec<(NodeId, Distance)> {
        graphcore::filled(|out| self.among_into(u, false, anchors, out)).0
    }

    /// [`Self::descendants_among`] (`forward`) or [`Self::ancestors_among`]
    /// written into `out`, whose contents it replaces.
    pub fn among_into(
        &self,
        u: NodeId,
        forward: bool,
        anchors: &[NodeId],
        out: &mut Vec<(NodeId, Distance)>,
    ) {
        let is_anchor = |x: NodeId| anchors.binary_search(&x).is_ok();
        self.collect_into(u, forward, |_| true, is_anchor, out);
        out.sort_unstable_by_key(|&(v, d)| (d, v));
    }

    /// Reachability with summary pruning. Distances come from the traversal
    /// (exact, but paid per query).
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        let target_class = self.summary.class_of[v as usize];
        let can_reach = |w: NodeId| {
            self.summary_closure
                .reaches(self.summary.class_of[w as usize], target_class)
        };
        let mut found = None;
        self.bfs(u, true, can_reach, |x, d| {
            if x == v {
                found = Some(d);
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        found
    }

    /// Reachability test.
    pub fn is_reachable(&self, u: NodeId, v: NodeId) -> bool {
        self.distance(u, v).is_some()
    }

    /// Ancestors of `u` carrying `label` (reverse BFS), ascending distance.
    pub fn ancestors_by_label(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> Vec<(NodeId, Distance)> {
        self.ancestors_by_label_counted(u, label, include_self).0
    }

    /// [`Self::ancestors_by_label`] plus the number of elements the reverse
    /// BFS visited — the ancestors mirror of
    /// [`Self::descendants_by_label_counted`].
    pub fn ancestors_by_label_counted(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> (Vec<(NodeId, Distance)>, usize) {
        graphcore::filled(|out| self.ancestors_by_label_into(u, label, include_self, out))
    }

    /// [`Self::ancestors_by_label_counted`] written into `out`, whose
    /// contents it replaces; returns the elements visited.
    pub fn ancestors_by_label_into(
        &self,
        u: NodeId,
        label: u32,
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        let matches = |x: NodeId| self.labels[x as usize] == label && (include_self || x != u);
        self.collect_into(u, false, |_| true, matches, out)
    }

    /// Approximate in-memory footprint: extents, summary edges, the
    /// summary closure, and the element-graph adjacency the traversals
    /// need (all stored as database tables in the paper's implementation).
    pub fn size_bytes(&self) -> usize {
        let extents: usize = self.summary.extents.iter().map(Vec::len).sum();
        extents * 4
            + self.summary.graph.size_bytes()
            + self.summary.class_count() * (self.max_label as usize + 1) / 8
            + self.graph.size_bytes()
    }
}

impl flixcheck::IntegrityCheck for ApexIndex {
    /// Audits the summary against the stored element graph: extents must
    /// partition the node set in agreement with `class_of`, every class
    /// must be label-homogeneous, the quotient graph must simulate the
    /// element graph (every inter-class element edge has a summary edge
    /// and every summary edge a witness), and `label_reach` must equal the labels of
    /// the closure-reachable classes.
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("ApexIndex");
        let n = self.graph.node_count();
        let classes = self.summary.extents.len();
        audit.check(
            "summary shape matches element graph",
            self.labels.len() == n
                && self.summary.class_of.len() == n
                && self.summary.class_label.len() == classes
                && self.summary.graph.node_count() == classes
                && self.label_reach.len() == classes,
            || {
                format!(
                    "n={n} labels={} class_of={} classes={classes} class_label={} \
                     summary graph={} label_reach={}",
                    self.labels.len(),
                    self.summary.class_of.len(),
                    self.summary.class_label.len(),
                    self.summary.graph.node_count(),
                    self.label_reach.len()
                )
            },
        );
        if audit.violation_count() > 0 {
            return audit.finish();
        }

        let mut seen = vec![false; n];
        let mut first = None;
        'extents: for (c, extent) in self.summary.extents.iter().enumerate() {
            let mut prev = None;
            for &u in extent {
                let uu = u as usize;
                if uu >= n || seen[uu] {
                    first = Some(format!("extent {c}: element {u} out of range or repeated"));
                    break 'extents;
                }
                if prev.is_some_and(|p| p >= u) {
                    first = Some(format!("extent {c} not ascending at element {u}"));
                    break 'extents;
                }
                prev = Some(u);
                seen[uu] = true;
                if self.summary.class_of[uu] != c as u32 {
                    first = Some(format!(
                        "element {u} in extent {c} but class_of says {}",
                        self.summary.class_of[uu]
                    ));
                    break 'extents;
                }
                if self.labels[uu] != self.summary.class_label[c] {
                    first = Some(format!(
                        "extent {c} has label {} but element {u} carries {}",
                        self.summary.class_label[c], self.labels[uu]
                    ));
                    break 'extents;
                }
            }
        }
        if first.is_none() {
            if let Some(u) = seen.iter().position(|&s| !s) {
                first = Some(format!("element {u} belongs to no extent"));
            }
        }
        audit.check(
            "extents partition the elements, label-homogeneously",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        // Within-class edges are exempt: `DigraphBuilder::build` drops self
        // loops, and reachability stays sound because the summary closure is
        // reflexive (the pruning BFS runs on the element graph anyway).
        let mut first = None;
        for (u, v) in self.graph.edges() {
            let (cu, cv) = (
                self.summary.class_of[u as usize],
                self.summary.class_of[v as usize],
            );
            if cu != cv && !self.summary.graph.has_edge(cu, cv) {
                first = Some(format!(
                    "element edge ({u}, {v}) has no summary edge ({cu}, {cv})"
                ));
                break;
            }
        }
        audit.check(
            "summary simulates every inter-class element edge",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut first = None;
        'witness: for (cu, cv) in self.summary.graph.edges() {
            for &u in &self.summary.extents[cu as usize] {
                for &v in self.graph.successors(u) {
                    if self.summary.class_of[v as usize] == cv {
                        continue 'witness;
                    }
                }
            }
            first = Some(format!("summary edge ({cu}, {cv}) has no element witness"));
            break;
        }
        audit.check(
            "every summary edge is witnessed by an element edge",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let mut first = None;
        'reach: for c in 0..classes as u32 {
            let mut want = graphcore::BitSet::new(self.max_label as usize + 1);
            for d in 0..classes as u32 {
                if self.summary_closure.reaches(c, d) {
                    want.insert(self.summary.class_label[d as usize] as usize);
                }
            }
            for l in 0..=self.max_label as usize {
                if want.contains(l) != self.label_reach[c as usize].contains(l) {
                    first = Some(format!(
                        "class {c}: label {l} reachability disagrees with the closure"
                    ));
                    break 'reach;
                }
            }
        }
        audit.check(
            "label_reach matches closure-reachable class labels",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DistanceOracle;

    /// article(0) -> title(1), article(0) -> sec(2) -> cite(3),
    /// cite(3) -> article(4) [link], article(4) -> title(5)
    fn sample() -> (Digraph, Vec<u32>) {
        let g = Digraph::from_edges(6, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)]);
        (g, vec![0, 1, 2, 3, 0, 1]) // article=0 title=1 sec=2 cite=3
    }

    #[test]
    fn path_lookup_on_summary() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 2);
        assert_eq!(idx.elements_with_path(&[0, 1]), vec![1]);
        assert_eq!(idx.elements_with_path(&[0, 2, 3]), vec![3]);
        assert!(idx.elements_with_path(&[1, 0]).is_empty());
        assert!(idx.elements_with_path(&[]).is_empty());
    }

    #[test]
    fn path_lookup_same_on_coarse_summary() {
        let (g, labels) = sample();
        let coarse = ApexIndex::build(&g, &labels, 0);
        let fine = ApexIndex::build(&g, &labels, 8);
        for path in [vec![0, 1], vec![0, 2], vec![0, 2, 3], vec![2, 3]] {
            assert_eq!(
                coarse.elements_with_path(&path),
                fine.elements_with_path(&path),
                "path {path:?}"
            );
        }
    }

    #[test]
    fn descendants_by_label_matches_oracle() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        let oracle = DistanceOracle::new(&g);
        for u in 0..6u32 {
            for label in 0..4u32 {
                let got = idx.descendants_by_label(u, label, true);
                let mut want: Vec<(NodeId, Distance)> = (0..6u32)
                    .filter(|&v| labels[v as usize] == label)
                    .filter_map(|v| {
                        let d = oracle.distance(u, v);
                        (d != u32::MAX).then_some((v, d))
                    })
                    .collect();
                want.sort_by_key(|&(v, d)| (d, v));
                let mut got_sorted = got.clone();
                got_sorted.sort_by_key(|&(v, d)| (d, v));
                assert_eq!(got_sorted, want, "u={u} label={label}");
                // ascending distance guaranteed by BFS
                assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    #[test]
    fn distance_and_reachability() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        let oracle = DistanceOracle::new(&g);
        for u in 0..6u32 {
            for v in 0..6u32 {
                let want = oracle.distance(u, v);
                assert_eq!(
                    idx.distance(u, v),
                    (want != u32::MAX).then_some(want),
                    "{u}->{v}"
                );
            }
        }
    }

    #[test]
    fn ancestors_by_label() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        let a = idx.ancestors_by_label(5, 0, false);
        assert_eq!(a, vec![(4, 1), (0, 4)]);
    }

    #[test]
    fn unknown_label_is_empty() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        assert!(idx.descendants_by_label(0, 99, true).is_empty());
    }

    #[test]
    fn adaptive_build_answers_same_queries() {
        let (g, labels) = sample();
        let idx = ApexIndex::build_adaptive(&g, &labels, &[vec![0, 2, 3]]);
        assert_eq!(idx.elements_with_path(&[0, 2, 3]), vec![3]);
        assert_eq!(idx.descendants_by_label(0, 1, false).len(), 2);
    }

    #[test]
    fn size_positive_and_dominated_by_graph() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        assert!(idx.size_bytes() >= g.size_bytes());
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 2);
        idx.integrity_check().unwrap();
        // moving an element to the wrong extent breaks the partition
        let mut bad = idx.clone();
        let moved = bad.summary.extents[0].pop().unwrap();
        bad.summary.extents[1].push(moved);
        bad.summary.extents[1].sort_unstable();
        assert!(bad.integrity_check().is_err());
        // relabelling a class breaks label homogeneity
        let mut bad = idx.clone();
        bad.summary.class_label[0] = bad.summary.class_label[0].wrapping_add(1);
        assert!(bad.integrity_check().is_err());
        // clearing a reach bitset breaks the closure agreement
        let mut bad = idx;
        bad.label_reach[0] = graphcore::BitSet::new(bad.max_label as usize + 1);
        assert!(bad.integrity_check().is_err());
    }
}
