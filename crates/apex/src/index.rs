//! The queryable APEX index.

use crate::summary::StructuralSummary;
use graphcore::{Axis, BitSet, Digraph, DistScratch, Distance, NodeId, TransitiveClosure};
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
/// Descendants-or-self queries traverse the element graph, pruned by
/// summary-level reachability — correct, but per-element work, which is
/// what makes APEX the slow baseline in the paper's experiments.
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
    /// Builds APEX-0 refined `refine_rounds` rounds over `g`.
    pub fn build(g: &Digraph, labels: &[u32], refine_rounds: usize) -> Self {
        let summary = StructuralSummary::apex0(g, labels).refine(g, labels, refine_rounds);
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
            graph: g.clone(),
            labels: labels.to_vec(),
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

    /// The one traversal: BFS from `u` along `axis` — over successors
    /// going down, predecessors going up — entering only the neighbours
    /// `enter` admits. `visit` sees every reached element with its
    /// distance, `u` first, in BFS order (ascending distance), and may end
    /// the walk.
    fn bfs(
        &self,
        u: NodeId,
        axis: Axis,
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
                let next = match axis {
                    Axis::Descendants => self.graph.successors(x),
                    Axis::Ancestors => self.graph.predecessors(x),
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
        axis: Axis,
        enter: impl Fn(NodeId) -> bool,
        keep: impl Fn(NodeId) -> bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        out.clear();
        let mut visited = 0usize;
        self.bfs(u, axis, enter, |x, d| {
            visited += 1;
            if keep(x) {
                out.push((x, d));
            }
            ControlFlow::Continue(())
        });
        visited
    }

    /// The elements carrying `label` along `axis` from `u` (`u` itself
    /// only if `include_self`), ascending by distance, written into `out`,
    /// whose contents it replaces; returns the number of elements the
    /// traversal visited — the per-element table accesses a
    /// database-backed APEX pays, and the reason it loses Figure 5 in the
    /// paper.
    ///
    /// Going down the BFS is summary-pruned: a branch is only expanded
    /// while its summary class can still reach the label. Going up it is
    /// plain.
    pub fn block_into(
        &self,
        axis: Axis,
        u: NodeId,
        label: u32,
        include_self: bool,
        out: &mut Vec<(NodeId, Distance)>,
    ) -> usize {
        let matches = |x: NodeId| self.labels[x as usize] == label && (include_self || x != u);
        match axis {
            Axis::Descendants if label > self.max_label => {
                out.clear();
                0
            }
            Axis::Descendants => {
                let can_reach = |v: NodeId| {
                    let class = self.summary.class_of[v as usize];
                    self.label_reach[class as usize].contains(label as usize)
                };
                self.collect_into(u, axis, can_reach, matches, out)
            }
            Axis::Ancestors => self.collect_into(u, axis, |_| true, matches, out),
        }
    }

    /// The members of `anchors` (ascending ids) along `axis` from `u`, `u`
    /// included, ascending by `(distance, element)`, written into `out`,
    /// whose contents it replaces — a plain BFS: the anchors carry any
    /// label, so there is nothing to prune by.
    pub fn among_into(
        &self,
        axis: Axis,
        u: NodeId,
        anchors: &[NodeId],
        out: &mut Vec<(NodeId, Distance)>,
    ) {
        let is_anchor = |x: NodeId| anchors.binary_search(&x).is_ok();
        self.collect_into(u, axis, |_| true, is_anchor, out);
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
        self.bfs(u, Axis::Descendants, can_reach, |x, d| {
            if x == v {
                found = Some(d);
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        found
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

    /// The first way the stored index is laid out so that a lookup would
    /// index or slice out of bounds, if it is: both graphs' CSR arrays
    /// sound ([`Digraph::layout_fault`]), `labels` and `class_of` one entry
    /// per element, every class id below the class count, `class_label`,
    /// `label_reach`, the summary graph and its closure one entry per
    /// class, and every `label_reach` row a set of `max_label + 1` labels.
    /// A built index never has one; a decoded image can (a damaged blob),
    /// so whoever decodes one checks before the first lookup. One pass
    /// over each array; that the summary *is* the element graph's is
    /// [`flixcheck::IntegrityCheck`]'s to audit.
    pub fn layout_fault(&self) -> Option<String> {
        if let Some(fault) = self.graph.layout_fault() {
            return Some(format!("element graph: {fault}"));
        }
        let (n, summary) = (self.graph.node_count(), &self.summary);
        let (labels, class_ids) = (self.labels.len(), summary.class_of.len());
        if labels != n || class_ids != n {
            return Some(format!(
                "{n} elements, {labels} labels, {class_ids} class ids"
            ));
        }
        let classes = summary.class_count();
        if let Some(c) = summary.class_of.iter().find(|&&c| c as usize >= classes) {
            return Some(format!("an element is in class {c} of {classes}"));
        }
        if let Some(fault) = summary.graph.layout_fault() {
            return Some(format!("summary graph: {fault}"));
        }
        let closure = &self.summary_closure;
        let counts = [
            summary.class_label.len(),
            self.label_reach.len(),
            summary.graph.node_count(),
            closure.node_count(),
        ];
        if counts.iter().any(|&count| count != classes) {
            let [labels, reach, graph, closed] = counts;
            return Some(format!(
                "{classes} classes, {labels} class labels, {reach} label sets, \
                 a summary graph of {graph} and a closure of {closed}"
            ));
        }
        if let Some(fault) = closure.layout_fault() {
            return Some(format!("summary closure {fault}"));
        }
        let width = self.max_label as usize + 1;
        (self.label_reach.iter().enumerate()).find_map(|(c, set)| {
            Some(format!(
                "class {c}'s label set is {}",
                set.layout_fault(width)?
            ))
        })
    }
}

impl flixcheck::IntegrityCheck for ApexIndex {
    /// Audits the summary against the stored element graph: the layout
    /// must be sound ([`ApexIndex::layout_fault`]; nothing else is looked
    /// at if not), extents must partition the node set in agreement with
    /// `class_of`, every class must be label-homogeneous, the quotient
    /// graph must simulate the element graph (every inter-class element
    /// edge has a summary edge and every summary edge a witness), and
    /// `label_reach` must equal the labels of the closure-reachable
    /// classes.
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("ApexIndex");
        let fault = self.layout_fault();
        audit.check("arrays are laid out for lookups", fault.is_none(), || {
            fault.unwrap_or_default()
        });
        if audit.violation_count() > 0 {
            return audit.finish();
        }
        let (n, classes) = (self.graph.node_count(), self.summary.class_count());

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

    /// The elements along `axis` from `u` carrying `label`, and the
    /// elements visited.
    fn block(
        idx: &ApexIndex,
        axis: Axis,
        u: NodeId,
        label: u32,
        include_self: bool,
    ) -> (Vec<(NodeId, Distance)>, usize) {
        graphcore::filled(|out| idx.block_into(axis, u, label, include_self, out))
    }

    #[test]
    fn descendants_by_label_matches_oracle() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        let oracle = DistanceOracle::new(&g);
        for u in 0..6u32 {
            for label in 0..4u32 {
                let (got, visited) = block(&idx, Axis::Descendants, u, label, true);
                assert!(visited >= got.len());
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
        let a = block(&idx, Axis::Ancestors, 5, 0, false);
        // the reverse BFS visits 5 and its four ancestors
        assert_eq!(a, (vec![(4, 1), (0, 4)], 5));
    }

    #[test]
    fn unknown_label_is_empty() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        assert_eq!(block(&idx, Axis::Descendants, 0, 99, true), (vec![], 0));
    }

    #[test]
    fn link_anchors_along_both_axes() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        let among = |axis, u| graphcore::filled(|out| idx.among_into(axis, u, &[1, 3, 4], out)).0;
        assert_eq!(among(Axis::Descendants, 0), vec![(1, 1), (3, 2), (4, 3)]);
        assert_eq!(among(Axis::Descendants, 4), vec![(4, 0)]);
        assert_eq!(among(Axis::Ancestors, 5), vec![(4, 1), (3, 2)]);
    }

    #[test]
    fn size_positive_and_dominated_by_graph() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        assert!(idx.size_bytes() >= g.size_bytes());
    }

    /// Every way a damaged image can send a lookup out of bounds is named
    /// before the first lookup.
    #[test]
    fn layout_faults_are_named() {
        let (g, labels) = sample();
        let idx = ApexIndex::build(&g, &labels, 1);
        assert_eq!(idx.layout_fault(), None);
        let empty = ApexIndex::build(&Digraph::from_edges(0, []), &[], 1);
        assert_eq!(empty.layout_fault(), None);
        type Damage = (fn(&mut ApexIndex), &'static str);
        let damage: [Damage; 9] = [
            (|i| i.summary.class_of.truncate(5), "5 class ids"),
            (|i| i.labels.truncate(5), "5 labels"),
            (|i| i.label_reach.clear(), "0 label sets"),
            (|i| i.summary.class_of[2] = 999, "in class 999"),
            (|i| i.summary.class_label.truncate(1), "1 class labels"),
            (|i| i.graph = Digraph::from_edges(5, []), "5 elements"),
            (
                |i| i.summary.graph = Digraph::from_edges(1, []),
                "summary graph of 1",
            ),
            (|i| i.label_reach[1] = BitSet::new(2), "class 1's label set"),
            (|i| i.max_label += 64, "label set is a set of 4 values"),
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
        // a bad layout is reported on its own, before anything indexes by it
        let mut bad = idx.clone();
        bad.summary.class_of[0] = 999;
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("in class 999"), "{err}");
        // clearing a reach bitset breaks the closure agreement
        let mut bad = idx;
        bad.label_reach[0] = graphcore::BitSet::new(bad.max_label as usize + 1);
        assert!(bad.integrity_check().is_err());
    }
}
