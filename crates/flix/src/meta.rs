//! Meta documents and their per-strategy indexes.

use crate::config::StrategyKind;
use crate::pee::Axis;
use apex::ApexIndex;
use graphcore::{Digraph, Distance, NodeId};
use hopi::HopiIndex;
use ppo::ExtendedPpo;
use serde::{Deserialize, Serialize};

/// The index backing one meta document, behind a uniform query surface.
///
/// All node ids at this level are *local* to the meta document; the
/// framework translates between local and global ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MetaIndex {
    /// Extended pre/postorder index (forest + runtime links).
    Ppo(Box<ExtendedPpo>),
    /// HOPI 2-hop labels.
    Hopi(Box<HopiIndex>),
    /// APEX structural summary.
    Apex(Box<ApexIndex>),
}

impl MetaIndex {
    /// Builds the index of `kind` over a meta document's subgraph.
    ///
    /// Returns the index plus any *extra runtime links*: edges of the
    /// subgraph the index cannot answer (PPO's removed edges). The caller
    /// must register those with the query evaluator.
    pub fn build(
        kind: StrategyKind,
        subgraph: &Digraph,
        labels: &[u32],
        apex_refine_rounds: usize,
    ) -> (Self, Vec<(u32, u32)>) {
        let (index, extra, _) =
            Self::build_with_threads(kind, subgraph, labels, apex_refine_rounds, 1);
        (index, extra)
    }

    /// [`Self::build`] with an intra-build thread budget for HOPI-backed
    /// meta documents (PPO and APEX builds are sequential either way), plus
    /// the staged pipeline's [`hopi::StageReport`] when HOPI ran.
    ///
    /// The thread count never changes the built index — HOPI's staged
    /// pipeline is deterministic by construction — so callers can hand
    /// whatever budget [`graphcore::pool::split_budget`] grants them.
    pub fn build_with_threads(
        kind: StrategyKind,
        subgraph: &Digraph,
        labels: &[u32],
        apex_refine_rounds: usize,
        hopi_threads: usize,
    ) -> (Self, Vec<(u32, u32)>, Option<hopi::StageReport>) {
        match kind {
            StrategyKind::Ppo => {
                let idx = ExtendedPpo::build(subgraph, labels);
                let extra = idx.removed_edges().to_vec();
                (MetaIndex::Ppo(Box::new(idx)), extra, None)
            }
            StrategyKind::Hopi => {
                let opts = hopi::CoverOptions {
                    threads: hopi_threads,
                    ..hopi::CoverOptions::default()
                };
                let (idx, stages) = HopiIndex::build_staged(subgraph, labels, &opts);
                (MetaIndex::Hopi(Box::new(idx)), Vec::new(), Some(stages))
            }
            StrategyKind::Apex => (
                MetaIndex::Apex(Box::new(ApexIndex::build(
                    subgraph,
                    labels,
                    apex_refine_rounds,
                ))),
                Vec::new(),
                None,
            ),
        }
    }

    /// Which strategy this is.
    pub fn kind(&self) -> StrategyKind {
        match self {
            MetaIndex::Ppo(_) => StrategyKind::Ppo,
            MetaIndex::Hopi(_) => StrategyKind::Hopi,
            MetaIndex::Apex(_) => StrategyKind::Apex,
        }
    }

    /// Descendants of `u` with `label`, ascending by distance.
    pub fn descendants_by_label(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> Vec<(u32, Distance)> {
        match self {
            MetaIndex::Ppo(i) => i.descendants_by_label(u, label, include_self),
            MetaIndex::Hopi(i) => i.descendants_by_label(u, label, include_self),
            MetaIndex::Apex(i) => i.descendants_by_label(u, label, include_self),
        }
    }

    /// [`Self::descendants_by_label`] plus the number of index rows (or
    /// traversal steps, for APEX) the lookup touched — what a database-
    /// backed deployment pays per block.
    pub fn descendants_by_label_counted(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> (Vec<(u32, Distance)>, usize) {
        graphcore::filled(|out| self.block_into(Axis::Descendants, u, label, include_self, out))
    }

    /// The block of elements with `label` along `axis` from `u` — what
    /// [`Self::descendants_by_label_counted`] and its ancestors mirror
    /// answer — written into `out`, whose contents it replaces; returns
    /// the rows (elements, for APEX) it cost.
    fn block_into(
        &self,
        axis: Axis,
        u: u32,
        label: u32,
        include_self: bool,
        out: &mut Vec<(u32, Distance)>,
    ) -> usize {
        let s = include_self;
        match (self, axis) {
            (MetaIndex::Ppo(i), Axis::Descendants) => {
                let forest = i.forest_index();
                forest.descendants_with_label_into(u, forest.label_list(label), s, out)
            }
            (MetaIndex::Ppo(i), Axis::Ancestors) => {
                i.forest_index().ancestors_by_label_into(u, label, s, out)
            }
            (MetaIndex::Hopi(i), Axis::Descendants) => {
                i.descendants_by_label_and_anchors_into(u, label, s, out, &mut Vec::new())
            }
            (MetaIndex::Hopi(i), Axis::Ancestors) => {
                i.ancestors_by_label_and_anchors_into(u, label, s, out, &mut Vec::new())
            }
            (MetaIndex::Apex(i), Axis::Descendants) => {
                i.descendants_by_label_into(u, label, s, out)
            }
            (MetaIndex::Apex(i), Axis::Ancestors) => i.ancestors_by_label_into(u, label, s, out),
        }
    }

    /// Ancestors of `u` with `label`, ascending by distance.
    pub fn ancestors_by_label(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> Vec<(u32, Distance)> {
        match self {
            MetaIndex::Ppo(i) => i.ancestors_by_label(u, label, include_self),
            MetaIndex::Hopi(i) => i.ancestors_by_label(u, label, include_self),
            MetaIndex::Apex(i) => i.ancestors_by_label(u, label, include_self),
        }
    }

    /// [`Self::ancestors_by_label`] plus the number of index rows (or
    /// traversal steps, for APEX) the lookup touched — the ancestors mirror
    /// of [`Self::descendants_by_label_counted`], so both axes charge the
    /// paper's per-row cost model symmetrically.
    pub fn ancestors_by_label_counted(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> (Vec<(u32, Distance)>, usize) {
        graphcore::filled(|out| self.block_into(Axis::Ancestors, u, label, include_self, out))
    }

    /// Distance from `u` to `v` within the meta document, if connected
    /// through indexed edges.
    pub fn distance(&self, u: u32, v: u32) -> Option<Distance> {
        match self {
            MetaIndex::Ppo(i) => i.distance(u, v),
            MetaIndex::Hopi(i) => i.distance(u, v),
            MetaIndex::Apex(i) => i.distance(u, v),
        }
    }

    /// Reachability within the meta document.
    pub fn is_reachable(&self, u: u32, v: u32) -> bool {
        self.distance(u, v).is_some()
    }

    /// The index's size in the paper's Table 1 measure, in bytes — not
    /// what the struct holds: for HOPI every label entry twice, as the
    /// paper's label set and inverted tables hold it, where this build
    /// stores one pair and derives the other
    /// ([`HopiIndex::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        match self {
            MetaIndex::Ppo(i) => i.size_bytes(),
            MetaIndex::Hopi(i) => i.size_bytes(),
            MetaIndex::Apex(i) => i.size_bytes(),
        }
    }

    /// The first way a decoded index is laid out so that a lookup would
    /// index out of bounds or search rows that are not in its order, if it
    /// is: HOPI's flat label tables are sliced by stored offsets, their
    /// entries index by node and their inverted rows are binary-searched
    /// ([`HopiIndex::layout_fault`]); PPO and APEX hold nothing of the
    /// kind. [`crate::persist`] runs this on every meta document it
    /// decodes, before [`MetaDocument::anchor_fault`].
    pub(crate) fn layout_fault(&self) -> Option<String> {
        match self {
            MetaIndex::Hopi(i) => i.layout_fault(),
            MetaIndex::Ppo(_) | MetaIndex::Apex(_) => None,
        }
    }
}

/// One meta document: a node set, its index, and its runtime-link anchors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaDocument {
    /// Local id -> global node id (ascending).
    #[serde(with = "graphcore::flat")]
    pub nodes: Vec<NodeId>,
    /// The index built for this meta document.
    pub index: MetaIndex,
    /// Locals with outgoing runtime links (the set `L_i` of §4.2), each
    /// once, in the order the index looks them up in: ascending *preorder
    /// rank* under PPO — the link sources below an element are then one
    /// contiguous run of this list — and ascending local id under HOPI and
    /// APEX. [`Self::set_anchors`] establishes the order. A HOPI index does
    /// not read the list: it carries both anchor sets as flags, and its
    /// inverted rows begin with the anchors.
    #[serde(with = "graphcore::flat")]
    pub(crate) link_sources: Vec<u32>,
    /// Locals that are targets of runtime links (for ancestor queries),
    /// each once, ascending by local id under every strategy.
    #[serde(with = "graphcore::flat")]
    pub(crate) link_targets: Vec<u32>,
}

/// What one queue pop takes from a meta document — Fig. 4's per-entry
/// step, see [`MetaDocument::answer_pop`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PopAnswer {
    /// Elements carrying the label, as `(local, in-meta distance)`
    /// ascending by distance.
    pub block: Vec<(u32, Distance)>,
    /// Index rows (elements, for APEX) the block cost.
    pub work: usize,
    /// Link anchors the entry reaches, ascending by `(distance, local)`.
    pub links: Vec<(u32, Distance)>,
}

impl MetaDocument {
    /// A meta document without runtime-link anchors (yet).
    pub fn new(nodes: Vec<NodeId>, index: MetaIndex) -> Self {
        Self {
            nodes,
            index,
            link_sources: Vec::new(),
            link_targets: Vec::new(),
        }
    }

    /// Replaces the anchor sets, putting them into the index's lookup
    /// order (see [`Self::link_sources`]); the input may be in any order
    /// and hold duplicates. The order is a function of the set and the
    /// index alone, so equal anchor sets compare equal as lists. A HOPI
    /// index is handed the sets ([`HopiIndex::set_anchors`]) and re-inverts
    /// the tables whose anchors changed — none, if the sets are the ones it
    /// already had.
    pub fn set_anchors(&mut self, mut sources: Vec<u32>, mut targets: Vec<u32>) {
        sources.sort_unstable_by_key(|&s| self.source_rank(s));
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();
        if let MetaIndex::Hopi(i) = &mut self.index {
            i.set_anchors(&sources, &targets);
        }
        self.link_sources = sources;
        self.link_targets = targets;
    }

    /// Position of link source `s` in the index's lookup order: its
    /// preorder rank under PPO, its local id otherwise.
    fn source_rank(&self, s: u32) -> u32 {
        match &self.index {
            MetaIndex::Ppo(i) => i.forest_index().pre(s),
            _ => s,
        }
    }

    /// Locals with outgoing runtime links, in the index's lookup order.
    pub fn link_sources(&self) -> &[u32] {
        &self.link_sources
    }

    /// Locals that runtime links point at, ascending.
    pub fn link_targets(&self) -> &[u32] {
        &self.link_targets
    }

    /// Number of elements in this meta document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the meta document is empty (never happens for built ones).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// `IND.findReachableLinks(e)` from the paper's Fig. 4: descendants of
    /// local `e` (including `e`) that have outgoing runtime links, with
    /// their in-meta distances, ascending by `(distance, local)`
    /// (conceptually the intersection of `e`'s descendants with the set
    /// `L_i`, §4.2).
    ///
    /// The access path is the strategy's own. Under PPO `e`'s subtree is an
    /// interval of preorder ranks and `link_sources` is in rank order, so
    /// the answer is a slice found by one binary search; HOPI joins the
    /// anchor prefixes of its inverted rows and nothing else of them; APEX
    /// runs one BFS, keeping the members of `L_i` it reaches.
    pub fn reachable_link_sources(&self, e: u32) -> Vec<(u32, Distance)> {
        graphcore::filled(|out| self.link_anchors_into(Axis::Descendants, e, out)).0
    }

    /// Mirror of [`Self::reachable_link_sources`] for ancestor queries:
    /// link *targets* that can reach local `e`, with their distances to
    /// `e`, ascending by `(distance, local)`. Under PPO this walks `e`'s
    /// parent chain, looking each step up in the id-sorted target list.
    pub fn reaching_link_targets(&self, e: u32) -> Vec<(u32, Distance)> {
        graphcore::filled(|out| self.link_anchors_into(Axis::Ancestors, e, out)).0
    }

    /// The anchors of runtime links leaving this meta document along
    /// `axis` that entry `e` reaches — [`Self::reachable_link_sources`]
    /// going down, [`Self::reaching_link_targets`] going up — written into
    /// `out`, whose contents it replaces.
    pub(crate) fn link_anchors_into(&self, axis: Axis, e: u32, out: &mut Vec<(u32, Distance)>) {
        let anchors = match axis {
            Axis::Descendants => &self.link_sources,
            Axis::Ancestors => &self.link_targets,
        };
        if anchors.is_empty() {
            out.clear();
            return;
        }
        match (&self.index, axis) {
            (MetaIndex::Ppo(i), Axis::Descendants) => {
                i.forest_index().descendants_among_into(e, anchors, out)
            }
            (MetaIndex::Ppo(i), Axis::Ancestors) => {
                i.forest_index().ancestors_among_into(e, anchors, out)
            }
            (MetaIndex::Hopi(i), Axis::Descendants) => i.link_sources_below_into(e, out),
            (MetaIndex::Hopi(i), Axis::Ancestors) => i.link_targets_above_into(e, out),
            (MetaIndex::Apex(i), axis) => i.among_into(e, axis == Axis::Descendants, anchors, out),
        }
    }

    /// Everything one queue pop of the evaluator needs from this meta
    /// document, written into `out` (every field replaced, so one answer
    /// serves pop after pop without allocating once it has grown): the
    /// block of elements with `label` along `axis` from entry `e`, what the
    /// block cost, and the link anchors `e` reaches (`e` itself counts as
    /// an anchor whatever `include_self` says).
    ///
    /// Equal to `descendants_by_label_counted` (or its ancestors mirror)
    /// plus the link anchors `e` reaches. Under HOPI both come out of one
    /// label join over each center's anchor prefix and label run; PPO and
    /// APEX have nothing to share (an interval lookup beside a rank-list
    /// scan; a plain BFS beside a label-pruned one).
    pub fn answer_pop(
        &self,
        axis: Axis,
        e: u32,
        label: u32,
        include_self: bool,
        out: &mut PopAnswer,
    ) {
        let PopAnswer { block, work, links } = out;
        *work = match (&self.index, axis) {
            (MetaIndex::Hopi(i), Axis::Descendants) => {
                i.descendants_by_label_and_anchors_into(e, label, include_self, block, links)
            }
            (MetaIndex::Hopi(i), Axis::Ancestors) => {
                i.ancestors_by_label_and_anchors_into(e, label, include_self, block, links)
            }
            (index, axis) => {
                self.link_anchors_into(axis, e, links);
                index.block_into(axis, e, label, include_self, block)
            }
        };
    }

    /// Number of elements the index was built over.
    fn indexed_nodes(&self) -> usize {
        match &self.index {
            MetaIndex::Ppo(i) => i.forest_index().node_count(),
            MetaIndex::Hopi(i) => i.node_count(),
            MetaIndex::Apex(i) => i.summary().class_of.len(),
        }
    }

    /// The first way the anchor sets break their contract — valid locals,
    /// each once, in the index's lookup order, and under HOPI the very
    /// nodes its index has flagged — if they do; one pass over both lists
    /// (and the flags). The lookups above silently miss links on lists in
    /// any other order (a framework persisted before PPO anchors were kept
    /// in rank order has exactly that) and on an index that flags other
    /// nodes (one persisted before HOPI carried flags flags none), so
    /// [`crate::persist`] runs this on every meta document it decodes.
    pub(crate) fn anchor_fault(&self) -> Option<String> {
        let n = self.nodes.len().min(self.indexed_nodes());
        let fault = |what: &str, anchors: &[u32], rank: &dyn Fn(u32) -> u32| {
            if let Some(&a) = anchors.iter().find(|&&a| a as usize >= n) {
                return Some(format!("{what} names local {a}, meta document holds {n}"));
            }
            let at = anchors.windows(2).position(|w| rank(w[0]) >= rank(w[1]))?;
            Some(format!(
                "{what} is not in index order at position {}: {} before {}",
                at + 1,
                anchors[at],
                anchors[at + 1]
            ))
        };
        fault("link_sources", &self.link_sources, &|s| self.source_rank(s))
            .or_else(|| fault("link_targets", &self.link_targets, &|t| t))
            .or_else(|| {
                let MetaIndex::Hopi(i) = &self.index else {
                    return None;
                };
                let (sources, targets) = i.anchors();
                (sources != self.link_sources || targets != self.link_targets)
                    .then(|| "the HOPI index's anchor flags are not the anchor lists".to_string())
            })
    }
}

#[cfg(test)]
impl MetaDocument {
    /// This meta document as a build from before the index-order rule
    /// persisted it — link sources in id order — if that is a different
    /// list (the stale-store tests need one where it is).
    pub(crate) fn with_id_ordered_sources(&self) -> Option<Self> {
        let mut stale = self.clone();
        stale.link_sources.sort_unstable();
        (stale.link_sources != self.link_sources).then_some(stale)
    }
}

impl flixcheck::IntegrityCheck for MetaDocument {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("MetaDocument");
        let n = self.nodes.len();
        let first_unsorted = self
            .nodes
            .windows(2)
            .position(|w| w[0] >= w[1])
            .map(|i| (i, self.nodes[i], self.nodes[i + 1]));
        audit.check(
            "local->global node map is strictly ascending",
            first_unsorted.is_none(),
            || {
                first_unsorted
                    .map(|(i, a, b)| format!("nodes[{i}]={a} >= nodes[{}]={b}", i + 1))
                    .unwrap_or_default()
            },
        );
        let index_n = self.indexed_nodes();
        audit.check(
            "index covers exactly the meta document's nodes",
            index_n == n,
            || format!("index built over {index_n} nodes, meta document holds {n}"),
        );
        let fault = self.anchor_fault();
        audit.check(
            "runtime-link anchors are valid local ids in index order",
            fault.is_none(),
            || fault.unwrap_or_default(),
        );
        let inner = match &self.index {
            MetaIndex::Ppo(i) => i.integrity_check(),
            MetaIndex::Hopi(i) => i.integrity_check(),
            MetaIndex::Apex(i) => i.integrity_check(),
        };
        match inner {
            Ok(report) => audit.check("inner index passes its own audit", true, || {
                report.to_string()
            }),
            Err(err) => {
                for v in &err.violations {
                    audit.violation(
                        "inner index passes its own audit",
                        format!("{}: {}: {}", err.structure, v.invariant, v.detail),
                    );
                }
            }
        }
        audit.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Digraph, Vec<u32>) {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        (g, vec![0, 1, 1, 2])
    }

    #[test]
    fn all_strategies_answer_uniformly() {
        let (g, labels) = diamond();
        for kind in [StrategyKind::Hopi, StrategyKind::Apex] {
            let (idx, extra) = MetaIndex::build(kind, &g, &labels, 1);
            assert!(extra.is_empty(), "{kind} should not drop edges");
            assert_eq!(idx.kind(), kind);
            assert_eq!(idx.distance(0, 3), Some(2), "{kind}");
            assert!(idx.is_reachable(0, 3));
            assert!(!idx.is_reachable(3, 0));
            let d = idx.descendants_by_label(0, 1, false);
            assert_eq!(d, vec![(1, 1), (2, 1)], "{kind}");
            let a = idx.ancestors_by_label(3, 1, false);
            assert_eq!(a, vec![(1, 1), (2, 1)], "{kind}");
        }
    }

    #[test]
    fn ppo_reports_dropped_edges() {
        let (g, labels) = diamond();
        let (idx, extra) = MetaIndex::build(StrategyKind::Ppo, &g, &labels, 1);
        // the diamond has one non-forest edge
        assert_eq!(extra.len(), 1);
        assert_eq!(idx.kind(), StrategyKind::Ppo);
        // forest still answers one side
        assert!(idx.is_reachable(0, 3));
    }

    #[test]
    fn meta_document_link_source_scan() {
        let (g, labels) = diamond();
        let (index, extra) = MetaIndex::build(StrategyKind::Ppo, &g, &labels, 1);
        let mut md = MetaDocument::new(vec![10, 11, 12, 13], index); // globals
        md.set_anchors(
            extra.iter().map(|&(u, _)| u).collect(),
            extra.iter().map(|&(_, v)| v).collect(),
        );
        let ls = md.reachable_link_sources(0);
        assert_eq!(ls.len(), 1, "one dropped edge, one source");
        let lt = md.reaching_link_targets(3);
        assert_eq!(lt.len(), 1);
        assert!(!md.is_empty());
        assert_eq!(md.len(), 4);
    }

    /// A tree whose preorder (0, 2, 1, 3) is not its id order.
    fn crossed_tree() -> (Digraph, Vec<u32>) {
        let g = Digraph::from_edges(4, [(0, 2), (2, 1), (0, 3)]);
        (g, vec![0, 1, 1, 2])
    }

    #[test]
    fn anchors_are_kept_in_index_order_and_pops_agree_with_the_parts() {
        let (g, labels) = crossed_tree();
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            let (index, _) = MetaIndex::build(kind, &g, &labels, 1);
            let mut md = MetaDocument::new(vec![10, 11, 12, 13], index);
            md.set_anchors(vec![3, 1, 2, 1], vec![2, 0, 2]);
            let want: &[u32] = match kind {
                StrategyKind::Ppo => &[2, 1, 3],
                _ => &[1, 2, 3],
            };
            assert_eq!(md.link_sources(), want, "{kind}");
            assert_eq!(md.link_targets(), &[0, 2], "{kind}");
            assert_eq!(md.reachable_link_sources(0), vec![(2, 1), (3, 1), (1, 2)]);
            assert_eq!(md.reachable_link_sources(2), vec![(2, 0), (1, 1)]);
            assert_eq!(md.reachable_link_sources(3), vec![(3, 0)]);
            assert_eq!(md.reaching_link_targets(1), vec![(2, 1), (0, 2)]);
            assert_eq!(md.reaching_link_targets(3), vec![(0, 1)]);
            let mut pop = PopAnswer::default();
            for axis in [Axis::Descendants, Axis::Ancestors] {
                for e in 0..4 {
                    for include_self in [false, true] {
                        md.answer_pop(axis, e, 1, include_self, &mut pop);
                        let (block, work) = match axis {
                            Axis::Descendants => {
                                md.index.descendants_by_label_counted(e, 1, include_self)
                            }
                            Axis::Ancestors => {
                                md.index.ancestors_by_label_counted(e, 1, include_self)
                            }
                        };
                        let links = match axis {
                            Axis::Descendants => md.reachable_link_sources(e),
                            Axis::Ancestors => md.reaching_link_targets(e),
                        };
                        assert_eq!(pop, PopAnswer { block, work, links }, "{kind} {axis:?} {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn sizes_ranked_plausibly() {
        // On a pure tree PPO must be far smaller than HOPI's label sets.
        let g = Digraph::from_edges(50, (1..50u32).map(|i| (i / 2, i)));
        let labels = vec![0u32; 50];
        let (p, _) = MetaIndex::build(StrategyKind::Ppo, &g, &labels, 1);
        let (h, _) = MetaIndex::build(StrategyKind::Hopi, &g, &labels, 1);
        let (a, _) = MetaIndex::build(StrategyKind::Apex, &g, &labels, 1);
        assert!(p.size_bytes() < h.size_bytes());
        assert!(a.size_bytes() > 0);
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let (g, labels) = diamond();
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            let (index, extra) = MetaIndex::build(kind, &g, &labels, 2);
            let mut md = MetaDocument::new(vec![10, 11, 12, 13], index);
            md.set_anchors(extra.iter().map(|&(u, _)| u).collect(), Vec::new());
            md.integrity_check().unwrap();

            // Global node map out of order.
            let mut bad = md.clone();
            bad.nodes.swap(0, 1);
            assert!(bad.integrity_check().is_err(), "{kind:?}: unsorted nodes");

            // Node map and index disagree about the document size.
            let mut bad = md.clone();
            bad.nodes.push(14);
            assert!(bad.integrity_check().is_err(), "{kind:?}: size mismatch");

            // A link anchor outside the local id space.
            let mut bad = md.clone();
            bad.link_targets = vec![99];
            assert!(bad.integrity_check().is_err(), "{kind:?}: stray anchor");

            // An anchor listed twice.
            let mut bad = md.clone();
            bad.link_targets = vec![1, 1];
            assert!(bad.integrity_check().is_err(), "{kind:?}: repeated anchor");
        }

        // HOPI reads its anchors off the index's flags, not off the lists:
        // the two must name the same nodes.
        let (index, _) = MetaIndex::build(StrategyKind::Hopi, &g, &labels, 1);
        let mut md = MetaDocument::new(vec![10, 11, 12, 13], index);
        md.set_anchors(vec![3, 1], vec![2]);
        md.integrity_check().unwrap();
        let MetaIndex::Hopi(hopi) = &md.index else {
            panic!("built as HOPI");
        };
        assert_eq!(hopi.anchors(), (vec![1, 3], vec![2]));
        for forget in [
            (|md| md.link_sources.truncate(1)) as fn(&mut MetaDocument),
            |md| md.link_targets.clear(),
            |md| md.link_targets = vec![1],
        ] {
            let mut bad = md.clone();
            forget(&mut bad);
            let err = bad.integrity_check().unwrap_err();
            assert!(err.to_string().contains("anchor flags"), "{err}");
        }

        // PPO anchors in id order — what a framework persisted before the
        // interval lookup holds — are out of *index* order.
        let (g, labels) = crossed_tree();
        let (index, _) = MetaIndex::build(StrategyKind::Ppo, &g, &labels, 1);
        let mut md = MetaDocument::new(vec![10, 11, 12, 13], index);
        md.set_anchors(vec![1, 2, 3], Vec::new());
        md.integrity_check().unwrap();
        md.link_sources.sort_unstable();
        let err = md.integrity_check().unwrap_err();
        assert!(err.to_string().contains("index order"), "{err}");
    }
}
