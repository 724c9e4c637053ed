//! Meta documents and their per-strategy indexes.

use crate::config::StrategyKind;
use apex::ApexIndex;
use graphcore::{Axis, Digraph, Distance, NodeId};
use hopi::HopiIndex;
use ppo::PpoIndex;
use serde::{Deserialize, Serialize};

/// Refinement rounds of an APEX-backed meta document's summary: APEX-0
/// split once by parent class.
const APEX_REFINE_ROUNDS: usize = 1;

/// The index backing one meta document, behind a uniform query surface.
///
/// All node ids at this level are *local* to the meta document; the
/// framework translates between local and global ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum MetaIndex {
    /// Extended pre/postorder index (forest + runtime links).
    Ppo(Box<PpoIndex>),
    /// HOPI 2-hop labels.
    Hopi(Box<HopiIndex>),
    /// APEX structural summary.
    Apex(Box<ApexIndex>),
}

impl MetaIndex {
    /// Builds the index of `kind` over a meta document's subgraph, whose
    /// local `u` is the element `nodes[u]`.
    ///
    /// Returns the index, any *extra runtime links* — edges of the
    /// subgraph the index cannot answer (PPO's removed edges), which the
    /// caller must register with the query evaluator — and the HOPI
    /// cover's [`hopi::StageReport`] when HOPI ran. A PPO index numbers
    /// the locals anew, in its spanning forest's preorder: `nodes` is
    /// permuted to match, and the links are in the new numbering. HOPI and
    /// APEX keep the numbering they are given.
    pub fn build(
        kind: StrategyKind,
        subgraph: &Digraph,
        labels: &[u32],
        nodes: &mut [NodeId],
    ) -> (Self, Vec<(u32, u32)>, Option<hopi::StageReport>) {
        match kind {
            StrategyKind::Ppo => {
                let (idx, order) = PpoIndex::build(subgraph, labels);
                let given = nodes.to_vec();
                for (node, &u) in nodes.iter_mut().zip(&order) {
                    *node = given[u as usize];
                }
                let extra = idx.removed_edges().to_vec();
                (MetaIndex::Ppo(Box::new(idx)), extra, None)
            }
            StrategyKind::Hopi => {
                let (idx, stages) = HopiIndex::build(subgraph, labels);
                (MetaIndex::Hopi(Box::new(idx)), Vec::new(), Some(stages))
            }
            StrategyKind::Apex => {
                let idx = ApexIndex::build(subgraph, labels, APEX_REFINE_ROUNDS);
                (MetaIndex::Apex(Box::new(idx)), Vec::new(), None)
            }
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
        self.descendants_by_label_counted(u, label, include_self).0
    }

    /// [`Self::descendants_by_label`] plus the number of index rows (or
    /// traversal steps, for APEX) the lookup touched — what a database-
    /// backed deployment pays per block. Equal distances come in the
    /// strategy's own order: by local under PPO, where
    /// [`MetaDocument::answer_pop`] orders them by element.
    pub fn descendants_by_label_counted(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> (Vec<(u32, Distance)>, usize) {
        graphcore::filled(|out| {
            self.block_into(Axis::Descendants, u, label, include_self, out, |v| v)
        })
    }

    /// Ancestors of `u` with `label`, ascending by distance.
    pub fn ancestors_by_label(
        &self,
        u: u32,
        label: u32,
        include_self: bool,
    ) -> Vec<(u32, Distance)> {
        self.ancestors_by_label_counted(u, label, include_self).0
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
        graphcore::filled(|out| {
            self.block_into(Axis::Ancestors, u, label, include_self, out, |v| v)
        })
    }

    /// The block of elements with `label` along `axis` from `u` (`u` itself
    /// only if `include_self`) — what every lookup above answers — written
    /// into `out`, whose contents it replaces; returns the rows (elements,
    /// for APEX) it cost. A PPO block going down orders equal distances by
    /// `tie` of the local.
    fn block_into(
        &self,
        axis: Axis,
        u: u32,
        label: u32,
        include_self: bool,
        out: &mut Vec<(u32, Distance)>,
        tie: impl Fn(u32) -> u32,
    ) -> usize {
        let s = include_self;
        match (self, axis) {
            (MetaIndex::Ppo(i), Axis::Descendants) => {
                i.descendants_among_into(u, i.label_list(label), s, out, tie)
            }
            (MetaIndex::Ppo(i), Axis::Ancestors) => {
                i.ancestors_among_into(u, i.label_list(label), s, out)
            }
            (MetaIndex::Hopi(i), axis) => {
                let asked = Some((label, s));
                i.answer_into(axis, u, asked, None, out, &mut vec![]).0
            }
            (MetaIndex::Apex(i), axis) => i.block_into(axis, u, label, s, out),
        }
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

    /// Reachability within the meta document; HOPI stops at the first
    /// center the two label rows share.
    pub fn is_reachable(&self, u: u32, v: u32) -> bool {
        match self {
            MetaIndex::Hopi(i) => i.reaches(u, v),
            _ => self.distance(u, v).is_some(),
        }
    }

    /// The index's size in the paper's Table 1 measure, in bytes — not
    /// what the struct holds: for HOPI every label entry twice, as the
    /// paper's label set and inverted tables hold it, where this build
    /// stores one pair and derives the other ([`HopiIndex::size_bytes`]);
    /// for PPO a full pre/post row and a label row per element, where this
    /// build stores three numbers and a label entry
    /// ([`ppo::PpoIndex::size_bytes`]).
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
    /// ([`HopiIndex::layout_fault`]); PPO's label table likewise, and its
    /// ranks index its arrays ([`PpoIndex::layout_fault`]); APEX's graphs
    /// are sliced by stored offsets and its class ids index its per-class
    /// tables ([`ApexIndex::layout_fault`]). [`MetaDocument::complete`] runs this
    /// on every meta document [`crate::persist`] decodes — under PPO once
    /// the subtree sizes proved a forest.
    pub(crate) fn layout_fault(&self) -> Option<String> {
        match self {
            MetaIndex::Hopi(i) => i.layout_fault(),
            MetaIndex::Ppo(i) => i.layout_fault(),
            MetaIndex::Apex(i) => i.layout_fault(),
        }
    }
}

/// One meta document: a node set, its index, and its runtime-link anchors.
///
/// Its image ([`crate::persist`]) holds the index and the two anchor lists
/// and nothing any of them, or the manifest, determines: not the node map,
/// which the manifest's catalogue holds, nor HOPI's anchor flags, which are
/// the anchor lists, nor PPO's depths and parents, which are the subtree
/// sizes'. Loading an image derives them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetaDocument {
    /// Local id -> global node id: ascending under HOPI and APEX; under
    /// PPO the locals are the spanning forest's preorder ranks. Not in the
    /// image: the manifest maps every element to its meta document and
    /// local.
    #[serde(skip)]
    pub nodes: Vec<NodeId>,
    /// The index built for this meta document.
    pub index: MetaIndex,
    /// Locals with outgoing runtime links (the set `L_i` of §4.2), each
    /// once, ascending — under PPO, where locals are preorder ranks, the
    /// link sources below an element are one contiguous run of this list.
    /// [`Self::set_anchors`] establishes the order. A HOPI index does not
    /// read the list: it carries both anchor sets as flags, and its
    /// inverted rows begin with the anchors; an image holds the lists and
    /// not the flags.
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
    /// Whether the pop's distance budget may have left out rows the whole
    /// block holds: a HOPI join the budget cut
    /// ([`HopiIndex::answer_into`]).
    pub partial: bool,
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

    /// Replaces the anchor sets, sorting them (see [`Self::link_sources`]);
    /// the input may be in any order and hold duplicates, and equal anchor
    /// sets compare equal as lists. A HOPI index is handed the sets
    /// ([`HopiIndex::set_anchors`]) and re-inverts the tables whose anchors
    /// changed — none, if the sets are the ones it already had.
    pub fn set_anchors(&mut self, mut sources: Vec<u32>, mut targets: Vec<u32>) {
        sources.sort_unstable();
        sources.dedup();
        targets.sort_unstable();
        targets.dedup();
        if let MetaIndex::Hopi(i) = &mut self.index {
            i.set_anchors(&sources, &targets);
        }
        self.link_sources = sources;
        self.link_targets = targets;
    }

    /// Locals with outgoing runtime links, ascending.
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
    /// interval of locals, preorder ranks, so the answer is a slice of the
    /// ascending `link_sources` found by one binary search; HOPI joins the
    /// anchor prefixes of its inverted rows and nothing else of them; APEX
    /// runs one BFS, keeping the members of `L_i` it reaches.
    pub fn reachable_link_sources(&self, e: u32) -> Vec<(u32, Distance)> {
        graphcore::filled(|out| self.link_anchors_into(Axis::Descendants, e, None, out)).0
    }

    /// Mirror of [`Self::reachable_link_sources`] for ancestor queries:
    /// link *targets* that can reach local `e`, with their distances to
    /// `e`, ascending by `(distance, local)`. Under PPO this walks `e`'s
    /// parent chain, looking each step up in the id-sorted target list.
    pub fn reaching_link_targets(&self, e: u32) -> Vec<(u32, Distance)> {
        graphcore::filled(|out| self.link_anchors_into(Axis::Ancestors, e, None, out)).0
    }

    /// The anchors of runtime links leaving this meta document along
    /// `axis` that entry `e` reaches — [`Self::reachable_link_sources`]
    /// going down, [`Self::reaching_link_targets`] going up — written into
    /// `out`, whose contents it replaces. HOPI reads only the rows within
    /// `budget` of `e` (see [`HopiIndex::answer_into`]), so it leaves out
    /// the anchors past it; PPO and APEX ignore the budget.
    pub(crate) fn link_anchors_into(
        &self,
        axis: Axis,
        e: u32,
        budget: Option<Distance>,
        out: &mut Vec<(u32, Distance)>,
    ) {
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
                i.descendants_among_into(e, anchors, true, out, |v| v);
            }
            (MetaIndex::Ppo(i), Axis::Ancestors) => {
                i.ancestors_among_into(e, anchors, true, out);
            }
            (MetaIndex::Hopi(i), axis) => {
                i.answer_into(axis, e, None, budget, &mut vec![], out);
            }
            (MetaIndex::Apex(i), axis) => i.among_into(axis, e, anchors, out),
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
    /// plus the link anchors `e` reaches, except that a PPO block orders
    /// equal distances by element, not by local — the order they had when
    /// locals ascended with the elements. Under HOPI both come out of one
    /// label join over each center's anchor prefix and label run; PPO and
    /// APEX have nothing to share (an interval lookup beside a rank-list
    /// scan; a plain BFS beside a label-pruned one).
    ///
    /// `budget` is the in-meta distance the pop may still cover. HOPI
    /// answers only block rows and anchors within it and reads only the
    /// rows that can ([`HopiIndex::answer_into`]), and says whether that
    /// left a row of the whole block out (`partial`); PPO and APEX ignore
    /// the budget and answer in full.
    pub fn answer_pop(
        &self,
        axis: Axis,
        e: u32,
        label: u32,
        include_self: bool,
        budget: Option<Distance>,
        out: &mut PopAnswer,
    ) {
        let PopAnswer {
            block,
            work,
            links,
            partial,
        } = out;
        (*work, *partial) = match &self.index {
            MetaIndex::Hopi(i) => {
                i.answer_into(axis, e, Some((label, include_self)), budget, block, links)
            }
            index => {
                self.link_anchors_into(axis, e, budget, links);
                let nodes = &self.nodes;
                let work =
                    index.block_into(axis, e, label, include_self, block, |v| nodes[v as usize]);
                (work, false)
            }
        };
    }

    /// Number of elements the index was built over.
    pub(crate) fn indexed_nodes(&self) -> usize {
        match &self.index {
            MetaIndex::Ppo(i) => i.node_count(),
            MetaIndex::Hopi(i) => i.node_count(),
            MetaIndex::Apex(i) => i.summary().class_of.len(),
        }
    }

    /// Completes a decoded image into the meta document that was saved —
    /// `nodes`, the manifest's node map of it, becomes its node map, PPO's
    /// depths and parents are derived from its subtree sizes
    /// ([`PpoIndex::derive_forest`]) and HOPI's anchor flags set from the
    /// anchor lists ([`HopiIndex::flag_anchors`]) — or says why a lookup
    /// could not trust it, checking what it derives from on the way: an
    /// index laid out so that a lookup would index out of bounds or search
    /// rows out of order ([`MetaIndex::layout_fault`]), or PPO sizes that
    /// are no preorder forest; an index over another number of elements
    /// than the map; anchor lists that are not valid locals in index
    /// order ([`Self::list_fault`]); a HOPI image whose label words carry
    /// flags. One pass over each array, and the flags equal the lists by
    /// construction. [`crate::persist`] runs this on every meta document
    /// it decodes.
    pub(crate) fn complete(&mut self, nodes: Vec<NodeId>) -> Option<String> {
        self.nodes = nodes;
        let fault = match &mut self.index {
            MetaIndex::Ppo(i) => i.derive_forest().or_else(|| i.layout_fault()),
            index => index.layout_fault(),
        };
        let (len, indexed) = (self.nodes.len(), self.indexed_nodes());
        let miscounted = || {
            (indexed != len).then(|| {
                format!("its index covers {indexed} elements, the manifest catalogues {len}")
            })
        };
        if let Some(fault) = fault.or_else(miscounted).or_else(|| self.list_fault()) {
            return Some(fault);
        }
        let MetaIndex::Hopi(i) = &mut self.index else {
            return None;
        };
        i.flag_anchors(&self.link_sources, &self.link_targets)
    }

    /// The first way the anchor lists break their contract — valid locals,
    /// each once, in the index's lookup order — if they do; one pass over
    /// both. The lookups above silently miss links on lists in any other
    /// order.
    fn list_fault(&self) -> Option<String> {
        let n = self.nodes.len().min(self.indexed_nodes());
        let fault = |what: &str, anchors: &[u32]| {
            if let Some(&a) = anchors.iter().find(|&&a| a as usize >= n) {
                return Some(format!("{what} names local {a}, meta document holds {n}"));
            }
            let at = anchors.windows(2).position(|w| w[0] >= w[1])?;
            Some(format!(
                "{what} is not in index order at position {}: {} before {}",
                at + 1,
                anchors[at],
                anchors[at + 1]
            ))
        };
        fault("link_sources", &self.link_sources)
            .or_else(|| fault("link_targets", &self.link_targets))
    }

    /// [`Self::list_fault`], and under HOPI whether the index flags the
    /// very nodes the lists name: the lookups pass a node the index flags
    /// none for, or stop at one it flags that no link leaves.
    fn anchor_fault(&self) -> Option<String> {
        self.list_fault().or_else(|| {
            let MetaIndex::Hopi(i) = &self.index else {
                return None;
            };
            (!i.anchors_are(&self.link_sources, &self.link_targets))
                .then(|| "the HOPI index's anchor flags are not the anchor lists".to_string())
        })
    }
}

#[cfg(test)]
impl MetaDocument {
    /// This meta document with its link sources in the order of their
    /// elements' ids — the order a PPO meta document kept them in before
    /// the index-order rule — if that is a different list (the stale-store
    /// tests need one where it is).
    pub(crate) fn with_id_ordered_sources(&self) -> Option<Self> {
        let mut stale = self.clone();
        stale
            .link_sources
            .sort_unstable_by_key(|&s| self.nodes[s as usize]);
        (stale.link_sources != self.link_sources).then_some(stale)
    }
}

impl flixcheck::IntegrityCheck for MetaDocument {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("MetaDocument");
        let n = self.nodes.len();
        let mut sorted = self.nodes.clone();
        sorted.sort_unstable();
        let repeated = sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        audit.check(
            "local->global node map is distinct",
            repeated.is_none(),
            || format!("global {} has two locals", repeated.unwrap_or_default()),
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

    /// A meta document of `kind` over `g`, whose node `u` is the element
    /// `10 + u`, and the extra runtime links of its build.
    fn meta(kind: StrategyKind, g: &Digraph, labels: &[u32]) -> (MetaDocument, Vec<(u32, u32)>) {
        let mut nodes: Vec<NodeId> = (10..10 + g.node_count() as NodeId).collect();
        let (index, extra, _) = MetaIndex::build(kind, g, labels, &mut nodes);
        (MetaDocument::new(nodes, index), extra)
    }

    impl MetaDocument {
        /// The local of element `global`.
        fn local(&self, global: NodeId) -> u32 {
            self.nodes.iter().position(|&v| v == global).unwrap() as u32
        }

        /// `(element, distance)` pairs as `(local, distance)`, ascending.
        fn locals(&self, pairs: &[(NodeId, Distance)]) -> Vec<(u32, Distance)> {
            let mut out: Vec<_> = pairs.iter().map(|&(v, d)| (self.local(v), d)).collect();
            out.sort_unstable_by_key(|&(v, d)| (d, v));
            out
        }
    }

    #[test]
    fn all_strategies_answer_uniformly() {
        let (g, labels) = diamond();
        for kind in [StrategyKind::Hopi, StrategyKind::Apex] {
            let (md, extra) = meta(kind, &g, &labels);
            assert!(extra.is_empty(), "{kind} should not drop edges");
            assert_eq!(md.nodes, vec![10, 11, 12, 13], "{kind} keeps the numbering");
            let idx = md.index;
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
        let (md, extra) = meta(StrategyKind::Ppo, &g, &labels);
        assert_eq!(md.nodes, vec![10, 11, 13, 12], "preorder 0, 1, 3, 2");
        // the diamond has one non-forest edge, 2 -> 3, in the new numbering
        assert_eq!(extra, vec![(3, 2)]);
        assert_eq!(md.index.kind(), StrategyKind::Ppo);
        // forest still answers one side
        assert!(md.index.is_reachable(0, 2));
        assert!(!md.index.is_reachable(3, 2));
    }

    #[test]
    fn meta_document_link_source_scan() {
        let (g, labels) = diamond();
        let (mut md, extra) = meta(StrategyKind::Ppo, &g, &labels);
        md.set_anchors(
            extra.iter().map(|&(u, _)| u).collect(),
            extra.iter().map(|&(_, v)| v).collect(),
        );
        let ls = md.reachable_link_sources(md.local(10));
        assert_eq!(ls.len(), 1, "one dropped edge, one source");
        let lt = md.reaching_link_targets(md.local(13));
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
            let (mut md, _) = meta(kind, &g, &labels);
            let l = |v| md.local(v);
            md.set_anchors(vec![l(13), l(11), l(12), l(11)], vec![l(12), l(10), l(12)]);
            assert_eq!(md.link_sources(), &[1, 2, 3], "{kind}");
            let mut targets = vec![md.local(10), md.local(12)];
            targets.sort_unstable();
            assert_eq!(md.link_targets(), targets, "{kind}");
            let below = |e| md.reachable_link_sources(md.local(e));
            assert_eq!(below(10), md.locals(&[(12, 1), (13, 1), (11, 2)]));
            assert_eq!(below(12), md.locals(&[(12, 0), (11, 1)]));
            assert_eq!(below(13), md.locals(&[(13, 0)]));
            let above = |e| md.reaching_link_targets(md.local(e));
            assert_eq!(above(11), md.locals(&[(12, 1), (10, 2)]));
            assert_eq!(above(13), md.locals(&[(10, 1)]));
            let mut pop = PopAnswer::default();
            for axis in [Axis::Descendants, Axis::Ancestors] {
                for e in 0..4 {
                    for include_self in [false, true] {
                        md.answer_pop(axis, e, 1, include_self, None, &mut pop);
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
                        let whole = PopAnswer {
                            block,
                            work,
                            links,
                            partial: false,
                        };
                        assert_eq!(pop, whole, "{kind} {axis:?} {e}");
                    }
                }
            }
        }
    }

    /// A PPO block orders equal distances by element, as it did when the
    /// locals ascended with the elements; the index alone orders them by
    /// local.
    #[test]
    fn ppo_pops_order_ties_by_element() {
        // 0 -> {1, 2}, 1 -> 3 and a second parent 2 -> 3: all but the root
        // carry label 1, and the elements run against the preorder.
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (2, 3), (1, 3)]);
        let mut nodes = vec![40, 30, 20, 10];
        let (index, ..) = MetaIndex::build(StrategyKind::Ppo, &g, &[0, 1, 1, 1], &mut nodes);
        let md = MetaDocument::new(nodes, index);
        assert_eq!(md.nodes, vec![40, 30, 10, 20], "preorder 0, 1, 3, 2");
        let (by_local, _) = md.index.descendants_by_label_counted(0, 1, false);
        assert_eq!(by_local, vec![(1, 1), (3, 1), (2, 2)]);
        let mut pop = PopAnswer::default();
        md.answer_pop(Axis::Descendants, 0, 1, false, None, &mut pop);
        assert_eq!(pop.block, vec![(3, 1), (1, 1), (2, 2)]);
    }

    #[test]
    fn sizes_ranked_plausibly() {
        // On a pure tree PPO must be far smaller than HOPI's label sets.
        let g = Digraph::from_edges(50, (1..50u32).map(|i| (i / 2, i)));
        let labels = vec![0u32; 50];
        let [p, h, a] = [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex]
            .map(|kind| meta(kind, &g, &labels).0.index.size_bytes());
        assert!(p < h);
        assert!(a > 0);
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let (g, labels) = diamond();
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            let (mut md, extra) = meta(kind, &g, &labels);
            md.set_anchors(extra.iter().map(|&(u, _)| u).collect(), Vec::new());
            md.integrity_check().unwrap();

            // One element on two locals.
            let mut bad = md.clone();
            bad.nodes[1] = bad.nodes[0];
            assert!(bad.integrity_check().is_err(), "{kind:?}: repeated node");

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
        let (mut md, _) = meta(StrategyKind::Hopi, &g, &labels);
        md.set_anchors(vec![3, 1], vec![2]);
        md.integrity_check().unwrap();
        let MetaIndex::Hopi(hopi) = &md.index else {
            panic!("built as HOPI");
        };
        assert!(hopi.anchors_are(&[1, 3], &[2]));
        assert!(!hopi.anchors_are(&[1, 2], &[2]) && !hopi.anchors_are(&[1, 3], &[]));
        assert!(!hopi.anchors_are(&[3, 1], &[2]));
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

        // PPO anchors in element order — what a framework persisted before
        // the interval lookup holds — are out of *index* order.
        let (g, labels) = crossed_tree();
        let (mut md, _) = meta(StrategyKind::Ppo, &g, &labels);
        md.set_anchors(vec![1, 2, 3], Vec::new());
        md.integrity_check().unwrap();
        let err = md
            .with_id_ordered_sources()
            .unwrap()
            .integrity_check()
            .unwrap_err();
        assert!(err.to_string().contains("index order"), "{err}");
    }
}
