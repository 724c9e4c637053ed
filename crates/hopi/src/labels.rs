//! The 2-hop label index: construction, distance and the one lookup.
//!
//! Construction runs the cover in [`crate::cover`] (rank, then one pruned
//! sweep) and finishes the raw label sets into a queryable index here:
//! flattening them, inverting `L_in` into the one stored inverted table,
//! and computing [`BuildStats`].
//! The ancestors direction's two tables are derived from the stored two on
//! first use.

use crate::cover::{self, StageReport};
use graphcore::{Axis, Digraph, DistScratch, Distance, NodeId, Rows};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    /// This thread's label-join scratch, shared by every [`HopiIndex`] the
    /// thread queries. Borrowed only inside [`HopiIndex::answer_into`],
    /// which runs nothing but this module's own filters while it holds the
    /// borrow, so a lookup can never re-enter it.
    static SCRATCH: RefCell<DistScratch> = const { RefCell::new(DistScratch::new()) };
}

/// Construction statistics (reported by the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildStats {
    /// Total `(center, distance)` entries across all `L_in` sets.
    pub in_entries: usize,
    /// Total entries across all `L_out` sets.
    pub out_entries: usize,
    /// BFS node visits performed during construction (pruned included).
    pub visits: usize,
}

impl BuildStats {
    /// Total label entries.
    pub fn total_entries(&self) -> usize {
        self.in_entries + self.out_entries
    }
}

/// Nodes reached by an enumeration, as `(node, exact distance)` ascending
/// by `(distance, node)`.
pub type Reached = Vec<(NodeId, Distance)>;

/// One label table: row `i` holds `(node, distance)` entries. A decoded
/// table is only sliced or inverted after [`Rows::fault`] cleared it.
type Table = Rows<(NodeId, Distance)>;

/// `table` turned around in the row order of the anchors that carry `flag`
/// in `words` (one `node_labels` word per node): the inversion visits the
/// rows in [`row_order`], which lists each row's anchors by id and the rest
/// by `(label, id)`, and one stable sort per row by [`row_key`] of the
/// distance puts the distance in before the id.
fn inverted_in_row_order(table: &Table, words: &[u32], flag: u32) -> Table {
    let mut inverted = table.inverted(row_order(words, flag));
    inverted.sort_rows_by_key(|(v, d)| row_key(words[v as usize], flag, d));
    inverted
}

/// A `node_labels` word is the node's label in its low 30 bits and the two
/// anchor flags above them: the node is a link source (the descendants
/// direction stops there to leave the index), a link target (the ancestors
/// direction does). A row lookup reads label and flag in one load. The
/// flags are the anchor lists, which whoever builds the index keeps: an image
/// holds the bare labels ([`bare`]), and a load sets the flags again from
/// the lists ([`HopiIndex::flag_anchors`]).
const SOURCE: u32 = 1 << 31;
const TARGET: u32 = 1 << 30;
const LABEL: u32 = TARGET - 1;

/// The `with` module of `node_labels`: each word is written without its
/// anchor flags, so the array packs to the bits of the largest label, and
/// read back as written.
mod bare {
    pub(super) use graphcore::flat::deserialize;

    pub(super) fn serialize<S: serde::Serializer>(
        words: &[u32],
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        let labels: Vec<u32> = words.iter().map(|word| word & super::LABEL).collect();
        graphcore::flat::serialize(&labels, serializer)
    }
}

/// The layout word of an image that holds the descendants pair alone, each
/// inverted row its anchors by `(distance, id)`, then the rest by `(label,
/// distance, id)` ("ROW4"). An image saved with rows in an older order has
/// the same arrays and would decode into them cleanly — to rows a lookup's
/// searches silently miss links and results on: in id order (no word), in
/// `(anchor, label, id)` order ("ROW3"), where a budgeted join stops at a
/// far row with nearer ones behind it. One saved with all four tables
/// ("ROW2") carries `l_in` where `l_out` belongs. A word costs a load
/// nothing, where checking every row's order was measured at 7 % of it
/// (DESIGN.md).
const LAYOUT: u32 = u32::from_le_bytes(*b"ROW4");

/// One direction of a label join: a node's own `(center, distance)` set,
/// the inverted table to merge rows of for those centers, and the flag of
/// the anchors that table's rows begin with.
type JoinSide<'a> = (&'a [(NodeId, Distance)], &'a Table, u32);

/// A distance-augmented 2-hop connection index.
///
/// `labels[u]` (passed at build time) is an opaque per-node label below
/// 2³⁰ (FliX passes interned tag ids). Every row of the two inverted tables
/// is ordered *anchors first, by distance, then by node id; then the rest
/// by label, then by distance, then by node id*, so a lookup for one label
/// reads a row's anchor prefix and that label's run — found by two binary
/// searches — and nothing else of it, and a lookup within a distance reads
/// each only up to its first row past it. Which nodes are anchors is
/// fixed at [`Self::build`]; an index built without any is simply
/// label-ordered.
///
/// The label sets and their inversions are [`Rows`] tables — flat arrays
/// with `u32` row offsets. Only the *descendants pair* is stored: `l_out`
/// and `in_index`, what every descendants-axis join reads. The *ancestors
/// pair*, `l_in` and `out_index`, is a function of it, derived on first use
/// (`l_in`, `out_index`) and never persisted, so an image
/// is five arrays whatever the node count and holds every label entry
/// once, and loading or evicting one costs what its bytes cost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopiIndex {
    /// [`LAYOUT`], first in the image: what is behind it is read as.
    layout: u32,
    /// Row `u` = (center, d(u, center)), sorted by center id.
    l_out: Table,
    /// `L_in` inverted: row `w` = nodes v with w ∈ L_in(v), as (v, d(w,v)),
    /// ascending by [`row_key`]: (v is not a link source, label(v) unless
    /// it is one, d(w,v), v).
    in_index: Table,
    /// Per node, its label and anchor flags (see [`SOURCE`]); an image
    /// holds the labels alone.
    #[serde(with = "bare")]
    node_labels: Vec<u32>,
    stats: BuildStats,
    /// `L_in`: row `v` = (center, d(center, v)), sorted by center id.
    #[serde(skip)]
    l_in: Derived,
    /// `l_out` inverted: row `w` = nodes u with w ∈ L_out(u), as
    /// (u, d(u,w)), ascending by (u is not a link target, label(u) unless
    /// it is one, d(u,w), u).
    #[serde(skip)]
    out_index: Derived,
}

/// A table derived from the stored ones on first use and kept. It takes no
/// part in comparing indexes: the stored tables determine it, whether or
/// not either side has derived it yet.
#[derive(Debug, Clone, Default)]
struct Derived(OnceLock<Table>);

impl PartialEq for Derived {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Derived {}

/// Sort key of an entry for a node whose `node_labels` word is `word`, in a
/// row of the inverted table whose anchors carry `flag`: anchors first, the
/// rest by label, and `x` — the node's id, or the entry's distance — inside
/// that. An anchor's label takes no part: the anchor prefix is one segment.
fn row_key(word: u32, flag: u32, x: u32) -> u64 {
    let anchor = word & flag != 0;
    let label = if anchor { 0 } else { word & LABEL };
    u64::from(!anchor) << 62 | u64::from(label) << 32 | u64::from(x)
}

/// The nodes of `words` (one `node_labels` word each) by [`row_key`] of
/// their id: anchors by id, then the rest by `(label, id)` — the order the
/// inversion visits them in, before the distances are sorted in.
fn row_order(words: &[u32], flag: u32) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..words.len() as NodeId).collect();
    order.sort_unstable_by_key(|&v| row_key(words[v as usize], flag, v));
    order
}

impl HopiIndex {
    /// Builds the index over `g` with one opaque label per node and its
    /// anchors — `sources`, the nodes runtime links leave from, and
    /// `targets`, the nodes they arrive at (any order, repeats allowed) —
    /// and returns it with the cover's out-of-band [`StageReport`]
    /// (per-stage timings). The flags are set as a load sets them
    /// ([`Self::flag_anchors`]), and `L_in` is inverted once, in the row
    /// order of those anchors. The report is *not* part of the index, so
    /// serialized indexes stay byte-identical run to run.
    ///
    /// # Panics
    /// If a label reaches the flag bits, or an anchor is not a node of `g`.
    pub fn build(
        g: &Digraph,
        node_labels: &[u32],
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> (Self, StageReport) {
        assert_eq!(node_labels.len(), g.node_count(), "one label per node");
        let cover = cover::build_cover(g);
        // Label lists were appended in center-rank order; the merge
        // intersection of `distance` needs `L_out` sorted by center id.
        // `L_in` is only inverted, which orders rows by itself.
        let mut l_out = cover.l_out;
        l_out.iter_mut().for_each(|list| list.sort_unstable());
        let mut index = Self {
            layout: LAYOUT,
            l_out: Table::from_rows(&l_out),
            // `L_in` itself until the flags are set, then inverted once
            in_index: Table::from_rows(&cover.l_in),
            node_labels: node_labels.to_vec(),
            stats: BuildStats::default(),
            l_in: Derived::default(),
            out_index: Derived::default(),
        };
        // A label of 2^30 or more would carry the flag bits.
        let fault = index.flag_anchors(sources, targets);
        assert!(
            fault.is_none(),
            "a label past 2^30 or an anchor past the nodes: {fault:?}"
        );
        index.in_index = inverted_in_row_order(&index.in_index, &index.node_labels, SOURCE);
        index.stats = BuildStats {
            in_entries: index.in_index.entries().len(),
            out_entries: index.l_out.entries().len(),
            visits: cover.visits,
        };
        (index, cover.report)
    }

    /// Flags `sources` and `targets` — the anchors the index was built
    /// with, at build and, on the bare labels an image holds, again at load
    /// from the lists saved beside it — or says why not: a word already
    /// carries a flag, or an anchor is not a node of the index. The rows
    /// are in the order of these anchors from the build on, so none is
    /// re-sorted: O(nodes + anchors).
    pub fn flag_anchors(&mut self, sources: &[NodeId], targets: &[NodeId]) -> Option<String> {
        let n = self.node_count();
        let words = &mut self.node_labels;
        let flagged = |word: &u32| word & !LABEL != 0;
        // Branch-free, so it vectorises; the search only names the word.
        if flagged(&words.iter().fold(0, |any, word| any | word)) {
            if let Some(v) = words.iter().position(flagged) {
                let word = words[v];
                return Some(format!(
                    "node {v}'s stored label word {word:#010x} carries anchor flags"
                ));
            }
        }
        for (flag, anchors) in [(SOURCE, sources), (TARGET, targets)] {
            for &a in anchors {
                let Some(word) = words.get_mut(a as usize) else {
                    return Some(format!("anchor {a} names no node of {n}"));
                };
                *word |= flag;
            }
        }
        None
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// The first way the index fails to be laid out as a lookup relies on,
    /// if it does: the layout word is this build's — the descendants pair
    /// alone, inverted rows in row order, which the binary searches of a
    /// lookup need and no image saved before that order existed has — and
    /// the two stored tables are well-formed rows over [`Self::node_count`]
    /// nodes whose entries name nodes of the index, which slicing a row,
    /// reading an entry's label word and deriving the ancestors pair need.
    /// A built index never has one; a decoded image can (a store in an
    /// older layout, a damaged blob), so whoever decodes one checks before
    /// the first lookup. O(nodes + entries); that every row *is* in row
    /// order is [`flixcheck::IntegrityCheck`]'s to audit.
    pub fn layout_fault(&self) -> Option<String> {
        if self.layout != LAYOUT {
            let found = self.layout;
            return Some(format!(
                "label tables in layout {found:#010x}, this build reads {LAYOUT:#010x}"
            ));
        }
        let n = self.node_count();
        [("l_out", &self.l_out), ("in_index", &self.in_index)]
            .into_iter()
            .find_map(|(name, table)| Some(format!("label table {name}: {}", table.fault(n, n)?)))
    }

    /// `L_in`: `in_index` turned around, visiting its rows in id order, so
    /// each row lists its centers ascending — derived on first use and
    /// kept. `distance` reads it, and so does every ancestors-axis join.
    fn l_in(&self) -> &Table {
        let ids = 0..self.node_count() as NodeId;
        self.l_in.0.get_or_init(|| self.in_index.inverted(ids))
    }

    /// `out_index`: `l_out` inverted in the row order of the link targets —
    /// derived on first use and kept: the anchors never change after
    /// [`Self::build`]. Every ancestors-axis join reads it.
    fn out_index(&self) -> &Table {
        self.out_index
            .0
            .get_or_init(|| inverted_in_row_order(&self.l_out, &self.node_labels, TARGET))
    }

    /// Construction statistics.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// `u`'s own `(center, distance)` set along `axis`, ascending by
    /// center: `L_out(u)` going down, `L_in(u)` going up. In a 2-hop cover
    /// `u` reaches `v` iff `L_out(u)` and `L_in(v)` share a center.
    pub fn centers(&self, axis: Axis, u: NodeId) -> &[(NodeId, Distance)] {
        match axis {
            Axis::Descendants => self.l_out.row(u),
            Axis::Ancestors => self.l_in().row(u),
        }
    }

    /// `d(u, w) + d(w, v)` for each center `w` that `L_out(u)` and `L_in(v)`
    /// share, ascending by `w`: one sorted merge, run as far as it is read.
    fn meetings(&self, u: NodeId, v: NodeId) -> impl Iterator<Item = Distance> + '_ {
        let (a, b) = (self.l_out.row(u), self.l_in().row(v));
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || {
            while let (Some(&(x, dx)), Some(&(y, dy))) = (a.get(i), b.get(j)) {
                match x.cmp(&y) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        return Some(dx + dy);
                    }
                }
            }
            None
        })
    }

    /// Exact hop distance from `u` to `v`, or `None` if unreachable.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        self.meetings(u, v).min()
    }

    /// Whether `u` reaches `v`: [`Self::distance`]'s merge, stopped at the
    /// first center the two rows share.
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        self.meetings(u, v).next().is_some()
    }

    /// The two halves of a label join along `axis` from `u`: its own
    /// centers, the inverted table to merge rows of for them, and the flag
    /// of the anchors that table's rows begin with.
    fn side(&self, axis: Axis, u: NodeId) -> JoinSide<'_> {
        let (table, flag) = match axis {
            Axis::Descendants => (&self.in_index, SOURCE),
            Axis::Ancestors => (self.out_index(), TARGET),
        };
        (self.centers(axis, u), table, flag)
    }

    /// The label join along `axis` from `u` read as one queue pop of
    /// FliX's evaluator, over the rows that can answer it — the index's one
    /// lookup. Of each center's inverted row it merges the anchor prefix —
    /// one binary search on the flag ends it; every anchor the node reaches
    /// is a link to follow, whatever its label — and, when `block` asks for
    /// a `(label, include_self)`, the run of that label in the remainder,
    /// found by one binary search.
    ///
    /// `budget` is the distance the pop may still cover (`None`:
    /// unbounded). A center farther than it is skipped, and each segment —
    /// the anchor prefix and the label run, both ascending by distance —
    /// is read up to its first row past what the budget leaves beyond the
    /// center, so the join reads nothing that can only answer past it.
    ///
    /// Replaces the contents of `carrying` with the reached nodes carrying
    /// the label (`u` itself only if `include_self`) and of `links` with the
    /// reached anchors (`u` counts whatever `include_self` says), each
    /// ascending by `(distance, node)` and each exactly the unbudgeted
    /// answer's entries within `budget`. Returns the rows merged — the joins
    /// a database-backed HOPI pays per lookup — and whether the budget cut
    /// the join: it skipped a center or stopped a segment at a row past it.
    /// An uncut join's answer is the unbudgeted one, whole.
    pub fn answer_into(
        &self,
        axis: Axis,
        u: NodeId,
        block: Option<(u32, bool)>,
        budget: Option<Distance>,
        carrying: &mut Reached,
        links: &mut Reached,
    ) -> (usize, bool) {
        let (own, inverted, flag) = self.side(axis, u);
        let words = &self.node_labels;
        let word = |v: NodeId| words[v as usize];
        let budget = budget.unwrap_or(Distance::MAX);
        carrying.clear();
        links.clear();
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.begin(self.node_count());
            let (mut work, mut cut) = (0usize, false);
            for &(w, d1) in own {
                let Some(left) = budget.checked_sub(d1) else {
                    cut = true;
                    continue;
                };
                // The segment's rows within `left`: up to its end, its first
                // row of another label, or its first row past `left` — a cut.
                let mut within = |segment: &[(NodeId, Distance)], label: Option<u32>| {
                    let labelled = |v: NodeId| label.map_or(true, |label| word(v) & LABEL == label);
                    let stops = |&(v, d2): &(NodeId, Distance)| d2 > left || !labelled(v);
                    let end = segment.iter().position(stops).unwrap_or(segment.len());
                    cut |= segment.get(end).is_some_and(|&(v, _)| labelled(v));
                    end
                };
                let row = inverted.row(w);
                let (anchors, rest) =
                    row.split_at(row.partition_point(|&(v, _)| word(v) & flag != 0));
                let anchors = &anchors[..within(anchors, None)];
                let run = block.map_or(&[][..], |(label, _)| {
                    let run = &rest[rest.partition_point(|&(v, _)| word(v) & LABEL < label)..];
                    &run[..within(run, Some(label))]
                });
                work += anchors.len() + run.len();
                for &(v, d2) in anchors.iter().chain(run) {
                    scratch.relax(v, d1 + d2);
                }
            }
            for (v, d) in scratch.entries() {
                if word(v) & flag != 0 {
                    links.push((v, d));
                }
                if block.is_some_and(|(label, include_self)| {
                    word(v) & LABEL == label && (include_self || v != u)
                }) {
                    carrying.push((v, d));
                }
            }
            carrying.sort_unstable_by_key(|&(v, d)| (d, v));
            links.sort_unstable_by_key(|&(v, d)| (d, v));
            (work, cut)
        })
    }

    /// Total label entries (the paper's size measure for HOPI).
    pub fn label_entries(&self) -> usize {
        self.stats.total_entries()
    }

    /// Verifies the 2-hop cover against the graph it was built over, by
    /// exact BFS from a deterministic sample of `samples` source nodes.
    ///
    /// For every sampled source `u` and every node `v`, the label-derived
    /// [`HopiIndex::distance`] must equal the BFS distance (soundness: no
    /// phantom connections; completeness: the cover admits every real
    /// connection at its exact distance).
    ///
    /// # Errors
    /// A description of the first disagreement found.
    pub fn verify_against_graph(&self, g: &Digraph, samples: usize) -> Result<(), String> {
        let n = self.node_count();
        if g.node_count() != n {
            return Err(format!(
                "graph has {} nodes, index covers {n}",
                g.node_count()
            ));
        }
        if n == 0 {
            return Ok(());
        }
        let step = (n / samples.max(1)).max(1);
        for u in (0..n).step_by(step) {
            let u = u as NodeId;
            let dist = graphcore::bfs_distances(g, u);
            for v in 0..n as NodeId {
                let oracle = dist[v as usize];
                let oracle = (oracle != graphcore::INFINITE_DISTANCE).then_some(oracle);
                let indexed = self.distance(u, v);
                if indexed != oracle {
                    return Err(format!(
                        "d({u}, {v}): index says {indexed:?}, BFS says {oracle:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The paper's Table 1 size of the index in bytes: every label entry
    /// twice, once in a label set and once inverted (the paper's database
    /// holds both), plus the node labels. It is not what this struct holds
    /// or persists — only the descendants pair is stored, and the ancestors
    /// pair exists once something derived it — and it counts entries, not
    /// row bookkeeping, so the figure does not depend on how rows are laid
    /// out or which of them are stored.
    pub fn size_bytes(&self) -> usize {
        // every entry appears once in l_in/l_out and once inverted
        2 * self.stats.total_entries() * 8 + self.node_labels.len() * 4
    }
}

impl flixcheck::IntegrityCheck for HopiIndex {
    /// Audits the 2-hop cover's internal shape: the layout word is this
    /// build's and the stored tables are well-formed
    /// ([`HopiIndex::layout_fault`]; nothing else is looked at if not),
    /// every node carries its zero-distance self-entry in both label sets,
    /// center lists are strictly sorted, the inverted tables are exactly
    /// the label sets inverted in row order — so every inverted row lists
    /// its anchors by `(distance, id)`, then the rest by `(label, distance,
    /// id)`; for the stored `in_index`
    /// that checks its rows (`L_in` is derived from them), for `out_index`
    /// the table this index derived, which a stale one fails — and the
    /// build statistics match the stored entry counts.
    ///
    /// Soundness/completeness against the indexed graph needs the graph
    /// itself (not stored here) — see [`HopiIndex::verify_against_graph`].
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("HopiIndex");
        let fault = self.layout_fault();
        audit.check(
            "label tables are in this build's layout, well-formed rows over the indexed nodes",
            fault.is_none(),
            || fault.unwrap_or_default(),
        );
        if audit.violation_count() > 0 {
            return audit.finish();
        }
        let n = self.node_count() as NodeId;

        let holds_self = |table: &Table, w| table.row(w).contains(&(w, 0));
        let first = (0..n).find(|&w| !(holds_self(self.l_in(), w) && holds_self(&self.l_out, w)));
        audit.check(
            "every node holds its zero-distance self-entry",
            first.is_none(),
            || {
                format!(
                    "node {} lacks its (w, 0) self-entry",
                    first.unwrap_or_default()
                )
            },
        );

        let mut first = None;
        'sorted: for (side, sets) in [("L_in", self.l_in()), ("L_out", &self.l_out)] {
            for u in 0..n {
                for w in sets.row(u).windows(2) {
                    if w[0].0 >= w[1].0 {
                        first = Some(format!(
                            "{side}[{u}] not strictly sorted by center at {}",
                            w[1].0
                        ));
                        break 'sorted;
                    }
                }
            }
        }
        audit.check(
            "center lists strictly sorted (no duplicates)",
            first.is_none(),
            || first.unwrap_or_default(),
        );

        let first = [
            ("in_index", &self.in_index, self.l_in(), SOURCE),
            ("out_index", self.out_index(), &self.l_out, TARGET),
        ]
        .into_iter()
        .find(|(_, inverted, labels, flag)| {
            **inverted != inverted_in_row_order(labels, &self.node_labels, *flag)
        });
        audit.check(
            "inverted tables mirror the label sets, in row order",
            first.is_none(),
            || {
                let name = first.map(|(name, ..)| name).unwrap_or_default();
                format!("{name} is not its label table inverted")
            },
        );

        let (in_total, out_total) = (self.in_index.entries().len(), self.l_out.entries().len());
        audit.check(
            "build stats match stored entry counts",
            self.stats.in_entries == in_total && self.stats.out_entries == out_total,
            || {
                format!(
                    "stats say {}+{}, stored {in_total}+{out_total}",
                    self.stats.in_entries, self.stats.out_entries
                )
            },
        );

        audit.finish()
    }
}

#[cfg(test)]
impl HopiIndex {
    /// The declared anchors, `(sources, targets)`, each ascending by id:
    /// what the flags say.
    fn anchors(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        let flagged = |flag| {
            let nodes = 0..self.node_labels.len() as NodeId;
            nodes
                .filter(|&v| self.node_labels[v as usize] & flag != 0)
                .collect()
        };
        (flagged(SOURCE), flagged(TARGET))
    }

    /// The whole-row label join: merges the inverted row of each of `own`'s
    /// centers into this thread's scratch, keeping the minimum distance per
    /// reached node (the node `own` belongs to is always among them, at
    /// distance 0), and returns the reached nodes `admits` lets through,
    /// ascending by `(distance, node)`.
    fn join(&self, (own, inverted, _): JoinSide<'_>, admits: impl Fn(NodeId) -> bool) -> Reached {
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.begin(self.node_count());
            for &(w, d1) in own {
                for &(v, d2) in inverted.row(w) {
                    scratch.relax(v, d1 + d2);
                }
            }
            let mut reached: Reached = scratch.entries().filter(|&(v, _)| admits(v)).collect();
            reached.sort_unstable_by_key(|&(v, d)| (d, v));
            reached
        })
    }

    /// [`Self::answer_into`] as it was before rows were ordered: the
    /// whole-row join, filtered by label and by membership in `anchors` —
    /// the oracle the partitioned join is tested against.
    fn block_and_anchors_of_whole_rows(
        &self,
        u: NodeId,
        side: JoinSide<'_>,
        (label, include_self): (u32, bool),
        anchors: &[NodeId],
    ) -> (Reached, Reached) {
        let carries = |v: NodeId| self.node_labels[v as usize] & LABEL == label;
        (
            self.join(side, |v| carries(v) && (include_self || v != u)),
            self.join(side, |v| anchors.contains(&v)),
        )
    }

    /// The stored fields alone, nothing derived — what this index's image
    /// decodes to. A test that damages a stored table starts from this, so
    /// that no table derived from the undamaged one is left behind.
    fn stored(&self) -> Self {
        Self {
            l_in: Derived::default(),
            out_index: Derived::default(),
            ..self.clone()
        }
    }

    /// This index's stored fields as a build from before rows were ordered
    /// held them: `in_index` rows ascending by node id, no flags.
    fn with_id_ordered_rows(&self) -> Self {
        let mut stale = self.stored();
        stale.in_index.sort_rows_by_key(|(v, _)| u64::from(v));
        stale.node_labels.iter_mut().for_each(|word| *word &= LABEL);
        stale
    }

    /// This index's stored fields as a "ROW3" build held them: `in_index`
    /// rows ascending by (not a link source, label, id), no distance in the
    /// key.
    fn with_row3_rows(&self) -> Self {
        let mut stale = self.stored();
        let words = &self.node_labels;
        let key = |v: NodeId| {
            u64::from(words[v as usize] & SOURCE == 0) << 62
                | u64::from(words[v as usize] & LABEL) << 32
                | u64::from(v)
        };
        stale.in_index.sort_rows_by_key(|(v, _)| key(v));
        stale.layout = u32::from_le_bytes(*b"ROW3");
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DistanceOracle, TransitiveClosure, INFINITE_DISTANCE};
    use proptest::prelude::*;

    /// The nodes along `axis` from `u` carrying `label`, nearest first.
    fn block(idx: &HopiIndex, axis: Axis, u: NodeId, label: u32, include_self: bool) -> Reached {
        let asked = Some((label, include_self));
        graphcore::filled(|out| idx.answer_into(axis, u, asked, None, out, &mut vec![])).0
    }

    fn check_exact(g: &Digraph, labels: &[u32]) {
        let idx = HopiIndex::build(g, labels, &[], &[]).0;
        let tc = TransitiveClosure::build(g);
        let oracle = DistanceOracle::new(g);
        let n = g.node_count() as NodeId;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    idx.distance(u, v).is_some(),
                    tc.reaches(u, v),
                    "reach {u}->{v}"
                );
                let d = oracle.distance(u, v);
                let got = idx.distance(u, v).unwrap_or(INFINITE_DISTANCE);
                assert_eq!(got, d, "dist {u}->{v}");
            }
        }
    }

    #[test]
    fn exact_on_tree() {
        let g = Digraph::from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 6), (2, 5)]);
        check_exact(&g, &[0; 7]);
    }

    #[test]
    fn exact_on_dag_with_shortcuts() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 3), (1, 5), (5, 4)]);
        check_exact(&g, &[0; 6]);
    }

    #[test]
    fn exact_on_cyclic_graph() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]);
        check_exact(&g, &[0; 6]);
    }

    #[test]
    fn exact_on_disconnected() {
        let g = Digraph::from_edges(5, [(0, 1), (3, 4)]);
        check_exact(&g, &[0; 5]);
    }

    #[test]
    fn descendants_sorted_and_complete() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]);
        let idx = HopiIndex::build(&g, &[0; 6], &[], &[]).0;
        let d = block(&idx, Axis::Descendants, 0, 0, false);
        let nodes: Vec<NodeId> = d.iter().map(|&(v, _)| v).collect();
        let mut sorted_nodes = nodes.clone();
        sorted_nodes.sort_unstable();
        assert_eq!(sorted_nodes, vec![1, 2, 3, 4]);
        assert!(d.windows(2).all(|w| w[0].1 <= w[1].1), "ascending distance");
        // shortcut 0->3 gives distance 1, then 4 at 2
        assert!(d.contains(&(3, 1)));
        assert!(d.contains(&(4, 2)));
        // include_self
        let ds = block(&idx, Axis::Descendants, 0, 0, true);
        assert_eq!(ds[0], (0, 0));
    }

    #[test]
    fn ancestors_mirror_descendants() {
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (3, 2), (2, 4)]);
        let idx = HopiIndex::build(&g, &[0; 5], &[], &[]).0;
        let a = block(&idx, Axis::Ancestors, 4, 0, false);
        let nodes: Vec<NodeId> = a.iter().map(|&(v, _)| v).collect();
        let mut s = nodes.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3]);
        assert!(a.contains(&(2, 1)));
        assert!(a.contains(&(0, 3)));
    }

    #[test]
    fn label_filtering() {
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let labels = [9, 7, 9, 7, 7];
        let idx = HopiIndex::build(&g, &labels, &[], &[]).0;
        let r = block(&idx, Axis::Descendants, 0, 7, false);
        assert_eq!(r, vec![(1, 1), (3, 3), (4, 4)]);
        let r = block(&idx, Axis::Ancestors, 4, 9, false);
        assert_eq!(r, vec![(2, 2), (0, 4)]);
        // include_self respects the node's own label
        let r = block(&idx, Axis::Descendants, 0, 9, true);
        assert_eq!(r[0], (0, 0));
    }

    #[test]
    fn pruning_keeps_labels_small_on_chain() {
        // On a chain, the first center (an endpoint or middle hub) covers
        // everything; labels should stay near-linear, far below n^2.
        let n = 200u32;
        let g = Digraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1)));
        let idx = HopiIndex::build(&g, &vec![0; n as usize], &[], &[]).0;
        // Naive (unpruned or badly ordered) labelling would cost ~n²/2 =
        // 20 000 entries; the pruned, balanced order stays near n·log n.
        assert!(
            idx.label_entries() < 8_000,
            "labels blew up: {}",
            idx.label_entries()
        );
        assert_eq!(idx.distance(0, n - 1), Some(n - 1));
    }

    #[test]
    fn size_accounting() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let idx = HopiIndex::build(&g, &[0; 3], &[], &[]).0;
        assert!(idx.size_bytes() > 0);
        assert!(idx.stats().visits > 0);
    }

    fn rows_of(table: &Table) -> Vec<Vec<(NodeId, Distance)>> {
        (0..table.rows() as NodeId)
            .map(|i| table.row(i).to_vec())
            .collect()
    }

    /// Every row of both inverted tables lists its anchors by distance,
    /// then id, then the rest by label, then distance, then id.
    fn assert_rows_in_key_order(idx: &HopiIndex) {
        for (table, flag) in [(&idx.in_index, SOURCE), (idx.out_index(), TARGET)] {
            for w in 0..idx.node_count() as NodeId {
                let keys: Vec<_> = (table.row(w).iter())
                    .map(|&(v, d)| {
                        let word = idx.node_labels[v as usize];
                        let anchor = word & flag != 0;
                        (!anchor, if anchor { 0 } else { word & LABEL }, d, v)
                    })
                    .collect();
                assert!(keys.windows(2).all(|k| k[0] < k[1]), "row {w}: {keys:?}");
            }
        }
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let g = Digraph::from_edges(5, [(0, 1), (0, 2), (1, 4), (2, 4), (4, 3)]);
        // labels descend with the id, so row order is nowhere id order;
        // built with anchors, the last node is one, and anchor 4 lies above
        // anchor 3, so the anchor prefix is not in id order either
        let undeclared = HopiIndex::build(&g, &[4, 3, 2, 1, 1], &[], &[]).0;
        assert_rows_in_key_order(&undeclared);
        undeclared.integrity_check().unwrap();
        let idx = HopiIndex::build(&g, &[4, 3, 2, 1, 1], &[4, 3], &[2]).0;
        assert_eq!(idx.anchors(), (vec![3, 4], vec![2]));
        assert_rows_in_key_order(&idx);
        idx.integrity_check().unwrap();
        idx.verify_against_graph(&g, 5).unwrap();
        // dropping a self-entry breaks cover admissibility
        let mut bad = idx.stored();
        let mut rows = rows_of(&bad.l_out);
        rows[0].retain(|&(c, _)| c != 0);
        bad.l_out = Table::from_rows(&rows);
        assert!(bad.integrity_check().is_err());
        // an entry missing from the inverted index is off the build counts
        let mut bad = idx.stored();
        let mut rows = rows_of(&bad.in_index);
        let row = rows.iter_mut().find(|row| !row.is_empty()).unwrap();
        row.pop();
        bad.in_index = Table::from_rows(&rows);
        assert_eq!(bad.layout_fault(), None);
        let err = bad.integrity_check().unwrap_err().to_string();
        assert!(err.contains("build stats"), "{err}");
        // stored rows in id order — what a build before the row order held
        // — a flag the rows were not ordered by, and a derived table of a
        // build with other anchors break the mirror
        let order_fault = |bad: &HopiIndex| {
            assert_eq!(bad.layout_fault(), None);
            let err = bad.integrity_check().unwrap_err().to_string();
            assert!(err.contains("in row order"), "{err}");
            err
        };
        assert!(order_fault(&idx.with_id_ordered_rows()).contains("in_index"));
        let mut row3 = idx.with_row3_rows();
        assert!(row3.layout_fault().unwrap().contains("layout"));
        row3.layout = LAYOUT;
        assert_ne!(row3.in_index, idx.in_index);
        assert!(order_fault(&row3).contains("in_index"));
        let mut bad = idx.stored();
        bad.node_labels[0] |= SOURCE;
        assert!(order_fault(&bad).contains("in_index"));
        let mut stale = idx.stored();
        stale.out_index = Derived(OnceLock::from(undeclared.out_index().clone()));
        assert!(order_fault(&stale).contains("out_index"));
        // a row naming a node twice turns into a label set naming a center
        // twice; one naming a node outside the index is refused before any
        // lookup could index by it
        let mut rows = rows_of(&idx.in_index);
        let w = rows.iter().position(|row| row.len() > 1).unwrap();
        rows[w][1] = rows[w][0];
        let mut bad = idx.stored();
        bad.in_index = Table::from_rows(&rows);
        assert_eq!(bad.layout_fault(), None);
        let err = bad.integrity_check().unwrap_err().to_string();
        assert!(err.contains("strictly sorted"), "{err}");
        rows[w][1].0 = 5;
        let mut bad = idx.stored();
        bad.in_index = Table::from_rows(&rows);
        let fault = bad.layout_fault().unwrap();
        assert!(
            fault.contains("in_index") && fault.contains("names node 5"),
            "{fault}"
        );
        assert!(bad.integrity_check().is_err());
        // an index in any other layout — the parent's four tables included —
        // is not looked at further
        for word in [*b"ROW1", *b"ROW2", *b"ROW3"] {
            let mut bad = idx.stored();
            bad.layout = u32::from_le_bytes(word);
            assert!(bad.layout_fault().unwrap().contains("layout"));
            assert!(bad.integrity_check().is_err());
        }
        // wrong stats are caught
        let mut bad = idx.stored();
        bad.stats.in_entries += 1;
        assert!(bad.integrity_check().is_err());
        // a corrupted distance passes the shape checks but fails the oracle
        let mut rows = rows_of(&idx.l_out);
        let e = (rows.iter_mut().flatten())
            .find(|e| e.1 > 0)
            .expect("cover has at least one non-self entry");
        e.1 += 1;
        let mut bad = idx.stored();
        bad.l_out = Table::from_rows(&rows);
        assert_eq!(bad.layout_fault(), None);
        assert!(bad.verify_against_graph(&g, 5).is_err());
    }

    /// `table` with its first entry naming node 3.
    fn naming_node_3(table: &Table) -> Table {
        let mut rows = rows_of(table);
        rows[0][0].0 = 3;
        Table::from_rows(&rows)
    }

    /// Another build's layout word, label words for more nodes than the
    /// tables have rows, and an entry naming no node of the index in either
    /// stored table — each table's faults are [`Rows::fault`]'s.
    #[test]
    fn layout_fault_names_the_layout_word_and_each_table() {
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let idx = HopiIndex::build(&g, &[0; 3], &[], &[]).0;
        assert_eq!(idx.layout_fault(), None);
        type Damage = (fn(&mut HopiIndex), &'static str);
        let damage: [Damage; 4] = [
            (|i| i.layout = 0, "label tables in layout 0x00000000"),
            (
                |i| i.node_labels.push(0),
                "label table l_out: 4 offsets for 4 rows",
            ),
            (
                |i| i.l_out = naming_node_3(&i.l_out),
                "label table l_out: entry 0 names node 3 of 3",
            ),
            (
                |i| i.in_index = naming_node_3(&i.in_index),
                "label table in_index: entry 0 names node 3 of 3",
            ),
        ];
        for (damage, fault) in damage {
            let mut bad = idx.clone();
            damage(&mut bad);
            let found = bad.layout_fault().unwrap_or_default();
            assert!(found.starts_with(fault), "{fault}: {found}");
        }
        let empty = HopiIndex::build(&Digraph::from_edges(0, []), &[], &[], &[]).0;
        assert_eq!(empty.layout_fault(), None);
        assert_eq!(empty.node_count(), 0);
    }

    /// The inversion `build` ran before the tables were flat: push
    /// `(v, d)` onto row `w`, rows visited in `order`.
    fn pushed_inversion(
        rows: &[Vec<(NodeId, Distance)>],
        order: &[NodeId],
    ) -> Vec<Vec<(NodeId, Distance)>> {
        let mut inverted = vec![Vec::new(); rows.len()];
        for &v in order {
            for &(w, d) in &rows[v as usize] {
                inverted[w as usize].push((v, d));
            }
        }
        inverted
    }

    /// `rows` flattened and inverted, visiting them ascending, descending
    /// and odd ids first.
    fn check_table(rows: &[Vec<(NodeId, Distance)>]) {
        let table = Table::from_rows(rows);
        assert_eq!(table.fault(rows.len(), rows.len()), None);
        assert_eq!(rows_of(&table), rows);
        let ascending: Vec<NodeId> = (0..rows.len() as NodeId).collect();
        let mut odd_first = ascending.clone();
        odd_first.sort_by_key(|v| v % 2 == 0);
        let descending = ascending.iter().rev().copied().collect();
        for order in [ascending, descending, odd_first] {
            let inverted = table.inverted(order.iter().copied());
            assert_eq!(inverted.fault(rows.len(), rows.len()), None);
            let pushed = pushed_inversion(rows, &order);
            assert_eq!(inverted, Table::from_rows(&pushed), "{order:?}");
        }
    }

    #[test]
    fn table_keeps_rows_where_empty_ones_sit_first_middle_and_last() {
        check_table(&[]);
        check_table(&[vec![]]);
        check_table(&[vec![], vec![(2, 1), (0, 3)], vec![], vec![(1, 0)], vec![]]);
        check_table(&[vec![(0, 0)], vec![(0, 1), (1, 0)]]);
        // a center repeated within a row and across rows
        check_table(&[vec![(1, 2), (1, 0)], vec![], vec![(1, 1), (0, 4), (1, 1)]]);
    }

    /// An image holds each node's label without its flags, and flagging it
    /// with the anchors declared when it was saved gives the index back;
    /// a stored word with a flag, or an anchor past the index, is refused.
    #[test]
    fn an_image_holds_bare_labels_and_a_load_flags_them() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let idx = HopiIndex::build(&g, &[3, 2, 1, 0], &[1, 3], &[0, 3]).0;
        let image = pagestore::to_bytes(&idx).unwrap();
        let mut back: HopiIndex = pagestore::from_bytes(&image).unwrap();
        assert_eq!(back.node_labels, [3, 2, 1, 0]);
        assert_eq!(pagestore::to_bytes(&back).unwrap(), image);
        let mut flagged = back.clone();
        flagged.node_labels[2] |= TARGET;
        let fault = "node 2's stored label word 0x40000001 carries anchor flags";
        assert_eq!(flagged.flag_anchors(&[], &[]).unwrap(), fault);
        let past = back.clone().flag_anchors(&[1], &[4]);
        assert_eq!(past.unwrap(), "anchor 4 names no node of 4");
        assert_eq!(back.flag_anchors(&[1, 3], &[0, 3]), None);
        assert_eq!(back, idx);
    }

    #[test]
    #[should_panic(expected = "2^30")]
    fn a_label_that_reaches_the_flag_bits_panics_at_build() {
        let g = Digraph::from_edges(2, [(0, 1)]);
        HopiIndex::build(&g, &[LABEL, LABEL + 1], &[], &[]);
    }

    /// `flags[v]` bit 0 makes `v` a link source, bit 1 a link target.
    fn anchor_sets(flags: &[u8]) -> (Vec<NodeId>, Vec<NodeId>) {
        let picked = |bit: u8| {
            let nodes = 0..flags.len() as NodeId;
            nodes.filter(|&v| flags[v as usize] & bit != 0).collect()
        };
        (picked(1), picked(2))
    }

    /// A digraph over `n` nodes (cycles and self-loops welcome) with a
    /// label below 3 and two anchor-flag draws per node.
    fn arb_labelled_graph() -> impl Strategy<Value = (Digraph, Vec<u32>, Vec<u8>, Vec<u8>)> {
        (1usize..14).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
            let per_node = |top: u8| proptest::collection::vec(0..top, n);
            (edges, per_node(3), per_node(4), per_node(4)).prop_map(move |(e, labels, a, b)| {
                let labels = labels.into_iter().map(u32::from).collect();
                (Digraph::from_edges(n, e), labels, a, b)
            })
        })
    }

    /// The four tables a build from before the ancestors pair was derived
    /// held, built as it built them — both label sets off the cover, each
    /// inverted in the row order of its anchors — the oracle the stored and
    /// the derived tables are tested against.
    struct FourTables {
        l_in: Table,
        l_out: Table,
        in_index: Table,
        out_index: Table,
    }

    impl FourTables {
        fn build(
            g: &Digraph,
            labels: &[u32],
            (sources, targets): &(Vec<NodeId>, Vec<NodeId>),
        ) -> Self {
            let cover = cover::build_cover(g);
            let sorted_flat = |mut rows: Vec<Vec<_>>| {
                rows.iter_mut().for_each(|list| list.sort_unstable());
                Table::from_rows(&rows)
            };
            let (l_in, l_out) = (sorted_flat(cover.l_in), sorted_flat(cover.l_out));
            let mut words = labels.to_vec();
            for (flag, anchors) in [(SOURCE, sources), (TARGET, targets)] {
                for &a in anchors {
                    words[a as usize] |= flag;
                }
            }
            Self {
                in_index: inverted_in_row_order(&l_in, &words, SOURCE),
                out_index: inverted_in_row_order(&l_out, &words, TARGET),
                l_in,
                l_out,
            }
        }

        fn tables(&self) -> [&Table; 4] {
            [&self.l_in, &self.l_out, &self.in_index, &self.out_index]
        }

        /// [`HopiIndex::side`] of both axes over these tables.
        fn sides(&self, u: NodeId) -> [JoinSide<'_>; 2] {
            [
                (self.l_out.row(u), &self.in_index, SOURCE),
                (self.l_in.row(u), &self.out_index, TARGET),
            ]
        }
    }

    /// `idx`'s tables in [`FourTables::tables`] order, deriving what it has
    /// not derived yet.
    fn tables(idx: &HopiIndex) -> [&Table; 4] {
        [idx.l_in(), &idx.l_out, &idx.in_index, idx.out_index()]
    }

    /// `idx` through its persisted image, flagged with its anchors as a
    /// load flags it with the lists saved beside it: what a store hands
    /// back.
    fn decoded(idx: &HopiIndex) -> HopiIndex {
        let mut back: HopiIndex =
            pagestore::from_bytes(&pagestore::to_bytes(idx).unwrap()).unwrap();
        let (sources, targets) = idx.anchors();
        assert_eq!(back.flag_anchors(&sources, &targets), None);
        back
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The merge that stops at the first shared center answers every
        /// pair as the full distance merge does.
        #[test]
        fn reaches_is_distance_found((g, labels, _, _) in arb_labelled_graph()) {
            let idx = HopiIndex::build(&g, &labels, &[], &[]).0;
            let n = g.node_count() as NodeId;
            for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
                prop_assert_eq!(idx.reaches(u, v), idx.distance(u, v).is_some(), "{} {}", u, v);
            }
        }

        /// Reading the anchor prefix and the label run of each row gives
        /// what reading whole rows of the four-table build and filtering
        /// gives, in the same order, and charges exactly those rows — both
        /// directions, with and without the start, on the built index and
        /// on its decoded image, each deriving its ancestors pair on first
        /// use.
        #[test]
        fn the_partitioned_join_equals_the_filtered_whole_row_join(
            (g, labels, flags, _) in arb_labelled_graph()
        ) {
            let declared = anchor_sets(&flags);
            let (sources, targets) = &declared;
            let oracle = FourTables::build(&g, &labels, &declared);
            let built = HopiIndex::build(&g, &labels, sources, targets).0;
            for idx in [decoded(&built), built] {
                prop_assert_eq!(idx.layout_fault(), None);
                prop_assert_eq!(tables(&idx), oracle.tables());
                for u in 0..g.node_count() as NodeId {
                    let axes = [(Axis::Descendants, sources), (Axis::Ancestors, targets)];
                    for ((axis, anchors), whole) in axes.into_iter().zip(oracle.sides(u)) {
                        let side = idx.side(axis, u);
                        // the rows a lookup may read: anchors, and `label`'s
                        let rows = |label: Option<u32>| {
                            let rows = side.0.iter().flat_map(|&(w, _)| side.1.row(w));
                            rows.filter(|&&(v, _)| {
                                anchors.contains(&v) || Some(labels[v as usize]) == label
                            })
                            .count()
                        };
                        // One pair of buffers for every lookup of the node:
                        // a longer earlier answer must not show through.
                        let (mut block, mut links, mut reached) = (vec![], vec![], vec![]);
                        let work = idx.answer_into(axis, u, None, None, &mut block, &mut links);
                        prop_assert_eq!((&block, work), (&Vec::new(), (rows(None), false)));
                        for label in 0..3 {
                            for include_self in [false, true] {
                                let asked = (label, include_self);
                                let want =
                                    idx.block_and_anchors_of_whole_rows(u, whole, asked, anchors);
                                let work = idx.answer_into(
                                    axis,
                                    u,
                                    Some(asked),
                                    None,
                                    &mut block,
                                    &mut reached,
                                );
                                prop_assert_eq!(&reached, &links);
                                let got = (block.clone(), reached.clone());
                                prop_assert_eq!(got, want, "{} label {}", u, label);
                                prop_assert_eq!(work, (rows(Some(label)), false));
                            }
                        }
                    }
                }
            }
        }

        /// A join within a budget answers what the unbudgeted join answers
        /// within it — blocks and links, in the same order — and reads no
        /// more rows; one the budget did not cut answers the whole join, and
        /// a budget no row lies past cuts nothing: both directions, every
        /// label, with and without the start, every budget from 0 past the
        /// largest distance, under two draws of anchors.
        #[test]
        fn a_budgeted_join_equals_the_unbudgeted_join_within_the_budget(
            (g, labels, a, b) in arb_labelled_graph()
        ) {
            let [a, b] = [a, b].map(|flags| anchor_sets(&flags));
            let [idx, other] = [a, b].map(|(sources, targets)| {
                HopiIndex::build(&g, &labels, &sources, &targets).0
            });
            let within = |reached: &Reached, budget| -> Reached {
                reached.iter().copied().filter(|&(_, d)| d <= budget).collect()
            };
            for idx in [idx, other] {
                for u in 0..g.node_count() as NodeId {
                    for axis in [Axis::Descendants, Axis::Ancestors] {
                        let asks = (0..3).flat_map(|label| [Some((label, false)), Some((label, true))]);
                        for asked in asks.chain([None]) {
                            let (mut block, mut links) = (vec![], vec![]);
                            let (work, cut) = idx.answer_into(axis, u, asked, None, &mut block, &mut links);
                            prop_assert!(!cut);
                            let top = block.iter().chain(&links).map(|&(_, d)| d).max().unwrap_or(0);
                            // past every center's distance too, so that budgets
                            // skipping no center are tried
                            let (own, ..) = idx.side(axis, u);
                            let far = own.iter().map(|&(_, d1)| d1).max().unwrap_or(0);
                            for budget in 0..=top.max(far) + 1 {
                                let (mut b, mut l) = (vec![], vec![]);
                                let (w, cut) = idx.answer_into(axis, u, asked, Some(budget), &mut b, &mut l);
                                prop_assert_eq!(&b, &within(&block, budget), "{} {:?} {}", u, asked, budget);
                                prop_assert_eq!(&l, &within(&links, budget), "{} {:?} {}", u, asked, budget);
                                prop_assert!(w <= work, "{} > {}", w, work);
                                // an uncut join is the whole one; one that
                                // reads fewer rows was cut
                                if !cut {
                                    prop_assert_eq!((&b, &l, w), (&block, &links, work), "{} {:?} {}", u, asked, budget);
                                }
                            }
                            // no row lies farther than the node count on either hop
                            let far_enough = 2 * g.node_count() as Distance;
                            let (mut b, mut l) = (vec![], vec![]);
                            let got = idx.answer_into(axis, u, asked, Some(far_enough), &mut b, &mut l);
                            prop_assert_eq!(got, (work, false));
                        }
                    }
                }
            }
        }

        /// Rows of any shape — unsorted, repeated centers within and
        /// across rows, empty — come back as they went in, and invert as
        /// pushing did; with `hollow` the first, a middle and the last row
        /// are empty.
        #[test]
        fn table_matches_its_rows_and_the_pushed_inversion(
            (mut rows, hollow) in (0usize..12).prop_flat_map(|n| {
                let entry = (0..n.max(1) as NodeId, 0..9 as Distance);
                let rows = proptest::collection::vec(proptest::collection::vec(entry, 0..5), n);
                (rows, any::<bool>())
            })
        ) {
            if hollow && !rows.is_empty() {
                let n = rows.len();
                for at in [0, n / 2, n - 1] {
                    rows[at].clear();
                }
            }
            check_table(&rows);
        }
    }
}
