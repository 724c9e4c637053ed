//! The Path Expression Evaluator (paper §5, Fig. 4).
//!
//! `findDescendantsByName(a, B)` keeps a priority queue `IE` of entry
//! elements ordered by a lower bound on their distance from the start
//! element. Popping an entry `e`: answer the query inside `e`'s meta
//! document from its index (one *block* of results, ascending in-meta
//! distance), then push the targets of all runtime links reachable from
//! `e` with priority `dist(a,e) + dist(e,link) + 1`. Results therefore
//! stream in *approximately* ascending global distance — exactly the
//! trade-off §6 quantifies with the error-rate experiment.
//!
//! Duplicate elimination follows §5.1: instead of remembering every result,
//! the evaluator remembers only the *entry points* per meta document. An
//! entry reachable from an earlier entry of the same meta document is
//! subsumed and dropped; a result reachable from an earlier entry has
//! already been returned and is skipped. Under PPO an entry's reach is a
//! preorder interval, so that memory (`Entries`) is a union of intervals
//! and the entry test one binary search. The result test runs once per
//! block row, so it is kept by its consequence instead: a row is reachable
//! from an earlier entry exactly when an answered block held it, and one
//! bit per element (`RowMarks`) says so without an index probe. And a
//! link push of a node the evaluation already queued no farther away is
//! refused before it reaches the heap — it could only ever be subsumed.
//!
//! Every query mode is one value, [`Query`], and one driver, `run`,
//! answers it: there is exactly one copy of the loop, `Evaluation::step`,
//! generic over the `MetaSpace` it runs on — the in-memory framework, one
//! shard of it, or the disk-resident engine. Axis queries drain one
//! evaluation; a connection test (§5.2) steps one, or two for a
//! bidirectional test, and its pop probes the distance to its target
//! instead of answering a block.
//! Its rows, like exact order's (§7), are *held* at the smallest distance
//! found until the queue's lower bound proves no entry left can beat them.

use crate::catalogue::Catalogue;
use crate::framework::Flix;
use crate::meta::{MetaDocument, MetaIndex, PopAnswer};
use flixobs::journal::{EventKind, JournalHandle, SHARD_NONE};
use flixobs::{Deadline, QueryTrace, SpanStage, Stopwatch};
use graphcore::{DistScratch, Distance, NodeId};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::convert::Infallible;
use std::ops::{ControlFlow, Deref};
use xmlgraph::TagId;

/// One query answer: a node and its (approximate) distance from the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct QueryResult {
    /// Distance from the query's start element (hop count; link hops cost
    /// one extra, matching Fig. 4).
    pub distance: Distance,
    /// The matching element (global id).
    pub node: NodeId,
}

/// Options controlling query evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Stop once the queue's lower bound exceeds this distance.
    pub max_distance: Option<Distance>,
    /// Stop after this many results.
    pub max_results: Option<usize>,
    /// Whether the start element itself may match (descendant-or-self vs.
    /// strict descendant semantics).
    pub include_start: bool,
    /// Return results in *exactly* ascending distance order instead of the
    /// default approximate (block-streamed) order. This implements the
    /// paper's §7 optimisation sketch: results are held back until the
    /// queue's lower bound proves no shorter result can still appear. It
    /// costs memory (the held results and a per-node best distance, in the
    /// thread's scratch) and delays the first results.
    pub exact_order: bool,
    /// Per-request time budget, checked once per queue pop (no clock reads
    /// when unset). On expiry the evaluation stops and the results emitted
    /// so far stand as a partial prefix of the full answer; the outcome
    /// reports the cut via its `timed_out` marker.
    pub deadline: Option<Deadline>,
}

impl QueryOptions {
    /// Top-k convenience constructor.
    pub fn top_k(k: usize) -> Self {
        Self {
            max_results: Some(k),
            ..Self::default()
        }
    }

    /// Distance-threshold convenience constructor.
    pub fn within(d: Distance) -> Self {
        Self {
            max_distance: Some(d),
            ..Self::default()
        }
    }

    /// Exactly-sorted convenience constructor (§7 optimisation).
    pub fn exact() -> Self {
        Self {
            exact_order: true,
            ..Self::default()
        }
    }

    /// Attaches a per-request deadline.
    pub fn with_deadline(self, deadline: Deadline) -> Self {
        Self {
            deadline: Some(deadline),
            ..self
        }
    }
}

/// Direction of an axis evaluation — the one every index lookup follows.
pub use graphcore::Axis;

/// Where a [`Query`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Start {
    /// One element, at distance 0.
    Node(NodeId),
    /// Every element with this tag, each at distance 0 — §5.2's `A//B`. A
    /// match's distance is the minimum over the starts in exact order; in
    /// approximate order it may be more (§5.1's entry test skips a start
    /// that an entry popped before it reaches).
    Tag(TagId),
}

/// What a [`Query`] looks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Goal {
    /// Every element with this tag: an axis query.
    Tag(TagId),
    /// One element: a connection test (§5.2). Its answer is at most one
    /// result, naming `node`, at the (approximate) distance found.
    Node {
        /// The element sought.
        node: NodeId,
        /// §5.2's sketched optimisation: a second side walks back from
        /// `node` along the other axis (see `pee::run`). Depending on the
        /// fan-in and fan-out around the endpoints either side may finish
        /// orders of magnitude earlier.
        both_ways: bool,
    },
}

/// One query, whatever its mode: descendants or ancestors of an element
/// or of a tag's elements, or a connection test. Every backend answers it
/// through one call; result caches and single-flight key on it.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    /// Where the evaluation starts.
    pub from: Start,
    /// What it looks for.
    pub to: Goal,
    /// Which way it walks ([`Axis::Ancestors`]: the elements from which
    /// the start is reachable).
    pub axis: Axis,
    /// Bounds, ordering and deadline.
    pub opts: QueryOptions,
}

impl Query {
    /// `from // target`: the elements with tag `target` below `from`.
    pub fn descendants(from: NodeId, target: TagId, opts: QueryOptions) -> Self {
        Self {
            from: Start::Node(from),
            to: Goal::Tag(target),
            axis: Axis::Descendants,
            opts,
        }
    }

    /// The elements with tag `target` from which `from` is reachable.
    pub fn ancestors(from: NodeId, target: TagId, opts: QueryOptions) -> Self {
        Self {
            axis: Axis::Ancestors,
            ..Self::descendants(from, target, opts)
        }
    }

    /// Connection test `from // to` (§5.2): is `to` reachable from `from`,
    /// and at what (approximate) distance? Result caps and exact order do
    /// not apply.
    pub fn connection(from: NodeId, to: NodeId, both_ways: bool, opts: QueryOptions) -> Self {
        Self {
            from: Start::Node(from),
            to: Goal::Node {
                node: to,
                both_ways,
            },
            axis: Axis::Descendants,
            opts,
        }
    }
}

/// Who, besides the caller, observes an evaluation. Both observers are
/// write-only — no branch of the evaluator consults them, so the result
/// stream is byte-identical with and without them — and the default
/// observes nothing: no clock is read, no journal touched. (The deadline
/// is not here: it is part of the request, see [`QueryOptions::deadline`].)
#[derive(Default)]
pub struct QueryCtx<'a> {
    /// Receives one timed span per queue pop, block fetch and link
    /// expansion; together they tile the evaluation.
    pub trace: Option<&'a mut QueryTrace>,
    /// Flight-recorder handle bound to the request: routing, cache and
    /// evaluator events are journaled under it.
    pub journal: Option<&'a JournalHandle<'a>>,
}

impl QueryCtx<'_> {
    /// Journals `kind` if a recorder is attached.
    pub(crate) fn event(&self, kind: EventKind) {
        if let Some(j) = self.journal {
            j.event(kind);
        }
    }
}

/// A collected query answer plus its termination status and the work it
/// took.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The (possibly partial) results, in the evaluator's streamed order.
    pub results: Vec<QueryResult>,
    /// True when the deadline expired before the evaluation finished. The
    /// results are then the prefix an untimed evaluation would have emitted
    /// first — still distance-ordered under `exact_order`.
    pub timed_out: bool,
    /// Evaluation counters.
    pub stats: PeeStats,
}

impl QueryOutcome {
    /// A connection test's verdict: the distance of its one result, or
    /// `None` when the pair is not connected within `max_distance`. When
    /// `timed_out`, the best candidate found before the deadline,
    /// unconfirmed: a shorter connection, or one where this is `None`,
    /// may exist.
    pub fn distance(&self) -> Option<Distance> {
        self.results.first().map(|r| r.distance)
    }
}

/// Evaluation counters, exposed for the benchmark harness and for cost
/// models that emulate the paper's database-backed deployment (every heap
/// pop — `entries_popped + entries_subsumed` — is one index lookup, a
/// database round trip in the original implementation). Every entry an
/// evaluation queues ends in exactly one of the three `entries_*` counts
/// once the queue has drained: `entries_popped + entries_subsumed +
/// entries_refused == seeds + links_expanded` (a [`Start::Tag`] seeds
/// every element with its tag, the far side of a two-way test its goal).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeeStats {
    /// Entries popped from the priority queue and answered (meta-document
    /// index lookups).
    pub entries_popped: usize,
    /// Entries popped from the priority queue, then dropped by the §5.1
    /// subsumption check.
    pub entries_subsumed: usize,
    /// Link pushes refused before they reached the priority queue: the
    /// evaluation had already queued the same node at an equal or smaller
    /// distance (within the query's distance bound, if it has one), so the
    /// entry could only have been popped to be subsumed. Costs no index
    /// lookup.
    pub entries_refused: usize,
    /// Index rows touched (or elements traversed, for APEX) while
    /// materialising meta-document blocks — row fetches in the paper's
    /// database-backed deployment, charged when the block is built. Under
    /// HOPI these are the label rows the pop's one join reads: per center
    /// of the entry, the link-anchor prefix of the inverted row (so link
    /// enumeration is charged here too) and the run carrying the tag.
    pub block_results_scanned: usize,
    /// Runtime links pushed into the queue.
    pub links_expanded: usize,
}

impl PeeStats {
    /// Adds `other`'s counters into `self` — used to combine the two sides
    /// of a bidirectional connection test into one per-query record.
    pub fn absorb(&mut self, other: PeeStats) {
        self.entries_popped += other.entries_popped;
        self.entries_subsumed += other.entries_subsumed;
        self.entries_refused += other.entries_refused;
        self.block_results_scanned += other.block_results_scanned;
        self.links_expanded += other.links_expanded;
    }
}

/// The node universe an evaluation runs over: the full framework, one
/// shard of it ([`crate::shard`]), or indexes resident in a blob store
/// ([`crate::diskexec`]). The evaluator loop is generic over this trait, so
/// every path executes the *same* loop over the same meta-document data
/// and the same [`Catalogue`] — which is what makes their result streams
/// byte-identical.
pub(crate) trait MetaSpace {
    /// How the space hands out a meta document: a plain borrow in memory,
    /// a shared handle when the index was just faulted in from disk.
    type Meta<'a>: Deref<Target = MetaDocument>
    where
        Self: 'a;
    /// Why a meta document could not be produced ([`Infallible`] in
    /// memory). An evaluation that hits one ends with this error — never
    /// with a partial answer.
    type Error;
    /// The catalogue the space's nodes and runtime links are looked up in.
    fn catalogue(&self) -> &Catalogue;
    /// Number of meta documents in this space.
    fn meta_count(&self) -> usize;
    /// `(meta, local)` of a global node, or `None` when the node lies
    /// outside this space (not an element of the collection, or a shard
    /// popped a cross-shard link target).
    fn resolve(&self, node: NodeId) -> Option<(u32, u32)> {
        self.catalogue().resolve(node)
    }
    /// Meta document accessor (ids are space-local); called once per pop.
    fn meta(&self, id: u32) -> Result<Self::Meta<'_>, Self::Error>;
    /// The elements with tag `tag`, ascending: a [`Start::Tag`]'s seeds.
    fn nodes_with_tag(&self, tag: TagId) -> Result<&[NodeId], Self::Error>;
}

impl MetaSpace for Flix {
    type Meta<'a> = &'a MetaDocument;
    type Error = Infallible;

    fn catalogue(&self) -> &Catalogue {
        Flix::catalogue(self)
    }

    fn meta_count(&self) -> usize {
        Flix::meta_count(self)
    }

    fn meta(&self, id: u32) -> Result<&MetaDocument, Infallible> {
        Ok(Flix::meta(self, id))
    }

    fn nodes_with_tag(&self, tag: TagId) -> Result<&[NodeId], Infallible> {
        Ok(self.collection().nodes_with_tag(tag))
    }
}

/// Unwraps the result of an evaluation over an in-memory space.
pub(crate) fn never<T>(result: Result<T, Infallible>) -> T {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// §5.1's memory: per meta document of a space, the entries answered so
/// far. Whether a popped entry is subsumed is one test against it; block
/// rows are tested against [`RowMarks`]. Each meta document's list is kept
/// in the form its index tests fastest (the strategy is read off
/// [`MetaDocument::index`], the axis is the evaluation's):
///
/// * PPO going down — an entry reaches its subtree, an interval of locals
///   (preorder ranks), so the list holds the union of the answered entries'
///   intervals as its boundaries `lo₀ < hi₀ < lo₁ < hi₁ < …` (half-open,
///   disjoint, touching ones merged): a local is covered iff an odd number
///   of boundaries lie at or below it;
/// * PPO going up — an entry is reached from its ancestors, so the list
///   holds the answered entries' locals, ascending: an element is covered
///   iff one of them falls inside its subtree's interval;
/// * HOPI — the answered entries, and one set of their centers on the
///   axis's side (global ids: a center is a node of one meta document). In
///   a 2-hop cover an entry covers an element iff they share a center: the
///   test walks the element's other label row to its first marked center;
/// * APEX — the answered entries in the order they came, scanned with an
///   index probe each.
#[derive(Default)]
struct Entries {
    metas: Vec<Vec<u32>>,
    /// The centers of the answered HOPI entries (see above).
    centers: RowMarks,
    /// Per meta document, whether an answered block of it may have left
    /// rows out: a HOPI pop whose distance budget cut its join
    /// ([`PopAnswer::partial`]) reads no row past the budget, so
    /// [`RowMarks`] never marks the rows of its block that lie past it. A
    /// budget that cut nothing leaves the block whole and the flag unset.
    partial: Vec<bool>,
    /// The meta documents with a non-empty list: what [`Self::begin`]
    /// clears, so a query costs the metas it entered, not the space's.
    touched: Vec<u32>,
}

impl Entries {
    /// Forgets every entry; makes room for `meta_count` metas over nodes `0..nodes`.
    fn begin(&mut self, meta_count: usize, nodes: usize) {
        self.centers.begin(nodes);
        for meta in self.touched.drain(..) {
            self.metas[meta as usize].clear();
            self.partial[meta as usize] = false;
        }
        if self.metas.len() < meta_count {
            self.metas.resize_with(meta_count, Vec::new);
            self.partial.resize(meta_count, false);
        }
    }

    /// §5.1's duplicate test: does an earlier entry of `meta` cover `later`
    /// (reach it going down, or get reached by it going up)?
    fn covered(&self, md: &MetaDocument, axis: Axis, meta: u32, later: u32) -> bool {
        let seen = &self.metas[meta as usize];
        match (&md.index, axis) {
            (MetaIndex::Ppo(_), Axis::Descendants) => {
                seen.partition_point(|&bound| bound <= later) % 2 == 1
            }
            (MetaIndex::Ppo(ppo), Axis::Ancestors) => {
                let (lo, hi) = ppo.subtree(later);
                let next = seen.partition_point(|&rank| rank < lo);
                seen.get(next).is_some_and(|&rank| rank < hi)
            }
            (MetaIndex::Hopi(hopi), _) => {
                // An empty list reads no row: `L_in` stays underived.
                let row = || hopi.centers(axis.reversed(), later).iter();
                !seen.is_empty() && row().any(|&(c, _)| self.centers.contains(md.nodes[c as usize]))
            }
            (index, _) => covered_by_scan(index, axis, seen, later),
        }
    }

    /// Records `local` as an answered entry of `meta`, whose block left
    /// rows out if `partial`.
    fn push(&mut self, md: &MetaDocument, axis: Axis, meta: u32, local: u32, partial: bool) {
        self.partial[meta as usize] |= partial;
        let seen = &mut self.metas[meta as usize];
        if seen.is_empty() {
            self.touched.push(meta);
        }
        match (&md.index, axis) {
            (MetaIndex::Ppo(ppo), Axis::Descendants) => {
                // Interval union: the boundaries inside `[lo, hi]` go, and
                // each end stays a boundary iff it lies outside the others.
                let (lo, hi) = ppo.subtree(local);
                let start = seen.partition_point(|&bound| bound < lo);
                let end = seen.partition_point(|&bound| bound <= hi);
                // From a slice, `splice` knows the length: no allocation.
                let ends = [lo, hi];
                seen.splice(start..end, ends[start % 2..2 - end % 2].iter().copied());
            }
            (MetaIndex::Ppo(_), Axis::Ancestors) => {
                seen.insert(seen.partition_point(|&earlier| earlier < local), local);
            }
            (MetaIndex::Hopi(hopi), _) => {
                seen.push(local);
                for &(c, _) in hopi.centers(axis, local) {
                    self.centers.insert(md.nodes[c as usize]);
                }
            }
            _ => seen.push(local),
        }
    }
}

/// §5.1's duplicate test as the paper states it — one reachability probe
/// per earlier entry — over `seen`, the locals of the answered entries.
/// APEX answers [`Entries::covered`] with it, and it is the oracle the
/// interval forms and HOPI's center set are tested against.
fn covered_by_scan(index: &MetaIndex, axis: Axis, seen: &[u32], later: u32) -> bool {
    seen.iter().any(|&seen| match axis {
        Axis::Descendants => index.is_reachable(seen, later),
        Axis::Ancestors => index.is_reachable(later, seen),
    })
}

/// §5.1 step 2's memory: the block rows an evaluation has gone over, as a
/// bitset over global node ids, emptied through the list of the words it
/// wrote — a query costs the rows it saw, not the collection's size.
/// [`Entries`] keeps its HOPI centers in one too.
///
/// A row is a duplicate iff an answered entry of its meta document covers
/// it ([`Entries::covered`]). Where every answered block of the meta
/// document was whole, that is the same as "it was a row of an answered
/// block": a row carries the query's label, so the block of an entry that
/// reaches it held it, and every row of an answered block is gone over. The
/// one element an entry reaches without its block holding it is a seed
/// left out by `include_start == false`; the evaluator marks that seed when
/// it answers it. That test needs no index.
///
/// A block whose distance budget cut its join (HOPI,
/// [`MetaDocument::answer_pop`]) holds only its rows within the budget, so
/// the rows past it — which the evaluator would have gone over and dropped
/// past the query's bound — are never marked, and a later entry may meet
/// one of them within the bound. In a meta document where such a block was
/// answered ([`Entries::partial`]), a mark still proves a duplicate, and an
/// unmarked row is one iff [`Entries::covered`] finds an answered entry
/// that reaches it: the same verdict the whole blocks' marks gave. A
/// budgeted block the budget did not cut is whole, and leaves the bit test
/// alone in charge.
#[derive(Default)]
struct RowMarks {
    bits: Vec<u64>,
    /// Indexes of the non-zero words of `bits`.
    touched: Vec<u32>,
}

impl RowMarks {
    /// Forgets every mark and makes room for nodes `0..n`.
    fn begin(&mut self, n: usize) {
        for word in self.touched.drain(..) {
            self.bits[word as usize] = 0;
        }
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Marks `node`; false if it was marked already. A node outside the
    /// range (no element of the collection) is never a repeat.
    fn insert(&mut self, node: NodeId) -> bool {
        let (at, bit) = (node / 64, 1u64 << (node % 64));
        let Some(word) = self.bits.get_mut(at as usize) else {
            return true;
        };
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.touched.push(at);
        }
        *word |= bit;
        true
    }

    /// Whether `node` is marked.
    fn contains(&self, node: NodeId) -> bool {
        let word = self.bits.get((node / 64) as usize);
        word.is_some_and(|word| word & (1u64 << (node % 64)) != 0)
    }
}

/// What an evaluation keeps from pop to pop, and a thread keeps from
/// evaluation to evaluation: an evaluation allocates nothing once the
/// scratch has grown to the largest framework the thread has queried.
#[derive(Default)]
struct EvalScratch {
    /// Fig. 4's `IE`, ordered by `(distance, node, is a seed)`.
    queue: BinaryHeap<Reverse<(Distance, NodeId, bool)>>,
    entries: Entries,
    /// Rows gone over (streamed order), or entries settled (exact order).
    rows: RowMarks,
    /// Per global node, the smallest distance at which this evaluation
    /// queued it through a link (seeds are not recorded).
    queued: DistScratch,
    /// Held rows, ordered by `(distance, node)`. A row whose distance is no
    /// longer its node's `best` is stale and dropped when it comes up.
    hold: BinaryHeap<Reverse<(Distance, NodeId)>>,
    /// Per global node, the smallest distance held; begun only to hold.
    best: DistScratch,
    /// Number of nodes in the collection being evaluated over.
    nodes: usize,
    /// The answer of the pop in progress, refilled by every pop.
    pop: PopAnswer,
}

impl EvalScratch {
    /// §5.1 step 2 for row `r` of `meta` (global `node`) in streamed order:
    /// marks it and says whether it is met for the first time — neither
    /// marked already nor, where an answered block of `meta` left rows
    /// out, covered by an answered entry (see [`RowMarks`]).
    fn first_meeting(
        &mut self,
        md: &MetaDocument,
        axis: Axis,
        (meta, r): (u32, u32),
        node: NodeId,
    ) -> bool {
        self.rows.insert(node)
            && !(self.entries.partial[meta as usize] && self.entries.covered(md, axis, meta, r))
    }
}

thread_local! {
    /// This thread's idle scratches. An evaluation takes one for its run,
    /// so a bidirectional test holds two, and an `emit` callback that
    /// evaluates another query gets one of its own.
    static IDLE: RefCell<Vec<EvalScratch>> = const { RefCell::new(Vec::new()) };
}

impl EvalScratch {
    /// Queues the far end of a link at distance `at` — unless this
    /// evaluation already queued `far` through a link at that distance or a
    /// smaller one, in which case the push is refused (`false`). The
    /// earlier entry pops first, and answered or subsumed it leaves `far`
    /// covered (§5.1's set only grows; under exact order it settles `far`),
    /// so the repeat could only be popped to be dropped. The refusal needs
    /// no index — [`crate::DiskFlix`] faults nothing in for it.
    ///
    /// Two kinds of push are queued without a look at the table, as they
    /// always were. One past `bound`, the query's distance bound: its pop
    /// ends the evaluation, so nothing is ever popped to be dropped after
    /// it, and a bounded top-k query (most of whose pushes are these) does
    /// not pay a table access per link. And a node outside the collection,
    /// which the table does not cover: its first pop escapes
    /// ([`EvalEnd::Escaped`]).
    fn push_link(&mut self, far: NodeId, at: Distance, bound: Option<Distance>) -> bool {
        if !bound.is_some_and(|m| at > m) {
            if self.queued.get(far).is_some_and(|earlier| earlier <= at) {
                return false;
            }
            if (far as usize) < self.nodes {
                self.queued.relax(far, at);
            }
        }
        self.queue.push(Reverse((at, far, false)));
        true
    }
}

/// One lap of a traced evaluation's clock: a single read, and everything
/// since the previous read (`charged`, nanoseconds) goes to `stage`, which
/// just ran. Untraced, `clock` is `None` and nothing is read.
fn lap(ctx: &mut QueryCtx<'_>, clock: &mut Clock, stage: SpanStage) {
    if let (Some(trace), Some((watch, charged))) = (ctx.trace.as_deref_mut(), clock) {
        let now = watch.elapsed_nanos();
        trace.record(stage, now.saturating_sub(*charged));
        *charged = now;
    }
}

/// How a space-generic evaluation ended.
pub(crate) enum EvalEnd {
    /// The evaluation ran to completion (or was cut by its deadline /
    /// result cap / distance bound / the emit callback).
    Done {
        /// True when the deadline expired before the evaluation finished.
        timed_out: bool,
    },
    /// The queue surfaced a node the space cannot resolve: a shard popped a
    /// cross-shard link target (everything emitted so far must be discarded
    /// and the query re-run over the whole framework, as the sharded path
    /// does), or the start is not an element of the collection.
    Escaped,
}

impl Flix {
    /// The collected entry point: evaluates `query` and returns its results
    /// with the `timed_out` marker and the evaluation counters. A start
    /// that is not an element of the collection reaches nothing: the
    /// answer is empty and not timed out. With a journal in `ctx` the
    /// evaluation is bracketed by `eval_start`/`eval_end` events.
    pub fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> QueryOutcome {
        ctx.event(EventKind::EvalStart { shard: SHARD_NONE });
        // A full framework resolves every element, so only a start outside
        // the collection escapes — with nothing emitted.
        let (outcome, _) = never(collect(self, query, ctx));
        ctx.event(EventKind::EvalEnd {
            results: outcome.results.len() as u64,
        });
        outcome
    }

    /// The streaming entry point: `query`'s results go to `emit` as they
    /// are found, with the counters at emission time (the paper's
    /// deployment paid one database round trip per entry pop, so the
    /// harness attributes per-result costs from them). `emit` may stop the
    /// evaluation by returning [`ControlFlow::Break`]. Returns the counters.
    pub fn for_each(
        &self,
        query: &Query,
        ctx: &mut QueryCtx<'_>,
        emit: impl FnMut(QueryResult, &PeeStats) -> ControlFlow<()>,
    ) -> PeeStats {
        never(run(self, query, ctx, emit)).1
    }

    /// `a//B` collected into a vector.
    pub fn find_descendants(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> Vec<QueryResult> {
        self.find_descendants_outcome(start, target, opts).results
    }

    /// `a//B` collected with the `timed_out` marker and the counters.
    pub fn find_descendants_outcome(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        let query = Query::descendants(start, target, *opts);
        self.evaluate(&query, &mut QueryCtx::default())
    }

    /// `a//B` collected with a full per-query trace and the counters.
    pub fn find_descendants_with_trace(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
        trace: &mut QueryTrace,
    ) -> (Vec<QueryResult>, PeeStats) {
        let mut ctx = QueryCtx {
            trace: Some(trace),
            journal: None,
        };
        let outcome = self.evaluate(&Query::descendants(start, target, *opts), &mut ctx);
        (outcome.results, outcome.stats)
    }
}

/// Runs `query` over `space` and collects it. The flag is true when the
/// evaluation escaped the space (see [`EvalEnd::Escaped`]): the caller
/// must then discard the outcome.
pub(crate) fn collect<S: MetaSpace + ?Sized>(
    space: &S,
    query: &Query,
    ctx: &mut QueryCtx<'_>,
) -> Result<(QueryOutcome, bool), S::Error> {
    let mut results = Vec::new();
    let (end, stats) = run(space, query, ctx, |r, _| {
        results.push(r);
        ControlFlow::Continue(())
    })?;
    let outcome = QueryOutcome {
        results,
        timed_out: matches!(end, EvalEnd::Done { timed_out: true }),
        stats,
    };
    Ok((outcome, matches!(end, EvalEnd::Escaped)))
}

/// The one driver: runs `query` over `space` into `emit` — how it ended,
/// and its counters. An axis query ([`Goal::Tag`]) drains one evaluation
/// (see [`Evaluation::step`]). A connection test ([`Goal::Node`]) steps one
/// evaluation from `from` probing for the goal, plus — when `both_ways` —
/// one from the goal along the other axis, alternately. Each side holds its
/// best candidate until its queue's lower bound confirms it, and one
/// result ends it: the first side to release one answers, a side that
/// drains without one proves the pair unconnected, and an entry outside
/// the space is stepped past. A spent deadline (checked at every pop)
/// reports the smaller held candidate, unconfirmed. The verdict is emitted
/// once, naming the goal. One clock, shared by both sides, times a traced
/// run, so the spans tile it.
pub(crate) fn run<S: MetaSpace + ?Sized>(
    space: &S,
    query: &Query,
    ctx: &mut QueryCtx<'_>,
    mut emit: impl FnMut(QueryResult, &PeeStats) -> ControlFlow<()>,
) -> Result<(EvalEnd, PeeStats), S::Error> {
    let mut clock = ctx.trace.is_some().then(|| (Stopwatch::start(), 0));
    let seeds = match &query.from {
        Start::Node(node) => std::slice::from_ref(node),
        Start::Tag(tag) => space.nodes_with_tag(*tag)?,
    };
    let seeds = seeds.iter().map(|&seed| (seed, 0));
    let (to, both_ways) = match query.to {
        Goal::Tag(tag) => {
            let mut eval = Evaluation::new(space, query.axis, Seek::Tag(tag), seeds, &query.opts);
            let end = loop {
                if let Some(end) = eval.step(ctx, &mut clock, &mut emit)? {
                    break end;
                }
            };
            return Ok((end, eval.finish(ctx, &mut clock)));
        }
        Goal::Node { node, both_ways } => (node, both_ways),
    };
    let found = |distance| QueryResult { distance, node: to };
    if query.from == Start::Node(to) {
        let _ = emit(found(0), &PeeStats::default());
        return Ok((EvalEnd::Done { timed_out: false }, PeeStats::default()));
    }
    let opts = QueryOptions {
        max_results: Some(1),
        exact_order: false,
        ..query.opts
    };
    let back = match query.from {
        Start::Node(from) => Seek::Node(space.resolve(from)),
        Start::Tag(tag) => Seek::Tag(tag),
    };
    let seek = Seek::Node(space.resolve(to));
    let reverse = query.axis.reversed();
    let mut sides = [
        Some(Evaluation::new(space, query.axis, seek, seeds, &opts)),
        both_ways.then(|| Evaluation::new(space, reverse, back, [(to, 0)], &opts)),
    ];
    let mut distance = None;
    let mut confirm = |result: QueryResult, _: &PeeStats| {
        distance = Some(result.distance);
        ControlFlow::Continue(())
    };
    let timed_out = 'test: loop {
        for eval in sides.iter_mut().flatten() {
            if let Some(EvalEnd::Done { timed_out }) = eval.step(ctx, &mut clock, &mut confirm)? {
                break 'test timed_out;
            }
        }
    };
    if timed_out {
        let held = sides
            .iter()
            .flatten()
            .filter_map(|eval| eval.scratch.hold.peek());
        distance = held.map(|&Reverse((d, _))| d).min();
    }
    // Given back last side first: the next test's sides take the same ones.
    let mut stats = PeeStats::default();
    for eval in sides.into_iter().rev().flatten() {
        stats.absorb(eval.finish(ctx, &mut clock));
    }
    if let Some(distance) = distance {
        let _ = emit(found(distance), &stats);
    }
    Ok((EvalEnd::Done { timed_out }, stats))
}

/// What a pop answers: a tag's block (an axis query), or the distance to
/// one element, `None` outside the space (a connection test).
#[derive(Clone, Copy)]
enum Seek {
    Tag(TagId),
    Node(Option<(u32, u32)>),
}

/// One run of Fig. 4's loop, on a scratch taken from its thread and
/// advanced one queue pop at a time by [`Self::step`].
struct Evaluation<'s, S: MetaSpace + ?Sized> {
    space: &'s S,
    axis: Axis,
    seek: Seek,
    opts: QueryOptions,
    /// Rows are held, under exact order and for a connection test.
    hold: bool,
    scratch: EvalScratch,
    stats: PeeStats,
    /// Results handed to the caller so far.
    returned: usize,
}

/// A traced run's clock and the nanoseconds charged so far; `None`
/// untraced.
type Clock = Option<(Stopwatch, u64)>;

impl<'s, S: MetaSpace + ?Sized> Evaluation<'s, S> {
    /// An evaluation from `seeds`, each at its distance, on an idle scratch
    /// of this thread.
    fn new(
        space: &'s S,
        axis: Axis,
        seek: Seek,
        seeds: impl IntoIterator<Item = (NodeId, Distance)>,
        opts: &QueryOptions,
    ) -> Self {
        let hold = opts.exact_order || matches!(seek, Seek::Node(_));
        let mut scratch = IDLE.with_borrow_mut(Vec::pop).unwrap_or_default();
        scratch.queue.clear();
        scratch.hold.clear();
        scratch.nodes = space.catalogue().meta_of.len();
        scratch.entries.begin(space.meta_count(), scratch.nodes);
        scratch.queued.begin(scratch.nodes);
        scratch.rows.begin(scratch.nodes);
        if hold {
            scratch.best.begin(scratch.nodes);
        }
        for (s, d) in seeds {
            // the bool marks seed entries, whose self-match behaviour is
            // governed by `include_start`
            scratch.queue.push(Reverse((d, s, true)));
        }
        Self {
            space,
            axis,
            seek,
            opts: *opts,
            hold,
            scratch,
            stats: PeeStats::default(),
            returned: 0,
        }
    }

    /// Hands one result to the caller; true when the evaluation must stop
    /// (the callback broke off, or the result cap is reached).
    fn deliver(
        &mut self,
        result: QueryResult,
        emit: &mut impl FnMut(QueryResult, &PeeStats) -> ControlFlow<()>,
    ) -> bool {
        if emit(result, &self.stats).is_break() {
            return true;
        }
        self.returned += 1;
        self.opts.max_results.is_some_and(|k| self.returned >= k)
    }

    /// One pop of Fig. 4's loop, generalised over direction, multiple seeds,
    /// the node universe and what it seeks: `None` while the evaluation goes
    /// on, how it ended once it has. An end leaves nothing half done: after
    /// [`EvalEnd::Escaped`] the next step pops the entry after the escaping
    /// one.
    ///
    /// With `ctx.trace` set, one clock is read at each stage boundary and
    /// the time since the previous read is recorded as a span of the stage
    /// that just ran — queue pop (the heap pop, the deadline and bound
    /// checks, the held rows' release, the §5.1 subsumption verdict), block
    /// fetch (the one [`MetaDocument::answer_pop`] lookup, the per-row §5.1
    /// stamp test and handing the results to `emit`), link expansion (the
    /// queue pushes) — so with [`Self::finish`]'s closing lap the spans tile
    /// the evaluation from its first instruction to its last and their sum
    /// is its time. With `ctx.journal` set, a deadline cut is recorded as a
    /// flight-recorder event. Both are write-only from the evaluator's point
    /// of view — no branch of the algorithm consults them — so the emitted
    /// result stream is bit-identical with them on and off, and with neither
    /// set no clock is read and no journal touched.
    ///
    /// The priority queue orders entries by `(distance, node)` — the heap is
    /// a *set* of keyed entries, so any space presenting the same meta
    /// documents and link tables drives the loop through the same pop
    /// sequence. A shard presents exactly the full framework's data for its
    /// own metas, which is why a run that never escapes is byte-identical to
    /// the unsharded one.
    #[inline]
    fn step(
        &mut self,
        ctx: &mut QueryCtx<'_>,
        clock: &mut Clock,
        emit: &mut impl FnMut(QueryResult, &PeeStats) -> ControlFlow<()>,
    ) -> Result<Option<EvalEnd>, S::Error> {
        let (space, axis, opts, hold) = (self.space, self.axis, self.opts, self.hold);
        let next = self.scratch.queue.pop();
        // Deadline check: one clock read per pop, none when unset. The
        // emitted prefix stands; nothing held is released — a shorter
        // result could still have appeared.
        if next.is_some() && opts.deadline.is_some_and(|dl| dl.expired()) {
            ctx.event(EventKind::DeadlineExpired {
                budget_micros: opts.deadline.map(|dl| dl.budget_micros()).unwrap_or(0),
            });
            return Ok(Some(EvalEnd::Done { timed_out: true }));
        }
        // An entry past the distance bound ends the evaluation exactly like
        // a drained queue.
        let next = next.filter(|&Reverse((d, ..))| !opts.max_distance.is_some_and(|m| d > m));
        // Release held rows that no future entry can beat: every path
        // through a remaining entry costs at least its `d`; with none left,
        // everything held is final. A released node is never held again:
        // that takes a strictly smaller distance, and later rows are no
        // smaller than this bound.
        if hold {
            let bound = next.map_or(Distance::MAX, |Reverse((d, ..))| d);
            while let Some(&Reverse((bd, bn))) = self.scratch.hold.peek() {
                if bd > bound {
                    break;
                }
                self.scratch.hold.pop();
                if self.scratch.best.get(bn) != Some(bd) {
                    continue; // stale
                }
                let result = QueryResult {
                    distance: bd,
                    node: bn,
                };
                if self.deliver(result, emit) {
                    return Ok(Some(EvalEnd::Done { timed_out: false }));
                }
            }
        }
        let Some(Reverse((d, e, is_seed))) = next else {
            return Ok(Some(EvalEnd::Done { timed_out: false }));
        };
        let Some((meta, local)) = space.resolve(e) else {
            // The node lives outside this space: a shard chased a
            // cross-shard link. The caller falls back to a space that
            // covers it; nothing emitted so far may be kept.
            return Ok(Some(EvalEnd::Escaped));
        };
        let md = space.meta(meta)?;

        // §5.1 duplicate elimination, step 1: drop subsumed entries. Exact
        // order settles per entry node instead, Dijkstra-style: every entry
        // node is processed once, at its minimal queue distance —
        // reachability subsumption could hide shorter paths that enter a
        // meta document through a different element.
        let subsumed = if opts.exact_order {
            !self.scratch.rows.insert(e)
        } else {
            self.scratch.entries.covered(&md, axis, meta, local)
        };
        if subsumed {
            self.stats.entries_subsumed += 1;
        } else {
            self.stats.entries_popped += 1;
        }
        lap(ctx, clock, SpanStage::QueuePop);
        if subsumed {
            return Ok(None);
        }

        // Answer the pop within this meta document, into the scratch's
        // answer — out of the scratch while the links are pushed into it,
        // and back on every way out of this pop. The whole block is
        // materialised before any result is emitted, so its lookup work is
        // charged up front. A tag's block and the reachable link anchors
        // come out of one index lookup where the strategy can share it; a
        // connection test's block is one distance probe, one row, when the
        // target lies in this meta document.
        let include_self = !is_seed || opts.include_start;
        // What the pop may still cover: HOPI reads no row past it, and says
        // whether that left rows of the whole block out.
        let budget = opts.max_distance.map(|m| m.saturating_sub(d));
        let mut pop = std::mem::take(&mut self.scratch.pop);
        match self.seek {
            Seek::Tag(tag) => md.answer_pop(axis, local, tag, include_self, budget, &mut pop),
            Seek::Node(target) => {
                pop.block.clear();
                pop.work = 0;
                pop.partial = false;
                if let Some((_, t)) = target.filter(|&(t_meta, _)| t_meta == meta) {
                    let found = match axis {
                        Axis::Descendants => md.index.distance(local, t),
                        Axis::Ancestors => md.index.distance(t, local),
                    };
                    pop.block.extend(found.map(|dt| (t, dt)));
                    pop.work = 1;
                }
                md.link_anchors_into(axis, local, budget, &mut pop.links);
            }
        }
        self.stats.block_results_scanned += pop.work;
        if !include_self && !hold {
            // The one element this entry covers that its block leaves out.
            self.scratch.rows.insert(e);
        }
        let mut capped = false;
        for &(r, dr) in &pop.block {
            let node = md.nodes[r as usize];
            // §5.1 step 2: skip results an earlier entry already returned —
            // the rows of an answered block, kept or not. (Held rows are
            // deduplicated by their best distance.)
            if !hold && !self.scratch.first_meeting(&md, axis, (meta, r), node) {
                continue;
            }
            let total = d + dr;
            if opts.max_distance.is_some_and(|m| total > m) {
                continue;
            }
            if hold {
                if self.scratch.best.get(node).map_or(true, |b| total < b) {
                    self.scratch.best.relax(node, total);
                    self.scratch.hold.push(Reverse((total, node)));
                }
                continue;
            }
            let result = QueryResult {
                distance: total,
                node,
            };
            if self.deliver(result, emit) {
                capped = true;
                break;
            }
        }
        lap(ctx, clock, SpanStage::BlockFetch);
        if capped {
            self.scratch.pop = pop;
            return Ok(Some(EvalEnd::Done { timed_out: false }));
        }

        // Expand runtime links: queue the far end of every link hanging off
        // the anchors the lookup above found (Fig. 4's `findReachableLinks`),
        // one hop past the anchor, repeats excepted.
        for &(anchor, da) in &pop.links {
            let node = md.nodes[anchor as usize];
            let links = match axis {
                Axis::Descendants => space.catalogue().links_out_of(node),
                Axis::Ancestors => space.catalogue().links_into(node),
            };
            for &(_, far) in links {
                self.stats.links_expanded += 1;
                if !self.scratch.push_link(far, d + da + 1, opts.max_distance) {
                    self.stats.entries_refused += 1;
                }
            }
        }
        self.scratch
            .entries
            .push(&md, axis, meta, local, pop.partial);
        self.scratch.pop = pop;
        lap(ctx, clock, SpanStage::LinkExpand);
        Ok(None)
    }

    /// The closing lap — whatever ended the evaluation ended it inside a
    /// queue pop — and the scratch back to the thread; returns the counters.
    fn finish(self, ctx: &mut QueryCtx<'_>, clock: &mut Clock) -> PeeStats {
        lap(ctx, clock, SpanStage::QueuePop);
        IDLE.with_borrow_mut(|idle| idle.push(self.scratch));
        self.stats
    }
}

/// A streamed result list, fed by a background evaluator thread.
///
/// This is the paper's §3.1 client decoupling: "a multithreaded
/// architecture where the client thread reads from a list in which FliX
/// inserts the results". Dropping the stream cancels the evaluation.
pub struct ResultStream {
    receiver: crossbeam::channel::Receiver<QueryResult>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ResultStream {
    /// Spawns a background evaluation of `query`.
    pub fn spawn(flix: std::sync::Arc<Flix>, query: Query) -> Self {
        // Bounded so a slow client applies backpressure to the evaluator
        // instead of buffering an arbitrarily large result list.
        let (tx, rx) = crossbeam::channel::bounded(1024);
        let handle = std::thread::spawn(move || {
            flix.for_each(&query, &mut QueryCtx::default(), |r, _| {
                if tx.send(r).is_err() {
                    ControlFlow::Break(()) // client hung up: cancel
                } else {
                    ControlFlow::Continue(())
                }
            });
        });
        Self {
            receiver: rx,
            handle: Some(handle),
        }
    }
}

impl Iterator for ResultStream {
    type Item = QueryResult;

    fn next(&mut self) -> Option<QueryResult> {
        self.receiver.recv().ok()
    }
}

impl Drop for ResultStream {
    fn drop(&mut self) {
        // Disconnect first so the producer sees the hang-up, then join.
        let (tx, rx) = crossbeam::channel::bounded(0);
        drop(tx);
        self.receiver = rx;
        if let Some(h) = self.handle.take() {
            // flixcheck: allow(swallowed-result): a worker panic already surfaced as a disconnected channel; the join error adds nothing
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlixConfig, StrategyKind};
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use xmlgraph::{Collection, CollectionGraph, Document, LinkTarget};

    /// d0: a(0) -> b(1) -> c(2)   with 2 --link--> d1 root
    /// d1: a(3) -> b(4)           with 4 --link--> d2 root
    /// d2: b(5) -> a(6)
    fn chain3() -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let a = c.tags.intern("a");
        let b = c.tags.intern("b");
        let ct = c.tags.intern("c");

        let mut d0 = Document::new("d0.xml");
        let r = d0.add_element(a, None);
        let k = d0.add_element(b, Some(r));
        let l = d0.add_element(ct, Some(k));
        d0.add_link(
            l,
            LinkTarget {
                document: Some("d1.xml".into()),
                fragment: None,
            },
        );

        let mut d1 = Document::new("d1.xml");
        let r1 = d1.add_element(a, None);
        let k1 = d1.add_element(b, Some(r1));
        d1.add_link(
            k1,
            LinkTarget {
                document: Some("d2.xml".into()),
                fragment: None,
            },
        );

        let mut d2 = Document::new("d2.xml");
        let r2 = d2.add_element(b, None);
        d2.add_element(a, Some(r2));

        c.add_document(d0).unwrap();
        c.add_document(d1).unwrap();
        c.add_document(d2).unwrap();
        Arc::new(c.seal())
    }

    /// `query` collected, observing nothing.
    fn eval(flix: &Flix, query: Query) -> QueryOutcome {
        flix.evaluate(&query, &mut QueryCtx::default())
    }

    /// The connection test `from // to`, one-sided or both ways.
    fn connect(
        flix: &Flix,
        from: NodeId,
        to: NodeId,
        both_ways: bool,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        eval(flix, Query::connection(from, to, both_ways, *opts))
    }

    /// An axis query from `seeds` at their own distances — a start no
    /// [`Query`] names, which the §5.1 tests still exercise — collected,
    /// and whether it escaped.
    fn collect_from(
        flix: &Flix,
        axis: Axis,
        seeds: &[(NodeId, Distance)],
        tag: TagId,
        opts: &QueryOptions,
    ) -> (QueryOutcome, bool) {
        let mut eval = Evaluation::new(flix, axis, Seek::Tag(tag), seeds.iter().copied(), opts);
        let (mut ctx, mut results) = (QueryCtx::default(), Vec::new());
        let mut emit = |r, _: &PeeStats| {
            results.push(r);
            ControlFlow::Continue(())
        };
        let end = loop {
            if let Some(end) = never(eval.step(&mut ctx, &mut None, &mut emit)) {
                break end;
            }
        };
        let stats = eval.finish(&mut ctx, &mut None);
        let timed_out = matches!(end, EvalEnd::Done { timed_out: true });
        let outcome = QueryOutcome {
            results,
            timed_out,
            stats,
        };
        (outcome, matches!(end, EvalEnd::Escaped))
    }

    fn all_configs() -> Vec<FlixConfig> {
        vec![
            FlixConfig::Naive,
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 4 },
            FlixConfig::Hybrid { partition_size: 4 },
            FlixConfig::Monolithic(StrategyKind::Hopi),
            FlixConfig::Monolithic(StrategyKind::Apex),
        ]
    }

    #[test]
    fn descendants_cross_documents_all_configs() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let mut res = flix.find_descendants(0, b, &QueryOptions::default());
            res.sort();
            let nodes: Vec<NodeId> = res.iter().map(|r| r.node).collect();
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 4, 5], "config {config}");
        }
    }

    #[test]
    fn distances_cross_link_hops() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        // Monolithic HOPI sees the raw union graph: link hop costs 1.
        let flix = Flix::build(cg.clone(), FlixConfig::Monolithic(StrategyKind::Hopi));
        let mut res = flix.find_descendants(0, b, &QueryOptions::default());
        res.sort_by_key(|r| r.node);
        assert_eq!(
            res[0],
            QueryResult {
                distance: 1,
                node: 1
            }
        );
        assert_eq!(
            res[1],
            QueryResult {
                distance: 4,
                node: 4
            }
        );
        assert_eq!(
            res[2],
            QueryResult {
                distance: 5,
                node: 5
            }
        );
        // FliX configurations report the same distances here: link hops
        // cost dist(e,l) + 1, matching the union-graph edge.
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let mut res2 = flix.find_descendants(0, b, &QueryOptions::default());
        res2.sort_by_key(|r| r.node);
        assert_eq!(res, res2);
    }

    #[test]
    fn include_start_toggles_self_match() {
        let cg = chain3();
        let a = cg.collection.tags.get("a").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let without = flix.find_descendants(0, a, &QueryOptions::default());
        assert!(without.iter().all(|r| r.node != 0));
        let with = flix.find_descendants(
            0,
            a,
            &QueryOptions {
                include_start: true,
                ..QueryOptions::default()
            },
        );
        assert!(with.contains(&QueryResult {
            distance: 0,
            node: 0
        }));
    }

    #[test]
    fn top_k_and_threshold() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        assert_eq!(
            flix.find_descendants(0, b, &QueryOptions::top_k(2)).len(),
            2
        );
        let near = flix.find_descendants(0, b, &QueryOptions::within(4));
        let nodes: Vec<NodeId> = near.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![1, 4], "node 5 is at distance 5");
    }

    #[test]
    fn connection_tests_all_configs() {
        let cg = chain3();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let test =
                |from, to, opts: &QueryOptions| connect(&flix, from, to, false, opts).distance();
            assert_eq!(
                test(0, 6, &QueryOptions::default()),
                Some(6),
                "0 -> 6 via two links, config {config}"
            );
            assert_eq!(test(0, 0, &QueryOptions::default()), Some(0));
            assert_eq!(
                test(6, 0, &QueryOptions::default()),
                None,
                "no backward path, config {config}"
            );
            assert_eq!(
                test(0, 6, &QueryOptions::within(3)),
                None,
                "threshold cuts off, config {config}"
            );
        }
    }

    #[test]
    fn ancestors_cross_documents() {
        let cg = chain3();
        let a = cg.collection.tags.get("a").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let res = eval(&flix, Query::ancestors(5, a, QueryOptions::default())).results;
            let mut nodes: Vec<NodeId> = res.iter().map(|r| r.node).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, vec![0, 3], "config {config}");
        }
    }

    /// A tag no element carries — one past the interned tags, or
    /// `u32::MAX` — is outside input a query may name: as the goal along
    /// either axis, as the start of an axis query or of a connection test
    /// either way, every configuration answers it empty.
    #[test]
    fn a_tag_no_element_carries_answers_empty() {
        let cg = chain3();
        let a = cg.collection.tags.get("a").unwrap();
        let past = cg.collection.tags.len() as TagId;
        let opts = QueryOptions::default();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            for tag in [past, u32::MAX] {
                let from = Start::Tag(tag);
                let queries = [
                    Query::descendants(0, tag, opts),
                    Query::ancestors(5, tag, opts),
                    Query {
                        from,
                        ..Query::descendants(0, a, opts)
                    },
                    Query {
                        from,
                        ..Query::ancestors(5, a, opts)
                    },
                    Query {
                        from,
                        ..Query::connection(0, 5, false, opts)
                    },
                    Query {
                        from,
                        ..Query::connection(0, 5, true, opts)
                    },
                ];
                for query in queries {
                    let results = eval(&flix, query).results;
                    assert!(results.is_empty(), "{config} tag {tag}: {results:?}");
                }
            }
        }
    }

    /// In `<a><x><a><b/></a></x></a>` the inner `a` is one step above `b`
    /// and the outer one three. Exact order answers the minimum over the
    /// starts; approximate order answers once, at a distance of at least
    /// that (the outer `a`'s entry reaches the inner one).
    #[test]
    fn a_tag_start_answers_at_the_minimum_in_exact_order() {
        let mut c = Collection::new();
        let (a, x, b) = (c.tags.intern("a"), c.tags.intern("x"), c.tags.intern("b"));
        let mut d = Document::new("nest.xml");
        let outer = d.add_element(a, None);
        let middle = d.add_element(x, Some(outer));
        let inner = d.add_element(a, Some(middle));
        d.add_element(b, Some(inner));
        c.add_document(d).unwrap();
        let cg = Arc::new(c.seal());
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            for opts in [QueryOptions::exact(), QueryOptions::default()] {
                let query = Query {
                    from: Start::Tag(a),
                    ..Query::descendants(0, b, opts)
                };
                let results = eval(&flix, query).results;
                let case = format!("{config} exact {}: {results:?}", opts.exact_order);
                assert_eq!(results.len(), 1, "{case}");
                assert_eq!(results[0].node, 3, "{case}");
                if opts.exact_order {
                    assert_eq!(results[0].distance, 1, "{case}");
                } else {
                    assert!(results[0].distance >= 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn type_query_spans_all_starts() {
        let cg = chain3();
        let a = cg.collection.tags.get("a").unwrap();
        let ct = cg.collection.tags.get("c").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        // A//C: only d0's c element qualifies, reachable from a(0)
        let query = Query {
            from: Start::Tag(a),
            ..Query::descendants(0, ct, QueryOptions::default())
        };
        let res = eval(&flix, query).results;
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].node, 2);
    }

    #[test]
    fn no_duplicates_with_cyclic_links() {
        // d0 -> d1 -> d0 cycle of links
        let mut c = Collection::new();
        let t = c.tags.intern("t");
        for i in 0..2 {
            let mut d = Document::new(format!("d{i}.xml"));
            let r = d.add_element(t, None);
            let k = d.add_element(t, Some(r));
            d.add_link(
                k,
                LinkTarget {
                    document: Some(format!("d{}.xml", 1 - i)),
                    fragment: None,
                },
            );
            c.add_document(d).unwrap();
        }
        let cg = Arc::new(c.seal());
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let res = flix.find_descendants(0, t, &QueryOptions::default());
            let mut nodes: Vec<NodeId> = res.iter().map(|r| r.node).collect();
            nodes.sort_unstable();
            let mut dedup = nodes.clone();
            dedup.dedup();
            assert_eq!(nodes, dedup, "duplicates under {config}");
            assert_eq!(nodes, vec![1, 2, 3], "coverage under {config}");
        }
    }

    #[test]
    fn streamed_results_arrive_and_cancel() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Arc::new(Flix::build(cg, FlixConfig::Naive));
        let query = Query::descendants(0, b, QueryOptions::default());
        let stream = ResultStream::spawn(flix.clone(), query);
        let collected: Vec<QueryResult> = stream.collect();
        assert_eq!(collected.len(), 3);
        // early cancel: take one result and drop the stream
        let mut stream = ResultStream::spawn(flix, query);
        let first = stream.next().unwrap();
        assert_eq!(first.node, 1);
        drop(stream); // must not hang
    }

    #[test]
    fn exact_order_mode_is_perfectly_sorted_with_exact_distances() {
        // a corpus with enough cross-links that approximate order differs
        let mut c = Collection::new();
        let t = c.tags.intern("t");
        for i in 0..6u32 {
            let mut d = Document::new(format!("x{i}.xml"));
            let r = d.add_element(t, None);
            let k = d.add_element(t, Some(r));
            let k2 = d.add_element(t, Some(k));
            let _ = k2;
            for j in 0..6u32 {
                if j != i && (i + j) % 3 == 0 {
                    d.add_link(
                        k,
                        LinkTarget {
                            document: Some(format!("x{j}.xml")),
                            fragment: None,
                        },
                    );
                }
            }
            c.add_document(d).unwrap();
        }
        let cg = Arc::new(c.seal());
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let exact = flix.find_descendants(0, t, &QueryOptions::exact());
            assert!(
                exact.windows(2).all(|w| w[0].distance <= w[1].distance),
                "not sorted under {config}"
            );
            // distances are the true union-graph minima
            let bfs = graphcore::bfs_distances(&cg.graph, 0);
            for r in &exact {
                assert_eq!(r.distance, bfs[r.node as usize], "config {config}");
            }
            // same node set as the approximate mode
            let mut approx: Vec<NodeId> = flix
                .find_descendants(0, t, &QueryOptions::default())
                .iter()
                .map(|r| r.node)
                .collect();
            approx.sort_unstable();
            let mut exact_nodes: Vec<NodeId> = exact.iter().map(|r| r.node).collect();
            exact_nodes.sort_unstable();
            assert_eq!(approx, exact_nodes, "config {config}");
        }
    }

    #[test]
    fn exact_order_respects_top_k_and_threshold() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let opts = QueryOptions {
            exact_order: true,
            max_results: Some(2),
            ..QueryOptions::default()
        };
        let top2 = flix.find_descendants(0, b, &opts);
        assert_eq!(top2.len(), 2);
        assert_eq!(
            top2[0],
            QueryResult {
                distance: 1,
                node: 1
            }
        );
        let opts = QueryOptions {
            exact_order: true,
            max_distance: Some(4),
            ..QueryOptions::default()
        };
        let near = flix.find_descendants(0, b, &opts);
        assert!(near.iter().all(|r| r.distance <= 4));
        assert_eq!(near.len(), 2);
    }

    #[test]
    fn bidirectional_connection_matches_unidirectional() {
        let cg = chain3();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            for from in 0..7u32 {
                for to in 0..7u32 {
                    let opts = QueryOptions::default();
                    let uni = connect(&flix, from, to, false, &opts).distance();
                    let bi = connect(&flix, from, to, true, &opts).distance();
                    assert_eq!(uni.is_some(), bi.is_some(), "{from}->{to} under {config}");
                    if let (Some(a), Some(b)) = (uni, bi) {
                        // both are approximate; they must agree on the
                        // exact distance here because chain3 has unique
                        // paths
                        assert_eq!(a, b, "{from}->{to} under {config}");
                    }
                }
            }
        }
    }

    #[test]
    fn connection_tests_report_stats_to_the_load_monitor() {
        use crate::tuning::LoadMonitor;
        let cg = chain3();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            if flix.meta_count() == 1 {
                continue; // one meta document: nothing crosses links
            }
            let mut monitor = LoadMonitor::new();

            let one = connect(&flix, 0, 6, false, &QueryOptions::default());
            let (distance, stats) = (one.distance(), one.stats);
            assert_eq!(distance, Some(6), "config {config}");
            assert!(stats.entries_popped > 0, "config {config}: {stats:?}");
            assert!(stats.links_expanded > 0, "config {config}: {stats:?}");
            assert!(
                stats.block_results_scanned > 0,
                "config {config}: {stats:?}"
            );
            monitor.record(stats, usize::from(distance.is_some()));

            let both = connect(&flix, 0, 6, true, &QueryOptions::default());
            let (distance, stats) = (both.distance(), both.stats);
            assert_eq!(distance, Some(6), "config {config}");
            assert!(stats.entries_popped > 0, "config {config}: {stats:?}");
            assert!(stats.links_expanded > 0, "config {config}: {stats:?}");
            monitor.record(stats, usize::from(distance.is_some()));

            assert_eq!(monitor.queries(), 2);
            assert!(monitor.avg_lookups() > 0.0, "config {config}");
            assert!(monitor.avg_links() > 0.0, "config {config}");
        }
    }

    #[test]
    fn ancestor_blocks_charge_scanned_work() {
        let cg = chain3();
        let a = cg.collection.tags.get("a").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let QueryOutcome {
                results: out,
                stats,
                ..
            } = eval(&flix, Query::ancestors(5, a, QueryOptions::default()));
            assert_eq!(out.len(), 2, "config {config}");
            // counted symmetry: the work charged covers at least the rows
            // returned, exactly like the descendants direction
            assert!(
                stats.block_results_scanned >= out.len(),
                "config {config}: scanned {} < returned {}",
                stats.block_results_scanned,
                out.len()
            );
        }
    }

    #[test]
    fn stats_reflect_work_done_when_emit_breaks_early() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            // Full evaluation, for reference.
            let mut full = PeeStats::default();
            flix.for_each(
                &Query::descendants(0, b, QueryOptions::default()),
                &mut QueryCtx::default(),
                |_, s| {
                    full = *s;
                    ControlFlow::Continue(())
                },
            );
            // Break after the first result: counters must reflect the work
            // actually performed up to the break — at least one pop and the
            // rows of the first materialised block — but no more than the
            // full run, and critically *not* zero.
            let mut early = PeeStats::default();
            let mut seen = 0usize;
            flix.for_each(
                &Query::descendants(0, b, QueryOptions::default()),
                &mut QueryCtx::default(),
                |_, s| {
                    early = *s;
                    seen += 1;
                    ControlFlow::Break(())
                },
            );
            assert_eq!(seen, 1, "config {config}");
            assert!(early.entries_popped >= 1, "config {config}: {early:?}");
            assert!(
                early.block_results_scanned >= 1,
                "config {config}: {early:?}"
            );
            assert!(
                early.entries_popped <= full.entries_popped,
                "config {config}"
            );
            assert!(
                early.block_results_scanned <= full.block_results_scanned,
                "config {config}"
            );
        }
    }

    #[test]
    fn stats_under_exact_order_charge_work_not_results() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            // top-1 in exact mode: the evaluator must keep popping until
            // the queue bound proves the first result final, so the work
            // counters exceed what one returned result alone would charge.
            let opts = QueryOptions {
                exact_order: true,
                max_results: Some(1),
                ..QueryOptions::default()
            };
            let mut stats = PeeStats::default();
            let mut results = Vec::new();
            flix.for_each(
                &Query::descendants(0, b, opts),
                &mut QueryCtx::default(),
                |r, s| {
                    stats = *s;
                    results.push(r);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(results.len(), 1, "config {config}");
            assert!(stats.entries_popped >= 1, "config {config}: {stats:?}");
            assert!(
                stats.block_results_scanned >= results.len(),
                "config {config}: counters must cover the work done, got {stats:?}"
            );
        }
    }

    #[test]
    fn traced_evaluation_matches_untraced_and_records_spans() {
        use flixobs::{QueryTrace, SpanStage};
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let plain = flix.find_descendants(0, b, &QueryOptions::default());
            let mut trace = QueryTrace::new("0//b");
            let (traced, stats) =
                flix.find_descendants_with_trace(0, b, &QueryOptions::default(), &mut trace);
            assert_eq!(plain, traced, "config {config}");
            // One pop span per queue entry processed and the closing lap;
            // one fetch and one expansion span per answered entry.
            let spans = |stage| trace.stage_totals(stage).spans as usize;
            let processed = stats.entries_popped + stats.entries_subsumed;
            assert_eq!(spans(SpanStage::QueuePop), processed + 1, "{config}");
            assert_eq!(
                spans(SpanStage::BlockFetch),
                stats.entries_popped,
                "{config}"
            );
            assert_eq!(
                spans(SpanStage::LinkExpand),
                stats.entries_popped,
                "{config}"
            );
        }
    }

    #[test]
    fn zero_budget_deadline_times_out_with_empty_prefix() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let opts = QueryOptions::default().with_deadline(Deadline::within_micros(0));
            let out = flix.find_descendants_outcome(0, b, &opts);
            assert!(out.timed_out, "config {config}");
            assert!(out.results.is_empty(), "config {config}");
            // exact mode must not release its unproven buffer either
            let opts = QueryOptions::exact().with_deadline(Deadline::within_micros(0));
            let out = flix.find_descendants_outcome(0, b, &opts);
            assert!(out.timed_out, "config {config}");
            assert!(out.results.is_empty(), "config {config}");
        }
    }

    #[test]
    fn generous_deadline_completes_with_full_answer() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let full = flix.find_descendants(0, b, &QueryOptions::default());
        let opts = QueryOptions::default().with_deadline(Deadline::within_micros(60_000_000));
        let out = flix.find_descendants_outcome(0, b, &opts);
        assert!(!out.timed_out);
        assert_eq!(out.results, full);
        assert!(out.stats.entries_popped > 0);

        let a = cg.collection.tags.get("a").unwrap();
        let anc = eval(&flix, Query::ancestors(5, a, QueryOptions::default())).results;
        let out = eval(&flix, Query::ancestors(5, a, opts));
        assert!(!out.timed_out);
        assert_eq!(out.results, anc);
    }

    #[test]
    fn connection_tests_respect_deadlines() {
        let cg = chain3();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let expired = QueryOptions::default().with_deadline(Deadline::within_micros(0));
        let uni = |from, to, opts: &QueryOptions| {
            let out = connect(&flix, from, to, false, opts);
            (out.distance(), out.timed_out)
        };
        let bi = |opts: &QueryOptions| {
            let out = connect(&flix, 0, 6, true, opts);
            (out.distance(), out.timed_out)
        };
        // from == to answers before the evaluation loop even starts
        assert_eq!(uni(0, 0, &expired), (Some(0), false));
        // an expired budget confirms nothing, and says so: no candidate is
        // not "not connected"
        assert_eq!(uni(0, 6, &expired), (None, true));
        assert_eq!(bi(&expired), (None, true));
        let generous = QueryOptions::default().with_deadline(Deadline::within_micros(60_000_000));
        assert_eq!(uni(0, 6, &generous), (Some(6), false));
        assert_eq!(bi(&generous), (Some(6), false));
        assert_eq!(uni(6, 0, &generous), (None, false), "not connected");
    }

    /// DiskFlix answers this with a typed error; in memory the element
    /// reaches nothing and nothing reaches it.
    #[test]
    fn start_outside_the_collection_answers_empty() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let beyond = cg.node_count() as NodeId + 5;
        for axis in [Axis::Descendants, Axis::Ancestors] {
            for opts in [QueryOptions::default(), QueryOptions::exact()] {
                let query = Query {
                    axis,
                    ..Query::descendants(beyond, b, opts)
                };
                let out = eval(&flix, query);
                assert!(out.results.is_empty() && !out.timed_out, "{axis:?}");
                assert_eq!(out.stats, PeeStats::default(), "{axis:?}");
            }
        }
        let opts = QueryOptions::default();
        assert_eq!(connect(&flix, beyond, 0, false, &opts).distance(), None);
        assert_eq!(connect(&flix, 0, beyond, false, &opts).distance(), None);
        assert_eq!(connect(&flix, 0, beyond, true, &opts).distance(), None);
    }

    /// A forest over `parents.len() + 1` nodes as one PPO meta document:
    /// node `i + 1` hangs under `parents[i]` folded onto a smaller id, or
    /// is a root.
    fn ppo_forest(parents: &[Option<u32>]) -> MetaDocument {
        let n = parents.len() + 1;
        let edges = parents
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (p % (i as u32 + 1), i as u32 + 1)));
        let g = graphcore::Digraph::from_edges(n, edges);
        let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
        let (index, extra, _) = MetaIndex::build(StrategyKind::Ppo, &g, &vec![0; n], &mut nodes);
        assert!(extra.is_empty(), "a forest loses no edge");
        MetaDocument::new(nodes, index)
    }

    /// A HOPI meta document over the digraph of `edges` (taken modulo `n`:
    /// cycles and self-loops welcome), its locals the global ids
    /// `first..first + n`.
    fn hopi_graph(n: usize, edges: &[(u32, u32)], first: NodeId) -> MetaDocument {
        let m = n as u32;
        let g = graphcore::Digraph::from_edges(n, edges.iter().map(|&(u, v)| (u % m, v % m)));
        let mut nodes: Vec<NodeId> = (first..first + m).collect();
        let (index, _, _) = MetaIndex::build(StrategyKind::Hopi, &g, &vec![0; n], &mut nodes);
        MetaDocument::new(nodes, index)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Whatever is pushed — covered entries, repeats, nested and
        /// touching subtrees, not only what the evaluator would push — the
        /// interval union (going down) and the rank list (going up) answer
        /// `covered` as the scan over the raw entry list does, and the
        /// interval list stays sorted, disjoint and minimal.
        #[test]
        fn ppo_entries_answer_as_the_scan_on_random_forests(
            (parents, pushes) in (2usize..40).prop_flat_map(|n| (
                proptest::collection::vec(proptest::option::of(0..u32::MAX), n - 1),
                proptest::collection::vec(0..n as u32, 0..24),
            ))
        ) {
            let md = ppo_forest(&parents);
            for axis in [Axis::Descendants, Axis::Ancestors] {
                let mut entries = Entries::default();
                entries.begin(1, md.len());
                let mut raw = Vec::new();
                for &local in &pushes {
                    entries.push(&md, axis, 0, local, false);
                    raw.push(local);
                    let list = &entries.metas[0];
                    prop_assert!(list.windows(2).all(|w| match axis {
                        // strictly: no empty interval, no two that touch
                        Axis::Descendants => w[0] < w[1],
                        Axis::Ancestors => w[0] <= w[1],
                    }), "{:?} {:?}", axis, list);
                    if axis == Axis::Descendants {
                        prop_assert_eq!(list.len() % 2, 0, "every interval has both ends");
                    }
                    for later in 0..md.len() as u32 {
                        prop_assert_eq!(
                            entries.covered(&md, axis, 0, later),
                            covered_by_scan(&md.index, axis, &raw, later),
                            "{:?} entries {:?} later {}", axis, &raw, later
                        );
                    }
                }
                entries.begin(1, md.len());
                prop_assert!((0..md.len() as u32).all(|v| !entries.covered(&md, axis, 0, v)));
            }
        }

        /// Two HOPI meta documents over random cyclic graphs push into one
        /// `Entries` — whatever is pushed, repeats and covered entries
        /// included — on both axes, one after the other: after every push,
        /// each answers `covered` for every node as the scan over its raw
        /// entry list does. So a center of one never covers a node of the
        /// other, and `begin` forgets the centers of the axis before.
        #[test]
        fn hopi_entries_answer_as_the_scan_on_random_graphs(
            sizes in (1usize..12, 1usize..12),
            edges in proptest::collection::vec((0..u32::MAX, 0..u32::MAX), 0..36),
            pushes in proptest::collection::vec((any::<bool>(), 0..u32::MAX), 0..24),
        ) {
            let half = edges.len() / 2;
            let mds = [
                hopi_graph(sizes.0, &edges[..half], 0),
                hopi_graph(sizes.1, &edges[half..], sizes.0 as NodeId),
            ];
            let mut entries = Entries::default();
            for axis in [Axis::Descendants, Axis::Ancestors] {
                entries.begin(2, sizes.0 + sizes.1);
                let mut raw = [Vec::new(), Vec::new()];
                for &(second, x) in &pushes {
                    let meta = usize::from(second);
                    let local = x % mds[meta].len() as u32;
                    entries.push(&mds[meta], axis, meta as u32, local, false);
                    raw[meta].push(local);
                    for (meta, md) in (0..).zip(&mds) {
                        let seen = &raw[meta as usize];
                        for later in 0..md.len() as u32 {
                            prop_assert_eq!(
                                entries.covered(md, axis, meta, later),
                                covered_by_scan(&md.index, axis, seen, later),
                                "{:?} meta {} entries {:?} later {}", axis, meta, seen, later
                            );
                        }
                    }
                }
            }
        }
    }

    /// `begin` clears exactly the lists (and partial-block flags) that were
    /// written, for a space of any size after one of any other size.
    #[test]
    fn entries_are_forgotten_between_spaces_of_different_sizes() {
        // 0 -> {1, 2}, 1 -> 3: ranks 0, 1, 3, 2
        let md = ppo_forest(&[Some(0), Some(0), Some(1)]);
        // globals 4 -> 5, 6 alone
        let hopi = hopi_graph(3, &[(0, 1)], 4);
        let mut entries = Entries::default();
        entries.begin(9, 7);
        entries.push(&md, Axis::Descendants, 7, 1, true);
        entries.push(&md, Axis::Descendants, 2, 0, false);
        entries.push(&hopi, Axis::Descendants, 5, 0, false);
        assert!(entries.covered(&md, Axis::Descendants, 7, 2));
        assert!(!entries.covered(&md, Axis::Descendants, 7, 3));
        assert!(entries.covered(&hopi, Axis::Descendants, 5, 1));
        assert_eq!((entries.partial[7], entries.partial[2]), (true, false));
        entries.begin(3, 7);
        assert!(entries.touched.is_empty());
        assert!(entries.metas.iter().all(Vec::is_empty));
        assert!(!entries.partial.contains(&true));
        assert!(entries.centers.touched.is_empty());
        assert!(entries.centers.bits.iter().all(|&word| word == 0));
        entries.push(&md, Axis::Ancestors, 2, 2, false);
        assert!(entries.covered(&md, Axis::Ancestors, 2, 1));
        entries.push(&hopi, Axis::Descendants, 1, 2, false);
        assert!(!entries.covered(&hopi, Axis::Descendants, 1, 1));
        entries.begin(12, 7);
        assert_eq!(entries.metas.len(), 12);
        assert!(!entries.covered(&md, Axis::Ancestors, 2, 1));
    }

    /// Runs `job` on a thread of its own: fresh thread-locals, so neither
    /// the evaluator's scratch nor HOPI's and APEX's carry anything over.
    fn on_a_fresh_thread<T: Send>(job: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|scope| scope.spawn(job).join().unwrap())
    }

    /// d0: a(0) -> t(1) -> t(2) -> b(3)     3 --link--> d1, 2 --link--> d2
    /// d1: t(4) -> t(5), t(4) -> b(6)       5 --link--> d0, 6 --link--> d2
    /// d2: t(7) -> t(8) -> b(9), t(7) -> t(10)   9 --link--> d1
    /// Links point at document roots, so every document is on a link cycle
    /// and d2 is entered twice.
    fn ring() -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let (a, t, b) = (c.tags.intern("a"), c.tags.intern("t"), c.tags.intern("b"));
        let to = |doc: &str| LinkTarget {
            document: Some(doc.into()),
            fragment: None,
        };
        let mut d0 = Document::new("d0.xml");
        let n0 = d0.add_element(a, None);
        let n1 = d0.add_element(t, Some(n0));
        let n2 = d0.add_element(t, Some(n1));
        let n3 = d0.add_element(b, Some(n2));
        d0.add_link(n3, to("d1.xml"));
        d0.add_link(n2, to("d2.xml"));
        let mut d1 = Document::new("d1.xml");
        let n4 = d1.add_element(t, None);
        let n5 = d1.add_element(t, Some(n4));
        let n6 = d1.add_element(b, Some(n4));
        d1.add_link(n5, to("d0.xml"));
        d1.add_link(n6, to("d2.xml"));
        let mut d2 = Document::new("d2.xml");
        let n7 = d2.add_element(t, None);
        let n8 = d2.add_element(t, Some(n7));
        let n9 = d2.add_element(b, Some(n8));
        d2.add_element(t, Some(n7));
        d2.add_link(n9, to("d1.xml"));
        for d in [d0, d1, d2] {
            c.add_document(d).unwrap();
        }
        Arc::new(c.seal())
    }

    /// What the row-side oracle saw that the stamp has to get right.
    #[derive(Default)]
    struct RowScanWitness {
        /// Rows skipped that are a seed answered with its own match left out.
        seeds_met_again: usize,
        /// Rows skipped that an earlier block had dropped past the bound.
        dropped_then_met_again: usize,
    }

    /// Fig. 4's loop in approximate order with §5.1 exactly as the paper
    /// states it: the popped entry *and every block row* are probed against
    /// the answered entries of their meta document, one reachability test
    /// each ([`covered_by_scan`]). The pushes go through a scratch of their
    /// own, so refusals are counted as the evaluator counts them. A pop is
    /// answered whole, or — `budgeted` — within what the query's bound
    /// leaves it, as the evaluator asks.
    fn evaluate_with_row_scan(
        flix: &Flix,
        axis: Axis,
        seeds: &[(NodeId, Distance)],
        target: TagId,
        opts: &QueryOptions,
        budgeted: bool,
        witness: &mut RowScanWitness,
    ) -> (Vec<QueryResult>, PeeStats) {
        let (mut results, mut stats) = (Vec::new(), PeeStats::default());
        let mut scratch = EvalScratch {
            nodes: flix.collection().node_count(),
            ..EvalScratch::default()
        };
        scratch.queued.begin(scratch.nodes);
        let mut answered: Vec<Vec<u32>> = vec![Vec::new(); flix.meta_count()];
        let (mut silent_seeds, mut dropped) = (HashSet::new(), HashSet::new());
        for &(s, d) in seeds {
            scratch.queue.push(Reverse((d, s, true)));
        }
        while let Some(Reverse((d, e, is_seed))) = scratch.queue.pop() {
            if opts.max_distance.is_some_and(|m| d > m) {
                break;
            }
            let (meta, local) = MetaSpace::resolve(flix, e).unwrap();
            let md = flix.meta(meta);
            let seen = &mut answered[meta as usize];
            if covered_by_scan(&md.index, axis, seen, local) {
                stats.entries_subsumed += 1;
                continue;
            }
            stats.entries_popped += 1;
            let include_self = !is_seed || opts.include_start;
            if !include_self {
                silent_seeds.insert(e);
            }
            let mut pop = PopAnswer::default();
            let budget = opts.max_distance.filter(|_| budgeted).map(|m| m - d);
            md.answer_pop(axis, local, target, include_self, budget, &mut pop);
            let PopAnswer {
                block, work, links, ..
            } = pop;
            stats.block_results_scanned += work;
            for (r, dr) in block {
                let node = md.nodes[r as usize];
                if covered_by_scan(&md.index, axis, seen, r) {
                    witness.seeds_met_again += usize::from(silent_seeds.contains(&node));
                    witness.dropped_then_met_again += usize::from(dropped.contains(&node));
                    continue;
                }
                if opts.max_distance.is_some_and(|m| d + dr > m) {
                    dropped.insert(node);
                    continue;
                }
                results.push(QueryResult {
                    distance: d + dr,
                    node,
                });
                if opts.max_results.is_some_and(|k| results.len() >= k) {
                    return (results, stats);
                }
            }
            for (anchor, da) in links {
                let node = md.nodes[anchor as usize];
                let far_ends = match axis {
                    Axis::Descendants => flix.catalogue().links_out_of(node),
                    Axis::Ancestors => flix.catalogue().links_into(node),
                };
                for &(_, far) in far_ends {
                    stats.links_expanded += 1;
                    if !scratch.push_link(far, d + da + 1, opts.max_distance) {
                        stats.entries_refused += 1;
                    }
                }
            }
            seen.push(local);
        }
        (results, stats)
    }

    /// §5.1 step 2 by stamp answers as the paper's per-row probe does:
    /// results, their order and every counter, for one seed and for two at
    /// any distances, bounded and capped, both axes, with and without the
    /// seeds' own match — the cases where "was a row of an answered block"
    /// and "is reachable from an answered entry" could part included. The
    /// results are those of the probe over whole blocks; the counters those
    /// of the probe over blocks answered within the budget the evaluator
    /// gives each pop, which reads fewer rows and follows fewer links.
    #[test]
    fn row_stamps_answer_as_the_per_row_scan() {
        let cg = ring();
        let n = cg.node_count() as NodeId;
        let tags = ["t", "b"].map(|tag| cg.collection.tags.get(tag).unwrap());
        let mut bounds = vec![QueryOptions::default(), QueryOptions::top_k(3)];
        bounds.extend((1..6).map(QueryOptions::within));
        // The HOPI configurations the named "dropped, then met again within
        // the bound" case ran on.
        let mut met_again_on_hopi = Vec::new();
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let mut witness = RowScanWitness::default();
            let mut check = |axis, seeds: &[(NodeId, Distance)], tag, opts: &QueryOptions| {
                let whole =
                    evaluate_with_row_scan(&flix, axis, seeds, tag, opts, false, &mut witness);
                let want =
                    evaluate_with_row_scan(&flix, axis, seeds, tag, opts, true, &mut witness);
                let (got, escaped) = collect_from(&flix, axis, seeds, tag, opts);
                assert!(!escaped);
                let case = format!("{config} {axis:?} {seeds:?} tag {tag} {opts:?}");
                assert_eq!(got.results, whole.0, "{case}");
                assert_eq!((got.results, got.stats), want, "{case}");
            };
            for axis in [Axis::Descendants, Axis::Ancestors] {
                for include_start in [false, true] {
                    for bound in &bounds {
                        let opts = QueryOptions {
                            include_start,
                            ..*bound
                        };
                        for tag in tags {
                            for s in 0..n {
                                check(axis, &[(s, 0)], tag, &opts);
                                for (other, at) in (0..n).flat_map(|o| [(o, 0), (o, 2)]) {
                                    check(axis, &[(s, 0), (other, at)], tag, &opts);
                                }
                            }
                        }
                    }
                }
            }
            if flix.meta_count() > 1 {
                assert!(witness.seeds_met_again > 0, "{config}");
            }
            assert!(witness.dropped_then_met_again > 0, "{config}");

            // The cases by name. A seed on a link cycle, its own match left
            // out, met again in the block of a later entry of its document:
            // 1 -> 2 -> 3 -> d1 -> 5 -> d0's root, whose block holds 1 and 2.
            let opts = QueryOptions::default();
            let out = flix.find_descendants_outcome(1, tags[0], &opts);
            let mut nodes: Vec<NodeId> = out.results.iter().map(|r| r.node).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, [2, 4, 5, 7, 8, 10], "{config}");
            // Two seeds, the later one covering the earlier: 1 is answered
            // first, then 0, whose block holds 1.
            let seeds = [(0, 1), (1, 0)];
            let (out, _) = collect_from(&flix, Axis::Descendants, &seeds, tags[0], &opts);
            assert!(out.results.iter().all(|r| r.node != 1), "{config}");
            // A row dropped past the bound is not returned when a later
            // entry reaches it within the bound: going up within 1 of 9 and
            // of 10, d2's root lies 2 above 9 — dropped — and 1 above 10.
            let up = |seeds: &[(NodeId, Distance)]| {
                let opts = QueryOptions::within(1);
                collect_from(&flix, Axis::Ancestors, seeds, tags[0], &opts)
                    .0
                    .results
            };
            // (Where a partition cuts d2 apart the root is a link away.)
            if [9, 10].iter().all(|&v| flix.meta_of(v) == flix.meta_of(7)) {
                assert!(up(&[(10, 0)]).iter().any(|r| r.node == 7), "{config}");
                let both = up(&[(9, 0), (10, 0)]);
                assert!(both.iter().all(|r| r.node != 7), "{config}");
                let (meta, _) = MetaSpace::resolve(&flix, 7).unwrap();
                if matches!(flix.meta(meta).index, MetaIndex::Hopi(_)) {
                    met_again_on_hopi.push(config);
                }
            }

            // An `emit` that evaluates on this thread leaves the outer
            // evaluation's stamps alone.
            let want = evaluate_with_row_scan(
                &flix,
                Axis::Descendants,
                &[(1, 0)],
                tags[0],
                &opts,
                true,
                &mut witness,
            );
            let mut outer = Vec::new();
            let stats = flix.for_each(
                &Query::descendants(1, tags[0], opts),
                &mut QueryCtx::default(),
                |r, _| {
                    flix.find_descendants(0, tags[0], &opts);
                    outer.push(r);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!((outer, stats), want, "{config}");
        }
        assert!(
            !met_again_on_hopi.is_empty(),
            "no HOPI configuration met the case"
        );
    }

    #[test]
    fn an_emit_callback_may_evaluate_on_the_same_thread() {
        let cg = chain3();
        let (a, b) = (
            cg.collection.tags.get("a").unwrap(),
            cg.collection.tags.get("b").unwrap(),
        );
        for config in all_configs() {
            let flix = Flix::build(cg.clone(), config);
            let opts = QueryOptions::default();
            let outer_alone = flix.find_descendants_outcome(0, b, &opts);
            let inner_alone = flix.find_descendants(0, a, &opts);
            let mut outer = Vec::new();
            let stats = flix.for_each(
                &Query::descendants(0, b, opts),
                &mut QueryCtx::default(),
                |r, _| {
                    assert_eq!(flix.find_descendants(0, a, &opts), inner_alone, "{config}");
                    outer.push(r);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(outer.len(), 3, "the callback ran");
            assert_eq!(outer, outer_alone.results, "{config}");
            assert_eq!(stats, outer_alone.stats, "{config}");
        }
    }

    /// One thread's scratch — the evaluator's, and HOPI's and APEX's
    /// `DistScratch` under it — serves frameworks of different sizes in
    /// turn, alone and with three more threads doing the same, and every
    /// answer equals the one a thread that never evaluated anything gives.
    #[test]
    fn scratch_serves_frameworks_of_different_sizes_on_concurrent_threads() {
        use workloads::{descendant_queries, generate_dblp, DblpConfig};
        let small = chain3();
        let large = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
        assert!(large.node_count() > 10 * small.node_count());
        let b = small.collection.tags.get("b").unwrap();
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::Monolithic(StrategyKind::Apex),
        ] {
            let frameworks = [
                Flix::build(small.clone(), config),
                Flix::build(large.clone(), config),
            ];
            // Alternating: small, large, small, large, ...
            let mut jobs: Vec<(usize, NodeId, TagId)> = Vec::new();
            for q in descendant_queries(&large, 6, 44) {
                jobs.push((0, q.start % small.node_count() as NodeId, b));
                jobs.push((1, q.start, q.target_tag));
            }
            let answer = |&(which, start, tag): &(usize, NodeId, TagId)| {
                let flix: &Flix = &frameworks[which];
                [Axis::Descendants, Axis::Ancestors].map(|axis| {
                    let query = Query {
                        axis,
                        ..Query::descendants(start, tag, QueryOptions::default())
                    };
                    let out = eval(flix, query);
                    (out.results, out.stats)
                })
            };
            let fresh: Vec<_> = jobs
                .iter()
                .map(|job| on_a_fresh_thread(|| answer(job)))
                .collect();
            let reused = || jobs.iter().map(answer).collect::<Vec<_>>();
            assert_eq!(reused(), fresh, "{config}: one thread");
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4).map(|_| scope.spawn(reused)).collect();
                for worker in workers {
                    assert_eq!(worker.join().unwrap(), fresh, "{config}: four threads");
                }
            });
        }
    }

    /// Evaluations that hold scratches at once on one thread — the two
    /// sides of a bidirectional connection test, and an exact-order query —
    /// run inside the `emit` callback of an evaluation over a framework of
    /// another size, and every answer, inner and outer, equals the one a
    /// thread that never evaluated anything gives.
    #[test]
    fn an_emit_callback_may_test_connections_and_order_exactly_on_the_same_thread() {
        use workloads::{connection_pairs, descendant_queries, generate_dblp, DblpConfig};
        let small = chain3();
        let large = Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal());
        let b = small.collection.tags.get("b").unwrap();
        let n = small.node_count() as NodeId;
        let opts = QueryOptions::default();
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::Monolithic(StrategyKind::Apex),
        ] {
            let frameworks = [
                Flix::build(small.clone(), config),
                Flix::build(large.clone(), config),
            ];
            let queries = descendant_queries(&large, 6, 44);
            let outer_query = [(0, b), (queries[0].start, queries[0].target_tag)];
            // Alternating: small, large, small, large, ...
            let mut jobs = Vec::new();
            for (p, q) in connection_pairs(&large, 6, 9).into_iter().zip(&queries) {
                jobs.push((0, (p.from % n, p.to % n), (q.start % n, b)));
                jobs.push((1, (p.from, p.to), (q.start, q.target_tag)));
            }
            type Job = (usize, (NodeId, NodeId), (NodeId, TagId));
            let answer = |&(which, (from, to), (start, tag)): &Job| {
                let flix: &Flix = &frameworks[which];
                let both = connect(flix, from, to, true, &opts);
                let exact = flix.find_descendants_outcome(start, tag, &QueryOptions::exact());
                (both.results, both.stats, exact.results, exact.stats)
            };
            let fresh: Vec<_> = jobs
                .iter()
                .map(|job| on_a_fresh_thread(|| answer(job)))
                .collect();
            let mut reused = Vec::new();
            for job in &jobs {
                let host = 1 - job.0;
                let (flix, (start, tag)) = (&frameworks[host], outer_query[host]);
                let alone = flix.find_descendants_outcome(start, tag, &opts);
                let (mut inner, mut outer) = (None, Vec::new());
                let stats = flix.for_each(
                    &Query::descendants(start, tag, opts),
                    &mut QueryCtx::default(),
                    |r, _| {
                        inner.get_or_insert_with(|| answer(job));
                        outer.push(r);
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!((outer, stats), (alone.results, alone.stats), "{config}");
                reused.push(inner.expect("the outer query has results"));
            }
            assert_eq!(reused, fresh, "{config}");
        }
    }

    /// An evaluation over `flix` with nothing queued, on this thread's
    /// scratch.
    fn idle_evaluation(flix: &Flix) -> Evaluation<'_, Flix> {
        let opts = QueryOptions::default();
        Evaluation::new(flix, Axis::Descendants, Seek::Tag(0), [], &opts)
    }

    /// When the stamp epoch wraps, a slot stamped 2³² evaluations ago must
    /// not read as "queued at distance 0" and refuse every link push.
    #[test]
    fn epoch_wrap_leaves_no_stale_stamp_to_refuse_a_push() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let opts = QueryOptions::default();
        let want = on_a_fresh_thread(|| flix.find_descendants_outcome(0, b, &opts));
        assert_eq!(want.results.len(), 3);
        on_a_fresh_thread(|| {
            // Every node stamped in epoch 1 at distance 0, the counter at
            // its last value: the next evaluation wraps it back to 1.
            let mut eval = idle_evaluation(&flix);
            for v in 0..cg.node_count() as NodeId {
                assert!(eval.scratch.push_link(v, 0, None));
                assert!(!eval.scratch.push_link(v, 0, None));
            }
            eval.scratch.queued.force_epoch(u32::MAX);
            eval.finish(&mut QueryCtx::default(), &mut None);
            for _ in 0..3 {
                let got = flix.find_descendants_outcome(0, b, &opts);
                assert_eq!((got.results, got.stats), (want.results.clone(), want.stats));
            }
        });
    }

    /// A push past the query's distance bound is never popped for work, so
    /// it is queued as it always was — every time, unrecorded — and only
    /// pushes within the bound are recorded and their repeats refused.
    #[test]
    fn pushes_past_the_distance_bound_are_queued_unrecorded() {
        let flix = Flix::build(chain3(), FlixConfig::Naive);
        let mut eval = idle_evaluation(&flix);
        let scratch = &mut eval.scratch;
        assert!(scratch.push_link(3, 5, Some(4)));
        assert!(scratch.push_link(3, 5, Some(4)));
        assert!(scratch.push_link(3, 4, Some(4)));
        assert!(!scratch.push_link(3, 4, Some(4)));
        assert!(!scratch.push_link(3, 9, None));
        assert!(scratch.push_link(3, 3, None), "a shorter path is queued");
        assert_eq!(scratch.queue.len(), 4);
    }

    /// A catalogue naming a link end that is no element of the collection
    /// (two links, so the push repeats): the stamp table does not cover the
    /// node, both pushes are queued, and the first to pop escapes.
    #[test]
    fn a_link_end_outside_the_collection_escapes() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let built = Flix::build(cg.clone(), FlixConfig::Naive);
        let beyond = cg.node_count() as NodeId + 92;
        let mut links = built.runtime_links().to_vec();
        links.extend([(2, beyond), (4, beyond)]);
        links.sort_unstable();
        let catalogue = Catalogue::new(
            built.catalogue().meta_of.clone(),
            built.catalogue().local_of.clone(),
            links,
        );
        let metas = (0..built.meta_count() as u32).map(|m| built.meta(m).clone());
        let flix = Flix::from_raw_parts(
            cg,
            built.config(),
            metas.collect(),
            catalogue,
            built.build_report().clone(),
        );
        for opts in [QueryOptions::default(), QueryOptions::exact()] {
            let query = Query::descendants(0, b, opts);
            let (out, escaped) = never(collect(&flix, &query, &mut QueryCtx::default()));
            assert!(escaped, "{opts:?}");
            // d0 and d1 were answered (3 and 4 links pushed, none refused)
            // before the stray end, queued at distance 3, popped.
            assert_eq!(out.stats.entries_popped, 2, "{opts:?}");
            assert_eq!(out.stats.links_expanded, 4, "{opts:?}");
            assert_eq!(out.stats.entries_refused, 0, "{opts:?}");
        }
        let opts = QueryOptions::default();
        assert_eq!(connect(&flix, 0, 6, false, &opts).distance(), Some(6));
    }

    #[test]
    fn results_within_meta_block_are_distance_sorted() {
        let cg = chain3();
        let b = cg.collection.tags.get("b").unwrap();
        let flix = Flix::build(cg, FlixConfig::Monolithic(StrategyKind::Hopi));
        let res = flix.find_descendants(0, b, &QueryOptions::default());
        assert!(res.windows(2).all(|w| w[0].distance <= w[1].distance));
    }
}
