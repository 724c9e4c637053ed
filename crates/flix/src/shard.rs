//! Sharded serving: a shard is a filter over the parent framework, and
//! the cross-shard merge is the parent framework itself.
//!
//! FliX's collection is already partitioned into meta documents, and the
//! evaluator already merges distance-ordered streams across
//! cross-partition links — so the scale-out step cuts the *meta documents*
//! into shards, and sharding is routing and nothing else:
//!
//! 1. [`ShardPlan`] partitions the meta-document link graph with
//!    [`graphcore::partition_greedy`] and packs the blocks into exactly
//!    `N` shards by balanced prefix splitting in meta order, keeping
//!    link-connected and link-adjacent meta documents together so most
//!    link chases stay shard-local.
//! 2. A shard is a borrowed `ShardSpace` `{ parent, plan, shard }`: the
//!    parent's meta documents and its one catalogue (node→meta maps,
//!    runtime link table — `crate::catalogue`), with `resolve` filtered
//!    by [`ShardPlan::shard_of_meta`] and renumbered to the shard's member
//!    list, so the evaluator's per-query entries table scales with the
//!    shard's meta count. Nothing is copied per shard. A cross-shard link
//!    is the existing cross-partition link case: its target does not
//!    resolve in the shard.
//! 3. [`ShardedFlix`] routes queries with help from a boundary-distance
//!    table: the plan records, per meta document, the minimum number of
//!    link traversals before an evaluation can reach another shard
//!    ([`ShardPlan::boundary_hops_out`]). Every link traversal costs at
//!    least 1 distance, so a shard-closed start — or a `max_distance`
//!    below the boundary budget — *proves* the query completes inside
//!    the shard. Uncapped queries that can reach the boundary go straight
//!    to the merge, which is an evaluation on the parent [`Flix`]; capped
//!    ones attempt the shard first and *escape* to the merge only if they
//!    actually pop a foreign node (everything from the aborted attempt is
//!    discarded). In the merge the evaluator's priority queue **is** the
//!    cross-shard merge — entries from different shards interleave in
//!    ascending distance order, exactly the discipline `pee.rs` applies to
//!    meta documents.
//!
//! Results are byte-identical to the unsharded oracle in every case: the
//! heap is a set of `(distance, node)`-keyed entries and a shard presents
//! exactly the parent's data for its own metas, so the pop sequence (and
//! therefore the emitted stream) never diverges until an escape — and the
//! merge *is* the oracle. The equivalence test in `tests/serve.rs` proves
//! it per shard count.

use crate::backend::{Answer, QueryBackend};
use crate::cache::{CacheStats, ResultCache};
use crate::catalogue::Catalogue;
use crate::framework::Flix;
use crate::meta::MetaDocument;
use crate::pee::{collect, never, Axis, Goal, MetaSpace, Query, QueryCtx};
use crate::pee::{QueryOptions, QueryOutcome, QueryResult, Start};
use flixobs::journal::{EventKind, SHARD_MERGE};
use flixobs::Counter;
use graphcore::{partition_greedy, Digraph, NodeId};
use std::convert::Infallible;
use std::sync::Arc;
use xmlgraph::TagId;

/// An assignment of a framework's meta documents to `N` shards.
///
/// The plan partitions the *meta-document link graph* (one node per meta
/// document, one edge per runtime-link pair of distinct metas) into
/// size-capped blocks with [`graphcore::partition_greedy`], then packs
/// the blocks onto exactly `shards` shards by balanced prefix splitting
/// in ascending meta order (each shard takes consecutive blocks until it
/// reaches its proportional share of the element weight). Link-connected
/// metas share a block and link-adjacent blocks share a shard, which
/// keeps link chases — and so query evaluations — shard-local.
/// Deterministic for a given framework and shard count.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard id of every parent meta document.
    shard_of_meta: Vec<u32>,
    /// Shard-local meta id of every parent meta document (its index in
    /// the owning shard's member list).
    local_meta: Vec<u32>,
    /// Parent meta ids per shard, ascending.
    members: Vec<Vec<u32>>,
    /// Per meta: minimum link traversals along *outgoing* link edges to
    /// reach a meta in another shard ([`u32::MAX`] when no such path
    /// exists — the meta is shard-closed for the descendants axis).
    boundary_hops_out: Vec<u32>,
    /// Same, along *incoming* link edges (the ancestors axis walks links
    /// backwards).
    boundary_hops_in: Vec<u32>,
}

impl ShardPlan {
    /// Plans `shards` shards over `flix`'s meta documents. The count is
    /// clamped to `1..=meta_count` — more shards than meta documents
    /// cannot be populated.
    pub fn new(flix: &Flix, shards: usize) -> Self {
        let m = flix.meta_count();
        let shards = shards.clamp(1, m.max(1));

        // The meta-document link graph: which metas are wired together?
        let mut edges: Vec<(u32, u32)> = flix
            .runtime_links()
            .iter()
            .map(|&(u, v)| (flix.meta_of(u), flix.meta_of(v)))
            .filter(|&(a, b)| a != b)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        // Meta-level link adjacency, kept for the boundary-distance pass
        // below (the packer consumes the edge list).
        let mut fwd_adj: Vec<Vec<u32>> = vec![Vec::new(); m];
        let mut bwd_adj: Vec<Vec<u32>> = vec![Vec::new(); m];
        for &(a, b) in &edges {
            fwd_adj[a as usize].push(b);
            bwd_adj[b as usize].push(a);
        }
        let g = Digraph::from_edges(m, edges);

        // Blocks of ~M/(4·shards) metas give the packer room to balance
        // shard weights while still keeping linked metas together.
        let cap = (m / (shards * 4)).max(1);
        let parts = partition_greedy(&g, cap);

        // Pack the blocks into exactly `shards` shards by balanced prefix
        // splitting in ascending first-meta order. Meta ids follow the
        // collection's document order, and collections link locally in
        // that order (DBLP citations reach a bounded window back), so
        // keeping *adjacent* blocks together puts the cross-block link
        // mass inside shards. A load-balance packer that scatters blocks
        // (heaviest onto lightest) turns almost every cut edge into a
        // cross-shard edge; prefix splitting leaves only the few cuts
        // that straddle a shard boundary.
        let block_weight =
            |block: &[u32]| -> usize { block.iter().map(|&mi| flix.meta(mi).len()).sum() };
        let mut order: Vec<usize> = (0..parts.len()).collect();
        order.sort_by_key(|&p| parts.parts[p].first().copied().unwrap_or(u32::MAX));
        let total: usize = (0..parts.len())
            .map(|p| block_weight(&parts.parts[p]))
            .sum();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut cum = 0usize;
        let mut s = 0usize;
        for (i, &p) in order.iter().enumerate() {
            let blocks_left = order.len() - i;
            // Advance once this shard met its proportional share of the
            // element weight — or when every remaining shard needs one of
            // the remaining blocks to stay populated.
            if s + 1 < shards
                && !members[s].is_empty()
                && (cum * shards >= total * (s + 1) || blocks_left == shards - s - 1)
            {
                s += 1;
            }
            cum += block_weight(&parts.parts[p]);
            members[s].extend_from_slice(&parts.parts[p]);
        }

        let mut shard_of_meta = vec![0u32; m];
        let mut local_meta = vec![0u32; m];
        for (s, block) in members.iter_mut().enumerate() {
            // Ascending parent ids per shard: the shard-local numbering
            // preserves the parent's relative meta order.
            block.sort_unstable();
            for (k, &mi) in block.iter().enumerate() {
                shard_of_meta[mi as usize] = s as u32;
                local_meta[mi as usize] = k as u32;
            }
        }

        // Boundary distances: for each meta, the minimum number of link
        // traversals (following `step` edges) before the evaluation can
        // reach a meta in another shard. Every link traversal costs at
        // least 1 distance in the evaluator, so a query whose
        // `max_distance` is below this number provably never leaves the
        // shard. Multi-source BFS: metas with a foreign `step` neighbour
        // sit at 1; same-shard `rstep` edges relax backwards.
        let hops = |step: &[Vec<u32>], rstep: &[Vec<u32>]| -> Vec<u32> {
            let mut dist = vec![u32::MAX; m];
            let mut queue = std::collections::VecDeque::new();
            for x in 0..m {
                if step[x]
                    .iter()
                    .any(|&y| shard_of_meta[y as usize] != shard_of_meta[x])
                {
                    dist[x] = 1;
                    queue.push_back(x as u32);
                }
            }
            while let Some(y) = queue.pop_front() {
                for &x in &rstep[y as usize] {
                    if shard_of_meta[x as usize] == shard_of_meta[y as usize]
                        && dist[x as usize] == u32::MAX
                    {
                        dist[x as usize] = dist[y as usize] + 1;
                        queue.push_back(x);
                    }
                }
            }
            dist
        };
        let boundary_hops_out = hops(&fwd_adj, &bwd_adj);
        let boundary_hops_in = hops(&bwd_adj, &fwd_adj);

        Self {
            shard_of_meta,
            local_meta,
            members,
            boundary_hops_out,
            boundary_hops_in,
        }
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Shard id of a parent meta document.
    pub fn shard_of_meta(&self, meta: u32) -> u32 {
        self.shard_of_meta[meta as usize]
    }

    /// Parent meta ids owned by shard `s`, ascending.
    pub fn members(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// Minimum link traversals from `meta` before a *descendants*
    /// evaluation can surface a node from another shard; [`u32::MAX`]
    /// when the meta is shard-closed for that axis. Since every link
    /// traversal costs at least 1 distance, a query with `max_distance`
    /// strictly below this bound is proven to stay in the shard.
    pub fn boundary_hops_out(&self, meta: u32) -> u32 {
        self.boundary_hops_out[meta as usize]
    }

    /// [`Self::boundary_hops_out`] for the *ancestors* axis, which walks
    /// link edges backwards.
    pub fn boundary_hops_in(&self, meta: u32) -> u32 {
        self.boundary_hops_in[meta as usize]
    }
}

/// Per-shard routing counters, read back by [`ShardedFlix::stats`].
struct ShardCell {
    /// Queries answered entirely inside this shard.
    direct: Counter,
    /// Uncapped queries routed straight to the cross-shard fan-out merge
    /// because their start can reach the shard boundary.
    fanout: Counter,
    /// Optimistic local attempts that popped a foreign node and fell
    /// back to the cross-shard fan-out merge.
    escaped: Counter,
}

/// Point-in-time routing statistics for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Meta documents owned by the shard.
    pub metas: usize,
    /// Elements owned by the shard.
    pub nodes: usize,
    /// Queries answered entirely inside the shard.
    pub direct: u64,
    /// Queries routed straight to the cross-shard fan-out merge.
    pub fanout: u64,
    /// Local attempts that surfaced a foreign node at runtime and re-ran
    /// over the fan-out merge.
    pub escaped: u64,
}

/// Point-in-time statistics for a [`ShardedFlix`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedStats {
    /// Per-shard breakdown, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// Total queries answered shard-locally.
    pub direct: u64,
    /// Total queries routed straight to the cross-shard fan-out merge.
    pub fanout: u64,
    /// Total local attempts that escaped at runtime and re-ran over the
    /// fan-out merge.
    pub escaped: u64,
}

/// A framework cut into `N` shards, routing single-shard queries directly
/// and merging multi-shard queries through the evaluator's
/// distance-ordered priority queue (see the module docs).
///
/// Results are byte-identical to evaluating on the parent [`Flix`]; the
/// win is that a query answered inside its shard keeps per-query state
/// for the shard only — the evaluator's per-meta scratch scales with the
/// shard's meta count instead of the collection's.
pub struct ShardedFlix {
    parent: Arc<Flix>,
    plan: ShardPlan,
    /// Per-shard result caches (optional). Each key's start element pins
    /// it to exactly one shard (a tag start to shard 0), so entries are
    /// never duplicated.
    caches: Option<Vec<ResultCache>>,
    cells: Vec<ShardCell>,
}

impl ShardedFlix {
    /// Cuts `parent` into `shards` shards (clamped to the meta-document
    /// count), without result caches.
    pub fn new(parent: Arc<Flix>, shards: usize) -> Self {
        let plan = ShardPlan::new(&parent, shards);
        let cells = (0..plan.shard_count())
            .map(|_| ShardCell {
                direct: Counter::new(),
                fanout: Counter::new(),
                escaped: Counter::new(),
            })
            .collect();
        Self {
            parent,
            plan,
            caches: None,
            cells,
        }
    }

    /// Adds one result cache of `per_shard_capacity` entries per shard,
    /// consulted by [`QueryBackend::evaluate`] (and so by
    /// [`Self::find_descendants_deadline`]). A sharded backend
    /// is immutable: a rebuild makes a new one with fresh caches
    /// ([`QueryBackend::over`]).
    ///
    /// # Panics
    /// If `per_shard_capacity` is zero.
    pub fn with_caches(mut self, per_shard_capacity: usize) -> Self {
        self.caches = Some(
            (0..self.shard_count())
                .map(|_| ResultCache::new(per_shard_capacity))
                .collect(),
        );
        self
    }

    /// The unsharded parent framework (the oracle the sharded results
    /// are byte-identical to).
    pub fn parent(&self) -> &Arc<Flix> {
        &self.parent
    }

    /// The shard plan in effect.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }

    /// Shard owning a global node (its start-element route). A node that
    /// is not an element of the collection routes to shard 0, where its
    /// evaluation reaches nothing.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        let located = self.parent.catalogue().resolve(node);
        located.map_or(0, |(meta, _)| self.plan.shard_of_meta(meta))
    }

    /// Whether the plan proves that an evaluation along `axis` starting
    /// at `start` cannot leave the start's shard: either the start meta
    /// is shard-closed for the axis, or the query's `max_distance` is too
    /// small to pay for the link traversals that reach the boundary. (A
    /// start outside the collection reaches nothing at all.)
    fn proven_local(&self, start: NodeId, opts: &QueryOptions, axis: Axis) -> bool {
        let Some((meta, _)) = self.parent.catalogue().resolve(start) else {
            return true;
        };
        let hops = match axis {
            Axis::Descendants => self.plan.boundary_hops_out[meta as usize],
            Axis::Ancestors => self.plan.boundary_hops_in[meta as usize],
        };
        hops == u32::MAX || opts.max_distance.is_some_and(|limit| limit < hops)
    }

    /// The distance-ordered cross-shard merge: evaluate on the parent
    /// framework, which holds every shard (module docs).
    /// With a journal, the merge pass is bracketed by
    /// `eval_start`/`eval_end` events under the [`SHARD_MERGE`] sentinel.
    fn fanout_outcome(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> QueryOutcome {
        ctx.event(EventKind::EvalStart { shard: SHARD_MERGE });
        // The parent resolves every element: the merge cannot escape.
        let (outcome, _) = never(collect(&*self.parent, query, ctx));
        ctx.event(EventKind::EvalEnd {
            results: outcome.results.len() as u64,
        });
        outcome
    }

    /// The routed evaluation. A tag start or a connection test has no home
    /// shard and goes to the merge without a routing count. An uncapped tag
    /// query whose start can reach the shard boundary goes there as a
    /// fan-out (the local attempt would be futile). Everything else runs
    /// *optimistically* inside the
    /// start element's shard — capped queries usually exhaust their budget
    /// before chasing a cross-shard link, and when the plan can prove
    /// shard-locality ([`Self::proven_local`]) the attempt is guaranteed to
    /// complete. An attempt that does pop a foreign node *escapes* and
    /// re-runs over the merge. Byte-identical to the parent in every case
    /// (module docs). The routing verdict
    /// (`route_direct`/`route_fanout`/`route_escaped`) and the evaluator
    /// pass boundaries are journaled when `ctx` carries a handle.
    fn routed(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> QueryOutcome {
        let (Start::Node(start), Goal::Tag(_)) = (query.from, query.to) else {
            return self.fanout_outcome(query, ctx);
        };
        let (axis, opts) = (query.axis, &query.opts);
        let s = self.shard_of(start) as usize;
        let shard = s as u64;
        // An uncapped query (no result cap, no distance bound) walks its
        // whole reachable component, so when the boundary is reachable at
        // all the local attempt is futile: go straight to the merge.
        let uncapped = opts.max_results.is_none() && opts.max_distance.is_none();
        if uncapped && !self.proven_local(start, opts, axis) {
            self.cells[s].fanout.inc();
            ctx.event(EventKind::RouteFanout { shard });
            return self.fanout_outcome(query, ctx);
        }
        ctx.event(EventKind::EvalStart { shard });
        let space = ShardSpace {
            parent: &self.parent,
            plan: &self.plan,
            shard: s as u32,
        };
        let (outcome, escaped) = never(collect(&space, query, ctx));
        if !escaped {
            self.cells[s].direct.inc();
            ctx.event(EventKind::EvalEnd {
                results: outcome.results.len() as u64,
            });
            ctx.event(EventKind::RouteDirect { shard });
            return outcome;
        }
        // Nothing emitted by the aborted local attempt is kept; the
        // fan-out re-run starts clean. A deadline in `opts` is a running
        // stopwatch (`Deadline` is `Copy`), so the re-run spends only the
        // remaining budget — the wasted attempt costs latency, never
        // correctness.
        self.cells[s].escaped.inc();
        ctx.event(EventKind::EvalEnd { results: 0 });
        ctx.event(EventKind::RouteEscaped { shard });
        self.fanout_outcome(query, ctx)
    }

    /// `a//B` with outcome, routed through the shards (never through the
    /// caches). Byte-identical to [`Flix::find_descendants_outcome`] on
    /// the parent.
    pub fn find_descendants_outcome(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> QueryOutcome {
        let query = Query::descendants(start, target, *opts);
        self.routed(&query, &mut QueryCtx::default())
    }

    /// `a//B`: the results and the `timed_out` marker of
    /// [`QueryBackend::evaluate`], observing nothing.
    pub fn find_descendants_deadline(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> (Arc<Vec<QueryResult>>, bool) {
        let query = Query::descendants(start, target, *opts);
        let answer = self.evaluate(&query, &mut QueryCtx::default());
        (answer.results, answer.timed_out)
    }

    /// Point-in-time routing statistics.
    pub fn stats(&self) -> ShardedStats {
        let per_shard: Vec<ShardStats> = self
            .cells
            .iter()
            .enumerate()
            .map(|(s, cell)| ShardStats {
                metas: self.plan.members[s].len(),
                nodes: self.plan.members[s]
                    .iter()
                    .map(|&mi| self.parent.meta(mi).len())
                    .sum(),
                direct: cell.direct.get(),
                fanout: cell.fanout.get(),
                escaped: cell.escaped.get(),
            })
            .collect();
        ShardedStats {
            direct: per_shard.iter().map(|s| s.direct).sum(),
            fanout: per_shard.iter().map(|s| s.fanout).sum(),
            escaped: per_shard.iter().map(|s| s.escaped).sum(),
            per_shard,
        }
    }

    /// Aggregate cache counters across all shard caches, if caching is
    /// enabled.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        let caches = self.caches.as_ref()?;
        let mut total = CacheStats::default();
        for c in caches {
            let s = c.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.admitted += s.admitted;
            total.rejected += s.rejected;
        }
        Some(total)
    }
}

impl QueryBackend for ShardedFlix {
    /// With caches enabled the owning shard's cache is consulted first and
    /// complete answers are stored uncapped (partial answers never are).
    fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Answer {
        let Some(caches) = &self.caches else {
            return self.routed(query, ctx).into();
        };
        let shard = match query.from {
            Start::Node(start) => self.shard_of(start),
            Start::Tag(_) => 0,
        };
        caches[shard as usize].get_or_evaluate(query, u64::from(shard), ctx, |query, ctx| {
            self.routed(query, ctx)
        })
    }

    fn framework(self: Arc<Self>) -> Arc<Flix> {
        Arc::clone(&self.parent)
    }

    /// Re-shards `rebuilt` to the same shard count and per-shard cache
    /// capacity.
    fn over(self: Arc<Self>, rebuilt: Arc<Flix>) -> Arc<dyn QueryBackend> {
        let next = ShardedFlix::new(rebuilt, self.shard_count());
        Arc::new(match &self.caches {
            // every plan has at least one shard, so at least one cache
            Some(caches) => next.with_caches(caches[0].capacity()),
            None => next,
        })
    }
}

impl std::fmt::Debug for ShardedFlix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFlix")
            .field("shards", &self.shard_count())
            .field("cached", &self.caches.is_some())
            .finish()
    }
}

/// One shard of a framework as an evaluation space: the parent's meta
/// documents and catalogue, filtered to the metas the plan gives `shard`
/// and renumbered to their position in the shard's member list. A node of
/// another shard does not resolve — the evaluator reports it as an escape.
struct ShardSpace<'a> {
    parent: &'a Flix,
    plan: &'a ShardPlan,
    shard: u32,
}

impl MetaSpace for ShardSpace<'_> {
    type Meta<'a>
        = &'a MetaDocument
    where
        Self: 'a;
    type Error = Infallible;

    fn catalogue(&self) -> &Catalogue {
        self.parent.catalogue()
    }

    fn meta_count(&self) -> usize {
        self.plan.members[self.shard as usize].len()
    }

    fn resolve(&self, node: NodeId) -> Option<(u32, u32)> {
        let (meta, local) = self.catalogue().resolve(node)?;
        let owned = self.plan.shard_of_meta[meta as usize] == self.shard;
        owned.then(|| (self.plan.local_meta[meta as usize], local))
    }

    fn meta(&self, id: u32) -> Result<&MetaDocument, Infallible> {
        let parent_id = self.plan.members[self.shard as usize][id as usize];
        Ok(self.parent.meta(parent_id))
    }

    /// The parent's list: a seed of another shard escapes when it pops.
    fn nodes_with_tag(&self, tag: TagId) -> Result<&[NodeId], Infallible> {
        self.parent.nodes_with_tag(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlixConfig;
    use xmlgraph::{Collection, CollectionGraph, Document, LinkTarget};

    /// A chain of linked documents plus one isolated one: guarantees
    /// cross-meta links under `Naive`, so small shard counts split them.
    fn chain(docs: usize) -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let a = c.tags.intern("a");
        let b = c.tags.intern("b");
        for d in 0..docs {
            let mut doc = Document::new(format!("d{d}.xml"));
            let root = doc.add_element(a, None);
            let kid = doc.add_element(b, Some(root));
            doc.add_element(b, Some(kid));
            if d + 1 < docs {
                doc.add_link(
                    kid,
                    LinkTarget {
                        document: Some(format!("d{}.xml", d + 1)),
                        fragment: None,
                    },
                );
            }
            c.add_document(doc).unwrap();
        }
        let mut lone = Document::new("lone.xml");
        let r = lone.add_element(a, None);
        lone.add_element(b, Some(r));
        c.add_document(lone).unwrap();
        Arc::new(c.seal())
    }

    /// `start // t`, routed through the shards.
    fn find(
        sharded: &ShardedFlix,
        start: NodeId,
        t: TagId,
        opts: &QueryOptions,
    ) -> Vec<QueryResult> {
        sharded.find_descendants_outcome(start, t, opts).results
    }

    fn tags(cg: &CollectionGraph) -> (TagId, TagId) {
        (
            cg.collection.tags.get("a").unwrap(),
            cg.collection.tags.get("b").unwrap(),
        )
    }

    #[test]
    fn plan_covers_every_meta_exactly_once() {
        let cg = chain(6);
        let flix = Arc::new(Flix::build(cg, FlixConfig::Naive));
        for shards in [1, 2, 3, 7, 64] {
            let plan = ShardPlan::new(&flix, shards);
            assert!(plan.shard_count() >= 1);
            assert!(plan.shard_count() <= shards.min(flix.meta_count()));
            let mut seen = vec![false; flix.meta_count()];
            for s in 0..plan.shard_count() {
                for &mi in plan.members(s) {
                    assert_eq!(plan.shard_of_meta(mi), s as u32);
                    assert!(!seen[mi as usize], "meta {mi} in two shards");
                    seen[mi as usize] = true;
                }
            }
            assert!(seen.iter().all(|&x| x), "every meta is owned");
        }
    }

    #[test]
    fn sharded_results_match_oracle_for_every_start() {
        let cg = chain(6);
        let (a, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        // The routes the plan takes for this corpus, per shard count.
        let routes = [
            (1, 200, 0, 0),
            (2, 137, 54, 9),
            (3, 111, 72, 17),
            (7, 70, 90, 40),
        ];
        for (shards, direct, fanout, escaped) in routes {
            let sharded = ShardedFlix::new(Arc::clone(&flix), shards);
            for start in 0..cg.node_count() as NodeId {
                for (target, opts) in [
                    (b, QueryOptions::default()),
                    (a, QueryOptions::default()),
                    (b, QueryOptions::top_k(2)),
                    (b, QueryOptions::within(2)),
                    (b, QueryOptions::exact()),
                ] {
                    let case = format!("shards={shards} start={start} {opts:?}");
                    let want = flix.find_descendants_outcome(start, target, &opts);
                    let got = sharded.find_descendants_outcome(start, target, &opts);
                    assert_eq!(got.results, want.results, "{case}");
                    assert_eq!(got.stats, want.stats, "{case}");
                    let mut ctx = QueryCtx::default();
                    let query = Query::ancestors(start, a, opts);
                    let want = flix.evaluate(&query, &mut ctx);
                    let got = sharded.evaluate(&query, &mut ctx);
                    assert_eq!(*got.results, want.results, "ancestors {case}");
                    assert_eq!(got.stats, Some(want.stats), "ancestors {case}");
                }
            }
            let stats = sharded.stats();
            assert_eq!(
                (stats.direct, stats.fanout, stats.escaped),
                (direct, fanout, escaped),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn start_outside_the_collection_answers_empty() {
        let cg = chain(6);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let beyond = cg.node_count() as NodeId + 5;
        for sharded in [
            ShardedFlix::new(Arc::clone(&flix), 3),
            ShardedFlix::new(Arc::clone(&flix), 3).with_caches(8),
        ] {
            assert_eq!(sharded.shard_of(beyond), 0);
            for axis in [Axis::Descendants, Axis::Ancestors] {
                for opts in [QueryOptions::default(), QueryOptions::top_k(2)] {
                    let query = Query {
                        axis,
                        ..Query::descendants(beyond, b, opts)
                    };
                    let got = sharded.evaluate(&query, &mut QueryCtx::default());
                    assert!(got.results.is_empty() && !got.timed_out, "{axis:?}");
                }
            }
        }
    }

    #[test]
    fn chain_queries_fan_out_and_lone_document_stays_direct() {
        let cg = chain(6);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        // Per-document shards: every cross-doc link is cross-shard.
        let sharded = ShardedFlix::new(Arc::clone(&flix), flix.meta_count());
        let chain_root = cg.doc_root(0);
        find(&sharded, chain_root, b, &QueryOptions::default());
        let stats = sharded.stats();
        assert_eq!(
            stats.fanout, 1,
            "uncapped chain query routes to the cross-shard merge"
        );
        let lone_root = cg.doc_root(6);
        find(&sharded, lone_root, b, &QueryOptions::default());
        let stats = sharded.stats();
        assert_eq!(stats.direct, 1, "lone document answers shard-locally");
        assert_eq!(stats.escaped, 0, "proven routing never escapes");
        assert_eq!(
            stats.per_shard.iter().map(|s| s.metas).sum::<usize>(),
            flix.meta_count()
        );
    }

    #[test]
    fn boundary_hops_prove_distance_bounded_queries_local() {
        let cg = chain(6);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let sharded = ShardedFlix::new(Arc::clone(&flix), 3);
        for d in 0..7 {
            let start = cg.doc_root(d);
            let meta = flix.meta_of(start);
            let hops = sharded.plan().boundary_hops_out(meta);
            if hops == u32::MAX {
                // Shard-closed: even an unbounded query stays direct.
                let before = sharded.stats().direct;
                let got = find(&sharded, start, b, &QueryOptions::default());
                assert_eq!(
                    got,
                    flix.find_descendants(start, b, &QueryOptions::default())
                );
                assert_eq!(sharded.stats().direct, before + 1);
            } else {
                // A horizon below the boundary budget is proven local...
                if hops > 1 {
                    let opts = QueryOptions::within(hops - 1);
                    let before = sharded.stats().direct;
                    let got = find(&sharded, start, b, &opts);
                    assert_eq!(got, flix.find_descendants(start, b, &opts));
                    assert_eq!(sharded.stats().direct, before + 1, "doc {d}");
                }
                // ...and an uncapped one routes to the fan-out merge.
                let before = sharded.stats().fanout;
                let got = find(&sharded, start, b, &QueryOptions::default());
                assert_eq!(
                    got,
                    flix.find_descendants(start, b, &QueryOptions::default())
                );
                assert_eq!(sharded.stats().fanout, before + 1, "doc {d}");
            }
        }
        assert_eq!(sharded.stats().escaped, 0, "proven attempts never escape");
    }

    #[test]
    fn runtime_escape_fallback_still_matches_the_oracle() {
        let cg = chain(6);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        // Per-document shards: a top-k query that wants more results than
        // the start's own document holds runs optimistically, pops the
        // foreign link target, and exercises the escape fallback.
        let sharded = ShardedFlix::new(Arc::clone(&flix), flix.meta_count());
        let opts = QueryOptions::top_k(10);
        let got = find(&sharded, cg.doc_root(0), b, &opts);
        assert_eq!(got, flix.find_descendants(cg.doc_root(0), b, &opts));
        let stats = sharded.stats();
        assert_eq!(stats.escaped, 1, "the capped chain query escapes");
        assert_eq!(stats.fanout, 0);
    }

    #[test]
    fn per_shard_caches_hit_and_match_oracle() {
        let cg = chain(5);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let sharded = ShardedFlix::new(Arc::clone(&flix), 3).with_caches(8);
        let start = cg.doc_root(0);
        let opts = QueryOptions::top_k(10);
        let (first, timed_out) = sharded.find_descendants_deadline(start, b, &opts);
        assert!(!timed_out);
        assert_eq!(*first, flix.find_descendants(start, b, &opts));
        // Same key again: a hit, served from the owning shard's cache.
        let (again, _) = sharded.find_descendants_deadline(start, b, &opts);
        assert_eq!(*again, *first);
        let cs = sharded.cache_stats().unwrap();
        assert_eq!((cs.hits, cs.misses), (1, 1));
        // A smaller k is also a hit (uncapped storage, clipped serve).
        let (five, _) = sharded.find_descendants_deadline(start, b, &QueryOptions::top_k(5));
        assert_eq!(
            *five,
            flix.find_descendants(start, b, &QueryOptions::top_k(5))
        );
        assert_eq!(sharded.cache_stats().unwrap().hits, 2);
    }

    #[test]
    fn timed_out_prefix_is_oracle_prefix_and_not_cached() {
        use flixobs::Deadline;
        let cg = chain(5);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let sharded = ShardedFlix::new(Arc::clone(&flix), 3).with_caches(8);
        let start = cg.doc_root(0);
        let opts = QueryOptions::default().with_deadline(Deadline::within_micros(0));
        let (partial, timed_out) = sharded.find_descendants_deadline(start, b, &opts);
        assert!(timed_out);
        let full = flix.find_descendants(start, b, &QueryOptions::default());
        assert_eq!(*partial, full[..partial.len()], "prefix of the oracle");
        let cs = sharded.cache_stats().unwrap();
        assert_eq!(cs.hits + cs.misses, 1);
        // The partial answer must not have been cached: re-query misses.
        let generous = QueryOptions::default();
        let (complete, timed_out) = sharded.find_descendants_deadline(start, b, &generous);
        assert!(!timed_out);
        assert_eq!(*complete, full);
        assert_eq!(sharded.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn stats_count_each_query_once_on_the_shard_that_routed_it() {
        let cg = chain(4);
        let (_, b) = tags(&cg);
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let sharded = ShardedFlix::new(Arc::clone(&flix), 2);
        find(&sharded, cg.doc_root(0), b, &QueryOptions::top_k(1));
        let s = sharded.stats();
        assert_eq!(s.per_shard.len(), sharded.shard_count());
        let per_shard: u64 = s
            .per_shard
            .iter()
            .map(|c| c.direct + c.fanout + c.escaped)
            .sum();
        assert_eq!(per_shard, s.direct + s.fanout + s.escaped);
        assert_eq!(per_shard, 1);
    }
}
