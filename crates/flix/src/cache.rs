//! Result caching for frequent (sub-)queries — the paper's §7 sketch
//! "caching results of frequent (sub-)queries".
//!
//! [`ResultCache`] is an LRU cache keyed on the query semantics — `(from,
//! to, axis, max_distance, include_start, exact_order)` of a [`Query`], so
//! every mode on both axes is cached — whose single entry point,
//! `ResultCache::get_or_evaluate`, owns the whole
//! lookup → evaluate-uncapped → admit sequence; [`CachedFlix`] pairs one
//! with a framework slot, and [`crate::shard::ShardedFlix`] holds one per
//! shard.
//! `max_results` is deliberately *not* part of the key: evaluation with a
//! result cap returns a prefix of the unrestricted run (results stream in
//! block order), so the cache stores the full result vector once and serves
//! any `k` by slicing. Cached vectors are shared (`Arc`), so repeated hot
//! queries cost one map lookup and at worst one prefix copy.
//!
//! A generation counter guards correctness across rebuilds: [`CachedFlix::
//! attach`] swaps in a new framework and bumps the generation, and every
//! lookup rejects entries from older generations, so a rebuilt framework
//! can never serve answers computed over the old one.
//! The cache is latch-protected and safe to share across the client threads
//! of the paper's multithreaded architecture.

use crate::backend::{Answer, QueryBackend};
use crate::framework::Flix;
use crate::pee::{Axis, Goal, Query, QueryCtx, QueryOptions, QueryOutcome, QueryResult, Start};
use flixobs::journal::{EventKind, SHARD_NONE};
use flixobs::Counter;
use graphcore::{Distance, NodeId};
use pagestore::Lru;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xmlgraph::TagId;

/// Everything of a [`Query`] that determines its answer: `(from, to, axis,
/// max_distance, include_start, exact_order)`. `max_results` is left out —
/// it selects a prefix of the same answer — and so is the deadline.
type Key = (Start, Goal, Axis, Option<Distance>, bool, bool);

fn key(q: &Query) -> Key {
    let o = &q.opts;
    (
        q.from,
        q.to,
        q.axis,
        o.max_distance,
        o.include_start,
        o.exact_order,
    )
}

const SKETCH_ROWS: usize = 4;
/// Counters saturate at 15 (4-bit TinyLFU counters); periodic halving keeps
/// the sketch adaptive to shifting popularity.
const SKETCH_CAP: u8 = 15;

/// A TinyLFU-style frequency sketch: a small count-min sketch with
/// saturating counters and periodic halving, estimating per-key access
/// frequency in constant space. The admission gate compares a cache-miss
/// candidate's estimate against the LRU victim's, so a sweep of one-off
/// queries cannot flush entries that are actually hot.
struct FrequencySketch {
    rows: [Vec<u8>; SKETCH_ROWS],
    mask: usize,
    additions: u64,
    sample_limit: u64,
}

impl FrequencySketch {
    fn new(capacity: usize) -> Self {
        // Width ~4x the cache capacity keeps collision noise low while the
        // whole sketch stays a few cache lines for small capacities. The
        // floor keeps a tiny cache's sketch from saturating: at capacity 2
        // an 8-counter row is full after a handful of one-off keys, and
        // whether a hot key still outranks them depends on its hash.
        let width = (capacity.max(16) * 4).next_power_of_two();
        Self {
            rows: std::array::from_fn(|_| vec![0u8; width]),
            mask: width - 1,
            additions: 0,
            sample_limit: capacity.max(1) as u64 * 16,
        }
    }

    /// The key's counter in each row: the key is hashed once, and each
    /// row's index is a hash of that and the row.
    fn slots(&self, key: &Key) -> [usize; SKETCH_ROWS] {
        let sip = BuildHasherDefault::<DefaultHasher>::default();
        let hashed = sip.hash_one(key);
        std::array::from_fn(|row| sip.hash_one((row, hashed)) as usize & self.mask)
    }

    fn record(&mut self, key: &Key) {
        let slots = self.slots(key);
        for (row, slot) in self.rows.iter_mut().zip(slots) {
            let c = &mut row[slot];
            if *c < SKETCH_CAP {
                *c += 1;
            }
        }
        self.additions += 1;
        if self.additions >= self.sample_limit {
            self.halve();
        }
    }

    fn estimate(&self, key: &Key) -> u8 {
        let slots = self.rows.iter().zip(self.slots(key));
        slots.map(|(row, slot)| row[slot]).min().unwrap_or(0)
    }

    fn halve(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.additions = 0;
    }
}

struct Entry {
    /// Full (uncapped) result vector for the keyed query.
    results: Arc<Vec<QueryResult>>,
    /// Framework generation the results were computed under.
    generation: u64,
}

struct CacheInner {
    entries: Lru<Key, Entry>,
    sketch: FrequencySketch,
}

/// An LRU descendants-result cache with TinyLFU admission and a generation
/// counter that invalidates everything computed before the last
/// [`CachedFlix::attach`].
pub struct ResultCache {
    generation: AtomicU64,
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    admitted: Counter,
    rejected: Counter,
}

/// Point-in-time cache counters: how lookups resolved and why entries
/// left the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to evaluate the query.
    pub misses: u64,
    /// Entries displaced by LRU pressure at capacity.
    pub evictions: u64,
    /// Entries dropped on lookup because they were computed under an
    /// older framework generation (see [`CachedFlix::attach`]).
    pub invalidations: u64,
    /// At-capacity insertions the TinyLFU gate admitted (displacing the
    /// LRU victim). Free-slot insertions need no admission decision and
    /// count in neither bucket.
    pub admitted: u64,
    /// At-capacity insertions the TinyLFU gate rejected because the LRU
    /// victim was estimated more frequent than the candidate.
    pub rejected: u64,
}

/// Serves `opts.max_results` from the full cached vector: a capped run
/// returns exactly the first `k` results of the uncapped one.
fn clip(full: Arc<Vec<QueryResult>>, max_results: Option<usize>) -> Arc<Vec<QueryResult>> {
    match max_results {
        Some(k) if k < full.len() => Arc::new(full[..k].to_vec()),
        _ => full,
    }
}

impl ResultCache {
    /// A cache of at most `capacity` query results.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            generation: AtomicU64::new(0),
            capacity,
            inner: Mutex::new(CacheInner {
                entries: Lru::new(capacity),
                sketch: FrequencySketch::new(capacity),
            }),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            invalidations: Counter::new(),
            admitted: Counter::new(),
            rejected: Counter::new(),
        }
    }

    /// The cache's entry capacity (fixed at construction).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current framework generation (bumped by [`CachedFlix::attach`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The cached `query`: a hit serves the complete stored answer clipped
    /// to its `max_results` (`stats: None` — no evaluator ran). A miss
    /// calls `evaluate` with the query minus the result cap, so one entry
    /// serves every `max_results`, and stores the answer subject
    /// to the TinyLFU gate — unless the deadline cut it: a partial answer
    /// is returned with `timed_out` but never cached, or it would be
    /// served as complete later. The verdict and the admission outcome
    /// are journaled with `shard_tag` as payload when `ctx` carries a
    /// handle.
    pub(crate) fn get_or_evaluate(
        &self,
        query: &Query,
        shard_tag: u64,
        ctx: &mut QueryCtx<'_>,
        evaluate: impl FnOnce(&Query, &mut QueryCtx<'_>) -> QueryOutcome,
    ) -> Answer {
        // Capture the generation before `evaluate` reads the framework: if
        // an `attach` lands in between, the fresh results are tagged with
        // the older generation and correctly discarded on the next lookup —
        // never old-framework results under the new generation.
        let generation = self.generation();
        let key = key(query);
        let max_results = query.opts.max_results;
        {
            let mut inner = self.inner.lock();
            // Every lookup feeds the admission sketch, hits included: the
            // gate needs to know which keys are actually popular.
            inner.sketch.record(&key);
            match inner.entries.get(&key) {
                Some(entry) if entry.generation == generation => {
                    self.hits.inc();
                    ctx.event(EventKind::CacheHit { shard: shard_tag });
                    return Answer {
                        results: clip(Arc::clone(&entry.results), max_results),
                        timed_out: false,
                        stats: None,
                    };
                }
                Some(_) => {
                    // Computed under an older framework: never serve it.
                    inner.entries.remove(&key);
                    self.invalidations.inc();
                }
                None => {}
            }
        }
        self.misses.inc();
        ctx.event(EventKind::CacheMiss { shard: shard_tag });
        let uncapped = Query {
            opts: QueryOptions {
                max_results: None,
                ..query.opts
            },
            ..*query
        };
        let outcome = evaluate(&uncapped, ctx);
        let fresh = Arc::new(outcome.results);
        let answer = Answer {
            results: clip(Arc::clone(&fresh), max_results),
            timed_out: outcome.timed_out,
            stats: Some(outcome.stats),
        };
        if outcome.timed_out {
            return answer;
        }
        let mut inner = self.inner.lock();
        if let Some(victim) = inner.entries.victim_for(&key) {
            // TinyLFU admission (ties go to the newcomer, so a cold cache
            // still fills and recency breaks frequency ties).
            if inner.sketch.estimate(&key) < inner.sketch.estimate(&victim) {
                self.rejected.inc();
                ctx.event(EventKind::CacheReject);
                return answer;
            }
            // The slot is freed here, so the insert below scans for no victim.
            inner.entries.remove(&victim);
            self.evictions.inc();
            self.admitted.inc();
            ctx.event(EventKind::CacheEvict);
            ctx.event(EventKind::CacheAdmit);
        }
        let entry = Entry {
            results: fresh,
            generation,
        };
        inner.entries.insert(key, entry);
        answer
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// All cache counters, including why entries left the cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
        }
    }

    /// Number of cached queries.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A FliX framework behind a [`ResultCache`] (whose counters and
/// inspection methods it derefs to) that survives framework rebuilds (see
/// [`CachedFlix::attach`]). Every query goes through the cache.
pub struct CachedFlix {
    flix: Mutex<Arc<Flix>>,
    cache: ResultCache,
}

impl std::ops::Deref for CachedFlix {
    type Target = ResultCache;

    fn deref(&self) -> &ResultCache {
        &self.cache
    }
}

impl CachedFlix {
    /// Wraps `flix` with a cache of at most `capacity` query results.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(flix: Arc<Flix>, capacity: usize) -> Self {
        Self {
            flix: Mutex::new(flix),
            cache: ResultCache::new(capacity),
        }
    }

    /// The currently attached framework.
    pub fn framework(&self) -> Arc<Flix> {
        Arc::clone(&self.flix.lock())
    }

    /// Swaps in a rebuilt framework. All entries cached for the previous
    /// framework become unservable immediately: the generation bump
    /// outlives them, and lookups drop stale-generation entries.
    pub fn attach(&self, flix: Arc<Flix>) {
        // Order matters: swap the framework first, then bump. A racing
        // query can then at worst insert results from the *old* framework
        // under the *old* generation — already unservable — never results
        // from the old framework under the new generation.
        *self.flix.lock() = flix;
        self.cache.generation.fetch_add(1, Ordering::Release);
    }

    /// Cached `a//B`: the results and the `timed_out` marker of
    /// [`QueryBackend::evaluate`], observing nothing.
    pub fn find_descendants_deadline(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> (Arc<Vec<QueryResult>>, bool) {
        let query = Query::descendants(start, target, *opts);
        let answer = QueryBackend::evaluate(self, &query, &mut QueryCtx::default());
        (answer.results, answer.timed_out)
    }
}

impl QueryBackend for CachedFlix {
    fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Answer {
        self.cache
            .get_or_evaluate(query, SHARD_NONE, ctx, |query, ctx| {
                self.framework().evaluate(query, ctx)
            })
    }

    fn framework(self: Arc<Self>) -> Arc<Flix> {
        CachedFlix::framework(&self)
    }

    /// The same cache object, re-attached: hit/miss history survives and
    /// stale entries fall to the generation check.
    fn over(self: Arc<Self>, rebuilt: Arc<Flix>) -> Arc<dyn QueryBackend> {
        self.attach(rebuilt);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BuildOptions, FlixConfig};
    use xmlgraph::{Collection, CollectionGraph, Document, LinkTarget};

    /// `a.xml`, whose second element links `b.xml`, then `more`: every
    /// element tagged `t`, the first tag interned.
    fn small_graph(more: Vec<Document>) -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let t = c.tags.intern("t");
        let mut d0 = Document::new("a.xml");
        let r = d0.add_element(t, None);
        let k = d0.add_element(t, Some(r));
        d0.add_link(
            k,
            LinkTarget {
                document: Some("b.xml".into()),
                fragment: None,
            },
        );
        let mut d1 = Document::new("b.xml");
        d1.add_element(t, None);
        c.add_document(d0).unwrap();
        c.add_document(d1).unwrap();
        for d in more {
            c.add_document(d).unwrap();
        }
        Arc::new(c.seal())
    }

    fn small() -> (Arc<Flix>, TagId) {
        let cg = small_graph(Vec::new());
        let t = cg.collection.tags.get("t").unwrap();
        (Arc::new(Flix::build(cg, FlixConfig::Naive)), t)
    }

    /// `start // t` through the cache.
    fn find(
        cached: &CachedFlix,
        start: NodeId,
        t: TagId,
        opts: &QueryOptions,
    ) -> Arc<Vec<QueryResult>> {
        let query = Query::descendants(start, t, *opts);
        cached.evaluate(&query, &mut QueryCtx::default()).results
    }

    #[test]
    fn repeat_query_hits_cache_with_same_answer() {
        let (flix, t) = small();
        let cached = CachedFlix::new(flix.clone(), 8);
        let a = find(&cached, 0, t, &QueryOptions::default());
        let b = find(&cached, 0, t, &QueryOptions::default());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cached.stats(), (1, 1));
        assert_eq!(*a, flix.find_descendants(0, t, &QueryOptions::default()));
    }

    #[test]
    fn start_outside_the_collection_answers_empty() {
        let (flix, t) = small();
        let beyond = flix.collection().node_count() as NodeId + 5;
        let cached = CachedFlix::new(flix, 8);
        for axis in [Axis::Descendants, Axis::Ancestors] {
            let query = Query {
                axis,
                ..Query::descendants(beyond, t, QueryOptions::default())
            };
            let got = cached.evaluate(&query, &mut QueryCtx::default());
            assert!(got.results.is_empty() && !got.timed_out, "{axis:?}");
        }
    }

    #[test]
    fn different_options_are_different_entries() {
        let (flix, t) = small();
        let cached = CachedFlix::new(flix, 8);
        find(&cached, 0, t, &QueryOptions::default());
        find(&cached, 0, t, &QueryOptions::within(1));
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.stats(), (0, 2));
    }

    #[test]
    fn max_results_shares_one_entry() {
        let (flix, t) = small();
        let cached = CachedFlix::new(flix.clone(), 8);
        let ten = find(&cached, 0, t, &QueryOptions::top_k(10));
        // A smaller k on the same query must be a HIT, served by slicing.
        let five = find(&cached, 0, t, &QueryOptions::top_k(5));
        assert_eq!(cached.len(), 1, "one entry serves every k");
        assert_eq!(cached.stats(), (1, 1));
        assert_eq!(
            *ten,
            flix.find_descendants(0, t, &QueryOptions::top_k(10)),
            "cached k=10 answers match the uncached evaluation"
        );
        assert_eq!(
            *five,
            flix.find_descendants(0, t, &QueryOptions::top_k(5)),
            "sliced k=5 answers match the uncached evaluation"
        );
        // And the unrestricted query is also served from the same entry.
        let all = find(&cached, 0, t, &QueryOptions::default());
        assert_eq!(cached.stats(), (2, 1));
        assert_eq!(*all, flix.find_descendants(0, t, &QueryOptions::default()));
    }

    #[test]
    fn attach_invalidates_stale_answers() {
        let (flix, t) = small();
        let cached = CachedFlix::new(flix, 8);
        let before = find(&cached, 0, t, &QueryOptions::default());
        assert_eq!(before.len(), 2, "own child plus the linked root");

        // Rebuild over a grown collection: same query, more answers.
        let grown = {
            let mut d = Document::new("c.xml");
            d.add_element(t, None);
            let mut linked = Document::new("b2.xml");
            let r = linked.add_element(t, None);
            linked.add_element(t, Some(r));
            small_graph(vec![d, linked])
        };
        let rebuilt = Arc::new(Flix::build_with(
            grown,
            FlixConfig::Naive,
            &BuildOptions::default(),
        ));
        let gen_before = cached.generation();
        cached.attach(rebuilt.clone());
        assert_eq!(cached.generation(), gen_before + 1);

        // The old entry must NOT be served: the lookup sees the generation
        // mismatch, drops it, and re-evaluates on the new framework.
        let after = find(&cached, 0, t, &QueryOptions::default());
        assert_eq!(
            *after,
            rebuilt.find_descendants(0, t, &QueryOptions::default())
        );
        assert_eq!(cached.stats(), (0, 2), "post-attach lookup is a miss");
        // The stale entry is counted as a generation-mismatch invalidation,
        // distinct from LRU evictions.
        let s = cached.cache_stats();
        assert_eq!(s.invalidations, 1, "stale entry dropped on lookup");
        assert_eq!(s.evictions, 0, "no capacity pressure in this test");
        // ... and the re-cached entry serves hits again.
        find(&cached, 0, t, &QueryOptions::default());
        assert_eq!(cached.stats(), (1, 2));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let (flix, t) = small();
        let cached = CachedFlix::new(flix, 2);
        find(&cached, 0, t, &QueryOptions::default()); // A
        find(&cached, 1, t, &QueryOptions::default()); // B
        find(&cached, 0, t, &QueryOptions::default()); // touch A
        find(&cached, 2, t, &QueryOptions::default()); // evicts B
        assert_eq!(cached.len(), 2);
        assert_eq!(cached.cache_stats().evictions, 1, "B displaced by LRU");
        let (h0, _) = cached.stats();
        find(&cached, 0, t, &QueryOptions::default()); // A still hot
        assert_eq!(cached.stats().0, h0 + 1);
        find(&cached, 1, t, &QueryOptions::default()); // B gone: miss
        assert_eq!(cached.stats().1, 4);
        // Re-inserting B at capacity displaces another victim.
        let s = cached.cache_stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.invalidations, 0, "no generation changes in this test");
    }

    #[test]
    fn admission_gate_protects_hot_entries_from_one_off_scans() {
        let cg = {
            // A corpus with many elements so a scan has many distinct keys.
            let mut c = Collection::new();
            let t = c.tags.intern("t");
            let mut d = Document::new("big.xml");
            let r = d.add_element(t, None);
            for _ in 0..63 {
                d.add_element(t, Some(r));
            }
            c.add_document(d).unwrap();
            Arc::new(c.seal())
        };
        let t = cg.collection.tags.get("t").unwrap();
        let flix = Arc::new(Flix::build(cg, FlixConfig::Naive));
        let cached = CachedFlix::new(flix, 2);
        // Heat up two keys well past any scan key's frequency.
        for _ in 0..8 {
            find(&cached, 0, t, &QueryOptions::default());
            find(&cached, 1, t, &QueryOptions::default());
        }
        let hits_before = cached.cache_stats().hits;
        // One-off scan over fresh keys: each is seen once, the gate must
        // keep them out of the full cache.
        for start in 2..40 {
            find(&cached, start, t, &QueryOptions::default());
        }
        let s = cached.cache_stats();
        assert!(s.rejected > 0, "scan keys must be rejected: {s:?}");
        assert_eq!(s.evictions, 0, "hot entries survive the scan: {s:?}");
        // The hot keys still hit.
        find(&cached, 0, t, &QueryOptions::default());
        find(&cached, 1, t, &QueryOptions::default());
        assert_eq!(cached.cache_stats().hits, hits_before + 2);
    }

    #[test]
    fn timed_out_answers_are_returned_but_never_cached() {
        use flixobs::Deadline;
        let (flix, t) = small();
        let cached = CachedFlix::new(flix.clone(), 8);
        let opts = QueryOptions::default().with_deadline(Deadline::within_micros(0));
        let (partial, timed_out) = cached.find_descendants_deadline(0, t, &opts);
        assert!(timed_out);
        assert!(partial.is_empty(), "expired before the first pop");
        assert!(cached.is_empty(), "partial answers must not be cached");
        assert_eq!(cached.stats(), (0, 1));
        // The next lookup re-evaluates and, completing in time, caches.
        let generous = QueryOptions::default().with_deadline(Deadline::within_micros(60_000_000));
        let (full, timed_out) = cached.find_descendants_deadline(0, t, &generous);
        assert!(!timed_out);
        assert_eq!(*full, flix.find_descendants(0, t, &QueryOptions::default()));
        assert_eq!(cached.len(), 1);
        // A deadline hit serves the complete cached answer.
        let (again, timed_out) = cached.find_descendants_deadline(0, t, &generous);
        assert!(!timed_out);
        assert!(Arc::ptr_eq(&full, &again));
    }

    #[test]
    fn sketch_estimates_track_recorded_frequency() {
        let mut sketch = FrequencySketch::new(8);
        let hot = key(&Query::descendants(0, 1, QueryOptions::default()));
        let cold = key(&Query::descendants(9, 1, QueryOptions::default()));
        for _ in 0..10 {
            sketch.record(&hot);
        }
        sketch.record(&cold);
        assert!(sketch.estimate(&hot) > sketch.estimate(&cold));
        // Saturation: counters cap at SKETCH_CAP.
        for _ in 0..100 {
            sketch.record(&hot);
        }
        assert!(sketch.estimate(&hot) <= SKETCH_CAP);
        // Halving decays, preserving the ordering.
        sketch.halve();
        assert!(sketch.estimate(&hot) >= sketch.estimate(&cold));
    }
}
