//! Disk-resident query execution — the paper's actual deployment.
//!
//! The prototype in the paper keeps every index in database tables and
//! loads what a query needs per lookup; §6's absolute numbers are
//! dominated by exactly that I/O. [`DiskFlix`] reproduces the deployment:
//! the manifest (node→meta maps and the runtime-link table — the
//! "catalogue") stays in memory, while meta-document indexes live in a
//! [`pagestore::BlobStore`] and are loaded on demand into a bounded LRU
//! index cache. Every entry pop that misses the cache pays real page reads
//! through the buffer pool, so the experiment harness can report true I/O
//! counts instead of a cost model.

use crate::catalogue::Catalogue;
use crate::framework::Flix;
use crate::meta::MetaDocument;
use crate::pee::{collect, MetaSpace, Query, QueryCtx, QueryOptions, QueryOutcome, QueryResult};
use crate::persist;
use graphcore::NodeId;
use pagestore::{BlobStore, Lru};
use parking_lot::Mutex;
use std::sync::Arc;
use xmlgraph::TagId;

/// I/O-level counters of a [`DiskFlix`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskExecStats {
    /// Meta-document index loads served from the LRU cache.
    pub cache_hits: u64,
    /// Meta-document index loads that had to read the blob store.
    pub cache_misses: u64,
}

/// A query engine over indexes resident in a blob store: a
/// `MetaSpace` whose `meta` faults the index in, so the shared evaluator
/// loops run on it unchanged.
pub struct DiskFlix {
    store: BlobStore,
    name: String,
    catalogue: Catalogue,
    /// Each meta document's node map, as the manifest catalogues it: what
    /// a loaded image is completed with, since it holds none.
    node_maps: Vec<Vec<NodeId>>,
    cache: Mutex<Lru<u32, Arc<MetaDocument>>>,
    hits: flixobs::Counter,
    misses: flixobs::Counter,
}

impl DiskFlix {
    /// Persists `flix` into `store` under `name` ([`persist::save_flix`])
    /// and opens a disk-resident engine over it with an index cache of
    /// `cache_capacity` meta documents.
    pub fn save_and_open(
        flix: &Flix,
        mut store: BlobStore,
        name: &str,
        cache_capacity: usize,
    ) -> Result<Self, String> {
        persist::save_flix(flix, &mut store, name)?;
        Self::open(store, name, cache_capacity)
    }

    /// Opens a disk-resident engine over a framework saved with
    /// [`persist::save_flix`]. Only the manifest is read, and each meta
    /// document's node map grouped out of it; indexes are loaded on demand.
    ///
    /// # Errors
    /// If `cache_capacity` is zero — the index cache needs a slot for the
    /// index a pop reads — or if the manifest is missing, in another format
    /// than this build's, or stores a catalogue a lookup would index out of
    /// bounds on.
    pub fn open(store: BlobStore, name: &str, cache_capacity: usize) -> Result<Self, String> {
        if cache_capacity == 0 {
            return Err("an index cache of 0 slots holds no index: give it at least 1".into());
        }
        let (manifest, node_maps) = persist::load_manifest(&store, name)?;
        Ok(Self {
            store,
            name: name.to_string(),
            catalogue: manifest.into_catalogue(),
            node_maps,
            cache: Mutex::new(Lru::new(cache_capacity)),
            hits: flixobs::Counter::new(),
            misses: flixobs::Counter::new(),
        })
    }

    /// Loads (or fetches from cache) one meta document's index.
    ///
    /// A miss is a copy of the meta document's node map and
    /// [`persist::load_meta`]: one blob get, the format-word check, one
    /// decode, then completing the image — checks over the decoded arrays
    /// that build nothing, and HOPI's anchor flags set from its lists —
    /// then admitting the index and dropping the cache's victim. Measured
    /// in situ in the cold phase of flixbench's `rebuild` workload
    /// (HOPI-5000, 8 slots for 31 meta documents; a 2-vCPU Xeon at 2.1
    /// GHz), a miss reads a HOPI image — the descendants pair; the
    /// ancestors pair is derived only if a lookup asks for it — with the
    /// node-map copy 1.7–2.0 µs, get 11–15, decode 29–38 (the zero-filled
    /// allocation 8–10 of it, unpacking 18–26), the layout, count and list
    /// checks 6.7–8.5 and the flags 3.1–4.3. About 0.3 loads then derive
    /// `l_in` for §5.1's entry test, 51–61 µs each. The stand-alone probe
    /// behind `diskexec.load_us` times the same get and decode back to
    /// back and leaves the rest out.
    ///
    /// # Errors
    /// If the blob is missing from the store, fails to decode, or decodes
    /// to an index a lookup cannot trust ([`persist::load_meta`]) — each
    /// means the persisted framework is stale or corrupt.
    fn load_meta(&self, id: u32) -> Result<Arc<MetaDocument>, String> {
        if let Some(md) = self.cache.lock().get(&id).map(Arc::clone) {
            self.hits.inc();
            return Ok(md);
        }
        self.misses.inc();
        let nodes = (self.node_maps.get(id as usize))
            .ok_or_else(|| format!("no meta document {id} in the manifest"))?;
        let md = Arc::new(persist::load_meta(
            &self.store,
            &self.name,
            id as usize,
            nodes.clone(),
        )?);
        // If another thread loaded `id` since this one missed, its copy is
        // replaced and nothing evicted. Freeing an index is not work to do
        // under the guard, which is gone at the end of this statement.
        let left = self.cache.lock().insert(id, Arc::clone(&md));
        drop(left);
        Ok(md)
    }

    /// Cache counters.
    pub fn stats(&self) -> DiskExecStats {
        DiskExecStats {
            cache_hits: self.hits.get(),
            cache_misses: self.misses.get(),
        }
    }

    /// The collected entry point over disk-resident indexes — the same
    /// evaluation as [`Flix::evaluate`], every mode and option included,
    /// with each entry pop loading its meta document through the cache.
    ///
    /// # Errors
    /// If a meta-document blob is missing or corrupt, the query starts at a
    /// tag (the store keeps no tag lists), or a tag query's start is not an
    /// element of the stored collection. A failure mid-query discards the
    /// partial answer.
    pub fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Result<QueryOutcome, String> {
        match collect(self, query, ctx)? {
            (outcome, false) => Ok(outcome),
            (_, true) => Err(format!(
                "{:?} leads outside the stored collection",
                query.from
            )),
        }
    }

    /// `a//B` over disk-resident indexes.
    ///
    /// # Errors
    /// See [`Self::evaluate`].
    pub fn find_descendants(
        &self,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
    ) -> Result<Vec<QueryResult>, String> {
        let query = Query::descendants(start, target, *opts);
        Ok(self.evaluate(&query, &mut QueryCtx::default())?.results)
    }
}

impl MetaSpace for DiskFlix {
    type Meta<'a> = Arc<MetaDocument>;
    type Error = String;

    fn catalogue(&self) -> &Catalogue {
        &self.catalogue
    }

    fn meta_count(&self) -> usize {
        self.node_maps.len()
    }

    fn meta(&self, id: u32) -> Result<Arc<MetaDocument>, String> {
        self.load_meta(id)
    }

    fn nodes_with_tag(&self, tag: TagId) -> Result<&[NodeId], String> {
        Err(format!(
            "cannot start at tag {tag}: the store keeps no tag lists"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlixConfig, StrategyKind};
    use crate::pee::{Axis, Start};
    use flixobs::Deadline;
    use pagestore::{BufferPool, DiskManager, DiskStats, MemDisk, Page, PageId, PAGE_SIZE};
    use std::sync::atomic::{AtomicBool, Ordering};
    use workloads::{descendant_queries, generate_dblp, DblpConfig};

    fn graph() -> Arc<xmlgraph::CollectionGraph> {
        Arc::new(generate_dblp(&DblpConfig::tiny(33)).seal())
    }

    /// A store over a deliberately tiny pool, so blob reloads must touch
    /// the disk.
    fn store() -> (BlobStore, Arc<MemDisk>) {
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk.clone(), 4));
        (BlobStore::new(pool), disk)
    }

    /// The one-sided connection test `from // to` on disk.
    fn connect(
        dflix: &DiskFlix,
        from: NodeId,
        to: NodeId,
        opts: &QueryOptions,
    ) -> Result<QueryOutcome, String> {
        let query = Query::connection(from, to, false, *opts);
        dflix.evaluate(&query, &mut QueryCtx::default())
    }

    fn setup(config: FlixConfig, cache: usize) -> (Flix, DiskFlix, Arc<MemDisk>) {
        let flix = Flix::build(graph(), config);
        let (store, disk) = store();
        let dflix = DiskFlix::save_and_open(&flix, store, "fw", cache).unwrap();
        (flix, dflix, disk)
    }

    /// A query that crosses meta documents, and the last one it enters.
    fn crossing_query(flix: &Flix) -> (workloads::DescendantQuery, u32) {
        descendant_queries(flix.collection(), 40, 44)
            .into_iter()
            .find_map(|q| {
                let res = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
                let last = flix.meta_of(res.last()?.node);
                (last != flix.meta_of(q.start)).then_some((q, last))
            })
            .expect("some query leaves its start document")
    }

    /// The disk == memory oracle: same loop, same data, so results,
    /// termination marker and counters all agree — for every strategy,
    /// both axes, every option, and with a one-slot index cache.
    #[test]
    fn disk_answers_match_in_memory_byte_for_byte() {
        let cg = graph();
        for (config, cache) in [
            (FlixConfig::Naive, 16),
            (FlixConfig::Naive, 1),
            (FlixConfig::MaximalPpo, 16),
            (FlixConfig::UnconnectedHopi { partition_size: 40 }, 16),
            (FlixConfig::Monolithic(StrategyKind::Apex), 16),
        ] {
            let (flix, dflix, _) = setup(config, cache);
            for q in descendant_queries(&cg, 8, 44) {
                for axis in [Axis::Descendants, Axis::Ancestors] {
                    for opts in [
                        QueryOptions::default(),
                        QueryOptions::top_k(3),
                        QueryOptions::within(4),
                        QueryOptions::exact(),
                        QueryOptions::default().with_deadline(Deadline::within_micros(0)),
                    ] {
                        let mut ctx = QueryCtx::default();
                        let query = Query {
                            axis,
                            ..Query::descendants(q.start, q.target_tag, opts)
                        };
                        let mem = flix.evaluate(&query, &mut ctx);
                        let loads = |s: DiskExecStats| s.cache_hits + s.cache_misses;
                        let before = loads(dflix.stats());
                        let dsk = dflix.evaluate(&query, &mut ctx).unwrap();
                        let case = format!("{config} cache={cache} {axis:?} {opts:?}");
                        assert_eq!(mem.results, dsk.results, "{case}");
                        assert_eq!(mem.timed_out, dsk.timed_out, "{case}");
                        assert_eq!(mem.stats, dsk.stats, "{case}");
                        // Every queued entry — the seed and one per link —
                        // ends popped, subsumed or refused once the queue
                        // drains; a cap, a bound or a deadline leaves some
                        // queued. Only a heap pop asks for an index.
                        let stats = dsk.stats;
                        let heap_pops = stats.entries_popped + stats.entries_subsumed;
                        let (left, queued) =
                            (heap_pops + stats.entries_refused, 1 + stats.links_expanded);
                        let cut = opts.max_results.is_some()
                            || opts.max_distance.is_some()
                            || opts.deadline.is_some();
                        if cut {
                            assert!(left <= queued, "{case}: {stats:?}");
                        } else {
                            assert_eq!(left, queued, "{case}: {stats:?}");
                        }
                        let loaded = loads(dflix.stats()) - before;
                        assert_eq!(loaded, heap_pops as u64, "{case}");
                    }
                }
            }
            // The store keeps no tag lists: a tag start is refused, typed.
            let q = descendant_queries(&cg, 1, 44)[0];
            let query = Query {
                from: Start::Tag(q.target_tag),
                ..Query::descendants(q.start, q.target_tag, QueryOptions::default())
            };
            let err = dflix
                .evaluate(&query, &mut QueryCtx::default())
                .unwrap_err();
            assert!(err.contains("keeps no tag lists"), "{err}");
            let loads = |s: DiskExecStats| s.cache_hits + s.cache_misses;
            for p in workloads::connection_pairs(&cg, 12, 9) {
                for opts in [
                    QueryOptions::default(),
                    QueryOptions::within(3),
                    QueryOptions::default().with_deadline(Deadline::within_micros(0)),
                ] {
                    for both_ways in [false, true] {
                        let case = format!(
                            "{config} cache={cache} {}->{} {opts:?} both ways {both_ways}",
                            p.from, p.to
                        );
                        let query = Query::connection(p.from, p.to, both_ways, opts);
                        let mem = flix.evaluate(&query, &mut QueryCtx::default());
                        let before = loads(dflix.stats());
                        let dsk = dflix.evaluate(&query, &mut QueryCtx::default()).unwrap();
                        assert_eq!(mem.results, dsk.results, "{case}");
                        assert_eq!(mem.timed_out, dsk.timed_out, "{case}");
                        assert_eq!(mem.stats, dsk.stats, "{case}");
                        // Conservation, with one seed a side: an unconnected
                        // pair drains a one-sided test; confirming, a bound, a
                        // deadline or the other side ending first leaves
                        // entries queued.
                        let stats = dsk.stats;
                        let heap_pops = stats.entries_popped + stats.entries_subsumed;
                        let sides = 1 + usize::from(both_ways);
                        let (left, queued) = (
                            heap_pops + stats.entries_refused,
                            sides + stats.links_expanded,
                        );
                        let drained = !both_ways && opts.max_distance.is_none() && !dsk.timed_out;
                        if drained && dsk.distance().is_none() {
                            assert_eq!(left, queued, "{case}: {stats:?}");
                        } else {
                            assert!(left <= queued, "{case}: {stats:?}");
                        }
                        assert_eq!(loads(dflix.stats()) - before, heap_pops as u64, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_deadline_times_out_with_empty_prefix() {
        let (_, dflix, _) = setup(FlixConfig::Naive, 4);
        let q = descendant_queries(&graph(), 1, 44)[0];
        for opts in [QueryOptions::default(), QueryOptions::exact()] {
            let opts = opts.with_deadline(Deadline::within_micros(0));
            let query = Query::descendants(q.start, q.target_tag, opts);
            let out = dflix.evaluate(&query, &mut QueryCtx::default()).unwrap();
            assert!(out.timed_out);
            assert!(out.results.is_empty());
        }
    }

    /// A blob that goes missing or stops decoding after `open` is only
    /// discovered when a query pops into it: that query must fail as a
    /// whole, whatever it had already collected.
    #[test]
    fn corrupt_meta_blob_mid_query_is_an_error_not_a_partial_answer() {
        let flix = Flix::build(graph(), FlixConfig::Naive);
        let (q, victim) = crossing_query(&flix);
        let damage: [fn(&mut BlobStore, &str); 2] = [
            |store, blob| assert!(store.remove(blob)),
            |store, blob| store.put(blob, b"not a meta document").unwrap(),
        ];
        for damage in damage {
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            damage(&mut store, &format!("fw/meta-{victim}"));
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            assert!(got.is_err(), "partial answer returned: {got:?}");
            let to = flix.meta(victim).nodes[0];
            assert!(connect(&dflix, q.start, to, &QueryOptions::default()).is_err());
        }
    }

    /// Same for a meta document that decodes but whose link anchors are
    /// not in its index's lookup order (a store saved before PPO anchors
    /// were rank-ordered): answering from it would silently miss links.
    #[test]
    fn stale_anchor_order_mid_query_is_an_error_not_a_partial_answer() {
        let cg = graph();
        let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
        // A query that pops into such a meta document after its first.
        let (q, victim, md) = descendant_queries(&cg, 40, 44)
            .into_iter()
            .find_map(|q| {
                let res = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
                let first = flix.meta_of(q.start);
                res.iter()
                    .map(|r| flix.meta_of(r.node))
                    .filter(|&mi| mi != first)
                    .find_map(|mi| Some((q, mi, flix.meta(mi).with_id_ordered_sources()?)))
            })
            .expect("some query enters a PPO meta whose preorder is not its id order");
        let (mut store, _) = store();
        persist::save_flix(&flix, &mut store, "fw").unwrap();
        let bytes = persist::image(&md).unwrap();
        store.put(&format!("fw/meta-{victim}"), &bytes).unwrap();
        let dflix = DiskFlix::open(store, "fw", 4).unwrap();
        let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let err = got.expect_err("a partial answer was returned");
        assert!(err.contains("index order"), "{err}");
    }

    /// Same for a meta document as builds before "FLT1" saved it — every
    /// array behind an element count, no format word — under each
    /// strategy, and for such a manifest at `open`. (Those builds' meta
    /// documents held what an "FLT3" image holds.)
    #[test]
    fn count_prefixed_image_mid_query_is_an_error_not_a_partial_answer() {
        use persist::mirror::{count_prefixed, CountedManifest, CountedMeta};
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::Monolithic(StrategyKind::Apex),
        ] {
            let flix = Flix::build(graph(), config);
            // The one meta document of a monolithic framework is the last
            // any query enters.
            let (q, victim) = match flix.meta_count() {
                1 => (descendant_queries(flix.collection(), 1, 44)[0], 0),
                _ => crossing_query(&flix),
            };
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            let swap = |store: &mut BlobStore, blob: &str, twin: fn(&[u8]) -> Vec<u8>| {
                let new = store.get(blob).unwrap().unwrap();
                store.put(blob, &twin(&new)).unwrap();
                new
            };
            let manifest = swap(&mut store, "fw/manifest", count_prefixed::<CountedManifest>);
            let Err(err) = DiskFlix::open(store, "fw", 4) else {
                panic!("{config}: opened over a count-prefixed manifest");
            };
            assert!(err.contains("stale or corrupt (image format"), "{err}");

            let (mut store, _) = self::store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            assert_eq!(store.get("fw/manifest").unwrap().unwrap(), manifest);
            let old =
                count_prefixed::<CountedMeta>(&persist::mirror::flt3_image(flix.meta(victim)));
            store.put(&format!("fw/meta-{victim}"), &old).unwrap();
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            let err = got.expect_err("a partial answer was returned");
            let named = format!("meta document {victim} is stale or corrupt (image format");
            assert!(err.contains(&named), "{config}: {err}");
            let to = flix.meta(victim).nodes[0];
            assert!(connect(&dflix, q.start, to, &QueryOptions::default()).is_err());
        }
    }

    /// A disk whose reads fail while `failing` is set.
    struct FlakyDisk {
        disk: MemDisk,
        failing: AtomicBool,
    }

    impl DiskManager for FlakyDisk {
        fn read_page(&self, id: PageId) -> std::io::Result<Page> {
            if self.failing.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("injected read fault"));
            }
            self.disk.read_page(id)
        }

        fn write_page(&self, id: PageId, page: &Page) -> std::io::Result<()> {
            self.disk.write_page(id, page)
        }

        fn allocate(&self) -> PageId {
            self.disk.allocate()
        }

        fn page_count(&self) -> u64 {
            self.disk.page_count()
        }

        fn stats(&self) -> DiskStats {
            self.disk.stats()
        }

        fn sync(&self) -> std::io::Result<()> {
            self.disk.sync()
        }
    }

    /// Page reads that start failing between two pops of a query fail the
    /// query as a whole, with the blob store's I/O error naming the page;
    /// and nothing of the failed load stays behind, in the index cache or
    /// the buffer pool — once reads work again the same engine answers
    /// the same queries like memory.
    #[test]
    fn failed_page_read_mid_query_is_an_error_not_a_partial_answer() {
        let flix = Flix::build(graph(), FlixConfig::Naive);
        let (q, victim) = crossing_query(&flix);
        let disk = Arc::new(FlakyDisk {
            disk: MemDisk::new(),
            failing: AtomicBool::new(false),
        });
        let store = BlobStore::new(Arc::new(BufferPool::new(disk.clone(), 4)));
        let dflix = DiskFlix::save_and_open(&flix, store, "fw", 4).unwrap();
        let opts = QueryOptions::default();
        let to = flix.meta(victim).nodes[0];

        // The first pop's index is in the cache when reads start to fail;
        // the pop into the next meta document is the one that reads.
        dflix.meta(flix.meta_of(q.start)).unwrap();
        disk.failing.store(true, Ordering::SeqCst);
        let got = dflix.find_descendants(q.start, q.target_tag, &opts);
        let named = format!("blob \"fw/meta-{victim}\": I/O error reading page");
        let err = got.expect_err("a partial answer was returned");
        assert!(
            err.contains(&named) && err.contains("injected read fault"),
            "{err}"
        );
        let err = connect(&dflix, q.start, to, &opts).unwrap_err();
        assert!(err.contains(&named), "{err}");

        disk.failing.store(false, Ordering::SeqCst);
        for query in [
            Query::descendants(q.start, q.target_tag, opts),
            Query::connection(q.start, to, false, opts),
        ] {
            let mem = flix.evaluate(&query, &mut QueryCtx::default());
            let dsk = dflix.evaluate(&query, &mut QueryCtx::default()).unwrap();
            assert_eq!(mem.results, dsk.results);
            assert_eq!(mem.stats, dsk.stats);
        }
    }

    /// Same for a HOPI meta document whose label-table offsets are not
    /// well-formed: a lookup would slice its entries out of bounds (a
    /// panic, not an answer), so the load must refuse it.
    #[test]
    fn malformed_label_offsets_mid_query_is_an_error_not_a_partial_answer() {
        let flix = Flix::build(graph(), FlixConfig::UnconnectedHopi { partition_size: 40 });
        let (q, victim) = crossing_query(&flix);
        let damage: [fn(&mut persist::mirror::Hopi); 2] = [
            |hopi| {
                let off = &mut hopi.l_out.offsets;
                let at = off.windows(2).position(|w| w[0] < w[1]).unwrap();
                off.swap(at, at + 1);
            },
            |hopi| *hopi.in_index.offsets.last_mut().unwrap() += 1,
        ];
        for damage in damage {
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            let bytes = persist::mirror::damaged_image(flix.meta(victim), damage);
            store.put(&format!("fw/meta-{victim}"), &bytes).unwrap();
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            let err = got.expect_err("a partial answer was returned");
            assert!(err.contains("label table"), "{err}");
            let to = flix.meta(victim).nodes[0];
            assert!(connect(&dflix, q.start, to, &QueryOptions::default()).is_err());
        }
    }

    /// Same for a HOPI meta document whose stored label words carry anchor
    /// flags beside its anchor lists: a lookup would stop at the wrong
    /// nodes to leave the index, so the load refuses it by name.
    #[test]
    fn hopi_anchor_flags_off_the_lists_mid_query_are_errors_not_partial_answers() {
        let flix = Flix::build(graph(), FlixConfig::UnconnectedHopi { partition_size: 40 });
        let (q, victim) = crossing_query(&flix);
        for damage in persist::mirror::hopi_flag_damage() {
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            let bytes = persist::mirror::damaged_image(flix.meta(victim), damage);
            store.put(&format!("fw/meta-{victim}"), &bytes).unwrap();
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            let err = got.expect_err("a partial answer was returned");
            let named = format!("meta document {victim} is stale or corrupt (");
            assert!(
                err.starts_with(&named) && err.contains("anchor flags"),
                "{err}"
            );
            let to = flix.meta(victim).nodes[0];
            assert!(connect(&dflix, q.start, to, &QueryOptions::default()).is_err());
        }
    }

    /// Same for a PPO meta document as the "FLT1" build saved it — numbered
    /// by element, six arrays — and for one whose arrays would send
    /// a lookup out of bounds: each is refused by name when a query pops
    /// into it, and so is a connection test into it.
    #[test]
    fn ppo_images_that_cannot_be_read_mid_query_are_errors_not_partial_answers() {
        use persist::mirror::{damaged_image, ppo_damage, six_array_image};
        let flix = Flix::build(graph(), FlixConfig::MaximalPpo);
        let (q, victim) = crossing_query(&flix);
        let md = flix.meta(victim);
        let twins = ppo_damage().map(|(damage, fault)| (damaged_image(md, damage), fault));
        for (bytes, fault) in [(six_array_image(md), "image format")]
            .into_iter()
            .chain(twins)
        {
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            store.put(&format!("fw/meta-{victim}"), &bytes).unwrap();
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            let err = got.expect_err("a partial answer was returned");
            let named = format!("meta document {victim} is stale or corrupt (");
            assert!(
                err.starts_with(&named) && err.contains(fault),
                "{fault}: {err}"
            );
            assert!(connect(&dflix, q.start, md.nodes[0], &QueryOptions::default()).is_err());
        }
    }

    /// Same for an APEX meta document whose arrays would send a lookup out
    /// of bounds: the query that loads it fails by name, where it used to
    /// load and panic.
    #[test]
    fn damaged_apex_images_mid_query_are_errors_not_panics() {
        use persist::mirror::{apex_damage, damaged_image};
        let flix = Flix::build(graph(), FlixConfig::Monolithic(StrategyKind::Apex));
        let md = flix.meta(0);
        for (damage, fault) in apex_damage() {
            let (mut store, _) = store();
            persist::save_flix(&flix, &mut store, "fw").unwrap();
            store.put("fw/meta-0", &damaged_image(md, damage)).unwrap();
            let dflix = DiskFlix::open(store, "fw", 4).unwrap();
            let got = dflix.find_descendants(md.nodes[0], 0, &QueryOptions::default());
            let err = got.expect_err("a damaged APEX image answered");
            let named = "meta document 0 is stale or corrupt (";
            assert!(
                err.starts_with(named) && err.contains(fault),
                "{fault}: {err}"
            );
        }
    }

    /// Same for a HOPI meta document whose inverted rows are in id order
    /// (a store saved before they were ordered anchors first, then by
    /// label): answering from it would silently miss links and results.
    #[test]
    fn id_ordered_hopi_rows_mid_query_is_an_error_not_a_partial_answer() {
        hopi_twin_mid_query_is_an_error(persist::mirror::id_ordered_image);
    }

    /// Same for a HOPI meta document saved with all four label tables (a
    /// store saved before the ancestors pair was derived, "ROW2").
    #[test]
    fn four_table_hopi_image_mid_query_is_an_error_not_a_partial_answer() {
        hopi_twin_mid_query_is_an_error(persist::mirror::four_table_image);
    }

    /// A query that pops into a HOPI meta document stored as `twin` makes
    /// it fails as a whole, and so does a connection test into it.
    fn hopi_twin_mid_query_is_an_error(twin: fn(&MetaDocument) -> Vec<u8>) {
        let flix = Flix::build(graph(), FlixConfig::UnconnectedHopi { partition_size: 40 });
        let (q, victim) = crossing_query(&flix);
        let (mut store, _) = store();
        persist::save_flix(&flix, &mut store, "fw").unwrap();
        let bytes = twin(flix.meta(victim));
        store.put(&format!("fw/meta-{victim}"), &bytes).unwrap();
        let dflix = DiskFlix::open(store, "fw", 4).unwrap();
        let got = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let err = got.expect_err("a partial answer was returned");
        assert!(err.contains("stale or corrupt"), "{err}");
        let to = flix.meta(victim).nodes[0];
        assert!(connect(&dflix, q.start, to, &QueryOptions::default()).is_err());
    }

    /// Four threads first-use the ancestors pair of one freshly loaded HOPI
    /// index at once — the label joins going up and `distance` read the
    /// derived tables — and every answer equals memory's.
    #[test]
    fn threads_first_using_the_ancestors_pair_of_a_loaded_index_agree_with_memory() {
        let (flix, dflix, _) = setup(FlixConfig::UnconnectedHopi { partition_size: 40 }, 4);
        let id = (0..flix.meta_count() as u32)
            .max_by_key(|&id| flix.meta(id).len())
            .unwrap();
        let locals = 0..flix.meta(id).len() as u32;
        let answers = |md: &MetaDocument| {
            let up = |e| {
                (0..4).map(move |label| {
                    let mut pop = crate::meta::PopAnswer::default();
                    md.answer_pop(Axis::Ancestors, e, label, true, None, &mut pop);
                    pop
                })
            };
            let ups: Vec<_> = locals.clone().flat_map(up).collect();
            let distances: Vec<_> = locals.clone().map(|e| md.index.distance(e, 0)).collect();
            (ups, distances)
        };
        let want = answers(flix.meta(id));
        let md = dflix.meta(id).unwrap();
        assert_eq!(dflix.stats().cache_misses, 1, "loaded by this call");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        answers(&md)
                    })
                })
                .collect();
            for thread in threads {
                assert!(thread.join().unwrap() == want);
            }
        });
    }

    #[test]
    fn start_outside_the_collection_is_an_error() {
        let (flix, dflix, _) = setup(FlixConfig::Naive, 4);
        let beyond = flix.collection().node_count() as NodeId;
        assert!(dflix
            .find_descendants(beyond, 0, &QueryOptions::default())
            .is_err());
    }

    #[test]
    fn small_cache_causes_reloads() {
        let cg = graph();
        let (_, dflix, disk) = setup(FlixConfig::Naive, 2);
        let before = disk.stats().reads;
        for q in descendant_queries(&cg, 6, 45) {
            let _ = dflix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        }
        let st = dflix.stats();
        assert!(st.cache_misses > 0, "tiny cache must miss");
        assert!(
            disk.stats().reads > before,
            "misses must hit the disk through the pool"
        );
        // a larger cache over the same workload misses less
        let (_, dflix2, _) = setup(FlixConfig::Naive, 64);
        for q in descendant_queries(&cg, 6, 45) {
            let _ = dflix2.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        }
        let st2 = dflix2.stats();
        assert!(st2.cache_misses <= st.cache_misses);
    }

    #[test]
    fn open_missing_name_errors() {
        assert!(DiskFlix::open(store().0, "nope", 4).is_err());
    }

    /// An index cache without a slot is refused, typed, by `open` and by
    /// `save_and_open`, which still saves the framework.
    #[test]
    fn an_index_cache_of_no_slots_is_an_error_not_a_panic() {
        let flix = Flix::build(graph(), FlixConfig::Naive);
        let (mut store, _) = store();
        persist::save_flix(&flix, &mut store, "fw").unwrap();
        let refused = "an index cache of 0 slots holds no index: give it at least 1";
        let Err(err) = DiskFlix::open(store, "fw", 0) else {
            panic!("opened with no cache slot");
        };
        assert_eq!(err, refused);
        let Err(err) = DiskFlix::save_and_open(&flix, self::store().0, "fw", 0) else {
            panic!("opened with no cache slot");
        };
        assert_eq!(err, refused);
    }

    /// A saved framework with one damaged data page, its chunk length
    /// running one byte past the frame, answers a query that reads that
    /// page with an error, not a panic.
    #[test]
    fn a_damaged_data_page_is_an_error_not_a_panic() {
        let flix = Flix::build(graph(), FlixConfig::Monolithic(StrategyKind::Ppo));
        let disk = Arc::new(MemDisk::new());
        let pool = Arc::new(BufferPool::new(disk.clone(), 4));
        let mut store = BlobStore::new(pool.clone());
        persist::save_flix(&flix, &mut store, "fw").unwrap();
        pool.flush_all().unwrap();
        // Page 0 holds the manifest, page 1 the one meta document's index.
        let mut frames = disk.snapshot_frames();
        let page = frames[1].as_mut().unwrap();
        let off = usize::from(u16::from_le_bytes([page[4], page[5]]));
        let past = (PAGE_SIZE - off + 1) as u16;
        page[6..8].copy_from_slice(&past.to_le_bytes());
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::from_frames(frames)), 4));
        let damaged = BlobStore::import_directory(pool, &store.export_directory()).unwrap();
        let dflix = DiskFlix::open(damaged, "fw", 4).unwrap();
        let q = descendant_queries(flix.collection(), 1, 44)[0];
        let query = Query::descendants(q.start, q.target_tag, QueryOptions::default());
        let err = dflix
            .evaluate(&query, &mut QueryCtx::default())
            .unwrap_err();
        assert!(err.contains("holds no chunk record"), "{err}");
    }
}
