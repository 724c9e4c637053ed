//! Per-layer measurements of the traced pass that are not read off the
//! main traffic: direct probe replays, codec and blob timings, the XML
//! parser, and the cache / shard micro-timings of `served`.
//!
//! Every function calls a layer's public functions and times them from
//! outside with [`Stopwatch`]; each loops over its inputs until a time
//! budget is spent and reports a mean.

use crate::inputs::Query;
use crate::prepare::Prepared;
use flix::{CachedFlix, Flix, FlixConfig, MetaDocument, ShardedFlix, StrategyKind};
use flixobs::Stopwatch;
use graphcore::NodeId;
use pagestore::{BlobStore, BufferPool, DiskManager, FileDisk};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use xmlgraph::{parse_document, write_document, LinkSpec, TagId};

/// Name → value pairs a layer measurement contributes.
pub type Values = Vec<(&'static str, f64)>;

fn secs(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64()
}

/// Calls `op` on `items` round-robin until `budget_s` is spent (at least
/// one full pass); returns mean nanoseconds per call and the call count.
fn mean_ns<T>(items: &[T], budget_s: f64, mut op: impl FnMut(&T)) -> (f64, u64) {
    if items.is_empty() {
        return (0.0, 0);
    }
    let sw = Stopwatch::start();
    let mut calls = 0u64;
    loop {
        for item in items {
            op(item);
        }
        calls += items.len() as u64;
        if secs(&sw) >= budget_s {
            return (secs(&sw) * 1e9 / calls as f64, calls);
        }
    }
}

/// One entry the evaluator pops and answers: `(meta, local, tag)` plus the
/// global node, for replay against another framework.
#[derive(Debug, Clone, Copy)]
struct Probe {
    meta: u32,
    local: u32,
    tag: TagId,
    global: NodeId,
}

/// The `(meta, local, tag)` triples the workload's queries pop, found by
/// walking the Fig. 4 loop over the framework's public accessors (the same
/// loop `DiskFlix` runs). At most `cap` triples are kept.
fn popped_probes(flix: &Flix, queries: &[Query], cap: usize) -> Vec<Probe> {
    let mut out = Vec::new();
    for q in queries {
        let mut queue: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        let mut entries: Vec<Vec<u32>> = vec![Vec::new(); flix.meta_count()];
        queue.push(Reverse((0, q.start)));
        let mut results = 0usize;
        while let Some(Reverse((d, e))) = queue.pop() {
            if q.opts.max_distance.is_some_and(|m| d > m) || out.len() >= cap {
                break;
            }
            let (meta, local) = (flix.meta_of(e), flix.local_of(e));
            let md = flix.meta(meta);
            let seen = &mut entries[meta as usize];
            if seen.iter().any(|&p| md.index.is_reachable(p, local)) {
                continue;
            }
            out.push(Probe {
                meta,
                local,
                tag: q.tag,
                global: e,
            });
            // A result cap ends the real evaluation early; approximate it
            // by the block sizes so capped workloads replay few probes.
            results += md.index.descendants_by_label(local, q.tag, true).len();
            if q.opts.max_results.is_some_and(|k| results >= k) {
                break;
            }
            for (ls, dls) in md.reachable_link_sources(local) {
                for &(_, target) in flix.links_out_of(md.nodes[ls as usize]) {
                    queue.push(Reverse((d + dls + 1, target)));
                }
            }
            seen.push(local);
        }
    }
    out
}

/// `probe.*`: replays the popped triples straight against the meta
/// indexes — the block fetch, the link-source enumeration and the distance
/// test — and against a monolithic APEX built here for this only.
pub fn probes(p: &Prepared, budget_s: f64) -> Values {
    let flix = &*p.flix;
    let all = popped_probes(flix, &p.queries, 20_000);
    let of_kind = |kind: StrategyKind| -> Vec<Probe> {
        all.iter()
            .copied()
            .filter(|pr| flix.meta(pr.meta).index.kind() == kind)
            .collect()
    };
    // Block fetch per index kind: mean time, calls, label rows scanned.
    let fetch = |probes: &[Probe]| -> (f64, u64, u64) {
        let mut rows = 0u64;
        let (ns, calls) = mean_ns(probes, budget_s, |pr| {
            let (block, work) = flix
                .meta(pr.meta)
                .index
                .descendants_by_label_counted(pr.local, pr.tag, true);
            rows += work as u64;
            black_box(block);
        });
        (ns, calls, rows)
    };
    let (ppo_ns, _, _) = fetch(&of_kind(StrategyKind::Ppo));
    let (hopi_ns, hopi_calls, hopi_rows) = fetch(&of_kind(StrategyKind::Hopi));

    let apex = Flix::build(p.cg.clone(), FlixConfig::Monolithic(StrategyKind::Apex));
    let (apex_ns, _) = mean_ns(&all, budget_s, |pr| {
        black_box(apex.meta(0).index.descendants_by_label_counted(
            apex.local_of(pr.global),
            pr.tag,
            true,
        ));
    });
    let (links_ns, _) = mean_ns(&all, budget_s, |pr| {
        black_box(flix.meta(pr.meta).reachable_link_sources(pr.local));
    });
    // Distance test as the subsumption check issues it: an earlier entry
    // of the same meta document against a later one.
    let mut first_of_meta = vec![u32::MAX; flix.meta_count()];
    let pairs: Vec<(u32, u32, u32)> = all
        .iter()
        .map(|pr| {
            let first = &mut first_of_meta[pr.meta as usize];
            if *first == u32::MAX {
                *first = pr.local;
            }
            (pr.meta, *first, pr.local)
        })
        .collect();
    let (distance_ns, _) = mean_ns(&pairs, budget_s, |&(meta, a, b)| {
        black_box(flix.meta(meta).index.distance(a, b));
    });
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    vec![
        ("probe.ppo_ns_per_call", ppo_ns),
        ("probe.hopi_ns_per_call", hopi_ns),
        (
            "probe.hopi_rows_per_call",
            per(hopi_rows as f64, hopi_calls),
        ),
        (
            "probe.hopi_ns_per_row",
            per(hopi_ns * hopi_calls as f64, hopi_rows),
        ),
        ("probe.apex_ns_per_call", apex_ns),
        ("probe.link_sources_ns_per_call", links_ns),
        ("probe.distance_ns", distance_ns),
    ]
}

/// `pagestore.encode/decode_mb_per_s`, `blob_get_cold/warm_us` and
/// `diskexec.load_us`: the meta-document images through the codec and
/// through a file-backed blob store whose pool does not fit them (128
/// frames) and one whose pool does (4,096 frames). An index load of
/// `DiskFlix` is one blob get plus one decode, so `load_us` is their sum.
pub fn codec_and_blobs(flix: &Flix, dir: &Path, budget_s: f64) -> Result<Values, String> {
    let metas: Vec<&MetaDocument> = (0..flix.meta_count() as u32)
        .map(|i| flix.meta(i))
        .collect();
    let mut images: Vec<Vec<u8>> = Vec::with_capacity(metas.len());
    let sw = Stopwatch::start();
    for md in &metas {
        images.push(pagestore::to_bytes(*md).map_err(|e| e.to_string())?);
    }
    let encode_s = secs(&sw);
    let bytes: usize = images.iter().map(Vec::len).sum();
    let mb = bytes as f64 / 1e6;

    let mut decode_failed = false;
    let (decode_ns, _) = mean_ns(&images, budget_s, |image| {
        match pagestore::from_bytes::<MetaDocument>(image) {
            Ok(md) => {
                black_box(md);
            }
            Err(_) => decode_failed = true,
        }
    });
    if decode_failed {
        return Err("a meta-document image did not decode".into());
    }

    std::fs::create_dir_all(dir).map_err(|e| format!("blob scratch directory: {e}"))?;
    let names: Vec<String> = (0..images.len()).map(|i| format!("m{i}")).collect();
    let mut get_us = [0.0f64; 2];
    for (slot, frames) in [(0usize, 128usize), (1, 4_096)] {
        let path = dir.join(format!("blobs-{frames}.db"));
        let disk = Arc::new(FileDisk::open(&path).map_err(|e| format!("blob file: {e}"))?);
        let pool = Arc::new(BufferPool::new(disk as Arc<dyn DiskManager>, frames));
        let mut store = BlobStore::new(pool.clone());
        for (name, image) in names.iter().zip(&images) {
            store.put(name, image).map_err(|e| e.to_string())?;
        }
        pool.flush_all().map_err(|e| format!("blob flush: {e}"))?;
        let mut missing = false;
        let (ns, _) = mean_ns(&names, budget_s, |name| match store.get(name) {
            Ok(Some(blob)) => {
                black_box(blob);
            }
            _ => missing = true,
        });
        if missing {
            return Err("a stored blob could not be read back".into());
        }
        get_us[slot] = ns / 1e3;
    }
    Ok(vec![
        ("pagestore.encode_mb_per_s", mb / encode_s.max(1e-9)),
        (
            "pagestore.decode_mb_per_s",
            mb / (decode_ns * images.len() as f64 / 1e9).max(1e-9),
        ),
        ("pagestore.blob_get_cold_us", get_us[0]),
        ("pagestore.blob_get_warm_us", get_us[1]),
        ("diskexec.load_us", get_us[0] + decode_ns / 1e3),
    ])
}

/// `xmlgraph.parse_mb_per_s`: the corpus written back to XML text, then
/// parsed again (only the parse is timed).
pub fn xml_parse(p: &Prepared, budget_s: f64) -> Result<Values, String> {
    let tags = &p.cg.collection.tags;
    let texts: Vec<(String, String)> =
        p.cg.collection
            .docs()
            .take(1_000)
            .map(|(_, d)| (d.name.clone(), write_document(d, tags)))
            .collect();
    let bytes: usize = texts.iter().map(|(_, t)| t.len()).sum();
    let spec = LinkSpec::default();
    let mut interner = tags.clone();
    let mut failed = false;
    let (ns, _) = mean_ns(&texts, budget_s, |(name, text)| {
        match parse_document(name.as_str(), text, &mut interner, &spec) {
            Ok(doc) => {
                black_box(doc);
            }
            Err(_) => failed = true,
        }
    });
    if failed {
        return Err("a written document did not parse back".into());
    }
    let pass_s = ns * texts.len() as f64 / 1e9;
    Ok(vec![(
        "xmlgraph.parse_mb_per_s",
        bytes as f64 / 1e6 / pass_s.max(1e-9),
    )])
}

/// `shard.route_us`, `cache.hit_us`, `cache.miss_overhead_us` on the
/// `served` queries, one thread: the sharded call against the plain call
/// with caches off, and a cold then a warm pass through a cache big enough
/// to hold every query.
pub fn shard_and_cache(p: &Prepared, shards: usize, budget_s: f64) -> Values {
    let flix = &p.flix;
    let qs = &p.queries;
    let sharded = ShardedFlix::new(flix.clone(), shards);
    let (mut plain_s, mut sharded_s, mut miss_s, mut hit_s) = (0.0, 0.0, 0.0, 0.0);
    let mut passes = 0u32;
    // One untimed pass first: the first walk over the index pays the cold
    // processor caches, whichever call makes it.
    for q in qs {
        black_box(flix.find_descendants_outcome(q.start, q.tag, &q.opts));
    }
    let total = Stopwatch::start();
    // Whole passes, interleaved, so drift hits all four alike.
    loop {
        let sw = Stopwatch::start();
        for q in qs {
            black_box(flix.find_descendants_outcome(q.start, q.tag, &q.opts));
        }
        plain_s += secs(&sw);
        let sw = Stopwatch::start();
        for q in qs {
            black_box(sharded.find_descendants_outcome(q.start, q.tag, &q.opts));
        }
        sharded_s += secs(&sw);
        let cache = CachedFlix::new(flix.clone(), qs.len().max(1) * 2);
        let sw = Stopwatch::start();
        for q in qs {
            black_box(cache.find_descendants_deadline(q.start, q.tag, &q.opts));
        }
        miss_s += secs(&sw);
        let sw = Stopwatch::start();
        for q in qs {
            black_box(cache.find_descendants_deadline(q.start, q.tag, &q.opts));
        }
        hit_s += secs(&sw);
        passes += 1;
        if secs(&total) >= budget_s {
            break;
        }
    }
    let per_us = |s: f64| s * 1e6 / (f64::from(passes) * qs.len() as f64);
    vec![
        ("shard.route_us", per_us(sharded_s) - per_us(plain_s)),
        ("cache.hit_us", per_us(hit_s)),
        ("cache.miss_overhead_us", per_us(miss_s) - per_us(plain_s)),
    ]
}
