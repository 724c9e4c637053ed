//! End-to-end framework tests: order quality, streaming, persistence, and
//! the vague-query layer over realistic corpora.

use flix::persist::{load_flix, save_flix};
use flix::{
    Flix, FlixConfig, PathQuery, Query, QueryEngine, QueryOptions, ResultStream, StrategyKind,
    TagSimilarity,
};
use graphcore::bfs_distances;
use pagestore::{BlobStore, BufferPool, MemDisk};
use std::sync::Arc;
use workloads::{descendant_queries, generate_dblp, generate_mixed, DblpConfig, MixedConfig};

#[test]
fn monolithic_hopi_returns_exact_ascending_order() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(21)).seal());
    let flix = Flix::build(cg.clone(), FlixConfig::Monolithic(StrategyKind::Hopi));
    for q in descendant_queries(&cg, 6, 8) {
        let res = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        assert!(
            res.windows(2).all(|w| w[0].distance <= w[1].distance),
            "monolithic HOPI must return perfectly sorted results"
        );
        // and distances are exact
        let dist = bfs_distances(&cg.graph, q.start);
        for r in &res {
            assert_eq!(r.distance, dist[r.node as usize]);
        }
    }
}

#[test]
fn error_rate_definition_counts_out_of_order_results() {
    // The §6 metric: fraction of results returned out of ascending-distance
    // order (counted against the exact distance of each result).
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(22)).seal());
    let flix = Flix::build(
        cg.clone(),
        FlixConfig::UnconnectedHopi { partition_size: 80 },
    );
    let mut total = 0usize;
    let mut out_of_order = 0usize;
    for q in descendant_queries(&cg, 10, 9) {
        let res = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let dist = bfs_distances(&cg.graph, q.start);
        let exact: Vec<u32> = res.iter().map(|r| dist[r.node as usize]).collect();
        let mut max_seen = 0;
        for &d in &exact {
            total += 1;
            if d < max_seen {
                out_of_order += 1;
            }
            max_seen = max_seen.max(d);
        }
    }
    // the framework is *approximately* ordered: errors are allowed but must
    // stay a minority, as in the paper's 8-13% measurements
    assert!(total > 0);
    assert!(
        (out_of_order as f64) < 0.5 * total as f64,
        "error rate too high: {out_of_order}/{total}"
    );
}

#[test]
fn streaming_equals_batch() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(23)).seal());
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::MaximalPpo));
    for q in descendant_queries(&cg, 4, 10) {
        let batch = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let query = Query::descendants(q.start, q.target_tag, QueryOptions::default());
        let stream = ResultStream::spawn(flix.clone(), query);
        let streamed: Vec<_> = stream.collect();
        assert_eq!(batch, streamed);
    }
}

#[test]
fn persistence_round_trip_on_mixed_corpus() {
    let cg = Arc::new(generate_mixed(&MixedConfig::default()).seal());
    let flix = Flix::build(
        cg.clone(),
        FlixConfig::Hybrid {
            partition_size: 400,
        },
    );
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 512));
    let mut store = BlobStore::new(pool);
    save_flix(&flix, &mut store, "mixed").unwrap();
    let loaded = load_flix(&store, "mixed", cg.clone()).unwrap();
    for q in descendant_queries(&cg, 6, 12) {
        assert_eq!(
            flix.find_descendants(q.start, q.target_tag, &QueryOptions::default()),
            loaded.find_descendants(q.start, q.target_tag, &QueryOptions::default())
        );
    }
    assert_eq!(flix.meta_count(), loaded.meta_count());
}

#[test]
fn vague_queries_rank_by_decayed_similarity() {
    let cg = Arc::new(generate_dblp(&DblpConfig::tiny(24)).seal());
    let flix = Flix::build(cg.clone(), FlixConfig::Naive);
    // "publication" is not a tag in the corpus; the ontology maps it to
    // article and inproceedings.
    let mut sims = TagSimilarity::new();
    sims.add("publication", "article", 0.95)
        .add("publication", "inproceedings", 0.9);
    let engine = QueryEngine::new(&flix, sims, 0.85, 0.01);
    let start = (0..cg.collection.doc_count() as u32)
        .map(|d| cg.doc_root(d))
        .max_by_key(|&r| cg.graph.out_degree(r))
        .unwrap();
    let res = engine.evaluate_from(start, &PathQuery::parse("//~publication").unwrap());
    assert!(
        !res.is_empty(),
        "citations must surface similar-tagged pubs"
    );
    assert!(res.windows(2).all(|w| w[0].score >= w[1].score));
    for r in &res {
        let name = cg.collection.tags.name(cg.tag_of(r.node));
        assert!(name == "article" || name == "inproceedings");
        assert!(r.node != start && r.score >= 0.01);
    }
}

#[test]
fn all_configs_build_on_paper_shaped_corpus() {
    // a smaller replica of the paper's corpus shape, every configuration
    let cg = Arc::new(
        generate_dblp(&DblpConfig {
            documents: 300,
            ..DblpConfig::default()
        })
        .seal(),
    );
    for config in [
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi {
            partition_size: 500,
        },
        FlixConfig::Hybrid {
            partition_size: 500,
        },
        FlixConfig::Monolithic(StrategyKind::Hopi),
        FlixConfig::Monolithic(StrategyKind::Apex),
    ] {
        let flix = Flix::build(cg.clone(), config);
        let st = flix.stats();
        assert!(st.index_bytes > 0, "{config}");
        assert_eq!(
            st.per_meta.iter().map(|m| m.elements).sum::<usize>(),
            cg.node_count(),
            "{config}: meta documents must cover the collection"
        );
        // MaximalPpo on DBLP-like data should group documents: far fewer
        // meta docs than documents (most papers are cited / cite others).
        if config == FlixConfig::MaximalPpo {
            assert!(
                st.meta_docs < cg.collection.doc_count(),
                "grouping had no effect"
            );
        }
    }
}

/// One thread's evaluator scratch serves a MaximalPPO framework over a
/// small corpus, then one over a corpus nearly twice its size, then a
/// `DiskFlix` over the larger: every answer equals the one a fresh thread
/// computes, disk answers as memory does, and a full descendants answer
/// holds the nodes the BFS oracle reaches.
#[test]
fn scratch_reuse_across_builds_and_disk_matches_fresh_threads() {
    use flix::{Axis, DiskFlix, QueryCtx};
    type Answers = Vec<(Vec<(u32, u32)>, bool)>;
    type Case = (Axis, u32, u32, QueryOptions);

    let corpus = |documents| {
        let config = DblpConfig {
            documents,
            ..DblpConfig::tiny(88)
        };
        Arc::new(generate_dblp(&config).seal())
    };
    let (small, large) = (corpus(60), corpus(110));
    let [in_small, in_large] =
        [&small, &large].map(|cg| Flix::build(cg.clone(), FlixConfig::MaximalPpo));
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let disk = DiskFlix::save_and_open(&in_large, BlobStore::new(Arc::new(pool)), "fw", 4).unwrap();
    let opts = [
        QueryOptions::default(),
        QueryOptions::exact(),
        QueryOptions::top_k(5),
    ];
    let cases = |cg: &xmlgraph::CollectionGraph, seed| -> Vec<Case> {
        (descendant_queries(cg, 14, seed).into_iter())
            .flat_map(|q| {
                [Axis::Descendants, Axis::Ancestors]
                    .into_iter()
                    .flat_map(move |axis| opts.map(|o| (axis, q.start, q.target_tag, o)))
            })
            .collect()
    };
    let (small_cases, large_cases) = (cases(&small, 5), cases(&large, 6));
    let query = |&(axis, start, tag, o): &Case| Query {
        axis,
        ..Query::descendants(start, tag, o)
    };
    let in_memory = |flix: &Flix, cases: &[Case]| -> Answers {
        (cases.iter())
            .map(|case| {
                let out = flix.evaluate(&query(case), &mut QueryCtx::default());
                let answer = out.results.iter().map(|r| (r.node, r.distance));
                (answer.collect(), out.timed_out)
            })
            .collect()
    };
    let on_disk = |cases: &[Case]| -> Answers {
        (cases.iter())
            .map(|case| {
                let out = disk
                    .evaluate(&query(case), &mut QueryCtx::default())
                    .unwrap();
                let answer = out.results.iter().map(|r| (r.node, r.distance));
                (answer.collect(), out.timed_out)
            })
            .collect()
    };
    let fresh =
        |job: &(dyn Fn() -> Answers + Sync)| std::thread::scope(|s| s.spawn(job).join().unwrap());

    // One thread, one scratch, three spaces of different sizes in turn.
    let reused = [
        in_memory(&in_small, &small_cases),
        in_memory(&in_large, &large_cases),
        on_disk(&large_cases),
    ];
    assert_eq!(reused[0], fresh(&|| in_memory(&in_small, &small_cases)));
    assert_eq!(reused[1], fresh(&|| in_memory(&in_large, &large_cases)));
    assert_eq!(reused[2], fresh(&|| on_disk(&large_cases)));
    assert_eq!(reused[1], reused[2], "disk == memory");
    let answered = reused[1].iter().filter(|(answer, _)| answer.len() > 1);
    assert!(answered.count() > large_cases.len() / 4);

    for (&(axis, start, tag, o), (answer, _)) in large_cases.iter().zip(&reused[1]) {
        if axis != Axis::Descendants || o.max_results.is_some() {
            continue;
        }
        let dist = bfs_distances(&large.graph, start);
        let reached = (0..large.node_count() as u32).filter(|&v| {
            v != start && large.tag_of(v) == tag && dist[v as usize] != graphcore::INFINITE_DISTANCE
        });
        let mut got: Vec<u32> = answer.iter().map(|&(v, _)| v).collect();
        got.sort_unstable();
        assert_eq!(got, reached.collect::<Vec<_>>(), "{start}//{tag} {o:?}");
    }
}
