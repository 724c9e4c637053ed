//! Integration tests for the path-expression engine and the §7 features
//! (exact ordering, caching, self-tuning, disk-resident execution) over
//! realistic corpora.

use flix::{
    CachedFlix, DiskFlix, Flix, FlixConfig, LoadMonitor, PathQuery, QueryEngine, QueryOptions,
    Recommendation, StrategyKind, TagSimilarity,
};
use pagestore::{BlobStore, BufferPool, MemDisk};
use std::ops::ControlFlow;
use std::sync::Arc;
use workloads::{descendant_queries, generate_dblp, DblpConfig};

fn corpus() -> Arc<xmlgraph::CollectionGraph> {
    Arc::new(generate_dblp(&DblpConfig::tiny(77)).seal())
}

#[test]
fn path_queries_match_manual_evaluation() {
    let cg = corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
    let engine = QueryEngine::strict(&flix);

    // //inproceedings/title == titles whose parent is an inproceedings root
    let q = PathQuery::parse("//inproceedings/title").unwrap();
    let res = engine.evaluate(&q);
    let title = cg.collection.tags.get("title").unwrap();
    let inproc = cg.collection.tags.get("inproceedings").unwrap();
    let expected: usize = cg
        .nodes_with_tag(title)
        .iter()
        .filter(|&&t| {
            cg.graph
                .predecessors(t)
                .iter()
                .any(|&p| cg.tag_of(p) == inproc)
        })
        .count();
    assert_eq!(res.len(), expected);
    assert!(res.iter().all(|b| (b.score - 1.0).abs() < 1e-9));
}

#[test]
fn descendant_step_equals_pee_results() {
    let cg = corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::Naive);
    let engine = QueryEngine::strict(&flix);
    // //article//cite: strict engine (decay 1.0) should bind exactly the
    // cite elements reachable from any article root
    let q = PathQuery::parse("//article//cite").unwrap();
    let mut via_engine: Vec<u32> = engine.evaluate(&q).iter().map(|b| b.node).collect();
    via_engine.sort_unstable();
    let article = cg.collection.tags.get("article").unwrap();
    let cite = cg.collection.tags.get("cite").unwrap();
    let mut via_pee: Vec<u32> = flix
        .find_descendants_of_type(article, cite, &QueryOptions::default())
        .iter()
        .map(|r| r.node)
        .collect();
    via_pee.sort_unstable();
    via_pee.dedup();
    assert_eq!(via_engine, via_pee);
}

#[test]
fn exact_order_equals_oracle_on_corpus() {
    let cg = corpus();
    for config in [
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi { partition_size: 80 },
    ] {
        let flix = Flix::build(cg.clone(), config);
        for q in descendant_queries(&cg, 6, 21) {
            let res = flix.find_descendants(q.start, q.target_tag, &QueryOptions::exact());
            assert!(
                res.windows(2).all(|w| w[0].distance <= w[1].distance),
                "{config}: unsorted"
            );
            let dist = graphcore::bfs_distances(&cg.graph, q.start);
            for r in &res {
                assert_eq!(r.distance, dist[r.node as usize], "{config}");
            }
        }
    }
}

#[test]
fn cached_framework_transparent() {
    let cg = corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let cached = CachedFlix::new(flix.clone(), 32);
    let queries = descendant_queries(&cg, 10, 31);
    let distinct: std::collections::HashSet<(u32, u32)> =
        queries.iter().map(|q| (q.start, q.target_tag)).collect();
    for q in &queries {
        let direct = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let via_cache = cached.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        assert_eq!(direct, *via_cache);
        // second fetch must hit
        let again = cached.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        assert!(Arc::ptr_eq(&via_cache, &again));
    }
    let (hits, misses) = cached.stats();
    assert_eq!(misses, distinct.len() as u64, "one miss per distinct query");
    assert_eq!(hits + misses, 2 * queries.len() as u64);
}

#[test]
fn disk_engine_matches_memory_on_all_configs() {
    let cg = corpus();
    for config in [
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi { partition_size: 60 },
        FlixConfig::Monolithic(StrategyKind::Apex),
    ] {
        let flix = Flix::build(cg.clone(), config);
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 32));
        let dflix = DiskFlix::save_and_open(&flix, BlobStore::new(pool), "t", 4).unwrap();
        for q in descendant_queries(&cg, 5, 41) {
            assert_eq!(
                flix.find_descendants(q.start, q.target_tag, &QueryOptions::default()),
                dflix
                    .find_descendants(q.start, q.target_tag, &QueryOptions::default())
                    .unwrap(),
                "{config}"
            );
        }
    }
}

#[test]
fn tuning_workflow_improves_lookup_count() {
    let cg = corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::Naive);
    let title = cg.collection.tags.get("title").unwrap();
    let mut monitor = LoadMonitor::new();
    let starts: Vec<u32> = (0..cg.collection.doc_count() as u32)
        .rev()
        .take(15)
        .map(|d| cg.doc_root(d))
        .collect();
    for &s in &starts {
        let mut n = 0usize;
        let st = flix.for_each_descendant(s, title, &QueryOptions::default(), |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        monitor.record(st, n);
    }
    let before = monitor.avg_lookups();
    let Recommendation::Rebuild { suggestion, .. } = monitor.recommend(flix.config(), 5) else {
        panic!("link-heavy naive load must trigger a rebuild");
    };
    let rebuilt = Flix::build(cg.clone(), suggestion);
    let mut monitor2 = LoadMonitor::new();
    for &s in &starts {
        let mut n = 0usize;
        let st = rebuilt.for_each_descendant(s, title, &QueryOptions::default(), |_, _| {
            n += 1;
            ControlFlow::Continue(())
        });
        monitor2.record(st, n);
        // identical answers after the rebuild
        assert_eq!(
            flix.find_descendants(s, title, &QueryOptions::default())
                .len(),
            rebuilt
                .find_descendants(s, title, &QueryOptions::default())
                .len()
        );
    }
    assert!(
        monitor2.avg_lookups() < before,
        "rebuild must reduce lookups: {} -> {}",
        before,
        monitor2.avg_lookups()
    );
}

#[test]
fn vague_engine_on_dblp_ontology() {
    let cg = corpus();
    let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
    let mut sims = TagSimilarity::new();
    sims.add("paper", "article", 0.9)
        .add("paper", "inproceedings", 0.9);
    let engine = QueryEngine::new(&flix, sims, 0.8, 0.05);
    let q = PathQuery::parse(r#"//~paper//~paper"#).unwrap();
    let res = engine.evaluate(&q);
    assert!(!res.is_empty(), "citations connect papers to papers");
    for b in &res {
        let name = cg.collection.tags.name(cg.tag_of(b.node));
        assert!(name == "article" || name == "inproceedings");
        assert!(b.score <= 0.81 + 1e-9, "two ~paper hops cap the score");
    }
}
