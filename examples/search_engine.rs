//! A miniature XML search engine on top of FliX: the paper's Figure-2
//! stack (query processor above the Path Expression Evaluator), plus the
//! §7 operational features — query caching and load-driven self-tuning.
//!
//! Run with: `cargo run --release --example search_engine`

#![forbid(unsafe_code)]

use flix::{
    CachedFlix, Flix, FlixConfig, LoadMonitor, PathQuery, QueryEngine, QueryOptions,
    Recommendation, TagSimilarity,
};
use std::ops::ControlFlow;
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = DblpConfig {
        documents: 800,
        ..DblpConfig::default()
    };
    let graph = Arc::new(generate_dblp(&cfg).seal());
    println!(
        "library: {} publications, {} elements, {} citation links\n",
        graph.stats().documents,
        graph.stats().elements,
        graph.stats().links
    );
    let flix = Arc::new(Flix::build(graph.clone(), FlixConfig::Naive));

    // --- Path-expression queries (§1.1 style) -------------------------
    let mut sims = TagSimilarity::new();
    sims.add("publication", "article", 0.95)
        .add("publication", "inproceedings", 0.9)
        .add("reference", "cite", 0.9);
    let engine = QueryEngine::new(&flix, sims, 0.85, 0.05);

    let queries = [
        r#"//~publication[booktitle = "VLDB"]"#,
        r#"//inproceedings//cite//~publication"#,
        r#"//~publication[title ~ "Indexing XML"]"#,
    ];
    for text in queries {
        let q = PathQuery::parse(text)?;
        let res = engine.evaluate(&q);
        println!("{text}");
        println!("  {} results; top 3:", res.len());
        for b in res.iter().take(3) {
            let (doc, _) = graph.local_of(b.node);
            println!(
                "    score {:.2}  {:?} <{}>",
                b.score,
                graph.collection.doc(doc).name,
                graph.collection.tags.name(graph.tag_of(b.node))
            );
        }
    }

    // --- Query cache (§7: caching frequent sub-queries) ----------------
    let cached = CachedFlix::new(flix.clone(), 128);
    let title = graph.collection.tags.get("title").ok_or("no title tag")?;
    let hot_start = graph.doc_root(0);
    for _ in 0..50 {
        let _warm = cached.find_descendants(hot_start, title, &QueryOptions::default());
    }
    let (hits, misses) = cached.stats();
    println!("\nquery cache after 50 repeats of one hot query: {hits} hits, {misses} miss(es)");

    // --- Self-tuning (§7: watch the load, re-plan the build) -----------
    let mut monitor = LoadMonitor::new();
    // a link-heavy workload: long-range descendant scans from late papers
    for d in (0..graph.collection.doc_count() as u32).rev().take(30) {
        let start = graph.doc_root(d);
        let mut results = 0usize;
        let stats = flix.for_each_descendant(start, title, &QueryOptions::default(), |_, _| {
            results += 1;
            ControlFlow::Continue(())
        });
        monitor.record(stats, results);
    }
    println!(
        "load monitor: {} queries, {:.1} meta-document lookups and {:.1} links per query",
        monitor.queries(),
        monitor.avg_lookups(),
        monitor.avg_links()
    );
    match monitor.recommend(flix.config(), 10) {
        Recommendation::Keep => println!("recommendation: keep {}", flix.config()),
        Recommendation::Rebuild { suggestion, reason } => {
            println!("recommendation: rebuild as {suggestion} — {reason}");
            let rebuilt = Flix::build(graph.clone(), suggestion);
            println!(
                "rebuilt: {} meta documents (was {})",
                rebuilt.meta_count(),
                flix.meta_count()
            );
        }
    }
    Ok(())
}
