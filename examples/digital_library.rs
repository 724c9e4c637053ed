//! Digital-library scenario: a DBLP-like citation corpus, compared across
//! FliX configurations — the paper's own evaluation setting (§6) in
//! example form.
//!
//! Run with: `cargo run --release --example digital_library`

#![forbid(unsafe_code)]

use flix::{Flix, FlixConfig, Query, QueryOptions, ResultStream, StrategyKind};
use flixobs::Stopwatch;
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized corpus (use DblpConfig::paper_scale() for the full 6,210
    // documents the paper used).
    let cfg = DblpConfig {
        documents: 1200,
        ..DblpConfig::default()
    };
    let graph = Arc::new(generate_dblp(&cfg).seal());
    let s = graph.stats();
    println!(
        "corpus: {} publications, {} elements, {} citation links",
        s.documents, s.elements, s.links
    );

    // Pick a richly citing recent paper as the query start element: its
    // descendants are the transitive closure of its reference list.
    let start_doc = (0..graph.collection.doc_count() as u32)
        .max_by_key(|&d| graph.doc_graph.out_degree(d))
        .ok_or("empty corpus")?;
    let start = graph.doc_root(start_doc);
    println!(
        "start element: root of {:?} ({} direct citations)\n",
        graph.collection.doc(start_doc).name,
        graph.doc_graph.out_degree(start_doc)
    );

    // "All `title` elements of publications reachable from this paper via
    // citations" — the paper's `a//article`-style query (§6).
    let title = graph.collection.tags.get("title").ok_or("no title tag")?;
    let configs = [
        FlixConfig::Monolithic(StrategyKind::Hopi),
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi {
            partition_size: 2000,
        },
    ];
    for config in configs {
        let t0 = Stopwatch::start();
        let flix = Flix::build(graph.clone(), config);
        let build = t0.elapsed();
        let t1 = Stopwatch::start();
        let results = flix.find_descendants(start, title, &QueryOptions::default());
        let full = t1.elapsed();
        let t2 = Stopwatch::start();
        let top10 = flix.find_descendants(start, title, &QueryOptions::top_k(10));
        let first10 = t2.elapsed();
        let st = flix.stats();
        println!(
            "{:<12} build {:>8.1?}  size {:>9} B  metas {:>4}  | {} results in {:>8.1?}, top-10 in {:>8.1?}",
            config.to_string(),
            build,
            st.index_bytes,
            st.meta_docs,
            results.len(),
            full,
            first10,
        );
        assert_eq!(top10.len(), 10.min(results.len()));
    }

    // Streaming: the paper's client/evaluator decoupling. Results arrive on
    // a channel while the evaluator keeps working; we stop after ten.
    println!("\nstreaming the ten nearest results:");
    let flix = Arc::new(Flix::build(graph.clone(), FlixConfig::MaximalPpo));
    let query = Query::descendants(start, title, QueryOptions::default());
    let stream = ResultStream::spawn(flix, query);
    for (i, r) in stream.take(10).enumerate() {
        let (doc, _) = graph.local_of(r.node);
        println!(
            "  #{:<2} dist {:>2}  {:?} — {:?}",
            i + 1,
            r.distance,
            graph.collection.doc(doc).name,
            graph.element(r.node).text()
        );
    }
    Ok(())
}
