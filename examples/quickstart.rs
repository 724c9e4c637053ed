//! Quickstart: parse linked XML documents, build a FliX framework, and run
//! descendants and connection queries across document borders.
//!
//! Run with: `cargo run --example quickstart`

#![forbid(unsafe_code)]

use flix::{Flix, FlixConfig, Query, QueryCtx, QueryOptions};
use std::sync::Arc;
use xmlgraph::{parse_document, Collection, LinkSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three small documents: a thesis cites a paper, the paper cites a
    // book chapter inside another document (fragment link).
    let thesis = r#"<?xml version="1.0"?>
        <thesis id="t1">
          <title>Indexing Linked XML</title>
          <chapter>
            <section>
              <cite xlink:href="paper.xml"/>
            </section>
          </chapter>
        </thesis>"#;
    let paper = r#"
        <paper id="p1">
          <title>HOPI: An Efficient Connection Index</title>
          <related>
            <cite xlink:href="book.xml#ch2"/>
          </related>
        </paper>"#;
    let book = r#"
        <book id="b1">
          <chapter id="ch1"><title>Foundations</title></chapter>
          <chapter id="ch2"><title>Two-Hop Covers</title>
            <section><paper>embedded survey</paper></section>
          </chapter>
        </book>"#;

    let spec = LinkSpec::default();
    let mut coll = Collection::new();
    for (name, text) in [
        ("thesis.xml", thesis),
        ("paper.xml", paper),
        ("book.xml", book),
    ] {
        let doc = parse_document(name, text, &mut coll.tags, &spec)
            .map_err(|e| format!("parsing {name}: {e}"))?;
        coll.add_document(doc)?;
    }

    let graph = Arc::new(coll.seal());
    let stats = graph.stats();
    println!(
        "collection: {} documents, {} elements, {} links, {} tags",
        stats.documents, stats.elements, stats.links, stats.tags
    );

    // Build FliX. The Naive configuration gives each document its own meta
    // document; the strategy selector picks PPO for all three (they are
    // trees) and the citation links become runtime links.
    let flix = Flix::build(graph.clone(), FlixConfig::Naive);
    let fstats = flix.stats();
    println!(
        "framework: {} meta documents ({} PPO / {} HOPI / {} APEX), {} runtime links, {} bytes",
        fstats.meta_docs,
        fstats.ppo_metas,
        fstats.hopi_metas,
        fstats.apex_metas,
        fstats.runtime_links,
        fstats.index_bytes
    );

    // Query: every `title` reachable from the thesis root — its own title,
    // the cited paper's, and the transitively cited book chapter's.
    let title = graph.collection.tags.get("title").ok_or("no title tag")?;
    let thesis_root = graph.doc_root(0);
    println!("\nthesis//title (descendants across citation links):");
    for r in flix.find_descendants(thesis_root, title, &QueryOptions::default()) {
        let (doc, _) = graph.local_of(r.node);
        println!(
            "  dist {:>2}  [{}] {:?}",
            r.distance,
            graph.collection.doc(doc).name,
            graph.element(r.node).text()
        );
    }

    // Connection test: is the book's chapter 2 reachable from the thesis?
    let ch2 = graph.global(
        2,
        graph
            .collection
            .doc(2)
            .anchor("ch2")
            .ok_or("anchor ch2 missing")?,
    );
    let connect = |from, to| Query::connection(from, to, false, QueryOptions::default());
    let forward = flix.evaluate(&connect(thesis_root, ch2), &mut QueryCtx::default());
    match forward.distance() {
        Some(d) => println!("\nthesis //=> book#ch2: connected at distance {d}"),
        None => println!("\nthesis //=> book#ch2: not connected"),
    }
    // ...and the reverse direction is not:
    assert!(flix
        .evaluate(&connect(ch2, thesis_root), &mut QueryCtx::default())
        .distance()
        .is_none());
    println!("book#ch2 //=> thesis: not connected (as expected)");
    Ok(())
}
