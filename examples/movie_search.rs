//! Movie-search scenario: the paper's §1.1 motivating example.
//!
//! The query `/movie[title="Matrix: Revolutions"]/actor/movie` fails on
//! heterogeneous data: one source tags films `science-fiction`, titles
//! differ, and the path is longer than one step. The relaxed query
//! `//~movie[title ~ "Matrix: Revolutions"]//~actor//~movie` matches
//! similar tags (from an ontology) and decays relevance with path length.
//!
//! Run with: `cargo run --example movie_search`

#![forbid(unsafe_code)]

use flix::{Flix, FlixConfig, PathQuery, QueryEngine, TagSimilarity};
use std::sync::Arc;
use xmlgraph::{parse_document, Collection, LinkSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two film databases with different schemas, linked by an actor page.
    let imdb_like = r#"
        <movie id="m1">
          <title>Matrix: Revolutions</title>
          <cast>
            <actor id="a1">Keanu Reeves
              <appears-in xlink:href="scifidb.xml#sf1"/>
              <appears-in xlink:href="scifidb.xml#sf2"/>
            </actor>
            <actor id="a2">Carrie-Anne Moss</actor>
          </cast>
        </movie>"#;
    let scifi_db = r#"
        <collection id="c1">
          <science-fiction id="sf1">
            <name>Matrix 3</name>
            <starring>Keanu Reeves</starring>
          </science-fiction>
          <science-fiction id="sf2">
            <name>Johnny Mnemonic</name>
            <starring>Keanu Reeves</starring>
          </science-fiction>
          <documentary id="d1"><name>Making of The Matrix</name></documentary>
        </collection>"#;

    let spec = LinkSpec::default();
    let mut coll = Collection::new();
    for (name, text) in [("imdb.xml", imdb_like), ("scifidb.xml", scifi_db)] {
        let doc = parse_document(name, text, &mut coll.tags, &spec).map_err(|e| e.to_string())?;
        coll.add_document(doc)?;
    }
    let graph = Arc::new(coll.seal());
    let flix = Flix::build(graph.clone(), FlixConfig::Naive);

    // The ontology: `science-fiction` is a kind of `movie`; a documentary
    // is only loosely one.
    let mut sims = TagSimilarity::new();
    sims.add("movie", "science-fiction", 0.9)
        .add("movie", "documentary", 0.3)
        .add("actor", "starring", 0.7);
    let engine = QueryEngine::new(&flix, sims, 0.8, 0.1);
    // The data tag a binding matched (may differ from the query tag).
    let matched_tag = |node| graph.collection.tags.name(graph.tag_of(node));

    // Step 1 of //~movie//~actor//~movie: find the actors under the movie.
    let movie_root = graph.doc_root(0);
    println!("~actor descendants of the Matrix movie:");
    let actors = engine.evaluate_from(movie_root, &PathQuery::parse("//~actor")?);
    for r in &actors {
        println!(
            "  score {:.2}  <{}> {:?}",
            r.score,
            matched_tag(r.node),
            graph.element(r.node).text()
        );
    }

    // Step 2: movies those actors appear in — through the cross-database
    // `appears-in` links, with `science-fiction` matching `~movie`.
    let keanu = actors
        .iter()
        .find(|r| graph.element(r.node).text().contains("Keanu"))
        .ok_or("Keanu not found")?;
    println!("\n~movie descendants of that actor (films via links):");
    let movies = engine.evaluate_from(keanu.node, &PathQuery::parse("//~movie")?);
    for r in &movies {
        let title_tag = graph
            .collection
            .tags
            .get("name")
            .or_else(|| graph.collection.tags.get("title"))
            .ok_or("no name/title tag")?;
        let title = flix
            .find_descendants(r.node, title_tag, &flix::QueryOptions::default())
            .first()
            .map(|t| graph.element(t.node).text().to_string())
            .unwrap_or_default();
        println!(
            "  score {:.2}  <{}> {}",
            r.score,
            matched_tag(r.node),
            title
        );
    }
    assert!(
        movies
            .iter()
            .any(|r| matched_tag(r.node) == "science-fiction"),
        "the relaxed query must find the science-fiction films"
    );
    println!("\nThe strict query /movie/actor/movie would have returned nothing.");
    Ok(())
}
