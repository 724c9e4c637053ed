//! End-to-end XML round trip: generated collections are serialised to XML
//! text, re-parsed with the crate's own parser, re-sealed, and must yield
//! an identical union graph and identical query answers.

use flix::{Flix, FlixConfig, QueryOptions};
use std::sync::Arc;
use workloads::{descendant_queries, generate_dblp, DblpConfig};
use xmlgraph::{parse_document, write_document, Collection, LinkSpec};

fn reparse(original: &Collection) -> Collection {
    let spec = LinkSpec::default();
    let mut fresh = Collection::new();
    for (_, doc) in original.docs() {
        let text = write_document(doc, &original.tags);
        let parsed = parse_document(doc.name.clone(), &text, &mut fresh.tags, &spec)
            .unwrap_or_else(|e| panic!("re-parsing {}: {e}", doc.name));
        fresh.add_document(parsed).expect("unique names");
    }
    fresh
}

#[test]
fn dblp_corpus_survives_serialisation() {
    let original = generate_dblp(&DblpConfig::tiny(55));
    let reparsed = reparse(&original);

    let a = original.seal();
    let b = reparsed.seal();
    assert_eq!(a.stats().documents, b.stats().documents);
    assert_eq!(a.stats().elements, b.stats().elements);
    assert_eq!(a.stats().links, b.stats().links);
    assert_eq!(a.stats().edges, b.stats().edges);
    // The graphs must be identical edge for edge (same construction order).
    assert_eq!(a.graph, b.graph);
    // Tags may intern in a different order; compare by name.
    for u in 0..a.node_count() as u32 {
        assert_eq!(
            a.collection.tags.name(a.tag_of(u)),
            b.collection.tags.name(b.tag_of(u)),
            "tag of node {u}"
        );
    }
}

#[test]
fn queries_identical_after_round_trip() {
    let original = generate_dblp(&DblpConfig::tiny(56));
    let reparsed = reparse(&original);
    let a = Arc::new(original.seal());
    let b = Arc::new(reparsed.seal());

    let fa = Flix::build(a.clone(), FlixConfig::MaximalPpo);
    let fb = Flix::build(b.clone(), FlixConfig::MaximalPpo);
    for q in descendant_queries(&a, 6, 3) {
        // map the tag through names, since interning order may differ
        let tag_name = a.collection.tags.name(q.target_tag);
        let tag_b = b.collection.tags.get(tag_name).expect("tag exists");
        let ra = fa.find_descendants(q.start, q.target_tag, &QueryOptions::default());
        let rb = fb.find_descendants(q.start, tag_b, &QueryOptions::default());
        assert_eq!(ra, rb, "query from {} for {tag_name}", q.start);
    }
}

#[test]
fn written_xml_is_well_formed_with_escapes() {
    // Titles with markup-significant characters must survive.
    let mut c = Collection::new();
    let t = c.tags.intern("paper");
    let title_tag = c.tags.intern("title");
    let mut d = xmlgraph::Document::new("tricky.xml");
    let root = d.add_element(t, None);
    d.set_attr(root, "id", r#"a"b<c>&d"#);
    let title = d.add_element(title_tag, Some(root));
    d.append_text(title, "P < NP & other \"claims\"");
    c.add_document(d).unwrap();

    let text = write_document(c.doc(0), &c.tags);
    let mut fresh = Collection::new();
    let parsed =
        parse_document("tricky.xml", &text, &mut fresh.tags, &LinkSpec::default()).unwrap();
    assert_eq!(parsed.element(0).attr("id"), Some(r#"a"b<c>&d"#));
    assert_eq!(parsed.element(1).text(), "P < NP & other \"claims\"");
}
