//! Property tests for the XML layer: arbitrary generated documents must
//! survive write → parse → write round trips, and the binary codec must
//! reject corrupt input gracefully.

use proptest::prelude::*;
use xmlgraph::{parse_document, write_document, Collection, Document, LinkSpec, TagInterner};

/// Strategy for tag-like names.
fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}".prop_map(|s| s)
}

/// Strategy for one text piece or attribute value (printable, including
/// XML-hostile chars and whitespace; may be empty or blank).
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
            Just(' '),
            Just('\n'),
            Just('\t'),
            Just('ß'),
            Just('€'),
        ],
        0..20,
    )
    .prop_map(|cs| cs.into_iter().collect::<String>())
}

/// Builds a random document: a tree of up to 25 elements, then attributes
/// and `append_text` pieces on any of them, interleaved, so one element
/// can get several pieces (blank ones included) around other elements'.
fn arb_document() -> impl Strategy<Value = (Document, TagInterner)> {
    (
        proptest::collection::vec(arb_name(), 1..25),
        proptest::collection::vec((any::<bool>(), 0usize..25, arb_name(), arb_text()), 0..40),
    )
        .prop_map(|(elements, edits)| {
            let mut tags = TagInterner::new();
            let mut doc = Document::new("prop.xml");
            for (i, name) in elements.iter().enumerate() {
                let tag = tags.intern(name);
                let parent = if i == 0 {
                    None
                } else {
                    Some(((i as u32).wrapping_mul(7919)) % i as u32)
                };
                doc.add_element(tag, parent);
            }
            for (is_attr, el, name, value) in &edits {
                let el = (el % doc.len()) as u32;
                if *is_attr {
                    doc.set_attr(el, name, value);
                } else {
                    doc.append_text(el, value);
                }
            }
            (doc, tags)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_round_trip((doc, mut tags) in arb_document()) {
        let text = write_document(&doc, &tags);
        let parsed = parse_document("prop.xml", &text, &mut tags, &LinkSpec::default())
            .expect("own writer output must parse");
        prop_assert_eq!(doc.len(), parsed.len());
        for (i, el) in doc.elements() {
            let pel = parsed.element(i);
            prop_assert_eq!(tags.name(el.tag), tags.name(pel.tag));
            prop_assert_eq!(el.parent, pel.parent);
            prop_assert_eq!(el.attrs().collect::<Vec<_>>(), pel.attrs().collect::<Vec<_>>());
            prop_assert_eq!(el.text(), pel.text());
        }
        // second round trip is a fixpoint
        let text2 = write_document(&parsed, &tags);
        prop_assert_eq!(text, text2);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,120}") {
        let mut tags = TagInterner::new();
        let _ = parse_document("fuzz.xml", &input, &mut tags, &LinkSpec::default());
    }

    #[test]
    fn codec_never_panics_on_corrupt_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // decoding random bytes as structured types must error, not panic
        let _ = pagestore::from_bytes::<Vec<(u32, String)>>(&bytes);
        let _ = pagestore::from_bytes::<String>(&bytes);
        let _ = pagestore::from_bytes::<Vec<Vec<u64>>>(&bytes);
    }

    #[test]
    fn collection_seal_total_on_random_links(
        links in proptest::collection::vec((0u32..5, 0u32..5, proptest::option::of(0u32..6)), 0..20)
    ) {
        // arbitrary (possibly dangling) links never break sealing
        let mut c = Collection::new();
        let t = c.tags.intern("x");
        for i in 0..5u32 {
            let mut d = Document::new(format!("d{i}.xml"));
            let r = d.add_element(t, None);
            let k = d.add_element(t, Some(r));
            d.add_anchor("a", k);
            c.add_document(d).unwrap();
        }
        for (src_doc, src_el, target) in &links {
            let target = match target {
                Some(td) if *td < 5 => xmlgraph::LinkTarget {
                    document: Some(format!("d{td}.xml")),
                    fragment: Some("a".into()),
                },
                Some(td) => xmlgraph::LinkTarget {
                    document: Some(format!("missing{td}.xml")),
                    fragment: None,
                },
                None => xmlgraph::LinkTarget {
                    document: None,
                    fragment: Some("nope".into()),
                },
            };
            c.doc_mut(*src_doc).add_link(*src_el % 2, target);
        }
        let cg = c.seal();
        prop_assert_eq!(cg.node_count(), 10);
        // every resolved link edge exists in the graph
        for &(u, v) in &cg.link_edges {
            prop_assert!(cg.graph.has_edge(u, v));
        }
    }
}
