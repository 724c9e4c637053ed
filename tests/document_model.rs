//! The flat-array `Document` against a plain model of the shape it replaced
//! — one owned element per node, a children list per node, a hash map of
//! anchors and owned link targets: random sequences of builder calls must
//! read back the same through every accessor, write the same XML, and seal
//! into the same collection graph.

use proptest::prelude::*;
use std::collections::HashMap;
use xmlgraph::{
    write_document, Collection, CollectionGraph, Document, LinkSpec, LinkTarget, LocalId,
    TagInterner,
};

/// Attribute names the generator picks from: the link conventions of
/// [`LinkSpec::default`] and one plain attribute.
const NAMES: [&str; 6] = ["id", "idref", "idrefs", "href", "xlink:href", "class"];

/// One element as the old model owned it.
#[derive(Debug, Clone)]
struct MirrorElement {
    tag: u32,
    parent: Option<LocalId>,
    attrs: Vec<(String, String)>,
    text: String,
}

/// The old element-per-object document.
#[derive(Debug, Default)]
struct Mirror {
    elements: Vec<MirrorElement>,
    children: Vec<Vec<LocalId>>,
    anchors: HashMap<String, LocalId>,
    links: Vec<(LocalId, LinkTarget)>,
}

impl Mirror {
    fn add_element(&mut self, tag: u32, parent: Option<LocalId>) -> LocalId {
        let id = self.elements.len() as LocalId;
        self.elements.push(MirrorElement {
            tag,
            parent,
            attrs: Vec::new(),
            text: String::new(),
        });
        self.children.push(Vec::new());
        if let Some(p) = parent {
            self.children[p as usize].push(id);
        }
        id
    }

    fn append_text(&mut self, el: LocalId, text: &str) {
        let piece = text.trim();
        if piece.is_empty() {
            return;
        }
        let t = &mut self.elements[el as usize].text;
        if !t.is_empty() {
            t.push(' ');
        }
        t.push_str(piece);
    }

    fn extract_links(&mut self, spec: &LinkSpec) {
        self.anchors.clear();
        self.links.clear();
        for (i, el) in self.elements.iter().enumerate() {
            for (name, value) in &el.attrs {
                if spec.is_anchor(name) {
                    self.anchors.insert(value.clone(), i as LocalId);
                }
                for t in spec.targets_of(name, value) {
                    self.links.push((i as LocalId, t.into()));
                }
            }
        }
    }

    fn payload_bytes(&self) -> usize {
        self.elements
            .iter()
            .map(|e| {
                e.text.len()
                    + e.attrs
                        .iter()
                        .map(|(k, v)| k.len() + v.len())
                        .sum::<usize>()
            })
            .sum()
    }

    /// The recursive writer, with indentation capped at 32 levels.
    fn write(&self, tags: &TagInterner) -> String {
        let mut out = String::from("<?xml version=\"1.0\"?>\n");
        if !self.elements.is_empty() {
            self.write_element(tags, 0, 0, &mut out);
        }
        out
    }

    fn write_element(&self, tags: &TagInterner, el: LocalId, depth: usize, out: &mut String) {
        let e = &self.elements[el as usize];
        let indent = "  ".repeat(depth.min(32));
        let name = tags.name(e.tag);
        out.push_str(&format!("{indent}<{name}"));
        for (k, v) in &e.attrs {
            let v = v
                .replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('"', "&quot;");
            out.push_str(&format!(" {k}=\"{v}\""));
        }
        let kids = &self.children[el as usize];
        if kids.is_empty() && e.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        out.push_str(
            &e.text
                .replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;"),
        );
        if kids.is_empty() {
            out.push_str(&format!("</{name}>\n"));
            return;
        }
        out.push('\n');
        for &k in kids {
            self.write_element(tags, k, depth + 1, out);
        }
        out.push_str(&format!("{indent}</{name}>\n"));
    }
}

/// One builder call; element indices are taken modulo the elements so far.
#[derive(Debug, Clone)]
enum Op {
    Element(usize, u32),
    Attr(usize, usize, String),
    Text(usize, String),
    Anchor(String, usize),
    Link(usize, Option<String>, Option<String>),
    Extract,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let value = || "[ab #.]{0,6}";
    let short = || "[ab]{1,2}";
    prop_oneof![
        (any::<usize>(), 0u32..4).prop_map(|(p, t)| Op::Element(p, t)),
        (any::<usize>(), 0..NAMES.len(), value()).prop_map(|(e, n, v)| Op::Attr(e, n, v)),
        (any::<usize>(), "[ab \t\n&<]{0,5}").prop_map(|(e, t)| Op::Text(e, t)),
        (short(), any::<usize>()).prop_map(|(id, e)| Op::Anchor(id, e)),
        (
            any::<usize>(),
            proptest::option::of(short()),
            proptest::option::of(short())
        )
            .prop_map(|(e, d, f)| Op::Link(e, d, f)),
        Just(Op::Extract),
    ]
}

/// Applies `ops` to a fresh document and to the mirror, after a root.
fn build(name: &str, ops: &[Op]) -> (Document, Mirror) {
    let spec = LinkSpec::default();
    let mut doc = Document::new(name);
    let mut mirror = Mirror::default();
    doc.add_element(0, None);
    mirror.add_element(0, None);
    for op in ops {
        let el = |i: &usize| (i % doc.len()) as LocalId;
        match op {
            Op::Element(p, tag) => {
                let (p, tag) = (Some(el(p)), *tag);
                assert_eq!(doc.add_element(tag, p), mirror.add_element(tag, p));
            }
            Op::Attr(e, n, v) => {
                let e = el(e);
                doc.set_attr(e, NAMES[*n], v);
                mirror.elements[e as usize]
                    .attrs
                    .push((NAMES[*n].to_string(), v.clone()));
            }
            Op::Text(e, t) => {
                let e = el(e);
                doc.append_text(e, t);
                mirror.append_text(e, t);
            }
            Op::Anchor(id, e) => {
                let e = el(e);
                doc.add_anchor(id, e);
                mirror.anchors.insert(id.clone(), e);
            }
            Op::Link(e, document, fragment) => {
                let e = el(e);
                let target = LinkTarget {
                    document: document.clone(),
                    fragment: fragment.clone(),
                };
                doc.add_link(e, target.clone());
                mirror.links.push((e, target));
            }
            Op::Extract => {
                doc.extract_links(&spec);
                mirror.extract_links(&spec);
            }
        }
    }
    (doc, mirror)
}

fn tags() -> TagInterner {
    let mut tags = TagInterner::new();
    for name in ["a", "b", "c", "d"] {
        tags.intern(name);
    }
    tags
}

/// Every accessor of `doc` against the mirror.
fn agree(doc: &Document, mirror: &Mirror, tags: &TagInterner) -> Result<(), TestCaseError> {
    prop_assert_eq!(doc.len(), mirror.elements.len());
    for (i, want) in mirror.elements.iter().enumerate() {
        let i = i as LocalId;
        let got = doc.element(i);
        prop_assert_eq!(got.tag, want.tag);
        prop_assert_eq!(got.parent, want.parent);
        prop_assert_eq!(got.text(), want.text.as_str());
        let attrs: Vec<(&str, &str)> = want
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        prop_assert_eq!(got.attrs().collect::<Vec<_>>(), attrs);
        for name in NAMES.iter().chain(&["missing"]) {
            let first = want.attrs.iter().find(|(k, _)| k == name);
            prop_assert_eq!(got.attr(name), first.map(|(_, v)| v.as_str()));
        }
        prop_assert_eq!(
            doc.children(i).collect::<Vec<_>>(),
            mirror.children[i as usize].clone()
        );
        prop_assert_eq!(doc.elements().nth(i as usize).map(|(j, _)| j), Some(i));
    }
    let mut anchors: Vec<(&str, LocalId)> = mirror
        .anchors
        .iter()
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    anchors.sort_unstable();
    prop_assert_eq!(doc.anchors().collect::<Vec<_>>(), anchors);
    for id in ["a", "b", "aa", "ab", "ba", "bb", "missing"] {
        prop_assert_eq!(doc.anchor(id), mirror.anchors.get(id).copied());
    }
    let links: Vec<(LocalId, LinkTarget)> = doc.links().map(|(e, t)| (e, t.into())).collect();
    prop_assert_eq!(links, mirror.links.clone());
    prop_assert_eq!(doc.links().len(), mirror.links.len());
    prop_assert_eq!(doc.payload_bytes(), mirror.payload_bytes());
    prop_assert_eq!(write_document(doc, tags), mirror.write(tags));
    Ok(())
}

fn collection(docs: Vec<Document>) -> Collection {
    let mut c = Collection::new();
    c.tags = tags();
    for d in docs {
        c.add_document(d).unwrap();
    }
    c
}

/// Every node of `cg` that `base` has keeps its document, tag and element.
fn same_prefix(base: &CollectionGraph, cg: &CollectionGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(&cg.node_base[..base.node_base.len()], &base.node_base[..]);
    for node in 0..base.node_count() as u32 {
        prop_assert_eq!(cg.local_of(node), base.local_of(node));
        prop_assert_eq!(cg.tag_of(node), base.tag_of(node));
        let (a, b) = (base.element(node), cg.element(node));
        prop_assert_eq!((a.tag, a.parent, a.text()), (b.tag, b.parent, b.text()));
        prop_assert!(a.attrs().eq(b.attrs()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_document_matches_the_element_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let (doc, mirror) = build("prop.xml", &ops);
        agree(&doc, &mirror, &tags())?;
        // Adding a document to a collection releases spare capacity only.
        let c = collection(vec![doc]);
        agree(c.doc(0), &mirror, &tags())?;
    }

    /// Documents sealed after others leave every node of the others where
    /// a collection of the others alone put it, number their own elements
    /// after them, and resolve the links the others made to them.
    #[test]
    fn later_documents_keep_the_node_ids_of_earlier_ones(
        docs in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..30), 1..5),
        more in proptest::collection::vec(proptest::collection::vec(arb_op(), 0..30), 1..4),
    ) {
        let built = |ops: &[Vec<Op>], prefix: &str| -> Vec<Document> {
            ops.iter()
                .enumerate()
                .map(|(i, ops)| {
                    let (mut d, _) = build(&format!("{prefix}{i}.xml"), ops);
                    // Links name documents by these names; resolve some.
                    d.add_link(0, LinkTarget { document: Some(format!("new{i}.xml")), fragment: None });
                    d
                })
                .collect()
        };
        let base = collection(built(&docs, "old")).seal();
        let fresh = built(&more, "new");
        let grown = collection(built(&docs, "old").into_iter().chain(fresh.clone()).collect()).seal();
        same_prefix(&base, &grown)?;
        prop_assert_eq!(grown.collection.doc_count(), docs.len() + more.len());
        for (i, d) in fresh.iter().enumerate() {
            let doc_id = (docs.len() + i) as u32;
            for (local, want) in d.elements() {
                let got = grown.element(grown.global(doc_id, local));
                prop_assert_eq!((got.tag, got.parent, got.text()), (want.tag, want.parent, want.text()));
            }
        }
        for i in 0..docs.len().min(more.len()) {
            let (old, new) = (grown.doc_root(i as u32), grown.doc_root((docs.len() + i) as u32));
            prop_assert!(grown.graph.has_edge(old, new), "old{}.xml -> new{}.xml", i, i);
        }
    }
}
