//! Element trees, document collections, and the sealed union graph `G_X`.

use crate::links::{LinkSpec, LinkTarget};
use graphcore::{Digraph, DigraphBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interned tag-name identifier.
pub type TagId = u32;

/// Element index local to one document (0 is the root).
pub type LocalId = u32;

/// Bidirectional interner for element tag names.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TagInterner {
    names: Vec<String>,
    #[serde(skip)]
    map: HashMap<String, TagId>,
}

impl TagInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.names.len() as TagId;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), id);
        id
    }

    /// Looks a name up without interning.
    pub fn get(&self, name: &str) -> Option<TagId> {
        self.map.get(name).copied()
    }

    /// The name behind an id.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct tags.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no tag has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Rebuilds the lookup map after deserialisation.
    pub fn rebuild_map(&mut self) {
        self.map = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as TagId))
            .collect();
    }
}

/// One XML element: tag, parent pointer, attributes, and direct text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Element {
    /// Interned tag name.
    pub tag: TagId,
    /// Parent element, `None` for the document root.
    pub parent: Option<LocalId>,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Concatenated direct text content (trimmed).
    pub text: String,
}

impl Element {
    /// Attribute value lookup.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A single XML document: an element tree plus its extracted links.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Document {
    /// Document name (unique within a collection), e.g. `conf/vldb/X.xml`.
    pub name: String,
    elements: Vec<Element>,
    children: Vec<Vec<LocalId>>,
    /// Anchor id -> element carrying it.
    anchors: HashMap<String, LocalId>,
    /// Extracted links `(source element, target)`.
    links: Vec<(LocalId, LinkTarget)>,
}

impl Document {
    /// Creates an empty document (no root yet).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            elements: Vec::new(),
            children: Vec::new(),
            anchors: HashMap::new(),
            links: Vec::new(),
        }
    }

    /// Appends an element. The first element must be the root
    /// (`parent == None`); all later elements need an existing parent.
    ///
    /// # Panics
    /// On a second root or a dangling parent id.
    pub fn add_element(&mut self, tag: TagId, parent: Option<LocalId>) -> LocalId {
        match parent {
            None => assert!(self.elements.is_empty(), "document already has a root"),
            Some(p) => assert!(
                (p as usize) < self.elements.len(),
                "parent {p} does not exist"
            ),
        }
        let id = self.elements.len() as LocalId;
        self.elements.push(Element {
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

    /// Sets an attribute on an element (appends; duplicate names are the
    /// caller's responsibility, as in raw XML).
    pub fn set_attr(&mut self, el: LocalId, name: impl Into<String>, value: impl Into<String>) {
        self.elements[el as usize]
            .attrs
            .push((name.into(), value.into()));
    }

    /// Appends text content to an element.
    pub fn append_text(&mut self, el: LocalId, text: &str) {
        let t = &mut self.elements[el as usize].text;
        if !t.is_empty() && !text.is_empty() {
            t.push(' ');
        }
        t.push_str(text.trim());
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the document has no elements yet.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The root element id (0). Panics on an empty document.
    pub fn root(&self) -> LocalId {
        assert!(!self.elements.is_empty(), "empty document has no root");
        0
    }

    /// Element accessor.
    pub fn element(&self, id: LocalId) -> &Element {
        &self.elements[id as usize]
    }

    /// Children of an element in document order.
    pub fn children(&self, id: LocalId) -> &[LocalId] {
        &self.children[id as usize]
    }

    /// All elements with their ids, in document (pre-)order.
    pub fn elements(&self) -> impl Iterator<Item = (LocalId, &Element)> {
        self.elements
            .iter()
            .enumerate()
            .map(|(i, e)| (i as LocalId, e))
    }

    /// Extracted links.
    pub fn links(&self) -> &[(LocalId, LinkTarget)] {
        &self.links
    }

    /// Element carrying anchor `id`, if any.
    pub fn anchor(&self, id: &str) -> Option<LocalId> {
        self.anchors.get(id).copied()
    }

    /// All registered anchors as `(id, element)` pairs (unordered).
    pub fn anchors(&self) -> impl Iterator<Item = (&str, LocalId)> {
        self.anchors.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Records a link explicitly (used by generators that do not go through
    /// attribute extraction).
    pub fn add_link(&mut self, source: LocalId, target: LinkTarget) {
        assert!((source as usize) < self.elements.len());
        self.links.push((source, target));
    }

    /// Registers an anchor explicitly.
    pub fn add_anchor(&mut self, id: impl Into<String>, el: LocalId) {
        self.anchors.insert(id.into(), el);
    }

    /// Scans attributes with `spec` and (re)builds anchors and links.
    pub fn extract_links(&mut self, spec: &LinkSpec) {
        self.anchors.clear();
        self.links.clear();
        let mut found: Vec<(LocalId, LinkTarget)> = Vec::new();
        for (i, el) in self.elements.iter().enumerate() {
            for (name, value) in &el.attrs {
                if spec.is_anchor(name) {
                    self.anchors.insert(value.clone(), i as LocalId);
                }
                for t in spec.targets_of(name, value) {
                    found.push((i as LocalId, t));
                }
            }
        }
        self.links = found;
    }

    /// Total bytes of text + attribute payload (used for corpus-size stats).
    pub fn payload_bytes(&self) -> usize {
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
}

/// A mutable collection of documents, pre-sealing.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    /// Shared tag interner across all documents.
    pub tags: TagInterner,
    docs: Vec<Document>,
    doc_index: HashMap<String, u32>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document. Returns its id, or an error on a duplicate name.
    pub fn add_document(&mut self, doc: Document) -> Result<u32, String> {
        if self.doc_index.contains_key(&doc.name) {
            return Err(format!("duplicate document name {:?}", doc.name));
        }
        let id = self.docs.len() as u32;
        self.doc_index.insert(doc.name.clone(), id);
        self.docs.push(doc);
        Ok(id)
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Document accessor.
    pub fn doc(&self, id: u32) -> &Document {
        &self.docs[id as usize]
    }

    /// Mutable document accessor.
    pub fn doc_mut(&mut self, id: u32) -> &mut Document {
        &mut self.docs[id as usize]
    }

    /// Iterates over `(doc_id, document)`.
    pub fn docs(&self) -> impl Iterator<Item = (u32, &Document)> {
        self.docs.iter().enumerate().map(|(i, d)| (i as u32, d))
    }

    /// Resolves all links and freezes the collection into a
    /// [`CollectionGraph`]. Links to unknown documents or anchors are
    /// counted as dangling and dropped.
    pub fn seal(self) -> CollectionGraph {
        let n_docs = self.docs.len();
        let mut node_base = Vec::with_capacity(n_docs + 1);
        let mut total = 0u32;
        for d in &self.docs {
            node_base.push(total);
            total += d.len() as u32;
        }
        node_base.push(total);
        let n = total as usize;

        let mut node_doc = vec![0u32; n];
        let mut node_tag = vec![0 as TagId; n];
        let mut builder = DigraphBuilder::with_nodes(n);
        for (d, doc) in self.docs.iter().enumerate() {
            let base = node_base[d];
            for (local, el) in doc.elements() {
                let g = base + local;
                node_doc[g as usize] = d as u32;
                node_tag[g as usize] = el.tag;
                if let Some(p) = el.parent {
                    builder.add_edge(base + p, g);
                }
            }
        }

        let mut link_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut dangling = 0usize;
        let mut doc_links: Vec<(u32, u32)> = Vec::new();
        for (d, doc) in self.docs.iter().enumerate() {
            let base = node_base[d];
            for (src_local, target) in doc.links() {
                let target_doc = match &target.document {
                    None => d as u32,
                    Some(name) => match self.doc_index.get(name) {
                        Some(&t) => t,
                        None => {
                            dangling += 1;
                            continue;
                        }
                    },
                };
                let tdoc = &self.docs[target_doc as usize];
                if tdoc.is_empty() {
                    dangling += 1;
                    continue;
                }
                let target_local = match &target.fragment {
                    None => tdoc.root(),
                    Some(frag) => match tdoc.anchor(frag) {
                        Some(l) => l,
                        None => {
                            dangling += 1;
                            continue;
                        }
                    },
                };
                let src = base + src_local;
                let dst = node_base[target_doc as usize] + target_local;
                if src != dst {
                    builder.add_edge(src, dst);
                    link_edges.push((src, dst));
                    if d as u32 != target_doc {
                        doc_links.push((d as u32, target_doc));
                    }
                }
            }
        }
        link_edges.sort_unstable();
        link_edges.dedup();

        let mut nodes_by_tag: Vec<Vec<NodeId>> = vec![Vec::new(); self.tags.len()];
        for (i, &t) in node_tag.iter().enumerate() {
            nodes_by_tag[t as usize].push(i as NodeId);
        }

        let doc_graph = Digraph::from_edges(n_docs, doc_links);

        CollectionGraph {
            graph: builder.build(),
            node_base,
            node_doc,
            node_tag,
            nodes_by_tag,
            link_edges,
            doc_graph,
            dangling_links: dangling,
            collection: self,
        }
    }
}

/// The sealed union graph `G_X` of a collection, with node metadata.
///
/// Global node ids are dense: document `d`'s element `l` is node
/// `node_base[d] + l`, so all per-node metadata lives in flat arrays.
#[derive(Debug, Clone)]
pub struct CollectionGraph {
    /// The original collection (documents, tags, text).
    pub collection: Collection,
    /// Union graph: tree edges plus resolved link edges.
    pub graph: Digraph,
    /// `node_base[d]` = global id of document `d`'s root; one extra entry
    /// holds the total node count.
    pub node_base: Vec<u32>,
    /// Document of each global node.
    pub node_doc: Vec<u32>,
    /// Tag of each global node.
    pub node_tag: Vec<TagId>,
    /// Global nodes per tag, ascending.
    pub nodes_by_tag: Vec<Vec<NodeId>>,
    /// Resolved link edges (sorted). A link edge may coincide with a tree
    /// edge; the union graph stores it once.
    pub link_edges: Vec<(NodeId, NodeId)>,
    /// Document-level graph: an edge `d1 -> d2` for every inter-document
    /// link (deduplicated).
    pub doc_graph: Digraph,
    /// Number of links that pointed at unknown documents or anchors.
    pub dangling_links: usize,
}

impl CollectionGraph {
    /// Total number of element nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Global id of `(doc, local)`.
    pub fn global(&self, doc: u32, local: LocalId) -> NodeId {
        debug_assert!(local < self.node_base[doc as usize + 1] - self.node_base[doc as usize]);
        self.node_base[doc as usize] + local
    }

    /// Inverse of [`Self::global`].
    pub fn local_of(&self, node: NodeId) -> (u32, LocalId) {
        let doc = self.node_doc[node as usize];
        (doc, node - self.node_base[doc as usize])
    }

    /// Tag of a node.
    pub fn tag_of(&self, node: NodeId) -> TagId {
        self.node_tag[node as usize]
    }

    /// Document of a node.
    pub fn doc_of(&self, node: NodeId) -> u32 {
        self.node_doc[node as usize]
    }

    /// The element data behind a node.
    pub fn element(&self, node: NodeId) -> &Element {
        let (doc, local) = self.local_of(node);
        self.collection.doc(doc).element(local)
    }

    /// Root node of a document.
    pub fn doc_root(&self, doc: u32) -> NodeId {
        self.node_base[doc as usize]
    }

    /// All nodes carrying `tag`, ascending.
    pub fn nodes_with_tag(&self, tag: TagId) -> &[NodeId] {
        self.nodes_by_tag
            .get(tag as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True if `u -> v` is a link edge (rather than a pure tree edge).
    pub fn is_link_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.link_edges.binary_search(&(u, v)).is_ok()
    }

    /// Number of resolved link edges.
    pub fn link_count(&self) -> usize {
        self.link_edges.len()
    }

    /// Extends the collection with additional documents and re-seals.
    ///
    /// Existing global node ids, document ids, and tag ids are stable:
    /// node ids are dense per document in document order, and new
    /// documents only append. Previously dangling links that the new
    /// documents resolve become real edges.
    ///
    /// # Errors
    /// On duplicate document names.
    pub fn extend(&self, new_docs: Vec<Document>) -> Result<CollectionGraph, String> {
        let mut collection = self.collection.clone();
        collection.tags.rebuild_map();
        for d in new_docs {
            collection.add_document(d)?;
        }
        let extended = collection.seal();
        debug_assert_eq!(
            &extended.node_base[..self.node_base.len()],
            &self.node_base[..],
            "existing node ids must be stable under extension"
        );
        Ok(extended)
    }

    /// Corpus statistics used in §6-style reporting.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            documents: self.collection.doc_count(),
            elements: self.node_count(),
            links: self.link_count(),
            tags: self.collection.tags.len(),
            edges: self.graph.edge_count(),
            payload_bytes: self.collection.docs().map(|(_, d)| d.payload_bytes()).sum(),
            dangling_links: self.dangling_links,
        }
    }
}

/// Summary statistics of a sealed collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectionStats {
    /// Number of documents.
    pub documents: usize,
    /// Total elements.
    pub elements: usize,
    /// Resolved link edges.
    pub links: usize,
    /// Distinct tag names.
    pub tags: usize,
    /// Edges in the union graph.
    pub edges: usize,
    /// Text + attribute payload bytes.
    pub payload_bytes: usize,
    /// Unresolvable links dropped at seal time.
    pub dangling_links: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_doc_collection() -> Collection {
        let mut c = Collection::new();
        let (a, b, lnk) = (
            c.tags.intern("article"),
            c.tags.intern("body"),
            c.tags.intern("cite"),
        );

        let mut d1 = Document::new("d1.xml");
        let r1 = d1.add_element(a, None);
        let b1 = d1.add_element(b, Some(r1));
        let c1 = d1.add_element(lnk, Some(b1));
        d1.set_attr(c1, "xlink:href", "d2.xml#sec2");
        d1.set_attr(b1, "id", "intro");
        d1.extract_links(&LinkSpec::default());

        let mut d2 = Document::new("d2.xml");
        let r2 = d2.add_element(a, None);
        let s1 = d2.add_element(b, Some(r2));
        let s2 = d2.add_element(b, Some(r2));
        d2.set_attr(s2, "id", "sec2");
        let back = d2.add_element(lnk, Some(s1));
        d2.set_attr(back, "idref", "missing-anchor");
        d2.extract_links(&LinkSpec::default());

        c.add_document(d1).unwrap();
        c.add_document(d2).unwrap();
        c
    }

    #[test]
    fn interner_round_trips() {
        let mut t = TagInterner::new();
        let a = t.intern("movie");
        let b = t.intern("actor");
        assert_eq!(t.intern("movie"), a);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "movie");
        assert_eq!(t.get("actor"), Some(b));
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn document_tree_structure() {
        let mut t = TagInterner::new();
        let tag = t.intern("x");
        let mut d = Document::new("t.xml");
        let r = d.add_element(tag, None);
        let k1 = d.add_element(tag, Some(r));
        let k2 = d.add_element(tag, Some(r));
        let k3 = d.add_element(tag, Some(k1));
        assert_eq!(d.root(), r);
        assert_eq!(d.children(r), &[k1, k2]);
        assert_eq!(d.children(k1), &[k3]);
        assert_eq!(d.element(k3).parent, Some(k1));
        assert_eq!(d.len(), 4);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_panics() {
        let mut d = Document::new("t.xml");
        d.add_element(0, None);
        d.add_element(0, None);
    }

    #[test]
    fn text_accumulates_with_separator() {
        let mut d = Document::new("t.xml");
        let r = d.add_element(0, None);
        d.append_text(r, "  hello ");
        d.append_text(r, "world");
        assert_eq!(d.element(r).text, "hello world");
    }

    #[test]
    fn seal_resolves_cross_document_link() {
        let cg = two_doc_collection().seal();
        assert_eq!(cg.node_count(), 7);
        // d1's cite (global 2) -> d2's sec2 element (global 3 + 2 = 5... d2
        // base is 3; sec2 is d2-local element 2 -> global 5)
        assert!(cg.is_link_edge(2, 5));
        assert!(cg.graph.has_edge(2, 5));
        // intra-doc idref to a missing anchor is dangling
        assert_eq!(cg.dangling_links, 1);
        assert_eq!(cg.link_count(), 1);
        // doc graph has a single edge d0 -> d1
        assert!(cg.doc_graph.has_edge(0, 1));
        assert_eq!(cg.doc_graph.edge_count(), 1);
    }

    #[test]
    fn global_local_round_trip() {
        let cg = two_doc_collection().seal();
        for node in 0..cg.node_count() as NodeId {
            let (d, l) = cg.local_of(node);
            assert_eq!(cg.global(d, l), node);
        }
        assert_eq!(cg.doc_root(1), 3);
    }

    #[test]
    fn tags_indexed() {
        let cg = two_doc_collection().seal();
        let body = cg.collection.tags.get("body").unwrap();
        assert_eq!(cg.nodes_with_tag(body), &[1, 4, 5]);
        let article = cg.collection.tags.get("article").unwrap();
        assert_eq!(cg.nodes_with_tag(article), &[0, 3]);
    }

    #[test]
    fn stats_report() {
        let cg = two_doc_collection().seal();
        let s = cg.stats();
        assert_eq!(s.documents, 2);
        assert_eq!(s.elements, 7);
        assert_eq!(s.links, 1);
        assert_eq!(s.dangling_links, 1);
        assert_eq!(s.tags, 3);
        // 5 tree edges + 1 link edge
        assert_eq!(s.edges, 6);
    }

    #[test]
    fn duplicate_doc_name_rejected() {
        let mut c = Collection::new();
        c.add_document(Document::new("a.xml")).unwrap();
        assert!(c.add_document(Document::new("a.xml")).is_err());
    }

    #[test]
    fn link_to_document_root_when_no_fragment() {
        let mut c = Collection::new();
        let t = c.tags.intern("doc");
        let mut d1 = Document::new("a.xml");
        let r = d1.add_element(t, None);
        d1.add_link(
            r,
            LinkTarget {
                document: Some("b.xml".into()),
                fragment: None,
            },
        );
        let mut d2 = Document::new("b.xml");
        d2.add_element(t, None);
        c.add_document(d1).unwrap();
        c.add_document(d2).unwrap();
        let cg = c.seal();
        assert!(cg.is_link_edge(0, 1));
    }
}
