//! Element trees, document collections, and the sealed union graph `G_X`.

use crate::links::{LinkRef, LinkSpec, LinkTarget};
use graphcore::{Digraph, DigraphBuilder, NodeId, Rows};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interned tag-name identifier.
pub type TagId = u32;

/// Element index local to one document (0 is the root).
pub type LocalId = u32;

/// Bidirectional interner for element tag names.
#[derive(Debug, Clone, Default)]
pub struct TagInterner {
    names: Vec<String>,
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
}

/// A range `start..end` of a document's string pool (bytes) or of its
/// attribute table (entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        assert!(
            end <= u32::MAX as usize,
            "a document's pool or attribute table outgrows u32 offsets"
        );
        Self {
            start: start as u32,
            end: end as u32,
        }
    }

    fn is_empty(self) -> bool {
        self.start == self.end
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    fn of(self, pool: &str) -> &str {
        &pool[self.range()]
    }
}

/// Appends `s` to `pool` and returns where it landed.
fn push(pool: &mut String, s: &str) -> Span {
    let start = pool.len();
    pool.push_str(s);
    Span::new(start, pool.len())
}

/// The span of `part`, which must be a slice of `pool`.
fn span_in(pool: &str, part: &str) -> Span {
    let start = part.as_ptr() as usize - pool.as_ptr() as usize;
    debug_assert!(start + part.len() <= pool.len(), "not a slice of the pool");
    Span::new(start, start + part.len())
}

/// The parent entry of a document root.
const NO_PARENT: LocalId = LocalId::MAX;

/// One element of a [`Document`]: a `Copy` view over the document's arrays.
#[derive(Clone, Copy)]
pub struct ElementRef<'a> {
    /// Interned tag name.
    pub tag: TagId,
    /// Parent element, `None` for the document root.
    pub parent: Option<LocalId>,
    text: &'a str,
    attrs: &'a [(Span, Span)],
    pool: &'a str,
}

impl<'a> ElementRef<'a> {
    /// Concatenated direct text content: each appended piece trimmed, the
    /// non-empty ones joined by one space.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Attributes `(name, value)` in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let pool = self.pool;
        self.attrs
            .iter()
            .map(move |&(k, v)| (k.of(pool), v.of(pool)))
    }

    /// Attribute value lookup (the first attribute named `name`).
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        self.attrs().find(|&(k, _)| k == name).map(|(_, v)| v)
    }
}

/// A single XML document: an element tree plus its extracted links, kept as
/// a few flat arrays over one string pool.
///
/// Element `i`'s tag, parent, text span and attribute range sit at index `i`
/// of four parallel arrays; its attributes are a range of one flat table of
/// `(name, value)` spans. Every string — texts, attribute names and values,
/// anchor ids, link targets — lives in `pool`, so a document costs a fixed
/// handful of allocations however many elements it has.
#[derive(Debug, Clone)]
pub struct Document {
    /// Document name (unique within a collection), e.g. `conf/vldb/X.xml`.
    pub name: String,
    tag: Vec<TagId>,
    /// [`NO_PARENT`] for the root.
    parent: Vec<LocalId>,
    text: Vec<Span>,
    /// Each element's range of `attrs`.
    attr_range: Vec<Span>,
    attrs: Vec<(Span, Span)>,
    /// `(anchor id, element)`, sorted by id, one entry per id.
    anchors: Vec<(Span, LocalId)>,
    /// Extracted links `(source element, target document, fragment)`.
    links: Vec<(LocalId, Option<Span>, Option<Span>)>,
    pool: String,
}

impl Document {
    /// Creates an empty document (no root yet).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tag: Vec::new(),
            parent: Vec::new(),
            text: Vec::new(),
            attr_range: Vec::new(),
            attrs: Vec::new(),
            anchors: Vec::new(),
            links: Vec::new(),
            pool: String::new(),
        }
    }

    /// Appends an element. The first element must be the root
    /// (`parent == None`); all later elements need an existing parent.
    ///
    /// # Panics
    /// On a second root or a dangling parent id.
    pub fn add_element(&mut self, tag: TagId, parent: Option<LocalId>) -> LocalId {
        match parent {
            None => assert!(self.tag.is_empty(), "document already has a root"),
            Some(p) => assert!((p as usize) < self.tag.len(), "parent {p} does not exist"),
        }
        let id = self.tag.len() as LocalId;
        self.tag.push(tag);
        self.parent.push(parent.unwrap_or(NO_PARENT));
        self.text.push(Span::default());
        self.attr_range.push(Span::default());
        id
    }

    /// Sets an attribute on an element (appends; duplicate names are the
    /// caller's responsibility, as in raw XML).
    ///
    /// Costs O(1) when `el` is the last element given an attribute, as it
    /// is while a parser or generator builds elements in order. Otherwise
    /// `el`'s earlier attributes are first copied to the end of the table
    /// (their old entries stay behind, unused), so interleaving `set_attr`
    /// over many elements costs time and space linear in the attributes
    /// moved.
    pub fn set_attr(&mut self, el: LocalId, name: &str, value: &str) {
        let range = &mut self.attr_range[el as usize];
        if range.end as usize != self.attrs.len() {
            let start = self.attrs.len();
            self.attrs.extend_from_within(range.range());
            *range = Span::new(start, self.attrs.len());
        }
        let entry = (push(&mut self.pool, name), push(&mut self.pool, value));
        self.attrs.push(entry);
        range.end += 1;
    }

    /// Appends text content to an element: `text` is trimmed, and a
    /// non-empty piece is joined to the element's earlier text by one space.
    ///
    /// Costs O(`text`) when `el`'s text ends the string pool, as it does when
    /// each element's text is appended in one go or the appends to one
    /// element are not interleaved with other strings. Otherwise `el`'s
    /// text is first copied to the end of the pool (the old copy stays
    /// behind, unused), so interleaved appends cost time and space linear
    /// in the text moved.
    pub fn append_text(&mut self, el: LocalId, text: &str) {
        let piece = text.trim();
        if piece.is_empty() {
            return;
        }
        let span = &mut self.text[el as usize];
        if span.is_empty() {
            *span = push(&mut self.pool, piece);
            return;
        }
        let mut start = span.start as usize;
        if span.end as usize != self.pool.len() {
            start = self.pool.len();
            let earlier = self.pool[span.range()].to_string();
            self.pool.push_str(&earlier);
        }
        self.pool.push(' ');
        self.pool.push_str(piece);
        *span = Span::new(start, self.pool.len());
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// True if the document has no elements yet.
    pub fn is_empty(&self) -> bool {
        self.tag.is_empty()
    }

    /// The root element id (0). Panics on an empty document.
    pub fn root(&self) -> LocalId {
        assert!(!self.is_empty(), "empty document has no root");
        0
    }

    /// Element accessor.
    pub fn element(&self, id: LocalId) -> ElementRef<'_> {
        let i = id as usize;
        ElementRef {
            tag: self.tag[i],
            parent: Some(self.parent[i]).filter(|&p| p != NO_PARENT),
            text: self.text[i].of(&self.pool),
            attrs: &self.attrs[self.attr_range[i].range()],
            pool: &self.pool,
        }
    }

    /// Children of an element in document order. A scan of every later
    /// element: O(`len`) a call.
    pub fn children(&self, id: LocalId) -> impl Iterator<Item = LocalId> + '_ {
        (id + 1..self.len() as LocalId).filter(move |&c| self.parent[c as usize] == id)
    }

    /// Every element's children as CSR: row `p` holds element `p`'s, in
    /// document order. Two passes over the parent array.
    pub(crate) fn children_csr(&self) -> Rows<LocalId> {
        let edges = self.parent.iter().enumerate().skip(1);
        let parents = self.parent.iter().copied().skip(1);
        Rows::grouped(self.len(), parents, edges.map(|(c, &p)| (p, c as LocalId)))
    }

    /// All elements with their ids, in document (pre-)order.
    pub fn elements(&self) -> impl Iterator<Item = (LocalId, ElementRef<'_>)> {
        (0..self.len() as LocalId).map(|i| (i, self.element(i)))
    }

    /// Extracted links `(source element, target)`.
    pub fn links(&self) -> impl ExactSizeIterator<Item = (LocalId, LinkRef<'_>)> {
        let pool = self.pool.as_str();
        self.links.iter().map(move |&(source, document, fragment)| {
            let link = LinkRef {
                document: document.map(|s| s.of(pool)),
                fragment: fragment.map(|s| s.of(pool)),
            };
            (source, link)
        })
    }

    /// Element carrying anchor `id`, if any.
    pub fn anchor(&self, id: &str) -> Option<LocalId> {
        self.anchor_slot(id).ok().map(|i| self.anchors[i].1)
    }

    /// The index of anchor `id` in `anchors`, or where it would go.
    fn anchor_slot(&self, id: &str) -> Result<usize, usize> {
        self.anchors
            .binary_search_by(|&(k, _)| k.of(&self.pool).cmp(id))
    }

    /// All registered anchors as `(id, element)` pairs, ascending by id.
    pub fn anchors(&self) -> impl Iterator<Item = (&str, LocalId)> {
        self.anchors.iter().map(|&(k, v)| (k.of(&self.pool), v))
    }

    /// Records a link explicitly (used by generators that do not go through
    /// attribute extraction).
    pub fn add_link(&mut self, source: LocalId, target: LinkTarget) {
        assert!((source as usize) < self.len());
        let pool = &mut self.pool;
        let document = target.document.map(|d| push(pool, &d));
        let fragment = target.fragment.map(|f| push(pool, &f));
        self.links.push((source, document, fragment));
    }

    /// Registers an anchor explicitly; a repeated id moves to `el`.
    pub fn add_anchor(&mut self, id: &str, el: LocalId) {
        match self.anchor_slot(id) {
            Ok(i) => self.anchors[i].1 = el,
            Err(i) => {
                let span = push(&mut self.pool, id);
                self.anchors.insert(i, (span, el));
            }
        }
    }

    /// Scans attributes with `spec` and (re)builds anchors and links. Both
    /// point into the attribute values already in the pool; a repeated
    /// anchor id keeps its last element.
    pub fn extract_links(&mut self, spec: &LinkSpec) {
        self.anchors.clear();
        self.links.clear();
        let pool = self.pool.as_str();
        for (el, range) in self.attr_range.iter().enumerate() {
            let el = el as LocalId;
            for &(name, value) in &self.attrs[range.range()] {
                let (name, value_str) = (name.of(pool), value.of(pool));
                if spec.is_anchor(name) {
                    self.anchors.push((value, el));
                }
                for t in spec.targets_of(name, value_str) {
                    let document = t.document.map(|d| span_in(pool, d));
                    let fragment = t.fragment.map(|f| span_in(pool, f));
                    self.links.push((el, document, fragment));
                }
            }
        }
        // Stable, so equal ids stay in document order; each run then keeps
        // its last element.
        self.anchors.sort_by(|a, b| a.0.of(pool).cmp(b.0.of(pool)));
        self.anchors.dedup_by(|later, kept| {
            let same = later.0.of(pool) == kept.0.of(pool);
            if same {
                kept.1 = later.1;
            }
            same
        });
    }

    /// Total bytes of text + attribute payload (used for corpus-size stats).
    pub fn payload_bytes(&self) -> usize {
        let text: usize = self.text.iter().map(|s| s.range().len()).sum();
        let attrs: usize = self
            .attr_range
            .iter()
            .flat_map(|r| &self.attrs[r.range()])
            .map(|(k, v)| k.range().len() + v.range().len())
            .sum();
        text + attrs
    }

    /// Moves every array into an allocation of its exact length once the
    /// document is built. Copying, not `shrink_to_fit`: a `realloc` that
    /// shrinks in place leaves a small free fragment behind each array, and
    /// the paper-scale corpus's ~50,000 of them slowed the next index build
    /// by a quarter.
    fn compact(&mut self) {
        self.tag = self.tag.to_vec();
        self.parent = self.parent.to_vec();
        self.text = self.text.to_vec();
        self.attr_range = self.attr_range.to_vec();
        self.attrs = self.attrs.to_vec();
        self.anchors = self.anchors.to_vec();
        self.links = self.links.to_vec();
        self.pool = self.pool.as_str().to_owned();
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
    pub fn add_document(&mut self, mut doc: Document) -> Result<u32, String> {
        if self.doc_index.contains_key(&doc.name) {
            return Err(format!("duplicate document name {:?}", doc.name));
        }
        doc.compact();
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
    pub fn seal(mut self) -> CollectionGraph {
        self.docs.shrink_to_fit();
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
            for (local, (&tag, &parent)) in doc.tag.iter().zip(&doc.parent).enumerate() {
                let g = base + local as u32;
                node_doc[g as usize] = d as u32;
                node_tag[g as usize] = tag;
                if parent != NO_PARENT {
                    builder.add_edge(base + parent, g);
                }
            }
        }

        let mut link_edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut dangling = 0usize;
        let mut doc_links: Vec<(u32, u32)> = Vec::new();
        for (d, doc) in self.docs.iter().enumerate() {
            let base = node_base[d];
            for (src_local, target) in doc.links() {
                let target_doc = match target.document {
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
                let target_local = match target.fragment {
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

        let tag_nodes = Rows::grouped(
            self.tags.len(),
            node_tag.iter().copied(),
            node_tag.iter().enumerate().map(|(v, &t)| (t, v as NodeId)),
        );

        let doc_graph = Digraph::from_edges(n_docs, doc_links);

        CollectionGraph {
            graph: builder.build(),
            node_base,
            node_doc,
            node_tag,
            tag_nodes,
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
    /// Row `t`: the global nodes carrying tag `t`, ascending.
    tag_nodes: Rows<NodeId>,
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
    pub fn element(&self, node: NodeId) -> ElementRef<'_> {
        let (doc, local) = self.local_of(node);
        self.collection.doc(doc).element(local)
    }

    /// Root node of a document.
    pub fn doc_root(&self, doc: u32) -> NodeId {
        self.node_base[doc as usize]
    }

    /// All nodes carrying `tag`, ascending; none for a tag past the
    /// interned ones.
    pub fn nodes_with_tag(&self, tag: TagId) -> &[NodeId] {
        if tag as usize >= self.tag_nodes.rows() {
            return &[];
        }
        self.tag_nodes.row(tag)
    }

    /// Number of resolved link edges.
    pub fn link_count(&self) -> usize {
        self.link_edges.len()
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
        assert!(d.children(r).eq([k1, k2]));
        assert!(d.children(k1).eq([k3]));
        assert_eq!(d.children(k3).count(), 0);
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
        assert_eq!(d.element(r).text(), "hello world");
    }

    #[test]
    fn blank_pieces_add_no_separator() {
        let mut d = Document::new("t.xml");
        let r = d.add_element(0, None);
        let k = d.add_element(0, Some(r));
        d.append_text(r, " \n ");
        assert_eq!(d.element(r).text(), "");
        d.append_text(r, "x");
        d.append_text(r, "   ");
        assert_eq!(d.element(r).text(), "x");
        // `k`'s text now ends the pool, so `r`'s is copied past it.
        d.append_text(k, "inner");
        d.append_text(r, " y ");
        assert_eq!(d.element(r).text(), "x y");
        assert_eq!(d.element(k).text(), "inner");
        assert_eq!(d.payload_bytes(), "x y".len() + "inner".len());
    }

    #[test]
    fn interleaved_attributes_keep_each_elements_order() {
        let mut d = Document::new("t.xml");
        let r = d.add_element(0, None);
        let k = d.add_element(0, Some(r));
        d.set_attr(r, "a", "1");
        d.set_attr(k, "b", "2");
        d.set_attr(r, "c", "3");
        assert!(d.element(r).attrs().eq([("a", "1"), ("c", "3")]));
        assert!(d.element(k).attrs().eq([("b", "2")]));
        assert_eq!(d.element(r).attr("c"), Some("3"));
        assert_eq!(d.payload_bytes(), 6);
    }

    #[test]
    fn repeated_anchor_ids_keep_the_last_element() {
        let mut d = Document::new("t.xml");
        let r = d.add_element(0, None);
        let k = d.add_element(0, Some(r));
        d.set_attr(r, "id", "x");
        d.set_attr(k, "id", "x");
        d.set_attr(r, "id", "a");
        d.extract_links(&LinkSpec::default());
        assert_eq!(d.anchor("x"), Some(k));
        assert!(d.anchors().eq([("a", r), ("x", k)]));
        d.add_anchor("x", r);
        d.add_anchor("b", k);
        assert!(d.anchors().eq([("a", r), ("b", k), ("x", r)]));
        assert_eq!(d.anchor("nope"), None);
    }

    #[test]
    fn seal_resolves_cross_document_link() {
        let cg = two_doc_collection().seal();
        assert_eq!(cg.node_count(), 7);
        // d1's cite (global 2) -> d2's sec2 element (global 3 + 2 = 5... d2
        // base is 3; sec2 is d2-local element 2 -> global 5)
        assert!(cg.link_edges.contains(&(2, 5)));
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

    /// A link to a document the collection does not hold is counted as
    /// dangling and adds no edge; one to a document added after its
    /// source resolves at seal time, as one to an earlier document does.
    #[test]
    fn seal_counts_missing_targets_and_resolves_later_documents() {
        let mut c = Collection::new();
        let t = c.tags.intern("x");
        let to = |name: &str| LinkTarget {
            document: Some(name.into()),
            fragment: None,
        };
        let mut old = Document::new("old.xml");
        let r = old.add_element(t, None);
        let k = old.add_element(t, Some(r));
        old.add_link(r, to("missing.xml"));
        old.add_link(k, to("later.xml"));
        c.add_document(old).unwrap();
        let mut later = Document::new("later.xml");
        let l = later.add_element(t, None);
        later.add_link(l, to("old.xml"));
        c.add_document(later).unwrap();
        let cg = c.seal();
        assert_eq!(cg.dangling_links, 1);
        assert_eq!(cg.link_edges, vec![(1, 2), (2, 0)]);
        // the tree edge 0 -> 1 and the two resolved links, nothing else
        assert!(cg.graph.edges().eq([(0, 1), (1, 2), (2, 0)]));
        assert_eq!(cg.doc_graph.edge_count(), 2);
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
        assert!(cg.link_edges.contains(&(0, 1)));
    }
}
