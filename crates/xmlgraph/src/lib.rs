//! XML data model for interlinked document collections (paper §2.1).
//!
//! A collection `X = {d1, ..., dn}` of XML documents is represented by the
//! union graph `G_X = (V_X, E_X)`: the vertices are all elements of all
//! documents, the edges are the parent-child relationships *plus* all
//! intra-document links (`id`/`idref`) and inter-document links (XLink
//! `href`s pointing at other documents or fragments inside them).
//!
//! The crate provides:
//!
//! * [`model`]: tag interning, [`model::Document`] element trees (flat
//!   arrays over one string pool per document),
//!   [`model::Collection`] and the sealed [`model::CollectionGraph`] that
//!   every index in the workspace consumes,
//! * [`parser`]: a from-scratch, well-formedness-checking XML parser
//!   (elements, attributes, text, CDATA, comments, PIs, numeric and named
//!   entities) — no third-party XML crate is used anywhere,
//! * [`writer`]: serialisation of documents back to XML text,
//! * [`links`]: the attribute conventions (`id`, `idref`, `idrefs`,
//!   `xlink:href`, `href`) by which links are recognised.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Link-recognition conventions (IDREF, XLink, key-based joins).
pub mod links;
/// Element trees, document collections, and the union graph `G_X`.
pub mod model;
/// A from-scratch, well-formedness-checking XML parser.
pub mod parser;
/// Serialisation of documents back to indented, escaped XML text.
pub mod writer;

pub use links::{LinkRef, LinkSpec, LinkTarget};
pub use model::{Collection, CollectionGraph, Document, ElementRef, LocalId, TagId, TagInterner};
pub use parser::{parse_document, ParseError};
pub use writer::write_document;
