//! Link-recognition conventions.
//!
//! The XML standard offers several mechanisms to point from one element to
//! another: DTD-typed `id`/`idref`/`idrefs` attributes for intra-document
//! links, and XLink `href` attributes (`xlink:href`) for intra- or
//! inter-document links. [`LinkSpec`] captures which attribute names are
//! interpreted which way; the defaults match the paper's setting.

use serde::{Deserialize, Serialize};

/// Where a link points: a document (by name) and optionally a fragment
/// (the value of an `id` attribute inside that document). The owned form
/// [`crate::Document::add_link`] takes; a stored link reads back as a
/// [`LinkRef`].
///
/// `document == None` means "this same document".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkTarget {
    /// Target document name, `None` for the containing document.
    pub document: Option<String>,
    /// Fragment (anchor id); `None` addresses the document root.
    pub fragment: Option<String>,
}

/// A link target borrowed from a document's string pool, or from the
/// attribute value it was extracted from: the view [`crate::Document::links`]
/// returns. `document == None` means "this same document".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkRef<'a> {
    /// Target document name, `None` for the containing document.
    pub document: Option<&'a str>,
    /// Fragment (anchor id); `None` addresses the document root.
    pub fragment: Option<&'a str>,
}

impl<'a> LinkRef<'a> {
    /// Parses an href value of the form `doc`, `doc#frag`, or `#frag`; both
    /// parts are slices of `href`.
    ///
    /// Returns `None` for empty hrefs, which carry no link.
    pub fn parse_href(href: &'a str) -> Option<Self> {
        let href = href.trim();
        let (doc, frag) = match href.split_once('#') {
            Some((d, f)) => (d, Some(f)),
            None => (href, None),
        };
        let document = Some(doc).filter(|d| !d.is_empty());
        let fragment = frag.filter(|f| !f.is_empty());
        if document.is_none() && fragment.is_none() {
            return None;
        }
        Some(Self { document, fragment })
    }
}

impl From<LinkRef<'_>> for LinkTarget {
    fn from(link: LinkRef<'_>) -> Self {
        Self {
            document: link.document.map(str::to_string),
            fragment: link.fragment.map(str::to_string),
        }
    }
}

/// Attribute conventions used to extract anchors and links from documents.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Attribute defining an element anchor (default `id`).
    pub id_attr: String,
    /// Attributes whose value names one anchor in the same document.
    pub idref_attrs: Vec<String>,
    /// Attributes whose value is a whitespace-separated anchor list.
    pub idrefs_attrs: Vec<String>,
    /// Attributes carrying `doc#frag` hrefs (XLink style).
    pub href_attrs: Vec<String>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            id_attr: "id".into(),
            idref_attrs: vec!["idref".into()],
            idrefs_attrs: vec!["idrefs".into()],
            href_attrs: vec!["xlink:href".into(), "href".into()],
        }
    }
}

impl LinkSpec {
    /// Extracts all link targets an attribute contributes, if any, as
    /// slices of `attr_value`.
    pub fn targets_of<'v>(&self, attr_name: &str, attr_value: &'v str) -> Vec<LinkRef<'v>> {
        let local = |v: &'v str| LinkRef {
            document: None,
            fragment: Some(v),
        };
        if self.idref_attrs.iter().any(|a| a == attr_name) {
            let v = attr_value.trim();
            if v.is_empty() {
                return Vec::new();
            }
            return vec![local(v)];
        }
        if self.idrefs_attrs.iter().any(|a| a == attr_name) {
            return attr_value.split_whitespace().map(local).collect();
        }
        if self.href_attrs.iter().any(|a| a == attr_name) {
            return LinkRef::parse_href(attr_value).into_iter().collect();
        }
        Vec::new()
    }

    /// True if `attr_name` declares an anchor.
    pub fn is_anchor(&self, attr_name: &str) -> bool {
        attr_name == self.id_attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_href_variants() {
        let link = |document, fragment| Some(LinkRef { document, fragment });
        assert_eq!(
            LinkRef::parse_href("a.xml#e5"),
            link(Some("a.xml"), Some("e5"))
        );
        assert_eq!(LinkRef::parse_href("a.xml"), link(Some("a.xml"), None));
        assert_eq!(LinkRef::parse_href("#frag"), link(None, Some("frag")));
        assert_eq!(LinkRef::parse_href(""), None);
        assert_eq!(LinkRef::parse_href("#"), None);
        assert_eq!(
            LinkRef::parse_href("  doc#f  "),
            link(Some("doc"), Some("f"))
        );
        assert_eq!(
            LinkTarget::from(LinkRef::parse_href("d.xml#x").unwrap()),
            LinkTarget {
                document: Some("d.xml".into()),
                fragment: Some("x".into()),
            }
        );
    }

    #[test]
    fn idref_single_target() {
        let spec = LinkSpec::default();
        let t = spec.targets_of("idref", "x1");
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].fragment, Some("x1"));
        assert_eq!(t[0].document, None);
        assert!(spec.targets_of("idref", "   ").is_empty());
    }

    #[test]
    fn idrefs_splits_whitespace() {
        let spec = LinkSpec::default();
        let t = spec.targets_of("idrefs", "a  b\tc");
        assert_eq!(t.len(), 3);
        assert_eq!(t[2].fragment, Some("c"));
    }

    #[test]
    fn href_attrs_recognised() {
        let spec = LinkSpec::default();
        assert_eq!(spec.targets_of("xlink:href", "d.xml#a").len(), 1);
        assert_eq!(spec.targets_of("href", "d.xml").len(), 1);
        assert!(spec.targets_of("class", "d.xml").is_empty());
    }

    #[test]
    fn anchor_detection() {
        let spec = LinkSpec::default();
        assert!(spec.is_anchor("id"));
        assert!(!spec.is_anchor("idref"));
    }
}
