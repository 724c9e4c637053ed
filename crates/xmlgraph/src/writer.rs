//! Serialisation of [`Document`]s back to XML text.
//!
//! The writer produces indented, entity-escaped XML that the crate's own
//! parser round-trips (structure, attributes, and trimmed text survive; the
//! exact whitespace layout does not, by design).

use crate::model::{Document, TagInterner};
use std::fmt::Write;

/// Appends `s` to `out` with `&`, `<` and `>` escaped.
fn push_text(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
}

/// Appends `s` to `out` escaped for a double-quoted attribute value.
fn push_attr(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Indentation stops growing at this depth, so a deep chain of elements
/// writes text linear in its size.
const MAX_INDENT_DEPTH: usize = 32;
const INDENT: &str = "                                                                ";

fn indent(depth: usize) -> &'static str {
    &INDENT[..2 * depth.min(MAX_INDENT_DEPTH)]
}

/// Serialises a document to XML text with two-space indentation (up to
/// `MAX_INDENT_DEPTH` levels).
///
/// The tree is walked with an explicit stack, so any depth the parser
/// accepts can be written.
pub fn write_document(doc: &Document, tags: &TagInterner) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\"?>\n");
    if doc.is_empty() {
        return out;
    }
    let (first, kids) = doc.children_csr();
    // `(element, depth, close)`: a `close` entry writes the end tag of an
    // element whose children have been written.
    let mut stack = vec![(doc.root(), 0usize, false)];
    while let Some((el, depth, close)) = stack.pop() {
        let e = doc.element(el);
        let name = tags.name(e.tag);
        if close {
            let _ = writeln!(out, "{}</{name}>", indent(depth));
            continue;
        }
        let _ = write!(out, "{}<{name}", indent(depth));
        for (k, v) in e.attrs() {
            let _ = write!(out, " {k}=\"");
            push_attr(&mut out, v);
            out.push('"');
        }
        let children = &kids[first[el as usize] as usize..first[el as usize + 1] as usize];
        if children.is_empty() && e.text().is_empty() {
            out.push_str("/>\n");
            continue;
        }
        out.push('>');
        push_text(&mut out, e.text());
        if children.is_empty() {
            let _ = writeln!(out, "</{name}>");
            continue;
        }
        out.push('\n');
        stack.push((el, depth, true));
        stack.extend(children.iter().rev().map(|&c| (c, depth + 1, false)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::LinkSpec;
    use crate::model::LocalId;
    use crate::parser::parse_document;

    #[test]
    fn escaping() {
        let mut out = String::new();
        push_text(&mut out, "a<b>&c");
        assert_eq!(out, "a&lt;b&gt;&amp;c");
        out.clear();
        push_attr(&mut out, r#"say "hi" & <go>"#);
        assert_eq!(out, "say &quot;hi&quot; &amp; &lt;go>");
    }

    #[test]
    fn round_trip_structure() {
        let input = r#"<paper id="p1"><title>ARIES &amp; friends</title><cite xlink:href="x.xml#a"/></paper>"#;
        let mut tags = TagInterner::new();
        let spec = LinkSpec::default();
        let doc = parse_document("p.xml", input, &mut tags, &spec).unwrap();
        let text = write_document(&doc, &tags);
        let doc2 = parse_document("p.xml", &text, &mut tags, &spec).unwrap();
        assert_eq!(doc.len(), doc2.len());
        for (i, e) in doc.elements() {
            let e2 = doc2.element(i);
            assert_eq!(e.tag, e2.tag);
            assert!(e.attrs().eq(e2.attrs()));
            assert_eq!(e.text(), e2.text());
            assert_eq!(e.parent, e2.parent);
        }
        assert!(doc.links().eq(doc2.links()));
    }

    #[test]
    fn empty_element_self_closes() {
        let mut tags = TagInterner::new();
        let t = tags.intern("a");
        let mut d = Document::new("t.xml");
        d.add_element(t, None);
        let text = write_document(&d, &tags);
        assert!(text.contains("<a/>"));
    }

    #[test]
    fn deep_documents_write_in_a_small_stack() {
        // One frame per level overflowed a 2 MiB stack at depth 20,000 in
        // a release build; this thread has 128 KiB.
        const DEPTH: usize = 20_000;
        let written = std::thread::Builder::new()
            .stack_size(128 << 10)
            .spawn(|| {
                let mut tags = TagInterner::new();
                let t = tags.intern("a");
                let mut d = Document::new("deep.xml");
                let mut el = d.add_element(t, None);
                for _ in 1..DEPTH {
                    el = d.add_element(t, Some(el));
                }
                d.append_text(el, "leaf");
                (write_document(&d, &tags), tags)
            })
            .unwrap()
            .join()
            .unwrap();
        let (text, mut tags) = written;
        // Indentation stops at MAX_INDENT_DEPTH levels: an open and a close
        // line of bounded length per element, not 800 MB of spaces.
        let line = 2 * MAX_INDENT_DEPTH + "</a>\n".len();
        assert!(text.len() <= DEPTH * 2 * line, "{}", text.len());
        assert!(text.contains(&format!("{}<a>leaf</a>", indent(DEPTH))));
        let doc = parse_document("deep.xml", &text, &mut tags, &LinkSpec::default()).unwrap();
        assert_eq!(doc.len(), DEPTH);
        assert_eq!(doc.element(DEPTH as LocalId - 1).text(), "leaf");
        assert_eq!(
            doc.element(DEPTH as LocalId - 1).parent,
            Some(DEPTH as LocalId - 2)
        );
    }
}
