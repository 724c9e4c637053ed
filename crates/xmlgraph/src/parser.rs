//! A from-scratch, well-formedness-checking XML parser.
//!
//! Supports the XML subset the paper's corpora need: elements, attributes
//! (single- or double-quoted), character data, CDATA sections, comments,
//! processing instructions, an optional prolog and DOCTYPE, and the five
//! named entities plus decimal/hex character references. Namespaces are not
//! expanded; prefixed names (`xlink:href`) are kept verbatim, which is all
//! the link extraction requires.

use crate::links::LinkSpec;
use crate::model::{Document, LocalId, TagId, TagInterner};
use std::borrow::Cow;
use std::fmt;

/// Parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in bytes).
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.input[..self.pos.min(self.input.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError {
            line,
            column: col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn require(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Advances until `marker` and returns the bytes before it.
    fn take_until(&mut self, marker: &str) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while self.pos < self.input.len() {
            if self.starts_with(marker) {
                let s = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?;
                self.pos += marker.len();
                return Ok(s);
            }
            self.pos += 1;
        }
        Err(self.error(format!("unterminated section, expected {marker:?}")))
    }

    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.pos += 1,
            _ => return Err(self.error("expected a name")),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| self.error("invalid UTF-8"))
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || matches!(b, b'-' | b'.' | b':')
}

/// Decodes entity and character references in `raw`; borrows `raw` when
/// it holds none.
fn decode_entities<'r>(raw: &'r str, sc: &Scanner<'_>) -> Result<Cow<'r, str>, ParseError> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| sc.error("unterminated entity reference"))?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| sc.error(format!("bad character reference &{entity};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| sc.error(format!("invalid code point {code:#x}")))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| sc.error(format!("bad character reference &{entity};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| sc.error(format!("invalid code point {code}")))?,
                );
            }
            _ => return Err(sc.error(format!("unknown entity &{entity};"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// An element whose close tag has not been read yet.
struct Open {
    el: LocalId,
    tag: TagId,
    /// Where the element's own text starts in the parser's text buffer.
    text_start: usize,
}

/// Adds a piece of `open`'s direct text to `buffer`, where the open
/// elements' texts are stacked: trimmed, and joined to the element's
/// earlier pieces by one space, as [`Document::append_text`] joins them.
fn buffer_text(buffer: &mut String, open: &Open, piece: &str) {
    let piece = piece.trim();
    if piece.is_empty() {
        return;
    }
    if buffer.len() > open.text_start {
        buffer.push(' ');
    }
    buffer.push_str(piece);
}

/// Parses one XML document named `name` from `input`.
///
/// Tag names are interned into `tags`; anchors and links are extracted with
/// `spec`. An element's text is collected while it is open and appended to
/// the document once, when it closes, so mixed content costs linear time.
pub fn parse_document(
    name: impl Into<String>,
    input: &str,
    tags: &mut TagInterner,
    spec: &LinkSpec,
) -> Result<Document, ParseError> {
    let mut sc = Scanner::new(input);
    let mut doc = Document::new(name);
    let mut stack: Vec<Open> = Vec::new();
    let mut text = String::new();
    let mut seen_root = false;

    loop {
        // Text run up to the next markup (or EOF).
        let text_start = sc.pos;
        while sc.peek().is_some() && sc.peek() != Some(b'<') {
            sc.pos += 1;
        }
        if sc.pos > text_start {
            let raw = std::str::from_utf8(&sc.input[text_start..sc.pos])
                .map_err(|_| sc.error("invalid UTF-8"))?;
            let decoded = decode_entities(raw, &sc)?;
            if !decoded.trim().is_empty() {
                match stack.last() {
                    Some(open) => buffer_text(&mut text, open, &decoded),
                    None => return Err(sc.error("text outside the root element")),
                }
            }
        }
        if sc.peek().is_none() {
            break;
        }

        if sc.eat("<!--") {
            sc.take_until("-->")?;
        } else if sc.eat("<![CDATA[") {
            let cdata = sc.take_until("]]>")?;
            match stack.last() {
                Some(open) => buffer_text(&mut text, open, cdata),
                None => {
                    if !cdata.trim().is_empty() {
                        return Err(sc.error("CDATA outside the root element"));
                    }
                }
            }
        } else if sc.starts_with("<!DOCTYPE") || sc.starts_with("<!doctype") {
            sc.pos += "<!DOCTYPE".len();
            // Skip to the matching '>', honouring an internal subset.
            let mut depth = 1;
            loop {
                match sc.bump() {
                    Some(b'<') => depth += 1,
                    Some(b'>') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => return Err(sc.error("unterminated DOCTYPE")),
                }
            }
        } else if sc.eat("<?") {
            sc.take_until("?>")?;
        } else if sc.eat("</") {
            let tag = sc.name()?;
            sc.skip_ws();
            sc.require(">")?;
            match stack.pop() {
                Some(open) if tags.get(tag) == Some(open.tag) => {
                    doc.append_text(open.el, &text[open.text_start..]);
                    text.truncate(open.text_start);
                }
                Some(open) => {
                    let open = tags.name(open.tag);
                    return Err(sc.error(format!("mismatched close: <{open}> vs </{tag}>")));
                }
                None => return Err(sc.error(format!("unmatched closing tag </{tag}>"))),
            }
        } else if sc.eat("<") {
            let name = sc.name()?;
            let parent = stack.last().map(|open| open.el);
            if parent.is_none() {
                if seen_root {
                    return Err(sc.error("multiple root elements"));
                }
                seen_root = true;
            }
            let tag = tags.intern(name);
            let el = doc.add_element(tag, parent);
            // Attributes.
            loop {
                sc.skip_ws();
                match sc.peek() {
                    Some(b'>') => {
                        sc.pos += 1;
                        stack.push(Open {
                            el,
                            tag,
                            text_start: text.len(),
                        });
                        break;
                    }
                    Some(b'/') => {
                        sc.pos += 1;
                        sc.require(">")?;
                        break;
                    }
                    Some(b) if is_name_start(b) => {
                        let attr = sc.name()?;
                        sc.skip_ws();
                        sc.require("=")?;
                        sc.skip_ws();
                        let quote = match sc.bump() {
                            Some(q @ (b'"' | b'\'')) => q,
                            _ => return Err(sc.error("expected quoted attribute value")),
                        };
                        let marker = if quote == b'"' { "\"" } else { "'" };
                        let raw = sc.take_until(marker)?;
                        let value = decode_entities(raw, &sc)?;
                        doc.set_attr(el, attr, &value);
                    }
                    _ => return Err(sc.error("malformed start tag")),
                }
            }
        } else {
            return Err(sc.error("unexpected character"));
        }

        if stack.is_empty() && seen_root {
            // After the root closes only misc content may follow.
            sc.skip_ws();
            if sc.peek().is_none() {
                break;
            }
            if !(sc.starts_with("<!--") || sc.starts_with("<?")) {
                return Err(sc.error("content after the root element"));
            }
        }
    }

    if !stack.is_empty() {
        let open: Vec<&str> = stack.iter().map(|open| tags.name(open.tag)).collect();
        return Err(sc.error(format!("unclosed elements: {}", open.join(", "))));
    }
    if !seen_root {
        return Err(sc.error("document has no root element"));
    }
    doc.extract_links(spec);
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(input: &str) -> Result<(Document, TagInterner), ParseError> {
        let mut tags = TagInterner::new();
        let doc = parse_document("t.xml", input, &mut tags, &LinkSpec::default())?;
        Ok((doc, tags))
    }

    #[test]
    fn minimal_document() {
        let (doc, tags) = parse("<a/>").unwrap();
        assert_eq!(doc.len(), 1);
        assert_eq!(tags.name(doc.element(0).tag), "a");
    }

    #[test]
    fn nested_elements_and_text() {
        let (doc, tags) = parse("<a><b>hello</b><c>world</c></a>").unwrap();
        assert_eq!(doc.len(), 3);
        assert_eq!(doc.children(0).count(), 2);
        let b = doc.children(0).next().unwrap();
        assert_eq!(tags.name(doc.element(b).tag), "b");
        assert_eq!(doc.element(b).text(), "hello");
    }

    #[test]
    fn attributes_both_quote_styles() {
        let (doc, _) = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(doc.element(0).attr("x"), Some("1"));
        assert_eq!(doc.element(0).attr("y"), Some("two"));
        assert_eq!(doc.element(0).attr("z"), None);
    }

    #[test]
    fn prolog_comment_pi_doctype() {
        let input = "<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n<!-- hi -->\n<a><?target data?><!-- inner --></a>\n<!-- trailing -->";
        let (doc, _) = parse(input).unwrap();
        assert_eq!(doc.len(), 1);
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let (doc, _) = parse(r#"<a t="&lt;x&gt; &amp; &#65;&#x42;">a &quot;b&apos;</a>"#).unwrap();
        assert_eq!(doc.element(0).attr("t"), Some("<x> & AB"));
        assert_eq!(doc.element(0).text(), "a \"b'");
    }

    #[test]
    fn cdata_kept_verbatim() {
        let (doc, _) = parse("<a><![CDATA[1 < 2 && x]]></a>").unwrap();
        assert_eq!(doc.element(0).text(), "1 < 2 && x");
    }

    #[test]
    fn whitespace_only_cdata_and_mixed_content() {
        let (doc, _) = parse("<a>x<![CDATA[   ]]></a>").unwrap();
        assert_eq!(doc.element(0).text(), "x");
        let (doc, _) = parse("<a> x <b>in</b><![CDATA[ ]]> y <c/>\n z&amp; </a>").unwrap();
        assert_eq!(doc.element(0).text(), "x y z&");
        assert_eq!(doc.element(1).text(), "in");
        let (doc, _) = parse("<a><![CDATA[ ]]>\n</a>").unwrap();
        assert_eq!(doc.element(0).text(), "");
    }

    #[test]
    fn links_extracted() {
        let input =
            r#"<paper><sec id="s1"/><cite xlink:href="other.xml#s9"/><see idref="s1"/></paper>"#;
        let (doc, _) = parse(input).unwrap();
        assert_eq!(doc.anchor("s1"), Some(1));
        assert_eq!(doc.links().len(), 2);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert_eq!(err.message, "mismatched close: <b> vs </a>");
        let err = parse("<a></unseen>").unwrap_err();
        assert_eq!(err.message, "mismatched close: <a> vs </unseen>");
    }

    #[test]
    fn unclosed_rejected_with_position() {
        let err = parse("<a>\n<b>").unwrap_err();
        assert!(err.message.contains("unclosed"), "{err}");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(
            err.message.contains("multiple root") || err.message.contains("after the root"),
            "{err}"
        );
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(parse("hello<a/>").is_err());
        assert!(parse("<a/>trailing").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse("").is_err());
        assert!(parse("   \n  ").is_err());
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let (doc, tags) = parse(r#"<x:a xmlns:x="u"><x:b/></x:a>"#).unwrap();
        assert_eq!(tags.name(doc.element(0).tag), "x:a");
        assert_eq!(tags.name(doc.element(1).tag), "x:b");
    }

    #[test]
    fn whitespace_only_text_ignored() {
        let (doc, _) = parse("<a>\n  <b/>\n  \n</a>").unwrap();
        assert_eq!(doc.element(0).text(), "");
    }
}
