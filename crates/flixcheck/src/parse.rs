//! A lightweight Rust item parser on top of [`crate::lex`].
//!
//! This is not a full grammar: it recognises exactly the structure the
//! lint rules need — which bytes are test code (`#[cfg(test)]` items and
//! `#[test]` fns) and which `fn` items return `Result` — tracking brace
//! depth so nothing inside a body is mistaken for an item. Everything it
//! cannot classify is skipped, never an error: the linter must degrade
//! gracefully on code it does not understand.

use crate::lex::{lex, Token};
use std::ops::Range;

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// True if the fn (or an enclosing item) is test-only.
    pub in_test: bool,
    /// True if the declared return type mentions `Result`.
    pub returns_result: bool,
}

/// The parsed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Every `fn` item found.
    pub fns: Vec<FnItem>,
    /// Byte ranges covered by `#[cfg(test)]` items or `#[test]` fns.
    pub test_regions: Vec<Range<usize>>,
}

impl ParsedFile {
    /// True if byte offset `pos` falls in test-only code. This is the one
    /// definition of "test code" every rule asks.
    pub fn in_test(&self, pos: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&pos))
    }
}

/// Parses `src`, reusing an already-lexed token stream.
///
/// `tokens` must be the output of [`lex`] on the same `src`.
pub fn parse(src: &str, tokens: &[Token]) -> ParsedFile {
    Parser {
        src,
        tokens,
        sig: significant(tokens),
        out: ParsedFile::default(),
    }
    .run()
}

/// Convenience: lex and parse in one call.
pub fn parse_source(src: &str) -> (Vec<Token>, ParsedFile) {
    let tokens = lex(src);
    let parsed = parse(src, &tokens);
    (tokens, parsed)
}

/// Indices of non-trivia tokens.
fn significant(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_trivia())
        .map(|(i, _)| i)
        .collect()
}

struct Parser<'s> {
    src: &'s str,
    tokens: &'s [Token],
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    sig: Vec<usize>,
    out: ParsedFile,
}

/// One pending attribute: its text and start offset.
struct Attr {
    text: String,
    start: usize,
}

impl<'s> Parser<'s> {
    fn run(mut self) -> ParsedFile {
        let len = self.sig.len();
        let mut cursor = 0usize;
        self.items(&mut cursor, len, false);
        self.out
    }

    fn text(&self, sig_idx: usize) -> &'s str {
        self.tokens[self.sig[sig_idx]].text(self.src)
    }

    fn start(&self, sig_idx: usize) -> usize {
        self.tokens[self.sig[sig_idx]].start
    }

    /// Parses a run of items until `end` (significant-token index), with
    /// `in_test` inherited.
    fn items(&mut self, cursor: &mut usize, end: usize, in_test: bool) {
        let mut attrs: Vec<Attr> = Vec::new();
        while *cursor < end {
            let t = self.text(*cursor);
            match t {
                "#" => {
                    let start = self.start(*cursor);
                    let text = self.attr_text(cursor, end);
                    attrs.push(Attr { text, start });
                }
                "struct" => {
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    self.struct_item(cursor, end);
                    self.close_test_region(item_test, in_test, item_start, *cursor);
                    attrs.clear();
                }
                "fn" => {
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    self.fn_item(cursor, end, item_test);
                    self.close_test_region(item_test, in_test, item_start, *cursor);
                    attrs.clear();
                }
                "static" | "const" => {
                    self.static_item(cursor, end);
                    attrs.clear();
                }
                "mod" | "trait" | "impl" => {
                    // `mod name { items }` / `trait T { sigs }` /
                    // `impl [<..>] Type [for Type] { items }`: recurse into
                    // the braces.
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    *cursor += 1;
                    self.skip_to_body_or_semi(cursor, end);
                    if *cursor < end && self.text(*cursor) == "{" {
                        let body_end = self.matching_brace(*cursor, end);
                        *cursor += 1;
                        self.items(cursor, body_end, item_test);
                        *cursor = (body_end + 1).min(end);
                    }
                    self.close_test_region(item_test, in_test, item_start, *cursor);
                    attrs.clear();
                }
                "{" => {
                    // A stray block at item level: skip it wholesale.
                    *cursor = (self.matching_brace(*cursor, end) + 1).min(end);
                    attrs.clear();
                }
                _ => {
                    *cursor += 1;
                    if t == "pub" && *cursor < end && self.text(*cursor) == "(" {
                        // `pub(crate)` / `pub(super)` / `pub(in path)`: the
                        // restriction belongs to the visibility, and the
                        // pending attributes to the item behind it.
                        *cursor = (self.matching(*cursor, end, "(", ")") + 1).min(end);
                    } else if !matches!(t, "pub" | "async" | "unsafe" | "extern" | "default") {
                        attrs.clear();
                    }
                }
            }
        }
    }

    /// Records a test region if this item is test-only but its parent scope
    /// is not (so nested items don't produce duplicate regions).
    fn close_test_region(
        &mut self,
        item_test: bool,
        parent_test: bool,
        start: usize,
        cursor: usize,
    ) {
        if item_test && !parent_test {
            let end = if cursor == 0 {
                self.src.len()
            } else if cursor <= self.sig.len() {
                // End of the last consumed token.
                self.sig
                    .get(cursor.saturating_sub(1))
                    .map_or(self.src.len(), |&ti| self.tokens[ti].end)
            } else {
                self.src.len()
            };
            self.out.test_regions.push(start..end);
        }
    }

    /// Consumes `# [ ... ]` returning the bracketed text.
    fn attr_text(&self, cursor: &mut usize, end: usize) -> String {
        *cursor += 1; // the `#`
        if *cursor < end && self.text(*cursor) == "!" {
            *cursor += 1;
        }
        let mut out = String::new();
        if *cursor < end && self.text(*cursor) == "[" {
            let mut depth = 0usize;
            while *cursor < end {
                let t = self.text(*cursor);
                if t == "[" {
                    depth += 1;
                    *cursor += 1;
                    if depth > 1 {
                        out.push_str(t);
                    }
                    continue;
                }
                if t == "]" {
                    depth -= 1;
                    *cursor += 1;
                    if depth == 0 {
                        break;
                    }
                    out.push_str(t);
                    continue;
                }
                out.push_str(t);
                *cursor += 1;
            }
        }
        out
    }

    /// Skips `struct Name { fields }`, a tuple struct or a unit struct.
    fn struct_item(&self, cursor: &mut usize, end: usize) {
        *cursor += 1; // `struct`
        self.skip_to_body_or_semi(cursor, end);
        if *cursor < end && self.text(*cursor) == "{" {
            *cursor = self.matching_brace(*cursor, end);
        } else {
            // Tuple or unit struct: already positioned at `(`/`;`; skip on.
            while *cursor < end && self.text(*cursor) != ";" {
                *cursor += 1;
            }
        }
        *cursor = (*cursor + 1).min(end);
    }

    /// Skips `static NAME: Type = ...;` and `const` items.
    fn static_item(&self, cursor: &mut usize, end: usize) {
        *cursor += 2; // `static` / `const` and the name (or `mut`)
        let mut depth = 0i32;
        while *cursor < end {
            match self.text(*cursor) {
                // Not `<`/`>`: an initializer may shift or compare.
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                // Initializer expressions can contain braces (e.g. closures):
                // skip balanced groups wholesale.
                "{" => *cursor = self.matching_brace(*cursor, end),
                ";" if depth <= 0 => break,
                _ => {}
            }
            *cursor += 1;
        }
        *cursor = (*cursor + 1).min(end);
    }

    /// Parses `fn name(..) -> Ret { body }`, recording the item.
    fn fn_item(&mut self, cursor: &mut usize, end: usize, in_test: bool) {
        *cursor += 1; // `fn`
        if *cursor >= end {
            return;
        }
        let name = self.text(*cursor).to_string();
        *cursor += 1;
        // Generics.
        if *cursor < end && self.text(*cursor) == "<" {
            *cursor = self.matching_angles(*cursor, end) + 1;
        }
        // Parameters.
        if *cursor < end && self.text(*cursor) == "(" {
            *cursor = self.matching(*cursor, end, "(", ")") + 1;
        }
        // Return type / where clause, up to `{` or `;`.
        let mut returns_result = false;
        let mut saw_arrow = false;
        let mut in_where = false;
        while *cursor < end {
            let t = self.text(*cursor);
            if t == "{" {
                break;
            }
            if t == ";" {
                *cursor += 1;
                self.out.fns.push(FnItem {
                    name,
                    in_test,
                    returns_result,
                });
                return;
            }
            if t == "where" {
                in_where = true;
            }
            if t == "-" && *cursor + 1 < end && self.text(*cursor + 1) == ">" {
                saw_arrow = true;
            }
            if saw_arrow && !in_where && t == "Result" {
                returns_result = true;
            }
            *cursor += 1;
        }
        if *cursor >= end {
            return;
        }
        let body_end = self.matching_brace(*cursor, end);
        // Recurse for nested items: nested `fn` items do appear in bodies.
        let mut inner = *cursor + 1;
        self.items(&mut inner, body_end, in_test);
        *cursor = (body_end + 1).min(end);
        self.out.fns.push(FnItem {
            name,
            in_test,
            returns_result,
        });
    }

    /// Advances to the next `{` or `;` at angle/paren depth 0.
    fn skip_to_body_or_semi(&self, cursor: &mut usize, end: usize) {
        let mut depth = 0i32;
        while *cursor < end {
            match self.text(*cursor) {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "{" | ";" if depth <= 0 => return,
                _ => {}
            }
            *cursor += 1;
        }
    }

    /// Significant-token index of the `}` matching the `{` at `open`.
    fn matching_brace(&self, open: usize, end: usize) -> usize {
        self.matching(open, end, "{", "}")
    }

    fn matching(&self, open: usize, end: usize, open_t: &str, close_t: &str) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            let t = self.text(i);
            if t == open_t {
                depth += 1;
            } else if t == close_t {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        end.saturating_sub(1)
    }

    /// Matches `<...>` allowing for `>>` being two tokens already (the lexer
    /// emits single-byte puncts, so this is plain counting).
    fn matching_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match self.text(i) {
                "<" => depth += 1,
                // `->` / `=>` inside generic bounds (e.g. `Fn() -> u32`):
                // the `>` there closes nothing.
                ">" if i > open && matches!(self.text(i - 1), "-" | "=") => {}
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end.saturating_sub(1)
    }
}

/// True if any attribute marks the item test-only.
fn attrs_mark_test(attrs: &[Attr]) -> bool {
    attrs.iter().any(|a| {
        let t = a.text.replace(' ', "");
        t.starts_with("cfg(test)")
            || t == "test"
            || t.starts_with("cfg(all(test")
            || t.starts_with("cfg(any(test")
            || t.starts_with("tokio::test")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_items_marked() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { prod(); }\n\
                   }\n";
        let (_, parsed) = parse_source(src);
        let t = parsed.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
        let prod = parsed.fns.iter().find(|f| f.name == "prod").expect("prod");
        assert!(!prod.in_test);
        assert_eq!(parsed.test_regions.len(), 1);
        let pos = src.find("fn t").expect("present");
        assert!(parsed.in_test(pos));
        assert!(!parsed.in_test(0));
    }

    #[test]
    fn test_attr_on_bare_fn_marks_it() {
        let src = "#[test]\nfn standalone() { x.unwrap(); }\nfn lib() {}\n";
        let (_, parsed) = parse_source(src);
        let t = parsed
            .fns
            .iter()
            .find(|f| f.name == "standalone")
            .expect("fn");
        assert!(t.in_test);
        let pos = src.find("unwrap").expect("present");
        assert!(parsed.in_test(pos));
        let lib_pos = src.find("fn lib").expect("present");
        assert!(!parsed.in_test(lib_pos));
    }

    #[test]
    fn restricted_visibility_keeps_the_test_attribute() {
        let items = [
            "mod m { fn inner() {} }",
            "fn helper() { body(); }",
            "struct S { field: u32 }",
            "impl S { fn method(&self) {} }",
            "trait T { fn sig(&self); }",
        ];
        for vis in ["pub(crate)", "pub(super)", "pub(in crate::a)"] {
            for item in items {
                let src =
                    format!("fn before() {{}}\n#[cfg(test)]\n{vis} {item}\nfn after() {{}}\n");
                let (_, parsed) = parse_source(&src);
                let start = src.find("#[cfg").expect("present");
                let end = src.find("\nfn after").expect("present");
                assert_eq!(parsed.test_regions, vec![start..end], "{src}");
                assert!(!parsed.in_test(0) && !parsed.in_test(end + 1), "{src}");
                for f in &parsed.fns {
                    let inside = !matches!(f.name.as_str(), "before" | "after");
                    assert_eq!(f.in_test, inside, "{} in {src}", f.name);
                }
            }
        }
    }
}
