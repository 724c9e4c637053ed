//! A lightweight Rust item parser on top of [`crate::lex`].
//!
//! This is not a full grammar: it recognises exactly the structure the
//! analysis passes need — `struct` fields (to find lock declarations),
//! `static` items, `impl` blocks (to resolve `self.field`), and `fn`
//! items with their body token ranges and test-ness (`#[cfg(test)]` /
//! `#[test]`), tracking brace depth so nothing inside a body is mistaken
//! for an item. Everything it cannot classify is skipped, never an error:
//! the linter must degrade gracefully on code it does not understand.

use crate::lex::{lex, line_of, Token};
use std::ops::Range;

/// A `Mutex`/`RwLock` kind, for lock-class bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` or `parking_lot::Mutex`.
    Mutex,
    /// `std::sync::RwLock` or `parking_lot::RwLock`.
    RwLock,
}

/// A struct field whose type embeds a lock.
#[derive(Debug, Clone)]
pub struct LockField {
    /// Name of the struct declaring the field.
    pub struct_name: String,
    /// The field name.
    pub field: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// 1-indexed declaration line.
    pub line: usize,
}

/// A `static` item whose type embeds a lock.
#[derive(Debug, Clone)]
pub struct LockStatic {
    /// The static's name.
    pub name: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// 1-indexed declaration line.
    pub line: usize,
}

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Enclosing `impl` type, if the fn sits in an impl block.
    pub impl_type: Option<String>,
    /// Token-index range (into the parse's token vec) of the body,
    /// including the outer braces. `None` for trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// True if the fn (or an enclosing item) is test-only.
    pub in_test: bool,
    /// True if the declared return type mentions `Result`.
    pub returns_result: bool,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
}

/// The parsed view of one source file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Lock-typed struct fields declared in this file.
    pub lock_fields: Vec<LockField>,
    /// Lock-typed statics declared in this file.
    pub lock_statics: Vec<LockStatic>,
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
        self.items(&mut cursor, len, None, false);
        self.out
    }

    fn text(&self, sig_idx: usize) -> &'s str {
        self.tokens[self.sig[sig_idx]].text(self.src)
    }

    fn start(&self, sig_idx: usize) -> usize {
        self.tokens[self.sig[sig_idx]].start
    }

    fn line(&self, sig_idx: usize) -> usize {
        line_of(self.src, self.start(sig_idx))
    }

    /// Parses a run of items until `end` (significant-token index),
    /// inside `impl_type` context, with `in_test` inherited.
    fn items(&mut self, cursor: &mut usize, end: usize, impl_type: Option<&str>, in_test: bool) {
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
                "impl" => {
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    self.impl_item(cursor, end, item_test);
                    self.close_test_region(item_test, in_test, item_start, *cursor);
                    attrs.clear();
                }
                "fn" => {
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    self.fn_item(cursor, end, impl_type, item_test);
                    self.close_test_region(item_test, in_test, item_start, *cursor);
                    attrs.clear();
                }
                "static" | "const" => {
                    self.static_item(cursor, end, t == "static");
                    attrs.clear();
                }
                "mod" | "trait" => {
                    // `mod name { items }` / `trait T { sigs }`: recurse into
                    // the braces with the same impl context cleared.
                    let item_test = in_test || attrs_mark_test(&attrs);
                    let item_start = attrs.first().map_or(self.start(*cursor), |a| a.start);
                    *cursor += 1;
                    self.skip_to_body_or_semi(cursor, end);
                    if *cursor < end && self.text(*cursor) == "{" {
                        let body_end = self.matching_brace(*cursor, end);
                        *cursor += 1;
                        self.items(cursor, body_end, None, item_test);
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

    /// Parses `struct Name { fields }` (or tuple/unit structs), recording
    /// lock-typed fields.
    fn struct_item(&mut self, cursor: &mut usize, end: usize) {
        *cursor += 1; // `struct`
        if *cursor >= end {
            return;
        }
        let name = self.text(*cursor).to_string();
        *cursor += 1;
        self.skip_to_body_or_semi(cursor, end);
        if *cursor >= end || self.text(*cursor) != "{" {
            // Tuple or unit struct: already positioned at `(`/`;`; skip on.
            while *cursor < end && self.text(*cursor) != ";" {
                *cursor += 1;
            }
            *cursor = (*cursor + 1).min(end);
            return;
        }
        let body_end = self.matching_brace(*cursor, end);
        let mut i = *cursor + 1;
        // Fields: [attrs] [pub[(..)]] name : Type ,
        while i < body_end {
            let t = self.text(i);
            if t == "#" {
                let mut c = i;
                self.attr_text(&mut c, body_end);
                i = c;
                continue;
            }
            if t == "pub" {
                i += 1;
                if i < body_end && self.text(i) == "(" {
                    i = self.matching(i, body_end, "(", ")") + 1;
                }
                continue;
            }
            // Expect `name :`.
            if i + 1 < body_end && self.text(i + 1) == ":" && is_ident(t) {
                let field = t.to_string();
                let line = self.line(i);
                let mut j = i + 2;
                let mut ty = String::new();
                let mut depth = 0i32;
                while j < body_end {
                    let tt = self.text(j);
                    match tt {
                        "<" | "(" | "[" => depth += 1,
                        ">" | ")" | "]" => depth -= 1,
                        "," if depth <= 0 => break,
                        _ => {}
                    }
                    ty.push_str(tt);
                    ty.push(' ');
                    j += 1;
                }
                if let Some(kind) = lock_kind_of(&ty) {
                    self.out.lock_fields.push(LockField {
                        struct_name: name.clone(),
                        field,
                        kind,
                        line,
                    });
                }
                i = (j + 1).min(body_end);
            } else {
                i += 1;
            }
        }
        *cursor = (body_end + 1).min(end);
    }

    /// Parses `static NAME: Type = ...;` recording lock-typed statics;
    /// `const` items are skipped the same way without recording.
    fn static_item(&mut self, cursor: &mut usize, end: usize, record: bool) {
        *cursor += 1; // `static` / `const`
        if *cursor < end && self.text(*cursor) == "mut" {
            *cursor += 1;
        }
        if *cursor >= end {
            return;
        }
        let name = self.text(*cursor).to_string();
        let line = self.line(*cursor);
        *cursor += 1;
        let mut ty = String::new();
        if *cursor < end && self.text(*cursor) == ":" {
            *cursor += 1;
            let mut depth = 0i32;
            while *cursor < end {
                let t = self.text(*cursor);
                match t {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "=" | ";" if depth <= 0 => break,
                    _ => {}
                }
                ty.push_str(t);
                ty.push(' ');
                *cursor += 1;
            }
        }
        while *cursor < end && self.text(*cursor) != ";" {
            // Initializer expressions can contain braces (e.g. closures):
            // skip balanced groups wholesale.
            if self.text(*cursor) == "{" {
                *cursor = self.matching_brace(*cursor, end);
            }
            *cursor += 1;
        }
        *cursor = (*cursor + 1).min(end);
        if record {
            if let Some(kind) = lock_kind_of(&ty) {
                self.out.lock_statics.push(LockStatic { name, kind, line });
            }
        }
    }

    /// Parses `impl [<..>] Type [for Type] { items }`.
    fn impl_item(&mut self, cursor: &mut usize, end: usize, in_test: bool) {
        *cursor += 1; // `impl`
                      // Collect header tokens until the body `{` (or `;`), tracking the
                      // last path segment seen and whether a `for` occurred: for trait
                      // impls the *implementing* type follows `for`.
        let mut last_seg: Option<String> = None;
        let mut depth = 0i32;
        let mut in_where = false;
        while *cursor < end {
            let t = self.text(*cursor);
            match t {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => depth -= 1,
                "{" if depth <= 0 => break,
                ";" if depth <= 0 => {
                    *cursor += 1;
                    return;
                }
                "for" if depth <= 0 => last_seg = None,
                "where" if depth <= 0 => in_where = true,
                _ if depth <= 0 && !in_where && is_ident(t) && t != "dyn" => {
                    last_seg = Some(t.to_string());
                }
                _ => {}
            }
            *cursor += 1;
        }
        if *cursor >= end {
            return;
        }
        let body_end = self.matching_brace(*cursor, end);
        *cursor += 1;
        let ty = last_seg;
        self.items(cursor, body_end, ty.as_deref(), in_test);
        *cursor = (body_end + 1).min(end);
    }

    /// Parses `fn name(..) -> Ret { body }`, recording the item.
    fn fn_item(&mut self, cursor: &mut usize, end: usize, impl_type: Option<&str>, in_test: bool) {
        let fn_line = self.line(*cursor);
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
                    impl_type: impl_type.map(str::to_string),
                    body: None,
                    in_test,
                    returns_result,
                    line: fn_line,
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
        let body = Some((
            self.sig[*cursor],
            self.sig[body_end.min(self.sig.len() - 1)],
        ));
        // Recurse for nested items (closures' fns, nested mods are rare but
        // `impl` blocks never nest in bodies; nested `fn` items do appear).
        let mut inner = *cursor + 1;
        self.items(&mut inner, body_end, impl_type, in_test);
        *cursor = (body_end + 1).min(end);
        self.out.fns.push(FnItem {
            name,
            impl_type: impl_type.map(str::to_string),
            body,
            in_test,
            returns_result,
            line: fn_line,
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

/// True if `t` looks like an identifier token.
fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Detects a lock type in rendered type text (`Mutex < .. >`).
fn lock_kind_of(ty: &str) -> Option<LockKind> {
    for (needle, kind) in [("Mutex", LockKind::Mutex), ("RwLock", LockKind::RwLock)] {
        let mut search = 0;
        while let Some(found) = ty[search..].find(needle) {
            let at = search + found;
            let before_ok = at == 0
                || !ty[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = ty[at + needle.len()..].chars().next();
            let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                return Some(kind);
            }
            search = at + needle.len();
        }
    }
    None
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
    fn finds_lock_fields_and_statics() {
        let src = "pub struct Pool {\n\
                       inner: Mutex<PoolInner>,\n\
                       pub map: RwLock<HashMap<u32, u32>>,\n\
                       count: usize,\n\
                   }\n\
                   static REGISTRY: parking_lot::Mutex<Vec<u8>> = Mutex::new(Vec::new());\n";
        let (_, parsed) = parse_source(src);
        assert_eq!(parsed.lock_fields.len(), 2, "{:?}", parsed.lock_fields);
        assert_eq!(parsed.lock_fields[0].struct_name, "Pool");
        assert_eq!(parsed.lock_fields[0].field, "inner");
        assert_eq!(parsed.lock_fields[0].kind, LockKind::Mutex);
        assert_eq!(parsed.lock_fields[1].field, "map");
        assert_eq!(parsed.lock_fields[1].kind, LockKind::RwLock);
        assert_eq!(parsed.lock_statics.len(), 1);
        assert_eq!(parsed.lock_statics[0].name, "REGISTRY");
    }

    #[test]
    fn mutex_guard_field_is_not_a_lock() {
        let src = "struct Held<'a> { g: MutexGuard<'a, u32>, r: RwLockReadGuard<'a, u8> }";
        let (_, parsed) = parse_source(src);
        assert!(parsed.lock_fields.is_empty(), "{:?}", parsed.lock_fields);
    }

    #[test]
    fn resolves_impl_context_and_fn_bodies() {
        let src = "impl Pool {\n\
                       pub fn get(&self) -> u32 { self.inner.lock().n }\n\
                       fn put(&self) {}\n\
                   }\n\
                   impl Drop for Pool { fn drop(&mut self) {} }\n\
                   fn free() -> Result<(), E> { Ok(()) }\n";
        let (_, parsed) = parse_source(src);
        let names: Vec<_> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert!(names.contains(&("get", Some("Pool"))));
        assert!(names.contains(&("put", Some("Pool"))));
        assert!(names.contains(&("drop", Some("Pool"))));
        assert!(names.contains(&("free", None)));
        let free = parsed.fns.iter().find(|f| f.name == "free").expect("free");
        assert!(free.returns_result);
        let get = parsed.fns.iter().find(|f| f.name == "get").expect("get");
        assert!(!get.returns_result);
        assert!(get.body.is_some());
    }

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

    #[test]
    fn trait_impl_type_is_the_implementing_type() {
        let src = "impl fmt::Display for Diagnostic { fn fmt(&self) {} }";
        let (_, parsed) = parse_source(src);
        assert_eq!(parsed.fns[0].impl_type.as_deref(), Some("Diagnostic"));
    }

    #[test]
    fn generic_impl_resolves_base_type() {
        let src = "impl<T: Clone> Cache<T> { fn get(&self) {} }";
        let (_, parsed) = parse_source(src);
        // The last depth-0 path segment before `{` wins; generics on the
        // type are nested and skipped.
        assert_eq!(parsed.fns[0].impl_type.as_deref(), Some("Cache"));
    }
}
