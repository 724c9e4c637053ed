//! A from-scratch Rust lexer.
//!
//! [`lex`] splits a source file into a complete token stream: every byte of
//! the input belongs to exactly one token, so concatenating the token texts
//! reproduces the file. It is flixcheck's only view of a source file: the
//! parser in [`crate::parse`] and every rule in [`crate::lint`] work on this
//! stream.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers `r#type`).
    Ident,
    /// A lifetime or loop label: `'a`, `'outer`.
    Lifetime,
    /// Integer or float literal, including suffixes (`42u32`, `1.5e-3`).
    Num,
    /// `"..."` string literal.
    Str,
    /// `r"..."` / `r#"..."#` raw string literal.
    RawStr,
    /// `b"..."` byte-string literal.
    ByteStr,
    /// `br"..."` / `br#"..."#` raw byte-string literal.
    RawByteStr,
    /// `'x'` char literal (including escapes).
    Char,
    /// `b'x'` byte literal.
    Byte,
    /// `// ...` comment; `doc` is true for `///` and `//!`.
    LineComment {
        /// True for `///` and `//!` doc comments.
        doc: bool,
    },
    /// `/* ... */` comment (nesting handled); `doc` is true for `/**`, `/*!`.
    BlockComment {
        /// True for `/**` and `/*!` doc comments.
        doc: bool,
    },
    /// A single punctuation byte (`.`, `:`, `{`, ...).
    Punct,
    /// A run of whitespace.
    Ws,
}

/// One token: a kind plus the byte range it covers in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token kind.
    pub kind: TokKind,
    /// Inclusive start byte offset.
    pub start: usize,
    /// Exclusive end byte offset.
    pub end: usize,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    /// True for tokens the parser skips (whitespace and comments).
    pub fn is_trivia(&self) -> bool {
        matches!(
            self.kind,
            TokKind::Ws | TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }
}

/// Lexes `src` into a complete token stream covering every byte.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let kind = match bytes[i] {
            b if b.is_ascii_whitespace() => {
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                TokKind::Ws
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let doc = (bytes.get(i + 2) == Some(&b'/') && bytes.get(i + 3) != Some(&b'/'))
                    || bytes.get(i + 2) == Some(&b'!');
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                TokKind::LineComment { doc }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let doc = (bytes.get(i + 2) == Some(&b'*') && bytes.get(i + 3) != Some(&b'*'))
                    || bytes.get(i + 2) == Some(&b'!');
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::BlockComment { doc }
            }
            b'r' | b'b' if raw_string_start(bytes, i) => {
                let byte_str = bytes[i] == b'b';
                i = skip_raw_string(bytes, i);
                if byte_str {
                    TokKind::RawByteStr
                } else {
                    TokKind::RawStr
                }
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                i = skip_plain_string(bytes, i + 1);
                TokKind::ByteStr
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                i = skip_char_literal(bytes, i + 1);
                TokKind::Byte
            }
            b'r' if bytes.get(i + 1) == Some(&b'#')
                && is_ident_start(bytes.get(i + 2).copied()) =>
            {
                // Raw identifier `r#type`.
                i += 2;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                TokKind::Ident
            }
            b'"' => {
                i = skip_plain_string(bytes, i);
                TokKind::Str
            }
            b'\'' => match classify_quote(bytes, i) {
                Quote::Char => {
                    i = skip_char_literal(bytes, i);
                    TokKind::Char
                }
                Quote::Lifetime => {
                    i += 1;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                    TokKind::Lifetime
                }
                Quote::Lone => {
                    i += 1;
                    TokKind::Punct
                }
            },
            b if b.is_ascii_digit() => {
                i = skip_number(bytes, i);
                TokKind::Num
            }
            b if is_ident_start(Some(b)) => {
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                TokKind::Ident
            }
            _ => {
                // Single punctuation byte; multi-byte UTF-8 sequences outside
                // identifiers/strings are consumed whole so token boundaries
                // stay on char boundaries.
                let len = utf8_len(bytes[i]);
                i += len;
                TokKind::Punct
            }
        };
        // A truncated escape at EOF (`"a\`) can step past the end; clamp so
        // token ranges always index into the source.
        i = i.min(bytes.len());
        debug_assert!(i > start, "lexer must make progress");
        tokens.push(Token {
            kind,
            start,
            end: i,
        });
    }
    tokens
}

/// 1-indexed line number of byte offset `pos`.
pub fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos.min(src.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// How a `'` at some position should be read.
enum Quote {
    Char,
    Lifetime,
    Lone,
}

/// Decides whether the `'` at `i` starts a char literal or a lifetime.
fn classify_quote(bytes: &[u8], i: usize) -> Quote {
    match bytes.get(i + 1) {
        None => Quote::Lone,
        Some(&b'\\') => Quote::Char,
        Some(&b) => {
            let ch_len = utf8_len(b);
            if bytes.get(i + 1 + ch_len) == Some(&b'\'') {
                Quote::Char
            } else if is_ident_start(Some(b)) || b >= 0x80 {
                Quote::Lifetime
            } else {
                Quote::Lone
            }
        }
    }
}

/// Skips a char/byte literal starting at the opening `'` at `i`; returns
/// the index just past the closing quote. Handles `'\''`, `'\\'`, and
/// multi-char escapes like `'\u{1F600}'`.
fn skip_char_literal(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    if bytes.get(i) == Some(&b'\\') {
        // The byte after the backslash is escaped: consume both, then scan
        // for the closing quote (covers \x41 and \u{...} tails).
        i += 2;
        while i < bytes.len() {
            match bytes[i] {
                b'\'' => return i + 1,
                b'\\' => i += 2,
                b'\n' => return i, // unterminated; don't cross lines
                _ => i += 1,
            }
        }
        i
    } else {
        // One (possibly multi-byte) char, then the closing quote.
        if i < bytes.len() {
            i += utf8_len(bytes[i]);
        }
        if bytes.get(i) == Some(&b'\'') {
            i + 1
        } else {
            i
        }
    }
}

/// True if `bytes[i..]` starts a raw (byte) string: `r"`, `r#...#"`, `br"`.
fn raw_string_start(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Skips a raw string starting at `i` (at the `r` or `b`), returning the
/// index just past the closing quote-and-hashes.
fn skip_raw_string(bytes: &[u8], mut i: usize) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // the `r`
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut k = 0;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Skips a plain `"..."` string with `\` escapes, starting at the quote.
fn skip_plain_string(bytes: &[u8], mut i: usize) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a numeric literal (int or float, any base, suffixes) at `i`.
fn skip_number(bytes: &[u8], mut i: usize) -> usize {
    i += 1;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    // Fractional part: a `.` followed by a digit (never `..`, a range).
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        // Signed exponent (`1.5e-3`): the sign follows an `e`/`E`.
        if i < bytes.len()
            && (bytes[i] == b'+' || bytes[i] == b'-')
            && bytes.get(i - 1).is_some_and(|&b| b == b'e' || b == b'E')
        {
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    } else if i < bytes.len()
        && (bytes[i] == b'+' || bytes[i] == b'-')
        && bytes.get(i - 1).is_some_and(|&b| b == b'e' || b == b'E')
        && bytes[..i]
            .iter()
            .rev()
            .skip(1)
            .take_while(|b| b.is_ascii_alphanumeric())
            .all(|b| b.is_ascii_digit() || *b == b'e' || *b == b'E')
    {
        // `1e-3` without a fractional part.
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    i
}

/// True if `b` can start an identifier.
fn is_ident_start(b: Option<u8>) -> bool {
    b.is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b >= 0x80)
}

/// True if `b` can continue an identifier.
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte length of the UTF-8 sequence starting with `b`.
fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ if b >= 0xf0 => 4,
        // Continuation byte on its own (invalid UTF-8): consume one.
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src)
            .into_iter()
            .filter(|t| !t.is_trivia())
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn tokens_cover_every_byte() {
        let src = "fn f<'a>(x: &'a str) -> u32 { x.len() as u32 /* c */ } // t\n";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert_eq!(t.start, pos, "gap before {t:?}");
            pos = t.end;
        }
        assert_eq!(pos, src.len());
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'de>(c: char) { let x = 'a'; let y: &'de str = s; }";
        let toks = lex(src);
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text(src), "'a'");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(lifetimes, vec!["'de", "'de"]);
    }

    #[test]
    fn escaped_quote_char_literals() {
        for (src, expect) in [
            (r"let q = '\'';", r"'\''"),
            (r"let b = '\\';", r"'\\'"),
            ("let u = '\\u{1F600}';", "'\\u{1F600}'"),
            (r"let t = b'\'';", r"b'\''"),
        ] {
            let toks = lex(src);
            let lit = toks
                .iter()
                .find(|t| matches!(t.kind, TokKind::Char | TokKind::Byte))
                .unwrap_or_else(|| panic!("no char literal lexed in {src}"));
            assert_eq!(lit.text(src), expect, "in {src}");
            // The trailing `;` must survive as punctuation.
            assert!(
                toks.iter()
                    .any(|t| t.kind == TokKind::Punct && t.text(src) == ";"),
                "semicolon lost in {src}"
            );
        }
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        let src = r####"let a = r#"x " quote"#; let b = r##"y "# z"##;"####;
        let toks = lex(src);
        let raws: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::RawStr)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(
            raws,
            vec![r####"r#"x " quote"#"####, r####"r##"y "# z"##"####]
        );
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let src = "let r#type = 1; let rate = r#type;";
        let toks = lex(src);
        assert!(toks.iter().all(|t| t.kind != TokKind::RawStr));
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert!(idents.contains(&"r#type"));
        assert!(idents.contains(&"rate"));
    }

    #[test]
    fn nested_block_comments_and_doc_flags() {
        let src = "/* a /* b */ c */ /// doc\n//! inner\n//// not doc\n/** block doc */";
        let toks: Vec<_> = lex(src);
        let comments: Vec<_> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::LineComment { doc } => Some(("line", doc)),
                TokKind::BlockComment { doc } => Some(("block", doc)),
                _ => None,
            })
            .collect();
        assert_eq!(
            comments,
            vec![
                ("block", false),
                ("line", true),
                ("line", true),
                ("line", false),
                ("block", true),
            ]
        );
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        let src = "let a = 42u32 + 0xff_u8 + 1.5e-3 + 1e9 + x[0..n];";
        let toks = lex(src);
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(nums, vec!["42u32", "0xff_u8", "1.5e-3", "1e9", "0"]);
        assert_eq!(kinds("0..n").len(), 4); // 0, ., ., n
    }

    #[test]
    fn line_numbers() {
        let src = "a\nb\nc\n";
        assert_eq!(line_of(src, 0), 1);
        assert_eq!(line_of(src, 2), 2);
        assert_eq!(line_of(src, 4), 3);
    }
}
