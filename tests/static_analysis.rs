//! Tier-1 gate: the flixcheck static-analysis pass must be clean.
//!
//! A freshly introduced `unwrap()` in library code (or a suppression that
//! no longer matches anything) fails `cargo test` with the exact
//! `path:line: rule: message` diagnostics printed below. On top of the
//! cleanliness gate it checks, by property test, that the lexer's tokens
//! partition adversarial sources exactly.

use proptest::prelude::*;

#[test]
fn workspace_is_lint_clean() {
    let report = flixcheck::run_default().expect("lint pass runs");
    for diag in &report.diagnostics {
        eprintln!("{diag}");
    }
    assert!(
        report.is_clean(),
        "{} lint violation(s); see diagnostics above",
        report.diagnostics.len()
    );
    assert!(report.files_scanned > 40, "lint must cover the workspace");
}

/// Source fragments that exercise the lexer's corners: escaped-quote char
/// literals, byte chars, raw strings with varying hash depth, literal
/// prefixes glued to identifiers, nested block comments, lifetimes.
const FRAGMENTS: &[&str] = &[
    "let x = 1;",
    "fn f<'a, 'de>(s: &'a str) -> &'de str { s }",
    r"let q = '\'';",
    r"let b = '\\';",
    "let n = '\\n';",
    "let u = '\\u{1F600}';",
    "let c = 'x';",
    "let y = b'x';",
    r"let z = b'\'';",
    r#"let s = "plain \" escaped";"#,
    r##"let r = r"raw";"##,
    r###"let r1 = r#"one " hash"#;"###,
    r####"let r2 = r##"two "# hashes"##;"####,
    r##"let bs = b"bytes";"##,
    r###"let br = br#"raw bytes"#;"###,
    "let my_b = 1; my_b\"not a byte string\";",
    "har\"not raw\";",
    "let r#type = 0b1010;",
    "// line comment with ' \" r#\" b' inside\n",
    "/// doc comment .unwrap() bait\n",
    "/* block /* nested 'x' */ done */",
    "let f = 1.5e-3 + 1e9 + 42u32;",
    "m.lock().insert('k', v);",
    "label: loop { break 'label; }",
    "let emoji = \"ß€\";",
];

/// Strategy: a random concatenation of adversarial fragments joined by
/// random separators, so literal prefixes collide with whatever came
/// before them.
fn arb_source() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0..FRAGMENTS.len(), 1..12),
        proptest::collection::vec(
            prop_oneof![Just(" "), Just("\n"), Just(""), Just(";")],
            0..12,
        ),
    )
        .prop_map(|(picks, seps)| {
            let mut out = String::new();
            for (i, p) in picks.iter().enumerate() {
                out.push_str(FRAGMENTS[*p]);
                out.push_str(seps.get(i).copied().unwrap_or("\n"));
            }
            out
        })
}

/// Strategy: short strings over an alphabet chosen to stress the lexer's
/// quote/prefix/comment state machines, including pathological
/// (unterminated) inputs.
fn arb_hostile() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('\''),
            Just('"'),
            Just('\\'),
            Just('#'),
            Just('r'),
            Just('b'),
            Just('/'),
            Just('*'),
            Just('a'),
            Just('_'),
            Just('0'),
            Just('\n'),
            Just(' '),
            Just('.'),
            Just('ß'),
        ],
        0..40,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    /// The token stream partitions the input exactly, on structured sources
    /// and on hostile character soup alike.
    #[test]
    fn lexer_tokens_cover_every_byte(src in prop_oneof![arb_source(), arb_hostile()]) {
        let toks = flixcheck::lex::lex(&src);
        let mut pos = 0;
        for t in &toks {
            prop_assert_eq!(t.start, pos, "gap/overlap at {}", pos);
            pos = t.end;
        }
        prop_assert_eq!(pos, src.len());
        let rebuilt: String = toks.iter().map(|t| t.text(&src)).collect();
        prop_assert_eq!(rebuilt, src);
    }
}
