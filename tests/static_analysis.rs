//! Tier-1 gate: the flixcheck static-analysis pass must be clean.
//!
//! This runs the same pass as `cargo run -p flixcheck`, so a freshly
//! introduced `unwrap()` in library code (or a suppression that no longer
//! matches anything) fails `cargo test` with the exact
//! `path:line: rule: message` diagnostics printed below. On top of the
//! cleanliness gate it checks the concurrency analysis end to end (acyclic
//! lock-order graph over the real workspace, a seeded AB-BA fixture that
//! must fire), the SARIF emitter's shape, and — by property test — that the
//! lexer's tokens partition adversarial sources exactly.

use std::path::Path;

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

#[test]
fn workspace_lock_order_graph_is_acyclic() {
    let report = flixcheck::run_default().expect("lint pass runs");
    assert!(
        !report.lock_graph_cyclic,
        "workspace lock-order graph has a cycle; edges: {:?}",
        report.lock_edges
    );
    // Sanity: the extractor resolved the edges it did see to real classes.
    for edge in &report.lock_edges {
        assert!(edge.from.contains("::"), "unresolved class {edge:?}");
        assert!(edge.to.contains("::"), "unresolved class {edge:?}");
    }
}

/// The seeded fixture tree (outside the normal walk) must trip both
/// concurrency rules — this is the library-level twin of the ci.sh
/// negative smoke on `flixcheck --root crates/flixcheck/fixtures/deadlock`.
#[test]
fn seeded_deadlock_fixture_fires() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/flixcheck/fixtures/deadlock");
    let report = flixcheck::run(&root).expect("fixture pass runs");
    assert!(report.lock_graph_cyclic, "AB-BA fixture must form a cycle");
    let lock_order = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == flixcheck::Rule::LockOrder)
        .count();
    assert_eq!(lock_order, 2, "one lock-order diagnostic per cycle edge");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == flixcheck::Rule::BlockingWhileLocked),
        "nested acquisition inside the cycle is also blocking-while-locked"
    );
    assert!(!report.is_clean());
}

#[test]
fn sarif_output_has_2_1_0_shape() {
    let diags = flixcheck::lint_file(
        "crates/x/src/lib.rs",
        "pub fn f(v: &[u8]) { let _ = v.len() as u16; }\n",
    );
    assert!(!diags.is_empty(), "seed source must produce a finding");
    let sarif = flixcheck::sarif::to_sarif(&diags);
    for needle in [
        r#""version": "2.1.0""#,
        "sarif-schema-2.1.0",
        r#""runs""#,
        r#""driver""#,
        r#""rules""#,
        r#""results""#,
        r#""ruleId": "cast-truncation""#,
        r#""physicalLocation""#,
        r#""startLine""#,
        "crates/x/src/lib.rs",
    ] {
        assert!(
            sarif.contains(needle),
            "SARIF output missing {needle}:\n{sarif}"
        );
    }
    // Every rule in the catalog is described, fired or not.
    for rule in flixcheck::Rule::ALL {
        assert!(
            sarif.contains(rule.name()),
            "rule {} absent from SARIF driver catalog",
            rule.name()
        );
    }
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
