//! Machine-readable diagnostic output: SARIF 2.1.0.
//!
//! A hand-rolled emitter (this crate is a std-only dependency leaf, so no
//! serde). The SARIF shape targets the subset consumed by `ci.sh` and by
//! code-scanning UIs: one `run` with a `tool.driver` listing every rule,
//! and one `result` per diagnostic carrying a `physicalLocation`.

use crate::lint::{Diagnostic, Rule};
use std::collections::BTreeSet;

/// Escapes `s` for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders diagnostics as a SARIF 2.1.0 log with a single run.
pub fn to_sarif(diagnostics: &[Diagnostic]) -> String {
    // Rule metadata: every rule that appears, plus the full catalog so the
    // driver block is stable across runs.
    let mut rule_ids: BTreeSet<&'static str> = Rule::ALL.iter().map(|r| r.name()).collect();
    for d in diagnostics {
        rule_ids.insert(d.rule.name());
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"flixcheck\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/flix/flixcheck\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, id) in rule_ids.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_escape(id),
            json_escape(rule_description(id))
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": \"{}\"}},\n                \"region\": {{\"startLine\": {}}}\n              }}\n            }}\n          ]\n        }}",
            json_escape(d.rule.name()),
            json_escape(&d.message),
            json_escape(&d.path),
            d.line
        ));
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// One-line description for each rule id, used in the SARIF driver block.
fn rule_description(id: &str) -> &'static str {
    match id {
        "unwrap-expect" => "unwrap/expect in production code",
        "panic" => "panic!/unreachable!/todo! in production code",
        "unsafe" => "unsafe code in a workspace whose crates forbid it",
        "instant-now" => "raw Instant::now or SystemTime::now bypassing the obs clock",
        "unbounded-channel" => "unbounded channel constructor",
        "lock-order" => "lock acquisition order forms a cycle (potential deadlock)",
        "blocking-while-locked" => "blocking operation while a lock guard is live",
        "cast-truncation" => "narrowing cast on a length/index value",
        "swallowed-result" => "Result silently discarded via let _ =",
        "atomic-ordering" => "bare Ordering::Relaxed outside sanctioned counters",
        "unsynced-write" => "file write outside the fsync-paired durability layer",
        "suppression" => "malformed or unused inline suppression",
        _ => "flixcheck diagnostic",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic {
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: Rule::UnwrapExpect,
                message: "found `unwrap` with \"quotes\" and \\ backslash".into(),
            },
            Diagnostic {
                path: "crates/y/src/a.rs".into(),
                line: 10,
                rule: Rule::LockOrder,
                message: "cycle {A::a, B::b}".into(),
            },
        ]
    }

    #[test]
    fn empty_inputs_are_valid() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"results\": ["));
    }

    #[test]
    fn sarif_has_required_members() {
        let s = to_sarif(&sample());
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"runs\""));
        assert!(s.contains("\"tool\""));
        assert!(s.contains("\"driver\""));
        assert!(s.contains("\"name\": \"flixcheck\""));
        assert!(s.contains("\"ruleId\": \"lock-order\""));
        assert!(s.contains("\"uri\": \"crates/y/src/a.rs\""));
        assert!(s.contains("\"startLine\": 10"));
        assert!(s.contains("\\\"quotes\\\""));
        assert!(s.contains("\\\\ backslash"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn control_chars_are_escaped() {
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }
}
