//! The workspace lint pass.
//!
//! [`run`] walks every production source tree — `crates/*/src/**/*.rs`,
//! the workspace root `src/`, and `examples/` — lexes ([`crate::lex`]) and
//! parses ([`crate::parse`]) each file once, and runs every rule over that
//! one token stream. Test code — whatever [`ParsedFile::in_test`] says is
//! under `#[cfg(test)]` or `#[test]` — is exempt from all of them.
//!
//! Forbidden token sequences (the `FORBIDDEN` table):
//!
//! * `unwrap-expect` — no `.unwrap()` / `.expect(` outside tests.
//! * `panic` — no `panic!` / `todo!` / `unimplemented!` in library code.
//! * `instant-now` — `Instant::now()` and `SystemTime::now()` only inside
//!   the `obs` crate: all other code must time through
//!   `flixobs::Stopwatch`, so measurements cannot bypass the
//!   observability layer (and wall-clock steps cannot corrupt durations).
//! * `unbounded-channel` — no `unbounded()` / `mpsc::channel()` channel
//!   construction: the serving path must use bounded queues so overload
//!   sheds instead of buffering without limit.
//! * `unsynced-write` — no raw `fs::write(` / `File::create(` outside
//!   pagestore's durability layer (`DURABILITY_FILES`): durable state
//!   must go through the disk/WAL/manifest protocol, which pairs every
//!   write with its fsync or atomic rename.
//!
//! Shaped patterns:
//!
//! * `cast-truncation` — a narrowing `as {u8,u16,i8,i16}` cast applied to
//!   a length/index-shaped value (`.len()`, `*_count`, `*_idx`, ...).
//! * `swallowed-result` — `let _ = f(..);` where the final callee is a
//!   known fallible operation (`send`, `recv`, `join`, `flush`, ...) or a
//!   workspace fn that returns `Result`.
//! * `atomic-ordering` — bare `Ordering::Relaxed` outside the `obs` crate
//!   (whose counters are the sanctioned relaxed hot path).
//!
//! Every rule looks at one file; the one thing shared across files is the
//! registry of workspace fn names that return `Result`, which
//! `swallowed-result` consults. What the compiler checks stays with the
//! compiler: every crate root, binary and example carries
//! `#![forbid(unsafe_code)]`, and every crate root `#![deny(missing_docs)]`.
//!
//! A finding is excused in one way, an **inline suppression** on the
//! offending line or the line above:
//!
//! ```text
//! // flixcheck: allow(cast-truncation): page offsets fit u16 by format
//! ```
//!
//! The reason is mandatory, and a suppression that matches no diagnostic
//! is itself a `suppression` diagnostic, so stale ones cannot linger.
//!
//! Diagnostics are machine readable: `path:line: rule: message`.

use crate::lex::{lex, line_of, TokKind, Token};
use crate::parse::{parse, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The one crate allowed to call `Instant::now()` directly (it hosts
/// `flixobs::Stopwatch`, the sanctioned clock).
const CLOCK_CRATE_PREFIX: &str = "crates/obs/";

/// The files allowed to create and write files directly: pagestore's
/// durability layer, where every write is paired with the fsync or
/// atomic-rename step the recovery protocol needs. Everywhere else a raw
/// `fs::write`/`File::create` is either durable state bypassing that
/// protocol (a bug) or a non-durable artifact (suppress with a reason).
const DURABILITY_FILES: &[&str] = &[
    "crates/pagestore/src/disk.rs",
    "crates/pagestore/src/wal.rs",
    "crates/pagestore/src/snapshot.rs",
];

/// The forbidden token sequences. A row fires where its tokens are
/// consecutive non-trivia tokens (`::` lexes as two `:`), and the message
/// shows them concatenated. Comparing token texts is enough to stay out of
/// literals: a string, char or lifetime token's text contains its quote.
const FORBIDDEN: &[(Rule, &[&str])] = &[
    (Rule::UnwrapExpect, &[".", "unwrap", "(", ")"]),
    (Rule::UnwrapExpect, &[".", "expect", "("]),
    (Rule::Panic, &["panic", "!"]),
    (Rule::Panic, &["todo", "!"]),
    (Rule::Panic, &["unimplemented", "!"]),
    // Both raw clocks bypass the obs layer: `Instant::now()` dodges
    // `Stopwatch` (so the measurement is invisible to traces and the
    // flight recorder), and `SystemTime::now()` additionally isn't
    // monotonic — wall-clock steps corrupt any duration computed from it.
    (Rule::InstantNow, &["Instant", ":", ":", "now"]),
    (Rule::InstantNow, &["SystemTime", ":", ":", "now"]),
    (Rule::UnboundedChannel, &["unbounded", "("]),
    (
        Rule::UnboundedChannel,
        &["mpsc", ":", ":", "channel", "(", ")"],
    ),
    (Rule::UnsyncedWrite, &["fs", ":", ":", "write", "("]),
    (Rule::UnsyncedWrite, &["File", ":", ":", "create", "("]),
];

/// The message of a [`FORBIDDEN`] row, given its concatenated tokens.
fn forbidden_message(rule: Rule, pat: &str) -> String {
    match rule {
        Rule::UnwrapExpect => {
            format!("`{pat}` in non-test library code; propagate a Result instead")
        }
        Rule::Panic => format!("`{pat}` in library code; return an error instead"),
        Rule::InstantNow => format!(
            "`{pat}()` outside the obs crate; time through `flixobs::Stopwatch` so \
             measurements stay observable"
        ),
        Rule::UnboundedChannel => format!(
            "`{pat}` builds an unbounded channel; use a bounded queue so overload sheds \
             instead of buffering without limit"
        ),
        // `Rule::UnsyncedWrite`, the last table rule.
        _ => format!(
            "`{pat}..)` writes a file with no fsync or atomic-rename behind it; durable \
             state belongs in pagestore's disk/WAL/manifest layer — suppress with a \
             reason if this is a non-durable artifact"
        ),
    }
}

/// Final callees whose `Result` must not be discarded via `let _ =`.
const FALLIBLE_BUILTINS: &[&str] = &[
    "send",
    "try_send",
    "recv",
    "try_recv",
    "recv_timeout",
    "join",
    "flush",
    "write_all",
    "sync_all",
];

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` in non-test library code.
    UnwrapExpect,
    /// `panic!` / `todo!` / `unimplemented!` in library code.
    Panic,
    /// `Instant::now()` or `SystemTime::now()` outside the `obs` crate
    /// (use `flixobs::Stopwatch`).
    InstantNow,
    /// `unbounded()` / `mpsc::channel()` channel construction (bounded
    /// queues only on hot paths).
    UnboundedChannel,
    /// Narrowing `as` cast on a length/index-shaped value.
    CastTruncation,
    /// `let _ =` discarding a known-fallible call's `Result`.
    SwallowedResult,
    /// Bare `Ordering::Relaxed` outside the sanctioned counter hot path.
    AtomicOrdering,
    /// `fs::write` / `File::create` outside pagestore's durability layer
    /// (no fsync / atomic-rename protocol behind the write).
    UnsyncedWrite,
    /// Malformed, reason-less, or unused inline suppression.
    Suppression,
}

impl Rule {
    /// Every rule, in declaration order.
    pub const ALL: &'static [Rule] = &[
        Rule::UnwrapExpect,
        Rule::Panic,
        Rule::InstantNow,
        Rule::UnboundedChannel,
        Rule::CastTruncation,
        Rule::SwallowedResult,
        Rule::AtomicOrdering,
        Rule::UnsyncedWrite,
        Rule::Suppression,
    ];

    /// The rule's stable name, as used in diagnostics and suppressions.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapExpect => "unwrap-expect",
            Rule::Panic => "panic",
            Rule::InstantNow => "instant-now",
            Rule::UnboundedChannel => "unbounded-channel",
            Rule::CastTruncation => "cast-truncation",
            Rule::SwallowedResult => "swallowed-result",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::UnsyncedWrite => "unsynced-write",
            Rule::Suppression => "suppression",
        }
    }

    /// Rules an inline suppression may name (everything a source line can
    /// cause; `suppression` cannot suppress itself).
    fn from_suppress_name(name: &str) -> Option<Rule> {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| *r != Rule::Suppression && r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single lint finding, formatted as `path:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-indexed line number (0 for file-level findings).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The outcome of a full lint pass.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// All findings, sorted by path then line.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True if the pass found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One inline `// flixcheck: allow(<rule>): <reason>` comment.
struct Suppression {
    /// Line the comment sits on (covers trailing diagnostics on it).
    line: usize,
    /// First non-suppression line after `line` — the code line covered.
    /// Stacked suppression comments chain, so several rules can be
    /// suppressed on one code line.
    until: usize,
    rule: Rule,
    used: bool,
}

/// Locates the workspace root by walking up from `CARGO_MANIFEST_DIR`
/// (set by cargo under `cargo test`) or the current
/// directory, whichever first contains `Cargo.toml` and a `crates/` dir.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = Vec::new();
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        candidates.push(PathBuf::from(dir));
    }
    if let Ok(dir) = std::env::current_dir() {
        candidates.push(dir);
    }
    for start in candidates {
        for dir in start.ancestors() {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                return Some(dir.to_path_buf());
            }
        }
    }
    None
}

/// Runs the lint pass over the workspace found via [`find_workspace_root`].
pub fn run_default() -> Result<LintReport, io::Error> {
    let root = find_workspace_root().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            "workspace root (Cargo.toml + crates/) not found",
        )
    })?;
    run(&root)
}

/// Runs the lint pass over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<LintReport, io::Error> {
    let files = collect_workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let rel = relative_path(root, file);
        let src = fs::read_to_string(file)?;
        sources.push((rel, src));
    }
    Ok(LintReport {
        diagnostics: analyze_sources(&sources),
        files_scanned: files.len(),
    })
}

/// Lints a single file given its workspace-relative path and raw source:
/// the full pipeline of [`run`] over a workspace of one file.
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_sources(&[(rel_path.to_string(), src.to_string())])
}

/// The analysis core: every rule over every source, with inline
/// suppressions applied. Returns the diagnostics, sorted by path then
/// line.
fn analyze_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    struct Prepared {
        tokens: Vec<Token>,
        parsed: ParsedFile,
    }
    let prepared: Vec<Prepared> = sources
        .iter()
        .map(|(_, src)| {
            let tokens = lex(src);
            let parsed = parse(src, &tokens);
            Prepared { tokens, parsed }
        })
        .collect();

    // Workspace registry of fn names that return Result (for
    // swallowed-result). Conservative: any fn anywhere with that name.
    let mut result_fns: BTreeSet<&str> = BTreeSet::new();
    for p in &prepared {
        for f in &p.parsed.fns {
            if f.returns_result && !f.in_test {
                result_fns.insert(&f.name);
            }
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressions: BTreeMap<&str, Vec<Suppression>> = BTreeMap::new();
    for ((rel, src), p) in sources.iter().zip(&prepared) {
        suppressions.insert(
            rel,
            collect_suppressions(rel, src, &p.tokens, &p.parsed, &mut diagnostics),
        );
        token_rules(
            rel,
            src,
            &p.tokens,
            &p.parsed,
            &result_fns,
            &mut diagnostics,
        );
    }

    // Apply inline suppressions: a comment on line L silences matching
    // diagnostics on lines L and L+1 of the same file.
    diagnostics.retain(|d| {
        if let Some(supps) = suppressions.get_mut(d.path.as_str()) {
            for s in supps.iter_mut() {
                if s.rule == d.rule && (d.line == s.line || d.line == s.until) {
                    s.used = true;
                    return false;
                }
            }
        }
        true
    });
    for (rel, supps) in &suppressions {
        for s in supps {
            if !s.used {
                diagnostics.push(Diagnostic {
                    path: (*rel).to_string(),
                    line: s.line,
                    rule: Rule::Suppression,
                    message: format!(
                        "suppression for `{}` matched no diagnostic on this or the \
                         next line; remove it",
                        s.rule
                    ),
                });
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    diagnostics
}

/// Parses every `// flixcheck: allow(<rule>): <reason>` comment in the
/// file. Malformed or reason-less suppressions become diagnostics
/// immediately (and suppress nothing). Suppressions inside test code are
/// ignored: tests are exempt from the rules anyway.
fn collect_suppressions(
    rel_path: &str,
    src: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for tok in tokens {
        let TokKind::LineComment { .. } = tok.kind else {
            continue;
        };
        let body = tok.text(src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("flixcheck:") else {
            continue;
        };
        if parsed.in_test(tok.start) {
            continue;
        }
        let line = line_of(src, tok.start);
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                path: rel_path.to_string(),
                line,
                rule: Rule::Suppression,
                message: msg,
            });
        };
        let rest = rest.trim();
        let Some(inner) = rest.strip_prefix("allow(") else {
            bad("malformed suppression; want `// flixcheck: allow(<rule>): <reason>`".to_string());
            continue;
        };
        let Some(close) = inner.find(')') else {
            bad("malformed suppression: missing `)`".to_string());
            continue;
        };
        let rule_name = inner[..close].trim();
        let Some(rule) = Rule::from_suppress_name(rule_name) else {
            bad(format!("unknown rule `{rule_name}` in suppression"));
            continue;
        };
        let after = inner[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(format!(
                "suppression of `{rule_name}` requires a reason: \
                 `// flixcheck: allow({rule_name}): <why this is sound>`"
            ));
            continue;
        }
        out.push(Suppression {
            line,
            until: line + 1,
            rule,
            used: false,
        });
    }
    // Stacked suppression comments chain: each covers the first following
    // line that is not itself a suppression comment.
    let lines: BTreeSet<usize> = out.iter().map(|s| s.line).collect();
    for s in &mut out {
        while lines.contains(&s.until) {
            s.until += 1;
        }
    }
    out
}

/// The per-file rules: the [`FORBIDDEN`] table, `cast-truncation`,
/// `swallowed-result`, `atomic-ordering`.
fn token_rules(
    rel_path: &str,
    src: &str,
    tokens: &[Token],
    parsed: &ParsedFile,
    result_fns: &BTreeSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    let sig: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_trivia())
        .collect();
    let text = |si: usize| tokens[sig[si]].text(src);
    let start = |si: usize| tokens[sig[si]].start;
    // The rows this file is not exempt from.
    let forbidden: Vec<_> = FORBIDDEN
        .iter()
        .filter(|(rule, _)| match rule {
            Rule::InstantNow => !rel_path.starts_with(CLOCK_CRATE_PREFIX),
            Rule::UnsyncedWrite => !DURABILITY_FILES.contains(&rel_path),
            _ => true,
        })
        .collect();

    for si in 0..sig.len() {
        if parsed.in_test(start(si)) {
            continue;
        }
        let t = text(si);

        for &&(rule, pattern) in &forbidden {
            if (0..pattern.len()).all(|k| si + k < sig.len() && text(si + k) == pattern[k]) {
                diags.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: line_of(src, start(si)),
                    rule,
                    message: forbidden_message(rule, &pattern.concat()),
                });
            }
        }

        // cast-truncation: `<lengthish> as {u8,u16,i8,i16}`.
        if t == "as"
            && si >= 1
            && si + 1 < sig.len()
            && matches!(text(si + 1), "u8" | "u16" | "i8" | "i16")
        {
            let source_name = match text(si - 1) {
                ")" => {
                    // Scan back to the matching `(`; the callee sits before.
                    let mut depth = 0i32;
                    let mut j = si - 1;
                    let mut name = None;
                    loop {
                        match text(j) {
                            ")" => depth += 1,
                            "(" => {
                                depth -= 1;
                                if depth == 0 {
                                    if j >= 1 && is_ident_text(text(j - 1)) {
                                        name = Some(text(j - 1));
                                    }
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if j == 0 {
                            break;
                        }
                        j -= 1;
                    }
                    name
                }
                prev if is_ident_text(prev) => Some(prev),
                _ => None,
            };
            if let Some(name) = source_name {
                if is_lengthish(name) {
                    diags.push(Diagnostic {
                        path: rel_path.to_string(),
                        line: line_of(src, start(si)),
                        rule: Rule::CastTruncation,
                        message: format!(
                            "narrowing cast `{name} .. as {}` can silently truncate a \
                             length/index; use `{}::try_from` or widen the target type",
                            text(si + 1),
                            text(si + 1)
                        ),
                    });
                }
            }
        }

        // swallowed-result: `let _ = <call chain>;`.
        if t == "let" && si + 2 < sig.len() && text(si + 1) == "_" && text(si + 2) == "=" {
            let mut depth = 0i32;
            let mut last_callee: Option<&str> = None;
            let mut j = si + 3;
            while j < sig.len() {
                match text(j) {
                    "(" => {
                        if depth == 0 && j >= 1 && is_ident_text(text(j - 1)) {
                            last_callee = Some(text(j - 1));
                        }
                        depth += 1;
                    }
                    ")" | "]" | "}" => depth -= 1,
                    "[" | "{" => depth += 1,
                    ";" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if let Some(callee) = last_callee {
                if FALLIBLE_BUILTINS.contains(&callee) || result_fns.contains(callee) {
                    diags.push(Diagnostic {
                        path: rel_path.to_string(),
                        line: line_of(src, start(si)),
                        rule: Rule::SwallowedResult,
                        message: format!(
                            "`let _ =` silently discards the Result of `{callee}`; \
                             handle the error, or bind it to a named `_ignored` with \
                             a comment if dropping it is intentional"
                        ),
                    });
                }
            }
        }

        // atomic-ordering: `Ordering::Relaxed` outside the obs crate.
        // (`::` lexes as two `:` punct tokens.)
        if t == "Relaxed"
            && si >= 3
            && text(si - 1) == ":"
            && text(si - 2) == ":"
            && text(si - 3) == "Ordering"
            && !rel_path.starts_with(CLOCK_CRATE_PREFIX)
        {
            diags.push(Diagnostic {
                path: rel_path.to_string(),
                line: line_of(src, start(si)),
                rule: Rule::AtomicOrdering,
                message: "bare `Ordering::Relaxed` outside the obs counter hot path; \
                          use Acquire/Release (or route through flixobs counters) so \
                          cross-thread visibility is explicit"
                    .to_string(),
            });
        }
    }
}

/// True if `t` begins like an identifier.
fn is_ident_text(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// True if `name` denotes a length/index-shaped quantity.
fn is_lengthish(name: &str) -> bool {
    let n = name.trim_end_matches(|c: char| c.is_ascii_digit());
    ["len", "count", "idx", "index", "pos", "offset"]
        .iter()
        .any(|suf| n == *suf || n.ends_with(&format!("_{suf}")) || n.ends_with(suf))
}

/// Collects every production `.rs` file: `crates/*/src/**` (including
/// `src/bin`), the workspace root `src/`, and `examples/`. The root
/// `tests/` tree stays out: integration tests are exempt by design.
fn collect_workspace_sources(root: &Path) -> Result<Vec<PathBuf>, io::Error> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crates.sort();
        for krate in crates {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    for extra in ["src", "examples"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), io::Error> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_expect_outside_tests() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n\
                   #[cfg(test)]\nmod t { fn g() { z.unwrap(); } }\n\
                   fn h() { x . unwrap ( ); z.unwrap_or(0); y\n.expect(\n\"msg\"); }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        let lines: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UnwrapExpect)
            .map(|d| d.line)
            .collect();
        // Spaced out and broken over lines still fires, on the `.`'s line.
        assert_eq!(lines, vec![1, 1, 4, 5]);
    }

    #[test]
    fn every_forbidden_row_fires_on_code_and_never_inside_a_literal_or_comment() {
        for &(rule, pattern) in FORBIDDEN {
            let (plain, spaced) = (pattern.concat(), pattern.join(" "));
            for code in [&plain, &spaced] {
                let diags = lint_file("crates/demo/src/lib.rs", &format!("fn f() {{ {code} }}\n"));
                assert_eq!(diags.len(), 1, "{code}: {diags:?}");
                assert_eq!(diags[0].rule, rule, "{code}");
                assert!(diags[0].message.contains(&plain), "{diags:?}");
            }
            let quiet = format!(
                "/// doc {plain}\nfn f() {{\n\
                 let a = \"{plain}\"; let b = r#\"{plain}\"#; let c = b\"{plain}\";\n\
                 // line {plain}\n/* block /* nested {plain} */ {plain} */\n}}\n"
            );
            let diags = lint_file("crates/demo/src/lib.rs", &quiet);
            assert!(diags.is_empty(), "{plain}: {diags:?}");
        }
        // A char literal's punctuation is not a token of a row.
        let diags = lint_file(
            "crates/demo/src/lib.rs",
            "fn f() { m!('.' unwrap() panic '!'); }\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn a_bare_test_fn_is_test_code_for_every_rule() {
        let body = "{ x.unwrap(); panic!(); let t = Instant::now(); let _ = tx.send(1);\n\
                    c.load(Ordering::Relaxed); v.len() as u8; std::fs::write(p, b); }\n";
        let fired = lint_file("crates/demo/src/lib.rs", &format!("fn prod() {body}"));
        assert_eq!(fired.len(), 7, "{fired:?}");
        let exempt = lint_file("crates/demo/src/lib.rs", &format!("#[test]\nfn t() {body}"));
        assert!(exempt.is_empty(), "{exempt:?}");
    }

    #[test]
    fn cfg_test_item_behind_restricted_visibility_is_test_code() {
        let body = "pub struct S { tx: Sender<u32> }\n\
                    impl S {\n\
                    fn f(&self, x: R) { x.unwrap(); let _ = self.tx.send(1); }\n\
                    }\n";
        let fired = lint_file("crates/demo/src/lib.rs", body);
        for rule in [Rule::UnwrapExpect, Rule::SwallowedResult] {
            assert!(fired.iter().any(|d| d.rule == rule), "{rule}: {fired:?}");
        }
        // Inside the module nothing fires, and a suppression there is
        // ignored (in production code an unused one is a diagnostic).
        let module = format!(
            "#[cfg(test)]\npub(crate) mod mirror {{\n{body}\
             // flixcheck: allow(unwrap-expect): matches nothing\n}}\n"
        );
        let diags = lint_file("crates/demo/src/lib.rs", &module);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn flags_panic_family_with_word_boundaries() {
        let src = "fn f() { panic!(\"x\"); todo!(); unimplemented!(); debug_assert!(true); \
                   debug_panic!(); }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        let panics: Vec<_> = diags.iter().filter(|d| d.rule == Rule::Panic).collect();
        assert_eq!(panics.len(), 3);
    }

    #[test]
    fn ignores_occurrences_in_comments_and_strings() {
        let src = "// call .unwrap() never\nfn f() { let s = \"panic!\"; }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn instant_now_flagged_outside_the_obs_crate() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let diags = lint_file("crates/flix/src/pee.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::InstantNow)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
        // The obs crate hosts the sanctioned clock: no finding there.
        assert!(lint_file("crates/obs/src/clock.rs", src)
            .iter()
            .all(|d| d.rule != Rule::InstantNow));
        // Test code may time ad hoc.
        let test_src = "#[cfg(test)]\nmod t { fn g() { let t = Instant::now(); } }\n";
        assert!(lint_file("crates/flix/src/pee.rs", test_src)
            .iter()
            .all(|d| d.rule != Rule::InstantNow));
        // Comments and strings never fire, nor does a longer identifier.
        let doc_src = "// Instant::now is banned here\nfn f() { MyInstant::now(); }\n";
        assert!(lint_file("crates/flix/src/pee.rs", doc_src)
            .iter()
            .all(|d| d.rule != Rule::InstantNow));
    }

    #[test]
    fn system_time_now_flagged_outside_the_obs_crate() {
        let src = "fn f() { let t = std::time::SystemTime::now(); }\n";
        let diags = lint_file("crates/serve/src/server.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::InstantNow)
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("SystemTime::now"));
        // The obs crate owns the clocks.
        assert!(lint_file("crates/obs/src/clock.rs", src)
            .iter()
            .all(|d| d.rule != Rule::InstantNow));
        // Test code is exempt, same as Instant::now.
        let test_src = "#[cfg(test)]\nmod t { fn g() { let t = SystemTime::now(); } }\n";
        assert!(lint_file("crates/serve/src/server.rs", test_src)
            .iter()
            .all(|d| d.rule != Rule::InstantNow));
    }

    #[test]
    fn unbounded_channel_construction_is_flagged() {
        let src = "fn f() {\n\
                   let (a, b) = crossbeam::channel::unbounded();\n\
                   let (c, d) = std::sync::mpsc::channel();\n\
                   let (e, g) = crossbeam::channel::bounded(64);\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UnboundedChannel)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
        // Test code may wire up whatever channels it likes.
        let test_src = "#[cfg(test)]\nmod t { fn g() { let (a, b) = unbounded(); } }\n";
        assert!(lint_file("crates/demo/src/lib.rs", test_src)
            .iter()
            .all(|d| d.rule != Rule::UnboundedChannel));
        // Identifiers that merely end in `unbounded` never fire.
        let ident_src = "fn f() { let x = grow_unbounded(7); }\n";
        assert!(lint_file("crates/demo/src/lib.rs", ident_src)
            .iter()
            .all(|d| d.rule != Rule::UnboundedChannel));
    }

    #[test]
    fn unsynced_write_flagged_outside_the_durability_layer() {
        let src = "fn f() {\n\
                   std::fs::write(\"state.bin\", b\"x\").unwrap();\n\
                   let f = std::fs::File::create(\"log\").unwrap();\n\
                   }\n";
        let diags = lint_file("crates/flix/src/persist.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::UnsyncedWrite)
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
        // The durability layer pairs every write with its fsync/rename.
        for allowed in [
            "crates/pagestore/src/disk.rs",
            "crates/pagestore/src/wal.rs",
            "crates/pagestore/src/snapshot.rs",
        ] {
            assert!(
                lint_file(allowed, src)
                    .iter()
                    .all(|d| d.rule != Rule::UnsyncedWrite),
                "{allowed} is the durability layer"
            );
        }
        // Test code writes scratch files freely.
        let test_src =
            "#[cfg(test)]\nmod t { fn g() { std::fs::write(\"t\", b\"x\").unwrap(); } }\n";
        assert!(lint_file("crates/flix/src/persist.rs", test_src)
            .iter()
            .all(|d| d.rule != Rule::UnsyncedWrite));
        // A suppression with a reason silences it.
        let suppressed = "fn f() {\n\
             // flixcheck: allow(unsynced-write): scratch artifact\n\
             std::fs::write(\"out.json\", b\"x\").unwrap();\n\
             }\n";
        assert!(lint_file("crates/flix/src/persist.rs", suppressed)
            .iter()
            .all(|d| d.rule != Rule::UnsyncedWrite && d.rule != Rule::Suppression));
    }

    #[test]
    fn diagnostic_format_is_machine_readable() {
        let d = Diagnostic {
            path: "crates/flix/src/pee.rs".to_string(),
            line: 42,
            rule: Rule::UnwrapExpect,
            message: "boom".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "crates/flix/src/pee.rs:42: unwrap-expect: boom"
        );
    }

    // ------------------------------------------------------------------
    // Shaped patterns.

    #[test]
    fn cast_truncation_fires_on_lengthish_narrowing() {
        let src = "fn f(record: &[u8]) -> u16 { record.len() as u16 }\n\
                   fn g(pos_idx: usize) -> u8 { pos_idx as u8 }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::CastTruncation)
            .collect();
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[1].line, 2);
    }

    #[test]
    fn cast_truncation_ignores_wide_targets_and_other_sources() {
        // `len() as u32`/`as u64` is the workspace id idiom; `flags as u8`
        // is not length-shaped.
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n\
                   fn g(flags: usize) -> u8 { flags as u8 }\n\
                   fn h(n: usize) -> u64 { n as u64 }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(
            diags.iter().all(|d| d.rule != Rule::CastTruncation),
            "{diags:?}"
        );
    }

    #[test]
    fn swallowed_result_fires_on_builtins_and_workspace_result_fns() {
        let src = "fn fallible() -> Result<(), E> { Ok(()) }\n\
                   fn f(tx: &Sender<u32>) {\n\
                   let _ = tx.send(1);\n\
                   let _ = fallible();\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::SwallowedResult)
            .collect();
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn swallowed_result_ignores_macros_infallible_and_named_bindings() {
        let src = "fn infallible() -> u32 { 7 }\n\
                   fn f(w: &mut W, tx: &Sender<u32>) {\n\
                   let _ = writeln!(w, \"x\");\n\
                   let _ = infallible();\n\
                   let _warm = tx.send(1);\n\
                   let _ = tx.send(1).ok();\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(
            diags.iter().all(|d| d.rule != Rule::SwallowedResult),
            "{diags:?}"
        );
    }

    #[test]
    fn atomic_ordering_fires_outside_obs_only() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let diags = lint_file("crates/flix/src/cache.rs", src);
        assert!(
            diags.iter().any(|d| d.rule == Rule::AtomicOrdering),
            "{diags:?}"
        );
        assert!(lint_file("crates/obs/src/counter.rs", src)
            .iter()
            .all(|d| d.rule != Rule::AtomicOrdering));
        let acq = "fn f(c: &AtomicU64) { c.load(Ordering::Acquire); }\n";
        assert!(lint_file("crates/flix/src/cache.rs", acq)
            .iter()
            .all(|d| d.rule != Rule::AtomicOrdering));
    }

    // ------------------------------------------------------------------
    // Suppressions.

    #[test]
    fn suppression_with_reason_silences_and_is_marked_used() {
        let src = "fn f(record: &[u8]) -> u16 {\n\
                   // flixcheck: allow(cast-truncation): record len bounded by page size\n\
                   record.len() as u16\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn trailing_same_line_suppression_works() {
        let src = "fn f(v: &[u8]) -> u8 { v.len() as u8 } \
                   // flixcheck: allow(cast-truncation): demo fits in u8\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn suppression_without_reason_is_a_diagnostic() {
        let src = "fn f(record: &[u8]) -> u16 {\n\
                   // flixcheck: allow(cast-truncation)\n\
                   record.len() as u16\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Suppression && d.message.contains("requires a reason")),
            "{diags:?}"
        );
        // And the underlying finding still fires.
        assert!(diags.iter().any(|d| d.rule == Rule::CastTruncation));
    }

    #[test]
    fn unused_suppression_is_a_diagnostic() {
        let src = "// flixcheck: allow(cast-truncation): nothing here\n\
                   fn f() -> u32 { 7 }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Suppression && d.message.contains("matched no")),
            "{diags:?}"
        );
    }

    #[test]
    fn unknown_rule_in_suppression_is_a_diagnostic() {
        // Nine rules stay; a retired name is unknown like any other.
        assert_eq!(Rule::ALL.len(), 9);
        for name in [
            "no-such-rule",
            "missing-docs",
            "unsafe",
            "lock-order",
            "blocking-while-locked",
        ] {
            assert!(Rule::ALL.iter().all(|r| r.name() != name));
            let src = format!("// flixcheck: allow({name}): whatever\nfn f() {{}}\n");
            let diags = lint_file("crates/demo/src/lib.rs", &src);
            assert!(
                diags
                    .iter()
                    .any(|d| d.rule == Rule::Suppression && d.message.contains("unknown rule")),
                "{diags:?}"
            );
        }
    }

    #[test]
    fn suppression_scopes_to_rule_and_line() {
        // Suppressing cast-truncation does not silence an unrelated rule
        // on the same line.
        let src = "fn f(x: R) {\n\
                   // flixcheck: allow(cast-truncation): wrong rule\n\
                   x.unwrap();\n\
                   }\n";
        let diags = lint_file("crates/demo/src/lib.rs", src);
        assert!(diags.iter().any(|d| d.rule == Rule::UnwrapExpect));
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::Suppression && d.message.contains("matched no")),
            "{diags:?}"
        );
    }
}
