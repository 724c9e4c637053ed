//! Cross-file concurrency model extraction.
//!
//! This pass builds a workspace-wide model of lock usage:
//!
//! 1. **Lock classes.** Every `Mutex`/`RwLock` struct field or static in
//!    the workspace becomes a class, named `Struct::field` (or
//!    `file::NAME` for statics). Classes are discovered by the parser
//!    ([`crate::parse`]), so a lock declared in `pagestore` and used from
//!    `flix` still resolves to one class.
//! 2. **Acquisition sites.** Calls shaped `recv.field.lock()` /
//!    `.read()` / `.write()` (argument-free, so `io::Read::read(&mut buf)`
//!    never matches) are resolved to classes: `self.field` through the
//!    enclosing `impl` block, any other receiver through the field name
//!    when it is unambiguous workspace-wide. Unresolvable receivers are
//!    skipped — the model is deliberately an under-approximation rather
//!    than a source of false positives.
//! 3. **Guard live ranges.** A guard bound by `let g = ...lock();` lives
//!    to the end of its scope or an explicit `drop(g)`; a guard used as a
//!    temporary (`self.m.lock().get(k)`) lives to the end of its
//!    statement; a guard in an `if let`/`while let`/`match` scrutinee
//!    lives through the attached block, mirroring Rust's
//!    temporary-lifetime rules.
//! 4. **Lock-order graph.** Acquiring class B while class A's guard is
//!    live adds the edge A → B. Cycles in the graph (including the
//!    self-edge A → A, a same-thread re-entrancy deadlock) are reported
//!    under the `lock-order` rule.
//! 5. **Blocking-while-locked.** A blocking operation — bounded-channel
//!    `.send(..)`, `.recv()`, `JoinHandle::join()`, `Condvar::wait(..)`,
//!    or the acquisition of a *different* lock class — executed while any
//!    guard is live is reported under `blocking-while-locked`.
//!
//! The analysis is intra-procedural over fn bodies (closures are treated
//! as same-thread straight-line code, a conservative over-approximation)
//! and test code is exempt, consistent with the other lint rules.

use crate::lex::{line_of, Token};
use crate::lint::{Diagnostic, Rule};
use crate::parse::{LockKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed source file, as fed to [`analyze`].
pub struct SourceUnit<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Raw source text.
    pub src: &'a str,
    /// The file's token stream.
    pub tokens: &'a [Token],
    /// The file's parse.
    pub parsed: &'a ParsedFile,
}

/// One directed edge of the lock-order graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Class whose guard was live.
    pub from: String,
    /// Class acquired while `from` was held.
    pub to: String,
    /// File of the inner acquisition.
    pub path: String,
    /// 1-indexed line of the inner acquisition.
    pub line: usize,
    /// Line where the outer guard was acquired.
    pub held_line: usize,
}

/// The extracted concurrency model plus its diagnostics.
#[derive(Debug, Clone, Default)]
pub struct ConcReport {
    /// Every lock class discovered, sorted.
    pub classes: Vec<String>,
    /// Deduplicated lock-order edges (first site wins), sorted by class pair.
    pub edges: Vec<LockEdge>,
    /// `lock-order` and `blocking-while-locked` findings.
    pub diagnostics: Vec<Diagnostic>,
    /// True if the lock-order graph contains a cycle.
    pub cyclic: bool,
}

/// Runs the concurrency pass over all files of the workspace.
pub fn analyze(units: &[SourceUnit<'_>]) -> ConcReport {
    // Phase 1: lock classes across every file.
    let mut field_classes: BTreeMap<String, Vec<(String, LockKind)>> = BTreeMap::new();
    let mut static_classes: BTreeMap<String, (String, LockKind)> = BTreeMap::new();
    let mut struct_fields: BTreeMap<(String, String), (String, LockKind)> = BTreeMap::new();
    let mut classes: BTreeSet<String> = BTreeSet::new();
    for unit in units {
        for f in &unit.parsed.lock_fields {
            let class = format!("{}::{}", f.struct_name, f.field);
            classes.insert(class.clone());
            field_classes
                .entry(f.field.clone())
                .or_default()
                .push((class.clone(), f.kind));
            struct_fields.insert(
                (f.struct_name.clone(), f.field.clone()),
                (class.clone(), f.kind),
            );
        }
        for s in &unit.parsed.lock_statics {
            let file_stem = unit
                .path
                .rsplit('/')
                .next()
                .unwrap_or(unit.path)
                .trim_end_matches(".rs");
            let class = format!("{}::{}", file_stem, s.name);
            classes.insert(class.clone());
            static_classes.insert(s.name.clone(), (class, s.kind));
        }
    }

    // Phase 2: walk every non-test fn body.
    let resolver = Resolver {
        field_classes,
        static_classes,
        struct_fields,
    };
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut diagnostics = Vec::new();
    for unit in units {
        for f in &unit.parsed.fns {
            if f.in_test {
                continue;
            }
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            walk_body(
                unit,
                &resolver,
                f.impl_type.as_deref(),
                body_start,
                body_end,
                &mut edges,
                &mut diagnostics,
            );
        }
    }

    // Phase 3: cycle detection on the deduplicated edge set.
    let edges: Vec<LockEdge> = edges.into_values().collect();
    let cyclic_classes = cyclic_strongly_connected(&edges);
    let cyclic = !cyclic_classes.is_empty();
    for edge in &edges {
        let Some(scc) = cyclic_classes
            .iter()
            .find(|scc| scc.contains(&edge.from) && scc.contains(&edge.to))
        else {
            continue;
        };
        let members: Vec<&str> = scc.iter().map(String::as_str).collect();
        diagnostics.push(Diagnostic {
            path: edge.path.clone(),
            line: edge.line,
            rule: Rule::LockOrder,
            message: format!(
                "potential deadlock: lock classes {{{}}} form a cycle in the \
                 lock-order graph; this edge acquires `{}` while `{}` is held \
                 (guard from line {})",
                members.join(", "),
                edge.to,
                edge.from,
                edge.held_line
            ),
        });
    }

    ConcReport {
        classes: classes.into_iter().collect(),
        edges,
        diagnostics,
        cyclic,
    }
}

/// Lock-class resolution tables.
struct Resolver {
    /// field name -> every `(class, kind)` declaring that field name.
    field_classes: BTreeMap<String, Vec<(String, LockKind)>>,
    /// static name -> `(class, kind)`.
    static_classes: BTreeMap<String, (String, LockKind)>,
    /// (struct, field) -> `(class, kind)`.
    struct_fields: BTreeMap<(String, String), (String, LockKind)>,
}

impl Resolver {
    /// Resolves an acquisition of `field` (receiver base `base`, inside an
    /// impl of `impl_type`) to a lock class, or `None` when ambiguous.
    fn resolve(
        &self,
        base: Option<&str>,
        field: &str,
        impl_type: Option<&str>,
    ) -> Option<(String, LockKind)> {
        if base == Some("self") {
            if let Some(ty) = impl_type {
                if let Some(found) = self.struct_fields.get(&(ty.to_string(), field.to_string())) {
                    return Some(found.clone());
                }
            }
        }
        if base.is_none() {
            // Bare `NAME.lock()`: a static, or nothing (locals are opaque).
            return self.static_classes.get(field).cloned();
        }
        match self.field_classes.get(field) {
            Some(cands) if cands.len() == 1 => Some(cands[0].clone()),
            _ => None,
        }
    }
}

/// A guard currently live during the body walk.
struct LiveGuard {
    class: String,
    /// Binding name for `let g = ...` guards; `None` for temporaries.
    name: Option<String>,
    /// Brace depth at which a named guard dies (scope exit).
    scope_depth: Option<usize>,
    /// Significant-token index at which a temporary dies.
    until_tok: Option<usize>,
    /// Acquisition line, for diagnostics.
    line: usize,
    /// True if acquired via `.read()` (shared access).
    acquired_read: bool,
}

/// Statement shape, tracked to give temporaries the right live range.
#[derive(Clone, Copy, PartialEq)]
enum StmtShape {
    /// `let [mut] name = ...;`
    LetBinding,
    /// `if let` / `while let` / `match ...`: scrutinee temps live through
    /// the attached block.
    ScrutineeHead,
    /// Plain `if` / `while`: condition temps die at the `{`.
    CondHead,
    Other,
}

#[allow(clippy::too_many_arguments)]
fn walk_body(
    unit: &SourceUnit<'_>,
    resolver: &Resolver,
    impl_type: Option<&str>,
    body_start: usize,
    body_end: usize,
    edges: &mut BTreeMap<(String, String), LockEdge>,
    diagnostics: &mut Vec<Diagnostic>,
) {
    // Significant tokens of the body.
    let upper = body_end.min(unit.tokens.len().saturating_sub(1));
    let sig: Vec<usize> = (body_start..=upper)
        .filter(|&i| !unit.tokens[i].is_trivia())
        .collect();
    if sig.is_empty() {
        return;
    }
    let text = |si: usize| unit.tokens[sig[si]].text(unit.src);
    let line_at = |si: usize| line_of(unit.src, unit.tokens[sig[si]].start);

    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    // Per-statement state.
    let mut stmt_shape = StmtShape::Other;
    let mut let_name: Option<String> = None;
    let mut stmt_start = true;

    let mut si = 0usize;
    while si < sig.len() {
        // Expire temporaries whose statement ended before this token.
        guards.retain(|g| g.until_tok.map_or(true, |u| si <= u));
        let t = text(si);
        match t {
            "{" => {
                depth += 1;
                stmt_start = true;
                stmt_shape = StmtShape::Other;
                let_name = None;
                si += 1;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.scope_depth.map_or(true, |d| d <= depth));
                stmt_start = true;
                stmt_shape = StmtShape::Other;
                let_name = None;
                si += 1;
                continue;
            }
            ";" => {
                stmt_start = true;
                stmt_shape = StmtShape::Other;
                let_name = None;
                si += 1;
                continue;
            }
            _ => {}
        }

        if stmt_start {
            stmt_start = false;
            stmt_shape = match t {
                "let" => StmtShape::LetBinding,
                "if" | "while" => StmtShape::CondHead,
                "match" => StmtShape::ScrutineeHead,
                _ => StmtShape::Other,
            };
            let_name = None;
            if stmt_shape == StmtShape::LetBinding {
                // Extract a single-ident binding name: let [mut] name [:|=]
                let mut j = si + 1;
                while j < sig.len() && matches!(text(j), "mut" | "ref") {
                    j += 1;
                }
                if j + 1 < sig.len() && is_ident_tok(text(j)) && matches!(text(j + 1), ":" | "=") {
                    let_name = Some(text(j).to_string());
                }
            }
        }
        if t == "let" && stmt_shape == StmtShape::CondHead {
            // `if let` / `while let`: promote to scrutinee semantics.
            stmt_shape = StmtShape::ScrutineeHead;
        }

        // `drop(name)` kills a named guard.
        if t == "drop"
            && si + 3 < sig.len()
            && text(si + 1) == "("
            && is_ident_tok(text(si + 2))
            && text(si + 3) == ")"
        {
            let victim = text(si + 2);
            guards.retain(|g| g.name.as_deref() != Some(victim));
        }

        // Acquisition: ident in {lock, read, write} with `.` before and
        // `( )` after.
        if matches!(t, "lock" | "read" | "write")
            && si >= 1
            && text(si - 1) == "."
            && si + 2 < sig.len()
            && text(si + 1) == "("
            && text(si + 2) == ")"
        {
            // Receiver chain: [base .] field . lock
            let field = si.checked_sub(2).map(text).filter(|f| is_ident_tok(f));
            if let Some(field) = field {
                let base = si
                    .checked_sub(4)
                    .filter(|&b| text(b + 1) == ".")
                    .map(text)
                    .filter(|b| is_ident_tok(b));
                if let Some((class, kind)) = resolver.resolve(base, field, impl_type) {
                    let line = line_at(si);
                    let acquiring_read = kind == LockKind::RwLock && t == "read";
                    for g in &guards {
                        let same_class = g.class == class;
                        if same_class && acquiring_read && g.acquired_read {
                            // Shared read-read re-entry: no conflict.
                            continue;
                        }
                        edges
                            .entry((g.class.clone(), class.clone()))
                            .or_insert_with(|| LockEdge {
                                from: g.class.clone(),
                                to: class.clone(),
                                path: unit.path.to_string(),
                                line,
                                held_line: g.line,
                            });
                        if !same_class {
                            diagnostics.push(Diagnostic {
                                path: unit.path.to_string(),
                                line,
                                rule: Rule::BlockingWhileLocked,
                                message: format!(
                                    "acquires lock `{class}` while guard of `{}` \
                                     (line {}) is live; blocking here can deadlock",
                                    g.class, g.line
                                ),
                            });
                        }
                    }
                    // Register the new guard.
                    let named = let_name.is_some()
                        && stmt_shape == StmtShape::LetBinding
                        && si + 3 < sig.len()
                        && text(si + 3) == ";";
                    let (name, scope_depth, until_tok) = if named {
                        (let_name.clone(), Some(depth), None)
                    } else {
                        (None, None, Some(temp_end(&sig, unit, si, stmt_shape)))
                    };
                    guards.push(LiveGuard {
                        class,
                        name,
                        scope_depth,
                        until_tok,
                        line,
                        acquired_read: acquiring_read,
                    });
                    si += 3; // past `( )`
                    continue;
                }
            }
        }

        // Blocking operations while any guard is live.
        if !guards.is_empty() {
            if let Some(op) = blocking_op(&sig, unit, si) {
                if let Some(g) = guards.last() {
                    diagnostics.push(Diagnostic {
                        path: unit.path.to_string(),
                        line: line_at(si),
                        rule: Rule::BlockingWhileLocked,
                        message: format!(
                            "blocking `{op}` while guard of `{}` (line {}) \
                             is live; release the lock before blocking",
                            g.class, g.line
                        ),
                    });
                }
            }
        }

        si += 1;
    }
}

/// End-of-life token for a temporary guard acquired at `si`.
fn temp_end(sig: &[usize], unit: &SourceUnit<'_>, si: usize, shape: StmtShape) -> usize {
    let text = |i: usize| unit.tokens[sig[i]].text(unit.src);
    let mut depth = 0i32;
    let mut j = si + 1;
    while j < sig.len() {
        match text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    // Closing a paren the acquisition was nested in: the
                    // temporary dies with the enclosing expression.
                    return j;
                }
                depth -= 1;
            }
            ";" if depth <= 0 => return j,
            "{" if depth <= 0 => {
                return match shape {
                    // Scrutinee temporaries live through the whole block.
                    StmtShape::ScrutineeHead => matching_brace_sig(sig, unit, j),
                    _ => j,
                };
            }
            _ => {}
        }
        j += 1;
    }
    sig.len() - 1
}

/// Significant-token index of the `}` matching the `{` at `open`.
fn matching_brace_sig(sig: &[usize], unit: &SourceUnit<'_>, open: usize) -> usize {
    let text = |i: usize| unit.tokens[sig[i]].text(unit.src);
    let mut depth = 0i32;
    let mut i = open;
    while i < sig.len() {
        match text(i) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    sig.len() - 1
}

/// If the token at `si` begins a blocking call, returns its display name.
fn blocking_op(sig: &[usize], unit: &SourceUnit<'_>, si: usize) -> Option<&'static str> {
    let text = |i: usize| unit.tokens[sig[i]].text(unit.src);
    if si == 0 || text(si - 1) != "." {
        return None;
    }
    let next_is = |off: usize, t: &str| si + off < sig.len() && text(si + off) == t;
    match text(si) {
        // Bounded-channel send blocks when the queue is full. `try_send`
        // is its own token and never matches.
        "send" if next_is(1, "(") => Some(".send(..)"),
        "recv" if next_is(1, "(") && next_is(2, ")") => Some(".recv()"),
        "join" if next_is(1, "(") && next_is(2, ")") => Some(".join()"),
        "wait" | "wait_while" | "wait_timeout" if next_is(1, "(") => Some("Condvar wait"),
        _ => None,
    }
}

/// True if `t` looks like an identifier token.
fn is_ident_tok(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Strongly connected components of the lock-order graph that contain a
/// cycle (size > 1, or a self-edge).
fn cyclic_strongly_connected(edges: &[LockEdge]) -> Vec<BTreeSet<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let nodes: Vec<&str> = nodes.into_iter().collect();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut self_loop = vec![false; nodes.len()];
    for e in edges {
        let (f, t) = (index_of[e.from.as_str()], index_of[e.to.as_str()]);
        if f == t {
            self_loop[f] = true;
        }
        adj[f].push(t);
    }

    // Iterative Tarjan SCC.
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }

    sccs.into_iter()
        .filter(|c| c.len() > 1 || (c.len() == 1 && self_loop[c[0]]))
        .map(|c| c.into_iter().map(|i| nodes[i].to_string()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn run_on(sources: &[(&str, &str)]) -> ConcReport {
        let lexed: Vec<_> = sources
            .iter()
            .map(|(path, src)| {
                let (tokens, parsed) = parse_source(src);
                (*path, *src, tokens, parsed)
            })
            .collect();
        let units: Vec<SourceUnit<'_>> = lexed
            .iter()
            .map(|(path, src, tokens, parsed)| SourceUnit {
                path,
                src,
                tokens,
                parsed,
            })
            .collect();
        analyze(&units)
    }

    const TWO_LOCKS: &str = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
";

    #[test]
    fn ab_ba_cycle_is_reported() {
        let fwd = "\
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
}
";
        let bwd = "\
impl S {
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}
";
        let report = run_on(&[
            ("crates/x/src/lib.rs", TWO_LOCKS),
            ("crates/x/src/fwd.rs", fwd),
            ("crates/x/src/bwd.rs", bwd),
        ]);
        assert!(report.cyclic, "{report:?}");
        assert_eq!(report.classes, vec!["S::a", "S::b"]);
        let cycle_diags: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::LockOrder)
            .collect();
        assert_eq!(cycle_diags.len(), 2, "{cycle_diags:?}");
        assert!(cycle_diags[0].message.contains("S::a"));
        assert!(cycle_diags[0].message.contains("S::b"));
    }

    #[test]
    fn consistent_order_is_acyclic_but_flags_nesting() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
    fn also_ab(&self) {
        let ga = self.a.lock();
        self.b.lock().checked_add(1);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(!report.cyclic, "{report:?}");
        assert_eq!(report.edges.len(), 1);
        assert_eq!(report.edges[0].from, "S::a");
        assert_eq!(report.edges[0].to, "S::b");
        // Nested acquisition is still a blocking-while-locked finding.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::BlockingWhileLocked));
        assert!(report.diagnostics.iter().all(|d| d.rule != Rule::LockOrder));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn ok(&self) {
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
        drop(gb);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(report.edges.is_empty(), "{:?}", report.edges);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "\
pub struct S { a: Mutex<Map>, tx: Sender<u32> }
impl S {
    fn ok(&self) {
        let waiters = self.a.lock().remove(&key).unwrap_or_default();
        self.tx.send(waiters);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(
            report.diagnostics.is_empty(),
            "send after the temporary died must be clean: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn send_while_named_guard_live_is_flagged() {
        let src = "\
pub struct S { a: Mutex<Map>, tx: Sender<u32> }
impl S {
    fn bad(&self) {
        let g = self.a.lock();
        self.tx.send(1);
        drop(g);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::BlockingWhileLocked)
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
        assert!(hits[0].message.contains(".send(..)"));
        assert!(hits[0].message.contains("S::a"));
    }

    #[test]
    fn try_send_and_recv_timeout_do_not_block() {
        let src = "\
pub struct S { a: Mutex<Map>, tx: Sender<u32> }
impl S {
    fn ok(&self) {
        let g = self.a.lock();
        self.tx.try_send(1);
        self.rx.recv_timeout(d);
        drop(g);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn join_while_scope_guard_live_is_flagged() {
        let src = "\
pub struct S { handles: Mutex<Vec<JoinHandle<()>>> }
impl S {
    fn bad(&self) {
        let hs = self.handles.lock();
        for h in hs.iter() {
            h.join();
        }
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::BlockingWhileLocked && d.message.contains(".join()")));
    }

    #[test]
    fn mem_take_pattern_is_clean() {
        // The flixserve shutdown idiom: take the handles out under a
        // temporary guard, then join after it died.
        let src = "\
pub struct S { handles: Mutex<Vec<JoinHandle<()>>> }
impl S {
    fn ok(&self) {
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            h.join();
        }
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn rwlock_read_read_same_class_is_clean_but_write_conflicts() {
        let src = "\
pub struct S { map: RwLock<u32> }
impl S {
    fn reads(&self) {
        let g = self.map.read();
        let h = self.map.read();
        drop(h);
        drop(g);
    }
    fn upgrade_deadlock(&self) {
        let g = self.map.read();
        let w = self.map.write();
        drop(w);
        drop(g);
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        // read-read: no self edge. read-then-write: self edge -> cycle.
        assert!(report.cyclic, "{report:?}");
        let cycle: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::LockOrder)
            .collect();
        assert_eq!(cycle.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(cycle[0].line, 11);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
pub struct S { a: Mutex<u32>, b: Mutex<u32> }
#[cfg(test)]
mod tests {
    fn nested() {
        let ga = s.a.lock();
        let gb = s.b.lock();
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(report.edges.is_empty());
    }

    #[test]
    fn ambiguous_field_names_resolve_through_impl_context() {
        let src_a = "\
pub struct A { inner: Mutex<u32> }
impl A { fn f(&self) { let g = self.inner.lock(); drop(g); } }
";
        let src_b = "\
pub struct B { inner: Mutex<u32> }
impl B {
    fn g(&self) {
        let g = self.inner.lock();
        let h = self.inner.lock();
    }
}
";
        let report = run_on(&[
            ("crates/a/src/lib.rs", src_a),
            ("crates/b/src/lib.rs", src_b),
        ]);
        // Same-class re-acquisition in B: self-edge, reported as a cycle.
        assert!(report.cyclic);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::LockOrder && d.message.contains("B::inner")));
        assert!(report
            .diagnostics
            .iter()
            .all(|d| !d.message.contains("A::inner")));
    }

    #[test]
    fn if_let_scrutinee_guard_lives_through_block() {
        let src = "\
pub struct S { a: Mutex<Map>, tx: Sender<u32> }
impl S {
    fn bad(&self) {
        if let Some(v) = self.a.lock().get(&k) {
            self.tx.send(v);
        }
    }
    fn ok(&self) {
        let v = self.a.lock().get(&k);
        if let Some(v) = v {
            self.tx.send(v);
        }
    }
}
";
        let report = run_on(&[("crates/x/src/lib.rs", src)]);
        let hits: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::BlockingWhileLocked)
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(hits[0].line, 5);
    }

    #[test]
    fn statics_are_classes_too() {
        let src = "\
static REGISTRY: Mutex<Vec<u8>> = Mutex::new(Vec::new());
fn f() {
    let g = REGISTRY.lock();
    let h = REGISTRY.lock();
}
";
        let report = run_on(&[("crates/x/src/metrics.rs", src)]);
        assert_eq!(report.classes, vec!["metrics::REGISTRY"]);
        assert!(report.cyclic);
    }
}
