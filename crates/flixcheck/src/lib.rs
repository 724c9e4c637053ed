//! flixcheck — workspace static analysis + index integrity auditing.
//!
//! Two halves:
//!
//! 1. A from-scratch, dependency-free **static-analysis pass** over every
//!    `crates/*/src/**/*.rs` file (plus the root `src/` and `examples/`
//!    trees), in four stages over one token stream: the lexer ([`lex`]),
//!    a lightweight item parser ([`parse`]) that also says which bytes are
//!    test code, the per-file rules ([`lint`]: a table of forbidden token
//!    sequences — `unwrap`/`expect`/`panic!`, `unsafe`, raw clocks,
//!    unbounded channels, unsynced writes — plus cast truncation,
//!    swallowed `Result`s and relaxed atomics), and a cross-file
//!    concurrency extractor ([`conc`]) that builds the workspace lock-order
//!    graph and reports deadlock cycles and blocking calls under held
//!    guards. Findings print as `path:line: rule: message` or as SARIF
//!    2.1.0 ([`sarif`]); the one way to excuse one is a site-level
//!    `// flixcheck: allow(<rule>): <reason>`, and the reason is required.
//!    Run it with `cargo run -p flixcheck`; it also runs under
//!    `cargo test` via a root integration test.
//!
//! 2. The [`IntegrityCheck`] trait ([`integrity`]) implemented by every
//!    index/storage structure in the workspace, so a built index can be
//!    deeply audited (interval nesting, 2-hop cover soundness, extent
//!    partitions, slot directories, ...) in tests and via `repro --check`.
//!
//! This crate is a dependency leaf: it uses only `std`, so every other
//! crate can depend on it without cycles.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod conc;
pub mod integrity;
pub mod lex;
pub mod lint;
pub mod parse;
pub mod sarif;

pub use integrity::{
    IntegrityCheck, IntegrityChecker, IntegrityError, IntegrityReport, IntegrityViolation,
};
pub use lint::{find_workspace_root, lint_file, run, run_default, Diagnostic, LintReport, Rule};
