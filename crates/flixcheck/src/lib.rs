//! flixcheck — workspace static analysis + index integrity auditing.
//!
//! Two halves:
//!
//! 1. A from-scratch, dependency-free **static-analysis pass** over every
//!    `crates/*/src/**/*.rs` file (plus the root `src/` and `examples/`
//!    trees), one file at a time in three stages over one token stream:
//!    the lexer ([`lex`]), a lightweight item parser ([`parse`]) that says
//!    which bytes are test code and which fns return `Result`, and the
//!    rules ([`lint`]: a table of forbidden token sequences —
//!    `unwrap`/`expect`/`panic!`, raw clocks, unbounded channels, unsynced
//!    writes — plus cast truncation, swallowed `Result`s and relaxed
//!    atomics). Findings print as `path:line: rule: message`; the one way
//!    to excuse one is a site-level `// flixcheck: allow(<rule>): <reason>`,
//!    and the reason is required. It runs under `cargo test` via the root
//!    integration test `tests/static_analysis.rs`. `unsafe` is rustc's:
//!    every crate root, binary and example carries `#![forbid(unsafe_code)]`.
//!
//! 2. The [`IntegrityCheck`] trait ([`integrity`]) implemented by every
//!    index/storage structure in the workspace, so a built index can be
//!    deeply audited (interval nesting, 2-hop cover soundness, extent
//!    partitions, page headers, ...) in tests and via `repro --check`.
//!
//! This crate is a dependency leaf: it uses only `std`, so every other
//! crate can depend on it without cycles.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod integrity;
pub mod lex;
pub mod lint;
pub mod parse;

pub use integrity::{
    IntegrityCheck, IntegrityChecker, IntegrityError, IntegrityReport, IntegrityViolation,
};
pub use lint::{find_workspace_root, lint_file, run, run_default, Diagnostic, LintReport, Rule};
