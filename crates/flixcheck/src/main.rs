//! CLI entry point: lint the workspace and exit non-zero on violations.
//!
//! ```text
//! flixcheck [--root <path>] [--format text|sarif]
//! ```
//!
//! `text` (default) prints `path:line: rule: message` lines on stdout;
//! `sarif` prints a SARIF 2.1.0 report there. The summary goes to stderr.
//! The exit code is 0 when clean, 1 on violations, 2 on usage or I/O
//! errors.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Sarif,
}

fn usage() -> ExitCode {
    eprintln!("usage: flixcheck [--root <path>] [--format text|sarif]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                _ => return usage(),
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let report = match root {
        Some(root) => flixcheck::run(&root),
        None => flixcheck::run_default(),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("flixcheck: {e}");
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Text => {
            for diag in &report.diagnostics {
                println!("{diag}");
            }
        }
        Format::Sarif => print!("{}", flixcheck::sarif::to_sarif(&report.diagnostics)),
    }
    if report.is_clean() {
        eprintln!(
            "flixcheck: {} files scanned, no violations",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flixcheck: {} violation(s) in {} files scanned",
            report.diagnostics.len(),
            report.files_scanned
        );
        ExitCode::FAILURE
    }
}
