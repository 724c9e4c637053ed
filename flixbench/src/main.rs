//! `flixbench` — the repository's benchmark.
//!
//! Four workloads, each in its own process; an end-to-end pass that prints
//! every end-to-end metric by name and unit, and a traced pass that gives
//! the per-layer numbers and the price of tracing. Every answer is checked.
//! See `README.md` beside this package for the catalogue.
//!
//! ```text
//! flixbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass of one workload
//! flixbench all [--seed <n>] [--seconds <s>] [--smoke]                 both passes of all four
//! flixbench compare <a.json> <b.json>                                  judge b against a
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod catalog;
mod compare;
mod inputs;
mod json;
mod layers;
mod lifecycle;
mod measure;
mod prepare;
mod report;
mod run;
mod spans;
mod stats;

use prepare::{Opts, Workload, OUT_DIR};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  flixbench --workload <linkchase|labeljoin|served|rebuild> --seed <u64> --seconds <s> --trace <0|1>
            [--corpus-seed <u64>] [--smoke]
  flixbench all [--seed <u64>] [--seconds <s>] [--corpus-seed <u64>] [--smoke]
  flixbench compare <a.json> <b.json>";

/// Exit code for a wrong answer or a failed run; 2 is a usage error.
const FAILED: u8 = 1;

/// Parses the flags of the two running modes. The workload is `None` when
/// `--workload` was not given (the `all` mode sets it per child).
fn parse_args(args: &[String]) -> Result<(Option<Workload>, Opts), String> {
    let mut workload = None;
    let mut o = Opts {
        workload: Workload::Linkchase,
        seed: 2004,
        corpus_seed: 2004,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            // Every code path and the whole correctness gate, in seconds.
            (o.smoke, o.seconds) = (true, 0.6);
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--corpus-seed" => o.corpus_seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                o.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((workload, o))
}

/// One pass of one workload in this process. The contract line is the last
/// line of standard output.
fn run_one(opts: &Opts) -> ExitCode {
    let doc = match run::run(opts) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("flixbench: {e}");
            return ExitCode::from(FAILED);
        }
    };
    match (doc.table(), doc.contract_line()) {
        (Ok(table), Ok(line)) => {
            print!("{table}");
            println!("{line}");
            if doc.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("flixbench: {} wrong or failed answers", doc.failed);
                ExitCode::from(FAILED)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("flixbench: {e}");
            ExitCode::from(FAILED)
        }
    }
}

/// Both passes of all four workloads, each in its own process (peak memory
/// and caches are per workload), merged into `target/flixbench/result.json`.
fn run_all(raw: &[String]) -> ExitCode {
    let out_dir = Path::new(OUT_DIR);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("flixbench: cannot find own executable: {e}");
            return ExitCode::from(FAILED);
        }
    };
    let mut docs = Vec::new();
    let mut failed = false;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let pass = report::pass_name(trace == "1");
            let path = out_dir.join(format!("{}-{pass}.json", workload.name()));
            // A failed child must not leave an earlier run's document to
            // be merged in its place.
            if path.exists() {
                if let Err(e) = std::fs::remove_file(&path) {
                    eprintln!("flixbench: {}: {e}", path.display());
                    failed = true;
                }
            }
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(raw)
                .status();
            if !status.is_ok_and(|s| s.success()) {
                eprintln!("flixbench: {} --trace {trace} failed", workload.name());
                failed = true;
            }
            match std::fs::read_to_string(&path) {
                Ok(doc) => docs.push(doc),
                Err(e) => {
                    eprintln!("flixbench: {}: {e}", path.display());
                    failed = true;
                }
            }
        }
    }
    let path = out_dir.join("result.json");
    let merged = format!("{{\"schema\": 1, \"runs\": [\n{}\n]}}\n", docs.join(",\n"));
    // flixcheck: allow(unsynced-write): a result file is a report, not state; a torn one is rewritten by the next run
    if let Err(e) = std::fs::write(&path, merged) {
        eprintln!("flixbench: {}: {e}", path.display());
        failed = true;
    }
    println!("result: {}", path.display());
    if failed {
        ExitCode::from(FAILED)
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::parse_result_file(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, bad) = compare::compare(&a, &b);
            print!("{text}");
            if bad {
                ExitCode::from(FAILED)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("flixbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match raw.first().map(String::as_str) {
        Some("compare") => {
            return match &raw[1..] {
                [a, b] => compare_files(a, b),
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
        Some("all") => ("all", &raw[1..]),
        _ => ("one", &raw[..]),
    };
    let (workload, opts) = match parse_args(rest) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flixbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (mode, workload) {
        ("one", Some(workload)) => run_one(&Opts { workload, ..opts }),
        ("all", None) => run_all(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The repository's own static-analysis gate walks `crates/*/src`,
    /// `src` and `examples`, not this package — so the package lints
    /// itself: `flixobs::Stopwatch` only, no `unwrap`/`expect`/`panic!`
    /// outside tests, documented items, reasoned suppressions.
    #[test]
    fn sources_pass_the_repository_lint() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("src is readable")
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();
        assert!(files.len() >= 12, "every module is linted");
        let mut findings = Vec::new();
        for path in files {
            let name = path.file_name().expect("file name").to_string_lossy();
            let source = std::fs::read_to_string(&path).expect("source is readable");
            let rel = format!("flixbench/src/{name}");
            findings.extend(flixcheck::lint_file(&rel, &source));
        }
        for finding in &findings {
            eprintln!("{finding}");
        }
        assert!(findings.is_empty(), "{} lint findings", findings.len());
    }
}
