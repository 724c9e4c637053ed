//! Reproduces every table and figure of the FliX paper's evaluation (§6).
//!
//! ```text
//! cargo run -p bench --bin repro --release -- all > bench/repro.txt
//! cargo run -p bench --bin repro --release -- table1 [--scale 0.25]
//! ```
//!
//! Subcommands: `table1`, `figure5`, `errors`, `connect`, `hybrid`,
//! `ablation-partition`, `ablation-dedup`, `ablation-exact`,
//! `ablation-bidir`, `figure5-disk`, `all`. The default corpus is the
//! paper's scale (6,210 documents); `--scale F` shrinks it.
//!
//! `--check` runs the deep [`flixcheck::IntegrityCheck`] audit over every
//! built framework (alone or alongside experiments) and exits non-zero if
//! any invariant is violated.
//!
//! Every number printed is a count, or the emulated database price of one,
//! so the output is the same on every run and at every build thread count:
//! `bench/repro.txt` is the full-scale run, and each `shape` line says
//! whether one of the paper's relations holds on the rows above it. Timing
//! is `flixbench/`'s job.

#![forbid(unsafe_code)]

use bench::{Paper, EXPERIMENTS};
use flixcheck::IntegrityCheck;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut check = false;
    let mut commands: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--scale" => match it.next().map(|s| s.parse::<f64>()) {
                Some(Ok(v)) if v > 0.0 && v <= 1.0 => scale = v,
                _ => {
                    eprintln!("error: --scale needs a number in (0, 1]");
                    std::process::exit(2);
                }
            },
            other => {
                if other != "all" && EXPERIMENTS.iter().all(|(name, _)| *name != other) {
                    let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                    eprintln!(
                        "error: unknown experiment {other:?}; known: all, {}",
                        known.join(", ")
                    );
                    std::process::exit(2);
                }
                commands.push(other.to_string());
            }
        }
    }
    if commands.is_empty() && !check {
        commands.push("all".into());
    }

    let paper = Paper::new(scale);
    let s = paper.cg.stats();
    println!(
        "corpus (scale {scale}): {} documents, {} elements, {} inter-document links, {:.1} MB payload",
        s.documents,
        s.elements,
        s.links,
        s.payload_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("paper's corpus: 6,210 documents, 168,991 elements, 25,368 links, 27 MB\n");

    if check {
        let mut failed = false;
        println!("== integrity audit ==");
        for flix in &paper.built {
            let config = flix.config().to_string();
            match flix.integrity_check() {
                Ok(report) => println!("{config:<12} OK ({report})"),
                Err(err) => {
                    failed = true;
                    println!("{config:<12} FAILED\n{err}");
                }
            }
        }
        println!();
        if failed {
            std::process::exit(1);
        }
    }

    for (name, experiment) in EXPERIMENTS {
        if commands.iter().any(|c| c == "all" || c == name) {
            experiment(&paper);
        }
    }
}
