//! Set-up shared by the four workloads: corpus, one build → persist →
//! recover cycle, the query sample, the expected answers and the gate that
//! checks them.

use crate::inputs::{self, Fingerprint, Query};
use crate::lifecycle::{self, Cycle};
use flix::{Flix, FlixConfig, PeeStats, QueryOptions, QueryResult};
use flixobs::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use xmlgraph::CollectionGraph;

/// The four workloads. Names are permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uncapped `hub//tag` on MaximalPPO, in process.
    Linkchase,
    /// `hub//tag` within distance 4 on HOPI-5000, in process.
    Labeljoin,
    /// Skewed top-10 queries through server → shards → caches.
    Served,
    /// Build / persist / recover cycles, then disk-resident queries.
    Rebuild,
}

impl Workload {
    /// All workloads, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::Linkchase,
        Workload::Labeljoin,
        Workload::Served,
        Workload::Rebuild,
    ];

    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Linkchase => "linkchase",
            Workload::Labeljoin => "labeljoin",
            Workload::Served => "served",
            Workload::Rebuild => "rebuild",
        }
    }

    /// Parses a name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The framework configuration the workload runs on.
    pub fn config(self) -> FlixConfig {
        match self {
            Workload::Linkchase | Workload::Served => FlixConfig::MaximalPpo,
            Workload::Labeljoin | Workload::Rebuild => FlixConfig::UnconnectedHopi {
                partition_size: 5_000,
            },
        }
    }
}

/// Where result, trace and scratch files go, relative to the working
/// directory (the repository root).
pub const OUT_DIR: &str = "target/flixbench";

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Drives the query sample and the request sequence.
    pub seed: u64,
    /// Drives the corpus. Fixed at 2004 unless a hold-out corpus is asked
    /// for: index structure, and with it every timing, depends on the
    /// corpus far more than any bound allows (see the README).
    pub corpus_seed: u64,
    /// Length of the timed part.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Every code path and the whole correctness gate on a corpus a
    /// twentieth the size, with one set-up.
    pub smoke: bool,
}

impl Opts {
    /// Corpus size as a share of the paper's 6,210 documents.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }

    /// How often set-up runs; `setup_s` and, off `rebuild`, the cycle
    /// times are medians over the repetitions.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Scratch directory for file-backed stores, private to this process.
    pub fn scratch(&self, what: &str) -> PathBuf {
        Path::new(OUT_DIR).join(format!(
            "tmp-{}-{}-{what}",
            self.workload.name(),
            std::process::id()
        ))
    }
}

/// Everything the timed part needs, and what set-up measured on the way.
pub struct Prepared {
    /// The sealed collection.
    pub cg: Arc<CollectionGraph>,
    /// The in-memory framework the expected answers come from.
    pub flix: Arc<Flix>,
    /// Distinct queries.
    pub queries: Vec<Query>,
    /// Request sequence as indices into `queries` (`served`; otherwise the
    /// queries are cycled in order and this is empty).
    pub sequence: Vec<u32>,
    /// Expected answer of every distinct query.
    pub expected: Vec<Arc<Vec<QueryResult>>>,
    /// Evaluator counters summed over one evaluation of every distinct
    /// query: exact for a fixed input.
    pub pee: PeeStats,
    /// Answers that disagreed with the BFS oracle, or differed between the
    /// built and the recovered framework.
    pub wrong: usize,
    /// What the inputs were.
    pub fingerprint: Fingerprint,
    /// The set-up's own build → persist → recover cycle.
    pub cycle: Cycle,
    /// `Collection::seal`.
    pub seal_ms: f64,
}

/// Runs set-up once: corpus → cycle → sample → expected answers → gate.
pub fn prepare(opts: &Opts) -> Result<Prepared, String> {
    let collection = inputs::corpus(opts.corpus_seed, opts.scale());
    let sw = Stopwatch::start();
    let cg = Arc::new(collection.seal());
    let seal_ms = sw.elapsed().as_secs_f64() * 1e3;

    let (built, recovered, cycle) =
        lifecycle::cycle(&cg, opts.workload.config(), &opts.scratch("setup"), None, 0)?;

    let tags = inputs::target_tags(&cg)?;
    let (queries, sequence) = match opts.workload {
        Workload::Served => {
            inputs::served_mix(&cg, tags, opts.seed, if opts.smoke { 2_048 } else { 8_192 })
        }
        w => {
            let mut hubs = inputs::hubs(&cg, opts.scale());
            inputs::shuffle(&mut hubs, opts.seed);
            let query_opts = match w {
                Workload::Linkchase => QueryOptions::default(),
                Workload::Labeljoin => QueryOptions::within(4),
                _ => QueryOptions::top_k(10),
            };
            (inputs::hub_queries(&hubs, tags, query_opts), Vec::new())
        }
    };
    if queries.is_empty() {
        return Err("the query sampler found no start elements".into());
    }

    let (expected, pee, mut wrong) = inputs::expected_answers(&built, &cg, &queries);
    // The recovered framework must answer exactly like the one persisted.
    for (q, want) in queries.iter().zip(&expected) {
        if recovered.find_descendants(q.start, q.tag, &q.opts) != **want {
            wrong += 1;
        }
    }
    let fingerprint = Fingerprint::of(&cg, &queries, &sequence, &expected);
    Ok(Prepared {
        cg,
        flix: Arc::new(built),
        queries,
        sequence,
        expected,
        pee,
        wrong,
        fingerprint,
        cycle,
        seal_ms,
    })
}
