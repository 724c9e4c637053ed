//! Shared harness utilities for the paper-reproduction binary: corpus
//! construction, query selection, timing, the §6 error-rate metric, and
//! table formatting.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

use flix::{Flix, FlixConfig, PeeStats, QueryOptions, StrategyKind};
use flixobs::Stopwatch;
use graphcore::{bfs_distances, NodeId};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;
use workloads::{generate_dblp, DblpConfig};
use xmlgraph::CollectionGraph;

/// The six strategies of the paper's §6, in Table-1 order.
pub fn paper_configs() -> Vec<FlixConfig> {
    vec![
        FlixConfig::Monolithic(StrategyKind::Hopi),
        FlixConfig::Monolithic(StrategyKind::Apex),
        FlixConfig::Naive,
        FlixConfig::UnconnectedHopi {
            partition_size: 5_000,
        },
        FlixConfig::UnconnectedHopi {
            partition_size: 20_000,
        },
        FlixConfig::MaximalPpo,
    ]
}

/// Builds the experiment corpus. `scale` of 1.0 is the paper's corpus
/// (6,210 documents); smaller factors shrink it proportionally for quick
/// runs.
pub fn paper_corpus(scale: f64) -> Arc<CollectionGraph> {
    let base = DblpConfig::paper_scale();
    let cfg = DblpConfig {
        documents: ((base.documents as f64 * scale) as usize).max(50),
        ..base
    };
    Arc::new(generate_dblp(&cfg).seal())
}

/// Selects the Figure-5 style start element: the root of a late,
/// citation-rich publication whose reachable set is large — the stand-in
/// for "Mohan's VLDB 99 paper about ARIES", whose `article` descendants
/// the paper enumerates.
pub fn figure5_start(cg: &CollectionGraph) -> NodeId {
    // The paper's query returns on the order of a hundred-plus results
    // ("up to 100 results" are plotted); pick the late publication whose
    // citation closure is closest to ~150 documents so the query has the
    // same cardinality profile. Sampling every 7th candidate keeps corpus
    // setup cheap.
    let n_docs = cg.collection.doc_count() as u32;
    let from = n_docs.saturating_sub(n_docs / 2);
    let candidates: Vec<(u32, usize)> = (from..n_docs)
        .step_by(7)
        .map(|d| {
            let dist = bfs_distances(&cg.doc_graph, d);
            (d, dist.iter().filter(|&&x| x != u32::MAX).count())
        })
        .collect();
    let doc = candidates
        .iter()
        .filter(|&&(_, reach)| (80..=600).contains(&reach))
        .max_by_key(|&&(_, reach)| reach)
        .or_else(|| candidates.iter().max_by_key(|&&(_, reach)| reach))
        .map(|&(d, _)| d)
        // flixcheck: allow(unwrap-expect): repro harness: panicking on a malformed corpus is acceptable here
        .expect("non-empty corpus");
    cg.doc_root(doc)
}

/// The Figure-5 target tag: the paper asks for `article` descendants; our
/// corpus roots are `article` or `inproceedings`, so we use `title`, which
/// every publication carries exactly once — same result cardinality, same
/// access pattern.
pub fn figure5_tag(cg: &CollectionGraph) -> u32 {
    // flixcheck: allow(unwrap-expect): repro harness: panicking on a malformed corpus is acceptable here
    cg.collection.tags.get("title").expect("corpus has titles")
}

/// The §6 error-rate query set: twenty sampled descendant queries plus the
/// Figure-5 hub query.
pub fn error_rate_queries(cg: &CollectionGraph) -> Vec<(NodeId, u32)> {
    let mut qs: Vec<(NodeId, u32)> = workloads::descendant_queries(cg, 20, 41)
        .into_iter()
        .map(|q| (q.start, q.target_tag))
        .collect();
    qs.push((figure5_start(cg), figure5_tag(cg)));
    qs
}

/// The §6 connection-test pairs: forty, roughly half of them reachable.
pub fn connection_test_pairs(cg: &CollectionGraph) -> Vec<workloads::ConnectionPair> {
    workloads::connection_pairs(cg, 40, 17)
}

/// Wall-clock of one closure.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Stopwatch::start();
    let r = f();
    (r, t0.elapsed())
}

/// Median wall-clock over `runs` executions (the result is discarded).
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let t0 = Stopwatch::start();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time until the first `k` results of `start//tag` arrive, for each `k`
/// in `ks` (single evaluation; timestamps recorded as results stream out).
/// A `k` beyond the result count reports the full evaluation time.
pub fn time_to_k_results(
    flix: &Flix,
    start: NodeId,
    tag: u32,
    ks: &[usize],
) -> Vec<(usize, Duration)> {
    let mut stamps: Vec<Duration> = Vec::new();
    let t0 = Stopwatch::start();
    flix.for_each_descendant(start, tag, &QueryOptions::default(), |_, _| {
        stamps.push(t0.elapsed());
        ControlFlow::Continue(())
    });
    let total = t0.elapsed();
    ks.iter()
        .map(|&k| {
            let d = if k == 0 {
                Duration::ZERO
            } else if k <= stamps.len() {
                stamps[k - 1]
            } else {
                total
            };
            (k, d)
        })
        .collect()
}

/// Both readings of the §6 error metric ("fraction of all results that
/// were returned in wrong order").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ErrorRates {
    /// Adjacent-descent reading: a result is wrong when its exact distance
    /// is smaller than its predecessor's — the positions where a client
    /// consuming the stream observes the order break. Block-streamed
    /// evaluation keeps this low (one break per block boundary at most).
    pub adjacent: f64,
    /// Displacement reading: a result is wrong when *any* later result has
    /// a strictly smaller exact distance (it jumped the queue). Much
    /// stricter: one deep block tail displaces en masse.
    pub displaced: f64,
}

/// Computes both §6 error metrics over a query set.
pub fn error_rates(flix: &Flix, cg: &CollectionGraph, queries: &[(NodeId, u32)]) -> ErrorRates {
    let mut total = 0usize;
    let mut adjacent = 0usize;
    let mut displaced = 0usize;
    for &(start, tag) in queries {
        let res = flix.find_descendants(start, tag, &QueryOptions::default());
        let dist = bfs_distances(&cg.graph, start);
        let exact: Vec<u32> = res.iter().map(|r| dist[r.node as usize]).collect();
        for w in exact.windows(2) {
            if w[1] < w[0] {
                adjacent += 1;
            }
        }
        let mut suffix_min = u32::MAX;
        for &d in exact.iter().rev() {
            if suffix_min < d {
                displaced += 1;
            }
            suffix_min = suffix_min.min(d);
        }
        total += exact.len();
    }
    if total == 0 {
        ErrorRates::default()
    } else {
        ErrorRates {
            adjacent: adjacent as f64 / total as f64,
            displaced: displaced as f64 / total as f64,
        }
    }
}

/// The adjacent-descent §6 error metric (headline comparison value).
pub fn error_rate(flix: &Flix, cg: &CollectionGraph, queries: &[(NodeId, u32)]) -> f64 {
    error_rates(flix, cg, queries).adjacent
}

/// A cost model for the paper's database-backed deployment: every heap pop
/// — an entry answered (`entries_popped`) or dropped as subsumed
/// (`entries_subsumed`) — is one index lookup (a database round trip) and
/// every index row read for a block is one row fetch. What a row is depends
/// on the index: under HOPI a lookup joins `L_out(e)` with the inverted
/// `L_in` table *under the tag predicate*, so it fetches, per center, the
/// rows of link sources (Fig. 4's `findReachableLinks` is the same join)
/// and the rows carrying the tag — not the center's whole reach set; under
/// PPO the elements of the interval carrying the tag; under APEX the
/// elements traversed. A link push refused before the heap
/// (`entries_refused`) touches no index and costs nothing. The paper's
/// absolute numbers are dominated by exactly these costs, which in-memory
/// wall-clock does not show.
#[derive(Debug, Clone, Copy)]
pub struct DbCostModel {
    /// Cost per meta-document index lookup (heap pop).
    pub per_lookup: Duration,
    /// Cost per index row fetched while answering a block.
    pub per_row: Duration,
}

impl Default for DbCostModel {
    fn default() -> Self {
        Self {
            per_lookup: Duration::from_micros(2_000),
            per_row: Duration::from_micros(40),
        }
    }
}

impl DbCostModel {
    /// Emulated elapsed time for an evaluation snapshot.
    pub fn cost(&self, stats: PeeStats) -> Duration {
        self.per_lookup * (stats.entries_popped + stats.entries_subsumed) as u32
            + self.per_row * stats.block_results_scanned as u32
    }
}

/// DB-cost-emulated time until the first `k` results, per `k` in `ks`,
/// using the traced evaluator. Entries beyond the result count report the
/// full evaluation cost.
pub fn emulated_time_to_k(
    flix: &Flix,
    start: NodeId,
    tag: u32,
    ks: &[usize],
    model: DbCostModel,
) -> Vec<(usize, Duration)> {
    let mut snapshots: Vec<PeeStats> = Vec::new();
    let total = flix.for_each_descendant(start, tag, &QueryOptions::default(), |_, st| {
        snapshots.push(*st);
        ControlFlow::Continue(())
    });
    ks.iter()
        .map(|&k| {
            let st = if k == 0 {
                PeeStats::default()
            } else if k <= snapshots.len() {
                snapshots[k - 1]
            } else {
                total
            };
            (k, model.cost(st))
        })
        .collect()
}

/// Formats a byte count as megabytes with one decimal.
pub fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a separator line sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_scales() {
        let small = paper_corpus(0.02);
        assert!(small.collection.doc_count() >= 50);
        assert!(small.collection.doc_count() < 300);
    }

    #[test]
    fn figure5_query_has_many_results() {
        let cg = paper_corpus(0.05);
        let start = figure5_start(&cg);
        let tag = figure5_tag(&cg);
        let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
        let res = flix.find_descendants(start, tag, &QueryOptions::default());
        assert!(res.len() >= 10, "start element too isolated: {}", res.len());
    }

    #[test]
    fn time_to_k_monotone() {
        let cg = paper_corpus(0.02);
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let start = figure5_start(&cg);
        let series = time_to_k_results(&flix, start, figure5_tag(&cg), &[1, 5, 10]);
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn emulated_costs_monotone_and_flat_for_monolithic() {
        let cg = paper_corpus(0.02);
        let start = figure5_start(&cg);
        let tag = figure5_tag(&cg);
        let mono = Flix::build(cg.clone(), FlixConfig::Monolithic(StrategyKind::Hopi));
        let ks = [1usize, 10, 50];
        let series = emulated_time_to_k(&mono, start, tag, &ks, DbCostModel::default());
        assert!(series.windows(2).all(|w| w[0].1 <= w[1].1));
        // one meta document: the lookup cost is paid once, so the curve is
        // near-flat (only per-row cost grows)
        let spread = series[2].1.saturating_sub(series[0].1);
        assert!(spread < DbCostModel::default().per_lookup, "{spread:?}");
    }

    #[test]
    fn error_rate_zero_for_monolithic() {
        let cg = paper_corpus(0.02);
        let flix = Flix::build(cg.clone(), FlixConfig::Monolithic(StrategyKind::Hopi));
        let qs: Vec<(NodeId, u32)> = workloads::descendant_queries(&cg, 5, 3)
            .into_iter()
            .map(|q| (q.start, q.target_tag))
            .collect();
        assert_eq!(error_rate(&flix, &cg, &qs), 0.0);
    }

    /// The six §6 frameworks in Table-1 order: HOPI, APEX, PPO-naive,
    /// HOPI-5000, HOPI-20000, MaximalPPO.
    fn build_paper_configs(cg: &Arc<CollectionGraph>) -> Vec<(FlixConfig, Flix)> {
        paper_configs()
            .into_iter()
            .map(|c| (c, Flix::build(cg.clone(), c)))
            .collect()
    }

    // The three tests below pin the EXPERIMENTS.md "shape checks" that
    // `repro table1 errors connect` prints, each at the smallest corpus
    // scale where the paper's relation shows with a margin.

    #[test]
    fn table1_size_ordering_matches_the_paper() {
        let cg = paper_corpus(0.05);
        let size: Vec<usize> = build_paper_configs(&cg)
            .iter()
            .map(|(_, f)| f.stats().index_bytes)
            .collect();
        let [hopi, apex, naive, hopi5k, hopi20k, maximal] = size[..] else {
            panic!("six configurations expected, got {}", size.len());
        };
        assert!(hopi >= hopi20k, "HOPI {hopi} < HOPI-20000 {hopi20k}");
        assert!(
            hopi20k >= hopi5k,
            "HOPI-20000 {hopi20k} < HOPI-5000 {hopi5k}"
        );
        assert!(
            hopi5k > maximal,
            "HOPI-5000 {hopi5k} <= MaximalPPO {maximal}"
        );
        assert!(
            maximal.abs_diff(naive) * 20 <= naive,
            "MaximalPPO {maximal} not within 5% of PPO-naive {naive}"
        );
        assert!(
            size.iter().all(|&s| apex <= s),
            "APEX {apex} is not the smallest of {size:?}"
        );
    }

    // Scale 0.2: below ~0.13 the corpus fits one 20,000-element partition
    // and HOPI-20000 degenerates to the exact monolithic index; at 0.15 it
    // breaks order on 0.03 % of results, at 0.2 on 2.3 %.
    #[test]
    fn exact_strategies_never_break_order_and_approximate_ones_do() {
        let cg = paper_corpus(0.2);
        let queries = error_rate_queries(&cg);
        for (config, flix) in build_paper_configs(&cg) {
            let breaks = error_rates(&flix, &cg, &queries).adjacent;
            if matches!(
                config,
                FlixConfig::UnconnectedHopi { .. } | FlixConfig::MaximalPpo
            ) {
                assert!(breaks > 0.0, "{config} streams blocks approximately");
            } else {
                // The monolithic indexes are exact; per-document PPO is at
                // 0 % on this corpus of shallow documents (EXPERIMENTS.md).
                assert_eq!(breaks, 0.0, "{config}");
            }
        }
    }

    #[test]
    fn every_configuration_answers_every_connection_pair() {
        let cg = paper_corpus(0.02);
        let pairs = connection_test_pairs(&cg);
        assert!(pairs.iter().any(|p| p.reachable) && pairs.iter().any(|p| !p.reachable));
        for (config, flix) in build_paper_configs(&cg) {
            for p in &pairs {
                let got = flix.connection_test(p.from, p.to, &QueryOptions::default());
                assert_eq!(
                    got.distance.is_some(),
                    p.reachable,
                    "{config}: {} => {}",
                    p.from,
                    p.to
                );
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(mb(1024 * 1024), "1.0");
        assert_eq!(mb(0), "0.0");
        let (v, _) = time_once(|| 42);
        assert_eq!(v, 42);
        assert!(time_median(3, || {}) >= Duration::ZERO);
    }
}
