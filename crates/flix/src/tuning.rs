//! Self-tuning (paper §7): watch the query load and recognise when the
//! meta-document choice has gone stale.
//!
//! "If it turns out in the query evaluation engine that most queries have
//! to follow many links, then the choice of meta documents is no longer
//! optimal for the current query load. In this case, the build phase
//! should start again, taking statistics on the query load into account."
//!
//! [`LoadMonitor`] accumulates [`PeeStats`] per query; [`LoadMonitor::
//! recommend`] turns the aggregate into a rebuild recommendation: many
//! entry pops per query mean results are scattered over meta documents
//! (make them bigger), while single-pop queries over an oversized
//! monolithic index suggest partitioning would shed index size for free.

use crate::config::{FlixConfig, StrategyKind};
use crate::pee::PeeStats;
use crate::report::BuildReport;

/// Aggregated query-load statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadMonitor {
    queries: u64,
    entries_popped: u64,
    entries_subsumed: u64,
    block_results_scanned: u64,
    links_expanded: u64,
    results: u64,
}

/// The monitor's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recommendation {
    /// The configuration still fits the load.
    Keep,
    /// Rebuild with the suggested configuration.
    Rebuild {
        /// Suggested replacement configuration.
        suggestion: FlixConfig,
        /// Human-readable justification.
        reason: String,
    },
}

impl LoadMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one evaluated query.
    pub fn record(&mut self, stats: PeeStats, results: usize) {
        self.queries += 1;
        self.entries_popped += stats.entries_popped as u64;
        self.entries_subsumed += stats.entries_subsumed as u64;
        self.block_results_scanned += stats.block_results_scanned as u64;
        self.links_expanded += stats.links_expanded as u64;
        self.results += results as u64;
    }

    /// Number of queries observed.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Mean meta-document lookups per query: heap pops, answered
    /// (`entries_popped`) or dropped as subsumed (`entries_subsumed`) — each
    /// resolved its meta document and probed its index. Link pushes refused
    /// before the heap (`entries_refused`) cost no lookup and are not in it.
    pub fn avg_lookups(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            (self.entries_popped + self.entries_subsumed) as f64 / self.queries as f64
        }
    }

    /// Mean runtime links chased per query.
    pub fn avg_links(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.links_expanded as f64 / self.queries as f64
        }
    }

    /// Mean index rows scanned per query (row fetches in the paper's
    /// database-backed deployment).
    pub fn avg_rows_scanned(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.block_results_scanned as f64 / self.queries as f64
        }
    }

    /// Index rows scanned per returned result — the selectivity of the
    /// current meta-document layout. This is the load monitor's proxy for
    /// the paper's DB round-trip cost: a high ratio means each lookup
    /// fetches many rows that never become answers. A row is what
    /// [`PeeStats::block_results_scanned`] charges: under HOPI the label
    /// rows a pop's join reads — per center the link-source rows and the
    /// rows carrying the tag, so the ratio there is mostly link enumeration
    /// (rows that become queue entries, not answers) — under PPO the tagged
    /// elements of the subtree, under APEX the elements traversed.
    /// Result-less loads are normalised per query instead, so wasted scans
    /// still register.
    pub fn rows_per_result(&self) -> f64 {
        if self.results > 0 {
            self.block_results_scanned as f64 / self.results as f64
        } else {
            self.avg_rows_scanned()
        }
    }

    /// Verdict for the current configuration.
    ///
    /// `min_queries` guards against deciding on too small a sample.
    pub fn recommend(&self, current: FlixConfig, min_queries: u64) -> Recommendation {
        if self.queries < min_queries {
            return Recommendation::Keep;
        }
        let lookups = self.avg_lookups();
        // Most queries follow many links: meta documents are too small for
        // this load (§7's trigger condition).
        if lookups > 8.0 {
            let suggestion = grown(current);
            if suggestion == current {
                return Recommendation::Keep;
            }
            return Recommendation::Rebuild {
                suggestion,
                reason: format!(
                    "queries average {lookups:.1} meta-document lookups; larger meta documents \
                     would answer them in fewer hops"
                ),
            };
        }
        // Each returned result costs many fetched index rows: the layout's
        // selectivity is poor — the DB-round-trip cost the paper's
        // deployment pays per row fetch. APEX's structural summary scans
        // candidate elements, so swap it for HOPI's two-hop labels first;
        // otherwise larger meta documents amortise the scans.
        let rows = self.rows_per_result();
        if rows > 32.0 {
            let suggestion = match current {
                FlixConfig::Monolithic(StrategyKind::Apex) => {
                    FlixConfig::Monolithic(StrategyKind::Hopi)
                }
                other => grown(other),
            };
            if suggestion != current {
                return Recommendation::Rebuild {
                    suggestion,
                    reason: format!(
                        "queries scan {rows:.1} index rows per returned result; a more \
                         selective index layout would cut the row-fetch cost"
                    ),
                };
            }
        }
        // Queries stay within one meta document but the index is the
        // all-in-one HOPI: partitioning sheds label size with no query-time
        // penalty for this load.
        if lookups <= 1.5 && current == FlixConfig::Monolithic(StrategyKind::Hopi) {
            return Recommendation::Rebuild {
                suggestion: FlixConfig::UnconnectedHopi {
                    partition_size: 20_000,
                },
                reason: format!(
                    "queries average {lookups:.1} lookups; a partitioned index would answer \
                     the same load with a fraction of the label storage"
                ),
            };
        }
        Recommendation::Keep
    }

    /// [`Self::recommend`], with the rebuild justification grounded in what
    /// the last build actually cost: a rebuild recommendation cites the
    /// measured build time, the meta-document count, and the costliest
    /// single meta document from `report`, so the operator can weigh the
    /// query-time win against the rebuild price.
    pub fn recommend_with_report(
        &self,
        current: FlixConfig,
        min_queries: u64,
        report: &BuildReport,
    ) -> Recommendation {
        match self.recommend(current, min_queries) {
            Recommendation::Keep => Recommendation::Keep,
            Recommendation::Rebuild { suggestion, reason } => {
                let mut reason = format!(
                    "{reason}; last build took {:.1} ms over {} meta documents",
                    report.total_micros as f64 / 1_000.0,
                    report.per_meta.len(),
                );
                if let Some((mi, costliest)) = report.costliest_meta() {
                    reason.push_str(&format!(
                        " (costliest: meta {mi}, {} over {} elements in {:.1} ms)",
                        costliest.strategy,
                        costliest.nodes,
                        costliest.build_micros as f64 / 1_000.0,
                    ));
                }
                Recommendation::Rebuild { suggestion, reason }
            }
        }
    }
}

/// A [`LoadMonitor`] that server workers can feed concurrently: each
/// counter is an atomic cell, so recording a query is a handful of relaxed
/// adds with no `&mut` access or lock. [`SharedLoadMonitor::snapshot`]
/// materialises a plain [`LoadMonitor`] for `recommend`.
#[derive(Debug, Default)]
pub struct SharedLoadMonitor {
    queries: flixobs::Counter,
    entries_popped: flixobs::Counter,
    entries_subsumed: flixobs::Counter,
    block_results_scanned: flixobs::Counter,
    links_expanded: flixobs::Counter,
    results: flixobs::Counter,
}

impl SharedLoadMonitor {
    /// A fresh monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one evaluated query; callable from any thread.
    pub fn record(&self, stats: PeeStats, results: usize) {
        self.queries.inc();
        self.entries_popped.add(stats.entries_popped as u64);
        self.entries_subsumed.add(stats.entries_subsumed as u64);
        self.block_results_scanned
            .add(stats.block_results_scanned as u64);
        self.links_expanded.add(stats.links_expanded as u64);
        self.results.add(results as u64);
    }

    /// A point-in-time [`LoadMonitor`] over everything recorded so far.
    pub fn snapshot(&self) -> LoadMonitor {
        LoadMonitor {
            queries: self.queries.get(),
            entries_popped: self.entries_popped.get(),
            entries_subsumed: self.entries_subsumed.get(),
            block_results_scanned: self.block_results_scanned.get(),
            links_expanded: self.links_expanded.get(),
            results: self.results.get(),
        }
    }
}

/// The "make meta documents bigger" ladder shared by the rebuild triggers.
fn grown(current: FlixConfig) -> FlixConfig {
    match current {
        FlixConfig::Naive => FlixConfig::MaximalPpo,
        FlixConfig::MaximalPpo => FlixConfig::UnconnectedHopi {
            partition_size: 5_000,
        },
        FlixConfig::UnconnectedHopi { partition_size } => FlixConfig::UnconnectedHopi {
            partition_size: partition_size.saturating_mul(4),
        },
        FlixConfig::Hybrid { partition_size } => FlixConfig::Hybrid {
            partition_size: partition_size.saturating_mul(4),
        },
        FlixConfig::Monolithic(k) => FlixConfig::Monolithic(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(popped: usize, links: usize) -> PeeStats {
        PeeStats {
            entries_popped: popped,
            links_expanded: links,
            ..PeeStats::default()
        }
    }

    fn stats_rows(popped: usize, rows: usize) -> PeeStats {
        PeeStats {
            entries_popped: popped,
            block_results_scanned: rows,
            ..PeeStats::default()
        }
    }

    #[test]
    fn too_few_queries_keep() {
        let mut m = LoadMonitor::new();
        m.record(stats(100, 300), 5);
        assert_eq!(m.recommend(FlixConfig::Naive, 10), Recommendation::Keep);
    }

    #[test]
    fn link_heavy_load_triggers_rebuild_chain() {
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            m.record(stats(40, 120), 10);
        }
        match m.recommend(FlixConfig::Naive, 10) {
            Recommendation::Rebuild { suggestion, .. } => {
                assert_eq!(suggestion, FlixConfig::MaximalPpo)
            }
            r => panic!("expected rebuild, got {r:?}"),
        }
        match m.recommend(
            FlixConfig::UnconnectedHopi {
                partition_size: 5_000,
            },
            10,
        ) {
            Recommendation::Rebuild { suggestion, .. } => assert_eq!(
                suggestion,
                FlixConfig::UnconnectedHopi {
                    partition_size: 20_000
                }
            ),
            r => panic!("expected rebuild, got {r:?}"),
        }
    }

    #[test]
    fn local_load_keeps_partitioned_config() {
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            m.record(stats(1, 0), 10);
        }
        assert_eq!(
            m.recommend(
                FlixConfig::UnconnectedHopi {
                    partition_size: 5_000
                },
                10
            ),
            Recommendation::Keep
        );
    }

    #[test]
    fn local_load_shrinks_monolithic_hopi() {
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            m.record(stats(1, 0), 10);
        }
        match m.recommend(FlixConfig::Monolithic(StrategyKind::Hopi), 10) {
            Recommendation::Rebuild { suggestion, .. } => assert_eq!(
                suggestion,
                FlixConfig::UnconnectedHopi {
                    partition_size: 20_000
                }
            ),
            r => panic!("expected rebuild, got {r:?}"),
        }
    }

    #[test]
    fn report_grounds_rebuild_reason_in_measured_costs() {
        use crate::report::MetaBuildReport;
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            m.record(stats(40, 120), 10);
        }
        let mut report = BuildReport::empty(FlixConfig::Naive);
        report.total_micros = 12_500;
        report.per_meta = vec![
            MetaBuildReport {
                strategy: StrategyKind::Ppo,
                nodes: 10,
                edges: 9,
                build_micros: 2_000,
                index_bytes: 80,
                dropped_links: 0,
                stages: None,
            },
            MetaBuildReport {
                strategy: StrategyKind::Hopi,
                nodes: 400,
                edges: 900,
                build_micros: 9_000,
                index_bytes: 4_000,
                dropped_links: 3,
                stages: None,
            },
        ];
        match m.recommend_with_report(FlixConfig::Naive, 10, &report) {
            Recommendation::Rebuild { suggestion, reason } => {
                assert_eq!(suggestion, FlixConfig::MaximalPpo);
                assert!(reason.contains("12.5 ms"), "{reason}");
                assert!(reason.contains("2 meta documents"), "{reason}");
                assert!(
                    reason.contains("meta 1, HOPI over 400 elements"),
                    "{reason}"
                );
            }
            r => panic!("expected rebuild, got {r:?}"),
        }
        // Keep verdicts pass through untouched.
        let quiet = LoadMonitor::new();
        assert_eq!(
            quiet.recommend_with_report(FlixConfig::Naive, 10, &report),
            Recommendation::Keep
        );
    }

    #[test]
    fn averages() {
        let mut m = LoadMonitor::new();
        m.record(stats(4, 6), 2);
        m.record(stats(2, 0), 1);
        assert_eq!(m.queries(), 2);
        assert!((m.avg_lookups() - 3.0).abs() < 1e-9);
        assert!((m.avg_links() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rows_scanned_are_accumulated_not_dropped() {
        let mut m = LoadMonitor::new();
        m.record(stats_rows(1, 100), 2);
        m.record(stats_rows(1, 50), 1);
        assert_eq!(m.queries(), 2);
        assert!((m.avg_lookups() - 1.0).abs() < 1e-9);
        assert!((m.avg_rows_scanned() - 75.0).abs() < 1e-9);
        assert!((m.rows_per_result() - 50.0).abs() < 1e-9);
        // Result-less load: normalise per query, so waste still shows.
        let mut empty = LoadMonitor::new();
        empty.record(stats_rows(1, 40), 0);
        assert!((empty.rows_per_result() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn poor_selectivity_triggers_rebuild() {
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            // 1 lookup per query (below the link trigger), but 100 rows
            // fetched per returned result.
            m.record(stats_rows(1, 200), 2);
        }
        match m.recommend(FlixConfig::Naive, 10) {
            Recommendation::Rebuild { suggestion, reason } => {
                assert_eq!(suggestion, FlixConfig::MaximalPpo);
                assert!(reason.contains("rows per returned result"), "{reason}");
            }
            r => panic!("expected rebuild, got {r:?}"),
        }
        // APEX's element scans are the canonical cause: suggest HOPI.
        match m.recommend(FlixConfig::Monolithic(StrategyKind::Apex), 10) {
            Recommendation::Rebuild { suggestion, .. } => {
                assert_eq!(suggestion, FlixConfig::Monolithic(StrategyKind::Hopi));
            }
            r => panic!("expected rebuild, got {r:?}"),
        }
        // Monolithic HOPI has nowhere to grow on this trigger; the
        // single-lookup load falls through to the §7 shrink advice instead.
        match m.recommend(FlixConfig::Monolithic(StrategyKind::Hopi), 10) {
            Recommendation::Rebuild { suggestion, .. } => assert_eq!(
                suggestion,
                FlixConfig::UnconnectedHopi {
                    partition_size: 20_000
                }
            ),
            r => panic!("expected shrink rebuild, got {r:?}"),
        }
    }

    #[test]
    fn good_selectivity_keeps() {
        let mut m = LoadMonitor::new();
        for _ in 0..20 {
            m.record(stats_rows(2, 10), 8);
        }
        assert_eq!(m.recommend(FlixConfig::Naive, 10), Recommendation::Keep);
    }

    #[test]
    fn shared_monitor_matches_sequential_recording() {
        let shared = std::sync::Arc::new(SharedLoadMonitor::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        shared.record(stats_rows(2, 10), 3);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = shared.snapshot();
        let mut sequential = LoadMonitor::new();
        for _ in 0..200 {
            sequential.record(stats_rows(2, 10), 3);
        }
        assert_eq!(snap.queries(), sequential.queries());
        assert_eq!(snap.avg_lookups(), sequential.avg_lookups());
        assert_eq!(snap.avg_rows_scanned(), sequential.avg_rows_scanned());
        assert_eq!(snap.rows_per_result(), sequential.rows_per_result());
    }
}
