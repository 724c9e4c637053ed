//! Query-path observability glue (§7's "statistics on the query load").
//!
//! [`QueryPathMetrics`] bundles the metric handles one observed workload
//! needs — a latency histogram, per-stage time counters, and the evaluator
//! counters — together with a [`SlowQueryLog`] that retains the worst
//! traces. All handles come from a shared [`MetricsRegistry`], labelled by
//! the caller (typically `config` and `workload`), so one registry
//! snapshot compares every backend strategy side by side.
//!
//! Observation never perturbs evaluation: the observed entry points run
//! the same evaluator code path with a write-only trace attached, and a
//! test in `tests/observability.rs` proves the result stream is identical
//! with and without it.

use crate::framework::Flix;
use crate::pee::{ConnectionOutcome, PeeStats, QueryOptions, QueryResult};
use flixobs::{
    Counter, Histogram, MetricsRegistry, QueryTrace, SlowQuery, SlowQueryLog, SpanStage, Stopwatch,
};
use graphcore::NodeId;
use xmlgraph::TagId;

/// Default number of worst traces the slow-query log retains.
pub const DEFAULT_SLOW_LOG_CAPACITY: usize = 8;

/// Metric handles plus the slow-query log for one observed query path.
pub struct QueryPathMetrics {
    latency: Histogram,
    stage_micros: [(SpanStage, Counter); 3],
    queries: Counter,
    results: Counter,
    entries_popped: Counter,
    entries_subsumed: Counter,
    rows_scanned: Counter,
    links_expanded: Counter,
    slow_log: SlowQueryLog,
}

impl QueryPathMetrics {
    /// Registers the query-path metrics under `labels` in `registry` and
    /// attaches a slow-query log of [`DEFAULT_SLOW_LOG_CAPACITY`].
    pub fn register(registry: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        Self::register_with_slow_capacity(registry, labels, DEFAULT_SLOW_LOG_CAPACITY)
    }

    /// [`Self::register`] with an explicit slow-query log capacity.
    pub fn register_with_slow_capacity(
        registry: &MetricsRegistry,
        labels: &[(&str, &str)],
        slow_capacity: usize,
    ) -> Self {
        let stage_counter = |stage: SpanStage| {
            let mut stage_labels: Vec<(&str, &str)> = labels.to_vec();
            stage_labels.push(("stage", stage.name()));
            (
                stage,
                registry.counter_with("flix_query_stage_micros_total", &stage_labels),
            )
        };
        Self {
            latency: registry.histogram_with("flix_query_latency_micros", labels),
            stage_micros: [
                stage_counter(SpanStage::QueuePop),
                stage_counter(SpanStage::BlockFetch),
                stage_counter(SpanStage::LinkExpand),
            ],
            queries: registry.counter_with("flix_queries_total", labels),
            results: registry.counter_with("flix_results_total", labels),
            entries_popped: registry.counter_with("flix_entries_popped_total", labels),
            entries_subsumed: registry.counter_with("flix_entries_subsumed_total", labels),
            rows_scanned: registry.counter_with("flix_rows_scanned_total", labels),
            links_expanded: registry.counter_with("flix_links_expanded_total", labels),
            slow_log: SlowQueryLog::new(slow_capacity),
        }
    }

    /// `a//B` with full observation: evaluates with a trace attached,
    /// records latency and per-stage times, accumulates the evaluator
    /// counters, and offers the trace to the slow-query log.
    pub fn find_descendants(
        &self,
        flix: &Flix,
        start: NodeId,
        target: TagId,
        opts: &QueryOptions,
        label: &str,
    ) -> (Vec<QueryResult>, PeeStats) {
        let mut trace = QueryTrace::new(label);
        let (results, stats) = flix.find_descendants_with_trace(start, target, opts, &mut trace);
        for (stage, counter) in &self.stage_micros {
            counter.add(trace.stage_totals(*stage).micros);
        }
        self.record(trace.total_micros(), &stats, results.len());
        self.slow_log.offer(trace);
        (results, stats)
    }

    /// Observed connection test `a//b`: latency and counters are recorded;
    /// no spans exist on this path, so only a latency-bearing trace is
    /// offered to the slow-query log.
    pub fn connection_test(
        &self,
        flix: &Flix,
        from: NodeId,
        to: NodeId,
        opts: &QueryOptions,
        label: &str,
    ) -> ConnectionOutcome {
        let sw = Stopwatch::start();
        let outcome = flix.connection_test(from, to, opts);
        let mut trace = QueryTrace::new(label);
        trace.finish(sw.elapsed_micros());
        let found = usize::from(outcome.distance.is_some());
        self.record(trace.total_micros(), &outcome.stats, found);
        self.slow_log.offer(trace);
        outcome
    }

    /// Records one finished query into the aggregate metrics (used by the
    /// observed entry points above; callable directly for custom paths).
    pub fn record(&self, latency_micros: u64, stats: &PeeStats, results: usize) {
        self.latency.record(latency_micros);
        self.queries.inc();
        self.results.add(results as u64);
        self.entries_popped.add(stats.entries_popped as u64);
        self.entries_subsumed.add(stats.entries_subsumed as u64);
        self.rows_scanned.add(stats.block_results_scanned as u64);
        self.links_expanded.add(stats.links_expanded as u64);
    }

    /// The latency histogram handle (for percentile reporting).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries.get()
    }

    /// The worst retained traces, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.worst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlixConfig;
    use std::sync::Arc;
    use xmlgraph::{Collection, Document, LinkTarget};

    fn tiny() -> (Arc<Flix>, TagId) {
        let mut c = Collection::new();
        let t = c.tags.intern("t");
        let mut d0 = Document::new("a.xml");
        let r = d0.add_element(t, None);
        let k = d0.add_element(t, Some(r));
        d0.add_link(
            k,
            LinkTarget {
                document: Some("b.xml".into()),
                fragment: None,
            },
        );
        let mut d1 = Document::new("b.xml");
        d1.add_element(t, None);
        c.add_document(d0).unwrap();
        c.add_document(d1).unwrap();
        let cg = Arc::new(c.seal());
        let tag = cg.collection.tags.get("t").unwrap();
        (Arc::new(Flix::build(cg, FlixConfig::Naive)), tag)
    }

    #[test]
    fn observed_queries_feed_registry_and_slow_log() {
        let (flix, t) = tiny();
        let registry = MetricsRegistry::new();
        let obs = QueryPathMetrics::register(&registry, &[("config", "naive")]);
        let (results, stats) = obs.find_descendants(&flix, 0, t, &QueryOptions::default(), "0//t");
        assert_eq!(
            results,
            flix.find_descendants(0, t, &QueryOptions::default())
        );
        assert!(stats.entries_popped > 0);
        assert_eq!(obs.queries(), 1);
        assert_eq!(obs.latency().count(), 1);
        let snap = registry.snapshot();
        let text = snap.to_prometheus();
        assert!(
            text.contains("flix_queries_total{config=\"naive\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("flix_query_latency_micros_count{config=\"naive\"} 1"),
            "{text}"
        );
        let slow = obs.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].trace.label, "0//t");
        assert!(
            slow[0].trace.stage_totals(SpanStage::QueuePop).spans > 0,
            "trace carries evaluator spans"
        );
    }

    #[test]
    fn observed_connection_test_matches_plain() {
        let (flix, _) = tiny();
        let registry = MetricsRegistry::new();
        let obs = QueryPathMetrics::register(&registry, &[]);
        let observed = obs.connection_test(&flix, 0, 2, &QueryOptions::default(), "0->2");
        assert_eq!(
            observed,
            flix.connection_test(0, 2, &QueryOptions::default())
        );
        assert_eq!(obs.queries(), 1);
        assert_eq!(registry.counter("flix_results_total").get(), 1);
    }
}
