//! Per-query traces: timed spans through the evaluator's stages.
//!
//! A [`QueryTrace`] records the inner life of one priority-queue
//! evaluation: each pop from the queue, each meta-index block fetch, each
//! link-expansion step becomes a [`Span`] carrying its wall-clock window
//! and the evaluator counters charged during it. Spans are capped at a
//! fixed capacity (queries can pop thousands of entries); once full, new
//! spans only bump a dropped-span count — but per-stage *totals* are
//! accumulated unconditionally, so [`StageTotals`] stays exact no matter
//! how long the query ran.
//!
//! Traces produced on the serve path are tagged with the request's
//! [`RequestId`] (see [`QueryTrace::tag_request`]), so a slow-log entry
//! can be joined against the flight recorder's exported journal.

use crate::journal::RequestId;

/// Which evaluator stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanStage {
    /// Popping the best entry off the priority queue, including the §5.1
    /// entry-point subsumption check.
    QueuePop,
    /// Materializing a result block from the meta-document's local index
    /// (the "DB round-trip" of the paper's cost model).
    BlockFetch,
    /// Expanding runtime links out of the current meta-document.
    LinkExpand,
}

impl SpanStage {
    /// Stable lower-case name (used in exports and metric labels).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::QueuePop => "queue_pop",
            SpanStage::BlockFetch => "block_fetch",
            SpanStage::LinkExpand => "link_expand",
        }
    }

    /// All stages, in evaluation order.
    pub const ALL: [SpanStage; 3] = [
        SpanStage::QueuePop,
        SpanStage::BlockFetch,
        SpanStage::LinkExpand,
    ];

    fn index(self) -> usize {
        match self {
            SpanStage::QueuePop => 0,
            SpanStage::BlockFetch => 1,
            SpanStage::LinkExpand => 2,
        }
    }
}

/// Evaluator counters charged during one span (a delta, not a running
/// total). Mirrors `flix::PeeStats` without depending on the flix crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanCounters {
    /// Queue entries popped.
    pub entries_popped: u64,
    /// Entries dropped by the §5.1 subsumption check.
    pub entries_subsumed: u64,
    /// Index rows scanned while materializing result blocks.
    pub rows_scanned: u64,
    /// Runtime links followed.
    pub links_expanded: u64,
}

impl SpanCounters {
    /// Adds another delta into this one.
    pub fn absorb(&mut self, other: &SpanCounters) {
        self.entries_popped += other.entries_popped;
        self.entries_subsumed += other.entries_subsumed;
        self.rows_scanned += other.rows_scanned;
        self.links_expanded += other.links_expanded;
    }
}

/// One timed window inside a query, relative to the trace's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The evaluator stage this span covers.
    pub stage: SpanStage,
    /// Offset from the start of the trace, in microseconds.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Counters charged during the span.
    pub counters: SpanCounters,
}

/// Always-exact per-stage aggregates (kept even when spans are dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Number of spans recorded for the stage.
    pub spans: u64,
    /// Total nanoseconds spent in the stage. Spans are summed at this
    /// resolution, so one shorter than a microsecond still counts.
    pub nanos: u64,
    /// Total microseconds spent in the stage: `nanos / 1000`, truncated
    /// once on the total.
    pub micros: u64,
    /// Sum of all counters charged in the stage.
    pub counters: SpanCounters,
}

/// Default cap on retained spans per trace.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// A per-query trace: retained spans up to a capacity, plus exact
/// per-stage totals and the query's total latency.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Free-form description of the query (axis, tags, config…).
    pub label: String,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
    totals: [StageTotals; 3],
    total_micros: u64,
    request: RequestId,
}

impl QueryTrace {
    /// An empty trace with the default span capacity.
    pub fn new(label: &str) -> Self {
        Self::with_capacity(label, DEFAULT_SPAN_CAPACITY)
    }

    /// An empty trace retaining at most `capacity` spans.
    pub fn with_capacity(label: &str, capacity: usize) -> Self {
        Self {
            label: label.to_string(),
            spans: Vec::new(),
            capacity,
            dropped: 0,
            totals: [StageTotals::default(); 3],
            total_micros: 0,
            request: RequestId::NONE,
        }
    }

    /// Tags the trace with the serve-path request that produced it, so it
    /// can be joined against the flight recorder's journal.
    pub fn tag_request(&mut self, request: RequestId) {
        self.request = request;
    }

    /// The request this trace belongs to ([`RequestId::NONE`] when the
    /// trace was not produced by the serve path).
    pub fn request(&self) -> RequestId {
        self.request
    }

    /// Records one span, timed in nanoseconds relative to the trace's
    /// start. Past capacity the span itself is dropped (the dropped count
    /// grows), but the stage totals always absorb it.
    pub fn record(
        &mut self,
        stage: SpanStage,
        start_nanos: u64,
        duration_nanos: u64,
        counters: SpanCounters,
    ) {
        let t = &mut self.totals[stage.index()];
        t.spans += 1;
        t.nanos += duration_nanos;
        t.micros = t.nanos / 1_000;
        t.counters.absorb(&counters);
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                stage,
                start_micros: start_nanos / 1_000,
                duration_micros: duration_nanos / 1_000,
                counters,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Sets the query's end-to-end latency.
    pub fn finish(&mut self, total_micros: u64) {
        self.total_micros = total_micros;
    }

    /// End-to-end latency in microseconds (0 until [`QueryTrace::finish`]).
    pub fn total_micros(&self) -> u64 {
        self.total_micros
    }

    /// Retained spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded past capacity (not retained, still in the totals).
    pub fn dropped_spans(&self) -> u64 {
        self.dropped
    }

    /// Exact totals for one stage.
    pub fn stage_totals(&self, stage: SpanStage) -> StageTotals {
        self.totals[stage.index()]
    }

    /// Sum of counters across every stage.
    pub fn counters(&self) -> SpanCounters {
        let mut sum = SpanCounters::default();
        for t in &self.totals {
            sum.absorb(&t.counters);
        }
        sum
    }

    /// One-line human rendering: label, latency, per-stage breakdown.
    pub fn summary(&self) -> String {
        let mut out = format!("{} {}us", self.label, self.total_micros);
        for stage in SpanStage::ALL {
            let t = self.stage_totals(stage);
            if t.spans > 0 {
                out.push_str(&format!(" {}={}us/{}", stage.name(), t.micros, t.spans));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(" (+{} spans dropped)", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(popped: u64, rows: u64) -> SpanCounters {
        SpanCounters {
            entries_popped: popped,
            entries_subsumed: 0,
            rows_scanned: rows,
            links_expanded: 0,
        }
    }

    #[test]
    fn spans_and_totals_accumulate() {
        let mut trace = QueryTrace::new("q");
        trace.record(SpanStage::QueuePop, 0, 5_000, counters(1, 0));
        trace.record(SpanStage::BlockFetch, 5_000, 20_000, counters(0, 40));
        trace.record(SpanStage::BlockFetch, 30_000, 10_000, counters(0, 2));
        trace.finish(42);
        assert_eq!(trace.spans().len(), 3);
        assert_eq!(trace.total_micros(), 42);
        let fetch = trace.stage_totals(SpanStage::BlockFetch);
        assert_eq!(fetch.spans, 2);
        assert_eq!(fetch.micros, 30);
        assert_eq!(fetch.counters.rows_scanned, 42);
        assert_eq!(trace.counters().entries_popped, 1);
        assert_eq!(trace.stage_totals(SpanStage::LinkExpand).spans, 0);
    }

    #[test]
    fn capacity_drops_spans_but_not_totals() {
        let mut trace = QueryTrace::with_capacity("q", 2);
        for i in 0..5 {
            trace.record(SpanStage::QueuePop, i * 1_000, 1_000, counters(1, 0));
        }
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.dropped_spans(), 3);
        let pops = trace.stage_totals(SpanStage::QueuePop);
        assert_eq!(pops.spans, 5);
        assert_eq!(pops.micros, 5);
        assert_eq!(pops.counters.entries_popped, 5);
        assert!(trace.summary().contains("+3 spans dropped"));
    }

    #[test]
    fn sub_microsecond_spans_add_up_instead_of_vanishing() {
        let mut trace = QueryTrace::with_capacity("linkchase", 0);
        for i in 0..1_000 {
            trace.record(SpanStage::LinkExpand, i * 400, 400, counters(0, 0));
        }
        let links = trace.stage_totals(SpanStage::LinkExpand);
        assert_eq!(links.spans, 1_000);
        assert_eq!(links.nanos, 400_000);
        assert_eq!(links.micros, 400);
    }

    #[test]
    fn summary_mentions_active_stages_only() {
        let mut trace = QueryTrace::new("find//sec");
        trace.record(SpanStage::QueuePop, 0, 3_000, counters(1, 0));
        trace.finish(9);
        let s = trace.summary();
        assert!(s.contains("find//sec"), "{s}");
        assert!(s.contains("queue_pop=3us/1"), "{s}");
        assert!(!s.contains("block_fetch"), "{s}");
    }
}
