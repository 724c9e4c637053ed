//! Per-query traces: the evaluator's three stage clocks.
//!
//! A [`QueryTrace`] records the inner life of one priority-queue
//! evaluation as [`Span`]s that *tile* it: the evaluator reads one clock at
//! each stage boundary and charges everything since the previous read to
//! the stage that just ran, so a span starts where the one before it ended
//! and the stages add up to the evaluation. Spans are capped at a fixed
//! capacity (queries can pop thousands of entries); once full, new spans
//! are not retained — but per-stage *totals* are accumulated
//! unconditionally, so [`StageTotals`] stays exact no matter how long the
//! query ran, and the total is derived from them.
//!
//! The evaluator's counters are not restated here: they come back with the
//! answer as `flix::PeeStats`.

use crate::journal::EventKind;

/// Which evaluator stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanStage {
    /// Popping the best entry off the priority queue: the heap pop, the
    /// deadline and distance-bound checks, the exact-order release, and the
    /// §5.1 entry-point subsumption verdict.
    QueuePop,
    /// Materializing a result block from the meta-document's local index
    /// (the "DB round-trip" of the paper's cost model), filtering its rows
    /// by §5.1, and handing the results to the caller.
    BlockFetch,
    /// Expanding runtime links out of the current meta-document: the queue
    /// pushes.
    LinkExpand,
}

impl SpanStage {
    /// Stable lower-case name (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::QueuePop => "queue_pop",
            SpanStage::BlockFetch => "block_fetch",
            SpanStage::LinkExpand => "link_expand",
        }
    }

    /// All stages, in evaluation (and declaration) order: a stage's place
    /// here is its discriminant, which indexes per-stage arrays.
    pub const ALL: [SpanStage; 3] = [
        SpanStage::QueuePop,
        SpanStage::BlockFetch,
        SpanStage::LinkExpand,
    ];
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
}

/// Default cap on retained spans per trace.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// A per-query trace: retained spans up to a capacity, plus exact
/// per-stage totals from which the query's total time is derived.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Free-form description of the query (axis, tags, config…).
    pub label: String,
    spans: Vec<Span>,
    capacity: usize,
    totals: [StageTotals; 3],
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
            totals: [StageTotals::default(); 3],
        }
    }

    /// Records one span of `nanos` nanoseconds. Spans tile, so it starts
    /// at the running total — which keeps counting across the passes of a
    /// query that is evaluated more than once (a shard-local attempt that
    /// escapes and re-runs as a fan-out). Past capacity the span itself is
    /// dropped, but the stage totals always absorb it.
    pub fn record(&mut self, stage: SpanStage, nanos: u64) {
        let t = &mut self.totals[stage as usize];
        t.spans += 1;
        t.nanos += nanos;
        t.micros = t.nanos / 1_000;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                stage,
                start_micros: (self.total_nanos() - nanos) / 1_000,
                duration_micros: nanos / 1_000,
            });
        }
    }

    fn total_nanos(&self) -> u64 {
        self.totals.iter().map(|t| t.nanos).sum()
    }

    /// Time spent evaluating, in microseconds: the sum of the stage
    /// nanoseconds over 1,000. Derived, so it cannot disagree with them.
    pub fn total_micros(&self) -> u64 {
        self.total_nanos() / 1_000
    }

    /// Retained spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Exact totals for one stage.
    pub fn stage_totals(&self, stage: SpanStage) -> StageTotals {
        self.totals[stage as usize]
    }

    /// One `stage_*` journal event per stage that recorded spans, carrying
    /// the stage's total: how the serve path puts this trace on its
    /// request's timeline.
    pub fn stage_events(&self) -> impl Iterator<Item = EventKind> + '_ {
        SpanStage::ALL.into_iter().filter_map(|stage| {
            let StageTotals { spans, micros, .. } = self.stage_totals(stage);
            (spans > 0).then_some(match stage {
                SpanStage::QueuePop => EventKind::StageQueuePop { micros },
                SpanStage::BlockFetch => EventKind::StageBlockFetch { micros },
                SpanStage::LinkExpand => EventKind::StageLinkExpand { micros },
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_totals_accumulate() {
        let mut trace = QueryTrace::new("q");
        trace.record(SpanStage::QueuePop, 5_000);
        trace.record(SpanStage::BlockFetch, 20_500);
        trace.record(SpanStage::BlockFetch, 10_500);
        assert_eq!(trace.spans().len(), 3);
        // Spans tile: each starts where the one before it ended.
        let starts: Vec<u64> = trace.spans().iter().map(|s| s.start_micros).collect();
        assert_eq!(starts, vec![0, 5, 25]);
        let fetch = trace.stage_totals(SpanStage::BlockFetch);
        assert_eq!(fetch.spans, 2);
        assert_eq!(fetch.micros, 31);
        assert_eq!(trace.stage_totals(SpanStage::LinkExpand).spans, 0);
        // The total is the stages' sum, truncated once.
        assert_eq!(trace.total_micros(), 36);
        let events: Vec<EventKind> = trace.stage_events().collect();
        assert_eq!(
            events,
            vec![
                EventKind::StageQueuePop { micros: 5 },
                EventKind::StageBlockFetch { micros: 31 }
            ]
        );
    }

    #[test]
    fn capacity_drops_spans_but_not_totals() {
        let mut trace = QueryTrace::with_capacity("q", 2);
        for _ in 0..5 {
            trace.record(SpanStage::QueuePop, 1_000);
        }
        assert_eq!(trace.spans().len(), 2);
        let pops = trace.stage_totals(SpanStage::QueuePop);
        assert_eq!(pops.spans, 5);
        assert_eq!(pops.micros, 5);
        assert_eq!(trace.total_micros(), 5);
    }

    #[test]
    fn sub_microsecond_spans_add_up_instead_of_vanishing() {
        let mut trace = QueryTrace::with_capacity("linkchase", 0);
        for _ in 0..1_000 {
            trace.record(SpanStage::LinkExpand, 400);
        }
        let links = trace.stage_totals(SpanStage::LinkExpand);
        assert_eq!(links.spans, 1_000);
        assert_eq!(links.nanos, 400_000);
        assert_eq!(links.micros, 400);
    }
}
