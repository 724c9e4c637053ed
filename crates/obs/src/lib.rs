//! `flixobs` — query-path observability for the FliX framework.
//!
//! The build phase has had a report layer (`flix::report`) since the
//! parallel-build work; this crate gives the *serving* side the same
//! visibility, which the paper's §7 self-tuning loop ("take statistics on
//! the query load into account") depends on:
//!
//! * [`MetricsRegistry`] — a registry of named [`Counter`]s, [`Gauge`]s,
//!   and log2-bucketed latency [`Histogram`]s. Handles are `Arc`-backed
//!   atomics: updating a metric is a single wait-free atomic operation;
//!   the registry mutex is touched only at registration and snapshot time.
//! * [`QueryTrace`] — per-query stage clocks (queue pop → meta-index block
//!   fetch → link expansion) whose spans tile the evaluation.
//! * [`SlowQueryLog`] — a fixed-capacity buffer that retains the ids of
//!   the N worst requests by latency, so the outliers that matter for
//!   tuning survive aggregation.
//! * [`FlightRecorder`] — a per-lane bounded event journal (the "flight
//!   recorder") capturing every per-request serve-path decision —
//!   admit/shed, queueing, shard routing, evaluator passes and stage
//!   times, cache outcomes, single-flight roles, deadline expiry, a
//!   contained panic — tagged with a [`RequestId`] so one request's events
//!   reconstruct into a causal trace, exportable as Chrome trace-event
//!   JSON or a text timeline. On the serve path it is the only
//!   per-request record.
//! * [`Stopwatch`] — the one sanctioned wall-clock source. The `flixcheck`
//!   lint flags `Instant::now()` anywhere else in the workspace, so ad-hoc
//!   timing cannot bypass this layer. [`Deadline`] builds per-request time
//!   budgets on top of it for the serving path.
//!
//! Snapshots export through [`MetricsSnapshot::to_prometheus`], a
//! Prometheus-style text exposition.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Wall-clock measurement: the workspace's only `Instant::now` call site.
pub mod clock;
/// The flight recorder: per-lane event journals with causal request
/// stitching, Chrome-trace export, and text timelines.
pub mod journal;
/// Counters, gauges, histograms, the registry, and snapshot export.
pub mod registry;
/// The fixed-capacity worst-N slow-query log.
pub mod slowlog;
/// Per-query stage clocks: spans that tile one evaluation.
pub mod trace;

pub use clock::{Deadline, Stopwatch};
pub use journal::{
    EventKind, FlightRecorder, JournalEvent, JournalHandle, JournalRing, JournalSnapshot,
    RequestId, SHARD_MERGE, SHARD_NONE,
};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricCell, MetricId, MetricsRegistry,
    MetricsSnapshot,
};
pub use slowlog::{SlowQuery, SlowQueryLog};
pub use trace::{QueryTrace, Span, SpanStage, StageTotals};
