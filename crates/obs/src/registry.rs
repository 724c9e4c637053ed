//! The unified metrics registry.
//!
//! A [`MetricsRegistry`] maps [`MetricId`]s (name + label pairs) to the
//! metric handles components publish. Handles are cheap clones around an
//! `Arc`'d atomic cell, so the hot path — bumping a counter, setting a
//! gauge, recording a histogram sample — is a single wait-free atomic
//! operation with no lock in sight. The registry's own mutex is only taken
//! on the cold paths: publishing a component's cells
//! ([`MetricsRegistry::publish`]) and taking a snapshot.
//!
//! Histograms use log2 buckets (`le` bounds 1, 2, 4, … 2^38, +Inf): wide
//! enough dynamic range for microsecond latencies at 40 fixed `u64` cells
//! per histogram, and quantiles (p50/p95/p99) are derivable from any
//! snapshot by cumulative walk with within-bucket interpolation.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of histogram buckets: `le` bounds `2^0 … 2^(BUCKETS-2)` plus a
/// final catch-all (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A metric's identity: a name plus ordered `(key, value)` label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name (`snake_case`, Prometheus-style).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// A labelled metric id.
    pub fn with_labels(name: &str, labels: &[(&str, &str)]) -> Self {
        Self {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Renders the id in exposition syntax: `name` or `name{k="v",...}`,
    /// with `extra` label pairs appended (used for histogram `le` labels).
    pub fn render(&self, extra: &[(&str, &str)]) -> String {
        if self.labels.is_empty() && extra.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16);
        out.push_str(&self.name);
        out.push('{');
        let mut first = true;
        for (k, v) in self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra.iter().copied())
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
        out
    }
}

/// Escapes a label value for the text exposition (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes a string for embedding in JSON output.
pub fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 8);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (export it later with
    /// [`MetricsRegistry::publish`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic cell).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Self(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in microseconds,
/// sizes in bytes, …). Recording touches three atomic cells and nothing
/// else.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of a sample: the smallest `i` with `v <= 2^i`, capped at
/// the catch-all bucket.
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper `le` bound of bucket `i` (`None` for the catch-all bucket).
fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 < HISTOGRAM_BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let cells = &*self.0;
        cells.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        cells.count.fetch_add(1, Relaxed);
        cells.sum.fetch_add(v, Relaxed);
        cells.max.fetch_max(v, Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| cells.buckets[i].load(Relaxed)),
            count: cells.count.load(Relaxed),
            sum: cells.sum.load(Relaxed),
            max: cells.max.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (log2 buckets, last is the catch-all).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact, not bucket-rounded).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile `q` in `[0, 1]`: cumulative walk over the log2
    /// buckets with linear interpolation inside the winning bucket, clamped
    /// to the exact observed maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = bucket_bound(i).unwrap_or(self.max.max(lower + 1));
                let frac = (target - cum) as f64 / n as f64;
                let est = lower as f64 + frac * (upper - lower) as f64;
                return (est.round() as u64).min(self.max);
            }
            cum += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of all samples (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// What a published metric reads: a live cell owned by the publishing
/// component — its accumulated value is preserved and later snapshots see
/// later values — or a value copied at publish time.
#[derive(Debug, Clone, Copy)]
pub enum MetricCell<'a> {
    /// A component-owned counter.
    Counter(&'a Counter),
    /// A component-owned gauge.
    Gauge(&'a Gauge),
    /// A component-owned histogram.
    Histogram(&'a Histogram),
    /// A point-in-time value, exported as a gauge; publishing again
    /// overwrites it.
    Value(f64),
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<MetricId, Counter>,
    gauges: BTreeMap<MetricId, Gauge>,
    histograms: BTreeMap<MetricId, Histogram>,
    help: BTreeMap<String, String>,
}

/// The metric registry: components publish their cells, snapshot on demand.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one way a component exports metrics: each `(name, help, cell)`
    /// row is registered under `labels` together with its description, so
    /// a metric cannot be published undescribed. A live cell replaces any
    /// handle previously bound to the same name and labels. Descriptions
    /// surface as `# HELP` lines in [`MetricsSnapshot::to_prometheus`]; all
    /// label variants of a name share one, and the last one published wins.
    pub fn publish(&self, labels: &[(&str, &str)], rows: &[(&str, &str, MetricCell<'_>)]) {
        let mut inner = self.inner.lock();
        for &(name, help, cell) in rows {
            inner.help.insert(name.to_string(), help.to_string());
            let id = MetricId::with_labels(name, labels);
            match cell {
                MetricCell::Counter(counter) => {
                    inner.counters.insert(id, counter.clone());
                }
                MetricCell::Gauge(gauge) => {
                    inner.gauges.insert(id, gauge.clone());
                }
                MetricCell::Histogram(histogram) => {
                    inner.histograms.insert(id, histogram.clone());
                }
                MetricCell::Value(v) => inner.gauges.entry(id).or_default().set(v),
            }
        }
    }

    /// A point-in-time copy of every registered metric, sorted by id.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(id, c)| (id.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(id, g)| (id.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(id, h)| (id.clone(), h.snapshot()))
                .collect(),
            help: inner
                .help
                .iter()
                .map(|(name, text)| (name.clone(), text.clone()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by id.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauge values, sorted by id.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histogram snapshots, sorted by id.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
    /// Per-name descriptions registered via [`MetricsRegistry::publish`],
    /// sorted by name.
    pub help: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// The registered description for a metric name, if any.
    fn help_for(&self, name: &str) -> Option<&str> {
        self.help
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.help[i].1.as_str())
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `# HELP` line per described metric name and one `# TYPE` line
    /// per metric name, counters and gauges as single samples, histograms
    /// as cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        let header = |out: &mut String, snap: &Self, name: &str, kind: &str| {
            if let Some(help) = snap.help_for(name) {
                let escaped = help.replace('\\', "\\\\").replace('\n', "\\n");
                let _ = writeln!(out, "# HELP {name} {escaped}");
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
        };
        for (id, v) in &self.counters {
            if typed.insert(&id.name) {
                header(&mut out, self, &id.name, "counter");
            }
            let _ = writeln!(out, "{} {v}", id.render(&[]));
        }
        for (id, v) in &self.gauges {
            if typed.insert(&id.name) {
                header(&mut out, self, &id.name, "gauge");
            }
            let _ = writeln!(out, "{} {v}", id.render(&[]));
        }
        for (id, h) in &self.histograms {
            if typed.insert(&id.name) {
                header(&mut out, self, &id.name, "histogram");
            }
            let bucket_id = MetricId {
                name: format!("{}_bucket", id.name),
                labels: id.labels.clone(),
            };
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cum += n;
                // Elide empty log2 buckets (other than +Inf) to keep the
                // exposition compact; cumulative values stay correct.
                if n == 0 && bucket_bound(i).is_some() {
                    continue;
                }
                let le = match bucket_bound(i) {
                    Some(b) => b.to_string(),
                    None => "+Inf".to_string(),
                };
                let _ = writeln!(out, "{} {cum}", bucket_id.render(&[("le", &le)]));
            }
            let _ = writeln!(out, "{}_sum{} {}", id.name, render_label_block(id), h.sum);
            let _ = writeln!(
                out,
                "{}_count{} {}",
                id.name,
                render_label_block(id),
                h.count
            );
        }
        out
    }
}

/// Renders only the `{...}` label block of an id (empty string if none).
fn render_label_block(id: &MetricId) -> String {
    let rendered = id.render(&[]);
    rendered[id.name.len()..].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = Counter::new();
        reg.publish(
            &[],
            &[("requests_total", "Requests.", MetricCell::Counter(&c))],
        );
        c.inc();
        c.add(4);
        // Different labels are different metrics; the same labels, the same.
        reg.publish(
            &[("kind", "avg")],
            &[("load", "Load.", MetricCell::Value(1.0))],
        );
        reg.publish(
            &[("kind", "avg")],
            &[("load", "Load.", MetricCell::Value(2.5))],
        );
        reg.publish(
            &[("kind", "max")],
            &[("load", "Load.", MetricCell::Value(9.0))],
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].1, 5);
        let loads: Vec<f64> = snap.gauges.iter().map(|(_, v)| *v).collect();
        assert_eq!(loads, vec![2.5, 9.0]);
    }

    #[test]
    fn bind_counter_preserves_accumulated_value() {
        let owned = Counter::new();
        owned.add(7);
        let reg = MetricsRegistry::new();
        let row = ("pool_hits_total", "Pool hits.", MetricCell::Counter(&owned));
        reg.publish(&[], &[row]);
        owned.inc();
        assert_eq!(reg.snapshot().counters[0].1, 8);
    }

    #[test]
    fn bind_gauge_and_histogram_share_cells() {
        let reg = MetricsRegistry::new();
        let g = Gauge::new();
        g.set(3.0);
        reg.publish(&[], &[("depth", "Queue depth.", MetricCell::Gauge(&g))]);
        g.set(5.0);
        assert_eq!(reg.snapshot().gauges[0].1, 5.0);

        let h = Histogram::new();
        h.record(42);
        reg.publish(
            &[],
            &[("lat_micros", "Latency.", MetricCell::Histogram(&h))],
        );
        h.record(7);
        assert_eq!(reg.snapshot().histograms[0].1.count, 2);
    }

    #[test]
    fn bucket_mapping_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1 << 20), 20);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_from_snapshot() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 100);
        assert_eq!(snap.sum, 5050);
        let p50 = snap.p50();
        // log2 buckets: the median of 1..=100 falls in bucket (32, 64];
        // interpolation keeps it in a sane band around the true 50.
        assert!((33..=64).contains(&p50), "p50 = {p50}");
        assert!(snap.p95() >= p50);
        assert!(snap.p99() >= snap.p95());
        assert!(snap.quantile(1.0) <= 100);
        assert_eq!(snap.quantile(0.0).min(1), 1);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn max_is_exact_not_bucket_rounded() {
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.snapshot().max, 1000);
        assert!(h.snapshot().quantile(1.0) <= 1000);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let reg = MetricsRegistry::new();
        let hits = Counter::new();
        hits.add(3);
        let h = Histogram::new();
        for v in [1u64, 2, 100, 5000] {
            h.record(v);
        }
        reg.publish(
            &[("cache", "query")],
            &[("hits_total", "Hits.", MetricCell::Counter(&hits))],
        );
        reg.publish(&[], &[("temperature", "Heat.", MetricCell::Value(1.5))]);
        reg.publish(
            &[("config", "naive")],
            &[("latency_micros", "Latency.", MetricCell::Histogram(&h))],
        );
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE hits_total counter"), "{text}");
        assert!(text.contains("hits_total{cache=\"query\"} 3"), "{text}");
        assert!(text.contains("# TYPE temperature gauge"), "{text}");
        assert!(text.contains("# TYPE latency_micros histogram"), "{text}");
        assert!(
            text.contains("latency_micros_bucket{config=\"naive\",le=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("latency_micros_bucket{config=\"naive\",le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("latency_micros_sum{config=\"naive\"} 5103"),
            "{text}"
        );
        assert!(
            text.contains("latency_micros_count{config=\"naive\"} 4"),
            "{text}"
        );

        // Cumulative bucket counts never decrease and end at _count.
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("latency_micros_bucket") {
                let val: u64 = rest
                    .rsplit(' ')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                assert!(val >= last, "bucket series must be cumulative: {text}");
                last = val;
                if rest.contains("+Inf") {
                    inf = Some(val);
                }
            }
        }
        assert_eq!(inf, Some(4), "+Inf bucket equals the sample count");

        // Every non-comment line is `name_or_labels value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            assert!(!name.is_empty(), "malformed line {line:?}");
            assert!(value.parse::<f64>().is_ok(), "malformed value in {line:?}");
        }
    }

    #[test]
    fn describe_emits_help_lines_before_type() {
        let reg = MetricsRegistry::new();
        let hits = Counter::new();
        let help_hits = "Cache lookups answered from a stored result.";
        reg.publish(
            &[("cache", "query")],
            &[("hits_total", help_hits, MetricCell::Counter(&hits))],
        );
        let help = "Current queue \\ depth\nacross workers.";
        reg.publish(&[], &[("depth", help, MetricCell::Value(2.0))]);
        let text = reg.snapshot().to_prometheus();
        assert!(
            text.contains("# HELP hits_total Cache lookups answered from a stored result."),
            "{text}"
        );
        // Help text is escaped for the exposition format.
        assert!(
            text.contains("# HELP depth Current queue \\\\ depth\\nacross workers."),
            "{text}"
        );
        let help_pos = text.find("# HELP hits_total").unwrap();
        let type_pos = text.find("# TYPE hits_total").unwrap();
        assert!(help_pos < type_pos, "{text}");
        // All label variants of a name share one HELP line.
        reg.publish(
            &[("cache", "plan")],
            &[("hits_total", help_hits, MetricCell::Counter(&hits))],
        );
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text.matches("# HELP hits_total").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE hits_total").count(), 1, "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let id = MetricId::with_labels("m", &[("q", "a\"b\\c\nd")]);
        let rendered = id.render(&[]);
        assert_eq!(rendered, "m{q=\"a\\\"b\\\\c\\nd\"}");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
