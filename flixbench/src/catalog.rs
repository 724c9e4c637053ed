//! The metric and workload catalogue: names, units, directions and the
//! bounds `compare` judges with. `BENCHMARK.json` repeats the end-to-end
//! rows; a test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, permanent once published.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The four workloads with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "linkchase",
        "uncapped hub//tag on MaximalPPO: the PEE pop loop and link expansion do the work; probes, cache, shards, serving and storage do none",
    ),
    (
        "labeljoin",
        "hub//tag within distance 4 on HOPI-5000: the HOPI label join does the work and the PEE little - the mirror image of linkchase",
    ),
    (
        "served",
        "skewed top-10 queries through shard routing and a result cache smaller than the working set; evaluation is the smallest part (the server's closed loop is per-layer)",
    ),
    (
        "rebuild",
        "the write side: build, persist, checkpoint, recover, then disk-resident queries through a pool that does not fit and one that does",
    ),
];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them in the untraced pass.
///
/// A bound is the issue's where ten runs with ten seeds spread (interquartile
/// range over median) by less than a third of it, and otherwise three times
/// the spread measured, capped at the driver's 25 %. The speed of the shared
/// 2-core host this was written on drifts by 12 % between 20 s windows
/// (a spin loop), and every timing inherits that: ten runs spread by 7-22 %
/// on `queries_per_s`, which therefore sits at the cap. The latency
/// percentiles and the cycle times spread as much or more; by the issue's
/// rule for what does not repeat they are per-layer metrics, under the same
/// names. See the README.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("index_mb", "MB", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("stored_mb", "MB", Lower, 0.01),
];

/// Per-layer metrics, prefixed with the module they measure. Reported in
/// the traced pass; a layer the workload bypasses reports 0.
pub const PER_LAYER: [Metric; 71] = [
    // The issue's end-to-end latency percentiles, medians over the untraced
    // rounds of the traced pass. Between runs p99 spreads by up to 22 %, and
    // the sub-microsecond p50 of `served` by up to 35 %.
    layer("query_p50_us", "us", Lower),
    layer("query_p99_us", "us", Lower),
    // flixserve::server — moves query_p50/p99_us, queries_per_s on `served`.
    layer("serve.queue_wait_p50_us", "us", Lower),
    layer("serve.queue_wait_p99_us", "us", Lower),
    layer("serve.service_p50_us", "us", Lower),
    layer("serve.handoff_p50_us", "us", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.timed_out", "count", Lower),
    layer("serve.collapsed", "count", Higher),
    // The closed loop itself: the issue's end-to-end values on `served`.
    // They spread by 15-100 % between runs on a shared 2-core host.
    layer("serve.loop_queries_per_s", "1/s", Higher),
    layer("serve.client_p50_us", "us", Lower),
    layer("serve.client_p99_us", "us", Lower),
    // flix::shard — moves queries_per_s on `served`.
    layer("shard.direct_frac", "frac", Higher),
    layer("shard.fanout", "count", Lower),
    layer("shard.escaped", "count", Lower),
    layer("shard.route_us", "us", Lower),
    // flix::cache — hits are the median on `served`, misses the tail.
    layer("cache.hit_frac", "frac", Higher),
    layer("cache.evictions", "count", Lower),
    layer("cache.rejected", "count", Lower),
    layer("cache.hit_us", "us", Lower),
    layer("cache.miss_overhead_us", "us", Lower),
    // flix::pee — moves queries_per_s / query_p50_us on `linkchase`.
    layer("pee.pops_per_query", "count", Lower),
    layer("pee.subsumed_per_query", "count", Lower),
    layer("pee.links_per_query", "count", Lower),
    layer("pee.rows_per_result", "count", Lower),
    layer("pee.us_per_pop", "us", Lower),
    layer("pee.queue_pop_us", "us", Lower),
    layer("pee.block_fetch_us", "us", Lower),
    layer("pee.link_expand_us", "us", Lower),
    // flix::meta::MetaIndex over ppo / hopi / apex — direct probe replays.
    layer("probe.ppo_ns_per_call", "ns", Lower),
    layer("probe.hopi_ns_per_call", "ns", Lower),
    layer("probe.hopi_rows_per_call", "count", Lower),
    layer("probe.hopi_ns_per_row", "ns", Lower),
    layer("probe.apex_ns_per_call", "ns", Lower),
    layer("probe.link_sources_ns_per_call", "ns", Lower),
    layer("probe.distance_ns", "ns", Lower),
    // flix::diskexec — moves queries_per_s / query_p99_us on `rebuild`.
    layer("diskexec.index_hit_frac", "frac", Higher),
    layer("diskexec.index_loads_per_query", "count", Lower),
    layer("diskexec.load_us", "us", Lower),
    // pagestore — moves persist_s, recover_s, stored_mb, cold queries_per_s.
    layer("pagestore.pool_hit_frac", "frac", Higher),
    layer("pagestore.pool_evictions", "count", Lower),
    layer("pagestore.reads_per_query", "count", Lower),
    layer("pagestore.warm_reads_per_query", "count", Lower),
    layer("pagestore.pages_written", "count", Lower),
    layer("pagestore.syncs", "count", Lower),
    layer("pagestore.wal_bytes_per_commit", "B", Lower),
    layer("pagestore.commit_ms", "ms", Lower),
    layer("pagestore.checkpoint_ms", "ms", Lower),
    layer("pagestore.open_ms", "ms", Lower),
    layer("pagestore.pages_replayed", "count", Lower),
    layer("pagestore.encode_mb_per_s", "MB/s", Higher),
    layer("pagestore.decode_mb_per_s", "MB/s", Higher),
    layer("pagestore.blob_get_cold_us", "us", Lower),
    layer("pagestore.blob_get_warm_us", "us", Lower),
    // One build → persist → recover cycle, median over the cycles. The
    // issue had these end-to-end on `rebuild`; they spread by 10-20 % between
    // runs, and end to end the cycle is timed inside `setup_s`.
    layer("build_s", "s", Lower),
    layer("persist_s", "s", Lower),
    layer("recover_s", "s", Lower),
    // flix::framework / flix::mdb / hopi::cover, read from BuildReport.
    layer("build.planning_ms", "ms", Lower),
    layer("build.indexing_ms", "ms", Lower),
    layer("build.wiring_ms", "ms", Lower),
    layer("build.hopi_rank_ms", "ms", Lower),
    layer("build.hopi_merge_ms", "ms", Lower),
    layer("build.hopi_cover_ms", "ms", Lower),
    layer("build.metas", "count", Lower),
    layer("build.runtime_links", "count", Lower),
    layer("build.threads", "count", Higher),
    // xmlgraph — moves setup_s.
    layer("xmlgraph.parse_mb_per_s", "MB/s", Higher),
    layer("xmlgraph.seal_ms", "ms", Lower),
    // The price of the traced pass itself.
    layer("obs.trace_overhead_frac", "frac", Lower),
    layer("obs.unattributed_frac", "frac", Lower),
    layer("obs.journal_dropped", "count", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn names_are_unique_and_well_formed(metrics: &[Metric]) {
        let mut seen = std::collections::BTreeSet::new();
        for m in metrics {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_is_well_formed() {
        names_are_unique_and_well_formed(&END_TO_END);
        names_are_unique_and_well_formed(&PER_LAYER);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    /// `BENCHMARK.json` (one directory up) must list exactly this
    /// catalogue: the driver reads that file, `compare` reads this one.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| -> Vec<json::Value> {
            doc.get(key)
                .and_then(json::Value::as_array)
                .expect("array")
                .to_vec()
        };
        let field = |row: &json::Value, key: &str| -> String {
            row.get(key)
                .and_then(json::Value::as_str)
                .expect("string field")
                .to_string()
        };
        let e2e = rows("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.name());
            assert_eq!(
                row.get("bound").and_then(json::Value::as_f64),
                Some(m.bound)
            );
        }
        let layers = rows("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), m.name);
            assert_eq!(field(row, "unit"), m.unit);
            assert_eq!(field(row, "better"), m.better.name());
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, (name, why)) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(row, "name"), *name);
            assert_eq!(field(row, "why"), *why);
        }
    }
}
