//! The four workloads: set-up, the timed part of either pass, and the
//! assembly of every catalogued metric.
//!
//! The program is measured from outside only — by timing calls into each
//! layer's public functions and reading the stats those functions already
//! return. The end-to-end pass runs untraced; the traced pass interleaves
//! untraced and traced rounds of the same traffic (the difference is the
//! tracing overhead) and then runs the per-layer measurements.

use crate::inputs::same_ends;
use crate::layers;
use crate::lifecycle::{self, Cycle};
use crate::measure::{run_closed_loop, run_serial, LoopTarget, Measured, Plan};
use crate::prepare::{prepare, Opts, Prepared, Workload, OUT_DIR};
use crate::report::{parse_result_file, pass_name, RunDoc};
use crate::spans::{Recorder, ROOT};
use crate::stats::{percentile, Summary};
use flix::{DiskFlix, Flix, ShardedFlix};
use flixobs::{QueryTrace, SpanStage, Stopwatch};
use flixserve::{FlixServer, Request, ServeConfig};
use pagestore::{BlobStore, BufferPool, DiskManager, FileDisk};
use std::path::Path;
use std::sync::Arc;

/// Shards and per-shard result-cache entries of the `served` backend: the
/// 4,096 distinct queries exceed the 4 × 256 entries on purpose.
const SHARDS: usize = 4;
const CACHE_PER_SHARD: usize = 256;
/// Server workers of `served`.
const WORKERS: usize = 2;
/// Journal events kept per lane by the traced server.
const JOURNAL_CAPACITY: usize = 1 << 16;
/// Pool frames / index-cache slots of the disk phases of `rebuild`: one
/// that does not fit the 31 meta documents / ~2,300 pages, one that does.
const COLD_POOL: (usize, usize) = (128, 8);
const WARM_POOL: (usize, usize) = (4_096, 256);
/// Spans the traced pass keeps in memory / writes to the trace file.
const SPAN_CAPACITY: usize = 400_000;
const SPANS_WRITTEN: usize = 50_000;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn secs(sw: &Stopwatch) -> f64 {
    sw.elapsed().as_secs_f64()
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        single_flight: false,
        ..ServeConfig::default()
    }
}

/// One completed set-up: inputs plus, for `served`, the serving backend:
/// shards → caches → MaximalPPO.
struct Ready {
    p: Prepared,
    served: Option<Arc<ShardedFlix>>,
}

fn set_up(opts: &Opts) -> Result<Ready, String> {
    let mut p = prepare(opts)?;
    let served = (opts.workload == Workload::Served).then(|| {
        let sharded =
            Arc::new(ShardedFlix::new(p.flix.clone(), SHARDS).with_caches(CACHE_PER_SHARD));
        // Sharded answers must equal the in-memory answers; the cached
        // and served paths are checked on every response while timing.
        for (q, want) in p.queries.iter().zip(&p.expected) {
            if sharded
                .find_descendants_outcome(q.start, q.tag, &q.opts)
                .results
                != **want
            {
                p.wrong += 1;
            }
        }
        sharded
    });
    Ok(Ready { p, served })
}

/// The fingerprint pinned for these inputs in `flixbench/baseline.json`
/// (read relative to the working directory), if there is one.
fn pinned_fingerprint(opts: &Opts) -> Option<String> {
    let text = std::fs::read_to_string("flixbench/baseline.json").ok()?;
    let runs = parse_result_file(&text).ok()?;
    runs.into_iter()
        .find(|r| {
            r.workload == opts.workload.name()
                && r.params == (opts.seed, opts.corpus_seed, opts.scale())
        })
        .map(|r| r.fingerprint)
}

/// Evaluator stage times summed over traced evaluations.
#[derive(Debug, Clone, Copy, Default)]
struct PeeTimes {
    queries: u64,
    pops: u64,
    total_ns: u64,
    stage_us: [u64; 3],
}

impl PeeTimes {
    fn values(&self) -> layers::Values {
        let per_query = |us: u64| us as f64 / self.queries.max(1) as f64;
        vec![
            (
                "pee.us_per_pop",
                self.total_ns as f64 / 1e3 / self.pops.max(1) as f64,
            ),
            ("pee.queue_pop_us", per_query(self.stage_us[0])),
            ("pee.block_fetch_us", per_query(self.stage_us[1])),
            ("pee.link_expand_us", per_query(self.stage_us[2])),
        ]
    }
}

/// Evaluates query `k` through the program's own opt-in tracing and, with
/// a recorder, wraps it in spans: `client` → `pee` → the three stage
/// totals of the `QueryTrace`, laid end to end from the start of the call
/// (their durations are measured, their positions are not). Returns
/// whether the whole answer equals the expected one.
fn traced_query(
    p: &Prepared,
    k: usize,
    request: usize,
    times: &mut PeeTimes,
    rec: Option<&mut Recorder>,
) -> bool {
    let q = &p.queries[k];
    let mut trace = QueryTrace::with_capacity("q", 0);
    let clock = Stopwatch::start();
    let t0 = rec.as_deref().map_or(0, Recorder::now);
    let (results, stats) = p
        .flix
        .find_descendants_with_trace(q.start, q.tag, &q.opts, &mut trace);
    let elapsed_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
    times.queries += 1;
    times.pops += stats.entries_popped as u64;
    times.total_ns += elapsed_ns;
    for (slot, stage) in SpanStage::ALL.into_iter().enumerate() {
        times.stage_us[slot] += trace.stage_totals(stage).micros;
    }
    if let Some(rec) = rec {
        if rec.reserve(5) {
            let id = request as u32;
            let t1 = t0 + elapsed_ns;
            let client = rec.push("client", t0, t1, ROOT, id);
            let pee = rec.push("pee", t0, t1, client, id);
            let mut at = t0;
            for stage in SpanStage::ALL {
                let end = at + trace.stage_totals(stage).micros * 1_000;
                rec.push(stage.name(), at, end, pee, id);
                at = end;
            }
        }
    }
    results == *p.expected[k]
}

/// The latency percentiles of the untraced rounds. They are the issue's
/// end-to-end `query_p50_us` / `query_p99_us`, reported per layer because
/// they do not repeat within any bound the driver allows (see the README).
fn latency_layers(doc: &mut RunDoc, untraced: &Measured) {
    doc.set("query_p50_us", untraced.p50_us());
    doc.set("query_p99_us", untraced.p99_us());
}

/// `1 − traced / untraced` throughput over the interleaved rounds.
fn overhead(untraced: &Measured, traced: &Measured) -> f64 {
    let base = untraced.per_s().value;
    if base == 0.0 {
        0.0
    } else {
        1.0 - traced.per_s().value / base
    }
}

/// Three interleaved pairs of one untraced and one traced round, after one
/// warm-up of each kind. `round(traced, plan)` runs one plan's worth.
fn interleaved(
    seconds: f64,
    mut round: impl FnMut(bool, &Plan) -> Measured,
) -> (Measured, Measured) {
    let warm = Plan {
        warmup_s: seconds / 40.0,
        rounds: 0,
        round_s: 0.0,
    };
    let one = Plan {
        warmup_s: 0.0,
        rounds: 1,
        round_s: seconds / 12.0,
    };
    let (mut plain, mut traced) = (round(false, &warm), round(true, &warm));
    for _ in 0..3 {
        plain.absorb(round(false, &one));
        traced.absorb(round(true, &one));
    }
    (plain, traced)
}

/// The in-process workloads: `linkchase` and `labeljoin`.
fn direct(
    opts: &Opts,
    p: &Prepared,
    doc: &mut RunDoc,
    rec: &mut Recorder,
) -> Result<Measured, String> {
    let n = p.queries.len();
    let mut cursor = 0usize;
    let untraced_op = |i: usize| {
        let k = i % n;
        let q = &p.queries[k];
        let o = p.flix.find_descendants_outcome(q.start, q.tag, &q.opts);
        !o.timed_out && same_ends(&o.results, &p.expected[k])
    };
    if !opts.trace {
        return Ok(run_serial(
            &Plan::end_to_end(opts.seconds),
            n,
            &mut cursor,
            untraced_op,
        ));
    }
    let mut times = PeeTimes::default();
    let (plain, traced) = interleaved(opts.seconds, |with_trace, plan| {
        if with_trace {
            run_serial(plan, n, &mut cursor, |i| {
                traced_query(p, i % n, i, &mut times, Some(&mut *rec))
            })
        } else {
            run_serial(plan, n, &mut cursor, untraced_op)
        }
    });
    doc.set_all(times.values());
    doc.set_all([("obs.trace_overhead_frac", overhead(&plain, &traced))]);
    latency_layers(doc, &plain);
    let mut all = plain;
    all.absorb(traced);
    Ok(all)
}

/// Client-side view of the serving layer, one sample per reply.
#[derive(Default)]
struct ServeSamples {
    queue_us: Vec<u64>,
    service_us: Vec<u64>,
    handoff_ns: Vec<u64>,
}

/// `served`. End to end: the call a server worker makes for a request —
/// `ShardedFlix::find_descendants_deadline`, routing → result cache →
/// evaluation on a miss — over the request sequence, from one thread. The
/// closed loop through `FlixServer` runs in the traced pass only and
/// yields per-layer values: with three threads on two shared virtual CPUs
/// its rate is set by how fast the hypervisor wakes an idle one, and does
/// not repeat (see the README).
fn served(
    opts: &Opts,
    p: &Prepared,
    sharded: &Arc<ShardedFlix>,
    doc: &mut RunDoc,
    rec: &mut Recorder,
) -> Result<Measured, String> {
    let len = p.sequence.len();
    let query_of = |i: usize| p.sequence[i % len] as usize;
    let mut cursor = 0usize;
    let in_process = |i: usize| {
        let k = query_of(i);
        let q = &p.queries[k];
        let (results, timed_out) = sharded.find_descendants_deadline(q.start, q.tag, &q.opts);
        !timed_out && same_ends(&results, &p.expected[k])
    };
    if !opts.trace {
        let plan = Plan::end_to_end(opts.seconds);
        return Ok(run_serial(&plan, len, &mut cursor, in_process));
    }
    // The end-to-end traffic first, briefly, for its latency percentiles.
    let brief = Plan {
        warmup_s: opts.seconds / 40.0,
        rounds: 3,
        round_s: opts.seconds / 24.0,
    };
    let mut all = run_serial(&brief, len, &mut cursor, in_process);
    latency_layers(doc, &all);

    let request = |i: usize| {
        let q = &p.queries[query_of(i)];
        Request::descendants(q.start, q.tag, q.opts)
    };
    let server = FlixServer::start(sharded.clone(), serve_config());
    // Replies are stamped on the recorder's clock, so the spans of all
    // rounds share one time base.
    let clock = *rec.clock();
    let target = LoopTarget {
        server: &server,
        window: doc.window_nproc.0,
        clock: &clock,
    };
    let traced_server = FlixServer::start_traced(sharded.clone(), serve_config(), JOURNAL_CAPACITY);
    let mut samples = ServeSamples::default();
    let (routed0, cache0) = (sharded.stats(), sharded.cache_stats());
    let (plain, traced) = interleaved(opts.seconds, |with_trace, plan| {
        let server = if with_trace { &traced_server } else { &server };
        run_closed_loop(
            plan,
            &LoopTarget { server, ..target },
            &mut cursor,
            request,
            |c| {
                let Ok(r) = c.reply else {
                    return false;
                };
                let client_ns = c.completed_ns - c.submitted_ns;
                if with_trace {
                    // The benchmark's spans around the server's own account
                    // of the request; what is left of `client` is the handoff.
                    if rec.reserve(3) {
                        let id = c.request as u32;
                        let client = rec.push("client", c.submitted_ns, c.completed_ns, ROOT, id);
                        let dequeued = c.submitted_ns + r.queue_micros * 1_000;
                        rec.push("serve.queue_wait", c.submitted_ns, dequeued, client, id);
                        let done = c.submitted_ns + r.total_micros * 1_000;
                        rec.push("serve.service", dequeued, done, client, id);
                    }
                } else {
                    samples.queue_us.push(r.queue_micros);
                    samples
                        .service_us
                        .push(r.total_micros.saturating_sub(r.queue_micros));
                    samples
                        .handoff_ns
                        .push(client_ns.saturating_sub(r.total_micros * 1_000));
                }
                !r.timed_out && *r.results == *p.expected[query_of(c.request)]
            },
        )
    });
    let (routed1, cache1) = (sharded.stats(), sharded.cache_stats());

    for v in [
        &mut samples.queue_us,
        &mut samples.service_us,
        &mut samples.handoff_ns,
    ] {
        v.sort_unstable();
    }
    let stats = [server.stats(), traced_server.stats()];
    let routed = (routed1.direct + routed1.fanout + routed1.escaped)
        - (routed0.direct + routed0.fanout + routed0.escaped);
    doc.set_all([
        (
            "serve.queue_wait_p50_us",
            percentile(&samples.queue_us, 0.50) as f64,
        ),
        (
            "serve.queue_wait_p99_us",
            percentile(&samples.queue_us, 0.99) as f64,
        ),
        (
            "serve.service_p50_us",
            percentile(&samples.service_us, 0.50) as f64,
        ),
        (
            "serve.handoff_p50_us",
            percentile(&samples.handoff_ns, 0.50) as f64 / 1e3,
        ),
        (
            "serve.shed",
            stats.iter().map(|s| s.shed).sum::<u64>() as f64,
        ),
        (
            "serve.timed_out",
            stats.iter().map(|s| s.timed_out).sum::<u64>() as f64,
        ),
        (
            "serve.collapsed",
            stats.iter().map(|s| s.collapsed).sum::<u64>() as f64,
        ),
        (
            "shard.direct_frac",
            (routed1.direct - routed0.direct) as f64 / routed.max(1) as f64,
        ),
        ("shard.fanout", (routed1.fanout - routed0.fanout) as f64),
        ("shard.escaped", (routed1.escaped - routed0.escaped) as f64),
        (
            "obs.journal_dropped",
            traced_server.recorder().map_or(0, |r| r.events_dropped()) as f64,
        ),
        ("obs.trace_overhead_frac", overhead(&plain, &traced)),
    ]);
    if let (Some(c0), Some(c1)) = (cache0, cache1) {
        let lookups = (c1.hits + c1.misses) - (c0.hits + c0.misses);
        doc.set_all([
            (
                "cache.hit_frac",
                (c1.hits - c0.hits) as f64 / lookups.max(1) as f64,
            ),
            ("cache.evictions", (c1.evictions - c0.evictions) as f64),
            ("cache.rejected", (c1.rejected - c0.rejected) as f64),
        ]);
    }
    doc.notes.push(format!(
        "serve.* percentiles over {} replies of the untraced server",
        samples.queue_us.len()
    ));
    server.shutdown();
    traced_server.shutdown();
    doc.set("serve.loop_queries_per_s", plain.per_s());
    doc.set("serve.client_p50_us", plain.p50_us());
    doc.set("serve.client_p99_us", plain.p99_us());
    doc.set_all(layers::shard_and_cache(p, SHARDS, opts.seconds / 10.0));
    all.absorb(plain);
    all.absorb(traced);
    Ok(all)
}

/// A disk-resident engine over its own page file, with the handles its
/// I/O counters are read from.
struct DiskStack {
    dflix: DiskFlix,
    pool: Arc<BufferPool>,
    disk: Arc<FileDisk>,
}

fn open_disk(flix: &Flix, dir: &Path, pool: (usize, usize)) -> Result<DiskStack, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("disk scratch directory: {e}"))?;
    let path = dir.join(format!("disk-{}.db", pool.0));
    let disk = Arc::new(FileDisk::open(&path).map_err(|e| format!("disk file: {e}"))?);
    let frames = Arc::new(BufferPool::new(
        disk.clone() as Arc<dyn DiskManager>,
        pool.0,
    ));
    let dflix = DiskFlix::save_and_open(flix, BlobStore::new(frames.clone()), "fw", pool.1)?;
    frames.flush_all().map_err(|e| format!("disk flush: {e}"))?;
    Ok(DiskStack {
        dflix,
        pool: frames,
        disk,
    })
}

/// `rebuild`: disk-resident hub top-10 queries through a pool that does not
/// fit and one that does; the traced pass first runs more build → persist →
/// recover cycles, each step a span. (The end-to-end pass times the cycle
/// as part of `setup_s` only: `build_s`, `persist_s` and `recover_s` are
/// per-layer metrics.) The query rounds it returns are the cold phase.
fn rebuild(
    opts: &Opts,
    p: &Prepared,
    cycles: &mut Vec<Cycle>,
    doc: &mut RunDoc,
    rec: &mut Recorder,
) -> Result<Measured, String> {
    let n = p.queries.len();
    let t = opts.seconds;
    let mut checks = Measured::default();

    // Cycles for three tenths of the time, at least two. Every recovered
    // framework must answer like the in-memory one.
    let sw = Stopwatch::start();
    let dir = opts.scratch("cycle");
    let mut own = 0u32;
    while opts.trace && (own < 2 || secs(&sw) < t * 0.3) {
        let (_, recovered, cycle) =
            lifecycle::cycle(&p.cg, opts.workload.config(), &dir, Some(&mut *rec), own)?;
        cycles.push(cycle);
        own += 1;
        for (q, want) in p.queries.iter().zip(&p.expected) {
            checks.attempted += 1;
            checks.failed +=
                u64::from(recovered.find_descendants(q.start, q.tag, &q.opts) != **want);
        }
    }

    let scratch = opts.scratch("disk");
    let cold = open_disk(&p.flix, &scratch, COLD_POOL)?;
    let mut cursor = 0usize;
    let plain_op = |i: usize| {
        let k = i % n;
        let q = &p.queries[k];
        match cold.dflix.find_descendants(q.start, q.tag, &q.opts) {
            Ok(results) => same_ends(&results, &p.expected[k]),
            Err(_) => false,
        }
    };
    let (pool0, reads0, index0) = (
        cold.pool.pool_stats(),
        cold.disk.stats().reads,
        cold.dflix.stats(),
    );
    let (mut measured, traced) = if opts.trace {
        let (plain, traced) = interleaved(t * 0.6, |with_spans, plan| {
            if !with_spans {
                return run_serial(plan, n, &mut cursor, plain_op);
            }
            run_serial(plan, n, &mut cursor, |i| {
                let k = i % n;
                let q = &p.queries[k];
                let t0 = rec.now();
                let got = cold.dflix.find_descendants(q.start, q.tag, &q.opts);
                let t1 = rec.now();
                if rec.reserve(2) {
                    let client = rec.push("client", t0, t1, ROOT, i as u32);
                    rec.push("diskexec", t0, t1, client, i as u32);
                }
                got.is_ok_and(|results| results == *p.expected[k])
            })
        });
        (plain, Some(traced))
    } else {
        let plan = Plan::end_to_end(t * 0.9);
        (run_serial(&plan, n, &mut cursor, plain_op), None)
    };
    let (pool1, reads1, index1) = (
        cold.pool.pool_stats(),
        cold.disk.stats().reads,
        cold.dflix.stats(),
    );
    let cold_queries =
        (measured.attempted + traced.as_ref().map_or(0, |m| m.attempted)).max(1) as f64;

    // Warm phase: every page and every index fits; after one touching
    // pass nothing is read again.
    let warm = open_disk(&p.flix, &scratch, WARM_POOL)?;
    let mut warm_cursor = 0usize;
    let warm_op = |i: usize| {
        let k = i % n;
        let q = &p.queries[k];
        warm.dflix
            .find_descendants(q.start, q.tag, &q.opts)
            .is_ok_and(|results| same_ends(&results, &p.expected[k]))
    };
    for i in 0..n {
        checks.attempted += 1;
        checks.failed += u64::from(!warm_op(i));
    }
    let warm_reads0 = warm.disk.stats().reads;
    let warm_plan = Plan {
        warmup_s: 0.0,
        rounds: 1,
        round_s: t * 0.05,
    };
    let warm_run = run_serial(&warm_plan, n, &mut warm_cursor, warm_op);
    let warm_reads = warm.disk.stats().reads - warm_reads0;

    if opts.trace {
        let pool_lookups = (pool1.hits + pool1.misses) - (pool0.hits + pool0.misses);
        let index_lookups =
            (index1.cache_hits + index1.cache_misses) - (index0.cache_hits + index0.cache_misses);
        doc.set_all([
            (
                "diskexec.index_hit_frac",
                (index1.cache_hits - index0.cache_hits) as f64 / index_lookups.max(1) as f64,
            ),
            (
                "diskexec.index_loads_per_query",
                (index1.cache_misses - index0.cache_misses) as f64 / cold_queries,
            ),
            (
                "pagestore.pool_hit_frac",
                (pool1.hits - pool0.hits) as f64 / pool_lookups.max(1) as f64,
            ),
            (
                "pagestore.pool_evictions",
                (pool1.evictions - pool0.evictions) as f64,
            ),
            (
                "pagestore.reads_per_query",
                (reads1 - reads0) as f64 / cold_queries,
            ),
            (
                "pagestore.warm_reads_per_query",
                warm_reads as f64 / warm_run.attempted.max(1) as f64,
            ),
        ]);
        if let Some(traced) = &traced {
            doc.set_all([("obs.trace_overhead_frac", overhead(&measured, traced))]);
        }
        latency_layers(doc, &measured);
    }
    doc.notes.push(format!(
        "warm pool: {:.0} queries/s, {} page reads over {} queries",
        warm_run.per_s().value,
        warm_reads,
        warm_run.attempted
    ));
    // Only the cold rounds are query measurements; the rest are checks.
    measured.attempted += checks.attempted + warm_run.attempted;
    measured.failed += checks.failed + warm_run.failed;
    if let Some(traced) = traced {
        measured.absorb(traced);
    }
    Ok(measured)
}

/// Per-layer values every workload reports: evaluator counts from set-up,
/// evaluator stage times (measured here for workloads whose main traffic
/// does not go through `find_descendants_with_trace`), the probe replays,
/// codec / blob / parser timings, the build report and the cycle's I/O.
fn common_layers(
    opts: &Opts,
    p: &Prepared,
    cycles: &[Cycle],
    doc: &mut RunDoc,
) -> Result<(), String> {
    let budget = opts.seconds / 40.0;
    let queries = p.queries.len() as f64;
    let results: usize = p.expected.iter().map(|a| a.len()).sum();
    doc.set_all([
        ("pee.pops_per_query", p.pee.entries_popped as f64 / queries),
        (
            "pee.subsumed_per_query",
            p.pee.entries_subsumed as f64 / queries,
        ),
        ("pee.links_per_query", p.pee.links_expanded as f64 / queries),
        (
            "pee.rows_per_result",
            p.pee.block_results_scanned as f64 / results.max(1) as f64,
        ),
    ]);
    if !doc.metrics.contains_key("pee.us_per_pop") {
        let mut times = PeeTimes::default();
        let mut wrong = 0u64;
        for k in 0..p.queries.len() {
            wrong += u64::from(!traced_query(p, k, k, &mut times, None));
        }
        doc.attempted += p.queries.len() as u64;
        doc.failed += wrong;
        doc.set_all(times.values());
    }
    doc.set_all(layers::probes(p, budget));
    doc.set_all(layers::codec_and_blobs(
        &p.flix,
        &opts.scratch("blobs"),
        budget,
    )?);
    doc.set_all(layers::xml_parse(p, budget)?);

    let report = p.flix.build_report();
    let hopi = report.hopi_stage_totals();
    let ms = |micros: u64| micros as f64 / 1e3;
    doc.set_all([
        ("build.planning_ms", ms(report.planning_micros)),
        ("build.indexing_ms", ms(report.indexing_micros)),
        ("build.wiring_ms", ms(report.wiring_micros)),
        (
            "build.hopi_rank_ms",
            hopi.as_ref().map_or(0.0, |s| ms(s.rank_micros)),
        ),
        (
            "build.hopi_merge_ms",
            hopi.as_ref().map_or(0.0, |s| ms(s.merge_micros)),
        ),
        (
            "build.hopi_cover_ms",
            hopi.as_ref().map_or(0.0, |s| ms(s.cover_micros)),
        ),
        ("build.metas", report.per_meta.len() as f64),
        ("build.runtime_links", report.runtime_links as f64),
        ("build.threads", report.threads as f64),
        ("xmlgraph.seal_ms", p.seal_ms),
    ]);
    let over = |pick| over_cycles(cycles, pick);
    doc.set("build_s", over(|c| c.build_s));
    doc.set("persist_s", over(|c| c.persist_s));
    doc.set("recover_s", over(|c| c.recover_s));
    doc.set("pagestore.commit_ms", over(|c| c.commit_ms));
    doc.set("pagestore.checkpoint_ms", over(|c| c.checkpoint_ms));
    doc.set("pagestore.open_ms", over(|c| c.open_ms));
    doc.set("pagestore.pages_written", over(|c| c.pages_written as f64));
    doc.set("pagestore.syncs", over(|c| c.syncs as f64));
    doc.set(
        "pagestore.wal_bytes_per_commit",
        over(|c| c.wal_bytes_per_commit),
    );
    doc.set(
        "pagestore.pages_replayed",
        over(|c| c.pages_replayed as f64),
    );
    Ok(())
}

/// The median of one timing over the cycles.
fn over_cycles(cycles: &[Cycle], pick: fn(&Cycle) -> f64) -> Summary {
    Summary::median_of(&cycles.iter().map(pick).collect::<Vec<_>>())
}

/// Removes this process's scratch directories; failures only cost disk.
fn clean_scratch(opts: &Opts) {
    for what in ["setup", "cycle", "disk", "blobs"] {
        let dir = opts.scratch(what);
        if dir.exists() {
            // Scratch files of a finished run: a leftover directory costs
            // disk, never a result.
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Runs one `(workload, pass)`: set-up, the timed part on it, set-up again
/// (medians reported), the layer measurements of the traced pass, and the result
/// files under [`OUT_DIR`].
pub fn run(opts: &Opts) -> Result<RunDoc, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let result = run_inner(opts);
    clean_scratch(opts);
    result
}

fn run_inner(opts: &Opts) -> Result<RunDoc, String> {
    let sw = Stopwatch::start();
    let Ready { p, served: sharded } = set_up(opts)?;
    let mut setup_s = vec![secs(&sw)];
    let mut cycles = vec![p.cycle];
    let fingerprint = p.fingerprint.render();
    if let Some(pinned) = pinned_fingerprint(opts) {
        if pinned != fingerprint {
            return Err(format!(
                "inputs changed: baseline.json pins\n  {pinned}\nfor these parameters, this run generated\n  {fingerprint}\n\
                 re-record the baseline if the change to the generators or samplers is intended"
            ));
        }
    }
    let mut doc = RunDoc::new(opts, nproc().min(4), nproc(), fingerprint);
    let mut rec = Recorder::with_capacity(if opts.trace { SPAN_CAPACITY } else { 0 });

    let measured = match (opts.workload, &sharded) {
        (Workload::Served, Some(sharded)) => served(opts, &p, sharded, &mut doc, &mut rec)?,
        (Workload::Rebuild, _) => rebuild(opts, &p, &mut cycles, &mut doc, &mut rec)?,
        _ => direct(opts, &p, &mut doc, &mut rec)?,
    };
    doc.attempted += measured.attempted;
    doc.failed += measured.failed + p.wrong as u64;
    // One set-up and the timed part: what a user of the program holds. The
    // repetitions below are the benchmark's, and would add their garbage.
    let peak_rss = peak_rss_mb()?;
    // Set-up again, for the medians of `setup_s` and of the cycle times.
    for _ in 1..opts.setup_reps() {
        let sw = Stopwatch::start();
        let again = set_up(opts)?;
        setup_s.push(secs(&sw));
        cycles.push(again.p.cycle);
        doc.failed += again.p.wrong as u64;
    }
    doc.notes.push(format!(
        "{} distinct queries; {} measured operations in {} rounds; {} cycles",
        p.queries.len(),
        measured.measured_ops(),
        measured.rounds.len(),
        cycles.len()
    ));

    doc.notes.push(format!(
        "per-round queries/s / p50 us / p99 us{}: {}",
        if opts.trace {
            " (untraced rounds, then traced rounds; `served`: in-process rounds first)"
        } else {
            ""
        },
        measured
            .rounds
            .iter()
            .map(|r| format!("{:.0}/{:.1}/{:.0}", r.per_s, r.p50_us, r.p99_us))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    doc.notes.push(format!(
        "per-cycle build/persist/recover ms: {}",
        cycles
            .iter()
            .map(|c| format!(
                "{:.0}/{:.0}/{:.0}",
                c.build_s * 1e3,
                c.persist_s * 1e3,
                c.recover_s * 1e3
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if opts.trace {
        common_layers(opts, &p, &cycles, &mut doc)?;
        doc.set_all([("obs.unattributed_frac", rec.unattributed_frac())]);
        let path = Path::new(OUT_DIR).join(format!("trace-{}.json", opts.workload.name()));
        // flixcheck: allow(unsynced-write): a trace file is a report, not state; a torn one is rewritten by the next run
        std::fs::write(&path, rec.to_json(SPANS_WRITTEN))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        doc.set("setup_s", Summary::median_of(&setup_s));
        doc.set("queries_per_s", measured.per_s());
        doc.set_all([
            ("index_mb", p.flix.stats().index_bytes as f64 / 1e6),
            ("stored_mb", p.cycle.stored_mb),
            ("peak_rss_mb", peak_rss),
        ]);
    }

    let path = Path::new(OUT_DIR).join(format!(
        "{}-{}.json",
        opts.workload.name(),
        pass_name(opts.trace)
    ));
    // flixcheck: allow(unsynced-write): a result file is a report, not state; a torn one is rewritten by the next run
    std::fs::write(&path, doc.document()?).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}
