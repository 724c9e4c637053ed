//! Reproduces every table and figure of the FliX paper's evaluation (§6).
//!
//! ```text
//! cargo run -p bench --bin repro --release -- all
//! cargo run -p bench --bin repro --release -- table1 [--scale 0.25]
//! ```
//!
//! Subcommands: `table1`, `figure5`, `errors`, `connect`, `hybrid`,
//! `ablation-partition`, `ablation-dedup`, `query`, `build`, `hopi`,
//! `serve`, `trace`, `all`. The default corpus is the paper's scale
//! (6,210 documents); `--scale F` shrinks it.
//!
//! `query` exercises the query-path observability layer: every strategy
//! runs the same DBLP and random-cyclic workloads under one shared
//! [`flixobs::MetricsRegistry`], the table reports latency percentiles
//! straight from the histogram snapshots, the slow-query log surfaces the
//! worst traces, and the registry is persisted to `BENCH_query.json`
//! together with a Prometheus text exposition.
//!
//! `build` compares sequential vs parallel meta-document index builds,
//! prints each build's [`flix::BuildReport`], and writes the machine-
//! readable `BENCH_build.json`.
//!
//! `hopi` sweeps the staged HOPI cover pipeline's thread count over the
//! whole element graph, verifies the serialized index is byte-identical
//! at every thread count, and writes `BENCH_hopi.json`.
//!
//! `serve` drives the `flixserve` worker pool: a closed-loop worker-count
//! sweep (`--serve-threads 1,2,4,8`) over the DBLP and random-cyclic
//! workloads, an open-loop overload run at 2× measured capacity showing
//! admission-control shedding with bounded admitted latency, a deadline
//! sweep verifying every cut answer is a distance-ordered prefix of the
//! full answer, and a single-flight burst. Writes `BENCH_serve.json`.
//!
//! `--check` runs the deep [`flixcheck::IntegrityCheck`] audit over every
//! built framework (alone or alongside experiments) and exits non-zero if
//! any invariant is violated.

use bench::{
    emulated_time_to_k, error_rates, figure5_start, figure5_tag, mb, paper_configs, paper_corpus,
    rule, time_median, time_once, time_to_k_results, DbCostModel,
};
use flix::{BuildOptions, Flix, FlixConfig, QueryOptions};
use flixcheck::IntegrityCheck;
use graphcore::NodeId;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use workloads::{connection_pairs, descendant_queries, generate_mixed, MixedConfig};
use xmlgraph::CollectionGraph;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut check = false;
    let mut serve_threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut serve_shards: Vec<usize> = vec![1, 2, 4, 8];
    let mut commands: Vec<String> = Vec::new();
    const KNOWN: [&str; 15] = [
        "all",
        "table1",
        "figure5",
        "errors",
        "connect",
        "hybrid",
        "ablation-partition",
        "ablation-dedup",
        "figure5-disk",
        "query",
        "build",
        "hopi",
        "serve",
        "trace",
        "recover",
    ];
    const KNOWN_EXTRA: [&str; 2] = ["ablation-exact", "ablation-bidir"];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = true,
            "--scale" => match it.next().map(|s| s.parse::<f64>()) {
                Some(Ok(v)) if v > 0.0 && v <= 1.0 => scale = v,
                _ => {
                    eprintln!("error: --scale needs a number in (0, 1]");
                    std::process::exit(2);
                }
            },
            "--serve-threads" => {
                let parsed: Option<Vec<usize>> = it.next().and_then(|s| {
                    s.split(',')
                        .map(|t| {
                            t.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&v| (1..=64).contains(&v))
                        })
                        .collect()
                });
                match parsed {
                    Some(v) if !v.is_empty() => serve_threads = v,
                    _ => {
                        eprintln!(
                            "error: --serve-threads needs a comma-separated list of \
                             worker counts in 1..=64 (e.g. 1,2,4,8)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                let parsed: Option<Vec<usize>> = it.next().and_then(|s| {
                    s.split(',')
                        .map(|t| {
                            t.trim()
                                .parse::<usize>()
                                .ok()
                                .filter(|&v| (1..=64).contains(&v))
                        })
                        .collect()
                });
                match parsed {
                    Some(v) if !v.is_empty() => serve_shards = v,
                    _ => {
                        eprintln!(
                            "error: --shards needs a comma-separated list of \
                             shard counts in 1..=64 (e.g. 1,2,4,8)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            other => {
                if !KNOWN.contains(&other) && !KNOWN_EXTRA.contains(&other) {
                    eprintln!(
                        "error: unknown experiment {other:?}; known: {}",
                        KNOWN
                            .iter()
                            .chain(KNOWN_EXTRA.iter())
                            .copied()
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    std::process::exit(2);
                }
                commands.push(other.to_string());
            }
        }
    }
    if commands.is_empty() && !check {
        commands.push("all".into());
    }

    let run_all = commands.iter().any(|c| c == "all");
    let wants = |name: &str| run_all || commands.iter().any(|c| c == name);

    println!("building corpus (scale {scale}) ...");
    let (cg, gen_time) = time_once(|| paper_corpus(scale));
    let s = cg.stats();
    println!(
        "corpus: {} documents, {} elements, {} inter-document links, {:.1} MB payload (generated in {gen_time:.1?})",
        s.documents,
        s.elements,
        s.links,
        s.payload_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("paper's corpus: 6,210 documents, 168,991 elements, 25,368 links, 27 MB\n");

    let mut built: Vec<(FlixConfig, Arc<Flix>, Duration)> = Vec::new();
    for config in paper_configs() {
        let (flix, dt) = time_once(|| Flix::build(cg.clone(), config));
        println!("built {:<12} in {dt:>8.1?}", config.to_string());
        built.push((config, Arc::new(flix), dt));
    }
    println!();

    if check {
        let mut failed = false;
        println!("== integrity audit ==");
        for (config, flix, _) in &built {
            match flix.integrity_check() {
                Ok(report) => println!("{:<12} OK ({report})", config.to_string()),
                Err(err) => {
                    failed = true;
                    println!("{:<12} FAILED", config.to_string());
                    println!("{err}");
                }
            }
        }
        println!();
        if failed {
            std::process::exit(1);
        }
    }

    if wants("table1") {
        table1(&built);
    }
    if wants("figure5") {
        figure5(&cg, &built);
    }
    if wants("errors") {
        errors(&cg, &built);
    }
    if wants("connect") {
        connect(&cg, &built);
    }
    if wants("hybrid") {
        hybrid(scale);
    }
    if wants("ablation-partition") {
        ablation_partition(&cg);
    }
    if wants("ablation-dedup") {
        ablation_dedup(&cg, &built);
    }
    if wants("ablation-exact") {
        ablation_exact(&cg, &built);
    }
    if wants("ablation-bidir") {
        ablation_bidir(&cg, &built);
    }
    if wants("figure5-disk") {
        figure5_disk(&cg, &built);
    }
    if wants("query") {
        query_bench(&cg, &built, scale);
    }
    if wants("build") {
        build_bench(&cg);
    }
    if wants("hopi") {
        hopi_bench(&cg);
    }
    if wants("serve") {
        serve_bench(&cg, &built, scale, &serve_threads, &serve_shards);
    }
    if wants("trace") {
        trace_bench(&cg);
    }
    if wants("recover") {
        recover_bench();
    }
}

/// Unwraps a result in the repro harness, exiting with the binary's
/// usual `error:` style instead of a panic backtrace.
fn must<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    match result {
        Ok(value) => value,
        Err(e) => {
            eprintln!("error: {what}: {e}");
            std::process::exit(1);
        }
    }
}

/// `recover`: the durability subsystem end to end (ISSUE 10). (a) WAL
/// commit throughput on an in-memory log and on a real fsynced file. (b)
/// Recovery time as a function of un-checkpointed log length, with the
/// replay counts from the [`pagestore::RecoveryReport`]. (c) A kill-point
/// sweep: a committed workload's log is truncated at *every byte
/// boundary* and recovered; each recovery must land byte-identically on
/// the state of the last commit whose marker survived — zero mismatches
/// tolerated. (d) A live hot swap: closed-loop clients hammer a
/// [`flixserve::FlixServer`] while a background [`flixserve::Rebuilder`]
/// rebuilds the recommended configuration and swaps it in; every answer
/// is checked against the single-generation oracle and nothing may be
/// dropped. Writes `BENCH_recovery.json`.
fn recover_bench() {
    use pagestore::{DurableStore, FileDisk, FileLog, LogDevice, MemDisk, MemLog, MemManifests};
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    println!("== recover: WAL, crash recovery, and online rebuild ==");

    // -- (a) commit throughput ------------------------------------------
    let payload = vec![0xA5u8; 4096];
    let mem_commits = 512usize;
    let (mem_store, _) = durable_mem(64);
    let (mut store, report) = mem_store;
    assert_eq!(report.batches_replayed, 0);
    let (_, mem_time) = time_once(|| {
        for i in 0..mem_commits {
            must(store.put_blob(&format!("m{i}"), &payload), "mem put");
            must(store.commit(), "mem commit");
        }
    });
    let mem_cps = mem_commits as f64 / mem_time.as_secs_f64();
    println!(
        "wal commits (mem log):  {mem_commits} x 4 KiB blobs in {mem_time:.1?} ({mem_cps:.0} commits/s)"
    );

    let dir = std::env::temp_dir().join("flix-recover-bench");
    must(std::fs::create_dir_all(&dir), "temp dir");
    let db = dir.join("data.db");
    let wal_path = dir.join("wal.log");
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&wal_path);
    let file_commits = 64usize;
    let file_cps = {
        let disk = Arc::new(must(FileDisk::open(&db), "file disk"));
        let log = Arc::new(must(FileLog::open(&wal_path), "file log"));
        let manifests = Arc::new(MemManifests::new());
        let (mut store, _) = must(
            DurableStore::open(disk, log, manifests, 64),
            "file store open",
        );
        let (_, file_time) = time_once(|| {
            for i in 0..file_commits {
                must(store.put_blob(&format!("f{i}"), &payload), "file put");
                must(store.commit(), "file commit");
            }
        });
        file_commits as f64 / file_time.as_secs_f64()
    };
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&wal_path);
    println!(
        "wal commits (file log): {file_commits} x 4 KiB blobs, fsync per commit ({file_cps:.0} commits/s)"
    );

    // -- (b) recovery time vs log length --------------------------------
    let mut recovery_rows = String::new();
    for &batches in &[8usize, 32, 128] {
        let disk = Arc::new(MemDisk::new());
        let log = Arc::new(MemLog::new());
        let manifests = Arc::new(MemManifests::new());
        let (mut store, _) = must(
            DurableStore::open(
                disk.clone() as Arc<dyn pagestore::DiskManager>,
                log.clone(),
                manifests.clone(),
                64,
            ),
            "open",
        );
        for i in 0..batches {
            must(store.put_blob(&format!("b{i}"), &payload), "put");
            must(store.commit(), "commit");
        }
        let wal_bytes = must(log.len(), "wal length") as usize;
        drop(store);
        // Reopen over the same devices: the whole log replays.
        let crash_disk = Arc::new(MemDisk::from_frames(disk.snapshot_frames()));
        let crash_log = Arc::new(MemLog::from_bytes(log.snapshot()));
        let crash_manifests = Arc::new(MemManifests::from_snapshot(manifests.snapshot()));
        let ((_, report), dt) = time_once(|| {
            must(
                DurableStore::open(
                    crash_disk.clone() as Arc<dyn pagestore::DiskManager>,
                    crash_log,
                    crash_manifests,
                    64,
                ),
                "recover",
            )
        });
        println!(
            "recovery: {batches:>4} committed batches ({}) replayed in {dt:>8.1?} \
             ({} pages)",
            mb(wal_bytes),
            report.pages_replayed
        );
        if !recovery_rows.is_empty() {
            recovery_rows.push_str(", ");
        }
        recovery_rows.push_str(&format!(
            "{{\"batches\": {batches}, \"wal_bytes\": {wal_bytes}, \
             \"replayed\": {}, \"micros\": {}}}",
            report.batches_replayed,
            dt.as_micros()
        ));
    }

    // -- (c) kill-point sweep -------------------------------------------
    let (kill_points, kill_mismatches) = kill_point_sweep(6);
    assert_eq!(
        kill_mismatches, 0,
        "every kill point must recover the committed prefix exactly"
    );
    println!(
        "kill-point sweep: {kill_points} byte-boundary truncations, {kill_mismatches} mismatches"
    );

    // -- (d) hot swap under live traffic --------------------------------
    use flixserve::{FlixServer, RebuildConfig, Rebuilder, Request, ServeConfig};
    let (chain, tag) = chain_collection(24);
    let oracle = chain.find_descendants(0, tag, &QueryOptions::default());
    let server = Arc::new(FlixServer::start(
        Arc::clone(&chain),
        ServeConfig {
            workers: 4,
            single_flight: false,
            ..ServeConfig::default()
        },
    ));
    let rebuilder = Rebuilder::spawn(
        Arc::clone(&server),
        RebuildConfig {
            min_queries: 64,
            interval: Duration::from_millis(2),
            build_threads: 1,
        },
    );
    let answered = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let mismatched = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..5_000 {
                    match server.query(Request::descendants(0, tag, QueryOptions::default())) {
                        Ok(response) => {
                            answered.fetch_add(1, SeqCst);
                            if *response.results != oracle {
                                mismatched.fetch_add(1, SeqCst);
                            }
                        }
                        Err(_) => {
                            dropped.fetch_add(1, SeqCst);
                        }
                    }
                    if server.generation() > 2 {
                        break;
                    }
                }
            });
        }
    });
    rebuilder.stop();
    let generation = server.generation();
    let stats = server.stats();
    server.shutdown();
    let answered = answered.load(SeqCst);
    let dropped = dropped.load(SeqCst);
    let mismatched = mismatched.load(SeqCst);
    assert!(
        generation > 1,
        "the rebuilder must swap at least once under this load"
    );
    assert_eq!(dropped, 0, "hot swap must not drop queries");
    assert_eq!(mismatched, 0, "hot swap must not change answers");
    println!(
        "hot swap: {answered} closed-loop answers across {} swap(s) \
         (final generation {generation}), {dropped} dropped, {mismatched} mismatched",
        generation - 1
    );

    let json = format!(
        "{{\n  \"wal\": {{\"mem_commits_per_sec\": {mem_cps:.0}, \
         \"file_commits_per_sec\": {file_cps:.0}, \"blob_bytes\": {}}},\n  \
         \"recovery\": [{recovery_rows}],\n  \
         \"kill_points\": {{\"points\": {kill_points}, \"mismatches\": {kill_mismatches}}},\n  \
         \"hot_swap\": {{\"answers\": {answered}, \"dropped\": {dropped}, \
         \"mismatched\": {mismatched}, \"swaps\": {}, \"generation\": {generation}, \
         \"completed\": {}}}\n}}\n",
        payload.len(),
        generation - 1,
        stats.completed,
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_recovery.json", &json) {
        Ok(()) => println!("wrote BENCH_recovery.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_recovery.json: {e}"),
    }
}

/// Oracle state after a commit: directory bytes plus blob contents.
type SweepOracle = (Vec<u8>, Vec<(String, Vec<u8>)>);
/// The in-memory crash-simulation devices behind a [`pagestore::DurableStore`].
type MemDevices = (
    Arc<pagestore::MemDisk>,
    Arc<pagestore::MemLog>,
    Arc<pagestore::MemManifests>,
);

/// A fresh in-memory [`pagestore::DurableStore`] plus its devices.
fn durable_mem(
    capacity: usize,
) -> (
    (pagestore::DurableStore, pagestore::RecoveryReport),
    MemDevices,
) {
    use pagestore::{DurableStore, MemDisk, MemLog, MemManifests};
    let disk = Arc::new(MemDisk::new());
    let log = Arc::new(MemLog::new());
    let manifests = Arc::new(MemManifests::new());
    let opened = must(
        DurableStore::open(
            disk.clone() as Arc<dyn pagestore::DiskManager>,
            log.clone(),
            manifests.clone(),
            capacity,
        ),
        "mem open",
    );
    (opened, (disk, log, manifests))
}

/// Runs `commits` small-blob commits on an in-memory durable store, then
/// truncates the WAL image at every byte boundary, recovers each
/// truncation over a copy of the checkpoint-time disk, and compares the
/// recovered state against the oracle of the last surviving commit.
/// Returns (kill points tried, mismatches found).
fn kill_point_sweep(commits: usize) -> (usize, usize) {
    use pagestore::{DurableStore, LogDevice, MemDisk, MemLog, MemManifests};
    let ((mut store, _), (disk, log, manifests)) = durable_mem(16);
    // Checkpoint-time images: the crash disk every recovery starts from.
    let base_frames = disk.snapshot_frames();
    let base_manifests = manifests.snapshot();
    // Oracle state after commit n (directory bytes + blob contents);
    // index 0 is "nothing committed". `boundaries[n]` is the log length
    // once commit n's marker is durable.
    let mut oracle: Vec<SweepOracle> = vec![(store.committed_directory().to_vec(), Vec::new())];
    let mut boundaries: Vec<usize> = vec![0];
    let mut blobs: Vec<(String, Vec<u8>)> = Vec::new();
    for i in 0..commits {
        let name = format!("k{i}");
        let data = vec![i as u8 ^ 0x5A; 200 + 37 * i];
        must(store.put_blob(&name, &data), "sweep put");
        must(store.commit(), "sweep commit");
        blobs.push((name, data));
        oracle.push((store.committed_directory().to_vec(), blobs.clone()));
        boundaries.push(must(log.len(), "wal length") as usize);
    }
    let image = log.snapshot();
    let mut mismatches = 0usize;
    for cut in 0..=image.len() {
        let crash_disk = Arc::new(MemDisk::from_frames(base_frames.clone()));
        let crash_log = Arc::new(MemLog::from_bytes(image[..cut].to_vec()));
        let crash_manifests = Arc::new(MemManifests::from_snapshot(base_manifests.clone()));
        let (recovered, _) = must(
            DurableStore::open(
                crash_disk as Arc<dyn pagestore::DiskManager>,
                crash_log,
                crash_manifests,
                16,
            ),
            "sweep recover",
        );
        let survived = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let (want_dir, want_blobs) = &oracle[survived];
        let mut ok = recovered.committed_directory() == &want_dir[..];
        if ok {
            for (name, data) in want_blobs {
                if recovered.get_blob(name).ok().flatten().as_deref() != Some(&data[..]) {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            mismatches += 1;
        }
    }
    (image.len() + 1, mismatches)
}

/// A chain of single-element documents linked head-to-tail — the
/// link-heaviest possible layout, guaranteed to trip the load monitor's
/// lookups-per-query rebuild trigger under `Naive`.
fn chain_collection(docs: usize) -> (Arc<Flix>, xmlgraph::TagId) {
    use xmlgraph::{Collection, Document, LinkTarget};
    let mut c = Collection::new();
    let t = c.tags.intern("t");
    for d in 0..docs {
        let mut doc = Document::new(format!("d{d}.xml"));
        let root = doc.add_element(t, None);
        if d + 1 < docs {
            doc.add_link(
                root,
                LinkTarget {
                    document: Some(format!("d{}.xml", d + 1)),
                    fragment: None,
                },
            );
        }
        must(c.add_document(doc), "chain doc");
    }
    let cg = Arc::new(c.seal());
    let tag = must(
        cg.collection.tags.get("t").ok_or("tag missing"),
        "chain tag",
    );
    (Arc::new(Flix::build(cg, FlixConfig::Naive)), tag)
}

/// `trace`: the flight recorder end to end (ISSUE 9). (a) Overhead: the
/// same closed-loop DBLP workload runs on an untraced and a traced server
/// (interleaved, best-of-two each) — the recorder must cost well under 5%
/// of closed-loop qps, and an untraced server must journal nothing at
/// all. (b) Causal artifact: a 4-shard traced server serves a mixed
/// workload — uncapped fan-out queries, an identical-request burst for
/// single-flight, zero-budget deadline cuts, and an adaptive admission
/// target — and its journal snapshot is exported to `trace.json`
/// (Chrome trace-event JSON; load it at <https://ui.perfetto.dev>) plus a
/// text timeline of the slowest requests. Writes `BENCH_obs.json`.
fn trace_bench(cg: &Arc<CollectionGraph>) {
    use flix::ShardedFlix;
    use flixobs::{Deadline, EventKind};
    use flixserve::{closed_loop_windowed, FlixServer, Request, ServeConfig};

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== flight recorder: overhead + causal trace export (host: {cores} cores) ==");
    let flix = Arc::new(Flix::build(Arc::clone(cg), FlixConfig::Naive));
    let opts = QueryOptions {
        max_distance: Some(2),
        ..QueryOptions::top_k(10)
    };
    let distinct: Vec<Request> = descendant_queries(cg, 192, 17)
        .into_iter()
        .map(|q| Request::descendants(q.start, q.target_tag, opts))
        .collect();
    let requests: Vec<Request> = (0..8).flat_map(|_| distinct.iter().copied()).collect();

    // (a) Overhead: same workload, recorder off vs on, interleaved runs,
    // best of two each so a stray scheduling hiccup cannot charge either
    // side. The traced server's rings are sized to wrap (drops are cheap
    // and counted); what matters is the append cost on the serve path.
    let workers = 4usize.min(cores.max(1));
    let config = ServeConfig {
        workers,
        queue_capacity: 128,
        single_flight: false,
        ..ServeConfig::default()
    };
    // Warmup (discarded): page in the index and the thread pool.
    {
        let warm = FlixServer::start(Arc::clone(&flix), config);
        closed_loop_windowed(&warm, &distinct, 2, 64);
        warm.shutdown();
    }
    let mut qps_off = 0f64;
    let mut qps_on = 0f64;
    let mut traced_events = 0u64;
    let mut traced_dropped = 0u64;
    let mut traced_wall_micros = 0u64;
    for _round in 0..3 {
        let off = FlixServer::start(Arc::clone(&flix), config);
        let report = closed_loop_windowed(&off, &requests, 2, 64);
        qps_off = qps_off.max(report.throughput_qps());
        off.shutdown();

        let on = FlixServer::start_traced(Arc::clone(&flix), config, 1 << 14);
        let report = closed_loop_windowed(&on, &requests, 2, 64);
        if report.throughput_qps() > qps_on {
            qps_on = report.throughput_qps();
            traced_events = on.recorder().map_or(0, |r| r.events_logged());
            traced_dropped = on.recorder().map_or(0, |r| r.events_dropped());
            traced_wall_micros = report.wall_micros;
        }
        on.shutdown();
    }
    let overhead_pct = (qps_off - qps_on) / qps_off.max(1e-9) * 100.0;
    let events_per_sec = traced_events as f64 / (traced_wall_micros as f64 / 1e6).max(1e-9);
    let drop_rate = traced_dropped as f64 / (traced_events as f64).max(1.0);
    println!(
        "-- recorder overhead ({} requests, {workers} workers) --",
        requests.len()
    );
    println!(
        "off {qps_off:.0} qps; on {qps_on:.0} qps -> {overhead_pct:.1}% overhead \
         ({traced_events} events journaled, {:.0} events/s, {:.1}% dropped by ring wrap)\n",
        events_per_sec,
        drop_rate * 100.0
    );

    // (b) Causal artifact: a deliberately mixed workload on a 4-shard
    // traced server, rings sized to keep every event.
    let sharded = Arc::new(ShardedFlix::new(Arc::clone(&flix), 4));
    let server = FlixServer::start_traced(
        Arc::clone(&sharded),
        ServeConfig {
            workers: 4,
            latency_target_p99_micros: Some(200),
            ..ServeConfig::default()
        },
        1 << 16,
    );
    // Uncapped queries fan out or escape across shards.
    for q in descendant_queries(cg, 48, 43) {
        // flixcheck: allow(swallowed-result): sheds are a legitimate outcome while the adaptive limit moves
        let _ = server.query(Request::descendants(
            q.start,
            q.target_tag,
            QueryOptions::default(),
        ));
    }
    // An identical-request burst exercises single-flight journal events.
    if let Some(shared_request) = distinct.first() {
        let tickets: Vec<_> = (0..12)
            .filter_map(|_| server.submit(*shared_request).ok())
            .collect();
        for ticket in tickets {
            // flixcheck: allow(swallowed-result): burst answers only feed the journal
            let _ = ticket.wait();
        }
    }
    // Zero-budget deadlines journal their expiry.
    for request in distinct.iter().take(8) {
        let req = Request {
            opts: request.opts.with_deadline(Deadline::within_micros(0)),
            ..*request
        };
        // flixcheck: allow(swallowed-result): the cut itself is the point
        let _ = server.query(req);
    }
    server.wait_idle();
    let stats = server.stats();
    let snapshot = match server.journal_snapshot() {
        Some(s) => s,
        None => {
            eprintln!("error: traced server has no journal");
            std::process::exit(1);
        }
    };
    let crossed = snapshot
        .request_ids()
        .into_iter()
        .filter(|id| {
            snapshot.request_events(*id).iter().any(|e| {
                matches!(
                    e.kind,
                    EventKind::RouteFanout { .. } | EventKind::RouteEscaped { .. }
                )
            })
        })
        .count();
    let limit_changes = snapshot
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LimitChange { .. }))
        .count();
    let chrome = snapshot.to_chrome_trace();
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("trace.json", &chrome) {
        Ok(()) => println!(
            "wrote trace.json ({} events, {} cross-shard requests; open in ui.perfetto.dev)",
            snapshot.events.len(),
            crossed
        ),
        Err(e) => eprintln!("warning: could not write trace.json: {e}"),
    }
    println!(
        "adaptive admission: target p99 200us -> live limit {} (configured {}), \
         {limit_changes} journaled changes",
        stats.max_in_flight,
        ServeConfig::default().effective_max_in_flight()
    );
    let slow = server.slow_queries();
    println!("\n-- worst requests, stitched from the journal --");
    println!("{}", snapshot.worst_timelines(&slow));
    server.shutdown();

    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"overhead\": {{\"workers\": {workers}, \"requests\": {}, \"qps_off\": {qps_off:.1}, \
         \"qps_on\": {qps_on:.1}, \"overhead_pct\": {overhead_pct:.2}, \
         \"events_logged\": {traced_events}, \"events_per_sec\": {events_per_sec:.0}, \
         \"dropped\": {traced_dropped}, \"drop_rate\": {drop_rate:.4}}},\n  \
         \"artifact\": {{\"events\": {}, \"dropped\": {}, \"chrome_bytes\": {}, \
         \"crossed_shard_requests\": {crossed}}},\n  \
         \"adaptive\": {{\"target_p99_micros\": 200, \"final_limit\": {}, \
         \"configured_limit\": {}, \"limit_changes\": {limit_changes}}}\n}}\n",
        requests.len(),
        snapshot.events.len(),
        snapshot.dropped,
        chrome.len(),
        stats.max_in_flight,
        ServeConfig::default().effective_max_in_flight(),
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_obs.json", &json) {
        Ok(()) => println!("wrote BENCH_obs.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_obs.json: {e}"),
    }
}

/// `serve`: the `flixserve` concurrent query service end to end. A
/// closed-loop worker-count sweep measures throughput scaling over the
/// DBLP and random-cyclic workloads; an open-loop run at 2× measured
/// capacity shows admission control shedding instead of buffering (and
/// that the latency of *admitted* requests stays a bounded multiple of
/// the uncontended p99); a deadline sweep verifies every cut answer is a
/// distance-ordered prefix of the full answer; and a burst of identical
/// queries demonstrates single-flight collapsing. A shard-count sweep
/// (`--shards 1,2,4,8`) then serves a DBLP proximity workload over a
/// 4x-scale corpus from a [`flix::ShardedFlix`] at a fixed worker count
/// through windowed closed-loop clients, measuring the scale-out the
/// per-shard indexes buy over one shared framework. The server's metric
/// cells land in a registry and the whole run in `BENCH_serve.json`.
fn serve_bench(
    cg: &Arc<CollectionGraph>,
    built: &[(FlixConfig, Arc<Flix>, Duration)],
    scale: f64,
    threads: &[usize],
    shard_counts: &[usize],
) {
    use flix::ShardedFlix;
    use flixobs::registry::json_escape;
    use flixobs::{Deadline, MetricsRegistry};
    use flixserve::{
        closed_loop, closed_loop_windowed, open_loop, FlixServer, Request, ServeConfig,
    };
    use workloads::{generate_web, WebConfig};

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== flixserve: worker sweep, load shedding, deadlines (host: {cores} cores) ==");
    let (deployed_cfg, deployed, _) = &built[built.len() - 1];
    println!("serving the {deployed_cfg} framework; worker counts: {threads:?}");
    let registry = MetricsRegistry::new();

    let web_cfg = WebConfig {
        documents: ((120.0 * scale) as usize).max(16),
        elements_per_doc: 50,
        ..WebConfig::default()
    };
    let web_cg = Arc::new(generate_web(&web_cfg).seal());
    let web_flix = Arc::new(Flix::build(web_cg.clone(), *deployed_cfg));

    let requests_for = |corpus: &CollectionGraph, count: usize, seed: u64| -> Vec<Request> {
        descendant_queries(corpus, count, seed)
            .into_iter()
            .map(|q| Request::descendants(q.start, q.target_tag, QueryOptions::default()))
            .collect()
    };
    let dblp_requests = requests_for(cg, 48, 19);
    let web_requests = requests_for(&web_cg, 48, 29);

    // (a) Closed-loop worker sweep: K clients per worker issue-wait-repeat,
    // so offered load tracks capacity and the column to watch is qps.
    println!("\n-- closed-loop worker sweep (single-flight off: every request evaluates) --");
    rule(96);
    println!(
        "{:<8} {:>8} {:>8} {:>10} {:>12} {:>9} {:>12} {:>12} {:>12}",
        "workload", "workers", "clients", "completed", "qps", "speedup", "p50", "p99", "queue p99"
    );
    rule(96);
    let mut sweep_entries: Vec<String> = Vec::new();
    for (workload, flix, requests) in [
        ("dblp", deployed, &dblp_requests),
        ("web", &web_flix, &web_requests),
    ] {
        let repeated: Vec<Request> = (0..8).flat_map(|_| requests.iter().copied()).collect();
        let mut base_qps: Option<f64> = None;
        for &workers in threads {
            let server = FlixServer::start(
                Arc::clone(flix),
                ServeConfig {
                    workers,
                    single_flight: false,
                    ..ServeConfig::default()
                },
            );
            let report = closed_loop(&server, &repeated, workers * 2);
            let qps = report.throughput_qps();
            let speedup = qps / base_qps.unwrap_or(qps).max(1e-9);
            base_qps.get_or_insert(qps);
            let lat = server.latency().snapshot();
            let queue = server.queue_wait().snapshot();
            println!(
                "{:<8} {:>8} {:>8} {:>10} {:>12.0} {:>8.2}x {:>12.1?} {:>12.1?} {:>12.1?}",
                workload,
                workers,
                report.clients,
                report.completed,
                qps,
                speedup,
                Duration::from_micros(lat.p50()),
                Duration::from_micros(lat.p99()),
                Duration::from_micros(queue.p99()),
            );
            sweep_entries.push(format!(
                "    {{\"workload\": \"{workload}\", \"workers\": {workers}, \
                 \"clients\": {}, \"completed\": {}, \"shed\": {}, \"qps\": {qps:.1}, \
                 \"speedup\": {speedup:.3}, \"p50_micros\": {}, \"p99_micros\": {}, \
                 \"queue_p99_micros\": {}}}",
                report.clients,
                report.completed,
                report.shed,
                lat.p50(),
                lat.p99(),
                queue.p99()
            ));
            server.shutdown();
        }
    }
    rule(96);
    println!("speedup is qps relative to the first worker count in the sweep\n");

    // (b) Overload: measure uncontended capacity closed-loop, then offer 2×
    // that rate open-loop into deliberately small queues. The controller
    // must shed the excess; what it admits must stay near the uncontended
    // latency instead of queueing toward the deadline horizon.
    let heavy: Vec<Request> = descendant_queries(&web_cg, 32, 37)
        .into_iter()
        .map(|q| Request::descendants(q.start, q.target_tag, QueryOptions::exact()))
        .collect();
    let overload_workers = 2usize;
    let baseline = FlixServer::start(
        Arc::clone(&web_flix),
        ServeConfig {
            workers: overload_workers,
            single_flight: false,
            ..ServeConfig::default()
        },
    );
    let heavy_repeated: Vec<Request> = (0..4).flat_map(|_| heavy.iter().copied()).collect();
    let base = closed_loop(&baseline, &heavy_repeated, overload_workers);
    let capacity_qps = base.throughput_qps();
    let uncontended_p99 = baseline.latency().snapshot().p99();
    baseline.shutdown();

    let overloaded = FlixServer::start(
        Arc::clone(&web_flix),
        ServeConfig {
            workers: overload_workers,
            queue_capacity: 2,
            single_flight: false,
            ..ServeConfig::default()
        },
    );
    overloaded.publish_metrics(&registry, &[("experiment", "overload")]);
    let offered_qps = capacity_qps * 2.0;
    let open_requests: Vec<Request> = heavy
        .iter()
        .cycle()
        .take(((capacity_qps as usize).clamp(64, 1200)) * 2)
        .copied()
        .collect();
    let open = open_loop(&overloaded, &open_requests, offered_qps);
    let admitted_p99 = overloaded.latency().snapshot().p99();
    let p99_ratio = admitted_p99 as f64 / (uncontended_p99 as f64).max(1.0);
    println!(
        "-- open-loop overload at 2x measured capacity ({overload_workers} workers, queue 2) --"
    );
    println!(
        "capacity {capacity_qps:.0} qps (uncontended p99 {:.1?}); offered {offered_qps:.0} qps: \
         {} admitted, {} shed ({:.0}%)",
        Duration::from_micros(uncontended_p99),
        open.admitted,
        open.shed,
        open.shed_fraction() * 100.0
    );
    println!(
        "admitted p99 {:.1?} = {p99_ratio:.1}x uncontended — bounded queues shed load instead \
         of stretching latency\n",
        Duration::from_micros(admitted_p99)
    );

    // (c) Deadlines: every cut answer must be a distance-ordered prefix of
    // the full answer; the marker tells the client which it got.
    let deadline_server = FlixServer::start(Arc::clone(&web_flix), ServeConfig::default());
    deadline_server.publish_metrics(&registry, &[("experiment", "deadline")]);
    println!("-- per-request deadlines over exact-order web queries --");
    rule(72);
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "budget", "queries", "timed out", "returned", "full size", "prefix ok"
    );
    rule(72);
    let mut deadline_entries: Vec<String> = Vec::new();
    for budget in [0u64, 50, 500, 10_000_000] {
        let mut timed_out = 0u64;
        let mut returned = 0usize;
        let mut total = 0usize;
        let mut queries = 0u64;
        let mut prefix_ok = true;
        for request in heavy.iter().take(8) {
            let oracle =
                web_flix.find_descendants(request.start, request.target, &QueryOptions::exact());
            let req = Request {
                opts: request.opts.with_deadline(Deadline::within_micros(budget)),
                ..*request
            };
            let Ok(response) = deadline_server.query(req) else {
                continue;
            };
            queries += 1;
            timed_out += u64::from(response.timed_out);
            returned += response.results.len();
            total += oracle.len();
            prefix_ok &= oracle.starts_with(&response.results)
                && response
                    .results
                    .windows(2)
                    .all(|w| w[0].distance <= w[1].distance);
        }
        assert!(
            prefix_ok,
            "a deadline-cut answer was not a distance-ordered prefix of the full answer"
        );
        println!(
            "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10}",
            format!("{:.1?}", Duration::from_micros(budget)),
            queries,
            timed_out,
            returned,
            total,
            if prefix_ok { "yes" } else { "NO" }
        );
        deadline_entries.push(format!(
            "    {{\"budget_micros\": {budget}, \"queries\": {queries}, \
             \"timed_out\": {timed_out}, \"returned\": {returned}, \"full\": {total}, \
             \"prefix_ok\": {prefix_ok}}}"
        ));
    }
    rule(72);
    println!("every cut answer is a prefix of what the query would have returned in full\n");
    deadline_server.shutdown();

    // (d) Single-flight: a burst of one identical query runs the evaluator
    // once; everyone else rides the leader.
    let sf_server = FlixServer::start(
        Arc::clone(&web_flix),
        ServeConfig {
            workers: overload_workers,
            ..ServeConfig::default()
        },
    );
    let shared_request = heavy[0];
    let burst = 16usize;
    let tickets: Vec<_> = (0..burst)
        .filter_map(|_| sf_server.submit(shared_request).ok())
        .collect();
    let mut answered = 0usize;
    for ticket in tickets {
        if ticket.wait().is_ok() {
            answered += 1;
        }
    }
    sf_server.wait_idle();
    let sf_stats = sf_server.stats();
    println!(
        "-- single-flight: {burst} identical in-flight queries -> {} evaluations, \
         {} collapsed, {answered} answered --\n",
        sf_stats.completed, sf_stats.collapsed
    );

    // (e) Shard sweep: a DBLP workload, a fixed worker count, and a
    // `ShardedFlix` cut into 1..N shards. One shared framework makes every
    // worker pay the whole collection's per-query evaluator state; shard-
    // local serving pays only the owning shard's. That cliff grows with
    // the collection, so the sweep serves a 4x-scale corpus — the regime
    // the paper pitches FliX for. Top-10 proximity queries within distance
    // 2 (distance-decayed relevance cuts deep result streams off early)
    // ride a windowed closed loop, so the measurement tracks service
    // capacity instead of per-request scheduler round-trips. The column to
    // watch is qps at a fixed worker count; `fanout` counts queries routed
    // straight to the cross-shard merge, `escaped` ones whose local
    // attempt crossed a shard boundary at runtime and re-ran there.
    let shard_cg = paper_corpus(scale * 4.0);
    let (shard_naive, shard_build) =
        time_once(|| Arc::new(Flix::build(Arc::clone(&shard_cg), FlixConfig::Naive)));
    let shard_workers = 8usize;
    let shard_clients = 2usize;
    let shard_window = 128usize;
    let shard_opts = QueryOptions {
        max_distance: Some(2),
        ..QueryOptions::top_k(10)
    };
    let shard_distinct: Vec<Request> = descendant_queries(&shard_cg, 384, 43)
        .into_iter()
        .map(|q| Request::descendants(q.start, q.target_tag, shard_opts))
        .collect();
    let shard_requests: Vec<Request> = (0..16)
        .flat_map(|_| shard_distinct.iter().copied())
        .collect();
    println!(
        "-- shard sweep: Naive framework over {} DBLP documents (built in {:.1?}), \
         {shard_workers} workers --",
        shard_cg.collection.doc_count(),
        shard_build
    );
    println!(
        "   {} top-10 within-distance-2 queries ({} distinct), {shard_clients} clients x \
         {shard_window}-deep pipelines, single-flight off",
        shard_requests.len(),
        shard_distinct.len()
    );
    rule(108);
    println!(
        "{:<8} {:>8} {:>10} {:>12} {:>9} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "shards",
        "groups",
        "completed",
        "qps",
        "speedup",
        "direct",
        "fanout",
        "escaped",
        "p50",
        "p99"
    );
    rule(108);
    let mut shard_entries: Vec<String> = Vec::new();
    let mut shard_qps: Vec<(usize, f64)> = Vec::new();
    for &shards in shard_counts {
        let sharded = Arc::new(ShardedFlix::new(Arc::clone(&shard_naive), shards));
        // Spot-check equivalence before timing: the sweep must be comparing
        // servers that return identical answers.
        for request in shard_distinct.iter().take(8) {
            let oracle = shard_naive.find_descendants(request.start, request.target, &request.opts);
            let got = sharded.find_descendants(request.start, request.target, &request.opts);
            assert_eq!(got, oracle, "sharded answers diverged from the oracle");
        }
        let server = FlixServer::start(
            Arc::clone(&sharded),
            ServeConfig {
                workers: shard_workers,
                queue_capacity: 128,
                single_flight: false,
                ..ServeConfig::default()
            },
        );
        if shards == shard_counts.iter().copied().max().unwrap_or(1) {
            server.publish_metrics(&registry, &[("experiment", "shard-sweep")]);
        }
        let report = closed_loop_windowed(&server, &shard_requests, shard_clients, shard_window);
        let qps = report.throughput_qps();
        let speedup = shard_qps
            .first()
            .map_or(1.0, |&(_, base)| qps / base.max(1e-9));
        let lat = server.latency().snapshot();
        let stats = sharded.stats();
        println!(
            "{:<8} {:>8} {:>10} {:>12.0} {:>8.2}x {:>10} {:>8} {:>8} {:>12.1?} {:>12.1?}",
            shards,
            server.shard_groups(),
            report.completed,
            qps,
            speedup,
            stats.direct,
            stats.fanout,
            stats.escaped,
            Duration::from_micros(lat.p50()),
            Duration::from_micros(lat.p99()),
        );
        shard_entries.push(format!(
            "    {{\"shards\": {shards}, \"groups\": {}, \"workers\": {shard_workers}, \
             \"clients\": {shard_clients}, \"window\": {shard_window}, \
             \"completed\": {}, \"shed\": {}, \"qps\": {qps:.1}, \"speedup\": {speedup:.3}, \
             \"direct\": {}, \"fanout\": {}, \"escaped\": {}, \"p50_micros\": {}, \
             \"p99_micros\": {}}}",
            server.shard_groups(),
            report.completed,
            report.shed,
            stats.direct,
            stats.fanout,
            stats.escaped,
            lat.p50(),
            lat.p99()
        ));
        shard_qps.push((shards, qps));
        server.shutdown();
    }
    rule(108);
    let qps_of = |n: usize| shard_qps.iter().find(|&&(s, _)| s == n).map(|&(_, q)| q);
    let shard_speedup = match (qps_of(1), qps_of(4)) {
        (Some(one), Some(four)) => four / one.max(1e-9),
        _ => shard_qps
            .last()
            .zip(shard_qps.first())
            .map_or(1.0, |(&(_, last), &(_, first))| last / first.max(1e-9)),
    };
    if shard_qps.len() > 1 {
        println!(
            "4-shard serving delivers {shard_speedup:.2}x the 1-shard qps at the same worker \
             count — per-shard indexes end the shared-framework scaling cliff\n"
        );
    } else {
        println!("single shard count requested; no speedup to report\n");
    }

    let snapshot = registry.snapshot();
    let snapshot_json = snapshot.to_json().replace('\n', "\n  ");
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"config\": \"{}\",\n  \"sweep\": [\n{}\n  ],\n  \
         \"overload\": {{\"workers\": {overload_workers}, \"capacity_qps\": {capacity_qps:.1}, \
         \"uncontended_p99_micros\": {uncontended_p99}, \"offered_qps\": {offered_qps:.1}, \
         \"offered\": {}, \"admitted\": {}, \"shed\": {}, \"shed_fraction\": {:.3}, \
         \"admitted_p99_micros\": {admitted_p99}, \"p99_ratio\": {p99_ratio:.2}}},\n  \
         \"deadline\": [\n{}\n  ],\n  \
         \"single_flight\": {{\"burst\": {burst}, \"evaluations\": {}, \"collapsed\": {}}},\n  \
         \"shard_sweep\": [\n{}\n  ],\n  \
         \"shard_speedup_4_over_1\": {shard_speedup:.3},\n  \
         \"snapshot\": {snapshot_json}\n}}\n",
        json_escape(&deployed_cfg.to_string()),
        sweep_entries.join(",\n"),
        open.offered,
        open.admitted,
        open.shed,
        open.shed_fraction(),
        deadline_entries.join(",\n"),
        sf_stats.completed,
        sf_stats.collapsed,
        shard_entries.join(",\n"),
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_serve.json: {e}"),
    }
    overloaded.shutdown();
    sf_server.shutdown();
}

/// `hopi`: thread-count sweep of the staged HOPI cover pipeline (rank /
/// merge / parallel per-partition cover) over the whole element graph.
/// Verifies the serialized index image is byte-identical at every thread
/// count and writes `BENCH_hopi.json`.
fn hopi_bench(cg: &Arc<CollectionGraph>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Staged HOPI cover pipeline: thread-count sweep (host: {cores} cores) ==");
    let labels: Vec<u32> = (0..cg.node_count() as NodeId)
        .map(|u| cg.tag_of(u))
        .collect();
    rule(108);
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "threads",
        "total",
        "rank",
        "merge",
        "cover",
        "parts",
        "borders",
        "entries",
        "visits",
        "image"
    );
    rule(108);
    let mut baseline: Option<(Duration, Vec<u8>)> = None;
    let mut entries: Vec<String> = Vec::new();
    let mut best_speedup = 1.0f64;
    for threads in [1usize, 2, 4, 8] {
        let opts = hopi::CoverOptions {
            threads,
            ..hopi::CoverOptions::default()
        };
        let ((idx, stages), dt) =
            time_once(|| hopi::HopiIndex::build_staged(&cg.graph, &labels, &opts));
        let image = match pagestore::to_bytes(&idx) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: could not serialize index: {e}");
                std::process::exit(1);
            }
        };
        let identical = match &baseline {
            None => {
                baseline = Some((dt, image.clone()));
                true
            }
            Some((_, base)) => *base == image,
        };
        assert!(
            identical,
            "index image diverged at {threads} threads — staged build is not deterministic"
        );
        let seq = baseline.as_ref().map_or(dt, |(d, _)| *d);
        let speedup = seq.as_secs_f64() / dt.as_secs_f64().max(1e-9);
        best_speedup = best_speedup.max(speedup);
        println!(
            "{:<8} {:>12.1?} {:>12.1?} {:>12.1?} {:>12.1?} {:>8} {:>8} {:>10} {:>10} {:>8}",
            threads,
            dt,
            Duration::from_micros(stages.rank_micros),
            Duration::from_micros(stages.merge_micros),
            Duration::from_micros(stages.cover_micros),
            stages.partitions,
            stages.border_centers,
            idx.label_entries(),
            idx.stats().visits,
            if identical { "same" } else { "DIFF" }
        );
        entries.push(format!(
            "    {{\"threads\": {threads}, \"total_micros\": {}, \"rank_micros\": {}, \
             \"merge_micros\": {}, \"cover_micros\": {}, \"partitions\": {}, \
             \"border_centers\": {}, \"label_entries\": {}, \"image_identical\": {identical}}}",
            dt.as_micros(),
            stages.rank_micros,
            stages.merge_micros,
            stages.cover_micros,
            stages.partitions,
            stages.border_centers,
            idx.label_entries()
        ));
    }
    rule(108);
    println!(
        "the serialized index is byte-identical at every thread count; only wall clock changes\n\
         (best measured speedup over the 1-thread staged build: {best_speedup:.2}x)"
    );
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"nodes\": {},\n  \"best_speedup\": {best_speedup:.3},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        cg.node_count(),
        entries.join(",\n")
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_hopi.json", &json) {
        Ok(()) => println!("wrote BENCH_hopi.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_hopi.json: {e}"),
    }
}

/// `query`: the query-path observability layer end to end. Every strategy
/// runs the same DBLP and random-cyclic web workloads under one shared
/// [`flixobs::MetricsRegistry`]; the table reads latency percentiles from
/// the histogram snapshots; the slow-query log surfaces the worst traces;
/// the query cache, the index buffer pool, and the §7 load monitor publish
/// into the same registry; and the whole snapshot lands in
/// `BENCH_query.json` (percentiles per strategy plus the Prometheus text
/// exposition).
fn query_bench(cg: &Arc<CollectionGraph>, built: &[(FlixConfig, Arc<Flix>, Duration)], scale: f64) {
    use flix::{CachedFlix, DiskFlix, LoadMonitor, QueryPathMetrics, Recommendation};
    use flixobs::registry::json_escape;
    use flixobs::{MetricsRegistry, SlowQuery};
    use pagestore::{BlobStore, BufferPool, DiskManager, MemDisk};
    use std::ops::ControlFlow;
    use workloads::{generate_web, ConnectionPair, WebConfig};

    println!("== Query-path observability: metrics registry, traces, slow-query log ==");
    let registry = MetricsRegistry::new();

    // Workload 1: the paper's DBLP corpus — mixed descendant queries, the
    // Figure-5 query, and a batch of connection tests.
    let mut dblp_queries: Vec<(NodeId, u32)> = descendant_queries(cg, 24, 11)
        .into_iter()
        .map(|q| (q.start, q.target_tag))
        .collect();
    dblp_queries.push((figure5_start(cg), figure5_tag(cg)));
    let dblp_pairs = connection_pairs(cg, 12, 17);

    // Workload 2: a random-cyclic web collection — the graph shape the
    // paper's HOPI partitioning exists for.
    let web_cfg = WebConfig {
        documents: ((150.0 * scale) as usize).max(20),
        elements_per_doc: 50,
        ..WebConfig::default()
    };
    let web_cg = Arc::new(generate_web(&web_cfg).seal());
    let ws = web_cg.stats();
    println!(
        "web workload corpus: {} docs, {} elements, {} links",
        ws.documents, ws.elements, ws.links
    );
    let web_built: Vec<(FlixConfig, Arc<Flix>)> = paper_configs()
        .into_iter()
        .map(|c| (c, Arc::new(Flix::build(web_cg.clone(), c))))
        .collect();
    let web_queries: Vec<(NodeId, u32)> = descendant_queries(&web_cg, 16, 7)
        .into_iter()
        .map(|q| (q.start, q.target_tag))
        .collect();
    let web_pairs = connection_pairs(&web_cg, 8, 9);

    fn run_workload(
        flix: &Flix,
        obs: &QueryPathMetrics,
        queries: &[(NodeId, u32)],
        pairs: &[ConnectionPair],
    ) {
        for &(start, tag) in queries {
            let label = format!("{start}//tag{tag}");
            let _warm = obs.find_descendants(flix, start, tag, &QueryOptions::default(), &label);
        }
        for p in pairs {
            let label = format!("{}=>{}", p.from, p.to);
            let _warm = obs.connection_test(flix, p.from, p.to, &QueryOptions::default(), &label);
        }
    }

    let mut observed: Vec<(&'static str, String, QueryPathMetrics)> = Vec::new();
    for (config, flix, _) in built {
        let name = config.to_string();
        let obs = QueryPathMetrics::register(&registry, &[("config", &name), ("workload", "dblp")]);
        run_workload(flix, &obs, &dblp_queries, &dblp_pairs);
        observed.push(("dblp", name, obs));
    }
    for (config, flix) in &web_built {
        let name = config.to_string();
        let obs = QueryPathMetrics::register(&registry, &[("config", &name), ("workload", "web")]);
        run_workload(flix, &obs, &web_queries, &web_pairs);
        observed.push(("web", name, obs));
    }

    rule(112);
    println!(
        "{:<12} {:<6} {:>4} {:>11} {:>11} {:>11} {:>11} {:>9} {:>9} {:>9}",
        "config", "load", "q", "p50", "p95", "p99", "max", "pops/q", "rows/q", "res/q"
    );
    rule(112);
    let counter = |name: &str, config: &str, workload: &str| {
        registry
            .counter_with(name, &[("config", config), ("workload", workload)])
            .get()
    };
    for (workload, name, obs) in &observed {
        let lat = obs.latency().snapshot();
        let q = obs.queries().max(1) as f64;
        println!(
            "{:<12} {:<6} {:>4} {:>11.1?} {:>11.1?} {:>11.1?} {:>11.1?} {:>9.1} {:>9.1} {:>9.1}",
            name,
            workload,
            obs.queries(),
            Duration::from_micros(lat.p50()),
            Duration::from_micros(lat.p95()),
            Duration::from_micros(lat.p99()),
            Duration::from_micros(lat.max),
            counter("flix_entries_popped_total", name, workload) as f64 / q,
            counter("flix_rows_scanned_total", name, workload) as f64 / q,
            counter("flix_results_total", name, workload) as f64 / q,
        );
    }
    rule(112);
    println!(
        "percentiles come from the shared registry's log2-bucket histograms; the same numbers\n\
         are in BENCH_query.json and the Prometheus exposition below it\n"
    );

    // The worst traces across every strategy and workload, from the
    // per-path slow-query logs.
    let mut worst: Vec<(String, SlowQuery)> = Vec::new();
    for (workload, name, obs) in &observed {
        for sq in obs.slow_queries() {
            worst.push((format!("{name}/{workload}"), sq));
        }
    }
    worst.sort_by_key(|w| std::cmp::Reverse(w.1.trace.total_micros()));
    println!(
        "slow-query log (worst {} of {} retained traces):",
        worst.len().min(5),
        worst.len()
    );
    for (who, sq) in worst.iter().take(5) {
        println!("  [{who}] {}", sq.trace.summary());
    }
    println!();

    // A repeat-heavy client in front of the deployed strategy: the query
    // cache publishes its live counters into the same registry.
    let (deployed_cfg, deployed, _) = &built[built.len() - 1];
    let cache = CachedFlix::new(Arc::clone(deployed), 8);
    cache.publish_metrics(&registry, &[("cache", "query")]);
    for _ in 0..3 {
        for &(start, tag) in dblp_queries.iter().take(6) {
            let _warm = cache.find_descendants(start, tag, &QueryOptions::default());
        }
    }
    for &(start, tag) in dblp_queries.iter().take(12) {
        let _warm = cache.find_descendants(start, tag, &QueryOptions::default());
    }
    let cs = cache.cache_stats();
    println!(
        "query cache in front of {}: {} hits, {} misses, {} evictions, {} invalidations",
        deployed_cfg, cs.hits, cs.misses, cs.evictions, cs.invalidations
    );

    // The same strategy served from the page store through a small buffer
    // pool: pool and disk I/O counters land in the registry too.
    let disk = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(disk.clone(), 64));
    let store = BlobStore::new(pool.clone());
    match DiskFlix::save_and_open(deployed, store, "fw", 4) {
        Ok(dflix) => {
            let results = dflix
                .find_descendants(figure5_start(cg), figure5_tag(cg), &QueryOptions::default())
                .map_or(0, |r| r.len());
            pool.publish_metrics(&registry, &[("pool", "index")]);
            let ps = pool.pool_stats();
            println!(
                "disk-resident {}: {} results; pool {} hits / {} misses / {} evictions, \
                 {} pages read from disk",
                deployed_cfg,
                results,
                ps.hits,
                ps.misses,
                ps.evictions,
                disk.stats().reads
            );
        }
        Err(e) => println!("disk-resident {deployed_cfg}: persist failed: {e}"),
    }

    // §7's self-tuning loop reads the same query load the metrics describe.
    let mut monitor = LoadMonitor::new();
    for &(start, tag) in &dblp_queries {
        let mut results = 0usize;
        let stats = deployed.for_each_descendant(start, tag, &QueryOptions::default(), |_, _| {
            results += 1;
            ControlFlow::Continue(())
        });
        monitor.record(stats, results);
    }
    monitor.publish(&registry);
    match monitor.recommend(*deployed_cfg, 10) {
        Recommendation::Keep => {
            println!(
                "load monitor: keep {deployed_cfg} (lookups/q {:.1}, rows/result {:.1})\n",
                monitor.avg_lookups(),
                monitor.rows_per_result()
            );
        }
        Recommendation::Rebuild { suggestion, reason } => {
            println!("load monitor: rebuild {deployed_cfg} as {suggestion} — {reason}\n");
        }
    }

    // Persist: per-strategy percentile entries, the full snapshot, and the
    // Prometheus text exposition (escaped into one JSON string).
    let snapshot = registry.snapshot();
    let mut entries: Vec<String> = Vec::new();
    for (workload, name, obs) in &observed {
        let lat = obs.latency().snapshot();
        entries.push(format!(
            "    {{\"config\": \"{}\", \"workload\": \"{workload}\", \"queries\": {}, \
             \"p50_micros\": {}, \"p95_micros\": {}, \"p99_micros\": {}, \"max_micros\": {}, \
             \"mean_micros\": {:.1}, \"entries_popped\": {}, \"entries_subsumed\": {}, \
             \"rows_scanned\": {}, \"links_expanded\": {}, \"results\": {}}}",
            json_escape(name),
            obs.queries(),
            lat.p50(),
            lat.p95(),
            lat.p99(),
            lat.max,
            lat.mean(),
            counter("flix_entries_popped_total", name, workload),
            counter("flix_entries_subsumed_total", name, workload),
            counter("flix_rows_scanned_total", name, workload),
            counter("flix_links_expanded_total", name, workload),
            counter("flix_results_total", name, workload),
        ));
    }
    let snapshot_json = snapshot.to_json().replace('\n', "\n  ");
    let json = format!(
        "{{\n  \"strategies\": [\n{}\n  ],\n  \"snapshot\": {snapshot_json},\n  \
         \"prometheus\": \"{}\"\n}}\n",
        entries.join(",\n"),
        json_escape(&snapshot.to_prometheus())
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_query.json", &json) {
        Ok(()) => println!("wrote BENCH_query.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_query.json: {e}"),
    }
}

/// `build`: sequential vs parallel per-meta index builds over every paper
/// configuration, reported from the [`flix::BuildReport`] observability
/// layer and persisted as `BENCH_build.json`.
fn build_bench(cg: &Arc<CollectionGraph>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== Build phase: sequential vs parallel meta-document index builds ==");
    println!("host: {cores} cores (parallel uses one worker per core, capped at the meta count)");
    rule(100);
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "config", "metas", "seq", "par", "thrds", "speedup", "crit path", "links", "size [MB]"
    );
    rule(100);
    let mut entries: Vec<String> = Vec::new();
    let mut max_speedup = 0.0f64;
    for config in paper_configs() {
        let seq_opts = BuildOptions {
            build_threads: 1,
            ..BuildOptions::default()
        };
        let par_opts = BuildOptions {
            build_threads: 0,
            ..BuildOptions::default()
        };
        let (seq, seq_dt) = time_once(|| Flix::build_with(cg.clone(), config, &seq_opts));
        let (par, par_dt) = time_once(|| Flix::build_with(cg.clone(), config, &par_opts));
        // Thread count must never change the result.
        assert!(
            seq.runtime_links() == par.runtime_links() && seq.meta_count() == par.meta_count(),
            "parallel build diverged from sequential under {config}"
        );
        let report = par.build_report();
        let measured = seq_dt.as_secs_f64() / par_dt.as_secs_f64().max(1e-9);
        max_speedup = max_speedup.max(measured);
        println!(
            "{:<12} {:>7} {:>12.1?} {:>12.1?} {:>8} {:>7.2}x {:>12.1?} {:>10} {:>10}",
            config.to_string(),
            report.per_meta.len(),
            seq_dt,
            par_dt,
            report.threads,
            measured,
            Duration::from_micros(report.critical_path_micros()),
            report.runtime_links,
            mb(report.index_bytes())
        );
        entries.push(format!(
            "    {{\"config\": \"{config}\", \"seq_micros\": {}, \"par_micros\": {}, \
             \"measured_speedup\": {measured:.3}, \"report\": {}}}",
            seq_dt.as_micros(),
            par_dt.as_micros(),
            report.to_json()
        ));
    }
    rule(100);
    println!(
        "\"speedup\" is measured wall clock (sequential/parallel); \"crit path\" is the single\n\
         costliest meta-document build — the floor for any schedule. Frameworks are identical\n\
         regardless of thread count."
    );
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"max_speedup\": {max_speedup:.3},\n  \"configs\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    // flixcheck: allow(unsynced-write): bench artifact, not durable state; losing it on crash only costs a rerun
    match std::fs::write("BENCH_build.json", &json) {
        Ok(()) => println!("wrote BENCH_build.json\n"),
        Err(e) => eprintln!("warning: could not write BENCH_build.json: {e}"),
    }
}

/// Table 1: index sizes per strategy.
fn table1(built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Table 1: index sizes ==");
    println!(
        "paper (qualitative): HOPI huge >> HOPI-20000 > HOPI-5000 ≈ 2×APEX > PPO-naive ≈ MaximalPPO"
    );
    rule(78);
    println!(
        "{:<12} {:>10} {:>12} {:>10} {:>8} {:>8} {:>8}",
        "index", "size [MB]", "build", "metas", "PPO", "HOPI", "APEX"
    );
    rule(78);
    for (config, flix, dt) in built {
        let st = flix.stats();
        println!(
            "{:<12} {:>10} {:>12.1?} {:>10} {:>8} {:>8} {:>8}",
            config.to_string(),
            mb(st.index_bytes),
            *dt,
            st.meta_docs,
            st.ppo_metas,
            st.hopi_metas,
            st.apex_metas
        );
    }
    rule(78);
    println!();
}

/// Figure 5: time to return the first k results of the a//article query.
fn figure5(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Figure 5: time to first k results of a//article ==");
    let start = figure5_start(cg);
    let tag = figure5_tag(cg);
    let (doc, _) = cg.local_of(start);
    let total = built[0]
        .1
        .find_descendants(start, tag, &QueryOptions::default())
        .len();
    println!(
        "start element: root of {:?}; {} total results",
        cg.collection.doc(doc).name,
        total
    );
    let ks = [1usize, 2, 5, 10, 20, 50, 100];
    rule(100);
    print!("{:<12}", "k");
    for k in ks {
        print!("{k:>12}");
    }
    println!();
    rule(100);
    for (config, flix, _) in built {
        // median over several runs to smooth the first-touch effects
        let mut rows: Vec<Vec<Duration>> = Vec::new();
        for _ in 0..5 {
            let series = time_to_k_results(flix, start, tag, &ks);
            rows.push(series.into_iter().map(|(_, d)| d).collect());
        }
        print!("{:<12}", config.to_string());
        for i in 0..ks.len() {
            let mut col: Vec<Duration> = rows.iter().map(|r| r[i]).collect();
            col.sort_unstable();
            print!("{:>12.1?}", col[col.len() / 2]);
        }
        println!();
    }
    rule(100);
    // The paper's absolute times are dominated by database round trips (one
    // per meta-document index lookup) and row fetches; replay the same
    // evaluations through that cost model.
    println!("DB-emulated (2 ms per index lookup, 40 µs per row — the paper's deployment):");
    rule(100);
    let model = DbCostModel::default();
    for (config, flix, _) in built {
        let series = emulated_time_to_k(flix, start, tag, &ks, model);
        print!("{:<12}", config.to_string());
        for (_, d) in series {
            print!("{d:>12.1?}");
        }
        println!();
    }
    rule(100);
    println!(
        "paper: HOPI flat (~0.6 s); HOPI-5000/20000 faster to first results; MaximalPPO fastest\n\
         first, degrading later; PPO-naive slowest throughout (absolute numbers were DB-bound).\n"
    );
}

/// §6 error rates: fraction of results returned out of distance order.
fn errors(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Error rates (fraction of results out of ascending-distance order) ==");
    println!("paper: HOPI-5000 8.2%, HOPI-20000 10.4%, MaximalPPO 13.3%, exact indexes 0%");
    let queries: Vec<(NodeId, u32)> = {
        let mut qs: Vec<(NodeId, u32)> = descendant_queries(cg, 20, 41)
            .into_iter()
            .map(|q| (q.start, q.target_tag))
            .collect();
        qs.push((figure5_start(cg), figure5_tag(cg)));
        qs
    };
    rule(56);
    println!("{:<12} {:>16} {:>16}", "index", "order breaks", "displaced");
    rule(56);
    for (config, flix, _) in built {
        let e = error_rates(flix, cg, &queries);
        println!(
            "{:<12} {:>15.1}% {:>15.1}%",
            config.to_string(),
            e.adjacent * 100.0,
            e.displaced * 100.0
        );
    }
    rule(56);
    println!(
        "\"order breaks\" counts stream positions where distance drops (the literal reading of\n\
         \"returned in wrong order\" for a block-streamed evaluator); \"displaced\" counts every\n\
         result that any later result should have preceded.\n"
    );
}

/// §6 connection tests: same ranking trend, lower absolute numbers.
fn connect(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Connection tests a//b ==");
    let pairs = connection_pairs(cg, 40, 17);
    let reachable = pairs.iter().filter(|p| p.reachable).count();
    println!(
        "{} pairs ({} reachable, {} unreachable)",
        pairs.len(),
        reachable,
        pairs.len() - reachable
    );
    rule(60);
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "index", "median/query", "total", "correct"
    );
    rule(60);
    for (config, flix, _) in built {
        let mut correct = 0usize;
        let (_, total) = time_once(|| {
            for p in &pairs {
                let got = flix.connection_test(p.from, p.to, &QueryOptions::default());
                if got.distance.is_some() == p.reachable {
                    correct += 1;
                }
            }
        });
        let median = time_median(3, || {
            for p in pairs.iter().take(8) {
                let _warm = flix.connection_test(p.from, p.to, &QueryOptions::default());
            }
        }) / 8;
        println!(
            "{:<12} {:>14.1?} {:>14.1?} {:>7}/{}",
            config.to_string(),
            median,
            total,
            correct,
            pairs.len()
        );
    }
    rule(60);
    println!("paper: same performance trend as Figure 5, lower absolute numbers\n");
}

/// Figure 1/3 qualitative check: on a mixed collection the Hybrid
/// configuration uses PPO for the tree region and HOPI for the dense one.
fn hybrid(scale: f64) {
    println!("== Hybrid partitioning on a mixed collection (paper Fig. 1) ==");
    let cfg = MixedConfig {
        trees: workloads::TreeConfig {
            documents: ((200.0 * scale) as usize).max(20),
            elements_per_doc: 80,
            ..workloads::TreeConfig::default()
        },
        web: workloads::WebConfig {
            documents: ((120.0 * scale) as usize).max(12),
            elements_per_doc: 60,
            ..workloads::WebConfig::default()
        },
        bridge_links: 10,
        seed: 3,
    };
    let cg = Arc::new(generate_mixed(&cfg).seal());
    let s = cg.stats();
    println!(
        "mixed corpus: {} docs, {} elements, {} links",
        s.documents, s.elements, s.links
    );
    rule(70);
    println!(
        "{:<14} {:>10} {:>8} {:>8} {:>8} {:>12}",
        "config", "size [MB]", "PPO", "HOPI", "APEX", "query"
    );
    rule(70);
    let tag = cg.collection.tags.get("t0").unwrap();
    let start = cg.doc_root(0);
    for config in [
        FlixConfig::Hybrid {
            partition_size: 5_000,
        },
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi {
            partition_size: 5_000,
        },
        FlixConfig::Naive,
    ] {
        let flix = Flix::build(cg.clone(), config);
        let st = flix.stats();
        let q = time_median(5, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::default());
        });
        println!(
            "{:<14} {:>10} {:>8} {:>8} {:>8} {:>12.1?}",
            config.to_string(),
            mb(st.index_bytes),
            st.ppo_metas,
            st.hopi_metas,
            st.apex_metas,
            q
        );
    }
    rule(70);
    println!("expected: Hybrid mixes PPO metas (tree region) with HOPI metas (web region)\n");
}

/// Ablation A: Unconnected-HOPI partition-size sweep.
fn ablation_partition(cg: &Arc<CollectionGraph>) {
    println!("== Ablation A: partition size vs build/size/query (Unconnected HOPI) ==");
    let start = figure5_start(cg);
    let tag = figure5_tag(cg);
    rule(86);
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "cap", "metas", "size [MB]", "build", "full query", "top-10", "runtime links"
    );
    rule(86);
    for cap in [1_000usize, 2_000, 5_000, 10_000, 20_000, 50_000] {
        let (flix, build) = time_once(|| {
            Flix::build(
                cg.clone(),
                FlixConfig::UnconnectedHopi {
                    partition_size: cap,
                },
            )
        });
        let st = flix.stats();
        let full = time_median(3, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::default());
        });
        let topk = time_median(3, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::top_k(10));
        });
        println!(
            "{:<10} {:>8} {:>10} {:>12.1?} {:>12.1?} {:>12.1?} {:>12}",
            cap,
            st.meta_docs,
            mb(st.index_bytes),
            build,
            full,
            topk,
            st.runtime_links
        );
    }
    rule(86);
    println!("expected: bigger partitions -> fewer runtime links, bigger labels, slower build\n");
}

/// Ablation B: entry-point duplicate elimination (§5.1) vs remembering
/// every returned result.
fn ablation_dedup(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Ablation B: §5.1 entry-point dedup vs naive full-result dedup ==");
    let start = figure5_start(cg);
    let tag = figure5_tag(cg);
    rule(78);
    println!(
        "{:<12} {:>14} {:>14} {:>16} {:>16}",
        "config", "entry-point", "naive dedup", "dedup-set size", "results"
    );
    rule(78);
    for (config, flix, _) in built {
        if matches!(config, FlixConfig::Monolithic(_)) {
            continue; // no cross-meta traversal, nothing to deduplicate
        }
        let fast = time_median(3, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::default());
        });
        let mut set_size = 0usize;
        let mut results = 0usize;
        let naive = time_median(3, || {
            let (r, s) = naive_dedup_descendants(flix, start, tag);
            results = r;
            set_size = s;
        });
        println!(
            "{:<12} {:>14.1?} {:>14.1?} {:>16} {:>16}",
            config.to_string(),
            fast,
            naive,
            set_size,
            results
        );
    }
    rule(78);
    println!(
        "the naive variant keeps every returned node in memory; §5.1 keeps entry points only\n"
    );
}

/// Figure 5 over disk-resident indexes: the Fig. 4 loop loading meta
/// documents from the page store on demand, reporting real page I/O.
fn figure5_disk(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    use flix::DiskFlix;
    use pagestore::{BlobStore, BufferPool, DiskManager, MemDisk};

    println!("== Figure 5 (disk-resident): a//article with on-demand index loads ==");
    let start = figure5_start(cg);
    let tag = figure5_tag(cg);
    rule(96);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "config", "full query", "top-10", "page reads", "idx loads", "idx cache hit", "results"
    );
    rule(96);
    for (config, flix, _) in built {
        let disk = Arc::new(MemDisk::new());
        // pool sized well below the full index set; index cache of 8 metas
        let pool = Arc::new(BufferPool::new(disk.clone(), 128));
        let store = BlobStore::new(pool);
        let dflix = match DiskFlix::save_and_open(flix, store, "fw", 8) {
            Ok(d) => d,
            Err(e) => {
                println!("{:<12} persist failed: {e}", config.to_string());
                continue;
            }
        };
        let writes_done = disk.stats().reads;
        let (results, full) = time_once(|| {
            dflix
                .find_descendants(start, tag, &QueryOptions::default())
                .map_or(0, |r| r.len())
        });
        let (_, topk) = time_once(|| {
            dflix
                .find_descendants(start, tag, &QueryOptions::top_k(10))
                .map_or(0, |r| r.len())
        });
        let st = dflix.stats();
        let reads = disk.stats().reads - writes_done;
        let hit_rate = if st.cache_hits + st.cache_misses > 0 {
            100.0 * st.cache_hits as f64 / (st.cache_hits + st.cache_misses) as f64
        } else {
            0.0
        };
        println!(
            "{:<12} {:>12.1?} {:>12.1?} {:>12} {:>14} {:>13.1}% {:>12}",
            config.to_string(),
            full,
            topk,
            reads,
            st.cache_misses,
            hit_rate,
            results
        );
    }
    rule(96);
    println!(
        "page reads are true buffer-pool misses; the paper's absolute times were exactly this I/O
"
    );
}

/// Ablation C: the §7 exact-ordering option vs the default approximate
/// block streaming — what perfect order costs in time-to-first-result.
fn ablation_exact(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Ablation C: approximate (default) vs exact result ordering (§7 option) ==");
    let start = figure5_start(cg);
    let tag = figure5_tag(cg);
    rule(86);
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "config", "approx first", "exact first", "approx full", "exact full", "breaks->0"
    );
    rule(86);
    for (config, flix, _) in built {
        if matches!(config, FlixConfig::Monolithic(_)) {
            continue; // already exact
        }
        let approx_first = time_median(5, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::top_k(1));
        });
        let exact_first = time_median(5, || {
            let opts = QueryOptions {
                exact_order: true,
                max_results: Some(1),
                ..QueryOptions::default()
            };
            let _warm = flix.find_descendants(start, tag, &opts);
        });
        let approx_full = time_median(3, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::default());
        });
        let exact_full = time_median(3, || {
            let _warm = flix.find_descendants(start, tag, &QueryOptions::exact());
        });
        // verify the sorted-order claim while we are here
        let res = flix.find_descendants(start, tag, &QueryOptions::exact());
        let sorted = res.windows(2).all(|w| w[0].distance <= w[1].distance);
        println!(
            "{:<12} {:>14.1?} {:>14.1?} {:>14.1?} {:>14.1?} {:>12}",
            config.to_string(),
            approx_first,
            exact_first,
            approx_full,
            exact_full,
            if sorted { "yes" } else { "NO" }
        );
    }
    rule(86);
    println!(
        "exact ordering trades time-to-first-result (and memory) for a 0% error rate
"
    );
}

/// Ablation D: unidirectional vs bidirectional connection tests (§5.2).
fn ablation_bidir(cg: &CollectionGraph, built: &[(FlixConfig, Arc<Flix>, Duration)]) {
    println!("== Ablation D: unidirectional vs bidirectional connection tests (§5.2) ==");
    let pairs = connection_pairs(cg, 24, 23);
    rule(64);
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "config", "unidirectional", "bidirectional", "agree"
    );
    rule(64);
    for (config, flix, _) in built {
        let mut agree = 0usize;
        for p in &pairs {
            let a = flix
                .connection_test(p.from, p.to, &QueryOptions::default())
                .distance
                .is_some();
            let b = flix
                .connection_test_bidirectional(p.from, p.to, &QueryOptions::default())
                .distance
                .is_some();
            if a == b && a == p.reachable {
                agree += 1;
            }
        }
        let uni = time_median(3, || {
            for p in pairs.iter().take(8) {
                let _warm = flix.connection_test(p.from, p.to, &QueryOptions::default());
            }
        }) / 8;
        let bi = time_median(3, || {
            for p in pairs.iter().take(8) {
                let _warm =
                    flix.connection_test_bidirectional(p.from, p.to, &QueryOptions::default());
            }
        }) / 8;
        println!(
            "{:<12} {:>16.1?} {:>16.1?} {:>7}/{}",
            config.to_string(),
            uni,
            bi,
            agree,
            pairs.len()
        );
    }
    rule(64);
    println!(
        "the backward search wins when the target has a small ancestor cone
"
    );
}

/// The strawman the paper argues against in §5.1: chase links without
/// entry-point subsumption and deduplicate by remembering every result.
/// Returns (result count, dedup-set size).
fn naive_dedup_descendants(flix: &Flix, start: NodeId, tag: u32) -> (usize, usize) {
    let mut seen_results: HashSet<NodeId> = HashSet::new();
    let mut visited_entries: HashSet<NodeId> = HashSet::new();
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0u32, start)));
    let mut results = 0usize;
    while let Some(std::cmp::Reverse((d, e))) = heap.pop() {
        if !visited_entries.insert(e) {
            continue;
        }
        let meta = flix.meta_of(e);
        let md = flix.meta(meta);
        let local = flix.local_of(e);
        for (r, dr) in md.index.descendants_by_label(local, tag, e != start) {
            let global = flix.global_of(meta, r);
            let _ = dr;
            if seen_results.insert(global) {
                results += 1;
            }
        }
        for (ls, dls) in md.reachable_link_sources(local) {
            let src = flix.global_of(meta, ls);
            for &(_, tgt) in flix.links_out_of(src) {
                heap.push(std::cmp::Reverse((d + dls + 1, tgt)));
            }
        }
    }
    // every result plus every entry point is retained in memory
    (results, seen_results.len() + visited_entries.len())
}
