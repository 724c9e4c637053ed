//! Observation must not perturb evaluation.
//!
//! The evaluator treats an attached [`flixobs::QueryTrace`] as write-only:
//! no branch of the algorithm consults it. These tests pin that guarantee
//! down — the result stream is identical with tracing on and off, across
//! every strategy, under early termination, and under exact ordering — and
//! check that the trace's three stages tile the evaluation: their spans are
//! the pops [`flix::PeeStats`] counts and their sum is the total, over one
//! pass or several; the counts in turn account for every entry queued. The last test is the metric catalog: everything the
//! `publish*` functions export has HELP text and a row in DESIGN.md §7.

use flix::StrategyKind;
use flix::{Axis, Flix, FlixConfig, Query, QueryBackend, QueryCtx, QueryOptions, Start};
use flixobs::{Deadline, QueryTrace, SpanStage};
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::Arc;
use workloads::{connection_pairs, descendant_queries, generate_web, WebConfig};
use xmlgraph::CollectionGraph;

fn corpus(seed: u64, docs: usize) -> Arc<CollectionGraph> {
    let cfg = WebConfig {
        documents: docs.max(4),
        elements_per_doc: 30,
        seed,
        ..WebConfig::default()
    };
    Arc::new(generate_web(&cfg).seal())
}

fn strategies() -> Vec<FlixConfig> {
    vec![
        FlixConfig::Monolithic(StrategyKind::Hopi),
        FlixConfig::Monolithic(StrategyKind::Apex),
        FlixConfig::Naive,
        FlixConfig::UnconnectedHopi { partition_size: 64 },
        FlixConfig::MaximalPpo,
    ]
}

/// `Σ stage nanos / 1000 == total_micros()`: the total is derived from the
/// stages, so no pass can make the two disagree.
fn assert_total_is_the_stage_sum(trace: &QueryTrace, what: &str) {
    let nanos: u64 = SpanStage::ALL
        .iter()
        .map(|&stage| trace.stage_totals(stage).nanos)
        .sum();
    assert_eq!(trace.total_micros(), nanos / 1_000, "{what}");
}

/// Traced evaluation returns the same bytes as untraced evaluation, for
/// every strategy, and the trace's three stages tile it however it ends:
/// each queue entry processed closes one `queue_pop` span, each answered
/// one a `block_fetch` and a `link_expand` span, and one closing lap
/// charges whatever ended the evaluation to the pop it interrupted.
#[test]
fn traced_results_identical_across_strategies() {
    let cg = corpus(5, 10);
    let queries = descendant_queries(&cg, 10, 3);
    for config in strategies() {
        let flix = Flix::build(cg.clone(), config);
        for q in &queries {
            for opts in [
                QueryOptions::default(),
                QueryOptions::top_k(3),
                QueryOptions::within(4),
                QueryOptions::exact(),
                QueryOptions::default().with_deadline(Deadline::within_micros(0)),
            ] {
                let plain = flix.find_descendants(q.start, q.target_tag, &opts);
                let mut trace = QueryTrace::new("t");
                let (traced, stats) =
                    flix.find_descendants_with_trace(q.start, q.target_tag, &opts, &mut trace);
                assert_eq!(plain, traced, "{config} start {} diverged", q.start);
                assert_eq!(
                    format!("{plain:?}"),
                    format!("{traced:?}"),
                    "debug renderings must be byte-identical"
                );
                let what = format!("{config} start {} {opts:?}", q.start);
                assert_total_is_the_stage_sum(&trace, &what);
                let spans = |stage| trace.stage_totals(stage).spans;
                let (popped, subsumed) =
                    (stats.entries_popped as u64, stats.entries_subsumed as u64);
                assert_eq!(spans(SpanStage::QueuePop), popped + subsumed + 1, "{what}");
                assert_eq!(spans(SpanStage::BlockFetch), popped, "{what}");
                // A result cap reached while a block was being handed out
                // ends the evaluation before that pop's links are expanded.
                let cut_in_fetch = !opts.exact_order && opts.max_results == Some(traced.len());
                let links = popped - u64::from(cut_in_fetch);
                assert_eq!(spans(SpanStage::LinkExpand), links, "{what}");
            }
        }
        // A connection test both ways and an `A//B` query: the same bytes
        // and counters, and spans that tile — one closing lap a side.
        let p = connection_pairs(&cg, 4, 3)
            .into_iter()
            .find(|p| p.from != p.to)
            .unwrap();
        let a_b = Query {
            from: Start::Tag(queries[0].target_tag),
            ..Query::descendants(0, queries[1].target_tag, QueryOptions::default())
        };
        let connection = Query::connection(p.from, p.to, true, QueryOptions::default());
        for (query, sides) in [(connection, 2), (a_b, 1)] {
            let plain = flix.evaluate(&query, &mut QueryCtx::default());
            let mut trace = QueryTrace::new("t");
            let mut ctx = QueryCtx {
                trace: Some(&mut trace),
                journal: None,
            };
            let traced = flix.evaluate(&query, &mut ctx);
            let what = format!("{config} {query:?}");
            assert_eq!(plain.results, traced.results, "{what}");
            assert_eq!(plain.stats, traced.stats, "{what}");
            assert_total_is_the_stage_sum(&trace, &what);
            let spans = |stage| trace.stage_totals(stage).spans as usize;
            let stats = traced.stats;
            let processed = stats.entries_popped + stats.entries_subsumed;
            assert_eq!(spans(SpanStage::QueuePop), processed + sides, "{what}");
            assert_eq!(spans(SpanStage::BlockFetch), stats.entries_popped, "{what}");
            assert_eq!(spans(SpanStage::LinkExpand), stats.entries_popped, "{what}");
        }
    }
}

/// The counters tile the queue as the spans tile the time: every entry an
/// evaluation queues — its seed, and one per link expanded — is accounted
/// for exactly once when the queue drains, as answered (`entries_popped`),
/// popped and dropped (`entries_subsumed`), or refused before it reached
/// the heap (`entries_refused`). Whatever stops an evaluation early leaves
/// entries queued: the left side only gets smaller.
#[test]
fn every_queued_entry_is_popped_subsumed_or_refused() {
    let cg = corpus(5, 10);
    let queries = descendant_queries(&cg, 10, 3);
    let ends = |stats: flix::PeeStats, seeds: usize| {
        let left = stats.entries_popped + stats.entries_subsumed + stats.entries_refused;
        (left, seeds + stats.links_expanded)
    };
    let (mut refused, mut drained_tests) = (0, 0);
    for config in strategies() {
        let flix = Flix::build(cg.clone(), config);
        for q in &queries {
            for axis in [Axis::Descendants, Axis::Ancestors] {
                let run = |opts| {
                    let query = Query {
                        axis,
                        ..Query::descendants(q.start, q.target_tag, opts)
                    };
                    flix.evaluate(&query, &mut QueryCtx::default()).stats
                };
                let what = format!("{config} {axis:?} start {}", q.start);
                for drained in [QueryOptions::default(), QueryOptions::exact()] {
                    let stats = run(drained);
                    let (left, queued) = ends(stats, 1);
                    assert_eq!(left, queued, "{what} {drained:?}: {stats:?}");
                    refused += stats.entries_refused;
                }
                for cut in [
                    QueryOptions::top_k(3),
                    QueryOptions::within(4),
                    QueryOptions::default().with_deadline(Deadline::within_micros(0)),
                ] {
                    let stats = run(cut);
                    let (left, queued) = ends(stats, 1);
                    assert!(left <= queued, "{what} {cut:?}: {stats:?}");
                }
            }
        }
        // A connection test queues one seed a side. An unconnected pair
        // drains a one-sided test; a confirmed distance, or the other side
        // of a bidirectional test ending first, leaves entries queued.
        for p in workloads::connection_pairs(&cg, 12, 3) {
            let what = format!("{config} {} -> {}", p.from, p.to);
            let test = |both_ways| {
                let query = Query::connection(p.from, p.to, both_ways, QueryOptions::default());
                flix.evaluate(&query, &mut QueryCtx::default())
            };
            let one = test(false);
            let (left, queued) = ends(one.stats, 1);
            if one.distance().is_none() {
                assert_eq!(left, queued, "{what}: {:?}", one.stats);
                drained_tests += 1;
            } else {
                assert!(left <= queued, "{what}: {:?}", one.stats);
            }
            let both = test(true);
            let (left, queued) = ends(both.stats, 2);
            assert!(left <= queued, "{what} both ways: {:?}", both.stats);
        }
    }
    assert!(refused > 0, "a linked web repeats link pushes");
    assert!(drained_tests > 0, "some pairs are not connected");
}

/// Early termination sees the same prefix with and without a trace
/// attached: breaking off the untraced stream after `cutoff` results and
/// capping the traced evaluation at `cutoff` stop at the same place.
#[test]
fn early_break_prefix_identical() {
    let cg = corpus(11, 8);
    let queries = descendant_queries(&cg, 6, 13);
    for config in strategies() {
        let flix = Flix::build(cg.clone(), config);
        for q in &queries {
            for cutoff in [1usize, 2, 5] {
                let mut plain = Vec::new();
                let query = Query::descendants(q.start, q.target_tag, QueryOptions::default());
                flix.for_each(&query, &mut QueryCtx::default(), |r, _| {
                    plain.push(r);
                    if plain.len() >= cutoff {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                let mut trace = QueryTrace::new("t");
                let (traced, _) = flix.find_descendants_with_trace(
                    q.start,
                    q.target_tag,
                    &QueryOptions::top_k(cutoff),
                    &mut trace,
                );
                assert_eq!(plain, traced, "{config} diverged at cutoff {cutoff}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomised corpora, query options, and strategies: traced and
    /// untraced evaluation always yield identical result streams.
    #[test]
    fn traced_and_untraced_streams_identical(
        seed in 0u64..500,
        docs in 4usize..10,
        qpick in 0usize..16,
        k in proptest::option::of(1usize..12),
        exact in 0u8..2,
    ) {
        let cg = corpus(seed, docs);
        let queries = descendant_queries(&cg, 6, seed.wrapping_mul(31).wrapping_add(1));
        if queries.is_empty() {
            return Ok(());
        }
        let q = &queries[qpick % queries.len()];
        let opts = QueryOptions {
            max_results: k,
            exact_order: exact == 1,
            ..QueryOptions::default()
        };
        for config in [
            FlixConfig::Naive,
            FlixConfig::UnconnectedHopi { partition_size: 100 },
            FlixConfig::MaximalPpo,
        ] {
            let flix = Flix::build(cg.clone(), config);
            let plain = flix.find_descendants(q.start, q.target_tag, &opts);
            let mut trace = QueryTrace::new("prop");
            let (traced, _) =
                flix.find_descendants_with_trace(q.start, q.target_tag, &opts, &mut trace);
            prop_assert_eq!(&plain, &traced, "{} diverged", config);
        }
    }
}

/// A shard-local attempt that escapes re-runs as a fan-out under the same
/// trace: the stages keep counting across both passes — the pass that was
/// thrown away took time too — and the total still is their sum.
#[test]
fn an_escaped_query_is_one_trace_over_both_passes() {
    let cg = corpus(5, 10);
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let sharded = flix::ShardedFlix::new(flix.clone(), 4);
    let opts = QueryOptions::top_k(50);
    let mut escapes = 0;
    for q in descendant_queries(&cg, 10, 3) {
        let before = sharded.stats().escaped;
        let mut trace = QueryTrace::new("escape");
        let mut ctx = QueryCtx {
            trace: Some(&mut trace),
            journal: None,
        };
        let query = Query::descendants(q.start, q.target_tag, opts);
        let answer = sharded.evaluate(&query, &mut ctx);
        assert_eq!(
            *answer.results,
            flix.find_descendants(q.start, q.target_tag, &opts),
            "start {}",
            q.start
        );
        assert_total_is_the_stage_sum(&trace, "sharded");
        if sharded.stats().escaped == before {
            continue;
        }
        escapes += 1;
        // The answer's counters are the fan-out pass's; the trace also
        // holds the escaped attempt: at least its escaping pop.
        let stats = answer.stats.expect("an evaluator ran");
        let processed = (stats.entries_popped + stats.entries_subsumed) as u64;
        assert!(trace.stage_totals(SpanStage::QueuePop).spans > processed + 1);
        // Retained spans tile across the pass boundary: none starts before
        // the one recorded ahead of it ended.
        for pair in trace.spans().windows(2) {
            assert!(pair[1].start_micros >= pair[0].start_micros + pair[0].duration_micros);
        }
    }
    assert!(
        escapes > 0,
        "a capped query over a linked web must escape its shard"
    );
}

// ---------------------------------------------------------------------
// Flight-recorder journal: concurrency and export well-formedness.
// ---------------------------------------------------------------------

/// Hammer one recorder from many writer threads while a reader snapshots
/// concurrently: snapshots must never tear (every surviving event decodes
/// to exactly what some writer appended), never panic, and the logged /
/// dropped accounting must reconcile with the ring capacity.
#[test]
fn journal_multi_writer_stress_never_tears() {
    use flixobs::{EventKind, FlightRecorder, RequestId};
    let workers = 4;
    let recorder = Arc::new(FlightRecorder::for_workers(workers, 64));
    let appends_per_thread = 2_000u64;
    std::thread::scope(|scope| {
        for t in 0..workers as u64 {
            let recorder = Arc::clone(&recorder);
            scope.spawn(move || {
                for i in 0..appends_per_thread {
                    // Self-validating payload: results encodes (thread, i),
                    // so a torn read would surface as an impossible value.
                    let payload = t * 1_000_000 + i;
                    // All threads hit ALL lanes: the ring is deliberately
                    // stressed beyond its single-writer design point.
                    let lane = (i % (workers as u64 + 1)) as usize;
                    recorder.record(
                        lane,
                        RequestId::new(t + 1),
                        EventKind::EvalEnd { results: payload },
                    );
                }
            });
        }
        // Concurrent reader: snapshots while the writers are appending.
        let recorder = Arc::clone(&recorder);
        scope.spawn(move || {
            for _ in 0..200 {
                let snapshot = recorder.snapshot();
                for e in &snapshot.events {
                    let flixobs::EventKind::EvalEnd { results } = e.kind else {
                        panic!("foreign event appeared: {:?}", e.kind);
                    };
                    let (t, i) = (results / 1_000_000, results % 1_000_000);
                    assert!(t < 4 && i < 2_000, "torn payload {results}");
                    assert_eq!(e.request, flixobs::RequestId::new(t + 1));
                }
            }
        });
    });
    let total = workers as u64 * appends_per_thread;
    assert_eq!(recorder.events_logged(), total);
    let snapshot = recorder.snapshot();
    // Each of the 5 lanes holds at most its capacity of survivors.
    assert!(snapshot.events.len() <= (workers + 1) * 64);
    assert!(!snapshot.events.is_empty());
    assert_eq!(snapshot.logged, total);
    assert!(snapshot.dropped >= total - ((workers as u64 + 1) * 64));
}

/// A minimal recursive-descent JSON syntax check — enough to catch any
/// malformed output from the hand-rolled Chrome-trace exporter.
fn json_well_formed(s: &str) -> Result<(), String> {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize, depth: usize) -> Result<usize, String> {
        if depth > 64 {
            return Err("nesting too deep".into());
        }
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = value(b, i + 1, depth + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, i, depth + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => lit(b, i, "true"),
            Some(b'f') => lit(b, i, "false"),
            Some(b'n') => lit(b, i, "null"),
            Some(_) => number(b, i),
            None => Err("unexpected end".into()),
        }
    }
    fn lit(b: &[u8], i: usize, word: &str) -> Result<usize, String> {
        if b[i..].starts_with(word.as_bytes()) {
            Ok(i + word.len())
        } else {
            Err(format!("bad literal at {i}"))
        }
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected string at {i}"));
        }
        let mut i = i + 1;
        while let Some(&c) = b.get(i) {
            match c {
                b'"' => return Ok(i + 1),
                b'\\' => i += 2,
                0x00..=0x1f => return Err(format!("raw control char at {i}")),
                _ => i += 1,
            }
        }
        Err("unterminated string".into())
    }
    fn number(b: &[u8], i: usize) -> Result<usize, String> {
        let start = i;
        let mut i = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        while i < b.len() && (b[i].is_ascii_digit() || b"+-.eE".contains(&b[i])) {
            i += 1;
        }
        if i == start {
            Err(format!("expected number at {i}"))
        } else {
            Ok(i)
        }
    }
    let b = s.as_bytes();
    let end = value(b, 0, 0)?;
    if skip_ws(b, end) != b.len() {
        return Err(format!("trailing garbage at {end}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random event streams — nested spans, instants, sheds, multiple
    /// requests, rings small enough to wrap — always export to
    /// syntactically well-formed Chrome-trace JSON whose per-request
    /// event sequences are time-monotonic and whose span events nest
    /// properly (every exported `X` span came from a matched
    /// EvalStart/EvalEnd pair on one lane).
    #[test]
    fn chrome_trace_export_is_well_formed(
        seed in 0u64..10_000,
        capacity in 8usize..256,
        events in 8usize..200,
        requests in 1u64..12,
    ) {
        use flixobs::{EventKind, FlightRecorder, RequestId};
        let recorder = FlightRecorder::for_workers(2, capacity);
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n.max(1)
        };
        // Per-lane span depth so EvalStart/EvalEnd stay properly nested
        // (the recorder's real callers guarantee this shape).
        let mut depth = [0u32; 3];
        for _ in 0..events {
            let lane = rand(3) as usize;
            let id = RequestId::new(rand(requests) + 1);
            match rand(6) {
                0 => recorder.record(lane, id, EventKind::Admitted),
                1 => recorder.record(lane, id, EventKind::Shed { in_flight: rand(100) }),
                2 => recorder.record(lane, id, EventKind::CacheHit { shard: rand(4) }),
                3 => recorder.record(lane, id, EventKind::Enqueued { depth: rand(2) }),
                _ => {
                    if depth[lane] > 0 && rand(2) == 0 {
                        recorder.record(lane, id, EventKind::EvalEnd { results: rand(50) });
                        depth[lane] -= 1;
                    } else {
                        recorder.record(lane, id, EventKind::EvalStart { shard: rand(4) });
                        depth[lane] += 1;
                    }
                }
            }
        }
        let snapshot = recorder.snapshot();
        let chrome = snapshot.to_chrome_trace();
        prop_assert!(
            json_well_formed(&chrome).is_ok(),
            "malformed chrome trace: {:?}\n{}",
            json_well_formed(&chrome),
            chrome
        );
        prop_assert!(chrome.contains("\"traceEvents\""));
        // Per-request monotonicity in the merged snapshot.
        for id in snapshot.request_ids() {
            let events = snapshot.request_events(id);
            prop_assert!(events.windows(2).all(|w| w[0].micros <= w[1].micros));
        }
        // Span pairing: the exporter emits exactly one X event per
        // EvalStart that found its matching EvalEnd on the same lane.
        let mut expected_spans = 0usize;
        for lane in 0..3 {
            let mut open = 0i64;
            for e in snapshot.events.iter().filter(|e| e.lane == lane) {
                match e.kind {
                    EventKind::EvalStart { .. } => open += 1,
                    EventKind::EvalEnd { .. } if open > 0 => {
                        open -= 1;
                        expected_spans += 1;
                    }
                    _ => {}
                }
            }
        }
        let exported_spans = chrome.matches("\"ph\":\"X\",\"pid\"").count()
            - chrome.matches("\"name\":\"queued\"").count();
        prop_assert_eq!(exported_spans, expected_spans);
    }
}
