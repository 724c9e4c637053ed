//! Concurrency correctness for the `flixserve` subsystem: whatever the
//! worker count, every served answer must equal the single-threaded
//! oracle exactly — including deadline-cut answers, which must be proper
//! prefixes of the oracle's distance-ordered result — and a drain must
//! finish admitted work while refusing new work with typed errors.

use flix::{Answer, CachedFlix, Flix, FlixConfig, QueryBackend, QueryCtx, QueryOptions};
use flix::{ShardedFlix, Start};
use flixobs::Deadline;
use flixserve::{FlixServer, Request, ServeConfig, ServeError};
use std::sync::{Arc, Condvar, Mutex};
use workloads::{
    connection_pairs, descendant_queries, generate_dblp, generate_mixed, generate_web, DblpConfig,
    MixedConfig, WebConfig,
};
use xmlgraph::CollectionGraph;

fn mixed_corpus() -> Arc<CollectionGraph> {
    let cfg = MixedConfig {
        trees: workloads::TreeConfig {
            documents: 30,
            elements_per_doc: 40,
            ..workloads::TreeConfig::default()
        },
        web: workloads::WebConfig {
            documents: 20,
            elements_per_doc: 35,
            ..workloads::WebConfig::default()
        },
        bridge_links: 6,
        seed: 23,
    };
    Arc::new(generate_mixed(&cfg).seal())
}

/// A larger cyclic corpus.
fn web_corpus() -> Arc<CollectionGraph> {
    let cfg = WebConfig {
        documents: 40,
        elements_per_doc: 80,
        ..WebConfig::default()
    };
    Arc::new(generate_web(&cfg).seal())
}

/// A randomized mix of descendants and ancestors requests under the four
/// standard option shapes (the last one — top-k within a distance — is what
/// shard routing can prove local), then connection tests one-sided and
/// both ways and `A//B` queries, each paired with the single-threaded
/// oracle answer.
fn oracle_mix(flix: &Flix, cg: &CollectionGraph) -> Vec<(Request, Vec<flix::QueryResult>)> {
    let mut mix = Vec::new();
    let queries = descendant_queries(cg, 40, 7);
    for (i, q) in queries.iter().enumerate() {
        let opts = match i % 4 {
            0 => QueryOptions::default(),
            1 => QueryOptions::top_k(5),
            2 => QueryOptions::exact(),
            _ => QueryOptions {
                max_distance: Some(2),
                ..QueryOptions::top_k(10)
            },
        };
        // Each shape alternates between the two axes.
        if (i / 4) % 2 == 0 {
            mix.push(Request::descendants(q.start, q.target_tag, opts));
        } else {
            mix.push(Request::ancestors(q.start, q.target_tag, opts));
        }
    }
    for (i, p) in connection_pairs(cg, 8, 7).into_iter().enumerate() {
        let both_ways = i % 2 == 1;
        mix.push(Request::connection(
            p.from,
            p.to,
            both_ways,
            QueryOptions::default(),
        ));
    }
    for pair in queries.windows(2).take(4) {
        let opts = QueryOptions::top_k(10);
        let request = Request::descendants(pair[0].start, pair[1].target_tag, opts);
        let from = Start::Tag(pair[0].target_tag);
        mix.push(Request { from, ..request });
    }
    let oracle = |request: &Request| flix.evaluate(request, &mut QueryCtx::default()).results;
    mix.into_iter().map(|r| (r, oracle(&r))).collect()
}

#[test]
fn concurrent_answers_match_the_single_threaded_oracle() {
    let cg = mixed_corpus();
    for config in [
        FlixConfig::Naive,
        FlixConfig::Hybrid {
            partition_size: 300,
        },
    ] {
        let flix = Arc::new(Flix::build(cg.clone(), config));
        let mix = oracle_mix(&flix, &cg);
        for workers in [1usize, 4] {
            let server = FlixServer::start(
                flix.clone(),
                ServeConfig {
                    workers,
                    ..ServeConfig::default()
                },
            );
            std::thread::scope(|scope| {
                for c in 0..4 {
                    let server = &server;
                    let mix = &mix;
                    scope.spawn(move || {
                        for (request, oracle) in mix.iter().skip(c).step_by(4) {
                            let response = server.query(*request).unwrap();
                            assert!(!response.timed_out, "{config}: no deadline was set");
                            assert_eq!(
                                *response.results, *oracle,
                                "{config}: {workers} workers, {request:?}"
                            );
                        }
                    });
                }
            });
            server.shutdown();
        }
    }
}

#[test]
fn deadline_cut_answers_are_prefixes_of_the_oracle() {
    let cg = web_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::MaximalPpo));
    let server = FlixServer::start(flix.clone(), ServeConfig::default());
    let queries = descendant_queries(&cg, 10, 11);
    for opts in [QueryOptions::default(), QueryOptions::exact()] {
        for q in &queries {
            let oracle = flix.find_descendants(q.start, q.target_tag, &opts);
            for budget in [0u64, 50, 500, 10_000_000] {
                let req = Request::descendants(
                    q.start,
                    q.target_tag,
                    opts.with_deadline(Deadline::within_micros(budget)),
                );
                let response = server.query(req).unwrap();
                assert!(
                    oracle.starts_with(&response.results),
                    "start {}: a deadline-cut answer must be a distance-ordered \
                     prefix of the full answer (budget {budget}µs)",
                    q.start
                );
                if budget == 0 {
                    assert!(response.timed_out);
                    assert!(response.results.is_empty());
                }
                if budget == 10_000_000 {
                    assert!(!response.timed_out, "ten seconds is plenty");
                    assert_eq!(*response.results, oracle);
                }
            }
        }
    }
    server.shutdown();
}

#[test]
fn drain_finishes_admitted_work_and_refuses_new() {
    let cg = mixed_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let mix = oracle_mix(&flix, &cg);
    let server = FlixServer::start(
        flix,
        ServeConfig {
            workers: 2,
            single_flight: false,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = mix
        .iter()
        .take(16)
        .map(|(request, _)| server.submit(*request).unwrap())
        .collect();
    server.shutdown();
    // Every admitted request completed, with the right answer.
    for (ticket, (_, oracle)) in tickets.into_iter().zip(&mix) {
        let response = ticket.wait().expect("admitted work survives a drain");
        assert_eq!(*response.results, **oracle);
    }
    // New work is refused with the typed drain error, not Overloaded.
    let (request, _) = &mix[0];
    assert_eq!(
        server.submit(*request).unwrap_err(),
        ServeError::ShuttingDown
    );
    // Metrics stay readable after the drain for a final scrape.
    let stats = server.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.in_flight, 0);
    // A second shutdown is a no-op.
    server.shutdown();
}

/// A backend whose every evaluation waits at a latch until the test opens
/// it, then answers as the framework behind it does: a worker that has
/// taken a request stays busy for exactly as long as the test says,
/// whatever the host's speed.
struct Latched {
    inner: Arc<Flix>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latched {
    fn over(inner: Arc<Flix>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            open: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

impl QueryBackend for Latched {
    fn evaluate(&self, query: &flix::Query, ctx: &mut QueryCtx<'_>) -> Answer {
        let open = self.open.lock().unwrap();
        drop(self.opened.wait_while(open, |open| !*open).unwrap());
        self.inner.evaluate(query, ctx).into()
    }

    fn framework(self: Arc<Self>) -> Arc<Flix> {
        Arc::clone(&self.inner)
    }

    fn over(self: Arc<Self>, _rebuilt: Arc<Flix>) -> Arc<dyn QueryBackend> {
        self
    }
}

#[test]
fn overload_sheds_with_typed_errors() {
    let cg = web_corpus();
    let backend = Latched::over(Arc::new(Flix::build(cg.clone(), FlixConfig::Naive)));
    let server = FlixServer::start(
        Arc::clone(&backend),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_in_flight: 1,
            single_flight: false,
        },
    );
    let q = descendant_queries(&cg, 1, 3)[0];
    let heavy = Request::descendants(q.start, q.target_tag, QueryOptions::exact());
    let blocker = server.submit(heavy).unwrap();
    let mut sheds = 0;
    let mut tickets = vec![blocker];
    for _ in 0..8 {
        match server.submit(heavy) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { in_flight, .. }) => {
                assert!(in_flight >= 1, "rejection reports the pressure it saw");
                sheds += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(sheds >= 1, "a full server must shed rather than buffer");
    backend.open();
    for ticket in tickets {
        ticket.wait().expect("admitted work still completes");
    }
    assert_eq!(server.stats().shed, sheds);
    server.shutdown();
}

#[test]
fn identical_in_flight_queries_collapse() {
    let cg = web_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let backend = Latched::over(flix.clone());
    let server = FlixServer::start(
        Arc::clone(&backend),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let queries = descendant_queries(&cg, 2, 5);
    // The latch holds the single worker inside the leader's evaluation (or
    // the leader in the queue behind nothing) until the whole identical
    // burst is submitted: the leader cannot complete before every follower
    // has attached.
    let shared = Request::descendants(
        queries[1].start,
        queries[1].target_tag,
        QueryOptions::exact(),
    );
    let oracle = flix.find_descendants(
        queries[1].start,
        queries[1].target_tag,
        &QueryOptions::exact(),
    );
    let tickets: Vec<_> = (0..4).map(|_| server.submit(shared).unwrap()).collect();
    backend.open();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("collapsed queries all get the answer"))
        .collect();
    for response in &responses {
        assert_eq!(*response.results, oracle);
    }
    assert!(
        responses.iter().filter(|r| r.collapsed).count() >= 3,
        "followers ride the leader's evaluation"
    );
    assert!(server.stats().collapsed >= 3);
    server.shutdown();
}

/// A small DBLP-like citation corpus (mostly-isolated documents with a
/// skewed citation minority) for the sharding property tests.
fn dblp_corpus() -> Arc<CollectionGraph> {
    let cfg = DblpConfig {
        documents: 120,
        seed: 7,
        ..DblpConfig::default()
    };
    Arc::new(generate_dblp(&cfg).seal())
}

/// The sharding property (ISSUE 7): at every shard count, a server over a
/// [`ShardedFlix`] returns byte-for-byte the unsharded oracle's results —
/// single-shard queries served shard-locally and multi-shard queries
/// through the cross-shard fan-out alike. Runs over both a DBLP-like
/// citation corpus and a random cyclic web, under the four standard
/// option shapes including `exact()`.
#[test]
fn sharded_serving_matches_the_unsharded_oracle_at_every_shard_count() {
    for (name, cg) in [("dblp", dblp_corpus()), ("web", web_corpus())] {
        let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
        let mix = oracle_mix(&flix, &cg);
        for shards in [1usize, 2, 7] {
            let sharded = Arc::new(ShardedFlix::new(flix.clone(), shards));
            let server = FlixServer::start(
                sharded,
                ServeConfig {
                    workers: 4,
                    single_flight: false,
                    ..ServeConfig::default()
                },
            );
            std::thread::scope(|scope| {
                for c in 0..4 {
                    let server = &server;
                    let mix = &mix;
                    scope.spawn(move || {
                        for (request, oracle) in mix.iter().skip(c).step_by(4) {
                            let response = server.query(*request).unwrap();
                            assert!(!response.timed_out, "{name}: no deadline was set");
                            assert_eq!(
                                *response.results, *oracle,
                                "{name}: {shards} shards, {request:?}"
                            );
                        }
                    });
                }
            });
            server.shutdown();
        }
    }
}

/// Deadline-cut sharded answers are proper prefixes of the unsharded
/// oracle's distance-ordered result — the truncation point may differ
/// from the unsharded server's (an escaped query restarts its clock-
/// burdened evaluation on the fan-out view) but never the order.
#[test]
fn sharded_deadline_cuts_are_prefixes_of_the_unsharded_oracle() {
    let cg = dblp_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let queries = descendant_queries(&cg, 8, 11);
    for shards in [2usize, 7] {
        let sharded = Arc::new(ShardedFlix::new(flix.clone(), shards));
        let server = FlixServer::start(sharded, ServeConfig::default());
        for opts in [QueryOptions::default(), QueryOptions::exact()] {
            for q in &queries {
                let oracle = flix.find_descendants(q.start, q.target_tag, &opts);
                for budget in [0u64, 50, 10_000_000] {
                    let req = Request::descendants(
                        q.start,
                        q.target_tag,
                        opts.with_deadline(Deadline::within_micros(budget)),
                    );
                    let response = server.query(req).unwrap();
                    assert!(
                        oracle.starts_with(&response.results),
                        "{shards} shards, start {}: deadline-cut answer must be a \
                         prefix of the unsharded oracle (budget {budget}µs)",
                        q.start
                    );
                    if budget == 0 {
                        assert!(response.timed_out);
                        assert!(response.results.is_empty());
                    }
                    if budget == 10_000_000 {
                        assert!(!response.timed_out, "ten seconds is plenty");
                        assert_eq!(*response.results, oracle);
                    }
                }
            }
        }
        server.shutdown();
    }
}

/// The flight recorder is write-only: a traced server returns byte-for-
/// byte the same answers as an untraced one over every backend — complete
/// answers, empty zero-budget cuts, and generous-budget answers alike —
/// while actually journaling events.
#[test]
fn traced_server_answers_are_bit_identical_to_untraced() {
    let cg = dblp_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let mix = oracle_mix(&flix, &cg);
    type BackendFactory = Box<dyn Fn() -> flixserve::Backend>;
    let backends: Vec<(&str, BackendFactory)> = vec![
        (
            "plain",
            Box::new({
                let flix = flix.clone();
                move || flixserve::Backend::from(flix.clone())
            }),
        ),
        (
            "cached",
            Box::new({
                let flix = flix.clone();
                move || flixserve::Backend::from(Arc::new(CachedFlix::new(flix.clone(), 64)))
            }),
        ),
        (
            "sharded",
            Box::new({
                let flix = flix.clone();
                move || flixserve::Backend::from(Arc::new(ShardedFlix::new(flix.clone(), 3)))
            }),
        ),
        (
            "sharded, cached",
            Box::new({
                let flix = flix.clone();
                move || {
                    let sharded = ShardedFlix::new(flix.clone(), 3).with_caches(16);
                    flixserve::Backend::from(Arc::new(sharded))
                }
            }),
        ),
    ];
    for (name, make) in &backends {
        let config = ServeConfig {
            workers: 2,
            single_flight: false,
            ..ServeConfig::default()
        };
        let plain_server = FlixServer::start(make(), config);
        let traced_server = FlixServer::start_traced(make(), config, 4096);
        assert!(plain_server.journal_snapshot().is_none());
        for (request, oracle) in &mix {
            let plain = plain_server.query(*request).unwrap();
            let traced = traced_server.query(*request).unwrap();
            assert_eq!(*plain.results, *oracle, "{name}: untraced diverged");
            assert_eq!(*traced.results, *oracle, "{name}: traced diverged");
            assert_eq!(plain.timed_out, traced.timed_out, "{name}");
        }
        // Deadline cuts: zero budget and a generous budget are the two
        // deterministic points — both servers must agree exactly (the cut
        // point of an intermediate budget is timing-dependent by design).
        for (request, oracle) in mix.iter().take(6) {
            for (budget, want_empty) in [(0u64, true), (10_000_000, false)] {
                let mut req = *request;
                req.opts = req.opts.with_deadline(Deadline::within_micros(budget));
                let plain = plain_server.query(req).unwrap();
                let traced = traced_server.query(req).unwrap();
                assert_eq!(*plain.results, *traced.results, "{name} budget {budget}");
                assert_eq!(plain.timed_out, traced.timed_out, "{name} budget {budget}");
                if want_empty {
                    // A zero budget expires before evaluation starts —
                    // unless the warm result cache answers without
                    // evaluating at all (the cached backend, by design).
                    assert!(
                        traced.results.is_empty() && traced.timed_out || *traced.results == *oracle,
                        "{name}: zero budget must cut to empty or hit the cache"
                    );
                } else {
                    assert_eq!(*traced.results, *oracle, "{name}: 10s is plenty");
                }
            }
        }
        let snapshot = traced_server.journal_snapshot().unwrap();
        assert!(
            snapshot.events.len() > mix.len(),
            "{name}: a traced server journals at least one event per request"
        );
        plain_server.shutdown();
        traced_server.shutdown();
    }
}

/// ISSUE 9 acceptance: one request's events — admission, queue handoff,
/// dequeue, shard-routing verdict, and evaluator spans, spread over the
/// submit lane and a worker lane — stitch into a single causally-ordered
/// trace keyed by its [`flixobs::RequestId`], and at least one request in
/// a multi-shard run actually crosses shards (fan-out or escape).
#[test]
fn fanout_request_events_stitch_into_one_causal_trace() {
    use flixobs::EventKind;
    let cg = dblp_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let sharded = Arc::new(ShardedFlix::new(flix.clone(), 4));
    let server = FlixServer::start_traced(
        Arc::clone(&sharded),
        ServeConfig {
            workers: 4,
            single_flight: false,
            ..ServeConfig::default()
        },
        8192,
    );
    // Uncapped queries over a citation graph: plenty fan out or escape.
    for q in descendant_queries(&cg, 40, 13) {
        server
            .query(Request::descendants(
                q.start,
                q.target_tag,
                QueryOptions::default(),
            ))
            .unwrap();
    }
    let snapshot = server.journal_snapshot().unwrap();
    assert_eq!(snapshot.dropped, 0, "capacity was sized for the run");
    let crossed: Vec<flixobs::RequestId> = snapshot
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
        .collect();
    assert!(
        !crossed.is_empty(),
        "at least one uncapped citation query must cross shards"
    );
    for id in &crossed {
        let events = snapshot.request_events(*id);
        // Causal order inside one request's trace: the merged snapshot is
        // sorted by time, and the lifecycle events appear in order.
        let pos = |pred: &dyn Fn(&EventKind) -> bool| events.iter().position(|e| pred(&e.kind));
        let admitted = pos(&|k| matches!(k, EventKind::Admitted)).expect("admitted");
        let enqueued = pos(&|k| matches!(k, EventKind::Enqueued { .. })).expect("enqueued");
        let dequeued = pos(&|k| matches!(k, EventKind::Dequeued { .. })).expect("dequeued");
        let eval = pos(&|k| matches!(k, EventKind::EvalStart { .. })).expect("eval start");
        assert!(admitted < enqueued && enqueued < dequeued && dequeued < eval);
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::EvalEnd { .. })),
            "every span closes"
        );
        // The submit lane and a worker lane both contributed: the trace
        // really does stitch across threads.
        assert!(events.iter().any(|e| e.lane == 0));
        assert!(events.iter().any(|e| e.lane > 0));
        // Timestamps are monotone within the request's merged view.
        assert!(events.windows(2).all(|w| w[0].micros <= w[1].micros));
        // And every one of these events belongs to this request.
        assert!(events.iter().all(|e| e.request == *id));
    }
    // The Chrome export carries the spans (ph:X) and instants for Perfetto.
    let chrome = snapshot.to_chrome_trace();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"ph\":\"i\""));
    server.shutdown();
}

/// The journal is the serve path's only per-request record: the slow-query
/// log hands out ids, and a slow request's timeline is its trace — down to
/// where its evaluation's time went (`stage_*`, one line per evaluator
/// stage that ran). A request answered from the result cache ran no
/// evaluator and shows none.
#[test]
fn a_slow_requests_timeline_holds_its_stage_times() {
    use flixobs::EventKind;
    let cg = dblp_corpus();
    let flix = Arc::new(Flix::build(cg.clone(), FlixConfig::Naive));
    let cached = Arc::new(flix::CachedFlix::new(flix, 64));
    let server = FlixServer::start_traced(cached, ServeConfig::default(), 4096);
    let queries = descendant_queries(&cg, 8, 13);
    // Every query is cached after its first evaluation: the last is a hit.
    for q in queries.iter().chain(&queries[..1]) {
        let request = Request::descendants(q.start, q.target_tag, QueryOptions::default());
        server.query(request).unwrap();
    }
    let journal = server.journal_snapshot().unwrap();
    assert_eq!(journal.dropped, 0, "capacity was sized for the run");

    let slow = server
        .slow_queries()
        .into_iter()
        .find(|s| journal.timeline(s.request).contains("cache_miss"))
        .expect("the slow-query log retains an evaluated request");
    let timeline = journal.timeline(slow.request);
    assert!(timeline.contains("stage_queue_pop"), "{timeline}");
    let stage_micros: u64 = journal
        .request_events(slow.request)
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::StageQueuePop { micros }
            | EventKind::StageBlockFetch { micros }
            | EventKind::StageLinkExpand { micros } => Some(micros),
            _ => None,
        })
        .sum();
    let (label, total) = (&slow.label, slow.total_micros);
    assert!(
        stage_micros <= total,
        "{label} evaluated for {stage_micros}us of {total}us:\n{timeline}"
    );

    let hit = *journal.request_ids().last().unwrap();
    let timeline = journal.timeline(hit);
    assert!(timeline.contains("cache_hit"), "{timeline}");
    assert!(!timeline.contains("stage_"), "{timeline}");
    server.shutdown();
}
