//! The worker-pool query server.
//!
//! A [`FlixServer`] owns N worker threads that take jobs from one
//! *bounded* queue. [`FlixServer::submit`] is the admission controller: it
//! rejects during drain, collapses duplicates of an in-flight query,
//! enforces the in-flight ceiling, and hands the request to the queue with
//! one non-blocking send — if the queue is full the request is shed with
//! [`ServeError::Overloaded`] rather than parked. Shedding keeps the
//! latency of *admitted* requests bounded by queue capacity instead of
//! growing with offered load, which is the whole point of bounding the
//! queue (see DESIGN.md §8). Whatever the backend — a
//! [`flix::ShardedFlix`] included — every worker serves every request.

use flix::{Axis, Goal, QueryBackend, QueryCtx, QueryResult, SharedLoadMonitor, Start};
use flixobs::{
    Counter, EventKind, FlightRecorder, JournalSnapshot, RequestId, SlowQuery, SlowQueryLog,
    Stopwatch,
};
use graphcore::Distance;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// One query request: the evaluator's own [`flix::Query`], every mode —
/// descendants, ancestors, `A//B`, connection tests — and its options,
/// the deadline included if the client sets one.
pub use flix::Query as Request;

/// The submit path records its journal events on lane 0; worker `w`
/// records on lane `w + 1` (see [`FlightRecorder::for_workers`]).
const SUBMIT_LANE: usize = 0;

/// Worst-request capacity of the server's slow-query log.
const SLOW_LOG_CAPACITY: usize = 8;

/// Server sizing and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads answering queries.
    pub workers: usize,
    /// Queue slots per worker: the one job queue holds
    /// `workers * queue_capacity` requests. Bounded by construction: the
    /// flixcheck `unbounded-channel` rule keeps it that way.
    pub queue_capacity: usize,
    /// Ceiling on admitted-but-unfinished requests across all workers.
    /// `0` means automatic: `workers * (queue_capacity + 1)` — the queue
    /// full plus one request executing per worker.
    pub max_in_flight: usize,
    /// Collapse identical in-flight queries onto one evaluation.
    pub single_flight: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            max_in_flight: 0,
            single_flight: true,
        }
    }
}

impl ServeConfig {
    fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// The in-flight ceiling the admission controller enforces:
    /// `max_in_flight`, or — when that is `0` (automatic) — the queue
    /// full plus one request executing per worker. Every
    /// [`ServeError::Overloaded`] reports an `in_flight` at or below this
    /// value (tested).
    pub fn effective_max_in_flight(&self) -> usize {
        if self.max_in_flight > 0 {
            self.max_in_flight
        } else {
            self.effective_workers() * (self.queue_capacity.max(1) + 1)
        }
    }
}

/// One query answer, as delivered to the submitting client.
#[derive(Debug, Clone)]
pub struct Response {
    /// The results — complete, or a distance-ordered prefix on timeout.
    /// Shared (`Arc`) so single-flight fan-out and cache hits cost no copy.
    pub results: Arc<Vec<QueryResult>>,
    /// True when the deadline cut the evaluation short.
    pub timed_out: bool,
    /// True when this response was fanned out from another request's
    /// evaluation by single-flight collapsing.
    pub collapsed: bool,
    /// Time the request sat queued before a worker picked it up.
    pub queue_micros: u64,
    /// End-to-end time from admission to completion.
    pub total_micros: u64,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control shed the request: the in-flight ceiling was
    /// reached or the job queue was full.
    Overloaded {
        /// Requests queued at rejection time.
        queued: usize,
        /// Admitted-but-unfinished requests at rejection time.
        in_flight: usize,
    },
    /// The server is draining: admitted work finishes, new work is refused.
    ShuttingDown,
    /// The serving side went away before answering (shutdown raced the
    /// request).
    Disconnected,
    /// The evaluation panicked. The worker contained it and keeps
    /// serving; this request (and any single-flight followers) has no
    /// answer.
    WorkerPanicked,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { queued, in_flight } => {
                write!(f, "overloaded: {queued} queued, {in_flight} in flight")
            }
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Disconnected => write!(f, "server disconnected before answering"),
            Self::WorkerPanicked => write!(f, "the evaluation panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The query engine behind a server: any [`QueryBackend`] — a plain
/// [`flix::Flix`], a [`flix::CachedFlix`] (descendants queries go through the
/// result cache), or a [`flix::ShardedFlix`] (the worker's evaluation
/// routes the query to the shard owning its start element).
///
/// Cloning is an `Arc` clone — the handle is copied, the engine is
/// shared. The server leans on this for hot swaps: each worker clones
/// the live backend out of a brief read lock per job, so a
/// [`FlixServer::swap_backend`] replaces the engine for *new* admissions
/// while every in-flight evaluation finishes on the backend it started
/// on.
#[derive(Clone)]
pub struct Backend(pub Arc<dyn QueryBackend>);

impl<B: QueryBackend + 'static> From<Arc<B>> for Backend {
    fn from(backend: Arc<B>) -> Self {
        Self(backend)
    }
}

/// Single-flight identity of a query: everything that determines its
/// answer, plus the deadline *budget* (not the deadline instance — two
/// requests with the same budget admitted moments apart may share an
/// evaluation; the collapsed one inherits the leader's cut, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SfKey {
    from: Start,
    to: Goal,
    axis: Axis,
    max_distance: Option<Distance>,
    max_results: Option<usize>,
    include_start: bool,
    exact_order: bool,
    deadline_budget: Option<u64>,
}

impl SfKey {
    fn of(req: &Request) -> Self {
        Self {
            from: req.from,
            to: req.to,
            axis: req.axis,
            max_distance: req.opts.max_distance,
            max_results: req.opts.max_results,
            include_start: req.opts.include_start,
            exact_order: req.opts.exact_order,
            deadline_budget: req.opts.deadline.map(|d| d.budget_micros()),
        }
    }
}

type Reply = crossbeam::channel::Sender<Result<Response, ServeError>>;

/// One in-flight single-flight registration: the leader's identity (so
/// followers can journal who they attached to) and the reply channels of
/// the followers waiting on its result.
struct SfEntry {
    leader: RequestId,
    waiters: Vec<Reply>,
}

struct Job {
    request: Request,
    id: RequestId,
    admitted: Stopwatch,
    reply: Reply,
    sf_key: Option<SfKey>,
}

/// The serving path's counters, read back by [`FlixServer::stats`].
#[derive(Default)]
struct ServeMetrics {
    submitted: Counter,
    completed: Counter,
    shed: Counter,
    timeouts: Counter,
    collapsed: Counter,
    worker_panics: Counter,
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted past the controller.
    pub submitted: u64,
    /// Requests answered (leaders; collapsed followers count separately).
    pub completed: u64,
    /// Requests rejected with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Answers cut short by their deadline.
    pub timed_out: u64,
    /// Follower responses served by single-flight fan-out.
    pub collapsed: u64,
    /// Evaluations that panicked; the worker answered with
    /// [`ServeError::WorkerPanicked`] and kept serving.
    pub worker_panics: u64,
    /// Requests currently queued, never more than [`Self::in_flight`].
    pub queued: usize,
    /// Admitted-but-unfinished requests right now.
    pub in_flight: usize,
    /// The in-flight ceiling admission enforces:
    /// [`ServeConfig::effective_max_in_flight`].
    pub max_in_flight: usize,
}

/// One backend generation: the engine and the load monitor fed by the
/// queries it evaluates. A swap replaces both at once, so a monitor
/// counts the traffic of exactly one backend.
#[derive(Clone)]
pub(crate) struct Live {
    pub(crate) backend: Backend,
    pub(crate) load: Arc<SharedLoadMonitor>,
}

impl Live {
    fn new(backend: Backend) -> Self {
        Self {
            backend,
            load: Arc::default(),
        }
    }
}

struct Shared {
    /// The live generation. Workers clone it (two `Arc` clones) out of a
    /// brief read lock per job, so [`FlixServer::swap_backend`] retargets
    /// new admissions while in-flight work finishes, and records its load,
    /// on the old generation.
    live: RwLock<Live>,
    /// Backend generation: `1` for the backend the server started with,
    /// bumped by every swap.
    generation: AtomicU64,
    config: ServeConfig,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    /// Requests counted into the queue and not yet taken out by a worker.
    /// `submit` counts a request before its send, so a worker's uncount
    /// never runs ahead of it.
    queued: AtomicUsize,
    /// The receiving end of the job queue. `std::mpsc` has one consumer,
    /// so the workers share it behind this lock, held across `recv` only.
    queue: Mutex<crossbeam::channel::Receiver<Job>>,
    single_flight: Mutex<HashMap<SfKey, SfEntry>>,
    metrics: ServeMetrics,
    slow_log: SlowQueryLog,
    /// The flight recorder, when this server was started traced
    /// ([`FlixServer::start_traced`]). `None` adds zero clock reads to the
    /// serve path: every journal site goes through [`Shared::journal`] or
    /// an `Option<&JournalHandle>` that is `None`.
    recorder: Option<Arc<FlightRecorder>>,
    /// Mints [`RequestId`]s; starts at 1 so id 0 stays [`RequestId::NONE`].
    next_request: AtomicU64,
}

impl Shared {
    /// Builds the shed error from a coherent `in_flight` snapshot taken
    /// at the rejection decision itself (the failed `fetch_update`'s
    /// observed value, or the post-decrement count on a queue-full shed).
    /// `queued` is clamped to it: every queued request is in flight, so a
    /// larger independently-loaded value can only be a torn read.
    fn overloaded(&self, in_flight: usize) -> ServeError {
        ServeError::Overloaded {
            queued: self.queued.load(SeqCst).min(in_flight),
            in_flight,
        }
    }

    /// Removes a single-flight registration and fails any followers that
    /// attached while the leader was being (unsuccessfully) admitted.
    fn abort_single_flight(&self, key: Option<SfKey>, error: &ServeError) {
        let Some(key) = key else { return };
        let waiters = self
            .single_flight
            .lock()
            .remove(&key)
            .map(|e| e.waiters)
            .unwrap_or_default();
        for waiter in waiters {
            self.metrics.shed.inc();
            // flixcheck: allow(swallowed-result): the waiter may have timed out and dropped its receiver; nothing to do
            let _ = waiter.send(Err(error.clone()));
        }
    }

    /// Records one journal event if the recorder is on. Off = a single
    /// `Option` check; no clock is read, no memory is touched.
    fn journal(&self, lane: usize, request: RequestId, kind: EventKind) {
        if let Some(recorder) = &self.recorder {
            recorder.record(lane, request, kind);
        }
    }

    /// Mints the next [`RequestId`] (never [`RequestId::NONE`]).
    fn mint(&self) -> RequestId {
        RequestId::new(self.next_request.fetch_add(1, SeqCst))
    }
}

/// A handle to a submitted request; consume it with [`Ticket::wait`].
pub struct Ticket {
    rx: crossbeam::channel::Receiver<Result<Response, ServeError>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the answer (or rejection) arrives. Dropping a ticket
    /// without waiting is allowed — the evaluation still completes and
    /// feeds the counters (open-loop load generation relies on this).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

/// A concurrent query server over a FliX backend. See the crate docs for
/// the full design; construction starts the workers, [`Self::shutdown`]
/// (or drop) drains them.
pub struct FlixServer {
    shared: Arc<Shared>,
    sender: RwLock<Option<crossbeam::channel::Sender<Job>>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl FlixServer {
    /// Starts `config.workers` worker threads over `backend`.
    pub fn start(backend: impl Into<Backend>, config: ServeConfig) -> Self {
        Self::start_with(backend.into(), config, None)
    }

    /// [`Self::start`] with the flight recorder on: every admission
    /// decision, queue handoff, routing verdict, evaluator pass and stage
    /// time, cache verdict, and deadline cut is journaled into per-lane ring buffers
    /// holding the last `journal_capacity` events per lane (lane 0 is the
    /// submit path, lane `w + 1` is worker `w`). Read the journal back
    /// with [`Self::journal_snapshot`]. Result streams are bit-identical
    /// to an untraced server's — the recorder only *observes*.
    pub fn start_traced(
        backend: impl Into<Backend>,
        config: ServeConfig,
        journal_capacity: usize,
    ) -> Self {
        let recorder = Arc::new(FlightRecorder::for_workers(
            config.effective_workers(),
            journal_capacity,
        ));
        Self::start_with(backend.into(), config, Some(recorder))
    }

    fn start_with(
        backend: Backend,
        config: ServeConfig,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> Self {
        let slots = config.effective_workers() * config.queue_capacity.max(1);
        let (sender, queue) = crossbeam::channel::bounded(slots);
        let shared = Arc::new(Shared {
            live: RwLock::new(Live::new(backend)),
            generation: AtomicU64::new(1),
            config,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            queue: Mutex::new(queue),
            single_flight: Mutex::new(HashMap::new()),
            metrics: ServeMetrics::default(),
            slow_log: SlowQueryLog::new(SLOW_LOG_CAPACITY),
            recorder,
            next_request: AtomicU64::new(1),
        });
        let handles = (0..config.effective_workers())
            .map(|w| {
                let worker_shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&worker_shared, w))
            })
            .collect();
        Self {
            shared,
            sender: RwLock::new(Some(sender)),
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.config.effective_workers()
    }

    /// Submits a request through admission control. Returns a [`Ticket`]
    /// on admission (or single-flight attachment); sheds with a typed
    /// error otherwise. Never blocks on a full queue.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if shared.draining.load(SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let id = shared.mint();
        let (reply_tx, reply_rx) = crossbeam::channel::bounded(1);
        let ticket = Ticket { rx: reply_rx };

        // Single-flight: attach to an in-flight identical query if there is
        // one. Followers consume no queue slot and no in-flight budget.
        let sf_key = if shared.config.single_flight {
            let key = SfKey::of(&request);
            let mut sf = shared.single_flight.lock();
            match sf.get_mut(&key) {
                Some(entry) => {
                    entry.waiters.push(reply_tx);
                    let leader = entry.leader;
                    drop(sf);
                    shared.journal(
                        SUBMIT_LANE,
                        id,
                        EventKind::SfFollower {
                            leader: leader.raw(),
                        },
                    );
                    return Ok(ticket);
                }
                None => {
                    sf.insert(
                        key,
                        SfEntry {
                            leader: id,
                            waiters: Vec::new(),
                        },
                    );
                    Some(key)
                }
            }
        } else {
            None
        };

        // In-flight ceiling. The failed `fetch_update` hands back the count
        // it observed — that value (< ceiling never rejects, so it is at the
        // ceiling, never above) goes into the error verbatim.
        let max = shared.config.effective_max_in_flight();
        if let Err(cur) = shared
            .in_flight
            .fetch_update(SeqCst, SeqCst, |cur| (cur < max).then_some(cur + 1))
        {
            shared.journal(
                SUBMIT_LANE,
                id,
                EventKind::Shed {
                    in_flight: cur as u64,
                },
            );
            let err = shared.overloaded(cur);
            shared.metrics.shed.inc();
            shared.abort_single_flight(sf_key, &err);
            return Err(err);
        }
        shared.journal(SUBMIT_LANE, id, EventKind::Admitted);

        let sender = self.sender.read();
        let Some(sender) = sender.as_ref() else {
            shared.in_flight.fetch_sub(1, SeqCst);
            shared.abort_single_flight(sf_key, &ServeError::ShuttingDown);
            return Err(ServeError::ShuttingDown);
        };
        let job = Job {
            request,
            id,
            admitted: Stopwatch::start(),
            reply: reply_tx,
            sf_key,
        };
        // Timestamp the handoff *before* the send: the dequeuing worker's
        // own clock read then always sorts at-or-after it, so the merged
        // trace keeps Enqueued before Dequeued even when the worker wins
        // the race to the journal. Count the request in before the send for
        // the same reason: the worker's uncount must find it there.
        let enqueue_micros = shared.recorder.as_ref().map(|r| r.now_micros());
        let depth = shared.queued.fetch_add(1, SeqCst) + 1;
        if sender.try_send(job).is_ok() {
            shared.metrics.submitted.inc();
            if let (Some(recorder), Some(at)) = (&shared.recorder, enqueue_micros) {
                recorder.record_at(
                    SUBMIT_LANE,
                    at,
                    id,
                    EventKind::Enqueued {
                        depth: depth as u64,
                    },
                );
            }
            return Ok(ticket);
        }
        // The queue is full: shed. The decrement's return value is the
        // coherent in-flight count after this request stepped back out.
        shared.queued.fetch_sub(1, SeqCst);
        let now = shared.in_flight.fetch_sub(1, SeqCst) - 1;
        shared.journal(
            SUBMIT_LANE,
            id,
            EventKind::Shed {
                in_flight: now as u64,
            },
        );
        let err = shared.overloaded(now);
        shared.metrics.shed.inc();
        shared.abort_single_flight(sf_key, &err);
        Err(err)
    }

    /// [`Self::submit`] then [`Ticket::wait`].
    pub fn query(&self, request: Request) -> Result<Response, ServeError> {
        self.submit(request)?.wait()
    }

    /// Drains the server: new submissions are rejected, every admitted
    /// request completes, the workers exit, and the counters and slow-query
    /// log remain readable. Idempotent.
    pub fn shutdown(&self) {
        if !self.shared.draining.swap(true, SeqCst) {
            // First drain only — shutdown is idempotent, the journal
            // records the transition once.
            self.shared
                .journal(SUBMIT_LANE, RequestId::NONE, EventKind::Drain);
        }
        // Dropping the sender closes the queue; the channel contract
        // delivers everything already buffered before the workers see the
        // disconnect, so admitted work always finishes.
        drop(self.sender.write().take());
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            // flixcheck: allow(swallowed-result): shutdown is best-effort; a panicked worker already counted its job as failed
            let _ = handle.join();
        }
    }

    /// Point-in-time serving counters. `queued` and `in_flight` are two
    /// loads; a request can be dequeued and finished between them, so
    /// `queued` is clamped to `in_flight` (every queued request is in
    /// flight), as a shed error's snapshot is.
    pub fn stats(&self) -> ServeStats {
        let m = &self.shared.metrics;
        let in_flight = self.shared.in_flight.load(SeqCst);
        ServeStats {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            shed: m.shed.get(),
            timed_out: m.timeouts.get(),
            collapsed: m.collapsed.get(),
            worker_panics: m.worker_panics.get(),
            queued: self.shared.queued.load(SeqCst).min(in_flight),
            in_flight,
            max_in_flight: self.shared.config.effective_max_in_flight(),
        }
    }

    /// The flight recorder, when this server was started with
    /// [`Self::start_traced`].
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.recorder.as_ref()
    }

    /// A consistent snapshot of the journal: every lane's surviving
    /// events, merged into one timeline. `None` for an untraced server.
    /// Safe to call while the server is running — appends racing the
    /// snapshot are either fully visible or fully absent, never torn.
    pub fn journal_snapshot(&self) -> Option<JournalSnapshot> {
        self.shared.recorder.as_ref().map(|r| r.snapshot())
    }

    /// The worst retained requests, slowest first. On a traced server
    /// `journal_snapshot()?.timeline(slow.request)` is each one's trace.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared.slow_log.worst()
    }

    /// Snapshot of the live backend generation's load monitor: every
    /// query an evaluator ran for on that backend since it was swapped in,
    /// cache misses included (a cache hit does no evaluator work and
    /// records nothing).
    pub fn load(&self) -> flix::LoadMonitor {
        self.shared.live.read().load.snapshot()
    }

    /// The live backend — an `Arc`-cheap clone of the handle, sharing the
    /// engine. Queries evaluated on the clone answer identically to
    /// queries served through the server (until a swap retargets it).
    pub fn backend(&self) -> Backend {
        self.shared.live.read().backend.clone()
    }

    /// The live generation: its backend and its load monitor, read
    /// together.
    pub(crate) fn live(&self) -> Live {
        self.shared.live.read().clone()
    }

    /// The backend generation: `1` for the backend the server started
    /// with, bumped by every [`Self::swap_backend`].
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(SeqCst)
    }

    /// Atomically replaces the serving backend under live traffic and
    /// returns the new generation.
    ///
    /// The swap is a write-lock store of the backend and a fresh load
    /// monitor: requests admitted after it see the new backend and feed
    /// the new monitor; evaluations already running hold their own clone
    /// and finish — correctly — on the generation they started on,
    /// recording into its monitor. No request is dropped, paused, or
    /// re-queued. A traced server journals the swap as [`EventKind::Swap`].
    pub fn swap_backend(&self, backend: impl Into<Backend>) -> u64 {
        let live = Live::new(backend.into());
        *self.shared.live.write() = live;
        let generation = self.shared.generation.fetch_add(1, SeqCst) + 1;
        self.shared
            .journal(SUBMIT_LANE, RequestId::NONE, EventKind::Swap { generation });
        generation
    }

    /// Journals a control-plane event (no owning request) on the submit
    /// lane of a traced server; a no-op otherwise.
    pub(crate) fn journal_control(&self, kind: EventKind) {
        self.shared.journal(SUBMIT_LANE, RequestId::NONE, kind);
    }

    /// Whether the server is draining (shutdown has begun).
    pub(crate) fn is_draining(&self) -> bool {
        self.shared.draining.load(SeqCst)
    }
}

impl Drop for FlixServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let lane = worker + 1;
    loop {
        // The lock guard is a temporary of this statement: it is released
        // before the job runs, so the workers evaluate in parallel.
        let Ok(job) = shared.queue.lock().recv() else {
            return;
        };
        shared.queued.fetch_sub(1, SeqCst);
        shared.journal(
            lane,
            job.id,
            EventKind::Dequeued {
                worker: worker as u64,
            },
        );
        let queue_micros = job.admitted.elapsed_micros();
        // The handle pins (lane, request) so every event the evaluator
        // journals below stitches into this request's causal trace (`None`
        // when the recorder is off — no clock reads, no events).
        let handle = shared.recorder.as_ref().map(|r| r.handle(lane, job.id));
        // Traced, the evaluator's stage clocks run too: a span-less trace
        // on this stack, journaled below as the request's `stage_*` events.
        let mut stages = handle.map(|_| flixobs::QueryTrace::with_capacity("", 0));
        let mut ctx = QueryCtx {
            trace: stages.as_mut(),
            journal: handle.as_ref(),
        };
        // Clone the live generation out of a brief read lock: the job runs
        // entirely on the generation it picked up here, and records its
        // load there, so a concurrent swap never changes an evaluation
        // mid-flight.
        let live = shared.live.read().clone();
        let req = &job.request;
        // A panicking evaluation must cost one answer, not one worker.
        // Nothing is left half-updated: indexes are immutable, and a result
        // cache runs the evaluation outside its (non-poisoning) lock.
        let evaluated = catch_unwind(AssertUnwindSafe(|| live.backend.0.evaluate(req, &mut ctx)));
        let Ok(answer) = evaluated else {
            shared.journal(lane, job.id, EventKind::WorkerPanicked);
            shared.metrics.worker_panics.inc();
            shared.abort_single_flight(job.sf_key, &ServeError::WorkerPanicked);
            // flixcheck: allow(swallowed-result): the client may have hung up; dropping the reply is correct
            let _ = job.reply.send(Err(ServeError::WorkerPanicked));
            shared.in_flight.fetch_sub(1, SeqCst);
            continue;
        };
        let total_micros = job.admitted.elapsed_micros();
        if let (Some(stages), Some(handle)) = (&stages, &handle) {
            stages.stage_events().for_each(|kind| handle.event(kind));
        }

        shared.metrics.completed.inc();
        if answer.timed_out {
            shared.metrics.timeouts.inc();
        }
        if let Some(stats) = answer.stats {
            live.load.record(stats, answer.results.len());
        }
        // Only pay for the label (a format! per query) when the latency
        // could actually displace a slow-log entry.
        if shared.slow_log.would_retain(total_micros) {
            let label = format!("{:?}//{:?} ({:?})", req.from, req.to, req.axis);
            shared.slow_log.offer(job.id, label, total_micros);
        }

        let response = Response {
            results: answer.results,
            timed_out: answer.timed_out,
            collapsed: false,
            queue_micros,
            total_micros,
        };
        // Fan out to single-flight followers first, then answer the
        // leader. Removing the key before replying means any identical
        // request arriving from here on becomes a fresh leader.
        if let Some(key) = job.sf_key {
            let waiters = shared
                .single_flight
                .lock()
                .remove(&key)
                .map(|e| e.waiters)
                .unwrap_or_default();
            if !waiters.is_empty() {
                shared.journal(
                    lane,
                    job.id,
                    EventKind::SfLeader {
                        followers: waiters.len() as u64,
                    },
                );
            }
            for waiter in waiters {
                shared.metrics.collapsed.inc();
                let mut copy = response.clone();
                copy.collapsed = true;
                // flixcheck: allow(swallowed-result): collapsed waiter may have deadline-expired and hung up
                let _ = waiter.send(Ok(copy));
            }
        }
        // flixcheck: allow(swallowed-result): the client may have hung up after its deadline; dropping the reply is correct
        let _ = job.reply.send(Ok(response));
        shared.in_flight.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flix::{Answer, CachedFlix, Flix, FlixConfig, QueryOptions, ShardedFlix};
    use flixobs::Deadline;
    use graphcore::NodeId;
    use xmlgraph::TagId;
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
    fn serves_the_framework_answer() {
        let (flix, t) = tiny();
        let server = FlixServer::start(flix.clone(), ServeConfig::default());
        let response = server
            .query(Request::descendants(0, t, QueryOptions::default()))
            .unwrap();
        assert_eq!(
            *response.results,
            flix.find_descendants(0, t, &QueryOptions::default())
        );
        assert!(!response.timed_out);
        assert!(!response.collapsed);
        assert!(response.total_micros >= response.queue_micros);
        let stats = server.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        server.shutdown();
    }

    #[test]
    fn post_shutdown_submissions_are_refused_and_state_readable() {
        let (flix, t) = tiny();
        let server = FlixServer::start(flix, ServeConfig::default());
        server
            .query(Request::descendants(0, t, QueryOptions::default()))
            .unwrap();
        server.shutdown();
        server.shutdown(); // idempotent
        let err = server
            .submit(Request::descendants(0, t, QueryOptions::default()))
            .unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        // A worker replies before it steps out of the in-flight count;
        // joining the workers is what makes the 0 observable.
        assert_eq!(stats.in_flight, 0);
        assert_eq!(server.slow_queries().len(), 1);
    }

    #[test]
    fn default_deadline_is_applied_and_marked() {
        let (flix, t) = tiny();
        let server = FlixServer::start(flix, ServeConfig::default());
        let opts = QueryOptions::default().with_deadline(Deadline::within_micros(0));
        let response = server.query(Request::descendants(0, t, opts)).unwrap();
        assert!(response.timed_out, "zero budget must expire in the queue");
        assert!(response.results.is_empty());
        assert_eq!(server.stats().timed_out, 1);
        server.shutdown();
    }

    #[test]
    fn cached_backend_serves_and_caches_both_axes() {
        let (flix, t) = tiny();
        let cached = Arc::new(CachedFlix::new(flix.clone(), 8));
        let server = FlixServer::start(Arc::clone(&cached), ServeConfig::default());
        for _ in 0..3 {
            let r = server
                .query(Request::descendants(0, t, QueryOptions::default()))
                .unwrap();
            assert_eq!(
                *r.results,
                flix.find_descendants(0, t, &QueryOptions::default())
            );
        }
        assert_eq!(cached.stats(), (2, 1), "two hits after the first miss");
        let up = Request::ancestors(1, t, QueryOptions::default());
        for _ in 0..2 {
            let anc = server.query(up).unwrap();
            assert_eq!(
                *anc.results,
                flix.evaluate(&up, &mut QueryCtx::default()).results
            );
        }
        assert_eq!(cached.len(), 2, "ancestors populate the cache too");
        assert_eq!(cached.stats(), (3, 2), "and hit it");
        server.shutdown();
    }

    #[test]
    fn sharded_backend_serves_oracle_answers_per_group() {
        let (flix, t) = tiny();
        let sharded = Arc::new(ShardedFlix::new(Arc::clone(&flix), 2));
        let server = FlixServer::start(sharded, ServeConfig::default());
        let nodes = flix.collection().node_count() as NodeId;
        for start in 0..nodes {
            for req in [
                Request::descendants(start, t, QueryOptions::default()),
                Request::ancestors(start, t, QueryOptions::default()),
            ] {
                let got = server.query(req).unwrap();
                let want = flix.evaluate(&req, &mut QueryCtx::default()).results;
                assert_eq!(*got.results, want, "start {start} {:?}", req.axis);
            }
        }
        assert_eq!(
            server.stats().submitted,
            u64::from(nodes) * 2,
            "every request was admitted"
        );
        server.shutdown();
    }

    /// Routing and evaluation both run on a worker: neither may index the
    /// node maps with a start the collection does not hold.
    #[test]
    fn start_outside_the_collection_is_an_empty_answer_from_every_backend() {
        let (flix, t) = tiny();
        let beyond = flix.collection().node_count() as NodeId + 5;
        let backends: [Backend; 3] = [
            Arc::clone(&flix).into(),
            Arc::new(CachedFlix::new(Arc::clone(&flix), 8)).into(),
            Arc::new(ShardedFlix::new(Arc::clone(&flix), 2).with_caches(8)).into(),
        ];
        for backend in backends {
            let server = FlixServer::start(backend, ServeConfig::default());
            for req in [
                Request::descendants(beyond, t, QueryOptions::default()),
                Request::ancestors(beyond, t, QueryOptions::top_k(1)),
            ] {
                let got = server.query(req).expect("an answer, not WorkerPanicked");
                assert!(got.results.is_empty() && !got.timed_out, "{:?}", req.axis);
            }
            server.shutdown();
        }
    }

    /// A fake backend: answers like its inner framework, except that a
    /// query starting at `poison` reports in, waits to be released, and
    /// panics.
    struct Panicky {
        inner: Arc<Flix>,
        poison: NodeId,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl QueryBackend for Panicky {
        fn evaluate(&self, query: &Request, ctx: &mut QueryCtx<'_>) -> Answer {
            if query.from == Start::Node(self.poison) {
                self.entered.wait();
                self.release.wait();
                panic!("poisoned start {:?}", query.from);
            }
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
    fn panicking_evaluation_is_contained_and_the_worker_keeps_serving() {
        let (flix, t) = tiny();
        for traced in [false, true] {
            let backend = Arc::new(Panicky {
                inner: Arc::clone(&flix),
                poison: 1,
                entered: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
            });
            let config = ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            };
            let server = if traced {
                FlixServer::start_traced(Arc::clone(&backend), config, 64)
            } else {
                FlixServer::start(Arc::clone(&backend), config)
            };
            let poisoned = Request::descendants(1, t, QueryOptions::default());
            let leader = server.submit(poisoned).unwrap();
            // The leader is inside the backend: an identical request now
            // attaches as its single-flight follower.
            backend.entered.wait();
            let follower = server.submit(poisoned).unwrap();
            backend.release.wait();
            assert_eq!(leader.wait().unwrap_err(), ServeError::WorkerPanicked);
            assert_eq!(follower.wait().unwrap_err(), ServeError::WorkerPanicked);
            // The only worker survived and answers the next request.
            let next = server
                .query(Request::descendants(0, t, QueryOptions::default()))
                .unwrap();
            assert_eq!(
                *next.results,
                flix.find_descendants(0, t, &QueryOptions::default())
            );
            server.shutdown();
            let stats = server.stats();
            assert_eq!(stats.in_flight, 0, "the panicked slot was released");
            assert_eq!(stats.worker_panics, 1);
            // Traced, the panic is on the leader's timeline — the last thing
            // that happened to it — and the follower's says whom it followed.
            let Some(journal) = server.journal_snapshot() else {
                assert!(!traced);
                continue;
            };
            let ids = journal.request_ids();
            let (leader, follower) = (journal.timeline(ids[0]), journal.timeline(ids[1]));
            let last = leader.lines().last().unwrap_or_default();
            assert!(last.contains("worker_panicked"), "{leader}");
            assert!(
                follower.contains("sf_follower") && follower.contains("leader=1"),
                "{follower}"
            );
        }
    }

    /// A request is counted into the queue before its send, so a worker's
    /// uncount never runs ahead of it and the depth never wraps below zero:
    /// sampled under a submission storm, it stays within the in-flight
    /// ceiling, which this configuration sets to the queue's capacity, and
    /// every snapshot has `queued <= in_flight <= max_in_flight`.
    #[test]
    fn queue_depth_never_wraps_under_concurrent_submission() {
        let (flix, t) = tiny();
        let config = ServeConfig {
            workers: 2,
            queue_capacity: 2,
            max_in_flight: 4,
            single_flight: false,
        };
        let slots = config.workers * config.queue_capacity;
        let server = FlixServer::start(flix, config);
        std::thread::scope(|s| {
            let submitters: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..500 {
                            if let Ok(ticket) =
                                server.submit(Request::descendants(0, t, QueryOptions::default()))
                            {
                                drop(ticket.wait());
                            }
                        }
                    })
                })
                .collect();
            // Sample until every submitter is done, a panicked one included.
            while submitters.iter().any(|h| !h.is_finished()) {
                let s = server.stats();
                assert!(
                    s.queued <= slots,
                    "queued read {} of {slots} slots",
                    s.queued
                );
                assert!(
                    s.queued <= s.in_flight && s.in_flight <= s.max_in_flight,
                    "incoherent snapshot {s:?}"
                );
            }
            for submitter in submitters {
                submitter.join().unwrap();
            }
        });
        server.shutdown();
        assert_eq!(server.stats().queued, 0);
    }

    #[test]
    fn shed_errors_report_coherent_snapshots() {
        let (flix, t) = tiny();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_in_flight: 2,
            single_flight: false,
        };
        let server = Arc::new(FlixServer::start(flix, config));
        let ceiling = config.effective_max_in_flight();
        let errors: Vec<ServeError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let server = Arc::clone(&server);
                    s.spawn(move || {
                        let mut shed = Vec::new();
                        for _ in 0..200 {
                            match server.submit(Request::descendants(0, t, QueryOptions::default()))
                            {
                                Ok(ticket) => drop(ticket.wait()),
                                Err(err) => shed.push(err),
                            }
                        }
                        shed
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert!(
            !errors.is_empty(),
            "the storm should overrun a 1-worker, capacity-1, ceiling-2 server"
        );
        for err in &errors {
            let ServeError::Overloaded { queued, in_flight } = err else {
                panic!("unexpected error under load: {err}");
            };
            assert!(
                *in_flight <= ceiling,
                "shed reported in_flight {in_flight} above the ceiling {ceiling}"
            );
            assert!(
                queued <= in_flight,
                "shed reported queued {queued} > in_flight {in_flight}"
            );
        }
        server.shutdown();
    }
}
