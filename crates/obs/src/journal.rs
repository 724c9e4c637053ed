//! The flight recorder: per-lane lock-free event journals with causal
//! request stitching and Chrome-trace export.
//!
//! Each owner's counters (its `*Stats` snapshot) answer "how is the
//! system doing"; the slow-query log answers "which queries were worst".
//! Neither can answer "what happened to *that* request, across which shards, in
//! what order" once the serve path makes per-request decisions (admit vs
//! shed, queue choice, direct/fanout/escaped routing, single-flight
//! collapse, deadline cuts). The journal records those decisions as
//! compact timestamped events:
//!
//! * [`FlightRecorder`] owns one bounded [`JournalRing`] per *lane*
//!   (conventionally: lane 0 for the submitting thread, one lane per
//!   worker). The serve path appends into its own lane, so the common
//!   case is a wait-free single-writer append with no cross-core
//!   contention. Appends from other threads into the same lane are
//!   tolerated (slot claiming is CAS-based); a lost claim drops the event
//!   and bumps the contention counter instead of spinning.
//! * Every event carries a [`RequestId`] minted at admission, so one
//!   request's events stitch into a single causal trace even when the
//!   evaluation fans out across shards.
//! * [`JournalSnapshot`] reads all lanes without stopping writers (a
//!   per-slot sequence-validation scheme rejects torn reads) and exports
//!   two ways: [`JournalSnapshot::to_chrome_trace`] emits Chrome
//!   trace-event JSON loadable in Perfetto / `chrome://tracing` (lanes as
//!   thread ids, evaluator spans as duration events, sheds and escapes as
//!   instants), and [`JournalSnapshot::timeline`] renders a plain-text
//!   causal timeline for one request, joinable against the
//!   [`SlowQuery`](crate::slowlog::SlowQuery) log via the recorded id.
//!
//! Memory is strictly bounded: `lanes * capacity` slots of five `u64`s
//! each, allocated once. When a ring wraps, the oldest events are
//! overwritten and counted as dropped — recording never blocks, never
//! allocates, and costs exactly one clock read per event.

use crate::clock::Stopwatch;
use crate::registry::json_escape;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one request across the serve path.
///
/// Minted at admission (`FlixServer::submit`) and threaded through the
/// worker loop, shard routing, evaluator, and cache, so every journal
/// event a request causes carries the same id. `RequestId::NONE` (raw 0)
/// tags events not attributable to a request (drain, hot swaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(u64);

impl RequestId {
    /// The "no request" id used for system-level events.
    pub const NONE: RequestId = RequestId(0);

    /// Wraps a raw id. Real requests use ids >= 1; 0 is [`RequestId::NONE`].
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw id value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the [`RequestId::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            write!(f, "-")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// Shard payload sentinel: the cross-shard merge pseudo-evaluation.
pub const SHARD_MERGE: u64 = u64::MAX;
/// Shard payload sentinel: an unsharded (single-backend) evaluation.
pub const SHARD_NONE: u64 = u64::MAX - 1;

/// Declares [`EventKind`] from one table — per variant its discriminant,
/// its stable name and, if it has a payload, the payload's key — and
/// derives `name`, `encode`, `decode` and `arg` from it, so the four
/// cannot drift apart and a variant cannot be added to fewer than all.
macro_rules! event_kinds {
    ($(
        $(#[$doc:meta])*
        $disc:literal $variant:ident $name:literal $({ $(#[$key_doc:meta])* $key:ident })?
    ),* $(,)?) => {
        /// One journaled serve-path decision.
        ///
        /// Kinds are compact on purpose: each encodes to a `(discriminant,
        /// payload)` pair of `u64`s so a ring slot stays five words. Payload
        /// semantics are per-kind (a worker index, a shard index, a result
        /// count, ...); shard payloads may carry the [`SHARD_MERGE`] /
        /// [`SHARD_NONE`] sentinels.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum EventKind {
            $( $(#[$doc])* $variant $({ $(#[$key_doc])* $key: u64 })?, )*
        }

        impl EventKind {
            /// Every discriminant in use, in table order.
            pub const DISCRIMINANTS: &'static [u64] = &[$($disc),*];

            /// Stable short name, used by both exporters.
            pub fn name(self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $name, )*
                }
            }

            /// Packs the kind into a `(discriminant, payload)` word pair.
            pub fn encode(self) -> (u64, u64) {
                (self.disc(), self.arg().map_or(0, |(_, payload)| payload))
            }

            fn disc(self) -> u64 {
                match self {
                    $( EventKind::$variant { .. } => $disc, )*
                }
            }

            /// Unpacks a `(discriminant, payload)` pair; `None` for an unknown
            /// discriminant (a snapshot from a newer recorder simply skips it).
            pub fn decode(disc: u64, payload: u64) -> Option<EventKind> {
                Some(match disc {
                    $( $disc => EventKind::$variant $({ $key: payload })?, )*
                    _ => return None,
                })
            }

            /// The payload as a named argument for exporters, if the kind has one.
            pub fn arg(self) -> Option<(&'static str, u64)> {
                match self {
                    $( EventKind::$variant $({ $key })? => None$(.or(Some((stringify!($key), $key))))?, )*
                }
            }
        }
    };
}

event_kinds! {
    /// The request passed admission control.
    0 Admitted "admitted",
    /// The request was shed.
    1 Shed "shed" {
        /// In-flight requests observed when the shed decision was made.
        in_flight
    },
    /// The request was enqueued for the workers.
    2 Enqueued "enqueued" {
        /// Requests in the job queue once this one was sent, itself included.
        depth
    },
    /// A worker dequeued the request.
    3 Dequeued "dequeued" {
        /// Index of the dequeuing worker.
        worker
    },
    /// Shard routing proved the query local: answered by one shard.
    4 RouteDirect "route_direct" {
        /// The shard that answered.
        shard
    },
    /// Shard routing chose an up-front cross-shard fan-out.
    5 RouteFanout "route_fanout" {
        /// The request's home shard.
        shard
    },
    /// A local attempt escaped its shard and was re-run as a fan-out.
    6 RouteEscaped "route_escaped" {
        /// The shard the evaluation escaped from.
        shard
    },
    /// An evaluator pass began.
    7 EvalStart "eval_start" {
        /// The shard being evaluated ([`SHARD_MERGE`] for the cross-shard
        /// merge, [`SHARD_NONE`] for an unsharded backend).
        shard
    },
    /// The matching evaluator pass finished.
    8 EvalEnd "eval_end" {
        /// Number of results the pass produced.
        results
    },
    /// The query cache answered from a stored result.
    9 CacheHit "cache_hit" {
        /// Shard of the cache that hit ([`SHARD_NONE`] when unsharded).
        shard
    },
    /// The query cache had no usable entry.
    10 CacheMiss "cache_miss" {
        /// Shard of the cache that missed ([`SHARD_NONE`] when unsharded).
        shard
    },
    /// TinyLFU admitted the new entry into a full cache.
    11 CacheAdmit "cache_admit",
    /// TinyLFU rejected the new entry (victim was more valuable).
    12 CacheReject "cache_reject",
    /// A cache victim was evicted to make room.
    13 CacheEvict "cache_evict",
    /// This request computed a result shared by single-flight followers.
    14 SfLeader "sf_leader" {
        /// Number of follower requests that received the shared result.
        followers
    },
    /// This request attached to an identical in-flight computation.
    15 SfFollower "sf_follower" {
        /// Raw [`RequestId`] of the leader computing the shared result.
        leader
    },
    /// The request's deadline expired mid-evaluation.
    16 DeadlineExpired "deadline_expired" {
        /// The total budget the deadline was created with.
        budget_micros
    },
    /// The server began draining.
    17 Drain "drain",
    // 18 was `limit_change`, emitted by the adaptive admission controller,
    // which is gone.
    /// A background index rebuild began.
    19 RebuildStart "rebuild_start" {
        /// Configuration discriminant chosen for the rebuild (serve-layer
        /// convention; opaque to the journal).
        config
    },
    /// The background rebuild finished building the new index.
    20 RebuildFinish "rebuild_finish" {
        /// Wall-clock build time in microseconds.
        micros
    },
    /// A new index generation was swapped in under live traffic.
    21 Swap "swap" {
        /// The generation now serving new admissions.
        generation
    },
    // 22 was `recovery_replay`, which nothing ever emitted.
    /// The request's evaluation spent this long popping queue entries
    /// (see [`SpanStage::QueuePop`](crate::trace::SpanStage::QueuePop)).
    23 StageQueuePop "stage_queue_pop" {
        /// The stage's total over every pass of the evaluation.
        micros
    },
    /// The request's evaluation spent this long fetching result blocks.
    24 StageBlockFetch "stage_block_fetch" {
        /// The stage's total over every pass of the evaluation.
        micros
    },
    /// The request's evaluation spent this long expanding links.
    25 StageLinkExpand "stage_link_expand" {
        /// The stage's total over every pass of the evaluation.
        micros
    },
    /// The request's evaluation panicked; the worker contained it and
    /// answered with an error.
    26 WorkerPanicked "worker_panicked",
}

/// Renders a shard payload, mapping the sentinels to readable names.
fn shard_label(shard: u64) -> String {
    match shard {
        SHARD_MERGE => "merge".to_string(),
        SHARD_NONE => "local".to_string(),
        s => format!("shard{s}"),
    }
}

/// One slot: a sequence word plus the four event words.
///
/// The sequence word encodes the slot's lifecycle: `0` = never written,
/// `2t + 1` = ticket `t` is being written, `2t + 2` = ticket `t`'s event
/// is complete. The value is strictly increasing over a slot's lifetime,
/// which is what lets readers validate against torn reads (see
/// [`JournalRing::collect`]).
#[derive(Debug)]
struct Slot {
    state: AtomicU64,
    micros: AtomicU64,
    request: AtomicU64,
    disc: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            state: AtomicU64::new(0),
            micros: AtomicU64::new(0),
            request: AtomicU64::new(0),
            disc: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// A bounded, lock-free event ring for one lane.
///
/// Writers take a ticket from `head` and claim the ticket's slot by CAS
/// on the slot's sequence word. The intended topology is single-writer
/// (one lane per worker thread), where the CAS never fails and the append
/// is wait-free; concurrent writers are still safe — a lost claim means
/// another writer overwrote the slot first, and the event is counted in
/// [`JournalRing::contended`] and dropped rather than retried, keeping
/// the path wait-free under any topology.
///
/// When the ring wraps, old events are overwritten (newest-wins);
/// [`JournalRing::dropped`] accounts for both overwrites and contention
/// losses.
#[derive(Debug)]
pub struct JournalRing {
    slots: Vec<Slot>,
    head: AtomicU64,
    contended: AtomicU64,
}

impl JournalRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Slot capacity (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one event. Returns `false` if the slot claim was lost to a
    /// concurrent writer (the event is dropped, not retried).
    pub fn append(&self, micros: u64, request: RequestId, kind: EventKind) -> bool {
        let cap = self.slots.len() as u64;
        let ticket = self.head.fetch_add(1, Ordering::SeqCst);
        let idx = usize::try_from(ticket & (cap - 1)).unwrap_or(0);
        // The slot last completed ticket `ticket - cap` (or is untouched on
        // the first lap), so its expected sequence word is exactly known.
        let expected = if ticket >= cap {
            2 * (ticket - cap) + 2
        } else {
            0
        };
        let slot = &self.slots[idx];
        if slot
            .state
            .compare_exchange(expected, 2 * ticket + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.contended.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        let (disc, payload) = kind.encode();
        slot.micros.store(micros, Ordering::SeqCst);
        slot.request.store(request.raw(), Ordering::SeqCst);
        slot.disc.store(disc, Ordering::SeqCst);
        slot.payload.store(payload, Ordering::SeqCst);
        slot.state.store(2 * ticket + 2, Ordering::SeqCst);
        true
    }

    /// Total append attempts so far (including dropped ones).
    pub fn logged(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Events lost: overwritten by ring wrap plus contention losses.
    pub fn dropped(&self) -> u64 {
        let head = self.head.load(Ordering::SeqCst);
        let overwritten = head.saturating_sub(self.slots.len() as u64);
        overwritten.saturating_add(self.contended.load(Ordering::SeqCst))
    }

    /// Appends lost to concurrent slot claims.
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::SeqCst)
    }

    /// Reads every complete event currently in the ring without stopping
    /// writers. Each slot is validated by re-reading its sequence word:
    /// since the word strictly increases and any writer moves it through
    /// an odd "writing" value first, two equal even reads bracket a
    /// stable set of event words — torn reads are rejected, never
    /// surfaced. Returns `(ticket, event)` pairs in ticket order.
    fn collect(&self, lane: usize) -> Vec<(u64, JournalEvent)> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let s1 = slot.state.load(Ordering::SeqCst);
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or mid-write
            }
            let micros = slot.micros.load(Ordering::SeqCst);
            let request = slot.request.load(Ordering::SeqCst);
            let disc = slot.disc.load(Ordering::SeqCst);
            let payload = slot.payload.load(Ordering::SeqCst);
            let s2 = slot.state.load(Ordering::SeqCst);
            if s1 != s2 {
                continue; // overwritten while reading: reject the torn view
            }
            let ticket = (s1 - 2) / 2;
            if let Some(kind) = EventKind::decode(disc, payload) {
                out.push((
                    ticket,
                    JournalEvent {
                        micros,
                        lane,
                        seq: ticket,
                        request: RequestId::new(request),
                        kind,
                    },
                ));
            }
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out
    }
}

/// One decoded journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Microseconds since the recorder's epoch.
    pub micros: u64,
    /// Lane (ring) index the event was appended to.
    pub lane: usize,
    /// Per-lane append sequence number.
    pub seq: u64,
    /// Request the event belongs to ([`RequestId::NONE`] for system events).
    pub request: RequestId,
    /// What happened.
    pub kind: EventKind,
}

/// The flight recorder: one [`JournalRing`] per lane plus a shared epoch.
///
/// Lane 0 is conventionally the submitting thread ("submit"); lanes
/// `1..=workers` belong to worker threads (see
/// [`FlightRecorder::for_workers`]). Recording costs one clock read (the
/// epoch stopwatch) and one wait-free ring append; when no recorder is
/// installed the serve path performs neither.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Stopwatch,
    lane_names: Vec<String>,
    lanes: Vec<JournalRing>,
}

impl FlightRecorder {
    /// A recorder with one named lane per entry, each holding up to
    /// `capacity_per_lane` events.
    pub fn new(lane_names: Vec<String>, capacity_per_lane: usize) -> Self {
        let lanes = lane_names
            .iter()
            .map(|_| JournalRing::new(capacity_per_lane))
            .collect();
        Self {
            epoch: Stopwatch::start(),
            lane_names,
            lanes,
        }
    }

    /// The standard serve-path topology: lane 0 `submit`, then one
    /// `worker-i` lane per worker.
    pub fn for_workers(workers: usize, capacity_per_lane: usize) -> Self {
        let mut names = Vec::with_capacity(workers + 1);
        names.push("submit".to_string());
        for w in 0..workers {
            names.push(format!("worker-{w}"));
        }
        Self::new(names, capacity_per_lane)
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Microseconds since the recorder started.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed_micros()
    }

    /// Records one event on `lane` (out-of-range lanes are ignored).
    pub fn record(&self, lane: usize, request: RequestId, kind: EventKind) {
        self.record_at(lane, self.now_micros(), request, kind);
    }

    /// Records one event with a caller-captured timestamp (from
    /// [`Self::now_micros`]). For events whose causal moment precedes the
    /// point where recording becomes possible — e.g. a queue handoff is
    /// timestamped *before* the send, so the receiver's own clock read
    /// can never sort before it.
    pub fn record_at(&self, lane: usize, micros: u64, request: RequestId, kind: EventKind) {
        if let Some(ring) = self.lanes.get(lane) {
            ring.append(micros, request, kind);
        }
    }

    /// A copyable handle pre-bound to a lane and request, for threading
    /// through call stacks that should not know recorder topology.
    pub fn handle(&self, lane: usize, request: RequestId) -> JournalHandle<'_> {
        JournalHandle {
            recorder: self,
            lane,
            request,
        }
    }

    /// Total events appended across all lanes (including later-dropped).
    pub fn events_logged(&self) -> u64 {
        self.lanes.iter().map(|l| l.logged()).sum()
    }

    /// Total events lost across all lanes (ring wrap + contention).
    pub fn events_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped()).sum()
    }

    /// Snapshots every lane without stopping writers, merging all events
    /// into one time-ordered view.
    pub fn snapshot(&self) -> JournalSnapshot {
        let mut events = Vec::new();
        for (lane, ring) in self.lanes.iter().enumerate() {
            events.extend(ring.collect(lane).into_iter().map(|(_, e)| e));
        }
        events.sort_by_key(|e| (e.micros, e.lane, e.seq));
        JournalSnapshot {
            lane_names: self.lane_names.clone(),
            events,
            logged: self.events_logged(),
            dropped: self.events_dropped(),
        }
    }
}

/// A copyable recorder handle pre-bound to one lane and one request.
#[derive(Debug, Clone, Copy)]
pub struct JournalHandle<'a> {
    recorder: &'a FlightRecorder,
    lane: usize,
    request: RequestId,
}

impl JournalHandle<'_> {
    /// Records `kind` on the bound lane, tagged with the bound request.
    pub fn event(&self, kind: EventKind) {
        self.recorder.record(self.lane, self.request, kind);
    }
}

/// A consistent, time-ordered view of every lane's events.
#[derive(Debug, Clone)]
pub struct JournalSnapshot {
    /// Lane names, indexed by [`JournalEvent::lane`].
    pub lane_names: Vec<String>,
    /// All decoded events, sorted by `(micros, lane, seq)`.
    pub events: Vec<JournalEvent>,
    /// Total events appended at snapshot time.
    pub logged: u64,
    /// Total events lost at snapshot time.
    pub dropped: u64,
}

impl JournalSnapshot {
    /// All events belonging to one request, in time order.
    pub fn request_events(&self, id: RequestId) -> Vec<JournalEvent> {
        self.events
            .iter()
            .filter(|e| e.request == id)
            .copied()
            .collect()
    }

    /// The distinct non-NONE request ids present, in first-seen order.
    pub fn request_ids(&self) -> Vec<RequestId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for e in &self.events {
            if !e.request.is_none() && seen.insert(e.request) {
                out.push(e.request);
            }
        }
        out
    }

    /// Exports Chrome trace-event JSON, loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Lanes become thread ids under pid 1 (named via `M` metadata
    /// events). Evaluator passes become `X` duration events by pairing
    /// each lane's `eval_start`/`eval_end` in sequence order; the
    /// enqueue→dequeue wait becomes a `queued` duration event on the
    /// dequeuing lane; every other event is an `i` instant carrying its
    /// request id and payload as args. Timestamps are the journal's
    /// epoch-relative microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        for (lane, name) in self.lane_names.iter().enumerate() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(name)
                ),
            );
        }
        // Pending eval_start per lane (evaluator passes nest per lane), and
        // the last enqueue time per request (for the queued-wait span).
        let mut pending_eval: Vec<Vec<&JournalEvent>> = vec![Vec::new(); self.lane_names.len()];
        let mut enqueued_at: std::collections::HashMap<RequestId, u64> =
            std::collections::HashMap::new();
        let mut by_lane: Vec<Vec<&JournalEvent>> = vec![Vec::new(); self.lane_names.len()];
        for e in &self.events {
            if e.lane < by_lane.len() {
                by_lane[e.lane].push(e);
            }
        }
        for lane_events in &mut by_lane {
            lane_events.sort_by_key(|e| e.seq);
        }
        for lane_events in &by_lane {
            for e in lane_events {
                match e.kind {
                    EventKind::EvalStart { .. } => {
                        if let Some(stack) = pending_eval.get_mut(e.lane) {
                            stack.push(e);
                        }
                    }
                    EventKind::EvalEnd { results } => {
                        let start = pending_eval.get_mut(e.lane).and_then(|s| s.pop());
                        if let Some(start) = start {
                            let shard = match start.kind {
                                EventKind::EvalStart { shard } => shard,
                                _ => SHARD_NONE,
                            };
                            let dur = e.micros.saturating_sub(start.micros);
                            push(
                                &mut out,
                                &mut first,
                                format!(
                                    "{{\"name\":\"eval {}\",\"cat\":\"eval\",\"ph\":\"X\",\
                                     \"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{dur},\
                                     \"args\":{{\"request\":{},\"results\":{results}}}}}",
                                    shard_label(shard),
                                    e.lane,
                                    start.micros,
                                    e.request.raw(),
                                ),
                            );
                        }
                    }
                    EventKind::Enqueued { .. } => {
                        enqueued_at.insert(e.request, e.micros);
                        push(&mut out, &mut first, instant_json(e));
                    }
                    EventKind::Dequeued { .. } => {
                        if let Some(t0) = enqueued_at.remove(&e.request) {
                            let dur = e.micros.saturating_sub(t0);
                            push(
                                &mut out,
                                &mut first,
                                format!(
                                    "{{\"name\":\"queued\",\"cat\":\"queue\",\"ph\":\"X\",\
                                     \"pid\":1,\"tid\":{},\"ts\":{t0},\"dur\":{dur},\
                                     \"args\":{{\"request\":{}}}}}",
                                    e.lane,
                                    e.request.raw(),
                                ),
                            );
                        }
                        push(&mut out, &mut first, instant_json(e));
                    }
                    _ => push(&mut out, &mut first, instant_json(e)),
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// A plain-text causal timeline for one request: every event the
    /// request produced, in time order, with lane and payload.
    pub fn timeline(&self, id: RequestId) -> String {
        let mut out = String::new();
        for e in self.request_events(id) {
            let lane = self
                .lane_names
                .get(e.lane)
                .map(String::as_str)
                .unwrap_or("?");
            let _ = write!(
                out,
                "{:>10}us  {:<10}  {:<16}",
                e.micros,
                lane,
                e.kind.name()
            );
            match e.kind.arg() {
                Some(("shard", shard)) => {
                    let _ = write!(out, "  {}", shard_label(shard));
                }
                Some((key, value)) => {
                    let _ = write!(out, "  {key}={value}");
                }
                None => {}
            }
            out.push('\n');
        }
        out
    }
}

/// Renders one event as a Chrome `i` (instant) trace event.
fn instant_json(e: &JournalEvent) -> String {
    let mut args = format!("\"request\":{}", e.request.raw());
    if let Some((key, value)) = e.kind.arg() {
        let _ = write!(args, ",\"{key}\":{value}");
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
         \"tid\":{},\"ts\":{},\"args\":{{{args}}}}}",
        e.kind.name(),
        e.lane,
        e.micros,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_every_kind() {
        let mut names = std::collections::BTreeSet::new();
        for &disc in EventKind::DISCRIMINANTS {
            let kind = EventKind::decode(disc, 7).expect("every table row decodes");
            let payload = kind.arg().map_or(0, |_| 7);
            assert_eq!(kind.encode(), (disc, payload), "{kind:?}");
            assert_eq!(EventKind::decode(disc, payload), Some(kind));
            assert!(names.insert(kind.name()), "{} named twice", kind.name());
        }
        assert_eq!(names.len(), 25);
        assert_eq!(EventKind::decode(18, 6), None, "limit_change is gone");
        assert_eq!(EventKind::decode(22, 6), None, "recovery_replay is gone");
        assert_eq!(EventKind::decode(999, 0), None);
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let ring = JournalRing::new(8);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20u64 {
            assert!(ring.append(i, RequestId::new(1), EventKind::Swap { generation: i }));
        }
        assert_eq!(ring.logged(), 20);
        assert_eq!(ring.dropped(), 12); // 20 appends into 8 slots
        assert_eq!(ring.contended(), 0);
        let events = ring.collect(0);
        let generations: Vec<u64> = events
            .iter()
            .map(|(_, e)| match e.kind {
                EventKind::Swap { generation } => generation,
                _ => u64::MAX,
            })
            .collect();
        assert_eq!(generations, (12..20).collect::<Vec<u64>>());
        // Tickets come back in append order.
        let tickets: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn recorder_snapshot_merges_lanes_in_time_order() {
        let rec = FlightRecorder::for_workers(2, 64);
        assert_eq!(rec.lanes(), 3);
        let id = RequestId::new(1);
        rec.record(0, id, EventKind::Admitted);
        rec.record(0, id, EventKind::Enqueued { depth: 1 });
        rec.record(2, id, EventKind::Dequeued { worker: 1 });
        rec.record(2, id, EventKind::EvalStart { shard: SHARD_NONE });
        rec.record(2, id, EventKind::EvalEnd { results: 3 });
        let snap = rec.snapshot();
        assert_eq!(snap.lane_names[0], "submit");
        assert_eq!(snap.lane_names[2], "worker-1");
        assert_eq!(snap.logged, 5);
        assert_eq!(snap.dropped, 0);
        let events = snap.request_events(id);
        assert_eq!(events.len(), 5);
        // Time-ordered (monotone micros).
        for pair in events.windows(2) {
            assert!(pair[0].micros <= pair[1].micros);
        }
        assert_eq!(snap.request_ids(), vec![id]);
    }

    #[test]
    fn chrome_export_pairs_eval_spans_and_names_lanes() {
        let rec = FlightRecorder::for_workers(1, 64);
        let id = RequestId::new(7);
        rec.record(0, id, EventKind::Admitted);
        rec.record(0, id, EventKind::Enqueued { depth: 1 });
        rec.record(1, id, EventKind::Dequeued { worker: 0 });
        rec.record(1, id, EventKind::EvalStart { shard: 2 });
        rec.record(1, id, EventKind::EvalEnd { results: 11 });
        rec.record(1, id, EventKind::RouteDirect { shard: 2 });
        let json = rec.snapshot().to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"eval shard2\""));
        assert!(json.contains("\"name\":\"queued\""));
        assert!(json.contains("\"name\":\"submit\""));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"request\":7"));
    }

    #[test]
    fn timeline_renders_request_events_with_lanes() {
        let rec = FlightRecorder::for_workers(1, 64);
        let id = RequestId::new(3);
        rec.record(0, id, EventKind::Admitted);
        rec.record(1, id, EventKind::RouteFanout { shard: 0 });
        rec.record(0, RequestId::new(4), EventKind::Admitted);
        let text = rec.snapshot().timeline(id);
        assert!(text.contains("admitted"));
        assert!(text.contains("route_fanout"));
        assert!(text.contains("submit"));
        assert!(text.contains("shard0"));
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn request_id_display_and_sentinel() {
        assert!(RequestId::NONE.is_none());
        assert_eq!(RequestId::NONE.to_string(), "-");
        let id = RequestId::new(12);
        assert!(!id.is_none());
        assert_eq!(id.raw(), 12);
        assert_eq!(id.to_string(), "r12");
    }
}
