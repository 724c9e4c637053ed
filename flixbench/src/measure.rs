//! The timed part: a warm-up, then rounds. Latency samples are raw
//! nanoseconds in a preallocated vector; order statistics are exact.
//!
//! Every round yields its own wall-clock throughput and its own p50 / p99
//! over the samples taken in it; a reported value is the **median of the
//! per-round values**, and the interquartile range of the rounds over that
//! median is printed beside it as its spread. Nothing is filtered: a stall
//! in the queue, the handoff or a lock is in the samples of its round.

use crate::stats::{Round, Summary};
use flixobs::Stopwatch;
use flixserve::{FlixServer, Request, Response, ServeError, Ticket};
use std::collections::VecDeque;

/// How the timed part of a run is cut up.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed lead-in, seconds (caches fill, lazy set-up finishes).
    pub warmup_s: f64,
    /// Measured rounds.
    pub rounds: usize,
    /// Length of one round, seconds (a serial round runs on to the end of
    /// the pass over the query list it is in).
    pub round_s: f64,
}

/// Rounds of the end-to-end pass.
pub const ROUNDS: usize = 6;

impl Plan {
    /// `seconds` cut into a tenth of warm-up and [`ROUNDS`] rounds.
    pub fn end_to_end(seconds: f64) -> Self {
        Self {
            warmup_s: seconds * 0.1,
            rounds: ROUNDS,
            round_s: seconds * 0.9 / ROUNDS as f64,
        }
    }
}

/// What a sequence of rounds measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// One entry per measured round.
    pub rounds: Vec<Round>,
    /// Operations issued, warm-up included.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered wrongly.
    pub failed: u64,
}

impl Measured {
    fn over_rounds(&self, pick: fn(&Round) -> f64) -> Summary {
        Summary::median_of(&self.rounds.iter().map(pick).collect::<Vec<_>>())
    }

    /// Throughput: operations per second of round wall time.
    pub fn per_s(&self) -> Summary {
        self.over_rounds(|r| r.per_s)
    }

    /// Median latency.
    pub fn p50_us(&self) -> Summary {
        self.over_rounds(|r| r.p50_us)
    }

    /// 99th-percentile latency.
    pub fn p99_us(&self) -> Summary {
        self.over_rounds(|r| r.p99_us)
    }

    /// Operations inside measured rounds.
    pub fn measured_ops(&self) -> usize {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// Folds another sequence of rounds of the same traffic in.
    pub fn absorb(&mut self, other: Measured) {
        self.rounds.extend(other.rounds);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn ns(sw: &Stopwatch) -> u64 {
    u64::try_from(sw.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Room for a round's samples up front, so the timed loop never grows it.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// Runs `op` back to back from one thread: `op(i)` performs request `i`
/// (the caller maps `i` onto its `pass`-long query list) and reports
/// whether the answer was right. A round ends at the first pass boundary
/// after its time is up, so every round is whole passes over the list;
/// rounds are run until the plan's `rounds × round_s` of measured time is
/// spent, so their number varies with the length of a pass. The warm-up is
/// at least one whole pass. `*cursor` carries `i` across calls so
/// consecutive plans continue the same request sequence.
pub fn run_serial(
    plan: &Plan,
    pass: usize,
    cursor: &mut usize,
    mut op: impl FnMut(usize) -> bool,
) -> Measured {
    let mut out = Measured::default();
    let mut samples: Vec<u64> = Vec::with_capacity(SAMPLE_CAPACITY);
    // Rounds overshoot to their pass boundary, so their number is whatever
    // fits the plan's measured time; the first iteration is the warm-up.
    let measured_budget = (plan.rounds as f64 * plan.round_s * 1e9) as u64;
    let mut measured_ns = 0u64;
    let mut warmup = true;
    let pass = pass.max(1);
    while warmup || measured_ns < measured_budget {
        let budget = (if warmup { plan.warmup_s } else { plan.round_s } * 1e9) as u64;
        if budget > 0 {
            samples.clear();
            let sw = Stopwatch::start();
            let mut t0 = 0u64;
            loop {
                let ok = op(*cursor);
                let t1 = ns(&sw);
                samples.push(t1 - t0);
                t0 = t1;
                *cursor += 1;
                out.attempted += 1;
                out.failed += u64::from(!ok);
                if t1 >= budget && *cursor % pass == 0 {
                    break;
                }
            }
            if !warmup {
                measured_ns += t0;
                out.rounds.push(Round::of(&mut samples, t0));
            }
        }
        warmup = false;
    }
    out
}

/// One in-flight request of the closed loop.
struct Pending {
    ticket: Ticket,
    submitted_ns: u64,
    request: usize,
}

/// What the closed loop saw of one completed request.
pub struct Completion<'a> {
    /// Index of the request in the caller's sequence.
    pub request: usize,
    /// The reply, or why there was none.
    pub reply: &'a Result<Response, ServeError>,
    /// Client clock at submission, nanoseconds.
    pub submitted_ns: u64,
    /// Client clock when the reply was in hand, nanoseconds.
    pub completed_ns: u64,
}

/// What a closed loop runs against.
#[derive(Clone, Copy)]
pub struct LoopTarget<'a> {
    /// The server under load.
    pub server: &'a FlixServer,
    /// Requests kept in flight.
    pub window: usize,
    /// The clock submissions and replies are stamped on.
    pub clock: &'a Stopwatch,
}

/// Closed loop from one generator thread with `window` requests in flight:
/// the next request is sent only when the oldest outstanding one has been
/// answered, so a slow server receives less load. Client latency runs from
/// just before `submit` to the reply being in hand, on the caller's
/// `clock`. `request(i)` builds request `i`; `settle` judges each
/// completion and reports whether it was right. A refused submission
/// counts as failed and is not retried.
pub fn run_closed_loop(
    plan: &Plan,
    target: &LoopTarget<'_>,
    cursor: &mut usize,
    request: impl Fn(usize) -> Request,
    mut settle: impl FnMut(&Completion<'_>) -> bool,
) -> Measured {
    let LoopTarget {
        server,
        window,
        clock,
    } = *target;
    let mut out = Measured::default();
    let mut samples: Vec<u64> = Vec::with_capacity(SAMPLE_CAPACITY);
    let mut pipeline: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut finish = |p: Pending, samples: &mut Vec<u64>, out: &mut Measured| {
        let reply = p.ticket.wait();
        let completed_ns = ns(clock);
        samples.push(completed_ns - p.submitted_ns);
        let ok = settle(&Completion {
            request: p.request,
            reply: &reply,
            submitted_ns: p.submitted_ns,
            completed_ns,
        });
        out.failed += u64::from(!ok);
    };
    for round in 0..=plan.rounds {
        let warmup = round == 0;
        let budget = (if warmup { plan.warmup_s } else { plan.round_s } * 1e9) as u64;
        if budget == 0 {
            continue;
        }
        samples.clear();
        let start = ns(clock);
        loop {
            while pipeline.len() >= window.max(1) {
                if let Some(p) = pipeline.pop_front() {
                    finish(p, &mut samples, &mut out);
                }
            }
            let submitted_ns = ns(clock);
            if submitted_ns - start >= budget {
                break;
            }
            out.attempted += 1;
            match server.submit(request(*cursor)) {
                Ok(ticket) => pipeline.push_back(Pending {
                    ticket,
                    submitted_ns,
                    request: *cursor,
                }),
                Err(_) => out.failed += 1,
            }
            *cursor += 1;
        }
        if !warmup {
            out.rounds.push(Round::of(&mut samples, ns(clock) - start));
        }
    }
    for p in pipeline.drain(..) {
        finish(p, &mut samples, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_rounds_count_every_operation() {
        let plan = Plan {
            warmup_s: 0.002,
            rounds: 3,
            round_s: 0.004,
        };
        let mut cursor = 0usize;
        let mut calls = 0u64;
        let m = run_serial(&plan, 7, &mut cursor, |i| {
            calls += 1;
            std::hint::black_box(i);
            i % 10 != 0
        });
        assert!((1..=3).contains(&m.rounds.len()));
        assert_eq!(m.attempted, calls);
        assert_eq!(cursor as u64, calls);
        assert_eq!(cursor % 7, 0, "rounds end on pass boundaries");
        assert!(m.rounds.iter().all(|r| r.ops % 7 == 0));
        assert!(m.measured_ops() as u64 <= m.attempted);
        // Every tenth request "fails".
        assert!(m.failed >= m.attempted / 10 && m.failed <= m.attempted / 10 + 1);
        assert!(m.per_s().value > 0.0);
        // A second plan continues the request sequence.
        let before = cursor;
        let again = run_serial(&plan, 1, &mut cursor, |i| i >= before);
        assert_eq!(again.failed, 0);
    }

    #[test]
    fn values_are_medians_over_the_rounds() {
        let round = |per_s, p50_us, p99_us| Round {
            ops: 100,
            per_s,
            p50_us,
            p99_us,
        };
        let mut m = Measured {
            rounds: vec![round(900.0, 10.0, 50.0), round(1_100.0, 12.0, 90.0)],
            attempted: 200,
            failed: 0,
        };
        m.absorb(Measured {
            // One stalled round: it moves no median, but it is in the spread.
            rounds: vec![round(1_000.0, 11.0, 400.0)],
            attempted: 100,
            failed: 1,
        });
        assert_eq!(m.per_s().value, 1_000.0);
        assert_eq!(m.p50_us().value, 11.0);
        assert_eq!(m.p99_us().value, 90.0);
        // statistics.quantiles([50, 90, 400], n=4) = [50, 90, 400].
        assert!((m.p99_us().spread - 350.0 / 90.0).abs() < 1e-12);
        assert_eq!((m.attempted, m.failed, m.measured_ops()), (300, 1, 300));
        assert_eq!(Measured::default().per_s().value, 0.0);
    }

    #[test]
    fn end_to_end_plan_spends_the_seconds_it_is_given() {
        let p = Plan::end_to_end(10.0);
        assert_eq!(p.rounds, ROUNDS);
        assert!((p.warmup_s + p.round_s * ROUNDS as f64 - 10.0).abs() < 1e-9);
    }
}
