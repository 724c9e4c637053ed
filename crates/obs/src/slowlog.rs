//! The slow-query log: a fixed-capacity buffer of the worst requests.
//!
//! Aggregates (a percentile) tell you *that* the tail is bad; the slow-query
//! log keeps *which* requests are behind the tail — their [`RequestId`]s,
//! not a copy of what happened to them: that is on the flight recorder's
//! journal, under the id (`JournalSnapshot::timeline`). The buffer holds
//! at most `capacity` entries; when full, a new entry replaces the current
//! fastest retained one only if it is slower — i.e. the log always retains
//! the N worst queries seen so far, in O(capacity) per offer with no
//! allocation churn.

use crate::journal::RequestId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One retained slow query.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Monotone sequence number of the offer (order of arrival).
    pub seq: u64,
    /// The request, as the flight recorder's journal knows it: its
    /// timeline there is the trace of what made it slow.
    pub request: RequestId,
    /// Free-form description of the query (start, target, axis).
    pub label: String,
    /// End-to-end latency, admission to completion.
    pub total_micros: u64,
}

/// Fixed-capacity log retaining the N slowest queries by total latency.
#[derive(Debug)]
pub struct SlowQueryLog {
    inner: Mutex<LogInner>,
    capacity: usize,
    /// Lowest `total_micros` that could still be retained: 0 until the log
    /// fills, then one past the fastest retained entry. Lets hot paths
    /// skip building a label (and taking the lock) for queries that could
    /// not possibly displace anything — see [`SlowQueryLog::would_retain`].
    floor: AtomicU64,
}

#[derive(Debug)]
struct LogInner {
    entries: Vec<SlowQuery>,
    /// Sequence number of the next offer.
    next_seq: u64,
}

impl SlowQueryLog {
    /// An empty log retaining at most `capacity` queries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(LogInner {
                entries: Vec::new(),
                next_seq: 0,
            }),
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
        }
    }

    /// Whether a finished query with this total latency could be retained
    /// right now. A cheap (lock-free) pre-check for hot paths: when it
    /// returns `false`, [`SlowQueryLog::offer`] would reject the query, so
    /// the caller can skip describing it entirely. A `true` is advisory —
    /// a racing offer may still win — but never stays stale in the
    /// rejecting direction for a given latency once the log has settled.
    pub fn would_retain(&self, total_micros: u64) -> bool {
        total_micros >= self.floor.load(Ordering::Relaxed)
    }

    /// Offers a finished query. Returns `true` if it was retained (always,
    /// until the log is full; afterwards only when slower than the current
    /// fastest retained entry, which it replaces).
    pub fn offer(&self, request: RequestId, label: String, total_micros: u64) -> bool {
        let mut inner = self.inner.lock();
        let entry = SlowQuery {
            seq: inner.next_seq,
            request,
            label,
            total_micros,
        };
        inner.next_seq += 1;
        if inner.entries.len() < self.capacity {
            inner.entries.push(entry);
            if inner.entries.len() == self.capacity {
                self.refresh_floor(&inner);
            }
            return true;
        }
        match inner.entries.iter_mut().min_by_key(|e| e.total_micros) {
            Some(fastest) if fastest.total_micros < total_micros => {
                *fastest = entry;
                self.refresh_floor(&inner);
                true
            }
            _ => false,
        }
    }

    /// Re-derives the retention floor from a full entry set: one past the
    /// fastest retained entry, since `offer` only replaces on strictly
    /// slower.
    fn refresh_floor(&self, inner: &LogInner) {
        let min = inner
            .entries
            .iter()
            .map(|e| e.total_micros)
            .min()
            .unwrap_or(0);
        self.floor.store(min.saturating_add(1), Ordering::Relaxed);
    }

    /// Retained queries, slowest first (ties broken by arrival order).
    pub fn worst(&self) -> Vec<SlowQuery> {
        let mut entries = self.inner.lock().entries.clone();
        entries.sort_by_key(|e| (std::cmp::Reverse(e.total_micros), e.seq));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offers one query of `micros` under the id `micros` itself.
    fn offer(log: &SlowQueryLog, micros: u64) -> bool {
        log.offer(RequestId::new(micros), "q".to_string(), micros)
    }

    fn worst_micros(log: &SlowQueryLog) -> Vec<u64> {
        log.worst().iter().map(|e| e.total_micros).collect()
    }

    #[test]
    fn retains_the_n_worst() {
        let log = SlowQueryLog::new(3);
        for micros in [10, 50, 20, 5, 90, 40] {
            offer(&log, micros);
        }
        assert_eq!(worst_micros(&log), vec![90, 50, 40]);
        assert_eq!(log.worst()[0].request, RequestId::new(90));
    }

    #[test]
    fn rejects_faster_than_retained_minimum() {
        let log = SlowQueryLog::new(2);
        assert!(offer(&log, 100));
        assert!(offer(&log, 200));
        assert!(!offer(&log, 50));
        assert!(offer(&log, 150));
        assert_eq!(worst_micros(&log), vec![200, 150]);
    }

    #[test]
    fn would_retain_tracks_the_retention_floor() {
        let log = SlowQueryLog::new(2);
        // Below capacity everything is retainable, even a 0µs query.
        assert!(log.would_retain(0));
        offer(&log, 100);
        assert!(log.would_retain(0));
        offer(&log, 200);
        // Full: only queries strictly slower than the fastest entry pass.
        assert!(!log.would_retain(100));
        assert!(log.would_retain(101));
        offer(&log, 150);
        assert!(!log.would_retain(150));
        assert!(log.would_retain(151));
    }

    #[test]
    fn capacity_floor_is_one() {
        let log = SlowQueryLog::new(0);
        offer(&log, 5);
        offer(&log, 9);
        assert_eq!(worst_micros(&log), vec![9]);
    }
}
