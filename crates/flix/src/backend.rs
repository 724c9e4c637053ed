//! The query-backend abstraction: what a server (or any other driver)
//! needs from an evaluation stack, whichever of the three it is — a plain
//! [`Flix`], a [`crate::CachedFlix`], or a [`crate::ShardedFlix`] with or
//! without per-shard caches. The trait hides which stack runs, and lets a
//! test substitute a fake one.

use crate::framework::Flix;
use crate::pee::{PeeStats, Query, QueryCtx, QueryOutcome, QueryResult};
use std::sync::Arc;

/// A backend's answer to one query.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The results — complete, or a distance-ordered prefix on timeout.
    /// Shared so cache hits and single-flight fan-out cost no copy.
    pub results: Arc<Vec<QueryResult>>,
    /// True when the deadline cut the evaluation short.
    pub timed_out: bool,
    /// The evaluator's counters; `None` only when no evaluator ran — the
    /// answer came out of a result cache.
    pub stats: Option<PeeStats>,
}

impl From<QueryOutcome> for Answer {
    fn from(outcome: QueryOutcome) -> Self {
        Self {
            results: Arc::new(outcome.results),
            timed_out: outcome.timed_out,
            stats: Some(outcome.stats),
        }
    }
}

/// An evaluation stack a server can run queries on and rebuild under.
pub trait QueryBackend: Send + Sync {
    /// Evaluates `query`, honouring every option in it and reporting to
    /// the observers in `ctx`.
    fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Answer;

    /// The framework the backend evaluates on.
    fn framework(self: Arc<Self>) -> Arc<Flix>;

    /// A backend of the same shape over a rebuilt framework, sharing no
    /// state with this one: plain stays plain, a cached backend gets an
    /// empty cache of the same capacity, a sharded one the same shard
    /// count and empty caches of the same per-shard capacity.
    fn over(self: Arc<Self>, rebuilt: Arc<Flix>) -> Arc<dyn QueryBackend>;
}

impl QueryBackend for Flix {
    fn evaluate(&self, query: &Query, ctx: &mut QueryCtx<'_>) -> Answer {
        Flix::evaluate(self, query, ctx).into()
    }

    fn framework(self: Arc<Self>) -> Arc<Flix> {
        self
    }

    fn over(self: Arc<Self>, rebuilt: Arc<Flix>) -> Arc<dyn QueryBackend> {
        rebuilt
    }
}
