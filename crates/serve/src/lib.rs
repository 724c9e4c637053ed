//! `flixserve` — a concurrent query-serving subsystem for FliX.
//!
//! The paper pitches FliX for large, interlinked web-scale collections
//! where many clients query concurrently; the evaluator itself answers one
//! `a//b` at a time. This crate turns an immutable [`flix::Flix`] (or a
//! [`flix::CachedFlix`]) into a multi-client service:
//!
//! * **Worker pool over one bounded queue** — [`FlixServer`] runs N
//!   worker threads that take jobs from one bounded channel. Nothing on
//!   the serving path buffers without limit.
//! * **Admission control and load shedding** — once the in-flight count or
//!   the queue is at capacity, new requests are rejected with a typed
//!   [`ServeError::Overloaded`] instead of queuing into unbounded latency.
//! * **Every query mode** — a [`Request`] is a [`flix::Query`]: a
//!   descendants or ancestors query, `A//B`, or a connection test.
//! * **Per-request deadlines** — a [`flixobs::Deadline`] is threaded into
//!   the evaluator's priority-queue loop; a query that exceeds its budget
//!   returns the partial, distance-ordered prefix with a `timed_out`
//!   marker.
//! * **Single-flight collapsing** — identical in-flight queries run the
//!   evaluator once and fan the shared result out, composing with the
//!   result cache.
//! * **Graceful drain** — [`FlixServer::shutdown`] finishes every admitted
//!   request, rejects new ones with [`ServeError::ShuttingDown`], and
//!   leaves the metrics and the slow-query log intact for scraping.
//! * **Online rebuild and hot swap** — [`FlixServer::swap_backend`]
//!   replaces the engine under live traffic (in-flight queries finish on
//!   the old generation, new admissions see the new one), and
//!   [`Rebuilder`] closes the paper's self-tuning loop by rebuilding the
//!   load monitor's recommended configuration in the background and
//!   swapping it in ([`rebuild`]).
//!
//! ```
//! use flix::{Flix, FlixConfig, QueryOptions};
//! use flixserve::{FlixServer, Request, ServeConfig};
//! use std::sync::Arc;
//!
//! let mut coll = xmlgraph::Collection::new();
//! let t = coll.tags.intern("t");
//! let mut doc = xmlgraph::Document::new("a.xml");
//! let root = doc.add_element(t, None);
//! doc.add_element(t, Some(root));
//! coll.add_document(doc).unwrap();
//! let flix = Arc::new(Flix::build(Arc::new(coll.seal()), FlixConfig::Naive));
//!
//! let server = FlixServer::start(flix, ServeConfig::default());
//! let response = server
//!     .query(Request::descendants(0, t, QueryOptions::default()))
//!     .unwrap();
//! assert_eq!(response.results.len(), 1);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Online rebuild: background self-tuning with hot backend swaps.
pub mod rebuild;
/// The worker-pool server: admission, deadlines, single-flight, drain.
pub mod server;

pub use rebuild::{RebuildConfig, RebuildOutcome, Rebuilder};
pub use server::{
    Backend, FlixServer, Request, Response, ServeConfig, ServeError, ServeStats, Ticket,
};
