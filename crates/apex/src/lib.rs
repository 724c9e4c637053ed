//! APEX-style structural-summary path index (\[4\] in the FliX paper).
//!
//! APEX maintains a *structural summary*: elements are grouped into summary
//! nodes by their incoming label paths, each summary node stores its extent
//! (the element set), and summary edges mirror element edges. The base
//! summary (APEX-0) groups by tag alone; refinement splits summary nodes by
//! the summary classes of their parents, uniformly to depth `k` (A(k)-style
//! backward bisimulation). APEX proper refines adaptively, along the label
//! paths a query workload uses; FliX never asks a label-path query, so this
//! build keeps the uniform refinement alone.
//!
//! The descendants-or-self axis, which FliX cares about, has no direct
//! support in the summary: it falls back to a summary-pruned traversal of
//! the element graph. That asymmetry is exactly why APEX loses against the
//! connection indexes in the paper's Figure 5.
//!
//! * [`summary`]: partition refinement and the summary graph.
//! * [`index::ApexIndex`]: the queryable index — one block lookup and one
//!   anchor lookup per axis, and the distance probe.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// The queryable APEX index built over a structural summary.
pub mod index;
/// Structural summaries via backward partition refinement.
pub mod summary;

pub use index::ApexIndex;
pub use summary::StructuralSummary;
