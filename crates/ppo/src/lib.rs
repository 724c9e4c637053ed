//! Pre/postorder (PPO) XPath accelerator — Grust's index ([10, 11] in the
//! paper) plus FliX's extension to documents with links.
//!
//! A depth-first traversal assigns every element a preorder and postorder
//! rank; `x` is an ancestor of `y` iff `pre(x) < pre(y) && post(x) >
//! post(y)`. The index numbers the elements by their preorder rank, so
//! post follows from size and depth and a subtree is a rank interval. All
//! XPath axes reduce to rank comparisons, and the distance
//! between an ancestor/descendant pair is the depth difference. Build time
//! is `O(|E|)` and space `O(|V|)` — unbeatable when it applies, but it
//! *only* applies to forests: that is the limitation FliX works around.
//!
//! * [`index::PpoIndex`] — the classic index over a forest.
//! * [`extended::ExtendedPpo`] — the paper's §4.3 extension: accepts any
//!   graph, indexes a spanning forest, and reports the removed edges so the
//!   caller (FliX's query evaluator) can chase them at run time.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Extended PPO: pre/postorder adapted to graphs with links.
pub mod extended;
/// The classic pre/postorder interval index over a forest.
pub mod index;

pub use extended::ExtendedPpo;
pub use index::{PpoError, PpoIndex};
