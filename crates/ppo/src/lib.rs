//! Pre/postorder (PPO) XPath accelerator — Grust's index ([10, 11] in the
//! paper) with FliX's extension to documents with links.
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
//! [`index::PpoIndex`] is the paper's §4.3 extended PPO: it accepts any
//! graph, indexes a spanning forest of it, and keeps the edges that forest
//! leaves out so the caller (FliX's query evaluator) can chase them at run
//! time. Over a forest nothing is left out and it is the classic index.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// The pre/postorder interval index over a spanning forest.
pub mod index;

pub use index::PpoIndex;
