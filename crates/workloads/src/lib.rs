//! Synthetic XML collection and query workload generators.
//!
//! The paper's experiments run on an extract of the real DBLP corpus
//! (6,210 documents / 168,991 elements / 25,368 inter-document links /
//! 27 MB — one document per publication, linked by citations). That extract
//! is not redistributable, so [`dblp`] generates a seeded synthetic corpus
//! with the same document shape and the same structural scale knobs; the
//! substitution is documented in DESIGN.md.
//!
//! The other generators cover the structural regimes FliX's configurations
//! are designed for (paper §4.3):
//!
//! * [`trees`] — link-free tree collections (the PPO-naive sweet spot),
//! * [`web`] — densely interlinked collections (the Unconnected-HOPI
//!   regime),
//! * [`mixed`] — a tree-ish region plus a dense region, like the paper's
//!   Figure 1 (the Hybrid regime),
//! * [`queries`] — descendants and connection-test query workloads.
//!
//! All generators are deterministic for a given seed.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

pub mod dblp;
pub mod mixed;
pub mod queries;
pub mod trees;
pub mod web;

pub use dblp::{generate_dblp, DblpConfig};
pub use mixed::{generate_mixed, MixedConfig};
pub use queries::{connection_pairs, descendant_queries, ConnectionPair, DescendantQuery};
pub use trees::{generate_trees, TreeConfig};
pub use web::{generate_web, WebConfig};
