//! Directed-graph substrate used by every index in the FliX workspace.
//!
//! The crate provides:
//!
//! * a compact [`Digraph`] (CSR adjacency with forward and reverse edges),
//! * classic traversals ([`traversal`]): BFS order, unit-weight shortest
//!   paths, the plain reachability baseline, and the [`Axis`] every index
//!   lookup follows,
//! * [`scc`]: Tarjan strongly-connected components and graph condensation,
//! * [`topo`]: topological ordering of DAGs,
//! * [`spanning`]: spanning forests, tree/forest detection, and the
//!   "almost a tree" edge-removal analysis used by FliX's *Maximal PPO*
//!   configuration,
//! * [`partition`]: the greedy size-capped edge-cut partitioner behind
//!   FliX's *Unconnected HOPI* meta documents and its shard plans,
//! * [`pool`]: a scoped worker pool with deterministic job-ordered results,
//!   which runs a framework build's per-meta-document jobs,
//! * [`closure`]: exact transitive closure and all-pairs distances, used as
//!   a correctness oracle by tests and by the error-rate experiment,
//! * [`bitset`]: a small fixed-size bitset backing the closure computation,
//! * [`scratch`]: an epoch-stamped dense distance map the index crates
//!   reuse across lookups instead of allocating visited sets, and
//!   [`filled`], which runs a buffer-filling lookup on a fresh `Vec`,
//! * [`flat`]: the `#[serde(with = "graphcore::flat")]` module that writes
//!   a `Vec<u32>`-shaped field of a persisted index as one byte string,
//!   each lane packed to the bits of its largest value, instead of element
//!   by element,
//! * [`Rows`]: the one compressed-sparse-row table — `u32` offsets over
//!   packed entries, built from rows in order or grouped by a dense key,
//!   and checked in one place — behind the graph's adjacency and every
//!   index's row tables.
//!
//! Nodes are dense `u32` indices (see [`NodeId`]); all algorithms are
//! allocation-conscious and deterministic.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Fixed-size bitsets backing the closure computation.
pub mod bitset;
/// Exact transitive closure and all-pairs distance oracles.
pub mod closure;
/// The compact CSR digraph and its builder.
pub mod digraph;
/// Packed `serde` form of `u32` and `(u32, u32)` arrays: each lane at the
/// bits of its largest value.
pub mod flat;
/// Greedy size-capped edge-cut graph partitioning.
pub mod partition;
/// Scoped worker pool with deterministic, job-ordered results.
pub mod pool;
/// Compressed-sparse-row tables: offsets over packed entries.
pub mod rows;
/// Tarjan strongly-connected components and condensation.
pub mod scc;
/// Reusable epoch-stamped traversal scratch.
pub mod scratch;
/// Spanning forests and "almost a tree" edge-removal analysis.
pub mod spanning;
/// Topological ordering of DAGs.
pub mod topo;
/// BFS traversals and unit-weight shortest paths.
pub mod traversal;

pub use bitset::BitSet;
pub use closure::{DistanceOracle, TransitiveClosure};
pub use digraph::{Digraph, DigraphBuilder, NodeId};
pub use partition::{partition_greedy, Partitioning};
pub use rows::Rows;
pub use scc::{condensation, tarjan_scc, Condensation};
pub use scratch::{filled, DistScratch};
pub use spanning::is_forest;
pub use spanning::{spanning_forest, ForestCheck};
pub use topo::topological_order;
pub use traversal::{bfs_distances, bfs_from, is_reachable, Axis, Distance, INFINITE_DISTANCE};

/// Random graphs shared by the crate's property tests.
#[cfg(test)]
pub(crate) mod testing {
    use crate::Digraph;
    use proptest::prelude::*;

    /// A digraph of `1..max_nodes` nodes and up to three edges a node:
    /// cycles, isolated nodes, self loops and duplicate edges all occur.
    pub(crate) fn arb_graph(max_nodes: usize) -> impl Strategy<Value = Digraph> {
        (1..max_nodes).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n)
                .prop_map(move |edges| Digraph::from_edges(n, edges))
        })
    }
}
