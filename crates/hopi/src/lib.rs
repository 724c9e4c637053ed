//! HOPI — a two-hop-cover connection index with distance labels ([18] in
//! the FliX paper, building on Cohen et al.'s 2-hop labels [6]).
//!
//! Every node `v` carries two label sets `L_in(v)` and `L_out(v)` of
//! *(center, distance)* pairs such that there is a path `u -> v` iff
//! `L_out(u) ∩ L_in(v) ≠ ∅`, and the path length is the minimum of
//! `d(u,w) + d(w,v)` over the common centers `w`. A distance query is a
//! label-set merge; the one lookup, a block of labelled descendants or
//! ancestors with the link anchors reached, joins over an inverted center
//! index.
//!
//! **Construction substitution (documented in DESIGN.md):** the original
//! HOPI computes an approximate minimum 2-hop cover with a set-cover greedy
//! over densest subgraphs of the transitive closure, made tractable by a
//! divide-and-conquer partitioning step. We build the same label structure
//! with pruned breadth-first searches from ranked centers (the technique
//! later formalised as pruned landmark labelling), staged over the SCC
//! condensation exactly as the paper's divide-and-conquer prescribes:
//! partition, cover each partition (in parallel), merge across
//! partition-crossing edges (see [`cover`]). The resulting index has
//! identical query semantics, *exact* distances, and the same asymptotic
//! size behaviour (small for tree-like data, growing with link density),
//! while being robustly fast to build — which is what the paper's
//! experiments need from the HOPI building block.
//!
//! * [`cover`] — the staged (rank / partition / merge / parallel cover)
//!   construction pipeline and its [`StageReport`].
//! * [`labels::HopiIndex`] — the index: build, distance, the one lookup
//!   ([`HopiIndex::answer_into`]), size.
//!
//! The paper's §4.3 *Unconnected HOPI* (one index per partition,
//! partition-crossing edges chased at run time) is a framework
//! configuration, not a second index: `flix::mdb` partitions the collection
//! and builds one [`HopiIndex`] per meta document.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_docs)]

/// Staged divide-and-conquer construction of the 2-hop cover.
pub mod cover;
/// The 2-hop label index: construction, distance and the one lookup.
pub mod labels;

pub use cover::{CoverOptions, StageReport};
pub use labels::{BuildStats, HopiIndex, Reached};
