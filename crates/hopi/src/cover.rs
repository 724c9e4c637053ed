//! Construction of the 2-hop cover: rank, then sweep.
//!
//! 1. **Rank** — condense the graph (Tarjan SCC), estimate every node's
//!    reachable-set sizes with Cohen's randomised estimator, and order
//!    centers by the product of ancestor- and descendant-set estimates
//!    (a 2-hop center covers up to one pair per combination), with degree
//!    and a balanced bit-reversed id as tie-breaks.
//! 2. **Sweep** — one two-sided pruned BFS from every node, in rank order,
//!    over the whole graph. A sweep from `w` labels a node only where the
//!    labels of earlier centers do not already answer its distance, so the
//!    finished labels answer every pair exactly, whatever graph they sweep.
//!
//! HOPI's own divide-and-conquer (partition, cover each part, merge along
//! crossing edges) is not repeated here: it exists because HOPI's greedy
//! set cover does not scale, which pruned sweeps do, and FliX's Unconnected
//! HOPI configuration already cuts the collection once (`flix::mdb`).
//!
//! **Determinism.** The rank is a function of the graph alone (fixed
//! estimator seed and tie-breaks) and the sweep is sequential, so a build
//! is byte-identical run to run.

use flixobs::Stopwatch;
use graphcore::{
    condensation, estimate_reach_counts, Digraph, Distance, NodeId, Reach, INFINITE_DISTANCE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Rounds of Cohen's reachable-set estimator in the ranking stage. More
/// rounds tighten the estimate, but the cover they rank is not monotone in
/// them: on the full-scale DBLP corpus (seed 2004) an Unconnected HOPI-5000
/// framework counts 12,190,676 index bytes (`BuildReport::index_bytes`) at
/// 2 rounds, 12,145,284 at 4, 12,266,708 at 8 and 12,198,404 at 16. It
/// stays 8 because any other value rewrites every HOPI image.
const RANK_ROUNDS: usize = 8;

/// Seed of the ranking estimator, fixed so builds are reproducible run to
/// run.
const RANK_SEED: u64 = 0xF11C;

/// Out-of-band record of one cover build: the wall clock of its stages.
///
/// Deliberately *not* stored inside [`crate::HopiIndex`]: wall-clock fields
/// differ run to run, and the persisted index image must stay byte-identical
/// across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageReport {
    /// Microseconds spent condensing the graph, estimating reachable-set
    /// sizes and ranking centers.
    pub rank_micros: u64,
    /// Always 0: the cover has no merge stage. Kept so a report keeps its
    /// persisted shape and its readers their `build.hopi_merge_ms` row.
    pub merge_micros: u64,
    /// Microseconds of the pruned sweep.
    pub cover_micros: u64,
}

impl StageReport {
    /// Accumulates another build's record (used when a framework build
    /// aggregates over several HOPI meta documents).
    pub fn absorb(&mut self, other: StageReport) {
        self.rank_micros += other.rank_micros;
        self.merge_micros += other.merge_micros;
        self.cover_micros += other.cover_micros;
    }
}

/// Label sets produced by the sweep, before `labels.rs` finishes the index
/// (sorting, inverted indexes, stats).
pub(crate) struct CoverLabels {
    /// `l_in[v]` entries `(center, d(center, v))`, in sweep order.
    pub l_in: Vec<Vec<(NodeId, Distance)>>,
    /// `l_out[u]` entries `(center, d(u, center))`, in sweep order.
    pub l_out: Vec<Vec<(NodeId, Distance)>>,
    /// BFS node visits across all sweeps (pruned visits included).
    pub visits: usize,
    /// Per-stage timings.
    pub report: StageReport,
}

/// Ranks `g`'s nodes, then sweeps from each in rank order, and returns the
/// raw label sets.
pub(crate) fn build_cover(g: &Digraph) -> CoverLabels {
    let n = g.node_count();
    let mut out = CoverLabels {
        l_in: vec![Vec::new(); n],
        l_out: vec![Vec::new(); n],
        visits: 0,
        report: StageReport::default(),
    };
    if n == 0 {
        return out;
    }

    let started = Stopwatch::start();
    let centers = rank_order(g);
    out.report.rank_micros = started.elapsed_micros();

    let started = Stopwatch::start();
    let rev = g.reversed();
    let mut scratch = SweepScratch::new(n);
    for &w in &centers {
        // Forward: L_in(v) gains (w, d(w, v)), pruned through L_out(w).
        out.visits += half_sweep(g, w, &out.l_out, &mut out.l_in, &mut scratch);
        // Backward: L_out(u) gains (w, d(u, w)), pruned through L_in(w).
        out.visits += half_sweep(&rev, w, &out.l_in, &mut out.l_out, &mut scratch);
    }
    out.report.cover_micros = started.elapsed_micros();
    out
}

/// Every node of `g`, in center-processing order.
///
/// Primary key: product of Cohen's descendant- and ancestor-set estimates,
/// descending (the number of (ancestor, descendant) pairs a node can serve
/// as 2-hop midpoint for). Ties break on total degree (descending), then
/// the bit-reversed id — which approximates the balanced middle-first order
/// on score-uniform regions such as long chains, and is distinct per node.
/// Both estimates run over the condensation of `g`.
fn rank_order(g: &Digraph) -> Vec<NodeId> {
    let cond = condensation(g);
    let desc = estimate_reach_counts(&cond, Reach::Descendants, RANK_ROUNDS, RANK_SEED);
    let anc = estimate_reach_counts(
        &cond,
        Reach::Ancestors,
        RANK_ROUNDS,
        RANK_SEED ^ 0x9E37_79B9_7F4A_7C15,
    );
    let score: Vec<f64> = desc.iter().zip(&anc).map(|(d, a)| d * a).collect();
    let degree: Vec<usize> = g
        .nodes()
        .map(|u| g.out_degree(u) + g.in_degree(u))
        .collect();
    let mut order: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
    order.sort_unstable_by(|&a, &b| {
        let (i, j) = (a as usize, b as usize);
        score[j]
            .total_cmp(&score[i])
            .then(degree[j].cmp(&degree[i]))
            .then_with(|| a.reverse_bits().cmp(&b.reverse_bits()))
    });
    order
}

/// Reusable scratch for the sweep: BFS distances and the pruning array,
/// both indexed by node id.
struct SweepScratch {
    dist: Vec<Distance>,
    center_dist: Vec<Distance>,
    queue: VecDeque<NodeId>,
    touched: Vec<NodeId>,
}

impl SweepScratch {
    fn new(nodes: usize) -> Self {
        Self {
            dist: vec![INFINITE_DISTANCE; nodes],
            center_dist: vec![INFINITE_DISTANCE; nodes],
            queue: VecDeque::new(),
            touched: Vec::new(),
        }
    }
}

/// One pruned BFS from `w` over `adj`: every node `u` not already covered
/// at its BFS distance gains the entry `(w, d)` in `grow[u]`. `own` is
/// `w`'s opposite-side label list, loaded into the `center_dist` scratch so
/// each pruning test costs O(|grow[u]|) — the standard 2-hop trick.
fn half_sweep(
    adj: &Digraph,
    w: NodeId,
    own: &[Vec<(NodeId, Distance)>],
    grow: &mut [Vec<(NodeId, Distance)>],
    scratch: &mut SweepScratch,
) -> usize {
    let SweepScratch {
        dist,
        center_dist,
        queue,
        touched,
    } = scratch;
    for &(c, d) in &own[w as usize] {
        center_dist[c as usize] = d;
    }
    center_dist[w as usize] = 0;
    dist[w as usize] = 0;
    touched.push(w);
    queue.push_back(w);
    let mut visits = 0usize;
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        visits += 1;
        // Prune if d(w, u) <= d is already answerable from the labels of
        // earlier (higher-ranked) centers.
        let covered = grow[u as usize].iter().any(|&(c, dc)| {
            center_dist[c as usize] != INFINITE_DISTANCE && center_dist[c as usize] + dc <= d
        });
        if covered {
            continue;
        }
        grow[u as usize].push((w, d));
        for &v in adj.successors(u) {
            if dist[v as usize] == INFINITE_DISTANCE {
                dist[v as usize] = d + 1;
                touched.push(v);
                queue.push_back(v);
            }
        }
    }
    for &t in touched.iter() {
        dist[t as usize] = INFINITE_DISTANCE;
    }
    touched.clear();
    for &(c, _) in &own[w as usize] {
        center_dist[c as usize] = INFINITE_DISTANCE;
    }
    center_dist[w as usize] = INFINITE_DISTANCE;
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DistanceOracle, TransitiveClosure};

    /// Chained triangles with shortcut DAG edges: several SCCs, with
    /// shortest paths that cross from one to the next.
    fn chained_triangles() -> Digraph {
        let mut edges = Vec::new();
        for base in [0u32, 3, 6, 9] {
            edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base)]);
        }
        edges.extend([(2, 3), (5, 6), (8, 9), (1, 6), (4, 11)]);
        Digraph::from_edges(12, edges)
    }

    #[test]
    fn cover_is_exact_on_a_cyclic_graph() {
        let g = chained_triangles();
        let cover = build_cover(&g);
        assert!(cover.visits > 0);
        let tc = TransitiveClosure::build(&g);
        let oracle = DistanceOracle::new(&g);
        let n = g.node_count() as NodeId;
        for u in 0..n {
            for v in 0..n {
                let mut best = INFINITE_DISTANCE;
                for &(c, dc) in &cover.l_out[u as usize] {
                    for &(c2, dc2) in &cover.l_in[v as usize] {
                        if c == c2 {
                            best = best.min(dc + dc2);
                        }
                    }
                }
                assert_eq!(
                    best != INFINITE_DISTANCE,
                    tc.reaches(u, v),
                    "reach {u}->{v}"
                );
                if best != INFINITE_DISTANCE {
                    assert_eq!(best, oracle.distance(u, v), "dist {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn report_absorb_sums() {
        let mut a = StageReport {
            rank_micros: 1,
            merge_micros: 2,
            cover_micros: 3,
        };
        a.absorb(StageReport {
            rank_micros: 10,
            merge_micros: 20,
            cover_micros: 30,
        });
        assert_eq!(a.rank_micros, 11);
        assert_eq!(a.merge_micros, 22);
        assert_eq!(a.cover_micros, 33);
    }
}
