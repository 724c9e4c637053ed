//! Construction of the 2-hop cover: rank, then sweep.
//!
//! 1. **Rank** — count every node's walks of up to three edges
//!    down its successors and up its predecessors, and order centers by
//!    the product of the two counts, descending (a 2-hop center serves the
//!    pairs it lies between, and the walks through a node are a cheap,
//!    local measure of them), with the bit-reversed id as the tie-break.
//! 2. **Sweep** — one two-sided pruned BFS from every node, in rank order,
//!    over the whole graph. A sweep from `w` labels a node only where the
//!    labels of earlier centers do not already answer its distance, so the
//!    finished labels answer every pair exactly, whatever the order and
//!    whatever graph they sweep: the rank decides only the cover's size.
//!
//! HOPI's own divide-and-conquer (partition, cover each part, merge along
//! crossing edges) is not repeated here: it exists because HOPI's greedy
//! set cover does not scale, which pruned sweeps do, and FliX's Unconnected
//! HOPI configuration already cuts the collection once (`flix::mdb`).
//!
//! **Determinism.** The rank is a function of the graph alone (integer
//! keys, a tie-break unique per node) and the sweep is sequential, so a
//! build is byte-identical run to run.

use flixobs::Stopwatch;
use graphcore::{Digraph, Distance, NodeId, INFINITE_DISTANCE};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Longest walk the rank counts, in edges. The cover is not monotone in
/// it: on the full-scale DBLP corpus (seed 2004) an Unconnected HOPI-5000
/// framework counts 10.500 MB of index at 2 steps, 10.312 at 3, 10.666 at
/// 4 and 10.786 at 8, and the degree product (1 step) grows the index on
/// other corpus seeds. Any other value rewrites every HOPI image.
const WALK_STEPS: usize = 3;

/// Out-of-band record of one cover build: the wall clock of its stages.
///
/// Deliberately *not* stored inside [`crate::HopiIndex`]: wall-clock fields
/// differ run to run, and the persisted index image must stay byte-identical
/// across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageReport {
    /// Microseconds spent counting walks and ranking centers.
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
    let started = Stopwatch::start();
    let centers = rank_order(g);
    let rank_micros = started.elapsed_micros();
    let mut out = sweep(g, &centers);
    out.report.rank_micros = rank_micros;
    out
}

/// Sweeps from every center of `centers` (each node of `g` once), in that
/// order. Any order gives an exact cover.
pub(crate) fn sweep(g: &Digraph, centers: &[NodeId]) -> CoverLabels {
    let n = g.node_count();
    let started = Stopwatch::start();
    let mut out = CoverLabels {
        l_in: vec![Vec::new(); n],
        l_out: vec![Vec::new(); n],
        visits: 0,
        report: StageReport::default(),
    };
    let rev = g.reversed();
    let mut scratch = SweepScratch::new(n);
    for &w in centers {
        // Forward: L_in(v) gains (w, d(w, v)), pruned through L_out(w).
        out.visits += half_sweep(g, w, &out.l_out, &mut out.l_in, &mut scratch);
        // Backward: L_out(u) gains (w, d(u, w)), pruned through L_in(w).
        out.visits += half_sweep(&rev, w, &out.l_in, &mut out.l_out, &mut scratch);
    }
    out.report.cover_micros = started.elapsed_micros();
    out
}

/// Every node of `g`, in center-processing order: by the product of its
/// walk counts down and up ([`walks`]), descending, then by the
/// bit-reversed id — which approximates the balanced middle-first order on
/// key-uniform regions such as long chains, and is distinct per node, so
/// the order is total.
fn rank_order(g: &Digraph) -> Vec<NodeId> {
    let down = walks(g, |u| g.successors(u));
    let up = walks(g, |u| g.predecessors(u));
    let key: Vec<u128> = down
        .iter()
        .zip(&up)
        .map(|(&d, &a)| u128::from(d) * u128::from(a))
        .collect();
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_unstable_by_key(|&u| (Reverse(key[u as usize]), u.reverse_bits()));
    order
}

/// Per node, the walks of at most [`WALK_STEPS`] edges that start there
/// and follow `next`, the empty walk included: `w₀ = 1` and `wᵢ₊₁(u) = 1 +
/// Σ wᵢ(v)` over `v ∈ next(u)`, saturating.
fn walks<'g>(g: &Digraph, next: impl Fn(NodeId) -> &'g [NodeId]) -> Vec<u64> {
    let mut counts = vec![1u64; g.node_count()];
    for _ in 0..WALK_STEPS {
        counts = g
            .nodes()
            .map(|u| {
                next(u)
                    .iter()
                    .fold(1u64, |s, &v| s.saturating_add(counts[v as usize]))
            })
            .collect();
    }
    counts
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// The first pair of `g` whose reachability or distance `cover`
    /// answers unlike the transitive closure and the BFS oracle.
    fn inexact_pair(g: &Digraph, cover: &CoverLabels) -> Option<(NodeId, NodeId)> {
        let tc = TransitiveClosure::build(g);
        let oracle = DistanceOracle::new(g);
        let n = g.node_count() as NodeId;
        let mut pairs = (0..n).flat_map(|u| (0..n).map(move |v| (u, v)));
        pairs.find(|&(u, v)| {
            let mut best = INFINITE_DISTANCE;
            for &(c, dc) in &cover.l_out[u as usize] {
                for &(c2, dc2) in &cover.l_in[v as usize] {
                    if c == c2 {
                        best = best.min(dc + dc2);
                    }
                }
            }
            let reached = best != INFINITE_DISTANCE;
            reached != tc.reaches(u, v) || (reached && best != oracle.distance(u, v))
        })
    }

    #[test]
    fn cover_is_exact_on_a_cyclic_graph() {
        let g = chained_triangles();
        let cover = build_cover(&g);
        assert!(cover.visits > 0);
        assert_eq!(inexact_pair(&g, &cover), None);
    }

    /// A digraph of `1..14` nodes (cycles welcome) with its nodes in a
    /// random order.
    fn arb_graph_and_order() -> impl Strategy<Value = (Digraph, Vec<NodeId>)> {
        (1usize..14).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..3 * n);
            let keys = proptest::collection::vec(any::<u32>(), n);
            (edges, keys).prop_map(move |(e, keys)| {
                let mut order: Vec<NodeId> = (0..n as NodeId).collect();
                order.sort_by_key(|&u| keys[u as usize]);
                (Digraph::from_edges(n, e), order)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The sweep is exact in any center order, which is what lets the
        /// rank choose its order for size alone.
        #[test]
        fn any_center_order_gives_an_exact_cover((g, order) in arb_graph_and_order()) {
            prop_assert_eq!(inexact_pair(&g, &sweep(&g, &order)), None);
        }
    }

    /// A fixed citation-like collection, shaped like the DBLP corpus's HOPI
    /// meta documents: 200 small publication trees in id order, the later
    /// half each citing about six of the 30 documents before it.
    fn citation_graph() -> Digraph {
        let mut rng = SmallRng::seed_from_u64(2004);
        let (mut edges, mut roots) = (Vec::new(), Vec::new());
        let mut next: NodeId = 0;
        for doc in 0..200usize {
            let root = next;
            roots.push(root);
            let children: NodeId = rng.gen_range(2..6);
            edges.extend((1..=children).map(|c| (root, root + c)));
            next += children + 1;
            if doc >= 100 {
                for _ in 0..rng.gen_range(3..10) {
                    let cited = roots[doc - rng.gen_range(1..=30usize)];
                    edges.extend([(root, next), (next, cited)]);
                    next += 1;
                }
            }
        }
        Digraph::from_edges(next as usize, edges)
    }

    /// The rank earns its stage: on [`citation_graph`] the ranked cover
    /// holds 15,540 label entries where the cover swept in id order holds
    /// 36,831 (measured; the test asks only for fewer).
    #[test]
    fn the_rank_shrinks_the_cover() {
        let g = citation_graph();
        let entries = |c: &CoverLabels| c.l_in.iter().chain(&c.l_out).map(Vec::len).sum::<usize>();
        let ranked = build_cover(&g);
        let by_id = sweep(&g, &g.nodes().collect::<Vec<_>>());
        assert!(entries(&ranked) < entries(&by_id));
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
