//! Staged construction of the 2-hop cover.
//!
//! HOPI (paper §2.2) builds its cover by divide and conquer: partition the
//! graph, compute covers per part, merge along partition-crossing edges.
//! This module is that pipeline, made explicit and parallel:
//!
//! 1. **Rank** — condense the graph (Tarjan SCC), estimate every node's
//!    reachable-set sizes with Cohen's randomised estimator, and order
//!    centers by the product of ancestor- and descendant-set estimates
//!    (a 2-hop center covers up to one pair per combination), with degree
//!    and a balanced bit-reversed id as tie-breaks.
//! 2. **Partition** — group whole SCCs along the condensation DAG into
//!    size-capped blocks ([`graphcore::partition_condensation`]); cycles
//!    never cross blocks, so only DAG edges do.
//! 3. **Merge** — a *sequential* pruned-BFS sweep over the border centers
//!    (targets of partition-crossing edges) in rank order, searching the
//!    full graph. Every connection whose shortest path crosses a partition
//!    boundary enters a partition through such a target, so this stage
//!    alone covers all cross-partition reachability at exact distances.
//! 4. **Cover** — per-partition pruned sweeps over the remaining centers,
//!    run **in parallel** on [`graphcore::pool`], each restricted to its
//!    partition's induced subgraph and pruned against the merge stage's
//!    entries.
//!
//! The merge stage must run *before* the per-partition stage: local sweeps
//! legitimately prune against full-graph border entries (they only make
//! local labels smaller), but a border sweep pruned against partition-local
//! entries would stop at nodes whose coverage does not extend to nodes
//! outside that partition, losing cross-partition pairs.
//!
//! **Determinism.** Stage order is fixed; the merge sweep is sequential;
//! the parallel stage's jobs are pure functions of (graph, partition,
//! merge-stage entries) over disjoint label slots, and the pool returns
//! them in partition order. The final index is therefore byte-identical
//! for every thread count — only wall clock changes.

use flixobs::Stopwatch;
use graphcore::{
    condensation, estimate_reach_counts, partition_condensation, pool, Condensation, Digraph,
    Distance, NodeId, Reach, INFINITE_DISTANCE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs for the staged cover construction.
#[derive(Debug, Clone)]
pub struct CoverOptions {
    /// Worker threads for the per-partition cover stage. `0` means one per
    /// available core; `1` (the default) runs every stage sequentially.
    /// The thread count never changes the produced index, only wall clock.
    pub threads: usize,
    /// Partition size cap for the cover stage, in nodes. `0` (the default)
    /// picks `clamp(n / 32, 1024, 32768)`: small graphs stay monolithic
    /// (one partition, no merge stage), large graphs split into a few
    /// dozen blocks. The cap is a function of the graph alone — never of
    /// the thread count — so the partitioning, and with it the index, is
    /// identical however many workers run. Only tests set it: a small cap
    /// is what makes the merge stage run on a graph small enough to check
    /// against the closure.
    pub partition_cap: usize,
}

impl Default for CoverOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            partition_cap: 0,
        }
    }
}

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

/// Out-of-band record of one staged build: per-stage wall clock plus the
/// shape of the pipeline.
///
/// Deliberately *not* stored inside [`crate::HopiIndex`]: wall-clock fields
/// differ run to run, and the persisted index image must stay byte-identical
/// across runs and thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageReport {
    /// Microseconds spent condensing the graph, estimating reachable-set
    /// sizes, ranking centers, and planning partitions.
    pub rank_micros: u64,
    /// Microseconds of the sequential cross-partition merge sweep.
    pub merge_micros: u64,
    /// Microseconds of the (parallel) per-partition cover stage.
    pub cover_micros: u64,
    /// Partitions the cover stage ran over.
    pub partitions: usize,
    /// Centers the merge sweep processed (targets of partition-crossing
    /// edges).
    pub border_centers: usize,
    /// Worker threads the cover stage actually used.
    pub threads: usize,
}

impl StageReport {
    /// Accumulates another staged build's record (used when a framework
    /// build aggregates over several HOPI meta documents).
    pub fn absorb(&mut self, other: StageReport) {
        self.rank_micros += other.rank_micros;
        self.merge_micros += other.merge_micros;
        self.cover_micros += other.cover_micros;
        self.partitions += other.partitions;
        self.border_centers += other.border_centers;
        self.threads = self.threads.max(other.threads);
    }
}

/// Label sets produced by the staged pipeline, before `labels.rs` finishes
/// the index (sorting, inverted indexes, stats).
pub(crate) struct CoverLabels {
    /// `l_in[v]` entries `(center, d(center, v))`, in sweep order.
    pub l_in: Vec<Vec<(NodeId, Distance)>>,
    /// `l_out[u]` entries `(center, d(u, center))`, in sweep order.
    pub l_out: Vec<Vec<(NodeId, Distance)>>,
    /// BFS node visits across all sweeps (pruned visits included).
    pub visits: usize,
    /// Per-stage timings and pipeline shape.
    pub report: StageReport,
}

/// Runs the staged pipeline over `g` and returns the raw label sets.
pub(crate) fn build_cover(g: &Digraph, opts: &CoverOptions) -> CoverLabels {
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
    let rev = g.reversed();

    // ---- Stage 1+2: rank centers, plan partitions. ----
    let started = Stopwatch::start();
    let cond = condensation(g);
    let rank_pos = rank_positions(g, &cond);
    let cap = if opts.partition_cap > 0 {
        opts.partition_cap
    } else {
        (n / 32).clamp(1024, 32768)
    };
    let parts = partition_condensation(g, &cond, cap);
    // Border centers: targets of partition-crossing edges, in rank order.
    let mut is_border = vec![false; n];
    for (u, v) in g.edges() {
        if parts.part_of[u as usize] != parts.part_of[v as usize] {
            is_border[v as usize] = true;
        }
    }
    let mut borders: Vec<NodeId> = (0..n as NodeId)
        .filter(|&u| is_border[u as usize])
        .collect();
    borders.sort_unstable_by_key(|&u| rank_pos[u as usize]);
    out.report.rank_micros = started.elapsed_micros();
    out.report.partitions = parts.len();
    out.report.border_centers = borders.len();

    // ---- Stage 3: merge — sequential full-graph border sweeps. ----
    let started = Stopwatch::start();
    let mut scratch = SweepScratch::new(n, n);
    out.visits += pruned_sweep(
        g,
        &rev,
        &borders,
        None,
        &mut out.l_in,
        &mut out.l_out,
        &mut scratch,
    );
    out.report.merge_micros = started.elapsed_micros();

    // ---- Stage 4: cover — per-partition sweeps in parallel. ----
    let started = Stopwatch::start();
    let threads = pool::effective_threads(opts.threads, parts.len());
    out.report.threads = threads;
    // Largest partitions first keeps the pool busy to the end; results come
    // back in partition order regardless.
    let mut schedule: Vec<usize> = (0..parts.len()).collect();
    schedule.sort_by_key(|&p| (std::cmp::Reverse(parts.parts[p].len()), p));
    let (seed_in, seed_out) = (&out.l_in, &out.l_out);
    let locals = pool::run_scheduled(threads, &schedule, |p| {
        local_cover(g, &parts.parts[p], &is_border, &rank_pos, seed_in, seed_out)
    });
    for (p, local) in locals.into_iter().enumerate() {
        let LocalCover {
            l_in,
            l_out,
            visits,
        } = local;
        out.visits += visits;
        for ((&gu, list_in), list_out) in parts.parts[p].iter().zip(l_in).zip(l_out) {
            out.l_in[gu as usize] = list_in;
            out.l_out[gu as usize] = list_out;
        }
    }
    out.report.cover_micros = started.elapsed_micros();
    out
}

/// Position of every node in the global center-processing order.
///
/// Primary key: product of Cohen's descendant- and ancestor-set estimates,
/// descending (the number of (ancestor, descendant) pairs a node can serve
/// as 2-hop midpoint for). Ties break on total degree (descending), then
/// the bit-reversed id — which approximates the balanced middle-first order
/// on score-uniform regions such as long chains, and is distinct per node.
/// Both estimates run over `cond`, the condensation of `g`.
fn rank_positions(g: &Digraph, cond: &Condensation) -> Vec<u32> {
    let n = g.node_count();
    let desc = estimate_reach_counts(cond, Reach::Descendants, RANK_ROUNDS, RANK_SEED);
    let anc = estimate_reach_counts(
        cond,
        Reach::Ancestors,
        RANK_ROUNDS,
        RANK_SEED ^ 0x9E37_79B9_7F4A_7C15,
    );
    let score: Vec<f64> = desc.iter().zip(&anc).map(|(d, a)| d * a).collect();
    let degree: Vec<usize> = g
        .nodes()
        .map(|u| g.out_degree(u) + g.in_degree(u))
        .collect();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.sort_unstable_by(|&a, &b| {
        let (i, j) = (a as usize, b as usize);
        score[j]
            .total_cmp(&score[i])
            .then(degree[j].cmp(&degree[i]))
            .then_with(|| a.reverse_bits().cmp(&b.reverse_bits()))
    });
    let mut pos = vec![0u32; n];
    for (i, &u) in order.iter().enumerate() {
        pos[u as usize] = i as u32;
    }
    pos
}

/// Result of one partition's local cover job, in partition-local node order.
struct LocalCover {
    l_in: Vec<Vec<(NodeId, Distance)>>,
    l_out: Vec<Vec<(NodeId, Distance)>>,
    visits: usize,
}

/// Builds the partition-local share of the cover for `block`: every
/// non-border member becomes a center whose pruned BFS is restricted to the
/// partition's induced subgraph. Seeds its working label lists with the
/// merge stage's (border) entries so local sweeps prune against them, and
/// returns full replacement lists for the block's nodes.
///
/// Pure with respect to the shared state — reads only `g` and the seed
/// entries of its own (disjoint) block — so jobs commute: the caller can
/// run any number of them on any threads and splice results back in
/// partition order with identical output.
fn local_cover(
    g: &Digraph,
    block: &[NodeId],
    is_border: &[bool],
    rank_pos: &[u32],
    seed_in: &[Vec<(NodeId, Distance)>],
    seed_out: &[Vec<(NodeId, Distance)>],
) -> LocalCover {
    let (sub, mapping) = g.induced_subgraph(block);
    let sub_rev = sub.reversed();
    let mut l_in: Vec<Vec<(NodeId, Distance)>> = mapping
        .iter()
        .map(|&gu| seed_in[gu as usize].clone())
        .collect();
    let mut l_out: Vec<Vec<(NodeId, Distance)>> = mapping
        .iter()
        .map(|&gu| seed_out[gu as usize].clone())
        .collect();
    let mut centers: Vec<NodeId> = (0..mapping.len() as NodeId)
        .filter(|&lu| !is_border[mapping[lu as usize] as usize])
        .collect();
    centers.sort_unstable_by_key(|&lu| rank_pos[mapping[lu as usize] as usize]);
    let mut scratch = SweepScratch::new(mapping.len(), seed_in.len());
    let visits = pruned_sweep(
        &sub,
        &sub_rev,
        &centers,
        Some(&mapping),
        &mut l_in,
        &mut l_out,
        &mut scratch,
    );
    LocalCover {
        l_in,
        l_out,
        visits,
    }
}

/// Reusable scratch for [`pruned_sweep`]: BFS distances are indexed by the
/// swept graph's node ids, the pruning array by *global* center ids.
pub(crate) struct SweepScratch {
    dist: Vec<Distance>,
    center_dist: Vec<Distance>,
    queue: VecDeque<NodeId>,
    touched: Vec<NodeId>,
}

impl SweepScratch {
    pub(crate) fn new(nodes: usize, centers: usize) -> Self {
        Self {
            dist: vec![INFINITE_DISTANCE; nodes],
            center_dist: vec![INFINITE_DISTANCE; centers],
            queue: VecDeque::new(),
            touched: Vec::new(),
        }
    }
}

/// Runs the two-sided pruned BFS of classic 2-hop labelling for each center
/// in `centers` (in order) over `g`/`rev`, appending `(center, distance)`
/// entries to `l_in`/`l_out`.
///
/// Node ids index the supplied graph; label entries carry **global** center
/// ids via `to_global` (`None` = identity), which is what lets a partition-
/// restricted sweep prune against the full-graph entries of the merge
/// stage. Returns BFS node visits (pruned visits included).
pub(crate) fn pruned_sweep(
    g: &Digraph,
    rev: &Digraph,
    centers: &[NodeId],
    to_global: Option<&[NodeId]>,
    l_in: &mut [Vec<(NodeId, Distance)>],
    l_out: &mut [Vec<(NodeId, Distance)>],
    scratch: &mut SweepScratch,
) -> usize {
    let mut visits = 0usize;
    for &w in centers {
        let wg = to_global.map_or(w, |m| m[w as usize]);
        // Forward: L_in(v) gains (w, d(w, v)), pruned through L_out(w).
        visits += half_sweep(g, w, wg, l_out, l_in, scratch);
        // Backward: L_out(u) gains (w, d(u, w)), pruned through L_in(w).
        visits += half_sweep(rev, w, wg, l_in, l_out, scratch);
    }
    visits
}

/// One pruned BFS from `w` over `adj`: every node `u` not already covered
/// at its BFS distance gains the entry `(wg, d)` in `grow[u]`. `own` is
/// `w`'s opposite-side label list, loaded into the `center_dist` scratch so
/// each pruning test costs O(|grow[u]|) — the standard 2-hop trick.
fn half_sweep(
    adj: &Digraph,
    w: NodeId,
    wg: NodeId,
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
    center_dist[wg as usize] = 0;
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
        grow[u as usize].push((wg, d));
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
    center_dist[wg as usize] = INFINITE_DISTANCE;
    visits
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DistanceOracle, TransitiveClosure};

    /// Chained triangles with shortcut DAG edges: multi-SCC, multi-partition
    /// under a small cap, with real cross-partition shortest paths.
    fn chained_triangles() -> Digraph {
        let mut edges = Vec::new();
        for base in [0u32, 3, 6, 9] {
            edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base)]);
        }
        edges.extend([(2, 3), (5, 6), (8, 9), (1, 6), (4, 11)]);
        Digraph::from_edges(12, edges)
    }

    fn exact(g: &Digraph, opts: &CoverOptions) {
        let cover = build_cover(g, opts);
        let mut l_in = cover.l_in;
        let mut l_out = cover.l_out;
        for list in l_in.iter_mut().chain(l_out.iter_mut()) {
            list.sort_unstable();
        }
        let tc = TransitiveClosure::build(g);
        let oracle = DistanceOracle::new(g);
        let n = g.node_count() as NodeId;
        for u in 0..n {
            for v in 0..n {
                let mut best = INFINITE_DISTANCE;
                for &(c, dc) in &l_out[u as usize] {
                    for &(c2, dc2) in &l_in[v as usize] {
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
    fn staged_cover_exact_across_partitions() {
        let g = chained_triangles();
        for cap in [3, 4, 6] {
            for threads in [1, 2, 4] {
                exact(
                    &g,
                    &CoverOptions {
                        threads,
                        partition_cap: cap,
                    },
                );
            }
        }
    }

    #[test]
    fn single_partition_has_no_borders() {
        let g = chained_triangles();
        let cover = build_cover(&g, &CoverOptions::default());
        assert_eq!(cover.report.partitions, 1);
        assert_eq!(cover.report.border_centers, 0);
    }

    #[test]
    fn multi_partition_reports_shape() {
        let g = chained_triangles();
        let cover = build_cover(
            &g,
            &CoverOptions {
                partition_cap: 3,
                ..CoverOptions::default()
            },
        );
        assert!(cover.report.partitions > 1);
        assert!(cover.report.border_centers > 0);
        assert!(cover.visits > 0);
    }

    #[test]
    fn thread_count_does_not_change_labels() {
        let g = chained_triangles();
        let opts = |threads| CoverOptions {
            threads,
            partition_cap: 3,
        };
        let base = build_cover(&g, &opts(1));
        for threads in [2, 8] {
            let other = build_cover(&g, &opts(threads));
            assert_eq!(base.l_in, other.l_in, "{threads} threads");
            assert_eq!(base.l_out, other.l_out, "{threads} threads");
            assert_eq!(base.visits, other.visits, "{threads} threads");
        }
    }

    #[test]
    fn report_absorb_sums_and_maxes() {
        let mut a = StageReport {
            rank_micros: 1,
            merge_micros: 2,
            cover_micros: 3,
            partitions: 2,
            border_centers: 5,
            threads: 2,
        };
        a.absorb(StageReport {
            rank_micros: 10,
            merge_micros: 20,
            cover_micros: 30,
            partitions: 1,
            border_centers: 0,
            threads: 8,
        });
        assert_eq!(a.rank_micros, 11);
        assert_eq!(a.merge_micros, 22);
        assert_eq!(a.cover_micros, 33);
        assert_eq!(a.partitions, 3);
        assert_eq!(a.border_centers, 5);
        assert_eq!(a.threads, 8);
    }
}
