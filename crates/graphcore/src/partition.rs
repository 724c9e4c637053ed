//! Greedy size-capped graph partitioning (HOPI's divide step).
//!
//! HOPI's divide-and-conquer index builder first splits the element graph
//! into partitions whose size does not exceed a configurable cap while
//! keeping the number of partition-crossing edges small (paper §4.3,
//! "Unconnected HOPI"). We grow partitions by undirected BFS region growing,
//! seeding each region at the unassigned node with the smallest total degree
//! (peripheral nodes first keeps dense cores together), and then run a
//! single boundary-refinement sweep that moves nodes to the neighbouring
//! partition holding the majority of their neighbours when that reduces the
//! cut and respects the size cap.

use crate::digraph::{Digraph, NodeId};

/// A partitioning of a graph's nodes into size-capped blocks.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// `part_of[u]` = partition id of node `u`.
    pub part_of: Vec<u32>,
    /// `parts[p]` = nodes of partition `p`, ascending.
    pub parts: Vec<Vec<NodeId>>,
    /// Number of directed edges whose endpoints lie in different partitions.
    pub cut_edges: usize,
}

impl Partitioning {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if there are no partitions (empty graph).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    fn recount_cut(&mut self, g: &Digraph) {
        self.cut_edges = g
            .edges()
            .filter(|&(u, v)| self.part_of[u as usize] != self.part_of[v as usize])
            .count();
    }
}

/// Partitions `g` into blocks of at most `max_size` nodes.
///
/// `max_size` must be at least 1. The result is deterministic.
pub fn partition_greedy(g: &Digraph, max_size: usize) -> Partitioning {
    assert!(max_size >= 1, "partition size cap must be positive");
    let n = g.node_count();
    let mut part_of = vec![u32::MAX; n];
    let mut parts: Vec<Vec<NodeId>> = Vec::new();

    // Seed order: ascending total degree, then id.
    let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
    seeds.sort_by_key(|&u| (g.out_degree(u) + g.in_degree(u), u));

    let mut queue = std::collections::VecDeque::new();
    for &seed in &seeds {
        if part_of[seed as usize] != u32::MAX {
            continue;
        }
        let pid = parts.len() as u32;
        let mut block = Vec::new();
        part_of[seed as usize] = pid;
        queue.clear();
        queue.push_back(seed);
        while let Some(u) = queue.pop_front() {
            block.push(u);
            if block.len() + queue.len() >= max_size {
                // Stop admitting once the block (plus already-claimed queue
                // entries) reaches the cap; drain the queue into the block.
                continue;
            }
            for &v in g.successors(u).iter().chain(g.predecessors(u)) {
                if part_of[v as usize] == u32::MAX && block.len() + queue.len() < max_size {
                    part_of[v as usize] = pid;
                    queue.push_back(v);
                }
            }
        }
        // Member order does not matter until `refine_boundary` rebuilds
        // every block from `part_of`, ascending.
        parts.push(block);
    }

    let mut p = Partitioning {
        part_of,
        parts,
        cut_edges: 0,
    };
    let mut tally = Tally::new(p.parts.len());
    consolidate_small_blocks(g, &mut p, max_size, &mut tally);
    refine_boundary(g, &mut p, max_size, &mut tally);
    p.recount_cut(g);
    p
}

/// A dense `block -> count` tally over a fixed number of block ids, emptied
/// in O(blocks touched) — what a fold or a boundary move asks of a node's
/// neighbourhood, without a hash table per question. A count is a number
/// of edges, which a `Digraph`'s `u32` offsets bound.
struct Tally {
    count: Vec<u32>,
    touched: Vec<u32>,
}

impl Tally {
    fn new(blocks: usize) -> Self {
        Self {
            count: vec![0; blocks],
            touched: Vec::new(),
        }
    }

    fn add(&mut self, block: u32) {
        let c = &mut self.count[block as usize];
        if *c == 0 {
            self.touched.push(block);
        }
        *c += 1;
    }

    fn get(&self, block: u32) -> u32 {
        self.count[block as usize]
    }

    /// The admitted block with the most tallies, the smaller id on a tie,
    /// with its count; empties the tally either way.
    fn take_best(&mut self, admit: impl Fn(u32) -> bool) -> Option<(u32, u32)> {
        let best = self
            .touched
            .iter()
            .filter(|&&b| admit(b))
            .map(|&b| (b, self.count[b as usize]))
            .max_by_key(|&(b, c)| (c, std::cmp::Reverse(b)));
        for &b in &self.touched {
            self.count[b as usize] = 0;
        }
        self.touched.clear();
        best
    }
}

/// Region growing leaves stragglers behind: once the early regions hit the
/// cap, nodes whose neighbours are all claimed end up as tiny blocks. Fold
/// each small block into the neighbouring partition with the most
/// connections that still has room; blocks with no such neighbour are
/// first-fit bin-packed together (they carry no internal edges worth
/// preserving). Emptied blocks stay behind, empty, for `refine_boundary`
/// to drop.
fn consolidate_small_blocks(g: &Digraph, p: &mut Partitioning, max_size: usize, tally: &mut Tally) {
    let small_bar = (max_size / 4).max(1);
    // Process ascending by size so the smallest fragments merge first.
    let mut order: Vec<usize> = (0..p.parts.len()).collect();
    order.sort_by_key(|&b| p.parts[b].len());
    let mut orphans: Vec<usize> = Vec::new();
    for &b in &order {
        let size = p.parts[b].len();
        if size > small_bar {
            continue;
        }
        for &u in &p.parts[b] {
            for &v in g.successors(u).iter().chain(g.predecessors(u)) {
                tally.add(p.part_of[v as usize]);
            }
        }
        match tally.take_best(|t| t as usize != b && p.parts[t as usize].len() + size <= max_size) {
            Some((t, _)) => {
                let moved = std::mem::take(&mut p.parts[b]);
                for &u in &moved {
                    p.part_of[u as usize] = t;
                }
                p.parts[t as usize].extend(moved);
            }
            None => orphans.push(b),
        }
    }
    // First-fit bin packing of the orphan blocks among themselves. A block
    // is only ever emptied on its own turn above, so no orphan is empty.
    let mut bins: Vec<(usize, usize)> = Vec::new(); // (target block, size)
    for b in orphans {
        let size = p.parts[b].len();
        match bins.iter_mut().find(|(_, s)| *s + size <= max_size) {
            Some((t, s)) => {
                let moved = std::mem::take(&mut p.parts[b]);
                for &u in &moved {
                    p.part_of[u as usize] = *t as u32;
                }
                p.parts[*t].extend(moved);
                *s += size;
            }
            None => bins.push((b, size)),
        }
    }
}

/// One sweep of boundary refinement: move a node to the neighbouring
/// partition that holds strictly more of its neighbours, when the target has
/// room. This is a light-weight stand-in for the paper's (unspecified)
/// partition post-processing. Then rebuilds every block from `part_of` in
/// node order, dropping empty blocks and numbering the rest by first
/// member.
fn refine_boundary(g: &Digraph, p: &mut Partitioning, max_size: usize, tally: &mut Tally) {
    let n = g.node_count();
    let mut sizes: Vec<usize> = p.parts.iter().map(Vec::len).collect();
    for u in 0..n as NodeId {
        let home = p.part_of[u as usize];
        if sizes[home as usize] <= 1 {
            continue; // never empty a partition
        }
        for &v in g.successors(u).iter().chain(g.predecessors(u)) {
            tally.add(p.part_of[v as usize]);
        }
        let home_links = tally.get(home);
        let best = tally.take_best(|pid| pid != home && sizes[pid as usize] < max_size);
        if let Some((target, c)) = best {
            if c > home_links {
                p.part_of[u as usize] = target;
                sizes[home as usize] -= 1;
                sizes[target as usize] += 1;
            }
        }
    }
    let mut remap = vec![u32::MAX; p.parts.len()];
    let mut new_parts: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..n as NodeId {
        let old = p.part_of[u as usize];
        if remap[old as usize] == u32::MAX {
            remap[old as usize] = new_parts.len() as u32;
            new_parts.push(Vec::new());
        }
        let np = remap[old as usize];
        p.part_of[u as usize] = np;
        new_parts[np as usize].push(u);
    }
    p.parts = new_parts;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_valid(g: &Digraph, p: &Partitioning, max_size: usize) {
        // every node assigned exactly once
        let mut seen = vec![false; g.node_count()];
        for (pid, block) in p.parts.iter().enumerate() {
            assert!(!block.is_empty(), "partition {pid} empty");
            assert!(block.len() <= max_size, "partition {pid} over cap");
            for &u in block {
                assert_eq!(p.part_of[u as usize], pid as u32);
                assert!(!seen[u as usize]);
                seen[u as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn respects_size_cap() {
        let g = Digraph::from_edges(10, (0..9).map(|i| (i, i + 1)));
        for cap in [1, 2, 3, 5, 10, 100] {
            let p = partition_greedy(&g, cap);
            assert_valid(&g, &p, cap);
        }
    }

    #[test]
    fn chain_partitions_are_contiguous_blocks() {
        let g = Digraph::from_edges(9, (0..8).map(|i| (i, i + 1)));
        let p = partition_greedy(&g, 3);
        assert_eq!(p.len(), 3);
        // a chain of 9 in caps of 3 cuts exactly 2 edges
        assert_eq!(p.cut_edges, 2);
    }

    #[test]
    fn disconnected_components_do_not_merge_edges() {
        let g = Digraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let p = partition_greedy(&g, 3);
        assert_valid(&g, &p, 3);
        assert_eq!(p.cut_edges, 0);
    }

    #[test]
    fn dense_core_stays_together() {
        // A 4-clique (directed both ways) plus a pendant chain.
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in 0..4u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        edges.extend([(3, 4), (4, 5), (5, 6)]);
        let g = Digraph::from_edges(7, edges);
        let p = partition_greedy(&g, 4);
        assert_valid(&g, &p, 4);
        // the clique nodes must share one partition
        let pid = p.part_of[0];
        for u in 1..4 {
            assert_eq!(p.part_of[u], pid, "clique node {u} separated");
        }
    }

    #[test]
    fn single_partition_when_cap_exceeds_graph() {
        let g = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = partition_greedy(&g, 50);
        assert_eq!(p.len(), 1);
        assert_eq!(p.cut_edges, 0);
    }

    #[test]
    fn no_straggler_fragmentation() {
        // A dense-ish random-like graph: region growing leaves stragglers,
        // which consolidation must fold away. With n nodes and cap c the
        // partition count must stay near ceil(n/c).
        let n = 600u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| {
                [
                    (i, (i * 7 + 1) % n),
                    (i, (i * 13 + 5) % n),
                    ((i * 31 + 2) % n, i),
                ]
            })
            .collect();
        let g = Digraph::from_edges(n as usize, edges);
        let cap = 100;
        let p = partition_greedy(&g, cap);
        assert_valid(&g, &p, cap);
        assert!(
            p.len() <= n as usize / cap + 3,
            "fragmented into {} partitions",
            p.len()
        );
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::from_edges(0, []);
        let p = partition_greedy(&g, 4);
        assert!(p.is_empty());
        assert_eq!(p.cut_edges, 0);
    }

    /// The partitioner as it was before the dense tally: a `HashMap`
    /// tally per fold and per node, and every fold re-sorting its target
    /// block.
    mod reference {
        use crate::digraph::{Digraph, NodeId};
        use crate::partition::Partitioning;

        fn recount_cut(g: &Digraph, p: &mut Partitioning) {
            p.cut_edges = g
                .edges()
                .filter(|&(u, v)| p.part_of[u as usize] != p.part_of[v as usize])
                .count();
        }

        /// Partitions `g` into blocks of at most `max_size` nodes.
        ///
        /// `max_size` must be at least 1. The result is deterministic.
        pub(super) fn partition_greedy(g: &Digraph, max_size: usize) -> Partitioning {
            assert!(max_size >= 1, "partition size cap must be positive");
            let n = g.node_count();
            let mut part_of = vec![u32::MAX; n];
            let mut parts: Vec<Vec<NodeId>> = Vec::new();

            // Seed order: ascending total degree, then id.
            let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
            seeds.sort_by_key(|&u| (g.out_degree(u) + g.in_degree(u), u));

            let mut queue = std::collections::VecDeque::new();
            for &seed in &seeds {
                if part_of[seed as usize] != u32::MAX {
                    continue;
                }
                let pid = parts.len() as u32;
                let mut block = Vec::new();
                part_of[seed as usize] = pid;
                queue.clear();
                queue.push_back(seed);
                while let Some(u) = queue.pop_front() {
                    block.push(u);
                    if block.len() + queue.len() >= max_size {
                        // Stop admitting once the block (plus already-claimed queue
                        // entries) reaches the cap; drain the queue into the block.
                        continue;
                    }
                    for &v in g.successors(u).iter().chain(g.predecessors(u)) {
                        if part_of[v as usize] == u32::MAX && block.len() + queue.len() < max_size {
                            part_of[v as usize] = pid;
                            queue.push_back(v);
                        }
                    }
                }
                block.sort_unstable();
                parts.push(block);
            }

            let mut p = Partitioning {
                part_of,
                parts,
                cut_edges: 0,
            };
            consolidate_small_blocks(g, &mut p, max_size);
            refine_boundary(g, &mut p, max_size);
            recount_cut(g, &mut p);
            p
        }

        /// Region growing leaves stragglers behind: once the early regions hit the
        /// cap, nodes whose neighbours are all claimed end up as tiny blocks. Fold
        /// each small block into the neighbouring partition with the most
        /// connections that still has room; blocks with no such neighbour are
        /// first-fit bin-packed together (they carry no internal edges worth
        /// preserving).
        fn consolidate_small_blocks(g: &Digraph, p: &mut Partitioning, max_size: usize) {
            let small_bar = (max_size / 4).max(1);
            let mut sizes: Vec<usize> = p.parts.iter().map(Vec::len).collect();
            // Process ascending by size so the smallest fragments merge first.
            let mut order: Vec<usize> = (0..p.parts.len()).collect();
            order.sort_by_key(|&b| sizes[b]);
            let mut orphans: Vec<usize> = Vec::new();
            for &b in &order {
                let size = p.parts[b].len();
                if size == 0 || size > small_bar || sizes[b] != size {
                    continue; // grown since, emptied, or big enough
                }
                let mut tally: std::collections::HashMap<u32, usize> =
                    std::collections::HashMap::new();
                for &u in &p.parts[b] {
                    for &v in g.successors(u).iter().chain(g.predecessors(u)) {
                        let pv = p.part_of[v as usize];
                        if pv as usize != b {
                            *tally.entry(pv).or_insert(0) += 1;
                        }
                    }
                }
                let target = tally
                    .iter()
                    .filter(|&(&t, _)| sizes[t as usize] + size <= max_size)
                    .max_by_key(|&(&t, &c)| (c, std::cmp::Reverse(t)))
                    .map(|(&t, _)| t);
                match target {
                    Some(t) => {
                        let moved = std::mem::take(&mut p.parts[b]);
                        sizes[t as usize] += moved.len();
                        sizes[b] = 0;
                        for &u in &moved {
                            p.part_of[u as usize] = t;
                        }
                        p.parts[t as usize].extend(moved);
                        p.parts[t as usize].sort_unstable();
                    }
                    None => orphans.push(b),
                }
            }
            // First-fit bin packing of the orphan blocks among themselves.
            let mut bins: Vec<(usize, usize)> = Vec::new(); // (target block, size)
            for b in orphans {
                let size = p.parts[b].len();
                if size == 0 {
                    continue;
                }
                match bins
                    .iter_mut()
                    .find(|(t, s)| *t != b && s + size <= max_size)
                {
                    Some((t, s)) => {
                        let moved = std::mem::take(&mut p.parts[b]);
                        for &u in &moved {
                            p.part_of[u as usize] = *t as u32;
                        }
                        let tb = *t;
                        p.parts[tb].extend(moved);
                        p.parts[tb].sort_unstable();
                        *s += size;
                    }
                    None => bins.push((b, size)),
                }
            }
            // Drop emptied blocks and compact partition ids.
            let mut remap = vec![u32::MAX; p.parts.len()];
            let mut new_parts = Vec::new();
            for (old, block) in std::mem::take(&mut p.parts).into_iter().enumerate() {
                if !block.is_empty() {
                    remap[old] = new_parts.len() as u32;
                    new_parts.push(block);
                }
            }
            for pid in p.part_of.iter_mut() {
                *pid = remap[*pid as usize];
            }
            p.parts = new_parts;
        }

        /// One sweep of boundary refinement: move a node to the neighbouring
        /// partition that holds strictly more of its neighbours, when the target has
        /// room. This is a light-weight stand-in for the paper's (unspecified)
        /// partition post-processing.
        fn refine_boundary(g: &Digraph, p: &mut Partitioning, max_size: usize) {
            let n = g.node_count();
            let mut sizes: Vec<usize> = p.parts.iter().map(Vec::len).collect();
            let mut tally: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
            for u in 0..n as NodeId {
                let home = p.part_of[u as usize];
                if sizes[home as usize] <= 1 {
                    continue; // never empty a partition
                }
                tally.clear();
                for &v in g.successors(u).iter().chain(g.predecessors(u)) {
                    *tally.entry(p.part_of[v as usize]).or_insert(0) += 1;
                }
                let home_links = tally.get(&home).copied().unwrap_or(0);
                let best = tally
                    .iter()
                    .filter(|&(&pid, _)| pid != home && sizes[pid as usize] < max_size)
                    .max_by_key(|&(&pid, &c)| (c, std::cmp::Reverse(pid)))
                    .map(|(&pid, &c)| (pid, c));
                if let Some((target, c)) = best {
                    if c > home_links {
                        p.part_of[u as usize] = target;
                        sizes[home as usize] -= 1;
                        sizes[target as usize] += 1;
                    }
                }
            }
            // Rebuild member lists from part_of, dropping empty blocks and
            // compacting ids.
            let mut remap = vec![u32::MAX; p.parts.len()];
            let mut new_parts: Vec<Vec<NodeId>> = Vec::new();
            for u in 0..n as NodeId {
                let old = p.part_of[u as usize];
                if remap[old as usize] == u32::MAX {
                    remap[old as usize] = new_parts.len() as u32;
                    new_parts.push(Vec::new());
                }
                let np = remap[old as usize];
                p.part_of[u as usize] = np;
                new_parts[np as usize].push(u);
            }
            p.parts = new_parts;
        }
    }

    fn assert_same(p: &Partitioning, q: &Partitioning) -> Result<(), TestCaseError> {
        prop_assert_eq!(&p.part_of, &q.part_of);
        prop_assert_eq!(&p.parts, &q.parts);
        prop_assert_eq!(p.cut_edges, q.cut_edges);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn partitions_equal_the_hash_map_reference(
            g in crate::testing::arb_graph(80),
            pick in any::<u32>(),
        ) {
            let n = g.node_count();
            let cap = 1 + pick as usize % (n + 1);
            assert_same(&partition_greedy(&g, cap), &reference::partition_greedy(&g, cap))?;
        }
    }
}
