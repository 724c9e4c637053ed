//! The catalogue of a framework: which meta document holds each element,
//! and the runtime links — the sets `L_i` of §4.2 — the evaluator of Fig. 4
//! follows between meta documents. [`crate::Flix`] and
//! [`crate::DiskFlix`] each hold one, the persisted manifest is one plus a
//! header, and every [`crate::pee::MetaSpace`] answers `resolve` and the
//! link slices from it: this is the only place those lookups are written.

use crate::meta::MetaDocument;
use graphcore::NodeId;
use std::ops::Range;
use std::sync::Arc;
use xmlgraph::CollectionGraph;

/// What the catalogue determines of a meta document and its image leaves
/// out — its node map and anchor lists ([`Catalogue::metas`]) — derived once
/// when a manifest is read and shared with every meta document loaded from
/// it: [`MetaDocument::complete`] copies none of it.
#[derive(Debug, Clone)]
pub(crate) struct Catalogued {
    pub(crate) nodes: Arc<[NodeId]>,
    pub(crate) link_sources: Arc<[u32]>,
    pub(crate) link_targets: Arc<[u32]>,
}

/// Node→meta maps and the runtime link table with its reverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Catalogue {
    /// Meta document of each global node.
    pub(crate) meta_of: Vec<u32>,
    /// Local id of each global node within its meta document.
    pub(crate) local_of: Vec<u32>,
    /// Links no index covers, `(source, target)` sorted by source:
    /// cross-meta edges plus PPO-removed in-meta edges.
    links: Vec<(NodeId, NodeId)>,
    /// The same links as `(target, source)`, sorted by target. Only
    /// [`Self::new`] writes the two tables, so they cannot disagree.
    links_rev: Vec<(NodeId, NodeId)>,
    /// Where each source's run of `links` lies.
    out_runs: Runs,
    /// Where each target's run of `links_rev` lies.
    in_runs: Runs,
}

/// Where the run of each key lies in a link table sorted by key: a bitmap
/// with a rank directory over the keys that have links, and the runs'
/// start offsets in key order. A key's run is then one word load, one bit
/// test, one popcount and two offset loads — no search. Derived from the
/// table in [`Catalogue::new`], never persisted.
///
/// Per direction it holds one bit and half a bit of rank per key up to the
/// largest, and one `u32` per key with links: ≈ 0.2 bytes a node plus 4 a
/// linked node, where a dense offset array would be 4 bytes a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Runs {
    /// One bit per key, set when the key has at least one link.
    has: Vec<u64>,
    /// Set bits of `has` before each word.
    rank: Vec<u32>,
    /// Start of each run in the table, in key order, then the table's end.
    at: Vec<u32>,
}

impl Runs {
    /// The run index of `links`, which must be sorted by key (its first
    /// component).
    fn new(links: &[(NodeId, NodeId)]) -> Self {
        let words = links.last().map_or(0, |&(key, _)| key as usize / 64 + 1);
        let mut has = vec![0u64; words];
        let mut at = Vec::new();
        for (i, &(key, _)) in links.iter().enumerate() {
            if i == 0 || links[i - 1].0 != key {
                has[key as usize / 64] |= 1 << (key % 64);
                at.push(i as u32);
            }
        }
        at.push(links.len() as u32);
        let mut seen = 0;
        let rank = has
            .iter()
            .map(|word| {
                let before = seen;
                seen += word.count_ones();
                before
            })
            .collect();
        Self { has, rank, at }
    }

    /// The positions of `key`'s run in the table; empty when the key has
    /// no link, including every key past the largest.
    fn run(&self, key: NodeId) -> Range<usize> {
        let (word, bit) = (key as usize / 64, key % 64);
        let Some(&bits) = self.has.get(word) else {
            return 0..0;
        };
        if bits >> bit & 1 == 0 {
            return 0..0;
        }
        let nth = self.rank[word] as usize + (bits & ((1 << bit) - 1)).count_ones() as usize;
        self.at[nth] as usize..self.at[nth + 1] as usize
    }
}

impl Catalogue {
    /// A catalogue over the given maps and source-sorted link table; the
    /// reverse table and both run indexes are derived.
    pub(crate) fn new(meta_of: Vec<u32>, local_of: Vec<u32>, links: Vec<(NodeId, NodeId)>) -> Self {
        let mut links_rev: Vec<(NodeId, NodeId)> = links.iter().map(|&(u, v)| (v, u)).collect();
        links_rev.sort_unstable();
        Self {
            meta_of,
            local_of,
            out_runs: Runs::new(&links),
            in_runs: Runs::new(&links_rev),
            links,
            links_rev,
        }
    }

    /// The one wiring step of a build: catalogues `metas` (which must
    /// partition `graph`'s nodes, each built with its anchors). The runtime
    /// links are `links` as passed in (edges a meta document's index
    /// dropped, global ids) plus every edge of `graph` that crosses meta
    /// documents — the links whose endpoints the metas' anchor sets are,
    /// as [`crate::Flix`]'s integrity audit checks.
    pub(crate) fn wire(
        graph: &CollectionGraph,
        metas: &[MetaDocument],
        mut links: Vec<(NodeId, NodeId)>,
    ) -> Self {
        let n = graph.node_count();
        let (mut meta_of, mut local_of) = (vec![0u32; n], vec![0u32; n]);
        for (mi, md) in metas.iter().enumerate() {
            for (local, &global) in md.nodes.iter().enumerate() {
                meta_of[global as usize] = mi as u32;
                local_of[global as usize] = local as u32;
            }
        }
        let crossing = |&(u, v): &(NodeId, NodeId)| meta_of[u as usize] != meta_of[v as usize];
        links.extend(graph.graph.edges().filter(crossing));
        links.sort_unstable();
        links.dedup();
        Self::new(meta_of, local_of, links)
    }

    /// What the catalogue determines of each of `meta_count` meta
    /// documents, or the first way its maps are no partition into node
    /// maps: a node in no meta document below `meta_count`, a local past
    /// its document's end or one local for two nodes, or a runtime link
    /// naming a node the maps do not hold. The anchor lists are §4.2's
    /// `L_i`, each local once, ascending, as a build makes them. `O(n)`
    /// and a sort of the anchors.
    pub(crate) fn metas(&self, meta_count: usize) -> Result<Vec<Catalogued>, String> {
        let (mut lens, count) = (vec![0usize; meta_count], meta_count);
        for (v, &meta) in self.meta_of.iter().enumerate() {
            let Some(len) = lens.get_mut(meta as usize) else {
                return Err(format!("node {v} is in meta document {meta} of {count}"));
            };
            *len += 1;
        }
        // No node is `NodeId::MAX`, so a slot still holding it is free.
        let mut maps: Vec<Vec<NodeId>> = lens.iter().map(|&len| vec![NodeId::MAX; len]).collect();
        for (v, (&meta, &local)) in (0..).zip(self.meta_of.iter().zip(&self.local_of)) {
            let map = &mut maps[meta as usize];
            let len = map.len();
            let Some(slot) = map.get_mut(local as usize) else {
                return Err(format!(
                    "node {v} is local {local} of meta document {meta}, which holds {len}"
                ));
            };
            if *slot != NodeId::MAX {
                return Err(format!(
                    "node {v} is local {local} of meta document {meta}, as is an earlier node"
                ));
            }
            *slot = v;
        }
        let mut lists = vec![[Vec::new(), Vec::new()]; meta_count];
        for &link in &self.links {
            for (side, v) in [link.0, link.1].into_iter().enumerate() {
                let Some((meta, local)) = self.resolve(v) else {
                    let n = self.meta_of.len();
                    return Err(format!("runtime link {link:?} names a node past {n}"));
                };
                lists[meta as usize][side].push(local);
            }
        }
        for list in lists.iter_mut().flatten() {
            list.sort_unstable();
            list.dedup();
        }
        let parts = |(nodes, [sources, targets]): (Vec<_>, [Vec<_>; 2])| Catalogued {
            nodes: nodes.into(),
            link_sources: sources.into(),
            link_targets: targets.into(),
        };
        Ok(maps.into_iter().zip(lists).map(parts).collect())
    }

    /// `(meta, local)` of a global node, or `None` when the node is not an
    /// element of the catalogued collection.
    pub(crate) fn resolve(&self, node: NodeId) -> Option<(u32, u32)> {
        let at = node as usize;
        Some((*self.meta_of.get(at)?, *self.local_of.get(at)?))
    }

    /// All runtime links, sorted by source.
    pub(crate) fn links(&self) -> &[(NodeId, NodeId)] {
        &self.links
    }

    /// Runtime links out of `u` (global ids): one run-index look-up.
    pub(crate) fn links_out_of(&self, u: NodeId) -> &[(NodeId, NodeId)] {
        &self.links[self.out_runs.run(u)]
    }

    /// Runtime links into `v`, as `(target, source)` pairs: one run-index
    /// look-up.
    pub(crate) fn links_into(&self, v: NodeId) -> &[(NodeId, NodeId)] {
        &self.links_rev[self.in_runs.run(v)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The slice of a link table (sorted by first component) keyed by
    /// `key`, found by binary search — the look-up the run index replaced,
    /// kept as its oracle.
    fn links_of(links: &[(NodeId, NodeId)], key: NodeId) -> &[(NodeId, NodeId)] {
        let start = links.partition_point(|&(k, _)| k < key);
        let end = links.partition_point(|&(k, _)| k <= key);
        &links[start..end]
    }

    /// Asserts that both run indexes of a catalogue over `links` answer
    /// every key in `0..n + 70` as the binary search does.
    fn runs_answer_as_the_search(n: usize, mut links: Vec<(NodeId, NodeId)>) {
        links.sort_unstable();
        links.dedup();
        let catalogue = Catalogue::new(vec![0; n], vec![0; n], links);
        for key in 0..n as NodeId + 70 {
            let out = links_of(&catalogue.links, key);
            assert_eq!(catalogue.links_out_of(key), out, "out of {key}");
            let into = links_of(&catalogue.links_rev, key);
            assert_eq!(catalogue.links_into(key), into, "into {key}");
        }
    }

    /// The cases by name: no links at all; key 0; the keys on either side
    /// of a word boundary; the last node; and keys with no link between
    /// keys with many.
    #[test]
    fn runs_cover_the_edges_of_their_words() {
        runs_answer_as_the_search(0, Vec::new());
        runs_answer_as_the_search(200, Vec::new());
        let mut links = vec![(0, 5), (63, 64), (64, 63), (127, 0), (199, 199)];
        links.extend((0..40).map(|v| (65, v)));
        links.extend((0..40).map(|v| (126, v + 100)));
        runs_answer_as_the_search(200, links);
        runs_answer_as_the_search(64, (0..64).map(|v| (v, 63 - v)).collect());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On random source-sorted tables, hot keys at the word boundaries
        /// and the last node among random ones, the run indexes answer
        /// `links_out_of` and `links_into` as the binary search does.
        #[test]
        fn runs_answer_as_the_binary_search(
            (n, links) in (1u32..300).prop_flat_map(|n| {
                // A draw past the last node stands for a hot key.
                let key = move |draw: u32| match draw.checked_sub(n) {
                    None => draw,
                    Some(hot) => [0, 63, 64, 127, n - 1][hot as usize].min(n - 1),
                };
                let pairs = proptest::collection::vec((0..n + 5, 0..n + 5), 0..400);
                pairs.prop_map(move |pairs| {
                    let links: Vec<(NodeId, NodeId)> =
                        pairs.into_iter().map(|(u, v)| (key(u), key(v))).collect();
                    (n as usize, links)
                })
            })
        ) {
            runs_answer_as_the_search(n, links);
        }
    }
}
