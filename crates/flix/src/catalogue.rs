//! The catalogue of a framework: which meta document holds each element,
//! and the runtime links — the sets `L_i` of §4.2 — the evaluator of Fig. 4
//! follows between meta documents. [`crate::Flix`] and
//! [`crate::DiskFlix`] each hold one, the persisted manifest is one plus a
//! header, and every [`crate::pee::MetaSpace`] answers `resolve` and the
//! link slices from it: this is the only place those lookups are written.

use crate::meta::MetaDocument;
use graphcore::NodeId;
use xmlgraph::CollectionGraph;

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
}

/// The slice of a link table (sorted by first component) keyed by `key`.
fn links_of(links: &[(NodeId, NodeId)], key: NodeId) -> &[(NodeId, NodeId)] {
    let start = links.partition_point(|&(k, _)| k < key);
    let end = links.partition_point(|&(k, _)| k <= key);
    &links[start..end]
}

impl Catalogue {
    /// A catalogue over the given maps and source-sorted link table; the
    /// reverse table is derived.
    pub(crate) fn new(meta_of: Vec<u32>, local_of: Vec<u32>, links: Vec<(NodeId, NodeId)>) -> Self {
        let mut links_rev: Vec<(NodeId, NodeId)> = links.iter().map(|&(u, v)| (v, u)).collect();
        links_rev.sort_unstable();
        Self {
            meta_of,
            local_of,
            links,
            links_rev,
        }
    }

    /// The one wiring step of a build: catalogues `metas` (which must
    /// partition `graph`'s nodes) and gives each its anchor sets — the
    /// per-meta `L_i` and their ancestor-query mirrors. The runtime links
    /// are `links` as passed in (edges a meta document's index dropped,
    /// global ids) plus every edge of `graph` that crosses meta documents.
    pub(crate) fn wire(
        graph: &CollectionGraph,
        metas: &mut [MetaDocument],
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

        let mut anchors: Vec<(Vec<u32>, Vec<u32>)> = vec![Default::default(); metas.len()];
        for &(u, v) in &links {
            let (mu, mv) = (meta_of[u as usize], meta_of[v as usize]);
            anchors[mu as usize].0.push(local_of[u as usize]);
            anchors[mv as usize].1.push(local_of[v as usize]);
        }
        for (md, (sources, targets)) in metas.iter_mut().zip(anchors) {
            md.set_anchors(sources, targets);
        }
        Self::new(meta_of, local_of, links)
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

    /// Runtime links out of `u` (global ids).
    pub(crate) fn links_out_of(&self, u: NodeId) -> &[(NodeId, NodeId)] {
        links_of(&self.links, u)
    }

    /// Runtime links into `v`, as `(target, source)` pairs.
    pub(crate) fn links_into(&self, v: NodeId) -> &[(NodeId, NodeId)] {
        links_of(&self.links_rev, v)
    }
}
