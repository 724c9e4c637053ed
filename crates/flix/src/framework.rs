//! The build phase: from a sealed collection to a queryable framework.

use crate::catalogue::Catalogue;
use crate::config::{BuildOptions, FlixConfig, StrategyKind};
use crate::mdb::{build_meta_documents, plan_build_order};
use crate::meta::{MetaDocument, MetaIndex};
use crate::report::{BuildReport, MetaBuildReport};
use flixobs::Stopwatch;
use graphcore::{pool, NodeId};
use std::sync::Arc;
use std::time::Duration;
use xmlgraph::CollectionGraph;

/// Output of one per-meta build job: everything `build_with` needs to merge
/// the meta document into the framework, independent of build order.
struct BuiltMeta {
    /// Local-to-global node mapping of the meta document, in the index's
    /// numbering.
    mapping: Vec<NodeId>,
    index: MetaIndex,
    /// PPO-removed edges, already translated to global ids.
    extra_links: Vec<(NodeId, NodeId)>,
    report: MetaBuildReport,
}

/// Builds one meta document's index. Pure with respect to the framework:
/// reads only the shared collection graph, so jobs for disjoint node sets
/// can run on any thread in any order and still produce identical output.
fn build_one(
    graph: &CollectionGraph,
    nodes: &[NodeId],
    pinned: Option<StrategyKind>,
    opts: &BuildOptions,
    hopi_threads: usize,
) -> BuiltMeta {
    let started = Stopwatch::start();
    let (sub, mut mapping) = graph.graph.induced_subgraph(nodes);
    let labels: Vec<u32> = mapping.iter().map(|&g| graph.tag_of(g)).collect();
    let kind = pinned.unwrap_or_else(|| opts.selector.select(&sub));
    let edges = sub.edge_count();
    let (index, extra, stages) = MetaIndex::build(kind, &sub, &labels, &mut mapping, hopi_threads);
    let extra_links: Vec<(NodeId, NodeId)> = extra
        .into_iter()
        .map(|(lu, lv)| (mapping[lu as usize], mapping[lv as usize]))
        .collect();
    let report = MetaBuildReport {
        strategy: index.kind(),
        nodes: mapping.len(),
        edges,
        build_micros: started.elapsed_micros(),
        index_bytes: index.size_bytes(),
        dropped_links: extra_links.len(),
        stages,
    };
    BuiltMeta {
        mapping,
        index,
        extra_links,
        report,
    }
}

/// A built FliX framework: meta documents, their indexes, and the runtime
/// link table the query evaluator chases.
#[derive(Debug, Clone)]
pub struct Flix {
    graph: Arc<CollectionGraph>,
    config: FlixConfig,
    metas: Vec<Arc<MetaDocument>>,
    /// Node→meta maps and the runtime link table.
    catalogue: Catalogue,
    build_time: Duration,
    /// Observability record of the build that produced this framework.
    report: BuildReport,
}

impl Flix {
    /// Builds the framework with default [`BuildOptions`].
    pub fn build(graph: Arc<CollectionGraph>, config: FlixConfig) -> Self {
        Self::build_with(graph, config, &BuildOptions::default())
    }

    /// Builds the framework: plans meta documents, selects strategies,
    /// builds per-meta indexes on a scoped worker pool, and wires the
    /// runtime link table.
    ///
    /// Per-meta jobs touch disjoint node sets and only read the shared
    /// collection graph, so [`BuildOptions::build_threads`] changes wall
    /// clock but never the result: the merged framework (and its persisted
    /// image) is byte-identical to a sequential build.
    ///
    /// The thread budget is split between this per-meta stage and each
    /// HOPI meta document's staged cover pipeline with
    /// [`pool::split_budget`]: a monolithic plan hands the whole budget to
    /// HOPI's intra-build parallelism, many small metas saturate the
    /// budget at the per-meta level, and in between every outer worker
    /// carries its own inner share so no part of the budget is stranded.
    /// The inner share only changes wall clock, never output: HOPI covers
    /// are byte-identical at any thread count.
    pub fn build_with(
        graph: Arc<CollectionGraph>,
        config: FlixConfig,
        opts: &BuildOptions,
    ) -> Self {
        let started = Stopwatch::start();
        let plans = build_meta_documents(&graph, config);
        let planning_micros = started.elapsed_micros();

        let indexing_started = Stopwatch::start();
        // Split the budget between the per-meta level and HOPI's staged
        // pipeline: a monolithic plan keeps everything for the latter.
        let (threads, shares) = pool::split_budget(opts.resolved_build_threads(), plans.len());
        // Workers pull jobs largest-first off a shared cursor; the pool
        // returns finished metas in plan order, so scheduling is invisible.
        let built =
            pool::run_scheduled_budgeted(&shares, &plan_build_order(&plans), |mi, inner| {
                let plan = &plans[mi];
                build_one(&graph, &plan.nodes, plan.strategy, opts, inner)
            });
        let indexing_micros = indexing_started.elapsed_micros();

        let wiring_started = Stopwatch::start();
        let mut metas = Vec::with_capacity(built.len());
        let mut per_meta = Vec::with_capacity(built.len());
        // PPO-removed edges become runtime links (already global ids).
        let mut in_meta_links: Vec<(NodeId, NodeId)> = Vec::new();
        for job in built {
            in_meta_links.extend(job.extra_links);
            per_meta.push(job.report);
            metas.push(MetaDocument::new(job.mapping, job.index));
        }
        let catalogue = Catalogue::wire(&graph, &mut metas, in_meta_links);
        let wiring_micros = wiring_started.elapsed_micros();

        let build_time = started.elapsed();
        let report = BuildReport {
            config,
            threads,
            planning_micros,
            indexing_micros,
            wiring_micros,
            total_micros: build_time.as_micros() as u64,
            runtime_links: catalogue.links().len(),
            per_meta,
        };
        Self {
            graph,
            config,
            metas: metas.into_iter().map(Arc::new).collect(),
            catalogue,
            build_time,
            report,
        }
    }

    /// Reassembles a framework from persisted parts (see [`crate::persist`]).
    pub(crate) fn from_raw_parts(
        graph: Arc<CollectionGraph>,
        config: FlixConfig,
        metas: Vec<MetaDocument>,
        catalogue: Catalogue,
        report: BuildReport,
    ) -> Self {
        Self {
            graph,
            config,
            metas: metas.into_iter().map(Arc::new).collect(),
            catalogue,
            build_time: Duration::ZERO,
            report,
        }
    }

    /// Incrementally extends the framework to a grown collection (built
    /// with [`CollectionGraph::extend`]): every *new* document becomes its
    /// own meta document with a selector-chosen index, existing meta
    /// documents keep their indexes untouched (only their runtime-link
    /// anchor sets are refreshed, including links from new documents into
    /// old ones and previously dangling links the new documents resolve).
    ///
    /// Grouping configurations (Maximal PPO, Unconnected HOPI) are *not*
    /// re-planned for the new documents — the paper's §7 self-tuning loop
    /// is the mechanism that decides when a full rebuild pays off; see
    /// [`crate::tuning`].
    ///
    /// # Errors
    /// If `new_graph` is not an extension of this framework's collection.
    pub fn extend(
        &self,
        new_graph: Arc<CollectionGraph>,
        opts: &BuildOptions,
    ) -> Result<Flix, String> {
        let old_n = self.graph.node_count();
        let new_n = new_graph.node_count();
        if new_n < old_n
            || new_graph.node_base[..self.graph.node_base.len()] != self.graph.node_base[..]
        {
            return Err("new graph is not an extension of the indexed collection".into());
        }
        let started = Stopwatch::start();
        let mut metas: Vec<MetaDocument> = self.metas.iter().map(|m| (**m).clone()).collect();
        // PPO-removed edges of existing metas stay runtime links; the rest
        // of the table is recomputed from the extended graph.
        let in_meta = |&(u, v): &(NodeId, NodeId)| self.meta_of(u) == self.meta_of(v);
        let mut in_meta_links: Vec<(NodeId, NodeId)> = self
            .runtime_links()
            .iter()
            .copied()
            .filter(in_meta)
            .collect();

        // Carry the per-meta records of the kept metas forward so report
        // indices keep matching meta-document ids; frameworks loaded from a
        // store without report blobs get zero-cost placeholder entries.
        let mut per_meta = self.report.per_meta.clone();
        per_meta.truncate(metas.len());
        while per_meta.len() < metas.len() {
            let m = &metas[per_meta.len()];
            per_meta.push(MetaBuildReport {
                strategy: m.index.kind(),
                nodes: m.len(),
                edges: 0,
                build_micros: 0,
                index_bytes: m.index.size_bytes(),
                dropped_links: 0,
                stages: None,
            });
        }
        let old_docs = self.graph.collection.doc_count() as u32;
        for d in old_docs..new_graph.collection.doc_count() as u32 {
            let nodes: Vec<NodeId> =
                (new_graph.node_base[d as usize]..new_graph.node_base[d as usize + 1]).collect();
            let job = build_one(&new_graph, &nodes, None, opts, 1);
            in_meta_links.extend(job.extra_links);
            per_meta.push(job.report);
            metas.push(MetaDocument::new(job.mapping, job.index));
        }
        let catalogue = Catalogue::wire(&new_graph, &mut metas, in_meta_links);
        let arcs: Vec<Arc<MetaDocument>> = metas
            .into_iter()
            .enumerate()
            .map(|(i, m)| match self.metas.get(i) {
                // Reuse the existing Arc when nothing about the meta changed
                // (the common case: untouched region of the collection).
                // Anchor order is canonical, so equal sets are equal lists.
                Some(old)
                    if old.link_sources == m.link_sources && old.link_targets == m.link_targets =>
                {
                    Arc::clone(old)
                }
                // Otherwise `m` is the old (expensive) index, cloned above,
                // with refreshed anchor lists — or a new meta document.
                _ => Arc::new(m),
            })
            .collect();

        let build_time = started.elapsed();
        let report = BuildReport {
            config: self.config,
            threads: 1,
            planning_micros: 0,
            indexing_micros: build_time.as_micros() as u64,
            wiring_micros: 0,
            total_micros: build_time.as_micros() as u64,
            runtime_links: catalogue.links().len(),
            per_meta,
        };
        Ok(Flix {
            graph: new_graph,
            config: self.config,
            metas: arcs,
            catalogue,
            build_time,
            report,
        })
    }

    /// The underlying collection graph.
    pub fn collection(&self) -> &CollectionGraph {
        &self.graph
    }

    /// Shared handle to the underlying collection graph.
    pub fn collection_arc(&self) -> Arc<CollectionGraph> {
        Arc::clone(&self.graph)
    }

    /// The configuration this framework was built with.
    pub fn config(&self) -> FlixConfig {
        self.config
    }

    /// Number of meta documents.
    pub fn meta_count(&self) -> usize {
        self.metas.len()
    }

    /// Meta document accessor.
    pub fn meta(&self, id: u32) -> &MetaDocument {
        &self.metas[id as usize]
    }

    /// Shared handle to a meta document.
    pub fn meta_arc(&self, id: u32) -> Arc<MetaDocument> {
        Arc::clone(&self.metas[id as usize])
    }

    /// The node→meta maps and the runtime link table.
    pub(crate) fn catalogue(&self) -> &Catalogue {
        &self.catalogue
    }

    /// Meta document containing a global node.
    ///
    /// # Panics
    /// If `node` is not an element of the collection (the evaluators ask
    /// the catalogue's bounds-checked `resolve` instead).
    pub fn meta_of(&self, node: NodeId) -> u32 {
        self.catalogue.meta_of[node as usize]
    }

    /// Local id of a global node within its meta document.
    ///
    /// # Panics
    /// If `node` is not an element of the collection.
    pub fn local_of(&self, node: NodeId) -> u32 {
        self.catalogue.local_of[node as usize]
    }

    /// Global id of `(meta, local)`.
    pub fn global_of(&self, meta: u32, local: u32) -> NodeId {
        self.metas[meta as usize].nodes[local as usize]
    }

    /// Runtime links out of `u` (global ids), a slice of the source-sorted
    /// table. A call costs one look-up in the catalogue's run index — a
    /// word load, a bit test, a popcount and two offset loads — however
    /// many links the table holds; a node with no link (or none of the
    /// collection) gets an empty slice.
    pub fn links_out_of(&self, u: NodeId) -> &[(NodeId, NodeId)] {
        self.catalogue.links_out_of(u)
    }

    /// Runtime links into `v`, as `(target, source)` pairs: a slice of the
    /// target-sorted table, at the cost of [`Self::links_out_of`].
    pub fn links_into(&self, v: NodeId) -> &[(NodeId, NodeId)] {
        self.catalogue.links_into(v)
    }

    /// All runtime links, sorted by source.
    pub fn runtime_links(&self) -> &[(NodeId, NodeId)] {
        self.catalogue.links()
    }

    /// The observability record of the build that produced this framework
    /// (zeroed for frameworks loaded from a store without a report blob).
    pub fn build_report(&self) -> &BuildReport {
        &self.report
    }

    /// Build statistics for reporting (Table-1 style).
    pub fn stats(&self) -> FlixStats {
        let per_meta: Vec<MetaDocStats> = self
            .metas
            .iter()
            .map(|m| MetaDocStats {
                elements: m.len(),
                strategy: m.index.kind(),
                index_bytes: m.index.size_bytes(),
                link_sources: m.link_sources.len(),
            })
            .collect();
        let mut ppo = 0;
        let mut hopi = 0;
        let mut apex = 0;
        for m in &per_meta {
            match m.strategy {
                StrategyKind::Ppo => ppo += 1,
                StrategyKind::Hopi => hopi += 1,
                StrategyKind::Apex => apex += 1,
            }
        }
        FlixStats {
            config: self.config,
            meta_docs: self.metas.len(),
            ppo_metas: ppo,
            hopi_metas: hopi,
            apex_metas: apex,
            index_bytes: per_meta.iter().map(|m| m.index_bytes).sum::<usize>()
                + self.runtime_links().len() * 16,
            runtime_links: self.runtime_links().len(),
            build_time: self.build_time,
            per_meta,
        }
    }
}

impl flixcheck::IntegrityCheck for Flix {
    fn integrity_check(&self) -> Result<flixcheck::IntegrityReport, flixcheck::IntegrityError> {
        let mut audit = flixcheck::IntegrityChecker::new("Flix");
        let n = self.graph.node_count();
        let (meta_of, local_of) = (&self.catalogue.meta_of, &self.catalogue.local_of);
        let links = self.runtime_links();
        audit.check(
            "node->meta maps cover the collection",
            meta_of.len() == n && local_of.len() == n,
            || {
                format!(
                    "collection has {n} nodes, meta_of holds {}, local_of holds {}",
                    meta_of.len(),
                    local_of.len()
                )
            },
        );
        if meta_of.len() != n || local_of.len() != n {
            return audit.finish();
        }

        // The per-meta node lists and the global maps must be mutually
        // inverse: metas[meta_of[g]].nodes[local_of[g]] == g, with every
        // global node appearing in exactly one meta document.
        let mut covered = 0usize;
        let mut mismatch = None;
        for (mi, md) in self.metas.iter().enumerate() {
            for (local, &global) in md.nodes.iter().enumerate() {
                covered += 1;
                let found = self.catalogue.resolve(global);
                if mismatch.is_none() && found != Some((mi as u32, local as u32)) {
                    mismatch = Some(format!(
                        "meta {mi} local {local} maps to global {global}, but the \
                         global maps say {found:?}"
                    ));
                }
            }
        }
        audit.check(
            "meta node lists and global maps are mutually inverse",
            mismatch.is_none(),
            || mismatch.unwrap_or_default(),
        );
        audit.check(
            "meta documents partition the collection",
            covered == n,
            || format!("meta documents hold {covered} nodes in total, collection has {n}"),
        );

        let unsorted = links.windows(2).any(|w| w[0] >= w[1]);
        audit.check(
            "runtime link table is strictly sorted by (source, target)",
            !unsorted,
            || "duplicate or out-of-order entry in runtime_links".to_string(),
        );
        // Soundness: every runtime link is a real edge of the collection
        // graph (cross-meta edges and PPO-dropped in-meta edges both are).
        let phantom = links
            .iter()
            .copied()
            .find(|&(u, v)| !self.graph.graph.has_edge(u, v));
        audit.check(
            "every runtime link is an edge of the collection graph",
            phantom.is_none(),
            || {
                phantom
                    .map(|(u, v)| format!("runtime link ({u}, {v}) is not a graph edge"))
                    .unwrap_or_default()
            },
        );

        // Completeness: every graph edge is either answered by the owning
        // meta document's index or catalogued as a runtime link.
        let mut lost = None;
        for (u, v) in self.graph.graph.edges() {
            if links.binary_search(&(u, v)).is_ok() {
                continue;
            }
            let (mu, mv) = (meta_of[u as usize], meta_of[v as usize]);
            if mu != mv {
                lost = Some(format!(
                    "cross-meta edge ({u}, {v}) missing from the runtime link table"
                ));
                break;
            }
            let md = &self.metas[mu as usize];
            if !md
                .index
                .is_reachable(local_of[u as usize], local_of[v as usize])
            {
                lost = Some(format!(
                    "in-meta edge ({u}, {v}) neither indexed nor a runtime link"
                ));
                break;
            }
        }
        audit.check(
            "every graph edge is indexed or catalogued as a runtime link",
            lost.is_none(),
            || lost.unwrap_or_default(),
        );

        // The per-meta anchor sets are exactly the runtime-link endpoints
        // translated to local ids.
        let mut want_sources: Vec<Vec<u32>> = vec![Vec::new(); self.metas.len()];
        let mut want_targets: Vec<Vec<u32>> = vec![Vec::new(); self.metas.len()];
        for &(u, v) in links {
            want_sources[meta_of[u as usize] as usize].push(local_of[u as usize]);
            want_targets[meta_of[v as usize] as usize].push(local_of[v as usize]);
        }
        let mut bad_anchor = None;
        for (mi, md) in self.metas.iter().enumerate() {
            for (what, have, want) in [
                ("link_sources", &md.link_sources, &mut want_sources[mi]),
                ("link_targets", &md.link_targets, &mut want_targets[mi]),
            ] {
                // Compared as sets; each meta's own audit checks the order.
                want.sort_unstable();
                want.dedup();
                let mut have = have.clone();
                have.sort_unstable();
                if have != *want && bad_anchor.is_none() {
                    bad_anchor = Some(format!(
                        "meta {mi} {what}: {} anchors recorded, link table implies {}",
                        have.len(),
                        want.len()
                    ));
                }
            }
        }
        audit.check(
            "per-meta anchor sets match the runtime link table",
            bad_anchor.is_none(),
            || bad_anchor.unwrap_or_default(),
        );

        // Finally, every meta document must pass its own (deep) audit.
        let mut bad_meta = None;
        for (mi, md) in self.metas.iter().enumerate() {
            if let Err(err) = md.integrity_check() {
                bad_meta = Some(format!("meta {mi}: {err}"));
                break;
            }
        }
        audit.check(
            "every meta document passes its own audit",
            bad_meta.is_none(),
            || bad_meta.unwrap_or_default(),
        );
        audit.finish()
    }
}

/// Aggregate build statistics.
#[derive(Debug, Clone)]
pub struct FlixStats {
    /// The configuration.
    pub config: FlixConfig,
    /// Number of meta documents.
    pub meta_docs: usize,
    /// Meta documents indexed with PPO.
    pub ppo_metas: usize,
    /// Meta documents indexed with HOPI.
    pub hopi_metas: usize,
    /// Meta documents indexed with APEX.
    pub apex_metas: usize,
    /// Total index footprint (all meta indexes + the runtime link table).
    pub index_bytes: usize,
    /// Number of runtime links.
    pub runtime_links: usize,
    /// Wall-clock build time.
    pub build_time: Duration,
    /// Per-meta-document breakdown.
    pub per_meta: Vec<MetaDocStats>,
}

/// Statistics for one meta document.
#[derive(Debug, Clone, Copy)]
pub struct MetaDocStats {
    /// Element count.
    pub elements: usize,
    /// Strategy used.
    pub strategy: StrategyKind,
    /// Index footprint in bytes.
    pub index_bytes: usize,
    /// Number of link-source elements (`L_i`).
    pub link_sources: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::{Collection, Document, LinkTarget};

    /// Two linked tree documents plus one cyclic document.
    fn sample() -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let a = c.tags.intern("a");
        let b = c.tags.intern("b");

        let mut d0 = Document::new("d0.xml");
        let r0 = d0.add_element(a, None);
        let k0 = d0.add_element(b, Some(r0));
        d0.add_element(b, Some(k0));
        d0.add_link(
            k0,
            LinkTarget {
                document: Some("d1.xml".into()),
                fragment: None,
            },
        );

        let mut d1 = Document::new("d1.xml");
        let r1 = d1.add_element(a, None);
        d1.add_element(b, Some(r1));

        let mut d2 = Document::new("d2.xml");
        let r2 = d2.add_element(a, None);
        let x = d2.add_element(b, Some(r2));
        let y = d2.add_element(b, Some(x));
        d2.add_anchor("x", x);
        d2.add_link(
            y,
            LinkTarget {
                document: None,
                fragment: Some("x".into()),
            },
        );
        d2.add_link(
            y,
            LinkTarget {
                document: Some("d0.xml".into()),
                fragment: None,
            },
        );

        c.add_document(d0).unwrap();
        c.add_document(d1).unwrap();
        c.add_document(d2).unwrap();
        Arc::new(c.seal())
    }

    #[test]
    fn naive_build_wires_links() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        assert_eq!(flix.meta_count(), 3);
        // cross-doc links: d0 -> d1 and d2 -> d0 are runtime links
        assert_eq!(
            flix.runtime_links().len(),
            2,
            "intra link of d2 stays inside its meta index"
        );
        let out = flix.links_out_of(cg.global(0, 1));
        assert_eq!(out, &[(1, 3)]);
        let into = flix.links_into(3);
        assert_eq!(into, &[(3, 1)]);
    }

    #[test]
    fn node_id_round_trip() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        for u in 0..cg.node_count() as NodeId {
            let m = flix.meta_of(u);
            let l = flix.local_of(u);
            assert_eq!(flix.global_of(m, l), u);
        }
    }

    #[test]
    fn naive_selector_assigns_ppo_to_trees() {
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let stats = flix.stats();
        // d0 and d1 are trees -> PPO; d2 has an intra link creating a
        // diamond -> non-forest -> HOPI
        assert_eq!(stats.ppo_metas, 2);
        assert_eq!(stats.hopi_metas, 1);
        assert!(stats.index_bytes > 0);
        assert!(stats.per_meta.len() == 3);
    }

    #[test]
    fn monolithic_has_no_runtime_links() {
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::Monolithic(StrategyKind::Hopi));
        assert_eq!(flix.meta_count(), 1);
        assert!(flix.runtime_links().is_empty());
    }

    #[test]
    fn maximal_ppo_merges_linked_trees() {
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::MaximalPpo);
        // d0 + d1 grouped (link targets d1's root), d2 separate
        assert_eq!(flix.meta_count(), 2);
        let stats = flix.stats();
        assert_eq!(stats.ppo_metas, 2, "MaximalPpo pins PPO everywhere");
    }

    #[test]
    fn link_sources_and_targets_populated() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let m0 = flix.meta_of(cg.global(0, 1));
        let md = flix.meta(m0);
        assert!(md.link_sources.contains(&flix.local_of(cg.global(0, 1))));
        let m1 = flix.meta_of(cg.global(1, 0));
        assert!(flix
            .meta(m1)
            .link_targets
            .contains(&flix.local_of(cg.global(1, 0))));
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let cg = sample();
        for config in [
            FlixConfig::Naive,
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 3 },
        ] {
            let seq = BuildOptions {
                build_threads: 1,
                ..BuildOptions::default()
            };
            let par = BuildOptions {
                build_threads: 4,
                ..BuildOptions::default()
            };
            let a = Flix::build_with(cg.clone(), config, &seq);
            let b = Flix::build_with(cg.clone(), config, &par);
            assert_eq!(a.catalogue, b.catalogue, "{config}");
            assert_eq!(a.meta_count(), b.meta_count(), "{config}");
            for mi in 0..a.meta_count() as u32 {
                let (ma, mb) = (a.meta(mi), b.meta(mi));
                assert_eq!(ma.nodes, mb.nodes, "{config} meta {mi}");
                assert_eq!(ma.index.kind(), mb.index.kind(), "{config} meta {mi}");
                assert_eq!(ma.link_sources, mb.link_sources, "{config} meta {mi}");
                assert_eq!(ma.link_targets, mb.link_targets, "{config} meta {mi}");
            }
        }
    }

    #[test]
    fn build_report_records_every_meta() {
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let r = flix.build_report();
        assert_eq!(r.config, FlixConfig::Naive);
        assert!(r.threads >= 1);
        assert_eq!(r.per_meta.len(), flix.meta_count());
        assert_eq!(r.runtime_links, flix.runtime_links().len());
        let s = flix.stats();
        assert_eq!(
            r.index_bytes() + flix.runtime_links().len() * 16,
            s.index_bytes,
            "report and stats agree on the index footprint"
        );
        for (mi, m) in r.per_meta.iter().enumerate() {
            assert_eq!(m.nodes, flix.meta(mi as u32).len(), "meta {mi}");
            assert_eq!(m.strategy, flix.meta(mi as u32).index.kind(), "meta {mi}");
        }
    }

    #[test]
    fn extend_carries_report_forward() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let t = cg.collection.tags.get("a").unwrap();
        let mut d = Document::new("d3.xml");
        let r = d.add_element(t, None);
        d.add_element(t, Some(r));
        let grown = Arc::new(cg.extend(vec![d]).unwrap());
        let bigger = flix.extend(grown, &BuildOptions::default()).unwrap();
        let report = bigger.build_report();
        assert_eq!(report.per_meta.len(), bigger.meta_count());
        assert_eq!(
            report.per_meta[..flix.meta_count()],
            flix.build_report().per_meta[..],
            "kept metas keep their original build records"
        );
        assert_eq!(report.runtime_links, bigger.runtime_links().len());
    }

    #[test]
    fn integrity_detects_corruption() {
        use flixcheck::IntegrityCheck;
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::Naive);
        flix.integrity_check().unwrap();

        // Global maps pointing at the wrong meta document.
        let mut bad = flix.clone();
        bad.catalogue.meta_of[0] = bad.catalogue.meta_of[0].wrapping_add(1);
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("mutually inverse"), "{err}");

        // A cross-meta edge the link table lost.
        let maps = &flix.catalogue;
        let with_links = |links| Flix {
            catalogue: Catalogue::new(maps.meta_of.clone(), maps.local_of.clone(), links),
            ..flix.clone()
        };
        let err = with_links(Vec::new()).integrity_check().unwrap_err();
        assert!(
            err.to_string()
                .contains("missing from the runtime link table"),
            "{err}"
        );

        // A phantom link no graph edge backs.
        let n = flix.graph.node_count() as NodeId;
        let mut links = flix.runtime_links().to_vec();
        links.push((n - 1, n - 1));
        links.sort_unstable();
        let err = with_links(links).integrity_check().unwrap_err();
        assert!(err.to_string().contains("not a graph edge"), "{err}");

        // An anchor set that forgot a link source.
        let mut bad = flix.clone();
        let mi = bad.meta_of(bad.runtime_links()[0].0) as usize;
        let mut md = (*bad.metas[mi]).clone();
        md.link_sources.clear();
        bad.metas[mi] = Arc::new(md);
        let err = bad.integrity_check().unwrap_err();
        assert!(err.to_string().contains("anchor sets"), "{err}");
    }
}
