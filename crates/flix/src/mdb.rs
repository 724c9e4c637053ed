//! The Meta Document Builder (paper §4.1, §4.3).
//!
//! Splits a sealed collection into meta-document node sets according to the
//! chosen configuration, optionally pinning the indexing strategy per meta
//! document (configurations like Unconnected HOPI fix the strategy; Naive
//! leaves it to the selector).

use crate::config::{FlixConfig, StrategyKind};
use graphcore::{is_forest, partition_greedy, NodeId};
use xmlgraph::CollectionGraph;

/// A planned meta document: its global node set (ascending) and, if the
/// configuration dictates one, the strategy to index it with.
#[derive(Debug, Clone)]
pub struct MetaPlan {
    /// Global nodes of the meta document, ascending.
    pub nodes: Vec<NodeId>,
    /// Strategy pinned by the configuration, or `None` for selector choice.
    pub strategy: Option<StrategyKind>,
}

/// Builds the meta-document plan for a configuration.
pub fn build_meta_documents(cg: &CollectionGraph, config: FlixConfig) -> Vec<MetaPlan> {
    match config {
        FlixConfig::Naive => naive(cg),
        FlixConfig::MaximalPpo => maximal_ppo(cg),
        FlixConfig::UnconnectedHopi { partition_size } => {
            unconnected_hopi(cg, partition_size, StrategyKind::Hopi)
        }
        FlixConfig::Hybrid { partition_size } => hybrid(cg, partition_size),
        FlixConfig::Monolithic(kind) => vec![MetaPlan {
            nodes: (0..cg.node_count() as NodeId).collect(),
            strategy: Some(kind),
        }],
    }
}

/// Schedules plan indices for the build worker pool: largest node sets
/// first (ties broken by ascending index). Feeding the pool biggest-first
/// keeps the indexing stage's tail short — a large meta document started
/// last would otherwise run alone while every other worker idles.
pub fn plan_build_order(plans: &[MetaPlan]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(plans[i].nodes.len()), i));
    order
}

fn doc_nodes(cg: &CollectionGraph, d: u32) -> Vec<NodeId> {
    (cg.node_base[d as usize]..cg.node_base[d as usize + 1]).collect()
}

/// One meta document per XML document; strategy left to the selector.
fn naive(cg: &CollectionGraph) -> Vec<MetaPlan> {
    (0..cg.collection.doc_count() as u32)
        .map(|d| MetaPlan {
            nodes: doc_nodes(cg, d),
            strategy: None,
        })
        .collect()
}

/// True if document `d`'s induced element subgraph is a forest (its tree
/// edges plus any intra-document links).
fn doc_is_tree(cg: &CollectionGraph, d: u32) -> bool {
    // Tree edges always form a tree; only intra-document links can break
    // forest shape, and those appear as link edges with both ends in `d`.
    let base = cg.node_base[d as usize];
    let end = cg.node_base[d as usize + 1];
    let first = cg.link_edges.partition_point(|&(u, _)| u < base);
    let has_intra = cg.link_edges[first..]
        .iter()
        .take_while(|&&(u, _)| u < end)
        .any(|&(_, v)| v >= base && v < end);
    if !has_intra {
        return true;
    }
    let (sub, _) = cg.graph.induced_subgraph(&doc_nodes(cg, d));
    is_forest(&sub)
}

/// Groups documents into document-level trees: an inter-document link that
/// points at the root of an internally tree-shaped document can serve as a
/// tree edge of a larger forest, so whole chains of such documents share
/// one PPO-indexed meta document (paper §4.3, Fig. 3).
fn maximal_ppo_groups(cg: &CollectionGraph, docs: &[u32]) -> Vec<Vec<u32>> {
    let in_scope = {
        let mut v = vec![false; cg.collection.doc_count()];
        for &d in docs {
            v[d as usize] = true;
        }
        v
    };
    let tree_doc: Vec<bool> = (0..cg.collection.doc_count() as u32)
        .map(|d| in_scope[d as usize] && doc_is_tree(cg, d))
        .collect();

    // Each doc may acquire at most one tree parent; an edge d1 -> d2 is
    // usable iff both docs are trees and some link from d1 targets d2's
    // root. Greedy forest construction with union-find cycle avoidance.
    let n_docs = cg.collection.doc_count();
    let mut parent_of: Vec<Option<u32>> = vec![None; n_docs];
    let mut uf: Vec<u32> = (0..n_docs as u32).collect();
    fn find(uf: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while uf[r as usize] != r {
            r = uf[r as usize];
        }
        let mut c = x;
        while uf[c as usize] != r {
            let next = uf[c as usize];
            uf[c as usize] = r;
            c = next;
        }
        r
    }
    for &(u, v) in &cg.link_edges {
        let (d1, d2) = (cg.doc_of(u), cg.doc_of(v));
        if d1 == d2 || !tree_doc[d1 as usize] || !tree_doc[d2 as usize] {
            continue;
        }
        if v != cg.doc_root(d2) || parent_of[d2 as usize].is_some() {
            continue;
        }
        let (r1, r2) = (find(&mut uf, d1), find(&mut uf, d2));
        if r1 == r2 {
            continue; // would close a cycle at document level
        }
        parent_of[d2 as usize] = Some(d1);
        uf[r2 as usize] = r1;
    }

    // Components of the doc forest (tree docs only) become groups;
    // non-tree docs are singletons.
    let mut groups: std::collections::HashMap<u32, Vec<u32>> = std::collections::HashMap::new();
    for &d in docs {
        if tree_doc[d as usize] {
            groups.entry(find(&mut uf, d)).or_default().push(d);
        } else {
            groups.insert(u32::MAX - d, vec![d]);
        }
    }
    let mut out: Vec<Vec<u32>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g[0]);
    out
}

fn maximal_ppo(cg: &CollectionGraph) -> Vec<MetaPlan> {
    let all_docs: Vec<u32> = (0..cg.collection.doc_count() as u32).collect();
    maximal_ppo_groups(cg, &all_docs)
        .into_iter()
        .map(|group| MetaPlan {
            nodes: group.iter().flat_map(|&d| doc_nodes(cg, d)).collect(),
            strategy: Some(StrategyKind::Ppo),
        })
        .collect()
}

fn unconnected_hopi(
    cg: &CollectionGraph,
    partition_size: usize,
    kind: StrategyKind,
) -> Vec<MetaPlan> {
    if cg.node_count() == 0 {
        return Vec::new();
    }
    partition_greedy(&cg.graph, partition_size)
        .parts
        .into_iter()
        .map(|nodes| MetaPlan {
            nodes,
            strategy: Some(kind),
        })
        .collect()
}

/// Hybrid (§4.3): tree-shaped documents form Maximal-PPO groups; the
/// remaining (linked) documents are partitioned and HOPI-indexed.
fn hybrid(cg: &CollectionGraph, partition_size: usize) -> Vec<MetaPlan> {
    let mut tree_docs = Vec::new();
    let mut linked_docs = Vec::new();
    for d in 0..cg.collection.doc_count() as u32 {
        if doc_is_tree(cg, d) {
            tree_docs.push(d);
        } else {
            linked_docs.push(d);
        }
    }
    let mut plans: Vec<MetaPlan> = maximal_ppo_groups(cg, &tree_docs)
        .into_iter()
        .map(|group| MetaPlan {
            nodes: group.iter().flat_map(|&d| doc_nodes(cg, d)).collect(),
            strategy: Some(StrategyKind::Ppo),
        })
        .collect();
    // Partition the linked region's induced subgraph.
    let linked_nodes: Vec<NodeId> = linked_docs.iter().flat_map(|&d| doc_nodes(cg, d)).collect();
    if !linked_nodes.is_empty() {
        let (sub, mapping) = cg.graph.induced_subgraph(&linked_nodes);
        for part in partition_greedy(&sub, partition_size).parts {
            plans.push(MetaPlan {
                nodes: part.into_iter().map(|l| mapping[l as usize]).collect(),
                strategy: Some(StrategyKind::Hopi),
            });
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::{Collection, Document, LinkTarget};

    /// Three tree docs chained by root-targeting links, one cyclic doc.
    fn sample() -> CollectionGraph {
        let mut c = Collection::new();
        let t = c.tags.intern("x");
        for i in 0..3 {
            let mut d = Document::new(format!("t{i}.xml"));
            let r = d.add_element(t, None);
            d.add_element(t, Some(r));
            if i < 2 {
                d.add_link(
                    1,
                    LinkTarget {
                        document: Some(format!("t{}.xml", i + 1)),
                        fragment: None,
                    },
                );
            }
            c.add_document(d).unwrap();
        }
        let mut w = Document::new("w.xml");
        let r = w.add_element(t, None);
        let a = w.add_element(t, Some(r));
        let b = w.add_element(t, Some(a));
        w.add_anchor("a", a);
        w.add_anchor("r", r);
        // cyclic intra links
        w.add_link(
            b,
            LinkTarget {
                document: None,
                fragment: Some("r".into()),
            },
        );
        w.add_link(
            b,
            LinkTarget {
                document: None,
                fragment: Some("a".into()),
            },
        );
        c.add_document(w).unwrap();
        c.seal()
    }

    fn plan_covers_all(cg: &CollectionGraph, plans: &[MetaPlan]) {
        let mut all: Vec<NodeId> = plans.iter().flat_map(|p| p.nodes.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..cg.node_count() as NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn naive_one_meta_per_doc() {
        let cg = sample();
        let plans = build_meta_documents(&cg, FlixConfig::Naive);
        assert_eq!(plans.len(), 4);
        plan_covers_all(&cg, &plans);
        assert!(plans.iter().all(|p| p.strategy.is_none()));
    }

    #[test]
    fn maximal_ppo_groups_chained_trees() {
        let cg = sample();
        let plans = build_meta_documents(&cg, FlixConfig::MaximalPpo);
        plan_covers_all(&cg, &plans);
        // t0, t1, t2 merge into one group; w is a singleton
        assert_eq!(plans.len(), 2);
        let big = plans.iter().find(|p| p.nodes.len() == 6).expect("group");
        assert_eq!(big.strategy, Some(StrategyKind::Ppo));
    }

    #[test]
    fn doc_is_tree_detection() {
        let cg = sample();
        assert!(doc_is_tree(&cg, 0));
        assert!(!doc_is_tree(&cg, 3));
    }

    #[test]
    fn doc_is_tree_is_the_forest_test_of_the_induced_subgraph() {
        use workloads::{generate_mixed, generate_web, MixedConfig, WebConfig};
        let mut answers = [false; 2];
        let mut link_free_between_linked = false;
        for c in [
            generate_web(&WebConfig::default()),
            generate_mixed(&MixedConfig::default()),
        ] {
            let cg = c.seal();
            let docs = cg.collection.doc_count() as u32;
            // Every document, the first and the last included.
            for d in 0..docs {
                let (sub, _) = cg.graph.induced_subgraph(&doc_nodes(&cg, d));
                let tree = doc_is_tree(&cg, d);
                assert_eq!(tree, is_forest(&sub), "document {d} of {docs}");
                answers[tree as usize] = true;
            }
            let linked: Vec<bool> = (0..docs as usize)
                .map(|d| {
                    let (base, end) = (cg.node_base[d], cg.node_base[d + 1]);
                    cg.link_edges.iter().any(|&(u, _)| base <= u && u < end)
                })
                .collect();
            link_free_between_linked |= (1..linked.len()).any(|d| {
                !linked[d] && linked[..d].contains(&true) && linked[d + 1..].contains(&true)
            });
        }
        assert_eq!(answers, [true, true], "both answers occur");
        assert!(
            link_free_between_linked,
            "a link-free document sits between linked ones"
        );
    }

    #[test]
    fn unconnected_hopi_respects_cap() {
        let cg = sample();
        let plans = build_meta_documents(&cg, FlixConfig::UnconnectedHopi { partition_size: 4 });
        plan_covers_all(&cg, &plans);
        assert!(plans.iter().all(|p| p.nodes.len() <= 4));
        assert!(plans.iter().all(|p| p.strategy == Some(StrategyKind::Hopi)));
    }

    #[test]
    fn hybrid_splits_regimes() {
        let cg = sample();
        let plans = build_meta_documents(&cg, FlixConfig::Hybrid { partition_size: 10 });
        plan_covers_all(&cg, &plans);
        let ppo_nodes: usize = plans
            .iter()
            .filter(|p| p.strategy == Some(StrategyKind::Ppo))
            .map(|p| p.nodes.len())
            .sum();
        let hopi_nodes: usize = plans
            .iter()
            .filter(|p| p.strategy == Some(StrategyKind::Hopi))
            .map(|p| p.nodes.len())
            .sum();
        assert_eq!(ppo_nodes, 6, "three tree docs");
        assert_eq!(hopi_nodes, 3, "the cyclic doc");
    }

    #[test]
    fn build_order_is_largest_first_with_stable_ties() {
        let plan = |n: usize| MetaPlan {
            nodes: (0..n as NodeId).collect(),
            strategy: None,
        };
        let plans = vec![plan(2), plan(5), plan(2), plan(9)];
        assert_eq!(plan_build_order(&plans), vec![3, 1, 0, 2]);
        assert!(plan_build_order(&[]).is_empty());
    }

    #[test]
    fn monolithic_single_meta() {
        let cg = sample();
        let plans = build_meta_documents(&cg, FlixConfig::Monolithic(StrategyKind::Apex));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].nodes.len(), cg.node_count());
        assert_eq!(plans[0].strategy, Some(StrategyKind::Apex));
    }

    #[test]
    fn cycle_between_documents_broken() {
        // two tree docs linking at each other's roots: the doc-level cycle
        // must not produce one meta doc claiming to be a tree... it *may*
        // group them (extended PPO drops an edge), but the union-find must
        // not loop forever and the plan must cover everything.
        let mut c = Collection::new();
        let t = c.tags.intern("x");
        for i in 0..2 {
            let mut d = Document::new(format!("c{i}.xml"));
            let r = d.add_element(t, None);
            d.add_element(t, Some(r));
            d.add_link(
                1,
                LinkTarget {
                    document: Some(format!("c{}.xml", 1 - i)),
                    fragment: None,
                },
            );
            c.add_document(d).unwrap();
        }
        let cg = c.seal();
        let plans = build_meta_documents(&cg, FlixConfig::MaximalPpo);
        plan_covers_all(&cg, &plans);
        // one of the two link edges is used as tree edge, so both docs are
        // in one group
        assert_eq!(plans.len(), 1);
    }
}
