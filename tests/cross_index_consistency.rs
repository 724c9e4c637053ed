//! Cross-crate consistency: every FliX configuration must return exactly
//! the reachable elements with the requested tag, on every corpus family,
//! agreeing with a plain BFS oracle over the union graph.

use flix::{Flix, FlixConfig, Query, QueryCtx, QueryOptions, StrategyKind};
use graphcore::bfs_distances;
use std::sync::Arc;
use workloads::{
    connection_pairs, descendant_queries, generate_dblp, generate_mixed, generate_trees,
    generate_web, DblpConfig, MixedConfig, TreeConfig, WebConfig,
};
use xmlgraph::CollectionGraph;

fn configs() -> Vec<FlixConfig> {
    vec![
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi { partition_size: 64 },
        FlixConfig::UnconnectedHopi {
            partition_size: 1000,
        },
        FlixConfig::Hybrid { partition_size: 64 },
        FlixConfig::Monolithic(StrategyKind::Hopi),
        FlixConfig::Monolithic(StrategyKind::Apex),
    ]
}

fn corpora() -> Vec<(&'static str, Arc<CollectionGraph>)> {
    vec![
        (
            "dblp",
            Arc::new(generate_dblp(&DblpConfig::tiny(101)).seal()),
        ),
        (
            "trees",
            Arc::new(
                generate_trees(&TreeConfig {
                    documents: 12,
                    elements_per_doc: 40,
                    ..TreeConfig::default()
                })
                .seal(),
            ),
        ),
        (
            "web",
            Arc::new(
                generate_web(&WebConfig {
                    documents: 10,
                    elements_per_doc: 25,
                    intra_links_per_doc: 3,
                    inter_links_per_doc: 4,
                    ..WebConfig::default()
                })
                .seal(),
            ),
        ),
        (
            "mixed",
            Arc::new(
                generate_mixed(&MixedConfig {
                    trees: TreeConfig {
                        documents: 8,
                        elements_per_doc: 30,
                        ..TreeConfig::default()
                    },
                    web: WebConfig {
                        documents: 6,
                        elements_per_doc: 20,
                        ..WebConfig::default()
                    },
                    bridge_links: 4,
                    seed: 5,
                })
                .seal(),
            ),
        ),
    ]
}

/// The oracle answer: all nodes with `tag` reachable from `start`
/// (excluding `start`), with exact union-graph distances.
fn oracle_descendants(cg: &CollectionGraph, start: u32, tag: u32) -> Vec<(u32, u32)> {
    let dist = bfs_distances(&cg.graph, start);
    let mut out: Vec<(u32, u32)> = (0..cg.node_count() as u32)
        .filter(|&v| v != start && cg.tag_of(v) == tag)
        .filter_map(|v| {
            let d = dist[v as usize];
            (d != graphcore::INFINITE_DISTANCE).then_some((v, d))
        })
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn descendants_complete_and_distances_exact() {
    for (name, cg) in corpora() {
        let queries = descendant_queries(&cg, 8, 77);
        for config in configs() {
            let flix = Flix::build(cg.clone(), config);
            for q in &queries {
                let got = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
                let mut got_sorted: Vec<(u32, u32)> =
                    got.iter().map(|r| (r.node, r.distance)).collect();
                got_sorted.sort_unstable();
                let want = oracle_descendants(&cg, q.start, q.target_tag);
                // Node sets must match exactly.
                let got_nodes: Vec<u32> = got_sorted.iter().map(|&(n, _)| n).collect();
                let want_nodes: Vec<u32> = want.iter().map(|&(n, _)| n).collect();
                assert_eq!(
                    got_nodes, want_nodes,
                    "{name}/{config}: node set for start {} tag {}",
                    q.start, q.target_tag
                );
                // Reported distances are exact union-graph distances: the
                // priority-queue evaluation explores every entry point, so
                // even approximate *ordering* keeps exact per-node minima
                // when no early termination is requested... except that
                // entry subsumption may keep the first (possibly longer)
                // path. Distances must never undershoot the true minimum.
                for (&(gn, gd), &(wn, wd)) in got_sorted.iter().zip(&want) {
                    assert_eq!(gn, wn);
                    assert!(
                        gd >= wd,
                        "{name}/{config}: distance for node {gn} undershoots: {gd} < {wd}"
                    );
                }
            }
        }
    }
}

#[test]
fn connection_tests_match_oracle_reachability() {
    for (name, cg) in corpora() {
        let pairs = connection_pairs(&cg, 16, 99);
        for config in configs() {
            let flix = Flix::build(cg.clone(), config);
            for p in &pairs {
                let query = Query::connection(p.from, p.to, false, QueryOptions::default());
                let got = flix.evaluate(&query, &mut QueryCtx::default()).distance();
                assert_eq!(
                    got.is_some(),
                    p.reachable,
                    "{name}/{config}: {} -> {}",
                    p.from,
                    p.to
                );
                if let Some(d) = got {
                    let exact = bfs_distances(&cg.graph, p.from)[p.to as usize];
                    assert!(d >= exact, "{name}/{config}: distance undershoots");
                }
            }
        }
    }
}

#[test]
fn top_k_is_prefix_of_full_result() {
    for (name, cg) in corpora() {
        let queries = descendant_queries(&cg, 4, 13);
        for config in configs() {
            let flix = Flix::build(cg.clone(), config);
            for q in &queries {
                let full = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
                let k = 5.min(full.len());
                let top = flix.find_descendants(q.start, q.target_tag, &QueryOptions::top_k(k));
                assert_eq!(
                    top,
                    full[..k],
                    "{name}/{config}: top-{k} differs from prefix"
                );
            }
        }
    }
}

#[test]
fn ancestors_are_inverse_of_descendants() {
    for (name, cg) in corpora() {
        let config = FlixConfig::Naive;
        let flix = Flix::build(cg.clone(), config);
        let queries = descendant_queries(&cg, 4, 31);
        for q in &queries {
            let desc = flix.find_descendants(q.start, q.target_tag, &QueryOptions::default());
            let start_tag = cg.tag_of(q.start);
            for r in desc.iter().take(5) {
                let query = Query::ancestors(r.node, start_tag, QueryOptions::default());
                let anc = flix.evaluate(&query, &mut QueryCtx::default()).results;
                assert!(
                    anc.iter().any(|a| a.node == q.start),
                    "{name}: {} should be an ancestor of {}",
                    q.start,
                    r.node
                );
            }
        }
    }
}
