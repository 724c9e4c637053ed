//! Framework configurations (paper §4.3) and the indexing-strategy
//! selector (§4.1).

use graphcore::{spanning_forest, Digraph};
use serde::{Deserialize, Serialize};

/// Which path-indexing strategy backs a meta document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Pre/postorder index (extended with runtime links where needed).
    Ppo,
    /// HOPI 2-hop connection index.
    Hopi,
    /// APEX structural summary.
    Apex,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyKind::Ppo => write!(f, "PPO"),
            StrategyKind::Hopi => write!(f, "HOPI"),
            StrategyKind::Apex => write!(f, "APEX"),
        }
    }
}

/// The predefined framework configurations of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlixConfig {
    /// One meta document per XML document; the selector picks PPO for
    /// link-free documents and HOPI/APEX otherwise. Good when documents
    /// are large, links are rare, and queries stay within documents.
    Naive,
    /// Greedily group documents into forests (links pointing at document
    /// roots can stay inside a PPO-indexed meta document); everything the
    /// forest cannot represent becomes a runtime link. Good for almost-
    /// tree collections like DBLP.
    MaximalPpo,
    /// HOPI's divide step: size-capped element-graph partitions, each
    /// indexed with HOPI; partition-crossing edges are runtime links.
    /// Good when most documents contain links.
    UnconnectedHopi {
        /// Maximum elements per partition (the paper evaluates 5,000 and
        /// 20,000).
        partition_size: usize,
    },
    /// Maximal PPO for the tree-like part of the collection, Unconnected
    /// HOPI for the rest. Good for mixed collections (paper Fig. 1).
    Hybrid {
        /// Partition cap for the HOPI region.
        partition_size: usize,
    },
    /// The whole collection as a single meta document with a fixed
    /// strategy. `Monolithic(Hopi)` and `Monolithic(Apex)` are exactly the
    /// paper's two baselines.
    Monolithic(StrategyKind),
}

impl std::fmt::Display for FlixConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlixConfig::Naive => write!(f, "PPO-naive"),
            FlixConfig::MaximalPpo => write!(f, "MaximalPPO"),
            FlixConfig::UnconnectedHopi { partition_size } => {
                write!(f, "HOPI-{partition_size}")
            }
            FlixConfig::Hybrid { partition_size } => write!(f, "Hybrid-{partition_size}"),
            FlixConfig::Monolithic(k) => write!(f, "{k}"),
        }
    }
}

/// The Indexing Strategy Selector: picks the best strategy for one meta
/// document from its structure (paper §4.1).
#[derive(Debug, Clone)]
pub struct StrategySelector {
    /// Use (extended) PPO when at most this fraction of edges must be
    /// removed to make the meta document a forest.
    pub ppo_removal_tolerance: f64,
    /// Prefer APEX over HOPI for linked meta documents with at most this
    /// many elements (small summaries answer traversals quickly; HOPI's
    /// label build only pays off on larger graphs).
    pub apex_below_elements: usize,
}

impl Default for StrategySelector {
    fn default() -> Self {
        Self {
            ppo_removal_tolerance: 0.02,
            apex_below_elements: 0,
        }
    }
}

impl StrategySelector {
    /// Chooses a strategy for a meta document given as a subgraph.
    pub fn select(&self, subgraph: &Digraph) -> StrategyKind {
        let edges = subgraph.edge_count();
        if edges == 0 {
            return StrategyKind::Ppo;
        }
        let check = spanning_forest(subgraph);
        if check.is_forest || check.removal_ratio(edges) <= self.ppo_removal_tolerance {
            return StrategyKind::Ppo;
        }
        if subgraph.node_count() <= self.apex_below_elements {
            return StrategyKind::Apex;
        }
        StrategyKind::Hopi
    }
}

/// Build-phase knobs.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// The strategy selector used where a configuration leaves the choice
    /// open.
    pub selector: StrategySelector,
    /// Worker threads for the per-meta-document build stage, resolved by
    /// [`graphcore::pool::effective_threads`]: `0` means "one per available
    /// core", `1` forces a fully sequential build, and no more workers run
    /// than there are meta documents. Each meta document's index builds on
    /// one thread. Either way the built framework is byte-identical —
    /// threads only change wall clock.
    pub build_threads: usize,
}

impl Default for BuildOptions {
    /// The default thread count honours the `FLIX_BUILD_THREADS`
    /// environment variable (unset or unparsable means `0` = one thread
    /// per core), so test suites and CI can pin the build shape without
    /// touching call sites.
    fn default() -> Self {
        let build_threads = std::env::var("FLIX_BUILD_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Self {
            selector: StrategySelector::default(),
            build_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_picks_ppo_for_trees() {
        let g = Digraph::from_edges(4, [(0, 1), (0, 2), (2, 3)]);
        assert_eq!(StrategySelector::default().select(&g), StrategyKind::Ppo);
    }

    #[test]
    fn selector_picks_ppo_for_almost_trees() {
        // 100-node tree plus one extra edge: 1% removal, under the 2% bar.
        let mut edges: Vec<(u32, u32)> = (1..100).map(|i| (i / 2, i)).collect();
        edges.push((40, 3));
        let g = Digraph::from_edges(100, edges);
        assert_eq!(StrategySelector::default().select(&g), StrategyKind::Ppo);
    }

    #[test]
    fn selector_picks_hopi_for_dense_links() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3)]);
        assert_eq!(StrategySelector::default().select(&g), StrategyKind::Hopi);
    }

    #[test]
    fn selector_honours_apex_window() {
        let g = Digraph::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3)]);
        let s = StrategySelector {
            apex_below_elements: 10,
            ..StrategySelector::default()
        };
        assert_eq!(s.select(&g), StrategyKind::Apex);
    }

    #[test]
    fn empty_graph_gets_ppo() {
        let g = Digraph::from_edges(3, []);
        assert_eq!(StrategySelector::default().select(&g), StrategyKind::Ppo);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(FlixConfig::Naive.to_string(), "PPO-naive");
        assert_eq!(
            FlixConfig::UnconnectedHopi {
                partition_size: 5000
            }
            .to_string(),
            "HOPI-5000"
        );
        assert_eq!(FlixConfig::MaximalPpo.to_string(), "MaximalPPO");
        assert_eq!(
            FlixConfig::Monolithic(StrategyKind::Hopi).to_string(),
            "HOPI"
        );
    }
}
