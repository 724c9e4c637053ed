//! Property-based deep audits: every index structure must pass its
//! [`flixcheck::IntegrityCheck`] on randomly generated inputs, and the
//! assembled FliX framework must pass under every configuration.
//!
//! These are the positive half of the integrity story; the negative half
//! (seeded corruption must be *caught*) lives next to each implementation
//! as `integrity_detects_corruption` unit tests.

use apex::ApexIndex;
use flix::{Flix, FlixConfig};
use flixcheck::IntegrityCheck;
use graphcore::Digraph;
use hopi::HopiIndex;
use ppo::PpoIndex;
use proptest::prelude::*;
use std::sync::Arc;
use workloads::{generate_mixed, MixedConfig, TreeConfig, WebConfig};

/// An arbitrary sparse digraph: node count and an edge list.
fn arb_graph(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Digraph> {
    (2..max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_edges)
            .prop_map(move |edges| Digraph::from_edges(n, edges))
    })
}

/// An arbitrary forest: every node > 0 picks a parent among smaller ids,
/// with some nodes left as roots.
fn arb_forest(max_nodes: usize) -> impl Strategy<Value = Digraph> {
    (2..max_nodes).prop_flat_map(move |n| {
        proptest::collection::vec(proptest::option::of(0..u32::MAX), n - 1).prop_map(
            move |parents| {
                let edges: Vec<(u32, u32)> = parents
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| p.map(|p| (p % (i as u32 + 1), i as u32 + 1)))
                    .collect();
                Digraph::from_edges(n, edges)
            },
        )
    })
}

fn arb_labels(g: &Digraph, tags: u32) -> Vec<u32> {
    (0..g.node_count() as u32)
        .map(|u| (u * 7 + 3) % tags)
        .collect()
}

/// One label table of a HOPI image, as the codec reads it back.
#[derive(serde::Deserialize)]
struct Table {
    #[serde(with = "graphcore::flat")]
    offsets: Vec<u32>,
    #[serde(with = "graphcore::flat")]
    entries: Vec<(u32, u32)>,
}

/// The fields of a HOPI image, in order.
#[derive(serde::Deserialize)]
struct HopiTables {
    _layout: u32,
    l_out: Table,
    in_index: Table,
    #[serde(with = "graphcore::flat")]
    node_labels: Vec<u32>,
    _stats: hopi::BuildStats,
}

/// The bytes a flat array of `count` elements takes in an image: its byte
/// count, its element count, a width byte per lane, and each lane packed at
/// the bits of its largest value (`maxima`), at least one.
fn packed(count: usize, maxima: &[u32]) -> usize {
    let width = |max: u32| (32 - max.leading_zeros()).max(1) as usize;
    let lanes: usize = maxima.iter().map(|&m| (count * width(m)).div_ceil(8)).sum();
    8 + 4 + maxima.len() + lanes
}

/// The largest of `lane`, 0 if it is empty.
fn max(lane: impl Iterator<Item = u32>) -> u32 {
    lane.max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ppo_audit_holds_on_random_forests(g in arb_forest(60)) {
        let labels = arb_labels(&g, 6);
        let (idx, _) = PpoIndex::build(&g, &labels);
        prop_assert!(idx.removed_edges().is_empty(), "a forest loses no edge");
        let report = idx.integrity_check();
        prop_assert!(report.is_ok(), "{}", report.err().map(|e| e.to_string()).unwrap_or_default());
    }

    #[test]
    fn extended_ppo_audit_holds_on_random_graphs(g in arb_graph(50, 140)) {
        let labels = arb_labels(&g, 6);
        let (idx, _) = PpoIndex::build(&g, &labels);
        let report = idx.integrity_check();
        prop_assert!(report.is_ok(), "{}", report.err().map(|e| e.to_string()).unwrap_or_default());
    }

    #[test]
    fn hopi_audit_and_graph_oracle_hold_on_random_graphs(g in arb_graph(40, 110)) {
        let labels = arb_labels(&g, 5);
        let idx = HopiIndex::build(&g, &labels);
        let report = idx.integrity_check();
        prop_assert!(report.is_ok(), "{}", report.err().map(|e| e.to_string()).unwrap_or_default());
        let oracle = idx.verify_against_graph(&g, 12);
        prop_assert!(oracle.is_ok(), "{}", oracle.err().unwrap_or_default());
    }

    /// A persisted HOPI image decodes to an equal index that passes the
    /// load-time layout check, and costs what the packed tables say: the
    /// layout word, five arrays — the descendants pair, two tables of
    /// `n + 1` offsets and `(node, distance)` entries (every entry once:
    /// `l_out` holds the out-entries, `in_index` the in-entries), and the
    /// node labels — each a byte count, an element count, a width byte per
    /// lane and its lanes packed at their widths, plus the three build
    /// counters.
    #[test]
    fn hopi_image_round_trips_to_an_equal_index(g in arb_graph(40, 110)) {
        let n = g.node_count();
        let idx = HopiIndex::build(&g, &arb_labels(&g, 5));
        let image = pagestore::to_bytes(&idx).unwrap();
        let tables: HopiTables = pagestore::from_bytes(&image).unwrap();
        let (l_out, in_index) = (&tables.l_out, &tables.in_index);
        prop_assert_eq!(l_out.offsets.len(), n + 1);
        prop_assert_eq!(in_index.offsets.len(), n + 1);
        prop_assert_eq!(tables.node_labels.len(), n);
        prop_assert_eq!(l_out.entries.len() + in_index.entries.len(), idx.label_entries());
        let table = |t: &Table| {
            let entries = [max(t.entries.iter().map(|e| e.0)), max(t.entries.iter().map(|e| e.1))];
            packed(n + 1, &[max(t.offsets.iter().copied())]) + packed(t.entries.len(), &entries)
        };
        let labels = packed(n, &[max(tables.node_labels.iter().copied())]);
        prop_assert_eq!(image.len(), 4 + table(l_out) + table(in_index) + labels + 3 * 8);
        let back: HopiIndex = pagestore::from_bytes(&image).unwrap();
        prop_assert!(back == idx, "decoded index differs");
        prop_assert_eq!(back.layout_fault(), None);
    }

    #[test]
    fn apex_audit_holds_on_random_graphs(
        g in arb_graph(40, 110),
        rounds in 0usize..3,
    ) {
        let labels = arb_labels(&g, 5);
        let idx = ApexIndex::build(&g, &labels, rounds);
        let report = idx.integrity_check();
        prop_assert!(report.is_ok(), "{}", report.err().map(|e| e.to_string()).unwrap_or_default());
    }
}

proptest! {
    // Framework audits build four configurations per case, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn flix_audit_holds_on_random_collections_under_every_config(
        tree_docs in 1usize..4,
        tree_elems in 2usize..10,
        web_docs in 1usize..4,
        web_elems in 2usize..8,
        bridges in 0usize..6,
        seed in 0u64..1_000,
    ) {
        let cfg = MixedConfig {
            trees: TreeConfig {
                documents: tree_docs,
                elements_per_doc: tree_elems,
                max_fanout: 4,
                tag_count: 6,
                seed,
            },
            web: WebConfig {
                documents: web_docs,
                elements_per_doc: web_elems,
                intra_links_per_doc: 2,
                inter_links_per_doc: 2,
                tag_count: 6,
                seed: seed ^ 0x9e37,
            },
            bridge_links: bridges,
            seed,
        };
        let cg = Arc::new(generate_mixed(&cfg).seal());
        for config in [
            FlixConfig::Naive,
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 20 },
            FlixConfig::Monolithic(flix::StrategyKind::Apex),
        ] {
            let flix = Flix::build(cg.clone(), config);
            let report = flix.integrity_check();
            prop_assert!(
                report.is_ok(),
                "config {}: {}",
                config,
                report.err().map(|e| e.to_string()).unwrap_or_default()
            );
        }
    }
}
