//! Property-based tests over the core data structures and invariants.

use graphcore::{
    bfs_distances, is_forest, partition_greedy, spanning_forest, tarjan_scc, Axis, Digraph,
    DistanceOracle, TransitiveClosure, INFINITE_DISTANCE,
};
use hopi::HopiIndex;
use ppo::PpoIndex;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

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
    // deterministic pseudo-labels are enough: variety without extra strategy
    (0..g.node_count() as u32)
        .map(|u| (u * 7 + 3) % tags)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hopi_matches_oracle_on_random_graphs(g in arb_graph(40, 120)) {
        let labels = arb_labels(&g, 5);
        let idx = HopiIndex::build(&g, &labels);
        let oracle = DistanceOracle::new(&g);
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                let want = oracle.distance(u, v);
                let got = idx.distance(u, v).unwrap_or(INFINITE_DISTANCE);
                prop_assert_eq!(got, want, "distance {} -> {}", u, v);
            }
        }
    }

    #[test]
    fn staged_hopi_cover_matches_oracle_across_partitions(
        g in arb_graph(40, 120),
        cap in 2usize..10,
        threads in 1usize..5,
    ) {
        // Tiny partition caps guarantee the staged pipeline's merge stage
        // (border sweeps over partition-crossing edges) does real work:
        // correctness of the merged cover is exactly what's under test.
        let labels = arb_labels(&g, 5);
        let opts = hopi::CoverOptions {
            threads,
            partition_cap: cap,
        };
        let (idx, report) = HopiIndex::build_staged(&g, &labels, &opts);
        let tc = TransitiveClosure::build(&g);
        let oracle = DistanceOracle::new(&g);
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                prop_assert_eq!(
                    idx.distance(u, v).is_some(), tc.reaches(u, v),
                    "reach {} -> {} (cap {}, {} partitions, {} borders)",
                    u, v, cap, report.partitions, report.border_centers
                );
                let want = oracle.distance(u, v);
                let got = idx.distance(u, v).unwrap_or(INFINITE_DISTANCE);
                prop_assert_eq!(got, want, "distance {} -> {} (cap {})", u, v, cap);
            }
        }
    }

    #[test]
    fn hopi_descendants_sorted_and_complete(g in arb_graph(30, 80)) {
        // one label for every node: the block of that label is every
        // descendant
        let idx = HopiIndex::build(&g, &vec![0; g.node_count()]);
        let tc = TransitiveClosure::build(&g);
        for u in 0..g.node_count() as u32 {
            let everything = Some((0, true));
            let (d, _) = graphcore::filled(|out| {
                idx.answer_into(Axis::Descendants, u, everything, None, out, &mut vec![])
            });
            prop_assert!(d.windows(2).all(|w| w[0].1 <= w[1].1), "unsorted from {}", u);
            let mut nodes: Vec<u32> = d.iter().map(|&(v, _)| v).collect();
            nodes.sort_unstable();
            prop_assert_eq!(nodes, tc.descendants(u), "set from {}", u);
        }
    }

    #[test]
    fn ppo_matches_closure_on_forests(g in arb_forest(60)) {
        let labels = arb_labels(&g, 6);
        // The index knows the forest's nodes by preorder rank: rank `r` is
        // node `order[r]`.
        let (idx, order) = PpoIndex::build(&g, &labels);
        prop_assert!(idx.removed_edges().is_empty(), "a forest loses no edge");
        let tc = TransitiveClosure::build(&g);
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                prop_assert_eq!(
                    idx.distance(u, v).is_some(),
                    tc.reaches(order[u as usize], order[v as usize]),
                    "{} -> {}", u, v
                );
            }
        }
    }

    #[test]
    fn extended_ppo_plus_removed_edges_cover_graph(g in arb_graph(30, 60)) {
        // forest reachability + removed edges as extra hops must equal the
        // full reachability of the graph (one BFS over a hybrid relation);
        // the index and its removed edges know node `order[r]` as `r`
        let (x, order) = PpoIndex::build(&g, &arb_labels(&g, 3));
        let tc = TransitiveClosure::build(&g);
        for u in 0..g.node_count() as u32 {
            // closure over: forest-descendants + removed-edge jumps
            let mut seen: Vec<bool> = vec![false; g.node_count()];
            let mut stack = vec![u];
            while let Some(x0) = stack.pop() {
                if seen[x0 as usize] { continue; }
                seen[x0 as usize] = true;
                for v in 0..g.node_count() as u32 {
                    if !seen[v as usize] && x.distance(x0, v).is_some() {
                        stack.push(v);
                    }
                }
                for &(s, t) in x.removed_edges() {
                    if x.distance(x0, s).is_some() && !seen[t as usize] {
                        stack.push(t);
                    }
                }
            }
            for v in 0..g.node_count() as u32 {
                let reaches = tc.reaches(order[u as usize], order[v as usize]);
                prop_assert_eq!(seen[v as usize], reaches, "{} -> {}", u, v);
            }
        }
    }

    #[test]
    fn spanning_forest_removal_is_sound(g in arb_graph(50, 150)) {
        let check = spanning_forest(&g);
        let kept: Vec<(u32, u32)> = g
            .edges()
            .filter(|e| !check.removed_edges.contains(e))
            .collect();
        let pruned = Digraph::from_edges(g.node_count(), kept);
        prop_assert!(is_forest(&pruned));
        prop_assert_eq!(check.is_forest, check.removed_edges.is_empty());
    }

    #[test]
    fn partitioning_is_exact_cover(g in arb_graph(80, 200), cap in 1usize..40) {
        let p = partition_greedy(&g, cap);
        let mut seen = vec![false; g.node_count()];
        for (pid, block) in p.parts.iter().enumerate() {
            prop_assert!(!block.is_empty());
            prop_assert!(block.len() <= cap, "partition {} over cap", pid);
            for &u in block {
                prop_assert_eq!(p.part_of[u as usize] as usize, pid);
                prop_assert!(!seen[u as usize], "node {} assigned twice", u);
                seen[u as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let cut = g
            .edges()
            .filter(|&(u, v)| p.part_of[u as usize] != p.part_of[v as usize])
            .count();
        prop_assert_eq!(cut, p.cut_edges);
    }

    #[test]
    fn scc_ids_consistent_with_mutual_reachability(g in arb_graph(25, 80)) {
        let comp = tarjan_scc(&g);
        let tc = TransitiveClosure::build(&g);
        for u in 0..g.node_count() as u32 {
            for v in 0..g.node_count() as u32 {
                let mutual = tc.reaches(u, v) && tc.reaches(v, u);
                prop_assert_eq!(mutual, comp[u as usize] == comp[v as usize]);
            }
        }
    }

    #[test]
    fn closure_agrees_with_bfs(g in arb_graph(40, 100)) {
        let tc = TransitiveClosure::build(&g);
        for u in 0..g.node_count() as u32 {
            let dist = bfs_distances(&g, u);
            for v in 0..g.node_count() as u32 {
                prop_assert_eq!(tc.reaches(u, v), dist[v as usize] != INFINITE_DISTANCE);
            }
        }
    }

    #[test]
    fn counted_ancestor_lookups_cover_returned_results(g in arb_graph(30, 80)) {
        // Work accounting must be symmetric with the descendants axis: the
        // counted variant agrees with the plain one and never reports less
        // work than results returned, for every backend.
        use flix::{MetaIndex, StrategyKind};
        let labels = arb_labels(&g, 4);
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            let mut nodes: Vec<u32> = (0..g.node_count() as u32).collect();
            let (idx, ..) = MetaIndex::build(kind, &g, &labels, &mut nodes, 1);
            for u in 0..g.node_count() as u32 {
                for label in 0..4u32 {
                    for include_self in [false, true] {
                        let plain = idx.ancestors_by_label(u, label, include_self);
                        let (counted, work) =
                            idx.ancestors_by_label_counted(u, label, include_self);
                        prop_assert_eq!(
                            &plain, &counted,
                            "{:?}: ancestors of {} with label {}", kind, u, label
                        );
                        prop_assert!(
                            work >= counted.len(),
                            "{:?}: {} results but only {} lookups charged for {} / {}",
                            kind, counted.len(), work, u, label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn link_anchor_lookups_match_the_distance_scan(
        g in arb_graph(30, 80),
        picks in proptest::collection::vec(any::<bool>(), 60),
    ) {
        // Every access path behind Fig. 4's per-pop step, both axes, against
        // the brute-force reference: probe every anchor with `distance`. One
        // answer is reused for every pop of all three strategies, as the
        // evaluator reuses its own: a longer earlier answer must not show
        // through a shorter later one.
        use flix::{MetaDocument, MetaIndex, PopAnswer, StrategyKind};
        let mut pop = PopAnswer::default();
        let labels = arb_labels(&g, 4);
        let n = g.node_count() as u32;
        let subset = |offset: usize| -> Vec<u32> {
            (0..n).filter(|&v| picks[v as usize + offset]).collect()
        };
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            // Under PPO the locals are preorder ranks and `nodes` follows:
            // the elements no longer ascend with the locals.
            let mut nodes: Vec<u32> = (0..n).collect();
            let (index, ..) = MetaIndex::build(kind, &g, &labels, &mut nodes, 1);
            let mut md = MetaDocument::new(nodes, index);
            md.set_anchors(subset(0), subset(30));
            prop_assert_eq!(md.link_sources().len(), subset(0).len());
            let scan = |anchors: &[u32], dist: &dyn Fn(u32) -> Option<u32>| {
                let mut out: Vec<(u32, u32)> =
                    anchors.iter().filter_map(|&a| dist(a).map(|d| (a, d))).collect();
                out.sort_unstable_by_key(|&(v, d)| (d, v));
                out
            };
            for e in 0..n {
                let below = scan(md.link_sources(), &|s| md.index.distance(e, s));
                let above = scan(md.link_targets(), &|t| md.index.distance(t, e));
                prop_assert_eq!(&md.reachable_link_sources(e), &below, "{:?} below {}", kind, e);
                prop_assert_eq!(&md.reaching_link_targets(e), &above, "{:?} above {}", kind, e);
                for label in 0..4u32 {
                    for include_self in [false, true] {
                        let (mut block, work) =
                            md.index.descendants_by_label_counted(e, label, include_self);
                        if kind == StrategyKind::Ppo {
                            // a pop orders equal distances by element
                            block.sort_unstable_by_key(|&(v, d)| (d, md.nodes[v as usize]));
                        }
                        let links = below.clone();
                        md.answer_pop(Axis::Descendants, e, label, include_self, None, &mut pop);
                        prop_assert_eq!(
                            &pop,
                            &PopAnswer { block, work, links, partial: false },
                            "{:?} down from {} label {}", kind, e, label
                        );
                        let (block, work) =
                            md.index.ancestors_by_label_counted(e, label, include_self);
                        let links = above.clone();
                        md.answer_pop(Axis::Ancestors, e, label, include_self, None, &mut pop);
                        prop_assert_eq!(
                            &pop,
                            &PopAnswer { block, work, links, partial: false },
                            "{:?} up from {} label {}", kind, e, label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_across_indexes_matches_fresh_threads(
        small in arb_graph(12, 30),
        large in arb_graph(40, 120),
    ) {
        // HOPI and APEX keep one traversal scratch per thread, shared by all
        // their indexes. Alternating between two indexes of different sizes
        // on this thread must answer like a thread that only ever saw one.
        use apex::ApexIndex;
        use std::sync::Arc;
        type Pairs = Vec<(u32, u32)>;
        fn hopi_answers(i: &HopiIndex, u: u32) -> [(Pairs, usize, Pairs); 3] {
            let answer = |axis, block| {
                let (mut carrying, mut links) = (Vec::new(), Vec::new());
                let (work, _) = i.answer_into(axis, u, block, None, &mut carrying, &mut links);
                (carrying, work, links)
            };
            [
                answer(Axis::Descendants, Some((0, true))),
                answer(Axis::Ancestors, Some((2, false))),
                answer(Axis::Descendants, Some((1, false))),
            ]
        }
        fn apex_answers(i: &ApexIndex, u: u32) -> (Pairs, Pairs, (Pairs, usize), Option<u32>) {
            let anchors: Vec<u32> = (0..i.summary().class_of.len() as u32).step_by(2).collect();
            let among = |axis| graphcore::filled(|out| i.among_into(axis, u, &anchors, out)).0;
            (
                among(Axis::Descendants),
                among(Axis::Ancestors),
                graphcore::filled(|out| i.block_into(Axis::Descendants, u, 1, true, out)),
                i.distance(u, 0),
            )
        }
        fn on_a_fresh_thread<I: Send + Sync + 'static, A: Send + 'static>(
            index: &Arc<I>,
            n: usize,
            answers: fn(&I, u32) -> A,
        ) -> Vec<A> {
            let index = Arc::clone(index);
            std::thread::spawn(move || (0..n as u32).map(|u| answers(&index, u)).collect())
                .join()
                .expect("reference thread")
        }
        let graphs = [&small, &large];
        let sizes = graphs.map(Digraph::node_count);
        let hopi = graphs.map(|g| {
            let mut index = HopiIndex::build(g, &arb_labels(g, 3));
            let anchors: Vec<u32> = (0..g.node_count() as u32).step_by(2).collect();
            index.set_anchors(&anchors, &[]);
            Arc::new(index)
        });
        let apex = graphs.map(|g| Arc::new(ApexIndex::build(g, &arb_labels(g, 3), 1)));
        let hopi_fresh = [0, 1].map(|k| on_a_fresh_thread(&hopi[k], sizes[k], hopi_answers));
        let apex_fresh = [0, 1].map(|k| on_a_fresh_thread(&apex[k], sizes[k], apex_answers));
        for step in 0..sizes[1] {
            for k in [1, 0] {
                let u = (step % sizes[k]) as u32;
                prop_assert_eq!(&hopi_answers(&hopi[k], u), &hopi_fresh[k][u as usize]);
                prop_assert_eq!(&apex_answers(&apex[k], u), &apex_fresh[k][u as usize]);
            }
        }
    }

    #[test]
    fn label_blocks_match_the_distance_scan(g in arb_graph(30, 80)) {
        // The counted block lookups of every strategy against the same
        // reference: every element carrying the label, probed by `distance`.
        use flix::{MetaIndex, StrategyKind};
        let labels = arb_labels(&g, 4);
        let n = g.node_count() as u32;
        for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
            // local `v` is node `nodes[v]` of `g`, and carries its label
            let mut nodes: Vec<u32> = (0..n).collect();
            let (idx, ..) = MetaIndex::build(kind, &g, &labels, &mut nodes, 1);
            let label_of = |v: u32| labels[nodes[v as usize] as usize];
            for e in 0..n {
                for label in 0..4u32 {
                    for include_self in [false, true] {
                        let scan = |dist: &dyn Fn(u32) -> Option<u32>| {
                            let mut out: Vec<(u32, u32)> = (0..n)
                                .filter(|&v| label_of(v) == label && (include_self || v != e))
                                .filter_map(|v| dist(v).map(|d| (v, d)))
                                .collect();
                            out.sort_unstable_by_key(|&(v, d)| (d, v));
                            out
                        };
                        let by_distance = |mut block: Vec<(u32, u32)>| {
                            // every strategy promises ascending distance; only
                            // the order inside one distance is its own
                            assert!(block.windows(2).all(|w| w[0].1 <= w[1].1));
                            block.sort_unstable_by_key(|&(v, d)| (d, v));
                            block
                        };
                        let (down, work) = idx.descendants_by_label_counted(e, label, include_self);
                        prop_assert!(work >= down.len());
                        prop_assert_eq!(
                            by_distance(down), scan(&|v| idx.distance(e, v)),
                            "{:?} down from {} label {}", kind, e, label
                        );
                        let (up, work) = idx.ancestors_by_label_counted(e, label, include_self);
                        prop_assert!(work >= up.len());
                        prop_assert_eq!(
                            by_distance(up), scan(&|v| idx.distance(v, e)),
                            "{:?} up from {} label {}", kind, e, label
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn codec_round_trips_nested_values(
        v in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u16>(), 0..8), any::<Option<String>>()),
            0..16,
        )
    ) {
        let bytes = pagestore::to_bytes(&v).unwrap();
        let back: Vec<(u32, Vec<u16>, Option<String>)> = pagestore::from_bytes(&bytes).unwrap();
        prop_assert_eq!(v, back);
    }

    /// A written chunk reads back exactly, and with a random 8-byte header
    /// written over it the page reads as that chunk or as none: never past
    /// the frame, never into the header. (A random header that describes
    /// another well-formed chunk is a draw of about 2⁻⁵⁰.)
    #[test]
    fn a_page_reads_its_chunk_or_none(
        chunk in proptest::collection::vec(any::<u8>(), 0..=pagestore::PAGE_SIZE - 8),
        header in proptest::collection::vec(any::<u8>(), 8),
    ) {
        let page = pagestore::Page::holding(&chunk).unwrap();
        prop_assert_eq!(page.chunk(), Some(chunk.as_slice()));
        let mut bytes = page.bytes().to_vec();
        bytes[..8].copy_from_slice(&header);
        let damaged = pagestore::Page::from_bytes(bytes);
        prop_assert!(damaged.chunk().is_none_or(|got| got == chunk.as_slice()));
    }
}

/// Two arrays as a persisted index holds them — one byte string each
/// ([`graphcore::flat`]) — and a field behind them, so an array that ate
/// too much or too little shows.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct FlatArrays {
    #[serde(with = "graphcore::flat")]
    singles: Vec<u32>,
    #[serde(with = "graphcore::flat")]
    pairs: Vec<(u32, u32)>,
    tail: u8,
}

/// The same fields through the derive alone, element by element: the
/// oracle, and what every build before the flat arrays wrote.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct PerElementArrays {
    singles: Vec<u32>,
    pairs: Vec<(u32, u32)>,
    tail: u8,
}

/// The bits of `max`, at least one: the width a lane holding it packs at.
fn bits(max: u32) -> u8 {
    (32 - max.leading_zeros()).max(1) as u8
}

/// The image of `singles` and `pairs` round-trips, decodes to what their
/// per-element image decodes to, and is laid out as [`graphcore::flat`]
/// says: per array a `u64` byte count, the element count, one width byte
/// per lane — the bits of the lane's largest value — and each lane's
/// `ceil(count·width / 8)` packed bytes. Returns the image's length.
fn check_flat_against_per_element(singles: Vec<u32>, pairs: Vec<(u32, u32)>) -> usize {
    let (s, p) = (singles.len(), pairs.len());
    let width = |lane: &mut dyn Iterator<Item = u32>| bits(lane.max().unwrap_or(0));
    let widths = [
        width(&mut singles.iter().copied()),
        width(&mut pairs.iter().map(|e| e.0)),
        width(&mut pairs.iter().map(|e| e.1)),
    ];
    let twin = PerElementArrays {
        singles: singles.clone(),
        pairs: pairs.clone(),
        tail: 0xA5,
    };
    let flat = FlatArrays {
        singles,
        pairs,
        tail: 0xA5,
    };
    let bytes = pagestore::to_bytes(&flat).unwrap();
    let back: FlatArrays = pagestore::from_bytes(&bytes).unwrap();
    assert_eq!(back, flat);
    let twin_bytes = pagestore::to_bytes(&twin).unwrap();
    let twin_back: PerElementArrays = pagestore::from_bytes(&twin_bytes).unwrap();
    assert_eq!(
        (&back.singles, &back.pairs, back.tail),
        (&twin_back.singles, &twin_back.pairs, twin_back.tail)
    );
    let lane = |count: usize, width: u8| (count * usize::from(width)).div_ceil(8);
    let first = 4 + 1 + lane(s, widths[0]);
    let second = 4 + 2 + lane(p, widths[1]) + lane(p, widths[2]);
    let prefix = |n: usize| (n as u64).to_le_bytes();
    assert_eq!(bytes[..8], prefix(first));
    assert_eq!(bytes[8..12], (s as u32).to_le_bytes());
    assert_eq!(bytes[12], widths[0]);
    let at = 8 + first;
    assert_eq!(bytes[at..at + 8], prefix(second));
    assert_eq!(bytes[at + 8..at + 12], (p as u32).to_le_bytes());
    assert_eq!(bytes[at + 12..at + 14], widths[1..]);
    assert_eq!(bytes.len(), at + 8 + second + 1);
    bytes.len()
}

#[test]
fn flat_arrays_at_the_edges_of_their_range() {
    let ramp = |n: u32| {
        (0..n)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect::<Vec<_>>()
    };
    let zip = |a: Vec<u32>| a.iter().map(|&x| (x, !x)).collect::<Vec<_>>();
    // Two byte counts, two element counts, three width bytes and the tail:
    // 28 bytes around the packed lanes; an empty lane packs at width 1.
    assert_eq!(check_flat_against_per_element(vec![], vec![]), 28);
    // 7 is 3 bits, 9 is 4: a byte each.
    assert_eq!(check_flat_against_per_element(vec![7], vec![]), 28 + 1);
    assert_eq!(check_flat_against_per_element(vec![], vec![(7, 9)]), 28 + 2);
    // `u32::MAX` takes all 32 bits, and 0 beside it as many.
    assert_eq!(
        check_flat_against_per_element(
            vec![u32::MAX, 0, u32::MAX],
            vec![(u32::MAX, 0), (0, u32::MAX)],
        ),
        28 + 3 * 4 + 2 * 8
    );
    // The ramp reaches past 2^31 in both lanes: four bytes an element.
    assert_eq!(
        check_flat_against_per_element(ramp(100_000), zip(ramp(100_000))),
        28 + 100_000 * 4 + 100_000 * 8
    );
}

/// One flat `u32` array and nothing else: `prefix` as its byte count, then
/// `payload`.
fn lone_flat_array(prefix: u64, payload: &[u8]) -> Result<Vec<u32>, pagestore::CodecError> {
    #[derive(Debug, Deserialize)]
    struct Lone {
        #[serde(with = "graphcore::flat")]
        array: Vec<u32>,
    }
    let image = [&prefix.to_le_bytes()[..], payload].concat();
    pagestore::from_bytes::<Lone>(&image).map(|lone| lone.array)
}

/// A `u32` array's byte string: `count`, the width byte `width`, then
/// `packed`.
fn packed_array(count: u32, width: u8, packed: &[u8]) -> Vec<u8> {
    [&count.to_le_bytes()[..], &[width], packed].concat()
}

/// A lone array whose byte string is `payload`, prefixed with its length.
fn lone(payload: &[u8]) -> Result<Vec<u32>, pagestore::CodecError> {
    lone_flat_array(payload.len() as u64, payload)
}

/// A byte string too short for a count and a width, a width outside
/// `1..=32`, packed lanes a byte shorter or longer than the count and the
/// widths say, and a count no input could hold are each an error — raised
/// from the header and the input's length, before the claimed count could
/// be allocated (`u32::MAX` elements at width 1 are 512 MiB of packed bits;
/// as `u32`s, 16 GiB). A byte count past the end of the input is the
/// codec's own error.
#[test]
fn malformed_flat_arrays_are_decode_errors() {
    // 1 and 2 at two bits each: 0b10_01.
    let two = packed_array(2, 2, &[0b1001]);
    assert_eq!(lone(&two).unwrap(), [1, 2]);
    let fault = |payload: &[u8], says: &str| {
        let err = lone(payload).unwrap_err().to_string();
        assert!(err.contains(says), "{says}: {err}");
    };
    for short in [&[][..], &[2, 0, 0, 0], &two[..3]] {
        fault(short, "holds no count and 1 lane widths");
    }
    for width in [0, 33, 255] {
        fault(&packed_array(2, width, &[0b1001]), "outside 1..=32");
    }
    fault(
        &packed_array(2, 2, &[]),
        "2 elements at widths [2] pack into 1 bytes, not 0",
    );
    fault(
        &packed_array(2, 2, &[0b1001, 0]),
        "pack into 1 bytes, not 2",
    );
    fault(&packed_array(9, 1, &[0xFF]), "pack into 2 bytes, not 1");
    fault(
        &packed_array(u32::MAX, 1, &[0xFF, 0xFF]),
        "4294967295 elements at widths [1] pack into 536870912 bytes, not 2",
    );
    fault(
        &packed_array(u32::MAX, 32, &[0xFF, 0xFF]),
        "pack into 17179869180 bytes, not 2",
    );
    for prefix in [u64::MAX, u64::MAX - 3, two.len() as u64 + 1, 64] {
        let err = lone_flat_array(prefix, &two).unwrap_err();
        assert!(err.to_string().contains("unexpected end of input"), "{err}");
    }
}

/// Every proper prefix of a real meta-document image — one per strategy —
/// is a decode error, never a panic and never a value.
#[test]
fn truncated_meta_document_images_are_decode_errors() {
    use flix::{MetaDocument, MetaIndex, StrategyKind};
    let g = Digraph::from_edges(
        24,
        (1..24u32)
            .map(|i| (i / 2, i))
            .chain([(20, 3), (17, 5), (9, 22)]),
    );
    let labels = arb_labels(&g, 4);
    for kind in [StrategyKind::Ppo, StrategyKind::Hopi, StrategyKind::Apex] {
        let mut nodes: Vec<u32> = (100..124).collect();
        let (index, ..) = MetaIndex::build(kind, &g, &labels, &mut nodes, 1);
        let mut md = MetaDocument::new(nodes, index);
        md.set_anchors(vec![3, 11, 20], vec![5, 22]);
        let image = pagestore::to_bytes(&md).unwrap();
        let back: MetaDocument = pagestore::from_bytes(&image).unwrap();
        assert_eq!(pagestore::to_bytes(&back).unwrap(), image, "{kind}");
        for cut in 0..image.len() {
            let cut_short = pagestore::from_bytes::<MetaDocument>(&image[..cut]);
            assert!(cut_short.is_err(), "{kind}: {cut} of {} bytes", image.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Both element kinds at every width from 1 to 32, and every count
    /// from 0 to 17 and either side of a multiple of 8: each array
    /// round-trips to the plain `Vec` it was and is laid out as
    /// [`graphcore::flat`] says. A lane's largest value has its top bit
    /// set, so it packs at exactly that width.
    #[test]
    fn flat_arrays_round_trip_and_match_the_per_element_codec(
        seed in any::<u64>(),
        k in 3usize..64,
    ) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 31)) as u32
        };
        for width in 1..=32u32 {
            let top = u32::MAX >> (32 - width);
            let pair_width = 33 - width;
            let pair_top = u32::MAX >> (32 - pair_width);
            for count in (0..=17).chain([8 * k - 1, 8 * k + 1]) {
                let mut singles: Vec<u32> = (0..count).map(|_| next() & top).collect();
                let mut pairs: Vec<(u32, u32)> =
                    (0..count).map(|_| (next() & top, next() & pair_top)).collect();
                if count > 0 {
                    let at = next() as usize % count;
                    singles[at] = top;
                    pairs[at].0 = top;
                    pairs[count - 1 - at].1 = pair_top;
                }
                check_flat_against_per_element(singles, pairs);
            }
        }
    }
}
