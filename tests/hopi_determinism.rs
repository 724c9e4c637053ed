//! HOPI's one-sweep cover is exact on graphs with cycles and links, and a
//! monolithic HOPI framework build is deterministic: two builds serialize
//! to byte-identical blobs, and a one-meta plan runs one worker whatever
//! `build_threads` asks for. Partitioned HOPI, whose builds do run several
//! workers, is `tests/parallel_build.rs`'s.

use flix::persist::save_flix;
use flix::{BuildOptions, Flix, FlixConfig, StrategyKind};
use graphcore::{Digraph, NodeId};
use hopi::HopiIndex;
use pagestore::{BlobStore, BufferPool, MemDisk};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workloads::{generate_dblp, DblpConfig};

/// A DBLP-style collection: mostly isolated publication trees with a
/// citation-linked minority — the paper's headline workload.
fn dblp_graph() -> (Digraph, Vec<u32>) {
    let cg = generate_dblp(&DblpConfig {
        documents: 120,
        ..DblpConfig::default()
    })
    .seal();
    let labels: Vec<u32> = (0..cg.node_count() as NodeId)
        .map(|u| cg.tag_of(u))
        .collect();
    (cg.graph, labels)
}

/// A random cyclic graph: dense enough that large SCCs form and many
/// sweeps are pruned by earlier centers.
fn random_cyclic_graph(n: usize, edges: usize, seed: u64) -> (Digraph, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edge_list: Vec<(u32, u32)> = (0..edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    let labels: Vec<u32> = (0..n as u32).map(|u| u % 5).collect();
    (Digraph::from_edges(n, edge_list), labels)
}

#[test]
fn dblp_workload_cover_is_exact() {
    let (g, labels) = dblp_graph();
    assert!(g.node_count() > 200, "workload too small to be meaningful");
    let (idx, _) = HopiIndex::build(&g, &labels);
    idx.verify_against_graph(&g, 12).unwrap();
}

#[test]
fn random_cyclic_workload_cover_is_exact() {
    let (g, labels) = random_cyclic_graph(400, 900, 0xD5EE);
    let (idx, _) = HopiIndex::build(&g, &labels);
    idx.verify_against_graph(&g, 10).unwrap();
}

#[test]
fn monolithic_hopi_framework_is_deterministic_and_clamps_to_one_thread() {
    let cg = Arc::new(
        generate_dblp(&DblpConfig {
            documents: 80,
            ..DblpConfig::default()
        })
        .seal(),
    );
    let build = |threads| {
        Flix::build_with(
            cg.clone(),
            FlixConfig::Monolithic(StrategyKind::Hopi),
            &BuildOptions {
                build_threads: threads,
                ..BuildOptions::default()
            },
        )
    };
    let store = || BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256)));
    let mut base_store = store();
    save_flix(&build(1), &mut base_store, "fw").unwrap();
    let mut names: Vec<String> = base_store.names().iter().map(|s| s.to_string()).collect();
    names.sort();
    let flix = build(8);
    // A monolithic plan has one meta, so the pool runs one worker.
    assert_eq!(flix.meta_count(), 1);
    assert_eq!(flix.build_report().threads, 1, "outer pool stays at one");
    let mut st = store();
    save_flix(&flix, &mut st, "fw").unwrap();
    let mut got: Vec<String> = st.names().iter().map(|s| s.to_string()).collect();
    got.sort();
    assert_eq!(names, got, "same blob set");
    for name in &names {
        if name == "fw/report" {
            continue; // wall-clock timings differ run to run
        }
        let a = base_store.get(name).unwrap().unwrap();
        let b = st.get(name).unwrap().unwrap();
        assert!(a == b, "blob {name} differs");
    }
}
