//! The staged HOPI cover pipeline must be deterministic: whatever the
//! thread count, the built index serializes to the byte-identical image
//! (blob-level, mirroring `tests/parallel_build.rs` for the framework).

use flix::persist::save_flix;
use flix::{BuildOptions, Flix, FlixConfig, StrategyKind};
use graphcore::{Digraph, NodeId};
use hopi::{CoverOptions, HopiIndex};
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

/// A random cyclic graph: dense enough that SCCs form and the condensation
/// partitioning, border sweeps, and local covers all do real work.
fn random_cyclic_graph(n: usize, edges: usize, seed: u64) -> (Digraph, Vec<u32>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let edge_list: Vec<(u32, u32)> = (0..edges)
        .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
        .collect();
    let labels: Vec<u32> = (0..n as u32).map(|u| u % 5).collect();
    (Digraph::from_edges(n, edge_list), labels)
}

/// Builds at every thread count and asserts the serialized images are
/// byte-identical; returns the 1-thread build for further checks.
fn assert_thread_invariant(
    g: &Digraph,
    labels: &[u32],
    cap: usize,
) -> (HopiIndex, hopi::StageReport) {
    let opts = |threads| CoverOptions {
        threads,
        partition_cap: cap,
    };
    let (base, report) = HopiIndex::build_staged(g, labels, &opts(1));
    let base_image = pagestore::to_bytes(&base).unwrap();
    for threads in [2usize, 4, 8] {
        let (idx, other_report) = HopiIndex::build_staged(g, labels, &opts(threads));
        let image = pagestore::to_bytes(&idx).unwrap();
        assert!(
            image == base_image,
            "index image diverged at {threads} threads ({} vs {} bytes)",
            image.len(),
            base_image.len()
        );
        // Everything in the report except wall clock is shape, and shape
        // must not depend on the thread count either.
        assert_eq!(report.partitions, other_report.partitions);
        assert_eq!(report.border_centers, other_report.border_centers);
    }
    (base, report)
}

#[test]
fn dblp_workload_serializes_identically_across_thread_counts() {
    let (g, labels) = dblp_graph();
    assert!(g.node_count() > 200, "workload too small to be meaningful");
    // A small cap forces the multi-partition path: border merge + parallel
    // local covers, not the single-partition degenerate case.
    let (idx, report) = assert_thread_invariant(&g, &labels, 64);
    assert!(report.partitions > 1, "cap must force multiple partitions");
    idx.verify_against_graph(&g, 12).unwrap();
}

#[test]
fn random_cyclic_workload_serializes_identically_across_thread_counts() {
    let (g, labels) = random_cyclic_graph(400, 900, 0xD5EE);
    let (idx, report) = assert_thread_invariant(&g, &labels, 50);
    assert!(report.partitions > 1, "cap must force multiple partitions");
    assert!(
        report.border_centers > 0,
        "a dense cyclic graph must have partition-crossing edges"
    );
    idx.verify_against_graph(&g, 10).unwrap();
}

#[test]
fn monolithic_hopi_framework_blobs_identical_across_build_threads() {
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
    for threads in [2usize, 8] {
        let flix = build(threads);
        // A monolithic plan has one meta: the whole budget goes to HOPI's
        // intra-build stage, and the report must say so.
        assert_eq!(flix.meta_count(), 1);
        assert_eq!(flix.build_report().threads, 1, "outer pool stays at one");
        let stages = flix
            .build_report()
            .hopi_stage_totals()
            .expect("monolithic HOPI must report stage timings");
        assert_eq!(stages.threads, threads.min(stages.partitions.max(1)));
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        let mut got: Vec<String> = st.names().iter().map(|s| s.to_string()).collect();
        got.sort();
        assert_eq!(names, got, "{threads} threads: same blob set");
        for name in &names {
            if name == "fw/report" {
                continue; // wall-clock timings differ run to run
            }
            let a = base_store.get(name).unwrap().unwrap();
            let b = st.get(name).unwrap().unwrap();
            assert!(a == b, "{threads} threads: blob {name} differs");
        }
    }
}
