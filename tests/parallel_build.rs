//! The parallel build must be invisible: whatever `build_threads` says, a
//! framework built over the same collection answers every query identically
//! and persists to byte-identical index blobs.

use flix::persist::save_flix;
use flix::{BuildOptions, Flix, FlixConfig, Query, QueryCtx, QueryOptions};
use pagestore::{BlobStore, BufferPool, MemDisk};
use std::sync::Arc;
use workloads::{connection_pairs, descendant_queries, generate_mixed, MixedConfig};
use xmlgraph::CollectionGraph;

/// A mixed workload: a tree region, a web (linked) region, and bridge
/// links between them, so every configuration exercises PPO and HOPI metas
/// plus a non-trivial runtime link table.
fn mixed_corpus() -> Arc<CollectionGraph> {
    let cfg = MixedConfig {
        trees: workloads::TreeConfig {
            documents: 40,
            elements_per_doc: 50,
            ..workloads::TreeConfig::default()
        },
        web: workloads::WebConfig {
            documents: 25,
            elements_per_doc: 40,
            ..workloads::WebConfig::default()
        },
        bridge_links: 8,
        seed: 11,
    };
    Arc::new(generate_mixed(&cfg).seal())
}

fn configs() -> Vec<FlixConfig> {
    vec![
        FlixConfig::Naive,
        FlixConfig::MaximalPpo,
        FlixConfig::UnconnectedHopi {
            partition_size: 300,
        },
        FlixConfig::Hybrid {
            partition_size: 300,
        },
    ]
}

fn store() -> BlobStore {
    BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 256)))
}

#[test]
fn parallel_build_is_byte_identical_to_sequential() {
    let cg = mixed_corpus();
    for config in configs() {
        let seq = Flix::build_with(
            cg.clone(),
            config,
            &BuildOptions {
                build_threads: 1,
                ..BuildOptions::default()
            },
        );
        let par = Flix::build_with(
            cg.clone(),
            config,
            &BuildOptions {
                build_threads: 4,
                ..BuildOptions::default()
            },
        );
        assert!(par.meta_count() > 1, "{config}: workload must fan out");

        let mut st_seq = store();
        let mut st_par = store();
        save_flix(&seq, &mut st_seq, "fw").unwrap();
        save_flix(&par, &mut st_par, "fw").unwrap();

        let mut names: Vec<String> = st_seq.names().iter().map(|s| s.to_string()).collect();
        let mut par_names: Vec<String> = st_par.names().iter().map(|s| s.to_string()).collect();
        names.sort();
        par_names.sort();
        assert_eq!(names, par_names, "{config}: same blob set");
        assert!(names.len() >= 3, "{config}: manifest + metas + report");

        for name in &names {
            if name == "fw/report" {
                // The report blob carries wall-clock timings; everything
                // that makes up the index must match byte for byte.
                continue;
            }
            let a = st_seq.get(name).unwrap().unwrap();
            let b = st_par.get(name).unwrap().unwrap();
            assert!(a == b, "{config}: blob {name} differs between builds");
        }
    }
}

#[test]
fn parallel_build_answers_queries_identically() {
    let cg = mixed_corpus();
    for config in configs() {
        let seq = Flix::build_with(
            cg.clone(),
            config,
            &BuildOptions {
                build_threads: 1,
                ..BuildOptions::default()
            },
        );
        let par = Flix::build_with(
            cg.clone(),
            config,
            &BuildOptions {
                build_threads: 4,
                ..BuildOptions::default()
            },
        );
        for q in descendant_queries(&cg, 25, 7) {
            for opts in [
                QueryOptions::default(),
                QueryOptions::top_k(5),
                QueryOptions::exact(),
            ] {
                let a = seq.find_descendants(q.start, q.target_tag, &opts);
                let b = par.find_descendants(q.start, q.target_tag, &opts);
                assert_eq!(a, b, "{config}: start {} tag {}", q.start, q.target_tag);
            }
        }
        for p in connection_pairs(&cg, 20, 13) {
            let query = Query::connection(p.from, p.to, false, QueryOptions::default());
            let a = seq.evaluate(&query, &mut QueryCtx::default());
            let b = par.evaluate(&query, &mut QueryCtx::default());
            let what = format!("{config}: connection {} -> {}", p.from, p.to);
            assert_eq!((a.results, a.timed_out), (b.results, b.timed_out), "{what}");
            assert_eq!(a.stats, b.stats, "{what}");
        }
    }
}

#[test]
fn parallel_build_report_reflects_pool_shape() {
    let cg = mixed_corpus();
    let par = Flix::build_with(
        cg.clone(),
        FlixConfig::Naive,
        &BuildOptions {
            build_threads: 4,
            ..BuildOptions::default()
        },
    );
    let report = par.build_report();
    assert_eq!(report.threads, 4.min(par.meta_count()));
    assert_eq!(report.per_meta.len(), par.meta_count());
    assert!(report.cpu_micros() >= report.critical_path_micros());
    assert!(
        report.total_micros >= report.indexing_micros,
        "stage timings nest inside the total"
    );
    // Sequential runs report one thread and a speedup of ~1 by definition.
    let seq = Flix::build_with(
        cg,
        FlixConfig::Naive,
        &BuildOptions {
            build_threads: 1,
            ..BuildOptions::default()
        },
    );
    assert_eq!(seq.build_report().threads, 1);
}
