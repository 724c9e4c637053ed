//! Path-expression-evaluator benchmarks: full descendants enumeration,
//! top-k early termination, and connection tests per FliX configuration —
//! the Figure-5 companion.

use bench::{figure5_start, figure5_tag, paper_configs, paper_corpus};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flix::{Flix, QueryOptions};
use std::sync::Arc;
use workloads::connection_pairs;

fn bench_pee(c: &mut Criterion) {
    let cg = paper_corpus(0.05);
    let start = figure5_start(&cg);
    let tag = figure5_tag(&cg);
    let pairs = connection_pairs(&cg, 8, 5);
    let frameworks: Vec<(String, Arc<Flix>)> = paper_configs()
        .into_iter()
        .map(|cfg| (cfg.to_string(), Arc::new(Flix::build(cg.clone(), cfg))))
        .collect();

    let mut group = c.benchmark_group("descendants_full");
    group.sample_size(20);
    for (name, flix) in &frameworks {
        group.bench_with_input(BenchmarkId::from_parameter(name), flix, |b, flix| {
            b.iter(|| {
                flix.find_descendants(start, tag, &QueryOptions::default())
                    .len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("descendants_top10");
    for (name, flix) in &frameworks {
        group.bench_with_input(BenchmarkId::from_parameter(name), flix, |b, flix| {
            b.iter(|| {
                flix.find_descendants(start, tag, &QueryOptions::top_k(10))
                    .len()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("connection_test");
    group.sample_size(20);
    for (name, flix) in &frameworks {
        group.bench_with_input(BenchmarkId::from_parameter(name), flix, |b, flix| {
            b.iter(|| {
                pairs
                    .iter()
                    .filter(|p| {
                        flix.connection_test(p.from, p.to, &QueryOptions::default())
                            .distance
                            .is_some()
                    })
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // short windows keep `cargo bench --workspace` to a few minutes
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_pee
}
criterion_main!(benches);
