//! Scaling behaviour: how world construction and the full static pipeline
//! grow with the population size. The paper's crawl covered 20,915 listings
//! over weeks of wall-clock; the reproduction covers the same population in
//! seconds because all waiting is virtual — this bench quantifies that.

use bench::{prepare_world, prepare_world_workers};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use synth::{build_ecosystem, EcosystemConfig};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/build_ecosystem");
    for n in [250usize, 1_000, 4_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                black_box(
                    build_ecosystem(&EcosystemConfig::test_scale(n, 8))
                        .truth
                        .bots
                        .len(),
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scaling/static_pipeline");
    group.sample_size(10);
    for n in [250usize, 1_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || (),
                |_| black_box(prepare_world(n, 8).bots.len()),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();

    // Worker-count sweep: the same static pipeline (pooled crawl units +
    // work-stealing analysis) over a fixed 1,000-bot world.
    let mut group = c.benchmark_group("scaling/static_pipeline_workers");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(1_000));
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter_batched(
                    || (),
                    |_| black_box(prepare_world_workers(1_000, 8, workers).bots.len()),
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
