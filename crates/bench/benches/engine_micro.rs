//! Micro-benchmarks of the exact engine's building blocks: the
//! subset-probability DP primitives and the three pruning-rule
//! configurations. These are ablations for the design choices DESIGN.md
//! calls out (prefix sharing, pruning, the early-exit bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ptk_access::ViewSource;
use ptk_datagen::{SyntheticConfig, SyntheticDataset};
use ptk_engine::{dp, evaluate_ptk, EngineOptions, PtkExecutor, PtkPlan, SharingVariant};

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_primitives");
    let probs: Vec<f64> = (0..1000)
        .map(|i| (i as f64 * 0.37).fract().max(0.01))
        .collect();
    for k in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("poisson_binomial_1000", k), &k, |b, &k| {
            b.iter(|| dp::poisson_binomial(black_box(probs.iter().copied()), k))
        });
    }
    let row = dp::poisson_binomial(probs.iter().copied(), 200);
    group.bench_function("convolve_k200", |b| {
        b.iter(|| dp::convolve(black_box(&row), 0.42))
    });
    group.bench_function("deconvolve_k200", |b| {
        let with = dp::convolve(&row, 0.42);
        b.iter(|| dp::deconvolve(black_box(&with), 0.42))
    });
    group.finish();
}

fn bench_pruning_ablation(c: &mut Criterion) {
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        tuples: 5_000,
        rules: 500,
        seed: 7,
        ..Default::default()
    });
    let mut group = c.benchmark_group("pruning_ablation");
    group.sample_size(10);
    group.bench_function("pruning_on", |b| {
        b.iter(|| evaluate_ptk(black_box(&ds.view), 100, 0.3, &EngineOptions::default()))
    });
    group.bench_function("pruning_off_full_scan", |b| {
        b.iter(|| {
            evaluate_ptk(
                black_box(&ds.view),
                100,
                0.3,
                &EngineOptions::without_pruning(SharingVariant::Lazy),
            )
        })
    });
    group.finish();
}

fn bench_ub_interval_ablation(c: &mut Criterion) {
    // The early-exit bound costs O(|pool|·k) per check; this ablation shows
    // the sweet spot between checking too often and stopping too late.
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        tuples: 5_000,
        rules: 500,
        seed: 7,
        ..Default::default()
    });
    let mut group = c.benchmark_group("ub_check_interval");
    group.sample_size(10);
    for interval in [1usize, 8, 64, 512] {
        group.bench_with_input(
            BenchmarkId::from_parameter(interval),
            &interval,
            |b, &interval| {
                let options = EngineOptions {
                    ub_check_interval: interval,
                    ..Default::default()
                };
                b.iter(|| evaluate_ptk(black_box(&ds.view), 100, 0.6, &options))
            },
        );
    }
    group.finish();
}

fn bench_stream_vs_materialized(c: &mut Criterion) {
    // The streaming engine pays for incremental rule discovery; this group
    // quantifies the overhead against the view-based engine on the same
    // query.
    let ds = SyntheticDataset::generate(&SyntheticConfig {
        tuples: 5_000,
        rules: 500,
        seed: 7,
        ..Default::default()
    });
    let mut group = c.benchmark_group("stream_vs_materialized");
    group.sample_size(10);
    group.bench_function("materialized", |b| {
        b.iter(|| evaluate_ptk(black_box(&ds.view), 100, 0.3, &EngineOptions::default()))
    });
    let plan = PtkPlan::try_new(100, 0.3, &EngineOptions::default()).unwrap();
    group.bench_function("stream_over_view", |b| {
        b.iter(|| {
            let mut source = ViewSource::new(black_box(&ds.view));
            PtkExecutor::new(&plan).execute(&mut source)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dp,
    bench_pruning_ablation,
    bench_ub_interval_ablation,
    bench_stream_vs_materialized
);
criterion_main!(benches);
