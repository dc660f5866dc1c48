//! Kernel benchmark: the relative-improvement statistic r(X) of paper
//! Eq. 2 — the per-iteration cost of Algorithm 1's decisions — on the 64k
//! values `bench_json` times as `improvement_r_64k_ns` (and quantizes as
//! `quant_slice_m4_nearest_ns`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_bfp::relative_improvement;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("improvement_r");
    let xs: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.137).sin() * 3.0).collect();
    group.bench_with_input(BenchmarkId::new("r", xs.len()), &xs, |b, xs| {
        b.iter(|| black_box(relative_improvement(black_box(xs), 16)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(2)).sample_size(20);
    targets = bench
}
criterion_main!(benches);
