//! Kernel benchmark: FP32 → BFP conversion throughput (the converter of
//! paper Fig 14), nearest vs stochastic rounding, across group sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_bfp::{fake_quantize_slice, BfpFormat, CounterRng, Noise, Rounding};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let n = 16 * 1024;
    let xs: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin()).collect();
    let noise = Noise {
        rng: CounterRng::new(0xACE1),
        base: 0,
        workers: 1,
    };
    let mut group = c.benchmark_group("bfp_convert");
    for g in [8usize, 16, 32] {
        let fmt = BfpFormat::new(g, 4, 8).expect("valid");
        group.bench_with_input(BenchmarkId::new("nearest", g), &fmt, |b, &fmt| {
            b.iter(|| {
                let mut data = xs.clone();
                fake_quantize_slice(&mut data, fmt, Rounding::Nearest, noise, None);
                black_box(data)
            })
        });
        group.bench_with_input(BenchmarkId::new("stochastic", g), &fmt, |b, &fmt| {
            b.iter(|| {
                let mut data = xs.clone();
                fake_quantize_slice(&mut data, fmt, Rounding::STOCHASTIC8, noise, None);
                black_box(data)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(2)).sample_size(20);
    targets = bench
}
criterion_main!(benches);
