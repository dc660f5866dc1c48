//! Kernel benchmark: quantized GEMM (fake-quantize + f32 GEMM) vs plain
//! f32 GEMM — the cost of BFP-aware training at the software level.

use criterion::{criterion_group, criterion_main, Criterion};
use fast_bfp::{CounterRng, GroupAxis, Noise};
use fast_nn::NumericFormat;
use fast_tensor::{matmul, Tensor};
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let (m, k, n) = (64usize, 256, 64);
    let a = Tensor::from_vec(
        vec![m, k],
        (0..m * k).map(|i| (i as f32 * 0.13).sin()).collect(),
    );
    let b = Tensor::from_vec(
        vec![k, n],
        (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect(),
    );
    let noise = Noise {
        rng: CounterRng::new(0xACE1),
        base: 0,
        workers: 1,
    };
    let mut group = c.benchmark_group("quant_matmul");
    group.bench_function("fp32_gemm", |bch| {
        bch.iter(|| black_box(matmul(black_box(&a), black_box(&b))))
    });
    for (name, fmt) in [
        (
            "bfp_m4",
            NumericFormat::bfp_nearest(fast_bfp::BfpFormat::high()),
        ),
        (
            "bfp_m2",
            NumericFormat::bfp_nearest(fast_bfp::BfpFormat::low()),
        ),
        ("int8", NumericFormat::int8()),
        ("bf16", NumericFormat::bf16()),
    ] {
        group.bench_function(format!("quantize+gemm/{name}"), |bch| {
            bch.iter(|| {
                let mut aq = a.clone();
                let mut bq = b.clone();
                fmt.quantize_matrix(&mut aq, GroupAxis::AlongRow, noise);
                fmt.quantize_matrix(&mut bq, GroupAxis::AlongCol, noise);
                black_box(matmul(&aq, &bq))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).sample_size(15);
    targets = bench
}
criterion_main!(benches);
