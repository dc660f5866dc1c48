//! Stage-by-stage microprofile of the integer quantization kernel:
//! exponent scan, nearest and stochastic fake-quantization, and a memcpy
//! floor, in ns/element. Handy when tuning `fast_bfp::kernel` —
//! `cargo run --release -p fast_bfp --example prof_kernel`.

use fast_bfp::{BfpFormat, CounterRng, Noise, Rounding};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let fmt = BfpFormat::high();
    let base: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.137).sin() * 3.0).collect();
    let mut buf = base.clone();
    let noise = Noise {
        rng: CounterRng::new(0xACE1),
        base: 0,
        workers: 1,
    };
    // max_exponent alone
    let t = Instant::now();
    for _ in 0..200 {
        let mut acc = 0i64;
        for chunk in buf.chunks(16) {
            acc += fast_bfp::kernel::max_exponent(black_box(chunk)).unwrap_or(0) as i64;
        }
        black_box(acc);
    }
    println!(
        "max_exponent scan: {:.2} ns/elem",
        t.elapsed().as_nanos() as f64 / (200.0 * 65536.0)
    );
    let t = Instant::now();
    for _ in 0..200 {
        buf.copy_from_slice(&base);
        black_box(fast_bfp::fake_quantize_slice(
            &mut buf,
            fmt,
            Rounding::Nearest,
            noise,
            None,
        ));
    }
    println!(
        "fq nearest: {:.2} ns/elem",
        t.elapsed().as_nanos() as f64 / (200.0 * 65536.0)
    );
    let t = Instant::now();
    for _ in 0..200 {
        buf.copy_from_slice(&base);
        black_box(fast_bfp::fake_quantize_slice(
            &mut buf,
            fmt,
            Rounding::STOCHASTIC8,
            noise,
            None,
        ));
    }
    println!(
        "fq stochastic: {:.2} ns/elem",
        t.elapsed().as_nanos() as f64 / (200.0 * 65536.0)
    );
    // memcpy reference
    let t = Instant::now();
    for _ in 0..200 {
        buf.copy_from_slice(black_box(&base));
        black_box(&buf);
    }
    println!(
        "memcpy: {:.2} ns/elem",
        t.elapsed().as_nanos() as f64 / (200.0 * 65536.0)
    );
}
