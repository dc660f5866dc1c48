//! Property tests for the serving engine: the compiled (frozen-weight)
//! forward path is bit-identical to the training-path evaluation forward
//! run in the serving exec mode, `ExecMode::Integer` (deterministic weight
//! rounding, any activation rounding), and dynamic micro-batching never
//! changes results sample-for-sample.

use fast_bfp::{BfpFormat, Rounding};
use fast_nn::models::{mlp, resnet_lite, ResNetConfig};
use fast_nn::{
    set_uniform_precision, Conv2d, Dense, ExecMode, GlobalAvgPool, Layer, LayerPrecision,
    NumericFormat, Relu, Sequential, Session,
};
use fast_serve::{BatchConfig, CompiledModel, Pending, Server};
use fast_tensor::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A format drawn from the zoo of paper Fig 2: indices 0–5 round
/// deterministically, 6 and 7 stochastically. Weights take only the first
/// six: an eval forward rounds its weights with the session's SR noise
/// while a frozen cache builds from its own source (DESIGN.md §8).
/// Activations take all eight: every layer prepares them exactly as the
/// eval forward does, so an SR activation draws the same session noise
/// positions on both paths.
fn format_for(idx: u8) -> NumericFormat {
    match idx % 8 {
        0 => NumericFormat::Fp32,
        1 => NumericFormat::bf16(),
        2 => NumericFormat::int8(),
        3 => NumericFormat::bfp_nearest(BfpFormat::high()),
        4 => NumericFormat::bfp_nearest(BfpFormat::low()),
        5 => NumericFormat::Bfp {
            format: BfpFormat::msfp12(),
            rounding: Rounding::Nearest,
            windowed: true,
        },
        6 => NumericFormat::bfp_stochastic(BfpFormat::high()),
        _ => NumericFormat::Bfp {
            format: BfpFormat::low(),
            rounding: Rounding::Stochastic { noise_bits: 5 },
            windowed: false,
        },
    }
}

/// An evaluation session in the exec mode every compiled model serves in,
/// whatever `FAST_QGEMM_MODE` says.
fn integer_eval() -> Session {
    let mut s = Session::eval(0);
    s.exec_mode = ExecMode::Integer;
    s
}

fn precision_for(w: u8, a: u8) -> LayerPrecision {
    LayerPrecision {
        weights: format_for(w),
        activations: format_for(a),
        // Gradients are never quantized in a forward-only path.
        gradients: NumericFormat::Fp32,
    }
}

/// The full 10-format zoo of `crates/nn/tests/proptests.rs` (paper Fig 2
/// plus exotics), usable for *weights*: frozen-weight quantization draws
/// its stochastic bits from the compile-time source, so even SR weight
/// formats compile deterministically and replicas stay bit-identical.
fn zoo_format(idx: usize) -> NumericFormat {
    match idx % 10 {
        0 => NumericFormat::Fp32,
        1 => NumericFormat::bf16(),
        2 => NumericFormat::int8(),
        3 => NumericFormat::bfp_nearest(BfpFormat::low()),
        4 => NumericFormat::bfp_nearest(BfpFormat::high()),
        5 => NumericFormat::bfp_stochastic(BfpFormat::high()),
        6 => NumericFormat::Bfp {
            format: BfpFormat::new(16, 3, 3).unwrap(),
            rounding: Rounding::Stochastic { noise_bits: 5 },
            windowed: true,
        },
        7 => NumericFormat::Bfp {
            format: BfpFormat::new(8, 7, 8).unwrap(),
            rounding: Rounding::Truncate,
            windowed: false,
        },
        8 => NumericFormat::bfp_nearest(BfpFormat::new(16, 12, 8).unwrap()),
        _ => NumericFormat::Bfp {
            format: BfpFormat::msfp12(),
            rounding: Rounding::Nearest,
            windowed: true,
        },
    }
}

/// The batch-transparent subset of the zoo, usable for *activations*.
/// Excluded, because their quantization depends on batch composition
/// (DESIGN.md §8): SR formats (noise is positional, so a request's bits
/// shift with its offset inside a coalesced batch), `Int` (symmetric
/// scale from the whole tensor's max-abs), and windowed BFP (reference
/// exponent from the whole tensor's max exponent). What remains draws
/// every quantization statistic per group, and groups never cross
/// samples.
fn batch_transparent_zoo_format(idx: usize) -> NumericFormat {
    const BATCH_TRANSPARENT: [usize; 6] = [0, 1, 3, 4, 7, 8];
    zoo_format(BATCH_TRANSPARENT[idx % 6])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// CompiledModel forward ≡ training-path eval forward, bit for bit,
    /// for MLPs under random deterministic formats and random inputs (a
    /// deterministic activation format keeps the cache-replay request
    /// below comparable to the first).
    #[test]
    fn compiled_mlp_bit_identical_to_eval_forward(
        seed in 0u64..1000,
        w_fmt in 0u8..6,
        a_fmt in 0u8..6,
        batch in 1usize..4,
    ) {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = mlp(&[10, 24, 5], &mut rng);
            set_uniform_precision(&mut m, precision_for(w_fmt, a_fmt));
            m
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD00D);
        let x = Tensor::from_vec(
            vec![batch, 10],
            (0..batch * 10).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
        );
        let want = build().forward(&x, &mut integer_eval());
        let mut compiled = CompiledModel::compile(build(), 0);
        prop_assert_eq!(&compiled.infer(&x), &want);
        // Cache replay on a second request stays identical.
        prop_assert_eq!(&compiled.infer(&x), &want);
    }

    /// Same bit-identity for a conv stack (Conv2d frozen path, im2col
    /// weight reshape) under random formats, SR activations included. The
    /// stride-2 second conv has 16 output positions, the narrow-GEMM case
    /// serving once lowered differently.
    #[test]
    fn compiled_conv_bit_identical_to_eval_forward(
        seed in 0u64..1000,
        w_fmt in 0u8..6,
        a_fmt in 0u8..8,
    ) {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = Sequential::new()
                .push(Conv2d::new(2, 6, 3, 1, 1, true, &mut rng))
                .push(Relu::new())
                .push(Conv2d::new(6, 4, 3, 2, 1, true, &mut rng));
            set_uniform_precision(&mut m, precision_for(w_fmt, a_fmt));
            m
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let x = Tensor::from_vec(
            vec![1, 2, 8, 8],
            (0..128).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let want = build().forward(&x, &mut integer_eval());
        let mut compiled = CompiledModel::compile(build(), 0);
        prop_assert_eq!(&compiled.infer(&x), &want);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Micro-batched serving returns, for every request, exactly the
    /// tensor a single-sample forward would have produced — across random
    /// batching configs, request counts and batch-transparent activation
    /// formats. An activation format that keeps more bits than the hidden
    /// layer's sums carry (FP32, the 12-bit BFP) passes a rounding
    /// difference in those sums on to the output.
    #[test]
    fn batched_serving_matches_single_sample(
        seed in 0u64..500,
        max_batch in 1usize..7,
        requests in 1usize..14,
        workers in 1usize..3,
        a_fmt in 0usize..6,
    ) {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut m = Sequential::new()
                .push(Dense::new(40, 9, true, &mut rng))
                .push(Relu::new())
                .push(Dense::new(9, 3, true, &mut rng));
            let precision = LayerPrecision {
                activations: batch_transparent_zoo_format(a_fmt),
                ..LayerPrecision::bfp_fixed(4)
            };
            set_uniform_precision(&mut m, precision);
            CompiledModel::compile(m, 0)
        };
        let sample = |i: usize| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ (i as u64) << 8);
            // Each 16-wide quantization group gets its own magnitude, spread
            // over 2²⁴, so first-layer sums are inexact and any summation
            // order that depends on the batch shows in the bits.
            let scales: Vec<f32> = (0..3).map(|_| 2.0f32.powi(-rng.gen_range(0..=24))).collect();
            Tensor::from_vec(
                vec![1, 40],
                (0..40).map(|j| rng.gen_range(-1.0f32..1.0) * scales[j / 16]).collect(),
            )
        };
        let mut reference = build();
        let want: Vec<Tensor> = (0..requests).map(|i| reference.infer(&sample(i))).collect();

        let cfg = BatchConfig { max_batch };
        let server = Server::start((0..workers).map(|_| build()).collect(), cfg);
        let pending: Vec<Pending> = (0..requests).map(|i| server.submit(sample(i))).collect();
        for (p, w) in pending.into_iter().zip(&want) {
            prop_assert_eq!(&p.wait(), w);
        }
        let stats = server.shutdown();
        prop_assert_eq!(stats.samples, requests as u64);
        prop_assert!(stats.batch_histogram.keys().all(|&s| s <= max_batch));
    }
}

/// The continuous-batching dispatcher coalesces only within a shape
/// bucket, so a model that accepts *several* input shapes is needed to
/// exercise bucketing for real: stride-1 padded convs + global average
/// pooling accept any H×W and produce a fixed-width head input.
fn bucketed_conv_model(seed: u64, w_fmt: usize, a_fmt: usize) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Sequential::new()
        .push(Conv2d::new(2, 4, 3, 1, 1, false, &mut rng))
        .push(Relu::new())
        .push(GlobalAvgPool::new())
        .push(Dense::new(4, 3, true, &mut rng));
    set_uniform_precision(
        &mut m,
        LayerPrecision {
            weights: zoo_format(w_fmt),
            activations: batch_transparent_zoo_format(a_fmt),
            gradients: NumericFormat::Fp32,
        },
    );
    m
}

/// The per-sample shapes of the three buckets a request stream may hit.
const BUCKET_SHAPES: [(usize, usize); 3] = [(4, 4), (4, 6), (6, 6)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Continuous-batching bit-transparency across shape buckets, the full
    /// 10-format weight zoo and batch-transparent activation formats: every
    /// response from a mixed-shape request stream is bit-identical to a
    /// lone single-request forward. Mismatched trailing shapes must never
    /// coalesce — the batcher's `stack_inputs` panics on a mixed batch, so
    /// all-requests-succeeding is itself proof that no cross-bucket batch
    /// was ever formed.
    #[test]
    fn mixed_shape_streams_are_bit_transparent(
        seed in 0u64..500,
        w_fmt in 0usize..10,
        a_fmt in 0usize..6,
        // Each pick encodes (bucket, samples): `p % 3` selects the shape
        // bucket, `1 + p / 3` the sample count (1 or 2).
        raw_picks in prop::collection::vec(0usize..6, 1..12),
        max_batch in 2usize..7,
    ) {
        let picks: Vec<(usize, usize)> =
            raw_picks.iter().map(|&p| (p % 3, 1 + p / 3)).collect();
        let build = || CompiledModel::compile(bucketed_conv_model(seed, w_fmt, a_fmt), 0);
        let input = |i: usize, bucket: usize, samples: usize| {
            let (h, w) = BUCKET_SHAPES[bucket];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ ((i as u64) << 10));
            Tensor::from_vec(
                vec![samples, 2, h, w],
                (0..samples * 2 * h * w)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect(),
            )
        };
        let mut reference = build();
        let want: Vec<Tensor> = picks
            .iter()
            .enumerate()
            .map(|(i, &(b, s))| reference.infer(&input(i, b, s)))
            .collect();

        let server = Server::start(
            vec![build(), build()],
            BatchConfig::no_wait(max_batch),
        );
        let pending: Vec<Pending> = picks
            .iter()
            .enumerate()
            .map(|(i, &(b, s))| server.submit(input(i, b, s)))
            .collect();
        for (p, w) in pending.into_iter().zip(&want) {
            prop_assert_eq!(&p.wait(), w, "coalesced response differs from lone forward");
        }
        let stats = server.shutdown();
        let samples: usize = picks.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(stats.samples, samples as u64);
        prop_assert_eq!(stats.rejected, 0);
        prop_assert_eq!(stats.deadline_missed, 0);
    }
}

/// ResNet-lite end-to-end: the workload the serving benchmark drives, with
/// batch-norm running statistics exercised by a short training phase first.
#[test]
fn compiled_resnet_lite_matches_eval_after_training_updates() {
    let build = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut m = resnet_lite(ResNetConfig::resnet20(4, 3), &mut rng);
        set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
        m
    };
    let x = Tensor::from_vec(
        vec![2, 3, 16, 16],
        (0..2 * 3 * 256).map(|i| (i as f32 * 0.037).sin()).collect(),
    );
    let want = build().forward(&x, &mut integer_eval());
    let mut compiled = CompiledModel::compile(build(), 0);
    assert_eq!(compiled.warm(&x), want);
    assert_eq!(compiled.infer(&x), want);
}
