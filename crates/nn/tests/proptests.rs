//! Property-based tests for the training substrate: gradient correctness
//! under random shapes, quantization-noise boundedness, optimizer algebra.

use fast_nn::models::mlp;
use fast_nn::{
    mse_loss, set_uniform_precision, softmax_cross_entropy, Dense, Layer, LayerPrecision, Relu,
    Sequential, Session, Sgd,
};
use fast_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

#[path = "support/quantize_copy.rs"]
mod quantize_copy;
use quantize_copy::SessionNoise;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense gradient check under random shapes and inputs (FP32).
    #[test]
    fn dense_gradcheck(
        in_dim in 1usize..6,
        out_dim in 1usize..5,
        batch in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(in_dim, out_dim, true, &mut rng);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![batch, in_dim],
            (0..batch * in_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let _ = layer.forward(&x, &mut s);
        let gout = Tensor::full(vec![batch, out_dim], 1.0);
        let gin = layer.backward(&gout, &mut s);
        let eps = 1e-3f32;
        for idx in 0..(batch * in_dim).min(4) {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward(&xp, &mut s).data().iter().sum();
            let lm: f32 = layer.forward(&xm, &mut s).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            prop_assert!((num - gin.data()[idx]).abs() < 2e-2,
                "idx {idx}: {num} vs {}", gin.data()[idx]);
        }
    }

    /// Softmax CE loss is non-negative and its gradient rows sum to ~0.
    #[test]
    fn ce_gradient_rows_sum_to_zero(
        logits in prop::collection::vec(-5.0f32..5.0, 12),
        labels in prop::collection::vec(0usize..4, 3),
    ) {
        let t = Tensor::from_vec(vec![3, 4], logits);
        let (loss, grad) = softmax_cross_entropy(&t, &labels);
        prop_assert!(loss >= 0.0);
        for i in 0..3 {
            let s: f32 = grad.data()[i * 4..(i + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} sums to {s}");
        }
    }

    /// MSE of identical tensors is zero with zero gradient.
    #[test]
    fn mse_identity(data in prop::collection::vec(-3.0f32..3.0, 8)) {
        let t = Tensor::from_vec(vec![2, 4], data);
        let (loss, grad) = mse_loss(&t, &t);
        prop_assert_eq!(loss, 0.0);
        prop_assert!(grad.data().iter().all(|&g| g == 0.0));
    }

    /// Quantized forward output error is bounded relative to FP32 for
    /// HighBFP: the relative L1 distance stays under 25% on random MLPs.
    #[test]
    fn high_bfp_forward_stays_close(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut model = mlp(&[8, 16, 4], &mut rng);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![4, 8],
            (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let y_fp = model.forward(&x, &mut s);
        set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
        let y_q = model.forward(&x, &mut s);
        let num: f64 = y_fp.data().iter().zip(y_q.data())
            .map(|(a, b)| ((a - b) as f64).abs()).sum();
        let den: f64 = y_fp.data().iter().map(|&v| (v as f64).abs()).sum::<f64>().max(1e-6);
        prop_assert!(num / den < 0.25, "relative error {}", num / den);
    }

    /// SGD with zero gradients and zero weight decay is a no-op.
    #[test]
    fn sgd_identity_without_gradient(seed in 0u64..100) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut model = Sequential::new()
            .push(Dense::new(3, 3, true, &mut rng))
            .push(Relu::new());
        let before: Vec<f32> = {
            let mut v = Vec::new();
            model.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        opt.step(&mut model);
        let after: Vec<f32> = {
            let mut v = Vec::new();
            model.visit_params(&mut |p| v.extend_from_slice(p.value.data()));
            v
        };
        prop_assert_eq!(before, after);
    }

    /// Forward is deterministic for deterministic formats regardless of
    /// session seed.
    #[test]
    fn deterministic_formats_ignore_session_seed(
        seed_a in 0u64..50, seed_b in 50u64..100,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut model = mlp(&[4, 8, 2], &mut rng);
        set_uniform_precision(&mut model, LayerPrecision::bf16());
        let x = Tensor::full(vec![2, 4], 0.33);
        let mut sa = Session::new(seed_a);
        let mut sb = Session::new(seed_b);
        let ya = model.forward(&x, &mut sa);
        let yb = model.forward(&x, &mut sb);
        prop_assert_eq!(ya, yb);
    }
}

/// The format zoo the quantized-GEMM plan must be bit-faithful over:
/// borrow-through FP32, scalar formats (dense fallback), packable BFP
/// (`m ≤ 7`, every rounding mode, windowed and not), and wide-mantissa BFP
/// (dense fallback again).
fn zoo_format(idx: usize) -> NumericFormat {
    use fast_dnn_test_helpers::*;
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

/// Imports gathered for [`zoo_format`] without polluting the file head.
mod fast_dnn_test_helpers {
    pub use fast_bfp::{BfpFormat, Rounding};
    pub use fast_nn::NumericFormat;
}
use fast_bfp::GroupAxis;
use fast_nn::qgemm::{execute, prepare, Orient};
use fast_nn::NumericFormat;
use fast_tensor::{matmul, matmul_bt, matmul_nt, matmul_tn};

/// Random operand data, optionally salted with exact zeros (BFP operands
/// are sparse) or non-finite / subnormal values (which must force the
/// plan's dense fallback and still match bitwise).
fn operand_data(len: usize, seed: u64, special: usize) -> Vec<f32> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            if special >= 1 && i % 5 == 0 {
                0.0
            } else if special == 2 && i % 13 == 0 {
                f32::NAN
            } else if special == 2 && i % 11 == 0 {
                f32::INFINITY
            } else if special == 2 && i % 7 == 0 {
                1e-41 // subnormal
            } else {
                rng.gen_range(-4.0f32..4.0) * 2.0f32.powi(rng.gen_range(-10..4))
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// **The tentpole invariant**: for every GEMM orientation, every format
    /// in the zoo (packed-BFP fast path and dense fallbacks alike), every
    /// rounding mode and operands including non-finite values, the shared
    /// plan (`prepare` + `execute`) is bit-identical to the historical
    /// `quantize_copy` + `matmul{,_nt,_tn,_bt}` composition — same result
    /// bits, same stochastic noise positions.
    #[test]
    fn qgemm_plan_matches_quantize_copy_composition_bitwise(
        m in 1usize..10,
        k in 1usize..70,
        n in 1usize..40,
        fa_idx in 0usize..10,
        fb_idx in 0usize..10,
        orient_idx in 0usize..4,
        special in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (fa, fb) = (zoo_format(fa_idx), zoo_format(fb_idx));
        // Shapes and reduction axes per orientation.
        let (a_shape, b_shape, a_axis, b_axis, orient) = match orient_idx {
            0 => ((m, k), (k, n), GroupAxis::AlongRow, GroupAxis::AlongCol, Orient::Nn),
            1 => ((m, k), (n, k), GroupAxis::AlongRow, GroupAxis::AlongRow, Orient::Nt),
            2 => ((k, m), (k, n), GroupAxis::AlongCol, GroupAxis::AlongCol, Orient::Tn),
            _ => ((m, k), (n, k), GroupAxis::AlongRow, GroupAxis::AlongRow, Orient::Bt),
        };
        let a = Tensor::from_vec(
            vec![a_shape.0, a_shape.1],
            operand_data(a_shape.0 * a_shape.1, seed, special),
        );
        let b = Tensor::from_vec(
            vec![b_shape.0, b_shape.1],
            operand_data(b_shape.0 * b_shape.1, seed ^ 0x9E37, special),
        );

        // Reference: the historical composition on the session's noise.
        let mut noise = SessionNoise::new(seed);
        let aq = noise.quantize_copy(fa, &a, a_axis);
        let bq = noise.quantize_copy(fb, &b, b_axis);
        let want = match orient {
            Orient::Nn => matmul(&aq, &bq),
            Orient::Nt => matmul_nt(&aq, &bq),
            Orient::Tn => matmul_tn(&aq, &bq),
            Orient::Bt => matmul_bt(&aq, &bq),
        };

        // Plan: same seed drives the session noise. Bit-identity is a
        // replay-mode guarantee, so pin the mode — the CI leg that exports
        // FAST_QGEMM_MODE=integer must not flip this invariant's subject
        // (integer-mode closeness has its own gate in tests/integer_mode.rs).
        let mut session = Session::new(seed);
        session.exec_mode = fast_tensor::ExecMode::Replay;
        let ap = prepare(&mut session, &a, fa, a_axis);
        let bp = prepare(&mut session, &b, fb, b_axis);
        let got = execute(&mut session, orient, &ap, &bp);

        prop_assert_eq!(got.shape(), want.shape());
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "elem {} differs: {} vs {} (orient {:?}, fa {}, fb {})",
                i, g, w, orient, fa.name(), fb.name()
            );
        }
        // The plan metered exactly one GEMM of the composed shape.
        prop_assert_eq!(session.plan_stats.gemms, 1);
        prop_assert_eq!(session.plan_stats.macs, (m * k * n) as u64);
    }

    /// Training a whole quantized layer stack through the plan is a pure
    /// function of the session seed: two runs from one seed are
    /// bit-identical even under stochastic rounding.
    #[test]
    fn sr_training_step_is_reproducible_through_the_plan(seed in 0u64..300) {
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let mut model = mlp(&[6, 12, 3], &mut rng);
            set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(2));
            let mut s = Session::new(seed);
            use rand::Rng;
            let x = Tensor::from_vec(
                vec![3, 6],
                (0..18).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            );
            let y = model.forward(&x, &mut s);
            let (loss, grad) = softmax_cross_entropy(&y, &[0, 1, 2]);
            let gin = model.backward(&grad, &mut s);
            (loss, y, gin)
        };
        let (la, ya, ga) = run(seed);
        let (lb, yb, gb) = run(seed);
        prop_assert_eq!(la.to_bits(), lb.to_bits());
        prop_assert_eq!(ya, yb);
        prop_assert_eq!(ga, gb);
    }
}
