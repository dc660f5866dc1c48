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

#[path = "../../tensor/tests/support/segment_oracle.rs"]
mod segment_oracle;
use segment_oracle::segment_product;

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
use fast_tensor::{matmul, matmul_nt, matmul_tn};

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
    /// in the zoo (packed BFP and dense fallbacks alike), every rounding
    /// mode and operands including non-finite values, the shared plan
    /// (`prepare` + `execute`) quantizes exactly what the historical
    /// `quantize_copy` does — same values, same stochastic noise positions —
    /// and multiplies bit for bit as its reference does: the segment oracle
    /// for a packed pair (the integer kernels), the `quantize_copy` +
    /// `matmul{,_nt,_tn}` composition for every other pair.
    #[test]
    fn qgemm_plan_matches_quantize_copy_composition_bitwise(
        m in 1usize..10,
        k in 1usize..70,
        n in 1usize..40,
        fa_idx in 0usize..10,
        fb_idx in 0usize..10,
        orient_idx in 0usize..3,
        special in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (fa, fb) = (zoo_format(fa_idx), zoo_format(fb_idx));
        // Shapes and reduction axes per orientation.
        let (a_shape, b_shape, a_axis, b_axis, orient) = match orient_idx {
            0 => ((m, k), (k, n), GroupAxis::AlongRow, GroupAxis::AlongCol, Orient::Nn),
            1 => ((m, k), (n, k), GroupAxis::AlongRow, GroupAxis::AlongRow, Orient::Nt),
            _ => ((k, m), (k, n), GroupAxis::AlongCol, GroupAxis::AlongCol, Orient::Tn),
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
        };

        // Plan: same seed drives the session noise.
        let mut session = Session::new(seed);
        let ap = prepare(&mut session, &a, fa, a_axis);
        let bp = prepare(&mut session, &b, fb, b_axis);
        let got = execute(&mut session, orient, &ap, &bp);
        let want = match (&ap, &bp) {
            (GemmOperand::Own(Prepared::Packed(x)), GemmOperand::Own(Prepared::Packed(y))) => {
                prop_assert_eq!(bits(&x.to_tensor()), bits(&aq), "A packs the copy's values");
                prop_assert_eq!(bits(&y.to_tensor()), bits(&bq), "B packs the copy's values");
                Tensor::from_vec(vec![m, n], segment_product(orient, x, y))
            }
            _ => want,
        };

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

// ---------------------------------------------------------------------------
// Conv layers pack their `im2col` operands straight from the NCHW tensor
// (`qgemm::prepare_patches`). The reference below is the composition they
// replaced — materialize `im2col`, then `prepare_owned` — kept here so the
// layers stay pinned to it bit for bit.
// ---------------------------------------------------------------------------

use fast_nn::qgemm::{prepare_owned, prepare_patches, prepare_slice, GemmOperand, Prepared};
use fast_nn::{Conv2d, DepthwiseConv2d, PlanStats, QuantControlled};
use fast_tensor::{col2im, gemm_out_to_nchw, im2col, nchw_to_gemm_out, Conv2dDims};

/// What one forward + backward of a conv layer leaves behind.
#[derive(Debug, PartialEq)]
struct ConvRun {
    out: Vec<u32>,
    grad_input: Vec<u32>,
    grad_weight: Vec<u32>,
    plan_stats: PlanStats,
    sr_state: (u64, u64),
}

/// Bit patterns with every NaN folded to one (a NaN product's payload
/// depends on the operand order the optimizer picks).
fn bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| if v.is_nan() { 0x7FC0_0000 } else { v.to_bits() })
        .collect()
}

/// Runs `layer` forward on `x` and backward on `gout` in a fresh session.
fn run_layer(layer: &mut dyn Layer, x: &Tensor, gout: &Tensor, seed: u64) -> ConvRun {
    let mut s = Session::new(seed);
    let out = layer.forward(x, &mut s);
    let grad_input = layer.backward(gout, &mut s);
    let mut grad_weight = Vec::new();
    layer.visit_params(&mut |p| grad_weight.extend(bits(p.grad)));
    ConvRun {
        out: bits(&out),
        grad_input: bits(&grad_input),
        grad_weight,
        plan_stats: s.plan_stats,
        sr_state: s.sr_state(),
    }
}

/// The three GEMMs of one bias-free conv over the *materialized* patch
/// matrix, in the layer's operand order: returns `(out, ∇input, ∇W)`.
fn conv_by_materialized_im2col(
    s: &mut Session,
    w: &[f32],
    p: LayerPrecision,
    d: Conv2dDims,
    x: &Tensor,
    gout: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (row, col) = (GroupAxis::AlongRow, GroupAxis::AlongCol);
    let cols = prepare_owned(s, im2col(x, d), p.activations, col);
    let wq = prepare_slice(s, w, d.out_c, d.k_dim(), p.weights, row);
    let out = gemm_out_to_nchw(&execute(s, Orient::Nn, &wq, &cols), d);
    let g_mat = nchw_to_gemm_out(gout, d);
    let gq = prepare(s, &g_mat, p.gradients, row);
    let cols = prepare_owned(s, im2col(x, d), p.activations, row);
    let gw = execute(s, Orient::Nt, &gq, &cols);
    drop(gq);
    let gq2 = prepare_owned(s, g_mat, p.gradients, col);
    let wq = prepare_slice(s, w, d.out_c, d.k_dim(), p.weights, col);
    let gin = col2im(&execute(s, Orient::Tn, &wq, &gq2), d);
    (out, gin, gw)
}

/// Channel `c` of an NCHW tensor as a `(B, 1, H, W)` tensor.
fn channel_of(t: &Tensor, c: usize) -> Tensor {
    let (b, cs, hw) = (t.shape()[0], t.shape()[1], t.shape()[2] * t.shape()[3]);
    let data = (0..b)
        .flat_map(|bi| t.data()[(bi * cs + c) * hw..][..hw].iter().copied())
        .collect();
    Tensor::from_vec(vec![b, 1, t.shape()[2], t.shape()[3]], data)
}

/// A precision with the activation format under test, a nearest weight
/// format and the paper's SR gradients.
fn precision_with_activations(activations: NumericFormat) -> LayerPrecision {
    LayerPrecision {
        activations,
        ..LayerPrecision::fast(4, 4, 2)
    }
}

/// Input data for the conv suites; `special` plants a NaN (the pack's
/// refusal path) where the first patch reads it.
fn conv_input(shape: Vec<usize>, seed: u64, special: bool) -> Tensor {
    let len = shape.iter().product();
    let mut x = Tensor::from_vec(shape, operand_data(len, seed, 1));
    if special {
        let at = x.numel() / 2;
        x.data_mut()[at] = f32::NAN;
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Conv2d` forward output, both gradients, the plan counters and the
    /// SR cursor after a forward + backward equal the materialized
    /// composition's, for every activation format of the zoo (SR on activations included; scalar and wide formats refuse the
    /// pack, as does a NaN in the input).
    #[test]
    fn conv2d_matches_the_materialized_im2col_composition(
        in_c in 1usize..=3,
        out_c in 1usize..=4,
        kernel in prop::sample::select(vec![1usize, 3]),
        stride in 1usize..=2,
        pad in 0usize..=1,
        in_h in 4usize..=9,
        in_w in 4usize..=9,
        batch in 1usize..=3,
        fa_idx in 0usize..10,
        special in 0u32..=3,
        seed in 0u64..10_000,
    ) {
        let precision = precision_with_activations(zoo_format(fa_idx));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layer = Conv2d::new(in_c, out_c, kernel, stride, pad, false, &mut rng);
        *layer.precision_mut() = precision;
        let d = Conv2dDims { batch, in_c, in_h, in_w, out_c, kernel, stride, pad };
        let x = conv_input(vec![batch, in_c, in_h, in_w], seed, special == 0);
        let gout = Tensor::from_vec(
            vec![batch, out_c, d.out_h(), d.out_w()],
            operand_data(batch * out_c * d.out_h() * d.out_w(), seed ^ 0xC0, 1),
        );

        let mut s = Session::new(seed);
        let w = layer.weight().data().to_vec();
        let (out, gin, gw) = conv_by_materialized_im2col(&mut s, &w, precision, d, &x, &gout);
        let want = ConvRun {
            out: bits(&out),
            grad_input: bits(&gin),
            grad_weight: bits(&gw),
            plan_stats: s.plan_stats,
            sr_state: s.sr_state(),
        };
        prop_assert_eq!(run_layer(&mut layer, &x, &gout, seed), want);
    }

    /// The same for `DepthwiseConv2d`: one `(1, k²)`-weight conv per channel.
    #[test]
    fn depthwise_conv_matches_the_materialized_im2col_composition(
        channels in 1usize..=3,
        stride in 1usize..=2,
        pad in 0usize..=1,
        in_h in 4usize..=8,
        in_w in 4usize..=8,
        batch in 1usize..=2,
        fa_idx in 0usize..10,
        special in 0u32..=3,
        seed in 0u64..10_000,
    ) {
        let precision = precision_with_activations(zoo_format(fa_idx));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut layer = DepthwiseConv2d::new(channels, 3, stride, pad, &mut rng);
        *layer.precision_mut() = precision;
        let d = Conv2dDims {
            batch, in_c: 1, in_h, in_w, out_c: 1, kernel: 3, stride, pad,
        };
        let x = conv_input(vec![batch, channels, in_h, in_w], seed, special == 0);
        let gout = Tensor::from_vec(
            vec![batch, channels, d.out_h(), d.out_w()],
            operand_data(batch * channels * d.out_h() * d.out_w(), seed ^ 0xD0, 1),
        );

        // Forward runs every channel before backward runs any.
        let mut s = Session::new(seed);
        let w = layer.weight().data().to_vec();
        let (row, col) = (GroupAxis::AlongRow, GroupAxis::AlongCol);
        let mut want = ConvRun {
            out: Vec::new(),
            grad_input: Vec::new(),
            grad_weight: Vec::new(),
            plan_stats: PlanStats::default(),
            sr_state: (0, 0),
        };
        let mut outs = Vec::new();
        for c in 0..channels {
            let cols = prepare_owned(&mut s, im2col(&channel_of(&x, c), d), precision.activations, col);
            let wq = prepare_slice(&mut s, &w[c * 9..][..9], 1, 9, precision.weights, row);
            outs.push(execute(&mut s, Orient::Nn, &wq, &cols));
        }
        let mut gins = Vec::new();
        for c in 0..channels {
            let g_mat = nchw_to_gemm_out(&channel_of(&gout, c), d);
            let gq = prepare(&mut s, &g_mat, precision.gradients, row);
            let cols = prepare_owned(&mut s, im2col(&channel_of(&x, c), d), precision.activations, row);
            want.grad_weight.extend(bits(&execute(&mut s, Orient::Nt, &gq, &cols)));
            drop(gq);
            let gq2 = prepare_owned(&mut s, g_mat, precision.gradients, col);
            let wq = prepare_slice(&mut s, &w[c * 9..][..9], 1, 9, precision.weights, col);
            gins.push(col2im(&execute(&mut s, Orient::Tn, &wq, &gq2), d));
        }
        // Per-channel results interleave back into NCHW, batch-major.
        let (ohw, hw) = (d.out_h() * d.out_w(), in_h * in_w);
        for b in 0..batch {
            for c in 0..channels {
                want.out.extend(bits(&outs[c]).iter().skip(b * ohw).take(ohw));
                want.grad_input.extend(bits(&gins[c]).iter().skip(b * hw).take(hw));
            }
        }
        want.plan_stats = s.plan_stats;
        want.sr_state = s.sr_state();
        prop_assert_eq!(run_layer(&mut layer, &x, &gout, seed), want);
    }
}

/// The refusal path reserves the operand's `K·P` noise positions once, not
/// once for the refused pack and again for the fallback; and a non-plain
/// value the patches never read (a 1×1 stride-2 conv skips every other row
/// and column) does not refuse the pack at all.
#[test]
fn refused_patch_pack_reserves_its_noise_once() {
    let fmt = NumericFormat::bfp_stochastic(fast_bfp::BfpFormat::high());
    let d = Conv2dDims {
        batch: 2,
        in_c: 3,
        in_h: 6,
        in_w: 6,
        out_c: 1,
        kernel: 1,
        stride: 2,
        pad: 0,
    };
    let numel = (d.k_dim() * d.p_dim()) as u64;
    let clean = conv_input(vec![2, 3, 6, 6], 5, false);
    for (at, refused) in [(0, true), (1, false), (6, false), (12, true)] {
        let mut x = clean.clone();
        x.data_mut()[at] = f32::NAN;
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            let mut s = Session::new(1);
            let op = prepare_patches(&mut s, &x, d, fmt, axis);
            assert_eq!(
                matches!(op, GemmOperand::Own(Prepared::Dense(_))),
                refused,
                "NaN at {at}, {axis:?}"
            );
            assert_eq!(s.sr_state().1, numel, "NaN at {at}, {axis:?}");
            // Either way the operand is the materialized composition's.
            let mut s_ref = Session::new(1);
            let want = prepare_owned(&mut s_ref, im2col(&x, d), fmt, axis);
            let dense = |op: &GemmOperand<'_>| match op {
                GemmOperand::Own(p) => bits(&p.to_tensor()),
                _ => unreachable!("prepared operands are owned"),
            };
            assert_eq!(dense(&op), dense(&want), "NaN at {at}, {axis:?}");
            assert_eq!(s.plan_stats, s_ref.plan_stats);
        }
    }
}
