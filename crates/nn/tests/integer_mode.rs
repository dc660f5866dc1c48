//! Accuracy gates for the integer-domain qGEMM execution mode
//! (DESIGN.md §11).
//!
//! The replay path's contract is bit-identity with the quantize-copy
//! composition and is pinned by `tests/proptests.rs`. Integer mode trades
//! that bit-identity for speed: packed×packed GEMMs run i8×i8→i32 inner
//! products per group segment with one f32 scale multiply per segment, so
//! the only inexact steps are the cross-segment f32 adds. These tests pin
//! the resulting contract:
//!
//! * **Error bound** — against an f64 reference over the dequantized
//!   operands, integer-mode results stay within a few ULPs of the
//!   accumulated magnitude, for every orientation and every packable
//!   format in the zoo.
//! * **Never garbage** — operands the packer refuses (non-finite or
//!   subnormal values, mantissas wider than `i8`) fall back to the replay
//!   kernels *bitwise*; integer mode never invents bits for data it cannot
//!   represent.
//! * **Mode plumbing** — `FAST_QGEMM_MODE` selects the session default.
//! * **Training parity** — a small MLP trained end-to-end under integer
//!   mode reaches the same loss neighborhood as the replay run.

use fast_bfp::{BfpFormat, GroupAxis, Rounding};
use fast_nn::models::mlp;
use fast_nn::qgemm::{execute, prepare, Orient};
use fast_nn::{
    set_uniform_precision, softmax_cross_entropy, ExecMode, Layer, LayerPrecision, NumericFormat,
    Session, Sgd,
};
use fast_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

#[path = "support/quantize_copy.rs"]
mod quantize_copy;
use quantize_copy::SessionNoise;

/// The same 10-format zoo as `tests/proptests.rs`: borrow-through FP32,
/// scalar formats, packable BFP under every rounding mode, and
/// wide-mantissa BFP (dense fallback).
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

/// Random operand data, optionally salted with exact zeros (`special ≥ 1`)
/// or NaN / infinity / subnormal values (`special == 2`) that must force
/// the packed fast path's fallback.
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

/// Shapes, reduction axes and orientation for one proptest case.
fn orient_case(
    orient_idx: usize,
    m: usize,
    k: usize,
    n: usize,
) -> ((usize, usize), (usize, usize), GroupAxis, GroupAxis, Orient) {
    match orient_idx {
        0 => (
            (m, k),
            (k, n),
            GroupAxis::AlongRow,
            GroupAxis::AlongCol,
            Orient::Nn,
        ),
        1 => (
            (m, k),
            (n, k),
            GroupAxis::AlongRow,
            GroupAxis::AlongRow,
            Orient::Nt,
        ),
        _ => (
            (k, m),
            (k, n),
            GroupAxis::AlongCol,
            GroupAxis::AlongCol,
            Orient::Tn,
        ),
    }
}

/// f64 reference product of the (already quantized) operands, plus the
/// per-element accumulated magnitude `Σ|a·b|` that scales the error bound.
fn reference_f64(
    aq: &Tensor,
    bq: &Tensor,
    orient: Orient,
    m: usize,
    k: usize,
    n: usize,
) -> (Vec<f64>, Vec<f64>) {
    let a = aq.data();
    let b = bq.data();
    let at = |i: usize, p: usize| match orient {
        Orient::Tn => a[p * m + i] as f64, // A is (k, m)
        _ => a[i * k + p] as f64,          // A is (m, k)
    };
    let bt = |p: usize, j: usize| match orient {
        Orient::Nn | Orient::Tn => b[p * n + j] as f64, // B is (k, n)
        _ => b[j * k + p] as f64,                       // B is (n, k), reduced along rows
    };
    let mut want = vec![0.0f64; m * n];
    let mut mag = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                let prod = at(i, p) * bt(p, j);
                want[i * n + j] += prod;
                mag[i * n + j] += prod.abs();
            }
        }
    }
    (want, mag)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// **The integer-mode accuracy gate**: for every orientation and every
    /// format pair in the zoo, integer-mode results stay within a
    /// magnitude-scaled bound of the f64 reference over the dequantized
    /// operands. The bound (`64·ε·Σ|a·b|`) is what ≤ k/segment-count f32
    /// additions can drift; a kernel that dropped a segment, mis-scaled a
    /// group or overflowed i32 fails it by orders of magnitude.
    #[test]
    fn integer_mode_stays_within_float_error_of_reference(
        m in 1usize..9,
        k in 1usize..70,
        n in 1usize..40,
        fa_idx in 0usize..10,
        fb_idx in 0usize..10,
        orient_idx in 0usize..3,
        special in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let (fa, fb) = (zoo_format(fa_idx), zoo_format(fb_idx));
        let (a_shape, b_shape, a_axis, b_axis, orient) = orient_case(orient_idx, m, k, n);
        let a = Tensor::from_vec(
            vec![a_shape.0, a_shape.1],
            operand_data(a_shape.0 * a_shape.1, seed, special),
        );
        let b = Tensor::from_vec(
            vec![b_shape.0, b_shape.1],
            operand_data(b_shape.0 * b_shape.1, seed ^ 0x9E37, special),
        );

        // Quantized f64 reference on the same noise `prepare` draws.
        let mut noise = SessionNoise::new(seed);
        let aq = noise.quantize_copy(fa, &a, a_axis);
        let bq = noise.quantize_copy(fb, &b, b_axis);
        let (want, mag) = reference_f64(&aq, &bq, orient, m, k, n);

        let mut session = Session::new(seed);
        session.exec_mode = ExecMode::Integer;
        let ap = prepare(&mut session, &a, fa, a_axis);
        let bp = prepare(&mut session, &b, fb, b_axis);
        let got = execute(&mut session, orient, &ap, &bp);

        prop_assert_eq!(got.shape(), &[m, n]);
        for (idx, &g) in got.data().iter().enumerate() {
            let tol = 64.0 * f32::EPSILON as f64 * mag[idx] + 1e-30;
            prop_assert!(
                ((g as f64) - want[idx]).abs() <= tol,
                "elem {}: {} vs {} (tol {}, orient {:?}, fa {}, fb {})",
                idx, g, want[idx], tol, orient, fa.name(), fb.name()
            );
        }
    }

    /// **Never garbage**: operands the packer refuses — NaN / infinity /
    /// subnormal salt, or any non-packable format — make integer mode
    /// replay the plain kernels *bitwise*, NaN propagation included.
    #[test]
    fn unpackable_operands_fall_back_to_replay_bits(
        m in 1usize..8,
        k in 1usize..50,
        n in 1usize..30,
        fa_idx in 0usize..10,
        fb_idx in 0usize..10,
        orient_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let (fa, fb) = (zoo_format(fa_idx), zoo_format(fb_idx));
        let (a_shape, b_shape, a_axis, b_axis, orient) = orient_case(orient_idx, m, k, n);
        let a = Tensor::from_vec(
            vec![a_shape.0, a_shape.1],
            operand_data(a_shape.0 * a_shape.1, seed, 2),
        );
        let b = Tensor::from_vec(
            vec![b_shape.0, b_shape.1],
            operand_data(b_shape.0 * b_shape.1, seed ^ 0x9E37, 2),
        );

        let run = |mode: ExecMode| {
            let mut s = Session::new(seed);
            s.exec_mode = mode;
            let ap = prepare(&mut s, &a, fa, a_axis);
            let bp = prepare(&mut s, &b, fb, b_axis);
            execute(&mut s, orient, &ap, &bp)
        };
        let want = run(ExecMode::Replay);
        let got = run(ExecMode::Integer);
        prop_assert_eq!(got.shape(), want.shape());
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "elem {} differs: {} vs {} (orient {:?}, fa {}, fb {})",
                i, g, w, orient, fa.name(), fb.name()
            );
        }
    }
}

/// New training and evaluation sessions take their mode from
/// `FAST_QGEMM_MODE` — the lever the CI integer leg uses to force those
/// gates through the integer kernels without touching any test. Serving
/// sessions run integer under either lever value.
#[test]
fn default_session_mode_follows_env() {
    let want = match std::env::var("FAST_QGEMM_MODE").as_deref() {
        Ok("integer") => ExecMode::Integer,
        _ => ExecMode::Replay,
    };
    assert_eq!(Session::default_exec_mode(), want);
    assert_eq!(Session::new(0).exec_mode, want);
    assert_eq!(Session::eval(0).exec_mode, want);
    assert_eq!(Session::inference(0).exec_mode, ExecMode::Integer);
}

fn quantized_model(seed: u64) -> fast_nn::Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = mlp(&[40, 24, 4], &mut rng);
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    m
}

fn sample_batch() -> Tensor {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    Tensor::from_vec(
        vec![3, 40],
        (0..120).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
}

/// Trains one small quantized MLP under each mode and compares the loss
/// trajectories: integer-domain execution must not change where training
/// lands (DESIGN.md §11's time-to-accuracy parity gate, scaled down to a
/// tier-1-sized problem).
#[test]
fn training_loss_parity_between_modes() {
    let train = |mode: ExecMode| {
        let mut model = quantized_model(7);
        let mut s = Session::new(11);
        s.exec_mode = mode;
        let mut opt = Sgd::new(0.05, 0.9, 0.0);
        let x = sample_batch();
        let labels = [0usize, 1, 2];
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        for step in 0..40 {
            let y = model.forward(&x, &mut s);
            let (loss, grad) = softmax_cross_entropy(&y, &labels);
            if step == 0 {
                first = loss;
            }
            last = loss;
            let _ = model.backward(&grad, &mut s);
            opt.step(&mut model);
        }
        (first, last)
    };
    let (replay_first, replay_last) = train(ExecMode::Replay);
    let (integer_first, integer_last) = train(ExecMode::Integer);

    // Same model, same data: the initial losses agree to float noise and
    // both runs actually learn.
    assert!((replay_first - integer_first).abs() <= 1e-3 * replay_first.max(1.0));
    assert!(
        replay_last < 0.5 * replay_first,
        "replay run failed to learn: {replay_first} -> {replay_last}"
    );
    assert!(
        integer_last < 0.5 * integer_first,
        "integer run failed to learn: {integer_first} -> {integer_last}"
    );
    // And they land in the same loss neighborhood.
    let denom = replay_last.abs().max(1e-3);
    assert!(
        (replay_last - integer_last).abs() / denom < 0.25,
        "modes diverged: replay {replay_last} vs integer {integer_last}"
    );
}
