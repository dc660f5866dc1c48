//! The accuracy gate of the integer kernels (DESIGN.md §11).
//!
//! `tests/proptests.rs` pins the plan's bits: a pair with a dense side to
//! the quantize-copy composition, a packed pair to the segment oracle. This
//! file bounds how far that arithmetic sits from exact: packed×packed GEMMs
//! run i8×i8→i32 inner products per group segment with one f32 scale
//! multiply per segment, so the only inexact steps are the cross-segment
//! f32 adds, and the result must stay within a few ULPs of the accumulated
//! magnitude of an f64 reference over the dequantized operands, for every
//! orientation and every format pair in the zoo.

use fast_bfp::{BfpFormat, GroupAxis, Rounding};
use fast_nn::qgemm::{execute, prepare, Orient};
use fast_nn::{NumericFormat, Session};
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

/// Random operand data, optionally salted with exact zeros (`zeros`).
fn operand_data(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            if zeros && i % 5 == 0 {
                0.0
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

    /// **The accuracy gate**: for every orientation and every format pair
    /// in the zoo, the plan's results stay within a magnitude-scaled bound
    /// of the f64 reference over the dequantized operands. The bound (`64·ε·Σ|a·b|`) is what ≤ k/segment-count f32
    /// additions can drift; a kernel that dropped a segment, mis-scaled a
    /// group or overflowed i32 fails it by orders of magnitude.
    #[test]
    fn plan_stays_within_float_error_of_reference(
        m in 1usize..9,
        k in 1usize..70,
        n in 1usize..40,
        fa_idx in 0usize..10,
        fb_idx in 0usize..10,
        orient_idx in 0usize..3,
        zeros in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let (fa, fb) = (zoo_format(fa_idx), zoo_format(fb_idx));
        let (a_shape, b_shape, a_axis, b_axis, orient) = orient_case(orient_idx, m, k, n);
        let a = Tensor::from_vec(
            vec![a_shape.0, a_shape.1],
            operand_data(a_shape.0 * a_shape.1, seed, zeros == 1),
        );
        let b = Tensor::from_vec(
            vec![b_shape.0, b_shape.1],
            operand_data(b_shape.0 * b_shape.1, seed ^ 0x9E37, zeros == 1),
        );

        // Quantized f64 reference on the same noise `prepare` draws.
        let mut noise = SessionNoise::new(seed);
        let aq = noise.quantize_copy(fa, &a, a_axis);
        let bq = noise.quantize_copy(fb, &b, b_axis);
        let (want, mag) = reference_f64(&aq, &bq, orient, m, k, n);

        let mut session = Session::new(seed);
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
}
