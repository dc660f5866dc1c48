//! Property-based tests for the tensor substrate: GEMM algebra, im2col
//! adjointness, pooling invariants.

use fast_tensor::qgemm::{
    qmatmul, qmatmul_nt, qmatmul_tn, runs_integer, Operand, Orient, PackLayout, PackedMat,
};
use fast_tensor::{
    col2im, col_sums, conv2d, global_avg_pool, im2col, matmul, matmul_nt, matmul_tn, max_pool2d,
    row_sums, Conv2dDims, Im2colRows, Tensor,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};

#[path = "support/segment_oracle.rs"]
mod segment_oracle;
use segment_oracle::segment_product;
#[path = "support/col_grouped.rs"]
mod col_grouped;
use col_grouped::col_grouped;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(vec![rows, cols], v))
}

proptest! {
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn gemm_transpose_identity(
        a in tensor_strategy(4, 6),
        b in tensor_strategy(6, 3),
    ) {
        let left = matmul(&a, &b).transpose2();
        let right = matmul(&b.transpose2(), &a.transpose2());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// matmul_nt and matmul_tn agree with explicit transposition.
    #[test]
    fn transposed_variants_agree(
        a in tensor_strategy(5, 7),
        b in tensor_strategy(4, 7),
        c in tensor_strategy(5, 3),
    ) {
        let nt = matmul_nt(&a, &b);
        let explicit = matmul(&a, &b.transpose2());
        for (x, y) in nt.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let tn = matmul_tn(&a, &c);
        let explicit2 = matmul(&a.transpose2(), &c);
        for (x, y) in tn.data().iter().zip(explicit2.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// GEMM is linear in its left operand: (A1 + A2)·B = A1·B + A2·B.
    #[test]
    fn gemm_is_linear(
        a1 in tensor_strategy(3, 5),
        a2 in tensor_strategy(3, 5),
        b in tensor_strategy(5, 4),
    ) {
        let mut a_sum = a1.clone();
        a_sum.add_assign(&a2);
        let lhs = matmul(&a_sum, &b);
        let mut rhs = matmul(&a1, &b);
        rhs.add_assign(&matmul(&a2, &b));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// <im2col(x), y> = <x, col2im(y)> — adjointness, the backbone of the
    /// convolution backward pass.
    #[test]
    fn im2col_col2im_adjoint(
        x_data in prop::collection::vec(-1.0f32..1.0, 2 * 2 * 6 * 6),
        y_seed in 0u64..1000,
    ) {
        let d = Conv2dDims {
            batch: 2, in_c: 2, in_h: 6, in_w: 6, out_c: 1, kernel: 3, stride: 1, pad: 1,
        };
        let x = Tensor::from_vec(vec![2, 2, 6, 6], x_data);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(y_seed);
        let y = Tensor::from_vec(
            vec![d.k_dim(), d.p_dim()],
            (0..d.k_dim() * d.p_dim()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let ax = im2col(&x, d);
        let aty = col2im(&y, d);
        let lhs: f64 = ax.data().iter().zip(y.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        let rhs: f64 = x.data().iter().zip(aty.data()).map(|(a, b)| (*a as f64) * (*b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "{lhs} vs {rhs}");
    }

    /// Convolution with a 1×1 all-ones kernel sums channels.
    #[test]
    fn conv_1x1_ones_sums_channels(
        x_data in prop::collection::vec(-1.0f32..1.0, 3 * 4 * 4),
    ) {
        let d = Conv2dDims {
            batch: 1, in_c: 3, in_h: 4, in_w: 4, out_c: 1, kernel: 1, stride: 1, pad: 0,
        };
        let x = Tensor::from_vec(vec![1, 3, 4, 4], x_data);
        let w = Tensor::full(vec![1, 3, 1, 1], 1.0);
        let out = conv2d(&x, &w, d);
        for p in 0..16 {
            let want: f32 = (0..3).map(|c| x.data()[c * 16 + p]).sum();
            prop_assert!((out.data()[p] - want).abs() < 1e-5);
        }
    }

    /// Max pooling never invents values and dominates the average.
    #[test]
    fn max_pool_bounds(x_data in prop::collection::vec(-5.0f32..5.0, 4 * 4)) {
        let x = Tensor::from_vec(vec![1, 1, 4, 4], x_data);
        let pooled = max_pool2d(&x, 2);
        let max_in = x.data().iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        for &v in pooled.output.data() {
            prop_assert!(v <= max_in);
            prop_assert!(x.data().contains(&v));
        }
        let gap = global_avg_pool(&x);
        let pooled_max = pooled.output.data().iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        prop_assert!(gap.data()[0] <= pooled_max + 1e-6);
    }

    /// Row/col sums are consistent with the total.
    #[test]
    fn sums_are_consistent(t in tensor_strategy(5, 7)) {
        let total: f64 = t.data().iter().map(|&v| v as f64).sum();
        let by_rows: f64 = row_sums(&t).iter().map(|&v| v as f64).sum();
        let by_cols: f64 = col_sums(&t).iter().map(|&v| v as f64).sum();
        prop_assert!((total - by_rows).abs() < 1e-3);
        prop_assert!((total - by_cols).abs() < 1e-3);
    }
}

proptest! {
    /// Threaded GEMMs are bit-identical to sequential ones for every worker
    /// count and all three orientations: row panels are sharded at the
    /// micro-kernel granularity, and each output element accumulates its
    /// products in the same order no matter how many workers run.
    #[test]
    fn threaded_matmul_is_bit_identical_to_sequential(
        m in 1usize..=64,
        k in 32usize..=96,
        n in 32usize..=96,
        seed in 0u64..=u64::MAX,
        workers in 2usize..=9,
    ) {
        let a = tensor_from_seed(vec![m, k], seed);
        let b = tensor_from_seed(vec![k, n], seed ^ 0x9E37_79B9);
        let bt = tensor_from_seed(vec![n, k], seed ^ 0x517C_C1B7);
        let at = tensor_from_seed(vec![k, m], seed ^ 0x2545_F491);
        let saved = fast_tensor::parallelism();
        fast_tensor::set_parallelism(fast_tensor::Parallelism::sequential());
        let s_nn = matmul(&a, &b);
        let s_nt = matmul_nt(&a, &bt);
        let s_tn = matmul_tn(&at, &b);
        fast_tensor::set_parallelism(fast_tensor::Parallelism::new(workers));
        let t_nn = matmul(&a, &b);
        let t_nt = matmul_nt(&a, &bt);
        let t_tn = matmul_tn(&at, &b);
        fast_tensor::set_parallelism(saved);
        for (x, y) in s_nn.data().iter().zip(t_nn.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in s_nt.data().iter().zip(t_nt.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in s_tn.data().iter().zip(t_tn.data()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

fn tensor_from_seed(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
    )
}

// ---------------------------------------------------------------------------
// The two oracles. The dense kernels, and every `qmatmul*` pair that is not
// packed×packed along the reduction axis, must reproduce `chain_oracle` bit
// for bit: one chain per output element, `acc = 0.0; acc += a·b`, ascending
// `k`. Packed pairs the integer kernels take must reproduce the segment
// oracle (`support/segment_oracle.rs`). Neither loop shares code with the
// kernels it pins.
// ---------------------------------------------------------------------------

/// `C[i][j] = Σ_p a(i, p) · b(p, j)` as one serial chain per element.
/// `skip` applies `matmul_tn`'s documented zero-skip rule (visible only
/// against non-finite `b`): aligned blocks of four steps whose `a`
/// coefficients are all zero are left out, as are zero steps of the
/// `k % 4` tail.
fn chain_oracle(
    (m, k, n): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
    skip: bool,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let p4 = p / 4 * 4;
                let skipped = skip
                    && if p4 + 4 <= k {
                        (p4..p4 + 4).all(|q| a(i, q) == 0.0)
                    } else {
                        a(i, p) == 0.0
                    };
                if !skipped {
                    acc += a(i, p) * b(p, j);
                }
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Finite values bit for bit; NaNs by NaN-ness (the payload and sign a NaN
/// product inherits depend on the operand order the optimizer picks).
fn same_bits(got: &Tensor, want: &[f32], tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.data().len(), want.len(), "{} length", tag);
    for (i, (g, w)) in got.data().iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{} elem {}: {} vs {}",
            tag,
            i,
            g,
            w
        );
    }
    Ok(())
}

/// Conv geometry with planes sized back from the output shape `(oh, ow)`;
/// `slack` adds trailing rows/columns that floor division leaves uncovered.
/// Rejects the case when the padding swallows the plane.
fn dims_from_output(
    kernel: usize,
    stride: usize,
    pad: usize,
    (oh, ow): (usize, usize),
    slack: usize,
    batch: usize,
    in_c: usize,
) -> Result<Conv2dDims, TestCaseError> {
    let extent = |o: usize| ((o - 1) * stride + kernel + slack % stride).checked_sub(2 * pad);
    match (extent(oh), extent(ow)) {
        (Some(in_h), Some(in_w)) if in_h > 0 && in_w > 0 => Ok(Conv2dDims {
            batch,
            in_c,
            in_h,
            in_w,
            out_c: 1,
            kernel,
            stride,
            pad,
        }),
        _ => Err(TestCaseError::Reject),
    }
}

/// `col2im` as the per-element scatter it was before it added row spans —
/// the definition of the order in which each input pixel receives its
/// `(kh, kw)` contributions.
fn col2im_scatter(cols: &Tensor, d: Conv2dDims) -> Vec<f32> {
    let (oh, ow) = (d.out_h(), d.out_w());
    let p_dim = d.p_dim();
    let mut od = vec![0.0f32; d.batch * d.in_c * d.in_h * d.in_w];
    let cd = cols.data();
    for b in 0..d.batch {
        for c in 0..d.in_c {
            for kh in 0..d.kernel {
                for kw in 0..d.kernel {
                    let krow = (c * d.kernel + kh) * d.kernel + kw;
                    for oy in 0..oh {
                        let iy = (oy * d.stride + kh) as isize - d.pad as isize;
                        if iy < 0 || iy >= d.in_h as isize {
                            continue;
                        }
                        let iy = iy as usize;
                        for ox in 0..ow {
                            let ix = (ox * d.stride + kw) as isize - d.pad as isize;
                            if ix < 0 || ix >= d.in_w as isize {
                                continue;
                            }
                            let p = (b * oh + oy) * ow + ox;
                            od[((b * d.in_c + c) * d.in_h + iy) * d.in_w + ix as usize] +=
                                cd[krow * p_dim + p];
                        }
                    }
                }
            }
        }
    }
    od
}

proptest! {
    /// `col2im` adds the same f32 values in the same order as the scatter
    /// (the adjoint tests above would pass a reordered sum): unit stride —
    /// the span add — and strided, kernels that overhang the padding on
    /// both sides, single-column and 17-wide output rows, non-square planes
    /// whose last rows/columns no window reaches, and `±∞`/`NaN`/`−0.0`
    /// payloads.
    #[test]
    fn col2im_matches_the_scatter_bitwise(
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        ow in prop::sample::select(vec![1usize, 3, 4, 16, 17]),
        oh in prop::sample::select(vec![1usize, 2, 5]),
        slack in 0usize..3,
        batch in 2usize..=3,
        in_c in 1usize..=3,
        seed in 0u64..1 << 32,
    ) {
        let d = dims_from_output(kernel, stride, pad, (oh, ow), slack, batch, in_c)?;
        let (in_h, in_w) = (d.in_h, d.in_w);
        prop_assert_eq!((d.out_h(), d.out_w()), (oh, ow));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let wild = seed % 2 == 0;
        let data = (0..d.k_dim() * d.p_dim())
            .map(|_| match rng.gen_range(0u32..20) {
                0..=2 => 0.0,
                3 => -0.0,
                4 if wild => f32::INFINITY,
                5 if wild => f32::NEG_INFINITY,
                6 if wild => f32::NAN,
                _ => rng.gen_range(-2.0f32..2.0) * (rng.gen_range(-20i32..20) as f32).exp2(),
            })
            .collect();
        let cols = Tensor::from_vec(vec![d.k_dim(), d.p_dim()], data);
        let got = col2im(&cols, d);
        prop_assert_eq!(got.shape(), &[batch, in_c, in_h, in_w][..]);
        same_bits(&got, &col2im_scatter(&cols, d), "col2im")?;
    }
}

/// `im2col` as the per-element gather that defines it: element `(krow, p)`
/// is the input pixel under kernel tap `krow` at output position `p`, or
/// `+0.0` in the padding. Also returns which input elements some patch read.
fn im2col_gather(x: &Tensor, d: Conv2dDims) -> (Vec<f32>, Vec<bool>) {
    let (oh, ow) = (d.out_h(), d.out_w());
    let p_dim = d.p_dim();
    let mut cols = vec![0.0f32; d.k_dim() * p_dim];
    let mut covered = vec![false; x.numel()];
    for krow in 0..d.k_dim() {
        let (c, kh, kw) = (
            krow / (d.kernel * d.kernel),
            krow / d.kernel % d.kernel,
            krow % d.kernel,
        );
        for p in 0..p_dim {
            let (b, oy, ox) = (p / (oh * ow), p / ow % oh, p % ow);
            let iy = (oy * d.stride + kh) as isize - d.pad as isize;
            let ix = (ox * d.stride + kw) as isize - d.pad as isize;
            if iy < 0 || ix < 0 || iy >= d.in_h as isize || ix >= d.in_w as isize {
                continue;
            }
            let at = ((b * d.in_c + c) * d.in_h + iy as usize) * d.in_w + ix as usize;
            cols[krow * p_dim + p] = x.data()[at];
            covered[at] = true;
        }
    }
    (cols, covered)
}

proptest! {
    /// The row filler is the patch geometry: applied to whole rows
    /// (`im2col`) and to arbitrary column ranges written over a poisoned
    /// buffer, it reproduces the gather bit for bit — padding as explicit
    /// `+0.0` — and `covers_input` is exactly "no input element is unread".
    /// Same geometry family as the `col2im` oracle, plus 8-wide rows and the
    /// "same" convolutions (`OW = in_w`) whose runs the filler merges.
    #[test]
    fn im2col_rows_match_the_gather_bitwise(
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        ow in prop::sample::select(vec![1usize, 3, 4, 8, 16, 17]),
        oh in prop::sample::select(vec![1usize, 2, 5]),
        slack in 0usize..3,
        batch in 2usize..=3,
        in_c in 1usize..=3,
        seed in 0u64..1 << 32,
    ) {
        let d = dims_from_output(kernel, stride, pad, (oh, ow), slack, batch, in_c)?;
        let (in_h, in_w) = (d.in_h, d.in_w);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..batch * in_c * in_h * in_w)
            .map(|_| match rng.gen_range(0u32..12) {
                0 => -0.0,
                1 => f32::NAN,
                2 => f32::NEG_INFINITY,
                _ => rng.gen_range(-2.0f32..2.0) * (rng.gen_range(-20i32..20) as f32).exp2(),
            })
            .collect();
        let x = Tensor::from_vec(vec![batch, in_c, in_h, in_w], data);
        let (want, covered) = im2col_gather(&x, d);
        same_bits(&im2col(&x, d), &want, "im2col")?;
        let rows = Im2colRows::new(&x, d);
        prop_assert_eq!(rows.covers_input(), covered.iter().all(|&c| c));
        let p_dim = d.p_dim();
        for krow in 0..d.k_dim() {
            for _ in 0..4 {
                let p0 = rng.gen_range(0..p_dim);
                let len = rng.gen_range(0..=(p_dim - p0).min(40));
                let mut got = vec![f32::from_bits(0x7FC0_BEEF); len];
                rows.fill_row(krow, p0, &mut got);
                let want_bits: Vec<u32> =
                    want[krow * p_dim + p0..][..len].iter().map(|v| v.to_bits()).collect();
                let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got_bits, want_bits, "row {} cols {}+{}", krow, p0, len);
            }
        }
    }
}

/// A random packed matrix (a quarter of the mantissas and a tenth of the
/// scales exactly zero) and its dense twin, read back value by value.
fn random_pack(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> (PackedMat, Tensor) {
    let group = [3usize, 16][rng.gen_range(0usize..2)];
    let layout = [PackLayout::RowGroups, PackLayout::ColGroups][rng.gen_range(0usize..2)];
    pack_with(rows, cols, group, layout, (15, -12..4), rng)
}

/// [`random_pack`] with the group, layout, mantissa bound and scale
/// exponents chosen.
fn pack_with(
    rows: usize,
    cols: usize,
    group: usize,
    layout: PackLayout,
    (max_man, exps): (i8, std::ops::Range<i32>),
    rng: &mut rand::rngs::StdRng,
) -> (PackedMat, Tensor) {
    let mans: Vec<i8> = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(0.25) {
                0
            } else {
                rng.gen_range(-max_man..=max_man)
            }
        })
        .collect();
    let n_scales = match layout {
        PackLayout::RowGroups => rows * cols.div_ceil(group).max(1),
        PackLayout::ColGroups => rows.div_ceil(group).max(1) * cols,
    };
    let scales: Vec<f32> = (0..n_scales)
        .map(|_| {
            if rng.gen_bool(0.1) {
                0.0
            } else {
                2.0f32.powi(rng.gen_range(exps.clone()))
            }
        })
        .collect();
    let p = match layout {
        PackLayout::RowGroups => PackedMat::new(rows, cols, group, mans, scales),
        PackLayout::ColGroups => col_grouped(rows, cols, group, &mans, &scales),
    };
    let dense = (0..rows * cols)
        .map(|at| p.value(at / cols.max(1), at % cols.max(1)))
        .collect();
    (p, Tensor::from_vec(vec![rows, cols], dense))
}

/// Random dense data; with `wild`, a sprinkling of `±∞` and `NaN`.
fn random_dense(rows: usize, cols: usize, wild: bool, rng: &mut rand::rngs::StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0u32..16) {
            0..=3 => 0.0,
            4 if wild => f32::INFINITY,
            5 if wild => f32::NEG_INFINITY,
            6 if wild => f32::NAN,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

/// Row counts on every side of the tile edges: one lane, 7/8/9 around the
/// 8-lane panel, 16/17 around the 16-lane one, 33 past a full 32, odd
/// counts off every block height, and 70 so the work-size heuristic really
/// shards.
fn edge_rows() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 3, 4, 7, 8, 9, 16, 17, 33, 40, 70])
}

/// Reduction depths on both sides of the NT kernel's 256-step chunk (and
/// of the four-step skip blocks).
fn edge_depths() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 3, 6, 7, 64, 255, 256, 257, 513])
}

/// The oracle a `qmatmul*` pair must reproduce: the segment oracle when
/// both sides are packed and the integer kernels take them, the chain over
/// the dequantized values (`chain`) otherwise.
fn pair_oracle(orient: Orient, a: Operand, b: Operand, chain: &[f32]) -> Vec<f32> {
    match (a, b) {
        (Operand::Packed(x), Operand::Packed(y)) if runs_integer(orient, a, b) => {
            segment_product(orient, x, y)
        }
        _ => chain.to_vec(),
    }
}

proptest! {
    /// `matmul_nt`, `matmul_tn` and all four dense/packed mixes of
    /// `qmatmul_nt` / `qmatmul_tn` against their oracle, for 1, 2 and 3
    /// workers. `m` and `n` are drawn independently, so both NT staging
    /// sides (`m ≤ n`, `m > n`) run.
    #[test]
    fn backward_orientations_match_the_chain_oracle(
        m in edge_rows(),
        k in edge_depths(),
        n in edge_rows(),
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let saved = fast_tensor::parallelism();
        let result = (|| -> Result<(), TestCaseError> {
            // NT: A m×k, B n×k.
            let (pa, da) = random_pack(m, k, &mut rng);
            let (pb, db) = random_pack(n, k, &mut rng);
            let nt_want = chain_oracle(
                (m, k, n),
                |i, p| da.data()[i * k + p],
                |p, j| db.data()[j * k + p],
                false,
            );
            // TN: A k×m, B k×n.
            let (pat, dat) = random_pack(k, m, &mut rng);
            let (pbn, dbn) = random_pack(k, n, &mut rng);
            let tn_want = chain_oracle(
                (m, k, n),
                |i, p| dat.data()[p * m + i],
                |p, j| dbn.data()[p * n + j],
                false,
            );
            // Dense kernels on arbitrary input: non-finite values anywhere
            // for NT; for TN a finite B (no skip visible) and a non-finite
            // one (the documented skip rule).
            let (wa, wb) = (random_dense(m, k, true, &mut rng), random_dense(n, k, true, &mut rng));
            let wild_nt = chain_oracle(
                (m, k, n),
                |i, p| wa.data()[i * k + p],
                |p, j| wb.data()[j * k + p],
                false,
            );
            let wat = random_dense(k, m, true, &mut rng);
            let fin_b = random_dense(k, n, false, &mut rng);
            let mut inf_b = fin_b.clone();
            for _ in 0..1 + k * n / 16 {
                inf_b.data_mut()[rng.gen_range(0..k * n)] = f32::INFINITY;
            }
            let tn_oracle = |b: &Tensor, skip: bool| {
                chain_oracle(
                    (m, k, n),
                    |i, p| wat.data()[p * m + i],
                    |p, j| b.data()[p * n + j],
                    skip,
                )
            };
            let (fin_tn, inf_tn) = (tn_oracle(&fin_b, false), tn_oracle(&inf_b, true));

            for workers in 1..=3 {
                fast_tensor::set_parallelism(fast_tensor::Parallelism::new(workers));
                let tag = |what: &str| format!("{what} ({m},{k},{n}) workers={workers}");
                same_bits(&matmul_nt(&wa, &wb), &wild_nt, &tag("matmul_nt wild"))?;
                same_bits(&matmul_tn(&wat, &fin_b), &fin_tn, &tag("matmul_tn finite B"))?;
                same_bits(&matmul_tn(&wat, &inf_b), &inf_tn, &tag("matmul_tn non-finite B"))?;
                use Operand::{Dense as D, Packed as P};
                for (a, b, mix) in [
                    (D(&da), D(&db), "dd"),
                    (D(&da), P(&pb), "dp"),
                    (P(&pa), D(&db), "pd"),
                    (P(&pa), P(&pb), "pp"),
                ] {
                    let want = pair_oracle(Orient::Nt, a, b, &nt_want);
                    same_bits(&qmatmul_nt(a, b), &want, &tag(&format!("qmatmul_nt {mix}")))?;
                }
                for (a, b, mix) in [
                    (D(&dat), D(&dbn), "dd"),
                    (D(&dat), P(&pbn), "dp"),
                    (P(&pat), D(&dbn), "pd"),
                    (P(&pat), P(&pbn), "pp"),
                ] {
                    let want = pair_oracle(Orient::Tn, a, b, &tn_want);
                    same_bits(&qmatmul_tn(a, b), &want, &tag(&format!("qmatmul_tn {mix}")))?;
                }
            }
            Ok(())
        })();
        fast_tensor::set_parallelism(saved);
        result?;
    }
}

/// Lane counts on both sides of the NN kernel's 32-column tile: tail-only
/// panels, one full panel, a full panel plus a tail, two plus a tail.
fn edge_lanes() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 5, 8, 17, 31, 32, 33, 40, 70])
}

/// Zeroes whole aligned blocks of four along each row (about one in four),
/// so the skip rule's block case is not left to chance.
fn zero_blocks(t: &mut Tensor, rng: &mut rand::rngs::StdRng) {
    let k = t.shape()[1];
    for row in t.data_mut().chunks_mut(k.max(1)) {
        for block in row.chunks_mut(4) {
            if rng.gen_bool(0.25) {
                block.fill(0.0);
            }
        }
    }
}

proptest! {
    /// `matmul` and all four dense/packed mixes of `qmatmul` against their
    /// oracle, for 1, 2 and 3 workers: every `m % 4` remainder and
    /// one or two full row quads, lane counts off the 32-wide tile, and
    /// dense `B` with and without `∞`/`NaN` (where the skip rule shows).
    #[test]
    fn forward_orientation_matches_the_chain_oracle(
        m in 1usize..=9,
        k in edge_depths(),
        n in edge_lanes(),
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let saved = fast_tensor::parallelism();
        let result = (|| -> Result<(), TestCaseError> {
            let (pa, da) = random_pack(m, k, &mut rng);
            let (pb, db) = random_pack(k, n, &mut rng);
            let oracle = |a: &Tensor, b: &Tensor, skip: bool| {
                chain_oracle(
                    (m, k, n),
                    |i, p| a.data()[i * k + p],
                    |p, j| b.data()[p * n + j],
                    skip,
                )
            };
            let want = oracle(&da, &db, false);
            let mut wa = random_dense(m, k, true, &mut rng);
            zero_blocks(&mut wa, &mut rng);
            let fin_b = random_dense(k, n, false, &mut rng);
            let mut inf_b = fin_b.clone();
            for _ in 0..1 + k * n / 16 {
                let at = rng.gen_range(0..k * n);
                inf_b.data_mut()[at] = if rng.gen_bool(0.5) { f32::INFINITY } else { f32::NAN };
            }
            let (fin, inf) = (oracle(&wa, &fin_b, false), oracle(&wa, &inf_b, true));
            let packed_inf = oracle(&da, &inf_b, true);

            for workers in 1..=3 {
                fast_tensor::set_parallelism(fast_tensor::Parallelism::new(workers));
                let tag = |what: &str| format!("{what} ({m},{k},{n}) workers={workers}");
                same_bits(&matmul(&wa, &fin_b), &fin, &tag("matmul finite B"))?;
                same_bits(&matmul(&wa, &inf_b), &inf, &tag("matmul non-finite B"))?;
                use Operand::{Dense as D, Packed as P};
                let got = qmatmul(P(&pa), D(&inf_b));
                same_bits(&got, &packed_inf, &tag("qmatmul pd non-finite B"))?;
                for (a, b, mix) in [
                    (D(&da), D(&db), "dd"),
                    (D(&da), P(&pb), "dp"),
                    (P(&pa), D(&db), "pd"),
                    (P(&pa), P(&pb), "pp"),
                ] {
                    let want = pair_oracle(Orient::Nn, a, b, &want);
                    same_bits(&qmatmul(a, b), &want, &tag(&format!("qmatmul {mix}")))?;
                }
            }
            Ok(())
        })();
        fast_tensor::set_parallelism(saved);
        result?;
    }
}

/// The shape that made a served response depend on its batch: row
/// `a = e₀ + 2⁻¹³·(e₁₆ + … + e₂₃)` against `B` with row 0 all `1.0` and
/// rows 16–23 all `2⁻¹²`. The chain adds each `2⁻²⁵` to `1.0` and rounds it
/// away; an eight-wide pairwise tree sums them to `2⁻²²` first and keeps
/// it. Every row count must read the chain's `1.0` where a dense operand
/// runs the chain; the packed pair runs the integer kernel, whose second
/// segment adds the eight terms as one exact `2⁻²²`, and must read that at
/// every row count.
#[test]
fn inexact_row_reads_the_chain_at_every_row_count() {
    let (k, n) = (32, 32);
    let tiny = 2.0f32.powi(-13);
    let mut a_row = vec![0.0f32; k];
    a_row[0] = 1.0;
    a_row[16..24].fill(tiny);
    let mut b = vec![0.0f32; k * n];
    b[..n].fill(1.0);
    b[16 * n..24 * n].fill(2.0 * tiny);
    let b = Tensor::from_vec(vec![k, n], b);
    // The same values packed: groups of 16 along A's rows and down B's
    // columns, every nonzero mantissa 1.
    let mut a_mans = vec![0i8; k];
    a_mans[0] = 1;
    a_mans[16..24].fill(1);
    let mut b_mans = vec![0i8; k * n];
    b_mans[..n].fill(1);
    b_mans[16 * n..24 * n].fill(1);
    let b_scales = [vec![1.0f32; n], vec![2.0 * tiny; n]].concat();
    let pb = col_grouped(k, n, 16, &b_mans, &b_scales);
    for m in 1..=9 {
        let a = Tensor::from_vec(vec![m, k], a_row.repeat(m));
        let scales = [1.0, tiny].repeat(m);
        let pa = PackedMat::new(m, k, 16, a_mans.repeat(m), scales);
        let want = chain_oracle(
            (m, k, n),
            |i, p| a.data()[i * k + p],
            |p, j| b.data()[p * n + j],
            false,
        );
        assert!(want.iter().all(|v| *v == 1.0));
        use Operand::{Dense as D, Packed as P};
        let segments = segment_product(Orient::Nn, &pa, &pb);
        assert!(segments.iter().all(|v| *v == 1.0 + 2.0f32.powi(-22)));
        for (got, want, what) in [
            (matmul(&a, &b), &want, "matmul"),
            (qmatmul(P(&pa), D(&b)), &want, "pd"),
            (qmatmul(D(&a), P(&pb)), &want, "dp"),
            (qmatmul(P(&pa), P(&pb)), &segments, "pp"),
        ] {
            let bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want_bits, "{what} m={m}");
        }
    }
}

/// Row `i` of a `RowGroups` packed matrix as a one-row packed matrix.
fn packed_row(p: &PackedMat, i: usize) -> PackedMat {
    let (k, g) = (p.cols(), p.group());
    PackedMat::new(
        1,
        k,
        g,
        (0..k).map(|j| p.mantissa(i, j)).collect(),
        (0..k.div_ceil(g).max(1))
            .map(|b| p.scale(i, b * g))
            .collect(),
    )
}

proptest! {
    /// Batch transparency at the kernel: row `i` of an `m`-row `Nn` product
    /// equals the one-row product of row `i` bit for bit, for every operand
    /// mix. Scales spread over 2⁻²⁴…2⁸ so sums are inexact and a summation
    /// order that changed with the row's position would show.
    #[test]
    fn nn_rows_do_not_depend_on_the_batch(
        m in prop::sample::select(vec![1usize, 2, 3, 4, 5, 8, 9]),
        k in edge_depths(),
        n in edge_lanes(),
        group in prop::sample::select(vec![3usize, 16]),
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pa, da) = pack_with(m, k, group, PackLayout::RowGroups, (15, -24..8), &mut rng);
        let (pb, db) = pack_with(k, n, group, PackLayout::ColGroups, (15, -24..8), &mut rng);
        use Operand::{Dense as D, Packed as P};
        let whole = [
            qmatmul(D(&da), D(&db)),
            qmatmul(D(&da), P(&pb)),
            qmatmul(P(&pa), D(&db)),
            qmatmul(P(&pa), P(&pb)),
        ];
        for i in 0..m {
            let (ra, rp) = (Tensor::from_vec(vec![1, k], da.data()[i * k..(i + 1) * k].to_vec()), packed_row(&pa, i));
            let single = [
                qmatmul(D(&ra), D(&db)),
                qmatmul(D(&ra), P(&pb)),
                qmatmul(P(&rp), D(&db)),
                qmatmul(P(&rp), P(&pb)),
            ];
            for (mix, (w, s)) in ["dd", "dp", "pd", "pp"].iter().zip(whole.iter().zip(&single)) {
                let tag = format!("{mix} row {i} of ({m},{k},{n})");
                same_bits(s, &w.data()[i * n..(i + 1) * n], &tag)?;
            }
        }
    }
}

proptest! {
    /// Every packed pair the integer kernels take, in all three
    /// orientations, against the segment oracle bit for bit: group sizes
    /// {2, 5, 16, 32} drawn independently per side (unequal groups split
    /// segments; odd ones leave the vector kernel), odd depths (the padded
    /// last k-quad), row and lane counts off every tile edge, 7-bit
    /// mantissas, and scales over 2⁻²⁴…2⁸ so the cross-segment f32 adds
    /// round — an accumulator kept in f64 across segments fails here — for
    /// 1, 2 and 3 workers.
    #[test]
    fn packed_pairs_match_the_segment_oracle(
        m in edge_rows(),
        k in edge_depths(),
        n in edge_rows(),
        ga in prop::sample::select(vec![2usize, 5, 16, 32]),
        gb in prop::sample::select(vec![2usize, 5, 16, 32]),
        seed in 0u64..=u64::MAX,
    ) {
        use PackLayout::{ColGroups as C, RowGroups as R};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pack = |rows, cols, g, layout| pack_with(rows, cols, g, layout, (127, -24..8), &mut rng).0;
        let cases = [
            (Orient::Nn, pack(m, k, ga, R), pack(k, n, gb, C)),
            (Orient::Nt, pack(m, k, ga, R), pack(n, k, gb, R)),
            (Orient::Tn, pack(k, m, ga, C), pack(k, n, gb, C)),
        ];
        let saved = fast_tensor::parallelism();
        let result = (|| -> Result<(), TestCaseError> {
            for (orient, a, b) in &cases {
                let want = segment_product(*orient, a, b);
                let (x, y) = (Operand::Packed(a), Operand::Packed(b));
                prop_assert!(runs_integer(*orient, x, y));
                for workers in 1..=3 {
                    fast_tensor::set_parallelism(fast_tensor::Parallelism::new(workers));
                    let got = match orient {
                        Orient::Nn => qmatmul(x, y),
                        Orient::Nt => qmatmul_nt(x, y),
                        Orient::Tn => qmatmul_tn(x, y),
                    };
                    let tag = format!("{orient:?} ({m},{k},{n}) g={ga}/{gb} workers={workers}");
                    same_bits(&got, &want, &tag)?;
                }
            }
            Ok(())
        })();
        fast_tensor::set_parallelism(saved);
        result?;
    }
}
