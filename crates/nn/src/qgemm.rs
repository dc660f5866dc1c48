//! The shared quantized-GEMM execution plan.
//!
//! Every GEMM a layer runs — forward, both backward orientations, the
//! frozen serving path, and attention's inner score/context products — is
//! expressed as *prepare the two operands, then execute one orientation*:
//!
//! 1. [`prepare`] / [`prepare_owned`] / [`prepare_slice`] quantize one
//!    operand according to its [`NumericFormat`], choosing the cheapest
//!    faithful representation: FP32 operands are **borrowed** (no copy at
//!    all), packable BFP operands become a [`PackedMat`] (integer `i8`
//!    mantissas + per-group scales, no dequantized f32 copy), and
//!    everything else falls back to a quantized dense copy.
//!    [`prepare_patches`] does the same for a conv layer's `im2col`
//!    operand straight from the NCHW tensor: the pack kernels gather the
//!    patches tile by tile, so the `K × P` f32 matrix is never written.
//! 2. [`execute`] multiplies the prepared operands through
//!    `fast_tensor::qgemm`: a packed×packed pair grouped along the
//!    reduction axis runs the integer kernels — `i8×i8→i32` mantissa dot
//!    products, the paper's fMAC (DESIGN.md §11) — and any other pair runs
//!    the dense kernels on its dequantized operands.
//!
//! Every pair with a dense side is therefore **bit-identical** to the
//! historical quantize-a-copy + `matmul{,_nt,_tn}` pipeline, for every
//! format, rounding mode and input; a packed pair is bit-identical to the
//! segment oracle over the same quantized operands (both pinned by
//! `crates/nn/tests/proptests.rs`; argument in DESIGN.md §9).
//!
//! Operand preparation quantizes with the [`Noise`] the [`Session`] hands
//! it for the operand: for an SR-rounded BFP format, `rows × cols` freshly
//! reserved positions of the session's counter stream, quantized
//! order-independently — shardable across worker threads with
//! bit-identical results (DESIGN.md §12).
//!
//! [`execute`] is also the system's single software instrumentation point:
//! it accumulates GEMM/MAC counts and fused [`QuantStats`] into
//! [`Session::plan_stats`], next to the [`QuantControlled`] state the FAST
//! controller reads and the [`GemmShape`]s the hardware cost meter consumes.
//!
//! [`QuantControlled`]: crate::QuantControlled
//! [`GemmShape`]: crate::GemmShape

use crate::layer::Session;
use crate::quant::NumericFormat;
use fast_bfp::packed::{pack_rows, DenseRows, FillRows, RowSource, MAX_PACKED_MANTISSA_BITS};
use fast_bfp::{GroupAxis, Noise, QuantStats};
use fast_tensor::qgemm::{
    qmatmul, qmatmul_nt, qmatmul_tn, runs_integer, Operand, PackLayout, PackedMat,
};
use fast_tensor::{im2col, Conv2dDims, Im2colRows, Tensor};

pub use fast_tensor::qgemm::Orient;

/// Counters accumulated by every plan execution (one instance lives on
/// [`Session`]): how much GEMM work ran and what quantization did to the
/// operands feeding it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// GEMMs executed through the plan.
    pub gemms: u64,
    /// Multiply-accumulates across those GEMMs (`m · k · n` each).
    pub macs: u64,
    /// Fused quantization counters from operand preparation.
    pub quant: QuantStats,
    /// Operands whose packable BFP format fell back to a dense copy because
    /// they held a NaN, an infinity or a subnormal. Serving reads it to keep
    /// a coalesced batch's kernel choice per sample (DESIGN.md §8). Not
    /// checkpoint state.
    pub refused_packs: u64,
}

/// An owned, reusable quantized operand — what frozen-weight caches hold.
#[derive(Debug, Clone)]
pub enum Prepared {
    /// A quantized (or FP32) dense tensor.
    Dense(Tensor),
    /// A packed-BFP matrix: `i8` mantissas plus per-group scales.
    Packed(PackedMat),
}

impl Prepared {
    /// A kernel-facing view of this operand.
    pub fn operand(&self) -> Operand<'_> {
        match self {
            Prepared::Dense(t) => Operand::Dense(t),
            Prepared::Packed(p) => Operand::Packed(p),
        }
    }

    /// The dense tensor, if this operand is dense.
    pub fn dense(&self) -> Option<&Tensor> {
        match self {
            Prepared::Dense(t) => Some(t),
            Prepared::Packed(_) => None,
        }
    }

    /// Materializes the dequantized dense tensor (tests; the GEMM entry
    /// points dequantize a packed operand themselves when its pair cannot
    /// run integer).
    pub fn to_tensor(&self) -> Tensor {
        match self {
            Prepared::Dense(t) => t.clone(),
            Prepared::Packed(p) => p.to_tensor(),
        }
    }

    /// Heap bytes this operand occupies — the packed form holds ~¼ of the
    /// dense f32 footprint for the paper's formats.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Prepared::Dense(t) => 4 * t.numel(),
            Prepared::Packed(p) => p.heap_bytes(),
        }
    }
}

/// A GEMM-ready operand for one execution: borrowed FP32, owned quantized,
/// or served from a frozen cache.
#[derive(Debug)]
pub enum GemmOperand<'a> {
    /// The unquantized tensor itself (FP32 format — identity quantization).
    Borrowed(&'a Tensor),
    /// A freshly prepared operand owned by this call site.
    Own(Prepared),
    /// A cached prepared operand (frozen weights).
    Cached(&'a Prepared),
}

impl GemmOperand<'_> {
    /// A kernel-facing view of this operand.
    pub fn operand(&self) -> Operand<'_> {
        match self {
            GemmOperand::Borrowed(t) => Operand::Dense(t),
            GemmOperand::Own(p) => p.operand(),
            GemmOperand::Cached(p) => p.operand(),
        }
    }
}

fn layout_of(axis: GroupAxis) -> PackLayout {
    match axis {
        GroupAxis::AlongRow => PackLayout::RowGroups,
        GroupAxis::AlongCol => PackLayout::ColGroups,
    }
}

/// Tries the packed representation of the operand `src` describes; `None`
/// for non-BFP formats and on pack refusal (wide mantissas, non-plain
/// inputs).
fn try_pack<S: RowSource>(
    noise: Noise,
    stats: &mut QuantStats,
    src: &S,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> Option<Prepared> {
    let NumericFormat::Bfp {
        format,
        rounding,
        windowed,
    } = fmt
    else {
        return None;
    };
    pack_rows(src, axis, format, rounding, noise, windowed).map(|p| {
        stats.merge(p.stats);
        Prepared::Packed(PackedMat::new(
            src.rows(),
            src.cols(),
            format.group_size(),
            layout_of(axis),
            p.mantissas,
            p.scales,
        ))
    })
}

/// Quantizes a raw `rows × cols` slice into an owned operand — the shared
/// core behind [`prepare`] / [`prepare_slice`] and the frozen-weight cache
/// builds (which bring their own deterministic noise instead of the
/// session's).
pub(crate) fn quantize_operand(
    noise: Noise,
    stats: &mut QuantStats,
    data: &[f32],
    rows: usize,
    cols: usize,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> Prepared {
    if let Some(p) = try_pack(noise, stats, &DenseRows::new(data, rows, cols), fmt, axis) {
        return p;
    }
    // Dense fallback: wide mantissas, non-plain inputs, scalar formats —
    // and the identity copy for FP32 (callers that can borrow instead use
    // `prepare`). Noise is positional, so the quantization here draws what
    // the refused pack would have.
    let mut buf = data.to_vec();
    stats.merge(fmt.quantize_slice_stats(&mut buf, rows, cols, axis, noise));
    Prepared::Dense(Tensor::from_vec(vec![rows, cols], buf))
}

/// `(rows, cols)` of a GEMM operand tensor.
///
/// # Panics
///
/// Panics if `t` is not rank-2.
fn dims_of(t: &Tensor) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "GEMM operands must be rank-2");
    (t.shape()[0], t.shape()[1])
}

/// Records a session-prepared operand: telemetry, plus
/// [`PlanStats::refused_packs`] when a BFP format narrow enough to pack
/// came out dense — the operand held a value the packer refuses.
fn noted<'a>(session: &mut Session, fmt: NumericFormat, op: GemmOperand<'a>) -> GemmOperand<'a> {
    let packable = matches!(fmt, NumericFormat::Bfp { format, .. }
        if format.mantissa_bits() <= MAX_PACKED_MANTISSA_BITS);
    if packable && matches!(op, GemmOperand::Own(Prepared::Dense(_))) {
        session.plan_stats.refused_packs += 1;
    }
    crate::telemetry::note_operand(&op);
    op
}

/// Prepares a borrowed rank-2 tensor operand: FP32 formats borrow the
/// tensor outright (no copy), BFP formats pack, everything else quantizes a
/// copy.
///
/// # Panics
///
/// Panics if `t` is not rank-2.
pub fn prepare<'a>(
    session: &mut Session,
    t: &'a Tensor,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> GemmOperand<'a> {
    let _span = fast_telemetry::span!("qgemm.prepare");
    let op = if matches!(fmt, NumericFormat::Fp32) {
        GemmOperand::Borrowed(t)
    } else {
        let (rows, cols) = dims_of(t);
        let (noise, stats) = session.quant_parts(fmt, rows * cols);
        GemmOperand::Own(quantize_operand(
            noise,
            stats,
            t.data(),
            rows,
            cols,
            fmt,
            axis,
        ))
    };
    noted(session, fmt, op)
}

/// Prepares an owned rank-2 tensor operand, quantizing **in place** on the
/// dense fallback path (the right entry point for scratch matrices like a
/// conv layer's reshaped output gradient — no representation copies them).
///
/// # Panics
///
/// Panics if `t` is not rank-2.
pub fn prepare_owned(
    session: &mut Session,
    mut t: Tensor,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> GemmOperand<'static> {
    let _span = fast_telemetry::span!("qgemm.prepare");
    let mut packed = None;
    if !matches!(fmt, NumericFormat::Fp32) {
        let (rows, cols) = dims_of(&t);
        let (noise, stats) = session.quant_parts(fmt, rows * cols);
        packed = try_pack(
            noise,
            stats,
            &DenseRows::new(t.data(), rows, cols),
            fmt,
            axis,
        );
        if packed.is_none() {
            stats.merge(fmt.quantize_slice_stats(t.data_mut(), rows, cols, axis, noise));
        }
    }
    let op = GemmOperand::Own(packed.unwrap_or(Prepared::Dense(t)));
    noted(session, fmt, op)
}

/// Prepares the `im2col(x, d)` operand of a conv GEMM straight from the
/// NCHW tensor: a packable BFP format packs from the patch geometry without
/// materializing the `K × P` f32 matrix — same groups, shared exponents,
/// noise offsets and counters as `prepare_owned(session, im2col(x, d), ..)`,
/// bit for bit. The operand's `K·P` noise positions are reserved **once**;
/// on refusal (wide mantissa, non-plain value, non-BFP format) the matrix is
/// materialized and quantized in place against the same [`Noise`].
///
/// # Panics
///
/// Panics if `x` is not `(batch, in_c, in_h, in_w)` for `d`.
pub fn prepare_patches(
    session: &mut Session,
    x: &Tensor,
    d: Conv2dDims,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> GemmOperand<'static> {
    let _span = fast_telemetry::span!("qgemm.prepare");
    let (rows, cols) = (d.k_dim(), d.p_dim());
    let (noise, stats) = session.quant_parts(fmt, rows * cols);
    // The patch matrix as a pack source: rows are gathered into the
    // kernels' staging tile on demand. The prescan must see exactly the
    // virtual matrix, so the input stands in for it only when every input
    // element is in some patch.
    let patches = Im2colRows::new(x, d);
    let values = patches.covers_input().then(|| patches.input());
    let fill = |krow: usize, p0: usize, out: &mut [f32]| patches.fill_row(krow, p0, out);
    let src = FillRows::new(rows, cols, fill, values);
    let prepared = try_pack(noise, stats, &src, fmt, axis).unwrap_or_else(|| {
        let mut t = im2col(x, d);
        stats.merge(fmt.quantize_slice_stats(t.data_mut(), rows, cols, axis, noise));
        Prepared::Dense(t)
    });
    let op = GemmOperand::Own(prepared);
    noted(session, fmt, op)
}

/// Prepares an operand straight from a raw `rows × cols` slice (e.g. a
/// conv weight tensor viewed as its im2col matrix).
pub fn prepare_slice(
    session: &mut Session,
    data: &[f32],
    rows: usize,
    cols: usize,
    fmt: NumericFormat,
    axis: GroupAxis,
) -> GemmOperand<'static> {
    let _span = fast_telemetry::span!("qgemm.prepare");
    let (noise, stats) = session.quant_parts(fmt, rows * cols);
    let op = GemmOperand::Own(quantize_operand(noise, stats, data, rows, cols, fmt, axis));
    noted(session, fmt, op)
}

/// Executes one GEMM over prepared operands, accumulating
/// [`Session::plan_stats`] and the GEMM counters of the kernel that ran: the
/// integer kernels for a packed×packed pair whose quantization groups both
/// run along the reduction dimension, the dense kernels on the dequantized
/// operands for every other pair (DESIGN.md §11).
///
/// ```
/// use fast_bfp::{BfpFormat, GroupAxis};
/// use fast_nn::qgemm::{execute, prepare, Orient};
/// use fast_nn::{NumericFormat, Session};
/// use fast_tensor::Tensor;
///
/// let mut session = Session::eval(0);
/// let a = Tensor::from_vec(vec![2, 32], vec![0.25; 64]);
/// let w = Tensor::from_vec(vec![32, 3], vec![0.5; 96]);
/// let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
/// // Quantization groups along the reduction dim: A along its rows, W down
/// // its columns — the layouts the integer kernels take for `Nn`.
/// let ap = prepare(&mut session, &a, fmt, GroupAxis::AlongRow);
/// let wp = prepare(&mut session, &w, fmt, GroupAxis::AlongCol);
/// let o = execute(&mut session, Orient::Nn, &ap, &wp);
/// assert_eq!(o.shape(), &[2, 3]);
/// assert_eq!(session.plan_stats.gemms, 1);
/// ```
///
/// # Panics
///
/// Panics if the operand shapes disagree for the orientation.
pub fn execute(
    session: &mut Session,
    orient: Orient,
    a: &GemmOperand<'_>,
    b: &GemmOperand<'_>,
) -> Tensor {
    let (av, bv) = (a.operand(), b.operand());
    let (ar, ac) = av.dims();
    let (br, bc) = bv.dims();
    let (m, k, n) = match orient {
        Orient::Nn => (ar, ac, bc),
        Orient::Nt => (ar, ac, br),
        Orient::Tn => (ac, ar, bc),
    };
    let integer = runs_integer(orient, av, bv);
    session.plan_stats.gemms += 1;
    session.plan_stats.macs += (m * k * n) as u64;
    crate::telemetry::note_gemm(integer, (m * k * n) as u64);
    // One static span site per kernel family, so the split shows up in
    // fast_span_ns{span="qgemm.execute.<kernel>"} without a dynamic label;
    // the dense kernels keep the site name `replay` (DESIGN.md §15).
    let _span = if integer {
        fast_telemetry::span!("qgemm.execute.integer")
    } else {
        fast_telemetry::span!("qgemm.execute.replay")
    };
    match orient {
        Orient::Nn => qmatmul(av, bv),
        Orient::Nt => qmatmul_nt(av, bv),
        Orient::Tn => qmatmul_tn(av, bv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bfp::BfpFormat;
    use fast_tensor::matmul;

    fn tensor(rows: usize, cols: usize, seed: u32) -> Tensor {
        Tensor::from_vec(
            vec![rows, cols],
            (0..rows * cols)
                .map(|i| ((i as u32).wrapping_mul(2654435761 + seed) % 1000) as f32 * 0.002 - 1.0)
                .collect(),
        )
    }

    #[test]
    fn fp32_operands_are_borrowed_not_copied() {
        let mut s = Session::new(0);
        let t = tensor(4, 8, 1);
        let op = prepare(&mut s, &t, NumericFormat::Fp32, GroupAxis::AlongRow);
        assert!(matches!(op, GemmOperand::Borrowed(_)));
        assert_eq!(s.plan_stats.quant, QuantStats::default());
    }

    #[test]
    fn bfp_operands_pack_and_count_stats() {
        let mut s = Session::new(0);
        let t = tensor(4, 32, 2);
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let op = prepare(&mut s, &t, fmt, GroupAxis::AlongRow);
        assert!(matches!(op, GemmOperand::Own(Prepared::Packed(_))));
        assert_eq!(s.plan_stats.quant.groups, 8);
    }

    #[test]
    fn wide_mantissa_bfp_falls_back_to_dense() {
        let mut s = Session::new(0);
        let t = tensor(2, 16, 3);
        let fmt = NumericFormat::bfp_nearest(BfpFormat::new(16, 12, 8).unwrap());
        let op = prepare(&mut s, &t, fmt, GroupAxis::AlongRow);
        assert!(matches!(op, GemmOperand::Own(Prepared::Dense(_))));
        assert_eq!(s.plan_stats.quant.groups, 2);
        // The format refuses, not the values: nothing for serving to see.
        assert_eq!(s.plan_stats.refused_packs, 0);
    }

    #[test]
    fn non_plain_values_count_as_refused_packs() {
        let mut s = Session::new(0);
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        for (bad, refused) in [(0.5, 0), (f32::NAN, 1), (f32::INFINITY, 2), (1e-40, 3)] {
            let mut t = tensor(2, 16, 7);
            t.data_mut()[3] = bad;
            let _ = prepare(&mut s, &t, fmt, GroupAxis::AlongRow);
            assert_eq!(s.plan_stats.refused_packs, refused, "{bad:e}");
        }
        let _ = prepare(
            &mut s,
            &tensor(2, 16, 8),
            NumericFormat::Fp32,
            GroupAxis::AlongRow,
        );
        assert_eq!(
            s.plan_stats.refused_packs, 3,
            "FP32 borrows, it is never refused"
        );
    }

    #[test]
    fn execute_matches_reference_composition_and_meters() {
        let mut s = Session::new(0);
        let a = tensor(5, 32, 4);
        let b = tensor(32, 9, 5);
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let mut aq = a.clone();
        let mut bq = b.clone();
        let noise = Noise {
            rng: fast_bfp::CounterRng::new(0),
            base: 0,
            workers: 1,
        };
        fmt.quantize_matrix(&mut aq, GroupAxis::AlongRow, noise);
        fmt.quantize_matrix(&mut bq, GroupAxis::AlongCol, noise);

        // A dense side runs the chain over the quantized copies.
        let ap = prepare(&mut s, &a, fmt, GroupAxis::AlongRow);
        let got = execute(&mut s, Orient::Nn, &ap, &GemmOperand::Borrowed(&bq));
        assert_eq!(got, matmul(&aq, &bq));
        // The packed pair runs integer: the same GEMM to f32 rounding.
        let bp = prepare(&mut s, &b, fmt, GroupAxis::AlongCol);
        let got = execute(&mut s, Orient::Nn, &ap, &bp);
        for (g, w) in got.data().iter().zip(matmul(&aq, &bq).data()) {
            assert!((g - w).abs() <= 1e-5 * w.abs().max(1.0), "{g} vs {w}");
        }
        assert_eq!(s.plan_stats.gemms, 2);
        assert_eq!(s.plan_stats.macs, 2 * 5 * 32 * 9);
    }

    #[test]
    fn packed_working_set_is_smaller_than_dense() {
        let mut s = Session::new(0);
        let t = tensor(64, 64, 6);
        let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
        if let GemmOperand::Own(p) = prepare(&mut s, &t, fmt, GroupAxis::AlongCol) {
            assert!(p.heap_bytes() * 3 < 4 * t.numel(), "{}", p.heap_bytes());
        } else {
            panic!("expected an owned packed operand");
        }
    }
}
