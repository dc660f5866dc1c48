//! Quantized-operand GEMM kernels over packed-BFP matrices.
//!
//! The fake-quantize → dense-GEMM pipeline materializes a full dequantized
//! f32 copy of every operand. These kernels consume a [`PackedMat`] —
//! integer `i8` mantissas plus per-group shared-exponent scales — directly:
//! operands stream through the caches at a quarter of the f32 footprint and
//! are dequantized on the fly into register-tile-sized scratch panels
//! (matched to the `4×32` micro-kernel of [`crate::matmul`]), never as a
//! whole tensor.
//!
//! **Bit identity.** Every kernel replays the exact per-element summation
//! tree of its dense counterpart ([`matmul`], [`matmul_nt`], [`matmul_tn`],
//! [`matmul_bt`]) — same accumulation order, same pairwise-reduction
//! shapes, same zero-coefficient skip rules in the same column regions —
//! and the dequantized value `mantissa as f32 * scale` is bit-identical to
//! what fake quantization would have written (see `fast_bfp::packed` and
//! DESIGN.md §9). A packed-operand GEMM therefore produces the same f32
//! result bits as quantize-copy + dense GEMM, for every worker count.
//!
//! Dense×dense operand pairs delegate to the dense kernels directly.
//!
//! **Execution modes.** The replay path above is the default. When both
//! operands are packed with their quantization groups along the reduction
//! dimension, [`ExecMode::Integer`] instead runs the integer-domain kernels
//! of DESIGN.md §11: `i8×i8→i32` mantissa dot products with one f32 scale
//! multiply per group pair, never touching an f32 panel — the software
//! realization of the fMAC pipeline modeled by `fast_hw`'s `fmac` module.
//! Integer-domain results are a few ULPs away from replay (different
//! cross-group f32 association), but remain deterministic: bit-identical
//! across worker counts, across the SIMD/scalar dispatch, and across
//! replicas.

use crate::matmul::{matmul, matmul_bt, matmul_nt, matmul_tn, tree_dot, JB, MR, NR};
use crate::parallel::shard_rows;
use crate::qgemm_int;
use crate::tensor::Tensor;

/// How a packed×packed GEMM executes.
///
/// Both modes are deterministic (bit-identical across worker counts and
/// replicas); they differ in *which* f32 result they deterministically
/// produce. [`ExecMode::Replay`] is the default everywhere.
///
/// ```
/// use fast_tensor::qgemm::ExecMode;
/// assert_eq!(ExecMode::default(), ExecMode::Replay);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Dequantize on the fly into register-tile scratch and replay the
    /// dense kernels' exact summation trees: results are bit-identical to
    /// quantize-copy + dense GEMM (DESIGN.md §9).
    #[default]
    Replay,
    /// Integer-domain execution (DESIGN.md §11): exact `i8×i8→i32` mantissa
    /// dot products per reduction group, one f32 scale multiply-accumulate
    /// per group pair. Faster than the f32 pipeline, but the cross-group
    /// f32 accumulation runs in a different association than the replay
    /// trees, so results diverge from [`ExecMode::Replay`] by a few ULPs.
    ///
    /// Only reduction-grouped packed×packed pairs are eligible; anything
    /// else (a dense operand, groups along the wrong axis, or a group so
    /// long the i32 bound [`MAX_INT_SEGMENT`] could overflow) silently
    /// falls back to the replay path — callers never get garbage, they get
    /// the replay bits.
    Integer,
}

/// Longest reduction segment whose worst-case `i8×i8` products
/// (`127 · 127` each) are guaranteed to fit an `i32` accumulator:
/// `⌊(2³¹ − 1) / 127²⌋ = 133 152` values. Packed groups are far shorter in
/// practice (the BFP format zoo tops out at 16); pairs whose groups exceed
/// this fall back to [`ExecMode::Replay`].
pub const MAX_INT_SEGMENT: usize = (i32::MAX as usize) / (127 * 127);

/// How quantization groups (one scale each) run through a [`PackedMat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackLayout {
    /// Groups are contiguous within each row: `scale(i, j) = s[i][j / g]`.
    /// The layout of an operand quantized along its rows (reduction runs
    /// along the column index).
    RowGroups,
    /// Groups run down each column: `scale(i, j) = s[i / g][j]`. The layout
    /// of an operand quantized along its columns.
    ColGroups,
}

/// A BFP-packed row-major matrix: signed `i8` mantissas plus per-group
/// scales. The represented value at `(i, j)` is exactly
/// `mantissas[i * cols + j] as f32 * scale(i, j)`.
#[derive(Debug, Clone)]
pub struct PackedMat {
    rows: usize,
    cols: usize,
    group: usize,
    layout: PackLayout,
    mans: Vec<i8>,
    scales: Vec<f32>,
}

impl PackedMat {
    /// Wraps packed storage produced by a quantizer (e.g.
    /// `fast_bfp::packed::pack_matrix`).
    ///
    /// # Panics
    ///
    /// Panics if `group == 0`, `mans.len() != rows * cols`, or the scale
    /// count does not match the layout (`rows × ceil(cols/g)` for
    /// [`PackLayout::RowGroups`], `ceil(rows/g) × cols` for
    /// [`PackLayout::ColGroups`]; at least one scale slot is kept for
    /// zero-size edges).
    pub fn new(
        rows: usize,
        cols: usize,
        group: usize,
        layout: PackLayout,
        mans: Vec<i8>,
        scales: Vec<f32>,
    ) -> Self {
        assert!(group > 0, "group size must be positive");
        assert_eq!(mans.len(), rows * cols, "mantissa count mismatch");
        let want_scales = match layout {
            PackLayout::RowGroups => rows * cols.div_ceil(group).max(1),
            PackLayout::ColGroups => rows.div_ceil(group).max(1) * cols,
        };
        assert_eq!(scales.len(), want_scales, "scale count mismatch");
        PackedMat {
            rows,
            cols,
            group,
            layout,
            mans,
            scales,
        }
    }

    /// Stored row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Stored column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Values per group (one shared scale each).
    pub fn group(&self) -> usize {
        self.group
    }

    /// Which way groups run through the matrix.
    pub fn layout(&self) -> PackLayout {
        self.layout
    }

    /// The raw row-major `i8` mantissas (`rows × cols`). Quantizers bound
    /// these by the mantissa width (`|m| ≤ 127` at the 8-bit cap) — the
    /// invariant the integer-domain kernels' overflow analysis rests on.
    pub fn mantissas(&self) -> &[i8] {
        &self.mans
    }

    /// The raw per-group scales in the [`PackLayout`] order documented on
    /// [`PackedMat::new`]. Quantizers emit exact powers of two (or `0.0`
    /// for all-zero groups), so a product of two scales is itself exact —
    /// see `fast_bfp::packed`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Heap bytes held by the packed representation (mantissas + scales) —
    /// the serving working set a frozen packed weight occupies, versus
    /// `4 * rows * cols` for the dense f32 copy.
    pub fn heap_bytes(&self) -> usize {
        self.mans.len() + 4 * self.scales.len()
    }

    /// The dequantized value at `(i, j)` — bit-identical to the f32 fake
    /// quantization would have written.
    pub fn value(&self, i: usize, j: usize) -> f32 {
        let s = match self.layout {
            PackLayout::RowGroups => {
                self.scales[i * self.cols.div_ceil(self.group).max(1) + j / self.group]
            }
            PackLayout::ColGroups => self.scales[(i / self.group) * self.cols + j],
        };
        self.mans[i * self.cols + j] as f32 * s
    }

    /// Dequantizes row `i`, columns `[j0, j0 + out.len())`, into `out`.
    fn fill_row_seg(&self, i: usize, j0: usize, out: &mut [f32]) {
        let mans = &self.mans[i * self.cols + j0..i * self.cols + j0 + out.len()];
        match self.layout {
            PackLayout::RowGroups => {
                let g = self.group;
                let gpr = self.cols.div_ceil(g).max(1);
                let srow = &self.scales[i * gpr..(i + 1) * gpr];
                let mut x = 0;
                while x < out.len() {
                    let j = j0 + x;
                    let gi = j / g;
                    let run = ((gi + 1) * g - j).min(out.len() - x);
                    let s = srow[gi];
                    for (o, &mv) in out[x..x + run].iter_mut().zip(&mans[x..x + run]) {
                        *o = mv as f32 * s;
                    }
                    x += run;
                }
            }
            PackLayout::ColGroups => {
                let base = (i / self.group) * self.cols + j0;
                let srow = &self.scales[base..base + out.len()];
                for ((o, &mv), &s) in out.iter_mut().zip(mans).zip(srow) {
                    *o = mv as f32 * s;
                }
            }
        }
    }

    /// Dequantizes column `j` into `out` (length `rows`).
    fn fill_col(&self, j: usize, out: &mut [f32]) {
        match self.layout {
            PackLayout::RowGroups => {
                let gpr = self.cols.div_ceil(self.group).max(1);
                let sj = j / self.group;
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.mans[i * self.cols + j] as f32 * self.scales[i * gpr + sj];
                }
            }
            PackLayout::ColGroups => {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.mans[i * self.cols + j] as f32
                        * self.scales[(i / self.group) * self.cols + j];
                }
            }
        }
    }

    /// Materializes the dense dequantized tensor (tests / fallbacks; the
    /// GEMM kernels never call this).
    pub fn to_tensor(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for (i, row) in out.chunks_mut(self.cols.max(1)).enumerate() {
            if !row.is_empty() {
                self.fill_row_seg(i, 0, row);
            }
        }
        Tensor::from_vec(vec![self.rows, self.cols], out)
    }
}

/// A GEMM operand: a dense f32 tensor or a packed-BFP matrix.
#[derive(Debug, Clone, Copy)]
pub enum Operand<'a> {
    /// Dense row-major f32 storage.
    Dense(&'a Tensor),
    /// Packed mantissa + scale storage.
    Packed(&'a PackedMat),
}

impl Operand<'_> {
    /// `(rows, cols)` of the stored matrix.
    ///
    /// # Panics
    ///
    /// Panics if a dense operand is not rank-2.
    pub fn dims(&self) -> (usize, usize) {
        match self {
            Operand::Dense(t) => {
                assert_eq!(t.rank(), 2, "GEMM operands must be rank-2");
                (t.shape()[0], t.shape()[1])
            }
            Operand::Packed(p) => (p.rows, p.cols),
        }
    }
}

// ---------------------------------------------------------------------------
// Operand access traits: dense storage borrows, packed storage dequantizes
// into caller scratch. `NEEDS_BUF` lets kernels skip scratch allocation on
// all-dense paths.
// ---------------------------------------------------------------------------

/// Stored-row access (contiguous runs along the storage row).
trait RowSrc: Sync {
    const NEEDS_BUF: bool;
    /// Row `i` as dequantized f32s (`buf` must hold the row width).
    fn row<'s>(&'s self, i: usize, buf: &'s mut [f32]) -> &'s [f32];
    /// Rows `i0..i0+N` (`buf` must hold `N * width()`).
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N];
    /// Whether every stored value is finite (packed values always are).
    fn all_finite(&self) -> bool;
}

struct DenseRows<'a> {
    d: &'a [f32],
    w: usize,
}

impl RowSrc for DenseRows<'_> {
    const NEEDS_BUF: bool = false;
    #[inline]
    fn row<'s>(&'s self, i: usize, _buf: &'s mut [f32]) -> &'s [f32] {
        &self.d[i * self.w..(i + 1) * self.w]
    }
    #[inline]
    fn block<'s, const N: usize>(&'s self, i0: usize, _buf: &'s mut [f32]) -> [&'s [f32]; N] {
        std::array::from_fn(|q| &self.d[(i0 + q) * self.w..(i0 + q + 1) * self.w])
    }
    fn all_finite(&self) -> bool {
        self.d.iter().all(|v| v.is_finite())
    }
}

struct PackedRows<'a> {
    p: &'a PackedMat,
}

impl RowSrc for PackedRows<'_> {
    const NEEDS_BUF: bool = true;
    #[inline]
    fn row<'s>(&'s self, i: usize, buf: &'s mut [f32]) -> &'s [f32] {
        let w = self.p.cols;
        self.p.fill_row_seg(i, 0, &mut buf[..w]);
        &buf[..w]
    }
    #[inline]
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N] {
        let w = self.p.cols;
        for (q, chunk) in buf[..N * w].chunks_mut(w.max(1)).take(N).enumerate() {
            self.p.fill_row_seg(i0 + q, 0, chunk);
        }
        let buf: &'s [f32] = buf;
        std::array::from_fn(|q| &buf[q * w..(q + 1) * w])
    }
    fn all_finite(&self) -> bool {
        true // packed values are sanitized finite by construction
    }
}

/// Column-panel access for the `k × n` right-hand operand of the NN/TN
/// kernels: `stage` dequantizes columns `[j0, j0+w)` of all `k` stored rows
/// into scratch once per panel; `krow` then serves row segments from it
/// (dense sources skip staging and borrow directly).
trait PanelSrc: Sync {
    const NEEDS_BUF: bool;
    fn stage(&self, j0: usize, w: usize, buf: &mut [f32]);
    fn krow<'s>(&'s self, buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32];
}

struct DensePanel<'a> {
    d: &'a [f32],
    n: usize,
}

impl PanelSrc for DensePanel<'_> {
    const NEEDS_BUF: bool = false;
    #[inline]
    fn stage(&self, _j0: usize, _w: usize, _buf: &mut [f32]) {}
    #[inline]
    fn krow<'s>(&'s self, _buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32] {
        &self.d[kk * self.n + j0..kk * self.n + j0 + w]
    }
}

struct PackedPanel<'a> {
    p: &'a PackedMat,
}

impl PanelSrc for PackedPanel<'_> {
    const NEEDS_BUF: bool = true;
    #[inline]
    fn stage(&self, j0: usize, w: usize, buf: &mut [f32]) {
        for kk in 0..self.p.rows {
            self.p.fill_row_seg(kk, j0, &mut buf[kk * w..kk * w + w]);
        }
    }
    #[inline]
    fn krow<'s>(&'s self, buf: &'s [f32], kk: usize, _j0: usize, w: usize) -> &'s [f32] {
        &buf[kk * w..kk * w + w]
    }
}

/// Stored-column access for the `ka × m` left operand of the TN kernel.
/// Both implementations stage the (strided) column into scratch; the staged
/// values are the same f32s the dense kernel reads in place.
trait ColSrc: Sync {
    fn col<'s>(&'s self, i: usize, buf: &'s mut [f32]) -> &'s [f32];
}

struct DenseCols<'a> {
    d: &'a [f32],
    m: usize,
    ka: usize,
}

impl ColSrc for DenseCols<'_> {
    #[inline]
    fn col<'s>(&'s self, i: usize, buf: &'s mut [f32]) -> &'s [f32] {
        for (kk, o) in buf[..self.ka].iter_mut().enumerate() {
            *o = self.d[kk * self.m + i];
        }
        &buf[..self.ka]
    }
}

struct PackedCols<'a> {
    p: &'a PackedMat,
}

impl ColSrc for PackedCols<'_> {
    #[inline]
    fn col<'s>(&'s self, i: usize, buf: &'s mut [f32]) -> &'s [f32] {
        let ka = self.p.rows;
        self.p.fill_col(i, &mut buf[..ka]);
        &buf[..ka]
    }
}

// ---------------------------------------------------------------------------
// Public entry points. Under `ExecMode::Integer` an eligible packed×packed
// pair runs the integer-domain kernels: the quantization groups of *both*
// operands must run along the reduction dimension (so the group-scale
// product factors out of each integer segment) and the segment length must
// respect `MAX_INT_SEGMENT`. Everything else replays: dense×dense
// delegates, anything packed runs the staged generic kernels.
// ---------------------------------------------------------------------------

/// The packed pair to run in the integer domain, if `mode` asks for it,
/// both operands are packed with layouts `la`/`lb`, and the length-`k`
/// reduction respects the i32 segment bound.
fn integer_pair<'a>(
    mode: ExecMode,
    a: Operand<'a>,
    b: Operand<'a>,
    la: PackLayout,
    lb: PackLayout,
    k: usize,
) -> Option<(&'a PackedMat, &'a PackedMat)> {
    match (mode, a, b) {
        (ExecMode::Integer, Operand::Packed(x), Operand::Packed(y))
            if x.layout == la
                && y.layout == lb
                && qgemm_int::segment_bound_ok(k, x.group, y.group) =>
        {
            Some((x, y))
        }
        _ => None,
    }
}

/// `C (m×n) = A (m×k) · B (k×n)` over quantized operands — under
/// [`ExecMode::Replay`] bit-identical to [`matmul`] on the dequantized
/// copies. The integer path needs `A` in [`PackLayout::RowGroups`] and `B`
/// in [`PackLayout::ColGroups`].
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul(mode: ExecMode, a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (m, ka) = a.dims();
    let (kb, n) = b.dims();
    assert_eq!(ka, kb, "qmatmul inner dimensions disagree: {ka} vs {kb}");
    if let Some((x, y)) = integer_pair(mode, a, b, PackLayout::RowGroups, PackLayout::ColGroups, ka)
    {
        return qgemm_int::int_nn(x, y);
    }
    match (a, b) {
        (Operand::Dense(x), Operand::Dense(y)) => matmul(x, y),
        (Operand::Dense(x), Operand::Packed(y)) => nn_impl(
            &DenseRows { d: x.data(), w: ka },
            &PackedPanel { p: y },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Dense(y)) => nn_impl(
            &PackedRows { p: x },
            &DensePanel { d: y.data(), n },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Packed(y)) => {
            nn_impl(&PackedRows { p: x }, &PackedPanel { p: y }, m, ka, n)
        }
    }
}

/// `C (m×n) = A (m×k) · Bᵀ` with `B` stored `n×k` — under
/// [`ExecMode::Replay`] bit-identical to [`matmul_nt`] on the dequantized
/// copies. The integer path needs both operands in
/// [`PackLayout::RowGroups`] (both store the reduction along their rows).
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul_nt(mode: ExecMode, a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (m, ka) = a.dims();
    let (n, kb) = b.dims();
    assert_eq!(ka, kb, "qmatmul_nt inner dimensions disagree: {ka} vs {kb}");
    if let Some((x, y)) = integer_pair(mode, a, b, PackLayout::RowGroups, PackLayout::RowGroups, ka)
    {
        return qgemm_int::int_nt(x, y);
    }
    match (a, b) {
        (Operand::Dense(x), Operand::Dense(y)) => matmul_nt(x, y),
        (Operand::Dense(x), Operand::Packed(y)) => nt_impl(
            &DenseRows { d: x.data(), w: ka },
            &PackedRows { p: y },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Dense(y)) => nt_impl(
            &PackedRows { p: x },
            &DenseRows { d: y.data(), w: ka },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Packed(y)) => {
            nt_impl(&PackedRows { p: x }, &PackedRows { p: y }, m, ka, n)
        }
    }
}

/// `C (m×n) = Aᵀ · B` with `A` stored `k×m`, `B` stored `k×n` — under
/// [`ExecMode::Replay`] bit-identical to [`matmul_tn`] on the dequantized
/// copies. The integer path needs both operands in
/// [`PackLayout::ColGroups`] (the reduction runs down their columns).
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul_tn(mode: ExecMode, a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (ka, m) = a.dims();
    let (kb, n) = b.dims();
    assert_eq!(ka, kb, "qmatmul_tn inner dimensions disagree: {ka} vs {kb}");
    if let Some((x, y)) = integer_pair(mode, a, b, PackLayout::ColGroups, PackLayout::ColGroups, ka)
    {
        return qgemm_int::int_tn(x, y);
    }
    match (a, b) {
        (Operand::Dense(x), Operand::Dense(y)) => matmul_tn(x, y),
        (Operand::Dense(x), Operand::Packed(y)) => tn_impl(
            &DenseCols { d: x.data(), m, ka },
            &PackedPanel { p: y },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Dense(y)) => tn_impl(
            &PackedCols { p: x },
            &DensePanel { d: y.data(), n },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Packed(y)) => {
            tn_impl(&PackedCols { p: x }, &PackedPanel { p: y }, m, ka, n)
        }
    }
}

/// `C (m×n) = A (m×k) · B` with `B` supplied pre-transposed as `n×k` —
/// under [`ExecMode::Replay`] bit-identical to [`matmul_bt`] (and therefore
/// to [`matmul`]) on the dequantized copies. Storage-wise identical to
/// [`qmatmul_nt`], and in the integer domain the NT/BT distinction (which
/// dense summation tree gets replayed) vanishes: both compute the same
/// exact integer segments.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn qmatmul_bt(mode: ExecMode, a: Operand<'_>, b: Operand<'_>) -> Tensor {
    let (m, ka) = a.dims();
    let (n, kb) = b.dims();
    assert_eq!(ka, kb, "qmatmul_bt inner dimensions disagree: {ka} vs {kb}");
    if let Some((x, y)) = integer_pair(mode, a, b, PackLayout::RowGroups, PackLayout::RowGroups, ka)
    {
        return qgemm_int::int_nt(x, y);
    }
    match (a, b) {
        (Operand::Dense(x), Operand::Dense(y)) => matmul_bt(x, y),
        (Operand::Dense(x), Operand::Packed(y)) => bt_impl(
            &DenseRows { d: x.data(), w: ka },
            &PackedRows { p: y },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Dense(y)) => bt_impl(
            &PackedRows { p: x },
            &DenseRows { d: y.data(), w: ka },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Packed(y)) => {
            bt_impl(&PackedRows { p: x }, &PackedRows { p: y }, m, ka, n)
        }
    }
}

// The four `*_impl` kernels below are `#[inline(never)]`: every
// instantiation stays a standalone function, so its register allocation
// cannot depend on what else the dispatching entry point contains.
// (Measured: inlined into the mode-taking `qmatmul`, the packed×packed NN
// kernel served the benchmark's k = 1024 GEMMs ~1.8× slower.)

fn scratch(needed: bool, len: usize) -> Vec<f32> {
    if needed {
        vec![0.0f32; len]
    } else {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// NN: replay of `matmul`'s region decomposition — full 32-column register
// tiles (no zero skip), `accumulate_tail` column tails (skip), and
// `accumulate_row`'s pairwise trees on the `m % 4` remainder rows.
// ---------------------------------------------------------------------------

#[inline(never)]
fn nn_impl<A: RowSrc, B: PanelSrc>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, MR, |row_start, panel| {
            let rows = panel.len() / n;
            let mut bbuf = scratch(B::NEEDS_BUF, k * NR);
            let mut abuf = scratch(A::NEEDS_BUF, MR * k);
            let n_full = (n / NR) * NR;
            let mut j0 = 0;
            while j0 < n {
                let (w, full) = if j0 < n_full {
                    (NR, true)
                } else {
                    (n - n_full, false)
                };
                b.stage(j0, w, &mut bbuf);
                let mut ri = 0;
                while ri + MR <= rows {
                    let aq: [&[f32]; MR] = a.block(row_start + ri, &mut abuf);
                    let c_quad = &mut panel[ri * n..(ri + MR) * n];
                    if full {
                        nn_full_tile(&aq, b, &bbuf, j0, k, n, c_quad);
                    } else {
                        for (r, ar) in aq.iter().enumerate() {
                            nn_tail_row(
                                &mut c_quad[r * n + j0..r * n + j0 + w],
                                ar,
                                b,
                                &bbuf,
                                j0,
                                w,
                            );
                        }
                    }
                    ri += MR;
                }
                while ri < rows {
                    let ar = a.row(row_start + ri, &mut abuf);
                    nn_rem_row(
                        &mut panel[ri * n + j0..ri * n + j0 + w],
                        ar,
                        b,
                        &bbuf,
                        j0,
                        w,
                    );
                    ri += 1;
                }
                j0 += w;
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

/// One full `MR×NR` register tile: serial ascending-`k` chains, no skip —
/// `micro_tile`'s exact arithmetic.
#[inline]
#[allow(clippy::needless_range_loop)] // kk walks two operands in lockstep
fn nn_full_tile<B: PanelSrc>(
    aq: &[&[f32]; MR],
    b: &B,
    bbuf: &[f32],
    j0: usize,
    k: usize,
    n: usize,
    c_quad: &mut [f32],
) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = b.krow(bbuf, kk, j0, NR);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = aq[r][kk];
            for (acc_rx, &bv) in acc_r.iter_mut().zip(brow) {
                *acc_rx += ar * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (cx, &ax) in c_quad[r * n + j0..r * n + j0 + NR].iter_mut().zip(acc_r) {
            *cx += ax;
        }
    }
}

/// Column-tail update for one full-block row: `accumulate_tail`'s serial
/// ascending-`k` loop with the `a == 0.0` skip.
#[inline]
fn nn_tail_row<B: PanelSrc>(
    c_tail: &mut [f32],
    a: &[f32],
    b: &B,
    bbuf: &[f32],
    j0: usize,
    w: usize,
) {
    for (kk, &ak) in a.iter().enumerate() {
        if ak != 0.0 {
            let brow = b.krow(bbuf, kk, j0, w);
            for (c, &bv) in c_tail.iter_mut().zip(brow) {
                *c += ak * bv;
            }
        }
    }
}

/// Remainder-row update restricted to columns `[j0, j0+w)`:
/// `accumulate_row`'s eight-wide pairwise trees and skip rules.
#[inline]
fn nn_rem_row<B: PanelSrc>(c_seg: &mut [f32], a: &[f32], b: &B, bbuf: &[f32], j0: usize, w: usize) {
    let k = a.len();
    let mut kk = 0;
    while kk + 8 <= k {
        let ab = &a[kk..kk + 8];
        if ab.iter().any(|&v| v != 0.0) {
            let b0 = b.krow(bbuf, kk, j0, w);
            let b1 = b.krow(bbuf, kk + 1, j0, w);
            let b2 = b.krow(bbuf, kk + 2, j0, w);
            let b3 = b.krow(bbuf, kk + 3, j0, w);
            let b4 = b.krow(bbuf, kk + 4, j0, w);
            let b5 = b.krow(bbuf, kk + 5, j0, w);
            let b6 = b.krow(bbuf, kk + 6, j0, w);
            let b7 = b.krow(bbuf, kk + 7, j0, w);
            for (j, c) in c_seg.iter_mut().enumerate() {
                let s01 = ab[0] * b0[j] + ab[1] * b1[j];
                let s23 = ab[2] * b2[j] + ab[3] * b3[j];
                let s45 = ab[4] * b4[j] + ab[5] * b5[j];
                let s67 = ab[6] * b6[j] + ab[7] * b7[j];
                *c += (s01 + s23) + (s45 + s67);
            }
        }
        kk += 8;
    }
    while kk < k {
        let aik = a[kk];
        if aik != 0.0 {
            let brow = b.krow(bbuf, kk, j0, w);
            for (c, &bv) in c_seg.iter_mut().zip(brow) {
                *c += aik * bv;
            }
        }
        kk += 1;
    }
}

// ---------------------------------------------------------------------------
// NT: every output element is one serial ascending-`k` dot product (no skip
// in the dense kernel), so only the staged values matter. B rows are staged
// eight at a time, A rows once per (panel, row).
// ---------------------------------------------------------------------------

#[inline(never)]
fn nt_impl<A: RowSrc, B: RowSrc>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, 1, |row_start, panel| {
            let mut bbuf = scratch(B::NEEDS_BUF, 2 * MR * k);
            let mut abuf = scratch(A::NEEDS_BUF, k);
            let mut j = 0;
            while j + 2 * MR <= n {
                let b8: [&[f32]; 8] = b.block(j, &mut bbuf);
                for (ri, c_row) in panel.chunks_mut(n).enumerate() {
                    let ar = a.row(row_start + ri, &mut abuf);
                    nt_chain4(&mut c_row[j..j + 4], ar, [b8[0], b8[1], b8[2], b8[3]]);
                    nt_chain4(&mut c_row[j + 4..j + 8], ar, [b8[4], b8[5], b8[6], b8[7]]);
                }
                j += 2 * MR;
            }
            if j + 4 <= n {
                let b4: [&[f32]; 4] = b.block(j, &mut bbuf);
                for (ri, c_row) in panel.chunks_mut(n).enumerate() {
                    let ar = a.row(row_start + ri, &mut abuf);
                    nt_chain4(&mut c_row[j..j + 4], ar, b4);
                }
                j += 4;
            }
            while j < n {
                let bj = b.row(j, &mut bbuf);
                for (ri, c_row) in panel.chunks_mut(n).enumerate() {
                    let ar = a.row(row_start + ri, &mut abuf);
                    let mut acc = 0.0f32;
                    for (&av, &bv) in ar.iter().zip(bj) {
                        acc += av * bv;
                    }
                    c_row[j] = acc;
                }
                j += 1;
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Four independent serial dot chains — `matmul_nt`'s inner block.
#[inline]
fn nt_chain4(c4: &mut [f32], ar: &[f32], b4: [&[f32]; 4]) {
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (p, &av) in ar.iter().enumerate() {
        s0 += av * b4[0][p];
        s1 += av * b4[1][p];
        s2 += av * b4[2][p];
        s3 += av * b4[3][p];
    }
    c4[0] = s0;
    c4[1] = s1;
    c4[2] = s2;
    c4[3] = s3;
}

// ---------------------------------------------------------------------------
// TN: replay of `matmul_tn` — four-wide reduction blocks with the all-zero
// skip on the A column scalars, then single-`k` steps with the scalar skip.
// ---------------------------------------------------------------------------

#[inline(never)]
fn tn_impl<A: ColSrc, B: PanelSrc>(a: &A, b: &B, m: usize, ka: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * ka * n, MR, |row_start, panel| {
            let mut bbuf = scratch(B::NEEDS_BUF, ka * NR);
            let mut abuf = vec![0.0f32; ka];
            let n_full = (n / NR) * NR;
            let mut j0 = 0;
            while j0 < n {
                let w = if j0 < n_full { NR } else { n - n_full };
                b.stage(j0, w, &mut bbuf);
                for (ri, c_row) in panel.chunks_mut(n).enumerate() {
                    let acol = a.col(row_start + ri, &mut abuf);
                    tn_row_seg(&mut c_row[j0..j0 + w], acol, b, &bbuf, j0, w);
                }
                j0 += w;
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

#[inline]
fn tn_row_seg<B: PanelSrc>(
    c_seg: &mut [f32],
    acol: &[f32],
    b: &B,
    bbuf: &[f32],
    j0: usize,
    w: usize,
) {
    let ka = acol.len();
    let mut kk = 0;
    while kk + 4 <= ka {
        let (a0, a1, a2, a3) = (acol[kk], acol[kk + 1], acol[kk + 2], acol[kk + 3]);
        if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
            let b0 = b.krow(bbuf, kk, j0, w);
            let b1 = b.krow(bbuf, kk + 1, j0, w);
            let b2 = b.krow(bbuf, kk + 2, j0, w);
            let b3 = b.krow(bbuf, kk + 3, j0, w);
            for (j, c) in c_seg.iter_mut().enumerate() {
                *c = *c + a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        }
        kk += 4;
    }
    while kk < ka {
        let av = acol[kk];
        if av != 0.0 {
            let brow = b.krow(bbuf, kk, j0, w);
            for (c, &bv) in c_seg.iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
        kk += 1;
    }
}

// ---------------------------------------------------------------------------
// BT: replay of `matmul_bt` — `MR×JB` serial-chain tiles whose skip mode
// mirrors `matmul`'s column regions, singles with the conditional skip, and
// `tree_dot` remainder rows.
// ---------------------------------------------------------------------------

#[inline(never)]
fn bt_impl<A: RowSrc, B: RowSrc>(a: &A, b: &B, m: usize, ka: usize, n: usize) -> Tensor {
    let n_full = (n / NR) * NR;
    let b_all_finite = n_full == n || m < MR || b.all_finite();
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * ka * n, MR, |row_start, panel| {
            let rows = panel.len() / n;
            let mut bbuf = scratch(B::NEEDS_BUF, JB * ka);
            let mut abuf = scratch(A::NEEDS_BUF, MR * ka);
            // The reference loop order: row blocks outer (each A quad —
            // typically a cached *packed* weight on the serving path — is
            // dequantized exactly once), JB-wide column tiles inner (dense
            // B rows borrow for free; packed B re-stages per block, the
            // rare packed×packed case).
            let mut ri = 0;
            while ri + MR <= rows {
                let aq: [&[f32]; MR] = a.block(row_start + ri, &mut abuf);
                let c_quad = &mut panel[ri * n..(ri + MR) * n];
                let mut j0 = 0;
                while j0 + JB <= n {
                    let b8: [&[f32]; JB] = b.block(j0, &mut bbuf);
                    if b_all_finite || j0 + JB <= n_full {
                        bt_tile::<false>(&aq, &b8, j0, n, c_quad);
                    } else {
                        bt_tile::<true>(&aq, &b8, j0, n, c_quad);
                    }
                    j0 += JB;
                }
                // Column singles (always in matmul's tail region).
                for j in j0..n {
                    let bj = b.row(j, &mut bbuf);
                    let mut s = [0.0f32; MR];
                    for (p, &bv) in bj.iter().enumerate() {
                        for (r, s_r) in s.iter_mut().enumerate() {
                            let ar = aq[r][p];
                            if b_all_finite || ar != 0.0 {
                                *s_r += ar * bv;
                            }
                        }
                    }
                    for (r, &s_r) in s.iter().enumerate() {
                        c_quad[r * n + j] = s_r;
                    }
                }
                ri += MR;
            }
            // Remainder rows (`m % 4`): `tree_dot` across every column.
            while ri < rows {
                let ar = a.row(row_start + ri, &mut abuf);
                let mut j0 = 0;
                while j0 + JB <= n {
                    let b8: [&[f32]; JB] = b.block(j0, &mut bbuf);
                    for (jj, bj) in b8.iter().enumerate() {
                        panel[ri * n + j0 + jj] = tree_dot(ar, bj);
                    }
                    j0 += JB;
                }
                for j in j0..n {
                    let bj = b.row(j, &mut bbuf);
                    panel[ri * n + j] = tree_dot(ar, bj);
                }
                ri += 1;
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

/// One `MR×JB` tile of serial ascending-`k` chains; `SKIP` mirrors
/// `matmul_bt`'s region-dependent `a == 0.0` skip.
#[inline]
fn bt_tile<const SKIP: bool>(
    aq: &[&[f32]; MR],
    b8: &[&[f32]; JB],
    j0: usize,
    n: usize,
    c_quad: &mut [f32],
) {
    let ka = aq[0].len();
    let mut acc = [[0.0f32; JB]; MR];
    for p in 0..ka {
        let bvs: [f32; JB] = std::array::from_fn(|jj| b8[jj][p]);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = aq[r][p];
            if SKIP && ar == 0.0 {
                continue;
            }
            for (acc_rj, &bv) in acc_r.iter_mut().zip(&bvs) {
                *acc_rj += ar * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c_quad[r * n + j0..r * n + j0 + JB].copy_from_slice(acc_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Builds a random `PackedMat` plus its dense dequantized twin.
    fn random_pack(
        rows: usize,
        cols: usize,
        group: usize,
        layout: PackLayout,
        m_bits: u32,
        seed: u64,
    ) -> (PackedMat, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let max_mag = (1i32 << m_bits) - 1;
        let mans: Vec<i8> = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(0.25) {
                    0
                } else {
                    rng.gen_range(-max_mag..=max_mag) as i8
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
                    2.0f32.powi(rng.gen_range(-12..4))
                }
            })
            .collect();
        let p = PackedMat::new(rows, cols, group, layout, mans, scales);
        let dense = p.to_tensor();
        (p, dense)
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, tag: &str) {
        assert_eq!(got.shape(), want.shape(), "{tag} shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{tag} elem {i}: {g} vs {w}");
        }
    }

    // Shapes crossing the NR=32 tile boundary, the MR=4 row remainder, the
    // 8-wide reduction blocking, and single-row/column edges.
    const SHAPES: [(usize, usize, usize); 7] = [
        (4, 32, 32),
        (1, 9, 40),
        (7, 13, 2),
        (9, 40, 33),
        (5, 8, 31),
        (3, 17, 1),
        (8, 64, 70),
    ];

    #[test]
    fn nn_matches_dense_bitwise_for_every_operand_mix() {
        for (m, k, n) in SHAPES {
            let (pa, da) = random_pack(m, k, 16, PackLayout::RowGroups, 4, 1 + m as u64);
            let (pb, db) = random_pack(k, n, 16, PackLayout::ColGroups, 4, 2 + n as u64);
            let want = matmul(&da, &db);
            for (a, b, tag) in [
                (Operand::Packed(&pa), Operand::Dense(&db), "pd"),
                (Operand::Dense(&da), Operand::Packed(&pb), "dp"),
                (Operand::Packed(&pa), Operand::Packed(&pb), "pp"),
            ] {
                assert_bits_eq(
                    &qmatmul(ExecMode::Replay, a, b),
                    &want,
                    &format!("nn {tag} ({m},{k},{n})"),
                );
            }
        }
    }

    #[test]
    fn nt_matches_dense_bitwise_for_every_operand_mix() {
        for (m, k, n) in SHAPES {
            let (pa, da) = random_pack(m, k, 16, PackLayout::RowGroups, 3, 11 + m as u64);
            let (pb, db) = random_pack(n, k, 16, PackLayout::RowGroups, 3, 12 + n as u64);
            let want = matmul_nt(&da, &db);
            for (a, b, tag) in [
                (Operand::Packed(&pa), Operand::Dense(&db), "pd"),
                (Operand::Dense(&da), Operand::Packed(&pb), "dp"),
                (Operand::Packed(&pa), Operand::Packed(&pb), "pp"),
            ] {
                assert_bits_eq(
                    &qmatmul_nt(ExecMode::Replay, a, b),
                    &want,
                    &format!("nt {tag} ({m},{k},{n})"),
                );
            }
        }
    }

    #[test]
    fn tn_matches_dense_bitwise_for_every_operand_mix() {
        for (m, k, n) in SHAPES {
            let (pa, da) = random_pack(k, m, 16, PackLayout::ColGroups, 2, 21 + m as u64);
            let (pb, db) = random_pack(k, n, 16, PackLayout::ColGroups, 2, 22 + n as u64);
            let want = matmul_tn(&da, &db);
            for (a, b, tag) in [
                (Operand::Packed(&pa), Operand::Dense(&db), "pd"),
                (Operand::Dense(&da), Operand::Packed(&pb), "dp"),
                (Operand::Packed(&pa), Operand::Packed(&pb), "pp"),
            ] {
                assert_bits_eq(
                    &qmatmul_tn(ExecMode::Replay, a, b),
                    &want,
                    &format!("tn {tag} ({m},{k},{n})"),
                );
            }
        }
    }

    #[test]
    fn bt_matches_dense_bitwise_for_every_operand_mix() {
        for (m, k, n) in SHAPES {
            let (pa, da) = random_pack(m, k, 16, PackLayout::RowGroups, 4, 31 + m as u64);
            let (pb, db) = random_pack(n, k, 16, PackLayout::RowGroups, 4, 32 + n as u64);
            let want = matmul_bt(&da, &db);
            for (a, b, tag) in [
                (Operand::Packed(&pa), Operand::Dense(&db), "pd"),
                (Operand::Dense(&da), Operand::Packed(&pb), "dp"),
                (Operand::Packed(&pa), Operand::Packed(&pb), "pp"),
            ] {
                assert_bits_eq(
                    &qmatmul_bt(ExecMode::Replay, a, b),
                    &want,
                    &format!("bt {tag} ({m},{k},{n})"),
                );
            }
        }
    }

    #[test]
    fn bt_with_nonfinite_dense_b_replays_skip_regions() {
        // 0·∞ = NaN makes the zero-coefficient skip observable; the packed
        // A side (which contains exact-zero mantissas) must skip in exactly
        // matmul's column regions.
        for (m, k, n) in [(4usize, 40usize, 4usize), (5, 17, 40), (8, 9, 33)] {
            let (pa, da) = random_pack(m, k, 16, PackLayout::RowGroups, 4, 41);
            let mut rng = rand::rngs::StdRng::seed_from_u64(42);
            let bdata: Vec<f32> = (0..n * k)
                .map(|i| {
                    if i % 7 == 0 {
                        f32::INFINITY
                    } else if i % 11 == 0 {
                        f32::NAN
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                })
                .collect();
            let db = Tensor::from_vec(vec![n, k], bdata);
            let want = matmul_bt(&da, &db);
            assert_bits_eq(
                &qmatmul_bt(ExecMode::Replay, Operand::Packed(&pa), Operand::Dense(&db)),
                &want,
                &format!("bt-nonfinite ({m},{k},{n})"),
            );
        }
    }

    #[test]
    fn threaded_matches_sequential_bitwise() {
        use crate::parallel::{parallelism, set_parallelism, Parallelism};
        let saved = parallelism();
        let (pa, _) = random_pack(37, 256, 16, PackLayout::RowGroups, 4, 51);
        let (pb, _) = random_pack(256, 67, 16, PackLayout::ColGroups, 4, 52);
        let (pbt, _) = random_pack(67, 256, 16, PackLayout::RowGroups, 4, 53);
        let (pat, _) = random_pack(256, 37, 16, PackLayout::ColGroups, 4, 54);
        set_parallelism(Parallelism::sequential());
        let s1 = qmatmul(ExecMode::Replay, Operand::Packed(&pa), Operand::Packed(&pb));
        let s2 = qmatmul_nt(
            ExecMode::Replay,
            Operand::Packed(&pa),
            Operand::Packed(&pbt),
        );
        let s3 = qmatmul_tn(
            ExecMode::Replay,
            Operand::Packed(&pat),
            Operand::Packed(&pb),
        );
        for workers in [2, 5, 8] {
            set_parallelism(Parallelism::new(workers));
            assert_eq!(
                qmatmul(ExecMode::Replay, Operand::Packed(&pa), Operand::Packed(&pb)),
                s1
            );
            assert_eq!(
                qmatmul_nt(
                    ExecMode::Replay,
                    Operand::Packed(&pa),
                    Operand::Packed(&pbt)
                ),
                s2
            );
            assert_eq!(
                qmatmul_tn(
                    ExecMode::Replay,
                    Operand::Packed(&pat),
                    Operand::Packed(&pb)
                ),
                s3
            );
        }
        set_parallelism(saved);
    }

    #[test]
    fn packed_mat_accessors_and_working_set() {
        let (p, dense) = random_pack(6, 20, 16, PackLayout::RowGroups, 4, 61);
        for i in 0..6 {
            for j in 0..20 {
                assert_eq!(p.value(i, j).to_bits(), dense.at2(i, j).to_bits());
            }
        }
        assert_eq!(p.rows(), 6);
        assert_eq!(p.cols(), 20);
        assert_eq!(p.group(), 16);
        assert_eq!(p.layout(), PackLayout::RowGroups);
        // i8 mantissas + one f32 scale per 16 values: well under the dense
        // f32 footprint.
        assert!(p.heap_bytes() < 4 * 6 * 20);
    }

    #[test]
    fn ineligible_integer_requests_fall_back_to_replay_bits() {
        // Dense operand: integer domain inapplicable.
        let (pa, da) = random_pack(5, 40, 16, PackLayout::RowGroups, 4, 111);
        let (pb, db) = random_pack(40, 9, 16, PackLayout::ColGroups, 4, 112);
        assert_bits_eq(
            &qmatmul(ExecMode::Integer, Operand::Dense(&da), Operand::Packed(&pb)),
            &qmatmul(ExecMode::Replay, Operand::Dense(&da), Operand::Packed(&pb)),
            "dense a",
        );
        // Groups along the wrong axis: the scale product does not factor
        // per reduction segment, so the pair must replay.
        let (pb_wrong, db_wrong) = random_pack(40, 9, 16, PackLayout::RowGroups, 4, 113);
        assert_bits_eq(
            &qmatmul(
                ExecMode::Integer,
                Operand::Packed(&pa),
                Operand::Packed(&pb_wrong),
            ),
            &matmul(&da, &db_wrong),
            "wrong layout",
        );
        let _ = db;
    }

    #[test]
    fn integer_nn_stays_close_to_replay() {
        // The two modes sum identical group terms in different f32
        // associations; on well-scaled data they agree to fine precision.
        let (pa, da) = random_pack(16, 64, 16, PackLayout::RowGroups, 4, 121);
        let (pb, db) = random_pack(64, 24, 16, PackLayout::ColGroups, 4, 122);
        let replay = matmul(&da, &db);
        let int = qmatmul(
            ExecMode::Integer,
            Operand::Packed(&pa),
            Operand::Packed(&pb),
        );
        let scale = replay.data().iter().fold(1e-30f32, |s, v| s.max(v.abs()));
        for (g, w) in int.data().iter().zip(replay.data()) {
            assert!(
                (g - w).abs() / scale < 1e-5,
                "integer vs replay drifted: {g} vs {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn dimension_mismatch_panics() {
        let (pa, _) = random_pack(2, 3, 16, PackLayout::RowGroups, 4, 71);
        let (pb, _) = random_pack(4, 2, 16, PackLayout::ColGroups, 4, 72);
        let _ = qmatmul(ExecMode::Replay, Operand::Packed(&pa), Operand::Packed(&pb));
    }
}
