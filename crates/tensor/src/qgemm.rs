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
//! **Bit identity.** Every kernel produces the exact per-element summation
//! tree of its dense counterpart ([`matmul`], [`matmul_nt`], [`matmul_tn`],
//! [`matmul_bt`]), and the dequantized value `mantissa as f32 * scale` is
//! bit-identical to what fake quantization would have written (see
//! `fast_bfp::packed` and DESIGN.md §9). A packed-operand GEMM therefore
//! produces the same f32 result bits as quantize-copy + dense GEMM, for
//! every worker count. For `NN`/`BT` that means replaying [`matmul`]'s
//! region-dependent trees — same pairwise-reduction shapes, same
//! zero-coefficient skip rules in the same column regions. For `NT`/`TN`
//! there is nothing to replay: every element is one serial ascending-`k`
//! chain, the dense functions are the all-dense instantiations of the same
//! generic kernels, and any tile that gives each element its own
//! accumulator yields the chain's bits (DESIGN.md §7).
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
                // One division per call, not per group: the NT kernel's
                // `KC`-long segments span many groups.
                let (mut x, mut gi) = (0, j0 / g);
                let mut run = ((gi + 1) * g - j0).min(out.len());
                while x < out.len() {
                    let s = srow[gi];
                    for (o, &mv) in out[x..x + run].iter_mut().zip(&mans[x..x + run]) {
                        *o = mv as f32 * s;
                    }
                    x += run;
                    gi += 1;
                    run = g.min(out.len() - x);
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
pub(crate) trait RowSrc: Sync {
    const NEEDS_BUF: bool;
    /// Rows `i0..i0+N` (`buf` must hold `N * width()`).
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N];
    /// Columns `[k0, k0+len)` of row `i` (`buf` must hold `len`).
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, buf: &'s mut [f32]) -> &'s [f32];
    /// Whether every stored value is finite (packed values always are).
    fn all_finite(&self) -> bool;
}

pub(crate) struct DenseRows<'a> {
    pub(crate) d: &'a [f32],
    pub(crate) w: usize,
}

impl RowSrc for DenseRows<'_> {
    const NEEDS_BUF: bool = false;
    #[inline]
    fn block<'s, const N: usize>(&'s self, i0: usize, _buf: &'s mut [f32]) -> [&'s [f32]; N] {
        std::array::from_fn(|q| &self.d[(i0 + q) * self.w..(i0 + q + 1) * self.w])
    }
    #[inline]
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, _buf: &'s mut [f32]) -> &'s [f32] {
        &self.d[i * self.w + k0..][..len]
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
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N] {
        let w = self.p.cols;
        for (q, chunk) in buf[..N * w].chunks_mut(w.max(1)).take(N).enumerate() {
            self.p.fill_row_seg(i0 + q, 0, chunk);
        }
        let buf: &'s [f32] = buf;
        std::array::from_fn(|q| &buf[q * w..(q + 1) * w])
    }
    #[inline]
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, buf: &'s mut [f32]) -> &'s [f32] {
        self.p.fill_row_seg(i, k0, &mut buf[..len]);
        &buf[..len]
    }
    fn all_finite(&self) -> bool {
        true // packed values are sanitized finite by construction
    }
}

/// Column-panel access to a stored `k × n` operand — the right-hand side of
/// the NN kernel, both sides of the TN kernel: `stage` dequantizes columns
/// `[j0, j0+w)` of all `k` stored rows into scratch once per panel; `krow`
/// then serves row segments from it (dense sources skip staging and borrow
/// directly).
pub(crate) trait PanelSrc: Sync {
    const NEEDS_BUF: bool;
    fn stage(&self, j0: usize, w: usize, buf: &mut [f32]);
    fn krow<'s>(&'s self, buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32];
    /// Whether every stored value is finite (packed values always are).
    fn all_finite(&self) -> bool;
}

pub(crate) struct DensePanel<'a> {
    pub(crate) d: &'a [f32],
    pub(crate) n: usize,
}

impl PanelSrc for DensePanel<'_> {
    const NEEDS_BUF: bool = false;
    #[inline]
    fn stage(&self, _j0: usize, _w: usize, _buf: &mut [f32]) {}
    #[inline]
    fn krow<'s>(&'s self, _buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32] {
        &self.d[kk * self.n + j0..kk * self.n + j0 + w]
    }
    fn all_finite(&self) -> bool {
        self.d.iter().all(|v| v.is_finite())
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
    fn all_finite(&self) -> bool {
        true
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
            &DensePanel { d: x.data(), n: m },
            &PackedPanel { p: y },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Dense(y)) => tn_impl(
            &PackedPanel { p: x },
            &DensePanel { d: y.data(), n },
            m,
            ka,
            n,
        ),
        (Operand::Packed(x), Operand::Packed(y)) => {
            tn_impl(&PackedPanel { p: x }, &PackedPanel { p: y }, m, ka, n)
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

// The four `*_impl` kernels below and the register tiles `nn_full_tile` /
// `tn_tile` are `#[inline(never)]`: every instantiation stays a standalone
// function, so its register allocation cannot depend on what else its
// caller contains. (Measured, twice: inlined into the mode-taking
// `qmatmul`, the packed×packed NN kernel served the benchmark's k = 1024
// GEMMs ~1.8× slower; and with `nn_full_tile` left at `#[inline]`, one
// changed line in `nn_impl`'s remainder-row path was enough for LLVM to
// inline the tile, spill its accumulators, and cost `serve_mlp_sat` 1.7×.)

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
                    let ar = a.seg(row_start + ri, 0, k, &mut abuf);
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
#[inline(never)]
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
// NT and TN: serial-chain tiles. Every output element of either orientation
// is one chain `acc = +0.0; acc += a·b` in ascending `k` — no pairwise
// tree, no cross-element term — so a tile of any shape that advances its
// elements together down `k` produces the bits of the one-element-at-a-time
// triple loop (`crates/tensor/tests/proptests.rs` holds that loop as the
// oracle). The dense `matmul_nt` / `matmul_tn` are the all-dense
// instantiations of these two generics.
// ---------------------------------------------------------------------------

/// Reduction chunk of the NT kernel: a `KC×NR` f32 panel is 32 KiB, which
/// stays L1-resident under the tile loop. Chains cross a chunk boundary
/// through `C` (an f32 store/load is exact).
const KC: usize = 256;

/// Rows of the TN tile. Both tiles below hold 64 accumulators — 8 of the 16
/// `ymm` registers, so none spills. A 128-accumulator tile (the `MR×NR` of
/// `nn_full_tile`) is no faster here, and its spill slots put stores on the
/// stack inside the `k` loop: when the stack lands where those slots share
/// their low 12 address bits with the staged panels (about one process
/// start in thirty under ASLR), every panel load waits on a spill store and
/// a shallow-`k` TN runs 2.5× slower for the life of the process.
const TR: usize = 2;

/// NT: both operands store the reduction along their rows, so neither can
/// feed a lane-parallel tile as stored. The operand with *fewer* rows is
/// staged transposed, `KC` reduction steps at a time, into a `kc×L` panel
/// (each of its elements dequantized exactly once per shard); the other
/// operand's rows stream past it `RB` at a time.
#[inline(never)]
pub(crate) fn nt_impl<A: RowSrc, B: RowSrc>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, 1, |row_start, c| {
            let rows = row_start..row_start + c.len() / n;
            if m <= n {
                // Lanes run over A's rows: the tile holds a piece of Cᵀ.
                nt_panels(b, 0..n, a, rows, k, c, (1, n));
            } else {
                nt_panels(a, rows, b, 0..n, k, c, (n, 1));
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

/// `D[s][p] = Σ_k S[s][k]·P[p][k]` over the given row ranges, `D[s][p]`
/// living at `d[(s − s_rows.start)·ss + (p − p_rows.start)·ps]`. `P` is
/// the staged side: its rows are taken up to `NR` at a time and laid across
/// 8, 16 or 32 lanes (`RB·L = 64` accumulators either way).
fn nt_panels<S: RowSrc, P: RowSrc>(
    s: &S,
    s_rows: std::ops::Range<usize>,
    p: &P,
    p_rows: std::ops::Range<usize>,
    k: usize,
    d: &mut [f32],
    (ss, ps): (usize, usize),
) {
    let kc = k.min(KC);
    let mut panel = vec![0.0f32; kc * NR];
    let mut pbuf = scratch(P::NEEDS_BUF, kc);
    let mut sbuf = scratch(S::NEEDS_BUF, 8 * kc); // 8: the tallest `RB` below
    for p0 in p_rows.clone().step_by(NR) {
        let p_blk = p0..p_rows.end.min(p0 + NR);
        let d = &mut d[(p0 - p_rows.start) * ps..];
        let bufs = (&mut panel[..], &mut pbuf[..], &mut sbuf[..]);
        match p_blk.len() {
            ..=8 => nt_panel::<S, P, 8, 8>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), bufs),
            9..=16 => nt_panel::<S, P, 4, 16>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), bufs),
            _ => nt_panel::<S, P, 2, NR>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), bufs),
        }
    }
}

/// One staged block of at most `L` `P` rows against every `S` row.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nt_panel<S: RowSrc, P: RowSrc, const RB: usize, const L: usize>(
    s: &S,
    s_rows: std::ops::Range<usize>,
    p: &P,
    p_blk: std::ops::Range<usize>,
    k: usize,
    d: &mut [f32],
    (ss, ps): (usize, usize),
    (panel, pbuf, sbuf): (&mut [f32], &mut [f32], &mut [f32]),
) {
    let np = p_blk.len();
    if np < L {
        panel.fill(0.0); // idle lanes multiply zeros, and are never stored
    }
    for k0 in (0..k).step_by(KC) {
        let kc = (k - k0).min(KC);
        let panel = &mut panel[..kc * L];
        for (lane, pi) in p_blk.clone().enumerate() {
            let row = p.seg(pi, k0, kc, pbuf);
            for (dst, &v) in panel[lane..].iter_mut().step_by(L).zip(row) {
                *dst = v;
            }
        }
        for s0 in s_rows.clone().step_by(RB) {
            let rs = (s_rows.end - s0).min(RB);
            // An edge block repeats its last row; those chains are not stored.
            let mut bufs = sbuf.chunks_mut(kc);
            let srows: [&[f32]; RB] = std::array::from_fn(|r| {
                let buf = bufs.next().unwrap_or_default();
                s.seg((s0 + r).min(s_rows.end - 1), k0, kc, buf)
            });
            let d = &mut d[(s0 - s_rows.start) * ss..];
            let mut acc = [[0.0f32; L]; RB];
            for (r, acc_r) in acc.iter_mut().enumerate().take(rs) {
                for (lane, x) in acc_r.iter_mut().enumerate().take(np) {
                    *x = d[r * ss + lane * ps];
                }
            }
            let acc = nt_tile(&srows, panel, acc);
            for (r, acc_r) in acc.iter().enumerate().take(rs) {
                for (lane, &x) in acc_r.iter().enumerate().take(np) {
                    d[r * ss + lane * ps] = x;
                }
            }
        }
    }
}

/// `RB×L` chains advanced together through one staged chunk: each panel row
/// is loaded once and meets `RB` broadcast stream values.
#[inline(always)]
fn nt_tile<const RB: usize, const L: usize>(
    srows: &[&[f32]; RB],
    panel: &[f32],
    mut acc: [[f32; L]; RB],
) -> [[f32; L]; RB] {
    for (kk, prow) in panel.chunks_exact(L).enumerate() {
        for (acc_r, srow) in acc.iter_mut().zip(srows) {
            let sv = srow[kk];
            for (x, &pv) in acc_r.iter_mut().zip(prow) {
                *x += sv * pv;
            }
        }
    }
    acc
}

/// TN: both operands store the reduction down their columns, so row `kk` of
/// each already holds what an outer-product step needs — `TR` contiguous A
/// values against `NR` contiguous B values. No gather, no reduction
/// chunking; `C` is written once per tile. Packed operands are staged
/// `NR` columns at a time like the NN kernel's B panel.
///
/// The dense kernel this replaces skipped all-zero blocks of four A
/// coefficients (and single zero coefficients in the `k % 4` tail). For
/// finite `B` a skipped `±0.0` product is an exact no-op — a chain that
/// starts at `+0.0` never becomes `-0.0` — so the rule survives literally
/// only where it is observable: a dense `B` holding `∞`/`NaN`, found by one
/// scan.
#[inline(never)]
pub(crate) fn tn_impl<A: PanelSrc, B: PanelSrc>(
    a: &A,
    b: &B,
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    let skip = !b.all_finite();
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, TR, |row_start, c| {
            let rows = c.len() / n;
            let mut bbuf = scratch(B::NEEDS_BUF, k * NR);
            let mut abuf = scratch(A::NEEDS_BUF, k * NR);
            for j0 in (0..n).step_by(NR) {
                let w = (n - j0).min(NR);
                b.stage(j0, w, &mut bbuf);
                let bs = Staged {
                    src: b,
                    buf: &bbuf,
                    j0,
                    w,
                };
                for i0 in (0..rows).step_by(NR) {
                    let wa = (rows - i0).min(NR);
                    a.stage(row_start + i0, wa, &mut abuf);
                    let a_s = Staged {
                        src: a,
                        buf: &abuf,
                        j0: row_start + i0,
                        w: wa,
                    };
                    for r0 in (0..wa).step_by(TR) {
                        let rw = (wa - r0).min(TR);
                        let c_tile = &mut c[(i0 + r0) * n + j0..];
                        if skip {
                            tn_skip_tile(&a_s, &bs, k, (r0, rw), n, c_tile);
                        } else if rw == TR && w == NR {
                            tn_tile::<A, B, true>(&a_s, &bs, k, (r0, rw), n, c_tile);
                        } else {
                            tn_tile::<A, B, false>(&a_s, &bs, k, (r0, rw), n, c_tile);
                        }
                    }
                }
            }
        });
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Columns `[j0, j0+w)` of a [`PanelSrc`], staged in `buf` if it needs to be.
struct Staged<'s, S> {
    src: &'s S,
    buf: &'s [f32],
    j0: usize,
    w: usize,
}

impl<S: PanelSrc> Staged<'_, S> {
    #[inline]
    fn krow(&self, kk: usize) -> &[f32] {
        self.src.krow(self.buf, kk, self.j0, self.w)
    }
}

/// One `rw×w` outer-product tile (`rw ≤ TR`, `w = b.w ≤ NR`) over columns
/// `r0..r0+rw` of the staged A panel. `FULL` promises `rw == TR && w == NR`:
/// the extents are then compile-time constants and the `TR·NR` accumulators
/// stay in registers; edge tiles run the same loops with the zips cut short.
/// A standalone function for the reason given above `nn_impl`.
#[inline(never)]
fn tn_tile<A: PanelSrc, B: PanelSrc, const FULL: bool>(
    a: &Staged<A>,
    b: &Staged<B>,
    k: usize,
    (r0, rw): (usize, usize),
    n: usize,
    c_tile: &mut [f32],
) {
    let (rw, w) = if FULL { (TR, NR) } else { (rw, b.w) };
    let mut acc = [[0.0f32; NR]; TR];
    for kk in 0..k {
        let (arow, brow) = (&a.krow(kk)[r0..r0 + rw], &b.krow(kk)[..w]);
        for (r, acc_r) in acc.iter_mut().enumerate().take(rw) {
            let av = arow[r];
            for (x, &bv) in acc_r.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(rw) {
        c_tile[r * n..r * n + w].copy_from_slice(&acc_r[..w]);
    }
}

/// The replaced kernel's zero-skip rule, element by element (non-finite
/// dense `B` only): an aligned block of four reduction steps is left out
/// when all four A coefficients are zero, a `k % 4` tail step when its one is.
fn tn_skip_tile<A: PanelSrc, B: PanelSrc>(
    a: &Staged<A>,
    b: &Staged<B>,
    k: usize,
    (r0, rw): (usize, usize),
    n: usize,
    c_tile: &mut [f32],
) {
    for r in 0..rw {
        let at = |kk: usize| a.krow(kk)[r0 + r];
        for x in 0..b.w {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let q0 = kk / 4 * 4;
                let skipped = if q0 + 4 <= k {
                    (q0..q0 + 4).all(|q| at(q) == 0.0)
                } else {
                    at(kk) == 0.0
                };
                if !skipped {
                    acc += at(kk) * b.krow(kk)[x];
                }
            }
            c_tile[r * n + x] = acc;
        }
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
                    let bj = b.seg(j, 0, ka, &mut bbuf);
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
                let ar = a.seg(row_start + ri, 0, ka, &mut abuf);
                let mut j0 = 0;
                while j0 + JB <= n {
                    let b8: [&[f32]; JB] = b.block(j0, &mut bbuf);
                    for (jj, bj) in b8.iter().enumerate() {
                        panel[ri * n + j0 + jj] = tree_dot(ar, bj);
                    }
                    j0 += JB;
                }
                for j in j0..n {
                    let bj = b.seg(j, 0, ka, &mut bbuf);
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

    /// Finite values must agree bit for bit. NaNs only have to be NaN on
    /// both sides: which operand's payload and sign a NaN product inherits
    /// depends on the operand order the optimizer picks for `a * b`.
    fn assert_bits_eq(got: &Tensor, want: &Tensor, tag: &str) {
        assert_eq!(got.shape(), want.shape(), "{tag} shape");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{tag} elem {i}: {g} vs {w}"
            );
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
