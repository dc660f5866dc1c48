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
//! **Bit identity.** In every orientation each output element is one serial
//! chain `acc = 0.0; acc += a·b` in ascending `k`, and the dequantized value
//! `mantissa as f32 * scale` is bit-identical to what fake quantization
//! would have written (see `fast_bfp::packed` and DESIGN.md §9). A
//! packed-operand GEMM therefore produces the same f32 result bits as
//! quantize-copy + dense GEMM, for every worker count. The dense functions
//! ([`crate::matmul`], [`crate::matmul_nt`], [`crate::matmul_tn`]) are the
//! all-dense instantiations of the same generic kernels, and any tile that
//! gives each element its own accumulator yields the chain's bits, whatever
//! the element's row, column or neighbours (DESIGN.md §7).
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
// Operand access: dense storage borrows, packed storage dequantizes into
// caller scratch. `NEEDS_BUF` lets kernels skip scratch allocation on
// all-dense paths.
// ---------------------------------------------------------------------------

/// A stored row-major matrix as the kernels read it. Row access (`block`,
/// `seg`) serves whole or partial storage rows; panel access serves a `k × n`
/// operand whose reduction runs down its columns: `stage` dequantizes
/// columns `[j0, j0+w)` of all `k` rows into scratch once per panel, `krow`
/// then serves row segments from it (dense storage skips staging and
/// borrows directly).
pub(crate) trait Src: Sync {
    const NEEDS_BUF: bool;
    /// Every stored value is finite (packed values are, by construction).
    const FINITE: bool;
    /// Rows `i0..i0+N` (`buf` must hold `N` rows).
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N];
    /// Columns `[k0, k0+len)` of row `i` (`buf` must hold `len`).
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, buf: &'s mut [f32]) -> &'s [f32];
    fn stage(&self, j0: usize, w: usize, buf: &mut [f32]);
    fn krow<'s>(&'s self, buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32];
}

/// Dense storage: `d` holds rows of `w` values.
pub(crate) struct Dense<'a> {
    d: &'a [f32],
    w: usize,
}

impl<'a> Dense<'a> {
    pub(crate) fn of(t: &'a Tensor) -> Self {
        Dense {
            d: t.data(),
            w: t.shape()[1],
        }
    }
}

impl Src for Dense<'_> {
    const NEEDS_BUF: bool = false;
    const FINITE: bool = false;
    #[inline]
    fn block<'s, const N: usize>(&'s self, i0: usize, _buf: &'s mut [f32]) -> [&'s [f32]; N] {
        std::array::from_fn(|q| &self.d[(i0 + q) * self.w..(i0 + q + 1) * self.w])
    }
    #[inline]
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, _buf: &'s mut [f32]) -> &'s [f32] {
        &self.d[i * self.w + k0..][..len]
    }
    #[inline]
    fn stage(&self, _j0: usize, _w: usize, _buf: &mut [f32]) {}
    #[inline]
    fn krow<'s>(&'s self, _buf: &'s [f32], kk: usize, j0: usize, w: usize) -> &'s [f32] {
        &self.d[kk * self.w + j0..kk * self.w + j0 + w]
    }
}

struct Packed<'a>(&'a PackedMat);

impl Src for Packed<'_> {
    const NEEDS_BUF: bool = true;
    const FINITE: bool = true;
    #[inline]
    fn block<'s, const N: usize>(&'s self, i0: usize, buf: &'s mut [f32]) -> [&'s [f32]; N] {
        let w = self.0.cols;
        for (q, chunk) in buf[..N * w].chunks_mut(w.max(1)).take(N).enumerate() {
            self.0.fill_row_seg(i0 + q, 0, chunk);
        }
        let buf: &'s [f32] = buf;
        std::array::from_fn(|q| &buf[q * w..(q + 1) * w])
    }
    #[inline]
    fn seg<'s>(&'s self, i: usize, k0: usize, len: usize, buf: &'s mut [f32]) -> &'s [f32] {
        self.0.fill_row_seg(i, k0, &mut buf[..len]);
        &buf[..len]
    }
    #[inline]
    fn stage(&self, j0: usize, w: usize, buf: &mut [f32]) {
        for kk in 0..self.0.rows {
            self.0.fill_row_seg(kk, j0, &mut buf[kk * w..kk * w + w]);
        }
    }
    #[inline]
    fn krow<'s>(&'s self, buf: &'s [f32], kk: usize, _j0: usize, w: usize) -> &'s [f32] {
        &buf[kk * w..kk * w + w]
    }
}

/// Element `(i, j)` of a source.
fn at<S: Src>(s: &S, i: usize, j: usize) -> f32 {
    let mut buf = [0.0f32];
    s.seg(i, j, 1, &mut buf)[0]
}

// ---------------------------------------------------------------------------
// Public entry points. Under `ExecMode::Integer` an eligible packed×packed
// pair runs the integer-domain kernels: the quantization groups of *both*
// operands must run along the reduction dimension (so the group-scale
// product factors out of each integer segment) and the segment length must
// respect `MAX_INT_SEGMENT`. Everything else replays: the generic kernel of
// the orientation, instantiated for the two operands' storage.
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

/// One orientation's generic kernel with its `(m, k, n)`.
#[derive(Clone, Copy)]
enum Kernel {
    Nn(usize, usize, usize),
    Nt(usize, usize, usize),
    Tn(usize, usize, usize),
}

impl Kernel {
    fn run<A: Src, B: Src>(self, a: &A, b: &B) -> Tensor {
        match self {
            Kernel::Nn(m, k, n) => nn_impl(a, b, m, k, n),
            Kernel::Nt(m, k, n) => nt_impl(a, b, m, k, n),
            Kernel::Tn(m, k, n) => tn_impl(a, b, m, k, n),
        }
    }

    /// Runs the kernel over whichever storage each operand has.
    fn replay(self, a: Operand<'_>, b: Operand<'_>) -> Tensor {
        use Operand::{Dense as D, Packed as P};
        match (a, b) {
            (D(x), D(y)) => self.run(&Dense::of(x), &Dense::of(y)),
            (D(x), P(y)) => self.run(&Dense::of(x), &Packed(y)),
            (P(x), D(y)) => self.run(&Packed(x), &Dense::of(y)),
            (P(x), P(y)) => self.run(&Packed(x), &Packed(y)),
        }
    }
}

/// `C (m×n) = A (m×k) · B (k×n)` over quantized operands — under
/// [`ExecMode::Replay`] bit-identical to [`matmul`] on the dequantized
/// copies. The integer path needs `A` in [`PackLayout::RowGroups`] and `B`
/// in [`PackLayout::ColGroups`].
///
/// [`matmul`]: crate::matmul
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
    Kernel::Nn(m, ka, n).replay(a, b)
}

/// `C (m×n) = A (m×k) · Bᵀ` with `B` stored `n×k` — under
/// [`ExecMode::Replay`] bit-identical to [`matmul_nt`] on the dequantized
/// copies. The integer path needs both operands in
/// [`PackLayout::RowGroups`] (both store the reduction along their rows).
///
/// [`matmul_nt`]: crate::matmul_nt
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
    Kernel::Nt(m, ka, n).replay(a, b)
}

/// `C (m×n) = Aᵀ · B` with `A` stored `k×m`, `B` stored `k×n` — under
/// [`ExecMode::Replay`] bit-identical to [`matmul_tn`] on the dequantized
/// copies. The integer path needs both operands in
/// [`PackLayout::ColGroups`] (the reduction runs down their columns).
///
/// [`matmul_tn`]: crate::matmul_tn
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
    Kernel::Tn(m, ka, n).replay(a, b)
}

// The three `*_impl` kernels below and the register tiles `nn_tile` /
// `tn_tile` are `#[inline(never)]`: every instantiation stays a standalone
// function, so its register allocation cannot depend on what else its
// caller contains. (Measured, twice: inlined into the mode-taking
// `qmatmul`, the packed×packed NN kernel served the benchmark's k = 1024
// GEMMs ~1.8× slower; and with the NN tile left at `#[inline]`, one
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
// The kernels. Every output element of every orientation is one chain
// `acc = +0.0; acc += a·b` in ascending `k` — no pairwise tree, no
// cross-element term — so a tile of any shape that advances its elements
// together down `k` produces the bits of the one-element-at-a-time triple
// loop (`crates/tensor/tests/proptests.rs` holds that loop as the oracle),
// whatever the element's row, column or neighbours. The dense `matmul`,
// `matmul_nt` and `matmul_tn` are the all-dense instantiations of these
// three generics.
//
// One data-dependent rule rides on top (`skip_rule`): the dense kernels
// these replaced skipped exact-zero `A` coefficients, which is visible only
// where a skipped `0·b` would have been NaN.
// ---------------------------------------------------------------------------

/// Rows of the NN register tile.
const MR: usize = 4;
/// Columns of the NN and TN register tiles (and of a staged panel).
const NR: usize = 32;

/// NN: `A` row quads stream past `NR`-column panels of `B`, each panel
/// staged once per shard. The `m % MR` rows left in the last shard stream
/// whole rows of `B` instead (`nn_rest`).
#[inline(never)]
pub(crate) fn nn_impl<A: Src, B: Src>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, MR, |row_start, c| {
            let quads = c.len() / n / MR * MR;
            let (c_quads, c_rest) = c.split_at_mut(quads * n);
            let mut bbuf = scratch(B::NEEDS_BUF && quads > 0, k * NR);
            let mut abuf = scratch(A::NEEDS_BUF && quads > 0, MR * k);
            if quads > 0 {
                // Each panel is staged once, and every quad passes it.
                for j0 in (0..n).step_by(NR) {
                    b.stage(j0, (n - j0).min(NR), &mut bbuf);
                    let bs = Staged::panel(b, &bbuf, j0, n);
                    for (q, c_quad) in c_quads.chunks_exact_mut(MR * n).enumerate() {
                        let aq = a.block(row_start + q * MR, &mut abuf);
                        if bs.w == NR {
                            nn_tile::<B, true>(&aq, &bs, k, n, &mut c_quad[j0..]);
                        } else {
                            nn_tile::<B, false>(&aq, &bs, k, n, &mut c_quad[j0..]);
                        }
                    }
                }
            }
            nn_rest(a, b, row_start + quads, k, n, c_rest);
        });
    }
    if !B::FINITE {
        skip_rule(&mut out, n, k, |i, kk| at(a, i, kk), |kk, j| at(b, kk, j));
    }
    Tensor::from_vec(vec![m, n], out)
}

/// One `MR×w` register tile (`w = b.w ≤ NR`). `FULL` promises `w == NR`:
/// the extents are then compile-time constants; a column-tail tile runs the
/// same loops with the zips cut short.
#[inline(never)]
#[allow(clippy::needless_range_loop)] // kk walks two operands in lockstep
fn nn_tile<B: Src, const FULL: bool>(
    aq: &[&[f32]; MR],
    b: &Staged<B>,
    k: usize,
    n: usize,
    c: &mut [f32],
) {
    let w = if FULL { NR } else { b.w };
    let aq = aq.map(|a_r| &a_r[..k]); // one bounds check, not one per step
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = b.src.krow(b.buf, kk, b.j0, w);
        // A full row goes through a local array: as a borrowed slice, LLVM
        // rebuilt part of it with shuffles and the tile ran ~20 % slower.
        let mut full = [0.0f32; NR];
        let brow = if FULL {
            full.copy_from_slice(brow);
            &full[..]
        } else {
            brow
        };
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = aq[r][kk];
            for (x, &bv) in acc_r.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * n..r * n + w].copy_from_slice(&acc_r[..w]);
    }
}

/// Fewer than `MR` rows `i0..` of an NN product: each row's `n` chains
/// advance together, in `c`, through whole rows of `B` — streamed in
/// storage order, each dequantized once for all the rows.
fn nn_rest<A: Src, B: Src>(a: &A, b: &B, i0: usize, k: usize, n: usize, c: &mut [f32]) {
    if c.is_empty() {
        return;
    }
    let rows = c.len() / n;
    let mut abuf = scratch(A::NEEDS_BUF, MR * k);
    let mut bbuf = scratch(B::NEEDS_BUF, n);
    // Slots past `rows` repeat the last row; the zip below never reads them.
    let mut bufs = abuf.chunks_mut(k.max(1));
    let ar: [&[f32]; MR] = std::array::from_fn(|r| {
        let buf = bufs.next().unwrap_or_default();
        a.seg(i0 + r.min(rows - 1), 0, k, buf)
    });
    for kk in 0..k {
        let brow = b.seg(kk, 0, n, &mut bbuf);
        for (c_r, a_r) in c.chunks_exact_mut(n).zip(&ar) {
            let av = a_r[kk];
            for (x, &bv) in c_r.iter_mut().zip(brow) {
                *x += av * bv;
            }
        }
    }
}

/// The zero-skip rule, applied element by element where it can show. An
/// aligned block of four reduction steps is left out when all four `a`
/// coefficients are zero, a `k % 4` tail step when its one is. A skipped
/// term is `0·b`: for finite `b` an exact no-op (a chain that starts at
/// `+0.0` never becomes `-0.0`), for `∞`/`NaN` a NaN. So a chain that did
/// not come out NaN already has the rule's value, and only NaN elements
/// are recomputed under it, from `a(i, kk)` and `b(kk, j)`. Kernels call
/// it only for a `B` that can hold `∞`/`NaN`: a dense one.
fn skip_rule(
    c: &mut [f32],
    n: usize,
    k: usize,
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) {
    // A branch-free scan first: it vectorizes, where the loop below cannot.
    if !c.iter().fold(false, |nan, x| nan | x.is_nan()) {
        return;
    }
    for (idx, x) in c.iter_mut().enumerate() {
        if x.is_nan() {
            let (i, j) = (idx / n, idx % n);
            let mut acc = 0.0f32;
            for kk in 0..k {
                let q0 = kk / 4 * 4;
                let skipped = if q0 + 4 <= k {
                    (q0..q0 + 4).all(|q| a(i, q) == 0.0)
                } else {
                    a(i, kk) == 0.0
                };
                if !skipped {
                    acc += a(i, kk) * b(kk, j);
                }
            }
            *x = acc;
        }
    }
}

/// Reduction chunk of the NT kernel: a `KC×NR` f32 panel is 32 KiB, which
/// stays L1-resident under the tile loop. Chains cross a chunk boundary
/// through `C` (an f32 store/load is exact).
const KC: usize = 256;

/// Rows of the TN tile. Both tiles below hold 64 accumulators — 8 of the 16
/// `ymm` registers, so none spills. A 128-accumulator tile (the `MR×NR` of
/// `nn_tile`) is no faster here, and its spill slots put stores on the
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
pub(crate) fn nt_impl<A: Src, B: Src>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
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
fn nt_panels<S: Src, P: Src>(
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
fn nt_panel<S: Src, P: Src, const RB: usize, const L: usize>(
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
#[inline(never)]
pub(crate) fn tn_impl<A: Src, B: Src>(a: &A, b: &B, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, TR, |row_start, c| {
            let rows = c.len() / n;
            let mut bbuf = scratch(B::NEEDS_BUF, k * NR);
            let mut abuf = scratch(A::NEEDS_BUF, k * NR);
            for j0 in (0..n).step_by(NR) {
                b.stage(j0, (n - j0).min(NR), &mut bbuf);
                let bs = Staged::panel(b, &bbuf, j0, n);
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
                        if rw == TR && bs.w == NR {
                            tn_tile::<A, B, true>(&a_s, &bs, k, (r0, rw), n, c_tile);
                        } else {
                            tn_tile::<A, B, false>(&a_s, &bs, k, (r0, rw), n, c_tile);
                        }
                    }
                }
            }
        });
    }
    if !B::FINITE {
        skip_rule(&mut out, n, k, |i, kk| at(a, kk, i), |kk, j| at(b, kk, j));
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Columns `[j0, j0+w)` of a [`Src`], staged in `buf` if it needs to be.
struct Staged<'s, S> {
    src: &'s S,
    buf: &'s [f32],
    j0: usize,
    w: usize,
}

impl<'s, S: Src> Staged<'s, S> {
    /// The `NR`-column panel of an `n`-column `src` that starts at `j0`.
    fn panel(src: &'s S, buf: &'s [f32], j0: usize, n: usize) -> Self {
        Staged {
            src,
            buf,
            j0,
            w: (n - j0).min(NR),
        }
    }

    #[inline]
    fn krow(&self, kk: usize) -> &[f32] {
        self.src.krow(self.buf, kk, self.j0, self.w)
    }
}

/// One `rw×w` outer-product tile (`rw ≤ TR`, `w = b.w ≤ NR`) over columns
/// `r0..r0+rw` of the staged A panel. `FULL` promises `rw == TR && w == NR`:
/// the extents are then compile-time constants and the `TR·NR` accumulators
/// stay in registers; edge tiles run the same loops with the zips cut short.
#[inline(never)]
fn tn_tile<A: Src, B: Src, const FULL: bool>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{matmul, matmul_nt, matmul_tn};
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
    // four-step skip blocks, and single-row/column edges.
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
