//! Integer-domain GEMM kernels over packed×packed BFP operand pairs.
//!
//! This is the datapath the paper's cost argument is about (DESIGN.md
//! §11): when both operands are [`PackedMat`]s whose
//! quantization groups run along the reduction dimension, the product
//! factors per group pair
//!
//! ```text
//! C[i,j] = Σ_seg  (sA(i,seg) · sB(seg,j)) · Σ_{p∈seg} manA[i,p] · manB[p,j]
//! ```
//!
//! so the inner sum is an exact `i8×i8→i32` integer dot product and the f32
//! work collapses to one scale multiply-accumulate per reduction segment —
//! no dequantized panels are ever materialized. The kernels here implement
//! that algebra with one explicit SIMD row body over two micro-kernels,
//! and a portable scalar fallback, chosen by runtime feature detection
//! ([`host_kernel`]):
//!
//! * **AVX-VNNI** (`_mm256_dpbusd_avx_epi32`): u8×i8 products of four
//!   k-steps summed into each i32 lane and accumulated in one instruction.
//!   B is stored biased, `b ^ 0x80 = b + 128` as an unsigned byte, so each
//!   segment subtracts `128·Σ a` when it closes. The biased sum may wrap
//!   `i32`; the true sum fits it ([`MAX_INT_SEGMENT`]), and modular
//!   arithmetic returns it exactly, for any `i8`.
//! * **AVX2** (`_mm256_madd_epi16`): i16×i16 products of two k-steps,
//!   B sign-extended — on hosts without AVX-VNNI, and for groups that are
//!   even but not a multiple of four.
//!
//! Every path produces **bit-identical** results because the integer
//! partial sums are exact in any association and the f32 fix-up applies the
//! same three operations (`scale-product mul`, `i32→f32 convert + mul`,
//! `add`) per segment in the same ascending-segment order.
//! `.cargo/config.toml` notes why this holds: Rust never contracts separate
//! mul/add into an FMA.
//!
//! The only inexact steps are the per-segment `i32 → f32` conversion (exact
//! while `|acc| < 2²⁴`, i.e. for reduction segments up to 128 values at
//! `m ≤ 7`) and the cross-segment f32 accumulation, one add per segment
//! where the dense chain of [`crate::matmul`] adds once per element. The
//! segment oracle in `crates/tensor/tests/support` pins every kernel here
//! to that definition bit for bit; `crates/nn/tests/integer_accuracy.rs`
//! bounds its distance from an f64 reference.
//!
//! [`PackedMat`]: crate::qgemm::PackedMat
#![allow(unsafe_code)]

use crate::parallel::shard_rows;
use crate::qgemm::{PackLayout, PackedMat, MAX_INT_SEGMENT};
use crate::tensor::Tensor;

#[cfg(test)]
#[path = "../tests/support/segment_oracle.rs"]
mod segment_oracle;

/// True when every reduction segment of a `k`-deep product with group sizes
/// `ga`/`gb` fits the exact-i32 bound [`MAX_INT_SEGMENT`]. Segment length is
/// capped by the smaller group (and by `k` itself when groups are wider than
/// the whole reduction).
pub(crate) fn segment_bound_ok(k: usize, ga: usize, gb: usize) -> bool {
    ga.min(gb).min(k.max(1)) <= MAX_INT_SEGMENT
}

/// Reduction segments of a `k`-deep dot product: maximal runs that stay
/// inside one A-group and one B-group. `(start, len, a_block, b_block)`.
/// With `ga == gb == g` this is exactly the block list `[i·g, (i+1)·g)`.
fn segments(k: usize, ga: usize, gb: usize) -> Vec<(usize, usize, usize, usize)> {
    let mut segs = Vec::with_capacity(k.div_ceil(ga.min(gb).max(1)));
    let mut s = 0;
    while s < k {
        let e = ((s / ga + 1) * ga).min((s / gb + 1) * gb).min(k);
        segs.push((s, e - s, s / ga, s / gb));
        s = e;
    }
    segs
}

/// An operand whose scale blocks run along its storage rows: row-major
/// `rows × k` mantissas plus row-major `rows × bpr` scales
/// (`bpr = ceil(k / g)` blocks per row).
struct RowSide<'a> {
    man: &'a [i8],
    scale: &'a [f32],
    bpr: usize,
}

impl<'a> RowSide<'a> {
    /// Views a `RowGroups`-packed matrix (groups along the reduction dim).
    fn of(p: &'a PackedMat) -> Self {
        RowSide {
            man: p.mantissas(),
            scale: p.scales(),
            bpr: p.cols().div_ceil(p.group()).max(1),
        }
    }
}

/// An operand whose scale blocks run down its storage columns: row-major
/// `k × n` mantissas plus row-major `nblocks × n` scales, and the same
/// operand in panel order when it was laid out that way.
struct ColSide<'a> {
    man: &'a [i8],
    scale: &'a [f32],
    panels: Option<&'a NnPanels>,
}

impl<'a> ColSide<'a> {
    /// Views a `ColGroups`-packed matrix (groups along the reduction dim).
    fn of(p: &'a PackedMat) -> Self {
        ColSide {
            man: p.mantissas(),
            scale: p.scales(),
            panels: p.nn_panels(),
        }
    }
}

/// Output columns per panel of the vector kernel (two 256-bit vectors of
/// eight i32 lanes per k-step).
const PANEL_COLS: usize = 16;

/// The vector kernel's micro-kernels: the instruction that multiplies a
/// broadcast word of A's k-steps into one panel row of B and accumulates
/// the products into eight i32 column lanes (DESIGN.md §11). Ordered by
/// width, so a host that runs one also runs every smaller one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MicroKernel {
    /// AVX2 `_mm256_madd_epi16`: i16×i16 over k-pairs, B sign-extended.
    Madd,
    /// AVX-VNNI `_mm256_dpbusd_avx_epi32`: u8×i8 over k-quads, B biased by
    /// `+128`.
    Dpbusd,
}

impl MicroKernel {
    /// Reduction values one instruction sums into each lane.
    const fn step(self) -> usize {
        match self {
            MicroKernel::Madd => 2,
            MicroKernel::Dpbusd => 4,
        }
    }
}

/// The widest micro-kernel this host runs, detected once: `None` without
/// AVX2 and off `x86_64`, where the scalar kernels run. The kernels are
/// compiled for whatever `-C target-cpu` allows; this gate is what makes
/// the binary safe on older x86-64 silicon.
pub(crate) fn host_kernel() -> Option<MicroKernel> {
    #[cfg(target_arch = "x86_64")]
    {
        static HOST: std::sync::OnceLock<Option<MicroKernel>> = std::sync::OnceLock::new();
        *HOST.get_or_init(|| {
            if !std::is_x86_feature_detected!("avx2") {
                None
            } else if std::is_x86_feature_detected!("avxvnni") {
                Some(MicroKernel::Dpbusd)
            } else {
                Some(MicroKernel::Madd)
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// The micro-kernel a product with group sizes `ga`/`gb` runs on, given
/// the widest one available (`best`): equal groups holding a whole number
/// of the kernel's k-steps, so no step straddles a scale block. A group
/// that is even but not a multiple of four drops to `madd`; `None` means
/// the scalar kernels.
fn micro_kernel(best: Option<MicroKernel>, ga: usize, gb: usize) -> Option<MicroKernel> {
    [MicroKernel::Dpbusd, MicroKernel::Madd]
        .into_iter()
        .find(|&mk| Some(mk) <= best && ga == gb && ga.is_multiple_of(mk.step()))
}

/// A `ColGroups` operand laid out once in the order the vector kernel
/// consumes its right-hand side ([`PackedMat::with_nn_panels`]), for the
/// micro-kernel this host runs on it, panel by panel: panel `q` covers
/// columns `j0 = 16q ..` and holds its k-step rows, then `⌈k/g⌉ × 16` block
/// scales of the same columns. Staying one byte per value, the layout
/// takes half of what a staged i16 panel takes.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Debug, Clone)]
pub(crate) struct NnPanels {
    /// The micro-kernel the layout was built for.
    kernel: MicroKernel,
    /// The k-step rows, by micro-kernel:
    ///
    /// * `madd`: `⌈k/2⌉` k-pair rows of 32 bytes — byte `2c + i` is
    ///   `b[2p+i][j0+c]`, the bytes the staging path interleaves with
    ///   `_mm_unpack{lo,hi}_epi8` before it sign-extends them, so a row is
    ///   two `_mm256_cvtepi8_epi16` away from the `madd` operands. Padding
    ///   (columns past `n`, an odd `k`'s high half) is zero.
    /// * `dpbusd`: `⌈k/4⌉` k-quad rows of 64 bytes — byte `4c + i` is
    ///   `b[4t+i][j0+c] ^ 0x80`, exactly what staging writes, so a row is
    ///   two loads away from the `dpbusd` operands. Padding is `0x80`, the
    ///   biased zero.
    bytes: Vec<u8>,
    scales: Vec<f32>,
}

impl NnPanels {
    /// `b`'s panel layout for the micro-kernel this host runs on it, if
    /// `b` is a right-hand side the vector kernel takes — column-grouped,
    /// with a group the micro-kernel takes, on an AVX2 host — and not
    /// empty.
    pub(crate) fn build(b: &PackedMat) -> Option<Self> {
        Self::build_for(micro_kernel(host_kernel(), b.group(), b.group())?, b)
    }

    /// `b`'s panel layout for micro-kernel `mk`, on any host.
    fn build_for(mk: MicroKernel, b: &PackedMat) -> Option<Self> {
        const W: usize = PANEL_COLS;
        let (k, n, g) = (b.rows(), b.cols(), b.group());
        if b.layout() != PackLayout::ColGroups || !g.is_multiple_of(mk.step()) || k == 0 || n == 0 {
            return None;
        }
        let (step, nblocks, panels) = (mk.step(), k.div_ceil(g), n.div_ceil(W));
        let row_len = step * W;
        let panel_len = k.div_ceil(step) * row_len;
        // One byte per (panel, k-step row, column, step): stored row `r` is
        // step `r % step` of row `r / step`. `zero` is the encoding's zero,
        // and each value is XORed with it.
        let zero = match mk {
            MicroKernel::Madd => 0,
            MicroKernel::Dpbusd => 0x80,
        };
        let mut bytes = vec![zero; panels * panel_len];
        let mut scales = vec![0.0f32; panels * nblocks * W];
        let per_panel = bytes
            .chunks_exact_mut(panel_len)
            .zip(scales.chunks_exact_mut(nblocks * W));
        for (q, (pbytes, pscales)) in per_panel.enumerate() {
            let j0 = q * W;
            let w = (n - j0).min(W);
            for (r, src) in b.mantissas().chunks_exact(n).enumerate() {
                let dst = &mut pbytes[(r / step) * row_len + r % step..];
                for (c, &v) in src[j0..j0 + w].iter().enumerate() {
                    dst[step * c] = v as u8 ^ zero;
                }
            }
            for (dst, src) in pscales.chunks_exact_mut(W).zip(b.scales().chunks_exact(n)) {
                dst[..w].copy_from_slice(&src[j0..j0 + w]);
            }
        }
        Some(NnPanels {
            kernel: mk,
            bytes,
            scales,
        })
    }

    /// Heap bytes of the layout.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.len() + 4 * self.scales.len()
    }
}

/// The right-hand operand of the staged vector kernel, as stored.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[derive(Clone, Copy)]
enum BSide<'a> {
    /// `k × n`, scale blocks down the columns (NN, TN).
    Cols(&'a ColSide<'a>),
    /// `n × k`, scale blocks along the rows (NT).
    Rows(&'a RowSide<'a>),
}

// ---------------------------------------------------------------------------
// NN: A (m×k, RowGroups) · B (k×n, ColGroups).
// ---------------------------------------------------------------------------

/// `C = A·B` in the integer domain. Caller guarantees reduction-grouped
/// layouts and [`segment_bound_ok`].
pub(crate) fn int_nn(a: &PackedMat, b: &PackedMat) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(b.rows(), k);
    nn_on(
        host_kernel(),
        &RowSide::of(a),
        a.group(),
        &ColSide::of(b),
        b.group(),
        (m, k, n),
    )
}

/// `Nn` on the widest micro-kernel up to `best` that the pair takes
/// ([`micro_kernel`]), or the scalar core.
fn nn_on(
    best: Option<MicroKernel>,
    a: &RowSide,
    ga: usize,
    b: &ColSide,
    gb: usize,
    dims: (usize, usize, usize),
) -> Tensor {
    let (m, k, n) = dims;
    let mut out = vec![0.0f32; m * n];
    if m > 0 && n > 0 && k > 0 && !staged_simd(best, a, BSide::Cols(b), ga, gb, dims, &mut out) {
        nn_scalar(a, b, ga, gb, dims, &mut out);
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Portable NN kernel over arbitrary (possibly unequal) group sizes. For
/// equal even groups this is element-for-element the same computation as
/// the vector kernel: the per-segment integer sums are exact, and the f32
/// fix-up applies `acc += (sa·sb) · (iacc as f32)` per segment in ascending
/// order, exactly like the vector code.
fn nn_scalar(
    a: &RowSide,
    b: &ColSide,
    ga: usize,
    gb: usize,
    dims: (usize, usize, usize),
    out: &mut [f32],
) {
    let (_m, k, n) = dims;
    let segs = segments(k, ga, gb);
    shard_rows(out, n, 2 * k * n, 1, |row_start, panel| {
        let mut iacc = vec![0i32; n];
        for (ri, c_row) in panel.chunks_mut(n).enumerate() {
            let i = row_start + ri;
            let arow = &a.man[i * k..i * k + k];
            let arsc = &a.scale[i * a.bpr..(i + 1) * a.bpr];
            for &(s0, len, ab, bb) in &segs {
                iacc.iter_mut().for_each(|x| *x = 0);
                for (p, &av) in arow[s0..s0 + len].iter().enumerate() {
                    let av = av as i32;
                    if av != 0 {
                        let brow = &b.man[(s0 + p) * n..(s0 + p) * n + n];
                        for (x, &bv) in iacc.iter_mut().zip(brow) {
                            *x += av * bv as i32;
                        }
                    }
                }
                let sa = arsc[ab];
                let srow = &b.scale[bb * n..bb * n + n];
                for ((c, &x), &sb) in c_row.iter_mut().zip(&iacc).zip(srow) {
                    *c += (sa * sb) * x as f32;
                }
            }
        }
    });
}

/// Output rows per register block of the vector kernel; also its shard
/// granule, so the row decomposition is identical for every worker count.
const ROW_QUAD: usize = 4;

/// Runs the pair on the vector kernel, on the widest micro-kernel up to
/// `best` that the pair takes ([`micro_kernel`]). Returns `false` when
/// there is none, and the caller takes its portable path. `A` is restaged
/// once on the caller's thread; workers split the rows, and each stages `B`
/// itself, one 16-column panel at a time — or, when `B` was laid out in
/// panel order for that micro-kernel ([`NnPanels`]), reads its panels in
/// place.
///
/// # Panics
///
/// Panics if `best` is wider than [`host_kernel`].
#[cfg(target_arch = "x86_64")]
fn staged_simd<'a>(
    best: Option<MicroKernel>,
    a: &RowSide<'a>,
    b: BSide<'a>,
    ga: usize,
    gb: usize,
    dims: (usize, usize, usize),
    out: &mut [f32],
) -> bool {
    let (_m, k, n) = dims;
    assert!(
        best <= host_kernel(),
        "{best:?} is not available on this host"
    );
    let Some(mk) = micro_kernel(best, ga, gb) else {
        return false;
    };
    let laid = match b {
        BSide::Cols(cols) => cols.panels.filter(|p| p.kernel == mk),
        BSide::Rows(_) => None,
    };
    let stage = simd::NnStage::build(mk, a, b, ga, dims);
    shard_rows(out, n, 2 * k * n, ROW_QUAD, |row_start, panel| {
        // SAFETY: `mk` is no wider than `host_kernel()`, which confirmed
        // its target features at runtime.
        unsafe {
            match (mk, laid) {
                (MicroKernel::Madd, None) => simd::nn_worker(&stage, row_start, panel),
                (MicroKernel::Dpbusd, None) => simd::vnni_worker(&stage, row_start, panel),
                (MicroKernel::Madd, Some(p)) => {
                    simd::laid_worker(&stage, &p.bytes, &p.scales, row_start, panel)
                }
                (MicroKernel::Dpbusd, Some(p)) => {
                    simd::vnni_laid_worker(&stage, &p.bytes, &p.scales, row_start, panel)
                }
            }
        }
    });
    true
}

#[cfg(not(target_arch = "x86_64"))]
fn staged_simd(
    _best: Option<MicroKernel>,
    _a: &RowSide,
    _b: BSide,
    _ga: usize,
    _gb: usize,
    _dims: (usize, usize, usize),
    _out: &mut [f32],
) -> bool {
    false
}

// ---------------------------------------------------------------------------
// NT: A (m×k, RowGroups) · Bᵀ with B stored n×k RowGroups. From
// `ROW_QUAD` output rows up, the staged vector kernel runs, gathering each
// k-step panel from sixteen stored rows of B. Below that — where the gather
// costs more than the product — and for the pairs the vector kernel
// refuses, every element is a sum of per-segment dot products over two
// contiguous i8 rows. Both apply the same three f32 operations per segment
// in the same order over exact integer sums, so they agree bit for bit
// (`staged_nt_matches_segment_dots_bitwise`).
// ---------------------------------------------------------------------------

/// `C = A·Bᵀ` in the integer domain.
pub(crate) fn int_nt(a: &PackedMat, b: &PackedMat) -> Tensor {
    nt_on(host_kernel(), a, b)
}

/// `Nt` on the micro-kernels up to `best` (`None`: the scalar dots).
///
/// # Panics
///
/// Panics if `best` is wider than [`host_kernel`].
fn nt_on(best: Option<MicroKernel>, a: &PackedMat, b: &PackedMat) -> Tensor {
    assert!(
        best <= host_kernel(),
        "{best:?} is not available on this host"
    );
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    debug_assert_eq!(b.cols(), k);
    let (av, bv) = (RowSide::of(a), RowSide::of(b));
    let (ga, gb) = (a.group(), b.group());
    let mut out = vec![0.0f32; m * n];
    let staged = m >= ROW_QUAD
        && n > 0
        && k > 0
        && staged_simd(best, &av, BSide::Rows(&bv), ga, gb, (m, k, n), &mut out);
    if !staged && m > 0 && n > 0 {
        let segs = segments(k, ga, gb);
        #[cfg(target_arch = "x86_64")]
        if best.is_some() {
            nt_core(&Avx2Dot, &av, &bv, &segs, (k, n), &mut out);
            return Tensor::from_vec(vec![m, n], out);
        }
        nt_core(&ScalarDot, &av, &bv, &segs, (k, n), &mut out);
    }
    Tensor::from_vec(vec![m, n], out)
}

fn nt_core<D: Dot>(
    d: &D,
    a: &RowSide,
    b: &RowSide,
    segs: &[(usize, usize, usize, usize)],
    kn: (usize, usize),
    out: &mut [f32],
) {
    let (k, n) = kn;
    shard_rows(out, n, 2 * k * n, 1, |row_start, panel| {
        for (ri, c_row) in panel.chunks_mut(n).enumerate() {
            let i = row_start + ri;
            let arow = &a.man[i * k..i * k + k];
            let arsc = &a.scale[i * a.bpr..(i + 1) * a.bpr];
            for (j, c) in c_row.iter_mut().enumerate() {
                let brow = &b.man[j * k..j * k + k];
                let brsc = &b.scale[j * b.bpr..(j + 1) * b.bpr];
                let mut acc = 0.0f32;
                for &(s0, len, ab, bb) in segs {
                    let ia = d.dot(&arow[s0..s0 + len], &brow[s0..s0 + len]);
                    acc += (arsc[ab] * brsc[bb]) * ia as f32;
                }
                *c = acc;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// TN: Aᵀ·B with A stored k×m ColGroups, B stored k×n ColGroups. A's
// mantissas and scales are staged transposed (an exact relayout — integer
// and scale data are copied, never recomputed), then the NN kernels run.
// ---------------------------------------------------------------------------

/// `C = Aᵀ·B` in the integer domain.
pub(crate) fn int_tn(a: &PackedMat, b: &PackedMat) -> Tensor {
    debug_assert_eq!(b.rows(), a.rows());
    tn_on(host_kernel(), a, &ColSide::of(b), b.group(), b.cols())
}

/// `Tn` on the micro-kernels up to `best`, with `B` (`k × n`, group `gb`)
/// as given.
fn tn_on(best: Option<MicroKernel>, a: &PackedMat, b: &ColSide, gb: usize, n: usize) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let ga = a.group();
    let nba = k.div_ceil(ga).max(1);
    let (am, asc) = (a.mantissas(), a.scales());
    let mut tman = vec![0i8; m * k];
    for (p, src) in am.chunks_exact(m.max(1)).enumerate().take(k) {
        for (i, &v) in src.iter().enumerate() {
            tman[i * k + p] = v;
        }
    }
    let mut tsc = vec![0.0f32; m * nba];
    for (bb, src) in asc.chunks_exact(m.max(1)).enumerate().take(nba) {
        for (i, &s) in src.iter().enumerate() {
            tsc[i * nba + bb] = s;
        }
    }
    nn_on(
        best,
        &RowSide {
            man: &tman,
            scale: &tsc,
            bpr: nba,
        },
        ga,
        b,
        gb,
        (m, k, n),
    )
}

// ---------------------------------------------------------------------------
// Segment dot products. Both implementations compute the mathematically
// exact i32 sum (the per-segment operand bound is enforced by
// `segment_bound_ok`), so swapping them never changes a result bit.
// ---------------------------------------------------------------------------

trait Dot: Sync {
    fn dot(&self, a: &[i8], b: &[i8]) -> i32;
}

struct ScalarDot;

impl Dot for ScalarDot {
    #[inline]
    fn dot(&self, a: &[i8], b: &[i8]) -> i32 {
        a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
    }
}

#[cfg(target_arch = "x86_64")]
struct Avx2Dot;

#[cfg(target_arch = "x86_64")]
impl Dot for Avx2Dot {
    #[inline]
    fn dot(&self, a: &[i8], b: &[i8]) -> i32 {
        // SAFETY: constructed only on an AVX2 host (`host_kernel()`).
        unsafe { simd::dot_i8(a, b) }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! The SIMD lowering of the segment algebra. For eight output columns
    //! at once, one micro-kernel instruction adds a k-step's products
    //! `Σᵢ a[k₀+i]·b[k₀+i][j]` into an i32 lane:
    //!
    //! * `_mm256_madd_epi16` over k-pairs (i16×i16, both sides
    //!   sign-extended), followed by an add;
    //! * `_mm256_dpbusd_avx_epi32` over k-quads (u8×i8, accumulating). Its
    //!   unsigned operand is B biased by `+128` (`b ^ 0x80`), so a lane
    //!   sums `Σ a·b + 128·Σ a`, and the segment close subtracts
    //!   `128·Σ a`, computed when A is staged. Every step is modular
    //!   (`dpbusd`, not the saturating `dpbusds`), and the true sum fits
    //!   `i32` (`MAX_INT_SEGMENT`), so the result is exact even when the
    //!   biased sum wraps.
    //!
    //! Steps never cross a scale block: a product runs a micro-kernel only
    //! when its shared group holds a whole number of steps. The row body
    //! and the panel loops are generic over the panel row type
    //! ([`PanelRow`]) and always inlined, so each out-of-line worker below
    //! compiles them under its own target features — AVX-VNNI code never
    //! lands in a function a plain AVX2 host runs.

    use super::{BSide, MicroKernel, RowSide, PANEL_COLS as W, ROW_QUAD};
    use core::arch::x86_64::*;

    /// The vector kernel's shared, read-only inputs, built once on the
    /// caller's thread:
    ///
    /// * `aw` — A's mantissas as one little-endian `u32` per k-step of the
    ///   micro-kernel: i16 k-pairs `a[2p] | a[2p+1] << 16` for `madd`, i8
    ///   k-quads `a[4t] | … | a[4t+3] << 24` for `dpbusd`. Each row takes
    ///   `stride` words, a whole number of blocks, zero past `k`. A is the
    ///   small side at serving shapes (`m` is the batch), so it is restaged
    ///   whole.
    /// * `abias` — `dpbusd` only: `128·Σ a` over each (row, block), which
    ///   the block's close subtracts from its biased sums.
    /// * `b` — B as stored. No copy of it is made here: every worker
    ///   reads B's panels in place when B carries its panel layout, and
    ///   otherwise stages the panel it is about to consume into its own
    ///   buffer ([`stage_pairs`], [`stage_quads`]).
    pub(super) struct NnStage<'a> {
        aw: Vec<u32>,
        abias: Vec<i32>,
        ascale: &'a [f32],
        abpr: usize,
        b: BSide<'a>,
        k: usize,
        stride: usize,
        steps: usize,
        steps_per_block: usize,
        nblocks: usize,
        n: usize,
    }

    impl<'a> NnStage<'a> {
        pub(super) fn build(
            mk: MicroKernel,
            a: &RowSide<'a>,
            b: BSide<'a>,
            g: usize,
            dims: (usize, usize, usize),
        ) -> Self {
            let (m, k, n) = dims;
            let step = mk.step();
            let (nblocks, steps_per_block) = (k.div_ceil(g).max(1), g / step);
            let stride = nblocks * steps_per_block;
            let mut aw = vec![0u32; m * stride];
            if mk == MicroKernel::Dpbusd && stride * 4 == k {
                // Rows of whole blocks: the words are A's bytes as they
                // are, converted in one flat pass. Row by row, the same
                // words made a 2048×72 conv operand's product 1.42× the
                // `madd` kernel's time instead of 1.18× (paired, 2-vCPU
                // x86-64 VM).
                for (w, q) in aw.iter_mut().zip(a.man.chunks_exact(4)) {
                    *w = quad_word(q.try_into().expect("four bytes"));
                }
            } else {
                for (arow, wrow) in a.man.chunks_exact(k).zip(aw.chunks_exact_mut(stride)) {
                    match mk {
                        MicroKernel::Madd => step_words(arow, wrow, |[lo, hi]| pair_word(lo, hi)),
                        MicroKernel::Dpbusd => step_words(arow, wrow, quad_word),
                    }
                }
            }
            let abias = match mk {
                MicroKernel::Madd => Vec::new(),
                MicroKernel::Dpbusd => block_bias(&aw, steps_per_block),
            };
            NnStage {
                aw,
                abias,
                ascale: a.scale,
                abpr: a.bpr,
                b,
                k,
                stride,
                steps: k.div_ceil(step),
                steps_per_block,
                nblocks,
                n,
            }
        }
    }

    /// Two mantissas as one little-endian i16 k-pair word.
    fn pair_word(lo: i8, hi: i8) -> u32 {
        (lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16)
    }

    /// Four mantissas as one little-endian i8 k-quad word.
    fn quad_word(vals: [i8; 4]) -> u32 {
        u32::from_le_bytes(vals.map(|v| v as u8))
    }

    /// `128·Σ a` over each block of `spb` k-quad words (rows of whole
    /// blocks, back to back), modular. The common block lengths get a
    /// constant one, so the sums vectorize: a block costs about a word.
    fn block_bias(words: &[u32], spb: usize) -> Vec<i32> {
        fn sums<const S: usize>(words: &[u32], spb: usize) -> Vec<i32> {
            // Four signed bytes' sum: biased to unsigned, summed as two
            // 16-bit fields, then unbiased.
            let byte_sum = |w: u32| {
                let u = w ^ 0x8080_8080;
                let x = (u & 0x00FF_00FF) + ((u >> 8) & 0x00FF_00FF);
                ((x & 0xFFFF) + (x >> 16)) as i32 - 4 * 128
            };
            let block = |b: &[u32]| b.iter().fold(0i32, |s, &w| s.wrapping_add(byte_sum(w)));
            let spb = if S > 0 { S } else { spb };
            words
                .chunks_exact(spb)
                .map(|b| block(b).wrapping_mul(128))
                .collect()
        }
        match spb {
            1 => sums::<1>(words, spb),
            2 => sums::<2>(words, spb),
            4 => sums::<4>(words, spb),
            8 => sums::<8>(words, spb),
            _ => sums::<0>(words, spb),
        }
    }

    /// `row`'s values `S` at a time as k-step words (`word`) at the front
    /// of `words`, the last step zero-padded past the row's end.
    #[inline]
    fn step_words<const S: usize>(row: &[i8], words: &mut [u32], word: impl Fn([i8; S]) -> u32) {
        let mut steps = row.chunks_exact(S);
        for (w, vals) in words.iter_mut().zip(&mut steps) {
            *w = word(vals.try_into().expect("a whole step"));
        }
        if let tail @ [_, ..] = steps.remainder() {
            let mut vals = [0i8; S];
            vals[..tail.len()].copy_from_slice(tail);
            words[row.len() / S] = word(vals);
        }
    }

    /// Up to 16 bytes as one vector, zero past the end.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `host_kernel`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_padded(src: &[i8]) -> __m128i {
        let mut row = [0i8; W];
        let src = match src.get(..W) {
            Some(whole) => whole,
            None => {
                row[..src.len()].copy_from_slice(src);
                &row
            }
        };
        _mm_loadu_si128(src.as_ptr() as *const __m128i)
    }

    /// Stages the block scales of B's columns `j0..j0 + w` into a panel's
    /// `nblocks × W` scales, zero past `w`.
    fn stage_scales(s: &NnStage, j0: usize, w: usize, scales: &mut [f32]) {
        for (bb, dst) in scales.chunks_exact_mut(W).enumerate() {
            for (c, d) in dst.iter_mut().enumerate() {
                *d = match s.b {
                    _ if c >= w => 0.0,
                    BSide::Cols(b) => b.scale[bb * s.n + j0 + c],
                    BSide::Rows(b) => b.scale[(j0 + c) * b.bpr + bb],
                };
            }
        }
    }

    /// Stages B's columns `j0..j0 + w` (`w ≤ W`) as one worker's `madd`
    /// panel, overwriting all of it:
    ///
    /// * `words` — `steps × W` k-pair words; word `c` of row `p` is
    ///   `[b[2p][j0+c], b[2p+1][j0+c]]` as two i16, so one
    ///   `_mm256_madd_epi16` against a broadcast A pair covers eight
    ///   columns and two k-steps;
    /// * `scales` — `nblocks × W` block scales of the same columns.
    ///
    /// Columns past `w` and the high half of an odd `k`'s last pair are
    /// zero. At `k = 1152` the words take 36 KiB, against a whole-operand
    /// copy of `2·k·n` bytes.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `host_kernel`).
    ///
    /// # Panics
    ///
    /// Panics unless `words`/`scales` have the panel's sizes and
    /// `j0 + w ≤ n`: the vector stores below rely on both.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stage_pairs(
        s: &NnStage,
        j0: usize,
        w: usize,
        words: &mut [u32],
        scales: &mut [f32],
    ) {
        let (k, n) = (s.k, s.n);
        assert!(words.len() == s.steps * W && scales.len() == s.nblocks * W);
        assert!(w <= W && j0 + w <= n);
        stage_scales(s, j0, w, scales);
        match s.b {
            // Stored rows `2p` and `2p+1` interleave byte by byte; one
            // sign extension per half widens them into the panel row.
            BSide::Cols(b) => {
                for (p, dst) in words.chunks_exact_mut(W).enumerate() {
                    let r0 = &b.man[2 * p * n + j0..][..w];
                    let r1 = if 2 * p + 1 < k {
                        &b.man[(2 * p + 1) * n + j0..][..w]
                    } else {
                        &[]
                    };
                    if w == W {
                        let x = _mm_loadu_si128(r0.as_ptr() as *const __m128i);
                        let y = if r1.is_empty() {
                            _mm_setzero_si128()
                        } else {
                            _mm_loadu_si128(r1.as_ptr() as *const __m128i)
                        };
                        let d = dst.as_mut_ptr() as *mut __m256i;
                        _mm256_storeu_si256(d, _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(x, y)));
                        _mm256_storeu_si256(
                            d.add(1),
                            _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(x, y)),
                        );
                    } else {
                        for (c, d) in dst.iter_mut().enumerate() {
                            *d = match (r0.get(c), r1.get(c)) {
                                (Some(&x), y) => pair_word(x, y.copied().unwrap_or(0)),
                                (None, _) => 0,
                            };
                        }
                    }
                }
            }
            // Stored row `j0 + c` is panel column `c`. Panel rows are
            // written in order, each from the next k-pair of the `w`
            // stored rows, so every stored row is read front to back.
            BSide::Rows(b) => {
                let rows = &b.man[j0 * k..(j0 + w) * k];
                for (p, dst) in words.chunks_exact_mut(W).enumerate() {
                    for (d, brow) in dst.iter_mut().zip(rows.chunks_exact(k)) {
                        *d = pair_word(brow[2 * p], brow.get(2 * p + 1).copied().unwrap_or(0));
                    }
                    dst[w..].fill(0);
                }
            }
        }
    }

    /// Stages B's columns `j0..j0 + w` (`w ≤ W`) as one worker's `dpbusd`
    /// panel, overwriting all of it: `bytes` takes `steps` k-quad rows of
    /// `4·W` biased bytes — byte `4c + i` of row `t` is
    /// `b[4t+i][j0+c] ^ 0x80`, the layout of [`super::NnPanels`] — and
    /// `scales` the block scales, as [`stage_pairs`]. Padding (columns
    /// past `w`, the k-tail of the last quad) is `0x80`, the biased zero.
    ///
    /// # Safety
    ///
    /// As [`stage_pairs`].
    ///
    /// # Panics
    ///
    /// As [`stage_pairs`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stage_quads(
        s: &NnStage,
        j0: usize,
        w: usize,
        bytes: &mut [u8],
        scales: &mut [f32],
    ) {
        let (k, n) = (s.k, s.n);
        assert!(bytes.len() == s.steps * 4 * W && scales.len() == s.nblocks * W);
        assert!(w <= W && j0 + w <= n);
        stage_scales(s, j0, w, scales);
        match s.b {
            // Stored rows `4t..4t+4` interleave byte by byte, then pair by
            // pair: four 16-byte loads become four 16-byte stores. Rows
            // past `k` and columns past `w` load as zero.
            BSide::Cols(b) => {
                let bias = _mm_set1_epi8(i8::MIN);
                for (t, dst) in bytes.chunks_exact_mut(4 * W).enumerate() {
                    let row = |i: usize| {
                        let r = 4 * t + i;
                        load_padded(if r < k {
                            &b.man[r * n + j0..][..w]
                        } else {
                            &[]
                        })
                    };
                    let (x0, x1, x2, x3) = (row(0), row(1), row(2), row(3));
                    let (lo01, hi01) = (_mm_unpacklo_epi8(x0, x1), _mm_unpackhi_epi8(x0, x1));
                    let (lo23, hi23) = (_mm_unpacklo_epi8(x2, x3), _mm_unpackhi_epi8(x2, x3));
                    let quads = [
                        _mm_unpacklo_epi16(lo01, lo23),
                        _mm_unpackhi_epi16(lo01, lo23),
                        _mm_unpacklo_epi16(hi01, hi23),
                        _mm_unpackhi_epi16(hi01, hi23),
                    ];
                    let d = dst.as_mut_ptr() as *mut __m128i;
                    for (i, q) in quads.into_iter().enumerate() {
                        _mm_storeu_si128(d.add(i), _mm_xor_si128(q, bias));
                    }
                }
            }
            // Stored row `j0 + c` is panel column `c`, and a quad is four
            // contiguous bytes of it; rows are written in order, as in
            // [`stage_pairs`].
            BSide::Rows(b) => {
                let rows = &b.man[j0 * k..(j0 + w) * k];
                for (t, dst) in bytes.chunks_exact_mut(4 * W).enumerate() {
                    for (d, brow) in dst.chunks_exact_mut(4).zip(rows.chunks_exact(k)) {
                        let q = match brow.get(4 * t..4 * t + 4) {
                            Some(q) => quad_word(q.try_into().expect("four bytes")),
                            None => {
                                let mut q = [0i8; 4];
                                q[..k - 4 * t].copy_from_slice(&brow[4 * t..]);
                                quad_word(q)
                            }
                        };
                        d.copy_from_slice(&(q ^ 0x8080_8080).to_le_bytes());
                    }
                    dst[4 * w..].fill(0x80);
                }
            }
        }
    }

    /// A panel row type whose panels a worker stages itself.
    trait Staged: PanelRow + Default {
        /// Stages one panel ([`stage_pairs`], [`stage_quads`]).
        ///
        /// # Safety
        ///
        /// As [`stage_pairs`].
        unsafe fn stage(s: &NnStage, j0: usize, w: usize, b: &mut [Self], scales: &mut [f32]);
    }

    impl Staged for u32 {
        #[inline]
        unsafe fn stage(s: &NnStage, j0: usize, w: usize, b: &mut [u32], scales: &mut [f32]) {
            stage_pairs(s, j0, w, b, scales)
        }
    }

    impl Staged for u8 {
        #[inline]
        unsafe fn stage(s: &NnStage, j0: usize, w: usize, b: &mut [u8], scales: &mut [f32]) {
            stage_quads(s, j0, w, b, scales)
        }
    }

    /// `madd` over panels it stages itself ([`staged_rows`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `host_kernel`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        staged_rows::<u32>(s, row_start, out)
    }

    /// `dpbusd` over panels it stages itself ([`staged_rows`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and AVX-VNNI (checked by the caller via
    /// `host_kernel`).
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn vnni_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        staged_rows::<u8>(s, row_start, out)
    }

    /// `madd` over a B laid out in panel order ([`laid_rows`]). Out of
    /// line and chosen once per product: folded into `nn_worker`, its row
    /// bodies grew that function by 40 % and slowed the staged `Nt`
    /// training shapes by 4–6 % in paired timings.
    ///
    /// # Safety
    ///
    /// As [`nn_worker`].
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn laid_worker(
        s: &NnStage,
        laid: &[u8],
        scales: &[f32],
        row_start: usize,
        out: &mut [f32],
    ) {
        // SAFETY: `u8` and `i8` share size and alignment; the `madd` layout
        // holds the mantissas' two's-complement bytes as they are.
        let laid = core::slice::from_raw_parts(laid.as_ptr().cast::<i8>(), laid.len());
        laid_rows(s, laid, scales, row_start, out)
    }

    /// `dpbusd` over a B laid out in panel order ([`laid_rows`]); out of
    /// line for the reason [`laid_worker`] is.
    ///
    /// # Safety
    ///
    /// As [`vnni_worker`].
    #[inline(never)]
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn vnni_laid_worker(
        s: &NnStage,
        laid: &[u8],
        scales: &[f32],
        row_start: usize,
        out: &mut [f32],
    ) {
        laid_rows(s, laid, scales, row_start, out)
    }

    /// One worker's shard: the output rows `row_start..`, row-major in
    /// `out`. Column panels are the outer loop — each is staged once into
    /// the worker's own buffer, then every row quad of the shard consumes
    /// it — so nothing copies B whole.
    ///
    /// # Safety
    ///
    /// Requires the target features of `T`'s micro-kernel.
    #[inline(always)]
    unsafe fn staged_rows<T: Staged>(s: &NnStage, row_start: usize, out: &mut [f32]) {
        let n = s.n;
        let mut b = vec![T::default(); s.steps * T::LEN];
        let mut scales = vec![0.0f32; s.nblocks * W];
        for j0 in (0..n).step_by(W) {
            let w = (n - j0).min(W);
            T::stage(s, j0, w, &mut b, &mut scales);
            let panel = Panel {
                b: b.as_slice(),
                scales: scales.as_slice(),
                j0,
                w,
            };
            panel_rows(s, panel, row_start, out);
        }
    }

    /// [`staged_rows`] for a B laid out in panel order (`laid` and
    /// `scales`, B's [`super::NnPanels`]): each panel is read in place.
    ///
    /// # Safety
    ///
    /// As [`staged_rows`].
    ///
    /// # Panics
    ///
    /// Panics unless the layout has the sizes of this product's `k`, group
    /// and `n`: the vector loads rely on them.
    #[inline(always)]
    unsafe fn laid_rows<T: PanelRow>(
        s: &NnStage,
        laid: &[T],
        scales: &[f32],
        row_start: usize,
        out: &mut [f32],
    ) {
        let n = s.n;
        let (bytes, block_scales) = (s.steps * T::LEN, s.nblocks * W);
        assert!(
            laid.len() == n.div_ceil(W) * bytes && scales.len() == n.div_ceil(W) * block_scales
        );
        let panels = laid
            .chunks_exact(bytes)
            .zip(scales.chunks_exact(block_scales));
        for (q, (b, scales)) in panels.enumerate() {
            let (j0, w) = (q * W, (n - q * W).min(W));
            panel_rows(s, Panel { b, scales, j0, w }, row_start, out);
        }
    }

    /// One 16-column panel of B as the row body reads it: `steps` k-step
    /// rows of `T::LEN` elements, `nblocks × W` scales, and the panel's
    /// place in the output (`w ≤ W` real columns from `j0`).
    #[derive(Clone, Copy)]
    struct Panel<'p, T> {
        b: &'p [T],
        scales: &'p [f32],
        j0: usize,
        w: usize,
    }

    /// How a panel stores one k-step row of its 16 columns, and the
    /// micro-kernel that consumes it: the only things in which the staged
    /// and laid-out `madd` panels and the `dpbusd` panel differ.
    trait PanelRow: Copy {
        /// Elements per k-step row.
        const LEN: usize;

        /// Whether B is biased by `+128`, so each segment close subtracts
        /// `128·Σ a`.
        const BIASED: bool;

        /// The row as the micro-kernel's two B operands, columns 0–7 then
        /// 8–15.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features, and `LEN` readable
        /// elements at `row`.
        unsafe fn load(row: *const Self) -> (__m256i, __m256i);

        /// `acc` plus, per lane, the products of the broadcast A word `a`
        /// and one B operand `b` over one k-step.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn step(acc: __m256i, a: __m256i, b: __m256i) -> __m256i;
    }

    /// A staged `madd` panel ([`stage_pairs`]): k-pair words, already i16.
    impl PanelRow for u32 {
        const LEN: usize = W;
        const BIASED: bool = false;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(row: *const u32) -> (__m256i, __m256i) {
            let v = row as *const __m256i;
            (_mm256_loadu_si256(v), _mm256_loadu_si256(v.add(1)))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step(acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
            _mm256_add_epi32(acc, _mm256_madd_epi16(a, b))
        }
    }

    /// A laid-out `madd` panel ([`super::NnPanels`]): the interleaved
    /// bytes, sign-extended here exactly as staging would have.
    impl PanelRow for i8 {
        const LEN: usize = 2 * W;
        const BIASED: bool = false;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(row: *const i8) -> (__m256i, __m256i) {
            let v = row as *const __m128i;
            (
                _mm256_cvtepi8_epi16(_mm_loadu_si128(v)),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(v.add(1))),
            )
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step(acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
            <u32 as PanelRow>::step(acc, a, b)
        }
    }

    /// A `dpbusd` panel, staged ([`stage_quads`]) or laid out: biased
    /// k-quad bytes, read as they are.
    impl PanelRow for u8 {
        const LEN: usize = 4 * W;
        const BIASED: bool = true;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(row: *const u8) -> (__m256i, __m256i) {
            let v = row as *const __m256i;
            (_mm256_loadu_si256(v), _mm256_loadu_si256(v.add(1)))
        }

        #[inline]
        #[target_feature(enable = "avx2,avxvnni")]
        unsafe fn step(acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
            _mm256_dpbusd_avx_epi32(acc, b, a)
        }
    }

    /// Every row of one worker's shard (`row_start..`, row-major in `out`)
    /// over one panel: four-row quads, then the remainder one by one.
    ///
    /// # Safety
    ///
    /// As [`nn_rows`].
    #[inline(always)]
    unsafe fn panel_rows<T: PanelRow>(
        s: &NnStage,
        panel: Panel<T>,
        row_start: usize,
        out: &mut [f32],
    ) {
        let n = s.n;
        let quads = out.len() / n / ROW_QUAD * ROW_QUAD;
        for (q, c) in out[..quads * n].chunks_exact_mut(ROW_QUAD * n).enumerate() {
            nn_rows::<ROW_QUAD, T>(s, panel, row_start + q * ROW_QUAD, c);
        }
        for (r, c) in out[quads * n..].chunks_exact_mut(n).enumerate() {
            nn_rows::<1, T>(s, panel, row_start + quads + r, c);
        }
    }

    /// `R` output rows (absolute row `i0`, row-major in `c`) of one panel.
    ///
    /// # Safety
    ///
    /// Requires the target features of `T`'s micro-kernel, and a panel of
    /// `s.steps × T::LEN` elements and `s.nblocks × W` scales — the sizes
    /// the staging functions and [`laid_rows`] check: the vector loads
    /// read them unchecked.
    #[inline(always)]
    unsafe fn nn_rows<const R: usize, T: PanelRow>(
        s: &NnStage,
        panel: Panel<T>,
        i0: usize,
        c: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for bb in 0..s.nblocks {
            let t0 = bb * s.steps_per_block;
            let t1 = ((bb + 1) * s.steps_per_block).min(s.steps);
            let mut iacc = [[_mm256_setzero_si256(); 2]; R];
            for t in t0..t1 {
                let (bv0, bv1) = T::load(panel.b.as_ptr().add(t * T::LEN));
                for (r, ir) in iacc.iter_mut().enumerate() {
                    let av = _mm256_set1_epi32(s.aw[(i0 + r) * s.stride + t] as i32);
                    ir[0] = T::step(ir[0], av, bv0);
                    ir[1] = T::step(ir[1], av, bv1);
                }
            }
            if T::BIASED {
                for (r, ir) in iacc.iter_mut().enumerate() {
                    let bias = _mm256_set1_epi32(s.abias[(i0 + r) * s.nblocks + bb]);
                    ir[0] = _mm256_sub_epi32(ir[0], bias);
                    ir[1] = _mm256_sub_epi32(ir[1], bias);
                }
            }
            let srow = panel.scales.as_ptr().add(bb * W);
            let sb0 = _mm256_loadu_ps(srow);
            let sb1 = _mm256_loadu_ps(srow.add(8));
            for (r, ar) in acc.iter_mut().enumerate() {
                let sa = _mm256_set1_ps(s.ascale[(i0 + r) * s.abpr + bb]);
                let f0 = _mm256_mul_ps(_mm256_mul_ps(sa, sb0), _mm256_cvtepi32_ps(iacc[r][0]));
                let f1 = _mm256_mul_ps(_mm256_mul_ps(sa, sb1), _mm256_cvtepi32_ps(iacc[r][1]));
                ar[0] = _mm256_add_ps(ar[0], f0);
                ar[1] = _mm256_add_ps(ar[1], f1);
            }
        }
        let (j0, w) = (panel.j0, panel.w);
        for (ar, row) in acc.iter().zip(c.chunks_exact_mut(s.n)) {
            let dst = &mut row[j0..j0 + w];
            if w == W {
                _mm256_storeu_ps(dst.as_mut_ptr(), ar[0]);
                _mm256_storeu_ps(dst.as_mut_ptr().add(8), ar[1]);
            } else {
                let mut tmp = [0.0f32; W];
                _mm256_storeu_ps(tmp.as_mut_ptr(), ar[0]);
                _mm256_storeu_ps(tmp.as_mut_ptr().add(8), ar[1]);
                dst.copy_from_slice(&tmp[..w]);
            }
        }
    }

    /// Exact i32 dot product of two i8 slices (the NT segment kernel):
    /// sixteen-wide `cvtepi8_epi16` + `madd` blocks, scalar remainder,
    /// horizontal sum. Integer addition is associative, so this equals
    /// `ScalarDot` bit-for-bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `host_kernel`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        debug_assert_eq!(a.len(), b.len());
        let mut vacc = _mm256_setzero_si256();
        let mut p = 0;
        while p + 16 <= a.len() {
            let av = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(p) as *const __m128i));
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(p) as *const __m128i));
            vacc = _mm256_add_epi32(vacc, _mm256_madd_epi16(av, bv));
            p += 16;
        }
        let mut lanes = [0i32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vacc);
        let mut s: i32 = lanes.iter().sum();
        for (&x, &y) in a[p..].iter().zip(&b[p..]) {
            s += x as i32 * y as i32;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qgemm::{qmatmul, qmatmul_nt, qmatmul_tn, Operand, PackLayout};
    use rand::{Rng, SeedableRng};

    fn random_pack(
        rows: usize,
        cols: usize,
        group: usize,
        layout: PackLayout,
        seed: u64,
    ) -> PackedMat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mans: Vec<i8> = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0
                } else {
                    rng.gen_range(-127..=127)
                }
            })
            .collect();
        let n_scales = match layout {
            PackLayout::RowGroups => rows * cols.div_ceil(group).max(1),
            PackLayout::ColGroups => rows.div_ceil(group).max(1) * cols,
        };
        let scales: Vec<f32> = (0..n_scales)
            .map(|_| {
                if rng.gen_bool(0.08) {
                    0.0
                } else {
                    2.0f32.powi(rng.gen_range(-12..4))
                }
            })
            .collect();
        PackedMat::new(rows, cols, group, layout, mans, scales)
    }

    /// f64 reference over the dequantized values — the "what the math says"
    /// answer the kernels approximate.
    fn reference(a: &PackedMat, b: &PackedMat, tn: bool, nt: bool) -> Vec<f64> {
        let (m, k, n) = if tn {
            (a.cols(), a.rows(), b.cols())
        } else if nt {
            (a.rows(), a.cols(), b.rows())
        } else {
            (a.rows(), a.cols(), b.cols())
        };
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    let av = if tn { a.value(p, i) } else { a.value(i, p) } as f64;
                    let bv = if nt { b.value(j, p) } else { b.value(p, j) } as f64;
                    acc += av * bv;
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_close(got: &Tensor, want: &[f64], tag: &str) {
        let scale = want.iter().fold(1e-30f64, |s, v| s.max(v.abs()));
        for (i, (&g, &w)) in got.data().iter().zip(want).enumerate() {
            let err = (g as f64 - w).abs() / scale;
            assert!(err < 1e-5, "{tag} elem {i}: got {g}, want {w}, rel {err}");
        }
    }

    // Shapes crossing the 16-column panel, the 4-row quad, odd k (pair
    // padding), and single-row/column edges.
    const SHAPES: [(usize, usize, usize); 6] = [
        (4, 32, 32),
        (1, 9, 40),
        (7, 13, 2),
        (9, 40, 33),
        (5, 47, 17),
        (8, 64, 70),
    ];

    #[test]
    fn nn_matches_f64_reference() {
        for (m, k, n) in SHAPES {
            for g in [2usize, 6, 16] {
                let a = random_pack(m, k, g, PackLayout::RowGroups, 7 + m as u64 + g as u64);
                let b = random_pack(k, n, g, PackLayout::ColGroups, 9 + n as u64 + g as u64);
                let got = qmatmul(Operand::Packed(&a), Operand::Packed(&b));
                assert_close(
                    &got,
                    &reference(&a, &b, false, false),
                    &format!("nn ({m},{k},{n}) g={g}"),
                );
            }
        }
    }

    #[test]
    fn nn_mixed_and_odd_groups_use_the_scalar_path() {
        for (ga, gb) in [(3usize, 3usize), (4, 8), (5, 7), (16, 2)] {
            let a = random_pack(6, 24, ga, PackLayout::RowGroups, 31 + ga as u64);
            let b = random_pack(24, 19, gb, PackLayout::ColGroups, 37 + gb as u64);
            let got = qmatmul(Operand::Packed(&a), Operand::Packed(&b));
            assert_close(
                &got,
                &reference(&a, &b, false, false),
                &format!("nn ga={ga} gb={gb}"),
            );
        }
    }

    #[test]
    fn nt_and_tn_match_f64_reference() {
        for (m, k, n) in SHAPES {
            let a = random_pack(m, k, 16, PackLayout::RowGroups, 41 + m as u64);
            let bt = random_pack(n, k, 16, PackLayout::RowGroups, 43 + n as u64);
            let got = qmatmul_nt(Operand::Packed(&a), Operand::Packed(&bt));
            assert_close(
                &got,
                &reference(&a, &bt, false, true),
                &format!("nt ({m},{k},{n})"),
            );

            let at = random_pack(k, m, 16, PackLayout::ColGroups, 47 + m as u64);
            let b = random_pack(k, n, 16, PackLayout::ColGroups, 53 + n as u64);
            let got = qmatmul_tn(Operand::Packed(&at), Operand::Packed(&b));
            assert_close(
                &got,
                &reference(&at, &b, true, false),
                &format!("tn ({m},{k},{n})"),
            );
        }
    }

    /// Row counts on both sides of the four-row blocking, column counts
    /// on both sides of each 16-column panel edge, and depths of every
    /// residue mod 4 (the padded last k-pair or k-quad) — the shapes panel
    /// staging has to get right.
    const TAIL_MS: [usize; 5] = [1, 3, 4, 5, 8];
    const TAIL_NS: [usize; 6] = [1, 15, 16, 17, 33, 70];
    const TAIL_KS: [usize; 6] = [1, 7, 13, 18, 32, 47];

    /// The micro-kernels this host runs, narrowest first.
    fn host_kernels() -> Vec<MicroKernel> {
        [MicroKernel::Madd, MicroKernel::Dpbusd]
            .into_iter()
            .filter(|&mk| Some(mk) <= host_kernel())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every integer path against the segment oracle, bit for bit: the
    /// scalar `Nn` core; the host's own dispatch through the public entry
    /// points, with `B` staged and laid out ([`PackedMat::with_nn_panels`]);
    /// and each micro-kernel this host runs, called directly on the same
    /// operands — `Nn` and `Tn` with `B` staged per call and read from its
    /// panel layout for that micro-kernel, and staged `Nt` (from four rows;
    /// below, the dots). Over the tail grid at groups of both residues mod
    /// 4 (a `g ≡ 2` pair drops from `dpbusd` to `madd`), the shapes above
    /// and three shapes deep enough to shard, at 1–3 workers.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn vector_paths_agree_with_the_segment_oracle_bitwise() {
        use crate::parallel::{parallelism, set_parallelism, Parallelism};
        use crate::qgemm::Orient;
        use segment_oracle::segment_product;
        let kernels = host_kernels();
        if kernels.is_empty() {
            return; // vector path unreachable on this host
        }
        let grid = [2usize, 4, 6, 8, 16, 32].into_iter().flat_map(|g| {
            TAIL_MS
                .into_iter()
                .flat_map(|m| TAIL_NS.into_iter().map(move |n| (m, n)))
                .flat_map(move |(m, n)| TAIL_KS.into_iter().map(move |k| (g, m, n, k)))
        });
        let shapes = SHAPES.into_iter().map(|(m, k, n)| (16, m, n, k));
        let sharded = [(16, 61, 70, 301), (6, 9, 70, 512), (32, 12, 40, 302)];
        let saved = parallelism();
        for (g, m, n, k) in shapes.chain(sharded).chain(grid) {
            let seed = (61 * m + 67 * n + 71 * k + g) as u64;
            let a = random_pack(m, k, g, PackLayout::RowGroups, seed);
            let at = random_pack(k, m, g, PackLayout::ColGroups, seed + 2);
            let bt = random_pack(n, k, g, PackLayout::RowGroups, seed + 3);
            let staged = random_pack(k, n, g, PackLayout::ColGroups, seed + 1);
            let laid = staged.clone().with_nn_panels();
            assert!(laid.nn_panels().is_some());
            let want = bits(&segment_product(Orient::Nn, &a, &staged));
            let want_tn = bits(&segment_product(Orient::Tn, &at, &staged));
            let want_nt = bits(&segment_product(Orient::Nt, &a, &bt));
            let mut scalar = vec![0.0f32; m * n];
            let (av, bv) = (RowSide::of(&a), ColSide::of(&staged));
            nn_scalar(&av, &bv, g, g, (m, k, n), &mut scalar);
            assert_eq!(bits(&scalar), want, "scalar ({m},{k},{n}) g={g}");
            let layouts = kernels
                .iter()
                .map(|&mk| (mk, NnPanels::build_for(mk, &staged)));
            let layouts: Vec<_> = layouts.collect();
            for workers in 1..=3 {
                set_parallelism(Parallelism::new(workers));
                let shape = format!("({m},{k},{n}) g={g} workers={workers}");
                for (b, path) in [(&staged, "staged"), (&laid, "laid out")] {
                    assert_eq!(bits(int_nn(&a, b).data()), want, "nn {path} {shape}");
                    assert_eq!(bits(int_tn(&at, b).data()), want_tn, "tn {path} {shape}");
                }
                assert_eq!(bits(int_nt(&a, &bt).data()), want_nt, "nt {shape}");
                for (mk, panels) in &layouts {
                    let best = Some(*mk);
                    assert_eq!(panels.is_some(), g.is_multiple_of(mk.step()));
                    let laid = ColSide {
                        panels: panels.as_ref(),
                        ..ColSide::of(&staged)
                    };
                    for (b, path) in [(&bv, "staged"), (&laid, "laid out")] {
                        let tag = format!("{mk:?} {path} {shape}");
                        let nn = nn_on(best, &av, g, b, g, (m, k, n));
                        assert_eq!(bits(nn.data()), want, "nn {tag}");
                        let tn = tn_on(best, &at, b, g, n);
                        assert_eq!(bits(tn.data()), want_tn, "tn {tag}");
                    }
                    let nt = nt_on(best, &a, &bt);
                    assert_eq!(bits(nt.data()), want_nt, "nt {mk:?} {shape}");
                }
            }
        }
        set_parallelism(saved);
    }

    /// `dpbusd` sums the products of B biased by `+128`, so a segment's
    /// lane can wrap `i32` where its true sum does not: with A all `−128`
    /// and B all `+127`, the biased sum of the longest segment of whole
    /// k-quads (131 068 values, a multiple of four under
    /// [`MAX_INT_SEGMENT`]) is `−4.28·10⁹`. Modular steps and the bias
    /// subtraction still return the exact `−2.13·10⁹`; the saturating
    /// `dpbusds` would not. B all `−128` too gives the extremal product,
    /// `k·128²`, just under `2³¹`. Staged and laid-out `Nn` and `Tn` and
    /// staged `Nt`, on each micro-kernel this host runs.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_longest_quad_segment_wraps_its_biased_sum_and_stays_exact() {
        let k = MAX_INT_SEGMENT / 4 * 4;
        assert_eq!(k, 131_068);
        assert!(k as i64 * 255 * -128 < i64::from(i32::MIN));
        let (m, n) = (4, 16);
        let a = PackedMat::new(
            m,
            k,
            k,
            PackLayout::RowGroups,
            vec![-128; m * k],
            vec![1.0; m],
        );
        let at = PackedMat::new(
            k,
            m,
            k,
            PackLayout::ColGroups,
            vec![-128; m * k],
            vec![1.0; m],
        );
        for bv in [127i8, -128] {
            let want = vec![(-128 * i32::from(bv) * k as i32) as f32; m * n];
            let b = PackedMat::new(
                k,
                n,
                k,
                PackLayout::ColGroups,
                vec![bv; k * n],
                vec![1.0; n],
            );
            let bt = PackedMat::new(
                n,
                k,
                k,
                PackLayout::RowGroups,
                vec![bv; k * n],
                vec![1.0; n],
            );
            for mk in host_kernels() {
                let panels = NnPanels::build_for(mk, &b);
                let laid = ColSide {
                    panels: panels.as_ref(),
                    ..ColSide::of(&b)
                };
                for (side, path) in [(ColSide::of(&b), "staged"), (laid, "laid out")] {
                    let tag = format!("{mk:?} {path} b={bv}");
                    let nn = nn_on(Some(mk), &RowSide::of(&a), k, &side, k, (m, k, n));
                    assert_eq!(nn.data(), want, "nn {tag}");
                    let tn = tn_on(Some(mk), &at, &side, k, n);
                    assert_eq!(tn.data(), want, "tn {tag}");
                }
                assert_eq!(nt_on(Some(mk), &a, &bt).data(), want, "nt {mk:?} b={bv}");
            }
        }
    }

    /// Byte `i` of `mk`'s panel layout of `b` (`k × n`, row-major
    /// mantissas), as [`NnPanels`] documents it: panel `q`, k-step row
    /// `t`, column `c`, step `s` holds `b[step·t + s][16q + c]` — as is
    /// for `madd`, `^ 0x80` for `dpbusd` — and past `k` or `n` the zero of
    /// that encoding.
    fn layout_byte(mk: MicroKernel, b: &PackedMat, i: usize) -> u8 {
        let (k, n, step) = (b.rows(), b.cols(), mk.step());
        let (row, panel) = (16 * step, k.div_ceil(step) * 16 * step);
        let (q, t, c, s) = (i / panel, i % panel / row, i % row / step, i % step);
        let (r, j) = (step * t + s, 16 * q + c);
        let v = if r < k && j < n {
            b.mantissas()[r * n + j] as u8
        } else {
            0
        };
        match mk {
            MicroKernel::Madd => v,
            MicroKernel::Dpbusd => v ^ 0x80,
        }
    }

    /// Each panel layout holds exactly `B`'s columns, byte for byte:
    /// `madd` k-pair rows interleave stored rows `2p`, `2p + 1`, `dpbusd`
    /// k-quad rows interleave rows `4t … 4t + 3` biased by `+128`, the
    /// block scales sit beside them, and everything else — tail columns
    /// and the k-tail of the last step — is the encoding's zero (`0`,
    /// `0x80`). Neither reaches an output bit (tail lanes are never stored,
    /// A's k-tail is zero), so only this test sees them. A layout exists
    /// exactly when the micro-kernel takes the group;
    /// [`PackedMat::with_nn_panels`] builds the host's and counts it in
    /// `heap_bytes`; a row-grouped or odd-group matrix gets none.
    #[test]
    fn laid_out_panels_hold_exactly_the_operands_columns() {
        let grid = [2usize, 4, 6, 16].into_iter().flat_map(|g| {
            TAIL_NS
                .into_iter()
                .flat_map(move |n| TAIL_KS.into_iter().map(move |k| (g, n, k)))
        });
        for (g, n, k) in grid {
            let seed = (g * 1000 + n * 50 + k) as u64;
            let b = random_pack(k, n, g, PackLayout::ColGroups, seed);
            for mk in [MicroKernel::Madd, MicroKernel::Dpbusd] {
                let step = mk.step();
                let Some(laid) = NnPanels::build_for(mk, &b) else {
                    assert!(!g.is_multiple_of(step), "{mk:?} g={g} lays out");
                    continue;
                };
                assert_eq!(laid.kernel, mk);
                let got = &laid.bytes;
                let (nblocks, panels) = (k.div_ceil(g), n.div_ceil(16));
                assert_eq!(got.len(), panels * k.div_ceil(step) * 16 * step);
                assert_eq!(laid.scales.len(), panels * nblocks * 16);
                assert_eq!(laid.heap_bytes(), got.len() + 4 * laid.scales.len());
                for (i, &got) in got.iter().enumerate() {
                    let want = layout_byte(mk, &b, i);
                    assert_eq!(got, want, "{mk:?} g={g} n={n} k={k} byte {i}");
                }
                for (i, &got) in laid.scales.iter().enumerate() {
                    let (q, bb, c) = (i / (nblocks * 16), i / 16 % nblocks, i % 16);
                    let j = 16 * q + c;
                    let want = if j < n { b.scales()[bb * n + j] } else { 0.0 };
                    let tag = format!("scale {mk:?} g={g} n={n} k={k} bb={bb} j={j}");
                    assert_eq!(got.to_bits(), want.to_bits(), "{tag}");
                }
            }
            let unlaid = b.heap_bytes();
            let b = b.with_nn_panels();
            let host = micro_kernel(host_kernel(), g, g);
            assert_eq!(b.nn_panels().map(|p| p.kernel), host, "g={g}");
            let laid = b.nn_panels().map_or(0, NnPanels::heap_bytes);
            assert_eq!(b.heap_bytes(), unlaid + laid);
        }
        for b in [
            random_pack(9, 20, 3, PackLayout::ColGroups, 1),
            random_pack(9, 20, 16, PackLayout::RowGroups, 2),
        ] {
            let unlaid = b.heap_bytes();
            let b = b.with_nn_panels();
            assert!(b.nn_panels().is_none());
            assert_eq!(b.heap_bytes(), unlaid);
        }
    }

    /// A staged panel holds exactly B's columns `j0..j0 + w`, whatever the
    /// buffer held before: `madd` k-pair words — low half row `2p`, high
    /// half row `2p + 1`, zero padding — and `dpbusd` k-quad bytes in the
    /// laid-out order, `0x80` padding. Tail columns and the k-tail of the
    /// last step are padded, never left stale.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn staged_panels_hold_exactly_the_operands_columns() {
        let word = |lo: i8, hi: i8| (lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16);
        let shapes = TAIL_NS
            .into_iter()
            .flat_map(|n| TAIL_KS.into_iter().map(move |k| (n, k)));
        for ((n, k), mk) in shapes.flat_map(|s| host_kernels().into_iter().map(move |mk| (s, mk))) {
            let g = 3 * mk.step();
            let a = random_pack(1, k, g, PackLayout::RowGroups, 5);
            let b = random_pack(k, n, g, PackLayout::ColGroups, (n * 100 + k) as u64);
            let bt = random_pack(n, k, g, PackLayout::RowGroups, (n * 100 + k + 1) as u64);
            let av = RowSide::of(&a);
            let (cols, rows) = (ColSide::of(&b), RowSide::of(&bt));
            for (side, packed, transposed) in [
                (BSide::Cols(&cols), &b, false),
                (BSide::Rows(&rows), &bt, true),
            ] {
                let stage = simd::NnStage::build(mk, &av, side, g, (1, k, n));
                let steps = k.div_ceil(mk.step());
                let mut words = vec![0u32; steps * 16];
                let mut bytes = vec![0u8; steps * 64];
                let mut scales = vec![0.0f32; k.div_ceil(g) * 16];
                let at = |p: usize, j: usize| {
                    let (r, c) = if transposed { (j, p) } else { (p, j) };
                    packed.mantissas()[r * packed.cols() + c]
                };
                let scale = |bb: usize, j: usize| {
                    if transposed {
                        packed.scales()[j * k.div_ceil(g) + bb]
                    } else {
                        packed.scales()[bb * n + j]
                    }
                };
                for j0 in (0..n).step_by(16) {
                    let w = (n - j0).min(16);
                    let tag = format!("{mk:?} n={n} k={k} t={transposed} j0={j0}");
                    scales.fill(f32::NAN);
                    match mk {
                        MicroKernel::Madd => {
                            words.fill(0xDEAD_BEEF);
                            // SAFETY: `host_kernels` confirmed AVX2.
                            unsafe { simd::stage_pairs(&stage, j0, w, &mut words, &mut scales) };
                            for (p, row) in words.chunks_exact(16).enumerate() {
                                for (c, &got) in row.iter().enumerate() {
                                    let want = if c < w {
                                        let hi = if 2 * p + 1 < k {
                                            at(2 * p + 1, j0 + c)
                                        } else {
                                            0
                                        };
                                        word(at(2 * p, j0 + c), hi)
                                    } else {
                                        0
                                    };
                                    assert_eq!(got, want, "{tag} p={p} c={c}");
                                }
                            }
                        }
                        MicroKernel::Dpbusd => {
                            bytes.fill(0x5A);
                            // SAFETY: `host_kernels` confirmed AVX2.
                            unsafe { simd::stage_quads(&stage, j0, w, &mut bytes, &mut scales) };
                            for (i, &got) in bytes.iter().enumerate() {
                                let (t, c, s) = (i / 64, i % 64 / 4, i % 4);
                                let r = 4 * t + s;
                                let v = if c < w && r < k { at(r, j0 + c) } else { 0 };
                                assert_eq!(got, v as u8 ^ 0x80, "{tag} t={t} c={c} s={s}");
                            }
                        }
                    }
                    for (bb, row) in scales.chunks_exact(16).enumerate() {
                        for (c, &got) in row.iter().enumerate() {
                            let want = if c < w { scale(bb, j0 + c) } else { 0.0 };
                            assert_eq!(got.to_bits(), want.to_bits(), "scale {tag} bb={bb}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn scalar_and_simd_segment_dots_agree() {
        if host_kernel().is_none() {
            return;
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100] {
            let a: Vec<i8> = (0..len).map(|_| rng.gen_range(-127..=127)).collect();
            let b: Vec<i8> = (0..len).map(|_| rng.gen_range(-127..=127)).collect();
            assert_eq!(ScalarDot.dot(&a, &b), Avx2Dot.dot(&a, &b), "len {len}");
        }
    }

    /// `int_nt` against the per-segment `ScalarDot` reference, bit for bit:
    /// equal even groups (the staged panel path from four rows up, the
    /// vector dots below) with `m` on both sides of the switch and of the
    /// four-row blocking, odd `k` (pair padding), `n` on both sides of
    /// each 16-column panel edge, and the odd / unequal groups that the
    /// vector kernel refuses (the vector dot path).
    #[test]
    fn staged_nt_matches_segment_dots_bitwise() {
        let tails = TAIL_MS
            .into_iter()
            .flat_map(|m| TAIL_NS.into_iter().map(move |n| (m, n)))
            .flat_map(|(m, n)| [(m, 13, n), (m, 47, n)]);
        let shapes = [
            (1, 9, 40),
            (3, 64, 17),
            (4, 32, 32),
            (5, 47, 17),
            (9, 40, 33),
            (64, 96, 70),
        ];
        for (m, k, n) in shapes.into_iter().chain(tails) {
            for (ga, gb) in [(16usize, 16usize), (2, 2), (6, 6), (3, 3), (4, 8), (5, 7)] {
                let a = random_pack(m, k, ga, PackLayout::RowGroups, 91 + (m + ga) as u64);
                let b = random_pack(n, k, gb, PackLayout::RowGroups, 93 + (n + gb) as u64);
                let mut want = vec![0.0f32; m * n];
                nt_core(
                    &ScalarDot,
                    &RowSide::of(&a),
                    &RowSide::of(&b),
                    &segments(k, ga, gb),
                    (k, n),
                    &mut want,
                );
                let got = int_nt(&a, &b);
                for (i, (g, w)) in got.data().iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "({m},{k},{n}) ga={ga} gb={gb} elem {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        use crate::parallel::{parallelism, set_parallelism, Parallelism};
        let saved = parallelism();
        let a = random_pack(37, 96, 16, PackLayout::RowGroups, 81);
        let b = random_pack(96, 41, 16, PackLayout::ColGroups, 83);
        let bt = random_pack(41, 96, 16, PackLayout::RowGroups, 85);
        // Odd groups keep `int_nt` on the segment-dot path.
        let (a3, bt3) = (
            random_pack(37, 96, 3, PackLayout::RowGroups, 87),
            random_pack(41, 96, 3, PackLayout::RowGroups, 86),
        );
        // Deep enough that the work-size heuristic shards the staged path.
        let (abig, btbig) = (
            random_pack(64, 512, 16, PackLayout::RowGroups, 88),
            random_pack(96, 512, 16, PackLayout::RowGroups, 89),
        );
        // Five column panels (the last 6 wide) over fifteen row quads and a
        // remainder row, odd `k`: the workers split the row quads, and each
        // stages every panel.
        let (awide, bwide) = (
            random_pack(61, 301, 16, PackLayout::RowGroups, 90),
            random_pack(301, 70, 16, PackLayout::ColGroups, 91),
        );
        set_parallelism(Parallelism::sequential());
        let s1 = int_nn(&a, &b);
        let s2 = int_nt(&a, &bt);
        let s3 = int_nt(&a3, &bt3);
        let s4 = int_nt(&abig, &btbig);
        let s5 = int_nn(&awide, &bwide);
        for workers in [2, 3, 5, 8] {
            set_parallelism(Parallelism::new(workers));
            assert_eq!(int_nn(&a, &b), s1, "nn workers={workers}");
            assert_eq!(int_nt(&a, &bt), s2, "nt workers={workers}");
            assert_eq!(int_nt(&a3, &bt3), s3, "nt dots workers={workers}");
            assert_eq!(int_nt(&abig, &btbig), s4, "nt staged workers={workers}");
            assert_eq!(int_nn(&awide, &bwide), s5, "nn panels workers={workers}");
        }
        set_parallelism(saved);
    }

    #[test]
    fn segment_decomposition_is_exact() {
        assert_eq!(segments(8, 4, 4), vec![(0, 4, 0, 0), (4, 4, 1, 1)]);
        assert_eq!(
            segments(10, 4, 6),
            vec![(0, 4, 0, 0), (4, 2, 1, 0), (6, 2, 1, 1), (8, 2, 2, 1)]
        );
        assert_eq!(segments(3, 8, 8), vec![(0, 3, 0, 0)]);
        assert!(segments(0, 4, 4).is_empty());
        assert!(segment_bound_ok(1 << 20, 128, 16));
        assert!(!segment_bound_ok(1 << 20, 1 << 20, 1 << 20));
    }
}
