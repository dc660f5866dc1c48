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
//! that algebra with explicit AVX2 SIMD (`_mm256_madd_epi16`) and a portable
//! scalar fallback chosen by runtime feature detection; both paths produce
//! **bit-identical** results because the integer partial sums are exact in
//! any association and the f32 fix-up applies the same three operations
//! (`scale-product mul`, `i32→f32 convert + mul`, `add`) per segment in the
//! same ascending-segment order. `.cargo/config.toml` notes why this holds:
//! Rust never contracts separate mul/add into an FMA.
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
use crate::qgemm::{PackedMat, MAX_INT_SEGMENT};
use crate::tensor::Tensor;

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
/// `k × n` mantissas plus row-major `nblocks × n` scales.
struct ColSide<'a> {
    man: &'a [i8],
    scale: &'a [f32],
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
    nn_from_parts(
        &RowSide::of(a),
        a.group(),
        &ColSide {
            man: b.mantissas(),
            scale: b.scales(),
        },
        b.group(),
        (m, k, n),
    )
}

fn nn_from_parts(
    a: &RowSide,
    ga: usize,
    b: &ColSide,
    gb: usize,
    dims: (usize, usize, usize),
) -> Tensor {
    let (m, k, n) = dims;
    let mut out = vec![0.0f32; m * n];
    if m > 0 && n > 0 && k > 0 && !staged_avx2(a, BSide::Cols(b), ga, gb, dims, &mut out) {
        nn_scalar(a, b, ga, gb, dims, &mut out);
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Portable NN kernel over arbitrary (possibly unequal) group sizes. For
/// equal even groups this is element-for-element the same computation as
/// the AVX2 kernel: the per-segment integer sums are exact, and the f32
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

/// Runs the pair on the vector kernel — when the pair supports it: equal
/// even group sizes, so `madd` k-pairs never straddle a scale block, on a
/// CPU with AVX2. Returns `false` otherwise, and the caller takes its
/// portable path. `A` is restaged once on the caller's thread; workers
/// split the rows, and each stages `B` itself, one 16-column panel at a
/// time.
#[cfg(target_arch = "x86_64")]
fn staged_avx2<'a>(
    a: &RowSide<'a>,
    b: BSide<'a>,
    ga: usize,
    gb: usize,
    dims: (usize, usize, usize),
    out: &mut [f32],
) -> bool {
    let (_m, k, n) = dims;
    if ga != gb || !ga.is_multiple_of(2) || !avx2_available() {
        return false;
    }
    let stage = avx2::NnStage::build(a, b, ga, dims);
    shard_rows(out, n, 2 * k * n, ROW_QUAD, |row_start, panel| {
        // SAFETY: `avx2_available()` confirmed the target feature at runtime.
        unsafe { avx2::nn_worker(&stage, row_start, panel) }
    });
    true
}

#[cfg(not(target_arch = "x86_64"))]
fn staged_avx2(
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
// `ROW_QUAD` output rows up, `nn_worker` runs, gathering each k-pair panel
// from sixteen stored rows of B. Below that — where the gather costs more
// than the product — and for the pairs the vector kernel refuses, every
// element is a sum of per-segment dot products over two contiguous i8 rows.
// Both apply the same three f32 operations per segment in the same order
// over exact integer sums, so they agree bit for bit
// (`staged_nt_matches_segment_dots_bitwise`).
// ---------------------------------------------------------------------------

/// `C = A·Bᵀ` in the integer domain.
pub(crate) fn int_nt(a: &PackedMat, b: &PackedMat) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    debug_assert_eq!(b.cols(), k);
    let (av, bv) = (RowSide::of(a), RowSide::of(b));
    let (ga, gb) = (a.group(), b.group());
    let mut out = vec![0.0f32; m * n];
    let staged = m >= ROW_QUAD
        && n > 0
        && k > 0
        && staged_avx2(&av, BSide::Rows(&bv), ga, gb, (m, k, n), &mut out);
    if !staged && m > 0 && n > 0 {
        let segs = segments(k, ga, gb);
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
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
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(b.rows(), k);
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
    nn_from_parts(
        &RowSide {
            man: &tman,
            scale: &tsc,
            bpr: nba,
        },
        ga,
        &ColSide {
            man: b.mantissas(),
            scale: b.scales(),
        },
        b.group(),
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
        // SAFETY: constructed only behind `avx2_available()`.
        unsafe { avx2::dot_i8(a, b) }
    }
}

/// Runtime AVX2 detection, cached. The kernels themselves are compiled for
/// whatever `-C target-cpu` allows; this gate is what makes the binary safe
/// on older x86-64 silicon.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The SIMD lowering of the segment algebra. One `_mm256_madd_epi16`
    //! computes, for eight output columns at once, the sum of an adjacent
    //! k-pair's products `a[k₀]·b[k₀][j] + a[k₁]·b[k₁][j]` — i16×i16→i32 is
    //! exact for 8-bit mantissas, and pairing never crosses a scale block
    //! because the NN vector path requires an even shared group size.

    use super::{BSide, RowSide, ROW_QUAD};
    use core::arch::x86_64::*;

    /// Output columns processed per staged panel step (two 256-bit i16
    /// vectors per k-pair).
    const W: usize = 16;

    /// The vector NN kernel's shared, read-only inputs, built once on the
    /// caller's thread:
    ///
    /// * `aq` — A mantissas as little-endian i16 k-pairs, one `u32` per
    ///   pair: `a[2p] | a[2p+1] << 16`, rows padded with a zero high half
    ///   when `k` is odd. A is the small side at serving shapes (`m` is the
    ///   batch), so it is restaged whole.
    /// * `b` — B as stored. No copy of it is made here: every worker
    ///   stages the panel it is about to consume into its own buffer
    ///   ([`stage_panel`]).
    pub(super) struct NnStage<'a> {
        aq: Vec<u32>,
        ascale: &'a [f32],
        abpr: usize,
        b: BSide<'a>,
        k: usize,
        pairs: usize,
        pairs_per_block: usize,
        nblocks: usize,
        n: usize,
    }

    impl<'a> NnStage<'a> {
        pub(super) fn build(
            a: &RowSide<'a>,
            b: BSide<'a>,
            g: usize,
            dims: (usize, usize, usize),
        ) -> Self {
            let (m, k, n) = dims;
            let pairs = k.div_ceil(2);
            let mut aq = vec![0u32; m * pairs];
            for (arow, qrow) in a.man.chunks_exact(k).zip(aq.chunks_exact_mut(pairs)) {
                let mut it = arow.chunks_exact(2);
                for (q, pr) in qrow.iter_mut().zip(&mut it) {
                    *q = pair_word(pr[0], pr[1]);
                }
                if let [last] = it.remainder() {
                    qrow[pairs - 1] = pair_word(*last, 0);
                }
            }
            NnStage {
                aq,
                ascale: a.scale,
                abpr: a.bpr,
                b,
                k,
                pairs,
                pairs_per_block: g / 2,
                nblocks: k.div_ceil(g).max(1),
                n,
            }
        }
    }

    /// Two mantissas as one little-endian i16 k-pair word.
    fn pair_word(lo: i8, hi: i8) -> u32 {
        (lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16)
    }

    /// Stages B's columns `j0..j0 + w` (`w ≤ W`) as one worker's panel,
    /// overwriting all of it:
    ///
    /// * `words` — `pairs × W` k-pair words; word `c` of row `p` is
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
    /// Requires AVX2 (checked by the caller via `avx2_available`).
    ///
    /// # Panics
    ///
    /// Panics unless `words`/`scales` have the panel's sizes and
    /// `j0 + w ≤ n`: the vector stores below rely on both.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn stage_panel(
        s: &NnStage,
        j0: usize,
        w: usize,
        words: &mut [u32],
        scales: &mut [f32],
    ) {
        let (k, n) = (s.k, s.n);
        assert!(words.len() == s.pairs * W && scales.len() == s.nblocks * W);
        assert!(w <= W && j0 + w <= n);
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
                for (bb, dst) in scales.chunks_exact_mut(W).enumerate() {
                    let src = &b.scale[bb * n + j0..][..w];
                    for (c, d) in dst.iter_mut().enumerate() {
                        *d = src.get(c).copied().unwrap_or(0.0);
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
                }
                for (bb, dst) in scales.chunks_exact_mut(W).enumerate() {
                    for (c, d) in dst.iter_mut().enumerate() {
                        *d = if c < w {
                            b.scale[(j0 + c) * b.bpr + bb]
                        } else {
                            0.0
                        };
                    }
                }
                if w < W {
                    for row in words.chunks_exact_mut(W) {
                        row[w..].fill(0);
                    }
                }
            }
        }
    }

    /// One worker's shard: the output rows `row_start..`, row-major in
    /// `out`. Column panels are the outer loop — each is staged once into
    /// the worker's own buffer, then every row quad of the shard consumes
    /// it — so nothing copies B whole.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `avx2_available`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        let n = s.n;
        let mut words = vec![0u32; s.pairs * W];
        let mut scales = vec![0.0f32; s.nblocks * W];
        let rows = out.len() / n;
        let quads = rows / ROW_QUAD * ROW_QUAD;
        for j0 in (0..n).step_by(W) {
            let w = (n - j0).min(W);
            stage_panel(s, j0, w, &mut words, &mut scales);
            let panel = (words.as_slice(), scales.as_slice(), j0, w);
            for (q, c) in out[..quads * n].chunks_exact_mut(ROW_QUAD * n).enumerate() {
                nn_rows::<ROW_QUAD>(s, panel, row_start + q * ROW_QUAD, c);
            }
            for (r, c) in out[quads * n..].chunks_exact_mut(n).enumerate() {
                nn_rows::<1>(s, panel, row_start + quads + r, c);
            }
        }
    }

    /// `R` output rows (absolute row `i0`, row-major in `c`) of one staged
    /// panel `(words, scales, j0, w)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, and `words`/`scales` of the sizes [`stage_panel`]
    /// checks: the vector loads read them unchecked.
    #[target_feature(enable = "avx2")]
    unsafe fn nn_rows<const R: usize>(
        s: &NnStage,
        (words, scales, j0, w): (&[u32], &[f32], usize, usize),
        i0: usize,
        c: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for bb in 0..s.nblocks {
            let p0 = bb * s.pairs_per_block;
            let p1 = ((bb + 1) * s.pairs_per_block).min(s.pairs);
            let mut iacc = [[_mm256_setzero_si256(); 2]; R];
            for p in p0..p1 {
                let brow = words.as_ptr().add(p * W) as *const __m256i;
                let bv0 = _mm256_loadu_si256(brow);
                let bv1 = _mm256_loadu_si256(brow.add(1));
                for (r, ir) in iacc.iter_mut().enumerate() {
                    let av = _mm256_set1_epi32(s.aq[(i0 + r) * s.pairs + p] as i32);
                    ir[0] = _mm256_add_epi32(ir[0], _mm256_madd_epi16(av, bv0));
                    ir[1] = _mm256_add_epi32(ir[1], _mm256_madd_epi16(av, bv1));
                }
            }
            let srow = scales.as_ptr().add(bb * W);
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
    /// Requires AVX2 (checked by the caller via `avx2_available`).
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
    /// on both sides of each 16-column panel edge, and odd depths (the
    /// zero-padded last k-pair) — the shapes panel staging has to get right.
    const TAIL_MS: [usize; 5] = [1, 3, 4, 5, 8];
    const TAIL_NS: [usize; 6] = [1, 15, 16, 17, 33, 70];
    const TAIL_KS: [usize; 5] = [1, 7, 13, 32, 47];

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn scalar_and_simd_nn_agree_bitwise() {
        if !avx2_available() {
            return; // vector path unreachable on this host
        }
        let grid = [2usize, 6, 16].into_iter().flat_map(|g| {
            TAIL_MS
                .into_iter()
                .flat_map(|m| TAIL_NS.into_iter().map(move |n| (m, n)))
                .flat_map(move |(m, n)| TAIL_KS.into_iter().map(move |k| (g, m, n, k)))
        });
        let shapes = SHAPES.into_iter().map(|(m, k, n)| (16, m, n, k));
        for (g, m, n, k) in shapes.chain(grid) {
            let seed = (61 * m + 67 * n + 71 * k + g) as u64;
            let a = random_pack(m, k, g, PackLayout::RowGroups, seed);
            let b = random_pack(k, n, g, PackLayout::ColGroups, seed + 1);
            let via_dispatch = int_nn(&a, &b); // takes the AVX2 path
            let mut scalar = vec![0.0f32; m * n];
            nn_scalar(
                &RowSide::of(&a),
                &ColSide {
                    man: b.mantissas(),
                    scale: b.scales(),
                },
                g,
                g,
                (m, k, n),
                &mut scalar,
            );
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(via_dispatch.data()),
                bits(&scalar),
                "simd/scalar divergence at ({m},{k},{n}) g={g}"
            );
        }
    }

    /// A staged panel holds exactly B's columns `j0..j0 + w` as k-pair
    /// words — low half row `2p`, high half row `2p + 1` — and zero
    /// everywhere else, whatever the buffer held before: tail columns and
    /// the odd-`k` pair's high half are padded, never left stale.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn staged_panels_hold_exactly_the_operands_columns() {
        if !avx2_available() {
            return;
        }
        let word = |lo: i8, hi: i8| (lo as i16 as u16 as u32) | ((hi as i16 as u16 as u32) << 16);
        for (n, k) in TAIL_NS
            .into_iter()
            .flat_map(|n| TAIL_KS.into_iter().map(move |k| (n, k)))
        {
            let g = 6;
            let a = random_pack(1, k, g, PackLayout::RowGroups, 5);
            let b = random_pack(k, n, g, PackLayout::ColGroups, (n * 100 + k) as u64);
            let bt = random_pack(n, k, g, PackLayout::RowGroups, (n * 100 + k + 1) as u64);
            let av = RowSide::of(&a);
            let (cols, rows) = (
                ColSide {
                    man: b.mantissas(),
                    scale: b.scales(),
                },
                RowSide::of(&bt),
            );
            for (side, packed, transposed) in [
                (BSide::Cols(&cols), &b, false),
                (BSide::Rows(&rows), &bt, true),
            ] {
                let stage = avx2::NnStage::build(&av, side, g, (1, k, n));
                let mut words = vec![0u32; k.div_ceil(2) * 16];
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
                    words.fill(0xDEAD_BEEF);
                    scales.fill(f32::NAN);
                    // SAFETY: AVX2 confirmed above.
                    unsafe { avx2::stage_panel(&stage, j0, w, &mut words, &mut scales) };
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
                            assert_eq!(got, want, "n={n} k={k} t={transposed} j0={j0} p={p} c={c}");
                        }
                    }
                    for (bb, row) in scales.chunks_exact(16).enumerate() {
                        for (c, &got) in row.iter().enumerate() {
                            let want = if c < w { scale(bb, j0 + c) } else { 0.0 };
                            assert_eq!(got.to_bits(), want.to_bits(), "scale n={n} k={k} bb={bb}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn scalar_and_simd_segment_dots_agree() {
        if !avx2_available() {
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
