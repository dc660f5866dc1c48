//! Integer-domain GEMM kernels over packed×packed BFP operand pairs.
//!
//! This is the execution mode the paper's cost argument is about
//! (DESIGN.md §11): when both operands are [`PackedMat`]s whose
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
//! `m ≤ 7`) and the cross-segment f32 accumulation — which runs in a
//! *different* association than the replay kernels' summation trees, so
//! integer-domain results legitimately diverge from [`ExecMode::Replay`] by
//! a few ULPs (see `crates/nn/tests/integer_mode.rs` for the error gates).
//!
//! [`PackedMat`]: crate::qgemm::PackedMat
//! [`ExecMode::Replay`]: crate::qgemm::ExecMode::Replay
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

/// Restages the pair for the vector kernel and runs it — when the pair
/// supports it: equal even group sizes, so `madd` k-pairs never straddle a
/// scale block, on a CPU with AVX2. Returns `false` otherwise, and the
/// caller takes its portable path.
#[cfg(target_arch = "x86_64")]
fn staged_avx2(
    a: &RowSide,
    b: BSide,
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
// `ROW_QUAD` output rows up, B's rows are interleaved straight into the NN
// kernel's k-pair panel and `nn_worker` runs. Below that — where staging B
// costs more than the product — and for the pairs the vector kernel refuses, every element is a sum of
// per-segment dot products over two contiguous i8 rows. Both apply the same
// three f32 operations per segment in the same order over exact integer
// sums, so they agree bit for bit (`staged_nt_matches_segment_dots_bitwise`).
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

    /// Operands restaged for the vector NN kernel. Built once on the caller
    /// thread (the restage is deterministic and shared read-only by all
    /// workers):
    ///
    /// * `aq` — A mantissas as little-endian i16 k-pairs, one `u32` per
    ///   pair: `a[2p] | a[2p+1] << 16`, rows padded with a zero high half
    ///   when `k` is odd.
    /// * `bp` — B mantissas interleaved by k-pair: row `p` holds
    ///   `[b[2p][j], b[2p+1][j]]` for each column `j`, zero-padded to a
    ///   16-column multiple so tail panels can use full vector loads.
    /// * `sp` — B scale rows padded to the same 16-column multiple.
    pub(super) struct NnStage<'a> {
        aq: Vec<u32>,
        bp: Vec<i16>,
        sp: Vec<f32>,
        ascale: &'a [f32],
        abpr: usize,
        pairs: usize,
        pairs_per_block: usize,
        nblocks: usize,
        npad: usize,
        n: usize,
    }

    impl<'a> NnStage<'a> {
        pub(super) fn build(
            a: &RowSide<'a>,
            b: BSide,
            g: usize,
            dims: (usize, usize, usize),
        ) -> Self {
            let (m, k, n) = dims;
            let pairs = k.div_ceil(2);
            let nblocks = k.div_ceil(g).max(1);
            let npad = n.div_ceil(W) * W;

            let mut aq = vec![0u32; m * pairs];
            for (arow, qrow) in a.man.chunks_exact(k).zip(aq.chunks_exact_mut(pairs)) {
                let mut it = arow.chunks_exact(2);
                for (q, pr) in qrow.iter_mut().zip(&mut it) {
                    *q = (pr[0] as i16 as u16 as u32) | ((pr[1] as i16 as u16 as u32) << 16);
                }
                if let [last] = it.remainder() {
                    qrow[pairs - 1] = *last as i16 as u16 as u32;
                }
            }

            let mut bp = vec![0i16; pairs * 2 * npad];
            let mut sp = vec![0.0f32; nblocks * npad];
            match b {
                BSide::Cols(b) => {
                    for (p, row) in bp.chunks_exact_mut(2 * npad).enumerate() {
                        let k0 = 2 * p;
                        let b0 = &b.man[k0 * n..k0 * n + n];
                        if k0 + 1 < k {
                            let b1 = &b.man[(k0 + 1) * n..(k0 + 1) * n + n];
                            for ((d, &x), &y) in row.chunks_exact_mut(2).zip(b0).zip(b1) {
                                d[0] = x as i16;
                                d[1] = y as i16;
                            }
                        } else {
                            for (d, &x) in row.chunks_exact_mut(2).zip(b0) {
                                d[0] = x as i16;
                            }
                        }
                    }
                    for (srow, dst) in b.scale.chunks_exact(n).zip(sp.chunks_exact_mut(npad)) {
                        dst[..n].copy_from_slice(srow);
                    }
                }
                // Stored row `j` is panel column `j`: its k-pairs go down
                // the panel, `W` rows at a time so each panel row receives
                // one contiguous `W`-column run. Built straight from the
                // stored rows — going through a `k×n` i8 transpose first
                // would add a whole-operand copy to the peak working set.
                BSide::Rows(b) => {
                    for (jb, rows) in b.man.chunks(W * k).enumerate() {
                        for (p, prow) in bp.chunks_exact_mut(2 * npad).enumerate() {
                            let dst = prow[2 * jb * W..].chunks_exact_mut(2);
                            for (d, brow) in dst.zip(rows.chunks_exact(k)) {
                                d[0] = brow[2 * p] as i16;
                                if 2 * p + 1 < k {
                                    d[1] = brow[2 * p + 1] as i16;
                                }
                            }
                        }
                    }
                    for (j, srow) in b.scale.chunks_exact(b.bpr).enumerate() {
                        for (bb, &sc) in srow.iter().enumerate() {
                            sp[bb * npad + j] = sc;
                        }
                    }
                }
            }

            NnStage {
                aq,
                bp,
                sp,
                ascale: a.scale,
                abpr: a.bpr,
                pairs,
                pairs_per_block: g / 2,
                nblocks,
                npad,
                n,
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `avx2_available`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nn_worker(s: &NnStage, row_start: usize, panel: &mut [f32]) {
        let rows = panel.len() / s.n;
        let mut ri = 0;
        while ri + ROW_QUAD <= rows {
            nn_rows::<ROW_QUAD>(
                s,
                row_start + ri,
                &mut panel[ri * s.n..(ri + ROW_QUAD) * s.n],
            );
            ri += ROW_QUAD;
        }
        while ri < rows {
            nn_rows::<1>(s, row_start + ri, &mut panel[ri * s.n..(ri + 1) * s.n]);
            ri += 1;
        }
    }

    /// `R` output rows (absolute row `i0`) across all column panels.
    #[target_feature(enable = "avx2")]
    unsafe fn nn_rows<const R: usize>(s: &NnStage, i0: usize, c: &mut [f32]) {
        let n = s.n;
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(W);
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for bb in 0..s.nblocks {
                let p0 = bb * s.pairs_per_block;
                let p1 = ((bb + 1) * s.pairs_per_block).min(s.pairs);
                let mut iacc = [[_mm256_setzero_si256(); 2]; R];
                for p in p0..p1 {
                    let brow = s.bp.as_ptr().add(p * 2 * s.npad + 2 * j0);
                    let bv0 = _mm256_loadu_si256(brow as *const __m256i);
                    let bv1 = _mm256_loadu_si256(brow.add(W) as *const __m256i);
                    for (r, ir) in iacc.iter_mut().enumerate() {
                        let av = _mm256_set1_epi32(s.aq[(i0 + r) * s.pairs + p] as i32);
                        ir[0] = _mm256_add_epi32(ir[0], _mm256_madd_epi16(av, bv0));
                        ir[1] = _mm256_add_epi32(ir[1], _mm256_madd_epi16(av, bv1));
                    }
                }
                let srow = s.sp.as_ptr().add(bb * s.npad + j0);
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
            if w == W {
                for (r, ar) in acc.iter().enumerate() {
                    let dst = c.as_mut_ptr().add(r * n + j0);
                    _mm256_storeu_ps(dst, ar[0]);
                    _mm256_storeu_ps(dst.add(8), ar[1]);
                }
            } else {
                let mut tmp = [0.0f32; W];
                for (r, ar) in acc.iter().enumerate() {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), ar[0]);
                    _mm256_storeu_ps(tmp.as_mut_ptr().add(8), ar[1]);
                    c[r * n + j0..r * n + j0 + w].copy_from_slice(&tmp[..w]);
                }
            }
            j0 += w;
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
    use crate::qgemm::{qmatmul, qmatmul_nt, qmatmul_tn, ExecMode, Operand, PackLayout};
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
    /// answer both execution modes approximate.
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
                let got = qmatmul(ExecMode::Integer, Operand::Packed(&a), Operand::Packed(&b));
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
            let got = qmatmul(ExecMode::Integer, Operand::Packed(&a), Operand::Packed(&b));
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
            let got = qmatmul_nt(ExecMode::Integer, Operand::Packed(&a), Operand::Packed(&bt));
            assert_close(
                &got,
                &reference(&a, &bt, false, true),
                &format!("nt ({m},{k},{n})"),
            );

            let at = random_pack(k, m, 16, PackLayout::ColGroups, 47 + m as u64);
            let b = random_pack(k, n, 16, PackLayout::ColGroups, 53 + n as u64);
            let got = qmatmul_tn(ExecMode::Integer, Operand::Packed(&at), Operand::Packed(&b));
            assert_close(
                &got,
                &reference(&at, &b, true, false),
                &format!("tn ({m},{k},{n})"),
            );
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn scalar_and_simd_nn_agree_bitwise() {
        if !avx2_available() {
            return; // vector path unreachable on this host
        }
        for (m, k, n) in SHAPES {
            let a = random_pack(m, k, 16, PackLayout::RowGroups, 61 + m as u64);
            let b = random_pack(k, n, 16, PackLayout::ColGroups, 67 + n as u64);
            let via_dispatch = int_nn(&a, &b); // takes the AVX2 path
            let mut scalar = vec![0.0f32; m * n];
            nn_scalar(
                &RowSide::of(&a),
                &ColSide {
                    man: b.mantissas(),
                    scale: b.scales(),
                },
                16,
                16,
                (m, k, n),
                &mut scalar,
            );
            assert_eq!(
                via_dispatch.data(),
                &scalar[..],
                "simd/scalar divergence at ({m},{k},{n})"
            );
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
    /// equal even groups with `m` on both sides of the `ROW_QUAD` switch
    /// (staged panel above it, vector dots below), odd `k` (pair padding),
    /// `n` off the 16-column panel, and the odd / unequal groups that the
    /// vector kernel refuses.
    #[test]
    fn staged_nt_matches_segment_dots_bitwise() {
        let shapes = [
            (1, 9, 40),
            (3, 64, 17),
            (4, 32, 32),
            (5, 47, 17),
            (9, 40, 33),
            (64, 96, 70),
        ];
        for (m, k, n) in shapes {
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
        // `a3` keeps `int_nt` on the dot path, `a` puts it on the staged one.
        let a3 = random_pack(3, 96, 16, PackLayout::RowGroups, 87);
        // Deep enough that the work-size heuristic shards the staged path.
        let (abig, btbig) = (
            random_pack(64, 512, 16, PackLayout::RowGroups, 88),
            random_pack(96, 512, 16, PackLayout::RowGroups, 89),
        );
        set_parallelism(Parallelism::sequential());
        let s1 = int_nn(&a, &b);
        let s2 = int_nt(&a, &bt);
        let s3 = int_nt(&a3, &bt);
        let s4 = int_nt(&abig, &btbig);
        for workers in [2, 3, 5, 8] {
            set_parallelism(Parallelism::new(workers));
            assert_eq!(int_nn(&a, &b), s1, "nn workers={workers}");
            assert_eq!(int_nt(&a, &bt), s2, "nt workers={workers}");
            assert_eq!(int_nt(&a3, &bt), s3, "nt dots workers={workers}");
            assert_eq!(int_nt(&abig, &btbig), s4, "nt staged workers={workers}");
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
