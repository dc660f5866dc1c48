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
//! that algebra with one vector kernel over three micro-kernels, and a
//! portable scalar fallback, chosen by runtime feature detection
//! ([`host_kernel`]) and, for the tile unit, by the product's row count
//! ([`ceiling`]). All three read B as biased k-quads, `b ^ 0x80 = b + 128`
//! as an unsigned byte, in its [`ColPanels`] — a column-grouped B is packed
//! that way, a row-grouped one (`Nt`) is gathered that way once per call —
//! so each block's close subtracts `128·Σ a`. The biased sum may wrap
//! `i32`; the true sum fits it ([`MAX_INT_SEGMENT`]), and modular
//! arithmetic returns it exactly, for any `i8`:
//!
//! * **AMX-INT8** (`tdpbsud`, through `asm!`): a tile of up to 16 rows of
//!   A times a 16-column panel of B, one whole group per instruction,
//!   signed A times unsigned B; each group's i32 block is stored and closed
//!   in AVX-512 exactly as the row body closes it. Products of four rows or
//!   more take it.
//! * **AVX-VNNI** (`_mm256_dpbusd_avx_epi32`): u8×i8 products of four
//!   k-steps summed into each i32 lane and accumulated in one instruction.
//! * **AVX2** (`_mm256_madd_epi16`): the same k-quads widened to i16, two
//!   pair sums per column lane, added once per block — on hosts without
//!   AVX-VNNI.
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

use std::borrow::Cow;

use fast_bfp::packed::ColPanels;

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
            man: p.bytes(),
            scale: p.stored_scales(),
            bpr: p.cols().div_ceil(p.group()).max(1),
        }
    }
}

/// A `k × n` matrix whose groups run down its columns (the reduction
/// dim) in its [`ColPanels`]: a `ColGroups` operand as stored, or an `Nt`
/// right-hand side gathered into them ([`gather_panels`]).
struct ColSide<'a> {
    bytes: &'a [i8],
    scale: &'a [f32],
    panels: ColPanels,
}

impl<'a> ColSide<'a> {
    fn of(p: &'a PackedMat) -> Self {
        ColSide {
            bytes: p.bytes(),
            scale: p.stored_scales(),
            panels: p.col_panels(),
        }
    }

    /// The mantissas as a row-major `k × n` matrix and the scales as a
    /// row-major `⌈k/g⌉ × n` one, read through the layout's index — what
    /// the portable kernels take.
    fn row_major(&self) -> (Vec<i8>, Vec<f32>) {
        let ColPanels {
            rows: k,
            cols: n,
            group: g,
        } = self.panels;
        let man = (0..k * n).map(|x| self.panels.mantissa(self.bytes, x / n, x % n));
        let nb = k.div_ceil(g).max(1);
        let scale = (0..nb * n).map(|x| self.scale[self.panels.scale_index(x / n * g, x % n)]);
        (man.collect(), scale.collect())
    }
}

/// `B`, stored `n × k` with groups of `g` (a multiple of four) along its
/// rows — an `Nt` right-hand side — as the [`ColPanels`] of `Bᵀ`, the
/// layout a `ColGroups` operand is packed in, gathered once per product so
/// that every micro-kernel reads it as it reads a packed one. With whole
/// k-quads per group, panel quad row `t` holds k-steps `4t .. 4t + 4`, so
/// a panel is its sixteen rows' k-quad words transposed, and its scales
/// their block scales transposed ([`transpose_words`]).
fn gather_panels(b: &RowSide, n: usize, k: usize, g: usize) -> (Vec<i8>, Vec<f32>, ColPanels) {
    const W: usize = ColPanels::WIDTH;
    debug_assert!(g.is_multiple_of(4) && k > 0 && b.man.len() == n * k);
    let panels = ColPanels {
        rows: k,
        cols: n,
        group: g,
    };
    let (blocks, quad_rows) = (panels.blocks(), panels.quad_rows());
    let mut bytes = vec![i8::MIN; panels.len()];
    let mut scales = vec![0.0f32; panels.scales()];
    // SAFETY: f32 has no padding and every byte is a valid i8.
    let (scale_src, scale_dst) = unsafe {
        (
            std::slice::from_raw_parts(b.scale.as_ptr().cast::<i8>(), 4 * b.scale.len()),
            std::slice::from_raw_parts_mut(scales.as_mut_ptr().cast::<i8>(), 4 * scales.len()),
        )
    };
    let out = bytes
        .chunks_exact_mut(quad_rows * ColPanels::QUAD)
        .zip(scale_dst.chunks_exact_mut(4 * blocks * W));
    for (q, ((panel, pscales), rows)) in out.zip(b.man.chunks(W * k)).enumerate() {
        let cols = rows.len() / k;
        transpose_words(rows, k, cols, k / 4 * 4, panel, i8::MIN);
        if !k.is_multiple_of(4) {
            // The last k-quad, zero-padded past `k`.
            for (c, row) in rows.chunks_exact(k).enumerate() {
                let mut quad = [0i8; 4];
                quad[..k % 4].copy_from_slice(&row[k / 4 * 4..]);
                let dst = &mut panel[k / 4 * ColPanels::QUAD + 4 * c..][..4];
                for (d, v) in dst.iter_mut().zip(quad) {
                    *d = v ^ i8::MIN;
                }
            }
        }
        let bpr = 4 * b.bpr;
        transpose_words(&scale_src[q * W * bpr..], bpr, cols, 4 * blocks, pscales, 0);
    }
    (bytes, scales, panels)
}

/// The first `len / 4` four-byte words of each of `rows ≤ 16` rows of
/// `src` (`stride` bytes apart) transposed into `dst`'s 64-byte rows, each
/// byte xored with `bias`: word `t` of row `c` lands at byte `64·t + 4·c`.
/// Four rows at a time, sixteen bytes of each are one 4×4 transpose in
/// two rounds of unpacks (on x86-64); the rest goes byte by byte.
///
/// # Panics
///
/// Panics unless `len` is a multiple of four, `src` holds the rows and
/// `dst` the words.
fn transpose_words(src: &[i8], stride: usize, rows: usize, len: usize, dst: &mut [i8], bias: i8) {
    assert!(rows <= ColPanels::WIDTH && len.is_multiple_of(4));
    assert!(rows == 0 || len == 0 || ((rows - 1) * stride + len <= src.len()));
    assert!(len == 0 || (len / 4 - 1) * ColPanels::QUAD + 4 * rows <= dst.len());
    #[allow(unused_mut)]
    let (mut rows4, mut len16) = (0, 0);
    #[cfg(target_arch = "x86_64")]
    if rows >= 4 && len >= 16 {
        (rows4, len16) = (rows / 4 * 4, len / 16 * 16);
        // SAFETY: SSE2 is part of x86-64; the bounds are asserted above.
        unsafe {
            simd::transpose_words(src.as_ptr(), stride, rows4, len16, dst.as_mut_ptr(), bias)
        };
    }
    for c in 0..rows {
        let from = if c < rows4 { len16 } else { 0 };
        for x in from..len {
            dst[x / 4 * ColPanels::QUAD + 4 * c + x % 4] = src[c * stride + x] ^ bias;
        }
    }
}

/// The vector kernel's micro-kernels: the instruction that multiplies A's
/// k-quads into B's panel rows and accumulates the products into i32
/// column lanes (DESIGN.md §11). Ordered by width, so a host that runs one
/// also runs every smaller one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MicroKernel {
    /// AVX2 `_mm256_madd_epi16`: the k-quads widened to i16, pair sums.
    Madd,
    /// AVX-VNNI `_mm256_dpbusd_avx_epi32`: u8×i8 over k-quads.
    Dpbusd,
    /// AMX-INT8 `tdpbsud`: a tile of up to 16 rows of A (i8) times the
    /// panel (u8 k-quads), one whole group per instruction, and the close
    /// folded in AVX-512.
    Tile,
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
            let vnni = std::is_x86_feature_detected!("avxvnni");
            if !std::is_x86_feature_detected!("avx2") {
                None
            } else if tile_available(
                std::arch::x86_64::__cpuid_count(7, 0).edx,
                simd::xcr0(),
                simd::request_tile_data,
                vnni,
                std::is_x86_feature_detected!("avx512f"),
            ) {
                Some(MicroKernel::Tile)
            } else if vnni {
                Some(MicroKernel::Dpbusd)
            } else {
                Some(MicroKernel::Madd)
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// Whether the tile unit may run: the CPU has AMX-TILE and AMX-INT8
/// (`CPUID.(7,0):EDX` bits 24 and 25), the OS saves tile state (XCR0 bits
/// 17 and 18), the kernels around it have AVX-VNNI (A's words are shared
/// with `dpbusd`) and AVX-512F (the fold), and — asked last, only when all
/// of that holds — the OS grants this process the tile data
/// (`request_tile_data`, Linux's `ARCH_REQ_XCOMP_PERM`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn tile_available(
    cpuid7_edx: u32,
    xcr0: u64,
    request_tile_data: impl FnOnce() -> bool,
    vnni: bool,
    avx512f: bool,
) -> bool {
    const AMX: u32 = 1 << 24 | 1 << 25;
    const XTILE: u64 = 1 << 17 | 1 << 18;
    cpuid7_edx & AMX == AMX && xcr0 & XTILE == XTILE && vnni && avx512f && request_tile_data()
}

/// The micro-kernel ceiling for a product of `rows` output rows on a host
/// whose widest is `host`: the host's, except that the tile unit takes
/// only products of a whole row quad or more — a batch of one pays a
/// whole tile's store and fold per group for one row, and stays on
/// `dpbusd`. Chosen from the per-shape table in DESIGN.md §11.
fn ceiling(host: Option<MicroKernel>, rows: usize) -> Option<MicroKernel> {
    match host {
        Some(MicroKernel::Tile) if rows < ROW_QUAD => Some(MicroKernel::Dpbusd),
        host => host,
    }
}

/// The micro-kernel a product with group sizes `ga`/`gb` runs on, given
/// the widest one available (`best`): equal groups holding a whole number
/// of k-quads, so no quad straddles a scale block. `None` means the
/// scalar kernels.
fn micro_kernel(best: Option<MicroKernel>, ga: usize, gb: usize) -> Option<MicroKernel> {
    best.filter(|_| ga == gb && ga.is_multiple_of(4))
}

/// A's side of the vector kernel, the same for every micro-kernel: its
/// mantissas as one little-endian k-quad word `a[4t] | … | a[4t+3] << 24`
/// per step, `stride` words a row — a whole number of blocks, zero past
/// `k` — and `128·Σ a` over each (row, block), which the block's close
/// subtracts from its biased sums.
#[derive(Debug, Clone)]
pub(crate) struct AWords {
    words: Vec<u32>,
    bias: Vec<i32>,
    stride: usize,
}

impl AWords {
    /// `a`'s words, if `a` is a `RowGroups` left-hand side the vector
    /// kernel takes on this host and not empty ([`PackedMat::with_a_words`]).
    pub(crate) fn stage(a: &PackedMat) -> Option<Self> {
        let g = a.group();
        let usable = a.layout() == PackLayout::RowGroups && a.rows() > 0 && a.cols() > 0;
        (usable && micro_kernel(host_kernel(), g, g).is_some())
            .then(|| Self::of_rows(&RowSide::of(a), a.rows(), a.cols(), g))
    }

    /// The words of `m` rows of `k` mantissas (`a`), at group `g` (a
    /// multiple of four).
    fn of_rows(a: &RowSide, m: usize, k: usize, g: usize) -> Self {
        let (nblocks, spb) = (k.div_ceil(g).max(1), g / 4);
        let stride = nblocks * spb;
        let mut words = vec![0u32; m * stride];
        if stride * 4 == k {
            // Rows of whole blocks: the words are A's bytes as they are,
            // converted in one flat pass. Row by row, the same words made
            // a 2048×72 conv operand's product 1.42× the `madd` kernel's
            // time instead of 1.18× (paired, 2-vCPU x86-64 VM).
            for (w, q) in words.iter_mut().zip(a.man.chunks_exact(4)) {
                *w = quad_word(q.try_into().expect("four bytes"));
            }
        } else {
            for (arow, wrow) in a.man.chunks_exact(k).zip(words.chunks_exact_mut(stride)) {
                let mut quads = arow.chunks_exact(4);
                for (w, q) in wrow.iter_mut().zip(&mut quads) {
                    *w = quad_word(q.try_into().expect("a whole quad"));
                }
                if let tail @ [_, ..] = quads.remainder() {
                    let mut q = [0i8; 4];
                    q[..tail.len()].copy_from_slice(tail);
                    wrow[k / 4] = quad_word(q);
                }
            }
        }
        Self::with_bias(words, stride, spb)
    }

    /// The words of a `ColGroups` matrix's columns as rows — the `Tn`
    /// left-hand side: column `i` of a panel's quad row `t` is already row
    /// `i`'s word `t`, biased, so the transpose is one word per step.
    fn of_panels(a: &ColSide) -> Self {
        let p = a.panels;
        let (m, stride) = (p.cols, p.quad_rows());
        let mut words = vec![0u32; m * stride];
        let panels = a.bytes.chunks_exact(stride * ColPanels::QUAD);
        for (rows, panel) in words.chunks_mut(ColPanels::WIDTH * stride).zip(panels) {
            for (t, quad) in panel.chunks_exact(ColPanels::QUAD).enumerate() {
                for (c, w) in quad.chunks_exact(4).zip(rows.chunks_exact_mut(stride)) {
                    w[t] = quad_word(c.try_into().expect("four bytes")) ^ 0x8080_8080;
                }
            }
        }
        Self::with_bias(words, stride, p.quads_per_block())
    }

    fn with_bias(words: Vec<u32>, stride: usize, spb: usize) -> Self {
        AWords {
            bias: block_bias(&words, spb),
            words,
            stride,
        }
    }

    /// Heap bytes of the words and sums.
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * (self.words.len() + self.bias.len())
    }
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

/// The left-hand side of the vector kernel: A's words ([`AWords`]) and its
/// row-major `rows × bpr` block scales.
struct ASide<'a> {
    words: Cow<'a, AWords>,
    scale: Cow<'a, [f32]>,
    bpr: usize,
}

// ---------------------------------------------------------------------------
// NN: A (m×k, RowGroups) · B (k×n, ColGroups).
// ---------------------------------------------------------------------------

/// `C = A·B` in the integer domain. Caller guarantees reduction-grouped
/// layouts and [`segment_bound_ok`].
pub(crate) fn int_nn(a: &PackedMat, b: &PackedMat) -> Tensor {
    debug_assert_eq!(b.rows(), a.cols());
    nn_on(
        ceiling(host_kernel(), a.rows()),
        a,
        &ColSide::of(b),
        b.group(),
    )
}

/// `Nn` on the widest micro-kernel up to `best` that the pair takes
/// ([`micro_kernel`]), or the scalar core.
fn nn_on(best: Option<MicroKernel>, a: &PackedMat, b: &ColSide, gb: usize) -> Tensor {
    let (m, k, n) = (a.rows(), a.cols(), b.panels.cols);
    let mut out = vec![0.0f32; m * n];
    let ga = a.group();
    if m > 0 && n > 0 && k > 0 {
        let rows = RowSide::of(a);
        match micro_kernel(best, ga, gb) {
            Some(mk) => {
                let words = match a.a_words() {
                    Some(w) => Cow::Borrowed(w),
                    None => Cow::Owned(AWords::of_rows(&rows, m, k, ga)),
                };
                let aside = ASide {
                    words,
                    scale: Cow::Borrowed(rows.scale),
                    bpr: rows.bpr,
                };
                vector_product(mk, &aside, b, ga, (m, k, n), &mut out);
            }
            None => nn_scalar(&rows, b, ga, gb, (m, k, n), &mut out),
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Portable NN kernel over arbitrary (possibly unequal) group sizes. For
/// equal groups of whole k-quads this is element-for-element the same
/// computation as the vector kernel: the per-segment integer sums are
/// exact, and the f32 fix-up applies `acc += (sa·sb) · (iacc as f32)` per
/// segment in ascending order, exactly like the vector code.
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
    let (bman, bscale) = b.row_major();
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
                        let brow = &bman[(s0 + p) * n..(s0 + p) * n + n];
                        for (x, &bv) in iacc.iter_mut().zip(brow) {
                            *x += av * bv as i32;
                        }
                    }
                }
                let sa = arsc[ab];
                let srow = &bscale[bb * n..bb * n + n];
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

/// Runs the pair on the vector kernel, on micro-kernel `mk`. Workers split
/// the rows; each reads B's panels in place.
///
/// # Panics
///
/// Panics if `mk` is wider than [`host_kernel`].
#[cfg(target_arch = "x86_64")]
fn vector_product(
    mk: MicroKernel,
    a: &ASide,
    b: &ColSide,
    g: usize,
    dims: (usize, usize, usize),
    out: &mut [f32],
) {
    let (_m, k, n) = dims;
    assert!(
        Some(mk) <= host_kernel(),
        "{mk:?} is not available on this host"
    );
    let stage = simd::NnStage::build(a, b, g, dims);
    shard_rows(out, n, 2 * k * n, ROW_QUAD, |row_start, panel| {
        // SAFETY: `mk` is no wider than `host_kernel()`, which confirmed
        // its target features at runtime.
        unsafe {
            match mk {
                MicroKernel::Madd => simd::madd_worker(&stage, row_start, panel),
                MicroKernel::Dpbusd => simd::vnni_worker(&stage, row_start, panel),
                MicroKernel::Tile => simd::tile_worker(&stage, row_start, panel),
            }
        }
    });
}

#[cfg(not(target_arch = "x86_64"))]
fn vector_product(
    _mk: MicroKernel,
    _a: &ASide,
    _b: &ColSide,
    _g: usize,
    _dims: (usize, usize, usize),
    _out: &mut [f32],
) {
    unreachable!("no micro-kernel off x86_64")
}

// ---------------------------------------------------------------------------
// NT: A (m×k, RowGroups) · Bᵀ with B stored n×k RowGroups. From
// `ROW_QUAD` output rows up, B is gathered once into the column panels of
// Bᵀ ([`gather_panels`]) and the product runs as `Nn` does, tile unit
// included. Below that — where the gather costs more than the product —
// and for the pairs the vector kernel refuses, every element is a sum of
// per-segment dot products over two contiguous i8 rows. Both apply the same
// three f32 operations per segment in the same order over exact integer
// sums, so they agree bit for bit (`staged_nt_matches_segment_dots_bitwise`).
// ---------------------------------------------------------------------------

/// `C = A·Bᵀ` in the integer domain.
pub(crate) fn int_nt(a: &PackedMat, b: &PackedMat) -> Tensor {
    nt_on(ceiling(host_kernel(), a.rows()), a, b)
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
    if m == 0 || n == 0 {
        return Tensor::from_vec(vec![m, n], out);
    }
    match micro_kernel(best, ga, gb).filter(|_| m >= ROW_QUAD && k > 0) {
        Some(mk) => {
            let aside = ASide {
                words: match a.a_words() {
                    Some(w) => Cow::Borrowed(w),
                    None => Cow::Owned(AWords::of_rows(&av, m, k, ga)),
                },
                scale: Cow::Borrowed(av.scale),
                bpr: av.bpr,
            };
            let (bytes, scale, panels) = gather_panels(&bv, n, k, gb);
            let b = ColSide {
                bytes: &bytes,
                scale: &scale,
                panels,
            };
            vector_product(mk, &aside, &b, ga, (m, k, n), &mut out);
        }
        None => {
            let segs = segments(k, ga, gb);
            #[cfg(target_arch = "x86_64")]
            if best.is_some() {
                nt_core(&Avx2Dot, &av, &bv, &segs, (k, n), &mut out);
                return Tensor::from_vec(vec![m, n], out);
            }
            nt_core(&ScalarDot, &av, &bv, &segs, (k, n), &mut out);
        }
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
// panels are A's columns in k-quad order already: the vector kernel takes
// its words from them, one word per (column, step), and the portable one a
// transposed row-major copy — an exact relayout, integer and scale data
// copied, never recomputed.
// ---------------------------------------------------------------------------

/// `C = Aᵀ·B` in the integer domain.
pub(crate) fn int_tn(a: &PackedMat, b: &PackedMat) -> Tensor {
    debug_assert_eq!(b.rows(), a.rows());
    let best = ceiling(host_kernel(), a.cols());
    tn_on(best, a, &ColSide::of(b), b.group())
}

/// `Tn` on the micro-kernels up to `best`, with `B` (`k × n`, group `gb`)
/// as given.
fn tn_on(best: Option<MicroKernel>, a: &PackedMat, b: &ColSide, gb: usize) -> Tensor {
    let (k, m, n) = (a.rows(), a.cols(), b.panels.cols);
    let ga = a.group();
    let nba = k.div_ceil(ga).max(1);
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return Tensor::from_vec(vec![m, n], out);
    }
    let at = ColSide::of(a);
    let mut tsc = vec![0.0f32; m * nba];
    for (i, row) in tsc.chunks_exact_mut(nba).enumerate() {
        for (bb, s) in row.iter_mut().enumerate() {
            *s = at.scale[at.panels.scale_index(bb * ga, i)];
        }
    }
    match micro_kernel(best, ga, gb) {
        Some(mk) => {
            let aside = ASide {
                words: Cow::Owned(AWords::of_panels(&at)),
                scale: Cow::Owned(tsc),
                bpr: nba,
            };
            vector_product(mk, &aside, b, ga, (m, k, n), &mut out);
        }
        None => {
            let (man, _) = at.row_major();
            let mut tman = vec![0i8; m * k];
            for (p, src) in man.chunks_exact(m).enumerate() {
                for (i, &v) in src.iter().enumerate() {
                    tman[i * k + p] = v;
                }
            }
            let rows = RowSide {
                man: &tman,
                scale: &tsc,
                bpr: nba,
            };
            nn_scalar(&rows, b, ga, gb, (m, k, n), &mut out);
        }
    }
    Tensor::from_vec(vec![m, n], out)
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
    //! at once, one micro-kernel instruction adds a k-quad's products
    //! `Σᵢ a[4t+i]·(b[4t+i][j] + 128)` into i32 lanes:
    //!
    //! * `_mm256_dpbusd_avx_epi32` (u8×i8, accumulating), one lane a column;
    //! * `_mm256_madd_epi16` over the quad widened to i16
    //!   (`_mm256_cvtepu8_epi16`), two pair-sum lanes a column, added once
    //!   per block close;
    //! * `tdpbsud`, a whole group of up to 16 rows at a time, each group's
    //!   block closed by an AVX-512 fold ([`tile_rows`]).
    //!
    //! Each close subtracts `128·Σ a`, computed with A's words. Every step
    //! is modular (`dpbusd`, not the saturating `dpbusds`), and the true
    //! sum fits `i32` (`MAX_INT_SEGMENT`), so the result is exact even when
    //! the biased sum wraps.
    //!
    //! Quads never cross a scale block: a product runs a micro-kernel only
    //! when its shared group holds a whole number of them. The row bodies
    //! ([`Body`]) and the panel loops are generic over the micro-kernel
    //! ([`Quads`]) and always inlined, so each out-of-line worker below
    //! compiles them under its own target features — AVX-VNNI and AVX-512
    //! code never lands in a function a plain AVX2 host runs, and tile
    //! instructions only in the tile worker (and two test helpers).

    use super::{ASide, ColSide, ROW_QUAD};
    use core::arch::asm;
    use core::arch::x86_64::*;
    use fast_bfp::packed::ColPanels;

    const W: usize = ColPanels::WIDTH;
    const QUAD: usize = ColPanels::QUAD;

    /// The vector kernel's shared, read-only inputs, built once on the
    /// caller's thread:
    ///
    /// * `aw`, `abias`, `stride` — A's words, block sums and words per row
    ///   ([`super::AWords`]);
    /// * `bytes`, `bscale` — B's [`ColPanels`], read in place by every
    ///   worker;
    /// * `steps` — quad rows of one panel, whole groups; the row body reads
    ///   the first `k_steps = ⌈k/4⌉`, the tile unit whole groups.
    pub(super) struct NnStage<'a> {
        aw: &'a [u32],
        abias: &'a [i32],
        ascale: &'a [f32],
        abpr: usize,
        bytes: &'a [i8],
        bscale: &'a [f32],
        stride: usize,
        steps: usize,
        k_steps: usize,
        steps_per_block: usize,
        nblocks: usize,
        n: usize,
    }

    impl<'a> NnStage<'a> {
        /// # Panics
        ///
        /// Panics unless B's layout has the sizes of this product's `k`,
        /// group and `n`: the vector loads rely on them.
        pub(super) fn build(
            a: &'a ASide<'a>,
            b: &'a ColSide<'a>,
            g: usize,
            dims: (usize, usize, usize),
        ) -> Self {
            let (_m, k, n) = dims;
            let panels = ColPanels {
                rows: k,
                cols: n,
                group: g,
            };
            assert!(b.panels == panels && b.bytes.len() == panels.len());
            assert!(b.scale.len() == panels.scales());
            NnStage {
                aw: &a.words.words,
                abias: &a.words.bias,
                ascale: &a.scale,
                abpr: a.bpr,
                bytes: b.bytes,
                bscale: b.scale,
                stride: a.words.stride,
                steps: panels.quad_rows(),
                k_steps: k.div_ceil(4),
                steps_per_block: g / 4,
                nblocks: panels.blocks(),
                n,
            }
        }
    }

    /// `madd` over B's panels ([`panel_shard`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (checked by the caller via `host_kernel`).
    #[inline(never)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn madd_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        panel_shard(s, &mut Vector::<Madd>::default(), row_start, out)
    }

    /// `dpbusd` over B's panels ([`panel_shard`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and AVX-VNNI (checked by the caller via
    /// `host_kernel`).
    #[inline(never)]
    #[target_feature(enable = "avx2,avxvnni")]
    pub(super) unsafe fn vnni_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        panel_shard(s, &mut Vector::<Vnni>::default(), row_start, out)
    }

    /// The tile unit over B's panels ([`panel_shard`]): the tile
    /// configuration for this shard, the panels, then `tilerelease` — on
    /// return and on unwind alike ([`TileConfig::load`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2, AVX-VNNI, AVX-512F and AMX-INT8 with this process's
    /// tile data granted (checked by the caller via `host_kernel`).
    #[inline(never)]
    #[target_feature(enable = "avx2,avxvnni,avx512f")]
    pub(super) unsafe fn tile_worker(s: &NnStage, row_start: usize, out: &mut [f32]) {
        let _tiles = TileConfig::new(out.len() / s.n, tile_chunk(s)).load();
        panel_shard(s, &mut Tiles::new(), row_start, out);
    }

    /// How a worker runs its shard's rows over one panel: a vector row
    /// body ([`Vector`]) or the tile unit ([`Tiles`]).
    trait Body {
        /// Every row of the shard (`row_start..`, row-major in `out`) over
        /// `panel`.
        ///
        /// # Safety
        ///
        /// As the body's worker.
        unsafe fn rows(&mut self, s: &NnStage, panel: Panel, row_start: usize, out: &mut [f32]);
    }

    /// The vector row body of micro-kernel `Q`, [`panel_rows`].
    struct Vector<Q>(core::marker::PhantomData<Q>);

    impl<Q> Default for Vector<Q> {
        fn default() -> Self {
            Vector(core::marker::PhantomData)
        }
    }

    impl<Q: Quads> Body for Vector<Q> {
        #[inline(always)]
        unsafe fn rows(&mut self, s: &NnStage, panel: Panel, row_start: usize, out: &mut [f32]) {
            panel_rows::<Q>(s, panel, row_start, out)
        }
    }

    /// The tile unit, [`tile_rows`], with the two blocks its C tiles are
    /// stored to.
    struct Tiles([TileBlock; 2]);

    impl Tiles {
        fn new() -> Self {
            Tiles([
                TileBlock([[0; W]; TILE_ROWS]),
                TileBlock([[0; W]; TILE_ROWS]),
            ])
        }
    }

    impl Body for Tiles {
        #[inline(always)]
        unsafe fn rows(&mut self, s: &NnStage, panel: Panel, row_start: usize, out: &mut [f32]) {
            tile_rows(s, &mut self.0, panel, row_start, out)
        }
    }

    /// One worker's shard of a product: the output rows `row_start..`,
    /// row-major in `out`, over each of B's panels in turn.
    ///
    /// # Safety
    ///
    /// Requires the target features of `B`.
    #[inline(always)]
    unsafe fn panel_shard<B: Body>(s: &NnStage, body: &mut B, row_start: usize, out: &mut [f32]) {
        let n = s.n;
        let panels = s
            .bytes
            .chunks_exact(s.steps * QUAD)
            .zip(s.bscale.chunks_exact(s.nblocks * W));
        for (q, (b, scales)) in panels.enumerate() {
            let (j0, w) = (q * W, (n - q * W).min(W));
            let b = b.as_ptr().cast::<u8>();
            body.rows(s, Panel { b, scales, j0, w }, row_start, out);
        }
    }

    /// One 16-column panel of B as the row body reads it: `steps` k-quad
    /// rows of biased bytes at `b`, `nblocks × W` scales, and the panel's
    /// place in the output (`w ≤ W` real columns from `j0`).
    #[derive(Clone, Copy)]
    struct Panel<'p> {
        b: *const u8,
        scales: &'p [f32],
        j0: usize,
        w: usize,
    }

    /// How a micro-kernel multiplies one k-quad row of a panel into the
    /// i32 accumulators of one output row's 16 columns: the only things in
    /// which the `madd` and `dpbusd` row bodies differ.
    trait Quads {
        /// A row's accumulators.
        type Acc: Copy;
        /// A panel row as the micro-kernel's operands.
        type Row: Copy;

        /// Output rows a register block takes: four, or two where four
        /// rows' accumulators would not fit the sixteen vector registers.
        const ROWS: usize;

        /// Zeroed accumulators.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn zero() -> Self::Acc;

        /// The quad row at `row` (64 readable bytes).
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn load(row: *const u8) -> Self::Row;

        /// A's k-quad word `a` broadcast as the micro-kernel's operand.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn broadcast(a: u32) -> __m256i;

        /// `acc` plus, per column, the quad's products with `a`.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn step(acc: Self::Acc, a: __m256i, b: Self::Row) -> Self::Acc;

        /// The accumulators as column sums, columns 0–7 then 8–15.
        ///
        /// # Safety
        ///
        /// Requires the micro-kernel's target features.
        unsafe fn sums(acc: Self::Acc) -> [__m256i; 2];
    }

    /// AVX-VNNI: the quad row read as it is, `dpbusd` into one lane a
    /// column.
    struct Vnni;

    impl Quads for Vnni {
        type Acc = [__m256i; 2];
        type Row = [__m256i; 2];
        const ROWS: usize = ROW_QUAD;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn zero() -> Self::Acc {
            [_mm256_setzero_si256(); 2]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(row: *const u8) -> Self::Row {
            let v = row as *const __m256i;
            [_mm256_loadu_si256(v), _mm256_loadu_si256(v.add(1))]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn broadcast(a: u32) -> __m256i {
            _mm256_set1_epi32(a as i32)
        }

        #[inline]
        #[target_feature(enable = "avx2,avxvnni")]
        unsafe fn step(acc: Self::Acc, a: __m256i, b: Self::Row) -> Self::Acc {
            [
                _mm256_dpbusd_avx_epi32(acc[0], b[0], a),
                _mm256_dpbusd_avx_epi32(acc[1], b[1], a),
            ]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sums(acc: Self::Acc) -> [__m256i; 2] {
            acc
        }
    }

    /// AVX2: the quad row widened to i16 four columns a vector
    /// (`cvtepu8_epi16`, exact: `b + 128 ≤ 255`), `madd_epi16` against A's
    /// quad repeated, so each column keeps two pair partials (`≤ 2·255·128`
    /// each) that the close adds.
    struct Madd;

    impl Quads for Madd {
        type Acc = [__m256i; 4];
        type Row = [__m256i; 4];
        const ROWS: usize = 2;

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn zero() -> Self::Acc {
            [_mm256_setzero_si256(); 4]
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn load(row: *const u8) -> Self::Row {
            let v = row as *const __m128i;
            [0, 1, 2, 3].map(|i| _mm256_cvtepu8_epi16(_mm_loadu_si128(v.add(i))))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn broadcast(a: u32) -> __m256i {
            _mm256_cvtepi8_epi16(_mm_set1_epi32(a as i32))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn step(acc: Self::Acc, a: __m256i, b: Self::Row) -> Self::Acc {
            [0, 1, 2, 3].map(|i| _mm256_add_epi32(acc[i], _mm256_madd_epi16(a, b[i])))
        }

        /// `hadd` pairs each column's partials, in the order
        /// `[c0 c1 c4 c5 | c2 c3 c6 c7]`; the qword permute restores it.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn sums(acc: Self::Acc) -> [__m256i; 2] {
            [
                _mm256_permute4x64_epi64::<0xD8>(_mm256_hadd_epi32(acc[0], acc[1])),
                _mm256_permute4x64_epi64::<0xD8>(_mm256_hadd_epi32(acc[2], acc[3])),
            ]
        }
    }

    /// Every row of one worker's shard (`row_start..`, row-major in `out`)
    /// over one panel: four-row quads, in register blocks of `Q::ROWS`
    /// rows, then the remainder one by one.
    ///
    /// # Safety
    ///
    /// As [`nn_rows`].
    #[inline(always)]
    unsafe fn panel_rows<Q: Quads>(s: &NnStage, panel: Panel, row_start: usize, out: &mut [f32]) {
        let n = s.n;
        let quads = out.len() / n / ROW_QUAD * ROW_QUAD;
        for (q, c) in out[..quads * n].chunks_exact_mut(ROW_QUAD * n).enumerate() {
            let i0 = row_start + q * ROW_QUAD;
            if Q::ROWS == ROW_QUAD {
                nn_rows::<ROW_QUAD, Q>(s, panel, i0, c);
            } else {
                for (h, c) in c.chunks_exact_mut(2 * n).enumerate() {
                    nn_rows::<2, Q>(s, panel, i0 + 2 * h, c);
                }
            }
        }
        for (r, c) in out[quads * n..].chunks_exact_mut(n).enumerate() {
            nn_rows::<1, Q>(s, panel, row_start + quads + r, c);
        }
    }

    /// `R` output rows (absolute row `i0`, row-major in `c`) of one panel.
    ///
    /// # Safety
    ///
    /// Requires the target features of `Q`, and a panel of `s.steps` quad
    /// rows and `s.nblocks × W` scales — the sizes [`NnStage::build`]
    /// checks: the vector loads read them unchecked.
    #[inline(always)]
    unsafe fn nn_rows<const R: usize, Q: Quads>(
        s: &NnStage,
        panel: Panel,
        i0: usize,
        c: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; R];
        for bb in 0..s.nblocks {
            let t0 = bb * s.steps_per_block;
            let t1 = ((bb + 1) * s.steps_per_block).min(s.k_steps);
            let mut iacc = [Q::zero(); R];
            for t in t0..t1 {
                let bv = Q::load(panel.b.add(t * QUAD));
                for (r, ir) in iacc.iter_mut().enumerate() {
                    let av = Q::broadcast(s.aw[(i0 + r) * s.stride + t]);
                    *ir = Q::step(*ir, av, bv);
                }
            }
            let srow = panel.scales.as_ptr().add(bb * W);
            let sb0 = _mm256_loadu_ps(srow);
            let sb1 = _mm256_loadu_ps(srow.add(8));
            for (r, ar) in acc.iter_mut().enumerate() {
                let bias = _mm256_set1_epi32(s.abias[(i0 + r) * s.nblocks + bb]);
                let [x0, x1] = Q::sums(iacc[r]);
                let (x0, x1) = (_mm256_sub_epi32(x0, bias), _mm256_sub_epi32(x1, bias));
                let sa = _mm256_set1_ps(s.ascale[(i0 + r) * s.abpr + bb]);
                let f0 = _mm256_mul_ps(_mm256_mul_ps(sa, sb0), _mm256_cvtepi32_ps(x0));
                let f1 = _mm256_mul_ps(_mm256_mul_ps(sa, sb1), _mm256_cvtepi32_ps(x1));
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

    /// Rows of one tile: C's and A's tiles hold up to 16.
    const TILE_ROWS: usize = 16;

    /// The AMX palette-1 configuration of one shard of `rows` rows, for
    /// K-chunks of `chunk` bytes:
    ///
    /// * `tmm0`, `tmm1` — C, two 16-row tiles of 16 i32 columns, which
    ///   alternate between consecutive groups; `tmm2` — A, 16 rows of
    ///   `chunk` bytes;
    /// * `tmm4`, `tmm5`, `tmm6` — the same for the shard's last
    ///   `rows % 16` rows, so one configuration serves the whole shard;
    /// * `tmm3` — B, `chunk / 4` k-quad rows of the panel, 64 bytes each.
    #[repr(C, align(64))]
    struct TileConfig([u8; 64]);

    impl TileConfig {
        fn new(rows: usize, chunk: usize) -> Self {
            let mut cfg = [0u8; 64];
            cfg[0] = 1;
            let mut tile = |t: usize, rows: usize, bytes: usize| {
                cfg[16 + 2 * t..18 + 2 * t].copy_from_slice(&(bytes as u16).to_le_bytes());
                cfg[48 + t] = rows as u8;
            };
            let rem = rows % TILE_ROWS;
            if rows >= TILE_ROWS {
                tile(0, TILE_ROWS, 4 * W);
                tile(1, TILE_ROWS, 4 * W);
                tile(2, TILE_ROWS, chunk);
            }
            if rem > 0 {
                tile(4, rem, 4 * W);
                tile(5, rem, 4 * W);
                tile(6, rem, chunk);
            }
            tile(3, chunk / 4, 4 * W);
            TileConfig(cfg)
        }

        /// `ldtilecfg`, until the returned guard drops.
        ///
        /// # Safety
        ///
        /// As [`tile_worker`].
        #[inline(always)]
        unsafe fn load(&self) -> TileRelease {
            asm!("ldtilecfg [{}]", in(reg) self.0.as_ptr(), options(nostack, readonly));
            TileRelease
        }
    }

    /// Runs `tilerelease` when dropped — the thread's tile state back to
    /// its initial, unconfigured state — so a worker that unwinds out of
    /// the tiles returns the unit too: serving catches a forward pass's
    /// panic and keeps the thread.
    struct TileRelease;

    impl Drop for TileRelease {
        #[inline(always)]
        fn drop(&mut self) {
            // SAFETY: made only by `TileConfig::load`, on a host with the
            // tile unit; `tilerelease` touches no memory.
            unsafe { asm!("tilerelease", options(nostack, nomem)) }
        }
    }

    /// Runs `body` with a 16-row shard's tile configuration loaded, as
    /// [`tile_worker`] does.
    ///
    /// # Safety
    ///
    /// As [`tile_worker`].
    #[cfg(test)]
    pub(super) unsafe fn with_tiles(body: impl FnOnce()) {
        let _tiles = TileConfig::new(TILE_ROWS, 4 * W).load();
        body();
    }

    /// The thread's tile configuration as `sttilecfg` stores it: all zero
    /// while none is loaded.
    ///
    /// # Safety
    ///
    /// As [`tile_worker`].
    #[cfg(test)]
    pub(super) unsafe fn stored_tile_config() -> [u8; 64] {
        let mut cfg = TileConfig([0xA5; 64]);
        asm!("sttilecfg [{}]", in(reg) cfg.0.as_mut_ptr(), options(nostack));
        cfg.0
    }

    /// Bytes of A (and of K) per `tdpbsud`: the largest multiple of four
    /// up to 64 that divides the group, so a group chains whole chunks
    /// into one C tile — one chunk at every group up to 64.
    fn tile_chunk(s: &NnStage) -> usize {
        let spb = s.steps_per_block;
        4 * (1..=16).rev().find(|q| spb.is_multiple_of(*q)).unwrap_or(1)
    }

    /// Runs `$op!(C, A, args…)` on the tiles of the 16-row (`FULL`) or
    /// the remainder set, with C the set's first (`!ODD`) or second tile:
    /// tile registers are named in the instruction, not passed.
    macro_rules! on_tiles {
        ($full:expr, $odd:expr, $op:ident!($($args:tt)*)) => {
            match ($full, $odd) {
                (true, false) => $op!("tmm0", "tmm2", $($args)*),
                (true, true) => $op!("tmm1", "tmm2", $($args)*),
                (false, false) => $op!("tmm4", "tmm6", $($args)*),
                (false, true) => $op!("tmm5", "tmm6", $($args)*),
            }
        };
    }

    macro_rules! tilezero {
        ($c:literal, $a:literal,) => {
            asm!(concat!("tilezero ", $c), options(nostack, nomem))
        };
    }

    macro_rules! tdpbsud {
        ($c:literal, $a:literal, $ap:expr, $astride:expr, $bp:expr) => {
            asm!(
                concat!("tileloadd ", $a, ", [{a} + {astride} * 1]"),
                "tileloadd tmm3, [{b} + {bstride} * 1]",
                concat!("tdpbsud ", $c, ", ", $a, ", tmm3"),
                a = in(reg) $ap,
                astride = in(reg) $astride,
                b = in(reg) $bp,
                bstride = in(reg) 4 * W,
                options(nostack, readonly),
            )
        };
    }

    macro_rules! tilestored {
        ($c:literal, $a:literal, $p:expr) => {
            asm!(
                concat!("tilestored [{p} + {stride} * 1], ", $c),
                p = in(reg) $p,
                stride = in(reg) 4 * W,
                options(nostack),
            )
        };
    }

    /// Group `bb`'s i32 block into C: `tilezero`, then per K-chunk A's
    /// `rows × chunk` bytes (row stride `4·stride`), the chunk's quad rows
    /// of the panel and `tdpbsud C, A, B` — signed A times unsigned
    /// (biased) B, accumulated modulo 2³².
    ///
    /// # Safety
    ///
    /// As [`tile_worker`], with the shard's configuration loaded; `a` is
    /// the tile's first row of A's words and `b` the panel's quad rows.
    #[inline(always)]
    unsafe fn tile_group<const FULL: bool, const ODD: bool>(
        s: &NnStage,
        a: *const u32,
        b: *const u8,
        bb: usize,
        chunk: usize,
    ) {
        on_tiles!(FULL, ODD, tilezero!());
        let astride = 4 * s.stride;
        let quads = chunk / 4;
        for t in (bb * s.steps_per_block..(bb + 1) * s.steps_per_block).step_by(quads) {
            let (ap, bp) = (a.add(t).cast::<u8>(), b.add(t * QUAD));
            on_tiles!(FULL, ODD, tdpbsud!(ap, astride, bp));
        }
    }

    /// Stores C's i32 block row by row into `buf`.
    ///
    /// # Safety
    ///
    /// As [`tile_group`].
    #[inline(always)]
    unsafe fn tile_store<const FULL: bool, const ODD: bool>(buf: &mut TileBlock) {
        on_tiles!(FULL, ODD, tilestored!(buf.0.as_mut_ptr()));
    }

    /// One stored C tile: 16 rows of 16 i32 column sums.
    #[repr(C, align(64))]
    struct TileBlock([[i32; W]; TILE_ROWS]);

    /// Every row of one worker's shard over one panel on the tile unit:
    /// 16-row tiles, then the remainder as one tile.
    ///
    /// # Safety
    ///
    /// As [`tile_worker`], with the shard's configuration loaded
    /// ([`TileConfig`]), and a panel of whole groups ([`nn_rows`]'s sizes).
    #[inline(always)]
    unsafe fn tile_rows(
        s: &NnStage,
        bufs: &mut [TileBlock; 2],
        panel: Panel,
        row_start: usize,
        out: &mut [f32],
    ) {
        let n = s.n;
        let full = out.len() / n / TILE_ROWS * TILE_ROWS;
        for (t, c) in out[..full * n].chunks_exact_mut(TILE_ROWS * n).enumerate() {
            let i0 = row_start + t * TILE_ROWS;
            tile_block::<true, TILE_ROWS>(s, bufs, panel, (i0, TILE_ROWS), c);
        }
        let (i0, c) = (row_start + full, &mut out[full * n..]);
        match c.len() / n {
            0 => {}
            rem @ 1..=4 => tile_block::<false, 4>(s, bufs, panel, (i0, rem), c),
            rem @ 5..=8 => tile_block::<false, 8>(s, bufs, panel, (i0, rem), c),
            rem @ 9..=12 => tile_block::<false, 12>(s, bufs, panel, (i0, rem), c),
            rem => tile_block::<false, 16>(s, bufs, panel, (i0, rem), c),
        }
    }

    /// `rows` output rows (absolute row `i0`, row-major in `c`) of one
    /// panel on the `FULL` or remainder tiles, folded `R ≥ rows` at a
    /// time (rows past `rows` repeat the last one's bias and scale and are
    /// never stored), so the accumulators stay in registers. Each group's
    /// block comes from [`tile_group`], computed one group ahead in the
    /// other C tile and folded one group after its store, and closes
    /// exactly as [`nn_rows`]' does, in ascending group order:
    /// `iacc − 128·Σa`, then `acc += (sa·sb)·(iacc as f32)`, sixteen
    /// columns per AVX-512 register.
    ///
    /// # Safety
    ///
    /// As [`tile_rows`].
    #[inline(always)]
    unsafe fn tile_block<const FULL: bool, const R: usize>(
        s: &NnStage,
        bufs: &mut [TileBlock; 2],
        panel: Panel,
        (i0, rows): (usize, usize),
        c: &mut [f32],
    ) {
        let chunk = tile_chunk(s);
        let (a, b) = (s.aw.as_ptr().add(i0 * s.stride), panel.b);
        assert!(0 < rows && rows <= R && R <= TILE_ROWS);
        assert!((i0 + rows) * s.nblocks <= s.abias.len());
        assert!((i0 + rows) * s.abpr <= s.ascale.len() && s.nblocks <= s.abpr);
        let mut acc = [_mm512_setzero_ps(); R];
        tile_group::<FULL, false>(s, a, b, 0, chunk);
        for bb in 0..s.nblocks {
            // Group `bb + 1` into the other C tile, group `bb` out to its
            // block, and group `bb − 1`'s block, stored one step earlier,
            // folded.
            let next = bb + 1 < s.nblocks;
            let [even, odd] = &mut *bufs;
            let (buf, prev) = if bb % 2 == 0 {
                (even, odd)
            } else {
                (odd, even)
            };
            if bb % 2 == 0 {
                if next {
                    tile_group::<FULL, true>(s, a, b, bb + 1, chunk);
                }
                tile_store::<FULL, false>(buf);
            } else {
                if next {
                    tile_group::<FULL, false>(s, a, b, bb + 1, chunk);
                }
                tile_store::<FULL, true>(buf);
            }
            if bb > 0 {
                tile_fold(s, panel.scales, (i0, rows), bb - 1, prev, &mut acc);
            }
        }
        let last = s.nblocks - 1;
        tile_fold(s, panel.scales, (i0, rows), last, &bufs[last % 2], &mut acc);
        let (j0, mask) = (panel.j0, ((1u32 << panel.w) - 1) as u16);
        for (ar, row) in acc.iter().zip(c.chunks_exact_mut(s.n)).take(rows) {
            _mm512_mask_storeu_ps(row.as_mut_ptr().add(j0), mask, *ar);
        }
    }

    /// Folds group `bb`'s stored block into the accumulators of rows
    /// `i0..i0 + rows` (`R ≥ rows` of them).
    ///
    /// # Safety
    ///
    /// As [`tile_rows`], with the bounds [`tile_block`] asserts.
    #[inline(always)]
    unsafe fn tile_fold<const R: usize>(
        s: &NnStage,
        scales: &[f32],
        (i0, rows): (usize, usize),
        bb: usize,
        buf: &TileBlock,
        acc: &mut [__m512; R],
    ) {
        let (abias, ascale) = (s.abias.as_ptr(), s.ascale.as_ptr());
        let sb = _mm512_loadu_ps(scales.as_ptr().add(bb * W));
        for (r, ar) in acc.iter_mut().enumerate() {
            let i = i0 + r.min(rows - 1);
            let bias = _mm512_set1_epi32(*abias.add(i * s.nblocks + bb));
            let iacc = _mm512_sub_epi32(_mm512_loadu_si512(buf.0[r].as_ptr().cast()), bias);
            let sa = _mm512_set1_ps(*ascale.add(i * s.abpr + bb));
            let f = _mm512_mul_ps(_mm512_mul_ps(sa, sb), _mm512_cvtepi32_ps(iacc));
            *ar = _mm512_add_ps(*ar, f);
        }
    }

    /// XCR0, the state components the OS saves. Read only on a host with
    /// AVX2, which implies the OS has enabled `xgetbv`.
    pub(super) fn xcr0() -> u64 {
        let (lo, hi): (u32, u32);
        // SAFETY: `xgetbv` reads a register; the caller confirmed AVX2.
        unsafe {
            asm!("xgetbv", in("ecx") 0, out("eax") lo, out("edx") hi, options(nomem, nostack, preserves_flags));
        }
        u64::from(hi) << 32 | u64::from(lo)
    }

    /// Asks Linux to grant this process tile data
    /// (`arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`), once for
    /// all its threads; `false` when refused and on other systems.
    pub(super) fn request_tile_data() -> bool {
        #[cfg(target_os = "linux")]
        {
            const SYS_ARCH_PRCTL: i64 = 158;
            const ARCH_REQ_XCOMP_PERM: i64 = 0x1023;
            const XFEATURE_XTILEDATA: i64 = 18;
            let ret: i64;
            // SAFETY: the syscall reads and writes no memory of ours; the
            // kernel clobbers `rcx` and `r11`.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_ARCH_PRCTL => ret,
                    in("rdi") ARCH_REQ_XCOMP_PERM,
                    in("rsi") XFEATURE_XTILEDATA,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            ret == 0
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// [`super::transpose_words`] over rows `0 .. rows4` (a multiple of
    /// four) and bytes `0 .. len` (a multiple of sixteen): four rows'
    /// sixteen bytes at a time, two rounds of unpacks. The bytes go in
    /// stretches of [`STRETCH`], each taking every row quad in turn, so
    /// the stretch's `dst` rows stay in L1 until they are whole, and only
    /// four source rows are read at once: rows a power of two apart share
    /// a cache set, and sixteen of them at once missed on every load.
    ///
    /// # Safety
    ///
    /// Requires the bounds [`super::transpose_words`] asserts.
    pub(super) unsafe fn transpose_words(
        src: *const i8,
        stride: usize,
        rows4: usize,
        len: usize,
        dst: *mut i8,
        bias: i8,
    ) {
        /// Source bytes per row and stretch: 4 KiB of `dst`.
        const STRETCH: usize = 256;
        let bias = _mm_set1_epi8(bias);
        for s0 in (0..len).step_by(STRETCH) {
            for c0 in (0..rows4).step_by(4) {
                for x0 in (s0..len.min(s0 + STRETCH)).step_by(16) {
                    let row = |r: usize| _mm_loadu_si128(src.add((c0 + r) * stride + x0).cast());
                    let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                    let (lo01, hi01) = (_mm_unpacklo_epi32(r0, r1), _mm_unpackhi_epi32(r0, r1));
                    let (lo23, hi23) = (_mm_unpacklo_epi32(r2, r3), _mm_unpackhi_epi32(r2, r3));
                    let words = [
                        _mm_unpacklo_epi64(lo01, lo23),
                        _mm_unpackhi_epi64(lo01, lo23),
                        _mm_unpacklo_epi64(hi01, hi23),
                        _mm_unpackhi_epi64(hi01, hi23),
                    ];
                    for (s, w) in words.into_iter().enumerate() {
                        let at = dst.add((x0 / 4 + s) * QUAD + 4 * c0).cast::<__m128i>();
                        _mm_storeu_si128(at, _mm_xor_si128(w, bias));
                    }
                }
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
    use crate::col_grouped::col_grouped;
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
        match layout {
            PackLayout::RowGroups => PackedMat::new(rows, cols, group, mans, scales),
            PackLayout::ColGroups => col_grouped(rows, cols, group, &mans, &scales),
        }
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

    /// Row counts on both sides of the four-row blocking and of each
    /// 16-row tile, column counts on both sides of each 16-column panel
    /// edge, and depths of every residue mod 4 (the padded last k-quad) —
    /// the shapes the panels, the `Nt` gather and the tiles have to get
    /// right.
    const TAIL_MS: [usize; 11] = [1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33];
    const TAIL_NS: [usize; 6] = [1, 15, 16, 17, 33, 70];
    const TAIL_KS: [usize; 6] = [1, 7, 13, 18, 32, 47];

    /// The micro-kernels this host runs, narrowest first. Says which
    /// cases skip when the host runs fewer than all of them.
    fn host_kernels() -> Vec<MicroKernel> {
        if host_kernel() < Some(MicroKernel::Tile) {
            println!(
                "host runs {:?}: the cases of wider micro-kernels skip",
                host_kernel()
            );
        }
        [MicroKernel::Madd, MicroKernel::Dpbusd, MicroKernel::Tile]
            .into_iter()
            .filter(|&mk| Some(mk) <= host_kernel())
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `rows × cols` column-grouped operand as the pack writes it:
    /// random values — a fifth zero, magnitudes over eighteen binades —
    /// packed along the columns at group `g`, 7-bit mantissas, straight
    /// into their column panels ([`PackedMat::from_col_panels`]).
    fn packed_cols(rows: usize, cols: usize, g: usize, seed: u64) -> PackedMat {
        use fast_bfp::{packed::pack_matrix, BfpFormat, CounterRng, GroupAxis, Noise, Rounding};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(rng.gen_range(-9..9))
                }
            })
            .collect();
        let fmt = BfpFormat::new(g, 7, 8).expect("a valid format");
        let noise = Noise {
            rng: CounterRng::new(seed),
            base: 0,
            workers: 1,
        };
        let p = pack_matrix(
            &data,
            rows,
            cols,
            GroupAxis::AlongCol,
            fmt,
            Rounding::Nearest,
            noise,
            false,
        )
        .expect("plain values pack");
        PackedMat::from_col_panels(rows, cols, g, p.mantissas, p.scales)
    }

    /// Every integer path against the segment oracle, bit for bit: the
    /// scalar `Nn` core; the host's own dispatch through the public entry
    /// points, with A's words converted per call and staged once
    /// ([`PackedMat::with_a_words`]); and each micro-kernel this host runs,
    /// called directly on the same operands whatever [`ceiling`] would
    /// pick — `Nn` and `Tn` over the column panels the pack wrote, and
    /// gathered `Nt` (from four rows; below, the dots). Over the tail grid
    /// at groups of both residues mod 4 (a `g ≡ 2` pair takes the scalar
    /// kernels), the shapes above and four shapes deep enough to shard —
    /// one at a group the tile unit chains over two K-chunks — at 1–3
    /// workers.
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
        let sharded = [
            (16, 61, 70, 301),
            (6, 9, 70, 512),
            (32, 12, 40, 302),
            (96, 33, 17, 200),
        ];
        let saved = parallelism();
        for (g, m, n, k) in shapes.chain(sharded).chain(grid) {
            let seed = (61 * m + 67 * n + 71 * k + g) as u64;
            let a = random_pack(m, k, g, PackLayout::RowGroups, seed);
            let staged = a.clone().with_a_words();
            assert_eq!(staged.a_words().is_some(), g.is_multiple_of(4));
            let at = packed_cols(k, m, g, seed + 2);
            let bt = random_pack(n, k, g, PackLayout::RowGroups, seed + 3);
            let b = packed_cols(k, n, g, seed + 1);
            let want = bits(&segment_product(Orient::Nn, &a, &b));
            let want_tn = bits(&segment_product(Orient::Tn, &at, &b));
            let want_nt = bits(&segment_product(Orient::Nt, &a, &bt));
            let mut scalar = vec![0.0f32; m * n];
            let (av, bv) = (RowSide::of(&a), ColSide::of(&b));
            nn_scalar(&av, &bv, g, g, (m, k, n), &mut scalar);
            assert_eq!(bits(&scalar), want, "scalar ({m},{k},{n}) g={g}");
            for workers in 1..=3 {
                set_parallelism(Parallelism::new(workers));
                let shape = format!("({m},{k},{n}) g={g} workers={workers}");
                for (a, path) in [(&a, "converted"), (&staged, "staged")] {
                    assert_eq!(bits(int_nn(a, &b).data()), want, "nn {path} {shape}");
                    assert_eq!(bits(int_nt(a, &bt).data()), want_nt, "nt {path} {shape}");
                }
                assert_eq!(bits(int_tn(&at, &b).data()), want_tn, "tn {shape}");
                for &mk in &kernels {
                    let tag = format!("{mk:?} {shape}");
                    let nn = nn_on(Some(mk), &a, &bv, g);
                    assert_eq!(bits(nn.data()), want, "nn {tag}");
                    let tn = tn_on(Some(mk), &at, &bv, g);
                    assert_eq!(bits(tn.data()), want_tn, "tn {tag}");
                    let nt = nt_on(Some(mk), &a, &bt);
                    assert_eq!(bits(nt.data()), want_nt, "nt {tag}");
                }
            }
        }
        set_parallelism(saved);
    }

    /// The micro-kernels sum the products of B biased by `+128`, so a
    /// segment's lane can wrap `i32` where its true sum does not: with A
    /// all `−128` and B all `+127`, the biased sum of the longest segment
    /// of whole k-quads (131 068 values, a multiple of four under
    /// [`MAX_INT_SEGMENT`]) is `−4.28·10⁹`. Modular steps and the bias
    /// subtraction still return the exact `−2.13·10⁹`; the saturating
    /// `dpbusds` would not. B all `−128` too gives the extremal product,
    /// `k·128²`, just under `2³¹`. `Nn`, `Tn` and gathered `Nt`, on each
    /// micro-kernel this host runs — on the tile unit a group of 4 681
    /// chained 28-value K-chunks.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_longest_quad_segment_wraps_its_biased_sum_and_stays_exact() {
        let k = MAX_INT_SEGMENT / 4 * 4;
        assert_eq!(k, 131_068);
        assert!(k as i64 * 255 * -128 < i64::from(i32::MIN));
        let (m, n) = (4, 16);
        let a = PackedMat::new(m, k, k, vec![-128; m * k], vec![1.0; m]);
        let at = col_grouped(k, m, k, &vec![-128; m * k], &[1.0; 4]);
        for bv in [127i8, -128] {
            let want = vec![(-128 * i32::from(bv) * k as i32) as f32; m * n];
            let b = col_grouped(k, n, k, &vec![bv; k * n], &[1.0; 16]);
            let bt = PackedMat::new(n, k, k, vec![bv; k * n], vec![1.0; n]);
            for mk in host_kernels() {
                let tag = format!("{mk:?} b={bv}");
                let nn = nn_on(Some(mk), &a, &ColSide::of(&b), k);
                assert_eq!(nn.data(), want, "nn {tag}");
                let tn = tn_on(Some(mk), &at, &ColSide::of(&b), k);
                assert_eq!(tn.data(), want, "tn {tag}");
                assert_eq!(nt_on(Some(mk), &a, &bt).data(), want, "nt {tag}");
            }
        }
    }

    /// `PackedMat::new` takes any f32 scale. Off the powers of two, the
    /// close's `(sa·sb)·x` rounds, so only the exact close — two
    /// multiplies, then an add — matches the oracle; a fused multiply-add
    /// in any micro-kernel's close fails here (at power-of-two scales the
    /// product is exact and the two agree). `Nn`, `Tn` and `Nt`, on each
    /// micro-kernel this host runs.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn arbitrary_scales_close_as_the_oracle_does() {
        use crate::qgemm::Orient;
        use segment_oracle::segment_product;
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let mut rescale = |p: PackedMat| {
            let (rows, cols, g, layout) = (p.rows(), p.cols(), p.group(), p.layout());
            let mans = (0..rows * cols).map(|x| p.mantissa(x / cols, x % cols));
            let n_scales = match layout {
                PackLayout::RowGroups => rows * cols.div_ceil(g),
                PackLayout::ColGroups => rows.div_ceil(g) * cols,
            };
            let scales: Vec<f32> = (0..n_scales).map(|_| rng.gen_range(0.5f32..2.0)).collect();
            let mans: Vec<i8> = mans.collect();
            match layout {
                PackLayout::RowGroups => PackedMat::new(rows, cols, g, mans, scales),
                PackLayout::ColGroups => col_grouped(rows, cols, g, &mans, &scales),
            }
        };
        for (m, k, n, g) in [(17, 96, 33, 16), (8, 64, 16, 32), (5, 40, 20, 8)] {
            let a = rescale(random_pack(m, k, g, PackLayout::RowGroups, 3));
            let at = rescale(random_pack(k, m, g, PackLayout::ColGroups, 5));
            let bt = rescale(random_pack(n, k, g, PackLayout::RowGroups, 6));
            let b = rescale(random_pack(k, n, g, PackLayout::ColGroups, 4));
            let want = bits(&segment_product(Orient::Nn, &a, &b));
            let want_tn = bits(&segment_product(Orient::Tn, &at, &b));
            let want_nt = bits(&segment_product(Orient::Nt, &a, &bt));
            for mk in host_kernels() {
                let tag = format!("{mk:?} ({m},{k},{n}) g={g}");
                let nn = nn_on(Some(mk), &a, &ColSide::of(&b), g);
                assert_eq!(bits(nn.data()), want, "nn {tag}");
                let tn = tn_on(Some(mk), &at, &ColSide::of(&b), g);
                assert_eq!(bits(tn.data()), want_tn, "tn {tag}");
                assert_eq!(bits(nt_on(Some(mk), &a, &bt).data()), want_nt, "nt {tag}");
            }
        }
    }

    /// Byte `i` of the column panels of `b` (`k × n`, group `g`), as
    /// [`ColPanels`] documents them, from row-major `mans`: panel `q`, quad
    /// row `t` of block `t / ⌈g/4⌉`, column `c`, step `s` holds
    /// `b[g·(t / ⌈g/4⌉) + 4·(t % ⌈g/4⌉) + s][16q + c] ^ 0x80`, and past the
    /// group, `k` or `n` the biased zero `0x80`.
    fn panel_byte(mans: &[i8], (k, n, g): (usize, usize, usize), i: usize) -> i8 {
        let qpb = g.div_ceil(4);
        let panel = k.div_ceil(g) * qpb * 64;
        let (q, t, c, s) = (i / panel, i % panel / 64, i % 64 / 4, i % 4);
        let (within, r, j) = (
            4 * (t % qpb) + s,
            g * (t / qpb) + 4 * (t % qpb) + s,
            16 * q + c,
        );
        let v = if within < g && r < k && j < n {
            mans[r * n + j]
        } else {
            0
        };
        v ^ i8::MIN
    }

    /// A column-grouped matrix is stored exactly as the column panels
    /// document, byte for byte and scale for scale, at groups the vector
    /// kernels take and at the rest — tail columns, the k-tail of the last
    /// group and a group's quad padding all the biased zero — and its
    /// accessors read it back. Staged A words count in `heap_bytes`; a
    /// column-grouped matrix or an odd group stages none.
    #[test]
    fn column_panels_hold_exactly_the_operands_values() {
        let grid = [2usize, 3, 4, 6, 16, 32].into_iter().flat_map(|g| {
            TAIL_NS
                .into_iter()
                .flat_map(move |n| TAIL_KS.into_iter().map(move |k| (g, n, k)))
        });
        for (g, n, k) in grid {
            let seed = (g * 1000 + n * 50 + k) as u64;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mans: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-128..=127)).collect();
            let scales: Vec<f32> = (0..k.div_ceil(g) * n).map(|x| x as f32 + 0.5).collect();
            let b = col_grouped(k, n, g, &mans, &scales);
            let (nblocks, panels) = (k.div_ceil(g), n.div_ceil(16));
            let bytes = b.bytes();
            assert_eq!(bytes.len(), panels * nblocks * g.div_ceil(4) * 64);
            assert_eq!(b.stored_scales().len(), panels * nblocks * 16);
            assert_eq!(b.heap_bytes(), bytes.len() + 4 * b.stored_scales().len());
            for (i, &got) in bytes.iter().enumerate() {
                let want = panel_byte(&mans, (k, n, g), i);
                assert_eq!(got, want, "g={g} n={n} k={k} byte {i}");
            }
            for (i, &got) in b.stored_scales().iter().enumerate() {
                let (q, bb, c) = (i / (nblocks * 16), i / 16 % nblocks, i % 16);
                let j = 16 * q + c;
                let want = if j < n { scales[bb * n + j] } else { 0.0 };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "g={g} n={n} k={k} bb={bb} j={j}"
                );
            }
            for (i, j) in (0..k).flat_map(|i| (0..n).map(move |j| (i, j))) {
                assert_eq!(b.mantissa(i, j), mans[i * n + j]);
                assert_eq!(b.scale(i, j), scales[i / g * n + j]);
            }
            let unstaged = b.heap_bytes();
            assert_eq!(b.with_a_words().heap_bytes(), unstaged);
        }
        let a = random_pack(9, 40, 16, PackLayout::RowGroups, 2);
        let unstaged = a.heap_bytes();
        let a = a.with_a_words();
        let staged = a.a_words().map_or(0, AWords::heap_bytes);
        assert_eq!(staged > 0, host_kernel().is_some());
        assert_eq!(a.heap_bytes(), unstaged + staged);
        let odd = random_pack(9, 20, 3, PackLayout::RowGroups, 1).with_a_words();
        assert!(odd.a_words().is_none());
    }

    /// A gathered `Nt` right-hand side is exactly the column panels of its
    /// transpose, bytes and scales — what packing `Bᵀ` column-grouped
    /// stores: tail columns, the k-tail of the last quad and whole padded
    /// quad rows all the biased zero. Over row counts on both sides of the
    /// four-row transpose and every panel edge, and depths on both sides of
    /// its sixteen-byte step and of a 256-byte stretch.
    #[test]
    fn gathered_panels_hold_exactly_the_operands_columns() {
        let ks = TAIL_KS.into_iter().chain([64, 255, 301]);
        let shapes = TAIL_NS
            .into_iter()
            .chain([3, 4, 8])
            .flat_map(|n| ks.clone().map(move |k| (n, k)));
        for g in [4, 12, 16] {
            for (n, k) in shapes.clone() {
                let bt = random_pack(n, k, g, PackLayout::RowGroups, (n * 100 + k + g) as u64);
                let mans: Vec<i8> = (0..k * n).map(|x| bt.mantissa(x % n, x / n)).collect();
                let scales: Vec<f32> = (0..k.div_ceil(g) * n)
                    .map(|x| bt.scale(x % n, x / n * g))
                    .collect();
                let want = col_grouped(k, n, g, &mans, &scales);
                let (bytes, scale, panels) = gather_panels(&RowSide::of(&bt), n, k, g);
                let tag = format!("n={n} k={k} g={g}");
                assert_eq!(panels, want.col_panels(), "{tag}");
                assert_eq!(bytes, want.bytes(), "{tag}");
                assert_eq!(bits(&scale), bits(want.stored_scales()), "{tag}");
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
    /// equal groups of whole k-quads (the gathered panel path from four
    /// rows up, the vector dots below) with `m` on both sides of the switch
    /// and of the four-row blocking, odd `k` (a padded quad), `n` on both
    /// sides of each 16-column panel edge, and the groups that the vector
    /// kernel refuses (the vector dot path).
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
        // Deep enough that the work-size heuristic shards the gathered path.
        let (abig, btbig) = (
            random_pack(64, 512, 16, PackLayout::RowGroups, 88),
            random_pack(96, 512, 16, PackLayout::RowGroups, 89),
        );
        // Five column panels (the last 6 wide) over fifteen row quads and a
        // remainder row, odd `k`: the workers split the row quads, and each
        // reads every panel.
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
            assert_eq!(int_nt(&abig, &btbig), s4, "nt gathered workers={workers}");
            assert_eq!(int_nn(&awide, &bwide), s5, "nn panels workers={workers}");
        }
        set_parallelism(saved);
    }

    /// A worker that panics inside the tiles still releases them: the
    /// thread's tile state is unconfigured again once the panic unwinds
    /// out, so a serving thread that survives it keeps no tile state.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn a_panic_inside_the_tiles_releases_them() {
        if host_kernel() < Some(MicroKernel::Tile) {
            println!("host runs {:?}: no tile unit to release", host_kernel());
            return;
        }
        // SAFETY: `host_kernel` confirmed the tile unit and its grant.
        let unwound = std::panic::catch_unwind(|| unsafe {
            simd::with_tiles(|| {
                assert_ne!(simd::stored_tile_config(), [0; 64]);
                panic!("a panic inside the tiles");
            })
        });
        assert!(unwound.is_err());
        // SAFETY: as above.
        assert_eq!(unsafe { simd::stored_tile_config() }, [0; 64]);
    }

    /// The tile unit runs only when the CPU, the OS's saved state, the
    /// kernels around it and the OS's grant all allow it — and the grant
    /// is asked for last, never on a host that would refuse anyway.
    #[test]
    fn the_tile_unit_needs_every_feature_and_the_grant() {
        const AMX: u32 = 1 << 24 | 1 << 25;
        const XCR0: u64 = 0b111 | 1 << 17 | 1 << 18;
        let never = || -> bool { panic!("asked for tile data on a host that refuses it") };
        assert!(tile_available(AMX, XCR0, || true, true, true));
        for edx in [0, 1 << 24, 1 << 25, !AMX] {
            assert!(
                !tile_available(edx, XCR0, never, true, true),
                "edx {edx:#x}"
            );
        }
        for xcr0 in [0b111, 0b111 | 1 << 17, 0b111 | 1 << 18] {
            assert!(
                !tile_available(AMX, xcr0, never, true, true),
                "xcr0 {xcr0:#x}"
            );
        }
        assert!(
            !tile_available(AMX, XCR0, || false, true, true),
            "grant refused"
        );
        assert!(
            !tile_available(AMX, XCR0, never, false, true),
            "no AVX-VNNI"
        );
        assert!(
            !tile_available(AMX, XCR0, never, true, false),
            "no AVX-512F"
        );
    }

    /// The dispatch rule's ceiling: the tile unit from a row quad up, and
    /// `dpbusd` below; a host without it keeps its own micro-kernel at any
    /// row count.
    #[test]
    fn the_tile_unit_takes_only_the_products_it_speeds_up() {
        let (tile, vnni) = (Some(MicroKernel::Tile), Some(MicroKernel::Dpbusd));
        for rows in [4, 8, 16, 64, 4096] {
            assert_eq!(ceiling(tile, rows), tile, "rows={rows}");
        }
        for rows in [0, 1, 2, 3] {
            assert_eq!(ceiling(tile, rows), vnni, "rows={rows}");
        }
        for host in [None, Some(MicroKernel::Madd), vnni] {
            for rows in [1, 3, 4, 64] {
                assert_eq!(ceiling(host, rows), host, "{host:?} rows={rows}");
            }
        }
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
