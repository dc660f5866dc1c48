//! Blocked, multi-threaded f32 GEMM kernels.
//!
//! Three orientations cover the DNN training GEMMs of paper Fig 3 without
//! materializing transposes:
//!
//! * [`matmul`]    — `C = A·B`      (forward pass, `O = A·W`)
//! * [`matmul_nt`] — `C = A·Bᵀ`     (backward pass, `∇A = ∇O·Wᵀ`)
//! * [`matmul_tn`] — `C = Aᵀ·B`     (backward pass, `∇W = Aᵀ·∇O`)
//!
//! All kernels accumulate in f32, matching the FP32 accumulator that spans
//! BFP groups in the fMAC (paper Section V-B). They run FP32 and the
//! non-BFP formats, and every BFP operand pair the integer kernels of
//! [`crate::qgemm`] cannot take, on its dequantized copy.
//!
//! The kernels are register/cache tiled and shard output row panels across
//! scoped worker threads per the process-wide [`crate::Parallelism`]
//! setting. One rule fixes the result bits in all three (DESIGN.md §7):
//! each element is the serial chain `acc = 0.0; acc += a·b` in ascending
//! `k`, so a tile that gives every element its own accumulator cannot move
//! a bit however it is shaped, chunked along `k`, or sharded — and an
//! output row does not depend on which other rows share the GEMM.
//!
//! `tests/proptests.rs` pins all three against a naive triple loop, for
//! every worker count.

use crate::parallel::shard_rows;
use crate::tensor::Tensor;

/// `C (m×n) = A (m×k) · B (k×n)`. Every element is the serial
/// ascending-`k` chain `acc = 0.0; acc += a·b`; only when `B` holds a
/// non-finite value does a chain also skip exact-zero `A` coefficients —
/// whole aligned blocks of four, and single steps of the `k % 4` tail —
/// which is then visible as `0·∞` terms left out.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(ka, kb, "matmul inner dimensions disagree: {ka} vs {kb}");
    nn_impl(Rows::of(a), Rows::of(b), m, ka, n)
}

/// `C (m×n) = A (m×k) · Bᵀ` where `B` is stored as `n×k`. Every element is
/// the serial ascending-`k` chain `acc = 0.0; acc += a·b`.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "A");
    let (n, kb) = dims2(b, "B");
    assert_eq!(ka, kb, "matmul_nt inner dimensions disagree: {ka} vs {kb}");
    nt_impl(Rows::of(a), Rows::of(b), m, ka, n)
}

/// `C (m×n) = Aᵀ · B` where `A` is stored as `k×m` and `B` as `k×n`. Every
/// element is the serial ascending-`k` chain, with [`matmul`]'s zero-skip
/// rule where `B` holds a non-finite value.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(ka, kb, "matmul_tn inner dimensions disagree: {ka} vs {kb}");
    tn_impl(Rows::of(a), Rows::of(b), m, ka, n)
}

fn dims2(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "{name} must be rank-2, got shape {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1])
}

/// A stored row-major matrix as the kernels read it: rows of `w` values.
#[derive(Clone, Copy)]
struct Rows<'a> {
    d: &'a [f32],
    w: usize,
}

impl<'a> Rows<'a> {
    fn of(t: &'a Tensor) -> Self {
        Rows {
            d: t.data(),
            w: t.shape()[1],
        }
    }

    /// Columns `[k0, k0+len)` of row `i`.
    #[inline]
    fn seg(self, i: usize, k0: usize, len: usize) -> &'a [f32] {
        &self.d[i * self.w + k0..][..len]
    }

    /// Element `(i, j)`.
    fn at(self, i: usize, j: usize) -> f32 {
        self.d[i * self.w + j]
    }
}

/// Columns `[j0, j0+w)` of a [`Rows`] matrix whose reduction runs down its
/// columns: row `kk` of the panel is what one outer-product step reads.
#[derive(Clone, Copy)]
struct Panel<'a> {
    src: Rows<'a>,
    j0: usize,
    w: usize,
}

impl<'a> Panel<'a> {
    #[inline]
    fn krow(self, kk: usize) -> &'a [f32] {
        self.src.seg(kk, self.j0, self.w)
    }
}

// The three `*_impl` kernels below and the register tiles `nn_tile` /
// `tn_tile` are `#[inline(never)]`: each stays a standalone function, so
// its register allocation cannot depend on what else its caller contains.
// (Measured, twice: inlined into a dispatching caller, the NN kernel served
// the benchmark's k = 1024 GEMMs ~1.8× slower; and with the NN tile left at
// `#[inline]`, one changed line in `nn_impl`'s remainder-row path was
// enough for LLVM to inline the tile, spill its accumulators, and cost
// `serve_mlp_sat` 1.7×.)

// ---------------------------------------------------------------------------
// The kernels. Every output element of every orientation is one chain
// `acc = +0.0; acc += a·b` in ascending `k` — no pairwise tree, no
// cross-element term — so a tile of any shape that advances its elements
// together down `k` produces the bits of the one-element-at-a-time triple
// loop (`crates/tensor/tests/proptests.rs` holds that loop as the oracle),
// whatever the element's row, column or neighbours.
//
// One data-dependent rule rides on top (`skip_rule`): the kernels these
// replaced skipped exact-zero `A` coefficients, which is visible only where
// a skipped `0·b` would have been NaN.
// ---------------------------------------------------------------------------

/// Rows of the NN register tile.
const MR: usize = 4;
/// Columns of the NN and TN register tiles.
const NR: usize = 32;

/// NN: `A` row quads stream past `NR`-column panels of `B`. The `m % MR`
/// rows left in the last shard stream whole rows of `B` instead
/// (`nn_rest`).
#[inline(never)]
fn nn_impl(a: Rows, b: Rows, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, MR, |row_start, c| {
            let quads = c.len() / n / MR * MR;
            let (c_quads, c_rest) = c.split_at_mut(quads * n);
            if quads > 0 {
                // Every quad passes each panel before the next one.
                for j0 in (0..n).step_by(NR) {
                    let bp = Panel {
                        src: b,
                        j0,
                        w: (n - j0).min(NR),
                    };
                    for (q, c_quad) in c_quads.chunks_exact_mut(MR * n).enumerate() {
                        let aq = std::array::from_fn(|r| a.seg(row_start + q * MR + r, 0, k));
                        if bp.w == NR {
                            nn_tile::<true>(&aq, bp, k, n, &mut c_quad[j0..]);
                        } else {
                            nn_tile::<false>(&aq, bp, k, n, &mut c_quad[j0..]);
                        }
                    }
                }
            }
            nn_rest(a, b, row_start + quads, k, n, c_rest);
        });
    }
    skip_rule(&mut out, n, k, |i, kk| a.at(i, kk), |kk, j| b.at(kk, j));
    Tensor::from_vec(vec![m, n], out)
}

/// One `MR×w` register tile (`w = b.w ≤ NR`). `FULL` promises `w == NR`:
/// the extents are then compile-time constants; a column-tail tile runs the
/// same loops with the zips cut short.
#[inline(never)]
#[allow(clippy::needless_range_loop)] // kk walks two operands in lockstep
fn nn_tile<const FULL: bool>(aq: &[&[f32]; MR], b: Panel, k: usize, n: usize, c: &mut [f32]) {
    let w = if FULL { NR } else { b.w };
    let aq = aq.map(|a_r| &a_r[..k]); // one bounds check, not one per step
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let brow = b.krow(kk);
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
/// advance together, in `c`, through whole rows of `B` streamed in storage
/// order.
fn nn_rest(a: Rows, b: Rows, i0: usize, k: usize, n: usize, c: &mut [f32]) {
    if c.is_empty() {
        return;
    }
    let rows = c.len() / n;
    // Slots past `rows` repeat the last row; the zip below never reads them.
    let ar: [&[f32]; MR] = std::array::from_fn(|r| a.seg(i0 + r.min(rows - 1), 0, k));
    for kk in 0..k {
        let brow = b.seg(kk, 0, n);
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
/// are recomputed under it, from `a(i, kk)` and `b(kk, j)`.
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
/// their low 12 address bits with the panels (about one process start in
/// thirty under ASLR), every panel load waits on a spill store and a
/// shallow-`k` TN runs 2.5× slower for the life of the process.
const TR: usize = 2;

/// NT: both operands store the reduction along their rows, so neither can
/// feed a lane-parallel tile as stored. The operand with *fewer* rows is
/// staged transposed, `KC` reduction steps at a time, into a `kc×L` panel;
/// the other operand's rows stream past it `RB` at a time.
#[inline(never)]
fn nt_impl(a: Rows, b: Rows, m: usize, k: usize, n: usize) -> Tensor {
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
fn nt_panels(
    s: Rows,
    s_rows: std::ops::Range<usize>,
    p: Rows,
    p_rows: std::ops::Range<usize>,
    k: usize,
    d: &mut [f32],
    (ss, ps): (usize, usize),
) {
    let mut panel = vec![0.0f32; k.min(KC) * NR];
    for p0 in p_rows.clone().step_by(NR) {
        let p_blk = p0..p_rows.end.min(p0 + NR);
        let d = &mut d[(p0 - p_rows.start) * ps..];
        let panel = &mut panel[..];
        match p_blk.len() {
            ..=8 => nt_panel::<8, 8>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), panel),
            9..=16 => nt_panel::<4, 16>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), panel),
            _ => nt_panel::<2, NR>(s, s_rows.clone(), p, p_blk, k, d, (ss, ps), panel),
        }
    }
}

/// One staged block of at most `L` `P` rows against every `S` row.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nt_panel<const RB: usize, const L: usize>(
    s: Rows,
    s_rows: std::ops::Range<usize>,
    p: Rows,
    p_blk: std::ops::Range<usize>,
    k: usize,
    d: &mut [f32],
    (ss, ps): (usize, usize),
    panel: &mut [f32],
) {
    let np = p_blk.len();
    if np < L {
        panel.fill(0.0); // idle lanes multiply zeros, and are never stored
    }
    for k0 in (0..k).step_by(KC) {
        let kc = (k - k0).min(KC);
        let panel = &mut panel[..kc * L];
        for (lane, pi) in p_blk.clone().enumerate() {
            for (dst, &v) in panel[lane..].iter_mut().step_by(L).zip(p.seg(pi, k0, kc)) {
                *dst = v;
            }
        }
        for s0 in s_rows.clone().step_by(RB) {
            let rs = (s_rows.end - s0).min(RB);
            // An edge block repeats its last row; those chains are not stored.
            let srows: [&[f32]; RB] =
                std::array::from_fn(|r| s.seg((s0 + r).min(s_rows.end - 1), k0, kc));
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
/// chunking; `C` is written once per tile.
#[inline(never)]
fn tn_impl(a: Rows, b: Rows, m: usize, k: usize, n: usize) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if n > 0 {
        shard_rows(&mut out, n, 2 * k * n, TR, |row_start, c| {
            let rows = c.len() / n;
            for j0 in (0..n).step_by(NR) {
                let bp = Panel {
                    src: b,
                    j0,
                    w: (n - j0).min(NR),
                };
                for r0 in (0..rows).step_by(TR) {
                    let ap = Panel {
                        src: a,
                        j0: row_start + r0,
                        w: (rows - r0).min(TR),
                    };
                    let c_tile = &mut c[r0 * n + j0..];
                    if ap.w == TR && bp.w == NR {
                        tn_tile::<true>(ap, bp, k, n, c_tile);
                    } else {
                        tn_tile::<false>(ap, bp, k, n, c_tile);
                    }
                }
            }
        });
    }
    skip_rule(&mut out, n, k, |i, kk| a.at(kk, i), |kk, j| b.at(kk, j));
    Tensor::from_vec(vec![m, n], out)
}

/// One `rw×w` outer-product tile (`rw = a.w ≤ TR`, `w = b.w ≤ NR`). `FULL`
/// promises `rw == TR && w == NR`: the extents are then compile-time
/// constants and the `TR·NR` accumulators stay in registers; edge tiles run
/// the same loops with the zips cut short.
#[inline(never)]
fn tn_tile<const FULL: bool>(a: Panel, b: Panel, k: usize, n: usize, c_tile: &mut [f32]) {
    let (rw, w) = if FULL { (TR, NR) } else { (a.w, b.w) };
    let mut acc = [[0.0f32; NR]; TR];
    for kk in 0..k {
        let (arow, brow) = (&a.krow(kk)[..rw], &b.krow(kk)[..w]);
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
    use rand::{Rng, SeedableRng};

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at2(i, p) * b.at2(p, j);
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn rand_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matches_naive_on_random() {
        for (m, k, n) in [(1, 1, 1), (3, 4, 5), (7, 13, 2), (16, 16, 16), (9, 34, 11)] {
            let a = rand_tensor(vec![m, k], 1);
            let b = rand_tensor(vec![k, n], 2);
            let fast = matmul(&a, &b);
            let slow = naive(&a, &b);
            for (x, y) in fast.data().iter().zip(slow.data()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let a = rand_tensor(vec![4, 6], 3);
        let b = rand_tensor(vec![5, 6], 4); // represents Bᵀ with B 6×5
        let via_nt = matmul_nt(&a, &b);
        let via_t = matmul(&a, &b.transpose2());
        for (x, y) in via_nt.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let a = rand_tensor(vec![6, 4], 5); // represents Aᵀ with A 4×6
        let b = rand_tensor(vec![6, 5], 6);
        let via_tn = matmul_tn(&a, &b);
        let via_t = matmul(&a.transpose2(), &b);
        for (x, y) in via_tn.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_tensor(vec![5, 5], 7);
        let mut eye = Tensor::zeros(vec![5, 5]);
        for i in 0..5 {
            eye.data_mut()[i * 5 + i] = 1.0;
        }
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn threaded_matches_sequential_bitwise() {
        use crate::parallel::{parallelism, set_parallelism, Parallelism};
        let saved = parallelism();
        // Big enough that the work-size heuristic actually shards.
        let a = rand_tensor(vec![101, 256], 11);
        let b = rand_tensor(vec![256, 67], 12);
        let bt = rand_tensor(vec![67, 256], 13);
        let at = rand_tensor(vec![256, 101], 14);
        set_parallelism(Parallelism::sequential());
        let (s1, s2, s3) = (matmul(&a, &b), matmul_nt(&a, &bt), matmul_tn(&at, &b));
        for workers in [2, 3, 8] {
            set_parallelism(Parallelism::new(workers));
            assert_eq!(matmul(&a, &b), s1, "matmul, {workers} workers");
            assert_eq!(matmul_nt(&a, &bt), s2, "matmul_nt, {workers} workers");
            assert_eq!(matmul_tn(&at, &b), s3, "matmul_tn, {workers} workers");
        }
        set_parallelism(saved);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = matmul(&a, &b);
    }
}
