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
//! BFP groups in the fMAC (paper Section V-B).
//!
//! The kernels are register/cache tiled and shard output row panels across
//! scoped worker threads per the process-wide [`crate::Parallelism`]
//! setting. What fixes the result bits differs by orientation (DESIGN.md §7):
//!
//! * [`matmul`] (and [`matmul_bt`], which replays it from the transposed
//!   layout) mixes three summation trees by *region* — serial chains in the
//!   4×32 register tiles, serial chains with a zero skip in the column
//!   tail, eight-wide pairwise trees on `m % 4` remainder rows — a function
//!   of position and shape alone, with panels split at micro-kernel
//!   granularity, so the same for every worker count.
//! * [`matmul_nt`] and [`matmul_tn`] have one tree everywhere: each element
//!   is the serial chain `acc = 0.0; acc += a·b` in ascending `k`, so a tile
//!   that gives every element its own accumulator cannot move a bit however
//!   it is shaped, chunked along `k`, or sharded. Both are the all-dense
//!   instantiations of `nt_impl` / `tn_impl` in [`crate::qgemm`].
//!
//! `tests/proptests.rs` pins both: worker-count independence, and the
//! backward orientations against a naive triple loop.

use crate::parallel::shard_rows;
use crate::qgemm::{nt_impl, tn_impl, DensePanel, DenseRows};
use crate::tensor::Tensor;

/// `C (m×n) = A (m×k) · B (k×n)`.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(ka, kb, "matmul inner dimensions disagree: {ka} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    shard_rows(&mut out, n, 2 * ka * n, MR, |row_start, panel| {
        let mut ri = 0;
        let rows = panel.len() / n;
        while ri + MR <= rows {
            let i = row_start + ri;
            let a_quad = |r: usize| &ad[(i + r) * ka..(i + r) * ka + ka];
            micro_tile(
                [a_quad(0), a_quad(1), a_quad(2), a_quad(3)],
                bd,
                n,
                &mut panel[ri * n..(ri + MR) * n],
            );
            ri += MR;
        }
        while ri < rows {
            let a_row = &ad[(row_start + ri) * ka..(row_start + ri) * ka + ka];
            accumulate_row(&mut panel[ri * n..(ri + 1) * n], a_row, bd, n);
            ri += 1;
        }
    });
    Tensor::from_vec(vec![m, n], out)
}

/// Micro-kernel row height (output rows per register tile).
pub(crate) const MR: usize = 4;
/// Micro-kernel column width (output columns per register tile).
pub(crate) const NR: usize = 32;
/// [`matmul_bt`] column-block width (independent dot chains per row).
pub(crate) const JB: usize = 8;

/// Register-blocked `MR×NR` tile: `MR` output rows advance together down
/// the whole reduction, sharing each B row load; the `MR·NR` accumulators
/// live in registers, so C is touched once per tile instead of once per
/// reduction block. Each accumulator sums its products in ascending-`k`
/// order. Column remainders fall back to [`accumulate_row`] per row.
#[inline]
fn micro_tile(a: [&[f32]; MR], bd: &[f32], n: usize, c_quad: &mut [f32]) {
    let k = a[0].len();
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..k {
            let b = &bd[kk * n + j0..kk * n + j0 + NR];
            for r in 0..MR {
                let ar = a[r][kk];
                for (x, acc_rx) in acc[r].iter_mut().enumerate() {
                    *acc_rx += ar * b[x];
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let c = &mut c_quad[r * n + j0..r * n + j0 + NR];
            for (cx, &ax) in c.iter_mut().zip(acc_r) {
                *cx += ax;
            }
        }
        j0 += NR;
    }
    if j0 < n {
        for r in 0..MR {
            accumulate_tail(&mut c_quad[r * n + j0..(r + 1) * n], a[r], bd, n, j0);
        }
    }
}

/// Scalar column-tail update: `c_row[j0..] += Σ_k a[k] · b_row(k)[j0..]`.
fn accumulate_tail(c_tail: &mut [f32], a: &[f32], bd: &[f32], n: usize, j0: usize) {
    for (kk, &ak) in a.iter().enumerate() {
        if ak != 0.0 {
            let b_tail = &bd[kk * n + j0..(kk + 1) * n];
            for (c, &bv) in c_tail.iter_mut().zip(b_tail) {
                *c += ak * bv;
            }
        }
    }
}

/// `c_row += Σ_k a[k] · b_row(k)` with the reduction blocked four wide;
/// products are added in ascending-`k` order. Blocks of four zero
/// coefficients are skipped (BFP-quantized operands are sparse).
#[inline]
fn accumulate_row(c_row: &mut [f32], a: &[f32], bd: &[f32], n: usize) {
    let c_row = &mut c_row[..n];
    let k = a.len();
    let mut kk = 0;
    while kk + 8 <= k {
        let ab = &a[kk..kk + 8];
        if ab.iter().any(|&v| v != 0.0) {
            let b0 = &bd[kk * n..kk * n + n];
            let b1 = &bd[(kk + 1) * n..(kk + 1) * n + n];
            let b2 = &bd[(kk + 2) * n..(kk + 2) * n + n];
            let b3 = &bd[(kk + 3) * n..(kk + 3) * n + n];
            let b4 = &bd[(kk + 4) * n..(kk + 4) * n + n];
            let b5 = &bd[(kk + 5) * n..(kk + 5) * n + n];
            let b6 = &bd[(kk + 6) * n..(kk + 6) * n + n];
            let b7 = &bd[(kk + 7) * n..(kk + 7) * n + n];
            for j in 0..n {
                // Fixed pairwise reduction: three-deep adder tree instead of
                // an eight-long serial chain (same tree on every path, so
                // results are deterministic and worker-count-independent).
                let s01 = ab[0] * b0[j] + ab[1] * b1[j];
                let s23 = ab[2] * b2[j] + ab[3] * b3[j];
                let s45 = ab[4] * b4[j] + ab[5] * b5[j];
                let s67 = ab[6] * b6[j] + ab[7] * b7[j];
                c_row[j] += (s01 + s23) + (s45 + s67);
            }
        }
        kk += 8;
    }
    while kk < k {
        let aik = a[kk];
        if aik != 0.0 {
            let b_row = &bd[kk * n..kk * n + n];
            for (c, &bv) in c_row.iter_mut().zip(b_row) {
                *c += aik * bv;
            }
        }
        kk += 1;
    }
}

/// `C (m×n) = A (m×k) · B (k×n)` with `B` supplied **pre-transposed** as an
/// `n×k` tensor — **bit-identical** to `matmul(a, b)`.
///
/// [`matmul_nt`] computes the same product from the same layout but with
/// its own (backward-kernel) summation trees; this kernel instead replays
/// [`matmul`]'s exact per-element arithmetic so callers can swap operand
/// layouts without changing a single result bit (pinned by
/// `tests/proptests.rs`). The frozen-inference conv path uses it with
/// `im2row` patches, where narrow-`n` GEMMs become contiguous dot products
/// instead of [`matmul`]'s strided column tails.
///
/// Why the bits match, region by region (including non-finite operands —
/// [`matmul`] skips exact-zero coefficients in its column *tail* but not in
/// its full 32-column tiles, which matters when a skipped `0.0` would have
/// met an `∞`/`NaN`):
///
/// * full-4-row blocks, columns inside `matmul`'s full-tile region
///   (`j < (n / 32) * 32`): serial ascending-`k` chains with **no** skip,
///   exactly like `micro_tile`'s register tile;
/// * full-4-row blocks, tail columns: serial ascending-`k` chains that
///   skip `a == 0.0` coefficients, exactly like `accumulate_tail`;
/// * remainder rows (`m % 4`): `accumulate_row`'s eight-wide pairwise
///   reduction tree, replayed verbatim by `tree_dot`.
///
/// The tail skip is mirrored literally only when `B` contains non-finite
/// values (detected by one scan); for finite `B` the skip is an exact
/// no-op, so the branch-free tile serves the hot path.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul_bt(a: &Tensor, bt: &Tensor) -> Tensor {
    let (m, ka) = dims2(a, "A");
    let (n, kb) = dims2(bt, "Bᵀ");
    assert_eq!(ka, kb, "matmul_bt inner dimensions disagree: {ka} vs {kb}");
    // Columns below this bound sit in matmul's full-NR-tile region (no
    // zero-coefficient skip); columns at or above it are its tail (skip).
    let n_full = (n / NR) * NR;
    // The tail's skip is *observable* only when a skipped `0.0` coefficient
    // would have met a non-finite B value (0·∞ = NaN); for finite B a
    // skipped `±0.0` product is an exact no-op, because an accumulator that
    // starts at `+0.0` can never become `-0.0` (IEEE-754 round-to-nearest
    // yields `-0.0` only when both addends are `-0.0`). So scan B once and
    // keep the branch-free tile on the hot path; the literal skip-mirroring
    // loops only run for non-finite B.
    let b_all_finite = n_full == n || m < MR || bt.data().iter().all(|v| v.is_finite());
    let mut out = vec![0.0f32; m * n];
    let (ad, btd) = (a.data(), bt.data());
    shard_rows(&mut out, n, 2 * ka * n, MR, |row_start, panel| {
        let rows = panel.len() / n;
        let mut ri = 0;
        while ri + MR <= rows {
            let i = row_start + ri;
            let a_row = |r: usize| &ad[(i + r) * ka..(i + r) * ka + ka];
            let a = [a_row(0), a_row(1), a_row(2), a_row(3)];
            let c_quad = &mut panel[ri * n..(ri + MR) * n];
            // MR×JB register tiles: every accumulator is an independent
            // serial ascending-k chain (the same per-element order as
            // matmul's paths), and 32 live chains hide the f32 add latency
            // that a lone dot product would serialize on. JB divides NR, so
            // each tile falls wholly inside the full-tile or tail region.
            let mut j0 = 0;
            while j0 + JB <= n {
                if b_all_finite || j0 + JB <= n_full {
                    bt_quad_tile::<false>(&a, btd, ka, n, j0, c_quad);
                } else {
                    bt_quad_tile::<true>(&a, btd, ka, n, j0, c_quad);
                }
                j0 += JB;
            }
            for j in j0..n {
                // Column singles are always in the tail region (skip mode,
                // unless finite B makes the skip unobservable).
                let bj = &btd[j * ka..j * ka + ka];
                let mut s = [0.0f32; MR];
                for p in 0..ka {
                    let bv = bj[p];
                    for (r, s_r) in s.iter_mut().enumerate() {
                        let ar = a[r][p];
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
        while ri < rows {
            let a_row = &ad[(row_start + ri) * ka..(row_start + ri) * ka + ka];
            let c_row = &mut panel[ri * n..(ri + 1) * n];
            for (j, c) in c_row.iter_mut().enumerate() {
                *c = tree_dot(a_row, &btd[j * ka..j * ka + ka]);
            }
            ri += 1;
        }
    });
    Tensor::from_vec(vec![m, n], out)
}

/// One `MR×JB` register tile of [`matmul_bt`]'s full-4-row path, starting
/// at column `j0`. `SKIP` mirrors which of [`matmul`]'s column regions the
/// tile lies in: `false` replays the full-tile (no zero skip) arithmetic,
/// `true` replays [`accumulate_tail`]'s per-coefficient `a == 0.0` skip.
/// Monomorphized so the no-skip serving path stays branch-free.
#[inline]
fn bt_quad_tile<const SKIP: bool>(
    a: &[&[f32]; MR],
    btd: &[f32],
    ka: usize,
    n: usize,
    j0: usize,
    c_quad: &mut [f32],
) {
    let bj: [&[f32]; JB] = std::array::from_fn(|jj| &btd[(j0 + jj) * ka..(j0 + jj) * ka + ka]);
    let mut acc = [[0.0f32; JB]; MR];
    for p in 0..ka {
        let bvs: [f32; JB] = std::array::from_fn(|jj| bj[jj][p]);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = a[r][p];
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

/// [`accumulate_row`]'s eight-wide pairwise reduction, replayed as a dot
/// product over contiguous slices (for [`matmul_bt`]'s remainder rows and
/// the packed-operand kernels of [`crate::qgemm`]).
#[inline]
pub(crate) fn tree_dot(a: &[f32], b: &[f32]) -> f32 {
    let k = a.len();
    let mut acc = 0.0f32;
    let mut kk = 0;
    while kk + 8 <= k {
        let ab = &a[kk..kk + 8];
        if ab.iter().any(|&v| v != 0.0) {
            let bb = &b[kk..kk + 8];
            let s01 = ab[0] * bb[0] + ab[1] * bb[1];
            let s23 = ab[2] * bb[2] + ab[3] * bb[3];
            let s45 = ab[4] * bb[4] + ab[5] * bb[5];
            let s67 = ab[6] * bb[6] + ab[7] * bb[7];
            acc += (s01 + s23) + (s45 + s67);
        }
        kk += 8;
    }
    while kk < k {
        if a[kk] != 0.0 {
            acc += a[kk] * b[kk];
        }
        kk += 1;
    }
    acc
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
    let (ar, br) = (
        DenseRows { d: a.data(), w: ka },
        DenseRows { d: b.data(), w: ka },
    );
    nt_impl(&ar, &br, m, ka, n)
}

/// `C (m×n) = Aᵀ · B` where `A` is stored as `k×m` and `B` as `k×n`. Every
/// element is the serial ascending-`k` chain `acc = 0.0; acc += a·b`; only
/// when `B` holds a non-finite value does a chain also skip exact-zero `A`
/// coefficients — whole aligned blocks of four, and single steps of the
/// `k % 4` tail — which is then visible as `0·∞` terms left out.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(ka, kb, "matmul_tn inner dimensions disagree: {ka} vs {kb}");
    let (ap, bp) = (
        DensePanel { d: a.data(), n: m },
        DensePanel { d: b.data(), n },
    );
    tn_impl(&ap, &bp, m, ka, n)
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
    fn bt_is_bit_identical_to_matmul() {
        // Cross the NR=32 column boundary, the MR=4 row remainder, and the
        // 8-wide reduction blocking; include exact zeros (BFP operands are
        // sparse) to exercise the skip paths.
        for (m, k, n) in [
            (4, 576, 4),
            (1, 9, 40),
            (7, 13, 2),
            (64, 72, 256),
            (9, 34, 33),
            (5, 8, 31),
            (3, 17, 1),
        ] {
            let mut a = rand_tensor(vec![m, k], (m * k + n) as u64);
            let b = rand_tensor(vec![k, n], (m + k * n) as u64);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 5 == 0 {
                    *v = 0.0;
                }
            }
            assert_eq!(
                matmul_bt(&a, &b.transpose2()),
                matmul(&a, &b),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn bt_matches_matmul_bitwise_with_nonfinite_operands() {
        // 0·∞ = NaN makes matmul's zero-coefficient skip observable, so
        // matmul_bt must skip in exactly the same column regions. Cover
        // tail-only (n < 32), full-tile + tail (n > 32), and remainder rows.
        for (m, k, n) in [(4, 40, 4), (5, 17, 40), (8, 9, 33), (3, 20, 8)] {
            let mut a = rand_tensor(vec![m, k], 77);
            for (i, v) in a.data_mut().iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
            }
            let mut b = rand_tensor(vec![k, n], 78);
            for (i, v) in b.data_mut().iter_mut().enumerate() {
                if i % 7 == 0 {
                    *v = f32::INFINITY;
                } else if i % 11 == 0 {
                    *v = f32::NAN;
                }
            }
            let want = matmul(&a, &b);
            let got = matmul_bt(&a, &b.transpose2());
            // NaNs compare by NaN-ness: the payload and sign a NaN product
            // inherits depend on the operand order the optimizer picks.
            for (idx, (x, y)) in want.data().iter().zip(got.data()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "({m},{k},{n}) elem {idx}: {x} vs {y}"
                );
            }
        }
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
