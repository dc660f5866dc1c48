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
//! setting. One rule fixes the result bits in all three (DESIGN.md §7):
//! each element is the serial chain `acc = 0.0; acc += a·b` in ascending
//! `k`, so a tile that gives every element its own accumulator cannot move
//! a bit however it is shaped, chunked along `k`, or sharded — and an
//! output row does not depend on which other rows share the GEMM. Each
//! function is the all-dense instantiation of `nn_impl` / `nt_impl` /
//! `tn_impl` in [`crate::qgemm`].
//!
//! `tests/proptests.rs` pins all three against a naive triple loop, for
//! every worker count.

use crate::qgemm::{nn_impl, nt_impl, tn_impl, Dense};
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
    nn_impl(&Dense::of(a), &Dense::of(b), m, ka, n)
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
    nt_impl(&Dense::of(a), &Dense::of(b), m, ka, n)
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
    tn_impl(&Dense::of(a), &Dense::of(b), m, ka, n)
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
