//! The packed×packed GEMM reference: the integer kernels' definition,
//! written over nothing but `PackedMat::{mantissa, scale}` (shared by
//! `fast_tensor`'s and `fast_nn`'s proptests).
//!
//! Every output element starts at `acc = +0.0`. The reduction axis splits
//! into segments that start at every group boundary of either operand, so
//! one scale of each side covers a whole segment. Per segment in ascending
//! order, the mantissa products are summed exactly in `i64` and
//! `acc += (sa·sb) · (sum as f32)`.

use fast_tensor::qgemm::{Orient, PackLayout, PackedMat};

/// Mantissa and scale of stored element `(i, j)`, through the layout's
/// index accessors.
fn parts(p: &PackedMat, i: usize, j: usize) -> (i64, f32) {
    (i64::from(p.mantissa(i, j)), p.scale(i, j))
}

/// The `m × n` product of `a` and `b` in orientation `orient`, row-major.
///
/// # Panics
///
/// Panics unless both operands group along the reduction axis (the pairs
/// the integer kernels take).
pub fn segment_product(orient: Orient, a: &PackedMat, b: &PackedMat) -> Vec<f32> {
    use PackLayout::{ColGroups, RowGroups};
    let (layouts, m, k, n) = match orient {
        Orient::Nn => ((RowGroups, ColGroups), a.rows(), a.cols(), b.cols()),
        Orient::Nt => ((RowGroups, RowGroups), a.rows(), a.cols(), b.rows()),
        Orient::Tn => ((ColGroups, ColGroups), a.cols(), a.rows(), b.cols()),
    };
    assert_eq!(
        (a.layout(), b.layout()),
        layouts,
        "{orient:?}: groups off the reduction axis"
    );
    // Element `(i, p)` of op(A) and `(p, j)` of op(B), `p` on the reduction axis.
    let a_at = |i, p| match orient {
        Orient::Tn => parts(a, p, i),
        _ => parts(a, i, p),
    };
    let b_at = |p, j| match orient {
        Orient::Nt => parts(b, j, p),
        _ => parts(b, p, j),
    };
    let (ga, gb) = (a.group(), b.group());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            let mut p = 0;
            while p < k {
                let end = ((p / ga + 1) * ga).min((p / gb + 1) * gb).min(k);
                let sum: i64 = (p..end).map(|q| a_at(i, q).0 * b_at(q, j).0).sum();
                acc += (a_at(i, p).1 * b_at(p, j).1) * sum as f32;
                p = end;
            }
            out[i * n + j] = acc;
        }
    }
    out
}
