//! BFP dot products.
//!
//! Implements the two equivalent evaluation strategies of the paper:
//!
//! * [`dot_f32`] — the direct form of Fig 5: one integer multiply-accumulate
//!   over the mantissas plus a single shared-exponent addition.
//! * [`dot_chunked`] — the fMAC's variable-precision form of Fig 13: one
//!   pass per pair of 2-bit chunks, each pass an integer dot product
//!   accumulated into a floating-point register with the pass exponent
//!   decremented by 2 per chunk position.
//!
//! The two are bit-identical (tested). Whether the workspace's GEMMs compute
//! what an fMAC would is a separate question: the `fmac-int-kernel` claim of
//! the `paper` ledger (`fast_bench::claims`, DESIGN.md §4) answers it for the
//! integer-domain kernels, whose per-group sums and FP32 accumulation match
//! `fast_hw::FmacCell` bit for bit.

use crate::chunk::ChunkedGroup;
use crate::group::BfpGroup;

/// Result of a chunk-serial fMAC dot product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkedDot {
    /// The dot-product value.
    pub value: f32,
    /// Number of fMAC passes consumed: `chunks(a) * chunks(b)`
    /// (paper Section V-B: a 4-bit × 4-bit product takes 4 passes).
    pub passes: usize,
}

/// Computes the dot product of two BFP groups exactly (paper Fig 5):
/// `sum_i Ma_i * Mb_i` in integer arithmetic, scaled by
/// `2^(Ea + Eb - ma - mb + 2)`.
///
/// # Panics
///
/// Panics if the groups have different lengths.
pub fn dot_f32(a: &BfpGroup, b: &BfpGroup) -> f32 {
    let (sum, exp) = dot_parts(a, b);
    (sum as f64 * 2.0f64.powi(exp)) as f32
}

/// Exposes the intermediate integer sum and the combined exponent of a BFP
/// dot product, before the final FP normalization.
///
/// `value = sum * 2^exp`.
///
/// # Panics
///
/// Panics if the groups have different lengths.
pub fn dot_parts(a: &BfpGroup, b: &BfpGroup) -> (i64, i32) {
    assert_eq!(a.len(), b.len(), "dot product requires equal group lengths");
    let sum: i64 = a
        .mantissas()
        .iter()
        .zip(b.mantissas())
        .map(|(&x, &y)| x as i64 * y as i64)
        .sum();
    let exp = a.shared_exponent() + b.shared_exponent()
        - a.format().mantissa_bits() as i32
        - b.format().mantissa_bits() as i32
        + 2;
    (sum, exp)
}

/// Computes the dot product of two dequantized groups in f32 — the
/// "software reference" used to validate that fake quantization plus f32
/// accumulation reproduces hardware BFP arithmetic.
///
/// # Panics
///
/// Panics if the groups have different lengths.
pub fn dot_dequantized(a: &BfpGroup, b: &BfpGroup) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product requires equal group lengths");
    let av = a.dequantize();
    let bv = b.dequantize();
    let mut acc = 0.0f64;
    for (x, y) in av.iter().zip(&bv) {
        acc += (*x as f64) * (*y as f64);
    }
    acc as f32
}

/// Computes the dot product chunk-serially, as the fMAC executes it
/// (paper Fig 13): for every pair of 2-bit chunks `(ca, cb)` one integer
/// pass runs, whose partial sum is accumulated at exponent
/// `Ea + Eb + 2 - 2*(ca + cb + 2)`.
///
/// Returns both the value and the number of passes, which is the quantity
/// the systolic-array cycle model charges for variable-precision work.
///
/// # Panics
///
/// Panics if the groups have different lengths.
pub fn dot_chunked(a: &ChunkedGroup, b: &ChunkedGroup) -> ChunkedDot {
    assert_eq!(a.len(), b.len(), "dot product requires equal group lengths");
    let mut acc = 0.0f64;
    let mut passes = 0usize;
    let base_exp = a.shared_exponent() + b.shared_exponent() + 2;
    for ca in 0..a.chunk_count() {
        for cb in 0..b.chunk_count() {
            passes += 1;
            let mut partial: i64 = 0;
            let ac = a.chunk(ca);
            let bc = b.chunk(cb);
            for i in 0..a.len() {
                let sa = if a.signs()[i] { -1i64 } else { 1 };
                let sb = if b.signs()[i] { -1i64 } else { 1 };
                partial += sa * sb * (ac[i] as i64) * (bc[i] as i64);
            }
            let exp = base_exp - 2 * (ca as i32 + cb as i32 + 2);
            acc += partial as f64 * 2.0f64.powi(exp);
        }
    }
    ChunkedDot {
        value: acc as f32,
        passes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::BfpFormat;

    fn fmt(g: usize, m: u32) -> BfpFormat {
        BfpFormat::new(g, m, 8).unwrap()
    }

    #[test]
    fn fig5_worked_example() {
        // Paper Fig 5: mantissas (14, -2, -7, 1) . (4, -9, 11, 0) with
        // shared exponents 2 and 4 (in value terms 2^2 and 2^4 blocks).
        // Integer part: 14*4 + (-2)(-9) + (-7)(11) + 0 = 56 + 18 - 77 = -3.
        let a = BfpGroup::from_parts(fmt(4, 5), 2, vec![14, -2, -7, 1]);
        let b = BfpGroup::from_parts(fmt(4, 5), 4, vec![4, -9, 11, 0]);
        let (sum, exp) = dot_parts(&a, &b);
        assert_eq!(sum, -3);
        // exp = 2 + 4 - 5 - 5 + 2 = -2.
        assert_eq!(exp, -2);
        assert_eq!(dot_f32(&a, &b), -3.0 * 0.25);
    }

    #[test]
    fn integer_dot_equals_dequantized_dot() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for m in [2u32, 4, 6, 8] {
            for _ in 0..50 {
                let f = fmt(16, m);
                let xs: Vec<f32> = (0..16).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let ys: Vec<f32> = (0..16).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let a = BfpGroup::quantize_nearest(&xs, f);
                let b = BfpGroup::quantize_nearest(&ys, f);
                assert_eq!(dot_f32(&a, &b), dot_dequantized(&a, &b), "m={m}");
            }
        }
    }

    #[test]
    fn chunked_dot_is_bit_identical_to_direct_dot() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for (ma, mb) in [(2u32, 2u32), (2, 4), (4, 2), (4, 4), (6, 4), (8, 8)] {
            for _ in 0..30 {
                let xs: Vec<f32> = (0..16).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let ys: Vec<f32> = (0..16).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let a = BfpGroup::quantize_nearest(&xs, fmt(16, ma));
                let b = BfpGroup::quantize_nearest(&ys, fmt(16, mb));
                let ca = ChunkedGroup::from_group(&a).unwrap();
                let cb = ChunkedGroup::from_group(&b).unwrap();
                let chunked = dot_chunked(&ca, &cb);
                assert_eq!(chunked.value, dot_f32(&a, &b), "ma={ma} mb={mb}");
                assert_eq!(chunked.passes, (ma as usize / 2) * (mb as usize / 2));
            }
        }
    }

    #[test]
    fn pass_counts_match_paper_examples() {
        // Paper: 2-bit x 4-bit -> 2 passes; 4-bit x 4-bit -> 4 passes.
        let a2 = BfpGroup::from_parts(fmt(2, 2), 0, vec![1, 2]);
        let a4 = BfpGroup::from_parts(fmt(2, 4), 0, vec![1, 2]);
        let c2 = ChunkedGroup::from_group(&a2).unwrap();
        let c4 = ChunkedGroup::from_group(&a4).unwrap();
        assert_eq!(dot_chunked(&c2, &c4).passes, 2);
        assert_eq!(dot_chunked(&c4, &c4).passes, 4);
        assert_eq!(dot_chunked(&c2, &c2).passes, 1);
    }

    #[test]
    fn zero_groups_dot_to_zero() {
        let a = BfpGroup::from_parts(fmt(4, 4), 0, vec![0; 4]);
        let b = BfpGroup::from_parts(fmt(4, 4), 5, vec![3, -3, 1, 2]);
        assert_eq!(dot_f32(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal group lengths")]
    fn mismatched_lengths_panic() {
        let a = BfpGroup::from_parts(fmt(4, 4), 0, vec![1, 2, 3, 4]);
        let b = BfpGroup::from_parts(fmt(4, 4), 0, vec![1, 2]);
        let _ = dot_f32(&a, &b);
    }
}
