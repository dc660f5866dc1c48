//! Matrix-level grouped quantization and the FAST relative-improvement
//! statistic `r(X)` (paper Eq. 2).
//!
//! DNN tensors are quantized in groups of `g` along the *reduction*
//! dimension of the GEMM that will consume them, matching how a systolic
//! fMAC cell ingests operand vectors. "Fake quantization" writes the
//! dequantized BFP values back over the f32 buffer; because products of
//! two ≤16-bit mantissas are exact in f32 and hardware accumulates in FP32,
//! a fake-quantized f32 GEMM is bit-faithful to the fMAC pipeline (see
//! `dot::tests::chunked_dot_is_bit_identical_to_direct_dot`).
//!
//! The quantization entry points themselves — [`crate::fake_quantize_slice`]
//! and [`crate::fake_quantize_matrix`] — live in [`crate::kernel`]; this
//! module holds the vocabulary they share ([`GroupAxis`], [`QuantStats`])
//! and the `r(X)` statistic.

use crate::format::BfpFormat;
use crate::group::BfpGroup;

/// Which way quantization groups run through a row-major matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAxis {
    /// Groups are consecutive elements *within a row* (along the column
    /// index) — the layout for the left GEMM operand `A (M×K)`.
    AlongRow,
    /// Groups are consecutive elements *within a column* (along the row
    /// index) — the layout for the right GEMM operand `B (K×N)`.
    AlongCol,
}

/// Aggregate statistics from a quantization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantStats {
    /// Number of BFP groups formed.
    pub groups: usize,
    /// Values whose mantissa saturated at `2^m - 1`.
    pub saturated: u64,
    /// Values quantized to exactly zero (underflow / shifted out).
    pub zeros: u64,
}

impl QuantStats {
    /// Folds another pass's counters into this one (the accumulation the
    /// quantized-GEMM plan performs across operand preparations).
    pub fn merge(&mut self, other: QuantStats) {
        self.groups += other.groups;
        self.saturated += other.saturated;
        self.zeros += other.zeros;
    }
}

/// Computes the FAST relative improvement `r(X)` of paper Eq. 2:
///
/// ```text
/// r(X) = Σ |BFP(Xn,4) − BFP(Xn,2)| / Σ |BFP(Xn,2)|
/// ```
///
/// As in the hardware (Section V-D), the 2-bit quantization is the 4-bit
/// quantization with its low-order chunk discarded, so the numerator is the
/// total magnitude carried by the discarded chunks.
///
/// Returns `0.0` for an all-zero tensor and `f32::INFINITY` when the 2-bit
/// representation is entirely zero but the 4-bit one is not (the improvement
/// from the extra bits is then unbounded).
pub fn relative_improvement(values: &[f32], group_size: usize) -> f32 {
    assert!(group_size > 0, "group size must be positive");
    let fmt4 = BfpFormat::new(group_size, 4, 8).expect("static format is valid");
    let mut numer = 0.0f64;
    let mut denom = 0.0f64;
    for chunk in values.chunks(group_size) {
        let g4 = BfpGroup::quantize_nearest(chunk, fmt4);
        // ulp of the 4-bit representation: 2^(E - 3).
        let ulp4 = g4.scale();
        for &m in g4.mantissas() {
            let mag = m.unsigned_abs();
            let low = (mag & 0b11) as f64;
            let high = (mag >> 2) as f64;
            numer += low * ulp4;
            denom += high * 4.0 * ulp4;
        }
    }
    if denom == 0.0 {
        if numer == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        (numer / denom) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{fake_quantize_matrix, fake_quantize_slice, Noise};
    use crate::lfsr::{BitSource, RngBits};
    use crate::rounding::Rounding;
    use rand::{Rng, SeedableRng};

    struct NoBits;
    impl BitSource for NoBits {
        fn next_bits(&mut self, _n: u32) -> u32 {
            unreachable!()
        }
    }

    #[test]
    fn slice_quantization_reduces_to_group_quantization() {
        let fmt = BfpFormat::new(4, 4, 8).unwrap();
        let mut xs = vec![1.0f32, 0.5, 0.25, 0.125, 8.0, 4.0, 2.0, 1.0];
        let expect: Vec<f32> = xs
            .chunks(4)
            .flat_map(|c| BfpGroup::quantize_nearest(c, fmt).dequantize())
            .collect();
        fake_quantize_slice(
            &mut xs,
            fmt,
            Rounding::Nearest,
            Noise::Stream(&mut NoBits),
            None,
        );
        assert_eq!(xs, expect);
    }

    #[test]
    fn partial_final_group_is_handled() {
        let fmt = BfpFormat::new(4, 4, 8).unwrap();
        let mut xs = vec![1.0f32; 7];
        let stats = fake_quantize_slice(
            &mut xs,
            fmt,
            Rounding::Nearest,
            Noise::Stream(&mut NoBits),
            None,
        );
        assert_eq!(stats.groups, 2);
        assert!(xs.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn along_col_groups_match_transposed_along_row() {
        let fmt = BfpFormat::new(4, 3, 8).unwrap();
        let rows = 8;
        let cols = 5;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();

        let mut a = data.clone();
        fake_quantize_matrix(
            &mut a,
            rows,
            cols,
            GroupAxis::AlongCol,
            fmt,
            Rounding::Nearest,
            Noise::Stream(&mut NoBits),
            false,
        );

        // Transpose, quantize along rows, transpose back.
        let mut t = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = data[r * cols + c];
            }
        }
        fake_quantize_matrix(
            &mut t,
            cols,
            rows,
            GroupAxis::AlongRow,
            fmt,
            Rounding::Nearest,
            Noise::Stream(&mut NoBits),
            false,
        );
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(a[r * cols + c], t[c * rows + r]);
            }
        }
    }

    #[test]
    fn stats_count_zeros_and_saturation() {
        let fmt = BfpFormat::new(4, 2, 8).unwrap();
        // Group: max 1.0 -> scale 2; 1.0->2, 1.6->3.2->3(sat),
        // 0.1->0.2->0 (zero), 0.5->1.
        let mut xs = vec![1.0f32, 1.6, 0.1, 0.5];
        let stats = fake_quantize_slice(
            &mut xs,
            fmt,
            Rounding::Nearest,
            Noise::Stream(&mut NoBits),
            None,
        );
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.saturated, 1);
        assert_eq!(stats.zeros, 1);
    }

    #[test]
    fn relative_improvement_zero_for_exactly_representable() {
        // Values already exact at m=2 have no low-chunk mass.
        let xs = vec![1.0f32, 0.5, -1.0, 0.5, 1.0, -0.5, 1.0, 0.5];
        let r = relative_improvement(&xs, 8);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn relative_improvement_positive_for_fine_structure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let xs: Vec<f32> = (0..64).map(|_| rng.gen_range(0.5f32..1.0)).collect();
        let r = relative_improvement(&xs, 16);
        assert!(r > 0.0 && r.is_finite());
        // The discarded chunk is at most 3 ulps against a denominator of at
        // least 4 ulps per nonzero value, so r is bounded well below 1 for
        // same-scale data.
        assert!(r < 0.75, "r = {r}");
    }

    #[test]
    fn relative_improvement_matches_direct_eq2_evaluation() {
        // Cross-check against a literal evaluation of Eq. 2 using
        // truncate_to(2) as BFP(X, 2).
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let xs: Vec<f32> = (0..48).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let g = 16;
        let fmt4 = BfpFormat::new(g, 4, 8).unwrap();
        let mut numer = 0.0f64;
        let mut denom = 0.0f64;
        for chunk in xs.chunks(g) {
            let q4 = BfpGroup::quantize_nearest(chunk, fmt4);
            let q2 = q4.truncate_to(2);
            for i in 0..q4.len() {
                numer += (q4.value(i) as f64 - q2.value(i) as f64).abs();
                denom += (q2.value(i) as f64).abs();
            }
        }
        let want = (numer / denom) as f32;
        let got = relative_improvement(&xs, g);
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn relative_improvement_infinite_when_low_precision_is_blind() {
        // All mass in the low chunk: magnitudes quantize to <4 at m=4 within
        // a group dominated by one large value.
        let xs = vec![1.0f32, 0.05, 0.05, 0.05];
        // m=4: scale 8; 0.05*8=0.4 -> 0; 1.0 -> 8 -> high chunk 2 -> finite.
        let r = relative_improvement(&xs, 4);
        assert!(r.is_finite());
        // Construct a truly blind case: single tiny group far below 4 ulps.
        let ys = vec![0.2f32, 0.2, 0.2, 0.3];
        // max exp = -2 (0.3 -> [0.25,0.5)); scale = 2^(3-(-2)) = 32;
        // 0.3*32 = 9.6 -> 10 -> high chunk 2: still finite. Denominator only
        // vanishes when *all* magnitudes < 4, i.e. all values < 4 ulps.
        let r2 = relative_improvement(&ys, 4);
        assert!(r2.is_finite());
        let zs = vec![0.26f32, 0.14, 0.07, 0.03];
        // max exp -2, scale 32: mags 8,4,2,1 -> high chunks 2,1,0,0: finite.
        assert!(relative_improvement(&zs, 4).is_finite());
        // All-zero input.
        assert_eq!(relative_improvement(&[0.0; 8], 4), 0.0);
    }

    #[test]
    fn stochastic_matrix_quantization_is_reproducible_per_seed() {
        let fmt = BfpFormat::new(8, 4, 8).unwrap();
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |seed: u64| {
            let mut data = xs.clone();
            let mut bits = RngBits(rand::rngs::StdRng::seed_from_u64(seed));
            fake_quantize_matrix(
                &mut data,
                8,
                8,
                GroupAxis::AlongRow,
                fmt,
                Rounding::STOCHASTIC8,
                Noise::Stream(&mut bits),
                false,
            );
            data
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
