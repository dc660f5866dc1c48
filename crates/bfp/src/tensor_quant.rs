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
//! and [`crate::fake_quantize_matrix`], which packs through
//! [`crate::packed`] and walks group by group only what the pack refuses —
//! live in the crate's kernel module; this module holds the vocabulary they
//! share ([`GroupAxis`], [`QuantStats`]) and the `r(X)` statistic, which
//! runs on the same integer machinery: in the
//! FAST hardware it is the magnitude of the low-order 2-bit chunk the BFP
//! converter produces anyway (Section V-D), and here it is one read-only
//! pass at about the quantize kernel's rate ([`relative_improvement`]).

use crate::group::NoNoise;
use crate::kernel::{
    decompose, exponent_of_parts, pow2_f64, quantize_plain, scan_group, NearestOp, RoundOp,
};

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
/// total magnitude carried by the discarded chunks: with `mag` an element's
/// 4-bit nearest-rounded magnitude and `ulp4 = 2^(E−3)` its group's ulp, the
/// element adds `(mag & 3)·ulp4` to the numerator and `(mag >> 2)·4·ulp4`
/// to the denominator, both accumulated in f64 in element order.
///
/// One pass over the bit patterns, no allocation: the magnitudes come from
/// the same integer shifts as [`crate::fake_quantize_slice`] (nothing is
/// written back). The sums, and so the result, are bit for bit those of the
/// `BfpGroup`-per-chunk evaluation this replaced (the oracle in
/// `tests/support/r_oracle.rs`).
///
/// Returns `0.0` for an all-zero tensor and `f32::INFINITY` when the 2-bit
/// representation is entirely zero but the 4-bit one is not (the improvement
/// from the extra bits is then unbounded).
pub fn relative_improvement(values: &[f32], group_size: usize) -> f32 {
    let (numer, denom) = improvement_sums(values, group_size);
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

/// Numerator and denominator of Eq. 2, with the bits of an f64 accumulation
/// in element order.
///
/// A group's elements are summed as integers and added once — no serial f64
/// add per element — whenever that provably gives the same bits (DESIGN.md
/// §7): every addend so far is an integer multiple of `w_min`, the smallest
/// `ulp4` so far, and so are `numer` and `denom`, even after an inexact add
/// (which rounds to a multiple of a *larger* power of two). Multiples of a
/// power of two `w` below `2^53·w` are exact in f64, so if the group's last
/// partial sum stays below that bound every element-order add in the group
/// is exact, and the integer sum added once is the same real number, also
/// exact. Otherwise the group is accumulated element by element.
fn improvement_sums(values: &[f32], group_size: usize) -> (f64, f64) {
    assert!(group_size > 0, "group size must be positive");
    const EXACT: f64 = (1u64 << 53) as f64;
    let mut numer = 0.0f64;
    let mut denom = 0.0f64;
    let mut w_min = f64::INFINITY;
    for chunk in values.chunks(group_size) {
        let (max_bits, plain) = scan_group(chunk);
        if max_bits == 0 {
            continue; // every mantissa is zero: the element-order adds are +0.0
        }
        let (sig, p) = decompose(max_bits);
        let e = exponent_of_parts(sig, p);
        let ulp4 = pow2_f64(e - 3);
        w_min = w_min.min(ulp4);
        // `low ≤ 3` and `4·high ≤ 12` per element. The guard's own add may
        // round, but rounding is monotone and the bound is representable, so
        // a sum that reaches the bound never passes.
        let most = (3 * chunk.len()) as f64 * ulp4;
        let bound = EXACT * w_min;
        let exact = numer + most < bound && denom + 4.0 * most < bound;
        if exact && chunk.len() <= (u32::MAX / 3) as usize {
            let (mut low, mut high) = (0u32, 0u32);
            for_each_mag4(chunk, e, plain, |mag| {
                low += mag & 0b11;
                high += mag >> 2;
            });
            numer += low as f64 * ulp4;
            denom += high as f64 * (4.0 * ulp4);
        } else {
            for_each_mag4(chunk, e, plain, |mag| {
                numer += (mag & 0b11) as f64 * ulp4;
                denom += (mag >> 2) as f64 * (4.0 * ulp4);
            });
        }
    }
    (numer, denom)
}

/// Hands `f` the 4-bit nearest-rounded magnitude (`≤ 15`) of each element of
/// one group with shared exponent `e`, in element order — the mantissas of
/// `BfpGroup::quantize_nearest` at `m = 4` without the group. Zeros and NaNs
/// of a non-`plain` group are skipped: their magnitude is 0.
#[inline(always)]
fn for_each_mag4(chunk: &[f32], e: i32, plain: bool, mut f: impl FnMut(u32)) {
    let t_base = e - 3; // E + 1 − m
    if plain {
        // All normal or zero: the branch-free body of the quantize kernel.
        for &v in chunk {
            f(quantize_plain(v.to_bits(), t_base, 15, &NearestOp, 0).0);
        }
    } else {
        let noise = &mut NoNoise;
        for &v in chunk {
            let abs = v.to_bits() & 0x7FFF_FFFF;
            if abs == 0 || abs > 0x7F80_0000 {
                continue;
            }
            let abs = if abs == 0x7F80_0000 { 0x7F7F_FFFF } else { abs };
            let (sig, p) = decompose(abs);
            f(NearestOp.round(sig, (t_base - p) as i64, noise).min(15) as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::BfpFormat;
    use crate::group::BfpGroup;
    use crate::kernel::{fake_quantize_matrix, fake_quantize_slice, Noise};
    use crate::rng::CounterRng;
    use crate::rounding::Rounding;
    use rand::{Rng, SeedableRng};

    fn noise(seed: u64) -> Noise {
        Noise {
            rng: CounterRng::new(seed),
            base: 0,
            workers: 1,
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
        fake_quantize_slice(&mut xs, fmt, Rounding::Nearest, noise(0), None);
        assert_eq!(xs, expect);
    }

    #[test]
    fn partial_final_group_is_handled() {
        let fmt = BfpFormat::new(4, 4, 8).unwrap();
        let mut xs = vec![1.0f32; 7];
        let stats = fake_quantize_slice(&mut xs, fmt, Rounding::Nearest, noise(0), None);
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
            noise(0),
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
            noise(0),
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
        let stats = fake_quantize_slice(&mut xs, fmt, Rounding::Nearest, noise(0), None);
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

    /// Eq. 2's two sums by the book: one `BfpGroup` per chunk, one f64 add
    /// per element.
    fn element_order_sums(xs: &[f32], g: usize) -> (f64, f64) {
        let fmt4 = BfpFormat::new(g, 4, 8).unwrap();
        let (mut numer, mut denom) = (0.0f64, 0.0f64);
        for chunk in xs.chunks(g) {
            let g4 = BfpGroup::quantize_nearest(chunk, fmt4);
            for &m in g4.mantissas() {
                numer += (m.unsigned_abs() & 3) as f64 * g4.scale();
                denom += (m.unsigned_abs() >> 2) as f64 * 4.0 * g4.scale();
            }
        }
        (numer, denom)
    }

    #[test]
    fn group_sums_are_taken_only_where_element_order_adds_are_exact() {
        // One group of mantissa 15 at ulp 1 (numer 48, denom 192), then 4096
        // groups fifty binades down. Element by element every small addend
        // is under half an ulp of the running sum and is absorbed; a group's
        // integer sum added at once would not be — the guard must refuse.
        let mut xs = vec![15.0f32; 16];
        xs.extend(std::iter::repeat_n(15.0 * (-50.0f32).exp2(), 16 * 4096));
        assert_eq!(improvement_sums(&xs, 16), (48.0, 192.0));
        assert_eq!(element_order_sums(&xs, 16), (48.0, 192.0));

        // Right at the bound, numerator side (g = 16, u = 2^-60): two groups
        // leave numer = (2^53 + 6)·u, where an ulp is 2u. Four adds of 1u
        // then go tie-to-even 6 → 8 → 8 → 8 → 8; their sum 4u added once
        // would give 2^53 + 10.
        let u = (-60.0f32).exp2();
        let at = |scale: f32, mags: &[u32]| {
            let mut group = vec![0.0f32; 16];
            for (v, &m) in group.iter_mut().zip(mags) {
                *v = m as f32 * scale;
            }
            group
        };
        let mut xs = at(u, &[8, 3, 3]);
        xs.extend(at(u * 49.0f32.exp2(), &[8, 3, 3, 3, 3, 3, 1]));
        xs.extend(at(u, &[8, 1, 1, 1, 1]));
        let (numer, denom) = improvement_sums(&xs, 16);
        assert_eq!(numer, ((1u64 << 53) + 8) as f64 * u as f64);
        assert_eq!((numer, denom), element_order_sums(&xs, 16));
        // Denominator side: denom = (2^55 + 8)·u with an ulp of 8u, then
        // four adds of 12u round 20 → 16, 28 → 32, 44 → 48, 60 → 64, against
        // 8 + 48 = 56 for the sum added once.
        let mut xs = at(u, &[8]);
        xs.extend(at(u * 51.0f32.exp2(), &[8, 8]));
        xs.extend(at(u, &[12, 12, 12, 12]));
        let (numer, denom) = improvement_sums(&xs, 16);
        assert_eq!((numer, denom), (0.0, ((1u64 << 55) + 64) as f64 * u as f64));
        assert_eq!((numer, denom), element_order_sums(&xs, 16));

        // Group scales wandering over ~70 binades put the running sums on
        // both sides of the 2^53 bound within one tensor.
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        for case in 0..200 {
            let g = [1usize, 4, 16, 32][case % 4];
            let n = rng.gen_range(1usize..600);
            let mut scale = 1.0f32;
            let xs: Vec<f32> = (0..n)
                .map(|i| {
                    if i % g == 0 {
                        scale = (rng.gen_range(-35i32..35) as f32).exp2();
                    }
                    rng.gen_range(-1.0f32..1.0) * scale
                })
                .collect();
            let got = improvement_sums(&xs, g);
            let want = element_order_sums(&xs, g);
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (want.0.to_bits(), want.1.to_bits()),
                "case {case} g={g}"
            );
        }
    }

    #[test]
    fn stochastic_matrix_quantization_is_reproducible_per_seed() {
        let fmt = BfpFormat::new(8, 4, 8).unwrap();
        let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = |seed: u64| {
            let mut data = xs.clone();
            fake_quantize_matrix(
                &mut data,
                8,
                8,
                GroupAxis::AlongRow,
                fmt,
                Rounding::STOCHASTIC8,
                noise(seed),
                false,
            );
            data
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }
}
