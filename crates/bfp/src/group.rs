//! BFP group quantization — the FP32 → BFP conversion pipeline of paper
//! Fig 4: find the max exponent, align mantissas, add stochastic noise (for
//! gradients), truncate to `m` bits.

use crate::format::BfpFormat;
use crate::kernel;
use crate::lfsr::BitSource;
use crate::rounding::Rounding;

/// Models the finite shared-exponent field (`e` bits) as an offset below a
/// per-tensor reference exponent.
///
/// Hardware stores the group exponent in `e` bits. We model this (see
/// DESIGN.md §3) as the offset `reference_exponent - E_group`, clamped to
/// `0..=2^e - 1`. Groups whose natural exponent lies below the window are
/// forced up to the window floor, which truncates their mantissas toward
/// zero — exactly the data loss a narrow hardware exponent causes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExponentWindow {
    /// Per-tensor reference (typically the max exponent over the tensor).
    pub reference_exponent: i32,
    /// Width of the stored exponent field in bits.
    pub exponent_bits: u32,
}

impl ExponentWindow {
    /// Clamps a group exponent into the representable window.
    pub fn clamp(&self, group_exponent: i32) -> i32 {
        let max_offset = (1i32 << self.exponent_bits) - 1;
        let offset = (self.reference_exponent - group_exponent).clamp(0, max_offset);
        self.reference_exponent - offset
    }

    /// Builds a window from a slice: the reference is the largest exponent
    /// present (or 0 for an all-zero slice).
    pub fn from_values(values: &[f32], exponent_bits: u32) -> Self {
        ExponentWindow {
            reference_exponent: kernel::max_exponent(values).unwrap_or(0),
            exponent_bits,
        }
    }
}

/// A group of values quantized to a shared-exponent block floating point
/// format (paper Fig 2, bottom).
///
/// Each value is stored as a signed integer mantissa `M` with
/// `|M| <= 2^m - 1`; the represented value is `M * 2^(E - m + 1)` where `E`
/// is the shared (unbiased) exponent.
#[derive(Debug, Clone, PartialEq)]
pub struct BfpGroup {
    format: BfpFormat,
    shared_exponent: i32,
    mantissas: Vec<i32>,
}

pub(crate) struct NoNoise;
impl BitSource for NoNoise {
    fn next_bits(&mut self, _n: u32) -> u32 {
        unreachable!("deterministic rounding draws no random bits")
    }
}

impl BfpGroup {
    /// Quantizes `values` into a BFP group.
    ///
    /// This is the full converter pipeline of paper Fig 4/14:
    /// 1. the shared exponent is the max exponent over the group (optionally
    ///    clamped into an [`ExponentWindow`] modelling the `e`-bit field);
    /// 2. each mantissa is aligned by the gap to the shared exponent;
    /// 3. `rounding` decides the low-order bits (stochastic for gradients);
    /// 4. magnitudes are truncated/saturated to `m` bits.
    ///
    /// The arithmetic is executed by the crate's integer quantization
    /// kernel; this type remains the explanatory, materialized
    /// view of one group (see DESIGN.md §7). Saturating sanitization —
    /// non-finite values become the signed largest finite f32, NaN becomes
    /// zero — and rounding-parameter validation both happen once per group,
    /// not once per value.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or longer than the format's group size.
    pub fn quantize(
        values: &[f32],
        format: BfpFormat,
        rounding: Rounding,
        bits: &mut dyn BitSource,
        window: Option<ExponentWindow>,
    ) -> Self {
        assert!(!values.is_empty(), "cannot quantize an empty group");
        assert!(
            values.len() <= format.group_size(),
            "group of {} values exceeds format group size {}",
            values.len(),
            format.group_size()
        );
        let shared_exponent = match kernel::max_exponent(values) {
            None => {
                // All-zero group: store zero mantissas under the window floor
                // (or 0 when unbounded).
                let e = window.map(|w| w.clamp(i32::MIN / 2)).unwrap_or(0);
                return BfpGroup {
                    format,
                    shared_exponent: e,
                    mantissas: vec![0; values.len()],
                };
            }
            Some(e) => match window {
                Some(w) => w.clamp(e),
                None => e,
            },
        };
        let mut mantissas = Vec::with_capacity(values.len());
        kernel::quantize_group_mantissas(
            values,
            shared_exponent,
            format,
            rounding,
            bits,
            &mut mantissas,
        );
        BfpGroup {
            format,
            shared_exponent,
            mantissas,
        }
    }

    /// Quantizes with round-to-nearest and no exponent window — the
    /// weight/activation path of the paper, with `e` wide enough.
    pub fn quantize_nearest(values: &[f32], format: BfpFormat) -> Self {
        BfpGroup::quantize(values, format, Rounding::Nearest, &mut NoNoise, None)
    }

    /// Builds a group directly from parts (for tests and the fMAC model).
    ///
    /// # Panics
    ///
    /// Panics if any mantissa magnitude exceeds `2^m - 1` or the length
    /// exceeds the group size.
    pub fn from_parts(format: BfpFormat, shared_exponent: i32, mantissas: Vec<i32>) -> Self {
        assert!(mantissas.len() <= format.group_size());
        let max = format.max_magnitude() as i32;
        assert!(
            mantissas.iter().all(|&m| m.abs() <= max),
            "mantissa magnitude exceeds format maximum {max}"
        );
        BfpGroup {
            format,
            shared_exponent,
            mantissas,
        }
    }

    /// The format this group was quantized under.
    pub fn format(&self) -> BfpFormat {
        self.format
    }

    /// The shared (unbiased) exponent `E`.
    pub fn shared_exponent(&self) -> i32 {
        self.shared_exponent
    }

    /// The signed integer mantissas.
    pub fn mantissas(&self) -> &[i32] {
        &self.mantissas
    }

    /// Number of values in the group.
    pub fn len(&self) -> usize {
        self.mantissas.len()
    }

    /// Whether the group holds no values.
    pub fn is_empty(&self) -> bool {
        self.mantissas.is_empty()
    }

    /// The value of one ulp: `2^(E - m + 1)`.
    pub fn scale(&self) -> f64 {
        2.0f64.powi(self.shared_exponent - self.format.mantissa_bits() as i32 + 1)
    }

    /// Reconstructs the `i`-th value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> f32 {
        (self.mantissas[i] as f64 * self.scale()) as f32
    }

    /// Reconstructs all values.
    pub fn dequantize(&self) -> Vec<f32> {
        let s = self.scale();
        self.mantissas
            .iter()
            .map(|&m| (m as f64 * s) as f32)
            .collect()
    }

    /// Writes reconstructed values into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn dequantize_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len());
        let s = self.scale();
        for (o, &m) in out.iter_mut().zip(&self.mantissas) {
            *o = (m as f64 * s) as f32;
        }
    }

    /// Drops low-order mantissa bits to produce a narrower-precision view of
    /// the same group (shared exponent unchanged, magnitudes truncated
    /// toward zero).
    ///
    /// This is the hardware operation of paper Section V-D: "if Algorithm 1
    /// selects the 2-bit mantissa, then the low-order 2-bit chunk is
    /// discarded".
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the current mantissa bitwidth.
    pub fn truncate_to(&self, m: u32) -> BfpGroup {
        let cur = self.format.mantissa_bits();
        assert!(
            m <= cur,
            "cannot widen a group from {cur} to {m} bits by truncation"
        );
        let shift = cur - m;
        let format = self
            .format
            .with_mantissa_bits(m)
            .expect("narrowing a valid format stays valid");
        let mantissas = self
            .mantissas
            .iter()
            .map(|&v| {
                let mag = (v.unsigned_abs() >> shift) as i32;
                if v < 0 {
                    -mag
                } else {
                    mag
                }
            })
            .collect();
        BfpGroup {
            format,
            shared_exponent: self.shared_exponent,
            mantissas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::RngBits;
    use rand::SeedableRng;

    fn fmt(g: usize, m: u32, e: u32) -> BfpFormat {
        BfpFormat::new(g, m, e).unwrap()
    }

    #[test]
    fn max_element_gets_full_mantissa_precision() {
        let f = fmt(4, 4, 8);
        let g = BfpGroup::quantize_nearest(&[1.0, 0.5, 0.25, 0.125], f);
        assert_eq!(g.shared_exponent(), 0);
        // 1.0 * 2^(4-1-0) = 8 -> mantissa 8, value 8 * 2^(0-4+1) = 1.0.
        assert_eq!(g.mantissas()[0], 8);
        assert_eq!(g.value(0), 1.0);
        assert_eq!(g.value(1), 0.5);
    }

    #[test]
    fn small_values_lose_bits_as_in_fig4() {
        // With m=2, a value 3 octaves below the max loses all mantissa bits
        // (paper Fig 4 third value).
        let f = fmt(4, 2, 8);
        let g = BfpGroup::quantize(
            &[1.0, 0.9, 0.11, 0.0],
            f,
            Rounding::Truncate,
            &mut NoNoise,
            None,
        );
        assert_eq!(g.shared_exponent(), 0);
        // scale for m=2: |x| * 2^(1-0); 0.11*2 = 0.22 -> truncates to 0.
        assert_eq!(g.mantissas()[2], 0);
        assert_eq!(g.mantissas()[3], 0);
        assert_eq!(g.mantissas()[0], 2); // 1.0*2 = 2
    }

    #[test]
    fn saturation_at_max_magnitude() {
        let f = fmt(4, 3, 8);
        // 1.99 has exponent 0; scaled = 1.99*4 = 7.96 -> nearest 8 -> clamp 7.
        let g = BfpGroup::quantize_nearest(&[1.99, 0.1, 0.1, 0.1], f);
        assert_eq!(g.mantissas()[0], 7);
    }

    #[test]
    fn signs_preserved() {
        let f = fmt(4, 4, 8);
        let g = BfpGroup::quantize_nearest(&[-1.0, 1.0, -0.5, 0.5], f);
        assert_eq!(g.value(0), -1.0);
        assert_eq!(g.value(2), -0.5);
    }

    #[test]
    fn all_zero_group() {
        let f = fmt(4, 4, 3);
        let g = BfpGroup::quantize_nearest(&[0.0; 4], f);
        assert!(g.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quantization_error_bounded_by_half_ulp_of_max() {
        let f = fmt(16, 8, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::Rng;
        let xs: Vec<f32> = (0..16).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let g = BfpGroup::quantize_nearest(&xs, f);
        let ulp = g.scale();
        for (i, &x) in xs.iter().enumerate() {
            let err = (g.value(i) as f64 - x as f64).abs();
            assert!(err <= 0.5 * ulp + 1e-12, "err {err} > half ulp {ulp}");
        }
    }

    #[test]
    fn exponent_window_truncates_small_groups() {
        let f = fmt(4, 4, 3);
        // Window reference 0, e=3 -> representable exponents 0..=-7.
        let w = ExponentWindow {
            reference_exponent: 0,
            exponent_bits: 3,
        };
        // Group whose natural exponent is -20: clamped to -7; values become
        // denormal w.r.t. the window and truncate to zero.
        let tiny = [1e-6f32, 2e-6, -1e-6, 5e-7];
        let g = BfpGroup::quantize(&tiny, f, Rounding::Nearest, &mut NoNoise, Some(w));
        assert_eq!(g.shared_exponent(), -7);
        assert!(g.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn exponent_window_wide_enough_is_identity() {
        let f = fmt(4, 4, 8);
        let xs = [0.5f32, 0.25, 0.1, 0.05];
        let w = ExponentWindow::from_values(&xs, 8);
        let a = BfpGroup::quantize(&xs, f, Rounding::Nearest, &mut NoNoise, Some(w));
        let b = BfpGroup::quantize_nearest(&xs, f);
        assert_eq!(a, b);
    }

    #[test]
    fn truncate_to_drops_low_chunk() {
        let f = fmt(4, 4, 8);
        let g = BfpGroup::from_parts(f, 0, vec![15, -9, 4, 3]);
        let t = g.truncate_to(2);
        assert_eq!(t.format().mantissa_bits(), 2);
        assert_eq!(t.mantissas(), &[3, -2, 1, 0]);
        assert_eq!(t.shared_exponent(), 0);
        // Values shrink toward zero, never away.
        for i in 0..4 {
            assert!(t.value(i).abs() <= g.value(i).abs());
        }
    }

    #[test]
    fn stochastic_rounding_stays_within_one_ulp() {
        let f = fmt(16, 4, 8);
        let mut src = RngBits(rand::rngs::StdRng::seed_from_u64(11));
        let xs: Vec<f32> = (1..=16).map(|i| i as f32 * 0.013).collect();
        for _ in 0..50 {
            let g = BfpGroup::quantize(&xs, f, Rounding::STOCHASTIC8, &mut src, None);
            let ulp = g.scale();
            for (i, &x) in xs.iter().enumerate() {
                let err = (g.value(i) as f64 - x as f64).abs();
                assert!(err < ulp + 1e-12);
            }
        }
    }

    #[test]
    fn nonfinite_inputs_saturate() {
        let f = fmt(4, 4, 8);
        let g = BfpGroup::quantize_nearest(&[f32::INFINITY, 1.0, f32::NAN, -f32::INFINITY], f);
        assert_eq!(g.mantissas()[0], 15); // saturated positive
        assert_eq!(g.mantissas()[2], 0); // NaN -> 0
        assert_eq!(g.mantissas()[3], -15);
    }

    #[test]
    #[should_panic(expected = "exceeds format group size")]
    fn oversized_group_panics() {
        let f = fmt(2, 4, 3);
        let _ = BfpGroup::quantize_nearest(&[1.0, 2.0, 3.0], f);
    }
}
