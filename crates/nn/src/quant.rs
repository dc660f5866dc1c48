//! Numeric formats for quantization-aware training (paper Fig 2) and the
//! per-layer precision assignment that the FAST controller manipulates.

use fast_bfp::{
    fake_quantize_matrix, quantize_minifloat, BfpFormat, GroupAxis, Minifloat, Noise, QuantStats,
    Rounding,
};
use fast_tensor::Tensor;

/// A number format a tensor can be quantized to before entering a GEMM.
///
/// Mirrors the format zoo of paper Fig 2: fixed point (top), floating point
/// (middle), and block floating point (bottom).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NumericFormat {
    /// IEEE-754 32-bit floating point — the no-quantization baseline.
    #[default]
    Fp32,
    /// A custom scalar floating-point format (bfloat16, FP16, TF32, HFP8…).
    Mini(Minifloat),
    /// Fixed point with per-tensor symmetric uniform quantization.
    Int {
        /// Total bits including sign (e.g. 8 for INT8, 12 for INT12).
        bits: u32,
    },
    /// Block floating point.
    Bfp {
        /// Group size / mantissa / exponent widths.
        format: BfpFormat,
        /// Rounding rule (stochastic for gradients per the paper).
        rounding: Rounding,
        /// Model the finite `e`-bit exponent field via a per-tensor window.
        windowed: bool,
    },
}

impl NumericFormat {
    /// bfloat16 (1-8-7).
    pub fn bf16() -> Self {
        NumericFormat::Mini(Minifloat::BF16)
    }

    /// IEEE FP16 (1-5-10), the compute format of Nvidia Mixed Precision.
    pub fn fp16() -> Self {
        NumericFormat::Mini(Minifloat::FP16)
    }

    /// Nvidia TensorFloat-32 (1-8-10).
    pub fn tf32() -> Self {
        NumericFormat::Mini(Minifloat::TF32)
    }

    /// HFP8 forward format (1-4-3).
    pub fn hfp8_fwd() -> Self {
        NumericFormat::Mini(Minifloat::HFP8_FWD)
    }

    /// HFP8 backward format (1-5-2).
    pub fn hfp8_bwd() -> Self {
        NumericFormat::Mini(Minifloat::HFP8_BWD)
    }

    /// INT8 fixed point.
    pub fn int8() -> Self {
        NumericFormat::Int { bits: 8 }
    }

    /// INT12 fixed point.
    pub fn int12() -> Self {
        NumericFormat::Int { bits: 12 }
    }

    /// BFP with nearest rounding (weights/activations path).
    ///
    /// The shared exponent is modeled as unbounded (a software-managed
    /// per-tensor bias keeps the `e`-bit field from binding); the
    /// strictly-clipped window variant is available by constructing
    /// [`NumericFormat::Bfp`] with `windowed: true` and is evaluated in the
    /// `ablation_window` experiment.
    pub fn bfp_nearest(format: BfpFormat) -> Self {
        NumericFormat::Bfp {
            format,
            rounding: Rounding::Nearest,
            windowed: false,
        }
    }

    /// BFP with 8-bit stochastic rounding (gradient path, paper Fig 4c).
    pub fn bfp_stochastic(format: BfpFormat) -> Self {
        NumericFormat::Bfp {
            format,
            rounding: Rounding::STOCHASTIC8,
            windowed: false,
        }
    }

    /// Human-readable name for tables.
    pub fn name(&self) -> String {
        match self {
            NumericFormat::Fp32 => "FP32".to_string(),
            NumericFormat::Mini(m) if *m == Minifloat::BF16 => "bfloat16".to_string(),
            NumericFormat::Mini(m) if *m == Minifloat::FP16 => "FP16".to_string(),
            NumericFormat::Mini(m) if *m == Minifloat::TF32 => "TF32".to_string(),
            NumericFormat::Mini(m) if *m == Minifloat::HFP8_FWD => "HFP8-143".to_string(),
            NumericFormat::Mini(m) if *m == Minifloat::HFP8_BWD => "HFP8-152".to_string(),
            NumericFormat::Mini(m) => format!("FP(e={},m={})", m.exp_bits, m.man_bits),
            NumericFormat::Int { bits } => format!("INT{bits}"),
            NumericFormat::Bfp {
                format, rounding, ..
            } => {
                let sr = matches!(rounding, Rounding::Stochastic { .. });
                format!("{format}{}", if sr { "+SR" } else { "" })
            }
        }
    }

    /// Mantissa bits carried per value, for hardware cost modeling.
    /// (FP32 = 23, FP16 = 10, INTb = b-1, BFP = m.)
    pub fn mantissa_bits(&self) -> u32 {
        match self {
            NumericFormat::Fp32 => 23,
            NumericFormat::Mini(m) => m.man_bits,
            NumericFormat::Int { bits } => bits - 1,
            NumericFormat::Bfp { format, .. } => format.mantissa_bits(),
        }
    }

    /// Quantizes a rank-2 tensor in place, grouping along `axis` for BFP
    /// formats (scalar formats ignore the axis).
    ///
    /// BFP formats draw stochastic-rounding noise from `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not rank 2.
    pub fn quantize_matrix(&self, t: &mut Tensor, axis: GroupAxis, noise: Noise) {
        assert_eq!(t.rank(), 2, "quantize_matrix requires a rank-2 tensor");
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        self.quantize_slice(t.data_mut(), rows, cols, axis, noise);
    }

    /// Slice-level form of [`NumericFormat::quantize_matrix`]: quantizes a
    /// row-major `rows × cols` buffer in place. This is the entry point the
    /// frozen-weight caches and the quantized-GEMM plan's dense fallback
    /// use, since they hold raw buffers rather than tensors.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn quantize_slice(
        &self,
        data: &mut [f32],
        rows: usize,
        cols: usize,
        axis: GroupAxis,
        noise: Noise,
    ) {
        let _ = self.quantize_slice_stats(data, rows, cols, axis, noise);
    }

    /// [`NumericFormat::quantize_slice`] returning the [`QuantStats`] of the
    /// pass (scalar formats, which form no groups, report empty stats).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn quantize_slice_stats(
        &self,
        data: &mut [f32],
        rows: usize,
        cols: usize,
        axis: GroupAxis,
        noise: Noise,
    ) -> QuantStats {
        assert_eq!(data.len(), rows * cols, "quantize_slice shape mismatch");
        match self {
            NumericFormat::Fp32 => QuantStats::default(),
            NumericFormat::Mini(m) => {
                let m = *m;
                for v in data.iter_mut() {
                    *v = quantize_minifloat(*v, m);
                }
                QuantStats::default()
            }
            NumericFormat::Int { bits: b } => {
                quantize_int_symmetric(data, *b);
                QuantStats::default()
            }
            NumericFormat::Bfp {
                format,
                rounding,
                windowed,
            } => fake_quantize_matrix(data, rows, cols, axis, *format, *rounding, noise, *windowed),
        }
    }

    /// Encodes the format into the stable little-endian wire form used by
    /// checkpoint artifacts (DESIGN.md §10): a one-byte tag followed by the
    /// variant's fields. [`NumericFormat::from_wire`] reverses it exactly.
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            NumericFormat::Fp32 => vec![0],
            NumericFormat::Mini(m) => vec![1, m.exp_bits as u8, m.man_bits as u8],
            NumericFormat::Int { bits } => vec![2, *bits as u8],
            NumericFormat::Bfp {
                format,
                rounding,
                windowed,
            } => {
                let mut out = vec![3];
                out.extend_from_slice(&(format.group_size() as u32).to_le_bytes());
                out.push(format.mantissa_bits() as u8);
                out.push(format.exponent_bits() as u8);
                match rounding {
                    Rounding::Nearest => out.push(0),
                    Rounding::Truncate => out.push(1),
                    Rounding::Stochastic { noise_bits } => {
                        out.push(2);
                        out.push(*noise_bits as u8);
                    }
                }
                out.push(u8::from(*windowed));
                out
            }
        }
    }

    /// Decodes a format from its [`NumericFormat::to_wire`] bytes,
    /// validating every field (BFP parameters go back through
    /// [`fast_bfp::BfpFormat::new`]).
    ///
    /// # Errors
    ///
    /// A description of the first malformed field — the caller (the
    /// checkpoint restore path) wraps it into its own typed error.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let take = |i: usize| -> Result<u8, String> {
            bytes
                .get(i)
                .copied()
                .ok_or_else(|| "numeric format encoding truncated".to_string())
        };
        let fmt = match take(0)? {
            0 => (NumericFormat::Fp32, 1),
            1 => {
                let exp_bits = take(1)? as u32;
                let man_bits = take(2)? as u32;
                // Bounds of an FP32-sourced minifloat: at least one exponent
                // bit (the bias computes `2^(e-1) - 1`), no wider than the
                // source's 8-bit exponent / 23-bit fraction.
                if !(1..=8).contains(&exp_bits) {
                    return Err(format!("minifloat exponent bits {exp_bits} out of range"));
                }
                if man_bits > 23 {
                    return Err(format!("minifloat mantissa bits {man_bits} out of range"));
                }
                (NumericFormat::Mini(Minifloat { exp_bits, man_bits }), 3)
            }
            2 => {
                let bits = take(1)? as u32;
                if !(2..=16).contains(&bits) {
                    return Err(format!("INT bit width {bits} out of range"));
                }
                (NumericFormat::Int { bits }, 2)
            }
            3 => {
                if bytes.len() < 5 {
                    return Err("numeric format encoding truncated".to_string());
                }
                let g = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
                let m = take(5)? as u32;
                let e = take(6)? as u32;
                let format = BfpFormat::new(g, m, e).map_err(|err| err.to_string())?;
                let (rounding, next) = match take(7)? {
                    0 => (Rounding::Nearest, 8),
                    1 => (Rounding::Truncate, 8),
                    2 => {
                        let noise_bits = take(8)? as u32;
                        if !(1..=31).contains(&noise_bits) {
                            return Err(format!("SR noise bits {noise_bits} out of range"));
                        }
                        (Rounding::Stochastic { noise_bits }, 9)
                    }
                    other => return Err(format!("unknown rounding tag {other}")),
                };
                let windowed = match take(next)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("bad windowed flag {other}")),
                };
                (
                    NumericFormat::Bfp {
                        format,
                        rounding,
                        windowed,
                    },
                    next + 1,
                )
            }
            other => return Err(format!("unknown numeric format tag {other}")),
        };
        let (value, used) = fmt;
        if bytes.len() != used {
            return Err("trailing bytes after numeric format".to_string());
        }
        Ok(value)
    }
}

/// Visits a layer's precision assignment as a `"precision"` bytes entry:
/// capture records the wire encoding, restore re-parses it (reporting a
/// malformed encoding through the visitor instead of panicking).
pub(crate) fn visit_precision(v: &mut dyn fast_ckpt::StateVisitor, precision: &mut LayerPrecision) {
    let mut enc = precision.to_wire();
    v.bytes("precision", &mut enc);
    match LayerPrecision::from_wire(&enc) {
        Ok(p) => *precision = p,
        Err(why) => v.invalid("precision", why),
    }
}

/// Visits a single [`NumericFormat`] as a named bytes entry (the attention
/// layer's inner-GEMM format).
pub(crate) fn visit_format(
    v: &mut dyn fast_ckpt::StateVisitor,
    name: &str,
    format: &mut NumericFormat,
) {
    let mut enc = format.to_wire();
    v.bytes(name, &mut enc);
    match NumericFormat::from_wire(&enc) {
        Ok(f) => *format = f,
        Err(why) => v.invalid(name, why),
    }
}

impl std::fmt::Display for NumericFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Per-tensor symmetric uniform quantization to `bits` total bits.
fn quantize_int_symmetric(data: &mut [f32], bits: u32) {
    assert!((2..=16).contains(&bits), "INT bits must be in 2..=16");
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        return;
    }
    let qmax = ((1i64 << (bits - 1)) - 1) as f32;
    let scale = max_abs / qmax;
    for v in data.iter_mut() {
        let q = (*v / scale).round().clamp(-qmax, qmax);
        *v = q * scale;
    }
}

/// The (W, A, G) format assignment for one GEMM-bearing layer — the unit of
/// control of the FAST-Adaptive algorithm (paper Algorithm 1 operates on
/// `X ∈ [A_l, W_l, G_l]` independently per layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPrecision {
    /// Format for the weights `W` (both forward and backward use).
    pub weights: NumericFormat,
    /// Format for the activations `A` (forward GEMM and the `∇W` GEMM).
    pub activations: NumericFormat,
    /// Format for the output gradients `∇O` (both backward GEMMs).
    pub gradients: NumericFormat,
}

impl LayerPrecision {
    /// Uniform format for all three tensors.
    pub fn uniform(fmt: NumericFormat) -> Self {
        LayerPrecision {
            weights: fmt,
            activations: fmt,
            gradients: fmt,
        }
    }

    /// Full-precision baseline.
    pub fn fp32() -> Self {
        LayerPrecision::uniform(NumericFormat::Fp32)
    }

    /// bfloat16 everywhere (Google-style training).
    pub fn bf16() -> Self {
        LayerPrecision::uniform(NumericFormat::bf16())
    }

    /// Nvidia Mixed Precision: FP16 compute with FP32 master weights (master
    /// weights are always FP32 in this substrate).
    pub fn nvidia_mp() -> Self {
        LayerPrecision::uniform(NumericFormat::fp16())
    }

    /// HFP8: 1-4-3 forward operands, 1-5-2 gradients (paper Section II-A).
    pub fn hfp8() -> Self {
        LayerPrecision {
            weights: NumericFormat::hfp8_fwd(),
            activations: NumericFormat::hfp8_fwd(),
            gradients: NumericFormat::hfp8_bwd(),
        }
    }

    /// INT8 fixed point everywhere.
    pub fn int8() -> Self {
        LayerPrecision::uniform(NumericFormat::int8())
    }

    /// INT12 fixed point everywhere.
    pub fn int12() -> Self {
        LayerPrecision::uniform(NumericFormat::int12())
    }

    /// MSFP-12 (BFP `g=16, m=3, e=8`) with nearest rounding, as in
    /// Microsoft's inference-oriented format.
    pub fn msfp12() -> Self {
        LayerPrecision::uniform(NumericFormat::bfp_nearest(BfpFormat::msfp12()))
    }

    /// The paper's fixed-BFP settings: nearest rounding for W/A, stochastic
    /// rounding for gradients (Section III-C: SR is critical for gradients).
    ///
    /// `m = 2` is LowBFP, `3` MidBFP, `4` HighBFP.
    pub fn bfp_fixed(m: u32) -> Self {
        let fmt = BfpFormat::high()
            .with_mantissa_bits(m)
            .expect("valid mantissa width");
        LayerPrecision {
            weights: NumericFormat::bfp_nearest(fmt),
            activations: NumericFormat::bfp_nearest(fmt),
            gradients: NumericFormat::bfp_stochastic(fmt),
        }
    }

    /// A FAST variable-precision assignment: independent mantissa widths for
    /// W, A, G (each 2 or 4 in the paper), `g=16, e=3`, SR on gradients.
    pub fn fast(m_w: u32, m_a: u32, m_g: u32) -> Self {
        let f = |m| {
            BfpFormat::high()
                .with_mantissa_bits(m)
                .expect("valid mantissa width")
        };
        LayerPrecision {
            weights: NumericFormat::bfp_nearest(f(m_w)),
            activations: NumericFormat::bfp_nearest(f(m_a)),
            gradients: NumericFormat::bfp_stochastic(f(m_g)),
        }
    }

    /// Mantissa widths `(m_W, m_A, m_G)` as seen by the hardware cost model.
    pub fn mantissa_widths(&self) -> (u32, u32, u32) {
        (
            self.weights.mantissa_bits(),
            self.activations.mantissa_bits(),
            self.gradients.mantissa_bits(),
        )
    }

    /// Encodes the (W, A, G) assignment into the checkpoint wire form:
    /// three length-prefixed [`NumericFormat::to_wire`] encodings.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for fmt in [&self.weights, &self.activations, &self.gradients] {
            let enc = fmt.to_wire();
            out.push(enc.len() as u8);
            out.extend_from_slice(&enc);
        }
        out
    }

    /// Decodes a [`LayerPrecision::to_wire`] encoding.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0usize;
        let mut next = || -> Result<NumericFormat, String> {
            let len = *bytes
                .get(pos)
                .ok_or_else(|| "layer precision encoding truncated".to_string())?
                as usize;
            let body = bytes
                .get(pos + 1..pos + 1 + len)
                .ok_or_else(|| "layer precision encoding truncated".to_string())?;
            pos += 1 + len;
            NumericFormat::from_wire(body)
        };
        let precision = LayerPrecision {
            weights: next()?,
            activations: next()?,
            gradients: next()?,
        };
        if pos != bytes.len() {
            return Err("trailing bytes after layer precision".to_string());
        }
        Ok(precision)
    }
}

impl Default for LayerPrecision {
    fn default() -> Self {
        LayerPrecision::fp32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bfp::CounterRng;
    use rand::SeedableRng;

    fn noise() -> Noise {
        Noise {
            rng: CounterRng::new(1),
            base: 0,
            workers: 1,
        }
    }

    #[test]
    fn fp32_is_identity() {
        let mut t = Tensor::from_vec(vec![2, 2], vec![0.1, -0.2, 0.3, 0.7]);
        let orig = t.clone();
        NumericFormat::Fp32.quantize_matrix(&mut t, GroupAxis::AlongRow, noise());
        assert_eq!(t, orig);
    }

    #[test]
    fn int8_respects_levels() {
        let mut t = Tensor::from_vec(vec![1, 4], vec![1.0, -1.0, 0.337, 0.0]);
        NumericFormat::int8().quantize_matrix(&mut t, GroupAxis::AlongRow, noise());
        // max_abs=1.0, scale=1/127; all outputs are multiples of the scale.
        for &v in t.data() {
            let q = v * 127.0;
            assert!((q - q.round()).abs() < 1e-4, "{v} not on the INT8 grid");
        }
        assert_eq!(t.data()[0], 1.0);
    }

    #[test]
    fn int_quantization_error_shrinks_with_bits() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let data: Vec<f32> = (0..256).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut prev = f64::INFINITY;
        for bits in [4u32, 8, 12] {
            let mut t = Tensor::from_vec(vec![16, 16], data.clone());
            NumericFormat::Int { bits }.quantize_matrix(&mut t, GroupAxis::AlongRow, noise());
            let mse: f64 = t
                .data()
                .iter()
                .zip(&data)
                .map(|(q, x)| ((q - x) as f64).powi(2))
                .sum::<f64>()
                / data.len() as f64;
            assert!(mse < prev);
            prev = mse;
        }
    }

    #[test]
    fn bf16_quantization_truncates_mantissa() {
        let mut t = Tensor::from_vec(vec![1, 2], vec![1.0000001, std::f32::consts::PI]);
        NumericFormat::bf16().quantize_matrix(&mut t, GroupAxis::AlongRow, noise());
        assert_eq!(t.data()[0], 1.0);
        assert!((t.data()[1] - std::f32::consts::PI).abs() < 0.02);
    }

    #[test]
    fn bfp_formats_group_along_requested_axis() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        // Spread magnitudes over many octaves so row/column groups see
        // different shared exponents.
        let data: Vec<f32> = (0..64)
            .map(|_| 2.0f32.powf(rng.gen_range(-8.0f32..0.0)))
            .collect();
        let fmt = NumericFormat::bfp_nearest(BfpFormat::new(8, 4, 8).unwrap());
        let mut by_row = Tensor::from_vec(vec![8, 8], data.clone());
        let mut by_col = Tensor::from_vec(vec![8, 8], data.clone());
        fmt.quantize_matrix(&mut by_row, GroupAxis::AlongRow, noise());
        fmt.quantize_matrix(&mut by_col, GroupAxis::AlongCol, noise());
        assert_ne!(by_row, by_col, "axis must affect grouping");
    }

    #[test]
    fn preset_names_are_distinct() {
        let names: Vec<String> = [
            LayerPrecision::fp32().weights,
            LayerPrecision::bf16().weights,
            LayerPrecision::nvidia_mp().weights,
            LayerPrecision::hfp8().weights,
            LayerPrecision::int8().weights,
            LayerPrecision::int12().weights,
            LayerPrecision::msfp12().weights,
            LayerPrecision::bfp_fixed(3).weights,
        ]
        .iter()
        .map(|f| f.name())
        .collect();
        let unique: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn fast_preset_uses_sr_only_on_gradients() {
        let p = LayerPrecision::fast(4, 2, 4);
        assert!(matches!(
            p.gradients,
            NumericFormat::Bfp {
                rounding: Rounding::Stochastic { .. },
                ..
            }
        ));
        assert!(matches!(
            p.weights,
            NumericFormat::Bfp {
                rounding: Rounding::Nearest,
                ..
            }
        ));
        assert_eq!(p.mantissa_widths(), (4, 2, 4));
    }

    #[test]
    fn wire_codec_roundtrips_the_format_zoo() {
        let formats = [
            NumericFormat::Fp32,
            NumericFormat::bf16(),
            NumericFormat::fp16(),
            NumericFormat::tf32(),
            NumericFormat::hfp8_fwd(),
            NumericFormat::hfp8_bwd(),
            NumericFormat::int8(),
            NumericFormat::int12(),
            NumericFormat::bfp_nearest(BfpFormat::low()),
            NumericFormat::bfp_stochastic(BfpFormat::high()),
            NumericFormat::Bfp {
                format: BfpFormat::new(8, 7, 8).unwrap(),
                rounding: Rounding::Truncate,
                windowed: true,
            },
            NumericFormat::Bfp {
                format: BfpFormat::new(16, 3, 3).unwrap(),
                rounding: Rounding::Stochastic { noise_bits: 5 },
                windowed: false,
            },
        ];
        for fmt in formats {
            assert_eq!(NumericFormat::from_wire(&fmt.to_wire()), Ok(fmt));
        }
        let precisions = [
            LayerPrecision::fp32(),
            LayerPrecision::hfp8(),
            LayerPrecision::bfp_fixed(4),
            LayerPrecision::fast(2, 4, 2),
            LayerPrecision::msfp12(),
        ];
        for p in precisions {
            assert_eq!(LayerPrecision::from_wire(&p.to_wire()), Ok(p));
        }
    }

    #[test]
    fn wire_codec_rejects_malformed_input() {
        assert!(NumericFormat::from_wire(&[]).is_err());
        assert!(NumericFormat::from_wire(&[99]).is_err());
        assert!(NumericFormat::from_wire(&[2, 200]).is_err(), "INT width");
        assert!(NumericFormat::from_wire(&[3, 0, 0]).is_err(), "truncated");
        assert!(
            NumericFormat::from_wire(&[1, 0, 7]).is_err(),
            "minifloat with zero exponent bits"
        );
        assert!(
            NumericFormat::from_wire(&[1, 9, 7]).is_err(),
            "minifloat exponent wider than FP32's"
        );
        assert!(
            NumericFormat::from_wire(&[1, 5, 24]).is_err(),
            "minifloat mantissa wider than FP32's"
        );
        // Valid prefix with trailing garbage.
        let mut enc = NumericFormat::Fp32.to_wire();
        enc.push(0);
        assert!(NumericFormat::from_wire(&enc).is_err());
        // BFP with out-of-range mantissa width.
        let mut bfp = NumericFormat::bfp_nearest(BfpFormat::high()).to_wire();
        bfp[5] = 40;
        assert!(NumericFormat::from_wire(&bfp).is_err());
        assert!(LayerPrecision::from_wire(&[7, 0]).is_err());
        let mut p = LayerPrecision::fp32().to_wire();
        p.push(1);
        assert!(LayerPrecision::from_wire(&p).is_err());
    }

    #[test]
    fn stochastic_bfp_draws_bits() {
        let fmt = NumericFormat::bfp_stochastic(BfpFormat::high());
        let mut t = Tensor::from_vec(vec![1, 16], (0..16).map(|i| 0.01 * i as f32).collect());
        fmt.quantize_matrix(&mut t, GroupAxis::AlongRow, noise());
        // Should not panic and should produce quantized values.
        assert!(t.data().iter().any(|&v| v != 0.0));
    }
}
