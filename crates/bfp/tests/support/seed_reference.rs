//! A transcription of the seed implementation of BFP fake-quantization:
//! one `BfpGroup` per chunk in f64. The seed drew from a
//! serialized stream; the one change is that the source is told which
//! element it rounds next (`ElementBits::at`), so the tensor-level
//! references can hand every element the counter noise at its own offset —
//! what the kernels draw — while the group-level reference still consumes an
//! LFSR. Shared by `proptests.rs` and `counter_sr.rs` as the oracle every
//! quantize and pack kernel is compared with bit for bit.

use fast_bfp::{exponent_of, BfpFormat, BitSource, CounterRng, ExponentWindow, Lfsr16, Rounding};

/// A [`BitSource`] told, before each draw, the index within its group of
/// the element being rounded. A serialized stream ignores it.
pub trait ElementBits: BitSource {
    fn at(&mut self, _k: usize) {}
}

impl ElementBits for Lfsr16 {}

/// Positional noise: element `k` of the current group draws
/// `rng.bits_at(first + k·stride, n)`.
pub struct CounterAt {
    pub rng: CounterRng,
    /// Noise offset of the current group's first element.
    pub first: u64,
    /// Offset distance between consecutive elements of the group.
    pub stride: u64,
    pos: u64,
}

impl CounterAt {
    pub fn new(rng: CounterRng) -> Self {
        CounterAt {
            rng,
            first: 0,
            stride: 1,
            pos: 0,
        }
    }
}

impl BitSource for CounterAt {
    fn next_bits(&mut self, n: u32) -> u32 {
        self.rng.bits_at(self.pos, n)
    }
}

impl ElementBits for CounterAt {
    fn at(&mut self, k: usize) {
        self.pos = self.first + k as u64 * self.stride;
    }
}

fn sanitize(v: f32) -> f32 {
    if v.is_nan() {
        0.0
    } else if v.is_infinite() {
        f32::MAX.copysign(v)
    } else {
        v
    }
}

fn round(rounding: Rounding, scaled: f64, bits: &mut dyn BitSource) -> i64 {
    match rounding {
        Rounding::Nearest => (scaled + 0.5).floor() as i64,
        Rounding::Truncate => scaled.floor() as i64,
        Rounding::Stochastic { noise_bits } => {
            assert!((1..=31).contains(&noise_bits));
            let q = 1u64 << noise_bits;
            let noise = bits.next_bits(noise_bits) as f64 / q as f64;
            (scaled + noise).floor() as i64
        }
    }
}

/// Seed `BfpGroup::quantize`, returning `(shared_exponent, mantissas)`.
pub fn quantize(
    values: &[f32],
    format: BfpFormat,
    rounding: Rounding,
    bits: &mut dyn ElementBits,
    window: Option<ExponentWindow>,
) -> (i32, Vec<i32>) {
    let m = format.mantissa_bits();
    let natural_exp = values
        .iter()
        .filter_map(|&v| exponent_of(sanitize(v)))
        .max();
    let shared_exponent = match natural_exp {
        None => {
            let e = window.map(|w| w.clamp(i32::MIN / 2)).unwrap_or(0);
            return (e, vec![0; values.len()]);
        }
        Some(e) => match window {
            Some(w) => w.clamp(e),
            None => e,
        },
    };
    let max_mag = format.max_magnitude();
    let scale = 2.0f64.powi(m as i32 - 1 - shared_exponent);
    let mantissas = values
        .iter()
        .enumerate()
        .map(|(k, &v)| {
            let v = sanitize(v);
            if v == 0.0 {
                return 0;
            }
            let scaled = (v.abs() as f64) * scale;
            bits.at(k);
            let mag = round(rounding, scaled, bits).min(max_mag) as i32;
            if v < 0.0 {
                -mag
            } else {
                mag
            }
        })
        .collect();
    (shared_exponent, mantissas)
}

/// Seed `BfpGroup::dequantize_into` for a quantized group.
pub fn dequantize(shared_exponent: i32, mantissas: &[i32], format: BfpFormat) -> Vec<f32> {
    let s = 2.0f64.powi(shared_exponent - format.mantissa_bits() as i32 + 1);
    mantissas.iter().map(|&m| (m as f64 * s) as f32).collect()
}

/// Seed `fake_quantize_slice`, returning `(groups, saturated, zeros)`;
/// element `i` draws at noise offset `base + i`.
pub fn fake_quantize_slice(
    values: &mut [f32],
    fmt: BfpFormat,
    rounding: Rounding,
    bits: &mut CounterAt,
    base: u64,
    window: Option<ExponentWindow>,
) -> (usize, u64, u64) {
    let mut stats = (0usize, 0u64, 0u64);
    let max_mag = fmt.max_magnitude() as i32;
    let g = fmt.group_size();
    for (gi, chunk) in values.chunks_mut(g).enumerate() {
        (bits.first, bits.stride) = (base + (gi * g) as u64, 1);
        let (e, mantissas) = quantize(chunk, fmt, rounding, bits, window);
        stats.0 += 1;
        for &m in &mantissas {
            if m == 0 {
                stats.2 += 1;
            } else if m.abs() == max_mag {
                stats.1 += 1;
            }
        }
        chunk.copy_from_slice(&dequantize(e, &mantissas, fmt));
    }
    stats
}

/// Seed `fake_quantize_matrix` with the strided per-column gather;
/// element `(r, c)` draws at noise offset `base + r·cols + c`.
#[allow(clippy::too_many_arguments)]
pub fn fake_quantize_matrix(
    data: &mut [f32],
    rows: usize,
    cols: usize,
    along_col: bool,
    fmt: BfpFormat,
    rounding: Rounding,
    bits: &mut CounterAt,
    base: u64,
    use_window: bool,
) -> (usize, u64, u64) {
    let window = use_window.then(|| ExponentWindow::from_values(data, fmt.exponent_bits()));
    if !along_col {
        let mut stats = (0usize, 0u64, 0u64);
        for (r, row) in data.chunks_mut(cols).enumerate() {
            let row_base = base + (r * cols) as u64;
            let (g, s, z) = fake_quantize_slice(row, fmt, rounding, bits, row_base, window);
            stats.0 += g;
            stats.1 += s;
            stats.2 += z;
        }
        return stats;
    }
    let mut stats = (0usize, 0u64, 0u64);
    let max_mag = fmt.max_magnitude() as i32;
    let g = fmt.group_size();
    let mut scratch = vec![0.0f32; g];
    for col in 0..cols {
        let mut row = 0;
        while row < rows {
            let n = g.min(rows - row);
            for (k, s) in scratch[..n].iter_mut().enumerate() {
                *s = data[(row + k) * cols + col];
            }
            (bits.first, bits.stride) = (base + (row * cols + col) as u64, cols as u64);
            let (e, mantissas) = quantize(&scratch[..n], fmt, rounding, bits, window);
            stats.0 += 1;
            for &m in &mantissas {
                if m == 0 {
                    stats.2 += 1;
                } else if m.abs() == max_mag {
                    stats.1 += 1;
                }
            }
            scratch[..n].copy_from_slice(&dequantize(e, &mantissas, fmt));
            for (k, &s) in scratch[..n].iter().enumerate() {
                data[(row + k) * cols + col] = s;
            }
            row += n;
        }
    }
    stats
}
