//! Packing FP32 matrices into BFP-native operands: integer mantissas plus
//! per-group shared-exponent scales, **without materializing the
//! dequantized f32 copy**.
//!
//! The fake-quantization kernels ([`crate::kernel`]) overwrite an f32
//! buffer with the dequantized BFP values; a GEMM then re-reads that buffer
//! — two full passes over memory per operand beyond the arithmetic itself.
//! This module produces the same quantization decision in packed form: one
//! `i8` mantissa per value and one f32 scale (`2^(E-m+1)`) per group. A
//! downstream kernel reconstructs each value as `mantissa as f32 * scale`,
//! which is **bit-identical** to what the fake-quantize kernel would have
//! written, because that is literally the same expression the kernel's
//! plain path evaluates (see `fake_quantize_group_plain` and DESIGN.md §9).
//!
//! Packing is restricted to the cases where the fake-quantize kernel takes
//! its plain path for every group, so the reconstruction identity holds
//! with no further argument:
//!
//! * mantissa width `m ≤ 7`, so signed mantissas fit `i8` (`|M| ≤ 127`);
//! * every input value is a normal number or zero — NaN/infinity/subnormal
//!   inputs force the kernel's general (f64) path, whose subnormal-scale
//!   rounding an `i8 × f32` pair cannot replay.
//!
//! [`pack_matrix`] detects both conditions with a draw-free prescan and
//! returns `None` — having consumed **no** stochastic-rounding noise — so
//! the caller can fall back to the fake-quantize + dense-GEMM path with an
//! unperturbed noise source. Stochastic draws, when packing does proceed,
//! are exactly those of [`crate::fake_quantize_matrix`] under the same
//! [`Noise`]: each element draws at its own offset.

use crate::format::BfpFormat;
use crate::group::ExponentWindow;
use crate::kernel::{
    check_noise_bits, effective_workers, exponent_of_parts, pow2_f32, scan_group, stripe_rows,
    with_round_op, NearestOp, Noise, RoundOp, Stochastic8Op, StochasticOp, TruncateOp,
};
use crate::rng::CounterBits;
use crate::rounding::Rounding;
use crate::tensor_quant::{GroupAxis, QuantStats};

/// Widest mantissa packable into `i8` storage (`2^7 - 1 = 127 = i8::MAX`).
pub const MAX_PACKED_MANTISSA_BITS: u32 = 7;

/// A BFP-packed matrix: signed integer mantissas plus per-group scales.
///
/// Layout is row-major `rows × cols` for the mantissas. For
/// [`GroupAxis::AlongRow`] the scales form a `rows × ceil(cols/g)` matrix
/// (`scale_of(i, j) = scales[i * gpr + j / g]`); for
/// [`GroupAxis::AlongCol`] they form a `ceil(rows/g) × cols` matrix
/// (`scale_of(i, j) = scales[(i / g) * cols + j]`).
///
/// # Guarantees consumed by integer-domain kernels
///
/// Downstream consumers that multiply mantissas as integers (the
/// `fast_tensor` integer-domain qGEMM, DESIGN.md §11) rely on two
/// invariants that every packing path upholds:
///
/// * **Mantissa range**: `|mantissas[idx]| ≤ 2^m − 1 ≤ 127` — the value
///   `-128` never occurs, because magnitudes are clamped to the format's
///   `max_magnitude()` *before* the sign is applied. A product of two
///   mantissas therefore fits `i16` (`≤ 127² = 16 129`) and i32
///   accumulation over up to `⌊i32::MAX / 127²⌋ = 133 152` products is
///   exact.
/// * **Scale values**: every scale is either an *exact power of two*
///   (`2^(E−m+1)` with `E` a representable normal exponent, so the f32 has
///   an all-zero significand field) or exactly `0.0` for an all-zero
///   group. A product of two scales is thus itself exact in f32 (no
///   rounding), which is what lets the integer kernels factor the scales
///   out of the inner product without changing the result.
#[derive(Debug, Clone)]
pub struct PackedData {
    /// Signed mantissas, row-major, one per value.
    pub mantissas: Vec<i8>,
    /// Per-group scales `2^(E - m + 1)` (`0.0` for all-zero groups).
    pub scales: Vec<f32>,
    /// The same counters the fake-quantize kernel would have produced.
    pub stats: QuantStats,
}

/// Packs a row-major `rows × cols` matrix into BFP mantissas + scales with
/// groups along `axis`, or returns `None` when the packed fast path cannot
/// reproduce the fake-quantize kernel's bits (mantissa wider than
/// [`MAX_PACKED_MANTISSA_BITS`], or any non-normal non-zero input value).
///
/// A refusal consumes nothing — `noise` is positional — so the caller's
/// [`crate::fake_quantize_matrix`] fallback over the same [`Noise`]
/// quantizes exactly as if packing had never been tried. When packing
/// proceeds, every element draws what the fake-quantize kernel would have
/// drawn for it.
///
/// When `use_window` is set, the shared exponents are clamped into an
/// `e`-bit [`ExponentWindow`] anchored at the matrix-wide maximum exponent,
/// exactly as [`crate::fake_quantize_matrix`] does.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`, or if `rounding` is `Stochastic`
/// with `noise_bits` outside `1..=31`.
#[allow(clippy::too_many_arguments)] // mirrors the converter signature
pub fn pack_matrix(
    data: &[f32],
    rows: usize,
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    use_window: bool,
) -> Option<PackedData> {
    assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
    check_noise_bits(rounding);
    if fmt.mantissa_bits() > MAX_PACKED_MANTISSA_BITS {
        return None;
    }
    // Draw-free prescan: the packed path requires every group to take the
    // fake-quantize kernel's plain path, which holds exactly when every
    // value is a normal number or zero (window clamping only ever *raises*
    // a group exponent toward the matrix maximum, so `e ∈ [natural, 127]`
    // is automatic). The scan also yields the matrix maximum for the window.
    let (max_bits, plain) = scan_group(data);
    if !plain {
        return None;
    }
    let window = use_window.then(|| ExponentWindow {
        reference_exponent: if max_bits == 0 {
            0
        } else {
            let (sig, p) = crate::kernel::decompose(max_bits);
            exponent_of_parts(sig, p)
        },
        exponent_bits: fmt.exponent_bits(),
    });
    Some(
        with_round_op!(rounding, op => pack_sharded(data, rows, cols, axis, fmt, op, noise, window)),
    )
}

/// Packing sharded across `noise.workers` threads in row stripes
/// ([`stripe_rows`]). Stripe outputs concatenate exactly because both
/// mantissa and scale layouts are row-major in the striped dimension.
#[allow(clippy::too_many_arguments)]
fn pack_sharded<R: RoundOp + Sync>(
    data: &[f32],
    rows: usize,
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    round: &R,
    noise: Noise,
    window: Option<ExponentWindow>,
) -> PackedData {
    let Noise { rng, base, workers } = noise;
    let workers = effective_workers(workers, data.len());
    if workers == 1 {
        let mut bits = CounterBits::new(rng, base);
        return pack_kernel(data, rows, cols, axis, fmt, round, &mut bits, window);
    }
    let stripe_rows = stripe_rows(rows, axis, fmt, workers);
    let parts: Vec<PackedData> = std::thread::scope(|scope| {
        let handles: Vec<_> = data
            .chunks(stripe_rows * cols)
            .enumerate()
            .map(|(i, stripe)| {
                let origin = base + (i * stripe_rows * cols) as u64;
                scope.spawn(move || {
                    let mut bits = CounterBits::new(rng, origin);
                    let srows = stripe.len() / cols;
                    pack_kernel(stripe, srows, cols, axis, fmt, round, &mut bits, window)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pack worker panicked"))
            .collect()
    });
    let mut parts = parts.into_iter();
    let mut out = parts.next().expect("at least one stripe");
    for p in parts {
        out.mantissas.extend_from_slice(&p.mantissas);
        out.scales.extend_from_slice(&p.scales);
        out.stats.merge(p.stats);
    }
    out
}

#[allow(clippy::too_many_arguments)] // monomorphization split of the above
fn pack_kernel<R: RoundOp>(
    data: &[f32],
    rows: usize,
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
) -> PackedData {
    match axis {
        GroupAxis::AlongRow => pack_along_row(data, rows, cols, fmt, round, bits, window),
        GroupAxis::AlongCol => pack_along_col_vertical(data, rows, cols, fmt, round, bits, window),
    }
}

/// Packs one contiguous group of plain (normal-or-zero) values, returning
/// the group scale and appending per-element counters to `stats`. Mirrors
/// `fake_quantize_group_plain` arithmetic exactly; the reconstruction
/// `man as f32 * scale` therefore reproduces its written f32s bit for bit.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the fake-quantize group kernel
fn pack_group_plain<R: RoundOp>(
    values: &[f32],
    m: u32,
    max_mag: u32,
    window: Option<ExponentWindow>,
    round: &R,
    bits: &mut CounterBits,
    stats: &mut QuantStats,
    out: &mut [i8],
) -> f32 {
    stats.groups += 1;
    let mut group_max = 0u32;
    for &v in values {
        let abs = v.to_bits() & 0x7FFF_FFFF;
        if abs > group_max {
            group_max = abs;
        }
    }
    if group_max == 0 {
        stats.zeros += values.len() as u64;
        out[..values.len()].fill(0);
        return 0.0;
    }
    let natural = (group_max >> 23) as i32 - 127;
    let e = window.map_or(natural, |w| w.clamp(natural));
    let t_base = e + 1 - m as i32;
    let scale = pow2_f32(e - m as i32 + 1);
    let mut zeros = 0u32;
    let mut saturated = 0u32;
    for (v, o) in values.iter().zip(out.iter_mut()) {
        let raw = v.to_bits();
        let abs = raw & 0x7FFF_FFFF;
        let nonzero_mask = ((abs != 0) as u32).wrapping_neg();
        let sig = ((raw & 0x7F_FFFF) | 0x80_0000) & nonzero_mask;
        let p = (abs >> 23) as i32 - 150;
        let mag = round.round_aligned(sig, t_base - p, bits).min(max_mag);
        zeros += (mag == 0) as u32;
        saturated += (mag == max_mag) as u32;
        let s = (raw as i32) >> 31;
        *o = ((mag as i32 ^ s) - s) as i8;
    }
    stats.zeros += zeros as u64;
    stats.saturated += saturated as u64;
    scale
}

/// `AlongRow` packing: groups are contiguous within each row.
fn pack_along_row<R: RoundOp>(
    data: &[f32],
    rows: usize,
    cols: usize,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
) -> PackedData {
    let g = fmt.group_size();
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u32;
    let gpr = cols.div_ceil(g).max(1);
    let mut mans = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows * gpr];
    let mut stats = QuantStats::default();
    for (r, row) in data.chunks(cols).enumerate() {
        for (gi, chunk) in row.chunks(g).enumerate() {
            bits.seek((r * cols + gi * g) as u64, 1);
            let scale = pack_group_plain(
                chunk,
                m,
                max_mag,
                window,
                round,
                bits,
                &mut stats,
                &mut mans[r * cols + gi * g..r * cols + gi * g + chunk.len()],
            );
            scales[r * gpr + gi] = scale;
        }
    }
    PackedData {
        mantissas: mans,
        scales,
        stats,
    }
}

/// `AlongCol` packing: lane-wise over row blocks (the same traversal as the
/// fake-quantize kernel's vertical path — element order is free because
/// nearest/truncate rounding draws no bits, and stochastic rounding keys its
/// noise on element offsets).
fn pack_along_col_vertical<R: RoundOp>(
    data: &[f32],
    rows: usize,
    cols: usize,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
) -> PackedData {
    let g = fmt.group_size();
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u32;
    let mut mans = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows.div_ceil(g).max(1) * cols];
    let mut stats = QuantStats::default();
    let mut col_max = vec![0u32; cols];
    let mut t_base = vec![0i32; cols];
    let mut zeros = vec![0u32; cols];
    let mut saturated = vec![0u32; cols];
    let mut row0 = 0;
    while row0 < rows {
        let rb = g.min(rows - row0);
        col_max[..cols].fill(0);
        for r in row0..row0 + rb {
            for (c, &v) in data[r * cols..(r + 1) * cols].iter().enumerate() {
                let abs = v.to_bits() & 0x7FFF_FFFF;
                if abs > col_max[c] {
                    col_max[c] = abs;
                }
            }
        }
        stats.groups += cols;
        let scale_row = &mut scales[(row0 / g) * cols..(row0 / g) * cols + cols];
        for c in 0..cols {
            if col_max[c] == 0 {
                t_base[c] = 26; // all-zero group: sig = 0 everywhere
                scale_row[c] = 0.0;
            } else {
                let natural = (col_max[c] >> 23) as i32 - 127;
                let e = window.map_or(natural, |w| w.clamp(natural));
                t_base[c] = e + 1 - m as i32;
                scale_row[c] = pow2_f32(e - m as i32 + 1);
            }
        }
        for r in row0..row0 + rb {
            bits.seek((r * cols) as u64, 1);
            let row = &data[r * cols..(r + 1) * cols];
            let man_row = &mut mans[r * cols..(r + 1) * cols];
            for (c, (&v, o)) in row.iter().zip(man_row.iter_mut()).enumerate() {
                let raw = v.to_bits();
                let abs = raw & 0x7FFF_FFFF;
                let nonzero_mask = ((abs != 0) as u32).wrapping_neg();
                let sig = ((raw & 0x7F_FFFF) | 0x80_0000) & nonzero_mask;
                let p = (abs >> 23) as i32 - 150;
                let mag = round.round_aligned(sig, t_base[c] - p, bits).min(max_mag);
                zeros[c] += (mag == 0) as u32;
                saturated[c] += (mag == max_mag) as u32;
                let s = (raw as i32) >> 31;
                *o = ((mag as i32 ^ s) - s) as i8;
            }
        }
        row0 += rb;
    }
    stats.zeros += zeros.iter().map(|&z| z as u64).sum::<u64>();
    stats.saturated += saturated.iter().map(|&z| z as u64).sum::<u64>();
    PackedData {
        mantissas: mans,
        scales,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::fake_quantize_matrix;
    use crate::rng::CounterRng;
    use rand::{Rng, SeedableRng};

    fn noise() -> Noise {
        Noise {
            rng: CounterRng::new(0xACE1),
            base: 5,
            workers: 1,
        }
    }

    fn dequantize(p: &PackedData, rows: usize, cols: usize, axis: GroupAxis, g: usize) -> Vec<f32> {
        let gpr = cols.div_ceil(g).max(1);
        (0..rows * cols)
            .map(|idx| {
                let (i, j) = (idx / cols, idx % cols);
                let scale = match axis {
                    GroupAxis::AlongRow => p.scales[i * gpr + j / g],
                    GroupAxis::AlongCol => p.scales[(i / g) * cols + j],
                };
                p.mantissas[idx] as f32 * scale
            })
            .collect()
    }

    fn rand_data(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| rng.gen_range(-4.0f32..4.0) * 2.0f32.powi(rng.gen_range(-12..6)))
            .collect()
    }

    #[test]
    fn packed_reconstruction_matches_fake_quantize_bitwise() {
        for (rows, cols) in [(1usize, 1usize), (3, 17), (16, 16), (7, 33)] {
            let data = rand_data(rows * cols, (rows * 31 + cols) as u64);
            for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
                for (fmt, rounding) in [
                    (BfpFormat::high(), Rounding::Nearest),
                    (BfpFormat::low(), Rounding::Truncate),
                    (BfpFormat::new(5, 7, 8).unwrap(), Rounding::Nearest),
                    (BfpFormat::high(), Rounding::STOCHASTIC8),
                    (BfpFormat::mid(), Rounding::Stochastic { noise_bits: 3 }),
                ] {
                    for windowed in [false, true] {
                        let mut want = data.clone();
                        fake_quantize_matrix(
                            &mut want,
                            rows,
                            cols,
                            axis,
                            fmt,
                            rounding,
                            noise(),
                            windowed,
                        );
                        let packed =
                            pack_matrix(&data, rows, cols, axis, fmt, rounding, noise(), windowed)
                                .expect("plain data must pack");
                        let got = dequantize(&packed, rows, cols, axis, fmt.group_size());
                        for (idx, (w, g)) in want.iter().zip(&got).enumerate() {
                            assert_eq!(
                                w.to_bits(),
                                g.to_bits(),
                                "({rows}x{cols}) {axis:?} {fmt} {rounding:?} win={windowed} @{idx}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stats_match_fake_quantize() {
        let data = rand_data(8 * 24, 5);
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            let mut buf = data.clone();
            let want = fake_quantize_matrix(
                &mut buf,
                8,
                24,
                axis,
                BfpFormat::low(),
                Rounding::Nearest,
                noise(),
                false,
            );
            let packed = pack_matrix(
                &data,
                8,
                24,
                axis,
                BfpFormat::low(),
                Rounding::Nearest,
                noise(),
                false,
            )
            .unwrap();
            assert_eq!(packed.stats, want, "{axis:?}");
        }
    }

    #[test]
    fn non_plain_inputs_refuse_to_pack() {
        for bad in [f32::NAN, f32::INFINITY, 1e-40f32] {
            let data = vec![1.0f32, bad, 0.5, -2.0];
            let got = pack_matrix(
                &data,
                2,
                2,
                GroupAxis::AlongRow,
                BfpFormat::high(),
                Rounding::STOCHASTIC8,
                noise(),
                false,
            );
            assert!(got.is_none(), "{bad} must force the fallback");
        }
    }

    #[test]
    fn wide_mantissas_refuse_to_pack() {
        let data = vec![1.0f32; 16];
        let fmt = BfpFormat::new(16, 8, 3).unwrap();
        assert!(pack_matrix(
            &data,
            1,
            16,
            GroupAxis::AlongRow,
            fmt,
            Rounding::Nearest,
            noise(),
            false,
        )
        .is_none());
    }

    #[test]
    fn packed_invariants_hold_for_integer_kernels() {
        // The integer-domain qGEMM (fast_tensor, DESIGN.md §11) multiplies
        // mantissas as i8×i8 and multiplies scale pairs in f32. That is only
        // exact if |man| ≤ 127 (never -128) and every scale is an exact
        // power of two or 0.0 — pin both invariants across formats,
        // roundings and axes.
        let data = rand_data(24 * 24, 17);
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            for (fmt, rounding) in [
                (BfpFormat::high(), Rounding::Nearest),
                (BfpFormat::mid(), Rounding::STOCHASTIC8),
                (BfpFormat::low(), Rounding::Truncate),
                (BfpFormat::new(7, 7, 5).unwrap(), Rounding::Nearest),
            ] {
                let packed =
                    pack_matrix(&data, 24, 24, axis, fmt, rounding, noise(), true).unwrap();
                let cap = fmt.max_magnitude() as i16;
                assert!(cap <= 127);
                for &m in &packed.mantissas {
                    assert!((m as i16).abs() <= cap, "{axis:?} {fmt}: mantissa {m}");
                }
                for &s in &packed.scales {
                    let pow2 = s > 0.0 && s.to_bits() & 0x7F_FFFF == 0;
                    assert!(s == 0.0 || pow2, "{axis:?} {fmt}: scale {s} not 2^k or 0");
                }
            }
        }
    }

    #[test]
    fn all_zero_matrix_packs_to_zero_scales() {
        let data = vec![0.0f32; 32];
        let packed = pack_matrix(
            &data,
            2,
            16,
            GroupAxis::AlongRow,
            BfpFormat::high(),
            Rounding::Nearest,
            noise(),
            true,
        )
        .unwrap();
        assert!(packed.scales.iter().all(|&s| s == 0.0));
        assert!(packed.mantissas.iter().all(|&m| m == 0));
        assert_eq!(packed.stats.zeros, 32);
    }
}
