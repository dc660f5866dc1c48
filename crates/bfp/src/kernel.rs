//! Integer BFP quantization: the element bodies every converter runs, and
//! the fake-quantize entry points.
//!
//! The explanatory path ([`crate::BfpGroup`]) models paper Fig 4 with f64
//! arithmetic: one heap-allocated group per 16 values, an `f64::powi` per
//! group and an f64 multiply per element. This module is the production
//! substrate behind it: the same align-shift-round pipeline executed as
//! integer bit manipulation on `f32::to_bits` patterns, monomorphized over
//! the rounding mode so the per-element `dyn` call of the seed
//! implementation disappears from the hot loop.
//!
//! A tensor has one converter, as in the paper (Fig 14): the pack kernels of
//! [`crate::packed`]. [`fake_quantize_matrix`] packs the matrix and writes
//! each reconstruction `mantissa as f32 * scale` back in place; only when
//! the pack refuses (a mantissa wider than 7 bits, or a NaN/∞/subnormal
//! value) does it walk the matrix group by group on the calling thread
//! ([`fake_quantize_group`]). [`fake_quantize_slice`] is that walk over one
//! row. Only the single-group entry `quantize_group_mantissas` — the
//! paper's converter model — still rounds against a serialized
//! [`BitSource`].
//!
//! The kernels are *bit-identical* to the f64 reference for every finite,
//! infinite and NaN input, every `m ∈ 1..=16`, every exponent window and
//! every stochastic noise width (`crates/bfp/tests/proptests.rs` pins this
//! across the full f32 range). The equivalence argument, spelled out in
//! DESIGN.md §7: an f32 magnitude is `sig · 2^p` with `sig < 2^24`, so the
//! scaled mantissa `|x| · 2^(m-1-E)` of the reference is the exact rational
//! `sig / 2^t` with `t = E + 1 - m - p`, and every rounding rule of
//! [`Rounding`] reduces to integer shifts against that denominator. The f64
//! reference computes the same quantity exactly except when the scaled value
//! is large enough that `2^m - 1` saturation hides the difference.
//!
//! Groups are never materialized: each group is quantized and written back
//! (or emitted into a caller-provided buffer) in one pass, and
//! [`QuantStats`] counting happens inline instead of re-scanning mantissas.

use crate::format::BfpFormat;
use crate::group::ExponentWindow;
use crate::lfsr::BitSource;
use crate::packed::{pack_rows, ColPanels, DenseRows, PackedData};
use crate::rng::{CounterBits, CounterRng};
use crate::rounding::Rounding;
use crate::tensor_quant::{GroupAxis, QuantStats};

/// Splits a finite non-zero f32 magnitude bit pattern into `(sig, p)` with
/// `|x| = sig · 2^p` and `sig < 2^24` (subnormals keep their raw fraction).
#[inline(always)]
pub(crate) fn decompose(abs_bits: u32) -> (u32, i32) {
    let exp_field = abs_bits >> 23;
    let frac = abs_bits & 0x7F_FFFF;
    if exp_field == 0 {
        (frac, -149)
    } else {
        (frac | 0x80_0000, exp_field as i32 - 150)
    }
}

/// The unbiased exponent `floor(log2 |x|)` of a decomposed magnitude.
#[inline(always)]
pub(crate) fn exponent_of_parts(sig: u32, p: i32) -> i32 {
    p + (31 - sig.leading_zeros() as i32)
}

/// Maximum exponent over a slice after saturating sanitization: NaN values
/// are ignored (they quantize to zero), infinities count as `f32::MAX`.
/// Returns `None` for an all-zero (or all-NaN) slice.
///
/// Integer twin of `exponent_of(sanitize(v))` folded with `max` — the
/// comparator tree of the paper's converter (Fig 14). Because
/// `floor(log2 |x|)` is monotone in the magnitude bit pattern, the scan
/// reduces to an integer max over sanitized patterns with a single exponent
/// decode at the end.
pub(crate) fn max_exponent(values: &[f32]) -> Option<i32> {
    let (best, _) = scan_group(values);
    (best != 0).then(|| {
        let (sig, p) = decompose(best);
        exponent_of_parts(sig, p)
    })
}

/// One pass over a group: the maximum sanitized magnitude bit pattern, and
/// whether every element is a normal number or zero (the precondition for
/// the branch-free quantization loop).
#[inline]
pub(crate) fn scan_group(values: &[f32]) -> (u32, bool) {
    let mut best = 0u32;
    let mut plain = true;
    for &v in values {
        let abs = v.to_bits() & 0x7FFF_FFFF;
        plain &= abs == 0 || abs.wrapping_sub(0x0080_0000) <= 0x7EFF_FFFF;
        let abs = if abs >= 0x7F80_0000 {
            if abs == 0x7F80_0000 {
                0x7F7F_FFFF // infinity saturates to f32::MAX
            } else {
                0 // NaN sanitizes to zero
            }
        } else {
            abs
        };
        if abs > best {
            best = abs;
        }
    }
    (best, plain)
}

/// Exact `2^e` in f64: bit-assembled for the normal range, `powi` (which is
/// also exact for powers of two) outside it. Pathological exponent windows
/// can push `e` anywhere in `i32`, including under/overflow — `powi`'s
/// `0.0`/`inf` results reproduce the reference behavior there.
#[inline(always)]
pub(crate) fn pow2_f64(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        2.0f64.powi(e)
    }
}

/// Exact `2^e` in f32 for `e ∈ [-149, 127]` (the fast-path scale range);
/// subnormal powers are assembled as a raw fraction bit.
#[inline(always)]
pub(crate) fn pow2_f32(e: i32) -> f32 {
    if e >= -126 {
        f32::from_bits(((e + 127) as u32) << 23)
    } else {
        f32::from_bits(1u32 << (e + 149))
    }
}

/// A monomorphizable rounding rule: rounds the exact rational `sig / 2^t`
/// (with `sig < 2^24`) to an unsigned integer magnitude. `t <= 0` means the
/// scaled mantissa is the exact integer `sig << -t`.
///
/// Magnitudes far beyond any representable mantissa are clamped to
/// `u64::MAX`; the caller's `min(max_mag)` saturation makes that exact.
pub(crate) trait RoundOp {
    /// Whether this rule is exactly 8-bit stochastic rounding — the paper's
    /// gradient configuration, whose noise the tensor kernels prefetch in
    /// bulk (`CounterBits::fill8`) instead of calling [`RoundOp::draw`] per
    /// element.
    const NOISE8: bool = false;

    /// Whether [`RoundOp::draw`] reads the cursor at all: `false` for the
    /// deterministic rules, whose pack kernels then skip the draw loop.
    const DRAWS: bool = true;

    fn round<B: BitSource + ?Sized>(&self, sig: u32, t: i64, bits: &mut B) -> u64;

    /// The noise one plain-path element rounds against: the draw at the
    /// cursor for a stochastic rule, `0` with the cursor untouched for a
    /// deterministic one.
    fn draw(&self, bits: &mut CounterBits) -> u32;

    /// Plain-path variant against an already-drawn `noise`, with the
    /// precondition `t >= 1` (guaranteed when the shared exponent is at
    /// least the group's natural exponent, since then `t >= 24 - m >= 8`):
    /// pure and branch-free via shift clamping — for `sig < 2^24` every
    /// clamped shift yields the same result as the exact one. The result
    /// fits u32 (`<= 2^16`).
    fn round_plain(&self, sig: u32, t: i32, noise: u32) -> u32;
}

/// The one align-shift-round-sign element body of every plain-path loop
/// (fake-quantize and pack, both axes): rounds the normal-or-zero value with
/// bit pattern `raw` against the group's `t_base = E + 1 − m` and returns
/// `(magnitude, signed mantissa)`, the magnitude saturated at `max_mag`.
#[inline(always)]
pub(crate) fn quantize_plain<R: RoundOp>(
    raw: u32,
    t_base: i32,
    max_mag: u32,
    round: &R,
    noise: u32,
) -> (u32, i32) {
    let abs = raw & 0x7FFF_FFFF;
    // Zeros keep sig = 0 and quantize to +0 without branching.
    let nonzero_mask = ((abs != 0) as u32).wrapping_neg();
    let sig = ((raw & 0x7F_FFFF) | 0x80_0000) & nonzero_mask;
    let p = (abs >> 23) as i32 - 150;
    let mag = round.round_plain(sig, t_base - p, noise).min(max_mag);
    // Branchless conditional negation by the sign bit.
    let s = (raw as i32) >> 31;
    (mag, (mag as i32 ^ s) - s)
}

/// `(t_base, scale)` of a plain group whose largest magnitude has bit
/// pattern `max_bits`: the shared exponent is the maximum's exponent field
/// (it is a normal number), raised into `window` if one is given — matrix
/// windows are anchored at the matrix-wide maximum and can only raise it,
/// keeping `E` in `[-126, 127]`. An all-zero group (`sig = 0` everywhere)
/// rounds to zero against any `t_base`; its scale is `0.0`.
#[inline(always)]
pub(crate) fn plain_group_params(
    max_bits: u32,
    m: u32,
    window: Option<ExponentWindow>,
) -> (i32, f32) {
    if max_bits == 0 {
        return (26, 0.0);
    }
    let natural = (max_bits >> 23) as i32 - 127;
    let e = window.map_or(natural, |w| w.clamp(natural));
    (e + 1 - m as i32, pow2_f32(e - m as i32 + 1))
}

/// Shifts the already-integer scaled mantissa into place (`t <= 0` case
/// shared by all modes).
#[inline(always)]
fn shift_up(sig: u32, t: i64) -> u64 {
    if t < -39 {
        u64::MAX // magnitude beyond any mantissa; saturates downstream
    } else {
        (sig as u64) << (-t as u32)
    }
}

pub(crate) struct NearestOp;
impl RoundOp for NearestOp {
    const DRAWS: bool = false;

    #[inline(always)]
    fn round<B: BitSource + ?Sized>(&self, sig: u32, t: i64, _bits: &mut B) -> u64 {
        if t <= 0 {
            shift_up(sig, t)
        } else if t >= 25 {
            0 // sig < 2^24, so sig + 2^(t-1) < 2^t
        } else {
            ((sig as u64) + (1u64 << (t - 1))) >> t
        }
    }

    #[inline(always)]
    fn draw(&self, _bits: &mut CounterBits) -> u32 {
        0
    }

    #[inline(always)]
    fn round_plain(&self, sig: u32, t: i32, _noise: u32) -> u32 {
        let t = t.min(25) as u32; // t = 25: sig + 2^24 < 2^25, result 0
        (sig + (1u32 << (t - 1))) >> t
    }
}

pub(crate) struct TruncateOp;
impl RoundOp for TruncateOp {
    const DRAWS: bool = false;

    #[inline(always)]
    fn round<B: BitSource + ?Sized>(&self, sig: u32, t: i64, _bits: &mut B) -> u64 {
        if t <= 0 {
            shift_up(sig, t)
        } else if t >= 24 {
            0
        } else {
            (sig as u64) >> t
        }
    }

    #[inline(always)]
    fn draw(&self, _bits: &mut CounterBits) -> u32 {
        0
    }

    #[inline(always)]
    fn round_plain(&self, sig: u32, t: i32, _noise: u32) -> u32 {
        sig >> t.min(24) as u32
    }
}

/// Stochastic rounding with `noise_bits`-wide noise; `noise_bits` is
/// validated once at dispatch, not per element.
pub(crate) struct StochasticOp {
    pub(crate) noise_bits: u32,
}
impl RoundOp for StochasticOp {
    #[inline(always)]
    fn round<B: BitSource + ?Sized>(&self, sig: u32, t: i64, bits: &mut B) -> u64 {
        // The reference draws noise for every non-zero element, including
        // ones the shift decides outright, so the stream stays aligned.
        let r = bits.next_bits(self.noise_bits) as u64;
        let nb = self.noise_bits as i64;
        if t <= 0 {
            shift_up(sig, t) // floor(integer + noise) = integer
        } else if t >= 64 {
            0 // sig/2^t < 2^-40 and noise < 1 - 2^-nb, so the sum is < 1
        } else if t >= nb {
            // floor((sig + r·2^(t-nb)) / 2^t); r·2^(t-nb) < 2^t <= 2^63.
            ((sig as u64) + (r << (t - nb) as u32)) >> t as u32
        } else {
            // floor((sig·2^(nb-t) + r) / 2^nb); sig·2^(nb-t) < 2^54.
            (((sig as u64) << (nb - t) as u32) + r) >> nb as u32
        }
    }

    /// Zeros draw too — the draw is positional, costs nothing downstream
    /// (the result is still 0: r < 2^nb), and keeps every element pinned to
    /// its own offset.
    #[inline(always)]
    fn draw(&self, bits: &mut CounterBits) -> u32 {
        bits.next_bits(self.noise_bits)
    }

    #[inline(always)]
    fn round_plain(&self, sig: u32, t: i32, noise: u32) -> u32 {
        let r = noise as u64;
        let nb = self.noise_bits as i64;
        // Clamping t at 63 is exact: for t >= 63 both terms shift to zero
        // (sig < 2^24 and r·2^(63-nb) + sig < 2^63 for nb <= 31).
        let t = (t as i64).min(63);
        let mag = if t >= nb {
            ((sig as u64) + (r << (t - nb) as u32)) >> t as u32
        } else {
            (((sig as u64) << (nb - t) as u32) + r) >> nb as u32
        };
        mag as u32
    }
}

/// Quantizes one group of `values` against shared exponent `e`, pushing the
/// signed integer mantissas onto `out`.
#[inline]
fn group_mantissas<R: RoundOp, B: BitSource + ?Sized>(
    values: &[f32],
    e: i32,
    m: u32,
    max_mag: u64,
    round: &R,
    bits: &mut B,
    out: &mut Vec<i32>,
) {
    let t_base = e as i64 + 1 - m as i64;
    for &v in values {
        let raw = v.to_bits();
        let abs = raw & 0x7FFF_FFFF;
        if abs == 0 || abs > 0x7F80_0000 {
            out.push(0); // zero or NaN: never a draw
            continue;
        }
        let abs = if abs == 0x7F80_0000 { 0x7F7F_FFFF } else { abs };
        let (sig, p) = decompose(abs);
        let mag = round.round(sig, t_base - p as i64, bits).min(max_mag) as i32;
        out.push(if raw >> 31 == 1 { -mag } else { mag });
    }
}

/// Fake-quantizes one group in place, folding [`QuantStats`] counting into
/// the same pass. Write-back matches `BfpGroup::dequantize_into` bit for
/// bit: `mantissa · 2^(E-m+1)` with a single rounding to f32.
///
/// Always inlined: with two call sites in [`walk_groups`], LLVM kept it out
/// of line and the slice walk ran ≈ 7 % slower per 64 Ki values.
#[inline(always)]
fn fake_quantize_group<R: RoundOp>(
    chunk: &mut [f32],
    m: u32,
    max_mag: u64,
    window: Option<ExponentWindow>,
    round: &R,
    bits: &mut CounterBits,
    stats: &mut QuantStats,
) {
    stats.groups += 1;
    let (max_bits, plain) = scan_group(chunk);
    if max_bits == 0 {
        // All-zero group: every reconstruction is +0.0.
        stats.zeros += chunk.len() as u64;
        for v in chunk {
            *v = 0.0;
        }
        return;
    }
    let natural = {
        let (sig, p) = decompose(max_bits);
        exponent_of_parts(sig, p)
    };
    let e = window.map_or(natural, |w| w.clamp(natural));
    // Fast path: every element normal or zero, the shared exponent not
    // clamped below the natural one (so every per-element shift is a right
    // shift), and the group ulp representable in f32. Covers everything
    // outside NaN/inf/subnormal inputs and pathological hand-built windows.
    if plain && e >= natural && e <= 127 {
        fake_quantize_group_plain(chunk, e, m, max_mag, round, bits, stats);
    } else {
        fake_quantize_group_general(chunk, e, m, max_mag, round, bits, stats);
    }
}

/// Stack buffer for bulk 8-bit noise prefetch; group sizes are far smaller,
/// larger groups just loop.
const NOISE_CHUNK: usize = 256;

/// Branch-free per-element loop for the all-normal-or-zero case. For 8-bit
/// stochastic rounding the group's draws are prefetched with
/// `CounterBits::fill8` (one SplitMix64 word per eight lanes), which leaves
/// the consuming loop the same auto-vectorizable shape as the deterministic
/// one (DESIGN.md §12); zeros draw too, keeping every element pinned to its
/// own offset.
///
/// Bit-equivalence with the general loop: `man as f32 * scale` performs one
/// round-to-nearest of the exact product (both factors are exact, the scale
/// `2^(E-m+1) ∈ [2^-141, 2^127]` is itself exact), which is precisely what
/// the f64 multiply followed by an f32 narrowing computes.
#[inline]
fn fake_quantize_group_plain<R: RoundOp>(
    chunk: &mut [f32],
    e: i32,
    m: u32,
    max_mag: u64,
    round: &R,
    bits: &mut CounterBits,
    stats: &mut QuantStats,
) {
    let t_base = e + 1 - m as i32;
    let max_mag = max_mag as u32;
    let scale = pow2_f32(e - m as i32 + 1);
    let mut zeros = 0u32;
    let mut saturated = 0u32;
    let mut lane = |v: &mut f32, r: u32| {
        let (mag, man) = quantize_plain(v.to_bits(), t_base, max_mag, round, r);
        zeros += (mag == 0) as u32;
        saturated += (mag == max_mag) as u32; // max_mag >= 1, disjoint from 0
        *v = man as f32 * scale;
    };
    if R::NOISE8 {
        let mut noise = [0u8; NOISE_CHUNK];
        for sub in chunk.chunks_mut(NOISE_CHUNK) {
            bits.fill8(&mut noise[..sub.len()]);
            for (v, &r) in sub.iter_mut().zip(&noise) {
                lane(v, r as u32);
            }
        }
    } else {
        for v in chunk.iter_mut() {
            lane(v, round.draw(bits));
        }
    }
    stats.zeros += zeros as u64;
    stats.saturated += saturated as u64;
}

/// General per-element loop: NaN/infinity sanitization, subnormal inputs,
/// and shared exponents pushed anywhere by a hand-built window.
fn fake_quantize_group_general<R: RoundOp>(
    chunk: &mut [f32],
    e: i32,
    m: u32,
    max_mag: u64,
    round: &R,
    bits: &mut CounterBits,
    stats: &mut QuantStats,
) {
    let t_base = e as i64 + 1 - m as i64;
    // One ulp, 2^(E-m+1), computed once per group.
    let scale = pow2_f64(e - m as i32 + 1);
    let mut zeros = 0u64;
    let mut saturated = 0u64;
    for v in chunk.iter_mut() {
        let raw = v.to_bits();
        let abs = raw & 0x7FFF_FFFF;
        if abs == 0 || abs > 0x7F80_0000 {
            bits.skip(1); // zero/NaN consumes its position, never a draw
            zeros += 1;
            *v = 0.0;
            continue;
        }
        let abs = if abs == 0x7F80_0000 { 0x7F7F_FFFF } else { abs };
        let (sig, p) = decompose(abs);
        let mag = round.round(sig, t_base - p as i64, bits).min(max_mag);
        zeros += (mag == 0) as u64;
        saturated += (mag == max_mag) as u64; // max_mag >= 1, disjoint from 0
        let man = if raw >> 31 == 1 {
            -(mag as i64)
        } else {
            mag as i64
        };
        *v = (man as f64 * scale) as f32;
    }
    stats.zeros += zeros;
    stats.saturated += saturated;
}

/// The paper's gradient configuration (`noise_bits = 8`), specialized so
/// the noise width is a compile-time constant: the tensor kernels prefetch
/// its draws in bulk ([`RoundOp::NOISE8`]) and the shift arithmetic folds
/// into branch-free u32 code.
pub(crate) struct Stochastic8Op;
impl RoundOp for Stochastic8Op {
    const NOISE8: bool = true;

    #[inline(always)]
    fn round<B: BitSource + ?Sized>(&self, sig: u32, t: i64, bits: &mut B) -> u64 {
        StochasticOp { noise_bits: 8 }.round(sig, t, bits)
    }

    #[inline(always)]
    fn draw(&self, bits: &mut CounterBits) -> u32 {
        bits.next_bits(8)
    }

    /// Bit-equivalence with `StochasticOp { noise_bits: 8 }::round_plain`:
    /// with `t ≥ 8` (the plain-path precondition `t ≥ 24 − m`; for `sig = 0`
    /// it is `t_base + 150 ≥ 9`) and noise `r < 2^8`, for `t ≤ 31` the u32
    /// form `(sig + (r << (t-8))) >> t` is the u64 form exactly
    /// (`sig + r·2^(t-8) < 2^24 + 2^31`, no overflow), and for `t ≥ 32` the
    /// true magnitude is `⌊sig/2^t + r/2^8⌋ = 0`, which the `live` mask
    /// forces.
    #[inline(always)]
    fn round_plain(&self, sig: u32, t: i32, noise: u32) -> u32 {
        debug_assert!(t >= 8 && noise < 256);
        let t = t as u32;
        let tc = t.min(31);
        let live = ((t < 32) as u32).wrapping_neg();
        ((sig + (noise << (tc - 8))) >> tc) & live
    }
}

/// Validates `Stochastic` parameters once, outside the element loop.
#[inline]
pub(crate) fn check_noise_bits(rounding: Rounding) {
    if let Rounding::Stochastic { noise_bits } = rounding {
        assert!(
            (1..=31).contains(&noise_bits),
            "noise_bits must be in 1..=31"
        );
    }
}

/// The per-group walk: every group of the row-major matrix `data`, `cols`
/// wide, quantized by itself through [`fake_quantize_group`], one after
/// another on the calling thread, with the noise cursor seeked to each
/// group's element offsets. `AlongRow` groups are row chunks (a slice is
/// one row); `AlongCol` groups are gathered down a column into a scratch
/// group and scattered back.
fn walk_groups<R: RoundOp>(
    data: &mut [f32],
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    round: &R,
    bits: &mut CounterBits,
    window: Option<ExponentWindow>,
) -> QuantStats {
    let mut stats = QuantStats::default();
    let (m, max_mag, g) = (
        fmt.mantissa_bits(),
        fmt.max_magnitude() as u64,
        fmt.group_size(),
    );
    let cols = cols.max(1); // an empty matrix has no rows to walk
    match axis {
        GroupAxis::AlongRow => {
            for (r, row) in data.chunks_mut(cols).enumerate() {
                for (gi, group) in row.chunks_mut(g).enumerate() {
                    bits.seek((r * cols + gi * g) as u64, 1);
                    fake_quantize_group(group, m, max_mag, window, round, bits, &mut stats);
                }
            }
        }
        GroupAxis::AlongCol => {
            let mut group = Vec::with_capacity(g);
            for (b, block) in data.chunks_mut(g * cols).enumerate() {
                for c in 0..cols {
                    group.clear();
                    group.extend(block.iter().skip(c).step_by(cols));
                    bits.seek((b * g * cols + c) as u64, cols as u64);
                    fake_quantize_group(&mut group, m, max_mag, window, round, bits, &mut stats);
                    for (v, &q) in block.iter_mut().skip(c).step_by(cols).zip(&group) {
                        *v = q;
                    }
                }
            }
        }
    }
    stats
}

/// Writes the reconstruction `mantissa as f32 * scale` of every element of
/// `p`, the pack of the row-major matrix `data` (`cols` wide, groups of `g`
/// along `axis`), over `data` — the expression the plain group loop
/// evaluates, so the bits it would have written.
fn write_back(data: &mut [f32], cols: usize, axis: GroupAxis, g: usize, p: &PackedData) {
    let cols = cols.max(1);
    match axis {
        GroupAxis::AlongRow => {
            let rows = data.chunks_mut(cols).zip(p.mantissas.chunks(cols));
            for ((row, mans), scales) in rows.zip(p.scales.chunks(cols.div_ceil(g))) {
                let groups = row.chunks_mut(g).zip(mans.chunks(g));
                for ((vals, mans), &scale) in groups.zip(scales) {
                    for (v, &man) in vals.iter_mut().zip(mans) {
                        *v = man as f32 * scale;
                    }
                }
            }
        }
        GroupAxis::AlongCol => {
            let rows = data.len() / cols;
            let panels = ColPanels {
                rows,
                cols,
                group: g,
            };
            for (i, row) in data.chunks_mut(cols).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    let scale = p.scales[panels.scale_index(i, j)];
                    *v = panels.mantissa(&p.mantissas, i, j) as f32 * scale;
                }
            }
        }
    }
}

/// The stochastic-rounding noise one quantization pass draws from: counter
/// noise keyed by `(seed, element offset)`. The element at linear index `i`
/// of the pass draws at `base + i` from `rng`, whichever path, order or
/// thread visits it (zeros draw too), so a pack shards across up to
/// `workers` threads bit-invisibly. Deterministic rounding modes draw
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    /// The pure noise function.
    pub rng: CounterRng,
    /// Offset of the pass's first element in the noise stream.
    pub base: u64,
    /// Upper bound on the threads the pass may shard across.
    pub workers: usize,
}

/// Evaluates `$body` with `$op` bound to the monomorphized [`RoundOp`] for
/// `$rounding` — the crate's one rounding dispatch, taken once per operand.
macro_rules! with_round_op {
    ($rounding:expr, $op:ident => $body:expr) => {
        match $rounding {
            Rounding::Nearest => {
                let $op = &NearestOp;
                $body
            }
            Rounding::Truncate => {
                let $op = &TruncateOp;
                $body
            }
            Rounding::Stochastic { noise_bits: 8 } => {
                let $op = &Stochastic8Op;
                $body
            }
            Rounding::Stochastic { noise_bits } => {
                let $op = &StochasticOp { noise_bits };
                $body
            }
        }
    };
}
pub(crate) use with_round_op;

/// Computes the signed mantissas of one group against a fixed shared
/// exponent, appending to `out` (the [`crate::BfpGroup`] construction path).
///
/// # Panics
///
/// Panics if `rounding` is `Stochastic` with `noise_bits` outside `1..=31`.
pub(crate) fn quantize_group_mantissas<B: BitSource + ?Sized>(
    values: &[f32],
    shared_exponent: i32,
    fmt: BfpFormat,
    rounding: Rounding,
    bits: &mut B,
    out: &mut Vec<i32>,
) {
    check_noise_bits(rounding);
    let (e, m, max_mag) = (
        shared_exponent,
        fmt.mantissa_bits(),
        fmt.max_magnitude() as u64,
    );
    with_round_op!(rounding, op => group_mantissas(values, e, m, max_mag, op, bits, out))
}

/// Fake-quantizes a contiguous slice in groups of `fmt.group_size()`,
/// overwriting each value with its BFP reconstruction. The final group may
/// be shorter than `g`. The walk runs on the calling thread whatever
/// `noise.workers` says.
///
/// If `window` is `Some`, the shared exponents are clamped into the `e`-bit
/// window (per-tensor reference model; see [`ExponentWindow`]).
///
/// ```
/// use fast_bfp::{fake_quantize_slice, BfpFormat, CounterRng, Noise, Rounding};
///
/// // One HighBFP group (g=16, m=4): the largest magnitude anchors the
/// // shared exponent and survives with full m-bit fidelity.
/// let mut xs: Vec<f32> = (1..=16).map(|i| 0.01 * i as f32).collect();
/// let stats = fake_quantize_slice(
///     &mut xs,
///     BfpFormat::high(),
///     Rounding::Nearest,
///     Noise { rng: CounterRng::new(0), base: 0, workers: 1 },
///     None,
/// );
/// assert_eq!(stats.groups, 1);
/// let rel_err = (xs[15] - 0.16).abs() / 0.16;
/// assert!(rel_err < 0.1);
/// ```
///
/// # Panics
///
/// Panics if `rounding` is `Stochastic` with `noise_bits` outside `1..=31`.
pub fn fake_quantize_slice(
    values: &mut [f32],
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    window: Option<ExponentWindow>,
) -> QuantStats {
    check_noise_bits(rounding);
    let (cols, mut bits) = (values.len(), CounterBits::new(noise.rng, noise.base));
    let axis = GroupAxis::AlongRow;
    with_round_op!(rounding, op => walk_groups(values, cols, axis, fmt, op, &mut bits, window))
}

/// Fake-quantizes a row-major `rows × cols` matrix with groups running
/// along `axis`. When `use_window` is set, an [`ExponentWindow`] anchored at
/// the matrix-wide max exponent models the finite `e`-bit exponent field.
///
/// The matrix is packed ([`crate::packed::pack_rows`], sharded across up to
/// `noise.workers` threads) and each value overwritten with its
/// reconstruction `mantissa as f32 * scale`. A matrix the pack refuses —
/// mantissas wider than [`crate::packed::MAX_PACKED_MANTISSA_BITS`], or a
/// NaN, infinite or subnormal value — is quantized group by group on the
/// calling thread instead, against the same noise.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`, or if `rounding` is `Stochastic`
/// with `noise_bits` outside `1..=31`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's converter signature
pub fn fake_quantize_matrix(
    data: &mut [f32],
    rows: usize,
    cols: usize,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    use_window: bool,
) -> QuantStats {
    let src = DenseRows::new(data, rows, cols);
    if let Ok(p) = pack_rows(&src, axis, fmt, rounding, noise, use_window) {
        write_back(data, cols, axis, fmt.group_size(), &p);
        return p.stats;
    }
    let window = use_window.then(|| ExponentWindow {
        reference_exponent: max_exponent(data).unwrap_or(0),
        exponent_bits: fmt.exponent_bits(),
    });
    let mut bits = CounterBits::new(noise.rng, noise.base);
    with_round_op!(rounding, op => walk_groups(data, cols, axis, fmt, op, &mut bits, window))
}
