//! Counter-noise stochastic rounding: order-independence, worker
//! invariance, pack/dense bit-identity, and mean-unbiasedness (DESIGN.md
//! §12).
//!
//! The load-bearing property: the noise an element receives is a pure
//! function of `(seed, base + linear offset)`, so quantizing a tensor in
//! any segment order, on any worker count, through any kernel path
//! (slice/matrix, AlongRow/AlongCol, packed/dense) yields bitwise
//! identical results.

use fast_bfp::packed::{pack_matrix, ColPanels, PackedData};
use fast_bfp::{
    fake_quantize_matrix, fake_quantize_slice, BfpFormat, CounterRng, GroupAxis, Noise, Rounding,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

#[path = "support/seed_reference.rs"]
#[allow(dead_code)] // the group-level entries serve `proptests.rs`
mod seed_reference;
use seed_reference::CounterAt;

const SR8: Rounding = Rounding::Stochastic { noise_bits: 8 };

/// Counter noise for a pass whose first element sits at `base`.
fn counter(rng: CounterRng, base: u64, workers: usize) -> Noise {
    Noise { rng, base, workers }
}

/// The 10-format zoo: the paper's reference settings plus group-size /
/// mantissa-width extremes that exercise partial groups, i8-unpackable
/// widths, and single-element groups.
fn format_zoo() -> Vec<BfpFormat> {
    vec![
        BfpFormat::low(),
        BfpFormat::mid(),
        BfpFormat::high(),
        BfpFormat::msfp12(),
        BfpFormat::new(16, 7, 3).unwrap(),
        BfpFormat::new(16, 12, 3).unwrap(),
        BfpFormat::new(4, 4, 3).unwrap(),
        BfpFormat::new(5, 7, 8).unwrap(),
        BfpFormat::new(1, 4, 3).unwrap(),
        BfpFormat::new(64, 4, 3).unwrap(),
    ]
}

fn rand_data(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-4.0f32..4.0) * 2.0f32.powi(rng.gen_range(-12..6)))
        .collect()
}

/// f32 values including the awkward classes (zero, subnormal, inf, NaN)
/// that route groups down the general f64 path.
fn any_quant_input() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -100.0f32..100.0,
        2 => (-100.0f32..100.0).prop_map(|x| x / 1e6),
        1 => Just(0.0f32),
        1 => Just(1e-40f32), // subnormal
        1 => Just(f32::INFINITY),
        1 => Just(f32::NAN),
    ]
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Quantizing a slice in one pass equals quantizing its group-aligned
    /// segments in *reverse* order (each segment based at its own start
    /// offset): draws are positional, not sequential.
    #[test]
    fn slice_segments_quantize_identically_in_any_order(
        data in prop::collection::vec(any_quant_input(), 1..300),
        seed in 0u64..=u64::MAX,
        fmt_idx in 0usize..10,
        nb in prop::sample::select(vec![1u32, 3, 8, 16]),
    ) {
        let fmt = format_zoo()[fmt_idx];
        let rounding = Rounding::Stochastic { noise_bits: nb };
        let rng = CounterRng::new(seed);
        let mut whole = data.clone();
        fake_quantize_slice(&mut whole, fmt, rounding, counter(rng, 0, 1), None);

        // Split at group boundaries, visit segments back to front.
        let g = fmt.group_size();
        let mut pieced = data.clone();
        let seg = (g * 3).max(g);
        let starts: Vec<usize> = (0..data.len()).step_by(seg).collect();
        for &s in starts.iter().rev() {
            let end = (s + seg).min(data.len());
            fake_quantize_slice(
                &mut pieced[s..end], fmt, rounding, counter(rng, s as u64, 1), None,
            );
        }
        prop_assert_eq!(bits_of(&whole), bits_of(&pieced));
    }

    /// Matrix counter quantization equals quantizing its row stripes
    /// independently in shuffled order (stripes aligned to group_size rows
    /// for AlongCol), for both axes, through NaN/inf/subnormal fallbacks.
    #[test]
    fn matrix_row_stripes_quantize_identically(
        raw in prop::collection::vec(any_quant_input(), 12..240),
        cols in 1usize..12,
        seed in 0u64..=u64::MAX,
        along_col in prop::sample::select(vec![false, true]),
    ) {
        let fmt = BfpFormat::new(4, 4, 3).unwrap();
        let rows = (raw.len() / cols).max(1);
        let data = &raw[..rows * cols];
        let axis = if along_col { GroupAxis::AlongCol } else { GroupAxis::AlongRow };
        let rng = CounterRng::new(seed);
        let mut whole = data.to_vec();
        fake_quantize_matrix(&mut whole, rows, cols, axis, fmt, SR8, counter(rng, 0, 1), false);

        // Stripe rows: group-aligned for AlongCol so block decomposition
        // (and per-column shared exponents) match the unsharded kernel.
        let granule = match axis {
            GroupAxis::AlongRow => 1,
            GroupAxis::AlongCol => fmt.group_size(),
        };
        let mut pieced = data.to_vec();
        let starts: Vec<usize> = (0..rows).step_by(granule).collect();
        for &r0 in starts.iter().rev() {
            let r1 = (r0 + granule).min(rows);
            fake_quantize_matrix(
                &mut pieced[r0 * cols..r1 * cols],
                r1 - r0,
                cols,
                axis,
                fmt,
                SR8,
                counter(rng, (r0 * cols) as u64, 1),
                false,
            );
        }
        prop_assert_eq!(bits_of(&whole), bits_of(&pieced));
    }
}

/// Worker counts 1/2/3/8/64 (and the `Parallelism` default) produce
/// bitwise identical slice quantization — sharding is invisible.
#[test]
fn slice_workers_are_bit_invisible() {
    let n = 1 << 17; // large enough that 8 workers actually engage
    let data = rand_data(n, 11);
    let rng = CounterRng::new(0xFEED);
    for fmt in [BfpFormat::high(), BfpFormat::new(5, 7, 8).unwrap()] {
        let mut reference = data.clone();
        fake_quantize_slice(&mut reference, fmt, SR8, counter(rng, 7, 1), None);
        for workers in [2usize, 3, 8, 64] {
            let mut buf = data.clone();
            let stats = fake_quantize_slice(&mut buf, fmt, SR8, counter(rng, 7, workers), None);
            assert_eq!(
                bits_of(&reference),
                bits_of(&buf),
                "{fmt} workers={workers}"
            );
            assert!(stats.groups as usize >= n / fmt.group_size());
        }
    }
}

/// Worker counts are equally invisible for matrix quantization, both axes,
/// with the exponent window enabled (the window is resolved matrix-wide
/// before sharding).
#[test]
fn matrix_workers_are_bit_invisible() {
    let (rows, cols) = (512, 256);
    let data = rand_data(rows * cols, 23);
    let rng = CounterRng::new(1);
    for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
        for use_window in [false, true] {
            let mut reference = data.clone();
            fake_quantize_matrix(
                &mut reference,
                rows,
                cols,
                axis,
                BfpFormat::high(),
                SR8,
                counter(rng, 0, 1),
                use_window,
            );
            for workers in [2usize, 3, 8, 64] {
                let mut buf = data.clone();
                fake_quantize_matrix(
                    &mut buf,
                    rows,
                    cols,
                    axis,
                    BfpFormat::high(),
                    SR8,
                    counter(rng, 0, workers),
                    use_window,
                );
                assert_eq!(
                    bits_of(&reference),
                    bits_of(&buf),
                    "{axis:?} window={use_window} workers={workers}"
                );
            }
        }
    }
}

fn dequantize(p: &PackedData, rows: usize, cols: usize, axis: GroupAxis, g: usize) -> Vec<f32> {
    let gpr = cols.div_ceil(g).max(1);
    let panels = ColPanels {
        rows,
        cols,
        group: g,
    };
    (0..rows * cols)
        .map(|idx| {
            let (i, j) = (idx / cols, idx % cols);
            let (man, scale) = match axis {
                GroupAxis::AlongRow => (p.mantissas[idx], p.scales[i * gpr + j / g]),
                GroupAxis::AlongCol => (
                    panels.mantissa(&p.mantissas, i, j),
                    p.scales[panels.scale_index(i, j)],
                ),
            };
            man as f32 * scale
        })
        .collect()
}

/// The packed output is itself worker-invariant (its agreement with the
/// dense kernel is pinned by `pack_and_dense_agree_through_one_call`). Needs
/// a matrix big enough for sharding to engage.
#[test]
fn counter_packing_is_worker_invariant() {
    let rng = CounterRng::new(0xACE1);
    let (rows, cols) = (1024, 256);
    let data = rand_data(rows * cols, 37);
    for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
        let reference = pack_matrix(
            &data,
            rows,
            cols,
            axis,
            BfpFormat::high(),
            SR8,
            counter(rng, 0, 1),
            true,
        )
        .unwrap();
        for workers in [2usize, 8] {
            let p = pack_matrix(
                &data,
                rows,
                cols,
                axis,
                BfpFormat::high(),
                SR8,
                counter(rng, 0, workers),
                true,
            )
            .unwrap();
            assert_eq!(
                reference.mantissas, p.mantissas,
                "{axis:?} workers={workers}"
            );
            assert_eq!(
                bits_of(&reference.scales),
                bits_of(&p.scales),
                "{axis:?} workers={workers}"
            );
            assert_eq!(reference.stats, p.stats, "{axis:?} workers={workers}");
        }
    }
}

/// Over the format zoo × both axes, `pack_matrix` reconstructed to dense and
/// `fake_quantize_matrix` both equal the seed transcription bitwise, with
/// equal `QuantStats`, under the same [`Noise`]; NaN/subnormal inputs or
/// wide mantissas are refused by the pack (and `fake_quantize_matrix` then
/// walks group by group against that same positional noise).
#[test]
fn pack_and_dense_agree_through_one_call() {
    let (rows, cols) = (19, 23);
    let plain = rand_data(rows * cols, 61);
    let with = |at: usize, v: f32| {
        let mut d = plain.clone();
        d[at] = v;
        d
    };
    let inputs = [
        ("plain", plain.clone()),
        ("nan", with(40, f32::NAN)),
        ("subnormal", with(207, 1e-40)),
    ];
    let noise = counter(CounterRng::new(0xBEEF), 77, 1);
    for fmt in format_zoo() {
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            for (tag, data) in &inputs {
                for rounding in [
                    SR8,
                    Rounding::Stochastic { noise_bits: 3 },
                    Rounding::Nearest,
                ] {
                    let ctx = format!("{fmt} {axis:?} {tag} {rounding:?}");
                    let mut want = data.clone();
                    let (groups, saturated, zeros) = seed_reference::fake_quantize_matrix(
                        &mut want,
                        rows,
                        cols,
                        axis == GroupAxis::AlongCol,
                        fmt,
                        rounding,
                        &mut CounterAt::new(noise.rng),
                        noise.base,
                        true,
                    );
                    let mut dense = data.clone();
                    let stats = fake_quantize_matrix(
                        &mut dense, rows, cols, axis, fmt, rounding, noise, true,
                    );
                    assert_eq!(bits_of(&dense), bits_of(&want), "{ctx}");
                    assert_eq!(
                        (stats.groups, stats.saturated, stats.zeros),
                        (groups, saturated, zeros),
                        "{ctx}"
                    );
                    let packed = pack_matrix(data, rows, cols, axis, fmt, rounding, noise, true);
                    let unpackable = fmt.mantissa_bits() > 7 || *tag != "plain";
                    assert_eq!(packed.is_err(), unpackable, "{ctx}");
                    let Ok(p) = packed else { continue };
                    let got = dequantize(&p, rows, cols, axis, fmt.group_size());
                    assert_eq!(bits_of(&want), bits_of(&got), "{ctx}");
                    assert_eq!(stats, p.stats, "{ctx}");
                }
            }
        }
    }
}

/// `(sig, p)` of a positive finite f32: `|x| = sig · 2^p`, `sig < 2^24`.
fn decompose(x: f32) -> (u32, i32) {
    let bits = x.to_bits() & 0x7FFF_FFFF;
    let (exp_field, frac) = (bits >> 23, bits & 0x7F_FFFF);
    if exp_field == 0 {
        (frac, -149)
    } else {
        (frac | 0x80_0000, exp_field as i32 - 150)
    }
}

/// Exact analytic E[quantized x] for stochastic rounding with `nb`-bit
/// noise against shared exponent `e`: enumerates all `2^nb` equiprobable
/// draws through the same integer formula as the kernel.
fn analytic_expectation(x: f32, e: i32, fmt: BfpFormat, nb: u32) -> f64 {
    let m = fmt.mantissa_bits();
    let max_mag = fmt.max_magnitude() as u64;
    let (sig, p) = decompose(x);
    let t = e as i64 + 1 - m as i64 - p as i64;
    let scale = 2.0f64.powi(e - m as i32 + 1);
    let mut acc = 0.0f64;
    for r in 0..1u64 << nb {
        let mag = if t <= 0 {
            (sig as u64) << (-t).min(39) as u32
        } else if t >= 64 {
            0
        } else if t >= nb as i64 {
            ((sig as u64) + (r << (t - nb as i64) as u32)) >> t as u32
        } else {
            (((sig as u64) << (nb as i64 - t) as u32) + r) >> nb
        };
        acc += mag.min(max_mag) as f64;
    }
    let mean_mag = acc / (1u64 << nb) as f64;
    if x < 0.0 {
        -mean_mag * scale
    } else {
        mean_mag * scale
    }
}

/// Mean-unbiasedness gate over the format zoo: averaging counter-SR
/// quantizations of the same group across K distinct offsets converges to
/// the exact f64 expectation (which in the unsaturated interior is the
/// value itself — paper Theorem 1).
#[test]
fn counter_sr_is_mean_unbiased_across_offsets() {
    const K: usize = 4096;
    for fmt in format_zoo() {
        let g = fmt.group_size();
        let nb = 8u32;
        // A group anchored by its first element; the rest probe interior
        // magnitudes (no saturation, no zero).
        let mut group = vec![0.0f32; g];
        group[0] = 1.75;
        for (i, v) in group.iter_mut().enumerate().skip(1) {
            *v = 0.11 + 0.07 * (i as f32 % 13.0) * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let e = 0; // exponent of 1.75
        let rng = CounterRng::new(0xBEEF);
        let mut sums = vec![0.0f64; g];
        for k in 0..K {
            let mut buf = group.clone();
            fake_quantize_slice(
                &mut buf,
                fmt,
                Rounding::Stochastic { noise_bits: nb },
                counter(rng, (k * g) as u64, 1),
                None,
            );
            for (s, &q) in sums.iter_mut().zip(&buf) {
                *s += q as f64;
            }
        }
        let ulp = 2.0f64.powi(e - fmt.mantissa_bits() as i32 + 1);
        for (i, (&x, &s)) in group.iter().zip(&sums).enumerate() {
            let want = analytic_expectation(x, e, fmt, nb);
            let got = s / K as f64;
            // Empirical std of the mean is <= 0.5·ulp/sqrt(K) ≈ 0.008·ulp;
            // 0.08·ulp is a 10-sigma gate (deterministic given the seed).
            assert!(
                (got - want).abs() <= 0.08 * ulp,
                "{fmt} elem {i}: x={x} want {want} got {got} (ulp {ulp})"
            );
        }
    }
}

/// The statelessness that powers everything: `CounterRng` is `Copy`, and
/// reusing the same `(seed, base)` replays the identical quantization —
/// the property serving freeze and checkpoint resume rely on.
#[test]
fn same_seed_and_base_replays_bitwise() {
    let data = rand_data(2048, 55);
    let rng = CounterRng::new(42);
    let mut a = data.clone();
    let mut b = data.clone();
    fake_quantize_slice(&mut a, BfpFormat::high(), SR8, counter(rng, 1000, 1), None);
    fake_quantize_slice(&mut b, BfpFormat::high(), SR8, counter(rng, 1000, 1), None);
    assert_eq!(bits_of(&a), bits_of(&b));
    // ... while a different base or seed decorrelates.
    let mut c = data.clone();
    fake_quantize_slice(&mut c, BfpFormat::high(), SR8, counter(rng, 1001, 1), None);
    assert_ne!(bits_of(&a), bits_of(&c));
    let mut d = data.clone();
    fake_quantize_slice(
        &mut d,
        BfpFormat::high(),
        SR8,
        counter(CounterRng::new(43), 1000, 1),
        None,
    );
    assert_ne!(bits_of(&a), bits_of(&d));
}
