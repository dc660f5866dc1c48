//! Property-based tests for the BFP numerics core.
//!
//! These pin down the invariants the rest of the workspace builds on:
//! quantization error bounds, chunk-serial/direct dot-product equivalence,
//! truncation semantics, and the stochastic-rounding expectation property of
//! paper Theorem 1.

use fast_bfp::dot::{dot_chunked, dot_dequantized, dot_f32};
use fast_bfp::packed::{pack_matrix, pack_rows, ColPanels, FillRows, PackedData};
use fast_bfp::{
    exponent_of, relative_improvement, BfpFormat, BfpGroup, BitSource, ChunkedGroup, CounterRng,
    GroupAxis, Lfsr16, Noise, RngBits, Rounding,
};
use fast_tensor::{im2col, Conv2dDims, Im2colRows, Tensor};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::SeedableRng;

#[path = "support/r_oracle.rs"]
mod r_oracle;
use r_oracle::relative_improvement_oracle;

fn finite_f32(mag: f32) -> impl Strategy<Value = f32> {
    prop_oneof![
        5 => -mag..mag,
        1 => Just(0.0f32),
        1 => (-mag..mag).prop_map(|x| x / 1e6),
    ]
}

fn group_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(finite_f32(100.0), 1..=len)
}

proptest! {
    /// Nearest-rounding quantization error is at most half an ulp of the
    /// group scale (the error bound behind paper Fig 4's pipeline).
    #[test]
    fn quantization_error_within_half_ulp(xs in group_values(16), m in 2u32..=8) {
        let fmt = BfpFormat::new(16, m, 8).unwrap();
        let g = BfpGroup::quantize_nearest(&xs, fmt);
        let ulp = g.scale();
        for (i, &x) in xs.iter().enumerate() {
            let q = g.value(i) as f64;
            // Saturated values can deviate more; exclude the max magnitude.
            if g.mantissas()[i].unsigned_abs() as i64 == fmt.max_magnitude() {
                continue;
            }
            prop_assert!((q - x as f64).abs() <= 0.5 * ulp + 1e-12,
                "x={x} q={q} ulp={ulp}");
        }
    }

    /// Quantization never increases the max magnitude beyond one ulp and
    /// preserves signs of values that survive truncation.
    #[test]
    fn quantization_preserves_sign_and_scale(xs in group_values(16)) {
        let fmt = BfpFormat::high();
        let g = BfpGroup::quantize_nearest(&xs, fmt);
        for (i, &x) in xs.iter().enumerate() {
            let q = g.value(i);
            if q != 0.0 {
                prop_assert_eq!(q.is_sign_negative(), x < 0.0, "x={} q={}", x, q);
            }
            prop_assert!(q.abs() as f64 <= x.abs() as f64 + g.scale());
        }
    }

    /// Idempotence: quantizing already-quantized data is the identity.
    #[test]
    fn quantization_is_idempotent(xs in group_values(16), m in 2u32..=8) {
        let fmt = BfpFormat::new(16, m, 8).unwrap();
        let once = BfpGroup::quantize_nearest(&xs, fmt).dequantize();
        let twice = BfpGroup::quantize_nearest(&once, fmt).dequantize();
        prop_assert_eq!(once, twice);
    }

    /// Chunk-serial fMAC arithmetic is bit-identical to the direct integer
    /// dot product, and both match the dequantized f32 dot product
    /// (the fake-quantization fidelity argument of DESIGN.md §3).
    #[test]
    fn dot_products_agree(
        xs in prop::collection::vec(-50.0f32..50.0, 16),
        ys in prop::collection::vec(-50.0f32..50.0, 16),
        ma in prop::sample::select(vec![2u32, 4, 6, 8]),
        mb in prop::sample::select(vec![2u32, 4, 6, 8]),
    ) {
        let a = BfpGroup::quantize_nearest(&xs, BfpFormat::new(16, ma, 8).unwrap());
        let b = BfpGroup::quantize_nearest(&ys, BfpFormat::new(16, mb, 8).unwrap());
        let direct = dot_f32(&a, &b);
        prop_assert_eq!(direct, dot_dequantized(&a, &b));
        let ca = ChunkedGroup::from_group(&a).unwrap();
        let cb = ChunkedGroup::from_group(&b).unwrap();
        let chunked = dot_chunked(&ca, &cb);
        prop_assert_eq!(chunked.value, direct);
        prop_assert_eq!(chunked.passes, (ma / 2) as usize * (mb / 2) as usize);
    }

    /// Chunked round trip is lossless and dropping the low chunk equals
    /// integer truncation toward zero.
    #[test]
    fn chunk_roundtrip_and_truncation(xs in group_values(16)) {
        let fmt = BfpFormat::new(16, 4, 8).unwrap();
        let g = BfpGroup::quantize_nearest(&xs, fmt);
        let c = ChunkedGroup::from_group(&g).unwrap();
        prop_assert_eq!(c.to_group(), g.clone());
        prop_assert_eq!(c.drop_low_chunk().to_group(), g.truncate_to(2));
    }

    /// Theorem 1: the expected stochastically rounded mantissa equals the
    /// unrounded aligned mantissa to within the SR noise granularity
    /// (2^-noise_bits), so SGD weight increments are unbiased.
    #[test]
    fn theorem1_sr_is_unbiased(frac in 0.0f64..1.0, base in 0i64..14) {
        let x = base as f64 + frac;
        let mut src = RngBits(rand::rngs::StdRng::seed_from_u64(
            (frac * 1e9) as u64 ^ base as u64));
        let n = 40_000;
        let sum: i64 = (0..n)
            .map(|_| Rounding::STOCHASTIC8.round(x, &mut src))
            .sum();
        let mean = sum as f64 / n as f64;
        // Statistical tolerance: std of mean ~ 0.5/sqrt(n) ≈ 0.0025, plus
        // the 2^-8 quantization of the noise itself.
        prop_assert!((mean - x).abs() < 0.02, "mean {mean} vs x {x}");
    }

    /// The shared exponent is always the max exponent present (unwindowed).
    #[test]
    fn shared_exponent_is_group_max(xs in group_values(16)) {
        prop_assume!(xs.iter().any(|&v| v != 0.0));
        let g = BfpGroup::quantize_nearest(&xs, BfpFormat::high());
        let want = xs.iter().filter_map(|&v| exponent_of(v)).max().unwrap();
        prop_assert_eq!(g.shared_exponent(), want);
    }

    /// r(X) is finite and non-negative for generic data, and 0 for all-zero.
    #[test]
    fn relative_improvement_is_sane(xs in prop::collection::vec(finite_f32(10.0), 1..200)) {
        let r = relative_improvement(&xs, 16);
        prop_assert!(r >= 0.0);
    }

    /// Truncation monotonically shrinks magnitudes.
    #[test]
    fn truncation_shrinks(xs in group_values(16)) {
        let g = BfpGroup::quantize_nearest(&xs, BfpFormat::new(16, 6, 8).unwrap());
        for m in [4u32, 2] {
            let t = g.truncate_to(m);
            for i in 0..g.len() {
                prop_assert!(t.value(i).abs() <= g.value(i).abs());
            }
        }
    }
}

/// Deterministic LFSR-driven SR sequences are reproducible and the LFSR
/// behaves as a BitSource across the full period.
#[test]
fn lfsr_driven_quantization_is_deterministic() {
    let fmt = BfpFormat::high();
    let xs: Vec<f32> = (0..16).map(|i| (i as f32 * 0.713).cos()).collect();
    let run = |seed: u16| {
        let mut lfsr = Lfsr16::new(seed);
        BfpGroup::quantize(&xs, fmt, Rounding::STOCHASTIC8, &mut lfsr, None).dequantize()
    };
    assert_eq!(run(0x1111), run(0x1111));
    assert_ne!(run(0x1111), run(0x2222));
}

/// Theorem 1 corollary, end to end: accumulating SR-rounded gradient steps
/// reaches the same total weight increment as FP32 in expectation
/// (paper Fig 8's three-iteration example, generalized).
#[test]
fn theorem1_weight_trajectory_matches_fp32_in_expectation() {
    let grad = 2.0 / 3.0; // the paper's worked example x = 2/3
    let iters = 30_000;
    let mut src = RngBits(rand::rngs::StdRng::seed_from_u64(99));
    let mut w_sr = 0.0f64;
    for _ in 0..iters {
        w_sr += Rounding::STOCHASTIC8.round(grad, &mut src) as f64;
    }
    let w_fp = grad * iters as f64;
    let rel = (w_sr - w_fp).abs() / w_fp;
    assert!(rel < 0.01, "SR trajectory deviates {rel:.4} from FP32");

    // Biased rounding-down (paper Fig 7 right) severely undershoots.
    let w_trunc = (0..iters)
        .map(|_| {
            let mut nb = NoBitsNeeded;
            Rounding::Truncate.round(grad, &mut nb) as f64
        })
        .sum::<f64>();
    assert_eq!(w_trunc, 0.0, "truncation loses the entire sub-ulp gradient");
}

struct NoBitsNeeded;
impl BitSource for NoBitsNeeded {
    fn next_bits(&mut self, _n: u32) -> u32 {
        unreachable!()
    }
}

// ---------------------------------------------------------------------------
// Integer-kernel equivalence: every quantize and pack kernel must be
// bit-identical to the seed f64 implementation for every f32 bit pattern,
// format, exponent window and rounding mode (`support/seed_reference.rs`).
// ---------------------------------------------------------------------------

#[path = "support/seed_reference.rs"]
mod seed_reference;

/// Every f32 bit pattern, weighted toward the hard cases: subnormals,
/// zeros, infinities, NaN, and huge/tiny magnitudes.
fn any_f32_bits() -> impl Strategy<Value = f32> {
    prop_oneof![
        4 => (0u32..=u32::MAX).prop_map(f32::from_bits),
        2 => (0u32..0x80_0000).prop_map(f32::from_bits),                  // subnormal
        2 => (0u32..0x80_0000).prop_map(|b| f32::from_bits(b | 0x8000_0000)),
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(f32::NAN),
        2 => (-120.0f32..120.0).prop_map(|e| e.exp2()),
    ]
}

use seed_reference::CounterAt;

/// Bits of the row-major element `idx` of a packed `rows × cols` matrix,
/// reconstructed the way the GEMM kernels do: `mantissa as f32 * group
/// scale`, read from the axis's layout.
fn packed_bits(
    p: &PackedData,
    idx: usize,
    (rows, cols): (usize, usize),
    g: usize,
    axis: GroupAxis,
) -> u32 {
    let (i, j) = (idx / cols, idx % cols);
    let (man, scale) = match axis {
        GroupAxis::AlongRow => (p.mantissas[idx], p.scales[i * cols.div_ceil(g) + j / g]),
        GroupAxis::AlongCol => {
            let panels = ColPanels {
                rows,
                cols,
                group: g,
            };
            (
                panels.mantissa(&p.mantissas, i, j),
                p.scales[panels.scale_index(i, j)],
            )
        }
    };
    (man as f32 * scale).to_bits()
}

fn any_rounding() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Nearest),
        Just(Rounding::Truncate),
        (1u32..=31).prop_map(|noise_bits| Rounding::Stochastic { noise_bits }),
    ]
}

/// Window selector: 0 = no window, otherwise an `e`-bit window whose
/// reference may lie far *below* the data exponents (forcing saturation).
fn window_from(sel: u32, reference_exponent: i32) -> Option<fast_bfp::ExponentWindow> {
    (sel != 0).then_some(fast_bfp::ExponentWindow {
        reference_exponent,
        exponent_bits: sel,
    })
}

proptest! {
    /// The integer kernel behind `BfpGroup::quantize` reproduces the seed
    /// f64 pipeline bit for bit — shared exponent, mantissas, and the f32
    /// reconstruction — for arbitrary bit patterns, formats, windows and
    /// rounding modes, with stochastic draws consuming an identical LFSR.
    #[test]
    fn kernel_group_is_bit_identical_to_seed(
        values in prop::collection::vec(any_f32_bits(), 1..=24),
        m in 1u32..=16,
        e in 1u32..=8,
        rounding in any_rounding(),
        win_sel in 0u32..=8,
        win_ref in -200i32..=200,
        seed in 0u16..=u16::MAX,
    ) {
        let fmt = BfpFormat::new(24, m, e).expect("valid format");
        let window = window_from(win_sel, win_ref);
        let mut lfsr_a = Lfsr16::new(seed);
        let mut lfsr_b = lfsr_a.clone();
        let got = BfpGroup::quantize(&values, fmt, rounding, &mut lfsr_a, window);
        let (want_e, want_m) = seed_reference::quantize(&values, fmt, rounding, &mut lfsr_b, window);
        prop_assert_eq!(got.shared_exponent(), want_e);
        prop_assert_eq!(got.mantissas(), &want_m[..]);
        prop_assert_eq!(lfsr_a.state(), lfsr_b.state(), "bit streams diverged");
        let want_back = seed_reference::dequantize(want_e, &want_m, fmt);
        for (g, w) in got.dequantize().iter().zip(&want_back) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// Slice fake-quantization (the batched entry point) is bit-identical to
    /// the seed path, including the fused `QuantStats` counters, with every
    /// element drawing the counter noise at its own offset.
    #[test]
    fn kernel_slice_is_bit_identical_to_seed(
        values in prop::collection::vec(any_f32_bits(), 1..=64),
        g in 1usize..=17,
        m in 1u32..=16,
        rounding in any_rounding(),
        win_sel in 0u32..=8,
        win_ref in -200i32..=200,
        seed in 0u64..=u64::MAX,
        base in 0u64..=1 << 40,
    ) {
        let fmt = BfpFormat::new(g, m, 8).expect("valid format");
        let window = window_from(win_sel, win_ref);
        let rng = CounterRng::new(seed);
        let mut got_buf = values.clone();
        let mut want_buf = values.clone();
        let stats = fast_bfp::fake_quantize_slice(
            &mut got_buf, fmt, rounding, Noise { rng, base, workers: 1 }, window);
        let (groups, saturated, zeros) = seed_reference::fake_quantize_slice(
            &mut want_buf, fmt, rounding, &mut CounterAt::new(rng), base, window);
        prop_assert_eq!((stats.groups, stats.saturated, stats.zeros), (groups, saturated, zeros));
        for (g, w) in got_buf.iter().zip(&want_buf) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// Matrix fake-quantization — both group axes — is bit-identical to the
    /// seed's strided implementation, and so is the packed representation
    /// whenever `pack_matrix` accepts the operand.
    #[test]
    fn kernel_matrix_is_bit_identical_to_seed(
        rows in 1usize..=40,
        cols in 1usize..=40,
        g in 1usize..=17,
        m in 1u32..=16,
        rounding in any_rounding(),
        along_col in 0u32..=1,
        use_window in 0u32..=1,
        seed in 0u64..=u64::MAX,
        base in 0u64..=1 << 40,
        fill in 0u32..=u32::MAX,
        plain in 0u32..=1,
    ) {
        let fmt = BfpFormat::new(g, m, 3).expect("valid format");
        // `plain` confines the bit patterns to normal numbers, the only
        // inputs the packer accepts.
        let values: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let bits = fill.wrapping_mul(i as u32 + 1).rotate_left(i as u32 % 31);
                if plain == 1 {
                    f32::from_bits(bits & 0x807F_FFFF | (1 + bits % 254) << 23)
                } else {
                    f32::from_bits(bits)
                }
            })
            .collect();
        let axis = if along_col == 1 { GroupAxis::AlongCol } else { GroupAxis::AlongRow };
        let noise = Noise { rng: CounterRng::new(seed), base, workers: 1 };
        let mut got_buf = values.clone();
        let mut want_buf = values.clone();
        let stats = fast_bfp::fake_quantize_matrix(
            &mut got_buf, rows, cols, axis, fmt, rounding, noise, use_window == 1);
        let (groups, saturated, zeros) = seed_reference::fake_quantize_matrix(
            &mut want_buf, rows, cols, along_col == 1, fmt, rounding,
            &mut CounterAt::new(noise.rng), base, use_window == 1);
        prop_assert_eq!((stats.groups, stats.saturated, stats.zeros), (groups, saturated, zeros));
        for (g, w) in got_buf.iter().zip(&want_buf) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        let packed = pack_matrix(&values, rows, cols, axis, fmt, rounding, noise, use_window == 1);
        let packable = values.iter().all(|v| *v == 0.0 || v.is_normal());
        prop_assert_eq!(packed.is_ok(), m <= 7 && packable);
        if let Ok(p) = packed {
            prop_assert_eq!((p.stats.groups, p.stats.saturated, p.stats.zeros), (groups, saturated, zeros));
            for (idx, w) in want_buf.iter().enumerate() {
                prop_assert_eq!(packed_bits(&p, idx, (rows, cols), g, axis), w.to_bits());
            }
        }
    }
}

/// The kernels at four workers against the same reference, both axes, with
/// and without a window: operands large enough that four pack stripes
/// engage, and a salted copy — one NaN, one +∞ and one subnormal, each in a
/// different group on either axis — that the pack refuses, so
/// `fake_quantize_matrix` takes its per-group walk.
#[test]
fn sharded_kernels_are_bit_identical_to_seed() {
    let (rows, cols) = (160, 512);
    let fmt = BfpFormat::high();
    let values: Vec<f32> = (0..rows * cols)
        .map(|i| ((i as f32 * 0.37).sin() * 3.0) * 2.0f32.powi(i as i32 % 9 - 4))
        .collect();
    let mut salted = values.clone();
    for (at, v) in [
        (0, f32::NAN),
        (37 * cols + 100, f32::INFINITY),
        (100 * cols + 300, 1e-40),
    ] {
        salted[at] = v;
    }
    let noise = Noise {
        rng: CounterRng::new(0xFA57),
        base: 12_345,
        workers: 4,
    };
    for (tag, input) in [("plain", &values), ("salted", &salted)] {
        for (axis, along_col) in [(GroupAxis::AlongRow, false), (GroupAxis::AlongCol, true)] {
            for use_window in [false, true] {
                let ctx = format!("{tag} {axis:?} window={use_window}");
                let mut want = input.clone();
                let want_stats = seed_reference::fake_quantize_matrix(
                    &mut want,
                    rows,
                    cols,
                    along_col,
                    fmt,
                    Rounding::STOCHASTIC8,
                    &mut CounterAt::new(noise.rng),
                    noise.base,
                    use_window,
                );
                let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let mut got = input.clone();
                let stats = fast_bfp::fake_quantize_matrix(
                    &mut got,
                    rows,
                    cols,
                    axis,
                    fmt,
                    Rounding::STOCHASTIC8,
                    noise,
                    use_window,
                );
                assert_eq!(
                    (stats.groups, stats.saturated, stats.zeros),
                    want_stats,
                    "{ctx}"
                );
                let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "{ctx}");
                let packed = pack_matrix(
                    input,
                    rows,
                    cols,
                    axis,
                    fmt,
                    Rounding::STOCHASTIC8,
                    noise,
                    use_window,
                );
                assert_eq!(packed.is_ok(), tag == "plain", "{ctx}");
                if let Ok(p) = packed {
                    let got_packed: Vec<u32> = (0..rows * cols)
                        .map(|idx| packed_bits(&p, idx, (rows, cols), fmt.group_size(), axis))
                        .collect();
                    assert_eq!(got_packed, want_bits, "packed {ctx}");
                }
            }
        }
        let mut want = input.clone();
        seed_reference::fake_quantize_slice(
            &mut want,
            fmt,
            Rounding::STOCHASTIC8,
            &mut CounterAt::new(noise.rng),
            noise.base,
            None,
        );
        let mut got = input.clone();
        fast_bfp::fake_quantize_slice(&mut got, fmt, Rounding::STOCHASTIC8, noise, None);
        assert!(
            got.iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits()),
            "{tag} slice"
        );
    }
}

// ---------------------------------------------------------------------------
// Row sources: packing the im2col patch matrix straight from the NCHW tensor
// must be indistinguishable from packing the materialized matrix.
// ---------------------------------------------------------------------------

/// A packed operand as comparable bits: mantissas, scale bit patterns, stats.
fn packed_parts(p: &PackedData) -> (&[i8], Vec<u32>, (usize, u64, u64)) {
    (
        &p.mantissas,
        p.scales.iter().map(|s| s.to_bits()).collect(),
        (p.stats.groups, p.stats.saturated, p.stats.zeros),
    )
}

/// Packs `x`'s patch matrix both ways — from the source and from the
/// materialized `im2col` — and returns `(from_source, from_matrix)`.
fn pack_both_ways(
    x: &Tensor,
    d: Conv2dDims,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
    windowed: bool,
) -> (Option<PackedData>, Option<PackedData>) {
    // The source as `fast_nn::qgemm::prepare_patches` builds it.
    let patches = Im2colRows::new(x, d);
    let values = patches.covers_input().then(|| patches.input());
    let fill = |krow: usize, p0: usize, out: &mut [f32]| patches.fill_row(krow, p0, out);
    let src = FillRows::new(d.k_dim(), d.p_dim(), fill, values);
    let from_source = pack_rows(&src, axis, fmt, rounding, noise, windowed).ok();
    let cols = im2col(x, d);
    let one_worker = Noise {
        workers: 1,
        ..noise
    };
    let from_matrix = pack_matrix(
        cols.data(),
        d.k_dim(),
        d.p_dim(),
        axis,
        fmt,
        rounding,
        one_worker,
        windowed,
    )
    .ok();
    (from_source, from_matrix)
}

/// Input positions no patch reads, found by unfolding a tensor of indices.
fn uncovered_positions(d: Conv2dDims) -> Vec<usize> {
    let n = d.batch * d.in_c * d.in_h * d.in_w;
    let index = Tensor::from_vec(
        vec![d.batch, d.in_c, d.in_h, d.in_w],
        (1..=n).map(|i| i as f32).collect(),
    );
    let mut covered = vec![false; n];
    for &v in im2col(&index, d).data() {
        if v != 0.0 {
            covered[v as usize - 1] = true;
        }
    }
    (0..n).filter(|&i| !covered[i]).collect()
}

/// Plain (normal-or-zero) tensor data over a wide exponent range.
fn plain_tensor(d: Conv2dDims, seed: u64) -> Tensor {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = d.batch * d.in_c * d.in_h * d.in_w;
    let data = (0..n)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0) * (rng.gen_range(-12i32..12) as f32).exp2(),
        })
        .map(|v: f32| if v.is_normal() { v } else { 0.0 })
        .collect();
    Tensor::from_vec(vec![d.batch, d.in_c, d.in_h, d.in_w], data)
}

/// What the packer must refuse when a patch reads it, and must not even see
/// when none does; `2^100` is plain, but would move a window it leaked into.
const POISONS: [f32; 5] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e-40,
    1.2676506e30,
];

/// Asserts that the pack sees exactly the virtual matrix of `x`, with and
/// without a window (an unwindowed pack of an uncovering source has no
/// prescan: the kernels check each tile they stage): a poison at an input
/// position no patch covers changes nothing — not the refusal, not the
/// window's reference exponent, not a bit of the operand — and a non-plain
/// one at a covered position, first or last, refuses the pack.
fn assert_prescan_is_coverage_exact(
    x: &Tensor,
    d: Conv2dDims,
    axis: GroupAxis,
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
) -> Result<(), TestCaseError> {
    let uncovered = uncovered_positions(d);
    // (Padding can outweigh a tiny plane: then no patch reads anything.)
    let mut covered = (0..x.numel()).filter(|i| !uncovered.contains(i));
    let covered_ends = [covered.next(), covered.next_back()];
    for windowed in [false, true] {
        let (clean, _) = pack_both_ways(x, d, axis, fmt, rounding, noise, windowed);
        let clean = clean.expect("plain data packs");
        for poison in POISONS {
            if let Some(&at) = uncovered.first() {
                let mut poisoned = x.clone();
                poisoned.data_mut()[at] = poison;
                let (got, _) = pack_both_ways(&poisoned, d, axis, fmt, rounding, noise, windowed);
                let got = got.expect("an unread value must not refuse the pack");
                prop_assert_eq!(
                    packed_parts(&got),
                    packed_parts(&clean),
                    "unread {} leaked (window={})",
                    poison,
                    windowed
                );
            }
            for at in covered_ends.into_iter().flatten() {
                if poison.is_normal() {
                    continue;
                }
                let mut poisoned = x.clone();
                poisoned.data_mut()[at] = poison;
                let (got, want) =
                    pack_both_ways(&poisoned, d, axis, fmt, rounding, noise, windowed);
                prop_assert!(
                    got.is_none() && want.is_none(),
                    "read {} at {} must refuse (window={})",
                    poison,
                    at,
                    windowed
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// Packing from the patch source equals `pack_matrix(im2col(x))` —
    /// mantissas, scales and `QuantStats` — over the `im2col` oracle's
    /// geometry family, both axes, every rounding family, windowed or not,
    /// ragged and full groups, with the prescan coverage-exact.
    #[test]
    fn pack_from_patch_source_equals_pack_of_im2col(
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..=3,
        pad in 0usize..=2,
        ow in prop::sample::select(vec![1usize, 3, 4, 8, 16, 17]),
        oh in prop::sample::select(vec![1usize, 2, 5]),
        slack in 0usize..3,
        batch in 2usize..=3,
        in_c in 1usize..=3,
        g in prop::sample::select(vec![16usize, 16, 5, 300]),
        m in 2u32..=7,
        along_col in 0u32..=1,
        rounding in prop::sample::select(vec![
            Rounding::Nearest,
            Rounding::Truncate,
            Rounding::STOCHASTIC8,
            Rounding::Stochastic { noise_bits: 3 },
        ]),
        windowed in 0u32..=1,
        workers in prop::sample::select(vec![1usize, 4]),
        seed in 0u64..1 << 32,
        base in 0u64..=1 << 40,
    ) {
        let extent = |o: usize| ((o - 1) * stride + kernel + slack % stride).checked_sub(2 * pad);
        let (in_h, in_w) = match (extent(oh), extent(ow)) {
            (Some(h), Some(w)) if h > 0 && w > 0 => (h, w),
            _ => return Err(TestCaseError::Reject),
        };
        let d = Conv2dDims { batch, in_c, in_h, in_w, out_c: 1, kernel, stride, pad };
        let fmt = BfpFormat::new(g, m, 3).expect("valid format");
        let axis = if along_col == 1 { GroupAxis::AlongCol } else { GroupAxis::AlongRow };
        let noise = Noise { rng: CounterRng::new(seed), base, workers };
        let x = plain_tensor(d, seed);
        let (got, want) = pack_both_ways(&x, d, axis, fmt, rounding, noise, windowed == 1);
        let (got, want) = (got.expect("plain data packs"), want.expect("plain data packs"));
        prop_assert_eq!(packed_parts(&got), packed_parts(&want));
        assert_prescan_is_coverage_exact(&x, d, axis, fmt, rounding, noise)?;
    }
}

/// The two geometries that leave input unread, spelled out: a 1×1 stride-2
/// shortcut conv (every other row and column) and a 3×3 stride-2 conv whose
/// last window stops short of the trailing row and column.
#[test]
fn patch_prescan_skips_unread_rows_and_columns() {
    for (kernel, pad, size) in [(1, 0, 8), (3, 0, 8)] {
        let d = Conv2dDims {
            batch: 2,
            in_c: 3,
            in_h: size,
            in_w: size,
            out_c: 1,
            kernel,
            stride: 2,
            pad,
        };
        assert!(!uncovered_positions(d).is_empty(), "k{kernel}: all read");
        let x = plain_tensor(d, 7);
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            let noise = Noise {
                rng: CounterRng::new(9),
                base: 3,
                workers: 1,
            };
            assert_prescan_is_coverage_exact(
                &x,
                d,
                axis,
                BfpFormat::high(),
                Rounding::STOCHASTIC8,
                noise,
            )
            .unwrap();
        }
    }
}

/// The sharded source path: operands large enough that four stripes engage
/// — row ranges of the source, each addressing its noise by absolute offset
/// — against the one-worker pack of the materialized matrix. The second
/// geometry leaves input unread, so its unwindowed pack has every stripe
/// check its own tiles: a non-plain value only the last stripe stages must
/// still refuse the whole operand.
#[test]
fn sharded_patch_source_is_bit_identical_to_one_worker() {
    let same = Conv2dDims {
        batch: 4,
        in_c: 8,
        in_h: 24,
        in_w: 24,
        out_c: 1,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let shortcut = Conv2dDims {
        batch: 4,
        in_c: 64,
        in_h: 32,
        in_w: 32,
        out_c: 1,
        kernel: 1,
        stride: 2,
        pad: 0,
    };
    let noise = Noise {
        rng: CounterRng::new(0xFA57),
        base: 12_345,
        workers: 4,
    };
    let pack = |x: &Tensor, d, axis, windowed| {
        let (fmt, rounding) = (BfpFormat::high(), Rounding::STOCHASTIC8);
        pack_both_ways(x, d, axis, fmt, rounding, noise, windowed)
    };
    for d in [same, shortcut] {
        assert!(d.k_dim() * d.p_dim() >= 4 << 14, "four stripes must engage");
        let x = plain_tensor(d, 11);
        // The last element a patch reads: the final matrix row's.
        let unread = uncovered_positions(d);
        let last_read = (0..x.numel())
            .rev()
            .find(|i| !unread.contains(i))
            .expect("some element is read");
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            for windowed in [false, true] {
                let (got, want) = pack(&x, d, axis, windowed);
                let (got, want) = (got.expect("packs"), want.expect("packs"));
                assert_eq!(
                    packed_parts(&got),
                    packed_parts(&want),
                    "{axis:?} window={windowed}"
                );
                let mut poisoned = x.clone();
                poisoned.data_mut()[last_read] = f32::NAN;
                let (got, want) = pack(&poisoned, d, axis, windowed);
                assert!(
                    got.is_none() && want.is_none(),
                    "{axis:?} window={windowed}: a NaN in the last stripe must refuse"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// r(X): the allocation-free integer kernel must return the oracle's f32 bits
// on every input — the precision controller's decisions, and with them every
// trajectory pin, hang on this.
// ---------------------------------------------------------------------------

fn assert_r_matches_oracle(xs: &[f32]) -> Result<(), TestCaseError> {
    for g in [1usize, 4, 16, 32] {
        let got = relative_improvement(xs, g);
        let want = relative_improvement_oracle(xs, g);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "g={} got {} want {}",
            g,
            got,
            want
        );
    }
    Ok(())
}

proptest! {
    /// Full f32 range — NaN, ±inf, subnormals, signed zeros — with ragged
    /// final groups (lengths are not multiples of g).
    #[test]
    fn relative_improvement_is_bit_identical_to_oracle_on_any_bits(
        xs in prop::collection::vec(any_f32_bits(), 0..=200),
    ) {
        assert_r_matches_oracle(&xs)?;
    }

    /// Training-like tensors: one scale, ReLU-style zero runs (whole groups
    /// of zeros included) — the shape on which group sums are taken.
    #[test]
    fn relative_improvement_is_bit_identical_to_oracle_on_sparse_tensors(
        xs in prop::collection::vec(finite_f32(4.0), 0..=600),
        zero_from in 0usize..600,
        zero_len in 0usize..80,
    ) {
        let mut xs = xs;
        for v in xs.iter_mut().skip(zero_from).take(zero_len) {
            *v = 0.0;
        }
        assert_r_matches_oracle(&xs)?;
    }

    /// Groups alternating between `2^100` and `2^-100` magnitudes: the
    /// running sums span far more than 53 bits, so the exactness guard of the
    /// group-sum path must refuse and the element-order fallback run (and
    /// round) exactly as the oracle does.
    #[test]
    fn relative_improvement_is_bit_identical_to_oracle_across_binades(
        vals in prop::collection::vec(0.5f32..1.0, 1..=160),
        kinds in prop::collection::vec(0u32..=3, 160),
        g in prop::sample::select(vec![1usize, 4, 16, 32]),
        phase in 0usize..=1,
    ) {
        let xs: Vec<f32> = vals
            .iter()
            .zip(&kinds)
            .enumerate()
            .map(|(i, (&v, &kind))| {
                let exp = if (i / g) % 2 == phase { 100.0f32 } else { -100.0 };
                match kind {
                    0 => 0.0,
                    1 => -v * exp.exp2(),
                    _ => v * exp.exp2(),
                }
            })
            .collect();
        assert_r_matches_oracle(&xs)?;
    }
}

/// Edge inputs the strategies above reach only by luck.
#[test]
fn relative_improvement_matches_oracle_on_edge_tensors() {
    let sub = f32::from_bits(1); // smallest subnormal
    let cases: Vec<Vec<f32>> = vec![
        vec![],
        vec![0.0; 40],
        vec![-0.0; 17],
        vec![f32::NAN; 16],
        vec![f32::INFINITY, f32::NEG_INFINITY, 1.0, f32::MAX],
        vec![sub; 33],
        (0..64).map(|i| f32::from_bits(i * 0x1F_FFFF)).collect(),
        // One huge group then many tiny ones: the sums stop being exact.
        (0..400)
            .map(|i| {
                if i < 16 {
                    3.0e38
                } else {
                    1.1e-38 * (1 + i % 7) as f32
                }
            })
            .collect(),
        // Tiny first, then huge: the guard's running minimum is set early.
        (0..400)
            .map(|i| {
                if i < 16 {
                    1.3e-40
                } else {
                    2.9e38 / (1 + i % 5) as f32
                }
            })
            .collect(),
    ];
    for xs in &cases {
        for g in [1usize, 3, 4, 16, 32] {
            let got = relative_improvement(xs, g);
            let want = relative_improvement_oracle(xs, g);
            assert_eq!(got.to_bits(), want.to_bits(), "g={g} xs.len()={}", xs.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Column panels: an `AlongCol` pack writes the integer kernels' panel layout
// straight. Pinned against the row-major pack the seed walk defines, re-laid
// by a transcription of the kernels' panel builder.
// ---------------------------------------------------------------------------

/// The row-major `AlongCol` pack of `values` by the seed walk: signed
/// mantissas, `⌈rows/g⌉ × cols` scales (`2^(E−m+1)`, `0.0` for a group
/// with no non-zero value) and `(groups, saturated, zeros)`; element
/// `(r, c)` draws at `base + r·cols + c`.
fn seed_col_pack(
    values: &[f32],
    (rows, cols): (usize, usize),
    fmt: BfpFormat,
    rounding: Rounding,
    noise: Noise,
) -> (Vec<i8>, Vec<f32>, (usize, u64, u64)) {
    let (g, m) = (fmt.group_size(), fmt.mantissa_bits() as i32);
    let max_mag = fmt.max_magnitude() as i32;
    let mut bits = CounterAt::new(noise.rng);
    let (mut mans, mut scales) = (
        vec![0i8; rows * cols],
        vec![0.0f32; rows.div_ceil(g) * cols],
    );
    let mut stats = (0, 0, 0);
    for (b, row) in (0..rows).step_by(g).enumerate() {
        let n = g.min(rows - row);
        for col in 0..cols {
            let group: Vec<f32> = (0..n).map(|k| values[(row + k) * cols + col]).collect();
            (bits.first, bits.stride) = (noise.base + (row * cols + col) as u64, cols as u64);
            let (e, q) = seed_reference::quantize(&group, fmt, rounding, &mut bits, None);
            let nonzero = group.iter().any(|&v| v != 0.0);
            scales[b * cols + col] = if nonzero { 2.0f32.powi(e - m + 1) } else { 0.0 };
            stats.0 += 1;
            for (k, &v) in q.iter().enumerate() {
                mans[(row + k) * cols + col] = v as i8;
                stats.2 += u64::from(v == 0);
                stats.1 += u64::from(v != 0 && v.abs() == max_mag);
            }
        }
    }
    (mans, scales, stats)
}

/// A transcription of the integer kernels' original panel builder (the
/// frozen weights' relayout, before the pack wrote panels itself): per
/// 16-column panel, `⌈rows/g⌉ · ⌈g/4⌉` k-quad rows of 64 bytes — byte
/// `4c + i` of row `t` the mantissa at row `4t + i` of the panel's column
/// `c`, biased `^ 0x80`, each group starting a new quad row — padded with
/// `0x80`; then the panel's block scales, `0.0` past the matrix.
fn relay_as_panels(
    mans: &[i8],
    scales: &[f32],
    (rows, cols): (usize, usize),
    g: usize,
) -> (Vec<u8>, Vec<f32>) {
    const W: usize = 16;
    let (nblocks, qpb, panels) = (rows.div_ceil(g), g.div_ceil(4), cols.div_ceil(W));
    let row_len = 4 * W;
    let panel_len = nblocks * qpb * row_len;
    let mut bytes = vec![0x80u8; panels * panel_len];
    let mut pscales = vec![0.0f32; panels * nblocks * W];
    for q in 0..panels {
        let (j0, w) = (q * W, (cols - q * W).min(W));
        for r in 0..rows {
            let (b, within) = (r / g, r % g);
            let t = b * qpb + within / 4;
            let dst = &mut bytes[q * panel_len + t * row_len + within % 4..];
            for c in 0..w {
                dst[4 * c] = mans[r * cols + j0 + c] as u8 ^ 0x80;
            }
        }
        for b in 0..nblocks {
            let dst = &mut pscales[(q * nblocks + b) * W..][..w];
            dst.copy_from_slice(&scales[b * cols + j0..][..w]);
        }
    }
    (bytes, pscales)
}

fn any_pack_rounding() -> impl Strategy<Value = Rounding> {
    prop_oneof![
        Just(Rounding::Nearest),
        Just(Rounding::Truncate),
        Just(Rounding::STOCHASTIC8),
        (1u32..=31).prop_map(|noise_bits| Rounding::Stochastic { noise_bits }),
    ]
}

proptest! {
    /// The `AlongCol` pack is the seed walk's row-major pack re-laid as
    /// column panels — mantissa bytes, scales and stats — at depths and
    /// widths off the 16-grid and under four rows, every packable width,
    /// the group sizes the vector kernels take, every rounding and one to
    /// three workers (the matrix widened enough to shard). A salted NaN or
    /// subnormal refuses the pack, non-finite first.
    #[test]
    fn col_panels_are_the_row_major_pack_relaid(
        rows in 1usize..=70,
        cols in 1usize..=40,
        m in 1u32..=7,
        g_sel in 0usize..4,
        rounding in any_pack_rounding(),
        workers in 1usize..=3,
        seed in 0u64..=u64::MAX,
        base in 0u64..=1 << 40,
        salt in 0u32..=5,
        at in 0usize..=usize::MAX,
    ) {
        let g = [4usize, 8, 16, 32][g_sel];
        // Wide enough for `workers` stripes of the pack's sharding floor.
        let cols = cols + (workers - 1) * (1usize << 14).div_ceil(rows);
        let fmt = BfpFormat::new(g, m, 8).expect("valid format");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut values: Vec<f32> = (0..rows * cols)
            .map(|_| {
                use rand::Rng;
                if rng.gen_bool(0.15) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(rng.gen_range(-30..30))
                }
            })
            .collect();
        let salted = match salt {
            0 => Some((f32::NAN, fast_bfp::packed::Refusal::NonFinite)),
            1 => Some((1e-40, fast_bfp::packed::Refusal::Subnormal)),
            _ => None,
        };
        if let Some((bad, _)) = salted {
            values[at % (rows * cols)] = bad;
        }
        let noise = Noise { rng: CounterRng::new(seed ^ 0x5EED), base, workers };
        let got = pack_matrix(&values, rows, cols, GroupAxis::AlongCol, fmt, rounding, noise, false);
        if let Some((_, why)) = salted {
            prop_assert_eq!(got.err(), Some(why));
            return Ok(());
        }
        let got = got.expect("plain values pack");
        let (mans, scales, stats) = seed_col_pack(&values, (rows, cols), fmt, rounding, noise);
        let (want_bytes, want_scales) = relay_as_panels(&mans, &scales, (rows, cols), g);
        let got_bytes: Vec<u8> = got.mantissas.iter().map(|&b| b as u8).collect();
        prop_assert_eq!(got_bytes, want_bytes);
        prop_assert_eq!(bits_of(&got.scales), bits_of(&want_scales));
        prop_assert_eq!((got.stats.groups, got.stats.saturated, got.stats.zeros), stats);
        let layout = ColPanels { rows, cols, group: g };
        prop_assert_eq!((layout.len(), layout.scales()), (got.mantissas.len(), got.scales.len()));
    }
}

fn bits_of(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
