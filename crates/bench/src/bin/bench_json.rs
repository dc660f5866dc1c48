//! JSON microbenchmark runner for the perf-tracked hot paths.
//!
//! Times the three costs that dominate a quantized training step — BFP
//! slice quantization, the quantize+GEMM pair of one layer, and a full
//! training iteration — and writes them to a JSON file
//! (`BENCH_quant_gemm.json` at the repo root). Raw nanoseconds describe one
//! run on one machine; the within-run `*_x` ratios are what carry across
//! machines, and the run fails when a gated ratio leaves its bound.
//!
//! Usage:
//!
//! ```text
//! bench_json [--quick] [--out PATH]
//! ```
//!
//! `--quick` lowers iteration counts for CI smoke runs.

use fast_bfp::packed::pack_matrix;
use fast_bfp::GroupAxis;
use fast_bfp::{fake_quantize_slice, relative_improvement, BfpFormat, CounterRng, Noise, Rounding};
use fast_nn::models::{resnet_lite, ResNetConfig};
use fast_nn::qgemm::{execute, prepare, prepare_owned, prepare_patches, GemmOperand, Orient};
use fast_nn::{
    set_uniform_precision, LayerPrecision, NoopHook, NumericFormat, Session, Sgd, Trainer,
};
use fast_telemetry::json::Json;
use fast_tensor::{
    col2im, im2col, matmul, parallelism, set_parallelism, Conv2dDims, Parallelism, Tensor,
};

use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` `iters` times after `warmup` unmeasured runs; returns the median
/// wall time per iteration in nanoseconds.
fn time_ns<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Floors of `N` bodies sampled in turn (`body(which)` runs one).
/// Deterministic bodies cost the floor of their timing distribution, and
/// alternating samples draw every floor from one machine state (the
/// `overhead_pair` argument in `main`), so ratios between them hold on any
/// machine.
fn alternating_floors<const N: usize>(
    warmup: usize,
    iters: usize,
    mut body: impl FnMut(usize),
) -> [f64; N] {
    let mut floors = [f64::INFINITY; N];
    for sample in 0..warmup + 3 * iters {
        for (which, floor) in floors.iter_mut().enumerate() {
            let t = Instant::now();
            body(which);
            if sample >= warmup {
                *floor = floor.min(t.elapsed().as_nanos() as f64);
            }
        }
    }
    floors
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_quant_gemm.json".to_string());

    let (warmup, iters, step_iters) = if quick { (1, 5, 3) } else { (3, 15, 8) };
    let mut results: Vec<(&str, f64)> = Vec::new();

    // --- Slice quantization: 64k values, HighBFP (g=16, m=4, e=3). ---
    let fmt = BfpFormat::high();
    let base: Vec<f32> = (0..65536).map(|i| (i as f32 * 0.137).sin() * 3.0).collect();
    let mut buf = base.clone();
    let noise = Noise {
        rng: CounterRng::new(0xACE1),
        base: 0,
        workers: 1,
    };
    results.push((
        "quant_slice_m4_nearest_ns",
        time_ns(warmup, iters, || {
            buf.copy_from_slice(&base);
            black_box(fake_quantize_slice(
                &mut buf,
                fmt,
                Rounding::Nearest,
                noise,
                None,
            ));
        }),
    ));
    // --- r(X) of paper Eq. 2 on the same 64k values: what the precision
    // controller pays per tensor per step. It reads what the quantize above
    // reads and writes nothing back, so only its serial f64 adds keep the
    // ratio (quantize time / r(X) time) under 1; a `BfpGroup` per 16 values
    // read 0.33. ---
    let [quant_floor, r_floor] = alternating_floors(warmup, iters, |which| {
        if which == 0 {
            buf.copy_from_slice(&base);
            black_box(fake_quantize_slice(
                &mut buf,
                fmt,
                Rounding::Nearest,
                noise,
                None,
            ));
        } else {
            black_box(relative_improvement(black_box(&base), 16));
        }
    });
    results.push(("improvement_r_64k_ns", r_floor));

    // --- The two conv reorders on the `fast_perf` ResNet's stage-0 shape
    // (batch 16, 8→8 channels, 16×16, 3×3, pad 1): `col2im` adds one span
    // per `(b, oy)`; `im2col`'s row filler merges a plane's spans into one
    // copy on this "same" conv, so it runs ≈ 1.25× ahead. ---
    let conv_dims = Conv2dDims {
        batch: 16,
        in_c: 8,
        in_h: 16,
        in_w: 16,
        out_c: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let image = Tensor::from_vec(
        vec![16, 8, 16, 16],
        (0..16 * 8 * 256).map(|i| (i as f32 * 0.11).sin()).collect(),
    );
    let grad_cols = im2col(&image, conv_dims);
    let [im2col_floor, col2im_floor] = alternating_floors(warmup, iters, |which| {
        if which == 0 {
            black_box(im2col(black_box(&image), conv_dims));
        } else {
            black_box(col2im(black_box(&grad_cols), conv_dims));
        }
    });
    results.push(("im2col_c8_ns", im2col_floor));
    results.push(("col2im_c8_ns", col2im_floor));

    // --- The same conv's activation operand, prepared both ways: packed
    // straight from the NCHW tensor (`prepare_patches`, what the conv layers
    // do) against materialize-then-pack (`prepare_owned(im2col(..))`, what
    // they did and what a refused pack still does). `col` is the forward
    // operand (groups down the K axis), `row` the weight-gradient one; the
    // `_s2` pair is the stride-2 variant of the shape, where the gather is
    // strided instead of a span copy. ---
    let mut session = Session::new(0);
    let act_fmt = NumericFormat::bfp_nearest(fmt);
    let s2_dims = Conv2dDims {
        stride: 2,
        ..conv_dims
    };
    // The served ResNet's stage-0 operand (batch 1, 16 channels, 32×32):
    // the shape most of a served request's packing time goes to.
    let serve_dims = Conv2dDims {
        batch: 1,
        in_c: 16,
        in_h: 32,
        in_w: 32,
        out_c: 16,
        ..conv_dims
    };
    let serve_image = Tensor::from_vec(
        vec![1, 16, 32, 32],
        (0..16 * 1024).map(|i| (i as f32 * 0.07).cos()).collect(),
    );
    // Each timed row as (shape, input, axis, packed from the tensor).
    let (col, row) = (GroupAxis::AlongCol, GroupAxis::AlongRow);
    let patch_rows = [
        (conv_dims, &image, col, true),
        (conv_dims, &image, col, false),
        (conv_dims, &image, row, true),
        (conv_dims, &image, row, false),
        (s2_dims, &image, col, true),
        (s2_dims, &image, col, false),
        (serve_dims, &serve_image, col, true),
        (s2_dims, &image, row, true),
    ];
    let patch_floors: [f64; 8] = alternating_floors(warmup, iters, |which| {
        let (d, x, axis, from_tensor) = patch_rows[which];
        if from_tensor {
            black_box(prepare_patches(
                &mut session,
                black_box(x),
                d,
                act_fmt,
                axis,
            ));
        } else {
            let cols = im2col(black_box(x), d);
            black_box(prepare_owned(&mut session, cols, act_fmt, axis));
        }
    });
    for (key, ns) in [
        "pack_patches_c8_col_ns",
        "im2col_pack_c8_col_ns",
        "pack_patches_c8_row_ns",
        "im2col_pack_c8_row_ns",
        "pack_patches_c8_s2_ns",
        "im2col_pack_c8_s2_ns",
        "pack_patches_serve_s0_col_ns",
        "pack_patches_c8_s2_row_ns",
    ]
    .into_iter()
    .zip(patch_floors)
    {
        results.push((key, ns));
    }

    // --- The two `∇O` operands of that conv's backward pass (8×4096, one
    // packed along rows, one down columns), under nearest rounding and under
    // the gradients' 8-bit SR: the SR pack prefetches its noise in bulk and
    // runs the same branch-free element body, so it stays within 2× of
    // nearest (it read 0.31 when every draw took `next_bits`' branch). ---
    let grad_out: Vec<f32> = (0..8 * 4096)
        .map(|i| (i as f32 * 0.137).sin() * 3.0)
        .collect();
    let [pack_nearest_floor, pack_sr8_floor] = alternating_floors(warmup, iters, |which| {
        let rounding = [Rounding::Nearest, Rounding::STOCHASTIC8][which];
        for axis in [GroupAxis::AlongRow, GroupAxis::AlongCol] {
            let _ = black_box(pack_matrix(
                black_box(&grad_out),
                8,
                4096,
                axis,
                fmt,
                rounding,
                noise,
                false,
            ));
        }
    });
    results.push(("pack_m4_nearest_ns", pack_nearest_floor));
    results.push(("pack_m4_sr8_ns", pack_sr8_floor));

    // --- The same slice under 8-bit stochastic rounding (DESIGN.md §12):
    // one SplitMix64 hash yields eight 8-bit lanes, and draws are indexed
    // by element offset.
    results.push((
        "quant_slice_m4_counter_sr_ns",
        time_ns(warmup, iters, || {
            buf.copy_from_slice(&base);
            black_box(fake_quantize_slice(
                &mut buf,
                fmt,
                Rounding::STOCHASTIC8,
                noise,
                None,
            ));
        }),
    ));

    // --- Quantize + GEMM of one 64×256×64 layer. ---
    let (m, k, n) = (64usize, 256, 64);
    let a = Tensor::from_vec(
        vec![m, k],
        (0..m * k).map(|i| (i as f32 * 0.13).sin()).collect(),
    );
    let b = Tensor::from_vec(
        vec![k, n],
        (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect(),
    );
    results.push((
        "fp32_gemm_ns",
        time_ns(warmup, iters, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        }),
    ));
    for (key, numfmt) in [
        (
            "quant_gemm_bfp_m4_ns",
            NumericFormat::bfp_nearest(BfpFormat::high()),
        ),
        (
            "quant_gemm_bfp_m2_ns",
            NumericFormat::bfp_nearest(BfpFormat::low()),
        ),
        (
            "quant_gemm_bfp_m4_sr_ns",
            NumericFormat::bfp_stochastic(BfpFormat::high()),
        ),
    ] {
        results.push((
            key,
            time_ns(warmup, iters, || {
                let mut aq = a.clone();
                let mut bq = b.clone();
                numfmt.quantize_matrix(&mut aq, GroupAxis::AlongRow, noise);
                numfmt.quantize_matrix(&mut bq, GroupAxis::AlongCol, noise);
                black_box(matmul(&aq, &bq));
            }),
        ));
    }

    // --- The same quantize+GEMM configs through the shared qgemm plan:
    // operands are packed to i8 mantissas + group scales and multiplied on
    // the integer kernels, with no dequantized f32 copy (compare each
    // `qgemm_*` row to its `quant_gemm_*` twin above). ---
    for (key, numfmt) in [
        (
            "qgemm_bfp_m4_ns",
            NumericFormat::bfp_nearest(BfpFormat::high()),
        ),
        (
            "qgemm_bfp_m2_ns",
            NumericFormat::bfp_nearest(BfpFormat::low()),
        ),
        (
            "qgemm_bfp_m4_sr_ns",
            NumericFormat::bfp_stochastic(BfpFormat::high()),
        ),
    ] {
        results.push((
            key,
            time_ns(warmup, iters, || {
                let ap = prepare(&mut session, black_box(&a), numfmt, GroupAxis::AlongRow);
                let bp = prepare(&mut session, black_box(&b), numfmt, GroupAxis::AlongCol);
                black_box(execute(&mut session, Orient::Nn, &ap, &bp));
            }),
        ));
    }

    // --- Integer-domain execution (DESIGN.md §11): the same packed
    // operands multiplied with i8×i8→i32 inner products. These rows are
    // **execute-only over pre-packed operands** — packing cost is already
    // tracked by the `qgemm_*` rows, and the integer kernels' claim
    // (faster than the FP32 GEMM) is about the multiply itself, which in
    // training/serving runs against operands that are packed once and
    // reused (frozen weights, plan caches). Compare against
    // `fp32_gemm_ns`, which likewise times only `matmul` over
    // pre-materialized tensors.
    for (key, numfmt) in [
        (
            "qgemm_int_bfp_m4_ns",
            NumericFormat::bfp_nearest(BfpFormat::high()),
        ),
        (
            "qgemm_int_bfp_m2_ns",
            NumericFormat::bfp_nearest(BfpFormat::low()),
        ),
        (
            "qgemm_int_bfp_m4_sr_ns",
            NumericFormat::bfp_stochastic(BfpFormat::high()),
        ),
    ] {
        let ap = prepare(&mut session, &a, numfmt, GroupAxis::AlongRow);
        let bp = prepare(&mut session, &b, numfmt, GroupAxis::AlongCol);
        results.push((
            key,
            time_ns(warmup, iters, || {
                black_box(execute(
                    &mut session,
                    Orient::Nn,
                    black_box(&ap),
                    black_box(&bp),
                ));
            }),
        ));
    }

    // --- The three training GEMMs of one conv layer (paper Fig 3) at the
    // three conv shape families of the `fast_perf` ResNet: forward `Nn`,
    // weight-gradient `Nt` on the same `m×k×n`, input-gradient `Tn` on its
    // transpose — equal MACs, execute-only over pre-packed HighBFP
    // operands on the integer kernels (`qgemm_int_*`), and over the same
    // operands dequantized on the dense kernels (`fp32_*`). Samples
    // alternate between the three orientations and each row is the floor
    // of its samples (`alternating_floors`), so the `*_over_nn_x` ratios
    // compare one machine state. ---
    const BWD_SHAPES: [(usize, usize, usize); 3] = [(8, 4096, 72), (16, 1024, 144), (32, 256, 288)];
    const BWD_KEYS: [[[&str; 3]; 3]; 2] = [
        [
            [
                "fp32_nn_bwd_c8_ns",
                "fp32_nt_bwd_c8_ns",
                "fp32_tn_bwd_c8_ns",
            ],
            [
                "fp32_nn_bwd_c16_ns",
                "fp32_nt_bwd_c16_ns",
                "fp32_tn_bwd_c16_ns",
            ],
            [
                "fp32_nn_bwd_c32_ns",
                "fp32_nt_bwd_c32_ns",
                "fp32_tn_bwd_c32_ns",
            ],
        ],
        [
            [
                "qgemm_int_nn_bwd_c8_ns",
                "qgemm_int_nt_bwd_c8_ns",
                "qgemm_int_tn_bwd_c8_ns",
            ],
            [
                "qgemm_int_nn_bwd_c16_ns",
                "qgemm_int_nt_bwd_c16_ns",
                "qgemm_int_tn_bwd_c16_ns",
            ],
            [
                "qgemm_int_nn_bwd_c32_ns",
                "qgemm_int_nt_bwd_c32_ns",
                "qgemm_int_tn_bwd_c32_ns",
            ],
        ],
    ];
    let wave = |rows: usize, cols: usize, f: f32| {
        Tensor::from_vec(
            vec![rows, cols],
            (0..rows * cols).map(|i| (i as f32 * f).sin()).collect(),
        )
    };
    let bwd_fmt = NumericFormat::bfp_nearest(BfpFormat::high());
    // A prepared operand dequantized: what the dense rows multiply.
    let dequantized = |op: &GemmOperand| op.operand().to_dense().into_owned();
    // Σ over the shape families of the [Nn, Nt, Tn] floors, dense then
    // integer.
    let mut bwd_totals = [[0.0f64; 3]; 2];
    for (family, family_keys) in BWD_KEYS.iter().enumerate() {
        for (&(m, k, n), keys) in BWD_SHAPES.iter().zip(family_keys) {
            let (a, b, bt) = (wave(m, k, 0.13), wave(k, n, 0.29), wave(n, k, 0.31));
            // Tn on the transposed shape: (n×k) = (m×n)ᵀ · (m×k).
            let (at, b2) = (wave(m, n, 0.17), wave(m, k, 0.23));
            let (row, col) = (GroupAxis::AlongRow, GroupAxis::AlongCol);
            let mut pack = |t, axis| prepare(&mut session, t, bwd_fmt, axis);
            let packed = [
                (Orient::Nn, pack(&a, row), pack(&b, col)),
                (Orient::Nt, pack(&a, row), pack(&bt, row)),
                (Orient::Tn, pack(&at, col), pack(&b2, col)),
            ];
            let dense = packed
                .each_ref()
                .map(|(_, x, y)| (dequantized(x), dequantized(y)));
            let floors: [f64; 3] = alternating_floors(warmup, iters, |which| {
                let (orient, x, y) = &packed[which];
                if family == 0 {
                    let (x, y) = &dense[which];
                    let (x, y) = (GemmOperand::Borrowed(x), GemmOperand::Borrowed(y));
                    black_box(execute(&mut session, *orient, black_box(&x), black_box(&y)));
                } else {
                    black_box(execute(&mut session, *orient, black_box(x), black_box(y)));
                }
            });
            for ((key, ns), total) in keys.iter().zip(floors).zip(&mut bwd_totals[family]) {
                results.push((key, ns));
                *total += ns;
            }
        }
    }

    // --- The frozen serving GEMM of `fast_perf`'s `serve_mlp_sat`: a full
    // batch of 8 through its 1024×1024 hidden layer, execute-only over
    // pre-packed HighBFP operands on the integer kernels — the weight in
    // panel order, as every column-grouped pack is — sampled in turn with the
    // dense kernels over the same operands dequantized, on the one tensor
    // worker `fast_perf` serves with (DESIGN.md §8, §11). ---
    let (serve_x, serve_w) = (wave(8, 1024, 0.13), wave(1024, 1024, 0.29));
    let serve_a = prepare(&mut session, &serve_x, bwd_fmt, GroupAxis::AlongRow);
    let serve_b = prepare(&mut session, &serve_w, bwd_fmt, GroupAxis::AlongCol);
    let (serve_xq, serve_wq) = (dequantized(&serve_a), dequantized(&serve_b));
    let serve_dense = [&serve_xq, &serve_wq].map(GemmOperand::Borrowed);
    let pool = parallelism();
    set_parallelism(Parallelism::sequential());
    let [serve_fp32_floor, serve_int_floor] = alternating_floors(warmup, iters, |which| {
        let (x, y) = [(&serve_dense[0], &serve_dense[1]), (&serve_a, &serve_b)][which];
        black_box(execute(
            &mut session,
            Orient::Nn,
            black_box(x),
            black_box(y),
        ));
    });
    results.push(("fp32_serve_b8_ns", serve_fp32_floor));
    results.push(("qgemm_int_serve_b8_ns", serve_int_floor));

    // --- One conv product of `fast_perf`'s `serve_resnet_b1` stage 0: a
    // frozen 16×144 weight, its k-quad words staged as a frozen conv
    // weight's are, times the 144×1024 patches of one 16-channel 32×32
    // image, packed straight into column panels — execute-only, at one
    // worker (DESIGN.md §11). ---
    let conv_d = Conv2dDims {
        batch: 1,
        in_c: 16,
        in_h: 32,
        in_w: 32,
        out_c: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let conv_x = Tensor::from_vec(
        vec![1, 16, 32, 32],
        (0..16 * 32 * 32).map(|i| (i as f32 * 0.21).sin()).collect(),
    );
    let GemmOperand::Own(conv_w) = prepare(
        &mut session,
        &wave(16, 144, 0.19),
        bwd_fmt,
        GroupAxis::AlongRow,
    ) else {
        unreachable!("a HighBFP operand prepares owned");
    };
    let conv_w = GemmOperand::Own(conv_w.with_a_words());
    let conv_cols = prepare_patches(&mut session, &conv_x, conv_d, bwd_fmt, GroupAxis::AlongCol);
    let conv_floor = time_ns(warmup, iters, || {
        black_box(execute(
            &mut session,
            Orient::Nn,
            &conv_w,
            black_box(&conv_cols),
        ));
    });
    set_parallelism(pool);
    results.push(("qgemm_int_conv_b1_ns", conv_floor));

    // Within-run plan-vs-pipeline ratios (same machine state for both
    // sides).
    let mut ratios: Vec<(String, f64)> = Vec::new();
    // The ratios this binary gates itself (below): `(key, ratio, floor)`.
    // Backward-orientation rate over the forward rate on equal MACs: FAST's
    // fMAC runs all three training GEMMs at one rate, so these sit near 1.0
    // when the kernels do; under half, a kernel has stopped keeping its
    // accumulators in registers (DESIGN.md §7). Then the non-GEMM kernels
    // against their same-traffic twins: `r(X)` under 0.45× the quantize rate
    // or `col2im` under 0.5× the `im2col` rate means the allocating /
    // per-element form is back (they read 0.33 and 0.29 on the recording
    // machine; `r(X)` summed strictly element by element reads 0.56).
    // Against today's merged-copy `im2col` the span-add `col2im` reads
    // ≈ 0.8 and the per-element scatter 0.40–0.43; on a machine whose cache
    // a neighbour is using they read 0.51–0.65 and 0.26–0.32 (`col2im`
    // streams the 1.18 MB matrix, `im2col` mostly page-faults its output),
    // which is why this floor is 0.5 and not the 0.6 it was: DESIGN.md §7
    // has the runs.
    const BWD_FLOOR: f64 = 0.5;
    // ≈ 70 % of the 3.57–4.97 the k-pair `madd` kernel read against the
    // dense kernel over six quick runs at one worker (DESIGN.md §11). The
    // k-quad `madd` that replaced it, which reads the packed panels as they
    // are, reads 2.69–3.03 (four alternating full runs against the pair
    // kernel's 3.87–4.34); the AVX-VNNI and tile kernels read higher, but
    // the floor must hold on hosts without them. Staging B per call read
    // 1.98–2.31, and a whole-operand copy of B per call cost about as much
    // as the product.
    const SERVE_INT_FLOOR: f64 = 2.5;
    let gated_ratios = [
        (
            "fp32_nt_over_nn_x",
            bwd_totals[0][0] / bwd_totals[0][1],
            BWD_FLOOR,
        ),
        (
            "fp32_tn_over_nn_x",
            bwd_totals[0][0] / bwd_totals[0][2],
            BWD_FLOOR,
        ),
        (
            "qgemm_int_nt_over_nn_x",
            bwd_totals[1][0] / bwd_totals[1][1],
            BWD_FLOOR,
        ),
        (
            "improvement_r_over_quant_slice_x",
            quant_floor / r_floor,
            0.45,
        ),
        ("col2im_over_im2col_x", im2col_floor / col2im_floor, 0.5),
        // Packing a conv operand from the tensor against materializing it
        // first (both axes): under 1.1 the source path has stopped paying
        // for itself (1.44–1.48 at sixteen lanes on the recording machine,
        // 1.31 with eight forced there; no AVX2-only host has timed it, so
        // the floor stays where the staged tiles' 1.3–1.4 put it). And the nearest
        // pack's time over the 8-bit-SR pack's: under 0.5 the SR pack has
        // lost its bulk noise (≈ 0.7 with it, 0.31 without).
        (
            "im2col_pack_over_pack_patches_x",
            (patch_floors[1] + patch_floors[3]) / (patch_floors[0] + patch_floors[2]),
            1.1,
        ),
        (
            "pack_nearest_over_sr8_x",
            pack_nearest_floor / pack_sr8_floor,
            0.5,
        ),
        // The serving GEMM, dense over integer: under SERVE_INT_FLOOR the
        // integer kernel has lost what it runs for — most likely the frozen
        // weight is being staged again, or copied whole (DESIGN.md §11).
        (
            "fp32_over_qgemm_int_serve_b8_x",
            serve_fp32_floor / serve_int_floor,
            SERVE_INT_FLOOR,
        ),
    ];
    ratios.extend(gated_ratios.iter().map(|&(key, x, _)| (key.to_string(), x)));
    // Reported, not gated: at stride 2 the source path must merely not lose.
    ratios.push((
        "im2col_pack_over_pack_patches_s2_x".to_string(),
        patch_floors[5] / patch_floors[4],
    ));
    for fmt_key in ["bfp_m4", "bfp_m2", "bfp_m4_sr"] {
        let find = |k: &str| results.iter().find(|(key, _)| *key == k).map(|&(_, ns)| ns);
        if let (Some(pipeline), Some(plan)) = (
            find(&format!("quant_gemm_{fmt_key}_ns")),
            find(&format!("qgemm_{fmt_key}_ns")),
        ) {
            if plan > 0.0 {
                ratios.push((
                    format!("qgemm_over_quant_gemm_{fmt_key}_x"),
                    pipeline / plan,
                ));
            }
        }
        // Integer-domain BFP vs the unquantized FP32 GEMM, same run: the
        // headline "BFP beats FP32" claim (> 1.0 means BFP is faster).
        if let (Some(fp32), Some(int)) = (
            find("fp32_gemm_ns"),
            find(&format!("qgemm_int_{fmt_key}_ns")),
        ) {
            if int > 0.0 {
                ratios.push((format!("fp32_over_qgemm_int_{fmt_key}_x"), fp32 / int));
            }
        }
    }

    // --- One training step of the small ResNet under HighBFP. ---
    let x = Tensor::from_vec(
        vec![8, 3, 16, 16],
        (0..8 * 3 * 256)
            .map(|i| (i as f32 * 0.01).sin().abs())
            .collect(),
    );
    let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut model = resnet_lite(ResNetConfig::resnet18(4, 4), &mut rng);
    set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
    let mut trainer = Trainer::new(model, Sgd::new(0.01, 0.9, 0.0), 0);
    let mut hook = NoopHook;
    results.push((
        "training_step_high_bfp_ns",
        time_ns(1, step_iters, || {
            black_box(trainer.step_classification(&x, &labels, &mut hook));
        }),
    ));

    // --- Telemetry overhead (DESIGN.md §15): the same body timed with
    // span collection off then on, back to back in one process, so the
    // pair isolates the cost of the span clock reads + histogram records
    // (the shape/MAC counters are always on in both legs). The `_pct`
    // rows are the measured overhead and must stay within the §15 budget
    // (<2% steady-state; CI enforces a slack quick-mode bound).
    //
    // Estimator: the bodies are deterministic, so their true cost is the
    // *floor* of the timing distribution — scheduler preemption and cache
    // pollution only ever push samples up, and the medians `time_ns`
    // reports for throughput rows wobble more than the span cost we are
    // trying to resolve. The two legs also alternate off/on at *sample*
    // granularity: timing whole legs back to back confounds the span cost
    // with slow drift (frequency scaling, page-cache warmup — the later
    // leg always runs hotter), while alternating samples draw both floors
    // from the same neighborhood of machine state. ---
    fn overhead_pair<F: FnMut()>(warmup: usize, iters: usize, mut f: F) -> (f64, f64) {
        for _ in 0..warmup {
            f();
        }
        let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 * iters {
            for (collect, floor) in [(false, &mut off), (true, &mut on)] {
                fast_telemetry::set_collection(collect);
                let t = Instant::now();
                f();
                *floor = floor.min(t.elapsed().as_nanos() as f64);
            }
        }
        fast_telemetry::set_collection(false);
        (off, on)
    }
    let overhead_pct = |off: f64, on: f64| {
        if off > 0.0 {
            (on - off) / off * 100.0
        } else {
            0.0
        }
    };

    // Quantize+pack (span site `qgemm.prepare`; `prepare` re-packs every
    // call — layer-level weight caches are not in play here).
    let sr_fmt = NumericFormat::bfp_stochastic(BfpFormat::high());
    let (q_off, q_on) = overhead_pair(warmup, iters, || {
        black_box(prepare(
            &mut session,
            black_box(&a),
            sr_fmt,
            GroupAxis::AlongRow,
        ));
    });
    results.push(("telemetry_overhead_quant_off_ns", q_off));
    results.push(("telemetry_overhead_quant_on_ns", q_on));
    ratios.push((
        "telemetry_overhead_quant_pct".to_string(),
        overhead_pct(q_off, q_on),
    ));

    // qGEMM execute (span sites `qgemm.execute.*` + per-kernel counters).
    {
        let numfmt = NumericFormat::bfp_nearest(BfpFormat::high());
        let ap = prepare(&mut session, &a, numfmt, GroupAxis::AlongRow);
        let bp = prepare(&mut session, &b, numfmt, GroupAxis::AlongCol);
        let (g_off, g_on) = overhead_pair(warmup, iters, || {
            black_box(execute(
                &mut session,
                Orient::Nn,
                black_box(&ap),
                black_box(&bp),
            ));
        });
        results.push(("telemetry_overhead_qgemm_off_ns", g_off));
        results.push(("telemetry_overhead_qgemm_on_ns", g_on));
        ratios.push((
            "telemetry_overhead_qgemm_pct".to_string(),
            overhead_pct(g_off, g_on),
        ));
    }

    // Full training step (span site `train.step` + per-step gauges, plus
    // every span underneath: im2col, prepare, execute).
    let (t_off, t_on) = overhead_pair(1, step_iters, || {
        black_box(trainer.step_classification(&x, &labels, &mut hook));
    });
    results.push(("telemetry_overhead_train_step_off_ns", t_off));
    results.push(("telemetry_overhead_train_step_on_ns", t_on));
    let train_step_overhead_pct = overhead_pct(t_off, t_on);
    ratios.push((
        "telemetry_overhead_train_step_pct".to_string(),
        train_step_overhead_pct,
    ));

    // --- Emit JSON: nanoseconds to the unit, ratios to two decimals. ---
    let mut current = vec![
        ("quick".to_string(), Json::Bool(quick)),
        (
            "gemm_workers".to_string(),
            Json::uint(fast_tensor::parallelism().workers() as u64),
        ),
        // Which integer kernel produced the `qgemm_int_*` rows: the same
        // bits on every host, not the same speed (DESIGN.md §11).
        (
            "int_kernel".to_string(),
            Json::Str(fast_tensor::qgemm::int_kernel().to_string()),
        ),
        // The rows the tile unit produced: it takes the products of four
        // rows or more — every `qgemm_int_*` row here, `Nt` included (its
        // B gathered into column panels once per call).
        (
            "int_tile_rows".to_string(),
            Json::Arr(match fast_tensor::qgemm::int_kernel() {
                "amx" => results
                    .iter()
                    .filter(|(key, _)| key.starts_with("qgemm_int_"))
                    .map(|(key, _)| Json::Str(key.to_string()))
                    .collect(),
                _ => Vec::new(),
            }),
        ),
        (
            "gemm_config".to_string(),
            Json::Arr([m, k, n].map(|d| Json::uint(d as u64)).to_vec()),
        ),
    ];
    current.extend(
        results
            .iter()
            .map(|&(key, ns)| (key.to_string(), Json::num(ns.round()))),
    );
    current.extend(
        ratios
            .into_iter()
            .map(|(key, x)| (key, Json::num((x * 100.0).round() / 100.0))),
    );
    let json = Json::Obj(vec![("current".to_string(), Json::Obj(current))]).render();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("{json}");
    println!("wrote {out_path}");

    // The gates this binary enforces itself: within-run ratios, so they hold
    // on any machine (`gated_ratios` above), and the span-collection cost of
    // a training step (DESIGN.md §15: < 2 % on a quiet machine; 15 % is the
    // slack a quick run on a shared runner gets).
    const OVERHEAD_BUDGET_PCT: f64 = 15.0;
    let mut failures: Vec<String> = gated_ratios
        .iter()
        .filter(|(_, x, floor)| x < floor)
        .map(|(key, x, floor)| format!("{key} = {x:.2} is under its floor {floor}"))
        .collect();
    if train_step_overhead_pct > OVERHEAD_BUDGET_PCT {
        failures.push(format!(
            "telemetry_overhead_train_step_pct = {train_step_overhead_pct:.2} is over its \
             budget {OVERHEAD_BUDGET_PCT}"
        ));
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("gate failed: {failure}");
        }
        std::process::exit(1);
    }
}
