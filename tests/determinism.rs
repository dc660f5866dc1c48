//! End-to-end seed determinism (DESIGN.md §5, §9, §10).
//!
//! A full multi-step training run — stochastic-rounded BFP quantization,
//! packed-operand GEMMs, SGD with momentum and weight decay — must be
//! bit-identical (a) across two runs from the same seed, (b) across GEMM
//! worker counts, including `Parallelism::sequential()` versus the default,
//! and (c) across a checkpoint/resume boundary: a run checkpointed at step
//! k through `fast_ckpt` artifact *bytes* and resumed into freshly
//! constructed objects must finish with the same loss curve and the same
//! parameter bits as the uninterrupted run.
//!
//! Everything lives in one `#[test]` because the worker count is process
//! global; splitting it across tests would race.

use fast_dnn::ckpt::Artifact;
use fast_dnn::nn::models::mlp;
use fast_dnn::nn::{
    set_uniform_precision, BatchNorm2d, Conv2d, Dense, Flatten, Layer, LayerPrecision, MaxPool2d,
    NoopHook, Relu, Sequential, Sgd, Trainer,
};
use fast_dnn::tensor::{parallelism, set_parallelism, Parallelism, Tensor};
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-input batch.
fn batch(shape: Vec<usize>, salt: u64) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape,
        (0..n)
            .map(|i| {
                ((i as u64).wrapping_mul(salt.wrapping_add(2654435761)) % 997) as f32 * 0.002 - 1.0
            })
            .collect(),
    )
}

/// One cross-entropy step on the deterministic pseudo-batch for `step`;
/// returns the loss bits. Shared by the uninterrupted and resumed runs so
/// both execute literally the same iteration code.
fn step_once(trainer: &mut Trainer, input_shape: &[usize], step: usize) -> u64 {
    let classes = 3usize;
    let x = batch(input_shape.to_vec(), step as u64 + 1);
    let labels: Vec<usize> = (0..input_shape[0]).map(|i| (i + step) % classes).collect();
    trainer
        .step_classification(&x, &labels, &mut NoopHook)
        .loss
        .to_bits()
}

fn collect_params(trainer: &mut Trainer) -> Vec<u32> {
    let mut params = Vec::new();
    trainer
        .model
        .visit_params(&mut |p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
    params
}

fn sgd() -> Sgd {
    Sgd::new(0.05, 0.9, 1e-4)
}

/// Trains `model` for `steps` cross-entropy steps; returns per-step losses
/// and the flattened final parameters.
fn train(mut model: Sequential, input_shape: Vec<usize>, steps: usize) -> (Vec<u64>, Vec<u32>) {
    // The paper's training setting: nearest-rounded W/A, stochastic-rounded
    // gradients — the stochastic bit stream is the interesting part.
    set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
    let mut trainer = Trainer::new(model, sgd(), 42);
    let mut losses = Vec::new();
    for step in 0..steps {
        losses.push(step_once(&mut trainer, &input_shape, step));
    }
    let params = collect_params(&mut trainer);
    (losses, params)
}

/// Like [`train`], but the run is interrupted at `split`: checkpointed to
/// artifact *bytes*, the trainer dropped, and a resumed trainer — built
/// from a freshly constructed architecture with untouched default formats —
/// finishes the remaining steps. Everything (weights, SGD momenta, session
/// RNG mid-stream, per-layer precision, iteration count) must come from the
/// artifact for the result to match [`train`] bit for bit.
fn train_resumed(
    build: &dyn Fn() -> Sequential,
    input_shape: Vec<usize>,
    steps: usize,
    split: usize,
) -> (Vec<u64>, Vec<u32>) {
    let mut model = build();
    set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
    let mut trainer = Trainer::new(model, sgd(), 42);
    let mut losses = Vec::new();
    for step in 0..split {
        losses.push(step_once(&mut trainer, &input_shape, step));
    }
    let bytes = trainer.checkpoint(None).to_bytes();
    drop(trainer);

    // Note: no `set_uniform_precision` here — the artifact restores the
    // per-layer formats along with the weights.
    let artifact = Artifact::from_bytes(&bytes).expect("checkpoint bytes decode");
    let mut trainer = Trainer::resume(build(), sgd(), &artifact, None).expect("checkpoint resumes");
    assert_eq!(trainer.iterations(), split, "iteration count restored");
    for step in split..steps {
        losses.push(step_once(&mut trainer, &input_shape, step));
    }
    let params = collect_params(&mut trainer);
    (losses, params)
}

fn mlp_model() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    mlp(&[8, 24, 3], &mut rng)
}

fn mlp_run() -> (Vec<u64>, Vec<u32>) {
    train(mlp_model(), vec![6, 8], 6)
}

fn mlp_resumed_run() -> (Vec<u64>, Vec<u32>) {
    train_resumed(&mlp_model, vec![6, 8], 6, 3)
}

/// A ResNet-lite-style stem: conv → BN → ReLU → pool → conv → flatten →
/// dense, exercising Conv2d's forward/backward GEMMs and BatchNorm.
fn conv_model() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    Sequential::new()
        .push(Conv2d::new(2, 6, 3, 1, 1, false, &mut rng))
        .push(BatchNorm2d::new(6))
        .push(Relu::new())
        .push(MaxPool2d::new(2))
        .push(Conv2d::new(6, 4, 3, 1, 1, true, &mut rng))
        .push(Flatten::new())
        .push(Dense::new(4 * 4 * 4, 3, true, &mut rng))
}

fn convnet_run() -> (Vec<u64>, Vec<u32>) {
    train(conv_model(), vec![4, 2, 8, 8], 4)
}

fn convnet_resumed_run() -> (Vec<u64>, Vec<u32>) {
    train_resumed(&conv_model, vec![4, 2, 8, 8], 4, 2)
}

/// A run that also exercises non-uniform random data paths.
fn noisy_mlp_run() -> (Vec<u64>, Vec<u32>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let model = mlp(&[5, 16, 3], &mut rng);
    let mut data_rng = rand::rngs::StdRng::seed_from_u64(77);
    let mut model = model;
    set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(2));
    let mut trainer = Trainer::new(model, Sgd::new(0.1, 0.0, 0.0), 9);
    let mut losses = Vec::new();
    for step in 0..5 {
        let x = Tensor::from_vec(
            vec![4, 5],
            (0..20).map(|_| data_rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let labels: Vec<usize> = (0..4).map(|i| (i + step) % 3).collect();
        losses.push(
            trainer
                .step_classification(&x, &labels, &mut NoopHook)
                .loss
                .to_bits(),
        );
    }
    let mut params = Vec::new();
    trainer
        .model
        .visit_params(&mut |p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
    (losses, params)
}

#[test]
fn training_is_bit_identical_across_runs_and_worker_counts() {
    let saved = parallelism();

    // (a) Same seed, same worker count → bit-identical runs.
    set_parallelism(Parallelism::sequential());
    let mlp_seq = mlp_run();
    assert_eq!(mlp_seq, mlp_run(), "MLP run must replay bit-identically");
    let conv_seq = convnet_run();
    assert_eq!(
        conv_seq,
        convnet_run(),
        "convnet run must replay bit-identically"
    );
    let noisy_seq = noisy_mlp_run();
    assert_eq!(noisy_seq, noisy_mlp_run());

    // (c) Checkpoint at step k + resume must be indistinguishable from the
    // uninterrupted run — same losses, same final parameter bits
    // (DESIGN.md §10; the RNG state on the wire is just `(sr_seed, sr_step)`).
    assert_eq!(
        mlp_seq,
        mlp_resumed_run(),
        "MLP checkpoint/resume must be bit-identical to the uninterrupted run"
    );
    assert_eq!(
        conv_seq,
        convnet_resumed_run(),
        "convnet checkpoint/resume must be bit-identical to the uninterrupted run"
    );

    // (b) Worker count must not change a single result bit: sequential vs
    // small pools vs the machine default — SR noise is keyed by element
    // offset, so its draws shard across the pool too — including across the
    // checkpoint/resume boundary (a checkpoint written under one worker
    // count resumes identically under another via the CI sequential leg).
    for workers in [2usize, 3, 8] {
        set_parallelism(Parallelism::new(workers));
        assert_eq!(mlp_seq, mlp_run(), "MLP differs under {workers} workers");
        assert_eq!(
            conv_seq,
            convnet_run(),
            "convnet differs under {workers} workers"
        );
        assert_eq!(
            mlp_seq,
            mlp_resumed_run(),
            "resumed MLP differs under {workers} workers"
        );
    }
    set_parallelism(Parallelism::default());
    assert_eq!(mlp_seq, mlp_run(), "MLP differs under default workers");
    assert_eq!(
        conv_seq,
        convnet_run(),
        "convnet differs under default workers"
    );
    assert_eq!(noisy_seq, noisy_mlp_run());
    assert_eq!(
        conv_seq,
        convnet_resumed_run(),
        "resumed convnet differs under default workers"
    );

    // (d) Telemetry neutrality (DESIGN.md §15): turning span collection on
    // must not change a single result bit. Instrumentation reads clocks and
    // values the computation already produced — never the SR noise stream
    // or tensor data — so losses and final parameter bits must match the
    // collection-off baselines above exactly. Collection is process-global,
    // which is why this leg lives in the same #[test].
    fast_dnn::telemetry::set_collection(true);
    set_parallelism(Parallelism::sequential());
    assert_eq!(
        mlp_seq,
        mlp_run(),
        "span collection must be bit-invisible to the MLP run"
    );
    assert_eq!(
        conv_seq,
        convnet_run(),
        "span collection must be bit-invisible to the convnet run"
    );
    assert_eq!(
        mlp_seq,
        mlp_resumed_run(),
        "span collection must be bit-invisible across checkpoint/resume"
    );
    set_parallelism(Parallelism::default());
    assert_eq!(
        mlp_seq,
        mlp_run(),
        "span collection must be bit-invisible under default workers"
    );
    fast_dnn::telemetry::set_collection(false);

    set_parallelism(saved);
}
