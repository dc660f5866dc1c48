//! Checkpoint artifact integration tests (DESIGN.md §10).
//!
//! * Round-trip property: for every format in the 10-format zoo (the same
//!   zoo the quantized-GEMM plan is pinned over), a run checkpointed to
//!   artifact bytes and resumed — parameters, per-layer formats, session
//!   RNG mid-stream, and optimizer state all from the artifact — continues
//!   bit-identically to the uninterrupted run.
//! * The FAST controller resumes as part of the artifact's `hook` section:
//!   precision decisions and the Fig 17 trace continue seamlessly.
//! * A trained artifact saved to disk hot-reloads into a running server.
//! * Malformed artifacts surface typed errors end to end, never panics.

use fast_dnn::bfp::{BfpFormat, Rounding};
use fast_dnn::ckpt::{Artifact, CkptError};
use fast_dnn::fast::{EpsilonSchedule, FastController};
use fast_dnn::nn::models::mlp;
use fast_dnn::nn::{
    set_uniform_precision, Dense, Layer, LayerPrecision, NoopHook, NumericFormat, Relu, Sequential,
    Sgd, Trainer,
};
use fast_dnn::serve::{BatchConfig, CompiledModel, Server};
use fast_dnn::tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;

/// The format zoo of `crates/nn/tests/proptests.rs`: FP32 borrow-through,
/// scalar formats, packable BFP across rounding modes/windows, and
/// wide-mantissa BFP fallbacks.
fn zoo_format(idx: usize) -> NumericFormat {
    match idx % 10 {
        0 => NumericFormat::Fp32,
        1 => NumericFormat::bf16(),
        2 => NumericFormat::int8(),
        3 => NumericFormat::bfp_nearest(BfpFormat::low()),
        4 => NumericFormat::bfp_nearest(BfpFormat::high()),
        5 => NumericFormat::bfp_stochastic(BfpFormat::high()),
        6 => NumericFormat::Bfp {
            format: BfpFormat::new(16, 3, 3).unwrap(),
            rounding: Rounding::Stochastic { noise_bits: 5 },
            windowed: true,
        },
        7 => NumericFormat::Bfp {
            format: BfpFormat::new(8, 7, 8).unwrap(),
            rounding: Rounding::Truncate,
            windowed: false,
        },
        8 => NumericFormat::bfp_nearest(BfpFormat::new(16, 12, 8).unwrap()),
        _ => NumericFormat::Bfp {
            format: BfpFormat::msfp12(),
            rounding: Rounding::Nearest,
            windowed: true,
        },
    }
}

fn model(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Sequential::new()
        .push(Dense::new(6, 16, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(16, 3, true, &mut rng))
}

fn batch(step: usize, salt: u64) -> (Tensor, Vec<usize>) {
    let x = Tensor::from_vec(
        vec![4, 6],
        (0..24)
            .map(|i| {
                let h = (i as u64 + 31 * step as u64).wrapping_mul(salt.wrapping_add(0x9E37_79B9))
                    % 1009;
                h as f32 * 0.0015 - 0.75
            })
            .collect(),
    );
    let labels = (0..4).map(|i| (i + step) % 3).collect();
    (x, labels)
}

fn step(trainer: &mut Trainer, step_idx: usize, salt: u64) -> u64 {
    let (x, labels) = batch(step_idx, salt);
    trainer
        .step_classification(&x, &labels, &mut NoopHook)
        .loss
        .to_bits()
}

fn final_bits(trainer: &mut Trainer) -> Vec<u32> {
    let mut params = Vec::new();
    trainer
        .model
        .visit_params(&mut |p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Checkpoint/resume is bit-exact across the whole zoo: W/A/G formats
    /// drawn independently (so SR formats land on every operand class),
    /// arbitrary split points, arbitrary seeds.
    #[test]
    fn zoo_roundtrip_resume_is_bit_exact(
        w_idx in 0usize..10,
        a_idx in 0usize..10,
        g_idx in 0usize..10,
        seed in 0u64..1000,
        split in 1usize..4,
    ) {
        let precision = LayerPrecision {
            weights: zoo_format(w_idx),
            activations: zoo_format(a_idx),
            gradients: zoo_format(g_idx),
        };
        let steps = split + 2;

        // Uninterrupted reference.
        let mut m = model(seed);
        set_uniform_precision(&mut m, precision);
        let mut straight = Trainer::new(m, Sgd::new(0.05, 0.9, 1e-4), seed ^ 0xC0FFEE);
        let mut want_losses = Vec::new();
        for s in 0..steps {
            want_losses.push(step(&mut straight, s, seed));
        }
        let want_params = final_bits(&mut straight);

        // Interrupted twin: checkpoint at `split`, resume into a fresh
        // architecture (default formats — the artifact restores them).
        let mut m = model(seed);
        set_uniform_precision(&mut m, precision);
        let mut first = Trainer::new(m, Sgd::new(0.05, 0.9, 1e-4), seed ^ 0xC0FFEE);
        let mut got_losses = Vec::new();
        for s in 0..split {
            got_losses.push(step(&mut first, s, seed));
        }
        let bytes = first.checkpoint(None).to_bytes();
        drop(first);
        let artifact = Artifact::from_bytes(&bytes).expect("bytes decode");
        let mut resumed = Trainer::resume(model(seed), Sgd::new(0.05, 0.9, 1e-4), &artifact, None)
            .expect("artifact resumes");
        for s in split..steps {
            got_losses.push(step(&mut resumed, s, seed));
        }
        prop_assert_eq!(got_losses, want_losses);
        prop_assert_eq!(final_bits(&mut resumed), want_params);
    }
}

#[test]
fn controller_run_resumes_bit_identically_with_hook_state() {
    let steps = 8usize;
    let split = 4usize;
    let build_ctl = || FastController::new(steps, EpsilonSchedule::paper_default()).with_stride(2);

    // Uninterrupted run under the controller (sensitivity caches on).
    let run = |interrupt: bool| -> (Vec<u64>, Vec<u32>, String) {
        let mut ctl = build_ctl();
        let mut trainer = Trainer::new(mlp_model(), Sgd::new(0.05, 0.9, 0.0), 7);
        let mut losses = Vec::new();
        let run_steps = |trainer: &mut Trainer,
                         ctl: &mut FastController,
                         range: std::ops::Range<usize>,
                         losses: &mut Vec<u64>| {
            for s in range {
                let (x, labels) = batch(s, 99);
                losses.push(trainer.step_classification(&x, &labels, ctl).loss.to_bits());
            }
        };
        if interrupt {
            run_steps(&mut trainer, &mut ctl, 0..split, &mut losses);
            let bytes = trainer.checkpoint(Some(&mut ctl)).to_bytes();
            drop(trainer);
            drop(ctl);
            let artifact = Artifact::from_bytes(&bytes).unwrap();
            let mut ctl2 = build_ctl();
            let mut trainer2 = Trainer::resume(
                mlp_model(),
                Sgd::new(0.05, 0.9, 0.0),
                &artifact,
                Some(&mut ctl2),
            )
            .expect("controller run resumes");
            run_steps(&mut trainer2, &mut ctl2, split..steps, &mut losses);
            let mut params = Vec::new();
            trainer2
                .model
                .visit_params(&mut |p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
            (losses, params, ctl2.trace.render_ascii(4))
        } else {
            run_steps(&mut trainer, &mut ctl, 0..steps, &mut losses);
            let mut params = Vec::new();
            trainer
                .model
                .visit_params(&mut |p| params.extend(p.value.data().iter().map(|v| v.to_bits())));
            (losses, params, ctl.trace.render_ascii(4))
        }
    };

    let straight = run(false);
    let resumed = run(true);
    assert_eq!(resumed.0, straight.0, "controller-run losses must match");
    assert_eq!(resumed.1, straight.1, "controller-run weights must match");
    assert_eq!(
        resumed.2, straight.2,
        "the resumed Fig 17 trace must continue the pre-checkpoint history"
    );
}

fn mlp_model() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    mlp(&[6, 12, 3], &mut rng)
}

#[test]
fn trained_artifact_hot_reloads_into_a_running_server() {
    // Train a model, checkpoint it to disk — the artifact a training fleet
    // hands to the serving fleet.
    let dir = std::env::temp_dir().join("fast_ckpt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.fastckpt");
    let mut m = model(42);
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    let mut trainer = Trainer::new(m, Sgd::new(0.05, 0.9, 0.0), 5);
    for s in 0..4 {
        let _ = step(&mut trainer, s, 17);
    }
    trainer.save_checkpoint(&path, None).unwrap();

    // Reference: what the trained model should serve.
    let trained = Trainer::resume(
        model(42),
        Sgd::new(0.05, 0.9, 0.0),
        &Artifact::load(&path).unwrap(),
        None,
    )
    .unwrap();
    let mut reference = CompiledModel::compile(trained.model, 0);
    let x = Tensor::from_vec(vec![1, 6], (0..6).map(|i| 0.1 * i as f32 - 0.2).collect());
    let want = reference.infer(&x);

    // A server of *untrained* replicas picks the weights up via reload.
    let replicas = (0..2)
        .map(|_| {
            let mut m = model(42);
            set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
            CompiledModel::compile(m, 0)
        })
        .collect();
    let server = Server::start(replicas, BatchConfig::no_wait(4));
    let before = server.infer(x.clone());
    assert_ne!(before, want, "untrained replicas serve different outputs");
    server.reload(&Artifact::load(&path).unwrap()).unwrap();
    assert_eq!(
        server.infer(x),
        want,
        "post-reload serving must be bit-transparent to the trained model"
    );
    let stats = server.shutdown();
    assert_eq!(stats.reload_failures, 0);
    assert_eq!(stats.reloads, 2);
    std::fs::remove_file(&path).unwrap();
}

/// The session's RNG state on the wire is exactly `(sr_seed, sr_step)` —
/// no `rng0..rng3` generator words — and a run resumed from it continues
/// bit-identically to the uninterrupted run.
#[test]
fn counter_sr_checkpoint_carries_seed_step_and_resumes_bit_exactly() {
    use fast_dnn::ckpt::{StateDict, SECTION_SESSION};
    let precision = LayerPrecision {
        weights: zoo_format(5),     // SR HighBFP
        activations: zoo_format(6), // SR windowed, 5 noise bits
        gradients: zoo_format(5),
    };
    let (steps, split) = (5usize, 2usize);
    let seed = 77u64;

    let make = || {
        let mut m = model(seed);
        set_uniform_precision(&mut m, precision);
        Trainer::new(m, Sgd::new(0.05, 0.9, 1e-4), seed)
    };

    // Uninterrupted reference.
    let mut straight = make();
    let mut want_losses = Vec::new();
    for s in 0..steps {
        want_losses.push(step(&mut straight, s, seed));
    }
    let want_params = final_bits(&mut straight);

    // Interrupted twin.
    let mut first = make();
    let mut got_losses = Vec::new();
    for s in 0..split {
        got_losses.push(step(&mut first, s, seed));
    }
    let bytes = first.checkpoint(None).to_bytes();
    drop(first);
    let artifact = Artifact::from_bytes(&bytes).expect("bytes decode");

    // The wire shape: (seed, step) and nothing of the retired four-word
    // stream state.
    let session = StateDict::from_bytes(artifact.require(SECTION_SESSION).unwrap()).unwrap();
    assert!(session.get("sr_seed").is_some(), "sr_seed on the wire");
    assert!(session.get("sr_step").is_some(), "sr_step on the wire");
    for key in ["rng0", "rng1", "rng2", "rng3"] {
        assert!(
            session.get(key).is_none(),
            "artifact must not carry stream word {key}"
        );
    }

    let mut m = model(seed);
    set_uniform_precision(&mut m, precision);
    let mut resumed = Trainer::resume(m, Sgd::new(0.05, 0.9, 1e-4), &artifact, None)
        .expect("counter artifact resumes");
    for s in split..steps {
        got_losses.push(step(&mut resumed, s, seed));
    }
    assert_eq!(got_losses, want_losses);
    assert_eq!(final_bits(&mut resumed), want_params);
}

/// Sequential-era artifacts — a session section holding the four
/// `rng0..rng3` generator words and no `sr_seed` — cannot continue
/// bit-exactly now that the stream is gone. Resume must say so in a typed
/// error naming the remedy: not a panic, not a bare missing-entry, and never
/// a silently reseeded trainer.
#[test]
fn sequential_era_artifact_fails_resume_naming_the_retired_stream() {
    use fast_dnn::ckpt::{StateDict, StateValue, SECTION_MODEL, SECTION_SESSION};
    let mut trainer = Trainer::new(model(9), Sgd::new(0.05, 0.9, 1e-4), 9);
    let _ = step(&mut trainer, 0, 9);
    let mut artifact = trainer.checkpoint(None);

    // The session section exactly as the sequential mode wrote it.
    let mut session = StateDict::new();
    for (key, word) in [("rng0", 0x9E37u64), ("rng1", 1), ("rng2", 2), ("rng3", 3)] {
        session.insert(key.to_string(), StateValue::U64(word));
    }
    for key in [
        "plan_gemms",
        "plan_macs",
        "quant_groups",
        "quant_saturated",
        "quant_zeros",
    ] {
        session.insert(key.to_string(), StateValue::U64(7));
    }
    artifact.insert(SECTION_SESSION, session.to_bytes());

    let err = Trainer::resume(model(9), Sgd::new(0.05, 0.9, 1e-4), &artifact, None).unwrap_err();
    assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    let msg = err.to_string();
    for needle in ["rng0..rng3", "sr_seed", "restore_state", "re-train"] {
        assert!(msg.contains(needle), "error must mention {needle:?}: {msg}");
    }

    // The remedy it names works: the model section alone still restores.
    let mut served = model(1);
    let dict = StateDict::from_bytes(artifact.require(SECTION_MODEL).unwrap()).unwrap();
    fast_dnn::ckpt::restore_state(&mut served, &dict).expect("model section restores alone");
    let mut served_bits = Vec::new();
    served.visit_params(&mut |p| served_bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    assert_eq!(served_bits, final_bits(&mut trainer));
}

#[test]
fn malformed_artifacts_fail_resume_with_typed_errors() {
    let mut trainer = Trainer::new(model(1), Sgd::new(0.1, 0.0, 0.0), 0);
    let _ = step(&mut trainer, 0, 1);
    let good = trainer.checkpoint(None).to_bytes();

    // Truncated file.
    let err = Artifact::from_bytes(&good[..good.len() / 2]).unwrap_err();
    assert!(
        matches!(
            err,
            CkptError::Truncated { .. } | CkptError::ChecksumMismatch { .. }
        ),
        "{err}"
    );
    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'Z';
    assert!(matches!(
        Artifact::from_bytes(&bad).unwrap_err(),
        CkptError::BadMagic { .. }
    ));
    // Wrong version.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        Artifact::from_bytes(&bad).unwrap_err(),
        CkptError::UnsupportedVersion { found: 2 }
    ));
    // Checksum mismatch: flip a payload byte near the end.
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x40;
    assert!(matches!(
        Artifact::from_bytes(&bad).unwrap_err(),
        CkptError::ChecksumMismatch { .. }
    ));

    // Architecture mismatch: a valid artifact restored into the wrong model
    // is a typed error, and resume hands back no trainer.
    let artifact = Artifact::from_bytes(&good).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let wrong = Sequential::new().push(Dense::new(2, 2, true, &mut rng));
    let err = Trainer::resume(wrong, Sgd::new(0.1, 0.0, 0.0), &artifact, None).unwrap_err();
    assert!(
        matches!(
            err,
            CkptError::MissingEntry { .. }
                | CkptError::ShapeMismatch { .. }
                | CkptError::UnconsumedEntries { .. }
        ),
        "{err}"
    );

    // Resuming with a hook when the artifact has none is a missing section.
    let mut ctl = FastController::new(4, EpsilonSchedule::paper_default());
    let err =
        Trainer::resume(model(1), Sgd::new(0.1, 0.0, 0.0), &artifact, Some(&mut ctl)).unwrap_err();
    assert!(matches!(err, CkptError::MissingSection { section } if section == "hook"));
}
