//! Checkpoint & resume: bit-exact training continuation plus a serving hot
//! reload, end to end (DESIGN.md §10).
//!
//! Trains a small MLP under the FAST-Adaptive controller, checkpoints at
//! the midpoint (controller state riding along in the artifact's `hook`
//! section; the stochastic-rounding generator is just `sr_seed`/`sr_step`
//! in the `session` section, DESIGN.md §12), resumes into freshly
//! constructed objects, and verifies the resumed run is **bit-identical**
//! to an uninterrupted one. The trained artifact is then hot-swapped into a
//! running inference server.
//!
//! Run with: `cargo run --release --example checkpoint_resume [artifact.fastckpt]`
//! (an artifact path may be given to keep the checkpoint file around, e.g.
//! for the CI artifact upload; by default it is written to a temp dir and
//! removed).

use fast_dnn::ckpt::{Artifact, StateDict, SECTION_SESSION};
use fast_dnn::fast::{EpsilonSchedule, FastController};
use fast_dnn::nn::models::mlp;
use fast_dnn::nn::{Layer, Sequential, Sgd, Trainer};
use fast_dnn::serve::{BatchConfig, CompiledModel, Server};
use fast_dnn::tensor::Tensor;
use rand::SeedableRng;

const STEPS: usize = 12;
const SPLIT: usize = 6;

fn build_model() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    mlp(&[8, 32, 4], &mut rng)
}

fn build_controller() -> FastController {
    FastController::new(STEPS, EpsilonSchedule::paper_default())
}

fn batch(step: usize) -> (Tensor, Vec<usize>) {
    let x = Tensor::from_vec(
        vec![8, 8],
        (0..64)
            .map(|i| ((i * 37 + step * 101) % 251) as f32 * 0.008 - 1.0)
            .collect(),
    );
    let labels = (0..8).map(|i| (i + step) % 4).collect();
    (x, labels)
}

fn param_bits(model: &mut Sequential) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    bits
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (path, keep) = match std::env::args().nth(1) {
        Some(p) => (std::path::PathBuf::from(p), true),
        None => (
            std::env::temp_dir().join("fast_dnn_checkpoint_example.fastckpt"),
            false,
        ),
    };

    // Uninterrupted reference run under the FAST-Adaptive controller.
    let mut ctl = build_controller();
    let mut trainer = Trainer::new(build_model(), Sgd::new(0.05, 0.9, 1e-4), 77);
    let mut reference_losses = Vec::new();
    for s in 0..STEPS {
        let (x, labels) = batch(s);
        reference_losses.push(trainer.step_classification(&x, &labels, &mut ctl).loss);
    }
    let reference_params = param_bits(&mut trainer.model);

    // Interrupted run: train to the midpoint, checkpoint, drop everything.
    let mut ctl = build_controller();
    let mut trainer = Trainer::new(build_model(), Sgd::new(0.05, 0.9, 1e-4), 77);
    for s in 0..SPLIT {
        let (x, labels) = batch(s);
        let _ = trainer.step_classification(&x, &labels, &mut ctl);
    }
    trainer.save_checkpoint(&path, Some(&mut ctl))?;
    let artifact_bytes = std::fs::metadata(&path)?.len();
    println!(
        "checkpoint @ step {SPLIT}: {} ({artifact_bytes} bytes)",
        path.display()
    );
    drop(trainer);
    drop(ctl);

    // Stochastic-rounding noise is a pure function of (seed, element
    // offset), so the whole generator is two words on the wire.
    let session = StateDict::from_bytes(Artifact::load(&path)?.require(SECTION_SESSION)?)?;
    let rng_keys: Vec<&str> = session
        .iter()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("sr_") || k.starts_with("rng"))
        .collect();
    println!("RNG state on the wire: {rng_keys:?}");
    assert_eq!(rng_keys, ["sr_seed", "sr_step"]);

    // Resume into freshly constructed objects — every tensor, counter and
    // RNG word comes from the artifact.
    let mut ctl = build_controller();
    let mut trainer = Trainer::resume_from_path(
        build_model(),
        Sgd::new(0.05, 0.9, 1e-4),
        &path,
        Some(&mut ctl),
    )?;
    println!("resumed at iteration {}", trainer.iterations());
    let mut resumed_losses = Vec::new();
    for s in SPLIT..STEPS {
        let (x, labels) = batch(s);
        resumed_losses.push(trainer.step_classification(&x, &labels, &mut ctl).loss);
    }

    // Bit-exactness: the resumed tail must equal the reference tail, and
    // the final weights must match bit for bit.
    for (i, (resumed, reference)) in resumed_losses
        .iter()
        .zip(&reference_losses[SPLIT..])
        .enumerate()
    {
        let step = SPLIT + i;
        println!("step {step:2}: loss {resumed:.6}");
        assert_eq!(
            resumed.to_bits(),
            reference.to_bits(),
            "loss diverged at step {step}"
        );
    }
    assert_eq!(
        param_bits(&mut trainer.model),
        reference_params,
        "final weights must be bit-identical to the uninterrupted run"
    );
    println!(
        "resume is bit-exact: {} steps replayed, weights identical",
        STEPS - SPLIT
    );

    // Hot reload: hand the final weights to a running server.
    let final_artifact = trainer.checkpoint(None);
    let server = Server::start(
        vec![CompiledModel::compile(build_model(), 0)],
        BatchConfig::no_wait(8),
    );
    let x = batch(0).0;
    let before = server.infer(x.clone());
    let generation = server.reload(&final_artifact)?;
    let after = server.infer(x.clone());
    let mut trained = CompiledModel::compile(trainer.model, 0);
    assert_eq!(
        after,
        trained.infer(&x),
        "post-reload serving must match the trained model exactly"
    );
    assert_ne!(before, after, "reload must actually change the weights");
    let stats = server.shutdown();
    println!(
        "hot reload: generation {generation}, {} worker swap(s), {} request(s) served, zero dropped",
        stats.reloads, stats.samples
    );

    if !keep {
        std::fs::remove_file(&path)?;
    }
    Ok(())
}
