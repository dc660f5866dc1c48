//! The training loop with precision-controller hooks.
//!
//! [`Trainer`] owns a model, an optimizer and a [`Session`]; experiment code
//! drives it batch by batch. A [`TrainHook`] is invoked around each
//! iteration — the FAST-Adaptive controller (in `fast-core`) is one such
//! hook, as are the static schedules of paper Fig 9 and the cost meters
//! behind Fig 19/20.

use crate::layer::{Layer, Session};
use crate::loss::softmax_cross_entropy;
use crate::metrics::accuracy_percent;
use crate::model::Sequential;
use crate::optim::Sgd;
use fast_ckpt::{
    capture_state, restore_state, Artifact, CkptError, StateDict, StateVisitor, VisitState,
    SECTION_HOOK, SECTION_META, SECTION_MODEL, SECTION_OPTIMIZER, SECTION_SESSION,
};
use fast_tensor::Tensor;
use std::path::Path;

/// Observer/controller invoked around each training iteration.
pub trait TrainHook {
    /// Called before the forward pass of iteration `iter` (0-based).
    fn before_iteration(&mut self, iter: usize, model: &mut Sequential) {
        let _ = (iter, model);
    }
    /// Called after the backward pass, before the optimizer step.
    fn after_backward(&mut self, iter: usize, model: &mut Sequential) {
        let _ = (iter, model);
    }
    /// Whether this hook reads per-layer sensitivity tensors
    /// (`QuantControlled::last_grad_output`). [`Trainer`] copies the answer
    /// into [`Session::record_sensitivity`] each step, so plain training
    /// (the default `false`) skips the per-layer `grad_output` clone that
    /// only precision controllers consume.
    ///
    /// [`Session::record_sensitivity`]: crate::Session
    fn wants_sensitivity(&self) -> bool {
        false
    }
}

/// A hook that does nothing (plain training).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopHook;
impl TrainHook for NoopHook {}

/// One training step's outcome, returned by [`Trainer::step_classification`]
/// and [`Trainer::step_custom`].
///
/// The loss is recorded *before* the optimizer step of the same iteration,
/// so plotting `loss` against `iter` gives the conventional training curve
/// (the value the controller hooks also observe).
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// 0-based iteration index of the step that produced these stats.
    pub iter: usize,
    /// Mean loss over the batch (cross-entropy for
    /// [`Trainer::step_classification`]; whatever the closure returned for
    /// [`Trainer::step_custom`]).
    pub loss: f64,
}

/// Owns the pieces of a training run.
///
/// ```
/// use fast_nn::{Dense, Relu, Sequential, Sgd, NoopHook, Trainer};
/// use fast_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let model = Sequential::new()
///     .push(Dense::new(2, 8, true, &mut rng))
///     .push(Relu::new())
///     .push(Dense::new(8, 2, true, &mut rng));
/// let mut trainer = Trainer::new(model, Sgd::new(0.1, 0.9, 0.0), 0);
/// let x = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]);
/// let stats = trainer.step_classification(&x, &[1, 0], &mut NoopHook);
/// assert_eq!(stats.iter, 0);
/// assert!(stats.loss.is_finite());
/// assert_eq!(trainer.iterations(), 1);
/// ```
pub struct Trainer {
    /// The model being trained.
    pub model: Sequential,
    /// The optimizer.
    pub opt: Sgd,
    /// Forward/backward session (RNG for stochastic rounding).
    pub session: Session,
    iter: usize,
}

impl Trainer {
    /// Creates a trainer. Its session computes no gradient for the model
    /// input — a step discards it — so the model's first layer skips its
    /// input-gradient GEMM ([`Session::input_grad`]); every weight, loss
    /// and noise draw is the same as a plain [`Session::new`] run's.
    pub fn new(model: Sequential, opt: Sgd, seed: u64) -> Self {
        let mut session = Session::new(seed);
        session.input_grad = false;
        Trainer {
            model,
            opt,
            session,
            iter: 0,
        }
    }

    /// Number of optimizer steps taken so far.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Runs one cross-entropy training step on `(inputs, labels)` with the
    /// given hook.
    pub fn step_classification(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        hook: &mut dyn TrainHook,
    ) -> StepStats {
        let _span = fast_telemetry::span!("train.step");
        hook.before_iteration(self.iter, &mut self.model);
        self.session.train = true;
        self.session.record_sensitivity = hook.wants_sensitivity();
        let logits = self.model.forward(inputs, &mut self.session);
        let (loss, grad) = softmax_cross_entropy(&logits, labels);
        self.model.backward(&grad, &mut self.session);
        hook.after_backward(self.iter, &mut self.model);
        self.opt.step(&mut self.model);
        let stats = StepStats {
            iter: self.iter,
            loss,
        };
        self.iter += 1;
        crate::telemetry::note_train_step(loss, self.iter as u64, self.session.sr_state().1);
        stats
    }

    /// Runs one training step with a custom loss: `loss_fn` maps the model
    /// output to `(loss, grad_wrt_output)`.
    pub fn step_custom(
        &mut self,
        inputs: &Tensor,
        loss_fn: &mut dyn FnMut(&Tensor) -> (f64, Tensor),
        hook: &mut dyn TrainHook,
    ) -> StepStats {
        let _span = fast_telemetry::span!("train.step");
        hook.before_iteration(self.iter, &mut self.model);
        self.session.train = true;
        self.session.record_sensitivity = hook.wants_sensitivity();
        let out = self.model.forward(inputs, &mut self.session);
        let (loss, grad) = loss_fn(&out);
        self.model.backward(&grad, &mut self.session);
        hook.after_backward(self.iter, &mut self.model);
        self.opt.step(&mut self.model);
        let stats = StepStats {
            iter: self.iter,
            loss,
        };
        self.iter += 1;
        crate::telemetry::note_train_step(loss, self.iter as u64, self.session.sr_state().1);
        stats
    }

    /// Captures the full training state as a checkpoint [`Artifact`]:
    /// model parameters/buffers/formats (`model` section), optimizer slots
    /// (`optimizer`), session RNG + plan counters (`session`) and the
    /// iteration count (`meta`). Pass the precision controller (or any
    /// other stateful hook) as `hook_state` to ride along in the `hook`
    /// section (DESIGN.md §10).
    ///
    /// Checkpoints are taken at step boundaries — after an optimizer step,
    /// before the next `step_*` call — where gradient accumulators are zero
    /// and the captured state is exactly what the next iteration reads. A
    /// run resumed from the artifact continues **bit-identically** to an
    /// uninterrupted one (`tests/determinism.rs`).
    pub fn checkpoint(&mut self, hook_state: Option<&mut dyn VisitState>) -> Artifact {
        let mut artifact = Artifact::new();
        let mut meta = TrainerMeta {
            iterations: self.iter as u64,
        };
        artifact.insert(SECTION_META, capture_state(&mut meta).to_bytes());
        artifact.insert(SECTION_MODEL, capture_state(&mut self.model).to_bytes());
        artifact.insert(SECTION_OPTIMIZER, capture_state(&mut self.opt).to_bytes());
        artifact.insert(SECTION_SESSION, capture_state(&mut self.session).to_bytes());
        if let Some(hook) = hook_state {
            artifact.insert(SECTION_HOOK, capture_state(hook).to_bytes());
        }
        artifact
    }

    /// [`Trainer::checkpoint`] written straight to a file.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the file cannot be written.
    pub fn save_checkpoint<P: AsRef<Path>>(
        &mut self,
        path: P,
        hook_state: Option<&mut dyn VisitState>,
    ) -> Result<(), CkptError> {
        self.checkpoint(hook_state).save(path)
    }

    /// Rebuilds a trainer from a checkpoint artifact.
    ///
    /// `model` and `opt` supply the *architecture* and configuration —
    /// construct them exactly as the original run did (any RNG used for
    /// initialization is about to be overwritten, so the seed does not
    /// matter); the artifact supplies every tensor, counter and RNG word.
    /// Pass the freshly constructed controller as `hook_state` to restore
    /// its `hook` section too. Restoration is strict: missing or extra
    /// entries, kind/shape mismatches and malformed encodings are typed
    /// errors, and the partially-written trainer is discarded.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] from section decoding or state restoration;
    /// [`CkptError::Corrupt`], naming the remedy, for an artifact whose
    /// session section predates counter noise (`rng0..rng3`, no `sr_seed`).
    pub fn resume(
        model: Sequential,
        opt: Sgd,
        artifact: &Artifact,
        hook_state: Option<&mut dyn VisitState>,
    ) -> Result<Trainer, CkptError> {
        let mut trainer = Trainer::new(model, opt, 0);
        let mut meta = TrainerMeta { iterations: 0 };
        restore_state(
            &mut meta,
            &StateDict::from_bytes(artifact.require(SECTION_META)?)?,
        )?;
        trainer.iter = meta.iterations as usize;
        restore_state(
            &mut trainer.model,
            &StateDict::from_bytes(artifact.require(SECTION_MODEL)?)?,
        )?;
        restore_state(
            &mut trainer.opt,
            &StateDict::from_bytes(artifact.require(SECTION_OPTIMIZER)?)?,
        )?;
        let session_dict = StateDict::from_bytes(artifact.require(SECTION_SESSION)?)?;
        // Artifacts written before counter noise became the only source
        // carry the sequential stream's generator words instead of
        // `sr_seed`/`sr_step`. That stream no longer exists, so the run
        // cannot continue bit-exactly — say so rather than report a bare
        // missing entry (or worse, reseed silently).
        if session_dict.get("sr_seed").is_none() && session_dict.get("rng0").is_some() {
            return Err(CkptError::Corrupt {
                context: "the session section holds the retired sequential \
                          stochastic-rounding stream (rng0..rng3) and no sr_seed/sr_step, so \
                          this run cannot be resumed bit-exactly: restore the model section \
                          alone with fast_ckpt::restore_state to serve it, or re-train to \
                          continue it"
                    .to_string(),
            });
        }
        restore_state(&mut trainer.session, &session_dict)?;
        if let Some(hook) = hook_state {
            restore_state(
                hook,
                &StateDict::from_bytes(artifact.require(SECTION_HOOK)?)?,
            )?;
        }
        Ok(trainer)
    }

    /// [`Trainer::resume`] reading the artifact from a file.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] from reading, decoding or restoring.
    pub fn resume_from_path<P: AsRef<Path>>(
        model: Sequential,
        opt: Sgd,
        path: P,
        hook_state: Option<&mut dyn VisitState>,
    ) -> Result<Trainer, CkptError> {
        Trainer::resume(model, opt, &Artifact::load(path)?, hook_state)
    }

    /// Evaluates classification accuracy (%) over a set of batches.
    pub fn evaluate_classification(&mut self, batches: &[(Tensor, Vec<usize>)]) -> f64 {
        self.session.train = false;
        let mut correct_weighted = 0.0f64;
        let mut total = 0usize;
        for (x, labels) in batches {
            let logits = self.model.forward(x, &mut self.session);
            let acc = accuracy_percent(&logits, labels);
            correct_weighted += acc * labels.len() as f64;
            total += labels.len();
        }
        self.session.train = true;
        if total == 0 {
            0.0
        } else {
            correct_weighted / total as f64
        }
    }
}

/// The `meta` section payload: loop-level counters.
struct TrainerMeta {
    iterations: u64,
}

impl VisitState for TrainerMeta {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        v.scalar_u64("iterations", &mut self.iterations);
    }
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Trainer(iter={}, model={:?})", self.iter, self.model)
    }
}

/// Compact progress line for logs: the step count and the model's layer
/// count, e.g. `trainer @ iter 42 (5 layers)`.
impl std::fmt::Display for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trainer @ iter {} ({} layers)",
            self.iter,
            self.model.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Relu;
    use crate::linear::Dense;
    use rand::SeedableRng;

    #[test]
    fn trainer_learns_xor_like_task() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let model = Sequential::new()
            .push(Dense::new(2, 16, true, &mut rng))
            .push(Relu::new())
            .push(Dense::new(16, 2, true, &mut rng));
        let mut trainer = Trainer::new(model, Sgd::new(0.1, 0.9, 0.0), 0);
        let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = vec![0usize, 1, 1, 0];
        let mut hook = NoopHook;
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            last = trainer.step_classification(&x, &y, &mut hook).loss;
        }
        assert!(last < 0.05, "XOR loss {last}");
        let acc = trainer.evaluate_classification(&[(x, y)]);
        assert_eq!(acc, 100.0);
    }

    #[test]
    fn a_step_advances_the_sr_cursor_by_its_sr_operands_exactly() {
        use crate::{set_uniform_precision, LayerPrecision};
        let step = |precision: LayerPrecision| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let mut model = Sequential::new()
                .push(Dense::new(6, 12, true, &mut rng))
                .push(Relu::new())
                .push(Dense::new(12, 3, true, &mut rng));
            set_uniform_precision(&mut model, precision);
            let mut trainer = Trainer::new(model, Sgd::new(0.1, 0.0, 0.0), 9);
            let x = Tensor::from_vec(vec![5, 6], (0..30).map(|i| 0.1 * i as f32 - 1.4).collect());
            trainer.step_classification(&x, &[0, 1, 2, 0, 1], &mut NoopHook);
            trainer.session.sr_state()
        };
        // SR on gradients only: each Dense backward quantizes its `5 × out`
        // ∇O twice (once per backward GEMM's grouping axis); weights and
        // activations round to nearest and reserve nothing.
        assert_eq!(
            step(LayerPrecision::bfp_fixed(4)),
            (9, 2 * 5 * 12 + 2 * 5 * 3)
        );
        // No SR format anywhere: the cursor never moves.
        let nearest = crate::NumericFormat::bfp_nearest(fast_bfp::BfpFormat::high());
        let deterministic = LayerPrecision {
            weights: nearest,
            activations: nearest,
            gradients: nearest,
        };
        assert_eq!(step(deterministic), (9, 0));
        assert_eq!(step(LayerPrecision::fp32()), (9, 0));
    }

    #[test]
    fn hooks_fire_in_order() {
        #[derive(Default)]
        struct Recorder {
            events: Vec<&'static str>,
        }
        impl TrainHook for Recorder {
            fn before_iteration(&mut self, _i: usize, _m: &mut Sequential) {
                self.events.push("before");
            }
            fn after_backward(&mut self, _i: usize, _m: &mut Sequential) {
                self.events.push("after");
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let model = Sequential::new().push(Dense::new(2, 2, true, &mut rng));
        let mut trainer = Trainer::new(model, Sgd::new(0.01, 0.0, 0.0), 0);
        let mut rec = Recorder::default();
        let x = Tensor::zeros(vec![1, 2]);
        trainer.step_classification(&x, &[0], &mut rec);
        trainer.step_classification(&x, &[1], &mut rec);
        assert_eq!(rec.events, vec!["before", "after", "before", "after"]);
        assert_eq!(trainer.iterations(), 2);
        assert_eq!(format!("{trainer}"), "trainer @ iter 2 (1 layers)");
    }
}
