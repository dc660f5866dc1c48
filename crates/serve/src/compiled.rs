//! Frozen, forward-only models for serving.

use crate::batcher::{split_output, stack_inputs};
use fast_ckpt::{capture_state, restore_state, CkptError, StateDict};
use fast_nn::{Layer, Sequential, Session};
use fast_tensor::Tensor;

/// A trained model compiled for inference serving.
///
/// Compilation freezes the model: forwards run under an inference
/// [`Session`] (`train = false`, `freeze_weights = true`), so
///
/// * each GEMM layer quantizes its weights to the layer's configured
///   [`fast_nn::NumericFormat`] **once** — with a deterministic bit source,
///   so every replica holds bit-identical weights — and replays the cached
///   copy on subsequent requests (DESIGN.md §8);
/// * activations are still quantized per request, preserving the
///   fake-quantization fidelity argument of DESIGN.md §3;
/// * every packed BFP × packed BFP GEMM executes in the integer domain
///   (i8×i8→i32 mantissa products, one scale fix-up per group, DESIGN.md
///   §11), as in training; pairs the integer kernels cannot take (a dense
///   operand) run the dense kernels on the dequantized operands. For
///   deterministic weight rounding the compiled forward of each sample is
///   bit-identical to that sample's evaluation forward, whatever shares
///   its batch ([`CompiledModel::infer`]);
/// * no activations are stashed for a backward pass.
///
/// The weight caches live inside the layers and are invalidated by any
/// weight update (parameter visitation), so a model can be updated through
/// [`CompiledModel::model_mut`] — e.g. reloaded from a checkpoint — and the
/// next request re-freezes it automatically.
#[derive(Debug)]
pub struct CompiledModel {
    model: Sequential,
    session: Session,
}

impl CompiledModel {
    /// Freezes `model` for serving. `seed` feeds the session bit source
    /// used for *activation* stochastic rounding, if any layer's activation
    /// format requests it; weight-cache builds do not consume it.
    pub fn compile(model: Sequential, seed: u64) -> Self {
        CompiledModel {
            model,
            session: Session::inference(seed),
        }
    }

    /// Runs one forward pass. The first call after compilation (or after a
    /// weight update) builds the layer weight caches; subsequent calls
    /// replay them.
    ///
    /// Every sample of `input` (its leading dimension) gets the bits it
    /// would get alone. When an activation of a multi-sample input held a
    /// NaN, an infinity or a subnormal, its GEMM ran the dense kernels for
    /// every sample, so the samples are re-run one at a time: a sample's own
    /// values, never its batch-mates', choose how its GEMMs execute
    /// (DESIGN.md §8).
    pub fn infer(&mut self, input: &Tensor) -> Tensor {
        let refused = self.session.plan_stats.refused_packs;
        let out = self.model.forward(input, &mut self.session);
        let samples = input.shape().first().copied().unwrap_or(1);
        if samples < 2 || self.session.plan_stats.refused_packs == refused {
            return out;
        }
        let singles: Vec<Tensor> = split_output(input, &vec![1; samples])
            .iter()
            .map(|x| self.model.forward(x, &mut self.session))
            .collect();
        stack_inputs(&singles.iter().collect::<Vec<_>>())
    }

    /// Eagerly builds every layer's weight cache by running one forward
    /// pass on `sample`, so the first real request does not pay the
    /// quantization cost. Returns the warm-up output (useful for checking
    /// the served model before exposing it).
    pub fn warm(&mut self, sample: &Tensor) -> Tensor {
        self.infer(sample)
    }

    /// The underlying model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access to the underlying model, e.g. to load updated
    /// weights. Weight updates through parameter visitation invalidate the
    /// layer caches; the next request re-quantizes.
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Unfreezes the model, returning it for further training.
    pub fn into_model(self) -> Sequential {
        self.model
    }

    /// Replaces the model's weights (and buffers/formats) with a decoded
    /// checkpoint `model` section — the replica half of
    /// [`Server::reload`](crate::Server::reload).
    ///
    /// The restore walks [`fast_nn::Layer::visit_state`], which bumps each
    /// layer's weight version exactly like an optimizer step would, so the
    /// frozen-weight caches re-quantize from the new masters on the next
    /// request; for deterministic-rounding formats the swap is
    /// bit-transparent (a request after the swap equals an eval forward of
    /// the restored model).
    ///
    /// # Errors
    ///
    /// Any [`CkptError`] if the artifact does not match this model's
    /// architecture; the model is rolled back to its pre-call state, so a
    /// failed reload keeps serving the old weights.
    pub fn apply_state(&mut self, state: &StateDict) -> Result<(), CkptError> {
        let backup = capture_state(&mut self.model);
        match restore_state(&mut self.model, state) {
            Ok(()) => {
                // A mid-training artifact carries per-layer sensitivity
                // caches (`saved_input`/`last_grad` — every optional-tensor
                // entry is training-only state). Serving never reads them;
                // drop them so each replica does not pin a batch worth of
                // activations for the lifetime of the swap.
                Layer::visit_state(&mut self.model, &mut ClearTransients);
                Ok(())
            }
            Err(e) => {
                restore_state(&mut self.model, &backup)
                    .expect("backup state restores into the model it was captured from");
                Err(e)
            }
        }
    }
}

/// A state walk that discards the optional per-layer caches (training-only
/// state) and leaves everything else untouched.
struct ClearTransients;

impl fast_ckpt::StateVisitor for ClearTransients {
    fn enter(&mut self, _scope: &str) {}
    fn exit(&mut self) {}
    fn tensor(&mut self, _name: &str, _value: &mut fast_tensor::Tensor) {}
    fn opt_tensor(&mut self, _name: &str, value: &mut Option<fast_tensor::Tensor>) {
        *value = None;
    }
    fn tensor_seq(&mut self, _name: &str, _value: &mut Vec<fast_tensor::Tensor>) {}
    fn scalar_u64(&mut self, _name: &str, _value: &mut u64) {}
    fn scalar_f32(&mut self, _name: &str, _value: &mut f32) {}
    fn u32s(&mut self, _name: &str, _value: &mut Vec<u32>) {}
    fn f32s(&mut self, _name: &str, _value: &mut Vec<f32>) {}
    fn bytes(&mut self, _name: &str, _value: &mut Vec<u8>) {}
    fn invalid(&mut self, name: &str, why: String) {
        debug_assert!(false, "clearing transients rejected `{name}`: {why}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bfp::GroupAxis;
    use fast_nn::qgemm::prepare;
    use fast_nn::{set_uniform_precision, Dense, LayerPrecision, Relu};
    use rand::{Rng, SeedableRng};

    fn model(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Sequential::new()
            .push(Dense::new(8, 16, true, &mut rng))
            .push(Relu::new())
            .push(Dense::new(16, 4, true, &mut rng));
        set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
        m
    }

    fn sample() -> Tensor {
        Tensor::from_vec(vec![1, 8], (0..8).map(|i| 0.1 * i as f32 - 0.3).collect())
    }

    #[test]
    fn compiled_matches_eval_forward() {
        let x = sample();
        let mut train_path = model(3);
        let want = train_path.forward(&x, &mut Session::eval(0));
        let mut compiled = CompiledModel::compile(model(3), 0);
        assert_eq!(compiled.warm(&x), want);
        assert_eq!(compiled.infer(&x), want, "cache replay must be identical");
    }

    #[test]
    fn replicas_are_bit_identical() {
        let x = sample();
        let mut a = CompiledModel::compile(model(5), 0);
        let mut b = CompiledModel::compile(model(5), 0);
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn apply_state_drops_training_caches() {
        // A mid-training artifact carries sensitivity caches; the serving
        // replica must not keep them resident after the swap.
        let mut trained = model(9);
        let mut s = Session::new(0);
        s.record_sensitivity = true;
        let x = sample();
        let y = trained.forward(&x, &mut s);
        let _ = trained.backward(&y, &mut s);
        let dict = capture_state(&mut trained);
        assert!(
            dict.iter().any(|(n, _)| n.ends_with("saved_input")),
            "precondition: the artifact carries training caches"
        );

        let mut compiled = CompiledModel::compile(model(9), 0);
        compiled.apply_state(&dict).unwrap();
        let after = capture_state(compiled.model_mut());
        assert!(
            !after
                .iter()
                .any(|(n, _)| n.ends_with("saved_input") || n.ends_with("last_grad")),
            "serving replicas must not pin training caches"
        );
        // And the swapped weights still serve the trained model's outputs.
        let mut reference = CompiledModel::compile(trained, 0);
        assert_eq!(compiled.infer(&x), reference.infer(&x));
    }

    /// A bias-free HighBFP layer over four 16-wide input groups, and an
    /// input whose groups sit 2⁸ apart in magnitude: the reduction's
    /// cross-group f32 adds are inexact, so the dense chain (one add per
    /// element) and the integer kernel (one add per group) round
    /// differently.
    fn wide_layer() -> Dense {
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let mut d = Dense::new(64, 8, false, &mut rng);
        set_uniform_precision(&mut d, LayerPrecision::bfp_fixed(4));
        d
    }

    fn wide_model() -> Sequential {
        Sequential::new().push(wide_layer())
    }

    /// The dense chain over the layer's dequantized operands: what its GEMM
    /// would read if it did not run the integer kernels.
    fn dense_chain(x: &Tensor) -> Tensor {
        let (layer, p) = (wide_layer(), LayerPrecision::bfp_fixed(4));
        let mut s = Session::eval(0);
        let xq = prepare(&mut s, x, p.activations, GroupAxis::AlongRow);
        let wq = prepare(&mut s, layer.weights(), p.weights, GroupAxis::AlongCol);
        fast_tensor::matmul(&xq.operand().to_dense(), &wq.operand().to_dense())
    }

    fn wide_sample() -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let x = (0..2 * 64)
            .map(|i| rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(-8 * (i % 64 / 16)))
            .collect();
        Tensor::from_vec(vec![2, 64], x)
    }

    #[test]
    fn serving_runs_the_integer_kernels() {
        let x = wide_sample();
        let mut compiled = CompiledModel::compile(wide_model(), 0);
        let served = compiled.infer(&x);
        let integer = wide_model().forward(&x, &mut Session::eval(0));
        assert_ne!(
            integer,
            dense_chain(&x),
            "the input must tell the kernels apart"
        );
        assert_eq!(served, integer, "compiled ≡ eval forward");
        // A hot reload re-freezes the weights and stays on the integer path.
        compiled
            .apply_state(&capture_state(&mut wide_model()))
            .unwrap();
        assert_eq!(compiled.infer(&x), integer);
    }

    #[test]
    fn sr_activation_noise_is_keyed_by_the_compile_seed() {
        use fast_bfp::BfpFormat;
        use fast_nn::NumericFormat;
        // An SR *activation* format: activations re-quantize per request,
        // drawing from the replica's session.
        let sr_precision = LayerPrecision {
            weights: NumericFormat::bfp_nearest(BfpFormat::high()),
            activations: NumericFormat::bfp_stochastic(BfpFormat::high()),
            gradients: NumericFormat::bfp_stochastic(BfpFormat::high()),
        };
        let with_sr = |seed: u64| {
            let mut m = model(13);
            set_uniform_precision(&mut m, sr_precision);
            CompiledModel::compile(m, seed)
        };
        let x = sample();
        let mut a = with_sr(0);
        let mut b = with_sr(0);
        // Same seed → same noise → bit-identical replicas.
        let first = a.infer(&x);
        assert_eq!(first, b.infer(&x));
        // A different seed decorrelates the SR activation noise.
        let mut c = with_sr(1);
        assert_ne!(first, c.infer(&x));
        // A checkpoint hot reload leaves the session alone: reloading the
        // same weights into a fresh replica replays the first request's
        // noise.
        let mut trained = model(13);
        set_uniform_precision(&mut trained, sr_precision);
        let dict = capture_state(&mut trained);
        let mut d = with_sr(0);
        d.apply_state(&dict).unwrap();
        assert_eq!(d.infer(&x), first);
    }

    #[test]
    fn compiled_sr_weights_freeze_like_a_session_with_any_seed() {
        use fast_bfp::BfpFormat;
        use fast_nn::NumericFormat;
        // SR *weights* under deterministic activations: the output pins the
        // frozen weight operands.
        let sr_weights = LayerPrecision {
            weights: NumericFormat::bfp_stochastic(BfpFormat::high()),
            activations: NumericFormat::bfp_nearest(BfpFormat::high()),
            gradients: NumericFormat::bfp_stochastic(BfpFormat::high()),
        };
        let build = || {
            let mut m = model(17);
            set_uniform_precision(&mut m, sr_weights);
            m
        };
        let x = sample();
        let served = CompiledModel::compile(build(), 0).infer(&x);
        // A different session seed: frozen builds never consume it.
        let mut session = Session::inference(5);
        assert_eq!(served, build().forward(&x, &mut session));
    }

    #[test]
    fn weight_update_refreezes() {
        let x = sample();
        let mut compiled = CompiledModel::compile(model(7), 0);
        let before = compiled.infer(&x);
        compiled.model_mut().visit_params(&mut |p| {
            if p.decay {
                p.value.data_mut()[0] += 1.0;
            }
        });
        let after = compiled.infer(&x);
        assert_ne!(before, after, "update must invalidate the frozen cache");
        // And the refrozen model again matches the training-path forward.
        let mut reference = model(7);
        reference.visit_params(&mut |p| {
            if p.decay {
                p.value.data_mut()[0] += 1.0;
            }
        });
        assert_eq!(after, reference.forward(&x, &mut Session::eval(0)));
    }
}
