//! The FAST-Adaptive precision controller — paper Algorithm 1.
//!
//! Before every iteration, for every GEMM layer `l` and every tensor
//! `X ∈ [A_l, W_l, G_l]`, the controller evaluates the relative improvement
//! `r(X)` (Eq. 2) of the 4-bit over the 2-bit mantissa and compares it to
//! the threshold `ε(l, i)` (Eq. 1): `r(X) < ε` keeps the cheap 2-bit
//! mantissa, otherwise the tensor is promoted to 4 bits. Activations and
//! gradients are judged from the previous iteration's tensors (the freshest
//! available before the pass runs).
//!
//! One evaluation is one walk over the model and one allocation-free
//! `fast_bfp::relative_improvement` pass per tensor — about as long as
//! quantizing those tensors once (span `core.controller`; budget in
//! DESIGN.md §7).

use crate::threshold::EpsilonSchedule;
use crate::trace::{PrecisionTrace, Setting};
use fast_bfp::relative_improvement;
use fast_nn::{LayerPrecision, Sequential, StateVisitor, TrainHook, VisitState};
use fast_telemetry::{Gauge, Registry};

/// Paper Algorithm 1, packaged as a [`TrainHook`].
///
/// Hook it into a training loop (e.g. `fast_nn::Trainer`) and it rewrites
/// every layer's `(W, A, G)` mantissa widths before each iteration:
///
/// ```
/// use fast_core::{EpsilonSchedule, FastController};
/// use fast_nn::models::mlp;
/// use fast_nn::{collect_precisions, TrainHook};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = mlp(&[8, 16, 4], &mut rng);
/// let mut ctl = FastController::new(100, EpsilonSchedule::paper_default());
/// ctl.before_iteration(0, &mut model);
/// // Every GEMM layer now carries a 2- or 4-bit BFP assignment…
/// assert_eq!(ctl.settings().len(), 2);
/// // …and the model's precisions match what the controller recorded.
/// assert_eq!(collect_precisions(&mut model).len(), 2);
/// ```
#[derive(Debug)]
pub struct FastController {
    schedule: EpsilonSchedule,
    total_iters: usize,
    group_size: usize,
    /// Re-evaluate every `stride` iterations (1 = every iteration as in the
    /// paper); between evaluations the current settings are held.
    stride: usize,
    /// `L` of Eq. 1, counted on the first evaluation: ε needs it before the
    /// first layer is judged, and the architecture is fixed for a
    /// controller's lifetime.
    total_layers: Option<usize>,
    /// The recorded precision history (Fig 17).
    pub trace: PrecisionTrace,
    current: Vec<Setting>,
    /// Cached `(W, A, G)` gauge handles per layer, registered lazily on the
    /// first evaluation (labels come from the layers themselves). Publishing
    /// makes the Fig 17 schedule observable live via
    /// `fast_precision_bits{layer, tensor}` instead of only post-hoc from
    /// the trace.
    gauges: Vec<[Gauge; 3]>,
}

impl FastController {
    /// Creates a controller with the paper's threshold schedule.
    pub fn new(total_iters: usize, schedule: EpsilonSchedule) -> Self {
        assert!(total_iters > 0);
        FastController {
            schedule,
            total_iters,
            group_size: 16,
            stride: 1,
            total_layers: None,
            trace: PrecisionTrace::new(),
            current: Vec::new(),
            gauges: Vec::new(),
        }
    }

    /// Sets the re-evaluation stride (1 = every iteration, the paper's
    /// Algorithm 1). A larger stride holds each decision for `stride`
    /// iterations: coarser Fig 17 traces, and held settings that a resumed
    /// run must restore (what the lifecycle harness's resume test checks).
    /// It is not a cost knob — an evaluation costs about one quantize pass.
    pub fn with_stride(mut self, stride: usize) -> Self {
        assert!(stride >= 1);
        self.stride = stride;
        self
    }

    /// The current per-layer settings.
    pub fn settings(&self) -> &[Setting] {
        &self.current
    }

    /// Algorithm 1's comparison for one tensor: `r(X) < ε` keeps 2 bits.
    /// A tensor not yet seen (first iteration) starts cheap — Fig 17 starts
    /// at (2,2,2).
    fn decide(values: Option<&[f32]>, group_size: usize, eps: f32) -> u32 {
        match values {
            Some(xs) if relative_improvement(xs, group_size) < eps => 2,
            Some(_) => 4,
            None => 2,
        }
    }

    /// Publishes the live per-layer `(W, A, G)` mantissa widths as labeled
    /// gauges on the global registry. Layer labels alone are not unique
    /// (two `dense(256->256)` layers collide), so the series key is
    /// `"<index>:<label>"`.
    fn publish_precision_gauges(&mut self) {
        if self.gauges.len() != self.current.len() {
            self.gauges = (0..self.current.len())
                .map(|i| {
                    let label = self
                        .trace
                        .layer_labels
                        .get(i)
                        .map(String::as_str)
                        .unwrap_or("");
                    let layer = format!("{i}:{label}");
                    ["w", "a", "g"].map(|tensor| {
                        Registry::global().gauge(
                            "fast_precision_bits",
                            "live FAST-Adaptive mantissa width for a layer tensor (W/A/G)",
                            &[("layer", layer.as_str()), ("tensor", tensor)],
                        )
                    })
                })
                .collect();
        }
        for (gauges, s) in self.gauges.iter().zip(&self.current) {
            gauges[0].set(s.w as f64);
            gauges[1].set(s.a as f64);
            gauges[2].set(s.g as f64);
        }
    }
}

/// The controller's trajectory state, so a resumed run makes identical
/// precision decisions: the currently-applied per-layer settings (which
/// [`FastController::with_stride`] holds between re-evaluations) and the
/// recorded trace (so the Fig 17 history continues seamlessly). Pass the
/// controller as the `hook_state` of `fast_nn::Trainer::{save_checkpoint,
/// resume}` — the schedule, iteration budget and stride are configuration,
/// rebuilt by constructing the controller the same way.
impl VisitState for FastController {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let mut current: Vec<u32> = self.current.iter().flat_map(|s| [s.w, s.a, s.g]).collect();
        v.u32s("current", &mut current);
        if current.len().is_multiple_of(3) {
            self.current = current
                .chunks_exact(3)
                .map(|c| Setting {
                    w: c[0],
                    a: c[1],
                    g: c[2],
                })
                .collect();
        } else {
            v.invalid(
                "current",
                format!("{} values do not form (w, a, g) triples", current.len()),
            );
        }
        let mut trace = self.trace.to_wire();
        v.bytes("trace", &mut trace);
        match PrecisionTrace::from_wire(&trace) {
            Ok(t) => self.trace = t,
            Err(why) => v.invalid("trace", why),
        }
    }
}

impl TrainHook for FastController {
    /// Algorithm 1 judges `A` and `G` from the previous iteration's
    /// tensors, so layers must keep their sensitivity caches.
    fn wants_sensitivity(&self) -> bool {
        true
    }

    fn before_iteration(&mut self, iter: usize, model: &mut Sequential) {
        use fast_nn::Layer;
        if !iter.is_multiple_of(self.stride) && !self.current.is_empty() {
            // Keep current settings; still record for the trace.
            self.trace.record(iter, self.current.clone());
            return;
        }
        let _span = fast_telemetry::span!("core.controller");
        let total_layers = *self
            .total_layers
            .get_or_insert_with(|| fast_nn::quant_layer_count(model).max(1));
        let mut settings = Vec::with_capacity(total_layers);
        // Labels are recorded once; later evaluations skip the `String`s.
        let mut labels = Vec::new();
        let want_labels = self.trace.layer_labels.is_empty();
        let schedule = self.schedule;
        let total_iters = self.total_iters;
        let g = self.group_size;
        model.visit_quant(&mut |q| {
            let eps = schedule.epsilon(settings.len(), total_layers, iter, total_iters);
            let s = Setting {
                w: Self::decide(Some(q.weight().data()), g, eps),
                a: Self::decide(q.last_input().map(|t| t.data()), g, eps),
                g: Self::decide(q.last_grad_output().map(|t| t.data()), g, eps),
            };
            *q.precision_mut() = LayerPrecision::fast(s.w, s.a, s.g);
            settings.push(s);
            if want_labels {
                labels.push(q.label());
            }
        });
        debug_assert_eq!(settings.len().max(1), total_layers, "architecture changed");
        if want_labels {
            self.trace.layer_labels = labels;
        }
        self.trace.record(iter, settings.clone());
        self.current = settings;
        self.publish_precision_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_nn::models::mlp;
    use fast_nn::{Layer, NumericFormat, Sgd, Trainer};
    use fast_tensor::Tensor;
    use rand::{Rng, SeedableRng};

    #[test]
    fn first_iteration_starts_low_for_a_and_g() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = mlp(&[8, 16, 4], &mut rng);
        let mut ctl = FastController::new(100, EpsilonSchedule::paper_default());
        ctl.before_iteration(0, &mut model);
        for s in ctl.settings() {
            assert_eq!(s.a, 2);
            assert_eq!(s.g, 2);
        }
        assert_eq!(ctl.settings().len(), 2);
    }

    #[test]
    fn applies_fast_bfp_formats_to_all_layers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut model = mlp(&[8, 16, 4], &mut rng);
        let mut ctl = FastController::new(10, EpsilonSchedule::paper_default());
        ctl.before_iteration(0, &mut model);
        model.visit_quant(&mut |q| {
            let p = q.precision();
            assert!(matches!(p.weights, NumericFormat::Bfp { .. }));
            assert!(matches!(p.gradients, NumericFormat::Bfp { .. }));
        });
    }

    #[test]
    fn threshold_collapse_forces_high_precision() {
        // With ε driven to −∞, every tensor with any fine structure gets 4
        // bits (r ≥ 0 ≥ ε is always "promote" once ε < 0).
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut model = mlp(&[8, 8, 4], &mut rng);
        let mut ctl = FastController::new(
            10,
            EpsilonSchedule {
                alpha: -1.0,
                beta: 0.0,
            },
        );
        ctl.before_iteration(0, &mut model);
        for s in ctl.settings() {
            assert_eq!(s.w, 4);
        }
    }

    #[test]
    fn precision_grows_over_training_on_a_real_loop() {
        // Integration: train a small MLP under the controller and check the
        // Fig 17 property — later iterations use costlier settings on
        // average.
        // The `Trainer` turns on sensitivity recording for the controller,
        // so `G` is judged from real gradients.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let model = mlp(&[8, 32, 4], &mut rng);
        let mut trainer = Trainer::new(model, Sgd::new(0.05, 0.9, 0.0), 0);
        let iters = 60;
        let mut ctl = FastController::new(iters, EpsilonSchedule::paper_default());
        let x = Tensor::from_vec(
            vec![16, 8],
            (0..128).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
        for _ in 0..iters {
            trainer.step_classification(&x, &labels, &mut ctl);
        }
        let early: f64 = (0..2)
            .map(|l| ctl.trace.mean_legend_index(l, 0, iters / 3))
            .sum();
        let late: f64 = (0..2)
            .map(|l| ctl.trace.mean_legend_index(l, 2 * iters / 3, iters))
            .sum();
        assert!(
            late >= early,
            "precision should not decrease over training: early {early}, late {late}"
        );
    }

    #[test]
    fn controller_state_roundtrips_through_the_visitor() {
        use fast_ckpt::{capture_state, restore_state};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut model = mlp(&[4, 8, 2], &mut rng);
        let mut ctl = FastController::new(20, EpsilonSchedule::paper_default()).with_stride(5);
        ctl.before_iteration(0, &mut model);
        ctl.before_iteration(1, &mut model);
        let dict = capture_state(&mut ctl);
        let mut resumed = FastController::new(20, EpsilonSchedule::paper_default()).with_stride(5);
        restore_state(&mut resumed, &dict).unwrap();
        assert_eq!(resumed.settings(), ctl.settings());
        assert_eq!(resumed.trace.samples, ctl.trace.samples);
        assert_eq!(resumed.trace.layer_labels, ctl.trace.layer_labels);
        // The stride logic keeps held settings identical after resume.
        ctl.before_iteration(2, &mut model);
        resumed.before_iteration(2, &mut model);
        assert_eq!(resumed.settings(), ctl.settings());
    }

    #[test]
    fn stride_holds_settings_between_reevaluations() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut model = mlp(&[4, 8, 2], &mut rng);
        let mut ctl = FastController::new(10, EpsilonSchedule::paper_default()).with_stride(5);
        ctl.before_iteration(0, &mut model);
        let s0 = ctl.settings().to_vec();
        ctl.before_iteration(1, &mut model);
        assert_eq!(ctl.settings(), s0.as_slice());
        assert_eq!(ctl.trace.samples.len(), 2);
    }
}
