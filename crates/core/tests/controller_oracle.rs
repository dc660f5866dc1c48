//! Algorithm 1's decisions must not depend on how `r(X)` is evaluated: a
//! training run under [`FastController`] (integer-kernel `r`) records the
//! same precision trace as a run whose hook evaluates Eq. 2 with the
//! `BfpGroup`-per-chunk oracle. The controller's run is made with span
//! collection on, so the same comparison pins the `core.controller` span as
//! bit-invisible. One `#[test]` on purpose: the span counts below must not
//! race another test's controller in this process.

use fast_core::{EpsilonSchedule, FastController, Setting};
use fast_nn::models::mlp;
use fast_nn::{softmax_cross_entropy, Layer, LayerPrecision, Sequential, Session, Sgd, TrainHook};
use fast_tensor::Tensor;
use rand::{Rng, SeedableRng};

#[path = "../../bfp/tests/support/r_oracle.rs"]
mod r_oracle;
use r_oracle::relative_improvement_oracle;

/// Algorithm 1 written out against the oracle: every iteration, every layer,
/// `r(X) < ε(l, i)` keeps 2 bits, a tensor not yet seen starts at 2.
struct OracleController {
    schedule: EpsilonSchedule,
    total_iters: usize,
    samples: Vec<(usize, Vec<Setting>)>,
}

impl TrainHook for OracleController {
    fn wants_sensitivity(&self) -> bool {
        true
    }

    fn before_iteration(&mut self, iter: usize, model: &mut Sequential) {
        let total_layers = fast_nn::quant_layer_count(model);
        let mut settings = Vec::new();
        model.visit_quant(&mut |q| {
            let eps = self
                .schedule
                .epsilon(settings.len(), total_layers, iter, self.total_iters);
            let bits = |t: Option<&Tensor>| match t {
                Some(t) if relative_improvement_oracle(t.data(), 16) >= eps => 4,
                _ => 2,
            };
            let s = Setting {
                w: bits(Some(q.weight())),
                a: bits(q.last_input()),
                g: bits(q.last_grad_output()),
            };
            *q.precision_mut() = LayerPrecision::fast(s.w, s.a, s.g);
            settings.push(s);
        });
        self.samples.push((iter, settings));
    }
}

/// Trains a small MLP for `iters` steps under `hook`; returns the loss bits.
fn train(hook: &mut dyn TrainHook, iters: usize) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut model = mlp(&[8, 32, 32, 4], &mut rng);
    let mut session = Session::new(0);
    session.record_sensitivity = hook.wants_sensitivity();
    let mut opt = Sgd::new(0.05, 0.9, 0.0);
    let x = Tensor::from_vec(
        vec![16, 8],
        (0..128).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let mut losses = Vec::new();
    for it in 0..iters {
        hook.before_iteration(it, &mut model);
        let out = model.forward(&x, &mut session);
        let (loss, grad) = softmax_cross_entropy(&out, &labels);
        losses.push(loss.to_bits());
        model.backward(&grad, &mut session);
        opt.step(&mut model);
    }
    losses
}

#[test]
fn controller_trace_matches_a_run_judged_by_the_oracle() {
    let iters = 60;
    let schedule = EpsilonSchedule::paper_default();
    let mut ctl = FastController::new(iters, schedule);
    let mut oracle = OracleController {
        schedule,
        total_iters: iters,
        samples: Vec::new(),
    };
    let span = fast_telemetry::Registry::global().histogram(
        "fast_span_ns",
        "scoped span wall time in nanoseconds",
        &[("span", "core.controller")],
    );
    fast_telemetry::set_collection(true);
    let losses = train(&mut ctl, iters);
    // One span per evaluation; an iteration a stride holds records none.
    assert_eq!(span.count(), iters as u64);
    train(&mut FastController::new(10, schedule).with_stride(5), 10);
    assert_eq!(span.count(), iters as u64 + 2);
    fast_telemetry::set_collection(false);
    let oracle_losses = train(&mut oracle, iters);
    assert_eq!(ctl.trace.samples, oracle.samples);
    assert_eq!(losses, oracle_losses);
    // The run must exercise the decision, not sit at one setting throughout.
    let distinct: std::collections::HashSet<Setting> = ctl
        .trace
        .samples
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .collect();
    assert!(distinct.len() > 2, "trace barely moved: {distinct:?}");
}
