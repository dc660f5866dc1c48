//! A trainer's model computes no gradient for its own input: the first
//! layer skips its input-gradient GEMM and both operand packs, keeps their
//! noise reservations, and every weight, velocity, loss and noise draw of
//! the run stays bit-identical to the same steps on a plain session.

use fast_bfp::BfpFormat;
use fast_ckpt::capture_state;
use fast_nn::{
    set_uniform_precision, softmax_cross_entropy, Conv2d, Dense, DepthwiseConv2d, Flatten, Layer,
    LayerPrecision, NumericFormat, PlanStats, Relu, Residual, Sequential, Session, Sgd, TrainHook,
    Trainer,
};
use fast_tensor::Tensor;
use rand::SeedableRng;

const SEED: u64 = 17;
const STEPS: usize = 6;
/// Group size of `BfpFormat::high()`.
const G: usize = 16;

/// Asks for sensitivity tensors, so `last_grad` is recorded and compared.
struct Sensitive;
impl TrainHook for Sensitive {
    fn wants_sensitivity(&self) -> bool {
        true
    }
}

/// Everything a run leaves behind that a later step could read.
#[derive(Debug, PartialEq)]
struct Run {
    losses: Vec<u64>,
    model: Vec<u8>,
    velocities: Vec<u8>,
    sr_state: (u64, u64),
    shapes: Vec<Option<fast_nn::GemmShape>>,
}

fn ramp(shape: Vec<usize>, salt: usize) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| ((i * 7 + salt * 13) % 23) as f32 * 0.09 - 1.0)
        .collect();
    Tensor::from_vec(shape, data)
}

fn batches(input: &[usize], classes: usize) -> Vec<(Tensor, Vec<usize>)> {
    let batch = input[0];
    (0..3)
        .map(|b| {
            let labels = (0..batch).map(|i| (i + b) % classes).collect();
            (ramp(input.to_vec(), b), labels)
        })
        .collect()
}

fn finish(model: &mut Sequential, opt: &mut Sgd, session: &Session, losses: Vec<f64>) -> Run {
    let mut shapes = Vec::new();
    model.visit_quant(&mut |q| shapes.push(q.gemm_shape()));
    Run {
        losses: losses.iter().map(|l| l.to_bits()).collect(),
        model: capture_state(model).to_bytes(),
        velocities: capture_state(opt).to_bytes(),
        sr_state: session.sr_state(),
        shapes,
    }
}

/// `steps` trainer steps from `start`.
fn train(
    trainer: &mut Trainer,
    data: &[(Tensor, Vec<usize>)],
    start: usize,
    steps: usize,
) -> Vec<f64> {
    (start..start + steps)
        .map(|i| {
            let (x, y) = &data[i % data.len()];
            trainer.step_classification(x, y, &mut Sensitive).loss
        })
        .collect()
}

/// The trainer's steps, and the same steps through `model.backward` on a
/// plain session.
fn both_ways(
    build: &dyn Fn() -> Sequential,
    input: &[usize],
) -> ((Run, PlanStats), (Run, PlanStats)) {
    let data = batches(input, 3);
    let mut trainer = Trainer::new(build(), Sgd::new(0.05, 0.9, 1e-4), SEED);
    let losses = train(&mut trainer, &data, 0, STEPS);
    let stats = trainer.session.plan_stats;
    let Trainer {
        mut model,
        mut opt,
        session,
        ..
    } = trainer;
    let skipped = (finish(&mut model, &mut opt, &session, losses), stats);

    let (mut model, mut opt, mut s) = (build(), Sgd::new(0.05, 0.9, 1e-4), Session::new(SEED));
    s.record_sensitivity = true;
    let mut losses = Vec::new();
    for i in 0..STEPS {
        let (x, y) = &data[i % data.len()];
        let logits = model.forward(x, &mut s);
        let (loss, grad) = softmax_cross_entropy(&logits, y);
        let gin = model.backward(&grad, &mut s);
        assert_eq!(gin.shape(), x.shape());
        assert!(
            gin.data().iter().any(|&v| v != 0.0),
            "a plain session returns ∇x"
        );
        opt.step(&mut model);
        losses.push(loss);
    }
    let plain = (finish(&mut model, &mut opt, &s, losses), s.plan_stats);
    (skipped, plain)
}

/// Checks the trainer run against the plain one: equal bits, and counters
/// short by exactly `(macs, groups)` of skipped work in `gemms` GEMMs a step.
fn assert_skips(
    build: &dyn Fn() -> Sequential,
    input: &[usize],
    gemms: u64,
    macs: u64,
    groups: usize,
) {
    let ((run, stats), (plain_run, plain)) = both_ways(build, input);
    assert_eq!(run, plain_run, "the skip must not move a bit");
    let steps = STEPS as u64;
    assert_eq!(stats.gemms + steps * gemms, plain.gemms);
    assert_eq!(stats.macs + steps * macs, plain.macs);
    assert_eq!(stats.quant.groups + STEPS * groups, plain.quant.groups);
    assert!(stats.quant.saturated <= plain.quant.saturated);
    assert!(stats.quant.zeros <= plain.quant.zeros);
    assert_eq!(stats.refused_packs, plain.refused_packs);
}

fn bfp(mut model: Sequential) -> Sequential {
    // Stochastic rounding on every operand, so each lost reservation would
    // shift later noise.
    let sr = NumericFormat::bfp_stochastic(BfpFormat::high());
    set_uniform_precision(&mut model, LayerPrecision::uniform(sr));
    model
}

fn mlp() -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    bfp(Sequential::new()
        .push(Dense::new(6, 20, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(20, 3, true, &mut rng)))
}

#[test]
fn a_dense_first_trainer_skips_one_gemm_a_step_bit_identically() {
    // Skipped: ∇O (5×20, groups along rows), W (6×20, along rows) and the
    // 5×20·20×6 `Nt` product.
    let groups = 5 * 20usize.div_ceil(G) + 6 * 20usize.div_ceil(G);
    assert_skips(&mlp, &[5, 6], 1, 5 * 20 * 6, groups);
}

#[test]
fn a_conv_first_trainer_skips_one_gemm_a_step_bit_identically() {
    let conv = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        bfp(Sequential::new()
            .push(Conv2d::new(3, 4, 3, 1, 1, true, &mut rng))
            .push(Relu::new())
            .push(Flatten::new())
            .push(Dense::new(4 * 6 * 6, 3, true, &mut rng)))
    };
    // Skipped: ∇O (4×P, groups down columns), W (4×K, down columns), the
    // K×4·4×P `Tn` product, and col2im; P = 2·6·6, K = 3·3².
    let (p, k) = (2 * 36, 27);
    assert_skips(&conv, &[2, 3, 6, 6], 1, (k * 4 * p) as u64, p + k);
}

#[test]
fn a_depthwise_first_trainer_skips_one_gemm_per_channel_bit_identically() {
    let depthwise = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        bfp(Sequential::new()
            .push(DepthwiseConv2d::new(3, 3, 1, 1, &mut rng))
            .push(Flatten::new())
            .push(Dense::new(3 * 5 * 5, 3, true, &mut rng)))
    };
    // Per channel: ∇O (1×P), the kernel row (1×9), a 9×1·1×P product.
    let p = 2 * 25;
    assert_skips(&depthwise, &[2, 3, 5, 5], 3, 3 * 9 * p as u64, 3 * (p + 9));
}

#[test]
fn a_nested_first_sequential_passes_the_skip_on() {
    let nested = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        bfp(Sequential::new()
            .push(
                Sequential::new()
                    .push(Dense::new(6, 20, true, &mut rng))
                    .push(Relu::new()),
            )
            .push(Dense::new(20, 3, true, &mut rng)))
    };
    let groups = 5 * 20usize.div_ceil(G) + 6 * 20usize.div_ceil(G);
    assert_skips(&nested, &[5, 6], 1, 5 * 20 * 6, groups);
}

#[test]
fn a_first_residual_computes_as_before() {
    let residual = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        bfp(Sequential::new()
            .push(Residual::new(
                Sequential::new()
                    .push(Dense::new(6, 6, true, &mut rng))
                    .push(Relu::new()),
            ))
            .push(Dense::new(6, 3, true, &mut rng)))
    };
    assert_skips(&residual, &[5, 6], 0, 0, 0);
}

#[test]
fn only_a_trainer_session_skips_and_its_backward_returns_zeros() {
    for s in [Session::new(0), Session::eval(0), Session::inference(0)] {
        assert!(s.input_grad());
    }
    let data = batches(&[5, 6], 3);
    let (x, y) = &data[0];
    let mut trainer = Trainer::new(mlp(), Sgd::new(0.05, 0.9, 0.0), SEED);
    assert!(!trainer.session.input_grad());
    let logits = trainer.model.forward(x, &mut trainer.session);
    let (_, grad) = softmax_cross_entropy(&logits, y);
    let gin = trainer.model.backward(&grad, &mut trainer.session);
    assert_eq!(gin.shape(), x.shape());
    assert!(gin.data().iter().all(|&v| v == 0.0));
    assert!(!trainer.session.input_grad(), "restored after the backward");
}

#[test]
fn a_resumed_trainer_continues_bit_exactly() {
    let data = batches(&[5, 6], 3);
    let opt = || Sgd::new(0.05, 0.9, 1e-4);
    let mut whole = Trainer::new(mlp(), opt(), SEED);
    let mut losses = train(&mut whole, &data, 0, STEPS);

    let mut first = Trainer::new(mlp(), opt(), SEED);
    let mut resumed_losses = train(&mut first, &data, 0, STEPS / 2);
    let artifact = first.checkpoint(None);
    let mut resumed = Trainer::resume(mlp(), opt(), &artifact, None).expect("resume");
    assert!(!resumed.session.input_grad());
    resumed_losses.extend(train(&mut resumed, &data, STEPS / 2, STEPS - STEPS / 2));

    assert_eq!(resumed.session.plan_stats, whole.session.plan_stats);
    let done = |t: Trainer, losses: &mut Vec<f64>| {
        let Trainer {
            mut model,
            mut opt,
            session,
            ..
        } = t;
        finish(&mut model, &mut opt, &session, std::mem::take(losses))
    };
    assert_eq!(done(resumed, &mut resumed_losses), done(whole, &mut losses));
}
