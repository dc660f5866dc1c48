//! The four workloads and their set-up: data, model, optimizer, precision
//! policy, and for the serve workloads the short training run, the artifact
//! round trip, the frozen replicas and the running server.
//!
//! Everything random comes from `--seed`: data, weight initialisation, the
//! stochastic-rounding session, sample order and probe arrivals each draw
//! from their own stream derived from it. The program under test receives
//! only the generated tensors.

use crate::spans::{SpanId, Tracer};
use fast_ckpt::Artifact;
use fast_core::{EpsilonSchedule, FastController};
use fast_data::{GaussianClusters, SyntheticImages};
use fast_nn::models::{mlp, resnet_lite, ResNetConfig};
use fast_nn::{
    set_uniform_precision, softmax_cross_entropy, Layer, LayerPrecision, NoopHook, Sequential, Sgd,
    TrainHook, Trainer,
};
use fast_serve::{BatchConfig, CompiledModel, Server};
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which part of the train → artifact → freeze → serve lifecycle a workload
/// measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The unit is one training step.
    Train,
    /// The unit is one served request, with this many always outstanding.
    Serve { in_flight: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TrainResnetFast,
    TrainMlpWide,
    ServeResnetB1,
    ServeMlpSat,
}

#[derive(Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub phase: Phase,
    /// Exec/SR mode of the process, set through the program's own
    /// environment levers before anything reads them.
    pub env: &'static [(&'static str, &'static str)],
    /// Samples per training step.
    pub batch: usize,
    /// Training steps run during set-up: warm-up for the train workloads,
    /// the short training run for the serve workloads.
    pub setup_steps: usize,
    /// `nn.steps_to_target` counts steps until the 20-step mean loss is
    /// under this.
    pub loss_target: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::TrainResnetFast,
        name: "train_resnet_fast",
        why: "The paper's headline unit: a conv-heavy ResNet step (im2col/col2im), W/A/G quantised with SR on gradients (replay kernels, LFSR), FAST controller on; few parameters, small optimizer share.",
        phase: Phase::Train,
        env: &[],
        batch: 16,
        setup_steps: 30,
        loss_target: 1.6,
    },
    Spec {
        kind: Kind::TrainMlpWide,
        name: "train_mlp_wide",
        why: "Same layers the other way: no conv, integer kernels and counter SR, fixed precision (controller bypassed), ~400k parameters so Sgd::step and weight re-quantisation are a large share.",
        phase: Phase::Train,
        env: &[("FAST_QGEMM_MODE", "integer"), ("FAST_SR_MODE", "counter")],
        batch: 64,
        setup_steps: 150,
        loss_target: 0.5,
    },
    Spec {
        kind: Kind::ServeResnetB1,
        name: "serve_resnet_b1",
        why: "Batch-1 latency of the frozen conv path (im2row, per-request activation quantise, packed-weight qGEMM): closed loop, one request in flight, so batching never engages.",
        phase: Phase::Serve { in_flight: 1 },
        env: &[],
        batch: 4,
        setup_steps: 10,
        loss_target: 2.2,
    },
    Spec {
        kind: Kind::ServeMlpSat,
        name: "serve_mlp_sat",
        why: "Saturated capacity of the dense path (queue, batch assembly, batched GEMM, result split): closed loop, 16 requests always outstanding, so a full batch of 8 is queued whenever the worker goes idle.",
        phase: Phase::Serve { in_flight: 16 },
        env: &[],
        batch: 16,
        setup_steps: 40,
        loss_target: 1.0,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Iteration horizon handed to the FAST controller's threshold schedule. The
/// measured phase runs for a time, not a step count, so the horizon is a
/// constant: step `i` sees the same threshold on every machine.
const CONTROLLER_HORIZON: usize = 1000;

/// Pipeline-warm requests served and thrown away before a server is
/// measured.
const WARM_REQUESTS: usize = 200;

/// An independent random stream of the run's seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_DATA: u64 = 1;
const STREAM_INIT: u64 = 2;
const STREAM_SESSION: u64 = 3;
pub const STREAM_PROBE: u64 = 4;

pub type Batch = (Tensor, Vec<usize>);

/// One pre-generated epoch of training batches, drawn by cycling, and the
/// held-out samples served as single-sample requests.
struct Data {
    train: Vec<Batch>,
    requests: Vec<Tensor>,
}

fn generate_data(spec: &Spec, seed: u64) -> Data {
    let seed = sub_seed(seed, STREAM_DATA);
    let requests_of = |batches: Vec<Batch>| batches.into_iter().map(|(x, _)| x).collect();
    match spec.kind {
        Kind::TrainResnetFast => Data {
            train: SyntheticImages::generate(10, 16, 2560, 0, seed).train_batches(spec.batch, 0),
            requests: Vec::new(),
        },
        Kind::TrainMlpWide => Data {
            train: GaussianClusters::generate(10, 256, 8192, 0, 6.0, seed)
                .train_batches(spec.batch, 0),
            requests: Vec::new(),
        },
        Kind::ServeResnetB1 => {
            let d = SyntheticImages::generate(10, 32, spec.batch * spec.setup_steps, 256, seed);
            Data {
                train: d.train_batches(spec.batch, 0),
                requests: requests_of(d.test_batches(1)),
            }
        }
        Kind::ServeMlpSat => {
            let d =
                GaussianClusters::generate(10, 512, spec.batch * spec.setup_steps, 1024, 6.0, seed);
            Data {
                train: d.train_batches(spec.batch, 0),
                requests: requests_of(d.test_batches(1)),
            }
        }
    }
}

/// The architecture, with the precision policy applied; `init_seed` draws the
/// initial weights (irrelevant when a checkpoint is about to overwrite them).
fn build_model(kind: Kind, init_seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(init_seed);
    match kind {
        Kind::TrainResnetFast => resnet_lite(ResNetConfig::resnet18(8, 10), &mut rng),
        Kind::TrainMlpWide => {
            let mut m = mlp(&[256, 512, 512, 10], &mut rng);
            set_uniform_precision(&mut m, LayerPrecision::fast(4, 4, 4));
            m
        }
        Kind::ServeResnetB1 => {
            let mut m = resnet_lite(ResNetConfig::resnet18(16, 10), &mut rng);
            set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
            m
        }
        Kind::ServeMlpSat => {
            let mut m = mlp(&[512, 1024, 1024, 10], &mut rng);
            set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
            m
        }
    }
}

fn build_optimizer(kind: Kind) -> Sgd {
    match kind {
        Kind::TrainResnetFast | Kind::ServeResnetB1 => Sgd::new(0.05, 0.9, 5e-4),
        Kind::TrainMlpWide | Kind::ServeMlpSat => Sgd::new(0.01, 0.9, 0.0),
    }
}

/// A trainer, its hook and its batches, stepped one unit at a time.
pub struct TrainRig {
    pub trainer: Trainer,
    /// The FAST controller on `train_resnet_fast`, nothing elsewhere.
    hook: Box<dyn TrainHook>,
    batches: Vec<Batch>,
    /// Steps taken so far, warm-up included; also the next batch to draw.
    steps: usize,
    /// Loss of every step taken so far.
    pub losses: Vec<f64>,
    /// `(W, A, G)` mantissa widths of every quantised layer after each
    /// traced step, for the controller's per-layer counts.
    pub mantissas: Vec<Vec<(u32, u32, u32)>>,
}

impl TrainRig {
    /// One untraced step: the trainer's own `step_classification`.
    pub fn step(&mut self) {
        let (x, y) = &self.batches[self.steps % self.batches.len()];
        let loss = self
            .trainer
            .step_classification(x, y, self.hook.as_mut())
            .loss;
        self.steps += 1;
        self.losses.push(loss);
    }

    /// One traced step: `step_classification` re-composed from the public
    /// calls it makes, a span around each, in the same order with the same
    /// arguments, so the losses are bit-identical to [`TrainRig::step`].
    pub fn step_traced(&mut self, tracer: &mut Tracer, parent: Option<SpanId>) {
        let unit = self.steps as u32;
        let (x, y) = &self.batches[self.steps % self.batches.len()];
        let hook = self.hook.as_mut();
        let t = &mut self.trainer;
        let step = tracer.begin("train.step", parent, unit);
        tracer.within("core.before_iteration", Some(step), unit, || {
            hook.before_iteration(self.steps, &mut t.model)
        });
        t.session.train = true;
        t.session.record_sensitivity = hook.wants_sensitivity();
        let logits = tracer.within("nn.forward", Some(step), unit, || {
            t.model.forward(x, &mut t.session)
        });
        let (loss, grad) = tracer.within("nn.loss", Some(step), unit, || {
            softmax_cross_entropy(&logits, y)
        });
        tracer.within("nn.backward", Some(step), unit, || {
            t.model.backward(&grad, &mut t.session)
        });
        tracer.within("core.after_backward", Some(step), unit, || {
            hook.after_backward(self.steps, &mut t.model)
        });
        tracer.within("nn.optimizer", Some(step), unit, || {
            t.opt.step(&mut t.model)
        });
        tracer.end(step);
        let mut widths = Vec::new();
        t.model
            .visit_quant(&mut |q| widths.push(q.precision().mantissa_widths()));
        self.mantissas.push(widths);
        self.steps += 1;
        self.losses.push(loss);
    }
}

/// A running single-worker server, a reference replica frozen from the same
/// artifact, and the requests to send.
pub struct ServeRig {
    pub server: Server,
    pub reference: CompiledModel,
    pub requests: Vec<Tensor>,
    /// Shape every response must have.
    pub out_shape: Vec<usize>,
    pub max_batch: usize,
    /// The set-up training run, kept for its losses and traced steps.
    pub trained: TrainRig,
    pub artifact_bytes: usize,
}

pub enum Rig {
    Train(Box<TrainRig>),
    Serve(Box<ServeRig>),
}

/// Builds a workload from nothing, ready for its first measured unit. Every
/// stage is a span under `setup`; with `trace_steps` the training steps run
/// through [`TrainRig::step_traced`].
pub fn setup(spec: &Spec, seed: u64, tracer: &mut Tracer, trace_steps: bool) -> Rig {
    let root = tracer.begin("setup", None, 0);
    let data = tracer.within("data.generate", Some(root), 0, || generate_data(spec, seed));
    let mut rig = tracer.within("model.build", Some(root), 0, || {
        let model = build_model(spec.kind, sub_seed(seed, STREAM_INIT));
        let hook: Box<dyn TrainHook> = match spec.kind {
            Kind::TrainResnetFast => Box::new(FastController::new(
                CONTROLLER_HORIZON,
                EpsilonSchedule::paper_default(),
            )),
            _ => Box::new(NoopHook),
        };
        TrainRig {
            trainer: Trainer::new(
                model,
                build_optimizer(spec.kind),
                sub_seed(seed, STREAM_SESSION),
            ),
            hook,
            batches: data.train,
            steps: 0,
            losses: Vec::new(),
            mantissas: Vec::new(),
        }
    });
    let steps = tracer.begin("train.setup_steps", Some(root), 0);
    for _ in 0..spec.setup_steps {
        if trace_steps {
            rig.step_traced(tracer, Some(steps));
        } else {
            rig.step();
        }
    }
    tracer.end(steps);
    let Phase::Serve { in_flight } = spec.phase else {
        tracer.end(root);
        return Rig::Train(Box::new(rig));
    };

    let bytes = tracer.within("ckpt.encode", Some(root), 0, || {
        rig.trainer.checkpoint(None).to_bytes()
    });
    let artifact = tracer.within("ckpt.decode", Some(root), 0, || {
        Artifact::from_bytes(&bytes).expect("the artifact just encoded decodes")
    });
    let sample = &data.requests[0];
    let compile_id = tracer.begin("serve.compile_warm", Some(root), 0);
    let mut replicas = (0..2).map(|_| {
        let restored = Trainer::resume(
            build_model(spec.kind, 0),
            build_optimizer(spec.kind),
            &artifact,
            None,
        )
        .expect("the artifact restores into the architecture that wrote it");
        let mut compiled = CompiledModel::compile(restored.model, sub_seed(seed, STREAM_SESSION));
        let out_shape = compiled.warm(sample).shape().to_vec();
        (compiled, out_shape)
    });
    let (served, _) = replicas.next().expect("two replicas");
    let (reference, out_shape) = replicas.next().expect("two replicas");
    tracer.end(compile_id);
    let cfg = BatchConfig::default();
    let server = tracer.within("serve.start", Some(root), 0, || {
        Server::start(vec![served], cfg)
    });
    let mut rig = ServeRig {
        server,
        reference,
        requests: data.requests,
        out_shape,
        max_batch: cfg.max_batch,
        trained: rig,
        artifact_bytes: bytes.len(),
    };
    tracer.within("serve.warm_requests", Some(root), 0, || {
        let warm = crate::phases::serve_phase(
            &mut rig,
            crate::phases::Budget::Units(WARM_REQUESTS),
            in_flight,
            None,
        );
        assert_eq!(warm.failed, 0, "a warm-up request failed");
    });
    tracer.end(root);
    Rig::Serve(Box::new(rig))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_streams_and_pure() {
        let a: Vec<u64> = (1..=4).map(|s| sub_seed(42, s)).collect();
        assert_eq!(a, (1..=4).map(|s| sub_seed(42, s)).collect::<Vec<_>>());
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
        assert_ne!(sub_seed(42, 1), sub_seed(7, 1));
    }

    #[test]
    fn workload_names_fit_the_benchmark_contract() {
        for s in &SPECS {
            assert!(
                crate::metrics::tests::is_contract_name(s.name),
                "{}",
                s.name
            );
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert_eq!(spec_named(s.name).map(|x| x.kind), Some(s.kind));
        }
    }
}
