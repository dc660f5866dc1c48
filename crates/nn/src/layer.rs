//! The layer abstraction: forward/backward with explicit state, parameter
//! visitation for optimizers, and quantization control for the FAST
//! controller.

use crate::qgemm::PlanStats;
use crate::quant::{LayerPrecision, NumericFormat};
use fast_bfp::{CounterRng, Noise, QuantStats, Rounding};
use fast_ckpt::{StateVisitor, VisitState};
use fast_tensor::Tensor;

/// The stochastic-rounding noise source of a run. Counter noise is the only
/// one; the type exists so [`Session::default_sr_mode`] keeps compiling for
/// the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrMode {
    /// Counter noise keyed by `(seed, element offset)` (DESIGN.md §12).
    Counter,
}

/// How packed BFP GEMMs execute. The integer kernels are the only way
/// (DESIGN.md §11); the type exists so [`Session::default_exec_mode`] keeps
/// compiling for the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Integer mantissa products, one f32 scale fix-up per group segment.
    Integer,
}

/// Per-run context threaded through forward/backward passes.
///
/// Owns the stochastic-rounding noise state — a seed and a draw cursor — so
/// runs are reproducible from a single seed, and the [`PlanStats`] counters
/// that every GEMM routed through the [`crate::qgemm`] plan accumulates into.
#[derive(Debug)]
pub struct Session {
    /// Whether layers should behave in training mode (batch-norm statistics,
    /// activation caching for backward, …).
    pub train: bool,
    /// Whether weight-bearing layers may serve quantized weights from their
    /// frozen-weight caches instead of re-quantizing the FP32 masters on
    /// every forward pass (DESIGN.md §8). Off for training — Algorithm 1
    /// changes per-layer formats between iterations — and on for serving,
    /// where weights and formats are frozen. Caches are invalidated by any
    /// weight update, so flipping this flag mid-run is always safe.
    pub freeze_weights: bool,
    /// Whether GEMM layers keep sensitivity tensors (a clone of each
    /// backward pass's `grad_output`) for [`QuantControlled`] readers. The
    /// FAST controller and the exponent-distribution experiments need them;
    /// plain training does not, and skips the per-layer copy. [`Trainer`]
    /// sets this from [`TrainHook::wants_sensitivity`] every step.
    ///
    /// [`Trainer`]: crate::Trainer
    /// [`TrainHook::wants_sensitivity`]: crate::TrainHook::wants_sensitivity
    pub record_sensitivity: bool,
    /// Counters accumulated by the quantized-GEMM execution plan: GEMM and
    /// MAC counts plus fused [`QuantStats`] from operand preparation — the
    /// single software-side instrumentation point (DESIGN.md §9).
    pub plan_stats: PlanStats,
    /// Whether the backward pass now running must return the gradient of
    /// its input. True for every session this type constructs; only
    /// [`Trainer::new`] clears it, because a training step throws the
    /// model input's gradient away. [`Sequential`] hands it to its first
    /// child alone, and only when [`Layer::can_skip_input_grad`] says that
    /// child honors it; every other layer's backward runs with it set.
    ///
    /// [`Trainer::new`]: crate::Trainer::new
    /// [`Sequential`]: crate::Sequential
    pub(crate) input_grad: bool,
    /// Seed of the stochastic-rounding noise (the session seed verbatim).
    sr_seed: u64,
    /// Next unclaimed noise position; each SR-BFP operand the plan prepares
    /// reserves `rows × cols` positions. Together with `sr_seed` this is
    /// the *entire* RNG state a checkpoint carries (DESIGN.md §12).
    sr_cursor: u64,
}

impl Session {
    /// Creates a training session with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Session {
            train: true,
            freeze_weights: false,
            record_sensitivity: false,
            plan_stats: PlanStats::default(),
            input_grad: true,
            sr_seed: seed,
            sr_cursor: 0,
        }
    }

    /// Always [`SrMode::Counter`]; reads no environment. Kept only because
    /// `benchmark/` prints it and could not change in the PR that retired
    /// the second noise source — the next benchmark PR deletes this and
    /// [`SrMode`].
    pub fn default_sr_mode() -> SrMode {
        SrMode::Counter
    }

    /// Always [`ExecMode::Integer`]; reads no environment. Kept only because
    /// `benchmark/` prints it — the next benchmark PR deletes this and
    /// [`ExecMode`].
    pub fn default_exec_mode() -> ExecMode {
        ExecMode::Integer
    }

    /// Creates an evaluation session: no training-mode caching, but weights
    /// are still re-quantized on every forward pass (the path used for
    /// mid-training validation, where the controller may change formats).
    pub fn eval(seed: u64) -> Self {
        Session {
            train: false,
            ..Session::new(seed)
        }
    }

    /// Creates an inference-serving session: evaluation behavior plus
    /// frozen-weight caching — each layer quantizes its weights once and
    /// replays the cached copy on every subsequent request (DESIGN.md §8).
    pub fn inference(seed: u64) -> Self {
        Session {
            train: false,
            freeze_weights: true,
            ..Session::new(seed)
        }
    }

    /// Split borrow for the plan: the noise one operand of `numel` elements
    /// in format `fmt` quantizes with, and the fused quantization counters.
    ///
    /// An operand that actually draws — an SR-rounded BFP format — claims
    /// the next `numel` positions of the session's noise stream (one per
    /// element, so distinct operands never share noise and a resumed run
    /// continues the reservation sequence exactly where the checkpoint left
    /// it) and may shard across the worker pool. Deterministic and scalar
    /// formats draw nothing and reserve nothing.
    pub(crate) fn quant_parts(
        &mut self,
        fmt: NumericFormat,
        numel: usize,
    ) -> (Noise, &mut QuantStats) {
        let base = self.sr_cursor;
        let mut workers = 1;
        if draws_noise(fmt) {
            self.sr_cursor = base.wrapping_add(numel as u64);
            workers = fast_tensor::parallelism().workers();
        }
        let noise = Noise {
            rng: CounterRng::new(self.sr_seed),
            base,
            workers,
        };
        (noise, &mut self.plan_stats.quant)
    }

    /// Stands in for the preparation of an operand a layer skips: claims
    /// the same noise positions the pack would have, at the same point of
    /// the sequence, so every later operand draws exactly the noise it
    /// draws when nothing is skipped (DESIGN.md §12). Nothing is quantized
    /// or counted.
    pub(crate) fn skip_operand(&mut self, fmt: NumericFormat, numel: usize) {
        if draws_noise(fmt) {
            self.sr_cursor = self.sr_cursor.wrapping_add(numel as u64);
        }
    }

    /// Whether the backward pass now running must return its input's
    /// gradient (see [`Layer::can_skip_input_grad`]). False only inside the
    /// first layer of a [`Trainer`]'s model.
    ///
    /// [`Trainer`]: crate::Trainer
    pub fn input_grad(&self) -> bool {
        self.input_grad
    }

    /// The stochastic-rounding RNG state `(seed, cursor)` — everything a
    /// bit-exact resume needs (DESIGN.md §12).
    pub fn sr_state(&self) -> (u64, u64) {
        (self.sr_seed, self.sr_cursor)
    }

    /// Restores the stochastic-rounding RNG to a [`Session::sr_state`]
    /// snapshot.
    pub fn set_sr_state(&mut self, seed: u64, cursor: u64) {
        self.sr_seed = seed;
        self.sr_cursor = cursor;
    }
}

/// Whether an operand in `fmt` draws stochastic-rounding noise, and so
/// reserves one noise position per element: SR-rounded BFP formats only.
fn draws_noise(fmt: NumericFormat) -> bool {
    matches!(
        fmt,
        NumericFormat::Bfp {
            rounding: Rounding::Stochastic { .. },
            ..
        }
    )
}

/// The session state that determines a training trajectory: the
/// stochastic-rounding RNG state (`sr_seed`/`sr_step` — the whole generator
/// is a pure function of those two) plus the cumulative plan counters (so a
/// resumed run reports the same totals as an uninterrupted one). The
/// `train`/`freeze_weights`/`record_sensitivity` flags are *not* state —
/// the training loop reasserts them every step.
impl VisitState for Session {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        v.scalar_u64("sr_seed", &mut self.sr_seed);
        v.scalar_u64("sr_step", &mut self.sr_cursor);
        v.scalar_u64("plan_gemms", &mut self.plan_stats.gemms);
        v.scalar_u64("plan_macs", &mut self.plan_stats.macs);
        let mut groups = self.plan_stats.quant.groups as u64;
        v.scalar_u64("quant_groups", &mut groups);
        self.plan_stats.quant.groups = groups as usize;
        v.scalar_u64("quant_saturated", &mut self.plan_stats.quant.saturated);
        v.scalar_u64("quant_zeros", &mut self.plan_stats.quant.zeros);
    }
}

/// A mutable view of one parameter tensor and its gradient accumulator.
pub struct Param<'a> {
    /// The parameter values (FP32 master copy).
    pub value: &'a mut Tensor,
    /// The accumulated gradient for the current step.
    pub grad: &'a mut Tensor,
    /// Whether weight decay applies (true for weights, false for
    /// biases/norm parameters, following common practice).
    pub decay: bool,
}

/// Forward GEMM dimensions of a quantized layer, `(M, K, N)` with
/// `O (M×N) = A (M×K) · W (K×N)` — the quantities the systolic-array cycle
/// model consumes (paper Fig 3's matrix view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Output rows (batch × positions).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Output columns (output features/channels).
    pub n: usize,
}

impl GemmShape {
    /// Multiply-accumulate count of the forward GEMM.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }
}

/// Interface exposed by GEMM-bearing layers to the FAST precision
/// controller (paper Algorithm 1 reads `A_l, W_l, G_l` and writes the
/// layer's BFP precision).
pub trait QuantControlled {
    /// Mutable access to the layer's (W, A, G) format assignment.
    fn precision_mut(&mut self) -> &mut LayerPrecision;
    /// The current format assignment.
    fn precision(&self) -> LayerPrecision;
    /// The FP32 master weights.
    fn weight(&self) -> &Tensor;
    /// The FP32 input activations of the most recent forward pass, if any.
    fn last_input(&self) -> Option<&Tensor>;
    /// The FP32 output gradients of the most recent backward pass, if any.
    fn last_grad_output(&self) -> Option<&Tensor>;
    /// Forward GEMM dims of the most recent batch, if a pass has run.
    fn gemm_shape(&self) -> Option<GemmShape>;
    /// Short description, e.g. `conv3x3(16->32)`.
    fn label(&self) -> String;
}

/// A neural-network layer with explicit forward/backward state.
///
/// Layers own their parameters, caches, and gradients. `backward` consumes
/// the cached forward state and returns the gradient w.r.t. the layer
/// input; parameter gradients are *accumulated* internally until an
/// optimizer step visits them.
///
/// `Send` is a supertrait so whole models can move across threads — the
/// serving engine hands each worker thread its own model replica
/// (DESIGN.md §8). Layers are plain tensor data, so this costs nothing.
pub trait Layer: Send {
    /// Runs the layer on `input`, caching whatever backward needs when
    /// `session.train` is set.
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor;

    /// Propagates `grad_output` back through the layer, returning the
    /// gradient w.r.t. the forward input (zeros of its shape when the layer
    /// [`Layer::can_skip_input_grad`] and the session says it takes none).
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward pass.
    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor;

    /// Whether `backward` honors [`Session::input_grad`]: when it reads
    /// false, the layer computes no input gradient — no `∇A` GEMM, no
    /// operand packs (their noise positions are still reserved) — and
    /// returns zeros of the input's shape. Weight and bias gradients,
    /// sensitivity caches and GEMM shapes are recorded as always. A
    /// container passes the property only to a child that answers true
    /// here, so every other layer, and everything nested inside it,
    /// computes as before.
    fn can_skip_input_grad(&self) -> bool {
        false
    }

    /// Visits all trainable parameters in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        let _ = f;
    }

    /// Visits all quantization-controlled (GEMM) sublayers in execution
    /// order — the layer indexing used by Algorithm 1.
    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dyn QuantControlled)) {
        let _ = f;
    }

    /// Walks the layer's trajectory-determining state under stable names:
    /// parameters *and* everything else a bit-exact resume needs —
    /// persistent buffers (batch-norm running statistics), the per-layer
    /// precision assignment, and the sensitivity caches the FAST controller
    /// reads at the top of the next iteration (DESIGN.md §10).
    ///
    /// Extends [`Layer::visit_params`] (which enumerates anonymous
    /// value/grad pairs for optimizers) with names and shapes so state can
    /// round-trip through `fast_ckpt` artifacts. Stateless layers keep the
    /// default no-op. Implementations that hand out mutable weight access
    /// must invalidate their frozen-weight caches, exactly as
    /// `visit_params` does.
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let _ = v;
    }

    /// A short kind tag, e.g. `"dense"`.
    fn kind(&self) -> &'static str;
}

/// Convenience: total number of scalar parameters in a layer tree.
pub fn parameter_count(layer: &mut dyn Layer) -> usize {
    let mut count = 0usize;
    layer.visit_params(&mut |p| count += p.value.numel());
    count
}

/// Convenience: number of quantization-controlled layers in a layer tree.
pub fn quant_layer_count(layer: &mut dyn Layer) -> usize {
    let mut count = 0usize;
    layer.visit_quant(&mut |_| count += 1);
    count
}

/// Sets every quantized layer in the tree to the same precision.
pub fn set_uniform_precision(layer: &mut dyn Layer, precision: LayerPrecision) {
    layer.visit_quant(&mut |q| *q.precision_mut() = precision);
}

/// Collects `(label, precision)` for every quantized layer.
pub fn collect_precisions(layer: &mut dyn Layer) -> Vec<(String, LayerPrecision)> {
    let mut out = Vec::new();
    layer.visit_quant(&mut |q| out.push((q.label(), q.precision())));
    out
}
