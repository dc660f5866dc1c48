//! The layer abstraction: forward/backward with explicit state, parameter
//! visitation for optimizers, and quantization control for the FAST
//! controller.

use crate::qgemm::PlanStats;
use crate::quant::{LayerPrecision, NumericFormat};
use fast_bfp::{CounterRng, Noise, QuantStats, RngBits, Rounding, SrMode};
use fast_ckpt::{StateVisitor, VisitState};
use fast_tensor::{ExecMode, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-run context threaded through forward/backward passes.
///
/// Owns the random bit source used by stochastic rounding so runs are
/// reproducible from a single seed, and the [`PlanStats`] counters that
/// every GEMM routed through the [`crate::qgemm`] plan accumulates into.
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
    /// How packed×packed GEMMs routed through [`crate::qgemm::execute`]
    /// run: the bit-exact replay path (the default) or the integer-domain
    /// kernels of DESIGN.md §11. Like the mode flags above this is *not*
    /// checkpoint state — a training loop (or serving compile) reasserts
    /// it; see [`Session::default_exec_mode`] for the `FAST_QGEMM_MODE`
    /// environment override (DESIGN.md §16).
    pub exec_mode: ExecMode,
    /// Which stochastic-rounding noise source the quantized-GEMM plan draws
    /// from: the sequential LFSR-seeded stream (the default, bit-exact with
    /// every artifact recorded so far) or the counter-based source of
    /// DESIGN.md §12, whose draws are a pure function of `(seed, element
    /// offset)` and therefore order-independent and shardable. Unlike
    /// [`Session::exec_mode`] the choice *is* reflected in checkpoints —
    /// the artifact's RNG section self-describes which mode produced it —
    /// but new sessions start from [`Session::default_sr_mode`].
    pub sr_mode: SrMode,
    bits: RngBits<StdRng>,
    /// Seed of the counter-mode noise source (the session seed verbatim).
    sr_seed: u64,
    /// Next unclaimed counter-noise position; each SR-BFP operand the plan
    /// prepares reserves `rows × cols` positions. Together with `sr_seed`
    /// this is the *entire* counter-mode RNG state a checkpoint carries.
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
            exec_mode: Session::default_exec_mode(),
            sr_mode: Session::default_sr_mode(),
            bits: RngBits(StdRng::seed_from_u64(seed)),
            sr_seed: seed,
            sr_cursor: 0,
        }
    }

    /// The process-wide default [`SrMode`] for new sessions, read once from
    /// the `FAST_SR_MODE` environment variable: `counter` (the CI lever
    /// that forces the whole gate suite through the counter-based noise
    /// source) or `lfsr`; unset means [`SrMode::Lfsr`] — the sequential
    /// stream stays the default for fidelity with the paper's LFSR
    /// converter and with previously recorded artifacts.
    ///
    /// # Panics
    ///
    /// Panics on any other value, naming the variable and the accepted set.
    pub fn default_sr_mode() -> SrMode {
        static ENV: std::sync::OnceLock<SrMode> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| env_lever("FAST_SR_MODE", SR_MODES))
    }

    /// The process-wide default [`ExecMode`] for new sessions, read once
    /// from the `FAST_QGEMM_MODE` environment variable: `integer` (the CI
    /// lever that forces the whole gate suite through the integer-domain
    /// kernels) or `replay`; unset means [`ExecMode::Replay`].
    ///
    /// # Panics
    ///
    /// Panics on any other value, naming the variable and the accepted set.
    pub fn default_exec_mode() -> ExecMode {
        static ENV: std::sync::OnceLock<ExecMode> = std::sync::OnceLock::new();
        *ENV.get_or_init(|| env_lever("FAST_QGEMM_MODE", EXEC_MODES))
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

    /// The stochastic-rounding bit source with its concrete type, so layer
    /// hot paths monomorphize the quantization kernels (no virtual call per
    /// stochastic draw; see `fast_bfp::kernel`).
    pub fn rng(&mut self) -> &mut RngBits<StdRng> {
        &mut self.bits
    }

    /// Split borrow for the plan: the noise one operand of `numel` elements
    /// in format `fmt` quantizes with, and the fused quantization counters.
    ///
    /// This is the one place the run's [`SrMode`] becomes a [`Noise`].
    /// Under [`SrMode::Counter`] an operand that actually draws — an
    /// SR-rounded BFP format — claims the next `numel` positions of the
    /// session's counter stream (one per element, so distinct operands
    /// never share noise and a resumed run continues the reservation
    /// sequence exactly where the checkpoint left it) and may shard across
    /// the worker pool. Everything else gets the sequential stream, which
    /// deterministic and scalar formats never touch.
    pub(crate) fn quant_parts(
        &mut self,
        fmt: NumericFormat,
        numel: usize,
    ) -> (Noise<'_, RngBits<StdRng>>, &mut QuantStats) {
        let draws = matches!(
            fmt,
            NumericFormat::Bfp {
                rounding: Rounding::Stochastic { .. },
                ..
            }
        );
        let noise = match self.sr_mode {
            SrMode::Counter if draws => {
                let base = self.sr_cursor;
                self.sr_cursor = self.sr_cursor.wrapping_add(numel as u64);
                Noise::Counter {
                    rng: CounterRng::new(self.sr_seed),
                    base,
                    workers: fast_tensor::parallelism().workers(),
                }
            }
            _ => Noise::Stream(&mut self.bits),
        };
        (noise, &mut self.plan_stats.quant)
    }

    /// The counter-mode RNG state `(seed, cursor)` — everything a bit-exact
    /// resume needs under [`SrMode::Counter`] (DESIGN.md §12).
    pub fn sr_state(&self) -> (u64, u64) {
        (self.sr_seed, self.sr_cursor)
    }

    /// Restores the counter-mode RNG to a [`Session::sr_state`] snapshot.
    pub fn set_sr_state(&mut self, seed: u64, cursor: u64) {
        self.sr_seed = seed;
        self.sr_cursor = cursor;
    }

    /// The raw state of the stochastic-rounding generator, for exact
    /// checkpoint/resume (the xoshiro256** words of the session RNG).
    pub fn rng_state(&self) -> [u64; 4] {
        self.bits.0.state()
    }

    /// Restores the stochastic-rounding generator to a [`Session::rng_state`]
    /// snapshot, so the next draw continues the recorded stream exactly.
    ///
    /// # Panics
    ///
    /// Panics on the all-zero state (never produced by a real generator).
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.bits.0 = StdRng::from_state(state);
    }
}

/// Accepted `FAST_QGEMM_MODE` values, default first.
const EXEC_MODES: &[(&str, ExecMode)] =
    &[("replay", ExecMode::Replay), ("integer", ExecMode::Integer)];

/// Accepted `FAST_SR_MODE` values, default first.
const SR_MODES: &[(&str, SrMode)] = &[("lfsr", SrMode::Lfsr), ("counter", SrMode::Counter)];

/// Resolves one environment lever: unset selects the default (the first
/// accepted entry), a set value must name an accepted entry exactly.
///
/// # Errors
///
/// A message naming the variable, the offending value and the accepted set
/// — a typo must not silently run the default.
fn parse_lever<T: Copy>(
    var: &str,
    value: Option<&str>,
    accepted: &[(&str, T)],
) -> Result<T, String> {
    let Some(value) = value else {
        return Ok(accepted[0].1);
    };
    accepted
        .iter()
        .find(|(name, _)| *name == value)
        .map(|&(_, mode)| mode)
        .ok_or_else(|| {
            let names: Vec<&str> = accepted.iter().map(|&(name, _)| name).collect();
            format!(
                "{var}={value:?} is not recognised: accepted values are {} (unset = {})",
                names.join("|"),
                names[0]
            )
        })
}

/// [`parse_lever`] over the process environment, panicking on a bad value.
fn env_lever<T: Copy>(var: &str, accepted: &[(&str, T)]) -> T {
    let value = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    parse_lever(var, value.as_deref(), accepted).unwrap_or_else(|why| panic!("{why}"))
}

/// The session state that determines a training trajectory: the
/// stochastic-rounding RNG state plus the cumulative plan counters (so a
/// resumed run reports the same totals as an uninterrupted one). The
/// `train`/`freeze_weights`/`record_sensitivity` flags are *not* state —
/// the training loop reasserts them every step.
///
/// The RNG entries depend on [`Session::sr_mode`]: the sequential mode
/// writes the four xoshiro256** words (`rng0..rng3`), the counter mode just
/// `sr_seed`/`sr_step` — the whole generator is a pure function of those
/// two. The key names therefore make artifacts self-describing:
/// [`crate::Trainer::resume`] restores whichever mode the artifact was
/// recorded under, so old sequential-mode artifacts keep restoring
/// unchanged.
impl VisitState for Session {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        match self.sr_mode {
            SrMode::Lfsr => {
                let mut rng = self.rng_state();
                v.scalar_u64("rng0", &mut rng[0]);
                v.scalar_u64("rng1", &mut rng[1]);
                v.scalar_u64("rng2", &mut rng[2]);
                v.scalar_u64("rng3", &mut rng[3]);
                // A live xoshiro256** generator is never all-zero, so an
                // artifact carrying four zero words is corrupt — report it
                // through the visitor (a typed error on restore) instead of
                // letting `set_rng_state` assert.
                if rng.iter().any(|&w| w != 0) {
                    self.set_rng_state(rng);
                } else {
                    v.invalid("rng0", "all-zero RNG state".to_string());
                }
            }
            SrMode::Counter => {
                v.scalar_u64("sr_seed", &mut self.sr_seed);
                v.scalar_u64("sr_step", &mut self.sr_cursor);
            }
        }
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
    /// gradient w.r.t. the forward input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a training-mode forward pass.
    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levers_accept_exactly_their_documented_values() {
        assert_eq!(parse_lever("V", None, EXEC_MODES), Ok(ExecMode::Replay));
        assert_eq!(
            parse_lever("V", Some("replay"), EXEC_MODES),
            Ok(ExecMode::Replay)
        );
        assert_eq!(
            parse_lever("V", Some("integer"), EXEC_MODES),
            Ok(ExecMode::Integer)
        );
        assert_eq!(parse_lever("V", None, SR_MODES), Ok(SrMode::Lfsr));
        assert_eq!(parse_lever("V", Some("lfsr"), SR_MODES), Ok(SrMode::Lfsr));
        assert_eq!(
            parse_lever("V", Some("counter"), SR_MODES),
            Ok(SrMode::Counter)
        );
    }

    #[test]
    fn unrecognised_lever_values_are_errors_not_the_default() {
        // The typos that used to run a CI leg on the default silently.
        for bad in ["Counter", "COUNTER", "ctr", " counter", "counter ", ""] {
            let err = parse_lever("FAST_SR_MODE", Some(bad), SR_MODES).unwrap_err();
            assert!(err.contains("FAST_SR_MODE"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
            assert!(err.contains("lfsr|counter"), "{err}");
        }
        let err = parse_lever("FAST_QGEMM_MODE", Some("int"), EXEC_MODES).unwrap_err();
        assert!(
            err.contains("FAST_QGEMM_MODE")
                && err.contains("\"int\"")
                && err.contains("replay|integer"),
            "{err}"
        );
    }
}
