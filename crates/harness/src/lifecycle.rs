//! The end-to-end lifecycle driver: train → checkpoint → resume → freeze →
//! serve → hot-reload, with every hand-off invariant asserted in place.
//!
//! [`run_lifecycle`] pushes one zoo workload through the full pipeline
//! and panics with a cell-labelled message the moment any stage breaks its
//! contract:
//!
//! 1. **Train** under the FAST-Adaptive controller, checkpointing mid-run.
//! 2. **Resume** the mid-run artifact into fresh objects and replay the
//!    remaining steps — losses and final parameters must be bit-identical
//!    to the uninterrupted run (DESIGN.md §10).
//! 3. **Freeze** the trained model into a [`CompiledModel`] — its frozen
//!    forward must equal an eval-session forward bit for bit (§8).
//! 4. **Serve** compiled replicas under concurrent submitters, and
//!    **hot-reload** newly trained weights mid-traffic in a
//!    continual-learning loop — zero dropped requests, no reload
//!    failures, and post-reload responses equal to an eval forward of the
//!    retrained model (§8/§10).
//!
//! The paper's training story (variable-precision BFP + stochastic
//! rounding) runs through the controller exactly as in the experiments;
//! weights and activations use nearest rounding, so the serving stages are
//! deterministic and parity can be asserted although gradients round
//! stochastically.

use crate::workloads::Workload;
use fast_ckpt::StateDict;
use fast_core::{EpsilonSchedule, FastController};
use fast_nn::{Layer, Session, Sgd, Trainer};
use fast_serve::{BatchConfig, CompiledModel, Server};
use fast_tensor::Tensor;

/// Knobs for one lifecycle run.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleConfig {
    /// Training steps before the mid-run checkpoint.
    pub head_steps: usize,
    /// Steps after the checkpoint (the resume window replayed twice).
    pub tail_steps: usize,
    /// Continual-learning rounds (re-train then hot-reload) while serving.
    pub rounds: usize,
    /// Training steps per continual-learning round.
    pub round_steps: usize,
    /// Compiled replicas behind the server.
    pub replicas: usize,
    /// Concurrent submitter threads per round.
    pub submitters: usize,
    /// Requests each submitter issues per round.
    pub requests_per_submitter: usize,
    /// Seed for model init and the training session.
    pub seed: u64,
}

impl LifecycleConfig {
    /// The CI-scale configuration: a handful of steps per stage, two
    /// replicas, three submitters — small enough that all six workloads run
    /// in test time, large enough that every stage genuinely executes
    /// (multiple batches, coalescing, two reloads).
    pub fn quick() -> Self {
        LifecycleConfig {
            head_steps: 3,
            tail_steps: 3,
            rounds: 2,
            round_steps: 2,
            replicas: 2,
            submitters: 3,
            requests_per_submitter: 6,
            seed: 0x11FE,
        }
    }
}

/// What a lifecycle run observed (the invariants themselves are asserted
/// inside [`run_lifecycle`]).
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    /// The workload's name, which labels every failure message.
    pub cell: String,
    /// Loss curve of the reference training run (head + tail + rounds).
    pub losses: Vec<f64>,
    /// Samples the server answered (== samples submitted; zero drops).
    pub served: u64,
    /// Per-worker reload applications observed at shutdown.
    pub reloads: u64,
    /// Final weight generation (one per continual-learning round).
    pub generation: u64,
}

/// Number of serving-parity probe inputs per round.
const PROBES: usize = 4;

/// The eval forward a served response must equal: same weights.
fn eval_forward(model: &mut fast_nn::Sequential, x: &Tensor) -> Tensor {
    model.forward(x, &mut Session::eval(0))
}

fn param_bits(model: &mut fast_nn::Sequential) -> Vec<u32> {
    let mut bits = Vec::new();
    model.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    bits
}

/// Drives `workload` through the full train→freeze→serve lifecycle under
/// `cfg`, asserting every stage contract.
///
/// # Panics
///
/// Panics with a cell-labelled message if any invariant fails: resume is
/// not bit-exact, the compiled forward diverges from eval, a request is
/// dropped, or a reload fails or serves stale weights.
pub fn run_lifecycle(workload: Workload, cfg: &LifecycleConfig) -> LifecycleReport {
    let cell = workload.name().to_string();
    let total_steps = cfg.head_steps + cfg.tail_steps + cfg.rounds * cfg.round_steps;
    let stream = workload.training_stream(total_steps);
    let opt = || Sgd::new(0.05, 0.9, 0.0);

    // --- 1. Train under the controller, checkpoint mid-run. -------------
    let mut ctl = FastController::new(total_steps, EpsilonSchedule::paper_default()).with_stride(2);
    let mut trainer = Trainer::new(workload.build(cfg.seed), opt(), cfg.seed);
    let mut losses = Vec::with_capacity(total_steps);
    for batch in &stream[..cfg.head_steps] {
        losses.push(workload.step(&mut trainer, batch, &mut ctl).loss);
    }
    let mid = trainer.checkpoint(Some(&mut ctl));
    let mut tail_bits = Vec::with_capacity(cfg.tail_steps);
    for batch in &stream[cfg.head_steps..cfg.head_steps + cfg.tail_steps] {
        let loss = workload.step(&mut trainer, batch, &mut ctl).loss;
        tail_bits.push(loss.to_bits());
        losses.push(loss);
    }
    let tail_params = param_bits(&mut trainer.model);
    assert!(
        losses.iter().all(|l| l.is_finite()),
        "{cell}: training loss must stay finite: {losses:?}"
    );

    // --- 2. Resume the mid-run artifact; replay must be bit-exact. ------
    let mut ctl2 =
        FastController::new(total_steps, EpsilonSchedule::paper_default()).with_stride(2);
    // Seed intentionally different: the artifact must supply every tensor.
    let mut resumed = Trainer::resume(
        workload.build(cfg.seed ^ 0xDEAD),
        opt(),
        &mid,
        Some(&mut ctl2),
    )
    .unwrap_or_else(|e| panic!("{cell}: resume failed: {e}"));
    for (i, batch) in stream[cfg.head_steps..cfg.head_steps + cfg.tail_steps]
        .iter()
        .enumerate()
    {
        let loss = workload.step(&mut resumed, batch, &mut ctl2).loss;
        assert_eq!(
            loss.to_bits(),
            tail_bits[i],
            "{cell}: resumed loss diverged at tail step {i}"
        );
    }
    assert_eq!(
        param_bits(&mut resumed.model),
        tail_params,
        "{cell}: resumed parameters diverged from the uninterrupted run"
    );

    // --- 3. Freeze; compiled forward must equal eval forward. -----------
    let probes: Vec<Tensor> = (0..PROBES).map(|i| workload.sample_input(i)).collect();
    let want: Vec<Tensor> = probes
        .iter()
        .map(|x| eval_forward(&mut trainer.model, x))
        .collect();
    // The resumed model is bit-identical (asserted above), so freezing it
    // keeps `trainer` free to continue the continual-learning rounds.
    let mut compiled = CompiledModel::compile(resumed.model, 0);
    for (x, w) in probes.iter().zip(&want) {
        assert_eq!(
            &compiled.infer(x),
            w,
            "{cell}: compiled forward must match eval forward bit for bit"
        );
    }

    // --- 4. Serve under concurrent load; hot-reload mid-traffic. --------
    let final_art = trainer.checkpoint(Some(&mut ctl));
    let model_state = StateDict::from_bytes(final_art.require(fast_ckpt::SECTION_MODEL).unwrap())
        .unwrap_or_else(|e| panic!("{cell}: model section must decode: {e}"));
    let replicas: Vec<CompiledModel> = (0..cfg.replicas)
        .map(|r| {
            let mut c = CompiledModel::compile(workload.build(cfg.seed ^ (r as u64 + 1)), 0);
            c.apply_state(&model_state)
                .unwrap_or_else(|e| panic!("{cell}: replica {r} rejected trained state: {e}"));
            c
        })
        .collect();
    let server = Server::start(replicas, BatchConfig::default());
    let mut submitted = 0u64;
    let mut consumed = cfg.head_steps + cfg.tail_steps;
    let mut generation = 0;
    for round in 0..cfg.rounds {
        // Concurrent submitters race the re-train + reload below. Dropped
        // requests would hang (or panic) a `wait`, so completion of the
        // scope is itself the zero-drop proof; counts are re-checked at
        // shutdown.
        std::thread::scope(|scope| {
            for t in 0..cfg.submitters {
                let server = &server;
                let probes = &probes;
                scope.spawn(move || {
                    let pending: Vec<_> = (0..cfg.requests_per_submitter)
                        .map(|k| server.submit(probes[(t + k) % probes.len()].clone()))
                        .collect();
                    for p in pending {
                        let out = p.wait();
                        assert!(
                            out.data().iter().all(|v| v.is_finite()),
                            "response must be finite"
                        );
                    }
                });
            }
            // Continual learning: train a couple more steps, ship them.
            for batch in &stream[consumed..consumed + cfg.round_steps] {
                losses.push(workload.step(&mut trainer, batch, &mut ctl).loss);
            }
            let art = trainer.checkpoint(Some(&mut ctl));
            generation = server
                .reload(&art)
                .unwrap_or_else(|e| panic!("{cell}: round {round} reload failed: {e}"));
        });
        submitted += (cfg.submitters * cfg.requests_per_submitter) as u64;
        consumed += cfg.round_steps;
        // The reload call returned inside the scope, so by now every new
        // request must see the round's weights (bit-transparent swap).
        for x in probes.iter() {
            let w = eval_forward(&mut trainer.model, x);
            assert_eq!(
                server.infer(x.clone()),
                w,
                "{cell}: round {round} post-reload response must match retrained model"
            );
            submitted += 1;
        }
    }
    // --- 5. Coalesced burst: results must match per-sample eval. ---------
    // All requests are in flight before any wait, so the continuous
    // batcher coalesces the backlog; the responses must still be
    // bit-identical to single-sample eval forwards — this is what
    // exercises the proportional output split for workloads whose models
    // emit several rows per sample (transformer) or rank-4 maps (YOLO).
    let want: Vec<Tensor> = probes
        .iter()
        .map(|x| eval_forward(&mut trainer.model, x))
        .collect();
    let burst = 3 * probes.len();
    let pending: Vec<_> = (0..burst)
        .map(|i| server.submit(probes[i % probes.len()].clone()))
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        assert_eq!(
            p.wait(),
            want[i % want.len()],
            "{cell}: coalesced response {i} must equal a per-sample eval forward"
        );
    }
    submitted += burst as u64;
    // --- 6. Deadline-armed wave: admission control must pass requests
    // whose budget is generous, and deadline-armed responses stay
    // bit-identical to unarmed ones (the deadline is admission metadata,
    // not numerics).
    let armed: Vec<_> = (0..probes.len())
        .map(|i| {
            server.submit_request(
                fast_serve::ServeRequest::new(probes[i].clone())
                    .with_deadline(std::time::Duration::from_secs(60)),
            )
        })
        .collect();
    for (i, p) in armed.into_iter().enumerate() {
        assert_eq!(
            p.result().unwrap_or_else(|e| panic!(
                "{cell}: generous-deadline request {i} must be admitted and served: {e}"
            )),
            want[i],
            "{cell}: deadline-armed response {i} must equal the unarmed response"
        );
    }
    submitted += probes.len() as u64;
    assert_eq!(
        server.weight_generation(),
        cfg.rounds as u64,
        "{cell}: one weight generation per round"
    );
    let stats = server.shutdown();
    assert_eq!(
        stats.samples, submitted,
        "{cell}: every submitted sample must be answered"
    );
    assert_eq!(
        stats.reload_failures, 0,
        "{cell}: no replica may reject a round's artifact"
    );
    assert_eq!(
        stats.reloads,
        (cfg.replicas * cfg.rounds) as u64,
        "{cell}: every reload must reach every worker"
    );
    assert_eq!(
        stats.rejected, 0,
        "{cell}: no request carried a deadline tight enough to shed"
    );
    assert_eq!(
        stats.deadline_missed, 0,
        "{cell}: no admitted request may expire in queue at this load"
    );
    assert_eq!(
        stats.queue_ns.count(),
        submitted,
        "{cell}: every served request must record queue residency"
    );
    assert_eq!(
        stats.service_ns.count(),
        submitted,
        "{cell}: every served request must record service time"
    );
    LifecycleReport {
        cell,
        losses,
        served: stats.samples,
        reloads: stats.reloads,
        generation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One in-crate smoke run so harness bugs surface here before the
    /// workspace-level `tests/lifecycle.rs` suite runs.
    #[test]
    fn mlp_lifecycle_passes() {
        let report = run_lifecycle(Workload::Mlp, &LifecycleConfig::quick());
        assert_eq!(report.cell, "mlp");
        assert_eq!(report.generation, 2);
        assert!(report.served > 0);
    }
}
