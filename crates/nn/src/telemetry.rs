//! Static telemetry handles for the qgemm and trainer hot paths
//! (DESIGN.md §15).
//!
//! Handles live in `OnceLock` statics so the record path is one relaxed
//! atomic add — the global [`Registry`](fast_telemetry::Registry) mutex is
//! taken once per process per series, never per GEMM. Unlike span timers,
//! these counters are always on: they read values the computation already
//! produced (shapes, MAC counts, loss), so there is no clock or allocation
//! to gate.

use std::sync::OnceLock;

use fast_telemetry::{Counter, Gauge, Registry};

use crate::qgemm::{GemmOperand, Prepared};

struct GemmCounters {
    gemms: Counter,
    macs: Counter,
}

/// The counters of one kernel family: `mode="integer"` for the integer
/// kernels, `mode="replay"` for the dense kernels over dequantized operands.
fn gemm_counters(integer: bool) -> &'static GemmCounters {
    static REPLAY: OnceLock<GemmCounters> = OnceLock::new();
    static INTEGER: OnceLock<GemmCounters> = OnceLock::new();
    let (cell, label) = if integer {
        (&INTEGER, "integer")
    } else {
        (&REPLAY, "replay")
    };
    cell.get_or_init(|| GemmCounters {
        gemms: Registry::global().counter(
            "fast_qgemm_gemms_total",
            "GEMMs executed through the qgemm plan, by the kernel that ran (integer, or replay = dense)",
            &[("mode", label)],
        ),
        macs: Registry::global().counter(
            "fast_qgemm_macs_total",
            "multiply-accumulates executed through the qgemm plan (m*k*n per GEMM), by the kernel that ran",
            &[("mode", label)],
        ),
    })
}

/// Bumps the GEMM and MAC counters of the kernel that ran one plan
/// execution.
pub(crate) fn note_gemm(integer: bool, macs: u64) {
    let c = gemm_counters(integer);
    c.gemms.inc();
    c.macs.add(macs);
}

fn operand_elements(repr: usize) -> &'static Counter {
    static REPRS: [(OnceLock<Counter>, &str); 3] = [
        (OnceLock::new(), "borrowed"),
        (OnceLock::new(), "dense"),
        (OnceLock::new(), "packed"),
    ];
    let (cell, label) = &REPRS[repr];
    cell.get_or_init(|| {
        Registry::global().counter(
            "fast_quant_operand_elements_total",
            "matrix elements prepared as GEMM operands, by representation",
            &[("repr", label)],
        )
    })
}

/// Records one prepared operand's shape under its representation
/// (`borrowed` FP32, `dense` quantized copy, `packed` BFP mantissas).
pub(crate) fn note_operand(op: &GemmOperand<'_>) {
    let repr = match op {
        GemmOperand::Borrowed(_) => 0,
        GemmOperand::Own(p) => match p {
            Prepared::Dense(_) => 1,
            Prepared::Packed(_) => 2,
        },
        GemmOperand::Cached(p) => match p {
            Prepared::Dense(_) => 1,
            Prepared::Packed(_) => 2,
        },
    };
    let (rows, cols) = op.operand().dims();
    operand_elements(repr).add((rows * cols) as u64);
}

struct TrainMetrics {
    steps: Counter,
    loss: Gauge,
    iteration: Gauge,
    sr_draws: Gauge,
}

fn train_metrics() -> &'static TrainMetrics {
    static CELL: OnceLock<TrainMetrics> = OnceLock::new();
    CELL.get_or_init(|| {
        let r = Registry::global();
        TrainMetrics {
            steps: r.counter("fast_train_steps_total", "optimizer steps completed", &[]),
            loss: r.gauge("fast_train_loss", "loss of the most recent training step", &[]),
            iteration: r.gauge(
                "fast_train_iteration",
                "iteration counter of the trainer after the most recent step",
                &[],
            ),
            sr_draws: r.gauge(
                "fast_train_sr_draws",
                "cumulative stochastic-rounding noise draws consumed by the session (counter mode reserves one per element)",
                &[],
            ),
        }
    })
}

/// Publishes per-step training telemetry after one optimizer step.
pub(crate) fn note_train_step(loss: f64, iter: u64, sr_draws: u64) {
    let m = train_metrics();
    m.steps.inc();
    m.loss.set(loss);
    m.iteration.set(iter as f64);
    m.sr_draws.set(sr_draws as f64);
}
