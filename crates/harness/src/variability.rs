//! The numerical-variability sweep behind `BENCH_variability.json`
//! (ROADMAP item 5; the paper's Fig 17/19 story at repo scale).
//!
//! For each `(workload, seed)` the sweep trains an FP32 baseline, then
//! re-trains the *same* model on the *same* batches under each numeric
//! format and distils the pair of runs into four divergence metrics:
//!
//! * `loss_divergence` — mean absolute gap between the run's loss curve
//!   and the same-seed FP32 curve (how far the trajectory drifts);
//! * `weight_l2` / `weight_ulp_mean` — L2 and mean-ULP distance between
//!   the final weights and the baseline's (where the run *lands*);
//! * `steps_to_target` — first step whose held-out accuracy reaches the
//!   workload's target (time-to-accuracy, the paper's headline axis;
//!   `-1` when the budget never reaches it).
//!
//! Every run pins `ExecMode::Replay`, so the records are a pure function
//! of the sweep definition — independent of worker count and the
//! `FAST_QGEMM_MODE` environment — and `BENCH_variability.json`
//! regenerates bit-for-bit. The quick sweep is a
//! strict subset of the full one (same step counts, fewer cells), which is
//! what lets CI compare its records against the committed file exactly.

use crate::workloads::Workload;
use fast_bfp::{BfpFormat, Rounding};
use fast_nn::{
    set_uniform_precision, ExecMode, Layer, LayerPrecision, NoopHook, NumericFormat, Sgd, Trainer,
};
use fast_telemetry::json::Json;

/// The 10-format zoo shared with `tests/checkpoint.rs` and the quantized
/// GEMM plan pins: FP32 borrow-through, scalar formats, packable BFP
/// across rounding modes/windows, and wide-mantissa fallbacks.
pub fn zoo_format(idx: usize) -> NumericFormat {
    match idx % 10 {
        0 => NumericFormat::Fp32,
        1 => NumericFormat::bf16(),
        2 => NumericFormat::int8(),
        3 => NumericFormat::bfp_nearest(BfpFormat::low()),
        4 => NumericFormat::bfp_nearest(BfpFormat::high()),
        5 => NumericFormat::bfp_stochastic(BfpFormat::high()),
        6 => NumericFormat::Bfp {
            format: BfpFormat::new(16, 3, 3).unwrap(),
            rounding: Rounding::Stochastic { noise_bits: 5 },
            windowed: true,
        },
        7 => NumericFormat::Bfp {
            format: BfpFormat::new(8, 7, 8).unwrap(),
            rounding: Rounding::Truncate,
            windowed: false,
        },
        8 => NumericFormat::bfp_nearest(BfpFormat::new(16, 12, 8).unwrap()),
        _ => NumericFormat::Bfp {
            format: BfpFormat::msfp12(),
            rounding: Rounding::Nearest,
            windowed: true,
        },
    }
}

/// One workload's slice of the sweep.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    /// The workload to train.
    pub workload: Workload,
    /// Fixed training budget (identical across formats and sweeps).
    pub train_steps: usize,
    /// Held-out accuracy is evaluated every this many steps.
    pub eval_every: usize,
    /// Accuracy (%) that stops the `steps_to_target` clock.
    pub target_accuracy: f64,
    /// Indices into [`zoo_format`] to sweep.
    pub formats: Vec<usize>,
}

/// A full sweep definition: seeds × per-workload plans.
#[derive(Debug, Clone)]
pub struct VariabilitySweep {
    /// Whether this is the CI quick subset.
    pub quick: bool,
    /// Initialization/data seeds swept per plan.
    pub seeds: Vec<u64>,
    /// The workload plans.
    pub plans: Vec<WorkloadPlan>,
}

impl VariabilitySweep {
    /// The committed-record sweep: 3 seeds × the full 10-format zoo on the
    /// MLP and a 6-format subset on ResNet-lite.
    pub fn full() -> Self {
        VariabilitySweep {
            quick: false,
            seeds: vec![1, 2, 3],
            plans: vec![
                WorkloadPlan {
                    workload: Workload::Mlp,
                    train_steps: 24,
                    eval_every: 4,
                    target_accuracy: 90.0,
                    formats: (0..10).collect(),
                },
                WorkloadPlan {
                    workload: Workload::ResNetLite,
                    train_steps: 8,
                    eval_every: 4,
                    target_accuracy: 40.0,
                    formats: vec![0, 3, 4, 5, 6, 9],
                },
            ],
        }
    }

    /// The CI subset: one seed, three formats on the MLP, two on
    /// ResNet-lite — every record also exists (bit-identically) in
    /// [`VariabilitySweep::full`].
    pub fn quick() -> Self {
        let full = VariabilitySweep::full();
        VariabilitySweep {
            quick: true,
            seeds: vec![1],
            plans: vec![
                WorkloadPlan {
                    formats: vec![0, 4, 5],
                    ..full.plans[0].clone()
                },
                WorkloadPlan {
                    formats: vec![0, 5],
                    ..full.plans[1].clone()
                },
            ],
        }
    }
}

/// One `(workload, seed, format)` cell's metrics.
#[derive(Debug, Clone)]
pub struct VariabilityRecord {
    /// Workload name.
    pub workload: &'static str,
    /// Model-init/data seed.
    pub seed: u64,
    /// Index into [`zoo_format`].
    pub format_idx: usize,
    /// Human-readable format name.
    pub format: String,
    /// Loss of the final training step.
    pub final_loss: f64,
    /// Mean absolute loss gap to the same-seed FP32 baseline curve.
    pub loss_divergence: f64,
    /// L2 distance between final weights and the baseline's.
    pub weight_l2: f64,
    /// Mean ULP distance between final weights and the baseline's.
    pub weight_ulp_mean: f64,
    /// First step reaching the accuracy target (`-1` = never in budget).
    pub steps_to_target: i64,
}

struct RunOutcome {
    losses: Vec<f64>,
    weights: Vec<f32>,
    steps_to_target: i64,
}

fn run_one(plan: &WorkloadPlan, seed: u64, format_idx: usize) -> RunOutcome {
    let w = plan.workload;
    let mut trainer = Trainer::new(w.build(seed), Sgd::new(0.05, 0.9, 0.0), seed);
    set_uniform_precision(
        &mut trainer.model,
        LayerPrecision::uniform(zoo_format(format_idx)),
    );
    // Pin the exec mode so records regenerate identically under the CI env
    // leg (FAST_QGEMM_MODE would otherwise move the session default).
    trainer.session.exec_mode = ExecMode::Replay;
    let stream = w.training_stream(plan.train_steps);
    let eval = w.eval_batches();
    let mut losses = Vec::with_capacity(plan.train_steps);
    let mut steps_to_target = -1i64;
    for (i, batch) in stream.iter().enumerate() {
        losses.push(w.step(&mut trainer, batch, &mut NoopHook).loss);
        if steps_to_target < 0 && (i + 1) % plan.eval_every == 0 {
            let acc = trainer.evaluate_classification(&eval);
            if acc >= plan.target_accuracy {
                steps_to_target = (i + 1) as i64;
            }
        }
    }
    let mut weights = Vec::new();
    trainer
        .model
        .visit_params(&mut |p| weights.extend_from_slice(p.value.data()));
    RunOutcome {
        losses,
        weights,
        steps_to_target,
    }
}

/// Monotone integer key over f32 bit patterns: adjacent representable
/// floats map to adjacent keys, so `|key(a) - key(b)|` is the ULP distance.
fn ulp_key(v: f32) -> i64 {
    let bits = v.to_bits();
    if bits & 0x8000_0000 != 0 {
        -((bits & 0x7FFF_FFFF) as i64)
    } else {
        bits as i64
    }
}

fn distill(
    plan: &WorkloadPlan,
    seed: u64,
    format_idx: usize,
    run: &RunOutcome,
    base: &RunOutcome,
) -> VariabilityRecord {
    assert_eq!(run.losses.len(), base.losses.len());
    assert_eq!(run.weights.len(), base.weights.len());
    let loss_divergence = run
        .losses
        .iter()
        .zip(&base.losses)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / run.losses.len() as f64;
    let weight_l2 = run
        .weights
        .iter()
        .zip(&base.weights)
        .map(|(a, b)| ((a - b) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let weight_ulp_mean = run
        .weights
        .iter()
        .zip(&base.weights)
        .map(|(a, b)| (ulp_key(*a) - ulp_key(*b)).unsigned_abs() as f64)
        .sum::<f64>()
        / run.weights.len() as f64;
    VariabilityRecord {
        workload: plan.workload.name(),
        seed,
        format_idx,
        format: zoo_format(format_idx).name(),
        final_loss: *run.losses.last().expect("non-empty run"),
        loss_divergence,
        weight_l2,
        weight_ulp_mean,
        steps_to_target: run.steps_to_target,
    }
}

/// Runs the sweep and returns one record per `(workload, seed, format)`
/// cell.
pub fn run_variability(sweep: &VariabilitySweep) -> Vec<VariabilityRecord> {
    let mut records = Vec::new();
    for plan in &sweep.plans {
        for &seed in &sweep.seeds {
            let base = run_one(plan, seed, 0);
            for &format_idx in &plan.formats {
                // The baseline cell compares against itself.
                let run = (format_idx != 0).then(|| run_one(plan, seed, format_idx));
                records.push(distill(
                    plan,
                    seed,
                    format_idx,
                    run.as_ref().unwrap_or(&base),
                    &base,
                ));
            }
        }
    }
    records
}

/// The metric fields compared by [`compare_records`].
const METRICS: [&str; 5] = [
    "final_loss",
    "loss_divergence",
    "weight_l2",
    "weight_ulp_mean",
    "steps_to_target",
];

/// Serializes a sweep's records into the committed-file document.
pub fn render_report(sweep: &VariabilitySweep, records: &[VariabilityRecord]) -> String {
    let plans = sweep
        .plans
        .iter()
        .map(|p| {
            (
                p.workload.name().to_string(),
                Json::Obj(vec![
                    ("train_steps".into(), Json::Num(p.train_steps as f64)),
                    ("eval_every".into(), Json::Num(p.eval_every as f64)),
                    ("target_accuracy".into(), Json::Num(p.target_accuracy)),
                    (
                        "formats".into(),
                        Json::Arr(p.formats.iter().map(|&i| Json::Num(i as f64)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let records = records
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("workload".into(), Json::Str(r.workload.into())),
                ("seed".into(), Json::Num(r.seed as f64)),
                ("format_idx".into(), Json::Num(r.format_idx as f64)),
                ("format".into(), Json::Str(r.format.clone())),
                ("final_loss".into(), Json::num(r.final_loss)),
                ("loss_divergence".into(), Json::num(r.loss_divergence)),
                ("weight_l2".into(), Json::num(r.weight_l2)),
                ("weight_ulp_mean".into(), Json::num(r.weight_ulp_mean)),
                (
                    "steps_to_target".into(),
                    Json::Num(r.steps_to_target as f64),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("fast-variability/v1".into())),
        ("quick".into(), Json::Bool(sweep.quick)),
        (
            "regenerate".into(),
            Json::Str(
                "cargo run --release -p fast_harness --bin variability_bench -- --out BENCH_variability.json"
                    .into(),
            ),
        ),
        (
            "seeds".into(),
            Json::Arr(sweep.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("workloads".into(), Json::Obj(plans)),
        ("records".into(), Json::Arr(records)),
    ])
    .render()
}

fn record_key(r: &Json) -> Option<String> {
    Some(format!(
        "{}/seed{}/format{}",
        r.get("workload")?.as_str()?,
        r.get("seed")?.as_f64()?,
        r.get("format_idx")?.as_f64()?,
    ))
}

/// Compares every record of `current` against the record with the same
/// `(workload, seed, format)` key in `baseline`; all metrics must
/// be bit-identical (the sweep is deterministic, so any gap is real drift).
///
/// Returns the number of matched records.
///
/// # Errors
///
/// One message per missing counterpart or diverging metric.
pub fn compare_records(current: &Json, baseline: &Json) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let empty = Vec::new();
    let base_records = baseline
        .get("records")
        .and_then(|r| r.as_arr())
        .unwrap_or(&empty);
    let cur_records = current
        .get("records")
        .and_then(|r| r.as_arr())
        .unwrap_or(&empty);
    if cur_records.is_empty() {
        errors.push("current run produced no records".into());
    }
    let mut matched = 0usize;
    for rec in cur_records {
        let Some(key) = record_key(rec) else {
            errors.push(format!("malformed current record: {rec:?}"));
            continue;
        };
        let Some(base) = base_records
            .iter()
            .find(|b| record_key(b).as_deref() == Some(key.as_str()))
        else {
            errors.push(format!("{key}: no committed baseline record"));
            continue;
        };
        let mut ok = true;
        for metric in METRICS {
            let (a, b) = (rec.get(metric), base.get(metric));
            match (a, b) {
                (Some(a), Some(b)) if a.bit_eq(b) => {}
                _ => {
                    errors.push(format!(
                        "{key}: {metric} drifted (committed {b:?}, got {a:?})"
                    ));
                    ok = false;
                }
            }
        }
        if ok {
            matched += 1;
        }
    }
    if errors.is_empty() {
        Ok(matched)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_a_subset_of_full() {
        let quick = VariabilitySweep::quick();
        let full = VariabilitySweep::full();
        for seed in &quick.seeds {
            assert!(full.seeds.contains(seed));
        }
        for (q, f) in quick.plans.iter().zip(&full.plans) {
            assert_eq!(q.workload, f.workload);
            assert_eq!(q.train_steps, f.train_steps, "budgets must match");
            assert_eq!(q.eval_every, f.eval_every);
            assert_eq!(q.target_accuracy, f.target_accuracy);
            for fmt in &q.formats {
                assert!(f.formats.contains(fmt), "quick format {fmt} not in full");
            }
        }
    }

    #[test]
    fn records_are_deterministic_and_self_consistent() {
        let sweep = VariabilitySweep {
            quick: true,
            seeds: vec![1],
            plans: vec![WorkloadPlan {
                workload: Workload::Mlp,
                train_steps: 6,
                eval_every: 3,
                target_accuracy: 50.0,
                formats: vec![0, 5],
            }],
        };
        let a = run_variability(&sweep);
        let b = run_variability(&sweep);
        assert_eq!(a.len(), 2, "one record per format");
        let doc_a = Json::parse(&render_report(&sweep, &a)).unwrap();
        let doc_b = Json::parse(&render_report(&sweep, &b)).unwrap();
        assert!(doc_a.bit_eq(&doc_b), "sweep must be bit-reproducible");
        assert_eq!(compare_records(&doc_a, &doc_b), Ok(2));
        // The baseline cell compares against itself: all-zero divergence.
        let base = &a[0];
        assert_eq!(base.format_idx, 0);
        assert_eq!(base.loss_divergence, 0.0);
        assert_eq!(base.weight_l2, 0.0);
        assert_eq!(a[1].format_idx, 5);
        assert!(a[1].weight_l2 > 0.0, "quantized run must differ from fp32");
    }

    #[test]
    fn drifted_metrics_are_reported() {
        let sweep = VariabilitySweep {
            quick: true,
            seeds: vec![1],
            plans: vec![WorkloadPlan {
                workload: Workload::Mlp,
                train_steps: 3,
                eval_every: 3,
                target_accuracy: 50.0,
                formats: vec![0],
            }],
        };
        let records = run_variability(&sweep);
        let good = Json::parse(&render_report(&sweep, &records)).unwrap();
        let mut bad = records;
        bad[0].final_loss += 1.0;
        let bad = Json::parse(&render_report(&sweep, &bad)).unwrap();
        let errors = compare_records(&bad, &good).unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("final_loss"), "{errors:?}");
    }
}
