//! One workload run: set up, measure, check the outputs, and name the
//! numbers. `--trace 0` gives the end-to-end metrics, `--trace 1` the
//! per-layer ones.

use crate::host;
use crate::layers::{self, Delta, Layers};
use crate::metrics::Values;
use crate::phases::{self, Budget};
use crate::spans::Tracer;
use crate::stats::{self, summarize, Unit};
use crate::workloads::{self, setup, Phase, Rig, Spec, TrainRig};
use fast_telemetry::Snapshot;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` a traced run gives to its untraced and to its traced
/// phase each; the rest is set-up, direct inference and the probe.
const TRACE_PHASE_SHARE: f64 = 0.35;
/// Share of `--seconds` each direct-inference timing lasts.
const DIRECT_INFER_SHARE: f64 = 0.04;
/// Share of `--seconds` the open-loop probe lasts.
const PROBE_SHARE: f64 = 0.15;
/// Least share of full batches the saturated workload must show, or its unit
/// is not the one it is named for. Quiet runs on the 2-vCPU reference box read
/// 0.9993-0.9997; a noisy spell that held the generator off its core read
/// 0.985-0.990, and machine noise must not fail an output check, so the line
/// is drawn below that. The share itself is `serve.full_batch_share`.
const MIN_FULL_BATCH_SHARE: f64 = 0.95;

/// One named pass/fail output check.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// What one workload run reports.
pub struct Outcome {
    pub metrics: Values,
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    /// Unit counts per phase, for the context line.
    pub units: Vec<(&'static str, usize)>,
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Every loss of the run is finite, and where training is the measured phase
/// the run learned something: the last tenth of its steps has a lower mean
/// loss than the first twenty steps of its set-up. (The ten noisy set-up
/// steps of a serve workload promise no such thing.)
fn loss_checks(spec: &Spec, losses: &[f64]) -> Vec<Check> {
    let bad = losses.iter().filter(|l| !l.is_finite()).count();
    let mut checks = vec![check(
        "losses_finite",
        bad == 0,
        format!("{bad} of {} not finite", losses.len()),
    )];
    if spec.phase == Phase::Train {
        let head = mean(&losses[..losses.len().min(20)]);
        let tail = mean(&losses[losses.len() - (losses.len() / 10).max(1)..]);
        checks.push(check(
            "loss_decreased",
            tail < head,
            format!("first {head:.4} last {tail:.4}"),
        ));
    }
    checks
}

/// The registries a phase is read from: the global one, joined by the
/// server's own when there is a server.
fn snapshot(rig: &Rig) -> Snapshot {
    match rig {
        Rig::Serve(r) => r.server.metrics_snapshot(),
        Rig::Train(_) => fast_telemetry::Registry::global().snapshot(),
    }
}

/// One measured phase: its units, its operations, what the program's
/// registries recorded during it, and the output checks it could make.
struct Measured {
    units: Vec<Unit>,
    attempted: usize,
    failed: usize,
    delta: Delta,
    checks: Vec<Check>,
}

fn measure(rig: &mut Rig, spec: &Spec, budget: Budget, tracer: Option<&mut Tracer>) -> Measured {
    let before = snapshot(rig);
    match (rig, spec.phase) {
        (Rig::Train(rig), _) => {
            let units = phases::train_phase(rig, budget, tracer);
            let after = fast_telemetry::Registry::global().snapshot();
            let measured = &rig.losses[rig.losses.len() - units.len()..];
            Measured {
                attempted: units.len(),
                failed: measured.iter().filter(|l| !l.is_finite()).count(),
                units,
                delta: Delta { before, after },
                checks: Vec::new(),
            }
        }
        (Rig::Serve(rig), Phase::Serve { in_flight }) => {
            let (matches, full) = match tracer {
                Some(_) => (
                    "traced_responses_match_reference",
                    "traced_full_batch_share",
                ),
                None => ("responses_match_reference", "full_batch_share"),
            };
            let served = phases::serve_phase(rig, budget, in_flight, tracer);
            // Snapshot first: the reference replica's forwards below must
            // stay out of the phase's kernel counts.
            let delta = Delta {
                before,
                after: rig.server.metrics_snapshot(),
            };
            let wrong = phases::mismatches(rig, &served.sampled);
            let mut checks = vec![check(
                matches,
                wrong == 0,
                format!(
                    "{wrong} of {} sampled responses differ",
                    served.sampled.len()
                ),
            )];
            if in_flight > rig.max_batch {
                let share = layers::full_batch_share(&delta, rig.max_batch);
                checks.push(check(
                    full,
                    share >= MIN_FULL_BATCH_SHARE,
                    format!("{share:.4}"),
                ));
            }
            Measured {
                units: served.units,
                attempted: served.attempted,
                failed: served.failed,
                delta,
                checks,
            }
        }
        (Rig::Serve(_), Phase::Train) => unreachable!("a train workload sets up a train rig"),
    }
}

fn work_per_unit(spec: &Spec) -> f64 {
    match spec.phase {
        Phase::Train => spec.batch as f64,
        Phase::Serve { .. } => 1.0,
    }
}

fn training_of(rig: &Rig) -> &TrainRig {
    match rig {
        Rig::Train(t) => t,
        Rig::Serve(s) => &s.trained,
    }
}

/// `--trace 0`: set up, measure for `seconds` with collection off, report the
/// end-to-end metrics. Peak RSS is read when the measured phase ends, so it is
/// that of a process that set up once; the further set-ups whose median makes
/// `setup_s` steady run after it (set up before it, they left the heap in a
/// state that depended on thread timing, and peak RSS read two values 7 %
/// apart).
pub fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let timed_setup = || {
        let t = Instant::now();
        let rig = setup(spec, seed, &mut Tracer::new(), false);
        (rig, t.elapsed().as_secs_f64())
    };
    let (mut rig, first) = timed_setup();
    let mut setup_s = vec![first];
    let m = measure(&mut rig, spec, Budget::Seconds(seconds), None);
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let s = summarize(&m.units, work_per_unit(spec));
    let mut checks = m.checks;
    checks.extend(loss_checks(spec, &training_of(&rig).losses));
    drop(rig);
    while setup_s.len() < SETUP_REPEATS {
        setup_s.push(timed_setup().1);
    }
    Outcome {
        metrics: vec![
            ("setup_s", stats::median(&setup_s)),
            ("unit_ms.p50", s.p50_ms),
            ("unit_ms.p95", s.p95_ms),
            ("throughput_per_s", s.throughput_per_s),
            ("peak_rss_mb", peak_rss_mb),
        ],
        attempted: m.attempted,
        failed: m.failed,
        checks,
        units: vec![
            ("setup_steps", spec.setup_steps),
            ("measured", s.n),
            ("quiet", s.quiet_n),
        ],
    }
}

fn bit_identical(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `--trace 1`: an untraced phase, then a traced phase of the same units on
/// the same inputs with the program's collector on; per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut calib = host::Calib::new();
    let mut layers = Layers::default();
    let mut tracer = Tracer::new();
    calib.sample();

    // A serve workload's training happens in set-up; trace it there.
    let serving = spec.phase != Phase::Train;
    let mut rig = setup(spec, seed, &mut tracer, serving);
    layers.add_setup(&tracer);
    calib.sample();
    let plain = measure(
        &mut rig,
        spec,
        Budget::Seconds(seconds * TRACE_PHASE_SHARE),
        None,
    );
    let plain_summary = summarize(&plain.units, work_per_unit(spec));
    calib.sample();

    // Training mutates the model, so the traced phase replays the same steps
    // on a second rig built from the same seed; a server is stateless across
    // requests and is reused.
    let plain_losses = training_of(&rig).losses.clone();
    if !serving {
        rig = setup(spec, seed, &mut Tracer::new(), false);
    }
    let sr_before = training_of(&rig).trainer.session.sr_state().1;
    fast_telemetry::set_collection(true);
    let traced = measure(
        &mut rig,
        spec,
        Budget::Units(plain_summary.n),
        Some(&mut tracer),
    );
    fast_telemetry::set_collection(false);
    calib.sample();
    let traced_summary = summarize(&traced.units, work_per_unit(spec));
    let sr_draws = training_of(&rig).trainer.session.sr_state().1 - sr_before;

    let mut attempted = plain.attempted + traced.attempted;
    let mut failed = plain.failed + traced.failed;
    let mut checks = plain.checks;
    checks.extend(traced.checks);
    let trained = training_of(&rig);
    checks.extend(loss_checks(spec, &trained.losses));
    layers.add_train_spans(&tracer);
    layers.add_training_run(&trained.losses, spec.loss_target, &trained.mantissas);
    let unattributed = layers.get("nn.step_unattributed_pct");
    checks.push(check(
        "step_unattributed_pct",
        unattributed <= 5.0,
        format!("{unattributed:.3} %"),
    ));
    layers.add_kernels(&traced.delta, traced_summary.n, sr_draws);
    layers.set(
        "telemetry.trace_overhead_pct",
        100.0 * (traced_summary.p50_ms / plain_summary.p50_ms - 1.0),
    );
    let mut units = vec![
        ("setup_steps", spec.setup_steps),
        ("untraced", plain_summary.n),
        ("traced", traced_summary.n),
    ];

    match &mut rig {
        Rig::Train(t) => checks.push(check(
            "traced_losses_bit_identical",
            bit_identical(&plain_losses, &t.losses),
            format!("{} steps", t.losses.len()),
        )),
        Rig::Serve(r) => {
            let unit_ms: Vec<f64> = traced.units.iter().map(|u| u.dur_ns as f64 / 1e6).collect();
            let unit_mean_ms = mean(&unit_ms);
            layers.add_server(&traced.delta, unit_mean_ms, r.max_batch);
            let overhead = layers.get("serve.dispatch_overhead_ms.mean");
            checks.push(check(
                "request_time_reconciles",
                overhead.abs() <= 0.10 * unit_mean_ms,
                format!("mean {unit_mean_ms:.4} ms, outside queue and service {overhead:.4} ms"),
            ));
            layers.set("ckpt.artifact_kb", r.artifact_bytes as f64 / 1024.0);
            let direct_s = seconds * DIRECT_INFER_SHARE;
            layers.set(
                "serve.direct_infer_b1_ms.p50",
                stats::percentile_or_zero(&phases::direct_infer(r, 1, direct_s), 0.50),
            );
            layers.set(
                "serve.direct_infer_b8_ms.p50",
                stats::percentile_or_zero(&phases::direct_infer(r, r.max_batch, direct_s), 0.50),
            );
            calib.sample();
            if matches!(spec.phase, Phase::Serve { in_flight } if in_flight > r.max_batch) {
                // Half the capacity this run itself measured, so the probe
                // sits at the same utilisation on a faster or slower machine.
                let schedule = phases::arrival_schedule(
                    workloads::sub_seed(seed, workloads::STREAM_PROBE),
                    plain_summary.throughput_per_s / 2.0,
                    seconds * PROBE_SHARE,
                );
                let probe = phases::open_loop_probe(r, &schedule);
                attempted += probe.attempted;
                failed += probe.failed;
                layers.set(
                    "serve.open_half_cap.p50_ms",
                    stats::percentile_or_zero(&probe.latency_ms, 0.50),
                );
                layers.set(
                    "serve.open_half_cap.p95_ms",
                    stats::percentile_or_zero(&probe.latency_ms, 0.95),
                );
                layers.set("serve.open_gen_late_ms.max", probe.gen_late_ms_max);
                units.push(("probe", probe.attempted));
                calib.sample();
            }
        }
    }
    layers.set("host.unit_ms_p95_all", plain_summary.p95_all_ms);
    layers.set("host.calib_ms", stats::median(&calib.samples_ms));

    let path = format!("{}/trace_{}.json", crate::report::OUT_DIR, spec.name);
    let written = std::fs::create_dir_all(crate::report::OUT_DIR)
        .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name, seed)));
    checks.push(check("trace_file_written", written.is_ok(), path));
    Outcome {
        metrics: layers.finish(),
        attempted,
        failed,
        checks,
        units,
    }
}
