//! The measured phases: training steps, closed-loop serving, direct
//! inference on the caller's thread, and the open-loop probe.
//!
//! No measured path sleeps: closed loops block on the response channel, and
//! the open-loop generator spins to its next scheduled arrival.

use crate::spans::Tracer;
use crate::stats::Unit;
use crate::workloads::{ServeRig, TrainRig};
use fast_serve::Pending;
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long a phase runs: for a wall-clock time (the unit that starts before
/// the deadline is the last), or for an exact number of units.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Units(usize),
}

impl Budget {
    fn spent(&self, started: Instant, units: usize) -> bool {
        match *self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Units(n) => units >= n,
        }
    }
}

/// Room reserved in a unit log before the clock starts, so that no measured
/// unit pays for the log growing (untouched capacity is not resident).
const UNIT_LOG_CAPACITY: usize = 1 << 20;

fn ns_since(t: Instant, origin: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Runs training steps back to back, traced if a tracer is given.
pub fn train_phase(
    rig: &mut TrainRig,
    budget: Budget,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Unit> {
    let mut units = Vec::with_capacity(UNIT_LOG_CAPACITY);
    let started = Instant::now();
    while !budget.spent(started, units.len()) {
        let t0 = Instant::now();
        match tracer.as_deref_mut() {
            Some(t) => rig.step_traced(t, None),
            None => rig.step(),
        }
        let t1 = Instant::now();
        units.push(Unit {
            end_ns: ns_since(t1, started),
            dur_ns: ns_since(t1, t0),
        });
    }
    units
}

/// What a serving phase did.
pub struct Served {
    /// One per request answered, in completion order: submit call to the
    /// worker-stamped `finished_at`.
    pub units: Vec<Unit>,
    /// Requests submitted.
    pub attempted: usize,
    /// Requests that came back as a `ServeError` or with the wrong shape.
    pub failed: usize,
    /// Every hundredth response with the index of its request, to be checked
    /// bit for bit against the reference replica once the clock has stopped.
    pub sampled: Vec<(usize, Tensor)>,
}

/// Serves requests in a closed loop with `in_flight` always outstanding: the
/// one generator thread waits for the oldest response and submits one more.
/// Requests are drawn by cycling the held-out samples from the first, so two
/// phases of equal length send the same inputs.
pub fn serve_phase(
    rig: &mut ServeRig,
    budget: Budget,
    in_flight: usize,
    mut tracer: Option<&mut Tracer>,
) -> Served {
    struct InFlight {
        index: usize,
        submitted: Instant,
        pending: Pending,
        span: Option<u32>,
    }
    let mut served = Served {
        units: Vec::with_capacity(UNIT_LOG_CAPACITY),
        attempted: 0,
        failed: 0,
        sampled: Vec::new(),
    };
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(in_flight);
    let started = Instant::now();
    loop {
        while queue.len() < in_flight && !budget.spent(started, served.attempted) {
            let index = served.attempted;
            let input = rig.requests[index % rig.requests.len()].clone();
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("serve.request", None, index as u32));
            let submitted = Instant::now();
            let pending = match tracer.as_deref_mut() {
                Some(t) => t.within("serve.submit", span, index as u32, || {
                    rig.server.submit(input)
                }),
                None => rig.server.submit(input),
            };
            served.attempted += 1;
            queue.push_back(InFlight {
                index,
                submitted,
                pending,
                span,
            });
        }
        let Some(oldest) = queue.pop_front() else {
            break;
        };
        let outcome = match tracer.as_deref_mut() {
            Some(t) => t.within("serve.await", oldest.span, oldest.index as u32, || {
                oldest.pending.outcome()
            }),
            None => oldest.pending.outcome(),
        };
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), oldest.span) {
            t.end(span);
        }
        match outcome.result {
            Ok(out) if out.shape() == rig.out_shape => {
                served.units.push(Unit {
                    end_ns: ns_since(outcome.finished_at, started),
                    dur_ns: ns_since(outcome.finished_at, oldest.submitted),
                });
                if oldest.index % 100 == 0 {
                    served.sampled.push((oldest.index, out));
                }
            }
            _ => served.failed += 1,
        }
    }
    served
}

/// Checks the sampled responses bit for bit against the reference replica;
/// returns how many differ.
pub fn mismatches(rig: &mut ServeRig, sampled: &[(usize, Tensor)]) -> usize {
    sampled
        .iter()
        .filter(|(index, got)| {
            let want = rig
                .reference
                .infer(&rig.requests[index % rig.requests.len()]);
            want.shape() != got.shape()
                || want
                    .data()
                    .iter()
                    .zip(got.data())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
        })
        .count()
}

/// Times `CompiledModel::infer` on the caller's thread at `batch` samples per
/// call for about `seconds`; returns the per-call times in ms.
pub fn direct_infer(rig: &mut ServeRig, batch: usize, seconds: f64) -> Vec<f64> {
    let sample_shape = &rig.requests[0].shape()[1..];
    let mut shape = vec![batch];
    shape.extend_from_slice(sample_shape);
    let inputs: Vec<Tensor> = rig
        .requests
        .chunks_exact(batch)
        .take(32)
        .map(|chunk| {
            let data = chunk
                .iter()
                .flat_map(|t| t.data().iter().copied())
                .collect();
            Tensor::from_vec(shape.clone(), data)
        })
        .collect();
    let mut times = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let input = &inputs[times.len() % inputs.len()];
        let t0 = Instant::now();
        black_box(rig.reference.infer(black_box(input)));
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times
}

/// Scheduled arrival offsets (seconds from the probe's start) of a Poisson
/// stream at `rate` per second lasting `seconds`: a pure function of the
/// seed.
pub fn arrival_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        at += -u.ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push(at);
    }
}

/// What the open-loop probe saw.
pub struct Probe {
    /// Scheduled arrival to worker-stamped completion, ms, one per request.
    pub latency_ms: Vec<f64>,
    /// How far behind its schedule the generator submitted, ms, worst case.
    pub gen_late_ms_max: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Sends requests at the scheduled arrivals regardless of completions. Each
/// is timed from when it was due, so a stall is charged to every request
/// behind it. The generator spins between arrivals.
pub fn open_loop_probe(rig: &mut ServeRig, schedule: &[f64]) -> Probe {
    let mut pending: Vec<(Instant, Pending)> = Vec::with_capacity(schedule.len());
    let mut gen_late_ms_max = 0.0f64;
    let started = Instant::now();
    for (i, &at) in schedule.iter().enumerate() {
        let due = started + Duration::from_secs_f64(at);
        let input = rig.requests[i % rig.requests.len()].clone();
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let late = due.elapsed().as_secs_f64() * 1e3;
        gen_late_ms_max = gen_late_ms_max.max(late);
        pending.push((due, rig.server.submit(input)));
    }
    let mut probe = Probe {
        latency_ms: Vec::with_capacity(pending.len()),
        gen_late_ms_max,
        attempted: pending.len(),
        failed: 0,
    };
    for (due, p) in pending {
        let outcome = p.outcome();
        match outcome.result {
            Ok(_) => probe
                .latency_ms
                .push(ns_since(outcome.finished_at, due) as f64 / 1e6),
            Err(_) => probe.failed += 1,
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_arrival_schedule_is_a_pure_function_of_the_seed() {
        let a = arrival_schedule(42, 2000.0, 0.5);
        assert_eq!(a, arrival_schedule(42, 2000.0, 0.5));
        assert_ne!(a, arrival_schedule(43, 2000.0, 0.5));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are ordered");
        assert!(a.iter().all(|&t| t > 0.0 && t < 0.5));
        // About rate x seconds arrivals: 1000, within five standard deviations.
        assert!(
            (a.len() as f64 - 1000.0).abs() < 5.0 * 1000f64.sqrt(),
            "{}",
            a.len()
        );
    }
}
