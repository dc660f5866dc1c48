//! Serving benchmark for the `fast_serve` inference engine.
//!
//! Three measurements, written to `BENCH_serve.json` (the serving companion
//! of `BENCH_quant_gemm.json`; experiment index in DESIGN.md §4):
//!
//! 1. **Single-stream**: batch-1 forward latency of the re-quantize-every-
//!    forward evaluation path vs the frozen [`CompiledModel`] path on the
//!    ResNet-lite, MLP and Transformer-lite workloads. The ratio is the
//!    payoff of freezing the weights (DESIGN.md §8).
//! 2. **Capacity probe**: a closed-loop load generator (C client threads in
//!    a submit→wait loop) against a [`Server`] with continuous batching;
//!    reports the saturated QPS, end-to-end/queue/service percentiles and
//!    the batch-size histogram. The saturated QPS anchors the sweep below.
//! 3. **Open-loop load sweep** (DESIGN.md §14): Poisson arrivals at fixed
//!    offered rates — fractions and multiples of the probed capacity —
//!    submitted from a generator thread that never waits for responses, so
//!    a slow server cannot slow the arrival process down (no coordinated
//!    omission; latency is measured from the *scheduled* arrival to the
//!    worker-stamped completion instant). Every request carries a deadline,
//!    so the overload points also measure goodput under load shedding.
//!
//! Usage:
//!
//! ```text
//! serve_bench [--quick] [--out PATH] [--metrics-out PATH]
//! ```
//!
//! `--quick` lowers request counts for CI smoke runs. `--metrics-out`
//! dumps the capacity probe's telemetry snapshot (per-model serving
//! series + process-global spans/counters, DESIGN.md §15) as JSON.
//!
//! The capacity probe repeats as adjacent (spans-off, spans-on) pairs;
//! the record carries best-of-leg QPS for both settings plus the median
//! per-pair overhead (`telemetry_overhead_serve_pct`), and the run fails
//! when that overhead is over the §15 budget.

use fast_nn::models::{mlp, resnet_lite, tiny_transformer, ResNetConfig, TransformerConfig};
use fast_nn::{set_uniform_precision, Layer, LayerPrecision, Sequential, Session};
use fast_serve::{BatchConfig, CompiledModel, Pending, Server};
use fast_telemetry::json::Json;
use fast_tensor::Tensor;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times two closures in alternating *blocks* (several rounds of `block`
/// iterations each, after a warm-up block) and returns the median
/// per-iteration wall time of each. Alternating blocks keeps clock drift
/// (frequency scaling, noisy neighbours) from biasing the a/b ratio the way
/// one long back-to-back pair would, while a whole block per switch still
/// lets each path run cache-hot, as it would in a real serving process.
fn time_pair_ns<F, G>(rounds: usize, block: usize, mut a: F, mut b: G) -> (f64, f64)
where
    F: FnMut(),
    G: FnMut(),
{
    for _ in 0..block {
        a();
        b();
    }
    let mut sa = Vec::with_capacity(rounds * block);
    let mut sb = Vec::with_capacity(rounds * block);
    for _ in 0..rounds {
        for _ in 0..block {
            let t = Instant::now();
            a();
            sa.push(t.elapsed().as_nanos() as f64);
        }
        for _ in 0..block {
            let t = Instant::now();
            b();
            sb.push(t.elapsed().as_nanos() as f64);
        }
    }
    let median = |s: &mut Vec<f64>| {
        s.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
        s[s.len() / 2]
    };
    (median(&mut sa), median(&mut sb))
}

/// One workload: a model builder (fresh, identically seeded model per call)
/// and a batch-1 sample input.
struct Workload {
    name: &'static str,
    build: Box<dyn Fn() -> Sequential>,
    sample: Tensor,
}

fn workloads() -> Vec<Workload> {
    let precision = LayerPrecision::bfp_fixed(4); // HighBFP, the paper default
    let with_precision = move |mut m: Sequential| {
        set_uniform_precision(&mut m, precision);
        m
    };
    vec![
        Workload {
            // ResNet-18-lite at serving width (stem 16 → 16/32/64-channel
            // stages): the deep stages are weight-dominated at batch 1,
            // which is exactly what frozen-weight serving amortizes.
            name: "resnet",
            build: Box::new(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(1);
                with_precision(resnet_lite(ResNetConfig::resnet18(16, 10), &mut rng))
            }),
            sample: Tensor::from_vec(
                vec![1, 3, 16, 16],
                (0..3 * 256).map(|i| (i as f32 * 0.021).sin()).collect(),
            ),
        },
        Workload {
            name: "mlp",
            build: Box::new(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(2);
                with_precision(mlp(&[64, 256, 256, 10], &mut rng))
            }),
            sample: Tensor::from_vec(
                vec![1, 64],
                (0..64).map(|i| (i as f32 * 0.13).cos()).collect(),
            ),
        },
        Workload {
            name: "transformer",
            build: Box::new(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(3);
                let cfg = TransformerConfig {
                    vocab: 12,
                    d_model: 32,
                    heads: 4,
                    ff_dim: 64,
                    layers: 2,
                    seq_len: 8,
                };
                with_precision(tiny_transformer(cfg, &mut rng))
            }),
            sample: Tensor::from_vec(vec![1, 8], (0..8).map(|i| (i % 12) as f32).collect()),
        },
    ]
}

/// A measurement rounded to the unit.
fn whole(x: f64) -> Json {
    Json::num(x.round())
}

/// A ratio or mean rounded to two decimals.
fn two_places(x: f64) -> Json {
    Json::num((x * 100.0).round() / 100.0)
}

fn percentile(sorted_ns: &[f64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    sorted_ns[((sorted_ns.len() - 1) as f64 * p) as usize]
}

/// Builds the serving fleet for the load sections: replicated compiled
/// models, warmed before the clock starts.
fn fleet(w: &Workload, replicas: usize) -> Vec<CompiledModel> {
    (0..replicas)
        .map(|_| {
            let mut c = CompiledModel::compile((w.build)(), 0);
            c.warm(&w.sample);
            c
        })
        .collect()
}

/// The per-sweep result of one offered-rate point.
struct SweepPoint {
    offered_qps: f64,
    duration_s: f64,
    submitted: usize,
    served: usize,
    shed: usize,
    missed: usize,
    goodput_qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_batch: f64,
}

/// One open-loop run: `n` Poisson arrivals at `rate` QPS against a fresh
/// server, every request carrying `deadline`.
///
/// The generator submits on an absolute exponential schedule — when it
/// falls behind (sleep granularity, a borrowed core) it catches up in a
/// burst rather than silently stretching the arrival process, and latency
/// is measured from the *scheduled* arrival to the worker-stamped
/// completion instant, so queueing delay the generator did not observe
/// still counts (no coordinated omission).
fn open_loop_run(
    w: &Workload,
    workers: usize,
    max_batch: usize,
    rate: f64,
    n: usize,
    deadline: Duration,
    seed: u64,
) -> SweepPoint {
    use fast_serve::{ServeError, ServeRequest};
    let server = Server::start(fleet(w, workers), BatchConfig::no_wait(max_batch));
    // Warm the admission estimator so the first overload arrivals are shed
    // rather than queued blind.
    for _ in 0..4 {
        black_box(server.infer(w.sample.clone()));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let mut pending: Vec<(Instant, Pending)> = Vec::with_capacity(n);
    let mut next = start;
    for _ in 0..n {
        // Exponential inter-arrival times make the offered load Poisson.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        next += Duration::from_secs_f64(-u.ln() / rate);
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let p = server.submit_request(ServeRequest::new(w.sample.clone()).with_deadline(deadline));
        pending.push((next, p));
    }
    let submitted = pending.len();
    let mut served_ns: Vec<f64> = Vec::with_capacity(submitted);
    let (mut shed, mut missed, mut ok_within) = (0usize, 0usize, 0usize);
    for (scheduled, p) in pending {
        let outcome = p.outcome();
        match outcome.result {
            Ok(_) => {
                let lat = outcome.finished_at.saturating_duration_since(scheduled);
                if lat <= deadline {
                    ok_within += 1;
                }
                served_ns.push(lat.as_nanos() as f64);
            }
            Err(ServeError::Rejected { .. }) => shed += 1,
            Err(ServeError::DeadlineMissed { .. }) => missed += 1,
            Err(e) => panic!("unexpected serve failure under load: {e}"),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    served_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    SweepPoint {
        offered_qps: rate,
        duration_s: wall_s,
        submitted,
        served: served_ns.len(),
        shed,
        missed,
        goodput_qps: ok_within as f64 / wall_s,
        p50_us: percentile(&served_ns, 0.50) / 1000.0,
        p99_us: percentile(&served_ns, 0.99) / 1000.0,
        p999_us: percentile(&served_ns, 0.999) / 1000.0,
        mean_batch: stats.mean_batch(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    // Where to dump the capacity probe's telemetry snapshot (DESIGN.md
    // §15 JSON export); omitted = no dump.
    let metrics_out = arg_value("--metrics-out");

    let (rounds, block) = if quick { (3, 5) } else { (7, 11) };
    let text = |s: &str| Json::Str(s.to_string());
    let count = |n: usize| Json::uint(n as u64);
    let mut fields: Vec<(String, Json)> = vec![
        ("quick".into(), Json::Bool(quick)),
        (
            "gemm_workers".into(),
            count(fast_tensor::parallelism().workers()),
        ),
        ("resnet_config".into(), text("resnet18-lite stem=16")),
        ("mlp_config".into(), text("64-256-256-10")),
        (
            "transformer_config".into(),
            text("d=32 h=4 ff=64 L=2 seq=8"),
        ),
    ];

    // --- 1. Single-stream: re-quantize path vs frozen compiled path. ---
    for w in workloads() {
        let mut train_path = (w.build)();
        let mut eval = Session::eval(0);
        let mut compiled = CompiledModel::compile((w.build)(), 0);
        compiled.warm(&w.sample);
        let (requant_ns, compiled_ns) = time_pair_ns(
            rounds,
            block,
            || {
                black_box(train_path.forward(black_box(&w.sample), &mut eval));
            },
            || {
                black_box(compiled.infer(black_box(&w.sample)));
            },
        );

        let speedup = requant_ns / compiled_ns;
        println!(
            "{:<12} requant {:>9.0} ns  compiled {:>9.0} ns  speedup {:.2}x",
            w.name, requant_ns, compiled_ns, speedup
        );
        fields.push((format!("{}_requant_ns", w.name), whole(requant_ns)));
        fields.push((format!("{}_compiled_ns", w.name), whole(compiled_ns)));
        fields.push((format!("{}_cached_speedup_x", w.name), two_places(speedup)));
    }

    // --- 2. Capacity probe: closed-loop clients saturate the dispatcher
    // on the MLP workload (the ISSUE/ROADMAP throughput target). ---
    let workers = 2usize;
    let clients = 8usize;
    let max_batch = 32usize;
    // Quick mode still needs ~milliseconds of sustained saturation per
    // probe leg: shorter runs make the off/on QPS pair (and the §15
    // overhead gate in CI) dominated by startup jitter.
    let per_client = if quick { 400usize } else { 1500 };
    let wl = workloads().swap_remove(1); // mlp

    // One closed-loop saturation run; returns (sorted latencies, wall
    // seconds, stats, snapshot JSON of the server's live metrics).
    let run_probe = || {
        let server = Server::start(fleet(&wl, workers), BatchConfig::no_wait(max_batch));
        let wall = Instant::now();
        let mut latencies_ns: Vec<f64> = Vec::with_capacity(clients * per_client);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let server = &server;
                    let sample = &wl.sample;
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(per_client);
                        for _ in 0..per_client {
                            let t = Instant::now();
                            black_box(server.infer(sample.clone()));
                            lat.push(t.elapsed().as_nanos() as f64);
                        }
                        lat
                    })
                })
                .collect();
            for h in handles {
                latencies_ns.extend(h.join().expect("client thread panicked"));
            }
        });
        let wall_s = wall.elapsed().as_secs_f64();
        let snapshot_json = server.metrics_snapshot().to_json();
        let stats = server.shutdown();
        latencies_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        (latencies_ns, wall_s, stats, snapshot_json)
    };

    // Telemetry overhead on serving capacity (DESIGN.md §15): the same
    // probe run with span collection off (the recorded capacity, as
    // before) and on. The counters and serve histograms are always on in
    // both legs; the pair isolates the span clock reads.
    //
    // Estimator: saturation probes on shared hardware carry several
    // percent of per-leg variance plus slow drift (cgroup throttling
    // under sustained load) — more than the span cost being resolved. So
    // the probe runs as adjacent (off, on) pairs — drift between two
    // back-to-back legs is small — and the reported overhead is the
    // MEDIAN of the per-pair QPS ratios, which is robust to the
    // occasional preempted leg. The recorded capacity stays the best
    // spans-off leg (noise only ever slows a probe down).
    fast_telemetry::set_collection(false);
    let (latencies_ns, wall_s, stats, _) = run_probe();
    let leg_qps = |n: usize, s: f64| n as f64 / s;
    let mut qps = leg_qps(latencies_ns.len(), wall_s);
    let mut qps_span_on = 0.0f64;
    let mut pair_pcts: Vec<f64> = Vec::new();
    let mut snapshot_json = String::new();
    for _ in 0..if quick { 3 } else { 8 } {
        fast_telemetry::set_collection(false);
        let (lat_off, wall_off, _, _) = run_probe();
        fast_telemetry::set_collection(true);
        let (lat_on, wall_on, _, snap) = run_probe();
        fast_telemetry::set_collection(false);
        let (off, on) = (
            leg_qps(lat_off.len(), wall_off),
            leg_qps(lat_on.len(), wall_on),
        );
        qps = qps.max(off);
        qps_span_on = qps_span_on.max(on);
        pair_pcts.push((1.0 - on / off) * 100.0);
        snapshot_json = snap;
    }
    pair_pcts.sort_by(|a, b| a.partial_cmp(b).expect("finite pcts"));
    let overhead_serve_pct = pair_pcts[pair_pcts.len() / 2];
    if let Some(path) = &metrics_out {
        std::fs::write(path, &snapshot_json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote metrics snapshot to {path}");
    }
    let total = latencies_ns.len();
    println!(
        "capacity ({}): {total} requests, {qps:.0} QPS, p50 {:.0} µs, p99 {:.0} µs, \
         mean batch {:.2}, queue p99 {:.0} µs, service p99 {:.0} µs",
        wl.name,
        percentile(&latencies_ns, 0.50) / 1000.0,
        percentile(&latencies_ns, 0.99) / 1000.0,
        stats.mean_batch(),
        stats.queue_ns.percentile_us(0.99).unwrap_or(0.0),
        stats.service_ns.percentile_us(0.99).unwrap_or(0.0),
    );

    fields.push(("serve_workload".into(), text(wl.name)));
    fields.push(("serve_workers".into(), count(workers)));
    fields.push(("serve_clients".into(), count(clients)));
    fields.push(("serve_max_batch".into(), count(max_batch)));
    fields.push(("serve_requests".into(), count(total)));
    fields.push(("serve_qps".into(), whole(qps)));
    // Span-collection overhead on capacity: positive pct = QPS lost with
    // the collector installed (median of adjacent off/on pair ratios).
    // Budget in DESIGN.md §15.
    fields.push(("serve_qps_span_on".into(), whole(qps_span_on)));
    fields.push((
        "telemetry_overhead_serve_pct".into(),
        two_places(overhead_serve_pct),
    ));
    for (key, p) in [
        ("serve_p50_us", 0.50),
        ("serve_p99_us", 0.99),
        ("serve_p999_us", 0.999),
    ] {
        fields.push((key.into(), whole(percentile(&latencies_ns, p) / 1000.0)));
    }
    fields.push(("serve_mean_batch".into(), two_places(stats.mean_batch())));
    for (key, p) in [("p50", 0.50), ("p99", 0.99)] {
        fields.push((
            format!("serve_queue_{key}_us"),
            whole(stats.queue_ns.percentile_us(p).unwrap_or(0.0)),
        ));
        fields.push((
            format!("serve_service_{key}_us"),
            whole(stats.service_ns.percentile_us(p).unwrap_or(0.0)),
        ));
    }
    fields.push((
        "serve_peak_queue_depth".into(),
        Json::uint(stats.peak_queue_depth),
    ));
    let hist = stats
        .batch_histogram
        .iter()
        .map(|(size, n)| (size.to_string(), Json::uint(*n)))
        .collect();
    fields.push(("serve_batch_histogram".into(), Json::Obj(hist)));

    // --- 3. Open-loop Poisson sweep anchored at the probed capacity:
    // under-load points show latency at honest arrival rates, the ≥2×
    // point shows goodput under overload with deadline shedding. ---
    let deadline = Duration::from_millis(20);
    let multipliers: &[f64] = if quick {
        &[0.5, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 1.5, 2.0]
    };
    let duration_s = if quick { 0.4 } else { 2.0 };
    let mut sweep: Vec<(f64, SweepPoint)> = Vec::new();
    for (i, &mult) in multipliers.iter().enumerate() {
        let rate = (qps * mult).max(1.0);
        let n = (rate * duration_s).ceil() as usize;
        let point = open_loop_run(
            &wl,
            workers,
            max_batch,
            rate,
            n,
            deadline,
            0xFA57 + i as u64,
        );
        println!(
            "open-loop {:>4.2}x capacity: offered {:>7.0} QPS, goodput {:>7.0} QPS, \
             p50 {:>7.0} µs, p99 {:>8.0} µs, p99.9 {:>8.0} µs, shed {}, missed {}, mean batch {:.2}",
            mult,
            point.offered_qps,
            point.goodput_qps,
            point.p50_us,
            point.p99_us,
            point.p999_us,
            point.shed,
            point.missed,
            point.mean_batch,
        );
        sweep.push((mult, point));
    }
    fields.push((
        "sweep_deadline_us".into(),
        Json::uint(deadline.as_micros() as u64),
    ));
    let sweep_json = sweep
        .iter()
        .map(|(mult, p)| {
            Json::Obj(vec![
                ("load_x".into(), Json::num(*mult)),
                ("offered_qps".into(), whole(p.offered_qps)),
                ("duration_s".into(), two_places(p.duration_s)),
                ("submitted".into(), count(p.submitted)),
                ("served".into(), count(p.served)),
                ("shed".into(), count(p.shed)),
                ("missed".into(), count(p.missed)),
                ("goodput_qps".into(), whole(p.goodput_qps)),
                ("p50_us".into(), whole(p.p50_us)),
                ("p99_us".into(), whole(p.p99_us)),
                ("p999_us".into(), whole(p.p999_us)),
                ("mean_batch".into(), two_places(p.mean_batch)),
            ])
        })
        .collect();
    fields.push(("load_sweep".into(), Json::Arr(sweep_json)));

    let json = Json::Obj(vec![("current".into(), Json::Obj(fields))]).render();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    // The span-collection cost on capacity must stay within DESIGN.md §15's
    // budget: < 2 % on a quiet machine; 15 % is the slack a quick run on a
    // shared runner gets.
    const OVERHEAD_BUDGET_PCT: f64 = 15.0;
    if overhead_serve_pct > OVERHEAD_BUDGET_PCT {
        eprintln!(
            "gate failed: telemetry_overhead_serve_pct = {overhead_serve_pct:.2} is over its \
             budget {OVERHEAD_BUDGET_PCT}"
        );
        std::process::exit(1);
    }
}
