//! Integration tests for the continuous-batching dispatcher (DESIGN.md
//! §14): batch fill under backlog, deadline-aware load shedding, in-queue
//! deadline expiry, multi-model tenancy, per-model hot reload racing live
//! traffic, and bit-for-bit batch transparency of a coalesced batch, also
//! beside a request whose values the integer kernels cannot take.

use fast_bfp::GroupAxis;
use fast_nn::models::mlp;
use fast_nn::qgemm::prepare;
use fast_nn::{set_uniform_precision, Dense, Layer, LayerPrecision, Relu, Sequential, Session};
use fast_serve::{BatchConfig, CompiledModel, Pending, ServeError, ServeRequest, Server};
use fast_tensor::Tensor;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn small_net(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Sequential::new()
        .push(Dense::new(6, 12, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(12, 3, true, &mut rng));
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    m
}

fn small_model(seed: u64) -> CompiledModel {
    CompiledModel::compile(small_net(seed), 0)
}

fn small_sample(i: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 6],
        (0..6)
            .map(|j| ((i * 7 + j * 3) % 11) as f32 * 0.1 - 0.5)
            .collect(),
    )
}

/// The serving benchmark's MLP workload behind `gate`: the model computes
/// what a served MLP does, and how long a pass takes is the test's choice.
fn gated_bench_mlp(gate: &Arc<GateState>, seed: u64) -> CompiledModel {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Sequential::new()
        .push(Gate(gate.clone()))
        .push(mlp(&[64, 256, 256, 10], &mut rng));
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    CompiledModel::compile(m, 0)
}

fn bench_sample(i: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 64],
        (0..64)
            .map(|j| ((i * 13 + j * 7) % 23) as f32 * 0.05 - 0.55)
            .collect(),
    )
}

/// Parks the calling thread until the worker has pulled everything queued
/// (i.e. the occupier batch is now *in service*, so later submits pile up
/// behind it).
fn spin_until_drained(server: &Server) {
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

/// A pass-through layer that puts the serving worker's pace in the test's
/// hands: while held shut, `forward` parks the worker inside the model, and
/// every pass then takes at least `pace` — so what queues behind a request,
/// and for how long, is the test's decision, not a function of kernel speed.
/// It counts the forward passes that reached it.
#[derive(Default)]
struct GateState {
    held: Mutex<bool>,
    released: Condvar,
    pace: Duration,
    forwards: AtomicUsize,
}

impl GateState {
    fn set_held(&self, held: bool) {
        *self.held.lock().unwrap() = held;
        self.released.notify_all();
    }
}

struct Gate(Arc<GateState>);

impl Layer for Gate {
    fn forward(&mut self, input: &Tensor, _session: &mut Session) -> Tensor {
        self.0.forwards.fetch_add(1, Ordering::SeqCst);
        let mut held = self.0.held.lock().unwrap();
        while *held {
            held = self.0.released.wait(held).unwrap();
        }
        drop(held);
        std::thread::sleep(self.0.pace);
        input.clone()
    }

    fn backward(&mut self, grad_output: &Tensor, _session: &mut Session) -> Tensor {
        grad_output.clone()
    }

    fn kind(&self) -> &'static str {
        "gate"
    }
}

/// Regression for the round-robin dispatcher's under-fill (BENCH_serve.json
/// recorded mean batch 1.98 with histogram peaking at 2): with a sustained
/// deep backlog, the continuous batcher must ship full `max_batch` batches.
#[test]
fn deep_backlog_fills_batches_to_max() {
    // Each forward pass takes at least 5 ms, whatever the kernels' speed: the
    // four batches of the burst leave the queue at least that far apart.
    let gate = Arc::new(GateState {
        pace: Duration::from_millis(5),
        ..GateState::default()
    });
    let model = Sequential::new()
        .push(Gate(gate.clone()))
        .push(small_net(1));
    let server = Server::start(
        vec![CompiledModel::compile(model, 0)],
        BatchConfig::no_wait(8),
    );
    // Occupy the lone worker with one big prebatched request, parked inside
    // its forward pass…
    gate.set_held(true);
    let occupier = server.submit(Tensor::zeros(vec![1024, 6]));
    spin_until_drained(&server);
    // …then burst 32 singles while it is held: they all queue, so the worker
    // must pop them as 4 × 8 once it frees up.
    let burst: Vec<Pending> = (0..32).map(|i| server.submit(small_sample(i))).collect();
    gate.set_held(false);
    assert_eq!(occupier.wait().shape(), &[1024, 3]);
    for p in burst {
        assert_eq!(p.wait().shape(), &[1, 3]);
    }
    let stats = server.shutdown();
    let full = stats.batch_histogram.get(&8).copied().unwrap_or(0);
    assert!(
        full >= 3,
        "backlogged batcher must fill to max_batch; histogram {:?}",
        stats.batch_histogram
    );
    assert!(stats.peak_queue_depth >= 24, "burst must have queued");
    // The latency split is observable: a backlogged request's queue
    // residency dominates while service time stays flat.
    assert_eq!(stats.queue_ns.count(), 33);
    assert!(
        stats.queue_ns.percentile_ns(0.99).unwrap() > stats.queue_ns.percentile_ns(0.10).unwrap()
    );
}

/// A first layer whose sums round differently under a serial chain and an
/// eight-wide pairwise tree: `x = e₀ + 2⁻¹³·(e₁₆ + … + e₂₃)` against weights
/// with row 0 all `1.0` and rows 16–23 all `2⁻¹²` (the chain rounds each
/// `2⁻²⁵` away, the tree keeps their sum `2⁻²²`). Every group holds one
/// nonzero magnitude, so BFP quantization keeps the values exact too.
fn inexact_net(precision: LayerPrecision) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let mut first = Dense::new(32, 32, false, &mut rng);
    let w = first.weights_mut().data_mut();
    w.fill(0.0);
    w[..32].fill(1.0);
    w[16 * 32..24 * 32].fill(2.0f32.powi(-12));
    let mut m = Sequential::new()
        .push(first)
        .push(Relu::new())
        .push(Dense::new(32, 3, true, &mut rng));
    set_uniform_precision(&mut m, precision);
    m
}

/// Request `i`: the inexact row scaled by `2^(i − 4)` (an exact scaling, so
/// every request keeps the rounding pattern).
fn inexact_sample(i: usize) -> Tensor {
    let mut x = [0.0f32; 32];
    x[0] = 1.0;
    x[16..24].fill(2.0f32.powi(-13));
    let scale = 2.0f32.powi(i as i32 - 4);
    Tensor::from_vec(vec![1, 32], x.iter().map(|v| v * scale).collect())
}

/// Regression for ROADMAP item 1 (`serve_mlp_sat` seed 402 answered 3 of
/// 678 sampled requests differently from the batch-1 reference): the NN
/// kernel summed a lone row with pairwise trees and a row inside a full
/// quad with a serial chain, so a response depended on how many requests
/// shared its batch. Eight requests with inexact first-layer sums, held
/// back until they coalesce into one batch of 8, must each come back bit
/// for bit as `CompiledModel::infer` serves them alone.
#[test]
fn coalesced_inexact_sums_match_the_batch_one_forward() {
    for precision in [LayerPrecision::fp32(), LayerPrecision::bfp_fixed(4)] {
        let mut reference = CompiledModel::compile(inexact_net(precision), 0);
        let want: Vec<Tensor> = (0..8)
            .map(|i| reference.infer(&inexact_sample(i)))
            .collect();

        let gate = Arc::new(GateState::default());
        let model = Sequential::new()
            .push(Gate(gate.clone()))
            .push(inexact_net(precision));
        let server = Server::start(
            vec![CompiledModel::compile(model, 0)],
            BatchConfig::no_wait(8),
        );
        gate.set_held(true);
        let occupier = server.submit(inexact_sample(0));
        spin_until_drained(&server);
        let burst: Vec<Pending> = (0..8).map(|i| server.submit(inexact_sample(i))).collect();
        gate.set_held(false);
        assert_eq!(occupier.wait(), want[0]);
        for (i, (p, w)) in burst.into_iter().zip(&want).enumerate() {
            let got = p.wait();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(w), "request {i} under {precision:?}");
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.batch_histogram.get(&8),
            Some(&1),
            "the burst must coalesce into one batch of 8: {:?}",
            stats.batch_histogram
        );
    }
}

/// One bias-free 64→8 HighBFP layer, and inputs whose four 16-wide groups
/// sit 2⁸ apart in magnitude: the cross-group f32 adds are inexact, so the
/// integer kernel (one add per group) and the dense chain (one add per
/// element) round differently.
fn wide_layer() -> Dense {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let mut d = Dense::new(64, 8, false, &mut rng);
    set_uniform_precision(&mut d, LayerPrecision::bfp_fixed(4));
    d
}

fn wide_net() -> Sequential {
    Sequential::new().push(wide_layer())
}

/// The dense chain over `wide_layer`'s dequantized operands for `x`: what a
/// GEMM that cannot run integer reads.
fn dense_chain(x: &Tensor) -> Tensor {
    let (layer, p) = (wide_layer(), LayerPrecision::bfp_fixed(4));
    let mut s = Session::eval(0);
    let xq = prepare(&mut s, x, p.activations, GroupAxis::AlongRow);
    let wq = prepare(&mut s, layer.weights(), p.weights, GroupAxis::AlongCol);
    fast_tensor::matmul(&xq.operand().to_dense(), &wq.operand().to_dense())
}

fn wide_sample(i: usize) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23 + i as u64);
    Tensor::from_vec(
        vec![1, 64],
        (0..64)
            .map(|j| rng.gen_range(-1.0f32..1.0) * 2.0f32.powi(-8 * (j / 16)))
            .collect(),
    )
}

/// A request holding a NaN or a subnormal cannot be packed into BFP
/// mantissas, so its GEMM runs the dense kernels. That choice must not
/// reach its batch-mates: seven plain requests coalesced with one such
/// request each come back bit for bit as `CompiledModel::infer` serves them
/// alone — on the integer kernels, which the dense chain would not match.
#[test]
fn a_non_plain_request_does_not_change_its_batch_mates_results() {
    let mut reference = CompiledModel::compile(wide_net(), 0);
    let want: Vec<Tensor> = (0..8).map(|i| reference.infer(&wide_sample(i))).collect();
    assert!(
        (0..8).any(|i| dense_chain(&wide_sample(i)) != want[i]),
        "the inputs must tell the two kernels apart"
    );
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for poison in [f32::NAN, f32::MIN_POSITIVE / 8.0] {
        let gate = Arc::new(GateState::default());
        let model = Sequential::new().push(Gate(gate.clone())).push(wide_net());
        let server = Server::start(
            vec![CompiledModel::compile(model, 0)],
            BatchConfig::no_wait(8),
        );
        gate.set_held(true);
        let occupier = server.submit(wide_sample(0));
        spin_until_drained(&server);
        let burst: Vec<Pending> = (0..8)
            .map(|i| {
                let mut x = wide_sample(i);
                if i == 3 {
                    x.data_mut()[5] = poison;
                }
                server.submit(x)
            })
            .collect();
        gate.set_held(false);
        assert_eq!(occupier.wait(), want[0]);
        for (i, p) in burst.into_iter().enumerate() {
            let got = p.wait();
            if i != 3 {
                assert_eq!(bits(&got), bits(&want[i]), "request {i} beside {poison:e}");
            }
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.batch_histogram.get(&8),
            Some(&1),
            "the burst must coalesce into one batch of 8: {:?}",
            stats.batch_histogram
        );
    }
}

/// Admission control: once the dispatcher has a service-time estimate, a
/// request whose deadline cannot possibly be met is shed immediately with
/// a typed [`ServeError::Rejected`] — it never occupies queue space.
#[test]
fn hopeless_deadline_is_shed_at_admission() {
    // Every pass takes at least a millisecond, so the warmed estimate
    // reads whole microseconds however fast the kernels are.
    let gate = Arc::new(GateState {
        pace: Duration::from_millis(1),
        ..GateState::default()
    });
    let server = Server::start(vec![gated_bench_mlp(&gate, 2)], BatchConfig::no_wait(8));
    // Warm the per-sample service-time estimate.
    for i in 0..4 {
        server.infer(bench_sample(i));
    }
    // A 1 ns budget is below any possible queue residency.
    let shed = server
        .submit_request(ServeRequest::new(bench_sample(9)).with_deadline(Duration::from_nanos(1)));
    match shed.result() {
        Err(ServeError::Rejected {
            estimated_us,
            deadline_us,
        }) => {
            assert!(estimated_us > deadline_us);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Shedding is observable and non-destructive: the next request serves.
    assert_eq!(server.infer(bench_sample(0)).shape(), &[1, 10]);
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.samples, 5, "shed request consumed no service");
}

/// A request admitted with a feasible-looking deadline that then expires
/// while queued is dropped at dispatch with [`ServeError::DeadlineMissed`]
/// — the model never runs for it.
#[test]
fn queued_request_past_deadline_is_dropped_at_dispatch() {
    let gate = Arc::new(GateState::default());
    let server = Server::start(vec![gated_bench_mlp(&gate, 3)], BatchConfig::no_wait(8));
    // Warm the estimate so admission has real numbers. It is an average of
    // per-sample service times, none longer than the slowest warm-up seen
    // from here, so a deadline past that is admitted on an empty queue
    // whatever the build's speed (a debug build's cache-building first
    // request can take longer than 20 ms).
    let mut slowest = Duration::ZERO;
    for i in 0..4 {
        let sent = Instant::now();
        server.infer(bench_sample(i));
        slowest = slowest.max(sent.elapsed());
    }
    let deadline = Duration::from_millis(20).max(2 * slowest);
    // Park the worker inside the occupier's forward pass…
    gate.set_held(true);
    let occupier = server.submit(bench_sample(4));
    spin_until_drained(&server);
    // …and keep it there until the queued request's deadline has passed on
    // the wall clock, however fast the kernels are.
    let doomed = server.submit_request(ServeRequest::new(bench_sample(5)).with_deadline(deadline));
    std::thread::sleep(deadline);
    gate.set_held(false);
    assert_eq!(occupier.wait().shape(), &[1, 10]);
    match doomed.result() {
        Err(ServeError::DeadlineMissed {
            waited_us,
            deadline_us,
        }) => {
            assert!(
                waited_us >= deadline_us,
                "waited {waited_us} < {deadline_us}"
            );
        }
        other => panic!("expected DeadlineMissed, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.rejected, 0, "the request was admitted, not shed");
    assert_eq!(
        gate.forwards.load(Ordering::SeqCst),
        5,
        "four warm-ups and the occupier: the model never ran for the expired request"
    );
}

fn variant_b(seed: u64) -> Sequential {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Sequential::new()
        .push(Dense::new(4, 8, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(8, 2, true, &mut rng));
    set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
    m
}

fn sample_b(i: usize) -> Tensor {
    Tensor::from_vec(
        vec![1, 4],
        (0..4)
            .map(|j| ((i * 5 + j * 9) % 13) as f32 * 0.1 - 0.6)
            .collect(),
    )
}

fn artifact_of(model: &mut Sequential) -> fast_ckpt::Artifact {
    let mut artifact = fast_ckpt::Artifact::new();
    artifact.insert(
        fast_ckpt::SECTION_MODEL,
        fast_ckpt::capture_state(model).to_bytes(),
    );
    artifact
}

/// Multi-model tenancy: two architecturally different models resident in
/// one server, routed by name, with independent queues, generations, and
/// reloads.
#[test]
fn resident_models_are_independent() {
    let mut ref_a = small_model(10);
    let mut ref_b = CompiledModel::compile(variant_b(20), 0);
    let want_a: Vec<Tensor> = (0..4).map(|i| ref_a.infer(&small_sample(i))).collect();
    let want_b: Vec<Tensor> = (0..4).map(|i| ref_b.infer(&sample_b(i))).collect();

    let server = Server::builder(BatchConfig::no_wait(8))
        .model("a", vec![small_model(10)])
        .model("b", vec![CompiledModel::compile(variant_b(20), 0)])
        .start();
    assert_eq!(server.model_names(), vec!["a", "b"]);
    assert_eq!(server.workers(), 2);
    assert_eq!(server.queue_depth_of("b"), Some(0));
    assert_eq!(server.queue_depth_of("nope"), None);

    // Interleaved routed submissions answer from the right model.
    let pa: Vec<Pending> = (0..4)
        .map(|i| server.submit_request(ServeRequest::new(small_sample(i)).for_model("a")))
        .collect();
    let pb: Vec<Pending> = (0..4)
        .map(|i| server.submit_request(ServeRequest::new(sample_b(i)).for_model("b")))
        .collect();
    for (p, w) in pa.into_iter().zip(&want_a) {
        assert_eq!(&p.wait(), w);
    }
    for (p, w) in pb.into_iter().zip(&want_b) {
        assert_eq!(&p.wait(), w);
    }
    // Default-model routing targets the first registered model.
    assert_eq!(&server.infer(small_sample(0)), &want_a[0]);

    // Reloading `a` bumps only `a`'s generation and leaves `b` bit-for-bit
    // untouched.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut new_a = Sequential::new()
        .push(Dense::new(6, 12, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(12, 3, true, &mut rng));
    set_uniform_precision(&mut new_a, LayerPrecision::bfp_fixed(4));
    let artifact = artifact_of(&mut new_a);
    let mut ref_new_a = CompiledModel::compile(new_a, 0);
    server.reload_model("a", &artifact).unwrap();
    assert_eq!(server.weight_generation_of("a"), Some(1));
    assert_eq!(server.weight_generation_of("b"), Some(0));
    assert_eq!(server.weight_generation_of("nope"), None);
    assert_eq!(
        server
            .submit_request(ServeRequest::new(small_sample(2)).for_model("a"))
            .wait(),
        ref_new_a.infer(&small_sample(2)),
        "model `a` must serve the reloaded weights"
    );
    assert_eq!(
        server
            .submit_request(ServeRequest::new(sample_b(2)).for_model("b"))
            .wait(),
        want_b[2],
        "model `b` must be untouched by `a`'s reload"
    );

    let stats = server.shutdown();
    assert_eq!(stats.samples, 11);
    assert_eq!(stats.reloads, 1, "only `a`'s single worker applied a swap");
    assert_eq!(stats.reload_failures, 0);
}

/// Satellite: `Server::reload` mid-burst on the shared queue, per resident
/// model independently — zero dropped non-shed requests on either model,
/// and the swap lands at a batch boundary for the reloaded model only.
#[test]
fn per_model_reload_races_live_traffic_with_zero_drops() {
    let mut ref_b = CompiledModel::compile(variant_b(40), 0);
    let want_b: Vec<Tensor> = (0..4).map(|i| ref_b.infer(&sample_b(i))).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut new_a = Sequential::new()
        .push(Dense::new(6, 12, true, &mut rng))
        .push(Relu::new())
        .push(Dense::new(12, 3, true, &mut rng));
    set_uniform_precision(&mut new_a, LayerPrecision::bfp_fixed(4));
    let artifact = artifact_of(&mut new_a);
    let mut ref_new_a = CompiledModel::compile(new_a, 0);

    let server = Server::builder(BatchConfig::default())
        .model("a", vec![small_model(30), small_model(30)])
        .model("b", vec![CompiledModel::compile(variant_b(40), 0)])
        .start();
    let per_thread = 10usize;
    std::thread::scope(|scope| {
        for t in 0..2 {
            let server = &server;
            scope.spawn(move || {
                let pending: Vec<(usize, Pending)> = (0..per_thread)
                    .map(|k| {
                        let i = t * per_thread + k;
                        if i.is_multiple_of(2) {
                            (
                                3,
                                server.submit_request(
                                    ServeRequest::new(small_sample(i)).for_model("a"),
                                ),
                            )
                        } else {
                            (
                                2,
                                server
                                    .submit_request(ServeRequest::new(sample_b(i)).for_model("b")),
                            )
                        }
                    })
                    .collect();
                for (width, p) in pending {
                    // Zero drops while the reload races the burst; `a`
                    // responses may come from either weight generation.
                    assert_eq!(p.wait().shape(), &[1, width]);
                }
            });
        }
        server.reload_model("a", &artifact).unwrap();
    });
    // After the burst: `a` serves the new weights, `b` is bit-unchanged.
    for (i, want) in want_b.iter().enumerate().take(4) {
        assert_eq!(
            server
                .submit_request(ServeRequest::new(small_sample(i)).for_model("a"))
                .wait(),
            ref_new_a.infer(&small_sample(i))
        );
        assert_eq!(
            &server
                .submit_request(ServeRequest::new(sample_b(i)).for_model("b"))
                .wait(),
            want
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.samples, (2 * per_thread + 8) as u64, "zero drops");
    assert_eq!(stats.reloads, 2, "both `a` workers applied the swap");
    assert_eq!(stats.reload_failures, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.deadline_missed, 0);
}

/// Deadline-armed requests under light load sail through: admission
/// control only sheds what provably cannot make it.
#[test]
fn generous_deadlines_are_admitted_and_served() {
    let server = Server::start(vec![small_model(50)], BatchConfig::default());
    let pending: Vec<Pending> = (0..8)
        .map(|i| server.submit_with_deadline(small_sample(i), Duration::from_secs(30)))
        .collect();
    for p in pending {
        assert_eq!(p.wait().shape(), &[1, 3]);
    }
    let stats = server.shutdown();
    assert_eq!(stats.samples, 8);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.deadline_missed, 0);
}
