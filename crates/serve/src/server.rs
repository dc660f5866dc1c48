//! The serving engine: shared-queue dispatch with shape-bucketed
//! continuous batching, deadline-aware load shedding, and multi-model
//! tenancy (DESIGN.md §14).
//!
//! Every resident model owns one shared MPMC work queue feeding all of its
//! replica workers: any idle worker pulls the deepest shape bucket and
//! ships it immediately — requests join the next batch at whatever boundary
//! comes first instead of waiting out a coalescing window, so under backlog
//! batches fill to `max_batch` and under light load latency is one forward
//! pass. Requests carrying deadlines are shed at admission when the
//! estimated queue residency already exceeds the budget, and dropped at
//! dispatch if they expired while queued — both as first-class typed
//! [`ServeError`] responses.

use crate::batcher::{sample_count, split_output, stack_inputs, BatchConfig, Request};
use crate::compiled::CompiledModel;
use crate::request::{Pending, Response, ServeError, ServeRequest};
use crate::stats::{ModelMetrics, ServeStats};
use fast_ckpt::{Artifact, CkptError, StateDict, SECTION_MODEL};
use fast_telemetry::{Registry, Snapshot};
use fast_tensor::Tensor;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const POISONED: &str = "serve queue poisoned";

/// A pending hot weight swap: the decoded `model` section, shared across
/// all of a model's workers, tagged with the weight generation it carries.
/// Latest wins — a newer reload replaces an unapplied one, and a worker
/// that slept through intermediate generations applies only the newest.
#[derive(Clone)]
struct ReloadTicket {
    gen: u64,
    state: Arc<StateDict>,
}

/// FIFO queue of requests sharing one per-sample (trailing) shape. Only
/// same-bucket requests ever coalesce, so one oddly shaped request can
/// never poison its neighbours.
struct Bucket {
    tail: Vec<usize>,
    samples: usize,
    requests: VecDeque<Request>,
}

struct ModelState {
    buckets: Vec<Bucket>,
    /// Total queued samples across buckets (the queue-depth gauge).
    queued_samples: usize,
    reload: Option<ReloadTicket>,
    shutdown: bool,
}

/// The shared work queue of one resident model, pulled from by all of its
/// replica workers.
struct ModelQueue {
    name: String,
    /// Replica workers serving this model (static; sizes the residency
    /// estimate).
    workers: usize,
    state: Mutex<ModelState>,
    ready: Condvar,
    /// Target weight generation: 0 for the compiled weights, bumped by
    /// every accepted reload.
    generation: AtomicU64,
    /// EWMA of per-sample service time in ns (0 = no estimate yet).
    est_sample_ns: AtomicU64,
    /// This model's labeled series on the server's registry (DESIGN.md
    /// §15): counts and latency histograms are recorded here as they
    /// happen, so a live [`Server::metrics_text`] scrape sees them without
    /// waiting for shutdown.
    metrics: ModelMetrics,
}

impl ModelQueue {
    fn new(name: String, workers: usize, metrics: ModelMetrics) -> Self {
        ModelQueue {
            name,
            workers,
            state: Mutex::new(ModelState {
                buckets: Vec::new(),
                queued_samples: 0,
                reload: None,
                shutdown: false,
            }),
            ready: Condvar::new(),
            generation: AtomicU64::new(0),
            est_sample_ns: AtomicU64::new(0),
            metrics,
        }
    }
}

/// Pops the next batch: up to `max` samples from the front of the deepest
/// bucket (FIFO within the bucket). Requests whose deadline has already
/// passed are moved to `expired` instead of the batch and consume no batch
/// slots. Returns an empty batch only when nothing live is queued.
fn pop_batch(
    state: &mut ModelState,
    max: usize,
    now: Instant,
    expired: &mut Vec<Request>,
) -> Vec<Request> {
    let mut batch = Vec::new();
    let mut samples = 0usize;
    loop {
        let Some(bi) = state
            .buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.samples)
            .map(|(i, _)| i)
        else {
            return batch;
        };
        let bucket = &mut state.buckets[bi];
        while let Some(front) = bucket.requests.front() {
            let n = sample_count(&front.input);
            if front.deadline.is_some_and(|d| now >= d) {
                let r = bucket.requests.pop_front().expect("front exists");
                bucket.samples -= n;
                state.queued_samples -= n;
                expired.push(r);
                continue;
            }
            // An empty batch always takes the front request, even if it
            // alone exceeds `max` (a pre-batched client request).
            if !batch.is_empty() && samples + n > max {
                break;
            }
            let r = bucket.requests.pop_front().expect("front exists");
            bucket.samples -= n;
            state.queued_samples -= n;
            samples += n;
            batch.push(r);
            if samples >= max {
                break;
            }
        }
        if bucket.requests.is_empty() {
            state.buckets.swap_remove(bi);
        }
        // The deepest bucket may have held only expired requests; try the
        // next one rather than returning an empty batch with work queued.
        if !batch.is_empty() || state.queued_samples == 0 {
            return batch;
        }
    }
}

/// Records one executed batch of `n` samples: the per-model registry
/// series plus the worker-local exact batch-size map ([`ModelMetrics`]'s
/// log-bucketed histogram would blur sizes above 16, and tests pin exact
/// counts).
fn record_batch(metrics: &ModelMetrics, local: &mut BTreeMap<usize, u64>, n: usize) {
    metrics.batches.inc();
    metrics.samples.add(n as u64);
    metrics.batch_samples.record(n as u64);
    *local.entry(n).or_insert(0) += 1;
}

fn worker_loop(
    mut model: CompiledModel,
    queue: Arc<ModelQueue>,
    cfg: BatchConfig,
) -> BTreeMap<usize, u64> {
    // Everything except the exact batch-size map is recorded straight into
    // the per-model registry series (`queue.metrics`), so live scrapes see
    // it; the map alone rides back through the join handle.
    let mut batch_sizes: BTreeMap<usize, u64> = BTreeMap::new();
    // The weight generation this worker's replica has applied.
    let mut applied_gen = 0u64;
    loop {
        let mut expired: Vec<Request> = Vec::new();
        let (batch, reload, popped_at) = {
            let mut state = queue.state.lock().expect(POISONED);
            loop {
                let reload_pending = state.reload.as_ref().is_some_and(|t| t.gen > applied_gen);
                if state.queued_samples > 0 || reload_pending {
                    break;
                }
                if state.shutdown {
                    return batch_sizes;
                }
                state = queue.ready.wait(state).expect(POISONED);
            }
            let reload = state.reload.clone().filter(|t| t.gen > applied_gen);
            let now = Instant::now();
            let batch = pop_batch(&mut state, cfg.max_batch, now, &mut expired);
            queue.metrics.queue_depth.set(state.queued_samples as f64);
            (batch, reload, now)
        }; // lock released before the swap and the forward pass run
        if let Some(ticket) = reload {
            // Swap weights *before* serving the popped batch: the batch may
            // contain requests submitted after `Server::reload` returned
            // (submit and reload serialize on the queue mutex), and those
            // are guaranteed the new weights. Requests already queued when
            // the reload landed may be answered by either version — the
            // usual hot-swap contract. A rejected artifact rolls the model
            // back; the worker keeps serving the old weights.
            match model.apply_state(&ticket.state) {
                // A worker that slept through intermediate generations
                // covers them all by applying the newest, so a fully
                // propagated reload always adds `workers` per generation.
                Ok(()) => queue.metrics.reloads.add(ticket.gen - applied_gen),
                Err(_) => queue.metrics.reload_failures.inc(),
            }
            applied_gen = ticket.gen;
        }
        for req in expired.drain(..) {
            queue.metrics.deadline_missed.inc();
            let waited_us = popped_at.duration_since(req.enqueued_at).as_micros() as u64;
            let deadline_us = req
                .deadline
                .map(|d| d.duration_since(req.enqueued_at).as_micros() as u64)
                .unwrap_or(0);
            let _ = req.resp.send(Response {
                result: Err(ServeError::DeadlineMissed {
                    waited_us,
                    deadline_us,
                }),
                finished_at: Instant::now(),
            });
        }
        if batch.is_empty() {
            continue;
        }
        for req in &batch {
            queue
                .metrics
                .queue_ns
                .record(popped_at.duration_since(req.enqueued_at).as_nanos() as u64);
        }
        let started = Instant::now();
        let mut served_samples = 0usize;
        if let [lone] = &batch[..] {
            // Batch of one: skip the stack/split copies entirely.
            if serve_one(&mut model, lone) {
                let n = sample_count(&lone.input);
                record_batch(&queue.metrics, &mut batch_sizes, n);
                served_samples += n;
            } else {
                queue.metrics.failed.inc();
            }
            queue
                .metrics
                .service_ns
                .record(started.elapsed().as_nanos() as u64);
        } else if serve_coalesced(&mut model, &batch) {
            let n = batch.iter().map(|r| sample_count(&r.input)).sum();
            record_batch(&queue.metrics, &mut batch_sizes, n);
            served_samples += n;
            let elapsed = started.elapsed().as_nanos() as u64;
            for _ in &batch {
                queue.metrics.service_ns.record(elapsed);
            }
        } else {
            // The coalesced forward panicked — some request in the batch is
            // one the model rejects at the value level (e.g. an out-of-vocab
            // token), which shape-gated coalescing cannot screen out. Retry
            // each request alone so only the poisonous one fails with a
            // typed [`ServeError::Failed`] while the neighbours still get
            // their answers.
            for req in &batch {
                let t = Instant::now();
                if serve_one(&mut model, req) {
                    let n = sample_count(&req.input);
                    record_batch(&queue.metrics, &mut batch_sizes, n);
                    served_samples += n;
                } else {
                    queue.metrics.failed.inc();
                }
                queue
                    .metrics
                    .service_ns
                    .record(t.elapsed().as_nanos() as u64);
            }
        }
        // Feed the admission-control estimate: amortized per-sample service
        // time of this batch, smoothed so one outlier cannot flip the shed
        // decision for long.
        if served_samples > 0 {
            let per_sample = (started.elapsed().as_nanos() as u64 / served_samples as u64).max(1);
            let old = queue.est_sample_ns.load(Ordering::Relaxed);
            let new = if old == 0 {
                per_sample
            } else {
                (3 * old + per_sample) / 4
            };
            queue.est_sample_ns.store(new, Ordering::Relaxed);
        }
    }
}

/// Runs one request through the model, catching a model panic (bad shape,
/// malformed tokens, …) so a rejected request cannot kill the worker and
/// strand the shared queue. The client receives a typed
/// [`ServeError::Failed`]. Returns whether the request was served.
///
/// The model carries no cross-request state that a mid-forward unwind could
/// corrupt (weight caches are rebuilt from versioned masters), so resuming
/// with the same replica is sound. Note the process-global panic hook still
/// runs for each rejection (one stderr backtrace per bad request, plus one
/// for the coalesced attempt it poisoned) — a library must not swap the
/// global hook; embedders who consider rejects routine can install a
/// quieter hook themselves.
fn serve_one(model: &mut CompiledModel, req: &Request) -> bool {
    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let out = model.infer(&req.input);
        // A dropped receiver means the client gave up waiting.
        let _ = req.resp.send(Response {
            result: Ok(out),
            finished_at: Instant::now(),
        });
    }))
    .is_ok();
    if !ok {
        let _ = req.resp.send(Response {
            result: Err(ServeError::Failed),
            finished_at: Instant::now(),
        });
    }
    ok
}

/// Runs a coalesced batch through the model; on a panic no response has
/// been sent yet (sends happen strictly after the forward and the split),
/// so the caller can safely retry the requests one by one.
fn serve_coalesced(model: &mut CompiledModel, batch: &[Request]) -> bool {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
        let samples: Vec<usize> = inputs.iter().map(|t| sample_count(t)).collect();
        let out = model.infer(&stack_inputs(&inputs));
        let finished_at = Instant::now();
        for (req, piece) in batch.iter().zip(split_output(&out, &samples)) {
            let _ = req.resp.send(Response {
                result: Ok(piece),
                finished_at,
            });
        }
    }))
    .is_ok()
}

/// Configures a [`Server`] hosting one or more resident models.
///
/// Each model brings its own replica set — and with it its own precision
/// profile (the per-layer formats the model was trained to) — plus an
/// independent shared work queue and hot-reload generation.
///
/// ```
/// use fast_nn::{set_uniform_precision, Dense, LayerPrecision, Sequential};
/// use fast_serve::{BatchConfig, CompiledModel, Server, ServeRequest};
/// use fast_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let build = |seed, mantissa_bits| {
///     let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
///     let mut model = Sequential::new().push(Dense::new(4, 2, true, &mut rng));
///     // Per-model precision profile: 4-bit (HighBFP) or 2-bit (LowBFP).
///     set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(mantissa_bits));
///     CompiledModel::compile(model, 0)
/// };
/// let server = Server::builder(BatchConfig::default())
///     .model("high", vec![build(1, 4)])
///     .model("low", vec![build(1, 2), build(1, 2)])
///     .start();
/// let y = server
///     .submit_request(ServeRequest::new(Tensor::zeros(vec![1, 4])).for_model("low"))
///     .wait();
/// assert_eq!(y.shape(), &[1, 2]);
/// server.shutdown();
/// ```
pub struct ServerBuilder {
    cfg: BatchConfig,
    models: Vec<(String, Vec<CompiledModel>)>,
}

impl ServerBuilder {
    /// Registers a resident model under `name` with its replica set. The
    /// first registered model is the default target of
    /// [`Server::submit`] / [`Server::infer`] / [`Server::reload`].
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty or `name` is already registered.
    pub fn model(mut self, name: impl Into<String>, replicas: Vec<CompiledModel>) -> Self {
        let name = name.into();
        assert!(
            !replicas.is_empty(),
            "model `{name}` needs at least one replica"
        );
        assert!(
            self.models.iter().all(|(n, _)| n != &name),
            "model `{name}` registered twice"
        );
        self.models.push((name, replicas));
        self
    }

    /// Starts one worker thread per replica of every registered model.
    ///
    /// # Panics
    ///
    /// Panics if no model was registered or `max_batch` is zero.
    pub fn start(self) -> Server {
        assert!(!self.models.is_empty(), "need at least one resident model");
        assert!(self.cfg.max_batch > 0, "max_batch must be positive");
        // Each server owns its registry so two servers in one process (or
        // one test binary) never alias each other's series; the global
        // registry (spans, train/qgemm counters) is appended at scrape
        // time by [`Server::metrics_text`] / [`Server::metrics_snapshot`].
        let registry = Arc::new(Registry::new());
        let mut queues = Vec::with_capacity(self.models.len());
        let mut workers = Vec::new();
        for (name, replicas) in self.models {
            let metrics = ModelMetrics::register(&registry, &name);
            let queue = Arc::new(ModelQueue::new(name, replicas.len(), metrics));
            for replica in replicas {
                let worker_queue = Arc::clone(&queue);
                let cfg = self.cfg;
                workers.push(std::thread::spawn(move || {
                    worker_loop(replica, worker_queue, cfg)
                }));
            }
            queues.push(queue);
        }
        Server {
            registry,
            queues,
            workers,
        }
    }
}

/// A running inference service: one shared MPMC work queue per resident
/// model, pulled from by that model's replica worker threads, with
/// shape-bucketed continuous batching and deadline-aware load shedding
/// (DESIGN.md §14).
///
/// ```
/// use fast_nn::{Dense, Sequential};
/// use fast_serve::{BatchConfig, CompiledModel, Server};
/// use fast_tensor::Tensor;
/// use rand::SeedableRng;
///
/// // Two bit-identical replicas (same build seed) pulling one queue.
/// let replicas: Vec<CompiledModel> = (0..2)
///     .map(|_| {
///         let mut rng = rand::rngs::StdRng::seed_from_u64(9);
///         let model = Sequential::new().push(Dense::new(4, 2, true, &mut rng));
///         CompiledModel::compile(model, 0)
///     })
///     .collect();
/// let server = Server::start(replicas, BatchConfig::default());
/// let y = server.infer(Tensor::from_vec(vec![1, 4], vec![0.1, 0.2, 0.3, 0.4]));
/// assert_eq!(y.shape(), &[1, 2]);
/// server.shutdown();
/// ```
pub struct Server {
    registry: Arc<Registry>,
    queues: Vec<Arc<ModelQueue>>,
    workers: Vec<JoinHandle<BTreeMap<usize, u64>>>,
}

impl Server {
    /// Single-model convenience: hosts `replicas` as the model `"default"`.
    ///
    /// Replicas are typically built from the same seed so every worker
    /// serves bit-identical results; [`CompiledModel::compile`] quantizes
    /// weights deterministically, so this holds even across processes.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn start(replicas: Vec<CompiledModel>, cfg: BatchConfig) -> Server {
        Server::builder(cfg).model("default", replicas).start()
    }

    /// Starts configuring a multi-model server.
    pub fn builder(cfg: BatchConfig) -> ServerBuilder {
        ServerBuilder {
            cfg,
            models: Vec::new(),
        }
    }

    /// Total worker threads across all resident models.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The server's own metric registry, carrying the per-model
    /// `fast_serve_*{model="..."}` series (DESIGN.md §15). Process-wide
    /// series (spans, train/qgemm counters) live on
    /// [`Registry::global`] instead; the scrape methods below merge both.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders a live Prometheus text-exposition scrape: this server's
    /// per-model serving series followed by the process-global registry
    /// (span timings, train/qgemm counters). Valid exposition format 0.0.4;
    /// scrapeable mid-traffic without stopping the server.
    pub fn metrics_text(&self) -> String {
        let mut text = self.registry.metrics_text();
        text.push_str(&Registry::global().metrics_text());
        text
    }

    /// Captures a live [`Snapshot`] of this server's per-model series plus
    /// the process-global registry, for JSON export
    /// ([`Snapshot::to_json`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        snap.entries.extend(Registry::global().snapshot().entries);
        snap
    }

    /// Names of the resident models, default model first.
    pub fn model_names(&self) -> Vec<&str> {
        self.queues.iter().map(|q| q.name.as_str()).collect()
    }

    fn queue(&self, model: Option<&str>) -> Option<&Arc<ModelQueue>> {
        match model {
            None => self.queues.first(),
            Some(name) => self.queues.iter().find(|q| q.name == name),
        }
    }

    /// The default model's weight generation currently being rolled out: 0
    /// for the compiled weights, bumped by every accepted reload.
    pub fn weight_generation(&self) -> u64 {
        self.queues[0].generation.load(Ordering::Relaxed)
    }

    /// The named model's weight generation, or `None` if not resident.
    pub fn weight_generation_of(&self, model: &str) -> Option<u64> {
        self.queue(Some(model))
            .map(|q| q.generation.load(Ordering::Relaxed))
    }

    /// Queued samples currently waiting for the default model — the live
    /// queue-depth gauge ([`ServeStats::peak_queue_depth`] records the
    /// high-water mark).
    pub fn queue_depth(&self) -> usize {
        self.queues[0].state.lock().expect(POISONED).queued_samples
    }

    /// Queued samples waiting for the named model, or `None` if not
    /// resident.
    pub fn queue_depth_of(&self, model: &str) -> Option<usize> {
        self.queue(Some(model))
            .map(|q| q.state.lock().expect(POISONED).queued_samples)
    }

    /// Hot-swaps the default model's weights from a checkpoint artifact's
    /// `model` section without restarting the server or dropping a single
    /// non-shed request. See [`Server::reload_model`].
    pub fn reload(&self, artifact: &Artifact) -> Result<u64, CkptError> {
        self.reload_queue(&self.queues[0], artifact)
    }

    /// Hot-swaps the named model's weights from a checkpoint artifact's
    /// `model` section; other resident models are untouched.
    ///
    /// The section is decoded and validated once, then shared (`Arc`) with
    /// every worker of the model; each worker applies it at its next batch
    /// boundary — any request submitted after this method returns is served
    /// with the new weights, while requests already in flight may see
    /// either version. Inside the replica the swap rides the existing
    /// weight-version mechanism (the restore walk bumps layer versions, so
    /// frozen caches re-quantize deterministically), which makes the swap
    /// bit-transparent for deterministic-rounding formats: post-swap
    /// responses equal an eval forward of the restored model.
    ///
    /// Returns the model's new weight generation. [`ServeStats::reloads`]
    /// counts per-worker applications (a fully propagated reload adds the
    /// model's replica count per generation); an artifact that decodes but
    /// does not match the replica architecture is rejected worker-side,
    /// rolled back, and counted in [`ServeStats::reload_failures`].
    ///
    /// # Panics
    ///
    /// Panics if `model` is not resident (reload targets are server
    /// configuration, not request routing — a typo here is a deployment
    /// bug).
    ///
    /// # Errors
    ///
    /// [`CkptError::MissingSection`] / decode errors if the artifact has no
    /// well-formed `model` section.
    pub fn reload_model(&self, model: &str, artifact: &Artifact) -> Result<u64, CkptError> {
        let queue = self
            .queue(Some(model))
            .unwrap_or_else(|| panic!("no resident model named `{model}`"));
        self.reload_queue(queue, artifact)
    }

    fn reload_queue(&self, queue: &Arc<ModelQueue>, artifact: &Artifact) -> Result<u64, CkptError> {
        let state = Arc::new(StateDict::from_bytes(artifact.require(SECTION_MODEL)?)?);
        let mut qs = queue.state.lock().expect(POISONED);
        // Bump under the queue lock so ticket generations are monotone.
        let generation = queue.generation.fetch_add(1, Ordering::Relaxed) + 1;
        qs.reload = Some(ReloadTicket {
            gen: generation,
            state,
        });
        drop(qs);
        queue.metrics.reload_generation.set(generation as f64);
        queue.ready.notify_all();
        Ok(generation)
    }

    /// Enqueues a request (leading dimension = samples, usually 1) for the
    /// default model with no deadline and returns a handle to await the
    /// result.
    pub fn submit(&self, input: Tensor) -> Pending {
        self.submit_request(ServeRequest::new(input))
    }

    /// Enqueues a typed request — model routing and deadline included —
    /// into the target model's shared queue.
    ///
    /// Admission control: when the request carries a deadline and the
    /// dispatcher has a service-time estimate, the estimated queue
    /// residency `(queued + own) × est_per_sample / workers` is checked
    /// against the budget and the request is shed immediately with
    /// [`ServeError::Rejected`] if it cannot make it — reject-fast keeps an
    /// overloaded queue from dragging every later request past its
    /// deadline. All failures arrive as typed [`ServeError`] values through
    /// the returned [`Pending`].
    pub fn submit_request(&self, req: ServeRequest) -> Pending {
        let (tx, rx) = mpsc::channel();
        let Some(queue) = self.queue(req.model.as_deref()) else {
            let name = req.model.unwrap_or_default();
            let _ = tx.send(Response {
                result: Err(ServeError::UnknownModel(name)),
                finished_at: Instant::now(),
            });
            return Pending(rx);
        };
        let samples = sample_count(&req.input);
        let now = Instant::now();
        let mut state = queue.state.lock().expect(POISONED);
        if let Some(budget) = req.deadline {
            let est = queue.est_sample_ns.load(Ordering::Relaxed);
            let est_wait_ns = ((state.queued_samples + samples) as u64).saturating_mul(est)
                / queue.workers as u64;
            if est > 0 && est_wait_ns > budget.as_nanos() as u64 {
                drop(state);
                queue.metrics.shed.inc();
                let _ = tx.send(Response {
                    result: Err(ServeError::Rejected {
                        estimated_us: est_wait_ns / 1000,
                        deadline_us: budget.as_micros() as u64,
                    }),
                    finished_at: Instant::now(),
                });
                return Pending(rx);
            }
        }
        let request = Request {
            resp: tx,
            enqueued_at: now,
            deadline: req.deadline.map(|d| now + d),
            input: req.input,
        };
        let tail = &request.input.shape()[1..];
        match state.buckets.iter_mut().find(|b| b.tail == tail) {
            Some(bucket) => {
                bucket.samples += samples;
                bucket.requests.push_back(request);
            }
            None => state.buckets.push(Bucket {
                tail: tail.to_vec(),
                samples,
                requests: VecDeque::from([request]),
            }),
        }
        state.queued_samples += samples;
        let depth = state.queued_samples as f64;
        drop(state);
        queue.metrics.queue_depth.set(depth);
        queue.metrics.peak_queue_depth.set_max(depth);
        queue.ready.notify_one();
        Pending(rx)
    }

    /// Convenience: submit to the default model and block for the result.
    pub fn infer(&self, input: Tensor) -> Tensor {
        self.submit(input).wait()
    }

    /// Convenience: submit to the default model with a deadline.
    pub fn submit_with_deadline(&self, input: Tensor, deadline: Duration) -> Pending {
        self.submit_request(ServeRequest::new(input).with_deadline(deadline))
    }

    /// Signals every worker, drains remaining requests, joins the threads,
    /// and returns the merged serving statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop()
    }

    fn stop(&mut self) -> ServeStats {
        for queue in &self.queues {
            let mut state = queue.state.lock().expect(POISONED);
            state.shutdown = true;
            drop(state);
            queue.ready.notify_all();
        }
        let mut stats = ServeStats::default();
        // Exact batch-size maps ride back through the join handles; every
        // other statistic is already on the per-model registry series.
        for handle in self.workers.drain(..) {
            stats.merge_batch_map(handle.join().expect("serve worker panicked"));
        }
        for queue in &self.queues {
            stats.merge(queue.metrics.to_stats());
        }
        stats
    }
}

impl Drop for Server {
    /// Dropping without [`Server::shutdown`] still stops and joins the
    /// workers (statistics are discarded).
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            let _ = self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_nn::{set_uniform_precision, Dense, LayerPrecision, Relu, Sequential};
    use rand::SeedableRng;

    fn replica(seed: u64) -> CompiledModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Sequential::new()
            .push(Dense::new(6, 12, true, &mut rng))
            .push(Relu::new())
            .push(Dense::new(12, 3, true, &mut rng));
        set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
        CompiledModel::compile(m, 0)
    }

    fn sample(i: usize) -> Tensor {
        Tensor::from_vec(
            vec![1, 6],
            (0..6)
                .map(|j| ((i * 7 + j * 3) % 11) as f32 * 0.1 - 0.5)
                .collect(),
        )
    }

    #[test]
    fn queued_requests_match_per_request_results() {
        // Ground truth: each sample through a lone compiled model.
        let mut reference = replica(1);
        let want: Vec<Tensor> = (0..12).map(|i| reference.infer(&sample(i))).collect();

        // Whatever way the dispatcher coalesces the backlog, every response
        // must be bit-identical to the single-sample forward.
        let server = Server::start(vec![replica(1)], BatchConfig::no_wait(5));
        let pending: Vec<Pending> = (0..12).map(|i| server.submit(sample(i))).collect();
        for (p, w) in pending.into_iter().zip(&want) {
            assert_eq!(&p.wait(), w, "batched result differs from single-sample");
        }
        let stats = server.shutdown();
        assert_eq!(stats.samples, 12);
        assert!(stats.batch_histogram.keys().all(|&s| s <= 5));
        // Queue residency and service time were recorded per request.
        assert_eq!(stats.queue_ns.count(), 12);
        assert_eq!(stats.service_ns.count(), 12);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.deadline_missed, 0);
        assert!(stats.peak_queue_depth >= 1);
    }

    #[test]
    fn shared_queue_feeds_all_workers() {
        let server = Server::start(
            vec![replica(2), replica(2), replica(2)],
            BatchConfig::no_wait(4),
        );
        assert_eq!(server.workers(), 3);
        assert_eq!(server.model_names(), vec!["default"]);
        let pending: Vec<Pending> = (0..9).map(|i| server.submit(sample(i))).collect();
        let outs: Vec<Tensor> = pending.into_iter().map(Pending::wait).collect();
        // All workers hold bit-identical replicas, so identical inputs give
        // identical outputs no matter which worker pulled them.
        assert_eq!(outs[0], server.infer(sample(0)));
        assert_eq!(server.queue_depth(), 0, "drained queue gauges empty");
        let stats = server.shutdown();
        assert_eq!(stats.samples, 10);
    }

    #[test]
    fn prebatched_request_larger_than_max_batch_is_served() {
        let server = Server::start(vec![replica(3)], BatchConfig::no_wait(2));
        let big = Tensor::zeros(vec![7, 6]);
        let y = server.infer(big);
        assert_eq!(y.shape(), &[7, 3]);
        let stats = server.shutdown();
        assert_eq!(stats.batch_histogram.get(&7), Some(&1));
    }

    #[test]
    fn rejected_request_fails_loudly_and_worker_keeps_serving() {
        let server = Server::start(vec![replica(5)], BatchConfig::no_wait(4));
        // Wrong width: the model panics on it inside the worker; the
        // request must resolve to a typed failure (not hang) and the worker
        // must survive.
        let bad = server.submit(Tensor::zeros(vec![1, 5]));
        assert_eq!(bad.result(), Err(ServeError::Failed));
        let y = server.infer(sample(0));
        assert_eq!(y.shape(), &[1, 3], "worker must survive a bad request");
        let stats = server.shutdown();
        assert_eq!(stats.samples, 1, "rejected requests are not counted");
    }

    #[test]
    fn wait_panics_on_typed_failure() {
        let server = Server::start(vec![replica(5)], BatchConfig::no_wait(4));
        let bad = server.submit(Tensor::zeros(vec![1, 5]));
        let bad_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.wait()));
        assert!(
            bad_result.is_err(),
            "wait() keeps the loud-failure contract"
        );
        server.shutdown();
    }

    #[test]
    fn mixed_shapes_land_in_separate_buckets() {
        // A [1,6], a [1,5] (different per-sample shape) and another [1,6]:
        // the odd one must never coalesce with (and so never poison) the
        // shape-matched pair, whatever order the dispatcher pulls.
        let server = Server::start(vec![replica(6)], BatchConfig::no_wait(8));
        let good1 = server.submit(sample(1));
        let bad = server.submit(Tensor::zeros(vec![1, 5]));
        let good2 = server.submit(sample(2));
        assert_eq!(good1.wait().shape(), &[1, 3]);
        assert_eq!(
            bad.result(),
            Err(ServeError::Failed),
            "mis-shaped request must fail alone"
        );
        assert_eq!(good2.wait().shape(), &[1, 3]);
        server.shutdown();
    }

    #[test]
    fn value_poisoned_batch_is_retried_individually() {
        use fast_nn::Embedding;
        // Embedding rejects out-of-vocab tokens at the value level — shape
        // gating cannot screen those out of a coalesced batch.
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let m = Sequential::new().push(Embedding::new(12, 4, &mut rng));
            CompiledModel::compile(m, 0)
        };
        let tokens = |t: f32| Tensor::from_vec(vec![1, 3], vec![t, 1.0, 2.0]);
        let mut reference = build();
        let want = reference.infer(&tokens(0.0));

        let server = Server::start(vec![build()], BatchConfig::no_wait(8));
        let good1 = server.submit(tokens(0.0));
        let poison = server.submit(tokens(99.0)); // out of vocab
        let good2 = server.submit(tokens(0.0));
        assert_eq!(good1.wait(), want, "neighbour must survive the poison");
        assert_eq!(
            poison.result(),
            Err(ServeError::Failed),
            "poison request must fail with a typed error"
        );
        assert_eq!(good2.wait(), want, "neighbour must survive the poison");
        let stats = server.shutdown();
        assert_eq!(stats.samples, 2, "only valid requests count as served");
    }

    #[test]
    fn unknown_model_resolves_typed() {
        let server = Server::start(vec![replica(5)], BatchConfig::no_wait(4));
        let p = server.submit_request(ServeRequest::new(sample(0)).for_model("nope"));
        assert_eq!(p.result(), Err(ServeError::UnknownModel("nope".into())));
        let stats = server.shutdown();
        assert_eq!(stats.samples, 0);
    }

    /// Same architecture as [`replica`], different weights (different seed).
    fn trained_variant(seed: u64) -> fast_nn::Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Sequential::new()
            .push(Dense::new(6, 12, true, &mut rng))
            .push(Relu::new())
            .push(Dense::new(12, 3, true, &mut rng));
        set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
        m
    }

    fn model_artifact(model: &mut fast_nn::Sequential) -> fast_ckpt::Artifact {
        let mut artifact = fast_ckpt::Artifact::new();
        artifact.insert(
            fast_ckpt::SECTION_MODEL,
            fast_ckpt::capture_state(model).to_bytes(),
        );
        artifact
    }

    #[test]
    fn reload_swaps_weights_with_zero_dropped_requests() {
        // Ground truth for the new weights: a lone compiled copy.
        let mut new_model = trained_variant(77);
        let artifact = model_artifact(&mut new_model);
        let mut reference = CompiledModel::compile(new_model, 0);
        let want_new: Vec<Tensor> = (0..6).map(|i| reference.infer(&sample(i))).collect();
        let mut old_reference = replica(1);
        let want_old: Vec<Tensor> = (0..6).map(|i| old_reference.infer(&sample(i))).collect();
        assert_ne!(want_old[0], want_new[0], "seeds must give distinct models");

        let server = Server::start(vec![replica(1), replica(1)], BatchConfig::no_wait(4));
        // Pre-reload requests: answered (by either version is acceptable —
        // here they complete before the swap because we wait on them).
        let pre: Vec<Pending> = (0..6).map(|i| server.submit(sample(i))).collect();
        for (p, w) in pre.into_iter().zip(&want_old) {
            assert_eq!(&p.wait(), w, "pre-reload request answered with old weights");
        }
        let generation = server.reload(&artifact).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(server.weight_generation(), 1);
        // Post-reload requests must all be answered — zero drops — and with
        // the new weights (the swap is bit-transparent: responses equal an
        // eval forward of the restored model).
        let post: Vec<Pending> = (0..6).map(|i| server.submit(sample(i))).collect();
        for (p, w) in post.into_iter().zip(&want_new) {
            assert_eq!(&p.wait(), w, "post-reload request must see new weights");
        }
        let stats = server.shutdown();
        assert_eq!(stats.samples, 12, "every request served, none dropped");
        assert_eq!(stats.reloads, 2, "both workers applied the swap");
        assert_eq!(stats.reload_failures, 0);
    }

    #[test]
    fn reload_reaches_idle_workers_by_shutdown() {
        // No traffic at all: the swap must still land on every worker.
        let server = Server::start(
            vec![replica(2), replica(2), replica(2)],
            BatchConfig::no_wait(4),
        );
        let mut new_model = trained_variant(78);
        server.reload(&model_artifact(&mut new_model)).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.reloads, 3);
    }

    #[test]
    fn skipped_generations_still_count_as_applied() {
        // Two reloads land before any worker wakes: the worker applies only
        // the newest ticket but covers both generations in the count, so
        // `reloads == workers × generations` stays the invariant.
        let server = Server::start(vec![replica(2)], BatchConfig::no_wait(4));
        let mut a = trained_variant(79);
        let mut b = trained_variant(80);
        server.reload(&model_artifact(&mut a)).unwrap();
        server.reload(&model_artifact(&mut b)).unwrap();
        assert_eq!(server.weight_generation(), 2);
        // The newest weights serve.
        let mut reference = CompiledModel::compile(trained_variant(80), 0);
        assert_eq!(server.infer(sample(0)), reference.infer(&sample(0)));
        let stats = server.shutdown();
        assert_eq!(stats.reloads, 2);
        assert_eq!(stats.reload_failures, 0);
    }

    #[test]
    fn mismatched_artifact_is_rejected_and_old_weights_keep_serving() {
        let mut reference = replica(9);
        let want = reference.infer(&sample(3));
        let server = Server::start(vec![replica(9)], BatchConfig::no_wait(4));
        // Wrong architecture: a 4->2 dense has differently shaped state.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut wrong = Sequential::new().push(Dense::new(4, 2, true, &mut rng));
        server.reload(&model_artifact(&mut wrong)).unwrap();
        assert_eq!(
            server.infer(sample(3)),
            want,
            "rejected reload must leave the old weights serving"
        );
        let stats = server.shutdown();
        assert_eq!(stats.reloads, 0);
        assert_eq!(stats.reload_failures, 1);

        // An artifact without a model section fails synchronously.
        let empty = fast_ckpt::Artifact::new();
        let server = Server::start(vec![replica(9)], BatchConfig::no_wait(4));
        assert!(matches!(
            server.reload(&empty),
            Err(fast_ckpt::CkptError::MissingSection { .. })
        ));
        assert_eq!(server.weight_generation(), 0);
        server.shutdown();
    }

    #[test]
    fn metrics_text_scrapes_live_per_model_series() {
        let server = Server::builder(BatchConfig::no_wait(4))
            .model("alpha", vec![replica(1)])
            .model("beta", vec![replica(2)])
            .start();
        assert_eq!(server.infer(sample(0)).shape(), &[1, 3]);
        let _ = server
            .submit_request(ServeRequest::new(sample(1)).for_model("beta"))
            .wait();
        // Live scrape, server still running: both models' series present,
        // with the traffic recorded so far. Workers record a batch just
        // after answering it, so give the counters a beat to land.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut text = server.metrics_text();
        while !(text.contains("fast_serve_samples_total{model=\"alpha\"} 1")
            && text.contains("fast_serve_samples_total{model=\"beta\"} 1"))
            && Instant::now() < deadline
        {
            std::thread::yield_now();
            text = server.metrics_text();
        }
        assert!(text.contains("fast_serve_samples_total{model=\"alpha\"} 1"));
        assert!(text.contains("fast_serve_samples_total{model=\"beta\"} 1"));
        assert!(text.contains("fast_serve_queue_depth{model=\"alpha\"} 0"));
        assert!(text.contains("fast_serve_reload_generation{model=\"alpha\"} 0"));
        assert!(text.contains("fast_serve_queue_ns_count{model=\"alpha\"} 1"));
        // The snapshot carries the same series and survives a JSON round
        // trip.
        let snap = server.metrics_snapshot();
        let back = Snapshot::from_json(&snap.to_json()).expect("snapshot JSON round-trips");
        assert_eq!(
            back.get("fast_serve_samples_total", &[("model", "beta")]),
            snap.get("fast_serve_samples_total", &[("model", "beta")])
        );
        let stats = server.shutdown();
        assert_eq!(stats.samples, 2, "stats view sums both models");
    }

    #[test]
    fn failed_requests_are_counted() {
        let server = Server::start(vec![replica(5)], BatchConfig::no_wait(4));
        let bad = server.submit(Tensor::zeros(vec![1, 5]));
        assert_eq!(bad.result(), Err(ServeError::Failed));
        let _ = server.infer(sample(0));
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.samples, 1);
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let server = Server::start(vec![replica(4)], BatchConfig::default());
        let _ = server.infer(sample(0));
        drop(server); // must not hang
    }

    fn conv_model(seed: u64) -> Sequential {
        use fast_nn::{BatchNorm2d, Conv2d, GlobalAvgPool};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Sequential::new()
            .push(Conv2d::new(2, 4, 3, 1, 1, false, &mut rng))
            .push(BatchNorm2d::new(4))
            .push(Relu::new())
            .push(Conv2d::new(4, 4, 3, 1, 1, true, &mut rng))
            .push(GlobalAvgPool::new())
            .push(Dense::new(4, 3, true, &mut rng));
        set_uniform_precision(&mut m, LayerPrecision::bfp_fixed(4));
        m
    }

    fn conv_sample(i: usize) -> Tensor {
        Tensor::from_vec(
            vec![1, 2, 4, 4],
            (0..32)
                .map(|j| ((i * 13 + j * 5) % 17) as f32 * 0.1 - 0.8)
                .collect(),
        )
    }

    #[test]
    fn conv_reload_under_concurrent_submits_drops_nothing() {
        // The MLP-shaped reload test above swaps weights between quiesced
        // request waves; this one reloads a *conv* workload while
        // submitter threads keep traffic in flight on the shared queue —
        // im2col activation grouping and rank-4 inputs ride through the
        // same swap path.
        let mut new_model = conv_model(31);
        let artifact = model_artifact(&mut new_model);
        let mut reference = CompiledModel::compile(new_model, 0);
        let want_new: Vec<Tensor> = (0..4).map(|i| reference.infer(&conv_sample(i))).collect();

        let server = Server::start(
            vec![
                CompiledModel::compile(conv_model(30), 0),
                CompiledModel::compile(conv_model(30), 0),
            ],
            BatchConfig::default(),
        );
        let per_thread = 8usize;
        let threads = 3usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let server = &server;
                scope.spawn(move || {
                    let pending: Vec<Pending> = (0..per_thread)
                        .map(|k| server.submit(conv_sample(t + k)))
                        .collect();
                    for p in pending {
                        // Answered by either weight version, but answered:
                        // zero drops while the swap races the traffic.
                        assert_eq!(p.wait().shape(), &[1, 3]);
                    }
                });
            }
            server.reload(&artifact).unwrap();
        });
        // The reload returned before the scope closed, so fresh requests
        // must see the new weights, bit-for-bit.
        for (i, w) in want_new.iter().enumerate() {
            assert_eq!(
                &server.infer(conv_sample(i)),
                w,
                "post-reload conv response {i} must match the reloaded model"
            );
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.samples,
            (threads * per_thread + want_new.len()) as u64,
            "every in-flight request answered"
        );
        assert_eq!(stats.reloads, 2, "both workers applied the conv swap");
        assert_eq!(stats.reload_failures, 0);
    }
}
