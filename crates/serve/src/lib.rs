//! Batched BFP inference serving for FAST-trained models (DESIGN.md §8,
//! §14).
//!
//! Training re-quantizes FP32 master weights on every forward pass because
//! the FAST controller may reassign per-layer formats between iterations
//! (paper Algorithm 1). At deployment the weights and the format assignment
//! are frozen, so that work is pure overhead. This crate is the serving
//! half of the system:
//!
//! * [`CompiledModel`] — a trained [`fast_nn::Sequential`] frozen for
//!   inference: each layer's weights are quantized to its configured BFP
//!   format once (deterministically, so replicas are bit-identical) and
//!   replayed from a cache on every request; activations are still
//!   quantized per request, preserving the fake-quant fidelity of
//!   DESIGN.md §3; packed BFP GEMMs run on the integer-domain kernels
//!   (i8×i8→i32, DESIGN.md §11).
//! * [`Server`] — one shared MPMC work queue per resident model, pulled
//!   from by that model's replica workers, with shape-bucketed continuous
//!   batching: an idle worker ships whatever is queued (up to
//!   [`BatchConfig::max_batch`]) instead of holding batches open, so
//!   backlog fills batches and light load pays one forward of latency.
//!   Several models can be resident at once ([`Server::builder`]), each
//!   with its own precision profile and hot-reload generation.
//! * [`ServeRequest`] / [`ServeError`] — the typed request surface: model
//!   routing, per-request deadlines, deadline-aware admission control
//!   (reject-fast load shedding), and every failure mode as a typed value.
//! * [`ServeStats`] — batch-size histograms plus queue-residency and
//!   service-time [`LatencyHistogram`]s, shed/missed counters, and a
//!   queue-depth gauge.
//!
//! ```
//! use fast_nn::{models::mlp, set_uniform_precision, LayerPrecision};
//! use fast_serve::{BatchConfig, CompiledModel, Server};
//! use fast_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = mlp(&[4, 16, 2], &mut rng);
//! set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
//! let server = Server::start(
//!     vec![CompiledModel::compile(model, 0)],
//!     BatchConfig::default(),
//! );
//! let logits = server.infer(Tensor::zeros(vec![1, 4]));
//! assert_eq!(logits.shape(), &[1, 2]);
//! let stats = server.shutdown();
//! assert_eq!(stats.samples, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod compiled;
mod request;
mod server;
mod stats;

pub use batcher::BatchConfig;
pub use compiled::CompiledModel;
pub use request::{Outcome, Pending, ServeError, ServeRequest};
pub use server::{Server, ServerBuilder};
pub use stats::{LatencyHistogram, ServeStats};
