//! Unified telemetry for the FAST reproduction: one lock-free metrics core
//! shared by training, quantization and serving (DESIGN.md §15).
//!
//! The crate is dependency-free on purpose — every layer (`fast_tensor`
//! GEMM kernels, `fast_nn` quantization and the trainer, `fast_core`'s
//! precision controller, `fast_serve`'s dispatcher) imports it without
//! cycles, and nothing heavier than a relaxed atomic ever lands on a hot
//! path.
//!
//! Three primitives, one namespace:
//!
//! * **Metric handles** — [`Counter`], [`Gauge`] and [`Histogram`] are
//!   `Arc`-backed atomics handed out by a [`Registry`]. Registering the
//!   same `(name, labels)` twice returns the same series, so static call
//!   sites (`OnceLock<Counter>`) and per-model serving metrics coexist.
//!   The 496-bucket [`LatencyHistogram`] (~6% resolution, 4 KiB, mergeable)
//!   is the shared histogram representation; [`AtomicHistogram`] is its
//!   lock-free recording twin.
//! * **Spans** — [`span!`] plants a `static` site that is a relaxed
//!   load + branch when no collector is installed ([`set_collection`]),
//!   and a `fast_span_ns{span="..."}` histogram sample when one is.
//!   Collection is bit-invisible: it reads clocks and bumps atomics, never
//!   touches RNG streams or tensor data.
//! * **Exporters** — [`Registry::metrics_text`] renders Prometheus text
//!   exposition (histograms as quantile summaries);
//!   [`Registry::snapshot`] captures a [`Snapshot`] whose JSON encoding
//!   ([`Snapshot::to_json`]/[`Snapshot::from_json`]) round-trips exactly,
//!   carrying raw histogram buckets so post-hoc merging stays possible.
//!   The encoding goes through [`json`], the workspace's one JSON codec,
//!   which the bench and harness records share.
//!
//! ```
//! use fast_telemetry::{Registry, Snapshot};
//!
//! let served = Registry::global().counter(
//!     "doc_requests_total",
//!     "requests served",
//!     &[("model", "mlp")],
//! );
//! served.inc();
//! let _span = fast_telemetry::span!("doc.example");
//! let snap = Registry::global().snapshot();
//! let back = Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
pub mod json;
mod registry;
mod snapshot;
mod span;

pub use hist::{AtomicHistogram, LatencyHistogram};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{Snapshot, SnapshotEntry, SnapshotValue};
pub use span::{collection_enabled, set_collection, SpanGuard, SpanSite};
