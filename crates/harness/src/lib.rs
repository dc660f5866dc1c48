//! Lifecycle conformance and numerical-variability harnesses (DESIGN.md §13).
//!
//! Two drivers built on the whole stack:
//!
//! * [`lifecycle`] — pushes a model-zoo workload through the full pipeline
//!   (FAST-Adaptive training → checkpoint → bit-exact resume → frozen
//!   compile → batched serving under concurrent load → mid-traffic hot
//!   reload) and asserts the invariants every stage owes the next. The
//!   conformance suite in `tests/lifecycle.rs` runs it for every zoo
//!   workload across the `{Replay, Integer} × {Lfsr, Counter}` mode matrix.
//! * [`variability`] — sweeps seeds × the numeric-format zoo × rounding
//!   modes on fixed training runs and distils each run into deterministic
//!   divergence metrics (loss-curve divergence, final-weight L2/ULP
//!   distance, steps-to-target-accuracy). The `variability_bench` binary
//!   records them into `BENCH_variability.json` at the repo root and
//!   compares a fresh run against that record bit for bit.
//!
//! Both drivers use only deterministic inputs ([`workloads`] wraps
//! `fast_data`'s seeded generators), so every number they produce is
//! bit-reproducible across runs and worker counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The workspace JSON codec, re-exported only for `benchmark/`, which names
/// it by this path; everything else uses [`fast_telemetry::json`].
pub use fast_telemetry::json;
pub mod lifecycle;
pub mod variability;
pub mod workloads;

pub use lifecycle::{run_lifecycle, LifecycleConfig, LifecycleReport};
pub use variability::{run_variability, VariabilityRecord, VariabilitySweep};
pub use workloads::{Batch, Workload};
