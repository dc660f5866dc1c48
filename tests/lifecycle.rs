//! The train→freeze→serve lifecycle conformance suite (DESIGN.md §13).
//!
//! Every model-zoo workload runs the full pipeline — FAST-Adaptive
//! training → checkpoint → bit-exact resume → frozen compile → batched
//! serving under concurrent submitters → mid-traffic hot reload
//! (continual-learning loop). The invariants (bit-exact resume,
//! compiled ≡ eval parity, zero dropped requests, bit-transparent reloads)
//! are asserted inside `fast_harness::run_lifecycle`; each test here is
//! one workload's run.
//!
//! The configs are the harness's CI-scale `quick` settings, so this file
//! doubles as the `lifecycle-smoke` CI job (run there under both the
//! default worker pool and `FAST_TENSOR_WORKERS=1`).

use fast_dnn::harness::{run_lifecycle, LifecycleConfig, Workload};

fn sweep(workload: Workload) {
    let report = run_lifecycle(workload, &LifecycleConfig::quick());
    // The invariants are asserted inside the driver; re-check the report's
    // shape so a silently-degenerate run cannot pass.
    assert!(
        report.losses.len() >= 8,
        "{}: training must actually run: {:?}",
        report.cell,
        report.losses
    );
    assert_eq!(report.generation, 2, "{}: two reload rounds", report.cell);
    assert!(
        report.served >= 36,
        "{}: served {}",
        report.cell,
        report.served
    );
    assert_eq!(report.reloads, 4, "{}: 2 replicas × 2 rounds", report.cell);
}

#[test]
fn mlp_survives_the_full_lifecycle_matrix() {
    sweep(Workload::Mlp);
}

/// Telemetry neutrality (DESIGN.md §15): the full lifecycle — training
/// losses, resume parity, compiled≡eval serving parity, reload
/// transparency — must be bit-identical whether span collection is on or
/// off. The serving-parity and resume invariants are asserted *inside*
/// `run_lifecycle` (so the collector-on leg re-proves served outputs match
/// eval forwards bit for bit); the loss curves of the two legs are
/// compared here bit for bit on top.
#[test]
fn lifecycle_is_bit_identical_with_collector_installed() {
    let cfg = LifecycleConfig::quick();
    let off = run_lifecycle(Workload::Mlp, &cfg);
    fast_dnn::telemetry::set_collection(true);
    let on = run_lifecycle(Workload::Mlp, &cfg);
    fast_dnn::telemetry::set_collection(false);
    let bits = |r: &fast_dnn::harness::LifecycleReport| -> Vec<u64> {
        r.losses.iter().map(|l| l.to_bits()).collect()
    };
    assert_eq!(
        bits(&off),
        bits(&on),
        "span collection must not change a single loss bit across the lifecycle"
    );
    assert_eq!(off.served, on.served);
    assert_eq!(off.reloads, on.reloads);
}

#[test]
fn resnet_lite_survives_the_full_lifecycle_matrix() {
    sweep(Workload::ResNetLite);
}

#[test]
fn mobilenet_lite_survives_the_full_lifecycle_matrix() {
    sweep(Workload::MobileNetLite);
}

#[test]
fn vgg_lite_survives_the_full_lifecycle_matrix() {
    sweep(Workload::VggLite);
}

#[test]
fn transformer_lite_survives_the_full_lifecycle_matrix() {
    sweep(Workload::TransformerLite);
}

#[test]
fn yolo_lite_survives_the_full_lifecycle_matrix() {
    sweep(Workload::YoloLite);
}
