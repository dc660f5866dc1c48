//! Lifecycle tour: one workload through the whole pipeline.
//!
//! Drives ResNet-lite through the full train → checkpoint → bit-exact
//! resume → frozen compile → concurrent serving → mid-traffic hot-reload
//! lifecycle via `fast_dnn::harness::run_lifecycle` (DESIGN.md §13), then
//! prints what the run observed. Every hand-off invariant — resume
//! bit-identity, compiled ≡ eval parity, zero dropped requests,
//! bit-transparent reloads — is asserted *inside* the driver, so reaching
//! the report at all is the proof; the conformance suite in
//! `tests/lifecycle.rs` runs the same driver over all six zoo workloads.
//!
//! Run with: `cargo run --release --example lifecycle_tour`

use fast_dnn::harness::{run_lifecycle, LifecycleConfig, Workload};

fn main() {
    let cfg = LifecycleConfig::quick();
    println!(
        "driving {:?} through train -> checkpoint -> resume -> freeze -> serve -> reload",
        Workload::ResNetLite
    );
    println!(
        "  {} head steps, {} tail steps, {} continual-learning rounds x {} steps",
        cfg.head_steps, cfg.tail_steps, cfg.rounds, cfg.round_steps
    );
    println!(
        "  {} replicas serving {} submitters x {} requests per round\n",
        cfg.replicas, cfg.submitters, cfg.requests_per_submitter
    );

    let report = run_lifecycle(Workload::ResNetLite, &cfg);

    println!(
        "cell {} completed with every stage contract held:",
        report.cell
    );
    println!("  loss curve ({} steps):", report.losses.len());
    for (i, loss) in report.losses.iter().enumerate() {
        println!("    step {i:>2}  loss {loss:.6}");
    }
    println!(
        "  samples served:     {} (every submitted request answered)",
        report.served
    );
    println!(
        "  reload applications: {} (replicas x rounds, none failed)",
        report.reloads
    );
    println!(
        "  weight generation:  {} (one hot reload per round)",
        report.generation
    );
}
