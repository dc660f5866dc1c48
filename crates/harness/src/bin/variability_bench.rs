//! Records the numerical-variability sweep into `BENCH_variability.json`
//! (DESIGN.md §13) and compares runs against the committed record.
//!
//! ```text
//! variability_bench [--quick] [--out FILE] [--baseline-file FILE] [--metrics-out FILE]
//! ```
//!
//! * Default: the full sweep (3 seeds × format zoo on MLP + ResNet-lite),
//!   printed to stdout or written to `--out`.
//! * `--quick`: the CI subset — a strict subset of the full sweep's cells
//!   with identical training budgets, so every record it produces must be
//!   bit-identical to the committed one.
//! * `--baseline-file`: after the run, compare each record against the
//!   committed file; any metric drift is listed and exits non-zero (the
//!   sweep is deterministic, so drift means the numerics changed).
//!
//! * `--metrics-out`: enable span collection for the sweep and dump the
//!   process-global telemetry snapshot (train/qgemm counters, span
//!   timings; DESIGN.md §15) as JSON after the run. Collection is
//!   bit-invisible (the determinism suite pins this), so the records are
//!   identical either way.
//!
//! Regenerate the committed record with:
//! `cargo run --release -p fast_harness --bin variability_bench -- --out BENCH_variability.json`

use fast_harness::variability::{compare_records, render_report};
use fast_harness::{run_variability, VariabilitySweep};
use fast_telemetry::json::Json;

fn main() {
    let mut quick = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--baseline-file" => {
                baseline = Some(args.next().expect("--baseline-file needs a path"));
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().expect("--metrics-out needs a path"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: variability_bench [--quick] [--out FILE] [--baseline-file FILE] \
                     [--metrics-out FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    if metrics_out.is_some() {
        fast_telemetry::set_collection(true);
    }

    let sweep = if quick {
        VariabilitySweep::quick()
    } else {
        VariabilitySweep::full()
    };
    let cells: usize =
        sweep.plans.iter().map(|p| p.formats.len()).sum::<usize>() * sweep.seeds.len();
    eprintln!(
        "running {} variability sweep: {cells} cells ({} seeds)...",
        if quick { "quick" } else { "full" },
        sweep.seeds.len()
    );
    let records = run_variability(&sweep);
    let report = render_report(&sweep, &records);
    match &out {
        Some(path) => {
            std::fs::write(path, &report).expect("write report");
            eprintln!("wrote {} records to {path}", records.len());
        }
        None => print!("{report}"),
    }

    if let Some(path) = &metrics_out {
        let snapshot = fast_telemetry::Registry::global().snapshot().to_json();
        std::fs::write(path, &snapshot)
            .unwrap_or_else(|e| panic!("cannot write metrics snapshot {path}: {e}"));
        eprintln!("wrote telemetry snapshot to {path}");
    }

    if let Some(path) = baseline {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let committed =
            Json::parse(&committed).unwrap_or_else(|e| panic!("malformed baseline {path}: {e}"));
        let current = Json::parse(&report).expect("fresh report must parse");
        match compare_records(&current, &committed) {
            Ok(matched) => {
                eprintln!("OK: {matched} records bit-identical to {path}");
            }
            Err(errors) => {
                eprintln!("FAIL: {} records drifted from {path}:", errors.len());
                for e in &errors {
                    eprintln!("  {e}");
                }
                std::process::exit(1);
            }
        }
    }
}
