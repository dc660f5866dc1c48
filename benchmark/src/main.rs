//! `fast_perf`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! fast_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! fast_perf run   --seed <n> [--seconds <s>]       all four, one child process each, end-to-end metrics
//! fast_perf trace --seed <n> [--seconds <s>]       all four, traced, per-layer metrics
//! fast_perf aa    --sets 2 --runs 5 [--seed <n>] [--seconds <s>]   same build against itself
//! ```

mod host;
mod layers;
mod metrics;
mod phases;
mod report;
mod runs;
mod spans;
mod stats;
mod workloads;

use fast_harness::json::Json;
use std::process::ExitCode;
use workloads::{Phase, Spec};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}`"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = parse(flag, value)?,
            "--seconds" => out.seconds = parse(flag, value)?,
            "--trace" => out.trace = parse::<u8>(flag, value)? != 0,
            "--sets" => out.sets = parse(flag, value)?,
            "--runs" => out.runs = parse(flag, value)?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some(m @ ("run" | "trace" | "aa")) => (m, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fast_perf: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        "one" => match args.workload.as_deref().and_then(workloads::spec_named) {
            Some(spec) => run_one(spec, &args),
            None => {
                eprintln!(
                    "fast_perf: --workload must be one of {}",
                    report::workload_names()
                );
                return ExitCode::from(2);
            }
        },
        "aa" => report::run_aa(args.seed, args.seconds, args.sets, args.runs),
        _ => report::run_all(args.seed, args.seconds, mode == "trace"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its result; the last line of
/// standard output is the result object.
fn run_one(spec: &'static Spec, args: &Args) -> bool {
    // The program reads its exec/SR mode and worker count from the
    // environment once, on first use; nothing has used them yet and no other
    // thread exists. One tensor worker: two gave no p50 gain on a 2-vCPU box
    // and widened the step's p95.
    std::env::set_var("FAST_TENSOR_WORKERS", "1");
    for var in ["FAST_QGEMM_MODE", "FAST_SR_MODE"] {
        std::env::remove_var(var);
    }
    for (var, value) in spec.env {
        std::env::set_var(var, value);
    }
    let load_at_start = host::load_average_1m();
    let outcome = if args.trace {
        runs::run_traced(spec, args.seed, args.seconds)
    } else {
        runs::run_untraced(spec, args.seed, args.seconds)
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  why: {}", spec.why);
    let defs: Vec<(&str, &str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    };
    assert_eq!(
        outcome.metrics.len(),
        defs.len(),
        "one value per declared metric"
    );
    for ((name, value), (declared, unit, better)) in outcome.metrics.iter().zip(&defs) {
        assert_eq!(name, declared, "metrics are reported in declaration order");
        println!("  {name:<34} {value:>16.6} {unit:<7} ({better} is better)");
    }
    for c in &outcome.checks {
        println!(
            "  check {:<28} {} {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let num = |v: f64| Json::Num(v);
    let context = Json::Obj(vec![
        ("workload".into(), Json::Str(spec.name.into())),
        ("seed".into(), num(args.seed as f64)),
        ("nproc".into(), num(host::nproc() as f64)),
        (
            "load_1m_at_start".into(),
            load_at_start.map_or(Json::Null, num),
        ),
        (
            "tensor_workers".into(),
            num(fast_tensor::parallelism().workers() as f64),
        ),
        (
            "server_workers".into(),
            num(f64::from(u8::from(spec.phase != Phase::Train))),
        ),
        ("generator_threads".into(), num(1.0)),
        (
            "threads_alive_at_exit".into(),
            host::thread_count().map_or(Json::Null, |n| num(n as f64)),
        ),
        (
            "exec_mode".into(),
            Json::Str(format!("{:?}", fast_nn::Session::default_exec_mode())),
        ),
        (
            "sr_mode".into(),
            Json::Str(format!("{:?}", fast_nn::Session::default_sr_mode())),
        ),
        ("git_commit".into(), Json::Str(host::git_commit())),
        (
            "units".into(),
            Json::Obj(
                outcome
                    .units
                    .iter()
                    .map(|&(k, n)| (k.to_string(), num(n as f64)))
                    .collect(),
            ),
        ),
        (
            "failed_checks".into(),
            Json::Arr(
                outcome
                    .checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(|c| Json::Str(c.name.into()))
                    .collect(),
            ),
        ),
    ]);
    println!("context {}", report::compact(&context));
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), num(outcome.attempted as f64)),
        ("failed".into(), num(outcome.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .zip(&defs)
                    .map(|(&(name, value), &(_, unit, _))| {
                        let entry = vec![
                            ("value".into(), Json::num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ];
                        (name.to_string(), Json::Obj(entry))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", report::compact(&result));
    correct
}
