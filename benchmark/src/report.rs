//! The parent side: one child process per workload, never two at once, and
//! the tables printed from their result lines.

use crate::host;
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use crate::workloads::{Spec, SPECS};
use fast_harness::json::Json;
use std::process::{Command, Stdio};

/// Where a traced run writes `trace_<workload>.json`, relative to the
/// directory the benchmark is started from (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

pub fn workload_names() -> String {
    SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
}

/// `value` on one line. (`Json::render` indents; the result line of a run
/// must be a single line.)
pub fn compact(value: &Json) -> String {
    match value {
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(compact).collect::<Vec<_>>().join(", ")
        ),
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::Str(k.clone())), compact(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        scalar => scalar.render().trim_end().to_string(),
    }
}

struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process of its own (a clean peak RSS, and
/// the program's once-only environment reads start fresh) and waits for it
/// to end, so a second workload can never start while one is alive. The
/// child's report is echoed; its last line is parsed.
fn run_child(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Option<ChildResult> {
    if let Some(load) = host::load_average_1m() {
        if load > host::nproc() as f64 {
            eprintln!(
                "warning: 1-minute load average {load:.2} exceeds nproc {}; timings will be noisy",
                host::nproc()
            );
        }
    }
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop()?;
    for line in lines {
        println!("{line}");
    }
    let doc = Json::parse(last).ok()?;
    let Json::Obj(metrics) = doc.get("metrics")? else {
        return None;
    };
    let result = ChildResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: doc.get("attempted")?.as_f64()?,
        failed: doc.get("failed")?.as_f64()?,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            })
            .collect(),
    };
    println!(
        "  ops_attempted {} ops_failed {} -> {}",
        result.attempted,
        result.failed,
        if result.correct { "ok" } else { "FAILED" }
    );
    Some(result)
}

/// `run` and `trace`: every workload once; fails if any check of any
/// workload failed.
pub fn run_all(seed: u64, seconds: f64, traced: bool) -> bool {
    let mut all_ok = true;
    for spec in &SPECS {
        let ok = run_child(spec, seed, seconds, traced).is_some_and(|r| r.correct);
        if !ok {
            eprintln!("{}: FAILED", spec.name);
        }
        all_ok &= ok;
    }
    println!(
        "seed {seed} -> {}",
        if all_ok {
            "all checks passed"
        } else {
            "FAILED"
        }
    );
    all_ok
}

/// `aa`: `sets` interleaved sets of `runs` runs of this same build, run `r`
/// of every set on seed `seed + r`. Prints, per workload and end-to-end
/// metric, each set's quartiles, its spread (interquartile range over the
/// median) and how much worse each later set's median is than the first's,
/// against the metric's bound.
pub fn run_aa(seed: u64, seconds: f64, sets: usize, runs: usize) -> bool {
    assert!(
        sets >= 2 && runs >= 2,
        "aa needs at least two sets of two runs"
    );
    // values[workload][metric][set] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); sets]; END_TO_END.len()]; SPECS.len()];
    let mut all_ok = true;
    for run in 0..runs {
        for set in 0..sets {
            for (spec, by_metric) in SPECS.iter().zip(&mut values) {
                println!("--- run {run} set {set} {}", spec.name);
                match run_child(spec, seed + run as u64, seconds, false) {
                    Some(r) if r.correct => {
                        for (def, by_set) in END_TO_END.iter().zip(by_metric) {
                            let value = r
                                .metrics
                                .iter()
                                .find(|(n, _)| n == def.name)
                                .map(|&(_, v)| v);
                            by_set[set].push(value.expect("every end-to-end metric is reported"));
                        }
                    }
                    _ => {
                        eprintln!("{}: FAILED", spec.name);
                        all_ok = false;
                    }
                }
            }
        }
    }
    if !all_ok {
        return false;
    }
    println!("\n| workload | metric | set | q1 | median | q3 | spread % | worse than set 0 % | bound % | |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for (spec, by_metric) in SPECS.iter().zip(&values) {
        for (def, by_set) in END_TO_END.iter().zip(by_metric) {
            let base = quartiles(&by_set[0]).1;
            for (set, of_set) in by_set.iter().enumerate() {
                let (q1, q2, q3) = quartiles(of_set);
                let spread = (q3 - q1) / q2;
                let worse = match def.better {
                    "lower" => q2 / base - 1.0,
                    _ => 1.0 - q2 / base,
                };
                // setup_s is held to its bound between sets but not on spread,
                // as in the acceptance rule.
                let ok = worse <= def.bound && (spread <= def.bound || def.name == "setup_s");
                all_ok &= ok;
                println!(
                    "| {} | {} | {set} | {q1:.4} | {q2:.4} | {q3:.4} | {:.2} | {:+.2} | {:.0} | {} |",
                    spec.name,
                    def.name,
                    100.0 * spread,
                    100.0 * worse,
                    100.0 * def.bound,
                    if ok { "ok" } else { "MISS" }
                );
            }
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_is_one_line_and_parses_back() {
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("n".into(), Json::Num(3.0)),
            ("x".into(), Json::Num(1.25e-3)),
            ("s".into(), Json::Str("a \"b\"".into())),
            (
                "list".into(),
                Json::Arr(vec![Json::Null, Json::Obj(vec![])]),
            ),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
