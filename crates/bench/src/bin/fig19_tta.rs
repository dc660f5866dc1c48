//! Fig 19 — Time-to-Accuracy for ResNet-18 under each training system:
//! validation-accuracy curves against simulated hardware time, and the
//! normalized TTA table.

use fast_bench::formats::fig20_formats;
use fast_bench::suite::Workload;
use fast_bench::table::{f, Table};
use fast_bench::workloads::CnnModel;
use fast_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let wl = Workload::Cnn(CnnModel::ResNet18);
    println!("== Paper Fig 19: TTA for ResNet-18 across training systems ==\n");

    // Extra epochs beyond the scale default so slow-starting systems still
    // cross the target during the measured window.
    let extra = scale.pick(6, 8);

    // FAST-Adaptive first (the normalization baseline).
    eprintln!("[fig19] running FAST-Adaptive ...");
    let (fast_run, _) = wl.run_fast_adaptive_extended(scale, 5, true, extra);
    let mut runs = vec![("FAST-Adaptive".to_string(), fast_run)];
    for entry in fig20_formats() {
        eprintln!("[fig19] running {} ...", entry.name);
        let run = wl.run_entry_extended(scale, &entry, 5, extra);
        runs.push((entry.name.to_string(), run));
    }

    // Target accuracy: 85% of the best quality any system reached (the
    // paper uses a fixed 68% for ImageNet; our noisy quick-scale runs need
    // more slack).
    let best = runs
        .iter()
        .map(|(_, r)| r.best_quality())
        .fold(0.0f64, f64::max);
    let target = 0.85 * best;
    println!(
        "target accuracy: {:.1}% (85% of best-reached {:.1}%)\n",
        target, best
    );

    let fast_tta = runs[0].1.time_to_quality(target);
    let mut t = Table::new(vec![
        "system",
        "best acc %",
        "sim time to target (s)",
        "normalized TTA",
        "paper TTA",
    ]);
    let paper: &[(&str, &str)] = &[
        ("FAST-Adaptive", "1.00"),
        ("MidBFP", "1.86"),
        ("MSFP-12", "2.27"),
        ("INT-12", "2.92"),
        ("bfloat16", "3.85"),
        ("Nvidia MP", "5.69"),
        ("FP32", "8.51"),
        ("HFP8", "-"),
    ];
    for (name, run) in &runs {
        let tta = run.time_to_quality(target);
        let norm = match (tta, fast_tta) {
            (Some(t), Some(ft)) if ft > 0.0 => f(t / ft, 2),
            _ => "N/A".to_string(),
        };
        let paper_val = paper
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            name.clone(),
            f(run.best_quality(), 1),
            tta.map(|v| f(v, 4)).unwrap_or_else(|| "N/A".to_string()),
            norm,
            paper_val,
        ]);
    }
    print!("{}", t.render());

    println!("\nAccuracy vs simulated time (per system):");
    for (name, run) in &runs {
        let pts: Vec<String> = run
            .evals
            .iter()
            .map(|e| format!("({:.3}s, {:.1}%)", e.sim_seconds, e.quality))
            .collect();
        println!("  {name:>14}: {}", pts.join(" "));
    }
    println!(
        "\nPaper's shape to verify: FAST-Adaptive reaches the target first;\n\
         MidBFP ~2x slower; MSFP-12/INT-12 next; bfloat16/Nvidia MP 4-6x;\n\
         FP32 slowest at ~8.5x."
    );
}
