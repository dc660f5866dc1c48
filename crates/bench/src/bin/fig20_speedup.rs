//! Fig 20 — normalized training time and energy to reach a target quality,
//! for all six workloads under each training system.

use fast_bench::formats::fig20_formats;
use fast_bench::suite::Workload;
use fast_bench::table::{f, Table};
use fast_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("== Paper Fig 20: normalized training time and energy ==");
    println!("(N/A = target quality never reached, as in the paper)\n");

    let formats = fig20_formats();
    let mut time_table = Table::new(
        std::iter::once("Model (time)".to_string())
            .chain(std::iter::once("FAST-Adaptive".to_string()))
            .chain(formats.iter().map(|e| e.name.to_string()))
            .collect::<Vec<_>>(),
    );
    let mut energy_table = Table::new(
        std::iter::once("Model (energy)".to_string())
            .chain(std::iter::once("FAST-Adaptive".to_string()))
            .chain(formats.iter().map(|e| e.name.to_string()))
            .collect::<Vec<_>>(),
    );

    // Quick scale covers three representative workloads (one CNN, the
    // transformer, the detector); full scale runs all six paper rows.
    let workloads: Vec<_> = match scale {
        fast_bench::Scale::Quick => Workload::all()
            .into_iter()
            .filter(|w| matches!(w.name(), "ResNet-18" | "Transformer" | "YOLOv2"))
            .collect(),
        fast_bench::Scale::Full => Workload::all(),
    };
    let extra = scale.pick(6, 8);
    for wl in workloads {
        eprintln!("[fig20] {} / FAST-Adaptive ...", wl.name());
        let (fast_run, _) = wl.run_fast_adaptive_extended(scale, 5, true, extra);
        let mut runs = vec![fast_run];
        for entry in &formats {
            eprintln!("[fig20] {} / {} ...", wl.name(), entry.name);
            runs.push(wl.run_entry_extended(scale, entry, 5, extra));
        }
        let best = runs.iter().map(|r| r.best_quality()).fold(0.0f64, f64::max);
        let target = 0.85 * best;
        let fast_time = runs[0].time_to_quality(target);
        let fast_energy = runs[0].energy_to_quality(target);

        let norm = |v: Option<f64>, base: Option<f64>| match (v, base) {
            (Some(v), Some(b)) if b > 0.0 => f(v / b, 2),
            _ => "N/A".to_string(),
        };
        let mut trow = vec![format!("{} (tgt {:.1})", wl.name(), target)];
        let mut erow = vec![format!("{} (tgt {:.1})", wl.name(), target)];
        for r in &runs {
            trow.push(norm(r.time_to_quality(target), fast_time));
            erow.push(norm(r.energy_to_quality(target), fast_energy));
        }
        time_table.row(trow);
        energy_table.row(erow);
        println!("{}", time_table.render());
    }

    println!("{}", energy_table.render());
    println!(
        "Paper Fig 20 reference (ResNet-18 row): time FP32 8.71 | MP 5.84 |\n\
         bf16 3.94 | INT-12 2.95 | MSFP-12 2.32 | HFP8 2.03 | MidBFP 1.86 |\n\
         FAST 1.00; energy ratios track time closely. Expected shape: FAST\n\
         fastest and most efficient everywhere, FP32 6-9x worse, reduced\n\
         formats in between."
    );
}
