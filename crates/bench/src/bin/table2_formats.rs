//! Table II — validation quality of every number format on every workload
//! (accuracy % for CNNs, token accuracy for the transformer, mAP for YOLO).

use fast_bench::formats::table2_formats;
use fast_bench::suite::Workload;
use fast_bench::table::{f, Table};
use fast_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("== Paper Table II: validation quality across number formats ==");
    println!("(synthetic stand-in tasks — compare the *ranking* of formats per row,");
    println!(" not absolute numbers; paper reference ranking shown below)\n");

    let formats = table2_formats();
    let mut header: Vec<String> = vec!["Model".to_string()];
    header.extend(formats.iter().map(|e| e.name.to_string()));
    header.push("FAST".to_string());
    let mut t = Table::new(header);

    for wl in Workload::all() {
        eprintln!("[table2] running {} ...", wl.name());
        let mut row = vec![wl.name().to_string()];
        for entry in &formats {
            let run = wl.run_entry(scale, entry, 5, false);
            row.push(f(run.best_quality(), 1));
        }
        let (fast_run, _) = wl.run_fast_adaptive(scale, 5, false);
        row.push(f(fast_run.best_quality(), 1));
        t.row(row);
        // Print incrementally so long runs show progress.
        println!("{}", t.render());
    }

    println!("Paper Table II reference (ImageNet/IWSLT14/VOC):");
    println!("  ResNet-18:  FP32 68.60 | bf16 68.55 | MP 68.57 | INT8 65.53 | INT12 68.51");
    println!("              MSFP-12 68.13 | LowBFP 63.10 | MidBFP 68.10 | HighBFP 68.57");
    println!("              HFP8 68.53 | FAST 68.52");
    println!("  Expected shape: FP32 ≈ bf16 ≈ MP ≈ INT12 ≈ HighBFP ≈ HFP8 ≈ FAST");
    println!("                  > MidBFP (−1-2 pts) > INT8, LowBFP (−4-6 pts)");
}
