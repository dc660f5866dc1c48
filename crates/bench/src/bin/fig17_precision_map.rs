//! Fig 17 — FAST-Adaptive precision map: how the per-layer (W, A, G)
//! BFP setting evolves across layers and training iterations.

use fast_bench::suite::Workload;
use fast_bench::table::{f, Table};
use fast_bench::workloads::CnnModel;
use fast_bench::Scale;
use fast_core::Setting;

fn main() {
    let scale = Scale::from_args();
    println!("== Paper Fig 17: FAST BFP precision over layers and iterations ==\n");
    let (run, ctl) = Workload::Cnn(CnnModel::ResNet18).run_fast_adaptive(scale, 5, false);
    println!(
        "FAST-Adaptive ResNet-18-lite: final accuracy {:.1}% after {} evals\n",
        run.final_quality(),
        run.evals.len()
    );

    println!("Setting legend (cost order, as in the paper):");
    for (i, s) in Setting::legend_order().iter().enumerate() {
        print!("  {i}={s}");
    }
    println!("\n");

    // Pick 5 evenly spaced layers like the paper's Fig 17.
    let layers = ctl.trace.layer_count();
    let picks: Vec<usize> = (0..5).map(|i| (i * (layers - 1)) / 4).collect();
    println!("ASCII heat map (rows = layers, deepest on top; columns = training deciles;");
    println!("cell = mean legend index 0..7):\n");
    let buckets = 10;
    let max_iter = ctl.trace.samples.last().map(|(i, _)| i + 1).unwrap_or(1);
    for &layer in picks.iter().rev() {
        let label = ctl
            .trace
            .layer_labels
            .get(layer)
            .cloned()
            .unwrap_or_default();
        print!("{:>24} |", format!("L{layer} {label}"));
        for b in 0..buckets {
            let from = b * max_iter / buckets;
            let to = ((b + 1) * max_iter / buckets).max(from + 1);
            print!(
                "{}",
                ctl.trace.mean_legend_index(layer, from, to).round() as usize
            );
        }
        println!();
    }

    println!("\nMean legend index by training phase (all layers):");
    let mut t = Table::new(vec!["layer", "first third", "middle third", "last third"]);
    for layer in 0..layers {
        t.row(vec![
            format!("{layer}"),
            f(ctl.trace.mean_legend_index(layer, 0, max_iter / 3), 2),
            f(
                ctl.trace
                    .mean_legend_index(layer, max_iter / 3, 2 * max_iter / 3),
                2,
            ),
            f(
                ctl.trace
                    .mean_legend_index(layer, 2 * max_iter / 3, max_iter),
                2,
            ),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nPaper's claim to verify: the precision (legend index) grows with BOTH\n\
         training progress (left to right) and layer depth (bottom to top)."
    );
}
