//! Fig 6 — distribution of the gap between each value's exponent and its
//! group's shared exponent, for weights / activations / gradients at group
//! sizes g ∈ {8, 16, 32}, captured from a mid-training CNN layer.

use fast_bench::runner::RunCfg;
use fast_bench::table::{f, Table};
use fast_bench::workloads::{resnet20, ImageTask};
use fast_bench::Scale;
use fast_bfp::stats::exponent_gap_histogram;
use fast_nn::{Layer, Session};
use fast_tensor::Tensor;

fn main() {
    let scale = Scale::from_args();
    println!("== Paper Fig 6: distribution of difference to BFP shared exponent ==");
    println!("(ResNet-20-lite, middle layer, halfway through training)\n");

    // Train to the halfway point of a normal schedule, keeping the model.
    let task = ImageTask::at(scale);
    let data = task.dataset(77);
    let mut model = resnet20(task.classes, false, 7);
    let epochs = scale.pick(4, 12);
    let cfg = RunCfg::images(epochs, 0);
    let mut session = Session::new(0);
    // This experiment reads the captured gradient tensors below; sensitivity
    // caching is off by default for plain training.
    session.record_sensitivity = true;
    let mut opt = fast_nn::Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    for epoch in 0..epochs {
        for (x, labels) in data.train_batches(cfg.batch, epoch as u64) {
            let out = model.forward(&x, &mut session);
            let (_, grad) = fast_nn::softmax_cross_entropy(&out, &labels);
            model.backward(&grad, &mut session);
            opt.step(&mut model);
        }
    }
    println!("trained {epochs} epochs; capturing tensors from the last batch...\n");

    // Capture W / A / G of a middle quantized layer (paper uses layer 10).
    let total = fast_nn::quant_layer_count(&mut model);
    let target = total / 2;
    let mut captured: Option<(Tensor, Option<Tensor>, Option<Tensor>, String)> = None;
    let mut idx = 0usize;
    model.visit_quant(&mut |q| {
        if idx == target {
            captured = Some((
                q.weight().clone(),
                q.last_input().cloned(),
                q.last_grad_output().cloned(),
                q.label(),
            ));
        }
        idx += 1;
    });
    let (w, a, g, label) = captured.expect("middle layer exists");
    println!("layer {target}/{total}: {label}\n");

    let max_gap = 16;
    for (name, tensor) in [("Weights", Some(w)), ("Activations", a), ("Gradients", g)] {
        let tensor = tensor.expect("tensor captured after training");
        let mut t = Table::new(vec!["gap", "g=8 (%)", "g=16 (%)", "g=32 (%)"]);
        let h8 = exponent_gap_histogram(tensor.data(), 8, max_gap);
        let h16 = exponent_gap_histogram(tensor.data(), 16, max_gap);
        let h32 = exponent_gap_histogram(tensor.data(), 32, max_gap);
        for gap in 0..=max_gap {
            let lbl = if gap == max_gap {
                format!(">={gap}")
            } else {
                gap.to_string()
            };
            t.row(vec![
                lbl,
                f(h8.bins[gap], 1),
                f(h16.bins[gap], 1),
                f(h32.bins[gap], 1),
            ]);
        }
        println!(
            "{name}: mean gap  g=8: {:.2}  g=16: {:.2}  g=32: {:.2}",
            h8.mean_gap, h16.mean_gap, h32.mean_gap
        );
        print!("{}", t.render());
        println!();
    }
    println!(
        "Paper's observations to verify: (1) gradients show a much wider gap\n\
         distribution than weights/activations (=> SR is essential for them);\n\
         (2) the mass moves right as g grows (=> larger groups truncate more)."
    );
}
