//! Fig 9 — temporal and layerwise precision schedules: Low-to-High vs
//! High-to-Low, 3 seeds each, mean ± std of validation accuracy.
//!
//! Temporal: BFP(m=3) ↔ FP32 switched at the halfway iteration.
//! Layerwise: BFP(m=3) ↔ FP32 split at half the depth of a *symmetric*
//! ResNet-20 (identical filter layout in both halves, as the paper does).

use fast_bench::runner::{run_images, RunCfg};
use fast_bench::table::{f, Table};
use fast_bench::workloads::{resnet20, ImageTask};
use fast_bench::Scale;
use fast_core::{LayerwisePolicy, TemporalPolicy};
use fast_nn::TrainHook;

fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    let scale = Scale::from_args();
    let seeds = [11u64, 22, 33];
    let task = ImageTask::at(scale);
    let epochs = scale.pick(8, 24);
    println!("== Paper Fig 9: temporal & layerwise precision schedules ==");
    println!(
        "(symmetric ResNet-20-lite, {} seeds, {} epochs)\n",
        seeds.len(),
        epochs
    );

    let data = task.dataset(99);
    let iters_per_epoch = task.train_n.div_ceil(32);
    let total_iters = epochs * iters_per_epoch;

    type HookMaker = Box<dyn Fn(usize) -> Box<dyn TrainHook>>;
    let schemes: Vec<(&str, bool, HookMaker)> = vec![
        (
            "Temporal Low-to-High",
            false,
            Box::new(move |iters| Box::new(TemporalPolicy::low_to_high(iters))),
        ),
        (
            "Temporal High-to-Low",
            false,
            Box::new(move |iters| Box::new(TemporalPolicy::high_to_low(iters))),
        ),
        (
            "Layerwise Low-to-High",
            true,
            Box::new(|_| Box::new(LayerwisePolicy::low_to_high())),
        ),
        (
            "Layerwise High-to-Low",
            true,
            Box::new(|_| Box::new(LayerwisePolicy::high_to_low())),
        ),
    ];

    let mut t = Table::new(vec!["scheme", "final acc % (mean)", "std", "best acc %"]);
    let mut curves: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, symmetric, make_hook) in &schemes {
        let mut finals = Vec::new();
        let mut bests = Vec::new();
        let mut per_epoch: Vec<Vec<f64>> = vec![Vec::new(); epochs];
        for &seed in &seeds {
            let model = resnet20(task.classes, *symmetric, seed);
            let cfg = RunCfg::images(epochs, seed);
            let mut hook = make_hook(total_iters);
            let run = run_images(model, &data, &cfg, hook.as_mut(), None);
            finals.push(run.final_quality());
            bests.push(run.best_quality());
            for (e, p) in run.evals.iter().enumerate() {
                per_epoch[e].push(p.quality);
            }
        }
        let (mf, sf) = mean_std(&finals);
        let (mb, _) = mean_std(&bests);
        t.row(vec![name.to_string(), f(mf, 2), f(sf, 2), f(mb, 2)]);
        curves.push((
            name.to_string(),
            per_epoch.iter().map(|v| mean_std(v).0).collect(),
        ));
    }
    print!("{}", t.render());

    println!("\nAccuracy curves (mean over seeds):");
    let mut ct = Table::new(
        std::iter::once("epoch".to_string())
            .chain(curves.iter().map(|(n, _)| n.clone()))
            .collect::<Vec<_>>(),
    );
    for e in 0..epochs {
        let mut row = vec![format!("{}", e + 1)];
        for (_, c) in &curves {
            row.push(f(c[e], 1));
        }
        ct.row(row);
    }
    print!("{}", ct.render());
    println!(
        "\nPaper's claims to verify: Low-to-High beats High-to-Low in BOTH the\n\
         temporal (left panel) and layerwise (right panel) settings — early\n\
         iterations and early layers tolerate low precision best."
    );
}
