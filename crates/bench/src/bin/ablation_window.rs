//! Ablation: the effect of (a) the e-bit exponent-window model and (b)
//! stochastic rounding of gradients (paper Section III-C: "using stochastic
//! rounding in conjunction with BFP is critical to model accuracy").

use fast_bench::runner::{run_images, RunCfg};
use fast_bench::table::{f, Table};
use fast_bench::workloads::{resnet20, ImageTask};
use fast_bench::Scale;
use fast_bfp::{BfpFormat, Rounding};
use fast_core::FixedPolicy;
use fast_nn::{LayerPrecision, NumericFormat};

fn precision(m: u32, windowed: bool, sr_gradients: bool) -> LayerPrecision {
    let fmt = BfpFormat::high().with_mantissa_bits(m).expect("valid");
    let nearest = NumericFormat::Bfp {
        format: fmt,
        rounding: Rounding::Nearest,
        windowed,
    };
    let grad = NumericFormat::Bfp {
        format: fmt,
        rounding: if sr_gradients {
            Rounding::STOCHASTIC8
        } else {
            Rounding::Nearest
        },
        windowed,
    };
    LayerPrecision {
        weights: nearest,
        activations: nearest,
        gradients: grad,
    }
}

fn main() {
    let scale = Scale::from_args();
    let task = ImageTask::at(scale);
    let data = task.dataset(123);
    let epochs = scale.pick(6, 20);
    println!(
        "== Ablations: exponent window & stochastic rounding (m=2/3, {} epochs) ==\n",
        epochs
    );
    let mut t = Table::new(vec!["configuration", "best acc %"]);
    for (name, m, windowed, sr) in [
        ("m=3, windowed e=3, SR grads", 3, true, true),
        ("m=3, unbounded exp, SR grads", 3, false, true),
        ("m=3, unbounded exp, nearest grads", 3, false, false),
        ("m=2, windowed e=3, SR grads", 2, true, true),
        ("m=2, unbounded exp, SR grads", 2, false, true),
        ("m=2, unbounded exp, nearest grads", 2, false, false),
    ] {
        let model = resnet20(task.classes, false, 7);
        let cfg = RunCfg::images(epochs, 7);
        let mut hook = FixedPolicy {
            precision: precision(m, windowed, sr),
        };
        let run = run_images(model, &data, &cfg, &mut hook, None);
        t.row(vec![name.to_string(), f(run.best_quality(), 1)]);
        println!("{}", t.render());
    }
    println!(
        "Paper claims: SR on gradients is critical at low mantissa widths\n\
         (nearest-rounded gradients should lose several points at m=2)."
    );
}
