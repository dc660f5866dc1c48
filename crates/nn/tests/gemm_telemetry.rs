//! The plan's GEMM counters name the kernel that ran (DESIGN.md §15). The
//! counters are process-global, so this file holds one test: no other test
//! in its process executes a GEMM between the reads.

use fast_bfp::{BfpFormat, GroupAxis};
use fast_nn::qgemm::{execute, prepare, GemmOperand, Orient, Prepared};
use fast_nn::{NumericFormat, Session};
use fast_telemetry::Registry;
use fast_tensor::Tensor;

fn ramp(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| (i % 7) as f32 * 0.25 - 0.75)
        .collect();
    Tensor::from_vec(vec![rows, cols], data)
}

#[test]
fn gemm_counters_name_the_kernel_that_ran() {
    let count = |mode| {
        let labels = [("mode", mode)];
        let gemms = Registry::global().counter("fast_qgemm_gemms_total", "", &labels);
        let macs = Registry::global().counter("fast_qgemm_macs_total", "", &labels);
        (gemms.get(), macs.get())
    };
    let fmt = NumericFormat::bfp_nearest(BfpFormat::high());
    let mut s = Session::eval(0);
    let weight = ramp(32, 8);
    let w = prepare(&mut s, &weight, fmt, GroupAxis::AlongCol);
    let plain = ramp(4, 32);
    let mut salted = plain.clone();
    salted.data_mut()[5] = f32::NAN;
    let (replay, integer) = (count("replay"), count("integer"));

    // A plain packed pair runs the integer kernels.
    let x = prepare(&mut s, &plain, fmt, GroupAxis::AlongRow);
    let _ = execute(&mut s, Orient::Nn, &x, &w);
    assert_eq!(count("integer"), (integer.0 + 1, integer.1 + 4 * 32 * 8));
    assert_eq!(count("replay"), replay);

    // A NaN refuses the activation's pack: against the same packed weight,
    // the pair runs the dense kernels and says so.
    let x = prepare(&mut s, &salted, fmt, GroupAxis::AlongRow);
    assert!(matches!(x, GemmOperand::Own(Prepared::Dense(_))));
    let _ = execute(&mut s, Orient::Nn, &x, &w);
    assert_eq!(count("replay"), (replay.0 + 1, replay.1 + 4 * 32 * 8));
    assert_eq!(count("integer").0, integer.0 + 1);
}
