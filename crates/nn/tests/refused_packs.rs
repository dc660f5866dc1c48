//! A refused pack says why (DESIGN.md §15). The counters are
//! process-global, so this file holds one test: no other test in its
//! process prepares an operand between the reads.

use fast_bfp::{BfpFormat, GroupAxis};
use fast_nn::qgemm::prepare;
use fast_nn::{NumericFormat, Session};
use fast_telemetry::Registry;
use fast_tensor::Tensor;

#[test]
fn each_refusal_bumps_its_own_reason() {
    let reasons = ["subnormal", "nonfinite", "wide"];
    let read = || {
        reasons.map(|reason| {
            Registry::global()
                .counter("fast_qgemm_refused_packs_total", "", &[("reason", reason)])
                .get()
        })
    };
    let narrow = NumericFormat::bfp_stochastic(BfpFormat::high());
    let wide = NumericFormat::bfp_nearest(BfpFormat::new(16, 8, 8).unwrap());
    let plain = Tensor::from_vec(vec![2, 16], (0..32).map(|i| i as f32 * 0.25).collect());
    let salted = |bad: f32| {
        let mut t = plain.clone();
        t.data_mut()[5] = bad;
        t
    };
    let mut s = Session::new(0);
    let before = read();
    let bump = |cases: &[(Tensor, NumericFormat)], s: &mut Session| {
        for (t, fmt) in cases {
            let _ = prepare(s, t, *fmt, GroupAxis::AlongRow);
        }
    };

    bump(&[(plain.clone(), narrow)], &mut s);
    assert_eq!(read(), before, "a plain operand packs");
    bump(&[(salted(1e-40), narrow)], &mut s);
    assert_eq!(read(), [before[0] + 1, before[1], before[2]]);
    bump(&[(salted(f32::NAN), narrow)], &mut s);
    assert_eq!(read(), [before[0] + 1, before[1] + 1, before[2]]);
    bump(&[(plain.clone(), wide)], &mut s);
    assert_eq!(read(), [before[0] + 1, before[1] + 1, before[2] + 1]);
    // `refused_packs` keeps its meaning: values the packer refuses, which
    // serving isolates per sample; a wide format is not one.
    assert_eq!(s.plan_stats.refused_packs, 2);
}
