//! The reference `r(X)` (paper Eq. 2): the `BfpGroup`-per-chunk body that
//! `fast_bfp::relative_improvement` had before it became an integer kernel,
//! kept verbatim as the oracle the kernel must match bit for bit. Included
//! by `crates/bfp/tests/proptests.rs` and `crates/core/tests/controller_oracle.rs`.

use fast_bfp::{BfpFormat, BfpGroup};

pub fn relative_improvement_oracle(values: &[f32], group_size: usize) -> f32 {
    assert!(group_size > 0, "group size must be positive");
    let fmt4 = BfpFormat::new(group_size, 4, 8).expect("static format is valid");
    let mut numer = 0.0f64;
    let mut denom = 0.0f64;
    for chunk in values.chunks(group_size) {
        let g4 = BfpGroup::quantize_nearest(chunk, fmt4);
        // ulp of the 4-bit representation: 2^(E - 3).
        let ulp4 = g4.scale();
        for &m in g4.mantissas() {
            let mag = m.unsigned_abs();
            let low = (mag & 0b11) as f64;
            let high = (mag >> 2) as f64;
            numer += low * ulp4;
            denom += high * 4.0 * ulp4;
        }
    }
    if denom == 0.0 {
        if numer == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        (numer / denom) as f32
    }
}
