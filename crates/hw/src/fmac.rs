//! Functional model of the FAST MAC (paper Fig 11 and Fig 13).
//!
//! An [`FmacCell`] holds a pre-loaded BFP weight group and consumes operand
//! groups chunk-serially — one pass per pair of 2-bit chunks — accumulating
//! into an FP32 register that spans many groups. Each group's contribution
//! is bit-identical to the direct BFP dot product of `fast_bfp::dot` (tested
//! here). Reloaded with one weight group per reduction group, a cell also
//! accumulates exactly the bits of the integer-domain GEMM
//! (`fast_tensor::qgemm::qmatmul`) on the same packed operands: the `fmac-int-kernel` claim of the `paper` ledger
//! (`fast_bench::claims`, DESIGN.md §4) checks this on an NN product with
//! equal group sizes.

use fast_bfp::dot::{dot_chunked, ChunkedDot};
use fast_bfp::ChunkedGroup;

/// One systolic cell of the FAST array.
#[derive(Debug, Clone, Default)]
pub struct FmacCell {
    weight: Option<ChunkedGroup>,
    accumulator: f32,
    passes: u64,
}

impl FmacCell {
    /// Creates an idle cell.
    pub fn new() -> Self {
        FmacCell::default()
    }

    /// Pre-stores a weight group (forward / backward-activation modes load
    /// via the E0/M0 ports, Fig 11).
    pub fn load_weight(&mut self, weight: ChunkedGroup) {
        self.weight = Some(weight);
    }

    /// Streams one operand group through the cell: runs
    /// `chunks(weight) × chunks(operand)` passes and adds the group dot
    /// product into the FP32 accumulator. Returns the contribution.
    ///
    /// # Panics
    ///
    /// Panics if no weight is loaded or group lengths differ.
    pub fn consume(&mut self, operand: &ChunkedGroup) -> f32 {
        let w = self
            .weight
            .as_ref()
            .expect("fMAC cell has no weight loaded");
        let ChunkedDot { value, passes } = dot_chunked(w, operand);
        self.passes += passes as u64;
        self.accumulator += value;
        value
    }

    /// The FP32 accumulator spanning groups.
    pub fn accumulator(&self) -> f32 {
        self.accumulator
    }

    /// Total chunk passes executed (the cycle-cost currency of Section V-B).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Clears the accumulator (new output tile).
    pub fn reset_accumulator(&mut self) {
        self.accumulator = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_bfp::dot::dot_f32;
    use fast_bfp::{BfpFormat, BfpGroup};
    use rand::{Rng, SeedableRng};

    fn quantize(xs: &[f32], m: u32) -> BfpGroup {
        BfpGroup::quantize_nearest(xs, BfpFormat::new(16, m, 8).unwrap())
    }

    #[test]
    fn cell_matches_direct_dot_product() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut cell = FmacCell::new();
        let w: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let wg = quantize(&w, 4);
        cell.load_weight(ChunkedGroup::from_group(&wg).unwrap());
        let mut expect = 0.0f32;
        for _ in 0..8 {
            let x: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let xg = quantize(&x, 2);
            let contribution = cell.consume(&ChunkedGroup::from_group(&xg).unwrap());
            let direct = dot_f32(&wg, &xg);
            assert_eq!(contribution, direct);
            expect += direct;
        }
        assert_eq!(cell.accumulator(), expect);
        // 4-bit × 2-bit = 2 passes per group (paper Fig 13).
        assert_eq!(cell.passes(), 8 * 2);
    }

    #[test]
    fn pass_count_scales_with_precision() {
        let mut cell = FmacCell::new();
        let wg = quantize(&[0.5f32; 16], 4);
        cell.load_weight(ChunkedGroup::from_group(&wg).unwrap());
        let x4 = ChunkedGroup::from_group(&quantize(&[0.25f32; 16], 4)).unwrap();
        let x2 = ChunkedGroup::from_group(&quantize(&[0.25f32; 16], 2)).unwrap();
        cell.consume(&x4);
        assert_eq!(cell.passes(), 4); // 4×4 bits → 4 passes
        cell.consume(&x2);
        assert_eq!(cell.passes(), 6); // +2 passes
    }

    #[test]
    fn reset_clears_accumulator_but_not_pass_count() {
        let mut cell = FmacCell::new();
        let wg = quantize(&[1.0f32; 16], 2);
        cell.load_weight(ChunkedGroup::from_group(&wg).unwrap());
        let xg = ChunkedGroup::from_group(&quantize(&[1.0f32; 16], 2)).unwrap();
        cell.consume(&xg);
        assert!(cell.accumulator() > 0.0);
        cell.reset_accumulator();
        assert_eq!(cell.accumulator(), 0.0);
        assert_eq!(cell.passes(), 1);
    }

    #[test]
    #[should_panic(expected = "no weight loaded")]
    fn consume_without_weight_panics() {
        let mut cell = FmacCell::new();
        let xg = ChunkedGroup::from_group(&quantize(&[1.0f32; 16], 2)).unwrap();
        cell.consume(&xg);
    }
}
