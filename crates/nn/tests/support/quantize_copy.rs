//! The quantize-a-copy reference the plan's suites compare against, drawing
//! what a [`fast_nn::Session`] hands `prepare` for the same operands.

use fast_bfp::{CounterRng, GroupAxis, Noise, Rounding};
use fast_nn::NumericFormat;
use fast_tensor::Tensor;

/// The noise stream of a fresh `Session::new(seed)`, with the session's
/// reservation rule spelled out independently: an SR-rounded BFP operand
/// takes the next `rows × cols` positions, every other format takes none.
pub struct SessionNoise {
    rng: CounterRng,
    cursor: u64,
}

impl SessionNoise {
    pub fn new(seed: u64) -> Self {
        SessionNoise {
            rng: CounterRng::new(seed),
            cursor: 0,
        }
    }

    /// A copy of `src` quantized to `fmt` as the session's next operand.
    pub fn quantize_copy(&mut self, fmt: NumericFormat, src: &Tensor, axis: GroupAxis) -> Tensor {
        let noise = Noise {
            rng: self.rng,
            base: self.cursor,
            workers: 1,
        };
        if let NumericFormat::Bfp {
            rounding: Rounding::Stochastic { .. },
            ..
        } = fmt
        {
            self.cursor += src.numel() as u64;
        }
        let mut out = src.clone();
        fmt.quantize_matrix(&mut out, axis, noise);
        out
    }
}
