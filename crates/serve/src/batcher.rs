//! Dynamic micro-batching: coalescing single-sample requests into batched
//! forwards and splitting the results back out (DESIGN.md §8, §14).
//!
//! Batching is transparent because every per-sample computation in the
//! forward path is independent along the batch dimension: activations are
//! quantized in groups that never cross samples (`AlongRow` groups live
//! inside one row; `AlongCol` im2col groups live inside one output-position
//! column), and the GEMM accumulates each output row in a fixed order
//! regardless of how many other rows are in flight. A coalesced batch
//! therefore returns bit-identical results to per-request forwards — the
//! `batching` tests and `crates/serve/tests/proptests.rs` pin this.

use crate::request::Response;
use fast_tensor::Tensor;
use std::sync::mpsc;
use std::time::Instant;

/// Batching policy for the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Maximum samples coalesced into one forward pass.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    /// 8-sample batches.
    fn default() -> Self {
        BatchConfig { max_batch: 8 }
    }
}

impl BatchConfig {
    /// A config with the given batch cap. (Historical name: under the old
    /// round-robin dispatcher this disabled the batch-hold window; the
    /// continuous-batching dispatcher never holds a batch open, so this is
    /// now just a `max_batch` constructor.)
    pub fn no_wait(max_batch: usize) -> Self {
        BatchConfig { max_batch }
    }
}

/// One queued inference request: an input tensor (leading dimension =
/// samples, usually 1), the channel its typed response is sent back on,
/// and the admission metadata the dispatcher needs (queue-residency
/// accounting and the optional absolute deadline).
#[derive(Debug)]
pub(crate) struct Request {
    pub input: Tensor,
    pub resp: mpsc::Sender<Response>,
    pub enqueued_at: Instant,
    pub deadline: Option<Instant>,
}

/// Number of samples a request input carries (its leading dimension).
pub(crate) fn sample_count(input: &Tensor) -> usize {
    assert!(input.rank() >= 1, "request input must have a batch dim");
    input.shape()[0]
}

/// Stacks request inputs along the leading (sample) dimension.
///
/// # Panics
///
/// Panics if `inputs` is empty or the trailing dimensions disagree.
pub(crate) fn stack_inputs(inputs: &[&Tensor]) -> Tensor {
    let first = inputs.first().expect("cannot stack an empty batch");
    let tail = &first.shape()[1..];
    let mut total = 0usize;
    for t in inputs {
        assert_eq!(
            &t.shape()[1..],
            tail,
            "all batched requests must share per-sample shape"
        );
        total += sample_count(t);
    }
    let mut shape = vec![total];
    shape.extend_from_slice(tail);
    let mut data = Vec::with_capacity(total * tail.iter().product::<usize>().max(1));
    for t in inputs {
        data.extend_from_slice(t.data());
    }
    Tensor::from_vec(shape, data)
}

/// Splits a batched output back into per-request tensors.
///
/// The model may emit several output rows per input sample (e.g. the
/// transformer emits `seq_len` logit rows per sequence), so the split is
/// proportional: with `R` output rows for `S` total samples, each sample
/// owns `R / S` consecutive rows.
///
/// # Panics
///
/// Panics if the output's leading dimension is not divisible by the total
/// sample count.
pub(crate) fn split_output(out: &Tensor, samples: &[usize]) -> Vec<Tensor> {
    let total: usize = samples.iter().sum();
    let out_rows = out.shape()[0];
    assert!(
        total > 0 && out_rows.is_multiple_of(total),
        "output rows {out_rows} not divisible by batch samples {total}"
    );
    let rows_per_sample = out_rows / total;
    let row_width: usize = out.shape()[1..].iter().product::<usize>().max(1);
    let mut pieces = Vec::with_capacity(samples.len());
    let mut row = 0usize;
    for &s in samples {
        let rows = s * rows_per_sample;
        let mut shape = vec![rows];
        shape.extend_from_slice(&out.shape()[1..]);
        let start = row * row_width;
        let end = (row + rows) * row_width;
        pieces.push(Tensor::from_vec(shape, out.data()[start..end].to_vec()));
        row += rows;
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_and_split_round_trip() {
        let a = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![2, 3], vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let stacked = stack_inputs(&[&a, &b]);
        assert_eq!(stacked.shape(), &[3, 3]);
        let back = split_output(&stacked, &[1, 2]);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn split_handles_multiple_rows_per_sample() {
        // 2 samples, 4 output rows → 2 rows per sample (transformer-style).
        let out = Tensor::from_vec(vec![4, 2], (0..8).map(|v| v as f32).collect());
        let pieces = split_output(&out, &[1, 1]);
        assert_eq!(pieces[0].shape(), &[2, 2]);
        assert_eq!(pieces[0].data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(pieces[1].data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn stack_preserves_image_shapes() {
        let a = Tensor::zeros(vec![1, 3, 4, 4]);
        let b = Tensor::zeros(vec![1, 3, 4, 4]);
        let stacked = stack_inputs(&[&a, &b]);
        assert_eq!(stacked.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "per-sample shape")]
    fn mismatched_shapes_panic() {
        let a = Tensor::zeros(vec![1, 3]);
        let b = Tensor::zeros(vec![1, 4]);
        let _ = stack_inputs(&[&a, &b]);
    }
}
