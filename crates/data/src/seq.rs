//! Synthetic sequence-transduction task (the IWSLT14 stand-in).
//!
//! Inputs are random token sequences; the target is the *reversed* sequence
//! with a small deterministic token rotation, so the model must use
//! positional information and token identity — the two capabilities the
//! transformer's attention and embeddings provide. Token accuracy is the
//! BLEU proxy (DESIGN.md §2).

use crate::epoch_order;
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated sequence-to-sequence dataset with fixed-length sequences.
#[derive(Debug, Clone)]
pub struct SequenceTask {
    inputs: Vec<usize>,  // (n, seq)
    targets: Vec<usize>, // (n, seq)
    vocab: usize,
    seq_len: usize,
    train_n: usize,
    test_n: usize,
    seed: u64,
}

impl SequenceTask {
    /// Generates a reversal task over `vocab` tokens.
    pub fn generate(
        vocab: usize,
        seq_len: usize,
        train_n: usize,
        test_n: usize,
        seed: u64,
    ) -> Self {
        assert!(vocab >= 4, "vocab too small");
        assert!(seq_len >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = train_n + test_n;
        let mut inputs = Vec::with_capacity(total * seq_len);
        let mut targets = Vec::with_capacity(total * seq_len);
        for _ in 0..total {
            let seq: Vec<usize> = (0..seq_len).map(|_| rng.gen_range(0..vocab)).collect();
            for &t in &seq {
                inputs.push(t);
            }
            for i in 0..seq_len {
                // Reverse plus a +1 token rotation ("translation").
                targets.push((seq[seq_len - 1 - i] + 1) % vocab);
            }
        }
        SequenceTask {
            inputs,
            targets,
            vocab,
            seq_len,
            train_n,
            test_n,
            seed,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Number of training sequences.
    pub fn train_len(&self) -> usize {
        self.train_n
    }

    fn batch_from(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let t = self.seq_len;
        let mut x = Vec::with_capacity(indices.len() * t);
        let mut y = Vec::with_capacity(indices.len() * t);
        for &i in indices {
            x.extend(self.inputs[i * t..(i + 1) * t].iter().map(|&v| v as f32));
            y.extend_from_slice(&self.targets[i * t..(i + 1) * t]);
        }
        (Tensor::from_vec(vec![indices.len(), t], x), y)
    }

    /// Shuffled training batches: `(tokens (B, T), flat labels (B·T))`.
    pub fn train_batches(&self, batch_size: usize, epoch: u64) -> Vec<(Tensor, Vec<usize>)> {
        let order = epoch_order(self.train_n, self.seed, epoch);
        order
            .chunks(batch_size)
            .map(|c| self.batch_from(c))
            .collect()
    }

    /// Deterministic test batches.
    pub fn test_batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<usize>)> {
        let idx: Vec<usize> = (self.train_n..self.train_n + self.test_n).collect();
        idx.chunks(batch_size).map(|c| self.batch_from(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_is_rotated_reversal() {
        let d = SequenceTask::generate(10, 4, 1, 0, 3);
        let (x, y) = d.train_batches(1, 0).remove(0);
        let xs: Vec<usize> = x.data().iter().map(|&v| v as usize).collect();
        for i in 0..4 {
            assert_eq!(y[i], (xs[3 - i] + 1) % 10);
        }
    }

    #[test]
    fn shapes_and_label_flattening() {
        let d = SequenceTask::generate(8, 5, 6, 2, 1);
        let batches = d.train_batches(4, 0);
        assert_eq!(batches[0].0.shape(), &[4, 5]);
        assert_eq!(batches[0].1.len(), 20);
        assert_eq!(d.test_batches(2).len(), 1);
        assert_eq!(d.train_len(), 6);
    }
}
