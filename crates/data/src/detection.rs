//! Synthetic object-detection scenes (the PASCAL VOC stand-in).
//!
//! Images contain one or two axis-aligned filled rectangles on a noisy
//! background; the rectangle's class determines its colour. Ground truth is
//! expressed directly as [`GtBox`] values for the TinyYolo loss/mAP code.

use crate::epoch_order;
use fast_nn::models::GtBox;
use fast_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated detection dataset.
#[derive(Debug, Clone)]
pub struct SyntheticDetection {
    images: Vec<f32>,
    boxes: Vec<Vec<GtBox>>,
    size: usize,
    classes: usize,
    train_n: usize,
    test_n: usize,
    seed: u64,
}

impl SyntheticDetection {
    /// Generates scenes of `size × size × 3` with up to two objects drawn
    /// from `classes` colour classes.
    pub fn generate(classes: usize, size: usize, train_n: usize, test_n: usize, seed: u64) -> Self {
        assert!((1..=6).contains(&classes), "palette supports 1..=6 classes");
        assert!(size >= 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let total = train_n + test_n;
        let plane = size * size;
        let mut images = vec![0.0f32; total * 3 * plane];
        let mut boxes = Vec::with_capacity(total);
        let palette: [[f32; 3]; 6] = [
            [0.9, 0.2, 0.2],
            [0.2, 0.9, 0.2],
            [0.2, 0.2, 0.9],
            [0.9, 0.9, 0.2],
            [0.9, 0.2, 0.9],
            [0.2, 0.9, 0.9],
        ];
        for i in 0..total {
            let img = &mut images[i * 3 * plane..(i + 1) * 3 * plane];
            for v in img.iter_mut() {
                *v = rng.gen_range(0.35..0.65);
            }
            let n_obj = rng.gen_range(1..=2usize);
            let mut gt = Vec::with_capacity(n_obj);
            for _ in 0..n_obj {
                let class = rng.gen_range(0..classes);
                let w = rng.gen_range(0.2..0.45f32);
                let h = rng.gen_range(0.2..0.45f32);
                let cx = rng.gen_range(w / 2.0..1.0 - w / 2.0);
                let cy = rng.gen_range(h / 2.0..1.0 - h / 2.0);
                let x0 = ((cx - w / 2.0) * size as f32) as usize;
                let x1 = (((cx + w / 2.0) * size as f32) as usize).min(size - 1);
                let y0 = ((cy - h / 2.0) * size as f32) as usize;
                let y1 = (((cy + h / 2.0) * size as f32) as usize).min(size - 1);
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        for ch in 0..3 {
                            let noise: f32 = rng.gen_range(-0.05..0.05);
                            img[ch * plane + y * size + x] =
                                (palette[class][ch] + noise).clamp(0.0, 1.0);
                        }
                    }
                }
                gt.push(GtBox {
                    cx,
                    cy,
                    w,
                    h,
                    class,
                });
            }
            boxes.push(gt);
        }
        SyntheticDetection {
            images,
            boxes,
            size,
            classes,
            train_n,
            test_n,
            seed,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image side length.
    pub fn image_size(&self) -> usize {
        self.size
    }

    /// Number of training scenes.
    pub fn train_len(&self) -> usize {
        self.train_n
    }

    fn batch_from(&self, indices: &[usize]) -> (Tensor, Vec<Vec<GtBox>>) {
        let plane = 3 * self.size * self.size;
        let mut data = Vec::with_capacity(indices.len() * plane);
        let mut gts = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.images[i * plane..(i + 1) * plane]);
            gts.push(self.boxes[i].clone());
        }
        (
            Tensor::from_vec(vec![indices.len(), 3, self.size, self.size], data),
            gts,
        )
    }

    /// Shuffled training batches.
    pub fn train_batches(&self, batch_size: usize, epoch: u64) -> Vec<(Tensor, Vec<Vec<GtBox>>)> {
        let order = epoch_order(self.train_n, self.seed, epoch);
        order
            .chunks(batch_size)
            .map(|c| self.batch_from(c))
            .collect()
    }

    /// Deterministic test batches.
    pub fn test_batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<Vec<GtBox>>)> {
        let idx: Vec<usize> = (self.train_n..self.train_n + self.test_n).collect();
        idx.chunks(batch_size).map(|c| self.batch_from(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_are_normalized_and_within_bounds() {
        let d = SyntheticDetection::generate(3, 16, 20, 5, 9);
        for gts in &d.boxes {
            assert!(!gts.is_empty() && gts.len() <= 2);
            for b in gts {
                assert!(b.cx - b.w / 2.0 >= -1e-6 && b.cx + b.w / 2.0 <= 1.0 + 1e-6);
                assert!(b.cy - b.h / 2.0 >= -1e-6 && b.cy + b.h / 2.0 <= 1.0 + 1e-6);
                assert!(b.class < 3);
            }
        }
    }

    #[test]
    fn object_pixels_match_palette() {
        let d = SyntheticDetection::generate(1, 16, 4, 0, 2);
        // Class 0 is red-ish: inside the box, channel 0 should be high.
        let plane = 16 * 16;
        for (i, gts) in d.boxes.iter().enumerate() {
            let b = gts[0];
            let x = (b.cx * 16.0) as usize;
            let y = (b.cy * 16.0) as usize;
            let r = d.images[i * 3 * plane + y * 16 + x];
            assert!(r > 0.7, "center pixel red channel {r}");
        }
    }

    #[test]
    fn batching_shapes() {
        let d = SyntheticDetection::generate(2, 16, 9, 3, 4);
        let b = d.train_batches(4, 0);
        assert_eq!(b.len(), 3);
        assert_eq!(d.train_len(), 9);
        assert_eq!(b[0].0.shape(), &[4, 3, 16, 16]);
        assert_eq!(b[0].1.len(), 4);
    }
}
