//! Standard workload builders at quick/full scale: the evaluation models of
//! the paper's claims paired with their synthetic datasets.

use crate::Scale;
use fast_data::{SequenceTask, SyntheticDetection, SyntheticImages};
use fast_nn::models::{
    resnet_lite, tiny_transformer, tiny_yolo, ResNetConfig, TransformerConfig, YoloConfig,
};
use fast_nn::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of every generated dataset; runs differ only in their model and
/// session seeds.
pub const DATA_SEED: u64 = 1234;

/// Image classification defaults shared by the CNN workloads.
#[derive(Debug, Clone, Copy)]
pub struct ImageTask {
    /// Classes.
    pub classes: usize,
    /// Image side.
    pub size: usize,
    /// Training set size.
    pub train_n: usize,
    /// Test set size.
    pub test_n: usize,
}

impl ImageTask {
    /// The scaled image task.
    pub fn at(scale: Scale) -> Self {
        ImageTask {
            classes: 10,
            size: 16,
            train_n: scale.pick(320, 2560),
            test_n: scale.pick(200, 640),
        }
    }

    /// Generates the dataset.
    pub fn dataset(&self, seed: u64) -> SyntheticImages {
        SyntheticImages::generate(self.classes, self.size, self.train_n, self.test_n, seed)
    }
}

/// ResNet-18 analogue, the CNN of Table II, Fig 17, Fig 19 and Fig 20.
pub fn resnet18(classes: usize, seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    resnet_lite(ResNetConfig::resnet18(8, classes), &mut rng)
}

/// ResNet-20 analogue used by the Fig 6 / Fig 9 / Fig 18 experiments.
pub fn resnet20(classes: usize, symmetric: bool, seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ResNetConfig {
        symmetric,
        ..ResNetConfig::resnet20(8, classes)
    };
    resnet_lite(cfg, &mut rng)
}

/// The transformer workload (sequence reversal, BLEU proxy = token acc.).
pub struct SeqWorkload {
    /// Dataset.
    pub data: SequenceTask,
    /// Config used for the model.
    pub cfg: TransformerConfig,
}

impl SeqWorkload {
    /// Builds the scaled sequence workload.
    pub fn at(scale: Scale, seed: u64) -> Self {
        let vocab = 12;
        let seq_len = 8;
        let cfg = TransformerConfig {
            vocab,
            d_model: 32,
            heads: 4,
            ff_dim: 64,
            layers: 2,
            seq_len,
        };
        let data = SequenceTask::generate(
            vocab,
            seq_len,
            scale.pick(384, 2048),
            scale.pick(192, 512),
            seed,
        );
        SeqWorkload { data, cfg }
    }

    /// Builds the model.
    pub fn model(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        tiny_transformer(self.cfg, &mut rng)
    }
}

/// The detection workload (TinyYolo on synthetic scenes).
pub struct DetWorkload {
    /// Dataset.
    pub data: SyntheticDetection,
    /// Model/grid config.
    pub cfg: YoloConfig,
}

impl DetWorkload {
    /// Builds the scaled detection workload.
    pub fn at(scale: Scale, seed: u64) -> Self {
        let cfg = YoloConfig {
            in_channels: 3,
            image_size: 16,
            grid: 4,
            num_classes: 3,
            base_channels: 8,
        };
        let data = SyntheticDetection::generate(
            cfg.num_classes,
            cfg.image_size,
            scale.pick(256, 1536),
            scale.pick(128, 384),
            seed,
        );
        DetWorkload { data, cfg }
    }

    /// Builds the model.
    pub fn model(&self, seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        tiny_yolo(self.cfg, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_nn::{quant_layer_count, Layer, Session};
    use fast_tensor::Tensor;

    #[test]
    fn resnets_build_and_run() {
        for (name, mut model) in [
            ("resnet18", resnet18(4, 1)),
            ("resnet20", resnet20(4, false, 1)),
            ("resnet20 symmetric", resnet20(4, true, 1)),
        ] {
            let mut s = Session::new(0);
            let y = model.forward(&Tensor::zeros(vec![2, 3, 16, 16]), &mut s);
            assert_eq!(y.shape(), &[2, 4], "{name}");
            assert!(quant_layer_count(&mut model) >= 8, "{name}");
        }
    }

    #[test]
    fn seq_and_det_workloads_build() {
        let seq = SeqWorkload::at(Scale::Quick, 1);
        let mut m = seq.model(2);
        let mut s = Session::new(0);
        let (x, _) = seq.data.train_batches(4, 0).remove(0);
        let y = m.forward(&x, &mut s);
        assert_eq!(y.shape()[1], seq.cfg.vocab);
        assert_eq!(seq.data.train_len(), 384);

        let det = DetWorkload::at(Scale::Quick, 1);
        let mut dm = det.model(2);
        let (dx, _) = det.data.train_batches(2, 0).remove(0);
        let dy = dm.forward(&dx, &mut s);
        assert_eq!(dy.shape(), &[2, 8, 4, 4]);
        assert_eq!(det.data.train_len(), 256);
    }
}
