//! Training runners coupling the `fast-nn` loop with the `fast-hw` cost
//! meter, producing the quality-vs-simulated-time curves the training
//! claims of [`crate::claims`] read.

use fast_core::CostMeter;
use fast_data::{SequenceTask, SyntheticDetection, SyntheticImages};
use fast_nn::models::{decode_predictions, map_lite, yolo_loss, YoloConfig};
use fast_nn::{accuracy_percent, Sequential, Session, Sgd, TrainHook, Trainer};

/// Hyperparameters for a training run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// `(epoch, multiplier)` learning-rate drops.
    pub lr_drops: Vec<(usize, f32)>,
    /// RNG seed (model init seed is supplied separately by the caller).
    pub seed: u64,
}

impl RunCfg {
    /// Sensible defaults for the synthetic image task.
    pub fn images(epochs: usize, seed: u64) -> Self {
        RunCfg {
            epochs,
            batch: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            lr_drops: vec![(epochs / 2, 0.1)],
            seed,
        }
    }
}

/// One evaluation snapshot, taken after every epoch.
#[derive(Debug, Clone, Copy)]
pub struct EvalPoint {
    /// Validation quality (accuracy %, token accuracy %, or mAP %).
    pub quality: f64,
    /// Simulated hardware seconds so far (0 when no system attached).
    pub sim_seconds: f64,
}

/// A completed training run: one evaluation snapshot per epoch.
#[derive(Debug, Clone)]
pub struct TrainRun {
    /// Per-epoch evaluation snapshots.
    pub evals: Vec<EvalPoint>,
}

impl TrainRun {
    /// Best quality seen at any evaluation point.
    pub fn best_quality(&self) -> f64 {
        self.evals
            .iter()
            .map(|e| e.quality)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Final-epoch quality.
    pub fn final_quality(&self) -> f64 {
        self.evals.last().map(|e| e.quality).unwrap_or(0.0)
    }

    /// Simulated seconds at which `target` quality is first reached
    /// (linear interpolation between evaluation points), or `None`.
    pub fn time_to_quality(&self, target: f64) -> Option<f64> {
        let mut prev: Option<&EvalPoint> = None;
        for e in &self.evals {
            if e.quality >= target {
                return match prev {
                    Some(p) if e.quality > p.quality => {
                        let f = (target - p.quality) / (e.quality - p.quality);
                        Some(p.sim_seconds + f * (e.sim_seconds - p.sim_seconds))
                    }
                    _ => Some(e.sim_seconds),
                };
            }
            prev = Some(e);
        }
        None
    }
}

fn apply_lr_drops(opt: &mut Sgd, drops: &[(usize, f32)], epoch: usize, base_lr: f32) {
    let mut lr = base_lr;
    for &(at, mult) in drops {
        if epoch >= at {
            lr *= mult;
        }
    }
    opt.set_lr(lr);
}

fn eval_point(quality: f64, meter: &Option<CostMeter>) -> EvalPoint {
    EvalPoint {
        quality,
        sim_seconds: meter.as_ref().map_or(0.0, |m| m.total_seconds()),
    }
}

/// Trains an image classifier, evaluating every epoch.
pub fn run_images(
    model: Sequential,
    data: &SyntheticImages,
    cfg: &RunCfg,
    hook: &mut dyn TrainHook,
    mut meter: Option<CostMeter>,
) -> TrainRun {
    let opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut trainer = Trainer::new(model, opt, cfg.seed);
    let test = data.test_batches(cfg.batch.max(64));
    let mut evals = Vec::new();
    for epoch in 0..cfg.epochs {
        apply_lr_drops(&mut trainer.opt, &cfg.lr_drops, epoch, cfg.lr);
        for (x, labels) in data.train_batches(cfg.batch, epoch as u64) {
            trainer.step_classification(&x, &labels, hook);
            if let Some(m) = meter.as_mut() {
                m.record(&mut trainer.model);
            }
        }
        let quality = trainer.evaluate_classification(&test);
        evals.push(eval_point(quality, &meter));
    }
    TrainRun { evals }
}

/// Trains the transformer on the sequence task with Adam. [`Trainer`] owns
/// an `Sgd`, so this loop is the trainer's step written out, sensitivity
/// recording included.
pub fn run_sequence(
    model: Sequential,
    data: &SequenceTask,
    cfg: &RunCfg,
    hook: &mut dyn TrainHook,
    mut meter: Option<CostMeter>,
) -> TrainRun {
    use fast_nn::{softmax_cross_entropy, Adam, Layer};
    let mut session = Session::new(cfg.seed);
    let mut model = model;
    let mut opt = Adam::new(cfg.lr);
    let test = data.test_batches(cfg.batch.max(64));
    let mut evals = Vec::new();
    let mut iter = 0usize;
    for epoch in 0..cfg.epochs {
        for (x, labels) in data.train_batches(cfg.batch, epoch as u64) {
            hook.before_iteration(iter, &mut model);
            session.train = true;
            session.record_sensitivity = hook.wants_sensitivity();
            let logits = model.forward(&x, &mut session);
            let (_, grad) = softmax_cross_entropy(&logits, &labels);
            model.backward(&grad, &mut session);
            hook.after_backward(iter, &mut model);
            opt.step(&mut model);
            if let Some(m) = meter.as_mut() {
                m.record(&mut model);
            }
            iter += 1;
        }
        // Token accuracy as the BLEU proxy.
        session.train = false;
        let mut correct = 0.0f64;
        let mut total = 0usize;
        for (x, labels) in &test {
            let logits = model.forward(x, &mut session);
            correct += accuracy_percent(&logits, labels) * labels.len() as f64;
            total += labels.len();
        }
        session.train = true;
        evals.push(eval_point(correct / total.max(1) as f64, &meter));
    }
    TrainRun { evals }
}

/// Trains TinyYolo on the detection task; quality = mAP@0.5 (%).
pub fn run_detection(
    model: Sequential,
    data: &SyntheticDetection,
    yolo_cfg: YoloConfig,
    cfg: &RunCfg,
    hook: &mut dyn TrainHook,
    mut meter: Option<CostMeter>,
) -> TrainRun {
    use fast_nn::Layer;
    let opt = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let mut trainer = Trainer::new(model, opt, cfg.seed);
    let test = data.test_batches(cfg.batch.max(32));
    let mut evals = Vec::new();
    for epoch in 0..cfg.epochs {
        apply_lr_drops(&mut trainer.opt, &cfg.lr_drops, epoch, cfg.lr);
        for (x, gts) in data.train_batches(cfg.batch, epoch as u64) {
            trainer.step_custom(&x, &mut |out| yolo_loss(out, &gts, yolo_cfg), hook);
            if let Some(m) = meter.as_mut() {
                m.record(&mut trainer.model);
            }
        }
        trainer.session.train = false;
        let mut dets = Vec::new();
        let mut gts_all = Vec::new();
        for (x, gts) in &test {
            let out = trainer.model.forward(x, &mut trainer.session);
            dets.extend(decode_predictions(&out, yolo_cfg, 0.3));
            gts_all.extend(gts.iter().cloned());
        }
        let quality = map_lite(&dets, &gts_all, yolo_cfg.num_classes, 0.5);
        evals.push(eval_point(quality, &meter));
    }
    TrainRun { evals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_nn::models::{tiny_transformer, tiny_yolo, TransformerConfig};
    use rand::SeedableRng;

    /// A hook that reads sensitivity, as Algorithm 1 does: from the second
    /// iteration on, every GEMM layer must hold the previous backward
    /// pass's `∇O`.
    struct SensitivityProbe {
        checked: usize,
    }

    impl TrainHook for SensitivityProbe {
        fn wants_sensitivity(&self) -> bool {
            true
        }

        fn before_iteration(&mut self, iter: usize, model: &mut Sequential) {
            use fast_nn::Layer;
            if iter == 0 {
                return;
            }
            model.visit_quant(&mut |q| {
                assert!(
                    q.last_grad_output().is_some(),
                    "{} holds no gradient at iteration {iter}",
                    q.label()
                );
            });
            self.checked += 1;
        }
    }

    #[test]
    fn runners_record_sensitivity_for_hooks_that_read_it() {
        let cfg = RunCfg {
            epochs: 1,
            batch: 8,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
            lr_drops: vec![],
            seed: 3,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);

        let tcfg = TransformerConfig {
            vocab: 6,
            d_model: 8,
            heads: 2,
            ff_dim: 16,
            layers: 1,
            seq_len: 4,
        };
        let seq = SequenceTask::generate(tcfg.vocab, tcfg.seq_len, 16, 8, 1);
        let mut probe = SensitivityProbe { checked: 0 };
        run_sequence(
            tiny_transformer(tcfg, &mut rng),
            &seq,
            &cfg,
            &mut probe,
            None,
        );
        assert_eq!(probe.checked, 1);

        let ycfg = YoloConfig {
            in_channels: 3,
            image_size: 16,
            grid: 4,
            num_classes: 2,
            base_channels: 4,
        };
        let det = SyntheticDetection::generate(ycfg.num_classes, ycfg.image_size, 16, 8, 1);
        let mut probe = SensitivityProbe { checked: 0 };
        run_detection(
            tiny_yolo(ycfg, &mut rng),
            &det,
            ycfg,
            &cfg,
            &mut probe,
            None,
        );
        assert_eq!(probe.checked, 1);
    }

    #[test]
    fn time_to_quality_interpolates() {
        let point = |quality, sim_seconds| EvalPoint {
            quality,
            sim_seconds,
        };
        let run = TrainRun {
            evals: vec![point(40.0, 1.0), point(60.0, 2.0)],
        };
        assert_eq!(run.time_to_quality(50.0), Some(1.5));
        assert_eq!(run.time_to_quality(40.0), Some(1.0));
        assert_eq!(run.time_to_quality(70.0), None);
        assert_eq!(run.best_quality(), 60.0);
        assert_eq!(run.final_quality(), 60.0);
    }
}
