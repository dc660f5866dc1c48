//! The paper-scale workloads (Table II rows, Fig 20 panels) with one entry
//! point for fixed-format training and one for FAST-Adaptive training,
//! both charged to the cost meter of the system that runs them.

use crate::formats::FormatEntry;
use crate::runner::{run_detection, run_images, run_sequence, RunCfg, TrainRun};
use crate::workloads::{resnet18, DetWorkload, ImageTask, SeqWorkload, DATA_SEED};
use crate::Scale;
use fast_core::{CostMeter, DimScale, EpsilonSchedule, FastController, FixedPolicy};
use fast_hw::SystemConfig;
use fast_nn::TrainHook;

/// One evaluation workload of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ResNet-18 image classifier.
    ResNet18,
    /// The transformer sequence task.
    Transformer,
    /// The TinyYolo detection task.
    Yolo,
}

impl Workload {
    /// Paper row label.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ResNet18 => "ResNet-18",
            Workload::Transformer => "Transformer",
            Workload::Yolo => "YOLOv2",
        }
    }

    /// The dimension scale lifting lite-model GEMMs to paper-scale
    /// equivalents for the hardware cost model (DESIGN.md §6).
    pub fn dim_scale(&self) -> DimScale {
        match self {
            Workload::ResNet18 | Workload::Yolo => DimScale::CNN_PAPER,
            Workload::Transformer => DimScale::TRANSFORMER_PAPER,
        }
    }

    /// Default epoch count at a scale.
    pub fn epochs(&self, scale: Scale) -> usize {
        match self {
            Workload::ResNet18 => scale.pick(6, 24),
            Workload::Transformer | Workload::Yolo => scale.pick(8, 30),
        }
    }

    fn run_cfg(&self, epochs: usize, seed: u64) -> RunCfg {
        match self {
            Workload::ResNet18 => RunCfg::images(epochs, seed),
            Workload::Transformer => RunCfg {
                epochs,
                batch: 32,
                lr: 2e-3,
                momentum: 0.9,
                weight_decay: 0.0,
                lr_drops: vec![],
                seed,
            },
            Workload::Yolo => RunCfg {
                epochs,
                batch: 32,
                lr: 0.02,
                momentum: 0.9,
                weight_decay: 5e-4,
                lr_drops: vec![(epochs / 2, 0.1)],
                seed,
            },
        }
    }

    /// Trains under a fixed format, metered on the format's system.
    /// `extra_epochs` extends the schedule beyond the scale default (the
    /// time-to-accuracy claims use it so slow-starting systems still reach
    /// the target).
    pub fn run_fixed(
        &self,
        scale: Scale,
        entry: &FormatEntry,
        seed: u64,
        extra_epochs: usize,
    ) -> TrainRun {
        let precision = entry.precision;
        let policy = |_: &RunCfg, _: usize| FixedPolicy { precision };
        self.train(scale, seed, extra_epochs, (entry.system)(), policy)
            .0
    }

    /// Trains under FAST-Adaptive (Algorithm 1) metered on the FAST system,
    /// returning the run and the controller with its precision trace.
    pub fn run_adaptive(
        &self,
        scale: Scale,
        seed: u64,
        extra_epochs: usize,
    ) -> (TrainRun, FastController) {
        // The controller's horizon is the run's iteration count, derived
        // from the dataset the run trains on.
        let controller = |cfg: &RunCfg, train_len: usize| {
            let iters = cfg.epochs * train_len.div_ceil(cfg.batch);
            FastController::new(iters.max(1), EpsilonSchedule::paper_default())
        };
        self.train(scale, seed, extra_epochs, SystemConfig::fast(), controller)
    }

    /// Builds the workload's data and model and trains them under the hook
    /// `hook(cfg, train_len)` makes.
    fn train<H: TrainHook>(
        &self,
        scale: Scale,
        seed: u64,
        extra_epochs: usize,
        system: SystemConfig,
        hook: impl FnOnce(&RunCfg, usize) -> H,
    ) -> (TrainRun, H) {
        let cfg = self.run_cfg(self.epochs(scale) + extra_epochs, seed);
        let meter = Some(CostMeter::new(system).with_dim_scale(self.dim_scale()));
        match self {
            Workload::ResNet18 => {
                let task = ImageTask::at(scale);
                let data = task.dataset(DATA_SEED);
                let mut h = hook(&cfg, data.train_len());
                let model = resnet18(task.classes, seed);
                (run_images(model, &data, &cfg, &mut h, meter), h)
            }
            Workload::Transformer => {
                let wl = SeqWorkload::at(scale, DATA_SEED);
                let mut h = hook(&cfg, wl.data.train_len());
                let run = run_sequence(wl.model(seed), &wl.data, &cfg, &mut h, meter);
                (run, h)
            }
            Workload::Yolo => {
                let wl = DetWorkload::at(scale, DATA_SEED);
                let mut h = hook(&cfg, wl.data.train_len());
                let run = run_detection(wl.model(seed), &wl.data, wl.cfg, &cfg, &mut h, meter);
                (run, h)
            }
        }
    }
}
