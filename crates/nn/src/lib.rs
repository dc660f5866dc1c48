//! Quantization-aware DNN training substrate for the FAST reproduction.
//!
//! This crate provides everything the paper's evaluation trains:
//!
//! * The number-format zoo of paper Fig 2 ([`NumericFormat`]) and the
//!   per-layer `(W, A, G)` assignment ([`LayerPrecision`]) that Algorithm 1
//!   manipulates.
//! * The [`Layer`] trait with forward/backward, parameter visitation for
//!   optimizers, and [`QuantControlled`] access for the FAST controller.
//! * GEMM layers ([`Dense`], [`Conv2d`], [`DepthwiseConv2d`],
//!   [`MultiHeadSelfAttention`]) that quantize every training GEMM of paper
//!   Fig 3 along its reduction axis — all routed through the shared
//!   quantized-GEMM execution plan ([`qgemm`]): operands are packed into
//!   BFP-native form (integer mantissas + group scales) and multiplied on
//!   integer kernels, the software fMAC (DESIGN.md §9, §11).
//! * [`models`] — scaled-down analogues of the paper's six evaluation DNNs.
//! * Losses, optimizers (SGD/momentum, Adam), metrics and a [`Trainer`]
//!   with controller hooks.
//! * An inference-serving mode ([`Session::inference`]): weight-bearing
//!   layers quantize their weights once and replay the cached copy per
//!   request, invalidated by any weight update — the layer half of the
//!   `fast_serve` engine (DESIGN.md §8; fake-quant fidelity in §3).
//! * Checkpointing ([`Layer::visit_state`], [`Trainer::save_checkpoint`] /
//!   [`Trainer::resume`]): every piece of trajectory-determining state —
//!   parameters, buffers, per-layer formats, optimizer slots, RNG words —
//!   round-trips through `fast_ckpt` artifacts for bit-exact resume and
//!   serving hot reload (DESIGN.md §10).
//!
//! ```
//! use fast_nn::models::mlp;
//! use fast_nn::{LayerPrecision, Layer, Session, set_uniform_precision};
//! use fast_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = mlp(&[4, 16, 2], &mut rng);
//! // Train the whole network under the paper's HighBFP format:
//! set_uniform_precision(&mut model, LayerPrecision::bfp_fixed(4));
//! let mut session = Session::new(0);
//! let logits = model.forward(&Tensor::zeros(vec![1, 4]), &mut session);
//! assert_eq!(logits.shape(), &[1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod act;
mod attention;
mod conv;
mod embed;
mod frozen;
mod layer;
mod linear;
mod loss;
mod metrics;
mod model;
mod norm;
mod optim;
mod pool;
mod quant;
mod telemetry;
mod trainer;

pub mod models;
pub mod qgemm;

pub use act::{LeakyRelu, Relu};
pub use attention::MultiHeadSelfAttention;
pub use conv::{Conv2d, DepthwiseConv2d};
pub use embed::{Embedding, PositionalEmbedding};
pub use layer::{
    collect_precisions, parameter_count, quant_layer_count, set_uniform_precision, GemmShape,
    Layer, Param, QuantControlled, Session,
};
pub use linear::Dense;
pub use loss::{bce_with_logit, mse_loss, softmax_cross_entropy};
pub use metrics::{accuracy_percent, Running};
pub use model::{Residual, Sequential};
pub use norm::{BatchNorm2d, LayerNorm};
pub use optim::{Adam, Sgd};
pub use pool::{Flatten, GlobalAvgPool, MaxPool2d};
pub use qgemm::PlanStats;
pub use quant::{LayerPrecision, NumericFormat};
pub use trainer::{NoopHook, StepStats, TrainHook, Trainer};

// Return types of the `Session::default_{exec,sr}_mode` shims; go when they
// do.
pub use layer::{ExecMode, SrMode};

// Checkpoint vocabulary, re-exported so layer/optimizer/controller authors
// (and `fast_core`/`fast_serve`) share one `StateVisitor` without naming
// `fast_ckpt` directly.
pub use fast_ckpt::{StateVisitor, VisitState};
