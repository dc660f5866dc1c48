//! Block Floating Point (BFP) numerics for the FAST training system.
//!
//! This crate implements the number-format layer of *FAST: DNN Training Under
//! Variable Precision Block Floating Point with Stochastic Rounding* (Zhang,
//! McDanel, Kung — HPCA 2022):
//!
//! * [`BfpFormat`] — a BFP format description: group size `g`, mantissa
//!   bitwidth `m`, shared-exponent bitwidth `e` (paper Table I / Fig 2).
//! * [`BfpGroup`] — a quantized group of values sharing one exponent, with
//!   the conversion pipeline of paper Fig 4: find max exponent → align
//!   mantissas → add stochastic noise (gradients) → truncate.
//! * [`Rounding`] — nearest / truncate / stochastic rounding. One group
//!   ([`BfpGroup::quantize`]) draws its noise from an [`Lfsr16`]
//!   linear-feedback shift register exactly as in the paper's BFP converter
//!   (Fig 14); every tensor-level pass draws from [`CounterRng`], an
//!   order-independent counter-based noise source keyed on `(seed, element
//!   offset)` that makes stochastic rounding embarrassingly parallel
//!   (DESIGN.md §12).
//! * [`ChunkedGroup`] — the 2-bit-chunk mantissa memory layout of Fig 15
//!   that enables variable-precision arithmetic (Fig 13).
//! * [`fake_quantize_matrix`] / [`fake_quantize_slice`] — tensor-level
//!   fake-quantization on integer kernels: `f32::to_bits`
//!   exponent extraction, integer mantissa shifts, rounding monomorphized
//!   out of the hot loop (bit-identical to the explanatory f64 path; see
//!   DESIGN.md §7).
//! * [`packed`] — the one tensor converter: integer mantissas plus
//!   per-group scales produced straight from f32 data, bit-replayable as
//!   `mantissa × scale` without ever materializing the dequantized copy —
//!   the quantized-GEMM execution layer's representation, what
//!   frozen-weight serving caches hold (DESIGN.md §8–§9), and what
//!   [`fake_quantize_matrix`] writes back.
//! * [`dot`] — BFP dot products: the direct integer form (Fig 5) and the
//!   chunk-serial form executed by the fMAC, which are bit-identical.
//! * [`tensor_quant`] — matrix-level grouped (fake-)quantization along a
//!   reduction axis plus the relative-improvement statistic `r(X)` of Eq. 2
//!   that drives the FAST-Adaptive algorithm (Algorithm 1).
//! * [`stats`] — exponent-gap histograms reproducing paper Fig 6.
//!
//! # Quick example
//!
//! ```
//! use fast_bfp::{BfpFormat, BfpGroup, Rounding};
//!
//! # fn main() -> Result<(), fast_bfp::FormatError> {
//! let fmt = BfpFormat::new(16, 4, 3)?; // g=16, m=4, e=3 ("HighBFP")
//! let xs: Vec<f32> = (0..16).map(|i| 0.01 * (i as f32 + 1.0)).collect();
//! let group = BfpGroup::quantize_nearest(&xs, fmt);
//! let back = group.dequantize();
//! assert_eq!(back.len(), xs.len());
//! // The largest element is represented with full m-bit fidelity.
//! let rel_err = (back[15] - xs[15]).abs() / xs[15];
//! assert!(rel_err < 0.1);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the pack kernels load their lanes with
// masked loads and gathers, and run at sixteen lanes on an AVX-512 host
// through one `#[target_feature]` function (`packed::stripe_x16`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chunk;
mod error;
mod format;
mod fp;
mod group;
mod kernel;
mod lfsr;
mod rng;
mod rounding;

pub mod dot;
pub mod packed;
pub mod stats;
pub mod tensor_quant;

pub use chunk::ChunkedGroup;
pub use error::FormatError;
pub use format::BfpFormat;
pub use fp::{exponent_of, quantize_minifloat, Minifloat};
pub use group::{BfpGroup, ExponentWindow};
pub use kernel::{fake_quantize_matrix, fake_quantize_slice, Noise};
pub use lfsr::{BitSource, Lfsr16, RngBits};
pub use rng::CounterRng;
pub use rounding::Rounding;
pub use tensor_quant::{relative_improvement, GroupAxis, QuantStats};
