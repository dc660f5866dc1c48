//! Dense f32 tensor substrate for the FAST reproduction.
//!
//! Implements the matrix computations of DNN training described in paper
//! Section II-B / Fig 3: the forward GEMM `O = A·W`, the backward GEMMs
//! `∇A = ∇O·Wᵀ` and `∇W = Aᵀ·∇O`, plus the im2col machinery that lowers
//! convolutions onto those GEMMs, pooling, reductions and initializers.
//!
//! The substrate is deliberately plain `f32` + row-major `Vec` storage:
//! quantization is applied *to the operand matrices* by `fast-nn` before
//! GEMMs run, which — as established in `fast-bfp` — is bit-faithful to the
//! fMAC's integer-multiply / FP32-accumulate pipeline.
//!
//! The GEMM kernels are register-tiled and thread-sharded; every output
//! element is one serial ascending-`k` chain, so results depend neither on
//! the worker count nor on which other rows share the GEMM (DESIGN.md §7).
//! The [`qgemm`] module multiplies packed-BFP operands (`i8` mantissas +
//! per-group scales) on integer kernels — exact mantissa dot products per
//! group, one f32 scale fix-up each (DESIGN.md §11) — and runs any pair
//! those cannot take on the dense kernels over its dequantized copy.
//!
//! ```
//! use fast_tensor::{matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
//! ```

// `deny` rather than `forbid`: the integer-domain kernels in `qgemm_int`
// carry a module-scoped allowance for the `core::arch` AVX2/AVX-VNNI intrinsics
// (each unsafe block documents its safety contract); everything else in the
// crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// Unit tests share the integration tests' segment oracle and
// column-grouped builder, which name the crate by its package name.
#[cfg(test)]
extern crate self as fast_tensor;

#[cfg(test)]
#[path = "../tests/support/col_grouped.rs"]
mod col_grouped;

mod conv;
mod init;
mod matmul;
mod parallel;
mod pool;
pub mod qgemm;
mod qgemm_int;
mod reduce;
mod tensor;

pub use conv::{
    col2im, conv2d, conv2d_backward, conv2d_from_cols, gemm_out_to_nchw, im2col, nchw_to_gemm_out,
    Conv2dDims, ConvGrads, Im2colRows,
};
pub use init::{kaiming_normal, uniform_init};
pub use matmul::{matmul, matmul_nt, matmul_tn};
pub use parallel::{parallelism, set_parallelism, Parallelism};
pub use pool::{
    global_avg_pool, global_avg_pool_backward, max_pool2d, max_pool2d_backward, MaxPoolOutput,
};
pub use reduce::{argmax, col_sums, mean, row_sums, sum};
pub use tensor::Tensor;
