//! The fully-connected (dense) layer with quantized GEMMs.
//!
//! All three training GEMMs of paper Fig 3 are quantized according to the
//! layer's [`LayerPrecision`], grouping along each GEMM's reduction axis:
//!
//! * forward `O = A·W` — reduce over `K`: `A` grouped along rows, `W` along
//!   columns;
//! * `∇A = ∇O·Wᵀ` — reduce over `N`: `∇O` along rows, `W` along rows;
//! * `∇W = Aᵀ·∇O` — reduce over the batch: both grouped along columns.
//!
//! Master weights stay FP32. During training they are re-quantized on every
//! use, which is what permits Algorithm 1's per-iteration precision changes;
//! under a frozen-weight inference session ([`Session::inference`]) the
//! forward-path quantized copy is built once and replayed from a
//! frozen-weight cache (DESIGN.md §8), invalidated by any weight update.

use crate::frozen::FrozenWeight;
use crate::layer::{GemmShape, Layer, Param, QuantControlled, Session};
use crate::qgemm::{self, GemmOperand, Orient};
use crate::quant::LayerPrecision;
use fast_bfp::GroupAxis;
use fast_tensor::{col_sums, kaiming_normal, Tensor};
use rand::Rng;

/// A dense layer `y = x·W + b` with independently quantized W/A/G tensors.
#[derive(Debug)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    use_bias: bool,
    precision: LayerPrecision,
    frozen_w: FrozenWeight,
    saved_input: Option<Tensor>,
    last_grad: Option<Tensor>,
    last_shape: Option<GemmShape>,
}

impl Dense {
    /// Creates a dense layer `in_dim → out_dim` with Kaiming-initialized
    /// weights.
    pub fn new(in_dim: usize, out_dim: usize, use_bias: bool, rng: &mut impl Rng) -> Self {
        let w = kaiming_normal(vec![in_dim, out_dim], in_dim, rng);
        Dense {
            w,
            b: Tensor::zeros(vec![out_dim]),
            gw: Tensor::zeros(vec![in_dim, out_dim]),
            gb: Tensor::zeros(vec![out_dim]),
            use_bias,
            precision: LayerPrecision::default(),
            frozen_w: FrozenWeight::default(),
            saved_input: None,
            last_grad: None,
            last_shape: None,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Immutable weight access (FP32 master copy).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Mutable weight access (for tests / serialization). Invalidates the
    /// frozen-weight cache.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        self.frozen_w.mark_dirty();
        &mut self.w
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor {
        assert_eq!(input.rank(), 2, "Dense expects (batch, features) input");
        assert_eq!(
            input.shape()[1],
            self.in_dim(),
            "Dense input width mismatch"
        );
        let batch = input.shape()[0];
        self.last_shape = Some(GemmShape {
            m: batch,
            k: self.in_dim(),
            n: self.out_dim(),
        });

        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        let xq = qgemm::prepare(
            session,
            input,
            self.precision.activations,
            GroupAxis::AlongRow,
        );
        let mut out = if session.freeze_weights {
            let wq = self.frozen_w.get(
                &self.w,
                in_dim,
                out_dim,
                self.precision.weights,
                GroupAxis::AlongCol,
            );
            qgemm::execute(session, Orient::Nn, &xq, &GemmOperand::Cached(wq))
        } else {
            let wq = qgemm::prepare(
                session,
                &self.w,
                self.precision.weights,
                GroupAxis::AlongCol,
            );
            qgemm::execute(session, Orient::Nn, &xq, &wq)
        };
        if self.use_bias {
            let n = self.out_dim();
            let bd = self.b.data();
            for row in out.data_mut().chunks_mut(n) {
                for (o, &b) in row.iter_mut().zip(bd) {
                    *o += b;
                }
            }
        }
        if session.train {
            self.saved_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor {
        let x = self
            .saved_input
            .as_ref()
            .expect("Dense::backward requires a prior training-mode forward pass");
        assert_eq!(grad_output.shape(), &[x.shape()[0], self.out_dim()]);

        // ∇W = Aᵀ·∇O, reduction over the batch dimension.
        let xq = qgemm::prepare(session, x, self.precision.activations, GroupAxis::AlongCol);
        let gq = qgemm::prepare(
            session,
            grad_output,
            self.precision.gradients,
            GroupAxis::AlongCol,
        );
        let gw = qgemm::execute(session, Orient::Tn, &xq, &gq);
        self.gw.add_assign(&gw);
        if self.use_bias {
            let sums = col_sums(grad_output);
            for (g, s) in self.gb.data_mut().iter_mut().zip(sums) {
                *g += s;
            }
        }

        // ∇A = ∇O·Wᵀ, reduction over the output dimension.
        let gq2 = qgemm::prepare(
            session,
            grad_output,
            self.precision.gradients,
            GroupAxis::AlongRow,
        );
        let wq = qgemm::prepare(
            session,
            &self.w,
            self.precision.weights,
            GroupAxis::AlongRow,
        );
        // The NT kernel over g (B,N) and W (K,N) reduces over N and yields
        // (B,K) = g·Wᵀ.
        let grad_input = qgemm::execute(session, Orient::Nt, &gq2, &wq);
        if session.record_sensitivity {
            self.last_grad = Some(grad_output.clone());
        }
        grad_input
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        // Parameter visitation hands out mutable weight access (it is how
        // optimizers step), so conservatively invalidate the frozen cache.
        self.frozen_w.mark_dirty();
        f(Param {
            value: &mut self.w,
            grad: &mut self.gw,
            decay: true,
        });
        if self.use_bias {
            f(Param {
                value: &mut self.b,
                grad: &mut self.gb,
                decay: false,
            });
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dyn QuantControlled)) {
        f(self);
    }

    fn visit_state(&mut self, v: &mut dyn fast_ckpt::StateVisitor) {
        // Hands out mutable weight access, so invalidate the frozen cache
        // (same rule as `visit_params`).
        self.frozen_w.mark_dirty();
        v.tensor("w", &mut self.w);
        if self.use_bias {
            v.tensor("b", &mut self.b);
        }
        crate::quant::visit_precision(v, &mut self.precision);
        v.opt_tensor("saved_input", &mut self.saved_input);
        v.opt_tensor("last_grad", &mut self.last_grad);
    }

    fn kind(&self) -> &'static str {
        "dense"
    }
}

impl QuantControlled for Dense {
    fn precision_mut(&mut self) -> &mut LayerPrecision {
        &mut self.precision
    }

    fn precision(&self) -> LayerPrecision {
        self.precision
    }

    fn weight(&self) -> &Tensor {
        &self.w
    }

    fn last_input(&self) -> Option<&Tensor> {
        self.saved_input.as_ref()
    }

    fn last_grad_output(&self) -> Option<&Tensor> {
        self.last_grad.as_ref()
    }

    fn gemm_shape(&self) -> Option<GemmShape> {
        self.last_shape
    }

    fn label(&self) -> String {
        format!("dense({}->{})", self.in_dim(), self.out_dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_matches_manual_gemm() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, true, &mut r);
        layer
            .weights_mut()
            .data_mut()
            .copy_from_slice(&[1., 2., 3., 4., 5., 6.]);
        let mut s = Session::new(0);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 0.5, -1.0]);
        let y = layer.forward(&x, &mut s);
        // y = [1*1 + 0.5*3 - 1*5, 1*2 + 0.5*4 - 1*6] = [-2.5, -2.0]
        assert_eq!(y.data(), &[-2.5, -2.0]);
    }

    #[test]
    fn gradient_check_fp32() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, true, &mut r);
        let mut s = Session::new(0);
        let x = Tensor::from_vec(vec![2, 4], (0..8).map(|i| 0.1 * i as f32 - 0.3).collect());
        let out = layer.forward(&x, &mut s);
        let gout = Tensor::full(out.shape().to_vec(), 1.0);
        let gin = layer.backward(&gout, &mut s);

        let eps = 1e-3f32;
        // Input gradient.
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward(&xp, &mut s).data().iter().sum();
            let lm: f32 = layer.forward(&xm, &mut s).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gin.data()[idx]).abs() < 1e-2, "input grad at {idx}");
        }
    }

    #[test]
    fn weight_gradient_check_fp32() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, false, &mut r);
        let mut s = Session::new(0);
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 0.3, 0.9, -0.4]);
        let _ = layer.forward(&x, &mut s);
        let gout = Tensor::full(vec![2, 2], 1.0);
        let _ = layer.backward(&gout, &mut s);
        let analytic = layer.gw.clone();

        let eps = 1e-3f32;
        for idx in 0..6 {
            let orig = layer.w.data()[idx];
            layer.w.data_mut()[idx] = orig + eps;
            let lp: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig - eps;
            let lm: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic.data()[idx]).abs() < 1e-2,
                "weight grad at {idx}"
            );
        }
    }

    #[test]
    fn quantized_forward_differs_but_tracks_fp32() {
        let mut r = rng();
        let mut layer = Dense::new(16, 8, false, &mut r);
        let mut s = Session::new(0);
        let x = Tensor::from_vec(
            vec![4, 16],
            (0..64)
                .map(|i| ((i * 37) % 13) as f32 * 0.07 - 0.4)
                .collect(),
        );
        let y_fp = layer.forward(&x, &mut s);
        *layer.precision_mut() = LayerPrecision::bfp_fixed(4);
        let y_q = layer.forward(&x, &mut s);
        assert_ne!(y_fp, y_q, "BFP quantization must alter the output");
        let rel: f64 = y_fp
            .data()
            .iter()
            .zip(y_q.data())
            .map(|(a, b)| ((a - b) as f64).abs())
            .sum::<f64>()
            / y_fp.data().iter().map(|&v| (v as f64).abs()).sum::<f64>();
        assert!(
            rel < 0.15,
            "HighBFP should stay close to FP32, rel err {rel}"
        );
    }

    #[test]
    fn quant_handle_exposes_state() {
        let mut r = rng();
        let mut layer = Dense::new(4, 4, false, &mut r);
        let mut s = Session::new(0);
        s.record_sensitivity = true;
        assert!(layer.last_input().is_none());
        let x = Tensor::zeros(vec![2, 4]);
        let y = layer.forward(&x, &mut s);
        let _ = layer.backward(&y, &mut s);
        assert!(layer.last_input().is_some());
        assert!(layer.last_grad_output().is_some());
        assert_eq!(layer.gemm_shape(), Some(GemmShape { m: 2, k: 4, n: 4 }));
        assert_eq!(layer.label(), "dense(4->4)");
    }

    #[test]
    fn sensitivity_caching_is_off_by_default() {
        let mut r = rng();
        let mut layer = Dense::new(4, 4, false, &mut r);
        let mut s = Session::new(0);
        let x = Tensor::zeros(vec![2, 4]);
        let y = layer.forward(&x, &mut s);
        let _ = layer.backward(&y, &mut s);
        assert!(
            layer.last_grad_output().is_none(),
            "plain training must not pay the grad_output clone"
        );
    }

    #[test]
    fn frozen_forward_is_bit_identical_and_invalidates_on_update() {
        let mut r = rng();
        let mut layer = Dense::new(16, 8, true, &mut r);
        *layer.precision_mut() = LayerPrecision::bfp_fixed(4);
        let x = Tensor::from_vec(
            vec![2, 16],
            (0..32)
                .map(|i| ((i * 29) % 17) as f32 * 0.05 - 0.4)
                .collect(),
        );
        let eval = || Session::eval(0);
        let y_requant = layer.forward(&x, &mut eval());
        let mut frozen = Session::inference(0);
        let y_frozen = layer.forward(&x, &mut frozen);
        assert_eq!(
            y_requant, y_frozen,
            "cached weights must not change outputs"
        );
        // Repeat request replays the cache and stays identical.
        assert_eq!(y_frozen, layer.forward(&x, &mut frozen));
        // A weight update through the visitation path invalidates the cache.
        layer.visit_params(&mut |p| {
            if p.decay {
                p.value.data_mut()[0] += 0.5;
            }
        });
        let y_updated = layer.forward(&x, &mut frozen);
        assert_ne!(y_frozen, y_updated, "stale cache served after update");
        assert_eq!(y_updated, layer.forward(&x, &mut eval()));
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, false, &mut r);
        let mut s = Session::eval(0);
        let _ = layer.forward(&Tensor::zeros(vec![1, 2]), &mut s);
        assert!(layer.last_input().is_none());
    }
}
