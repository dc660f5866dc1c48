//! Quantized convolution layers: standard [`Conv2d`] and
//! [`DepthwiseConv2d`] (for the MobileNet-style model).
//!
//! Convolutions are lowered to GEMMs over the im2col matrix (paper Fig 3);
//! operands are quantized along each GEMM's reduction axis exactly as in
//! [`crate::linear::Dense`], including the frozen-weight cache used by
//! inference-serving sessions (DESIGN.md §8). The im2col matrix is a
//! *virtual* operand: [`qgemm::prepare_patches`] packs it straight from the
//! NCHW tensor (DESIGN.md §9), training and frozen serving alike; only a
//! refused pack materializes it.

use crate::frozen::FrozenWeight;
use crate::layer::{GemmShape, Layer, Param, QuantControlled, Session};
use crate::qgemm::{self, GemmOperand, Orient};
use crate::quant::LayerPrecision;
use fast_bfp::GroupAxis;
use fast_tensor::{
    col2im, gemm_out_to_nchw, kaiming_normal, nchw_to_gemm_out, row_sums, Conv2dDims, Tensor,
};
use rand::Rng;

/// A 2-D convolution layer with quantized GEMMs.
#[derive(Debug)]
pub struct Conv2d {
    w: Tensor, // (out_c, in_c, k, k)
    b: Tensor, // (out_c)
    gw: Tensor,
    gb: Tensor,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    use_bias: bool,
    precision: LayerPrecision,
    frozen_w: FrozenWeight,
    saved_input: Option<Tensor>,
    last_grad: Option<Tensor>,
    last_shape: Option<GemmShape>,
    last_dims: Option<Conv2dDims>,
}

impl Conv2d {
    /// Creates a conv layer `in_c → out_c` with a square `kernel`.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        use_bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_c * kernel * kernel;
        let w = kaiming_normal(vec![out_c, in_c, kernel, kernel], fan_in, rng);
        Conv2d {
            w,
            b: Tensor::zeros(vec![out_c]),
            gw: Tensor::zeros(vec![out_c, in_c, kernel, kernel]),
            gb: Tensor::zeros(vec![out_c]),
            in_c,
            out_c,
            kernel,
            stride,
            pad,
            use_bias,
            precision: LayerPrecision::default(),
            frozen_w: FrozenWeight::default(),
            saved_input: None,
            last_grad: None,
            last_shape: None,
            last_dims: None,
        }
    }

    fn dims_for(&self, input: &Tensor) -> Conv2dDims {
        assert_eq!(input.rank(), 4, "Conv2d expects NCHW input");
        assert_eq!(input.shape()[1], self.in_c, "Conv2d channel mismatch");
        Conv2dDims {
            batch: input.shape()[0],
            in_c: self.in_c,
            in_h: input.shape()[2],
            in_w: input.shape()[3],
            out_c: self.out_c,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor {
        let d = self.dims_for(input);
        // Forward GEMM `O = W_mat · cols` reduces over K = C·k²: groups run
        // down the rows of `cols` (AlongCol) and along the rows of `W_mat`.
        let cols = qgemm::prepare_patches(
            session,
            input,
            d,
            self.precision.activations,
            GroupAxis::AlongCol,
        );
        let mut out_mat = if session.freeze_weights {
            // The im2col weight matrix is the (out_c, C·k²) reshape of the
            // master tensor — same row-major buffer, so the cache can build
            // (and pack) straight from it.
            let wq = self.frozen_w.get(
                &self.w,
                self.out_c,
                d.k_dim(),
                self.precision.weights,
                GroupAxis::AlongRow,
            );
            qgemm::execute(session, Orient::Nn, &GemmOperand::Cached(wq), &cols)
        } else {
            let wq = qgemm::prepare_slice(
                session,
                self.w.data(),
                self.out_c,
                d.k_dim(),
                self.precision.weights,
                GroupAxis::AlongRow,
            );
            qgemm::execute(session, Orient::Nn, &wq, &cols)
        };
        if self.use_bias {
            let p = d.p_dim();
            let bd = self.b.data();
            for (o, row) in out_mat.data_mut().chunks_mut(p).enumerate() {
                let bias = bd[o];
                for v in row {
                    *v += bias;
                }
            }
        }
        let out = gemm_out_to_nchw(&out_mat, d);
        self.last_shape = Some(GemmShape {
            m: d.p_dim(),
            k: d.k_dim(),
            n: self.out_c,
        });
        self.last_dims = Some(d);
        if session.train {
            self.saved_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor {
        let d = self
            .last_dims
            .expect("Conv2d::backward requires a prior forward pass");
        let x = self
            .saved_input
            .as_ref()
            .expect("Conv2d::backward requires a training-mode forward pass");
        let g_mat = nchw_to_gemm_out(grad_output, d); // (out_c, P)

        // ∇W = ∇O · colsᵀ, reduction over P.
        let gq = qgemm::prepare(
            session,
            &g_mat,
            self.precision.gradients,
            GroupAxis::AlongRow,
        );
        let cols = qgemm::prepare_patches(
            session,
            x,
            d,
            self.precision.activations,
            GroupAxis::AlongRow,
        );
        let gw = qgemm::execute(session, Orient::Nt, &gq, &cols).reshape(vec![
            self.out_c,
            self.in_c,
            self.kernel,
            self.kernel,
        ]);
        drop(gq);
        self.gw.add_assign(&gw);
        if self.use_bias {
            let sums = row_sums(&g_mat);
            for (g, s) in self.gb.data_mut().iter_mut().zip(sums) {
                *g += s;
            }
        }

        // ∇cols = Wᵀ · ∇O, reduction over out_c — unless the input takes
        // no gradient, when both packs only keep their noise.
        let grad_input = if session.input_grad() {
            let gq2 = qgemm::prepare_owned(
                session,
                g_mat,
                self.precision.gradients,
                GroupAxis::AlongCol,
            );
            let wq = qgemm::prepare_slice(
                session,
                self.w.data(),
                self.out_c,
                d.k_dim(),
                self.precision.weights,
                GroupAxis::AlongCol,
            );
            let grad_cols = qgemm::execute(session, Orient::Tn, &wq, &gq2);
            col2im(&grad_cols, d)
        } else {
            session.skip_operand(self.precision.gradients, g_mat.numel());
            session.skip_operand(self.precision.weights, self.w.numel());
            Tensor::zeros(x.shape().to_vec())
        };

        if session.record_sensitivity {
            self.last_grad = Some(grad_output.clone());
        }
        grad_input
    }

    fn can_skip_input_grad(&self) -> bool {
        true
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
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
        "conv2d"
    }
}

impl QuantControlled for Conv2d {
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
        format!(
            "conv{k}x{k}({}->{})",
            self.in_c,
            self.out_c,
            k = self.kernel
        )
    }
}

/// A depthwise 3×3-style convolution: each input channel is convolved with
/// its own single kernel (groups = channels), as used by MobileNet blocks.
#[derive(Debug)]
pub struct DepthwiseConv2d {
    w: Tensor, // (c, 1, k, k)
    gw: Tensor,
    channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    precision: LayerPrecision,
    frozen_w: FrozenWeight,
    saved_input: Option<Tensor>,
    last_grad: Option<Tensor>,
    last_shape: Option<GemmShape>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise conv over `channels` channels.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = kernel * kernel;
        DepthwiseConv2d {
            w: kaiming_normal(vec![channels, 1, kernel, kernel], fan_in, rng),
            gw: Tensor::zeros(vec![channels, 1, kernel, kernel]),
            channels,
            kernel,
            stride,
            pad,
            precision: LayerPrecision::default(),
            frozen_w: FrozenWeight::default(),
            saved_input: None,
            last_grad: None,
            last_shape: None,
        }
    }

    fn channel_dims(&self, input: &Tensor) -> Conv2dDims {
        Conv2dDims {
            batch: input.shape()[0],
            in_c: 1,
            in_h: input.shape()[2],
            in_w: input.shape()[3],
            out_c: 1,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
        }
    }

    fn slice_channel(input: &Tensor, c: usize) -> Tensor {
        let (b, cs, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let mut out = Tensor::zeros(vec![b, 1, h, w]);
        for bi in 0..b {
            let src = &input.data()[((bi * cs + c) * h * w)..((bi * cs + c) * h * w + h * w)];
            out.data_mut()[bi * h * w..(bi + 1) * h * w].copy_from_slice(src);
        }
        out
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor {
        assert_eq!(input.rank(), 4, "DepthwiseConv2d expects NCHW input");
        assert_eq!(input.shape()[1], self.channels, "channel mismatch");
        let d = self.channel_dims(input);
        let (b, oh, ow) = (d.batch, d.out_h(), d.out_w());
        let mut out = Tensor::zeros(vec![b, self.channels, oh, ow]);
        let k2 = self.kernel * self.kernel;
        // Each channel's kernel row is quantized as its own (1, k²) matrix;
        // the frozen cache builds all rows at once with per-row windows so
        // both paths see identical values. The cached tensor is borrowed
        // (no whole-tensor copy); the loop still re-wraps each k²-float row
        // into a (1, k²) tensor, which skips the quantization, not the
        // (tiny) row copy.
        let frozen_rows: Option<&Tensor> = if session.freeze_weights {
            self.frozen_w
                .get_per_row(&self.w, self.channels, k2, self.precision.weights)
                .dense()
        } else {
            None
        };
        for c in 0..self.channels {
            let xc = Self::slice_channel(input, c);
            let cols = qgemm::prepare_patches(
                session,
                &xc,
                d, // (k², B·OH·OW)
                self.precision.activations,
                GroupAxis::AlongCol,
            );
            let w_row = match &frozen_rows {
                Some(rows) => GemmOperand::Own(crate::qgemm::Prepared::Dense(Tensor::from_vec(
                    vec![1, k2],
                    rows.data()[c * k2..(c + 1) * k2].to_vec(),
                ))),
                None => qgemm::prepare_slice(
                    session,
                    &self.w.data()[c * k2..(c + 1) * k2],
                    1,
                    k2,
                    self.precision.weights,
                    GroupAxis::AlongRow,
                ),
            };
            let out_mat = qgemm::execute(session, Orient::Nn, &w_row, &cols); // (1, B·OH·OW)
            let od = out.data_mut();
            for bi in 0..b {
                for p in 0..oh * ow {
                    od[((bi * self.channels + c) * oh * ow) + p] = out_mat.data()[bi * oh * ow + p];
                }
            }
        }
        self.last_shape = Some(GemmShape {
            m: b * oh * ow,
            k: k2,
            n: self.channels,
        });
        if session.train {
            self.saved_input = Some(input.clone());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor {
        let x = self
            .saved_input
            .as_ref()
            .expect("DepthwiseConv2d::backward requires a training-mode forward pass");
        let d = self.channel_dims(x);
        let (b, h, w) = (d.batch, d.in_h, d.in_w);
        let k2 = self.kernel * self.kernel;
        let mut grad_input = Tensor::zeros(vec![b, self.channels, h, w]);
        for c in 0..self.channels {
            let xc = Self::slice_channel(x, c);
            let gc = Self::slice_channel(grad_output, c);
            let g_mat = nchw_to_gemm_out(&gc, d); // (1, B·OH·OW)

            // ∇W row = ∇O · colsᵀ.
            let gq = qgemm::prepare(
                session,
                &g_mat,
                self.precision.gradients,
                GroupAxis::AlongRow,
            );
            let cols = qgemm::prepare_patches(
                session,
                &xc,
                d,
                self.precision.activations,
                GroupAxis::AlongRow,
            );
            let gw_row = qgemm::execute(session, Orient::Nt, &gq, &cols); // (1, k²)
            drop(gq);
            for (i, &v) in gw_row.data().iter().enumerate() {
                self.gw.data_mut()[c * k2 + i] += v;
            }

            // ∇cols = wᵀ · ∇O, unless the input takes no gradient.
            if !session.input_grad() {
                session.skip_operand(self.precision.gradients, g_mat.numel());
                session.skip_operand(self.precision.weights, k2);
                continue;
            }
            let gq2 = qgemm::prepare_owned(
                session,
                g_mat,
                self.precision.gradients,
                GroupAxis::AlongCol,
            );
            let wq = qgemm::prepare_slice(
                session,
                &self.w.data()[c * k2..(c + 1) * k2],
                1,
                k2,
                self.precision.weights,
                GroupAxis::AlongCol,
            );
            let grad_cols = qgemm::execute(session, Orient::Tn, &wq, &gq2); // (k², B·OH·OW)
            let gic = col2im(&grad_cols, d); // (B,1,H,W)
            for bi in 0..b {
                for p in 0..h * w {
                    grad_input.data_mut()[((bi * self.channels + c) * h * w) + p] +=
                        gic.data()[bi * h * w + p];
                }
            }
        }
        if session.record_sensitivity {
            self.last_grad = Some(grad_output.clone());
        }
        grad_input
    }

    fn can_skip_input_grad(&self) -> bool {
        true
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.frozen_w.mark_dirty();
        f(Param {
            value: &mut self.w,
            grad: &mut self.gw,
            decay: true,
        });
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dyn QuantControlled)) {
        f(self);
    }

    fn visit_state(&mut self, v: &mut dyn fast_ckpt::StateVisitor) {
        self.frozen_w.mark_dirty();
        v.tensor("w", &mut self.w);
        crate::quant::visit_precision(v, &mut self.precision);
        v.opt_tensor("saved_input", &mut self.saved_input);
        v.opt_tensor("last_grad", &mut self.last_grad);
    }

    fn kind(&self) -> &'static str {
        "depthwise_conv2d"
    }
}

impl QuantControlled for DepthwiseConv2d {
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
        format!("dwconv{k}x{k}({})", self.channels, k = self.kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_tensor::conv2d;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn conv_layer_matches_tensor_conv_in_fp32() {
        let mut r = rng();
        let mut layer = Conv2d::new(3, 5, 3, 1, 1, false, &mut r);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![2, 3, 6, 6],
            (0..216).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        );
        let y = layer.forward(&x, &mut s);
        let d = layer.dims_for(&x);
        let want = conv2d(&x, &layer.w, d);
        for (a, b) in y.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn conv_gradient_check_fp32() {
        let mut r = rng();
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, true, &mut r);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![1, 2, 5, 5],
            (0..50).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        );
        let out = layer.forward(&x, &mut s);
        let gout = Tensor::full(out.shape().to_vec(), 1.0);
        let gin = layer.backward(&gout, &mut s);
        let analytic_w = layer.gw.clone();

        let eps = 1e-3f32;
        for idx in [0usize, 13, 29, 49] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward(&xp, &mut s).data().iter().sum();
            let lm: f32 = layer.forward(&xm, &mut s).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gin.data()[idx]).abs() < 1e-2, "input grad {idx}");
        }
        for idx in [0usize, 17, 35, 53] {
            let orig = layer.w.data()[idx];
            layer.w.data_mut()[idx] = orig + eps;
            let lp: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig - eps;
            let lm: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - analytic_w.data()[idx]).abs() < 1e-2,
                "weight grad {idx}"
            );
        }
    }

    #[test]
    fn depthwise_matches_per_channel_conv() {
        let mut r = rng();
        let mut layer = DepthwiseConv2d::new(3, 3, 1, 1, &mut r);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![1, 3, 4, 4],
            (0..48).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        );
        let y = layer.forward(&x, &mut s);
        // Per-channel reference.
        for c in 0..3 {
            let xc = DepthwiseConv2d::slice_channel(&x, c);
            let wc = Tensor::from_vec(
                vec![1, 1, 3, 3],
                layer.w.data()[c * 9..(c + 1) * 9].to_vec(),
            );
            let d = layer.channel_dims(&x);
            let want = conv2d(&xc, &wc, d);
            for p in 0..16 {
                let got = y.data()[c * 16 + p];
                assert!((got - want.data()[p]).abs() < 1e-5, "c={c} p={p}");
            }
        }
    }

    #[test]
    fn depthwise_gradient_check() {
        let mut r = rng();
        let mut layer = DepthwiseConv2d::new(2, 3, 1, 1, &mut r);
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![1, 2, 4, 4],
            (0..32).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        );
        let out = layer.forward(&x, &mut s);
        let gout = Tensor::full(out.shape().to_vec(), 1.0);
        let gin = layer.backward(&gout, &mut s);
        let analytic_w = layer.gw.clone();
        let eps = 1e-3f32;
        for idx in [0usize, 9, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = layer.forward(&xp, &mut s).data().iter().sum();
            let lm: f32 = layer.forward(&xm, &mut s).data().iter().sum();
            assert!(((lp - lm) / (2.0 * eps) - gin.data()[idx]).abs() < 1e-2);
        }
        for idx in [0usize, 8, 17] {
            let orig = layer.w.data()[idx];
            layer.w.data_mut()[idx] = orig + eps;
            let lp: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig - eps;
            let lm: f32 = layer.forward(&x, &mut s).data().iter().sum();
            layer.w.data_mut()[idx] = orig;
            assert!(((lp - lm) / (2.0 * eps) - analytic_w.data()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn depthwise_frozen_forward_is_bit_identical() {
        use crate::layer::QuantControlled;
        use crate::quant::{LayerPrecision, NumericFormat};
        use fast_bfp::{BfpFormat, Rounding};
        // A windowed format is the case the per-row cache build exists for:
        // each channel row must take its own exponent window, not one
        // window shared across the whole weight tensor.
        let windowed = NumericFormat::Bfp {
            format: BfpFormat::new(4, 3, 2).unwrap(),
            rounding: Rounding::Nearest,
            windowed: true,
        };
        let mut r = rng();
        let mut layer = DepthwiseConv2d::new(3, 3, 1, 1, &mut r);
        // Spread channel kernels over many octaves so per-row vs whole-
        // tensor windows actually disagree.
        for (i, v) in layer.w.data_mut().iter_mut().enumerate() {
            *v = (1.5 + (i % 5) as f32) * 2.0f32.powi(-((i / 9) as i32 * 6));
        }
        *layer.precision_mut() = LayerPrecision {
            weights: windowed,
            activations: NumericFormat::Fp32,
            gradients: NumericFormat::Fp32,
        };
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![2, 3, 4, 4],
            (0..96).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        );
        let mut eval = Session::eval(0);
        let want = layer.forward(&x, &mut eval);
        let mut frozen = Session::inference(0);
        assert_eq!(layer.forward(&x, &mut frozen), want);
        // Cache replay stays identical.
        assert_eq!(layer.forward(&x, &mut frozen), want);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut r = rng();
        let mut layer = Conv2d::new(1, 1, 3, 2, 1, false, &mut r);
        let mut s = Session::new(0);
        let x = Tensor::zeros(vec![1, 1, 8, 8]);
        let y = layer.forward(&x, &mut s);
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }
}
