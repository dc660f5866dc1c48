//! Layer containers: [`Sequential`] chains and [`Residual`] blocks.

use crate::layer::{Layer, Param, QuantControlled, Session};
use fast_tensor::Tensor;

/// A chain of layers executed in order.
///
/// `Sequential` is itself a [`Layer`], so chains nest (residual blocks hold
/// sequentials, models hold blocks).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kinds: Vec<&str> = self.layers.iter().map(|l| l.kind()).collect();
        write!(f, "Sequential({kinds:?})")
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor {
        match self.layers.split_first_mut() {
            None => input.clone(),
            Some((first, rest)) => {
                let mut x = first.forward(input, session);
                for layer in rest {
                    x = layer.forward(&x, session);
                }
                x
            }
        }
    }

    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor {
        // Every child but the first feeds its input gradient to the layer
        // before it; the first inherits the chain's own property, if it
        // can honor it. The last child reads `grad_output` where it lies,
        // uncopied; an empty chain passes it through.
        let wanted = session.input_grad;
        let mut g: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            session.input_grad = wanted || i > 0 || !layer.can_skip_input_grad();
            g = Some(layer.backward(g.as_ref().unwrap_or(grad_output), session));
        }
        session.input_grad = wanted;
        g.unwrap_or_else(|| grad_output.clone())
    }

    fn can_skip_input_grad(&self) -> bool {
        true
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dyn QuantControlled)) {
        for layer in &mut self.layers {
            layer.visit_quant(f);
        }
    }

    fn visit_state(&mut self, v: &mut dyn fast_ckpt::StateVisitor) {
        // Scope names carry each child's position *and* kind, so restoring
        // into a different architecture fails with a name mismatch instead
        // of silently loading one layer's tensors into another.
        for (i, layer) in self.layers.iter_mut().enumerate() {
            v.enter(&format!("{i}:{}", layer.kind()));
            layer.visit_state(v);
            v.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "sequential"
    }
}

/// A [`Sequential`] chain is directly checkpointable: its state walk is the
/// [`Layer::visit_state`] traversal of the whole tree. (`fast_ckpt` talks to
/// `VisitState`; this is the bridge for the common whole-model case.)
impl fast_ckpt::VisitState for Sequential {
    fn visit_state(&mut self, v: &mut dyn fast_ckpt::StateVisitor) {
        Layer::visit_state(self, v);
    }
}

/// A residual block `y = main(x) + shortcut(x)`.
///
/// The shortcut defaults to identity; set one (e.g. a strided 1×1 conv) when
/// the main path changes shape.
pub struct Residual {
    main: Sequential,
    shortcut: Option<Sequential>,
}

impl Residual {
    /// Creates a residual block with identity shortcut.
    pub fn new(main: Sequential) -> Self {
        Residual {
            main,
            shortcut: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(main: Sequential, shortcut: Sequential) -> Self {
        Residual {
            main,
            shortcut: Some(shortcut),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Residual(main={:?}, shortcut={})",
            self.main,
            self.shortcut.is_some()
        )
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, session: &mut Session) -> Tensor {
        let mut out = self.main.forward(input, session);
        match &mut self.shortcut {
            Some(s) => {
                let sc = s.forward(input, session);
                out.add_assign(&sc);
            }
            None => out.add_assign(input),
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor, session: &mut Session) -> Tensor {
        let mut g = self.main.backward(grad_output, session);
        match &mut self.shortcut {
            Some(s) => {
                let gs = s.backward(grad_output, session);
                g.add_assign(&gs);
            }
            None => g.add_assign(grad_output),
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(Param<'_>)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dyn QuantControlled)) {
        self.main.visit_quant(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_quant(f);
        }
    }

    fn visit_state(&mut self, v: &mut dyn fast_ckpt::StateVisitor) {
        v.enter("main");
        Layer::visit_state(&mut self.main, v);
        v.exit();
        if let Some(s) = &mut self.shortcut {
            v.enter("shortcut");
            Layer::visit_state(s, v);
            v.exit();
        }
    }

    fn kind(&self) -> &'static str {
        "residual"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::Relu;
    use crate::layer::{parameter_count, quant_layer_count};
    use crate::linear::Dense;
    use rand::SeedableRng;

    #[test]
    fn sequential_chains_layers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut model = Sequential::new()
            .push(Dense::new(4, 8, true, &mut rng))
            .push(Relu::new())
            .push(Dense::new(8, 2, true, &mut rng));
        let mut s = Session::new(0);
        let x = Tensor::zeros(vec![3, 4]);
        let y = model.forward(&x, &mut s);
        assert_eq!(y.shape(), &[3, 2]);
        let g = model.backward(&y, &mut s);
        assert_eq!(g.shape(), &[3, 4]);
        assert_eq!(quant_layer_count(&mut model), 2);
        assert_eq!(parameter_count(&mut model), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn identity_residual_adds_input() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut dense = Dense::new(3, 3, false, &mut rng);
        dense.weights_mut().fill(0.0); // main path outputs zero
        let mut block = Residual::new(Sequential::new().push(dense));
        let mut s = Session::new(0);
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, -2.0, 3.0]);
        let y = block.forward(&x, &mut s);
        assert_eq!(y.data(), x.data());
        // Gradient flows through both paths: identity contributes g, main
        // path contributes 0 here.
        let g = block.backward(&x, &mut s);
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn residual_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut block = Residual::new(
            Sequential::new()
                .push(Dense::new(3, 3, true, &mut rng))
                .push(Relu::new()),
        );
        let mut s = Session::new(0);
        use rand::Rng;
        let x = Tensor::from_vec(
            vec![2, 3],
            (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let _ = block.forward(&x, &mut s);
        let ones = Tensor::full(vec![2, 3], 1.0);
        let gin = block.backward(&ones, &mut s);
        let eps = 1e-3f32;
        for idx in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = block.forward(&xp, &mut s).data().iter().sum();
            let lm: f32 = block.forward(&xm, &mut s).data().iter().sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - gin.data()[idx]).abs() < 1e-2, "idx {idx}");
        }
    }
}
