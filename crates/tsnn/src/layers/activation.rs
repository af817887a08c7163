//! Elementwise activations.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;

/// Rectified linear unit. Runs in place in a layer graph; its backward
/// reads only the output (`y > 0` exactly where the training forward kept
/// its input).
#[derive(Debug, Clone, Default)]
pub struct Relu {
    output: Option<Tensor>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.infer(x);
        }
        let mut y = x.clone();
        self.forward_in_place(y.data_mut());
        self.output = Some(y.clone());
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        self.infer_in_place(y.data_mut());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self.output.take().expect("backward without forward(train)");
        let mut g = Tensor::zeros(grad_out.shape());
        let d = Dims::new(y.shape());
        self.backward_ws(
            y.data(),
            d,
            y.data(),
            grad_out.data(),
            g.data_mut(),
            (&mut [], &mut []),
        );
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        x
    }

    fn forward_ws(&mut self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        y.copy_from_slice(x);
        self.forward_in_place(y);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        _x: &[f32],
        _xd: Dims,
        y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        for ((o, &g), &v) in gx.iter_mut().zip(gy).zip(y) {
            *o = if v > 0.0 { g } else { 0.0 };
        }
    }

    fn infer_ws(&self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        y.copy_from_slice(x);
        self.infer_in_place(y);
    }

    fn in_place(&self) -> bool {
        true
    }

    /// Training keeps exactly the positive inputs: NaN and -0.0 become
    /// +0.0 (the mask is `v > 0`).
    // kdprof: hot
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn forward_in_place(&mut self, y: &mut [f32]) {
        for v in y {
            if !(*v > 0.0) {
                *v = 0.0;
            }
        }
    }

    /// Inference clears exactly the negative inputs: NaN and -0.0 pass.
    // kdprof: hot
    fn infer_in_place(&self, y: &mut [f32]) {
        for v in y {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }
}

/// Gaussian error linear unit (tanh approximation, as used by transformer
/// feed-forward blocks).
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cached_input: Option<Tensor>,
}

impl Gelu {
    /// New GELU.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn value(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // √(2/π)
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    #[inline]
    fn derivative(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(x.clone());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        for v in y.data_mut() {
            *v = Self::value(*v);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train)");
        let mut g = grad_out.clone();
        for (gv, &xv) in g.data_mut().iter_mut().zip(x.data()) {
            *gv *= Self::derivative(xv);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x, false);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gradients() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[6], vec![-1.0, 0.5, 2.0, -3.0, 1.0, -0.2]);
        check_layer_gradients(&mut r, &x, 1e-3, 1e-2);
    }

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0, GELU(large) ≈ identity, GELU(-large) ≈ 0.
        assert!(Gelu::value(0.0).abs() < 1e-6);
        assert!((Gelu::value(10.0) - 10.0).abs() < 1e-3);
        assert!(Gelu::value(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_gradients() {
        let mut g = Gelu::new();
        let x = Tensor::from_vec(&[5], vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        check_layer_gradients(&mut g, &x, 1e-3, 2e-2);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Gelu::new().param_count(), 0);
    }
}
