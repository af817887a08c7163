//! Elementwise activations.

use crate::param::{Layer, Param};
use crate::workspace::Dims;

/// Rectified linear unit. Runs in place in a layer graph; its backward
/// reads only the output (`y > 0` exactly where the training forward kept
/// its input).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Relu {
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
/// feed-forward blocks). Backward reads the taped input.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gelu;

impl Gelu {
    /// New GELU.
    pub fn new() -> Self {
        Self
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
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        x
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    /// `gx = gy · GELU′(x)`.
    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        _xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        for ((o, &g), &v) in gx.iter_mut().zip(gy).zip(x) {
            *o = g * Self::derivative(v);
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        for (o, &v) in y.iter_mut().zip(x) {
            *o = Self::value(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use crate::tensor::Tensor;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let y = Seq::new().then(Relu::new()).infer(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_gradients() {
        let mut r = Seq::new().then(Relu::new());
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
        let mut g = Seq::new().then(Gelu::new());
        let x = Tensor::from_vec(&[5], vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        check_layer_gradients(&mut g, &x, 1e-3, 2e-2);
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Gelu::new().param_count(), 0);
    }
}
