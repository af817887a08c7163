//! Shape-only layers: axis transposition and reshaping.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;

/// Swaps the last two axes of a rank-3 tensor, `(N, C, L) ↔ (N, L, C)` —
/// channels-first feature maps to token rows and back. Its own inverse, so
/// backward transposes the gradient.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

impl Transpose {
    /// New transpose.
    pub fn new() -> Self {
        Self
    }
}

/// `(N, A, B) → (N, B, A)`.
fn transpose(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 3, "Transpose expects a rank-3 tensor");
    let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
    let mut out = Tensor::zeros(&[n, l, c]);
    for ni in 0..n {
        let xb = x.batch(ni);
        let ob = out.batch_mut(ni);
        for ci in 0..c {
            for t in 0..l {
                ob[t * c + ci] = xb[ci * l + t];
            }
        }
    }
    out
}

impl Layer for Transpose {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        transpose(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        transpose(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        transpose(grad_out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// Reshapes to `(M, tail…)`, where the leading `M` absorbs whatever the
/// tail does not cover: `[C·L]` flattens `(N, C, L)` to `(N, C·L)`, `[D]`
/// folds `(N, T, D)` token rows into `(N·T, D)` and `[T, D]` unfolds them.
/// Backward restores the input shape.
#[derive(Debug, Clone)]
pub struct Reshape {
    tail: Vec<usize>,
    in_shape: Option<Vec<usize>>,
}

impl Reshape {
    /// Reshape to `(M, tail…)`.
    pub fn new(tail: &[usize]) -> Self {
        Self {
            tail: tail.to_vec(),
            in_shape: None,
        }
    }
}

impl Layer for Reshape {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.in_shape = Some(x.shape().to_vec());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let row: usize = self.tail.iter().product();
        let mut shape = vec![x.numel() / row];
        shape.extend_from_slice(&self.tail);
        x.clone().reshape(&shape)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .take()
            .expect("backward without forward(train)");
        grad_out.clone().reshape(&in_shape)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn transpose_roundtrip() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        let t = transpose(&x);
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(t.batch(0)[..3], [0., 4., 8.]);
        assert_eq!(transpose(&t), x);
    }

    #[test]
    fn transpose_gradients() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut Transpose::new(), &x, 1e-2, 1e-2);
    }

    #[test]
    fn reshape_folds_and_unfolds_tokens() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        let rows = Reshape::new(&[4]).infer(&x);
        assert_eq!(rows.shape(), &[6, 4]);
        let back = Reshape::new(&[3, 4]).infer(&rows);
        assert_eq!(back, x);
        assert_eq!(Reshape::new(&[12]).infer(&x).shape(), &[2, 12]);
    }

    #[test]
    fn reshape_gradients() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut Reshape::new(&[12]), &x, 1e-2, 1e-2);
    }
}
