//! Shape-only layers: axis transposition and reshaping.

use crate::param::{Layer, Param};
use crate::workspace::Dims;

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

/// `(N, A, B) → (N, B, A)`: `dst[b·A + a] = src[a·B + b]` per batch
/// element.
fn transpose_into(src: &[f32], (a, b): (usize, usize), dst: &mut [f32]) {
    for (sb, db) in src.chunks_exact(a * b).zip(dst.chunks_exact_mut(a * b)) {
        for ai in 0..a {
            for bi in 0..b {
                db[bi * a + ai] = sb[ai * b + bi];
            }
        }
    }
}

impl Layer for Transpose {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "Transpose expects a rank-3 tensor");
        Dims::new(&[x.dim(0), x.dim(2), x.dim(1)])
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        _x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        transpose_into(gy, (xd.dim(2), xd.dim(1)), gx);
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        transpose_into(x, (xd.dim(1), xd.dim(2)), y);
    }
}

/// Reshapes to `(M, tail…)`, where the leading `M` absorbs whatever the
/// tail does not cover: `[C·L]` flattens `(N, C, L)` to `(N, C·L)`, `[D]`
/// folds `(N, T, D)` token rows into `(N·T, D)` and `[T, D]` unfolds them.
/// Forward copies the input, backward the gradient.
#[derive(Debug, Clone)]
pub struct Reshape {
    tail: Vec<usize>,
}

impl Reshape {
    /// Reshape to `(M, tail…)`.
    pub fn new(tail: &[usize]) -> Self {
        Self {
            tail: tail.to_vec(),
        }
    }
}

impl Layer for Reshape {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        let row: usize = self.tail.iter().product();
        let mut shape = [x.numel() / row, 0, 0];
        shape[1..=self.tail.len()].copy_from_slice(&self.tail);
        Dims::new(&shape[..=self.tail.len()])
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        _x: &[f32],
        _xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        gx.copy_from_slice(gy);
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        y.copy_from_slice(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use crate::tensor::Tensor;

    #[test]
    fn transpose_roundtrip() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        let t = Seq::new().then(Transpose::new()).infer(&x);
        assert_eq!(t.shape(), &[2, 4, 3]);
        assert_eq!(t.batch(0)[..3], [0., 4., 8.]);
        assert_eq!(Seq::new().then(Transpose::new()).infer(&t), x);
    }

    #[test]
    fn transpose_gradients() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut Seq::new().then(Transpose::new()), &x, 1e-2, 1e-2);
    }

    #[test]
    fn reshape_folds_and_unfolds_tokens() {
        let reshape = |tail: &[usize], x: &Tensor| Seq::new().then(Reshape::new(tail)).infer(x);
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        let rows = reshape(&[4], &x);
        assert_eq!(rows.shape(), &[6, 4]);
        let back = reshape(&[3, 4], &rows);
        assert_eq!(back, x);
        assert_eq!(reshape(&[12], &x).shape(), &[2, 12]);
    }

    #[test]
    fn reshape_gradients() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut Seq::new().then(Reshape::new(&[12])), &x, 1e-2, 1e-2);
    }
}
