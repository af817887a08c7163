//! Fully connected layer.

use crate::gemm::{self, Layout};
use crate::init::kaiming_uniform;
use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;

/// `y = x W + b` on `(N, in) → (N, out)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, shape `(in, out)`.
    pub weight: Param,
    /// Bias, shape `(out,)`.
    pub bias: Param,
}

impl Linear {
    /// New layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: Param::new(kaiming_uniform(
                &[in_features, out_features],
                in_features,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.dim(0)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.dim(1)
    }
}

impl Layer for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 2, "Linear expects (N, in)");
        assert_eq!(x.dim(1), self.in_features(), "feature mismatch");
        Dims::new(&[x.dim(0), self.out_features()])
    }

    /// Backward holds one batch's weight gradient here before adding it
    /// to the accumulated one.
    fn grad_len(&self, _x: Dims) -> usize {
        self.weight.numel()
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    /// `dW += xᵀ·g` (the product first, then one add per element), `db +=`
    /// the rows of `g` in order, `dx = g·Wᵀ`.
    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (_, scratch): (&mut [f32], &mut [f32]),
    ) {
        let (n, d_in, d_out) = (xd.dim(0), self.in_features(), self.out_features());
        let dw = &mut scratch[..d_in * d_out];
        gemm::gemm(
            d_in,
            d_out,
            n,
            x,
            Layout::Transposed,
            gy,
            Layout::Normal,
            dw,
        );
        for (a, &b) in self.weight.grad.data_mut().iter_mut().zip(dw.iter()) {
            *a += b;
        }
        for row in gy.chunks_exact(d_out) {
            for (b, &g) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        gemm::gemm(
            n,
            d_in,
            d_out,
            gy,
            Layout::Normal,
            self.weight.value.data(),
            Layout::Transposed,
            gx,
        );
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let (n, d_in, d_out) = (xd.dim(0), self.in_features(), self.out_features());
        gemm::gemm(
            n,
            d_out,
            d_in,
            x,
            Layout::Normal,
            self.weight.value.data(),
            Layout::Normal,
            y,
        );
        let bias = self.bias.value.data();
        for row in y.chunks_exact_mut(d_out) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        l.bias.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = Seq::new().then(l).infer(&x);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.row(2), &[1.0, -1.0]); // zero input → bias
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Seq::new().then(Linear::new(4, 3, &mut rng));
        let x = Tensor::from_vec(&[2, 4], (0..8).map(|i| 0.1 * i as f32 - 0.3).collect());
        check_layer_gradients(&mut l, &x, 1e-2, 2e-2);
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(5, 7, &mut rng);
        assert_eq!(l.param_count(), 5 * 7 + 7);
    }
}
