//! Fully connected layer.

use crate::init::kaiming_uniform;
use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `y = x W + b` on `(N, in) → (N, out)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, shape `(in, out)`.
    pub weight: Param,
    /// Bias, shape `(out,)`.
    pub bias: Param,
    cached_input: Option<Tensor>,
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
            cached_input: None,
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
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.cached_input = Some(x.clone());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects (N, in)");
        assert_eq!(x.dim(1), self.in_features(), "feature mismatch");
        let mut y = x.matmul(&self.weight.value);
        let out = self.out_features();
        let bias = self.bias.value.data();
        for i in 0..y.dim(0) {
            let row = &mut y.data_mut()[i * out..(i + 1) * out];
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train)");
        // dW += xᵀ · g
        let dw = x.t_matmul(grad_out);
        self.weight.grad.add_assign(&dw);
        // db += column sums of g
        for i in 0..grad_out.dim(0) {
            let row = grad_out.row(i);
            for (b, &g) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        // dx = g · Wᵀ
        grad_out.matmul_t(&self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        l.bias.value.data_mut().copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros(&[4, 3]);
        let y = l.forward(&x, false);
        assert_eq!(y.shape(), &[4, 2]);
        assert_eq!(y.row(2), &[1.0, -1.0]); // zero input → bias
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(4, 3, &mut rng);
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
