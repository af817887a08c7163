//! Learned positional embedding.

use crate::init;
use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;

/// Adds a learned `(T, D)` table to every `(T, D)` token block of an
/// `(N, T, D)` input; the table's gradient sums over the batch in batch
/// order.
#[derive(Debug, Clone)]
pub struct PositionalEmbedding {
    /// The table, shape `(T, D)`, initialised `N(0, 0.02²)`.
    pub table: Param,
}

impl PositionalEmbedding {
    /// New table for `tokens` positions of width `dim`.
    pub fn new(tokens: usize, dim: usize, rng: &mut StdRng) -> Self {
        Self {
            table: Param::new(init::normal(&[tokens, dim], 0.02, rng)),
        }
    }
}

impl Layer for PositionalEmbedding {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            &x.shape()[1..],
            self.table.value.shape(),
            "PositionalEmbedding expects (N, T, D)"
        );
        let mut y = x.clone();
        for ni in 0..x.dim(0) {
            for (v, &p) in y.batch_mut(ni).iter_mut().zip(self.table.value.data()) {
                *v += p;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        for ni in 0..grad_out.dim(0) {
            for (pg, &g) in self
                .table
                .grad
                .data_mut()
                .iter_mut()
                .zip(grad_out.batch(ni))
            {
                *pg += g;
            }
        }
        grad_out.clone()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.table]
    }

    fn out_dims(&self, x: Dims) -> Dims {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::SeedableRng;

    #[test]
    fn positional_embedding_gradients() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut pe = PositionalEmbedding::new(3, 4, &mut rng);
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut pe, &x, 1e-2, 1e-2);
    }
}
