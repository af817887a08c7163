//! Learned positional embedding.

use crate::init;
use crate::param::{Layer, Param};
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
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.table]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(
            &x.as_slice()[1..],
            self.table.value.shape(),
            "PositionalEmbedding expects (N, T, D)"
        );
        x
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
        let table = self.table.grad.data_mut();
        for gb in gy.chunks_exact(table.len()) {
            for (pg, &g) in table.iter_mut().zip(gb) {
                *pg += g;
            }
        }
        gx.copy_from_slice(gy);
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let table = self.table.value.data();
        for (yb, xb) in y
            .chunks_exact_mut(table.len())
            .zip(x.chunks_exact(table.len()))
        {
            for ((o, &v), &p) in yb.iter_mut().zip(xb).zip(table) {
                *o = v + p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn positional_embedding_gradients() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut pe = Seq::new().then(PositionalEmbedding::new(3, 4, &mut rng));
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut pe, &x, 1e-2, 1e-2);
    }
}
