//! Inverted dropout.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: active only in training mode, identity at inference.
///
/// Carries its own seeded RNG so training runs are reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// New dropout with drop probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "p must be in [0, 1)");
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            if train {
                self.mask = Some(vec![1.0; x.numel()]);
            }
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| {
                if self.rng.random::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, &m) in y.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward without forward(train)");
        let mut g = grad_out.clone();
        for (v, m) in g.data_mut().iter_mut().zip(mask) {
            *v *= m;
        }
        g
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.clone()
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

    #[test]
    fn inference_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(&[4], vec![1., 2., 3., 4.]);
        assert_eq!(d.forward(&x, false).data(), x.data());
    }

    #[test]
    fn training_scales_survivors() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::from_vec(&[1000], vec![1.0; 1000]);
        let y = d.forward(&x, true);
        let kept = y.data().iter().filter(|&&v| v > 0.0).count();
        // Survivors scaled to 1/keep = 2.0.
        assert!(y.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        assert!((kept as f64 / 1000.0 - 0.5).abs() < 0.08, "kept={kept}");
        // Expectation preserved.
        let mean: f32 = y.data().iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "mean={mean}");
    }

    #[test]
    fn backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::from_vec(&[100], vec![1.0; 100]);
        let y = d.forward(&x, true);
        let g = d.backward(&Tensor::from_vec(&[100], vec![1.0; 100]));
        // Gradient zero exactly where output is zero.
        for (gy, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(*gy == 0.0, *gv == 0.0);
        }
    }

    #[test]
    fn zero_probability_is_identity_in_training() {
        let mut d = Dropout::new(0.0, 4);
        let x = Tensor::from_vec(&[4], vec![1., 2., 3., 4.]);
        assert_eq!(d.forward(&x, true).data(), x.data());
    }
}
