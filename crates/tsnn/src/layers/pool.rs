//! Pooling layers.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;

/// Max pooling on `(N, C, L) → (N, C, L/k)` (non-overlapping, floor).
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    kernel: usize,
    argmax: Option<Vec<usize>>,
    in_shape: Option<Vec<usize>>,
}

impl MaxPool1d {
    /// New pool of width `kernel`.
    ///
    /// # Panics
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self {
            kernel,
            argmax: None,
            in_shape: None,
        }
    }
}

impl Layer for MaxPool1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "MaxPool1d expects (N, C, L)");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let lo = l / self.kernel;
        assert!(lo > 0, "sequence shorter than pooling kernel");
        let mut y = Tensor::zeros(&[n, c, lo]);
        let mut argmax = vec![0usize; n * c * lo];
        for ni in 0..n {
            let xb = x.batch(ni);
            let yb = y.batch_mut(ni);
            for ci in 0..c {
                let x_row = &xb[ci * l..(ci + 1) * l];
                let y_row = &mut yb[ci * lo..(ci + 1) * lo];
                for (t, yv) in y_row.iter_mut().enumerate() {
                    let base = t * self.kernel;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = base;
                    for (i, &v) in x_row[base..base + self.kernel].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_i = base + i;
                        }
                    }
                    *yv = best;
                    argmax[(ni * c + ci) * lo + t] = best_i;
                }
            }
        }
        if train {
            self.argmax = Some(argmax);
            self.in_shape = Some(x.shape().to_vec());
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "MaxPool1d expects (N, C, L)");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let lo = l / self.kernel;
        assert!(lo > 0, "sequence shorter than pooling kernel");
        let mut y = Tensor::zeros(&[n, c, lo]);
        for ni in 0..n {
            let xb = x.batch(ni);
            let yb = y.batch_mut(ni);
            for ci in 0..c {
                let x_row = &xb[ci * l..(ci + 1) * l];
                let y_row = &mut yb[ci * lo..(ci + 1) * lo];
                for (t, yv) in y_row.iter_mut().enumerate() {
                    let base = t * self.kernel;
                    let mut best = f32::NEG_INFINITY;
                    for &v in &x_row[base..base + self.kernel] {
                        if v > best {
                            best = v;
                        }
                    }
                    *yv = best;
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.take().expect("backward without forward(train)");
        let in_shape = self
            .in_shape
            .take()
            .expect("backward without forward(train)");
        let (n, c, lo) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
        let l = in_shape[2];
        let mut gx = Tensor::zeros(&in_shape);
        for ni in 0..n {
            let gb = grad_out.batch(ni);
            let ob = gx.batch_mut(ni);
            for ci in 0..c {
                for t in 0..lo {
                    let src = argmax[(ni * c + ci) * lo + t];
                    ob[ci * l + src] += gb[ci * lo + t];
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// Global average pooling `(N, C, L) → (N, C)`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool1d {
    in_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool1d {
    /// New pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.in_shape = Some(x.shape().to_vec());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "GlobalAvgPool1d expects (N, C, L)");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let mut y = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            let xb = x.batch(ni);
            let y_row = y.row_mut(ni);
            for ci in 0..c {
                y_row[ci] = xb[ci * l..(ci + 1) * l].iter().sum::<f32>() / l as f32;
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .take()
            .expect("backward without forward(train)");
        let (n, c, l) = (in_shape[0], in_shape[1], in_shape[2]);
        let mut gx = Tensor::zeros(&in_shape);
        for ni in 0..n {
            let g_row = grad_out.row(ni);
            let ob = gx.batch_mut(ni);
            for ci in 0..c {
                let g = g_row[ci] / l as f32;
                for v in &mut ob[ci * l..(ci + 1) * l] {
                    *v = g;
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// Stride-1 max pooling with a centred odd window, `(N, C, L) → (N, C, L)`:
/// output `t` is the maximum over `[t − k/2, t + k/2]` clipped to the
/// sequence (the inception pool path).
#[derive(Debug, Clone)]
pub struct SameMaxPool1d {
    kernel: usize,
    argmax: Option<Vec<usize>>,
    in_shape: Option<Vec<usize>>,
}

impl SameMaxPool1d {
    /// New pool of odd width `kernel`.
    ///
    /// # Panics
    /// Panics if `kernel` is even.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same pooling needs an odd kernel");
        Self {
            kernel,
            argmax: None,
            in_shape: None,
        }
    }

    /// Pools `x`, recording each output's source index when asked.
    fn pool(&self, x: &Tensor, mut argmax: Option<&mut [usize]>) -> Tensor {
        assert_eq!(x.shape().len(), 3, "SameMaxPool1d expects (N, C, L)");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let half = self.kernel / 2;
        let mut y = Tensor::zeros(&[n, c, l]);
        for ni in 0..n {
            let xb = x.batch(ni);
            let yb = y.batch_mut(ni);
            for ci in 0..c {
                let row = &xb[ci * l..(ci + 1) * l];
                for t in 0..l {
                    let lo = t.saturating_sub(half);
                    let hi = (t + half + 1).min(l);
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = lo;
                    for (i, &v) in row[lo..hi].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_i = lo + i;
                        }
                    }
                    yb[ci * l + t] = best;
                    if let Some(a) = argmax.as_deref_mut() {
                        a[(ni * c + ci) * l + t] = best_i;
                    }
                }
            }
        }
        y
    }
}

impl Layer for SameMaxPool1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.infer(x);
        }
        let mut argmax = vec![0usize; x.numel()];
        let y = self.pool(x, Some(&mut argmax));
        self.argmax = Some(argmax);
        self.in_shape = Some(x.shape().to_vec());
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool(x, None)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.take().expect("backward without forward(train)");
        let shape = self
            .in_shape
            .take()
            .expect("backward without forward(train)");
        let (n, c, l) = (shape[0], shape[1], shape[2]);
        let mut gx = Tensor::zeros(&shape);
        for ni in 0..n {
            let gb = grad_out.batch(ni);
            let ob = gx.batch_mut(ni);
            for ci in 0..c {
                for t in 0..l {
                    ob[ci * l + argmax[(ni * c + ci) * l + t]] += gb[ci * l + t];
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// Mean over the token axis, `(N, T, D) → (N, D)`: each output accumulates
/// `z[t] / T` in token order (the transformer's pooled readout).
#[derive(Debug, Clone, Default)]
pub struct TokenMeanPool {
    in_shape: Option<Vec<usize>>,
}

impl TokenMeanPool {
    /// New pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for TokenMeanPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            self.in_shape = Some(x.shape().to_vec());
        }
        self.infer(x)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "TokenMeanPool expects (N, T, D)");
        let (n, t, d) = (x.dim(0), x.dim(1), x.dim(2));
        let mut y = Tensor::zeros(&[n, d]);
        for ni in 0..n {
            let xb = x.batch(ni);
            let y_row = y.row_mut(ni);
            for ti in 0..t {
                for di in 0..d {
                    y_row[di] += xb[ti * d + di] / t as f32;
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .take()
            .expect("backward without forward(train)");
        let (n, t, d) = (in_shape[0], in_shape[1], in_shape[2]);
        let mut gx = Tensor::zeros(&in_shape);
        for ni in 0..n {
            let g_row = grad_out.row(ni);
            let ob = gx.batch_mut(ni);
            for ti in 0..t {
                for di in 0..d {
                    ob[ti * d + di] = g_row[di] / t as f32;
                }
            }
        }
        gx
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
    fn same_maxpool_keeps_length_and_clips_edges() {
        let p = SameMaxPool1d::new(3);
        let x = Tensor::from_vec(&[1, 1, 5], vec![1., 5., 2., 0., 3.]);
        assert_eq!(p.infer(&x).data(), &[5., 5., 5., 3., 3.]);
    }

    #[test]
    fn same_maxpool_gradients() {
        let mut p = SameMaxPool1d::new(3);
        // Distinct neighbours keep the argmax stable under ±eps.
        let x = Tensor::from_vec(&[2, 2, 5], (0..20).map(|i| (i * 13 % 17) as f32).collect());
        check_layer_gradients(&mut p, &x, 1e-3, 1e-2);
    }

    #[test]
    fn token_mean_pool_averages_tokens() {
        let p = TokenMeanPool::new();
        let x = Tensor::from_vec(&[1, 2, 3], vec![1., 2., 3., 3., 4., 5.]);
        assert_eq!(p.infer(&x).data(), &[2., 3., 4.]);
    }

    #[test]
    fn token_mean_pool_gradients() {
        let mut p = TokenMeanPool::new();
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut p, &x, 1e-2, 1e-2);
    }

    #[test]
    fn maxpool_picks_maxima() {
        let mut p = MaxPool1d::new(2);
        let x = Tensor::from_vec(&[1, 1, 6], vec![1., 3., 2., 2., 5., 4.]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[3., 2., 5.]);
    }

    #[test]
    fn maxpool_floor_division() {
        let mut p = MaxPool1d::new(4);
        let x = Tensor::from_vec(&[1, 1, 10], (0..10).map(|i| i as f32).collect());
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2]); // last 2 points dropped
        assert_eq!(y.data(), &[3., 7.]);
    }

    #[test]
    fn maxpool_gradients() {
        let mut p = MaxPool1d::new(2);
        // Distinct values so argmax is stable under ±eps perturbations.
        let x = Tensor::from_vec(&[2, 2, 4], (0..16).map(|i| (i * 13 % 17) as f32).collect());
        check_layer_gradients(&mut p, &x, 1e-3, 1e-2);
    }

    #[test]
    fn gap_averages() {
        let mut p = GlobalAvgPool1d::new();
        let x = Tensor::from_vec(&[1, 2, 4], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradients() {
        let mut p = GlobalAvgPool1d::new();
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut p, &x, 1e-2, 1e-2);
    }
}
