//! Pooling layers.

use crate::param::{Layer, Param};
use crate::workspace::Dims;

/// The first maximum of `row[lo..hi]` (strictly greater wins, so ties
/// and NaNs keep the earlier index) and its index; `-inf` at `lo` when
/// nothing beats it.
#[inline]
fn window_max(row: &[f32], lo: usize, hi: usize) -> (f32, usize) {
    let mut best = f32::NEG_INFINITY;
    let mut best_i = lo;
    for (i, &v) in row[lo..hi].iter().enumerate() {
        if v > best {
            best = v;
            best_i = lo + i;
        }
    }
    (best, best_i)
}

/// Max pooling on `(N, C, L) → (N, C, L/k)` (non-overlapping, floor).
/// Backward re-finds each window's maximum in the taped input.
#[derive(Debug, Clone)]
pub struct MaxPool1d {
    kernel: usize,
}

impl MaxPool1d {
    /// New pool of width `kernel`.
    ///
    /// # Panics
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "kernel must be positive");
        Self { kernel }
    }
}

impl Layer for MaxPool1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "MaxPool1d expects (N, C, L)");
        let lo = x.dim(2) / self.kernel;
        assert!(lo > 0, "sequence shorter than pooling kernel");
        Dims::new(&[x.dim(0), x.dim(1), lo])
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        let (l, k) = (xd.dim(2), self.kernel);
        let lo = l / k;
        gx.fill(0.0);
        for ((x_row, g_row), o_row) in x
            .chunks_exact(l)
            .zip(gy.chunks_exact(lo))
            .zip(gx.chunks_exact_mut(l))
        {
            for (t, &g) in g_row.iter().enumerate() {
                let (_, src) = window_max(x_row, t * k, t * k + k);
                o_row[src] += g;
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let (l, k) = (xd.dim(2), self.kernel);
        let lo = self.out_dims(xd).dim(2);
        for (x_row, y_row) in x.chunks_exact(l).zip(y.chunks_exact_mut(lo)) {
            for (t, v) in y_row.iter_mut().enumerate() {
                *v = window_max(x_row, t * k, t * k + k).0;
            }
        }
    }
}

/// Global average pooling `(N, C, L) → (N, C)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalAvgPool1d;

impl GlobalAvgPool1d {
    /// New pool.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for GlobalAvgPool1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "GlobalAvgPool1d expects (N, C, L)");
        Dims::new(&[x.dim(0), x.dim(1)])
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
        let l = xd.dim(2);
        for (o_row, &g) in gx.chunks_exact_mut(l).zip(gy) {
            o_row.fill(g / l as f32);
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let l = xd.dim(2);
        for (v, row) in y.iter_mut().zip(x.chunks_exact(l)) {
            *v = row.iter().sum::<f32>() / l as f32;
        }
    }
}

/// Stride-1 max pooling with a centred odd window, `(N, C, L) → (N, C, L)`:
/// output `t` is the maximum over `[t − k/2, t + k/2]` clipped to the
/// sequence (the inception pool path). Backward re-finds each window's
/// maximum in the taped input.
#[derive(Debug, Clone)]
pub struct SameMaxPool1d {
    kernel: usize,
}

impl SameMaxPool1d {
    /// New pool of odd width `kernel`.
    ///
    /// # Panics
    /// Panics if `kernel` is even.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same pooling needs an odd kernel");
        Self { kernel }
    }

    /// The clipped window `[lo, hi)` of output `t` in a row of `l`.
    #[inline]
    fn window(&self, t: usize, l: usize) -> (usize, usize) {
        let half = self.kernel / 2;
        (t.saturating_sub(half), (t + half + 1).min(l))
    }
}

impl Layer for SameMaxPool1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "SameMaxPool1d expects (N, C, L)");
        x
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        let l = xd.dim(2);
        gx.fill(0.0);
        for ((x_row, g_row), o_row) in x
            .chunks_exact(l)
            .zip(gy.chunks_exact(l))
            .zip(gx.chunks_exact_mut(l))
        {
            for (t, &g) in g_row.iter().enumerate() {
                let (lo, hi) = self.window(t, l);
                o_row[window_max(x_row, lo, hi).1] += g;
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let l = xd.dim(2);
        for (x_row, y_row) in x.chunks_exact(l).zip(y.chunks_exact_mut(l)) {
            for (t, v) in y_row.iter_mut().enumerate() {
                let (lo, hi) = self.window(t, l);
                *v = window_max(x_row, lo, hi).0;
            }
        }
    }
}

/// Mean over the token axis, `(N, T, D) → (N, D)`: each output accumulates
/// `z[t] / T` in token order from `+0.0` (the transformer's pooled
/// readout).
#[derive(Debug, Clone, Copy, Default)]
pub struct TokenMeanPool;

impl TokenMeanPool {
    /// New pool.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for TokenMeanPool {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "TokenMeanPool expects (N, T, D)");
        Dims::new(&[x.dim(0), x.dim(2)])
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.infer_ws(x, xd, y, ws);
    }

    /// `gx[t] = g / T` for every token.
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
        let (t, d) = (xd.dim(1), xd.dim(2));
        for (g_row, ob) in gy.chunks_exact(d).zip(gx.chunks_exact_mut(t * d)) {
            for o_row in ob.chunks_exact_mut(d) {
                for (o, &g) in o_row.iter_mut().zip(g_row) {
                    *o = g / t as f32;
                }
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let (t, d) = (xd.dim(1), xd.dim(2));
        y.fill(0.0);
        for (xb, y_row) in x.chunks_exact(t * d).zip(y.chunks_exact_mut(d)) {
            for x_row in xb.chunks_exact(d) {
                for (o, &v) in y_row.iter_mut().zip(x_row) {
                    *o += v / t as f32;
                }
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

    #[test]
    fn same_maxpool_keeps_length_and_clips_edges() {
        let p = Seq::new().then(SameMaxPool1d::new(3));
        let x = Tensor::from_vec(&[1, 1, 5], vec![1., 5., 2., 0., 3.]);
        assert_eq!(p.infer(&x).data(), &[5., 5., 5., 3., 3.]);
    }

    #[test]
    fn same_maxpool_gradients() {
        let mut p = Seq::new().then(SameMaxPool1d::new(3));
        // Distinct neighbours keep the argmax stable under ±eps.
        let x = Tensor::from_vec(&[2, 2, 5], (0..20).map(|i| (i * 13 % 17) as f32).collect());
        check_layer_gradients(&mut p, &x, 1e-3, 1e-2);
    }

    #[test]
    fn token_mean_pool_averages_tokens() {
        let p = Seq::new().then(TokenMeanPool::new());
        let x = Tensor::from_vec(&[1, 2, 3], vec![1., 2., 3., 3., 4., 5.]);
        assert_eq!(p.infer(&x).data(), &[2., 3., 4.]);
    }

    #[test]
    fn token_mean_pool_gradients() {
        let mut p = Seq::new().then(TokenMeanPool::new());
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut p, &x, 1e-2, 1e-2);
    }

    #[test]
    fn maxpool_picks_maxima() {
        let mut p = Seq::new().then(MaxPool1d::new(2));
        let x = Tensor::from_vec(&[1, 1, 6], vec![1., 3., 2., 2., 5., 4.]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[3., 2., 5.]);
    }

    #[test]
    fn maxpool_floor_division() {
        let mut p = Seq::new().then(MaxPool1d::new(4));
        let x = Tensor::from_vec(&[1, 1, 10], (0..10).map(|i| i as f32).collect());
        let y = p.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2]); // last 2 points dropped
        assert_eq!(y.data(), &[3., 7.]);
    }

    #[test]
    fn maxpool_gradients() {
        let mut p = Seq::new().then(MaxPool1d::new(2));
        // Distinct values so argmax is stable under ±eps perturbations.
        let x = Tensor::from_vec(&[2, 2, 4], (0..16).map(|i| (i * 13 % 17) as f32).collect());
        check_layer_gradients(&mut p, &x, 1e-3, 1e-2);
    }

    #[test]
    fn gap_averages() {
        let mut p = Seq::new().then(GlobalAvgPool1d::new());
        let x = Tensor::from_vec(&[1, 2, 4], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradients() {
        let mut p = Seq::new().then(GlobalAvgPool1d::new());
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        check_layer_gradients(&mut p, &x, 1e-2, 1e-2);
    }
}
