//! Batch normalisation (channel-wise on sequences) and layer normalisation.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch norm over `(N, C, L)`: statistics per channel across `N · L`.
///
/// Running statistics (momentum 0.1) are used in inference mode.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    /// Scale γ, shape `(C,)`.
    pub gamma: Param,
    /// Shift β, shape `(C,)`.
    pub beta: Param,
    /// Running mean per channel.
    pub running_mean: Vec<f32>,
    /// Running variance per channel.
    pub running_var: Vec<f32>,
    momentum: f32,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// New layer with γ=1, β=0.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::from_vec(&[channels], vec![1.0; channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            channels,
            cache: None,
        }
    }

    /// Normalises with the given statistics: returns `γ·x̂ + β`, plus `x̂`
    /// itself when `keep_x_hat` (the training path caches it for backward;
    /// the serving path skips the input-sized allocation). Both branches
    /// run the identical per-element arithmetic — `x̂ = (v − m)·s` then
    /// `y = γ·x̂ + β` — so train-eval and infer outputs match bit-for-bit.
    fn normalise(
        &self,
        x: &Tensor,
        mean: &[f32],
        inv_std: &[f32],
        keep_x_hat: bool,
    ) -> (Tensor, Option<Tensor>) {
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let mut y = Tensor::zeros(&[n, c, l]);
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        if !keep_x_hat {
            for ni in 0..n {
                let xb = x.batch(ni);
                let yb = y.batch_mut(ni);
                for ci in 0..c {
                    let (m, s) = (mean[ci], inv_std[ci]);
                    let (g, b) = (gamma[ci], beta[ci]);
                    for (yv, &v) in yb[ci * l..(ci + 1) * l]
                        .iter_mut()
                        .zip(&xb[ci * l..(ci + 1) * l])
                    {
                        let h = (v - m) * s;
                        *yv = g * h + b;
                    }
                }
            }
            return (y, None);
        }
        let mut x_hat = Tensor::zeros(&[n, c, l]);
        for ni in 0..n {
            let xb = x.batch(ni);
            let hb = x_hat.batch_mut(ni);
            for ci in 0..c {
                let (m, s) = (mean[ci], inv_std[ci]);
                for (h, &v) in hb[ci * l..(ci + 1) * l]
                    .iter_mut()
                    .zip(&xb[ci * l..(ci + 1) * l])
                {
                    *h = (v - m) * s;
                }
            }
        }
        for ni in 0..n {
            let hb = x_hat.batch(ni);
            let yb = y.batch_mut(ni);
            for ci in 0..c {
                let (g, b) = (gamma[ci], beta[ci]);
                for (yv, &h) in yb[ci * l..(ci + 1) * l]
                    .iter_mut()
                    .zip(&hb[ci * l..(ci + 1) * l])
                {
                    *yv = g * h + b;
                }
            }
        }
        (y, Some(x_hat))
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.infer(x);
        }
        assert_eq!(x.shape().len(), 3, "BatchNorm1d expects (N, C, L)");
        assert_eq!(x.dim(1), self.channels, "channel mismatch");
        let (n, c, l) = (x.dim(0), x.dim(1), x.dim(2));
        let count = (n * l) as f32;

        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        for ni in 0..n {
            let xb = x.batch(ni);
            for ci in 0..c {
                mean[ci] += xb[ci * l..(ci + 1) * l].iter().sum::<f32>();
            }
        }
        for m in &mut mean {
            *m /= count;
        }
        for ni in 0..n {
            let xb = x.batch(ni);
            for ci in 0..c {
                let m = mean[ci];
                var[ci] += xb[ci * l..(ci + 1) * l]
                    .iter()
                    .map(|&v| (v - m) * (v - m))
                    .sum::<f32>();
            }
        }
        for v in &mut var {
            *v /= count;
        }
        for ci in 0..c {
            self.running_mean[ci] =
                (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
            self.running_var[ci] =
                (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
        }

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let (y, x_hat) = self.normalise(x, &mean, &inv_std, true);
        self.cache = Some(BnCache {
            x_hat: x_hat.expect("requested cache"),
            inv_std,
        });
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "BatchNorm1d expects (N, C, L)");
        assert_eq!(x.dim(1), self.channels, "channel mismatch");
        let inv_std: Vec<f32> = self
            .running_var
            .iter()
            .map(|&v| 1.0 / (v + EPS).sqrt())
            .collect();
        self.normalise(x, &self.running_mean, &inv_std, false).0
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward without forward(train)");
        let (n, c, l) = (grad_out.dim(0), grad_out.dim(1), grad_out.dim(2));
        let count = (n * l) as f32;
        let gamma = self.gamma.value.data().to_vec();

        // Per-channel reductions: Σg and Σ g·x̂.
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gx = vec![0.0f32; c];
        for ni in 0..n {
            let gb = grad_out.batch(ni);
            let hb = cache.x_hat.batch(ni);
            for ci in 0..c {
                let g_row = &gb[ci * l..(ci + 1) * l];
                let h_row = &hb[ci * l..(ci + 1) * l];
                sum_g[ci] += g_row.iter().sum::<f32>();
                sum_gx[ci] += g_row.iter().zip(h_row).map(|(&g, &h)| g * h).sum::<f32>();
            }
        }
        for ci in 0..c {
            self.gamma.grad.data_mut()[ci] += sum_gx[ci];
            self.beta.grad.data_mut()[ci] += sum_g[ci];
        }

        // dx = (γ·inv_std / count) · (count·g − Σg − x̂·Σ(g·x̂))
        let mut gx = Tensor::zeros(&[n, c, l]);
        for ni in 0..n {
            let gb = grad_out.batch(ni);
            let hb = cache.x_hat.batch(ni);
            let ob = gx.batch_mut(ni);
            for ci in 0..c {
                let scale = gamma[ci] * cache.inv_std[ci] / count;
                let (sg, sgx) = (sum_g[ci], sum_gx[ci]);
                let g_row = &gb[ci * l..(ci + 1) * l];
                let h_row = &hb[ci * l..(ci + 1) * l];
                let o_row = &mut ob[ci * l..(ci + 1) * l];
                for ((o, &g), &h) in o_row.iter_mut().zip(g_row).zip(h_row) {
                    *o = scale * (count * g - sg - h * sgx);
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        vec![&self.running_mean, &self.running_var]
    }
}

/// Layer norm over the last dimension of `(N, T, D)` or `(N, D)`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale γ, shape `(D,)`.
    pub gamma: Param,
    /// Shift β, shape `(D,)`.
    pub beta: Param,
    dim: usize,
    cache: Option<LnCache>,
}

#[derive(Debug, Clone)]
struct LnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>, // one per normalisation row
}

impl LayerNorm {
    /// New layer normalising vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::from_vec(&[dim], vec![1.0; dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            dim,
            cache: None,
        }
    }

    /// Shared normalisation: `y`, plus `(x̂, inv_std per row)` when
    /// `keep_cache` (training needs them for backward; serving skips the
    /// input-sized x̂ allocation). Identical per-element arithmetic either
    /// way, so both paths produce the same bits.
    fn normalise(&self, x: &Tensor, keep_cache: bool) -> (Tensor, Option<(Tensor, Vec<f32>)>) {
        let d = *x.shape().last().expect("non-scalar input");
        assert_eq!(d, self.dim, "last-dim mismatch");
        let rows = x.numel() / d;
        let mut y = Tensor::zeros(x.shape());
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        if !keep_cache {
            for r in 0..rows {
                let xs = &x.data()[r * d..(r + 1) * d];
                let mean: f32 = xs.iter().sum::<f32>() / d as f32;
                let var: f32 = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let inv_std = 1.0 / (var + EPS).sqrt();
                let yb = &mut y.data_mut()[r * d..(r + 1) * d];
                for i in 0..d {
                    let h = (xs[i] - mean) * inv_std;
                    yb[i] = gamma[i] * h + beta[i];
                }
            }
            return (y, None);
        }
        let mut x_hat = Tensor::zeros(x.shape());
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let xs = &x.data()[r * d..(r + 1) * d];
            let mean: f32 = xs.iter().sum::<f32>() / d as f32;
            let var: f32 = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            inv_stds.push(inv_std);
            let hb = &mut x_hat.data_mut()[r * d..(r + 1) * d];
            for (h, &v) in hb.iter_mut().zip(xs) {
                *h = (v - mean) * inv_std;
            }
            let yb = &mut y.data_mut()[r * d..(r + 1) * d];
            for i in 0..d {
                yb[i] = gamma[i] * x_hat.data()[r * d + i] + beta[i];
            }
        }
        (y, Some((x_hat, inv_stds)))
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (y, cache) = self.normalise(x, train);
        if train {
            let (x_hat, inv_std) = cache.expect("requested cache");
            self.cache = Some(LnCache { x_hat, inv_std });
        }
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.normalise(x, false).0
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward without forward(train)");
        let d = self.dim;
        let rows = grad_out.numel() / d;
        let gamma = self.gamma.value.data().to_vec();
        let mut gx = Tensor::zeros(grad_out.shape());
        for r in 0..rows {
            let g_row = &grad_out.data()[r * d..(r + 1) * d];
            let h_row = &cache.x_hat.data()[r * d..(r + 1) * d];
            // Param grads.
            for i in 0..d {
                self.gamma.grad.data_mut()[i] += g_row[i] * h_row[i];
                self.beta.grad.data_mut()[i] += g_row[i];
            }
            // dx for this row.
            let gg: Vec<f32> = (0..d).map(|i| g_row[i] * gamma[i]).collect();
            let sum_gg: f32 = gg.iter().sum();
            let sum_ggh: f32 = gg.iter().zip(h_row).map(|(&a, &h)| a * h).sum();
            let inv_std = cache.inv_std[r];
            let o_row = &mut gx.data_mut()[r * d..(r + 1) * d];
            for i in 0..d {
                o_row[i] = inv_std / d as f32 * (d as f32 * gg[i] - sum_gg - h_row[i] * sum_ggh);
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn batchnorm_normalises_in_train_mode() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(
            &[2, 2, 4],
            vec![
                1., 2., 3., 4., 10., 20., 30., 40., // batch 0: ch0, ch1
                5., 6., 7., 8., 50., 60., 70., 80., // batch 1
            ],
        );
        let y = bn.forward(&x, true);
        // Channel 0 values across N·L should have ~0 mean, ~1 std.
        let ch0: Vec<f32> = (0..2).flat_map(|n| y.batch(n)[0..4].to_vec()).collect();
        let mean: f32 = ch0.iter().sum::<f32>() / 8.0;
        let var: f32 = ch0.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(&[1, 1, 4], vec![10., 10., 10., 10.]);
        // Warm up running stats with several train passes.
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        let y = bn.forward(&x, false);
        // running_mean → 10, running_var → 0 ⇒ output ≈ β = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 0.2), "{:?}", y.data());
    }

    #[test]
    fn batchnorm_gradients() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(
            &[2, 2, 3],
            (0..12).map(|i| ((i * 5 % 7) as f32 - 3.0) * 0.5).collect(),
        );
        check_layer_gradients(&mut bn, &x, 1e-2, 3e-2);
    }

    #[test]
    fn layernorm_normalises_each_row() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -10., 0., 10., 20.]);
        let y = ln.forward(&x, false);
        for r in 0..2 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean={mean}");
        }
    }

    #[test]
    fn layernorm_gradients() {
        let mut ln = LayerNorm::new(5);
        let x = Tensor::from_vec(
            &[3, 5],
            (0..15).map(|i| ((i * 3 % 11) as f32 - 5.0) * 0.4).collect(),
        );
        check_layer_gradients(&mut ln, &x, 1e-2, 3e-2);
    }

    #[test]
    fn layernorm_works_on_rank3() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        let y = ln.forward(&x, false);
        assert_eq!(y.shape(), &[2, 3, 4]);
    }
}
