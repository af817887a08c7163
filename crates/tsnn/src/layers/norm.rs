//! Batch normalisation (channel-wise on sequences) and layer normalisation.

use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;

const EPS: f32 = 1e-5;

/// Batch norm over `(N, C, L)`: statistics per channel across `N · L`.
///
/// Running statistics (momentum 0.1) are used in inference mode.
///
/// # The chain
///
/// Each `(n, c)` row's sum is one left-to-right chain from `-0.0` (what
/// `Iterator::sum` computes), folded into its channel's total in batch
/// order; the passes keep several rows' chains in flight at once, which
/// changes only the schedule. Normalisation is `x̂ = (v − m)·s` then
/// `γ·x̂ + β`, mul and add rounded separately. The training tape is the
/// input and the per-channel mean and `1/σ`; backward recomputes `x̂`
/// from them with the same two operations, so it reads the bits forward
/// produced without storing them.
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
}

/// Rows (channels of one batch element) whose chains run together.
const CHAINS: usize = 8;

/// For every row `(ni, ci)` of a `(n, c, l)` input `x`, with `R` rows in
/// flight at a time, runs one chain per row over its elements `v` and
/// hands the chain's step to `step(ci, t, v, acc) -> acc`; `fold(ci,
/// acc)` then folds each finished chain into its channel, rows in batch
/// order per channel.
#[inline(always)]
fn channel_chains<A: Copy>(
    x: &[f32],
    (c, l): (usize, usize),
    init: A,
    step: impl Fn(usize, usize, f32, A) -> A,
    mut fold: impl FnMut(usize, A),
) {
    for xb in x.chunks_exact(c * l) {
        let mut c0 = 0;
        while c0 < c {
            let base = c0;
            let rows = &xb[base * l..];
            let r = match c - base {
                CHAINS.. => CHAINS,
                4.. => 4,
                _ => 1,
            };
            let mut run = |accs: &[A]| {
                for (j, &a) in accs.iter().enumerate() {
                    fold(base + j, a);
                }
            };
            match r {
                CHAINS => run(&chain_rows::<CHAINS, A>(rows, l, base, init, &step)),
                4 => run(&chain_rows::<4, A>(rows, l, base, init, &step)),
                _ => run(&chain_rows::<1, A>(rows, l, base, init, &step)),
            }
            c0 += r;
        }
    }
}

/// `R` independent chains over rows `0..R` of `rows` (rows of `l`, row
/// `j` belonging to channel `c0 + j`), interleaved by time step.
// One time step across `R` rows per iteration is the point: the chains
// interleave, so a range over `t` indexes every row.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn chain_rows<const R: usize, A: Copy>(
    rows: &[f32],
    l: usize,
    c0: usize,
    init: A,
    step: &impl Fn(usize, usize, f32, A) -> A,
) -> [A; R] {
    let rows: [&[f32]; R] = std::array::from_fn(|j| &rows[j * l..j * l + l]);
    let mut acc = [init; R];
    for t in 0..l {
        for j in 0..R {
            acc[j] = step(c0 + j, t, rows[j][t], acc[j]);
        }
    }
    acc
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
        }
    }

    /// `y = γ·((v − m)·s) + β` per channel, `stats(ci) = (m, s)`.
    #[inline(always)]
    fn normalise(&self, x: &[f32], l: usize, y: &mut [f32], stats: impl Fn(usize) -> (f32, f32)) {
        let c = self.channels;
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        for (i, (y_row, x_row)) in y.chunks_exact_mut(l).zip(x.chunks_exact(l)).enumerate() {
            let ci = i % c;
            let (m, s) = stats(ci);
            let (g, b) = (gamma[ci], beta[ci]);
            for (yv, &v) in y_row.iter_mut().zip(x_row) {
                let h = (v - m) * s;
                *yv = g * h + b;
            }
        }
    }
}

impl Layer for BatchNorm1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn buffers(&self) -> Vec<&Vec<f32>> {
        vec![&self.running_mean, &self.running_var]
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "BatchNorm1d expects (N, C, L)");
        assert_eq!(x.dim(1), self.channels, "channel mismatch");
        x
    }

    /// The tape: per-channel mean, then `1/σ`.
    fn ws_len(&self, _x: Dims, train: bool) -> usize {
        if train {
            2 * self.channels
        } else {
            0
        }
    }

    /// Backward's two per-channel sums.
    fn grad_len(&self, _x: Dims) -> usize {
        2 * self.channels
    }

    /// Three passes: the mean's row chains, the variance's row chains
    /// (`(v − m)·(v − m)`), then normalisation.
    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        let (n, c, l) = (xd.dim(0), xd.dim(1), xd.dim(2));
        let count = (n * l) as f32;
        let (mean, inv_std) = ws[..2 * c].split_at_mut(c);
        mean.fill(0.0);
        channel_chains(x, (c, l), -0.0, |_, _, v, a| a + v, |ci, a| mean[ci] += a);
        for m in mean.iter_mut() {
            *m /= count;
        }
        // The variance accumulates in the `1/σ` slot, then becomes it.
        let var = inv_std;
        var.fill(0.0);
        let mean = &*mean;
        channel_chains(
            x,
            (c, l),
            -0.0,
            |ci, _, v, a| a + (v - mean[ci]) * (v - mean[ci]),
            |ci, a| var[ci] += a,
        );
        for v in var.iter_mut() {
            *v /= count;
        }
        let mom = self.momentum;
        for ci in 0..c {
            self.running_mean[ci] = (1.0 - mom) * self.running_mean[ci] + mom * mean[ci];
            self.running_var[ci] = (1.0 - mom) * self.running_var[ci] + mom * var[ci];
        }
        for v in var.iter_mut() {
            *v = 1.0 / (*v + EPS).sqrt();
        }
        let inv_std = &*var;
        self.normalise(x, l, y, |ci| (mean[ci], inv_std[ci]));
    }

    /// Two passes: the row chains of `Σg` and `Σ g·x̂` (two per row), then
    /// `dx = (γ·s / count) · (count·g − Σg − x̂·Σ(g·x̂))`.
    // kdprof: hot
    fn backward_ws(
        &mut self,
        x: &[f32],
        xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (tape, scratch): (&mut [f32], &mut [f32]),
    ) {
        let (n, c, l) = (xd.dim(0), xd.dim(1), xd.dim(2));
        let count = (n * l) as f32;
        let (mean, inv_std) = tape[..2 * c].split_at(c);
        let (sum_g, sum_gx) = scratch[..2 * c].split_at_mut(c);
        sum_g.fill(0.0);
        sum_gx.fill(0.0);
        // Σg and Σ g·x̂ per row, two chains each; the gradient rows line up
        // with the input rows, so one pass walks both.
        let stride = c * l;
        for (ni, gb) in gy.chunks_exact(stride).enumerate() {
            let xb = &x[ni * stride..(ni + 1) * stride];
            channel_chains(
                gb,
                (c, l),
                (-0.0f32, -0.0f32),
                |ci, t, g, (ag, agx)| {
                    let h = (xb[ci * l + t] - mean[ci]) * inv_std[ci];
                    (ag + g, agx + g * h)
                },
                |ci, (ag, agx)| {
                    sum_g[ci] += ag;
                    sum_gx[ci] += agx;
                },
            );
        }
        for ci in 0..c {
            self.gamma.grad.data_mut()[ci] += sum_gx[ci];
            self.beta.grad.data_mut()[ci] += sum_g[ci];
        }
        let gamma = self.gamma.value.data();
        for (i, (o_row, (x_row, g_row))) in gx
            .chunks_exact_mut(l)
            .zip(x.chunks_exact(l).zip(gy.chunks_exact(l)))
            .enumerate()
        {
            let ci = i % c;
            let (m, s) = (mean[ci], inv_std[ci]);
            let scale = gamma[ci] * s / count;
            let (sg, sgx) = (sum_g[ci], sum_gx[ci]);
            for ((o, &g), &v) in o_row.iter_mut().zip(g_row).zip(x_row) {
                let h = (v - m) * s;
                *o = scale * (count * g - sg - h * sgx);
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        self.normalise(x, xd.dim(2), y, |ci| {
            (
                self.running_mean[ci],
                1.0 / (self.running_var[ci] + EPS).sqrt(),
            )
        });
    }
}

/// Layer norm over the last dimension of `(N, T, D)` or `(N, D)`.
///
/// # The chain
///
/// Per row: `mean = Σv / D` and `var = Σ(v − mean)² / D`, each one
/// left-to-right `Iterator::sum`, `s = 1 / √(var + ε)`, then
/// `x̂ = (v − mean)·s` and `γ·x̂ + β`, no `mul_add`. The training tape is
/// each row's mean and `s`; backward recomputes `x̂` from them with the
/// same two operations.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale γ, shape `(D,)`.
    pub gamma: Param,
    /// Shift β, shape `(D,)`.
    pub beta: Param,
    dim: usize,
}

impl LayerNorm {
    /// New layer normalising vectors of length `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::from_vec(&[dim], vec![1.0; dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            dim,
        }
    }

    /// Normalises `x` into `y` row by row, handing each row's `(mean, s)`
    /// to `keep`.
    #[inline(always)]
    fn normalise(&self, x: &[f32], y: &mut [f32], mut keep: impl FnMut(usize, f32, f32)) {
        let d = self.dim;
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        for (r, (xs, yb)) in x.chunks_exact(d).zip(y.chunks_exact_mut(d)).enumerate() {
            let mean: f32 = xs.iter().sum::<f32>() / d as f32;
            let var: f32 = xs.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            keep(r, mean, inv_std);
            for i in 0..d {
                let h = (xs[i] - mean) * inv_std;
                yb[i] = gamma[i] * h + beta[i];
            }
        }
    }
}

impl Layer for LayerNorm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.dim(x.rank() - 1), self.dim, "last-dim mismatch");
        x
    }

    /// The tape: each row's mean, then its `1/σ`.
    fn ws_len(&self, x: Dims, train: bool) -> usize {
        if train {
            2 * (x.numel() / self.dim)
        } else {
            0
        }
    }

    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], _xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        let rows = x.len() / self.dim;
        let (means, inv_stds) = ws[..2 * rows].split_at_mut(rows);
        self.normalise(x, y, |r, m, s| {
            means[r] = m;
            inv_stds[r] = s;
        });
    }

    /// Per row, in row order: `dγ += g·x̂`, `dβ += g`; then with `gg =
    /// g·γ`, `dx = s / D · (D·gg − Σgg − x̂·Σ(gg·x̂))`.
    // kdprof: hot
    #[allow(clippy::needless_range_loop)] // `i` indexes five rows at once
    fn backward_ws(
        &mut self,
        x: &[f32],
        _xd: Dims,
        _y: &[f32],
        gy: &[f32],
        gx: &mut [f32],
        (tape, _): (&mut [f32], &mut [f32]),
    ) {
        let d = self.dim;
        let rows = x.len() / d;
        let (means, inv_stds) = tape[..2 * rows].split_at(rows);
        let gamma = self.gamma.value.data();
        let (g_gamma, g_beta) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        for (r, ((g_row, x_row), o_row)) in gy
            .chunks_exact(d)
            .zip(x.chunks_exact(d))
            .zip(gx.chunks_exact_mut(d))
            .enumerate()
        {
            let (mean, inv_std) = (means[r], inv_stds[r]);
            let h = |i: usize| (x_row[i] - mean) * inv_std;
            for i in 0..d {
                g_gamma[i] += g_row[i] * h(i);
                g_beta[i] += g_row[i];
            }
            let gg = |i: usize| g_row[i] * gamma[i];
            let sum_gg: f32 = (0..d).map(gg).sum();
            let sum_ggh: f32 = (0..d).map(|i| gg(i) * h(i)).sum();
            for i in 0..d {
                o_row[i] = inv_std / d as f32 * (d as f32 * gg(i) - sum_gg - h(i) * sum_ggh);
            }
        }
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], _xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        self.normalise(x, y, |_, _, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;

    #[test]
    fn batchnorm_normalises_in_train_mode() {
        let mut bn = Seq::new().then(BatchNorm1d::new(2));
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
        let mut bn = Seq::new().then(BatchNorm1d::new(1));
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
        let mut bn = Seq::new().then(BatchNorm1d::new(2));
        let x = Tensor::from_vec(
            &[2, 2, 3],
            (0..12).map(|i| ((i * 5 % 7) as f32 - 3.0) * 0.5).collect(),
        );
        check_layer_gradients(&mut bn, &x, 1e-2, 3e-2);
    }

    #[test]
    fn layernorm_normalises_each_row() {
        let mut ln = Seq::new().then(LayerNorm::new(4));
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
        let mut ln = Seq::new().then(LayerNorm::new(5));
        let x = Tensor::from_vec(
            &[3, 5],
            (0..15).map(|i| ((i * 3 % 11) as f32 - 5.0) * 0.4).collect(),
        );
        check_layer_gradients(&mut ln, &x, 1e-2, 3e-2);
    }

    #[test]
    fn layernorm_works_on_rank3() {
        let mut ln = Seq::new().then(LayerNorm::new(4));
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32 * 0.1).collect());
        let y = ln.forward(&x, false);
        assert_eq!(y.shape(), &[2, 3, 4]);
    }
}
