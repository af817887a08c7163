//! Single-layer LSTM with full backpropagation through time.
//!
//! Used by the LSTM-AD detector: encode a window, predict the next value(s)
//! from the final hidden state.

use crate::init::xavier_uniform;
use crate::param::{Layer, Param};
use crate::simd;
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// LSTM over `(N, T, I) → (N, H)` (final hidden state).
///
/// Gate order in the stacked weight matrices is `[i, f, g, o]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input weights, shape `(I, 4H)`.
    pub w_x: Param,
    /// Recurrent weights, shape `(H, 4H)`.
    pub w_h: Param,
    /// Bias, shape `(4H,)` (forget gate initialised to 1).
    pub bias: Param,
    input_dim: usize,
    hidden: usize,
    cache: Option<LstmCache>,
}

#[derive(Debug, Clone)]
struct LstmCache {
    x: Tensor,
    /// Gates after their nonlinearity, step `ti` at `ti·4NH`, gate-major
    /// within a step: `[i | f | g | o]`, each an `(N, H)` block.
    gates: Vec<f32>,
    /// Cell, hidden and tanh(cell) `(N, H)` blocks, step `ti` at `ti·NH`.
    cells: Vec<f32>,
    hiddens: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl Lstm {
    /// New LSTM with `hidden` units for `input_dim`-dimensional inputs.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut bias = Tensor::zeros(&[4 * hidden]);
        // Forget-gate bias 1.0: the standard trick for gradient flow.
        for v in &mut bias.data_mut()[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            w_x: Param::new(xavier_uniform(
                &[input_dim, 4 * hidden],
                input_dim,
                hidden,
                rng,
            )),
            w_h: Param::new(xavier_uniform(&[hidden, 4 * hidden], hidden, hidden, rng)),
            bias: Param::new(bias),
            input_dim,
            hidden,
            cache: None,
        }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The shared forward computation; returns the cache when `keep` is set.
    fn run_forward(&self, x: &Tensor, keep: bool) -> (Tensor, Option<LstmCache>) {
        assert_eq!(x.shape().len(), 3, "Lstm expects (N, T, I)");
        let (n, t, i_dim) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(i_dim, self.input_dim, "input width mismatch");
        let h = self.hidden;
        let h4 = 4 * h;
        let b = self.bias.value.data();

        // The input projection of *every* timestep is one (N·T, I) × (I, 4H)
        // product — hoist it onto one GEMM instead of recomputing scalar
        // dot products per step. Computed straight from
        // the borrowed input buffer; no reshape copy of `x`.
        let mut x_proj = Tensor::zeros(&[n * t, h4]);
        crate::gemm::gemm(
            n * t,
            h4,
            i_dim,
            x.data(),
            crate::gemm::Layout::Normal,
            self.w_x.value.data(),
            crate::gemm::Layout::Normal,
            x_proj.data_mut(),
        );

        // Every step's pre-activation is `(xp + b) + rec`: the bias joins
        // the input projection first, so fold it in once for all steps.
        for row in x_proj.data_mut().chunks_exact_mut(h4) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }

        // W_h is constant across the sequence: pack its panels once and run
        // every per-timestep recurrent product through the prepacked kernel
        // instead of re-packing inside each gemm call.
        let wh_packed =
            crate::gemm::PackedB::pack(h4, h, self.w_h.value.data(), crate::gemm::Layout::Normal);

        // Gates live gate-major per step (`[i | f | g | o]`, each (N, H)),
        // so the nonlinearities and the cell update run as flat loops over
        // N·H elements that vectorise. Training keeps every step in flat
        // buffers sized once here; inference reuses a single step slot.
        let nh = n * h;
        let slots = if keep { t } else { 1 };
        let mut gates = vec![0.0f32; slots * 4 * nh];
        let mut tanh_c = vec![0.0f32; slots * nh];
        let mut cells = vec![0.0f32; if keep { t * nh } else { 0 }];
        let mut hiddens = vec![0.0f32; if keep { t * nh } else { 0 }];
        // The running state, updated in place step by step.
        let mut hidden = vec![0.0f32; nh];
        let mut cell = vec![0.0f32; nh];
        let mut rec = vec![0.0f32; n * h4];

        for ti in 0..t {
            // Recurrent contribution (N,H)·(H,4H) against the packed panels.
            crate::gemm::gemm_prepacked(
                n,
                &hidden,
                crate::gemm::Layout::Normal,
                &wh_packed,
                &mut rec,
            );
            let slot = if keep { ti } else { 0 };
            let g = &mut gates[slot * 4 * nh..(slot + 1) * 4 * nh];
            for ni in 0..n {
                let xp_row = x_proj.row(ni * t + ti);
                let rec_row = &rec[ni * h4..(ni + 1) * h4];
                for gate in 0..4 {
                    let cols = gate * h..(gate + 1) * h;
                    let dst = &mut g[gate * nh + ni * h..][..h];
                    for ((p, &xp), &rv) in dst
                        .iter_mut()
                        .zip(&xp_row[cols.clone()])
                        .zip(&rec_row[cols])
                    {
                        *p = xp + rv;
                    }
                }
            }
            let (ifg, go) = g.split_at_mut(2 * nh);
            let (gg, og) = go.split_at_mut(nh);
            for v in ifg.iter_mut() {
                *v = simd::sigmoid(*v);
            }
            for v in gg.iter_mut() {
                *v = simd::tanh(*v);
            }
            for v in og.iter_mut() {
                *v = simd::sigmoid(*v);
            }
            let (ig, fg) = ifg.split_at(nh);
            for (((c, &f), &i), &gv) in cell.iter_mut().zip(fg).zip(ig).zip(&*gg) {
                *c = f * *c + i * gv;
            }
            let tc = &mut tanh_c[slot * nh..(slot + 1) * nh];
            for (((hv, tv), &c), &o) in hidden.iter_mut().zip(tc).zip(&cell).zip(&*og) {
                *tv = simd::tanh(c);
                *hv = o * *tv;
            }
            if keep {
                cells[ti * nh..(ti + 1) * nh].copy_from_slice(&cell);
                hiddens[ti * nh..(ti + 1) * nh].copy_from_slice(&hidden);
            }
        }

        let out = Tensor::from_vec(&[n, h], hidden);
        let cache = keep.then(|| LstmCache {
            x: x.clone(),
            gates,
            cells,
            hiddens,
            tanh_c,
        });
        (out, cache)
    }
}

impl Layer for Lstm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (out, cache) = self.run_forward(x, train);
        if train {
            self.cache = cache;
        }
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.run_forward(x, false).0
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward without forward(train)");
        let x = &cache.x;
        let (n, t, i_dim) = (x.dim(0), x.dim(1), x.dim(2));
        let h = self.hidden;
        let h4 = 4 * h;

        let mut dh = grad_out.data().to_vec(); // (N, H) gradient on final h
        let mut dc = vec![0.0f32; n * h];
        // Whᵀ is constant across the reverse sweep: pack once for the
        // per-timestep dh_prev products (mirror of the forward's W_h pack).
        let wh_t_packed = crate::gemm::PackedB::pack(
            h,
            h4,
            self.w_h.value.data(),
            crate::gemm::Layout::Transposed,
        );
        // All timesteps' gate pre-activation gradients, laid out like the
        // forward's x-projection (row ni*T + ti), so the x-side gradients
        // collapse into two GEMMs after the time loop.
        let mut dpre_all = vec![0.0f32; n * t * h4];
        // Per-step scratch, reused across the whole reverse loop.
        let mut dpre = vec![0.0f32; n * h4];
        let mut dwh_step = vec![0.0f32; h * h4];
        let nh = n * h;
        let mut dgate = vec![0.0f32; 4 * nh];
        let zeros = vec![0.0f32; nh];

        for ti in (0..t).rev() {
            let gates = &cache.gates[ti * 4 * nh..(ti + 1) * 4 * nh];
            let (gi, rest) = gates.split_at(nh);
            let (gf, rest) = rest.split_at(nh);
            let (gg, go) = rest.split_at(nh);
            let tanh_c = &cache.tanh_c[ti * nh..(ti + 1) * nh];
            let (c_prev, h_prev): (&[f32], &[f32]) = if ti == 0 {
                (&zeros, &[])
            } else {
                let prev = (ti - 1) * nh..ti * nh;
                (&cache.cells[prev.clone()], &cache.hiddens[prev])
            };
            // Gate pre-activation gradients for this step, as one flat
            // loop over N·H into gate-major blocks like the cached gates.
            let (di, rest) = dgate.split_at_mut(nh);
            let (df, rest) = rest.split_at_mut(nh);
            let (dg, d_o) = rest.split_at_mut(nh);
            for idx in 0..nh {
                let ig = gi[idx];
                let fg = gf[idx];
                let gv = gg[idx];
                let og = go[idx];
                let tch = tanh_c[idx];
                let dh_k = dh[idx];
                // dc accumulates from h (through tanh) and carry-in.
                let dc_k = dc[idx] + dh_k * og * (1.0 - tch * tch);
                di[idx] = dc_k * gv * ig * (1.0 - ig); // input gate
                df[idx] = dc_k * c_prev[idx] * fg * (1.0 - fg); // forget
                dg[idx] = dc_k * ig * (1.0 - gv * gv); // cell cand
                d_o[idx] = dh_k * tch * og * (1.0 - og); // output
                dc[idx] = dc_k * fg; // carry to t-1
            }
            // Back to the (N, 4H) rows the products below read.
            for ni in 0..n {
                for gate in 0..4 {
                    dpre[ni * h4 + gate * h..][..h]
                        .copy_from_slice(&dgate[gate * nh + ni * h..][..h]);
                }
            }
            for ni in 0..n {
                dpre_all[(ni * t + ti) * h4..(ni * t + ti + 1) * h4]
                    .copy_from_slice(&dpre[ni * h4..(ni + 1) * h4]);
            }
            // db += column sums of dpre.
            let gb = self.bias.grad.data_mut();
            for ni in 0..n {
                for (g, &p) in gb.iter_mut().zip(&dpre[ni * h4..(ni + 1) * h4]) {
                    *g += p;
                }
            }
            // dWh += h_prev^T . dpre and dh_prev = dpre . Wh^T, both through
            // the kernel, reading the cached slices in place. At ti == 0
            // there is no earlier step to feed, so neither product is
            // needed.
            if ti > 0 {
                crate::gemm::gemm(
                    h,
                    h4,
                    n,
                    h_prev,
                    crate::gemm::Layout::Transposed,
                    &dpre,
                    crate::gemm::Layout::Normal,
                    &mut dwh_step,
                );
                for (g, &d) in self.w_h.grad.data_mut().iter_mut().zip(&dwh_step) {
                    *g += d;
                }
                crate::gemm::gemm_prepacked(
                    n,
                    &dpre,
                    crate::gemm::Layout::Normal,
                    &wh_t_packed,
                    &mut dh,
                );
            }
        }

        // x-side gradients in two GEMMs over every timestep at once:
        // dWx += x^T . dpre_all (read transposed straight from the cached
        // input; no reshape copy), dx = dpre_all . Wx^T.
        let mut dwx = Tensor::zeros(&[i_dim, h4]);
        crate::gemm::gemm(
            i_dim,
            h4,
            n * t,
            x.data(),
            crate::gemm::Layout::Transposed,
            &dpre_all,
            crate::gemm::Layout::Normal,
            dwx.data_mut(),
        );
        self.w_x.grad.add_assign(&dwx);
        let dpre_flat = Tensor::from_vec(&[n * t, h4], dpre_all);
        dpre_flat.matmul_t(&self.w_x.value).reshape(&[n, t, i_dim])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_x, &mut self.w_h, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w_x, &self.w_h, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::SeedableRng;

    #[test]
    fn output_is_final_hidden_state_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lstm = Lstm::new(1, 6, &mut rng);
        let x = Tensor::zeros(&[4, 10, 1]);
        let y = lstm.forward(&x, false);
        assert_eq!(y.shape(), &[4, 6]);
    }

    #[test]
    fn hidden_state_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut lstm = Lstm::new(1, 4, &mut rng);
        let x = Tensor::from_vec(
            &[1, 20, 1],
            (0..20).map(|i| (i as f32).sin() * 5.0).collect(),
        );
        let y = lstm.forward(&x, false);
        // h = o ⊙ tanh(c) ∈ (-1, 1).
        assert!(y.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x = Tensor::from_vec(
            &[2, 4, 2],
            (0..16).map(|i| ((i * 5 % 9) as f32 - 4.0) * 0.2).collect(),
        );
        check_layer_gradients(&mut lstm, &x, 1e-2, 3e-2);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(1, 5, &mut rng);
        let b = lstm.bias.value.data();
        assert!(b[5..10].iter().all(|&v| v == 1.0));
        assert!(b[0..5].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn different_inputs_give_different_states() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut lstm = Lstm::new(1, 4, &mut rng);
        let a = lstm.forward(
            &Tensor::from_vec(&[1, 5, 1], vec![1., 2., 3., 4., 5.]),
            false,
        );
        let b = lstm.forward(
            &Tensor::from_vec(&[1, 5, 1], vec![5., 4., 3., 2., 1.]),
            false,
        );
        assert_ne!(a.data(), b.data());
    }
}
