//! Multi-head self-attention.

use crate::layers::Linear;
use crate::param::{Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;

/// Multi-head self-attention on `(N, T, D) → (N, T, D)`.
///
/// Q/K/V/output projections are [`Linear`] layers applied to the flattened
/// `(N·T, D)` view; the attention core (scaled dot-product + row softmax) is
/// computed per batch element and head with an explicit backward pass.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    n: usize,
    t: usize,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax attention weights, one `(T, T)` matrix per `(batch, head)`.
    attn: Vec<Vec<f32>>,
}

impl MultiHeadSelfAttention {
    /// New attention block with `heads` heads over model width `dim`.
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide by heads"
        );
        Self {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
            cache: None,
        }
    }

    /// Head width `D / heads`.
    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// The attention core shared by training and inference: scaled
    /// dot-product + row softmax + value mixing, per batch element and head.
    /// Returns the concatenated head outputs and (when `keep_attn`) the
    /// softmax matrices the backward pass needs.
    fn attention_core(
        &self,
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        n: usize,
        t: usize,
        keep_attn: bool,
    ) -> (Tensor, Vec<Vec<f32>>) {
        let d = self.dim;
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();
        let mut o = Tensor::zeros(&[n * t, d]);
        let mut attn_cache = Vec::with_capacity(if keep_attn { n * self.heads } else { 0 });
        for ni in 0..n {
            for h in 0..self.heads {
                let qa = head_block(q, ni, t, d, dh, h);
                let ka = head_block(k, ni, t, d, dh, h);
                let va = head_block(v, ni, t, d, dh, h);
                // S = Q Kᵀ · scale, row softmax → A.
                let mut attn = vec![0.0f32; t * t];
                for i in 0..t {
                    let qi = &qa[i * dh..(i + 1) * dh];
                    let row = &mut attn[i * t..(i + 1) * t];
                    let mut max = f32::NEG_INFINITY;
                    for (j, rv) in row.iter_mut().enumerate() {
                        let kj = &ka[j * dh..(j + 1) * dh];
                        let s: f32 = qi.iter().zip(kj).map(|(&a, &b)| a * b).sum();
                        *rv = s * scale;
                        if *rv > max {
                            max = *rv;
                        }
                    }
                    let mut sum = 0.0f32;
                    for rv in row.iter_mut() {
                        *rv = (*rv - max).exp();
                        sum += *rv;
                    }
                    for rv in row.iter_mut() {
                        *rv /= sum;
                    }
                }
                // O = A · V  → write into head slice of o.
                let mut oa = vec![0.0f32; t * dh];
                for i in 0..t {
                    let a_row = &attn[i * t..(i + 1) * t];
                    let o_row = &mut oa[i * dh..(i + 1) * dh];
                    for (j, &a) in a_row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let v_row = &va[j * dh..(j + 1) * dh];
                        for (ov, &vv) in o_row.iter_mut().zip(v_row) {
                            *ov += a * vv;
                        }
                    }
                }
                add_head_block(&mut o, &oa, ni, t, d, dh, h);
                if keep_attn {
                    attn_cache.push(attn);
                }
            }
        }
        (o, attn_cache)
    }
}

/// Copies head `h`'s `(T, dh)` block out of a flat `(N·T, D)` tensor.
fn head_block(flat: &Tensor, n: usize, t: usize, dim: usize, dh: usize, h: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(t * dh);
    for ti in 0..t {
        let row = &flat.data()[(n * t + ti) * dim..(n * t + ti) * dim + dim];
        out.extend_from_slice(&row[h * dh..(h + 1) * dh]);
    }
    out
}

/// Adds a `(T, dh)` head block back into a flat `(N·T, D)` gradient tensor.
fn add_head_block(
    flat: &mut Tensor,
    block: &[f32],
    n: usize,
    t: usize,
    dim: usize,
    dh: usize,
    h: usize,
) {
    for ti in 0..t {
        let dst = &mut flat.data_mut()[(n * t + ti) * dim..(n * t + ti) * dim + dim];
        for (d, &s) in dst[h * dh..(h + 1) * dh]
            .iter_mut()
            .zip(&block[ti * dh..(ti + 1) * dh])
        {
            *d += s;
        }
    }
}

impl Layer for MultiHeadSelfAttention {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 3, "attention expects (N, T, D)");
        let (n, t, d) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(d, self.dim, "model width mismatch");

        let flat = x.clone().reshape(&[n * t, d]);
        let q = self.wq.forward(&flat, train);
        let k = self.wk.forward(&flat, train);
        let v = self.wv.forward(&flat, train);

        let (o, attn_cache) = self.attention_core(&q, &k, &v, n, t, train);

        let y = self.wo.forward(&o, train);
        if train {
            self.cache = Some(AttnCache {
                n,
                t,
                q,
                k,
                v,
                attn: attn_cache,
            });
        }
        y.reshape(&[n, t, d])
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 3, "attention expects (N, T, D)");
        let (n, t, d) = (x.dim(0), x.dim(1), x.dim(2));
        assert_eq!(d, self.dim, "model width mismatch");
        let flat = x.clone().reshape(&[n * t, d]);
        let q = self.wq.infer(&flat);
        let k = self.wk.infer(&flat);
        let v = self.wv.infer(&flat);
        let (o, _) = self.attention_core(&q, &k, &v, n, t, false);
        self.wo.infer(&o).reshape(&[n, t, d])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward without forward(train)");
        let (n, t, d) = (cache.n, cache.t, self.dim);
        let dh = self.head_dim();
        let scale = 1.0 / (dh as f32).sqrt();

        let g_flat = grad_out.clone().reshape(&[n * t, d]);
        let go = self.wo.backward(&g_flat); // grad wrt concatenated heads

        let mut gq = Tensor::zeros(&[n * t, d]);
        let mut gk = Tensor::zeros(&[n * t, d]);
        let mut gv = Tensor::zeros(&[n * t, d]);

        for ni in 0..n {
            for h in 0..self.heads {
                let attn = &cache.attn[ni * self.heads + h];
                let qa = head_block(&cache.q, ni, t, d, dh, h);
                let ka = head_block(&cache.k, ni, t, d, dh, h);
                let va = head_block(&cache.v, ni, t, d, dh, h);
                let goa = head_block(&go, ni, t, d, dh, h);

                // dV = Aᵀ · dO ; dA = dO · Vᵀ
                let mut dva = vec![0.0f32; t * dh];
                let mut da = vec![0.0f32; t * t];
                for i in 0..t {
                    let a_row = &attn[i * t..(i + 1) * t];
                    let go_row = &goa[i * dh..(i + 1) * dh];
                    for j in 0..t {
                        let a = a_row[j];
                        let v_row = &va[j * dh..(j + 1) * dh];
                        let mut dot = 0.0f32;
                        for (&g, &vv) in go_row.iter().zip(v_row) {
                            dot += g * vv;
                        }
                        da[i * t + j] = dot;
                        if a != 0.0 {
                            let dv_row = &mut dva[j * dh..(j + 1) * dh];
                            for (dv, &g) in dv_row.iter_mut().zip(go_row) {
                                *dv += a * g;
                            }
                        }
                    }
                }
                // Softmax backward: dS = A ⊙ (dA − rowsum(dA ⊙ A)).
                let mut ds = vec![0.0f32; t * t];
                for i in 0..t {
                    let a_row = &attn[i * t..(i + 1) * t];
                    let da_row = &da[i * t..(i + 1) * t];
                    let dot: f32 = a_row.iter().zip(da_row).map(|(&a, &g)| a * g).sum();
                    let ds_row = &mut ds[i * t..(i + 1) * t];
                    for j in 0..t {
                        ds_row[j] = a_row[j] * (da_row[j] - dot);
                    }
                }
                // dQ = dS · K · scale ; dK = dSᵀ · Q · scale.
                let mut dqa = vec![0.0f32; t * dh];
                let mut dka = vec![0.0f32; t * dh];
                for i in 0..t {
                    let ds_row = &ds[i * t..(i + 1) * t];
                    let dq_row = &mut dqa[i * dh..(i + 1) * dh];
                    for j in 0..t {
                        let s = ds_row[j] * scale;
                        if s == 0.0 {
                            continue;
                        }
                        let k_row = &ka[j * dh..(j + 1) * dh];
                        for (dq, &kv) in dq_row.iter_mut().zip(k_row) {
                            *dq += s * kv;
                        }
                        let dk_row = &mut dka[j * dh..(j + 1) * dh];
                        let q_row = &qa[i * dh..(i + 1) * dh];
                        for (dk, &qv) in dk_row.iter_mut().zip(q_row) {
                            *dk += s * qv;
                        }
                    }
                }
                add_head_block(&mut gq, &dqa, ni, t, d, dh, h);
                add_head_block(&mut gk, &dka, ni, t, d, dh, h);
                add_head_block(&mut gv, &dva, ni, t, d, dh, h);
            }
        }

        let mut gx = self.wq.backward(&gq);
        gx.add_assign(&self.wk.backward(&gk));
        gx.add_assign(&self.wv.backward(&gv));
        gx.reshape(&[n, t, d])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.wq.params_mut();
        params.extend(self.wk.params_mut());
        params.extend(self.wv.params_mut());
        params.extend(self.wo.params_mut());
        params
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = self.wq.params();
        params.extend(self.wk.params());
        params.extend(self.wv.params());
        params.extend(self.wo.params());
        params
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
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = MultiHeadSelfAttention::new(8, 2, &mut rng);
        let x = Tensor::zeros(&[3, 5, 8]);
        let y = attn.forward(&x, false);
        assert_eq!(y.shape(), &[3, 5, 8]);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = MultiHeadSelfAttention::new(4, 1, &mut rng);
        let x = Tensor::from_vec(&[1, 3, 4], (0..12).map(|i| i as f32 * 0.1).collect());
        let _ = attn.forward(&x, true);
        let cache = attn.cache.as_ref().unwrap();
        for a in &cache.attn {
            for i in 0..3 {
                let sum: f32 = a[i * 3..(i + 1) * 3].iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = MultiHeadSelfAttention::new(4, 2, &mut rng);
        let x = Tensor::from_vec(
            &[2, 3, 4],
            (0..24)
                .map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.15)
                .collect(),
        );
        check_layer_gradients(&mut attn, &x, 1e-2, 3e-2);
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadSelfAttention::new(8, 2, &mut rng);
        assert_eq!(attn.param_count(), 4 * (8 * 8 + 8));
    }

    #[test]
    #[should_panic(expected = "dim must divide")]
    fn indivisible_heads_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = MultiHeadSelfAttention::new(6, 4, &mut rng);
    }
}
