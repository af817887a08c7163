//! Multi-head self-attention.

use super::graph::add_assign;
use crate::layers::Linear;
use crate::param::{Layer, Param};
use crate::workspace::{carve, Cursor, Dims};
use rand::rngs::StdRng;
use std::ops::Range;

/// Multi-head self-attention on `(N, T, D) → (N, T, D)`.
///
/// Q/K/V/output projections are [`Linear`] layers applied to the flattened
/// `(N·T, D)` view; the attention core (scaled dot-product + row softmax) is
/// computed per batch element and head with an explicit backward pass.
///
/// # The chain
///
/// Per batch element, head and query row `i`: the scores are
/// `(Σ q·k) · 1/√dh` (one `Iterator::sum` each), the softmax subtracts the
/// row maximum, exponentiates and sums left to right from `+0.0`, then
/// divides; the head output is `Σ a·v` over keys in order from `+0.0`,
/// skipping exact-zero weights. Backward keeps the same per-element
/// orders: `dA = Σ dO·v` from `+0.0`, `dS = A ⊙ (dA − Σ A·dA)`, and `dQ`,
/// `dK`, `dV` accumulate from `+0.0` over keys (`dQ`) or queries (`dK`,
/// `dV`) in order, skipping zero terms. The training tape is the
/// projections Q, K, V, the softmax rows and the head-mixed output.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

/// Workspace regions of one call: the projections and the head-mixed
/// output (`N·T·D` each), then the softmax rows — every `(batch, head)`'s
/// `T × T` matrix on the training tape, one reused row in inference.
struct Regions {
    q: Range<usize>,
    k: Range<usize>,
    v: Range<usize>,
    o: Range<usize>,
    attn: Range<usize>,
    len: usize,
}

/// Backward scratch: `∂/∂O` (reused for the K and V input gradients once
/// the heads are done), `∂/∂Q`, `∂/∂K`, `∂/∂V`, one `∂S` row and the
/// projections' weight-gradient scratch.
struct GradRegions {
    go: Range<usize>,
    gq: Range<usize>,
    gk: Range<usize>,
    gv: Range<usize>,
    row: Range<usize>,
    proj: Range<usize>,
    len: usize,
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
        }
    }

    /// Head width `D / heads`.
    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    fn regions(&self, x: Dims, train: bool) -> Regions {
        let (n, t) = (x.dim(0), x.dim(1));
        let mut at = Cursor::default();
        let act = n * t * self.dim;
        Regions {
            q: at.take(act),
            k: at.take(act),
            v: at.take(act),
            o: at.take(act),
            attn: at.take(if train { n * self.heads * t * t } else { t }),
            len: at.end(),
        }
    }

    fn grad_regions(&self, x: Dims) -> GradRegions {
        let act = x.numel();
        let mut at = Cursor::default();
        GradRegions {
            go: at.take(act),
            gq: at.take(act),
            gk: at.take(act),
            gv: at.take(act),
            row: at.take(x.dim(1)),
            proj: at.take(self.dim * self.dim),
            len: at.end(),
        }
    }

    /// The forward on `ws` (the tape when `keep`): Q, K, V projections,
    /// the core, then the output projection into `y`.
    // kdprof: hot
    fn project(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32], keep: bool) {
        let flat = Dims::new(&[xd.dim(0) * xd.dim(1), self.dim]);
        let r = self.regions(xd, keep);
        let [q, k, v, o, attn] = carve(ws, [r.q, r.k, r.v, r.o, r.attn]);
        self.wq.infer_ws(x, flat, q, &mut []);
        self.wk.infer_ws(x, flat, k, &mut []);
        self.wv.infer_ws(x, flat, v, &mut []);
        self.core((q, k, v), xd.dim(1), o, attn, keep);
        self.wo.infer_ws(o, flat, y, &mut []);
    }

    /// The attention core shared by training and inference: per batch
    /// element, head and query row, the score row, its softmax (into
    /// `attn`: the `(batch, head)`'s matrix when `keep`, else one reused
    /// row) and the value mix into that row's head slice of `o`.
    // kdprof: hot
    fn core(
        &self,
        (q, k, v): (&[f32], &[f32], &[f32]),
        t: usize,
        o: &mut [f32],
        attn: &mut [f32],
        keep: bool,
    ) {
        let (d, dh) = (self.dim, self.head_dim());
        let scale = 1.0 / (dh as f32).sqrt();
        let at = |ni: usize, i: usize, h: usize| (ni * t + i) * d + h * dh;
        let n = q.len() / (t * d);
        for ni in 0..n {
            for h in 0..self.heads {
                for i in 0..t {
                    let row = if keep {
                        &mut attn[((ni * self.heads + h) * t + i) * t..][..t]
                    } else {
                        &mut attn[..t]
                    };
                    // S = Q Kᵀ · scale, row softmax → A.
                    let qi = &q[at(ni, i, h)..][..dh];
                    let mut max = f32::NEG_INFINITY;
                    for (j, rv) in row.iter_mut().enumerate() {
                        let kj = &k[at(ni, j, h)..][..dh];
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
                    // O = A · V into the head slice (from +0.0, which no
                    // sum of products can turn into -0.0).
                    let o_row = &mut o[at(ni, i, h)..][..dh];
                    o_row.fill(0.0);
                    for (j, &a) in row.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        for (ov, &vv) in o_row.iter_mut().zip(&v[at(ni, j, h)..][..dh]) {
                            *ov += a * vv;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for MultiHeadSelfAttention {
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

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo] {
            l.for_each_param_mut(f);
        }
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "attention expects (N, T, D)");
        assert_eq!(x.dim(2), self.dim, "model width mismatch");
        x
    }

    /// The tape (training) or scratch (inference); see `Regions`.
    fn ws_len(&self, x: Dims, train: bool) -> usize {
        self.regions(x, train).len
    }

    fn grad_len(&self, x: Dims) -> usize {
        self.grad_regions(x).len
    }

    // kdprof: hot
    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.project(x, xd, y, ws, true);
    }

    /// `∂O = Wo′(gy)`, the heads' `∂Q`, `∂K`, `∂V` from the taped softmax
    /// rows, then `gx = (Wq′(∂Q) + Wk′(∂K)) + Wv′(∂V)`.
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
        let (t, d, dh) = (xd.dim(1), self.dim, self.head_dim());
        let n = xd.dim(0);
        let scale = 1.0 / (dh as f32).sqrt();
        let flat = Dims::new(&[n * t, d]);
        let r = self.regions(xd, true);
        let [q, k, v, o, attn] = carve(tape, [r.q, r.k, r.v, r.o, r.attn]);
        let g = self.grad_regions(xd);
        let [go, gq, gk, gv, row, proj] = carve(scratch, [g.go, g.gq, g.gk, g.gv, g.row, g.proj]);
        self.wo
            .backward_ws(o, flat, &[], gy, go, (&mut [], &mut *proj));
        gq.fill(0.0);
        gk.fill(0.0);
        gv.fill(0.0);
        let at = |ni: usize, i: usize, h: usize| (ni * t + i) * d + h * dh;
        for ni in 0..n {
            for h in 0..self.heads {
                for i in 0..t {
                    let a_row = &attn[((ni * self.heads + h) * t + i) * t..][..t];
                    let go_row = &go[at(ni, i, h)..][..dh];
                    // dA = dO · Vᵀ ; dV += Aᵀ · dO.
                    for (j, (da, &a)) in row.iter_mut().zip(a_row).enumerate() {
                        let mut dot = 0.0f32;
                        for (&g, &vv) in go_row.iter().zip(&v[at(ni, j, h)..][..dh]) {
                            dot += g * vv;
                        }
                        *da = dot;
                        if a != 0.0 {
                            for (dv, &g) in gv[at(ni, j, h)..][..dh].iter_mut().zip(go_row) {
                                *dv += a * g;
                            }
                        }
                    }
                    // Softmax backward: dS = A ⊙ (dA − rowsum(dA ⊙ A)).
                    let dot: f32 = a_row.iter().zip(&*row).map(|(&a, &g)| a * g).sum();
                    for (ds, &a) in row.iter_mut().zip(a_row) {
                        *ds = a * (*ds - dot);
                    }
                    // dQ += dS · K · scale ; dK += dSᵀ · Q · scale.
                    for (j, &ds) in row.iter().enumerate() {
                        let s = ds * scale;
                        if s == 0.0 {
                            continue;
                        }
                        let (qi, kj) = (at(ni, i, h), at(ni, j, h));
                        for (dq, &kv) in gq[qi..qi + dh].iter_mut().zip(&k[kj..kj + dh]) {
                            *dq += s * kv;
                        }
                        for (dk, &qv) in gk[kj..kj + dh].iter_mut().zip(&q[qi..qi + dh]) {
                            *dk += s * qv;
                        }
                    }
                }
            }
        }
        self.wq
            .backward_ws(x, flat, &[], gq, gx, (&mut [], &mut *proj));
        self.wk
            .backward_ws(x, flat, &[], gk, go, (&mut [], &mut *proj));
        add_assign(gx, go);
        self.wv.backward_ws(x, flat, &[], gv, go, (&mut [], proj));
        add_assign(gx, go);
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        self.project(x, xd, y, ws, false);
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
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = Seq::new().then(MultiHeadSelfAttention::new(8, 2, &mut rng));
        let x = Tensor::zeros(&[3, 5, 8]);
        let y = attn.infer(&x);
        assert_eq!(y.shape(), &[3, 5, 8]);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = MultiHeadSelfAttention::new(4, 2, &mut rng);
        let xd = Dims::new(&[2, 3, 4]);
        let x: Vec<f32> = (0..24).map(|i| i as f32 * 0.1).collect();
        let mut y = vec![0.0; 24];
        let mut tape = vec![0.0; attn.ws_len(xd, true)];
        attn.forward_ws(&x, xd, &mut y, &mut tape);
        // Every (batch, head) keeps a 3 × 3 softmax matrix on the tape.
        let rows = &tape[attn.regions(xd, true).attn];
        assert_eq!(rows.len(), 2 * 2 * 3 * 3);
        for row in rows.chunks_exact(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "{row:?}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = Seq::new().then(MultiHeadSelfAttention::new(4, 2, &mut rng));
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
