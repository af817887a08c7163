//! 1-D convolution with "same" padding.

use crate::init::kaiming_uniform;
use crate::param::{Layer, Param};
use crate::simd::{self, F32x16, F32x8, F32_LANES};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;
use std::cell::RefCell;

/// 1-D convolution on `(N, C_in, L) → (N, C_out, L)` with stride 1 and
/// zero "same" padding (`pad = k / 2`; odd kernel sizes keep the length).
///
/// Forward and input-gradient passes run on one register-tiled kernel
/// (see [`TapPlan`]), the weight gradient on another (see
/// `weight_grad`) — this layer dominates encoder inference and
/// selector training.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// Weights, shape `(C_out, C_in, K)`.
    pub weight: Param,
    /// Bias, shape `(C_out,)`.
    pub bias: Param,
    kernel: usize,
    in_channels: usize,
    out_channels: usize,
}

impl Conv1d {
    /// New layer with Kaiming-uniform weights (fan-in = `C_in · K`).
    ///
    /// # Panics
    /// Panics if `kernel` is even (same-padding needs odd kernels).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(
            kernel % 2 == 1,
            "Conv1d requires odd kernel size, got {kernel}"
        );
        let fan_in = in_channels * kernel;
        Self {
            weight: Param::new(kaiming_uniform(
                &[out_channels, in_channels, kernel],
                fan_in,
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            kernel,
            in_channels,
            out_channels,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Conv1d {
    /// Rebuilds `plan` for this layer's forward (or, `transposed`, its
    /// input-gradient) convolution at length `l`.
    fn plan(&self, plan: &mut TapPlan, transposed: bool, l: usize) {
        let w = self.weight.value.data();
        let (c_in, c_out, kernel) = (self.in_channels, self.out_channels, self.kernel);
        if transposed {
            plan.transposed(w, c_in, c_out, kernel, l);
        } else {
            plan.direct(w, c_in, c_out, kernel, l);
        }
    }
}

impl Layer for Conv1d {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn out_dims(&self, x: Dims) -> Dims {
        assert_eq!(x.rank(), 3, "Conv1d expects (N, C, L)");
        assert_eq!(x.dim(1), self.in_channels, "channel mismatch");
        Dims::new(&[x.dim(0), self.out_channels, x.dim(2)])
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
        let (n, l) = (xd.dim(0), xd.dim(2));
        // Bias gradient: sum over time (striped canonical order), added in
        // batch order.
        let gb = self.bias.grad.data_mut();
        for g in gy.chunks_exact(self.out_channels * l) {
            for (co, acc) in gb.iter_mut().enumerate() {
                *acc += simd::sum(&g[co * l..(co + 1) * l]);
            }
        }
        weight_grad(
            x,
            gy,
            (n, self.in_channels, self.out_channels, l),
            self.kernel,
            self.weight.grad.data_mut(),
        );
        // dX: gx[ci][t+k-pad] += w[co][ci][k] · g[co][t], a transposed
        // convolution on the forward kernel. Each input-gradient slab
        // belongs to one batch element, so the batch loop is the task
        // split here; the weight gradient above splits over output
        // channels instead, because each of its elements sums the batch.
        PLAN.with_borrow_mut(|plan| {
            self.plan(plan, true, l);
            plan.run(gy, None, gx);
        });
    }

    // kdprof: hot
    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let l = self.out_dims(xd).dim(2);
        PLAN.with_borrow_mut(|plan| {
            self.plan(plan, false, l);
            plan.run(x, Some(self.bias.value.data()), y);
        });
    }
}

/// Output rows computed together by one register tile.
const TILE_ROWS: usize = 4;
/// Time steps per register block.
const LANES: usize = simd::F32_WIDE_LANES;

thread_local! {
    /// Per-thread staging rows (see [`TapPlan::run`]), reused across batch
    /// elements and calls so steady-state convolution allocates nothing
    /// per element.
    static STAGE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread tap plan, rebuilt in place for every call (the weights
    /// change every training step) so its lists keep their capacity.
    static PLAN: RefCell<TapPlan> = RefCell::new(TapPlan::default());
}

/// One tap shared by a tile's rows: input row `row` read at kernel offset
/// `k`, i.e. output time `t` reads input time `t + k − pad`.
#[derive(Clone, Copy)]
struct Tap {
    /// `row · (l + 2·pad) + k`: the read at output time `t` is
    /// `stage[off + t]` in the zero-padded staging rows.
    off: usize,
    k: usize,
    /// One weight per tile row; rows past the tile's end hold 0.0.
    w: [f32; TILE_ROWS],
    /// Every row of the tile has a non-zero weight, so no row skips it.
    dense: bool,
}

/// One register block of output time steps `[tb, tb + LANES)`. Edge
/// blocks hold the index of their first lane mask: one per kernel offset,
/// set on the lanes whose read `t + k − pad` lies inside the row.
#[derive(Clone, Copy)]
struct Block {
    tb: usize,
    masks: Option<usize>,
}

/// A same-padded convolution lowered to tap lists. Output row `r` at time
/// `t` is its start value (bias, or +0.0 without one) followed by
/// `acc = acc + w · x[row][t + k − pad]` over the row's taps in list
/// order, skipping taps whose weight is zero or whose read falls outside
/// `[0, l)`. The forward pass and the input gradient are both this
/// shape, so both run on one kernel.
///
/// # Determinism
///
/// Every output element replays exactly that chain on every path — lane
/// tile, edge block, overlapped final block, and [`conv_elem`] for rows
/// shorter than one block — with mul and add rounded separately (no
/// FMA). Edge lanes and zero-weight rows *keep* their accumulator (a mask
/// select or a skipped add) instead of adding `w · 0`: adding a zero
/// would turn a `-0.0` chain into `+0.0`, and an infinite weight would
/// turn `inf · 0` into NaN. The chain is the one the pre-tile tap-major
/// axpy loops computed, so the tile changes no bits, NaN sign and payload
/// included (pinned against copies of those loops in the tests, with NaN
/// and ±inf inputs). One case lies outside any float chain's contract,
/// the old loops' too: when two *different* NaNs meet in one add, which
/// of them propagates depends on the operand order the compiler picks.
#[derive(Default)]
struct TapPlan {
    /// Taps of every tile, tile after tile, each tile in chain order.
    taps: Vec<Tap>,
    /// `taps[tiles[i]]` are the taps of tile `i` (rows
    /// `TILE_ROWS·i ..`).
    tiles: Vec<std::ops::Range<usize>>,
    /// The lane blocks covering `[0, l)`; empty when `l < LANES`.
    blocks: Vec<Block>,
    masks: Vec<simd::Mask16>,
    rows_in: usize,
    rows_out: usize,
    kernel: usize,
    pad: usize,
    l: usize,
}

impl TapPlan {
    /// `y[co] = bias[co] + Σ_(ci, k) w[co][ci][k] · x[ci][t + k − pad]`,
    /// taps in ascending `(ci, k)` order.
    fn direct(&mut self, w: &[f32], c_in: usize, c_out: usize, kernel: usize, l: usize) {
        self.build(c_out, c_in, kernel, l, |co, ci, k| {
            (k, w[(co * c_in + ci) * kernel + k])
        });
    }

    /// The input gradient `gx[ci][s] = Σ_(co, k) w[co][ci][k] ·
    /// g[co][s − k + pad]`, taps in ascending `(co, k)` order. In forward
    /// form tap `k` reads at offset `2·pad − k`.
    fn transposed(&mut self, w: &[f32], c_in: usize, c_out: usize, kernel: usize, l: usize) {
        let last = kernel - 1;
        self.build(c_in, c_out, kernel, l, |ci, co, k| {
            (last - k, w[(co * c_in + ci) * kernel + k])
        });
    }

    /// Rebuilds the plan in place (its lists keep their capacity):
    /// `tap(r, row, j)` gives output row `r`'s `j`-th tap on input row
    /// `row` as `(read offset k, weight)`; chain order is ascending
    /// `(row, j)`.
    // kdprof: hot
    fn build(
        &mut self,
        rows_out: usize,
        rows_in: usize,
        kernel: usize,
        l: usize,
        tap: impl Fn(usize, usize, usize) -> (usize, f32),
    ) {
        let pad = kernel / 2;
        let lp = l + 2 * pad;
        let Self {
            taps,
            tiles,
            blocks,
            masks,
            ..
        } = self;
        taps.clear();
        tiles.clear();
        blocks.clear();
        masks.clear();
        for r0 in (0..rows_out).step_by(TILE_ROWS) {
            let rows = TILE_ROWS.min(rows_out - r0);
            let start = taps.len();
            for row in 0..rows_in {
                for j in 0..kernel {
                    let mut w = [0.0; TILE_ROWS];
                    let mut k = 0;
                    for (r, wr) in w.iter_mut().enumerate().take(rows) {
                        (k, *wr) = tap(r0 + r, row, j);
                    }
                    let live = w[..rows].iter().filter(|&&v| v != 0.0).count();
                    if live > 0 {
                        taps.push(Tap {
                            off: row * lp + k,
                            k,
                            w,
                            dense: live == rows,
                        });
                    }
                }
            }
            tiles.push(start..taps.len());
        }
        if l >= LANES {
            let mut tb = 0;
            loop {
                // Interior blocks read in range at every tap.
                let edge = tb < pad || tb + LANES + pad > l;
                let first = masks.len();
                if edge {
                    // Staged read index s = t + k is in range iff
                    // pad ≤ s < pad + l.
                    masks.extend((0..kernel).map(|k| {
                        simd::Mask16::from_fn(|i| (pad..pad + l).contains(&(tb + i + k)))
                    }));
                }
                blocks.push(Block {
                    tb,
                    masks: edge.then_some(first),
                });
                if tb + LANES >= l {
                    break;
                }
                // Step a full block, or overlap the final block back to end
                // exactly at `l`: overlapped elements recompute the same
                // chain, so the double store is bitwise inert.
                tb = (tb + LANES).min(l - LANES);
            }
        }
        self.rows_in = rows_in;
        self.rows_out = rows_out;
        self.kernel = kernel;
        self.pad = pad;
        self.l = l;
    }

    /// Runs the plan over a `(n, rows_in, l)` input into `(n, rows_out,
    /// l)`. Each batch element is one pool task: it copies its rows once
    /// into zero-padded staging rows (`rows_in × (l + 2·pad)`, so every
    /// lane load is in bounds) and computes its whole output slab.
    fn run(&self, x: &[f32], bias: Option<&[f32]>, y: &mut [f32]) {
        let (l, pad) = (self.l, self.pad);
        let lp = l + 2 * pad;
        let in_stride = self.rows_in * l;
        let work = y.len() * self.rows_in * self.kernel;
        // Rows shorter than one lane block have no blocks.
        let lanes = !self.blocks.is_empty();
        tspar::par_chunks_mut_gated(y, self.rows_out * l, work, |ni, yb| {
            STAGE.with_borrow_mut(|stage| {
                stage.clear();
                stage.resize(self.rows_in * lp, 0.0);
                let xb = &x[ni * in_stride..(ni + 1) * in_stride];
                for (dst, src) in stage.chunks_exact_mut(lp).zip(xb.chunks_exact(l)) {
                    dst[pad..pad + l].copy_from_slice(src);
                }
                for (i, range) in self.tiles.iter().enumerate() {
                    let r0 = i * TILE_ROWS;
                    let rows = TILE_ROWS.min(self.rows_out - r0);
                    let mut start = [0.0; TILE_ROWS];
                    if let Some(b) = bias {
                        start[..rows].copy_from_slice(&b[r0..r0 + rows]);
                    }
                    let taps = &self.taps[range.clone()];
                    let out = &mut yb[r0 * l..(r0 + rows) * l];
                    if lanes {
                        self.tile_lanes(stage, taps, start, out);
                    } else {
                        for (r, row) in out.chunks_exact_mut(l).enumerate() {
                            for (t, v) in row.iter_mut().enumerate() {
                                *v = conv_elem(stage, taps, r, start[r], pad, l, t);
                            }
                        }
                    }
                }
            });
        });
    }

    /// One tile's rows (`out`: up to [`TILE_ROWS`] rows of `l`), block by
    /// block: every input load feeds all rows, and the rows' independent
    /// add chains hide each other's latency.
    fn tile_lanes(&self, stage: &[f32], taps: &[Tap], start: [f32; TILE_ROWS], out: &mut [f32]) {
        let l = self.l;
        for block in &self.blocks {
            let acc = match block.masks {
                None => tile_block(stage, taps, start, block.tb, |_, sum, _| sum),
                Some(first) => {
                    let masks = &self.masks[first..first + self.kernel];
                    tile_block(stage, taps, start, block.tb, |k, sum, acc| {
                        F32x16::select(&masks[k], sum, acc)
                    })
                }
            };
            for (row, a) in out.chunks_exact_mut(l).zip(acc) {
                a.store(&mut row[block.tb..]);
            }
        }
    }
}

/// One `TILE_ROWS × LANES` register block at `tb`. `keep(k, sum, acc)`
/// picks, per lane, the accumulator after a tap at offset `k`: `sum` in
/// range, `acc` otherwise (interior blocks always take `sum`). A
/// remainder tile's missing rows compute on zero weights and are never
/// stored.
#[inline(always)]
fn tile_block(
    stage: &[f32],
    taps: &[Tap],
    start: [f32; TILE_ROWS],
    tb: usize,
    keep: impl Fn(usize, F32x16, F32x16) -> F32x16,
) -> [F32x16; TILE_ROWS] {
    // Named locals, not an array: keeps the tile in registers (see
    // `F32x16`).
    let mut a0 = F32x16::splat(start[0]);
    let mut a1 = F32x16::splat(start[1]);
    let mut a2 = F32x16::splat(start[2]);
    let mut a3 = F32x16::splat(start[3]);
    for tap in taps {
        let x = F32x16::load(&stage[tap.off + tb..]);
        let k = tap.k;
        if tap.dense {
            a0 = keep(k, a0.mul_add_to(tap.w[0], x), a0);
            a1 = keep(k, a1.mul_add_to(tap.w[1], x), a1);
            a2 = keep(k, a2.mul_add_to(tap.w[2], x), a2);
            a3 = keep(k, a3.mul_add_to(tap.w[3], x), a3);
        } else {
            [a0, a1, a2, a3] = sparse_step(tap, x, [a0, a1, a2, a3], &keep);
        }
    }
    [a0, a1, a2, a3]
}

/// One tap of a tile where some rows have a zero weight: those rows skip
/// it, as in the scalar chain. Kept out of line so the dense path's
/// weights stay broadcast memory operands; trained weights are rarely
/// exactly zero.
#[cold]
#[inline(never)]
fn sparse_step(
    tap: &Tap,
    x: F32x16,
    acc: [F32x16; TILE_ROWS],
    keep: &impl Fn(usize, F32x16, F32x16) -> F32x16,
) -> [F32x16; TILE_ROWS] {
    let mut out = acc;
    for (a, &wv) in out.iter_mut().zip(&tap.w) {
        if wv != 0.0 {
            *a = keep(tap.k, a.mul_add_to(wv, x), *a);
        }
    }
    out
}

/// Tile row `r`'s output at time `t`, replaying the chain one scalar at a
/// time (see [`TapPlan`]): the path for rows shorter than one lane block,
/// which have no blocks for [`TapPlan::tile_lanes`].
#[inline]
fn conv_elem(
    stage: &[f32],
    taps: &[Tap],
    r: usize,
    start: f32,
    pad: usize,
    l: usize,
    t: usize,
) -> f32 {
    let mut acc = start;
    for tap in taps {
        let wv = tap.w[r];
        if wv == 0.0 || !(pad..pad + l).contains(&(t + tap.k)) {
            continue;
        }
        acc += wv * stage[tap.off + t];
    }
    acc
}

/// Output channels per weight-gradient register tile.
const GRAD_ROWS: usize = 8;

/// The weight gradient `gw[co][ci][k] += Σ_t g[co][t] · x[ci][t + k − pad]`
/// over a batch of `(n, c_in, l)` inputs `x` and `(n, c_out, l)` output
/// gradients `g`, with `gw` of shape `(c_out, c_in, kernel)`.
///
/// # Determinism
///
/// Every element adds one [`simd::dot`]`(g_row[t0..t1], xs)` per batch
/// element in ascending `n`, over the valid range `[t0, t1)` of its tap,
/// and replays that dot's chain exactly: eight striped lanes from `t0`,
/// `acc = acc + g · x` per chunk (mul and add rounded separately, `g`
/// first), one add of a tail vector holding `g · x` on the remainder
/// lanes and `+0.0` on the rest, then [`F32x8::reduce_sum`]. The lane
/// types are plain per-lane arrays, so these bits do not depend on the
/// ISA the crate is compiled for.
///
/// # Parallelism
///
/// `gw` splits into tiles of output channels, one pool task each, so a
/// task owns its rows and the split never moves a bit. Within a task one
/// load of an input chunk feeds one accumulator per tile row, whose
/// independent chains hide each other's add latency. Layers with at most
/// [`GRAD_ROWS`] output channels take half-height tiles, so the
/// ResNet's 8-channel layers still split into two tasks.
fn weight_grad(
    x: &[f32],
    g: &[f32],
    (n, c_in, c_out, l): (usize, usize, usize, usize),
    kernel: usize,
    gw: &mut [f32],
) {
    let per_row = c_in * kernel;
    let tile = if c_out <= GRAD_ROWS {
        GRAD_ROWS / 2
    } else {
        GRAD_ROWS
    };
    // Staged rows: the row, then one zeroed lane block, so a dot's tail
    // chunk loads in bounds.
    let lp = l + F32_LANES;
    let work = n * c_out * per_row * l;
    tspar::par_chunks_mut_gated(gw, tile * per_row, work, |ti, gw| {
        let rows = gw.len() / per_row;
        STAGE.with_borrow_mut(|stage| {
            stage.clear();
            stage.resize((c_in + rows) * lp, 0.0);
            for ni in 0..n {
                let xb = &x[ni * c_in * l..(ni + 1) * c_in * l];
                let g0 = ni * c_out + ti * tile;
                let gb = &g[g0 * l..(g0 + rows) * l];
                for (dst, src) in stage
                    .chunks_exact_mut(lp)
                    .zip(xb.chunks_exact(l).chain(gb.chunks_exact(l)))
                {
                    dst[..l].copy_from_slice(src);
                }
                let (xs, gs) = stage.split_at(c_in * lp);
                let mut r = 0;
                while r < rows {
                    let (gr, gwr) = (&gs[r * lp..], &mut gw[r * per_row..]);
                    r += match rows - r {
                        8.. => grad_tile::<8>(xs, gr, gwr, kernel, l),
                        4.. => grad_tile::<4>(xs, gr, gwr, kernel, l),
                        _ => grad_tile::<1>(xs, gr, gwr, kernel, l),
                    };
                }
            }
        });
    });
}

/// `TAIL_MASKS[rem]` keeps a dot's first `rem` tail lanes. [`grad_tile`]
/// reads it through `black_box`: a mask the compiler can see through
/// (a comparison, or this table's always-clear top lane) makes it split
/// the tail product into scalar and half-width pieces.
static TAIL_MASKS: [[u32; F32_LANES]; F32_LANES] = {
    let mut masks = [[0; F32_LANES]; F32_LANES];
    let mut rem = 0;
    while rem < F32_LANES {
        let mut i = 0;
        while i < rem {
            masks[rem][i] = !0;
            i += 1;
        }
        rem += 1;
    }
    masks
};

/// One batch element's contribution to `R` consecutive output channels.
/// `xs` holds the element's staged input rows and `g` starts at the
/// first of the channels' staged gradient rows (rows of `l` plus a zeroed
/// lane block); `gw` starts at their first weight row. Returns `R`.
#[inline(always)]
fn grad_tile<const R: usize>(
    xs: &[f32],
    g: &[f32],
    gw: &mut [f32],
    kernel: usize,
    l: usize,
) -> usize {
    let (pad, lp) = (kernel / 2, l + F32_LANES);
    let per_row = xs.len() / lp * kernel;
    for (ci, x_row) in xs.chunks_exact(lp).enumerate() {
        for k in 0..kernel {
            let (t0, t1) = valid_range(l, k, pad);
            if t0 >= t1 {
                continue;
            }
            // Full chunks, then the tail chunk; its lanes past the
            // remainder read beyond `t1` (the next staged values or the
            // zeroed block) and are masked to +0.0.
            let (full, rem) = ((t1 - t0) / F32_LANES, (t1 - t0) % F32_LANES);
            let span = (full + 1) * F32_LANES;
            let xc = x_row[t0 + k - pad..][..span].as_chunks::<F32_LANES>().0;
            let gc: [&[[f32; F32_LANES]]; R] =
                std::array::from_fn(|r| g[r * lp + t0..][..span].as_chunks::<F32_LANES>().0);
            let mut acc = [F32x8::zero(); R];
            for (j, &xv) in xc[..full].iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&gc) {
                    *a = *a + F32x8(row[j]) * F32x8(xv);
                }
            }
            let xv = F32x8(xc[full]);
            let keep = std::hint::black_box(&TAIL_MASKS[rem]);
            for (a, row) in acc.iter_mut().zip(&gc) {
                let p = F32x8(row[full]) * xv;
                *a = *a
                    + F32x8(std::array::from_fn(|i| {
                        f32::from_bits(p.0[i].to_bits() & keep[i])
                    }));
            }
            for (r, a) in acc.into_iter().enumerate() {
                gw[r * per_row + ci * kernel + k] += a.reduce_sum();
            }
        }
    }
    R
}

/// Valid output range `[t0, t1)` such that `t + k - pad ∈ [0, l)`.
#[inline]
fn valid_range(l: usize, k: usize, pad: usize) -> (usize, usize) {
    let off = k as isize - pad as isize;
    let t0 = (-off).max(0) as usize;
    let t1 = ((l as isize - off).min(l as isize)).max(0) as usize;
    (t0, t1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use rand::SeedableRng;

    /// `c`'s inference, run as a one-layer graph.
    fn infer(c: &Conv1d, x: &Tensor) -> Tensor {
        Seq::new().then(c.clone()).infer(x)
    }

    /// A training forward of `x`, then the backward of `g`, on a copy of
    /// `c`: the input gradient and the copy's weight and bias gradients.
    fn train(c: &Conv1d, x: &Tensor, g: &Tensor) -> [Tensor; 3] {
        let mut net = Seq::new().then(c.clone());
        net.forward(x, true);
        let gx = net.backward(g);
        let p = net.params();
        [gx, p[0].grad.clone(), p[1].grad.clone()]
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        c.weight.value.data_mut().copy_from_slice(&[0.0, 1.0, 0.0]);
        c.bias.value.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 5], vec![1., 2., 3., 4., 5.]);
        let y = infer(&c, &x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        // y[t] = x[t-1] (weight on k=0 reads offset -1).
        c.weight.value.data_mut().copy_from_slice(&[1.0, 0.0, 0.0]);
        c.bias.value.data_mut()[0] = 0.0;
        let x = Tensor::from_vec(&[1, 1, 4], vec![1., 2., 3., 4.]);
        let y = infer(&c, &x);
        assert_eq!(y.data(), &[0., 1., 2., 3.]);
    }

    #[test]
    fn multi_channel_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Conv1d::new(3, 5, 7, &mut rng);
        let x = Tensor::zeros(&[2, 3, 16]);
        let y = infer(&c, &x);
        assert_eq!(y.shape(), &[2, 5, 16]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Seq::new().then(Conv1d::new(2, 3, 3, &mut rng));
        let x = Tensor::from_vec(
            &[2, 2, 6],
            (0..24).map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.1).collect(),
        );
        check_layer_gradients(&mut c, &x, 1e-2, 2e-2);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = Conv1d::new(1, 1, 4, &mut rng);
    }

    /// The pre-register-blocking formulation: bias fill, then one
    /// `y += w · x` pass over the row per `(ci, k)` tap. Kept as the
    /// reference the tiled kernel must reproduce bitwise.
    fn infer_tap_major(c: &Conv1d, x: &Tensor) -> Tensor {
        let (n, l) = (x.dim(0), x.dim(2));
        let (c_in, c_out, kernel) = (c.in_channels, c.out_channels, c.kernel);
        let pad = kernel / 2;
        let mut y = Tensor::zeros(&[n, c_out, l]);
        let w = c.weight.value.data();
        let b = c.bias.value.data();
        let yd = y.data_mut();
        for ni in 0..n {
            let xb = x.batch(ni);
            let yb = &mut yd[ni * c_out * l..(ni + 1) * c_out * l];
            for co in 0..c_out {
                let y_row = &mut yb[co * l..(co + 1) * l];
                y_row.fill(b[co]);
                for ci in 0..c_in {
                    let x_row = &xb[ci * l..(ci + 1) * l];
                    let w_base = (co * c_in + ci) * kernel;
                    for k in 0..kernel {
                        let wv = w[w_base + k];
                        let (t0, t1) = valid_range(l, k, pad);
                        if wv == 0.0 || t0 >= t1 {
                            continue;
                        }
                        let off = k as isize - pad as isize;
                        let xs = &x_row[(t0 as isize + off) as usize..(t1 as isize + off) as usize];
                        for (yv, &xv) in y_row[t0..t1].iter_mut().zip(xs) {
                            *yv += wv * xv;
                        }
                    }
                }
            }
        }
        y
    }

    /// The pre-tile input gradient: `gx` starts at +0.0, then one
    /// `gx += w · g` pass per `(co, ci, k)` tap. Kept as the reference the
    /// tiled transposed convolution must reproduce bitwise.
    fn backward_tap_major(c: &Conv1d, g: &Tensor) -> Tensor {
        let (n, l) = (g.dim(0), g.dim(2));
        let (c_in, c_out, kernel) = (c.in_channels, c.out_channels, c.kernel);
        let pad = kernel / 2;
        let mut gx = Tensor::zeros(&[n, c_in, l]);
        let w = c.weight.value.data();
        let gd = gx.data_mut();
        for ni in 0..n {
            let gb = g.batch(ni);
            let gxb = &mut gd[ni * c_in * l..(ni + 1) * c_in * l];
            for co in 0..c_out {
                let g_row = &gb[co * l..(co + 1) * l];
                for ci in 0..c_in {
                    let gx_row = &mut gxb[ci * l..(ci + 1) * l];
                    let w_base = (co * c_in + ci) * kernel;
                    for k in 0..kernel {
                        let wv = w[w_base + k];
                        let (t0, t1) = valid_range(l, k, pad);
                        if wv == 0.0 || t0 >= t1 {
                            continue;
                        }
                        let off = k as isize - pad as isize;
                        let gxs =
                            &mut gx_row[(t0 as isize + off) as usize..(t1 as isize + off) as usize];
                        for (gv, &g_in) in gxs.iter_mut().zip(&g_row[t0..t1]) {
                            *gv += wv * g_in;
                        }
                    }
                }
            }
        }
        gx
    }

    /// Asserts `got` and `want` agree bit for bit, NaN sign and payload
    /// included.
    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i} ({a} vs {b})");
        }
    }

    /// A layer whose tiles mix every case the chain contract names:
    /// `0.0`/`-0.0` weights inside a 4-row tile, `-0.0` biases, an
    /// all-positive row on a `-0.0` bias (so a masked edge tap that added
    /// `w · 0` would flip it to `+0.0`) and, with `inf_weight`, an
    /// infinite off-centre weight (where an unmasked edge would produce
    /// `inf · 0 = NaN`).
    fn special_conv(
        cin: usize,
        cout: usize,
        k: usize,
        inf_weight: bool,
        rng: &mut StdRng,
    ) -> Conv1d {
        let mut c = Conv1d::new(cin, cout, k, rng);
        let per_row = cin * k;
        for co in 0..cout {
            let row = &mut c.weight.value.data_mut()[co * per_row..(co + 1) * per_row];
            match co % 4 {
                0 => row[0] = 0.0,
                1 => row[per_row - 1] = -0.0,
                2 => row.iter_mut().for_each(|v| *v = v.abs().max(1e-3)),
                _ if inf_weight => row[0] = f32::INFINITY,
                _ => {}
            }
            if co % 4 != 1 {
                c.bias.value.data_mut()[co] = -0.0;
            }
        }
        c
    }

    /// The NaN this machine's float unit produces for an invalid
    /// operation. `inf · 0` and `inf − inf` inside a conv chain yield this
    /// same pattern, so an input NaN made this way leaves every chain with
    /// one NaN pattern, and which operand an add propagates cannot show
    /// in the bits.
    fn machine_nan() -> f32 {
        std::hint::black_box(f32::INFINITY) - std::hint::black_box(f32::INFINITY)
    }

    /// Batch of two: a ramp with NaN/±inf at both ends of its rows, and an
    /// all-`-0.0` element. Paired with an infinite weight, chains here
    /// create NaNs of their own, so the input NaN is [`machine_nan`].
    fn special_input(cin: usize, l: usize) -> Tensor {
        let mut v: Vec<f32> = (0..cin * l)
            .map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.11)
            .collect();
        v[0] = machine_nan();
        v[l - 1] = f32::INFINITY;
        v[(cin - 1) * l] = f32::NEG_INFINITY;
        v[cin * l - 1] = machine_nan();
        v.extend(std::iter::repeat_n(-0.0, cin * l));
        Tensor::from_vec(&[2, cin, l], v)
    }

    /// Batch of two ramps: `f32::NAN` opens the first, `+inf` closes the
    /// second. Under finite weights every chain sees at most one
    /// non-finite input and no chain makes a NaN of its own, so the
    /// literal NaN must come through with its exact bits.
    fn ramp_input(cin: usize, l: usize) -> Tensor {
        let mut v: Vec<f32> = (0..2 * cin * l)
            .map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.11)
            .collect();
        v[0] = f32::NAN;
        v[2 * cin * l - 1] = f32::INFINITY;
        Tensor::from_vec(&[2, cin, l], v)
    }

    #[test]
    fn register_blocked_matches_tap_major_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        // Lane-block edge cases (l = 16 is one block, 17/24/31 overlap
        // the final block, 64 is the served window), remainder tiles
        // (c_out mod 4 ≠ 0), kernels up to InceptionTime's 21 (whose
        // pad exceeds a 16-lane block), and input widths up to the
        // served ResNet's 16 (tiles of up to 336 taps).
        let mut shapes = Vec::new();
        for l in [16, 17, 24, 31, 64] {
            for cout in [1, 3, 4, 5, 8, 16] {
                for k in [1, 3, 5, 7, 21] {
                    let cin = [1, 2, 3, 8, 16][(l + cout + k) % 5];
                    shapes.push((cin, cout, k, l));
                }
            }
        }
        // The served ResNet's eleven conv shapes (width 8, 64 samples).
        for (cin, cout, k) in [
            (1, 8, 7),
            (8, 8, 5),
            (8, 8, 3),
            (1, 8, 1),
            (8, 16, 7),
            (16, 16, 5),
            (16, 16, 3),
            (8, 16, 1),
            (16, 16, 7),
        ] {
            shapes.push((cin, cout, k, 64));
        }
        // ConvNet encoder stages, sub-lane rows (`conv_elem`) and
        // rows shorter than the pad.
        shapes.extend([
            (8, 16, 5, 32),
            (16, 16, 3, 16),
            (4, 4, 1, 32),
            (2, 3, 3, 5),
            (2, 2, 7, 2),
            (1, 5, 21, 9),
            (3, 4, 1, 1),
        ]);
        for (cin, cout, k, l) in shapes {
            let cases = [
                (
                    special_conv(cin, cout, k, true, &mut rng),
                    special_input(cin, l),
                    special_input(cout, l),
                ),
                (
                    special_conv(cin, cout, k, false, &mut rng),
                    ramp_input(cin, l),
                    ramp_input(cout, l),
                ),
            ];
            for (c, x, g) in &cases {
                let at = format!("(cin={cin}, cout={cout}, k={k}, l={l})");
                assert_same_bits(&infer(c, x), &infer_tap_major(c, x), &format!("y {at}"));
                let [gx, _, _] = train(c, x, g);
                assert_same_bits(&gx, &backward_tap_major(c, g), &format!("dX {at}"));
            }
        }
    }

    /// The pre-tile weight and bias gradients: per batch element and
    /// output channel, `gb += simd::sum(g_row)` and one `simd::dot` per
    /// `(c_in, k)` tap added into `gw`, both starting from the layer's
    /// current gradients. Kept as the reference the tiled, channel-parallel
    /// kernel must reproduce bitwise.
    fn weight_grad_dot_major(c: &Conv1d, x: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
        let (n, l) = (x.dim(0), x.dim(2));
        let (c_in, c_out, kernel) = (c.in_channels, c.out_channels, c.kernel);
        let pad = kernel / 2;
        let mut gw = c.weight.grad.clone();
        let mut gb = c.bias.grad.clone();
        for ni in 0..n {
            let (xb, gbatch) = (x.batch(ni), g.batch(ni));
            for co in 0..c_out {
                let g_row = &gbatch[co * l..(co + 1) * l];
                gb.data_mut()[co] += simd::sum(g_row);
                for ci in 0..c_in {
                    let x_row = &xb[ci * l..(ci + 1) * l];
                    for k in 0..kernel {
                        let (t0, t1) = valid_range(l, k, pad);
                        if t0 >= t1 {
                            continue;
                        }
                        let xs = &x_row[t0 + k - pad..t1 + k - pad];
                        gw.data_mut()[(co * c_in + ci) * kernel + k] +=
                            simd::dot(&g_row[t0..t1], xs);
                    }
                }
            }
        }
        (gw, gb)
    }

    /// Runs the backward of `g` after a training forward of `x` on a copy
    /// of `c` and asserts its weight and bias gradients equal
    /// [`weight_grad_dot_major`]'s bit for bit.
    fn assert_weight_grad_matches(c: &Conv1d, x: &Tensor, g: &Tensor, at: &str) {
        let (gw, gb) = weight_grad_dot_major(c, x, g);
        let [_, got_w, got_b] = train(c, x, g);
        assert_same_bits(&got_w, &gw, &format!("dW {at}"));
        assert_same_bits(&got_b, &gb, &format!("db {at}"));
    }

    /// A layer whose gradients start at `-0.0`, so taps that never fit in
    /// a short row must leave them untouched.
    fn signed_zero_grads(cin: usize, cout: usize, k: usize, rng: &mut StdRng) -> Conv1d {
        let mut c = Conv1d::new(cin, cout, k, rng);
        c.weight.grad.data_mut().fill(-0.0);
        c.bias.grad.data_mut().fill(-0.0);
        c
    }

    #[test]
    fn weight_gradient_matches_dot_major_bitwise() {
        let mut rng = StdRng::seed_from_u64(14);
        // Remainder tiles (c_out = 1, 3, 5, 9), half-height tiles
        // (c_out ≤ 8), tail-only dots (l < 8), rows shorter than the pad
        // (k = 21 on l ≤ 9) and the served window (l = 64).
        let mut shapes = Vec::new();
        for l in [1, 2, 5, 7, 8, 9, 16, 17, 63, 64] {
            for cout in [1, 3, 4, 5, 8, 9, 16] {
                for (i, k) in [1, 3, 5, 7, 21].into_iter().enumerate() {
                    let cin = [1, 2, 8, 16][(l + cout + i) % 4];
                    shapes.push((cin, cout, k, l));
                }
            }
        }
        for (cin, cout, k, l) in shapes {
            let c = signed_zero_grads(cin, cout, k, &mut rng);
            // Machine NaNs, ±inf at the row ends and an all-`-0.0` batch
            // element on both sides; then a literal NaN and a lone +inf
            // against a finite, zero-free gradient, so the NaN must come
            // through with its exact bits.
            let finite = Tensor::from_vec(
                &[2, cout, l],
                (0..2 * cout * l)
                    .map(|i| ((i * 7 % 29) as f32 - 14.5) * 0.13)
                    .collect(),
            );
            let cases = [
                (special_input(cin, l), special_input(cout, l)),
                (ramp_input(cin, l), finite),
            ];
            for (x, g) in &cases {
                let at = format!("(cin={cin}, cout={cout}, k={k}, l={l})");
                assert_weight_grad_matches(&c, x, g, &at);
            }
        }
        // Above the pool's work gate, so the tiles run as parallel tasks:
        // full 8-row tiles, 4-row tiles and an 8 + 1 split.
        for (n, cin, cout, k) in [(8, 16, 16, 7), (16, 8, 8, 5), (8, 8, 9, 7)] {
            let l = 64;
            assert!(n * cout * cin * k * l >= tspar::MIN_PAR_WORK);
            let c = signed_zero_grads(cin, cout, k, &mut rng);
            let ramp = |rows: usize, salt: usize| {
                Tensor::from_vec(
                    &[n, rows, l],
                    (0..n * rows * l)
                        .map(|i| (((i + salt) * 13 % 31) as f32 - 15.5) * 0.11)
                        .collect(),
                )
            };
            let (x, g) = (ramp(cin, 0), ramp(cout, 5));
            for threads in [1, 2, 4] {
                tspar::set_parallelism(tspar::Parallelism::Fixed(threads));
                let at = format!("(n={n}, cin={cin}, cout={cout}, k={k}, {threads} threads)");
                assert_weight_grad_matches(&c, &x, &g, &at);
            }
            tspar::set_parallelism(tspar::Parallelism::Auto);
        }
    }

    #[test]
    fn rows_shorter_than_the_pad_run_forward_and_backward() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut c = Seq::new().then(Conv1d::new(1, 1, 7, &mut rng));
        let x = Tensor::from_vec(&[1, 1, 2], vec![0.3, -0.7]);
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1, 2]);
        let gx = c.backward(&Tensor::from_vec(&[1, 1, 2], vec![1.0, 1.0]));
        assert_eq!(gx.shape(), &[1, 1, 2]);
        assert!(gx.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gradients_match_finite_differences_below_the_pad() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut c = Seq::new().then(Conv1d::new(2, 3, 7, &mut rng));
        let x = Tensor::from_vec(
            &[2, 2, 3],
            (0..12).map(|i| (i as f32 - 5.5) * 0.1).collect(),
        );
        check_layer_gradients(&mut c, &x, 1e-2, 2e-2);
    }

    #[test]
    fn bias_applied_everywhere() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c = Conv1d::new(1, 2, 3, &mut rng);
        c.weight.value.zero_();
        c.bias.value.data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::zeros(&[1, 1, 4]);
        let y = infer(&c, &x);
        assert_eq!(y.batch(0), &[0.5, 0.5, 0.5, 0.5, -0.5, -0.5, -0.5, -0.5]);
    }
}
