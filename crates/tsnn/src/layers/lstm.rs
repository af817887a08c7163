//! Single-layer LSTM with full backpropagation through time.
//!
//! Used by the LSTM-AD detector: encode a window, predict the next value(s)
//! from the final hidden state.
//!
//! # Kernel
//!
//! Sequences are independent, so the forward runs [`LANES`] of them as the
//! lanes of one [`F32x16`] through the whole sequence: per step and hidden
//! unit, the input projection, bias fold, recurrent product, gates and
//! cell update are one pass over that unit's four gate columns. The
//! backward keeps the step-major order its `dWh`/`db` chains need and runs
//! every product as a direct loop over the layer's own workspace, which is
//! sized on the first call and reused by every later step, epoch and
//! inference chunk.
//!
//! **Chains.** Every output and gradient element is one fixed chain of
//! IEEE operations (explicit `mul_add` where fused), the chain the
//! GEMM-based formulation computed, so the bits depend on neither the
//! batch size, the lane blocking, the thread count nor the ISA:
//!
//! * `xp = fma(x, wx, +0)` over ascending input index, then `xp + b`;
//! * `rec = fma(h, Wh, +0)` over ascending hidden index `p`, then
//!   `pre = (xp + b) + rec`; gates are `simd::sigmoid`/`simd::tanh` of
//!   `pre`, `c = f·c + i·g`, `h = o·tanh(c)`;
//! * `db` is added one `(n, t)` row at a time, `t` descending, `n`
//!   ascending;
//! * each step's `dWh = fma(h_prev, dpre, +0)` over ascending `n`, then
//!   added to the gradient;
//! * `dh_prev = fma(dpre, Wh, +0)` over ascending gate column `j`;
//! * `dWx = fma(x, dpre, +0)` over ascending row `n·T + t`, then added;
//! * `dx = fma(dpre, wx, +0)` over ascending `j`.
//!
//! The oracle tests below replay the GEMM formulation and compare every
//! element by its bits; a NaN must meet a NaN of either sign.

use crate::init::xavier_uniform;
use crate::param::{Layer, Param};
use crate::simd::{self, F32x16};
use crate::tensor::Tensor;
use crate::workspace::Dims;
use rand::rngs::StdRng;

/// Sequences per lane block.
const LANES: usize = simd::F32_WIDE_LANES;

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
    ws: Workspace,
}

/// The layer's training memory: one buffer, sized on the first training
/// call and regrown only by a larger shape, carved into a [`Tape`] per
/// call. Inference runs on the caller's scratch instead.
///
/// One buffer rather than one per region on purpose. glibc raises its
/// mmap and trim thresholds to the largest mapped block a process frees,
/// so the sizes freed here change how later allocations elsewhere, the
/// serving path's included, are served. Measured end to end: separate
/// regions of at most ≈0.7 MB left `stream_select_p99_ms` on `serve` and
/// `stream` a third higher than the GEMM formulation did (its largest
/// freed block was ≈1.2 MB); one buffer (≈2 MB at LSTM-AD's shapes, freed
/// with each LSTM-AD score's network) did not.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// `(N, T)` of the training forward whose tape is live.
    taped: Option<(usize, usize)>,
    buf: Vec<f32>,
}

/// The workspace's regions for one `(N, T)`, in buffer order. Lane-major
/// regions hold one slab per timestep of each block of [`LANES`]
/// sequences, slab `b·T + t`, with element `(k, lane)` at `k·LANES +
/// lane`.
struct Tape<'a> {
    /// Per-block scratch (see [`Scratch`]).
    scratch: &'a mut [f32],
    /// The training input, `(N, T, I)`.
    x: &'a mut [f32],
    /// Gates after their nonlinearity, `4H` rows `[i | f | g | o]` a slab.
    gates: &'a mut [f32],
    /// Cell, hidden and `tanh(cell)` state, `H` rows a slab.
    cells: &'a mut [f32],
    hiddens: &'a mut [f32],
    tanh_c: &'a mut [f32],
    /// Gate pre-activation gradients, row `n·T + t`, `4H` padded to a
    /// multiple of [`LANES`] per row.
    dpre_all: &'a mut [f32],
    /// The backward's running `dh` and `dc`, `H` rows per block.
    dh: &'a mut [f32],
    dc: &'a mut [f32],
}

impl<'a> Tape<'a> {
    /// The regions at the start of `buf`, grown to hold them.
    fn carve(buf: &'a mut Vec<f32>, w: Weights, n: usize, t: usize) -> Self {
        let (hl, nb) = (w.h * LANES, n.div_ceil(LANES));
        let slabs = nb * t;
        let lens = [
            Scratch::len(w),
            n * t * w.i_dim,
            slabs * w.h4() * LANES,
            slabs * hl,
            slabs * hl,
            slabs * hl,
            n * t * w.h4p(),
            nb * hl,
            nb * hl,
        ];
        let [scratch, x, gates, cells, hiddens, tanh_c, dpre_all, dh, dc] =
            regions(grown(buf, lens.iter().sum()), lens);
        Self {
            scratch,
            x,
            gates,
            cells,
            hiddens,
            tanh_c,
            dpre_all,
            dh,
            dc,
        }
    }
}

/// `buf` grown (never shrunk) to at least `len` elements.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// Consecutive regions of `lens` elements from the start of `buf`.
fn regions<const K: usize>(buf: &mut [f32], lens: [usize; K]) -> [&mut [f32]; K] {
    let mut rest = buf;
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    })
}

/// The weights the step kernels read, with the layer's dimensions.
#[derive(Clone, Copy)]
struct Weights<'a> {
    wx: &'a [f32],
    wh: &'a [f32],
    b: &'a [f32],
    i_dim: usize,
    h: usize,
}

impl<'a> Weights<'a> {
    /// Views the parameter values; `H` is a quarter of the bias length.
    fn of(w_x: &'a Tensor, w_h: &'a Tensor, bias: &'a Tensor, i_dim: usize) -> Self {
        Self {
            wx: w_x.data(),
            wh: w_h.data(),
            b: bias.data(),
            i_dim,
            h: bias.numel() / 4,
        }
    }

    fn h4(&self) -> usize {
        4 * self.h
    }

    /// `4H` padded to whole lane chunks: the row stride of `dpre_all`.
    fn h4p(&self) -> usize {
        self.h4().div_ceil(LANES) * LANES
    }
}

/// The [`Weights`] of an `Lstm`, borrowing only the parameter values so
/// the gradients stay free to update.
macro_rules! weights {
    ($l:expr) => {
        Weights::of(&$l.w_x.value, &$l.w_h.value, &$l.bias.value, $l.input_dim)
    };
}

/// Named views into one block's scratch: the gathered input lanes (`I`
/// rows), the zero state every sequence starts from, one gate and one
/// `tanh(c)` slab, two ping-pong `(cell, hidden)` slabs for inference, and
/// the backward's gate gradients and `dx` lanes.
struct Scratch<'a> {
    xs: &'a mut [f32],
    zero: &'a mut [f32],
    gates: &'a mut [f32],
    tanh_c: &'a mut [f32],
    state: [&'a mut [f32]; 4],
    dpre: &'a mut [f32],
    dx: &'a mut [f32],
}

impl<'a> Scratch<'a> {
    /// Region lengths, in [`Scratch`] field order.
    fn lens(w: Weights) -> [usize; 10] {
        let (il, hl, h4l) = (w.i_dim * LANES, w.h * LANES, w.h4() * LANES);
        [il, hl, h4l, hl, hl, hl, hl, hl, h4l, il]
    }

    fn len(w: Weights) -> usize {
        Self::lens(w).iter().sum()
    }

    fn split(buf: &'a mut [f32], w: Weights) -> Self {
        let [xs, zero, gates, tanh_c, s0, s1, s2, s3, dpre, dx] = regions(buf, Self::lens(w));
        zero.fill(0.0);
        Self {
            xs,
            zero,
            gates,
            tanh_c,
            state: [s0, s1, s2, s3],
            dpre,
            dx,
        }
    }
}

/// Lane `lane` of every row is sequence `n0 + lane`; rows past `n` are
/// padding, fed zeros and never read back.
fn gather_x(xs: &mut [f32], x: &[f32], n0: usize, n: usize, t: usize, ti: usize, i_dim: usize) {
    for (i, row) in xs.chunks_exact_mut(LANES).enumerate() {
        for (lane, v) in row.iter_mut().enumerate() {
            let ni = n0 + lane;
            *v = if ni < n {
                x[(ni * t + ti) * i_dim + i]
            } else {
                0.0
            };
        }
    }
}

/// `f` applied to every lane.
#[inline(always)]
fn map16(v: F32x16, f: impl Fn(f32) -> f32) -> F32x16 {
    let mut out = v.0;
    for o in &mut out {
        *o = f(*o);
    }
    F32x16(out)
}

/// One timestep of one lane block: reads the previous `(c, h)` slabs and
/// writes the gates, `tanh(c)` and the new `(c, h)` slabs.
// kdprof: hot
#[allow(clippy::too_many_arguments)]
fn step_forward(
    w: Weights,
    xs: &[f32],
    c_prev: &[f32],
    h_prev: &[f32],
    gates: &mut [f32],
    tanh_c: &mut [f32],
    cell: &mut [f32],
    hidden: &mut [f32],
) {
    let (h, h4) = (w.h, w.h4());
    for u in 0..h {
        let cols = [u, h + u, 2 * h + u, 3 * h + u];
        // Input projection on its own chains, then the bias fold.
        let (mut xi, mut xf, mut xg, mut xo) = (
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
        );
        for (i, xv) in xs.chunks_exact(LANES).enumerate() {
            let xv = F32x16::load(xv);
            let row = &w.wx[i * h4..(i + 1) * h4];
            xi = xi.fma_vv(xv, F32x16::splat(row[cols[0]]));
            xf = xf.fma_vv(xv, F32x16::splat(row[cols[1]]));
            xg = xg.fma_vv(xv, F32x16::splat(row[cols[2]]));
            xo = xo.fma_vv(xv, F32x16::splat(row[cols[3]]));
        }
        xi = xi + F32x16::splat(w.b[cols[0]]);
        xf = xf + F32x16::splat(w.b[cols[1]]);
        xg = xg + F32x16::splat(w.b[cols[2]]);
        xo = xo + F32x16::splat(w.b[cols[3]]);
        // Recurrent product, one chain per gate column.
        let (mut ri, mut rf, mut rg, mut ro) = (
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
        );
        for (p, hv) in h_prev.chunks_exact(LANES).enumerate() {
            let hv = F32x16::load(hv);
            let row = &w.wh[p * h4..(p + 1) * h4];
            ri = ri.fma_vv(hv, F32x16::splat(row[cols[0]]));
            rf = rf.fma_vv(hv, F32x16::splat(row[cols[1]]));
            rg = rg.fma_vv(hv, F32x16::splat(row[cols[2]]));
            ro = ro.fma_vv(hv, F32x16::splat(row[cols[3]]));
        }
        let ig = map16(xi + ri, simd::sigmoid);
        let fg = map16(xf + rf, simd::sigmoid);
        let gg = map16(xg + rg, simd::tanh);
        let og = map16(xo + ro, simd::sigmoid);
        let c = fg * F32x16::load(&c_prev[u * LANES..]) + ig * gg;
        let tc = map16(c, simd::tanh);
        for (gate, v) in cols.into_iter().zip([ig, fg, gg, og]) {
            v.store(&mut gates[gate * LANES..]);
        }
        c.store(&mut cell[u * LANES..]);
        tc.store(&mut tanh_c[u * LANES..]);
        (og * tc).store(&mut hidden[u * LANES..]);
    }
}

/// One timestep of the backward for one lane block: the gate
/// pre-activation gradients into `dpre` (`4H` rows), `dc` carried to the
/// previous step, `dx` lanes (`I` rows) and, when there is a previous
/// step, `dh` replaced by `dh_prev`.
// kdprof: hot
#[allow(clippy::too_many_arguments)]
fn step_backward(
    w: Weights,
    gates: &[f32],
    tanh_c: &[f32],
    c_prev: &[f32],
    has_prev: bool,
    dh: &mut [f32],
    dc: &mut [f32],
    dpre: &mut [f32],
    dx: &mut [f32],
) {
    let (h, h4) = (w.h, w.h4());
    let lanes = |s: &[f32], k: usize| -> [f32; LANES] {
        s[k * LANES..(k + 1) * LANES].try_into().expect("16 lanes")
    };
    for u in 0..h {
        let (ig, fg) = (lanes(gates, u), lanes(gates, h + u));
        let (gv, og) = (lanes(gates, 2 * h + u), lanes(gates, 3 * h + u));
        let (tch, cp, dhv) = (lanes(tanh_c, u), lanes(c_prev, u), lanes(dh, u));
        let mut dcv = lanes(dc, u);
        let (mut di, mut df) = ([0.0f32; LANES], [0.0f32; LANES]);
        let (mut dg, mut d_o) = ([0.0f32; LANES], [0.0f32; LANES]);
        for l in 0..LANES {
            // dc accumulates from h (through tanh) and carry-in.
            let dc_k = dcv[l] + dhv[l] * og[l] * (1.0 - tch[l] * tch[l]);
            di[l] = dc_k * gv[l] * ig[l] * (1.0 - ig[l]);
            df[l] = dc_k * cp[l] * fg[l] * (1.0 - fg[l]);
            dg[l] = dc_k * ig[l] * (1.0 - gv[l] * gv[l]);
            d_o[l] = dhv[l] * tch[l] * og[l] * (1.0 - og[l]);
            dcv[l] = dc_k * fg[l];
        }
        dc[u * LANES..(u + 1) * LANES].copy_from_slice(&dcv);
        for (gate, v) in [u, h + u, 2 * h + u, 3 * h + u]
            .into_iter()
            .zip([di, df, dg, d_o])
        {
            dpre[gate * LANES..(gate + 1) * LANES].copy_from_slice(&v);
        }
    }
    // dx = dpre · wxᵀ.
    for (i, out) in dx.chunks_exact_mut(LANES).enumerate() {
        let row = &w.wx[i * h4..(i + 1) * h4];
        let mut acc = F32x16::zero();
        for (d, &wv) in dpre.chunks_exact(LANES).zip(row) {
            acc = acc.fma_vv(F32x16::load(d), F32x16::splat(wv));
        }
        acc.store(out);
    }
    if !has_prev {
        return;
    }
    // dh_prev = dpre · Whᵀ, four hidden units per pass for independent
    // chains; a ragged last group recomputes its final unit and drops it.
    for p0 in (0..h).step_by(4) {
        let row = |q: usize| {
            let p = (p0 + q).min(h - 1);
            &w.wh[p * h4..(p + 1) * h4]
        };
        let (mut a0, mut a1, mut a2, mut a3) = (
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
            F32x16::zero(),
        );
        for (((d, &w0), &w1), (&w2, &w3)) in dpre
            .chunks_exact(LANES)
            .zip(row(0))
            .zip(row(1))
            .zip(row(2).iter().zip(row(3)))
        {
            let d = F32x16::load(d);
            a0 = a0.fma_vv(d, F32x16::splat(w0));
            a1 = a1.fma_vv(d, F32x16::splat(w1));
            a2 = a2.fma_vv(d, F32x16::splat(w2));
            a3 = a3.fma_vv(d, F32x16::splat(w3));
        }
        let out = &mut dh[p0 * LANES..];
        a0.store(out);
        if p0 + 1 < h {
            a1.store(&mut out[LANES..]);
        }
        if p0 + 2 < h {
            a2.store(&mut out[2 * LANES..]);
        }
        if p0 + 3 < h {
            a3.store(&mut out[3 * LANES..]);
        }
    }
}

/// Adds `acc`'s leading lanes into `g` (as many as `g` holds).
#[inline(always)]
fn add_lanes(g: &mut [f32], acc: F32x16) {
    for (g, &v) in g.iter_mut().zip(&acc.0) {
        *g += v;
    }
}

/// Columns a [`Tile`] spans: three lane chunks, all of `4H` at `H = 12`.
const TILE_COLS: usize = 3 * LANES;

/// Three lane chunks of a padded `dpre` row from column `jc`; a chunk past
/// the row's end repeats the last one (and is never stored).
#[inline(always)]
fn load_chunks(row: &[f32], jc: usize) -> (F32x16, F32x16, F32x16) {
    let last = row.len() - LANES;
    (
        F32x16::load(&row[jc..]),
        F32x16::load(&row[(jc + LANES).min(last)..]),
        F32x16::load(&row[(jc + 2 * LANES).min(last)..]),
    )
}

type Chunks = (F32x16, F32x16, F32x16);

/// Twelve gradient chains: rows `p0..p0 + 4` by the three column chunks
/// from `jc` of an `(m, h4)` parameter gradient. Each chain is `fma(a,
/// dpre, ·)` from `+0` in the order [`Tile::fma`] is called, then added to
/// the gradient; chains past row `m` or column `h4` are dropped.
struct Tile {
    r0: Chunks,
    r1: Chunks,
    r2: Chunks,
    r3: Chunks,
}

#[inline(always)]
fn fma_chunks(acc: Chunks, a: f32, d: Chunks) -> Chunks {
    (
        acc.0.fma_to(a, d.0),
        acc.1.fma_to(a, d.1),
        acc.2.fma_to(a, d.2),
    )
}

impl Tile {
    fn new() -> Self {
        let z = (F32x16::zero(), F32x16::zero(), F32x16::zero());
        Self {
            r0: z,
            r1: z,
            r2: z,
            r3: z,
        }
    }

    // kdprof: hot
    #[inline(always)]
    fn fma(&mut self, a: [f32; 4], d: Chunks) {
        self.r0 = fma_chunks(self.r0, a[0], d);
        self.r1 = fma_chunks(self.r1, a[1], d);
        self.r2 = fma_chunks(self.r2, a[2], d);
        self.r3 = fma_chunks(self.r3, a[3], d);
    }

    fn add_to(self, grad: &mut [f32], (m, h4): (usize, usize), (p0, jc): (usize, usize)) {
        for (q, (c0, c1, c2)) in [self.r0, self.r1, self.r2, self.r3]
            .into_iter()
            .enumerate()
            .take(m - p0)
        {
            let row = &mut grad[(p0 + q) * h4..(p0 + q + 1) * h4];
            for (k, c) in [c0, c1, c2].into_iter().enumerate() {
                let j = jc + k * LANES;
                if j < h4 {
                    add_lanes(&mut row[j..], c);
                }
            }
        }
    }
}

/// The four rows `p0..p0 + 4` of a tile, clamped to `m` (a clamped row
/// repeats the last one and is dropped by [`Tile::add_to`]), and the tile
/// origins over an `m`-row gradient with `h4p`-wide padded rows.
fn tiles(m: usize, h4p: usize) -> impl Iterator<Item = ([usize; 4], (usize, usize))> {
    (0..m).step_by(4).flat_map(move |p0| {
        let rows = [p0, p0 + 1, p0 + 2, p0 + 3].map(|p| p.min(m - 1));
        (0..h4p).step_by(TILE_COLS).map(move |jc| (rows, (p0, jc)))
    })
}

/// The inference forward of an `(n, t, I)` input: final hidden state
/// into `out` (`N × H`), on `scratch` (at least [`Scratch::len`]).
fn infer_into(w: Weights, x: &[f32], (n, t): (usize, usize), scratch: &mut [f32], out: &mut [f32]) {
    let s = Scratch::split(scratch, w);
    let [c0, h0, c1, h1] = s.state;
    for n0 in (0..n).step_by(LANES) {
        let (mut prev, mut next) = ((&mut *c0, &mut *h0), (&mut *c1, &mut *h1));
        prev.0.fill(0.0);
        prev.1.fill(0.0);
        for ti in 0..t {
            gather_x(s.xs, x, n0, n, t, ti, w.i_dim);
            step_forward(w, s.xs, prev.0, prev.1, s.gates, s.tanh_c, next.0, next.1);
            std::mem::swap(&mut prev, &mut next);
        }
        scatter_hidden(prev.1, n0, n, w.h, out);
    }
}

/// Writes a block's hidden lanes to rows `n0..` of the `(N, H)` output.
fn scatter_hidden(hidden: &[f32], n0: usize, n: usize, h: usize, out: &mut [f32]) {
    for (p, row) in hidden.chunks_exact(LANES).enumerate() {
        for (lane, &v) in row.iter().enumerate().take(n - n0) {
            out[(n0 + lane) * h + p] = v;
        }
    }
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
            ws: Workspace::default(),
        }
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// `(n, t)` of an `(N, T, I)` input.
    fn check_input(&self, x: Dims) -> (usize, usize) {
        assert_eq!(x.rank(), 3, "Lstm expects (N, T, I)");
        assert_eq!(x.dim(2), self.input_dim, "input width mismatch");
        (x.dim(0), x.dim(1))
    }

    /// The training forward: runs every block through the sequence,
    /// keeping each step's gates and state on the workspace tape, and
    /// writes the final hidden states into `out`.
    fn forward_train(&mut self, x: &[f32], (n, t): (usize, usize), out: &mut [f32]) {
        let w = weights!(self);
        let (h4l, hl) = (w.h4() * LANES, w.h * LANES);
        let ws = Tape::carve(&mut self.ws.buf, w, n, t);
        ws.x.copy_from_slice(x);
        let s = Scratch::split(ws.scratch, w);
        for (b, n0) in (0..n).step_by(LANES).enumerate() {
            for ti in 0..t {
                let slab = b * t + ti;
                gather_x(s.xs, x, n0, n, t, ti, w.i_dim);
                let (c_done, c_next) = ws.cells.split_at_mut(slab * hl);
                let (h_done, h_next) = ws.hiddens.split_at_mut(slab * hl);
                let (c_prev, h_prev): (&[f32], &[f32]) = if ti == 0 {
                    (s.zero, s.zero)
                } else {
                    (&c_done[(slab - 1) * hl..], &h_done[(slab - 1) * hl..])
                };
                step_forward(
                    w,
                    s.xs,
                    c_prev,
                    h_prev,
                    &mut ws.gates[slab * h4l..][..h4l],
                    &mut ws.tanh_c[slab * hl..][..hl],
                    &mut c_next[..hl],
                    &mut h_next[..hl],
                );
            }
            let last = if t == 0 {
                &*s.zero
            } else {
                &ws.hiddens[(b * t + t - 1) * hl..][..hl]
            };
            scatter_hidden(last, n0, n, w.h, out);
        }
        self.ws.taped = Some((n, t));
    }
}

impl Layer for Lstm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_x, &mut self.w_h, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.w_x, &self.w_h, &self.bias]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_x);
        f(&mut self.w_h);
        f(&mut self.bias);
    }

    fn out_dims(&self, x: Dims) -> Dims {
        Dims::new(&[self.check_input(x).0, self.hidden])
    }

    /// Inference runs on the caller's scratch; training keeps its tape in
    /// the layer's own workspace.
    fn ws_len(&self, _x: Dims, train: bool) -> usize {
        if train {
            0
        } else {
            Scratch::len(weights!(self))
        }
    }

    fn forward_ws(&mut self, x: &[f32], xd: Dims, y: &mut [f32], _ws: &mut [f32]) {
        let nt = self.check_input(xd);
        self.forward_train(x, nt, y);
    }

    fn infer_ws(&self, x: &[f32], xd: Dims, y: &mut [f32], ws: &mut [f32]) {
        let nt = self.check_input(xd);
        infer_into(weights!(self), x, nt, ws, y);
    }

    /// Backward of the last training forward, from the layer's own tape
    /// (the taped input included), into `gx`.
    fn backward_ws(
        &mut self,
        _x: &[f32],
        _xd: Dims,
        _y: &[f32],
        grad_out: &[f32],
        dx: &mut [f32],
        _ws: (&mut [f32], &mut [f32]),
    ) {
        let (n, t) = self
            .ws
            .taped
            .take()
            .expect("backward without forward(train)");
        assert_eq!(grad_out.len(), n * self.hidden, "grad shape mismatch");
        let w = weights!(self);
        let (h, h4, i_dim, h4p) = (w.h, w.h4(), w.i_dim, w.h4p());
        let hl = h * LANES;
        let nb = n.div_ceil(LANES);
        let ws = Tape::carve(&mut self.ws.buf, w, n, t);
        ws.dc.fill(0.0);
        // dh starts as the gradient on the final hidden state; padding
        // lanes start (and stay) finite.
        ws.dh.fill(0.0);
        for b in 0..nb {
            let n0 = b * LANES;
            for (p, row) in ws.dh[b * hl..(b + 1) * hl]
                .chunks_exact_mut(LANES)
                .enumerate()
            {
                for (lane, v) in row.iter_mut().enumerate().take(n - n0) {
                    *v = grad_out[(n0 + lane) * h + p];
                }
            }
        }
        let s = Scratch::split(ws.scratch, w);
        let (gb, gwh) = (self.bias.grad.data_mut(), self.w_h.grad.data_mut());
        for ti in (0..t).rev() {
            for b in 0..nb {
                let (n0, slab) = (b * LANES, b * t + ti);
                let c_prev: &[f32] = if ti == 0 {
                    s.zero
                } else {
                    &ws.cells[(slab - 1) * hl..][..hl]
                };
                step_backward(
                    w,
                    &ws.gates[slab * h4 * LANES..][..h4 * LANES],
                    &ws.tanh_c[slab * hl..][..hl],
                    c_prev,
                    ti > 0,
                    &mut ws.dh[b * hl..(b + 1) * hl],
                    &mut ws.dc[b * hl..(b + 1) * hl],
                    s.dpre,
                    s.dx,
                );
                // Lanes back to the (n, t) rows the parameter gradients
                // read, and the input gradient out.
                for lane in 0..LANES.min(n - n0) {
                    let r = (n0 + lane) * t + ti;
                    let dst = &mut ws.dpre_all[r * h4p..r * h4p + h4];
                    for (v, d) in dst.iter_mut().zip(s.dpre.chunks_exact(LANES)) {
                        *v = d[lane];
                    }
                    let dst = &mut dx[r * i_dim..(r + 1) * i_dim];
                    for (v, d) in dst.iter_mut().zip(s.dx.chunks_exact(LANES)) {
                        *v = d[lane];
                    }
                }
            }
            // db += this step's rows, n ascending.
            for jc in (0..h4).step_by(TILE_COLS) {
                let g = &mut gb[jc..(jc + TILE_COLS).min(h4)];
                let mut seed = [0.0f32; TILE_COLS];
                seed[..g.len()].copy_from_slice(g);
                let (mut c0, mut c1, mut c2) = (
                    F32x16::load(&seed),
                    F32x16::load(&seed[LANES..]),
                    F32x16::load(&seed[2 * LANES..]),
                );
                for ni in 0..n {
                    let r = (ni * t + ti) * h4p;
                    let d = load_chunks(&ws.dpre_all[r..r + h4p], jc);
                    c0 = c0 + d.0;
                    c1 = c1 + d.1;
                    c2 = c2 + d.2;
                }
                c0.store(&mut seed);
                c1.store(&mut seed[LANES..]);
                c2.store(&mut seed[2 * LANES..]);
                g.copy_from_slice(&seed[..g.len()]);
            }
            // dWh += h_prevᵀ · dpre; the first step has no previous state.
            if ti == 0 {
                continue;
            }
            for (p, (p0, jc)) in tiles(h, h4p) {
                let mut tile = Tile::new();
                for b in 0..nb {
                    let slab = &ws.hiddens[(b * t + ti - 1) * hl..][..hl];
                    let hp = p.map(|p| &slab[p * LANES..(p + 1) * LANES]);
                    for lane in 0..LANES.min(n - b * LANES) {
                        let r = ((b * LANES + lane) * t + ti) * h4p;
                        let d = load_chunks(&ws.dpre_all[r..r + h4p], jc);
                        tile.fma(hp.map(|hp| hp[lane]), d);
                    }
                }
                tile.add_to(gwh, (h, h4), (p0, jc));
            }
        }
        // dWx += xᵀ · dpre over every (n, t) row.
        let gwx = self.w_x.grad.data_mut();
        for (i, (i0, jc)) in tiles(i_dim, h4p) {
            let mut tile = Tile::new();
            for (r, x) in ws.x.chunks_exact(i_dim).enumerate() {
                let d = load_chunks(&ws.dpre_all[r * h4p..(r + 1) * h4p], jc);
                tile.fma(i.map(|i| x[i]), d);
            }
            tile.add_to(gwx, (i_dim, h4), (i0, jc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::layers::Seq;
    use rand::SeedableRng;

    /// `l`'s inference on a fresh scratch.
    fn infer(l: &Lstm, x: &Tensor) -> Tensor {
        let xd = Dims::new(x.shape());
        let mut y = Tensor::zeros(l.out_dims(xd).as_slice());
        let mut ws = vec![0.0; l.ws_len(xd, false)];
        l.infer_ws(x.data(), xd, y.data_mut(), &mut ws);
        y
    }

    /// `l`'s training forward (its tape is its own).
    fn train(l: &mut Lstm, x: &Tensor) -> Tensor {
        let xd = Dims::new(x.shape());
        let mut y = Tensor::zeros(l.out_dims(xd).as_slice());
        l.forward_ws(x.data(), xd, y.data_mut(), &mut []);
        y
    }

    /// The backward of `l`'s last training forward, on input shape `x`.
    fn backward(l: &mut Lstm, x: &Tensor, g: &Tensor) -> Tensor {
        let mut gx = Tensor::zeros(x.shape());
        let xd = Dims::new(x.shape());
        l.backward_ws(&[], xd, &[], g.data(), gx.data_mut(), (&mut [], &mut []));
        gx
    }

    #[test]
    fn output_is_final_hidden_state_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(1, 6, &mut rng);
        let x = Tensor::zeros(&[4, 10, 1]);
        let y = infer(&lstm, &x);
        assert_eq!(y.shape(), &[4, 6]);
    }

    #[test]
    fn hidden_state_is_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(1, 4, &mut rng);
        let x = Tensor::from_vec(
            &[1, 20, 1],
            (0..20).map(|i| (i as f32).sin() * 5.0).collect(),
        );
        let y = infer(&lstm, &x);
        // h = o ⊙ tanh(c) ∈ (-1, 1).
        assert!(y.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Seq::new().then(Lstm::new(2, 3, &mut rng));
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
        let lstm = Lstm::new(1, 4, &mut rng);
        let a = infer(
            &lstm,
            &Tensor::from_vec(&[1, 5, 1], vec![1., 2., 3., 4., 5.]),
        );
        let b = infer(
            &lstm,
            &Tensor::from_vec(&[1, 5, 1], vec![5., 4., 3., 2., 1.]),
        );
        assert_ne!(a.data(), b.data());
    }

    /// The GEMM formulation's training tape: the input, then per step
    /// gate-major `[i | f | g | o]` `(N, H)` blocks and the cell, hidden
    /// and `tanh(cell)` blocks.
    struct RefCache {
        x: Tensor,
        gates: Vec<f32>,
        cells: Vec<f32>,
        hiddens: Vec<f32>,
        tanh_c: Vec<f32>,
    }

    /// The pre-fusion forward: the input projection of every step as one
    /// GEMM with the bias folded in, then per step a prepacked GEMM for
    /// the recurrent product and flat gate-major loops for the gates and
    /// the cell. Kept as the reference the fused kernel must reproduce
    /// bitwise.
    fn forward_reference(l: &Lstm, x: &Tensor) -> (Tensor, RefCache) {
        use crate::gemm::{gemm, gemm_prepacked, Layout, PackedB};
        let (n, t, i_dim) = (x.dim(0), x.dim(1), x.dim(2));
        let h = l.hidden;
        let h4 = 4 * h;
        let b = l.bias.value.data();
        let mut x_proj = Tensor::zeros(&[n * t, h4]);
        gemm(
            n * t,
            h4,
            i_dim,
            x.data(),
            Layout::Normal,
            l.w_x.value.data(),
            Layout::Normal,
            x_proj.data_mut(),
        );
        for row in x_proj.data_mut().chunks_exact_mut(h4) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        let wh_packed = PackedB::pack(h4, h, l.w_h.value.data(), Layout::Normal);
        let nh = n * h;
        let mut gates = vec![0.0f32; t * 4 * nh];
        let mut tanh_c = vec![0.0f32; t * nh];
        let mut cells = vec![0.0f32; t * nh];
        let mut hiddens = vec![0.0f32; t * nh];
        let mut hidden = vec![0.0f32; nh];
        let mut cell = vec![0.0f32; nh];
        let mut rec = vec![0.0f32; n * h4];
        for ti in 0..t {
            gemm_prepacked(n, &hidden, Layout::Normal, &wh_packed, &mut rec);
            let g = &mut gates[ti * 4 * nh..(ti + 1) * 4 * nh];
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
            let tc = &mut tanh_c[ti * nh..(ti + 1) * nh];
            for (((hv, tv), &c), &o) in hidden.iter_mut().zip(tc).zip(&cell).zip(&*og) {
                *tv = simd::tanh(c);
                *hv = o * *tv;
            }
            cells[ti * nh..(ti + 1) * nh].copy_from_slice(&cell);
            hiddens[ti * nh..(ti + 1) * nh].copy_from_slice(&hidden);
        }
        let cache = RefCache {
            x: x.clone(),
            gates,
            cells,
            hiddens,
            tanh_c,
        };
        (Tensor::from_vec(&[n, h], hidden), cache)
    }

    /// The pre-fusion backward: per step (descending) the gate gradients
    /// as flat gate-major loops, `db` as row sums, `dWh` and `dh_prev`
    /// through the GEMM; then `dWx` and `dx` as two GEMMs over every
    /// step. Returns `(dx, dWx, dWh, db)`, the gradients accumulated onto
    /// the layer's current ones.
    fn backward_reference(l: &Lstm, cache: &RefCache, grad_out: &Tensor) -> [Tensor; 4] {
        use crate::gemm::{gemm, gemm_prepacked, Layout, PackedB};
        let x = &cache.x;
        let (n, t, i_dim) = (x.dim(0), x.dim(1), x.dim(2));
        let h = l.hidden;
        let h4 = 4 * h;
        let (mut gwx, mut gwh, mut gb) =
            (l.w_x.grad.clone(), l.w_h.grad.clone(), l.bias.grad.clone());
        let mut dh = grad_out.data().to_vec();
        let mut dc = vec![0.0f32; n * h];
        let wh_t_packed = PackedB::pack(h, h4, l.w_h.value.data(), Layout::Transposed);
        let mut dpre_all = vec![0.0f32; n * t * h4];
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
                let dc_k = dc[idx] + dh_k * og * (1.0 - tch * tch);
                di[idx] = dc_k * gv * ig * (1.0 - ig);
                df[idx] = dc_k * c_prev[idx] * fg * (1.0 - fg);
                dg[idx] = dc_k * ig * (1.0 - gv * gv);
                d_o[idx] = dh_k * tch * og * (1.0 - og);
                dc[idx] = dc_k * fg;
            }
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
            for ni in 0..n {
                for (g, &p) in gb.data_mut().iter_mut().zip(&dpre[ni * h4..(ni + 1) * h4]) {
                    *g += p;
                }
            }
            if ti > 0 {
                gemm(
                    h,
                    h4,
                    n,
                    h_prev,
                    Layout::Transposed,
                    &dpre,
                    Layout::Normal,
                    &mut dwh_step,
                );
                for (g, &d) in gwh.data_mut().iter_mut().zip(&dwh_step) {
                    *g += d;
                }
                gemm_prepacked(n, &dpre, Layout::Normal, &wh_t_packed, &mut dh);
            }
        }
        let mut dwx = Tensor::zeros(&[i_dim, h4]);
        gemm(
            i_dim,
            h4,
            n * t,
            x.data(),
            Layout::Transposed,
            &dpre_all,
            Layout::Normal,
            dwx.data_mut(),
        );
        gwx.add_assign(&dwx);
        let dpre_flat = Tensor::from_vec(&[n * t, h4], dpre_all);
        let dx = dpre_flat.matmul_t(&l.w_x.value).reshape(&[n, t, i_dim]);
        [dx, gwx, gwh, gb]
    }

    /// Asserts `got` and `want` agree bit for bit, `-0.0` and infinities
    /// included; a NaN must meet a NaN. Which NaN an op returns when both
    /// operands are NaN depends on the operand order the compiler emits,
    /// and the gate math flips NaN signs (`exp(-x)`, `copysign`), so a NaN
    /// input leaves NaNs of both signs inside one chain: their sign and
    /// payload are not part of either formulation's contract.
    fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            let same = a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            assert!(same, "{what}: element {i} ({a:?} vs {b:?})");
        }
    }

    /// Deterministic values in `[-1.6, 1.6]`.
    fn ramp(len: usize, mul: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul + salt) % 33) as f32 * 0.1 - 1.6)
            .collect()
    }

    /// A layer with a non-zero bias in every gate (so where the bias joins
    /// the chain shows), pre-loaded gradients and, with `special`, a `-0.0`
    /// and an exact zero among the weights and biases.
    fn layer(i_dim: usize, h: usize, special: bool, seed: u64) -> Lstm {
        let mut l = Lstm::new(i_dim, h, &mut StdRng::seed_from_u64(seed));
        let b = l.bias.value.data_mut();
        let len = b.len();
        b.copy_from_slice(&ramp(len, 13, 5));
        if special {
            for p in l.params_mut() {
                let vals = p.value.data_mut();
                let len = vals.len();
                vals[0] = -0.0;
                vals[len - 1] = 0.0;
            }
        }
        preload_grads(&mut l);
        l
    }

    /// Sets every gradient to a finite pattern with some `-0.0`s, so a
    /// gradient that gets `+0` added must flip to `+0.0`.
    fn preload_grads(l: &mut Lstm) {
        for (k, p) in l.params_mut().into_iter().enumerate() {
            let len = p.grad.numel();
            for (i, (g, v)) in p
                .grad
                .data_mut()
                .iter_mut()
                .zip(ramp(len, 7, k))
                .enumerate()
            {
                *g = if i % 5 == 0 { -0.0 } else { v * 0.01 };
            }
        }
    }

    /// `(N, T, I)` input; with `special`, NaN, ±inf and `-0.0` samples in
    /// the first sequence and the last, and an all-`-0.0` sequence.
    fn input(n: usize, t: usize, i_dim: usize, special: bool) -> Tensor {
        let mut v = ramp(n * t * i_dim, 5, 3);
        if special && n > 0 {
            let last = (n - 1) * t * i_dim;
            v[0] = f32::NAN;
            v[last] = f32::INFINITY;
            v[n * t * i_dim - 1] = f32::NEG_INFINITY;
            if t * i_dim > 1 {
                v[1] = -0.0;
            }
            if n > 2 {
                v[t * i_dim..2 * t * i_dim].fill(-0.0);
            }
        }
        Tensor::from_vec(&[n, t, i_dim], v)
    }

    /// Runs the fused layer (a training forward, inference, then the
    /// backward) against the references on `l`'s current state. With
    /// `between`, an inference on that input runs between the training
    /// forward and the backward.
    fn assert_matches_reference(l: &mut Lstm, x: &Tensor, between: Option<&Tensor>, at: &str) {
        let (want_y, cache) = forward_reference(l, x);
        let g = Tensor::from_vec(want_y.shape(), ramp(want_y.numel(), 11, 1));
        let want = backward_reference(l, &cache, &g);
        assert_same_bits(&infer(l, x), &want_y, &format!("infer {at}"));
        assert_same_bits(&train(l, x), &want_y, &format!("train {at}"));
        if let Some(other) = between {
            infer(l, other);
        }
        let dx = backward(l, x, &g);
        assert_same_bits(&dx, &want[0], &format!("dx {at}"));
        for (p, (want, name)) in l
            .params()
            .into_iter()
            .zip(want[1..].iter().zip(["dWx", "dWh", "db"]))
        {
            assert_same_bits(&p.grad, want, &format!("{name} {at}"));
        }
    }

    #[test]
    fn fused_kernel_matches_gemm_reference_bitwise() {
        // Batch sizes around the 16-lane blocks and the GEMM paths the
        // reference takes (naive below 4096 fmas, packed, parallel).
        for n in [0, 1, 7, 15, 16, 17, 143, 256] {
            for h in [1, 3, 12, 16, 17] {
                for (i_dim, t) in [(1, 1), (1, 2), (1, 24), (3, 1), (3, 2), (3, 24)] {
                    for special in [false, true] {
                        let seed = (n * 31 + h * 7 + i_dim + t) as u64;
                        let mut l = layer(i_dim, h, special, seed);
                        let x = input(n, t, i_dim, special);
                        let at = format!("(n={n}, h={h}, i={i_dim}, t={t}, special={special})");
                        assert_matches_reference(&mut l, &x, None, &at);
                    }
                }
            }
        }
    }

    #[test]
    fn one_layer_reused_across_shapes_matches_reference() {
        // Shapes grow, shrink and regrow on one layer's workspace, with an
        // inference chunk between each training forward and its backward;
        // every call must still see only its own shape's values.
        let mut l = layer(2, 12, true, 9);
        let chunk = input(256, 24, 2, false);
        for (n, t) in [(143, 24), (16, 2), (256, 24), (1, 24), (17, 1), (150, 24)] {
            // Fresh gradients: a NaN a special input left behind would make
            // every later comparison vacuous.
            preload_grads(&mut l);
            let x = input(n, t, 2, n % 2 == 1);
            assert_matches_reference(&mut l, &x, Some(&chunk), &format!("(n={n}, t={t})"));
        }
    }

    #[test]
    #[should_panic(expected = "backward without forward(train)")]
    fn backward_needs_a_training_forward() {
        let mut l = layer(1, 3, false, 1);
        let x = input(4, 5, 1, false);
        train(&mut l, &x);
        let g = Tensor::zeros(&[4, 3]);
        backward(&mut l, &x, &g);
        backward(&mut l, &x, &g);
    }
}
