//! Cache-blocked, register-tiled, parallel `f32` GEMM kernels.
//!
//! One packed kernel serves the three tensor products the NN substrate
//! needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`) by reading either operand transposed
//! during packing. The compute shape is the classic panel-dot formulation:
//!
//! * **B is packed once** into column panels of width [`NR`]: panel `j`
//!   holds `B[p][j..j+NR]` contiguously for `p = 0..k`, zero-padded at the
//!   right edge. Packing linearises the innermost streams so the micro-
//!   kernel reads both operands sequentially (hardware-prefetch friendly).
//! * **A is packed per row tile** of height [`MR`]: `A[i..i+MR][p]`
//!   contiguously for `p = 0..k`, zero-padded at the bottom edge.
//! * The micro-kernel keeps an `MR × NR` accumulator block in registers for
//!   the whole `k` loop, so `C` is written exactly once per tile instead of
//!   once per `k` step — the main win over the naive axpy loop, whose
//!   output-row traffic grows with `k`.
//! * The micro-kernel is written over [`crate::simd::F32x16`] lane types:
//!   each accumulator row is one 16-wide lane vector held in an
//!   individually named local (one 512-bit register on AVX-512 targets —
//!   see the [`F32x16`] docs for why arrays of accumulators and 8-wide
//!   rows both compile to shuffle-heavy spills instead), the `NR` output
//!   columns are the vector lanes, and each `k` step broadcasts one packed
//!   `A` value against one packed `B` row. Eight rows give eight
//!   independent add chains, enough to hide vector-add latency. It is the
//!   only tile kernel; the lane types are plain per-lane arrays, so its
//!   bits do not depend on the ISA it is compiled for (determinism note
//!   below).
//!
//! * For large `k` the inner dimension is **cache-blocked** in steps of
//!   [`KC`]: the packed `A` tile slice for one `k` block ([`KC`]·[`MR`]
//!   floats ≈ 8 KiB) stays L1-resident while the tile sweeps every `B`
//!   panel, instead of a full-`k` `A` tile (32 KiB at `k = 1024`) getting
//!   evicted by each 64 KiB panel stream and re-fetched from L2 per panel.
//!   Partial tiles round-trip through `C` between blocks — see the
//!   determinism note for why that is bitwise inert.
//!
//! **Determinism.** Every `C[i][j]` is one scalar chain of fused
//! multiply-adds `sum = fma(a, b, sum)` in fixed ascending-`p` order,
//! computed by exactly one worker. The fusion is *explicit*
//! (`f32::mul_add` / the lane types' `fma_to`), never left to compiler
//! contraction: IEEE-754 `fusedMultiplyAdd` is correctly rounded, so the
//! value is the same on every platform whether the target has hardware
//! FMA or falls back to libm — unlike `-ffast-math`-style contraction,
//! which is allowed to differ per compilation. (Single rounding per step
//! also makes the products *more* accurate than the seed kernel's
//! separate mul-then-add, and on FMA hardware halves the FP-port cost —
//! which is what lets the dual-panel blocked kernel below actually run
//! faster instead of hitting the same port wall.) Vectorisation runs
//! *across* the `NR` output columns (each lane is one output element's
//! chain), never across `k` — so the lane kernel and the naive seed
//! kernel ([`gemm_naive`]) agree **bitwise**. `k` blocking does not perturb
//! the chains either: the micro-kernel seeds its accumulators from the
//! partial sums stored in `C` by the previous block, and an `f32`
//! register → memory → register round trip is bit-preserving (including
//! NaN payloads and signed zeros), so "accumulate [`KC`] steps, store,
//! reload, continue" is the *same* ascending-`p` chain as one uninterrupted
//! pass — `k_blocked_matches_unblocked_bitwise` pins this at every block
//! size. Parallelism splits row tiles (fixed [`MR`]-aligned boundaries,
//! independent of the worker count), so results are also bit-identical at
//! any thread count — the property `tests/parallel_determinism.rs` pins.
//! Each parallel task owns [`TILES_PER_TASK`] row tiles; `KD_THREADS` caps
//! the workers (see [`tspar`]).

use crate::simd::{self, F32x16};

/// Micro-kernel tile height (rows of `A` per register block). Eight rows —
/// one lane accumulator each — give eight independent add chains per `k`
/// step, enough to hide vector-add latency on any recent x86/ARM core
/// (a 4-row tile was latency-bound at half the chains).
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of `B` per register block) — the lane
/// count of [`F32x16`], so one accumulator row is exactly one vector.
pub const NR: usize = 16;

/// Work below this many fused multiply-adds is not worth packing.
const PACK_FLOP_THRESHOLD: usize = 4096;

/// Inner-dimension block size. One packed `A` block is `KC · MR` floats
/// (8 KiB) — small enough to stay L1-resident across a full panel sweep —
/// and one packed `B` panel block is `KC · NR` floats (16 KiB), one
/// hardware-prefetch-friendly stream per micro-kernel call. `k ≤ KC`
/// degenerates to a single block, i.e. exactly the pre-blocking kernel.
pub const KC: usize = 256;

/// Row tiles per parallel task (64 rows): the split granularity of a
/// parallel product, which never affects values.
const TILES_PER_TASK: usize = 8;

/// Whether the k-blocked path may fuse two adjacent `B` panels into one
/// micro-kernel call (an `MR × 2NR` register tile), so every packed-`A`
/// broadcast feeds 32 output columns instead of 16 — at large `k` the
/// kernel is issue-bound on the broadcast + loop streams, and halving
/// them per MAC is where the blocked path's speedup comes from. The dual
/// tile needs 16 lane accumulators plus two `B` vectors live at once:
/// comfortable in AVX-512's 32-register file, guaranteed spills on
/// 16-register files (AVX2, NEON) where each [`F32x16`] already occupies
/// two native vectors — so the fusion is compiled in only for AVX-512
/// targets. Values are unaffected either way: the tile shape never
/// changes any output element's summation chain.
const PAIR_PANELS: bool = cfg!(target_feature = "avx512f");

/// How one operand matrix is laid out relative to the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Use the matrix as stored: element `(r, c)` at `data[r * ld + c]`.
    Normal,
    /// Use the transpose: element `(r, c)` at `data[c * ld + r]`.
    Transposed,
}

/// `C = A' × B'` where `A'` is `n×k` and `B'` is `k×m` after applying the
/// layouts. `c` must hold `n·m` elements and is fully overwritten.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), n * m);
    if n * m * k < PACK_FLOP_THRESHOLD {
        gemm_naive(n, m, k, a, a_layout, b, b_layout, c);
        return;
    }
    if m == 1 || k == 1 {
        gemm_thin(n, m, k, a, a_layout, b, c);
        return;
    }
    gemm_blocked(n, m, k, a, a_layout, &pack_b(m, k, b, b_layout), KC, c);
}

/// [`gemm`] with an explicit inner-dimension block size `kc` instead of
/// the tuned [`KC`]. `kc ≥ k` disables blocking entirely (one pass, the
/// pre-blocking kernel); any `kc ≥ 1` produces bitwise-identical results
/// (see the module determinism note). Exists so benchmarks and tests can
/// compare blocked against unblocked on the same inputs — production
/// callers want [`gemm`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_with_kc(
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    kc: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), n * m);
    gemm_blocked(n, m, k, a, a_layout, &pack_b(m, k, b, b_layout), kc, c);
}

/// Products with `k == 1` or a single output column (`m == 1`) — the
/// LSTM's input projection and input gradient at input width 1, width-1
/// output layers — would fill one step or one column of every register
/// tile and still pay full packing. They run here instead, every output
/// element on its canonical chain (start at +0.0, then `fma(A'[i][p],
/// B'[p][j], sum)` for ascending `p`, operands in that order), so the
/// result is bitwise [`gemm_naive`]'s: `k == 1` is one fma per element; a
/// single column runs 16 rows per [`F32x16`] when `A` is contiguous across
/// rows, else eight interleaved register chains, one per row.
fn gemm_thin(n: usize, m: usize, k: usize, a: &[f32], a_layout: Layout, b: &[f32], c: &mut [f32]) {
    if k == 1 {
        // Outer product: one fma onto +0.0 per element.
        for (row, &ai) in c.chunks_exact_mut(m).zip(a) {
            for (o, &bj) in row.iter_mut().zip(b) {
                *o = ai.mul_add(bj, 0.0);
            }
        }
        return;
    }
    // A single output column: `b` is one contiguous vector in either layout.
    let b = &b[..k];
    if a_layout == Layout::Transposed {
        const W: usize = simd::F32_WIDE_LANES;
        let lanes = n - n % W;
        for i0 in (0..lanes).step_by(W) {
            let mut acc = F32x16::zero();
            for (p, &bp) in b.iter().enumerate() {
                acc = acc.fma_vv(F32x16::load(&a[p * n + i0..]), F32x16::splat(bp));
            }
            acc.store(&mut c[i0..]);
        }
        for (i, o) in c.iter_mut().enumerate().skip(lanes) {
            *o = (0..k).fold(0.0, |s, p| a[p * n + i].mul_add(b[p], s));
        }
        return;
    }
    const CHAINS: usize = 8;
    let mut outs = c.chunks_exact_mut(CHAINS);
    let mut rows = a.chunks_exact(CHAINS * k);
    for (o, block) in (&mut outs).zip(&mut rows) {
        let mut acc = [0.0f32; CHAINS];
        for (p, &bp) in b.iter().enumerate() {
            for (l, s) in acc.iter_mut().enumerate() {
                *s = block[l * k + p].mul_add(bp, *s);
            }
        }
        o.copy_from_slice(&acc);
    }
    let rest = rows.remainder().chunks_exact(k);
    for (o, row) in outs.into_remainder().iter_mut().zip(rest) {
        *o = row
            .iter()
            .zip(b)
            .fold(0.0, |s, (&ap, &bp)| ap.mul_add(bp, s));
    }
}

/// The blocked compute shared by [`gemm`] and [`gemm_prepacked`]: row-tile
/// loop over pre-packed B panels, serial below the parallel work gate.
/// `kc` is the inner-dimension block size (see [`KC`]).
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    panels: &[f32],
    kc: usize,
    c: &mut [f32],
) {
    let flops = n * m * k;
    let n_tiles = n.div_ceil(MR);
    let kc = kc.max(1);
    // The packed-A scratch only ever holds one k block.
    let pa_len = kc.min(k) * MR;

    // Work below the pool's gate (`tspar::MIN_PAR_WORK`, shared with the
    // layer-level gates) is not worth a parallel region.
    if flops < tspar::MIN_PAR_WORK || tspar::threads() <= 1 {
        let mut packed_a = vec![0.0f32; pa_len];
        for tile in 0..n_tiles {
            gemm_row_tile_into(tile, 0, n, m, k, kc, a, a_layout, panels, &mut packed_a, c);
        }
        return;
    }

    // Parallel: each task owns `TILES_PER_TASK` consecutive row tiles and
    // the matching rows of C, dispatched to tspar's persistent pool. Tile
    // boundaries depend only on MR and the task size, never on the worker
    // count.
    let rows_per_task = TILES_PER_TASK * MR;
    tspar::par_chunks_mut(c, rows_per_task * m, |task, c_chunk| {
        let tile0 = task * TILES_PER_TASK;
        let mut packed_a = vec![0.0f32; pa_len];
        let rows_here = c_chunk.len() / m;
        let tiles_here = rows_here.div_ceil(MR);
        for t in 0..tiles_here {
            let tile = tile0 + t;
            // Views are C-chunk-relative: pass a shifted row base.
            gemm_row_tile_into(
                tile,
                tile0 * MR,
                n,
                m,
                k,
                kc,
                a,
                a_layout,
                panels,
                &mut packed_a,
                c_chunk,
            );
        }
    });
}

/// A `B` operand packed once into [`NR`]-wide column panels, held by the
/// caller for repeated products against a constant matrix.
///
/// [`gemm`] re-packs `B` on every call, which is the right trade for
/// one-shot products but wasteful when the same `B` is reused many times —
/// the LSTM multiplies by its recurrent weights `W_h` once per timestep in
/// both directions. Packing once per sequence and calling
/// [`gemm_prepacked`] amortises that cost; results are bit-identical to
/// [`gemm`] because the micro-kernel sums in the same ascending-`p` order
/// regardless of who packed the panels.
#[derive(Debug, Clone)]
pub struct PackedB {
    m: usize,
    k: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs `B'` (`k×m` after applying `layout`) into column panels.
    pub fn pack(m: usize, k: usize, b: &[f32], layout: Layout) -> Self {
        Self {
            m,
            k,
            panels: pack_b(m, k, b, layout),
        }
    }

    /// Output width `m` of products against this operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Inner dimension `k` of products against this operand.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// `C = A' × B` with a caller-held pre-packed `B` (see [`PackedB`]).
/// `A'` is `n×k` after applying `a_layout`; `c` must hold `n·m` elements
/// and is fully overwritten. Bit-identical to [`gemm`] at every shape.
pub fn gemm_prepacked(n: usize, a: &[f32], a_layout: Layout, b: &PackedB, c: &mut [f32]) {
    debug_assert_eq!(c.len(), n * b.m);
    gemm_blocked(n, b.m, b.k, a, a_layout, &b.panels, KC, c);
}

/// [`gemm_prepacked`] with an explicit inner-dimension block size — the
/// prepacked twin of [`gemm_with_kc`], isolating the blocked-vs-unblocked
/// comparison from packing cost. Bitwise identical at every `kc ≥ 1`.
pub fn gemm_prepacked_with_kc(
    n: usize,
    a: &[f32],
    a_layout: Layout,
    b: &PackedB,
    kc: usize,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), n * b.m);
    gemm_blocked(n, b.m, b.k, a, a_layout, &b.panels, kc, c);
}

/// Packs `B'` (`k×m` after layout) into [`NR`]-wide column panels,
/// zero-padded.
fn pack_b(m: usize, k: usize, b: &[f32], layout: Layout) -> Vec<f32> {
    let m_pad = m.div_ceil(NR) * NR;
    let mut out = vec![0.0f32; k * m_pad];
    match layout {
        Layout::Normal => {
            // B'[p][j] = b[p * m + j]; copy row slices panel by panel.
            for (panel, j0) in (0..m).step_by(NR).enumerate() {
                let width = NR.min(m - j0);
                let dst_base = panel * (k * NR);
                for p in 0..k {
                    let src = &b[p * m + j0..p * m + j0 + width];
                    out[dst_base + p * NR..dst_base + p * NR + width].copy_from_slice(src);
                }
            }
        }
        Layout::Transposed => {
            // B'[p][j] = b[j * k + p]; source columns are contiguous rows.
            for (panel, j0) in (0..m).step_by(NR).enumerate() {
                let width = NR.min(m - j0);
                let dst_base = panel * (k * NR);
                for jj in 0..width {
                    let src = &b[(j0 + jj) * k..(j0 + jj) * k + k];
                    for (p, &v) in src.iter().enumerate() {
                        out[dst_base + p * NR + jj] = v;
                    }
                }
            }
        }
    }
    out
}

/// Packs the `p ∈ [p0, p0 + pc)` slice of row tile `tile` (height [`MR`])
/// of `A'` (`n×k` after layout): `packed[p*MR + ii] = A'[tile*MR + ii]
/// [p0 + p]`, zero-padded below row `n`. The k-blocked tile loop packs
/// one [`KC`]-step block at a time so the scratch stays L1-sized.
#[allow(clippy::too_many_arguments)]
fn pack_a_tile_range(
    tile: usize,
    n: usize,
    k: usize,
    p0: usize,
    pc: usize,
    a: &[f32],
    layout: Layout,
    packed: &mut [f32],
) {
    let i0 = tile * MR;
    let rows = MR.min(n - i0);
    match layout {
        Layout::Normal => {
            // A'[i][p] = a[i * k + p].
            for p in 0..pc {
                for ii in 0..MR {
                    packed[p * MR + ii] = if ii < rows {
                        a[(i0 + ii) * k + p0 + p]
                    } else {
                        0.0
                    };
                }
            }
        }
        Layout::Transposed => {
            // A'[i][p] = a[p * n + i]; each p is a contiguous source row.
            for p in 0..pc {
                let src = &a[(p0 + p) * n + i0..(p0 + p) * n + i0 + rows];
                let dst = &mut packed[p * MR..p * MR + MR];
                dst[..rows].copy_from_slice(src);
                for v in &mut dst[rows..] {
                    *v = 0.0;
                }
            }
        }
    }
}

/// Computes row tile `tile`, writing into `c_chunk` whose first row is
/// global row `row_base`, accumulating over `kc`-step blocks of the inner
/// dimension. The first block writes the tile; later blocks seed the
/// micro-kernel accumulators from the partial sums already in `C` — an
/// exact round trip, so the result is bitwise one uninterrupted
/// ascending-`p` chain (module determinism note). `packed_a` must hold
/// `kc.min(k) * MR` floats.
// kdprof: hot
#[allow(clippy::too_many_arguments)]
fn gemm_row_tile_into(
    tile: usize,
    row_base: usize,
    n: usize,
    m: usize,
    k: usize,
    kc: usize,
    a: &[f32],
    a_layout: Layout,
    packed_b: &[f32],
    packed_a: &mut [f32],
    c_chunk: &mut [f32],
) {
    let i0 = tile * MR;
    if i0 >= n {
        return;
    }
    let rows = MR.min(n - i0);
    let row0 = i0 - row_base;
    // Panel fusion rides with k blocking: both target the same
    // large-inner-dimension regime, and keeping `kc ≥ k` (the "unblocked"
    // setting) on the exact single-panel code path gives benchmarks a
    // faithful pre-blocking baseline.
    let pair = PAIR_PANELS && k > kc;
    let n_panels = m.div_ceil(NR);
    let mut p0 = 0;
    loop {
        let pc = kc.min(k - p0);
        pack_a_tile_range(tile, n, k, p0, pc, a, a_layout, packed_a);
        let ap = &packed_a[..pc * MR];
        let first = p0 == 0;
        let mut panel = 0;
        while panel < n_panels {
            let j0 = panel * NR;
            let base = panel * (k * NR);
            // Fuse two full-width panels when possible (see
            // [`PAIR_PANELS`]); ragged tail panels take the single path.
            if pair && j0 + 2 * NR <= m {
                let bp0 = &packed_b[base + p0 * NR..base + (p0 + pc) * NR];
                let base1 = base + k * NR;
                let bp1 = &packed_b[base1 + p0 * NR..base1 + (p0 + pc) * NR];
                let init0 = load_tile(c_chunk, row0, m, j0, NR, rows, first);
                let init1 = load_tile(c_chunk, row0, m, j0 + NR, NR, rows, first);
                let (acc0, acc1) = micro_kernel_lanes_x2(pc, ap, bp0, bp1, &init0, &init1);
                store_tile(&acc0, c_chunk, row0, m, j0, NR, rows);
                store_tile(&acc1, c_chunk, row0, m, j0 + NR, NR, rows);
                panel += 2;
                continue;
            }
            let width = NR.min(m - j0);
            let bp = &packed_b[base + p0 * NR..base + (p0 + pc) * NR];
            let init = load_tile(c_chunk, row0, m, j0, width, rows, first);
            let acc = micro_kernel_lanes(pc, ap, bp, &init);
            store_tile(&acc, c_chunk, row0, m, j0, width, rows);
            panel += 1;
        }
        p0 += pc;
        if p0 >= k {
            return;
        }
    }
}

/// The accumulator seed for one register tile: zeros for the first `k`
/// block (and always in the zero-padded edge lanes, whose values are
/// never stored back), the partial sums already in `C` otherwise.
fn load_tile(
    c_chunk: &[f32],
    row0: usize,
    m: usize,
    j0: usize,
    width: usize,
    rows: usize,
    first: bool,
) -> [[f32; NR]; MR] {
    let mut init = [[0.0f32; NR]; MR];
    if !first {
        for (ii, row) in init.iter_mut().enumerate().take(rows) {
            let src = &c_chunk[(row0 + ii) * m + j0..(row0 + ii) * m + j0 + width];
            row[..width].copy_from_slice(src);
        }
    }
    init
}

/// Stores the active `rows × width` part of a register tile into `C`.
fn store_tile(
    acc: &[[f32; NR]; MR],
    c_chunk: &mut [f32],
    row0: usize,
    m: usize,
    j0: usize,
    width: usize,
    rows: usize,
) {
    for (ii, acc_row) in acc.iter().enumerate().take(rows) {
        let dst = &mut c_chunk[(row0 + ii) * m + j0..(row0 + ii) * m + j0 + width];
        dst.copy_from_slice(&acc_row[..width]);
    }
}

/// The MR×NR lane-tile dot kernel: each accumulator row is one [`F32x16`]
/// whose lanes are the `NR` output columns, held in registers for the
/// whole `kc` loop. Each step broadcasts one packed-`A` value against the
/// packed-`B` row — per output element the sum runs in ascending-`p`
/// order, identical to the naive reference, so the two agree to the last
/// bit. The accumulators are seeded from `init` (all zeros for the first —
/// or only — `k` block; the previous block's partial sums otherwise);
/// loading zeros is bitwise [`F32x16::zero`], so the unblocked case is
/// unchanged.
///
/// The eight rows are individually named locals on purpose: an
/// accumulator *array* this size defeats LLVM's scalar replacement and
/// spills the whole tile to the stack every `k` step (measured ~5× slower
/// than this shape).
// kdprof: hot
#[inline(always)]
fn micro_kernel_lanes(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    init: &[[f32; NR]; MR],
) -> [[f32; NR]; MR] {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    let (mut c0, mut c1, mut c2, mut c3) = (
        F32x16::load(&init[0]),
        F32x16::load(&init[1]),
        F32x16::load(&init[2]),
        F32x16::load(&init[3]),
    );
    let (mut c4, mut c5, mut c6, mut c7) = (
        F32x16::load(&init[4]),
        F32x16::load(&init[5]),
        F32x16::load(&init[6]),
        F32x16::load(&init[7]),
    );
    // Fixed-size chunks give LLVM compile-time lengths: no bounds checks
    // inside the k loop.
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let bv = F32x16::load(b);
        c0 = c0.fma_to(a[0], bv);
        c1 = c1.fma_to(a[1], bv);
        c2 = c2.fma_to(a[2], bv);
        c3 = c3.fma_to(a[3], bv);
        c4 = c4.fma_to(a[4], bv);
        c5 = c5.fma_to(a[5], bv);
        c6 = c6.fma_to(a[6], bv);
        c7 = c7.fma_to(a[7], bv);
    }
    [
        c0.to_array(),
        c1.to_array(),
        c2.to_array(),
        c3.to_array(),
        c4.to_array(),
        c5.to_array(),
        c6.to_array(),
        c7.to_array(),
    ]
}

/// Two [`micro_kernel_lanes`] tiles over the same packed-`A` stream: an
/// `MR × 2NR` register tile spanning two adjacent full-width `B` panels.
/// Each broadcast `a[i]` feeds both panels' lanes, halving the broadcast
/// and loop-overhead cost per MAC — the large-`k` win the blocked path
/// banks on (see [`PAIR_PANELS`] for why this is AVX-512-only). Per
/// output element the chain is exactly the single-panel kernel's
/// ascending-`p` chain, so fused and unfused panel sweeps are bitwise
/// identical.
// kdprof: hot
#[inline(always)]
fn micro_kernel_lanes_x2(
    kc: usize,
    ap: &[f32],
    bp0: &[f32],
    bp1: &[f32],
    init0: &[[f32; NR]; MR],
    init1: &[[f32; NR]; MR],
) -> ([[f32; NR]; MR], [[f32; NR]; MR]) {
    debug_assert!(ap.len() >= kc * MR && bp0.len() >= kc * NR && bp1.len() >= kc * NR);
    let (mut c0, mut c1, mut c2, mut c3) = (
        F32x16::load(&init0[0]),
        F32x16::load(&init0[1]),
        F32x16::load(&init0[2]),
        F32x16::load(&init0[3]),
    );
    let (mut c4, mut c5, mut c6, mut c7) = (
        F32x16::load(&init0[4]),
        F32x16::load(&init0[5]),
        F32x16::load(&init0[6]),
        F32x16::load(&init0[7]),
    );
    let (mut d0, mut d1, mut d2, mut d3) = (
        F32x16::load(&init1[0]),
        F32x16::load(&init1[1]),
        F32x16::load(&init1[2]),
        F32x16::load(&init1[3]),
    );
    let (mut d4, mut d5, mut d6, mut d7) = (
        F32x16::load(&init1[4]),
        F32x16::load(&init1[5]),
        F32x16::load(&init1[6]),
        F32x16::load(&init1[7]),
    );
    for ((a, b0), b1) in ap
        .chunks_exact(MR)
        .zip(bp0.chunks_exact(NR))
        .zip(bp1.chunks_exact(NR))
        .take(kc)
    {
        let bv0 = F32x16::load(b0);
        let bv1 = F32x16::load(b1);
        // The splat is hoisted into a named register on purpose: written
        // as two `fma_to` calls, LLVM folds a *separate* broadcast load
        // into each multiply, and the kernel stays load-port bound at the
        // single-panel rate. One explicit splat with two register uses
        // halves the broadcast traffic — the point of the fusion.
        // `fma_vv(splat(s), x)` is bitwise `fma_to(s, x)`, so values are
        // unchanged.
        let av = F32x16::splat(a[0]);
        c0 = c0.fma_vv(av, bv0);
        d0 = d0.fma_vv(av, bv1);
        let av = F32x16::splat(a[1]);
        c1 = c1.fma_vv(av, bv0);
        d1 = d1.fma_vv(av, bv1);
        let av = F32x16::splat(a[2]);
        c2 = c2.fma_vv(av, bv0);
        d2 = d2.fma_vv(av, bv1);
        let av = F32x16::splat(a[3]);
        c3 = c3.fma_vv(av, bv0);
        d3 = d3.fma_vv(av, bv1);
        let av = F32x16::splat(a[4]);
        c4 = c4.fma_vv(av, bv0);
        d4 = d4.fma_vv(av, bv1);
        let av = F32x16::splat(a[5]);
        c5 = c5.fma_vv(av, bv0);
        d5 = d5.fma_vv(av, bv1);
        let av = F32x16::splat(a[6]);
        c6 = c6.fma_vv(av, bv0);
        d6 = d6.fma_vv(av, bv1);
        let av = F32x16::splat(a[7]);
        c7 = c7.fma_vv(av, bv0);
        d7 = d7.fma_vv(av, bv1);
    }
    (
        [
            c0.to_array(),
            c1.to_array(),
            c2.to_array(),
            c3.to_array(),
            c4.to_array(),
            c5.to_array(),
            c6.to_array(),
            c7.to_array(),
        ],
        [
            d0.to_array(),
            d1.to_array(),
            d2.to_array(),
            d3.to_array(),
            d4.to_array(),
            d5.to_array(),
            d6.to_array(),
            d7.to_array(),
        ],
    )
}

/// Reference implementation: straightforward loops, ascending-`p` sums.
/// Public so tests and benchmarks can compare against the blocked path.
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive(
    n: usize,
    m: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
) {
    debug_assert_eq!(c.len(), n * m);
    let a_at = |i: usize, p: usize| match a_layout {
        Layout::Normal => a[i * k + p],
        Layout::Transposed => a[p * n + i],
    };
    let b_at = |p: usize, j: usize| match b_layout {
        Layout::Normal => b[p * m + j],
        Layout::Transposed => b[j * k + p],
    };
    for i in 0..n {
        let out_row = &mut c[i * m..(i + 1) * m];
        for (j, o) in out_row.iter_mut().enumerate() {
            let mut sum = 0.0f32;
            for p in 0..k {
                sum = a_at(i, p).mul_add(b_at(p, j), sum);
            }
            *o = sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random_range(-1.0f32..1.0)).collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Scalar replay of [`micro_kernel_lanes`]: the same MR×NR accumulator
    /// walked with plain scalar loops in the same order — the oracle the
    /// lane tile is pinned against.
    fn micro_kernel_scalar(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        init: &[[f32; NR]; MR],
    ) -> [[f32; NR]; MR] {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        let mut acc = *init;
        for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
            let a: &[f32; MR] = a.try_into().unwrap();
            let b: &[f32; NR] = b.try_into().unwrap();
            for (row, &av) in acc.iter_mut().zip(a) {
                for (acc_v, &bv) in row.iter_mut().zip(b) {
                    *acc_v = av.mul_add(bv, *acc_v);
                }
            }
        }
        acc
    }

    fn check_all_layouts(n: usize, m: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (la, lb) in [
            (Layout::Normal, Layout::Normal),
            (Layout::Transposed, Layout::Normal),
            (Layout::Normal, Layout::Transposed),
        ] {
            let a_len = n * k;
            let b_len = k * m;
            let a = random_matrix(&mut rng, a_len);
            let b = random_matrix(&mut rng, b_len);
            let mut fast = vec![0.0f32; n * m];
            let mut slow = vec![0.0f32; n * m];
            gemm(n, m, k, &a, la, &b, lb, &mut fast);
            gemm_naive(n, m, k, &a, la, &b, lb, &mut slow);
            assert_eq!(fast, slow, "({n},{m},{k}) {la:?}/{lb:?}");
        }
    }

    #[test]
    fn blocked_matches_naive_on_rectangles() {
        for &(n, m, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 33),
            (17, 13, 64),
            (64, 12, 96),
            (33, 65, 48),
            (128, 40, 50),
        ] {
            check_all_layouts(n, m, k, (n * 1000 + m * 10 + k) as u64);
        }
    }

    #[test]
    fn degenerate_edges_survive() {
        // m or n smaller than a tile; k = 1.
        check_all_layouts(1, 8, 1, 1);
        check_all_layouts(2, 3, 1, 2);
        check_all_layouts(4, 1, 128, 3);
    }

    /// Thin shapes above the naive shortcut ≡ naive, bitwise: `k == 1`
    /// and a single output column
    /// (`gemm_thin`) and a single output row (the blocked kernel), each
    /// with lane remainders, over every layout pair, with ±0.0, ±inf and
    /// NaN mixed into finite operands.
    #[test]
    fn thin_shapes_bitwise_equal_naive() {
        let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let shapes = [
            (300, 48, 1),
            (97, 45, 1),
            (1, 48, 3432),
            (1, 45, 200),
            (3432, 1, 48),
            (37, 1, 200),
            (1, 1, 5000),
        ];
        let layouts = [Layout::Normal, Layout::Transposed];
        for (s, &(n, m, k)) in shapes.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(s as u64);
            for la in layouts {
                for lb in layouts {
                    let mut a = random_matrix(&mut rng, n * k);
                    let mut b = random_matrix(&mut rng, k * m);
                    let (a_len, b_len) = (a.len(), b.len());
                    for (i, &v) in specials.iter().enumerate() {
                        a[(i * 7919) % a_len] = v;
                        b[(i * 104_729 + 3) % b_len] = v;
                    }
                    let mut naive = vec![0.0f32; n * m];
                    gemm_naive(n, m, k, &a, la, &b, lb, &mut naive);
                    let mut thin = vec![1.0f32; n * m];
                    gemm(n, m, k, &a, la, &b, lb, &mut thin);
                    assert_eq!(bits(&thin), bits(&naive), "({n},{m},{k}) {la:?}/{lb:?}");
                }
            }
        }
    }

    /// Lane kernel ≡ naive, bitwise, at the ragged shapes the tiling has
    /// to pad — `n % MR != 0`, `m % NR != 0`, `m < NR`, `n < MR`, `k == 0`
    /// — at `KD_THREADS ∈ {1, 4}`. The blocked path is driven directly (not
    /// through `gemm`'s naive small-shape shortcut) so the tile padding is
    /// really exercised at the tiny shapes.
    #[test]
    fn ragged_shapes_bitwise_equal_across_kernels_and_threads() {
        // (n, m, k): n ragged vs MR=8, m ragged vs NR=16 (above and below
        // one panel), m < NR, n < MR, both ragged, k = 0, and one aligned
        // control.
        let shapes = [
            (13, 16, 24), // n % MR != 0
            (16, 21, 24), // m % NR != 0, m > NR
            (16, 13, 24), // m % NR != 0, m < NR
            (16, 5, 24),  // m well below NR
            (5, 16, 24),  // n < MR
            (11, 7, 33),  // both ragged, odd k
            (9, 9, 0),    // k == 0 → all-zero C
            (16, 16, 16), // aligned control
        ];
        for &threads in &[1usize, 4] {
            tspar::set_parallelism(tspar::Parallelism::Fixed(threads));
            for &(n, m, k) in &shapes {
                let mut rng = StdRng::seed_from_u64((n * 971 + m * 31 + k) as u64);
                for (la, lb) in [
                    (Layout::Normal, Layout::Normal),
                    (Layout::Transposed, Layout::Normal),
                    (Layout::Normal, Layout::Transposed),
                ] {
                    let a = random_matrix(&mut rng, n * k);
                    let b = random_matrix(&mut rng, k * m);
                    let mut naive = vec![f32::NAN; n * m];
                    gemm_naive(n, m, k, &a, la, &b, lb, &mut naive);
                    let mut lane = vec![f32::NAN; n * m];
                    gemm_blocked(n, m, k, &a, la, &pack_b(m, k, &b, lb), KC, &mut lane);
                    let ctx = format!("({n},{m},{k}) {la:?}/{lb:?} threads={threads}");
                    assert_eq!(bits(&naive), bits(&lane), "naive vs lane {ctx}");
                    if k == 0 {
                        assert!(lane.iter().all(|&v| v == 0.0), "k=0 zeroes C {ctx}");
                    }
                }
            }
        }
        tspar::set_parallelism(tspar::Parallelism::Auto);
    }

    #[test]
    fn lane_and_scalar_micro_kernels_bitwise_equal() {
        let tile_bits = |t: [[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
        let mut rng = StdRng::seed_from_u64(77);
        let zero = [[0.0f32; NR]; MR];
        for &k in &[0usize, 1, 7, 32, 129] {
            let ap = random_matrix(&mut rng, k * MR);
            let bp = random_matrix(&mut rng, k * NR);
            assert_eq!(
                tile_bits(micro_kernel_lanes(k, &ap, &bp, &zero)),
                tile_bits(micro_kernel_scalar(k, &ap, &bp, &zero)),
                "k={k} zero seed"
            );
            // Non-trivial accumulator seeds (the k-blocked continuation
            // path) must agree too.
            let mut init = [[0.0f32; NR]; MR];
            for row in &mut init {
                for v in row.iter_mut() {
                    *v = rng.random_range(-2.0f32..2.0);
                }
            }
            assert_eq!(
                tile_bits(micro_kernel_lanes(k, &ap, &bp, &init)),
                tile_bits(micro_kernel_scalar(k, &ap, &bp, &init)),
                "k={k} seeded"
            );
        }
    }

    /// k-blocked ≡ unblocked, bitwise, at every block size — including
    /// `kc = 1` (one store/reload round trip per `p` step, the worst
    /// case for the "memory round trips are exact" argument), ragged
    /// shapes and every layout pair. This is the pin the module-level
    /// determinism note points at.
    #[test]
    fn k_blocked_matches_unblocked_bitwise() {
        let shapes = [
            (5, 9, 40),    // ragged everything
            (13, 21, 70),  // ragged rows and columns
            (16, 16, 300), // aligned, k > KC at kc = 256
            (8, 16, 513),  // one step past a kc = 256 boundary
        ];
        for &(n, m, k) in &shapes {
            let mut rng = StdRng::seed_from_u64((n * 7919 + m * 131 + k) as u64);
            for (la, lb) in [
                (Layout::Normal, Layout::Normal),
                (Layout::Transposed, Layout::Normal),
                (Layout::Normal, Layout::Transposed),
            ] {
                let a = random_matrix(&mut rng, n * k);
                let b = random_matrix(&mut rng, k * m);
                let mut unblocked = vec![f32::NAN; n * m];
                gemm_with_kc(n, m, k, &a, la, &b, lb, usize::MAX, &mut unblocked);
                let mut naive = vec![f32::NAN; n * m];
                gemm_naive(n, m, k, &a, la, &b, lb, &mut naive);
                assert_eq!(
                    bits(&naive),
                    bits(&unblocked),
                    "({n},{m},{k}) {la:?}/{lb:?}"
                );
                for &kc in &[1usize, 3, 64, 256] {
                    let mut blocked = vec![f32::NAN; n * m];
                    gemm_with_kc(n, m, k, &a, la, &b, lb, kc, &mut blocked);
                    assert_eq!(
                        bits(&unblocked),
                        bits(&blocked),
                        "({n},{m},{k}) {la:?}/{lb:?} kc={kc}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepacked_with_kc_matches_gemm() {
        let (n, m, k) = (24, 40, 600);
        let mut rng = StdRng::seed_from_u64(42);
        let a = random_matrix(&mut rng, n * k);
        let b = random_matrix(&mut rng, k * m);
        let mut direct = vec![0.0f32; n * m];
        gemm(n, m, k, &a, Layout::Normal, &b, Layout::Normal, &mut direct);
        let packed = PackedB::pack(m, k, &b, Layout::Normal);
        for &kc in &[7usize, KC, usize::MAX] {
            let mut pre = vec![f32::NAN; n * m];
            gemm_prepacked_with_kc(n, &a, Layout::Normal, &packed, kc, &mut pre);
            assert_eq!(direct, pre, "kc={kc}");
        }
    }

    #[test]
    fn identity_product() {
        let k = 16;
        let mut eye = vec![0.0f32; k * k];
        for i in 0..k {
            eye[i * k + i] = 1.0;
        }
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_matrix(&mut rng, 8 * k);
        let mut c = vec![0.0f32; 8 * k];
        gemm(8, k, k, &a, Layout::Normal, &eye, Layout::Normal, &mut c);
        for (x, y) in c.iter().zip(&a) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn prepacked_matches_gemm_bit_for_bit() {
        // Shapes spanning the naive shortcut, the serial blocked path and
        // parallel-eligible sizes, in both B layouts.
        for &(n, m, k) in &[(2, 3, 4), (5, 9, 33), (64, 48, 96), (96, 80, 120)] {
            let mut rng = StdRng::seed_from_u64((n * 100 + m * 10 + k) as u64);
            let a = random_matrix(&mut rng, n * k);
            let b = random_matrix(&mut rng, k * m);
            for lb in [Layout::Normal, Layout::Transposed] {
                let mut direct = vec![0.0f32; n * m];
                gemm(n, m, k, &a, Layout::Normal, &b, lb, &mut direct);
                let packed = PackedB::pack(m, k, &b, lb);
                assert_eq!((packed.m(), packed.k()), (m, k));
                let mut pre = vec![0.0f32; n * m];
                gemm_prepacked(n, &a, Layout::Normal, &packed, &mut pre);
                assert_eq!(direct, pre, "({n},{m},{k}) {lb:?}");
            }
        }
    }

    #[test]
    fn prepacked_parallel_split_is_bit_identical() {
        let (n, m, k) = (96, 80, 120);
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(&mut rng, n * k);
        let b = random_matrix(&mut rng, k * m);
        let packed = PackedB::pack(m, k, &b, Layout::Normal);
        tspar::set_parallelism(tspar::Parallelism::Fixed(1));
        let mut c1 = vec![0.0f32; n * m];
        gemm_prepacked(n, &a, Layout::Normal, &packed, &mut c1);
        tspar::set_parallelism(tspar::Parallelism::Fixed(7));
        let mut c7 = vec![0.0f32; n * m];
        gemm_prepacked(n, &a, Layout::Normal, &packed, &mut c7);
        tspar::set_parallelism(tspar::Parallelism::Auto);
        assert_eq!(c1, c7, "prepacked parallel GEMM must be bit-identical");
    }

    #[test]
    fn parallel_split_is_bit_identical() {
        let (n, m, k) = (96, 80, 120);
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(&mut rng, n * k);
        let b = random_matrix(&mut rng, k * m);
        tspar::set_parallelism(tspar::Parallelism::Fixed(1));
        let mut c1 = vec![0.0f32; n * m];
        gemm(n, m, k, &a, Layout::Normal, &b, Layout::Normal, &mut c1);
        tspar::set_parallelism(tspar::Parallelism::Fixed(7));
        let mut c7 = vec![0.0f32; n * m];
        gemm(n, m, k, &a, Layout::Normal, &b, Layout::Normal, &mut c7);
        tspar::set_parallelism(tspar::Parallelism::Auto);
        assert_eq!(c1, c7, "row-split parallel GEMM must be bit-identical");
    }
}
