//! Portable SIMD lane types for the `f32`/`f64` compute cores.
//!
//! Dependency-free fixed-width lane structs ([`F32x8`], [`F64x4`]) whose
//! per-lane ops are plain `#[inline(always)]` array loops: under the
//! workspace's `-C target-cpu=native` build LLVM lowers each op to one
//! vector instruction, without any `unsafe`, intrinsics, or nightly
//! features. The hot loops that use them (the GEMM micro-kernel, window
//! z-normalisation, MiniRocket's conv accumulation, Conv1d's inner loops)
//! get an unambiguous width-8/width-4 shape instead of hoping the
//! auto-vectoriser picks one.
//!
//! # Determinism
//!
//! Lane ops are ordinary IEEE-754 scalar arithmetic applied lane-wise —
//! no FMA contraction, no fast-math reassociation — so every helper here
//! has a **bitwise-identical scalar fallback** compiled into the binary.
//! The elementwise helper [`axpy_f64`] touches each element with the
//! same single operation on both paths. Reduction helpers ([`sum`],
//! [`sum_sq_diff`], [`dot`]) fix one canonical order — [`F32_LANES`]
//! striped partial sums folded by pairwise halving — and the scalar
//! fallback replays exactly that order, so switching paths can never
//! change a bit. `tests` in this module and the consumer crates pin the
//! equality.
//!
//! # Dispatch
//!
//! [`simd_enabled`] picks the path: `KD_NO_SIMD=1` in the environment
//! forces the scalar fallback process-wide (the CI leg that keeps both
//! paths green), and [`set_simd_policy`] overrides programmatically for
//! tests, mirroring [`tspar::set_parallelism`]. The flag is consulted at
//! helper entry, never inside an inner loop.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of [`F32x8`].
pub const F32_LANES: usize = 8;
/// Lane count of [`F32x16`].
pub const F32_WIDE_LANES: usize = 16;
/// Lane count of [`F64x4`].
pub const F64_LANES: usize = 4;

/// Eight `f32` lanes. One AVX/AVX2 register under `target-cpu=native`;
/// two SSE registers on older x86 — either way the ops below compile to
/// branch-free vector code.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F32x8(pub [f32; F32_LANES]);

impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; F32_LANES])
    }

    /// Every lane set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; F32_LANES])
    }

    /// Loads the first [`F32_LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than [`F32_LANES`].
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let arr: &[f32; F32_LANES] = s[..F32_LANES].try_into().expect("8 lanes");
        Self(*arr)
    }

    /// Loads `s` into the low lanes, zero-filling the rest.
    ///
    /// # Panics
    /// Panics if `s` is longer than [`F32_LANES`].
    #[inline(always)]
    pub fn load_partial(s: &[f32]) -> Self {
        let mut arr = [0.0; F32_LANES];
        arr[..s.len()].copy_from_slice(s);
        Self(arr)
    }

    /// Stores all lanes into the first [`F32_LANES`] elements of `d`.
    ///
    /// # Panics
    /// Panics if `d` is shorter than [`F32_LANES`].
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..F32_LANES].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; F32_LANES] {
        self.0
    }

    /// The canonical horizontal sum: pairwise halving —
    /// `(l0+l4, l1+l5, l2+l6, l3+l7)` → `(s0+s2, s1+s3)` → `t0+t1`.
    /// The scalar reduction fallbacks replay this exact order.
    #[inline(always)]
    pub fn reduce_sum(self) -> f32 {
        let l = self.0;
        let q = [l[0] + l[4], l[1] + l[5], l[2] + l[6], l[3] + l[7]];
        let h = [q[0] + q[2], q[1] + q[3]];
        h[0] + h[1]
    }
}

/// Expands to lane-wise `Add`/`Mul`/`Sub` operator impls for a lane type.
macro_rules! lane_ops {
    ($ty:ident, $($trait:ident :: $method:ident => $op:tt),+) => {$(
        impl std::ops::$trait for $ty {
            type Output = Self;

            /// Lane-wise, separately rounded (never contracted into FMA).
            #[inline(always)]
            fn $method(self, o: Self) -> Self {
                let mut r = self.0;
                for (a, b) in r.iter_mut().zip(&o.0) {
                    *a $op b;
                }
                Self(r)
            }
        }
    )+};
}

lane_ops!(F32x8, Add::add => +=, Mul::mul => *=, Sub::sub => -=);
lane_ops!(F32x16, Add::add => +=, Mul::mul => *=);
lane_ops!(F64x4, Add::add => +=, Mul::mul => *=);

/// Sixteen `f32` lanes — one full 512-bit register on AVX-512 targets,
/// two 256-bit registers elsewhere. The GEMM micro-kernel's accumulator
/// width: at 8 lanes LLVM's SLP pass fuses *pairs* of accumulator rows
/// into one 512-bit register and pays a `vpermt2ps` shuffle storm every
/// `k` step to do it; at 16 lanes each row is already register-shaped and
/// the loop compiles to clean broadcast/mul/add sequences.
///
/// Keep values of this type in **individually named locals**, not arrays:
/// an array of accumulators larger than ~256 bytes defeats LLVM's scalar
/// replacement and the whole tile spills to the stack.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F32x16(pub [f32; F32_WIDE_LANES]);

impl F32x16 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; F32_WIDE_LANES])
    }

    /// Every lane set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; F32_WIDE_LANES])
    }

    /// Loads the first [`F32_WIDE_LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than [`F32_WIDE_LANES`].
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let arr: &[f32; F32_WIDE_LANES] = s[..F32_WIDE_LANES].try_into().expect("16 lanes");
        Self(*arr)
    }

    /// Stores all lanes into the first [`F32_WIDE_LANES`] elements of `d`.
    ///
    /// # Panics
    /// Panics if `d` is shorter than [`F32_WIDE_LANES`].
    #[inline(always)]
    pub(crate) fn store(self, d: &mut [f32]) {
        d[..F32_WIDE_LANES].copy_from_slice(&self.0);
    }

    /// The lanes as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; F32_WIDE_LANES] {
        self.0
    }

    /// Per-lane bit blend: lane `i` is `a[i]` where `mask` is set and
    /// `b[i]` elsewhere. No arithmetic touches either operand, so signed
    /// zeros and NaN payloads pass through unchanged.
    #[inline(always)]
    pub(crate) fn select(mask: &Mask16, a: Self, b: Self) -> Self {
        let mut out = b.0;
        for ((o, &av), &m) in out.iter_mut().zip(&a.0).zip(&mask.0) {
            *o = f32::from_bits((av.to_bits() & m) | (o.to_bits() & !m));
        }
        Self(out)
    }

    /// `self + splat(a) * x`, the broadcast multiply-accumulate of
    /// Conv1d's tile. Mul and add round separately (no FMA contraction),
    /// so the result is bitwise the scalar `acc + a * x[lane]` per lane.
    #[inline(always)]
    pub fn mul_add_to(self, a: f32, x: Self) -> Self {
        self + Self::splat(a) * x
    }

    /// `self + splat(a) * x` with a *single* rounding per lane: lane `i`
    /// is exactly `a.mul_add(x[i], self[i])` (`f32::mul_add`, the IEEE-754
    /// correctly-rounded fusedMultiplyAdd — deterministic on every
    /// platform, hardware FMA or libm fallback). The GEMM kernels use
    /// this as their canonical per-step op; [`Self::mul_add_to`] keeps
    /// the two-rounding form for callers that need it.
    #[inline(always)]
    pub fn fma_to(self, a: f32, x: Self) -> Self {
        let mut out = self.0;
        for (o, &xv) in out.iter_mut().zip(&x.0) {
            *o = a.mul_add(xv, *o);
        }
        Self(out)
    }

    /// Lane-wise fused multiply-add with a vector multiplicand: lane `i`
    /// is exactly `a[i].mul_add(x[i], self[i])`. The dual-panel GEMM
    /// kernel hoists one broadcast into a register and feeds it to two
    /// `fma_vv` calls — bitwise [`Self::fma_to`] with `a = splat(s)`,
    /// minus the second broadcast load.
    #[inline(always)]
    pub fn fma_vv(self, a: Self, x: Self) -> Self {
        let mut out = self.0;
        for ((o, &av), &xv) in out.iter_mut().zip(&a.0).zip(&x.0) {
            *o = av.mul_add(xv, *o);
        }
        Self(out)
    }
}

/// A lane mask for [`F32x16::select`]: all-ones bits in a set lane, zero
/// in a clear one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub(crate) struct Mask16([u32; F32_WIDE_LANES]);

impl Mask16 {
    /// Lane `i` is set iff `f(i)`.
    #[inline]
    pub(crate) fn from_fn(f: impl Fn(usize) -> bool) -> Self {
        Self(std::array::from_fn(|i| if f(i) { u32::MAX } else { 0 }))
    }
}

/// Four `f64` lanes: one AVX register / two SSE2 registers.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; F64_LANES]);

impl F64x4 {
    /// Every lane set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; F64_LANES])
    }

    /// Loads the first [`F64_LANES`] elements of `s`.
    ///
    /// # Panics
    /// Panics if `s` is shorter than [`F64_LANES`].
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        let arr: &[f64; F64_LANES] = s[..F64_LANES].try_into().expect("4 lanes");
        Self(*arr)
    }

    /// Stores all lanes into the first [`F64_LANES`] elements of `d`.
    ///
    /// # Panics
    /// Panics if `d` is shorter than [`F64_LANES`].
    #[inline(always)]
    pub fn store(self, d: &mut [f64]) {
        d[..F64_LANES].copy_from_slice(&self.0);
    }
}

/// Which micro-kernel path the compute helpers take. Never affects
/// results — the scalar fallback is bitwise-identical by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Follow the environment: scalar iff `KD_NO_SIMD=1`.
    Auto,
    /// Force the lane path regardless of the environment.
    Lanes,
    /// Force the scalar fallback regardless of the environment.
    Scalar,
}

/// 0 = Auto, 1 = Lanes, 2 = Scalar.
static POLICY: AtomicU8 = AtomicU8::new(0);

/// Installs a process-wide dispatch override (tests sweep both paths);
/// `Auto` restores the `KD_NO_SIMD` environment default.
pub fn set_simd_policy(p: SimdPolicy) {
    let v = match p {
        SimdPolicy::Auto => 0,
        SimdPolicy::Lanes => 1,
        SimdPolicy::Scalar => 2,
    };
    POLICY.store(v, Ordering::SeqCst);
}

fn env_no_simd() -> bool {
    static CACHE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("KD_NO_SIMD")
            .map(|v| {
                let v = v.trim();
                !v.is_empty() && v != "0"
            })
            .unwrap_or(false)
    })
}

/// Whether the lane path is live (see the module docs for dispatch).
#[inline]
pub fn simd_enabled() -> bool {
    match POLICY.load(Ordering::SeqCst) {
        1 => true,
        2 => false,
        _ => !env_no_simd(),
    }
}

// ---------------------------------------------------------------------------
// Elementwise helpers (identical per-element op on both paths).
// ---------------------------------------------------------------------------

/// `dst[i] += a * xs[i]` over `f64` (MiniRocket's conv accumulation).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_f64(dst: &mut [f64], a: f64, xs: &[f64]) {
    assert_eq!(dst.len(), xs.len(), "axpy length mismatch");
    if simd_enabled() {
        let av = F64x4::splat(a);
        let mut d = dst.chunks_exact_mut(F64_LANES);
        let mut x = xs.chunks_exact(F64_LANES);
        for (dc, xc) in (&mut d).zip(&mut x) {
            (F64x4::load(dc) + av * F64x4::load(xc)).store(dc);
        }
        for (dv, &xv) in d.into_remainder().iter_mut().zip(x.remainder()) {
            *dv += a * xv;
        }
    } else {
        for (dv, &xv) in dst.iter_mut().zip(xs) {
            *dv += a * xv;
        }
    }
}

// ---------------------------------------------------------------------------
// Reductions (one canonical striped order, replayed exactly by the scalar
// fallback).
// ---------------------------------------------------------------------------

/// Striped sum: 8 partial sums over `xs[i*8+j]`, the zero-padded tail
/// added lane-wise, folded by [`F32x8::reduce_sum`]'s pairwise tree.
///
/// This is a *different* (and deterministic) summation order than a
/// sequential `iter().sum()`, chosen once so the lane and scalar paths
/// agree bitwise; callers adopting it accept the one-time change in
/// rounding relative to the sequential order.
#[inline]
pub fn sum(xs: &[f32]) -> f32 {
    if simd_enabled() {
        let mut acc = F32x8::zero();
        let chunks = xs.chunks_exact(F32_LANES);
        let rem = chunks.remainder();
        for c in chunks {
            acc = acc + F32x8::load(c);
        }
        acc = acc + F32x8::load_partial(rem);
        acc.reduce_sum()
    } else {
        sum_scalar(xs)
    }
}

/// The scalar replay of [`sum`]'s striped order (public so consumer tests
/// can pin lane ≡ scalar without flipping the global policy).
pub fn sum_scalar(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; F32_LANES];
    let chunks = xs.chunks_exact(F32_LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += v;
        }
    }
    let mut tail = [0.0f32; F32_LANES];
    tail[..rem.len()].copy_from_slice(rem);
    for (a, &v) in acc.iter_mut().zip(&tail) {
        *a += v;
    }
    F32x8(acc).reduce_sum()
}

/// Striped `Σ (xs[i] - mean)²` in [`sum`]'s canonical order — the variance
/// accumulation of window z-normalisation.
#[inline]
pub fn sum_sq_diff(xs: &[f32], mean: f32) -> f32 {
    if simd_enabled() {
        let mv = F32x8::splat(mean);
        let mut acc = F32x8::zero();
        let chunks = xs.chunks_exact(F32_LANES);
        let rem = chunks.remainder();
        for c in chunks {
            let d = F32x8::load(c) - mv;
            acc = acc + d * d;
        }
        // Zero-pad the tail *after* subtracting the mean so padded lanes
        // contribute exactly 0.0, like the scalar replay below.
        let mut tail = [0.0f32; F32_LANES];
        for (t, &v) in tail.iter_mut().zip(rem) {
            let d = v - mean;
            *t = d * d;
        }
        acc = acc + F32x8(tail);
        acc.reduce_sum()
    } else {
        sum_sq_diff_scalar(xs, mean)
    }
}

/// The scalar replay of [`sum_sq_diff`].
pub fn sum_sq_diff_scalar(xs: &[f32], mean: f32) -> f32 {
    let mut acc = [0.0f32; F32_LANES];
    let chunks = xs.chunks_exact(F32_LANES);
    let rem = chunks.remainder();
    for c in chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            let d = v - mean;
            *a += d * d;
        }
    }
    let mut tail = [0.0f32; F32_LANES];
    for (t, &v) in tail.iter_mut().zip(rem) {
        let d = v - mean;
        *t = d * d;
    }
    for (a, &v) in acc.iter_mut().zip(&tail) {
        *a += v;
    }
    F32x8(acc).reduce_sum()
}

/// Striped dot product `Σ a[i]·b[i]` in [`sum`]'s canonical order
/// (Conv1d's weight-gradient accumulation).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if simd_enabled() {
        let mut acc = F32x8::zero();
        let mut ac = a.chunks_exact(F32_LANES);
        let mut bc = b.chunks_exact(F32_LANES);
        for (av, bv) in (&mut ac).zip(&mut bc) {
            acc = acc + F32x8::load(av) * F32x8::load(bv);
        }
        let mut tail = [0.0f32; F32_LANES];
        for ((t, &av), &bv) in tail.iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
            *t = av * bv;
        }
        acc = acc + F32x8(tail);
        acc.reduce_sum()
    } else {
        dot_scalar(a, b)
    }
}

/// The scalar replay of [`dot`].
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f32; F32_LANES];
    let mut ac = a.chunks_exact(F32_LANES);
    let mut bc = b.chunks_exact(F32_LANES);
    for (av, bv) in (&mut ac).zip(&mut bc) {
        for ((x, &p), &q) in acc.iter_mut().zip(av).zip(bv) {
            *x += p * q;
        }
    }
    let mut tail = [0.0f32; F32_LANES];
    for ((t, &av), &bv) in tail.iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *t = av * bv;
    }
    for (x, &v) in acc.iter_mut().zip(&tail) {
        *x += v;
    }
    F32x8(acc).reduce_sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, salt: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 * 0.73 + salt).sin() * 2.0) - 0.3)
            .collect()
    }

    /// Runs `f` under both forced policies and restores `Auto`.
    fn both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
        set_simd_policy(SimdPolicy::Lanes);
        let lanes = f();
        set_simd_policy(SimdPolicy::Scalar);
        let scalar = f();
        set_simd_policy(SimdPolicy::Auto);
        (lanes, scalar)
    }

    #[test]
    fn lane_ops_are_lane_wise() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(0.5);
        assert_eq!((a * b).to_array(), [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]);
        assert_eq!((a - a).to_array(), [0.0; 8]);
        assert_eq!((a + b).to_array()[7], 8.5);
        assert_eq!(a.reduce_sum(), 36.0);
        let d = F64x4([1.0, 2.0, 3.0, 4.0]);
        assert_eq!((d * F64x4::splat(2.0) + d).0, [3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn wide_lane_ops_are_lane_wise() {
        let ramp: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let v = F32x16::load(&ramp);
        assert_eq!((v * F32x16::splat(2.0)).to_array()[15], 30.0);
        assert_eq!((v + v).to_array()[3], 6.0);
        // mul_add_to is mul-then-add per lane, no contraction.
        let acc = F32x16::splat(1.0).mul_add_to(0.5, v);
        for (lane, &x) in acc.to_array().iter().zip(&ramp) {
            assert_eq!(lane.to_bits(), (1.0f32 + 0.5 * x).to_bits());
        }
        assert_eq!(F32x16::zero().to_array(), [0.0; 16]);
        // select is a bit blend: -0.0 and NaN payloads pass untouched.
        let odd = Mask16::from_fn(|i| i % 2 == 1);
        let nan = f32::from_bits(0x7fc0_1234);
        let picked = F32x16::select(&odd, F32x16::splat(nan), F32x16::splat(-0.0));
        for (i, lane) in picked.to_array().iter().enumerate() {
            let want = if i % 2 == 1 { nan } else { -0.0 };
            assert_eq!(lane.to_bits(), want.to_bits());
        }
        let mut out = [1.0; 17];
        v.store(&mut out);
        assert_eq!(&out[..16], &ramp[..]);
        assert_eq!(out[16], 1.0);
    }

    #[test]
    fn fma_ops_are_single_rounded_per_lane() {
        // Values where fused (single-rounding) and mul-then-add differ in
        // the last bit, so the test fails if fma_to ever degrades to
        // mul_add_to semantics.
        let x: Vec<f32> = (0..16).map(|i| 1.0 + (i as f32) * 1e-7).collect();
        let a = 1.000_000_1_f32;
        let acc = F32x16::splat(0.25).fma_to(a, F32x16::load(&x));
        for (lane, &xv) in acc.to_array().iter().zip(&x) {
            assert_eq!(lane.to_bits(), a.mul_add(xv, 0.25).to_bits());
        }
        // fma_vv with a splat multiplicand is bitwise fma_to — the
        // contract the dual-panel GEMM kernel's hoisted broadcast rides on.
        let vv = F32x16::splat(0.25).fma_vv(F32x16::splat(a), F32x16::load(&x));
        for (l, r) in vv.to_array().iter().zip(acc.to_array()) {
            assert_eq!(l.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn load_partial_zero_fills() {
        let v = F32x8::load_partial(&[1.0, 2.0, 3.0]);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(F32x8::load_partial(&[]).to_array(), [0.0; 8]);
    }

    #[test]
    fn reductions_bitwise_equal_across_paths_and_lengths() {
        // Lengths crossing every tail case: empty, sub-lane, exact
        // multiples, and off-by-one around them.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100, 1000] {
            let xs = ramp(n, 0.17);
            let ys = ramp(n, 4.2);
            let (l, s) = both_paths(|| sum(&xs));
            assert_eq!(l.to_bits(), s.to_bits(), "sum n={n}");
            assert_eq!(s.to_bits(), sum_scalar(&xs).to_bits());
            let (l, s) = both_paths(|| sum_sq_diff(&xs, 0.21));
            assert_eq!(l.to_bits(), s.to_bits(), "sum_sq_diff n={n}");
            let (l, s) = both_paths(|| dot(&xs, &ys));
            assert_eq!(l.to_bits(), s.to_bits(), "dot n={n}");
        }
    }

    #[test]
    fn axpy_bitwise_equal_across_paths() {
        for n in [0usize, 1, 5, 8, 13, 64, 257] {
            let xs = ramp(n, 1.1);
            let base = ramp(n, 2.2);
            let xs64: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
            let base64: Vec<f64> = base.iter().map(|&v| v as f64).collect();
            let (l, s) = both_paths(|| {
                let mut d = base64.clone();
                axpy_f64(&mut d, 0.83, &xs64);
                d
            });
            assert_eq!(l, s, "axpy_f64 n={n}");
        }
    }

    #[test]
    fn reductions_match_reference_within_tolerance() {
        // The striped order is a different rounding than sequential; it
        // must still be an accurate sum.
        let xs = ramp(1000, 0.5);
        let seq: f64 = xs.iter().map(|&v| v as f64).sum();
        assert!((sum(&xs) as f64 - seq).abs() < 1e-3);
        let mean = (seq / 1000.0) as f32;
        let seq_var: f64 = xs.iter().map(|&v| ((v - mean) as f64).powi(2)).sum();
        assert!((sum_sq_diff(&xs, mean) as f64 - seq_var).abs() < 1e-2);
        let ys = ramp(1000, 3.3);
        let seq_dot: f64 = xs.iter().zip(&ys).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((dot(&xs, &ys) as f64 - seq_dot).abs() < 1e-2);
    }

    #[test]
    fn policy_override_controls_dispatch() {
        set_simd_policy(SimdPolicy::Lanes);
        assert!(simd_enabled());
        set_simd_policy(SimdPolicy::Scalar);
        assert!(!simd_enabled());
        set_simd_policy(SimdPolicy::Auto);
    }
}
