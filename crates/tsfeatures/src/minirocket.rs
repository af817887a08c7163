//! MiniRocket transform (Dempster et al.), reimplemented.
//!
//! MiniRocket convolves the input with the fixed set of 84 length-9 kernels
//! whose weights are −1 except at three positions where they are 2 (all
//! C(9,3) choices), across exponentially spaced dilations, and pools each
//! convolution output with PPV — the proportion of values exceeding a bias
//! drawn from the quantiles of the training distribution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 84 fixed MiniRocket kernels, each encoded by the 3 positions that
/// carry weight `2` (remaining 6 positions carry weight `−1`).
fn kernel_indices() -> Vec<[usize; 3]> {
    let mut out = Vec::with_capacity(84);
    for a in 0..9 {
        for b in a + 1..9 {
            for c in b + 1..9 {
                out.push([a, b, c]);
            }
        }
    }
    out
}

/// A fitted MiniRocket transform.
#[derive(Debug, Clone)]
pub struct MiniRocket {
    kernels: Vec<[usize; 3]>,
    dilations: Vec<usize>,
    /// `biases[kernel][dilation]` → bias values (one PPV feature each).
    biases: Vec<Vec<Vec<f64>>>,
    input_len: usize,
    features_per_pair: usize,
}

impl MiniRocket {
    /// Fits bias quantiles on training windows.
    ///
    /// * `windows` — training windows, all of length `input_len`.
    /// * `features_per_pair` — PPV biases per (kernel, dilation) pair.
    /// * `seed` — drives the subsample of windows used for quantiles.
    ///
    /// # Panics
    /// Panics if `windows` is empty or lengths are inconsistent.
    pub fn fit(windows: &[Vec<f64>], features_per_pair: usize, seed: u64) -> Self {
        assert!(!windows.is_empty(), "MiniRocket needs training windows");
        let input_len = windows[0].len();
        assert!(input_len >= 9, "windows must hold a length-9 kernel");
        assert!(features_per_pair >= 1, "at least one bias per pair");
        let kernels = kernel_indices();
        let dilations = dilations_for(input_len);

        // Sample windows for the bias quantiles.
        let mut rng = StdRng::seed_from_u64(seed);
        let sample_count = windows.len().min(32);
        let mut sample_idx: Vec<usize> = (0..windows.len()).collect();
        for i in 0..sample_count {
            let j = rng.random_range(i..windows.len());
            sample_idx.swap(i, j);
        }
        let samples = &sample_idx[..sample_count];

        let mut biases = vec![vec![Vec::new(); dilations.len()]; kernels.len()];
        let mut conv_buf = vec![0.0f64; input_len];
        for (ki, kernel) in kernels.iter().enumerate() {
            for (di, &dilation) in dilations.iter().enumerate() {
                // Pool conv outputs over the sample to pick quantile biases.
                let mut pool = Vec::with_capacity(sample_count * input_len);
                for &wi in samples {
                    convolve(&windows[wi], kernel, dilation, &mut conv_buf);
                    pool.extend_from_slice(&conv_buf);
                }
                pool.sort_by(f64::total_cmp);
                let m = features_per_pair;
                let qs: Vec<f64> = (1..=m)
                    .map(|q| tslinalg::stats::quantile_sorted(&pool, q as f64 / (m + 1) as f64))
                    .collect();
                biases[ki][di] = qs;
            }
        }
        Self {
            kernels,
            dilations,
            biases,
            input_len,
            features_per_pair,
        }
    }

    /// Number of output features.
    pub fn n_features(&self) -> usize {
        self.kernels.len() * self.dilations.len() * self.features_per_pair
    }

    /// Transforms one window into its PPV feature vector.
    ///
    /// # Panics
    /// Panics if the window length differs from the fitted length.
    pub fn transform(&self, window: &[f64]) -> Vec<f64> {
        assert_eq!(window.len(), self.input_len, "window length mismatch");
        let mut out = Vec::with_capacity(self.n_features());
        let mut conv_buf = vec![0.0f64; self.input_len];
        for (ki, kernel) in self.kernels.iter().enumerate() {
            for (di, &dilation) in self.dilations.iter().enumerate() {
                convolve(window, kernel, dilation, &mut conv_buf);
                for &bias in &self.biases[ki][di] {
                    let ppv = conv_buf.iter().filter(|&&v| v > bias).count() as f64
                        / conv_buf.len() as f64;
                    out.push(ppv);
                }
            }
        }
        out
    }

    /// Transforms a batch of windows, one pool task per window. Each window
    /// is independent, so the output equals the serial map at any thread
    /// count.
    pub fn transform_batch(&self, windows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        tspar::par_map(windows.len(), |i| self.transform(&windows[i]))
    }
}

/// Exponential dilation schedule fitting a length-9 kernel into `len`.
fn dilations_for(len: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 1;
    while 8 * d < len && out.len() < 5 {
        out.push(d);
        d *= 2;
    }
    out
}

/// Convolution with a {−1, 2} kernel at the given dilation, "same" padding.
///
/// The sum of all weights is −6 + 3·2 = 0, so the output is invariant to
/// constant offsets in the input (inside the valid region).
fn convolve(x: &[f64], kernel: &[usize; 3], dilation: usize, out: &mut [f64]) {
    // Tap-major: one strided axpy sweep per kernel tap instead of a 9-tap
    // gather per output. Each out[t] still accumulates its in-range taps in
    // ascending-k order starting from 0.0, so the result is bitwise
    // identical to the per-t formulation — only the loop nest changed.
    let n = x.len() as isize;
    out.fill(0.0);
    for k in 0..9usize {
        let w = if kernel.contains(&k) { 2.0 } else { -1.0 };
        let off = (k as isize - 4) * dilation as isize;
        // Valid outputs: t + off ∈ [0, n).
        let t0 = (-off).max(0).min(out.len() as isize);
        let t1 = (n - off).clamp(t0, out.len() as isize);
        let (t0, t1) = (t0 as usize, t1 as usize);
        let xs = &x[(t0 as isize + off) as usize..(t1 as isize + off) as usize];
        tsnn::simd::axpy_f64(&mut out[t0..t1], w, xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_windows() -> Vec<Vec<f64>> {
        (0..8)
            .map(|s| {
                (0..32)
                    .map(|t| ((t + s) as f64 * 0.4).sin() + 0.1 * s as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bias_fit_sorts_nan_windows_without_panicking() {
        let mut windows = toy_windows();
        for (s, w) in windows.iter_mut().enumerate() {
            for t in (s % 5..w.len()).step_by(17) {
                w[t] = f64::NAN;
            }
        }
        let mr = MiniRocket::fit(&windows, 2, 3);
        assert_eq!(mr.transform(&toy_windows()[0]).len(), mr.n_features());
    }

    #[test]
    fn eighty_four_kernels() {
        assert_eq!(kernel_indices().len(), 84);
    }

    #[test]
    fn feature_count_matches_formula() {
        let mr = MiniRocket::fit(&toy_windows(), 2, 0);
        assert_eq!(mr.transform(&toy_windows()[0]).len(), mr.n_features());
        assert_eq!(mr.n_features(), 84 * mr.dilations.len() * 2);
    }

    #[test]
    fn ppv_features_are_fractions() {
        let mr = MiniRocket::fit(&toy_windows(), 3, 1);
        for w in toy_windows() {
            for v in mr.transform(&w) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn transform_is_deterministic() {
        let mr = MiniRocket::fit(&toy_windows(), 2, 7);
        let a = mr.transform(&toy_windows()[3]);
        let b = mr.transform(&toy_windows()[3]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_signals_get_different_features() {
        let mr = MiniRocket::fit(&toy_windows(), 2, 7);
        let sine: Vec<f64> = (0..32).map(|t| (t as f64 * 0.4).sin()).collect();
        let ramp: Vec<f64> = (0..32).map(|t| t as f64 * 0.1).collect();
        assert_ne!(mr.transform(&sine), mr.transform(&ramp));
    }

    #[test]
    fn dilation_schedule_respects_length() {
        assert_eq!(dilations_for(9), vec![1]);
        assert_eq!(dilations_for(32), vec![1, 2]);
        assert_eq!(dilations_for(200), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn kernel_sum_is_zero_makes_conv_offset_invariant() {
        let kernel = [0usize, 4, 8];
        let x: Vec<f64> = (0..32).map(|t| (t as f64 * 0.3).cos()).collect();
        let shifted: Vec<f64> = x.iter().map(|v| v + 100.0).collect();
        let mut a = vec![0.0; 32];
        let mut b = vec![0.0; 32];
        convolve(&x, &kernel, 1, &mut a);
        convolve(&shifted, &kernel, 1, &mut b);
        // Interior (away from padding) is identical.
        for t in 8..24 {
            assert!((a[t] - b[t]).abs() < 1e-9, "t={t}");
        }
    }

    /// The per-t gather formulation the tap-major `convolve` replaced.
    fn convolve_per_t(x: &[f64], kernel: &[usize; 3], dilation: usize, out: &mut [f64]) {
        let n = x.len();
        for (t, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in 0..9usize {
                let offset = t as isize + (k as isize - 4) * dilation as isize;
                if offset < 0 || offset >= n as isize {
                    continue;
                }
                let w = if kernel.contains(&k) { 2.0 } else { -1.0 };
                acc += w * x[offset as usize];
            }
            *o = acc;
        }
    }

    #[test]
    fn tap_major_convolve_bitwise_equals_per_t_reference() {
        let x: Vec<f64> = (0..61)
            .map(|t| (t as f64 * 0.23).sin() * 1.7 - 0.4)
            .collect();
        for kernel in [[0usize, 1, 2], [0, 4, 8], [2, 5, 7], [6, 7, 8]] {
            // Dilation 8 pushes every tap out of range for some outputs.
            for dilation in [1usize, 2, 4, 8] {
                let mut want = vec![0.0; x.len()];
                convolve_per_t(&x, &kernel, dilation, &mut want);
                let mut got = vec![f64::NAN; x.len()];
                convolve(&x, &kernel, dilation, &mut got);
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "kernel={kernel:?} dilation={dilation}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "window length mismatch")]
    fn wrong_length_rejected() {
        let mr = MiniRocket::fit(&toy_windows(), 2, 0);
        let _ = mr.transform(&[0.0; 16]);
    }
}
