//! Fixed-length window extraction (§2 of the paper).
//!
//! The selector classifies fixed-length subsequences; per-series selection is
//! a majority vote over the window predictions. Windows are z-normalised by
//! default, the standard preprocessing for time-series classification.

use crate::series::TimeSeries;

/// Window extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WindowConfig {
    /// Window length `L`.
    pub length: usize,
    /// Hop between consecutive windows.
    pub stride: usize,
    /// Z-normalise each window.
    pub znormalize: bool,
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self {
            length: 64,
            stride: 64,
            znormalize: true,
        }
    }
}

/// One extracted window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Index of the source series in the caller's collection.
    pub series_index: usize,
    /// Start offset within the source series.
    pub start: usize,
    /// The (possibly z-normalised) values, as `f32` for the NN substrate.
    pub values: Vec<f32>,
}

/// Extracts windows from a series.
///
/// If the series is shorter than `length`, a single window padded by edge
/// replication is emitted so every series yields at least one window.
pub fn extract_windows(ts: &TimeSeries, series_index: usize, cfg: &WindowConfig) -> Vec<Window> {
    assert!(
        cfg.length > 0 && cfg.stride > 0,
        "length and stride must be positive"
    );
    let n = ts.len();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    if n < cfg.length {
        let mut values: Vec<f32> = ts.values.iter().map(|&v| v as f32).collect();
        values.resize(cfg.length, *values.last().expect("non-empty"));
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(Window {
            series_index,
            start: 0,
            values,
        });
        return out;
    }
    let mut start = 0;
    while start + cfg.length <= n {
        let mut values: Vec<f32> = ts.values[start..start + cfg.length]
            .iter()
            .map(|&v| v as f32)
            .collect();
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(Window {
            series_index,
            start,
            values,
        });
        start += cfg.stride;
    }
    // Cover the tail if the stride skipped it. (Checking the last emitted
    // start is sufficient on its own: the loop above emits `last_start`
    // exactly when it is a stride multiple, and emitted starts ascend, so
    // a divisibility re-check would be redundant.)
    let last_start = n - cfg.length;
    if out.last().map(|w| w.start) != Some(last_start) {
        let mut values: Vec<f32> = ts.values[last_start..].iter().map(|&v| v as f32).collect();
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(Window {
            series_index,
            start: last_start,
            values,
        });
    }
    out
}

/// Extracts window *values* into caller-provided buffers — the pooled
/// twin of [`extract_windows`] for allocation-free serving hot paths.
///
/// `take_buf` supplies an empty (cleared) `Vec<f32>` per window —
/// typically recycled from a scratch arena — and each filled buffer is
/// pushed onto `out` in window order. The window boundaries, `f64 → f32`
/// conversion, edge padding and z-normalisation replay
/// [`extract_windows`] exactly, so the produced values are bitwise
/// identical to `extract_windows(ts, _, cfg)`'s `values` fields: both
/// paths map the same source slices through the same `as f32` casts and
/// the same [`znorm`] call, and buffer provenance cannot affect
/// arithmetic.
pub fn extract_window_values_into(
    ts: &TimeSeries,
    cfg: &WindowConfig,
    mut take_buf: impl FnMut() -> Vec<f32>,
    out: &mut Vec<Vec<f32>>,
) {
    assert!(
        cfg.length > 0 && cfg.stride > 0,
        "length and stride must be positive"
    );
    let n = ts.len();
    if n == 0 {
        return;
    }
    let mut fill = |src: &[f64]| {
        let mut values = take_buf();
        debug_assert!(values.is_empty(), "take_buf must supply cleared buffers");
        values.extend(src.iter().map(|&v| v as f32));
        values
    };
    if n < cfg.length {
        let mut values = fill(&ts.values);
        values.resize(cfg.length, *values.last().expect("non-empty"));
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(values);
        return;
    }
    let mut start = 0;
    let mut last_emitted = None;
    while start + cfg.length <= n {
        let mut values = fill(&ts.values[start..start + cfg.length]);
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(values);
        last_emitted = Some(start);
        start += cfg.stride;
    }
    // Tail coverage, mirroring `extract_windows` (see the comment there).
    let last_start = n - cfg.length;
    if last_emitted != Some(last_start) {
        let mut values = fill(&ts.values[last_start..]);
        if cfg.znormalize {
            znorm(&mut values);
        }
        out.push(values);
    }
}

pub(crate) fn znorm(values: &mut [f32]) {
    let n = values.len() as f32;
    // Lane-striped reductions from the compute core; the mean/variance
    // summation order is canonical (see `tsnn::simd`), so results do not
    // depend on the ISA the crate is compiled for.
    let mean = tsnn::simd::sum(values) / n;
    let var = tsnn::simd::sum_sq_diff(values, mean) / n;
    let std = var.sqrt();
    // Flat-window guard, **relative** to the window's magnitude. An
    // absolute `std < 1e-6` misses constant windows around a large
    // baseline: a window of 64 copies of `1e6 + 0.3` accumulates a few
    // ulps of f32 rounding in the striped mean (ulp(1e6) = 0.0625), so
    // `x - mean` is a nonzero constant, std lands around 0.25, and every
    // z-score comes out as the same garbage value (−1-ish) instead of the
    // zeros the constant-window contract promises. Relative variation
    // below 1e-6 (≈ 8 f32 ulps) is indistinguishable from that rounding
    // noise, so it is flattened to zeros deterministically. The threshold
    // is a pure function of `mean`/`std`, whose bits are fixed by the
    // canonical reduction order, so the branch taken is too.
    if std < 1e-6 * mean.abs().max(1.0) {
        for v in values.iter_mut() {
            *v = 0.0;
        }
    } else {
        for v in values.iter_mut() {
            *v = (*v - mean) / std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> TimeSeries {
        TimeSeries::new("t", "D", (0..n).map(|i| i as f64).collect(), vec![])
    }

    #[test]
    fn window_count_matches_stride() {
        let ts = series(100);
        let cfg = WindowConfig {
            length: 20,
            stride: 20,
            znormalize: false,
        };
        let ws = extract_windows(&ts, 0, &cfg);
        assert_eq!(ws.len(), 5);
        assert_eq!(ws[2].start, 40);
        assert_eq!(ws[2].values[0], 40.0);
    }

    #[test]
    fn overlapping_windows() {
        let ts = series(100);
        let cfg = WindowConfig {
            length: 40,
            stride: 20,
            znormalize: false,
        };
        let ws = extract_windows(&ts, 0, &cfg);
        assert_eq!(ws.len(), 4); // starts 0,20,40,60
    }

    #[test]
    fn tail_window_added_when_stride_skips_it() {
        let ts = series(105);
        let cfg = WindowConfig {
            length: 20,
            stride: 20,
            znormalize: false,
        };
        let ws = extract_windows(&ts, 0, &cfg);
        assert_eq!(ws.last().unwrap().start, 85);
    }

    #[test]
    fn short_series_padded() {
        let ts = series(10);
        let cfg = WindowConfig {
            length: 20,
            stride: 20,
            znormalize: false,
        };
        let ws = extract_windows(&ts, 3, &cfg);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].values.len(), 20);
        assert_eq!(ws[0].series_index, 3);
        assert_eq!(ws[0].values[15], 9.0); // edge replication
    }

    #[test]
    fn znormalized_windows_have_zero_mean() {
        let ts = series(128);
        let cfg = WindowConfig {
            length: 64,
            stride: 64,
            znormalize: true,
        };
        for w in extract_windows(&ts, 0, &cfg) {
            let mean: f32 = w.values.iter().sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn constant_window_znorms_to_zero() {
        let ts = TimeSeries::new("t", "D", vec![5.0; 64], vec![]);
        let ws = extract_windows(&ts, 0, &WindowConfig::default());
        assert!(ws[0].values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_window_at_large_offset_znorms_to_zero() {
        // Regression: these baselines are not exactly representable as f32
        // multiples, so the striped f32 mean picks up rounding noise and
        // the old absolute `std < 1e-6` guard let a *constant* window emit
        // a constant garbage z-score (−1 at 1e6 + 0.3) instead of zeros.
        for base in [1e6 + 0.3, 12345.678, 2.5e6 + 0.7, -1e6 - 0.3] {
            let ts = TimeSeries::new("t", "D", vec![base; 64], vec![]);
            let ws = extract_windows(&ts, 0, &WindowConfig::default());
            assert!(
                ws[0].values.iter().all(|&v| v == 0.0),
                "constant window at offset {base} must z-norm to zeros, got {:?}",
                &ws[0].values[..4]
            );
        }
    }

    #[test]
    fn near_constant_large_offset_window_flattens_not_amplifies() {
        // A large baseline with sub-noise jitter (well under 1e-6 relative)
        // is rounding noise in f32, not signal: the relative guard zeroes
        // it instead of amplifying it to full-scale z-scores.
        let values: Vec<f64> = (0..64)
            .map(|i| 1e6 + 1e-3 * (i as f64 * 0.37).sin())
            .collect();
        let ts = TimeSeries::new("t", "D", values, vec![]);
        let ws = extract_windows(&ts, 0, &WindowConfig::default());
        assert!(ws[0].values.iter().all(|&v| v == 0.0));
        // Genuine variation at the same offset still z-normalises: ±40
        // around 1e6 is 4e-5 relative, far above the 1e-6 guard.
        let values: Vec<f64> = (0..64)
            .map(|i| 1e6 + 40.0 * (i as f64 * 0.37).sin())
            .collect();
        let ts = TimeSeries::new("t", "D", values, vec![]);
        let ws = extract_windows(&ts, 0, &WindowConfig::default());
        let mean: f32 = ws[0].values.iter().sum::<f32>() / 64.0;
        assert!(
            ws[0].values.iter().any(|&v| v.abs() > 0.5),
            "real signal survives"
        );
        // f32 input quantisation at 1e6 (ulp 0.0625) leaves a few-permille
        // residual in the z-score mean — centred up to that noise floor.
        assert!(mean.abs() < 1e-2, "z-scores centred, mean {mean}");
    }

    #[test]
    fn empty_series_yields_no_windows() {
        let ts = TimeSeries::new("t", "D", vec![], vec![]);
        assert!(extract_windows(&ts, 0, &WindowConfig::default()).is_empty());
        let mut out = Vec::new();
        extract_window_values_into(&ts, &WindowConfig::default(), Vec::new, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn values_into_matches_extract_windows_bitwise() {
        // Sweep the structural cases: short (padded), exact multiple,
        // stride-skipped tail, overlap — with and without z-norm, and with
        // recycled dirty buffers in the pool.
        let cfgs = [
            WindowConfig {
                length: 20,
                stride: 20,
                znormalize: false,
            },
            WindowConfig {
                length: 40,
                stride: 20,
                znormalize: true,
            },
            WindowConfig::default(),
        ];
        for n in [0usize, 7, 40, 100, 105, 128] {
            let ts = TimeSeries::new(
                "t",
                "D",
                (0..n)
                    .map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0)
                    .collect(),
                vec![],
            );
            for cfg in &cfgs {
                let reference = extract_windows(&ts, 0, cfg);
                // Pool primed with dirty buffers to prove recycling is inert.
                let mut pool: Vec<Vec<f32>> = (0..3)
                    .map(|_| {
                        let mut b = vec![99.0f32; 64];
                        b.clear();
                        b
                    })
                    .collect();
                let mut out = Vec::new();
                extract_window_values_into(&ts, cfg, || pool.pop().unwrap_or_default(), &mut out);
                assert_eq!(out.len(), reference.len(), "n={n} cfg={cfg:?}");
                for (got, want) in out.iter().zip(&reference) {
                    assert_eq!(got.len(), want.values.len());
                    assert!(
                        got.iter()
                            .zip(&want.values)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "pooled extraction diverged at n={n} cfg={cfg:?}"
                    );
                }
            }
        }
    }
}
