//! Scalar statistics shared across the workspace.

/// Arithmetic mean. Returns 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns 0 for fewer than 2 samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample skewness (0 for degenerate input).
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 3 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 {
        return 0.0;
    }
    xs.iter().map(|x| ((x - m) / s).powi(3)).sum::<f64>() / n as f64
}

/// Excess kurtosis (0 for degenerate input).
pub fn kurtosis(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 4 {
        return 0.0;
    }
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 {
        return 0.0;
    }
    xs.iter().map(|x| ((x - m) / s).powi(4)).sum::<f64>() / n as f64 - 3.0
}

/// Quantile via linear interpolation on a *sorted* slice.
///
/// `q` is clamped to `[0, 1]`. Returns 0 for empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Quantile of an unsorted slice (allocates a sorted copy). Sorts in
/// IEEE total order, so NaNs are ordered too (positive ones last) instead
/// of breaking the sort.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Autocorrelation at the given lag (0 for degenerate input).
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    let n = xs.len();
    if lag >= n || n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom < 1e-12 {
        return 0.0;
    }
    let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
    num / denom
}

/// Z-normalises a slice in place. Constant slices become all zeros.
pub fn znormalize(xs: &mut [f64]) {
    let m = mean(xs);
    let s = std_dev(xs);
    if s < 1e-12 {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
    } else {
        for x in xs.iter_mut() {
            *x = (*x - m) / s;
        }
    }
}

/// Min-max rescales scores into `[0, 1]`. Constant input maps to all zeros.
pub fn minmax_scale(xs: &mut [f64]) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs.iter() {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    let range = hi - lo;
    if range < 1e-300 || !range.is_finite() {
        for x in xs.iter_mut() {
            *x = 0.0;
        }
    } else {
        for x in xs.iter_mut() {
            *x = (*x - lo) / range;
        }
    }
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Simple linear-regression slope of `xs` against `0..n`.
pub fn linear_trend_slope(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let tx = (n - 1) as f64 / 2.0;
    let my = mean(xs);
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in xs.iter().enumerate() {
        let dx = i as f64 - tx;
        num += dx * (y - my);
        den += dx * dx;
    }
    if den < 1e-12 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 40-element vectors with about 6% NaNs.
    fn nan_vectors(count: usize) -> impl Iterator<Item = Vec<f64>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count).map(move |_| {
            (0..40)
                .map(|_| {
                    let r = next();
                    if r % 100 < 6 {
                        f64::NAN
                    } else {
                        (r >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    }
                })
                .collect()
        })
    }

    #[test]
    fn quantile_orders_nan_inputs_without_panicking() {
        for xs in nan_vectors(2000) {
            let finite: Vec<f64> = xs.iter().copied().filter(|v| !v.is_nan()).collect();
            let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
            // Positive NaNs sort last, so the minimum is still first.
            assert_eq!(quantile(&xs, 0.0), min);
        }
    }

    #[test]
    fn mean_and_variance_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_reflects_tail() {
        let right_tail = [1.0, 1.0, 1.0, 1.0, 10.0];
        let left_tail = [-10.0, 1.0, 1.0, 1.0, 1.0];
        assert!(skewness(&right_tail) > 0.5);
        assert!(skewness(&left_tail) < -0.5);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 0.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let xs: Vec<f64> = (0..200)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 10.0).sin())
            .collect();
        assert!(autocorrelation(&xs, 10) > 0.9);
        assert!(autocorrelation(&xs, 5) < -0.9);
    }

    #[test]
    fn znormalize_gives_zero_mean_unit_std() {
        let mut xs: Vec<f64> = (0..50).map(|i| i as f64 * 3.0 + 7.0).collect();
        znormalize(&mut xs);
        assert!(mean(&xs).abs() < 1e-10);
        assert!((std_dev(&xs) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn znormalize_constant_becomes_zero() {
        let mut xs = vec![5.0; 10];
        znormalize(&mut xs);
        assert!(xs.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn minmax_scale_bounds() {
        let mut xs = vec![-3.0, 0.0, 9.0];
        minmax_scale(&mut xs);
        assert_eq!(xs[0], 0.0);
        assert_eq!(xs[2], 1.0);
        assert!((xs[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trend_slope_of_line() {
        let xs: Vec<f64> = (0..30).map(|i| 2.0 * i as f64 + 1.0).collect();
        assert!((linear_trend_slope(&xs) - 2.0).abs() < 1e-10);
    }

    #[test]
    fn kurtosis_of_uniformish_is_negative() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(kurtosis(&xs) < 0.0);
    }
}
