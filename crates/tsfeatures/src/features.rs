//! TSFresh-style statistical features.

use tslinalg::dft::magnitude_spectrum;
use tslinalg::stats;

/// Number of features produced by [`extract_features`].
pub const FEATURE_COUNT: usize = 36;

/// Names of the features, aligned with [`extract_features`] output order.
pub fn feature_names() -> Vec<&'static str> {
    vec![
        "mean",
        "std",
        "min",
        "max",
        "median",
        "q10",
        "q25",
        "q75",
        "q90",
        "iqr",
        "skewness",
        "kurtosis",
        "range",
        "mean_abs_change",
        "mean_change",
        "abs_energy",
        "root_mean_square",
        "count_above_mean",
        "count_below_mean",
        "zero_crossings",
        "mean_crossings",
        "longest_above_mean",
        "n_peaks",
        "acf_lag1",
        "acf_lag2",
        "acf_lag4",
        "acf_lag8",
        "acf_lag16",
        "trend_slope",
        "cid_ce",
        "spectral_centroid",
        "spectral_peak_freq",
        "spectral_peak_power",
        "spectral_entropy",
        "first_quarter_mean_diff",
        "last_quarter_mean_diff",
    ]
}

/// Extracts the feature vector of a window.
///
/// Degenerate inputs (constant or very short windows) produce finite values
/// for every feature — classifiers never see NaN.
pub fn extract_features(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    if n == 0 {
        return vec![0.0; FEATURE_COUNT];
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);

    let mean = stats::mean(xs);
    let std = stats::std_dev(xs);
    let min = sorted[0];
    let max = sorted[n - 1];
    let median = stats::quantile_sorted(&sorted, 0.5);
    let q10 = stats::quantile_sorted(&sorted, 0.10);
    let q25 = stats::quantile_sorted(&sorted, 0.25);
    let q75 = stats::quantile_sorted(&sorted, 0.75);
    let q90 = stats::quantile_sorted(&sorted, 0.90);

    // Changes.
    let mut abs_change = 0.0;
    let mut change = 0.0;
    for w in xs.windows(2) {
        abs_change += (w[1] - w[0]).abs();
        change += w[1] - w[0];
    }
    let denom = (n.max(2) - 1) as f64;
    let mean_abs_change = abs_change / denom;
    let mean_change = change / denom;

    let abs_energy: f64 = xs.iter().map(|v| v * v).sum();
    let rms = (abs_energy / n as f64).sqrt();

    // Counts.
    let above = xs.iter().filter(|&&v| v > mean).count() as f64 / n as f64;
    let below = xs.iter().filter(|&&v| v < mean).count() as f64 / n as f64;
    let zero_crossings = crossings(xs, 0.0);
    let mean_crossings = crossings(xs, mean);
    let longest_above = longest_run(xs, mean) as f64 / n as f64;
    let n_peaks = peaks(xs) as f64 / n as f64;

    // Autocorrelation ladder.
    let acf1 = stats::autocorrelation(xs, 1);
    let acf2 = stats::autocorrelation(xs, 2);
    let acf4 = stats::autocorrelation(xs, 4);
    let acf8 = stats::autocorrelation(xs, 8);
    let acf16 = stats::autocorrelation(xs, 16);

    let slope = stats::linear_trend_slope(xs);

    // CID complexity estimate: sqrt(Σ diff²).
    let cid: f64 = xs
        .windows(2)
        .map(|w| (w[1] - w[0]) * (w[1] - w[0]))
        .sum::<f64>()
        .sqrt();

    // Spectral features on the mean-removed signal.
    let centered: Vec<f64> = xs.iter().map(|v| v - mean).collect();
    let spec = magnitude_spectrum(&centered);
    let (centroid, peak_freq, peak_power, entropy) = spectral_stats(&spec);

    // Segment means: distribution drift indicators.
    let quarter = (n / 4).max(1);
    let first_q = stats::mean(&xs[..quarter]) - mean;
    let last_q = stats::mean(&xs[n - quarter..]) - mean;

    let out = vec![
        mean,
        std,
        min,
        max,
        median,
        q10,
        q25,
        q75,
        q90,
        q75 - q25,
        stats::skewness(xs),
        stats::kurtosis(xs),
        max - min,
        mean_abs_change,
        mean_change,
        abs_energy / n as f64,
        rms,
        above,
        below,
        zero_crossings,
        mean_crossings,
        longest_above,
        n_peaks,
        acf1,
        acf2,
        acf4,
        acf8,
        acf16,
        slope,
        cid,
        centroid,
        peak_freq,
        peak_power,
        entropy,
        first_q,
        last_q,
    ];
    debug_assert_eq!(out.len(), FEATURE_COUNT);
    out.into_iter()
        .map(|v| if v.is_finite() { v } else { 0.0 })
        .collect()
}

fn crossings(xs: &[f64], level: f64) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut count = 0;
    for w in xs.windows(2) {
        if (w[0] - level).signum() != (w[1] - level).signum() {
            count += 1;
        }
    }
    count as f64 / (xs.len() - 1) as f64
}

fn longest_run(xs: &[f64], level: f64) -> usize {
    let mut best = 0;
    let mut run = 0;
    for &v in xs {
        if v > level {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    best
}

fn peaks(xs: &[f64]) -> usize {
    if xs.len() < 3 {
        return 0;
    }
    xs.windows(3).filter(|w| w[1] > w[0] && w[1] > w[2]).count()
}

/// Returns (normalised centroid, normalised peak frequency, normalised peak
/// power, spectral entropy).
fn spectral_stats(spec: &[f64]) -> (f64, f64, f64, f64) {
    if spec.len() < 2 {
        return (0.0, 0.0, 0.0, 0.0);
    }
    // Skip DC.
    let body = &spec[1..];
    let total: f64 = body.iter().sum();
    if total < 1e-12 {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let mut centroid = 0.0;
    let mut peak_idx = 0;
    let mut peak_val = 0.0;
    for (i, &v) in body.iter().enumerate() {
        centroid += (i + 1) as f64 * v;
        if v > peak_val {
            peak_val = v;
            peak_idx = i + 1;
        }
    }
    centroid /= total * spec.len() as f64;
    let peak_freq = peak_idx as f64 / spec.len() as f64;
    let peak_power = peak_val / total;
    let entropy: f64 = body
        .iter()
        .filter(|&&v| v > 1e-12)
        .map(|&v| {
            let p = v / total;
            -p * p.ln()
        })
        .sum::<f64>()
        / (body.len() as f64).ln().max(1e-12);
    (centroid, peak_freq, peak_power, entropy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_windows_extract_without_panicking() {
        // About 6% NaNs in a 40-point window: the sort must stay total.
        for s in 0..200u64 {
            let xs: Vec<f64> = (0..40u64)
                .map(|t| {
                    let h = (s * 40 + t).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    if h % 100 < 6 {
                        f64::NAN
                    } else {
                        (h % 1000) as f64 * 0.01
                    }
                })
                .collect();
            assert_eq!(extract_features(&xs).len(), FEATURE_COUNT);
        }
    }

    #[test]
    fn feature_vector_length_matches_names() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let f = extract_features(&xs);
        assert_eq!(f.len(), FEATURE_COUNT);
        assert_eq!(feature_names().len(), FEATURE_COUNT);
    }

    #[test]
    fn all_features_finite_on_degenerate_inputs() {
        for xs in [vec![], vec![5.0], vec![2.0; 100]] {
            let f = extract_features(&xs);
            assert_eq!(f.len(), FEATURE_COUNT);
            assert!(f.iter().all(|v| v.is_finite()), "{xs:?}");
        }
    }

    #[test]
    fn mean_and_std_in_expected_slots() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let f = extract_features(&xs);
        let names = feature_names();
        let mean_idx = names.iter().position(|&n| n == "mean").unwrap();
        let std_idx = names.iter().position(|&n| n == "std").unwrap();
        assert!((f[mean_idx] - 2.5).abs() < 1e-12);
        assert!((f[std_idx] - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn periodic_signal_has_high_acf_and_peak_power() {
        let xs: Vec<f64> = (0..128)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 16.0).sin())
            .collect();
        let f = extract_features(&xs);
        let names = feature_names();
        let acf16 = f[names.iter().position(|&n| n == "acf_lag16").unwrap()];
        let peak_power = f[names
            .iter()
            .position(|&n| n == "spectral_peak_power")
            .unwrap()];
        assert!(acf16 > 0.8, "acf16={acf16}");
        assert!(peak_power > 0.5, "peak_power={peak_power}");
    }

    #[test]
    fn noise_has_higher_entropy_than_sine() {
        let sine: Vec<f64> = (0..128)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 16.0).sin())
            .collect();
        // Deterministic pseudo-noise.
        let noise: Vec<f64> = (0..128)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let names = feature_names();
        let idx = names.iter().position(|&n| n == "spectral_entropy").unwrap();
        let e_sine = extract_features(&sine)[idx];
        let e_noise = extract_features(&noise)[idx];
        assert!(e_noise > e_sine, "noise={e_noise} sine={e_sine}");
    }

    #[test]
    fn trend_slope_detects_trend() {
        let xs: Vec<f64> = (0..50).map(|i| 0.7 * i as f64).collect();
        let names = feature_names();
        let idx = names.iter().position(|&n| n == "trend_slope").unwrap();
        assert!((extract_features(&xs)[idx] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn peaks_counted() {
        let xs = vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0];
        let names = feature_names();
        let idx = names.iter().position(|&n| n == "n_peaks").unwrap();
        let f = extract_features(&xs);
        assert!((f[idx] - 3.0 / 7.0).abs() < 1e-9);
    }
}
