//! Autoencoder reconstruction-error detector.

use crate::common::{auto_window, normalize_scores, sliding_windows, window_scores_to_points};
use crate::{Detector, ModelId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tslinalg::stats;
use tsnn::layers::{Layer, Seq};
use tsnn::loss::mse;
use tsnn::optim::Adam;
use tsnn::Tensor;

/// AE detector: a small MLP autoencoder (`w → h → w`) trained on the series'
/// own z-normalised windows; anomalous windows reconstruct poorly.
#[derive(Debug, Clone)]
pub struct AutoEncoder {
    seed: u64,
    epochs: usize,
    max_windows: usize,
}

impl AutoEncoder {
    /// Default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            epochs: 30,
            max_windows: 250,
        }
    }
}

impl Detector for AutoEncoder {
    fn id(&self) -> ModelId {
        ModelId::Ae
    }

    fn score(&self, series: &[f64]) -> Vec<f64> {
        let n = series.len();
        if n == 0 {
            return Vec::new();
        }
        let w = auto_window(series);
        if n < 2 * w {
            return vec![0.0; n];
        }
        // Training windows: stride grows to respect the cap; scoring windows
        // use a tighter stride for resolution.
        let score_stride = (w / 4).max(1);
        let mut windows = sliding_windows(series, w, score_stride);
        for win in &mut windows {
            stats::znormalize(win);
        }
        let mut train_idx: Vec<usize> = (0..windows.len()).collect();
        if train_idx.len() > self.max_windows {
            let keep_every = train_idx.len().div_ceil(self.max_windows);
            train_idx.retain(|i| i % keep_every == 0);
        }

        let hidden = (w / 2).clamp(4, 16);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut net = Seq::mlp(w, hidden, w, &mut rng);
        let mut opt = Adam::new(0.01, 1e-5);

        let batch: Vec<Vec<f32>> = train_idx
            .iter()
            .map(|&i| windows[i].iter().map(|&v| v as f32).collect())
            .collect();
        let x = Tensor::from_rows(&batch);
        for _ in 0..self.epochs {
            let y = net.forward(&x, true);
            let out = mse(&y, &x, None);
            for p in net.params_mut() {
                p.zero_grad();
            }
            let _ = net.backward(&out.grad);
            opt.step(&mut net.params_mut());
        }

        // Score every window.
        let all: Vec<Vec<f32>> = windows
            .iter()
            .map(|win| win.iter().map(|&v| v as f32).collect())
            .collect();
        let xs = Tensor::from_rows(&all);
        let recon = net.forward(&xs, false);
        let scores: Vec<f64> = (0..windows.len())
            .map(|i| {
                recon
                    .row(i)
                    .iter()
                    .zip(xs.row(i))
                    .map(|(&a, &b)| ((a - b) as f64).powi(2))
                    .sum::<f64>()
                    / w as f64
            })
            .collect();
        normalize_scores(window_scores_to_points(&scores, n, w, score_stride))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_dominant_pattern_and_flags_distortion() {
        let mut s: Vec<f64> = (0..600)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 30.0).sin())
            .collect();
        for (t, v) in s.iter_mut().enumerate().take(380).skip(350) {
            *v = ((t * t) as f64 * 0.37).sin() * 1.2; // structurally different
        }
        let scores = AutoEncoder::new(1).score(&s);
        let anom: f64 = scores[350..380].iter().cloned().fold(0.0, f64::max);
        let normal: f64 = scores[100..130].iter().cloned().fold(0.0, f64::max);
        assert!(anom > normal, "anom={anom} normal={normal}");
    }

    #[test]
    fn deterministic_per_seed() {
        let s: Vec<f64> = (0..300).map(|t| (t as f64 * 0.21).sin()).collect();
        assert_eq!(AutoEncoder::new(4).score(&s), AutoEncoder::new(4).score(&s));
    }

    #[test]
    fn short_series_zeros() {
        assert!(AutoEncoder::new(0)
            .score(&[0.0; 20])
            .iter()
            .all(|&v| v == 0.0));
    }
}
