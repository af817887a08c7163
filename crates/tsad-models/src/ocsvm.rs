//! One-class SVM via random Fourier features + linear SGD (Pegasos-style).
//!
//! The classic OCSVM fits the boundary of the normal data with an RBF
//! kernel. Kernel SMO is out of scope for this reproduction; random Fourier
//! features approximate the RBF feature map, after which the one-class
//! objective `½‖w‖² + (1/νm) Σ max(0, ρ − w·φ(x)) − ρ` is solved by SGD.
//! Documented in the README's "Substitutions" section.

use crate::common::{auto_window, normalize_scores, sliding_windows, window_scores_to_points};
use crate::{Detector, ModelId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tslinalg::stats;

/// One-class SVM detector on z-normalised windows.
#[derive(Debug, Clone)]
pub struct OcSvm {
    seed: u64,
    /// Random Fourier feature count.
    rff_dim: usize,
    /// One-class ν (expected anomaly fraction).
    nu: f64,
    epochs: usize,
    max_windows: usize,
}

impl OcSvm {
    /// Default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rff_dim: 64,
            nu: 0.1,
            epochs: 25,
            max_windows: 600,
        }
    }
}

impl Detector for OcSvm {
    fn id(&self) -> ModelId {
        ModelId::Ocsvm
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
        let mut stride = (w / 4).max(1);
        while (n - w) / stride + 1 > self.max_windows {
            stride += 1;
        }
        let mut windows = sliding_windows(series, w, stride);
        for win in &mut windows {
            stats::znormalize(win);
        }
        let m = windows.len();
        if m < 8 {
            return vec![0.0; n];
        }

        // RFF map: φ(x) = √(2/D) cos(Ωx + b), Ω ~ N(0, γ) with the median
        // heuristic for γ baked into a fixed 1/√w scale.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let d = self.rff_dim;
        let gamma = 1.0 / (w as f64).sqrt();
        let omega: Vec<Vec<f64>> = (0..d)
            .map(|_| (0..w).map(|_| gaussian(&mut rng) * gamma).collect())
            .collect();
        let offsets: Vec<f64> = (0..d)
            .map(|_| rng.random_range(0.0..2.0 * std::f64::consts::PI))
            .collect();
        let scale = (2.0 / d as f64).sqrt();
        let phi = |x: &[f64]| -> Vec<f64> {
            omega
                .iter()
                .zip(&offsets)
                .map(|(o, &b)| {
                    let dot: f64 = o.iter().zip(x).map(|(a, c)| a * c).sum();
                    scale * (dot + b).cos()
                })
                .collect()
        };
        let features: Vec<Vec<f64>> = windows.iter().map(|win| phi(win)).collect();

        // SGD on the one-class objective.
        let mut weight = vec![0.0f64; d];
        let mut rho = 0.0f64;
        let inv_nu_m = 1.0 / (self.nu * m as f64);
        let mut t = 0usize;
        let mut order: Vec<usize> = (0..m).collect();
        for _ in 0..self.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            for &i in &order {
                t += 1;
                let eta = 1.0 / (t as f64).sqrt().max(1.0);
                let f = &features[i];
                let margin: f64 = weight.iter().zip(f).map(|(a, b)| a * b).sum();
                // Regulariser gradient.
                for wv in weight.iter_mut() {
                    *wv *= 1.0 - eta;
                }
                if margin < rho {
                    for (wv, &fv) in weight.iter_mut().zip(f) {
                        *wv += eta * inv_nu_m * m as f64 * fv; // per-sample scale
                    }
                    rho -= eta * (1.0 - inv_nu_m * m as f64).min(0.0);
                    rho -= eta; // drive ρ down when samples violate
                } else {
                    rho += eta * 0.1; // grow ρ slowly when satisfied
                }
            }
        }

        // Anomaly score: ρ − w·φ(x) (outside the boundary ⇒ positive/large).
        let scores: Vec<f64> = features
            .iter()
            .map(|f| {
                let margin: f64 = weight.iter().zip(f).map(|(a, b)| a * b).sum();
                rho - margin
            })
            .collect();
        normalize_scores(window_scores_to_points(&scores, n, w, stride))
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_burst_lies_outside_normal_boundary() {
        let mut s: Vec<f64> = (0..600)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 30.0).sin())
            .collect();
        // Deterministic pseudo-noise burst.
        for (t, v) in s.iter_mut().enumerate().take(420).skip(350) {
            let r = ((t * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
            *v += r * 4.0;
        }
        let scores = OcSvm::new(1).score(&s);
        let anom: f64 = scores[350..420].iter().cloned().fold(0.0, f64::max);
        let normal: f64 = scores[100..170].iter().cloned().fold(0.0, f64::max);
        assert!(anom >= normal, "anom={anom} normal={normal}");
    }

    #[test]
    fn deterministic_per_seed() {
        let s: Vec<f64> = (0..300).map(|t| (t as f64 * 0.2).sin()).collect();
        assert_eq!(OcSvm::new(3).score(&s), OcSvm::new(3).score(&s));
    }

    #[test]
    fn short_series_zeros() {
        assert!(OcSvm::new(0).score(&[0.1; 25]).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn scores_bounded() {
        let s: Vec<f64> = (0..400).map(|t| ((t % 50) as f64 * 0.1).sin()).collect();
        let scores = OcSvm::new(5).score(&s);
        assert!(scores.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
