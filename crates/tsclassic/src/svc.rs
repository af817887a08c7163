//! Linear support-vector classifier (one-vs-rest hinge loss, SGD).
//!
//! The benchmark's SVC baseline uses a kernel SVM; this reproduction trains a
//! multi-class *linear* SVM with L2 regularisation by averaged SGD (a
//! Pegasos-style solver) on standardised features — same model family, CPU
//! budget friendly. Documented in the README's "Substitutions" section.

use crate::Classifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One-vs-rest linear SVM.
#[derive(Debug, Clone)]
pub struct LinearSvc {
    /// Per-class weight vectors (`n_classes × d`).
    weights: Vec<Vec<f64>>,
    /// Per-class biases.
    biases: Vec<f64>,
}

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// L2 regularisation strength λ.
    pub lambda: f64,
    /// Number of SGD epochs.
    pub epochs: usize,
    /// RNG seed for sample shuffling.
    pub seed: u64,
}

impl Default for SvcConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-4,
            epochs: 30,
            seed: 0,
        }
    }
}

impl LinearSvc {
    /// Trains one binary hinge-loss SVM per class.
    ///
    /// # Panics
    /// Panics on empty/ragged input.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize], cfg: SvcConfig) -> Self {
        assert!(!xs.is_empty(), "SVC needs training data");
        assert_eq!(xs.len(), ys.len(), "labels mismatch");
        let d = xs[0].len();
        let n_classes = ys.iter().copied().max().unwrap_or(0) + 1;
        let mut weights = vec![vec![0.0; d]; n_classes];
        let mut biases = vec![0.0; n_classes];
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();

        for class in 0..n_classes {
            let w = &mut weights[class];
            let b = &mut biases[class];
            let mut t = 0usize;
            for _ in 0..cfg.epochs {
                // Fisher–Yates shuffle.
                for i in (1..order.len()).rev() {
                    let j = rng.random_range(0..=i);
                    order.swap(i, j);
                }
                for &i in order.iter() {
                    t += 1;
                    let eta = 1.0 / (cfg.lambda * t as f64);
                    let y = if ys[i] == class { 1.0 } else { -1.0 };
                    let margin: f64 = w.iter().zip(&xs[i]).map(|(a, b)| a * b).sum::<f64>() + *b;
                    // L2 shrinkage.
                    let shrink = 1.0 - eta * cfg.lambda;
                    for wv in w.iter_mut() {
                        *wv *= shrink;
                    }
                    if y * margin < 1.0 {
                        for (wv, &xv) in w.iter_mut().zip(&xs[i]) {
                            *wv += eta * y * xv;
                        }
                        *b += eta * y * 0.1; // unregularised slow bias
                    }
                }
            }
        }
        Self { weights, biases }
    }

    /// Decision value for each class.
    pub fn decision_function(&self, x: &[f64]) -> Vec<f64> {
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w, &b)| w.iter().zip(x).map(|(a, c)| a * c).sum::<f64>() + b)
            .collect()
    }
}

impl Classifier for LinearSvc {
    fn predict(&self, x: &[f64]) -> usize {
        self.decision_function(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn n_classes(&self) -> usize {
        self.weights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::blobs;

    #[test]
    fn separates_linear_blobs() {
        let (xs, ys) = blobs();
        let svc = LinearSvc::fit(&xs, &ys, SvcConfig::default());
        let preds = svc.predict_batch(&xs);
        let acc = preds.iter().zip(&ys).filter(|(a, b)| a == b).count() as f64 / xs.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn decision_function_has_one_value_per_class() {
        let (xs, ys) = blobs();
        let svc = LinearSvc::fit(&xs, &ys, SvcConfig::default());
        assert_eq!(svc.decision_function(&xs[0]).len(), 3);
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (xs, ys) = blobs();
        let a = LinearSvc::fit(&xs, &ys, SvcConfig::default());
        let b = LinearSvc::fit(&xs, &ys, SvcConfig::default());
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn predicts_generalising_points() {
        let (xs, ys) = blobs();
        let svc = LinearSvc::fit(&xs, &ys, SvcConfig::default());
        assert_eq!(svc.predict(&[6.2, -0.1]), 1);
        assert_eq!(svc.predict(&[-0.2, 6.2]), 2);
    }
}
