//! CNN forecaster: convolutional next-point prediction.

use crate::common::normalize_scores;
use crate::{Detector, ModelId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tslinalg::stats;
use tsnn::layers::{Conv1d, Layer, Linear, MaxPool1d, Relu, Reshape, Seq};
use tsnn::loss::mse;
use tsnn::optim::Adam;
use tsnn::Tensor;

/// CNN detector: a small conv net consumes the previous `history` points and
/// predicts the next one; squared prediction error is the anomaly score.
#[derive(Debug, Clone)]
pub struct CnnForecaster {
    seed: u64,
    history: usize,
    channels: usize,
    epochs: usize,
    max_train_pairs: usize,
}

impl CnnForecaster {
    /// Default configuration.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            history: 24,
            channels: 8,
            epochs: 20,
            max_train_pairs: 200,
        }
    }
}

impl Detector for CnnForecaster {
    fn id(&self) -> ModelId {
        ModelId::Cnn
    }

    fn score(&self, series: &[f64]) -> Vec<f64> {
        let n = series.len();
        let p = self.history;
        if n < 2 * p + 4 {
            return vec![0.0; n];
        }
        let mut values: Vec<f64> = series.to_vec();
        stats::znormalize(&mut values);
        let values: Vec<f32> = values.iter().map(|&v| v as f32).collect();

        let all_targets: Vec<usize> = (p..n).collect();
        let step = all_targets.len().div_ceil(self.max_train_pairs).max(1);
        let train_targets: Vec<usize> = all_targets.iter().copied().step_by(step).collect();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let flat = self.channels * (p / 2);
        let mut net = Seq::new()
            .then(Conv1d::new(1, self.channels, 5, &mut rng))
            .then(Relu::new())
            .then(MaxPool1d::new(2))
            .then(Reshape::new(&[flat]))
            .then(Linear::new(flat, 1, &mut rng));
        let mut opt = Adam::new(0.01, 1e-5);

        let make_batch = |targets: &[usize]| -> (Tensor, Tensor) {
            let mut xs = Vec::with_capacity(targets.len() * p);
            let mut ys = Vec::with_capacity(targets.len());
            for &t in targets {
                xs.extend_from_slice(&values[t - p..t]);
                ys.push(values[t]);
            }
            (
                Tensor::from_vec(&[targets.len(), 1, p], xs),
                Tensor::from_vec(&[targets.len(), 1], ys),
            )
        };

        let (x_train, y_train) = make_batch(&train_targets);
        for _ in 0..self.epochs {
            let pred = net.forward(&x_train, true);
            let out = mse(&pred, &y_train, None);
            net.for_each_param_mut(&mut |p| p.zero_grad());
            let _ = net.backward(&out.grad);
            opt.step_with(|f| net.for_each_param_mut(f));
        }

        let mut errors = vec![0.0f64; n];
        let chunk = 256;
        let mut t0 = p;
        while t0 < n {
            let t1 = (t0 + chunk).min(n);
            let targets: Vec<usize> = (t0..t1).collect();
            let (x, y) = make_batch(&targets);
            let pred = net.forward(&x, false);
            for (i, &t) in targets.iter().enumerate() {
                let e = (pred.row(i)[0] - y.row(i)[0]) as f64;
                errors[t] = e * e;
            }
            t0 = t1;
        }
        let head = errors[p];
        for e in errors.iter_mut().take(p) {
            *e = head;
        }
        normalize_scores(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_frequency_shift() {
        let mut s: Vec<f64> = (0..500)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 25.0).sin())
            .collect();
        for (t, v) in s.iter_mut().enumerate().take(350).skip(300) {
            *v = (2.0 * std::f64::consts::PI * t as f64 / 7.0).sin();
        }
        let scores = CnnForecaster::new(1).score(&s);
        let anom: f64 = scores[300..352].iter().cloned().fold(0.0, f64::max);
        let normal: f64 = scores[100..150].iter().cloned().fold(0.0, f64::max);
        assert!(anom > normal, "anom={anom} normal={normal}");
    }

    #[test]
    fn deterministic_per_seed() {
        let s: Vec<f64> = (0..200).map(|t| (t as f64 * 0.3).cos()).collect();
        assert_eq!(
            CnnForecaster::new(2).score(&s),
            CnnForecaster::new(2).score(&s)
        );
    }

    #[test]
    fn short_series_zeros() {
        assert!(CnnForecaster::new(0)
            .score(&[0.5; 40])
            .iter()
            .all(|&v| v == 0.0));
    }
}
