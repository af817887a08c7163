//! Window-level training data for selector learning.

use crate::labels::PerfMatrix;
use tsdata::families::family_by_name;
use tsdata::{extract_windows, TimeSeries, WindowConfig};
use tstext::{render_metadata, FrozenTextEncoder, SeriesMetadata};

/// The selector's training set: z-normalised windows with hard labels (best
/// model of the source series), the full per-model performance row (the PISL
/// soft-label source) and the frozen metadata embedding (the MKI knowledge
/// feature).
#[derive(Debug, Clone)]
pub struct SelectorDataset {
    /// Window values, each of length `window_cfg.length`.
    pub windows: Vec<Vec<f32>>,
    /// Source series of each window.
    pub series_index: Vec<usize>,
    /// Hard class label per window (index into `ModelId::ALL`).
    pub hard_labels: Vec<usize>,
    /// Per-series AUC-PR rows (12 columns).
    pub series_perf: Vec<Vec<f64>>,
    /// Per-series frozen metadata embeddings.
    pub series_knowledge: Vec<Vec<f32>>,
    /// Window extraction parameters.
    pub window_cfg: WindowConfig,
    /// Text-embedding width.
    pub text_dim: usize,
}

impl SelectorDataset {
    /// Builds the dataset from labeled series.
    ///
    /// # Panics
    /// Panics if `perf.len() != series.len()`.
    pub fn build(
        series: &[TimeSeries],
        perf: &PerfMatrix,
        window_cfg: WindowConfig,
        text_encoder: &FrozenTextEncoder,
    ) -> Self {
        assert_eq!(
            perf.len(),
            series.len(),
            "perf matrix must cover all series"
        );
        let mut windows = Vec::new();
        let mut series_index = Vec::new();
        let mut hard_labels = Vec::new();
        let mut series_perf = Vec::with_capacity(series.len());
        let mut series_knowledge = Vec::with_capacity(series.len());
        for (si, ts) in series.iter().enumerate() {
            let label = perf.best_model(si).index();
            series_perf.push(perf.row(si).to_vec());
            series_knowledge.push(text_encoder.encode(&metadata_text(ts)));
            for w in extract_windows(ts, si, &window_cfg) {
                windows.push(w.values);
                series_index.push(si);
                hard_labels.push(label);
            }
        }
        Self {
            windows,
            series_index,
            hard_labels,
            series_perf,
            series_knowledge,
            window_cfg,
            text_dim: text_encoder.dim(),
        }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of source series.
    pub fn n_series(&self) -> usize {
        self.series_perf.len()
    }

    /// The PISL soft label of a window: `softmax(perf / t_soft)` over the 12
    /// models of its source series.
    pub fn soft_label(&self, window: usize, t_soft: f64) -> Vec<f32> {
        softmax_scaled(&self.series_perf[self.series_index[window]], t_soft)
    }

    /// The knowledge feature of a window (its series' metadata embedding).
    pub fn knowledge(&self, window: usize) -> &[f32] {
        &self.series_knowledge[self.series_index[window]]
    }

    /// The LSH input of a sample: window values, concatenated with the
    /// knowledge feature when MKI is active (`X_i = {T_i, z_K,i}` in §3).
    pub fn lsh_input(&self, window: usize, with_knowledge: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self.windows[window].iter().map(|&x| x as f64).collect();
        if with_knowledge {
            v.extend(self.knowledge(window).iter().map(|&x| x as f64));
        }
        v
    }

    /// A 64-bit FNV-1a content fingerprint of the training set: window
    /// config, every window's raw bits, labels, series mapping,
    /// performance rows and knowledge embeddings. Training checkpoints
    /// store this so resuming over a *different* dataset — even one with
    /// the same window count — is a hard error instead of a silently
    /// corrupted continuation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::FNV_OFFSET;
        let mut mix = |v: u64| crate::hash::fnv1a_mix(&mut h, v);
        mix(self.window_cfg.length as u64);
        mix(self.window_cfg.stride as u64);
        mix(self.window_cfg.znormalize as u64);
        mix(self.text_dim as u64);
        mix(self.windows.len() as u64);
        for ((w, &si), &label) in self
            .windows
            .iter()
            .zip(&self.series_index)
            .zip(&self.hard_labels)
        {
            mix(si as u64);
            mix(label as u64);
            for &x in w {
                mix(u64::from(x.to_bits()));
            }
        }
        for (perf, know) in self.series_perf.iter().zip(&self.series_knowledge) {
            for &p in perf {
                mix(p.to_bits());
            }
            for &k in know {
                mix(u64::from(k.to_bits()));
            }
        }
        h
    }
}

/// Renders the paper's metadata template for a series, pulling the domain
/// description from its dataset family.
pub fn metadata_text(ts: &TimeSeries) -> String {
    let description = family_by_name(&ts.dataset)
        .map(|f| f.description.to_string())
        .unwrap_or_else(|| "a time series dataset".to_string());
    render_metadata(&SeriesMetadata {
        dataset_name: ts.dataset.clone(),
        domain_description: description,
        series_length: ts.len(),
        anomaly_lengths: ts.anomaly_lengths(),
    })
}

/// `softmax(row / t)` in f32 (the PISL soft label of one series).
///
/// # Panics
/// Panics if `t` is not positive.
pub(crate) fn softmax_scaled(row: &[f64], t: f64) -> Vec<f32> {
    assert!(t > 0.0, "temperature must be positive");
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = row.iter().map(|&v| ((v - max) / t).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| (e / sum) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::{Benchmark, BenchmarkConfig};

    fn toy() -> (Vec<TimeSeries>, PerfMatrix) {
        let mut cfg = BenchmarkConfig::tiny();
        cfg.series_length = 320;
        let b = Benchmark::generate(cfg);
        let series: Vec<TimeSeries> = b.train.into_iter().take(4).collect();
        // Synthetic perf rows avoid running detectors in unit tests.
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..12).map(|m| if m == i { 0.9 } else { 0.1 }).collect())
            .collect();
        let perf = PerfMatrix {
            series_ids: series.iter().map(|s| s.id.clone()).collect(),
            rows,
        };
        (series, perf)
    }

    #[test]
    fn windows_inherit_series_labels() {
        let (series, perf) = toy();
        let enc = FrozenTextEncoder::new(64, 0);
        let ds = SelectorDataset::build(&series, &perf, WindowConfig::default(), &enc);
        assert!(!ds.is_empty());
        for i in 0..ds.len() {
            assert_eq!(ds.hard_labels[i], ds.series_index[i]);
            assert_eq!(ds.windows[i].len(), 64);
        }
        assert_eq!(ds.n_series(), 4);
    }

    #[test]
    fn soft_labels_are_distributions_favouring_the_best() {
        let (series, perf) = toy();
        let enc = FrozenTextEncoder::new(64, 0);
        let ds = SelectorDataset::build(&series, &perf, WindowConfig::default(), &enc);
        let p = ds.soft_label(0, 0.25);
        assert_eq!(p.len(), 12);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        let best = ds.hard_labels[0];
        assert!(p[best] > 0.5, "best-model probability {}", p[best]);
    }

    #[test]
    fn lower_temperature_sharpens_soft_labels() {
        let (series, perf) = toy();
        let enc = FrozenTextEncoder::new(64, 0);
        let ds = SelectorDataset::build(&series, &perf, WindowConfig::default(), &enc);
        let sharp = ds.soft_label(0, 0.1);
        let smooth = ds.soft_label(0, 2.0);
        let best = ds.hard_labels[0];
        assert!(sharp[best] > smooth[best]);
    }

    #[test]
    fn knowledge_is_shared_within_a_series() {
        let (series, perf) = toy();
        let enc = FrozenTextEncoder::new(64, 0);
        let ds = SelectorDataset::build(&series, &perf, WindowConfig::default(), &enc);
        let same_series: Vec<usize> = (0..ds.len()).filter(|&i| ds.series_index[i] == 0).collect();
        assert!(same_series.len() >= 2);
        assert_eq!(ds.knowledge(same_series[0]), ds.knowledge(same_series[1]));
    }

    #[test]
    fn lsh_input_concatenates_knowledge() {
        let (series, perf) = toy();
        let enc = FrozenTextEncoder::new(32, 0);
        let ds = SelectorDataset::build(&series, &perf, WindowConfig::default(), &enc);
        assert_eq!(ds.lsh_input(0, false).len(), 64);
        assert_eq!(ds.lsh_input(0, true).len(), 64 + 32);
    }

    #[test]
    fn metadata_text_contains_family_description() {
        let (series, _) = toy();
        let text = metadata_text(&series[0]);
        assert!(text.contains(&series[0].dataset));
        assert!(text.contains("anomalies in this series"));
    }
}
