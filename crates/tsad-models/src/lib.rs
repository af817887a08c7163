//! The 12 TSAD models of the paper's model set (Table 5).
//!
//! Every detector consumes a univariate series and emits one anomaly score
//! per point (higher = more anomalous), min–max scaled to `[0, 1]` — the
//! TSB-UAD convention. The set mirrors Table 5:
//!
//! | Model | Mechanism |
//! |---|---|
//! | IForest | isolation forest on sliding windows |
//! | IForest1 | isolation forest on individual points |
//! | LOF | local outlier factor on windows |
//! | HBOS | histogram-based outlier score |
//! | MP | matrix profile (1-NN discord distance) |
//! | NORMA | clustering-based normal pattern + distance |
//! | PCA | projection reconstruction error |
//! | AE | MLP autoencoder reconstruction error |
//! | LSTM-AD | LSTM next-point forecasting error |
//! | POLY | polynomial extrapolation error |
//! | CNN | convolutional next-point forecasting error |
//! | OCSVM | one-class SVM boundary distance (RFF + linear, see README "Substitutions") |
//!
//! All detectors are deterministic given their seed.

pub mod ae;
pub mod cnn;
pub mod common;
pub mod hbos;
pub mod iforest;
pub mod lof;
pub mod lstm_ad;
pub mod mp;
pub mod norma;
pub mod ocsvm;
pub mod pca_detector;
pub mod poly;

use std::fmt;

/// Identifier of a TSAD model in the model set. Order matches the paper's
/// Table 5 and is the class order used by every selector.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum ModelId {
    /// Isolation forest on windows.
    IForest,
    /// Isolation forest on points.
    IForest1,
    /// Local outlier factor.
    Lof,
    /// Histogram-based outlier score.
    Hbos,
    /// Matrix profile.
    Mp,
    /// Normal-pattern clustering.
    Norma,
    /// PCA reconstruction.
    Pca,
    /// Autoencoder.
    Ae,
    /// LSTM forecasting.
    LstmAd,
    /// Polynomial extrapolation.
    Poly,
    /// CNN forecasting.
    Cnn,
    /// One-class SVM.
    Ocsvm,
}

impl ModelId {
    /// All 12 models in canonical order.
    pub const ALL: [ModelId; 12] = [
        ModelId::IForest,
        ModelId::IForest1,
        ModelId::Lof,
        ModelId::Hbos,
        ModelId::Mp,
        ModelId::Norma,
        ModelId::Pca,
        ModelId::Ae,
        ModelId::LstmAd,
        ModelId::Poly,
        ModelId::Cnn,
        ModelId::Ocsvm,
    ];

    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::IForest => "IForest",
            ModelId::IForest1 => "IForest1",
            ModelId::Lof => "LOF",
            ModelId::Hbos => "HBOS",
            ModelId::Mp => "MP",
            ModelId::Norma => "NORMA",
            ModelId::Pca => "PCA",
            ModelId::Ae => "AE",
            ModelId::LstmAd => "LSTM-AD",
            ModelId::Poly => "POLY",
            ModelId::Cnn => "CNN",
            ModelId::Ocsvm => "OCSVM",
        }
    }

    /// Index in [`ModelId::ALL`] (the selector class id).
    pub fn index(&self) -> usize {
        Self::ALL
            .iter()
            .position(|m| m == self)
            .expect("all ids enumerated")
    }

    /// Inverse of [`ModelId::index`].
    ///
    /// # Panics
    /// Panics if `index >= 12`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A time-series anomaly detector: scores every point of a series.
pub trait Detector: Send {
    /// Which model this is.
    fn id(&self) -> ModelId;

    /// Per-point anomaly scores in `[0, 1]`, same length as the input.
    ///
    /// Implementations must return all-zero scores (not panic) for series
    /// too short to process.
    fn score(&self, series: &[f64]) -> Vec<f64>;
}

/// Builds the full 12-model set with default parameters.
///
/// `seed` drives every stochastic component (forest sampling, NN init, …) so
/// label generation is reproducible.
pub fn default_model_set(seed: u64) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(iforest::IForest::windows(seed)),
        Box::new(iforest::IForest::points(seed ^ 1)),
        Box::new(lof::Lof::default_config()),
        Box::new(hbos::Hbos::default_config()),
        Box::new(mp::MatrixProfile::default_config()),
        Box::new(norma::Norma::new(seed ^ 2)),
        Box::new(pca_detector::PcaDetector::default_config()),
        Box::new(ae::AutoEncoder::new(seed ^ 3)),
        Box::new(lstm_ad::LstmAd::new(seed ^ 4)),
        Box::new(poly::Poly::default_config()),
        Box::new(cnn::CnnForecaster::new(seed ^ 5)),
        Box::new(ocsvm::OcSvm::new(seed ^ 6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_models_in_canonical_order() {
        let set = default_model_set(7);
        assert_eq!(set.len(), 12);
        for (i, d) in set.iter().enumerate() {
            assert_eq!(d.id().index(), i);
        }
    }

    #[test]
    fn model_id_round_trips() {
        for id in ModelId::ALL {
            assert_eq!(ModelId::from_index(id.index()), id);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> = ModelId::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 12);
    }
}
