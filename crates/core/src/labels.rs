//! Historical-data label generation.
//!
//! The "historical data" of the paper is a set of series together with the
//! detection performance of every TSAD model on each of them. This module
//! materialises it: every detector in the model set runs on every series and
//! is scored with point-wise AUC-PR against the ground truth — exactly the
//! procedure of the benchmark paper [8].
//!
//! Running 12 detectors over hundreds of series is the most expensive step
//! of every experiment, so the resulting [`PerfMatrix`] is cached on disk
//! (JSON, keyed by the benchmark fingerprint) and shared by all tables. The
//! file also records the detector seed and [`LABELS_VERSION`], and a file
//! that disagrees with either is recomputed rather than served.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use tsad_models::{default_model_set, ModelId};
use tsdata::TimeSeries;
use tsmetrics::auc_pr;

/// Version of the detectors' arithmetic behind a cached matrix. Bump it
/// whenever a change moves any detector's scores, so label files computed
/// by older code are recomputed instead of served.
///
/// 2: LSTM-AD gates on `tsnn::simd`'s owned `exp`/`sigmoid`/`tanh`.
pub const LABELS_VERSION: u32 = 2;

/// AUC-PR of every model on every series.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct PerfMatrix {
    /// Series identifiers, aligned with `rows`.
    pub series_ids: Vec<String>,
    /// `rows[series][model]` = AUC-PR of `ModelId::from_index(model)`.
    pub rows: Vec<Vec<f64>>,
}

impl PerfMatrix {
    /// Number of series.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The performance row of a series.
    pub fn row(&self, series: usize) -> &[f64] {
        &self.rows[series]
    }

    /// Hard label: the best model for a series.
    pub fn best_model(&self, series: usize) -> ModelId {
        let row = &self.rows[series];
        let best = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        ModelId::from_index(best)
    }

    /// AUC-PR achieved on a series when `model` is selected for it.
    pub fn perf_of(&self, series: usize, model: ModelId) -> f64 {
        self.rows[series][model.index()]
    }

    /// Mean AUC-PR of the oracle (always picks the best model).
    pub fn oracle_mean(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..self.len())
            .map(|i| self.perf_of(i, self.best_model(i)))
            .sum();
        total / self.len() as f64
    }
}

/// Computes the performance matrix for a set of series, running all 12
/// detectors on each. Series are scored on the shared [`tspar`] pool (one
/// task per series, dealt round-robin across all configured workers), so
/// the full model set saturates every core instead of the previous
/// hard-coded cap of 4 threads.
pub fn compute_perf_matrix(series: &[TimeSeries], seed: u64) -> PerfMatrix {
    let rows = tspar::par_map(series.len(), |i| score_series(&series[i], seed));
    PerfMatrix {
        series_ids: series.iter().map(|s| s.id.clone()).collect(),
        rows,
    }
}

/// Runs the full model set on one series and scores each with AUC-PR.
pub fn score_series(ts: &TimeSeries, seed: u64) -> Vec<f64> {
    let labels = ts.point_labels();
    default_model_set(seed)
        .iter()
        .map(|detector| {
            let scores = detector.score(&ts.values);
            if scores.len() != labels.len() {
                return 0.0;
            }
            auc_pr(&scores, &labels)
        })
        .collect()
}

/// A cached matrix with what produced it.
#[derive(Debug, Serialize, Deserialize)]
struct CachedLabels {
    /// [`LABELS_VERSION`] of the code that computed `matrix`.
    version: u32,
    /// Seed the detectors ran with.
    detector_seed: u64,
    matrix: PerfMatrix,
}

/// Loads a cached matrix or computes and stores it.
///
/// The cache key combines the benchmark fingerprint with the split name, so
/// train/test matrices of the same benchmark do not collide. A cached file
/// is served only when its series ids, detector seed and
/// [`LABELS_VERSION`] all match; any other file, including one written
/// before the seed and version were stored, is recomputed and replaced.
pub fn cached_perf_matrix(
    cache_dir: &Path,
    key: &str,
    series: &[TimeSeries],
    seed: u64,
) -> std::io::Result<PerfMatrix> {
    let path = cache_path(cache_dir, key);
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(cached) = serde_json::from_slice::<CachedLabels>(&bytes) {
            let matrix = cached.matrix;
            if cached.version == LABELS_VERSION
                && cached.detector_seed == seed
                && matrix.len() == series.len()
                && matrix
                    .series_ids
                    .iter()
                    .zip(series)
                    .all(|(id, s)| *id == s.id)
            {
                return Ok(matrix);
            }
        }
    }
    let cached = CachedLabels {
        version: LABELS_VERSION,
        detector_seed: seed,
        matrix: compute_perf_matrix(series, seed),
    };
    std::fs::create_dir_all(cache_dir)?;
    std::fs::write(&path, serde_json::to_vec(&cached)?)?;
    Ok(cached.matrix)
}

fn cache_path(cache_dir: &Path, key: &str) -> PathBuf {
    cache_dir.join(format!("{key}.json"))
}

/// Default on-disk cache directory (under `target/` so `cargo clean` clears
/// it). Overridable with the `KDSEL_CACHE_DIR` environment variable.
pub fn default_cache_dir() -> PathBuf {
    // kdlint: allow(env-knob): a path — where cached labels live, not how
    // they are computed (a file is served only if its seed and version
    // match).
    if let Ok(dir) = std::env::var("KDSEL_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from("target/kdsel-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdata::{Benchmark, BenchmarkConfig};

    fn tiny_series() -> Vec<TimeSeries> {
        let mut cfg = BenchmarkConfig::tiny();
        cfg.series_length = 300;
        let b = Benchmark::generate(cfg);
        b.train.into_iter().take(3).collect()
    }

    #[test]
    fn perf_matrix_has_twelve_columns_of_valid_aucs() {
        let series = tiny_series();
        let m = compute_perf_matrix(&series, 1);
        assert_eq!(m.len(), 3);
        for row in &m.rows {
            assert_eq!(row.len(), 12);
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)), "{row:?}");
        }
    }

    #[test]
    fn best_model_is_argmax() {
        let m = PerfMatrix {
            series_ids: vec!["a".into()],
            rows: vec![vec![
                0.1, 0.9, 0.2, 0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            ]],
        };
        assert_eq!(m.best_model(0), ModelId::IForest1);
        assert!((m.perf_of(0, ModelId::IForest1) - 0.9).abs() < 1e-12);
        assert!((m.oracle_mean() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cache_round_trips_and_validates_ids() {
        let series = tiny_series();
        let dir = std::env::temp_dir().join(format!("kdsel-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = cached_perf_matrix(&dir, "t1", &series, 1).unwrap();
        // Second call must hit the cache and agree exactly.
        let b = cached_perf_matrix(&dir, "t1", &series, 1).unwrap();
        assert_eq!(a, b);
        // A different series set under the same key recomputes.
        let other = vec![series[0].clone()];
        let c = cached_perf_matrix(&dir, "t1", &other, 1).unwrap();
        assert_eq!(c.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stale file under the right key — other detector seed, older
    /// labels version, or the bare matrix older code wrote — is recomputed,
    /// not served.
    #[test]
    fn cache_recomputes_on_seed_or_version_mismatch() {
        let series = tiny_series();
        let dir = std::env::temp_dir().join(format!("kdsel-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = |seed| compute_perf_matrix(&series, seed);
        // A planted file whose rows say "stale": served only by a bug.
        let plant = |version: u32, seed: u64| {
            let mut matrix = fresh(seed);
            for row in &mut matrix.rows {
                row.fill(-1.0);
            }
            let cached = CachedLabels {
                version,
                detector_seed: seed,
                matrix,
            };
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(cache_path(&dir, "k"), serde_json::to_vec(&cached).unwrap()).unwrap();
        };

        plant(LABELS_VERSION, 1);
        assert_eq!(cached_perf_matrix(&dir, "k", &series, 2).unwrap(), fresh(2));
        plant(LABELS_VERSION - 1, 1);
        assert_eq!(cached_perf_matrix(&dir, "k", &series, 1).unwrap(), fresh(1));
        let mut bare = fresh(1);
        bare.rows[0][0] = -1.0;
        std::fs::write(cache_path(&dir, "k"), serde_json::to_vec(&bare).unwrap()).unwrap();
        assert_eq!(cached_perf_matrix(&dir, "k", &series, 1).unwrap(), fresh(1));
        // A matching file is served as stored.
        plant(LABELS_VERSION, 1);
        let served = cached_perf_matrix(&dir, "k", &series, 1).unwrap();
        assert!(served.rows.iter().flatten().all(|&v| v == -1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let series = tiny_series();
        let parallel = compute_perf_matrix(&series, 2);
        let serial: Vec<Vec<f64>> = series.iter().map(|ts| score_series(ts, 2)).collect();
        assert_eq!(parallel.rows, serial);
    }
}
