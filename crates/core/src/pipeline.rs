//! End-to-end pipeline: benchmark → labels → selector learning → evaluation.
//!
//! This is the programmatic equivalent of the demo system's workflow
//! (§4: selector learning → model selection → anomaly detection) and the
//! entry point used by the examples and the benchmark harness.

use crate::dataset::SelectorDataset;
use crate::eval::{evaluate, EvalReport};
use crate::labels::{cached_perf_matrix, default_cache_dir, PerfMatrix};
use crate::selector::{NnSelector, Selector};
use crate::train::{TrainConfig, TrainSession, TrainStats};
use std::path::PathBuf;
use tsdata::{Benchmark, BenchmarkConfig, WindowConfig};
use tstext::FrozenTextEncoder;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Synthetic benchmark parameters.
    pub benchmark: BenchmarkConfig,
    /// Window extraction parameters (shared by training and inference).
    pub window: WindowConfig,
    /// Selector training parameters.
    pub train: TrainConfig,
    /// Frozen text-encoder width (the BERT stand-in).
    pub text_dim: usize,
    /// Seed for the detectors used in label generation.
    pub detector_seed: u64,
    /// Label cache directory.
    pub cache_dir: PathBuf,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            benchmark: BenchmarkConfig::default(),
            window: WindowConfig {
                length: 64,
                stride: 64,
                znormalize: true,
            },
            train: TrainConfig::default(),
            text_dim: 256,
            detector_seed: 11,
            cache_dir: default_cache_dir(),
        }
    }
}

impl PipelineConfig {
    /// Small configuration for tests and quick demos (minutes → seconds).
    pub fn quick() -> Self {
        let mut cfg = Self {
            benchmark: BenchmarkConfig {
                train_series_per_family: 3,
                test_series_per_family: 2,
                series_length: 600,
                seed: 7,
            },
            ..Self::default()
        };
        cfg.train.epochs = 6;
        cfg.train.width = 6;
        cfg
    }
}

/// A prepared pipeline: benchmark generated, labels computed (or loaded from
/// cache), training dataset assembled.
pub struct Pipeline {
    /// Configuration used.
    pub config: PipelineConfig,
    /// The generated benchmark.
    pub benchmark: Benchmark,
    /// Train-split performance matrix (label source).
    pub train_perf: PerfMatrix,
    /// Test-split performance matrix (evaluation lookup).
    pub test_perf: PerfMatrix,
    /// Window-level training data.
    pub dataset: SelectorDataset,
}

/// Result of training + evaluating one NN selector.
pub struct TrainOutcome {
    /// The trained selector, ready for selection/detection.
    pub selector: NnSelector,
    /// Training statistics (loss curve, wall time, samples examined).
    pub stats: TrainStats,
    /// Evaluation on the test split.
    pub report: EvalReport,
}

impl Pipeline {
    /// Generates the benchmark and computes (or loads) both label matrices.
    pub fn prepare(config: PipelineConfig) -> std::io::Result<Self> {
        let benchmark = Benchmark::generate(config.benchmark);
        let fp = config.benchmark.fingerprint();
        let train_perf = cached_perf_matrix(
            &config.cache_dir,
            &format!("{fp}-train"),
            &benchmark.train,
            config.detector_seed,
        )?;
        let test_perf = cached_perf_matrix(
            &config.cache_dir,
            &format!("{fp}-test"),
            &benchmark.test,
            config.detector_seed,
        )?;
        let encoder = FrozenTextEncoder::new(config.text_dim, 0xBEB7);
        let dataset =
            SelectorDataset::build(&benchmark.train, &train_perf, config.window, &encoder);
        Ok(Self {
            config,
            benchmark,
            train_perf,
            test_perf,
            dataset,
        })
    }

    /// Trains an NN selector with the pipeline's training config.
    pub fn train_nn_selector(&self) -> TrainOutcome {
        self.train_nn_with(&self.config.train, self.config.train.arch.name())
    }

    /// Opens a training session over the pipeline's dataset — the entry
    /// point for per-epoch control, checkpoint/resume, and deployment into
    /// a live [`crate::serve::SelectorEngine`]. [`Pipeline::train_nn_with`]
    /// is the run-to-completion convenience on top of this.
    pub fn train_session(&self, cfg: &TrainConfig) -> TrainSession {
        TrainSession::new(&self.dataset, cfg)
    }

    /// Trains an NN selector with an explicit config and display label by
    /// driving a [`TrainSession`] to completion.
    pub fn train_nn_with(&self, cfg: &TrainConfig, label: &str) -> TrainOutcome {
        let mut session = self.train_session(cfg);
        session.run_to_completion(&self.dataset);
        let (model, stats) = session.finish();
        let selector = NnSelector::new(label, model, self.config.window);
        let report = evaluate(&selector, &self.benchmark.test, &self.test_perf);
        TrainOutcome {
            selector,
            stats,
            report,
        }
    }

    /// Evaluates an already-trained selector on this pipeline's test split.
    pub fn evaluate_selector(&self, selector: &dyn Selector) -> EvalReport {
        evaluate(selector, &self.benchmark.test, &self.test_perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One end-to-end smoke test at tiny scale (runs the real detectors on
    /// a handful of short series; a few seconds).
    #[test]
    fn quick_pipeline_end_to_end() {
        let mut cfg = PipelineConfig::quick();
        cfg.benchmark = BenchmarkConfig {
            train_series_per_family: 1,
            test_series_per_family: 1,
            series_length: 300,
            seed: 3,
        };
        cfg.window = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        cfg.train.epochs = 2;
        cfg.train.width = 4;
        cfg.cache_dir = std::env::temp_dir().join(format!("kdsel-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.cache_dir);

        let pipeline = Pipeline::prepare(cfg).unwrap();
        assert_eq!(pipeline.benchmark.train.len(), 16);
        assert_eq!(pipeline.benchmark.test.len(), 14);
        assert!(!pipeline.dataset.is_empty());

        let outcome = pipeline.train_nn_selector();
        assert_eq!(outcome.report.per_dataset.len(), 14);
        let avg = outcome.report.average_auc_pr();
        assert!((0.0..=1.0).contains(&avg), "avg={avg}");

        // Second prepare hits the cache and agrees.
        let pipeline2 = Pipeline::prepare(pipeline.config.clone()).unwrap();
        assert_eq!(pipeline.train_perf, pipeline2.train_perf);
        let _ = std::fs::remove_dir_all(&pipeline.config.cache_dir);
    }
}
