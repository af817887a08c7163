//! Shared harness for the table/figure reproductions.
//!
//! Every bench target (`cargo bench -p kdselector-bench`) regenerates one
//! table or figure of the paper. They share:
//!
//! * a scale switch (`KDSEL_SCALE` = `quick` | `default` | `paper`) that
//!   sizes the synthetic benchmark and the training budget,
//! * one disk-cached label matrix per scale (the 12 detectors run once), and
//! * table-printing and result-recording helpers (results land in
//!   `target/kdsel-results/*.json`, one file per table or figure).

use kdselector_core::eval::EvalReport;
use kdselector_core::pipeline::{Pipeline, PipelineConfig};
use kdselector_core::train::TrainConfig;
use std::io::Write as _;
use std::path::PathBuf;
use tsdata::{BenchmarkConfig, WindowConfig};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run.
    Quick,
    /// Minutes-scale default, the scale the paper-table reproductions are
    /// meant to be read at.
    Default,
    /// Larger run closer to the paper's data volume.
    Paper,
}

impl Scale {
    /// Reads `KDSEL_SCALE` (defaults to `default`).
    pub fn from_env() -> Self {
        match std::env::var("KDSEL_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    /// The pipeline configuration for this scale.
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig {
            window: WindowConfig {
                length: 64,
                stride: 64,
                znormalize: true,
            },
            ..PipelineConfig::default()
        };
        match self {
            Scale::Quick => {
                cfg.benchmark = BenchmarkConfig {
                    train_series_per_family: 3,
                    test_series_per_family: 2,
                    series_length: 800,
                    seed: 7,
                };
                cfg.train = TrainConfig {
                    epochs: 6,
                    width: 6,
                    ..TrainConfig::default()
                };
            }
            Scale::Default => {
                cfg.benchmark = BenchmarkConfig {
                    train_series_per_family: 10,
                    test_series_per_family: 5,
                    series_length: 1200,
                    seed: 7,
                };
                cfg.train = TrainConfig {
                    epochs: 10,
                    width: 8,
                    ..TrainConfig::default()
                };
            }
            Scale::Paper => {
                cfg.benchmark = BenchmarkConfig {
                    train_series_per_family: 16,
                    test_series_per_family: 8,
                    series_length: 1600,
                    seed: 7,
                };
                cfg.train = TrainConfig {
                    epochs: 12,
                    width: 10,
                    ..TrainConfig::default()
                };
            }
        }
        cfg
    }

    /// Prepares the pipeline (labels come from the shared cache).
    pub fn prepare(&self) -> Pipeline {
        let cfg = self.pipeline_config();
        eprintln!(
            "[kdsel] scale={self:?} families=16 train-series={} test-series={} (label cache: {})",
            cfg.benchmark.train_series_per_family * 16,
            cfg.benchmark.test_series_per_family * 14,
            cfg.cache_dir.display()
        );
        let t0 = std::time::Instant::now();
        let pipeline = Pipeline::prepare(cfg).expect("pipeline preparation");
        eprintln!("[kdsel] labels ready in {:.1}s", t0.elapsed().as_secs_f64());
        pipeline
    }
}

/// Pretty-prints a per-dataset AUC-PR table: one row per dataset, one column
/// per method, plus average and (optional) training-time rows.
pub fn print_table(
    title: &str,
    methods: &[String],
    reports: &[&EvalReport],
    times_seconds: Option<&[f64]>,
) {
    println!("\n=== {title} ===");
    let datasets: Vec<&str> = reports[0]
        .per_dataset
        .iter()
        .map(|(d, _)| d.as_str())
        .collect();
    print!("{:<14}", "Dataset");
    for m in methods {
        print!("{m:>15}");
    }
    println!();
    for (di, ds) in datasets.iter().enumerate() {
        print!("{ds:<14}");
        for r in reports {
            print!("{:>15.4}", r.per_dataset[di].1);
        }
        println!();
    }
    print!("{:<14}", "Average");
    for r in reports {
        print!("{:>15.4}", r.average_auc_pr());
    }
    println!();
    if let Some(times) = times_seconds {
        print!("{:<14}", "Time (s)");
        for t in times {
            print!("{t:>15.2}");
        }
        println!();
    }
}

/// Where bench results are recorded (`target/kdsel-results`).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("target/kdsel-results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Records a result table as JSON (best-effort; failures only warn).
pub fn record_result(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(
                f,
                "{}",
                serde_json::to_string_pretty(value).unwrap_or_default()
            );
            eprintln!("[kdsel] recorded {}", path.display());
        }
        Err(e) => eprintln!("[kdsel] could not record {name}: {e}"),
    }
}

/// Serialises a report into the JSON result format.
pub fn report_json(report: &EvalReport, seconds: f64) -> serde_json::Value {
    serde_json::json!({
        "selector": report.selector,
        "per_dataset": report.per_dataset,
        "average_auc_pr": report.average_auc_pr(),
        "train_seconds": seconds,
    })
}
