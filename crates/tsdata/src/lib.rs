//! Time-series containers and the synthetic TSB-UAD-like benchmark.
//!
//! The paper evaluates on 16 subsets of the TSB-UAD benchmark (Table 4).
//! Those datasets cannot be redistributed inside this offline environment, so
//! this crate generates a *synthetic stand-in benchmark* with 16 dataset
//! **families** named and parameterised after the TSB-UAD subsets: each
//! family has a characteristic base signal (ECG-like beat trains,
//! Mackey–Glass chaos, server KPIs, daily traffic pulses, …) and a
//! characteristic anomaly profile (point spikes, distorted cycles, level
//! shifts, noise bursts, flatlines, …).
//!
//! The property the model-selection experiments need — *different TSAD
//! detectors win on different data* — is preserved by construction: point
//! anomalies in noisy KPIs favour density/histogram detectors, subsequence
//! anomalies in periodic signals favour discord/pattern detectors, trend
//! breaks favour forecasting detectors, and so on. See the README's
//! "Substitutions" section for the rationale.
//!
//! Everything is deterministic given a seed.

pub mod anomaly;
pub mod benchmark;
pub mod families;
pub mod series;
pub mod signal;
pub mod stream;
pub mod windows;

pub use anomaly::{AnomalyInterval, AnomalyKind};
pub use benchmark::{Benchmark, BenchmarkConfig};
pub use families::{all_families, test_family_names, DatasetFamily};
pub use series::TimeSeries;
pub use stream::StreamWindower;
pub use windows::{extract_window_values_into, extract_windows, Window, WindowConfig};
