//! # KDSelector — knowledge-enhanced, data-efficient selector learning
//!
//! Reproduction of *KDSelector: A Knowledge-Enhanced and Data-Efficient Model
//! Selector Learning Framework for Time Series Anomaly Detection*
//! (SIGMOD-Companion 2025).
//!
//! A **selector** is a time-series classifier that maps a fixed-length window
//! to one of the 12 TSAD models in the model set; per-series selection is a
//! majority vote over window predictions. This crate implements:
//!
//! * the four NN selector architectures of the evaluation
//!   ([`arch`]: ConvNet, ResNet, InceptionTime, ConvTransformer),
//! * the **KDSelector training framework** ([`train`]) with its three
//!   plug-and-play modules —
//!   **PISL** (soft labels from detector performance, [`train::TrainConfig::pisl`]),
//!   **MKI** (InfoNCE alignment with frozen metadata embeddings,
//!   [`train::TrainConfig::mki`]), and
//!   **PA** (LSH-bucketed dynamic pruning, [`prune`]) alongside the InfoBatch
//!   baseline — layered as composable loss terms ([`train::objective`]) and
//!   resumable, checkpointable sessions ([`train::TrainSession`]) whose
//!   one training step gives bitwise-identical results at any
//!   `KD_THREADS`,
//! * the non-NN baselines ([`nonnn`]: KNN / SVC / AdaBoost / RandomForest on
//!   TSFresh-style features, MiniRocket + ridge),
//! * label generation by actually running the 12 detectors ([`labels`], with
//!   a disk cache),
//! * evaluation ([`eval`]) that scores a selector by the AUC-PR of the TSAD
//!   models it picks, per dataset — the paper's headline metric,
//! * selector management ([`manage`]: save / load / list),
//! * a thread-safe, batch-first serving layer ([`serve`]: a hot-swappable
//!   [`serve::SelectorEngine`] registry answering batched
//!   [`serve::SelectRequest`]s with structured [`serve::Selection`]s, a
//!   queued, admission-controlled front-end [`serve::ServeQueue`] that
//!   coalesces small concurrent requests, and a content-keyed LRU
//!   [`serve::WindowCache`] for repeat series),
//! * a streaming tier ([`stream`]): incremental, cache-publishing window
//!   ingestion ([`stream::StreamIngestor`]), deterministic count-windowed
//!   drift detection ([`stream::DriftMonitor`]), and a drift/quota-triggered
//!   retraining daemon ([`stream::RetrainDaemon`]) that checkpoints every
//!   epoch and hot-deploys into the serving engine — all bitwise-replayable
//!   from the append log, and
//! * an end-to-end pipeline ([`pipeline`]) used by the examples and the
//!   benchmark harness.

pub mod arch;
pub mod dataset;
pub mod eval;
mod hash;
pub mod labels;
pub mod manage;
pub mod nonnn;
pub mod pipeline;
pub mod prune;
pub mod selector;
pub mod serve;
pub mod stream;
pub mod train;

pub use arch::Architecture;
pub use dataset::SelectorDataset;
pub use eval::EvalReport;
pub use labels::PerfMatrix;
pub use prune::PruningStrategy;
pub use selector::Selector;
pub use serve::{
    FaultAction, FaultPlan, FaultPoint, FaultRule, QueueConfig, RouteError, RouteReply,
    RouterConfig, SelectRequest, Selection, SelectionTap, SelectorEngine, ServeError, ServeQueue,
    ShardedRouter, WindowCache,
};
pub use stream::{
    DaemonConfig, DaemonEvent, DriftConfig, DriftKind, DriftMonitor, DriftSignal, LabelOracle,
    MarginDriftTap, RetrainDaemon, RetrainReason, StreamIngestor,
};
pub use train::{TrainCheckpoint, TrainConfig, TrainSession, TrainStats, TrainedSelector};
