//! The KDSelector trainer: composable objectives, resumable sessions, and
//! deterministic data-parallel gradient accumulation.
//!
//! The trainer is layered (mirroring what [`crate::serve`] does for the
//! serving side):
//!
//! * [`objective`] — the loss terms behind one [`objective::LossTerm`]
//!   trait: hard cross-entropy, **PISL** (`α · L_PISL` against
//!   `softmax(P(M_j(T_i)) / t_soft)` soft labels, hard term scaled by
//!   `1 − α`), and **MKI** (`λ · L_InfoNCE(h_T(z_T), h_K(z_K))` with frozen
//!   metadata embeddings and trainable MLP projections), composed into an
//!   [`objective::Objective`] that owns logit/feature gradient
//!   accumulation.
//! * [`session`] — [`session::TrainSession`]: owns the model components,
//!   the optimizer, the pruning state ([`crate::prune::PruneState`], the
//!   **PA / InfoBatch** module) and per-epoch RNG streams. Runs epoch by
//!   epoch, snapshots epoch-boundary checkpoints through a
//!   [`crate::manage::SelectorStore`], and resumes from a checkpoint with
//!   bitwise-identical continuation.
//! * [`dp`] — data-parallel gradient accumulation: the minibatch is split
//!   into fixed micro-partitions, each replica runs forward/backward on
//!   its own model clone on [`tspar`]'s worker pool, and gradients are
//!   reduced in partition order — results depend on the replica count but
//!   **never** on `KD_THREADS`.
//!
//! [`train`] is the one-call convenience wrapper: build a session, run all
//! epochs, return the [`TrainedSelector`] and [`TrainStats`]. The session
//! API is the entry point for everything richer — per-epoch control,
//! checkpoint/resume, and live deployment via
//! [`crate::serve::SelectorEngine::deploy`].
//!
//! The trainer reports wall-clock training time and per-epoch sample
//! counts, which the benchmark harness uses to reproduce the paper's time
//! columns (and the `micro_kernels` "train" record uses for windows/sec).

pub mod dp;
pub mod objective;
pub mod session;

#[cfg(test)]
pub(crate) mod testutil {
    //! The shared in-crate training-test fixture (one builder instead of a
    //! copy per test module).

    use crate::dataset::SelectorDataset;
    use crate::labels::PerfMatrix;
    use tsdata::{Benchmark, BenchmarkConfig, WindowConfig};
    use tstext::FrozenTextEncoder;

    /// Synthetic-label dataset (no detector runs): the first `n_series`
    /// tiny-benchmark series of 256 points, window 32/32, and perf rows
    /// peaking at model `best(i)` for series `i`.
    pub(crate) fn toy_dataset(
        n_series: usize,
        text_dim: usize,
        best: impl Fn(usize) -> usize,
    ) -> SelectorDataset {
        let mut cfg = BenchmarkConfig::tiny();
        cfg.series_length = 256;
        let b = Benchmark::generate(cfg);
        let series: Vec<_> = b.train.into_iter().take(n_series).collect();
        let rows: Vec<Vec<f64>> = (0..n_series)
            .map(|i| {
                (0..12)
                    .map(|m| if m == best(i) { 0.8 } else { 0.1 })
                    .collect()
            })
            .collect();
        let perf = PerfMatrix {
            series_ids: series.iter().map(|s| s.id.clone()).collect(),
            rows,
        };
        let enc = FrozenTextEncoder::new(text_dim, 0);
        let wc = WindowConfig {
            length: 32,
            stride: 32,
            znormalize: true,
        };
        SelectorDataset::build(&series, &perf, wc, &enc)
    }
}

pub use objective::{BatchContext, LazyGrad, LossTerm, Objective, ObjectiveOutput, TermOutput};
pub use session::{EpochReport, TrainCheckpoint, TrainSession};

use crate::arch::Architecture;
use crate::dataset::SelectorDataset;
use crate::prune::PruningStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsad_models::ModelId;
use tsnn::layers::{Layer, Linear, Seq};
use tsnn::Tensor;

/// PISL hyperparameters (§3, Table of §B.1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PislConfig {
    /// Relative importance of the soft label, `α ∈ [0, 1]`.
    pub alpha: f32,
    /// Soft-label temperature `t_soft`.
    pub t_soft: f64,
}

impl Default for PislConfig {
    fn default() -> Self {
        Self {
            alpha: 0.4,
            t_soft: 0.25,
        }
    }
}

/// MKI hyperparameters (§3, §B.1).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MkiConfig {
    /// Weight `λ` of the InfoNCE term.
    pub lambda: f32,
    /// Shared projection dimension `H`.
    pub proj_dim: usize,
    /// Hidden width of the projection MLPs.
    pub hidden: usize,
    /// InfoNCE temperature.
    pub temperature: f32,
}

impl Default for MkiConfig {
    fn default() -> Self {
        // λ = 1.0 is the paper's selected value (it picks λ ∈ {0.78, 1.0}).
        // On this reproduction's deliberately small encoders MKI is
        // neutral-to-negative at any λ we tried (1.0 and 0.3 were both
        // run through the Table 1 bench; no quality record is committed
        // yet) — the default stays paper-faithful rather than tuned to our
        // substrate.
        Self {
            lambda: 1.0,
            proj_dim: 64,
            hidden: 256,
            temperature: 0.1,
        }
    }
}

/// Full training configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainConfig {
    /// Selector architecture.
    pub arch: Architecture,
    /// Base channel width of the encoder.
    pub width: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Global gradient-norm clip (the §A.1 boundedness assumption).
    pub grad_clip: f64,
    /// Weight decay (the §A.1 strong-convexity device).
    pub weight_decay: f32,
    /// Seed for init, shuffling and pruning randomness.
    pub seed: u64,
    /// Data-parallel replica count ([`dp`]). Each minibatch is split into
    /// this many **fixed** micro-partitions; every replica runs
    /// forward/backward on its own model clone and gradients are reduced
    /// in partition order. Results depend on this value (micro-batch
    /// normalisation and contrastive statistics) but never on
    /// `KD_THREADS`. `1` (the default) trains on the session's master
    /// model directly, with no cloning.
    pub replicas: usize,
    /// PISL module (None = hard labels only).
    pub pisl: Option<PislConfig>,
    /// MKI module (None = no knowledge integration).
    pub mki: Option<MkiConfig>,
    /// Pruning strategy.
    pub pruning: PruningStrategy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            arch: Architecture::ResNet,
            width: 8,
            epochs: 10,
            batch_size: 64,
            lr: 3e-3,
            grad_clip: 5.0,
            weight_decay: 1e-4,
            seed: 7,
            replicas: 1,
            pisl: None,
            mki: None,
            pruning: PruningStrategy::None,
        }
    }
}

impl TrainConfig {
    /// The full KDSelector configuration: PISL + MKI + PA with the paper's
    /// defaults.
    pub fn kdselector(arch: Architecture) -> Self {
        Self {
            arch,
            pisl: Some(PislConfig::default()),
            mki: Some(MkiConfig::default()),
            pruning: PruningStrategy::pa_default(),
            ..Self::default()
        }
    }

    /// Knowledge-enhanced but unpruned (the accuracy-comparison setting the
    /// paper uses for Table 1, Fig. 4 and the AUC-PR columns of Table 3).
    pub fn knowledge_enhanced(arch: Architecture) -> Self {
        Self {
            arch,
            pisl: Some(PislConfig::default()),
            mki: Some(MkiConfig::default()),
            pruning: PruningStrategy::None,
            ..Self::default()
        }
    }
}

/// Per-training-run statistics.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainStats {
    /// Mean combined loss per epoch.
    pub epoch_loss: Vec<f64>,
    /// Training accuracy (hard label) per epoch.
    pub epoch_accuracy: Vec<f64>,
    /// Samples examined per epoch (pruning shrinks this).
    pub epoch_examined: Vec<usize>,
    /// Wall-clock training seconds (includes LSH setup for PA). The one
    /// field outside the determinism contract: a resumed session reports
    /// its own wall clock, everything else is bitwise-reproducible.
    pub train_seconds: f64,
    /// Total number of windows in the training set.
    pub total_windows: usize,
}

impl TrainStats {
    /// Fraction of sample visits saved relative to full-data training.
    pub fn examined_fraction(&self) -> f64 {
        if self.total_windows == 0 || self.epoch_examined.is_empty() {
            return 1.0;
        }
        let visited: usize = self.epoch_examined.iter().sum();
        visited as f64 / (self.total_windows * self.epoch_examined.len()) as f64
    }
}

/// A trained NN selector: encoder + linear classifier.
pub struct TrainedSelector {
    /// Architecture used.
    pub arch: Architecture,
    /// Window length the selector expects.
    pub window: usize,
    /// Encoder width.
    pub width: usize,
    /// Seed used at build time (needed to rebuild for weight loading).
    pub seed: u64,
    pub(crate) encoder: Seq,
    pub(crate) classifier: Linear,
    /// Lazily pre-packed classifier weight panels: the serving hot path
    /// multiplies against the same (frozen) weights every batch, so the
    /// GEMM packing step runs once instead of per chunk. Invalidated
    /// whenever the parameters are handed out mutably.
    packed_classifier: std::sync::OnceLock<tsnn::gemm::PackedB>,
}

impl TrainedSelector {
    /// Builds an untrained selector (used by the loader).
    pub fn build(arch: Architecture, window: usize, width: usize, seed: u64) -> Self {
        let encoder = arch.build(window, width, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5);
        let classifier = Linear::new(arch.feature_dim(width), ModelId::ALL.len(), &mut rng);
        Self::from_parts(arch, window, width, seed, encoder, classifier)
    }

    /// Assembles a trained selector from its parts (the session's
    /// `finish` path).
    pub(crate) fn from_parts(
        arch: Architecture,
        window: usize,
        width: usize,
        seed: u64,
        encoder: Seq,
        classifier: Linear,
    ) -> Self {
        Self {
            arch,
            window,
            width,
            seed,
            encoder,
            classifier,
            packed_classifier: std::sync::OnceLock::new(),
        }
    }

    /// All trainable parameters (encoder then classifier), stable order.
    pub fn params_mut(&mut self) -> Vec<&mut tsnn::Param> {
        // The caller may rewrite the classifier weights (weight loading);
        // drop the pre-packed panels so inference re-packs lazily.
        let _ = self.packed_classifier.take();
        let mut p = self.encoder.params_mut();
        p.extend(self.classifier.params_mut());
        p
    }

    /// Read-only view of the trainable parameters, `params_mut()` order.
    /// Persistence snapshots a trained selector through this accessor —
    /// saving is not a mutation.
    pub fn params(&self) -> Vec<&tsnn::Param> {
        let mut p = self.encoder.params();
        p.extend(self.classifier.params());
        p
    }

    /// Non-trainable state (batch-norm running statistics). Persistence must
    /// save these alongside the parameters or inference-mode normalisation
    /// breaks after a reload.
    pub fn buffers_mut(&mut self) -> Vec<&mut Vec<f32>> {
        self.encoder.buffers_mut()
    }

    /// Read-only view of the non-trainable state, `buffers_mut()` order.
    pub fn buffers(&self) -> Vec<&Vec<f32>> {
        self.encoder.buffers()
    }

    /// Class logits for a batch of windows (inference mode, chunked).
    ///
    /// Immutable and thread-safe: the forward pass runs through the
    /// encoder's [`Layer::infer`] path, so one trained selector can score
    /// concurrent batches from many threads.
    pub fn predict_logits(&self, windows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let rows: Vec<&[f32]> = windows.iter().map(Vec::as_slice).collect();
        self.predict_logits_rows(&rows)
    }

    /// The chunked inference kernel over borrowed window rows — one logit
    /// row per input row, in order.
    ///
    /// This is the serving hot path: input and logit staging buffers come
    /// from the per-thread [`crate::serve::ScratchArena`] (recycled via
    /// `Tensor::into_data`, so steady-state serving allocates nothing
    /// here), and the classifier multiplies against pre-packed weight
    /// panels instead of re-packing per chunk. Chunk grouping never
    /// affects results: every layer of the forward pass is
    /// per-batch-element independent and the GEMM kernels are bitwise
    /// row-independent (pinned by the `tsnn::gemm` equality sweeps), so
    /// scoring rows in one call or many yields identical bytes.
    // kdprof: hot
    pub fn predict_logits_rows(&self, rows: &[&[f32]]) -> Vec<Vec<f32>> {
        kdprof::span!(kdprof::Phase::Score);
        let packed = self.packed_classifier.get_or_init(|| {
            let w = &self.classifier.weight.value;
            tsnn::gemm::PackedB::pack(w.dim(1), w.dim(0), w.data(), tsnn::gemm::Layout::Normal)
        });
        let n_out = self.classifier.out_features();
        let bias = self.classifier.bias.value.data();
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(256) {
            let x = {
                kdprof::span!(kdprof::Phase::Pack);
                let mut buf = crate::serve::arena::with_arena(|a| a.take_input());
                buf.reserve(chunk.len() * self.window);
                for r in chunk {
                    assert_eq!(r.len(), self.window, "window length mismatch");
                    buf.extend_from_slice(r);
                }
                Tensor::from_vec(&[chunk.len(), 1, self.window], buf)
            };
            let z = self.encoder.infer(&x);
            let mut logits = crate::serve::arena::with_arena(|a| a.take_logits());
            logits.resize(chunk.len() * n_out, 0.0);
            tsnn::gemm::gemm_prepacked(
                chunk.len(),
                z.data(),
                tsnn::gemm::Layout::Normal,
                packed,
                &mut logits,
            );
            for i in 0..chunk.len() {
                let row = &mut logits[i * n_out..(i + 1) * n_out];
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
                out.push(row.to_vec());
            }
            crate::serve::arena::with_arena(|a| {
                a.put_input(x.into_data());
                a.put_logits(logits);
            });
        }
        out
    }

    /// Hard class predictions for a batch of windows.
    pub fn predict_windows(&self, windows: &[Vec<f32>]) -> Vec<usize> {
        self.predict_logits(windows)
            .into_iter()
            .map(|row| crate::selector::argmax(&row))
            .collect()
    }
}

/// Trains a selector on the dataset with the given configuration.
///
/// One-call wrapper over [`TrainSession`]: build, run every epoch, finish.
/// Use the session directly for per-epoch control, checkpointing, or
/// deployment into a live [`crate::serve::SelectorEngine`].
///
/// # Panics
/// Panics if the dataset is empty or its window length is inconsistent.
pub fn train(dataset: &SelectorDataset, cfg: &TrainConfig) -> (TrainedSelector, TrainStats) {
    let mut session = TrainSession::new(dataset, cfg);
    session.run_to_completion(dataset);
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small dataset with synthetic perf rows (no detector runs).
    fn toy_dataset() -> SelectorDataset {
        testutil::toy_dataset(6, 48, |i| i % 3)
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            arch: Architecture::ConvNet,
            width: 4,
            epochs: 3,
            batch_size: 16,
            lr: 5e-3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn standard_training_decreases_loss() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 6;
        let (_sel, stats) = train(&ds, &cfg);
        assert_eq!(stats.epoch_loss.len(), 6);
        assert!(
            stats.epoch_loss.last().unwrap() < stats.epoch_loss.first().unwrap(),
            "loss {:?}",
            stats.epoch_loss
        );
        assert!((stats.examined_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pisl_and_mki_paths_run_and_learn() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.pisl = Some(PislConfig::default());
        cfg.mki = Some(MkiConfig {
            hidden: 32,
            proj_dim: 16,
            ..MkiConfig::default()
        });
        cfg.epochs = 5;
        let (_sel, stats) = train(&ds, &cfg);
        assert!(
            stats.epoch_loss.last().unwrap() < stats.epoch_loss.first().unwrap(),
            "loss {:?}",
            stats.epoch_loss
        );
    }

    #[test]
    fn data_parallel_replicas_run_and_learn() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.replicas = 2;
        cfg.pisl = Some(PislConfig::default());
        cfg.epochs = 6;
        let (sel, stats) = train(&ds, &cfg);
        assert!(
            stats.epoch_loss.last().unwrap() < stats.epoch_loss.first().unwrap(),
            "loss {:?}",
            stats.epoch_loss
        );
        let preds = sel.predict_windows(&ds.windows[..4]);
        assert!(preds.iter().all(|&p| p < 12));
    }

    #[test]
    fn pruning_reduces_examined_samples() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 6;
        cfg.pruning = PruningStrategy::InfoBatch {
            ratio: 0.8,
            anneal: 0.17,
        };
        let (_sel, stats) = train(&ds, &cfg);
        assert!(
            stats.examined_fraction() < 1.0,
            "{:?}",
            stats.epoch_examined
        );
        // First epoch always full.
        assert_eq!(stats.epoch_examined[0], ds.len());
        // Last (anneal) epoch full again.
        assert_eq!(*stats.epoch_examined.last().unwrap(), ds.len());
    }

    #[test]
    fn pa_examines_fewer_samples_than_infobatch() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.epochs = 6;
        cfg.pruning = PruningStrategy::InfoBatch {
            ratio: 0.8,
            anneal: 0.0,
        };
        let (_s, ib) = train(&ds, &cfg);
        cfg.pruning = PruningStrategy::Pa {
            ratio: 0.8,
            lsh_bits: 10,
            bins: 4,
            anneal: 0.0,
        };
        let (_s, pa) = train(&ds, &cfg);
        let ib_total: usize = ib.epoch_examined.iter().sum();
        let pa_total: usize = pa.epoch_examined.iter().sum();
        assert!(pa_total <= ib_total, "PA {pa_total} vs IB {ib_total}");
    }

    #[test]
    fn trained_selector_predicts_in_class_range() {
        let ds = toy_dataset();
        let (sel, _) = train(&ds, &quick_cfg());
        let preds = sel.predict_windows(&ds.windows[..10.min(ds.len())]);
        assert!(preds.iter().all(|&p| p < 12));
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let ds = toy_dataset();
        let cfg = quick_cfg();
        let (a, _) = train(&ds, &cfg);
        let (b, _) = train(&ds, &cfg);
        assert_eq!(
            a.predict_windows(&ds.windows[..4]),
            b.predict_windows(&ds.windows[..4])
        );
        let la = a.predict_logits(&ds.windows[..2]);
        let lb = b.predict_logits(&ds.windows[..2]);
        assert_eq!(la, lb);
    }

    #[test]
    fn train_equals_manually_stepped_session() {
        let ds = toy_dataset();
        let mut cfg = quick_cfg();
        cfg.pisl = Some(PislConfig::default());
        let (direct, direct_stats) = train(&ds, &cfg);

        let mut session = TrainSession::new(&ds, &cfg);
        let mut reports = Vec::new();
        while !session.is_complete() {
            reports.push(session.run_epoch(&ds));
        }
        let (stepped, stepped_stats) = session.finish();

        let direct_params = tsnn::serialize::save_params(&direct.params());
        let stepped_params = tsnn::serialize::save_params(&stepped.params());
        assert_eq!(
            direct_params, stepped_params,
            "weights must be bitwise equal"
        );
        assert_eq!(direct_stats.epoch_loss, stepped_stats.epoch_loss);
        assert_eq!(direct_stats.epoch_accuracy, stepped_stats.epoch_accuracy);
        assert_eq!(direct_stats.epoch_examined, stepped_stats.epoch_examined);
        // Epoch reports mirror the stats vectors entry for entry.
        for (e, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, e);
            assert_eq!(r.loss, stepped_stats.epoch_loss[e]);
            assert_eq!(r.accuracy, stepped_stats.epoch_accuracy[e]);
            assert_eq!(r.examined, stepped_stats.epoch_examined[e]);
        }
    }

    #[test]
    fn learns_family_correlated_labels() {
        // Labels that correlate with the signal family (series i/2 share a
        // family and a label) are learnable from window shape alone.
        let ds = testutil::toy_dataset(6, 48, |i| i / 2);

        let mut cfg = quick_cfg();
        cfg.epochs = 25;
        cfg.lr = 5e-3;
        let (_sel, stats) = train(&ds, &cfg);
        let final_acc = *stats.epoch_accuracy.last().unwrap();
        assert!(final_acc > 0.6, "accuracy {final_acc}");
    }
}
