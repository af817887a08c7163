//! Resumable training sessions.
//!
//! A [`TrainSession`] owns everything one selector-training run needs — the
//! model components (encoder + classifier), the composed
//! [`Objective`], the Adam optimizer, the pruning state, and the per-epoch
//! RNG streams — and exposes the run epoch by epoch:
//!
//! * [`TrainSession::run_epoch`] executes one epoch (plan → shuffle →
//!   minibatches → optimizer steps) and returns an [`EpochReport`];
//! * [`TrainSession::checkpoint`] snapshots the complete training state at
//!   an epoch boundary ([`TrainCheckpoint`], persisted through a
//!   [`SelectorStore`]);
//! * [`TrainSession::resume`] rebuilds a session from a checkpoint such
//!   that epochs `k+1..n` are **bitwise-identical** to an uninterrupted
//!   run — weights, per-epoch losses, accuracies and examined counts all
//!   match exactly (only the wall-clock `train_seconds` differs);
//! * [`TrainSession::finish`] converts the session into a
//!   [`TrainedSelector`] ready for evaluation, persistence, or live
//!   deployment via [`crate::serve::SelectorEngine::deploy`].
//!
//! Bitwise resume works because every source of randomness is re-derivable:
//! parameter init comes from the config seed, and the shuffle and pruning
//! draws of epoch `e` come from per-epoch streams keyed on `(seed, e)` —
//! never on how many draws earlier epochs made. The checkpoint therefore
//! only carries state that *accumulates*: weights, batch-norm buffers,
//! optimizer moments, pruning loss means, and the stats so far.
//!
//! Each minibatch takes one step: forward, objective, backward, gradient
//! clip and Adam, each recorded as a [`kdprof`] span
//! ([`kdprof::Phase::Forward`], [`Objective`](kdprof::Phase::Objective),
//! [`Backward`](kdprof::Phase::Backward), [`Update`](kdprof::Phase::Update))
//! so a release build can say where a step's time went.

use super::objective::{BatchContext, Objective};
use super::{TrainConfig, TrainStats, TrainedSelector};
use crate::dataset::SelectorDataset;
use crate::manage::{SavedState, SelectorStore};
use crate::prune::{PruneSnapshot, PruneState, PruningStrategy};
use crate::selector::argmax;
use kdprof::{Phase, SpanGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsad_models::ModelId;
use tsnn::layers::{Layer, Linear, Seq};
use tsnn::optim::{clip_grad_norm_with, Adam, AdamState};
use tsnn::serialize::{load_params, save_params, StateDict};
use tsnn::{Dims, Param, Tensor, Workspace};

/// The model a session trains and its working set: encoder, classifier,
/// objective, and the memory a step reuses — the flat input batch, the
/// feature, logit and feature-gradient staging tensors, and the training
/// [`Workspace`] the encoder and classifier carve their activations, tapes
/// and gradients from. The workspace is sized by the first batch and
/// dropped with the core; after it, the encoder and classifier passes
/// allocate nothing.
struct TrainerCore {
    encoder: Seq,
    classifier: Linear,
    objective: Objective,
    window: usize,
    x_buf: Vec<f32>,
    targets: Vec<usize>,
    features: Tensor,
    logits: Tensor,
    grad_features: Tensor,
    ws: Workspace,
}

/// What one forward/backward pass over a minibatch produced. Gradients
/// stay accumulated on the core's parameters.
struct StepOutput {
    /// Weighted mean loss over the batch.
    loss: f64,
    /// Per-sample losses for the pruning running means, batch order.
    per_sample: Vec<f64>,
    /// Hard-label hits (training accuracy numerator).
    correct: usize,
}

impl TrainerCore {
    /// Builds the core with the trainer's canonical seed derivations
    /// (encoder from `seed`, classifier from `seed ^ 0xC1A5`, MKI
    /// projections from `seed ^ 0x17E` inside the objective) and empty
    /// scratch.
    fn build(cfg: &TrainConfig, dataset: &SelectorDataset, window: usize) -> Self {
        let encoder = cfg.arch.build(window, cfg.width, cfg.seed);
        let dim = cfg.arch.feature_dim(cfg.width);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC1A5);
        let classifier = Linear::new(dim, ModelId::ALL.len(), &mut rng);
        Self {
            encoder,
            classifier,
            objective: Objective::from_config(cfg, dataset, dim),
            window,
            x_buf: Vec::new(),
            targets: Vec::new(),
            features: Tensor::zeros(&[0]),
            logits: Tensor::zeros(&[0]),
            grad_features: Tensor::zeros(&[0]),
            ws: Workspace::new(),
        }
    }

    /// Calls `f` on every trainable parameter — encoder, classifier, then
    /// objective terms — in the stable order the optimizer state relies
    /// on, without collecting them (the per-step walk of clipping and the
    /// optimizer).
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.for_each_param_mut(f);
        self.classifier.for_each_param_mut(f);
        self.objective.for_each_param_mut(f);
    }

    /// The selector-model parameters only (encoder + classifier), matching
    /// [`TrainedSelector::params`] order — what checkpoints store as the
    /// model state.
    fn model_params(&self) -> Vec<&Param> {
        let mut p = self.encoder.params();
        p.extend(self.classifier.params());
        p
    }

    fn model_params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.encoder.params_mut();
        p.extend(self.classifier.params_mut());
        p
    }

    /// One forward/backward pass over a minibatch: assembles the input
    /// tensor, evaluates the objective, backpropagates through classifier
    /// and encoder, and leaves the gradients accumulated on this core's
    /// parameters. Zeroes the gradients first.
    fn run_batch(
        &mut self,
        dataset: &SelectorDataset,
        indices: &[usize],
        weights: &[f32],
    ) -> StepOutput {
        let forward = SpanGuard::enter(Phase::Forward);
        let b = indices.len();
        let window = self.window;
        self.x_buf.clear();
        self.x_buf.reserve(b * window);
        for &i in indices {
            self.x_buf.extend_from_slice(&dataset.windows[i]);
        }
        self.targets.clear();
        self.targets
            .extend(indices.iter().map(|&i| dataset.hard_labels[i]));

        self.for_each_param_mut(&mut |p| p.zero_grad());
        let xd = Dims::new(&[b, 1, window]);
        let zd = self.encoder.out_dims(xd);
        let ld = self.classifier.out_dims(zd);
        let (enc_len, head_len) = (
            self.encoder.ws_len(xd, true),
            self.classifier.ws_len(zd, true),
        );
        let scratch_len = self.encoder.grad_len(xd).max(self.classifier.grad_len(zd));
        // The tapes, the backward scratch both passes share, and the
        // encoder's input gradient (the window batch is not trained, so it
        // is never read).
        let ws = self.ws.get(enc_len + head_len + scratch_len + xd.numel());
        let (enc_ws, rest) = ws.split_at_mut(enc_len);
        let (head_ws, rest) = rest.split_at_mut(head_len);
        let (scratch, grad_x) = rest.split_at_mut(scratch_len);
        self.features.set_shape(zd.as_slice());
        self.logits.set_shape(ld.as_slice());
        self.encoder
            .forward_ws(&self.x_buf, xd, self.features.data_mut(), enc_ws);
        self.classifier
            .forward_ws(self.features.data(), zd, self.logits.data_mut(), head_ws);
        drop(forward);

        let objective = SpanGuard::enter(Phase::Objective);
        let ctx = BatchContext {
            dataset,
            indices,
            weights,
            targets: &self.targets,
            features: &self.features,
            logits: &self.logits,
        };
        let out = self.objective.accumulate(&ctx);
        drop(objective);

        let backward = SpanGuard::enter(Phase::Backward);
        let g_z = &mut self.grad_features;
        g_z.set_shape(zd.as_slice());
        self.classifier.backward_ws(
            self.features.data(),
            zd,
            self.logits.data(),
            out.grad_logits.data(),
            g_z.data_mut(),
            (head_ws, &mut *scratch),
        );
        if let Some(grad_features) = &out.grad_features {
            g_z.add_assign(grad_features);
        }
        self.encoder.backward_ws(
            &self.x_buf,
            xd,
            self.features.data(),
            g_z.data(),
            grad_x,
            (enc_ws, scratch),
        );
        drop(backward);

        let correct = self
            .targets
            .iter()
            .enumerate()
            .filter(|&(bi, &t)| argmax(self.logits.row(bi)) == t)
            .count();
        StepOutput {
            loss: out.loss,
            per_sample: out.per_sample,
            correct,
        }
    }
}

/// Summary of one completed epoch, mirroring the entries appended to
/// [`TrainStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Zero-based epoch index that just ran.
    pub epoch: usize,
    /// Mean combined loss over the visited samples.
    pub loss: f64,
    /// Hard-label training accuracy over the visited samples.
    pub accuracy: f64,
    /// Samples examined (pruning shrinks this).
    pub examined: usize,
}

/// A complete epoch-boundary snapshot of a [`TrainSession`].
///
/// Everything except wall-clock time is restored exactly: resuming from a
/// checkpoint taken after epoch `k` replays epochs `k+1..n` with
/// bitwise-identical weights and [`TrainStats`] entries. Persist through
/// [`SelectorStore::save_checkpoint`] / [`SelectorStore::load_checkpoint`].
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TrainCheckpoint {
    /// The full training configuration (a resumed session rebuilds from
    /// this — callers don't re-supply it).
    pub config: TrainConfig,
    /// Epochs completed when the snapshot was taken.
    pub epochs_done: usize,
    /// Content fingerprint of the dataset the session trained over
    /// ([`SelectorDataset::fingerprint`]); resume rejects any other
    /// dataset, same-sized or not.
    pub dataset_fingerprint: u64,
    /// Selector model state: encoder + classifier parameters and
    /// batch-norm buffers, [`TrainedSelector::params`] order.
    pub model: SavedState,
    /// Objective-term parameters (the MKI projection MLPs; empty without
    /// MKI).
    pub objective: StateDict,
    /// Adam moments and step counter.
    pub optimizer: AdamState,
    /// Pruning loss bookkeeping (running per-sample means).
    pub prune: PruneSnapshot,
    /// Statistics accumulated so far.
    pub stats: TrainStats,
}

/// A resumable, checkpointable selector-training run. See the
/// [module docs](self) for the lifecycle.
pub struct TrainSession {
    cfg: TrainConfig,
    n: usize,
    dataset_fingerprint: u64,
    core: TrainerCore,
    opt: Adam,
    prune: PruneState,
    stats: TrainStats,
    next_epoch: usize,
}

/// Rejects a configuration no session can train: a zero batch size, or a
/// PISL `t_soft` / MKI `temperature` that is not finite and positive.
fn check_config(cfg: &TrainConfig) -> Result<(), String> {
    let usable = |t: f64| t.is_finite() && t > 0.0;
    if cfg.batch_size == 0 {
        return Err("batch_size must be at least 1".to_string());
    }
    if let Some(p) = cfg.pisl.filter(|p| !usable(p.t_soft)) {
        return Err(format!(
            "PISL t_soft must be finite and positive, got {}",
            p.t_soft
        ));
    }
    if let Some(m) = cfg.mki.filter(|m| !usable(f64::from(m.temperature))) {
        return Err(format!(
            "MKI temperature must be finite and positive, got {}",
            m.temperature
        ));
    }
    Ok(())
}

/// Per-epoch shuffle stream: like the pruning module's, keyed on
/// `(seed, epoch)` so a resumed session replays the exact permutations.
fn shuffle_stream(seed: u64, epoch: usize) -> u64 {
    (seed ^ 0x5F)
        ^ (epoch as u64)
            .wrapping_add(1)
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn shuffle_pair(indices: &mut [usize], weights: &mut [f32], rng: &mut StdRng) {
    debug_assert_eq!(indices.len(), weights.len());
    for i in (1..indices.len()).rev() {
        let j = rng.random_range(0..=i);
        indices.swap(i, j);
        weights.swap(i, j);
    }
}

impl TrainSession {
    /// Creates a session over `dataset`: builds the model components, the
    /// objective and the pruning state (hashing LSH signatures for PA — the
    /// setup cost the paper folds into training time).
    ///
    /// # Panics
    /// Panics if the dataset is empty, if `cfg.batch_size` is 0 ("batch_size
    /// must be at least 1": an epoch would never advance past its first
    /// minibatch), or if the PISL `t_soft` or the MKI `temperature` is not
    /// finite and positive ("… must be finite and positive": the soft
    /// targets or the InfoNCE logits would be inf/NaN).
    pub fn new(dataset: &SelectorDataset, cfg: &TrainConfig) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        if let Err(e) = check_config(cfg) {
            panic!("{e}");
        }
        // kdlint: allow(wallclock): reported setup-seconds metric only —
        // training math never reads the clock.
        let start = std::time::Instant::now();
        let window = dataset.window_cfg.length;
        let n = dataset.len();
        let core = TrainerCore::build(cfg, dataset, window);
        let lsh_inputs: Option<Vec<Vec<f64>>> = match cfg.pruning {
            PruningStrategy::Pa { .. } => Some(
                (0..n)
                    .map(|i| dataset.lsh_input(i, cfg.mki.is_some()))
                    .collect(),
            ),
            _ => None,
        };
        let prune = PruneState::new(cfg.pruning, lsh_inputs.as_deref(), n, cfg.seed ^ 0x9A);
        let stats = TrainStats {
            epoch_loss: Vec::with_capacity(cfg.epochs),
            epoch_accuracy: Vec::with_capacity(cfg.epochs),
            epoch_examined: Vec::with_capacity(cfg.epochs),
            train_seconds: start.elapsed().as_secs_f64(),
            total_windows: n,
        };
        Self {
            cfg: *cfg,
            n,
            dataset_fingerprint: dataset.fingerprint(),
            core,
            opt: Adam::new(cfg.lr, cfg.weight_decay),
            prune,
            stats,
            next_epoch: 0,
        }
    }

    /// The configuration this session trains with.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Epochs completed so far (the next [`TrainSession::run_epoch`] runs
    /// this epoch index).
    pub fn epoch(&self) -> usize {
        self.next_epoch
    }

    /// Whether all configured epochs have run.
    pub fn is_complete(&self) -> bool {
        self.next_epoch >= self.cfg.epochs
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &TrainStats {
        &self.stats
    }

    /// Runs one epoch: pruning plan, per-epoch shuffle, then one step per
    /// minibatch (forward/backward, gradient clip and optimizer step) and
    /// loss bookkeeping for the pruning running means.
    ///
    /// # Panics
    /// Panics if the session [`TrainSession::is_complete`] or `dataset` is
    /// not the one the session was created over (size check).
    pub fn run_epoch(&mut self, dataset: &SelectorDataset) -> EpochReport {
        assert!(
            !self.is_complete(),
            "session already ran all {} epochs",
            self.cfg.epochs
        );
        assert_eq!(
            dataset.len(),
            self.n,
            "dataset changed under the session (window count mismatch)"
        );
        // kdlint: allow(wallclock): reported epoch-seconds metric only —
        // training math never reads the clock.
        let t0 = std::time::Instant::now();
        let epoch = self.next_epoch;

        let mut plan = self.prune.plan_epoch(epoch, self.cfg.epochs);
        let mut shuffle_rng = StdRng::seed_from_u64(shuffle_stream(self.cfg.seed, epoch));
        shuffle_pair(&mut plan.indices, &mut plan.weights, &mut shuffle_rng);
        self.stats.epoch_examined.push(plan.indices.len());

        let mut epoch_loss = 0.0f64;
        let mut correct = 0usize;
        let mut seen = 0usize;
        let mut cursor = 0;
        while cursor < plan.indices.len() {
            let end = (cursor + self.cfg.batch_size).min(plan.indices.len());
            let batch_idx = &plan.indices[cursor..end];
            let batch_w = &plan.weights[cursor..end];
            let b = batch_idx.len();
            cursor = end;

            let out = self.core.run_batch(dataset, batch_idx, batch_w);
            let update = SpanGuard::enter(Phase::Update);
            let core = &mut self.core;
            clip_grad_norm_with(|f| core.for_each_param_mut(f), self.cfg.grad_clip);
            self.opt.step_with(|f| core.for_each_param_mut(f));
            drop(update);
            self.prune.record_losses(batch_idx, &out.per_sample);
            epoch_loss += out.loss * b as f64;
            correct += out.correct;
            seen += b;
        }

        let loss = if seen > 0 {
            epoch_loss / seen as f64
        } else {
            0.0
        };
        let accuracy = if seen > 0 {
            correct as f64 / seen as f64
        } else {
            0.0
        };
        self.stats.epoch_loss.push(loss);
        self.stats.epoch_accuracy.push(accuracy);
        self.stats.train_seconds += t0.elapsed().as_secs_f64();
        self.next_epoch += 1;
        EpochReport {
            epoch,
            loss,
            accuracy,
            examined: seen,
        }
    }

    /// Runs every remaining epoch.
    pub fn run_to_completion(&mut self, dataset: &SelectorDataset) {
        while !self.is_complete() {
            self.run_epoch(dataset);
        }
    }

    /// Snapshots the complete training state at the current epoch
    /// boundary.
    pub fn checkpoint(&self) -> TrainCheckpoint {
        TrainCheckpoint {
            config: self.cfg,
            epochs_done: self.next_epoch,
            dataset_fingerprint: self.dataset_fingerprint,
            model: SavedState {
                params: save_params(&self.core.model_params()),
                buffers: self.core.encoder.buffers().into_iter().cloned().collect(),
            },
            objective: save_params(&self.core.objective.params()),
            optimizer: self.opt.state(),
            prune: self.prune.snapshot(),
            stats: self.stats.clone(),
        }
    }

    /// Persists [`TrainSession::checkpoint`] under `name` in `store`.
    pub fn save_checkpoint(&self, store: &SelectorStore, name: &str) -> std::io::Result<()> {
        store.save_checkpoint(name, &self.checkpoint())
    }

    /// Rebuilds a session from a checkpoint over the same dataset.
    /// Continuation is bitwise-identical to the uninterrupted run (see the
    /// [module docs](self)); only `train_seconds` differs (it keeps the
    /// checkpoint's total and accumulates this process's setup and epoch
    /// wall clock on top).
    ///
    /// # Errors
    /// Rejects checkpoints whose configuration [`TrainSession::new`] would
    /// panic on (a zero `batch_size`, a temperature that is not finite and
    /// positive), whose shapes disagree with the rebuilt model, or whose
    /// sample count or content fingerprint disagrees with `dataset` — a
    /// same-sized but different dataset is a hard error, not a silent
    /// continuation over the wrong data.
    pub fn resume(dataset: &SelectorDataset, ckpt: &TrainCheckpoint) -> Result<Self, String> {
        check_config(&ckpt.config).map_err(|e| format!("corrupt checkpoint: {e}"))?;
        if ckpt.stats.total_windows != dataset.len() {
            return Err(format!(
                "checkpoint was taken over {} windows, dataset has {}",
                ckpt.stats.total_windows,
                dataset.len()
            ));
        }
        if ckpt.epochs_done > ckpt.config.epochs {
            return Err(format!(
                "corrupt checkpoint: {} epochs done of {} configured",
                ckpt.epochs_done, ckpt.config.epochs
            ));
        }
        let mut session = TrainSession::new(dataset, &ckpt.config);
        // Construction already hashed the dataset once; compare against
        // that instead of paying a second full fingerprint pass.
        if ckpt.dataset_fingerprint != session.dataset_fingerprint {
            return Err(
                "checkpoint was taken over a different dataset (content fingerprint \
                 mismatch); resuming would silently corrupt the continuation"
                    .to_string(),
            );
        }
        let setup_seconds = session.stats.train_seconds;
        load_params(&mut session.core.model_params_mut(), &ckpt.model.params)?;
        {
            let mut buffers = session.core.encoder.buffers_mut();
            if buffers.len() != ckpt.model.buffers.len() {
                return Err(format!(
                    "buffer count mismatch: model has {}, checkpoint has {}",
                    buffers.len(),
                    ckpt.model.buffers.len()
                ));
            }
            for (dst, src) in buffers.iter_mut().zip(&ckpt.model.buffers) {
                if dst.len() != src.len() {
                    return Err("buffer length mismatch".to_string());
                }
                dst.copy_from_slice(src);
            }
        }
        load_params(&mut session.core.objective.params_mut(), &ckpt.objective)?;
        session.opt.load_state(ckpt.optimizer.clone())?;
        session.prune.restore(&ckpt.prune)?;
        session.stats = ckpt.stats.clone();
        session.stats.train_seconds += setup_seconds;
        session.next_epoch = ckpt.epochs_done;
        Ok(session)
    }

    /// Loads a checkpoint saved under `name` from `store` and resumes it
    /// over `dataset`.
    pub fn resume_from(
        store: &SelectorStore,
        name: &str,
        dataset: &SelectorDataset,
    ) -> std::io::Result<Self> {
        let ckpt = store.load_checkpoint(name)?;
        Self::resume(dataset, &ckpt)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Resumes the checkpoint saved under `name` in `store` if one exists,
    /// otherwise starts a fresh session over `dataset` with `cfg` — one
    /// code path whether a prior run was interrupted or never started,
    /// which is what makes a replayed
    /// [`crate::stream::RetrainDaemon`] land on the interrupted daemon's
    /// checkpoint and continue it bitwise. Returns the session and whether
    /// it resumed.
    ///
    /// # Errors
    /// A *missing* checkpoint is not an error (a fresh session starts). A
    /// checkpoint that exists but was taken under a different
    /// [`TrainConfig`], over a different dataset (content fingerprint), or
    /// with a mismatched window count is a hard `InvalidData` error —
    /// silently continuing under different training inputs would corrupt
    /// the run instead of reproducing it.
    pub fn resume_or_start(
        store: &SelectorStore,
        name: &str,
        dataset: &SelectorDataset,
        cfg: &TrainConfig,
    ) -> std::io::Result<(Self, bool)> {
        match store.load_checkpoint(name) {
            Ok(ckpt) => {
                if ckpt.config != *cfg {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint {name:?} was taken under a different TrainConfig; \
                             resuming it with this configuration would not reproduce the run"
                        ),
                    ));
                }
                let session = Self::resume(dataset, &ckpt)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                Ok((session, true))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok((Self::new(dataset, cfg), false))
            }
            Err(e) => Err(e),
        }
    }

    /// Converts the session into its trained selector and statistics. The
    /// session may be finished early (before all configured epochs ran).
    pub fn finish(self) -> (TrainedSelector, TrainStats) {
        (
            TrainedSelector::from_parts(
                self.cfg.arch,
                self.core.window,
                self.cfg.width,
                self.cfg.seed,
                self.core.encoder,
                self.core.classifier,
            ),
            self.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::testutil;
    use crate::train::{MkiConfig, PislConfig};

    fn toy_dataset() -> SelectorDataset {
        testutil::toy_dataset(6, 48, |i| i % 3)
    }

    fn full_cfg() -> TrainConfig {
        TrainConfig {
            arch: crate::arch::Architecture::ConvNet,
            width: 4,
            epochs: 5,
            batch_size: 16,
            lr: 5e-3,
            pisl: Some(PislConfig::default()),
            mki: Some(MkiConfig {
                hidden: 16,
                proj_dim: 8,
                ..MkiConfig::default()
            }),
            pruning: PruningStrategy::InfoBatch {
                ratio: 0.7,
                anneal: 0.2,
            },
            ..TrainConfig::default()
        }
    }

    #[test]
    fn session_lifecycle_reports_progress() {
        let ds = toy_dataset();
        let cfg = full_cfg();
        let mut session = TrainSession::new(&ds, &cfg);
        assert_eq!(session.epoch(), 0);
        assert!(!session.is_complete());
        let first = session.run_epoch(&ds);
        assert_eq!(first.epoch, 0);
        assert_eq!(first.examined, ds.len(), "epoch 0 is always full");
        assert!(first.loss.is_finite() && first.loss > 0.0);
        session.run_to_completion(&ds);
        assert!(session.is_complete());
        assert_eq!(session.stats().epoch_loss.len(), cfg.epochs);
        let (model, stats) = session.finish();
        assert_eq!(stats.epoch_loss.len(), cfg.epochs);
        assert!(stats.train_seconds > 0.0);
        assert!(model
            .predict_windows(&ds.windows[..2])
            .iter()
            .all(|&p| p < 12));
    }

    #[test]
    fn early_finish_yields_partially_trained_model() {
        let ds = toy_dataset();
        let mut session = TrainSession::new(&ds, &full_cfg());
        session.run_epoch(&ds);
        let (model, stats) = session.finish();
        assert_eq!(stats.epoch_loss.len(), 1);
        let _ = model.predict_windows(&ds.windows[..1]);
    }

    #[test]
    fn checkpoint_resume_continues_bitwise() {
        let ds = toy_dataset();
        let cfg = full_cfg();

        let mut straight = TrainSession::new(&ds, &cfg);
        straight.run_to_completion(&ds);
        let (straight_model, straight_stats) = straight.finish();

        let mut first = TrainSession::new(&ds, &cfg);
        for _ in 0..2 {
            first.run_epoch(&ds);
        }
        let ckpt = first.checkpoint();
        assert_eq!(ckpt.epochs_done, 2);
        drop(first);

        let mut resumed = TrainSession::resume(&ds, &ckpt).expect("resume");
        assert_eq!(resumed.epoch(), 2);
        resumed.run_to_completion(&ds);
        let (resumed_model, resumed_stats) = resumed.finish();

        assert_eq!(
            save_params(&straight_model.params()),
            save_params(&resumed_model.params()),
            "weights must continue bitwise"
        );
        for (a, b) in straight_model.buffers().iter().zip(resumed_model.buffers()) {
            assert_eq!(*a, b, "buffers must continue bitwise");
        }
        assert_eq!(straight_stats.epoch_loss, resumed_stats.epoch_loss);
        assert_eq!(straight_stats.epoch_accuracy, resumed_stats.epoch_accuracy);
        assert_eq!(straight_stats.epoch_examined, resumed_stats.epoch_examined);
    }

    #[test]
    fn resume_or_start_covers_fresh_resumed_and_mismatched() {
        let dir =
            std::env::temp_dir().join(format!("kdsel-resume-or-start-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SelectorStore::open(&dir).expect("store");
        let ds = toy_dataset();
        let cfg = full_cfg();

        // No checkpoint: a fresh session starts at epoch 0.
        let (mut session, resumed) =
            TrainSession::resume_or_start(&store, "daemon", &ds, &cfg).expect("fresh");
        assert!(!resumed);
        assert_eq!(session.epoch(), 0);
        for _ in 0..2 {
            session.run_epoch(&ds);
        }
        session.save_checkpoint(&store, "daemon").expect("save");

        // Checkpoint present: resumes at its epoch boundary.
        let (resumed_session, resumed) =
            TrainSession::resume_or_start(&store, "daemon", &ds, &cfg).expect("resume");
        assert!(resumed);
        assert_eq!(resumed_session.epoch(), 2);

        // Same name, different config: hard error, not a silent restart.
        let mut other_cfg = cfg;
        other_cfg.seed ^= 1;
        match TrainSession::resume_or_start(&store, "daemon", &ds, &other_cfg) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            Ok(_) => panic!("config mismatch must be a hard error"),
        }

        // Same config, different dataset content: hard error too.
        let other_ds = testutil::toy_dataset(6, 48, |i| (i + 1) % 3);
        match TrainSession::resume_or_start(&store, "daemon", &other_ds, &cfg) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            Ok(_) => panic!("dataset mismatch must be a hard error"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_dataset() {
        let ds = toy_dataset();
        let mut session = TrainSession::new(&ds, &full_cfg());
        session.run_epoch(&ds);
        let mut ckpt = session.checkpoint();
        ckpt.stats.total_windows += 1;
        assert!(TrainSession::resume(&ds, &ckpt).is_err());
    }

    #[test]
    fn resume_rejects_zero_batch_size() {
        let ds = toy_dataset();
        let mut ckpt = TrainSession::new(&ds, &full_cfg()).checkpoint();
        ckpt.config.batch_size = 0;
        assert!(TrainSession::resume(&ds, &ckpt).is_err());
    }

    #[test]
    #[should_panic(expected = "batch_size must be at least 1")]
    fn new_rejects_zero_batch_size() {
        let cfg = TrainConfig {
            batch_size: 0,
            ..full_cfg()
        };
        let _ = TrainSession::new(&toy_dataset(), &cfg);
    }

    #[test]
    fn checkpoint_with_a_replica_count_resumes_on_the_one_path() {
        // Checkpoints written before the config lost its `replicas` field
        // carry it; deserialisation ignores it and the run continues on
        // the session's one step.
        let ds = toy_dataset();
        let mut session = TrainSession::new(&ds, &full_cfg());
        session.run_epoch(&ds);
        let json = serde_json::to_string(&session.checkpoint()).unwrap();
        let old = json.replacen("\"batch_size\":", "\"replicas\":2,\"batch_size\":", 1);
        assert_ne!(old, json);
        let ckpt: TrainCheckpoint = serde_json::from_str(&old).unwrap();
        let mut resumed = TrainSession::resume(&ds, &ckpt).expect("resume");
        session.run_to_completion(&ds);
        resumed.run_to_completion(&ds);
        let (a, _) = session.finish();
        let (b, _) = resumed.finish();
        assert_eq!(save_params(&a.params()), save_params(&b.params()));
    }

    #[test]
    fn resume_rejects_unusable_temperatures() {
        let ds = toy_dataset();
        let ckpt = TrainSession::new(&ds, &full_cfg()).checkpoint();
        for t in [0.0, -0.25, f64::NAN, f64::INFINITY] {
            let mut bad = ckpt.clone();
            bad.config.pisl = Some(PislConfig {
                t_soft: t,
                ..PislConfig::default()
            });
            assert!(TrainSession::resume(&ds, &bad).is_err(), "t_soft {t}");
            let mut bad = ckpt.clone();
            if let Some(mki) = bad.config.mki.as_mut() {
                mki.temperature = t as f32;
            }
            assert!(TrainSession::resume(&ds, &bad).is_err(), "temperature {t}");
        }
    }

    #[test]
    #[should_panic(expected = "t_soft must be finite and positive")]
    fn new_rejects_non_positive_t_soft() {
        let cfg = TrainConfig {
            pisl: Some(PislConfig {
                t_soft: 0.0,
                ..PislConfig::default()
            }),
            ..full_cfg()
        };
        let _ = TrainSession::new(&toy_dataset(), &cfg);
    }

    #[test]
    fn run_epoch_after_completion_panics() {
        let ds = toy_dataset();
        let mut cfg = full_cfg();
        cfg.epochs = 1;
        let mut session = TrainSession::new(&ds, &cfg);
        session.run_epoch(&ds);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_epoch(&ds);
        }));
        assert!(err.is_err());
    }
}
