//! The composable training objective: every KDSelector loss term behind one
//! [`LossTerm`] trait, composed into an [`Objective`] that owns gradient
//! accumulation.
//!
//! Three terms implement the paper's framework:
//!
//! * [`HardCe`] — cross-entropy on the hard best-model labels, scaled by
//!   `1 − α` when PISL is active (`1` otherwise);
//! * [`PislSoft`] — `α · L_PISL`, soft cross-entropy against the
//!   precomputed per-series `softmax(P(M_j(T_i)) / t_soft)` distributions;
//! * [`MkiAlign`] — `λ · L_InfoNCE(h_T(z_T), h_K(z_K))`, owning the two
//!   trainable projection MLPs; the knowledge embedding `z_K` is a frozen
//!   input.
//!
//! A term sees one minibatch through a [`BatchContext`] and adds its
//! **scaled** gradient contribution into the shared logit gradient (terms
//! differentiating through the classifier) and/or the shared feature
//! gradient (terms like MKI that bypass it). The [`Objective`] runs terms
//! in a fixed order and sums losses and unweighted per-sample losses — the
//! latter feed the pruning module's running means, exactly as the old
//! monolithic loop did.
//!
//! Terms own their scratch: batch-assembly buffers travel into the input
//! tensors and are reclaimed via [`Tensor::into_data`] after the term's
//! backward pass (both the PISL soft-target buffer and the MKI knowledge
//! buffer), so steady-state training performs no per-batch target/knowledge
//! allocations.

use super::{MkiConfig, PislConfig, TrainConfig};
use crate::dataset::{softmax_scaled, SelectorDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsnn::layers::{Layer, Seq};
use tsnn::loss::{cross_entropy, info_nce, soft_cross_entropy};
use tsnn::{Param, Tensor};

/// Everything a loss term may read about the current minibatch.
pub struct BatchContext<'a> {
    /// The training set (terms look up soft labels / knowledge rows).
    pub dataset: &'a SelectorDataset,
    /// Window indices of this batch, plan order.
    pub indices: &'a [usize],
    /// Pruning gradient-rescale weights, aligned with `indices`.
    pub weights: &'a [f32],
    /// Hard labels, aligned with `indices`.
    pub targets: &'a [usize],
    /// Encoder features `z_T`, shape `(B, D)`.
    pub features: &'a Tensor,
    /// Classifier logits, shape `(B, C)`.
    pub logits: &'a Tensor,
}

/// One term's contribution for one batch.
pub struct TermOutput {
    /// Weighted mean loss, already scaled by the term's coefficient.
    pub loss: f64,
    /// Per-sample losses (unweighted by pruning, scaled by the term's
    /// coefficient), aligned with the batch.
    pub per_sample: Vec<f64>,
}

/// A lazily materialised gradient accumulator: terms that bypass the
/// classifier (MKI) allocate it on first touch, so objectives without
/// such terms never pay a per-batch `(B, D)` zero-fill — the monolithic
/// loop only built the feature gradient inside the MKI branch, and the
/// composable objective keeps that property.
pub struct LazyGrad {
    shape: Vec<usize>,
    grad: Option<Tensor>,
}

impl LazyGrad {
    fn new(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            grad: None,
        }
    }

    /// The accumulator tensor, zero-initialised on first use.
    pub fn get_or_zero(&mut self) -> &mut Tensor {
        self.grad.get_or_insert_with(|| Tensor::zeros(&self.shape))
    }

    fn into_inner(self) -> Option<Tensor> {
        self.grad
    }
}

/// One composable piece of the training objective.
pub trait LossTerm {
    /// Display name (diagnostics, tests).
    fn name(&self) -> &'static str;

    /// Computes this term for one batch, **adding** its scaled gradient
    /// into `grad_logits` (∂/∂ classifier logits) and/or `grad_features`
    /// (∂/∂ encoder features, for terms that bypass the classifier —
    /// touch it through [`LazyGrad::get_or_zero`] only if this term
    /// actually contributes there). Trainable term parameters accumulate
    /// their own gradients here.
    fn accumulate(
        &mut self,
        ctx: &BatchContext<'_>,
        grad_logits: &mut Tensor,
        grad_features: &mut LazyGrad,
    ) -> TermOutput;

    /// Trainable term parameters (stable order), if any.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Calls `f` on every trainable parameter, `params_mut()` order,
    /// without collecting them. The default collects.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Read-only view of the trainable parameters, `params_mut()` order.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }
}

/// Hard-label cross-entropy, scaled by `1 − α` under PISL.
pub struct HardCe {
    scale: f32,
}

impl HardCe {
    /// New hard-label term with the given loss scale.
    pub fn new(scale: f32) -> Self {
        Self { scale }
    }
}

impl LossTerm for HardCe {
    fn name(&self) -> &'static str {
        "hard-ce"
    }

    fn accumulate(
        &mut self,
        ctx: &BatchContext<'_>,
        grad_logits: &mut Tensor,
        _grad_features: &mut LazyGrad,
    ) -> TermOutput {
        let ce = cross_entropy(ctx.logits, ctx.targets, Some(ctx.weights));
        let mut g = ce.grad;
        g.scale_(self.scale);
        grad_logits.add_assign(&g);
        TermOutput {
            loss: ce.loss * self.scale as f64,
            per_sample: ce
                .per_sample
                .iter()
                .map(|&l| l * self.scale as f64)
                .collect(),
        }
    }
}

/// The PISL soft-label term: `α ·` soft cross-entropy against
/// `softmax(perf / t_soft)` rows, precomputed once per series.
pub struct PislSoft {
    alpha: f32,
    classes: usize,
    soft_by_series: Vec<Vec<f32>>,
    /// Scratch for batch soft-target assembly, reclaimed via
    /// [`Tensor::into_data`] each batch.
    soft_buf: Vec<f32>,
}

impl PislSoft {
    /// Precomputes the per-series soft labels from the dataset's
    /// performance rows.
    ///
    /// # Panics
    /// Panics if `cfg.t_soft` is not positive.
    pub fn new(cfg: PislConfig, dataset: &SelectorDataset) -> Self {
        let soft_by_series: Vec<Vec<f32>> = dataset
            .series_perf
            .iter()
            .map(|row| softmax_scaled(row, cfg.t_soft))
            .collect();
        let classes = soft_by_series.first().map_or(0, |r| r.len());
        Self {
            alpha: cfg.alpha,
            classes,
            soft_by_series,
            soft_buf: Vec::new(),
        }
    }
}

impl LossTerm for PislSoft {
    fn name(&self) -> &'static str {
        "pisl-soft"
    }

    fn accumulate(
        &mut self,
        ctx: &BatchContext<'_>,
        grad_logits: &mut Tensor,
        _grad_features: &mut LazyGrad,
    ) -> TermOutput {
        let b = ctx.indices.len();
        self.soft_buf.clear();
        self.soft_buf.reserve(b * self.classes);
        for &i in ctx.indices {
            self.soft_buf
                .extend_from_slice(&self.soft_by_series[ctx.dataset.series_index[i]]);
        }
        let soft_targets = Tensor::from_vec(&[b, self.classes], std::mem::take(&mut self.soft_buf));
        let out = soft_cross_entropy(ctx.logits, &soft_targets, Some(ctx.weights));
        let mut g = out.grad;
        g.scale_(self.alpha);
        grad_logits.add_assign(&g);
        self.soft_buf = soft_targets.into_data();
        TermOutput {
            loss: self.alpha as f64 * out.loss,
            per_sample: out
                .per_sample
                .iter()
                .map(|&l| self.alpha as f64 * l)
                .collect(),
        }
    }
}

/// The MKI knowledge-alignment term: `λ · L_InfoNCE` between the projected
/// encoder features and the projected frozen metadata embeddings. Owns the
/// two trainable projection MLPs `h_T` and `h_K`.
pub struct MkiAlign {
    cfg: MkiConfig,
    h_t: Seq,
    h_k: Seq,
    /// Scratch for batch knowledge assembly, reclaimed via
    /// [`Tensor::into_data`] each batch (the same discipline as the PISL
    /// soft-target buffer — no per-batch allocation).
    know_buf: Vec<f32>,
}

impl MkiAlign {
    /// Builds the projections with the trainer's canonical MKI seed
    /// derivation (`seed ^ 0x17E`, `h_T` drawn before `h_K`).
    pub fn new(cfg: MkiConfig, feature_dim: usize, text_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x17E);
        let h_t = Seq::mlp(feature_dim, cfg.hidden, cfg.proj_dim, &mut rng);
        let h_k = Seq::mlp(text_dim, cfg.hidden, cfg.proj_dim, &mut rng);
        Self {
            cfg,
            h_t,
            h_k,
            know_buf: Vec::new(),
        }
    }
}

impl LossTerm for MkiAlign {
    fn name(&self) -> &'static str {
        "mki-align"
    }

    fn accumulate(
        &mut self,
        ctx: &BatchContext<'_>,
        _grad_logits: &mut Tensor,
        grad_features: &mut LazyGrad,
    ) -> TermOutput {
        let b = ctx.indices.len();
        let text_dim = ctx.dataset.text_dim;
        self.know_buf.clear();
        self.know_buf.reserve(b * text_dim);
        for &i in ctx.indices {
            self.know_buf.extend_from_slice(ctx.dataset.knowledge(i));
        }
        let z_k = Tensor::from_vec(&[b, text_dim], std::mem::take(&mut self.know_buf));
        let zt_proj = self.h_t.forward(ctx.features, true);
        let zk_proj = self.h_k.forward(&z_k, true);
        let (nce_loss, nce_per_sample, mut g_zt_proj, mut g_zk_proj) =
            info_nce(&zt_proj, &zk_proj, self.cfg.temperature, Some(ctx.weights));
        g_zt_proj.scale_(self.cfg.lambda);
        g_zk_proj.scale_(self.cfg.lambda);
        let g_from_mki = self.h_t.backward(&g_zt_proj);
        let _ = self.h_k.backward(&g_zk_proj); // z_K is a frozen input
        grad_features.get_or_zero().add_assign(&g_from_mki);
        self.know_buf = z_k.into_data();
        TermOutput {
            loss: self.cfg.lambda as f64 * nce_loss,
            per_sample: nce_per_sample
                .iter()
                .map(|&l| self.cfg.lambda as f64 * l)
                .collect(),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.h_t.params_mut();
        p.extend(self.h_k.params_mut());
        p
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.h_t.for_each_param_mut(f);
        self.h_k.for_each_param_mut(f);
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.h_t.params();
        p.extend(self.h_k.params());
        p
    }
}

/// The combined result of one objective evaluation.
pub struct ObjectiveOutput {
    /// Weighted mean loss over the batch, all terms summed.
    pub loss: f64,
    /// Per-sample losses (term-scaled, pruning-unweighted) — what the
    /// pruning module's running means record.
    pub per_sample: Vec<f64>,
    /// ∂loss/∂logits, ready for the classifier's backward pass.
    pub grad_logits: Tensor,
    /// ∂loss/∂features from terms that bypass the classifier (added to the
    /// classifier's input gradient before the encoder backward). `None`
    /// when no term touched the features — no allocation was paid.
    pub grad_features: Option<Tensor>,
}

/// An ordered composition of [`LossTerm`]s owning the gradient
/// accumulation that the monolithic trainer used to hard-wire inline.
pub struct Objective {
    terms: Vec<Box<dyn LossTerm>>,
}

impl Objective {
    /// Builds the paper's objective from a training configuration:
    /// hard CE (scaled by `1 − α` when PISL is on), then PISL, then MKI.
    pub fn from_config(cfg: &TrainConfig, dataset: &SelectorDataset, feature_dim: usize) -> Self {
        let mut terms: Vec<Box<dyn LossTerm>> = Vec::new();
        let hard_scale = cfg.pisl.map_or(1.0, |p| 1.0 - p.alpha);
        terms.push(Box::new(HardCe::new(hard_scale)));
        if let Some(pisl) = cfg.pisl {
            terms.push(Box::new(PislSoft::new(pisl, dataset)));
        }
        if let Some(mki) = cfg.mki {
            terms.push(Box::new(MkiAlign::new(
                mki,
                feature_dim,
                dataset.text_dim,
                cfg.seed,
            )));
        }
        Self { terms }
    }

    /// The term names, composition order.
    pub fn term_names(&self) -> Vec<&'static str> {
        self.terms.iter().map(|t| t.name()).collect()
    }

    /// Runs every term over the batch in order, accumulating the logit and
    /// feature gradients and summing losses.
    pub fn accumulate(&mut self, ctx: &BatchContext<'_>) -> ObjectiveOutput {
        let b = ctx.indices.len();
        let mut grad_logits = Tensor::zeros(ctx.logits.shape());
        let mut grad_features = LazyGrad::new(ctx.features.shape());
        let mut loss = 0.0f64;
        let mut per_sample = vec![0.0f64; b];
        for term in &mut self.terms {
            let out = term.accumulate(ctx, &mut grad_logits, &mut grad_features);
            debug_assert_eq!(out.per_sample.len(), b, "{} per-sample length", term.name());
            loss += out.loss;
            for (acc, &l) in per_sample.iter_mut().zip(&out.per_sample) {
                *acc += l;
            }
        }
        ObjectiveOutput {
            loss,
            per_sample,
            grad_logits,
            grad_features: grad_features.into_inner(),
        }
    }

    /// Calls `f` on every term's trainable parameters, composition order,
    /// without collecting them.
    pub fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for term in &mut self.terms {
            term.for_each_param_mut(f);
        }
    }

    /// Trainable parameters of every term, composition order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        for term in &mut self.terms {
            p.extend(term.params_mut());
        }
        p
    }

    /// Read-only view of the trainable parameters, `params_mut()` order.
    pub fn params(&self) -> Vec<&Param> {
        let mut p = Vec::new();
        for term in &self.terms {
            p.extend(term.params());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::testutil;

    fn toy_dataset() -> SelectorDataset {
        testutil::toy_dataset(4, 32, |i| i)
    }

    fn probe_batch(ds: &SelectorDataset, b: usize) -> (Vec<usize>, Vec<f32>, Vec<usize>) {
        let indices: Vec<usize> = (0..b).collect();
        let weights = vec![1.0f32; b];
        let targets: Vec<usize> = indices.iter().map(|&i| ds.hard_labels[i]).collect();
        (indices, weights, targets)
    }

    #[test]
    fn hard_only_objective_matches_plain_cross_entropy() {
        let ds = toy_dataset();
        let cfg = TrainConfig::default();
        let (indices, weights, targets) = probe_batch(&ds, 4);
        let features = Tensor::from_vec(&[4, 3], (0..12).map(|i| i as f32 * 0.1).collect());
        let logits = Tensor::from_vec(&[4, 12], (0..48).map(|i| (i % 7) as f32 * 0.2).collect());
        let mut obj = Objective::from_config(&cfg, &ds, 3);
        assert_eq!(obj.term_names(), vec!["hard-ce"]);
        let ctx = BatchContext {
            dataset: &ds,
            indices: &indices,
            weights: &weights,
            targets: &targets,
            features: &features,
            logits: &logits,
        };
        let out = obj.accumulate(&ctx);
        let reference = cross_entropy(&logits, &targets, Some(&weights));
        assert_eq!(out.loss, reference.loss);
        assert_eq!(out.per_sample, reference.per_sample);
        assert_eq!(out.grad_logits.data(), reference.grad.data());
        assert!(
            out.grad_features.is_none(),
            "no term touched the features, so no gradient is allocated"
        );
    }

    #[test]
    fn full_objective_composes_all_three_terms() {
        let ds = toy_dataset();
        let cfg = TrainConfig {
            pisl: Some(PislConfig::default()),
            mki: Some(MkiConfig {
                hidden: 16,
                proj_dim: 8,
                ..MkiConfig::default()
            }),
            ..TrainConfig::default()
        };
        let mut obj = Objective::from_config(&cfg, &ds, 6);
        assert_eq!(obj.term_names(), vec!["hard-ce", "pisl-soft", "mki-align"]);
        // MKI owns two MLPs: 4 linear layers, 8 params.
        assert_eq!(obj.params().len(), 8);
        assert_eq!(obj.params_mut().len(), 8);

        let (indices, weights, targets) = probe_batch(&ds, 4);
        let features = Tensor::from_vec(&[4, 6], (0..24).map(|i| (i % 5) as f32 * 0.3).collect());
        let logits = Tensor::from_vec(&[4, 12], (0..48).map(|i| (i % 9) as f32 * 0.1).collect());
        let ctx = BatchContext {
            dataset: &ds,
            indices: &indices,
            weights: &weights,
            targets: &targets,
            features: &features,
            logits: &logits,
        };
        let out = obj.accumulate(&ctx);
        assert!(out.loss.is_finite() && out.loss > 0.0);
        assert_eq!(out.per_sample.len(), 4);
        // MKI must route gradient into the features, PISL+CE into logits.
        let gf = out.grad_features.expect("MKI touched the features");
        assert!(gf.data().iter().any(|&v| v != 0.0));
        assert!(out.grad_logits.data().iter().any(|&v| v != 0.0));
    }
}
