//! Dynamic training-data pruning: InfoBatch and the paper's PA module.
//!
//! Both strategies score each sample by the **running mean of its past
//! per-epoch losses** (`¯L_i`) and prune below-mean samples with probability
//! `r`, rescaling surviving gradients by `1/(1-r)` so the expected objective
//! is unchanged (paper §A.2). PA additionally prunes *redundant* above-mean
//! samples: samples that hash to the same LSH signature **and** fall in the
//! same equi-depth average-loss bin form a bucket, and buckets of size > 1
//! are pruned the same way (§3, "Pruning-based acceleration").
//!
//! Following InfoBatch, the final epochs anneal back to the full dataset so
//! the last gradient steps are unbiased sample-for-sample.
//!
//! # Determinism and resume
//!
//! Pruning randomness is drawn from a **per-epoch stream**: the draws for
//! epoch `e` depend only on the state's seed and `e`, never on how many
//! draws earlier epochs made. Together with [`PruneState::snapshot`] /
//! [`PruneState::restore`] (which round-trip the loss bookkeeping), a
//! training session resumed from an epoch-`k` checkpoint replays epochs
//! `k+1..n` with exactly the pruning plans of an uninterrupted run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tslsh::SimHash;

/// Which pruning strategy the trainer uses.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PruningStrategy {
    /// Iterate over all samples every epoch (the standard framework).
    None,
    /// InfoBatch: prune below-mean samples with probability `ratio`.
    InfoBatch {
        /// Pruning probability `r`.
        ratio: f64,
        /// Fraction of final epochs trained on full data.
        anneal: f64,
    },
    /// The paper's PA: InfoBatch + LSH-bucketed pruning of redundant
    /// above-mean samples.
    Pa {
        /// Pruning probability `r`.
        ratio: f64,
        /// SimHash signature bits.
        lsh_bits: usize,
        /// Number of equi-depth average-loss bins `p`.
        bins: usize,
        /// Fraction of final epochs trained on full data.
        anneal: f64,
    },
}

impl PruningStrategy {
    /// The paper's default InfoBatch setting (r = 0.8, 12.5 % anneal).
    pub fn info_batch_default() -> Self {
        PruningStrategy::InfoBatch {
            ratio: 0.8,
            anneal: 0.125,
        }
    }

    /// The paper's default PA setting (r = 0.8, 14 bits, 8 bins).
    pub fn pa_default() -> Self {
        PruningStrategy::Pa {
            ratio: 0.8,
            lsh_bits: 14,
            bins: 8,
            anneal: 0.125,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PruningStrategy::None => "full-data",
            PruningStrategy::InfoBatch { .. } => "InfoBatch",
            PruningStrategy::Pa { .. } => "PA",
        }
    }
}

/// The samples (and gradient weights) to use for one epoch.
#[derive(Debug, Clone)]
pub struct EpochPlan {
    /// Sample indices to iterate this epoch.
    pub indices: Vec<usize>,
    /// Gradient rescale weight per kept sample (aligned with `indices`).
    pub weights: Vec<f32>,
}

impl EpochPlan {
    fn full(n: usize) -> Self {
        Self {
            indices: (0..n).collect(),
            weights: vec![1.0; n],
        }
    }
}

/// Serialisable snapshot of the per-sample loss bookkeeping — everything a
/// checkpoint must carry to resume pruning exactly. LSH signatures and the
/// per-epoch RNG streams are *not* part of the snapshot: both are derived
/// deterministically from inputs a resumed session recomputes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PruneSnapshot {
    /// Summed past per-sample losses.
    pub loss_sum: Vec<f64>,
    /// Visit counts per sample.
    pub loss_count: Vec<u32>,
}

/// Per-sample loss bookkeeping plus the pruning logic.
pub struct PruneState {
    strategy: PruningStrategy,
    n: usize,
    loss_sum: Vec<f64>,
    loss_count: Vec<u32>,
    /// LSH signature per sample (PA only).
    signatures: Option<Vec<u64>>,
    seed: u64,
}

/// Decorrelates the pruning draws of one epoch from every other epoch's:
/// a SplitMix-style multiply keeps nearby epochs' streams unrelated.
fn epoch_stream(seed: u64, epoch: usize) -> u64 {
    seed ^ (epoch as u64)
        .wrapping_add(1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl PruneState {
    /// Creates the state. For PA, `lsh_inputs` provides the sample vectors
    /// `X_i` to hash; signatures are computed once here, **before** training
    /// starts, because sample values never change (§3).
    pub fn new(
        strategy: PruningStrategy,
        lsh_inputs: Option<&[Vec<f64>]>,
        n: usize,
        seed: u64,
    ) -> Self {
        let signatures = match strategy {
            PruningStrategy::Pa { lsh_bits, .. } => {
                let inputs = lsh_inputs.expect("PA requires LSH inputs");
                assert_eq!(inputs.len(), n, "LSH inputs must cover all samples");
                let dim = inputs.first().map_or(1, |v| v.len());
                let hasher = SimHash::new(dim.max(1), lsh_bits, seed ^ 0x5A5A);
                // Signatures are independent per sample; hash them on the
                // shared pool (this is the PA setup cost the paper folds
                // into training time).
                Some(tspar::par_map(inputs.len(), |i| hasher.hash(&inputs[i])))
            }
            _ => None,
        };
        Self {
            strategy,
            n,
            loss_sum: vec![0.0; n],
            loss_count: vec![0; n],
            signatures,
            seed,
        }
    }

    /// Snapshots the loss bookkeeping for checkpointing.
    pub fn snapshot(&self) -> PruneSnapshot {
        PruneSnapshot {
            loss_sum: self.loss_sum.clone(),
            loss_count: self.loss_count.clone(),
        }
    }

    /// Restores a snapshot taken by [`PruneState::snapshot`]. Subsequent
    /// [`PruneState::plan_epoch`] calls then produce exactly the plans an
    /// uninterrupted run would (per-epoch RNG streams make the draws
    /// history-free).
    ///
    /// # Errors
    /// Rejects snapshots whose length disagrees with this state's sample
    /// count.
    pub fn restore(&mut self, snapshot: &PruneSnapshot) -> Result<(), String> {
        if snapshot.loss_sum.len() != self.n || snapshot.loss_count.len() != self.n {
            return Err(format!(
                "prune snapshot covers {} sums / {} counts, state has {} samples",
                snapshot.loss_sum.len(),
                snapshot.loss_count.len(),
                self.n
            ));
        }
        self.loss_sum.clone_from(&snapshot.loss_sum);
        self.loss_count.clone_from(&snapshot.loss_count);
        Ok(())
    }

    /// Records the unweighted per-sample losses of the samples visited in
    /// the current epoch.
    pub fn record_losses(&mut self, indices: &[usize], losses: &[f64]) {
        assert_eq!(indices.len(), losses.len(), "index/loss length mismatch");
        for (&i, &l) in indices.iter().zip(losses) {
            self.loss_sum[i] += l;
            self.loss_count[i] += 1;
        }
    }

    /// Average past loss of sample `i` (`¯L_i`); `None` if never visited.
    pub fn avg_loss(&self, i: usize) -> Option<f64> {
        (self.loss_count[i] > 0).then(|| self.loss_sum[i] / self.loss_count[i] as f64)
    }

    /// Plans the sample set for `epoch` of `total_epochs`.
    ///
    /// Planning is read-only: the randomness comes from a per-epoch stream
    /// derived from the state seed and `epoch`, so the same state (same
    /// recorded losses) always yields the same plan for a given epoch —
    /// regardless of which epochs were planned before.
    pub fn plan_epoch(&self, epoch: usize, total_epochs: usize) -> EpochPlan {
        let mut rng = StdRng::seed_from_u64(epoch_stream(self.seed, epoch));
        let (ratio, anneal) = match self.strategy {
            PruningStrategy::None => return EpochPlan::full(self.n),
            PruningStrategy::InfoBatch { ratio, anneal } => (ratio, anneal),
            PruningStrategy::Pa { ratio, anneal, .. } => (ratio, anneal),
        };
        // First epoch: no loss history yet. Last `anneal` fraction: full data.
        let anneal_start = ((1.0 - anneal) * total_epochs as f64).ceil() as usize;
        if epoch == 0 || epoch >= anneal_start {
            return EpochPlan::full(self.n);
        }

        // Split by the mean of the average losses.
        let avg: Vec<f64> = (0..self.n)
            .map(|i| self.avg_loss(i).unwrap_or(f64::INFINITY))
            .collect();
        let visited = || avg.iter().filter(|a| a.is_finite());
        let n_visited = visited().count();
        if n_visited == 0 {
            return EpochPlan::full(self.n);
        }
        let mean: f64 = visited().sum::<f64>() / n_visited as f64;

        let mut indices = Vec::with_capacity(self.n);
        let mut weights = Vec::with_capacity(self.n);
        let keep_weight = (1.0 / (1.0 - ratio)) as f32;

        // Below-mean samples: InfoBatch pruning (never-visited samples count
        // as high-loss and are kept).
        let mut high: Vec<usize> = Vec::with_capacity(self.n);
        for (i, &avg_i) in avg.iter().enumerate() {
            if avg_i < mean {
                if rng.random_bool(1.0 - ratio) {
                    indices.push(i);
                    weights.push(keep_weight);
                }
            } else {
                high.push(i);
            }
        }

        match self.strategy {
            PruningStrategy::InfoBatch { .. } => {
                // Above-mean samples are all kept with weight 1.
                for i in high {
                    indices.push(i);
                    weights.push(1.0);
                }
            }
            PruningStrategy::Pa { bins, .. } => {
                self.prune_high_buckets(
                    &mut high,
                    &avg,
                    bins,
                    ratio,
                    &mut rng,
                    &mut indices,
                    &mut weights,
                );
            }
            PruningStrategy::None => unreachable!(),
        }
        EpochPlan { indices, weights }
    }

    /// PA's above-mean handling: equi-depth bins over `¯L_i` × LSH signature
    /// → buckets; buckets with more than one member are pruned with gradient
    /// rescaling, singletons are kept untouched.
    ///
    /// The plan is one buffer of `(signature, bin, rank, sample)` sorted on
    /// its first three fields: buckets come out in `(signature, bin)` order
    /// with members in rank order, the order the RNG draws depend on.
    #[allow(clippy::too_many_arguments)]
    fn prune_high_buckets(
        &self,
        high: &mut [usize],
        avg: &[f64],
        bins: usize,
        ratio: f64,
        rng: &mut StdRng,
        indices: &mut Vec<usize>,
        weights: &mut Vec<f32>,
    ) {
        let signatures = self.signatures.as_ref().expect("PA state has signatures");
        let keep_weight = (1.0 / (1.0 - ratio)) as f32;
        // Rank by average loss for equi-depth binning; equal losses keep
        // sample order. Unvisited samples (infinite avg) rank last and land
        // in the top bin.
        high.sort_unstable_by(|&a, &b| {
            avg[a]
                .partial_cmp(&avg[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let m = high.len().max(1);
        let bins = bins.max(1);
        let mut plan: Vec<(u64, usize, usize, usize)> = high
            .iter()
            .enumerate()
            .map(|(rank, &i)| (signatures[i], rank * bins / m, rank, i))
            .collect();
        plan.sort_unstable_by_key(|&(signature, bin, rank, _)| (signature, bin, rank));
        for bucket in plan.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            if let [(_, _, _, i)] = bucket {
                indices.push(*i);
                weights.push(1.0);
            } else {
                for &(_, _, _, i) in bucket {
                    if rng.random_bool(1.0 - ratio) {
                        indices.push(i);
                        weights.push(keep_weight);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a state with synthetic loss history: first half low losses,
    /// second half high losses.
    fn seeded_state(strategy: PruningStrategy, n: usize) -> PruneState {
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                // Two clusters of very similar samples + distinct tail.
                if i % 2 == 0 {
                    vec![1.0, 2.0, 3.0, (i / 16) as f64 * 1e-4]
                } else {
                    vec![-(i as f64), 1.0, (i * i) as f64 * 0.1, 5.0]
                }
            })
            .collect();
        let mut st = PruneState::new(strategy, Some(&inputs), n, 42);
        let idx: Vec<usize> = (0..n).collect();
        let losses: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.1 } else { 2.0 }).collect();
        st.record_losses(&idx, &losses);
        st
    }

    #[test]
    fn no_pruning_keeps_everything() {
        let st = PruneState::new(PruningStrategy::None, None, 100, 0);
        let plan = st.plan_epoch(3, 10);
        assert_eq!(plan.indices.len(), 100);
        assert!(plan.weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn first_epoch_is_always_full() {
        let st = seeded_state(PruningStrategy::info_batch_default(), 100);
        let plan = st.plan_epoch(0, 10);
        assert_eq!(plan.indices.len(), 100);
    }

    #[test]
    fn anneal_epochs_are_full() {
        let st = seeded_state(PruningStrategy::info_batch_default(), 100);
        let plan = st.plan_epoch(9, 10); // last epoch with anneal 0.125
        assert_eq!(plan.indices.len(), 100);
    }

    #[test]
    fn infobatch_prunes_only_low_loss_samples() {
        let n = 400;
        let st = seeded_state(
            PruningStrategy::InfoBatch {
                ratio: 0.8,
                anneal: 0.0,
            },
            n,
        );
        let plan = st.plan_epoch(1, 10);
        // All high-loss samples (second half) present with weight 1.
        let kept_high = plan
            .indices
            .iter()
            .zip(&plan.weights)
            .filter(|(&i, _)| i >= n / 2)
            .count();
        assert_eq!(kept_high, n / 2);
        for (&i, &w) in plan.indices.iter().zip(&plan.weights) {
            if i >= n / 2 {
                assert_eq!(w, 1.0);
            } else {
                assert!((w - 5.0).abs() < 1e-5, "rescale 1/(1-0.8) = 5");
            }
        }
        // Roughly 20% of low-loss samples survive.
        let kept_low = plan.indices.len() - kept_high;
        assert!((10..=80).contains(&kept_low), "kept_low={kept_low}");
    }

    #[test]
    fn pa_prunes_more_than_infobatch() {
        let n = 400;
        let ib = seeded_state(
            PruningStrategy::InfoBatch {
                ratio: 0.8,
                anneal: 0.0,
            },
            n,
        );
        let pa = seeded_state(
            PruningStrategy::Pa {
                ratio: 0.8,
                lsh_bits: 14,
                bins: 4,
                anneal: 0.0,
            },
            n,
        );
        let kept_ib = ib.plan_epoch(1, 10).indices.len();
        let kept_pa = pa.plan_epoch(1, 10).indices.len();
        assert!(
            kept_pa < kept_ib,
            "PA should prune redundant high-loss samples: PA={kept_pa} IB={kept_ib}"
        );
    }

    #[test]
    fn pa_keeps_singleton_buckets_untouched() {
        // All-distinct samples with distinct losses: every bucket is a
        // singleton, so PA must keep every high-loss sample with weight 1.
        let n = 64;
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..8)
                    .map(|j| ((i * 131 + j * 17) % 97) as f64 - 48.0)
                    .collect()
            })
            .collect();
        let mut st = PruneState::new(
            PruningStrategy::Pa {
                ratio: 0.8,
                lsh_bits: 16,
                bins: 8,
                anneal: 0.0,
            },
            Some(&inputs),
            n,
            3,
        );
        let idx: Vec<usize> = (0..n).collect();
        let losses: Vec<f64> = (0..n).map(|i| i as f64).collect();
        st.record_losses(&idx, &losses);
        let plan = st.plan_epoch(1, 10);
        // Kept high-loss samples in singleton buckets carry weight 1; the
        // only weight-rescaled samples come from (rare) LSH collisions.
        let high_weight_one = plan
            .indices
            .iter()
            .zip(&plan.weights)
            .filter(|(&i, &w)| i >= 32 && w == 1.0)
            .count();
        // Most high-loss samples survive untouched (a handful of 16-bit LSH
        // collisions among 64 vectors is expected).
        assert!(
            high_weight_one >= 24,
            "singleton high-loss kept: {high_weight_one}"
        );
    }

    #[test]
    fn expected_weighted_count_is_unbiased() {
        // Σ w over kept low-loss samples ≈ number of low-loss samples.
        let n = 2000;
        let st = seeded_state(
            PruningStrategy::InfoBatch {
                ratio: 0.8,
                anneal: 0.0,
            },
            n,
        );
        let plan = st.plan_epoch(1, 10);
        let weighted_low: f32 = plan
            .indices
            .iter()
            .zip(&plan.weights)
            .filter(|(&i, _)| i < n / 2)
            .map(|(_, &w)| w)
            .sum();
        let expected = (n / 2) as f32;
        assert!(
            (weighted_low - expected).abs() < expected * 0.2,
            "weighted {weighted_low} vs expected {expected}"
        );
    }

    #[test]
    fn record_losses_accumulates_running_mean() {
        let mut st = PruneState::new(PruningStrategy::None, None, 2, 0);
        st.record_losses(&[0], &[1.0]);
        st.record_losses(&[0], &[3.0]);
        assert_eq!(st.avg_loss(0), Some(2.0));
        assert_eq!(st.avg_loss(1), None);
    }
}
