//! Deterministic data-parallel gradient accumulation.
//!
//! Each minibatch is split into `cfg.replicas` **fixed micro-partitions**
//! ([`micro_partitions`]): contiguous index ranges whose boundaries depend
//! only on the batch size and the replica count — never on `KD_THREADS`
//! or which worker runs what. Every replica owns a
//! full clone of the model (encoder, classifier, objective terms) and runs
//! forward/backward over its partition; the fan-out executes on
//! [`tspar`]'s persistent worker pool via `par_chunks_mut` (one replica
//! per chunk, so each replica is touched by exactly one executor).
//!
//! Reduction is **ordered**: replica gradients fold into the master model
//! in partition order `0, 1, …, R−1`, each scaled by its partition's share
//! of the batch (`b_r / b`, converting the replica's micro-batch mean into
//! the batch mean), and batch-norm running statistics average over the
//! participating replicas in the same fixed order. Floating-point
//! summation order is therefore a function of the *configuration*, not the
//! schedule, which makes training bitwise-identical at any thread count:
//!
//! * `KD_THREADS=1` runs the partitions serially, in order;
//! * `KD_THREADS=N` runs them on pool workers;
//! * both produce the same per-replica results (each replica's compute is
//!   independent and the kernels are themselves scheduling-deterministic),
//!   and the ordered reduction consumes them identically.
//!
//! What the replica count *does* change is the objective itself: batch
//! normalisation and the InfoNCE contrastive term see micro-batches of
//! `b/R` samples instead of the full minibatch, so `replicas: 2` is a
//! (deterministically) different training run than `replicas: 1` — the
//! same trade every synchronous data-parallel trainer makes.

use super::session::{StepOutput, TrainerCore};
use super::TrainConfig;
use crate::dataset::SelectorDataset;
use std::ops::Range;

/// The fixed micro-partition boundaries for a batch of `batch` samples
/// over `replicas` replicas: `replicas` contiguous ranges of
/// `ceil(batch / replicas)` samples (the tail ones possibly short or
/// empty). Depends only on the two arguments.
pub fn micro_partitions(batch: usize, replicas: usize) -> Vec<Range<usize>> {
    let r = replicas.max(1);
    let chunk = batch.div_ceil(r).max(1);
    (0..r)
        .map(|i| (i * chunk).min(batch)..((i + 1) * chunk).min(batch))
        .collect()
}

/// One replica: a full model clone plus the slot its step output lands in
/// (written by the executor that runs the replica, read back in partition
/// order by the reduction).
struct Replica {
    core: TrainerCore,
    out: Option<StepOutput>,
}

/// The session's data-parallel replica set.
pub struct ReplicaSet {
    replicas: Vec<Replica>,
}

impl ReplicaSet {
    /// Clones the master core `cfg.replicas` times.
    pub(crate) fn new(master: &TrainerCore, cfg: &TrainConfig) -> Self {
        Self {
            replicas: (0..cfg.replicas.max(1))
                .map(|_| Replica {
                    core: master.replicate(),
                    out: None,
                })
                .collect(),
        }
    }

    /// Replica count.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set holds no replicas (never true for a set built by a
    /// session).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// One data-parallel training step: broadcast the master weights, run
    /// every replica over its fixed micro-partition, reduce gradients and
    /// running statistics into the master in partition order. The caller
    /// (the session) then clips and applies the optimizer step on the
    /// master.
    pub(crate) fn step(
        &mut self,
        master: &mut TrainerCore,
        dataset: &SelectorDataset,
        indices: &[usize],
        weights: &[f32],
    ) -> StepOutput {
        let b = indices.len();
        debug_assert!(b > 0, "empty minibatch");
        let parts = micro_partitions(b, self.replicas.len());

        // 1. Broadcast: every replica starts the step on the master's
        //    post-optimizer weights and buffers.
        for rep in &mut self.replicas {
            rep.core.sync_from(master);
            rep.out = None;
        }

        // 2. Fan out: one replica per chunk, so partition `r` runs on
        //    replica `r` wherever the pool schedules it. Nested parallel
        //    regions inside a replica's kernels run inline on the executor
        //    (tspar's worker rule), so the machine is never oversubscribed.
        tspar::par_chunks_mut(&mut self.replicas, 1, |ri, chunk| {
            let span = parts[ri].clone();
            if span.is_empty() {
                return;
            }
            let rep = &mut chunk[0];
            rep.out = Some(
                rep.core
                    .run_batch(dataset, &indices[span.clone()], &weights[span]),
            );
        });

        // 3. Ordered reduction. Scaling by `b_r / b` converts each
        //    replica's micro-batch-mean gradients and loss into the batch
        //    mean; per-sample losses concatenate back into batch order
        //    because partitions are contiguous.
        master.zero_grads();
        let mut loss = 0.0f64;
        let mut per_sample = Vec::with_capacity(b);
        let mut correct = 0usize;
        {
            let mut master_params = master.params_mut();
            for (ri, rep) in self.replicas.iter_mut().enumerate() {
                let Some(out) = rep.out.take() else { continue };
                let scale = parts[ri].len() as f32 / b as f32;
                for (mp, rp) in master_params.iter_mut().zip(rep.core.params()) {
                    axpy(mp.grad.data_mut(), rp.grad.data(), scale);
                }
                loss += f64::from(scale) * out.loss;
                per_sample.extend(out.per_sample);
                correct += out.correct;
            }
        }
        debug_assert_eq!(per_sample.len(), b);

        // 4. Batch-norm running statistics: average the participating
        //    replicas' buffers into the master, fixed order. (A replica
        //    with an empty partition never ran a forward pass, so its
        //    buffers still equal the master's pre-step state and are
        //    excluded.)
        let active = parts.iter().filter(|p| !p.is_empty()).count().max(1);
        {
            let mut master_buffers = master.buffers_mut();
            for buf in master_buffers.iter_mut() {
                buf.iter_mut().for_each(|v| *v = 0.0);
            }
            for (ri, rep) in self.replicas.iter().enumerate() {
                if parts[ri].is_empty() {
                    continue;
                }
                for (dst, src) in master_buffers.iter_mut().zip(rep.core.buffers()) {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
            let inv = 1.0 / active as f32;
            for buf in master_buffers.iter_mut() {
                buf.iter_mut().for_each(|v| *v *= inv);
            }
        }

        StepOutput {
            loss,
            per_sample,
            correct,
        }
    }
}

/// `dst += a * src`, elementwise.
fn axpy(dst: &mut [f32], src: &[f32], a: f32) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += a * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_the_batch_contiguously() {
        for (b, r) in [(64, 4), (50, 4), (7, 3), (16, 1), (3, 8), (1, 2)] {
            let parts = micro_partitions(b, r);
            assert_eq!(parts.len(), r.max(1), "b={b} r={r}");
            let mut expect = 0usize;
            for p in &parts {
                assert_eq!(p.start, expect.min(b), "b={b} r={r}");
                assert!(p.end <= b);
                expect = expect.max(p.end);
            }
            assert_eq!(expect, b, "partitions must cover the batch");
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, b);
        }
    }

    #[test]
    fn partitions_depend_only_on_shape() {
        // The determinism contract in one line: the split never consults
        // thread counts or any global state.
        assert_eq!(micro_partitions(10, 4), micro_partitions(10, 4));
        assert_eq!(
            micro_partitions(10, 4),
            vec![0..3, 3..6, 6..9, 9..10],
            "10 samples over 4 replicas: 3/3/3/1"
        );
        assert_eq!(
            micro_partitions(2, 4),
            vec![0..1, 1..2, 2..2, 2..2],
            "tiny batches leave tail replicas idle"
        );
    }
}
