//! Allocation counts of the KDSelector training step on the served ResNet
//! and on every other encoder architecture (PISL + MKI), counted rather
//! than asserted: a counting global allocator tallies the allocations the
//! calling thread makes. The objective is counted alone, through a direct
//! `Objective::accumulate` call; the whole step is counted on a warm
//! `TrainSession` epoch, the step `train` runs. After a first epoch sizes
//! the training workspace, the encoder and classifier passes, the gradient
//! clip and the Adam step allocate nothing, at a full batch and a tail
//! batch: a warm epoch's total is its named fixed allocations plus one
//! objective's per step. A pruned PA epoch adds only its plan's buffers.
//!
//! Lives in its own integration binary because the allocator is
//! process-global; runs at `KD_THREADS=1` so every allocation lands on the
//! counting thread.

use kdselector::core::dataset::SelectorDataset;
use kdselector::core::labels::PerfMatrix;
use kdselector::core::train::{BatchContext, Objective, TrainConfig, TrainSession};
use kdselector::core::Architecture;
use kdselector::nn::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tsdata::{Benchmark, BenchmarkConfig, WindowConfig};
use tspar::Parallelism;
use tstext::FrozenTextEncoder;

/// Counts the allocations (reallocations included) of each thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialised thread-local cell that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's `alloc` contract binds the caller, and the
    // body forwards to `System` under the same contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's `alloc_zeroed` contract binds the caller, and the
    // body forwards to `System` under the same contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the trait's `realloc` contract binds the caller, and the
    // body forwards to `System` under the same contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the trait's `dealloc` contract binds the caller, and the
    // body forwards to `System` under the same contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread makes while running `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// Allocations of the objective per step (`Objective::accumulate` over
/// hard CE, PISL and MKI), every one a loss term's returned or staged
/// value:
/// * the accumulation itself: the logit-gradient tensor (shape + data),
///   the feature-gradient accumulator's shape and, on MKI's first touch,
///   its tensor (2), and the summed per-sample losses (1);
/// * hard CE: `cross_entropy`'s softmax and gradient tensors (2 each) and
///   per-sample losses (1), then the term's scaled per-sample copy (1);
/// * PISL: the soft-target tensor's shape (1), `soft_cross_entropy`'s
///   five (as `cross_entropy`'s) and the scaled copy (1);
/// * MKI: the knowledge tensor's shape (1); each projection MLP's
///   returned output and input gradient (2 each, two MLPs, their
///   activations on the MLPs' own workspaces); `info_nce`'s normalised
///   copies, similarity and probability matrices, gradients and
///   per-sample losses (25); the scaled copy (1).
const OBJECTIVE: usize = (2 + 1 + 2 + 1) + (5 + 1) + (1 + 5 + 1) + (1 + 2 * (2 + 2) + 25 + 1);

/// Allocations a warm, unpruned epoch makes outside its steps: the epoch
/// plan's index and weight lists.
const EPOCH_FIXED: usize = 2;

/// Allocations a warm PA epoch that prunes makes outside its steps: the
/// plan's average losses, above-mean samples and bucket buffer, and its
/// index and weight lists.
const PA_EPOCH_FIXED: usize = 5;

/// Window-64 dataset over the tiny benchmark, with synthetic perf rows:
/// three series of 27 windows, so an epoch at batch 64 runs one full
/// batch and a 17-window tail.
fn dataset() -> SelectorDataset {
    let mut cfg = BenchmarkConfig::tiny();
    cfg.series_length = 896;
    let series: Vec<_> = Benchmark::generate(cfg).train.into_iter().take(3).collect();
    let rows = (0..series.len())
        .map(|i| {
            (0..12)
                .map(|m| if m == i % 12 { 0.8 } else { 0.1 })
                .collect()
        })
        .collect();
    let perf = PerfMatrix {
        series_ids: series.iter().map(|s| s.id.clone()).collect(),
        rows,
    };
    let wc = WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    };
    SelectorDataset::build(&series, &perf, wc, &FrozenTextEncoder::new(64, 0))
}

/// Allocations of one `Objective::accumulate` call over the first `b`
/// windows, on deterministic features and logits.
fn objective_allocations(
    objective: &mut Objective,
    ds: &SelectorDataset,
    dim: usize,
    b: usize,
) -> usize {
    let indices: Vec<usize> = (0..b).collect();
    let weights = vec![1.0f32; b];
    let targets: Vec<usize> = indices.iter().map(|&i| ds.hard_labels[i]).collect();
    let pattern = |n: usize| (0..n).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
    let features = Tensor::from_vec(&[b, dim], pattern(b * dim));
    let logits = Tensor::from_vec(&[b, 12], pattern(b * 12));
    let ctx = BatchContext {
        dataset: ds,
        indices: &indices,
        weights: &weights,
        targets: &targets,
        features: &features,
        logits: &logits,
    };
    allocations_in(|| objective.accumulate(&ctx)).0
}

#[test]
fn resnet_steps_allocate_only_in_the_objective() {
    tspar::set_parallelism(Parallelism::Fixed(1));
    let ds = dataset();
    assert_eq!(ds.len(), 64 + 17, "one full batch and a 17-window tail");
    for arch in Architecture::ALL {
        let cfg = TrainConfig {
            width: 8,
            epochs: 3,
            batch_size: 64,
            ..TrainConfig::knowledge_enhanced(arch)
        };
        let dim = arch.feature_dim(cfg.width);
        let mut objective = Objective::from_config(&cfg, &ds, dim);
        // The first call sizes the terms' scratch and the MLP workspaces.
        objective_allocations(&mut objective, &ds, dim, 64);
        for b in [64, 17, 64] {
            let got = objective_allocations(&mut objective, &ds, dim, b);
            assert_eq!(got, OBJECTIVE, "{} objective at batch {b}", arch.name());
        }

        let mut session = TrainSession::new(&ds, &cfg);
        // The first epoch sizes the workspace and the optimizer moments.
        session.run_epoch(&ds);
        while !session.is_complete() {
            let (got, report) = allocations_in(|| session.run_epoch(&ds));
            assert_eq!(report.examined, ds.len(), "an unpruned epoch");
            assert_eq!(
                got,
                EPOCH_FIXED + 2 * OBJECTIVE,
                "{} epoch {}: two steps (64 + 17 windows)",
                arch.name(),
                report.epoch
            );
        }
    }
}

#[test]
fn pa_epochs_allocate_only_the_plan_and_the_objective() {
    tspar::set_parallelism(Parallelism::Fixed(1));
    let ds = dataset();
    let cfg = TrainConfig {
        width: 8,
        epochs: 3,
        batch_size: 64,
        ..TrainConfig::kdselector(Architecture::ResNet)
    };
    let mut session = TrainSession::new(&ds, &cfg);
    // The first epoch trains on full data and sizes the workspace; with
    // 3 epochs and the default anneal, epochs 1 and 2 are pruned.
    session.run_epoch(&ds);
    while !session.is_complete() {
        let (got, report) = allocations_in(|| session.run_epoch(&ds));
        assert!(report.examined < ds.len(), "epoch {} prunes", report.epoch);
        let steps = report.examined.div_ceil(cfg.batch_size);
        assert_eq!(
            got,
            PA_EPOCH_FIXED + steps * OBJECTIVE,
            "PA epoch {}: {steps} steps over {} windows",
            report.epoch,
            report.examined
        );
    }
}
