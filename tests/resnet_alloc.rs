//! Allocation counts of one KDSelector training step on the served ResNet
//! and on every other encoder architecture (PISL + MKI), counted rather
//! than asserted: a counting global allocator tallies the allocations the
//! calling thread makes. After a first step sizes the training workspace,
//! the encoder and classifier passes, the gradient clip and the Adam step
//! allocate nothing, at two batch sizes;
//! the whole step's count is pinned with every remaining allocation named
//! (all of them belong to the objective's loss terms). The step is the one
//! `TrainSession` runs, assembled here from the public parts so each part
//! is counted on its own.
//!
//! Lives in its own integration binary because the allocator is
//! process-global; runs at `KD_THREADS=1` so every allocation lands on the
//! counting thread.

use kdselector::core::dataset::SelectorDataset;
use kdselector::core::labels::PerfMatrix;
use kdselector::core::train::{BatchContext, Objective, TrainConfig};
use kdselector::core::Architecture;
use kdselector::nn::layers::{Layer, Linear, Seq};
use kdselector::nn::optim::{clip_grad_norm_with, Adam};
use kdselector::nn::{Dims, Param, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// One TrainSession step, split into its parts.
struct Trainer {
    encoder: Seq,
    classifier: Linear,
    objective: Objective,
    opt: Adam,
    ws: Workspace,
    x: Vec<f32>,
    targets: Vec<usize>,
    features: Tensor,
    logits: Tensor,
    grad_features: Tensor,
}

/// Allocations counted per part of one step.
#[derive(Debug, PartialEq)]
struct StepAllocs {
    forward: usize,
    objective: usize,
    backward: usize,
    clip_and_adam: usize,
}

impl Trainer {
    fn new(cfg: &TrainConfig, ds: &SelectorDataset) -> Self {
        let dim = cfg.arch.feature_dim(cfg.width);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC1A5);
        Self {
            encoder: cfg.arch.build(ds.window_cfg.length, cfg.width, cfg.seed),
            classifier: Linear::new(dim, 12, &mut rng),
            objective: Objective::from_config(cfg, ds, dim),
            opt: Adam::new(cfg.lr, cfg.weight_decay),
            ws: Workspace::new(),
            x: Vec::new(),
            targets: Vec::new(),
            features: Tensor::zeros(&[0]),
            logits: Tensor::zeros(&[0]),
            grad_features: Tensor::zeros(&[0]),
        }
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.encoder.for_each_param_mut(f);
        self.classifier.for_each_param_mut(f);
        self.objective.for_each_param_mut(f);
    }

    fn step(&mut self, ds: &SelectorDataset, indices: &[usize], weights: &[f32]) -> StepAllocs {
        let window = ds.window_cfg.length;
        let (forward, xd) = allocations_in(|| {
            self.x.clear();
            for &i in indices {
                self.x.extend_from_slice(&ds.windows[i]);
            }
            self.targets.clear();
            self.targets
                .extend(indices.iter().map(|&i| ds.hard_labels[i]));
            self.for_each_param_mut(&mut |p| p.zero_grad());
            let xd = Dims::new(&[indices.len(), 1, window]);
            let zd = self.encoder.out_dims(xd);
            let enc_len = self.encoder.ws_len(xd, true);
            let ws = self.ws.get(enc_len + self.classifier.ws_len(zd, true));
            let (enc_ws, head_ws) = ws.split_at_mut(enc_len);
            self.features.set_shape(zd.as_slice());
            self.logits
                .set_shape(self.classifier.out_dims(zd).as_slice());
            self.encoder
                .forward_ws(&self.x, xd, self.features.data_mut(), enc_ws);
            self.classifier
                .forward_ws(self.features.data(), zd, self.logits.data_mut(), head_ws);
            xd
        });
        let (objective, out) = allocations_in(|| {
            self.objective.accumulate(&BatchContext {
                dataset: ds,
                indices,
                weights,
                targets: &self.targets,
                features: &self.features,
                logits: &self.logits,
            })
        });
        let (backward, ()) = allocations_in(|| {
            let zd = self.encoder.out_dims(xd);
            let enc_len = self.encoder.ws_len(xd, true);
            let head_len = self.classifier.ws_len(zd, true);
            let scratch_len = self.encoder.grad_len(xd).max(self.classifier.grad_len(zd));
            let ws = self.ws.get(enc_len + head_len + scratch_len + xd.numel());
            let (enc_ws, rest) = ws.split_at_mut(enc_len);
            let (head_ws, rest) = rest.split_at_mut(head_len);
            let (scratch, grad_x) = rest.split_at_mut(scratch_len);
            self.grad_features.set_shape(zd.as_slice());
            self.classifier.backward_ws(
                self.features.data(),
                zd,
                self.logits.data(),
                out.grad_logits.data(),
                self.grad_features.data_mut(),
                (head_ws, &mut *scratch),
            );
            if let Some(g) = &out.grad_features {
                self.grad_features.add_assign(g);
            }
            self.encoder.backward_ws(
                &self.x,
                xd,
                self.features.data(),
                self.grad_features.data(),
                grad_x,
                (enc_ws, scratch),
            );
        });
        drop(out);
        let (clip_and_adam, ()) = allocations_in(|| {
            let mut opt = std::mem::replace(&mut self.opt, Adam::new(0.0, 0.0));
            clip_grad_norm_with(|f| self.for_each_param_mut(f), 1.0);
            opt.step_with(|f| self.for_each_param_mut(f));
            self.opt = opt;
        });
        StepAllocs {
            forward,
            objective,
            backward,
            clip_and_adam,
        }
    }
}

/// Window-64 dataset over the tiny benchmark, with synthetic perf rows.
fn dataset() -> SelectorDataset {
    let mut cfg = BenchmarkConfig::tiny();
    cfg.series_length = 1024;
    let series: Vec<_> = Benchmark::generate(cfg).train.into_iter().take(4).collect();
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

#[test]
fn resnet_steps_allocate_only_in_the_objective() {
    tspar::set_parallelism(Parallelism::Fixed(1));
    let ds = dataset();
    assert!(ds.len() >= 64, "need a full batch, got {}", ds.len());
    let batch: Vec<usize> = (0..64).map(|i| (i * 7) % ds.len()).collect();
    let weights = vec![1.0f32; 64];
    for arch in Architecture::ALL {
        let cfg = TrainConfig {
            width: 8,
            ..TrainConfig::kdselector(arch)
        };
        let mut trainer = Trainer::new(&cfg, &ds);
        // The first step sizes the workspace and the optimizer moments.
        trainer.step(&ds, &batch, &weights);
        for b in [64, 17, 64, 17] {
            let got = trainer.step(&ds, &batch[..b], &weights[..b]);
            let want = StepAllocs {
                forward: 0,
                objective: OBJECTIVE,
                backward: 0,
                clip_and_adam: 0,
            };
            assert_eq!(got, want, "{} step at batch {b}", arch.name());
        }
    }
}
