//! Allocation counts of the LSTM-AD detector's network, counted rather
//! than asserted: a counting global allocator tallies the allocations the
//! calling thread makes during one training step (forward, MSE, backward,
//! Adam) and one inference chunk, after a warm-up step at the largest
//! shapes. The `Lstm` layer keeps its tape, gradients and scratch in a
//! workspace sized on the first call and the `Seq` carves the rest from
//! its own, so what remains is the fixed set of returned tensors, the
//! same number at every batch size and sequence length; the layer's own
//! workspace passes allocate nothing at all.
//!
//! Lives in its own integration binary because the allocator is
//! process-global.

use kdselector::nn::layers::{Layer, Linear, Lstm, Seq};
use kdselector::nn::loss::mse;
use kdselector::nn::optim::Adam;
use kdselector::nn::{Dims, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of one `Lstm` workspace call once its training buffer has
/// grown: output, input gradient and scratch are the caller's.
const LSTM_CALL: usize = 0;
/// Allocations of one LSTM-AD training step, none of them working memory
/// (the LSTM's tape is its own workspace, the head's activations and
/// weight gradient live on the `Seq`'s, and zeroing, clipping and Adam
/// walk the parameters without collecting them): the network's returned
/// output and input gradient (2 each), and the loss gradient (2) and
/// per-sample losses (1).
const TRAIN_STEP: usize = 2 + 2 + 2 + 1;
/// Allocations of one inference chunk: the network's returned output.
const INFER_CHUNK: usize = 2;

fn lstm_ad_net() -> Seq {
    let mut rng = StdRng::seed_from_u64(0x1A57);
    Seq::new()
        .then(Lstm::new(1, 12, &mut rng))
        .then(Linear::new(12, 1, &mut rng))
}

/// An `(n, t, 1)` window batch and its `(n, 1)` targets.
fn batch(n: usize, t: usize) -> (Tensor, Tensor) {
    let x = (0..n * t).map(|i| (i as f32 * 0.37).sin()).collect();
    let y = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
    (
        Tensor::from_vec(&[n, t, 1], x),
        Tensor::from_vec(&[n, 1], y),
    )
}

fn train_step(net: &mut Seq, opt: &mut Adam, x: &Tensor, y: &Tensor) {
    let pred = net.forward(x, true);
    let out = mse(&pred, y, None);
    net.for_each_param_mut(&mut |p| p.zero_grad());
    let _ = net.backward(&out.grad);
    opt.step_with(|f| net.for_each_param_mut(f));
}

#[test]
fn lstm_ad_steps_allocate_a_constant() {
    let mut net = lstm_ad_net();
    let mut opt = Adam::new(0.01, 0.0);
    // Warm up at LSTM-AD's largest shapes: 150 training pairs, 256-row
    // inference chunks, 24-step windows.
    let (x, y) = batch(150, 24);
    train_step(&mut net, &mut opt, &x, &y);
    net.forward(&batch(256, 24).0, false);

    for (n, t) in [(150, 24), (138, 24), (17, 24), (150, 5), (1, 1)] {
        let (x, y) = batch(n, t);
        let got = allocations_in(|| train_step(&mut net, &mut opt, &x, &y));
        assert_eq!(got, TRAIN_STEP, "training step at (n={n}, t={t})");
    }
    for (n, t) in [(256, 24), (3, 24), (100, 7)] {
        let x = batch(n, t).0;
        let got = allocations_in(|| {
            net.forward(&x, false);
        });
        assert_eq!(got, INFER_CHUNK, "inference chunk at (n={n}, t={t})");
    }
}

#[test]
fn lstm_layer_allocates_only_its_results() {
    let mut lstm = Lstm::new(3, 17, &mut StdRng::seed_from_u64(3));
    // Caller-owned buffers at the largest shape; the layer's training
    // buffer grows on the warm-up forward.
    let warm = Dims::new(&[40, 24, 3]);
    let (mut y, mut gx) = (vec![0.0; 40 * 17], vec![0.0; warm.numel()]);
    let mut scratch = vec![0.0; lstm.ws_len(warm, false)];
    let x = vec![0.0; warm.numel()];
    lstm.forward_ws(&x, warm, &mut y, &mut []);
    lstm.backward_ws(&x, warm, &y, &y, &mut gx, (&mut [], &mut []));
    for (n, t) in [(40, 24), (16, 24), (33, 2), (1, 1)] {
        let xd = Dims::new(&[n, t, 3]);
        let (x, y) = (&x[..xd.numel()], &mut y[..n * 17]);
        let g = vec![0.0; n * 17];
        let gx = &mut gx[..xd.numel()];
        let forward = allocations_in(|| lstm.forward_ws(x, xd, y, &mut []));
        let backward = allocations_in(|| lstm.backward_ws(x, xd, y, &g, gx, (&mut [], &mut [])));
        let inference = allocations_in(|| lstm.infer_ws(x, xd, y, &mut scratch));
        let at = format!("(n={n}, t={t})");
        assert_eq!(forward, LSTM_CALL, "forward_ws {at}");
        assert_eq!(backward, LSTM_CALL, "backward_ws {at}");
        assert_eq!(inference, LSTM_CALL, "infer_ws {at}");
    }
}
