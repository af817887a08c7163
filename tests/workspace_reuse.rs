//! Workspace reuse never moves a bit: one encoder per architecture, driven
//! through changing batch sizes on one training workspace and one
//! inference workspace (so every call runs on memory the previous,
//! differently shaped call left dirty), equals a fresh copy of itself on
//! fresh workspaces at every call — outputs, input gradients, parameter
//! gradients and batch-norm running statistics — bit for bit, with NaN,
//! ±inf and -0.0 inputs included.
//!
//! Runs on the baseline-ISA CI leg next to `fingerprint`, which pins the
//! absolute bits these calls start from.

use kdselector::core::arch::Architecture;
use kdselector::nn::layers::{Layer, Seq};
use kdselector::nn::{Dims, Workspace};

/// Batch sizes in call order: grow, shrink to one, grow past the first.
const BATCHES: [usize; 5] = [64, 17, 1, 256, 64];

/// A `(batch, 1, 64)` input: a deterministic ramp, or (`special`) the ramp
/// with NaN, ±inf and -0.0 spread through it.
fn input(batch: usize, special: bool) -> Vec<f32> {
    (0..batch * 64)
        .map(|i| match (special, i % 23) {
            (true, 3) => f32::NAN,
            (true, 7) => f32::INFINITY,
            (true, 11) => f32::NEG_INFINITY,
            (true, 13 | 19) => -0.0,
            _ => ((i * 13 % 29) as f32 - 14.0) * 0.1,
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything one round of calls produces.
#[derive(Debug, PartialEq)]
struct Round {
    infer: Vec<u32>,
    train: Vec<u32>,
    grad_x: Vec<u32>,
    grads: Vec<u32>,
    buffers: Vec<u32>,
    infer_after: Vec<u32>,
}

/// Inference, a training forward, a backward, inference again — each on
/// the given workspaces.
fn round(
    enc: &mut Seq,
    x: &[f32],
    xd: Dims,
    train_ws: &mut Workspace,
    infer_ws: &mut Workspace,
) -> Round {
    let yd = enc.out_dims(xd);
    let mut infer = |enc: &Seq| {
        let mut y = vec![0.0; yd.numel()];
        enc.infer_ws(x, xd, &mut y, infer_ws.get(enc.ws_len(xd, false)));
        bits(&y)
    };
    let first = infer(enc);
    let mut y = vec![0.0; yd.numel()];
    let tape = enc.ws_len(xd, true);
    let (ws, scratch) = train_ws.get(tape + enc.grad_len(xd)).split_at_mut(tape);
    enc.forward_ws(x, xd, &mut y, ws);
    let buffers = enc.buffers().iter().flat_map(|b| bits(b)).collect();
    enc.for_each_param_mut(&mut |p| p.zero_grad());
    let gy: Vec<f32> = (0..y.len())
        .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.1)
        .collect();
    let mut gx = vec![0.0; xd.numel()];
    enc.backward_ws(x, xd, &y, &gy, &mut gx, (ws, scratch));
    let grads = enc
        .params()
        .iter()
        .flat_map(|p| bits(p.grad.data()))
        .collect();
    Round {
        infer: first,
        train: bits(&y),
        grad_x: bits(&gx),
        grads,
        buffers,
        infer_after: infer(enc),
    }
}

#[test]
fn reused_workspaces_match_fresh_ones_bitwise() {
    for arch in Architecture::ALL {
        let mut enc = arch.build(64, 8, 0x5EED);
        let (mut train_ws, mut infer_ws) = (Workspace::new(), Workspace::new());
        for (step, &b) in BATCHES.iter().enumerate() {
            for special in [false, true] {
                let x = input(b, special);
                let xd = Dims::new(&[b, 1, 64]);
                // A copy in the same state, on memory nothing ran on yet.
                let mut fresh = enc.clone();
                let want = round(
                    &mut fresh,
                    &x,
                    xd,
                    &mut Workspace::new(),
                    &mut Workspace::new(),
                );
                let got = round(&mut enc, &x, xd, &mut train_ws, &mut infer_ws);
                assert!(
                    got == want,
                    "{arch:?} call {step} (batch {b}, special inputs: {special}) \
                     diverged on a reused workspace"
                );
            }
        }
    }
}

#[test]
fn tensor_methods_match_the_workspace_path_bitwise() {
    for arch in Architecture::ALL {
        let mut enc = arch.build(64, 8, 0x5EED);
        let mut twin = enc.clone();
        for &b in &BATCHES {
            for special in [false, true] {
                let x = input(b, special);
                let xd = Dims::new(&[b, 1, 64]);
                let want = round(
                    &mut twin,
                    &x,
                    xd,
                    &mut Workspace::new(),
                    &mut Workspace::new(),
                );
                let t = kdselector::nn::Tensor::from_vec(xd.as_slice(), x);
                let infer = bits(enc.infer(&t).data());
                let y = enc.forward(&t, true);
                let buffers: Vec<u32> = enc.buffers().iter().flat_map(|b| bits(b)).collect();
                enc.for_each_param_mut(&mut |p| p.zero_grad());
                let gy: Vec<f32> = (0..y.numel())
                    .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.1)
                    .collect();
                let gx = enc.backward(&kdselector::nn::Tensor::from_vec(y.shape(), gy));
                let grads: Vec<u32> = enc
                    .params()
                    .iter()
                    .flat_map(|p| bits(p.grad.data()))
                    .collect();
                let got = Round {
                    infer,
                    train: bits(y.data()),
                    grad_x: bits(gx.data()),
                    grads,
                    buffers,
                    infer_after: bits(enc.infer(&t).data()),
                };
                assert!(
                    got == want,
                    "{arch:?} batch {b} special {special}: tensor path diverged"
                );
            }
        }
    }
}
