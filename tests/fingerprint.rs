//! Bit-level fingerprints of every neural network in the workspace.
//!
//! Each selector architecture is built at `(window 64, width 8, fixed
//! seed)` and hashed at every point the store format and the training
//! arithmetic depend on: the saved parameter list and buffers (positional
//! order and values), inference on a fixed batch, one training forward and
//! the running statistics it leaves behind, and the input and parameter
//! gradients of one backward pass. The NN detectors (AE, CNN, LSTM-AD) are
//! pinned through `score()` on one fixed series and the MKI projection MLP
//! through one forward/backward.
//!
//! The constants are the FNV-1a hashes of the f32/f64 bit patterns (shapes
//! included), so any change to an arithmetic chain, an RNG draw order at
//! build, or a param/buffer order fails here. A change that is meant to
//! alter numerics must re-pin these constants and say so.

use kdselector::core::arch::Architecture;
use kdselector::detectors::ae::AutoEncoder;
use kdselector::detectors::cnn::CnnForecaster;
use kdselector::detectors::lstm_ad::LstmAd;
use kdselector::detectors::Detector;
use kdselector::nn::layers::{Layer, Seq};
use kdselector::nn::serialize::save_params;
use kdselector::nn::{Param, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn f32s(&mut self, vals: &[f32]) {
        self.usize(vals.len());
        for v in vals {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn tensor(&mut self, t: &Tensor) {
        self.usize(t.shape().len());
        for &d in t.shape() {
            self.usize(d);
        }
        self.f32s(t.data());
    }
}

fn hash_tensor(t: &Tensor) -> u64 {
    let mut h = Fnv::new();
    h.tensor(t);
    h.0
}

fn hash_buffers<'a>(bufs: impl IntoIterator<Item = &'a Vec<f32>>) -> u64 {
    let mut h = Fnv::new();
    for b in bufs {
        h.f32s(b);
    }
    h.0
}

fn hash_params<'a>(params: impl IntoIterator<Item = &'a Param>, grads: bool) -> u64 {
    let mut h = Fnv::new();
    for p in params {
        h.tensor(if grads { &p.grad } else { &p.value });
    }
    h.0
}

/// Deterministic values in roughly `[-1.5, 1.5]`.
fn pattern(shape: &[usize], mul: usize, modulus: usize) -> Tensor {
    let numel: usize = shape.iter().product();
    let half = (modulus / 2) as f32;
    Tensor::from_vec(
        shape,
        (0..numel)
            .map(|i| ((i * mul % modulus) as f32 - half) * 0.1)
            .collect(),
    )
}

/// `[params, buffers, infer, train forward, running stats after it, input
/// grad, param grads]` for one architecture.
fn arch_fingerprint(arch: Architecture) -> [u64; 7] {
    let mut enc = arch.build(64, 8, 0x5EED);
    let x = pattern(&[4, 1, 64], 13, 29);
    let params = {
        let mut h = Fnv::new();
        for t in save_params(&enc.params()).tensors {
            h.usize(t.shape.len());
            for d in t.shape {
                h.usize(d);
            }
            h.f32s(&t.data);
        }
        h.0
    };
    let buffers = hash_buffers(enc.buffers());
    let infer = hash_tensor(&enc.infer(&x));
    let y = enc.forward(&x, true);
    let forward = hash_tensor(&y);
    let stats = hash_buffers(enc.buffers());
    for p in enc.params_mut() {
        p.zero_grad();
    }
    let gx = enc.backward(&pattern(y.shape(), 7, 23));
    let input_grad = hash_tensor(&gx);
    let param_grads = hash_params(enc.params(), true);
    [
        params,
        buffers,
        infer,
        forward,
        stats,
        input_grad,
        param_grads,
    ]
}

const ARCH_PINS: [(Architecture, [u64; 7]); 4] = [
    (
        Architecture::ConvNet,
        [
            0xf3aee7c6ae962e1b,
            0x8b2584627ad1e8a5,
            0x4e31472a3ed151b3,
            0x6e22c44e9606f23b,
            0xb76b9c744f7b89b5,
            0x6bbad11ab64bfc24,
            0x3162be43ef7c767d,
        ],
    ),
    (
        Architecture::ResNet,
        [
            0x69ec7a7ae66a8b56,
            0x9e7bb11686c8ca65,
            0x62babba92d25e03f,
            0x1da8d2d0879e41e4,
            0xbb09dc7c99cf8eef,
            0x2f318c8bc619451a,
            0x32d1d8cf74b5ebf9,
        ],
    ),
    (
        Architecture::InceptionTime,
        [
            0xd8d0c4b8211df130,
            0x9e7af50c643daf65,
            0x3eba989fb775c2e5,
            0x6ee9a524443e4275,
            0xe274fb79fb21b6ee,
            0x28871e23e138a88e,
            0x30d7ec3a9469cab4,
        ],
    ),
    // No batch norm: the buffer hashes are the empty hash and the train
    // forward equals inference.
    (
        Architecture::Transformer,
        [
            0xe03e3d05745d6989,
            0xcbf29ce484222325,
            0xa3eff6bd1e269b97,
            0xa3eff6bd1e269b97,
            0xcbf29ce484222325,
            0x560abd0898b072cc,
            0xb47302f69ea8872d,
        ],
    ),
];

#[test]
fn selector_architectures_match_pinned_bits() {
    let got = ARCH_PINS.map(|(arch, _)| (arch, arch_fingerprint(arch)));
    assert_eq!(got, ARCH_PINS, "got {got:#x?}");
}

/// One fixed series: two periods, a noise-like stretch and a level shift.
fn fixed_series() -> Vec<f64> {
    (0..320)
        .map(|t| {
            let tf = t as f64;
            let base = (tf * 0.21).sin() + 0.4 * (tf * 0.053).cos();
            match t {
                150..=175 => ((t * t) as f64 * 0.37).sin() * 1.3,
                240..=255 => base + 2.5,
                _ => base,
            }
        })
        .collect()
}

fn hash_scores(scores: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.usize(scores.len());
    for s in scores {
        h.bytes(&s.to_bits().to_le_bytes());
    }
    h.0
}

#[test]
fn nn_detectors_match_pinned_bits() {
    let s = fixed_series();
    let got = [
        hash_scores(&AutoEncoder::new(3).score(&s)),
        hash_scores(&CnnForecaster::new(3).score(&s)),
        hash_scores(&LstmAd::new(3).score(&s)),
    ];
    let want: [u64; 3] = [0xf56e9f670743d06a, 0xe7cf420dff83fc9d, 0x5ac41a184b250f74];
    assert_eq!(got, want, "got {got:#x?}");
}

#[test]
fn projection_mlp_matches_pinned_bits() {
    let mut rng = StdRng::seed_from_u64(0x17E);
    let mut mlp = Seq::mlp(6, 10, 4, &mut rng);
    let x = pattern(&[3, 6], 5, 17);
    let y = mlp.forward(&x, true);
    for p in mlp.params_mut() {
        p.zero_grad();
    }
    let gx = mlp.backward(&pattern(y.shape(), 3, 11));
    let got = [
        hash_params(mlp.params(), false),
        hash_tensor(&y),
        hash_tensor(&gx),
        hash_params(mlp.params(), true),
    ];
    let want: [u64; 4] = [
        0xb42afb9440fe19cf,
        0xefc09421c699485a,
        0xcc97474f0e787443,
        0x5aecc44fce5ff9fc,
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
