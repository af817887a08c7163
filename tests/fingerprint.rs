//! Bit-level fingerprints of every neural network in the workspace.
//!
//! Each selector architecture is built at `(window 64, width 8, fixed
//! seed)` and hashed at every point the store format and the training
//! arithmetic depend on: the saved parameter list and buffers (positional
//! order and values), inference on a fixed batch, one training forward and
//! the running statistics it leaves behind, and the input and parameter
//! gradients of one backward pass. The NN detectors (AE, CNN, LSTM-AD) are
//! pinned through `score()` on one fixed series and the MKI projection MLP
//! through one forward/backward, and one short KDSelector training run
//! through its trained weights, buffers and per-epoch statistics.
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
/// grad, param grads]` for one architecture at batch size 4.
fn arch_fingerprint(arch: Architecture) -> [u64; 7] {
    arch_fingerprint_at(arch, 4)
}

/// [`arch_fingerprint`] on a `(batch, 1, 64)` input.
fn arch_fingerprint_at(arch: Architecture, batch: usize) -> [u64; 7] {
    let mut enc = arch.build(64, 8, 0x5EED);
    let x = pattern(&[batch, 1, 64], 13, 29);
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

/// The served ResNet at the training batch size (64 windows), where every
/// batch-norm row chain and weight-gradient sum runs at full length.
/// Pinned before the layer graph moved onto one workspace.
const RESNET_BATCH64_PINS: [u64; 7] = [
    0x69ec7a7ae66a8b56,
    0x9e7bb11686c8ca65,
    0xd098dfc5398418ff,
    0x8215f4f0082b5c76,
    0xff048e309ffae164,
    0x180088b2b59a2949,
    0x1d83987cb46256b7,
];

#[test]
fn resnet_at_the_training_batch_matches_pinned_bits() {
    let got = arch_fingerprint_at(Architecture::ResNet, 64);
    assert_eq!(got, RESNET_BATCH64_PINS, "got {got:#x?}");
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
    let want: [u64; 3] = [0xf56e9f670743d06a, 0xe7cf420dff83fc9d, 0x472a6d7732dc7949];
    assert_eq!(got, want, "got {got:#x?}");
}

/// A series of `n` points with one noise-like burst and one level shift,
/// for the LSTM-AD shapes [`fixed_series`] does not reach.
fn long_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let tf = t as f64;
            let base = (tf * 0.13).sin() + 0.3 * (tf * 0.029).cos();
            if (n / 3..n / 3 + 20).contains(&t) {
                ((t * 7) as f64 * 0.61).sin() * 1.7
            } else if (2 * n / 3..2 * n / 3 + 30).contains(&t) {
                base - 2.0
            } else {
                base
            }
        })
        .collect()
}

/// LSTM-AD at two more shapes. n = 1051: inference runs four 256-row
/// chunks plus a 3-row tail (a recurrent product below the GEMM's packing
/// threshold). n = 1536: the training pairs are every 11th target, and a
/// 256-row inference chunk's recurrent product is above the pool's
/// parallel-work gate.
#[test]
fn lstm_ad_long_series_match_pinned_bits() {
    let got = [1051, 1536].map(|n| hash_scores(&LstmAd::new(5).score(&long_series(n))));
    let want: [u64; 2] = [0xe325fffdbb929deb, 0x40319609aa7b5904];
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

/// A short KDSelector training run: the ResNet selector at width 8 with
/// PISL, MKI and PA pruning, trained through `train` on the first six
/// series of the tiny benchmark (window 64, stride 32) against fixed
/// synthetic performance rows. Pins the trained weights, the batch-norm
/// running statistics and the per-epoch losses, accuracies and examined
/// counts, so any change to the training step's arithmetic, its
/// minibatch order or the pruning plans fails here.
#[test]
fn kdselector_training_matches_pinned_bits() {
    use kdselector::core::dataset::SelectorDataset;
    use kdselector::core::labels::PerfMatrix;
    use kdselector::core::train::{train, TrainConfig};
    use tsdata::{Benchmark, BenchmarkConfig, WindowConfig};
    use tstext::FrozenTextEncoder;

    let series: Vec<_> = Benchmark::generate(BenchmarkConfig::tiny())
        .train
        .into_iter()
        .take(6)
        .collect();
    let perf = PerfMatrix {
        series_ids: series.iter().map(|s| s.id.clone()).collect(),
        rows: (0..series.len())
            .map(|i| {
                (0..12)
                    .map(|m| 0.05 + 0.08 * ((i * 5 + m * 3) % 11) as f64)
                    .collect()
            })
            .collect(),
    };
    let wc = WindowConfig {
        length: 64,
        stride: 32,
        znormalize: true,
    };
    let ds = SelectorDataset::build(&series, &perf, wc, &FrozenTextEncoder::new(64, 0));
    let cfg = TrainConfig {
        width: 8,
        epochs: 4,
        batch_size: 32,
        ..TrainConfig::kdselector(Architecture::ResNet)
    };
    let (model, stats) = train(&ds, &cfg);
    let mut h = Fnv::new();
    h.usize(stats.epoch_loss.len());
    for (&loss, &acc) in stats.epoch_loss.iter().zip(&stats.epoch_accuracy) {
        h.bytes(&loss.to_bits().to_le_bytes());
        h.bytes(&acc.to_bits().to_le_bytes());
    }
    for &examined in &stats.epoch_examined {
        h.usize(examined);
    }
    let got = [
        ds.len() as u64,
        hash_params(model.params(), false),
        hash_buffers(model.buffers()),
        h.0,
    ];
    let want: [u64; 4] = [
        0x48,
        0x3f83db03192fdad1,
        0x81e7a9d3392a8337,
        0x8a1474a4a0e9ef78,
    ];
    assert_eq!(got, want, "got {got:#x?}");
}
