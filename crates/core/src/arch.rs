//! The NN selector architectures of the paper's evaluation.
//!
//! Each architecture is a time-series **encoder** `E_T : (N, 1, L) → (N, D)`;
//! the selector appends a linear classifier `C_T : (N, D) → (N, 12)`. All
//! four are the standard TSC versions used by the benchmark paper, sized for
//! the CPU substrate:
//!
//! * [`Architecture::ConvNet`] — three Conv-BN-ReLU-MaxPool stages + GAP.
//! * [`Architecture::ResNet`] — three residual blocks (k = 7/5/3) + GAP.
//! * [`Architecture::InceptionTime`] — two inception modules (bottleneck,
//!   multi-scale kernels, max-pool path) with a residual connection + GAP.
//! * [`Architecture::Transformer`] — conv patch stem + learned positional
//!   embedding + two pre-norm MHSA/FFN blocks + mean pooling (the SiT-stem
//!   family).
//!
//! An encoder is one [`Seq`] declared over `tsnn`'s graph combinators, so
//! training, serving and persistence share one forward/infer/backward and
//! one param/buffer enumeration. Declaration order is the RNG draw order at
//! build and the positional order of the store format.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsnn::layers::{
    BatchNorm1d, Concat, Conv1d, Gelu, GlobalAvgPool1d, LayerNorm, Linear, MaxPool1d,
    MultiHeadSelfAttention, PositionalEmbedding, Relu, Reshape, Residual, SameMaxPool1d, Seq,
    TokenMeanPool, Transpose,
};

/// Attention heads of the transformer encoder.
const HEADS: usize = 4;
/// Max-pool width of the transformer's patch stem (window → tokens).
const PATCH: usize = 4;

/// Selector architecture identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Architecture {
    /// Plain convolutional network.
    ConvNet,
    /// Residual convolutional network (the paper's default).
    ResNet,
    /// InceptionTime-style multi-scale network.
    InceptionTime,
    /// Convolutional-stem transformer (SiT-stem family).
    Transformer,
}

impl Architecture {
    /// All architectures in evaluation order.
    pub const ALL: [Architecture; 4] = [
        Architecture::ConvNet,
        Architecture::ResNet,
        Architecture::InceptionTime,
        Architecture::Transformer,
    ];

    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::ConvNet => "ConvNet",
            Architecture::ResNet => "ResNet",
            Architecture::InceptionTime => "InceptionTime",
            Architecture::Transformer => "Transformer",
        }
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// Output feature width `D` of the encoder at base width `width`.
    pub fn feature_dim(&self, width: usize) -> usize {
        match self {
            Architecture::ConvNet | Architecture::ResNet => 2 * width,
            Architecture::InceptionTime => 4 * (width / 2).max(4),
            // Divisible by the head count.
            Architecture::Transformer => (2 * width).div_ceil(HEADS) * HEADS,
        }
    }

    /// Shortest window the encoder accepts: the ConvNet halves the length
    /// twice, and the transformer stem needs at least two tokens.
    pub fn min_window(&self) -> usize {
        match self {
            Architecture::ConvNet => 4,
            Architecture::Transformer => 2 * PATCH,
            Architecture::ResNet | Architecture::InceptionTime => 1,
        }
    }

    /// Builds the encoder `(N, 1, window) → (N, D)` with `D =
    /// feature_dim(width)`; `width` is the base channel count (default 12).
    ///
    /// Only the transformer's shape depends on `window`; the others build
    /// at any length but serve only windows of at least
    /// [`Architecture::min_window`], which the selector store and the
    /// serving engine check.
    ///
    /// # Panics
    /// Panics if a transformer's `window` is below `min_window()`.
    pub fn build(&self, window: usize, width: usize, seed: u64) -> Seq {
        let rng = &mut StdRng::seed_from_u64(seed);
        let d = self.feature_dim(width);
        match self {
            Architecture::ConvNet => Seq::new()
                .then(conv_bn(1, width, 7, rng))
                .then(Relu::new())
                .then(MaxPool1d::new(2))
                .then(conv_bn(width, d, 5, rng))
                .then(Relu::new())
                .then(MaxPool1d::new(2))
                .then(conv_bn(d, d, 3, rng))
                .then(Relu::new())
                .then(GlobalAvgPool1d::new()),
            Architecture::ResNet => Seq::new()
                .then(res_block(1, width, rng))
                .then(res_block(width, d, rng))
                .then(res_block(d, d, rng))
                .then(GlobalAvgPool1d::new()),
            Architecture::InceptionTime => {
                let f = d / 4;
                let modules = Seq::new()
                    .then(inception_module(1, f, rng))
                    .then(inception_module(d, f, rng));
                Seq::new()
                    .then(Residual::new(modules, Some(conv_bn(1, d, 1, rng))))
                    .then(Relu::new())
                    .then(GlobalAvgPool1d::new())
            }
            Architecture::Transformer => {
                assert!(
                    window >= self.min_window(),
                    "window too short for the transformer stem"
                );
                let tokens = window / PATCH;
                Seq::new()
                    .then(Conv1d::new(1, d, 5, rng))
                    .then(Relu::new())
                    .then(MaxPool1d::new(PATCH))
                    .then(Transpose::new())
                    .then(PositionalEmbedding::new(tokens, d, rng))
                    .then(transformer_block(d, tokens, rng))
                    .then(transformer_block(d, tokens, rng))
                    .then(LayerNorm::new(d))
                    .then(TokenMeanPool::new())
            }
        }
    }
}

/// Conv followed by batch norm.
fn conv_bn(cin: usize, cout: usize, k: usize, rng: &mut StdRng) -> Seq {
    Seq::new()
        .then(Conv1d::new(cin, cout, k, rng))
        .then(BatchNorm1d::new(cout))
}

/// One TSC ResNet block: three conv-BN stages (k = 7/5/3) plus a shortcut
/// that is projected when the width changes, then ReLU.
fn res_block(cin: usize, cout: usize, rng: &mut StdRng) -> Seq {
    let main = Seq::new()
        .then(conv_bn(cin, cout, 7, rng))
        .then(Relu::new())
        .then(conv_bn(cout, cout, 5, rng))
        .then(Relu::new())
        .then(conv_bn(cout, cout, 3, rng));
    let shortcut = (cin != cout).then(|| conv_bn(cin, cout, 1, rng));
    Seq::new()
        .then(Residual::new(main, shortcut))
        .then(Relu::new())
}

/// One inception module: bottleneck → three kernel scales ∥ pooled 1×1
/// path, concatenated (`4f` channels), batch-normed, ReLU.
fn inception_module(cin: usize, f: usize, rng: &mut StdRng) -> Seq {
    let mut scales = Seq::new();
    if cin > 1 {
        scales = scales.then(Conv1d::new(cin, f, 1, rng));
    }
    let bc = if cin > 1 { f } else { 1 };
    let convs = [5, 11, 21]
        .iter()
        .map(|&k| Seq::new().then(Conv1d::new(bc, f, k, rng)))
        .collect();
    let pooled = Seq::new()
        .then(SameMaxPool1d::new(3))
        .then(Conv1d::new(cin, f, 1, rng));
    Seq::new()
        .then(Concat::new(vec![scales.then(Concat::new(convs)), pooled]))
        .then(BatchNorm1d::new(4 * f))
        .then(Relu::new())
}

/// One pre-norm transformer block over `(N, T, D)` tokens:
/// `x + attn(ln(x))`, then `y + ffn(ln(y))` with the FFN applied token-wise.
fn transformer_block(d: usize, tokens: usize, rng: &mut StdRng) -> Seq {
    let attn = Seq::new()
        .then(LayerNorm::new(d))
        .then(MultiHeadSelfAttention::new(d, HEADS, rng));
    let ffn = Seq::new()
        .then(LayerNorm::new(d))
        .then(Reshape::new(&[d]))
        .then(Linear::new(d, 2 * d, rng))
        .then(Gelu::new())
        .then(Linear::new(2 * d, d, rng))
        .then(Reshape::new(&[tokens, d]));
    Seq::new()
        .then(Residual::new(attn, None))
        .then(Residual::new(ffn, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsnn::layers::Layer;
    use tsnn::Tensor;

    fn probe(arch: Architecture) {
        let mut enc = arch.build(64, 8, 3);
        let x = Tensor::from_vec(
            &[4, 1, 64],
            (0..256)
                .map(|i| ((i * 13 % 29) as f32 - 14.0) * 0.1)
                .collect(),
        );
        let z = enc.forward(&x, true);
        assert_eq!(z.dim(0), 4);
        assert_eq!(z.dim(1), arch.feature_dim(8), "{arch:?}");
        assert!(z.data().iter().all(|v| v.is_finite()), "{arch:?}");
        // Backward runs and produces an input-shaped gradient.
        let g = enc.backward(&Tensor::from_vec(z.shape(), vec![0.1; z.numel()]));
        assert_eq!(g.shape(), x.shape(), "{arch:?}");
        // Some parameter received gradient.
        let got_grad = enc
            .params_mut()
            .iter()
            .any(|p| p.grad.data().iter().any(|&v| v != 0.0));
        assert!(got_grad, "{arch:?} produced no parameter gradients");
    }

    #[test]
    fn convnet_forward_backward() {
        probe(Architecture::ConvNet);
    }

    #[test]
    fn resnet_forward_backward() {
        probe(Architecture::ResNet);
    }

    #[test]
    fn inception_forward_backward() {
        probe(Architecture::InceptionTime);
    }

    #[test]
    fn transformer_forward_backward() {
        probe(Architecture::Transformer);
    }

    #[test]
    fn infer_is_bit_identical_to_eval_forward() {
        // The serving path (`infer`, &self) must reproduce the mutable
        // eval-mode forward exactly — same operations, same order, same bits.
        for arch in Architecture::ALL {
            let mut enc = arch.build(64, 8, 11);
            let x = Tensor::from_vec(
                &[3, 1, 64],
                (0..192)
                    .map(|i| ((i * 17 % 31) as f32 - 15.0) * 0.07)
                    .collect(),
            );
            // One training pass so batch-norm running stats are non-trivial.
            let _ = enc.forward(&x, true);
            let eval = enc.forward(&x, false);
            let infer = enc.infer(&x);
            assert_eq!(eval.data(), infer.data(), "{arch:?}");
        }
    }

    #[test]
    fn encoders_are_send_and_sync() {
        fn check<T: Send + Sync>(_: &T) {}
        for arch in Architecture::ALL {
            check(&arch.build(64, 8, 1));
        }
    }

    #[test]
    fn immutable_accessors_mirror_mutable_ones() {
        for arch in Architecture::ALL {
            let mut enc = arch.build(64, 8, 5);
            assert_eq!(enc.params().len(), enc.params_mut().len(), "{arch:?}");
            assert_eq!(enc.buffers().len(), enc.buffers_mut().len(), "{arch:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for a in Architecture::ALL {
            assert_eq!(Architecture::from_name(a.name()), Some(a));
        }
        assert_eq!(Architecture::from_name("nope"), None);
    }

    #[test]
    fn min_window_is_the_shortest_window_that_serves() {
        for arch in Architecture::ALL {
            let w = arch.min_window();
            let enc = arch.build(w, 4, 0);
            let z = enc.infer(&Tensor::from_vec(&[2, 1, w], vec![0.5; 2 * w]));
            assert_eq!(z.shape(), &[2, arch.feature_dim(4)], "{arch:?}");
        }
    }

    #[test]
    #[should_panic(expected = "window too short for the transformer stem")]
    fn build_rejects_windows_below_the_minimum() {
        let _ = Architecture::Transformer.build(4, 4, 0);
    }

    #[test]
    fn training_reduces_probe_loss() {
        // One-step sanity: SGD on a fixed batch lowers a quadratic probe.
        use tsnn::optim::Adam;
        let mut enc = Architecture::ConvNet.build(32, 4, 1);
        let x = Tensor::from_vec(
            &[8, 1, 32],
            (0..256)
                .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.1)
                .collect(),
        );
        let target = Tensor::zeros(&[8, Architecture::ConvNet.feature_dim(4)]);
        let mut opt = Adam::new(0.01, 0.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..15 {
            let z = enc.forward(&x, true);
            let out = tsnn::loss::mse(&z, &target, None);
            for p in enc.params_mut() {
                p.zero_grad();
            }
            let _ = enc.backward(&out.grad);
            opt.step(&mut enc.params_mut());
            if first.is_none() {
                first = Some(out.loss);
            }
            last = out.loss;
        }
        assert!(last < first.unwrap() * 0.9, "loss {first:?} → {last}");
    }
}
