//! From-scratch CPU neural-network substrate.
//!
//! This crate stands in for PyTorch in the reproduction. It provides exactly
//! what the paper's selector architectures and NN-based detectors need:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor (rank ≤ 3 in practice).
//! * [`layers`] — conv1d, linear, batch/layer norm, pooling, dropout,
//!   activations, multi-head self-attention, an LSTM cell and shape-only
//!   leaves (transpose, reshape, positional embedding), each with
//!   hand-written backward passes that cache what they need from the forward
//!   pass, plus the graph combinators `Seq`, `Residual` and `Concat` that
//!   every network is declared with.
//! * [`loss`] — hard cross-entropy, soft-label cross-entropy (PISL), InfoNCE
//!   (MKI) and MSE, all accepting **per-sample weights** so that the
//!   InfoBatch/PA gradient rescaling (`1/(1-r)`) is exact.
//! * [`optim`] — SGD with momentum and Adam, plus global-norm gradient
//!   clipping (the boundedness assumption of the paper's §A.1).
//! * [`gradcheck`] — finite-difference gradient verification used throughout
//!   the test suite.
//! * [`simd`] — dependency-free fixed-width lane types (`F32x8`, `F64x4`)
//!   behind the GEMM micro-kernel and the other measured hot loops: one
//!   code path each, whose bits do not depend on the target ISA.
//!
//! Design notes: layers are stateful (`forward` caches, `backward` consumes)
//! and models are static trees of combinators — there is no taped autograd.
//! That keeps the substrate small, fully deterministic, and easy to verify
//! layer by layer.

pub mod gemm;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod simd;
pub mod tensor;

pub use param::Param;
pub use tensor::Tensor;
