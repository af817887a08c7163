//! Neural-network layers with hand-written backward passes, and the graph
//! combinators ([`Seq`], [`Residual`], [`Concat`]) that compose them.

mod activation;
mod attention;
mod conv1d;
mod dropout;
mod embed;
mod graph;
mod linear;
mod lstm;
mod norm;
mod pool;
mod shape;

pub use activation::{Gelu, Relu};
pub use attention::MultiHeadSelfAttention;
pub use conv1d::Conv1d;
pub use dropout::Dropout;
pub use embed::PositionalEmbedding;
pub use graph::{Concat, Node, Residual, Seq};
pub use linear::Linear;
pub use lstm::Lstm;
pub use norm::{BatchNorm1d, LayerNorm};
pub use pool::{GlobalAvgPool1d, MaxPool1d, SameMaxPool1d, TokenMeanPool};
pub use shape::{Reshape, Transpose};

pub use crate::param::Layer;
