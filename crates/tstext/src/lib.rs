//! Frozen text embedding for the MKI module.
//!
//! The paper feeds natural-language metadata through a *frozen* pre-trained
//! LLM (BERT-base) to obtain a unified feature vector `z_K`. Running a
//! transformer LLM is neither feasible in this offline CPU environment nor
//! necessary for the mechanism under test: MKI only requires a frozen,
//! deterministic text→vector map where *similar descriptions produce nearby
//! vectors* so that the InfoNCE objective can align series features with
//! metadata features.
//!
//! [`FrozenTextEncoder`] provides exactly that: a hashed bag of word tokens
//! and character trigrams, each expanded into a seeded Gaussian vector
//! (derived from the token hash, so there is no stored vocabulary), summed
//! with sub-linear term weighting and L2-normalised. Numeric tokens
//! additionally emit magnitude-bucket tokens so "length 128" and "length 130"
//! land close together. The substitution is documented in the README's "Substitutions" section.

mod encoder;
mod template;

pub use encoder::FrozenTextEncoder;
pub use template::{render_metadata, SeriesMetadata};

/// Default embedding width, matching BERT-base's hidden size.
pub const DEFAULT_EMBED_DIM: usize = 768;
