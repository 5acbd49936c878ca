//! From-scratch deep-learning substrate for the LH-plugin reproduction.
//!
//! The paper implements its models in PyTorch; nothing in the contribution
//! depends on that framework, only on the ability to differentiate through
//! the Lorentz inner product, `cosh`/`sinh`, and standard sequence
//! encoders. This crate provides exactly that:
//!
//! * [`tensor::Tensor`] — dense row-major 2-D `f32` matrices;
//! * [`tape::Tape`] — reverse-mode autodiff with broadcast-aware binary
//!   ops, fused Lorentz/row-dot products, embedding scatter-gradients,
//!   and finite-difference-verified backward passes;
//! * [`layers`] — Linear, LSTM, GRU, Embedding, and graph attention;
//! * [`optim`] — Adam with global-norm clipping;
//! * [`loss`] — MSE/MAE, rank-weighted MSE, triplet margin.
//!
//! Design choice: tensors are strictly 2-D (batch × features). Sequences
//! are lists of per-step matrices with `B×1` masks, which covers every
//! model in the paper while eliminating N-d stride bookkeeping.

pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod params;
pub mod tape;
pub mod tensor;

pub use params::ParamStore;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
