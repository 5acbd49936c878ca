//! From-scratch deep-learning substrate for the LH-plugin reproduction.
//!
//! The paper implements its models in PyTorch; nothing in the contribution
//! depends on that framework, only on the ability to differentiate through
//! the Lorentz inner product, `cosh`/`sinh`, and standard sequence
//! encoders. This crate provides exactly that:
//!
//! * [`tensor::Tensor`] — dense row-major 2-D `f32` matrices;
//! * [`tape::Tape`] — reverse-mode autodiff with broadcast-aware binary
//!   ops, one elementwise path for every unary op, fused Lorentz/row-dot
//!   products, embedding scatter-gradients, a GAT layer's attention and a
//!   masked LSTM step as one op each, forks that run independent
//!   subgraphs on child tapes across threads with the bits of one tape,
//!   and finite-difference-verified backward passes that differentiate
//!   only what can reach a parameter (model data enters as
//!   [`tape::Tape::input`]);
//! * [`layers`] — Linear, LSTM, GRU, Embedding, and graph attention;
//! * [`optim`] — Adam (fixed β₁ = 0.9, β₂ = 0.999, ε = 1e-8) with a
//!   global-norm gradient clip of 5;
//! * [`loss`] — the rank-weighted MSE the trainer minimizes.
//!
//! Design choice: tensors are strictly 2-D (batch × features). Sequences
//! are lists of per-step matrices with `B×1` masks, which covers every
//! model in the paper while eliminating N-d stride bookkeeping.

#![forbid(unsafe_code)]

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
