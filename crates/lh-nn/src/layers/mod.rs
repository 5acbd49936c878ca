//! Neural network layers built on the tape.
//!
//! Layers are thin: they own parameter *names* and shapes, register their
//! tensors in a [`crate::params::ParamStore`] at construction, and watch
//! them onto the active [`crate::tape::Tape`] during `forward`. This keeps
//! parameters persistent across the per-batch tapes.

mod embedding;
mod gat;
mod gru;
mod linear;
pub mod lstm;

pub use embedding::Embedding;
pub use gat::GatLayer;
pub use gru::GruCell;
pub use linear::Linear;
pub use lstm::{sequence_masks, LstmCell, LstmState};
