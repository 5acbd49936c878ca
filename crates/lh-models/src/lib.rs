//! Baseline trajectory-embedding models, re-implemented on `lh-nn`.
//!
//! The paper plugs the LH-plugin into five published encoders (its Table
//! II): Neutraj (grid cells + RNN), TrajGAT (quadtree + graph attention),
//! Traj2SimVec (an LSTM, trained by full-trajectory distance regression
//! only: the original's sub-trajectory supervision is not reproduced),
//! ST2Vec (spatio-temporal co-attention) and Tedj (3-D st-grid + RNN).
//! The original codebases are PyTorch; these are structurally faithful
//! reconstructions — same preprocessing family, same network family, same
//! output contract (a Euclidean embedding per trajectory) — with
//! documented simplifications listed per module.
//!
//! Every model implements [`TrajectoryEncoder`]: batch-encode trajectories
//! into a `B×d` Euclidean embedding matrix on the active tape. The
//! LH-plugin (in `lh-core`) is deliberately model-agnostic: it only ever
//! touches that output matrix, which is precisely the paper's claim.

#![forbid(unsafe_code)]

pub mod features;
pub mod landmark;
pub mod neutraj;
pub mod st2vec;
pub mod tedj;
pub mod traits;
pub mod traj2simvec;
pub mod trajgat;

pub use landmark::LandmarkEncoder;
pub use neutraj::NeutrajEncoder;
pub use st2vec::St2VecEncoder;
pub use tedj::TedjEncoder;
pub use traits::{EncoderConfig, ModelKind, TrajectoryEncoder};
pub use traj2simvec::Traj2SimVecEncoder;
pub use trajgat::TrajGatEncoder;
