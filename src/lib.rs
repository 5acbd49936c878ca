//! Facade crate for the LH-plugin reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use lh_repro::...`. See `DESIGN.md` for the full
//! system inventory and `EXPERIMENTS.md` for reproduction results.

#![forbid(unsafe_code)]

pub use lh_core as plugin;
pub use lh_data as data;
pub use lh_hyperbolic as hyperbolic;
pub use lh_metrics as metrics;
pub use lh_models as models;
pub use lh_nn as nn;
pub use traj_core as traj;
pub use traj_dist as dist;
