//! **LH-plugin** — the paper's contribution.
//!
//! A model-agnostic plugin that upgrades any Euclidean trajectory-embedding
//! model for similarity functions that violate the triangle inequality:
//!
//! 1. [`projection`] lifts the base model's Euclidean output into the
//!    Lorentz model of hyperbolic space, with either the *vanilla* or the
//!    *Cosh* projection (Section IV) — on the autodiff tape, so training
//!    differentiates through the lift;
//! 2. [`distance`] computes the Lorentz distance `|⟨a,b⟩| − β` (Section
//!    II-B), the Euclidean distance, and the fused distance;
//! 3. [`fusion`] learns the per-pair fusion ratio `α_Lo` from factor
//!    embeddings produced by a lightweight LSTM encoder (Section V-B);
//! 4. [`trainer`] wraps a base encoder + plugin into one training loop
//!    (Neutraj-style rank-weighted distance regression);
//! 5. [`retrieval`] stores embeddings compactly and answers top-k queries
//!    with the O(d) fused distance — a kernel-generic scan core with a
//!    batched parallel `knn_batch` API, plus a pivot-partitioned index
//!    tier (`IndexedStore`) that serves every variant sub-linearly and
//!    exactly: metric ones by triangle-inequality pruning, the fused
//!    distance by its convex-mix bound;
//! 6. [`pipeline`] drives complete experiments (data → ground truth →
//!    train → evaluate) and is what the bench binaries call.
//!
//! The plugin's ablation axes (Table VI) are a configuration enum:
//! [`config::PluginVariant`] selects `original` (Euclidean only),
//! `lh-vanilla`, `lh-cosh`, or `fusion-dist`.

#![deny(unsafe_code)]

pub mod config;
pub mod distance;
pub mod fusion;
pub mod pipeline;
pub mod projection;
pub mod retrieval;
pub mod sampler;
pub mod trainer;

pub use config::{PluginConfig, PluginVariant};
pub use distance::{euclidean_distance_rows, fused_distance_rows, lorentz_distance_rows};
pub use fusion::FactorEncoder;
pub use pipeline::{run_experiment, ExperimentOutcome, ExperimentSpec};
pub use projection::project_rows;
pub use retrieval::{
    shard_of_id, BoundSpace, DistanceKernel, EmbeddingStore, IndexParams, IndexedStore, ProbeStats,
    RetrievalResult, ServeError, ServeHit, ServeStats, ServingOptions, ShardedServingOptions,
    ShardedServingStore, ShardedSnapshot,
};
pub use trainer::{LhModel, TrainReport, Trainer, TrainerConfig};
