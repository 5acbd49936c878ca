//! Classical trajectory similarity/distance functions.
//!
//! These are the ground-truth oracles `Dist*(·,·)` the paper's embedding
//! models regress against. Crucially, several of them (DTW, SSPD, EDR, TP,
//! DITA) are **not metrics**: they violate the triangle inequality on real
//! trajectory populations, which is the entire motivation of the LH-plugin.
//!
//! The dynamic-programming measures (DTW, ERP, EDR, discrete Fréchet,
//! LCSS) each write their recurrence once, as a private `Cell`, and two
//! drivers walk it: row by row over rolling buffers (O(min(n,m)) memory,
//! `f64` accumulation, optional early abandoning), and in SIMD lockstep
//! along anti-diagonals for a batch of pairs ([`matrix::wavefront`]).
//! Sharing the cell makes the two tiers bit-identical by construction.
//! [`matrix`] fills full and rectangular pairwise matrices in parallel
//! through the [`MatrixBuilder`] pipeline: one executor that runs
//! length-bucketed pairs of the DP measures in lockstep groups and
//! every other pair in dynamically scheduled scalar batches, opt-in
//! admissible pruning, and persistent fingerprint-keyed checkpoints.
//! SSPD and Hausdorff are not DPs; their scalar kernels are lane-blocked
//! over points in the squared domain instead ([`mod@sspd`],
//! [`mod@hausdorff`]). One private dispatcher runs all three lane loops
//! compiled for AVX2 where the CPU has it; its call is the crate's only
//! `unsafe` code.

#![deny(unsafe_code)]

mod dp;
pub mod dtw;
pub mod edr;
pub mod erp;
pub mod frechet;
pub mod hausdorff;
pub mod landmark;
pub mod lcss;
pub mod matrix;
pub mod measure;
mod simd;
pub mod sspd;
pub mod st;

pub use dtw::dtw;
pub use edr::edr;
pub use erp::erp;
pub use frechet::discrete_frechet;
pub use hausdorff::hausdorff;
pub use landmark::{LandmarkLowerBound, Landmarks};
pub use lcss::lcss_distance;
pub use matrix::{
    cross_matrix, pairwise_matrix, BuildReport, CacheError, CacheOutcome, DistanceMatrix,
    MatrixBuild, MatrixBuilder, Schedule,
};
pub use measure::{Measure, MeasureKind, PrunedDistance};
pub use sspd::sspd;
pub use st::{dita, tp};
