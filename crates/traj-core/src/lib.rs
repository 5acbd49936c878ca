//! Trajectory substrate for the LH-plugin reproduction.
//!
//! This crate provides the ground-level data model every other crate builds
//! on: 2-D (optionally timestamped) points, variable-length trajectories,
//! datasets with bounding boxes and normalization, uniform spatial grids and
//! quadtrees (used by the Neutraj- and TrajGAT-style encoders), a small
//! scoped-thread parallel-map utility used to fill O(N²) ground-truth
//! distance matrices, the shared bounded [`topk`] selector every
//! retrieval surface ranks with, and the framed binary container
//! ([`codec`]) every file the workspace writes goes through.
//!
//! Everything here is deliberately framework-free `f64` geometry; the neural
//! network substrate (`lh-nn`) works in `f32` and converts at its boundary.

#![forbid(unsafe_code)]

pub mod bbox;
pub mod codec;
pub mod dataset;
pub mod error;
pub mod grid;
pub mod normalize;
pub mod parallel;
pub mod point;
pub mod quadtree;
pub mod topk;
pub mod trajectory;

pub use bbox::BoundingBox;
pub use dataset::TrajectoryDataset;
pub use error::{Result, TrajError};
pub use grid::UniformGrid;
pub use point::Point;
pub use quadtree::{QuadTree, QuadTreeConfig};
pub use topk::TopK;
pub use trajectory::Trajectory;
