//! Synthetic trajectory data substrate.
//!
//! The paper evaluates on six proprietary/large real datasets (Chengdu,
//! Porto, Xian, T-Drive, OSM, Geolife). This crate simulates their role: a
//! city model generates road-constrained random-walk trips with GPS noise,
//! and per-dataset presets vary extent, trip length, sampling interval,
//! noise, and timestamping so the six synthetic populations differ the way
//! the real ones do.
//!
//! A key structural property of real taxi data is preserved deliberately:
//! many trips share routes. The generator first samples a set of base
//! *routes* and then emits several noisy/resampled variants of each, so
//! top-k similarity retrieval has meaningful answers.

#![forbid(unsafe_code)]

pub mod citysim;
pub mod noise;
pub mod presets;

pub use citysim::{CityModel, CityModelBuilder};
pub use presets::{generate, DatasetPreset};
