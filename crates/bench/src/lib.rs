//! Shared harness for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper. This library holds what they share: a dependency-free CLI
//! parser, table/series printers that mimic the paper's layout, artifact
//! writing under `target/experiments/`, and the default experiment scales
//! (small enough for CPU, large enough to show the paper's shapes).

#![forbid(unsafe_code)]

pub mod args;
pub mod printer;
pub mod scales;

pub use args::Args;
pub use printer::{print_header, write_artifact, Table};
pub use scales::default_spec;
