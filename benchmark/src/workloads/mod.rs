//! The six workloads. Each takes its sizes as an argument (the command
//! line has no scale flag; the tests pass tiny sizes) and a [`Run`] to
//! put its results in.

pub mod churn_mixed;
pub mod durable_write;
pub mod frozen;
pub mod gt_matrices;
pub mod plan;
pub mod train_eval;

use crate::report::Run;

/// Every workload, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "gt-matrices",
    "train-eval",
    "frozen-metric",
    "frozen-fused",
    "churn-mixed",
    "durable-write",
];

/// Runs workload `name` at its full sizes. `false` for an unknown name.
pub fn run(name: &str, run: &mut Run) -> bool {
    match name {
        "gt-matrices" => gt_matrices::run(&gt_matrices::Sizes::full(), run),
        "train-eval" => train_eval::run(&train_eval::Sizes::full(), run),
        "frozen-metric" => frozen::run(&frozen::Sizes::metric(), run),
        "frozen-fused" => frozen::run(&frozen::Sizes::fused(), run),
        "churn-mixed" => churn_mixed::run(&churn_mixed::Sizes::full(), run),
        "durable-write" => durable_write::run(&durable_write::Sizes::full(), run),
        _ => return false,
    }
    true
}
