//! The benchmark's contract: `BENCHMARK.json` at the repository root,
//! plus the bounds of the end-to-end metrics only some workloads have.
//!
//! `BENCHMARK.json` lists as `end_to_end` the metrics every workload
//! reports (the driver holds each of them to its bound on each workload)
//! and as `per_layer` everything the traced pass reports. The metrics a
//! user of one workload sees but another workload has no counterpart for
//! (a query latency has no meaning for a matrix build) cannot be listed
//! as `end_to_end` there; they are measured in both passes, listed under
//! `per_layer`, and `compare` holds them to the bounds in [`SPECIFIC`].

use serde::Deserialize;

#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

/// The keys of `BENCHMARK.json` the benchmark itself reads (`command`,
/// `paths` and each per-layer `better` are the driver's).
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the directory above the benchmark's
    /// own.
    pub fn load() -> Result<Spec, String> {
        let path = crate::host::bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// How far a metric may move before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the first file's value.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

pub struct Bounded {
    pub name: &'static str,
    pub higher_is_better: bool,
    pub bound: Bound,
}

/// The end-to-end metrics only some workloads report, with the workloads
/// that do:
///
/// * `hr10` — `train-eval` (HR@10 of the fused experiment);
/// * `query_p50_us` — `frozen-metric`, `frozen-fused`, `churn-mixed`;
/// * `query_p99_us` — `frozen-metric`, `churn-mixed` (a 2 ms fused scan
///   catches host preemptions, so its p99 is the host's, not the code's);
/// * `batch_qps` — `frozen-metric`, `frozen-fused`;
/// * `write_p50_us`, `write_p99_us` — `churn-mixed`, `durable-write`;
/// * `recover_s`, `disk_bytes_per_live_byte` — `durable-write`.
///
/// Each bound is the issue's starting value or twice the widest quartile
/// spread measured over ten seeds on the reference host, rounded up to the
/// next 5 %, whichever is larger (`README.md` has the table).
pub const SPECIFIC: [Bounded; 8] = [
    Bounded {
        name: "hr10",
        higher_is_better: true,
        bound: Bound::Absolute(0.02),
    },
    Bounded {
        name: "query_p50_us",
        higher_is_better: false,
        bound: Bound::Relative(0.20),
    },
    Bounded {
        name: "query_p99_us",
        higher_is_better: false,
        bound: Bound::Relative(0.30),
    },
    Bounded {
        name: "batch_qps",
        higher_is_better: true,
        bound: Bound::Relative(0.20),
    },
    Bounded {
        name: "write_p50_us",
        higher_is_better: false,
        bound: Bound::Relative(0.35),
    },
    Bounded {
        name: "write_p99_us",
        higher_is_better: false,
        bound: Bound::Relative(0.30),
    },
    Bounded {
        name: "recover_s",
        higher_is_better: false,
        bound: Bound::Relative(0.25),
    },
    Bounded {
        name: "disk_bytes_per_live_byte",
        higher_is_better: false,
        bound: Bound::Relative(0.05),
    },
];

/// Counts that must repeat exactly between two runs on the same inputs:
/// they are defined over a fixed amount of work (one round, one pass over
/// the query pool), not over however many rounds a run had time for.
pub const EXACT: [&str; 13] = [
    "builder.pairs_computed",
    "landmark.erp.screened_share",
    "cache.bytes",
    "trainer.batches",
    "trainer.t2sv.final_loss",
    "trainer.trajgat.final_loss",
    "index.cells",
    "index.bytes_per_row",
    "index.cells_probed_per_query",
    "index.rows_scanned_per_query",
    "index.prune_rate",
    "index.landmark_prune_rate",
    "index.codec.bytes",
];
