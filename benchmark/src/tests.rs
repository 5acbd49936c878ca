//! Every workload at tiny sizes, held to the same contract the full
//! sizes are: all checks pass, the input hash follows the seed, and the
//! metrics produced are exactly the ones `BENCHMARK.json` names.

use crate::report::{driver_line, Run, RunRecord};
use crate::spec::{Spec, SPECIFIC};
use crate::workloads::{churn_mixed, durable_write, frozen, gt_matrices, train_eval, NAMES};
use lh_core::PluginVariant;
use serde::Deserialize;
use std::collections::{BTreeMap, BTreeSet};

/// Runs workload `name` at sizes small enough for a test. With zero
/// seconds the window is exactly `min_rounds` rounds.
fn tiny(name: &str, seed: u64, trace: bool) -> RunRecord {
    let mut run = Run::new(seed, 0.0, trace);
    match name {
        "gt-matrices" => gt_matrices::run(
            &gt_matrices::Sizes {
                n: 12,
                triplets: 60,
                check_n: 8,
                kernel_pairs: 16,
                cache_probe_n: 8,
                setup_reps: 2,
                min_rounds: 2,
            },
            &mut run,
        ),
        "train-eval" => train_eval::run(
            &train_eval::Sizes {
                datasets: 2,
                n: 14,
                n_queries: 4,
                fused_epochs: 1,
                trajgat_epochs: 1,
                setup_reps: 2,
                min_rounds: 2,
            },
            &mut run,
        ),
        "frozen-metric" | "frozen-fused" => frozen::run(
            &frozen::Sizes {
                variant: if name == "frozen-metric" {
                    PluginVariant::LorentzCosh
                } else {
                    PluginVariant::FusionDist
                },
                n: 600,
                pool: 80,
                calls_per_round: 64,
                k: 5,
                setup_reps: 2,
                min_rounds: 2,
                report_p99: name == "frozen-metric",
            },
            &mut run,
        ),
        "churn-mixed" => churn_mixed::run(
            &churn_mixed::Sizes {
                n: 800,
                pool: 80,
                block: 512,
                k: 5,
                setup_reps: 2,
                min_rounds: 2,
                dirty_probe: 32,
            },
            &mut run,
        ),
        "durable-write" => durable_write::run(
            &durable_write::Sizes {
                n: 600,
                pool: 80,
                block: 2048,
                k: 5,
                setup_reps: 2,
                min_rounds: 2,
                write_share: 0.5,
                recoveries: 2,
                fsync_probe: 8,
            },
            &mut run,
        ),
        other => panic!("no tiny sizes for {other}"),
    }
    run.finish(name, crate::host::Host::probe()).0
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    let spec = Spec::load().unwrap();
    for name in NAMES {
        let record = tiny(name, 3, false);
        assert!(record.correct, "{name}: {:?}", record.failed_checks);
        assert!(record.ops_attempted > 0, "{name}");
        for m in &spec.end_to_end {
            let got = record
                .metric(&m.name)
                .unwrap_or_else(|| panic!("{name} does not report {}", m.name));
            assert!(got.value > 0.0, "{name}: {} is {}", m.name, got.value);
            assert_eq!(got.unit, m.unit, "{name}: unit of {}", m.name);
        }
    }
}

#[test]
fn the_input_hash_follows_the_seed() {
    for name in NAMES {
        let a = tiny(name, 3, false);
        let again = tiny(name, 3, false);
        let other = tiny(name, 4, false);
        assert_eq!(a.input_hash, again.input_hash, "{name}: same seed");
        assert_ne!(a.input_hash, other.input_hash, "{name}: another seed");
        assert!(other.correct, "{name}: {:?}", other.failed_checks);
    }
}

/// The traced pass of the six workloads together produces exactly the
/// per-layer metrics `BENCHMARK.json` lists, in the listed units, and the
/// workload-specific end-to-end metrics are among them.
#[test]
fn traced_passes_produce_exactly_the_listed_per_layer_metrics() {
    let spec = Spec::load().unwrap();
    let listed: BTreeMap<&str, &str> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let universal: BTreeSet<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    let mut produced = BTreeSet::new();
    for name in NAMES {
        let record = tiny(name, 5, true);
        assert!(record.correct, "{name}: {:?}", record.failed_checks);
        for m in &record.metrics {
            if universal.contains(m.name.as_str()) {
                continue;
            }
            let unit = listed
                .get(m.name.as_str())
                .unwrap_or_else(|| panic!("{name} reports unlisted metric {}", m.name));
            assert_eq!(m.unit, *unit, "{name}: unit of {}", m.name);
            produced.insert(m.name.clone());
        }
    }
    let missing: Vec<&&str> = listed.keys().filter(|k| !produced.contains(**k)).collect();
    assert!(missing.is_empty(), "listed but never produced: {missing:?}");
    for m in &SPECIFIC {
        assert!(listed.contains_key(m.name), "{} is not listed", m.name);
    }
}

#[test]
fn benchmark_json_names_the_six_workloads() {
    let spec = Spec::load().unwrap();
    let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, NAMES);
    assert!(spec.workloads.iter().all(|w| w.why.len() <= 200));
    assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    assert!(spec.end_to_end.iter().all(|m| m.bound <= 0.25));
}

#[derive(Deserialize)]
struct DriverValue {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct DriverLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, DriverValue>,
}

#[test]
fn the_driver_line_carries_every_named_metric_and_reads_zero_for_idle_layers() {
    let record = tiny("frozen-fused", 3, true);
    let names = [("index.cells", "count"), ("wal.bytes_per_write", "B")];
    let line: DriverLine = serde_json::from_str(&driver_line(&record, names.into_iter())).unwrap();
    assert!(line.correct && line.failed == 0 && line.attempted >= 1);
    assert_eq!(line.metrics.len(), 2);
    assert!(line.metrics["index.cells"].value > 0.0);
    assert_eq!(line.metrics["index.cells"].unit, "count");
    // The WAL does no work in a frozen workload.
    assert_eq!(line.metrics["wal.bytes_per_write"].value, 0.0);
}
