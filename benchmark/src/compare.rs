//! `compare <a.json> <b.json>`: is the second set of results worse than
//! the first by more than the benchmark's own bounds?
//!
//! Both files are what `all --out` writes. Each (metric, workload) pair
//! is judged on its own; there is no combined score. Results taken on
//! different inputs (`input_hash`) are refused, not compared.

use crate::report::RunRecord;
use crate::spec::{Bound, Spec, EXACT, SPECIFIC};
use serde::{Deserialize, Serialize};

/// What `all --out` writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultSet {
    pub records: Vec<RunRecord>,
}

impl ResultSet {
    pub fn load(path: &str) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Compared {
        /// Bounded metrics worse by more than their bound.
        beyond: usize,
        /// Counts that repeat exactly on the same code and inputs, and
        /// did not. Not a regression in itself: a change that reorders
        /// arithmetic moves them and has to say so.
        changed: usize,
    },
    /// The two files ran different inputs or different workloads.
    NotComparable(String),
}

/// `(higher is better, bound)` for a metric the benchmark bounds.
fn bound_of(spec: &Spec, name: &str) -> Option<(bool, Bound)> {
    if let Some(m) = spec.end_to_end.iter().find(|m| m.name == name) {
        return Some((m.better == "higher", Bound::Relative(m.bound)));
    }
    SPECIFIC
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.higher_is_better, m.bound))
}

/// By how much `b` is worse than `a`, in the bound's own terms (a share
/// of `a`, or the metric's unit). Negative when `b` is better.
fn worsening(a: f64, b: f64, higher_is_better: bool, bound: Bound) -> f64 {
    let worse_by = if higher_is_better { a - b } else { b - a };
    match bound {
        Bound::Relative(_) if a == 0.0 => 0.0,
        Bound::Relative(_) => worse_by / a.abs(),
        Bound::Absolute(_) => worse_by,
    }
}

pub fn compare(spec: &Spec, a: &ResultSet, b: &ResultSet, out: &mut Vec<String>) -> Verdict {
    let (mut beyond, mut changed) = (0, 0);
    for ra in &a.records {
        let Some(rb) = b
            .records
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            return Verdict::NotComparable(format!(
                "{} (trace {}) is missing from the second file",
                ra.workload, ra.trace as u8
            ));
        };
        if ra.input_hash != rb.input_hash {
            return Verdict::NotComparable(format!(
                "{}: input_hash {} vs {} — different inputs",
                ra.workload, ra.input_hash, rb.input_hash
            ));
        }
        if rb.ops_failed > ra.ops_failed {
            out.push(format!(
                "BEYOND  {:<14} ops_failed {} -> {}",
                ra.workload, ra.ops_failed, rb.ops_failed
            ));
            beyond += 1;
        }
        for ma in &ra.metrics {
            let Some(mb) = rb.metric(&ma.name) else {
                continue;
            };
            let pass = if ra.trace { "traced" } else { "untraced" };
            let head = format!("{:<14} {:<8} {:<30}", ra.workload, pass, ma.name);
            let change = if ma.value == 0.0 {
                0.0
            } else {
                (mb.value - ma.value) / ma.value.abs() * 100.0
            };
            let values = format!(
                "{:>14.4} -> {:>14.4} {:<6} {change:>+7.2} %",
                ma.value, mb.value, ma.unit
            );
            // The bounded metrics are judged on the untraced pass only:
            // that is the pass they are defined on.
            let bounded = bound_of(spec, &ma.name).filter(|_| !ra.trace);
            if EXACT.contains(&ma.name.as_str()) && ma.value.to_bits() != mb.value.to_bits() {
                out.push(format!(
                    "CHANGED {head} {values}  (repeats exactly on the same code)"
                ));
                changed += 1;
            } else if let Some((higher, bound)) = bounded {
                let limit = match bound {
                    Bound::Relative(l) | Bound::Absolute(l) => l,
                };
                let w = worsening(ma.value, mb.value, higher, bound);
                let verdict = if w > limit { "BEYOND" } else { "within" };
                beyond += usize::from(w > limit);
                let shown = match bound {
                    Bound::Relative(l) => format!("bound {:.0} %", l * 100.0),
                    Bound::Absolute(l) => format!("bound {l} abs"),
                };
                out.push(format!("{verdict}  {head} {values}  ({shown})"));
            } else {
                out.push(format!("        {head} {values}"));
            }
        }
    }
    Verdict::Compared { beyond, changed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use crate::report::Metric;
    use crate::spec::EndToEnd;

    fn spec() -> Spec {
        Spec {
            run_seconds: 1,
            workloads: Vec::new(),
            end_to_end: vec![EndToEnd {
                name: "ops_per_s".to_string(),
                unit: "1/s".to_string(),
                better: "higher".to_string(),
                bound: 0.1,
            }],
            per_layer: Vec::new(),
        }
    }

    fn set(hash: &str, metrics: &[(&str, f64)]) -> ResultSet {
        ResultSet {
            records: vec![RunRecord {
                workload: "w".to_string(),
                seed: 1,
                seconds: 1.0,
                trace: false,
                input_hash: hash.to_string(),
                correct: true,
                ops_attempted: 1,
                ops_failed: 0,
                failed_checks: Vec::new(),
                sizes: Vec::new(),
                metrics: metrics
                    .iter()
                    .map(|(name, value)| Metric {
                        name: name.to_string(),
                        value: *value,
                        unit: "u".to_string(),
                    })
                    .collect(),
                host: Host {
                    nproc: 1,
                    cpu_model: String::new(),
                    rustc: String::new(),
                    git_revision: String::new(),
                    client_threads: 1,
                    library_default_threads: 1,
                    calibration_ms: 1.0,
                },
            }],
        }
    }

    fn verdict(a: &ResultSet, b: &ResultSet) -> Verdict {
        compare(&spec(), a, b, &mut Vec::new())
    }

    const WITHIN: Verdict = Verdict::Compared {
        beyond: 0,
        changed: 0,
    };
    const ONE_BEYOND: Verdict = Verdict::Compared {
        beyond: 1,
        changed: 0,
    };

    #[test]
    fn a_drop_within_the_bound_passes_and_beyond_it_fails() {
        let a = set("h", &[("ops_per_s", 100.0)]);
        assert_eq!(verdict(&a, &set("h", &[("ops_per_s", 91.0)])), WITHIN);
        assert_eq!(verdict(&a, &set("h", &[("ops_per_s", 89.0)])), ONE_BEYOND);
        // Better is never a regression, however large.
        assert_eq!(verdict(&a, &set("h", &[("ops_per_s", 500.0)])), WITHIN);
    }

    #[test]
    fn lower_is_better_and_absolute_bounds() {
        let a = set("h", &[("query_p50_us", 100.0), ("hr10", 0.50)]);
        let slower = set("h", &[("query_p50_us", 200.0), ("hr10", 0.50)]);
        assert_eq!(verdict(&a, &slower), ONE_BEYOND);
        let faster = set("h", &[("query_p50_us", 50.0), ("hr10", 0.49)]);
        assert_eq!(verdict(&a, &faster), WITHIN);
        let less_accurate = set("h", &[("query_p50_us", 100.0), ("hr10", 0.47)]);
        assert_eq!(verdict(&a, &less_accurate), ONE_BEYOND);
    }

    #[test]
    fn different_inputs_are_refused() {
        let a = set("h1", &[("ops_per_s", 100.0)]);
        let b = set("h2", &[("ops_per_s", 100.0)]);
        assert!(matches!(verdict(&a, &b), Verdict::NotComparable(_)));
        let mut other = set("h1", &[("ops_per_s", 100.0)]);
        other.records[0].workload = "x".to_string();
        assert!(matches!(verdict(&a, &other), Verdict::NotComparable(_)));
    }

    #[test]
    fn exact_counts_are_flagged_and_unbounded_metrics_never_fail() {
        let a = set("h", &[("index.cells", 317.0), ("index.build_s", 1.0)]);
        let b = set("h", &[("index.cells", 317.0), ("index.build_s", 9.0)]);
        assert_eq!(verdict(&a, &b), WITHIN);
        let c = set("h", &[("index.cells", 318.0), ("index.build_s", 1.0)]);
        assert_eq!(
            verdict(&a, &c),
            Verdict::Compared {
                beyond: 0,
                changed: 1
            }
        );
    }

    #[test]
    fn result_sets_round_trip_through_json() {
        let a = set("h", &[("ops_per_s", 100.5)]);
        let text = serde_json::to_string(&a).unwrap();
        let back: ResultSet = serde_json::from_str(&text).unwrap();
        assert_eq!(back.records[0].metrics, a.records[0].metrics);
        assert_eq!(back.records[0].input_hash, "h");
    }
}
