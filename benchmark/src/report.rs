//! What one run of one workload produces, and the two lines it prints:
//! the full record (for `all` and `compare`) and, last, the object the
//! driver reads.

use crate::host::Host;
use crate::stats::{median, Fnv};
use crate::trace::Tracer;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// FNV of the inputs and the op plan, in hex. Records whose hashes
    /// differ are not comparable.
    pub input_hash: String,
    pub correct: bool,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Output checks that failed, by name (empty on a correct run).
    pub failed_checks: Vec<String>,
    /// Plan sizes, for the reader: rows, ops per round, rounds run.
    pub sizes: Vec<Metric>,
    pub metrics: Vec<Metric>,
    pub host: Host,
}

impl RunRecord {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Everything a workload needs while it runs: where to put results, the
/// tracer, and the clock that bounds the measured window.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub hash: Fnv,
    attempted: u64,
    failed: u64,
    failed_checks: Vec<String>,
    sizes: Vec<Metric>,
    metrics: Vec<Metric>,
}

impl Run {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            hash: Fnv::default(),
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            sizes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Counts `n` attempted operations of which `failed` returned an
    /// error or a value that disagrees with the model.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// An output check: counts as one attempted operation and, when it
    /// does not hold, as a failed one.
    pub fn check(&mut self, name: &str, holds: bool) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            eprintln!("CHECK FAILED: {name}");
            if !self.failed_checks.iter().any(|c| c == name) {
                self.failed_checks.push(name.to_string());
            }
        }
    }

    #[cfg(test)]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn size(&mut self, name: &str, value: usize, unit: &str) {
        self.sizes.push(Metric {
            name: name.to_string(),
            value: value as f64,
            unit: unit.to_string(),
        });
    }

    /// Records a metric. A value that is not a finite number is a failed
    /// check, reported as 0 so the result stays valid JSON.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        let finite = value.is_finite();
        if !finite {
            self.check(&format!("metric {name} is finite"), false);
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if finite { value } else { 0.0 },
            unit: unit.to_string(),
        });
    }

    /// Runs `setup` `reps` times, reports the median of the seconds each
    /// repetition says it took as `setup_s`, and returns the last result
    /// with that median. Each earlier result is dropped before the next
    /// repetition starts, so peak memory is that of one set-up.
    pub fn setup<T>(&mut self, reps: usize, mut setup: impl FnMut() -> (T, f64)) -> (T, f64) {
        let mut seconds = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps.max(1) {
            drop(last.take());
            let (value, s) = setup();
            seconds.push(s);
            last = Some(value);
        }
        let setup_s = median(&seconds);
        self.metric("setup_s", setup_s, "s");
        (last.expect("at least one repetition"), setup_s)
    }

    /// The two speed metrics every workload reports, from the seconds
    /// each round of `ops_per_round` operations took: the median round
    /// (`wall_s`), and the rate sustained over all rounds (`ops_per_s`,
    /// which it returns).
    pub fn rounds(&mut self, round_s: &[f64], ops_per_round: usize) -> f64 {
        let total_s: f64 = round_s.iter().sum();
        let ops_per_s = (ops_per_round * round_s.len()) as f64 / total_s;
        self.size("rounds", round_s.len(), "count");
        self.metric("wall_s", median(round_s), "s");
        self.metric("ops_per_s", ops_per_s, "1/s");
        ops_per_s
    }

    /// Closes the run: the process's peak memory is read here, after
    /// everything the workload did.
    pub fn finish(mut self, workload: &str, host: Host) -> (RunRecord, Tracer) {
        self.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        let record = RunRecord {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            trace: self.tracer.enabled(),
            input_hash: format!("{:016x}", self.hash.finish()),
            correct: self.failed == 0,
            ops_attempted: self.attempted,
            ops_failed: self.failed,
            failed_checks: self.failed_checks,
            sizes: self.sizes,
            metrics: self.metrics,
            host,
        };
        (record, self.tracer)
    }
}

/// The measured window: rounds repeat until `seconds` have passed, and
/// at least `min_rounds` times so a median exists on a slow host.
pub struct Window {
    deadline: Instant,
    min_rounds: usize,
    rounds: usize,
}

impl Window {
    pub fn new(seconds: f64, min_rounds: usize) -> Window {
        Window {
            deadline: Instant::now() + Duration::from_secs_f64(seconds),
            min_rounds,
            rounds: 0,
        }
    }

    /// Whether another round should run; counts it when so.
    pub fn next_round(&mut self) -> Option<usize> {
        if self.rounds >= self.min_rounds && Instant::now() >= self.deadline {
            return None;
        }
        self.rounds += 1;
        Some(self.rounds - 1)
    }
}

/// The last line of a run: exactly the keys the driver reads, with the
/// metrics named in `names` (a metric this workload does not produce
/// reads 0: the layer did no work here).
pub fn driver_line<'a>(
    record: &RunRecord,
    names: impl Iterator<Item = (&'a str, &'a str)>,
) -> String {
    let metrics: Vec<String> = names
        .map(|(name, unit)| {
            let value = record.metric(name).map_or(0.0, |m| m.value);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        record.correct,
        record.ops_attempted.max(1),
        record.ops_failed,
        metrics.join(", ")
    )
}
