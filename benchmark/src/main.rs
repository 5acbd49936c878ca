//! One benchmark for the whole stack.
//!
//! ```text
//! lh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lh-benchmark all [--seed <n>] [--seconds <s>] [--out <file.json>]
//! lh-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints, last, the
//! one-line JSON object `BENCHMARK.json`'s driver reads. `all` runs every
//! workload in a fresh child process, untraced and then traced, and prints
//! every metric by name with its unit; `compare` holds two `all --out`
//! files to the benchmark's bounds. See `README.md` beside this package.

mod compare;
mod host;
mod report;
mod spec;
mod stats;
mod synth;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use compare::{ResultSet, Verdict};
use report::{driver_line, Run, RunRecord};
use spec::Spec;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  lh-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  lh-benchmark all [--seed <n>] [--seconds <s>] [--out <file.json>]
  lh-benchmark compare <a.json> <b.json>";

/// The full record travels from a child to `all` on the line before the
/// driver's, behind this prefix.
const RECORD_PREFIX: &str = "record: ";

/// The value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a valid value")),
    }
}

fn print_record(record: &RunRecord) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}  input_hash {}",
        record.workload, record.seed, record.seconds, record.trace as u8, record.input_hash
    );
    let h = &record.host;
    println!(
        "host  nproc {}  cpu \"{}\"  {}  git {}  client threads {}  library default threads {}  calibration_ms {:.3}",
        h.nproc, h.cpu_model, h.rustc, h.git_revision, h.client_threads,
        h.library_default_threads, h.calibration_ms
    );
    for s in &record.sizes {
        println!("size    {:<34} {:>16} {}", s.name, s.value, s.unit);
    }
    for m in &record.metrics {
        println!("metric  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {}",
        record.ops_attempted, record.ops_failed, record.correct
    );
    for c in &record.failed_checks {
        println!("failed check: {c}");
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let workload: String = flag(args, "--workload")?.ok_or(USAGE)?;
    let seed: u64 = flag(args, "--seed")?.ok_or(USAGE)?;
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(spec.run_seconds as f64);
    let trace = flag::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }

    let unknown = || {
        format!(
            "unknown workload `{workload}`; one of {}",
            workloads::NAMES.join(", ")
        )
    };
    let listed = spec
        .workloads
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(unknown)?;
    let mut run = Run::new(seed, seconds, trace);
    if !workloads::run(&workload, &mut run) {
        return Err(unknown());
    }
    let (record, tracer) = run.finish(&workload, host::Host::probe());
    // A workload whose set-up failed stops early: no result, not a zero.
    if let Some(m) = spec
        .end_to_end
        .iter()
        .find(|m| record.metric(&m.name).is_none())
    {
        return Err(format!(
            "{workload} did not measure {}: {:?}",
            m.name, record.failed_checks
        ));
    }
    if trace {
        let path = host::output_dir().join(format!("trace-{workload}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace   {} spans -> {}", tracer.len(), path.display());
    }
    println!("why     {}", listed.why);
    print_record(&record);
    let json = serde_json::to_string(&record).map_err(|e| e.to_string())?;
    println!("{RECORD_PREFIX}{json}");
    // The driver's line carries every end-to-end metric untraced, every
    // per-layer metric traced.
    let line = if trace {
        let names = spec.per_layer.iter();
        driver_line(&record, names.map(|m| (&*m.name, &*m.unit)))
    } else {
        let names = spec.end_to_end.iter();
        driver_line(&record, names.map(|m| (&*m.name, &*m.unit)))
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Runs one workload in a fresh child process and returns its record.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix(RECORD_PREFIX))
        .ok_or_else(|| format!("{workload} printed no record (exit {})", out.status))?;
    // Everything but the two machine-readable lines is for the reader.
    for line in stdout.lines() {
        if !line.starts_with(RECORD_PREFIX) && !line.starts_with('{') {
            println!("{line}");
        }
    }
    serde_json::from_str(record).map_err(|e| format!("{workload}: {e}"))
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = flag(args, "--seconds")?.unwrap_or(spec.run_seconds as f64);
    let out: Option<String> = flag(args, "--out")?;
    let mut set = ResultSet {
        records: Vec::new(),
    };
    for workload in workloads::NAMES {
        println!("\n=== {workload}: untraced pass (end-to-end metrics) ===");
        let untraced = child(workload, seed, seconds, false)?;
        println!("\n=== {workload}: traced pass (per-layer metrics) ===");
        let traced = child(workload, seed, seconds, true)?;
        // What recording spans cost: the same workload and seed, traced
        // against untraced.
        for (name, sign) in [("wall_s", 1.0), ("ops_per_s", -1.0)] {
            if let (Some(u), Some(t)) = (untraced.metric(name), traced.metric(name)) {
                println!(
                    "metric  trace_overhead_pct ({name}) {:>+8.2} %",
                    sign * (t.value - u.value) / u.value * 100.0
                );
            }
        }
        set.records.push(untraced);
        set.records.push(traced);
    }
    let failed: u64 = set.records.iter().map(|r| r.ops_failed).sum();
    println!("\n{} runs, {} operations failed", set.records.len(), failed);
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("results -> {path}");
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let spec = Spec::load()?;
    let mut lines = Vec::new();
    let verdict = compare::compare(
        &spec,
        &ResultSet::load(a)?,
        &ResultSet::load(b)?,
        &mut lines,
    );
    for line in lines {
        println!("{line}");
    }
    match verdict {
        Verdict::NotComparable(why) => Err(format!("not comparable: {why}")),
        Verdict::Compared { beyond, changed } => {
            println!("{beyond} bounded metrics beyond their bound, {changed} exact counts changed");
            Ok(if beyond == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some(a) if a.starts_with("--") => run_one(&args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
