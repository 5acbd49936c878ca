//! What a result needs to say about the machine it was taken on, so a
//! drift between two records can be told from a change in the code.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// `unknown` outside a git checkout.
    pub git_revision: String,
    /// Threads issuing operations: every workload is a closed loop with
    /// one client.
    pub client_threads: usize,
    /// What `knn_batch` and the matrix builder use when the benchmark
    /// passes no override: the library's default, i.e. `nproc`.
    pub library_default_threads: usize,
    /// Milliseconds the fixed spin kernel took at record time.
    pub calibration_ms: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A fixed integer-and-float spin: the same instruction stream on every
/// host, so its time tracks clock speed and contention, not the code
/// under test. Returns the best of five runs in milliseconds.
pub fn calibration_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0.0f64;
        for i in 0..4_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += ((x >> 40) as f64).sqrt() + i as f64 * 1e-9;
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let bench_dir = bench_dir();
        let git_revision = command_line(
            "git",
            &[
                "-C",
                &bench_dir.to_string_lossy(),
                "rev-parse",
                "--short",
                "HEAD",
            ],
        )
        .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_revision,
            client_threads: 1,
            library_default_threads: nproc,
            calibration_ms: calibration_ms(),
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory (where this package's manifest lives).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Everything the benchmark writes goes under its own `target/`.
pub fn output_dir() -> PathBuf {
    bench_dir().join("target")
}

/// A fresh, empty directory for one run's files (durable stores, matrix
/// caches), unique per process and per call so concurrent runs and tests
/// never share state. Removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = output_dir().join("scratch").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/target");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total bytes of the regular files under `dir`, at any depth, whose
/// name ends in `suffix` (`""` for all of them).
pub fn bytes_under(dir: &Path, suffix: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&e.path(), suffix),
            Ok(m) if e.file_name().to_string_lossy().ends_with(suffix) => m.len(),
            _ => 0,
        })
        .sum()
}
