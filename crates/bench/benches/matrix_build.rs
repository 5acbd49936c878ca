//! Ground-truth matrix construction: the builder's executor vs cached
//! reload.
//!
//! The workload is deliberately *asymmetric*: trajectory lengths descend
//! with index, so early rows of the pairwise triangle hold both more
//! pairs (row `i` has `n−i−1`) and more expensive pairs (longer DP
//! tables) — the shape a static split by rows handles worst and the
//! executor's shared work queue is there for. `cached` measures the
//! checkpoint reload path (`MatrixBuilder::cache_dir`) against the same
//! matrix — the steady-state cost of a re-run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_core::Trajectory;
use traj_dist::{MatrixBuilder, MeasureKind};

/// Length-skewed synthetic trajectories: longest first.
fn skewed_trajs(n: usize, min_len: usize, max_len: usize) -> Vec<Trajectory> {
    (0..n)
        .map(|i| {
            let len = max_len - (i * (max_len - min_len)) / n.max(1);
            let phase = i as f64 * 0.37;
            let pts: Vec<(f64, f64)> = (0..len.max(2))
                .map(|k| {
                    let t = k as f64 * 0.05;
                    (phase + t, (phase + t * 3.1).sin() * 0.2)
                })
                .collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect()
}

fn bench_pairwise_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_build_dtw");
    group.sample_size(10);
    for n in [512usize, 2048] {
        let trajs = skewed_trajs(n, 4, 24);
        let measure = MeasureKind::Dtw.measure();
        group.bench_with_input(BenchmarkId::new("wavefront", n), &trajs, |b, trajs| {
            let builder = MatrixBuilder::new(measure);
            b.iter(|| std::hint::black_box(builder.build_pairwise(trajs)))
        });
        // Cached reload: one cold build populates the checkpoint, the
        // bench then times pure cache hits.
        let dir = std::env::temp_dir().join(format!("lhgm-bench-{}-{}", std::process::id(), n));
        let builder = MatrixBuilder::new(measure).cache_dir(&dir);
        builder.build_pairwise(&trajs);
        group.bench_with_input(BenchmarkId::new("cached", n), &trajs, |b, trajs| {
            b.iter(|| {
                let out = builder.build_pairwise(trajs);
                assert!(out.report.cache.is_hit());
                std::hint::black_box(out)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn bench_pruned_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("pairwise_build_dtw_pruned");
    group.sample_size(10);
    // Longer trajectories: the DP dominates, which is where abandoning
    // pays.
    let n = 256;
    let trajs = skewed_trajs(n, 16, 48);
    let measure = MeasureKind::Dtw.measure();
    // Threshold at the 25th percentile of off-diagonal distances: the
    // "only near neighborhoods need exact values" setting — ~75% of
    // pairs may abandon.
    let exact = MatrixBuilder::new(measure).build_pairwise(&trajs);
    let mut vals: Vec<f64> = exact
        .matrix
        .data()
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .collect();
    vals.sort_by(f64::total_cmp);
    let threshold = vals[vals.len() / 4];
    group.bench_function(BenchmarkId::new("exact", n), |b| {
        let builder = MatrixBuilder::new(measure);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    group.bench_function(BenchmarkId::new("pruned_p25", n), |b| {
        let builder = MatrixBuilder::new(measure).prune(threshold);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    // Layered pipeline on DTW: the closest-pair feature gap is capped by
    // the spatial diameter while DTW sums scale with path length, so at
    // a distribution-quantile threshold the screen rarely fires here —
    // print the split so the wall-clock delta has its explanation
    // attached (the screen pays on metric measures; see the ERP group).
    let screened = MatrixBuilder::new(measure)
        .prune_landmark(threshold)
        .build_pairwise(&trajs);
    eprintln!(
        "[matrix_build] dtw landmark_p25: {} of {} pairs screened, {} pruned in total",
        screened.report.pairs_screened,
        screened.report.pairs_computed,
        screened.report.pairs_pruned,
    );
    group.bench_function(BenchmarkId::new("landmark_p25", n), |b| {
        let builder = MatrixBuilder::new(measure).prune_landmark(threshold);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    group.finish();

    // ERP is a *metric*: the landmark feature is the true ERP distance
    // to the pivot, so the reverse-triangle gap is commensurate with the
    // distances themselves and the O(k) screen can reject a
    // supra-threshold pair before its O(L²) DP starts.
    let mut group = c.benchmark_group("pairwise_build_erp_pruned");
    group.sample_size(10);
    let measure = MeasureKind::Erp.measure();
    let exact = MatrixBuilder::new(measure).build_pairwise(&trajs);
    let mut vals: Vec<f64> = exact
        .matrix
        .data()
        .iter()
        .copied()
        .filter(|&v| v > 0.0)
        .collect();
    vals.sort_by(f64::total_cmp);
    let threshold = vals[vals.len() / 4];
    let screened = MatrixBuilder::new(measure)
        .prune_landmark(threshold)
        .build_pairwise(&trajs);
    eprintln!(
        "[matrix_build] erp landmark_p25: {} of {} pairs screened, {} pruned in total",
        screened.report.pairs_screened,
        screened.report.pairs_computed,
        screened.report.pairs_pruned,
    );
    group.bench_function(BenchmarkId::new("exact", n), |b| {
        let builder = MatrixBuilder::new(measure);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    group.bench_function(BenchmarkId::new("pruned_p25", n), |b| {
        let builder = MatrixBuilder::new(measure).prune(threshold);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    group.bench_function(BenchmarkId::new("landmark_p25", n), |b| {
        let builder = MatrixBuilder::new(measure).prune_landmark(threshold);
        b.iter(|| std::hint::black_box(builder.build_pairwise(&trajs)))
    });
    group.finish();
}

criterion_group!(benches, bench_pairwise_build, bench_pruned_build);
criterion_main!(benches);
