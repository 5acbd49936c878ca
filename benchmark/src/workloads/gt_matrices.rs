//! `gt-matrices`: ground-truth distance matrices and their violation
//! ratios, Table I's shape.
//!
//! One round builds the full pairwise matrix of six measures over one
//! generated Chengdu-like dataset with [`MatrixBuilder`]'s defaults (no
//! schedule or thread override) and counts triangle violations on 20 000
//! sampled triplets per matrix. `traj-dist` does all the work; training
//! and retrieval do none.

use crate::report::{Run, Window};
use crate::stats::{median, percentile, sorted, SplitMix64};
use lh_data::DatasetPreset;
use lh_metrics::{ratio_of_violation, sample_triplets};
use std::hint::black_box;
use std::time::Instant;
use traj_core::normalize::Normalizer;
use traj_core::Trajectory;
use traj_dist::{DistanceMatrix, MatrixBuilder, Measure, MeasureKind, Schedule};

pub struct Sizes {
    /// Trajectories; a round computes `6 · n(n−1)/2` pairs.
    pub n: usize,
    pub triplets: usize,
    /// Trajectories of the every-run schedule/pruning equivalence check.
    pub check_n: usize,
    /// Pairs of the per-kernel sample (traced pass).
    pub kernel_pairs: usize,
    /// Two-point trajectories of the cache probe (traced pass).
    pub cache_probe_n: usize,
    pub setup_reps: usize,
    pub min_rounds: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n: 256,
            triplets: 20_000,
            check_n: 64,
            kernel_pairs: 4096,
            cache_probe_n: 768,
            setup_reps: 25,
            min_rounds: 3,
        }
    }
}

struct Named {
    name: &'static str,
    build_span: &'static str,
    measure: Measure,
}

/// The six measures, in the order a round builds them. EDR takes Table
/// I's tolerance.
fn measures() -> [Named; 6] {
    let named = |name, build_span, kind: MeasureKind| Named {
        name,
        build_span,
        measure: kind.measure().with_edr_eps(0.02),
    };
    [
        named("dtw", "MatrixBuilder::build_pairwise dtw", MeasureKind::Dtw),
        named("erp", "MatrixBuilder::build_pairwise erp", MeasureKind::Erp),
        named("edr", "MatrixBuilder::build_pairwise edr", MeasureKind::Edr),
        named(
            "sspd",
            "MatrixBuilder::build_pairwise sspd",
            MeasureKind::Sspd,
        ),
        named(
            "hausdorff",
            "MatrixBuilder::build_pairwise hausdorff",
            MeasureKind::Hausdorff,
        ),
        named(
            "frechet",
            "MatrixBuilder::build_pairwise frechet",
            MeasureKind::DiscreteFrechet,
        ),
    ]
}

fn pairs_of(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

fn same_bytes(a: &DistanceMatrix, b: &DistanceMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn symmetric_zero_diagonal(m: &DistanceMatrix) -> bool {
    (0..m.rows()).all(|i| {
        m.get(i, i) == 0.0 && (0..i).all(|j| m.get(i, j).to_bits() == m.get(j, i).to_bits())
    })
}

/// The 25th percentile of the off-diagonal entries.
fn p25(m: &DistanceMatrix) -> f64 {
    let upper: Vec<f64> = (0..m.rows())
        .flat_map(|i| ((i + 1)..m.cols()).map(move |j| (i, j)))
        .map(|(i, j)| m.get(i, j))
        .collect();
    percentile(&sorted(&upper), 25.0)
}

/// The pruning contract: an entry at or below the threshold is the exact
/// distance bit for bit, and every other entry stays above it.
fn pruned_is_admissible(exact: &DistanceMatrix, pruned: &DistanceMatrix, t: f64) -> bool {
    exact.data().iter().zip(pruned.data()).all(|(e, p)| {
        if *e <= t {
            e.to_bits() == p.to_bits()
        } else {
            *p > t
        }
    })
}

/// Default ≡ `Wavefront` ≡ `threads(1)` byte for byte, and the landmark
/// pipeline admissible at the p25 distance, for every measure.
fn check_equivalence(run: &mut Run, trajs: &[Trajectory]) {
    for m in measures() {
        let default = MatrixBuilder::new(m.measure).build_pairwise(trajs).matrix;
        let wavefront = MatrixBuilder::new(m.measure)
            .schedule(Schedule::Wavefront)
            .build_pairwise(trajs)
            .matrix;
        let one_thread = MatrixBuilder::new(m.measure)
            .threads(1)
            .build_pairwise(trajs)
            .matrix;
        run.check(
            &format!("{}: wavefront bytes equal default", m.name),
            same_bytes(&default, &wavefront),
        );
        run.check(
            &format!("{}: threads(1) bytes equal default", m.name),
            same_bytes(&default, &one_thread),
        );
        let t = p25(&default);
        let pruned = MatrixBuilder::new(m.measure)
            .prune_landmark(t)
            .build_pairwise(trajs)
            .matrix;
        run.check(
            &format!("{}: pruned entries at or below t are exact", m.name),
            pruned_is_admissible(&default, &pruned, t),
        );
    }
}

pub fn run(sizes: &Sizes, run: &mut Run) {
    // The library's generator takes a seed of its own; the benchmark
    // derives it, so `--seed` decides every input.
    let data_seed = SplitMix64::new(run.seed ^ 0x67a7).next_u64();
    let (trajs, setup_s) = run.setup(sizes.setup_reps, || {
        let start = Instant::now();
        let raw = lh_data::generate(DatasetPreset::Chengdu, sizes.n, data_seed);
        let normalized = Normalizer::fit(&raw)
            .expect("generated data is non-degenerate")
            .dataset(&raw);
        (
            normalized.into_trajectories(),
            start.elapsed().as_secs_f64(),
        )
    });
    for t in &trajs {
        for p in t.points() {
            run.hash.f64(p.x);
            run.hash.f64(p.y);
        }
    }
    let triplets = sample_triplets(sizes.n, sizes.triplets, data_seed);
    for &(i, j, k) in triplets.triples() {
        run.hash
            .u64((i * sizes.n * sizes.n + j * sizes.n + k) as u64);
    }
    run.size("trajectories", sizes.n, "count");
    run.size("pairs_per_round", 6 * pairs_of(sizes.n), "count");
    run.size("triplets_per_matrix", triplets.len(), "count");

    let all = measures();
    let mut first: Vec<DistanceMatrix> = Vec::new();
    let (mut round_s, mut pairs_per_round) = (Vec::new(), 0);
    let mut window = Window::new(run.seconds, sizes.min_rounds);
    while let Some(round) = window.next_round() {
        let span = run.tracer.open("round", round as u64, None);
        let start = Instant::now();
        let mut pairs = 0;
        let mut built = Vec::with_capacity(all.len());
        for m in &all {
            let t0 = Instant::now();
            let build = MatrixBuilder::new(m.measure).build_pairwise(&trajs);
            let t1 = Instant::now();
            let violations = ratio_of_violation(&build.matrix, &triplets);
            let t2 = Instant::now();
            black_box(violations);
            pairs += build.report.pairs_computed;
            built.push(build.matrix);
            run.tracer.record(m.build_span, round as u64, t0, t1, span);
            run.tracer
                .record("lh_metrics::ratio_of_violation", round as u64, t1, t2, span);
        }
        round_s.push(start.elapsed().as_secs_f64());
        run.tracer.close(span);
        // Every round must reproduce the first one byte for byte.
        let wrong = if first.is_empty() {
            first = built;
            0
        } else {
            first
                .iter()
                .zip(&built)
                .filter(|(a, b)| !same_bytes(a, b))
                .count()
        };
        run.ops(pairs as u64, wrong as u64);
        pairs_per_round = pairs;
    }

    for (m, matrix) in all.iter().zip(&first) {
        run.check(
            &format!("{}: symmetric with zero diagonal", m.name),
            symmetric_zero_diagonal(matrix),
        );
    }
    check_equivalence(run, &trajs[..sizes.check_n.min(trajs.len())]);

    run.rounds(&round_s, pairs_per_round);

    if run.traced() {
        layer_probes(sizes, run, &trajs, &first, setup_s, pairs_per_round);
    }
}

/// Times one full-size build of `builder`, checks its bytes against the
/// round's matrix, and returns the seconds it took.
fn timed_build(
    run: &mut Run,
    span: &'static str,
    what: &str,
    builder: &MatrixBuilder,
    trajs: &[Trajectory],
    reference: &DistanceMatrix,
) -> f64 {
    let t0 = Instant::now();
    let build = builder.build_pairwise(trajs);
    let t1 = Instant::now();
    run.tracer.record(span, 0, t0, t1, None);
    run.ops(build.report.pairs_computed as u64, 0);
    run.check(what, same_bytes(reference, &build.matrix));
    (t1 - t0).as_secs_f64()
}

fn layer_probes(
    sizes: &Sizes,
    run: &mut Run,
    trajs: &[Trajectory],
    first: &[DistanceMatrix],
    generate_s: f64,
    pairs_per_round: usize,
) {
    let all = measures();
    let pairs = pairs_of(trajs.len()) as f64;
    run.metric("lh-data.generate_s", generate_s, "s");
    run.metric("builder.pairs_computed", pairs_per_round as f64, "count");
    let mut default_s = Vec::new();
    for m in &all {
        let s = median(&run.tracer.durations_us(m.build_span)) / 1e6;
        run.metric(
            &format!("builder.{}.us_per_pair", m.name),
            s * 1e6 / pairs,
            "us",
        );
        default_s.push(s);
    }
    // Six violation counts per round; report them per round.
    let rv_us = run.tracer.durations_us("lh_metrics::ratio_of_violation");
    run.metric(
        "lh-metrics.rv_s",
        rv_us.iter().sum::<f64>() / 1e6 / (rv_us.len() / all.len()).max(1) as f64,
        "s",
    );

    // The DP kernels alone, on a fixed pair sample: one pair per call,
    // then the same pairs through the lockstep batch tier.
    let mut rng = SplitMix64::new(run.seed ^ 0x5a3b);
    let sample: Vec<(&Trajectory, &Trajectory)> = (0..sizes.kernel_pairs)
        .map(|_| {
            (
                &trajs[rng.below(trajs.len())],
                &trajs[rng.below(trajs.len())],
            )
        })
        .collect();
    for (m, (reference, default_s)) in all.iter().zip(first.iter().zip(&default_s)).take(3) {
        let t0 = Instant::now();
        let scalar: Vec<f64> = sample
            .iter()
            .map(|(a, b)| m.measure.distance(a, b))
            .collect();
        let t1 = Instant::now();
        let batch = m.measure.distance_batch(&sample);
        let t2 = Instant::now();
        run.tracer.record("Measure::distance", 0, t0, t1, None);
        run.tracer
            .record("Measure::distance_batch", 0, t1, t2, None);
        run.ops(2 * sample.len() as u64, 0);
        run.check(
            &format!("{}: distance_batch bits equal distance", m.name),
            scalar
                .iter()
                .map(|d| d.to_bits())
                .eq(batch.iter().map(|d| d.to_bits())),
        );
        let per_pair = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6 / sample.len() as f64;
        run.metric(
            &format!("kernel.{}.scalar_us_per_pair", m.name),
            per_pair(t0, t1),
            "us",
        );
        run.metric(
            &format!("kernel.{}.batch_us_per_pair", m.name),
            per_pair(t1, t2),
            "us",
        );

        let wavefront_s = timed_build(
            run,
            "MatrixBuilder::build_pairwise wavefront",
            &format!("{}: full wavefront bytes equal default", m.name),
            &MatrixBuilder::new(m.measure).schedule(Schedule::Wavefront),
            trajs,
            reference,
        );
        run.metric(
            &format!("wavefront.{}.us_per_pair", m.name),
            wavefront_s * 1e6 / pairs,
            "us",
        );
        if m.name == "dtw" {
            let one_thread_s = timed_build(
                run,
                "MatrixBuilder::build_pairwise threads(1)",
                "dtw: full threads(1) bytes equal default",
                &MatrixBuilder::new(m.measure).threads(1),
                trajs,
                reference,
            );
            run.metric(
                "builder.dtw.speedup_threads",
                one_thread_s / default_s,
                "ratio",
            );
        }
    }

    // The landmark screen in front of the early-abandon DP, for ERP at
    // the p25 distance.
    let (erp, exact) = (&all[1], &first[1]);
    let t = p25(exact);
    let t0 = Instant::now();
    let pruned = MatrixBuilder::new(erp.measure)
        .prune_landmark(t)
        .build_pairwise(trajs);
    let t1 = Instant::now();
    run.tracer.record(
        "MatrixBuilder::build_pairwise prune_landmark",
        0,
        t0,
        t1,
        None,
    );
    run.ops(pruned.report.pairs_computed as u64, 0);
    run.check(
        "erp: full pruned entries at or below t are exact",
        pruned_is_admissible(exact, &pruned.matrix, t),
    );
    run.metric(
        "landmark.erp.screened_share",
        pruned.report.pairs_screened as f64 / pairs,
        "ratio",
    );
    run.metric(
        "landmark.erp.us_per_pair",
        (t1 - t0).as_secs_f64() * 1e6 / pairs,
        "us",
    );

    cache_probe(sizes, run);
}

/// The matrix checkpoint alone. Two-point trajectories under Hausdorff
/// make the distances nearly free, so a build that misses the cache is
/// the plain build plus the store, and a build that hits is the load.
fn cache_probe(sizes: &Sizes, run: &mut Run) {
    let mut rng = SplitMix64::new(run.seed ^ 0xcac4e);
    let trajs: Vec<Trajectory> = (0..sizes.cache_probe_n)
        .map(|_| {
            let mut point = || (rng.unit_f64(), rng.unit_f64());
            Trajectory::from_xy(&[point(), point()]).expect("two finite points")
        })
        .collect();
    let measure = MeasureKind::Hausdorff.measure();
    let root = crate::host::Scratch::new("gt-cache-probe");
    let (mut plain_s, mut miss_s, mut hit_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0;
    for rep in 0..3 {
        let dir = root.path().join(format!("rep-{rep}"));
        let plain = MatrixBuilder::new(measure).build_pairwise(&trajs);
        let cached = MatrixBuilder::new(measure).cache_dir(&dir);
        let t0 = Instant::now();
        let miss = cached.build_pairwise(&trajs);
        let t1 = Instant::now();
        let hit = cached.build_pairwise(&trajs);
        let t2 = Instant::now();
        run.tracer.record(
            "MatrixBuilder::build_pairwise cache miss",
            rep,
            t0,
            t1,
            None,
        );
        run.tracer
            .record("MatrixBuilder::build_pairwise cache hit", rep, t1, t2, None);
        run.ops(3, 0);
        run.check(
            "cache: first build misses, second hits",
            !miss.report.cache.is_hit() && hit.report.cache.is_hit(),
        );
        run.check(
            "cache: loaded bytes equal built",
            same_bytes(&plain.matrix, &hit.matrix) && same_bytes(&plain.matrix, &miss.matrix),
        );
        plain_s.push(plain.report.seconds);
        miss_s.push((t1 - t0).as_secs_f64());
        hit_s.push((t2 - t1).as_secs_f64());
        bytes = crate::host::bytes_under(&dir, "");
    }
    run.metric(
        "cache.store_s",
        (median(&miss_s) - median(&plain_s)).max(0.0),
        "s",
    );
    run.metric("cache.load_s", median(&hit_s), "s");
    run.metric("cache.bytes", bytes as f64, "B");
}
