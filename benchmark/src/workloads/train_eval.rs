//! `train-eval`: from trajectories to an evaluated model.
//!
//! One round is two [`run_experiment`] calls on a DTW ground truth whose
//! matrices were checkpointed during set-up: Traj2SimVec with the full
//! `fusion-dist` plugin, then TrajGAT with the `original` Euclidean
//! distance. `lh-nn`, `lh-models` and the trainer do the work; the DP
//! kernels do almost none (the ground truth is a cache load). The only
//! workload that reports an accuracy.
//!
//! Rounds take turns over several generated datasets. The generator
//! draws a handful of road corridors per dataset, and what one training
//! batch costs follows them: between two seeds, the same experiment on
//! one dataset differs by up to 30 % in time and 20 % in memory. Over a
//! cycle of datasets a seed's cost is the generator's average, not one
//! draw from it.

use crate::host::Scratch;
use crate::report::{Run, Window};
use crate::stats::{median, SplitMix64};
use lh_core::pipeline::evaluate_stores;
use lh_core::{
    run_experiment, ExperimentSpec, LhModel, PluginConfig, PluginVariant, Trainer, TrainerConfig,
};
use lh_data::DatasetPreset;
use lh_metrics::RankingEval;
use lh_models::ModelKind;
use std::path::Path;
use std::time::Instant;
use traj_core::normalize::Normalizer;
use traj_core::TrajectoryDataset;
use traj_dist::{MatrixBuild, MatrixBuilder, MeasureKind};

pub struct Sizes {
    /// Datasets the rounds cycle over; every run completes a cycle.
    pub datasets: usize,
    /// Trajectories generated per dataset: database plus queries.
    pub n: usize,
    pub n_queries: usize,
    pub fused_epochs: usize,
    pub trajgat_epochs: usize,
    pub setup_reps: usize,
    /// At least `datasets`, so the accuracy is that of one full cycle.
    pub min_rounds: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            datasets: 6,
            n: 130,
            n_queries: 30,
            fused_epochs: 2,
            trajgat_epochs: 1,
            setup_reps: 3,
            min_rounds: 6,
        }
    }
}

struct Experiment {
    /// `<enc>` in the per-layer metric names.
    enc: &'static str,
    span: &'static str,
    train_span: &'static str,
    spec: ExperimentSpec,
}

fn experiments(sizes: &Sizes, data_seed: u64, cache_dir: &Path) -> [Experiment; 2] {
    let spec = |model, variant, epochs| ExperimentSpec {
        preset: DatasetPreset::Chengdu,
        n: sizes.n,
        n_queries: sizes.n_queries,
        measure: MeasureKind::Dtw,
        model,
        plugin: PluginConfig {
            variant,
            ..Default::default()
        },
        trainer: TrainerConfig {
            epochs,
            seed: data_seed,
            ..Default::default()
        },
        seed: data_seed,
        gt_cache_dir: Some(cache_dir.to_string_lossy().into_owned()),
        ..ExperimentSpec::quick()
    };
    [
        Experiment {
            enc: "t2sv",
            span: "run_experiment t2sv fusion-dist",
            train_span: "Trainer::train t2sv",
            spec: spec(
                ModelKind::Traj2SimVec,
                PluginVariant::FusionDist,
                sizes.fused_epochs,
            ),
        },
        Experiment {
            enc: "trajgat",
            span: "run_experiment trajgat original",
            train_span: "Trainer::train trajgat",
            spec: spec(
                ModelKind::TrajGat,
                PluginVariant::Original,
                sizes.trajgat_epochs,
            ),
        },
    ]
}

/// The experiment's data and ground truth, step by step as
/// `run_experiment` derives them: generate, normalize on the full set,
/// split, then the train and query matrices through the checkpoint cache.
struct GroundTruth {
    database: TrajectoryDataset,
    queries: TrajectoryDataset,
    train: MatrixBuild,
    cross: MatrixBuild,
    generate_s: f64,
}

fn ground_truth(spec: &ExperimentSpec) -> GroundTruth {
    let start = Instant::now();
    let raw = lh_data::generate(spec.preset, spec.n, spec.seed);
    let generate_s = start.elapsed().as_secs_f64();
    let normalized = Normalizer::fit(&raw)
        .expect("generated data is non-degenerate")
        .dataset(&raw);
    let n_db = spec.n - spec.n_queries;
    let (database, queries) = normalized.split(n_db as f64 / spec.n as f64);
    let mut builder = MatrixBuilder::new(spec.measure.measure());
    if let Some(dir) = &spec.gt_cache_dir {
        builder = builder.cache_dir(dir);
    }
    let train = builder.build_pairwise(database.trajectories());
    let cross = builder.build_cross(queries.trajectories(), database.trajectories());
    GroundTruth {
        database,
        queries,
        train,
        cross,
        generate_s,
    }
}

pub fn run(sizes: &Sizes, run: &mut Run) {
    assert!(sizes.min_rounds >= sizes.datasets, "one full cycle");
    let mut seeds = SplitMix64::new(run.seed ^ 0x7e41);
    let root = Scratch::new("train-eval");
    let cache_dir = root.path().join("gt-cache");
    let datasets: Vec<[Experiment; 2]> = (0..sizes.datasets)
        .map(|_| experiments(sizes, seeds.next_u64(), &cache_dir))
        .collect();

    // Set-up: generate every dataset and warm its ground-truth
    // checkpoints, from an empty cache directory every time.
    let (truths, _) = run.setup(sizes.setup_reps, || {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let start = Instant::now();
        let truths: Vec<GroundTruth> = datasets.iter().map(|e| ground_truth(&e[0].spec)).collect();
        (truths, start.elapsed().as_secs_f64())
    });
    for (gt, e) in truths.iter().zip(&datasets) {
        run.check(
            "set-up computed both matrices",
            !gt.train.report.cache.is_hit() && !gt.cross.report.cache.is_hit(),
        );
        for t in gt
            .database
            .trajectories()
            .iter()
            .chain(gt.queries.trajectories())
        {
            for p in t.points() {
                run.hash.f64(p.x);
                run.hash.f64(p.y);
            }
        }
        run.hash.u64(e[0].spec.seed);
    }
    drop(truths);
    run.size("datasets", sizes.datasets, "count");
    run.size("database", sizes.n - sizes.n_queries, "count");
    run.size("queries", sizes.n_queries, "count");
    run.size("fused_epochs", sizes.fused_epochs, "count");
    run.size("trajgat_epochs", sizes.trajgat_epochs, "count");

    // What each dataset's two experiments reached the first time.
    let mut first_evals: Vec<Vec<RankingEval>> = Vec::new();
    let (mut round_s, mut batches_per_round) = (Vec::new(), 0);
    let mut window = Window::new(run.seconds, sizes.min_rounds);
    while let Some(round) = window.next_round() {
        let dataset = round % sizes.datasets;
        let span = run.tracer.open("round", round as u64, None);
        let start = Instant::now();
        let mut evals = Vec::new();
        let mut batches = 0;
        for e in &datasets[dataset] {
            let t0 = Instant::now();
            let outcome = run_experiment(&e.spec);
            let t1 = Instant::now();
            run.tracer.record(e.span, round as u64, t0, t1, span);
            run.check(
                "run_experiment loaded both matrices from the cache",
                outcome.gt_cache_hits == 2,
            );
            batches += outcome.report.batches;
            evals.push(outcome.eval);
        }
        round_s.push(start.elapsed().as_secs_f64());
        run.tracer.close(span);
        // Training is deterministic: a dataset's second turn must reach
        // its first turn's accuracy exactly.
        let wrong = match first_evals.get(dataset) {
            Some(first) => u64::from(*first != evals),
            None => {
                first_evals.push(evals);
                0
            }
        };
        run.ops(batches as u64, wrong);
        batches_per_round = batches;
    }

    run.size("batches_per_round", batches_per_round, "count");
    run.rounds(&round_s, batches_per_round);
    let fused_hr10: Vec<f64> = first_evals.iter().map(|e| e[0].hr10).collect();
    run.metric(
        "hr10",
        fused_hr10.iter().sum::<f64>() / fused_hr10.len() as f64,
        "ratio",
    );
    run.check(
        "accuracies are within [0, 1]",
        first_evals
            .iter()
            .flatten()
            .all(|e| (0.0..=1.0).contains(&e.hr10)),
    );

    if run.traced() {
        run.metric("trainer.batches", batches_per_round as f64, "count");
        for (e, eval) in datasets[0].iter().zip(&first_evals[0]) {
            traced_pieces(run, e, eval);
        }
    }
}

/// One experiment of the first dataset again, piece by piece through the
/// public calls `run_experiment` is made of, with a span around each. The
/// pieces must reproduce the experiment's accuracy exactly.
fn traced_pieces(run: &mut Run, e: &Experiment, expected: &RankingEval) {
    let spec = &e.spec;
    let pass = run.tracer.open("traced pieces", 0, None);
    let t0 = Instant::now();
    let gt = ground_truth(spec);
    let t1 = Instant::now();
    run.tracer.record("ground truth", 0, t0, t1, pass);
    run.check(
        "traced pieces loaded both matrices from the cache",
        gt.train.report.cache.is_hit() && gt.cross.report.cache.is_hit(),
    );
    let gt_rows: Vec<Vec<f64>> = (0..gt.queries.len())
        .map(|q| gt.cross.matrix.row(q).to_vec())
        .collect();

    let mut model = LhModel::new(
        spec.model,
        spec.encoder,
        spec.plugin,
        &gt.database,
        spec.seed,
    );
    let mut trainer = Trainer::new(spec.trainer);
    let mut epoch_s = Vec::new();
    let t0 = Instant::now();
    let mut last = t0;
    let report = trainer.train(
        &mut model,
        gt.database.trajectories(),
        &gt.train.matrix,
        |_, _| {
            let now = Instant::now();
            epoch_s.push((now - last).as_secs_f64());
            last = now;
            None
        },
    );
    let t1 = Instant::now();
    run.tracer.record(e.train_span, 0, t0, t1, pass);
    let train_s = (t1 - t0).as_secs_f64();

    let db_store = model.embed(gt.database.trajectories());
    let q_store = model.embed(gt.queries.trajectories());
    let t2 = Instant::now();
    run.tracer.record("LhModel::embed", 0, t1, t2, pass);
    let eval = evaluate_stores(&db_store, &q_store, &gt_rows);
    let t3 = Instant::now();
    run.tracer.record("evaluate_stores", 0, t2, t3, pass);
    run.tracer.close(pass);
    run.ops(report.batches as u64, 0);
    run.check(
        "traced pieces reproduce run_experiment's accuracy exactly",
        eval == *expected,
    );

    let enc = e.enc;
    if enc == "t2sv" {
        run.metric("lh-data.generate_s", gt.generate_s, "s");
        run.metric("cache.load_s", gt.train.report.seconds, "s");
        run.metric("pipeline.eval_s", (t3 - t2).as_secs_f64(), "s");
    }
    run.metric(&format!("trainer.{enc}.train_s"), train_s, "s");
    run.metric(
        &format!("trainer.{enc}.ms_per_batch"),
        train_s * 1e3 / report.batches.max(1) as f64,
        "ms",
    );
    run.metric(&format!("trainer.{enc}.epoch_s_p50"), median(&epoch_s), "s");
    run.metric(
        &format!("trainer.{enc}.final_loss"),
        report.history.last().map_or(0.0, |h| h.loss),
        "loss",
    );
    run.metric(
        &format!("model.{enc}.embed_traj_per_s"),
        (gt.database.len() + gt.queries.len()) as f64 / (t2 - t1).as_secs_f64(),
        "1/s",
    );
}
