//! End-to-end experiment driver: dataset → ground truth → training →
//! retrieval evaluation. Every bench binary is a thin loop over
//! [`run_experiment`].

use crate::config::PluginConfig;
use crate::retrieval::{EmbeddingStore, IndexParams, IndexedStore};
use crate::trainer::{LhModel, TrainReport, Trainer, TrainerConfig};
use lh_data::DatasetPreset;
use lh_metrics::ranking::RankingEval;
use lh_models::{EncoderConfig, ModelKind};
use traj_core::normalize::Normalizer;
use traj_core::TrajectoryDataset;
use traj_dist::{MatrixBuilder, MeasureKind};

/// Everything needed to reproduce one table cell.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Synthetic dataset profile.
    pub preset: DatasetPreset,
    /// Total trajectories generated (`database + queries`).
    pub n: usize,
    /// Held-out query count.
    pub n_queries: usize,
    /// Ground-truth similarity function.
    pub measure: MeasureKind,
    /// Base embedding model.
    pub model: ModelKind,
    /// Plugin configuration (variant, β, c).
    pub plugin: PluginConfig,
    /// Encoder hyper-parameters.
    pub encoder: EncoderConfig,
    /// Trainer hyper-parameters.
    pub trainer: TrainerConfig,
    /// Master seed: dataset, init, and sampling all derive from it.
    pub seed: u64,
    /// Evaluate HR@10 after every epoch (Fig. 7 needs it; costs an extra
    /// embedding pass per epoch).
    pub eval_every_epoch: bool,
    /// Directory for persistent ground-truth matrix checkpoints
    /// (fingerprint-keyed; see `traj_dist::MatrixBuilder`). `None`
    /// recomputes every run.
    pub gt_cache_dir: Option<String>,
}

impl ExperimentSpec {
    /// A small default spec (Chengdu-like, DTW, Traj2SimVec, full plugin)
    /// that trains in seconds.
    pub fn quick() -> Self {
        ExperimentSpec {
            preset: DatasetPreset::Chengdu,
            n: 140,
            n_queries: 30,
            measure: MeasureKind::Dtw,
            model: ModelKind::Traj2SimVec,
            plugin: PluginConfig::paper_default(),
            encoder: EncoderConfig::default(),
            trainer: TrainerConfig::default(),
            seed: 42,
            eval_every_epoch: false,
            gt_cache_dir: None,
        }
    }
}

/// Result of one experiment.
pub struct ExperimentOutcome {
    /// Retrieval accuracy on the held-out queries.
    pub eval: RankingEval,
    /// Training statistics (loss curve, optional per-epoch HR@10).
    pub report: TrainReport,
    /// Ground-truth violation ratio of the training matrix (context for
    /// interpreting the gain).
    pub train_rv: f64,
    /// Wall-clock seconds for ground-truth matrix construction.
    pub gt_seconds: f64,
    /// How many of the two ground-truth matrices (train pairwise +
    /// query cross) came from the persistent checkpoint cache — context
    /// for reading `gt_seconds` (a cached run reports milliseconds, not
    /// a rebuild).
    pub gt_cache_hits: usize,
    /// The trained model (callers may re-embed or inspect).
    pub model: LhModel,
    /// Normalized database trajectories (shared by post-hoc analyses).
    pub database: TrajectoryDataset,
    /// Normalized query trajectories.
    pub queries: TrajectoryDataset,
    /// Ground-truth query-to-database distance rows.
    pub gt_rows: Vec<Vec<f64>>,
    /// Final database embeddings (the serving-side store — callers can
    /// shard and query it without re-embedding).
    pub db_store: EmbeddingStore,
    /// Final query embeddings.
    pub q_store: EmbeddingStore,
}

impl ExperimentOutcome {
    /// Builds the serving-tier ANN index over this outcome's database
    /// store (cloned — the outcome keeps its copy for evaluation). Every
    /// variant gets exact sub-linear serving: the metric ones through
    /// triangle bounds, the fused one through the convex-mix bound its
    /// softplus-positive factors certify.
    pub fn build_index(&self, params: IndexParams) -> IndexedStore {
        IndexedStore::build(self.db_store.clone(), params)
    }
}

/// Evaluates a model's retrieval quality: embeds queries + database and
/// scores model distance rows against ground-truth rows. Distance rows
/// come from the retrieval engine's batched kernel scan
/// ([`crate::retrieval::store::EmbeddingStore::distance_rows_from`]),
/// parallel across queries.
pub fn evaluate_model(
    model: &LhModel,
    queries: &TrajectoryDataset,
    database: &TrajectoryDataset,
    gt_rows: &[Vec<f64>],
) -> RankingEval {
    let db_store = model.embed(database.trajectories());
    let q_store = model.embed(queries.trajectories());
    evaluate_stores(&db_store, &q_store, gt_rows)
}

/// Scores already-embedded stores against ground-truth rows (lets callers
/// that keep the stores around avoid re-embedding).
pub fn evaluate_stores(
    db_store: &EmbeddingStore,
    q_store: &EmbeddingStore,
    gt_rows: &[Vec<f64>],
) -> RankingEval {
    let pred_rows = db_store.distance_rows_from(q_store);
    RankingEval::evaluate(gt_rows, &pred_rows)
}

/// Runs one full experiment.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentOutcome {
    assert!(
        spec.n_queries < spec.n,
        "need at least one database trajectory"
    );
    // 1. Data: generate, normalize on the full set, split.
    let raw = lh_data::generate(spec.preset, spec.n, spec.seed);
    let normalizer = Normalizer::fit(&raw).expect("generated data is non-degenerate");
    let normalized = normalizer.dataset(&raw);
    let n_db = spec.n - spec.n_queries;
    let (database, queries) = normalized.split(n_db as f64 / spec.n as f64);

    // 2. Ground truth: symmetric train matrix + query-db cross matrix,
    // via the builder pipeline (checkpointed when the spec names a cache
    // dir).
    let measure = spec.measure.measure();
    let mut builder = MatrixBuilder::new(measure);
    if let Some(dir) = &spec.gt_cache_dir {
        builder = builder.cache_dir(dir);
    }
    let train_build = builder.build_pairwise(database.trajectories());
    let cross_build = builder.build_cross(queries.trajectories(), database.trajectories());
    let gt_seconds = train_build.report.seconds + cross_build.report.seconds;
    let gt_cache_hits = [&train_build.report, &cross_build.report]
        .iter()
        .filter(|r| r.cache.is_hit())
        .count();
    let (train_gt, cross) = (train_build.matrix, cross_build.matrix);
    let gt_rows: Vec<Vec<f64>> = (0..queries.len()).map(|q| cross.row(q).to_vec()).collect();

    // Violation context for this training matrix.
    let triplets = lh_metrics::sample_triplets(database.len(), 20_000, spec.seed);
    let train_rv = lh_metrics::ratio_of_violation(&train_gt, &triplets).rv;

    // 3. Model + training.
    let mut model = LhModel::new(spec.model, spec.encoder, spec.plugin, &database, spec.seed);
    let mut trainer = Trainer::new(spec.trainer);
    let queries_ref = &queries;
    let database_ref = &database;
    let gt_rows_ref = &gt_rows;
    let eval_every = spec.eval_every_epoch;
    let report = trainer.train(&mut model, database.trajectories(), &train_gt, |_, m| {
        eval_every.then(|| evaluate_model(m, queries_ref, database_ref, gt_rows_ref).hr10)
    });

    // 4. Final evaluation (embed once; the stores ride along in the
    // outcome so callers can serve from them without re-embedding).
    let db_store = model.embed(database.trajectories());
    let q_store = model.embed(queries.trajectories());
    let eval = evaluate_stores(&db_store, &q_store, &gt_rows);
    ExperimentOutcome {
        eval,
        report,
        train_rv,
        gt_seconds,
        gt_cache_hits,
        model,
        database,
        queries,
        gt_rows,
        db_store,
        q_store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PluginVariant;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::quick();
        spec.preset = DatasetPreset::Smoke;
        spec.n = 40;
        spec.n_queries = 10;
        spec.trainer = TrainerConfig {
            epochs: 2,
            batch_pairs: 32,
            lr: 3e-3,
            k_near: 2,
            k_rand: 2,
            seed: 9,
        };
        spec
    }

    #[test]
    fn runs_end_to_end() {
        let spec = tiny_spec();
        let out = run_experiment(&spec);
        assert_eq!(out.queries.len(), 10);
        assert_eq!(out.database.len(), 30);
        assert_eq!(out.gt_rows.len(), 10);
        assert_eq!(out.gt_rows[0].len(), 30);
        assert!(out.eval.hr10 >= 0.0 && out.eval.hr10 <= 1.0);
        assert_eq!(out.report.history.len(), 2);
        assert!(out.train_rv >= 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let spec = tiny_spec();
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.eval, b.eval, "same seed must reproduce exactly");
    }

    #[test]
    fn per_epoch_eval_recorded_when_enabled() {
        let mut spec = tiny_spec();
        spec.eval_every_epoch = true;
        let out = run_experiment(&spec);
        assert!(out.report.history.iter().all(|h| h.eval_metric.is_some()));
    }

    #[test]
    fn gt_cache_reports_hits_and_reproduces_results() {
        let dir = std::env::temp_dir().join(format!("lh-gt-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = tiny_spec();
        spec.gt_cache_dir = Some(dir.to_string_lossy().into_owned());
        let cold = run_experiment(&spec);
        assert_eq!(cold.gt_cache_hits, 0, "first run must build both matrices");
        let warm = run_experiment(&spec);
        assert_eq!(
            warm.gt_cache_hits, 2,
            "second run must hit for both matrices"
        );
        assert_eq!(
            cold.eval, warm.eval,
            "cached ground truth must not change results"
        );
        assert_eq!(cold.train_rv, warm.train_rv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_index_serves_trained_store_exactly() {
        let out = run_experiment(&tiny_spec());
        let ix = out.build_index(IndexParams::default());
        assert!(
            ix.bound_space().prunes() && !ix.bound_space().is_metric(),
            "paper-default plugin is fused: not a metric, still exactly \
             prunable through the convex-mix bound, got {:?}",
            ix.bound_space()
        );
        for qi in 0..out.q_store.len().min(3) {
            let flat = out.db_store.knn(&out.q_store, qi, 10);
            let indexed = ix.knn(&out.q_store, qi, 10);
            assert_eq!(flat, indexed, "qi={qi}");
        }
    }

    #[test]
    fn variants_change_outcomes() {
        let spec = tiny_spec();
        let full = run_experiment(&spec);
        let mut orig_spec = tiny_spec();
        orig_spec.plugin = orig_spec.plugin.with_variant(PluginVariant::Original);
        let orig = run_experiment(&orig_spec);
        // Same data/seed, different geometry → different trained behavior.
        assert_ne!(full.eval, orig.eval);
    }
}
