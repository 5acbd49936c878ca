//! End-to-end integration: data generation → ground truth → training →
//! retrieval, exercised across plugin variants through the facade.

use lh_repro::data::{generate, DatasetPreset};
use lh_repro::dist::{cross_matrix, pairwise_matrix, MeasureKind};
use lh_repro::models::{EncoderConfig, ModelKind};
use lh_repro::plugin::distance::{alpha_f32, euclidean_f32, lorentz_f32};
use lh_repro::plugin::pipeline::{run_experiment, ExperimentSpec};
use lh_repro::plugin::trainer::{LhModel, Trainer, TrainerConfig};
use lh_repro::plugin::{
    BoundSpace, EmbeddingStore, IndexParams, IndexedStore, PluginConfig, PluginVariant, ProbeStats,
    TrainerConfig as Tc,
};
use lh_repro::traj::normalize::Normalizer;

fn quick_trainer(epochs: usize) -> TrainerConfig {
    TrainerConfig {
        epochs,
        batch_pairs: 48,
        lr: 3e-3,
        k_near: 3,
        k_rand: 3,
        seed: 5,
    }
}

/// Pearson correlation between two equal-length samples.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt()).max(f64::EPSILON)
}

/// Training the full plugin must clearly improve the distance regression:
/// the correlation between fused distances and ground truth rises, and
/// the training loss drops. (HR on a tiny query set is too noisy for a
/// deterministic bound; the regression objective is the direct contract.)
#[test]
fn training_improves_over_untrained() {
    let raw = generate(DatasetPreset::Smoke, 60, 11);
    let data = Normalizer::fit(&raw).unwrap().dataset(&raw);
    let (db, queries) = data.split(45.0 / 60.0);
    let measure = MeasureKind::Dtw.measure();
    let gt = pairwise_matrix(db.trajectories(), &measure);
    let cross = cross_matrix(queries.trajectories(), db.trajectories(), &measure);
    let gt_flat: Vec<f64> = (0..queries.len())
        .flat_map(|q| cross.row(q).to_vec())
        .collect();

    let model_distances = |model: &LhModel| -> Vec<f64> {
        let db_store = model.embed(db.trajectories());
        let q_store = model.embed(queries.trajectories());
        (0..queries.len())
            .flat_map(|qi| db_store.distance_row_from(&q_store, qi))
            .collect()
    };

    let mut model = LhModel::new(
        ModelKind::Traj2SimVec,
        EncoderConfig::default(),
        PluginConfig::paper_default(),
        &db,
        11,
    );
    let corr_before = pearson(&model_distances(&model), &gt_flat);
    let mut trainer = Trainer::new(quick_trainer(8));
    let report = trainer.train(&mut model, db.trajectories(), &gt, |_, _| None);
    let corr_after = pearson(&model_distances(&model), &gt_flat);

    // The untrained encoder already correlates (positions pass through the
    // LSTM), so the contract is a strict, deterministic improvement on top.
    assert!(
        corr_after > corr_before + 0.015 && corr_after > 0.9,
        "distance correlation must improve: {corr_before:.3} → {corr_after:.3}"
    );
    let first = report.history.first().unwrap().loss;
    let last = report.history.last().unwrap().loss;
    assert!(last < first * 0.8, "loss must drop ≥ 20%: {first} → {last}");
}

/// Every variant trains stably (finite parameters, decreasing loss) on
/// every base model family.
#[test]
fn all_model_variant_combinations_train() {
    let raw = generate(DatasetPreset::Smoke, 30, 3);
    let data = Normalizer::fit(&raw).unwrap().dataset(&raw);
    let gt = pairwise_matrix(data.trajectories(), &MeasureKind::Sspd.measure());
    for model_kind in [
        ModelKind::Neutraj,
        ModelKind::TrajGat,
        ModelKind::Traj2SimVec,
    ] {
        for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
            let mut model = LhModel::new(
                model_kind,
                EncoderConfig::default(),
                PluginConfig::paper_default().with_variant(variant),
                &data,
                9,
            );
            let mut trainer = Trainer::new(quick_trainer(2));
            let report = trainer.train(&mut model, data.trajectories(), &gt, |_, _| None);
            assert!(model.store().all_finite(), "{model_kind:?}/{variant:?} NaN");
            assert!(
                report.history.last().unwrap().loss <= report.history[0].loss,
                "{model_kind:?}/{variant:?} loss increased"
            );
        }
    }
}

/// Spatio-temporal models train on timestamped data with st measures.
#[test]
fn spatio_temporal_pipeline_runs() {
    let mut spec = ExperimentSpec::quick();
    spec.preset = DatasetPreset::TDrive;
    spec.n = 40;
    spec.n_queries = 10;
    spec.model = ModelKind::St2Vec;
    spec.measure = MeasureKind::Tp;
    spec.trainer = Tc {
        epochs: 2,
        ..quick_trainer(2)
    };
    let out = run_experiment(&spec);
    assert!(out.eval.hr10 >= 0.0);
    assert!(out.model.store().all_finite());

    spec.model = ModelKind::Tedj;
    spec.measure = MeasureKind::Dita;
    let out = run_experiment(&spec);
    assert!(out.eval.hr10 >= 0.0);
}

/// The experiment pipeline is exactly reproducible under a fixed seed and
/// diverges under a different one.
#[test]
fn reproducibility_contract() {
    let mut spec = ExperimentSpec::quick();
    spec.preset = DatasetPreset::Smoke;
    spec.n = 36;
    spec.n_queries = 8;
    spec.trainer = quick_trainer(2);
    let a = run_experiment(&spec);
    let b = run_experiment(&spec);
    assert_eq!(a.eval, b.eval);
    spec.seed += 1;
    spec.trainer.seed += 1;
    let c = run_experiment(&spec);
    assert_ne!(a.eval, c.eval, "different seeds must differ");
}

/// The `lh-cosh` store of a fused store's encoder: the same Euclidean and
/// hyperbolic rows without the factor rows, served by the Lorentz kernel.
fn lorentz_view(fused: &EmbeddingStore) -> EmbeddingStore {
    let mut out = EmbeddingStore::new(fused.dim(), PluginVariant::LorentzCosh, fused.beta(), None);
    for i in 0..fused.len() {
        out.push(fused.eu_row(i), Some(fused.hyper_row(i)), None);
    }
    out
}

/// Indexes `db`, checks every query's top-10 against the flat scan bit
/// for bit, and returns the probe accounting.
fn indexed_exactly(db: &EmbeddingStore, queries: &EmbeddingStore) -> (BoundSpace, ProbeStats) {
    let ix = IndexedStore::build(db.clone(), IndexParams::default());
    let (hits, stats) = ix.knn_batch_with_stats(queries, 10);
    let bits = |h: &[lh_repro::plugin::RetrievalResult]| -> Vec<(usize, u32)> {
        h.iter().map(|r| (r.index, r.distance.to_bits())).collect()
    };
    for (qi, got) in hits.iter().enumerate() {
        assert_eq!(bits(got), bits(&db.knn(queries, qi, 10)), "qi={qi}");
    }
    (ix.bound_space(), stats)
}

/// The thesis as a number, on trained embeddings: a trained `fusion-dist`
/// model's store certifies the convex-mix bound (its factors are softplus
/// outputs) and is served exactly through it; the same encoder's
/// `lh-cosh` store is served exactly through the geodesic triangle bound.
/// The two prune rates — what the learned violations forfeit — are
/// printed (`-- --nocapture`) and recorded in EXPERIMENTS.md.
#[test]
fn trained_fused_store_is_indexed_exactly_beside_its_lorentz_view() {
    let mut spec = ExperimentSpec::quick();
    spec.preset = DatasetPreset::Smoke;
    spec.n = 120;
    spec.n_queries = 20;
    spec.trainer = quick_trainer(1);
    let out = run_experiment(&spec);
    assert_eq!(out.db_store.variant(), PluginVariant::FusionDist);

    let (fused_space, fused) = indexed_exactly(&out.db_store, &out.q_store);
    assert_eq!(
        fused_space,
        BoundSpace::ConvexMix {
            beta: out.db_store.beta() as f64
        },
        "softplus-positive factors must certify"
    );
    let (cosh_space, cosh) =
        indexed_exactly(&lorentz_view(&out.db_store), &lorentz_view(&out.q_store));
    assert!(cosh_space.is_metric());
    for (name, s) in [("fusion-dist", &fused), ("lh-cosh", &cosh)] {
        println!(
            "{name}: prune rate {:.4}, {:.2} of {} cells and {:.1} of {} rows per query",
            s.prune_rate(),
            s.cells_probed_per_query(),
            s.cells / s.queries,
            s.rows_scanned as f64 / s.queries as f64,
            s.rows / s.queries,
        );
    }
    assert!(
        fused.prune_rate() > 0.0,
        "the mix bound must skip something on trained embeddings: {fused:?}"
    );

    // What decides how loose `min(d_Lo, d_Eu)` is: where α̃ sits and how
    // far apart the two components are, over every (query, row) pair.
    let f = out.db_store.factor_dim().expect("fused store has factors");
    let (mut alphas, mut lo, mut eu) = (Vec::new(), Vec::new(), Vec::new());
    for qi in 0..out.q_store.len() {
        let q = out.q_store.factor_row(qi);
        for di in 0..out.db_store.len() {
            let x = out.db_store.factor_row(di);
            alphas.push(alpha_f32(&q[..f], &x[..f], &q[f..], &x[f..]));
            lo.push(lorentz_f32(
                out.q_store.hyper_row(qi),
                out.db_store.hyper_row(di),
                out.db_store.beta(),
            ));
            eu.push(euclidean_f32(
                out.q_store.eu_row(qi),
                out.db_store.eu_row(di),
            ));
        }
    }
    for v in [&mut alphas, &mut lo, &mut eu] {
        v.sort_unstable_by(f32::total_cmp);
    }
    let mid = alphas.len() / 2;
    println!(
        "α̃ min/median/max {:.3}/{:.3}/{:.3}; median d_Lo {:.3}, median d_Eu {:.3}",
        alphas[0],
        alphas[mid],
        alphas[alphas.len() - 1],
        lo[mid],
        eu[mid]
    );
    assert!(
        alphas[0] >= 0.0 && alphas[alphas.len() - 1] <= 1.0,
        "certified factors keep α̃ in [0, 1]"
    );
}

/// Embedding stores round-trip through the compact byte format and give
/// identical retrieval results after reload.
#[test]
fn embedding_store_bytes_roundtrip_preserves_retrieval() {
    let raw = generate(DatasetPreset::Smoke, 30, 2);
    let data = Normalizer::fit(&raw).unwrap().dataset(&raw);
    let model = LhModel::new(
        ModelKind::Traj2SimVec,
        EncoderConfig::default(),
        PluginConfig::paper_default(),
        &data,
        4,
    );
    let store = model.embed(data.trajectories());
    let reloaded =
        lh_repro::plugin::EmbeddingStore::from_bytes(store.to_bytes()).expect("valid payload");
    assert_eq!(store, reloaded);
    let a = store.knn(&store, 0, 5);
    let b = reloaded.knn(&reloaded, 0, 5);
    assert_eq!(a, b);
    // The batched path agrees with the single-query scan.
    let batch = reloaded.knn_batch(&store, 5);
    assert_eq!(batch[0], a);
}
