//! Training loop: base encoder + LH-plugin, end to end.
//!
//! [`LhModel`] owns the base encoder, the optional fusion encoder, and the
//! shared parameter store; [`Trainer`] drives Neutraj-style rank-weighted
//! distance regression: per epoch, sample (anchor, counterpart) pairs with
//! ground-truth distances, batch-encode the unique trajectories, compute
//! the variant's distance (`d_Eu`, `d_Lo`, or `d_Fu`), and minimize the
//! weighted squared error against the normalized ground truth.

use crate::config::{PluginConfig, PluginVariant};
use crate::distance::{euclidean_distance_rows, fused_distance_rows, lorentz_distance_rows};
use crate::fusion::FactorEncoder;
use crate::projection::project_rows;
use crate::retrieval::EmbeddingStore;
use crate::sampler::{sample_epoch_pairs, TrainPair};
use lh_models::{EncoderConfig, ModelKind, TrajectoryEncoder};
use lh_nn::optim::Adam;
use lh_nn::{ParamStore, Tape, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use traj_core::{Trajectory, TrajectoryDataset};
use traj_dist::DistanceMatrix;

/// Trainer hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Pairs per mini-batch.
    pub batch_pairs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Nearest neighbors per anchor.
    pub k_near: usize,
    /// Random counterparts per anchor.
    pub k_rand: usize,
    /// RNG seed for sampling and initialization.
    pub seed: u64,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            epochs: 12,
            batch_pairs: 64,
            lr: 3e-3,
            k_near: 4,
            k_rand: 4,
            seed: 42,
        }
    }
}

/// Per-epoch training statistics (Fig. 7's series).
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean weighted training loss.
    pub loss: f64,
    /// Optional evaluation metric captured by a callback (e.g. HR@10).
    pub eval_metric: Option<f64>,
}

/// Training summary.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub history: Vec<EpochStats>,
    /// Wall-clock seconds spent in training.
    pub seconds: f64,
    /// Total batches processed.
    pub batches: usize,
}

/// A base encoder wrapped with the LH-plugin (or not — per the variant).
pub struct LhModel {
    encoder: Box<dyn TrajectoryEncoder>,
    fusion: Option<FactorEncoder>,
    plugin: PluginConfig,
    store: ParamStore,
    /// Ground-truth normalization scale (targets divided by this).
    scale: f64,
}

impl LhModel {
    /// Builds the model: base encoder (fitted on the normalized training
    /// dataset) plus, for the fusion variant, the factor encoder.
    pub fn new(
        kind: ModelKind,
        encoder_config: EncoderConfig,
        plugin: PluginConfig,
        train_set: &TrajectoryDataset,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let encoder = kind.build(encoder_config, train_set, &mut store, &mut rng);
        let fusion = if plugin.variant.uses_fusion() {
            Some(FactorEncoder::new(&plugin, &mut store, &mut rng))
        } else {
            None
        };
        LhModel {
            encoder,
            fusion,
            plugin,
            store,
            scale: 1.0,
        }
    }

    /// The plugin configuration.
    pub fn plugin(&self) -> &PluginConfig {
        &self.plugin
    }

    /// The trained parameters.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Distance normalization scale currently applied to targets.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Computes the batch of predicted distances for `pairs` over `trajs`
    /// on `tape`. Returns the `P×1` prediction.
    fn forward_pairs(&self, tape: &mut Tape, trajs: &[Trajectory], pairs: &[TrainPair]) -> Var {
        // Unique trajectory indices touched by the batch.
        let mut uniq: Vec<usize> = Vec::new();
        let mut row_of = vec![usize::MAX; trajs.len()];
        for p in pairs {
            for idx in [p.a, p.b] {
                if row_of[idx] == usize::MAX {
                    row_of[idx] = uniq.len();
                    uniq.push(idx);
                }
            }
        }
        let refs: Vec<&Trajectory> = uniq.iter().map(|&i| &trajs[i]).collect();
        let (emb, factors) = self.encode(tape, &refs);

        let rows_a: Vec<usize> = pairs.iter().map(|p| row_of[p.a]).collect();
        let rows_b: Vec<usize> = pairs.iter().map(|p| row_of[p.b]).collect();

        match self.plugin.variant {
            PluginVariant::Original => {
                let ea = tape.select_rows(emb, &rows_a);
                let eb = tape.select_rows(emb, &rows_b);
                euclidean_distance_rows(tape, ea, eb)
            }
            PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
                let hyper = project_rows(tape, emb, &self.plugin);
                let ha = tape.select_rows(hyper, &rows_a);
                let hb = tape.select_rows(hyper, &rows_b);
                lorentz_distance_rows(tape, ha, hb, self.plugin.beta)
            }
            PluginVariant::FusionDist => {
                let fusion = self.fusion.as_ref().expect("fusion encoder present");
                let factors = factors.expect("fusion factors encoded");
                let hyper = project_rows(tape, emb, &self.plugin);
                let ha = tape.select_rows(hyper, &rows_a);
                let hb = tape.select_rows(hyper, &rows_b);
                let d_lo = lorentz_distance_rows(tape, ha, hb, self.plugin.beta);
                let ea = tape.select_rows(emb, &rows_a);
                let eb = tape.select_rows(emb, &rows_b);
                let d_eu = euclidean_distance_rows(tape, ea, eb);
                let fa = tape.select_rows(factors, &rows_a);
                let fb = tape.select_rows(factors, &rows_b);
                let alpha = fusion.alpha(tape, fa, fb);
                fused_distance_rows(tape, alpha, d_lo, d_eu)
            }
        }
    }

    /// Encodes `refs` with the base encoder and, when the plugin fuses,
    /// the factor encoder: `(B×d embeddings, B×2f factors)`. The two read
    /// disjoint parameters, so they run as the two children of one
    /// [`Tape::fork`], bit for bit as on one tape.
    fn encode(&self, tape: &mut Tape, refs: &[&Trajectory]) -> (Var, Option<Var>) {
        let Some(fusion) = &self.fusion else {
            return (self.encoder.encode_batch(tape, &self.store, refs), None);
        };
        let out = tape.fork(&self.store, 2, |child, i| match i {
            0 => self.encoder.encode_batch(child, &self.store, refs),
            _ => fusion.encode_batch(child, &self.store, refs),
        });
        (out[0], Some(out[1]))
    }

    /// Embeds trajectories into an [`EmbeddingStore`] for retrieval
    /// (inference pass), in chunks of 64 trajectories, one tape each.
    pub fn embed(&self, trajs: &[Trajectory]) -> EmbeddingStore {
        let dim = self.encoder.output_dim();
        let mut store = EmbeddingStore::new(
            dim,
            self.plugin.variant,
            self.plugin.beta,
            self.fusion.as_ref().map(|f| f.factor_dim()),
        );
        for chunk in trajs.chunks(64) {
            let refs: Vec<&Trajectory> = chunk.iter().collect();
            let mut tape = Tape::new();
            let (emb, factors) = self.encode(&mut tape, &refs);
            let hyper = self
                .plugin
                .variant
                .uses_hyperbolic()
                .then(|| project_rows(&mut tape, emb, &self.plugin));
            let row = |v: Option<Var>, r: usize| v.map(|v| tape.value(v).row(r));
            for r in 0..refs.len() {
                store.push(tape.value(emb).row(r), row(hyper, r), row(factors, r));
            }
        }
        store
    }
}

/// Drives training of an [`LhModel`].
pub struct Trainer {
    config: TrainerConfig,
    optimizer: Adam,
    rng: StdRng,
}

impl Trainer {
    /// New trainer with its own RNG stream.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer {
            optimizer: Adam::new(config.lr),
            rng: StdRng::seed_from_u64(config.seed ^ 0x7e57),
            config,
        }
    }

    /// Trains `model` on `trajs` against the symmetric ground-truth matrix
    /// `gt` (unnormalized; the trainer fits the scale). `on_epoch` runs
    /// after every epoch and may return an evaluation metric to record
    /// (used by the Fig. 7 robustness curves).
    pub fn train(
        &mut self,
        model: &mut LhModel,
        trajs: &[Trajectory],
        gt: &DistanceMatrix,
        mut on_epoch: impl FnMut(usize, &LhModel) -> Option<f64>,
    ) -> TrainReport {
        assert_eq!(trajs.len(), gt.rows(), "matrix/trajectory count mismatch");
        let start = std::time::Instant::now();
        let scale = gt.off_diagonal_mean().max(f64::EPSILON);
        model.scale = scale;

        let mut history = Vec::with_capacity(self.config.epochs);
        let mut batches = 0usize;
        for epoch in 0..self.config.epochs {
            let pairs =
                sample_epoch_pairs(gt, self.config.k_near, self.config.k_rand, &mut self.rng);
            let mut epoch_loss = 0.0f64;
            let mut epoch_batches = 0usize;
            for batch in pairs.chunks(self.config.batch_pairs) {
                let mut tape = Tape::new();
                let pred = model.forward_pairs(&mut tape, trajs, batch);
                let targets = Tensor::from_vec(
                    batch.len(),
                    1,
                    batch.iter().map(|p| (p.target / scale) as f32).collect(),
                );
                let weights = Tensor::from_vec(
                    batch.len(),
                    1,
                    batch.iter().map(|p| p.weight as f32).collect(),
                );
                let t = tape.input(targets);
                let loss = lh_nn::loss::weighted_mse(&mut tape, pred, t, &weights);
                let loss_val = tape.value(loss).item() as f64;
                tape.backward(loss);
                self.optimizer.step(&mut model.store, &tape);
                epoch_loss += loss_val;
                epoch_batches += 1;
            }
            batches += epoch_batches;
            let eval_metric = on_epoch(epoch, model);
            history.push(EpochStats {
                epoch,
                loss: epoch_loss / epoch_batches.max(1) as f64,
                eval_metric,
            });
            debug_assert!(model.store.all_finite(), "parameters went non-finite");
        }
        TrainReport {
            history,
            seconds: start.elapsed().as_secs_f64(),
            batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_core::normalize::Normalizer;
    use traj_dist::{pairwise_matrix, MeasureKind};

    fn tiny_dataset() -> TrajectoryDataset {
        let ds = lh_data::generate(lh_data::DatasetPreset::Smoke, 24, 7);
        let norm = Normalizer::fit(&ds).unwrap();
        norm.dataset(&ds)
    }

    fn quick_config() -> TrainerConfig {
        TrainerConfig {
            epochs: 3,
            batch_pairs: 32,
            lr: 3e-3,
            k_near: 2,
            k_rand: 2,
            seed: 1,
        }
    }

    #[test]
    fn training_reduces_loss_all_variants() {
        let ds = tiny_dataset();
        let gt = pairwise_matrix(ds.trajectories(), &MeasureKind::Dtw.measure());
        for variant in PluginVariant::ABLATION {
            let mut model = LhModel::new(
                ModelKind::Traj2SimVec,
                EncoderConfig::default(),
                PluginConfig::paper_default().with_variant(variant),
                &ds,
                11,
            );
            let mut trainer = Trainer::new(quick_config());
            let report = trainer.train(&mut model, ds.trajectories(), &gt, |_, _| None);
            let first = report.history.first().unwrap().loss;
            let last = report.history.last().unwrap().loss;
            assert!(
                last < first,
                "{}: loss did not decrease ({first} → {last})",
                variant.name()
            );
            assert!(model.store().all_finite());
        }
    }

    #[test]
    fn embed_produces_store_with_expected_parts() {
        let ds = tiny_dataset();
        let model = LhModel::new(
            ModelKind::Traj2SimVec,
            EncoderConfig::default(),
            PluginConfig::paper_default(),
            &ds,
            3,
        );
        let store = model.embed(ds.trajectories());
        assert_eq!(store.len(), ds.len());
        assert!(store.has_hyperbolic());
        assert!(store.has_factors());

        let orig = LhModel::new(
            ModelKind::Traj2SimVec,
            EncoderConfig::default(),
            PluginConfig::paper_default().with_variant(PluginVariant::Original),
            &ds,
            3,
        );
        let store2 = orig.embed(ds.trajectories());
        assert!(!store2.has_hyperbolic());
        assert!(!store2.has_factors());
    }

    /// `embed` over the same 64-row chunks, each on one tape with both
    /// encoders inline instead of forked: what every stored bit must
    /// equal.
    fn embed_inline(model: &LhModel, trajs: &[Trajectory]) -> Vec<Vec<u32>> {
        let mut rows = Vec::new();
        for chunk in trajs.chunks(64) {
            let refs: Vec<&Trajectory> = chunk.iter().collect();
            let mut tape = Tape::new();
            let emb = model.encoder.encode_batch(&mut tape, &model.store, &refs);
            let hyper = project_rows(&mut tape, emb, &model.plugin);
            let fusion = model.fusion.as_ref().expect("fusion-dist");
            let factors = fusion.encode_batch(&mut tape, &model.store, &refs);
            for r in 0..refs.len() {
                let row = [emb, hyper, factors].map(|v| tape.value(v).row(r).to_vec());
                rows.push(row.concat().iter().map(|v| v.to_bits()).collect());
            }
        }
        rows
    }

    #[test]
    fn forked_embed_matches_one_inline_tape_per_chunk_bit_for_bit() {
        let ds = lh_data::generate(lh_data::DatasetPreset::Smoke, 150, 7);
        let ds = Normalizer::fit(&ds).unwrap().dataset(&ds);
        for kind in [ModelKind::Traj2SimVec, ModelKind::TrajGat] {
            let model = LhModel::new(
                kind,
                EncoderConfig::default(),
                PluginConfig::paper_default(),
                &ds,
                3,
            );
            let store = model.embed(ds.trajectories());
            let got: Vec<Vec<u32>> = (0..store.len())
                .map(|i| {
                    let row = [store.eu_row(i), store.hyper_row(i), store.factor_row(i)];
                    row.concat().iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            assert_eq!(got, embed_inline(&model, ds.trajectories()), "{kind:?}");
        }
    }

    #[test]
    fn epoch_callback_is_recorded() {
        let ds = tiny_dataset();
        let gt = pairwise_matrix(ds.trajectories(), &MeasureKind::Sspd.measure());
        let mut model = LhModel::new(
            ModelKind::Traj2SimVec,
            EncoderConfig::default(),
            PluginConfig::paper_default(),
            &ds,
            5,
        );
        let mut trainer = Trainer::new(quick_config());
        let report = trainer.train(&mut model, ds.trajectories(), &gt, |e, _| Some(e as f64));
        assert_eq!(report.history.len(), 3);
        assert_eq!(report.history[2].eval_metric, Some(2.0));
        assert!(report.batches > 0);
        assert!(report.seconds >= 0.0);
    }

    #[test]
    fn scale_is_fitted_from_matrix() {
        let ds = tiny_dataset();
        let gt = pairwise_matrix(ds.trajectories(), &MeasureKind::Dtw.measure());
        let mut model = LhModel::new(
            ModelKind::Traj2SimVec,
            EncoderConfig::default(),
            PluginConfig::paper_default(),
            &ds,
            5,
        );
        let mut trainer = Trainer::new(quick_config());
        let _ = trainer.train(&mut model, ds.trajectories(), &gt, |_, _| None);
        assert!((model.scale() - gt.off_diagonal_mean()).abs() < 1e-9);
    }
}
