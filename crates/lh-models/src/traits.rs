//! The model-agnostic encoder contract and the model registry.

use lh_nn::{ParamStore, Tape, Var};
use rand::rngs::StdRng;
use traj_core::{Trajectory, TrajectoryDataset};

/// Common hyper-parameters for all encoders.
#[derive(Debug, Clone, Copy)]
pub struct EncoderConfig {
    /// Output (Euclidean) embedding width `d`.
    pub embed_dim: usize,
    /// Recurrent/GAT hidden width.
    pub hidden_dim: usize,
    /// Grid resolution for cell-based preprocessing (cells per axis).
    pub grid_resolution: usize,
    /// Time slots for the Tedj-style 3-D grid.
    pub time_slots: usize,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            embed_dim: 16,
            hidden_dim: 24,
            grid_resolution: 16,
            time_slots: 4,
        }
    }
}

/// A trajectory-to-Euclidean-vector encoder. The LH-plugin wraps any
/// implementor without modification — the paper's model-agnostic claim is
/// this trait boundary.
pub trait TrajectoryEncoder {
    /// Short name for table rows (e.g. `"neutraj"`).
    fn name(&self) -> &'static str;

    /// Output embedding width `d`.
    fn output_dim(&self) -> usize;

    /// Encodes a batch onto the tape → `B×d`. Inputs must be normalized
    /// trajectories from the same space the encoder was constructed on.
    fn encode_batch(&self, tape: &mut Tape, store: &ParamStore, trajs: &[&Trajectory]) -> Var;
}

/// Registry of the paper's base models (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Grid-cell + GRU (Neutraj-style).
    Neutraj,
    /// Quadtree + graph attention (TrajGAT-style).
    TrajGat,
    /// LSTM over point features (Traj2SimVec-style; no sub-trajectory term).
    Traj2SimVec,
    /// Spatial/temporal LSTMs + gated co-attention fusion (ST2Vec-style).
    St2Vec,
    /// 3-D spatio-temporal grid + GRU (Tedj-style).
    Tedj,
    /// Training-free distance-to-landmark featurization (baseline floor;
    /// see [`crate::landmark`]).
    Landmark,
}

impl ModelKind {
    /// The three spatial models of the paper's Table III.
    pub const SPATIAL: [ModelKind; 3] = [
        ModelKind::Neutraj,
        ModelKind::TrajGat,
        ModelKind::Traj2SimVec,
    ];

    /// The two spatio-temporal models of Table IV.
    pub const SPATIO_TEMPORAL: [ModelKind; 2] = [ModelKind::St2Vec, ModelKind::Tedj];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Neutraj => "Neutraj",
            ModelKind::TrajGat => "TrajGAT",
            ModelKind::Traj2SimVec => "Traj2SimVec",
            ModelKind::St2Vec => "ST2Vec",
            ModelKind::Tedj => "Tedj",
            ModelKind::Landmark => "Landmark",
        }
    }

    /// Builds the encoder, registering parameters in `store` and fitting
    /// any preprocessing structure (grid/quadtree) on `dataset` (which
    /// must already be normalized).
    pub fn build(
        &self,
        config: EncoderConfig,
        dataset: &TrajectoryDataset,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Box<dyn TrajectoryEncoder> {
        match self {
            ModelKind::Neutraj => Box::new(crate::neutraj::NeutrajEncoder::new(
                config, dataset, store, rng,
            )),
            ModelKind::TrajGat => Box::new(crate::trajgat::TrajGatEncoder::new(
                config, dataset, store, rng,
            )),
            ModelKind::Traj2SimVec => Box::new(crate::traj2simvec::Traj2SimVecEncoder::new(
                config, store, rng,
            )),
            ModelKind::St2Vec => Box::new(crate::st2vec::St2VecEncoder::new(config, store, rng)),
            ModelKind::Tedj => Box::new(crate::tedj::TedjEncoder::new(config, dataset, store, rng)),
            ModelKind::Landmark => Box::new(crate::landmark::LandmarkEncoder::new(config, dataset)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names() {
        assert_eq!(ModelKind::Neutraj.name(), "Neutraj");
        assert_eq!(ModelKind::SPATIAL.len(), 3);
        assert_eq!(ModelKind::SPATIO_TEMPORAL.len(), 2);
    }
}
