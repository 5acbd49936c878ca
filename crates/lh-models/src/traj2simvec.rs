//! Traj2SimVec-style encoder: an LSTM over point features.
//!
//! Structure preserved from the original (Zhang et al., IJCAI'20): an LSTM
//! over point features, then a linear head. Simplification: the original
//! adds sub-trajectory distance supervision (which needs ground-truth
//! distances over all prefixes); this reproduction trains Traj2SimVec
//! like every other encoder, by full-trajectory distance regression only —
//! no prefix embedding is computed or tied to anything.

use crate::features::{batch_steps, point_features, SPATIAL_DIM};
use crate::traits::{EncoderConfig, TrajectoryEncoder};
use lh_nn::layers::{Linear, LstmCell};
use lh_nn::{ParamStore, Tape, Var};
use rand::rngs::StdRng;
use traj_core::Trajectory;

/// LSTM + linear-head encoder.
pub struct Traj2SimVecEncoder {
    lstm: LstmCell,
    head: Linear,
    embed_dim: usize,
}

impl Traj2SimVecEncoder {
    /// Registers parameters.
    pub fn new(config: EncoderConfig, store: &mut ParamStore, rng: &mut StdRng) -> Self {
        let lstm = LstmCell::new("t2sv.lstm", SPATIAL_DIM, config.hidden_dim, store, rng);
        let head = Linear::new("t2sv.head", config.hidden_dim, config.embed_dim, store, rng);
        Traj2SimVecEncoder {
            lstm,
            head,
            embed_dim: config.embed_dim,
        }
    }
}

impl TrajectoryEncoder for Traj2SimVecEncoder {
    fn name(&self) -> &'static str {
        "traj2simvec"
    }

    fn output_dim(&self) -> usize {
        self.embed_dim
    }

    fn encode_batch(&self, tape: &mut Tape, store: &ParamStore, trajs: &[&Trajectory]) -> Var {
        assert!(!trajs.is_empty(), "empty batch");
        let seqs: Vec<_> = trajs.iter().map(|t| point_features(t)).collect();
        let (steps, masks) = batch_steps(tape, &seqs, (0, SPATIAL_DIM));
        let h = self.lstm.forward_sequence(tape, store, &steps, &masks);
        self.head.forward(tape, store, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::SeedableRng;

    fn build() -> (ParamStore, Traj2SimVecEncoder) {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let enc = Traj2SimVecEncoder::new(EncoderConfig::default(), &mut store, &mut rng);
        (store, enc)
    }

    fn trajs() -> Vec<Trajectory> {
        vec![
            Trajectory::from_xy(&[(0.1, 0.1), (0.2, 0.3), (0.4, 0.4), (0.6, 0.5)]).unwrap(),
            Trajectory::from_xy(&[(0.9, 0.9), (0.8, 0.7)]).unwrap(),
        ]
    }

    #[test]
    fn shapes() {
        let (store, enc) = build();
        let ts = trajs();
        let refs: Vec<&Trajectory> = ts.iter().collect();
        let mut tape = Tape::new();
        let out = enc.encode_batch(&mut tape, &store, &refs);
        assert_eq!(tape.value(out).shape(), (2, 16));
    }

    #[test]
    fn single_point_trajectory_encodes() {
        let (store, enc) = build();
        let t = Trajectory::from_xy(&[(0.5, 0.5)]).unwrap();
        let mut tape = Tape::new();
        let out = enc.encode_batch(&mut tape, &store, &[&t]);
        assert!(tape.value(out).all_finite());
    }
}
