//! Training-free landmark feature encoder.
//!
//! The third consumer of the shared `traj_dist::landmark` mechanism: the
//! embedding of a trajectory is its distance-to-landmark feature row over
//! `embed_dim` farthest-point-selected pivot trajectories (DTW
//! closest-pair features — cheap, admissible, and defined for every
//! trajectory). No parameters are registered and `encode_batch` emits a
//! constant, so the encoder trains for free and serves as the floor row
//! of the accuracy tables: any learned model should beat a plain pivot
//! featurization, and the LH-plugin's projection/fusion stages still
//! train on top of it under the non-original variants.
//!
//! The Euclidean distance between two feature rows is *not* the landmark
//! lower bound (that is the Chebyshev gap, `‖f_a − f_b‖_∞ ≤ √k·‖·‖_2`
//! apart); the encoder only inherits the feature map, not the bound's
//! admissibility — ranking quality is whatever the geometry gives.

use crate::traits::{EncoderConfig, TrajectoryEncoder};
use lh_nn::{ParamStore, Tape, Tensor, Var};
use traj_core::{Trajectory, TrajectoryDataset};
use traj_dist::{Landmarks, MeasureKind};

/// Distance-to-landmark featurizer (see the module docs).
pub struct LandmarkEncoder {
    landmarks: Landmarks,
}

impl LandmarkEncoder {
    /// Selects `config.embed_dim` pivots from `dataset` by farthest-point
    /// selection (fewer if the dataset collapses earlier — duplicates add
    /// no spread, and [`Landmarks::select`] stops when the maxmin distance
    /// hits zero).
    pub fn new(config: EncoderConfig, dataset: &TrajectoryDataset) -> Self {
        let measure = MeasureKind::Dtw.measure();
        let landmarks = Landmarks::select(&measure, dataset.trajectories(), config.embed_dim)
            .expect("DTW supports landmark features");
        LandmarkEncoder { landmarks }
    }

    /// The selected pivot set.
    pub fn landmarks(&self) -> &Landmarks {
        &self.landmarks
    }
}

impl TrajectoryEncoder for LandmarkEncoder {
    fn name(&self) -> &'static str {
        "landmark"
    }

    fn output_dim(&self) -> usize {
        self.landmarks.k()
    }

    fn encode_batch(&self, tape: &mut Tape, _store: &ParamStore, trajs: &[&Trajectory]) -> Var {
        let k = self.landmarks.k();
        let mut data = Vec::with_capacity(trajs.len() * k);
        for t in trajs {
            data.extend(self.landmarks.features(t).into_iter().map(|f| f as f32));
        }
        tape.input(Tensor::from_vec(trajs.len(), k, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> TrajectoryDataset {
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| {
                let o = i as f64 * 0.09;
                let pts: Vec<(f64, f64)> = (0..6)
                    .map(|s| (o + s as f64 * 0.01, (s as f64 * 0.5 + o).sin() * 0.1))
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect();
        TrajectoryDataset::new("synthetic", trajs)
    }

    #[test]
    fn emits_constant_feature_rows() {
        let ds = dataset(10);
        let config = EncoderConfig {
            embed_dim: 4,
            ..EncoderConfig::default()
        };
        let enc = LandmarkEncoder::new(config, &ds);
        assert_eq!(enc.name(), "landmark");
        assert_eq!(enc.output_dim(), 4);
        let store = ParamStore::new();
        let mut tape = Tape::new();
        let refs: Vec<&Trajectory> = ds.trajectories().iter().take(3).collect();
        let out = enc.encode_batch(&mut tape, &store, &refs);
        let val = tape.value(out);
        assert_eq!((val.rows(), val.cols()), (3, 4));
        // Rows are the landmark feature maps, bit-stable across calls and
        // with no parameters registered or watched.
        assert!(store.names().next().is_none(), "training-free: no params");
        assert!(tape.watched().is_empty());
        let mut tape2 = Tape::new();
        let out2 = enc.encode_batch(&mut tape2, &store, &refs);
        assert_eq!(tape.value(out).data(), tape2.value(out2).data());
        // Feature rows are nonnegative distances; a pivot's own row
        // touches zero at itself.
        assert!(tape.value(out).data().iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn degenerate_dataset_collapses_dimension() {
        // All-identical trajectories: farthest-point selection stops at
        // one pivot and the encoder's width follows.
        let t = Trajectory::from_xy(&[(0.1, 0.1), (0.2, 0.2)]).unwrap();
        let ds = TrajectoryDataset::new("degenerate", vec![t.clone(), t.clone(), t]);
        let enc = LandmarkEncoder::new(EncoderConfig::default(), &ds);
        assert_eq!(enc.output_dim(), 1);
    }
}
