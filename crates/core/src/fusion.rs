//! Dynamic fusion factor encoder (Section V-B).
//!
//! A lightweight Seq2Vec model (the paper selects an LSTM for its linear
//! complexity) maps each trajectory to a factor vector whose first half is
//! the Lorentz factor `V_Lo` and second half the Euclidean factor `V_Eu`.
//! The fusion ratio for a pair is
//!
//! `α_Lo = (V_Lo_a·V_Lo_b) / (V_Lo_a·V_Lo_b + V_Eu_a·V_Eu_b)`.
//!
//! Factors pass through a softplus so the inner products are positive and
//! `α ∈ (0,1)` — without this the paper's ratio is unbounded; see
//! DESIGN.md §1.
//!
//! Crucially this keeps similarity search O(d) per pair: factors are
//! computed once per trajectory (linear), and the ratio is two dot
//! products at query time.

use crate::config::PluginConfig;
use lh_models::features::{batch_steps, point_features, SPATIAL_DIM};
use lh_nn::layers::{Linear, LstmCell};
use lh_nn::{ParamStore, Tape, Var};
use rand::rngs::StdRng;
use traj_core::Trajectory;

/// The factor encoder. Produces `B×2f` positive factor matrices.
pub struct FactorEncoder {
    lstm: LstmCell,
    head: Linear,
    factor_dim: usize,
}

impl FactorEncoder {
    /// Registers parameters under the `fusion.*` namespace.
    pub fn new(config: &PluginConfig, store: &mut ParamStore, rng: &mut StdRng) -> Self {
        let lstm = LstmCell::new("fusion.lstm", SPATIAL_DIM, config.fusion_hidden, store, rng);
        let head = Linear::new(
            "fusion.head",
            config.fusion_hidden,
            2 * config.factor_dim,
            store,
            rng,
        );
        FactorEncoder {
            lstm,
            head,
            factor_dim: config.factor_dim,
        }
    }

    /// Factor width `f` (each of `V_Lo`, `V_Eu`).
    pub fn factor_dim(&self) -> usize {
        self.factor_dim
    }

    /// Encodes a batch into positive factors `B×2f`
    /// (`[V_Lo | V_Eu]` column blocks).
    pub fn encode_batch(&self, tape: &mut Tape, store: &ParamStore, trajs: &[&Trajectory]) -> Var {
        assert!(!trajs.is_empty(), "empty batch");
        let seqs: Vec<_> = trajs.iter().map(|t| point_features(t)).collect();
        let (steps, masks) = batch_steps(tape, &seqs, (0, SPATIAL_DIM));
        let h = self.lstm.forward_sequence(tape, store, &steps, &masks);
        let raw = self.head.forward(tape, store, h);
        tape.softplus(raw)
    }

    /// Computes the `B×1` fusion ratio `α_Lo` for row-paired factor
    /// matrices `fa, fb ∈ B×2f`.
    pub fn alpha(&self, tape: &mut Tape, fa: Var, fb: Var) -> Var {
        let f = self.factor_dim;
        let lo_a = tape.slice_cols(fa, 0, f);
        let lo_b = tape.slice_cols(fb, 0, f);
        let eu_a = tape.slice_cols(fa, f, 2 * f);
        let eu_b = tape.slice_cols(fb, f, 2 * f);
        let lo = tape.row_dot(lo_a, lo_b); // B×1, positive
        let eu = tape.row_dot(eu_a, eu_b); // B×1, positive
        let denom_raw = tape.add(lo, eu);
        let denom = tape.add_const(denom_raw, 1e-9);
        tape.div(lo, denom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build() -> (ParamStore, FactorEncoder) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let enc = FactorEncoder::new(&PluginConfig::paper_default(), &mut store, &mut rng);
        (store, enc)
    }

    fn trajs() -> Vec<Trajectory> {
        vec![
            Trajectory::from_xy(&[(0.1, 0.1), (0.2, 0.4), (0.5, 0.5)]).unwrap(),
            Trajectory::from_xy(&[(0.9, 0.8), (0.7, 0.6)]).unwrap(),
        ]
    }

    #[test]
    fn factors_are_positive() {
        let (store, enc) = build();
        let ts = trajs();
        let refs: Vec<&Trajectory> = ts.iter().collect();
        let mut tape = Tape::new();
        let f = enc.encode_batch(&mut tape, &store, &refs);
        let v = tape.value(f);
        assert_eq!(v.shape(), (2, 16)); // 2f with f = 8
        assert!(
            v.data().iter().all(|&x| x > 0.0),
            "softplus must be positive"
        );
    }

    #[test]
    fn alpha_in_unit_interval() {
        let (store, enc) = build();
        let ts = trajs();
        let refs: Vec<&Trajectory> = ts.iter().collect();
        let mut tape = Tape::new();
        let f = enc.encode_batch(&mut tape, &store, &refs);
        let fa = tape.select_rows(f, &[0, 1]);
        let fb = tape.select_rows(f, &[1, 0]);
        let alpha = enc.alpha(&mut tape, fa, fb);
        let v = tape.value(alpha);
        for r in 0..2 {
            let a = v.get(r, 0);
            assert!((0.0..=1.0).contains(&a), "α = {a}");
        }
        // α is symmetric in the pair.
        assert!((v.get(0, 0) - v.get(1, 0)).abs() < 1e-6);
    }

    #[test]
    fn alpha_is_trainable_toward_targets() {
        use lh_nn::optim::Adam;
        // Push α(t0,t1) toward 1: the Lorentz factors must grow.
        let (mut store, enc) = build();
        let ts = trajs();
        let refs: Vec<&Trajectory> = ts.iter().collect();
        let mut opt = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let mut tape = Tape::new();
            let f = enc.encode_batch(&mut tape, &store, &refs);
            let fa = tape.select_rows(f, &[0]);
            let fb = tape.select_rows(f, &[1]);
            let alpha = enc.alpha(&mut tape, fa, fb);
            last = tape.value(alpha).item();
            first.get_or_insert(last);
            // loss = (1 − α)²
            let neg = tape.scale(alpha, -1.0);
            let one_minus = tape.add_const(neg, 1.0);
            let sq = tape.square(one_minus);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
        }
        assert!(
            last > first.unwrap() + 0.05,
            "α did not increase: {} → {last}",
            first.unwrap()
        );
    }
}
