//! Adam (Kingma & Ba, 2015) with bias correction.

use super::collect_clipped_grads;
use crate::params::ParamStore;
use crate::tape::Tape;
use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical-stability epsilon.
const EPS: f32 = 1e-8;
/// Global-norm gradient clip (keeps early LSTM training stable at our
/// small batch sizes).
const CLIP_NORM: f32 = 5.0;

/// Adam optimizer state.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper-style default 1e-3).
    pub lr: f32,
    t: u64,
    m: BTreeMap<String, Tensor>,
    v: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Adam with standard hyper-parameters and a global clip of 5.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            t: 0,
            m: BTreeMap::new(),
            v: BTreeMap::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update from the tape's watched gradients onto `store`.
    pub fn step(&mut self, store: &mut ParamStore, tape: &Tape) {
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - BETA1.powi(t);
        let bc2 = 1.0 - BETA2.powi(t);
        for (name, grad) in collect_clipped_grads(tape, CLIP_NORM) {
            let m = self
                .m
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            let v = self
                .v
                .entry(name.clone())
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            let p = store.get_mut(&name);
            for i in 0..grad.len() {
                let g = grad.data()[i];
                let mi = BETA1 * m.data()[i] + (1.0 - BETA1) * g;
                let vi = BETA2 * v.data()[i] + (1.0 - BETA2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                p.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(1, 2, vec![-4.0, 7.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let mut tape = Tape::new();
            let w = tape.watch(&store, "w");
            let target = tape.constant(Tensor::from_vec(1, 2, vec![1.0, -2.0]));
            let d = tape.sub(w, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
        }
        let w = store.get("w");
        assert!((w.get(0, 0) - 1.0).abs() < 1e-2, "w0={}", w.get(0, 0));
        assert!((w.get(0, 1) + 2.0).abs() < 1e-2, "w1={}", w.get(0, 1));
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn handles_sparse_embedding_grads() {
        // Rows never selected must stay untouched.
        let mut store = ParamStore::new();
        store.insert(
            "emb",
            Tensor::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]),
        );
        let before_row2 = store.get("emb").row(2).to_vec();
        let mut opt = Adam::new(0.05);
        for _ in 0..10 {
            let mut tape = Tape::new();
            let emb = tape.watch(&store, "emb");
            let sel = tape.select_rows(emb, &[0, 1]);
            let sq = tape.square(sel);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
        }
        assert_eq!(store.get("emb").row(2), &before_row2[..]);
        assert!(store.get("emb").get(0, 0) < 1.0);
    }
}
