//! Single-layer LSTM cell with masked batched sequences.
//!
//! The workhorse recurrent unit of the baseline encoders (Neutraj,
//! Traj2SimVec, ST2Vec all use LSTM variants per the paper's Table II).
//! Batch processing pads sequences to the longest and masks updates, so the
//! final state of each row equals what an unpadded run would produce.

use crate::init;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// LSTM cell parameters: `Wx (I×4H)`, `Wh (H×4H)`, `b (1×4H)`.
/// Gate order along columns: input, forget, candidate, output.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Parameter names `name.wx`, `name.wh` and `name.b`, built once.
    wx: String,
    wh: String,
    b: String,
    input_dim: usize,
    hidden_dim: usize,
}

/// Recurrent state `(h, c)` as tape vars.
#[derive(Debug, Clone, Copy)]
pub struct LstmState {
    /// Hidden state `B×H`.
    pub h: Var,
    /// Cell state `B×H`.
    pub c: Var,
}

impl LstmCell {
    /// Registers parameters (forget-gate bias initialized to 1, the
    /// standard trick for gradient flow on long sequences).
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        let (wx, wh, b) = (
            format!("{name}.wx"),
            format!("{name}.wh"),
            format!("{name}.b"),
        );
        store.get_or_insert_with(&wx, || init::xavier_uniform(input_dim, 4 * hidden_dim, rng));
        store.get_or_insert_with(&wh, || {
            init::xavier_uniform(hidden_dim, 4 * hidden_dim, rng)
        });
        store.get_or_insert_with(&b, || {
            let mut b = Tensor::zeros(1, 4 * hidden_dim);
            for c in hidden_dim..2 * hidden_dim {
                b.set(0, c, 1.0);
            }
            b
        });
        LstmCell {
            wx,
            wh,
            b,
            input_dim,
            hidden_dim,
        }
    }

    /// Hidden width `H`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input width `I`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Zero initial state for a batch of `batch` rows.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> LstmState {
        LstmState {
            h: tape.input(Tensor::zeros(batch, self.hidden_dim)),
            c: tape.input(Tensor::zeros(batch, self.hidden_dim)),
        }
    }

    /// One step: `x (B×I)`, state `(B×H)` → new state.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, state: LstmState) -> LstmState {
        let wx = tape.watch(store, &self.wx);
        let wh = tape.watch(store, &self.wh);
        let b = tape.watch(store, &self.b);
        let xg = tape.matmul(x, wx);
        let hg = tape.matmul(state.h, wh);
        let sum = tape.add(xg, hg);
        let gates = tape.add(sum, b);
        let h = self.hidden_dim;
        let i_g = tape.slice_cols(gates, 0, h);
        let f_g = tape.slice_cols(gates, h, 2 * h);
        let g_g = tape.slice_cols(gates, 2 * h, 3 * h);
        let o_g = tape.slice_cols(gates, 3 * h, 4 * h);
        let i = tape.sigmoid(i_g);
        let f = tape.sigmoid(f_g);
        let g = tape.tanh(g_g);
        let o = tape.sigmoid(o_g);
        let fc = tape.mul(f, state.c);
        let ig = tape.mul(i, g);
        let c = tape.add(fc, ig);
        let tc = tape.tanh(c);
        let new_h = tape.mul(o, tc);
        LstmState { h: new_h, c }
    }

    /// Runs a full masked sequence and returns the final hidden state
    /// `B×H`. `steps[t]` is the `B×I` input at time `t`; `masks[t]` the
    /// `B×1` validity column (1 while `t < len(row)`).
    pub fn forward_sequence(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        steps: &[Var],
        masks: &[Var],
    ) -> Var {
        assert_eq!(steps.len(), masks.len(), "steps/masks length mismatch");
        assert!(!steps.is_empty(), "empty sequence");
        let batch = tape.value(steps[0]).rows();
        let mut state = self.zero_state(tape, batch);
        for (&x, &mask) in steps.iter().zip(masks) {
            let new = self.step(tape, store, x, state);
            // h = m⊙h_new + (1−m)⊙h_old, same for c.
            let mh = tape.mul(new.h, mask);
            let mc = tape.mul(new.c, mask);
            let neg_mask = tape.scale(mask, -1.0);
            let inv = tape.add_const(neg_mask, 1.0); // (1−m) as B×1
            let oh = tape.mul(state.h, inv);
            let oc = tape.mul(state.c, inv);
            state = LstmState {
                h: tape.add(mh, oh),
                c: tape.add(mc, oc),
            };
        }
        state.h
    }
}

/// Builds the `B×1` mask inputs (data leaves, see [`Tape::input`]) for a
/// batch of sequence lengths padded to `max_len`.
pub fn sequence_masks(tape: &mut Tape, lens: &[usize], max_len: usize) -> Vec<Var> {
    (0..max_len)
        .map(|t| {
            let col: Vec<f32> = lens
                .iter()
                .map(|&l| if t < l { 1.0 } else { 0.0 })
                .collect();
            tape.input(Tensor::from_vec(lens.len(), 1, col))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn setup(hidden: usize) -> (ParamStore, LstmCell) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = ParamStore::new();
        let cell = LstmCell::new("lstm", 2, hidden, &mut store, &mut rng);
        (store, cell)
    }

    #[test]
    fn step_shapes() {
        let (store, cell) = setup(4);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 2));
        let s0 = cell.zero_state(&mut tape, 3);
        let s1 = cell.step(&mut tape, &store, x, s0);
        assert_eq!(tape.value(s1.h).shape(), (3, 4));
        assert_eq!(tape.value(s1.c).shape(), (3, 4));
    }

    #[test]
    fn forget_bias_initialized() {
        let (store, _) = setup(3);
        let b = store.get("lstm.b");
        assert_eq!(b.get(0, 3), 1.0); // forget block [H..2H)
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn masked_rows_freeze_state() {
        let (store, cell) = setup(4);
        let mut tape = Tape::new();
        // Two rows; row 1 has length 1, row 0 length 2.
        let x0 = tape.constant(Tensor::from_vec(2, 2, vec![0.5, -0.5, 0.3, 0.9]));
        let x1 = tape.constant(Tensor::from_vec(2, 2, vec![1.0, 1.0, 7.7, 7.7]));
        let masks = sequence_masks(&mut tape, &[2, 1], 2);
        let h = cell.forward_sequence(&mut tape, &store, &[x0, x1], &masks);

        // Reference: run row 1 alone for a single step.
        let mut ref_tape = Tape::new();
        let rx = ref_tape.constant(Tensor::from_vec(1, 2, vec![0.3, 0.9]));
        let s0 = cell.zero_state(&mut ref_tape, 1);
        let s1 = cell.step(&mut ref_tape, &store, rx, s0);
        let expect = ref_tape.value(s1.h).row(0).to_vec();
        let got = tape.value(h).row(1).to_vec();
        for (e, g) in expect.iter().zip(&got) {
            assert!((e - g).abs() < 1e-6, "expect {expect:?} got {got:?}");
        }
    }

    #[test]
    fn gradients_flow_through_time() {
        let (mut store, cell) = setup(4);
        let mut opt = Adam::new(0.02);
        // Learn to output h ≈ target from a 3-step constant input.
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let xs: Vec<Var> = (0..3)
                .map(|_| tape.constant(Tensor::from_vec(1, 2, vec![0.5, -1.0])))
                .collect();
            let masks = sequence_masks(&mut tape, &[3], 3);
            let h = cell.forward_sequence(&mut tape, &store, &xs, &masks);
            let target = tape.constant(Tensor::from_vec(1, 4, vec![0.3, -0.3, 0.2, 0.1]));
            let d = tape.sub(h, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
            last = tape.value(loss).item();
        }
        assert!(last < 0.01, "LSTM failed to fit constant target: {last}");
    }

    #[test]
    fn batch_matches_individual_runs() {
        let (store, cell) = setup(3);
        // Batch of two different-length sequences.
        let seq_a = [vec![0.1, 0.2], vec![-0.3, 0.4], vec![0.5, 0.6]];
        let seq_b = [vec![0.9, -0.8]];

        let run_single = |seq: &[Vec<f32>]| {
            let mut tape = Tape::new();
            let xs: Vec<Var> = seq
                .iter()
                .map(|v| tape.constant(Tensor::from_vec(1, 2, v.clone())))
                .collect();
            let masks = sequence_masks(&mut tape, &[seq.len()], seq.len());
            let h = cell.forward_sequence(&mut tape, &store, &xs, &masks);
            tape.value(h).row(0).to_vec()
        };
        let ha = run_single(&seq_a);
        let hb = run_single(&seq_b);

        // Batched: pad b with garbage that the mask must suppress.
        let mut tape = Tape::new();
        let step = |tape: &mut Tape, t: usize| {
            let a = &seq_a[t];
            let b: &[f32] = if t < seq_b.len() {
                &seq_b[t]
            } else {
                &[9.9, 9.9]
            };
            tape.constant(Tensor::from_vec(2, 2, vec![a[0], a[1], b[0], b[1]]))
        };
        let xs: Vec<Var> = (0..3).map(|t| step(&mut tape, t)).collect();
        let masks = sequence_masks(&mut tape, &[3, 1], 3);
        let h = tape_value_rows(&mut tape, &cell, &store, &xs, &masks);
        assert_rows_close(&h[0], &ha);
        assert_rows_close(&h[1], &hb);
    }

    fn tape_value_rows(
        tape: &mut Tape,
        cell: &LstmCell,
        store: &ParamStore,
        xs: &[Var],
        masks: &[Var],
    ) -> Vec<Vec<f32>> {
        let h = cell.forward_sequence(tape, store, xs, masks);
        let v = tape.value(h);
        (0..v.rows()).map(|r| v.row(r).to_vec()).collect()
    }

    fn assert_rows_close(a: &[f32], b: &[f32]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }
}
