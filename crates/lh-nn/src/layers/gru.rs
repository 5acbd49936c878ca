//! Single-layer GRU cell (the lighter recurrent unit; Neutraj's original
//! implementation uses a GRU variant, per the paper's Table II).

use crate::init;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// GRU parameters: `Wxrz (I×2H)`, `Whrz (H×2H)`, `brz (1×2H)` for the
/// reset/update gates and `Wxn (I×H)`, `Whn (H×H)`, `bn (1×H)` for the
/// candidate.
#[derive(Debug, Clone)]
pub struct GruCell {
    /// Parameter names `name.{wxrz, whrz, brz, wxn, whn, bn}`, built once.
    names: [String; 6],
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Registers parameters in the store.
    pub fn new(
        name: impl Into<String>,
        input_dim: usize,
        hidden_dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        let names = ["wxrz", "whrz", "brz", "wxn", "whn", "bn"].map(|p| format!("{name}.{p}"));
        let [wxrz, whrz, brz, wxn, whn, bn] = &names;
        store.get_or_insert_with(wxrz, || {
            init::xavier_uniform(input_dim, 2 * hidden_dim, rng)
        });
        store.get_or_insert_with(whrz, || {
            init::xavier_uniform(hidden_dim, 2 * hidden_dim, rng)
        });
        store.get_or_insert_with(brz, || init::zeros(1, 2 * hidden_dim));
        store.get_or_insert_with(wxn, || init::xavier_uniform(input_dim, hidden_dim, rng));
        store.get_or_insert_with(whn, || init::xavier_uniform(hidden_dim, hidden_dim, rng));
        store.get_or_insert_with(bn, || init::zeros(1, hidden_dim));
        GruCell {
            names,
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

    /// Zero hidden state `B×H`.
    pub fn zero_state(&self, tape: &mut Tape, batch: usize) -> Var {
        tape.input(Tensor::zeros(batch, self.hidden_dim))
    }

    /// One step: `x (B×I)`, `h (B×H)` → `h' (B×H)`.
    pub fn step(&self, tape: &mut Tape, store: &ParamStore, x: Var, h: Var) -> Var {
        let [wxrz, whrz, brz, wxn, whn, bn] = self.names.each_ref().map(|n| tape.watch(store, n));

        let xg = tape.matmul(x, wxrz);
        let hg = tape.matmul(h, whrz);
        let s = tape.add(xg, hg);
        let rz_pre = tape.add(s, brz);
        let rz = tape.sigmoid(rz_pre);
        let hd = self.hidden_dim;
        let r = tape.slice_cols(rz, 0, hd);
        let z = tape.slice_cols(rz, hd, 2 * hd);

        let rh = tape.mul(r, h);
        let xn = tape.matmul(x, wxn);
        let hn = tape.matmul(rh, whn);
        let sn = tape.add(xn, hn);
        let n_pre = tape.add(sn, bn);
        let n = tape.tanh(n_pre);

        // h' = (1 − z)⊙n + z⊙h
        let zn = tape.mul(n, z);
        let diff = tape.sub(n, zn); // (1−z)⊙n
        let zh = tape.mul(h, z);
        tape.add(diff, zh)
    }

    /// Masked sequence run; returns the final hidden state `B×H`.
    pub fn forward_sequence(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        steps: &[Var],
        masks: &[Var],
    ) -> Var {
        assert_eq!(steps.len(), masks.len());
        assert!(!steps.is_empty(), "empty sequence");
        let batch = tape.value(steps[0]).rows();
        let mut h = self.zero_state(tape, batch);
        for (&x, &mask) in steps.iter().zip(masks) {
            let new_h = self.step(tape, store, x, h);
            let mh = tape.mul(new_h, mask);
            let neg_mask = tape.scale(mask, -1.0);
            let inv = tape.add_const(neg_mask, 1.0);
            let oh = tape.mul(h, inv);
            h = tape.add(mh, oh);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::lstm::sequence_masks;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, GruCell) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cell = GruCell::new("gru", 2, 4, &mut store, &mut rng);
        (store, cell)
    }

    #[test]
    fn shapes() {
        let (store, cell) = setup();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 2));
        let h0 = cell.zero_state(&mut tape, 3);
        let h1 = cell.step(&mut tape, &store, x, h0);
        assert_eq!(tape.value(h1).shape(), (3, 4));
        assert_eq!(cell.hidden_dim(), 4);
        assert_eq!(cell.input_dim(), 2);
    }

    #[test]
    fn zero_input_zero_state_is_bounded() {
        let (store, cell) = setup();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(1, 2));
        let h0 = cell.zero_state(&mut tape, 1);
        let h1 = cell.step(&mut tape, &store, x, h0);
        assert!(tape.value(h1).data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn can_fit_small_target() {
        let (mut store, cell) = setup();
        let mut opt = Adam::new(0.02);
        let mut last = f32::INFINITY;
        for _ in 0..80 {
            let mut tape = Tape::new();
            let xs: Vec<Var> = (0..2)
                .map(|_| tape.constant(Tensor::from_vec(1, 2, vec![0.4, -0.2])))
                .collect();
            let masks = sequence_masks(&mut tape, &[2], 2);
            let h = cell.forward_sequence(&mut tape, &store, &xs, &masks);
            let target = tape.constant(Tensor::from_vec(1, 4, vec![0.2, -0.1, 0.3, 0.0]));
            let d = tape.sub(h, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
            last = tape.value(loss).item();
        }
        assert!(last < 0.01, "GRU failed to fit: {last}");
    }

    #[test]
    fn mask_freezes_finished_rows() {
        let (store, cell) = setup();
        let mut tape = Tape::new();
        let x0 = tape.constant(Tensor::from_vec(2, 2, vec![0.1, 0.1, 0.2, 0.2]));
        let x1 = tape.constant(Tensor::from_vec(2, 2, vec![0.3, 0.3, 8.0, 8.0]));
        let masks = sequence_masks(&mut tape, &[2, 1], 2);
        let h = cell.forward_sequence(&mut tape, &store, &[x0, x1], &masks);

        let mut ref_tape = Tape::new();
        let rx = ref_tape.constant(Tensor::from_vec(1, 2, vec![0.2, 0.2]));
        let h0 = cell.zero_state(&mut ref_tape, 1);
        let h1 = cell.step(&mut ref_tape, &store, rx, h0);
        for (e, g) in ref_tape.value(h1).row(0).iter().zip(tape.value(h).row(1)) {
            assert!((e - g).abs() < 1e-6);
        }
    }
}
