//! Single-layer LSTM cell with masked batched sequences.
//!
//! The workhorse recurrent unit of the baseline encoders (Neutraj,
//! Traj2SimVec, ST2Vec all use LSTM variants per the paper's Table II).
//! Batch processing pads sequences to the longest and masks updates, so the
//! final state of each row equals what an unpadded run would produce.
//!
//! A step is one [`Tape::lstm_step`] node over the state `[h | c]`, so a
//! sequence of `T` steps is `T` nodes plus the final `h` slice. The
//! 25-node per-gate composition that op replaces stays in this module's
//! tests as the oracle it must match bit for bit. The masks are data. The
//! last step's `c` half, which nothing reads, gets the slice's zeros where
//! the composition gave it no gradient: the parameter gradients keep the
//! composition's bits, and the state's can differ in the sign of a zero.
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

/// Recurrent state `(h, c)` as tape vars: the per-gate oracle's state.
#[cfg(test)]
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

    /// Runs a full masked sequence and returns the final hidden state
    /// `B×H`. `steps[t]` is the `B×I` input at time `t`; `masks[t]` the
    /// `B×1` validity column (1 while `t < len(row)`), a data leaf as
    /// [`sequence_masks`] builds it. One
    /// [`Tape::lstm_step`] node per step, from a zero state.
    pub fn forward_sequence(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        steps: &[Var],
        masks: &[Var],
    ) -> Var {
        assert_eq!(steps.len(), masks.len(), "steps/masks length mismatch");
        assert!(!steps.is_empty(), "empty sequence");
        let wx = tape.watch(store, &self.wx);
        let wh = tape.watch(store, &self.wh);
        let b = tape.watch(store, &self.b);
        let batch = tape.value(steps[0]).rows();
        let mut state = tape.input(Tensor::zeros(batch, 2 * self.hidden_dim));
        for (&x, &mask) in steps.iter().zip(masks) {
            state = tape.lstm_step(x, state, mask, wx, wh, b);
        }
        tape.slice_cols(state, 0, self.hidden_dim)
    }
}

/// The per-gate composition [`Tape::lstm_step`] replaces, kept as the
/// oracle it must match bit for bit.
#[cfg(test)]
impl LstmCell {
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

    /// One step and its mask blend `h = m⊙h_new + (1−m)⊙h_old`, same for
    /// `c`: the 25 nodes one [`Tape::lstm_step`] replaces.
    pub fn masked_step(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        mask: Var,
        state: LstmState,
    ) -> LstmState {
        let new = self.step(tape, store, x, state);
        let mh = tape.mul(new.h, mask);
        let mc = tape.mul(new.c, mask);
        let neg_mask = tape.scale(mask, -1.0);
        let inv = tape.add_const(neg_mask, 1.0); // (1−m) as B×1
        let oh = tape.mul(state.h, inv);
        let oc = tape.mul(state.c, inv);
        LstmState {
            h: tape.add(mh, oh),
            c: tape.add(mc, oc),
        }
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
    use rand::{Rng, SeedableRng};

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `[a | b]` row by row.
    fn side_by_side(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Vec::new();
        for r in 0..a.rows() {
            out.extend_from_slice(a.row(r));
            out.extend_from_slice(b.row(r));
        }
        Tensor::from_vec(a.rows(), a.cols() + b.cols(), out)
    }

    /// One random case of the bit test: the cell, the inputs and masks of
    /// a batch whose rows after the first are padded to a random length,
    /// a random initial state, and an upstream gradient with an all-zero
    /// row and a negative zero.
    struct Case {
        store: ParamStore,
        cell: LstmCell,
        xs: Vec<Tensor>,
        masks: Vec<Tensor>,
        h0: Tensor,
        c0: Tensor,
        r: Tensor,
    }

    fn case(seed: u64) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 1 + rng.gen_range(0..4usize);
        let (input, hidden) = (1 + rng.gen_range(0..3usize), 1 + rng.gen_range(0..4usize));
        let steps = 1 + rng.gen_range(0..4usize);
        let mut store = ParamStore::new();
        let cell = LstmCell::new("l", input, hidden, &mut store, &mut rng);
        // A non-zero bias everywhere, not only on the forget block.
        store.insert("l.b", Tensor::uniform(1, 4 * hidden, 0.5, &mut rng));
        let xs = (0..steps)
            .map(|_| Tensor::uniform(rows, input, 1.5, &mut rng))
            .collect();
        let lens: Vec<usize> = (0..rows)
            .map(|r| {
                if r == 0 {
                    steps
                } else {
                    1 + rng.gen_range(0..steps)
                }
            })
            .collect();
        let masks = (0..steps)
            .map(|t| {
                let col = lens.iter().map(|&l| if t < l { 1.0 } else { 0.0 });
                Tensor::from_vec(rows, 1, col.collect())
            })
            .collect();
        let (h0, c0) = (
            Tensor::uniform(rows, hidden, 1.0, &mut rng),
            Tensor::uniform(rows, hidden, 1.0, &mut rng),
        );
        let mut r = Tensor::uniform(rows, 2 * hidden, 1.0, &mut rng);
        r.row_mut(rows / 2).fill(0.0);
        r.set(0, 0, -0.0);
        Case {
            store,
            cell,
            xs,
            masks,
            h0,
            c0,
            r,
        }
    }

    /// What the loss reads of the final state.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Read {
        /// `h` and `c`.
        Both,
        /// `h` alone, so the last step's `c` half has no consumer.
        H,
        /// `h`, and `c` through all-zero weights: the oracle's `c` then
        /// gets the `+0.0` gradient that a slice of `h` scatters into the
        /// fused state's `c` half.
        HAndZeroC,
    }

    /// Where [`run`] puts the initial state's gradient.
    const STATE0_GRAD: usize = 4;

    /// Runs `case` as `lstm_step` nodes (`fused`) or as the per-gate
    /// composition, with the masks as data, `x` as constants or as data,
    /// and a loss that reads the final state as `read` says. Returns the
    /// bits of the final state, of every watched parameter's gradient, of
    /// the initial state's gradient, and (as constants) of every `x`'s
    /// gradient.
    fn run(case: &Case, fused: bool, data: bool, read: Read) -> Vec<Vec<u32>> {
        let hd = case.cell.hidden_dim();
        let mut tape = Tape::new();
        let xs: Vec<Var> = case
            .xs
            .iter()
            .map(|t| {
                if data {
                    tape.input(t.clone())
                } else {
                    tape.constant(t.clone())
                }
            })
            .collect();
        let masks: Vec<Var> = case.masks.iter().map(|t| tape.input(t.clone())).collect();
        let weights = |from: usize, to: usize| {
            let r: Vec<f32> = (0..case.r.rows())
                .flat_map(|row| case.r.row(row)[from..to].to_vec())
                .collect();
            Tensor::from_vec(case.r.rows(), to - from, r)
        };
        // The fused loss reads the whole state through one op, as the
        // oracle's reads `h` and `c` through one op each.
        let (state, reads, state0) = if fused {
            let s0 = tape.constant(side_by_side(&case.h0, &case.c0));
            let wx = tape.watch(&case.store, "l.wx");
            let wh = tape.watch(&case.store, "l.wh");
            let b = tape.watch(&case.store, "l.b");
            let mut s = s0;
            for (&x, &m) in xs.iter().zip(&masks) {
                s = tape.lstm_step(x, s, m, wx, wh, b);
            }
            let reads = match read {
                Read::Both => vec![(s, weights(0, 2 * hd))],
                Read::H => vec![(tape.slice_cols(s, 0, hd), weights(0, hd))],
                Read::HAndZeroC => unreachable!("a fused run reads the state or its h"),
            };
            (tape.value(s).clone(), reads, vec![s0])
        } else {
            let (h0, c0) = (
                tape.constant(case.h0.clone()),
                tape.constant(case.c0.clone()),
            );
            let mut s = LstmState { h: h0, c: c0 };
            for (&x, &m) in xs.iter().zip(&masks) {
                s = case.cell.masked_step(&mut tape, &case.store, x, m, s);
            }
            let mut reads = vec![(s.h, weights(0, hd))];
            match read {
                Read::Both => reads.push((s.c, weights(hd, 2 * hd))),
                Read::H => {}
                Read::HAndZeroC => reads.push((s.c, Tensor::zeros(case.r.rows(), hd))),
            }
            let state = side_by_side(tape.value(s.h), tape.value(s.c));
            (state, reads, vec![h0, c0])
        };
        let terms: Vec<Var> = reads
            .into_iter()
            .map(|(v, w)| {
                let wv = tape.constant(w);
                let m = tape.mul(v, wv);
                tape.sum_all(m)
            })
            .collect();
        let loss = match terms[..] {
            [a] => a,
            [a, b] => tape.add(a, b),
            _ => unreachable!(),
        };
        tape.backward(loss);
        let mut out = vec![bits(&state)];
        out.extend(tape.watched().iter().map(|(_, v)| bits(&tape.grad(*v))));
        out.push(match state0[..] {
            [s0] => bits(&tape.grad(s0)),
            [h0, c0] => bits(&side_by_side(&tape.grad(h0), &tape.grad(c0))),
            _ => unreachable!(),
        });
        if !data {
            out.extend(xs.iter().map(|&v| bits(&tape.grad(v))));
        }
        out
    }

    #[test]
    fn lstm_step_matches_the_per_gate_composition_bit_for_bit() {
        for seed in 0..16u64 {
            let case = case(seed);
            for data in [false, true] {
                let at = format!("seed {seed}, data {data}");
                let same = |fused: &[Vec<u32>], oracle: &[Vec<u32>], what: &str| {
                    assert_eq!(fused.len(), oracle.len(), "{at}, {what}");
                    for (k, (f, o)) in fused.iter().zip(oracle).enumerate() {
                        assert_eq!(f, o, "{at}, {what}: part {k}");
                    }
                };
                let both = run(&case, true, data, Read::Both);
                same(&both, &run(&case, false, data, Read::Both), "both read");
                let h = run(&case, true, data, Read::H);
                same(&h, &run(&case, false, data, Read::HAndZeroC), "c zero-read");
                // Left unread, the composition's `c` gets no gradient at
                // all, and the fused step a slice's zeros. Only the sign of
                // a zero in the initial state's gradient may differ.
                let mut unread = run(&case, false, data, Read::H);
                let values = |b: &[u32]| b.iter().map(|&v| f32::from_bits(v)).collect::<Vec<_>>();
                assert_eq!(
                    values(&h[STATE0_GRAD]),
                    values(&unread[STATE0_GRAD]),
                    "{at}, c unread: initial state's gradient values"
                );
                unread[STATE0_GRAD].clone_from(&h[STATE0_GRAD]);
                same(&h, &unread, "c unread");
            }
        }
    }

    #[test]
    fn forward_sequence_is_one_node_per_step() {
        let (store, cell) = setup(3);
        let mut tape = Tape::new();
        let xs: Vec<Var> = (0..5)
            .map(|_| tape.input(Tensor::full(2, 2, 0.5)))
            .collect();
        let masks = sequence_masks(&mut tape, &[5, 3], 5);
        let before = tape.len();
        let _ = cell.forward_sequence(&mut tape, &store, &xs, &masks);
        // Three watched parameters, the zero state, five steps, the slice.
        assert_eq!(tape.len() - before, 3 + 1 + 5 + 1);
    }
}
