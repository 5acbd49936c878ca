//! Graph attention layer (Veličković et al., 2018) over an explicit
//! neighbor list — the unit TrajGAT-style encoders stack over quadtree
//! graphs.

use crate::init;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use rand::rngs::StdRng;

/// One GAT layer: `h'_i = Σ_j α_ij·(W h_j)` with attention logits
/// `e_ij = LeakyReLU(a₁·Wh_i + a₂·Wh_j)` normalized over the neighbor set
/// of `i` (which should include `i` itself).
#[derive(Debug, Clone)]
pub struct GatLayer {
    w: String,
    a1: String,
    a2: String,
    in_dim: usize,
    out_dim: usize,
}

impl GatLayer {
    /// Registers `W (in×out)` and attention vectors `a1, a2 (out×1)`.
    pub fn new(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        let (w, a1, a2) = (
            format!("{name}.w"),
            format!("{name}.a1"),
            format!("{name}.a2"),
        );
        store.get_or_insert_with(&w, || init::xavier_uniform(in_dim, out_dim, rng));
        store.get_or_insert_with(&a1, || init::xavier_uniform(out_dim, 1, rng));
        store.get_or_insert_with(&a2, || init::xavier_uniform(out_dim, 1, rng));
        GatLayer {
            w,
            a1,
            a2,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward over node features `h (N×in)` with `neighbors[i]` the
    /// incoming neighborhood of node `i` (self-loop recommended). Returns
    /// `N×out` (ELU-free; callers add nonlinearity). The attention and
    /// the mix over every neighbourhood are one [`Tape::gat_attend`] node.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        neighbors: &[Vec<usize>],
    ) -> Var {
        let n = tape.value(h).rows();
        assert_eq!(n, neighbors.len(), "neighbor list size mismatch");
        let w = tape.watch(store, &self.w);
        let a1 = tape.watch(store, &self.a1);
        let a2 = tape.watch(store, &self.a2);
        let wh = tape.matmul(h, w); // N×out
        let s1 = tape.matmul(wh, a1); // N×1 — a₁·Wh_i
        let s2 = tape.matmul(wh, a2); // N×1 — a₂·Wh_j
        tape.gat_attend(wh, s1, s2, neighbors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn setup() -> (ParamStore, GatLayer) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let gat = GatLayer::new("g", 3, 2, &mut store, &mut rng);
        (store, gat)
    }

    fn line_graph(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut nb = vec![i];
                if i > 0 {
                    nb.push(i - 1);
                }
                if i + 1 < n {
                    nb.push(i + 1);
                }
                nb
            })
            .collect()
    }

    #[test]
    fn shapes() {
        let (store, gat) = setup();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::zeros(4, 3));
        let out = gat.forward(&mut tape, &store, h, &line_graph(4));
        assert_eq!(tape.value(out).shape(), (4, 2));
        assert_eq!(gat.in_dim(), 3);
        assert_eq!(gat.out_dim(), 2);
    }

    #[test]
    fn isolated_self_loop_node_is_its_own_projection() {
        // A node whose neighborhood is only itself: α = 1 → out = Wh_i.
        let (store, gat) = setup();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_vec(2, 3, vec![0.5, 1.0, -0.5, 0.0, 0.0, 0.0]));
        let out = gat.forward(&mut tape, &store, h, &[vec![0], vec![1]]);
        let w = store.get("g.w");
        let expect0: Vec<f32> = (0..2)
            .map(|c| (0..3).map(|k| tape_h(&tape, h, 0, k) * w.get(k, c)).sum())
            .collect();
        for (g, e) in tape.value(out).row(0).iter().zip(&expect0) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    fn tape_h(tape: &Tape, h: Var, r: usize, c: usize) -> f32 {
        tape.value(h).get(r, c)
    }

    #[test]
    fn attention_weights_mix_neighbors() {
        // With 2 mutually connected nodes, outputs must be convex mixes of
        // the two projected features — so outputs differ from the isolated
        // case and lie between projections.
        let (store, gat) = setup();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]));
        let solo = gat.forward(&mut tape, &store, h, &[vec![0], vec![1]]);
        let mixed = gat.forward(&mut tape, &store, h, &[vec![0, 1], vec![0, 1]]);
        let s = tape.value(solo).clone();
        let m = tape.value(mixed).clone();
        for c in 0..2 {
            let lo = s.get(0, c).min(s.get(1, c)) - 1e-6;
            let hi = s.get(0, c).max(s.get(1, c)) + 1e-6;
            assert!(m.get(0, c) >= lo && m.get(0, c) <= hi);
        }
    }

    #[test]
    fn trainable() {
        let (mut store, gat) = setup();
        let mut opt = Adam::new(0.05);
        let graph = line_graph(3);
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            let mut tape = Tape::new();
            let h = tape.constant(Tensor::from_vec(
                3,
                3,
                vec![0.1, 0.5, -0.3, 0.7, 0.2, 0.0, -0.4, 0.3, 0.6],
            ));
            let out = gat.forward(&mut tape, &store, h, &graph);
            let target = tape.constant(Tensor::from_vec(3, 2, vec![0.5, -0.5, 0.2, 0.1, 0.0, 0.3]));
            let d = tape.sub(out, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
            last = tape.value(loss).item();
        }
        assert!(last < 0.05, "GAT failed to fit: {last}");
    }

    /// The per-node composition [`Tape::gat_attend`] replaces — eight tape
    /// nodes per graph node — kept as the oracle it must match bit for bit.
    fn attend_per_node(
        tape: &mut Tape,
        wh: Var,
        s1: Var,
        s2: Var,
        neighbors: &[Vec<usize>],
    ) -> Var {
        let mut out_rows = Vec::with_capacity(neighbors.len());
        for (i, nbrs) in neighbors.iter().enumerate() {
            let s1_i = tape.select_rows(s1, &[i]); // 1×1
            let s2_j = tape.select_rows(s2, nbrs); // k×1
            let s2_row = tape.transpose(s2_j); // 1×k
            let logits_pre = tape.add(s2_row, s1_i);
            let logits = tape.leaky_relu(logits_pre, 0.2);
            let alpha = tape.softmax_rows(logits); // 1×k
            let nbr_feats = tape.select_rows(wh, nbrs); // k×out
            out_rows.push(tape.matmul(alpha, nbr_feats)); // 1×out
        }
        tape.stack_rows(&out_rows)
    }

    /// A random graph of `n ≥ 4` nodes, every list led by its self-loop:
    /// node 0 has only its self-loop, node 1 is a hub over every node,
    /// node 2 lists one neighbour twice, the rest are random.
    fn random_graph(n: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| match i {
                0 => vec![0],
                1 => std::iter::once(1)
                    .chain((0..n).filter(|&j| j != 1))
                    .collect(),
                2 => vec![2, 3, n - 1, 3],
                _ => std::iter::once(i)
                    .chain((0..n).filter(|&j| j != i && rng.gen_bool(0.4)))
                    .collect(),
            })
            .collect()
    }

    fn random(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
        Tensor::uniform(rows, cols, 1.5, rng)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `sum(out ⊙ r)`: a loss whose upstream gradient is `r`, which holds
    /// an all-zero row and scattered zeros to reach the zero-skips.
    fn weighted_sum(tape: &mut Tape, out: Var, r: &Tensor) -> Var {
        let rv = tape.constant(r.clone());
        let m = tape.mul(out, rv);
        tape.sum_all(m)
    }

    fn upstream(n: usize, out: usize, rng: &mut StdRng) -> Tensor {
        let mut r = random(n, out, rng);
        r.row_mut(n / 2).fill(0.0);
        r.set(1, 0, 0.0);
        r
    }

    #[test]
    fn gat_attend_matches_the_per_node_composition_bit_for_bit() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 4 + rng.gen_range(0..9usize);
            let width = 1 + rng.gen_range(0..4usize);
            let graph = random_graph(n, &mut rng);
            let (wh, s1, s2) = (
                random(n, width, &mut rng),
                random(n, 1, &mut rng),
                random(n, 1, &mut rng),
            );
            let r = upstream(n, width, &mut rng);
            let run = |fused: bool| {
                let mut tape = Tape::new();
                let (w, a, b) = (
                    tape.constant(wh.clone()),
                    tape.constant(s1.clone()),
                    tape.constant(s2.clone()),
                );
                let out = if fused {
                    tape.gat_attend(w, a, b, &graph)
                } else {
                    attend_per_node(&mut tape, w, a, b, &graph)
                };
                let loss = weighted_sum(&mut tape, out, &r);
                tape.backward(loss);
                [
                    bits(tape.value(out)),
                    bits(&tape.grad(w)),
                    bits(&tape.grad(a)),
                    bits(&tape.grad(b)),
                ]
            };
            let (fused, oracle) = (run(true), run(false));
            for (what, (f, o)) in ["out", "wh", "s1", "s2"]
                .iter()
                .zip(fused.iter().zip(&oracle))
            {
                assert_eq!(f, o, "seed {seed}: {what} bits differ");
            }
        }
    }

    #[test]
    fn gat_layer_parameter_gradients_match_the_per_node_composition() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let n = 4 + rng.gen_range(0..9usize);
            let (in_dim, out_dim) = (1 + rng.gen_range(0..4usize), 1 + rng.gen_range(0..4usize));
            let mut store = ParamStore::new();
            let gat = GatLayer::new("g", in_dim, out_dim, &mut store, &mut rng);
            let graph = random_graph(n, &mut rng);
            let h = random(n, in_dim, &mut rng);
            let r = upstream(n, out_dim, &mut rng);
            let run = |fused: bool| {
                let mut tape = Tape::new();
                let hv = tape.input(h.clone());
                let out = if fused {
                    gat.forward(&mut tape, &store, hv, &graph)
                } else {
                    let w = tape.watch(&store, "g.w");
                    let a1 = tape.watch(&store, "g.a1");
                    let a2 = tape.watch(&store, "g.a2");
                    let wh = tape.matmul(hv, w);
                    let s1 = tape.matmul(wh, a1);
                    let s2 = tape.matmul(wh, a2);
                    attend_per_node(&mut tape, wh, s1, s2, &graph)
                };
                let loss = weighted_sum(&mut tape, out, &r);
                tape.backward(loss);
                let mut got = vec![bits(tape.value(out))];
                for (_, v) in tape.watched() {
                    got.push(bits(&tape.grad(*v)));
                }
                got
            };
            let (fused, oracle) = (run(true), run(false));
            assert_eq!(fused.len(), 4);
            for (what, (f, o)) in ["out", "w", "a1", "a2"]
                .iter()
                .zip(fused.iter().zip(&oracle))
            {
                assert_eq!(f, o, "seed {seed}: {what} bits differ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty neighborhood")]
    fn empty_neighborhood_panics() {
        let (store, gat) = setup();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::zeros(1, 3));
        let _ = gat.forward(&mut tape, &store, h, &[vec![]]);
    }
}
