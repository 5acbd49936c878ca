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
    name: String,
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
        store.get_or_insert_with(&format!("{name}.w"), || {
            init::xavier_uniform(in_dim, out_dim, rng)
        });
        store.get_or_insert_with(&format!("{name}.a1"), || {
            init::xavier_uniform(out_dim, 1, rng)
        });
        store.get_or_insert_with(&format!("{name}.a2"), || {
            init::xavier_uniform(out_dim, 1, rng)
        });
        GatLayer {
            name,
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
    /// `N×out` (ELU-free; callers add nonlinearity).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        h: Var,
        neighbors: &[Vec<usize>],
    ) -> Var {
        let n = tape.value(h).rows();
        assert_eq!(n, neighbors.len(), "neighbor list size mismatch");
        let w = tape.watch(store, &format!("{}.w", self.name));
        let a1 = tape.watch(store, &format!("{}.a1", self.name));
        let a2 = tape.watch(store, &format!("{}.a2", self.name));
        let wh = tape.matmul(h, w); // N×out
        let s1 = tape.matmul(wh, a1); // N×1 — a₁·Wh_i
        let s2 = tape.matmul(wh, a2); // N×1 — a₂·Wh_j

        let mut out_rows = Vec::with_capacity(n);
        for (i, nbrs) in neighbors.iter().enumerate() {
            assert!(!nbrs.is_empty(), "node {i} has an empty neighborhood");
            // Logits e_ij for j ∈ N(i): s1[i] + s2[j].
            let s1_i = tape.select_rows(s1, &[i]); // 1×1
            let s2_j = tape.select_rows(s2, nbrs); // k×1
            let s2_row = tape.transpose(s2_j); // 1×k
            let logits_pre = tape.add(s2_row, s1_i); // broadcast 1×1
            let logits = tape.leaky_relu(logits_pre, 0.2);
            let alpha = tape.softmax_rows(logits); // 1×k
            let nbr_feats = tape.select_rows(wh, nbrs); // k×out
            let mixed = tape.matmul(alpha, nbr_feats); // 1×out
            out_rows.push(mixed);
        }
        tape.stack_rows(&out_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

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

    #[test]
    #[should_panic(expected = "empty neighborhood")]
    fn empty_neighborhood_panics() {
        let (store, gat) = setup();
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::zeros(1, 3));
        let _ = gat.forward(&mut tape, &store, h, &[vec![]]);
    }
}
