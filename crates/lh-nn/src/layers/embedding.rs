//! Embedding table with sparse-gradient lookup (grid cells, quadtree
//! nodes, st-cells).

use crate::init;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use rand::rngs::StdRng;

/// A `V×d` embedding table.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Parameter name `name.table`, built once.
    table: String,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Registers the table in the store.
    pub fn new(
        name: impl Into<String>,
        vocab: usize,
        dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let table = format!("{}.table", name.into());
        store.get_or_insert_with(&table, || init::embedding_uniform(vocab, dim, rng));
        Embedding { table, vocab, dim }
    }

    /// Vocabulary size `V`.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `ids` → `len(ids)×d`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, ids: &[usize]) -> Var {
        let table = tape.watch(store, &self.table);
        tape.select_rows(table, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn lookup_shapes_and_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let emb = Embedding::new("e", 10, 4, &mut store, &mut rng);
        assert_eq!(emb.vocab(), 10);
        assert_eq!(emb.dim(), 4);
        let mut tape = Tape::new();
        let out = emb.forward(&mut tape, &store, &[3, 3, 7]);
        let v = tape.value(out);
        assert_eq!(v.shape(), (3, 4));
        assert_eq!(v.row(0), v.row(1));
        assert_ne!(v.row(0), v.row(2));
    }

    #[test]
    fn training_moves_only_touched_rows() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let emb = Embedding::new("e", 5, 2, &mut store, &mut rng);
        let untouched = store.get("e.table").row(4).to_vec();
        let mut opt = Adam::new(0.05);
        for _ in 0..150 {
            let mut tape = Tape::new();
            let out = emb.forward(&mut tape, &store, &[0, 1]);
            let target = tape.constant(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
            let d = tape.sub(out, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
        }
        assert_eq!(store.get("e.table").row(4), &untouched[..]);
        let r0 = store.get("e.table").row(0);
        assert!((r0[0] - 1.0).abs() < 0.2, "row0 ≈ target: {r0:?}");
    }
}
