//! Affine layer `y = xW + b`.

use crate::init;
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use rand::rngs::StdRng;

/// A fully connected layer.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Parameter names `name.w` and `name.b`, built once.
    w: String,
    b: String,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers `name.w (in×out)` and `name.b (1×out)` in the store.
    pub fn new(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        store: &mut ParamStore,
        rng: &mut StdRng,
    ) -> Self {
        let name = name.into();
        let (w, b) = (format!("{name}.w"), format!("{name}.b"));
        store.get_or_insert_with(&w, || init::xavier_uniform(in_dim, out_dim, rng));
        store.get_or_insert_with(&b, || init::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// `x(B×in) → B×out`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.watch(store, &self.w);
        let b = tape.watch(store, &self.b);
        let xw = tape.matmul(x, w);
        tape.add(xw, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let lin = Linear::new("l", 3, 2, &mut store, &mut rng);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 2);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(5, 3));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    #[test]
    fn learns_identity_map() {
        // Fit y = x on 1-D data: w → 1, b → 0.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let lin = Linear::new("l", 1, 1, &mut store, &mut rng);
        let mut opt = Adam::new(0.05);
        for step in 0..400 {
            let mut tape = Tape::new();
            let v = (step % 7) as f32 - 3.0;
            let x = tape.constant(Tensor::scalar(v));
            let y = lin.forward(&mut tape, &store, x);
            let target = tape.constant(Tensor::scalar(v));
            let d = tape.sub(y, target);
            let sq = tape.square(d);
            let loss = tape.sum_all(sq);
            tape.backward(loss);
            opt.step(&mut store, &tape);
        }
        assert!((store.get("l.w").item() - 1.0).abs() < 0.05);
        assert!(store.get("l.b").item().abs() < 0.05);
    }

    #[test]
    fn reconstruction_is_idempotent() {
        // Re-creating the layer with an existing store must not clobber
        // trained weights.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let _ = Linear::new("l", 2, 2, &mut store, &mut rng);
        store.get_mut("l.b").set(0, 0, 9.0);
        let _ = Linear::new("l", 2, 2, &mut store, &mut rng);
        assert_eq!(store.get("l.b").get(0, 0), 9.0);
    }
}
