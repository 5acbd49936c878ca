//! The training loss over tape variables.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Weighted MSE: `mean(w ⊙ (pred − target)²)`; `weights` must broadcast
/// against `pred`. Used for the Neutraj-style rank-weighted regression
/// (nearer neighbors get larger weights).
pub fn weighted_mse(tape: &mut Tape, pred: Var, target: Var, weights: &Tensor) -> Var {
    let w = tape.input(weights.clone());
    let d = tape.sub(pred, target);
    let sq = tape.square(d);
    let wsq = tape.mul(sq, w);
    tape.mean_all(wsq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_mse_weights_matter() {
        let mut tape = Tape::new();
        let p = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let t = tape.constant(Tensor::from_vec(2, 1, vec![0.0, 0.0]));
        let w = Tensor::from_vec(2, 1, vec![1.0, 3.0]);
        let l = weighted_mse(&mut tape, p, t, &w);
        assert!((tape.value(l).item() - 2.0).abs() < 1e-6); // (1 + 3)/2
    }

    #[test]
    fn losses_are_differentiable() {
        let mut tape = Tape::new();
        let p = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 3.0]));
        let t = tape.constant(Tensor::from_vec(2, 1, vec![0.0, 1.0]));
        let w = Tensor::from_vec(2, 1, vec![1.0, 1.0]);
        let l = weighted_mse(&mut tape, p, t, &w);
        tape.backward(l);
        let g = tape.grad(p);
        // d/dp mean((p−t)²) = 2(p−t)/n = (1, 2).
        assert!((g.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((g.get(1, 0) - 2.0).abs() < 1e-6);
    }
}
