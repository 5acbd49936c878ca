//! The optimizer: Adam with global-norm gradient clipping.

mod adam;

pub use adam::Adam;

use crate::tape::Tape;
use crate::tensor::Tensor;

/// Collects `(name, grad)` pairs for every watched parameter of a tape,
/// rescaled so the global L2 norm is at most `max_norm`.
pub fn collect_clipped_grads(tape: &Tape, max_norm: f32) -> Vec<(String, Tensor)> {
    let mut grads: Vec<(String, Tensor)> = tape
        .watched()
        .iter()
        .map(|(name, var)| (name.clone(), tape.grad(*var)))
        .collect();
    let total: f32 = grads
        .iter()
        .map(|(_, g)| g.data().iter().map(|v| v * v).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for (_, g) in &mut grads {
            for v in g.data_mut() {
                *v *= scale;
            }
        }
    }
    grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    #[test]
    fn clipping_caps_global_norm() {
        let mut store = ParamStore::new();
        store.insert("w", Tensor::from_vec(1, 2, vec![1.0, 1.0]));
        let mut tape = Tape::new();
        let w = tape.watch(&store, "w");
        let s = tape.scale(w, 100.0);
        let loss = tape.sum_all(s);
        tape.backward(loss);
        // Unclipped grad = [100, 100]; norm ≈ 141.4.
        let raw = collect_clipped_grads(&tape, 1000.0);
        assert_eq!(raw[0].1.data(), &[100.0, 100.0]);
        let clipped = collect_clipped_grads(&tape, 1.0);
        let norm: f32 = clipped[0]
            .1
            .data()
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }
}
