//! Distances between embedding rows — tape (training) and `f32`-slice
//! (inference/retrieval) paths.
//!
//! All tape functions operate on row-paired batches: `a, b ∈ B×d` →
//! `B×1` distances. The slice functions are the retrieval hot path: plain
//! loops over `&[f32]`, no allocation.

use lh_nn::{Tape, Var};

const DIST_EPS: f32 = 1e-9;

// ---- tape (training) paths ---------------------------------------------

/// Euclidean distance per row pair: `√(Σ(a−b)² + ε)`.
pub fn euclidean_distance_rows(tape: &mut Tape, a: Var, b: Var) -> Var {
    let d = tape.sub(a, b);
    let sq = tape.square(d);
    let ss = tape.row_sum(sq);
    let sse = tape.add_const(ss, DIST_EPS);
    tape.sqrt(sse)
}

/// Lorentz distance per row pair of *hyperbolic* embeddings
/// (`B×(d+1)`): `|⟨a,b⟩| − β` (paper Definition 3).
pub fn lorentz_distance_rows(tape: &mut Tape, a_h: Var, b_h: Var, beta: f32) -> Var {
    let inner = tape.lorentz_inner(a_h, b_h);
    let ab = tape.abs(inner);
    tape.add_const(ab, -beta)
}

/// Fused distance (Section V-B): `α⊙d_Lo + (1−α)⊙d_Eu`, all `B×1`.
pub fn fused_distance_rows(tape: &mut Tape, alpha: Var, d_lo: Var, d_eu: Var) -> Var {
    let lo_part = tape.mul(d_lo, alpha);
    let neg_alpha = tape.scale(alpha, -1.0);
    let inv = tape.add_const(neg_alpha, 1.0);
    let eu_part = tape.mul(d_eu, inv);
    tape.add(lo_part, eu_part)
}

// ---- inference (slice) paths ---------------------------------------------

/// Euclidean distance between two embedding slices.
#[inline]
pub fn euclidean_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s.sqrt()
}

/// Lorentz distance between two hyperbolic embedding slices.
#[inline]
pub fn lorentz_f32(a_h: &[f32], b_h: &[f32], beta: f32) -> f32 {
    debug_assert_eq!(a_h.len(), b_h.len());
    debug_assert!(a_h.len() >= 2);
    let mut inner = -a_h[0] * b_h[0];
    for i in 1..a_h.len() {
        inner += a_h[i] * b_h[i];
    }
    inner.abs() - beta
}

/// Fusion ratio from factor embeddings:
/// `α = (V_Lo_a·V_Lo_b) / (V_Lo_a·V_Lo_b + V_Eu_a·V_Eu_b)`.
/// Factors are softplus-positive by construction so `α ∈ (0,1)`.
#[inline]
pub fn alpha_f32(v_lo_a: &[f32], v_lo_b: &[f32], v_eu_a: &[f32], v_eu_b: &[f32]) -> f32 {
    let lo: f32 = v_lo_a.iter().zip(v_lo_b).map(|(x, y)| x * y).sum();
    let eu: f32 = v_eu_a.iter().zip(v_eu_b).map(|(x, y)| x * y).sum();
    alpha_from_dots(lo, eu)
}

/// [`alpha_f32`] from its two factor dot products.
#[inline]
pub(crate) fn alpha_from_dots(lo: f32, eu: f32) -> f32 {
    lo / (lo + eu).max(f32::MIN_POSITIVE)
}

/// Fused distance from slices.
#[inline]
pub fn fused_f32(alpha: f32, d_lo: f32, d_eu: f32) -> f32 {
    alpha * d_lo + (1.0 - alpha) * d_eu
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_nn::Tensor;

    #[test]
    fn euclidean_rows_value() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]));
        let b = tape.constant(Tensor::from_vec(2, 2, vec![3.0, 4.0, 1.0, 1.0]));
        let d = euclidean_distance_rows(&mut tape, a, b);
        assert!((tape.value(d).get(0, 0) - 5.0).abs() < 1e-4);
        assert!(tape.value(d).get(1, 0) < 1e-3);
    }

    #[test]
    fn lorentz_rows_match_slice_path() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 3, vec![1.5, 0.5, 1.0]));
        let b = tape.constant(Tensor::from_vec(1, 3, vec![2.0, -0.5, 1.5]));
        let d = lorentz_distance_rows(&mut tape, a, b, 1.0);
        let slice = lorentz_f32(&[1.5, 0.5, 1.0], &[2.0, -0.5, 1.5], 1.0);
        assert!((tape.value(d).item() - slice).abs() < 1e-6);
    }

    #[test]
    fn fused_rows_interpolate() {
        let mut tape = Tape::new();
        let alpha = tape.constant(Tensor::from_vec(3, 1, vec![0.0, 0.5, 1.0]));
        let d_lo = tape.constant(Tensor::from_vec(3, 1, vec![2.0, 2.0, 2.0]));
        let d_eu = tape.constant(Tensor::from_vec(3, 1, vec![4.0, 4.0, 4.0]));
        let f = fused_distance_rows(&mut tape, alpha, d_lo, d_eu);
        let v = tape.value(f);
        assert!((v.get(0, 0) - 4.0).abs() < 1e-6);
        assert!((v.get(1, 0) - 3.0).abs() < 1e-6);
        assert!((v.get(2, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn alpha_bounds_and_balance() {
        // Equal inner products → α = 0.5.
        let a = alpha_f32(&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0]);
        assert!((a - 0.5).abs() < 1e-6);
        // Dominant Lorentz factors → α near 1.
        let hi = alpha_f32(&[10.0], &[10.0], &[0.1], &[0.1]);
        assert!(hi > 0.99);
        let lo = alpha_f32(&[0.1], &[0.1], &[10.0], &[10.0]);
        assert!(lo < 0.01);
    }

    #[test]
    fn fused_f32_matches_formula() {
        assert_eq!(fused_f32(0.25, 8.0, 4.0), 5.0);
    }

    #[test]
    fn distances_differentiable() {
        let mut tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(2, 3, vec![1.2, 0.1, 0.5, 1.5, -0.2, 0.3]));
        let b = tape.constant(Tensor::from_vec(2, 3, vec![1.1, 0.4, 0.2, 1.3, 0.5, -0.1]));
        let de = euclidean_distance_rows(&mut tape, a, b);
        let dl = lorentz_distance_rows(&mut tape, a, b, 1.0);
        let s1 = tape.sum_all(de);
        let s2 = tape.sum_all(dl);
        let total = tape.add(s1, s2);
        tape.backward(total);
        assert!(tape.grad(a).all_finite());
        assert!(tape.grad(a).frobenius_norm() > 0.0);
    }

    #[test]
    fn lorentz_self_distance_zero_on_hyperboloid() {
        // A point actually on H(1): (√2, 1, 0).
        let p = [2.0f32.sqrt(), 1.0, 0.0];
        assert!(lorentz_f32(&p, &p, 1.0).abs() < 1e-6);
    }
}
