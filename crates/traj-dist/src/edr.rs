//! Edit Distance on Real sequences (Chen, Özsu & Oria, SIGMOD'05).
//!
//! Two points "match" when both coordinate deltas are within a tolerance
//! `eps`; EDR counts the minimum number of insert/delete/substitute edits.
//! EDR is integer-valued, symmetric, non-negative — and violates the
//! triangle inequality (it is famously only "almost" a metric; the paper's
//! Table I finds 9%–54% violating triplets).

use crate::dp::{self, Cell, Pt};
use traj_core::Trajectory;

/// EDR's recurrence with tolerance `eps`: boundary `k` (delete
/// everything), cell `min(diag + miss, up + 1, left + 1)`, where two
/// points match when both coordinate deltas are within `eps` (the
/// original paper's L∞ ball). Edit counts are small integers, exact in
/// f64.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edr {
    pub eps: f64,
}

impl Cell for Edr {
    const ABANDONS: bool = true;

    #[inline(always)]
    fn edge(&self, k: usize, _prev: f64, _p: Pt) -> f64 {
        k as f64
    }

    #[inline(always)]
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64 {
        let miss = if a.within(b, self.eps) { 0.0 } else { 1.0 };
        (diag + miss).min(up + 1.0).min(left + 1.0)
    }
}

/// EDR distance with tolerance `eps`, returned as `f64` (edit count).
pub fn edr(a: &Trajectory, b: &Trajectory, eps: f64) -> f64 {
    dp::distance(Edr { eps }, a, b)
}

/// A scale-aware default tolerance: a fraction of the combined bounding-box
/// diagonal (EDR literature uses e.g. a fixed number of meters; here data is
/// normalized so a relative value is appropriate).
pub fn default_eps(a: &Trajectory, b: &Trajectory) -> f64 {
    let bb = a.bbox().union(&b.bbox());
    let diag = (bb.width().powi(2) + bb.height().powi(2)).sqrt();
    (diag * 0.05).max(f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_is_zero() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(edr(&a, &a, 0.1), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let b = t(&[(0.0, 0.2), (2.5, 2.0)]);
        assert_eq!(edr(&a, &b, 0.3), edr(&b, &a, 0.3));
    }

    #[test]
    fn disjoint_costs_max_len() {
        // No pair matches → classic edit distance over disjoint alphabets =
        // max(n, m).
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = t(&[(100.0, 100.0), (101.0, 100.0)]);
        assert_eq!(edr(&a, &b, 0.5), 3.0);
    }

    #[test]
    fn one_substitution() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (50.0, 50.0), (2.0, 0.0)]);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
    }

    #[test]
    fn one_insertion() {
        let a = t(&[(0.0, 0.0), (2.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(edr(&a, &b, 0.1), 1.0);
    }

    #[test]
    fn eps_widens_matches() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.3, 0.0), (1.3, 0.0)]);
        assert_eq!(edr(&a, &b, 0.1), 2.0);
        assert_eq!(edr(&a, &b, 0.5), 0.0);
    }

    #[test]
    fn edr_triangle_violation_exists() {
        // With eps=0.5: a↔b match everywhere (cost 0), b↔c match everywhere
        // (cost 0), but a↔c don't (cost 2): 2 > 0 + 0. This "tolerance
        // chaining" is exactly why EDR is not a metric.
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.4, 0.0), (1.4, 0.0)]);
        let c = t(&[(0.8, 0.0), (1.8, 0.0)]);
        let eps = 0.5;
        let ab = edr(&a, &b, eps);
        let bc = edr(&b, &c, eps);
        let ac = edr(&a, &c, eps);
        assert_eq!(ab, 0.0);
        assert_eq!(bc, 0.0);
        assert_eq!(ac, 2.0);
        assert!(ac > ab + bc);
    }

    #[test]
    fn default_eps_positive_and_scales() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (1.0, 1.0)]);
        let e1 = default_eps(&a, &b);
        assert!(e1 > 0.0);
        let a10 = t(&[(0.0, 0.0), (10.0, 0.0)]);
        let b10 = t(&[(0.0, 10.0), (10.0, 10.0)]);
        assert!(default_eps(&a10, &b10) > e1 * 5.0);
    }
}
