//! Longest Common SubSequence similarity, distance-ified.
//!
//! `LCSS(a,b)` counts the longest chain of tolerance-matched points;
//! `lcss_distance = 1 − LCSS/min(n,m)` is the standard normalization into
//! `[0,1]`. Like EDR it is tolerance-based and **not** a metric.

use crate::dp::{self, Cell, Pt};
use traj_core::Trajectory;

/// LCSS's recurrence with tolerance `eps`: boundary 0, cell `diag + 1`
/// on a match (the L∞ ball of EDR) and `max(up, left)` otherwise, finish
/// `1 − lcs / min(n, m)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lcss {
    pub eps: f64,
}

impl Cell for Lcss {
    #[inline(always)]
    fn edge(&self, _k: usize, _prev: f64, _p: Pt) -> f64 {
        0.0
    }

    #[inline(always)]
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64 {
        if a.within(b, self.eps) {
            diag + 1.0
        } else {
            up.max(left)
        }
    }

    #[inline(always)]
    fn finish(&self, last: f64, n: usize, m: usize) -> f64 {
        1.0 - last / (n.min(m) as f64)
    }
}

/// Raw LCSS length (number of matched pairs in the best common chain).
pub fn lcss_len(a: &Trajectory, b: &Trajectory, eps: f64) -> usize {
    dp::last_cell(Lcss { eps }, a, b) as usize
}

/// LCSS distance: `1 − LCSS / min(n, m)` ∈ [0, 1].
pub fn lcss_distance(a: &Trajectory, b: &Trajectory, eps: f64) -> f64 {
    dp::distance(Lcss { eps }, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_zero_distance() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(lcss_distance(&a, &a, 0.1), 0.0);
    }

    #[test]
    fn disjoint_full_distance() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(50.0, 50.0), (51.0, 50.0)]);
        assert_eq!(lcss_distance(&a, &b, 0.5), 1.0);
        assert_eq!(lcss_len(&a, &b, 0.5), 0);
    }

    #[test]
    fn partial_overlap() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let b = t(&[(1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(lcss_len(&a, &b, 0.1), 2);
        assert_eq!(lcss_distance(&a, &b, 0.1), 0.0); // normalized by min len
    }

    #[test]
    fn symmetric() {
        let a = t(&[(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]);
        let b = t(&[(0.1, 0.0), (2.2, 1.0)]);
        assert_eq!(lcss_distance(&a, &b, 0.3), lcss_distance(&b, &a, 0.3));
    }

    #[test]
    fn subsequence_respects_order() {
        // Reversed trajectory shares points but not order: LCSS of a strict
        // ramp against its reverse is 1 (any single point).
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let b = t(&[(2.0, 2.0), (1.0, 1.0), (0.0, 0.0)]);
        assert_eq!(lcss_len(&a, &b, 0.01), 1);
    }
}
