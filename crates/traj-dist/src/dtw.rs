//! Dynamic Time Warping (Formula 1 of the paper).
//!
//! `DTW[i,j] = d(p_i, q_j) + min(DTW[i−1,j], DTW[i,j−1], DTW[i−1,j−1])`.
//! DTW is symmetric and non-negative with `dtw(T,T) = 0`, but it is **not**
//! a metric: the paper's Example 1 (reproduced in the tests below) violates
//! the triangle inequality.

use crate::dp::{self, Cell, Pt};
use traj_core::Trajectory;

/// DTW's recurrence: boundary `+∞` (origin 0), cell
/// `d(a_i, b_j) + min(diag, up, left)`, the shorter trajectory inner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dtw;

impl Cell for Dtw {
    const SWAP: bool = true;
    const ABANDONS: bool = true;

    #[inline(always)]
    fn edge(&self, _k: usize, _prev: f64, _p: Pt) -> f64 {
        f64::INFINITY
    }

    #[inline(always)]
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64 {
        a.dist(b) + diag.min(up).min(left)
    }
}

/// Dynamic-time-warping distance between two trajectories with Euclidean
/// point costs. `O(n·m)` time, `O(min(n,m))` memory.
pub fn dtw(a: &Trajectory, b: &Trajectory) -> f64 {
    dp::distance(Dtw, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    /// Paper Example 1: DTW(Ta,Tb)=4, DTW(Tb,Tc)=9, DTW(Ta,Tc)=15 — a
    /// triangle-inequality violation (15 > 4+9).
    #[test]
    fn paper_example_1() {
        let ta = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 3.0)]);
        let tb = t(&[(2.0, 0.0), (0.0, 1.0), (2.0, 3.0)]);
        let tc = t(&[(3.0, 0.0), (3.0, 1.0), (4.0, 3.0), (5.0, 3.0)]);
        let ab = dtw(&ta, &tb);
        let bc = dtw(&tb, &tc);
        let ac = dtw(&ta, &tc);
        assert!((ab - 4.0).abs() < 1e-9, "ab={ab}");
        assert!((bc - 9.0).abs() < 1e-9, "bc={bc}");
        assert!((ac - 15.0).abs() < 1e-9, "ac={ac}");
        assert!(
            ac > ab + bc,
            "Example 1 must violate the triangle inequality"
        );
    }

    #[test]
    fn self_distance_zero() {
        let ta = t(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        assert_eq!(dtw(&ta, &ta), 0.0);
    }

    #[test]
    fn symmetric() {
        let ta = t(&[(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)]);
        let tb = t(&[(0.5, 0.5), (2.0, 2.0)]);
        assert!((dtw(&ta, &tb) - dtw(&tb, &ta)).abs() < 1e-12);
    }

    #[test]
    fn single_point_vs_sequence() {
        let one = t(&[(0.0, 0.0)]);
        let many = t(&[(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        // All of `many` aligns against the single point: 1 + 2 + 3.
        assert!((dtw(&one, &many) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn translation_shifts_cost() {
        let ta = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let tb = t(&[(0.0, 3.0), (1.0, 3.0)]);
        // Each of the two aligned pairs contributes 3.
        assert!((dtw(&ta, &tb) - 6.0).abs() < 1e-12);
    }
}
