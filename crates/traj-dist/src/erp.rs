//! Edit distance with Real Penalty (Chen & Ng, VLDB'04).
//!
//! ERP repairs EDR's metric violation by charging gaps against a fixed
//! reference point `g`: `erp` **is a metric** when both sequences are
//! compared against the same `g`. Included both for completeness of the
//! measure library and as a third metric control.

use crate::dp::{self, Cell, Pt};
use traj_core::{Point, Trajectory};

/// ERP's recurrence against gap point `g`: boundary `prev + d(p, g)`
/// (sequential prefix sums), cell
/// `min(diag + d(a_i, b_j), up + d(a_i, g), left + d(b_j, g))`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Erp {
    pub g: Point,
}

impl Cell for Erp {
    const ABANDONS: bool = true;

    #[inline(always)]
    fn gap(&self, p: &Point) -> f64 {
        p.dist(&self.g)
    }

    #[inline(always)]
    fn edge(&self, _k: usize, prev: f64, p: Pt) -> f64 {
        prev + p.gap
    }

    #[inline(always)]
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64 {
        let match_cost = diag + a.dist(b);
        let del_a = up + a.gap;
        let del_b = left + b.gap;
        match_cost.min(del_a).min(del_b)
    }
}

/// ERP distance with gap-reference point `g`.
pub fn erp(a: &Trajectory, b: &Trajectory, g: &Point) -> f64 {
    dp::distance(Erp { g: *g }, a, b)
}

/// ERP with the origin as the gap reference (common convention once data is
/// normalized around the origin).
pub fn erp_origin(a: &Trajectory, b: &Trajectory) -> f64 {
    erp(a, b, &Point::new(0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_zero() {
        let a = t(&[(1.0, 1.0), (2.0, 2.0)]);
        assert_eq!(erp_origin(&a, &a), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = t(&[(1.0, 1.0), (2.0, 2.0), (3.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (2.5, 2.0)]);
        assert!((erp_origin(&a, &b) - erp_origin(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn equal_length_no_gaps_is_l1_of_pairs() {
        // When matching point-by-point is optimal, ERP = Σ d(a_i, b_i).
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.0, 0.1), (1.0, 0.1)]);
        assert!((erp_origin(&a, &b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn gap_penalty_against_reference() {
        // b has one extra point near origin → cheap gap; far from origin →
        // expensive gap.
        let a = t(&[(5.0, 0.0)]);
        let b_near = t(&[(5.0, 0.0), (0.1, 0.0)]);
        let b_far = t(&[(5.0, 0.0), (9.0, 0.0)]);
        assert!(erp_origin(&a, &b_near) < erp_origin(&a, &b_far));
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let trajs = [
            t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
            t(&[(0.5, 0.5), (1.5, 1.0)]),
            t(&[(3.0, 0.0), (3.0, 2.0)]),
            t(&[(-1.0, -1.0), (0.0, -2.0), (1.0, -1.0), (2.0, 0.0)]),
        ];
        for i in 0..trajs.len() {
            for j in 0..trajs.len() {
                for k in 0..trajs.len() {
                    let ij = erp_origin(&trajs[i], &trajs[j]);
                    let jk = erp_origin(&trajs[j], &trajs[k]);
                    let ik = erp_origin(&trajs[i], &trajs[k]);
                    assert!(ik <= ij + jk + 1e-9);
                }
            }
        }
    }
}
