//! Discrete Fréchet distance (Eiter & Mannila, 1994).
//!
//! The "dog-leash" distance over discrete point sequences: the minimal, over
//! all monotone couplings, of the maximal coupled point distance. It **is a
//! metric** on sequences-as-curves (up to reparametrization), making it the
//! second in-repo control measure, and is one of the three spatio-temporal
//! target measures of the paper's Table IV (there called "discret Fréchet").
//!
//! The recurrence runs on *squared* point distances and takes one `sqrt`
//! of the final cell: `min` and `max` commute with the monotone `sqrt`,
//! so every cell is the square of the per-cell-`sqrt` table's value and
//! the result is bit-identical (see the [`crate::matrix::wavefront`]
//! contract, whose lockstep kernel evaluates the same recurrence).

use crate::dp::{self, Cell, Pt};
use traj_core::Trajectory;

/// Discrete Fréchet's recurrence in the squared domain: boundary `+∞`
/// (origin 0, so cell (1,1) is `d²`), cell `max(min(diag, up, left), d²)`,
/// finish `sqrt`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frechet;

impl Cell for Frechet {
    #[inline(always)]
    fn edge(&self, _k: usize, _prev: f64, _p: Pt) -> f64 {
        f64::INFINITY
    }

    #[inline(always)]
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64 {
        diag.min(up).min(left).max(a.dist_sq(b))
    }

    #[inline(always)]
    fn finish(&self, last: f64, _n: usize, _m: usize) -> f64 {
        last.sqrt()
    }
}

/// Discrete Fréchet distance. `O(n·m)` time, rolling rows, squared domain.
pub fn discrete_frechet(a: &Trajectory, b: &Trajectory) -> f64 {
    dp::distance(Frechet, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_zero() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(discrete_frechet(&a, &a), 0.0);
    }

    #[test]
    fn parallel_lines() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        assert!((discrete_frechet(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = t(&[(0.0, 0.0), (3.0, 4.0)]);
        let b = t(&[(1.0, 1.0), (2.0, 2.0), (5.0, 1.0)]);
        assert_eq!(discrete_frechet(&a, &b), discrete_frechet(&b, &a));
    }

    #[test]
    fn dominated_by_worst_pair() {
        // The leash must reach the far point no matter the coupling.
        let a = t(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (10.0, 7.0)]);
        assert!((discrete_frechet(&a, &b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_coupling_beats_hausdorff_example() {
        // Classic: two zig-zags where Hausdorff is small but Fréchet is
        // large because the coupling must stay monotone.
        let a = t(&[(0.0, 0.0), (10.0, 0.0), (0.1, 0.1), (10.0, 0.1)]);
        let b = t(&[(0.0, 0.1), (10.0, 0.0)]);
        let f = discrete_frechet(&a, &b);
        let h = crate::hausdorff::hausdorff(&a, &b);
        assert!(f > h, "frechet {f} should exceed hausdorff {h}");
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        let trajs = [
            t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
            t(&[(0.5, 0.5), (1.5, 1.0)]),
            t(&[(3.0, 0.0), (3.0, 2.0), (4.0, 2.0)]),
            t(&[(-1.0, -1.0), (0.0, -2.0), (1.0, -1.0)]),
        ];
        for i in 0..trajs.len() {
            for j in 0..trajs.len() {
                for k in 0..trajs.len() {
                    let ij = discrete_frechet(&trajs[i], &trajs[j]);
                    let jk = discrete_frechet(&trajs[j], &trajs[k]);
                    let ik = discrete_frechet(&trajs[i], &trajs[k]);
                    assert!(ik <= ij + jk + 1e-12);
                }
            }
        }
    }

    #[test]
    fn single_points() {
        let a = t(&[(0.0, 0.0)]);
        let b = t(&[(3.0, 4.0)]);
        assert!((discrete_frechet(&a, &b) - 5.0).abs() < 1e-12);
    }
}
