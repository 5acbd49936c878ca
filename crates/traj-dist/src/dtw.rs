//! Dynamic Time Warping (Formula 1 of the paper).
//!
//! `DTW[i,j] = d(p_i, q_j) + min(DTW[i−1,j], DTW[i,j−1], DTW[i−1,j−1])`.
//! DTW is symmetric and non-negative with `dtw(T,T) = 0`, but it is **not**
//! a metric: the paper's Example 1 (reproduced in the tests below) violates
//! the triangle inequality.

use crate::measure::PrunedDistance;
use traj_core::Trajectory;

/// Dynamic-time-warping distance between two trajectories with Euclidean
/// point costs. `O(n·m)` time, `O(min(n,m))` memory.
///
/// This is the scalar reference; the wavefront tier
/// ([`crate::matrix::wavefront`]) evaluates batches of pairs in SIMD
/// lockstep with bit-identical results (the batched cells replicate this
/// loop's expressions operand for operand, including the long/short
/// operand swap below).
pub fn dtw(a: &Trajectory, b: &Trajectory) -> f64 {
    // Keep the shorter trajectory on the inner (column) axis.
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let lp = long.points();
    let sp = short.points();
    let m = sp.len();

    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;

    for pi in lp {
        cur[0] = f64::INFINITY;
        for (j, qj) in sp.iter().enumerate() {
            let cost = pi.dist(qj);
            let best = prev[j].min(prev[j + 1]).min(cur[j]);
            cur[j + 1] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// How often the early-abandon kernels test the row-minimum bound. Every
/// row would be admissible too, but the O(m) scan then costs a constant
/// fraction of the DP itself; every 4th row keeps the overhead near
/// noise while abandoning at most 3 rows late.
pub const ABANDON_CHECK_INTERVAL: usize = 4;

/// DTW with early abandoning at `threshold`.
///
/// Identical loop structure (and therefore bit-identical results when the
/// DP completes) to [`dtw`], plus a periodic check: every warping path
/// crosses every row of the longer trajectory, and point costs are
/// non-negative, so the minimum cell of a DP row is an admissible lower
/// bound on the final distance. Once that minimum exceeds `threshold` the
/// row scan stops and the bound is returned. The final row is never
/// abandoned — at that point the exact value is already paid for.
pub fn dtw_early_abandon(a: &Trajectory, b: &Trajectory, threshold: f64) -> PrunedDistance {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let lp = long.points();
    let sp = short.points();
    let m = sp.len();

    let mut prev = vec![f64::INFINITY; m + 1];
    let mut cur = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;

    let last = lp.len() - 1;
    for (i, pi) in lp.iter().enumerate() {
        cur[0] = f64::INFINITY;
        for (j, qj) in sp.iter().enumerate() {
            let cost = pi.dist(qj);
            let best = prev[j].min(prev[j + 1]).min(cur[j]);
            cur[j + 1] = cost + best;
        }
        std::mem::swap(&mut prev, &mut cur);
        if i < last && i % ABANDON_CHECK_INTERVAL == ABANDON_CHECK_INTERVAL - 1 {
            let row_min = prev[1..].iter().copied().fold(f64::INFINITY, f64::min);
            if row_min > threshold {
                return PrunedDistance::LowerBound(row_min);
            }
        }
    }
    PrunedDistance::Exact(prev[m])
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
