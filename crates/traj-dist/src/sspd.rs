//! Symmetric Segment-Path Distance (Besse et al., 2015).
//!
//! `SPD(T_a → T_b)` is the mean, over points of `T_a`, of the distance from
//! the point to the *polyline* of `T_b` (minimum over segments). SSPD is the
//! symmetrized mean of the two directed values. SSPD is non-negative and
//! symmetric but does not satisfy the triangle inequality in general
//! (Table I of the paper measures 5.7%–37% violating triplets).
//!
//! ## Squared-domain, lane-blocked kernel
//!
//! Each point's minimum runs over *squared* point–projection distances
//! and takes one `sqrt` at the end, which is bit-identical to a `sqrt`
//! per segment because `sqrt` is monotone (the argument is stated in the
//! [`crate::matrix::wavefront`] contract). `LANES` points of `a` run
//! against one segment of `b` at a time, with `b`'s segments tabulated
//! once per directed half, so the inner loop is a branch-free expression
//! over independent lanes that compiles to packed instructions under the
//! AVX2 path selected at run time. Every lane evaluates
//! [`traj_core::point::point_segment_distance`]'s expression operand for
//! operand: a degenerate segment (`len_sq <= ε`) is tabulated as
//! `(a, 0, 0, 1)`, for which `u = ±0` and the projection is `a` up to the
//! sign of a zero that squaring erases, so no lane needs a branch. Lane
//! results are summed in point order, exactly as a per-point loop would.

use crate::simd;
use traj_core::{Point, Trajectory};

/// Points of `a` evaluated together against each segment: two AVX2
/// vectors, enough independent divisions in flight to hide `vdivpd`
/// latency.
const LANES: usize = 8;

/// One segment of `b`: start point, direction and squared length, with
/// degenerate segments rewritten so the projection lands on the start.
#[derive(Clone, Copy)]
struct Segment {
    ax: f64,
    ay: f64,
    abx: f64,
    aby: f64,
    len_sq: f64,
}

/// `b`'s segments in polyline order; a one-point `b` is one degenerate
/// segment, whose projection is that point.
fn segments(b: &[Point]) -> Vec<Segment> {
    let seg = |a: &Point, b: &Point| {
        let abx = b.x - a.x;
        let aby = b.y - a.y;
        let len_sq = abx * abx + aby * aby;
        let (abx, aby, len_sq) = if len_sq <= f64::EPSILON {
            (0.0, 0.0, 1.0)
        } else {
            (abx, aby, len_sq)
        };
        Segment {
            ax: a.x,
            ay: a.y,
            abx,
            aby,
            len_sq,
        }
    };
    match b {
        [only] => vec![seg(only, only)],
        _ => b.windows(2).map(|w| seg(&w[0], &w[1])).collect(),
    }
}

/// Sum over points of `a` of the distance to the polyline `segs`, in
/// point order. `#[inline(always)]` so [`simd::widest`] compiles the
/// whole loop nest under the widened ISA.
#[inline(always)]
fn spd_sum(a: &[Point], segs: &[Segment]) -> f64 {
    let mut acc = 0.0;
    for block in a.chunks(LANES) {
        let mut px = [0.0f64; LANES];
        let mut py = [0.0f64; LANES];
        for (l, p) in block.iter().enumerate() {
            px[l] = p.x;
            py[l] = p.y;
        }
        let mut best = [f64::INFINITY; LANES];
        for s in segs {
            for l in 0..LANES {
                let u = ((px[l] - s.ax) * s.abx + (py[l] - s.ay) * s.aby) / s.len_sq;
                let u = u.clamp(0.0, 1.0);
                let dx = px[l] - (s.ax + u * s.abx);
                let dy = py[l] - (s.ay + u * s.aby);
                let d = dx * dx + dy * dy;
                best[l] = if d < best[l] { d } else { best[l] };
            }
        }
        // Padding lanes past the block are never summed.
        for &b in &best[..block.len()] {
            acc += b.sqrt();
        }
    }
    acc
}

/// Directed segment-path distance: mean distance from each point of `a` to
/// the polyline of `b`.
pub fn spd(a: &Trajectory, b: &Trajectory) -> f64 {
    let segs = segments(b.points());
    simd::widest(|| spd_sum(a.points(), &segs)) / a.len() as f64
}

/// Symmetric segment-path distance: `(SPD(a→b) + SPD(b→a)) / 2`.
pub fn sspd(a: &Trajectory, b: &Trajectory) -> f64 {
    0.5 * (spd(a, b) + spd(b, a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_is_zero() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert_eq!(sspd(&a, &a), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (2.0, 1.0)]);
        assert!((sspd(&a, &b) - sspd(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn parallel_lines() {
        // Two horizontal lines 1 apart: every point is at distance 1 from
        // the other polyline.
        let a = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        let b = t(&[(0.0, 1.0), (2.0, 1.0)]);
        assert!((sspd(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sub_trajectory_directed_zero() {
        // `a` lies exactly on `b`'s polyline → SPD(a→b)=0 but SPD(b→a)>0
        // (an asymmetry SSPD symmetrizes away).
        let a = t(&[(0.5, 0.0), (1.5, 0.0)]);
        let b = t(&[(0.0, 0.0), (2.0, 0.0), (2.0, 5.0)]);
        assert_eq!(spd(&a, &b), 0.0);
        assert!(spd(&b, &a) > 0.0);
        assert!(sspd(&a, &b) > 0.0);
    }

    #[test]
    fn single_point_trajectories() {
        let a = t(&[(0.0, 0.0)]);
        let b = t(&[(3.0, 4.0)]);
        assert!((sspd(&a, &b) - 5.0).abs() < 1e-12);
    }

    /// On an AVX2 host `spd` never takes the portable `spd_sum`, so run
    /// both instantiations on blocks that fill, straddle and underfill the
    /// lanes, against degenerate and one-point polylines, and require
    /// equal bits.
    #[test]
    fn portable_and_avx2_lane_paths_agree_bit_for_bit() {
        let wiggle = |len: usize, phase: f64| -> Vec<Point> {
            (0..len)
                .map(|k| {
                    let x = k as f64 * 0.13 + phase;
                    Point::new(x, (x * 1.7 + phase).sin() * 0.4)
                })
                .collect()
        };
        let mut polylines: Vec<Vec<Point>> = [1usize, 2, 5, 13]
            .iter()
            .map(|&len| wiggle(len, 0.7))
            .collect();
        // A repeated point and a 1e-9 segment: both tabulate degenerate.
        polylines.push(vec![
            Point::new(-0.0, 0.5),
            Point::new(-0.0, 0.5),
            Point::new(1e-9, 0.5),
            Point::new(1.0, -0.0),
        ]);
        for b in &polylines {
            let segs = segments(b);
            for len in [1usize, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
                let a = wiggle(len, 0.2);
                let portable = spd_sum(&a, &segs);
                let looped: f64 = a
                    .iter()
                    .map(|p| {
                        let d =
                            |w: &[Point]| traj_core::point::point_segment_distance(p, &w[0], &w[1]);
                        if b.len() == 1 {
                            p.dist(&b[0])
                        } else {
                            b.windows(2).map(d).fold(f64::INFINITY, f64::min)
                        }
                    })
                    .fold(0.0, |acc, d| acc + d);
                assert_eq!(portable.to_bits(), looped.to_bits(), "portable, len {len}");
                if simd::has_avx2() {
                    let wide = simd::widest(|| spd_sum(&a, &segs));
                    assert_eq!(wide.to_bits(), portable.to_bits(), "avx2, len {len}");
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_can_fail() {
        // Constructed violation: b lies on a's polyline and on c's polyline
        // in pieces, making sspd(a,b)+sspd(b,c) small while sspd(a,c) is
        // large.
        let a = t(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (0.0, 0.1), (10.0, 0.1), (10.0, 0.0)]);
        let c = t(&[(0.0, 10.0), (10.0, 10.0)]);
        let ab = sspd(&a, &b);
        let bc = sspd(&b, &c);
        let ac = sspd(&a, &c);
        // Not asserting violation here (depends on geometry); just record
        // that the three values are finite and sane. The statistical
        // violation search lives in lh-metrics tests.
        assert!(ab < 1.0);
        assert!(ac > 9.0);
        assert!(bc > 9.0);
    }
}
