//! Hausdorff distance between point sets.
//!
//! `H(A,B) = max( max_a min_b d(a,b), max_b min_a d(a,b) )`. Unlike DTW and
//! EDR, the Hausdorff distance **is a metric** on compact sets — the test
//! suite uses it as the in-repo control that the violation statistics
//! (RV/ARVS) really are ≈ 0 for a metric.
//!
//! ## Squared-domain early exit
//!
//! Both directions run on squared distances into one running maximum
//! `worst`, with one `sqrt` at the end — bit-identical to taking a `sqrt`
//! per pair, since `sqrt` is monotone (see the
//! [`crate::matrix::wavefront`] contract). A point's scan stops as soon
//! as its running minimum is `<= worst`: its own minimum can then no
//! longer raise `worst`, so the result is the full scan's value exactly.
//! The scan runs over `LANES`-point chunks of `b`'s coordinate columns,
//! compiled to packed instructions under the AVX2 path selected at run
//! time. Each scan starts at the chunk where the previous point's scan
//! stopped (wrapping around), since consecutive trajectory points tend
//! to share nearest neighbours, and the second direction starts from the
//! first direction's `worst`.

use crate::simd;
use traj_core::{Point, Trajectory};

/// Points of `b` compared with one point of `a` per step: two AVX2
/// vectors. The early exit is checked once per chunk.
const LANES: usize = 8;

/// `b`'s coordinates as columns, padded to whole [`LANES`] chunks by
/// repeating the last point (a repeat never changes a minimum).
struct Columns {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

fn columns(b: &[Point]) -> Columns {
    let padded = b.len().div_ceil(LANES) * LANES;
    let at = |k: usize| &b[k.min(b.len() - 1)];
    Columns {
        xs: (0..padded).map(|k| at(k).x).collect(),
        ys: (0..padded).map(|k| at(k).y).collect(),
    }
}

/// `max(worst, max_{p∈a} min_{q∈b} |p−q|²)`, exiting each point's scan
/// once it can no longer raise the maximum. Each lane keeps its own
/// running minimum, so a chunk costs one packed `min` and one packed
/// compare against `worst`; the lanes are folded only after a full scan,
/// which means every distance exceeded `worst` and the fold is the
/// point's new, larger minimum. `#[inline(always)]` so [`simd::widest`]
/// compiles the loop nest under the widened ISA.
#[inline(always)]
fn directed_sq(a: &[Point], b: &Columns, mut worst: f64) -> f64 {
    let chunks = b.xs.len() / LANES;
    let mut start = 0;
    'points: for p in a {
        let mut best = [f64::INFINITY; LANES];
        for c in (start..chunks).chain(0..start) {
            let xs = &b.xs[c * LANES..(c + 1) * LANES];
            let ys = &b.ys[c * LANES..(c + 1) * LANES];
            let mut near = false;
            for l in 0..LANES {
                let dx = p.x - xs[l];
                let dy = p.y - ys[l];
                let d = dx * dx + dy * dy;
                best[l] = if d < best[l] { d } else { best[l] };
                near |= d <= worst;
            }
            if near {
                // This point's minimum is <= worst: it cannot raise it.
                start = c;
                continue 'points;
            }
        }
        worst = best.iter().fold(f64::INFINITY, |m, &d| m.min(d));
    }
    worst
}

/// [`directed_sq`] on the widest path the CPU supports.
fn directed(a: &[Point], b: &[Point], worst: f64) -> f64 {
    let b = columns(b);
    simd::widest(|| directed_sq(a, &b, worst))
}

/// Directed Hausdorff distance: `max_{a∈A} min_{b∈B} d(a,b)`.
pub fn directed_hausdorff(a: &Trajectory, b: &Trajectory) -> f64 {
    directed(a.points(), b.points(), 0.0).sqrt()
}

/// Symmetric Hausdorff distance.
pub fn hausdorff(a: &Trajectory, b: &Trajectory) -> f64 {
    let (ap, bp) = (a.points(), b.points());
    directed(bp, ap, directed(ap, bp, 0.0)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn identical_zero() {
        let a = t(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(hausdorff(&a, &a), 0.0);
    }

    #[test]
    fn known_value() {
        let a = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (1.0, 2.0)]);
        // Farthest point of b from a's set: (1,2) at distance 2 from (1,0).
        assert!((hausdorff(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = t(&[(0.0, 0.0), (5.0, 5.0), (1.0, 3.0)]);
        let b = t(&[(2.0, 2.0), (4.0, 0.0)]);
        assert_eq!(hausdorff(&a, &b), hausdorff(&b, &a));
    }

    #[test]
    fn directed_asymmetry() {
        // a ⊂ b (as a set) → directed(a→b)=0 but directed(b→a)>0.
        let a = t(&[(0.0, 0.0)]);
        let b = t(&[(0.0, 0.0), (10.0, 0.0)]);
        assert_eq!(directed_hausdorff(&a, &b), 0.0);
        assert_eq!(directed_hausdorff(&b, &a), 10.0);
    }

    /// On an AVX2 host `hausdorff` never takes the portable
    /// `directed_sq`, so run both instantiations on lengths that fill,
    /// straddle and underfill the lanes and require equal bits, equal to
    /// a full scan with no early exit.
    #[test]
    fn portable_and_avx2_paths_agree_bit_for_bit() {
        let wiggle = |len: usize, phase: f64| -> Vec<Point> {
            (0..len)
                .map(|k| {
                    let x = k as f64 * 0.13 + phase;
                    Point::new(x, (x * 1.7 + phase).sin() * 0.4)
                })
                .collect()
        };
        let scan = |a: &[Point], b: &[Point]| {
            a.iter()
                .map(|p| b.iter().map(|q| p.dist_sq(q)).fold(f64::INFINITY, f64::min))
                .fold(0.0, f64::max)
        };
        let lens = [1usize, LANES - 1, LANES, LANES + 1, 3 * LANES + 5];
        for &n in &lens {
            for &m in &lens {
                let (a, b) = (wiggle(n, 0.0), wiggle(m, 0.45));
                let (ca, cb) = (columns(&a), columns(&b));
                let full = scan(&a, &b).max(scan(&b, &a));
                let portable = directed_sq(&b, &ca, directed_sq(&a, &cb, 0.0));
                assert_eq!(portable.to_bits(), full.to_bits(), "portable {n}x{m}");
                if simd::has_avx2() {
                    let wide = simd::widest(|| directed_sq(&b, &ca, directed_sq(&a, &cb, 0.0)));
                    assert_eq!(wide.to_bits(), portable.to_bits(), "avx2 {n}x{m}");
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_on_samples() {
        // Hausdorff is a metric: spot-check a handful of fixed triples.
        let trajs = [
            t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)]),
            t(&[(0.5, 0.5), (1.5, 1.0)]),
            t(&[(3.0, 0.0), (3.0, 2.0), (4.0, 2.0)]),
            t(&[(-1.0, -1.0), (0.0, -2.0)]),
        ];
        for i in 0..trajs.len() {
            for j in 0..trajs.len() {
                for k in 0..trajs.len() {
                    let ij = hausdorff(&trajs[i], &trajs[j]);
                    let jk = hausdorff(&trajs[j], &trajs[k]);
                    let ik = hausdorff(&trajs[i], &trajs[k]);
                    assert!(ik <= ij + jk + 1e-12);
                }
            }
        }
    }
}
