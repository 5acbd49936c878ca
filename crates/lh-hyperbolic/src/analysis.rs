//! Executable numeric demonstrations of the paper's theorems.
//!
//! The ablation narrative of the paper rests on three mathematical claims;
//! this module packages each as a small measurable experiment so the test
//! suite and the `fig8`/`table6` benches can assert (and print) them
//! instead of taking them on faith:
//!
//! * **Lemma 5** — Lorentz distance admits triangle violations
//!   ([`lorentz_violation_example`]);
//! * **Theorem 6** — vanilla projection degrades radial distances as norms
//!   grow ([`radial_degradation_curve`]);
//! * **Theorems 7–9** — cosh projection keeps a norm-independent lower
//!   bound ([`radial_degradation_curve`] with [`ProjectionKind::Cosh`]).

use crate::lorentz::HyperbolicPoint;
use crate::projection::{cosh_pair_lorentz_distance, Projection, ProjectionKind};

/// One point of a degradation curve: input norm offset vs Lorentz distance
/// between two collinear Euclidean points with a fixed gap.
#[derive(Debug, Clone, Copy)]
pub struct DegradationPoint {
    /// Distance of the pair from the origin.
    pub offset: f64,
    /// Lorentz distance after projection.
    pub lorentz_distance: f64,
}

/// Sweeps collinear pairs `(o·u, (o+gap)·u)` along the unit diagonal and
/// records the post-projection Lorentz distance at each offset `o`.
///
/// Under [`ProjectionKind::Vanilla`] the curve decays to ~0 (Theorem 6);
/// under [`ProjectionKind::Cosh`] it is flat (Theorem 7).
pub fn radial_degradation_curve(
    projection: &Projection,
    dim: usize,
    gap: f64,
    offsets: &[f64],
) -> Vec<DegradationPoint> {
    assert!(dim >= 1, "need at least one spatial dimension");
    let u = 1.0 / (dim as f64).sqrt(); // unit diagonal direction
    offsets
        .iter()
        .map(|&o| {
            let a: Vec<f64> = vec![o * u; dim];
            let b: Vec<f64> = vec![(o + gap) * u; dim];
            // The cosh path uses the cancellation-free pair formula: the
            // sweep intentionally reaches radii where the materialized
            // inner product is numerically meaningless.
            let d = match projection.kind {
                ProjectionKind::Vanilla => projection
                    .project(&a)
                    .lorentz_distance(&projection.project(&b)),
                ProjectionKind::Cosh => {
                    cosh_pair_lorentz_distance(&a, &b, projection.beta, projection.c)
                }
            };
            DegradationPoint {
                offset: o,
                lorentz_distance: d,
            }
        })
        .collect()
}

/// A concrete Lemma 5 witness: three hyperbolic points whose Lorentz
/// distances violate the triangle inequality. Returns
/// `(d(a,b), d(b,c), d(a,c))` with `d(a,c) > d(a,b) + d(b,c)`.
pub fn lorentz_violation_example(beta: f64) -> (f64, f64, f64) {
    let a = HyperbolicPoint::from_spatial(&[0.0], beta);
    let b = HyperbolicPoint::from_spatial(&[2.0 * beta.sqrt()], beta);
    let c = HyperbolicPoint::from_spatial(&[4.0 * beta.sqrt()], beta);
    (
        a.lorentz_distance(&b),
        b.lorentz_distance(&c),
        a.lorentz_distance(&c),
    )
}

/// Quantifies how much of the radial signal each projection retains: the
/// ratio of the Lorentz distance at the last offset to the first.
/// ≈ 0 means fully degraded, ≈ 1 means preserved.
///
/// Use `c = 2` for the pure Theorem 7 comparison: larger compression
/// exponents intentionally damp large radii (that is γ_c's job), which
/// would conflate the two effects.
pub fn radial_retention(projection: &Projection, dim: usize) -> f64 {
    // Offsets stay within the regime where angular rounding noise (ε·sinh²m)
    // is far below the radial signal; see `cosh_pair_lorentz_distance`.
    let offsets = [1.0, 12.0];
    let curve = radial_degradation_curve(projection, dim, 1.0, &offsets);
    if curve[0].lorentz_distance <= f64::EPSILON {
        return 0.0;
    }
    curve[1].lorentz_distance / curve[0].lorentz_distance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_curve_shapes() {
        let offsets = [1.0, 6.0, 12.0];
        let vanilla = Projection {
            kind: ProjectionKind::Vanilla,
            beta: 1.0,
            c: 2.0,
        };
        let cosh = Projection {
            kind: ProjectionKind::Cosh,
            beta: 1.0,
            c: 2.0,
        };
        let vc = radial_degradation_curve(&vanilla, 3, 1.0, &offsets);
        let cc = radial_degradation_curve(&cosh, 3, 1.0, &offsets);
        // Vanilla strictly decays; cosh stays within 1% across offsets.
        assert!(vc[0].lorentz_distance > vc[1].lorentz_distance);
        assert!(vc[1].lorentz_distance > vc[2].lorentz_distance);
        let spread = (cc[0].lorentz_distance - cc[2].lorentz_distance).abs();
        assert!(spread < 0.01 * cc[0].lorentz_distance.max(1e-12));
    }

    #[test]
    fn violation_example_violates() {
        for beta in [0.5, 1.0, 2.0] {
            let (ab, bc, ac) = lorentz_violation_example(beta);
            assert!(ac > ab + bc, "β={beta}: {ac} vs {}", ab + bc);
        }
    }

    #[test]
    fn retention_separates_projections() {
        let vanilla = Projection {
            kind: ProjectionKind::Vanilla,
            beta: 1.0,
            c: 2.0,
        };
        let cosh = Projection {
            kind: ProjectionKind::Cosh,
            beta: 1.0,
            c: 2.0,
        };
        let rv = radial_retention(&vanilla, 4);
        let rc = radial_retention(&cosh, 4);
        assert!(rv < 0.05, "vanilla retention {rv}");
        assert!(rc > 0.5, "cosh retention {rc}");
    }
}
