//! Euclidean → hyperbolic projections (Section IV).
//!
//! **Vanilla projection** `φ` keeps the spatial coordinates and solves for
//! the time coordinate: `x₀ = √(Σxᵢ² + β)`. Theorem 6 proves the resulting
//! Lorentz distances collapse toward zero as input norms grow.
//!
//! **Cosh projection** `φ_cosh` instead treats the (compressed) Euclidean
//! norm as a *hyperbolic angle*: `x_H = (√β·cosh(m), √β·sinh(m)·x/‖x‖)`
//! with `m = γ_c(‖x‖²) = ‖x‖^{2/c}`. Theorem 7 shows the induced 2-D
//! Lorentz distance depends only on the angle gap and never collapses;
//! Theorems 8–9 lift that to arbitrary dimension.
//!
//! Note on the paper's formula: it writes `k = sinh(|x|)/|x| · √β` with
//! `|x| = γ_c(Σx²)`. That lands on `H(β)` only for `c = 2`; dividing by the
//! *uncompressed* L2 norm (as here) satisfies `⟨x_H,x_H⟩ = −β` for every
//! `c` and coincides with the paper at `c = 2`. See DESIGN.md §1.

use crate::lorentz::HyperbolicPoint;

/// Norm compression `γ_c(s) = s^{1/c}` applied to the squared norm, i.e.
/// the compressed radius of a vector with squared norm `s`.
///
/// With `c = 2` this is the plain L2 norm; larger `c` damps large norms
/// (the paper settles on `c = 4`).
#[inline]
pub fn gamma_compress(norm_sq: f64, c: f64) -> f64 {
    debug_assert!(c > 0.0, "compression exponent must be positive");
    if norm_sq <= 0.0 {
        0.0
    } else {
        norm_sq.powf(1.0 / c)
    }
}

/// Vanilla hyperbolic projection φ: spatial part copied, time coordinate
/// solved from the membership constraint.
pub fn vanilla_project(x: &[f64], beta: f64) -> HyperbolicPoint {
    HyperbolicPoint::from_spatial(x, beta)
}

/// Cosh hyperbolic projection φ_cosh with compression exponent `c`.
pub fn cosh_project(x: &[f64], beta: f64, c: f64) -> HyperbolicPoint {
    let norm_sq: f64 = x.iter().map(|v| v * v).sum();
    let norm = norm_sq.sqrt();
    let m = gamma_compress(norm_sq, c);
    let sqrt_beta = beta.sqrt();
    let mut coords = Vec::with_capacity(x.len() + 1);
    coords.push(sqrt_beta * m.cosh());
    if norm <= f64::EPSILON {
        // Zero vector maps to the hyperboloid apex.
        coords.resize(x.len() + 1, 0.0);
    } else {
        let k = sqrt_beta * m.sinh() / norm;
        coords.extend(x.iter().map(|&v| v * k));
    }
    // Membership holds analytically (−β·cosh²m + β·sinh²m = −β); the
    // checked constructor cannot verify it at large m due to cancellation.
    HyperbolicPoint::new_unchecked(coords, beta)
}

/// Numerically stable Lorentz distance between the *cosh projections* of
/// two Euclidean vectors, computed without materializing the hyperbolic
/// coordinates.
///
/// Writing `a = √β(cosh m_a, sinh m_a·u_a)` and likewise for `b`, with
/// `ρ = u_a·u_b`:
///
/// ```text
/// ⟨a,b⟩ = β(−cosh(m_a − m_b) − (1 − ρ)·sinh m_a·sinh m_b)
/// d_Lo  = β(cosh(m_a − m_b) − 1) + β(1 − ρ)·sinh m_a·sinh m_b
/// ```
///
/// The naive `−a₀b₀ + Σaᵢbᵢ` cancels catastrophically once `m ≳ 18`
/// (`cosh²m` eats all 53 mantissa bits); this form stays exact for the
/// radial term at any radius. Used by the theorem demos, which sweep radii
/// far beyond anything training produces.
pub fn cosh_pair_lorentz_distance(xa: &[f64], xb: &[f64], beta: f64, c: f64) -> f64 {
    debug_assert_eq!(xa.len(), xb.len());
    let na_sq: f64 = xa.iter().map(|v| v * v).sum();
    let nb_sq: f64 = xb.iter().map(|v| v * v).sum();
    let (na, nb) = (na_sq.sqrt(), nb_sq.sqrt());
    let ma = gamma_compress(na_sq, c);
    let mb = gamma_compress(nb_sq, c);
    let radial = beta * ((ma - mb).cosh() - 1.0);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        // One point at the apex: the angular term vanishes with sinh(0).
        return radial;
    }
    let dot: f64 = xa.iter().zip(xb).map(|(p, q)| p * q).sum();
    let rho = (dot / (na * nb)).clamp(-1.0, 1.0);
    if rho >= 1.0 {
        // Exactly collinear: avoid 0·∞ when sinh overflows at huge radii.
        return radial;
    }
    radial + beta * (1.0 - rho) * ma.sinh() * mb.sinh()
}

/// Which projection to use — the ablation axis of Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionKind {
    /// `φ`: direct lift (Theorem 6 shows distance degradation).
    Vanilla,
    /// `φ_cosh`: hyperbolic-angle lift (Theorems 7–9).
    Cosh,
}

/// A configured projection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Projection family.
    pub kind: ProjectionKind,
    /// Curvature parameter β of the target `H(β)`.
    pub beta: f64,
    /// Compression exponent `c` (Cosh only; the paper selects 4).
    pub c: f64,
}

impl Projection {
    /// The paper's final configuration: Cosh with β = 1, c = 4.
    pub fn paper_default() -> Self {
        Projection {
            kind: ProjectionKind::Cosh,
            beta: 1.0,
            c: 4.0,
        }
    }

    /// Projects a Euclidean vector.
    pub fn project(&self, x: &[f64]) -> HyperbolicPoint {
        match self.kind {
            ProjectionKind::Vanilla => vanilla_project(x, self.beta),
            ProjectionKind::Cosh => cosh_project(x, self.beta, self.c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lorentz::lorentz_inner;

    #[test]
    fn both_projections_satisfy_membership() {
        let xs = [
            vec![0.0, 0.0, 0.0],
            vec![1.0, -2.0, 0.5],
            vec![5.0, 3.0, -4.0],
        ];
        for beta in [0.5, 1.0, 2.0] {
            for c in [2.0, 4.0] {
                for x in &xs {
                    for p in [vanilla_project(x, beta), cosh_project(x, beta, c)] {
                        let inner = lorentz_inner(p.coords(), p.coords());
                        // Cancellation error scales with a₀².
                        let tol = 1e-12 * (1.0 + beta + p.coords()[0].powi(2));
                        assert!(
                            (inner + beta).abs() < tol,
                            "⟨a,a⟩={inner} for β={beta}, c={c}, x={x:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn projections_are_injective_on_samples() {
        // Distinct Euclidean inputs must stay distinct (Section IV's
        // bijectivity requirement).
        let xs = [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![-1.0, 1.0],
            vec![2.0, 0.0],
        ];
        let proj = Projection::paper_default();
        for (i, a) in xs.iter().enumerate() {
            for (j, b) in xs.iter().enumerate() {
                if i == j {
                    continue;
                }
                let pa = proj.project(a);
                let pb = proj.project(b);
                let diff: f64 = pa
                    .coords()
                    .iter()
                    .zip(pb.coords())
                    .map(|(u, v)| (u - v).abs())
                    .sum();
                assert!(diff > 1e-9, "collision between {a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn cosh_at_origin_is_apex() {
        let p = cosh_project(&[0.0, 0.0], 1.0, 4.0);
        assert!((p.coords()[0] - 1.0).abs() < 1e-12);
        assert_eq!(p.coords()[1], 0.0);
        assert_eq!(p.coords()[2], 0.0);
    }

    #[test]
    fn cosh_c2_matches_paper_formula() {
        // For c = 2 the consistent form equals the paper's literal formula:
        // k = √β sinh(‖x‖)/‖x‖.
        let x = [0.6, -0.8]; // ‖x‖ = 1
        let beta = 1.0;
        let p = cosh_project(&x, beta, 2.0);
        assert!((p.coords()[0] - 1.0f64.cosh()).abs() < 1e-12);
        assert!((p.coords()[1] - 0.6 * 1.0f64.sinh()).abs() < 1e-12);
        assert!((p.coords()[2] - (-0.8) * 1.0f64.sinh()).abs() < 1e-12);
    }

    #[test]
    fn gamma_compress_behaviour() {
        assert_eq!(gamma_compress(0.0, 4.0), 0.0);
        // c=2: radius 3 → norm_sq 9 → 3.
        assert!((gamma_compress(9.0, 2.0) - 3.0).abs() < 1e-12);
        // c=4: norm_sq 16 → 2.
        assert!((gamma_compress(16.0, 4.0) - 2.0).abs() < 1e-12);
        // Larger c compresses more for radii > 1.
        assert!(gamma_compress(100.0, 8.0) < gamma_compress(100.0, 4.0));
    }

    #[test]
    fn theorem7_distance_depends_only_on_gap_1d() {
        // 1-D inputs a, b: d_Lo = β(cosh(m_b − m_a) − 1) — shift-dependent
        // only through the compressed radii. With c = 2 and inputs on the
        // same side, equal gaps at any offset give equal distances.
        let beta = 1.0;
        let d_at = |a: f64, b: f64| cosh_pair_lorentz_distance(&[a], &[b], beta, 2.0);
        let d1 = d_at(1.0, 2.0);
        let d2 = d_at(10.0, 11.0);
        let d3 = d_at(100.0, 101.0);
        assert!((d1 - d2).abs() < 1e-9, "d1={d1} d2={d2}");
        assert!((d2 - d3).abs() < 1e-9, "d2={d2} d3={d3}");
        // And the analytic value β(cosh(1) − 1).
        assert!((d1 - (1.0f64.cosh() - 1.0)).abs() < 1e-9);
        // The materialized-coordinate path agrees while m is small enough
        // to avoid cancellation.
        let pa = cosh_project(&[1.0], beta, 2.0);
        let pb = cosh_project(&[2.0], beta, 2.0);
        assert!((pa.lorentz_distance(&pb) - d1).abs() < 1e-9);
    }

    #[test]
    fn theorem6_vanilla_degrades_cosh_does_not() {
        // Collinear pairs with a constant Euclidean gap moved away from the
        // origin (the Theorem 6 regime: nearly identical directions, large
        // norms): vanilla Lorentz distance → 0 — the radial component is
        // entirely washed out — while the cosh distance stays put.
        let beta = 1.0;
        let g = 1.0 / std::f64::consts::SQRT_2; // unit Euclidean gap along (1,1)
        let offsets = [1.0, 10.0, 100.0, 1000.0];
        let mut vanilla_prev = f64::INFINITY;
        for &o in &offsets {
            let a = [o, o];
            let b = [o + g, o + g];
            let v = vanilla_project(&a, beta).lorentz_distance(&vanilla_project(&b, beta));
            let h = cosh_pair_lorentz_distance(&a, &b, beta, 2.0);
            assert!(v < vanilla_prev, "vanilla must decay monotonically here");
            vanilla_prev = v;
            assert!(h > 0.1, "cosh distance collapsed: {h} at offset {o}");
        }
        assert!(
            vanilla_prev < 1e-3,
            "vanilla did not degrade: {vanilla_prev}"
        );
    }
}
