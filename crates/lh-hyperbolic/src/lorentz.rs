//! The Lorentz inner product, hyperbolic membership, and distances.

/// Lorentz (Minkowski) inner product `⟨a,b⟩ = −a₀b₀ + Σ_{i≥1} aᵢbᵢ`.
///
/// Panics in debug builds on dimension mismatch.
#[inline]
pub fn lorentz_inner(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    debug_assert!(!a.is_empty());
    let mut s = -a[0] * b[0];
    for i in 1..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Lorentz distance `d_Lo(a,b) = |⟨a,b⟩| − β` (paper Definition 3).
#[inline]
pub fn lorentz_distance(a: &[f64], b: &[f64], beta: f64) -> f64 {
    lorentz_inner(a, b).abs() - beta
}

/// Geodesic (Riemannian) distance on H(β): `√β · arcosh(−⟨a,b⟩/β)`.
///
/// Included as a reference: the geodesic distance *is* a metric, which is
/// why the paper's non-metric Lorentz distance — not the geodesic — is the
/// right similarity surrogate for triangle-violating ground truths.
pub fn geodesic_distance(a: &[f64], b: &[f64], beta: f64) -> f64 {
    let ratio = (-lorentz_inner(a, b) / beta).max(1.0);
    beta.sqrt() * ratio.acosh()
}

/// A point on the hyperboloid `H(β)`, kept consistent by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperbolicPoint {
    coords: Vec<f64>,
    beta: f64,
}

impl HyperbolicPoint {
    /// Wraps coordinates after validating membership of `H(β)` within
    /// `tol`: `⟨a,a⟩ = −β` and `a₀ ≥ √β`.
    pub fn new(coords: Vec<f64>, beta: f64, tol: f64) -> Result<Self, String> {
        if coords.len() < 2 {
            return Err("hyperbolic points need at least 2 coordinates".into());
        }
        if beta <= 0.0 {
            return Err("β must be positive".into());
        }
        let self_inner = lorentz_inner(&coords, &coords);
        if (self_inner + beta).abs() > tol {
            return Err(format!("⟨a,a⟩ = {self_inner}, expected −β = {}", -beta));
        }
        if coords[0] < beta.sqrt() - tol {
            return Err(format!("a₀ = {} below √β = {}", coords[0], beta.sqrt()));
        }
        Ok(HyperbolicPoint { coords, beta })
    }

    /// Wraps coordinates that are hyperboloid members *by construction*
    /// (e.g. produced by an analytic projection). No validation: for large
    /// time coordinates the `⟨a,a⟩ = −β` check suffers catastrophic
    /// cancellation (`cosh²m − sinh²m` at `m ≳ 20` is numerically noise),
    /// so analytic constructors must bypass it.
    pub fn new_unchecked(coords: Vec<f64>, beta: f64) -> Self {
        debug_assert!(coords.len() >= 2);
        debug_assert!(beta > 0.0);
        HyperbolicPoint { coords, beta }
    }

    /// Lifts spatial coordinates onto the hyperboloid by solving for the
    /// time coordinate: `a₀ = √(β + Σ aᵢ²)` — always valid.
    pub fn from_spatial(spatial: &[f64], beta: f64) -> Self {
        let norm_sq: f64 = spatial.iter().map(|v| v * v).sum();
        let mut coords = Vec::with_capacity(spatial.len() + 1);
        coords.push((norm_sq + beta).sqrt());
        coords.extend_from_slice(spatial);
        HyperbolicPoint { coords, beta }
    }

    /// Coordinates (index 0 is the time-like axis).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// The curvature parameter β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Lorentz distance to another point of the same space.
    pub fn lorentz_distance(&self, other: &HyperbolicPoint) -> f64 {
        assert_eq!(self.beta, other.beta, "mixed curvature");
        lorentz_distance(&self.coords, &other.coords, self.beta)
    }

    /// Geodesic distance to another point of the same space.
    pub fn geodesic_distance(&self, other: &HyperbolicPoint) -> f64 {
        assert_eq!(self.beta, other.beta, "mixed curvature");
        geodesic_distance(&self.coords, &other.coords, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_product_signature() {
        let a = [2.0, 1.0, 1.0];
        let b = [3.0, 0.0, 2.0];
        // −2·3 + 1·0 + 1·2 = −4.
        assert_eq!(lorentz_inner(&a, &b), -4.0);
    }

    #[test]
    fn from_spatial_lies_on_hyperboloid() {
        for beta in [0.25, 1.0, 4.0] {
            let p = HyperbolicPoint::from_spatial(&[0.3, -1.2, 5.0], beta);
            let inner = lorentz_inner(p.coords(), p.coords());
            assert!((inner + beta).abs() < 1e-9, "β={beta}: ⟨a,a⟩={inner}");
            assert!(p.coords()[0] >= beta.sqrt());
        }
    }

    /// Lemma 4: d_Lo ≥ 0 with equality iff a = b.
    #[test]
    fn lemma4_nonnegative_and_zero_on_self() {
        let pts = [
            HyperbolicPoint::from_spatial(&[0.0, 0.0], 1.0),
            HyperbolicPoint::from_spatial(&[1.0, 2.0], 1.0),
            HyperbolicPoint::from_spatial(&[-3.0, 0.5], 1.0),
        ];
        for p in &pts {
            assert!(p.lorentz_distance(p).abs() < 1e-9);
            for q in &pts {
                assert!(p.lorentz_distance(q) >= -1e-9);
            }
        }
    }

    /// Lemma 5: the triangle inequality fails for some triples.
    #[test]
    fn lemma5_triangle_violation_exists() {
        // Three collinear spatial points: the hyperboloid's convexity makes
        // the direct distance exceed the detour for far-apart points.
        let a = HyperbolicPoint::from_spatial(&[0.0], 1.0);
        let b = HyperbolicPoint::from_spatial(&[2.0], 1.0);
        let c = HyperbolicPoint::from_spatial(&[4.0], 1.0);
        let ab = a.lorentz_distance(&b);
        let bc = b.lorentz_distance(&c);
        let ac = a.lorentz_distance(&c);
        assert!(
            ac > ab + bc,
            "expected violation: d(a,c)={ac} vs d(a,b)+d(b,c)={}",
            ab + bc
        );
    }

    #[test]
    fn geodesic_is_metric_on_samples() {
        let pts: Vec<HyperbolicPoint> = [
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![-1.5, 1.0],
        ]
        .iter()
        .map(|s| HyperbolicPoint::from_spatial(s, 1.0))
        .collect();
        for i in &pts {
            for j in &pts {
                for k in &pts {
                    let ij = i.geodesic_distance(j);
                    let jk = j.geodesic_distance(k);
                    let ik = i.geodesic_distance(k);
                    assert!(ik <= ij + jk + 1e-9);
                }
            }
        }
    }

    #[test]
    fn membership_validation() {
        assert!(HyperbolicPoint::new(vec![1.0, 0.0], 1.0, 1e-9).is_ok());
        // ⟨a,a⟩ = −1 requires a₀² − a₁² = 1.
        assert!(HyperbolicPoint::new(vec![2.0, 0.0], 1.0, 1e-9).is_err());
        assert!(HyperbolicPoint::new(vec![1.0, 0.0], -1.0, 1e-9).is_err());
        assert!(HyperbolicPoint::new(vec![1.0], 1.0, 1e-9).is_err());
        let ok = HyperbolicPoint::new(vec![2.0f64.sqrt(), 1.0], 1.0, 1e-9);
        assert!(ok.is_ok());
    }

    #[test]
    fn geodesic_zero_on_self() {
        // acosh near 1 amplifies rounding by √ε, so tolerance is ~1e-7.
        let p = HyperbolicPoint::from_spatial(&[0.7, -0.1], 2.0);
        assert!(p.geodesic_distance(&p).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "mixed curvature")]
    fn mixed_curvature_panics() {
        let p = HyperbolicPoint::from_spatial(&[0.0], 1.0);
        let q = HyperbolicPoint::from_spatial(&[0.0], 2.0);
        let _ = p.lorentz_distance(&q);
    }
}
