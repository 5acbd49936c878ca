//! Property-based tests (proptest) over the core invariants:
//! measure axioms, violation statistics, hyperbolic geometry, ranking
//! metrics, and the autodiff substrate.

use lh_repro::dist::MeasureKind;
use lh_repro::hyperbolic::{cosh_project, lorentz_inner, vanilla_project};
use lh_repro::metrics::ranking::{hr_at_k, ndcg_at_k, rank_by_distance};
use lh_repro::metrics::{rvs, tvf};
use lh_repro::nn::{Tape, Tensor};
use lh_repro::traj::Trajectory;
use proptest::prelude::*;

/// Random small trajectory strategy: 1–12 points in [−10, 10]².
fn traj_strategy() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..12)
        .prop_map(|pts| Trajectory::from_xy(&pts).expect("finite points"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every measure: non-negative, symmetric, zero on self.
    #[test]
    fn measure_axioms(a in traj_strategy(), b in traj_strategy()) {
        for kind in [
            MeasureKind::Dtw,
            MeasureKind::Sspd,
            MeasureKind::Edr,
            MeasureKind::Hausdorff,
            MeasureKind::DiscreteFrechet,
            MeasureKind::Erp,
            MeasureKind::Lcss,
        ] {
            let m = kind.measure();
            let d_ab = m.distance(&a, &b);
            let d_ba = m.distance(&b, &a);
            prop_assert!(d_ab >= -1e-12, "{} negative: {d_ab}", kind.name());
            prop_assert!((d_ab - d_ba).abs() < 1e-9, "{} asymmetric", kind.name());
            prop_assert!(m.distance(&a, &a).abs() < 1e-9, "{} self ≠ 0", kind.name());
        }
    }

    /// Metric measures never violate the triangle inequality.
    #[test]
    fn metric_measures_satisfy_triangle(
        a in traj_strategy(),
        b in traj_strategy(),
        c in traj_strategy(),
    ) {
        for kind in [MeasureKind::Hausdorff, MeasureKind::DiscreteFrechet, MeasureKind::Erp] {
            let m = kind.measure();
            let ab = m.distance(&a, &b);
            let bc = m.distance(&b, &c);
            let ac = m.distance(&a, &c);
            prop_assert!(
                ac <= ab + bc + 1e-7,
                "{}: {ac} > {ab} + {bc}",
                kind.name()
            );
        }
    }

    /// TVF ⟺ RVS > 0 for strictly positive distance triples.
    #[test]
    fn tvf_iff_positive_rvs(
        d1 in 0.001f64..100.0,
        d2 in 0.001f64..100.0,
        d3 in 0.001f64..100.0,
    ) {
        prop_assert_eq!(tvf(d1, d2, d3), rvs(d1, d2, d3) > 0.0);
    }

    /// RVS is permutation-invariant over the triple.
    #[test]
    fn rvs_permutation_invariant(
        d1 in 0.001f64..100.0,
        d2 in 0.001f64..100.0,
        d3 in 0.001f64..100.0,
    ) {
        let base = rvs(d1, d2, d3);
        for (x, y, z) in [(d2, d1, d3), (d3, d2, d1), (d1, d3, d2)] {
            prop_assert!((rvs(x, y, z) - base).abs() < 1e-12);
        }
    }

    /// Both projections always land on H(β) and keep `a₀ ≥ √β`.
    #[test]
    fn projection_membership(
        x in prop::collection::vec(-5.0f64..5.0, 1..8),
        beta in 0.1f64..4.0,
        c in 1.0f64..8.0,
    ) {
        for p in [vanilla_project(&x, beta), cosh_project(&x, beta, c)] {
            let inner = lorentz_inner(p.coords(), p.coords());
            let tol = 1e-9 * (1.0 + p.coords()[0].powi(2));
            prop_assert!((inner + beta).abs() < tol, "⟨a,a⟩ = {inner}");
            prop_assert!(p.coords()[0] >= beta.sqrt() - 1e-9);
        }
    }

    /// Lorentz self-distance is zero and pairwise distance non-negative
    /// for projected points.
    #[test]
    fn lorentz_distance_axioms_on_projections(
        x in prop::collection::vec(-3.0f64..3.0, 2..6),
        y in prop::collection::vec(-3.0f64..3.0, 2..6),
        beta in 0.25f64..2.0,
    ) {
        prop_assume!(x.len() == y.len());
        let px = cosh_project(&x, beta, 4.0);
        let py = cosh_project(&y, beta, 4.0);
        prop_assert!(px.lorentz_distance(&px).abs() < 1e-6);
        prop_assert!(px.lorentz_distance(&py) >= -1e-6);
    }

    /// HR/NDCG bounds and perfect-prediction identity.
    #[test]
    fn ranking_metric_bounds(
        dists in prop::collection::vec(0.0f64..100.0, 5..40),
        k in 1usize..10,
    ) {
        let rank = rank_by_distance(&dists);
        prop_assert_eq!(hr_at_k(&rank, &rank, k), 1.0);
        prop_assert!((ndcg_at_k(&rank, &rank, k) - 1.0).abs() < 1e-9);
        // Against an arbitrary other ranking, both stay in [0, 1].
        let reversed: Vec<usize> = rank.iter().rev().copied().collect();
        let hr = hr_at_k(&rank, &reversed, k);
        let nd = ndcg_at_k(&rank, &reversed, k);
        prop_assert!((0.0..=1.0).contains(&hr));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&nd));
    }

    /// Autodiff: the gradient of `sum(tanh(x·W))` matches central finite
    /// differences for random shapes and values.
    #[test]
    fn autodiff_matches_finite_differences(
        rows in 1usize..4,
        cols in 1usize..4,
        vals in prop::collection::vec(-1.5f32..1.5, 16),
    ) {
        let x = Tensor::from_vec(rows, cols, vals[..rows * cols].to_vec());
        let w = Tensor::from_vec(cols, 2, vals[4..4 + cols * 2].to_vec());
        let f = |t: &Tensor| {
            let mut tape = Tape::new();
            let xv = tape.constant(t.clone());
            let wv = tape.constant(w.clone());
            let h = tape.matmul(xv, wv);
            let y = tape.tanh(h);
            let loss = tape.sum_all(y);
            (tape, xv, loss)
        };
        let (mut tape, xv, loss) = f(&x);
        tape.backward(loss);
        let analytic = tape.grad(xv);
        let eps = 2e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let mut plus = x.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                let (tp, _, lp) = f(&plus);
                let (tm, _, lm) = f(&minus);
                let num = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * eps);
                let ana = analytic.get(r, c);
                prop_assert!(
                    (num - ana).abs() <= 2e-2 * (1.0 + num.abs()),
                    "grad mismatch at ({r},{c}): {num} vs {ana}"
                );
            }
        }
    }

    /// Trajectory resampling preserves endpoints for any target size.
    #[test]
    fn resample_preserves_endpoints(t in traj_strategy(), m in 2usize..30) {
        let r = t.resample(m).unwrap();
        prop_assert_eq!(r.len(), m);
        prop_assert!((r[0].x - t[0].x).abs() < 1e-9);
        let last_r = r[r.len() - 1];
        let last_t = t[t.len() - 1];
        prop_assert!((last_r.x - last_t.x).abs() < 1e-9);
        prop_assert!((last_r.y - last_t.y).abs() < 1e-9);
    }
}
