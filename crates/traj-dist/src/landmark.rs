//! Distance-to-landmark feature maps and the admissible lower bound
//! they induce.
//!
//! Phillips (arXiv:1804.11284) observes that mapping each trajectory to
//! its vector of distances to a small set of fixed *landmark* pivots
//! yields a simple, stable feature embedding. This module adds the
//! pruning-side consequence: for the measures gated by
//! [`Measure::supports_landmark_bound`], each feature coordinate is
//! 1-Lipschitz under the measure, so the feature-space Chebyshev gap
//!
//! ```text
//! lb(a, b) = max_j |f_a[j] − f_b[j]|  ≤  d(a, b)
//! ```
//!
//! is an **admissible lower bound** on the true distance, computable in
//! O(k) after an O(k·n) one-time featurization. Two consumers share
//! the mechanism: the [`crate::MatrixBuilder`] landmark pre-screen
//! (`MatrixBuilder::prune_landmark`) and the training-free `landmark`
//! encoder in `lh-models`.
//!
//! # Why each gated measure admits the bound (constant 1)
//!
//! * **ERP / Hausdorff / discrete Fréchet** are true metrics
//!   ([`crate::MeasureKind::is_metric`]); the feature is the measure
//!   distance to the pivot, `f_a[j] = d(a, P_j)`, and the reverse
//!   triangle inequality gives `|d(a,P_j) − d(b,P_j)| ≤ d(a,b)` exactly.
//! * **DTW** is *not* a metric, but a different feature works: the
//!   closest-pair distance `f_a[j] = min_{u∈a, v∈P_j} ‖u−v‖`. Proof that
//!   `|f_a[j] − f_b[j]| ≤ DTW(a,b)`: WLOG `f_a[j] ≥ f_b[j]` and let
//!   `(v₀, q₀)` realize `f_b[j]` with `v₀ ∈ b`, `q₀ ∈ P_j`. Any DTW
//!   alignment covers every point, so `v₀` is matched to some `u₀ ∈ a`,
//!   and the alignment cost sums non-negative point distances, hence
//!   `‖u₀−v₀‖ ≤ DTW(a,b)`. Then
//!   `f_a[j] ≤ ‖u₀−q₀‖ ≤ ‖u₀−v₀‖ + ‖v₀−q₀‖ ≤ DTW(a,b) + f_b[j]`.
//! * **EDR / LCSS are excluded**: both quantize point proximity through a
//!   match tolerance and count edits, so an arbitrarily small spatial
//!   perturbation can change the distance by a full edit unit — no
//!   point-based feature is Lipschitz under them, and neither satisfies
//!   the triangle inequality. SSPD/TP/DITA are likewise non-metric
//!   aggregates with no known admissible landmark feature.
//!
//! Pivots are chosen by deterministic farthest-point (maxmin) selection
//! — the DITA-style "spread the pivots" heuristic — under the same
//! feature distance the bound uses, with `total_cmp` + lowest-index
//! tie-breaking so every build of the same inputs picks the same pivots.
//! NaN features are skipped when maximizing the gap, so a NaN **fails
//! open** (bound 0, nothing pruned), matching the retrieval tier's
//! convention.

use crate::measure::Measure;
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::Trajectory;

/// Closest pair of points between two trajectories: the DTW landmark
/// feature (see the module docs for the admissibility proof).
pub fn closest_pair(a: &Trajectory, b: &Trajectory) -> f64 {
    let mut best = f64::INFINITY;
    for u in a.points() {
        for v in b.points() {
            let d = u.dist_sq(v);
            if d < best {
                best = d;
            }
        }
    }
    best.sqrt()
}

/// Chebyshev gap between two feature rows: `max_j |fa[j] − fb[j]|`.
///
/// NaN coordinates are skipped (a NaN comparison is never `>`), so a
/// poisoned feature lowers the bound toward 0 instead of pruning — the
/// fail-open convention shared with the retrieval index tier.
#[inline]
pub fn feature_gap(fa: &[f64], fb: &[f64]) -> f64 {
    let mut best = 0.0;
    for (x, y) in fa.iter().zip(fb) {
        let d = (x - y).abs();
        if d > best {
            best = d;
        }
    }
    best
}

/// A selected pivot set for one gated measure: owns the pivot
/// trajectories and featurizes arbitrary trajectories against them.
#[derive(Debug, Clone)]
pub struct Landmarks {
    measure: Measure,
    pivots: Vec<Trajectory>,
}

impl Landmarks {
    /// Farthest-point pivot selection over `trajs`.
    ///
    /// Returns `None` when the measure has no admissible landmark bound
    /// ([`Measure::supports_landmark_bound`]), when `k == 0`, or when
    /// `trajs` is empty. Fewer than `k` pivots come back if the set
    /// collapses early (every remaining trajectory at feature distance 0
    /// from a chosen pivot adds no information).
    pub fn select(measure: &Measure, trajs: &[Trajectory], k: usize) -> Option<Landmarks> {
        Self::select_with_features(measure, trajs, k).map(|(l, _)| l)
    }

    /// [`Landmarks::select`] that also returns the row-major n×k feature
    /// matrix of the selection set — the selection passes compute exactly
    /// those distances, so callers that need both get them for free.
    pub fn select_with_features(
        measure: &Measure,
        trajs: &[Trajectory],
        k: usize,
    ) -> Option<(Landmarks, Vec<f64>)> {
        if !measure.supports_landmark_bound() || k == 0 || trajs.is_empty() {
            return None;
        }
        let n = trajs.len();
        let k = k.min(n);
        let threads = default_threads(n);
        // Spread pass: the first pivot is the trajectory farthest from
        // trajs[0] (lowest index on ties) — the same seeding idiom the
        // index tier uses for k-means centroids.
        let ref_col: Vec<f64> = parallel_map(n, threads, |i| {
            measure.landmark_feature(&trajs[i], &trajs[0])
        });
        let mut next = argmax(&ref_col);
        let mut pivot_ids: Vec<usize> = Vec::with_capacity(k);
        // cols[j][i] = feature distance of trajs[i] to pivot j.
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut mind = vec![f64::INFINITY; n];
        loop {
            pivot_ids.push(next);
            let col: Vec<f64> = parallel_map(n, threads, |i| {
                measure.landmark_feature(&trajs[i], &trajs[next])
            });
            for (m, &c) in mind.iter_mut().zip(&col) {
                // total_cmp-free min that drops NaN columns to the
                // existing value (NaN < m is false).
                if c < *m {
                    *m = c;
                }
            }
            cols.push(col);
            if pivot_ids.len() == k {
                break;
            }
            next = argmax(&mind);
            // Stop unless strictly positive (NaN stops too): every
            // remaining trajectory coincides with a chosen pivot under
            // the feature distance; more pivots cannot tighten the
            // bound.
            if mind[next].partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                break;
            }
        }
        let kk = pivot_ids.len();
        let mut features = vec![0.0; n * kk];
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                features[i * kk + j] = v;
            }
        }
        let pivots = pivot_ids.iter().map(|&i| trajs[i].clone()).collect();
        Some((
            Landmarks {
                measure: *measure,
                pivots,
            },
            features,
        ))
    }

    /// Number of pivots actually selected.
    pub fn k(&self) -> usize {
        self.pivots.len()
    }

    /// The pivot trajectories.
    pub fn pivots(&self) -> &[Trajectory] {
        &self.pivots
    }

    /// Feature row of one trajectory: distance to each pivot.
    pub fn features(&self, t: &Trajectory) -> Vec<f64> {
        self.pivots
            .iter()
            .map(|p| self.measure.landmark_feature(t, p))
            .collect()
    }

    /// Row-major n×k feature matrix over `trajs` (parallel).
    pub fn feature_matrix(&self, trajs: &[Trajectory]) -> Vec<f64> {
        let k = self.k();
        let rows = parallel_map(trajs.len(), default_threads(trajs.len()), |i| {
            self.features(&trajs[i])
        });
        let mut out = vec![0.0; trajs.len() * k];
        for (i, row) in rows.iter().enumerate() {
            out[i * k..(i + 1) * k].copy_from_slice(row);
        }
        out
    }
}

/// Index of the maximum value under `total_cmp`, lowest index on ties —
/// NaN orders above +∞ in `total_cmp`, so prefer the smallest index by
/// filtering NaN first and falling back to 0 when everything is NaN.
fn argmax(vals: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in vals.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Precomputed landmark features for one (pairwise) or two (cross)
/// trajectory sets, answering O(k) admissible lower-bound queries.
#[derive(Debug, Clone)]
pub struct LandmarkLowerBound {
    landmarks: Landmarks,
    k: usize,
    /// Row-major features of the primary set (pairwise: the whole set;
    /// cross: the query set).
    a: Vec<f64>,
    /// Cross builds: features of the base set.
    b: Option<Vec<f64>>,
}

impl LandmarkLowerBound {
    /// Bound oracle over one set: `lb(i, j)` lower-bounds
    /// `measure(trajs[i], trajs[j])`. `None` when the measure is not
    /// gated or the set is empty.
    pub fn pairwise(measure: &Measure, trajs: &[Trajectory], k: usize) -> Option<Self> {
        let (landmarks, a) = Landmarks::select_with_features(measure, trajs, k)?;
        let k = landmarks.k();
        Some(LandmarkLowerBound {
            landmarks,
            k,
            a,
            b: None,
        })
    }

    /// Bound oracle across two sets: pivots are chosen from `base`, and
    /// `lb(i, j)` lower-bounds `measure(queries[i], base[j])`.
    pub fn cross(
        measure: &Measure,
        queries: &[Trajectory],
        base: &[Trajectory],
        k: usize,
    ) -> Option<Self> {
        let (landmarks, b) = Landmarks::select_with_features(measure, base, k)?;
        let a = landmarks.feature_matrix(queries);
        let k = landmarks.k();
        Some(LandmarkLowerBound {
            landmarks,
            k,
            a,
            b: Some(b),
        })
    }

    /// Number of feature coordinates per trajectory.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The selected pivot set.
    pub fn landmarks(&self) -> &Landmarks {
        &self.landmarks
    }

    /// The admissible O(k) lower bound for pair `(i, j)` (see module
    /// docs). NaN features fail open toward 0.
    #[inline]
    pub fn lb(&self, i: usize, j: usize) -> f64 {
        let fa = &self.a[i * self.k..(i + 1) * self.k];
        let fb = match &self.b {
            Some(b) => &b[j * self.k..(j + 1) * self.k],
            None => &self.a[j * self.k..(j + 1) * self.k],
        };
        feature_gap(fa, fb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureKind;

    fn trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let len = 3 + i % 5;
                let pts: Vec<(f64, f64)> = (0..len)
                    .map(|p| {
                        let t = p as f64 * 0.17 + i as f64 * 0.31;
                        (t.sin() * 0.4 + i as f64 * 0.05, t.cos() * 0.3)
                    })
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect()
    }

    #[test]
    fn ungated_measures_yield_no_bound() {
        let ts = trajs(6);
        for kind in [
            MeasureKind::Edr,
            MeasureKind::Lcss,
            MeasureKind::Sspd,
            MeasureKind::Tp,
            MeasureKind::Dita,
        ] {
            assert!(
                LandmarkLowerBound::pairwise(&kind.measure(), &ts, 4).is_none(),
                "{kind:?} must be excluded"
            );
        }
        let m = MeasureKind::Dtw.measure();
        assert!(LandmarkLowerBound::pairwise(&m, &ts, 0).is_none());
        assert!(LandmarkLowerBound::pairwise(&m, &[], 4).is_none());
    }

    #[test]
    fn bound_is_admissible_for_every_gated_measure() {
        let ts = trajs(12);
        for kind in [
            MeasureKind::Dtw,
            MeasureKind::Erp,
            MeasureKind::Hausdorff,
            MeasureKind::DiscreteFrechet,
        ] {
            let m = kind.measure();
            let lbo = LandmarkLowerBound::pairwise(&m, &ts, 4).unwrap();
            for i in 0..ts.len() {
                for j in 0..ts.len() {
                    let lb = lbo.lb(i, j);
                    let d = m.distance(&ts[i], &ts[j]);
                    assert!(lb <= d + 1e-12, "{kind:?} lb({i},{j})={lb} > d={d}");
                }
            }
        }
    }

    #[test]
    fn cross_bound_is_admissible() {
        let ts = trajs(14);
        let (queries, base) = ts.split_at(4);
        for kind in [MeasureKind::Dtw, MeasureKind::Hausdorff] {
            let m = kind.measure();
            let lbo = LandmarkLowerBound::cross(&m, queries, base, 3).unwrap();
            for (i, q) in queries.iter().enumerate() {
                for (j, b) in base.iter().enumerate() {
                    let lb = lbo.lb(i, j);
                    let d = m.distance(q, b);
                    assert!(lb <= d + 1e-12, "{kind:?} lb({i},{j})={lb} > d={d}");
                }
            }
        }
    }

    #[test]
    fn selection_is_deterministic_and_spread() {
        let ts = trajs(20);
        let m = MeasureKind::Hausdorff.measure();
        let l1 = Landmarks::select(&m, &ts, 5).unwrap();
        let l2 = Landmarks::select(&m, &ts, 5).unwrap();
        assert_eq!(l1.k(), 5);
        for (p, q) in l1.pivots().iter().zip(l2.pivots()) {
            assert_eq!(p, q, "selection must be deterministic");
        }
        // Pivots must be pairwise distinct under the feature distance.
        for (i, p) in l1.pivots().iter().enumerate() {
            for q in &l1.pivots()[i + 1..] {
                assert!(m.landmark_feature(p, q) > 0.0, "duplicate pivot selected");
            }
        }
    }

    #[test]
    fn duplicate_heavy_set_collapses_early() {
        let one = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]).unwrap();
        let ts = vec![one.clone(), one.clone(), one.clone(), one];
        let m = MeasureKind::Hausdorff.measure();
        let l = Landmarks::select(&m, &ts, 3).unwrap();
        assert_eq!(l.k(), 1, "identical trajectories support only one pivot");
    }

    #[test]
    fn feature_gap_skips_nan_and_self_gap_is_zero() {
        assert_eq!(feature_gap(&[1.0, f64::NAN, 3.0], &[0.5, 9.0, 3.0]), 0.5);
        assert_eq!(feature_gap(&[f64::NAN], &[f64::NAN]), 0.0);
        let fa = [0.3, 0.7, 1.1];
        assert_eq!(feature_gap(&fa, &fa), 0.0);
    }

    #[test]
    fn closest_pair_matches_brute_force_and_bounds_dtw() {
        let a = Trajectory::from_xy(&[(0.0, 0.0), (2.0, 0.0)]).unwrap();
        let b = Trajectory::from_xy(&[(5.0, 0.0), (2.5, 0.0)]).unwrap();
        assert!((closest_pair(&a, &b) - 0.5).abs() < 1e-12);
        assert!(closest_pair(&a, &b) <= crate::dtw::dtw(&a, &b) + 1e-12);
    }
}
