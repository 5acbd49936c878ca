//! A uniform handle over all similarity measures.
//!
//! Experiments sweep over measures (`DTW`, `SSPD`, `EDR`, …) the way the
//! paper's tables do; [`MeasureKind`] is the serializable registry and
//! [`Measure`] the configured, callable form.

use crate::dp::{self, with_cell};
use crate::st::{DitaConfig, TpConfig};
use serde::{Deserialize, Serialize};
use traj_core::{Point, Trajectory};

/// All measures this crate implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeasureKind {
    /// Dynamic time warping (non-metric).
    Dtw,
    /// Symmetric segment-path distance (non-metric).
    Sspd,
    /// Edit distance on real sequences (non-metric).
    Edr,
    /// Hausdorff distance (metric — control).
    Hausdorff,
    /// Discrete Fréchet distance (metric — also a Table IV target).
    DiscreteFrechet,
    /// Edit distance with real penalty (metric — control).
    Erp,
    /// LCSS distance (non-metric).
    Lcss,
    /// Spatio-temporal closest-pair aggregate (non-metric).
    Tp,
    /// Pivot-aligned spatio-temporal distance (non-metric).
    Dita,
}

impl MeasureKind {
    /// The paper's Table I / III spatial measures.
    pub const SPATIAL: [MeasureKind; 3] = [MeasureKind::Dtw, MeasureKind::Sspd, MeasureKind::Edr];

    /// The paper's Table IV spatio-temporal measures.
    pub const SPATIO_TEMPORAL: [MeasureKind; 3] = [
        MeasureKind::Tp,
        MeasureKind::Dita,
        MeasureKind::DiscreteFrechet,
    ];

    /// Whether the measure is guaranteed to satisfy the triangle inequality.
    pub fn is_metric(&self) -> bool {
        matches!(
            self,
            MeasureKind::Hausdorff | MeasureKind::DiscreteFrechet | MeasureKind::Erp
        )
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MeasureKind::Dtw => "DTW",
            MeasureKind::Sspd => "SSPD",
            MeasureKind::Edr => "EDR",
            MeasureKind::Hausdorff => "Hausdorff",
            MeasureKind::DiscreteFrechet => "discrete-Frechet",
            MeasureKind::Erp => "ERP",
            MeasureKind::Lcss => "LCSS",
            MeasureKind::Tp => "TP",
            MeasureKind::Dita => "DITA",
        }
    }

    /// Configured measure with default parameters (tolerances assume
    /// unit-square-normalized data).
    pub fn measure(self) -> Measure {
        Measure {
            kind: self,
            edr_eps: 0.002,
            lcss_eps: 0.002,
            erp_gap: Point::new(0.0, 0.0),
            tp: TpConfig::default(),
            dita: DitaConfig::default(),
        }
    }
}

/// Outcome of a threshold-pruned distance evaluation.
///
/// Early abandoning is *admissible*: it never misclassifies a pair that
/// matters below the threshold. Either the computation ran to completion
/// (`Exact`, bit-identical to the unpruned kernel), or it was abandoned
/// with a certified lower bound strictly above the threshold
/// (`LowerBound`) — so every distance ≤ threshold is always exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrunedDistance {
    /// The exact distance (the DP completed, or the measure has no
    /// early-abandon path).
    Exact(f64),
    /// Computation abandoned once no alignment could stay under the
    /// threshold; the true distance is ≥ this bound > threshold.
    LowerBound(f64),
}

impl PrunedDistance {
    /// The carried value (exact distance or admissible lower bound).
    #[inline]
    pub fn value(self) -> f64 {
        match self {
            PrunedDistance::Exact(d) | PrunedDistance::LowerBound(d) => d,
        }
    }

    /// Whether the computation was abandoned early.
    #[inline]
    pub fn abandoned(self) -> bool {
        matches!(self, PrunedDistance::LowerBound(_))
    }
}

/// A configured similarity measure.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    /// Which algorithm to run.
    pub kind: MeasureKind,
    /// EDR match tolerance (unit-square scale).
    pub edr_eps: f64,
    /// LCSS match tolerance.
    pub lcss_eps: f64,
    /// ERP gap reference point.
    pub erp_gap: Point,
    /// TP parameters.
    pub tp: TpConfig,
    /// DITA parameters.
    pub dita: DitaConfig,
}

impl Measure {
    /// Overrides the EDR tolerance.
    pub fn with_edr_eps(mut self, eps: f64) -> Self {
        self.edr_eps = eps;
        self
    }

    /// Evaluates the distance between two trajectories.
    pub fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        with_cell!(self, c => dp::distance(c, a, b),
            MeasureKind::Sspd => crate::sspd::sspd(a, b),
            MeasureKind::Hausdorff => crate::hausdorff::hausdorff(a, b),
            MeasureKind::Tp => crate::st::tp(a, b, self.tp),
            MeasureKind::Dita => crate::st::dita(a, b, self.dita),
        )
    }

    /// Whether the measure has a wavefront-batched kernel
    /// ([`crate::matrix::wavefront`]): the DP measures — DTW, ERP, EDR,
    /// discrete Fréchet and LCSS — whose cells read only their three
    /// neighbours, so anti-diagonal lockstep execution applies. This is not
    /// the set whose [`Measure::distance_pruned`] abandons early (DTW, ERP,
    /// EDR). SSPD and Hausdorff are not DPs; their kernels are lane-blocked
    /// within one pair instead. TP and DITA have no batched kernel.
    pub fn supports_batch(&self) -> bool {
        with_cell!(self, _c => true, _ => false)
    }

    /// Evaluates many pairs at once on one thread, through the matrix
    /// builder's executor: lockstep groups where a batched kernel exists,
    /// scalar calls for the rest (bit-identical to per-pair
    /// [`Measure::distance`] calls; see the [`crate::matrix::wavefront`]
    /// contract).
    pub fn distance_batch(&self, pairs: &[(&Trajectory, &Trajectory)]) -> Vec<f64> {
        crate::matrix::builder::distances(self, pairs)
    }

    /// Whether [`crate::landmark`] feature maps give an admissible lower
    /// bound for this measure (see that module's derivation).
    ///
    /// ERP, Hausdorff, and discrete Fréchet qualify because they are
    /// metrics (reverse triangle inequality, constant 1); DTW qualifies
    /// through the closest-pair feature (constant 1, alignment-coverage
    /// argument). EDR and LCSS are excluded: their tolerance-quantized
    /// edit counts are not Lipschitz in any point-based feature, and
    /// SSPD/TP/DITA are non-metric aggregates with no known admissible
    /// feature.
    pub fn supports_landmark_bound(&self) -> bool {
        matches!(
            self.kind,
            MeasureKind::Dtw
                | MeasureKind::Erp
                | MeasureKind::Hausdorff
                | MeasureKind::DiscreteFrechet
        )
    }

    /// The landmark feature of `t` against pivot trajectory `pivot`:
    /// the measure distance for the metric measures, the closest-pair
    /// distance for DTW. Ungated measures return NaN, which the bound
    /// side treats as fail-open (never prunes).
    pub fn landmark_feature(&self, t: &Trajectory, pivot: &Trajectory) -> f64 {
        match self.kind {
            MeasureKind::Dtw => crate::landmark::closest_pair(t, pivot),
            MeasureKind::Erp | MeasureKind::Hausdorff | MeasureKind::DiscreteFrechet => {
                self.distance(t, pivot)
            }
            _ => f64::NAN,
        }
    }

    /// Threshold-pruned distance evaluation (see [`PrunedDistance`] for
    /// the admissibility contract). Measures without an early-abandon
    /// path always return [`PrunedDistance::Exact`].
    pub fn distance_pruned(
        &self,
        a: &Trajectory,
        b: &Trajectory,
        threshold: f64,
    ) -> PrunedDistance {
        with_cell!(self, c => dp::distance_pruned(c, a, b, threshold),
            _ => PrunedDistance::Exact(self.distance(a, b)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    #[test]
    fn every_measure_runs_and_is_nonnegative_symmetric() {
        let a = t(&[(0.0, 0.0), (0.3, 0.2), (0.5, 0.5)]);
        let b = t(&[(0.1, 0.0), (0.6, 0.4)]);
        for kind in [
            MeasureKind::Dtw,
            MeasureKind::Sspd,
            MeasureKind::Edr,
            MeasureKind::Hausdorff,
            MeasureKind::DiscreteFrechet,
            MeasureKind::Erp,
            MeasureKind::Lcss,
            MeasureKind::Tp,
            MeasureKind::Dita,
        ] {
            let m = kind.measure();
            let ab = m.distance(&a, &b);
            let ba = m.distance(&b, &a);
            assert!(ab >= 0.0, "{kind:?} negative");
            assert!((ab - ba).abs() < 1e-9, "{kind:?} asymmetric");
            assert!(m.distance(&a, &a).abs() < 1e-12, "{kind:?} self != 0");
        }
    }

    #[test]
    fn metric_flags() {
        assert!(!MeasureKind::Dtw.is_metric());
        assert!(!MeasureKind::Sspd.is_metric());
        assert!(!MeasureKind::Edr.is_metric());
        assert!(MeasureKind::Hausdorff.is_metric());
        assert!(MeasureKind::DiscreteFrechet.is_metric());
        assert!(MeasureKind::Erp.is_metric());
    }

    #[test]
    fn registry_groups_match_paper_tables() {
        assert_eq!(MeasureKind::SPATIAL.len(), 3);
        assert_eq!(MeasureKind::SPATIO_TEMPORAL.len(), 3);
        assert!(MeasureKind::SPATIAL.iter().all(|m| !m.is_metric()));
    }

    #[test]
    fn batch_support_and_dispatch() {
        let a = t(&[(0.0, 0.0), (0.3, 0.2), (0.5, 0.5), (0.9, 0.1)]);
        let b = t(&[(0.1, 0.0), (0.6, 0.4)]);
        for kind in [
            MeasureKind::Dtw,
            MeasureKind::Erp,
            MeasureKind::Edr,
            MeasureKind::DiscreteFrechet,
            MeasureKind::Lcss,
        ] {
            let m = kind.measure();
            assert!(m.supports_batch());
            let got = m.distance_batch(&[(&a, &b), (&b, &a)]);
            assert_eq!(got[0].to_bits(), m.distance(&a, &b).to_bits());
            assert_eq!(got[1].to_bits(), m.distance(&b, &a).to_bits());
        }
        assert!(!MeasureKind::Sspd.measure().supports_batch());
        assert!(!MeasureKind::Hausdorff.measure().supports_batch());
        assert!(!MeasureKind::Tp.measure().supports_batch());
        assert!(!MeasureKind::Dita.measure().supports_batch());
    }

    #[test]
    fn serde_roundtrip() {
        let j = serde_json::to_string(&MeasureKind::Dtw).unwrap();
        let back: MeasureKind = serde_json::from_str(&j).unwrap();
        assert_eq!(back, MeasureKind::Dtw);
    }
}
