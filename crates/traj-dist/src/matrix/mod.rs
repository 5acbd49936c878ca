//! Parallel pairwise ground-truth distance matrices.
//!
//! Training needs `Dist*(T_i, T_j)` for many pairs; with O(L²) measures and
//! N trajectories this is the dominant CPU cost of every experiment. The
//! [`builder`] submodule owns construction — one parallel executor behind
//! an optionally pruned and cached [`MatrixBuilder`] pipeline — while this
//! module keeps the dense [`DistanceMatrix`] container and the historical
//! one-call entry points ([`pairwise_matrix`], [`cross_matrix`]), which are
//! now thin wrappers over the builder's defaults. The [`wavefront`]
//! submodule holds the lockstep kernels the executor runs wherever a
//! batched kernel exists: length-bucketed pairs run [`wavefront::LANES`]
//! at a time along DP anti-diagonals, bit-identical to the scalar kernels.

pub mod builder;
pub mod cache;
pub mod wavefront;

pub use builder::{BuildReport, CacheOutcome, MatrixBuild, MatrixBuilder, Schedule};
pub use cache::CacheError;

use crate::measure::Measure;
use serde::{Deserialize, Serialize};
use traj_core::Trajectory;

/// A dense row-major distance matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistanceMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Neumaier-compensated sum: tracks the low-order bits the running sum
/// drops, so means over millions of entries (or mixed-magnitude data)
/// don't accumulate O(n·ε) error the way a naive fold does.
fn compensated_sum(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut compensation = 0.0;
    for v in values {
        let t = sum + v;
        compensation += if sum.abs() >= v.abs() {
            (sum - t) + v
        } else {
            (v - t) + sum
        };
        sum = t;
    }
    sum + compensation
}

impl DistanceMatrix {
    /// Builds from raw parts; `data.len()` must equal `rows*cols`.
    pub fn from_raw(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        DistanceMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance at `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Flat data slice (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mean of all entries (used to normalize training targets).
    /// Compensated, so it stays accurate on `1e6+`-entry matrices of tiny
    /// or mixed-magnitude values.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        compensated_sum(self.data.iter().copied()) / self.data.len() as f64
    }

    /// Mean of off-diagonal entries for square matrices; plain mean
    /// otherwise. The diagonal of a self-distance matrix is all zeros and
    /// would bias the scale.
    pub fn off_diagonal_mean(&self) -> f64 {
        if self.rows != self.cols || self.rows < 2 {
            return self.mean();
        }
        let n = self.cols;
        let off_diagonal = self
            .data
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx / n != idx % n)
            .map(|(_, &v)| v);
        compensated_sum(off_diagonal) / (self.rows * (self.rows - 1)) as f64
    }

    /// Indices of the `k` smallest entries of row `i`, excluding `skip`
    /// (typically the query itself), ascending by distance with index
    /// tie-break.
    ///
    /// Uses the shared bounded selector ([`traj_core::topk`]): O(cols
    /// log k) instead of a full sort, and `total_cmp`-deterministic even
    /// when entries are non-finite.
    pub fn knn_of_row(&self, i: usize, k: usize, skip: Option<usize>) -> Vec<usize> {
        traj_core::topk::topk_indices(self.row(i), k, skip)
    }
}

/// Full symmetric N×N matrix of `measure` over `trajs`: the builder's
/// default executor with pruning and caching off.
pub fn pairwise_matrix(trajs: &[Trajectory], measure: &Measure) -> DistanceMatrix {
    MatrixBuilder::new(*measure).build_pairwise(trajs).matrix
}

/// Rectangular |queries| × |base| matrix (e.g. query set against database),
/// built with the same defaults as [`pairwise_matrix`].
pub fn cross_matrix(
    queries: &[Trajectory],
    base: &[Trajectory],
    measure: &Measure,
) -> DistanceMatrix {
    MatrixBuilder::new(*measure)
        .build_cross(queries, base)
        .matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureKind;

    fn trajs() -> Vec<Trajectory> {
        (0..8)
            .map(|i| {
                let o = i as f64;
                Trajectory::from_xy(&[(o, 0.0), (o + 1.0, 0.5), (o + 2.0, 0.0)]).unwrap()
            })
            .collect()
    }

    #[test]
    fn pairwise_symmetric_zero_diagonal() {
        let ts = trajs();
        let m = pairwise_matrix(&ts, &MeasureKind::Dtw.measure());
        for i in 0..ts.len() {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..ts.len() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn pairwise_matches_direct_calls() {
        let ts = trajs();
        let meas = MeasureKind::Sspd.measure();
        let m = pairwise_matrix(&ts, &meas);
        assert!((m.get(1, 4) - meas.distance(&ts[1], &ts[4])).abs() < 1e-12);
        assert!((m.get(0, 7) - meas.distance(&ts[0], &ts[7])).abs() < 1e-12);
    }

    #[test]
    fn cross_matrix_shape_and_values() {
        let ts = trajs();
        let meas = MeasureKind::Dtw.measure();
        let m = cross_matrix(&ts[..3], &ts, &meas);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 8);
        assert!((m.get(2, 5) - meas.distance(&ts[2], &ts[5])).abs() < 1e-12);
    }

    #[test]
    fn knn_orders_by_distance() {
        let ts = trajs();
        let m = pairwise_matrix(&ts, &MeasureKind::Dtw.measure());
        let knn = m.knn_of_row(0, 3, Some(0));
        assert_eq!(
            knn,
            vec![1, 2, 3],
            "nearest trajectories are consecutive offsets"
        );
    }

    #[test]
    fn off_diagonal_mean_skips_the_diagonal() {
        let m = DistanceMatrix::from_raw(2, 2, vec![5.0, 1.0, 3.0, 7.0]);
        assert_eq!(m.off_diagonal_mean(), 2.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_raw_checks_shape() {
        let _ = DistanceMatrix::from_raw(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn knn_deterministic_with_ties_and_nan() {
        let m = DistanceMatrix::from_raw(1, 6, vec![0.5, f64::NAN, 0.5, 0.1, f64::NAN, 0.5]);
        // Ties break by index; NaNs sort last (total order) instead of
        // shuffling the result.
        assert_eq!(m.knn_of_row(0, 4, None), vec![3, 0, 2, 5]);
        assert_eq!(m.knn_of_row(0, 6, Some(3)), vec![0, 2, 5, 1, 4]);
    }

    /// Mixed-magnitude cancellation on a 1e6-entry matrix: the repeating
    /// pattern `[1e17, 0.5, -1e17, 0.5]` sums to exactly 1.0 per quad,
    /// but a naive running sum absorbs each 0.5 into 1e17 (whose ULP is
    /// 16) and loses half the mass. The compensated sum keeps it.
    #[test]
    fn mean_is_compensated_on_large_mixed_matrices() {
        let n = 1000;
        let data: Vec<f64> = (0..n * n)
            .map(|i| match i % 4 {
                0 => 1e17,
                2 => -1e17,
                _ => 0.5,
            })
            .collect();
        let naive: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let m = DistanceMatrix::from_raw(n, n, data);
        let expected = 0.25; // two 0.5s per four entries
        assert!(
            (m.mean() - expected).abs() < 1e-12,
            "compensated mean drifted: {}",
            m.mean()
        );
        assert!(
            (naive - expected).abs() > 0.1,
            "naive sum unexpectedly fine ({naive}); the regression test lost its teeth"
        );
    }

    /// 1e6 tiny equal entries: the compensated mean is exact to within a
    /// few ULP, where a naive sequential sum admits O(n·ε) drift.
    #[test]
    fn mean_of_many_tiny_values_is_exact() {
        let n = 1000;
        let tiny = 1e-9;
        let m = DistanceMatrix::from_raw(n, n, vec![tiny; n * n]);
        assert!((m.mean() - tiny).abs() < tiny * 1e-14);
        // Square matrix with a zero diagonal: off-diagonal mean rescales
        // by n·(n-1) without losing the tiny magnitudes either.
        let mut data = vec![tiny; n * n];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        let m = DistanceMatrix::from_raw(n, n, data);
        assert!((m.off_diagonal_mean() - tiny).abs() < tiny * 1e-14);
    }

    #[test]
    fn off_diagonal_mean_still_skips_diagonal() {
        // 3×3 with huge diagonal: off-diagonal mean must ignore it.
        let mut data = vec![2.0; 9];
        for i in 0..3 {
            data[i * 3 + i] = 1e12;
        }
        let m = DistanceMatrix::from_raw(3, 3, data);
        assert!((m.off_diagonal_mean() - 2.0).abs() < 1e-12);
    }
}
