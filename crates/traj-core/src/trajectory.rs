//! Variable-length trajectories `T = [p_1, …, p_n]`.

use crate::bbox::BoundingBox;
use crate::error::{Result, TrajError};
use crate::point::Point;

/// A trajectory: a non-empty ordered sequence of points, all timestamped or
/// all untimestamped, validated on construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<Point>,
}

impl Trajectory {
    /// Builds a trajectory, validating non-emptiness, finiteness, timestamp
    /// consistency and monotonicity.
    pub fn new(points: Vec<Point>) -> Result<Self> {
        if points.is_empty() {
            return Err(TrajError::EmptyTrajectory);
        }
        let timestamped = points[0].t.is_some();
        let mut last_t = f64::NEG_INFINITY;
        for (i, p) in points.iter().enumerate() {
            if !p.is_finite() {
                return Err(TrajError::NonFiniteCoordinate { index: i });
            }
            if p.t.is_some() != timestamped {
                return Err(TrajError::InconsistentTimestamps);
            }
            if let Some(t) = p.t {
                if t < last_t {
                    return Err(TrajError::NonMonotonicTimestamps { index: i });
                }
                last_t = t;
            }
        }
        Ok(Trajectory { points })
    }

    /// Builds a trajectory from `(x, y)` pairs.
    pub fn from_xy(coords: &[(f64, f64)]) -> Result<Self> {
        Trajectory::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    /// Builds a trajectory from `(x, y, t)` triples.
    pub fn from_xyt(coords: &[(f64, f64, f64)]) -> Result<Self> {
        Trajectory::new(
            coords
                .iter()
                .map(|&(x, y, t)| Point::with_time(x, y, t))
                .collect(),
        )
    }

    /// The underlying point slice.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A trajectory is never empty by construction; provided for clippy's
    /// `len_without_is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether points carry timestamps.
    #[inline]
    pub fn is_timestamped(&self) -> bool {
        self.points[0].t.is_some()
    }

    /// Total polyline length (sum of consecutive point distances).
    pub fn path_length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].dist(&w[1]))
            .sum::<f64>()
    }

    /// Axis-aligned bounding box of the trajectory.
    pub fn bbox(&self) -> BoundingBox {
        let mut bb = BoundingBox::empty();
        for p in &self.points {
            bb.extend(p.x, p.y);
        }
        bb
    }

    /// Centroid of the point set.
    pub fn centroid(&self) -> Point {
        let n = self.points.len() as f64;
        let (sx, sy) = self
            .points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Point::new(sx / n, sy / n)
    }

    /// Uniformly resamples the polyline to exactly `m ≥ 2` points by arc
    /// length. Timestamps are interpolated when present.
    pub fn resample(&self, m: usize) -> Result<Trajectory> {
        if m < 2 {
            return Err(TrajError::InvalidConfig(
                "resample target must be at least 2 points".into(),
            ));
        }
        if self.points.len() == 1 {
            return Trajectory::new(vec![self.points[0]; m]);
        }
        let total = self.path_length();
        if total <= f64::EPSILON {
            return Trajectory::new(vec![self.points[0]; m]);
        }
        let mut out = Vec::with_capacity(m);
        out.push(self.points[0]);
        let mut seg = 0usize;
        let mut seg_start_acc = 0.0;
        let mut seg_len = self.points[0].dist(&self.points[1]);
        for i in 1..m - 1 {
            let target = total * (i as f64) / ((m - 1) as f64);
            while seg_start_acc + seg_len < target && seg + 2 < self.points.len() {
                seg_start_acc += seg_len;
                seg += 1;
                seg_len = self.points[seg].dist(&self.points[seg + 1]);
            }
            let u = if seg_len <= f64::EPSILON {
                0.0
            } else {
                ((target - seg_start_acc) / seg_len).clamp(0.0, 1.0)
            };
            out.push(self.points[seg].lerp(&self.points[seg + 1], u));
        }
        out.push(*self.points.last().expect("non-empty"));
        Trajectory::new(out)
    }
}

impl std::ops::Index<usize> for Trajectory {
    type Output = Point;
    fn index(&self, i: usize) -> &Point {
        &self.points[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zigzag() -> Trajectory {
        Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)]).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Trajectory::new(vec![]).unwrap_err(),
            TrajError::EmptyTrajectory
        );
    }

    #[test]
    fn rejects_nan() {
        let err = Trajectory::from_xy(&[(0.0, 0.0), (f64::NAN, 1.0)]).unwrap_err();
        assert_eq!(err, TrajError::NonFiniteCoordinate { index: 1 });
    }

    #[test]
    fn rejects_mixed_timestamps() {
        let pts = vec![Point::with_time(0.0, 0.0, 0.0), Point::new(1.0, 1.0)];
        assert_eq!(
            Trajectory::new(pts).unwrap_err(),
            TrajError::InconsistentTimestamps
        );
    }

    #[test]
    fn rejects_decreasing_timestamps() {
        let err = Trajectory::from_xyt(&[(0.0, 0.0, 5.0), (1.0, 1.0, 3.0)]).unwrap_err();
        assert_eq!(err, TrajError::NonMonotonicTimestamps { index: 1 });
    }

    #[test]
    fn path_length_sums_segments() {
        assert!((zigzag().path_length() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn timestamps_are_detected() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 10.0), (1.0, 0.0, 25.0)]).unwrap();
        assert!(t.is_timestamped());
        assert!(!zigzag().is_timestamped());
    }

    #[test]
    fn centroid_is_mean() {
        let c = zigzag().centroid();
        assert!((c.x - 1.0).abs() < 1e-12);
        assert!((c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resample_preserves_endpoints_and_count() {
        let t = zigzag();
        let r = t.resample(7).unwrap();
        assert_eq!(r.len(), 7);
        assert_eq!(r[0], t[0]);
        assert_eq!(r[6], t[3]);
        // Path length is preserved up to polyline discretization (resampled
        // path can only be shorter or equal).
        assert!(r.path_length() <= t.path_length() + 1e-9);
    }

    #[test]
    fn resample_interpolates_time() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (10.0, 0.0, 100.0)]).unwrap();
        let r = t.resample(3).unwrap();
        let mid = r[1];
        assert!((mid.x - 5.0).abs() < 1e-9);
        assert!((mid.t.unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bbox_covers_all_points() {
        let bb = zigzag().bbox();
        assert_eq!(bb.min_x, 0.0);
        assert_eq!(bb.max_x, 2.0);
        assert_eq!(bb.max_y, 1.0);
    }
}
