//! 2-D points with an optional timestamp, matching the paper's
//! `p_i = (lon_i, lat_i)` / `p_i = (lon_i, lat_i, t_i)` definitions.

use serde::{Deserialize, Serialize};

/// A single trajectory sample: longitude/latitude (here treated as planar
/// x/y after normalization) with an optional timestamp in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Longitude (or planar x).
    pub x: f64,
    /// Latitude (or planar y).
    pub y: f64,
    /// Timestamp in seconds since the trajectory epoch, if recorded.
    pub t: Option<f64>,
}

impl Point {
    /// Creates an untimestamped point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y, t: None }
    }

    /// Creates a timestamped point.
    #[inline]
    pub fn with_time(x: f64, y: f64, t: f64) -> Self {
        Point { x, y, t: Some(t) }
    }

    /// Euclidean distance to another point (spatial only).
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the sqrt in hot loops).
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Absolute timestamp difference; zero when either side lacks a time.
    #[inline]
    pub fn time_gap(&self, other: &Point) -> f64 {
        match (self.t, other.t) {
            (Some(a), Some(b)) => (a - b).abs(),
            _ => 0.0,
        }
    }

    /// True when all coordinates (and the timestamp, if present) are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.t.is_none_or(|t| t.is_finite())
    }

    /// Linear interpolation between `self` and `other` at fraction `u ∈ [0,1]`.
    pub fn lerp(&self, other: &Point, u: f64) -> Point {
        let t = match (self.t, other.t) {
            (Some(a), Some(b)) => Some(a + (b - a) * u),
            _ => None,
        };
        Point {
            x: self.x + (other.x - self.x) * u,
            y: self.y + (other.y - self.y) * u,
            t,
        }
    }
}

/// Distance from point `p` to the segment `[a, b]` (used by SSPD/segment
/// measures). Falls back to point distance for degenerate segments.
pub fn point_segment_distance(p: &Point, a: &Point, b: &Point) -> f64 {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len_sq = abx * abx + aby * aby;
    if len_sq <= f64::EPSILON {
        return p.dist(a);
    }
    let u = ((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq;
    let u = u.clamp(0.0, 1.0);
    let proj = Point::new(a.x + u * abx, a.y + u * aby);
    p.dist(&proj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn dist_symmetric_and_zero_on_self() {
        let a = Point::new(1.5, -2.25);
        let b = Point::new(-0.5, 9.0);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn time_gap_requires_both_timestamps() {
        let a = Point::with_time(0.0, 0.0, 10.0);
        let b = Point::with_time(0.0, 0.0, 4.0);
        let c = Point::new(0.0, 0.0);
        assert_eq!(a.time_gap(&b), 6.0);
        assert_eq!(a.time_gap(&c), 0.0);
    }

    #[test]
    fn lerp_midpoint() {
        let a = Point::with_time(0.0, 0.0, 0.0);
        let b = Point::with_time(2.0, 4.0, 10.0);
        let m = a.lerp(&b, 0.5);
        assert_eq!(m.x, 1.0);
        assert_eq!(m.y, 2.0);
        assert_eq!(m.t, Some(5.0));
    }

    #[test]
    fn segment_distance_interior_and_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // Directly above the middle of the segment.
        let p = Point::new(5.0, 3.0);
        assert!((point_segment_distance(&p, &a, &b) - 3.0).abs() < 1e-12);
        // Beyond the right endpoint: clamps to endpoint distance.
        let q = Point::new(13.0, 4.0);
        assert!((point_segment_distance(&q, &a, &b) - 5.0).abs() < 1e-12);
        // Degenerate segment behaves as point distance.
        let r = Point::new(1.0, 1.0);
        assert!((point_segment_distance(&r, &a, &a) - r.dist(&a)).abs() < 1e-12);
    }

    #[test]
    fn finiteness_check() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::with_time(1.0, 2.0, f64::INFINITY).is_finite());
    }
}
