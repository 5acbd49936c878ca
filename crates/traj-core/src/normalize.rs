//! Coordinate normalization.
//!
//! Embedding models want inputs in a stable numeric range; raw lon/lat (or
//! simulator meters) are first mapped into the unit square, timestamps into
//! `[0, 1]`. The transform is invertible so retrieval results can be mapped
//! back to original coordinates.

use crate::bbox::BoundingBox;
use crate::dataset::TrajectoryDataset;
use crate::error::{Result, TrajError};
use crate::point::Point;
use crate::trajectory::Trajectory;

/// An affine spatial (+ optional temporal) normalizer fitted on a dataset.
#[derive(Debug, Clone)]
pub struct Normalizer {
    bbox: BoundingBox,
    scale: f64,
    t_min: f64,
    t_span: f64,
}

impl Normalizer {
    /// Fits on a dataset: records the bounding box and time span.
    pub fn fit(dataset: &TrajectoryDataset) -> Result<Self> {
        let bbox = dataset.bbox();
        if bbox.is_empty() {
            return Err(TrajError::DegenerateRegion);
        }
        let span = bbox.width().max(bbox.height());
        if span <= 0.0 {
            return Err(TrajError::DegenerateRegion);
        }
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        for t in dataset.trajectories() {
            for p in t.points() {
                if let Some(ts) = p.t {
                    t_min = t_min.min(ts);
                    t_max = t_max.max(ts);
                }
            }
        }
        let (t_min, t_span) = if t_min.is_finite() && t_max > t_min {
            (t_min, t_max - t_min)
        } else {
            (0.0, 1.0)
        };
        Ok(Normalizer {
            bbox,
            scale: span,
            t_min,
            t_span,
        })
    }

    /// Normalizes one point into the unit square (aspect-ratio preserving).
    pub fn point(&self, p: &Point) -> Point {
        Point {
            x: (p.x - self.bbox.min_x) / self.scale,
            y: (p.y - self.bbox.min_y) / self.scale,
            t: p.t.map(|t| (t - self.t_min) / self.t_span),
        }
    }

    /// Inverse of [`Normalizer::point`].
    pub fn denormalize_point(&self, p: &Point) -> Point {
        Point {
            x: p.x * self.scale + self.bbox.min_x,
            y: p.y * self.scale + self.bbox.min_y,
            t: p.t.map(|t| t * self.t_span + self.t_min),
        }
    }

    /// Normalizes a whole trajectory.
    pub fn trajectory(&self, t: &Trajectory) -> Trajectory {
        let pts = t.points().iter().map(|p| self.point(p)).collect();
        Trajectory::new(pts).expect("normalization preserves validity")
    }

    /// Normalizes a whole dataset (name suffixed with `-norm`).
    pub fn dataset(&self, d: &TrajectoryDataset) -> TrajectoryDataset {
        TrajectoryDataset::new(
            format!("{}-norm", d.name()),
            d.trajectories()
                .iter()
                .map(|t| self.trajectory(t))
                .collect(),
        )
    }

    /// The spatial scale (meters per unit) the normalizer divides by.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> TrajectoryDataset {
        TrajectoryDataset::new(
            "n",
            vec![
                Trajectory::from_xyt(&[(100.0, 200.0, 1000.0), (300.0, 250.0, 1600.0)]).unwrap(),
                Trajectory::from_xyt(&[(150.0, 220.0, 1200.0), (120.0, 400.0, 2000.0)]).unwrap(),
            ],
        )
    }

    #[test]
    fn normalized_in_unit_square() {
        let d = ds();
        let n = Normalizer::fit(&d).unwrap();
        let nd = n.dataset(&d);
        for t in nd.trajectories() {
            for p in t.points() {
                assert!((0.0..=1.0).contains(&p.x), "x={} out of range", p.x);
                assert!((0.0..=1.0).contains(&p.y));
                let tt = p.t.unwrap();
                assert!((0.0..=1.0).contains(&tt));
            }
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let d = ds();
        let n = Normalizer::fit(&d).unwrap();
        let p = Point::with_time(123.0, 321.0, 1500.0);
        let back = n.denormalize_point(&n.point(&p));
        assert!((back.x - p.x).abs() < 1e-9);
        assert!((back.y - p.y).abs() < 1e-9);
        assert!((back.t.unwrap() - p.t.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn aspect_ratio_preserved() {
        // x-span 200, y-span 200 → same scale for both axes.
        let d = ds();
        let n = Normalizer::fit(&d).unwrap();
        let a = n.point(&Point::new(100.0, 200.0));
        let b = n.point(&Point::new(300.0, 400.0));
        assert!((b.x - a.x - (b.y - a.y)).abs() < 1e-12);
    }

    #[test]
    fn untimestamped_ok() {
        let d = TrajectoryDataset::new(
            "u",
            vec![Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]).unwrap()],
        );
        let n = Normalizer::fit(&d).unwrap();
        let nd = n.dataset(&d);
        assert!(!nd.trajectories()[0].is_timestamped());
    }

    #[test]
    fn degenerate_dataset_rejected() {
        let d = TrajectoryDataset::new(
            "deg",
            vec![Trajectory::from_xy(&[(5.0, 5.0), (5.0, 5.0)]).unwrap()],
        );
        assert!(Normalizer::fit(&d).is_err());
    }
}
