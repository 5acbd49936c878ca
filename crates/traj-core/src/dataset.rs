//! Trajectory datasets: an owned collection with cached global statistics.

use crate::bbox::BoundingBox;
use crate::error::{Result, TrajError};
use crate::trajectory::Trajectory;

/// A named collection of trajectories, the unit every experiment operates
/// on. Mirrors the paper's `T = {T_1, …, T_N}`.
#[derive(Debug, Clone)]
pub struct TrajectoryDataset {
    name: String,
    trajectories: Vec<Trajectory>,
}

impl TrajectoryDataset {
    /// Wraps trajectories under a dataset name.
    pub fn new(name: impl Into<String>, trajectories: Vec<Trajectory>) -> Self {
        TrajectoryDataset {
            name: name.into(),
            trajectories,
        }
    }

    /// Dataset name (e.g. `"chengdu-like"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of trajectories `N`.
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the dataset holds no trajectories.
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Immutable access to all trajectories.
    pub fn trajectories(&self) -> &[Trajectory] {
        &self.trajectories
    }

    /// Checked access by index.
    pub fn get(&self, index: usize) -> Result<&Trajectory> {
        self.trajectories
            .get(index)
            .ok_or(TrajError::IndexOutOfRange {
                index,
                len: self.trajectories.len(),
            })
    }

    /// Global bounding box over all member trajectories.
    pub fn bbox(&self) -> BoundingBox {
        self.trajectories
            .iter()
            .fold(BoundingBox::empty(), |bb, t| bb.union(&t.bbox()))
    }

    /// Mean number of points per trajectory (`L` in the paper's complexity
    /// discussion).
    pub fn mean_len(&self) -> f64 {
        if self.trajectories.is_empty() {
            return 0.0;
        }
        self.trajectories.iter().map(|t| t.len()).sum::<usize>() as f64
            / self.trajectories.len() as f64
    }

    /// Splits into `(head, tail)` datasets at `fraction ∈ (0,1]` of the
    /// trajectories — used by the Fig. 6 scalability sweep.
    pub fn split(&self, fraction: f64) -> (TrajectoryDataset, TrajectoryDataset) {
        let k = ((self.trajectories.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let k = k.min(self.trajectories.len());
        (
            TrajectoryDataset::new(
                format!("{}[..{k}]", self.name),
                self.trajectories[..k].to_vec(),
            ),
            TrajectoryDataset::new(
                format!("{}[{k}..]", self.name),
                self.trajectories[k..].to_vec(),
            ),
        )
    }

    /// Keeps the first `n` trajectories (or all when fewer exist).
    pub fn take(&self, n: usize) -> TrajectoryDataset {
        let n = n.min(self.trajectories.len());
        TrajectoryDataset::new(self.name.clone(), self.trajectories[..n].to_vec())
    }

    /// Consumes the dataset, returning the trajectories.
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajectories
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> TrajectoryDataset {
        let ts = (0..10)
            .map(|i| {
                Trajectory::from_xy(&[(i as f64, 0.0), (i as f64 + 1.0, 1.0), (i as f64, 2.0)])
                    .unwrap()
            })
            .collect();
        TrajectoryDataset::new("unit", ts)
    }

    #[test]
    fn basic_stats() {
        let d = ds();
        assert_eq!(d.len(), 10);
        assert_eq!(d.mean_len(), 3.0);
        assert_eq!(d.name(), "unit");
        assert!(!d.is_empty());
    }

    #[test]
    fn get_checks_bounds() {
        let d = ds();
        assert!(d.get(9).is_ok());
        assert_eq!(
            d.get(10).unwrap_err(),
            TrajError::IndexOutOfRange { index: 10, len: 10 }
        );
    }

    #[test]
    fn split_fractions() {
        let d = ds();
        let (a, b) = d.split(0.3);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 7);
        let (a, b) = d.split(1.5); // clamped
        assert_eq!(a.len(), 10);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn bbox_spans_dataset() {
        let bb = ds().bbox();
        assert_eq!(bb.min_x, 0.0);
        assert_eq!(bb.max_x, 10.0);
        assert_eq!(bb.max_y, 2.0);
    }

    #[test]
    fn take_limits() {
        assert_eq!(ds().take(4).len(), 4);
        assert_eq!(ds().take(100).len(), 10);
    }
}
