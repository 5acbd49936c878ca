//! Uniform spatial grids: the cell partition used by Neutraj-style
//! preprocessing ("grid-cell" in the paper's Table II) and by the Tedj-style
//! 3-D spatio-temporal grid.

use crate::bbox::BoundingBox;
use crate::error::{Result, TrajError};
use crate::point::Point;
use crate::trajectory::Trajectory;

/// A `cols × rows` uniform partition of a bounding box. Cells are indexed
/// row-major: `cell = row * cols + col`.
#[derive(Debug, Clone)]
pub struct UniformGrid {
    bbox: BoundingBox,
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
}

impl UniformGrid {
    /// Builds a grid over `bbox` with the requested resolution. The box is
    /// inflated by a hair so max-coordinate points land in the last cell.
    pub fn new(bbox: BoundingBox, cols: usize, rows: usize) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(TrajError::InvalidConfig("grid needs cols, rows ≥ 1".into()));
        }
        if bbox.is_empty() || bbox.width() <= 0.0 && bbox.height() <= 0.0 {
            return Err(TrajError::DegenerateRegion);
        }
        let margin = 1e-9 * (1.0 + bbox.width().max(bbox.height()));
        let bbox = bbox.inflate(margin);
        Ok(UniformGrid {
            cell_w: bbox.width() / cols as f64,
            cell_h: bbox.height() / rows as f64,
            bbox,
            cols,
            rows,
        })
    }

    /// Grid covering a dataset bounding box.
    pub fn over(bbox: BoundingBox, resolution: usize) -> Result<Self> {
        UniformGrid::new(bbox, resolution, resolution)
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells (`cols × rows`).
    pub fn num_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Cell id of a point, clamped into the grid for out-of-box points.
    pub fn cell_of(&self, p: &Point) -> usize {
        let cx = ((p.x - self.bbox.min_x) / self.cell_w).floor();
        let cy = ((p.y - self.bbox.min_y) / self.cell_h).floor();
        let col = (cx.max(0.0) as usize).min(self.cols - 1);
        let row = (cy.max(0.0) as usize).min(self.rows - 1);
        row * self.cols + col
    }

    /// `(col, row)` coordinates of a cell id.
    pub fn cell_coords(&self, cell: usize) -> (usize, usize) {
        (cell % self.cols, cell / self.cols)
    }

    /// Center point of a cell.
    pub fn cell_center(&self, cell: usize) -> Point {
        let (col, row) = self.cell_coords(cell);
        Point::new(
            self.bbox.min_x + (col as f64 + 0.5) * self.cell_w,
            self.bbox.min_y + (row as f64 + 0.5) * self.cell_h,
        )
    }

    /// Ids of the up-to-8 neighbouring cells (the Neutraj "neighbor table").
    pub fn neighbors(&self, cell: usize) -> Vec<usize> {
        let (col, row) = self.cell_coords(cell);
        let mut out = Vec::with_capacity(8);
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                if dr == 0 && dc == 0 {
                    continue;
                }
                let nc = col as i64 + dc;
                let nr = row as i64 + dr;
                if nc >= 0 && nr >= 0 && (nc as usize) < self.cols && (nr as usize) < self.rows {
                    out.push(nr as usize * self.cols + nc as usize);
                }
            }
        }
        out
    }

    /// Maps a trajectory to its cell-id sequence.
    pub fn cell_sequence(&self, t: &Trajectory) -> Vec<usize> {
        t.points().iter().map(|p| self.cell_of(p)).collect()
    }
}

/// A 3-D spatio-temporal grid (x, y, t) used by the Tedj-style encoder.
#[derive(Debug, Clone)]
pub struct SpatioTemporalGrid {
    spatial: UniformGrid,
    t_min: f64,
    t_max: f64,
    t_slots: usize,
}

impl SpatioTemporalGrid {
    /// Builds the grid; `t_slots` time buckets over `[t_min, t_max]`.
    pub fn new(spatial: UniformGrid, t_min: f64, t_max: f64, t_slots: usize) -> Result<Self> {
        if t_slots == 0 {
            return Err(TrajError::InvalidConfig(
                "need at least one time slot".into(),
            ));
        }
        if t_max <= t_min {
            return Err(TrajError::DegenerateRegion);
        }
        Ok(SpatioTemporalGrid {
            spatial,
            t_min,
            t_max,
            t_slots,
        })
    }

    /// Total number of st-cells.
    pub fn num_cells(&self) -> usize {
        self.spatial.num_cells() * self.t_slots
    }

    /// Cell id of a (possibly untimestamped) point; untimestamped points map
    /// into time slot 0.
    pub fn cell_of(&self, p: &Point) -> usize {
        let slot = match p.t {
            Some(t) => {
                let u = ((t - self.t_min) / (self.t_max - self.t_min)).clamp(0.0, 1.0);
                ((u * self.t_slots as f64).floor() as usize).min(self.t_slots - 1)
            }
            None => 0,
        };
        slot * self.spatial.num_cells() + self.spatial.cell_of(p)
    }

    /// Maps a trajectory to its st-cell sequence.
    pub fn cell_sequence(&self, t: &Trajectory) -> Vec<usize> {
        t.points().iter().map(|p| self.cell_of(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> UniformGrid {
        UniformGrid::new(BoundingBox::new(0.0, 0.0, 10.0, 10.0), 5, 5).unwrap()
    }

    #[test]
    fn rejects_bad_config() {
        assert!(UniformGrid::new(BoundingBox::new(0.0, 0.0, 1.0, 1.0), 0, 3).is_err());
        assert!(UniformGrid::new(BoundingBox::empty(), 3, 3).is_err());
    }

    #[test]
    fn cell_of_corners() {
        let g = grid();
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), 0);
        // Max corner lands in last cell thanks to inflation.
        assert_eq!(g.cell_of(&Point::new(10.0, 10.0)), 24);
        // Out-of-box points clamp.
        assert_eq!(g.cell_of(&Point::new(-5.0, -5.0)), 0);
        assert_eq!(g.cell_of(&Point::new(50.0, 50.0)), 24);
    }

    #[test]
    fn coords_center_roundtrip() {
        let g = grid();
        for cell in [0usize, 7, 12, 24] {
            let c = g.cell_center(cell);
            assert_eq!(g.cell_of(&c), cell);
        }
    }

    #[test]
    fn neighbor_counts() {
        let g = grid();
        assert_eq!(g.neighbors(0).len(), 3); // corner
        assert_eq!(g.neighbors(2).len(), 5); // edge
        assert_eq!(g.neighbors(12).len(), 8); // interior
    }

    #[test]
    fn cell_sequence_tracks_points() {
        let g = grid();
        let t = Trajectory::from_xy(&[(1.0, 1.0), (9.0, 9.0)]).unwrap();
        let seq = g.cell_sequence(&t);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], 0);
        assert_eq!(seq[1], 24);
    }

    #[test]
    fn st_grid_slots() {
        let g = SpatioTemporalGrid::new(grid(), 0.0, 100.0, 4).unwrap();
        assert_eq!(g.num_cells(), 100);
        let early = Point::with_time(1.0, 1.0, 5.0);
        let late = Point::with_time(1.0, 1.0, 99.0);
        assert_eq!(g.cell_of(&early), 0);
        assert_eq!(g.cell_of(&late), 3 * 25);
        // Untimestamped → slot 0.
        assert_eq!(g.cell_of(&Point::new(1.0, 1.0)), 0);
    }

    #[test]
    fn st_grid_rejects_degenerate_time() {
        assert!(SpatioTemporalGrid::new(grid(), 5.0, 5.0, 4).is_err());
        assert!(SpatioTemporalGrid::new(grid(), 0.0, 1.0, 0).is_err());
    }
}
