//! One recurrence per dynamic-programming measure, and the row-major
//! driver that walks it.
//!
//! DTW, ERP, EDR, discrete Fréchet and LCSS fill an `(n+1)×(m+1)` table
//! whose interior cell reads only its three neighbours `(diag, up, left)`
//! and the two points it aligns. Each measure states that recurrence once,
//! as a [`Cell`]; two drivers walk it:
//!
//! * [`distance`] / [`distance_pruned`] here, row by row over two rolling
//!   rows (O(min(n,m)) memory for DTW, which keeps the shorter trajectory
//!   on the inner axis), with an optional early-abandon threshold;
//! * [`crate::matrix::wavefront`], along anti-diagonals for a batch of
//!   pairs in SIMD lockstep.
//!
//! Both call the same `Cell` methods on the same operands, so the two
//! tiers agree bit for bit by construction.

use crate::measure::PrunedDistance;
use traj_core::{Point, Trajectory};

/// A point as a [`Cell`] reads it: its coordinates plus the measure's
/// per-point term, computed once per point rather than once per cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pt {
    pub x: f64,
    pub y: f64,
    /// ERP's gap cost `d(p, g)`; zero for every other measure.
    pub gap: f64,
}

impl Pt {
    /// Squared Euclidean distance, operand for operand [`Point::dist_sq`].
    #[inline(always)]
    pub fn dist_sq(self, o: Pt) -> f64 {
        let dx = self.x - o.x;
        let dy = self.y - o.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance, operand for operand [`Point::dist`].
    #[inline(always)]
    pub fn dist(self, o: Pt) -> f64 {
        self.dist_sq(o).sqrt()
    }

    /// Whether both coordinate deltas are within `eps` (the L∞ ball of
    /// EDR and LCSS). A NaN `eps` matches nothing.
    #[inline(always)]
    pub fn within(self, o: Pt, eps: f64) -> bool {
        ((self.x - o.x).abs() <= eps) & ((self.y - o.y).abs() <= eps)
    }
}

/// One DP measure's recurrence over an `(n+1)×(m+1)` table whose origin
/// `dp[0][0]` is 0.
pub(crate) trait Cell: Copy {
    /// Whether the DP runs with the longer trajectory on the row axis
    /// (DTW keeps the shorter one inner).
    const SWAP: bool = false;
    /// Whether [`distance_pruned`] may abandon: every row minimum must
    /// lower-bound the final cell, and [`Cell::finish`] must be monotone.
    const ABANDONS: bool = false;

    /// The per-point term of [`Pt::gap`].
    #[inline(always)]
    fn gap(&self, _p: &Point) -> f64 {
        0.0
    }

    /// The boundary cell `dp[k][0]` (`p = a_k`) or `dp[0][k]` (`p = b_k`),
    /// `k ≥ 1`, from the boundary cell before it.
    fn edge(&self, k: usize, prev: f64, p: Pt) -> f64;

    /// The interior cell `dp[i][j]` aligning `a = a_i` with `b = b_j`.
    fn cell(&self, diag: f64, up: f64, left: f64, a: Pt, b: Pt) -> f64;

    /// The distance from the final cell of an `n×m` alignment.
    #[inline(always)]
    fn finish(&self, last: f64, _n: usize, _m: usize) -> f64 {
        last
    }

    /// `p` as the cell reads it.
    #[inline(always)]
    fn pt(&self, p: &Point) -> Pt {
        Pt {
            x: p.x,
            y: p.y,
            gap: self.gap(p),
        }
    }

    /// `(a, b)` in the table's (row, column) orientation.
    #[inline(always)]
    fn orient<'t>(&self, a: &'t Trajectory, b: &'t Trajectory) -> (&'t Trajectory, &'t Trajectory) {
        if Self::SWAP && b.len() > a.len() {
            (b, a)
        } else {
            (a, b)
        }
    }
}

/// Rows between early-abandon checks. Every row would be admissible too,
/// but the O(m) scan then costs a constant fraction of the DP itself;
/// every 4th row keeps the overhead near noise while abandoning at most 3
/// rows late.
const CHECK_EVERY: usize = 4;

/// Walks the table of `(a, b)`, already oriented, row by row. With a
/// threshold, the minimum of row `i` (column 0 included) is checked when
/// `i` is a multiple of [`CHECK_EVERY`] and not the last row, and the walk
/// stops with that minimum once it exceeds the threshold. Returns the raw
/// final cell (or row minimum), before [`Cell::finish`].
fn walk<C: Cell>(
    cell: C,
    a: &Trajectory,
    b: &Trajectory,
    threshold: Option<f64>,
) -> PrunedDistance {
    let cols: Vec<Pt> = b.points().iter().map(|p| cell.pt(p)).collect();
    let mut prev = Vec::with_capacity(cols.len() + 1);
    prev.push(0.0);
    for (k, &q) in cols.iter().enumerate() {
        prev.push(cell.edge(k + 1, prev[k], q));
    }
    let mut cur = vec![0.0; prev.len()];
    let n = a.len();
    for (i, p) in (1..).zip(a.points()) {
        let p = cell.pt(p);
        cur[0] = cell.edge(i, prev[0], p);
        let mut left = cur[0];
        for ((c, up), &q) in cur[1..].iter_mut().zip(prev.windows(2)).zip(&cols) {
            left = cell.cell(up[0], up[1], left, p, q);
            *c = left;
        }
        std::mem::swap(&mut prev, &mut cur);
        if let Some(threshold) = threshold {
            if i < n && i % CHECK_EVERY == 0 {
                let row_min = prev.iter().copied().fold(f64::INFINITY, f64::min);
                if row_min > threshold {
                    return PrunedDistance::LowerBound(row_min);
                }
            }
        }
    }
    PrunedDistance::Exact(prev[cols.len()])
}

/// The raw final cell of the table, before [`Cell::finish`].
pub(crate) fn last_cell<C: Cell>(cell: C, a: &Trajectory, b: &Trajectory) -> f64 {
    let (a, b) = cell.orient(a, b);
    walk(cell, a, b, None).value()
}

/// The measure's distance.
pub(crate) fn distance<C: Cell>(cell: C, a: &Trajectory, b: &Trajectory) -> f64 {
    cell.finish(last_cell(cell, a, b), a.len(), b.len())
}

/// The measure's distance, abandoned at `threshold` where the cell allows
/// it (see [`PrunedDistance`] for the admissibility contract): every
/// alignment path crosses every row and the cell costs are non-negative,
/// so a row minimum lower-bounds the final cell.
pub(crate) fn distance_pruned<C: Cell>(
    cell: C,
    a: &Trajectory,
    b: &Trajectory,
    threshold: f64,
) -> PrunedDistance {
    let (n, m) = (a.len(), b.len());
    let (a, b) = cell.orient(a, b);
    match walk(cell, a, b, C::ABANDONS.then_some(threshold)) {
        PrunedDistance::Exact(d) => PrunedDistance::Exact(cell.finish(d, n, m)),
        PrunedDistance::LowerBound(d) => PrunedDistance::LowerBound(cell.finish(d, n, m)),
    }
}

/// Evaluates `$dp` with `$c` bound to the measure's [`Cell`], or the
/// match arms that follow for the measures that are not DPs:
/// `with_cell!(measure, c => dp::distance(c, a, b), _ => other)`.
macro_rules! with_cell {
    ($measure:expr, $c:ident => $dp:expr, $($rest:tt)*) => {{
        use $crate::measure::MeasureKind;
        let measure: &$crate::measure::Measure = $measure;
        match measure.kind {
            MeasureKind::Dtw => {
                let $c = $crate::dtw::Dtw;
                $dp
            }
            MeasureKind::Erp => {
                let $c = $crate::erp::Erp { g: measure.erp_gap };
                $dp
            }
            MeasureKind::Edr => {
                let $c = $crate::edr::Edr { eps: measure.edr_eps };
                $dp
            }
            MeasureKind::DiscreteFrechet => {
                let $c = $crate::frechet::Frechet;
                $dp
            }
            MeasureKind::Lcss => {
                let $c = $crate::lcss::Lcss { eps: measure.lcss_eps };
                $dp
            }
            $($rest)*
        }
    }};
}
pub(crate) use with_cell;
