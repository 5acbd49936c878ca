//! Full-matrix DP oracles vs the shipped rolling-buffer kernels.
//!
//! The production DTW/ERP/EDR/LCSS kernels keep only 2 rolling rows
//! (O(min(n,m)) memory). The textbook O(n·m) full-table formulation is
//! retained here as the regression oracle: every kernel must agree with
//! its full-matrix counterpart **bit for bit**, which pins down not just
//! the recurrence but the exact floating-point evaluation order. Any
//! future "optimization" that reassociates a sum or reorders a `min`
//! chain trips these proptests immediately.
//!
//! SSPD, Hausdorff and discrete Fréchet get the same treatment against
//! the plain per-pair loops: a `sqrt` per segment or cell and no early
//! exit. Their kernels compare squared distances and take one `sqrt` at
//! the end, which is exact because `sqrt` is correctly rounded and hence
//! monotone, so it commutes with `min` and `max` bit for bit.
//!
//! The same full tables pin early abandoning: `distance_pruned` must stop
//! at the oracle's row with the oracle's row-minimum bits.

use proptest::prelude::*;
use traj_core::point::point_segment_distance;
use traj_core::{Point, Trajectory};
use traj_dist::{
    discrete_frechet, dtw, edr, erp, hausdorff, lcss_distance, sspd, Measure, MeasureKind,
    PrunedDistance,
};

/// Textbook DTW over a full (n+1)×(m+1) table, no operand swap: the
/// rolling kernel's long/short swap must be value-transparent (it is —
/// `(a−b)² == (b−a)²` exactly and the min set is transposed unchanged).
fn dtw_full(a: &Trajectory, b: &Trajectory) -> f64 {
    *dtw_table(a, b).last().unwrap()
}

/// The (n+1)×(m+1) DTW table, row-major.
fn dtw_table(a: &Trajectory, b: &Trajectory) -> Vec<f64> {
    let (ap, bp) = (a.points(), b.points());
    let (n, m) = (ap.len(), bp.len());
    let mut dp = vec![f64::INFINITY; (n + 1) * (m + 1)];
    dp[0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let cost = ap[i - 1].dist(&bp[j - 1]);
            let diag = dp[(i - 1) * (m + 1) + (j - 1)];
            let up = dp[(i - 1) * (m + 1) + j];
            let left = dp[i * (m + 1) + (j - 1)];
            dp[i * (m + 1) + j] = cost + diag.min(up).min(left);
        }
    }
    dp
}

/// Full-table ERP with the same boundary accumulation order as the
/// rolling kernel (sequential prefix sums of gap costs).
fn erp_full(a: &Trajectory, b: &Trajectory, g: &Point) -> f64 {
    *erp_table(a, b, g).last().unwrap()
}

/// The (n+1)×(m+1) ERP table, row-major.
fn erp_table(a: &Trajectory, b: &Trajectory, g: &Point) -> Vec<f64> {
    let (ap, bp) = (a.points(), b.points());
    let (n, m) = (ap.len(), bp.len());
    let w = m + 1;
    let mut dp = vec![0.0f64; (n + 1) * w];
    for j in 1..=m {
        dp[j] = dp[j - 1] + bp[j - 1].dist(g);
    }
    for i in 1..=n {
        dp[i * w] = dp[(i - 1) * w] + ap[i - 1].dist(g);
        for j in 1..=m {
            let match_cost = dp[(i - 1) * w + (j - 1)] + ap[i - 1].dist(&bp[j - 1]);
            let del_a = dp[(i - 1) * w + j] + ap[i - 1].dist(g);
            let del_b = dp[i * w + (j - 1)] + bp[j - 1].dist(g);
            dp[i * w + j] = match_cost.min(del_a).min(del_b);
        }
    }
    dp
}

/// Full-table EDR (integer edit counts; "bit identity" is plain equality).
fn edr_full(a: &Trajectory, b: &Trajectory, eps: f64) -> f64 {
    *edr_table(a, b, eps).last().unwrap() as f64
}

/// The (n+1)×(m+1) EDR table, row-major.
fn edr_table(a: &Trajectory, b: &Trajectory, eps: f64) -> Vec<u32> {
    let (ap, bp) = (a.points(), b.points());
    let (n, m) = (ap.len(), bp.len());
    let w = m + 1;
    let mut dp = vec![0u32; (n + 1) * w];
    for (j, cell) in dp.iter_mut().enumerate().take(m + 1) {
        *cell = j as u32;
    }
    for i in 1..=n {
        dp[i * w] = i as u32;
        for j in 1..=m {
            let p = &ap[i - 1];
            let q = &bp[j - 1];
            let sub = if (p.x - q.x).abs() <= eps && (p.y - q.y).abs() <= eps {
                0
            } else {
                1
            };
            dp[i * w + j] = (dp[(i - 1) * w + (j - 1)] + sub)
                .min(dp[(i - 1) * w + j] + 1)
                .min(dp[i * w + (j - 1)] + 1);
        }
    }
    dp
}

/// The early-abandon contract on a full row-major table of `width`
/// columns: after every 4th row, never after the last, the row minimum
/// (column 0 included) is checked, and the first one above `threshold`
/// is the lower bound. Otherwise the final cell is exact.
fn abandon_full(table: &[f64], width: usize, threshold: f64) -> PrunedDistance {
    let last_row = table.len() / width - 1;
    for i in (4..last_row).step_by(4) {
        let row = &table[i * width..(i + 1) * width];
        let row_min = row.iter().copied().fold(f64::INFINITY, f64::min);
        if row_min > threshold {
            return PrunedDistance::LowerBound(row_min);
        }
    }
    PrunedDistance::Exact(table[table.len() - 1])
}

/// Same variant, same bits.
fn same(x: PrunedDistance, y: PrunedDistance) -> bool {
    x.abandoned() == y.abandoned() && x.value().to_bits() == y.value().to_bits()
}

/// Full-table LCSS length.
fn lcss_full(a: &Trajectory, b: &Trajectory, eps: f64) -> usize {
    let (ap, bp) = (a.points(), b.points());
    let (n, m) = (ap.len(), bp.len());
    let w = m + 1;
    let mut dp = vec![0u32; (n + 1) * w];
    for i in 1..=n {
        for j in 1..=m {
            let p = &ap[i - 1];
            let q = &bp[j - 1];
            dp[i * w + j] = if (p.x - q.x).abs() <= eps && (p.y - q.y).abs() <= eps {
                dp[(i - 1) * w + (j - 1)] + 1
            } else {
                dp[(i - 1) * w + j].max(dp[i * w + (j - 1)])
            };
        }
    }
    dp[n * w + m] as usize
}

/// Directed segment-path distance, one `sqrt` per point–segment pair.
fn spd_loop(a: &Trajectory, b: &Trajectory) -> f64 {
    let bp = b.points();
    let mut acc = 0.0;
    for p in a.points() {
        let mut best = f64::INFINITY;
        if bp.len() == 1 {
            best = p.dist(&bp[0]);
        } else {
            for w in bp.windows(2) {
                let d = point_segment_distance(p, &w[0], &w[1]);
                if d < best {
                    best = d;
                }
            }
        }
        acc += best;
    }
    acc / a.len() as f64
}

fn sspd_loop(a: &Trajectory, b: &Trajectory) -> f64 {
    0.5 * (spd_loop(a, b) + spd_loop(b, a))
}

/// Directed Hausdorff distance by a full scan: every point of `a`
/// against every point of `b`, no early exit.
fn directed_hausdorff_scan(a: &Trajectory, b: &Trajectory) -> f64 {
    let mut worst = 0.0f64;
    for p in a.points() {
        let mut best = f64::INFINITY;
        for q in b.points() {
            let d = p.dist_sq(q);
            if d < best {
                best = d;
            }
        }
        if best > worst {
            worst = best;
        }
    }
    worst.sqrt()
}

fn hausdorff_scan(a: &Trajectory, b: &Trajectory) -> f64 {
    directed_hausdorff_scan(a, b).max(directed_hausdorff_scan(b, a))
}

/// Full-table discrete Fréchet with a `sqrt` per cell.
fn frechet_full(a: &Trajectory, b: &Trajectory) -> f64 {
    let (ap, bp) = (a.points(), b.points());
    let (n, m) = (ap.len(), bp.len());
    let mut dp = vec![0.0f64; n * m];
    for i in 0..n {
        for j in 0..m {
            let d = ap[i].dist(&bp[j]);
            dp[i * m + j] = if i == 0 && j == 0 {
                d
            } else if i == 0 {
                dp[j - 1].max(d)
            } else if j == 0 {
                dp[(i - 1) * m].max(d)
            } else {
                dp[(i - 1) * m + (j - 1)]
                    .min(dp[(i - 1) * m + j])
                    .min(dp[i * m + (j - 1)])
                    .max(d)
            };
        }
    }
    dp[n * m - 1]
}

fn traj_strategy() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..24)
        .prop_map(|pts| Trajectory::from_xy(&pts).expect("finite points"))
}

fn raw_traj_strategy() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((3.9e5f64..4.1e5, -3.1e5f64..-2.9e5), 1..24)
        .prop_map(|pts| Trajectory::from_xy(&pts).expect("finite points"))
}

/// One coordinate: mostly continuous, sometimes a signed zero, a lattice
/// value or a value 1e-9 off one, so trajectories repeat points and form
/// degenerate segments.
fn coord(pick: u8, r: f64) -> f64 {
    match pick {
        0 => -0.0,
        1 => 0.0,
        2 => 1.0,
        3 => 1.0 + 1e-9,
        _ => r,
    }
}

/// Trajectories of 1–12 points drawn with [`coord`]: one-point
/// trajectories, repeated points and `-0.0` all occur.
fn awkward_traj_strategy() -> impl Strategy<Value = Trajectory> {
    let c = || (0u8..8, -3.0f64..3.0);
    prop::collection::vec((c(), c()), 1..12).prop_map(|pts| {
        let pts: Vec<(f64, f64)> = pts
            .into_iter()
            .map(|((px, x), (py, y))| (coord(px, x), coord(py, y)))
            .collect();
        Trajectory::from_xy(&pts).expect("finite points")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// SSPD, Hausdorff and discrete Fréchet are bit-identical to the
    /// per-pair loops, in both orientations.
    #[test]
    fn geometric_kernels_match_loop_oracles_bits(
        a in awkward_traj_strategy(),
        b in awkward_traj_strategy(),
    ) {
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(sspd(x, y).to_bits(), sspd_loop(x, y).to_bits());
            prop_assert_eq!(hausdorff(x, y).to_bits(), hausdorff_scan(x, y).to_bits());
            prop_assert_eq!(discrete_frechet(x, y).to_bits(), frechet_full(x, y).to_bits());
        }
    }

    /// The same on raw, unnormalized coordinates (metres in a projected
    /// CRS) and longer trajectories.
    #[test]
    fn geometric_kernels_match_loop_oracles_on_raw_coordinates(
        a in raw_traj_strategy(),
        b in raw_traj_strategy(),
    ) {
        prop_assert_eq!(sspd(&a, &b).to_bits(), sspd_loop(&a, &b).to_bits());
        prop_assert_eq!(hausdorff(&a, &b).to_bits(), hausdorff_scan(&a, &b).to_bits());
        prop_assert_eq!(discrete_frechet(&a, &b).to_bits(), frechet_full(&a, &b).to_bits());
    }

    /// Rolling-buffer DTW is bit-identical to the full-matrix oracle —
    /// including across the long/short operand swap.
    #[test]
    fn dtw_rolling_matches_full_matrix_bits(a in traj_strategy(), b in traj_strategy()) {
        prop_assert_eq!(dtw(&a, &b).to_bits(), dtw_full(&a, &b).to_bits());
        prop_assert_eq!(dtw(&b, &a).to_bits(), dtw_full(&b, &a).to_bits());
    }

    /// Rolling-buffer ERP is bit-identical to the full-matrix oracle.
    #[test]
    fn erp_rolling_matches_full_matrix_bits(a in traj_strategy(), b in traj_strategy()) {
        let g = Point::new(0.0, 0.0);
        prop_assert_eq!(erp(&a, &b, &g).to_bits(), erp_full(&a, &b, &g).to_bits());
        // A non-origin gap point exercises the boundary prefix sums.
        let g2 = Point::new(1.5, -0.25);
        prop_assert_eq!(erp(&a, &b, &g2).to_bits(), erp_full(&a, &b, &g2).to_bits());
    }

    /// Rolling-buffer EDR equals the full-matrix oracle exactly.
    #[test]
    fn edr_rolling_matches_full_matrix(a in traj_strategy(), b in traj_strategy(), eps in 0.01f64..5.0) {
        prop_assert_eq!(edr(&a, &b, eps).to_bits(), edr_full(&a, &b, eps).to_bits());
    }

    /// Rolling-buffer LCSS equals the full-matrix oracle exactly.
    #[test]
    fn lcss_rolling_matches_full_matrix(a in traj_strategy(), b in traj_strategy(), eps in 0.01f64..5.0) {
        let expected = 1.0 - lcss_full(&a, &b, eps) as f64 / (a.len().min(b.len()) as f64);
        prop_assert_eq!(lcss_distance(&a, &b, eps).to_bits(), expected.to_bits());
    }

    /// `distance_pruned` abandons at exactly the full-table oracle's row,
    /// with the same lower-bound bits, for DTW (long trajectory on the
    /// rows), ERP and EDR; below every checked row minimum it is exact.
    /// Fréchet and LCSS never abandon.
    #[test]
    fn pruned_matches_full_table_abandon_oracle(
        a in traj_strategy(),
        b in traj_strategy(),
        factor in 0.0f64..1.5,
        eps in 0.01f64..5.0,
    ) {
        let (long, short) = if a.len() >= b.len() { (&a, &b) } else { (&b, &a) };
        let g = Point::new(1.5, -0.25);
        let dtw_m = MeasureKind::Dtw.measure();
        let erp_m = Measure { erp_gap: g, ..MeasureKind::Erp.measure() };
        let edr_m = MeasureKind::Edr.measure().with_edr_eps(eps);
        let edr_t: Vec<f64> = edr_table(&a, &b, eps).into_iter().map(f64::from).collect();
        let cases = [
            (dtw_m, dtw_table(long, short), short.len() + 1),
            (erp_m, erp_table(&a, &b, &g), b.len() + 1),
            (edr_m, edr_t, b.len() + 1),
        ];
        for (m, table, width) in cases {
            let threshold = factor * table[table.len() - 1];
            let got = m.distance_pruned(&a, &b, threshold);
            let want = abandon_full(&table, width, threshold);
            prop_assert!(same(got, want), "{}: {:?} vs oracle {:?}", m.kind.name(), got, want);
        }
        let frechet_m = MeasureKind::DiscreteFrechet.measure();
        let lcss_m = Measure { lcss_eps: eps, ..MeasureKind::Lcss.measure() };
        for m in [frechet_m, lcss_m] {
            let exact = PrunedDistance::Exact(m.distance(&a, &b));
            let got = m.distance_pruned(&a, &b, factor * exact.value());
            prop_assert!(same(got, exact), "{}: {:?} vs {:?}", m.kind.name(), got, exact);
        }
    }
}
