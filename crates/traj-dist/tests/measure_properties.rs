//! Property-based cross-measure invariants.

use proptest::prelude::*;
use traj_core::{Point, Trajectory};
use traj_dist::dtw::dtw;
use traj_dist::edr::edr;
use traj_dist::hausdorff::{directed_hausdorff, hausdorff};
use traj_dist::lcss::{lcss_distance, lcss_len};
use traj_dist::sspd::{spd, sspd};

fn traj() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 1..10)
        .prop_map(|pts| Trajectory::from_xy(&pts).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// DTW is bounded below by the worst-case single point alignment:
    /// every point of the longer trajectory is matched at least once, so
    /// DTW ≥ max(n,m) · min-point-distance.
    #[test]
    fn dtw_lower_bound(a in traj(), b in traj()) {
        let mut min_pair = f64::INFINITY;
        for p in a.points() {
            for q in b.points() {
                min_pair = min_pair.min(p.dist(q));
            }
        }
        let bound = a.len().max(b.len()) as f64 * min_pair;
        prop_assert!(dtw(&a, &b) >= bound - 1e-9);
    }

    /// EDR is an edit count: between |n − m| and max(n, m).
    #[test]
    fn edr_bounds(a in traj(), b in traj(), eps in 0.0f64..2.0) {
        let d = edr(&a, &b, eps);
        let n = a.len() as f64;
        let m = b.len() as f64;
        prop_assert!(d >= (n - m).abs() - 1e-12);
        prop_assert!(d <= n.max(m) + 1e-12);
    }

    /// LCSS length is at most min(n, m) and its distance lies in [0, 1].
    #[test]
    fn lcss_bounds(a in traj(), b in traj(), eps in 0.0f64..2.0) {
        prop_assert!(lcss_len(&a, &b, eps) <= a.len().min(b.len()));
        let d = lcss_distance(&a, &b, eps);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Directed SPD (a mean of minima) never exceeds the directed
    /// Hausdorff distance (the max of those minima over points — and
    /// point-to-polyline minima are ≤ point-to-point minima).
    #[test]
    fn spd_below_directed_hausdorff(a in traj(), b in traj()) {
        prop_assert!(spd(&a, &b) <= directed_hausdorff(&a, &b) + 1e-9);
        prop_assert!(sspd(&a, &b) <= hausdorff(&a, &b) + 1e-9);
    }

    /// Shrinking the EDR tolerance can only increase the edit count.
    #[test]
    fn edr_monotone_in_eps(a in traj(), b in traj(), eps in 0.01f64..1.0) {
        let loose = edr(&a, &b, eps);
        let tight = edr(&a, &b, eps * 0.5);
        prop_assert!(tight >= loose - 1e-12);
    }

    /// Translating both trajectories together leaves every measure
    /// unchanged (translation invariance).
    #[test]
    fn translation_invariance(a in traj(), b in traj(), dx in -3.0f64..3.0, dy in -3.0f64..3.0) {
        let shift = |t: &Trajectory| {
            Trajectory::new(
                t.points().iter().map(|p| Point::new(p.x + dx, p.y + dy)).collect(),
            )
            .unwrap()
        };
        let (sa, sb) = (shift(&a), shift(&b));
        prop_assert!((dtw(&a, &b) - dtw(&sa, &sb)).abs() < 1e-6);
        prop_assert!((sspd(&a, &b) - sspd(&sa, &sb)).abs() < 1e-6);
        prop_assert!((hausdorff(&a, &b) - hausdorff(&sa, &sb)).abs() < 1e-6);
        prop_assert!((edr(&a, &b, 0.3) - edr(&sa, &sb, 0.3)).abs() < 1e-9);
    }
}
