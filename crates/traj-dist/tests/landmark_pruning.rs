//! Property suite for the landmark tier: admissibility of the O(k)
//! lower bound over *random* trajectory pairs for every gated measure
//! (the in-module tests cover fixed deterministic sets), and the
//! pruned-vs-unpruned contract for the layered landmark screen →
//! early-abandon pipeline under the `Serial` oracle and the default
//! executor.

use proptest::prelude::*;
use traj_core::Trajectory;
use traj_dist::{DistanceMatrix, LandmarkLowerBound, MatrixBuilder, MeasureKind, Schedule};

/// Measures whose landmark gate admits the Chebyshev feature-gap bound.
const GATED: [MeasureKind; 4] = [
    MeasureKind::Dtw,
    MeasureKind::Erp,
    MeasureKind::Hausdorff,
    MeasureKind::DiscreteFrechet,
];

/// Every measure: the layered pipeline must degrade gracefully (screen
/// no-ops, early-abandon still applies) on the ungated ones.
const ALL_KINDS: [MeasureKind; 9] = [
    MeasureKind::Dtw,
    MeasureKind::Sspd,
    MeasureKind::Edr,
    MeasureKind::Hausdorff,
    MeasureKind::DiscreteFrechet,
    MeasureKind::Erp,
    MeasureKind::Lcss,
    MeasureKind::Tp,
    MeasureKind::Dita,
];

/// Length-skewed sets (3–10 trajectories, 1–9 points): short degenerate
/// trajectories stress the closest-pair DTW features, duplicates stress
/// pivot collapse, and skew stresses the schedules.
fn traj_set() -> impl Strategy<Value = Vec<Trajectory>> {
    prop::collection::vec(
        prop::collection::vec((-3.0f64..3.0, -3.0f64..3.0), 1..10),
        3..11,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .map(|pts| Trajectory::from_xy(&pts).unwrap())
            .collect()
    })
}

fn bits(m: &DistanceMatrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ISSUE acceptance: `lb(a, b) ≤ measure(a, b)` over random pairs
    /// for every gated measure, at every pivot budget.
    #[test]
    fn lb_admissible_over_random_pairs(
        ts in traj_set(),
        gated_idx in 0usize..4,
        k in 1usize..7,
    ) {
        let kind = GATED[gated_idx];
        let m = kind.measure();
        let lbo = LandmarkLowerBound::pairwise(&m, &ts, k).unwrap();
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                let lb = lbo.lb(i, j);
                let d = m.distance(&ts[i], &ts[j]);
                prop_assert!(
                    lb <= d + 1e-12,
                    "{kind:?} k={k} lb({i},{j})={lb} > d={d}"
                );
            }
        }
    }

    /// Same admissibility when pivots come from one set and queries from
    /// another (the index's second-level bound uses this shape).
    #[test]
    fn cross_lb_admissible_over_random_pairs(
        ts in traj_set(),
        gated_idx in 0usize..4,
        k in 1usize..7,
    ) {
        let kind = GATED[gated_idx];
        let m = kind.measure();
        let q = 1 + ts.len() / 3;
        let (queries, base) = ts.split_at(q);
        let lbo = LandmarkLowerBound::cross(&m, queries, base, k).unwrap();
        for (i, qt) in queries.iter().enumerate() {
            for (j, bt) in base.iter().enumerate() {
                let lb = lbo.lb(i, j);
                let d = m.distance(qt, bt);
                prop_assert!(
                    lb <= d + 1e-12,
                    "{kind:?} k={k} cross lb({i},{j})={lb} > d={d}"
                );
            }
        }
    }
}

proptest! {
    // Each case builds 1 exact + 4 pruned full matrices; keep the case
    // count below the pure-bound suites'.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The layered pipeline honors the pruning contract against the
    /// unpruned matrix under both schedules, for every measure:
    /// sub-threshold entries are bit-identical to the exact build, every
    /// entry lower-bounds the exact distance, and no pruned entry sinks
    /// below the threshold. The pruned matrix itself is also
    /// byte-identical across schedules (pair outcomes must not depend on
    /// which thread or batch evaluated them).
    #[test]
    fn layered_pruning_matches_exact_under_all_schedules(
        ts in traj_set(),
        kind_idx in 0usize..9,
        quantile in 0.1f64..0.9,
        threads in 1usize..5,
    ) {
        let measure = ALL_KINDS[kind_idx].measure();
        let exact = MatrixBuilder::new(measure).build_pairwise(&ts).matrix;
        let mut vals: Vec<f64> = exact.data().to_vec();
        vals.sort_by(f64::total_cmp);
        let threshold = vals[((vals.len() - 1) as f64 * quantile) as usize];
        let mut reference: Option<Vec<u64>> = None;
        for schedule in [Schedule::Serial, Schedule::Wavefront] {
            let pruned = MatrixBuilder::new(measure)
                .schedule(schedule)
                .threads(threads)
                .prune_landmark(threshold)
                .build_pairwise(&ts)
                .matrix;
            for i in 0..exact.rows() {
                for j in 0..exact.cols() {
                    let (e, p) = (exact.get(i, j), pruned.get(i, j));
                    prop_assert!(
                        p <= e,
                        "{schedule:?} entry ({i},{j}) not a lower bound: {p} > {e}"
                    );
                    if e <= threshold {
                        prop_assert_eq!(
                            e.to_bits(),
                            p.to_bits(),
                            "{:?} sub-threshold entry ({},{}) not exact",
                            schedule, i, j
                        );
                    } else {
                        prop_assert!(
                            p > threshold,
                            "{schedule:?} pruned entry ({i},{j}) fell to {p}, \
                             below threshold {threshold}"
                        );
                    }
                }
            }
            match &reference {
                None => reference = Some(bits(&pruned)),
                Some(r) => prop_assert_eq!(
                    r,
                    &bits(&pruned),
                    "pruned matrix differs between schedules at {:?}",
                    schedule
                ),
            }
        }
    }
}
