//! Property suite for the `MatrixBuilder` pipeline: the byte-identity
//! guarantee of the default executor against the `Serial` oracle, cache
//! roundtrips, and pruning admissibility — across every `MeasureKind`.

use proptest::prelude::*;
use traj_core::Trajectory;
use traj_dist::{CacheOutcome, DistanceMatrix, MatrixBuilder, MeasureKind, Schedule};

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

/// Length-skewed trajectory sets (3–10 trajectories, 1–9 points): the
/// shape that exposes scheduling imbalance and unranking bugs.
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

    /// The default executor (lockstep groups for the measures with a
    /// batched kernel, scalar batches otherwise) is byte-identical to the serial oracle for every
    /// measure, at every thread count.
    #[test]
    fn schedules_byte_identical_all_measures(
        ts in traj_set(),
        kind_idx in 0usize..9,
        threads in 1usize..5,
    ) {
        let measure = ALL_KINDS[kind_idx].measure();
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .build_pairwise(&ts);
        let default = MatrixBuilder::new(measure)
            .threads(threads)
            .build_pairwise(&ts);
        prop_assert_eq!(bits(&serial.matrix), bits(&default.matrix));
    }

    /// Same guarantee for rectangular cross matrices.
    #[test]
    fn cross_schedules_byte_identical(
        ts in traj_set(),
        kind_idx in 0usize..9,
        threads in 1usize..5,
    ) {
        let measure = ALL_KINDS[kind_idx].measure();
        let q = ts.len() / 2;
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .build_cross(&ts[..q], &ts);
        let default = MatrixBuilder::new(measure)
            .threads(threads)
            .build_cross(&ts[..q], &ts);
        prop_assert_eq!(bits(&serial.matrix), bits(&default.matrix));
    }

    /// Pruning admissibility for every measure: sub-threshold entries are
    /// bit-exact, every entry is a lower bound on the exact distance, and
    /// no pruned entry sinks below the threshold (so threshold-bounded
    /// neighborhoods are preserved exactly).
    #[test]
    fn pruning_is_admissible(
        ts in traj_set(),
        kind_idx in 0usize..9,
        quantile in 0.1f64..0.9,
    ) {
        let measure = ALL_KINDS[kind_idx].measure();
        let exact = MatrixBuilder::new(measure).build_pairwise(&ts).matrix;
        // Threshold from the exact distribution so cases prune at
        // different depths.
        let mut vals: Vec<f64> = exact.data().to_vec();
        vals.sort_by(f64::total_cmp);
        let threshold = vals[((vals.len() - 1) as f64 * quantile) as usize];
        let pruned = MatrixBuilder::new(measure)
            .prune(threshold)
            .build_pairwise(&ts)
            .matrix;
        for i in 0..exact.rows() {
            for j in 0..exact.cols() {
                let (e, p) = (exact.get(i, j), pruned.get(i, j));
                prop_assert!(p <= e, "entry ({i},{j}) not a lower bound: {p} > {e}");
                if e <= threshold {
                    prop_assert_eq!(
                        e.to_bits(),
                        p.to_bits(),
                        "sub-threshold entry ({i},{j}) not exact"
                    );
                } else {
                    prop_assert!(
                        p > threshold,
                        "pruned entry ({i},{j}) fell to {p}, below threshold {threshold}"
                    );
                }
            }
        }
    }

    /// A cached rebuild serves the bit-identical matrix for every
    /// measure, and pruned builds key separately from exact builds.
    #[test]
    fn cache_roundtrip_all_measures(ts in traj_set(), kind_idx in 0usize..9) {
        let dir = std::env::temp_dir().join(format!(
            "lhgm-prop-{}-{kind_idx}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let measure = ALL_KINDS[kind_idx].measure();
        let builder = MatrixBuilder::new(measure).cache_dir(&dir);
        let cold = builder.build_pairwise(&ts);
        prop_assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = builder.build_pairwise(&ts);
        prop_assert_eq!(warm.report.cache, CacheOutcome::Hit);
        prop_assert_eq!(bits(&cold.matrix), bits(&warm.matrix));
        // Fingerprints are prune-free: a pruned request over the same
        // inputs, with or without the landmark screen, is served from the
        // exact checkpoint (an exact matrix satisfies every pruning
        // contract), for every measure.
        for pruned_builder in [
            MatrixBuilder::new(measure).cache_dir(&dir).prune(0.25),
            MatrixBuilder::new(measure).cache_dir(&dir).prune_landmark(0.25),
        ] {
            let pruned = pruned_builder.build_pairwise(&ts);
            prop_assert_eq!(pruned.report.cache, CacheOutcome::Hit);
            prop_assert_eq!(bits(&cold.matrix), bits(&pruned.matrix));
        }
        // And the other direction: pruned builds never store, so a cold
        // pruned build cannot poison the cache for a later exact one.
        let dir2 = dir.join("pruned-first");
        let pruned_cold = MatrixBuilder::new(measure)
            .cache_dir(&dir2)
            .prune(0.25)
            .build_pairwise(&ts);
        prop_assert_eq!(pruned_cold.report.cache, CacheOutcome::Miss);
        let exact_after = MatrixBuilder::new(measure).cache_dir(&dir2).build_pairwise(&ts);
        prop_assert_eq!(exact_after.report.cache, CacheOutcome::Miss);
        prop_assert_eq!(bits(&cold.matrix), bits(&exact_after.matrix));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The legacy free functions still answer with the builder's default
/// result — the drop-in surface the rest of the workspace uses.
#[test]
fn free_functions_match_builder_default() {
    let ts: Vec<Trajectory> = (0..7)
        .map(|i| {
            let pts: Vec<(f64, f64)> = (0..(2 + i % 4))
                .map(|k| (i as f64 * 0.3 + k as f64, (k as f64).cos()))
                .collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect();
    let measure = MeasureKind::Dtw.measure();
    let free = traj_dist::pairwise_matrix(&ts, &measure);
    let built = MatrixBuilder::new(measure).build_pairwise(&ts).matrix;
    assert_eq!(bits(&free), bits(&built));
    let free_cross = traj_dist::cross_matrix(&ts[..2], &ts, &measure);
    let built_cross = MatrixBuilder::new(measure)
        .build_cross(&ts[..2], &ts)
        .matrix;
    assert_eq!(bits(&free_cross), bits(&built_cross));
}
