//! Differential harness for the wavefront-batched DP tier.
//!
//! The batched path ([`lh_repro::dist::matrix::wavefront`]) claims
//! **bit identity** with the scalar kernels for every bucketed measure
//! (the lockstep measures: DTW, ERP, EDR, discrete Fréchet and LCSS). This
//! suite enforces that claim two ways:
//!
//! 1. the *hard* check — `to_bits()` equality between batched and scalar
//!    results over randomized batches, ragged buckets, and schedules;
//! 2. the *documented tolerance contract* — `|batched − scalar| ≤
//!    REL_TOL · max(1, |scalar|)` with `REL_TOL = 1e-12` — asserted
//!    independently, so if a future SIMD backend (FMA contraction, a
//!    reassociating reduction) ever downgrades the tier from
//!    bit-identical to merely-close, the contract that callers may rely
//!    on has been tested all along rather than invented after the fact.
//!
//! Plus the bucketing edge cases the plan can produce: batch-of-one,
//! length-1 trajectories, remainder groups, padding isolation, and the
//! NaN precondition (non-finite coordinates are rejected at
//! [`Trajectory`] construction, which is what makes lane-wise `f64::min`
//! order-independent inside the kernels).

use lh_repro::dist::matrix::wavefront::eval_batch;
use lh_repro::dist::{MatrixBuilder, Measure, MeasureKind, Schedule};
use lh_repro::traj::Trajectory;
use proptest::prelude::*;

/// The documented tolerance contract for the batched tier (relative to
/// the scalar kernels). Today the implementation is exactly bit-identical
/// — this is the ceiling callers may assume, not the observed error.
const REL_TOL: f64 = 1e-12;

fn within_contract(scalar: f64, batched: f64) -> bool {
    (batched - scalar).abs() <= REL_TOL * scalar.abs().max(1.0)
}

fn bucketed_measures() -> [Measure; 5] {
    [
        MeasureKind::Dtw.measure(),
        MeasureKind::Erp.measure(),
        MeasureKind::Edr.measure().with_edr_eps(0.5),
        MeasureKind::DiscreteFrechet.measure(),
        Measure {
            lcss_eps: 0.5,
            ..MeasureKind::Lcss.measure()
        },
    ]
}

fn traj_strategy() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 1..30)
        .prop_map(|pts| Trajectory::from_xy(&pts).expect("finite points"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched results are bit-identical to scalar — and, independently,
    /// within the documented tolerance — for random ragged batches of
    /// every bucketed measure.
    #[test]
    fn batched_matches_scalar_bits_and_contract(
        trajs in prop::collection::vec(traj_strategy(), 2..14),
        seed in 0usize..1000,
    ) {
        let n = trajs.len();
        let pairs: Vec<(&Trajectory, &Trajectory)> = (0..n * 2)
            .map(|k| (&trajs[(k * 7 + seed) % n], &trajs[(k * 3 + 1) % n]))
            .collect();
        for m in bucketed_measures() {
            let batched = m.distance_batch(&pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let scalar = m.distance(a, b);
                prop_assert!(
                    within_contract(scalar, batched[k]),
                    "{} pair {k}: tolerance contract violated ({scalar} vs {})",
                    m.kind.name(),
                    batched[k]
                );
                prop_assert_eq!(
                    batched[k].to_bits(),
                    scalar.to_bits(),
                    "{} pair {k}: bit identity violated",
                    m.kind.name()
                );
            }
        }
    }

    /// A forced single lockstep group (no planning) over uneven lengths:
    /// padding must not leak between lanes.
    #[test]
    fn forced_group_matches_scalar_bits(
        trajs in prop::collection::vec(traj_strategy(), 2..9),
    ) {
        let pairs: Vec<(&Trajectory, &Trajectory)> = trajs
            .windows(2)
            .map(|w| (&w[0], &w[1]))
            .collect();
        for m in bucketed_measures() {
            let batched = eval_batch(&m, &pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                prop_assert_eq!(
                    batched[k].to_bits(),
                    m.distance(a, b).to_bits(),
                    "{} lane {k}",
                    m.kind.name()
                );
            }
        }
    }

    /// Pruning × batching: `distance_pruned` early-abandon results must
    /// agree with the batched path's exact entries — bit-equal at or
    /// below the threshold, certified lower bounds (> threshold, ≤ exact)
    /// above it.
    #[test]
    fn pruned_builds_agree_with_batched_exact_entries(
        seeds in prop::collection::vec(0.0f64..6.0, 6..12),
        len in 12usize..24,
        factor in 0.3f64..1.2,
    ) {
        let trajs: Vec<Trajectory> = seeds
            .iter()
            .map(|&s| {
                let pts: Vec<(f64, f64)> = (0..len)
                    .map(|k| (s + k as f64 * 0.4, (k as f64 * 0.6 + s).sin() * 2.0))
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect();
        for m in bucketed_measures() {
            let exact = MatrixBuilder::new(m).build_pairwise(&trajs);
            let threshold = exact.matrix.off_diagonal_mean() * factor;
            let pruned = MatrixBuilder::new(m).prune(threshold).build_pairwise(&trajs);
            for i in 0..trajs.len() {
                for j in 0..trajs.len() {
                    let e = exact.matrix.get(i, j);
                    let p = pruned.matrix.get(i, j);
                    if e <= threshold {
                        prop_assert_eq!(
                            e.to_bits(),
                            p.to_bits(),
                            "{} ({i},{j}): sub-threshold entry not bit-exact",
                            m.kind.name()
                        );
                    } else {
                        prop_assert!(
                            p > threshold && p <= e + 1e-12,
                            "{} ({i},{j}): bound {p} vs exact {e}, threshold {threshold}",
                            m.kind.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn batch_of_one_and_length_one_lanes() {
    let single = Trajectory::from_xy(&[(0.2, -0.7)]).unwrap();
    let short = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.5)]).unwrap();
    let pairs: Vec<(&Trajectory, &Trajectory)> = vec![
        (&single, &single),
        (&single, &short),
        (&short, &single),
        (&short, &short),
    ];
    for m in bucketed_measures() {
        // B = 1 (degenerate lockstep batch).
        for &(a, b) in &pairs {
            let one = eval_batch(&m, &[(a, b)]);
            assert_eq!(one[0].to_bits(), m.distance(a, b).to_bits());
        }
        // Length-1 trajectories inside a wider batch.
        let all = eval_batch(&m, &pairs);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(all[k].to_bits(), m.distance(a, b).to_bits());
        }
    }
}

/// Remainder handling: pair counts straddling the group size (LANES = 8)
/// leave 1–7 leftover pairs for the planner to group or demote.
#[test]
fn bucket_remainders_are_exact() {
    let trajs: Vec<Trajectory> = (0..17)
        .map(|i| {
            let len = 3 + (i * 5) % 11;
            let pts: Vec<(f64, f64)> = (0..len)
                .map(|k| (i as f64 * 0.3 + k as f64, (k as f64 * 0.9).cos()))
                .collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect();
    for count in [1usize, 7, 8, 9, 15, 16, 17] {
        let pairs: Vec<(&Trajectory, &Trajectory)> = (0..count)
            .map(|k| (&trajs[k], &trajs[(k + 5) % trajs.len()]))
            .collect();
        for m in bucketed_measures() {
            let got = m.distance_batch(&pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    got[k].to_bits(),
                    m.distance(a, b).to_bits(),
                    "{} count={count} pair {k}",
                    m.kind.name()
                );
            }
        }
    }
}

/// A hostile lane (huge far-away coordinates, maximal length) must not
/// perturb its batch neighbors: padding cells are provably unread, and
/// this drives that proof with data that would corrupt everything if it
/// leaked.
#[test]
fn padding_is_isolated_between_lanes() {
    let hostile = Trajectory::from_xy(
        &(0..40)
            .map(|k| (1e9 + k as f64 * 1e7, -1e9))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let tame: Vec<Trajectory> = (0..7)
        .map(|i| {
            let pts: Vec<(f64, f64)> = (0..4).map(|k| (i as f64 + k as f64 * 0.1, 0.5)).collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect();
    let mut pairs: Vec<(&Trajectory, &Trajectory)> =
        tame.windows(2).map(|w| (&w[0], &w[1])).collect();
    pairs.push((&hostile, &tame[0]));
    pairs.push((&hostile, &hostile));
    for m in bucketed_measures() {
        let got = eval_batch(&m, &pairs);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                got[k].to_bits(),
                m.distance(a, b).to_bits(),
                "{} lane {k} corrupted by batch neighbor",
                m.kind.name()
            );
        }
    }
}

/// The kernels' NaN precondition is enforced upstream: trajectories with
/// non-finite coordinates cannot be constructed, so no NaN can reach a
/// lane-wise `min` (where IEEE `min` would silently drop it).
#[test]
fn non_finite_coordinates_are_rejected_at_construction() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(Trajectory::from_xy(&[(bad, 0.0)]).is_err());
        assert!(Trajectory::from_xy(&[(0.0, bad)]).is_err());
        assert!(Trajectory::from_xy(&[(0.0, 0.0), (bad, bad)]).is_err());
    }
}

/// Schedules are interchangeable end to end: default (lockstep) and
/// serial builds of the same matrix agree bit for bit, so downstream
/// cache fingerprints legitimately exclude the schedule.
#[test]
fn wavefront_schedule_is_bit_identical_end_to_end() {
    let trajs: Vec<Trajectory> = (0..21)
        .map(|i| {
            let len = 2 + (i * 3) % 9;
            let pts: Vec<(f64, f64)> = (0..len)
                .map(|k| ((i + k) as f64 * 0.17, (k as f64 * 1.3 + i as f64).sin()))
                .collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect();
    for m in bucketed_measures() {
        let serial = MatrixBuilder::new(m)
            .schedule(Schedule::Serial)
            .build_pairwise(&trajs);
        let other = MatrixBuilder::new(m).threads(2).build_pairwise(&trajs);
        let same = serial
            .matrix
            .data()
            .iter()
            .zip(other.matrix.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{} diverged from serial", m.kind.name());
    }
}

/// A NaN tolerance matches no pair of points, in every tier: EDR counts
/// every alignment as a miss and LCSS finds no common point, whether a
/// pair runs scalar, in a lockstep group, or through either schedule of
/// a matrix build (cache fingerprints exclude the schedule, so those two
/// must agree).
#[test]
fn nan_tolerance_matches_nothing_in_every_tier() {
    let trajs: Vec<Trajectory> = (0..12)
        .map(|i| {
            let pts: Vec<(f64, f64)> = (0..3 + i % 4).map(|k| (k as f64 * 0.1, 0.0)).collect();
            Trajectory::from_xy(&pts).unwrap()
        })
        .collect();
    let pairs: Vec<(&Trajectory, &Trajectory)> = trajs.windows(2).map(|w| (&w[0], &w[1])).collect();
    let edr = MeasureKind::Edr.measure().with_edr_eps(f64::NAN);
    let lcss = Measure {
        lcss_eps: f64::NAN,
        ..MeasureKind::Lcss.measure()
    };
    for &(a, b) in &pairs {
        assert_eq!(edr.distance(a, b), a.len().max(b.len()) as f64);
        assert_eq!(lcss.distance(a, b), 1.0);
    }
    for m in [edr, lcss] {
        let batched = eval_batch(&m, &pairs);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(
                batched[k].to_bits(),
                m.distance(a, b).to_bits(),
                "{} lane {k}",
                m.kind.name()
            );
        }
        let serial = MatrixBuilder::new(m)
            .schedule(Schedule::Serial)
            .build_pairwise(&trajs);
        let default = MatrixBuilder::new(m).build_pairwise(&trajs);
        assert_eq!(
            serial.matrix.data(),
            default.matrix.data(),
            "{} schedules disagree",
            m.kind.name()
        );
    }
}
