//! Training-pair sampling (Neutraj-style).
//!
//! For each anchor trajectory the sampler emits its `k_near` nearest
//! neighbors under the ground-truth measure plus `k_rand` random
//! trajectories, each pair carrying its ground-truth distance and a rank
//! weight (near pairs weigh more — retrieval accuracy at small k is what
//! the tables score).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use traj_dist::DistanceMatrix;

/// One training pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainPair {
    /// Anchor trajectory index.
    pub a: usize,
    /// Counterpart trajectory index.
    pub b: usize,
    /// Ground-truth (normalized) distance.
    pub target: f64,
    /// Loss weight (≥ 1; near neighbors get more).
    pub weight: f64,
}

/// Loss weight of a near pair (a random pair weighs 1).
pub const NEAR_WEIGHT: f64 = 2.0;

/// Samples one epoch of training pairs from a symmetric ground-truth
/// matrix: per anchor, its `k_near` nearest neighbors and `k_rand` random
/// counterparts; anchor order is shuffled.
pub fn sample_epoch_pairs(
    matrix: &DistanceMatrix,
    k_near: usize,
    k_rand: usize,
    rng: &mut StdRng,
) -> Vec<TrainPair> {
    let n = matrix.rows();
    let mut anchors: Vec<usize> = (0..n).collect();
    anchors.shuffle(rng);
    let mut pairs = Vec::with_capacity(n * (k_near + k_rand));
    for &a in &anchors {
        let near = matrix.knn_of_row(a, k_near, Some(a));
        for b in near {
            pairs.push(TrainPair {
                a,
                b,
                target: matrix.get(a, b),
                weight: NEAR_WEIGHT,
            });
        }
        for _ in 0..k_rand {
            let b = rng.gen_range(0..n);
            if b == a {
                continue;
            }
            pairs.push(TrainPair {
                a,
                b,
                target: matrix.get(a, b),
                weight: 1.0,
            });
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy_matrix(n: usize) -> DistanceMatrix {
        // Line metric: d(i,j) = |i−j|.
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                data[i * n + j] = (i as f64 - j as f64).abs();
            }
        }
        DistanceMatrix::from_raw(n, n, data)
    }

    #[test]
    fn near_pairs_are_nearest() {
        let m = toy_matrix(10);
        let mut rng = StdRng::seed_from_u64(0);
        let pairs = sample_epoch_pairs(&m, 2, 0, &mut rng);
        assert_eq!(pairs.len(), 20);
        for p in &pairs {
            assert!(p.target <= 2.0, "near pair too far: {p:?}");
            assert_eq!(p.weight, NEAR_WEIGHT);
        }
    }

    #[test]
    fn targets_match_matrix() {
        let m = toy_matrix(8);
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = sample_epoch_pairs(&m, 4, 4, &mut rng);
        for p in &pairs {
            assert_eq!(p.target, m.get(p.a, p.b));
            assert_ne!(p.a, p.b, "self-pairs are useless supervision");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let m = toy_matrix(8);
        let a = sample_epoch_pairs(&m, 4, 4, &mut StdRng::seed_from_u64(3));
        let b = sample_epoch_pairs(&m, 4, 4, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn epochs_differ() {
        let m = toy_matrix(8);
        let mut rng = StdRng::seed_from_u64(4);
        let e1 = sample_epoch_pairs(&m, 4, 4, &mut rng);
        let e2 = sample_epoch_pairs(&m, 4, 4, &mut rng);
        assert_ne!(e1, e2, "random halves must resample across epochs");
    }
}
