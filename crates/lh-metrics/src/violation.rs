//! Triangle-inequality violation statistics (paper Section V-A).
//!
//! For a distance triple over trajectories `(T_i, T_j, T_k)` define
//! `Sim[k|i,j] = f(T_i,T_j) − f(T_i,T_k) − f(T_j,T_k)`; the triple violates
//! the triangle inequality iff the largest of the three `Sim` values is
//! positive (`TVF = 1`). `RV` is the fraction of violating triples and
//! `RVS`/`ARVS` measure the violation magnitude relative to the detour
//! length.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traj_dist::DistanceMatrix;

/// Triangle Violation Flag for a distance triple `(d_ij, d_ik, d_jk)`:
/// `true` iff some edge exceeds the sum of the other two.
pub fn tvf(d_ij: f64, d_ik: f64, d_jk: f64) -> bool {
    let sim_k = d_ij - d_ik - d_jk; // Sim[k|i,j]
    let sim_i = d_jk - d_ij - d_ik; // Sim[i|j,k]
    let sim_j = d_ik - d_ij - d_jk; // Sim[j|i,k]
    sim_k.max(sim_i).max(sim_j) > 0.0
}

/// Relative Violation Scale (paper Definition 11): the positive excess of
/// the longest edge over the detour, normalized by the detour length.
/// Positive iff the triple violates; for the Fig. 5 reproduction the signed
/// value is also meaningful for non-violating triples (how much slack the
/// triangle inequality has).
pub fn rvs(d_ij: f64, d_ik: f64, d_jk: f64) -> f64 {
    // Identify the maximal edge; RVS is computed against the other two.
    let (max_edge, o1, o2) = if d_ij >= d_ik && d_ij >= d_jk {
        (d_ij, d_ik, d_jk)
    } else if d_jk >= d_ij && d_jk >= d_ik {
        (d_jk, d_ij, d_ik)
    } else {
        (d_ik, d_ij, d_jk)
    };
    let denom = (o1 + o2).max(f64::EPSILON);
    (max_edge - o1 - o2) / denom
}

/// A sampled set of index triples `(i, j, k)`, i < j < k.
#[derive(Debug, Clone)]
pub struct TripletSample {
    triples: Vec<(usize, usize, usize)>,
}

impl TripletSample {
    /// The triples.
    pub fn triples(&self) -> &[(usize, usize, usize)] {
        &self.triples
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// Samples up to `max_triples` index triples `(i, j, k)`, `i < j < k`,
/// from `0..n`. When `C(n,3) ≤ max_triples` every triple is enumerated
/// once (the paper's exact Definition 10). Otherwise exactly `max_triples`
/// triples are drawn uniformly *with replacement* by a seeded RNG, so one
/// triple can appear more than once and then counts once per draw: 20 000
/// draws over the `C(100,3) = 161 700` triples of 100 rows hold about
/// 1 200 repeats. This sampling approximates the exact ratio (the paper
/// samples too on its million-trajectory sets).
pub fn sample_triplets(n: usize, max_triples: usize, seed: u64) -> TripletSample {
    if n < 3 {
        return TripletSample {
            triples: Vec::new(),
        };
    }
    let total = n * (n - 1) * (n - 2) / 6;
    if total <= max_triples {
        let mut triples = Vec::with_capacity(total);
        for i in 0..n {
            for j in (i + 1)..n {
                for k in (j + 1)..n {
                    triples.push((i, j, k));
                }
            }
        }
        return TripletSample { triples };
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a11_5eed_u64);
    let mut triples = Vec::with_capacity(max_triples);
    while triples.len() < max_triples {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let k = rng.gen_range(0..n);
        if i < j && j < k {
            triples.push((i, j, k));
        }
    }
    TripletSample { triples }
}

/// Aggregate violation statistics over a triplet sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationStats {
    /// Ratio of Violation: fraction of triples with `TVF = 1`.
    pub rv: f64,
    /// Average Relative Violation Scale over violating triples only.
    pub arvs: f64,
    /// Number of triples inspected.
    pub triples: usize,
    /// Number of violating triples.
    pub violations: usize,
}

/// Computes `RV` and `ARVS` of a symmetric distance matrix over a triplet
/// sample (paper Definitions 10–11).
pub fn ratio_of_violation(matrix: &DistanceMatrix, sample: &TripletSample) -> ViolationStats {
    let mut violations = 0usize;
    let mut rvs_acc = 0.0f64;
    for &(i, j, k) in sample.triples() {
        let d_ij = matrix.get(i, j);
        let d_ik = matrix.get(i, k);
        let d_jk = matrix.get(j, k);
        if tvf(d_ij, d_ik, d_jk) {
            violations += 1;
            rvs_acc += rvs(d_ij, d_ik, d_jk);
        }
    }
    let triples = sample.len();
    ViolationStats {
        rv: if triples == 0 {
            0.0
        } else {
            violations as f64 / triples as f64
        },
        arvs: if violations == 0 {
            0.0
        } else {
            rvs_acc / violations as f64
        },
        triples,
        violations,
    }
}

/// ARVS alone (paper Definition 11) — convenience wrapper.
pub fn arvs(matrix: &DistanceMatrix, sample: &TripletSample) -> f64 {
    ratio_of_violation(matrix, sample).arvs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Example 12: four trajectories, one violating triple with
    /// f(a,b)=5, f(a,c)=2, f(b,c)=1 → RV = 1/4, ARVS = 2/3.
    #[test]
    fn paper_example_12() {
        // Build a 4×4 matrix: (a,b,c) violating, d far from everything in a
        // metric-consistent way.
        let (a, b, c, d) = (0usize, 1usize, 2usize, 3usize);
        let mut m = vec![0.0; 16];
        let mut set = |i: usize, j: usize, v: f64| {
            m[i * 4 + j] = v;
            m[j * 4 + i] = v;
        };
        set(a, b, 5.0);
        set(a, c, 2.0);
        set(b, c, 1.0);
        // d's edges: equal 10s satisfy every triangle containing d.
        set(a, d, 10.0);
        set(b, d, 10.0);
        set(c, d, 10.0);
        let matrix = DistanceMatrix::from_raw(4, 4, m);
        let sample = sample_triplets(4, 1000, 0);
        assert_eq!(sample.len(), 4); // C(4,3): every triple
        let stats = ratio_of_violation(&matrix, &sample);
        assert!((stats.rv - 0.25).abs() < 1e-12, "rv={}", stats.rv);
        assert!(
            (stats.arvs - 2.0 / 3.0).abs() < 1e-12,
            "arvs={}",
            stats.arvs
        );
        assert_eq!(stats.violations, 1);
    }

    #[test]
    fn tvf_detects_violation_on_any_edge() {
        assert!(tvf(5.0, 2.0, 1.0)); // d_ij too long
        assert!(tvf(2.0, 1.0, 5.0)); // d_jk too long
        assert!(tvf(1.0, 5.0, 2.0)); // d_ik too long
        assert!(!tvf(3.0, 4.0, 5.0)); // proper triangle
        assert!(!tvf(2.0, 1.0, 3.0)); // degenerate (equality) is not a violation
    }

    #[test]
    fn rvs_example_value() {
        assert!((rvs(5.0, 2.0, 1.0) - 2.0 / 3.0).abs() < 1e-12);
        // Order-insensitive: max edge found regardless of position.
        assert!((rvs(1.0, 5.0, 2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rvs(2.0, 1.0, 5.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rvs_negative_for_proper_triangles() {
        assert!(rvs(3.0, 4.0, 5.0) < 0.0);
        assert_eq!(rvs(1.0, 1.0, 2.0), 0.0);
    }

    #[test]
    fn sampling_exhaustive_small() {
        let s = sample_triplets(6, 100, 1);
        assert_eq!(s.len(), 20); // C(6,3)
        let mut seen = std::collections::HashSet::new();
        for &t in s.triples() {
            assert!(t.0 < t.1 && t.1 < t.2);
            assert!(seen.insert(t));
        }
    }

    #[test]
    fn sampling_capped_large() {
        let s = sample_triplets(100, 500, 2);
        assert_eq!(s.len(), 500); // max_triples
        for &t in s.triples() {
            assert!(t.0 < t.1 && t.1 < t.2 && t.2 < 100);
        }
    }

    #[test]
    fn sampling_deterministic() {
        let a = sample_triplets(100, 50, 3);
        let b = sample_triplets(100, 50, 3);
        assert_eq!(a.triples(), b.triples());
    }

    #[test]
    fn no_triples_below_three() {
        assert!(sample_triplets(2, 10, 0).is_empty());
        let m = DistanceMatrix::from_raw(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let stats = ratio_of_violation(&m, &sample_triplets(2, 10, 0));
        assert_eq!(stats.rv, 0.0);
        assert_eq!(stats.arvs, 0.0);
    }

    #[test]
    fn metric_matrix_has_zero_rv() {
        // Distances from collinear points 0,1,2,4 (a metric): no violation.
        let pos = [0.0f64, 1.0, 2.0, 4.0];
        let mut m = vec![0.0; 16];
        for i in 0..4 {
            for j in 0..4 {
                m[i * 4 + j] = (pos[i] - pos[j]).abs();
            }
        }
        let matrix = DistanceMatrix::from_raw(4, 4, m);
        let stats = ratio_of_violation(&matrix, &sample_triplets(4, 100, 0));
        assert_eq!(stats.rv, 0.0);
    }
}
