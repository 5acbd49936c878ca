//! Retrieval-quality metrics: `HR@α` and `NDCG@k` (paper Section VI-A).
//!
//! Given per-query ground-truth distances and model distances over the same
//! candidate set, `HR@α` is the overlap of the two top-α sets and `NDCG@k`
//! the discounted-cumulative-gain agreement of the rankings, with binary
//! relevance assigned to the ground-truth top-k (the convention of the
//! Neutraj/TrajGAT evaluation code the paper follows).

use serde::{Deserialize, Serialize};

/// Indices of `0..n` sorted ascending by `distances` (ties by index).
///
/// Ordering is [`f64::total_cmp`] with the index as tie-break — the
/// `traj_core::topk` convention — so rankings are deterministic even when
/// a model emits NaN distances: NaNs sort after +∞ instead of collapsing
/// into `Ordering::Equal` and leaving the order at the mercy of the
/// sort's element visit order.
pub fn rank_by_distance(distances: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..distances.len()).collect();
    idx.sort_by(|&a, &b| distances[a].total_cmp(&distances[b]).then(a.cmp(&b)));
    idx
}

/// Hit rate `HR@k`: `|top_k(truth) ∩ top_k(pred)| / k`.
///
/// `truth_ranking` and `pred_ranking` are candidate indices in ascending
/// distance order (as from [`rank_by_distance`]).
pub fn hr_at_k(truth_ranking: &[usize], pred_ranking: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k = k.min(truth_ranking.len()).min(pred_ranking.len());
    if k == 0 {
        return 0.0;
    }
    let truth: std::collections::HashSet<usize> = truth_ranking[..k].iter().copied().collect();
    let hits = pred_ranking[..k]
        .iter()
        .filter(|i| truth.contains(i))
        .count();
    hits as f64 / k as f64
}

/// `NDCG@k` with binary relevance on the ground-truth top-k:
/// `DCG = Σ_{p: pred position of a relevant item ≤ k} 1/log₂(p+1)`,
/// normalized by the ideal DCG.
pub fn ndcg_at_k(truth_ranking: &[usize], pred_ranking: &[usize], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k = k.min(truth_ranking.len()).min(pred_ranking.len());
    if k == 0 {
        return 0.0;
    }
    let relevant: std::collections::HashSet<usize> = truth_ranking[..k].iter().copied().collect();
    let mut dcg = 0.0;
    for (pos, item) in pred_ranking[..k].iter().enumerate() {
        if relevant.contains(item) {
            dcg += 1.0 / ((pos as f64 + 2.0).log2());
        }
    }
    let idcg: f64 = (0..k).map(|p| 1.0 / ((p as f64 + 2.0).log2())).sum();
    dcg / idcg
}

/// Aggregated evaluation over a query set: the row layout of the paper's
/// accuracy tables (`HR@5/10/50`, `NDCG@10/50`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RankingEval {
    /// Hit rate at 5.
    pub hr5: f64,
    /// Hit rate at 10.
    pub hr10: f64,
    /// Hit rate at 50.
    pub hr50: f64,
    /// NDCG at 10.
    pub ndcg10: f64,
    /// NDCG at 50.
    pub ndcg50: f64,
    /// Number of queries averaged.
    pub queries: usize,
}

impl RankingEval {
    /// Evaluates all five metrics averaged over queries. `truth` and `pred`
    /// are per-query distance rows over the same candidates.
    pub fn evaluate(truth: &[Vec<f64>], pred: &[Vec<f64>]) -> RankingEval {
        assert_eq!(truth.len(), pred.len(), "query count mismatch");
        let mut acc = RankingEval::default();
        for (t_row, p_row) in truth.iter().zip(pred) {
            assert_eq!(t_row.len(), p_row.len(), "candidate count mismatch");
            let t_rank = rank_by_distance(t_row);
            let p_rank = rank_by_distance(p_row);
            acc.hr5 += hr_at_k(&t_rank, &p_rank, 5);
            acc.hr10 += hr_at_k(&t_rank, &p_rank, 10);
            acc.hr50 += hr_at_k(&t_rank, &p_rank, 50);
            acc.ndcg10 += ndcg_at_k(&t_rank, &p_rank, 10);
            acc.ndcg50 += ndcg_at_k(&t_rank, &p_rank, 50);
        }
        let n = truth.len().max(1) as f64;
        RankingEval {
            hr5: acc.hr5 / n,
            hr10: acc.hr10 / n,
            hr50: acc.hr50 / n,
            ndcg10: acc.ndcg10 / n,
            ndcg50: acc.ndcg50 / n,
            queries: truth.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_ascending() {
        let d = [3.0, 1.0, 2.0, 0.5];
        assert_eq!(rank_by_distance(&d), vec![3, 1, 2, 0]);
    }

    #[test]
    fn rank_deterministic_with_nan_and_ties() {
        // NaNs must sort last in a total order (not compare "Equal" to
        // everything and scramble the sort), and exact ties must break
        // by index.
        let d = [0.5, f64::NAN, 0.5, 0.1, f64::NAN, 0.5];
        assert_eq!(rank_by_distance(&d), vec![3, 0, 2, 5, 1, 4]);
        // The ranking of the finite prefix is unaffected by NaN tail
        // candidates (they cannot displace real neighbors).
        let clean = [0.5, f64::INFINITY, 0.5, 0.1, f64::INFINITY, 0.5];
        assert_eq!(rank_by_distance(&clean), rank_by_distance(&d));
    }

    #[test]
    fn perfect_prediction_scores_one() {
        let t = vec![5, 2, 8, 1, 9, 0, 3, 4, 6, 7];
        assert_eq!(hr_at_k(&t, &t, 5), 1.0);
        assert_eq!(ndcg_at_k(&t, &t, 5), 1.0);
    }

    #[test]
    fn disjoint_prediction_scores_zero() {
        let t = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let p = vec![7, 6, 5, 4, 3, 2, 1, 0];
        assert_eq!(hr_at_k(&t, &p, 4), 0.0);
        assert_eq!(ndcg_at_k(&t, &p, 4), 0.0);
    }

    #[test]
    fn partial_overlap() {
        let t = vec![0, 1, 2, 3];
        let p = vec![0, 9, 1, 8];
        // top-2: {0,1} ∩ {0,9} = {0} → 0.5
        assert_eq!(hr_at_k(&t, &p, 2), 0.5);
    }

    #[test]
    fn ndcg_rewards_early_hits() {
        let t = vec![0, 1, 2, 3, 4, 5];
        // Same 3 hits, but placed early vs late in the prediction.
        let early = vec![0, 1, 2, 9, 8, 7];
        let late = vec![9, 8, 7, 0, 1, 2];
        let n_early = ndcg_at_k(&t, &early, 6);
        let n_late = ndcg_at_k(&t, &late, 6);
        assert!(n_early > n_late);
        assert_eq!(hr_at_k(&t, &early, 6), hr_at_k(&t, &late, 6));
    }

    #[test]
    fn k_larger_than_candidates_clamps() {
        let t = vec![0, 1];
        let p = vec![1, 0];
        assert_eq!(hr_at_k(&t, &p, 50), 1.0);
        assert!(ndcg_at_k(&t, &p, 50) > 0.99);
    }

    #[test]
    fn zero_k_is_zero() {
        let t = vec![0, 1];
        assert_eq!(hr_at_k(&t, &t, 0), 0.0);
        assert_eq!(ndcg_at_k(&t, &t, 0), 0.0);
    }

    #[test]
    fn evaluate_aggregates_over_queries() {
        // Two queries over 6 candidates; pred equals truth for q0 and is
        // reversed for q1.
        let truth = vec![
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.0],
        ];
        let pred = vec![
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        ];
        let eval = RankingEval::evaluate(&truth, &pred);
        assert_eq!(eval.queries, 2);
        // q0 perfect (1.0); q1 top-5 of truth {5,4,3,2,1} vs pred {0,1,2,3,4}
        // → overlap 4/5.
        assert!((eval.hr5 - (1.0 + 0.8) / 2.0).abs() < 1e-12);
    }
}
