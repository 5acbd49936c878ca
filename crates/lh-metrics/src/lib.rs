//! Evaluation substrate: triangle-inequality violation statistics and
//! retrieval-quality metrics.
//!
//! [`violation`] implements Section V-A of the paper: the violation flag
//! `TVF`, ratio of violation `RV`, relative violation scale `RVS`, and
//! average relative violation `ARVS`, over exact or sampled triplet sets.
//!
//! [`ranking`] implements the Section VI accuracy metrics: hit rate `HR@α`
//! and `NDCG@k` over ground-truth vs embedded distance rankings.
//!
//! [`histogram`] bins RVS populations into densities for the Fig. 5
//! reproduction.

#![forbid(unsafe_code)]

pub mod histogram;
pub mod ranking;
pub mod violation;

pub use histogram::Histogram;
pub use ranking::{hr_at_k, ndcg_at_k, rank_by_distance, RankingEval};
pub use violation::{
    arvs, ratio_of_violation, rvs, sample_triplets, tvf, TripletSample, ViolationStats,
};
