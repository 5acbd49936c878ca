//! The serving workloads' inputs: a clustered embedding mixture.
//!
//! Real embedding collections are clustered; uniform noise is the known
//! worst case for any partitioned index and would understate the probe
//! tier. Rows are Gaussian-ish blobs (σ ≈ 0.05) around `CLUSTERS` centers
//! in `[-1, 1)^DIM`, with a valid hyperboloid row for the Lorentz
//! variants and positive factor rows for the fused one. Database, query
//! pool and upserted rows all come from the same mixture: callers query
//! the distribution they indexed.

use crate::stats::{Fnv, SplitMix64};
use lh_core::{EmbeddingStore, PluginConfig, PluginVariant};

pub const DIM: usize = 16;
pub const CLUSTERS: usize = 64;

/// One row in every representation; `push_into` keeps the parts the
/// variant stores.
pub struct Row {
    pub eu: Vec<f32>,
    pub hyper: Vec<f32>,
    pub factors: Vec<f32>,
}

pub struct Mixture {
    centers: Vec<Vec<f32>>,
    plugin: PluginConfig,
}

impl Mixture {
    pub fn new(variant: PluginVariant, rng: &mut SplitMix64) -> Mixture {
        let centers = (0..CLUSTERS)
            .map(|_| (0..DIM).map(|_| rng.unit_f32() * 2.0 - 1.0).collect())
            .collect();
        Mixture {
            centers,
            plugin: PluginConfig {
                variant,
                ..PluginConfig::default()
            },
        }
    }

    /// Draws every representation regardless of variant, so the random
    /// stream (and with it the Euclidean rows) is the same for every
    /// variant at one seed.
    pub fn row(&self, rng: &mut SplitMix64) -> Row {
        let center = &self.centers[rng.below(self.centers.len())];
        let eu: Vec<f32> = center
            .iter()
            .map(|&c| {
                // Sum of four uniforms − 2 ≈ N(0, 1/3); scaled to σ ≈ 0.05.
                let g: f32 = (0..4).map(|_| rng.unit_f32()).sum::<f32>() - 2.0;
                c + g * 0.087
            })
            .collect();
        let norm_sq: f32 = eu.iter().map(|v| v * v).sum();
        let mut hyper = Vec::with_capacity(DIM + 1);
        hyper.push((norm_sq + self.plugin.beta).sqrt());
        hyper.extend_from_slice(&eu);
        let factors = (0..2 * self.plugin.factor_dim)
            .map(|_| 0.01 + 0.99 * rng.unit_f32())
            .collect();
        Row { eu, hyper, factors }
    }

    pub fn empty_store(&self) -> EmbeddingStore {
        let v = self.plugin.variant;
        EmbeddingStore::new(
            DIM,
            v,
            self.plugin.beta,
            v.uses_fusion().then_some(self.plugin.factor_dim),
        )
    }

    pub fn store(&self, n: usize, rng: &mut SplitMix64) -> EmbeddingStore {
        let mut store = self.empty_store();
        for _ in 0..n {
            self.row(rng).push_into(&mut store);
        }
        store
    }
}

impl Row {
    pub fn hyper_for(&self, variant: PluginVariant) -> Option<&[f32]> {
        variant.uses_hyperbolic().then_some(&self.hyper[..])
    }

    pub fn factors_for(&self, variant: PluginVariant) -> Option<&[f32]> {
        variant.uses_fusion().then_some(&self.factors[..])
    }

    pub fn push_into(&self, store: &mut EmbeddingStore) {
        let v = store.variant();
        store.push(&self.eu, self.hyper_for(v), self.factors_for(v));
    }
}

/// Folds every stored value of `store` into `hash`.
pub fn hash_store(hash: &mut Fnv, store: &EmbeddingStore) {
    let v = store.variant();
    hash.u64(store.len() as u64);
    for i in 0..store.len() {
        hash.f32s(store.eu_row(i));
        if v.uses_hyperbolic() {
            hash.f32s(store.hyper_row(i));
        }
        if v.uses_fusion() {
            hash.f32s(store.factor_row(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_layout_valid_for_every_variant() {
        for variant in PluginVariant::ABLATION {
            let mut rng = SplitMix64::new(5);
            let mix = Mixture::new(variant, &mut rng);
            let store = mix.store(32, &mut rng);
            assert_eq!(store.len(), 32);
            if variant.uses_hyperbolic() {
                // On the hyperboloid: x₀² − ‖x‖² = β.
                let h = store.hyper_row(3);
                let norm_sq: f32 = h[1..].iter().map(|v| v * v).sum();
                assert!((h[0] * h[0] - norm_sq - 1.0).abs() < 1e-3);
            }
            assert_eq!(store.has_factors(), variant.uses_fusion());
        }
    }
}
