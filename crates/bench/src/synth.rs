//! Synthetic workload generation for `serve_bench`.
//!
//! The serving bench needs realistic data to index and serve: clustered
//! embeddings (a Gaussian mixture — real embedding collections are
//! clustered; uniform noise is the known ANN worst case and would
//! understate every index ever built), with valid hyperboloid rows for
//! the Lorentz variants and positive factor rows for fusion. This module
//! is the single home of that generator plus the zipf rank sampler the
//! serving bench skews its id/query popularity with.

use lh_core::config::PluginConfig;
use lh_core::EmbeddingStore;
use rand::rngs::StdRng;
use rand::Rng;

/// Mixture centers shared by a database and its queries (querying the
/// distribution you indexed is the realistic serving workload).
pub fn mixture_centers(clusters: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..clusters.max(1))
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect()
}

/// One synthetic trajectory row in every representation; callers push
/// the parts their variant stores.
pub struct SynthRow {
    /// Euclidean embedding (`dim` wide).
    pub eu: Vec<f32>,
    /// Valid hyperboloid row (`dim + 1` wide, `x₀ = √(‖x‖² + β)`).
    pub hyper: Vec<f32>,
    /// Positive factor row (`2 · factor_dim` wide).
    pub factors: Vec<f32>,
}

/// Draws one clustered row: a Gaussian blob around a random center
/// (σ ≈ 0.05 via an Irwin–Hall approximation — no normal sampler in the
/// offline `rand` shim). Always draws every representation so the rng
/// stream is variant-independent.
pub fn clustered_row(
    dim: usize,
    centers: &[Vec<f32>],
    cfg: &PluginConfig,
    rng: &mut StdRng,
) -> SynthRow {
    let c = &centers[rng.gen_range(0..centers.len())];
    let mut eu = vec![0.0f32; dim];
    for (v, &cv) in eu.iter_mut().zip(c) {
        // Sum of 4 uniforms − 2 ≈ N(0, 1/3); scaled to σ ≈ 0.05.
        let g: f32 = (0..4).map(|_| rng.gen_range(0.0f32..1.0)).sum::<f32>() - 2.0;
        *v = cv + g * 0.087;
    }
    let nsq: f32 = eu.iter().map(|v| v * v).sum();
    let mut hyper = vec![0.0f32; dim + 1];
    hyper[0] = (nsq + cfg.beta).sqrt();
    hyper[1..].copy_from_slice(&eu);
    let factors = (0..2 * cfg.factor_dim)
        .map(|_| rng.gen_range(0.01f32..1.0))
        .collect();
    SynthRow { eu, hyper, factors }
}

/// Clustered synthetic store: `n` rows from [`clustered_row`], keeping
/// only the representations `cfg.variant` stores.
pub fn synth_clustered(
    n: usize,
    dim: usize,
    centers: &[Vec<f32>],
    cfg: &PluginConfig,
    rng: &mut StdRng,
) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(
        dim,
        cfg.variant,
        cfg.beta,
        cfg.variant.uses_fusion().then_some(cfg.factor_dim),
    );
    for _ in 0..n {
        let row = clustered_row(dim, centers, cfg, rng);
        store.push(
            &row.eu,
            cfg.variant.uses_hyperbolic().then_some(&row.hyper[..]),
            cfg.variant.uses_fusion().then_some(&row.factors[..]),
        );
    }
    store
}

/// Zipf-distributed rank sampler: rank `r` (0-based) has weight
/// `1 / (r + 1)^s`. Sampling is a binary search over the precomputed
/// CDF — O(log n) per draw, deterministic given the rng.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// serving workloads are typically skewed around `s ≈ 1`).
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_core::config::PluginVariant;
    use rand::SeedableRng;

    #[test]
    fn synth_rows_are_layout_valid() {
        for variant in PluginVariant::ABLATION {
            let cfg = PluginConfig::paper_default().with_variant(variant);
            let mut rng = StdRng::seed_from_u64(7);
            let centers = mixture_centers(4, 8, &mut rng);
            let store = synth_clustered(32, 8, &centers, &cfg, &mut rng);
            assert_eq!(store.len(), 32);
            if variant.uses_hyperbolic() {
                // On-hyperboloid check: x₀² − ‖x‖² = β.
                let h = store.hyper_row(3);
                let nsq: f32 = h[1..].iter().map(|v| v * v).sum();
                assert!((h[0] * h[0] - nsq - cfg.beta).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let zipf = ZipfSampler::new(1000, 1.1);
        let mut rng = StdRng::seed_from_u64(11);
        let mut head = 0usize;
        const DRAWS: usize = 4000;
        for _ in 0..DRAWS {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                head += 1;
            }
        }
        assert!(
            head > DRAWS / 4,
            "top-1% ranks must draw far above uniform share: {head}/{DRAWS}"
        );
        // s = 0 degenerates to uniform: the head gets ≈ 1% of draws.
        let uniform = ZipfSampler::new(1000, 0.0);
        let mut head_u = 0usize;
        for _ in 0..DRAWS {
            if uniform.sample(&mut rng) < 10 {
                head_u += 1;
            }
        }
        assert!(head_u < DRAWS / 10);
    }
}
