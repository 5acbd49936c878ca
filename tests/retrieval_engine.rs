//! Property-based tests for the retrieval query engine: the batched
//! top-k path and the single-query heap scan must be byte-identical to a
//! brute-force full sort of the distance row for every plugin variant,
//! and the binary payload codec must round-trip exactly (including the
//! empty-store and fusion-factor cases) while rejecting truncated
//! payloads with an error instead of a panic.

use lh_repro::plugin::{EmbeddingStore, PluginVariant, RetrievalResult};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FACTOR_DIM: usize = 3;

/// Builds a store of `n` random rows (valid hyperboloid rows for the
/// Lorentz component, softplus-positive factor rows) from one seed.
fn random_store(variant: PluginVariant, n: usize, dim: usize, seed: u64) -> EmbeddingStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let beta = 1.0;
    let mut store = EmbeddingStore::new(
        dim,
        variant,
        beta,
        variant.uses_fusion().then_some(FACTOR_DIM),
    );
    for _ in 0..n {
        let eu: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let nsq: f32 = eu.iter().map(|v| v * v).sum();
        let mut hy = vec![(nsq + beta).sqrt()];
        hy.extend_from_slice(&eu);
        let fa: Vec<f32> = (0..2 * FACTOR_DIM)
            .map(|_| rng.gen_range(0.01f32..1.0))
            .collect();
        store.push(
            &eu,
            variant.uses_hyperbolic().then_some(&hy[..]),
            variant.uses_fusion().then_some(&fa[..]),
        );
    }
    store
}

/// Bit-exact view of a result list (f32 `==` would treat NaN as unequal).
fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}

/// The independent oracle: materialize the whole distance row, sort all
/// n candidates by `(total_cmp, index)`, keep k. Shares nothing with the
/// scan core but the kernels.
fn full_sort_knn(
    db: &EmbeddingStore,
    queries: &EmbeddingStore,
    qi: usize,
    k: usize,
) -> Vec<RetrievalResult> {
    let mut hits: Vec<RetrievalResult> = db
        .distance_row_from(queries, qi)
        .into_iter()
        .enumerate()
        .map(|(index, d)| RetrievalResult {
            index,
            distance: d as f32,
        })
        .collect();
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.index.cmp(&b.index))
    });
    hits.truncate(k);
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `knn_batch` == single-query heap scan == brute-force full sort,
    /// byte for byte, for all four plugin variants and arbitrary n / k.
    #[test]
    fn batch_matches_single_query_scan(
        n in 0usize..40,
        n_queries in 1usize..5,
        dim in 1usize..6,
        k in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        for variant in PluginVariant::ABLATION {
            let queries = random_store(variant, n_queries, dim, seed ^ 0x5eed);
            let db = random_store(variant, n, dim, seed);
            let batch = db.knn_batch(&queries, k);
            prop_assert_eq!(batch.len(), n_queries);
            for (qi, batch_hits) in batch.iter().enumerate() {
                let single = db.knn(&queries, qi, k);
                prop_assert_eq!(
                    bits(batch_hits),
                    bits(&single),
                    "{} n={} k={} qi={}",
                    variant.name(), n, k, qi
                );
                prop_assert_eq!(
                    bits(&single),
                    bits(&full_sort_knn(&db, &queries, qi, k)),
                    "{} heap scan vs full sort",
                    variant.name()
                );
            }
        }
    }

    /// Payload serialization round-trips exactly, including the empty
    /// store (`n = 0`) and the fusion-factor case.
    #[test]
    fn payload_roundtrip(
        n in 0usize..30,
        dim in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        for variant in PluginVariant::ABLATION {
            let store = random_store(variant, n, dim, seed);
            let restored = EmbeddingStore::from_bytes(store.to_bytes());
            prop_assert_eq!(restored.as_ref(), Ok(&store), "{}", variant.name());
            if variant.uses_fusion() {
                prop_assert_eq!(
                    restored.unwrap().factor_dim(),
                    Some(FACTOR_DIM)
                );
            }
        }
    }

    /// Any strict prefix of a payload decodes to an error — never a panic
    /// and never a silently wrong store.
    #[test]
    fn truncated_payload_errors(
        n in 0usize..12,
        dim in 1usize..5,
        seed in 0u64..1_000_000,
        frac in 0.0f64..1.0,
    ) {
        for variant in PluginVariant::ABLATION {
            let full = random_store(variant, n, dim, seed).to_bytes();
            let cut = ((full.len() as f64) * frac) as usize;
            prop_assume!(cut < full.len());
            let res = EmbeddingStore::from_bytes(&full[..cut]);
            prop_assert!(res.is_err(), "{} cut={} len={}", variant.name(), cut, full.len());
        }
    }
}

/// Directed (non-property) check: batched results stay deterministic in
/// the presence of non-finite embedding values.
#[test]
fn batch_is_deterministic_with_nan_embeddings() {
    let mut db = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
    db.push(&[0.0, 0.0], None, None);
    db.push(&[f32::NAN, 1.0], None, None);
    db.push(&[2.0, 0.0], None, None);
    db.push(&[f32::INFINITY, 0.0], None, None);
    db.push(&[1.0, 0.0], None, None);
    let batch = db.knn_batch(&db, 5);
    for (qi, batch_hits) in batch.iter().enumerate() {
        assert_eq!(bits(batch_hits), bits(&db.knn(&db, qi, 5)), "qi={qi}");
        assert_eq!(bits(batch_hits), bits(&full_sort_knn(&db, &db, qi, 5)));
    }
    // Finite distances first, then +∞, then NaN — by total_cmp.
    let order: Vec<usize> = batch[0].iter().map(|h| h.index).collect();
    assert_eq!(order, vec![0, 4, 2, 3, 1]);
}

/// Built with `--release`, a mismatched query store used to be ranked on
/// truncated rows (the kernels `zip`): this `dim`-2 query against `dim`-3
/// rows returned row 0 at distance 0.0 — no panic, no error. Now it is a
/// panic naming both layouts, in every profile.
#[test]
#[should_panic(expected = "query store layout mismatch")]
fn knn_rejects_a_query_store_of_another_width() {
    let mut db = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
    db.push(&[0.0, 0.0, 9.0], None, None);
    db.push(&[1.0, 0.0, 0.0], None, None);
    let mut q = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
    q.push(&[0.0, 0.0], None, None);
    let _ = db.knn(&q, 0, 1);
}

/// The one-off distance surface checks the layout too: in `--release` the
/// same `dim`-2 query against row `[0, 0, 9]` used to read `0.0`.
#[test]
#[should_panic(expected = "query store layout mismatch")]
fn distance_from_rejects_a_query_store_of_another_width() {
    let mut db = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
    db.push(&[0.0, 0.0, 9.0], None, None);
    let mut q = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
    q.push(&[0.0, 0.0], None, None);
    let _ = db.distance_from(&q, 0, 0);
}
