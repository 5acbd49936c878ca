//! Property-based tests for the pivot-partitioned index tier: indexed
//! top-k must be byte-identical to the flat scan for every plugin
//! variant across random stores and cell counts — the metric ones
//! through triangle bounds, the fused one through the convex-mix bound,
//! including at the corners of its admissibility argument (zero, tiny
//! and cap-sized factors, duplicate rows, NaN / ∞ coordinates, tombstone
//! masks) and on the fail-open side (an uncertifiable store or query is
//! served exactly and prunes nothing); and the index codec must
//! round-trip exactly while rejecting truncated payloads with an error
//! instead of a panic.

use lh_repro::plugin::retrieval::index::bound::mix_factor_cap;
use lh_repro::plugin::{
    BoundSpace, EmbeddingStore, IndexParams, IndexedStore, PluginVariant, RetrievalResult,
    ServingOptions, ShardedServingOptions, ShardedServingStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FACTOR_DIM: usize = 3;

/// Metric variants: the ones whose (mapped) distance satisfies the
/// triangle inequality, hence get exact pruning.
const METRIC: [PluginVariant; 3] = [
    PluginVariant::Original,
    PluginVariant::LorentzVanilla,
    PluginVariant::LorentzCosh,
];

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

/// A certified fused store of `n` rows drawn from the corners of the
/// convex-mix argument: every factor row takes one of six shapes, one
/// row in five repeats an earlier row bit for bit, and — when `poison` is
/// set (database side only; a query must be finite to be certified) —
/// one row in sixteen carries a NaN / +∞ coordinate in the Euclidean
/// row, the hyperbolic row, or both. (Poisoned rows seed NaN centroids,
/// which leaves little to prune: the unpoisoned cases are the ones that
/// lean on the bound, the poisoned ones on its failing open.)
fn corner_store(n: usize, dim: usize, poison: bool, rng: &mut StdRng) -> EmbeddingStore {
    let cap = mix_factor_cap(FACTOR_DIM);
    let mut store = EmbeddingStore::new(dim, PluginVariant::FusionDist, 1.0, Some(FACTOR_DIM));
    for i in 0..n {
        if i > 0 && rng.gen_range(0..5) == 0 {
            let r = rng.gen_range(0..i);
            let (eu, hy) = (store.eu_row(r).to_vec(), store.hyper_row(r).to_vec());
            let fa = store.factor_row(r).to_vec();
            store.push(&eu, Some(&hy), Some(&fa));
            continue;
        }
        // Tight clusters at the corners of a cube, so the bound has
        // something to certify out even in a store this small — drawn
        // independently for the two components (a trained model's `eu`
        // and `hyper` rows are different projections), so a row can be
        // near in one and far in the other.
        let clustered = |rng: &mut StdRng| -> Vec<f32> {
            let corner = rng.gen_range(0..4u32);
            (0..dim)
                .map(|d| {
                    let center = if corner >> (d % 2) & 1 == 0 {
                        -1.5
                    } else {
                        1.5
                    };
                    center + rng.gen_range(-0.05f32..0.05)
                })
                .collect()
        };
        let mut eu = clustered(rng);
        let spatial = clustered(rng);
        let nsq: f32 = spatial.iter().map(|v| v * v).sum();
        let mut hy = vec![(nsq + 1.0).sqrt()];
        hy.extend_from_slice(&spatial);
        if poison && rng.gen_range(0..16) == 0 {
            let bad = [f32::NAN, f32::INFINITY][rng.gen_range(0..2usize)];
            let (at, target) = (rng.gen_range(0..dim), rng.gen_range(0..3));
            if target != 1 {
                eu[at] = bad;
            }
            if target != 0 {
                hy[1 + at] = bad;
            }
        }
        let shape = rng.gen_range(0..6);
        let fa: Vec<f32> = (0..2 * FACTOR_DIM)
            .map(|j| {
                let lo_half = j < FACTOR_DIM;
                match shape {
                    0 if lo_half => 0.0,  // V_Lo = 0 ⇒ α̃ = 0
                    1 if !lo_half => 0.0, // V_Eu = 0 ⇒ α̃ = 1
                    2 => 0.0,             // both zero: the MIN_POSITIVE clamp
                    3 => 1e-30,           // products underflow to 0
                    4 => cap,             // right at the certification cap
                    _ => rng.gen_range(0.01f32..1.0),
                }
            })
            .collect();
        store.push(&eu, Some(&hy), Some(&fa));
    }
    store
}

fn build(store: EmbeddingStore, n_cells: usize) -> IndexedStore {
    IndexedStore::build(
        store,
        IndexParams {
            n_cells: Some(n_cells),
        },
    )
}

/// Bit-exact view of a result list (f32 `==` would treat NaN as unequal).
fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u32)> {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Indexed top-k ≡ flat-scan top-k — ids and bit-identical distances
    /// — for every metric variant, across random stores and cell counts.
    /// This is the tier's exactness contract (recall 1.0 by construction).
    #[test]
    fn indexed_matches_flat_topk_for_metric_variants(
        n in 0usize..50,
        n_queries in 1usize..4,
        dim in 1usize..6,
        n_cells in 1usize..12,
        k in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        for variant in METRIC {
            let db = random_store(variant, n, dim, seed);
            let queries = random_store(variant, n_queries, dim, seed ^ 0x5eed);
            let ix = build(db.clone(), n_cells);
            prop_assert!(ix.bound_space().is_metric(), "{}", variant.name());
            let batch = ix.knn_batch(&queries, k);
            prop_assert_eq!(batch.len(), n_queries);
            for (qi, hits) in batch.iter().enumerate() {
                let flat = db.knn(&queries, qi, k);
                prop_assert_eq!(
                    bits(hits),
                    bits(&flat),
                    "{} n={} cells={} k={} qi={}",
                    variant.name(), n, n_cells, k, qi
                );
                prop_assert_eq!(bits(&ix.knn(&queries, qi, k)), bits(&flat));
            }
        }
    }

    /// The fused variant: not a metric, and still exact *with pruning
    /// allowed* — positive factors certify the convex-mix bound, so
    /// results are bit-identical (recall 1.0) whatever the bound skipped.
    #[test]
    fn fused_index_matches_flat_topk(
        n in 0usize..40,
        n_queries in 1usize..4,
        dim in 1usize..5,
        n_cells in 1usize..10,
        k in 1usize..30,
        seed in 0u64..1_000_000,
    ) {
        let variant = PluginVariant::FusionDist;
        let db = random_store(variant, n, dim, seed);
        let queries = random_store(variant, n_queries, dim, seed ^ 0x5eed);
        let ix = build(db.clone(), n_cells);
        prop_assert_eq!(ix.bound_space(), BoundSpace::ConvexMix { beta: 1.0 });
        let flat: Vec<Vec<RetrievalResult>> = (0..n_queries)
            .map(|qi| db.knn(&queries, qi, k))
            .collect();
        let (indexed, stats) = ix.knn_batch_with_stats(&queries, k);
        for (got, want) in indexed.iter().zip(&flat) {
            prop_assert_eq!(bits(got), bits(want));
        }
        // Every row is scanned, skipped by a member bound, or sits in a
        // cell the cell bound skipped.
        prop_assert!(stats.rows_scanned + stats.rows_pruned <= stats.rows);
        prop_assert!(stats.cells_probed + stats.cells_pruned <= stats.cells);
        prop_assert!(stats.cells_pruned > 0 || stats.rows_scanned + stats.rows_pruned == stats.rows);
    }

    /// Index payloads round-trip exactly — same structure, same answers —
    /// and any strict prefix errors instead of panicking.
    #[test]
    fn index_codec_roundtrips_and_rejects_truncation(
        n in 0usize..30,
        dim in 1usize..5,
        n_cells in 1usize..8,
        seed in 0u64..1_000_000,
        frac in 0.0f64..1.0,
    ) {
        for variant in PluginVariant::ABLATION {
            let ix = build(random_store(variant, n, dim, seed), n_cells);
            let payload = ix.to_bytes();
            let restored = IndexedStore::from_bytes(&payload)
                .expect("freshly encoded index must decode");
            prop_assert_eq!(&restored, &ix, "{}", variant.name());
            let queries = random_store(variant, 2, dim, seed ^ 0xc0dec);
            for qi in 0..queries.len() {
                prop_assert_eq!(
                    bits(&restored.knn(&queries, qi, 7)),
                    bits(&ix.knn(&queries, qi, 7))
                );
            }
            let cut = ((payload.len() as f64) * frac) as usize;
            prop_assume!(cut < payload.len());
            let res = IndexedStore::from_bytes(&payload[..cut]);
            prop_assert!(res.is_err(), "{} cut={} len={}", variant.name(), cut, payload.len());
        }
    }
}

proptest! {
    // The admissibility cases are cheap and the claim is universal:
    // more of them than the structural properties above get.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The convex-mix bound at the corners of its admissibility argument.
    /// Factor rows are driven to all-zero `V_Lo` (α̃ = 0), all-zero `V_Eu`
    /// (α̃ = 1), both zero (`lo + eu` clamps to `MIN_POSITIVE`), 1e-30
    /// (products underflow to 0) and the certification cap; rows repeat
    /// exactly (ties broken by index) and carry NaN / +∞ coordinates
    /// (stored pivot distances non-finite ⇒ that row fails open). The
    /// store stays certified through all of it, and indexed ≡ flat on
    /// ids and `f32` bits — frozen, and under a tombstone mask through
    /// the serving tier's indexed base.
    #[test]
    fn fused_bound_is_admissible_at_the_corners(
        n in 1usize..64,
        dim in 1usize..5,
        n_cells in 1usize..9,
        k in 1usize..8,
        poison in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = corner_store(n, dim, poison == 1, &mut rng);
        let queries = corner_store(6, dim, false, &mut rng);
        let ix = build(db.clone(), n_cells);
        prop_assert_eq!(ix.bound_space(), BoundSpace::ConvexMix { beta: 1.0 });
        let (batch, stats) = ix.knn_batch_with_stats(&queries, k);
        for (qi, hits) in batch.iter().enumerate() {
            prop_assert_eq!(
                bits(hits),
                bits(&db.knn(&queries, qi, k)),
                "n={} cells={} k={} qi={}", n, n_cells, k, qi
            );
        }
        prop_assert!(stats.rows_scanned + stats.rows_pruned <= stats.rows);

        // The same rows as a serving base, a third of them tombstoned:
        // the masked probe against a flat scan of the live rows.
        let opts = ShardedServingOptions {
            shards: 1,
            serving: ServingOptions {
                index_params: IndexParams { n_cells: Some(n_cells) },
                compact_threshold: 0,
                ..ServingOptions::default()
            },
        };
        let store =
            ShardedServingStore::new(db, (0..n as u64).collect(), opts).expect("unique ids");
        prop_assert!(store.snapshot().base_indexed(), "certified fused base is indexed");
        for id in (0..n as u64).filter(|_| rng.gen_range(0..3) == 0) {
            store.remove(id).expect("remove");
        }
        let snap = store.snapshot();
        prop_assert!(snap.base_indexed() && snap.delta_rows() == 0);
        let (live, live_ids) = snap.to_flat();
        for qi in 0..queries.len() {
            let got: Vec<(u64, u32)> = snap
                .knn(&queries, qi, k)
                .iter()
                .map(|h| (h.id, h.distance.to_bits()))
                .collect();
            let want: Vec<(u64, u32)> = live
                .knn(&queries, qi, k)
                .iter()
                .map(|h| (live_ids[h.index], h.distance.to_bits()))
                .collect();
            prop_assert_eq!(got, want, "masked n={} cells={} k={} qi={}", n, n_cells, k, qi);
        }
    }

    /// The fail-open side: `α̃ ∈ [0, 1]` is observed, never assumed. One
    /// negative, NaN or over-the-cap stored factor and the store has no
    /// bound space; one such query factor against a certified store and
    /// that query has none. Either way results stay bit-identical and
    /// nothing is pruned.
    #[test]
    fn uncertifiable_fused_store_or_query_prunes_nothing(
        n in 1usize..40,
        dim in 1usize..5,
        n_cells in 1usize..9,
        k in 1usize..12,
        which in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let over_cap = f32::from_bits(mix_factor_cap(FACTOR_DIM).to_bits() + 1);
        let bad = [-1e-3f32, f32::NAN, over_cap][which];
        let mut rng = StdRng::seed_from_u64(seed);
        let good_db = corner_store(n, dim, seed % 2 == 1, &mut rng);
        let good_q = corner_store(3, dim, false, &mut rng);
        let poison = |src: &EmbeddingStore, rng: &mut StdRng| {
            let (row, col) = (rng.gen_range(0..src.len()), rng.gen_range(0..2 * FACTOR_DIM));
            let mut out = src.empty_like();
            for i in 0..src.len() {
                let mut fa = src.factor_row(i).to_vec();
                if i == row {
                    fa[col] = bad;
                }
                out.push(src.eu_row(i), Some(src.hyper_row(i)), Some(&fa));
            }
            out
        };

        let bad_db = poison(&good_db, &mut rng);
        let ix = build(bad_db.clone(), n_cells);
        prop_assert_eq!(ix.bound_space(), BoundSpace::None, "factor {}", bad);
        prop_assert_eq!(ix.num_cells(), 0usize, "nothing to prune with: no cells");
        let bad_q = poison(&good_q, &mut rng);
        for (ix, db, queries) in [
            (ix, &bad_db, &good_q),
            (build(good_db.clone(), n_cells), &good_db, &bad_q),
        ] {
            for qi in 0..queries.len() {
                let (hits, stats) = ix.knn_with_stats(queries, qi, k);
                prop_assert_eq!(bits(&hits), bits(&db.knn(queries, qi, k)), "factor {}", bad);
                let certified = ix.bound_space().prunes()
                    && queries.factor_row(qi).iter().all(|v| (0.0..over_cap).contains(v));
                if !certified {
                    prop_assert_eq!((stats.rows_pruned, stats.cells_pruned), (0, 0));
                    prop_assert_eq!(stats.rows_scanned, db.len());
                }
            }
        }
    }
}

/// Directed check: indexed serving stays deterministic and flat-identical
/// in the presence of non-finite embedding values (NaN bounds must fail
/// open into probes, never into wrong prunes).
#[test]
fn indexed_is_deterministic_with_nan_embeddings() {
    let mut db = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
    db.push(&[0.0, 0.0], None, None);
    db.push(&[f32::NAN, 1.0], None, None);
    db.push(&[2.0, 0.0], None, None);
    db.push(&[f32::INFINITY, 0.0], None, None);
    db.push(&[1.0, 0.0], None, None);
    for n_cells in 1..=5 {
        let ix = build(db.clone(), n_cells);
        let batch = ix.knn_batch(&db, 5);
        for (qi, hits) in batch.iter().enumerate() {
            assert_eq!(
                bits(hits),
                bits(&db.knn(&db, qi, 5)),
                "cells={n_cells} qi={qi}"
            );
        }
    }
}

/// Directed check: single-row and k ≥ n stores serve exactly.
#[test]
fn tiny_stores_serve_exactly() {
    for variant in PluginVariant::ABLATION {
        let db = random_store(variant, 1, 3, 7);
        let ix = IndexedStore::with_default_params(db.clone());
        assert_eq!(ix.num_cells(), 1);
        let hits = ix.knn(&db, 0, 10);
        assert_eq!(bits(&hits), bits(&db.knn(&db, 0, 10)), "{}", variant.name());
        assert_eq!(hits.len(), 1, "k ≥ n returns all rows");
    }
}

/// A query store of another layout — here the same widths under another
/// variant — is a panic at the index's entry in every profile, never a
/// probe over the wrong rows.
#[test]
#[should_panic(expected = "query store layout mismatch")]
fn indexed_knn_rejects_a_query_store_of_another_variant() {
    let ix = build(random_store(PluginVariant::LorentzCosh, 9, 3, 1), 2);
    let _ = ix.knn(&random_store(PluginVariant::Original, 1, 3, 2), 0, 1);
}

/// `(variant, rows, width, FNV-1a of IndexedStore::to_bytes())` for one
/// seeded finite store per variant, built with the default `⌈√n⌉`
/// cells. The last store is larger than the build's 16 384-row training
/// sample, so its seeding and Lloyd run on the sampled path. Every
/// centroid, member list, pivot distance and radius bit is in the hash:
/// a build change that is meant to be exact must keep these values.
#[rustfmt::skip]
const INDEX_GOLDEN: &[(PluginVariant, usize, usize, u64)] = &[
    (PluginVariant::Original, 2_500, 6, 0x0a1e_cf07_e7b5_936f),
    (PluginVariant::LorentzVanilla, 2_500, 6, 0x13de_f9dd_002b_e564),
    (PluginVariant::LorentzCosh, 2_500, 6, 0xab24_5210_3e37_ca58),
    (PluginVariant::FusionDist, 2_500, 6, 0x419b_9bad_3e91_5c00),
    (PluginVariant::LorentzCosh, 20_000, 8, 0x8fea_b378_20ef_bb2a),
];

/// [`random_store`] plus exact repeats of every seventh row, so ties
/// between equal distances are in the golden bits too.
fn golden_store(variant: PluginVariant, n: usize, dim: usize) -> EmbeddingStore {
    let mut store = random_store(variant, n, dim, 0x901d ^ n as u64);
    let src = store.clone();
    for i in (0..n).step_by(7) {
        store.push_row_from(&src, i);
    }
    store
}

#[test]
fn index_bytes_match_the_golden_hashes() {
    use lh_repro::traj::codec::Fnv64;
    for &(variant, n, dim, want) in INDEX_GOLDEN {
        let ix = IndexedStore::with_default_params(golden_store(variant, n, dim));
        assert!(ix.num_cells() > 1, "{}", variant.name());
        let got = Fnv64::hash(ix.to_bytes().as_slice());
        assert_eq!(
            got,
            want,
            "{} n={n}: index bytes moved ({got:#018x})",
            variant.name()
        );
    }
}
