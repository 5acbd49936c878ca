//! The serving test model shared by `serving_store.rs` and
//! `serving_sharded.rs`: row generators for every serving variant, a
//! `BTreeMap` model and its flat rebuild, bit-exact views of hit lists,
//! and a shard directory's log.

use lh_repro::plugin::{EmbeddingStore, PluginVariant, ServeHit};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Width of each fusion factor half.
pub const FACTOR_DIM: usize = 3;
/// The hyperboloid's curvature parameter for every store.
pub const BETA: f32 = 1.0;

/// All serving-relevant plugin variants: two metric ones and the fused
/// one — every base is indexed after compaction, the fused one through
/// the convex-mix bound its positive factors certify.
pub const VARIANTS: [PluginVariant; 3] = [
    PluginVariant::Original,
    PluginVariant::LorentzCosh,
    PluginVariant::FusionDist,
];

/// One row in the layout `variant` expects (valid hyperboloid point for
/// the Lorentz component, positive factor halves for fusion).
pub type Row = (Vec<f32>, Option<Vec<f32>>, Option<Vec<f32>>);

/// A random row in `variant`'s layout.
pub fn random_row(variant: PluginVariant, dim: usize, rng: &mut StdRng) -> Row {
    let eu: Vec<f32> = (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    let hyper = variant.uses_hyperbolic().then(|| {
        let nsq: f32 = eu.iter().map(|v| v * v).sum();
        let mut hy = vec![(nsq + BETA).sqrt()];
        hy.extend_from_slice(&eu);
        hy
    });
    let factors = variant.uses_fusion().then(|| {
        (0..2 * FACTOR_DIM)
            .map(|_| rng.gen_range(0.01f32..1.0))
            .collect()
    });
    (eu, hyper, factors)
}

/// An empty store in `variant`'s layout.
pub fn empty_store(variant: PluginVariant, dim: usize) -> EmbeddingStore {
    EmbeddingStore::new(
        dim,
        variant,
        BETA,
        variant.uses_fusion().then_some(FACTOR_DIM),
    )
}

/// Seeds `n` rows with ids `0..n` into a base store and the model.
pub fn seed_rows(
    variant: PluginVariant,
    dim: usize,
    n: usize,
    rng: &mut StdRng,
) -> (EmbeddingStore, Vec<u64>, BTreeMap<u64, Row>) {
    let mut store = empty_store(variant, dim);
    let mut ids = Vec::with_capacity(n);
    let mut model = BTreeMap::new();
    for i in 0..n {
        let row = random_row(variant, dim, rng);
        store.push(&row.0, row.1.as_deref(), row.2.as_deref());
        ids.push(i as u64);
        model.insert(i as u64, row);
    }
    (store, ids, model)
}

/// Rebuilds the model as a flat store (rows in id order) for exact
/// reference queries.
pub fn model_store(
    variant: PluginVariant,
    dim: usize,
    model: &BTreeMap<u64, Row>,
) -> (EmbeddingStore, Vec<u64>) {
    let mut store = empty_store(variant, dim);
    let mut ids = Vec::with_capacity(model.len());
    for (&id, row) in model {
        store.push(&row.0, row.1.as_deref(), row.2.as_deref());
        ids.push(id);
    }
    (store, ids)
}

/// Canonical (order-insensitive) bit-exact view of a hit list: the
/// serving store and the model store enumerate rows in different orders,
/// so only the *set* of (id, distance-bits) pairs is comparable.
pub fn canon_hits(hits: &[ServeHit]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = hits.iter().map(|h| (h.distance.to_bits(), h.id)).collect();
    v.sort_unstable();
    v
}

/// Same canonicalisation for a flat-store result, mapping row indices
/// back to external ids.
pub fn canon_flat(
    store: &EmbeddingStore,
    ids: &[u64],
    queries: &EmbeddingStore,
    qi: usize,
    k: usize,
) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = store
        .knn(queries, qi, k)
        .iter()
        .map(|h| (h.distance.to_bits(), ids[h.index]))
        .collect();
    v.sort_unstable();
    v
}

/// In-order bit-exact view — valid when comparing the *same* store
/// before and after an operation that promises identical ordering.
pub fn ordered_hits(hits: &[ServeHit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// A shard directory's one log, `<checkpoint epoch>.wal`.
pub fn shard_log(shard: &Path) -> PathBuf {
    let logs: Vec<PathBuf> = std::fs::read_dir(shard)
        .expect("list shard")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .collect();
    assert_eq!(logs.len(), 1, "one log per shard: {logs:?}");
    logs[0].clone()
}
