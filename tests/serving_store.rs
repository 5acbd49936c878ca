//! Property-based tests for the mutable serving tier as a single store —
//! a `ShardedServingStore` with `shards: 1`: interleaved upsert/remove
//! sequences must track a naive `BTreeMap` model (live id set, hit
//! counts, and bit-identical distances against a flat rebuild of the
//! model); a pinned snapshot must be immune to every later write;
//! compaction must preserve query results bit for bit and match a flat
//! scan of the folded store; and a durable store whose WAL is truncated
//! at an arbitrary byte must recover to a consistent prefix of the
//! logged history — never a torn mix, never a panic.

use lh_repro::plugin::{
    EmbeddingStore, PluginVariant, ServeHit, ServingOptions, ShardedServingOptions,
    ShardedServingStore,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const FACTOR_DIM: usize = 3;
const BETA: f32 = 1.0;

/// All serving-relevant plugin variants: two metric ones and the fused
/// one — every base is indexed after compaction, the fused one through
/// the convex-mix bound its positive factors certify.
const VARIANTS: [PluginVariant; 3] = [
    PluginVariant::Original,
    PluginVariant::LorentzCosh,
    PluginVariant::FusionDist,
];

/// One row in the layout `variant` expects (valid hyperboloid point for
/// the Lorentz component, positive factor halves for fusion).
type Row = (Vec<f32>, Option<Vec<f32>>, Option<Vec<f32>>);

/// The write sequence a case replays against both the store and the model.
enum Op {
    Upsert(u64, Row),
    Remove(u64),
}

fn random_row(variant: PluginVariant, dim: usize, rng: &mut StdRng) -> Row {
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

fn empty_store(variant: PluginVariant, dim: usize) -> EmbeddingStore {
    EmbeddingStore::new(
        dim,
        variant,
        BETA,
        variant.uses_fusion().then_some(FACTOR_DIM),
    )
}

/// Seeds `n` rows with ids `0..n` into a base store and the model.
fn seed_rows(
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

/// Draws `n_ops` writes over an id space twice the seeded size, so
/// upserts both insert and replace and removes both hit and miss.
fn random_ops(
    variant: PluginVariant,
    dim: usize,
    n_ops: usize,
    id_space: u64,
    rng: &mut StdRng,
) -> Vec<Op> {
    (0..n_ops)
        .map(|_| {
            let id = rng.gen_range(0..id_space);
            if rng.gen_range(0..100u32) < 70 {
                Op::Upsert(id, random_row(variant, dim, rng))
            } else {
                Op::Remove(id)
            }
        })
        .collect()
}

/// Applies one op to the store and the model, asserting the store's
/// replaced/existed report agrees with the model's.
fn apply(store: &ShardedServingStore, model: &mut BTreeMap<u64, Row>, op: &Op) {
    match op {
        Op::Upsert(id, row) => {
            let replaced = store
                .upsert(*id, &row.0, row.1.as_deref(), row.2.as_deref())
                .expect("upsert of a well-shaped row");
            let model_replaced = model.insert(*id, row.clone()).is_some();
            assert_eq!(replaced, model_replaced, "upsert({id}) replace report");
        }
        Op::Remove(id) => {
            let existed = store
                .remove(*id)
                .expect("remove never fails on io-less store");
            assert_eq!(existed, model.remove(id).is_some(), "remove({id}) report");
        }
    }
}

/// Rebuilds the model as a flat store (rows in id order) for exact
/// reference queries.
fn model_store(
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
fn canon_hits(hits: &[ServeHit]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = hits.iter().map(|h| (h.distance.to_bits(), h.id)).collect();
    v.sort_unstable();
    v
}

/// Same canonicalisation for a flat-store result, mapping row indices
/// back to external ids.
fn canon_flat(
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
fn ordered_hits(hits: &[ServeHit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// One shard: the single store.
fn opts(compact_threshold: usize) -> ShardedServingOptions {
    ShardedServingOptions {
        shards: 1,
        serving: ServingOptions {
            compact_threshold,
            ..ServingOptions::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The serving store tracks a naive `BTreeMap` model through random
    /// interleaved upserts and removes: same live id set, same replace
    /// reports, and top-k answers whose (id, distance-bits) sets equal a
    /// flat scan over a fresh rebuild of the model — across manual,
    /// aggressive (the compactor folding behind the writes), and default
    /// compaction thresholds.
    #[test]
    fn serving_tracks_btreemap_model(
        dim in 1usize..5,
        n0 in 0usize..30,
        n_ops in 0usize..40,
        k in 1usize..20,
        threshold_sel in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let threshold = [0usize, 4, 4096][threshold_sel];
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5e47e);
            let (base, ids, mut model) = seed_rows(variant, dim, n0, &mut rng);
            let store = ShardedServingStore::new(base, ids, opts(threshold))
                .expect("unique seeded ids");
            let id_space = (2 * n0 + 8) as u64;
            for op in random_ops(variant, dim, n_ops, id_space, &mut rng) {
                apply(&store, &mut model, &op);
            }

            let snap = store.snapshot();
            let mut live = snap.live_ids();
            live.sort_unstable();
            let want: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(&live, &want, "{} live id set", variant.name());
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(snap.len(), model.len());

            let queries = {
                let mut q = empty_store(variant, dim);
                for _ in 0..2 {
                    let row = random_row(variant, dim, &mut rng);
                    q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                }
                q
            };
            let (flat, flat_ids) = model_store(variant, dim, &model);
            for qi in 0..queries.len() {
                let hits = snap.knn(&queries, qi, k);
                prop_assert_eq!(hits.len(), k.min(model.len()));
                for w in hits.windows(2) {
                    prop_assert!(
                        w[0].distance.total_cmp(&w[1].distance).is_le(),
                        "serving hits must stay sorted"
                    );
                }
                prop_assert_eq!(
                    canon_hits(&hits),
                    canon_flat(&flat, &flat_ids, &queries, qi, k),
                    "{} n0={} ops={} thr={} qi={}",
                    variant.name(), n0, n_ops, threshold, qi
                );
            }
        }
    }

    /// Snapshot isolation: a snapshot pinned before a write burst keeps
    /// answering from its epoch's rows — same live ids, bit-identical
    /// hits — no matter what the writer publishes afterwards.
    #[test]
    fn pinned_snapshot_survives_writes(
        dim in 1usize..5,
        n0 in 1usize..20,
        n_ops in 1usize..30,
        k in 1usize..12,
        seed in 0u64..1_000_000,
    ) {
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb1f0);
            let (base, ids, mut model) = seed_rows(variant, dim, n0, &mut rng);
            // Aggressive threshold so the burst usually compacts too.
            let store = ShardedServingStore::new(base, ids, opts(4)).expect("unique ids");

            let queries = {
                let mut q = empty_store(variant, dim);
                let row = random_row(variant, dim, &mut rng);
                q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                q
            };
            let pinned = store.snapshot();
            let epoch0 = pinned.epoch();
            let ids0 = pinned.live_ids();
            let hits0 = ordered_hits(&pinned.knn(&queries, 0, k));

            for op in random_ops(variant, dim, n_ops, (2 * n0 + 8) as u64, &mut rng) {
                apply(&store, &mut model, &op);
            }

            prop_assert_eq!(pinned.epoch(), epoch0);
            prop_assert_eq!(pinned.live_ids(), ids0, "{} pinned ids", variant.name());
            prop_assert_eq!(
                ordered_hits(&pinned.knn(&queries, 0, k)),
                hits0,
                "{} pinned hits", variant.name()
            );
            prop_assert!(
                store.snapshot().epoch() > epoch0,
                "writes must have published past epoch {epoch0}"
            );
        }
    }

    /// Compaction is invisible to readers: hits before and after folding
    /// the delta into a fresh indexed base are
    /// bit-identical *in order*, and both equal a flat scan over the
    /// snapshot's own `to_flat` materialisation.
    #[test]
    fn compaction_preserves_hits_bitwise(
        dim in 1usize..5,
        n0 in 0usize..25,
        n_ops in 1usize..35,
        k in 1usize..15,
        seed in 0u64..1_000_000,
    ) {
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0a4);
            let (base, ids, mut model) = seed_rows(variant, dim, n0, &mut rng);
            // Manual compaction only, so the delta is guaranteed nonempty.
            let store = ShardedServingStore::new(base, ids, opts(0)).expect("unique ids");
            for op in random_ops(variant, dim, n_ops, (2 * n0 + 8) as u64, &mut rng) {
                apply(&store, &mut model, &op);
            }
            let queries = {
                let mut q = empty_store(variant, dim);
                for _ in 0..2 {
                    let row = random_row(variant, dim, &mut rng);
                    q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                }
                q
            };

            let before = store.snapshot();
            let hits_before: Vec<_> = (0..queries.len())
                .map(|qi| ordered_hits(&before.knn(&queries, qi, k)))
                .collect();
            let (flat, flat_ids) = before.to_flat();

            store.compact_inline().expect("in-memory compaction");
            let after = store.snapshot();
            prop_assert_eq!(after.delta_rows(), 0usize);
            prop_assert!(after.base_indexed(), "{} indexed-base contract", variant.name());
            for (qi, want) in hits_before.iter().enumerate() {
                let got = ordered_hits(&after.knn(&queries, qi, k));
                prop_assert_eq!(&got, want, "{} qi={} order-exact", variant.name(), qi);
                let flat_hits: Vec<(u64, u32)> = flat
                    .knn(&queries, qi, k)
                    .iter()
                    .map(|h| (flat_ids[h.index], h.distance.to_bits()))
                    .collect();
                prop_assert_eq!(&got, &flat_hits, "{} qi={} vs to_flat", variant.name(), qi);
            }
        }
    }

    /// Crash safety: truncating the WAL at an arbitrary byte past its
    /// header (a torn append) leaves a store that recovers cleanly to the
    /// state after some *prefix* of the logged ops — and recovering again
    /// from the healed log reproduces exactly the same state.
    #[test]
    fn truncated_wal_recovers_to_a_prefix(
        dim in 1usize..4,
        n0 in 0usize..10,
        n_ops in 1usize..20,
        cut_frac in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
            let dir = std::env::temp_dir().join(format!(
                "lh-serve-prop-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4a1);
            let (base, ids, model0) = seed_rows(variant, dim, n0, &mut rng);
            let store = ShardedServingStore::create_durable(&dir, base, ids, opts(0))
                .expect("create durable store");

            // Fingerprint every prefix state of the model as we log ops.
            let queries = {
                let mut q = empty_store(variant, dim);
                let row = random_row(variant, dim, &mut rng);
                q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                q
            };
            let k_all = n0 + n_ops + 1; // covers every live row
            let state_of = |model: &BTreeMap<u64, Row>| {
                let (flat, flat_ids) = model_store(variant, dim, model);
                let hits = if flat.is_empty() {
                    Vec::new()
                } else {
                    canon_flat(&flat, &flat_ids, &queries, 0, k_all)
                };
                (model.keys().copied().collect::<Vec<u64>>(), hits)
            };
            let mut model = model0;
            let mut prefix_states = vec![state_of(&model)];
            for op in random_ops(variant, dim, n_ops, (2 * n0 + 8) as u64, &mut rng) {
                apply(&store, &mut model, &op);
                prefix_states.push(state_of(&model));
            }
            drop(store);

            // Tear the log: keep the 16-byte header (written once at
            // create; a crash mid-append can only tear record frames).
            let wal_path = dir.join("shard-0000").join("serve.wal");
            let len = std::fs::metadata(&wal_path).expect("wal exists").len();
            let body = len.saturating_sub(16);
            let keep = 16 + ((body as f64) * (1.0 - cut_frac)) as u64;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .expect("open wal")
                .set_len(keep)
                .expect("truncate wal");

            let recovered = ShardedServingStore::recover(&dir, opts(0)).expect("recover");
            let snap = recovered.snapshot();
            let mut live = snap.live_ids();
            live.sort_unstable();
            let hits = canon_hits(&snap.knn(&queries, 0, k_all));
            let got = (live, hits);
            let matched = prefix_states.iter().position(|s| s == &got);
            prop_assert!(
                matched.is_some(),
                "{} recovered state matches no logged prefix (n0={} ops={} keep={}/{})",
                variant.name(), n0, n_ops, keep, len
            );
            if cut_frac == 0.0 {
                prop_assert_eq!(
                    matched,
                    Some(prefix_states.len() - 1),
                    "an untorn log must replay completely"
                );
            }
            drop(recovered);

            // The heal rewrote the verified prefix: a second recovery
            // must land on exactly the same state.
            let again = ShardedServingStore::recover(&dir, opts(0)).expect("recover healed log");
            let snap2 = again.snapshot();
            let mut live2 = snap2.live_ids();
            live2.sort_unstable();
            prop_assert_eq!(
                (live2, canon_hits(&snap2.knn(&queries, 0, k_all))),
                got,
                "{} healed log must be deterministic", variant.name()
            );
            drop(again);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Directed check: a store created empty accepts its first rows through
/// upserts, serves them, and compacts into an indexed base.
#[test]
fn empty_store_grows_through_upserts() {
    let variant = PluginVariant::Original;
    let store = ShardedServingStore::new(empty_store(variant, 3), Vec::new(), opts(0))
        .expect("empty store is valid");
    assert!(store.is_empty());
    let mut rng = StdRng::seed_from_u64(7);
    for id in 0..5u64 {
        let row = random_row(variant, 3, &mut rng);
        assert!(!store
            .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
            .expect("upsert"));
    }
    store.compact_inline().expect("compact");
    let snap = store.snapshot();
    assert!(
        snap.base_indexed() && snap.delta_rows() == 0,
        "metric base must be indexed after compaction"
    );
    let q = {
        let mut q = empty_store(variant, 3);
        let row = random_row(variant, 3, &mut rng);
        q.push(&row.0, row.1.as_deref(), row.2.as_deref());
        q
    };
    assert_eq!(snap.knn(&q, 0, 10).len(), 5, "k ≥ n returns all live rows");
}
