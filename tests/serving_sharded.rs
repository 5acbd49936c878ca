//! Property-based tests for the sharded serving tier: a
//! [`ShardedServingStore`] driven through interleaved
//! upsert/remove/query/compact sequences must stay bit-identical to a
//! flat scan of its own concatenated live rows (order-exact), agree with
//! a single store (`shards: 1`) and a naive `BTreeMap` model on the live
//! id set and hit sets, keep pinned cross-shard snapshots immune to later
//! writes, and — durably — recover a multi-shard directory with one torn
//! shard WAL to "that shard at a logged prefix, every other shard
//! complete". The background compactor races the writer between pin and
//! install through the same properties, and directed tests pin down the
//! drain()/determinism, `compact_inline`-behind-a-queued-fold and
//! residual-re-log/recovery contracts. Two directed tests run two writer
//! threads and a reader against four shards while every shard folds in
//! the background, and check each pinned view and the drained store —
//! the second on a durable store, which it then recovers.

use lh_repro::plugin::{
    shard_of_id, EmbeddingStore, PluginVariant, ServingOptions, ShardedServingOptions,
    ShardedServingStore, ShardedSnapshot,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

mod common;
use common::*;

/// The shard counts the issue calls out: degenerate (1), even (2), and a
/// prime that leaves most shards sparsely populated (7).
const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// One step of an interleaved sequence (queries and compactions are ops
/// too — the issue's "interleaved upsert/remove/query/compact").
enum Op {
    Upsert(u64, Row),
    Remove(u64),
    Query,
    Compact,
}

fn random_ops(
    variant: PluginVariant,
    dim: usize,
    n_ops: usize,
    id_space: u64,
    rng: &mut StdRng,
) -> Vec<Op> {
    (0..n_ops)
        .map(|_| {
            let dice = rng.gen_range(0..100u32);
            if dice < 60 {
                Op::Upsert(rng.gen_range(0..id_space), random_row(variant, dim, rng))
            } else if dice < 85 {
                Op::Remove(rng.gen_range(0..id_space))
            } else if dice < 95 {
                Op::Query
            } else {
                Op::Compact
            }
        })
        .collect()
}

/// Order-exact reference: flat scan of the sharded snapshot's own
/// `to_flat`, ids mapped through the concatenated id column.
fn flat_reference(
    snap: &ShardedSnapshot,
    queries: &EmbeddingStore,
    qi: usize,
    k: usize,
) -> Vec<(u64, u32)> {
    let (flat, ids) = snap.to_flat();
    flat.knn(queries, qi, k)
        .iter()
        .map(|h| (ids[h.index], h.distance.to_bits()))
        .collect()
}

fn sharded_opts(shards: usize, threshold: usize) -> ShardedServingOptions {
    ShardedServingOptions {
        shards,
        serving: ServingOptions {
            compact_threshold: threshold,
            ..ServingOptions::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded store tracks both a single store (`shards: 1`) and a
    /// `BTreeMap` model through interleaved upsert/remove/query/compact
    /// sequences, for shard counts {1, 2, 7}: same live id set, same
    /// replace/exist reports, hit *sets* equal to both references at every
    /// query point, and hit *order* bit-identical to a flat scan of its
    /// own concatenated live rows. The compactor thread races these
    /// writes, so the watermark catch-up install is exercised under real
    /// interleavings.
    #[test]
    fn sharded_tracks_single_store_and_model(
        dim in 1usize..5,
        n0 in 0usize..30,
        n_ops in 0usize..40,
        k in 1usize..20,
        shard_sel in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let shards = SHARD_COUNTS[shard_sel];
        // Aggressive threshold so sequences actually trip compaction.
        let threshold = 6;
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x54a3d);
            let (base, ids, mut model) = seed_rows(variant, dim, n0, &mut rng);
            let sharded = ShardedServingStore::new(
                base.clone(),
                ids.clone(),
                sharded_opts(shards, threshold),
            )
            .expect("unique seeded ids");
            let single = ShardedServingStore::new(base, ids, sharded_opts(1, threshold))
                .expect("unique seeded ids");
            let queries = {
                let mut q = empty_store(variant, dim);
                for _ in 0..2 {
                    let row = random_row(variant, dim, &mut rng);
                    q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                }
                q
            };

            let id_space = (2 * n0 + 8) as u64;
            for op in random_ops(variant, dim, n_ops, id_space, &mut rng) {
                match op {
                    Op::Upsert(id, row) => {
                        let a = sharded
                            .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                            .expect("sharded upsert");
                        let b = single
                            .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                            .expect("single upsert");
                        let m = model.insert(id, row).is_some();
                        prop_assert_eq!(a, m, "sharded upsert({}) report", id);
                        prop_assert_eq!(b, m, "single upsert({}) report", id);
                    }
                    Op::Remove(id) => {
                        let a = sharded.remove(id).expect("sharded remove");
                        let b = single.remove(id).expect("single remove");
                        let m = model.remove(&id).is_some();
                        prop_assert_eq!(a, m, "sharded remove({}) report", id);
                        prop_assert_eq!(b, m, "single remove({}) report", id);
                    }
                    Op::Query => {
                        let snap = sharded.snapshot();
                        let got = ordered_hits(&snap.knn(&queries, 0, k));
                        prop_assert_eq!(
                            &got,
                            &flat_reference(&snap, &queries, 0, k),
                            "{} mid-sequence order-exact", variant.name()
                        );
                        let (flat, flat_ids) = model_store(variant, dim, &model);
                        prop_assert_eq!(
                            canon_hits(&snap.knn(&queries, 0, k)),
                            canon_flat(&flat, &flat_ids, &queries, 0, k),
                            "{} mid-sequence vs model", variant.name()
                        );
                    }
                    Op::Compact => {
                        sharded.compact_inline().expect("sharded compact");
                        single.compact_inline().expect("single compact");
                    }
                }
            }
            // Quiesce the compactors before final assertions.
            sharded.drain().expect("background folds");
            single.drain().expect("background folds");

            let snap = sharded.snapshot();
            let mut live = snap.live_ids();
            live.sort_unstable();
            let want: Vec<u64> = model.keys().copied().collect();
            prop_assert_eq!(&live, &want, "{} live id set", variant.name());
            prop_assert_eq!(sharded.len(), model.len());
            prop_assert_eq!(snap.len(), model.len());
            prop_assert_eq!(sharded.stats().live_rows, model.len());

            let single_snap = single.snapshot();
            for qi in 0..queries.len() {
                let hits = snap.knn(&queries, qi, k);
                prop_assert_eq!(hits.len(), k.min(model.len()));
                for w in hits.windows(2) {
                    prop_assert!(
                        w[0].distance.total_cmp(&w[1].distance).is_le(),
                        "sharded hits must stay sorted"
                    );
                }
                prop_assert_eq!(
                    ordered_hits(&hits),
                    flat_reference(&snap, &queries, qi, k),
                    "{} shards={} order-exact vs own flat scan", variant.name(), shards
                );
                prop_assert_eq!(
                    canon_hits(&hits),
                    canon_hits(&single_snap.knn(&queries, qi, k)),
                    "{} shards={} vs single store", variant.name(), shards
                );
            }
        }
    }

    /// Per-shard snapshot isolation composes: a cross-shard snapshot
    /// pinned before a write burst keeps answering from its epoch's rows
    /// — same live ids, bit-identical ordered hits — no matter what the
    /// writers and the background compactor publish afterwards.
    #[test]
    fn pinned_sharded_snapshot_survives_writes(
        dim in 1usize..5,
        n0 in 1usize..20,
        n_ops in 1usize..30,
        k in 1usize..12,
        shard_sel in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let shards = SHARD_COUNTS[shard_sel];
        for variant in VARIANTS {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb1f05);
            let (base, ids, _model) = seed_rows(variant, dim, n0, &mut rng);
            let store = ShardedServingStore::new(
                base,
                ids,
                sharded_opts(shards, 4),
            )
            .expect("unique ids");
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

            let id_space = (2 * n0 + 8) as u64;
            for op in random_ops(variant, dim, n_ops, id_space, &mut rng) {
                match op {
                    Op::Upsert(id, row) => {
                        store
                            .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                            .expect("upsert");
                    }
                    Op::Remove(id) => {
                        store.remove(id).expect("remove");
                    }
                    Op::Query => {
                        std::hint::black_box(store.snapshot().knn(&queries, 0, k));
                    }
                    Op::Compact => store.compact_inline().expect("compact"),
                }
            }
            store.drain().expect("background folds");

            prop_assert_eq!(pinned.epoch(), epoch0);
            prop_assert_eq!(pinned.live_ids(), ids0, "{} pinned ids", variant.name());
            prop_assert_eq!(
                ordered_hits(&pinned.knn(&queries, 0, k)),
                hits0,
                "{} pinned hits", variant.name()
            );
        }
    }

    /// Crash safety across shards: tear ONE shard's WAL at an arbitrary
    /// byte past its header. Recovery must land on "torn shard at some
    /// logged prefix of its own op subsequence, every other shard
    /// complete" — per-shard logs are independent, so one torn log never
    /// costs another shard's writes. A mid-history `compact_inline`
    /// exercises the per-shard checkpoint + WAL-truncation path too.
    #[test]
    fn torn_shard_wal_recovers_to_prefix(
        dim in 1usize..4,
        n0 in 0usize..12,
        n_ops in 2usize..20,
        cut_frac in 0.0f64..1.0,
        shard_sel in 1usize..3, // 2 or 7 shards — one shard torn, others intact
        torn_pick in 0usize..64,
        seed in 0u64..1_000_000,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let shards = SHARD_COUNTS[shard_sel];
        let torn = torn_pick % shards;
        for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
            let dir = std::env::temp_dir().join(format!(
                "lh-serve-shard-prop-{}-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7042);
            let (base, ids, model0) = seed_rows(variant, dim, n0, &mut rng);
            // Scheduled folds off (threshold 0) so the WAL carries all
            // post-checkpoint ops deterministically.
            let store = ShardedServingStore::create_durable(
                &dir,
                base,
                ids,
                sharded_opts(shards, 0),
            )
            .expect("create durable sharded store");

            let queries = {
                let mut q = empty_store(variant, dim);
                let row = random_row(variant, dim, &mut rng);
                q.push(&row.0, row.1.as_deref(), row.2.as_deref());
                q
            };
            let k_all = n0 + n_ops + 1;
            let id_space = (2 * n0 + 8) as u64;
            let ops: Vec<(u64, Option<Row>)> = (0..n_ops)
                .map(|_| {
                    let id = rng.gen_range(0..id_space);
                    if rng.gen_range(0..100u32) < 70 {
                        (id, Some(random_row(variant, dim, &mut rng)))
                    } else {
                        (id, None)
                    }
                })
                .collect();

            // First half, then a full checkpoint, then the second half —
            // the torn shard's WAL holds only its post-checkpoint ops.
            let mut model = model0;
            let half = n_ops / 2;
            for (id, row) in &ops[..half] {
                match row {
                    Some(row) => {
                        store
                            .upsert(*id, &row.0, row.1.as_deref(), row.2.as_deref())
                            .expect("upsert");
                        model.insert(*id, row.clone());
                    }
                    None => {
                        store.remove(*id).expect("remove");
                        model.remove(id);
                    }
                }
            }
            store.compact_inline().expect("mid-history checkpoint");

            // The torn shard can recover to any prefix of its own
            // post-checkpoint subsequence; other shards replay fully.
            // Fingerprint each such hybrid state of the whole store.
            let state_of = |model: &BTreeMap<u64, Row>| {
                let (flat, flat_ids) = model_store(variant, dim, model);
                let hits = if flat.is_empty() {
                    Vec::new()
                } else {
                    canon_flat(&flat, &flat_ids, &queries, 0, k_all)
                };
                (model.keys().copied().collect::<Vec<u64>>(), hits)
            };
            let checkpoint_model = model.clone();
            let mut torn_suffix: Vec<(u64, Option<Row>)> = Vec::new();
            for (id, row) in &ops[half..] {
                match row {
                    Some(row) => {
                        store
                            .upsert(*id, &row.0, row.1.as_deref(), row.2.as_deref())
                            .expect("upsert");
                        model.insert(*id, row.clone());
                    }
                    None => {
                        store.remove(*id).expect("remove");
                        model.remove(id);
                    }
                }
                if shard_of_id(*id, shards) == torn {
                    torn_suffix.push((*id, row.clone()));
                }
            }
            // Hybrid i: other shards final, torn shard after i of its ops.
            let final_model = model;
            let hybrid = |i: usize| {
                let mut m: BTreeMap<u64, Row> = final_model
                    .iter()
                    .filter(|(id, _)| shard_of_id(**id, shards) != torn)
                    .map(|(id, row)| (*id, row.clone()))
                    .collect();
                for (id, row) in checkpoint_model
                    .iter()
                    .filter(|(id, _)| shard_of_id(**id, shards) == torn)
                {
                    m.insert(*id, row.clone());
                }
                for (id, row) in &torn_suffix[..i] {
                    match row {
                        Some(row) => {
                            m.insert(*id, row.clone());
                        }
                        None => {
                            m.remove(id);
                        }
                    }
                }
                m
            };
            let candidate_states: Vec<_> = (0..=torn_suffix.len())
                .map(|i| state_of(&hybrid(i)))
                .collect();
            drop(store);

            // Tear the chosen shard's log past its 32-byte header.
            let wal_path = shard_log(&dir.join(format!("shard-{torn:04}")));
            let len = std::fs::metadata(&wal_path).expect("wal exists").len();
            let body = len.saturating_sub(32);
            let keep = 32 + ((body as f64) * (1.0 - cut_frac)) as u64;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .expect("open wal")
                .set_len(keep)
                .expect("truncate wal");

            let recovered =
                ShardedServingStore::recover(&dir, sharded_opts(shards, 0))
                    .expect("recover");
            prop_assert_eq!(recovered.num_shards(), shards, "manifest shard count");
            let snap = recovered.snapshot();
            let mut live = snap.live_ids();
            live.sort_unstable();
            let hits = canon_hits(&snap.knn(&queries, 0, k_all));
            let got = (live, hits);
            let matched = candidate_states.iter().position(|s| s == &got);
            prop_assert!(
                matched.is_some(),
                "{} recovered state matches no torn-shard prefix \
                 (shards={} torn={} n0={} ops={} keep={}/{})",
                variant.name(), shards, torn, n0, n_ops, keep, len
            );
            if cut_frac == 0.0 {
                prop_assert_eq!(
                    matched,
                    Some(candidate_states.len() - 1),
                    "an untorn log must replay completely"
                );
            }
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Finds ids routing to each of two distinct shards.
fn ids_for_two_shards(shards: usize) -> (Vec<u64>, Vec<u64>) {
    let mut a = Vec::new();
    let mut b = Vec::new();
    let shard_a = shard_of_id(0, shards);
    for id in 0..10_000u64 {
        let s = shard_of_id(id, shards);
        if s == shard_a {
            a.push(id);
        } else if b.is_empty() || shard_of_id(b[0], shards) == s {
            b.push(id);
        }
        if a.len() >= 64 && b.len() >= 64 {
            break;
        }
    }
    (a, b)
}

/// The background compactor is deterministic where it must be: force-trip
/// two shards, `drain()`, and the post-compaction kNN order is
/// bit-identical to a flat scan of the merged live rows (the PR 9
/// order-identity property, extended to the async path).
#[test]
fn background_compactor_determinism() {
    let shards = 4;
    let threshold = 8;
    for variant in VARIANTS {
        let mut rng = StdRng::seed_from_u64(0xd7a1);
        let dim = 3;
        let store = ShardedServingStore::new(
            empty_store(variant, dim),
            Vec::new(),
            sharded_opts(shards, threshold),
        )
        .expect("empty sharded store");
        let (shard_a_ids, shard_b_ids) = ids_for_two_shards(shards);
        assert_ne!(
            store.shard_of(shard_a_ids[0]),
            store.shard_of(shard_b_ids[0]),
            "picked ids must land on two distinct shards"
        );
        let queries = {
            let mut q = empty_store(variant, dim);
            for _ in 0..3 {
                let row = random_row(variant, dim, &mut rng);
                q.push(&row.0, row.1.as_deref(), row.2.as_deref());
            }
            q
        };
        // Push both shards well past the threshold.
        let mut model: BTreeMap<u64, Row> = BTreeMap::new();
        for &id in shard_a_ids
            .iter()
            .take(2 * threshold)
            .chain(shard_b_ids.iter().take(2 * threshold))
        {
            let row = random_row(variant, dim, &mut rng);
            store
                .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                .expect("upsert");
            model.insert(id, row);
        }
        store.drain().expect("both folds land");

        let tripped = store
            .shard_stats()
            .iter()
            .filter(|s| s.compactions > 0)
            .count();
        assert!(
            tripped >= 2,
            "{}: expected >=2 shards compacted in the background, got {tripped}",
            variant.name()
        );
        let snap = store.snapshot();
        // Folds landed: the tripped churn left the delta segments.
        assert!(
            snap.delta_rows() < 2 * threshold,
            "{}: deltas must have been folded",
            variant.name()
        );
        for qi in 0..queries.len() {
            let got = ordered_hits(&snap.knn(&queries, qi, 10));
            assert_eq!(
                got,
                flat_reference(&snap, &queries, qi, 10),
                "{} qi={qi}: post-drain kNN order vs merged flat scan",
                variant.name()
            );
        }
        let (flat, flat_ids) = model_store(variant, dim, &model);
        assert_eq!(
            canon_hits(&snap.knn(&queries, 0, 10)),
            canon_flat(&flat, &flat_ids, &queries, 0, 10),
            "{}: post-drain hits vs model",
            variant.name()
        );
    }
}

/// `compact_inline` behind folds still queued on the compactor: trip two
/// shards' thresholds exactly once each, then call it at once, without
/// draining. It waits for the queued folds, then folds every shard once
/// on the calling thread: each shard ends with an empty delta and no
/// tombstones, hits equal a flat scan of the pre-call `to_flat()` (ids
/// and `f32` bits, in order), and `compactions` counts exactly the queued
/// folds plus one per shard.
#[test]
fn compact_inline_behind_a_queued_fold() {
    let (shards, threshold, dim) = (4, 8, 3);
    for variant in VARIANTS {
        let mut rng = StdRng::seed_from_u64(0x91f0);
        let (base, ids, _model) = seed_rows(variant, dim, 40, &mut rng);
        let store = ShardedServingStore::new(base, ids, sharded_opts(shards, threshold))
            .expect("unique ids");
        let queries = {
            let mut q = empty_store(variant, dim);
            for _ in 0..3 {
                let row = random_row(variant, dim, &mut rng);
                q.push(&row.0, row.1.as_deref(), row.2.as_deref());
            }
            q
        };
        let tripped = [0usize, 1];
        for sid in tripped {
            // Two base tombstones, then fresh upserts: churn reaches the
            // threshold on this shard's last write and not before, so the
            // shard is scheduled exactly once.
            let in_shard = |id: &u64| store.shard_of(*id) == sid;
            for id in (0..40u64).filter(in_shard).take(2) {
                assert!(store.remove(id).expect("remove"), "seeded id {id}");
            }
            for id in (1000u64..).filter(in_shard).take(threshold - 2) {
                let row = random_row(variant, dim, &mut rng);
                store
                    .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                    .expect("upsert");
            }
        }
        let (flat, flat_ids) = store.snapshot().to_flat();
        store.compact_inline().expect("compact_inline");

        assert_eq!(
            store.stats().compactions,
            (tripped.len() + shards) as u64,
            "{}: the queued folds plus one per shard",
            variant.name()
        );
        for s in store.shard_stats() {
            assert_eq!((s.delta_rows, s.tombstones), (0, 0), "{}", variant.name());
        }
        let snap = store.snapshot();
        for qi in 0..queries.len() {
            let want: Vec<(u64, u32)> = flat
                .knn(&queries, qi, 10)
                .iter()
                .map(|h| (flat_ids[h.index], h.distance.to_bits()))
                .collect();
            assert_eq!(
                ordered_hits(&snap.knn(&queries, qi, 10)),
                want,
                "{} qi={qi}: vs the pre-call flat scan",
                variant.name()
            );
        }
    }
}

/// A durable store whose background fold installed mid-churn re-logs the
/// post-pin residue into the fresh WAL: recovery after a clean shutdown
/// must reproduce the exact pre-shutdown state (ids and bit-exact hits),
/// including the writes that landed between the fold's pin and install.
#[test]
fn background_fold_durable_recovery() {
    let shards = 2;
    for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
        let dir = std::env::temp_dir().join(format!(
            "lh-serve-shard-bg-{}-{}",
            variant.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(0xbead);
        let dim = 3;
        let opts = sharded_opts(shards, 8);
        let store =
            ShardedServingStore::create_durable(&dir, empty_store(variant, dim), Vec::new(), opts)
                .expect("create durable");
        for id in 0..64u64 {
            let row = random_row(variant, dim, &mut rng);
            store
                .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                .expect("upsert");
            if id % 5 == 0 {
                store.remove(id / 2).ok();
            }
        }
        store.drain().expect("folds land");
        assert!(
            store.stats().compactions > 0,
            "{}: churn must have tripped background folds",
            variant.name()
        );
        let queries = {
            let mut q = empty_store(variant, dim);
            let row = random_row(variant, dim, &mut rng);
            q.push(&row.0, row.1.as_deref(), row.2.as_deref());
            q
        };
        let snap = store.snapshot();
        let mut expect_ids = snap.live_ids();
        expect_ids.sort_unstable();
        let expect_hits = canon_hits(&snap.knn(&queries, 0, 100));
        let expect_live = store.stats().live_rows;
        drop(snap);
        drop(store); // drains + joins the compactor, final WAL state on disk

        let back = ShardedServingStore::recover(&dir, opts).expect("recover");
        assert_eq!(back.stats().live_rows, expect_live, "{}", variant.name());
        let snap = back.snapshot();
        let mut got_ids = snap.live_ids();
        got_ids.sort_unstable();
        assert_eq!(got_ids, expect_ids, "{} live ids", variant.name());
        assert_eq!(
            canon_hits(&snap.knn(&queries, 0, 100)),
            expect_hits,
            "{} bit-exact hits through the residual re-log",
            variant.name()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Recovering with a different `shards` option must follow the manifest,
/// not the option — the partition function is keyed by the persisted
/// count.
#[test]
fn manifest_pins_shard_count_on_recovery() {
    let dir = std::env::temp_dir().join(format!("lh-serve-shard-manifest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let variant = PluginVariant::Original;
    let mut rng = StdRng::seed_from_u64(11);
    let mut base = empty_store(variant, 2);
    for _ in 0..6 {
        let row = random_row(variant, 2, &mut rng);
        base.push(&row.0, row.1.as_deref(), row.2.as_deref());
    }
    let store =
        ShardedServingStore::create_durable(&dir, base, (0..6).collect(), sharded_opts(3, 0))
            .expect("create");
    assert_eq!(store.num_shards(), 3);
    drop(store);
    // Ask for 7 shards; the manifest says 3.
    let back = ShardedServingStore::recover(&dir, sharded_opts(7, 0)).expect("recover");
    assert_eq!(back.num_shards(), 3, "manifest is authoritative");
    assert_eq!(back.len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every shard's delta grown past three 128-row chunks before it is
/// queried, replayed and folded, in a durable two-shard store: hits equal
/// the model's as sets and the store's own flat scan in order, and stay
/// bit for bit the same through recovery and through the fold, after
/// which each shard directory holds one checkpoint and one log.
#[test]
fn deltas_past_three_chunks_recover_and_fold_exactly() {
    let (shards, dim) = (2, 3);
    for variant in [PluginVariant::LorentzCosh, PluginVariant::FusionDist] {
        let dir = std::env::temp_dir().join(format!(
            "lh-serve-shard-chunks-{}-{}",
            variant.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(0x3c4a);
        let (base, ids, mut model) = seed_rows(variant, dim, 60, &mut rng);
        let opts = sharded_opts(shards, 0);
        let store = ShardedServingStore::create_durable(&dir, base, ids, opts).expect("create");
        while store.shard_stats().iter().any(|s| s.delta_rows <= 3 * 128) {
            let id = rng.gen_range(0..1200u64);
            if rng.gen_range(0..100u32) < 80 {
                let row = random_row(variant, dim, &mut rng);
                store
                    .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                    .expect("upsert");
                model.insert(id, row);
            } else {
                store.remove(id).expect("remove");
                model.remove(&id);
            }
        }
        let mut queries = empty_store(variant, dim);
        for _ in 0..4 {
            let row = random_row(variant, dim, &mut rng);
            queries.push(&row.0, row.1.as_deref(), row.2.as_deref());
        }
        let (flat, flat_ids) = model_store(variant, dim, &model);
        let hits = |snap: &ShardedSnapshot| -> Vec<Vec<(u64, u32)>> {
            let mut all = Vec::new();
            for qi in 0..queries.len() {
                for k in [1, 10, 60] {
                    let served = snap.knn(&queries, qi, k);
                    let want = canon_flat(&flat, &flat_ids, &queries, qi, k);
                    assert_eq!(canon_hits(&served), want, "{} vs model", variant.name());
                    let own = flat_reference(snap, &queries, qi, k);
                    assert_eq!(ordered_hits(&served), own, "{}", variant.name());
                    all.push(own);
                }
            }
            all
        };
        let expect = hits(&store.snapshot());
        drop(store);

        let back = ShardedServingStore::recover(&dir, opts).expect("recover");
        assert_eq!(
            hits(&back.snapshot()),
            expect,
            "{} replayed",
            variant.name()
        );
        back.compact_inline().expect("fold");
        assert_eq!(back.snapshot().delta_rows(), 0);
        assert_eq!(hits(&back.snapshot()), expect, "{} folded", variant.name());
        for s in 0..shards {
            let shard = dir.join(format!("shard-{s:04}"));
            shard_log(&shard);
            assert_eq!(std::fs::read_dir(&shard).expect("list").count(), 2);
        }
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two writers and a reader race the background compactor on four
/// shards. Each writer owns the ids `≡ w (mod 2)`, seeded ones included,
/// which span every shard, and runs its own seeded stream of upserts,
/// re-upserts and removes; the final state is the union of the writers'
/// models whatever the interleaving. Every snapshot the reader pins
/// answers in its own flat scan's order and bits. After `drain()` every
/// shard has folded, and the store equals the model: order-exact against
/// its flat scan, hit sets against the model's, and the same live ids.
#[test]
fn two_writers_and_a_reader_race_folds_on_every_shard() {
    race_two_writers_and_a_reader(false);
}

/// [`two_writers_and_a_reader_race_folds_on_every_shard`] on a durable
/// store: every fold's install prepares its log and checkpoint while both
/// writers keep writing. After `drain()` and drop, a recovery equals the
/// model and answers with the drained store's hits, ids and bits.
#[test]
fn two_writers_and_a_reader_race_durable_folds_and_recover() {
    race_two_writers_and_a_reader(true);
}

fn race_two_writers_and_a_reader(durable: bool) {
    let (shards, threshold, dim, k) = (4, 8, 3, 10);
    let (writers, id_space, ops) = (2u64, 96u64, 2000);
    for variant in VARIANTS {
        let mut rng = StdRng::seed_from_u64(0xc0c4);
        let (base, ids, seeded) = seed_rows(variant, dim, 48, &mut rng);
        let dir = std::env::temp_dir().join(format!(
            "lh-serve-race-{}-{}",
            variant.name(),
            std::process::id()
        ));
        let opts = sharded_opts(shards, threshold);
        let store = if durable {
            let _ = std::fs::remove_dir_all(&dir);
            ShardedServingStore::create_durable(&dir, base, ids, opts)
        } else {
            ShardedServingStore::new(base, ids, opts)
        };
        let store = store.expect("unique ids");
        let mut queries = empty_store(variant, dim);
        for _ in 0..3 {
            let row = random_row(variant, dim, &mut rng);
            queries.push(&row.0, row.1.as_deref(), row.2.as_deref());
        }
        let owned = |w: u64| (0..id_space).filter(move |id| id % writers == w);
        for w in 0..writers {
            let mut hit: Vec<usize> = owned(w).map(|id| shard_of_id(id, shards)).collect();
            hit.sort_unstable();
            hit.dedup();
            assert_eq!(hit.len(), shards, "writer {w}'s ids must span every shard");
        }

        let done = AtomicBool::new(false);
        let model = std::thread::scope(|s| {
            let (store, queries, seeded, done) = (&store, &queries, &seeded, &done);
            let reader = s.spawn(move || {
                let mut reads = 0;
                while !done.load(Ordering::Acquire) || reads < 32 {
                    let snap = store.snapshot();
                    let qi = reads % queries.len();
                    assert_eq!(
                        ordered_hits(&snap.knn(queries, qi, k)),
                        flat_reference(&snap, queries, qi, k),
                        "{} pinned view vs its own flat scan",
                        variant.name()
                    );
                    reads += 1;
                }
            });
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(0x3a17 + w);
                        let mut model: BTreeMap<u64, Row> = seeded
                            .iter()
                            .filter(|(id, _)| *id % writers == w)
                            .map(|(id, row)| (*id, row.clone()))
                            .collect();
                        let mine: Vec<u64> = owned(w).collect();
                        for _ in 0..ops {
                            let id = mine[rng.gen_range(0..mine.len())];
                            if rng.gen_range(0..100u32) < 75 {
                                let row = random_row(variant, dim, &mut rng);
                                let replaced = store
                                    .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
                                    .expect("upsert");
                                assert_eq!(replaced, model.insert(id, row).is_some());
                            } else {
                                let removed = store.remove(id).expect("remove");
                                assert_eq!(removed, model.remove(&id).is_some());
                            }
                        }
                        model
                    })
                })
                .collect();
            // Stop the reader before a writer's panic is re-raised, so a
            // failed assertion fails the test instead of hanging it.
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            done.store(true, Ordering::Release);
            reader.join().expect("reader");
            let mut model = BTreeMap::new();
            for writer in joined {
                model.append(&mut writer.expect("writer"));
            }
            model
        });
        store.drain().expect("background folds");

        for (sid, s) in store.shard_stats().iter().enumerate() {
            assert!(
                s.compactions > 0,
                "{}: shard {sid} never folded",
                variant.name()
            );
        }
        let snap = store.snapshot();
        let (flat, flat_ids) = model_store(variant, dim, &model);
        for qi in 0..queries.len() {
            let hits = snap.knn(&queries, qi, k);
            assert_eq!(
                ordered_hits(&hits),
                flat_reference(&snap, &queries, qi, k),
                "{} qi={qi}: drained view vs its own flat scan",
                variant.name()
            );
            assert_eq!(
                canon_hits(&hits),
                canon_flat(&flat, &flat_ids, &queries, qi, k),
                "{} qi={qi}: drained view vs the model",
                variant.name()
            );
        }
        let mut live = snap.live_ids();
        live.sort_unstable();
        assert_eq!(
            live,
            model.keys().copied().collect::<Vec<u64>>(),
            "{} live ids",
            variant.name()
        );
        if durable {
            let hits: Vec<_> = (0..queries.len())
                .map(|qi| ordered_hits(&snap.knn(&queries, qi, k)))
                .collect();
            drop((snap, store));
            let back = ShardedServingStore::recover(&dir, opts).expect("recover");
            let snap = back.snapshot();
            for (qi, want) in hits.iter().enumerate() {
                let got = snap.knn(&queries, qi, k);
                assert_eq!(&ordered_hits(&got), want, "{} recovered", variant.name());
                assert_eq!(
                    canon_hits(&got),
                    canon_flat(&flat, &flat_ids, &queries, qi, k),
                    "{} qi={qi}: recovered view vs the model",
                    variant.name()
                );
            }
            let mut live = snap.live_ids();
            live.sort_unstable();
            assert!(
                live.iter().eq(model.keys()),
                "{} recovered ids",
                variant.name()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
