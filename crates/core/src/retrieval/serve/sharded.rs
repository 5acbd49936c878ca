//! The public serving store: hash-partitioned across independent shards,
//! with every fold on a background thread.
//!
//! A [`ShardedServingStore`] owns S crate-internal shards (`Shard`, see
//! the [`serve`](super) module docs); a single store is `shards: 1`. Every
//! external id maps to exactly one shard via a splitmix64 hash
//! ([`shard_of_id`]), so each shard has its *own* writer lock, delta
//! segment, epoch counter, and (when durable) WAL + checkpoint under
//! `shard-NNNN/` — writes to different shards proceed fully in parallel,
//! and a fold in one shard never blocks another shard's writers.
//!
//! # Bit-identity of the read path: one shared heap
//!
//! [`ShardedSnapshot::knn`] must equal a flat scan of the concatenated
//! per-shard live rows ([`ShardedSnapshot::to_flat`]) bit-for-bit. It
//! scans every shard, in shard order, into **one** heap: shard s offers
//! its rows under keys offset by the total key space of shards `0..s`,
//! and keys are mapped back to external ids once, after selection. The
//! argument extends the per-shard one (see the `snapshot` module docs):
//!
//! * **Keys.** Within a shard the key order is a strictly monotone remap
//!   of that shard's flat row order; the prefix offsets make the global
//!   key order a strictly monotone remap of the *concatenated* flat row
//!   order. The heap selects by `(f64 distance, key)`, so offering every
//!   live row of every shard into it keeps exactly the rows, in exactly
//!   the order, that a flat scan of the concatenation keeps.
//! * **A carried τ is admissible.** Shard s does not offer every row: its
//!   index probes against the k-th best of shards `0..s` from its first
//!   cell on. The heap's worst survivor only ever improves as rows are
//!   offered, so at any moment it is at least the final k-th best; and
//!   every prune test is a strict comparison against a slack-padded `τ`
//!   (`IndexedStore::scan`). A row shard s skips is therefore strictly
//!   farther than the final k-th best — it could not have been returned
//!   whatever its key, ties at `τ` included, which are never skipped.
//! * **Narrowing still happens after selection.** The heap compares the
//!   `f64` images of the `f32` kernel distances; hits are narrowed back
//!   to `f32` (exactly — they came from `f32`) only once the k survivors
//!   are fixed, so no comparison ever sees a value other than the one a
//!   flat scan ranks.
//!
//! `tests/serving_store.rs` enforces the contract at `shards: 1` and
//! `tests/serving_sharded.rs` at several shard counts, against a one-shard
//! store and a BTreeMap model.
//!
//! # Compaction lifecycle
//!
//! Shards never fold on the writer. Every write returns the churn it
//! published; once that reaches [`ServingOptions::compact_threshold`] the
//! wrapper schedules the shard on the crate-internal `Compactor` thread,
//! which runs the shard's one fold: pin → fold off-lock → catch-up
//! install. [`ShardedServingStore::drain`] waits for the scheduled folds;
//! [`ShardedServingStore::compact_inline`] drains and then runs the same
//! fold once per shard on the calling thread — the determinism escape
//! hatch for tests and shutdown.

use super::super::store::EmbeddingStore;
use super::compactor::Compactor;
use super::snapshot::{DeadMasks, Snapshot};
use super::wal;
use super::{ServeError, ServeHit, ServeStats, ServingOptions, Shard};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::topk::TopK;

/// Configuration for a [`ShardedServingStore`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedServingOptions {
    /// Number of shards (≥ 1). Fixed for the life of the store — the
    /// partition function is keyed by it, so recovery reads the count
    /// from the manifest, not from this field.
    pub shards: usize,
    /// Per-shard serving options. `compact_threshold` is the per-shard
    /// churn level at which a write schedules a background fold.
    pub serving: ServingOptions,
}

impl Default for ShardedServingOptions {
    fn default() -> Self {
        ShardedServingOptions {
            shards: 4,
            serving: ServingOptions::default(),
        }
    }
}

/// The shard an external id lives in, out of `shards`. splitmix64 — the
/// same finalizer the index builder uses for seeding — so adversarially
/// sequential ids still spread uniformly.
pub fn shard_of_id(id: u64, shards: usize) -> usize {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// A point-in-time view across every shard: one snapshot per shard,
/// each internally consistent. The cut is per-shard, not global — but an
/// id lives in exactly one shard, so every id reads at one consistent
/// point, and a quiesced store (writes stopped, compactor drained)
/// yields a fully consistent view.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    pub(super) shards: Vec<Arc<Snapshot>>,
}

impl ShardedSnapshot {
    /// Live rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no live row exists.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Sum of per-shard publication epochs (total publications across
    /// the store).
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch()).sum()
    }

    /// Rows sitting in delta segments across all shards.
    pub fn delta_rows(&self) -> usize {
        self.shards.iter().map(|s| s.delta_rows()).sum()
    }

    /// Whether every non-empty base segment is served through the pivot
    /// index.
    pub fn base_indexed(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.base_indexed() || s.base.is_empty())
    }

    /// External ids of every live row, in shard order then snapshot
    /// order — the id column of [`ShardedSnapshot::to_flat`].
    pub fn live_ids(&self) -> Vec<u64> {
        let mut ids = Vec::with_capacity(self.len());
        for s in &self.shards {
            ids.extend(s.live_ids());
        }
        ids
    }

    /// Materializes all live rows into one flat store: shard 0's live
    /// rows (base order then delta order), then shard 1's, … This is the
    /// reference surface of the sharded bit-identity contract.
    pub fn to_flat(&self) -> (EmbeddingStore, Vec<u64>) {
        let (mut store, mut ids) = self.shards[0].to_flat();
        for s in &self.shards[1..] {
            let (part, part_ids) = s.to_flat();
            for r in 0..part.len() {
                store.push_row_from(&part, r);
            }
            ids.extend(part_ids);
        }
        (store, ids)
    }

    /// Top-k nearest live rows across all shards: every shard into one
    /// heap at its prefix key offset, keys mapped to ids once.
    /// Bit-identical to a flat scan of [`ShardedSnapshot::to_flat`] (see
    /// the module docs). Panics if `queries` does not share the store's
    /// layout.
    pub fn knn(&self, queries: &EmbeddingStore, qi: usize, k: usize) -> Vec<ServeHit> {
        self.knn_masked(queries, qi, k, &self.dead_masks())
    }

    /// Batched [`ShardedSnapshot::knn`], parallel across queries. Each
    /// shard's tombstone masks are expanded once and shared by every
    /// query.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<ServeHit>> {
        let masks = self.dead_masks();
        let nq = queries.len();
        parallel_map(nq, default_threads(nq), |qi| {
            self.knn_masked(queries, qi, k, &masks)
        })
    }

    fn dead_masks(&self) -> Vec<DeadMasks> {
        self.shards.iter().map(|s| s.dead_masks()).collect()
    }

    fn knn_masked(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
        masks: &[DeadMasks],
    ) -> Vec<ServeHit> {
        let mut top = TopK::new(k);
        // First key of each shard, ascending.
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut offset = 0usize;
        for (s, shard_masks) in self.shards.iter().zip(masks) {
            offsets.push(offset);
            s.scan(queries, qi, shard_masks, offset, &mut top);
            offset += s.key_space();
        }
        top.into_sorted()
            .into_iter()
            .map(|(key, distance)| {
                // The last shard starting at or before `key` (empty
                // shards share a start with the one after them).
                let si = offsets.partition_point(|&start| start <= key) - 1;
                ServeHit {
                    id: self.shards[si].id_of_key(key - offsets[si]),
                    distance: distance as f32,
                }
            })
            .collect()
    }
}

/// The serving store: hash-partitioned across independent shards (a
/// single store is `shards: 1`). See the module docs for the
/// partitioning, bit-identity, and compaction contracts.
pub struct ShardedServingStore {
    shards: Vec<Arc<Shard>>,
    compactor: Compactor,
    /// Per-shard churn trip level (0 disables scheduling).
    threshold: usize,
}

impl fmt::Debug for ShardedServingStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedServingStore")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ShardedServingStore {
    /// In-memory sharded store over `base` rows with external `ids`
    /// (unique, parallel to the rows). Rows are partitioned by
    /// [`shard_of_id`]. No persistence.
    pub fn new(
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ShardedServingOptions,
    ) -> Result<ShardedServingStore, ServeError> {
        let shards = partition(&base, &ids, opts.shards)?
            .into_iter()
            .map(|(store, ids)| Shard::new(store, ids, opts.serving).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(shards, &opts))
    }

    /// Creates a durable sharded store in `dir`: writes the shard
    /// manifest plus one shard directory (checkpoint + WAL) per shard
    /// under `shard-NNNN/`.
    pub fn create_durable(
        dir: &Path,
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ShardedServingOptions,
    ) -> Result<ShardedServingStore, ServeError> {
        let parts = partition(&base, &ids, opts.shards)?;
        std::fs::create_dir_all(dir)?;
        wal::write_manifest(&dir.join(wal::MANIFEST_FILE), opts.shards as u32)?;
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(s, (store, ids))| {
                let shard_dir = dir.join(wal::shard_dir_name(s));
                Shard::create_durable(&shard_dir, store, ids, opts.serving).map(Arc::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(shards, &opts))
    }

    /// Recovers a durable sharded store from `dir`. The manifest's shard
    /// count is authoritative ([`ShardedServingOptions::shards`] is
    /// ignored — the partition function is keyed by the persisted
    /// count); a directory without one is an error. Each shard heals its
    /// own WAL independently, so one torn shard log costs only that
    /// shard's torn tail.
    pub fn recover(
        dir: &Path,
        opts: ShardedServingOptions,
    ) -> Result<ShardedServingStore, ServeError> {
        let shards = wal::read_manifest(&dir.join(wal::MANIFEST_FILE))? as usize;
        let shards = (0..shards)
            .map(|s| Shard::recover(&dir.join(wal::shard_dir_name(s)), opts.serving).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::assemble(shards, &opts))
    }

    fn assemble(shards: Vec<Arc<Shard>>, opts: &ShardedServingOptions) -> Self {
        ShardedServingStore {
            compactor: Compactor::spawn(shards.clone()),
            shards,
            threshold: opts.serving.compact_threshold,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` routes to.
    pub fn shard_of(&self, id: u64) -> usize {
        shard_of_id(id, self.shards.len())
    }

    /// The current published view: one snapshot per shard, each an O(1)
    /// `Arc` clone. Query it lock-free for as long as needed.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Batched top-k against the current view.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<ServeHit>> {
        self.snapshot().knn_batch(queries, k)
    }

    /// Inserts or replaces the row for `id` in its shard. Writes to
    /// different shards run fully in parallel. Schedules a background
    /// fold of the shard when the write trips its threshold.
    pub fn upsert(
        &self,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<bool, ServeError> {
        let sid = self.shard_of(id);
        let (replaced, churn) = self.shards[sid].upsert(id, eu, hyper, factors)?;
        self.maybe_schedule(sid, churn);
        Ok(replaced)
    }

    /// Removes the row for `id` from its shard. Returns whether it
    /// existed.
    pub fn remove(&self, id: u64) -> Result<bool, ServeError> {
        let sid = self.shard_of(id);
        let (existed, churn) = self.shards[sid].remove(id)?;
        self.maybe_schedule(sid, churn);
        Ok(existed)
    }

    fn maybe_schedule(&self, sid: usize, churn: usize) {
        if self.threshold > 0 && churn >= self.threshold {
            self.compactor.schedule(sid);
        }
    }

    /// Drains the compactor, then folds every shard once on the calling
    /// thread — the deterministic escape hatch (tests, shutdown
    /// checkpointing). Absent concurrent writers, every shard ends with
    /// an empty delta and no tombstones. A background fold scheduled by a
    /// concurrent writer races this one through the generation check: of
    /// two folds pinned at one generation, the later install is discarded.
    pub fn compact_inline(&self) -> Result<(), ServeError> {
        self.drain()?;
        for shard in &self.shards {
            shard.fold()?;
        }
        Ok(())
    }

    /// Blocks until every scheduled background fold has landed and
    /// surfaces the first error any fold hit. After `drain` returns (and
    /// absent concurrent writes), no fold is pending.
    pub fn drain(&self) -> Result<(), ServeError> {
        self.compactor.drain()
    }

    /// Aggregate occupancy and lifecycle counters (sums over shards;
    /// `epoch` is the total publication count).
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats {
            epoch: 0,
            live_rows: 0,
            base_rows: 0,
            delta_rows: 0,
            tombstones: 0,
            compactions: 0,
        };
        for s in self.shard_stats() {
            total.epoch += s.epoch;
            total.live_rows += s.live_rows;
            total.base_rows += s.base_rows;
            total.delta_rows += s.delta_rows;
            total.tombstones += s.tombstones;
            total.compactions += s.compactions;
        }
        total
    }

    /// Per-shard counters, indexed by shard id.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Live rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no live row exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Splits `base`/`ids` into per-shard (store, ids) pairs by
/// [`shard_of_id`]. Duplicate-id detection happens downstream in each
/// shard's constructor (an id collides only within its own shard).
fn partition(
    base: &EmbeddingStore,
    ids: &[u64],
    shards: usize,
) -> Result<Vec<(EmbeddingStore, Vec<u64>)>, ServeError> {
    if shards == 0 {
        return Err(ServeError::Corrupt("shard count must be >= 1".into()));
    }
    if shards > u32::MAX as usize {
        return Err(ServeError::Corrupt("shard count exceeds u32".into()));
    }
    if base.len() != ids.len() {
        return Err(ServeError::Corrupt(format!(
            "{} ids for {} rows",
            ids.len(),
            base.len()
        )));
    }
    let mut parts: Vec<(EmbeddingStore, Vec<u64>)> = (0..shards)
        .map(|_| (base.empty_like(), Vec::new()))
        .collect();
    for (r, &id) in ids.iter().enumerate() {
        let (store, part_ids) = &mut parts[shard_of_id(id, shards)];
        store.push_row_from(base, r);
        part_ids.push(id);
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PluginVariant;

    /// Appends a row on the x axis (on `H(1)` for the hyperbolic part):
    /// the same `f32` bits for the same `x`.
    fn push_point(store: &mut EmbeddingStore, x: f32) {
        let v = store.variant();
        let hyper = [(x * x + 1.0).sqrt(), x, 0.0];
        let factors = [0.5, 1.0, 0.7, 0.3];
        store.push(
            &[x, 0.0],
            v.uses_hyperbolic().then_some(&hyper[..]),
            v.uses_fusion().then_some(&factors[..]),
        );
    }

    /// The first `count` ids that [`shard_of_id`] routes to `shard` of 3.
    fn ids_in(shard: usize, count: usize) -> Vec<u64> {
        let mine = |id: &u64| shard_of_id(*id, 3) == shard;
        (0u64..).filter(mine).take(count).collect()
    }

    /// Asserts `snap.knn` ≡ a flat scan of `to_flat()` — ids and `f32`
    /// bits — and returns the served ids.
    fn assert_served_like_flat(snap: &ShardedSnapshot, q: &EmbeddingStore, k: usize) -> Vec<u64> {
        let (rows, ids) = snap.to_flat();
        let served = snap.knn(q, 0, k);
        let flat = rows.knn(q, 0, k);
        let got: Vec<(u64, u32)> = served
            .iter()
            .map(|h| (h.id, h.distance.to_bits()))
            .collect();
        let want: Vec<(u64, u32)> = flat
            .iter()
            .map(|h| (ids[h.index], h.distance.to_bits()))
            .collect();
        assert_eq!(got, want, "{} k={k}", rows.variant().name());
        served.iter().map(|h| h.id).collect()
    }

    /// Ties at τ across the shared heap. Shard 0 alone fills a k = 4
    /// heap; shards 1 and 2 hold exact duplicates of its k-th row — in
    /// base and delta, some tombstoned — beside far rows their indexes
    /// skip against the carried τ. A duplicate ties at τ, is never
    /// pruned, and loses or wins its slot by key exactly as in a flat
    /// scan of `to_flat()`: same ids, same `f32` bits, for every k.
    #[test]
    fn duplicates_of_the_kth_row_in_later_shards_tie_break_like_a_flat_scan() {
        for variant in PluginVariant::ABLATION {
            let (a, b, c) = (ids_in(0, 8), ids_in(1, 9), ids_in(2, 8));
            let mut base = EmbeddingStore::new(2, variant, 1.0, variant.uses_fusion().then_some(2));
            let mut q = base.empty_like();
            push_point(&mut q, 0.0);
            let mut ids = Vec::new();
            let mut place = |id: u64, x: f32| {
                push_point(&mut base, x);
                ids.push(id);
            };
            for i in 0..4 {
                place(a[i], 0.1 * (i + 1) as f32); // 0.4 is the 4th best
                place(a[4 + i], 50.0 + i as f32);
                place(b[3 + i], 60.0 + i as f32);
                place(c[2 + i], 70.0 + i as f32);
            }
            for &id in b[..3].iter().chain(&c[..2]) {
                place(id, 0.4);
            }
            let opts = ShardedServingOptions {
                shards: 3,
                serving: ServingOptions {
                    compact_threshold: 0,
                    ..ServingOptions::default()
                },
            };
            let store = ShardedServingStore::new(base, ids, opts).expect("unique ids");
            let check = |snap: &ShardedSnapshot, top4: [u64; 4]| {
                assert!(snap.base_indexed(), "{}", variant.name());
                for k in [1, 3, 5, 7, 9, 30] {
                    assert_served_like_flat(snap, &q, k);
                }
                assert_eq!(assert_served_like_flat(snap, &q, 4), top4);
            };
            // Shard 0 alone fills the heap; every duplicate loses its tie.
            check(&store.snapshot(), [a[0], a[1], a[2], a[3]]);

            // Duplicates into two deltas (one of them tombstoned again),
            // a tombstone on a base duplicate, and one on a row of shard
            // 0's four — so a duplicate from a later shard now makes k = 4.
            let mut dup = q.empty_like();
            push_point(&mut dup, 0.4);
            let (hyper, factors) = (
                variant.uses_hyperbolic().then(|| dup.hyper_row(0)),
                variant.uses_fusion().then(|| dup.factor_row(0)),
            );
            for id in [b[7], c[6], c[7]] {
                store
                    .upsert(id, dup.eu_row(0), hyper, factors)
                    .expect("upsert");
            }
            for id in [c[6], b[1], a[1]] {
                assert!(store.remove(id).expect("remove"));
            }
            let churned = store.snapshot();
            assert_eq!(churned.delta_rows(), 3);
            check(&churned, [a[0], a[2], a[3], b[0]]);
        }
    }

    #[test]
    #[should_panic(expected = "query store layout mismatch")]
    fn knn_rejects_a_query_store_of_another_width() {
        let mut base = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        push_point(&mut base, 1.0);
        let store = ShardedServingStore::new(base, vec![7], ShardedServingOptions::default())
            .expect("unique ids");
        let mut q = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
        q.push(&[0.0; 3], None, None);
        let _ = store.snapshot().knn(&q, 0, 1);
    }

    /// The pre-sharding single-store layout — a bare `serve.ckpt` +
    /// `serve.wal`, no manifest — is not a serving directory: recovery
    /// returns a typed error instead of panicking or guessing a count.
    #[test]
    fn a_bare_single_store_directory_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("lh-serve-bare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut base = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        push_point(&mut base, 1.0);
        let opts = ServingOptions::default();
        let shard = Shard::create_durable(&dir, base, vec![7], opts).expect("create");
        shard.upsert(8, &[2.0, 0.0], None, None).expect("upsert");
        drop(shard);
        assert!(dir.join(wal::CKPT_FILE).exists() && dir.join(wal::WAL_FILE).exists());
        assert!(!dir.join(wal::MANIFEST_FILE).exists());
        let err = ShardedServingStore::recover(&dir, ShardedServingOptions::default())
            .expect_err("no manifest");
        assert!(
            matches!(&err, ServeError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
