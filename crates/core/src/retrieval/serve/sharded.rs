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
//! which runs the shard's one fold: pin → fold and prepare off-lock →
//! commit. [`ShardedServingStore::drain`] waits for the scheduled folds;
//! [`ShardedServingStore::compact_inline`] drains and then runs the same
//! fold once per shard on the calling thread — the determinism escape
//! hatch for tests and shutdown.

use super::super::index::ProbeStats;
use super::super::store::EmbeddingStore;
use super::compactor::Compactor;
use super::snapshot::Snapshot;
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

    /// Materializes all live rows into one flat store, sized exactly:
    /// shard 0's live rows (base order then delta order), then shard 1's,
    /// … each appended straight into it. This is the reference surface of
    /// the sharded bit-identity contract.
    pub fn to_flat(&self) -> (EmbeddingStore, Vec<u64>) {
        let len = self.len();
        let mut store = self.shards[0].base.store().empty_like();
        store.reserve_rows(len);
        let mut ids = Vec::with_capacity(len);
        for s in &self.shards {
            s.append_live(&mut store, &mut ids);
        }
        (store, ids)
    }

    /// Top-k nearest live rows across all shards: every shard into one
    /// heap at its prefix key offset, keys mapped to ids once.
    /// Bit-identical to a flat scan of [`ShardedSnapshot::to_flat`] (see
    /// the module docs). Panics if `queries` does not share the store's
    /// layout.
    pub fn knn(&self, queries: &EmbeddingStore, qi: usize, k: usize) -> Vec<ServeHit> {
        self.knn_with_stats(queries, qi, k).0
    }

    /// [`ShardedSnapshot::knn`] plus probe accounting, summed over every
    /// segment of every shard: each base's index probe and each delta
    /// chunk's flat scan.
    pub fn knn_with_stats(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
    ) -> (Vec<ServeHit>, ProbeStats) {
        let mut top = TopK::new(k);
        let mut stats = ProbeStats {
            queries: 1,
            ..ProbeStats::default()
        };
        // First key of each shard, ascending.
        let mut offsets = Vec::with_capacity(self.shards.len());
        let mut offset = 0usize;
        for s in &self.shards {
            offsets.push(offset);
            s.scan(queries, qi, offset, &mut top, &mut stats);
            offset += s.key_space();
        }
        let hits = top
            .into_sorted()
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
            .collect();
        (hits, stats)
    }

    /// Batched [`ShardedSnapshot::knn`], parallel across queries.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<ServeHit>> {
        let nq = queries.len();
        parallel_map(nq, default_threads(nq), |qi| self.knn(queries, qi, k))
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
        Self::assemble(shards, &opts)
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
        Self::assemble(shards, &opts)
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
        Self::assemble(shards, &opts)
    }

    fn assemble(shards: Vec<Arc<Shard>>, opts: &ShardedServingOptions) -> Result<Self, ServeError> {
        Ok(ShardedServingStore {
            compactor: Compactor::spawn(shards.clone())?,
            shards,
            threshold: opts.serving.compact_threshold,
        })
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
    /// concurrent writer races this one through the shard's compaction
    /// count: of two folds pinned at one count, the later install is
    /// discarded.
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

    /// Aggregate occupancy and lifecycle counters: sums over shards
    /// (`epoch` is the total publication count), except
    /// `install_hold_us_max`, the longest hold of any shard.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats {
            epoch: 0,
            live_rows: 0,
            base_rows: 0,
            delta_rows: 0,
            tombstones: 0,
            compactions: 0,
            stale_folds: 0,
            install_hold_us_total: 0,
            install_hold_us_max: 0,
        };
        for s in self.shard_stats() {
            total.epoch += s.epoch;
            total.live_rows += s.live_rows;
            total.base_rows += s.base_rows;
            total.delta_rows += s.delta_rows;
            total.tombstones += s.tombstones;
            total.compactions += s.compactions;
            total.stale_folds += s.stale_folds;
            total.install_hold_us_total += s.install_hold_us_total;
            total.install_hold_us_max = total.install_hold_us_max.max(s.install_hold_us_max);
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
    use super::super::snapshot::CHUNK;
    use super::*;
    use crate::config::PluginVariant;
    use std::collections::BTreeMap;

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

    /// `knn_with_stats` reports what the scans did. A one-shard snapshot
    /// with an empty delta reports exactly its base's
    /// `IndexedStore::knn_with_stats`; with delta rows over two chunks and
    /// tombstones in base and delta, one query and the sum of the base
    /// probe (against its tombstones) and each delta chunk's flat scan,
    /// which evaluates every live delta row. The hits are `knn`'s.
    #[test]
    fn snapshot_stats_sum_the_base_probe_and_the_delta_scans() {
        for variant in PluginVariant::ABLATION {
            let mut base = EmbeddingStore::new(2, variant, 1.0, variant.uses_fusion().then_some(2));
            for i in 0..200 {
                push_point(&mut base, (i % 20) as f32 * 5.0 + (i / 20) as f32 * 0.01);
            }
            let mut q = base.empty_like();
            push_point(&mut q, 31.0);
            let opts = ShardedServingOptions {
                shards: 1,
                serving: ServingOptions {
                    compact_threshold: 0,
                    ..ServingOptions::default()
                },
            };
            let store = ShardedServingStore::new(base, (0..200).collect(), opts).expect("ids");
            let bits = |hits: &[ServeHit]| -> Vec<(u64, u32)> {
                hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
            };
            let snap = store.snapshot();
            for k in [1, 5, 40] {
                let (hits, stats) = snap.knn_with_stats(&q, 0, k);
                assert_eq!(bits(&hits), bits(&snap.knn(&q, 0, k)));
                let (_, want) = snap.shards[0].base.knn_with_stats(&q, 0, k);
                assert_eq!(stats, want, "{} k={k}", variant.name());
                assert!(stats.cells_pruned > 0, "{} k={k}", variant.name());
            }

            for id in 150..(150 + CHUNK as u64 + 30) {
                let mut row = q.empty_like();
                push_point(&mut row, (id % 17) as f32 * 6.0);
                let (hyper, factors) = (
                    variant.uses_hyperbolic().then(|| row.hyper_row(0)),
                    variant.uses_fusion().then(|| row.factor_row(0)),
                );
                store
                    .upsert(id, row.eu_row(0), hyper, factors)
                    .expect("upsert");
            }
            for id in [3, 31, 160, 170, 200, 250] {
                assert!(store.remove(id).expect("remove"));
            }
            let snap = store.snapshot();
            let shard = &snap.shards[0];
            assert!(shard.delta.len() > CHUNK && !shard.delta_dead.is_empty());
            for k in [1, 5, 40] {
                let (hits, stats) = snap.knn_with_stats(&q, 0, k);
                assert_eq!(bits(&hits), bits(&snap.knn(&q, 0, k)));
                let (mut top, mut want) = (
                    TopK::new(k),
                    ProbeStats {
                        queries: 1,
                        ..ProbeStats::default()
                    },
                );
                let base_dead = shard.base_dead.mask();
                shard.base.scan(&q, 0, base_dead, 0, &mut top, &mut want);
                want.rows += shard.delta.len();
                want.rows_scanned += shard.delta.len() - shard.delta_dead.len();
                assert_eq!(stats, want, "{} k={k}", variant.name());
            }
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

    /// The pre-sharding single-store layout — a bare checkpoint and log,
    /// no manifest — is not a serving directory: recovery
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
        assert!(dir.join(wal::CKPT_FILE).exists() && dir.join(wal::wal_name(0)).exists());
        assert!(!dir.join(wal::MANIFEST_FILE).exists());
        let err = ShardedServingStore::recover(&dir, ShardedServingOptions::default())
            .expect_err("no manifest");
        assert!(
            matches!(&err, ServeError::Io(e) if e.kind() == std::io::ErrorKind::NotFound),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A row of `variant`'s layout, keyed by its Euclidean bits: a model
    /// entry.
    type Row = (Vec<f32>, Option<Vec<f32>>, Option<Vec<f32>>);

    fn random_row(variant: PluginVariant, rng: &mut impl rand::Rng) -> Row {
        let (x, y) = (rng.gen_range(-3.0f32..3.0), rng.gen_range(-3.0f32..3.0));
        let hyper = variant
            .uses_hyperbolic()
            .then(|| vec![(x * x + y * y + 1.0).sqrt(), x, y]);
        let factors =
            (variant.uses_fusion()).then(|| (0..4).map(|_| rng.gen_range(0.05f32..1.0)).collect());
        (vec![x, y], hyper, factors)
    }

    fn put(store: &ShardedServingStore, model: &mut BTreeMap<u64, Row>, id: u64, row: Row) {
        let replaced = store
            .upsert(id, &row.0, row.1.as_deref(), row.2.as_deref())
            .expect("upsert");
        assert_eq!(replaced, model.insert(id, row).is_some(), "id {id}");
    }

    fn drop_id(store: &ShardedServingStore, model: &mut BTreeMap<u64, Row>, id: u64) {
        let existed = store.remove(id).expect("remove");
        assert_eq!(existed, model.remove(&id).is_some(), "id {id}");
    }

    /// The snapshot equals the model row for row, and serves every query
    /// of `queries` like a flat scan of its own `to_flat()`.
    fn assert_matches(
        snap: &ShardedSnapshot,
        model: &BTreeMap<u64, Row>,
        queries: &EmbeddingStore,
    ) {
        let (rows, ids) = snap.to_flat();
        let mut got: BTreeMap<u64, Row> = BTreeMap::new();
        for (r, &id) in ids.iter().enumerate() {
            let v = rows.variant();
            let row = (
                rows.eu_row(r).to_vec(),
                v.uses_hyperbolic().then(|| rows.hyper_row(r).to_vec()),
                v.uses_fusion().then(|| rows.factor_row(r).to_vec()),
            );
            assert!(got.insert(id, row).is_none(), "id {id} twice");
        }
        assert!(got == *model, "live rows differ from the model");
        assert_eq!(snap.len(), model.len());
        assert_eq!(snap.live_ids(), ids);
        for qi in 0..queries.len() {
            let mut q = queries.empty_like();
            q.push_row_from(queries, qi);
            for k in [1, 7, 40] {
                assert_served_like_flat(snap, &q, k);
            }
        }
    }

    /// The chunked delta and the bitset tombstones at their edges, at one
    /// shard and at three: writes cross three chunks, tombstones land on
    /// bits 63 and 64 and on a chunk's last row of both segments, a fold
    /// pins mid-chunk while writes land after the pin, and the store is
    /// then recovered. Every snapshot equals the BTreeMap model and
    /// serves like a flat scan of its own `to_flat()`.
    #[test]
    fn the_chunked_delta_tracks_the_model_at_its_edges() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (shards, variant) in [
            (1, PluginVariant::LorentzCosh),
            (3, PluginVariant::FusionDist),
        ] {
            let mut rng = StdRng::seed_from_u64(shards as u64);
            let dir = std::env::temp_dir()
                .join(format!("lh-serve-chunks-{shards}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = ShardedServingOptions {
                shards,
                serving: ServingOptions {
                    compact_threshold: 0,
                    ..ServingOptions::default()
                },
            };
            let mut base = EmbeddingStore::new(2, variant, 1.0, variant.uses_fusion().then_some(2));
            let mut model = BTreeMap::new();
            for id in 0..(2 * CHUNK * shards) as u64 {
                let row = random_row(variant, &mut rng);
                base.push(&row.0, row.1.as_deref(), row.2.as_deref());
                model.insert(id, row);
            }
            let ids: Vec<u64> = model.keys().copied().collect();
            let mut queries = base.empty_like();
            for _ in 0..4 {
                let row = random_row(variant, &mut rng);
                queries.push(&row.0, row.1.as_deref(), row.2.as_deref());
            }
            let store = ShardedServingStore::create_durable(&dir, base, ids, opts).expect("create");
            let edges = [63, 64, CHUNK - 1];

            // Base tombstones on bits 63, 64 and CHUNK − 1 of every shard:
            // one removed, two superseded.
            let snap = store.snapshot();
            for shard in &snap.shards {
                assert!(
                    shard.base_ids.len() > CHUNK,
                    "every shard has a chunk's worth"
                );
                drop_id(&store, &mut model, shard.base_ids[edges[0]]);
                for &r in &edges[1..] {
                    put(
                        &store,
                        &mut model,
                        shard.base_ids[r],
                        random_row(variant, &mut rng),
                    );
                }
            }
            for (s, shard) in store.snapshot().shards.iter().enumerate() {
                let dead: Vec<usize> = shard.base_dead.iter().collect();
                assert_eq!(dead, edges, "shard {s}");
            }
            assert_matches(&store.snapshot(), &model, &queries);

            // Writes cross three chunks in every shard: new ids and
            // updates of live ones.
            let mut next_id = 10_000u64;
            while store
                .snapshot()
                .shards
                .iter()
                .any(|s| s.delta.len() < 3 * CHUNK + 5)
            {
                if rng.gen_range(0..4) == 0 {
                    let live: Vec<u64> = model.keys().copied().collect();
                    let id = live[rng.gen_range(0..live.len())];
                    put(&store, &mut model, id, random_row(variant, &mut rng));
                } else {
                    put(&store, &mut model, next_id, random_row(variant, &mut rng));
                    next_id += 1;
                }
            }
            assert_matches(&store.snapshot(), &model, &queries);

            // Delta tombstones on bits 63, 64 and CHUNK − 1 of every
            // shard's delta: one removed, two superseded.
            let snap = store.snapshot();
            for shard in &snap.shards {
                let dead = shard.delta_dead.mask();
                let live = |j: usize| !dead.is_some_and(|d| d.get(j));
                if live(edges[0]) {
                    drop_id(&store, &mut model, shard.delta.id(edges[0]));
                }
                for &j in edges[1..].iter().filter(|&&j| live(j)) {
                    put(
                        &store,
                        &mut model,
                        shard.delta.id(j),
                        random_row(variant, &mut rng),
                    );
                }
            }
            for shard in &store.snapshot().shards {
                let dead = shard.delta_dead.mask().expect("delta tombstones");
                assert!(edges.iter().all(|&j| dead.get(j)));
            }
            assert_matches(&store.snapshot(), &model, &queries);

            // Each shard's fold pins mid-chunk; writes then land after the
            // pin — new rows, updates of rows the fold copies, removals —
            // before the fold installs.
            for (s, shard) in store.shards.iter().enumerate() {
                while store.snapshot().shards[s].delta.len() % CHUNK == 0 {
                    let id = (next_id..)
                        .find(|&id| shard_of_id(id, shards) == s)
                        .expect("an id");
                    put(&store, &mut model, id, random_row(variant, &mut rng));
                    next_id = id + 1;
                }
                let pin = shard.pin();
                let mine: Vec<u64> = (model.keys().copied())
                    .filter(|&id| shard_of_id(id, shards) == s)
                    .collect();
                let mut upserts = 0;
                for _ in 0..2 * CHUNK {
                    let id = mine[rng.gen_range(0..mine.len())];
                    match rng.gen_range(0..3) {
                        0 if model.contains_key(&id) => drop_id(&store, &mut model, id),
                        _ => {
                            put(&store, &mut model, id, random_row(variant, &mut rng));
                            upserts += 1;
                        }
                    }
                }
                assert_matches(&store.snapshot(), &model, &queries);
                assert!(shard.fold_pinned(pin).expect("install"), "shard {s}");
                let snap = store.snapshot();
                assert_eq!(
                    snap.shards[s].delta.len(),
                    upserts,
                    "the post-pin rows stay"
                );
                assert!(upserts > CHUNK);
                assert_matches(&snap, &model, &queries);
            }
            for _ in 0..50 {
                put(&store, &mut model, next_id, random_row(variant, &mut rng));
                next_id += 1;
            }
            let before = store.snapshot();
            assert_matches(&before, &model, &queries);
            let hits = before.knn_batch(&queries, 10);
            drop((before, store));

            let back = ShardedServingStore::recover(&dir, opts).expect("recover");
            let snap = back.snapshot();
            assert_matches(&snap, &model, &queries);
            assert_eq!(snap.knn_batch(&queries, 10), hits, "shards={shards}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Writes land between a fold's prepare and its commit, at one shard
    /// and at three, in memory and durable: upserts of base ids and of ids
    /// the prepare re-logged, removals of base ids and of delta ids (rows
    /// the fold copied and rows it did not), a removal then a re-upsert of
    /// one id, a new id upserted then removed, an id removed before the
    /// prepare upserted again, and base tombstones on the 4096-bit page
    /// edge (bits 4095 and 4096 of the old base and of the folded one).
    /// Every snapshot equals the BTreeMap model and serves like a flat scan
    /// of its own `to_flat()`, and so does a recovery.
    #[test]
    fn writes_between_a_prepare_and_its_commit_track_the_model() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const EDGE: usize = 4096;
        for (shards, variant) in [
            (1, PluginVariant::LorentzCosh),
            (3, PluginVariant::FusionDist),
        ] {
            for durable in [false, true] {
                let mut rng = StdRng::seed_from_u64(0x7e57 + shards as u64);
                let dir = std::env::temp_dir().join(format!(
                    "lh-serve-prepared-{shards}-{durable}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let opts = ShardedServingOptions {
                    shards,
                    serving: ServingOptions {
                        compact_threshold: 0,
                        ..ServingOptions::default()
                    },
                };
                let fd = variant.uses_fusion().then_some(2);
                let mut base = EmbeddingStore::new(2, variant, 1.0, fd);
                let mut model = BTreeMap::new();
                for id in 0..(shards * (EDGE + 300)) as u64 {
                    let row = random_row(variant, &mut rng);
                    base.push(&row.0, row.1.as_deref(), row.2.as_deref());
                    model.insert(id, row);
                }
                let ids: Vec<u64> = model.keys().copied().collect();
                let mut queries = base.empty_like();
                for _ in 0..3 {
                    let row = random_row(variant, &mut rng);
                    queries.push(&row.0, row.1.as_deref(), row.2.as_deref());
                }
                let store = if durable {
                    ShardedServingStore::create_durable(&dir, base, ids, opts)
                } else {
                    ShardedServingStore::new(base, ids, opts)
                };
                let store = store.expect("store");
                let mut next_id = 1_000_000u64;
                for (s, shard) in store.shards.iter().enumerate() {
                    let mut fresh = || {
                        let id = (next_id..).find(|&id| shard_of_id(id, shards) == s);
                        next_id = id.expect("an id") + 1;
                        next_id - 1
                    };
                    let based = Arc::clone(&store.snapshot().shards[s].base_ids);
                    assert!(based.len() > EDGE + 200, "shard {s} reaches the page edge");
                    let mut row = || random_row(variant, &mut rng);
                    let mut put =
                        |model: &mut BTreeMap<u64, Row>, id| put(&store, model, id, row());

                    // Before the pin, past the page edge so the folded rows
                    // keep the old base's row numbers up to it.
                    let (copied, copied_too) = (fresh(), fresh());
                    put(&mut model, copied);
                    put(&mut model, copied_too);
                    put(&mut model, based[EDGE + 100]);
                    drop_id(&store, &mut model, based[EDGE + 101]);
                    let pin = shard.pin();

                    // Between the pin and the prepare: the residue up to T.
                    let (relogged, relogged_too, removed_early) = (fresh(), fresh(), based[13]);
                    put(&mut model, relogged);
                    put(&mut model, relogged_too);
                    put(&mut model, based[12]);
                    drop_id(&store, &mut model, removed_early);
                    let prepared = shard.prepare(pin).expect("prepare").expect("fresh pin");

                    // Between the prepare and the commit.
                    put(&mut model, based[20]);
                    put(&mut model, relogged);
                    drop_id(&store, &mut model, based[21]);
                    drop_id(&store, &mut model, copied);
                    drop_id(&store, &mut model, relogged_too);
                    put(&mut model, copied_too);
                    drop_id(&store, &mut model, based[30]);
                    put(&mut model, based[30]);
                    let brief = fresh();
                    put(&mut model, brief);
                    drop_id(&store, &mut model, brief);
                    put(&mut model, removed_early);
                    drop_id(&store, &mut model, based[EDGE - 1]);
                    put(&mut model, based[EDGE]);
                    assert_matches(&store.snapshot(), &model, &queries);

                    assert!(shard.install_fold(prepared).expect("commit"), "shard {s}");
                    let snap = store.snapshot();
                    let dead: Vec<usize> = snap.shards[s].base_dead.iter().collect();
                    assert!(
                        dead.contains(&(EDGE - 1)) && dead.contains(&EDGE),
                        "{dead:?}"
                    );
                    assert_matches(&snap, &model, &queries);
                }
                let stats = store.stats();
                assert_eq!((stats.compactions, stats.stale_folds), (shards as u64, 0));
                let before = store.snapshot();
                let hits = before.knn_batch(&queries, 10);
                drop((before, store));
                if durable {
                    let back = ShardedServingStore::recover(&dir, opts).expect("recover");
                    let snap = back.snapshot();
                    assert_matches(&snap, &model, &queries);
                    assert_eq!(snap.knn_batch(&queries, 10), hits, "shards={shards}");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// The store's install counters are its shards': discards and hold
    /// time summed, the longest hold the largest shard's.
    #[test]
    fn install_counters_sum_over_shards_and_the_longest_hold_is_the_max() {
        let mut base = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        for i in 0..40 {
            push_point(&mut base, i as f32);
        }
        let opts = ShardedServingOptions {
            shards: 3,
            serving: ServingOptions {
                compact_threshold: 0,
                ..ServingOptions::default()
            },
        };
        let store = ShardedServingStore::new(base, (0..40).collect(), opts).expect("unique ids");
        for id in 0..40u64 {
            store
                .upsert(id, &[id as f32, 1.0], None, None)
                .expect("upsert");
        }
        let (raced, racing) = (store.shards[0].pin(), store.shards[0].pin());
        assert!(store.shards[0].fold_pinned(raced).expect("install"));
        assert!(!store.shards[0].fold_pinned(racing).expect("discard"));
        store.compact_inline().expect("fold every shard");
        let per = store.shard_stats();
        let total = store.stats();
        assert_eq!(total.compactions, 4);
        assert_eq!(total.stale_folds, 1);
        let sum = per.iter().map(|s| s.install_hold_us_total).sum::<u64>();
        assert_eq!(total.install_hold_us_total, sum);
        let max = per.iter().map(|s| s.install_hold_us_max).max();
        assert_eq!(Some(total.install_hold_us_max), max);
        assert!(per.iter().all(|s| s.install_hold_us_max > 0));
    }

    /// Publication copies pointers: two consecutive snapshots share every
    /// sealed chunk, and share the sealed list and both bitsets unless the
    /// write between them sealed a chunk or set a bit.
    #[test]
    fn consecutive_snapshots_share_every_sealed_chunk() {
        let mut base = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        for i in 0..10 {
            push_point(&mut base, i as f32);
        }
        let opts = ShardedServingOptions {
            shards: 1,
            serving: ServingOptions {
                compact_threshold: 0,
                ..ServingOptions::default()
            },
        };
        let store = ShardedServingStore::new(base, (0..10).collect(), opts).expect("unique ids");
        let mut before = store.snapshot();
        for i in 0..3 * CHUNK as u64 + 5 {
            let id = if i % 7 == 3 { i % 10 } else { 100 + i };
            store
                .upsert(id, &[i as f32, 1.0], None, None)
                .expect("upsert");
            let after = store.snapshot();
            let (a, b) = (&before.shards[0], &after.shards[0]);
            assert!(b.delta.sealed.len() - a.delta.sealed.len() <= 1);
            for (x, y) in a.delta.sealed.iter().zip(b.delta.sealed.iter()) {
                assert!(Arc::ptr_eq(x, y), "write {i}: a sealed chunk was copied");
            }
            let sealed = b.delta.sealed.len() > a.delta.sealed.len();
            assert_eq!(Arc::ptr_eq(&a.delta.sealed, &b.delta.sealed), !sealed);
            let dead = |s: &Snapshot| s.base_dead.len() + s.delta_dead.len();
            let tombstoned = dead(b) > dead(a);
            assert!(Arc::ptr_eq(&a.base_dead, &b.base_dead) || tombstoned);
            assert!(Arc::ptr_eq(&a.delta_dead, &b.delta_dead) || tombstoned);
            assert!(Arc::ptr_eq(&a.base, &b.base));
            before = after;
        }
        assert_eq!(before.shards[0].delta.sealed.len(), 3);
    }
}
