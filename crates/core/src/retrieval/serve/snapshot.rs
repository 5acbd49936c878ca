//! Immutable point-in-time views of one shard of the serving store.
//!
//! A `Snapshot` is what readers actually query, always through a
//! [`ShardedSnapshot`](super::sharded::ShardedSnapshot): a shared
//! compacted **base** segment (always an [`IndexedStore`] — one without
//! cells when the base is empty or its bound space cannot prune), a copy
//! of the current **delta** segment (rows upserted since the last
//! compaction), and tombstone sets over both. Snapshots are published
//! behind `Arc` pointers, so cloning one is O(1) for the base (shared) and
//! O(delta) for the mutable tail — bounded by the compaction threshold.
//!
//! A snapshot's share of a query is two calls into the scan core on the
//! caller's heap: `IndexedStore::scan` over the base at the caller's key
//! offset, then `kernel::scan_offer_masked` over the delta `n_base` keys
//! later (`Snapshot::scan`); `Snapshot::id_of_key` maps a surviving key
//! back to its external id.
//!
//! # Bit-identity of the overlay
//!
//! The rows a snapshot offers must select *exactly* what a flat scan of
//! its materialized live rows (`Snapshot::to_flat`) selects — bit-for-bit,
//! including tie-breaks and NaN ordering. The argument:
//!
//! * **Distances** bit-match because both paths run the same
//!   monomorphized kernels over the same `f32` buffer bits — the base
//!   rows are scanned in place, and [`EmbeddingStore::push_row_from`]
//!   materializes rows by bytewise copy.
//! * **Selection** bit-matches because the overlay offers heap keys that
//!   map *strictly monotonically* onto the materialized row ordinals:
//!   base row `r` gets key `r`, delta row `j` gets key `n_base + j`, and
//!   `to_flat` emits live base rows in row order followed by live delta
//!   rows in row order. `TopK` selects by `(distance, key)`; a strictly
//!   monotone key remap preserves that order, so the same rows survive
//!   with the same ranks.
//! * **Tombstones** are excluded *before* any heap offer (a dead row must
//!   never occupy a slot a live row deserved), and inside the index probe
//!   the skip happens before the bounds fire — skipping only raises the
//!   running k-th-best τ, so every triangle-inequality and convex-mix
//!   bound stays admissible (see `IndexedStore::scan`).
//!
//! The sharded read path composes this per-shard argument across shards
//! (see the `sharded` module docs). `tests/serving_store.rs` enforces it
//! end-to-end on one shard, `tests/serving_sharded.rs` on several, and the
//! benchmark re-asserts it on sampled queries in every serving workload.

use super::super::index::{IndexedStore, ProbeStats};
use super::super::kernel;
use super::super::store::EmbeddingStore;
use std::sync::Arc;
use traj_core::topk::TopK;

/// An immutable point-in-time view of one shard. See the module docs for
/// the bit-identity contract.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// Compacted base segment, shared across snapshots of one epoch run.
    pub(crate) base: Arc<IndexedStore>,
    /// External id of each base row, parallel to the base store.
    pub(crate) base_ids: Arc<Vec<u64>>,
    /// Tombstoned base rows, ascending.
    pub(crate) base_dead: Vec<u32>,
    /// Delta segment: rows upserted since the last compaction.
    pub(crate) delta: EmbeddingStore,
    /// External id of each delta row, parallel to the delta store.
    pub(crate) delta_ids: Vec<u64>,
    /// Tombstoned delta rows (superseded upserts, removals), ascending.
    pub(crate) delta_dead: Vec<u32>,
    /// Publication epoch: bumped by every successful write or compaction.
    pub(crate) epoch: u64,
}

/// A snapshot's two tombstone lists as dense masks, for
/// [`Snapshot::scan`]. A batch expands them once for every query.
pub(crate) struct DeadMasks {
    base: Option<Vec<bool>>,
    delta: Option<Vec<bool>>,
}

/// Expands a sorted tombstone list into a dense mask (`None` when there
/// is nothing to mask — the common case pays nothing).
fn dead_mask(len: usize, dead: &[u32]) -> Option<Vec<bool>> {
    if dead.is_empty() {
        return None;
    }
    let mut mask = vec![false; len];
    for &d in dead {
        mask[d as usize] = true;
    }
    Some(mask)
}

impl Snapshot {
    /// Publication epoch of this view.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live rows (base + delta, tombstones excluded).
    pub(crate) fn len(&self) -> usize {
        self.base_ids.len() - self.base_dead.len() + self.delta_ids.len() - self.delta_dead.len()
    }

    /// Whether no live row exists.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the delta segment (including tombstoned ones) — the
    /// overlay-scan cost of this view.
    pub(crate) fn delta_rows(&self) -> usize {
        self.delta_ids.len()
    }

    /// Whether the base segment has pivot cells to prune with — false
    /// for an empty base and for a fused one that certifies no bound,
    /// which the flat scan serves.
    pub(crate) fn base_indexed(&self) -> bool {
        self.base.num_cells() > 0
    }

    /// External ids of every live row, in snapshot order (live base rows
    /// in row order, then live delta rows in row order).
    pub(crate) fn live_ids(&self) -> Vec<u64> {
        let base_mask = dead_mask(self.base_ids.len(), &self.base_dead);
        let delta_mask = dead_mask(self.delta_ids.len(), &self.delta_dead);
        let mut ids = Vec::with_capacity(self.len());
        for (r, &id) in self.base_ids.iter().enumerate() {
            if base_mask.as_ref().map_or(true, |m| !m[r]) {
                ids.push(id);
            }
        }
        for (j, &id) in self.delta_ids.iter().enumerate() {
            if delta_mask.as_ref().map_or(true, |m| !m[j]) {
                ids.push(id);
            }
        }
        ids
    }

    /// Size of this snapshot's heap key space: base rows `0..n_base`,
    /// delta rows `n_base..n_base + n_delta` (dead rows hold their key
    /// but are never offered). A sharded snapshot offsets each shard's
    /// keys by the key spaces before it, keeping the concatenated key
    /// order strictly monotone onto the concatenated [`Snapshot::to_flat`]
    /// row order.
    pub(crate) fn key_space(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// The tombstone lists as dense masks.
    pub(crate) fn dead_masks(&self) -> DeadMasks {
        DeadMasks {
            base: dead_mask(self.base.len(), &self.base_dead),
            delta: dead_mask(self.delta.len(), &self.delta_dead),
        }
    }

    /// Offers this snapshot's live rows into `top`: the base through its
    /// index at `key_offset`, the delta through the flat scan behind it.
    /// `masks` is this snapshot's [`Snapshot::dead_masks`].
    pub(crate) fn scan(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        masks: &DeadMasks,
        key_offset: usize,
        top: &mut TopK,
    ) {
        // Counted and dropped: the serving tier reports no probe
        // accounting yet (ROADMAP item 1).
        let mut stats = ProbeStats::default();
        let (base_dead, delta_dead) = (masks.base.as_deref(), masks.delta.as_deref());
        self.base
            .scan(queries, qi, base_dead, key_offset, top, &mut stats);
        let delta_offset = key_offset + self.base.len();
        kernel::scan_offer_masked(
            &self.delta,
            queries,
            qi,
            delta_dead,
            delta_offset,
            top,
            &mut stats,
        );
    }

    /// External id of the row [`Snapshot::scan`] offered under
    /// `key_offset + key`.
    pub(crate) fn id_of_key(&self, key: usize) -> u64 {
        match key.checked_sub(self.base.len()) {
            None => self.base_ids[key],
            Some(j) => self.delta_ids[j],
        }
    }

    /// Materializes the live rows into one flat store (live base rows in
    /// row order, then live delta rows in row order) with their external
    /// ids. This is the reference the bit-identity contract is stated
    /// against and the input to a fold.
    pub(crate) fn to_flat(&self) -> (EmbeddingStore, Vec<u64>) {
        let base_mask = dead_mask(self.base_ids.len(), &self.base_dead);
        let delta_mask = dead_mask(self.delta_ids.len(), &self.delta_dead);
        let base = self.base.store();
        let mut store = base.empty_like();
        let mut ids = Vec::with_capacity(self.len());
        for (r, &id) in self.base_ids.iter().enumerate() {
            if base_mask.as_ref().map_or(true, |m| !m[r]) {
                store.push_row_from(base, r);
                ids.push(id);
            }
        }
        for (j, &id) in self.delta_ids.iter().enumerate() {
            if delta_mask.as_ref().map_or(true, |m| !m[j]) {
                store.push_row_from(&self.delta, j);
                ids.push(id);
            }
        }
        (store, ids)
    }
}
