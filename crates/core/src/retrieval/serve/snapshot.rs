//! Immutable point-in-time views of a [`ServingStore`](super::ServingStore).
//!
//! A [`Snapshot`] is what readers actually query: a shared compacted
//! **base** segment (flat or with the pivot index attached), a copy of the
//! current **delta** segment (rows upserted since the last compaction),
//! and tombstone sets over both. Snapshots are published behind
//! `Arc` pointers, so cloning one is O(1) for the base (shared) and
//! O(delta) for the mutable tail — bounded by the compaction threshold.
//!
//! # Bit-identity of the overlay
//!
//! [`Snapshot::knn`] must return *exactly* what a flat scan of the
//! materialized live rows ([`Snapshot::to_flat`]) returns — bit-for-bit,
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
//!   running k-th-best τ, so every triangle-inequality, landmark and
//!   convex-mix bound stays admissible (see
//!   `IndexedStore::knn_topk_masked`).
//!
//! `tests/serving_store.rs` enforces this property end-to-end, and the
//! serve bench re-asserts it on sampled queries before every ledger
//! append.

use super::super::index::IndexedStore;
use super::super::kernel;
use super::super::store::EmbeddingStore;
use super::ServeHit;
use std::sync::Arc;
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::topk::TopK;

/// The compacted base segment: a flat store, or one served through the
/// pivot index — whenever the store's bound space can prune, which
/// includes the fused distance through its convex-mix bound; flat only
/// for an empty base, an uncertifiable fused one, or `index: false`.
// One `Base` exists per compaction, always behind an `Arc` — the variant
// size gap never multiplies across rows, and boxing would add a pointer
// chase to every probe.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum Base {
    /// Flat base: scanned with the monomorphized kernels.
    Flat(EmbeddingStore),
    /// Indexed base: probed with the space's admissible bounds
    /// (triangle + landmark, or convex-mix), masked by the tombstone set.
    Indexed(IndexedStore),
}

impl Base {
    /// The underlying embedding store.
    pub(crate) fn store(&self) -> &EmbeddingStore {
        match self {
            Base::Flat(s) => s,
            Base::Indexed(ix) => ix.store(),
        }
    }

    /// Whether the pivot index is attached.
    pub(crate) fn is_indexed(&self) -> bool {
        matches!(self, Base::Indexed(_))
    }
}

/// An immutable point-in-time view of the serving store. See the module
/// docs for the bit-identity contract.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Compacted base segment, shared across snapshots of one epoch run.
    pub(crate) base: Arc<Base>,
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
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live rows (base + delta, tombstones excluded).
    pub fn len(&self) -> usize {
        self.base_ids.len() - self.base_dead.len() + self.delta_ids.len() - self.delta_dead.len()
    }

    /// Whether no live row exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the delta segment (including tombstoned ones) — the
    /// overlay-scan cost of this view.
    pub fn delta_rows(&self) -> usize {
        self.delta_ids.len()
    }

    /// Whether the base segment is served through the pivot index.
    pub fn base_indexed(&self) -> bool {
        self.base.is_indexed()
    }

    /// External ids of every live row, in snapshot order (live base rows
    /// in row order, then live delta rows in row order).
    pub fn live_ids(&self) -> Vec<u64> {
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
    /// but are never offered). The sharded merge offsets each shard's
    /// keys by the key spaces before it, keeping the concatenated key
    /// order strictly monotone onto the concatenated [`Snapshot::to_flat`]
    /// row order.
    pub(crate) fn key_space(&self) -> usize {
        self.base.store().len() + self.delta.len()
    }

    /// Top-k nearest live rows to query row `qi` of `queries`, as
    /// external ids with model distances. Bit-identical to a flat scan of
    /// [`Snapshot::to_flat`] (see the module docs).
    pub fn knn(&self, queries: &EmbeddingStore, qi: usize, k: usize) -> Vec<ServeHit> {
        self.knn_keyed(queries, qi, k)
            .into_iter()
            .map(|(_, id, distance)| ServeHit {
                id,
                distance: distance as f32,
            })
            .collect()
    }

    /// [`Snapshot::knn`] before the `f32` narrowing: sorted
    /// `(heap key, external id, f64 distance)` triples. This is the
    /// sharded-store merge surface — the merge must compare at the full
    /// `f64` precision the heaps selected with (narrowing first could
    /// reorder hits whose distances collide only in `f32`), and it
    /// tie-breaks on the heap key so the cross-shard order stays the
    /// strictly monotone remap of the concatenated flat-scan order.
    pub(crate) fn knn_keyed(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
    ) -> Vec<(usize, u64, f64)> {
        let base_mask = dead_mask(self.base.store().len(), &self.base_dead);
        let delta_mask = dead_mask(self.delta.len(), &self.delta_dead);
        self.knn_masked(queries, qi, k, base_mask.as_deref(), delta_mask.as_deref())
    }

    /// Batched [`Snapshot::knn`], parallel across queries. Masks are
    /// expanded once and shared by every query.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<ServeHit>> {
        let base_mask = dead_mask(self.base.store().len(), &self.base_dead);
        let delta_mask = dead_mask(self.delta.len(), &self.delta_dead);
        let nq = queries.len();
        parallel_map(nq, default_threads(nq), |qi| {
            self.knn_masked(queries, qi, k, base_mask.as_deref(), delta_mask.as_deref())
                .into_iter()
                .map(|(_, id, distance)| ServeHit {
                    id,
                    distance: distance as f32,
                })
                .collect()
        })
    }

    fn knn_masked(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
        base_mask: Option<&[bool]>,
        delta_mask: Option<&[bool]>,
    ) -> Vec<(usize, u64, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let n_base = self.base.store().len();
        let mut top = match &*self.base {
            Base::Indexed(ix) => ix.knn_topk_masked(queries, qi, k, base_mask).0,
            Base::Flat(store) => {
                let mut top = TopK::new(k);
                if !store.is_empty() {
                    kernel::scan_offer_masked(store, queries, qi, base_mask, 0, &mut top);
                }
                top
            }
        };
        if !self.delta.is_empty() {
            kernel::scan_offer_masked(&self.delta, queries, qi, delta_mask, n_base, &mut top);
        }
        top.into_sorted()
            .into_iter()
            .map(|(key, distance)| {
                let id = if key < n_base {
                    self.base_ids[key]
                } else {
                    self.delta_ids[key - n_base]
                };
                (key, id, distance)
            })
            .collect()
    }

    /// Materializes the live rows into one flat store (live base rows in
    /// row order, then live delta rows in row order) with their external
    /// ids. This is the reference the bit-identity contract is stated
    /// against, the input to compaction, and the verification surface the
    /// serve bench flat-scans.
    pub fn to_flat(&self) -> (EmbeddingStore, Vec<u64>) {
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
