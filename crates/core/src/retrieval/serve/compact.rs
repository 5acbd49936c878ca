//! Compaction: folding the delta segment and tombstones into a fresh
//! base segment, re-building the pivot index over it.
//!
//! Compaction materializes the live rows of a snapshot *in snapshot
//! order* (live base rows in row order, then live delta rows — exactly
//! [`Snapshot::to_flat`]'s order, by construction through the same
//! `push_row_from` bytewise copies), and builds the new base over them
//! with [`IndexedStore::build`]: pivot cells when the store's bound space
//! can prune (`BoundSpace::for_store`) — every metric variant, and the
//! fused variant whenever its factors certify the convex-mix bound, which
//! every store a model emits does — and no cells, hence the masked flat
//! scan, for an empty base or an uncertifiable fused one.
//!
//! Because materialization is a bytewise row copy and the new base has no
//! tombstones and an empty delta, queries against the compacted snapshot
//! remain bit-identical to queries against the pre-compaction snapshot:
//! same candidate set, same `f32` distance bits, and a key order that is
//! the same monotone remap of live ordinals on both sides.

use super::super::index::IndexedStore;
use super::snapshot::Snapshot;
use super::ServingOptions;
use std::sync::Arc;

/// Result of folding one snapshot into a fresh base.
pub(crate) struct CompactedBase {
    /// The new base segment.
    pub base: Arc<IndexedStore>,
    /// External ids of the new base rows, in row order.
    pub ids: Arc<Vec<u64>>,
}

/// Materializes `snap`'s live rows into a new base segment. Pure with
/// respect to the serving store — the caller swaps the result in under
/// the writer lock and handles persistence.
pub(crate) fn compact_snapshot(snap: &Snapshot, opts: &ServingOptions) -> CompactedBase {
    let (store, ids) = snap.to_flat();
    CompactedBase {
        base: Arc::new(IndexedStore::build(store, opts.index_params)),
        ids: Arc::new(ids),
    }
}
