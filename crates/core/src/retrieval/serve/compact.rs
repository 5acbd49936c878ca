//! Compaction: folding the delta segment and tombstones into a fresh
//! base segment, re-attaching the pivot index.
//!
//! Compaction materializes the live rows of a snapshot *in snapshot
//! order* (live base rows in row order, then live delta rows — exactly
//! [`Snapshot::to_flat`]'s order, by construction through the same
//! `push_row_from` bytewise copies), assigns the result as the new base,
//! and rebuilds the pivot index over it when the store's bound space can
//! prune (`BoundSpace::for_store`): every metric variant, and the fused
//! variant whenever its factors certify the convex-mix bound — which
//! every store a model emits does. Only an uncertifiable fused base stays
//! flat and is served by the masked scan.
//!
//! Because materialization is a bytewise row copy and the new base has no
//! tombstones and an empty delta, queries against the compacted snapshot
//! remain bit-identical to queries against the pre-compaction snapshot:
//! same candidate set, same `f32` distance bits, and a key order that is
//! the same monotone remap of live ordinals on both sides.

use super::super::index::bound::BoundSpace;
use super::super::index::IndexedStore;
use super::super::store::EmbeddingStore;
use super::snapshot::{Base, Snapshot};
use super::ServingOptions;
use std::sync::Arc;

/// Result of folding one snapshot into a fresh base.
pub(crate) struct CompactedBase {
    /// The new base segment, indexed when the options and bound space
    /// allow it.
    pub base: Arc<Base>,
    /// External ids of the new base rows, in row order.
    pub ids: Arc<Vec<u64>>,
}

/// Materializes `snap`'s live rows into a new base segment. Pure with
/// respect to the serving store — the caller swaps the result in under
/// the writer lock and handles persistence.
pub(crate) fn compact_snapshot(snap: &Snapshot, opts: &ServingOptions) -> CompactedBase {
    let (store, ids) = snap.to_flat();
    CompactedBase {
        base: Arc::new(wrap_base(store, opts)),
        ids: Arc::new(ids),
    }
}

/// Wraps a flat store as the serving base, attaching the pivot index when
/// requested and the store's bound space can prune (every metric variant,
/// and a fused store whose factors certify the convex-mix bound — an
/// index that cannot prune would only add probe overhead to what is still
/// a full scan).
pub(crate) fn wrap_base(store: EmbeddingStore, opts: &ServingOptions) -> Base {
    if opts.index && !store.is_empty() && BoundSpace::for_store(&store).prunes() {
        Base::Indexed(IndexedStore::build(store, opts.index_params))
    } else {
        Base::Flat(store)
    }
}
