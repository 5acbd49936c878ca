//! The retrieval query engine: embedding storage, distance kernels, one
//! scan core, the pivot index and serving tiers composed from it, and the
//! binary payload codecs.
//!
//! The paper's efficiency argument (its Table V) is that the plugin adds
//! only O(d) work and a few extra vectors per trajectory on top of the
//! pre-embedded database. This module makes that accounting explicit and
//! then serves it at scale. Every top-k here is the same operation —
//! *offer the live rows of a segment into a caller-owned `TopK` under a
//! key offset, counting into a [`ProbeStats`]* — and exactly two
//! functions evaluate candidates: `kernel::scan_offer_masked`, the flat
//! loop, and `IndexedStore::scan`, the index's probe loop. Everything
//! else is composition:
//!
//! * [`store`] — [`EmbeddingStore`]: Euclidean rows always, hyperbolic
//!   rows (`d+1`) when a Lorentz variant is active, factor rows (`2f`)
//!   when fusion is active, all in flat `f32` buffers.
//!   [`EmbeddingStore::knn`] is the flat loop over every row;
//!   [`EmbeddingStore::knn_batch`] runs it in parallel across queries;
//! * [`kernel`] — [`DistanceKernel`]: one monomorphized distance kernel
//!   per [`PluginVariant`](crate::config::PluginVariant), binding the
//!   query row(s) once so the inner scan loop carries no variant dispatch
//!   or repeated row slicing;
//! * [`index`] — [`IndexedStore`]: the pivot-partitioned index tier.
//!   Cells with stored centroid distances and radii give exact
//!   (bit-identical, recall 1.0) sub-linear kNN for every variant:
//!   triangle-inequality pruning for the metric ones, and for the fused
//!   distance — not a metric — the convex-mix bound
//!   `fused ≥ min(d_Lo, d_Eu)`, each component pruned in its own space.
//!   One probe loop serves both, monomorphized over the two prune
//!   predicates of [`index::bound`]; a store with nothing to prune with
//!   has no cells and is the flat loop. The paper's metric-violation
//!   thesis becomes a measured prune rate at serving time;
//! * [`codec`] — the store payload: streaming little-endian
//!   (de)serialization with corruption guards
//!   ([`DecodeError`](traj_core::codec::DecodeError)),
//!   nested inside the index and checkpoint files, each of which is one
//!   checksummed `traj_core::codec` frame;
//! * [`serve`] — [`ShardedServingStore`]: the mutable serving tier, one
//!   public type (a single store is `shards: 1`). Writers apply
//!   incremental upserts/removals into a shard's delta segment and
//!   publish immutable epoch snapshots behind an `RwLock<Arc<_>>` pointer
//!   swap, so `knn_batch` readers never block on writers; a background
//!   compactor folds a shard's delta back into an indexed base off the
//!   write path, and a WAL + atomic-rename checkpoint per shard make the
//!   whole thing crash-safe. A [`ShardedSnapshot`] scans every shard —
//!   its base at the shard's prefix key offset, its delta behind it —
//!   into one heap. Snapshot reads are bit-identical to a flat scan of
//!   the live rows — the frozen tiers' determinism contract carried into
//!   a mutable store.
//!
//! Ranking everywhere goes through `traj_core::topk::TopK` — O(n log k),
//! `total_cmp`-deterministic with index tie-break — so
//! [`EmbeddingStore::knn`], every indexed, batched and served path, and
//! `traj_dist::DistanceMatrix::knn_of_row` all agree exactly. A query
//! store whose layout differs from the database's
//! ([`EmbeddingStore::same_layout`]) is a panic at the scan core's entry,
//! in release builds too, never a ranking over truncated rows.

pub mod codec;
pub mod index;
pub mod kernel;
pub mod serve;
pub mod store;
pub(crate) mod tombstones;

pub use index::bound::BoundSpace;
pub use index::build::IndexParams;
pub use index::{IndexedStore, ProbeStats};
pub use kernel::DistanceKernel;
pub use serve::sharded::{
    shard_of_id, ShardedServingOptions, ShardedServingStore, ShardedSnapshot,
};
pub use serve::{ServeError, ServeHit, ServeStats, ServingOptions};
pub use store::{EmbeddingStore, RetrievalResult};
