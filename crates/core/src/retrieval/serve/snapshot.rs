//! Immutable point-in-time views of one shard of the serving store.
//!
//! A `Snapshot` is what readers actually query, always through a
//! [`ShardedSnapshot`](super::sharded::ShardedSnapshot): a shared
//! compacted **base** segment (always an [`IndexedStore`] — one without
//! cells when the base is empty or its bound space cannot prune), the
//! current **delta** segment (rows upserted since the last compaction),
//! and tombstone bitsets over both. Every part is behind an `Arc`, so
//! publishing a snapshot copies pointers only, whatever the delta's size:
//!
//! * the delta is append-only [`Delta`] chunks of `CHUNK` rows, each
//!   holding its ids beside its rows. A full chunk is sealed and shared
//!   by every later snapshot of the epoch run; the writer appends to the
//!   open chunk copy-on-write, so the first write after a publication
//!   copies that chunk's under-`CHUNK` rows, and no write copies more;
//! * the tombstones are [`Tombstones`] bitsets, updated copy-on-write one
//!   page at a time, and read by the scan in place — no per-query mask.
//!
//! A snapshot's share of a query is calls into the scan core on the
//! caller's heap: `IndexedStore::scan` over the base at the caller's key
//! offset, then `kernel::scan_offer_masked` over each delta chunk, chunk
//! `c` at `n_base + c·CHUNK` keys later (`Snapshot::scan`);
//! `Snapshot::id_of_key` maps a surviving key back to its external id.
//!
//! # Bit-identity of the overlay
//!
//! The rows a snapshot offers must select *exactly* what a flat scan of
//! its materialized live rows (`Snapshot::to_flat`) selects — bit-for-bit,
//! including tie-breaks and NaN ordering. The argument:
//!
//! * **Distances** bit-match because both paths run the same
//!   monomorphized kernels over the same `f32` buffer bits — the base
//!   rows and the delta chunks are scanned in place, and
//!   [`EmbeddingStore::push_row_from`] materializes rows by bytewise copy.
//! * **Selection** bit-matches because the overlay offers heap keys that
//!   map *strictly monotonically* onto the materialized row ordinals:
//!   base row `r` gets key `r`, delta row `j` (row `j mod CHUNK` of chunk
//!   `j / CHUNK`) gets key `n_base + j`, and `to_flat` emits live base
//!   rows in row order followed by live delta rows in row order. `TopK`
//!   selects by `(distance, key)`; a strictly monotone key remap preserves
//!   that order, so the same rows survive with the same ranks.
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
use super::super::tombstones::{Mask, Tombstones};
use std::sync::Arc;
use traj_core::topk::TopK;

/// Rows per delta chunk: what the first write after a publication copies
/// at most.
pub(super) const CHUNK: usize = 128;

/// Up to [`CHUNK`] delta rows with their external ids.
#[derive(Debug)]
pub(super) struct Chunk {
    rows: EmbeddingStore,
    ids: Vec<u64>,
}

impl Chunk {
    /// An empty chunk of `template`'s layout with room for a full one.
    fn empty(template: &EmbeddingStore) -> Chunk {
        let mut rows = template.empty_like();
        rows.reserve_rows(CHUNK);
        Chunk {
            rows,
            ids: Vec::with_capacity(CHUNK),
        }
    }
}

/// The delta segment: sealed chunks of exactly [`CHUNK`] rows, then the
/// open chunk of fewer. Delta row `j` is row `j % CHUNK` of chunk
/// `j / CHUNK`. Cloning is two pointer copies.
#[derive(Debug, Clone)]
pub(crate) struct Delta {
    pub(super) sealed: Arc<Vec<Arc<Chunk>>>,
    open: Arc<Chunk>,
}

impl Delta {
    /// An empty delta of `template`'s layout.
    pub(crate) fn new(template: &EmbeddingStore) -> Delta {
        Delta {
            sealed: Arc::new(Vec::new()),
            open: Arc::new(Chunk::empty(template)),
        }
    }

    /// Rows, tombstoned ones included.
    pub(crate) fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.ids.len()
    }

    /// An empty store with the delta's layout: the template every chunk
    /// and every row check uses.
    pub(crate) fn layout(&self) -> &EmbeddingStore {
        &self.open.rows
    }

    /// The chunks in order, the open one last (possibly empty).
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.sealed.iter().map(|c| &**c).chain([&*self.open])
    }

    /// The chunk holding delta row `j`.
    fn chunk_of(&self, j: usize) -> &Chunk {
        self.sealed.get(j / CHUNK).unwrap_or(&self.open)
    }

    /// Delta row `j`: its chunk's rows and its index there.
    pub(crate) fn row(&self, j: usize) -> (&EmbeddingStore, usize) {
        (&self.chunk_of(j).rows, j % CHUNK)
    }

    /// External id of delta row `j`.
    pub(crate) fn id(&self, j: usize) -> u64 {
        self.chunk_of(j).ids[j % CHUNK]
    }

    /// Appends one row under `id` (shapes checked by the caller). The
    /// open chunk is copied first if a snapshot shares it, and sealed
    /// once full.
    pub(crate) fn push(
        &mut self,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) {
        if Arc::get_mut(&mut self.open).is_none() {
            let mut own = Chunk::empty(&self.open.rows);
            own.rows.extend_from(&self.open.rows);
            own.ids.extend_from_slice(&self.open.ids);
            self.open = Arc::new(own);
        }
        let open = Arc::get_mut(&mut self.open).expect("the open chunk is unshared");
        open.rows.push(eu, hyper, factors);
        open.ids.push(id);
        if open.ids.len() == CHUNK {
            let next = Arc::new(Chunk::empty(&open.rows));
            let full = std::mem::replace(&mut self.open, next);
            Arc::make_mut(&mut self.sealed).push(full);
        }
    }

    /// Appends row `j` of `src` bytewise, under its id.
    pub(crate) fn push_row_from(&mut self, src: &Delta, j: usize) {
        let (rows, i) = src.row(j);
        let hyper = rows.variant().uses_hyperbolic().then(|| rows.hyper_row(i));
        let factors = rows.factor_dim().map(|_| rows.factor_row(i));
        self.push(src.id(j), rows.eu_row(i), hyper, factors);
    }
}

/// An immutable point-in-time view of one shard. See the module docs for
/// the publication cost and the bit-identity contract. Cloning one
/// copies six pointers.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// Compacted base segment, shared across snapshots of one epoch run.
    pub(crate) base: Arc<IndexedStore>,
    /// External id of each base row, parallel to the base store.
    pub(crate) base_ids: Arc<Vec<u64>>,
    /// Tombstoned base rows.
    pub(crate) base_dead: Arc<Tombstones>,
    /// Delta segment: rows upserted since the last compaction.
    pub(crate) delta: Delta,
    /// Tombstoned delta rows (superseded upserts, removals).
    pub(crate) delta_dead: Arc<Tombstones>,
    /// Publication epoch: bumped by every successful write or compaction.
    pub(crate) epoch: u64,
}

impl Snapshot {
    /// Publication epoch of this view.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live rows (base + delta, tombstones excluded).
    pub(crate) fn len(&self) -> usize {
        self.base_ids.len() - self.base_dead.len() + self.delta.len() - self.delta_dead.len()
    }

    /// Whether no live row exists.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows in the delta segment (including tombstoned ones) — the
    /// overlay-scan cost of this view.
    pub(crate) fn delta_rows(&self) -> usize {
        self.delta.len()
    }

    /// Whether the base segment has pivot cells to prune with — false
    /// for an empty base and for a fused one that certifies no bound,
    /// which the flat scan serves.
    pub(crate) fn base_indexed(&self) -> bool {
        self.base.num_cells() > 0
    }

    /// Every live row in snapshot order (live base rows in row order,
    /// then live delta rows in row order), as the store holding it and
    /// its index there.
    fn live_rows(&self) -> impl Iterator<Item = (u64, &EmbeddingStore, usize)> {
        let store = self.base.store();
        let base = (self.base_ids.iter().enumerate()).map(move |(r, &id)| (id, store, r));
        let delta = self.delta.chunks().flat_map(|chunk| {
            let ids = chunk.ids.iter().enumerate();
            ids.map(move |(i, &id)| (id, &chunk.rows, i))
        });
        unmasked(base, self.base_dead.mask()).chain(unmasked(delta, self.delta_dead.mask()))
    }

    /// External ids of every live row, in snapshot order.
    pub(crate) fn live_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.live_rows().map(|(id, _, _)| id)
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

    /// Offers this snapshot's live rows into `top`: the base through its
    /// index at `key_offset`, then each delta chunk through the flat scan
    /// behind it, against the tombstone bits in place.
    pub(crate) fn scan(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        key_offset: usize,
        top: &mut TopK,
    ) {
        // Counted and dropped: the serving tier reports no probe
        // accounting yet (ROADMAP item 1).
        let mut stats = ProbeStats::default();
        let base_dead = self.base_dead.mask();
        self.base
            .scan(queries, qi, base_dead, key_offset, top, &mut stats);
        let (delta_offset, delta_dead) = (key_offset + self.base.len(), self.delta_dead.mask());
        for (c, chunk) in self.delta.chunks().enumerate() {
            let first = c * CHUNK;
            kernel::scan_offer_masked(
                &chunk.rows,
                queries,
                qi,
                delta_dead.map(|d| d.skip(first)),
                delta_offset + first,
                top,
                &mut stats,
            );
        }
    }

    /// External id of the row [`Snapshot::scan`] offered under
    /// `key_offset + key`.
    pub(crate) fn id_of_key(&self, key: usize) -> u64 {
        match key.checked_sub(self.base.len()) {
            None => self.base_ids[key],
            Some(j) => self.delta.id(j),
        }
    }

    /// Appends the live rows, in snapshot order, to `store` and their ids
    /// to `ids`, by bytewise row copies.
    pub(crate) fn append_live(&self, store: &mut EmbeddingStore, ids: &mut Vec<u64>) {
        for (id, rows, i) in self.live_rows() {
            store.push_row_from(rows, i);
            ids.push(id);
        }
    }

    /// Materializes the live rows into one flat store, sized exactly
    /// (live base rows in row order, then live delta rows in row order)
    /// with their external ids. This is the reference the bit-identity
    /// contract is stated against and the input to a fold.
    pub(crate) fn to_flat(&self) -> (EmbeddingStore, Vec<u64>) {
        let mut store = self.base.store().empty_like();
        store.reserve_rows(self.len());
        let mut ids = Vec::with_capacity(self.len());
        self.append_live(&mut store, &mut ids);
        (store, ids)
    }
}

/// The items of `rows` whose ordinal `dead` does not hold.
fn unmasked<'a, T: 'a>(
    rows: impl Iterator<Item = T> + 'a,
    dead: Option<Mask<'a>>,
) -> impl Iterator<Item = T> + 'a {
    let live = move |&(i, _): &(usize, T)| !dead.is_some_and(|d| d.get(i));
    rows.enumerate().filter(live).map(|(_, row)| row)
}
