//! The pivot-partitioned index tier: sub-linear *exact* kNN for every
//! plugin variant, the fused distance included.
//!
//! An [`IndexedStore`] owns one [`EmbeddingStore`] plus an IVF-style
//! partition of its rows into pivot cells ([`build`]): each cell keeps a
//! centroid row (served through the same monomorphized
//! [`DistanceKernel`](super::kernel) machinery as the flat scans), the
//! bound-space centroid distance of every member, and the cell radius.
//! A query scans the `√n`-ish centroids and queues the cells in a
//! min-heap by visit key. One probe loop — `IndexedStore::scan`,
//! monomorphized per kernel and per prune-predicate pair ([`bound`]) —
//! then pops them in key order, stops as soon as the bound certifies
//! every queued cell out (so the few cells a query probes are never paid
//! for by sorting all of them), and offers the surviving members into
//! the caller's heap, prefetching each member's scattered row a few
//! members before the kernel reads it:
//!
//! * **metric spaces** (Euclidean, Lorentz — see [`bound::BoundSpace`])
//!   skip every cell whose triangle lower bound `max(0, d(q,c) − r_cell)`
//!   exceeds the current k-th best and, inside probed cells, every member
//!   with `|d(q,c) − d(c,x)| > kth` (Schubert-style stored-distance
//!   bound): one precomputed distance per member, what the N-tree keeps
//!   per node. (A second level of global landmark distances per member
//!   was measured and removed — it pruned 1.5·10⁻⁶ of the rows for
//!   32 B/row; DESIGN.md has the record.)
//! * **the fused variant** is not a metric (the paper's thesis) and no
//!   single triangle bound applies — but its blend is convex, so
//!   `d ≥ min(d_Lo, d_Eu)` and each component *is* boundable
//!   ([`bound::BoundSpace::ConvexMix`]). Every member keeps two pivot
//!   distances (raw Euclidean and geodesic θ against the centroid's `eu`
//!   / `hyper` rows), every cell two radii, and a cell or member is
//!   skipped only when *both* component tests certify it out. The price
//!   of the learned violations is then a measured prune rate, not a full
//!   scan.
//!
//! A store that has nothing to prune with — empty, or a fused store whose
//! factors do not certify `α ∈ [0, 1]` ([`bound::BoundSpace::None`]) —
//! gets no cells at all, and it and any fused *query* that fails the same
//! certification are served by the storage-order flat scan
//! (`kernel::scan_offer_masked`): exact, unpruned. An `IndexedStore` is
//! therefore always a valid serving base; whether it has an index is
//! [`IndexedStore::num_cells`]` > 0`.
//!
//! All bounds are padded by a conservative float-rounding slack, so
//! results are **bit-identical** to [`EmbeddingStore::knn`] — recall 1.0
//! by construction, sub-linear by pruning. There is no approximate mode.
//!
//! Every prune decision fails open on non-finite values (NaN rows poison
//! bounds into "cannot prune", never into a wrong skip), keeping the
//! engine's NaN-determinism contract.

pub mod bound;
pub mod build;
mod codec;

use super::kernel::{self, Prefetch};
use super::store::{results_from_topk, EmbeddingStore, RetrievalResult};
use super::tombstones::Mask;
use crate::config::PluginVariant;
use bound::{BoundSpace, MixBound, PruneBound, Triangle};
use build::IndexParams;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::topk::TopK;

/// One pivot cell: member rows, their bound-space centroid distances,
/// and the cell radius (max member distance).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IndexCell {
    /// Member row ids, ascending.
    pub members: Vec<u32>,
    /// Bound-space centroid distance per member, parallel to `members`
    /// (the raw Euclidean component in the mix space).
    pub dcx: Vec<f64>,
    /// Max of `dcx` (NaN if any member distance is NaN — fails open).
    pub radius: f64,
    /// Mix space only: geodesic component `θ(x, c)` per member, parallel
    /// to `members`; empty in every other space.
    pub dcx_lo: Vec<f64>,
    /// Radius over `dcx_lo` (`0` when empty).
    pub radius_lo: f64,
}

impl IndexCell {
    pub(crate) fn new(members: Vec<u32>, dcx: Vec<f64>) -> Self {
        let radius = dcx.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
        IndexCell {
            members,
            dcx,
            radius,
            dcx_lo: Vec::new(),
            radius_lo: 0.0,
        }
    }

    /// A [`BoundSpace::ConvexMix`] cell: Euclidean and geodesic member
    /// distances, radii by [`bound::mix_radius`].
    pub(crate) fn mix(members: Vec<u32>, dcx_eu: Vec<f64>, dcx_lo: Vec<f64>) -> Self {
        IndexCell {
            radius: bound::mix_radius(&dcx_eu),
            radius_lo: bound::mix_radius(&dcx_lo),
            members,
            dcx: dcx_eu,
            dcx_lo,
        }
    }
}

/// Aggregate scan accounting for one or more queries: what the index's
/// probe loop and the flat scan loop did, summed over every segment
/// scanned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ProbeStats {
    /// Queries served.
    pub queries: usize,
    /// Cell-visit opportunities (`num_cells × queries`).
    pub cells: usize,
    /// Cells actually scanned.
    pub cells_probed: usize,
    /// Cells skipped by the cell bound.
    pub cells_pruned: usize,
    /// Candidate-row opportunities (`len × queries`).
    pub rows: usize,
    /// Rows whose kernel distance was evaluated.
    pub rows_scanned: usize,
    /// Rows skipped by a member bound.
    pub rows_pruned: usize,
}

impl ProbeStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.queries += other.queries;
        self.cells += other.cells;
        self.cells_probed += other.cells_probed;
        self.cells_pruned += other.cells_pruned;
        self.rows += other.rows;
        self.rows_scanned += other.rows_scanned;
        self.rows_pruned += other.rows_pruned;
    }

    /// Fraction of candidate rows whose kernel distance was *not*
    /// evaluated (the headline pruning metric; 0 for a flat scan).
    pub fn prune_rate(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        1.0 - self.rows_scanned as f64 / self.rows as f64
    }

    /// Always 0: the second-level landmark bound this rate used to
    /// report left the index. The method stays only because `benchmark/`
    /// — which a change to the library may not edit — reads it into its
    /// `index.landmark_prune_rate` key; it leaves with that key.
    pub fn landmark_prune_rate(&self) -> f64 {
        0.0
    }

    /// Mean cells probed per query.
    pub fn cells_probed_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.cells_probed as f64 / self.queries as f64
    }
}

/// An [`EmbeddingStore`] served through the pivot-partitioned index.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedStore {
    store: EmbeddingStore,
    /// One centroid row per cell, same layout as `store`.
    centroids: EmbeddingStore,
    /// The cells, parallel to `centroids`.
    cells: Vec<IndexCell>,
    /// Always [`BoundSpace::for_store`] of `store`.
    space: BoundSpace,
}

impl IndexedStore {
    /// Builds the index over `store` (see [`build`] for the pipeline).
    /// The bound space is read off the store ([`BoundSpace::for_store`]).
    pub fn build(store: EmbeddingStore, params: IndexParams) -> Self {
        let space = BoundSpace::for_store(&store);
        let (centroids, cells) = build::build_cells(&store, &space, &params);
        IndexedStore {
            store,
            centroids,
            cells,
            space,
        }
    }

    /// [`IndexedStore::build`] with default parameters (`⌈√n⌉` cells).
    pub fn with_default_params(store: EmbeddingStore) -> Self {
        Self::build(store, IndexParams::default())
    }

    /// The bound space the index prunes in, decided from the store's
    /// contents at build or decode time.
    pub fn bound_space(&self) -> BoundSpace {
        self.space
    }

    /// The underlying store.
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Releases the underlying store, discarding the index.
    pub fn into_store(self) -> EmbeddingStore {
        self.store
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of pivot cells: 0 for an empty store or one whose space
    /// cannot prune ([`BoundSpace::None`]), which the flat scan serves.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Active plugin variant.
    pub fn variant(&self) -> PluginVariant {
        self.store.variant()
    }

    /// Index overhead on top of the store payload: centroid rows and
    /// per-member bookkeeping (the Table V memory accounting).
    pub fn index_bytes(&self) -> usize {
        if self.cells.is_empty() {
            // No cells, no per-member bookkeeping: a bare store.
            return 0;
        }
        // Pivot distances kept per member, and radii per cell.
        let pivots = match self.space {
            BoundSpace::ConvexMix { .. } => 2,
            _ => 1,
        };
        let per_member = std::mem::size_of::<u32>() + pivots * std::mem::size_of::<f64>();
        self.centroids.payload_bytes()
            + self.len() * per_member
            + self.cells.len() * pivots * std::mem::size_of::<f64>()
    }

    /// Store payload plus index overhead.
    pub fn payload_bytes(&self) -> usize {
        self.store.payload_bytes() + self.index_bytes()
    }

    /// Top-k for query row `qi` of `queries` through the index. Panics if
    /// `queries` does not share the store's layout.
    pub fn knn(&self, queries: &EmbeddingStore, qi: usize, k: usize) -> Vec<RetrievalResult> {
        self.knn_with_stats(queries, qi, k).0
    }

    /// [`IndexedStore::knn`] plus probe accounting.
    pub fn knn_with_stats(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
    ) -> (Vec<RetrievalResult>, ProbeStats) {
        let mut top = TopK::new(k);
        let mut stats = ProbeStats {
            queries: 1,
            ..ProbeStats::default()
        };
        self.scan(queries, qi, None, 0, &mut top, &mut stats);
        (results_from_topk(top), stats)
    }

    /// Batched top-k, parallel across queries.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<RetrievalResult>> {
        self.knn_batch_with_stats(queries, k).0
    }

    /// [`IndexedStore::knn_batch`] plus aggregated probe accounting.
    pub fn knn_batch_with_stats(
        &self,
        queries: &EmbeddingStore,
        k: usize,
    ) -> (Vec<Vec<RetrievalResult>>, ProbeStats) {
        let nq = queries.len();
        let per_query: Vec<(Vec<RetrievalResult>, ProbeStats)> =
            parallel_map(nq, default_threads(nq), |qi| {
                self.knn_with_stats(queries, qi, k)
            });
        let mut stats = ProbeStats::default();
        let results = per_query
            .into_iter()
            .map(|(res, s)| {
                stats.merge(&s);
                res
            })
            .collect();
        (results, stats)
    }

    /// The indexed half of the retrieval scan core: offers the rows of
    /// this store that can still make query `qi`'s top-k into `top`,
    /// under keys `key_offset + row id`, skipping rows flagged in `dead`,
    /// and counts what it did into `stats` (everything but `queries`,
    /// which belongs to the caller that owns the query). Bit-identical
    /// to offering every live row through [`kernel::scan_offer_masked`].
    ///
    /// `top` is the caller's and may arrive full — the serving tier scans
    /// a base and then its delta, a sharded snapshot every shard, into
    /// one heap. `τ` is therefore read from the heap on entry to each
    /// cell, so a heap filled elsewhere prunes from the first cell;
    /// [`bound`]'s module docs say why a carried `τ` is admissible.
    /// Tombstones are safe for the same reason: a dead row is skipped
    /// before any bound or heap offer fires (it must never occupy a slot
    /// a live row deserved — filtering after selection would displace
    /// live rows), and skipping rows only ever *raises* `τ`.
    ///
    /// Panics if `queries` does not share the store's layout.
    pub(crate) fn scan(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        dead: Option<Mask<'_>>,
        key_offset: usize,
        top: &mut TopK,
        stats: &mut ProbeStats,
    ) {
        self.store.assert_query_layout(queries);
        stats.cells += self.cells.len();
        let (space, dim) = (self.space, self.store.dim());
        match space {
            _ if self.cells.is_empty() || top.k() == 0 => {}
            BoundSpace::Euclidean => {
                let kern = kernel::EuclideanKernel::bind(&self.store, queries, qi);
                let bound = Triangle { space, dim };
                return self.probe(&kern, &bound, queries, qi, dead, key_offset, top, stats);
            }
            BoundSpace::LorentzGeodesic { .. } => {
                let kern = kernel::LorentzKernel::bind(&self.store, queries, qi);
                let bound = Triangle { space, dim };
                return self.probe(&kern, &bound, queries, qi, dead, key_offset, top, stats);
            }
            BoundSpace::ConvexMix { beta } if bound::mix_certifies_query(queries, qi) => {
                let kern = kernel::FusedKernel::bind(&self.store, queries, qi);
                let bound = MixBound::new(beta, dim);
                return self.probe(&kern, &bound, queries, qi, dead, key_offset, top, stats);
            }
            BoundSpace::ConvexMix { .. } | BoundSpace::None => {}
        }
        // Nothing to prune with (no cells, or a fused query that
        // certifies no bound): walking the cells would evaluate every row
        // anyway, in scattered order — scan in storage order instead.
        kernel::scan_offer_masked(&self.store, queries, qi, dead, key_offset, top, stats);
    }

    /// The one probe loop, monomorphized per (kernel, predicate pair).
    /// Visits cells in ascending order of the bound's rank key (`total_cmp`,
    /// ties by cell id), popped one at a time from a min-heap built in
    /// O(cells) — so a query that probes five cells of hundreds never
    /// sorts the rest — and skips cells / members whose slack-padded bound
    /// already exceeds the current k-th best `τ`, re-mapping `τ` into
    /// bound space lazily — only when the heap's worst survivor changes.
    /// Once the bound says every cell still queued would be skipped
    /// ([`PruneBound::exits`]) they are counted pruned and the visit
    /// ends. Inside a probed cell each member's row is prefetched
    /// [`PREFETCH_AHEAD`] members before it is evaluated: the members are
    /// scattered over the store, and the hint hides the cache misses
    /// behind the kernel work. Tombstoned rows are counted in neither the
    /// scanned nor the pruned tallies.
    #[allow(clippy::too_many_arguments)] // internal, monomorphized per kernel and bound
    fn probe<K: Prefetch, P: PruneBound>(
        &self,
        kern: &K,
        bound: &P,
        queries: &EmbeddingStore,
        qi: usize,
        dead: Option<Mask<'_>>,
        key_offset: usize,
        top: &mut TopK,
        stats: &mut ProbeStats,
    ) {
        stats.rows += self.store.len();
        let ranking = bound.rank_cells(&self.centroids, &self.cells, queries, qi);
        // Empty cells are neither probed nor pruned: they never queue.
        let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (ranking.keys.iter().zip(&self.cells))
            .enumerate()
            .filter(|(_, (_, cell))| !cell.members.is_empty())
            .map(|(j, (&key, _))| Reverse((total_order_bits(key), j as u32)))
            .collect();

        let k = top.k();
        // τ in raw space (bit-tracked so NaN updates are seen) and its
        // bound-space image; ∞ while the heap is not yet full.
        let mut tau_bits = f64::INFINITY.to_bits();
        let mut tau = bound.tau(f64::INFINITY);
        while let Some(Reverse((_, j))) = queue.pop() {
            let j = j as usize;
            let cell = &self.cells[j];
            if top.len() == k {
                let worst = top.worst().expect("full heap").1;
                if worst.to_bits() != tau_bits {
                    tau_bits = worst.to_bits();
                    tau = bound.tau(worst);
                }
            }
            if bound.exits(tau, ranking.reach, ranking.keys[j]) {
                stats.cells_pruned += 1 + queue.len();
                return;
            }
            let pqj = ranking.pq[j];
            let mut thresh = bound.thresholds(tau, pqj, cell);
            if P::skips_cell(thresh, pqj, cell) {
                stats.cells_pruned += 1;
                continue;
            }
            stats.cells_probed += 1;
            // The first members are hinted here, every later one
            // `PREFETCH_AHEAD` members before its turn.
            for &m in cell.members.iter().take(PREFETCH_AHEAD) {
                kern.prefetch(m as usize);
            }
            for (i, &m) in cell.members.iter().enumerate() {
                if let Some(&ahead) = cell.members.get(i + PREFETCH_AHEAD) {
                    kern.prefetch(ahead as usize);
                }
                let m = m as usize;
                if dead.is_some_and(|d| d.get(m)) {
                    continue;
                }
                if P::skips_member(thresh, pqj, cell, i) {
                    stats.rows_pruned += 1;
                    continue;
                }
                top.offer(key_offset + m, kern.distance_to(m) as f64);
                stats.rows_scanned += 1;
                if top.len() == k {
                    let worst = top.worst().expect("full heap").1;
                    if worst.to_bits() != tau_bits {
                        tau_bits = worst.to_bits();
                        tau = bound.tau(worst);
                        thresh = bound.thresholds(tau, pqj, cell);
                    }
                }
            }
        }
    }
}

/// How many members ahead of the one being evaluated the probe loop
/// prefetches: far enough that a row arrives from memory while the
/// kernel works through the members before it.
const PREFETCH_AHEAD: usize = 12;

/// `x`'s bits remapped so that unsigned order is `f64::total_cmp` order:
/// a negative value has every bit flipped, a positive one its sign bit.
#[inline]
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel::DistanceKernel;
    use super::super::store::tests::store_with_rows;
    use super::super::tombstones::Tombstones;
    use super::*;

    fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u32)> {
        hits.iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect()
    }

    fn params(cells: usize) -> IndexParams {
        IndexParams {
            n_cells: Some(cells),
        }
    }

    #[test]
    fn indexed_matches_flat_scan_all_variants() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            for cells in 1..=3 {
                let ix = IndexedStore::build(s.clone(), params(cells));
                for k in [0, 1, 2, 3, 10] {
                    for qi in 0..s.len() {
                        assert_eq!(
                            bits(&ix.knn(&s, qi, k)),
                            bits(&s.knn(&s, qi, k)),
                            "{} cells={cells} k={k} qi={qi}",
                            variant.name()
                        );
                    }
                    let (batch, stats) = ix.knn_batch_with_stats(&s, k);
                    assert_eq!(batch.len(), s.len());
                    for (qi, hits) in batch.iter().enumerate() {
                        assert_eq!(bits(hits), bits(&s.knn(&s, qi, k)));
                    }
                    assert_eq!(stats.queries, s.len());
                    assert_eq!(stats.rows, s.len() * s.len());
                    assert!(stats.rows_scanned + stats.rows_pruned <= stats.rows);
                }
            }
        }
    }

    /// A fused row on `H(1)` at `(x, 0)` with the given factor row.
    fn push_fused(db: &mut EmbeddingStore, x: f32, factors: [f32; 4]) {
        let hyper = [(x * x + 1.0).sqrt(), x, 0.0];
        db.push(&[x, 0.0], Some(&hyper), Some(&factors));
    }

    /// Two far-apart fused clusters (the twin of the Euclidean fixture in
    /// `stats_report_pruning_on_separated_clusters`), factor rows varied
    /// so α differs per pair, and one query inside the first cluster.
    fn fused_clusters(bad_factor: Option<f32>) -> (EmbeddingStore, EmbeddingStore) {
        let mut db = EmbeddingStore::new(2, PluginVariant::FusionDist, 1.0, Some(2));
        for i in 0..16 {
            let x = if i < 8 { 0.0 } else { 30.0 } + (i % 8) as f32 * 0.01;
            let t = i as f32 / 16.0;
            push_fused(&mut db, x, [0.2 + t, 1.0, 1.2 - t, 0.5]);
        }
        if let Some(bad) = bad_factor {
            push_fused(&mut db, 0.03, [bad, 1.0, 1.0, 1.0]);
        }
        let mut q = db.empty_like();
        push_fused(&mut q, 0.02, [0.7, 0.9, 0.4, 1.1]);
        (db, q)
    }

    /// The thesis as a prune rate: the fused distance violates the
    /// triangle inequality, and the index still certifies the far cluster
    /// out — through the convex-mix bound, not a triangle bound.
    #[test]
    fn fused_stats_report_pruning_on_separated_clusters() {
        let (db, q) = fused_clusters(None);
        let ix = IndexedStore::build(db.clone(), params(2));
        assert!(ix.bound_space().prunes() && !ix.bound_space().is_metric());
        let (hits, stats) = ix.knn_batch_with_stats(&q, 4);
        assert_eq!(bits(&hits[0]), bits(&db.knn(&q, 0, 4)));
        assert!(
            stats.prune_rate() > 0.0,
            "far cluster must be pruned: {stats:?}"
        );
        assert_eq!(stats.cells_probed + stats.cells_pruned, stats.cells);
        // One cell: the member bounds alone do the pruning.
        let one = IndexedStore::build(db.clone(), params(1));
        let (hits1, stats1) = one.knn_batch_with_stats(&q, 4);
        assert_eq!(bits(&hits1[0]), bits(&hits[0]));
        assert!(stats1.rows_pruned > 0, "{stats1:?}");
        assert_eq!(stats1.rows_scanned + stats1.rows_pruned, stats1.rows);
    }

    /// A store or a query whose factors do not certify `α ∈ [0, 1]` is
    /// served exactly by the flat scan and prunes nothing — and a mask
    /// is honoured on that path too. Such a store builds no cells.
    #[test]
    fn uncertified_fused_fails_open_to_the_flat_scan() {
        for bad in [-0.5, f32::NAN] {
            // Uncertified store.
            let (db, q) = fused_clusters(Some(bad));
            let ix = IndexedStore::build(db.clone(), params(2));
            assert_eq!(ix.bound_space(), BoundSpace::None);
            assert_eq!((ix.num_cells(), ix.index_bytes()), (0, 0));
            let (hits, stats) = ix.knn_batch_with_stats(&q, 4);
            assert_eq!(bits(&hits[0]), bits(&db.knn(&q, 0, 4)));
            assert_eq!((stats.rows_pruned, stats.cells_pruned), (0, 0));
            assert_eq!(stats.rows_scanned, db.len());

            // Certified store, uncertified query.
            let (db, _) = fused_clusters(None);
            let ix = IndexedStore::build(db.clone(), params(2));
            assert!(ix.bound_space().prunes());
            let mut q = db.empty_like();
            push_fused(&mut q, 0.02, [0.7, bad, 0.4, 1.1]);
            let (hits, stats) = ix.knn_batch_with_stats(&q, 4);
            assert_eq!(bits(&hits[0]), bits(&db.knn(&q, 0, 4)));
            assert_eq!((stats.rows_pruned, stats.cells_pruned), (0, 0));

            let mut dead = Tombstones::default();
            dead.insert(1);
            let (mut top, mut stats) = (TopK::new(4), ProbeStats::default());
            ix.scan(&q, 0, dead.mask(), 0, &mut top, &mut stats);
            assert!(top.into_sorted().iter().all(|&(i, _)| i != 1));
            assert_eq!(stats.rows_scanned, db.len() - 1);
        }
    }

    /// The scan composes: a second segment offered into the heap a first
    /// one filled — under a key offset, probing against the τ it finds —
    /// returns the flat scan of the concatenation, and prunes from its
    /// first cell. Two far-apart clusters as two segments: once the near
    /// one has filled the heap, the far one is certified out cell and all.
    #[test]
    fn scan_into_a_prefilled_heap_prunes_from_the_first_cell() {
        let mut near = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        let mut far = near.empty_like();
        for i in 0..8 {
            near.push(&[i as f32 * 0.01, 0.0], None, None);
            far.push(&[1000.0 + i as f32 * 0.01, 0.0], None, None);
        }
        let mut whole = near.clone();
        (0..far.len()).for_each(|i| whole.push_row_from(&far, i));
        let far_ix = IndexedStore::build(far, params(1));
        for (k, far_cells_pruned) in [(4, 1), (12, 0)] {
            let (mut top, mut stats) = (TopK::new(k), ProbeStats::default());
            kernel::scan_offer_masked(&near, &near, 2, None, 0, &mut top, &mut stats);
            far_ix.scan(&near, 2, None, near.len(), &mut top, &mut stats);
            assert_eq!(stats.cells_pruned, far_cells_pruned, "k={k} {stats:?}");
            assert_eq!(stats.rows_scanned, if k == 4 { 8 } else { 16 });
            let want = whole.knn(&near, 2, k);
            assert_eq!(bits(&results_from_topk(top)), bits(&want), "k={k}");
        }
    }

    #[test]
    fn nan_rows_fail_open_and_stay_deterministic() {
        let mut db = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        db.push(&[0.0, 0.0], None, None);
        db.push(&[f32::NAN, 1.0], None, None);
        db.push(&[2.0, 0.0], None, None);
        db.push(&[f32::INFINITY, 0.0], None, None);
        db.push(&[1.0, 0.0], None, None);
        for cells in 1..=4 {
            let ix = IndexedStore::build(db.clone(), params(cells));
            for k in [1, 3, 5] {
                for qi in 0..db.len() {
                    assert_eq!(
                        bits(&ix.knn(&db, qi, k)),
                        bits(&db.knn(&db, qi, k)),
                        "cells={cells} k={k} qi={qi}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_report_pruning_on_separated_clusters() {
        // Two far-apart clusters: querying inside one must prune the
        // other cell entirely once the heap fills.
        let mut db = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        for i in 0..8 {
            db.push(&[i as f32 * 0.01, 0.0], None, None);
        }
        for i in 0..8 {
            db.push(&[1000.0 + i as f32 * 0.01, 0.0], None, None);
        }
        let ix = IndexedStore::build(db.clone(), params(2));
        let mut q = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        q.push(&[0.02, 0.0], None, None);
        let (hits, stats) = ix.knn_batch_with_stats(&q, 4);
        assert_eq!(bits(&hits[0]), bits(&db.knn(&q, 0, 4)));
        assert!(
            stats.prune_rate() > 0.0,
            "far cluster must be pruned: {stats:?}"
        );
        assert_eq!(stats.cells_probed + stats.cells_pruned, stats.cells);
    }

    /// The probe loop as it was before the lazy visit order: rank every
    /// cell, sort all of them by `(key, id)`, walk every one. It also
    /// checks the early exit on live data: from the first cell where
    /// `exits` holds, every cell walked must be one `skips_cell` skips.
    /// Returns how many cells it walked past that point.
    #[allow(clippy::too_many_arguments)]
    fn sorted_probe<K: DistanceKernel, P: PruneBound>(
        ix: &IndexedStore,
        kern: &K,
        bound: &P,
        queries: &EmbeddingStore,
        qi: usize,
        dead: Option<Mask<'_>>,
        key_offset: usize,
        top: &mut TopK,
        stats: &mut ProbeStats,
    ) -> usize {
        stats.rows += ix.store.len();
        let ranking = bound.rank_cells(&ix.centroids, &ix.cells, queries, qi);
        let mut order: Vec<(f64, u32)> = (ranking.keys.iter().enumerate())
            .map(|(j, &key)| (key, j as u32))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let k = top.k();
        let mut tau_bits = f64::INFINITY.to_bits();
        let mut tau = bound.tau(f64::INFINITY);
        let (mut exited, mut past_exit) = (false, 0);
        for &(key, j) in &order {
            let cell = &ix.cells[j as usize];
            if cell.members.is_empty() {
                continue;
            }
            if top.len() == k {
                let worst = top.worst().expect("full heap").1;
                if worst.to_bits() != tau_bits {
                    tau_bits = worst.to_bits();
                    tau = bound.tau(worst);
                }
            }
            let pqj = ranking.pq[j as usize];
            let mut thresh = bound.thresholds(tau, pqj, cell);
            let skipped = P::skips_cell(thresh, pqj, cell);
            exited |= bound.exits(tau, ranking.reach, key);
            assert!(
                !exited || skipped,
                "exit fired before cell {j}, which probes"
            );
            past_exit += usize::from(exited);
            if skipped {
                stats.cells_pruned += 1;
                continue;
            }
            stats.cells_probed += 1;
            for (i, &m) in cell.members.iter().enumerate() {
                let m = m as usize;
                if dead.is_some_and(|d| d.get(m)) {
                    continue;
                }
                if P::skips_member(thresh, pqj, cell, i) {
                    stats.rows_pruned += 1;
                    continue;
                }
                top.offer(key_offset + m, kern.distance_to(m) as f64);
                stats.rows_scanned += 1;
                if top.len() == k {
                    let worst = top.worst().expect("full heap").1;
                    if worst.to_bits() != tau_bits {
                        tau_bits = worst.to_bits();
                        tau = bound.tau(worst);
                        thresh = bound.thresholds(tau, pqj, cell);
                    }
                }
            }
        }
        past_exit
    }

    /// [`IndexedStore::scan`]'s dispatch around [`sorted_probe`].
    fn sorted_scan(
        ix: &IndexedStore,
        queries: &EmbeddingStore,
        qi: usize,
        dead: Option<Mask<'_>>,
        key_offset: usize,
        top: &mut TopK,
        stats: &mut ProbeStats,
    ) -> usize {
        stats.cells += ix.cells.len();
        let (space, dim, db) = (ix.space, ix.store.dim(), &ix.store);
        if !ix.cells.is_empty() && top.k() > 0 {
            let tri = Triangle { space, dim };
            match space {
                BoundSpace::Euclidean => {
                    let kern = kernel::EuclideanKernel::bind(db, queries, qi);
                    return sorted_probe(
                        ix, &kern, &tri, queries, qi, dead, key_offset, top, stats,
                    );
                }
                BoundSpace::LorentzGeodesic { .. } => {
                    let kern = kernel::LorentzKernel::bind(db, queries, qi);
                    return sorted_probe(
                        ix, &kern, &tri, queries, qi, dead, key_offset, top, stats,
                    );
                }
                BoundSpace::ConvexMix { beta } if bound::mix_certifies_query(queries, qi) => {
                    let (kern, mix) = (
                        kernel::FusedKernel::bind(db, queries, qi),
                        MixBound::new(beta, dim),
                    );
                    return sorted_probe(
                        ix, &kern, &mix, queries, qi, dead, key_offset, top, stats,
                    );
                }
                _ => {}
            }
        }
        kernel::scan_offer_masked(db, queries, qi, dead, key_offset, top, stats);
        0
    }

    /// `n` seeded rows in six tight clusters, so cells prune and the visit
    /// stops early. With `poison`, about one row in twelve carries a NaN
    /// or `±∞` coordinate in both its Euclidean and its hyperbolic row —
    /// its cell's radius is then not finite, which keeps the visit from
    /// stopping early anywhere. Fused factors are certified.
    pub(super) fn clustered_store(
        variant: PluginVariant,
        n: usize,
        poison: bool,
        seed: u64,
    ) -> EmbeddingStore {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (dim, mut rng) = (4, StdRng::seed_from_u64(seed));
        let fd = variant.uses_fusion().then_some(2);
        let mut s = EmbeddingStore::new(dim, variant, 1.0, fd);
        let centers: Vec<Vec<f32>> = (0..6)
            .map(|_| (0..dim).map(|_| rng.gen_range(-3.0f32..3.0)).collect())
            .collect();
        for _ in 0..n {
            let c = &centers[rng.gen_range(0..centers.len())];
            let mut eu: Vec<f32> = c.iter().map(|&x| x + rng.gen_range(-0.1f32..0.1)).collect();
            let nsq: f32 = eu.iter().map(|v| v * v).sum();
            let mut hy = vec![(nsq + 1.0).sqrt()];
            hy.extend_from_slice(&eu);
            if poison && rng.gen_range(0..12) == 0 {
                let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3usize)];
                let at = rng.gen_range(0..dim);
                (eu[at], hy[1 + at]) = (bad, bad);
            }
            let fa: Vec<f32> = (0..4).map(|_| rng.gen_range(0.01f32..1.0)).collect();
            s.push(
                &eu,
                variant.uses_hyperbolic().then_some(&hy[..]),
                fd.map(|_| &fa[..]),
            );
        }
        s
    }

    /// The lazy visit order and the early exit change nothing observable:
    /// on seeded stores in every pruning space, with poisoned rows, every
    /// `k` regime, tombstones and a heap an earlier segment filled, the
    /// probe returns the sort-then-walk loop's hit bits and `ProbeStats`.
    #[test]
    fn probe_matches_the_sort_then_walk_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for variant in [
            PluginVariant::Original,
            PluginVariant::LorentzCosh,
            PluginVariant::FusionDist,
        ] {
            let mut past_exit = 0;
            for seed in 0..6 {
                let poison = seed % 2 == 1;
                let db = clustered_store(variant, 300, poison, seed);
                let ix = IndexedStore::build(db, params(17));
                assert!(ix.bound_space().prunes() && ix.num_cells() > 0);
                let earlier = clustered_store(variant, 40, poison, seed + 100);
                let queries = clustered_store(variant, 12, poison, seed + 200);
                let mut rng = StdRng::seed_from_u64(seed + 300);
                let mut mask = Tombstones::default();
                for r in 0..ix.len() {
                    if rng.gen_range(0..5) == 0 {
                        mask.insert(r);
                    }
                }
                for dead in [None, mask.mask()] {
                    for k in [0, 1, 10, ix.len() + 7] {
                        for prefill in [false, true] {
                            for qi in 0..queries.len() {
                                let run = |oracle: bool| {
                                    let (mut top, mut stats) =
                                        (TopK::new(k), ProbeStats::default());
                                    let offset = if prefill {
                                        kernel::scan_offer_masked(
                                            &earlier, &queries, qi, None, 0, &mut top, &mut stats,
                                        );
                                        earlier.len()
                                    } else {
                                        0
                                    };
                                    let past = if oracle {
                                        sorted_scan(
                                            &ix, &queries, qi, dead, offset, &mut top, &mut stats,
                                        )
                                    } else {
                                        ix.scan(&queries, qi, dead, offset, &mut top, &mut stats);
                                        0
                                    };
                                    (bits(&results_from_topk(top)), stats, past)
                                };
                                let (want, want_stats, past) = run(true);
                                let (got, got_stats, _) = run(false);
                                let ctx = format!(
                                    "{} seed={seed} poison={poison} dead={} k={k} prefill={prefill} qi={qi}",
                                    variant.name(),
                                    dead.is_some()
                                );
                                assert_eq!(got, want, "{ctx}");
                                assert_eq!(got_stats, want_stats, "{ctx}");
                                past_exit += past;
                            }
                        }
                    }
                }
            }
            // The metric fixtures do reach the early exit; the mix bound
            // never takes it.
            assert_eq!(
                past_exit > 0,
                variant != PluginVariant::FusionDist,
                "{}",
                variant.name()
            );
        }
    }

    /// One row with a NaN or `±∞` coordinate must not collapse the
    /// partition: it is kept out of the k-means training, so the index of
    /// a 2 000-row store keeps about as many non-empty cells and scans
    /// about as few rows per query as without it — and stays exact.
    #[test]
    fn a_non_finite_row_keeps_the_partition() {
        for variant in PluginVariant::ABLATION {
            let clean = clustered_store(variant, 2000, false, 7);
            let queries = clustered_store(variant, 32, false, 8);
            let profile = |db: &EmbeddingStore| {
                let ix = IndexedStore::with_default_params(db.clone());
                let (hits, stats) = ix.knn_batch_with_stats(&queries, 10);
                for (qi, hits) in hits.iter().enumerate() {
                    assert_eq!(bits(hits), bits(&db.knn(&queries, qi, 10)));
                }
                let non_empty = ix.cells.iter().filter(|c| !c.members.is_empty());
                let scanned = stats.rows_scanned as f64 / stats.queries as f64;
                (non_empty.count(), scanned)
            };
            let (cells, scanned) = profile(&clean);
            assert!(cells > 1, "{}", variant.name());
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut db = clean.clone();
                db.eu[1234 * db.dim] = bad;
                if variant.uses_hyperbolic() {
                    db.hyper[1234 * (db.dim + 1)] = bad;
                }
                let (bad_cells, bad_scanned) = profile(&db);
                assert!(
                    2 * bad_cells >= cells && bad_scanned <= 2.0 * scanned,
                    "{} {bad}: {bad_cells} non-empty cells, {bad_scanned} rows \
                     scanned per query; clean: {cells}, {scanned}",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn payload_accounting_includes_index_overhead() {
        let s = store_with_rows(PluginVariant::LorentzCosh);
        let base = s.payload_bytes();
        let ix = IndexedStore::build(s.clone(), params(2));
        assert!(ix.index_bytes() > 0);
        assert_eq!(ix.payload_bytes(), base + ix.index_bytes());
        // The mix space keeps a second f64 per member and per cell.
        let (fused, _) = fused_clusters(None);
        let (n, certified) = (fused.len(), IndexedStore::build(fused, params(2)));
        // A metric space keeps a row id and one f64 per member, and one
        // radius per cell.
        assert_eq!(
            ix.index_bytes() - ix.centroids.payload_bytes(),
            s.len() * 12 + 2 * 8
        );
        assert_eq!(
            certified.index_bytes() - certified.centroids.payload_bytes(),
            n * 20 + 2 * 16
        );
    }
}
