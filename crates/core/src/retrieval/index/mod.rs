//! The pivot-partitioned index tier: sub-linear *exact* kNN for every
//! plugin variant, the fused distance included.
//!
//! An [`IndexedStore`] owns one [`EmbeddingStore`] plus an IVF-style
//! partition of its rows into pivot cells ([`build`]): each cell keeps a
//! centroid row (served through the same monomorphized
//! [`DistanceKernel`](super::kernel) machinery as the flat scans), the
//! bound-space centroid distance of every member, and the cell radius.
//! A query scans the `√n`-ish centroids, orders the cells, and then:
//!
//! * **metric spaces** (Euclidean, Lorentz — see [`bound::BoundSpace`])
//!   skip every cell whose triangle lower bound `max(0, d(q,c) − r_cell)`
//!   exceeds the current k-th best and, inside probed cells, every member
//!   with `|d(q,c) − d(c,x)| > kth` (Schubert-style stored-distance
//!   bound) — composed tightest-wins with a **second-level landmark
//!   bound** (`LandmarkBlock`): a few farthest-point-selected store rows
//!   act as global landmarks, every member keeps its bound-space distance
//!   to each, and `max_j |θ(q,l_j) − θ(l_j,x)|` (the `traj_dist::landmark`
//!   feature gap, transplanted into bound space) prunes members the
//!   single centroid bound cannot separate;
//! * **the fused variant** is not a metric (the paper's thesis) and no
//!   single triangle bound applies — but its blend is convex, so
//!   `d ≥ min(d_Lo, d_Eu)` and each component *is* boundable
//!   ([`bound::BoundSpace::ConvexMix`]). Every member keeps two pivot
//!   distances (raw Euclidean and geodesic θ against the centroid's `eu`
//!   / `hyper` rows), every cell two radii, and a cell or member is
//!   skipped only when *both* component tests certify it out. The price
//!   of the learned violations is then a measured prune rate, not a full
//!   scan. A fused store or query whose factors do not certify
//!   `α ∈ [0, 1]` ([`bound::BoundSpace::None`]) is served by the
//!   storage-order flat scan instead — exact, unpruned.
//!
//! All bounds are padded by a conservative float-rounding slack, so
//! results are **bit-identical** to [`EmbeddingStore::knn`] — recall 1.0
//! by construction, sub-linear by pruning. Only an explicit
//! [`IndexedStore::probe_budget`] trades that for best-effort serving
//! with measured recall.
//!
//! Every prune decision fails open on non-finite values (NaN rows poison
//! bounds into "cannot prune", never into a wrong skip), keeping the
//! engine's NaN-determinism contract.

pub mod bound;
pub mod build;
mod codec;

use super::kernel::{self, DistanceKernel};
use super::store::{results_from_topk, EmbeddingStore, RetrievalResult};
use crate::config::PluginVariant;
use bound::{BoundSpace, MixBound};
use build::IndexParams;
use serde::Serialize;
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

/// The second-level landmark bound: a handful of farthest-point-selected
/// store rows plus every member's bound-space distance to each (the
/// member's landmark *feature row*). The probe loop prunes a member when
/// the Chebyshev gap between the query's and the member's feature rows
/// exceeds the current k-th best — the same admissible mechanism as
/// [`traj_dist::landmark`], applied in bound space (see
/// [`BoundSpace::landmark_prunes`]). Built only for metric spaces.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LandmarkBlock {
    /// Landmark rows, same layout as the store (`k` rows).
    pub rows: EmbeddingStore,
    /// Bound-space row→landmark distances, row-major `n × k`.
    pub dlx: Vec<f64>,
}

impl LandmarkBlock {
    /// Number of landmarks.
    pub(crate) fn k(&self) -> usize {
        self.rows.len()
    }

    /// Feature row of store row `m`.
    pub(crate) fn features(&self, m: usize) -> &[f64] {
        &self.dlx[m * self.k()..(m + 1) * self.k()]
    }
}

/// Aggregate probe accounting for one or more indexed queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ProbeStats {
    /// Queries served.
    pub queries: usize,
    /// Cell-visit opportunities (`num_cells × queries`).
    pub cells: usize,
    /// Cells actually scanned.
    pub cells_probed: usize,
    /// Cells skipped by the triangle-inequality cell bound.
    pub cells_pruned: usize,
    /// Candidate-row opportunities (`len × queries`).
    pub rows: usize,
    /// Rows whose kernel distance was evaluated.
    pub rows_scanned: usize,
    /// Rows skipped by a member bound (centroid or landmark).
    pub rows_pruned: usize,
    /// Subset of `rows_pruned` skipped by the second-level landmark
    /// bound — members the centroid bound alone could not separate.
    pub rows_pruned_landmark: usize,
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
        self.rows_pruned_landmark += other.rows_pruned_landmark;
    }

    /// Fraction of candidate rows whose kernel distance was *not*
    /// evaluated (the headline pruning metric; 0 for a flat scan).
    pub fn prune_rate(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        1.0 - self.rows_scanned as f64 / self.rows as f64
    }

    /// Fraction of candidate rows skipped by the second-level landmark
    /// bound specifically — the composed bound's marginal win over the
    /// centroid bound alone.
    pub fn landmark_prune_rate(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        self.rows_pruned_landmark as f64 / self.rows as f64
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
    centroids: EmbeddingStore,
    cells: Vec<IndexCell>,
    landmarks: Option<LandmarkBlock>,
    space: BoundSpace,
    probe_budget: Option<usize>,
}

impl IndexedStore {
    /// Builds the index over `store` (see [`build`] for the pipeline).
    /// The bound space is read off the store ([`BoundSpace::for_store`]).
    pub fn build(store: EmbeddingStore, params: IndexParams) -> Self {
        let space = BoundSpace::for_store(&store);
        let built = build::build_cells(&store, &space, &params);
        let landmarks = build::build_landmarks(&store, &space, &params);
        Self::from_parts(store, built.centroids, built.cells, landmarks, space)
    }

    /// [`IndexedStore::build`] with default parameters (`⌈√n⌉` cells).
    pub fn with_default_params(store: EmbeddingStore) -> Self {
        Self::build(store, IndexParams::default())
    }

    /// Assembles an index from built or decoded parts; `space` must be
    /// [`BoundSpace::for_store`] of `store` and the cells built for it.
    pub(crate) fn from_parts(
        store: EmbeddingStore,
        centroids: EmbeddingStore,
        cells: Vec<IndexCell>,
        landmarks: Option<LandmarkBlock>,
        space: BoundSpace,
    ) -> Self {
        IndexedStore {
            store,
            centroids,
            cells,
            landmarks,
            space,
            probe_budget: None,
        }
    }

    /// Caps the number of cells probed per query. `None` (the default)
    /// probes until the exact bound allows stopping, which keeps results
    /// bit-identical to the flat scan in every space. Setting a budget
    /// turns any variant into best-effort serving with measured (not
    /// guaranteed) recall.
    pub fn with_probe_budget(mut self, budget: Option<usize>) -> Self {
        self.probe_budget = budget;
        self
    }

    /// Configured probe budget.
    pub fn probe_budget(&self) -> Option<usize> {
        self.probe_budget
    }

    /// Whether this configuration guarantees flat-scan-identical results:
    /// no probe budget. Every space is exact without one — the pruning
    /// spaces by admissible bounds, [`BoundSpace::None`] by scanning.
    pub fn is_exact(&self) -> bool {
        self.probe_budget.is_none()
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

    /// Number of pivot cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of second-level landmark rows (0 when the space is not a
    /// metric or the block was disabled at build time).
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.as_ref().map_or(0, LandmarkBlock::k)
    }

    /// Active plugin variant.
    pub fn variant(&self) -> PluginVariant {
        self.store.variant()
    }

    /// Index overhead on top of the store payload: centroid rows,
    /// per-member bookkeeping, and the landmark block (the Table V
    /// memory accounting).
    pub fn index_bytes(&self) -> usize {
        // Pivot distances kept per member, and radii per cell.
        let pivots = match self.space {
            BoundSpace::ConvexMix { .. } => 2,
            _ => 1,
        };
        let per_member = std::mem::size_of::<u32>() + pivots * std::mem::size_of::<f64>();
        let landmark_bytes = self.landmarks.as_ref().map_or(0, |lm| {
            lm.rows.payload_bytes() + lm.dlx.len() * std::mem::size_of::<f64>()
        });
        self.centroids.payload_bytes()
            + self.len() * per_member
            + self.cells.len() * pivots * std::mem::size_of::<f64>()
            + landmark_bytes
    }

    /// Store payload plus index overhead.
    pub fn payload_bytes(&self) -> usize {
        self.store.payload_bytes() + self.index_bytes()
    }

    /// Top-k for query row `qi` of `queries` through the index.
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
        let (top, stats) = self.knn_topk_masked(queries, qi, k, None);
        (results_from_topk(top), stats)
    }

    /// The masked probe core: top-k as a raw [`TopK`] heap (keys are
    /// store row ids), skipping rows flagged in `dead`.
    ///
    /// This is the serving tier's delta-overlay entry point: a compacted
    /// base keeps its index attached while later removals tombstone rows,
    /// and the probe must never let a tombstoned row occupy a heap slot
    /// (filtering after selection would displace live rows). Skipping
    /// rows only ever *raises* the running k-th-best threshold τ, so
    /// every triangle-inequality, landmark and convex-mix bound stays
    /// admissible and masked indexed results remain bit-identical to a
    /// masked flat scan.
    pub(crate) fn knn_topk_masked(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
        dead: Option<&[bool]>,
    ) -> (TopK, ProbeStats) {
        let mut stats = ProbeStats {
            queries: 1,
            cells: self.cells.len(),
            rows: self.store.len(),
            ..ProbeStats::default()
        };
        if k == 0 || self.store.is_empty() {
            return (TopK::new(k), stats);
        }
        if let BoundSpace::ConvexMix { beta } = self.space {
            if bound::mix_certifies_query(queries, qi) {
                let top = self.probe_mix(beta, queries, qi, k, dead, &mut stats);
                return (top, stats);
            }
        }
        let metric = self.space.is_metric();
        if !metric && self.probe_budget.is_none() {
            // A fused store or query that certifies no bound, asked for
            // exact results: walking the cells would evaluate every row
            // anyway, in scattered order — scan in storage order instead.
            let mut top = TopK::new(k);
            kernel::scan_offer_masked(&self.store, queries, qi, dead, 0, &mut top);
            stats.cells_probed = stats.cells;
            stats.rows_scanned = dead.map_or(stats.rows, |d| d.iter().filter(|&&x| !x).count());
            return (top, stats);
        }

        // One O(num_cells · d) centroid scan, then bound-space mapping
        // and cell ordering by triangle lower bound (raw centroid
        // distance when there is no bound and the probe budget decides
        // coverage).
        let dqc = self.centroids.distance_row_from(queries, qi);
        let pq: Vec<f64> = dqc.iter().map(|&d| self.space.map(d)).collect();
        let mut order: Vec<(f64, u32)> = self
            .cells
            .iter()
            .enumerate()
            .map(|(j, cell)| {
                let key = if metric {
                    (pq[j] - cell.radius).max(0.0)
                } else {
                    pq[j]
                };
                (key, j as u32)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // The query's landmark feature row (O(k_l · d), once per query):
        // bound-space distances to each landmark, compared against every
        // member's stored feature row inside the probe loop.
        let pl: Option<Vec<f64>> = self.landmarks.as_ref().map(|lm| {
            lm.rows
                .distance_row_from(queries, qi)
                .iter()
                .map(|&d| self.space.map(d))
                .collect()
        });

        let top = match self.store.variant() {
            PluginVariant::Original => self.probe(
                &kernel::EuclideanKernel::bind(&self.store, queries, qi),
                &pq,
                pl.as_deref(),
                &order,
                k,
                dead,
                &mut stats,
            ),
            PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => self.probe(
                &kernel::LorentzKernel::bind(&self.store, queries, qi),
                &pq,
                pl.as_deref(),
                &order,
                k,
                dead,
                &mut stats,
            ),
            PluginVariant::FusionDist => self.probe(
                &kernel::FusedKernel::bind(&self.store, queries, qi),
                &pq,
                pl.as_deref(),
                &order,
                k,
                dead,
                &mut stats,
            ),
        };
        (top, stats)
    }

    /// Convex-mix serving of a certified fused store and query
    /// ([`bound`] module docs): one centroid scan that yields, per cell,
    /// the fused distance (cells are visited nearest fused centroid
    /// first) and its two components (Euclidean against the centroid's
    /// `eu` row, geodesic `θ` against its `hyper` row), then a cell or
    /// member is skipped only when both component tests certify it out.
    /// Rows flagged in `dead` are skipped before any bound fires, as in
    /// [`IndexedStore::probe`].
    fn probe_mix(
        &self,
        beta: f64,
        queries: &EmbeddingStore,
        qi: usize,
        k: usize,
        dead: Option<&[bool]>,
        stats: &mut ProbeStats,
    ) -> TopK {
        let mix = MixBound::new(beta, self.store.dim());
        let kern = kernel::FusedKernel::bind(&self.store, queries, qi);
        let centroid_kern = kernel::FusedKernel::bind(&self.centroids, queries, qi);
        let mut pq: Vec<(f64, f64)> = Vec::with_capacity(self.cells.len());
        let mut order: Vec<(f64, u32)> = Vec::with_capacity(self.cells.len());
        for j in 0..self.cells.len() {
            let (fused, lo, eu) = centroid_kern.distance_and_components(j);
            pq.push((eu as f64, mix.theta(lo as f64)));
            order.push((fused as f64, j as u32));
        }
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let budget = self.probe_budget.unwrap_or(usize::MAX);
        let mut top = TopK::new(k);
        // τ (bit-tracked so NaN updates are seen) and its padded
        // component images; ∞ while the heap is not yet full.
        let mut tau_bits = f64::INFINITY.to_bits();
        let mut tau = mix.tau(f64::INFINITY);
        for &(_, j) in &order {
            if stats.cells_probed >= budget {
                break;
            }
            let cell = &self.cells[j as usize];
            if cell.members.is_empty() {
                continue;
            }
            let (pq_eu, pq_lo) = pq[j as usize];
            let radius = (cell.radius, cell.radius_lo);
            let mut thresh = mix.thresholds(tau, (pq_eu, pq_lo), radius);
            // Every member's gap is at least `p(q,c) − r` per component.
            if thresh.certify(pq_eu - cell.radius, pq_lo - cell.radius_lo) {
                stats.cells_pruned += 1;
                continue;
            }
            stats.cells_probed += 1;
            for ((&m, &dc_eu), &dc_lo) in cell.members.iter().zip(&cell.dcx).zip(&cell.dcx_lo) {
                if dead.is_some_and(|d| d[m as usize]) {
                    continue;
                }
                if thresh.certify((pq_eu - dc_eu).abs(), (pq_lo - dc_lo).abs()) {
                    stats.rows_pruned += 1;
                    continue;
                }
                top.offer(m as usize, kern.distance_to(m as usize) as f64);
                stats.rows_scanned += 1;
                if top.len() == k {
                    let worst = top.worst().expect("full heap").1;
                    if worst.to_bits() != tau_bits {
                        tau_bits = worst.to_bits();
                        tau = mix.tau(worst);
                        thresh = mix.thresholds(tau, (pq_eu, pq_lo), radius);
                    }
                }
            }
        }
        top
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

    /// The probe loop, monomorphized per kernel. Visits cells in `order`;
    /// for metric spaces skips cells/members whose slack-padded triangle
    /// bound already exceeds the current k-th best (`τ`), re-mapping `τ`
    /// into bound space lazily (only when the heap's worst survivor
    /// changes — Lorentz mapping costs an `acosh`). Member pruning
    /// composes the centroid bound with the second-level landmark bound
    /// (`pl` = the query's feature row) tightest-wins: either certifying
    /// `d(q,x) > τ` skips the kernel evaluation. Rows flagged in `dead`
    /// (serving-tier tombstones) are skipped before any bound fires and
    /// are counted in neither the scanned nor the pruned tallies.
    #[allow(clippy::too_many_arguments)] // internal, monomorphized per kernel
    fn probe<K: DistanceKernel>(
        &self,
        kern: &K,
        pq: &[f64],
        pl: Option<&[f64]>,
        order: &[(f64, u32)],
        k: usize,
        dead: Option<&[bool]>,
        stats: &mut ProbeStats,
    ) -> TopK {
        let dim = self.store.dim();
        let metric = self.space.is_metric();
        let budget = self.probe_budget.unwrap_or(usize::MAX);
        let mut top = TopK::new(k);
        // τ in raw space (bit-tracked so NaN updates are seen) and its
        // bound-space image; ∞ while the heap is not yet full.
        let mut tau_bits = f64::INFINITY.to_bits();
        let mut tau_p = f64::INFINITY;
        for &(lb, j) in order {
            if stats.cells_probed >= budget {
                break;
            }
            let cell = &self.cells[j as usize];
            if cell.members.is_empty() {
                continue;
            }
            if top.len() == k {
                let worst = top.worst().expect("full heap").1;
                if worst.to_bits() != tau_bits {
                    tau_bits = worst.to_bits();
                    tau_p = self.space.map(worst);
                }
            }
            let pqj = pq[j as usize];
            // Cell bound: every member is at least `lb` away; a NaN bound
            // or τ compares false and fails open into a probe.
            if metric && lb > tau_p + self.space.slack(dim, pqj, cell.radius, tau_p) {
                stats.cells_pruned += 1;
                continue;
            }
            stats.cells_probed += 1;
            let mut thresh = if metric {
                tau_p + self.space.slack(dim, pqj, cell.radius, tau_p)
            } else {
                f64::INFINITY
            };
            for (&m, &dc) in cell.members.iter().zip(&cell.dcx) {
                // Tombstoned rows are not part of the live snapshot.
                if dead.is_some_and(|d| d[m as usize]) {
                    continue;
                }
                // Member bound: d(q,x) ≥ |d(q,c) − d(c,x)|.
                if metric && (pqj - dc).abs() > thresh {
                    stats.rows_pruned += 1;
                    continue;
                }
                // Second-level landmark bound, tightest-wins with the
                // centroid bound: d(q,x) ≥ max_j |θ(q,l_j) − θ(l_j,x)|.
                if let (Some(pl), Some(lm)) = (pl, self.landmarks.as_ref()) {
                    if self
                        .space
                        .landmark_prunes(dim, pl, lm.features(m as usize), tau_p)
                    {
                        stats.rows_pruned += 1;
                        stats.rows_pruned_landmark += 1;
                        continue;
                    }
                }
                let d = kern.distance_to(m as usize) as f64;
                stats.rows_scanned += 1;
                top.offer(m as usize, d);
                if top.len() == k {
                    let worst = top.worst().expect("full heap").1;
                    if worst.to_bits() != tau_bits {
                        tau_bits = worst.to_bits();
                        tau_p = self.space.map(worst);
                        if metric {
                            thresh = tau_p + self.space.slack(dim, pqj, cell.radius, tau_p);
                        }
                    }
                }
            }
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::super::store::tests::store_with_rows;
    use super::*;

    fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u32)> {
        hits.iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect()
    }

    fn params(cells: usize) -> IndexParams {
        IndexParams {
            n_cells: Some(cells),
            ..IndexParams::default()
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

    #[test]
    fn exactness_flags() {
        let eu = IndexedStore::build(store_with_rows(PluginVariant::Original), params(2));
        assert!(eu.is_exact());
        assert!(!eu.clone().with_probe_budget(Some(1)).is_exact());
        // A fused store with softplus-positive factors certifies the
        // convex-mix bound: exact without a budget, like a metric one.
        let fu = IndexedStore::build(store_with_rows(PluginVariant::FusionDist), params(2));
        assert_eq!(fu.bound_space(), BoundSpace::ConvexMix { beta: 1.0 });
        assert!(fu.is_exact(), "certified fused index prunes admissibly");
        assert!(!fu.with_probe_budget(Some(1)).is_exact());
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
    /// is honoured on that path too.
    #[test]
    fn uncertified_fused_fails_open_to_the_flat_scan() {
        for bad in [-0.5, f32::NAN] {
            // Uncertified store.
            let (db, q) = fused_clusters(Some(bad));
            let ix = IndexedStore::build(db.clone(), params(2));
            assert_eq!(ix.bound_space(), BoundSpace::None);
            assert!(ix.is_exact(), "no budget: the flat scan is exact");
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

            let mut dead = vec![false; db.len()];
            dead[1] = true;
            let (top, stats) = ix.knn_topk_masked(&q, 0, 4, Some(&dead));
            assert!(top.into_sorted().iter().all(|&(i, _)| i != 1));
            assert_eq!(stats.rows_scanned, db.len() - 1);
        }
    }

    #[test]
    fn empty_store_and_zero_k_serve_empty() {
        let s = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        let ix = IndexedStore::with_default_params(s);
        assert!(ix.is_empty());
        assert_eq!(ix.num_cells(), 0);
        let mut q = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        q.push(&[1.0, 2.0], None, None);
        assert!(ix.knn(&q, 0, 5).is_empty());
        let with_rows = IndexedStore::build(store_with_rows(PluginVariant::Original), params(2));
        assert!(with_rows.knn(&q, 0, 0).is_empty());
    }

    #[test]
    fn fused_budget_caps_probes() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let ix = IndexedStore::build(s.clone(), params(3)).with_probe_budget(Some(1));
        let (_, stats) = ix.knn_batch_with_stats(&s, 2);
        assert!(stats.cells_probed <= s.len(), "≤ 1 probe per query");
        assert!(stats.cells_probed <= stats.queries);
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
        let (bad, _) = fused_clusters(Some(-1.0));
        let uncertified = IndexedStore::build(bad, params(2));
        let per_row = |ix: &IndexedStore, n: usize| {
            (ix.index_bytes() - ix.centroids.payload_bytes() - ix.num_cells() * 8) / n
        };
        assert_eq!(per_row(&uncertified, n + 1), 12);
        assert_eq!(
            certified.index_bytes() - certified.centroids.payload_bytes(),
            n * 20 + 2 * 16
        );
        // The landmark block is part of the accounted overhead.
        let no_lm = IndexedStore::build(
            s,
            IndexParams {
                n_cells: Some(2),
                n_landmarks: 0,
                ..IndexParams::default()
            },
        );
        assert!(ix.index_bytes() > no_lm.index_bytes());
    }

    /// A single cell whose centroid sits midway between two far-apart
    /// clusters: every member has nearly the same centroid distance, so
    /// the Schubert bound `|d(q,c) − d(c,x)|` separates (almost) nothing.
    /// The landmark bound — with farthest-point landmarks landing in both
    /// clusters — certifies the far cluster out, keeping results
    /// bit-identical while scanning fewer rows.
    #[test]
    fn landmark_bound_prunes_where_centroid_bound_cannot() {
        let mut db = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        for i in 0..8 {
            db.push(&[i as f32 * 0.01, 0.0], None, None);
        }
        for i in 0..8 {
            db.push(&[1000.0 + i as f32 * 0.01, 0.0], None, None);
        }
        let mut q = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        q.push(&[0.02, 0.0], None, None);

        let ix = IndexedStore::build(db.clone(), params(1));
        assert_eq!(ix.num_landmarks(), 4);
        let (hits, stats) = ix.knn_batch_with_stats(&q, 4);
        assert_eq!(bits(&hits[0]), bits(&db.knn(&q, 0, 4)));
        assert!(
            stats.rows_pruned_landmark > 0,
            "landmark bound must reject far-cluster members the centroid \
             bound cannot separate: {stats:?}"
        );
        assert!(stats.rows_pruned >= stats.rows_pruned_landmark);

        let no_lm = IndexedStore::build(
            db.clone(),
            IndexParams {
                n_cells: Some(1),
                n_landmarks: 0,
                ..IndexParams::default()
            },
        );
        assert_eq!(no_lm.num_landmarks(), 0);
        let (hits0, stats0) = no_lm.knn_batch_with_stats(&q, 4);
        assert_eq!(bits(&hits0[0]), bits(&hits[0]));
        assert_eq!(stats0.rows_pruned_landmark, 0);
        assert!(
            stats.rows_scanned < stats0.rows_scanned,
            "composed bound must scan fewer rows: {stats:?} vs {stats0:?}"
        );
    }

    /// The fused variant's bound space is not a metric, so no landmark
    /// block is built even when requested — and serving stays correct.
    #[test]
    fn fused_variant_builds_no_landmarks() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let ix = IndexedStore::build(
            s.clone(),
            IndexParams {
                n_cells: Some(2),
                n_landmarks: 8,
                ..IndexParams::default()
            },
        );
        assert_eq!(ix.num_landmarks(), 0);
        for qi in 0..s.len() {
            assert_eq!(bits(&ix.knn(&s, qi, 3)), bits(&s.knn(&s, qi, 3)));
        }
    }
}
