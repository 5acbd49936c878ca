//! Flat embedding storage and the single-query scan surface.
//!
//! [`EmbeddingStore`] owns the three flat `f32` buffers (Euclidean,
//! hyperbolic, fusion factors) for one trajectory collection. Scans are
//! executed by the monomorphized kernels in `retrieval/kernel`:
//! [`EmbeddingStore::knn`] offers every row into one heap through the
//! flat scan loop, and [`EmbeddingStore::knn_batch`] runs it in parallel
//! across queries.

use super::index::ProbeStats;
use super::kernel;
use crate::config::PluginVariant;
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::topk::TopK;

/// Flat embedding storage for one trajectory collection.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingStore {
    pub(crate) dim: usize,
    pub(crate) variant: PluginVariant,
    pub(crate) beta: f32,
    pub(crate) factor_dim: Option<usize>,
    pub(crate) n: usize,
    pub(crate) eu: Vec<f32>,
    pub(crate) hyper: Vec<f32>,
    pub(crate) factors: Vec<f32>,
}

/// One retrieval hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalResult {
    /// Database row index.
    pub index: usize,
    /// Model distance.
    pub distance: f32,
}

impl EmbeddingStore {
    /// Empty store for embeddings of width `dim`.
    pub fn new(dim: usize, variant: PluginVariant, beta: f32, factor_dim: Option<usize>) -> Self {
        EmbeddingStore {
            dim,
            variant,
            beta,
            factor_dim: if variant.uses_fusion() {
                factor_dim
            } else {
                None
            },
            n: 0,
            eu: Vec::new(),
            hyper: Vec::new(),
            factors: Vec::new(),
        }
    }

    /// Appends one trajectory's embeddings. `hyper` must be present iff
    /// the variant is hyperbolic; `factors` iff fusion is active.
    pub fn push(&mut self, eu: &[f32], hyper: Option<&[f32]>, factors: Option<&[f32]>) {
        assert_eq!(eu.len(), self.dim, "euclidean width mismatch");
        self.eu.extend_from_slice(eu);
        if self.variant.uses_hyperbolic() {
            let h = hyper.expect("hyperbolic row required for this variant");
            assert_eq!(h.len(), self.dim + 1, "hyperbolic width mismatch");
            self.hyper.extend_from_slice(h);
        }
        if let Some(f_dim) = self.factor_dim {
            let f = factors.expect("factor row required for fusion variant");
            assert_eq!(f.len(), 2 * f_dim, "factor width mismatch");
            self.factors.extend_from_slice(f);
        }
        self.n += 1;
    }

    /// Appends row `i` of `src`, which must share this store's layout
    /// (variant, width, factor width). The copy is bytewise over the flat
    /// `f32` buffers, so the appended row serves bit-identical distances
    /// — the serving tier's compaction and snapshot materialization
    /// depend on this.
    pub fn push_row_from(&mut self, src: &EmbeddingStore, i: usize) {
        assert_eq!(self.variant, src.variant, "variant mismatch");
        assert_eq!(self.dim, src.dim, "width mismatch");
        assert_eq!(self.factor_dim, src.factor_dim, "factor width mismatch");
        self.eu.extend_from_slice(src.eu_row(i));
        if self.variant.uses_hyperbolic() {
            self.hyper.extend_from_slice(src.hyper_row(i));
        }
        if self.factor_dim.is_some() {
            self.factors.extend_from_slice(src.factor_row(i));
        }
        self.n += 1;
    }

    /// Appends every row of `src`, which must share this store's layout,
    /// bytewise — [`EmbeddingStore::push_row_from`] for each row in one
    /// copy per buffer.
    pub(crate) fn extend_from(&mut self, src: &EmbeddingStore) {
        assert!(self.same_layout(src), "layout mismatch");
        self.eu.extend_from_slice(&src.eu);
        self.hyper.extend_from_slice(&src.hyper);
        self.factors.extend_from_slice(&src.factors);
        self.n += src.n;
    }

    /// Reserves room for exactly `rows` more rows in every buffer the
    /// layout uses — one allocation each when the count is known up
    /// front.
    pub(crate) fn reserve_rows(&mut self, rows: usize) {
        self.eu.reserve_exact(rows * self.dim);
        if self.variant.uses_hyperbolic() {
            self.hyper.reserve_exact(rows * (self.dim + 1));
        }
        if let Some(f_dim) = self.factor_dim {
            self.factors.reserve_exact(rows * 2 * f_dim);
        }
    }

    /// An empty store with this store's exact layout (variant, width,
    /// curvature, factor width) — the template the serving tier grows
    /// delta segments and compacted bases from.
    pub fn empty_like(&self) -> EmbeddingStore {
        EmbeddingStore::new(self.dim, self.variant, self.beta, self.factor_dim)
    }

    /// Whether `other` has this store's layout: variant, width, factor
    /// width and curvature (β compared by bits, so a NaN β matches
    /// itself). Two stores can be scanned against each other, or one serve
    /// as the other's centroid rows, only when this holds.
    pub fn same_layout(&self, other: &EmbeddingStore) -> bool {
        self.variant == other.variant
            && self.dim == other.dim
            && self.factor_dim == other.factor_dim
            && self.beta.to_bits() == other.beta.to_bits()
    }

    /// Panics unless `queries` shares this store's layout. The kernels
    /// slice rows by the database's widths and `zip` them against the
    /// query's, so a mismatched query store would otherwise be ranked on
    /// truncated rows — a wrong answer, not an error. Checked in release
    /// builds too, once per scan.
    pub(crate) fn assert_query_layout(&self, queries: &EmbeddingStore) {
        let layout = |s: &EmbeddingStore| (s.variant.name(), s.dim, s.factor_dim, s.beta);
        assert!(
            self.same_layout(queries),
            "query store layout mismatch (variant, dim, factor_dim, beta): \
             database is {:?}, queries are {:?}",
            layout(self),
            layout(queries)
        );
    }

    /// Number of stored trajectories.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Embedding width `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Active plugin variant.
    pub fn variant(&self) -> PluginVariant {
        self.variant
    }

    /// Curvature parameter β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// Factor embedding width, when fusion is active.
    pub fn factor_dim(&self) -> Option<usize> {
        self.factor_dim
    }

    /// Whether hyperbolic rows are stored.
    pub fn has_hyperbolic(&self) -> bool {
        !self.hyper.is_empty() || (self.variant.uses_hyperbolic() && self.n == 0)
    }

    /// Whether factor rows are stored.
    pub fn has_factors(&self) -> bool {
        !self.factors.is_empty() || (self.factor_dim.is_some() && self.n == 0)
    }

    /// Euclidean embedding row `i`.
    pub fn eu_row(&self, i: usize) -> &[f32] {
        &self.eu[i * self.dim..(i + 1) * self.dim]
    }

    /// Hyperbolic row `i` (panics when absent).
    pub fn hyper_row(&self, i: usize) -> &[f32] {
        let w = self.dim + 1;
        &self.hyper[i * w..(i + 1) * w]
    }

    /// Factor row `i` (panics when absent).
    pub fn factor_row(&self, i: usize) -> &[f32] {
        let w = 2 * self.factor_dim.expect("factors absent");
        &self.factors[i * w..(i + 1) * w]
    }

    /// Total payload bytes (the Table V memory metric).
    pub fn payload_bytes(&self) -> usize {
        (self.eu.len() + self.hyper.len() + self.factors.len()) * std::mem::size_of::<f32>()
    }

    /// Model distance between row `qi` of `queries` and row `di` of
    /// `self`, per the active variant.
    ///
    /// One-off surface: binds a kernel per call. Scans should use
    /// [`EmbeddingStore::knn`] or [`EmbeddingStore::knn_batch`], which
    /// bind once per query. Panics if `queries` does not share this
    /// store's layout.
    pub fn distance_from(&self, queries: &EmbeddingStore, qi: usize, di: usize) -> f32 {
        self.assert_query_layout(queries);
        kernel::distance_one(self, queries, qi, di)
    }

    /// Full distance row from query `qi` to every database row
    /// (monomorphized kernel scan). Panics if `queries` does not share
    /// this store's layout.
    pub fn distance_row_from(&self, queries: &EmbeddingStore, qi: usize) -> Vec<f64> {
        self.assert_query_layout(queries);
        kernel::distance_row(self, queries, qi)
    }

    /// All distance rows from every query to every database row, computed
    /// in parallel across queries. This is the batched evaluation surface
    /// `lh-core::pipeline` ranks with. Panics if `queries` does not share
    /// this store's layout.
    pub fn distance_rows_from(&self, queries: &EmbeddingStore) -> Vec<Vec<f64>> {
        self.assert_query_layout(queries);
        let nq = queries.len();
        parallel_map(nq, default_threads(nq), |qi| {
            kernel::distance_row(self, queries, qi)
        })
    }

    /// Top-k retrieval for query row `qi` of `queries`: the flat scan
    /// loop over every row into one bounded heap — O(n log k),
    /// deterministic under ties and non-finite distances (`total_cmp` +
    /// index tie-break). Panics if `queries` does not share this store's
    /// layout ([`EmbeddingStore::same_layout`]).
    pub fn knn(&self, queries: &EmbeddingStore, qi: usize, k: usize) -> Vec<RetrievalResult> {
        let mut top = TopK::new(k);
        let mut stats = ProbeStats::default();
        kernel::scan_offer_masked(self, queries, qi, None, 0, &mut top, &mut stats);
        results_from_topk(top)
    }

    /// Batched [`EmbeddingStore::knn`]: one result list per query row,
    /// parallel across queries like every other batch path.
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<RetrievalResult>> {
        let nq = queries.len();
        parallel_map(nq, default_threads(nq), |qi| self.knn(queries, qi, k))
    }
}

/// Converts a selector's survivors into the public result type.
pub(crate) fn results_from_topk(top: TopK) -> Vec<RetrievalResult> {
    top.into_sorted()
        .into_iter()
        .map(|(index, distance)| RetrievalResult {
            index,
            distance: distance as f32,
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[allow(clippy::approx_constant)] // the test rows intentionally lie on H(1): x0 = √(‖x‖²+1)
    pub(crate) fn store_with_rows(variant: PluginVariant) -> EmbeddingStore {
        let mut s = EmbeddingStore::new(2, variant, 1.0, Some(2));
        let rows: [([f32; 2], [f32; 3], [f32; 4]); 3] = [
            ([0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ([1.0, 0.0], [1.41421, 1.0, 0.0], [2.0, 1.0, 0.5, 0.5]),
            ([0.0, 3.0], [3.16228, 0.0, 3.0], [0.5, 0.5, 2.0, 2.0]),
        ];
        for (eu, hy, f) in rows {
            let hyper = variant.uses_hyperbolic().then_some(&hy[..]);
            let factors = variant.uses_fusion().then_some(&f[..]);
            s.push(&eu, hyper, factors);
        }
        s
    }

    #[test]
    fn knn_euclidean_orders_correctly() {
        let s = store_with_rows(PluginVariant::Original);
        let hits = s.knn(&s, 0, 2);
        assert_eq!(hits[0].index, 0); // itself at distance 0
        assert_eq!(hits[1].index, 1); // (1,0) closer than (0,3)
        assert!(hits[1].distance > hits[0].distance);
    }

    #[test]
    #[allow(clippy::approx_constant)] // the single row lies on H(1): x0 = √2
    fn knn_edge_cases() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            // k = 0: nothing requested, nothing returned.
            assert!(s.knn(&s, 0, 0).is_empty(), "{}", variant.name());
            // k ≥ n: every row comes back, fully ordered, no padding.
            let all = s.knn(&s, 0, s.len() + 5);
            assert_eq!(all.len(), s.len());
            for w in all.windows(2) {
                assert!(w[0].distance.total_cmp(&w[1].distance).is_le());
            }
            // Empty store: any query gets an empty result.
            let empty = EmbeddingStore::new(2, variant, 1.0, variant.uses_fusion().then_some(2));
            assert!(empty.knn(&s, 0, 3).is_empty());
            assert!(empty.knn(&s, 0, 0).is_empty());
            // Single-row store: the one row is the whole answer.
            let mut single =
                EmbeddingStore::new(2, variant, 1.0, variant.uses_fusion().then_some(2));
            single.push(
                &[1.0, 0.0],
                variant
                    .uses_hyperbolic()
                    .then_some(&[1.41421, 1.0, 0.0][..]),
                variant.uses_fusion().then_some(&[2.0, 1.0, 0.5, 0.5][..]),
            );
            let hits = single.knn(&s, 0, 4);
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].index, 0);
            assert!(single.knn(&s, 0, 0).is_empty());
        }
    }

    /// The batch path is the single-query scan per row — one (possibly
    /// empty) list per query — so the corners `knn_edge_cases` pins (k = 0,
    /// k ≥ n, empty store, single-row store, every variant) hold for it.
    #[test]
    fn knn_batch_is_knn_per_query_at_the_edge_cases() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let mut single = s.empty_like();
            single.push_row_from(&s, 1);
            for db in [s.clone(), s.empty_like(), single] {
                for k in [0, 1, 2, 3, 10] {
                    let want: Vec<_> = (0..s.len()).map(|qi| db.knn(&s, qi, k)).collect();
                    assert_eq!(db.knn_batch(&s, k), want, "{} k={k}", variant.name());
                    assert!(want.iter().all(|hits| hits.len() == k.min(db.len())));
                }
                assert!(db.knn_batch(&s.empty_like(), 5).is_empty(), "no queries");
            }
        }
    }

    #[test]
    fn knn_deterministic_with_nan_rows() {
        let mut s = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        s.push(&[0.0, 0.0], None, None);
        s.push(&[f32::NAN, 0.0], None, None);
        s.push(&[1.0, 0.0], None, None);
        s.push(&[f32::NAN, 2.0], None, None);
        let hits = s.knn(&s, 0, 4);
        let order: Vec<usize> = hits.iter().map(|h| h.index).collect();
        // NaN distances sort after all finite ones, tie-broken by index.
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn layout_is_variant_widths_and_curvature_bits() {
        let s = store_with_rows(PluginVariant::FusionDist);
        assert!(s.same_layout(&s.empty_like()));
        let other = |dim, variant, beta, f| EmbeddingStore::new(dim, variant, beta, f);
        assert!(!s.same_layout(&other(3, PluginVariant::FusionDist, 1.0, Some(2))));
        assert!(!s.same_layout(&other(2, PluginVariant::LorentzCosh, 1.0, None)));
        assert!(!s.same_layout(&other(2, PluginVariant::FusionDist, 2.0, Some(2))));
        assert!(!s.same_layout(&other(2, PluginVariant::FusionDist, 1.0, Some(3))));
        let nan = other(2, PluginVariant::Original, f32::NAN, None);
        assert!(nan.same_layout(&nan.empty_like()), "β is compared by bits");
    }

    #[test]
    #[should_panic(expected = "query store layout mismatch")]
    fn distance_rows_reject_another_curvature() {
        let s = store_with_rows(PluginVariant::LorentzCosh);
        let mut q = EmbeddingStore::new(2, PluginVariant::LorentzCosh, 4.0, None);
        q.push(&[0.0, 0.0], Some(&[2.0, 0.0, 0.0]), None);
        let _ = s.distance_rows_from(&q);
    }

    #[test]
    fn variant_changes_distances() {
        let eu = store_with_rows(PluginVariant::Original);
        let fu = store_with_rows(PluginVariant::FusionDist);
        let d_eu = eu.distance_from(&eu, 0, 2);
        let d_fu = fu.distance_from(&fu, 0, 2);
        assert!((d_eu - 3.0).abs() < 1e-5);
        assert_ne!(d_eu, d_fu);
    }

    #[test]
    fn payload_accounting() {
        let eu = store_with_rows(PluginVariant::Original);
        let lo = store_with_rows(PluginVariant::LorentzCosh);
        let fu = store_with_rows(PluginVariant::FusionDist);
        assert_eq!(eu.payload_bytes(), 3 * 2 * 4);
        assert_eq!(lo.payload_bytes(), 3 * (2 + 3) * 4);
        assert_eq!(fu.payload_bytes(), 3 * (2 + 3 + 4) * 4);
    }

    #[test]
    fn distance_row_matches_pointwise() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let row = s.distance_row_from(&s, 1);
        for (di, &d) in row.iter().enumerate() {
            assert!((d - s.distance_from(&s, 1, di) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn batched_rows_match_single_rows() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let all = s.distance_rows_from(&s);
            assert_eq!(all.len(), s.len());
            for (qi, row) in all.iter().enumerate() {
                assert_eq!(row, &s.distance_row_from(&s, qi), "{}", variant.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "euclidean width mismatch")]
    fn push_validates_width() {
        let mut s = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
        s.push(&[1.0, 2.0], None, None);
    }
}
