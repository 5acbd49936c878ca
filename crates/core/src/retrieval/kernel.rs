//! Monomorphized distance kernels: one per plugin variant.
//!
//! A [`DistanceKernel`] is bound once per (query, database) pair of
//! stores — slicing the query's Euclidean / hyperbolic / factor rows a
//! single time — and then evaluates candidates in a tight loop with no
//! dispatch. The `match` on `PluginVariant` survives exactly once per
//! scan, in the crate-internal `scan_offer_masked` / `distance_row`
//! drivers, where it selects which monomorphized generic instantiation
//! runs.
//!
//! `scan_offer_masked` is the flat half of the retrieval scan core:
//! every top-k over rows that no index covers — a whole
//! [`EmbeddingStore`], a serving delta segment, a base without cells —
//! is this one loop offering live rows into a caller-owned `TopK` under
//! a key offset (the other half is `IndexedStore::scan`).

use super::index::ProbeStats;
use super::store::EmbeddingStore;
use super::tombstones::Mask;
use crate::config::PluginVariant;
use crate::distance::{alpha_f32, alpha_from_dots, euclidean_f32, fused_f32, lorentz_f32};
use traj_core::topk::TopK;

/// A distance function bound to one query row and one database store.
///
/// Implementations are plain structs over `&[f32]` slices so the scan
/// loops monomorphize: `kernel.distance_to(di)` compiles to the raw
/// arithmetic of the active variant with no enum dispatch inside the loop.
pub(crate) trait DistanceKernel {
    /// Number of database rows this kernel can scan.
    fn len(&self) -> usize;

    /// Model distance from the bound query to database row `di`.
    fn distance_to(&self, di: usize) -> f32;

    /// Hints that `distance_to(di)` comes soon: asks the cache for every
    /// line of row `di` that the kernel reads. Changes no result. The
    /// index's probe loop visits scattered rows and hints each one a few
    /// members ahead.
    fn prefetch(&self, di: usize);
}

/// `f32`s per 64-byte cache line.
const LINE: usize = 64 / std::mem::size_of::<f32>();

/// Asks the cache for every line `row` spans: one hint per line-sized
/// step from its first element, and one at its last element, so a row
/// that straddles a line boundary is covered too. A no-op off x86_64.
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_row(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    for x in row.iter().step_by(LINE).chain(row.last()) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint that never faults, and `x` is an
        // in-bounds element of `row`.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const f32).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Euclidean distance over the base embeddings (`original` variant).
pub(crate) struct EuclideanKernel<'a> {
    db: &'a [f32],
    dim: usize,
    n: usize,
    q: &'a [f32],
}

impl<'a> EuclideanKernel<'a> {
    /// Binds query row `qi` of `queries` against `db`'s Euclidean buffer.
    pub(crate) fn bind(db: &'a EmbeddingStore, queries: &'a EmbeddingStore, qi: usize) -> Self {
        EuclideanKernel {
            db: &db.eu,
            dim: db.dim,
            n: db.n,
            q: queries.eu_row(qi),
        }
    }
}

impl DistanceKernel for EuclideanKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn distance_to(&self, di: usize) -> f32 {
        euclidean_f32(self.q, &self.db[di * self.dim..(di + 1) * self.dim])
    }

    #[inline]
    fn prefetch(&self, di: usize) {
        prefetch_row(&self.db[di * self.dim..(di + 1) * self.dim]);
    }
}

/// Lorentz distance over the hyperbolic rows (`lh-vanilla` / `lh-cosh`).
pub(crate) struct LorentzKernel<'a> {
    db: &'a [f32],
    width: usize,
    q: &'a [f32],
    beta: f32,
}

impl<'a> LorentzKernel<'a> {
    /// Binds query row `qi` of `queries` against `db`'s hyperbolic buffer.
    pub(crate) fn bind(db: &'a EmbeddingStore, queries: &'a EmbeddingStore, qi: usize) -> Self {
        LorentzKernel {
            db: &db.hyper,
            width: db.dim + 1,
            q: queries.hyper_row(qi),
            beta: db.beta,
        }
    }
}

impl DistanceKernel for LorentzKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.db.len() / self.width
    }

    #[inline]
    fn distance_to(&self, di: usize) -> f32 {
        lorentz_f32(
            self.q,
            &self.db[di * self.width..(di + 1) * self.width],
            self.beta,
        )
    }

    #[inline]
    fn prefetch(&self, di: usize) {
        prefetch_row(&self.db[di * self.width..(di + 1) * self.width]);
    }
}

/// Fused distance (`fusion-dist`): per-pair α over factor rows blending
/// the Lorentz and Euclidean kernels.
pub(crate) struct FusedKernel<'a> {
    eu: EuclideanKernel<'a>,
    lo: LorentzKernel<'a>,
    db_factors: &'a [f32],
    factor_dim: usize,
    q_lo: &'a [f32],
    q_eu: &'a [f32],
}

impl<'a> FusedKernel<'a> {
    /// Binds query row `qi` of `queries` against all three of `db`'s
    /// buffers.
    pub(crate) fn bind(db: &'a EmbeddingStore, queries: &'a EmbeddingStore, qi: usize) -> Self {
        let f = db.factor_dim.expect("fusion factors present");
        let qf = queries.factor_row(qi);
        FusedKernel {
            eu: EuclideanKernel::bind(db, queries, qi),
            lo: LorentzKernel::bind(db, queries, qi),
            db_factors: &db.factors,
            factor_dim: f,
            q_lo: &qf[..f],
            q_eu: &qf[f..],
        }
    }
}

impl DistanceKernel for FusedKernel<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.eu.len()
    }

    #[inline]
    fn distance_to(&self, di: usize) -> f32 {
        self.distance_and_components(di).0
    }

    #[inline]
    fn prefetch(&self, di: usize) {
        let w = 2 * self.factor_dim;
        self.eu.prefetch(di);
        self.lo.prefetch(di);
        prefetch_row(&self.db_factors[di * w..(di + 1) * w]);
    }
}

impl FusedKernel<'_> {
    /// `(fused, d_Lo, d_Eu)` from the bound query to database row `di`:
    /// the fused distance together with the two component distances it
    /// blends, which the convex-mix index bounds separately.
    #[inline]
    pub(crate) fn distance_and_components(&self, di: usize) -> (f32, f32, f32) {
        let w = 2 * self.factor_dim;
        let df = &self.db_factors[di * w..(di + 1) * w];
        let alpha = alpha_f32(
            self.q_lo,
            &df[..self.factor_dim],
            self.q_eu,
            &df[self.factor_dim..],
        );
        let (lo, eu) = (self.lo.distance_to(di), self.eu.distance_to(di));
        (fused_f32(alpha, lo, eu), lo, eu)
    }
}

/// The flat scan loop, monomorphized per kernel: feeds every unmasked
/// row into an existing heap, offsetting offered keys by `key_offset`,
/// and returns how many rows it evaluated. `dead` holds tombstoned rows
/// that must never reach the heap (filtering *after* selection could let
/// a dead row displace a live one), and the key offset places a segment's
/// rows after the keyspace of the segments before it so tie-breaks match
/// a flat scan of the materialized concatenation. A segment without
/// tombstones takes a loop that tests no bit.
fn offer_rows<K: DistanceKernel>(
    kernel: &K,
    dead: Option<Mask<'_>>,
    key_offset: usize,
    top: &mut TopK,
) -> usize {
    let mut scanned = 0;
    let mut offer = |di: usize| {
        top.offer(key_offset + di, kernel.distance_to(di) as f64);
        scanned += 1;
    };
    let rows = 0..kernel.len();
    match dead {
        None => rows.for_each(&mut offer),
        Some(dead) => rows.filter(|&di| !dead.get(di)).for_each(&mut offer),
    }
    scanned
}

/// Masked, key-offset scan of every row of `db` into `top`, counted into
/// `stats` (`rows`, `rows_scanned`). The variant `match` happens exactly
/// once; the loop underneath is [`offer_rows`]. Panics if `queries` does
/// not share `db`'s layout.
pub(crate) fn scan_offer_masked(
    db: &EmbeddingStore,
    queries: &EmbeddingStore,
    qi: usize,
    dead: Option<Mask<'_>>,
    key_offset: usize,
    top: &mut TopK,
    stats: &mut ProbeStats,
) {
    db.assert_query_layout(queries);
    stats.rows += db.n;
    if top.k() == 0 {
        return;
    }
    stats.rows_scanned += match db.variant {
        PluginVariant::Original => offer_rows(
            &EuclideanKernel::bind(db, queries, qi),
            dead,
            key_offset,
            top,
        ),
        PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
            offer_rows(&LorentzKernel::bind(db, queries, qi), dead, key_offset, top)
        }
        PluginVariant::FusionDist => {
            offer_rows(&FusedKernel::bind(db, queries, qi), dead, key_offset, top)
        }
    };
}

/// Full distance row over one kernel (monomorphized per kernel type).
fn row_scan<K: DistanceKernel>(kernel: &K) -> Vec<f64> {
    (0..kernel.len())
        .map(|di| kernel.distance_to(di) as f64)
        .collect()
}

/// Full distance row of query `qi` against every row of `db` (the
/// public callers check the layout once per call).
pub(crate) fn distance_row(db: &EmbeddingStore, queries: &EmbeddingStore, qi: usize) -> Vec<f64> {
    debug_assert!(db.same_layout(queries));
    match db.variant {
        PluginVariant::Original => row_scan(&EuclideanKernel::bind(db, queries, qi)),
        PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
            row_scan(&LorentzKernel::bind(db, queries, qi))
        }
        PluginVariant::FusionDist => row_scan(&FusedKernel::bind(db, queries, qi)),
    }
}

/// One query-to-row distance (binds a kernel for a single evaluation;
/// scans should bind once instead).
pub(crate) fn distance_one(
    db: &EmbeddingStore,
    queries: &EmbeddingStore,
    qi: usize,
    di: usize,
) -> f32 {
    match db.variant {
        PluginVariant::Original => EuclideanKernel::bind(db, queries, qi).distance_to(di),
        PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
            LorentzKernel::bind(db, queries, qi).distance_to(di)
        }
        PluginVariant::FusionDist => FusedKernel::bind(db, queries, qi).distance_to(di),
    }
}

/// Rows per group of a [`LaneBlock`]: one distance per lane, eight at a
/// time. Fixed-width `[f32; LANES]` loops that the compiler turns into
/// vector instructions on any target, with no intrinsics.
pub(crate) const LANES: usize = 8;

/// One `f32` per lane of a [`LaneBlock`] group.
pub(crate) type Lanes = [f32; LANES];

/// Rows of one store copied column-major, [`LANES`] rows to a group, so
/// that one row's distances to a whole group come out of a single pass
/// over the group's columns — the shape of the index build's scans, which
/// take each row against many (every centroid, or every sample row), and
/// of a query's cell ranking, which takes the query against every
/// centroid (the index keeps a block of its centroids for it). Only the
/// buffers the variant's kernel reads are copied. Lanes past the last row
/// repeat it, so each holds the last row's distance bits under a higher
/// index: a selection that breaks ties toward the lower index never picks
/// one, and a scan needs no mask.
///
/// Every lane runs its scalar kernel's arithmetic in the same order —
/// [`euclidean_f32`], [`lorentz_f32`], [`alpha_f32`] (from the start
/// value of its `.sum()`) and [`fused_f32`] — so each distance is the
/// bits of [`DistanceKernel::distance_to`] with the scanned row as the
/// query and the block's row as the database row, up to the sign and
/// payload of a NaN (which Rust leaves unspecified in either loop).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneBlock {
    variant: PluginVariant,
    beta: f32,
    len: usize,
    /// Row widths of the copied `eu`, `hyper` and `factors` buffers; 0
    /// for a buffer the variant's kernel does not read.
    widths: [usize; 3],
    /// Column `c` of group `g` is entry `g * width + c` of each buffer.
    eu: Vec<Lanes>,
    hyper: Vec<Lanes>,
    factors: Vec<Lanes>,
}

impl LaneBlock {
    /// Copies rows `row(0), …, row(len - 1)` of `store` into lane groups.
    pub(crate) fn gather(store: &EmbeddingStore, len: usize, row: impl Fn(usize) -> usize) -> Self {
        let (variant, dim) = (store.variant, store.dim);
        let (eu_width, hyper_width) = match variant {
            PluginVariant::Original => (dim, 0),
            PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => (0, dim + 1),
            PluginVariant::FusionDist => (dim, dim + 1),
        };
        let widths = [eu_width, hyper_width, 2 * store.factor_dim.unwrap_or(0)];
        let groups = len.div_ceil(LANES);
        let [mut eu, mut hyper, mut factors] = widths.map(|w| vec![[0.0f32; LANES]; groups * w]);
        for i in 0..groups * LANES {
            let (g, l, r) = (i / LANES, i % LANES, row(i.min(len - 1)));
            for (cols, w, src) in [
                (&mut eu, widths[0], &store.eu),
                (&mut hyper, widths[1], &store.hyper),
                (&mut factors, widths[2], &store.factors),
            ] {
                for (c, &v) in src[r * w..(r + 1) * w].iter().enumerate() {
                    cols[g * w + c][l] = v;
                }
            }
        }
        LaneBlock {
            variant,
            beta: store.beta,
            len,
            widths,
            eu,
            hyper,
            factors,
        }
    }

    /// Calls `visit(g, d)` for every group `g` in ascending order, where
    /// `d[l]` is the distance from row `qi` of `queries` to row
    /// `g * LANES + l` of the block (to the last row, past it). `visit`
    /// has this one call site, so it is inlined into the loop; the
    /// variant `match` inside the loop is invariant and predicted.
    /// `queries` must share the gathered store's layout.
    pub(crate) fn scan(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        mut visit: impl FnMut(usize, &Lanes),
    ) {
        let q = self.query(queries, qi);
        for g in 0..self.groups() {
            let d = match self.variant {
                PluginVariant::Original => euclidean_lanes(q.eu, self.group(&self.eu, 0, g)),
                PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
                    lorentz_lanes(q.hyper, self.group(&self.hyper, 1, g), self.beta)
                }
                PluginVariant::FusionDist => self.fused_group(&q, g)[0],
            };
            visit(g, &d);
        }
    }

    /// [`LaneBlock::scan`] of a `fusion-dist` block that hands `visit`
    /// each group's `[fused, d_Lo, d_Eu]`: the fused distance and the two
    /// component distances it blends, the bits of
    /// `FusedKernel::distance_and_components` lane by lane.
    pub(crate) fn scan_fused(
        &self,
        queries: &EmbeddingStore,
        qi: usize,
        mut visit: impl FnMut(usize, &[Lanes; 3]),
    ) {
        debug_assert_eq!(self.variant, PluginVariant::FusionDist);
        let q = self.query(queries, qi);
        for g in 0..self.groups() {
            visit(g, &self.fused_group(&q, g));
        }
    }

    /// Number of lane groups.
    fn groups(&self) -> usize {
        self.len.div_ceil(LANES)
    }

    /// Group `g`'s columns of `cols`, the copied buffer `widths[buf]`
    /// describes.
    #[inline(always)]
    fn group<'a>(&self, cols: &'a [Lanes], buf: usize, g: usize) -> &'a [Lanes] {
        let w = self.widths[buf];
        &cols[g * w..(g + 1) * w]
    }

    /// Row `qi` of `queries`, sliced to the buffers the block copied.
    /// `queries` must share the gathered store's layout.
    fn query<'a>(&self, queries: &'a EmbeddingStore, qi: usize) -> QueryRow<'a> {
        debug_assert_eq!(
            (queries.variant, queries.beta.to_bits()),
            (self.variant, self.beta.to_bits())
        );
        let [ew, hw, fw] = self.widths;
        QueryRow {
            eu: &queries.eu[qi * ew..(qi + 1) * ew],
            hyper: &queries.hyper[qi * hw..(qi + 1) * hw],
            factors: &queries.factors[qi * fw..(qi + 1) * fw],
        }
    }

    /// The one fused lane routine: `[fused, d_Lo, d_Eu]` from `q` to every
    /// lane of group `g`, each lane in [`FusedKernel`]'s order —
    /// [`alpha_f32`]'s two dot products, [`lorentz_f32`],
    /// [`euclidean_f32`], then [`fused_f32`].
    #[inline(always)]
    fn fused_group(&self, q: &QueryRow<'_>, g: usize) -> [Lanes; 3] {
        let (f, factors) = (self.widths[2] / 2, self.group(&self.factors, 2, g));
        let lo_dot = dot_lanes(&q.factors[..f], &factors[..f]);
        let eu_dot = dot_lanes(&q.factors[f..], &factors[f..]);
        let lo = lorentz_lanes(q.hyper, self.group(&self.hyper, 1, g), self.beta);
        let eu = euclidean_lanes(q.eu, self.group(&self.eu, 0, g));
        let mut fused = [0.0f32; LANES];
        for l in 0..LANES {
            fused[l] = fused_f32(alpha_from_dots(lo_dot[l], eu_dot[l]), lo[l], eu[l]);
        }
        [fused, lo, eu]
    }
}

/// One query row's slices of the buffers a [`LaneBlock`] copied.
struct QueryRow<'a> {
    eu: &'a [f32],
    hyper: &'a [f32],
    factors: &'a [f32],
}

/// [`euclidean_f32`] from `q` to every lane of `cols`.
#[inline(always)]
fn euclidean_lanes(q: &[f32], cols: &[Lanes]) -> Lanes {
    let mut s = [0.0f32; LANES];
    for (&x, col) in q.iter().zip(cols) {
        for l in 0..LANES {
            let d = x - col[l];
            s[l] += d * d;
        }
    }
    s.map(f32::sqrt)
}

/// [`lorentz_f32`] from `q` to every lane of `cols`.
#[inline(always)]
fn lorentz_lanes(q: &[f32], cols: &[Lanes], beta: f32) -> Lanes {
    let mut inner = cols[0].map(|y| -q[0] * y);
    for (&x, col) in q[1..].iter().zip(&cols[1..]) {
        for l in 0..LANES {
            inner[l] += x * col[l];
        }
    }
    inner.map(|v| v.abs() - beta)
}

/// One of [`alpha_f32`]'s dot products from `q` to every lane of `cols`,
/// accumulated from the value an `f32` `.sum()` starts at.
#[inline(always)]
fn dot_lanes(q: &[f32], cols: &[Lanes]) -> Lanes {
    let start: f32 = std::iter::empty::<f32>().sum();
    let mut s = [start; LANES];
    for (&x, col) in q.iter().zip(cols) {
        for l in 0..LANES {
            s[l] += x * col[l];
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::super::store::tests::store_with_rows;
    use super::super::tombstones::Tombstones;
    use super::*;

    /// The kernels must reproduce the reference formulas exactly —
    /// bit-for-bit, since retrieval determinism rests on it.
    #[test]
    fn kernels_match_reference_formulas() {
        let s = store_with_rows(PluginVariant::FusionDist);
        for qi in 0..s.len() {
            let eu = EuclideanKernel::bind(&s, &s, qi);
            let lo = LorentzKernel::bind(&s, &s, qi);
            let fu = FusedKernel::bind(&s, &s, qi);
            assert_eq!(eu.len(), s.len());
            assert_eq!(lo.len(), s.len());
            assert_eq!(fu.len(), s.len());
            for di in 0..s.len() {
                assert_eq!(
                    eu.distance_to(di),
                    euclidean_f32(s.eu_row(qi), s.eu_row(di))
                );
                assert_eq!(
                    lo.distance_to(di),
                    lorentz_f32(s.hyper_row(qi), s.hyper_row(di), 1.0)
                );
                let f = s.factor_dim().unwrap();
                let qf = s.factor_row(qi);
                let df = s.factor_row(di);
                let alpha = alpha_f32(&qf[..f], &df[..f], &qf[f..], &df[f..]);
                let expect = fused_f32(alpha, lo.distance_to(di), eu.distance_to(di));
                assert_eq!(fu.distance_to(di), expect);
            }
        }
    }

    /// A distance's bits, every NaN as one value (`None`).
    fn bits_or_nan(d: f32) -> Option<u32> {
        (!d.is_nan()).then(|| d.to_bits())
    }

    /// A store of `n` rows of width `dim`. About one row in four draws a
    /// third of its values, factors included, from the special ones — NaN,
    /// `±∞` and `±0`; the rest are ordinary numbers.
    fn special_store(
        variant: PluginVariant,
        n: usize,
        dim: usize,
        beta: f32,
        rng: &mut rand::rngs::StdRng,
    ) -> EmbeddingStore {
        use rand::Rng;
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let fd = 1 + dim % 3;
        let mut s = EmbeddingStore::new(dim, variant, beta, Some(fd));
        for _ in 0..n {
            let special = rng.gen_range(0..4) == 0;
            let mut value = |_| {
                if special && rng.gen_range(0..3) == 0 {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                } else {
                    rng.gen_range(-3.0f32..3.0)
                }
            };
            let eu: Vec<f32> = (0..dim).map(&mut value).collect();
            let hyper: Vec<f32> = (0..=dim).map(&mut value).collect();
            let factors: Vec<f32> = (0..2 * fd).map(&mut value).collect();
            s.push(&eu, Some(&hyper), Some(&factors));
        }
        s
    }

    /// Every lane of a [`LaneBlock`] scan is the bits of
    /// `DistanceKernel::distance_to` for the same (query, row) pair: all
    /// three kernels, widths 1–20, row counts on and off a multiple of
    /// [`LANES`], rows gathered in any order and more than once, special
    /// values in every buffer, and `β ≠ 1`. A NaN only has to meet a NaN:
    /// Rust leaves the sign and payload of a NaN result unspecified, and
    /// when two NaNs meet in an add, which one survives depends on the
    /// operand order the compiler picked for that loop — the scalar
    /// kernel's own NaN bits differ between debug and release builds. The
    /// fused block's `scan_fused` components are checked the same way,
    /// against `FusedKernel::distance_and_components`.
    #[test]
    fn lane_scan_matches_scalar_kernel_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a7e);
        for variant in PluginVariant::ABLATION {
            for dim in 1..=20 {
                for n in [1, 7, 8, 9, 20] {
                    let beta = [1.0, 0.5, 2.5][dim % 3];
                    let db = special_store(variant, n, dim, beta, &mut rng);
                    let queries = special_store(variant, 3, dim, beta, &mut rng);
                    let rows: Vec<usize> = (0..n + n / 2)
                        .map(|i| {
                            if i < n {
                                n - 1 - i
                            } else {
                                rng.gen_range(0..n)
                            }
                        })
                        .collect();
                    let block = LaneBlock::gather(&db, rows.len(), |i| rows[i]);
                    for qi in 0..queries.len() {
                        let scalar: Vec<Option<u32>> = rows
                            .iter()
                            .map(|&r| match variant {
                                PluginVariant::Original => {
                                    EuclideanKernel::bind(&db, &queries, qi).distance_to(r)
                                }
                                PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
                                    LorentzKernel::bind(&db, &queries, qi).distance_to(r)
                                }
                                PluginVariant::FusionDist => {
                                    FusedKernel::bind(&db, &queries, qi).distance_to(r)
                                }
                            })
                            .map(bits_or_nan)
                            .collect();
                        let mut lanes = Vec::new();
                        let mut next = 0;
                        block.scan(&queries, qi, |g, d| {
                            assert_eq!(g, next, "groups visited in order");
                            next += 1;
                            lanes.extend(d.iter().copied().map(bits_or_nan));
                        });
                        assert_eq!(lanes.len(), rows.len().div_ceil(LANES) * LANES);
                        assert_eq!(
                            lanes[..rows.len()],
                            scalar[..],
                            "{} dim={dim} n={n} qi={qi}",
                            variant.name()
                        );
                        // Padding lanes repeat the last row.
                        let last = scalar[rows.len() - 1];
                        assert!(lanes[rows.len()..].iter().all(|&d| d == last));
                        if variant != PluginVariant::FusionDist {
                            continue;
                        }
                        // The fused scan's components are the scalar
                        // kernel's, and its first lane array is `scan`'s.
                        let kern = FusedKernel::bind(&db, &queries, qi);
                        let scalar: Vec<[Option<u32>; 3]> = (rows.iter())
                            .map(|&r| {
                                let (fused, lo, eu) = kern.distance_and_components(r);
                                [fused, lo, eu].map(bits_or_nan)
                            })
                            .collect();
                        let mut parts = Vec::new();
                        block.scan_fused(&queries, qi, |_, [fused, lo, eu]| {
                            parts.extend(
                                (0..LANES).map(|l| [fused[l], lo[l], eu[l]].map(bits_or_nan)),
                            );
                        });
                        assert_eq!(parts[..rows.len()], scalar[..], "dim={dim} n={n} qi={qi}");
                        assert!(parts.iter().zip(&lanes).all(|(p, &d)| p[0] == d));
                    }
                }
            }
        }
    }

    /// A lane dot product is `alpha_f32`'s `.sum()` bit for bit, down to
    /// the sign of a zero: the sum of `-0.0` products is `-0.0` only
    /// from the start value `.sum()` uses.
    #[test]
    fn lane_dot_starts_where_sum_starts() {
        for (x, y) in [(-0.0f32, 1.0f32), (0.0, -2.0), (0.0, 3.0), (1.5, -0.25)] {
            let q = [x, x];
            let cols = [[y; LANES]; 2];
            let want: f32 = q.iter().map(|v| v * y).sum();
            assert!(dot_lanes(&q, &cols)
                .iter()
                .all(|d| d.to_bits() == want.to_bits()));
        }
    }

    /// `scan_offer_masked` into a fresh heap, with its accounting.
    fn scan(
        db: &EmbeddingStore,
        q: &EmbeddingStore,
        k: usize,
        dead: Option<Mask<'_>>,
        key_offset: usize,
    ) -> (Vec<(usize, f64)>, ProbeStats) {
        let (mut top, mut stats) = (TopK::new(k), ProbeStats::default());
        scan_offer_masked(db, q, 0, dead, key_offset, &mut top, &mut stats);
        (top.into_sorted(), stats)
    }

    #[test]
    fn scan_orders_all_variants_and_counts_rows() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let (hits, stats) = scan(&s, &s, s.len(), None, 0);
            assert_eq!(hits.len(), s.len(), "{}", variant.name());
            assert_eq!((stats.rows, stats.rows_scanned), (s.len(), s.len()));
            for w in hits.windows(2) {
                assert!(
                    w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                    "{} not ascending",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn distance_row_matches_distance_one() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let row = distance_row(&s, &s, 2);
            for (di, &d) in row.iter().enumerate() {
                assert_eq!(d as f32, distance_one(&s, &s, 2, di), "{}", variant.name());
            }
        }
    }

    #[test]
    fn empty_store_scans_to_nothing() {
        let s = EmbeddingStore::new(4, PluginVariant::Original, 1.0, None);
        let mut q = EmbeddingStore::new(4, PluginVariant::Original, 1.0, None);
        q.push(&[0.0; 4], None, None);
        assert!(scan(&s, &q, 5, None, 0).0.is_empty());
        assert!(distance_row(&s, &q, 0).is_empty());
    }

    /// Masked rows are neither offered nor counted, offered keys carry
    /// the offset, and `k = 0` evaluates nothing.
    #[test]
    fn scan_honours_mask_key_offset_and_zero_k() {
        let s = store_with_rows(PluginVariant::Original);
        let mut dead = Tombstones::default();
        dead.insert(0);
        let (hits, stats) = scan(&s, &s, 3, dead.mask(), 10);
        let keys: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(keys, vec![11, 12], "row 0 is dead; (1,0) beats (0,3)");
        assert_eq!((stats.rows, stats.rows_scanned), (3, 2));
        let (hits, stats) = scan(&s, &s, 0, None, 0);
        assert!(hits.is_empty());
        assert_eq!((stats.rows, stats.rows_scanned), (3, 0));
    }
}
