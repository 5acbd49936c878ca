//! Pruning spaces: which plugin distances admit exact pivot bounds, and
//! in what form.
//!
//! The index prunes a candidate `x` when a lower bound on `d(q,x)` built
//! from centroid distances already exceeds the current k-th best. For a
//! *metric* that bound is the triangle inequality; for the fused distance
//! — which exists to escape the triangle inequality — it is derived in
//! the measure's own form instead (the move of Schubert's cosine triangle
//! inequality, arXiv:2107.04071):
//!
//! * **Euclidean** (`original`): the raw kernel distance is a metric.
//!   Bounds are computed directly on raw values.
//! * **Lorentz** (`lh-vanilla` / `lh-cosh`): the raw kernel distance
//!   `|⟨a,b⟩_L| − β` is *not* a metric — it equals `β(cosh(ρ/√β) − 1)`
//!   for hyperboloid points at geodesic distance `ρ`, a convex function
//!   of `ρ`, and convex increasing transforms break the triangle
//!   inequality. But `θ = arccosh(1 + raw/β) = ρ/√β` *is* a metric (the
//!   scaled geodesic), and the map raw → θ is strictly monotone, so
//!   top-k order is unchanged and all bound arithmetic can happen in
//!   θ-space. This assumes rows lie on the hyperboloid `H(β)`, which the
//!   projection guarantees for every store the models emit.
//! * **Fused** (`fusion-dist`): `d = α·d_Lo + (1−α)·d_Eu` with a per-pair
//!   ratio `α` is not a metric and has no monotone repair (Table I of the
//!   paper measures exactly these violations). But the factors are
//!   softplus outputs, so `α ∈ [0, 1]`, the blend is *convex*, and
//!   `d(q,x) ≥ min(d_Lo(q,x), d_Eu(q,x))` — and each component has an
//!   admissible pivot bound in one of the two spaces above. That is
//!   [`BoundSpace::ConvexMix`]; see the next section for the proof on
//!   computed values and for what is checked at run time.
//!   [`BoundSpace::None`] remains for a fused store whose contents do not
//!   certify `α ∈ [0, 1]`: no bound, served by a flat scan.
//!
//! # Admissibility of the convex-mix bound on computed `f32` values
//!
//! Write `ε = f32::EPSILON`, `u = ε/2` (one rounding), `l = d̃_Lo(q,x)`,
//! `e = d̃_Eu(q,x)` for the *computed* component distances
//! (`lorentz_f32`, `euclidean_f32`), `α̃` for the computed `alpha_f32` and
//! `d̃ = fl(fl(α̃·l) + fl(γ·e))`, `γ = fl(1 − α̃)`, for the computed
//! `fused_f32` — the value the flat scan ranks.
//!
//! **What is checked** ([`BoundSpace::for_store`] on every build and
//! decode — never read from a payload — and `mix_certifies_query` on
//! every call):
//! (C1) every stored and query factor lies in `[0, mix_factor_cap(f)]`;
//! (C2) every *finite* stored coordinate, and every query coordinate, has
//! magnitude at most [`mix_coord_cap`]`(dim)`; and β is finite and
//! positive, so `θ`'s map exists. (That rows lie on `H(β)` is assumed, as
//! in the Lorentz space above.)
//!
//! **α̃ ∈ [0, 1].** By (C1) every factor product is a finite non-negative
//! number at most `MAX/4f`, so the two dot products `lo`, `eu` are
//! finite and `≥ 0`, and `s = fl(lo + eu)` is finite. Rounding is
//! monotone, hence `s ≥ lo`, the divisor `max(s, MIN_POSITIVE)` is a
//! positive finite number `≥ lo`, the real quotient lies in `[0, 1]`, and
//! so does its rounding. Then `γ ∈ [0, 1]` too, and
//! `γ = (1 − α̃)(1 + δ)` with `|δ| ≤ u` gives `α̃ + γ ∈ [1 − u, 1 + u]`:
//! the rounded weights are a convex combination up to one rounding.
//!
//! **Convexity of the rounded blend.** Suppose `l` and `e` are finite and
//! let `m = min(l, e)`; `η = 2⁻¹⁵⁰` bounds the absolute error of a
//! product that underflows (sums of `f32` values never underflow).
//! If `m ≥ 0`: `fl(α̃·l) ≥ α̃·m(1 − u) − η` and `fl(γ·e) ≥ γ·m(1 − u) − η`,
//! both `≥ 0`, so `d̃ ≥ (α̃ + γ)·m(1 − u)² − 2η ≥ m(1 − u)³ − 2η`.
//! If `m < 0` then `m = l` (`e` is a square root), `fl(γ·e) ≥ 0` and
//! `fl(α̃·l) ≥ l(1 + u) − η` because `α̃ ≤ 1`, so `d̃ ≥ l(1 + u)² − 2η`.
//! Either way `d̃ ≥ m − 3u·|m| − 2η`: the inequality
//! `d ≥ min(d_Lo, d_Eu)` survives rounding up to three roundings.
//!
//! **The padding `τ′`.** With `τ` the k-th best computed fused distance,
//! `mix_tau` is `τ′ = τ + 4ε·|τ| + MIN_POSITIVE`. The constant is the
//! three roundings above (`3u = 1.5ε`) rounded up to `4ε` with room for
//! the `f64` arithmetic that evaluates `τ′` itself, and `MIN_POSITIVE =
//! 2⁻¹²⁶` covers `2η`. If `m > τ′` then, in both sign cases,
//! `d̃ > τ` *strictly* — so the flat scan would not have ranked `x` ahead
//! of the current k-th best, ties included.
//!
//! **Why both components must certify.** The bound is on `min(l, e)`:
//! the blend can sit arbitrarily close to either component (`α̃ = 0` or
//! `1` are reachable — a softplus output underflows to `0`), so `x` is
//! skipped only if the Euclidean test certifies `e > τ′` *and* the
//! geodesic test certifies `l > τ′`. Each is the existing single-space
//! test — `|p(q,c) − p(c,x)| > p(τ′) + slack` with that space's own `map`
//! and [`BoundSpace::slack`] — against the centroid's `eu` / `hyper` row;
//! `θ`'s map is monotone, so `θ̃(q,x) > map(τ′)` gives `l > τ′`, and a
//! negative `τ′` maps to `0`, where certifying `θ̃ > 0` is still enough.
//!
//! **Why non-finite stored distances fail open.** The convexity step
//! needs `l` and `e` finite: `0·∞` inside the blend is a NaN (on x86 the
//! *negative* default NaN, which `total_cmp` ranks first), so a row with
//! an overflowed or NaN component can be the flat scan's best hit while
//! both triangle gaps read "far". A non-finite coordinate of `x` makes
//! the stored distance of that component non-finite (a difference or
//! product with it is `±∞` or NaN, and no later term of the sum makes it
//! finite again), so the mix tests certify only on *finite* gaps and a
//! cell is skipped only if both its radii are finite
//! (`mix_radius` is NaN as soon as one member's distance is not).
//! For a row that passes, all coordinates are finite, (C2) bounds them
//! and the query's, every square is at most `4·cap²` and every product at
//! most `cap²`, and a sum of `dim + 1` of them stays below `MAX/2`: `l`
//! and `e` are finite, as the convexity step assumed.
//!
//! A store or query that fails (C1)/(C2) is not approximated: it is
//! served by the storage-order flat scan, bit-identical and unpruned.
//!
//! # One probe loop, two prune predicates
//!
//! The index has a single probe loop (`IndexedStore::scan`), generic over
//! the crate-internal `PruneBound` trait: how the k-th best `τ` is carried
//! into bound space, which slack-padded thresholds a cell's rows are
//! tested against, and the cell and member tests themselves. Its two
//! implementations are the whole difference between the spaces —
//! `Triangle` (one test, on raw Euclidean values or in θ-space) and
//! `MixBound` (both component tests must certify). Every test is a
//! *strict* comparison against a padded `τ`, so the loop may start from a
//! heap that earlier segments already filled: a `τ` that is still at
//! least the final k-th best certifies only rows the flat scan would not
//! have returned, ties included.
//!
//! # Visiting only the cells that can probe
//!
//! The loop ranks every cell by a key — `Triangle`'s is its cell test's
//! left side `max(0, p(q,c) − r)`, `MixBound`'s the fused centroid
//! distance — and visits cells in ascending `(key, id)` order (`total_cmp`,
//! ties by id), testing each under the `τ` of its turn. It does not walk
//! every cell to do so. While the heap is filling `τ` is `∞` and no test
//! certifies anything, so the first cell is a linear minimum. Once the
//! heap is full, every cell its own `skips_cell` certifies out under the
//! current `τ` is dropped unvisited; only the survivors are sorted and
//! walked. That visits the cells a walk over all of them would, in the
//! same order, with the same counts, because of two facts:
//!
//! * a skipped cell offers nothing, so it never changes `τ`;
//! * `τ` only falls (the heap's worst survivor only improves), and a
//!   falling `τ` lowers every threshold — each step of `thresholds` is a
//!   sum or product of terms that grow with `τ`, rounding is monotone, and
//!   so is `θ`'s map — so a cell certified out when it was dropped is
//!   certified out at its turn too.
//!
//! The second fact fails in two places, which
//! `PruneBound::holds_certificates` names. A NaN image of `τ` certifies
//! nothing: the heap's worst can fall from a finite value to a negative
//! NaN, which `total_cmp` orders below `−∞` (a `0·∞` or `∞ − ∞` inside a
//! kernel yields one), and in the mix space `τ = −∞` pads to
//! `−∞ + ∞ = NaN`. And a negative `τ′` enters the mix space's Euclidean
//! slack through its magnitude, so the threshold there need not fall with
//! `τ` under rounding. A `τ` in either place at filter time drops
//! nothing; one reached later puts the cells dropped ahead of the walk's
//! position back into the order, and the rest of the walk tests every
//! cell. The cost is one sort of the survivors — every cell at worst,
//! O(C log C) per query for C cells, never a selection per probed cell.
//!
//! # Exactness under floating point (single-space tests)
//!
//! Kernel distances are f32 with bounded rounding error, so every prune
//! decision pads its threshold with [`BoundSpace::slack`] — a
//! conservative bound on the accumulated error of the three distances
//! entering one triangle-inequality application. A slack-padded prune
//! can only *keep* a candidate the infinite-precision bound would have
//! dropped, never drop one the flat scan would return, so indexed results
//! stay bit-identical to the flat scan while the lost prune rate is a few
//! ulps' worth.

use super::super::kernel::{LaneBlock, LANES};
use super::super::store::EmbeddingStore;
use super::IndexCell;
use crate::config::PluginVariant;

/// The space in which pivot bounds are evaluated for one store, or
/// [`BoundSpace::None`] when its distance admits no exact bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundSpace {
    /// Raw kernel distance is itself a metric.
    Euclidean,
    /// Bounds evaluated on `θ = arccosh(1 + raw/β)`, the scaled geodesic.
    LorentzGeodesic {
        /// Curvature parameter of `H(β)`.
        beta: f64,
    },
    /// Certified fused store: `d ≥ min(d_Lo, d_Eu)`, each component
    /// bounded in its own space ([`BoundSpace::LorentzGeodesic`] with this
    /// `beta`, [`BoundSpace::Euclidean`]); a row is skipped only when both
    /// certify it out. See the module docs.
    ConvexMix {
        /// Curvature parameter of the Lorentz component's `H(β)`.
        beta: f64,
    },
    /// Fused store whose contents do not certify `α ∈ [0, 1]`: no
    /// admissible bound, no cells — served by the flat scan.
    None,
}

/// Largest factor value a [`BoundSpace::ConvexMix`] store or query may
/// hold: `f` products of two such values, and the sum of two such dot
/// products, stay below `f32::MAX` with a factor 2 to spare for rounding.
pub fn mix_factor_cap(factor_dim: usize) -> f32 {
    (f32::MAX as f64 / (4.0 * factor_dim.max(1) as f64)).sqrt() as f32
}

/// Largest coordinate magnitude the convex-mix proof covers: `dim + 1`
/// squared differences (or products) of such values sum to less than
/// `f32::MAX / 2`, so neither component kernel can overflow.
pub fn mix_coord_cap(dim: usize) -> f32 {
    (f32::MAX as f64 / (8.0 * (dim + 1) as f64)).sqrt() as f32
}

/// Checks (C1)/(C2) of the module docs on a whole fused store. A NaN or
/// `±∞` *coordinate* is tolerated — that row's stored pivot distances
/// are non-finite and fail open one by one — a bad factor is not.
fn mix_certifies_store(store: &EmbeddingStore) -> bool {
    let Some(f) = store.factor_dim else {
        return false;
    };
    let (factor_cap, coord_cap) = (mix_factor_cap(f), mix_coord_cap(store.dim));
    let mut coords = store.eu.iter().chain(&store.hyper);
    store.beta.is_finite()
        && store.beta > 0.0
        && store.factors.iter().all(|v| (0.0..=factor_cap).contains(v))
        && coords.all(|v| !v.is_finite() || v.abs() <= coord_cap)
}

/// Checks (C1)/(C2) on query row `qi`: factors in `[0, cap]`, every
/// coordinate finite and within the cap. Runs on every call against a
/// [`BoundSpace::ConvexMix`] index; a query that fails is served by the
/// flat scan.
pub(crate) fn mix_certifies_query(queries: &EmbeddingStore, qi: usize) -> bool {
    let Some(f) = queries.factor_dim else {
        return false;
    };
    let (factor_cap, coord_cap) = (mix_factor_cap(f), mix_coord_cap(queries.dim));
    let mut coords = queries.eu_row(qi).iter().chain(queries.hyper_row(qi));
    queries
        .factor_row(qi)
        .iter()
        .all(|v| (0.0..=factor_cap).contains(v))
        && coords.all(|v| v.abs() <= coord_cap)
}

/// `τ′`: the k-th best fused distance padded for the roundings of the
/// `f32` blend (module docs, "The padding `τ′`"). NaN and `+∞` pass
/// through, so an unfilled or poisoned heap prunes nothing.
#[inline]
pub(crate) fn mix_tau(tau: f64) -> f64 {
    tau + 4.0 * f32::EPSILON as f64 * tau.abs() + f32::MIN_POSITIVE as f64
}

/// Radius of a mix-space cell in one component: the largest member
/// distance, or NaN as soon as one is not finite — such a member can
/// rank anywhere (module docs), so its cell must never be skipped whole.
pub(crate) fn mix_radius(dcx: &[f64]) -> f64 {
    if dcx.iter().all(|d| d.is_finite()) {
        dcx.iter().copied().fold(0.0, f64::max)
    } else {
        f64::NAN
    }
}

/// What the index's one probe loop asks of a bound space (module docs,
/// "One probe loop, two prune predicates"). `Dist` is a distance in the
/// bound space — one value per single-space test — and is the type of
/// everything the tests compare: the image of `τ`, a query→centroid
/// distance, the slack-padded thresholds of a cell.
pub(crate) trait PruneBound {
    /// A bound-space distance: `f64`, or `(Euclidean, geodesic)`.
    type Dist: Copy;

    /// Bound-space image of the k-th best raw distance `tau` (`+∞` while
    /// the heap is filling — nothing exceeds it). The probe loop calls
    /// this only when the heap's worst survivor changes: the Lorentz map
    /// costs an `acosh`.
    fn tau(&self, tau: f64) -> Self::Dist;

    /// The thresholds `cell`'s rows are tested against, for the query at
    /// centroid distance `pq`. A NaN anywhere makes that threshold NaN,
    /// which prunes nothing.
    fn thresholds(&self, tau: Self::Dist, pq: Self::Dist, cell: &IndexCell) -> Self::Dist;

    /// Whether every member of `cell` is certified out: each is at least
    /// `p(q,c) − r` away.
    fn skips_cell(thresh: Self::Dist, pq: Self::Dist, cell: &IndexCell) -> bool;

    /// Whether member `i` of `cell` is certified out:
    /// `d(q,x) ≥ |p(q,c) − p(c,x)|`.
    fn skips_member(thresh: Self::Dist, pq: Self::Dist, cell: &IndexCell, i: usize) -> bool;

    /// Whether a cell certified out under a larger `τ` is still certified
    /// out under `tau` (module docs, "Visiting only the cells that can
    /// probe"): false for an image that certifies nothing (NaN) and
    /// wherever the thresholds need not fall with `τ`.
    fn holds_certificates(tau: Self::Dist) -> bool;

    /// One O(num_cells · d) lane scan of the centroids for query `qi`:
    /// the bits of the one-centroid-at-a-time scalar ranking, up to the
    /// sign and payload of a NaN ([`LaneBlock`]'s contract), which no
    /// prune decision or visit order reads (a `Triangle` key is never
    /// NaN; a `MixBound` key is NaN only for a non-finite centroid, which
    /// only a store with no finite row trains, and then every cell and
    /// member of the index fails open, so every live row is scanned in
    /// any order).
    fn rank_cells(
        &self,
        centroids: &LaneBlock,
        cells: &[IndexCell],
        queries: &EmbeddingStore,
        qi: usize,
    ) -> CellRanking<Self::Dist>;
}

/// What one centroid scan yields for one query.
pub(crate) struct CellRanking<D> {
    /// Per cell, the query's bound-space centroid distance `p(q,c)`.
    pub(crate) pq: Vec<D>,
    /// Per cell, the key cells are visited by: ascending `total_cmp`
    /// order, ties by cell id.
    pub(crate) keys: Vec<f64>,
}

/// The in-range part of lane group `g` of a scan over `n` rows: the
/// padding lanes past the last row are cut off.
#[inline]
fn live_lanes(g: usize, n: usize) -> usize {
    LANES.min(n - g * LANES)
}

/// The single triangle-inequality test of a metric space
/// ([`BoundSpace::Euclidean`] on raw values, [`BoundSpace::LorentzGeodesic`]
/// in θ-space). Cells are visited by triangle lower bound
/// `max(0, d(q,c) − r)`; a NaN bound or `τ` compares false and fails open
/// into a probe.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triangle {
    space: BoundSpace,
    slack: Slack,
}

impl Triangle {
    pub(crate) fn new(space: BoundSpace, dim: usize) -> Self {
        Triangle {
            space,
            slack: space.slack_terms(dim),
        }
    }
}

impl PruneBound for Triangle {
    type Dist = f64;

    #[inline]
    fn tau(&self, tau: f64) -> f64 {
        self.space.map(tau)
    }

    #[inline]
    fn thresholds(&self, tau: f64, pq: f64, cell: &IndexCell) -> f64 {
        tau + self.slack.pad(pq, cell.radius, tau)
    }

    #[inline]
    fn skips_cell(thresh: f64, pq: f64, cell: &IndexCell) -> bool {
        (pq - cell.radius).max(0.0) > thresh
    }

    #[inline]
    fn skips_member(thresh: f64, pq: f64, cell: &IndexCell, i: usize) -> bool {
        (pq - cell.dcx[i]).abs() > thresh
    }

    /// Any `τ` but NaN: `slack` takes `τ` itself, not its magnitude, so
    /// the threshold grows with `τ` over the whole line.
    #[inline]
    fn holds_certificates(tau: f64) -> bool {
        !tau.is_nan()
    }

    fn rank_cells(
        &self,
        centroids: &LaneBlock,
        cells: &[IndexCell],
        queries: &EmbeddingStore,
        qi: usize,
    ) -> CellRanking<f64> {
        let n = cells.len();
        let mut pq = Vec::with_capacity(n);
        centroids.scan(queries, qi, |g, d| {
            let live = &d[..live_lanes(g, n)];
            pq.extend(live.iter().map(|&d| self.space.map(d as f64)));
        });
        let keys = (cells.iter().zip(&pq))
            .map(|(cell, &p)| (p - cell.radius).max(0.0))
            .collect();
        CellRanking { pq, keys }
    }
}

/// The two single-space tests of a [`BoundSpace::ConvexMix`] probe: a
/// cell or member is skipped only when *both* certify it out. Pairs are
/// always `(Euclidean, geodesic)`. Cells are visited nearest fused
/// centroid first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MixBound {
    lo: BoundSpace,
    slack: (Slack, Slack),
}

impl MixBound {
    pub(crate) fn new(beta: f64, dim: usize) -> Self {
        let lo = BoundSpace::LorentzGeodesic { beta };
        MixBound {
            lo,
            slack: (BoundSpace::Euclidean.slack_terms(dim), lo.slack_terms(dim)),
        }
    }

    /// Geodesic image `θ` of a raw Lorentz kernel distance.
    #[inline]
    pub(crate) fn theta(&self, raw: f64) -> f64 {
        self.lo.map(raw)
    }
}

/// Whether *both* component gaps certify `min(d_Lo, d_Eu) > τ′`; a
/// non-finite gap (NaN or `±∞` stored distance, radius or query distance)
/// never certifies.
#[inline]
fn mix_certifies(thresh: (f64, f64), gap_eu: f64, gap_lo: f64) -> bool {
    gap_eu > thresh.0 && gap_eu < f64::INFINITY && gap_lo > thresh.1 && gap_lo < f64::INFINITY
}

impl PruneBound for MixBound {
    type Dist = (f64, f64);

    /// `(τ′, θ(τ′))`.
    #[inline]
    fn tau(&self, tau: f64) -> (f64, f64) {
        let padded = mix_tau(tau);
        (padded, self.lo.map(padded))
    }

    #[inline]
    fn thresholds(&self, tau: (f64, f64), pq: (f64, f64), cell: &IndexCell) -> (f64, f64) {
        let eu = self.slack.0.pad(pq.0, cell.radius, tau.0.abs());
        let lo = self.slack.1.pad(pq.1, cell.radius_lo, tau.1);
        (tau.0 + eu, tau.1 + lo)
    }

    #[inline]
    fn skips_cell(thresh: (f64, f64), pq: (f64, f64), cell: &IndexCell) -> bool {
        mix_certifies(thresh, pq.0 - cell.radius, pq.1 - cell.radius_lo)
    }

    #[inline]
    fn skips_member(thresh: (f64, f64), pq: (f64, f64), cell: &IndexCell, i: usize) -> bool {
        let (gap_eu, gap_lo) = (pq.0 - cell.dcx[i], pq.1 - cell.dcx_lo[i]);
        mix_certifies(thresh, gap_eu.abs(), gap_lo.abs())
    }

    /// `τ′ ≥ 0`, which also rules out NaN: below zero `|τ′|` in the
    /// Euclidean slack shrinks as `τ′` falls, so the threshold need not.
    #[inline]
    fn holds_certificates(tau: (f64, f64)) -> bool {
        tau.0 >= 0.0
    }

    /// The fused lane scan over the centroids yields, per cell, the fused
    /// distance (the visit key) and its two components: Euclidean against
    /// the centroid's `eu` row, geodesic `θ` against its `hyper` row.
    fn rank_cells(
        &self,
        centroids: &LaneBlock,
        cells: &[IndexCell],
        queries: &EmbeddingStore,
        qi: usize,
    ) -> CellRanking<(f64, f64)> {
        let n = cells.len();
        let (mut pq, mut keys) = (Vec::with_capacity(n), Vec::with_capacity(n));
        centroids.scan_fused(queries, qi, |g, [fused, lo, eu]| {
            for l in 0..live_lanes(g, n) {
                pq.push((eu[l] as f64, self.theta(lo[l] as f64)));
                keys.push(fused[l] as f64);
            }
        });
        CellRanking { pq, keys }
    }
}

impl BoundSpace {
    /// The bound space of a store: fixed by the variant for the metric
    /// ones, decided from the *contents* for `fusion-dist` — a caller
    /// never chooses it, and a decoder never reads it from a payload.
    pub fn for_store(store: &EmbeddingStore) -> Self {
        let beta = store.beta() as f64;
        match store.variant() {
            PluginVariant::Original => BoundSpace::Euclidean,
            PluginVariant::LorentzVanilla | PluginVariant::LorentzCosh => {
                BoundSpace::LorentzGeodesic { beta }
            }
            PluginVariant::FusionDist if mix_certifies_store(store) => {
                BoundSpace::ConvexMix { beta }
            }
            PluginVariant::FusionDist => BoundSpace::None,
        }
    }

    /// Whether the space itself is a metric (single triangle-inequality
    /// bound).
    pub fn is_metric(&self) -> bool {
        matches!(
            self,
            BoundSpace::Euclidean | BoundSpace::LorentzGeodesic { .. }
        )
    }

    /// Whether an index in this space can skip rows exactly: every space
    /// but [`BoundSpace::None`].
    pub fn prunes(&self) -> bool {
        !matches!(self, BoundSpace::None)
    }

    /// Maps a raw kernel distance into the bound space (strictly
    /// monotone, so raw-space top-k order is preserved). Non-finite
    /// inputs map to non-finite outputs, which every prune comparison
    /// treats as "cannot prune". [`BoundSpace::ConvexMix`] has no map of
    /// its own (identity, like `None`): its probe maps each component
    /// through that component's space.
    #[inline]
    pub fn map(&self, raw: f64) -> f64 {
        match *self {
            BoundSpace::Euclidean | BoundSpace::ConvexMix { .. } | BoundSpace::None => raw,
            BoundSpace::LorentzGeodesic { beta } => {
                // f32 rounding can push an on-hyperboloid self-distance a
                // hair below zero; clamp so acosh stays defined. NaN
                // passes through (NaN.max(0.0) is 0.0 in Rust, which
                // would silently *enable* pruning on a poisoned value —
                // keep NaN NaN instead so pruning fails open).
                if raw.is_nan() {
                    return f64::NAN;
                }
                (1.0 + raw.max(0.0) / beta).acosh()
            }
        }
    }

    /// Relative f32-kernel rounding bound for one distance evaluation
    /// over `dim`-wide rows: each of the ~`dim` multiply–add steps rounds
    /// twice at `f32::EPSILON / 2` (product and sum separately — the
    /// kernels emit no fused multiply-adds, which the bit-identity
    /// contract forbids), padded by a safety factor of 8 for the square
    /// root / abs tails and the f64 transform.
    fn rel(dim: usize) -> f64 {
        (dim as f64 + 4.0) * f32::EPSILON as f64 * 8.0
    }

    /// Conservative threshold padding for one triangle-inequality prune
    /// decision involving bound-space magnitudes `a`, `b`, and `c`
    /// (typically query→centroid, centroid→member (or cell radius), and
    /// the current k-th best).
    ///
    /// Euclidean: the error of each f32 distance is `rel·value`, so the
    /// padding is `rel·(a+b+c)`. θ-space: a relative raw error `rel`
    /// becomes at most `2√rel + 2·rel·θ` in θ (the `√` term dominates
    /// near θ = 0 where `θ ≈ √(2·raw/β)` amplifies absolute error, the
    /// linear term covers the large-θ regime where `dθ/draw → 1/(β·sinhθ)`
    /// decays), summed over the three mapped values.
    #[inline]
    pub fn slack(&self, dim: usize, a: f64, b: f64, c: f64) -> f64 {
        self.slack_terms(dim).pad(a, b, c)
    }

    /// The terms of [`BoundSpace::slack`] fixed by the space and the row
    /// width, which a probe takes once per query rather than per test.
    fn slack_terms(&self, dim: usize) -> Slack {
        let rel = Self::rel(dim);
        match self {
            BoundSpace::Euclidean | BoundSpace::ConvexMix { .. } | BoundSpace::None => Slack {
                floor: 0.0,
                scale: rel,
            },
            BoundSpace::LorentzGeodesic { .. } => Slack {
                floor: 3.0 * 2.0 * rel.sqrt(),
                scale: 2.0 * rel,
            },
        }
    }
}

/// [`BoundSpace::slack`] with its space and row width applied:
/// `floor + scale·(a + b + c) + 10⁻¹²`. A `floor` of 0 changes at most
/// the sign of a zero, which the `+ 10⁻¹²` absorbs, so the Euclidean
/// padding `rel·(a + b + c) + 10⁻¹²` shares the expression bit for bit.
#[derive(Debug, Clone, Copy)]
struct Slack {
    floor: f64,
    scale: f64,
}

impl Slack {
    #[inline]
    fn pad(self, a: f64, b: f64, c: f64) -> f64 {
        self.floor + self.scale * (a + b + c) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::super::super::store::tests::store_with_rows;

    #[test]
    fn space_is_read_off_the_store() {
        assert_eq!(
            BoundSpace::for_store(&store_with_rows(PluginVariant::Original)),
            BoundSpace::Euclidean
        );
        for v in [PluginVariant::LorentzVanilla, PluginVariant::LorentzCosh] {
            let mut s = EmbeddingStore::new(1, v, 2.0, None);
            s.push(&[0.0], Some(&[2.0f32.sqrt(), 0.0]), None);
            assert_eq!(
                BoundSpace::for_store(&s),
                BoundSpace::LorentzGeodesic { beta: 2.0 }
            );
        }
        let fused = store_with_rows(PluginVariant::FusionDist);
        assert_eq!(
            BoundSpace::for_store(&fused),
            BoundSpace::ConvexMix { beta: 1.0 }
        );
        assert!(BoundSpace::Euclidean.is_metric() && BoundSpace::Euclidean.prunes());
        let mix = BoundSpace::ConvexMix { beta: 1.0 };
        assert!(!mix.is_metric() && mix.prunes());
        assert!(!BoundSpace::None.is_metric() && !BoundSpace::None.prunes());
    }

    /// One fused row with the given factor row / first Euclidean
    /// coordinate, everything else benign.
    fn fused_row(factors: [f32; 4], eu0: f32) -> EmbeddingStore {
        let mut s = EmbeddingStore::new(2, PluginVariant::FusionDist, 1.0, Some(2));
        s.push(&[eu0, 0.0], Some(&[1.0, 0.0, 0.0]), Some(&factors));
        s
    }

    #[test]
    fn mix_certification_observes_factors_and_magnitudes() {
        let mix = BoundSpace::ConvexMix { beta: 1.0 };
        let cap = mix_factor_cap(2);
        let over = f32::from_bits(cap.to_bits() + 1);
        // Corners that keep α̃ ∈ [0, 1]: zeros, underflowing products,
        // values right at the cap.
        for ok in [[0.0; 4], [1e-30; 4], [cap; 4], [0.0, 0.0, cap, 1.0]] {
            let s = fused_row(ok, 0.0);
            assert_eq!(BoundSpace::for_store(&s), mix, "{ok:?}");
            assert!(mix_certifies_query(&s, 0), "{ok:?}");
        }
        // At the cap the dot products and their sum stay finite.
        let lo = cap * cap + cap * cap;
        assert!((lo + lo).is_finite());
        for bad in [-1e-30, f32::NAN, f32::INFINITY, over, -0.5] {
            let s = fused_row([1.0, bad, 1.0, 1.0], 0.0);
            assert_eq!(BoundSpace::for_store(&s), BoundSpace::None, "{bad}");
            assert!(!mix_certifies_query(&s, 0), "{bad}");
        }
        // Coordinates: a stored NaN / ∞ is tolerated (its pivot distances
        // fail open), a finite value past the cap is not; a query must be
        // finite and within the cap.
        let coord_cap = mix_coord_cap(2);
        for (eu0, store_ok, query_ok) in [
            (coord_cap, true, true),
            (f32::NAN, true, false),
            (f32::NEG_INFINITY, true, false),
            (-2.0 * coord_cap, false, false),
        ] {
            let s = fused_row([1.0; 4], eu0);
            assert_eq!(BoundSpace::for_store(&s).prunes(), store_ok, "{eu0}");
            assert_eq!(mix_certifies_query(&s, 0), query_ok, "{eu0}");
        }
        // A non-positive or non-finite curvature has no θ map.
        for beta in [0.0, -1.0, f32::NAN] {
            let mut s = EmbeddingStore::new(1, PluginVariant::FusionDist, beta, Some(1));
            s.push(&[0.0], Some(&[1.0, 0.0]), Some(&[1.0, 1.0]));
            assert_eq!(BoundSpace::for_store(&s), BoundSpace::None, "β={beta}");
        }
    }

    /// The two steps of the mix proof, on computed values. Convexity of
    /// the rounded blend: for certified factors `α̃ ∈ [0, 1]` and
    /// `d̃ ≥ m − 3u·|m| − 2η` with `m = min(l, e)`. Padding: a minimum
    /// just above `τ′` already puts that floor strictly above `τ`.
    #[test]
    fn rounded_blend_stays_above_the_padded_minimum() {
        use crate::distance::{alpha_f32, fused_f32};
        let u = f32::EPSILON as f64 / 2.0;
        let eta = 2f64.powi(-150);
        let floor = |m: f64| m - 3.0 * u * m.abs() - 2.0 * eta;

        let cap = mix_factor_cap(1);
        let factors = [0.0f32, 1e-30, 1e-3, 0.3, 1.0, 7.5, 1e10, cap];
        let dists = [-1e-7f32, 0.0, 1e-40, 1e-7, 0.3, 1.0, 3.0, 1e6, 1e30];
        for &ql in &factors {
            for &xl in &factors {
                for &qe in &factors {
                    for &xe in &factors {
                        let alpha = alpha_f32(&[ql], &[xl], &[qe], &[xe]);
                        assert!((0.0..=1.0).contains(&alpha), "α̃={alpha}");
                        for &l in &dists {
                            // `e` is a square root: never negative.
                            for &e in &dists[1..] {
                                let d = fused_f32(alpha, l, e) as f64;
                                let m = l.min(e) as f64;
                                assert!(d >= floor(m), "α̃={alpha} l={l} e={e}: d̃={d}");
                            }
                        }
                    }
                }
            }
        }

        for &tau in &dists {
            for tau in [tau as f64, -(tau as f64)] {
                let padded = mix_tau(tau);
                let just_above = f64::from_bits(if padded > 0.0 {
                    padded.to_bits() + 1
                } else {
                    padded.to_bits() - 1
                });
                assert!(just_above > padded);
                assert!(floor(just_above) > tau, "τ={tau}: τ′={padded}");
            }
        }
        assert!(mix_tau(f64::NAN).is_nan());
        assert_eq!(mix_tau(f64::INFINITY), f64::INFINITY);
    }

    /// A one-member cell with the given stored distances (= its radii).
    fn cell(dcx: f64, dcx_lo: f64) -> IndexCell {
        IndexCell::mix(vec![0], vec![dcx], vec![dcx_lo])
    }

    #[test]
    fn mix_thresholds_need_both_components_and_finite_gaps() {
        let mix = MixBound::new(1.0, 8);
        let near = cell(0.2, 0.2);
        let t = mix.thresholds(mix.tau(0.5), (3.0, 2.0), &near);
        assert!(mix_certifies(t, 2.8, 1.8), "both gaps far above τ′");
        assert!(!mix_certifies(t, 2.8, 0.1), "geodesic gap inside τ′");
        assert!(!mix_certifies(t, 0.1, 1.8), "Euclidean gap inside τ′");
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(!mix_certifies(t, bad, 1.8) && !mix_certifies(t, 2.8, bad));
        }
        // The cell and member tests are that predicate on `p(q,c) − r`
        // and `|p(q,c) − p(c,x)|`.
        assert!(MixBound::skips_cell(t, (3.0, 2.0), &near));
        assert!(MixBound::skips_member(t, (3.0, 2.0), &near, 0));
        assert!(!MixBound::skips_cell(t, (3.0, 0.3), &near));
        assert!(!MixBound::skips_member(t, (0.3, 2.0), &near, 0));
        // An unfilled heap (τ = ∞) and a poisoned one (τ = NaN) certify
        // nothing; neither does a NaN radius.
        for tau in [f64::INFINITY, f64::NAN] {
            let open = mix.thresholds(mix.tau(tau), (3.0, 2.0), &near);
            assert!(!mix_certifies(open, 1e300, 1e300));
        }
        let nan_radius = mix.thresholds(mix.tau(0.5), (3.0, 2.0), &cell(f64::NAN, 0.2));
        assert!(!mix_certifies(nan_radius, 2.8, 1.8));
        assert!(mix_radius(&[0.5, f64::NAN]).is_nan());
        assert!(mix_radius(&[0.5, f64::INFINITY]).is_nan());
        assert!(mix_radius(&[0.5, -f64::NAN, 0.25]).is_nan());
        assert_eq!(mix_radius(&[0.5, 0.25]), 0.5);
        assert_eq!(mix_radius(&[]), 0.0);
    }

    #[test]
    fn lorentz_map_is_monotone_and_clamps() {
        let s = BoundSpace::LorentzGeodesic { beta: 1.0 };
        let vals = [-1e-6, 0.0, 1e-9, 0.01, 0.5, 1.0, 10.0, 1e6];
        let mapped: Vec<f64> = vals.iter().map(|&v| s.map(v)).collect();
        for w in mapped.windows(2) {
            assert!(w[0] <= w[1], "map must be monotone: {mapped:?}");
        }
        assert_eq!(s.map(-5.0), 0.0, "negative raw clamps to θ = 0");
        assert!(s.map(f64::NAN).is_nan(), "NaN must fail open, not clamp");
    }

    /// The θ-space error bound in `slack` must dominate the true
    /// perturbation of the map for relative raw errors up to `rel(dim)`.
    #[test]
    fn lorentz_slack_dominates_true_map_error() {
        let beta = 1.0;
        let s = BoundSpace::LorentzGeodesic { beta };
        for dim in [1usize, 16, 256] {
            let rel = (dim as f64 + 4.0) * f32::EPSILON as f64 * 8.0;
            for raw in [0.0, 1e-8, 1e-4, 0.01, 0.3, 1.0, 5.0, 100.0] {
                let theta = s.map(raw);
                // Perturb raw by the full relative error of the kernel
                // (scale includes the β-sized inner-product magnitude).
                let perturbed = s.map(raw + rel * (raw + 2.0 * beta));
                let true_err = perturbed - theta;
                let budget = s.slack(dim, theta, 0.0, 0.0);
                assert!(
                    true_err <= budget,
                    "dim={dim} raw={raw}: err {true_err} > slack {budget}"
                );
            }
        }
    }

    /// `slack` through its per-query terms is the padding as written out
    /// per space, bit for bit: `rel·(a+b+c) + 10⁻¹²` and
    /// `6√rel + 2·rel·(a+b+c) + 10⁻¹²`.
    #[test]
    fn slack_terms_keep_the_padding_bits() {
        let values = [
            0.0,
            -0.0,
            1e-300,
            1e-9,
            0.37,
            1.0,
            3.5,
            1e6,
            -2.0,
            f64::INFINITY,
        ];
        for dim in [1, 8, 16, 100] {
            let rel = BoundSpace::rel(dim);
            for a in values {
                for b in values {
                    for c in values {
                        let eu = rel * (a + b + c) + 1e-12;
                        let lo = 3.0 * 2.0 * rel.sqrt() + 2.0 * rel * (a + b + c) + 1e-12;
                        let got = BoundSpace::Euclidean.slack(dim, a, b, c);
                        assert_eq!(got.to_bits(), eu.to_bits(), "{a} {b} {c}");
                        let got = BoundSpace::LorentzGeodesic { beta: 1.0 }.slack(dim, a, b, c);
                        assert_eq!(got.to_bits(), lo.to_bits(), "{a} {b} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn euclidean_slack_scales_with_magnitudes() {
        let s = BoundSpace::Euclidean;
        assert_eq!(s.map(3.25), 3.25);
        let small = s.slack(16, 1.0, 1.0, 1.0);
        let large = s.slack(16, 1e3, 1e3, 1e3);
        assert!(small > 0.0 && large > 500.0 * small);
    }

    /// Whether `bound` certifies `cell` out at raw k-th best `tau`, and
    /// whether certificates hold there.
    fn certified_at<P: PruneBound>(
        bound: &P,
        pq: P::Dist,
        cell: &IndexCell,
        tau: f64,
    ) -> (bool, bool) {
        let image = bound.tau(tau);
        let thresh = bound.thresholds(image, pq, cell);
        (
            P::skips_cell(thresh, pq, cell),
            P::holds_certificates(image),
        )
    }

    /// Over every pair `lo ≤ hi` of `taus` at which certificates hold, a
    /// cell certified out under `hi` is certified out under `lo`; a NaN
    /// `τ` of either sign neither holds certificates nor certifies; and
    /// certificates hold on all of `[0, ∞]`. Returns how many pairs
    /// certified at `hi`.
    fn check_certification<P: PruneBound>(
        bound: &P,
        pq: P::Dist,
        cell: &IndexCell,
        taus: &[f64],
        ctx: &dyn Fn() -> String,
    ) -> usize {
        let mut certified = 0;
        for &hi in taus {
            let (at_hi, holds_hi) = certified_at(bound, pq, cell, hi);
            if hi.is_nan() {
                assert!(!at_hi && !holds_hi, "NaN τ {hi:?}: {}", ctx());
                continue;
            }
            if hi >= 0.0 {
                assert!(holds_hi, "τ = {hi:e} must hold certificates: {}", ctx());
            }
            if !(at_hi && holds_hi) {
                continue;
            }
            certified += 1;
            for &lo in taus.iter().filter(|&&lo| lo <= hi) {
                let (at_lo, holds_lo) = certified_at(bound, pq, cell, lo);
                assert!(
                    at_lo || !holds_lo,
                    "certified at τ = {hi:e}, not at {lo:e}: {}",
                    ctx()
                );
            }
        }
        certified
    }

    /// The fact the probe's cell filter rests on (module docs, "Visiting
    /// only the cells that can probe"): certification never weakens as `τ`
    /// falls while `holds_certificates` holds, a NaN `τ` certifies nothing,
    /// and certificates hold for every `τ ≥ 0`, so a heap of non-negative
    /// distances always gets the filter. Seeded centroid distances, radii
    /// and `τ` over many scales, with `±0`, negative values, `±∞` and NaNs
    /// of both signs among them, and `τ`s next to each threshold — in both
    /// metric spaces and the mix space. The places certificates do not
    /// hold are pinned too: NaN everywhere, and in the mix space `−∞` and
    /// a negative `τ′`.
    #[test]
    fn certification_only_strengthens_as_tau_falls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let value = |rng: &mut StdRng, scale: f64| match rng.gen_range(0..12) {
            0 => SPECIAL[rng.gen_range(0..SPECIAL.len())],
            1 => -rng.gen_range(0.0f64..4.0) * scale,
            _ => rng.gen_range(0.0f64..4.0) * scale,
        };
        let (mut certified, mut cases) = (0, 0);
        for _ in 0..400 {
            let scale = 10f64.powi(rng.gen_range(-6..7));
            let (p, r) = (value(&mut rng, scale), value(&mut rng, scale).abs());
            let (p_lo, r_lo) = (value(&mut rng, scale), value(&mut rng, scale).abs());
            let mut taus: Vec<f64> = (0..6).map(|_| value(&mut rng, scale)).collect();
            // τ near the gap (a threshold is τ plus a small slack), and a
            // float's width to either side of every τ.
            for gap in [p - r, p_lo - r_lo] {
                taus.extend([gap, gap * (1.0 - 1e-4), gap * (1.0 - 1e-6), gap * 0.5]);
            }
            let near: Vec<f64> = (taus.iter())
                .filter(|t| t.is_finite())
                .flat_map(|&t| [t.next_up(), t.next_down()])
                .collect();
            taus.extend(near);
            taus.extend(SPECIAL);
            let ctx = || format!("p = {p:e}, r = {r:e}, p_lo = {p_lo:e}, r_lo = {r_lo:e}");
            for space in [
                BoundSpace::Euclidean,
                BoundSpace::LorentzGeodesic { beta: 1.0 },
            ] {
                let tri = Triangle::new(space, 8);
                let cell = IndexCell::new(vec![0], vec![r]);
                certified += check_certification(&tri, p, &cell, &taus, &ctx);
            }
            let mix = MixBound::new(1.0, 8);
            let cell = IndexCell::mix(vec![0], vec![r], vec![r_lo]);
            certified += check_certification(&mix, (p, p_lo), &cell, &taus, &ctx);
            cases += 1;
        }
        assert!(
            certified > 10 * cases,
            "the fixtures must certify cells: {certified} of {cases}"
        );
        // Where certificates do not hold: a NaN image, and in the mix space
        // a raw `−∞` (`τ′ = −∞ + ∞`) or any `τ′ < 0`.
        let mix = MixBound::new(1.0, 8);
        for tau in [f64::NEG_INFINITY, -1.0, -1e-30, f64::NAN, -f64::NAN] {
            assert!(!MixBound::holds_certificates(mix.tau(tau)), "{tau}");
        }
        assert!(MixBound::holds_certificates(mix.tau(-1e-300)), "τ′ ≥ 0");
        for space in [
            BoundSpace::Euclidean,
            BoundSpace::LorentzGeodesic { beta: 1.0 },
        ] {
            let tri = Triangle::new(space, 8);
            assert!(Triangle::holds_certificates(tri.tau(f64::NEG_INFINITY)));
            assert!(!Triangle::holds_certificates(tri.tau(-f64::NAN)));
        }
    }

    /// The triangle predicates: a strict, slack-padded comparison that an
    /// unfilled (τ = ∞) or poisoned (NaN) heap, radius or stored distance
    /// can never satisfy — in both metric spaces.
    #[test]
    fn triangle_tests_are_strict_padded_and_fail_open() {
        for space in [
            BoundSpace::Euclidean,
            BoundSpace::LorentzGeodesic { beta: 1.0 },
        ] {
            let tri = Triangle::new(space, 8);
            let (near, origin) = (
                IndexCell::new(vec![0], vec![0.2]),
                IndexCell::new(vec![0], vec![0.0]),
            );
            let t = tri.thresholds(tri.tau(0.5), 3.0, &near);
            assert!(t > tri.tau(0.5), "the threshold is τ plus a positive slack");
            assert!(Triangle::skips_cell(t, 1.01 * t, &origin));
            assert!(Triangle::skips_member(t, 1.01 * t, &origin, 0));
            // A gap equal to the threshold stays.
            assert!(!Triangle::skips_cell(t, t, &origin));
            assert!(!Triangle::skips_member(t, t, &origin, 0));
            for tau in [f64::INFINITY, f64::NAN] {
                let open = tri.thresholds(tri.tau(tau), 3.0, &near);
                assert!(!Triangle::skips_cell(open, 1e300, &near));
                assert!(!Triangle::skips_member(open, 1e300, &near, 0));
            }
            let poisoned = IndexCell::new(vec![0], vec![f64::NAN]);
            let nan_radius = tri.thresholds(tri.tau(0.5), 3.0, &poisoned);
            assert!(!Triangle::skips_cell(nan_radius, 1e300, &poisoned));
            assert!(!Triangle::skips_member(t, 3.0, &poisoned, 0));
        }
    }
}
