//! Cell construction: deterministic k-means-style partitioning of an
//! [`EmbeddingStore`] into pivot cells.
//!
//! The build is classic IVF training with the workspace's determinism
//! conventions (`total_cmp` + lowest-index tie-breaks everywhere):
//!
//! 1. take a deterministic pseudo-random training sample via a splitmix64
//!    index stream (quantizer quality needs a sample, not the full store —
//!    standard IVF practice; *strided* sampling is avoided because it
//!    aliases catastrophically with any periodicity in row order, e.g.
//!    round-robin-by-source ingestion);
//! 2. seed centroids by farthest-point (maxmin) selection over the
//!    sample, the DITA-style "spread the pivots" heuristic transplanted
//!    from trajectory space to embedding space;
//! 3. refine with a few Lloyd iterations on the sample (assign to the
//!    nearest centroid under the *model's own kernel distance*, then
//!    re-average — hyperbolic centroids are re-lifted onto `H(β)` so the
//!    geodesic bound space stays valid);
//! 4. assign every store row to its nearest final centroid (parallel),
//!    recording the bound-space centroid distance the query path prunes
//!    with.
//!
//! Steps 3 and 4 run on up to the caller's thread count; each writes its
//! results in row order, so the cells are the same bits on one thread as
//! on many.
//!
//! Only *finite* rows — every stored value finite — train (steps 1–3);
//! every row is assigned (step 4). A row with a NaN or `±∞` coordinate
//! is at distance NaN or `∞` from every centroid, so it would be the
//! farthest point for every seed after the first and pull a Lloyd mean
//! off to infinity: one such row used to collapse a store into a single
//! cell. A store with no finite row trains on all of them.
//!
//! All three scans run through the lane kernel (`kernel::LaneBlock`),
//! eight distances a step: seeding takes the newest centroid against a
//! column-major copy of the sample's distinct rows (dropped before
//! Lloyd), Lloyd and the assignment take each row against one of the
//! centroids. The assignment's lane copy of the final centroids is kept
//! as the index's own, which every query ranks its cells with. Every
//! lane distance is the scalar
//! kernel's bits, and the selections keep the `total_cmp` + lowest-id
//! rules with no per-row heap, so the cells are those a
//! one-pair-at-a-time build makes, bit for bit (the `#[cfg(test)]`
//! oracle below is that build).
//!
//! Assignment uses raw kernel distances; for Lorentz variants the
//! bound-space map is monotone, so "nearest by raw" and "nearest by
//! geodesic" agree. A fused store is partitioned by the fused kernel too
//! — the cells are the ones queries are near in the served distance —
//! and only then, in the mix space, each member's two component pivot
//! distances are taken against its centroid (`mix_cell`).
//!
//! A store with nothing to prune with — empty, or in
//! [`BoundSpace::None`] — gets no cells and no k-means: the flat scan
//! serves it, and cells it could never skip would only cost a build.

use super::super::kernel::{LaneBlock, LANES};
use super::super::store::EmbeddingStore;
use super::bound::{BoundSpace, MixBound};
use super::IndexCell;
use crate::distance::{euclidean_f32, lorentz_f32};
use traj_core::parallel::{default_threads, parallel_map};

/// Training-sample cap for seeding and Lloyd refinement.
const TRAIN_SAMPLE: usize = 16_384;
/// Lloyd refinement iterations over the sample.
const LLOYD_ITERS: usize = 2;
/// Seed for the deterministic sample/seeding choices.
const SEED: u64 = 0x1df;

/// Build-time knobs for [`super::IndexedStore::build`]. (The sample cap,
/// Lloyd iteration count and seed were fields nobody set; they are this
/// module's constants, so every build of the same rows partitions them
/// the same way.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexParams {
    /// Number of cells; `None` picks `⌈√n⌉` (clamped to `[1, n]`), the
    /// classic IVF balance between the centroid scan and cell scans.
    pub n_cells: Option<usize>,
}

impl IndexParams {
    /// Resolved cell count for a store of `n` rows.
    pub fn cells_for(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        self.n_cells
            .unwrap_or_else(|| (n as f64).sqrt().ceil() as usize)
            .clamp(1, n)
    }
}

/// Cell `j` of a [`BoundSpace::ConvexMix`] index: each member's raw
/// Euclidean distance and geodesic `θ` against the centroid's `eu` /
/// `hyper` rows — query-independent, so stored once.
fn mix_cell(
    store: &EmbeddingStore,
    centroids: &EmbeddingStore,
    beta: f64,
    j: usize,
    members: Vec<u32>,
) -> IndexCell {
    let mix = MixBound::new(beta, store.dim());
    let (c_eu, c_hyper) = (centroids.eu_row(j), centroids.hyper_row(j));
    let (dcx_eu, dcx_lo) = members
        .iter()
        .map(|&m| {
            let m = m as usize;
            let lo = lorentz_f32(store.hyper_row(m), c_hyper, store.beta());
            (
                euclidean_f32(store.eu_row(m), c_eu) as f64,
                mix.theta(lo as f64),
            )
        })
        .unzip();
    IndexCell::mix(members, dcx_eu, dcx_lo)
}

/// Mean of a set of store rows, pushed as one centroid row. Sums are f64
/// (Neumaier is overkill for ≤ a few thousand members); the hyperbolic
/// mean averages the spatial components and re-lifts the time component
/// onto `H(β)` so the centroid is a genuine hyperboloid point — required
/// for the geodesic triangle bound to hold at the centroid.
fn push_mean_row(out: &mut EmbeddingStore, store: &EmbeddingStore, rows: &[u32]) {
    let dim = store.dim();
    let inv = 1.0 / rows.len().max(1) as f64;
    fn mean<'a>(
        rows: &[u32],
        width: usize,
        inv: f64,
        row_of: impl Fn(usize) -> &'a [f32],
    ) -> Vec<f32> {
        let mut acc = vec![0.0f64; width];
        for &r in rows {
            for (a, &v) in acc.iter_mut().zip(row_of(r as usize)) {
                *a += v as f64;
            }
        }
        acc.into_iter().map(|a| (a * inv) as f32).collect()
    }
    let eu = mean(rows, dim, inv, |r| store.eu_row(r));
    let hyper = store.variant().uses_hyperbolic().then(|| {
        let spatial = mean(rows, dim, inv, |r| &store.hyper_row(r)[1..]);
        let nsq: f32 = spatial.iter().map(|v| v * v).sum();
        let mut h = vec![(nsq + store.beta()).sqrt()];
        h.extend_from_slice(&spatial);
        h
    });
    let factors = store
        .factor_dim()
        .map(|f| mean(rows, 2 * f, inv, |r| store.factor_row(r)));
    out.push(&eu, hyper.as_deref(), factors.as_deref());
}

/// Training pool: the rows whose every stored value is finite, or every
/// row when none is. A row with a NaN or `±∞` coordinate is at distance
/// NaN or `∞` from every centroid, so it would win farthest-point seeding
/// for every centroid after the first and drag a Lloyd mean off to
/// infinity — collapsing the store into one cell. Such rows are still
/// assigned below; they only take no part in placing the centroids.
fn training_pool(store: &EmbeddingStore) -> Vec<u32> {
    let finite = |i: usize| {
        let hyper = store
            .variant()
            .uses_hyperbolic()
            .then(|| store.hyper_row(i));
        let factors = store.factor_dim().map(|_| store.factor_row(i));
        (store.eu_row(i).iter())
            .chain(hyper.into_iter().flatten())
            .chain(factors.into_iter().flatten())
            .all(|v| v.is_finite())
    };
    let pool: Vec<u32> = (0..store.len() as u32)
        .filter(|&i| finite(i as usize))
        .collect();
    if pool.is_empty() {
        (0..store.len() as u32).collect()
    } else {
        pool
    }
}

/// Deterministic training sample of row ids. Exhaustive when the store
/// fits the budget; otherwise a splitmix64 index stream — pseudo-random,
/// so it cannot alias with periodic row order the way a strided sample
/// does (duplicates are possible and harmless: they only reweight means).
fn training_sample(n: usize, cap: usize, seed: u64) -> Vec<u32> {
    let sample_len = n.min(cap).max(1);
    if sample_len == n {
        return (0..n as u32).collect();
    }
    (0..sample_len as u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as u32
        })
        .collect()
}

/// `x`'s bits as the integer whose order is `f32::total_cmp`'s (the
/// standard library's own mapping): a negative value has every bit but
/// the sign flipped. An involution, so it also maps a key back to bits.
#[inline(always)]
fn total_order_key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The value whose bits [`total_order_key`] mapped to `key`.
#[inline(always)]
fn from_total_order_key(key: i32) -> f32 {
    f32::from_bits(total_order_key(f32::from_bits(key as u32)) as u32)
}

/// Nearest row of `centroids` to row `row` of `store`: `(cell, raw
/// kernel distance)` by `total_cmp`, ties to the lowest cell id — the
/// `TopK` convention — as one min fused into the lane scan: each lane
/// keeps its best `(key, cell)` under a strict `<`, so its lowest cell on
/// ties, and the lanes are reduced at the end. A lane that never takes a
/// cell holds `(i32::MAX, 0)`; that can only win if every distance has
/// the top key, and then cell 0 is the right answer. Keys are taken on
/// the `f32` bits: `as f64` keeps `total_cmp` order for every value a
/// kernel returns (an arithmetic result, so never a signalling NaN), so
/// this is `TopK`'s choice over the widened distances.
fn nearest_centroid(centroids: &LaneBlock, store: &EmbeddingStore, row: usize) -> (u32, f64) {
    let (mut key, mut cell) = ([i32::MAX; LANES], [0u32; LANES]);
    centroids.scan(store, row, |g, d| {
        for l in 0..LANES {
            let (k, j) = (total_order_key(d[l]), (g * LANES + l) as u32);
            let take = k < key[l];
            key[l] = if take { k } else { key[l] };
            cell[l] = if take { j } else { cell[l] };
        }
    });
    let (k, j) = (key.into_iter().zip(cell))
        .min()
        .expect("at least one lane");
    (j, from_total_order_key(k) as f64)
}

/// Farthest-point (maxmin) seeding over `sample`: the first centroid is a
/// fixed sample row, each next one the row whose distance to its nearest
/// centroid so far is largest (`total_cmp`, ties to the lowest row id).
/// One lane pass of the newest centroid over the sample updates every
/// row's nearest distance and finds the next farthest row. The choice
/// depends only on which rows the sample holds, so the passes run over
/// its distinct rows in ascending id order: repeats would only repeat a
/// distance, and in id order a strict `>` keeps each lane's lowest id on
/// ties. The centroid is the scan's query row here, where the other scans
/// put the store row; each kernel is symmetric in its two rows bit for
/// bit (products commute, and `x − y = −(y − x)` exactly, so their
/// squares agree).
fn seed_centroids(store: &EmbeddingStore, sample: &[u32], n_cells: usize) -> EmbeddingStore {
    let mut centroids = store.empty_like();
    let first = sample[(SEED % sample.len() as u64) as usize];
    push_mean_row(&mut centroids, store, &[first]);
    let mut ids = sample.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let block = LaneBlock::gather(store, ids.len(), |i| ids[i] as usize);
    // Per lane: the row id, and the key of its distance to the nearest
    // centroid so far. Lanes past the last row repeat it, as the block
    // does: the highest id, so it never wins a tie.
    let groups = ids.len().div_ceil(LANES);
    let rows: Vec<[u32; LANES]> = (0..groups)
        .map(|g| std::array::from_fn(|l| ids[(g * LANES + l).min(ids.len() - 1)]))
        .collect();
    let mut mindist = vec![[total_order_key(f32::INFINITY); LANES]; groups];
    for j in 1..n_cells {
        let (mut far_key, mut far_row) = ([i32::MIN; LANES], [0u32; LANES]);
        block.scan(&centroids, j - 1, |g, d| {
            let (m, r) = (&mut mindist[g], &rows[g]);
            for l in 0..LANES {
                m[l] = m[l].min(total_order_key(d[l]));
                let take = g == 0 || m[l] > far_key[l];
                far_key[l] = if take { m[l] } else { far_key[l] };
                far_row[l] = if take { r[l] } else { far_row[l] };
            }
        });
        let (_, far) = (far_key.into_iter().zip(far_row))
            .min_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)))
            .expect("at least one lane");
        push_mean_row(&mut centroids, store, &[far]);
    }
    centroids
}

/// One Lloyd re-average: the mean of each cell's sample rows, given the
/// cell each sample row was assigned (`assigned`, parallel to `sample`).
/// A cell no row chose keeps its previous centroid — deterministic, and
/// the cell simply ends up empty if nothing assigns to it later.
fn refine(
    store: &EmbeddingStore,
    sample: &[u32],
    centroids: &EmbeddingStore,
    assigned: Vec<u32>,
) -> EmbeddingStore {
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); centroids.len()];
    for (&row, cell) in sample.iter().zip(assigned) {
        groups[cell as usize].push(row);
    }
    let mut refined = store.empty_like();
    for (j, group) in groups.iter().enumerate() {
        if group.is_empty() {
            push_mean_row(&mut refined, centroids, &[j as u32]);
        } else {
            push_mean_row(&mut refined, store, group);
        }
    }
    refined
}

/// The cells, from every row's `(nearest cell, raw kernel distance)`:
/// members ascending, each with its bound-space centroid distance.
fn cells_from(
    store: &EmbeddingStore,
    space: &BoundSpace,
    centroids: &EmbeddingStore,
    assigned: Vec<(u32, f64)>,
) -> Vec<IndexCell> {
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); centroids.len()];
    let mut dcx: Vec<Vec<f64>> = vec![Vec::new(); centroids.len()];
    for (i, (cell, raw)) in assigned.into_iter().enumerate() {
        members[cell as usize].push(i as u32);
        dcx[cell as usize].push(space.map(raw));
    }
    match *space {
        // The fused-kernel `dcx` only decided the assignment; the mix
        // space prunes with the two component distances instead.
        BoundSpace::ConvexMix { beta } => members
            .into_iter()
            .enumerate()
            .map(|(j, m)| mix_cell(store, centroids, beta, j, m))
            .collect(),
        _ => members
            .into_iter()
            .zip(dcx)
            .map(|(m, d)| IndexCell::new(m, d))
            .collect(),
    }
}

/// The training sample and the cell count, or `None` when the store gets
/// no cells (empty, or nothing to prune with).
fn training_plan(
    store: &EmbeddingStore,
    space: &BoundSpace,
    params: &IndexParams,
) -> Option<(Vec<u32>, usize)> {
    let n = store.len();
    if n == 0 || !space.prunes() {
        return None;
    }
    assert!(
        n <= u32::MAX as usize,
        "index supports at most 2^32 - 1 rows"
    );
    let n_cells = params.cells_for(n);
    let pool = training_pool(store);
    let sample = training_sample(pool.len(), TRAIN_SAMPLE.max(n_cells), SEED)
        .into_iter()
        .map(|i| pool[i as usize])
        .collect();
    Some((sample, n_cells))
}

/// Partitions `store` into cells per `params` (module docs) on at most
/// `threads` threads: one centroid row per cell, same layout as the
/// store, the lane copy of those rows that the final assignment scanned
/// (the query's cell ranking scans it too), and the cells parallel to
/// them.
pub(crate) fn build_cells(
    store: &EmbeddingStore,
    space: &BoundSpace,
    params: &IndexParams,
    threads: usize,
) -> (EmbeddingStore, LaneBlock, Vec<IndexCell>) {
    let Some((sample, n_cells)) = training_plan(store, space, params) else {
        let centroids = store.empty_like();
        let lanes = LaneBlock::gather(&centroids, 0, |j| j);
        return (centroids, lanes, Vec::new());
    };
    let workers = |items: usize| default_threads(items).min(threads);
    let mut centroids = seed_centroids(store, &sample, n_cells);
    for _ in 0..LLOYD_ITERS {
        let block = LaneBlock::gather(&centroids, n_cells, |j| j);
        let assigned = parallel_map(sample.len(), workers(sample.len()), |si| {
            nearest_centroid(&block, store, sample[si] as usize).0
        });
        centroids = refine(store, &sample, &centroids, assigned);
    }
    let block = LaneBlock::gather(&centroids, n_cells, |j| j);
    let n = store.len();
    let assigned = parallel_map(n, workers(n), |i| nearest_centroid(&block, store, i));
    let cells = cells_from(store, space, &centroids, assigned);
    (centroids, block, cells)
}

#[cfg(test)]
mod tests {
    use super::super::super::kernel;
    use super::super::super::store::tests::store_with_rows;
    use super::super::tests::clustered_store;
    use super::super::ProbeStats;
    use super::*;
    use crate::config::PluginVariant;
    use traj_core::topk::TopK;

    /// The build as it was before the lane kernel, one distance at a
    /// time: nearest centroid through a `TopK` of one, seeding through
    /// one kernel binding per (row, centroid) pair.
    fn scalar_build_cells(
        store: &EmbeddingStore,
        space: &BoundSpace,
        params: &IndexParams,
    ) -> (EmbeddingStore, Vec<IndexCell>) {
        let Some((sample, n_cells)) = training_plan(store, space, params) else {
            return (store.empty_like(), Vec::new());
        };
        let nearest = |centroids: &EmbeddingStore, row: usize| {
            let (mut top, mut stats) = (TopK::new(1), ProbeStats::default());
            kernel::scan_offer_masked(centroids, store, row, None, 0, &mut top, &mut stats);
            let (cell, d) = top.into_sorted()[0];
            (cell as u32, d)
        };
        let mut centroids = store.empty_like();
        let first = sample[(SEED % sample.len() as u64) as usize];
        push_mean_row(&mut centroids, store, &[first]);
        let mut mindist = vec![f64::INFINITY; sample.len()];
        for j in 1..n_cells {
            for (si, &row) in sample.iter().enumerate() {
                let d = kernel::distance_one(&centroids, store, row as usize, j - 1) as f64;
                if d.total_cmp(&mindist[si]).is_lt() {
                    mindist[si] = d;
                }
            }
            let (far, _) = sample
                .iter()
                .enumerate()
                .map(|(si, &row)| (row, mindist[si]))
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("non-empty sample");
            push_mean_row(&mut centroids, store, &[far]);
        }
        for _ in 0..LLOYD_ITERS {
            let assigned = (sample.iter())
                .map(|&row| nearest(&centroids, row as usize).0)
                .collect();
            centroids = refine(store, &sample, &centroids, assigned);
        }
        let assigned = (0..store.len()).map(|i| nearest(&centroids, i)).collect();
        let cells = cells_from(store, space, &centroids, assigned);
        (centroids, cells)
    }

    /// Every bit a build produces: centroid rows, and per cell the
    /// members, pivot distances and radii.
    fn build_bits(
        (centroids, cells): (&EmbeddingStore, &[IndexCell]),
    ) -> (Vec<u32>, Vec<Vec<u64>>) {
        let f32s = (centroids.eu.iter())
            .chain(&centroids.hyper)
            .chain(&centroids.factors);
        let centroid_bits = f32s.map(|v| v.to_bits()).collect();
        let cell_bits = cells
            .iter()
            .map(|c| {
                let members = c.members.iter().map(|&m| m as u64);
                let pivots = (c.dcx.iter().chain(&c.dcx_lo))
                    .chain([&c.radius, &c.radius_lo])
                    .map(|d| d.to_bits());
                members.chain(pivots).collect()
            })
            .collect();
        (centroid_bits, cell_bits)
    }

    /// The lane build is the scalar build, bit for bit: every variant,
    /// cell counts on and off a multiple of the lane width, stores with
    /// exact duplicate rows (ties go to the lowest cell and row id; with
    /// more cells than distinct rows, seeding ties at distance 0), and
    /// stores with non-finite rows — on one thread and on every core.
    #[test]
    fn lane_build_matches_the_scalar_oracle() {
        for variant in PluginVariant::ABLATION {
            let mut tiny = store_with_rows(variant);
            let src = tiny.clone();
            for i in [2, 0, 1, 2, 0, 1] {
                tiny.push_row_from(&src, i);
            }
            let space = BoundSpace::for_store(&tiny);
            for n_cells in 1..=tiny.len() {
                let params = IndexParams {
                    n_cells: Some(n_cells),
                };
                let (centroids, lanes, cells) = build_cells(&tiny, &space, &params, usize::MAX);
                let (oracle_centroids, oracle_cells) = scalar_build_cells(&tiny, &space, &params);
                assert_eq!(
                    build_bits((&centroids, &cells)),
                    build_bits((&oracle_centroids, &oracle_cells)),
                    "{} tiny cells={n_cells}",
                    variant.name()
                );
                assert_eq!(lanes, LaneBlock::gather(&centroids, n_cells, |j| j));
            }
            for seed in 0..4 {
                let mut s = clustered_store(variant, 300, seed % 2 == 1, seed);
                let src = s.clone();
                for i in (0..src.len()).step_by(5) {
                    s.push_row_from(&src, i);
                }
                let space = BoundSpace::for_store(&s);
                assert!(space.prunes(), "{}", variant.name());
                for n_cells in [1, 7, 8, 9, 19, 40] {
                    let params = IndexParams {
                        n_cells: Some(n_cells),
                    };
                    let (oracle_centroids, oracle_cells) = scalar_build_cells(&s, &space, &params);
                    let oracle = build_bits((&oracle_centroids, &oracle_cells));
                    for threads in [1, usize::MAX] {
                        let (centroids, _, cells) = build_cells(&s, &space, &params, threads);
                        assert_eq!(
                            build_bits((&centroids, &cells)),
                            oracle,
                            "{} seed={seed} cells={n_cells} threads={threads}",
                            variant.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn default_cell_count_is_sqrt_n() {
        let p = IndexParams::default();
        assert_eq!(p.cells_for(0), 0);
        assert_eq!(p.cells_for(1), 1);
        assert_eq!(p.cells_for(100), 10);
        assert_eq!(p.cells_for(101), 11);
        let fixed = IndexParams { n_cells: Some(64) };
        assert_eq!(fixed.cells_for(1000), 64);
        assert_eq!(fixed.cells_for(10), 10, "cells clamp to n");
    }

    #[test]
    fn cells_partition_all_rows() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let space = BoundSpace::for_store(&s);
            for n_cells in 1..=3 {
                let params = IndexParams {
                    n_cells: Some(n_cells),
                };
                let (centroids, _, cells) = build_cells(&s, &space, &params, usize::MAX);
                assert_eq!(centroids.len(), n_cells);
                let mut all: Vec<u32> = cells
                    .iter()
                    .flat_map(|c| c.members.iter().copied())
                    .collect();
                all.sort_unstable();
                assert_eq!(all, vec![0, 1, 2], "{} cells={n_cells}", variant.name());
                for c in &cells {
                    assert_eq!(c.members.len(), c.dcx.len());
                    // The second pivot distance exists exactly in the
                    // mix space.
                    let mix = matches!(space, BoundSpace::ConvexMix { .. });
                    assert_eq!(c.dcx_lo.len(), if mix { c.members.len() } else { 0 });
                    assert!(
                        c.members.windows(2).all(|w| w[0] < w[1]),
                        "members ascending"
                    );
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let space = BoundSpace::for_store(&s);
        let p = IndexParams { n_cells: Some(2) };
        let a = build_cells(&s, &space, &p, usize::MAX);
        let b = build_cells(&s, &space, &p, usize::MAX);
        assert_eq!((&a.0, &a.1), (&b.0, &b.1));
        let bits = |cells: &[IndexCell]| -> Vec<(Vec<u32>, Vec<u64>)> {
            cells
                .iter()
                .map(|c| {
                    let pivots = c.dcx.iter().chain(&c.dcx_lo);
                    (c.members.clone(), pivots.map(|d| d.to_bits()).collect())
                })
                .collect()
        };
        assert_eq!(bits(&a.2), bits(&b.2));
    }

    /// A mix cell stores, per member, the two component distances the
    /// component kernels compute against the centroid's own rows — the
    /// values a query's centroid distances are compared with.
    #[test]
    fn mix_cells_store_both_component_pivot_distances() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let space = BoundSpace::for_store(&s);
        let BoundSpace::ConvexMix { beta } = space else {
            panic!("benign fused rows must certify, got {space:?}");
        };
        let (centroids, _, cells) = build_cells(&s, &space, &IndexParams::default(), usize::MAX);
        let lo_space = BoundSpace::LorentzGeodesic { beta };
        for (j, c) in cells.iter().enumerate() {
            for (i, &m) in c.members.iter().enumerate() {
                let m = m as usize;
                let eu = euclidean_f32(s.eu_row(m), centroids.eu_row(j));
                let lo = lorentz_f32(s.hyper_row(m), centroids.hyper_row(j), 1.0);
                assert_eq!(c.dcx[i].to_bits(), (eu as f64).to_bits());
                assert_eq!(c.dcx_lo[i].to_bits(), lo_space.map(lo as f64).to_bits());
            }
            assert!(c.dcx.iter().all(|&d| d <= c.radius));
            assert!(c.dcx_lo.iter().all(|&d| d <= c.radius_lo));
        }
    }

    #[test]
    fn hyperbolic_centroids_stay_on_hyperboloid() {
        let s = store_with_rows(PluginVariant::LorentzCosh);
        let space = BoundSpace::for_store(&s);
        let (centroids, _, _) =
            build_cells(&s, &space, &IndexParams { n_cells: Some(2) }, usize::MAX);
        for j in 0..centroids.len() {
            let h = centroids.hyper_row(j);
            let nsq: f32 = h[1..].iter().map(|v| v * v).sum();
            assert!(
                (h[0] * h[0] - (nsq + 1.0)).abs() < 1e-4,
                "centroid {j} off H(β): {h:?}"
            );
        }
    }

    /// A store with nothing to prune with gets no cells and no k-means:
    /// empty, or a fused store whose factors do not certify.
    #[test]
    fn stores_that_cannot_prune_build_no_cells() {
        let empty = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
        let mut bad = store_with_rows(PluginVariant::FusionDist);
        bad.factors[1] = -1.0;
        assert_eq!(BoundSpace::for_store(&bad), BoundSpace::None);
        for s in [empty, bad] {
            let space = BoundSpace::for_store(&s);
            let (centroids, _, cells) =
                build_cells(&s, &space, &IndexParams { n_cells: Some(2) }, usize::MAX);
            assert!(cells.is_empty() && centroids.is_empty());
            assert!(centroids.same_layout(&s));
        }
    }
}
