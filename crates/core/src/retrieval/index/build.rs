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

use super::super::kernel;
use super::super::store::EmbeddingStore;
use super::bound::{BoundSpace, MixBound};
use super::{IndexCell, ProbeStats};
use crate::distance::{euclidean_f32, lorentz_f32};
use traj_core::parallel::{default_threads, parallel_map};
use traj_core::topk::TopK;

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

/// Nearest centroid of `row`: `(cell, raw kernel distance)`, ties to the
/// lowest cell id (the `TopK` convention).
fn nearest(centroids: &EmbeddingStore, store: &EmbeddingStore, row: usize) -> (usize, f64) {
    let (mut top, mut stats) = (TopK::new(1), ProbeStats::default());
    kernel::scan_offer_masked(centroids, store, row, None, 0, &mut top, &mut stats);
    top.into_sorted()[0]
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

/// Partitions `store` into cells per `params` (module docs): one centroid
/// row per cell, same layout as the store, and the cells parallel to them.
pub(crate) fn build_cells(
    store: &EmbeddingStore,
    space: &BoundSpace,
    params: &IndexParams,
) -> (EmbeddingStore, Vec<IndexCell>) {
    let n = store.len();
    let n_cells = params.cells_for(n);
    if n == 0 || !space.prunes() {
        return (store.empty_like(), Vec::new());
    }
    assert!(
        n <= u32::MAX as usize,
        "index supports at most 2^32 - 1 rows"
    );

    // Deterministic training sample (see [`training_sample`]).
    let sample = training_sample(n, TRAIN_SAMPLE.max(n_cells), SEED);
    let sample_len = sample.len();

    // Farthest-point seeding over the sample.
    let mut centroids = store.empty_like();
    let first = sample[(SEED % sample_len as u64) as usize];
    push_mean_row(&mut centroids, store, &[first]);
    let mut mindist = vec![f64::INFINITY; sample_len];
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

    // Lloyd refinement on the sample.
    for _ in 0..LLOYD_ITERS {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_cells];
        let assigned = parallel_map(sample_len, default_threads(sample_len), |si| {
            nearest(&centroids, store, sample[si] as usize).0
        });
        for (si, cell) in assigned.into_iter().enumerate() {
            groups[cell].push(sample[si]);
        }
        let mut refined = store.empty_like();
        for (j, group) in groups.iter().enumerate() {
            if group.is_empty() {
                // Keep the previous centroid: deterministic, and the cell
                // simply ends up empty if nothing assigns to it below.
                push_mean_row(&mut refined, &centroids, &[j as u32]);
            } else {
                push_mean_row(&mut refined, store, group);
            }
        }
        centroids = refined;
    }

    // Full assignment against the final centroids, recording the
    // bound-space centroid distance each member will be pruned with.
    let assigned: Vec<(u32, f64)> = parallel_map(n, default_threads(n), |i| {
        let (cell, raw) = nearest(&centroids, store, i);
        (cell as u32, space.map(raw))
    });
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_cells];
    let mut dcx: Vec<Vec<f64>> = vec![Vec::new(); n_cells];
    for (i, (cell, d)) in assigned.into_iter().enumerate() {
        members[cell as usize].push(i as u32);
        dcx[cell as usize].push(d);
    }
    let cells = match *space {
        // The fused-kernel `dcx` only decided the assignment; the mix
        // space prunes with the two component distances instead.
        BoundSpace::ConvexMix { beta } => members
            .into_iter()
            .enumerate()
            .map(|(j, m)| mix_cell(store, &centroids, beta, j, m))
            .collect(),
        _ => members
            .into_iter()
            .zip(dcx)
            .map(|(m, d)| IndexCell::new(m, d))
            .collect(),
    };
    (centroids, cells)
}

#[cfg(test)]
mod tests {
    use super::super::super::store::tests::store_with_rows;
    use super::*;
    use crate::config::PluginVariant;

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
                let (centroids, cells) = build_cells(&s, &space, &params);
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
        let a = build_cells(&s, &space, &p);
        let b = build_cells(&s, &space, &p);
        assert_eq!(a.0, b.0);
        let bits = |cells: &[IndexCell]| -> Vec<(Vec<u32>, Vec<u64>)> {
            cells
                .iter()
                .map(|c| {
                    let pivots = c.dcx.iter().chain(&c.dcx_lo);
                    (c.members.clone(), pivots.map(|d| d.to_bits()).collect())
                })
                .collect()
        };
        assert_eq!(bits(&a.1), bits(&b.1));
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
        let (centroids, cells) = build_cells(&s, &space, &IndexParams::default());
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
        let (centroids, _) = build_cells(&s, &space, &IndexParams { n_cells: Some(2) });
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
            let (centroids, cells) = build_cells(&s, &space, &IndexParams { n_cells: Some(2) });
            assert!(cells.is_empty() && centroids.is_empty());
            assert!(centroids.same_layout(&s));
        }
    }
}
