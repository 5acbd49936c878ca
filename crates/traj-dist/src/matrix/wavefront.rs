//! Wavefront-batched DP kernels: B pairs evaluated in lockstep.
//!
//! The scalar DP kernels ([`crate::dtw::dtw`], [`crate::erp::erp`],
//! [`crate::edr::edr`], [`crate::frechet::discrete_frechet`],
//! [`crate::lcss::lcss_distance`]) walk their recurrence row by row, so
//! each cell's `min` chain is a serial dependency and the compiler cannot
//! vectorize across cells. This module walks the same recurrence along
//! anti-diagonals, the *wavefront* shape of GPU trajectory kernels ported
//! to CPU SIMD: all cells on the anti-diagonal `i + j = it` of a DP table
//! depend only on diagonals `it−1` and `it−2`, so a *batch* of B pairs can
//! advance one diagonal per step with the B lanes laid out innermost —
//! a branch-light loop over independent f64 lanes that LLVM turns into
//! packed `vminpd`/`vsqrtpd` under the AVX2 path selected at runtime.
//!
//! Memory is a flat 3-diagonal rolling buffer of width `(M_max+1)·B`
//! (three [`Vec<f64>`]s rotated by swap), matching the scalar kernels'
//! O(min(n,m)) discipline per lane.
//!
//! ## Numerical contract
//!
//! The batched path is **bit-identical** to the scalar kernels, not merely
//! close, by construction: both drivers are generic over the measure's one
//! `Cell` (`crate::dp`), so each lane evaluates the scalar kernel's own
//! boundary, cell and finish expressions.
//!
//! * Each cell receives the same operands in the same roles (`diag`, `up`,
//!   `left`, `a_i`, `b_j`); per-point terms (ERP's gap costs) and the
//!   boundary prefix sums are computed by the same `Cell` methods in the
//!   same order;
//! * `+`/`−`/`*`/`sqrt` are correctly rounded and never reassociated
//!   across lanes (there is no horizontal reduction), and Rust never fuses
//!   into FMA, so the AVX2 and portable instantiations agree too;
//! * the `Cell`'s operand swap (DTW keeps the shorter trajectory inner) is
//!   applied per lane before batching, so even the operand *orientation*
//!   matches the scalar kernel;
//! * padding lanes to the bucket's (N_max, M_max) only writes cells with
//!   `i > n_l` or `j > m_l`, which no real cell ever reads (dependencies
//!   flow from strictly smaller indices), and each lane's result is
//!   captured from its own final diagonal `n_l + m_l`.
//!
//! **Squared domain.** Discrete Fréchet here, and the scalar SSPD,
//! Hausdorff and Fréchet kernels, compare squared distances and take one
//! `sqrt` at the end. That is exact, not approximate: `sqrt` is correctly
//! rounded, hence monotone non-decreasing, so for finite non-negative
//! inputs `sqrt(min(x, y)) == min(sqrt(x), sqrt(y))` and
//! `sqrt(max(x, y)) == max(sqrt(x), sqrt(y))` bit for bit, and by
//! induction over a `min`/`max` recurrence the squared-domain result's
//! `sqrt` is the per-cell-`sqrt` result.
//!
//! Trajectory coordinates are validated finite at construction
//! ([`traj_core::Trajectory::new`] rejects NaN/∞), so the NaN caveat on
//! `f64::min` cannot trigger. A NaN *tolerance* (EDR, LCSS) is no
//! exception to bit identity either: the shared match test is false for
//! it, in both tiers. The differential suite in
//! `tests/wavefront_differential.rs` asserts bit equality; should a future
//! SIMD backend (e.g. FMA contraction) break exact replication, the
//! documented fallback contract is a relative error ≤ 1e-12 per entry —
//! tested independently so the tolerance stays honest. Because results are
//! bit-identical, [`super::builder::MatrixBuilder`] cache fingerprints
//! deliberately exclude the schedule: a matrix built through lockstep
//! groups is byte-interchangeable with one built by the scalar oracle.

use crate::dp::{with_cell, Cell, Pt};
use crate::measure::Measure;
use crate::simd;
use traj_core::Trajectory;

/// Target lanes per lockstep group: 8 f64 lanes = two AVX2 vectors (or one
/// AVX-512 vector) per DP cell step, enough to hide the `vsqrtpd` latency
/// without blowing the diagonal working set out of L1.
pub const LANES: usize = 8;

/// Groups smaller than this fall back to the scalar kernel — a lockstep
/// "batch" of one pays the transpose and padding for no lane parallelism.
const MIN_GROUP: usize = 2;

/// Minimum fraction of real (unpadded) DP area per group. Length-sorted
/// buckets are near-uniform, but a group straddling two length regimes
/// would burn most of its lanes on padding; such groups run scalar.
const MIN_FILL: f64 = 0.5;

/// A partition of pair indices into lockstep groups plus scalar
/// stragglers, produced by [`plan_batches`]: every input index appears
/// exactly once.
///
/// The plan is one array of `u64` words, 8 bytes per pair: each word packs
/// a pair's length key above its index, so sorting the words buckets pairs
/// by length. Groups come first ([`LANES`] words each, only the last may
/// be shorter), stragglers after.
#[derive(Debug)]
pub(crate) struct BatchPlan {
    words: Vec<u64>,
    /// Words in the group prefix.
    batched: usize,
    /// Low bits of a word that hold the pair index.
    index_bits: u32,
}

impl BatchPlan {
    fn index(&self, word: u64) -> usize {
        (word & low_mask(self.index_bits)) as usize
    }

    /// Number of lockstep groups.
    pub(crate) fn groups(&self) -> usize {
        self.batched.div_ceil(LANES)
    }

    /// Pair indices of group `g`.
    pub(crate) fn group(&self, g: usize) -> impl Iterator<Item = usize> + '_ {
        let end = ((g + 1) * LANES).min(self.batched);
        self.words[g * LANES..end].iter().map(|&w| self.index(w))
    }

    /// Number of pairs that run through the scalar kernels instead.
    pub(crate) fn stragglers(&self) -> usize {
        self.words.len() - self.batched
    }

    /// Pair index of straggler `s`.
    pub(crate) fn straggler(&self, s: usize) -> usize {
        self.index(self.words[self.batched + s])
    }
}

/// The low `bits` bits set.
fn low_mask(bits: u32) -> u64 {
    1u64.checked_shl(bits).map_or(u64::MAX, |b| b - 1)
}

/// The bucketing key for a pair: its table shape, after the measure's
/// operand orientation (DTW keeps the shorter trajectory inner).
#[inline]
pub(crate) fn pair_len_key(measure: &Measure, a: &Trajectory, b: &Trajectory) -> (usize, usize) {
    let (rows, cols) = with_cell!(measure, c => c.orient(a, b), _ => (a, b));
    (rows.len(), cols.len())
}

/// Buckets pairs by length for lockstep execution: sort pair indices by
/// their `(rows, cols)` key (`keys` yields pair `p`'s key at position
/// `p`), chunk into [`LANES`]-sized groups, and demote groups that are
/// too small (`MIN_GROUP`) or too ragged (`MIN_FILL`) to stragglers.
/// Deterministic: input order breaks key ties.
///
/// The index takes the bits it needs and each length the half of what is
/// left, saturating; a saturated length (millions of points) only coarsens
/// the grouping, and any grouping is bit-identical (module contract).
pub(crate) fn plan_batches(keys: impl ExactSizeIterator<Item = (usize, usize)>) -> BatchPlan {
    let index_bits = usize::BITS - keys.len().saturating_sub(1).leading_zeros();
    let len_bits = (64 - index_bits) / 2;
    let cap = low_mask(len_bits);
    let mut words: Vec<u64> = keys
        .enumerate()
        .map(|(p, (rows, cols))| {
            let (rows, cols) = ((rows as u64).min(cap), (cols as u64).min(cap));
            (rows << (len_bits + index_bits)) | (cols << index_bits) | p as u64
        })
        .collect();
    words.sort_unstable();

    // Lengths as f64: the fill check multiplies three of them, which
    // saturated lengths would overflow in integers.
    let lens = |w: u64| {
        let rows = (w >> (len_bits + index_bits)) as f64;
        (rows, ((w >> index_bits) & cap) as f64)
    };
    let mut batched = 0;
    for start in (0..words.len()).step_by(LANES) {
        let end = (start + LANES).min(words.len());
        let chunk = &words[start..end];
        if chunk.len() < MIN_GROUP {
            continue;
        }
        let n_max = chunk.iter().map(|&w| lens(w).0).fold(0.0, f64::max);
        let m_max = chunk.iter().map(|&w| lens(w).1).fold(0.0, f64::max);
        let real: f64 = chunk.iter().map(|&w| lens(w).0 * lens(w).1).sum();
        if real / (chunk.len() as f64 * n_max * m_max) < MIN_FILL {
            continue;
        }
        // Swap the group down to the end of the prefix. Everything between
        // the prefix and `start` is demoted, and the gap is a multiple of
        // LANES, so the two ranges never overlap and the group keeps its
        // order.
        for k in 0..end - start {
            words.swap(batched + k, start + k);
        }
        batched += end - start;
    }
    BatchPlan {
        words,
        batched,
        index_bits,
    }
}

/// One axis of a lockstep group (the row points `a_i` or the column
/// points `b_j` of every lane), SoA-transposed and padded.
///
/// [`Pt`] fields live at `k * lanes + lane` so the innermost loop strides
/// by one lane. Short lanes are padded by repeating their last point:
/// padded cells never feed a real cell (see the module contract), and the
/// repeats keep every arithmetic result finite.
struct Axis {
    /// Points per lane after padding.
    len: usize,
    x: Vec<f64>,
    y: Vec<f64>,
    gap: Vec<f64>,
    /// The boundary cells `dp[k][0]` (rows) or `dp[0][k]` (columns),
    /// `k = 0..=len`, from [`Cell::edge`].
    edge: Vec<f64>,
}

impl Axis {
    fn new<C: Cell>(cell: C, trajs: &[&Trajectory]) -> Axis {
        let lanes = trajs.len();
        let len = trajs.iter().map(|t| t.len()).max().unwrap_or(1);
        let mut axis = Axis {
            len,
            x: vec![0.0; len * lanes],
            y: vec![0.0; len * lanes],
            gap: vec![0.0; len * lanes],
            edge: vec![0.0; (len + 1) * lanes],
        };
        for (l, t) in trajs.iter().enumerate() {
            let pts = t.points();
            for k in 0..len {
                let p = cell.pt(&pts[k.min(pts.len() - 1)]);
                let at = k * lanes + l;
                axis.x[at] = p.x;
                axis.y[at] = p.y;
                axis.gap[at] = p.gap;
                // Padded tail entries keep accumulating harmlessly: no
                // real cell reads them.
                axis.edge[at + lanes] = cell.edge(k + 1, axis.edge[at], p);
            }
        }
        axis
    }

    /// Point `k` (0-based) of every lane, as `[x, y, gap]` slices.
    #[inline(always)]
    fn point(&self, k: usize, lanes: usize) -> [&[f64]; 3] {
        let at = k * lanes..(k + 1) * lanes;
        [&self.x[at.clone()], &self.y[at.clone()], &self.gap[at]]
    }
}

/// A lockstep group's inputs: each pair in the cell's orientation, its
/// row and column points transposed, and its table shape.
struct Group {
    rows: Axis,
    cols: Axis,
    /// Per-lane table shape `(n_l, m_l)`.
    dims: Vec<(usize, usize)>,
}

impl Group {
    fn new<C: Cell>(cell: C, pairs: &[(&Trajectory, &Trajectory)]) -> Group {
        let (rows, cols): (Vec<_>, Vec<_>) = pairs.iter().map(|&(a, b)| cell.orient(a, b)).unzip();
        Group {
            rows: Axis::new(cell, &rows),
            cols: Axis::new(cell, &cols),
            dims: rows
                .iter()
                .zip(&cols)
                .map(|(a, b)| (a.len(), b.len()))
                .collect(),
        }
    }
}

/// One interior anti-diagonal position for all lanes: `cur[l]` from the
/// three neighbours and the lane's two points.
#[inline(always)]
fn lane_cells<C: Cell>(
    cell: C,
    cur: &mut [f64],
    [diag, up, left]: [&[f64]; 3],
    [ax, ay, ag]: [&[f64]; 3],
    [bx, by, bg]: [&[f64]; 3],
) {
    let n = cur.len();
    let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
    let (ax, ay, ag) = (&ax[..n], &ay[..n], &ag[..n]);
    let (bx, by, bg) = (&bx[..n], &by[..n], &bg[..n]);
    for l in 0..n {
        let a = Pt {
            x: ax[l],
            y: ay[l],
            gap: ag[l],
        };
        let b = Pt {
            x: bx[l],
            y: by[l],
            gap: bg[l],
        };
        cur[l] = cell.cell(diag[l], up[l], left[l], a, b);
    }
}

/// The wavefront driver: iterates anti-diagonals `it = 1..=n_max+m_max`
/// over a rotating 3-diagonal buffer, writing boundary cells from the
/// precomputed `col0`/`row0` arrays and capturing each lane's final cell
/// from its own final diagonal. `#[inline(always)]` so
/// [`simd::widest`] compiles the whole loop nest — not just a call —
/// under the widened ISA.
#[inline(always)]
fn run_diagonals<C: Cell>(cell: C, group: &Group, out: &mut [f64]) {
    let (a, b, dims) = (&group.rows, &group.cols, &group.dims);
    let lanes = dims.len();
    let width = (b.len + 1) * lanes;
    // prev2/prev/cur hold diagonals it−2 / it−1 / it; position p on a
    // diagonal holds cell (it−p, p) for all lanes. Diagonal 0 is the
    // origin, 0 for every cell.
    let mut prev2 = vec![0.0f64; width];
    let mut prev = vec![0.0f64; width];
    let mut cur = vec![0.0f64; width];

    for it in 1..=(a.len + b.len) {
        if it <= a.len {
            cur[..lanes].copy_from_slice(&a.edge[it * lanes..(it + 1) * lanes]);
        }
        if it <= b.len {
            cur[it * lanes..(it + 1) * lanes]
                .copy_from_slice(&b.edge[it * lanes..(it + 1) * lanes]);
        }
        let j_lo = it.saturating_sub(a.len).max(1);
        let j_hi = (it - 1).min(b.len);
        for j in j_lo..=j_hi {
            let i = it - j;
            lane_cells(
                cell,
                &mut cur[j * lanes..(j + 1) * lanes],
                [
                    &prev2[(j - 1) * lanes..],
                    &prev[j * lanes..],
                    &prev[(j - 1) * lanes..],
                ],
                a.point(i - 1, lanes),
                b.point(j - 1, lanes),
            );
        }
        for (l, &(n, m)) in dims.iter().enumerate() {
            if n + m == it {
                out[l] = cur[m * lanes + l];
            }
        }
        // Rotate (prev2, prev, cur) ← (prev, cur, scratch).
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
}

/// One lockstep group through the driver, finished per lane.
/// `#[inline(always)]` so [`simd::widest`] compiles all of it as one
/// function that owns the group and the output. Run through a closure
/// that captures `&group` and `&mut out` instead, the driver's per-cell
/// loop reloads the group's fields and runs 5–10 % slower.
#[inline(always)]
fn lockstep<C: Cell>(cell: C, pairs: &[(&Trajectory, &Trajectory)]) -> Vec<f64> {
    let group = Group::new(cell, pairs);
    let mut out = vec![0.0; pairs.len()];
    run_diagonals(cell, &group, &mut out);
    for (d, &(n, m)) in out.iter_mut().zip(&group.dims) {
        *d = cell.finish(*d, n, m);
    }
    out
}

/// Evaluates one lockstep group of pairs (any runtime batch size ≥ 1,
/// ragged lengths allowed) and returns the distances in input order.
/// Measures without a batched kernel fall back to per-pair scalar calls.
pub fn eval_batch(measure: &Measure, pairs: &[(&Trajectory, &Trajectory)]) -> Vec<f64> {
    if pairs.is_empty() {
        return Vec::new();
    }
    with_cell!(measure, c => simd::widest(|| lockstep(c, pairs)),
        _ => pairs.iter().map(|&(a, b)| measure.distance(a, b)).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureKind;

    fn t(coords: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(coords).unwrap()
    }

    /// Deterministic wiggly trajectory of a given length and phase.
    fn wiggle(len: usize, phase: f64) -> Trajectory {
        let pts: Vec<(f64, f64)> = (0..len)
            .map(|k| {
                let x = k as f64 * 0.13 + phase;
                (x, (x * 1.7 + phase).sin() * 0.4)
            })
            .collect();
        Trajectory::from_xy(&pts).unwrap()
    }

    fn supported() -> [Measure; 5] {
        [
            MeasureKind::Dtw.measure(),
            MeasureKind::Erp.measure(),
            MeasureKind::Edr.measure().with_edr_eps(0.2),
            MeasureKind::DiscreteFrechet.measure(),
            Measure {
                lcss_eps: 0.2,
                ..MeasureKind::Lcss.measure()
            },
        ]
    }

    fn plan(lens: &[(usize, usize)]) -> BatchPlan {
        plan_batches(lens.iter().copied())
    }

    #[test]
    fn plan_partitions_exactly_once() {
        let lens: Vec<(usize, usize)> = (0..23).map(|i| (3 + i % 5, 2 + (i * 7) % 6)).collect();
        let plan = plan(&lens);
        let mut seen = vec![0usize; lens.len()];
        for g in 0..plan.groups() {
            let members: Vec<usize> = plan.group(g).collect();
            assert!((MIN_GROUP..=LANES).contains(&members.len()));
            // A group is one run of the key order.
            assert!(members.windows(2).all(|w| lens[w[0]] <= lens[w[1]]));
            members.iter().for_each(|&p| seen[p] += 1);
        }
        (0..plan.stragglers()).for_each(|s| seen[plan.straggler(s)] += 1);
        assert!(
            seen.iter().all(|&c| c == 1),
            "partition not exact: {seen:?}"
        );
    }

    #[test]
    fn plan_demotes_singletons_and_ragged_groups() {
        // A single pair can't form a lockstep group.
        let one = plan(&[(5, 5)]);
        assert_eq!(
            (one.groups(), one.stragglers(), one.straggler(0)),
            (0, 1, 0)
        );
        // A chunk of tiny pairs dragged to a huge pad by one long pair
        // fails the fill check and runs scalar.
        let mut lens = vec![(2, 2); 7];
        lens.push((100, 100));
        let ragged = plan(&lens);
        assert_eq!((ragged.groups(), ragged.stragglers()), (0, 8));
        // Uniform lengths batch fully.
        let uniform = plan(&[(10, 10); 16]);
        assert_eq!((uniform.groups(), uniform.stragglers()), (2, 0));
        // A demoted chunk ahead of a group leaves the group whole.
        let mut lens = vec![(2, 2); 7];
        lens.push((100, 100));
        lens.extend([(101, 101); 3]);
        let mixed = plan(&lens);
        assert_eq!((mixed.groups(), mixed.stragglers()), (1, 8));
        assert_eq!(mixed.group(0).collect::<Vec<_>>(), vec![8, 9, 10]);
    }

    #[test]
    fn plan_holds_one_word_per_pair_and_saturates_huge_lengths() {
        let plan = plan(&[(usize::MAX, 3), (usize::MAX, 3), (7, usize::MAX)]);
        assert_eq!(plan.words.len(), 3);
        assert_eq!(std::mem::size_of_val(&plan.words[0]), 8);
        let mut all: Vec<usize> = (0..plan.groups()).flat_map(|g| plan.group(g)).collect();
        all.extend((0..plan.stragglers()).map(|s| plan.straggler(s)));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn batch_of_one_matches_scalar_bits() {
        let a = wiggle(9, 0.0);
        let b = wiggle(13, 0.5);
        for m in supported() {
            let batched = eval_batch(&m, &[(&a, &b)]);
            assert_eq!(batched[0].to_bits(), m.distance(&a, &b).to_bits());
        }
    }

    #[test]
    fn ragged_batch_matches_scalar_bits() {
        let trajs: Vec<Trajectory> = [1usize, 2, 3, 5, 8, 13, 21, 34]
            .iter()
            .enumerate()
            .map(|(i, &len)| wiggle(len, i as f64 * 0.3))
            .collect();
        let pairs: Vec<(&Trajectory, &Trajectory)> = (0..trajs.len())
            .map(|i| (&trajs[i], &trajs[(i + 3) % trajs.len()]))
            .collect();
        for m in supported() {
            let batched = eval_batch(&m, &pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    batched[k].to_bits(),
                    m.distance(a, b).to_bits(),
                    "{} pair {k}",
                    m.kind.name()
                );
            }
        }
    }

    #[test]
    fn length_one_lanes_are_exact() {
        let single = t(&[(0.4, -0.2)]);
        let multi = wiggle(6, 0.1);
        let pairs: Vec<(&Trajectory, &Trajectory)> = vec![
            (&single, &single),
            (&single, &multi),
            (&multi, &single),
            (&multi, &multi),
        ];
        for m in supported() {
            let batched = eval_batch(&m, &pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    batched[k].to_bits(),
                    m.distance(a, b).to_bits(),
                    "{} pair {k}",
                    m.kind.name()
                );
            }
        }
    }

    #[test]
    fn distance_batch_covers_groups_and_stragglers() {
        // 19 pairs: two full groups of 8, a 3-pair group or stragglers —
        // either way every result must be scalar-exact and in order.
        let trajs: Vec<Trajectory> = (0..19)
            .map(|i| wiggle(4 + i % 9, i as f64 * 0.21))
            .collect();
        let pairs: Vec<(&Trajectory, &Trajectory)> = (0..19)
            .map(|i| (&trajs[i], &trajs[(i * 5 + 1) % 19]))
            .collect();
        for m in supported() {
            let got = m.distance_batch(&pairs);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_eq!(
                    got[k].to_bits(),
                    m.distance(a, b).to_bits(),
                    "{} pair {k}",
                    m.kind.name()
                );
            }
        }
    }

    #[test]
    fn unsupported_measures_fall_back_to_scalar() {
        let a = wiggle(5, 0.0);
        let b = wiggle(7, 0.4);
        let m = MeasureKind::Sspd.measure();
        assert!(!m.supports_batch());
        let got = m.distance_batch(&[(&a, &b)]);
        assert_eq!(got[0].to_bits(), m.distance(&a, &b).to_bits());
    }

    /// On an AVX2 host the runtime dispatch never takes the portable
    /// `lockstep`, so nothing else runs it: run both instantiations
    /// on the same ragged group and require equal bits (and scalar bits).
    /// The AVX2 half is skipped where the CPU lacks AVX2.
    #[test]
    fn portable_and_avx2_paths_agree_bit_for_bit() {
        let trajs: Vec<Trajectory> = [1usize, 2, 3, 5, 8, 13, 21, 34]
            .iter()
            .enumerate()
            .map(|(i, &len)| wiggle(len, i as f64 * 0.3))
            .collect();
        let pairs: Vec<(&Trajectory, &Trajectory)> = (0..trajs.len())
            .map(|i| (&trajs[i], &trajs[(i + 5) % trajs.len()]))
            .collect();
        for m in supported() {
            let (portable, wide) = with_cell!(&m, c => both_paths(c, &pairs),
                _ => unreachable!("supported() holds DP measures"),
            );
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let scalar: Vec<f64> = pairs.iter().map(|&(a, b)| m.distance(a, b)).collect();
            assert_eq!(bits(&portable), bits(&scalar), "{} portable", m.kind.name());
            if let Some(wide) = wide {
                assert_eq!(bits(&wide), bits(&portable), "{} avx2", m.kind.name());
            }
        }
    }

    /// Finished distances through the portable driver and, where the CPU
    /// has AVX2, through the AVX2 instantiation.
    fn both_paths<C: Cell>(
        cell: C,
        pairs: &[(&Trajectory, &Trajectory)],
    ) -> (Vec<f64>, Option<Vec<f64>>) {
        let wide = simd::has_avx2().then(|| simd::widest(|| lockstep(cell, pairs)));
        (lockstep(cell, pairs), wide)
    }

    #[test]
    fn dtw_swapped_operands_share_lane_results() {
        // DTW re-orients each lane (long, short): both orderings of the
        // same pair land on identical bits, matching the scalar kernel.
        let a = wiggle(11, 0.0);
        let b = wiggle(4, 0.9);
        let m = MeasureKind::Dtw.measure();
        let got = eval_batch(&m, &[(&a, &b), (&b, &a)]);
        assert_eq!(got[0].to_bits(), got[1].to_bits());
        assert_eq!(got[0].to_bits(), crate::dtw::dtw(&a, &b).to_bits());
    }
}
