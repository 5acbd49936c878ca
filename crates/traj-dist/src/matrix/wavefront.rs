//! Wavefront-batched DP kernels: B pairs evaluated in lockstep.
//!
//! The scalar DP kernels ([`crate::dtw::dtw`], [`crate::erp::erp`],
//! [`crate::edr::edr`], [`crate::frechet::discrete_frechet`])
//! walk the recurrence row by row, so each cell's `min` chain is a serial
//! dependency and the compiler cannot vectorize across cells. This module
//! ports the anti-diagonal *wavefront* shape of GPU trajectory kernels to
//! CPU SIMD: all cells on the anti-diagonal `i + j = it` of a DP table
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
//! close. Each lane replicates the scalar cell expression exactly:
//!
//! * the same operands in the same order (`cost + diag.min(up).min(left)`
//!   for DTW, the `match/del_a/del_b` min chain for ERP, the integer
//!   recurrence for EDR, which is exact in f64 for any real edit count,
//!   `diag.min(up).min(left).max(d²)` for discrete Fréchet);
//! * `f64::min`/`max` are exact and, absent NaN, order-independent;
//!   `+`/`−`/`*`/`sqrt` are correctly rounded and never reassociated
//!   across lanes (there is no horizontal reduction);
//! * DTW's long/short operand swap is applied per lane before batching,
//!   so even the operand *orientation* matches the scalar kernel;
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
//! `f64::min` cannot trigger. The differential suite in
//! `tests/wavefront_differential.rs` asserts bit equality; should a future
//! SIMD backend (e.g. FMA contraction) break exact replication, the
//! documented fallback contract is a relative error ≤ 1e-12 per entry —
//! tested independently so the tolerance stays honest. Because results are
//! bit-identical, [`super::builder::MatrixBuilder`] cache fingerprints
//! deliberately exclude the schedule: a matrix built through lockstep
//! groups is byte-interchangeable with one built by the scalar oracle.

use crate::measure::{Measure, MeasureKind};
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

/// The bucketing key for a pair: DTW swaps operands so the shorter
/// trajectory is the inner axis, so its buckets are keyed on the swapped
/// shape; everything else buckets on the raw shape.
#[inline]
pub(crate) fn pair_len_key(measure: &Measure, a: &Trajectory, b: &Trajectory) -> (usize, usize) {
    match measure.kind {
        MeasureKind::Dtw => (a.len().max(b.len()), a.len().min(b.len())),
        _ => (a.len(), b.len()),
    }
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

/// SoA-transposed, padded inputs for one lockstep group.
///
/// Coordinates live at `row * lanes + lane` so the innermost loop strides
/// by one lane. Short lanes are padded by repeating their last point:
/// padded cells never feed a real cell (see the module contract), and the
/// repeats keep every arithmetic result finite.
struct BatchCtx {
    lanes: usize,
    n_max: usize,
    m_max: usize,
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
    /// ERP gap costs `d(a_i, g)` / `d(b_j, g)` per lane (zeros for
    /// measures that don't read them — never loaded by their kernels).
    ga: Vec<f64>,
    gb: Vec<f64>,
    /// Column-0 boundary `dp[i][0]` per lane, `(n_max+1)·lanes`.
    col0: Vec<f64>,
    /// Row-0 boundary `dp[0][j]` per lane, `(m_max+1)·lanes`.
    row0: Vec<f64>,
    /// Per-lane final diagonal `n_l + m_l`.
    fin: Vec<usize>,
    /// Per-lane result column `m_l`.
    mcol: Vec<usize>,
}

fn build_ctx(measure: &Measure, pairs: &[(&Trajectory, &Trajectory)]) -> BatchCtx {
    let lanes = pairs.len();
    // DTW keeps the shorter trajectory on the inner axis, exactly like the
    // scalar kernel, so batched operand orientation matches bit for bit.
    let oriented: Vec<(&Trajectory, &Trajectory)> = pairs
        .iter()
        .map(|&(a, b)| match measure.kind {
            MeasureKind::Dtw if b.len() > a.len() => (b, a),
            _ => (a, b),
        })
        .collect();
    let n_max = oriented.iter().map(|(a, _)| a.len()).max().unwrap_or(1);
    let m_max = oriented.iter().map(|(_, b)| b.len()).max().unwrap_or(1);

    let mut ax = vec![0.0; n_max * lanes];
    let mut ay = vec![0.0; n_max * lanes];
    let mut bx = vec![0.0; m_max * lanes];
    let mut by = vec![0.0; m_max * lanes];
    let mut ga = vec![0.0; n_max * lanes];
    let mut gb = vec![0.0; m_max * lanes];
    let mut col0 = vec![0.0; (n_max + 1) * lanes];
    let mut row0 = vec![0.0; (m_max + 1) * lanes];
    let mut fin = vec![0usize; lanes];
    let mut mcol = vec![0usize; lanes];

    let erp = measure.kind == MeasureKind::Erp;
    for (l, &(a, b)) in oriented.iter().enumerate() {
        let (ap, bp) = (a.points(), b.points());
        for i in 0..n_max {
            let p = &ap[i.min(ap.len() - 1)];
            ax[i * lanes + l] = p.x;
            ay[i * lanes + l] = p.y;
            if erp {
                ga[i * lanes + l] = p.dist(&measure.erp_gap);
            }
        }
        for j in 0..m_max {
            let q = &bp[j.min(bp.len() - 1)];
            bx[j * lanes + l] = q.x;
            by[j * lanes + l] = q.y;
            if erp {
                gb[j * lanes + l] = q.dist(&measure.erp_gap);
            }
        }
        fin[l] = ap.len() + bp.len();
        mcol[l] = bp.len();
    }

    match measure.kind {
        MeasureKind::Dtw | MeasureKind::DiscreteFrechet => {
            // dp[0][0] = 0, every other boundary cell is +∞ (for Fréchet,
            // cell (1,1) is then `0.max(d²) = d²`, the scalar origin).
            col0[lanes..].fill(f64::INFINITY);
            row0[lanes..].fill(f64::INFINITY);
        }
        MeasureKind::Erp => {
            // Sequential per-lane prefix sums of gap costs, replicating
            // the scalar accumulation order exactly (padded tail entries
            // keep accumulating harmlessly — no real cell reads them).
            for i in 1..=n_max {
                for l in 0..lanes {
                    col0[i * lanes + l] = col0[(i - 1) * lanes + l] + ga[(i - 1) * lanes + l];
                }
            }
            for j in 1..=m_max {
                for l in 0..lanes {
                    row0[j * lanes + l] = row0[(j - 1) * lanes + l] + gb[(j - 1) * lanes + l];
                }
            }
        }
        MeasureKind::Edr => {
            // dp[i][0] = i, dp[0][j] = j (delete everything).
            for i in 1..=n_max {
                col0[i * lanes..(i + 1) * lanes].fill(i as f64);
            }
            for j in 1..=m_max {
                row0[j * lanes..(j + 1) * lanes].fill(j as f64);
            }
        }
        _ => unreachable!("eval_batch gates on supports_batch()"),
    }

    BatchCtx {
        lanes,
        n_max,
        m_max,
        ax,
        ay,
        bx,
        by,
        ga,
        gb,
        col0,
        row0,
        fin,
        mcol,
    }
}

/// One interior anti-diagonal position for all lanes: computes `cur[l]`
/// from the three DP neighbors and the lane's point data. All slices have
/// exactly `lanes` elements; implementations must replicate the scalar
/// kernel's cell expression operand for operand (see the module contract).
trait DiagKernel {
    #[allow(clippy::too_many_arguments)]
    fn lane_cells(
        cur: &mut [f64],
        diag: &[f64],
        up: &[f64],
        left: &[f64],
        ax: &[f64],
        ay: &[f64],
        bx: &[f64],
        by: &[f64],
        ga: &[f64],
        gb: &[f64],
        eps: f64,
    );
}

struct DtwKernel;

impl DiagKernel for DtwKernel {
    #[inline(always)]
    fn lane_cells(
        cur: &mut [f64],
        diag: &[f64],
        up: &[f64],
        left: &[f64],
        ax: &[f64],
        ay: &[f64],
        bx: &[f64],
        by: &[f64],
        _ga: &[f64],
        _gb: &[f64],
        _eps: f64,
    ) {
        let n = cur.len();
        let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
        let (ax, ay, bx, by) = (&ax[..n], &ay[..n], &bx[..n], &by[..n]);
        for l in 0..n {
            let dx = ax[l] - bx[l];
            let dy = ay[l] - by[l];
            let cost = (dx * dx + dy * dy).sqrt();
            cur[l] = cost + diag[l].min(up[l]).min(left[l]);
        }
    }
}

struct ErpKernel;

impl DiagKernel for ErpKernel {
    #[inline(always)]
    fn lane_cells(
        cur: &mut [f64],
        diag: &[f64],
        up: &[f64],
        left: &[f64],
        ax: &[f64],
        ay: &[f64],
        bx: &[f64],
        by: &[f64],
        ga: &[f64],
        gb: &[f64],
        _eps: f64,
    ) {
        let n = cur.len();
        let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
        let (ax, ay, bx, by) = (&ax[..n], &ay[..n], &bx[..n], &by[..n]);
        let (ga, gb) = (&ga[..n], &gb[..n]);
        for l in 0..n {
            let dx = ax[l] - bx[l];
            let dy = ay[l] - by[l];
            let match_cost = diag[l] + (dx * dx + dy * dy).sqrt();
            let del_a = up[l] + ga[l];
            let del_b = left[l] + gb[l];
            cur[l] = match_cost.min(del_a).min(del_b);
        }
    }
}

struct EdrKernel;

impl DiagKernel for EdrKernel {
    #[inline(always)]
    fn lane_cells(
        cur: &mut [f64],
        diag: &[f64],
        up: &[f64],
        left: &[f64],
        ax: &[f64],
        ay: &[f64],
        bx: &[f64],
        by: &[f64],
        _ga: &[f64],
        _gb: &[f64],
        eps: f64,
    ) {
        let n = cur.len();
        let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
        let (ax, ay, bx, by) = (&ax[..n], &ay[..n], &bx[..n], &by[..n]);
        for l in 0..n {
            // L∞ match test, branchless; edit counts are small integers,
            // exact in f64, so the scalar u32 recurrence is replicated
            // value for value.
            let miss = ((ax[l] - bx[l]).abs() > eps) | ((ay[l] - by[l]).abs() > eps);
            let sub = miss as u8 as f64;
            cur[l] = (diag[l] + sub).min(up[l] + 1.0).min(left[l] + 1.0);
        }
    }
}

struct FrechetKernel;

impl DiagKernel for FrechetKernel {
    #[inline(always)]
    fn lane_cells(
        cur: &mut [f64],
        diag: &[f64],
        up: &[f64],
        left: &[f64],
        ax: &[f64],
        ay: &[f64],
        bx: &[f64],
        by: &[f64],
        _ga: &[f64],
        _gb: &[f64],
        _eps: f64,
    ) {
        let n = cur.len();
        let (diag, up, left) = (&diag[..n], &up[..n], &left[..n]);
        let (ax, ay, bx, by) = (&ax[..n], &ay[..n], &bx[..n], &by[..n]);
        for l in 0..n {
            // Squared domain: `eval_batch` takes the one `sqrt`.
            let dx = ax[l] - bx[l];
            let dy = ay[l] - by[l];
            cur[l] = diag[l].min(up[l]).min(left[l]).max(dx * dx + dy * dy);
        }
    }
}

/// The wavefront driver: iterates anti-diagonals `it = 1..=n_max+m_max`
/// over a rotating 3-diagonal buffer, writing boundary cells from the
/// precomputed `col0`/`row0` arrays and capturing each lane's result from
/// its own final diagonal. `#[inline(always)]` so the `target_feature`
/// wrappers below compile the whole loop nest — not just a call — under
/// the widened ISA.
#[inline(always)]
fn run_diagonals<K: DiagKernel>(ctx: &BatchCtx, eps: f64, out: &mut [f64]) {
    let lanes = ctx.lanes;
    let width = (ctx.m_max + 1) * lanes;
    // prev2/prev/cur hold diagonals it−2 / it−1 / it; position p on a
    // diagonal holds cell (it−p, p) for all lanes.
    let mut prev2 = vec![0.0f64; width];
    let mut prev = vec![0.0f64; width];
    let mut cur = vec![0.0f64; width];
    // Diagonal 0 is the single cell (0,0) = dp origin (0 for all kernels).
    prev[..lanes].copy_from_slice(&ctx.col0[..lanes]);

    for it in 1..=(ctx.n_max + ctx.m_max) {
        if it <= ctx.n_max {
            cur[..lanes].copy_from_slice(&ctx.col0[it * lanes..(it + 1) * lanes]);
        }
        if it <= ctx.m_max {
            cur[it * lanes..(it + 1) * lanes]
                .copy_from_slice(&ctx.row0[it * lanes..(it + 1) * lanes]);
        }
        let j_lo = it.saturating_sub(ctx.n_max).max(1);
        let j_hi = (it - 1).min(ctx.m_max);
        for j in j_lo..=j_hi {
            let i = it - j;
            K::lane_cells(
                &mut cur[j * lanes..(j + 1) * lanes],
                &prev2[(j - 1) * lanes..j * lanes],
                &prev[j * lanes..(j + 1) * lanes],
                &prev[(j - 1) * lanes..j * lanes],
                &ctx.ax[(i - 1) * lanes..i * lanes],
                &ctx.ay[(i - 1) * lanes..i * lanes],
                &ctx.bx[(j - 1) * lanes..j * lanes],
                &ctx.by[(j - 1) * lanes..j * lanes],
                &ctx.ga[(i - 1) * lanes..i * lanes],
                &ctx.gb[(j - 1) * lanes..j * lanes],
                eps,
            );
        }
        for l in 0..lanes {
            if ctx.fin[l] == it {
                out[l] = cur[ctx.mcol[l] * lanes + l];
            }
        }
        // Rotate (prev2, prev, cur) ← (prev, cur, scratch).
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
}

/// AVX2-compiled instantiations of the driver, selected at runtime. The
/// portable `run_diagonals` is the fallback and the semantics reference;
/// these merely recompile the identical IEEE expressions with packed
/// instructions (no FMA contraction — Rust never fuses, so results stay
/// bit-identical across paths).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn dtw(ctx: &BatchCtx, out: &mut [f64]) {
        run_diagonals::<DtwKernel>(ctx, 0.0, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn erp(ctx: &BatchCtx, out: &mut [f64]) {
        run_diagonals::<ErpKernel>(ctx, 0.0, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn edr(ctx: &BatchCtx, eps: f64, out: &mut [f64]) {
        run_diagonals::<EdrKernel>(ctx, eps, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn frechet(ctx: &BatchCtx, out: &mut [f64]) {
        run_diagonals::<FrechetKernel>(ctx, 0.0, out);
    }
}

fn dispatch(measure: &Measure, ctx: &BatchCtx, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        unsafe {
            match measure.kind {
                MeasureKind::Dtw => avx2::dtw(ctx, out),
                MeasureKind::Erp => avx2::erp(ctx, out),
                MeasureKind::Edr => avx2::edr(ctx, measure.edr_eps, out),
                MeasureKind::DiscreteFrechet => avx2::frechet(ctx, out),
                _ => unreachable!("eval_batch gates on supports_batch()"),
            }
        }
        return;
    }
    match measure.kind {
        MeasureKind::Dtw => run_diagonals::<DtwKernel>(ctx, 0.0, out),
        MeasureKind::Erp => run_diagonals::<ErpKernel>(ctx, 0.0, out),
        MeasureKind::Edr => run_diagonals::<EdrKernel>(ctx, measure.edr_eps, out),
        MeasureKind::DiscreteFrechet => run_diagonals::<FrechetKernel>(ctx, 0.0, out),
        _ => unreachable!("eval_batch gates on supports_batch()"),
    }
}

/// Evaluates one lockstep group of pairs (any runtime batch size ≥ 1,
/// ragged lengths allowed) and returns the distances in input order.
/// Measures without a batched kernel fall back to per-pair scalar calls.
pub fn eval_batch(measure: &Measure, pairs: &[(&Trajectory, &Trajectory)]) -> Vec<f64> {
    if pairs.is_empty() {
        return Vec::new();
    }
    if !measure.supports_batch() {
        return pairs.iter().map(|&(a, b)| measure.distance(a, b)).collect();
    }
    let ctx = build_ctx(measure, pairs);
    let mut out = vec![0.0; pairs.len()];
    dispatch(measure, &ctx, &mut out);
    if measure.kind == MeasureKind::DiscreteFrechet {
        // The lockstep Fréchet table is squared (module contract).
        out.iter_mut().for_each(|d| *d = d.sqrt());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn supported() -> [Measure; 4] {
        [
            MeasureKind::Dtw.measure(),
            MeasureKind::Erp.measure(),
            MeasureKind::Edr.measure().with_edr_eps(0.2),
            MeasureKind::DiscreteFrechet.measure(),
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
    /// `run_diagonals`, so nothing else runs it: run both instantiations
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
            let ctx = build_ctx(&m, &pairs);
            let mut portable = vec![0.0; pairs.len()];
            match m.kind {
                MeasureKind::Dtw => run_diagonals::<DtwKernel>(&ctx, 0.0, &mut portable),
                MeasureKind::Erp => run_diagonals::<ErpKernel>(&ctx, 0.0, &mut portable),
                MeasureKind::Edr => run_diagonals::<EdrKernel>(&ctx, m.edr_eps, &mut portable),
                _ => run_diagonals::<FrechetKernel>(&ctx, 0.0, &mut portable),
            }
            // Fréchet's table is squared; `eval_batch` takes the root.
            let finish = |v: &mut [f64]| {
                if m.kind == MeasureKind::DiscreteFrechet {
                    v.iter_mut().for_each(|d| *d = d.sqrt());
                }
            };
            finish(&mut portable);
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            let scalar: Vec<f64> = pairs.iter().map(|&(a, b)| m.distance(a, b)).collect();
            assert_eq!(bits(&portable), bits(&scalar), "{} portable", m.kind.name());
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut wide = vec![0.0; pairs.len()];
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe {
                    match m.kind {
                        MeasureKind::Dtw => avx2::dtw(&ctx, &mut wide),
                        MeasureKind::Erp => avx2::erp(&ctx, &mut wide),
                        MeasureKind::Edr => avx2::edr(&ctx, m.edr_eps, &mut wide),
                        _ => avx2::frechet(&ctx, &mut wide),
                    }
                }
                finish(&mut wide);
                assert_eq!(bits(&wide), bits(&portable), "{} avx2", m.kind.name());
            }
        }
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
