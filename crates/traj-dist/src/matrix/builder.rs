//! The ground-truth matrix construction pipeline.
//!
//! A build is fingerprint → cache → screen → execute → report, and one
//! private executor runs every build's pairs, pairwise or cross:
//!
//! * **One executor over a pair space.** A pairwise build's pairs are the
//!   upper triangle, linearized (`p ↦ (i, j)`, written to `(i, j)` and
//!   `(j, i)`); a cross build's are its cells, row-major. When the
//!   measure has a lockstep kernel ([`Measure::supports_batch`]: DTW,
//!   ERP, EDR, discrete Fréchet, LCSS) and the build prunes nothing, pairs
//!   are bucketed by length and run [`wavefront::LANES`] at a time along
//!   DP anti-diagonals ([`super::wavefront`]); every other pair — the
//!   plan's stragglers, measures without a lockstep kernel (SSPD,
//!   Hausdorff, TP, DITA), pruned builds — goes through a queue of
//!   fixed-size pair batches. Groups and batches are handed out
//!   from one shared work queue
//!   ([`traj_core::parallel::parallel_for_each`]), so the triangular,
//!   length-skewed workload balances across threads. Each work item
//!   evaluates its pairs into a local buffer, then locks the flat output
//!   buffer once and stores them: a worker holds one batch at a time, no
//!   n²-sized staging buffer and no merge pass, and the store is safe
//!   code. Each pair's distance comes from the same kernel arithmetic
//!   and lands in fixed cells, so the result is **bit-identical** to
//!   [`Schedule::Serial`], the single-threaded oracle, at every thread
//!   count.
//! * **Opt-in threshold pruning** ([`MatrixBuilder::prune`],
//!   [`MatrixBuilder::prune_landmark`]): an optional O(k) landmark
//!   lower-bound screen (backed by [`crate::landmark`]) rejects pairs
//!   whose bound already exceeds the threshold before any DP runs, and
//!   survivors get the O(L²) row-min early-abandon DP where the measure
//!   has one (DTW/ERP/EDR). Both are admissible: entries ≤ threshold are
//!   always bit-exact, larger entries may be certified lower bounds (see
//!   [`crate::measure::PrunedDistance`]).
//! * **Persistent checkpoints** ([`MatrixBuilder::cache_dir`]): finished
//!   matrices are stored under a fingerprint of (dataset bits, measure
//!   parameters, shape) in the [`super::cache`] binary format, so
//!   re-runs skip construction entirely and report a
//!   [`CacheOutcome::Hit`]. Fingerprints are **prune-free**: only exact
//!   (unpruned) builds are ever stored, and a pruned build may be served
//!   from an exact checkpoint — an exact matrix trivially satisfies the
//!   pruning contract, and the cache never gets poisoned with lower
//!   bounds.

use super::cache;
use super::wavefront;
use super::DistanceMatrix;
use crate::landmark::LandmarkLowerBound;
use crate::measure::Measure;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use traj_core::codec::Fnv64;
use traj_core::parallel::{default_threads, parallel_for_each};
use traj_core::Trajectory;

/// How a build runs its pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One thread, every pair through the scalar kernels in pair order:
    /// the byte-identity oracle the builder suites compare against.
    Serial,
    /// The production executor: lockstep groups ([`super::wavefront`])
    /// wherever a batched kernel exists and nothing is pruned, scalar
    /// pair batches for everything else, all from one parallel work
    /// queue.
    #[default]
    Wavefront,
}

/// Pivot count of the landmark screen: eight features make the screen
/// cost invisible next to even the shortest DP while pruning most
/// supra-threshold pairs in practice.
const LANDMARKS: usize = 8;

/// A pruning threshold, and whether the landmark screen runs in front of
/// the early-abandon DP.
#[derive(Debug, Clone, Copy)]
struct PrunePlan {
    threshold: f64,
    screen: bool,
}

/// Which stage (if any) certified a pair's lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PrunedBy {
    None,
    Screen,
    Dp,
}

/// Whether a build was served from the persistent checkpoint cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheOutcome {
    /// No cache directory configured.
    Disabled,
    /// No (valid) checkpoint existed; the matrix was computed and stored.
    Miss,
    /// The matrix was loaded from a checkpoint; no distances were
    /// computed.
    Hit,
}

impl CacheOutcome {
    /// Whether this build was served from cache.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// What a build did: where the time went and where the matrix came from.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BuildReport {
    /// Wall-clock seconds for the whole build (including cache I/O).
    pub seconds: f64,
    /// Cache disposition of this build.
    pub cache: CacheOutcome,
    /// Distance evaluations performed (0 on a cache hit; excludes the
    /// mirrored writes of symmetric matrices and the O(k·n) landmark
    /// featurization pass).
    pub pairs_computed: usize,
    /// Pairs whose entry is a certified lower bound instead of the exact
    /// distance (all pruning stages combined).
    pub pairs_pruned: usize,
    /// The subset of `pairs_pruned` rejected by the O(k) landmark screen
    /// — these pairs never touched a DP table at all.
    pub pairs_screened: usize,
}

/// A finished matrix plus its [`BuildReport`].
#[derive(Debug, Clone)]
pub struct MatrixBuild {
    /// The distance matrix.
    pub matrix: DistanceMatrix,
    /// How it was built.
    pub report: BuildReport,
}

/// Configurable builder for pairwise and cross distance matrices.
///
/// ```
/// use traj_core::Trajectory;
/// use traj_dist::{MatrixBuilder, MeasureKind};
///
/// let trajs: Vec<Trajectory> = (0..6)
///     .map(|i| Trajectory::from_xy(&[(i as f64, 0.0), (i as f64, 1.0)]).unwrap())
///     .collect();
/// let build = MatrixBuilder::new(MeasureKind::Dtw.measure()).build_pairwise(&trajs);
/// assert_eq!(build.matrix.rows(), 6);
/// assert_eq!(build.report.pairs_computed, 15); // upper triangle only
/// ```
#[derive(Debug, Clone)]
pub struct MatrixBuilder {
    measure: Measure,
    schedule: Schedule,
    threads: Option<usize>,
    prune: Option<PrunePlan>,
    cache_dir: Option<PathBuf>,
}

/// Pairs per scalar batch: small enough that a thread drawing expensive
/// pairs claims fewer batches, large enough to amortize the queue lock
/// (a batch is hundreds of microseconds of DP work at typical lengths).
const PAIR_BATCH: usize = 256;

/// The pairs one execution evaluates, and the output cells each fills.
#[derive(Clone, Copy)]
enum Space<'a> {
    /// The upper triangle of one set: pair `p` is [`pair_at`]`(p, n)` and
    /// fills cells `(i, j)` and `(j, i)` of the n×n matrix.
    Pairwise(&'a [Trajectory]),
    /// Every `(query, base)` pair, row-major: pair `p` is `(p / m, p % m)`
    /// and fills cell `p`.
    Cross(&'a [Trajectory], &'a [Trajectory]),
    /// An explicit pair list: pair `p` fills slot `p`.
    List(&'a [(&'a Trajectory, &'a Trajectory)]),
}

impl<'a> Space<'a> {
    fn len(&self) -> usize {
        match *self {
            Space::Pairwise(trajs) => trajs.len() * trajs.len().saturating_sub(1) / 2,
            Space::Cross(queries, base) => queries.len() * base.len(),
            Space::List(pairs) => pairs.len(),
        }
    }

    /// Pair `p`: its input indices (the landmark screen's key; a list is
    /// never screened) and its trajectories.
    #[inline]
    fn pair(&self, p: usize) -> ((usize, usize), &'a Trajectory, &'a Trajectory) {
        match *self {
            Space::Pairwise(trajs) => {
                let (i, j) = pair_at(p, trajs.len());
                ((i, j), &trajs[i], &trajs[j])
            }
            Space::Cross(queries, base) => {
                let (i, j) = (p / base.len(), p % base.len());
                ((i, j), &queries[i], &base[j])
            }
            Space::List(pairs) => ((p, p), pairs[p].0, pairs[p].1),
        }
    }

    /// Stores pair `p`'s value `d` (`ij` from [`Space::pair`]) in its
    /// cells of `out`: `(i, j)` and `(j, i)` of a pairwise matrix, cell
    /// `p` otherwise.
    #[inline]
    fn write(&self, out: &mut [f64], p: usize, (i, j): (usize, usize), d: f64) {
        match *self {
            Space::Pairwise(trajs) => {
                out[i * trajs.len() + j] = d;
                out[j * trajs.len() + i] = d;
            }
            Space::Cross(..) | Space::List(_) => out[p] = d,
        }
    }
}

/// `measure` over an explicit pair list, in list order, on one thread:
/// the executor of [`MatrixBuilder`] with nothing pruned, so lockstep
/// groups run wherever a batched kernel exists. Backs
/// [`Measure::distance_batch`].
pub(crate) fn distances(measure: &Measure, pairs: &[(&Trajectory, &Trajectory)]) -> Vec<f64> {
    let mut out = vec![0.0; pairs.len()];
    MatrixBuilder::new(*measure)
        .threads(1)
        .execute(Space::List(pairs), None, &mut out);
    out
}

impl MatrixBuilder {
    /// A builder with the default executor, no pruning, no cache.
    pub fn new(measure: Measure) -> Self {
        MatrixBuilder {
            measure,
            schedule: Schedule::default(),
            threads: None,
            prune: None,
            cache_dir: None,
        }
    }

    /// Overrides the schedule ([`Schedule::Serial`] is the oracle).
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Pins the worker-thread count (default: hardware parallelism capped
    /// by available work items).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enables admissible early-abandon pruning at `threshold`: entries
    /// whose true distance is ≤ `threshold` stay exact; larger entries
    /// may be replaced by a certified lower bound (still > `threshold`).
    /// Only DTW/ERP/EDR can abandon; other measures compute exactly.
    pub fn prune(mut self, threshold: f64) -> Self {
        self.prune = Some(PrunePlan {
            threshold,
            screen: false,
        });
        self
    }

    /// [`MatrixBuilder::prune`] with an O(k) landmark screen in front of
    /// the early-abandon DP: features against eight pivots are built once
    /// per input set (O(k·n) measure evaluations, not counted in
    /// `pairs_computed`), then each pair costs k subtractions. Only
    /// measures with [`Measure::supports_landmark_bound`] screen; for the
    /// others this is plain [`MatrixBuilder::prune`].
    pub fn prune_landmark(mut self, threshold: f64) -> Self {
        self.prune = Some(PrunePlan {
            threshold,
            screen: true,
        });
        self
    }

    /// Enables persistent checkpoints under `dir`, keyed by content
    /// fingerprint. Stale or corrupt checkpoints are treated as misses
    /// and overwritten.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// One scalar pair evaluation: the landmark screen (`screen`, built
    /// only when the plan asks for it) certifies a bound above the
    /// threshold, or the early-abandon DP runs (exact for measures that
    /// cannot abandon), or — unpruned — the exact kernel.
    #[inline]
    fn eval_at(
        &self,
        screen: Option<&LandmarkLowerBound>,
        (i, j): (usize, usize),
        a: &Trajectory,
        b: &Trajectory,
    ) -> (f64, PrunedBy) {
        let Some(plan) = self.prune else {
            return (self.measure.distance(a, b), PrunedBy::None);
        };
        if let Some(lb) = screen.map(|s| s.lb(i, j)).filter(|&lb| lb > plan.threshold) {
            return (lb, PrunedBy::Screen);
        }
        let p = self.measure.distance_pruned(a, b, plan.threshold);
        let by = if p.abandoned() {
            PrunedBy::Dp
        } else {
            PrunedBy::None
        };
        (p.value(), by)
    }

    /// Evaluates every pair of `space` into `out` and returns the
    /// `(pruned, screened)` counts.
    ///
    /// A pair joins a lockstep group iff the measure has a batched kernel
    /// and the build prunes nothing (the batched tier always computes
    /// exact entries, so it cannot honor a threshold). The lockstep plan's
    /// groups and the scalar pair batches — its stragglers, or every pair
    /// when there is no plan — are the work items of one parallel phase.
    /// Each item evaluates its pairs into a local buffer, then locks `out`
    /// once to store them, so a worker holds at most one batch.
    fn execute(
        &self,
        space: Space<'_>,
        screen: Option<&LandmarkLowerBound>,
        out: &mut [f64],
    ) -> (usize, usize) {
        let pruned = AtomicUsize::new(0);
        let screened = AtomicUsize::new(0);
        let scalar = |p: usize| {
            let (ij, a, b) = space.pair(p);
            let (d, by) = self.eval_at(screen, ij, a, b);
            if by != PrunedBy::None {
                pruned.fetch_add(1, Ordering::Relaxed);
            }
            if by == PrunedBy::Screen {
                screened.fetch_add(1, Ordering::Relaxed);
            }
            (p, ij, d)
        };
        if self.schedule == Schedule::Serial {
            for (p, ij, d) in (0..space.len()).map(scalar) {
                space.write(out, p, ij, d);
            }
            return (pruned.into_inner(), screened.into_inner());
        }

        let plan = (self.measure.supports_batch() && self.prune.is_none()).then(|| {
            wavefront::plan_batches((0..space.len()).map(|p| {
                let (_, a, b) = space.pair(p);
                wavefront::pair_len_key(&self.measure, a, b)
            }))
        });
        let (groups, queued) = plan
            .as_ref()
            .map_or((0, space.len()), |plan| (plan.groups(), plan.stragglers()));
        let items = groups + queued.div_ceil(PAIR_BATCH);
        let threads = self.threads.unwrap_or_else(|| default_threads(items));
        let out = Mutex::new(out);
        parallel_for_each(items, threads, |item| {
            let values: Vec<_> = match &plan {
                Some(plan) if item < groups => {
                    let members: Vec<_> = plan.group(item).map(|p| (p, space.pair(p))).collect();
                    let pairs: Vec<_> = members.iter().map(|&(_, (_, a, b))| (a, b)).collect();
                    let values = wavefront::eval_batch(&self.measure, &pairs);
                    let cells = members.iter().zip(values);
                    cells.map(|(&(p, (ij, ..)), d)| (p, ij, d)).collect()
                }
                _ => {
                    let start = (item - groups) * PAIR_BATCH;
                    (start..(start + PAIR_BATCH).min(queued))
                        .map(|k| scalar(plan.as_ref().map_or(k, |plan| plan.straggler(k))))
                        .collect()
                }
            };
            let mut out = out.lock().expect("a store panicked in another worker");
            for (p, ij, d) in values {
                space.write(&mut out, p, ij, d);
            }
        });
        (pruned.into_inner(), screened.into_inner())
    }

    /// Serves a build from cache if a valid checkpoint with the expected
    /// shape exists.
    fn try_cache_load(&self, fingerprint: u64, rows: usize, cols: usize) -> Option<DistanceMatrix> {
        let dir = self.cache_dir.as_deref()?;
        let m = cache::load(&cache::cache_path(dir, fingerprint), fingerprint).ok()?;
        // The fingerprint already covers the shape; the explicit check
        // turns a (vanishingly unlikely) collision into a miss instead of
        // a shape panic downstream.
        (m.rows() == rows && m.cols() == cols).then_some(m)
    }

    /// Best-effort checkpoint write; a full disk or read-only cache dir
    /// must not fail the build that just computed a perfectly good
    /// matrix. Pruned builds are **never stored**: fingerprints are
    /// prune-free, so a stored lower-bound matrix would masquerade as the
    /// exact one for every later build.
    fn try_cache_store(&self, fingerprint: u64, matrix: &DistanceMatrix) {
        if self.prune.is_some() {
            return;
        }
        if let Some(dir) = self.cache_dir.as_deref() {
            if let Err(e) = cache::store(&cache::cache_path(dir, fingerprint), fingerprint, matrix)
            {
                eprintln!("[matrix-cache] checkpoint write failed (continuing): {e}");
            }
        }
    }

    /// Full symmetric N×N matrix over `trajs` (upper triangle computed,
    /// mirrored into both halves; zero diagonal).
    pub fn build_pairwise(&self, trajs: &[Trajectory]) -> MatrixBuild {
        let (n, space) = (trajs.len(), Space::Pairwise(trajs));
        self.build(b"pairwise", &[trajs], (n, n), space, || {
            LandmarkLowerBound::pairwise(&self.measure, trajs, LANDMARKS)
        })
    }

    /// Rectangular |queries| × |base| matrix.
    pub fn build_cross(&self, queries: &[Trajectory], base: &[Trajectory]) -> MatrixBuild {
        let (shape, space) = ((queries.len(), base.len()), Space::Cross(queries, base));
        self.build(b"cross", &[queries, base], shape, space, || {
            LandmarkLowerBound::cross(&self.measure, queries, base, LANDMARKS)
        })
    }

    /// Fingerprint → cache → screen → execute → report, for a
    /// `rows × cols` matrix over `space`; `screen` builds the landmark
    /// oracle when the prune plan asks for one.
    fn build(
        &self,
        kind_tag: &[u8],
        inputs: &[&[Trajectory]],
        (rows, cols): (usize, usize),
        space: Space<'_>,
        screen: impl FnOnce() -> Option<LandmarkLowerBound>,
    ) -> MatrixBuild {
        let start = std::time::Instant::now();
        let fingerprint = self.fingerprint(kind_tag, inputs);
        let report = |cache, pairs_computed, (pairs_pruned, pairs_screened)| BuildReport {
            seconds: start.elapsed().as_secs_f64(),
            cache,
            pairs_computed,
            pairs_pruned,
            pairs_screened,
        };
        if let Some(matrix) = self.try_cache_load(fingerprint, rows, cols) {
            let report = report(CacheOutcome::Hit, 0, (0, 0));
            return MatrixBuild { matrix, report };
        }
        let screen = self.prune.filter(|plan| plan.screen).and_then(|_| screen());
        let mut data = vec![0.0; rows * cols];
        let tally = self.execute(space, screen.as_ref(), &mut data);
        let matrix = DistanceMatrix::from_raw(rows, cols, data);
        self.try_cache_store(fingerprint, &matrix);
        let cache = if self.cache_dir.is_some() {
            CacheOutcome::Miss
        } else {
            CacheOutcome::Disabled
        };
        let report = report(cache, space.len(), tally);
        MatrixBuild { matrix, report }
    }

    /// Content fingerprint of a build: matrix kind, every input
    /// trajectory's raw coordinate bits, and the measure parameters the
    /// kernel actually reads. Deliberately **prune-free** (and
    /// schedule-free): the cache holds only exact matrices, which serve
    /// exact *and* pruned requests — an exact entry satisfies every
    /// pruning contract — while pruned builds never store (see
    /// [`MatrixBuilder::try_cache_store`]). FNV-1a is plenty for keying: a
    /// collision needs two inputs to hash identically *and* share a
    /// shape, which the loader checks.
    fn fingerprint(&self, kind_tag: &[u8], traj_sets: &[&[Trajectory]]) -> u64 {
        let mut h = Fnv64::default();
        h.write(kind_tag);
        h.write(&(cache::FORMAT.version as u64).to_le_bytes());
        hash_measure(&mut h, &self.measure);
        for trajs in traj_sets {
            h.write(&(trajs.len() as u64).to_le_bytes());
            for t in *trajs {
                h.write(&(t.len() as u64).to_le_bytes());
                for p in t.points() {
                    h.write(&p.x.to_bits().to_le_bytes());
                    h.write(&p.y.to_bits().to_le_bytes());
                    match p.t {
                        Some(t) => {
                            h.write(&[1]);
                            h.write(&t.to_bits().to_le_bytes());
                        }
                        None => h.write(&[0]),
                    }
                }
            }
        }
        h.finish()
    }
}

/// Feeds the measure parameters into the fingerprint — only the ones
/// this kind's kernel actually reads, so tweaking e.g. the EDR tolerance
/// does not invalidate cached DTW/SSPD/… matrices whose contents cannot
/// have changed.
fn hash_measure(h: &mut Fnv64, m: &Measure) {
    use crate::measure::MeasureKind;
    h.write(m.kind.name().as_bytes());
    match m.kind {
        MeasureKind::Edr => h.write(&m.edr_eps.to_bits().to_le_bytes()),
        MeasureKind::Lcss => h.write(&m.lcss_eps.to_bits().to_le_bytes()),
        MeasureKind::Erp => {
            h.write(&m.erp_gap.x.to_bits().to_le_bytes());
            h.write(&m.erp_gap.y.to_bits().to_le_bytes());
        }
        MeasureKind::Tp => h.write(&m.tp.time_weight.to_bits().to_le_bytes()),
        MeasureKind::Dita => {
            h.write(&(m.dita.num_pivots as u64).to_le_bytes());
            h.write(&m.dita.time_weight.to_bits().to_le_bytes());
        }
        MeasureKind::Dtw
        | MeasureKind::Sspd
        | MeasureKind::Hausdorff
        | MeasureKind::DiscreteFrechet => {}
    }
}

/// Pairs with first index < `i` in the row-major upper-triangle
/// enumeration of `n` items: `i` rows of lengths `n−1, n−2, …`.
#[inline]
fn pairs_before_row(i: usize, n: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

/// Inverts the row-major linearization of the upper-triangle pair set:
/// position `p` in `(0,1), (0,2), …, (0,n−1), (1,2), …` → `(i, j)`.
///
/// A float inversion of the row-prefix quadratic lands within one row of
/// the answer for any matrix that fits in memory; two correction loops
/// make it exact in integers.
fn pair_at(p: usize, n: usize) -> (usize, usize) {
    debug_assert!(n >= 2 && p < n * (n - 1) / 2);
    let nf = n as f64;
    let guess = nf - 0.5 - ((nf - 0.5) * (nf - 0.5) - 2.0 * p as f64).max(0.0).sqrt();
    let mut i = (guess.max(0.0) as usize).min(n - 2);
    while i < n - 2 && pairs_before_row(i + 1, n) <= p {
        i += 1;
    }
    while pairs_before_row(i, n) > p {
        i -= 1;
    }
    let j = i + 1 + (p - pairs_before_row(i, n));
    (i, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureKind;

    #[test]
    fn pair_unranking_exhaustive_small_n() {
        for n in 2..40 {
            let mut p = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_at(p, n), (i, j), "n={n} p={p}");
                    p += 1;
                }
            }
            assert_eq!(p, n * (n - 1) / 2);
        }
    }

    #[test]
    fn pair_unranking_large_n_spot_checks() {
        // Large n stresses the float guess; verify at the extremes of
        // every region (row starts, row ends, global ends).
        for n in [1_000usize, 65_536, 1_000_000] {
            let total = n * (n - 1) / 2;
            for p in [0, 1, n - 2, n - 1, total / 2, total - 2, total - 1] {
                let (i, j) = pair_at(p, n);
                assert!(i < j && j < n, "n={n} p={p} -> ({i},{j})");
                assert_eq!(pairs_before_row(i, n) + (j - i - 1), p, "n={n} p={p}");
            }
            for row in [0usize, 1, n / 3, n / 2, n - 2] {
                let start = pairs_before_row(row, n);
                assert_eq!(pair_at(start, n), (row, row + 1), "row start, n={n}");
                let end = start + (n - row - 2);
                assert_eq!(pair_at(end, n), (row, n - 1), "row end, n={n}");
            }
        }
    }

    fn skewed_trajs(n: usize) -> Vec<Trajectory> {
        // Lengths descend with index so early rows are heavy — the
        // worst case for static row chunking.
        (0..n)
            .map(|i| {
                let len = 2 + (n - i) % 7;
                let pts: Vec<(f64, f64)> = (0..len)
                    .map(|k| (i as f64 * 0.1 + k as f64, (k as f64 * 0.7).sin()))
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect()
    }

    fn bits(m: &DistanceMatrix) -> Vec<u64> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every worker count gives the serial oracle's bits. n = 48 is
    /// 1 128 pairs: several [`PAIR_BATCH`] scalar batches (SSPD) or many
    /// lockstep groups (DTW), drawn by up to eight threads, so a batch or
    /// group whose pairs land in the wrong cells shows.
    #[test]
    fn schedules_are_bit_identical() {
        const { assert!(48 * 47 / 2 > 4 * PAIR_BATCH) };
        for (n, kind) in [
            (17, MeasureKind::Dtw),
            (48, MeasureKind::Dtw),
            (48, MeasureKind::Sspd),
        ] {
            let ts = skewed_trajs(n);
            let measure = kind.measure();
            let serial = MatrixBuilder::new(measure)
                .schedule(Schedule::Serial)
                .build_pairwise(&ts);
            for threads in [1, 2, 3, 8] {
                let par = MatrixBuilder::new(measure)
                    .threads(threads)
                    .build_pairwise(&ts);
                let tag = format!("{} n={n} threads={threads}", kind.name());
                assert_eq!(bits(&serial.matrix), bits(&par.matrix), "{tag}");
            }
            assert_eq!(serial.report.pairs_computed, n * (n - 1) / 2);
            assert_eq!(serial.report.cache, CacheOutcome::Disabled);
        }
    }

    #[test]
    fn cross_schedules_are_bit_identical() {
        let ts = skewed_trajs(13);
        let measure = MeasureKind::Sspd.measure();
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .build_cross(&ts[..4], &ts);
        let par = MatrixBuilder::new(measure)
            .threads(4)
            .build_cross(&ts[..4], &ts);
        assert_eq!(bits(&serial.matrix), bits(&par.matrix));
        assert_eq!(serial.report.pairs_computed, 4 * 13);
        // 24 × 48 = 1 152 cells: several scalar batches (SSPD) or lockstep
        // groups (DTW) across threads.
        let ts = skewed_trajs(48);
        for kind in [MeasureKind::Sspd, MeasureKind::Dtw] {
            let measure = kind.measure();
            let serial = MatrixBuilder::new(measure)
                .schedule(Schedule::Serial)
                .build_cross(&ts[..24], &ts);
            for threads in [1, 2, 3, 8] {
                let par = MatrixBuilder::new(measure)
                    .threads(threads)
                    .build_cross(&ts[..24], &ts);
                let tag = format!("{} threads={threads}", kind.name());
                assert_eq!(bits(&serial.matrix), bits(&par.matrix), "{tag}");
            }
        }
    }

    #[test]
    fn pruning_counts_and_admissibility() {
        // Long enough that the periodic abandon check (after every 4th
        // row) fires well before the final row.
        let ts: Vec<Trajectory> = (0..12)
            .map(|i| {
                let pts: Vec<(f64, f64)> = (0..20)
                    .map(|k| (i as f64 + k as f64 * 0.3, (k as f64 * 0.5 + i as f64).sin()))
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect();
        let measure = MeasureKind::Dtw.measure();
        let exact = MatrixBuilder::new(measure).build_pairwise(&ts);
        let threshold = exact.matrix.off_diagonal_mean();
        let pruned = MatrixBuilder::new(measure)
            .prune(threshold)
            .build_pairwise(&ts);
        assert!(
            pruned.report.pairs_pruned > 0,
            "threshold at the mean must prune"
        );
        for i in 0..12 {
            for j in 0..12 {
                let (e, p) = (exact.matrix.get(i, j), pruned.matrix.get(i, j));
                assert!(p <= e + 1e-12, "lower bound exceeded exact at ({i},{j})");
                if e <= threshold {
                    assert_eq!(e.to_bits(), p.to_bits(), "sub-threshold entry not exact");
                } else {
                    assert!(p > threshold, "pruned entry fell below threshold");
                }
            }
        }
    }

    /// Longer, spatially spread trajectories so both the landmark screen
    /// and the early-abandon DP actually fire at a mean threshold.
    fn spread_trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let pts: Vec<(f64, f64)> = (0..20)
                    .map(|k| (i as f64 + k as f64 * 0.3, (k as f64 * 0.5 + i as f64).sin()))
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect()
    }

    /// Two well-separated spatial clusters of near-duplicate
    /// trajectories: within-cluster DTW is small (phase jitter over 16
    /// points), cross-cluster closest-pair gaps are ≈ the 40-unit
    /// separation. A within-cluster threshold puts the screen in the
    /// regime the constant-1 DTW bound can certify (see
    /// [`crate::landmark`] — the closest-pair feature gap is capped at
    /// spatial scale, not path-sum scale).
    fn clustered_trajs(n: usize) -> Vec<Trajectory> {
        (0..n)
            .map(|i| {
                let cx = 40.0 * (i % 2) as f64;
                let phase = (i / 2) as f64 * 0.7;
                let pts: Vec<(f64, f64)> = (0..16)
                    .map(|k| {
                        let t = k as f64 * 0.4 + phase;
                        (cx + t.sin() * 0.3, t.cos() * 0.3)
                    })
                    .collect();
                Trajectory::from_xy(&pts).unwrap()
            })
            .collect()
    }

    /// The q-th quantile of the strictly positive entries.
    fn quantile(m: &DistanceMatrix, q: f64) -> f64 {
        let mut vals: Vec<f64> = m.data().iter().copied().filter(|&v| v > 0.0).collect();
        vals.sort_by(f64::total_cmp);
        vals[((vals.len() - 1) as f64 * q) as usize]
    }

    #[test]
    fn landmark_screen_layers_with_early_abandon() {
        let ts = clustered_trajs(12);
        let measure = MeasureKind::Dtw.measure();
        let exact = MatrixBuilder::new(measure).build_pairwise(&ts);
        // Near-neighborhood threshold: within-cluster distances stay
        // exact, cross-cluster pairs are screenable.
        let threshold = quantile(&exact.matrix, 0.25);
        let layered = MatrixBuilder::new(measure)
            .prune_landmark(threshold)
            .build_pairwise(&ts);
        assert!(
            layered.report.pairs_screened > 0,
            "screen must reject pairs"
        );
        assert!(
            layered.report.pairs_pruned >= layered.report.pairs_screened,
            "screen prunes are a subset of all prunes"
        );
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                let (e, p) = (exact.matrix.get(i, j), layered.matrix.get(i, j));
                assert!(p <= e + 1e-12, "lower bound exceeded exact at ({i},{j})");
                if e <= threshold {
                    assert_eq!(e.to_bits(), p.to_bits(), "sub-threshold entry not exact");
                } else {
                    assert!(p > threshold, "pruned entry fell below threshold");
                }
            }
        }
    }

    #[test]
    fn landmark_screen_alone_prunes_metric_measures() {
        // Hausdorff has no early-abandon DP: the screen is the only
        // stage that can prune, and survivors must come out bit-exact.
        let ts = spread_trajs(10);
        let measure = MeasureKind::Hausdorff.measure();
        let exact = MatrixBuilder::new(measure).build_pairwise(&ts);
        let threshold = exact.matrix.off_diagonal_mean();
        let screened = MatrixBuilder::new(measure)
            .prune_landmark(threshold)
            .build_pairwise(&ts);
        assert!(screened.report.pairs_screened > 0);
        assert_eq!(
            screened.report.pairs_pruned, screened.report.pairs_screened,
            "no other stage can prune for Hausdorff"
        );
        for i in 0..ts.len() {
            for j in 0..ts.len() {
                let (e, p) = (exact.matrix.get(i, j), screened.matrix.get(i, j));
                if e <= threshold {
                    assert_eq!(e.to_bits(), p.to_bits());
                } else {
                    assert!(p > threshold && p <= e + 1e-12);
                }
            }
        }
    }

    #[test]
    fn landmark_screen_degrades_for_ungated_measures() {
        // EDR admits no landmark bound: the screen stage is skipped and
        // the pipeline behaves exactly like plain early-abandon.
        let ts = spread_trajs(9);
        let measure = MeasureKind::Edr.measure();
        let threshold = MatrixBuilder::new(measure)
            .build_pairwise(&ts)
            .matrix
            .off_diagonal_mean();
        let plain = MatrixBuilder::new(measure)
            .prune(threshold)
            .build_pairwise(&ts);
        let layered = MatrixBuilder::new(measure)
            .prune_landmark(threshold)
            .build_pairwise(&ts);
        assert_eq!(bits(&plain.matrix), bits(&layered.matrix));
        assert_eq!(layered.report.pairs_screened, 0);
        assert_eq!(plain.report.pairs_pruned, layered.report.pairs_pruned);
    }

    #[test]
    fn layered_cross_build_is_admissible() {
        let ts = spread_trajs(12);
        let (queries, base) = ts.split_at(4);
        let measure = MeasureKind::Erp.measure();
        let exact = MatrixBuilder::new(measure).build_cross(queries, base);
        let threshold = exact.matrix.off_diagonal_mean();
        let layered = MatrixBuilder::new(measure)
            .prune_landmark(threshold)
            .build_cross(queries, base);
        assert!(layered.report.pairs_pruned > 0);
        for i in 0..queries.len() {
            for j in 0..base.len() {
                let (e, p) = (exact.matrix.get(i, j), layered.matrix.get(i, j));
                assert!(p <= e + 1e-12);
                if e <= threshold {
                    assert_eq!(e.to_bits(), p.to_bits(), "sub-threshold entry not exact");
                } else {
                    assert!(p > threshold);
                }
            }
        }
    }

    #[test]
    fn exact_checkpoint_serves_pruned_request_but_not_vice_versa() {
        let dir = std::env::temp_dir().join(format!("lhgm-prunecache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = spread_trajs(8);
        let measure = MeasureKind::Dtw.measure();
        let exact = MatrixBuilder::new(measure)
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(exact.report.cache, CacheOutcome::Miss);
        // Pruned request hits the exact checkpoint bit-for-bit.
        let pruned = MatrixBuilder::new(measure)
            .cache_dir(&dir)
            .prune_landmark(exact.matrix.off_diagonal_mean())
            .build_pairwise(&ts);
        assert_eq!(pruned.report.cache, CacheOutcome::Hit);
        assert_eq!(bits(&exact.matrix), bits(&pruned.matrix));
        // A cold pruned build never stores: the next pruned build misses
        // again instead of reading back lower bounds.
        let dir2 = dir.join("cold");
        let threshold = exact.matrix.off_diagonal_mean();
        let b = MatrixBuilder::new(measure)
            .cache_dir(&dir2)
            .prune_landmark(threshold);
        assert_eq!(b.build_pairwise(&ts).report.cache, CacheOutcome::Miss);
        assert_eq!(b.build_pairwise(&ts).report.cache, CacheOutcome::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wavefront_cross_bit_identical_for_batched_measures() {
        // The Sspd cross test above exercises the scalar queue; this one
        // drives the lockstep cross path.
        let ts = skewed_trajs(14);
        for kind in [MeasureKind::Dtw, MeasureKind::Erp, MeasureKind::Edr] {
            let measure = kind.measure();
            let serial = MatrixBuilder::new(measure)
                .schedule(Schedule::Serial)
                .build_cross(&ts[..5], &ts);
            let wf = MatrixBuilder::new(measure)
                .threads(3)
                .build_cross(&ts[..5], &ts);
            assert_eq!(bits(&serial.matrix), bits(&wf.matrix), "{}", kind.name());
        }
    }

    #[test]
    fn pruned_builds_skip_lockstep_and_match_the_oracle() {
        let ts = spread_trajs(12);
        let measure = MeasureKind::Dtw.measure();
        let threshold = MatrixBuilder::new(measure)
            .build_pairwise(&ts)
            .matrix
            .off_diagonal_mean();
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .prune(threshold)
            .build_pairwise(&ts);
        let pruned = MatrixBuilder::new(measure)
            .threads(3)
            .prune(threshold)
            .build_pairwise(&ts);
        // A lockstep group would compute exact entries; the pruned
        // default build reports the oracle's pruning work instead.
        assert!(serial.report.pairs_pruned > 0);
        assert_eq!(bits(&serial.matrix), bits(&pruned.matrix));
        assert_eq!(serial.report.pairs_pruned, pruned.report.pairs_pruned);
    }

    #[test]
    fn wavefront_and_scalar_builds_share_cache_fingerprints() {
        // The fingerprint excludes the schedule *because* the lockstep
        // tier is bit-identical: a checkpoint built by the default
        // executor must serve the serial oracle and vice versa.
        let dir = std::env::temp_dir().join(format!("lhgm-wavefront-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(10);
        let measure = MeasureKind::Dtw.measure();
        for (cold, warm) in [
            (Schedule::Wavefront, Schedule::Serial),
            (Schedule::Serial, Schedule::Wavefront),
        ] {
            let dir = dir.join(format!("{cold:?}"));
            let build = |schedule| {
                MatrixBuilder::new(measure)
                    .schedule(schedule)
                    .cache_dir(&dir)
                    .build_pairwise(&ts)
            };
            let (cold, warm) = (build(cold), build(warm));
            assert_eq!(cold.report.cache, CacheOutcome::Miss);
            assert_eq!(warm.report.cache, CacheOutcome::Hit);
            assert_eq!(bits(&cold.matrix), bits(&warm.matrix));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_miss_then_hit_roundtrips_bits() {
        let dir = std::env::temp_dir().join(format!("lhgm-builder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(9);
        let builder = MatrixBuilder::new(MeasureKind::Erp.measure()).cache_dir(&dir);
        let first = builder.build_pairwise(&ts);
        assert_eq!(first.report.cache, CacheOutcome::Miss);
        let second = builder.build_pairwise(&ts);
        assert_eq!(second.report.cache, CacheOutcome::Hit);
        assert_eq!(second.report.pairs_computed, 0);
        assert_eq!(bits(&first.matrix), bits(&second.matrix));
        // A different measure parameter must change the fingerprint.
        let other = MatrixBuilder::new(MeasureKind::Edr.measure().with_edr_eps(0.5))
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(other.report.cache, CacheOutcome::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn irrelevant_measure_params_keep_cache_hits() {
        let dir = std::env::temp_dir().join(format!("lhgm-selective-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(8);
        // A DTW checkpoint must survive an EDR-tolerance tweak (DTW never
        // reads edr_eps)…
        let dtw = MeasureKind::Dtw.measure();
        MatrixBuilder::new(dtw).cache_dir(&dir).build_pairwise(&ts);
        let retuned = MatrixBuilder::new(dtw.with_edr_eps(0.5))
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(retuned.report.cache, CacheOutcome::Hit);
        // …while the same tweak on an EDR build must miss.
        let edr = MeasureKind::Edr.measure();
        MatrixBuilder::new(edr).cache_dir(&dir).build_pairwise(&ts);
        let edr_retuned = MatrixBuilder::new(edr.with_edr_eps(0.5))
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(edr_retuned.report.cache, CacheOutcome::Miss);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_rebuilt() {
        let dir = std::env::temp_dir().join(format!("lhgm-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(7);
        let builder = MatrixBuilder::new(MeasureKind::Dtw.measure()).cache_dir(&dir);
        let first = builder.build_pairwise(&ts);
        // Truncate every checkpoint in the dir.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
        let rebuilt = builder.build_pairwise(&ts);
        assert_eq!(rebuilt.report.cache, CacheOutcome::Miss);
        assert_eq!(bits(&first.matrix), bits(&rebuilt.matrix));
        // And the rewrite healed the cache.
        assert_eq!(builder.build_pairwise(&ts).report.cache, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_cache_distinct_from_pairwise() {
        let dir = std::env::temp_dir().join(format!("lhgm-cross-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(8);
        let builder = MatrixBuilder::new(MeasureKind::Dtw.measure()).cache_dir(&dir);
        builder.build_pairwise(&ts);
        // Same trajectory set as a cross build must not hit the pairwise
        // checkpoint (different kind tag and shape).
        let cross = builder.build_cross(&ts, &ts);
        assert_eq!(cross.report.cache, CacheOutcome::Miss);
        assert_eq!(
            builder.build_cross(&ts, &ts).report.cache,
            CacheOutcome::Hit
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_single_inputs() {
        let builder = MatrixBuilder::new(MeasureKind::Dtw.measure());
        let empty = builder.build_pairwise(&[]);
        assert_eq!(empty.matrix.rows(), 0);
        assert_eq!(empty.report.pairs_computed, 0);
        let one = builder.build_pairwise(&skewed_trajs(1));
        assert_eq!(one.matrix.rows(), 1);
        assert_eq!(one.matrix.get(0, 0), 0.0);
    }
}
