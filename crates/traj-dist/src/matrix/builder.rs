//! The ground-truth matrix construction pipeline.
//!
//! For a symmetric matrix the workload is *triangular* — row `i` holds
//! `n−i−1` pairs — so a static split into contiguous row chunks loads the
//! first thread with `O(n)` pairs per row while the last thread idles
//! over near-empty rows, and wall-clock time is bounded by the most
//! loaded thread instead of the hardware. [`MatrixBuilder`] does this
//! instead:
//!
//! * **Balanced dynamic scheduling** (the default): the upper-triangle
//!   pair set is linearized, split into fixed-size batches, and handed
//!   out from a shared work queue ([`traj_core::parallel::parallel_for_chunks`]);
//!   workers write finished distances straight into the shared flat
//!   buffer through a [`DisjointSlice`] — no per-row `Vec` allocations,
//!   no merge pass. Because each pair's distance is computed by the same
//!   kernel call and written to fixed cells, the result is **bit-identical**
//!   across schedules and thread counts.
//! * **Opt-in threshold pruning** as a layered [`PruneStage`] pipeline:
//!   a cheap O(k) landmark lower-bound screen
//!   ([`PruneStage::LandmarkScreen`], backed by [`crate::landmark`])
//!   rejects pairs whose bound already exceeds the threshold before any
//!   DP runs, and survivors fall through to the O(L²) row-min
//!   early-abandon ([`PruneStage::EarlyAbandon`]) for the DP measures
//!   (DTW/ERP/EDR). Every stage is admissible: entries ≤ threshold are
//!   always bit-exact, larger entries may be certified lower bounds
//!   (see [`crate::measure::PrunedDistance`]).
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
use traj_core::codec::Fnv64;
use traj_core::parallel::{default_threads, parallel_for, parallel_for_chunks, DisjointSlice};
use traj_core::Trajectory;

/// How pair work is distributed across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Schedule {
    /// Single-threaded reference loop (the byte-identity oracle).
    Serial,
    /// Dynamically scheduled pair batches from a shared work queue,
    /// written directly into the output buffer.
    #[default]
    Balanced,
    /// Wavefront-batched lockstep execution ([`super::wavefront`]):
    /// pairs are bucketed by length and evaluated [`wavefront::LANES`]
    /// at a time along DP anti-diagonals (bit-identical to the scalar
    /// kernels); stragglers run through the scalar path. Falls back to
    /// `Balanced` when the measure has no batched kernel or pruning is
    /// enabled (the batched tier always computes exact entries, so it
    /// cannot honor an early-abandon threshold).
    Wavefront,
}

impl Schedule {
    /// Every schedule, in display order — the single source of truth for
    /// CLI parsers and error messages listing the valid names.
    pub const ALL: [Schedule; 3] = [Schedule::Serial, Schedule::Balanced, Schedule::Wavefront];

    /// Display name (bench labels, logs).
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::Serial => "serial",
            Schedule::Balanced => "balanced",
            Schedule::Wavefront => "wavefront",
        }
    }

    /// Parses a display name back into a schedule (CLI flags).
    pub fn from_name(name: &str) -> Option<Schedule> {
        Schedule::ALL.iter().copied().find(|s| s.name() == name)
    }
}

/// One layer of the pruning pipeline, ordered cheap → expensive.
///
/// Stages run in the order given to [`MatrixBuilder::prune_stages`]; a
/// stage either certifies a lower bound above the threshold (the pair is
/// *pruned* and later stages never run) or passes the pair on. A stage
/// whose prerequisite the measure lacks (no admissible landmark bound,
/// no early-abandon DP) is skipped, so the pipeline degrades gracefully
/// to the exact kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStage {
    /// O(k) landmark feature screen ([`crate::landmark`]): features are
    /// built once per input set (O(k·n) measure evaluations, not counted
    /// in `pairs_computed`), then each pair costs k subtractions. Only
    /// measures with [`Measure::supports_landmark_bound`] screen; others
    /// skip this stage.
    LandmarkScreen {
        /// Number of landmark pivots (clamped to the set size).
        k: usize,
    },
    /// Row-min early-abandon DP (DTW/ERP/EDR): abandons once a full DP
    /// row exceeds the threshold. Measures without an early-abandon
    /// kernel skip this stage and compute exactly.
    EarlyAbandon,
}

/// Default pivot count for [`MatrixBuilder::prune_landmark`]: eight
/// features make the screen cost invisible next to even the shortest DP
/// while pruning most supra-threshold pairs in practice.
pub const DEFAULT_LANDMARKS: usize = 8;

/// A threshold plus the ordered stages that enforce it.
#[derive(Debug, Clone)]
struct PrunePlan {
    threshold: f64,
    stages: Vec<PruneStage>,
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
    pair_batch: usize,
    prune: Option<PrunePlan>,
    cache_dir: Option<PathBuf>,
}

/// Default pair-batch size: small enough that a thread drawing expensive
/// pairs claims fewer batches, large enough to amortize the queue lock
/// (a batch is hundreds of microseconds of DP work at typical lengths).
const DEFAULT_PAIR_BATCH: usize = 256;

impl MatrixBuilder {
    /// A builder with the balanced schedule, no pruning, no cache.
    pub fn new(measure: Measure) -> Self {
        MatrixBuilder {
            measure,
            schedule: Schedule::default(),
            threads: None,
            pair_batch: DEFAULT_PAIR_BATCH,
            prune: None,
            cache_dir: None,
        }
    }

    /// Overrides the scheduling strategy.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Pins the worker-thread count (default: hardware parallelism capped
    /// by available batches).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Overrides the balanced schedule's pair-batch size.
    pub fn pair_batch(mut self, batch: usize) -> Self {
        self.pair_batch = batch.max(1);
        self
    }

    /// Enables admissible early-abandon pruning at `threshold`: entries
    /// whose true distance is ≤ `threshold` stay exact; larger entries
    /// may be replaced by a certified lower bound (still > `threshold`).
    /// Only DTW/ERP/EDR can abandon; other measures compute exactly.
    /// Equivalent to `prune_stages(threshold, &[PruneStage::EarlyAbandon])`.
    pub fn prune(self, threshold: f64) -> Self {
        self.prune_stages(threshold, &[PruneStage::EarlyAbandon])
    }

    /// The full layered pipeline: an O(k) landmark screen in front of the
    /// early-abandon DP, with `k = DEFAULT_LANDMARKS` pivots.
    pub fn prune_landmark(self, threshold: f64) -> Self {
        self.prune_stages(
            threshold,
            &[
                PruneStage::LandmarkScreen {
                    k: DEFAULT_LANDMARKS,
                },
                PruneStage::EarlyAbandon,
            ],
        )
    }

    /// Explicit pruning pipeline: `stages` run in order for every pair
    /// (see [`PruneStage`] for the per-stage contracts). An empty stage
    /// list disables pruning.
    pub fn prune_stages(mut self, threshold: f64, stages: &[PruneStage]) -> Self {
        self.prune = if stages.is_empty() {
            None
        } else {
            Some(PrunePlan {
                threshold,
                stages: stages.to_vec(),
            })
        };
        self
    }

    /// Enables persistent checkpoints under `dir`, keyed by content
    /// fingerprint. Stale or corrupt checkpoints are treated as misses
    /// and overwritten.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// One pair evaluation through the pruning pipeline: stages run in
    /// order, the first stage certifying a bound above the threshold
    /// wins, and pairs surviving every stage get the exact kernel (or
    /// the early-abandon DP's exact completion). `screen` is the
    /// precomputed landmark oracle for this build's input set(s), `None`
    /// when no screen stage applies.
    #[inline]
    fn eval_at(
        &self,
        screen: Option<&LandmarkLowerBound>,
        i: usize,
        j: usize,
        a: &Trajectory,
        b: &Trajectory,
    ) -> (f64, PrunedBy) {
        if let Some(plan) = &self.prune {
            let t = plan.threshold;
            for stage in &plan.stages {
                match *stage {
                    PruneStage::LandmarkScreen { .. } => {
                        if let Some(s) = screen {
                            let lb = s.lb(i, j);
                            if lb > t {
                                return (lb, PrunedBy::Screen);
                            }
                        }
                    }
                    PruneStage::EarlyAbandon if self.measure.supports_early_abandon() => {
                        let p = self.measure.distance_pruned(a, b, t);
                        let by = if p.abandoned() {
                            PrunedBy::Dp
                        } else {
                            PrunedBy::None
                        };
                        return (p.value(), by);
                    }
                    PruneStage::EarlyAbandon => {}
                }
            }
        }
        (self.measure.distance(a, b), PrunedBy::None)
    }

    /// The pivot count of the first applicable landmark-screen stage,
    /// `None` when the pipeline has no screen or the measure admits no
    /// landmark bound.
    fn screen_k(&self) -> Option<usize> {
        if !self.measure.supports_landmark_bound() {
            return None;
        }
        self.prune.as_ref()?.stages.iter().find_map(|s| match *s {
            PruneStage::LandmarkScreen { k } => Some(k),
            PruneStage::EarlyAbandon => None,
        })
    }

    /// The schedule actually executed: `Wavefront` demotes itself to
    /// `Balanced` when the measure has no batched kernel or a pruning
    /// pipeline is set (the batched tier always computes exact entries,
    /// so it cannot honor an early-abandon threshold). Fingerprints never
    /// include the schedule, so the demotion is invisible to the cache.
    fn effective_schedule(&self) -> Schedule {
        match self.schedule {
            Schedule::Wavefront if !self.measure.supports_batch() || self.prune.is_some() => {
                Schedule::Balanced
            }
            s => s,
        }
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
        let start = std::time::Instant::now();
        let n = trajs.len();
        let fingerprint = self.fingerprint(b"pairwise", &[trajs]);
        if let Some(matrix) = self.try_cache_load(fingerprint, n, n) {
            return MatrixBuild {
                matrix,
                report: BuildReport {
                    seconds: start.elapsed().as_secs_f64(),
                    cache: CacheOutcome::Hit,
                    pairs_computed: 0,
                    pairs_pruned: 0,
                    pairs_screened: 0,
                },
            };
        }

        let screen = self
            .screen_k()
            .and_then(|k| LandmarkLowerBound::pairwise(&self.measure, trajs, k));
        let screen = screen.as_ref();
        let total_pairs = n * n.saturating_sub(1) / 2;
        let pruned = AtomicUsize::new(0);
        let screened = AtomicUsize::new(0);
        let tally = |by: PrunedBy| match by {
            PrunedBy::None => {}
            PrunedBy::Screen => {
                pruned.fetch_add(1, Ordering::Relaxed);
                screened.fetch_add(1, Ordering::Relaxed);
            }
            PrunedBy::Dp => {
                pruned.fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut data = vec![0.0; n * n];
        match self.effective_schedule() {
            Schedule::Serial => {
                for i in 0..n {
                    for j in (i + 1)..n {
                        let (d, by) = self.eval_at(screen, i, j, &trajs[i], &trajs[j]);
                        tally(by);
                        data[i * n + j] = d;
                        data[j * n + i] = d;
                    }
                }
            }
            Schedule::Balanced => {
                let batch = self.pair_batch;
                let threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(total_pairs.div_ceil(batch)));
                let view = DisjointSlice::new(&mut data);
                parallel_for_chunks(total_pairs, threads, batch, |range| {
                    let (mut i, mut j) = pair_at(range.start, n);
                    for _ in range {
                        let (d, by) = self.eval_at(screen, i, j, &trajs[i], &trajs[j]);
                        tally(by);
                        // SAFETY: pair (i, j) with i < j is claimed by
                        // exactly one batch, and cells (i,j)/(j,i) belong
                        // to that pair alone; the diagonal is untouched.
                        unsafe {
                            view.write(i * n + j, d);
                            view.write(j * n + i, d);
                        }
                        j += 1;
                        if j == n {
                            i += 1;
                            j = i + 1;
                        }
                    }
                });
            }
            Schedule::Wavefront => {
                // Materialize the upper-triangle pair list, bucket it by
                // length, and hand one lockstep group per work item to the
                // wavefront kernels; leftovers reuse the scalar path.
                let pairs: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| ((i + 1)..n).map(move |j| (i as u32, j as u32)))
                    .collect();
                let lens: Vec<(usize, usize)> = pairs
                    .iter()
                    .map(|&(i, j)| {
                        wavefront::pair_len_key(
                            &self.measure,
                            &trajs[i as usize],
                            &trajs[j as usize],
                        )
                    })
                    .collect();
                let plan = wavefront::plan_batches(&lens);
                let view = DisjointSlice::new(&mut data);
                let threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(plan.groups.len()));
                parallel_for(plan.groups.len(), threads, |g| {
                    let idxs = plan.group(g);
                    let group_pairs: Vec<(&Trajectory, &Trajectory)> = idxs
                        .iter()
                        .map(|&p| {
                            let (i, j) = pairs[p];
                            (&trajs[i as usize], &trajs[j as usize])
                        })
                        .collect();
                    let vals = wavefront::eval_batch(&self.measure, &group_pairs);
                    for (k, &p) in idxs.iter().enumerate() {
                        let (i, j) = pairs[p];
                        let (i, j) = (i as usize, j as usize);
                        // SAFETY: each pair index is claimed by exactly
                        // one group, and cells (i,j)/(j,i) belong to that
                        // pair alone; the diagonal is untouched.
                        unsafe {
                            view.write(i * n + j, vals[k]);
                            view.write(j * n + i, vals[k]);
                        }
                    }
                });
                let straggler_threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(plan.stragglers.len()));
                parallel_for_chunks(
                    plan.stragglers.len(),
                    straggler_threads,
                    self.pair_batch,
                    |range| {
                        for s in range {
                            let (i, j) = pairs[plan.stragglers[s]];
                            let (i, j) = (i as usize, j as usize);
                            // Pruning demotes wavefront to balanced, so
                            // this eval is always exact (screen = None).
                            let (d, _) = self.eval_at(screen, i, j, &trajs[i], &trajs[j]);
                            // SAFETY: straggler pairs are disjoint from
                            // every group and from each other.
                            unsafe {
                                view.write(i * n + j, d);
                                view.write(j * n + i, d);
                            }
                        }
                    },
                );
            }
        }
        let matrix = DistanceMatrix::from_raw(n, n, data);
        self.try_cache_store(fingerprint, &matrix);
        MatrixBuild {
            matrix,
            report: BuildReport {
                seconds: start.elapsed().as_secs_f64(),
                cache: if self.cache_dir.is_some() {
                    CacheOutcome::Miss
                } else {
                    CacheOutcome::Disabled
                },
                pairs_computed: total_pairs,
                pairs_pruned: pruned.into_inner(),
                pairs_screened: screened.into_inner(),
            },
        }
    }

    /// Rectangular |queries| × |base| matrix.
    pub fn build_cross(&self, queries: &[Trajectory], base: &[Trajectory]) -> MatrixBuild {
        let start = std::time::Instant::now();
        let (n, m) = (queries.len(), base.len());
        let fingerprint = self.fingerprint(b"cross", &[queries, base]);
        if let Some(matrix) = self.try_cache_load(fingerprint, n, m) {
            return MatrixBuild {
                matrix,
                report: BuildReport {
                    seconds: start.elapsed().as_secs_f64(),
                    cache: CacheOutcome::Hit,
                    pairs_computed: 0,
                    pairs_pruned: 0,
                    pairs_screened: 0,
                },
            };
        }

        let screen = self
            .screen_k()
            .and_then(|k| LandmarkLowerBound::cross(&self.measure, queries, base, k));
        let screen = screen.as_ref();
        let total_cells = n * m;
        let pruned = AtomicUsize::new(0);
        let screened = AtomicUsize::new(0);
        let tally = |by: PrunedBy| match by {
            PrunedBy::None => {}
            PrunedBy::Screen => {
                pruned.fetch_add(1, Ordering::Relaxed);
                screened.fetch_add(1, Ordering::Relaxed);
            }
            PrunedBy::Dp => {
                pruned.fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut data;
        match self.effective_schedule() {
            Schedule::Serial => {
                data = Vec::with_capacity(total_cells);
                for (i, q) in queries.iter().enumerate() {
                    for (j, b) in base.iter().enumerate() {
                        let (d, by) = self.eval_at(screen, i, j, q, b);
                        tally(by);
                        data.push(d);
                    }
                }
            }
            Schedule::Balanced => {
                data = vec![0.0; total_cells];
                let batch = self.pair_batch;
                let threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(total_cells.div_ceil(batch)));
                let view = DisjointSlice::new(&mut data);
                parallel_for_chunks(total_cells, threads, batch, |range| {
                    for cell in range {
                        let (d, by) = self.eval_at(
                            screen,
                            cell / m,
                            cell % m,
                            &queries[cell / m],
                            &base[cell % m],
                        );
                        tally(by);
                        // SAFETY: each flat cell index is claimed by
                        // exactly one batch.
                        unsafe { view.write(cell, d) };
                    }
                });
            }
            Schedule::Wavefront => {
                // Flat cell indices double as pair indices here, so the
                // plan's groups/stragglers address the output directly.
                data = vec![0.0; total_cells];
                let lens: Vec<(usize, usize)> = (0..total_cells)
                    .map(|cell| {
                        wavefront::pair_len_key(&self.measure, &queries[cell / m], &base[cell % m])
                    })
                    .collect();
                let plan = wavefront::plan_batches(&lens);
                let view = DisjointSlice::new(&mut data);
                let threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(plan.groups.len()));
                parallel_for(plan.groups.len(), threads, |g| {
                    let idxs = plan.group(g);
                    let group_pairs: Vec<(&Trajectory, &Trajectory)> = idxs
                        .iter()
                        .map(|&cell| (&queries[cell / m], &base[cell % m]))
                        .collect();
                    let vals = wavefront::eval_batch(&self.measure, &group_pairs);
                    for (k, &cell) in idxs.iter().enumerate() {
                        // SAFETY: each flat cell index is claimed by
                        // exactly one group.
                        unsafe { view.write(cell, vals[k]) };
                    }
                });
                let straggler_threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(plan.stragglers.len()));
                parallel_for_chunks(
                    plan.stragglers.len(),
                    straggler_threads,
                    self.pair_batch,
                    |range| {
                        for s in range {
                            let cell = plan.stragglers[s];
                            // Pruning demotes wavefront to balanced, so
                            // this eval is always exact (screen = None).
                            let (d, _) = self.eval_at(
                                screen,
                                cell / m,
                                cell % m,
                                &queries[cell / m],
                                &base[cell % m],
                            );
                            // SAFETY: stragglers are disjoint from every
                            // group and from each other.
                            unsafe { view.write(cell, d) };
                        }
                    },
                );
            }
        }
        let matrix = DistanceMatrix::from_raw(n, m, data);
        self.try_cache_store(fingerprint, &matrix);
        MatrixBuild {
            matrix,
            report: BuildReport {
                seconds: start.elapsed().as_secs_f64(),
                cache: if self.cache_dir.is_some() {
                    CacheOutcome::Miss
                } else {
                    CacheOutcome::Disabled
                },
                pairs_computed: total_cells,
                pairs_pruned: pruned.into_inner(),
                pairs_screened: screened.into_inner(),
            },
        }
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

    #[test]
    fn schedules_are_bit_identical() {
        let ts = skewed_trajs(17);
        let measure = MeasureKind::Dtw.measure();
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .build_pairwise(&ts);
        for schedule in [Schedule::Balanced, Schedule::Wavefront] {
            for threads in [1, 3, 8] {
                let par = MatrixBuilder::new(measure)
                    .schedule(schedule)
                    .threads(threads)
                    .pair_batch(5)
                    .build_pairwise(&ts);
                assert_eq!(
                    bits(&serial.matrix),
                    bits(&par.matrix),
                    "{} threads={threads}",
                    schedule.name()
                );
            }
        }
        assert_eq!(serial.report.pairs_computed, 17 * 16 / 2);
        assert_eq!(serial.report.cache, CacheOutcome::Disabled);
    }

    #[test]
    fn cross_schedules_are_bit_identical() {
        let ts = skewed_trajs(13);
        let measure = MeasureKind::Sspd.measure();
        let serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .build_cross(&ts[..4], &ts);
        for schedule in [Schedule::Balanced, Schedule::Wavefront] {
            let par = MatrixBuilder::new(measure)
                .schedule(schedule)
                .threads(4)
                .pair_batch(3)
                .build_cross(&ts[..4], &ts);
            assert_eq!(
                bits(&serial.matrix),
                bits(&par.matrix),
                "{}",
                schedule.name()
            );
        }
        assert_eq!(serial.report.pairs_computed, 4 * 13);
    }

    #[test]
    fn pruning_counts_and_admissibility() {
        // Long enough that the periodic abandon check (every
        // ABANDON_CHECK_INTERVAL rows) fires well before the final row.
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
            .prune_stages(threshold, &[PruneStage::LandmarkScreen { k: 4 }])
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
        // The Sspd cross test above exercises the unsupported-measure
        // fallback; this one drives the real batched cross path.
        let ts = skewed_trajs(14);
        for kind in [MeasureKind::Dtw, MeasureKind::Erp, MeasureKind::Edr] {
            let measure = kind.measure();
            let serial = MatrixBuilder::new(measure)
                .schedule(Schedule::Serial)
                .build_cross(&ts[..5], &ts);
            let wf = MatrixBuilder::new(measure)
                .schedule(Schedule::Wavefront)
                .threads(3)
                .build_cross(&ts[..5], &ts);
            assert_eq!(bits(&serial.matrix), bits(&wf.matrix), "{}", kind.name());
        }
    }

    #[test]
    fn wavefront_with_pruning_demotes_to_balanced() {
        let ts = skewed_trajs(12);
        let measure = MeasureKind::Dtw.measure();
        let threshold = MatrixBuilder::new(measure)
            .build_pairwise(&ts)
            .matrix
            .off_diagonal_mean();
        let balanced = MatrixBuilder::new(measure)
            .prune(threshold)
            .build_pairwise(&ts);
        let wavefront = MatrixBuilder::new(measure)
            .schedule(Schedule::Wavefront)
            .prune(threshold)
            .build_pairwise(&ts);
        // Demotion means the pruned builds agree bit for bit and the
        // wavefront-requested build still reports its pruning work.
        assert_eq!(bits(&balanced.matrix), bits(&wavefront.matrix));
        assert_eq!(balanced.report.pairs_pruned, wavefront.report.pairs_pruned);
    }

    #[test]
    fn wavefront_and_scalar_builds_share_cache_fingerprints() {
        // The fingerprint excludes the schedule *because* the wavefront
        // tier is bit-identical: a wavefront-built checkpoint must serve
        // scalar builds and vice versa.
        let dir = std::env::temp_dir().join(format!("lhgm-wavefront-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ts = skewed_trajs(10);
        let measure = MeasureKind::Dtw.measure();
        let cold = MatrixBuilder::new(measure)
            .schedule(Schedule::Wavefront)
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(cold.report.cache, CacheOutcome::Miss);
        let warm = MatrixBuilder::new(measure)
            .schedule(Schedule::Balanced)
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(warm.report.cache, CacheOutcome::Hit);
        assert_eq!(bits(&cold.matrix), bits(&warm.matrix));
        let warm_serial = MatrixBuilder::new(measure)
            .schedule(Schedule::Serial)
            .cache_dir(&dir)
            .build_pairwise(&ts);
        assert_eq!(warm_serial.report.cache, CacheOutcome::Hit);
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
