//! The mutable serving tier: epoch-snapshot concurrent reads over a
//! store that accepts incremental upserts and removals.
//!
//! Everything below this module serves *frozen* stores; real serving
//! needs writes without pausing queries. The one public serving type is
//! [`ShardedServingStore`](sharded::ShardedServingStore) — a single
//! store is `shards: 1`. Each of its shards is a crate-internal `Shard`
//! holding:
//!
//! * `RwLock<Arc<Snapshot>>` — the **published view**. The lock guards
//!   only the pointer swap: readers clone the `Arc` (a refcount bump) and
//!   then query entirely lock-free, so a long `knn_batch` never blocks a
//!   writer and a writer never blocks a running query — it can only delay
//!   the *next* snapshot acquisition by the nanoseconds of a pointer
//!   store;
//! * `Mutex<Writer>` — the **write path**. Writers to one shard are
//!   serialized; each `upsert`/`remove` logs to the WAL (when durable),
//!   applies to the delta segment, publishes a fresh immutable snapshot,
//!   and returns the churn it published so the wrapper can schedule a
//!   fold without taking the lock again. Publication copies pointers,
//!   whatever the delta's size: the base, its ids, the delta's sealed
//!   chunks and both tombstone bitsets are shared by `Arc` and updated
//!   copy-on-write, so a write copies at most the open delta chunk and
//!   one bitset page (see the `snapshot` module).
//!
//! Reads over any snapshot are **bit-identical** to a flat scan of that
//! snapshot's live rows (the `snapshot` module carries the argument); the
//! pivot index attached to the base stays exact under tombstones because
//! dead rows are skipped before any bound or heap offer fires.
//!
//! Compaction folds the delta and tombstones into a fresh base and
//! rebuilds the pivot index over it — with cells whenever the base's
//! bound space can prune (every metric variant, and `fusion-dist` through
//! the convex-mix bound). A shard folds in exactly one way, `Shard::fold`:
//! pin a snapshot under a briefly held writer lock, fold it off-lock,
//! then install the result under the writer lock, re-expressing the
//! writes that landed since the pin against the new base. The `compactor`
//! thread runs it for every shard whose churn reaches
//! [`ServingOptions::compact_threshold`], and
//! [`ShardedServingStore::compact_inline`](sharded::ShardedServingStore::compact_inline)
//! runs it on the calling thread; no writer ever pays the fold itself.
//! Readers keep querying the old snapshot until the new one is published.
//! Durability (`wal`) is WAL + atomic-rename checkpoint, each log named
//! by the checkpoint epoch it extends: a fold's install writes the next
//! epoch's log, commits at the checkpoint's rename, and changes nothing
//! if it fails before it; recovery loads the last checkpoint, deletes
//! every other epoch's log, replays the verified prefix of its own, and
//! discards a torn tail.

pub(crate) mod compactor;
pub mod sharded;
pub(crate) mod snapshot;
pub(crate) mod wal;

use super::index::build::IndexParams;
use super::index::IndexedStore;
use super::store::EmbeddingStore;
use super::tombstones::Tombstones;
use snapshot::{Delta, Snapshot};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, PoisonError, RwLock};
use traj_core::codec::DecodeError;
use wal::{WalFile, WalOp};

/// One serving-tier retrieval hit: external id plus model distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeHit {
    /// Caller-assigned row id (stable across upserts and compactions).
    pub id: u64,
    /// Model distance.
    pub distance: f32,
}

/// Errors from the serving tier.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure on the WAL or checkpoint.
    Io(std::io::Error),
    /// Persistent state failed structural validation.
    Decode(DecodeError),
    /// Persistent state parsed but is inconsistent.
    Corrupt(String),
    /// An upserted row does not match the store layout.
    RowShape(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serving i/o error: {e}"),
            ServeError::Decode(e) => write!(f, "serving state decode error: {e}"),
            ServeError::Corrupt(msg) => write!(f, "serving state corrupt: {msg}"),
            ServeError::RowShape(msg) => write!(f, "row shape mismatch: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<DecodeError> for ServeError {
    fn from(e: DecodeError) -> Self {
        ServeError::Decode(e)
    }
}

/// Per-shard configuration of a
/// [`ShardedServingStore`](sharded::ShardedServingStore).
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Build parameters of the base's pivot index. A base gets cells
    /// whenever its bound space can prune — every variant a model emits;
    /// only a fused base whose factors fail certification is served by
    /// the flat scan.
    pub index_params: IndexParams,
    /// Per-shard fold trigger: a write that leaves `delta rows + base
    /// tombstones` at or above this schedules the shard on the background
    /// compactor. `0` disables scheduling (callers fold with
    /// `compact_inline`).
    pub compact_threshold: usize,
    /// Fsync every WAL append (power-loss durable) instead of flushing to
    /// the OS (process-crash durable).
    pub fsync: bool,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            index_params: IndexParams::default(),
            compact_threshold: 4096,
            fsync: false,
        }
    }
}

/// Point-in-time occupancy and lifecycle counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Publication epoch of the current snapshot.
    pub epoch: u64,
    /// Live rows (base + delta, tombstones excluded).
    pub live_rows: usize,
    /// Rows in the compacted base segment.
    pub base_rows: usize,
    /// Rows in the delta segment (including superseded ones).
    pub delta_rows: usize,
    /// Tombstones outstanding over base + delta.
    pub tombstones: usize,
    /// Compactions performed over this store's lifetime (persisted).
    pub compactions: u64,
}

/// Where an external id currently lives.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Base(u32),
    Delta(u32),
}

/// The serialized write path: current segment state plus persistence.
struct Writer {
    /// id → live location.
    loc: HashMap<u64, Loc>,
    /// The segments as the next publication shows them. Every part is
    /// shared by `Arc` with the published snapshots and updated
    /// copy-on-write, so publishing is a clone of a few pointers.
    view: Snapshot,
    /// Folds installed: bumped at the one point where a fresh base is
    /// swapped in. A fold pins the count it started from; an install
    /// against a different count is stale and must be discarded (its
    /// delta watermark indexes a delta that no longer exists).
    compactions: u64,
    wal: Option<WalFile>,
    dir: Option<PathBuf>,
}

impl Writer {
    /// Delta growth since the last compaction — the fold trigger metric,
    /// and the rows a query scans past the base's index. (Publication
    /// does not grow with it: it copies pointers.)
    fn churn(&self) -> usize {
        self.view.delta.len() + self.view.base_dead.len()
    }

    /// Tombstones the live row at `loc`: one bit, set copy-on-write in
    /// one page of the segment's bitset.
    fn tombstone(&mut self, loc: Loc) {
        let fresh = match loc {
            Loc::Base(r) => Arc::make_mut(&mut self.view.base_dead).insert(r as usize),
            Loc::Delta(j) => Arc::make_mut(&mut self.view.delta_dead).insert(j as usize),
        };
        debug_assert!(fresh, "a live row carries no tombstone");
    }
}

/// A fold's starting point ([`Shard::fold`] step 1): the snapshot it
/// folds, the delta rows that snapshot holds, and the compaction count
/// of the base the fold replaces.
struct Pin {
    snapshot: Snapshot,
    watermark: usize,
    compactions: u64,
}

/// The guard (or value) a lock call returns, also when a thread that
/// panicked while holding the lock poisoned it: every serving-tier lock
/// carries on past a poisoned lock instead of failing.
fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// One shard of a sharded serving store: a writer, its WAL and
/// checkpoint, and the published snapshot. See the module docs for the
/// concurrency and bit-identity contracts.
pub(crate) struct Shard {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    opts: ServingOptions,
}

impl Shard {
    /// In-memory shard over `base` rows with external `ids` (parallel to
    /// the rows; must be unique). No persistence.
    pub(crate) fn new(
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
    ) -> Result<Shard, ServeError> {
        Self::assemble(base, ids, opts, None, None, 0)
    }

    /// Creates a durable shard in `dir`: writes the initial checkpoint and
    /// an empty WAL, then serves like [`Shard::new`].
    pub(crate) fn create_durable(
        dir: &Path,
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
    ) -> Result<Shard, ServeError> {
        std::fs::create_dir_all(dir)?;
        wal::write_checkpoint(&dir.join(wal::CKPT_FILE), 0, 0, &ids, &base)?;
        let wal_file = wal::create_wal(dir, 0, [], opts.fsync)?;
        Self::assemble(base, ids, opts, Some(wal_file), Some(dir.to_path_buf()), 0)
    }

    /// Recovers a durable shard from `dir`: loads the last checkpoint,
    /// deletes every other epoch's log, and replays the verified prefix
    /// of the checkpoint epoch's log (discarding a torn tail).
    pub(crate) fn recover(dir: &Path, opts: ServingOptions) -> Result<Shard, ServeError> {
        let ckpt = wal::read_checkpoint(&dir.join(wal::CKPT_FILE))?;
        let (ops, wal_file) = wal::recover_wal(dir, ckpt.epoch, opts.fsync)?;
        let shard = Self::assemble(
            ckpt.store,
            ckpt.ids,
            opts,
            Some(wal_file),
            Some(dir.to_path_buf()),
            ckpt.compactions,
        )?;
        // Replay without re-logging: the ops are already on disk.
        let mut w = unpoison(shard.writer.lock());
        w.view.epoch = ckpt.epoch;
        for op in ops {
            match op {
                WalOp::Upsert {
                    id,
                    eu,
                    hyper,
                    factors,
                } => {
                    Self::apply_upsert(&mut w, id, &eu, hyper.as_deref(), factors.as_deref())?;
                    w.view.epoch += 1;
                }
                WalOp::Remove { id } => {
                    if Self::apply_remove(&mut w, id) {
                        w.view.epoch += 1;
                    }
                }
            }
        }
        shard.publish(w);
        Ok(shard)
    }

    fn assemble(
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
        wal: Option<WalFile>,
        dir: Option<PathBuf>,
        compactions: u64,
    ) -> Result<Shard, ServeError> {
        if base.len() != ids.len() {
            return Err(ServeError::Corrupt(format!(
                "{} ids for {} rows",
                ids.len(),
                base.len()
            )));
        }
        if base.len() > u32::MAX as usize {
            return Err(ServeError::Corrupt("more than u32::MAX rows".to_string()));
        }
        let mut loc = HashMap::with_capacity(ids.len());
        for (r, &id) in ids.iter().enumerate() {
            if loc.insert(id, Loc::Base(r as u32)).is_some() {
                return Err(ServeError::Corrupt(format!("duplicate id {id}")));
            }
        }
        let delta = Delta::new(&base);
        let view = Snapshot {
            base: Arc::new(IndexedStore::build(base, opts.index_params)),
            base_ids: Arc::new(ids),
            base_dead: Arc::default(),
            delta,
            delta_dead: Arc::default(),
            epoch: 0,
        };
        let writer = Writer {
            loc,
            view,
            compactions,
            wal,
            dir,
        };
        let current = RwLock::new(Arc::new(writer.view.clone()));
        Ok(Shard {
            current,
            writer: Mutex::new(writer),
            opts,
        })
    }

    /// The current published snapshot — an O(1) `Arc` clone; query it
    /// entirely lock-free for as long as needed.
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&*unpoison(self.current.read()))
    }

    /// Current occupancy and lifecycle counters.
    pub(crate) fn stats(&self) -> ServeStats {
        let w = unpoison(self.writer.lock());
        ServeStats {
            epoch: w.view.epoch,
            live_rows: w.loc.len(),
            base_rows: w.view.base_ids.len(),
            delta_rows: w.view.delta.len(),
            tombstones: w.view.base_dead.len() + w.view.delta_dead.len(),
            compactions: w.compactions,
        }
    }

    /// Live rows.
    pub(crate) fn len(&self) -> usize {
        unpoison(self.writer.lock()).loc.len()
    }

    /// Inserts or replaces the row for `id`. `hyper` must be present iff
    /// the variant is hyperbolic, `factors` iff fusion is active, with
    /// the layout's exact widths. Publishes a new snapshot and returns
    /// whether an existing row was replaced, plus the churn published.
    pub(crate) fn upsert(
        &self,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<(bool, usize), ServeError> {
        let mut w = unpoison(self.writer.lock());
        Self::check_shape(w.view.delta.layout(), eu, hyper, factors)?;
        if let Some(wal) = w.wal.as_mut() {
            wal.append(&WalOp::Upsert {
                id,
                eu: eu.to_vec(),
                hyper: hyper.map(<[f32]>::to_vec),
                factors: factors.map(<[f32]>::to_vec),
            })?;
        }
        let replaced = Self::apply_upsert(&mut w, id, eu, hyper, factors)?;
        w.view.epoch += 1;
        Ok((replaced, self.publish(w)))
    }

    /// Removes the row for `id`. Returns whether it existed (publishing
    /// only when it did), plus the shard's churn.
    pub(crate) fn remove(&self, id: u64) -> Result<(bool, usize), ServeError> {
        let mut w = unpoison(self.writer.lock());
        if !w.loc.contains_key(&id) {
            return Ok((false, w.churn()));
        }
        if let Some(wal) = w.wal.as_mut() {
            wal.append(&WalOp::Remove { id })?;
        }
        let existed = Self::apply_remove(&mut w, id);
        debug_assert!(existed);
        w.view.epoch += 1;
        Ok((true, self.publish(w)))
    }

    /// The one fold: folds delta + tombstones into a fresh indexed base
    /// in three steps, and — when durable — checkpoints and truncates the
    /// WAL. Returns whether the fold was installed (`false` means another
    /// fold swapped the base first and this one was discarded as stale).
    ///
    /// 1. *Pin* the current state (snapshot, delta watermark, compaction
    ///    count) under a briefly held writer lock.
    /// 2. *Fold* without holding any lock: materialize the pinned live
    ///    rows in snapshot order through `Snapshot::to_flat`'s bytewise
    ///    row copies and build the pivot index over them. The folded base
    ///    has no tombstones, so queries against it stay bit-identical to
    ///    queries against the pinned snapshot: same candidates, same
    ///    `f32` bits, and a key order that is the same monotone remap of
    ///    live ordinals on both sides. Readers keep querying published
    ///    snapshots; writers keep appending to the current delta.
    /// 3. *Install* under the writer lock ([`Shard::install_fold`]).
    pub(crate) fn fold(&self) -> Result<bool, ServeError> {
        self.fold_pinned(self.pin())
    }

    /// Step 1 of [`Shard::fold`].
    fn pin(&self) -> Pin {
        let w = unpoison(self.writer.lock());
        Pin {
            snapshot: w.view.clone(),
            watermark: w.view.delta.len(),
            compactions: w.compactions,
        }
    }

    /// Steps 2 and 3 of [`Shard::fold`], from `pin`.
    fn fold_pinned(&self, pin: Pin) -> Result<bool, ServeError> {
        let (rows, ids) = pin.snapshot.to_flat();
        let base = Arc::new(IndexedStore::build(rows, self.opts.index_params));
        let w = unpoison(self.writer.lock());
        if w.compactions != pin.compactions {
            // A racing fold already replaced the base; the watermark no
            // longer indexes the live delta. Drop this one.
            return Ok(false);
        }
        self.install_fold(w, base, Arc::new(ids), pin.watermark)?;
        Ok(true)
    }

    fn check_shape(
        template: &EmbeddingStore,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<(), ServeError> {
        if eu.len() != template.dim() {
            return Err(ServeError::RowShape("euclidean width"));
        }
        if template.variant().uses_hyperbolic() {
            match hyper {
                Some(h) if h.len() == template.dim() + 1 => {}
                Some(_) => return Err(ServeError::RowShape("hyperbolic width")),
                None => return Err(ServeError::RowShape("hyperbolic row required")),
            }
        } else if hyper.is_some() {
            return Err(ServeError::RowShape("hyperbolic row not accepted"));
        }
        match (template.factor_dim(), factors) {
            (Some(f_dim), Some(f)) if f.len() == 2 * f_dim => {}
            (Some(_), Some(_)) => return Err(ServeError::RowShape("factor width")),
            (Some(_), None) => return Err(ServeError::RowShape("factor row required")),
            (None, Some(_)) => return Err(ServeError::RowShape("factor row not accepted")),
            (None, None) => {}
        }
        Ok(())
    }

    /// Applies an upsert to the writer state (no WAL, no publication —
    /// shared by the live path and recovery replay).
    fn apply_upsert(
        w: &mut Writer,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<bool, ServeError> {
        Self::check_shape(w.view.delta.layout(), eu, hyper, factors)?;
        let j = w.view.delta.len();
        if j >= u32::MAX as usize {
            return Err(ServeError::Corrupt(
                "delta exceeds u32::MAX rows".to_string(),
            ));
        }
        let old = w.loc.insert(id, Loc::Delta(j as u32));
        if let Some(old) = old {
            w.tombstone(old);
        }
        w.view.delta.push(id, eu, hyper, factors);
        Ok(old.is_some())
    }

    /// Applies a removal to the writer state. Returns whether `id` was
    /// live.
    fn apply_remove(w: &mut Writer, id: u64) -> bool {
        let old = w.loc.remove(&id);
        if let Some(old) = old {
            w.tombstone(old);
        }
        old.is_some()
    }

    /// Publishes the writer's state as the current snapshot (the caller
    /// has bumped the epoch) and returns the churn it published.
    fn publish(&self, w: MutexGuard<'_, Writer>) -> usize {
        let churn = w.churn();
        let snap = Arc::new(w.view.clone());
        drop(w);
        *unpoison(self.current.write()) = snap;
        churn
    }

    /// Swaps the folded base (the materialized live rows of the snapshot
    /// pinned at `watermark` delta rows, with their `ids`) in, re-expressing
    /// everything that happened since the pin against it:
    ///
    /// * delta rows `watermark..` survive as the new delta (bytewise row
    ///   copies — O(churn since pin));
    /// * a folded row whose id has since been superseded (re-upserted
    ///   past the watermark) or removed becomes a base tombstone;
    /// * post-watermark delta tombstones are rebased by the watermark.
    ///
    /// When durable, the checkpoint persists the folded base and the next
    /// epoch's log is seeded with the residual ops (surviving upserts in
    /// delta order, then removals), so recovery replays to exactly the
    /// installed state. The install is all or nothing around the
    /// checkpoint's rename: an error before it changes nothing — the shard
    /// keeps serving its old base on its old log, and the next fold
    /// retries — while after it the install completes in memory and then
    /// reports a failed directory sync.
    fn install_fold(
        &self,
        mut w: MutexGuard<'_, Writer>,
        base: Arc<IndexedStore>,
        ids: Arc<Vec<u64>>,
        watermark: usize,
    ) -> Result<(), ServeError> {
        // --- Catch-up against writes that landed after the pin. ---
        let delta = &w.view.delta;
        let mut new_delta = Delta::new(delta.layout());
        for j in watermark..delta.len() {
            new_delta.push_row_from(delta, j);
        }
        let mut new_delta_dead = Tombstones::default();
        for d in w.view.delta_dead.iter().filter(|&d| d >= watermark) {
            new_delta_dead.insert(d - watermark);
        }
        let mut new_base_dead = Tombstones::default();
        for (r, &id) in ids.iter().enumerate() {
            // The folded copy of `id` is its pre-watermark version; it is
            // still live iff the id's current location predates the
            // watermark (tombstoning is monotone between folds, so
            // "live now in a pre-watermark slot" implies "live at pin").
            let live = match w.loc.get(&id) {
                Some(Loc::Base(_)) => true,
                Some(Loc::Delta(j)) => (*j as usize) < watermark,
                None => false,
            };
            if !live {
                new_base_dead.insert(r);
            }
        }

        // --- Persist, all or nothing: the writer is untouched until the
        // checkpoint's rename commits the fold (`wal` module docs). ---
        let epoch = w.view.epoch + 1;
        let compactions = w.compactions + 1;
        let mut synced = Ok(());
        if let Some(dir) = w.dir.clone() {
            // Re-log the post-pin residue: upserts in delta order (so
            // replay rebuilds the same delta rows with the same
            // supersession tombstones), then removals for every id that
            // the residue leaves dead. Replay therefore reconstructs the
            // installed segment structure exactly, not just the live set.
            let residue = || (0..new_delta.len()).map(|j| (new_delta.id(j), new_delta.row(j)));
            let upserts = residue().map(|(id, (rows, i))| WalOp::Upsert {
                id,
                eu: rows.eu_row(i).to_vec(),
                hyper: (rows.variant().uses_hyperbolic()).then(|| rows.hyper_row(i).to_vec()),
                factors: rows.factor_dim().map(|_| rows.factor_row(i).to_vec()),
            });
            // The catch-up keeps every live id, so the ids live after the
            // install are the ids live now.
            let mut logged_removes = std::collections::HashSet::new();
            let removes = new_base_dead
                .iter()
                .map(|r| ids[r])
                .chain(residue().map(|(id, _)| id))
                .filter(|id| !w.loc.contains_key(id) && logged_removes.insert(*id))
                .map(|id| WalOp::Remove { id });
            let fresh = wal::create_wal(&dir, epoch, upserts.chain(removes), self.opts.fsync)?;
            let ckpt_path = dir.join(wal::CKPT_FILE);
            if let Err(e) =
                wal::write_checkpoint(&ckpt_path, epoch, compactions, &ids, base.store())
            {
                fresh.discard();
                return Err(e);
            }
            // Committed. With fsync on, a directory sync makes the commit
            // survive power loss; only once it has may the old log go.
            if self.opts.fsync {
                synced = std::fs::File::open(&dir).and_then(|d| d.sync_all());
            }
            let old = w.wal.replace(fresh);
            if let (Some(old), Ok(())) = (old, &synced) {
                old.discard();
            }
        }

        // --- The swap itself: pointer stores, O(churn) moves, and `loc`
        // re-expressed in place: every folded row still live now points
        // at its base row, and every post-watermark delta row is rebased
        // (in that order, so no pre-watermark row is rebased). ---
        let dead = new_base_dead.mask();
        for (r, &id) in ids.iter().enumerate() {
            if !dead.is_some_and(|d| d.get(r)) {
                w.loc.insert(id, Loc::Base(r as u32));
            }
        }
        for l in w.loc.values_mut() {
            if let Loc::Delta(j) = l {
                debug_assert!(*j as usize >= watermark, "pre-watermark rows were folded");
                *j -= watermark as u32;
            }
        }
        w.compactions = compactions;
        w.view = Snapshot {
            base,
            base_ids: ids,
            base_dead: Arc::new(new_base_dead),
            delta: new_delta,
            delta_dead: Arc::new(new_delta_dead),
            epoch,
        };
        self.publish(w);
        Ok(synced?)
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::tests::framed;
    use super::super::index::bound::BoundSpace;
    use super::super::store::tests::store_with_rows;
    use super::super::store::RetrievalResult;
    use super::sharded::{ShardedServingOptions, ShardedServingStore, ShardedSnapshot};
    use super::*;
    use crate::config::PluginVariant;
    use std::collections::BTreeMap;

    fn row(seed: u64, variant: PluginVariant) -> (Vec<f32>, Option<Vec<f32>>, Option<Vec<f32>>) {
        let x = (seed % 17) as f32 * 0.37 - 2.0;
        let y = (seed % 23) as f32 * 0.19 + 0.5;
        let eu = vec![x, y];
        let nsq = x * x + y * y;
        let hyper = variant
            .uses_hyperbolic()
            .then(|| vec![(nsq + 1.0).sqrt(), x, y]);
        let factors = variant
            .uses_fusion()
            .then(|| vec![x.abs() + 0.1, y.abs() + 0.1, 0.5, 0.25]);
        (eu, hyper, factors)
    }

    fn one_shard(threshold: usize) -> ShardedServingOptions {
        ShardedServingOptions {
            shards: 1,
            serving: ServingOptions {
                compact_threshold: threshold,
                ..ServingOptions::default()
            },
        }
    }

    /// The single store: one shard over `store_with_rows`, ids `0..3`.
    fn serving(variant: PluginVariant, threshold: usize) -> ShardedServingStore {
        let base = store_with_rows(variant);
        let n = base.len() as u64;
        ShardedServingStore::new(base, (0..n).collect(), one_shard(threshold)).expect("valid store")
    }

    #[test]
    fn snapshot_isolation_pins_old_view() {
        for variant in PluginVariant::ABLATION {
            let store = serving(variant, 0);
            let before = store.snapshot();
            let (eu, hy, fa) = row(99, variant);
            store
                .upsert(99, &eu, hy.as_deref(), fa.as_deref())
                .expect("upsert");
            store.remove(0).expect("remove");
            assert_eq!(before.len(), 3, "pinned view unchanged");
            assert_eq!(before.live_ids(), vec![0, 1, 2]);
            let after = store.snapshot();
            assert_eq!(after.len(), 3, "one added, one removed");
            assert_eq!(after.live_ids(), vec![1, 2, 99]);
            assert!(after.epoch() > before.epoch());
        }
    }

    #[test]
    fn upsert_replaces_and_remove_reports() {
        let store = serving(PluginVariant::Original, 0);
        assert!(!store.upsert(50, &[9.0, 9.0], None, None).expect("new"));
        assert!(store.upsert(50, &[8.0, 8.0], None, None).expect("replace"));
        assert!(store
            .upsert(1, &[7.0, 7.0], None, None)
            .expect("replace base"));
        assert_eq!(store.len(), 4);
        assert!(store.remove(50).expect("present"));
        assert!(!store.remove(50).expect("already gone"));
        assert_eq!(store.snapshot().live_ids(), vec![0, 2, 1]);
    }

    #[test]
    fn row_shape_violations_are_rejected() {
        let store = serving(PluginVariant::LorentzCosh, 0);
        let epoch = store.snapshot().epoch();
        assert!(matches!(
            store.upsert(9, &[1.0], Some(&[1.0, 0.0, 0.0]), None),
            Err(ServeError::RowShape(_))
        ));
        assert!(matches!(
            store.upsert(9, &[1.0, 2.0], None, None),
            Err(ServeError::RowShape(_))
        ));
        assert!(matches!(
            store.upsert(9, &[1.0, 2.0], Some(&[1.0, 0.0]), None),
            Err(ServeError::RowShape(_))
        ));
        let eu_only = serving(PluginVariant::Original, 0);
        assert!(matches!(
            eu_only.upsert(9, &[1.0, 2.0], Some(&[1.0, 0.0, 0.0]), None),
            Err(ServeError::RowShape(_))
        ));
        assert_eq!(
            store.snapshot().epoch(),
            epoch,
            "failed writes publish nothing"
        );
    }

    #[test]
    fn duplicate_or_mismatched_ids_rejected() {
        let base = store_with_rows(PluginVariant::Original);
        assert!(matches!(
            ShardedServingStore::new(base.clone(), vec![1, 1, 2], one_shard(0)),
            Err(ServeError::Corrupt(_))
        ));
        assert!(matches!(
            ShardedServingStore::new(base, vec![1], one_shard(0)),
            Err(ServeError::Corrupt(_))
        ));
    }

    #[test]
    fn knn_tracks_live_rows_across_churn() {
        for variant in PluginVariant::ABLATION {
            let store = serving(variant, 0);
            let queries = store_with_rows(variant);
            // Remove the row identical to query 0, upsert a new id with
            // the same embedding: the top hit's id must follow.
            let first = store.knn_batch(&queries, 1)[0][0];
            assert_eq!(first.id, 0, "{}", variant.name());
            store.remove(0).expect("remove");
            let (eu, hy, fa) = (
                queries.eu_row(0).to_vec(),
                variant
                    .uses_hyperbolic()
                    .then(|| queries.hyper_row(0).to_vec()),
                variant
                    .uses_fusion()
                    .then(|| queries.factor_row(0).to_vec()),
            );
            store
                .upsert(777, &eu, hy.as_deref(), fa.as_deref())
                .expect("upsert");
            let hit = store.knn_batch(&queries, 1)[0][0];
            assert_eq!(hit.id, 777, "{}", variant.name());
            // The re-added row has the same f32 bits, so its distance is
            // bit-identical to the removed original's.
            assert_eq!(hit.distance.to_bits(), first.distance.to_bits());
        }
    }

    #[test]
    fn compaction_preserves_results_bitwise() {
        for variant in PluginVariant::ABLATION {
            let store = serving(variant, 0);
            let queries = store_with_rows(variant);
            for i in 0..5u64 {
                let (eu, hy, fa) = row(i, variant);
                store
                    .upsert(200 + i, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
            }
            store.remove(1).expect("remove");
            let before: Vec<Vec<(u64, u32)>> = store
                .knn_batch(&queries, 4)
                .iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
                .collect();
            store.compact_inline().expect("compact");
            assert_eq!(store.snapshot().delta_rows(), 0);
            let after: Vec<Vec<(u64, u32)>> = store
                .knn_batch(&queries, 4)
                .iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
                .collect();
            assert_eq!(before, after, "{}", variant.name());
        }
    }

    /// A fold indexes its base exactly when the store is non-empty: an
    /// empty store, or one emptied by churn, folds to a base with no
    /// pivot cells, and refilling it folds to an indexed one again.
    #[test]
    fn fold_indexes_the_base_iff_the_store_is_nonempty() {
        for variant in PluginVariant::ABLATION {
            let empty = EmbeddingStore::new(2, variant, 1.0, Some(2));
            let fresh = ShardedServingStore::new(empty, Vec::new(), one_shard(0)).expect("empty");
            let emptied = serving(variant, 0);
            for id in 0..3 {
                assert!(emptied.remove(id).expect("remove"));
            }
            for store in [fresh, emptied] {
                store.compact_inline().expect("compact");
                let snap = store.snapshot();
                assert!(snap.is_empty() && snap.delta_rows() == 0);
                assert!(!snap.shards[0].base_indexed(), "{}", variant.name());
                let (eu, hy, fa) = row(5, variant);
                store
                    .upsert(5, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
                store.compact_inline().expect("compact");
                let snap = store.snapshot();
                assert!(snap.shards[0].base_indexed(), "{}", variant.name());
            }
        }
    }

    #[test]
    fn auto_compaction_folds_delta_into_indexed_base() {
        let store = serving(PluginVariant::Original, 4);
        for i in 0..6u64 {
            let (eu, hy, fa) = row(i, PluginVariant::Original);
            store
                .upsert(100 + i, &eu, hy.as_deref(), fa.as_deref())
                .expect("upsert");
        }
        store.drain().expect("scheduled folds land");
        let stats = store.stats();
        assert!(stats.compactions >= 1, "threshold 4 must have tripped");
        assert_eq!(stats.live_rows, 9);
        let snap = store.snapshot();
        assert!(snap.base_indexed(), "metric base re-indexed by compaction");
        // Everything up to the last fold's pin is folded; only the churn
        // after it remains in the delta.
        assert!(snap.delta_rows() < 4);
    }

    #[test]
    fn fused_base_is_indexed_when_its_factors_certify() {
        let store = serving(PluginVariant::FusionDist, 0);
        store.compact_inline().expect("compact");
        assert!(
            store.snapshot().base_indexed(),
            "softplus-positive factors certify the convex-mix bound"
        );
        // One negative factor and the next fold observes it: the base
        // cannot prune, so it stays flat — and still serves.
        store
            .upsert(
                99,
                &[0.5, 0.5],
                Some(&[1.2247, 0.5, 0.5]),
                Some(&[1.0, -1.0, 1.0, 1.0]),
            )
            .expect("upsert");
        store.compact_inline().expect("compact");
        let snap = store.snapshot();
        let shard = &snap.shards[0];
        assert!(
            !shard.base_indexed(),
            "uncertifiable fused base has no cells"
        );
        assert_eq!(shard.base.bound_space(), BoundSpace::None);
        assert_eq!((shard.base.num_cells(), shard.base.len()), (0, 4));
        let q = store_with_rows(PluginVariant::FusionDist);
        assert_eq!(snap.knn(&q, 0, 10).len(), snap.len());

        // The cell-less base serves bit-identically to a flat scan of the
        // live rows under a tombstone mask, with a delta behind it, and
        // after the next fold.
        let served = |snap: &ShardedSnapshot| -> Vec<(u64, u32)> {
            let hits = snap.knn_batch(&q, 3).concat();
            hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
        };
        let flat = |snap: &ShardedSnapshot| -> Vec<(u64, u32)> {
            let (rows, ids) = snap.to_flat();
            let hits = rows.knn_batch(&q, 3).concat();
            let bits = |h: &RetrievalResult| (ids[h.index], h.distance.to_bits());
            hits.iter().map(bits).collect()
        };
        store.remove(1).expect("remove");
        let (eu, hy, fa) = row(7, PluginVariant::FusionDist);
        store
            .upsert(7, &eu, hy.as_deref(), fa.as_deref())
            .expect("upsert");
        let masked = store.snapshot();
        assert_eq!(masked.shards[0].base_dead.iter().collect::<Vec<_>>(), [1]);
        assert_eq!(served(&masked), flat(&masked));
        store.compact_inline().expect("compact");
        let folded = store.snapshot();
        assert!(!folded.shards[0].base_indexed() && folded.delta_rows() == 0);
        assert_eq!(served(&folded), served(&masked));
        assert_eq!(served(&folded), flat(&folded));
    }

    #[test]
    fn concurrent_readers_and_writer_agree_with_model() {
        let store = serving(PluginVariant::Original, 8);
        let queries = store_with_rows(PluginVariant::Original);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                // Every observed view must be internally consistent:
                // len() matches live_ids(), knn returns only live ids.
                for _ in 0..200 {
                    let snap = store.snapshot();
                    let ids = snap.live_ids();
                    assert_eq!(ids.len(), snap.len());
                    for hits in snap.knn_batch(&queries, 3) {
                        for h in hits {
                            assert!(ids.contains(&h.id));
                        }
                    }
                }
            });
            for i in 0..100u64 {
                let (eu, hy, fa) = row(i, PluginVariant::Original);
                store
                    .upsert(1000 + (i % 20), &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
                if i % 3 == 0 {
                    store.remove(1000 + ((i + 1) % 20)).ok();
                }
            }
            reader.join().expect("reader");
        });
    }

    #[test]
    fn durable_store_recovers_after_restart() {
        for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
            let dir = std::env::temp_dir().join(format!(
                "lh-serve-recover-{}-{}",
                variant.name(),
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let base = store_with_rows(variant);
            let queries = base.clone();
            let opts = one_shard(0);
            let store = ShardedServingStore::create_durable(&dir, base, vec![0, 1, 2], opts)
                .expect("create");
            for i in 0..5u64 {
                let (eu, hy, fa) = row(i, variant);
                store
                    .upsert(300 + i, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
            }
            store.remove(2).expect("remove");
            store.compact_inline().expect("compact mid-history");
            let shard = dir.join(wal::shard_dir_name(0));
            let installed = wal::wal_name(store.stats().epoch);
            assert_eq!(files(&shard), [installed.as_str(), wal::CKPT_FILE]);
            for i in 5..8u64 {
                let (eu, hy, fa) = row(i, variant);
                store
                    .upsert(300 + i, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
            }
            let bits = |store: &ShardedServingStore| -> Vec<Vec<(u64, u32)>> {
                let hits = store.knn_batch(&queries, 5);
                let bits = |h: &ServeHit| (h.id, h.distance.to_bits());
                hits.iter()
                    .map(|hs| hs.iter().map(bits).collect())
                    .collect()
            };
            let expect = bits(&store);
            let expect_stats = store.stats();
            drop(store);

            let back = ShardedServingStore::recover(&dir, opts).expect("recover");
            assert_eq!(bits(&back), expect, "{}", variant.name());
            let got_stats = back.stats();
            assert_eq!(got_stats.live_rows, expect_stats.live_rows);
            assert_eq!(got_stats.compactions, expect_stats.compactions);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    type Row = (Vec<f32>, Option<Vec<f32>>, Option<Vec<f32>>);

    /// A durable one-shard `Original` store over `store_with_rows` (ids
    /// `0..3`) in a fresh directory, and the BTreeMap model of its rows.
    fn durable(tag: &str) -> (PathBuf, ShardedServingStore, BTreeMap<u64, Row>) {
        let dir = std::env::temp_dir().join(format!("lh-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = store_with_rows(PluginVariant::Original);
        let model = (0..3).map(|r| (r as u64, (base.eu_row(r).to_vec(), None, None)));
        let model = model.collect();
        let store = ShardedServingStore::create_durable(&dir, base, vec![0, 1, 2], one_shard(0))
            .expect("create");
        (dir, store, model)
    }

    /// Upserts `row(seed)` under `id` into the store and the model.
    fn put(store: &ShardedServingStore, model: &mut BTreeMap<u64, Row>, id: u64, seed: u64) {
        let (eu, hy, fa) = row(seed, PluginVariant::Original);
        store
            .upsert(id, &eu, hy.as_deref(), fa.as_deref())
            .expect("upsert");
        model.insert(id, (eu, hy, fa));
    }

    /// The store's live rows by id, in the model's terms.
    fn live_rows(store: &ShardedServingStore) -> BTreeMap<u64, Row> {
        let (rows, ids) = store.snapshot().to_flat();
        let row = |r: usize| (rows.eu_row(r).to_vec(), None, None);
        ids.iter()
            .enumerate()
            .map(|(r, &id)| (id, row(r)))
            .collect()
    }

    fn hit_bits(store: &ShardedServingStore) -> Vec<Vec<(u64, u32)>> {
        let queries = store_with_rows(PluginVariant::Original);
        let hits = store.knn_batch(&queries, 4);
        let bits = |h: &ServeHit| (h.id, h.distance.to_bits());
        hits.iter()
            .map(|hs| hs.iter().map(bits).collect())
            .collect()
    }

    /// The names in a shard directory, sorted.
    fn files(shard: &Path) -> Vec<String> {
        let entries = std::fs::read_dir(shard).expect("list shard");
        let mut names: Vec<String> = entries
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The log a shard's next install creates, at publication `epoch`.
    fn next_log(shard: &Path, epoch: u64) -> PathBuf {
        shard.join(wal::wal_name(epoch + 1))
    }

    /// Where this process's `write_atomic` stages a shard's checkpoint.
    fn staged_ckpt(shard: &Path, _epoch: u64) -> PathBuf {
        shard.join(format!("{}.{}.tmp", wal::CKPT_FILE, std::process::id()))
    }

    /// An install that fails before its commit point — the next epoch's
    /// log or the checkpoint's tmp file cannot be created — changes
    /// nothing: the fold is a typed I/O error, counters and hits stay as
    /// they were, later writes land on the old log, and recovery equals
    /// the model.
    #[test]
    fn an_install_that_fails_before_its_commit_changes_nothing() {
        for (tag, blocked) in [
            ("fail-wal", next_log as fn(&Path, u64) -> PathBuf),
            ("fail-ckpt", staged_ckpt),
        ] {
            let (dir, store, mut model) = durable(tag);
            let shard = dir.join(wal::shard_dir_name(0));
            for i in 0..4 {
                put(&store, &mut model, 200 + i, i);
            }
            store.remove(1).expect("remove");
            model.remove(&1);
            let (stats, hits) = (store.stats(), hit_bits(&store));
            let blocked = blocked(&shard, stats.epoch);
            std::fs::create_dir(&blocked).expect("block the path");

            let err = store
                .compact_inline()
                .expect_err("the install cannot write");
            assert!(matches!(err, ServeError::Io(_)), "{tag}: {err}");
            assert_eq!(store.stats(), stats, "{tag}");
            assert_eq!(hit_bits(&store), hits, "{tag}");
            assert_eq!(live_rows(&store), model, "{tag}");

            put(&store, &mut model, 300, 9);
            store.remove(0).expect("remove");
            model.remove(&0);
            assert_eq!(live_rows(&store), model, "{tag}");
            std::fs::remove_dir(&blocked).expect("unblock");
            drop(store);

            let back = ShardedServingStore::recover(&dir, one_shard(0)).expect("recover");
            assert_eq!(live_rows(&back), model, "{tag}");
            assert_eq!(back.stats().compactions, 0, "{tag}");
            back.compact_inline().expect("the next fold lands");
            assert_eq!(back.stats().compactions, 1, "{tag}");
            drop(back);
            let again = ShardedServingStore::recover(&dir, one_shard(0)).expect("recover");
            assert_eq!(live_rows(&again), model, "{tag}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The two crash points of an install, on hand-built directories. A
    /// crash after the next epoch's log is written but before the
    /// checkpoint's rename recovers the pre-install state and deletes the
    /// uncommitted log; a crash after the rename but before the old log
    /// is deleted recovers the installed state — the residue in the new
    /// log applied — and deletes the stale log. Either way a checkpoint's
    /// leftover staging sibling is deleted too.
    #[test]
    fn recovery_keeps_the_committed_log_and_deletes_the_other() {
        for committed in [false, true] {
            let (dir, store, mut model) = durable(&format!("crash-{committed}"));
            let shard = dir.join(wal::shard_dir_name(0));
            for i in 0..3 {
                put(&store, &mut model, 400 + i, i);
            }
            drop(store);

            // The next epoch's log holding the residue, and, once
            // committed, the folded base checkpointed at its epoch.
            let (eu, _, _) = row(7, PluginVariant::Original);
            let residue = [
                WalOp::Upsert {
                    id: 500,
                    eu: eu.clone(),
                    hyper: None,
                    factors: None,
                },
                WalOp::Remove { id: 400 },
            ];
            drop(wal::create_wal(&shard, 9, residue, false).expect("next log"));
            if committed {
                let mut rows = store_with_rows(PluginVariant::Original).empty_like();
                for (eu, _, _) in model.values() {
                    rows.push(eu, None, None);
                }
                let ids: Vec<u64> = model.keys().copied().collect();
                let ckpt = shard.join(wal::CKPT_FILE);
                wal::write_checkpoint(&ckpt, 9, 1, &ids, &rows).expect("checkpoint");
                model.insert(500, (eu, None, None));
                model.remove(&400);
            }
            // A checkpoint write an earlier process's crash cut short.
            let torn_ckpt = shard.join(format!("{}.1.tmp", wal::CKPT_FILE));
            std::fs::write(&torn_ckpt, b"LHCP").expect("torn sibling");
            assert_eq!(files(&shard).len(), 4);

            let back = ShardedServingStore::recover(&dir, one_shard(0)).expect("recover");
            assert_eq!(live_rows(&back), model, "committed={committed}");
            assert_eq!(back.stats().compactions, committed as u64);
            let kept = wal::wal_name(if committed { 9 } else { 0 });
            assert_eq!(files(&shard), [kept.as_str(), wal::CKPT_FILE]);
            drop(back);
            let again = ShardedServingStore::recover(&dir, one_shard(0)).expect("recover");
            assert_eq!(live_rows(&again), model, "committed={committed}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A directory in the layout of manifest version 2 — one `serve.wal`
    /// per shard — fails recovery with a typed `UnsupportedVersion` and
    /// leaves every file as it was: its log is neither deleted as
    /// belonging to no epoch nor skipped.
    #[test]
    fn a_version_2_directory_is_unsupported_and_untouched() {
        let (dir, store, mut model) = durable("v2-layout");
        put(&store, &mut model, 800, 1);
        drop(store);
        let shard = dir.join(wal::shard_dir_name(0));
        std::fs::rename(shard.join(wal::wal_name(0)), shard.join("serve.wal")).expect("rename");
        let v2 = traj_core::codec::Format {
            magic: *b"LHSM",
            version: 2,
        };
        let manifest = dir.join(wal::MANIFEST_FILE);
        std::fs::write(&manifest, framed(v2, &1u32.to_le_bytes())).expect("v2 manifest");
        let read_all = || {
            [
                manifest.clone(),
                shard.join(wal::CKPT_FILE),
                shard.join("serve.wal"),
            ]
            .map(|path| std::fs::read(path).expect("read"))
        };
        let before = read_all();

        let err = ShardedServingStore::recover(&dir, one_shard(0)).expect_err("old layout");
        assert!(
            matches!(err, ServeError::Decode(DecodeError::UnsupportedVersion(2))),
            "{err}"
        );
        assert_eq!(read_all(), before);
        assert_eq!(files(&shard), [wal::CKPT_FILE, "serve.wal"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single flipped bit in a WAL header's epoch is a typed error. An
    /// unframed header read a cleared set bit as an older epoch, and
    /// recovery discarded the whole log as stale.
    #[test]
    fn a_flipped_wal_epoch_bit_is_a_typed_error() {
        let (dir, store, mut model) = durable("epoch-flip");
        put(&store, &mut model, 600, 1);
        store.compact_inline().expect("fold");
        put(&store, &mut model, 601, 2);
        drop(store);
        let path = dir.join(wal::shard_dir_name(0)).join(wal::wal_name(2));
        let mut raw = std::fs::read(&path).expect("read wal");
        let at = 24; // the epoch follows the frame's 24-byte header
        let epoch = u64::from_le_bytes(raw[at..at + 8].try_into().expect("epoch word"));
        assert!(epoch > 0, "the fold bound the WAL to a later epoch");
        let bit = epoch.trailing_zeros() as usize;
        raw[at + bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &raw).expect("flip");
        let err = ShardedServingStore::recover(&dir, one_shard(0)).expect_err("flipped epoch");
        assert!(
            matches!(
                err,
                ServeError::Decode(DecodeError::ChecksumMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
