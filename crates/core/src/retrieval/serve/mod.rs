//! The mutable serving tier: epoch-snapshot concurrent reads over a
//! store that accepts incremental upserts and removals.
//!
//! Everything below this module serves *frozen* stores; real serving
//! needs writes without pausing queries. A [`ServingStore`] holds:
//!
//! * `RwLock<Arc<Snapshot>>` — the **published view**. The lock guards
//!   only the pointer swap: readers clone the `Arc` (a refcount bump) and
//!   then query entirely lock-free, so a long `knn_batch` never blocks a
//!   writer and a writer never blocks a running query — it can only delay
//!   the *next* snapshot acquisition by the nanoseconds of a pointer
//!   store;
//! * `Mutex<Writer>` — the **write path**. Writers are serialized;
//!   each `upsert`/`remove` logs to the WAL (when durable), applies to
//!   the delta segment, and publishes a fresh immutable [`Snapshot`].
//!   Publication cost is O(delta) — bounded by the compaction threshold —
//!   while the compacted base is shared by `Arc`.
//!
//! Reads over any snapshot are **bit-identical** to a flat scan of that
//! snapshot's live rows (see [`snapshot`] for the argument); the pivot
//! index attached to the base stays exact under tombstones because dead
//! rows are skipped before any bound or heap offer fires.
//!
//! Compaction (`compact`) folds the delta and tombstones into a fresh
//! base and rebuilds the pivot index over it — with cells whenever the
//! base's bound space can prune (every metric variant, and `fusion-dist`
//! through the convex-mix bound). The fold has two drivers. Under a
//! [`sharded::ShardedServingStore`] with a background compactor — the
//! default serving configuration — a shard that trips its threshold is
//! *scheduled*, and the `compactor` thread runs the two-phase
//! [`ServingStore::compact_background`]: pin a snapshot under a briefly
//! held writer lock, fold off-lock, install under a microseconds-held
//! lock, so no writer ever pays a fold. A standalone [`ServingStore`]
//! has no such thread: there the writer that trips
//! [`ServingOptions::compact_threshold`] folds inline under its own lock
//! ([`ServingStore::compact`], also callable on demand). Either way
//! readers keep querying the old snapshot until the new one is
//! published. Durability (`wal`) is WAL + atomic-rename checkpoint:
//! recovery loads the last checkpoint, replays the verified WAL prefix,
//! and discards a torn tail.

pub(crate) mod compact;
pub(crate) mod compactor;
pub mod sharded;
pub mod snapshot;
pub(crate) mod wal;

use super::index::build::IndexParams;
use super::index::IndexedStore;
use super::store::EmbeddingStore;
use parking_lot::{Mutex, RwLock};
use snapshot::Snapshot;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wal::{WalFile, WalOp};

pub use super::codec::StoreDecodeError;

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
    Decode(StoreDecodeError),
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

impl From<StoreDecodeError> for ServeError {
    fn from(e: StoreDecodeError) -> Self {
        ServeError::Decode(e)
    }
}

/// Configuration for a [`ServingStore`].
#[derive(Debug, Clone, Copy)]
pub struct ServingOptions {
    /// Build parameters of the base's pivot index. A base gets cells
    /// whenever its bound space can prune — every variant a model emits;
    /// only a fused base whose factors fail certification is served by
    /// the flat scan.
    pub index_params: IndexParams,
    /// Auto-compaction trigger: when `delta rows + tombstones` reaches
    /// this, the writer that tripped it compacts inline (a sharded store
    /// with a background compactor schedules the fold on its thread
    /// instead). `0` disables auto-compaction (callers compact manually).
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
    base: Arc<IndexedStore>,
    base_ids: Arc<Vec<u64>>,
    base_dead: Vec<u32>,
    delta: EmbeddingStore,
    delta_ids: Vec<u64>,
    delta_dead: Vec<u32>,
    epoch: u64,
    /// Base generation: bumped every time a fresh base is swapped in.
    /// A background fold pins the generation it started from; an install
    /// against a different generation is stale and must be discarded
    /// (its delta watermark indexes a delta that no longer exists).
    generation: u64,
    compactions: u64,
    wal: Option<WalFile>,
    dir: Option<PathBuf>,
}

impl Writer {
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            base: Arc::clone(&self.base),
            base_ids: Arc::clone(&self.base_ids),
            base_dead: self.base_dead.clone(),
            delta: self.delta.clone(),
            delta_ids: self.delta_ids.clone(),
            delta_dead: self.delta_dead.clone(),
            epoch: self.epoch,
        }
    }

    /// Delta growth since the last compaction — the auto-compact metric
    /// and the per-publication clone cost.
    fn churn(&self) -> usize {
        self.delta_ids.len() + self.base_dead.len()
    }
}

/// Inserts into a sorted tombstone list (idempotent).
fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(pos) = v.binary_search(&x) {
        v.insert(pos, x);
    }
}

/// A mutable embedding store serving lock-free snapshot reads. See the
/// module docs for the concurrency and bit-identity contracts.
pub struct ServingStore {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<Writer>,
    opts: ServingOptions,
}

impl fmt::Debug for ServingStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ServingStore")
            .field("stats", &stats)
            .finish_non_exhaustive()
    }
}

impl ServingStore {
    /// In-memory serving store over `base` rows with external `ids`
    /// (parallel to the rows; must be unique). No persistence.
    pub fn new(
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
    ) -> Result<ServingStore, ServeError> {
        Self::assemble(base, ids, opts, None, None, 0)
    }

    /// Creates a durable serving store in `dir`: writes the initial
    /// checkpoint and an empty WAL, then serves like [`ServingStore::new`].
    pub fn create_durable(
        dir: &Path,
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
    ) -> Result<ServingStore, ServeError> {
        std::fs::create_dir_all(dir)?;
        let ckpt = wal::Checkpoint {
            store: base,
            ids,
            epoch: 0,
            compactions: 0,
        };
        wal::write_checkpoint(&dir.join(wal::CKPT_FILE), &ckpt)?;
        let mut wal_file = WalFile::create(&dir.join(wal::WAL_FILE), 0)?;
        wal_file.set_fsync(opts.fsync);
        Self::assemble(
            ckpt.store,
            ckpt.ids,
            opts,
            Some(wal_file),
            Some(dir.to_path_buf()),
            0,
        )
    }

    /// Recovers a durable serving store from `dir`: loads the last
    /// checkpoint, replays the verified WAL prefix (discarding a torn
    /// tail), and discards a stale WAL left by a crash between checkpoint
    /// publication and WAL truncation.
    pub fn recover(dir: &Path, opts: ServingOptions) -> Result<ServingStore, ServeError> {
        let ckpt = wal::read_checkpoint(&dir.join(wal::CKPT_FILE))?;
        let wal_path = dir.join(wal::WAL_FILE);
        let (ops, wal_file) = if wal_path.exists() {
            let (replay, wal_file) = wal::replay(&wal_path)?;
            if replay.checkpoint_epoch < ckpt.epoch {
                // Crash between checkpoint rename and WAL swap: these ops
                // are already folded into the checkpoint.
                (Vec::new(), WalFile::create(&wal_path, ckpt.epoch)?)
            } else if replay.checkpoint_epoch > ckpt.epoch {
                return Err(ServeError::Corrupt(format!(
                    "wal is bound to epoch {} but checkpoint is at {}",
                    replay.checkpoint_epoch, ckpt.epoch
                )));
            } else {
                (replay.ops, wal_file)
            }
        } else {
            (Vec::new(), WalFile::create(&wal_path, ckpt.epoch)?)
        };
        let mut wal_file = wal_file;
        wal_file.set_fsync(opts.fsync);
        let store = Self::assemble(
            ckpt.store,
            ckpt.ids,
            opts,
            Some(wal_file),
            Some(dir.to_path_buf()),
            ckpt.compactions,
        )?;
        {
            // Replay without re-logging: the ops are already on disk.
            let mut w = store.writer.lock();
            w.epoch = ckpt.epoch;
            for op in ops {
                match op {
                    WalOp::Upsert {
                        id,
                        eu,
                        hyper,
                        factors,
                    } => {
                        store.apply_upsert(
                            &mut w,
                            id,
                            &eu,
                            hyper.as_deref(),
                            factors.as_deref(),
                        )?;
                        w.epoch += 1;
                    }
                    WalOp::Remove { id } => {
                        if Self::apply_remove(&mut w, id) {
                            w.epoch += 1;
                        }
                    }
                }
            }
            let snap = Arc::new(w.snapshot());
            drop(w);
            *store.current.write() = snap;
        }
        Ok(store)
    }

    fn assemble(
        base: EmbeddingStore,
        ids: Vec<u64>,
        opts: ServingOptions,
        wal: Option<WalFile>,
        dir: Option<PathBuf>,
        compactions: u64,
    ) -> Result<ServingStore, ServeError> {
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
        let delta = base.empty_like();
        let writer = Writer {
            loc,
            base: Arc::new(IndexedStore::build(base, opts.index_params)),
            base_ids: Arc::new(ids),
            base_dead: Vec::new(),
            delta,
            delta_ids: Vec::new(),
            delta_dead: Vec::new(),
            epoch: 0,
            generation: 0,
            compactions,
            wal,
            dir,
        };
        let current = RwLock::new(Arc::new(writer.snapshot()));
        Ok(ServingStore {
            current,
            writer: Mutex::new(writer),
            opts,
        })
    }

    /// The current published snapshot — an O(1) `Arc` clone; query it
    /// entirely lock-free for as long as needed.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read())
    }

    /// Batched top-k against the current snapshot (convenience for
    /// callers that don't need to pin one view across calls).
    pub fn knn_batch(&self, queries: &EmbeddingStore, k: usize) -> Vec<Vec<ServeHit>> {
        self.snapshot().knn_batch(queries, k)
    }

    /// Current occupancy and lifecycle counters.
    pub fn stats(&self) -> ServeStats {
        let w = self.writer.lock();
        ServeStats {
            epoch: w.epoch,
            live_rows: w.loc.len(),
            base_rows: w.base_ids.len(),
            delta_rows: w.delta_ids.len(),
            tombstones: w.base_dead.len() + w.delta_dead.len(),
            compactions: w.compactions,
        }
    }

    /// Live rows.
    pub fn len(&self) -> usize {
        self.writer.lock().loc.len()
    }

    /// Whether no live row exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts or replaces the row for `id`. `hyper` must be present iff
    /// the variant is hyperbolic, `factors` iff fusion is active, with
    /// the layout's exact widths. Returns whether an existing row was
    /// replaced. Publishes a new snapshot; may trigger inline compaction.
    pub fn upsert(
        &self,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<bool, ServeError> {
        let mut w = self.writer.lock();
        Self::check_shape(&w.delta, eu, hyper, factors)?;
        if let Some(wal) = w.wal.as_mut() {
            wal.append(&WalOp::Upsert {
                id,
                eu: eu.to_vec(),
                hyper: hyper.map(<[f32]>::to_vec),
                factors: factors.map(<[f32]>::to_vec),
            })?;
        }
        let replaced = self.apply_upsert(&mut w, id, eu, hyper, factors)?;
        self.publish_and_maybe_compact(w)?;
        Ok(replaced)
    }

    /// Removes the row for `id`. Returns whether it existed (publishing
    /// only when it did).
    pub fn remove(&self, id: u64) -> Result<bool, ServeError> {
        let mut w = self.writer.lock();
        if !w.loc.contains_key(&id) {
            return Ok(false);
        }
        if let Some(wal) = w.wal.as_mut() {
            wal.append(&WalOp::Remove { id })?;
        }
        let existed = Self::apply_remove(&mut w, id);
        debug_assert!(existed);
        self.publish_and_maybe_compact(w)?;
        Ok(true)
    }

    /// Folds delta + tombstones into a fresh (indexed) base now, bumps
    /// the epoch, and — when durable — checkpoints and truncates the WAL.
    /// The entire fold runs under the writer lock (writes queue behind
    /// it); this is the inline escape hatch — [`ServingStore::
    /// compact_background`] is the fold that stays off the write path.
    pub fn compact(&self) -> Result<(), ServeError> {
        let w = self.writer.lock();
        self.compact_locked(w)
    }

    /// Two-phase compaction for a dedicated compactor thread: pins the
    /// current snapshot (plus a delta watermark and base generation)
    /// under a briefly-held writer lock, builds the fresh indexed base
    /// *without holding any lock*, then re-acquires the writer lock only
    /// for the catch-up install — writers never pay the fold. Returns
    /// whether the fold was installed (`false` means another compaction
    /// swapped the base first and this fold was discarded as stale).
    pub fn compact_background(&self) -> Result<bool, ServeError> {
        let (pinned, watermark, generation) = {
            let w = self.writer.lock();
            (w.snapshot(), w.delta_ids.len(), w.generation)
        };
        // The fold: O(live rows) materialization + index build, off-lock.
        // Readers keep querying published snapshots; writers keep
        // appending to the (still current-generation) delta.
        let folded = compact::compact_snapshot(&pinned, &self.opts);
        let w = self.writer.lock();
        if w.generation != generation {
            // A competing compaction (inline escape hatch, or a racing
            // background fold) already replaced the base; `watermark` no
            // longer indexes the live delta. Drop the fold.
            return Ok(false);
        }
        self.install_fold(w, folded, watermark)?;
        Ok(true)
    }

    /// Churn accumulated since the last compaction (delta rows plus base
    /// tombstones) — the metric `compact_threshold` triggers on. Offered
    /// so an external compaction scheduler (the sharded store's
    /// background compactor) can poll trip state without a snapshot.
    pub fn churn_level(&self) -> usize {
        self.writer.lock().churn()
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
        &self,
        w: &mut Writer,
        id: u64,
        eu: &[f32],
        hyper: Option<&[f32]>,
        factors: Option<&[f32]>,
    ) -> Result<bool, ServeError> {
        Self::check_shape(&w.delta, eu, hyper, factors)?;
        if w.delta_ids.len() >= u32::MAX as usize {
            return Err(ServeError::Corrupt(
                "delta exceeds u32::MAX rows".to_string(),
            ));
        }
        let replaced = match w.loc.get(&id).copied() {
            Some(Loc::Base(r)) => {
                insert_sorted(&mut w.base_dead, r);
                true
            }
            Some(Loc::Delta(j)) => {
                insert_sorted(&mut w.delta_dead, j);
                true
            }
            None => false,
        };
        let j = w.delta_ids.len() as u32;
        w.delta.push(eu, hyper, factors);
        w.delta_ids.push(id);
        w.loc.insert(id, Loc::Delta(j));
        Ok(replaced)
    }

    /// Applies a removal to the writer state. Returns whether `id` was
    /// live.
    fn apply_remove(w: &mut Writer, id: u64) -> bool {
        match w.loc.remove(&id) {
            Some(Loc::Base(r)) => {
                insert_sorted(&mut w.base_dead, r);
                true
            }
            Some(Loc::Delta(j)) => {
                insert_sorted(&mut w.delta_dead, j);
                true
            }
            None => false,
        }
    }

    /// Bumps the epoch, publishes a fresh snapshot, and compacts inline
    /// when the churn threshold is tripped.
    fn publish_and_maybe_compact(
        &self,
        mut w: parking_lot::MutexGuard<'_, Writer>,
    ) -> Result<(), ServeError> {
        w.epoch += 1;
        if self.opts.compact_threshold > 0 && w.churn() >= self.opts.compact_threshold {
            return self.compact_locked(w);
        }
        let snap = Arc::new(w.snapshot());
        drop(w);
        *self.current.write() = snap;
        Ok(())
    }

    fn compact_locked(&self, w: parking_lot::MutexGuard<'_, Writer>) -> Result<(), ServeError> {
        // Inline fold: the watermark is the full delta, so the catch-up
        // below degenerates to "empty delta, no residual tombstones".
        let watermark = w.delta_ids.len();
        let folded = compact::compact_snapshot(&w.snapshot(), &self.opts);
        self.install_fold(w, folded, watermark)
    }

    /// Swaps `folded` (the materialized live rows of the snapshot pinned
    /// at `watermark` delta rows) in as the new base, re-expressing
    /// everything that happened since the pin against it:
    ///
    /// * delta rows `watermark..` survive as the new delta (bytewise row
    ///   copies — O(churn since pin), which is what keeps this critical
    ///   section in the microseconds band);
    /// * a folded row whose id has since been superseded (re-upserted
    ///   past the watermark) or removed becomes a base tombstone;
    /// * post-watermark delta tombstones are rebased by the watermark.
    ///
    /// When durable, the checkpoint persists the folded base and the
    /// fresh WAL is seeded with the residual ops (surviving upserts in
    /// delta order, then removals), so recovery replays to exactly the
    /// installed state.
    fn install_fold(
        &self,
        mut w: parking_lot::MutexGuard<'_, Writer>,
        folded: compact::CompactedBase,
        watermark: usize,
    ) -> Result<(), ServeError> {
        // --- Catch-up against writes that landed after the pin. ---
        let mut new_delta = w.delta.empty_like();
        for j in watermark..w.delta_ids.len() {
            new_delta.push_row_from(&w.delta, j);
        }
        let new_delta_ids: Vec<u64> = w.delta_ids[watermark..].to_vec();
        let new_delta_dead: Vec<u32> = w
            .delta_dead
            .iter()
            .filter(|&&d| d as usize >= watermark)
            .map(|&d| d - watermark as u32)
            .collect();
        let mut new_base_dead = Vec::new();
        let mut new_loc: HashMap<u64, Loc> = HashMap::with_capacity(w.loc.len());
        for (r, &id) in folded.ids.iter().enumerate() {
            // The folded copy of `id` is its pre-watermark version; it is
            // still live iff the id's current location predates the
            // watermark (tombstoning is monotone within a generation, so
            // "live now in a pre-watermark slot" implies "live at pin").
            let live = match w.loc.get(&id) {
                Some(Loc::Base(_)) => true,
                Some(Loc::Delta(j)) => (*j as usize) < watermark,
                None => false,
            };
            if live {
                new_loc.insert(id, Loc::Base(r as u32));
            } else {
                new_base_dead.push(r as u32); // ascending by construction
            }
        }
        for (&id, &l) in w.loc.iter() {
            if let Loc::Delta(j) = l {
                if j as usize >= watermark {
                    new_loc.insert(id, Loc::Delta(j - watermark as u32));
                }
            }
        }
        debug_assert_eq!(
            new_loc.len(),
            w.loc.len(),
            "catch-up must keep every live id"
        );

        // --- Persist first: the checkpoint must be on disk before the
        // WAL that preceded it is dropped. A crash after the rename but
        // before the WAL swap leaves a stale-epoch WAL that recovery
        // discards (its ops are inside the checkpoint). ---
        w.epoch += 1;
        w.generation += 1;
        w.compactions += 1;
        if let Some(dir) = w.dir.clone() {
            let ckpt = wal::Checkpoint {
                store: folded.base.store().clone(),
                ids: folded.ids.as_ref().clone(),
                epoch: w.epoch,
                compactions: w.compactions,
            };
            wal::write_checkpoint(&dir.join(wal::CKPT_FILE), &ckpt)?;
            let mut fresh = WalFile::create(&dir.join(wal::WAL_FILE), w.epoch)?;
            fresh.set_fsync(self.opts.fsync);
            // Re-log the post-pin residue: upserts in delta order (so
            // replay rebuilds the same delta rows with the same
            // supersession tombstones), then removals for every id that
            // the residue leaves dead. Replay therefore reconstructs the
            // installed segment structure exactly, not just the live set.
            for (j, &id) in new_delta_ids.iter().enumerate() {
                fresh.append(&WalOp::Upsert {
                    id,
                    eu: new_delta.eu_row(j).to_vec(),
                    hyper: new_delta
                        .variant()
                        .uses_hyperbolic()
                        .then(|| new_delta.hyper_row(j).to_vec()),
                    factors: new_delta
                        .factor_dim()
                        .is_some()
                        .then(|| new_delta.factor_row(j).to_vec()),
                })?;
            }
            let mut logged_removes = std::collections::HashSet::new();
            for &r in &new_base_dead {
                let id = folded.ids[r as usize];
                if !new_loc.contains_key(&id) && logged_removes.insert(id) {
                    fresh.append(&WalOp::Remove { id })?;
                }
            }
            for &id in &new_delta_ids {
                if !new_loc.contains_key(&id) && logged_removes.insert(id) {
                    fresh.append(&WalOp::Remove { id })?;
                }
            }
            w.wal = Some(fresh);
        }

        // --- The swap itself: pointer stores and O(churn) moves. ---
        w.base = folded.base;
        w.base_ids = Arc::clone(&folded.ids);
        w.base_dead = new_base_dead;
        w.delta = new_delta;
        w.delta_ids = new_delta_ids;
        w.delta_dead = new_delta_dead;
        w.loc = new_loc;
        let snap = Arc::new(w.snapshot());
        drop(w);
        *self.current.write() = snap;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::index::bound::BoundSpace;
    use super::super::store::tests::store_with_rows;
    use super::super::store::RetrievalResult;
    use super::*;
    use crate::config::PluginVariant;

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

    fn serving(variant: PluginVariant, threshold: usize) -> ServingStore {
        let base = store_with_rows(variant);
        let n = base.len() as u64;
        ServingStore::new(
            base,
            (0..n).collect(),
            ServingOptions {
                compact_threshold: threshold,
                ..ServingOptions::default()
            },
        )
        .expect("valid store")
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
            ServingStore::new(base.clone(), vec![1, 1, 2], ServingOptions::default()),
            Err(ServeError::Corrupt(_))
        ));
        assert!(matches!(
            ServingStore::new(base, vec![1], ServingOptions::default()),
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
    fn auto_compaction_folds_delta_into_indexed_base() {
        let store = serving(PluginVariant::Original, 4);
        for i in 0..6u64 {
            let (eu, hy, fa) = row(i, PluginVariant::Original);
            store
                .upsert(100 + i, &eu, hy.as_deref(), fa.as_deref())
                .expect("upsert");
        }
        let stats = store.stats();
        assert!(stats.compactions >= 1, "threshold 4 must have tripped");
        assert_eq!(stats.live_rows, 9);
        let snap = store.snapshot();
        assert!(snap.base_indexed(), "metric base re-indexed by compaction");
        // Everything folded at the last compaction; only post-compaction
        // churn remains in the delta.
        assert!(snap.delta_rows() < 4);
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
            store.compact().expect("compact");
            assert_eq!(store.snapshot().delta_rows(), 0);
            let after: Vec<Vec<(u64, u32)>> = store
                .knn_batch(&queries, 4)
                .iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
                .collect();
            assert_eq!(before, after, "{}", variant.name());
        }
    }

    #[test]
    fn fused_base_is_indexed_when_its_factors_certify() {
        let store = serving(PluginVariant::FusionDist, 0);
        store.compact().expect("compact");
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
        store.compact().expect("compact");
        let snap = store.snapshot();
        assert!(
            !snap.base_indexed(),
            "uncertifiable fused base has no cells"
        );
        assert_eq!(snap.base.bound_space(), BoundSpace::None);
        assert_eq!((snap.base.num_cells(), snap.base.len()), (0, 4));
        let q = store_with_rows(PluginVariant::FusionDist);
        assert_eq!(snap.knn(&q, 0, 10).len(), snap.len());

        // The cell-less base serves bit-identically to a flat scan of the
        // live rows under a tombstone mask, with a delta behind it, and
        // after the next fold.
        let served = |snap: &Snapshot| -> Vec<(u64, u32)> {
            let hits = snap.knn_batch(&q, 3).concat();
            hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
        };
        let flat = |snap: &Snapshot| -> Vec<(u64, u32)> {
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
        assert_eq!(masked.base_dead, vec![1]);
        assert_eq!(served(&masked), flat(&masked));
        store.compact().expect("compact");
        let folded = store.snapshot();
        assert!(!folded.base_indexed() && folded.delta_rows() == 0);
        assert_eq!(served(&folded), served(&masked));
        assert_eq!(served(&folded), flat(&folded));
    }

    #[test]
    #[should_panic(expected = "query store layout mismatch")]
    fn snapshot_knn_rejects_a_query_store_of_another_width() {
        let store = serving(PluginVariant::Original, 0);
        let mut q = EmbeddingStore::new(3, PluginVariant::Original, 1.0, None);
        q.push(&[0.0; 3], None, None);
        let _ = store.snapshot().knn(&q, 0, 1);
    }

    #[test]
    fn concurrent_readers_and_writer_agree_with_model() {
        let store = std::sync::Arc::new(serving(PluginVariant::Original, 8));
        let queries = store_with_rows(PluginVariant::Original);
        std::thread::scope(|s| {
            let reader_store = std::sync::Arc::clone(&store);
            let reader = s.spawn(move || {
                // Every observed view must be internally consistent:
                // len() matches live_ids(), knn returns only live ids.
                for _ in 0..200 {
                    let snap = reader_store.snapshot();
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
            let opts = ServingOptions {
                compact_threshold: 0,
                ..ServingOptions::default()
            };
            let store =
                ServingStore::create_durable(&dir, base, vec![0, 1, 2], opts).expect("create");
            for i in 0..5u64 {
                let (eu, hy, fa) = row(i, variant);
                store
                    .upsert(300 + i, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
            }
            store.remove(2).expect("remove");
            store.compact().expect("compact mid-history");
            for i in 5..8u64 {
                let (eu, hy, fa) = row(i, variant);
                store
                    .upsert(300 + i, &eu, hy.as_deref(), fa.as_deref())
                    .expect("upsert");
            }
            let expect: Vec<Vec<(u64, u32)>> = store
                .knn_batch(&queries, 5)
                .iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
                .collect();
            let expect_stats = store.stats();
            drop(store);

            let back = ServingStore::recover(&dir, opts).expect("recover");
            let got: Vec<Vec<(u64, u32)>> = back
                .knn_batch(&queries, 5)
                .iter()
                .map(|hits| hits.iter().map(|h| (h.id, h.distance.to_bits())).collect())
                .collect();
            assert_eq!(got, expect, "{}", variant.name());
            let got_stats = back.stats();
            assert_eq!(got_stats.live_rows, expect_stats.live_rows);
            assert_eq!(got_stats.compactions, expect_stats.compactions);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
