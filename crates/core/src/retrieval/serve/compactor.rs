//! The background compactor: one dedicated thread that runs every
//! scheduled shard fold off the write path.
//!
//! Every sharded serving store has one. A write whose published churn
//! reaches the shard's threshold *schedules* the shard (its id pushed
//! onto an mpsc channel); the compactor thread drains the channel and
//! runs the shard's one fold, `Shard::fold`: pin a snapshot under a
//! briefly held writer lock, fold and prepare the install off-lock,
//! commit under the writer lock. Writers never pay the fold and wait
//! only on its commit; queries never see it at all.
//!
//! Scheduling is deduplicated with one atomic flag per shard — a shard
//! sits in the queue at most once. The flag clears *before* the fold
//! pins, so churn arriving during the fold can re-schedule the shard and
//! is never silently stranded below threshold.
//!
//! Determinism hooks for tests and shutdown:
//!
//! * [`Compactor::drain`] blocks until every scheduled fold has been
//!   installed (or discarded as stale) and surfaces the first error any
//!   fold hit — after it returns, no fold is pending;
//! * dropping the compactor closes the channel; the thread finishes the
//!   remaining queue and exits, and the drop joins it (drain-on-shutdown,
//!   so a durable store's final checkpoints always land).

use super::{unpoison, ServeError, Shard};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Work the drain waits on: scheduled-but-unprocessed folds plus the
/// first error surfaced by any fold.
struct Inflight {
    pending: usize,
    error: Option<ServeError>,
}

/// State shared between schedulers, the worker thread, and drainers.
struct Shared {
    /// Per-shard "already queued" flags (dedupe).
    scheduled: Vec<AtomicBool>,
    inflight: Mutex<Inflight>,
    done: Condvar,
}

/// Handle to the background compactor thread. See the module docs.
pub(crate) struct Compactor {
    tx: Option<Sender<usize>>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Compactor {
    /// Spawns the compactor thread over `shards` (indexed by shard id).
    /// Fails only when the OS refuses the thread.
    pub(crate) fn spawn(shards: Vec<Arc<Shard>>) -> Result<Compactor, ServeError> {
        let shared = Arc::new(Shared {
            scheduled: (0..shards.len()).map(|_| AtomicBool::new(false)).collect(),
            inflight: Mutex::new(Inflight {
                pending: 0,
                error: None,
            }),
            done: Condvar::new(),
        });
        let (tx, rx) = channel::<usize>();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("serve-compactor".into())
            .spawn(move || {
                // `recv` errs only when every sender is gone — the queued
                // tail still drains first, which is the shutdown contract.
                while let Ok(sid) = rx.recv() {
                    // Clear before the fold pins its snapshot: churn that
                    // lands after this point re-schedules the shard, so
                    // nothing above threshold is stranded.
                    worker_shared.scheduled[sid].store(false, Ordering::Release);
                    let result = shards[sid].fold();
                    let mut inflight = unpoison(worker_shared.inflight.lock());
                    if let Err(e) = result {
                        inflight.error.get_or_insert(e);
                    }
                    inflight.pending -= 1;
                    if inflight.pending == 0 {
                        worker_shared.done.notify_all();
                    }
                }
            })?;
        Ok(Compactor {
            tx: Some(tx),
            worker: Some(worker),
            shared,
        })
    }

    /// Queues shard `sid` for a background fold; a no-op if it is already
    /// queued.
    pub(crate) fn schedule(&self, sid: usize) {
        if self.shared.scheduled[sid].swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut inflight = unpoison(self.shared.inflight.lock());
            inflight.pending += 1;
        }
        if let Some(tx) = &self.tx {
            // Send can only fail after the worker is gone, which only
            // happens during drop — nothing left to schedule for.
            let _ = tx.send(sid);
        }
    }

    /// Blocks until every scheduled fold has completed, then surfaces the
    /// first error any fold hit (clearing it).
    pub(crate) fn drain(&self) -> Result<(), ServeError> {
        let mut inflight = unpoison(self.shared.inflight.lock());
        while inflight.pending > 0 {
            inflight = unpoison(self.shared.done.wait(inflight));
        }
        match inflight.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        // Closing the channel lets the worker drain the queued tail and
        // exit; the join makes shutdown synchronous.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
