//! `durable-write`: writes into a durable [`ShardedServingStore`], then
//! restart.
//!
//! 75 % upserts and 25 % removes, no queries: the WAL append, the
//! per-write snapshot publication and the checkpoint a fold writes do the
//! work. Flush policy: `fsync: false` — every append is flushed to the
//! operating system, not to the device — stated here because it decides
//! write latency. The only workload with bytes on disk and a restart
//! time.

use super::churn_mixed::DeltaBuckets;
use super::plan::{hash_block, snapshot_knn, timed_write, Model, Op, Plan, WriteSpans, WRITES};
use crate::host::{bytes_under, Scratch};
use crate::report::{Run, Window};
use crate::stats::{median, percentile, sorted, SplitMix64};
use crate::synth::{hash_store, Mixture};
use lh_core::{
    EmbeddingStore, PluginVariant, ServingOptions, ShardedServingOptions, ShardedServingStore,
};
use std::path::Path;
use std::time::Instant;

pub struct Sizes {
    pub n: usize,
    pub pool: usize,
    /// Writes per round.
    pub block: usize,
    pub k: usize,
    pub setup_reps: usize,
    pub min_rounds: usize,
    /// Share of the measured window spent writing; recoveries take the
    /// rest.
    pub write_share: f64,
    pub recoveries: usize,
    /// Writes of the `fsync: true` probe (traced pass only).
    pub fsync_probe: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n: 100_000,
            pool: 64,
            block: 4096,
            k: 10,
            setup_reps: 3,
            min_rounds: 3,
            write_share: 0.6,
            recoveries: 5,
            fsync_probe: 256,
        }
    }
}

const VARIANT: PluginVariant = PluginVariant::LorentzCosh;

fn options(fsync: bool) -> ShardedServingOptions {
    ShardedServingOptions {
        shards: 2,
        serving: ServingOptions {
            fsync,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Span names of the same writes on an in-memory store, and of the
/// `fsync: true` probe.
const IN_MEMORY: WriteSpans = [
    "ShardedServingStore::upsert in memory",
    "ShardedServingStore::remove in memory",
];
const FSYNC: WriteSpans = [
    "ShardedServingStore::upsert fsync",
    "ShardedServingStore::remove fsync",
];

/// Runs one block's writes against `store`, handing each write's index
/// and latency in µs to `each`, and returns what the writes returned.
fn write_block(
    run: &mut Run,
    store: &ShardedServingStore,
    spans: WriteSpans,
    block: &[Op],
    first_op: u64,
    parent: Option<crate::trace::SpanId>,
    mut each: impl FnMut(usize, f64),
) -> Vec<Result<bool, String>> {
    block
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let op_id = first_op + i as u64;
            let (returned, us) = timed_write(run, store, VARIANT, op, op_id, spans, parent);
            each(i, us);
            returned
        })
        .collect()
}

pub fn run(sizes: &Sizes, run: &mut Run) {
    let mut rng = SplitMix64::new(run.seed ^ 0xd07a);
    let mix = Mixture::new(VARIANT, &mut rng);
    let base = mix.store(sizes.n, &mut rng);
    let pool = mix.store(sizes.pool, &mut rng);
    let ids: Vec<u64> = (0..sizes.n as u64).collect();
    hash_store(&mut run.hash, &base);
    hash_store(&mut run.hash, &pool);
    run.size("rows", sizes.n, "count");
    run.size("writes_per_round", sizes.block, "count");

    let root = Scratch::new("durable-write");
    let dir = root.path().join("store");
    let (store, _) = run.setup(sizes.setup_reps, || {
        let _ = std::fs::remove_dir_all(&dir);
        let (rows, ids) = (base.clone(), ids.clone());
        let start = Instant::now();
        let store = ShardedServingStore::create_durable(&dir, rows, ids, options(false));
        (store, start.elapsed().as_secs_f64())
    });
    let store = match store {
        Ok(store) => store,
        Err(e) => return run.check(&format!("create_durable: {e}"), false),
    };

    let mut model = Model::seeded(&base);
    let mut plan = Plan::new(run.seed, mix, sizes.n, sizes.pool, 0, 75);
    let mut first_block = None;
    let mut write_us = Vec::new();
    let mut buckets = DeltaBuckets::default();
    // WAL growth between samples, skipping the intervals in which a
    // checkpoint truncated the log.
    let (mut wal_grown, mut wal_writes, mut wal_last) = (0u64, 0u64, 0u64);
    let mut round_s = Vec::new();
    let mut window = Window::new(run.seconds * sizes.write_share, sizes.min_rounds);
    while let Some(round) = window.next_round() {
        let block = plan.block(sizes.block);
        if round == 0 {
            hash_block(run, &block);
        }
        let traced = run.traced();
        let span = run.tracer.open("round", round as u64, None);
        let start = Instant::now();
        let returned = write_block(
            run,
            &store,
            WRITES,
            &block,
            (round * sizes.block) as u64,
            span,
            |i, us| {
                if traced && i % 1024 == 0 {
                    buckets.sample(&store);
                    let now = bytes_under(&dir, ".wal");
                    if now >= wal_last && i > 0 {
                        wal_grown += now - wal_last;
                        wal_writes += 1024;
                    }
                    wal_last = now;
                }
                write_us.push(us);
                buckets.write(us);
            },
        );
        round_s.push(start.elapsed().as_secs_f64());
        run.tracer.close(span);
        let wrong = model.apply(&block, &returned);
        run.ops(block.len() as u64, wrong);
        first_block.get_or_insert(block);
    }

    run.rounds(&round_s, sizes.block);
    let first_round_p50 = median(&write_us[..sizes.block]);
    let write_sorted = sorted(&write_us);
    run.metric("write_p50_us", percentile(&write_sorted, 50.0), "us");
    run.metric("write_p99_us", percentile(&write_sorted, 99.0), "us");

    let t0 = Instant::now();
    let drained = store.drain();
    let drain_s = t0.elapsed().as_secs_f64();
    run.check("drain", drained.is_ok());
    let snap = store.snapshot();
    model.check_rows(run, "before restart", &snap);
    let before = snapshot_knn(run, "before restart", &snap, &pool, sizes.k, false);
    let live_bytes = snap.to_flat().0.payload_bytes();
    run.metric(
        "disk_bytes_per_live_byte",
        bytes_under(&dir, "") as f64 / live_bytes as f64,
        "ratio",
    );
    let checkpoint_bytes = bytes_under(&dir, ".ckpt");
    let compactions = store.stats().compactions;
    drop(snap);
    drop(store);

    let mut recover_s = Vec::new();
    let mut replayed = 0;
    for rep in 0..sizes.recoveries {
        let t0 = Instant::now();
        let recovered = ShardedServingStore::recover(&dir, options(false));
        let t1 = Instant::now();
        run.tracer
            .record("ShardedServingStore::recover", rep as u64, t0, t1, None);
        recover_s.push((t1 - t0).as_secs_f64());
        match recovered {
            Ok(recovered) => {
                let snap = recovered.snapshot();
                model.check_rows(run, "after restart", &snap);
                let after = snapshot_knn(run, "after restart", &snap, &pool, sizes.k, false);
                run.check(
                    "after restart: knn equals the store before",
                    after == before,
                );
                replayed = recovered.stats().delta_rows;
            }
            Err(e) => run.check(&format!("recover: {e}"), false),
        }
    }
    run.metric("recover_s", median(&recover_s), "s");

    if run.traced() {
        for (metric, span) in [
            ("writer.upsert_p50_us", WRITES[0]),
            ("writer.remove_p50_us", WRITES[1]),
        ] {
            run.metric(metric, median(&run.tracer.durations_us(span)), "us");
        }
        buckets.report(run);
        run.metric("compactor.drain_s", drain_s, "s");
        run.metric("compactor.compactions", compactions as f64, "count");
        if wal_writes > 0 {
            run.metric(
                "wal.bytes_per_write",
                wal_grown as f64 / wal_writes as f64,
                "B",
            );
        }
        run.metric("checkpoint.bytes", checkpoint_bytes as f64, "B");
        run.metric("recover.delta_rows_replayed", replayed as f64, "count");
        let first_block = first_block.expect("at least one round ran");
        memory_baseline(run, &base, &first_block, first_round_p50);
        fsync_probe(sizes, run, root.path(), &base, &first_block);
    }
}

/// The first round's writes again on an in-memory store, which like the
/// durable one starts from an empty delta: what the WAL adds to a write is
/// the difference of the two rounds' medians.
fn memory_baseline(run: &mut Run, base: &EmbeddingStore, block: &[Op], durable_p50_us: f64) {
    let ids: Vec<u64> = (0..base.len() as u64).collect();
    let store = match ShardedServingStore::new(base.clone(), ids, options(false)) {
        Ok(store) => store,
        Err(e) => return run.check(&format!("in-memory baseline: {e}"), false),
    };
    let mut us = Vec::with_capacity(block.len());
    let returned = write_block(run, &store, IN_MEMORY, block, 0, None, |_, w| us.push(w));
    let wrong = Model::seeded(base).apply(block, &returned);
    run.ops(block.len() as u64, wrong);
    run.metric("wal.write_overhead_us", durable_p50_us - median(&us), "us");
}

/// A few writes with `fsync: true` on a small store: the sandbox's
/// disk, informational.
fn fsync_probe(sizes: &Sizes, run: &mut Run, root: &Path, base: &EmbeddingStore, block: &[Op]) {
    let mut small = base.empty_like();
    let rows = base.len().min(4096);
    for i in 0..rows {
        small.push_row_from(base, i);
    }
    let ids: Vec<u64> = (0..rows as u64).collect();
    let dir = root.join("fsync-probe");
    let store = match ShardedServingStore::create_durable(&dir, small, ids, options(true)) {
        Ok(store) => store,
        Err(e) => return run.check(&format!("fsync probe: {e}"), false),
    };
    let block = &block[..sizes.fsync_probe.min(block.len())];
    let mut us = Vec::with_capacity(block.len());
    let returned = write_block(run, &store, FSYNC, block, 0, None, |_, w| us.push(w));
    let failed = returned.iter().filter(|r| r.is_err()).count();
    run.ops(block.len() as u64, failed as u64);
    run.metric("wal.fsync_write_p50_us", median(&us), "us");
}
