//! `churn-mixed`: reads beside writes on an in-memory
//! [`ShardedServingStore`].
//!
//! One client issues 80 % `snapshot().knn`, 15 % `upsert`, 5 % `remove`.
//! The same index the frozen workloads query is read here through
//! tombstone masks and a delta overlay, while the writer publishes a
//! snapshot per write and the compactor thread folds the delta back into
//! the base every few thousand writes. A read gain that costs writers,
//! or the reverse, shows here and nowhere else.

use super::plan::{hash_block, snapshot_knn, timed_write, Model, Op, Plan, WRITES};
use crate::report::{Run, Window};
use crate::stats::{median, percentile, sorted, SplitMix64};
use crate::synth::{hash_store, Mixture};
use lh_core::{EmbeddingStore, PluginVariant, ShardedServingOptions, ShardedServingStore};
use std::hint::black_box;
use std::time::Instant;

pub struct Sizes {
    /// Seeded rows, ids `0..n`.
    pub n: usize,
    pub pool: usize,
    /// Ops per round; the stream continues from round to round.
    pub block: usize,
    pub k: usize,
    pub setup_reps: usize,
    pub min_rounds: usize,
    /// Queries behind each side of `serve.dirty_over_clean`.
    pub dirty_probe: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            n: 100_000,
            pool: 4096,
            block: 8192,
            k: 10,
            setup_reps: 3,
            min_rounds: 3,
            dirty_probe: 2048,
        }
    }
}

const VARIANT: PluginVariant = PluginVariant::Original;

pub fn options() -> ShardedServingOptions {
    ShardedServingOptions {
        shards: 2,
        ..Default::default()
    }
}

/// Write latencies split by how large the delta was when they ran.
#[derive(Default)]
pub struct DeltaBuckets {
    /// (delta rows at the last sample, write latency in µs).
    samples: Vec<(usize, f64)>,
    delta_rows: Vec<f64>,
    tombstones: Vec<f64>,
    current_delta: usize,
}

impl DeltaBuckets {
    pub fn sample(&mut self, store: &ShardedServingStore) {
        let stats = store.stats();
        self.current_delta = stats.delta_rows;
        self.delta_rows.push(stats.delta_rows as f64);
        self.tombstones.push(stats.tombstones as f64);
    }

    pub fn write(&mut self, us: f64) {
        self.samples.push((self.current_delta, us));
    }

    /// Median write latency in the lowest and the highest quartile of
    /// delta size, and the mean delta rows and tombstones sampled.
    pub fn report(mut self, run: &mut Run) {
        if self.samples.is_empty() || self.delta_rows.is_empty() {
            return;
        }
        self.samples.sort_by_key(|s| s.0);
        let quarter = (self.samples.len() / 4).max(1);
        let p50 = |part: &[(usize, f64)]| median(&part.iter().map(|s| s.1).collect::<Vec<_>>());
        run.metric(
            "writer.write_p50_us_delta_lo",
            p50(&self.samples[..quarter]),
            "us",
        );
        run.metric(
            "writer.write_p50_us_delta_hi",
            p50(&self.samples[self.samples.len() - quarter..]),
            "us",
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        run.metric("serve.delta_rows_mean", mean(&self.delta_rows), "count");
        run.metric("serve.tombstones_mean", mean(&self.tombstones), "count");
    }
}

pub fn run(sizes: &Sizes, run: &mut Run) {
    let mut rng = SplitMix64::new(run.seed ^ 0xc4a2);
    let mix = Mixture::new(VARIANT, &mut rng);
    let base = mix.store(sizes.n, &mut rng);
    let pool = mix.store(sizes.pool, &mut rng);
    let ids: Vec<u64> = (0..sizes.n as u64).collect();
    hash_store(&mut run.hash, &base);
    hash_store(&mut run.hash, &pool);
    run.size("rows", sizes.n, "count");
    run.size("query_pool", sizes.pool, "count");
    run.size("ops_per_round", sizes.block, "count");

    let (store, _) = run.setup(sizes.setup_reps, || {
        let (rows, ids) = (base.clone(), ids.clone());
        let start = Instant::now();
        let store = ShardedServingStore::new(rows, ids, options());
        (store, start.elapsed().as_secs_f64())
    });
    let store = match store {
        Ok(store) => store,
        Err(e) => {
            run.check(&format!("ShardedServingStore::new: {e}"), false);
            return;
        }
    };
    let mut model = Model::seeded(&base);
    drop(base);

    let mut plan = Plan::new(run.seed, mix, sizes.n, sizes.pool, 80, 15);
    let (mut query_us, mut write_us) = (Vec::new(), Vec::new());
    let mut buckets = DeltaBuckets::default();
    let mut round_s = Vec::new();
    let mut window = Window::new(run.seconds, sizes.min_rounds);
    while let Some(round) = window.next_round() {
        let block = plan.block(sizes.block);
        if round == 0 {
            hash_block(run, &block);
        }
        let mut returned = Vec::new();
        let mut short = 0;
        let span = run.tracer.open("round", round as u64, None);
        let start = Instant::now();
        for (i, op) in block.iter().enumerate() {
            let op_id = (round * sizes.block + i) as u64;
            if run.traced() && i % 1024 == 0 {
                buckets.sample(&store);
            }
            match op {
                Op::Query(qi) => {
                    let t0 = Instant::now();
                    let snap = store.snapshot();
                    let t1 = Instant::now();
                    let hits = snap.knn(&pool, *qi, sizes.k);
                    let t2 = Instant::now();
                    short += u64::from(hits.len() != sizes.k);
                    black_box(hits);
                    query_us.push((t2 - t0).as_secs_f64() * 1e6);
                    run.tracer
                        .record("ShardedServingStore::snapshot", op_id, t0, t1, span);
                    run.tracer
                        .record("ShardedSnapshot::knn", op_id, t1, t2, span);
                }
                write => {
                    let (value, us) = timed_write(run, &store, VARIANT, write, op_id, WRITES, span);
                    returned.push(value);
                    write_us.push(us);
                    buckets.write(us);
                }
            }
        }
        round_s.push(start.elapsed().as_secs_f64());
        run.tracer.close(span);
        // Outside the timed block: hold every returned bool to the model.
        let wrong = model.apply(&block, &returned);
        run.ops(block.len() as u64, wrong + short);
    }
    // The last published view, still carrying its delta and tombstones.
    let dirty = store.snapshot();

    run.rounds(&round_s, sizes.block);
    let query_sorted = sorted(&query_us);
    let write_sorted = sorted(&write_us);
    run.metric("query_p50_us", percentile(&query_sorted, 50.0), "us");
    run.metric("query_p99_us", percentile(&query_sorted, 99.0), "us");
    run.metric("write_p50_us", percentile(&write_sorted, 50.0), "us");
    run.metric("write_p99_us", percentile(&write_sorted, 99.0), "us");

    let t0 = Instant::now();
    let drained = store.drain();
    let drain_s = t0.elapsed().as_secs_f64();
    run.check("drain", drained.is_ok());
    let snap = store.snapshot();
    model.check_rows(run, "after drain", &snap);
    snapshot_knn(run, "after drain", &snap, &pool, sizes.k, true);

    if run.traced() {
        run.metric("serve.query_p999_us", percentile(&query_sorted, 99.9), "us");
        run.metric("serve.query_max_us", percentile(&query_sorted, 100.0), "us");
        let p50_us = |run: &Run, span| median(&run.tracer.durations_us(span));
        let acquire_us = p50_us(run, "ShardedServingStore::snapshot");
        run.metric("serve.snapshot_acquire_ns", acquire_us * 1e3, "ns");
        let knn_us = p50_us(run, "ShardedSnapshot::knn");
        run.metric("serve.snapshot_knn_p50_us", knn_us, "us");
        let upsert_us = p50_us(run, WRITES[0]);
        run.metric("writer.upsert_p50_us", upsert_us, "us");
        let remove_us = p50_us(run, WRITES[1]);
        run.metric("writer.remove_p50_us", remove_us, "us");
        buckets.report(run);
        run.metric("compactor.drain_s", drain_s, "s");
        dirty_over_clean(sizes, run, &store, &dirty, &pool);
        run.metric(
            "compactor.compactions",
            store.stats().compactions as f64,
            "count",
        );
    }
    drop(dirty);
}

fn knn_p50_us(
    run: &mut Run,
    span: &'static str,
    snap: &lh_core::ShardedSnapshot,
    pool: &EmbeddingStore,
    sizes: &Sizes,
) -> f64 {
    let us: Vec<f64> = (0..sizes.dirty_probe)
        .map(|i| {
            let t0 = Instant::now();
            let hits = snap.knn(pool, i % pool.len(), sizes.k);
            let t1 = Instant::now();
            black_box(hits);
            run.tracer.record(span, i as u64, t0, t1, None);
            (t1 - t0).as_secs_f64() * 1e6
        })
        .collect();
    run.ops(us.len() as u64, 0);
    median(&us)
}

/// What the overlay costs a read: the same queries on the last dirty
/// snapshot of the run and on the store after a full inline fold.
fn dirty_over_clean(
    sizes: &Sizes,
    run: &mut Run,
    store: &ShardedServingStore,
    dirty: &lh_core::ShardedSnapshot,
    pool: &EmbeddingStore,
) {
    let dirty_us = knn_p50_us(run, "ShardedSnapshot::knn dirty", dirty, pool, sizes);
    let t0 = Instant::now();
    let folded = store.compact_inline();
    let t1 = Instant::now();
    run.check("compact_inline", folded.is_ok());
    run.tracer
        .record("ShardedServingStore::compact_inline", 0, t0, t1, None);
    run.metric("compactor.fold_s", (t1 - t0).as_secs_f64(), "s");
    let clean = store.snapshot();
    let clean_us = knn_p50_us(run, "ShardedSnapshot::knn clean", &clean, pool, sizes);
    run.metric("serve.dirty_over_clean", dirty_us / clean_us, "ratio");
}
