//! `frozen-metric` and `frozen-fused`: exact top-k against a frozen
//! [`IndexedStore`], one call at a time and then as a batch.
//!
//! The two differ in what dominates a query. Under `lh-cosh` the index
//! prunes ~98 % of the rows, so the fixed per-query work (centroid scan,
//! cell ordering, allocation) is most of the latency and scan speed is
//! hidden. Under `fusion-dist` no admissible bound exists, every cell is
//! probed and every row scanned, so the kernel scan is the latency and
//! probe overhead is hidden. A change to one should not move the other.

use crate::report::{Run, Window};
use crate::stats::{least_squares, median, percentile, sorted, SplitMix64};
use crate::synth::{hash_store, Mixture};
use lh_core::{EmbeddingStore, IndexParams, IndexedStore, PluginVariant, ProbeStats};
use std::hint::black_box;
use std::time::Instant;

pub struct Sizes {
    pub variant: PluginVariant,
    /// Database rows.
    pub n: usize,
    /// Query pool rows; `knn_batch` runs over the whole pool.
    pub pool: usize,
    /// Single `knn` calls per round, picked uniformly from the pool.
    pub calls_per_round: usize,
    pub k: usize,
    pub setup_reps: usize,
    pub min_rounds: usize,
    /// Whether p99 is reported: only where an op is short enough that a
    /// host preemption does not decide the tail.
    pub report_p99: bool,
}

impl Sizes {
    pub fn metric() -> Sizes {
        Sizes {
            variant: PluginVariant::LorentzCosh,
            n: 100_000,
            pool: 4096,
            calls_per_round: 8192,
            k: 10,
            setup_reps: 3,
            min_rounds: 3,
            report_p99: true,
        }
    }

    pub fn fused() -> Sizes {
        Sizes {
            variant: PluginVariant::FusionDist,
            n: 25_000,
            pool: 256,
            calls_per_round: 256,
            k: 10,
            setup_reps: 3,
            min_rounds: 3,
            report_p99: false,
        }
    }
}

type HitBits = Vec<(usize, u32)>;

fn bits(hits: &[lh_core::RetrievalResult]) -> HitBits {
    hits.iter()
        .map(|h| (h.index, h.distance.to_bits()))
        .collect()
}

/// The first `rows` rows of `src` as a store of their own.
fn head(src: &EmbeddingStore, rows: usize) -> EmbeddingStore {
    let mut out = src.empty_like();
    for i in 0..rows.min(src.len()) {
        out.push_row_from(src, i);
    }
    out
}

/// Indexed `knn` ≡ flat `EmbeddingStore::knn` ≡ `knn_batch`, ids and
/// `f32` bits, on the first 64 pool queries.
fn check_exactness(run: &mut Run, ix: &IndexedStore, pool: &EmbeddingStore, k: usize) {
    let probe = head(pool, 64);
    let batch = ix.knn_batch(&probe, k);
    for (qi, batched) in batch.iter().enumerate() {
        let flat = bits(&ix.store().knn(&probe, qi, k));
        run.check(
            "indexed knn equals flat scan",
            bits(&ix.knn(&probe, qi, k)) == flat,
        );
        run.check("knn_batch equals flat scan", bits(batched) == flat);
    }
}

pub fn run(sizes: &Sizes, run: &mut Run) {
    let mut rng = SplitMix64::new(run.seed ^ 0xf70e);
    let mix = Mixture::new(sizes.variant, &mut rng);
    let base = mix.store(sizes.n, &mut rng);
    let pool = mix.store(sizes.pool, &mut rng);
    hash_store(&mut run.hash, &base);
    hash_store(&mut run.hash, &pool);
    run.size("rows", sizes.n, "count");
    run.size("query_pool", sizes.pool, "count");
    run.size("knn_calls_per_round", sizes.calls_per_round, "count");

    let (ix, setup_s) = run.setup(sizes.setup_reps, || {
        let rows = base.clone();
        let start = Instant::now();
        let ix = IndexedStore::build(rows, IndexParams::default());
        (ix, start.elapsed().as_secs_f64())
    });
    drop(base);

    check_exactness(run, &ix, &pool, sizes.k);

    let mut picks = SplitMix64::new(run.seed ^ 0x91c5);
    let mut query_us: Vec<f64> = Vec::new();
    // A round's seconds are those of its single calls; the batch pass
    // that follows is timed on its own.
    let (mut round_s, mut batch_qps) = (Vec::new(), Vec::new());
    let mut window = Window::new(run.seconds, sizes.min_rounds);
    while let Some(round) = window.next_round() {
        let plan: Vec<usize> = (0..sizes.calls_per_round)
            .map(|_| picks.below(pool.len()))
            .collect();
        if round == 0 {
            plan.iter().for_each(|&qi| run.hash.u64(qi as u64));
        }
        let span = run.tracer.open("round", round as u64, None);
        let round_start = Instant::now();
        let mut short = 0;
        for (op, &qi) in plan.iter().enumerate() {
            let t0 = Instant::now();
            let hits = ix.knn(&pool, qi, sizes.k);
            let t1 = Instant::now();
            short += u64::from(hits.len() != sizes.k.min(sizes.n));
            black_box(hits);
            query_us.push((t1 - t0).as_secs_f64() * 1e6);
            run.tracer
                .record("IndexedStore::knn", op as u64, t0, t1, span);
        }
        round_s.push(round_start.elapsed().as_secs_f64());
        run.ops(plan.len() as u64, short);

        let t0 = Instant::now();
        let batch = ix.knn_batch(&pool, sizes.k);
        let t1 = Instant::now();
        run.ops(1, u64::from(batch.len() != pool.len()));
        black_box(batch);
        batch_qps.push(pool.len() as f64 / (t1 - t0).as_secs_f64());
        run.tracer
            .record("IndexedStore::knn_batch", round as u64, t0, t1, span);
        run.tracer.close(span);
    }

    let ops_per_s = run.rounds(&round_s, sizes.calls_per_round);
    let query_us = sorted(&query_us);
    run.metric("query_p50_us", percentile(&query_us, 50.0), "us");
    if sizes.report_p99 {
        run.metric("query_p99_us", percentile(&query_us, 99.0), "us");
    }
    run.metric("batch_qps", median(&batch_qps), "1/s");

    if run.traced() {
        layer_probes(sizes, run, &ix, &pool, setup_s, ops_per_s, &batch_qps);
    }
}

/// The per-layer numbers: the index's build and size, its probe counts,
/// the split of a query's latency into a fixed part and a per-scanned-row
/// part, the flat scan underneath, and the two codecs.
fn layer_probes(
    sizes: &Sizes,
    run: &mut Run,
    ix: &IndexedStore,
    pool: &EmbeddingStore,
    build_s: f64,
    ops_per_s: f64,
    batch_qps: &[f64],
) {
    let k = sizes.k;
    run.metric("index.build_s", build_s, "s");
    run.metric("index.cells", ix.num_cells() as f64, "count");
    run.metric(
        "index.bytes_per_row",
        ix.index_bytes() as f64 / ix.len() as f64,
        "B",
    );

    // One pass over the pool with probe accounting: exact counts, plus a
    // (rows scanned, latency) point per query for the fit.
    let mut total = ProbeStats::default();
    let (mut scanned, mut latency_us) = (Vec::new(), Vec::new());
    for qi in 0..pool.len() {
        let t0 = Instant::now();
        let (hits, stats) = ix.knn_with_stats(pool, qi, k);
        let t1 = Instant::now();
        black_box(hits);
        run.tracer
            .record("IndexedStore::knn_with_stats", qi as u64, t0, t1, None);
        scanned.push(stats.rows_scanned as f64);
        latency_us.push((t1 - t0).as_secs_f64() * 1e6);
        total.merge(&stats);
    }
    run.ops(pool.len() as u64, 0);
    let queries = total.queries as f64;
    run.metric(
        "index.cells_probed_per_query",
        total.cells_probed_per_query(),
        "count",
    );
    run.metric(
        "index.rows_scanned_per_query",
        total.rows_scanned as f64 / queries,
        "count",
    );
    run.metric("index.prune_rate", total.prune_rate(), "ratio");
    run.metric(
        "index.landmark_prune_rate",
        total.landmark_prune_rate(),
        "ratio",
    );
    // When every query scans the same number of rows (the fused store
    // scans them all) there is no slope to resolve: the whole latency is
    // booked per row and the fixed part reads 0.
    let (fixed_us, us_per_row) = least_squares(&scanned, &latency_us)
        .unwrap_or((0.0, median(&latency_us) / median(&scanned).max(1.0)));
    run.metric("index.fixed_us_per_query", fixed_us, "us");
    run.metric("index.ns_per_scanned_row", us_per_row * 1e3, "ns");
    run.metric(
        "index.batch_speedup",
        median(batch_qps) / ops_per_s,
        "ratio",
    );

    let flat_us: Vec<f64> = (0..256.min(pool.len()))
        .map(|qi| {
            let t0 = Instant::now();
            let hits = ix.store().knn(pool, qi, k);
            let t1 = Instant::now();
            black_box(hits);
            run.tracer
                .record("EmbeddingStore::knn", qi as u64, t0, t1, None);
            (t1 - t0).as_secs_f64() * 1e6
        })
        .collect();
    run.ops(flat_us.len() as u64, 0);
    let flat_p50 = median(&flat_us);
    run.metric("store.flat_knn_p50_us", flat_p50, "us");
    run.metric(
        "retrieval-kernel.ns_per_row",
        flat_p50 * 1e3 / ix.len() as f64,
        "ns",
    );

    // Codec round trips, best of three: MB of payload per second.
    let mb_s = |bytes: usize, seconds: f64| bytes as f64 / 1e6 / seconds;
    let (mut enc, mut dec, mut ix_enc, mut ix_dec) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut index_payload = 0;
    for rep in 0..3 {
        let t0 = Instant::now();
        let payload = ix.store().to_bytes();
        let t1 = Instant::now();
        let len = payload.len();
        let decoded = EmbeddingStore::from_bytes(payload);
        let t2 = Instant::now();
        run.check(
            "store codec round trip",
            decoded.is_ok_and(|d| &d == ix.store()),
        );
        run.tracer
            .record("EmbeddingStore::to_bytes", rep, t0, t1, None);
        run.tracer
            .record("EmbeddingStore::from_bytes", rep, t1, t2, None);
        enc = enc.max(mb_s(len, (t1 - t0).as_secs_f64()));
        dec = dec.max(mb_s(len, (t2 - t1).as_secs_f64()));

        let t0 = Instant::now();
        let payload = ix.to_bytes();
        let t1 = Instant::now();
        index_payload = payload.len();
        let decoded = IndexedStore::from_bytes(payload);
        let t2 = Instant::now();
        run.check("index codec round trip", decoded.is_ok_and(|d| &d == ix));
        run.tracer
            .record("IndexedStore::to_bytes", rep, t0, t1, None);
        run.tracer
            .record("IndexedStore::from_bytes", rep, t1, t2, None);
        ix_enc = ix_enc.max(mb_s(index_payload, (t1 - t0).as_secs_f64()));
        ix_dec = ix_dec.max(mb_s(index_payload, (t2 - t1).as_secs_f64()));
    }
    run.metric("store.codec.encode_mb_s", enc, "MB/s");
    run.metric("store.codec.decode_mb_s", dec, "MB/s");
    run.metric("index.codec.encode_mb_s", ix_enc, "MB/s");
    run.metric("index.codec.decode_mb_s", ix_dec, "MB/s");
    run.metric("index.codec.bytes", index_payload as f64, "B");
}
