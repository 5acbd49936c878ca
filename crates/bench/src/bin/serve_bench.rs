//! Mutable serving tier under a mixed read/write load, tracked over time.
//!
//! `retrieval_bench` measures frozen stores; this harness measures the
//! [`ShardedServingStore`] doing what frozen stores cannot: answering
//! queries *while* absorbing upserts and removals. It seeds a clustered
//! store hash-partitioned across `--shards` shards, then drives a mixed
//! workload in one of two modes:
//!
//! * **closed loop** (default): each worker pulls the next op off a
//!   shared counter and issues it as soon as the previous one finishes —
//!   measures peak throughput, but a stalled store stops the clock on
//!   every queued op, hiding the stall from the tail;
//! * **open loop** (`--open-loop`): ops arrive on a fixed schedule
//!   (`--rate` per second); latency is measured from each op's
//!   *scheduled* arrival to its completion, so an op that waited behind
//!   a backed-up store books the backlog it suffered — the
//!   coordinated-omission-safe tail the closed loop cannot see.
//!
//! Both modes record into shared lock-free histograms
//! ([`lh_bench::hist`]), reported per op class as p50/p95/p99/p999 and
//! the exact max. Every fold runs on the store's background compactor
//! thread, so writers never pay it (the ~12 ms query outliers in the v1
//! ledger records came from the removed inline fold). `--max-query-us`
//! asserts no query sample exceeded the bound (the regression gate for
//! "the fold stays off the hot path").
//!
//! Before anything is appended to the ledger, the harness re-asserts the
//! serving tier's core contract on sampled queries: sharded snapshot kNN
//! (every shard's masked probe into one key-offset heap) must be
//! **bit-identical** to a flat scan of the concatenated live rows. A
//! failed check aborts the run — no record is written from a store that
//! broke determinism under churn.
//!
//! Usage: `cargo run --release -p lh-bench --bin serve_bench
//!        [--n 50000] [--ops 20000] [--dim 16] [--k 10] [--threads 4]
//!        [--shards 1] [--open-loop] [--rate 2000]
//!        [--max-query-us 0] [--query-pct 80] [--upsert-pct 15]
//!        [--zipf 1.05] [--clusters 64] [--compact 4096]
//!        [--query-pool 256] [--verify-queries 16] [--variants a,b]
//!        [--out BENCH_serve.json] [--no-append]`
//!
//! (The remove share is whatever the query and upsert percentages leave.)

use lh_bench::hist::Histogram;
use lh_bench::synth::{clustered_row, mixture_centers, synth_clustered, ZipfSampler};
use lh_bench::{append_record, print_header, Args, Table};
use lh_core::config::{PluginConfig, PluginVariant};
use lh_core::{
    ServeHit, ServingOptions, ShardedServingOptions, ShardedServingStore, ShardedSnapshot,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLASS_NAMES: [&str; 3] = ["query", "upsert", "remove"];

/// How ops are driven at the store.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Closed,
    /// Fixed arrival schedule at `rate` ops/second.
    Open {
        rate: f64,
    },
}

/// Runs the mixed workload in either loop mode. Returns per-class shared
/// histograms plus the wall time. Op streams are a pure function of the
/// op index (class dice, ids, rows, query picks all derive from a
/// per-op rng), so thread count and scheduling never change *what* is
/// executed — only when.
#[allow(clippy::too_many_arguments)] // a bench driver, not an API
fn run_workload(
    store: &ShardedServingStore,
    query_pool: &lh_core::EmbeddingStore,
    cfg: &PluginConfig,
    centers: &[Vec<f32>],
    dim: usize,
    k: usize,
    ops: usize,
    threads: usize,
    mode: Mode,
    query_pct: usize,
    upsert_pct: usize,
    id_space: u64,
    zipf_s: f64,
) -> ([Histogram; 3], f64) {
    let hist: [Histogram; 3] = [Histogram::new(), Histogram::new(), Histogram::new()];
    let next_op = AtomicUsize::new(0);
    let id_zipf = ZipfSampler::new(id_space as usize, zipf_s);
    let query_zipf = ZipfSampler::new(query_pool.len(), zipf_s);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let next_op = &next_op;
            let id_zipf = &id_zipf;
            let query_zipf = &query_zipf;
            let hist = &hist;
            scope.spawn(move || loop {
                let i = next_op.fetch_add(1, Ordering::Relaxed);
                if i >= ops {
                    break;
                }
                let mut rng = StdRng::seed_from_u64(0x5e47e ^ (i as u64).wrapping_mul(0x9e37));
                // Open loop: wait for the op's scheduled arrival, then
                // measure from that arrival — an op that starts late
                // because the store (or the host) is backed up keeps the
                // queueing delay in its sample.
                let reference = match mode {
                    Mode::Closed => None,
                    Mode::Open { rate } => {
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        let now = started.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        Some(due)
                    }
                };
                let dice = rng.gen_range(0..100usize);
                let (class, t0) = if dice < query_pct {
                    let qi = query_zipf.sample(&mut rng);
                    let t0 = Instant::now();
                    let hits = store.snapshot().knn(query_pool, qi, k);
                    std::hint::black_box(hits);
                    (0, t0)
                } else if dice < query_pct + upsert_pct {
                    let id = id_zipf.sample(&mut rng) as u64;
                    let row = clustered_row(dim, centers, cfg, &mut rng);
                    let t0 = Instant::now();
                    store
                        .upsert(
                            id,
                            &row.eu,
                            cfg.variant.uses_hyperbolic().then_some(&row.hyper[..]),
                            cfg.variant.uses_fusion().then_some(&row.factors[..]),
                        )
                        .expect("upsert");
                    (1, t0)
                } else {
                    let id = id_zipf.sample(&mut rng) as u64;
                    let t0 = Instant::now();
                    store.remove(id).expect("remove");
                    (2, t0)
                };
                let latency = match reference {
                    // Completion minus scheduled arrival.
                    Some(due) => started.elapsed().saturating_sub(due),
                    None => t0.elapsed(),
                };
                hist[class].record(latency.as_nanos() as u64);
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (hist, wall)
}

/// Asserts sharded snapshot kNN ≡ flat scan of the concatenated live
/// rows on `nv` sampled queries, bit for bit. Returns the number of
/// queries checked (aborts the process on mismatch).
fn assert_bit_identity(
    snap: &ShardedSnapshot,
    query_pool: &lh_core::EmbeddingStore,
    k: usize,
    nv: usize,
) -> usize {
    let (flat, ids) = snap.to_flat();
    let nv = nv.min(query_pool.len());
    for qi in 0..nv {
        let served: Vec<(u64, u32)> = snap
            .knn(query_pool, qi, k)
            .iter()
            .map(|h: &ServeHit| (h.id, h.distance.to_bits()))
            .collect();
        let reference: Vec<(u64, u32)> = flat
            .knn(query_pool, qi, k)
            .iter()
            .map(|h| (ids[h.index], h.distance.to_bits()))
            .collect();
        assert_eq!(
            served, reference,
            "sharded snapshot kNN diverged from the flat scan on verify query {qi}"
        );
    }
    nv
}

fn main() {
    let args = Args::parse();
    let n = args.get("n", 50_000usize);
    let ops = args.get("ops", 20_000usize);
    let dim = args.get("dim", 16usize);
    let k = args.get("k", 10usize);
    let threads = args.get("threads", 4usize);
    let shards = args.get("shards", 1usize);
    let open_loop = args.flag("open-loop");
    let rate = args.get("rate", 2000.0f64);
    let max_query_us = args.get("max-query-us", 0.0f64);
    let query_pct = args.get("query-pct", 80usize);
    let upsert_pct = args.get("upsert-pct", 15usize);
    let zipf_s = args.get("zipf", 1.05f64);
    let clusters = args.get("clusters", 64usize);
    let compact_threshold = args.get("compact", 4096usize);
    let query_pool_size = args.get("query-pool", 256usize);
    let verify_queries = args.get("verify-queries", 16usize);
    let out_path = args.get_str("out").unwrap_or("BENCH_serve.json");
    assert!(
        query_pct + upsert_pct <= 100,
        "query-pct + upsert-pct must leave a remove share"
    );
    assert!(shards >= 1, "--shards must be >= 1");
    let mode = if open_loop {
        assert!(rate > 0.0, "--rate must be positive in open-loop mode");
        Mode::Open { rate }
    } else {
        Mode::Closed
    };
    let mode_name = if open_loop { "open" } else { "closed" };

    let all_variants = [
        PluginVariant::Original,
        PluginVariant::LorentzCosh,
        PluginVariant::FusionDist,
    ];
    let variants: Vec<PluginVariant> = match args.get_str("variants") {
        Some(list) => list
            .split(',')
            .map(|name| {
                *all_variants
                    .iter()
                    .find(|v| v.name() == name.trim())
                    .unwrap_or_else(|| panic!("unknown variant `{name}`"))
            })
            .collect(),
        None => all_variants.to_vec(),
    };

    print_header(
        "serve_bench",
        &format!(
            "mixed serving load: n={n}, {ops} ops on {threads} threads, {shards} shard(s), \
             {mode_name} loop{}, {query_pct}/{upsert_pct}/{}% \
             query/upsert/remove, zipf s={zipf_s}",
            if open_loop {
                format!(" @ {rate:.0} ops/s")
            } else {
                String::new()
            },
            100 - query_pct - upsert_pct
        ),
    );
    let mut table = Table::new(&[
        "variant",
        "indexed",
        "query QPS",
        "q p50/p99/max µs",
        "upsert QPS",
        "u p50/p99 µs",
        "remove QPS",
        "epochs",
        "compactions",
        "bit-id",
    ]);
    let mut rows_json = Vec::new();
    for &variant in &variants {
        let plugin = PluginConfig::paper_default().with_variant(variant);
        let mut rng = StdRng::seed_from_u64(97 + n as u64);
        let centers = mixture_centers(clusters, dim, &mut rng);
        let base = synth_clustered(n, dim, &centers, &plugin, &mut rng);
        let query_pool = synth_clustered(query_pool_size, dim, &centers, &plugin, &mut rng);
        let store = ShardedServingStore::new(
            base,
            (0..n as u64).collect(),
            ShardedServingOptions {
                shards,
                serving: ServingOptions {
                    compact_threshold,
                    ..ServingOptions::default()
                },
            },
        )
        .expect("seed store");
        // Writes target a zipf-hot id space twice the seed (hot updates
        // of existing rows plus a cold tail of inserts).
        let id_space = (n as u64).max(1) * 2;

        let (hist, wall) = run_workload(
            &store,
            &query_pool,
            &plugin,
            &centers,
            dim,
            k,
            ops,
            threads,
            mode,
            query_pct,
            upsert_pct,
            id_space,
            zipf_s,
        );
        // Quiesce: every scheduled background fold lands before the
        // stats, the identity check, and the ledger row are taken.
        store.drain().expect("background compaction");
        let stats = store.stats();
        let snap = store.snapshot();
        let checked = assert_bit_identity(&snap, &query_pool, k, verify_queries);
        println!(
            "[serve_bench] bit-identity: PASS ({checked} sampled queries vs flat scan, \
             {} live rows, {shards} shard(s), variant {})",
            snap.len(),
            variant.name()
        );
        let query_max = hist[0].max_us();
        if max_query_us > 0.0 {
            assert!(
                query_max <= max_query_us,
                "query latency outlier: max {query_max:.1} µs exceeds the \
                 --max-query-us bound {max_query_us:.1} µs ({mode_name} loop)"
            );
            println!(
                "[serve_bench] query outlier bound: PASS \
                 (max {query_max:.1} µs <= {max_query_us:.1} µs)"
            );
        } else {
            println!("[serve_bench] query latency max: {query_max:.1} µs (no bound set)");
        }

        let mut class_json = Vec::new();
        let mut cells = Vec::new();
        for (ci, name) in CLASS_NAMES.iter().enumerate() {
            let count = hist[ci].count();
            let qps = count as f64 / wall;
            let (p50, p95, p99, p999) = (
                hist[ci].percentile_us(50.0),
                hist[ci].percentile_us(95.0),
                hist[ci].percentile_us(99.0),
                hist[ci].percentile_us(99.9),
            );
            let max = hist[ci].max_us();
            class_json.push(format!(
                "\"{name}\": {{\"count\": {count}, \"qps\": {qps:.2}, \
                 \"p50_us\": {p50:.1}, \"p95_us\": {p95:.1}, \"p99_us\": {p99:.1}, \
                 \"p999_us\": {p999:.1}, \"max_us\": {max:.1}}}"
            ));
            cells.push((qps, p50, p99, max));
        }
        table.row(vec![
            variant.name().to_string(),
            format!("{}", snap.base_indexed()),
            format!("{:.0}", cells[0].0),
            format!("{:.0}/{:.0}/{:.0}", cells[0].1, cells[0].2, cells[0].3),
            format!("{:.0}", cells[1].0),
            format!("{:.0}/{:.0}", cells[1].1, cells[1].2),
            format!("{:.0}", cells[2].0),
            format!("{}", stats.epoch),
            format!("{}", stats.compactions),
            "yes".to_string(),
        ]);
        rows_json.push(format!(
            "    {{\"variant\": \"{}\", \"base_indexed\": {}, \"epoch\": {}, \
             \"compactions\": {}, \"live_rows\": {}, \"wall_seconds\": {wall:.4}, \
             \"bit_identical\": true, \"verify_queries\": {checked}, {}}}",
            variant.name(),
            snap.base_indexed(),
            stats.epoch,
            stats.compactions,
            snap.len(),
            class_json.join(", "),
        ));
        eprintln!("[serve_bench] {} done in {wall:.2}s", variant.name());
    }
    table.print();
    println!(
        "\nreads are lock-free snapshot scans of every shard into one heap;\n\
         writers to different shards run in parallel, and the background\n\
         fold every {compact_threshold} changes per shard stays off the write path."
    );

    if args.flag("no-append") {
        return;
    }
    let recorded = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let rate_json = if open_loop { rate } else { 0.0 };
    let record = format!(
        "  {{\n    \"schema\": \"serve-bench-v2\",\n    \"recorded_at_unix\": {recorded},\n    \
         \"n\": {n},\n    \"dim\": {dim},\n    \"k\": {k},\n    \"ops\": {ops},\n    \
         \"threads\": {threads},\n    \"zipf\": {zipf_s},\n    \"shards\": {shards},\n    \
         \"mode\": \"{mode_name}\",\n    \"compaction\": \"background\",\n    \
         \"rate\": {rate_json:.1},\n    \"query_pct\": {query_pct},\n    \
         \"upsert_pct\": {upsert_pct},\n    \"compact_threshold\": {compact_threshold},\n    \
         \"rows\": [\n{}\n    ]\n  }}",
        rows_json.join(",\n")
    );
    append_record(out_path, &record);
    println!("\nappended record to {out_path}");
}
