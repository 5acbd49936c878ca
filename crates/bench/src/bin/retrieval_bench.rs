//! Flat-scan vs indexed kNN serving throughput, tracked over time.
//!
//! The serving-tier counterpart of `kernel_bench`: for each plugin
//! variant it builds a clustered synthetic store (a Gaussian mixture —
//! real embedding collections are clustered; uniform noise is the known
//! ANN worst case and would understate every index ever built), serves a
//! query batch through both `EmbeddingStore::knn_batch` (exact flat scan)
//! and `IndexedStore::knn_batch` (pivot cells + triangle-inequality
//! pruning for the metric variants, the convex-mix bound for the fused
//! one), verifies the indexed results are bit-identical, and appends one
//! record to `BENCH_retrieval.json` recording QPS, cells probed and prune
//! rate per variant — every row from its measured `ProbeStats` — so the
//! metric-vs-fused pruning gap (the paper's thesis at serving time) is a
//! tracked number, not a vibe.
//!
//! Every row is exact: the index has no approximate mode. (Records up to
//! the removal of the probe budget carry a `fusion-dist@10%` row and
//! `landmarks` / `landmark_prune_rate` fields; the ledger keeps them as
//! history.)
//!
//! Usage: `cargo run --release -p lh-bench --bin retrieval_bench
//!        [--max-n 200000] [--dim 16] [--queries 32] [--k 10]
//!        [--reps 3] [--clusters 64] [--out BENCH_retrieval.json]
//!        [--no-append]`

use lh_bench::synth::{mixture_centers, synth_clustered};
use lh_bench::{append_record, best_of, print_header, Args, Table};
use lh_core::config::{PluginConfig, PluginVariant};
use lh_core::{IndexParams, IndexedStore};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether two result batches agree bit for bit (ids and f32 payloads).
fn bit_identical(a: &[Vec<lh_core::RetrievalResult>], b: &[Vec<lh_core::RetrievalResult>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(h, g)| {
                    h.index == g.index && h.distance.to_bits() == g.distance.to_bits()
                })
        })
}

fn main() {
    let args = Args::parse();
    let max_n = args.get("max-n", 200_000usize);
    let dim = args.get("dim", 16usize);
    let n_queries = args.get("queries", 32usize);
    let k = args.get("k", 10usize);
    let reps = args.get("reps", 3usize);
    let clusters = args.get("clusters", 64usize);
    let out_path = args.get_str("out").unwrap_or("BENCH_retrieval.json");

    let mut sizes: Vec<usize> = [20_000usize, 50_000, 200_000]
        .into_iter()
        .filter(|&s| s <= max_n)
        .collect();
    if sizes.is_empty() {
        // Smoke scale (e.g. `--max-n 2000` in CI): run at max_n itself.
        sizes.push(max_n);
    }
    let largest = *sizes.last().expect("at least one size");

    let variants = [
        PluginVariant::Original,
        PluginVariant::LorentzCosh,
        PluginVariant::FusionDist,
    ];

    print_header(
        "retrieval_bench",
        &format!("flat vs indexed kNN serving, dim={dim}, k={k}, {n_queries} queries"),
    );
    let mut table = Table::new(&[
        "n",
        "variant",
        "flat QPS",
        "indexed QPS",
        "speedup",
        "recall",
        "cells probed",
        "prune rate",
    ]);
    let mut rows_json = Vec::new();
    for &n in &sizes {
        for variant in variants {
            let label = variant.name();
            let plugin = PluginConfig::paper_default().with_variant(variant);
            let mut rng = StdRng::seed_from_u64(31 + n as u64);
            let centers = mixture_centers(clusters, dim, &mut rng);
            let db = synth_clustered(n, dim, &centers, &plugin, &mut rng);
            let queries = synth_clustered(n_queries, dim, &centers, &plugin, &mut rng);

            let build_start = std::time::Instant::now();
            let indexed = IndexedStore::build(db, IndexParams::default());
            let build_seconds = build_start.elapsed().as_secs_f64();
            let db = indexed.store();

            // Correctness gate before timing: the index must match the
            // flat scan bit for bit.
            let flat_hits = db.knn_batch(&queries, k);
            let (indexed_hits, stats) = indexed.knn_batch_with_stats(&queries, k);
            assert!(
                bit_identical(&flat_hits, &indexed_hits),
                "{label} n={n}: indexed top-k must be bit-identical to the flat scan"
            );

            let flat_s = best_of(reps, || db.knn_batch(&queries, k));
            let indexed_s = best_of(reps, || indexed.knn_batch(&queries, k));
            let flat_qps = n_queries as f64 / flat_s;
            let indexed_qps = n_queries as f64 / indexed_s;
            let speedup = indexed_qps / flat_qps;

            table.row(vec![
                format!("{n}"),
                label.to_string(),
                format!("{flat_qps:.0}"),
                format!("{indexed_qps:.0}"),
                format!("{speedup:.1}x"),
                "1.0 (bit-identical)".into(),
                format!(
                    "{:.1}/{}",
                    stats.cells_probed_per_query(),
                    indexed.num_cells()
                ),
                format!("{:.1}%", stats.prune_rate() * 100.0),
            ]);
            rows_json.push(format!(
                "    {{\"n\": {n}, \"variant\": \"{label}\", \"exact\": true, \
                 \"flat_qps\": {flat_qps:.2}, \"indexed_qps\": {indexed_qps:.2}, \
                 \"speedup\": {speedup:.3}, \"recall\": 1.000000, \
                 \"bit_identical\": true, \"cells\": {}, \
                 \"cells_probed_per_query\": {:.3}, \"prune_rate\": {:.6}, \
                 \"build_seconds\": {build_seconds:.4}}}",
                indexed.num_cells(),
                stats.cells_probed_per_query(),
                stats.prune_rate(),
            ));
            eprintln!("[retrieval_bench] n={n} {label} done");
        }
    }
    table.print();
    println!(
        "\nexact serving (recall 1.0, bit-identical) is sub-linear for every\n\
         variant: the metric ones prune by the triangle inequality, and the\n\
         fused distance — which violates it — by the convex-mix bound\n\
         fused >= min(d_Lo, d_Eu), each component in its own space. The\n\
         prune-rate gap between the lh-cosh and fusion-dist rows is what the\n\
         violations cost at serving time. Largest scale: n = {largest}."
    );

    if args.flag("no-append") {
        return;
    }
    let recorded = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let record = format!(
        "  {{\n    \"schema\": \"retrieval-bench-v1\",\n    \"recorded_at_unix\": {recorded},\n    \
         \"dim\": {dim},\n    \"k\": {k},\n    \"queries\": {n_queries},\n    \
         \"clusters\": {clusters},\n    \"rows\": [\n{}\n    ]\n  }}",
        rows_json.join(",\n")
    );
    append_record(out_path, &record);
    println!("\nappended record to {out_path}");
}
