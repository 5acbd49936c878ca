//! **Table V** — the additional retrieval cost introduced by the
//! LH-plugin: end-to-end top-50 latency and embedding-store memory at
//! 10k / 100k / 1m database sizes, original vs LH-plugin.
//!
//! Embeddings are synthesized (retrieval cost is independent of their
//! values); what matters — and is measured — is the extra O(d) fused
//! distance work and the extra hyperbolic/factor rows. Each row times
//! two retrieval paths: the flat scan (`EmbeddingStore::knn_batch`,
//! monomorphized kernels + bounded heaps, parallel across queries) and
//! the pivot-partitioned index tier (`IndexedStore::knn_batch`,
//! triangle-inequality pruning for metric variants, the convex-mix bound
//! for the fused distance; the `prune` and `cells probed` columns are
//! each row's measured `ProbeStats`). Indexed results are asserted
//! identical to the flat scan's before timing, so the indexed column can
//! never silently trade correctness for speed.
//!
//! Usage: `cargo run --release -p lh-bench --bin table5_retrieval_cost
//!        [--max-n 1000000] [--queries 20] [--dim 16] [--k 50]
//!        [--cells <n>]`

use lh_bench::printer::write_artifact;
use lh_bench::{print_header, Args, Table};
use lh_core::config::{PluginConfig, PluginVariant};
use lh_core::{EmbeddingStore, IndexParams, IndexedStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

fn synth_store(n: usize, dim: usize, cfg: &PluginConfig, rng: &mut StdRng) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(
        dim,
        cfg.variant,
        cfg.beta,
        cfg.variant.uses_fusion().then_some(cfg.factor_dim),
    );
    let mut eu = vec![0.0f32; dim];
    let mut hy = vec![0.0f32; dim + 1];
    let mut fa = vec![0.0f32; 2 * cfg.factor_dim];
    for _ in 0..n {
        for v in &mut eu {
            *v = rng.gen_range(-1.0..1.0);
        }
        // A valid hyperboloid row: (√(‖x‖²+β), x).
        let nsq: f32 = eu.iter().map(|v| v * v).sum();
        hy[0] = (nsq + cfg.beta).sqrt();
        hy[1..].copy_from_slice(&eu);
        for v in &mut fa {
            *v = rng.gen_range(0.01..1.0);
        }
        store.push(
            &eu,
            cfg.variant.uses_hyperbolic().then_some(&hy[..]),
            cfg.variant.uses_fusion().then_some(&fa[..]),
        );
    }
    store
}

#[derive(Serialize)]
struct Row {
    n: usize,
    variant: String,
    engine_query_seconds: f64,
    indexed_query_seconds: f64,
    index_build_seconds: f64,
    index_cells: usize,
    index_cells_probed_per_query: f64,
    index_prune_rate: f64,
    memory_bytes: usize,
}

fn main() {
    let args = Args::parse();
    print_header(
        "Table V",
        "retrieval latency / memory, original vs LH-plugin",
    );
    let dim = args.get("dim", 16usize);
    let n_queries = args.get("queries", 20usize);
    let max_n = args.get("max-n", 1_000_000usize);
    let k = args.get("k", 50usize);
    let index_params = IndexParams {
        n_cells: args.get_str("cells").map(|c| c.parse().expect("--cells")),
    };
    let mut sizes: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&s| s <= max_n)
        .collect();
    if sizes.is_empty() {
        // Smoke scale (e.g. `--max-n 2000` in CI): run at max_n itself.
        sizes.push(max_n);
    }

    let cfg_orig = PluginConfig::paper_default().with_variant(PluginVariant::Original);
    let cfg_full = PluginConfig::paper_default();

    let mut table = Table::new(&[
        "trajectories",
        "plugin",
        "engine/query",
        "indexed/query",
        "prune",
        "cells probed",
        "memory",
        "Δmemory",
    ]);
    let mut rows = Vec::new();
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(99);
        let mut measured: Vec<(f64, f64, String, String, usize)> = Vec::new();
        for cfg in [&cfg_orig, &cfg_full] {
            let db = synth_store(n, dim, cfg, &mut rng);
            let queries = synth_store(n_queries, dim, cfg, &mut rng);

            // Index tier: built over the same rows; every variant must
            // answer identically to the flat scan.
            let start = std::time::Instant::now();
            let indexed_store = IndexedStore::build(db.clone(), index_params);
            let index_build = start.elapsed().as_secs_f64();

            // Flat scan: batched kernel scan, parallel across queries.
            // Averaged over several batch repetitions so the column is
            // stable at smoke scales where one batch is microseconds.
            const ENGINE_REPS: usize = 5;
            let mem = db.payload_bytes();
            let engine_hits = db.knn_batch(&queries, k); // warm-up
            let start = std::time::Instant::now();
            for _ in 0..ENGINE_REPS {
                std::hint::black_box(db.knn_batch(&queries, k));
            }
            let engine = start.elapsed().as_secs_f64() / (ENGINE_REPS * n_queries) as f64;

            // Indexed path: correctness gate first, then timing.
            let (indexed_hits, stats) = indexed_store.knn_batch_with_stats(&queries, k);
            assert_eq!(
                engine_hits,
                indexed_hits,
                "{}: indexed top-k diverged from the flat engine",
                cfg.variant.name()
            );
            let start = std::time::Instant::now();
            for _ in 0..ENGINE_REPS {
                std::hint::black_box(indexed_store.knn_batch(&queries, k));
            }
            let indexed = start.elapsed().as_secs_f64() / (ENGINE_REPS * n_queries) as f64;

            measured.push((
                engine,
                indexed,
                format!("{:.1}%", stats.prune_rate() * 100.0),
                format!(
                    "{:.1}/{}",
                    stats.cells_probed_per_query(),
                    indexed_store.num_cells()
                ),
                mem,
            ));
            rows.push(Row {
                n,
                variant: cfg.variant.name().into(),
                engine_query_seconds: engine,
                indexed_query_seconds: indexed,
                index_build_seconds: index_build,
                index_cells: indexed_store.num_cells(),
                index_cells_probed_per_query: stats.cells_probed_per_query(),
                index_prune_rate: stats.prune_rate(),
                memory_bytes: mem,
            });
        }
        let (m0, m1) = (measured[0].4, measured[1].4);
        for (i, cfg) in [&cfg_orig, &cfg_full].into_iter().enumerate() {
            let (engine, indexed, prune, probed, m) = measured[i].clone();
            table.row(vec![
                format!("{n}"),
                if cfg.variant == PluginVariant::Original {
                    "Original".into()
                } else {
                    "with LH-plugin".into()
                },
                format!("{:.3} ms", engine * 1e3),
                format!("{:.3} ms", indexed * 1e3),
                prune,
                probed,
                format!("{:.1} MB", m as f64 / 1e6),
                if i == 0 {
                    "-".into()
                } else {
                    format!("{:+.1}%", (m1 as f64 - m0 as f64) / m0 as f64 * 100.0)
                },
            ]);
        }
        eprintln!("[table5] n = {n} done");
    }
    table.print();
    println!(
        "\npaper shape: latency increase marginal at large n; memory overhead\n\
         bounded (paper reports < 8–13%; here the factor/hyperbolic rows add\n\
         (d+1+2f)/d of the base payload, configurable via --dim). The engine\n\
         column is the flat batched top-k scan, parallel across queries;\n\
         the indexed column is the pivot-partitioned tier, exact for both\n\
         rows (triangle pruning for Original, the convex-mix bound\n\
         fused >= min(d_Lo, d_Eu) for the plugin); prune and cells probed\n\
         are measured per row — the gap between the two rows is what the\n\
         fused distance's triangle-inequality violations cost. Rows here\n\
         are uniform noise, the worst case for any partition: the\n\
         benchmark's frozen-* workloads serve clustered rows."
    );
    let path = write_artifact("table5_retrieval_cost", &rows);
    println!("artifact: {}", path.display());
}
