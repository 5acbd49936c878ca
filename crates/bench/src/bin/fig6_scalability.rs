//! **Fig. 6** — scalability: accuracy vs training-set fraction
//! (20/40/60/80/100%), original vs LH-plugin with a fixed evaluation set.
//!
//! Each point also reports the serving cost at that scale: the trained
//! model's embeddings are served by the flat scan and the batched top-10
//! query (`EmbeddingStore::knn_batch`) is timed per query, so
//! the figure shows how both accuracy *and* retrieval latency move as the
//! database grows. With `--index` the pivot-partitioned tier
//! (`ExperimentOutcome::build_index`) is timed alongside, so the figure
//! can plot flat vs indexed serving latency from the same run — indexed
//! results are asserted identical to the flat engine's before timing —
//! and each row reports its measured `ProbeStats` (prune rate, cells
//! probed per query). A `fusion-dist` row also indexes the *same
//! encoder's* `lh-cosh` store (its Euclidean and hyperbolic rows without
//! the factors) and reports that prune rate beside its own: the pair is
//! what the learned triangle-inequality violations forfeit at serving
//! time, measured on trained embeddings.
//!
//! Usage: `cargo run --release -p lh-bench --bin fig6_scalability
//!        [--n 200] [--epochs 25] [--seed 42] [--index]`

use lh_bench::printer::write_artifact;
use lh_bench::{default_spec, print_header, Args, Table};
use lh_core::config::PluginVariant;
use lh_core::distance::alpha_f32;
use lh_core::pipeline::run_experiment;
use lh_core::{EmbeddingStore, IndexParams, IndexedStore};
use serde::Serialize;

#[derive(Serialize)]
struct FracPoint {
    fraction: f64,
    variant: String,
    hr10: f64,
    hr50: f64,
    knn_query_seconds: f64,
    /// Indexed-tier serving latency; present only under `--index`.
    indexed_query_seconds: Option<f64>,
    /// Measured share of rows the index skipped (`--index`).
    index_prune_rate: Option<f64>,
    /// Mean cells probed per query, of `index_cells` (`--index`).
    index_cells_probed_per_query: Option<f64>,
    index_cells: Option<usize>,
    /// Prune rate of the same encoder's `lh-cosh` store (`--index`,
    /// `fusion-dist` rows only).
    lorentz_view_prune_rate: Option<f64>,
    /// `[min, median, max]` of the fusion ratio α̃ over every
    /// (query, database) pair (`--index`, `fusion-dist` rows only): how
    /// far the blend sits from either component, which is what decides
    /// how loose `min(d_Lo, d_Eu)` is as its lower bound.
    alpha_spread: Option<[f32; 3]>,
}

/// `[min, median, max]` of `alpha_f32` over all (query, database) pairs.
fn alpha_spread(db: &EmbeddingStore, queries: &EmbeddingStore) -> [f32; 3] {
    let f = db.factor_dim().expect("fused store has factors");
    let mut alphas: Vec<f32> = (0..queries.len())
        .flat_map(|qi| (0..db.len()).map(move |di| (qi, di)))
        .map(|(qi, di)| {
            let (q, x) = (queries.factor_row(qi), db.factor_row(di));
            alpha_f32(&q[..f], &x[..f], &q[f..], &x[f..])
        })
        .collect();
    alphas.sort_unstable_by(f32::total_cmp);
    [
        alphas[0],
        alphas[alphas.len() / 2],
        alphas[alphas.len() - 1],
    ]
}

/// The `lh-cosh` store of a fused store's encoder: the same Euclidean and
/// hyperbolic rows without the factor rows, served by the Lorentz kernel.
fn lorentz_view(fused: &EmbeddingStore) -> EmbeddingStore {
    let mut out = EmbeddingStore::new(fused.dim(), PluginVariant::LorentzCosh, fused.beta(), None);
    for i in 0..fused.len() {
        out.push(fused.eu_row(i), Some(fused.hyper_row(i)), None);
    }
    out
}

fn main() {
    let args = Args::parse();
    print_header(
        "Fig. 6",
        "scalability: accuracy vs training data size, original vs LH-plugin",
    );
    let base = default_spec(&args);
    let full_db = base.n - base.n_queries;
    let with_index = args.flag("index");

    let mut headers = vec!["fraction", "plugin", "HR@10", "HR@50", "knn@10/query"];
    if with_index {
        headers.extend([
            "indexed@10/query",
            "prune",
            "cells probed",
            "lh-cosh view prune",
            "α̃ min/med/max",
        ]);
    }
    let mut table = Table::new(&headers);
    let mut points = Vec::new();
    for frac in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        for variant in [PluginVariant::Original, PluginVariant::FusionDist] {
            let mut spec = default_spec(&args);
            spec.trainer.epochs = args.get("epochs", 25usize);
            // Shrink the database (training set); the query set stays the
            // same size and the same seed keeps it identical across runs.
            spec.n = (full_db as f64 * frac) as usize + spec.n_queries;
            spec.plugin = spec.plugin.with_variant(variant);
            let out = run_experiment(&spec);

            // Serving cost at this scale, reusing the stores the
            // experiment already embedded.
            let index = with_index.then(|| out.build_index(IndexParams::default()));
            // The same encoder's lh-cosh store, indexed and checked the
            // same way: its prune rate is the metric reference for the
            // fused row's.
            let lorentz_view_prune_rate = (with_index && variant.uses_fusion()).then(|| {
                let (db, q) = (lorentz_view(&out.db_store), lorentz_view(&out.q_store));
                let ix = IndexedStore::build(db.clone(), IndexParams::default());
                let (hits, stats) = ix.knn_batch_with_stats(&q, 10);
                let flat: Vec<_> = (0..q.len()).map(|qi| db.knn(&q, qi, 10)).collect();
                assert_eq!(flat, hits, "lh-cosh view: indexed top-10 diverged");
                stats.prune_rate()
            });
            let alpha_spread = (with_index && variant.uses_fusion())
                .then(|| alpha_spread(&out.db_store, &out.q_store));
            let (db_store, q_store) = (out.db_store, out.q_store);
            let flat_hits = db_store.knn_batch(&q_store, 10); // warm-up
            const REPS: usize = 5; // average several batches: one is µs-scale here
            let start = std::time::Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(db_store.knn_batch(&q_store, 10));
            }
            let knn_query_seconds =
                start.elapsed().as_secs_f64() / (REPS * q_store.len().max(1)) as f64;

            let indexed = index.map(|ix| {
                // Identical to the flat scan for every variant, the
                // fused one through its convex-mix bound.
                let (hits, stats) = ix.knn_batch_with_stats(&q_store, 10);
                assert_eq!(
                    flat_hits,
                    hits,
                    "{}: indexed top-10 diverged from the flat engine",
                    variant.name()
                );
                let start = std::time::Instant::now();
                for _ in 0..REPS {
                    std::hint::black_box(ix.knn_batch(&q_store, 10));
                }
                let seconds = start.elapsed().as_secs_f64() / (REPS * q_store.len().max(1)) as f64;
                (seconds, stats, ix.num_cells())
            });

            let mut row = vec![
                format!("{:.0}%", frac * 100.0),
                variant.name().into(),
                format!("{:.3}", out.eval.hr10),
                format!("{:.3}", out.eval.hr50),
                format!("{:.1} µs", knn_query_seconds * 1e6),
            ];
            if let Some((ix_s, stats, cells)) = &indexed {
                row.push(format!("{:.1} µs", ix_s * 1e6));
                row.push(format!("{:.1}%", stats.prune_rate() * 100.0));
                row.push(format!("{:.1}/{cells}", stats.cells_probed_per_query()));
                row.push(
                    lorentz_view_prune_rate.map_or("-".into(), |p| format!("{:.1}%", p * 100.0)),
                );
                row.push(alpha_spread.map_or("-".into(), |[lo, med, hi]| {
                    format!("{lo:.3}/{med:.3}/{hi:.3}")
                }));
            }
            table.row(row);
            points.push(FracPoint {
                fraction: frac,
                variant: variant.name().into(),
                hr10: out.eval.hr10,
                hr50: out.eval.hr50,
                knn_query_seconds,
                indexed_query_seconds: indexed.map(|i| i.0),
                index_prune_rate: indexed.map(|i| i.1.prune_rate()),
                index_cells_probed_per_query: indexed.map(|i| i.1.cells_probed_per_query()),
                index_cells: indexed.map(|i| i.2),
                lorentz_view_prune_rate,
                alpha_spread,
            });
            eprintln!("[fig6] fraction {frac} / {} done", variant.name());
        }
    }
    table.print();
    let path = write_artifact("fig6_scalability", &points);
    println!("\nartifact: {}", path.display());
}
