//! Similarity search at scale: pre-embed a database once, then contrast
//! query latency and agreement of (a) brute-force DTW, (b) the LH-plugin
//! fused-distance scan, (c) the batched top-k scan
//! (`EmbeddingStore::knn_batch`) — the paper's core systems trade-off
//! (super-quadratic oracle vs O(d) embedding distance), plus what the
//! retrieval engine adds on top: kernel monomorphization, bounded-heap
//! top-k, and query-parallel batching.
//!
//! Run with: `cargo run --release --example similarity_search`

use lh_repro::data::{generate, DatasetPreset};
use lh_repro::dist::MeasureKind;
use lh_repro::metrics::ranking::{hr_at_k, rank_by_distance};
use lh_repro::models::{EncoderConfig, ModelKind};
use lh_repro::plugin::trainer::{LhModel, Trainer, TrainerConfig};
use lh_repro::plugin::PluginConfig;
use lh_repro::traj::normalize::Normalizer;
use std::time::Instant;

fn main() {
    let raw = generate(DatasetPreset::Porto, 300, 3);
    let data = Normalizer::fit(&raw).unwrap().dataset(&raw);
    let (database, queries) = data.split(280.0 / 300.0);
    let measure = MeasureKind::Dtw.measure();

    // Train a plugin model briefly (quality is secondary here; the point
    // is the latency shape).
    let gt = lh_repro::dist::pairwise_matrix(database.trajectories(), &measure);
    let mut model = LhModel::new(
        ModelKind::Traj2SimVec,
        EncoderConfig::default(),
        PluginConfig::paper_default(),
        &database,
        3,
    );
    Trainer::new(TrainerConfig {
        epochs: 8,
        ..Default::default()
    })
    .train(&mut model, database.trajectories(), &gt, |_, _| None);

    // Offline embedding (done once, amortized over all future queries).
    let t = Instant::now();
    let db_store = model.embed(database.trajectories());
    let q_store = model.embed(queries.trajectories());
    println!(
        "embedded {} + {} trajectories in {:.2}s ({} bytes of store)",
        database.len(),
        queries.len(),
        t.elapsed().as_secs_f64(),
        db_store.payload_bytes()
    );

    // (a) brute-force DTW per query.
    let t = Instant::now();
    let mut dtw_rows: Vec<Vec<f64>> = Vec::new();
    for q in queries.trajectories() {
        dtw_rows.push(
            database
                .trajectories()
                .iter()
                .map(|d| measure.distance(q, d))
                .collect(),
        );
    }
    let dtw_time = t.elapsed().as_secs_f64() / queries.len() as f64;

    // (b) fused-distance scan per query.
    let t = Instant::now();
    let mut fused_rows: Vec<Vec<f64>> = Vec::new();
    for qi in 0..queries.len() {
        fused_rows.push(db_store.distance_row_from(&q_store, qi));
    }
    let fused_time = t.elapsed().as_secs_f64() / queries.len() as f64;

    // (c) batched top-10 over the same buffers scanned above, parallel
    // across queries.
    let batch_hits = db_store.knn_batch(&q_store, 10); // warm-up
    const REPS: usize = 5; // average: one batch here is microseconds
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(db_store.knn_batch(&q_store, 10));
    }
    let batch_time = t.elapsed().as_secs_f64() / (REPS * queries.len()) as f64;
    // The batch returns exactly what a single-query scan would.
    for (qi, hits) in batch_hits.iter().enumerate() {
        assert_eq!(hits, &db_store.knn(&q_store, qi, 10));
    }

    // Agreement of the embedding ranking with the DTW oracle.
    let mut hr10 = 0.0;
    for qi in 0..queries.len() {
        let t_rank = rank_by_distance(&dtw_rows[qi]);
        let p_rank = rank_by_distance(&fused_rows[qi]);
        hr10 += hr_at_k(&t_rank, &p_rank, 10);
    }
    hr10 /= queries.len() as f64;

    println!(
        "\nper-query latency over {} database trips:",
        database.len()
    );
    println!("  brute-force DTW      {:>10.3} ms", dtw_time * 1e3);
    println!(
        "  LH fused-dist scan   {:>10.3} ms   ({:.0}× faster)",
        fused_time * 1e3,
        dtw_time / fused_time.max(1e-12)
    );
    println!("  knn_batch@10         {:>10.3} ms", batch_time * 1e3);
    println!("  ranking agreement    HR@10 = {hr10:.3}");
    // Variant / scale sweeps live in the `table5_retrieval_cost` bench.
}
