//! **Fig. 1** — embedding accuracy vs triangle-inequality violation.
//!
//! Buckets held-out queries by the violation degree of their ground-truth
//! neighborhood (mean RVS over triples formed by the query and pairs of
//! its top-k neighbors) and reports HR@10 per bucket for the original
//! model and the LH-plugin. The paper's Fig. 1 shows accuracy decaying
//! with violation degree — and the LH rows decaying *less*.
//!
//! Usage: `cargo run --release -p lh-bench --bin fig1_violation_accuracy
//!        [--n 200] [--epochs 30] [--seed 42]`

use lh_bench::printer::write_artifact;
use lh_bench::{default_spec, print_header, Args, Table};
use lh_core::config::PluginVariant;
use lh_core::pipeline::{run_experiment, ExperimentOutcome};
use lh_metrics::ranking::{hr_at_k, rank_by_distance};
use lh_metrics::violation::rvs;
use serde::Serialize;
use traj_dist::MatrixBuilder;

/// Mean relative violation of the query's neighborhood triples.
fn query_violation_degree(gt_row: &[f64], db_matrix: &traj_dist::DistanceMatrix, k: usize) -> f64 {
    let ranking = rank_by_distance(gt_row);
    let top: Vec<usize> = ranking.into_iter().take(k).collect();
    let mut acc = 0.0;
    let mut cnt = 0usize;
    for (ai, &i) in top.iter().enumerate() {
        for &j in top.iter().skip(ai + 1) {
            acc += rvs(gt_row[i], gt_row[j], db_matrix.get(i, j)).max(-1.0);
            cnt += 1;
        }
    }
    if cnt == 0 {
        0.0
    } else {
        acc / cnt as f64
    }
}

/// Per-query HR@10 rows for a trained model.
fn per_query_hr(out: &ExperimentOutcome) -> Vec<f64> {
    let db = out.model.embed(out.database.trajectories());
    let q = out.model.embed(out.queries.trajectories());
    (0..out.queries.len())
        .map(|qi| {
            let pred = db.distance_row_from(&q, qi);
            let t_rank = rank_by_distance(&out.gt_rows[qi]);
            let p_rank = rank_by_distance(&pred);
            hr_at_k(&t_rank, &p_rank, 10)
        })
        .collect()
}

#[derive(Serialize)]
struct Bucket {
    violation_lo: f64,
    violation_hi: f64,
    queries: usize,
    hr10_original: f64,
    hr10_plugin: f64,
}

fn main() {
    let args = Args::parse();
    print_header(
        "Fig. 1",
        "embedding accuracy vs triangle-inequality violation",
    );

    let mut spec = default_spec(&args);
    spec.trainer.epochs = args.get("epochs", 30usize);
    spec.plugin = spec.plugin.with_variant(PluginVariant::Original);
    let orig = run_experiment(&spec);
    eprintln!("[fig1] original trained");
    spec.plugin = spec.plugin.with_variant(PluginVariant::FusionDist);
    let plug = run_experiment(&spec);
    eprintln!("[fig1] plugin trained");

    // Violation degree needs in-database distances too; share the run's
    // checkpoint cache (the training pairwise matrix over the same
    // database is the same fingerprint — a warm run loads it).
    let mut builder = MatrixBuilder::new(spec.measure.measure());
    if let Some(dir) = &spec.gt_cache_dir {
        builder = builder.cache_dir(dir);
    }
    let db_build = builder.build_pairwise(orig.database.trajectories());
    eprintln!(
        "[fig1] db matrix in {:.2}s (cache: {:?})",
        db_build.report.seconds, db_build.report.cache
    );
    let db_matrix = db_build.matrix;
    let degrees: Vec<f64> = (0..orig.queries.len())
        .map(|qi| query_violation_degree(&orig.gt_rows[qi], &db_matrix, 10))
        .collect();
    let hr_orig = per_query_hr(&orig);
    let hr_plug = per_query_hr(&plug);

    // Quartile buckets over the violation degree. `total_cmp` (NaN-safe
    // total order) instead of `partial_cmp(..).unwrap()`: a degenerate
    // neighborhood yielding a NaN degree must not panic the whole run.
    let mut sorted = degrees.clone();
    sorted.sort_by(f64::total_cmp);
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f) as usize];
    let edges = [sorted[0], q(0.25), q(0.5), q(0.75), *sorted.last().unwrap()];

    let mut table = Table::new(&["violation bucket", "queries", "HR@10 original", "HR@10 LH"]);
    let mut buckets = Vec::new();
    for b in 0..4 {
        let (lo, hi) = (edges[b], edges[b + 1]);
        let idx: Vec<usize> = degrees
            .iter()
            .enumerate()
            .filter(|(_, &d)| if b == 3 { d >= lo } else { d >= lo && d < hi })
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mean = |v: &[f64]| idx.iter().map(|&i| v[i]).sum::<f64>() / idx.len() as f64;
        let (ho, hp) = (mean(&hr_orig), mean(&hr_plug));
        table.row(vec![
            format!("[{lo:+.3}, {hi:+.3}]"),
            format!("{}", idx.len()),
            format!("{ho:.3}"),
            format!("{hp:.3}"),
        ]);
        buckets.push(Bucket {
            violation_lo: lo,
            violation_hi: hi,
            queries: idx.len(),
            hr10_original: ho,
            hr10_plugin: hp,
        });
    }
    table.print();
    println!(
        "\nexpected shape: HR decays toward the high-violation bucket, and the\n\
         LH column decays less (paper Fig. 1)."
    );
    let path = write_artifact("fig1_violation_accuracy", &buckets);
    println!("artifact: {}", path.display());
}
