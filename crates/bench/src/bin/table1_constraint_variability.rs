//! **Table I** — Constraint Variability on Trajectory datasets.
//!
//! Computes RV and ARVS for DTW / SSPD / EDR over the six synthetic
//! dataset profiles. Paper values (real data) for comparison are printed
//! alongside; EXPERIMENTS.md discusses shape agreement (DTW/SSPD/EDR all
//! violate on every dataset, with dataset-dependent magnitude).
//!
//! Usage: `cargo run --release -p lh-bench --bin table1_constraint_variability
//!        [--n 120] [--triplets 20000] [--edr-eps 0.02] [--seed 42]
//!        [--cache-dir target/gt-cache]`
//!
//! With `--cache-dir`, each of the 21 ground-truth matrices is
//! checkpointed; a re-run at the same parameters loads them instead of
//! recomputing (the final `gt cache hits` line reports how many).

use lh_bench::printer::{pct, write_artifact};
use lh_bench::{print_header, Args, Table};
use lh_data::DatasetPreset;
use lh_metrics::{ratio_of_violation, sample_triplets};
use serde::Serialize;
use traj_core::normalize::Normalizer;
use traj_dist::{MatrixBuilder, Measure, MeasureKind};

#[derive(Serialize)]
struct Cell {
    dataset: String,
    measure: String,
    rv: f64,
    arvs: f64,
    triples: usize,
}

/// Paper Table I values for the matching dataset/measure, for side-by-side
/// printing: (rv, arvs).
#[allow(clippy::approx_constant)] // 0.318 is the paper's Porto ARVS, not 1/π
fn paper_value(preset: DatasetPreset, measure: MeasureKind) -> Option<(f64, f64)> {
    use DatasetPreset::*;
    use MeasureKind::*;
    let v = match (preset, measure) {
        (Chengdu, Dtw) => (0.193, 0.147),
        (Porto, Dtw) => (0.253, 0.159),
        (Xian, Dtw) => (0.207, 0.103),
        (TDrive, Dtw) => (0.369, 0.486),
        (Osm, Dtw) => (0.154, 0.041),
        (Geolife, Dtw) => (0.380, 0.144),
        (Chengdu, Sspd) => (0.286, 0.125),
        (Porto, Sspd) => (0.278, 0.121),
        (Xian, Sspd) => (0.226, 0.057),
        (TDrive, Sspd) => (0.370, 0.126),
        (Osm, Sspd) => (0.057, 0.048),
        (Geolife, Sspd) => (0.186, 0.044),
        (Chengdu, Edr) => (0.130, 0.233),
        (Porto, Edr) => (0.167, 0.318),
        (Xian, Edr) => (0.382, 1.087),
        (TDrive, Edr) => (0.537, 1.427),
        (Osm, Edr) => (0.094, 0.166),
        (Geolife, Edr) => (0.118, 1.756),
        _ => return None,
    };
    Some(v)
}

fn main() {
    let args = Args::parse();
    let n = args.get("n", 120usize);
    let max_triplets = args.get("triplets", 20_000usize);
    let edr_eps = args.get("edr-eps", 0.02f64);
    if !(edr_eps.is_finite() && edr_eps >= 0.0) {
        eprintln!("usage: --edr-eps takes a finite, non-negative tolerance (got {edr_eps})");
        std::process::exit(2);
    }
    let seed = args.get("seed", 42u64);
    let cache_dir = args.get_str("cache-dir").map(str::to_string);

    // One builder per measure config; tracks cache hits across all 21
    // matrix builds for the summary line (and the CI cache smoke test).
    let mut gt_builds = 0usize;
    let mut gt_hits = 0usize;
    let mut gt_seconds = 0.0f64;
    let mut build = |measure: Measure, trajs: &[traj_core::Trajectory]| {
        let mut b = MatrixBuilder::new(measure);
        if let Some(dir) = &cache_dir {
            b = b.cache_dir(dir);
        }
        let out = b.build_pairwise(trajs);
        gt_builds += 1;
        gt_hits += out.report.cache.is_hit() as usize;
        gt_seconds += out.report.seconds;
        out.matrix
    };

    print_header(
        "Table I",
        "triangle-inequality constraint variability (RV / ARVS)",
    );
    let mut table = Table::new(&["dataset", "measure", "RV", "ARVS", "paper RV", "paper ARVS"]);
    let mut cells = Vec::new();
    for preset in DatasetPreset::PAPER_SETS {
        let raw = lh_data::generate(preset, n, seed);
        let normalized = Normalizer::fit(&raw).expect("non-degenerate").dataset(&raw);
        let triplets = sample_triplets(n, max_triplets, seed);
        for kind in MeasureKind::SPATIAL {
            let measure = kind.measure().with_edr_eps(edr_eps);
            let matrix = build(measure, normalized.trajectories());
            let stats = ratio_of_violation(&matrix, &triplets);
            let paper = paper_value(preset, kind);
            table.row(vec![
                preset.name().to_string(),
                kind.name().to_string(),
                format!("{}%", pct(stats.rv)),
                format!("{:.3}", stats.arvs),
                paper.map_or("-".into(), |(rv, _)| format!("{}%", pct(rv))),
                paper.map_or("-".into(), |(_, arvs)| format!("{arvs:.3}")),
            ]);
            cells.push(Cell {
                dataset: preset.name().to_string(),
                measure: kind.name().to_string(),
                rv: stats.rv,
                arvs: stats.arvs,
                triples: stats.triples,
            });
        }
    }
    table.print();
    let path = write_artifact("table1_constraint_variability", &cells);
    println!("\nartifact: {}", path.display());

    // Control: metric measures must be violation-free.
    let raw = lh_data::generate(DatasetPreset::Chengdu, n.min(80), seed);
    let normalized = Normalizer::fit(&raw).expect("non-degenerate").dataset(&raw);
    let triplets = sample_triplets(normalized.len(), max_triplets, seed);
    println!("\ncontrols (metric measures, expect RV = 0):");
    for kind in [
        MeasureKind::Hausdorff,
        MeasureKind::DiscreteFrechet,
        MeasureKind::Erp,
    ] {
        let matrix = build(kind.measure(), normalized.trajectories());
        let stats = ratio_of_violation(&matrix, &triplets);
        println!("  {:<18} RV = {}%", kind.name(), pct(stats.rv));
    }

    println!(
        "\nground truth: {gt_builds} matrices in {gt_seconds:.2}s, gt cache hits: {gt_hits}/{gt_builds}{}",
        if cache_dir.is_none() {
            " (cache disabled; pass --cache-dir to checkpoint)"
        } else {
            ""
        }
    );
}
