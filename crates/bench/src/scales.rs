//! Default experiment scales.
//!
//! The paper trains on millions of trajectories on a V100; this harness
//! runs on CPU with a from-scratch autodiff, so defaults are scaled down.
//! Every binary accepts `--n`, `--queries`, `--epochs`, `--seed` overrides
//! to scale back up. The *relative* comparisons (original vs plugin,
//! ablation rows, hyper-parameter sweeps) are what must — and do — survive
//! the scaling; EXPERIMENTS.md records shape agreement per experiment.

use lh_core::pipeline::ExperimentSpec;
use lh_core::{PluginConfig, TrainerConfig};
use lh_data::DatasetPreset;
use lh_models::{EncoderConfig, ModelKind};
use traj_dist::MeasureKind;

use crate::args::Args;

/// Builds a spec from CLI overrides with harness defaults. A zero `--n`
/// or `--batch` is a usage error: the process exits with code 2 and a
/// usage line instead of starting an experiment that cannot run.
pub fn default_spec(args: &Args) -> ExperimentSpec {
    let n = positive(args, "n", 160);
    let n_queries = args.get("queries", 30usize).min(n.saturating_sub(10));
    ExperimentSpec {
        preset: match args.get_str("preset") {
            Some("porto") => DatasetPreset::Porto,
            Some("xian") => DatasetPreset::Xian,
            Some("t-drive") | Some("tdrive") => DatasetPreset::TDrive,
            Some("osm") => DatasetPreset::Osm,
            Some("geolife") => DatasetPreset::Geolife,
            Some("smoke") => DatasetPreset::Smoke,
            _ => DatasetPreset::Chengdu,
        },
        n,
        n_queries,
        measure: match args.get_str("measure") {
            Some("sspd") => MeasureKind::Sspd,
            Some("edr") => MeasureKind::Edr,
            Some("hausdorff") => MeasureKind::Hausdorff,
            Some("frechet") => MeasureKind::DiscreteFrechet,
            Some("tp") => MeasureKind::Tp,
            Some("dita") => MeasureKind::Dita,
            _ => MeasureKind::Dtw,
        },
        model: match args.get_str("model") {
            Some("neutraj") => ModelKind::Neutraj,
            Some("trajgat") => ModelKind::TrajGat,
            Some("st2vec") => ModelKind::St2Vec,
            Some("tedj") => ModelKind::Tedj,
            _ => ModelKind::Traj2SimVec,
        },
        plugin: {
            let mut p = PluginConfig::paper_default()
                .with_beta(args.get("beta", 1.0f32))
                .with_c(args.get("c", 4.0f32));
            p.variant = match args.get_str("variant") {
                Some("original") => lh_core::PluginVariant::Original,
                Some("lh-vanilla") => lh_core::PluginVariant::LorentzVanilla,
                Some("lh-cosh") => lh_core::PluginVariant::LorentzCosh,
                _ => lh_core::PluginVariant::FusionDist,
            };
            p
        },
        encoder: EncoderConfig::default(),
        trainer: TrainerConfig {
            epochs: args.get("epochs", 10usize),
            batch_pairs: positive(args, "batch", 64),
            lr: args.get("lr", 3e-3f32),
            k_near: 4,
            k_rand: 4,
            seed: args.get("seed", 42u64),
        },
        seed: args.get("seed", 42u64),
        eval_every_epoch: false,
        gt_cache_dir: args.get_str("cache-dir").map(str::to_string),
    }
}

/// `--key`'s count, or `default`; exits with code 2 and a usage line if
/// it is zero.
fn positive(args: &Args, key: &str, default: usize) -> usize {
    let value = args.get(key, default);
    if value == 0 {
        eprintln!("usage: --{key} takes a positive count (got 0)");
        std::process::exit(2);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let spec = default_spec(&Args::default());
        assert_eq!(spec.n, 160);
        assert_eq!(spec.n_queries, 30);
        assert!(spec.trainer.epochs > 0);
    }

    #[test]
    fn overrides_apply() {
        let args = Args::from_args(
            [
                "--n",
                "50",
                "--queries",
                "45",
                "--measure",
                "sspd",
                "--model",
                "neutraj",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        let spec = default_spec(&args);
        assert_eq!(spec.n, 50);
        // queries clamped to leave a database.
        assert_eq!(spec.n_queries, 40);
        assert_eq!(spec.measure, MeasureKind::Sspd);
        assert_eq!(spec.model, ModelKind::Neutraj);
    }
}
