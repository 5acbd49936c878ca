//! Golden training bits: checked-in hashes of what a seeded run trains.
//!
//! Every trained number in this workspace comes from `lh-nn`'s tape and
//! Adam, through one of five base encoders and one of four plugin
//! variants. These cases pin, per (encoder, variant), a 64-bit FNV-1a over
//! every trained parameter (names in sorted order, then each `f32`'s bits)
//! and the exact bits of the final epoch's mean loss after a tiny seeded
//! [`run_experiment`]. The five encoders under `fusion-dist`, plus
//! `original`, `lh-vanilla` and `lh-cosh` on Traj2SimVec, reach every tape
//! op a model uses, so any change to forward or backward arithmetic —
//! reassociation, a reordered derivative, a different reduction order —
//! fails here even when every finite-difference check still passes.
//!
//! To regenerate after an *intentional* change to training arithmetic,
//! run:
//!
//! ```text
//! cargo test --test training_golden -- --ignored regenerate --nocapture
//! ```
//!
//! and paste the printed table over `EXPECTED`.

use lh_repro::data::DatasetPreset;
use lh_repro::models::ModelKind;
use lh_repro::plugin::pipeline::{run_experiment, ExperimentSpec};
use lh_repro::plugin::trainer::TrainerConfig;
use lh_repro::plugin::PluginVariant;
use lh_repro::traj::codec::Fnv64;

/// `(encoder, variant, parameter hash, final-epoch loss bits)`.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, u64, u64)] = &[
    ("Neutraj", "fusion-dist", 0xedc671b5a1ee7de9, 0x3fcd32ac80000000),
    ("TrajGAT", "fusion-dist", 0x300fe6b9f089b1e3, 0x3fe221b2aaaaaaab),
    ("Traj2SimVec", "fusion-dist", 0xb304dc7af54c5611, 0x3fe16ae195555555),
    ("ST2Vec", "fusion-dist", 0x18dc6775ee5aa4ba, 0x3fe68a3b85555555),
    ("Tedj", "fusion-dist", 0x3ee53178f60d2c9b, 0x3fe08d1640000000),
    ("Traj2SimVec", "original", 0xb68a0ad9b6872e26, 0x3fd8da6ed5555555),
    ("Traj2SimVec", "lh-vanilla", 0xd30ba30d575a8b82, 0x3fe935a970000000),
    ("Traj2SimVec", "lh-cosh", 0x62e7a990b1bf7dcb, 0x3fe6a7c23aaaaaab),
];

fn cases() -> Vec<(ModelKind, PluginVariant)> {
    let mut cases: Vec<(ModelKind, PluginVariant)> = ModelKind::SPATIAL
        .iter()
        .chain(&ModelKind::SPATIO_TEMPORAL)
        .map(|&m| (m, PluginVariant::FusionDist))
        .collect();
    for variant in [
        PluginVariant::Original,
        PluginVariant::LorentzVanilla,
        PluginVariant::LorentzCosh,
    ] {
        cases.push((ModelKind::Traj2SimVec, variant));
    }
    cases
}

/// Trains one case and returns `(parameter hash, final-epoch loss bits)`.
fn train(model: ModelKind, variant: PluginVariant) -> (u64, u64) {
    let mut spec = ExperimentSpec::quick();
    spec.preset = DatasetPreset::Smoke;
    spec.n = 24;
    spec.n_queries = 4;
    spec.model = model;
    spec.plugin = spec.plugin.with_variant(variant);
    spec.trainer = TrainerConfig {
        epochs: 2,
        batch_pairs: 32,
        lr: 3e-3,
        k_near: 2,
        k_rand: 2,
        seed: 3,
    };
    spec.seed = 17;
    let out = run_experiment(&spec);
    let store = out.model.store();
    let mut h = Fnv64::default();
    for name in store.names() {
        h.write(name.as_bytes());
        for v in store.get(name).data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    let loss = out.report.history.last().expect("trained epochs").loss;
    (h.finish(), loss.to_bits())
}

#[test]
fn trained_bits_match_golden() {
    let cases = cases();
    assert_eq!(EXPECTED.len(), cases.len(), "one golden row per case");
    for ((model, variant), &(name, vname, params, loss)) in cases.into_iter().zip(EXPECTED) {
        assert_eq!((model.name(), variant.name()), (name, vname));
        let (got_params, got_loss) = train(model, variant);
        assert_eq!(
            got_params, params,
            "{name}/{vname}: trained parameters moved ({got_params:#018x})"
        );
        assert_eq!(
            got_loss, loss,
            "{name}/{vname}: final loss moved ({got_loss:#018x})"
        );
    }
}

/// Prints the `EXPECTED` table from the current training code. Ignored by
/// default; see the module docs.
#[test]
#[ignore = "regeneration helper, not a check"]
fn regenerate() {
    for (model, variant) in cases() {
        let (params, loss) = train(model, variant);
        println!(
            "    (\"{}\", \"{}\", {params:#018x}, {loss:#018x}),",
            model.name(),
            variant.name()
        );
    }
}
