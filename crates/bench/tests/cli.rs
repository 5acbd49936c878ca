//! Command-line checks of the reproduction binaries that run no
//! experiment.

use std::process::Command;

/// `--edr-eps` is how the EDR tolerance enters from outside the program:
/// a NaN, infinite or negative tolerance is a usage error (exit code 2),
/// not a table built with a tolerance no pair of points can meet.
#[test]
fn table1_rejects_a_non_finite_or_negative_edr_eps() {
    for bad in ["nan", "inf", "-0.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_table1_constraint_variability"))
            .args(["--n", "4", "--edr-eps", bad])
            .output()
            .expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "--edr-eps {bad}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--edr-eps"),
            "--edr-eps {bad}: no usage message"
        );
    }
}

/// `--n` and `--batch` reach every bin built on `default_spec`: a zero
/// database or a zero-pair batch is a usage error (exit code 2) before
/// any experiment starts, not a panic in the trainer or the pipeline.
#[test]
fn default_spec_bins_reject_a_zero_n_or_batch() {
    for key in ["--n", "--batch"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig7_training_curves"))
            .args([key, "0", "--epochs", "1"])
            .output()
            .expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "{key} 0");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(key),
            "{key} 0: no usage message"
        );
    }
}

/// A run with no query is a usage error too: `--queries 0`, and an `--n`
/// of 10 or less, which the database's ten rows leave no query. Such a
/// run used to train, print HR@10 0.000 and exit 0.
#[test]
fn default_spec_bins_reject_a_run_with_no_query() {
    for (args, key) in [
        (["--queries", "0"], "--queries"),
        (["--n", "10"], "--n"),
        (["--n", "1"], "--n"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig7_training_curves"))
            .args(args)
            .args(["--epochs", "1"])
            .output()
            .expect("the binary starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(key),
            "{args:?}: no usage message"
        );
    }
}
