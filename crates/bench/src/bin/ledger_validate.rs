//! Validates the committed benchmark ledgers against their schemas.
//!
//! With no arguments, checks every ledger in
//! [`lh_bench::ledger::COMMITTED_LEDGERS`] at the repo root (a missing
//! file fails — a deleted ledger is drift too). With `--file <path>`
//! checks one file, inferring the spec from the first record's `schema`
//! tag.
//!
//! Exit code 0 means every checked ledger parsed and satisfied its
//! contract: correct schema tag, required record/row fields present,
//! `recorded_at_unix` monotone. Anything else prints the violation and
//! exits 1 — this is the `ledger-validate` CI gate.
//!
//! Usage: `cargo run --release -p lh-bench --bin ledger_validate
//!        [--file BENCH_x.json]`

use lh_bench::ledger::{self, LedgerSpec};
use lh_bench::Args;
use serde::Value;

fn check(path: &str, specs: &[&LedgerSpec]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let report = ledger::validate_text(&text, specs).map_err(|e| format!("{path}: {e}"))?;
    let schemas: Vec<&str> = specs.iter().map(|s| s.schema).collect();
    println!(
        "[ledger_validate] {path}: OK — {} record(s), {} row(s), schemas {schemas:?}, \
         recorded {}..{}",
        report.records, report.rows, report.first_recorded, report.last_recorded
    );
    Ok(())
}

/// Infers the spec set for `path` from its first record's `schema` tag:
/// the whole ledger family that tag belongs to, so a file mixing
/// generations (like the committed serve ledger) validates fully.
fn infer_specs(path: &str) -> Result<&'static [&'static LedgerSpec], String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let first = match &doc {
        Value::Arr(records) => records
            .first()
            .ok_or_else(|| format!("{path}: ledger holds no records"))?,
        _ => return Err(format!("{path}: ledger must be a top-level JSON array")),
    };
    let tag = first
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: first record has no `schema` string"))?;
    ledger::family_for(tag).ok_or_else(|| format!("{path}: unknown schema `{tag}`"))
}

fn main() {
    let args = Args::parse();
    let mut failures = 0usize;
    if let Some(path) = args.get_str("file") {
        let checked = infer_specs(path).and_then(|specs| check(path, specs));
        if let Err(e) = checked {
            eprintln!("[ledger_validate] FAIL — {e}");
            failures += 1;
        }
    } else {
        for (path, specs) in ledger::COMMITTED_LEDGERS {
            if !std::path::Path::new(path).exists() {
                eprintln!("[ledger_validate] FAIL — {path}: missing (a deleted ledger is drift)");
                failures += 1;
                continue;
            }
            if let Err(e) = check(path, specs) {
                eprintln!("[ledger_validate] FAIL — {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("[ledger_validate] all ledgers valid");
}
