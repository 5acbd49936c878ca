//! Structural validation for the committed serving ledger.
//!
//! `serve_bench` tracks the serving tier over time in an append-only
//! JSON ledger (`BENCH_serve.json`). Its value is longitudinal: a record
//! that silently drops a field or an append that lands out of order
//! quietly breaks every later comparison. This module pins the ledger's
//! contract — schema tag, required fields per record and per row,
//! monotone `recorded_at_unix` timestamps — and the `ledger_validate`
//! binary fails CI on drift. (`BENCH_kernels.json` and
//! `BENCH_retrieval.json` are frozen history: no bin writes them any
//! more, so nothing here validates them.)
//!
//! Validation is structural, not semantic: it asserts the fields exist
//! with the right JSON types, never that the numbers are good. (Judging
//! regressions is a human's job; keeping the time series parseable is
//! CI's.)

use serde::Value;

/// The contract one ledger's records must satisfy.
pub struct LedgerSpec {
    /// `schema` tag every record must carry.
    pub schema: &'static str,
    /// Required top-level fields per record (beyond `schema`,
    /// `recorded_at_unix`, and `rows`, which are always required).
    pub record_fields: &'static [&'static str],
    /// Required fields per row.
    pub row_fields: &'static [&'static str],
    /// Per-row nested op-class objects and the fields each must carry
    /// (the serving ledger's `query` / `upsert` / `remove` histograms).
    pub op_classes: &'static [&'static str],
    /// Required fields inside each op-class object.
    pub op_class_fields: &'static [&'static str],
}

/// `BENCH_serve.json`: mutable serving tier under a mixed workload
/// (single store, closed loop, inline compaction — the pre-sharding
/// schema, kept so the committed history stays valid).
pub const SERVE_SPEC: LedgerSpec = LedgerSpec {
    schema: "serve-bench-v1",
    record_fields: &["n", "dim", "k", "ops", "threads", "zipf"],
    row_fields: &[
        "variant",
        "base_indexed",
        "epoch",
        "compactions",
        "wall_seconds",
        "bit_identical",
        "verify_queries",
    ],
    op_classes: &["query", "upsert", "remove"],
    op_class_fields: &["count", "qps", "p50_us", "p95_us", "p99_us"],
};

/// `BENCH_serve.json`, second generation: sharded store, closed- or
/// open-loop driving (`mode`), inline or background compaction
/// (`compaction`), deeper tail (`p999_us`) and the exact per-class
/// maximum (`max_us` — the outlier-bound assert's evidence).
pub const SERVE_SPEC_V2: LedgerSpec = LedgerSpec {
    schema: "serve-bench-v2",
    record_fields: &[
        "n",
        "dim",
        "k",
        "ops",
        "threads",
        "zipf",
        "shards",
        "mode",
        "compaction",
        "rate",
    ],
    row_fields: &[
        "variant",
        "base_indexed",
        "epoch",
        "compactions",
        "wall_seconds",
        "bit_identical",
        "verify_queries",
    ],
    op_classes: &["query", "upsert", "remove"],
    op_class_fields: &[
        "count", "qps", "p50_us", "p95_us", "p99_us", "p999_us", "max_us",
    ],
};

/// The ledgers `ledger_validate` checks at the repo root, each with the
/// set of schemas its records may carry (a ledger that evolves keeps
/// accepting its committed history — records validate per-record against
/// whichever spec their `schema` tag names).
pub const COMMITTED_LEDGERS: &[(&str, &[&LedgerSpec])] =
    &[("BENCH_serve.json", &[&SERVE_SPEC, &SERVE_SPEC_V2])];

/// The full spec set of the ledger family `schema` belongs to — e.g.
/// `serve-bench-v1` maps to the serve set `{v1, v2}`, so a standalone
/// file holding mixed generations validates like the committed ledger.
pub fn family_for(schema: &str) -> Option<&'static [&'static LedgerSpec]> {
    COMMITTED_LEDGERS
        .iter()
        .map(|(_, specs)| *specs)
        .find(|specs| specs.iter().any(|spec| spec.schema == schema))
}

/// What a valid ledger contained.
#[derive(Debug, PartialEq, Eq)]
pub struct LedgerReport {
    /// Records in the ledger.
    pub records: usize,
    /// Total rows across records.
    pub rows: usize,
    /// First record's timestamp.
    pub first_recorded: u64,
    /// Last record's timestamp (≥ `first_recorded` by validation).
    pub last_recorded: u64,
}

fn field<'v>(obj: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing field `{key}`"))
}

fn as_u64(v: &Value, ctx: &str) -> Result<u64, String> {
    match v {
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("{ctx}: expected a non-negative integer")),
    }
}

/// Validates one ledger document against a set of allowed specs: each
/// record must carry a `schema` tag naming one of them and satisfy that
/// spec's contract. Timestamps stay monotone across the whole ledger
/// regardless of which generation each record belongs to.
pub fn validate_text(text: &str, specs: &[&LedgerSpec]) -> Result<LedgerReport, String> {
    let doc = Value::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let records = match &doc {
        Value::Arr(records) => records,
        _ => return Err("ledger must be a top-level JSON array".to_string()),
    };
    if records.is_empty() {
        return Err("ledger holds no records".to_string());
    }
    let mut prev_recorded = 0u64;
    let mut first_recorded = 0u64;
    let mut total_rows = 0usize;
    for (i, record) in records.iter().enumerate() {
        let ctx = format!("record {i}");
        if !matches!(record, Value::Obj(_)) {
            return Err(format!("{ctx}: must be an object"));
        }
        let schema = field(record, "schema", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: `schema` must be a string"))?;
        let spec = specs
            .iter()
            .find(|spec| spec.schema == schema)
            .ok_or_else(|| {
                let allowed: Vec<&str> = specs.iter().map(|s| s.schema).collect();
                format!("{ctx}: schema `{schema}` is not among the allowed set {allowed:?}")
            })?;
        let recorded = as_u64(
            field(record, "recorded_at_unix", &ctx)?,
            &format!("{ctx}: `recorded_at_unix`"),
        )?;
        if recorded == 0 {
            return Err(format!("{ctx}: `recorded_at_unix` is zero"));
        }
        if recorded < prev_recorded {
            return Err(format!(
                "{ctx}: `recorded_at_unix` {recorded} precedes previous record's \
                 {prev_recorded} — appends must be chronological"
            ));
        }
        prev_recorded = recorded;
        if i == 0 {
            first_recorded = recorded;
        }
        for &key in spec.record_fields {
            field(record, key, &ctx)?;
        }
        let rows = match field(record, "rows", &ctx)? {
            Value::Arr(rows) => rows,
            _ => return Err(format!("{ctx}: `rows` must be an array")),
        };
        if rows.is_empty() {
            return Err(format!("{ctx}: `rows` is empty"));
        }
        total_rows += rows.len();
        for (j, row) in rows.iter().enumerate() {
            let rctx = format!("record {i} row {j}");
            for &key in spec.row_fields {
                field(row, key, &rctx)?;
            }
            for &class in spec.op_classes {
                let op = field(row, class, &rctx)?;
                for &key in spec.op_class_fields {
                    field(op, key, &format!("{rctx} `{class}`"))?;
                }
            }
        }
    }
    Ok(LedgerReport {
        records: records.len(),
        rows: total_rows,
        first_recorded,
        last_recorded: prev_recorded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-generation ledger shaped like the retired kernel ledger.
    const FIXTURE_SPEC: LedgerSpec = LedgerSpec {
        schema: "fixture-v1",
        record_fields: &["l", "pairs", "lanes"],
        row_fields: &[
            "measure",
            "scalar_us_per_pair",
            "wavefront_us_per_pair",
            "speedup",
        ],
        op_classes: &[],
        op_class_fields: &[],
    };

    fn fixture_record(at: u64) -> String {
        format!(
            "{{\"schema\": \"fixture-v1\", \"recorded_at_unix\": {at}, \
             \"l\": 128, \"pairs\": 256, \"lanes\": 8, \"rows\": [\
             {{\"measure\": \"DTW\", \"scalar_us_per_pair\": 1.0, \
             \"wavefront_us_per_pair\": 0.5, \"speedup\": 2.0}}]}}"
        )
    }

    fn serve_v1_record(at: u64) -> String {
        let op = "{\"count\": 10, \"qps\": 5.0, \"p50_us\": 1.0, \"p95_us\": 2.0, \"p99_us\": 3.0}";
        let row = format!(
            "{{\"variant\": \"original\", \"base_indexed\": true, \"epoch\": 3, \
             \"compactions\": 1, \"wall_seconds\": 0.5, \"bit_identical\": true, \
             \"verify_queries\": 8, \"query\": {op}, \"upsert\": {op}, \"remove\": {op}}}"
        );
        format!(
            "{{\"schema\": \"serve-bench-v1\", \"recorded_at_unix\": {at}, \"n\": 100, \
             \"dim\": 4, \"k\": 5, \"ops\": 50, \"threads\": 2, \"zipf\": 1.1, \
             \"rows\": [{row}]}}"
        )
    }

    fn serve_v2_record(at: u64) -> String {
        let op = "{\"count\": 10, \"qps\": 5.0, \"p50_us\": 1.0, \"p95_us\": 2.0, \
                  \"p99_us\": 3.0, \"p999_us\": 4.0, \"max_us\": 5.0}";
        let row = format!(
            "{{\"variant\": \"original\", \"base_indexed\": true, \"epoch\": 3, \
             \"compactions\": 1, \"wall_seconds\": 0.5, \"bit_identical\": true, \
             \"verify_queries\": 8, \"query\": {op}, \"upsert\": {op}, \"remove\": {op}}}"
        );
        format!(
            "{{\"schema\": \"serve-bench-v2\", \"recorded_at_unix\": {at}, \"n\": 100, \
             \"dim\": 4, \"k\": 5, \"ops\": 50, \"threads\": 2, \"zipf\": 1.1, \
             \"shards\": 4, \"mode\": \"open\", \"compaction\": \"background\", \
             \"rate\": 2000, \"rows\": [{row}]}}"
        )
    }

    #[test]
    fn valid_ledger_passes() {
        let text = format!("[{}, {}]", fixture_record(100), fixture_record(200));
        let report = validate_text(&text, &[&FIXTURE_SPEC]).expect("valid");
        assert_eq!(
            report,
            LedgerReport {
                records: 2,
                rows: 2,
                first_recorded: 100,
                last_recorded: 200,
            }
        );
    }

    #[test]
    fn drift_is_rejected() {
        // Out-of-order timestamps.
        let text = format!("[{}, {}]", fixture_record(200), fixture_record(100));
        assert!(validate_text(&text, &[&FIXTURE_SPEC])
            .unwrap_err()
            .contains("chronological"));
        // Wrong schema tag.
        let text = format!("[{}]", fixture_record(100)).replace("fixture-v1", "fixture-v2");
        assert!(validate_text(&text, &[&FIXTURE_SPEC])
            .unwrap_err()
            .contains("schema"));
        // A dropped row field.
        let text = format!("[{}]", fixture_record(100)).replace("\"speedup\": 2.0", "\"x\": 2.0");
        assert!(validate_text(&text, &[&FIXTURE_SPEC])
            .unwrap_err()
            .contains("speedup"));
        // Empty array, not JSON, empty rows.
        assert!(validate_text("[]", &[&FIXTURE_SPEC]).is_err());
        assert!(validate_text("not json", &[&FIXTURE_SPEC]).is_err());
        let text = format!("[{}]", fixture_record(100)).replace(
            "\"rows\": [{\"measure\": \"DTW\", \"scalar_us_per_pair\": 1.0, \
             \"wavefront_us_per_pair\": 0.5, \"speedup\": 2.0}]",
            "\"rows\": []",
        );
        assert!(validate_text(&text, &[&FIXTURE_SPEC]).is_err());
    }

    #[test]
    fn serve_spec_checks_op_classes() {
        let text = format!("[{}]", serve_v1_record(9));
        assert!(validate_text(&text, &[&SERVE_SPEC]).is_ok());
        let broken = text.replace(
            "\"p99_us\": 3.0}, \"remove\"",
            "\"p98_us\": 3.0}, \"remove\"",
        );
        assert!(validate_text(&broken, &[&SERVE_SPEC])
            .unwrap_err()
            .contains("p99_us"));
    }

    #[test]
    fn mixed_generation_serve_ledger_validates() {
        // The committed ledger keeps its v1 history and gains v2 records;
        // each record validates against its own generation's contract.
        let text = format!("[{}, {}]", serve_v1_record(100), serve_v2_record(200));
        let report = validate_text(&text, &[&SERVE_SPEC, &SERVE_SPEC_V2]).expect("mixed ok");
        assert_eq!(report.records, 2);
        // v2-only fields are enforced on v2 records...
        let broken = text.replace(
            "\"max_us\": 5.0}, \"remove\"",
            "\"mx_us\": 5.0}, \"remove\"",
        );
        assert!(validate_text(&broken, &[&SERVE_SPEC, &SERVE_SPEC_V2])
            .unwrap_err()
            .contains("max_us"));
        // ...and a v2 record alone fails a v1-only set (wrong schema).
        let v2_only = format!("[{}]", serve_v2_record(50));
        assert!(validate_text(&v2_only, &[&SERVE_SPEC])
            .unwrap_err()
            .contains("allowed set"));
        // Timestamps stay monotone across generations.
        let unordered = format!("[{}, {}]", serve_v2_record(200), serve_v1_record(100));
        assert!(validate_text(&unordered, &[&SERVE_SPEC, &SERVE_SPEC_V2])
            .unwrap_err()
            .contains("chronological"));
    }

    #[test]
    fn family_lookup_by_schema() {
        let family = family_for("serve-bench-v1").expect("serve family");
        let schemas: Vec<&str> = family.iter().map(|spec| spec.schema).collect();
        assert_eq!(schemas, ["serve-bench-v1", "serve-bench-v2"]);
        assert!(family_for("serve-bench-v2").is_some());
        assert!(family_for("kernel-bench-v1").is_none());
        assert!(family_for("unknown-v1").is_none());
    }
}
