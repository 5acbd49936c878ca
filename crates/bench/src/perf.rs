//! The append-only JSON ledger that `serve_bench` writes its records to.

use serde::Value;
use std::io::ErrorKind;
use std::path::Path;
use traj_core::codec::write_atomic;

/// Splices `record` (a JSON object) into the JSON array at `path`,
/// creating the file as `[record]` when absent. String-level append: the
/// artifact stays human-diffable and we avoid needing `Deserialize` for
/// the history. The result is published with `write_atomic`, so a crash
/// mid-append leaves the old ledger in place.
///
/// # Panics
///
/// If `path` exists but cannot be read, if its body is not a JSON array
/// (a ledger cut short, say), or if the write fails. A ledger that
/// cannot be appended to is left as it is, never replaced.
pub fn append_record(path: &str, record: &str) {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => String::from("[]"),
        Err(e) => panic!("read {path}: {e}"),
    };
    if !matches!(Value::parse(&existing), Ok(Value::Arr(_))) {
        panic!("{path}: not a JSON array; left as it is");
    }
    let head = existing
        .trim_end()
        .strip_suffix(']')
        .expect("a JSON array ends in `]`")
        .trim_end();
    let out = if head.ends_with('[') {
        format!("[\n{record}\n]\n")
    } else {
        format!("{head},\n{record}\n]\n")
    };
    write_atomic(Path::new(path), out.as_bytes()).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger_path(tag: &str) -> String {
        let name = format!("lh-ledger-{tag}-{}.json", std::process::id());
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn append_record_grows_a_valid_array() {
        let path = ledger_path("grow");
        let _ = std::fs::remove_file(&path);
        append_record(&path, "  {\"a\": 1}");
        append_record(&path, "  {\"b\": 2}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"), "got: {text}");
        assert!(text.trim_end().ends_with(']'), "got: {text}");
        assert!(text.contains("\"a\"") && text.contains("\"b\""));
        assert_eq!(text.matches('{').count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_bad_ledger_is_never_overwritten() {
        // A ledger cut short mid-write, and a body that is not an array.
        for (tag, body) in [("cut", "[\n  {\"a\": 1},"), ("object", "{\"a\": 1}\n")] {
            let path = ledger_path(tag);
            std::fs::write(&path, body).unwrap();
            let appended =
                std::panic::catch_unwind(|| append_record(&path, "  {\"b\": 2}")).unwrap_err();
            let message = appended
                .downcast_ref::<String>()
                .expect("a formatted panic");
            assert!(message.contains(&path), "{tag}: {message}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), body, "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }
}
