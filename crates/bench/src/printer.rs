//! Table/series printing and JSON artifact output.

use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Prints an experiment banner.
pub fn print_header(id: &str, description: &str) {
    println!("================================================================");
    println!("{id} — {description}");
    println!("================================================================");
}

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..ncol {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[c]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * ncol;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes a JSON artifact under `target/experiments/<name>.json` and
/// returns the path.
pub fn write_artifact<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, json).expect("write artifact");
    path
}

/// Percentage formatting helper (`0.531 → "53.1"`).
pub fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// Signed percentage-increase helper matching the paper's `%Increase`
/// rows.
pub fn pct_increase(original: f64, improved: f64) -> String {
    if original.abs() < 1e-12 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (improved - original) / original * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["model", "HR@10"]);
        t.row(vec!["neutraj".into(), "53.5".into()]);
        t.row(vec!["x".into(), "7".into()]);
        let r = t.render();
        assert!(r.contains("model"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    /// Every field shape the binaries' artifacts hold, pretty-printed:
    /// the artifact bytes must not move when the JSON layer changes.
    #[test]
    fn artifact_encoding_is_pinned() {
        #[derive(Serialize)]
        struct Shapes {
            label: String,
            integral: f64,
            fractional: f64,
            pos_inf: f64,
            neg_inf: f64,
            nan: f64,
            ratio: f32,
            count: usize,
            absent: Option<f64>,
            present: Option<f64>,
            cells: Option<usize>,
            series: Vec<f64>,
            range: (f64, f64),
            spread: [f32; 3],
            eval: lh_metrics::RankingEval,
        }
        let shapes = Shapes {
            label: "a \"b\"\nc".into(),
            integral: 3.0,
            fractional: -0.125,
            pos_inf: f64::INFINITY,
            neg_inf: f64::NEG_INFINITY,
            nan: f64::NAN,
            ratio: 0.1,
            count: 42,
            absent: None,
            present: Some(0.75),
            cells: Some(7),
            series: vec![1.0, 2.5, 1e-7],
            range: (-1.0, 1.0),
            spread: [0.5, 1.25, -2.0],
            eval: lh_metrics::RankingEval {
                hr5: 0.2,
                hr10: 0.5,
                hr50: 1.0,
                ndcg10: 0.6309297535714575,
                ndcg50: 0.0,
                queries: 10,
            },
        };
        let expected = r#"{
  "label": "a \"b\"\nc",
  "integral": 3.0,
  "fractional": -0.125,
  "pos_inf": Infinity,
  "neg_inf": -Infinity,
  "nan": NaN,
  "ratio": 0.10000000149011612,
  "count": 42,
  "absent": null,
  "present": 0.75,
  "cells": 7,
  "series": [
    1.0,
    2.5,
    0.0000001
  ],
  "range": [
    -1.0,
    1.0
  ],
  "spread": [
    0.5,
    1.25,
    -2.0
  ],
  "eval": {
    "hr5": 0.2,
    "hr10": 0.5,
    "hr50": 1.0,
    "ndcg10": 0.6309297535714575,
    "ndcg50": 0.0,
    "queries": 10
  }
}"#;
        assert_eq!(serde_json::to_string_pretty(&shapes).unwrap(), expected);
    }

    #[test]
    fn pct_helpers() {
        assert_eq!(pct(0.5354), "53.5");
        assert_eq!(pct_increase(0.5, 0.6), "+20.0%");
        assert_eq!(pct_increase(0.0, 0.6), "n/a");
    }
}
