//! Minimal `--key value` CLI parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command-line overrides.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs from `std::env::args()`. Unknown keys
    /// are kept (binaries validate what they use); bare flags get `"true"`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args(iter: impl IntoIterator<Item = String>) -> Self {
        let mut map = BTreeMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                map.insert(key.to_string(), value);
            }
        }
        Args { map }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Raw string lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|s| s.as_str())
    }

    /// Whether a flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_args(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args(&["--n", "200", "--fast", "--seed", "7"]);
        assert_eq!(a.get("n", 0usize), 200);
        assert_eq!(a.get("seed", 0u64), 7);
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
    }

    #[test]
    fn defaults_apply() {
        let a = args(&[]);
        assert_eq!(a.get("epochs", 12usize), 12);
        assert!(a.get_str("preset").is_none());
    }

    #[test]
    fn bad_parse_falls_back() {
        let a = args(&["--n", "not-a-number"]);
        assert_eq!(a.get("n", 5usize), 5);
    }
}
