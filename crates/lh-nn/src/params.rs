//! Persistent named parameter storage.
//!
//! Tapes are per-batch and throwaway; parameters live here between batches.
//! A `BTreeMap` keeps iteration deterministic, which keeps whole training
//! runs reproducible under a fixed seed.

use crate::tensor::Tensor;
use std::collections::BTreeMap;

/// Named parameter tensors.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    map: BTreeMap<String, Tensor>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        ParamStore::default()
    }

    /// Inserts (or replaces) a parameter.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        self.map.insert(name.into(), value);
    }

    /// Gets a parameter; panics on unknown names (a wiring bug, not a
    /// runtime condition).
    pub fn get(&self, name: &str) -> &Tensor {
        self.map
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter `{name}`"))
    }

    /// Mutable access for optimizer updates.
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        self.map
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown parameter `{name}`"))
    }

    /// Whether a parameter exists.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Registers a parameter only if absent, using `init` to build it.
    pub fn get_or_insert_with(&mut self, name: &str, init: impl FnOnce() -> Tensor) -> &Tensor {
        self.map.entry(name.to_string()).or_insert_with(init)
    }

    /// Deterministically ordered parameter names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(|s| s.as_str())
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when every parameter is finite (training-health check).
    pub fn all_finite(&self) -> bool {
        self.map.values().all(|t| t.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut s = ParamStore::new();
        s.insert("w", Tensor::scalar(1.5));
        assert_eq!(s.get("w").item(), 1.5);
        assert!(s.contains("w"));
        assert!(!s.contains("b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown parameter `nope`")]
    fn unknown_name_panics() {
        let s = ParamStore::new();
        let _ = s.get("nope");
    }

    #[test]
    fn get_or_insert_runs_once() {
        let mut s = ParamStore::new();
        s.get_or_insert_with("w", || Tensor::scalar(1.0));
        s.get_or_insert_with("w", || panic!("must not re-init"));
        assert_eq!(s.get("w").item(), 1.0);
    }

    #[test]
    fn names_sorted_and_counts() {
        let mut s = ParamStore::new();
        s.insert("b", Tensor::zeros(2, 2));
        s.insert("a", Tensor::zeros(1, 3));
        let names: Vec<&str> = s.names().collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn finite_check() {
        let mut s = ParamStore::new();
        s.insert("w", Tensor::scalar(1.0));
        assert!(s.all_finite());
        s.get_mut("w").set(0, 0, f32::INFINITY);
        assert!(!s.all_finite());
    }
}
