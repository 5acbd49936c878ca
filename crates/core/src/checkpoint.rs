//! Model checkpointing: persist the parameter store plus plugin
//! configuration so trained models survive process restarts — the
//! pre-embedding deployment mode of §VI-D assumes exactly this.

use crate::config::PluginConfig;
use lh_nn::ParamStore;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use traj_core::codec::write_atomic;

/// A serializable training checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The plugin configuration the parameters were trained under.
    pub plugin: PluginConfig,
    /// Ground-truth normalization scale fitted by the trainer.
    pub scale: f64,
    /// Base-encoder name (sanity check on reload).
    pub encoder: String,
    /// All learned parameters.
    pub params: ParamStore,
}

impl Checkpoint {
    /// Current format version.
    pub const VERSION: u32 = 1;

    /// Creates a checkpoint from parts.
    pub fn new(
        plugin: PluginConfig,
        scale: f64,
        encoder: impl Into<String>,
        params: ParamStore,
    ) -> Self {
        Checkpoint {
            version: Self::VERSION,
            plugin,
            scale,
            encoder: encoder.into(),
            params,
        }
    }

    /// Writes the checkpoint as JSON, atomically: a crash mid-save
    /// leaves the previous checkpoint, never a truncated one.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string(self).map_err(io::Error::other)?;
        write_atomic(path, json.as_bytes())
    }

    /// Loads and validates a checkpoint.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let ck: Checkpoint = serde_json::from_str(&json).map_err(io::Error::other)?;
        if ck.version != Self::VERSION {
            return Err(io::Error::other(format!(
                "unsupported checkpoint version {} (expected {})",
                ck.version,
                Self::VERSION
            )));
        }
        if !ck.params.all_finite() {
            return Err(io::Error::other(
                "checkpoint contains non-finite parameters",
            ));
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lh_nn::Tensor;

    fn sample() -> Checkpoint {
        let mut params = ParamStore::new();
        params.insert("w", Tensor::from_vec(1, 3, vec![0.5, -1.0, 2.0]));
        Checkpoint::new(PluginConfig::paper_default(), 3.25, "neutraj", params)
    }

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("lh-core-ckpt-test");
        let path = dir.join("model.json");
        let ck = sample();
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.scale, 3.25);
        assert_eq!(back.encoder, "neutraj");
        assert_eq!(back.params.get("w").data(), ck.params.get("w").data());
        assert_eq!(back.plugin, ck.plugin);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_version() {
        let dir = std::env::temp_dir().join("lh-core-ckpt-ver");
        let path = dir.join("model.json");
        let mut ck = sample();
        ck.version = 999;
        ck.save(&path).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_non_finite_params() {
        let dir = std::env::temp_dir().join("lh-core-ckpt-nan");
        let path = dir.join("model.json");
        let mut ck = sample();
        ck.params.get_mut("w").set(0, 0, f32::NAN);
        ck.save(&path).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_file_fails() {
        assert!(Checkpoint::load(Path::new("/nonexistent/ck.json")).is_err());
    }
}
