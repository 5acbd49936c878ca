//! Persistent binary checkpoints for ground-truth distance matrices.
//!
//! Re-running an experiment recomputes the exact same `Dist*(T_i, T_j)`
//! matrix from scratch — the dominant CPU cost of every run. This module
//! persists finished matrices to disk keyed by a fingerprint of
//! (dataset, measure parameters, matrix kind, format version) so re-runs
//! load in milliseconds instead.
//!
//! A checkpoint is one `traj_core::codec` frame of [`FORMAT`] (`LHGM`,
//! version 2) — magic, version, body length and body checksum — whose
//! body is, little-endian:
//!
//! ```text
//! u64 fingerprint | u64 rows | u64 cols | rows·cols × f64 (row-major)
//! ```
//!
//! Any other version is `UnsupportedVersion`; the fingerprint hashes the
//! format version too, so a file of another version sits under a name no
//! build asks for.
//!
//! A checkpoint that fails its frame (truncated, or any flipped bit), its
//! fingerprint or its shape returns a [`CacheError`] instead of loading
//! as data; the builder treats it as a miss and rebuilds. Writes go
//! through `traj_core::codec::write_atomic`, so a crashed run never
//! leaves a half-written checkpoint under the final name, and concurrent
//! builders racing on one fingerprint each rename a complete file into
//! place (the staging sibling is unique per process).

use super::DistanceMatrix;
use std::path::{Path, PathBuf};
use traj_core::codec::{write_atomic, DecodeError, Format};

/// The checkpoint format: `LHGM`, version 2.
pub const FORMAT: Format = Format {
    magic: *b"LHGM",
    version: 2,
};

/// Why a matrix checkpoint failed to load.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem error (missing file, permissions, short write, …).
    Io(std::io::Error),
    /// The file is not an intact checkpoint: a bad frame (magic, version,
    /// length, checksum) or a body that contradicts itself.
    Decode(DecodeError),
    /// The stored fingerprint does not match the requested inputs — the
    /// checkpoint belongs to a different dataset/measure/pruning config.
    FingerprintMismatch {
        /// Fingerprint of the inputs being requested.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "matrix cache I/O error: {e}"),
            CacheError::Decode(e) => write!(f, "corrupt matrix checkpoint: {e}"),
            CacheError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match requested {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Decode(e) => Some(e),
            CacheError::FingerprintMismatch { .. } => None,
        }
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl From<DecodeError> for CacheError {
    fn from(e: DecodeError) -> Self {
        CacheError::Decode(e)
    }
}

/// Canonical checkpoint path for a fingerprint inside a cache directory.
pub fn cache_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("gt-{fingerprint:016x}.lhgm"))
}

/// Loads a checkpoint, validating its frame, fingerprint, and exact
/// payload length before materializing the matrix.
pub fn load(path: &Path, fingerprint: u64) -> Result<DistanceMatrix, CacheError> {
    decode(&std::fs::read(path)?, fingerprint)
}

fn decode(bytes: &[u8], fingerprint: u64) -> Result<DistanceMatrix, CacheError> {
    let mut body = FORMAT.unframe(bytes)?;
    let found = body.u64("fingerprint")?;
    if found != fingerprint {
        return Err(CacheError::FingerprintMismatch {
            expected: fingerprint,
            found,
        });
    }
    let rows = body.count("rows")?;
    let cols = body.count("cols")?;
    let entries = rows
        .checked_mul(cols)
        .ok_or(DecodeError::HeaderOverflow { field: "shape" })?;
    let data = body.values("matrix data", entries, f64::from_le_bytes)?;
    body.finish()?;
    Ok(DistanceMatrix::from_raw(rows, cols, data))
}

fn encode(fingerprint: u64, matrix: &DistanceMatrix) -> Vec<u8> {
    let mut w = FORMAT.writer();
    w.reserve(24 + matrix.data().len() * 8);
    w.u64(fingerprint);
    w.u64(matrix.rows() as u64);
    w.u64(matrix.cols() as u64);
    w.values(matrix.data(), f64::to_le_bytes);
    FORMAT.finish(w)
}

/// Writes a checkpoint atomically under `path`, creating parent
/// directories as needed.
pub fn store(path: &Path, fingerprint: u64, matrix: &DistanceMatrix) -> Result<(), CacheError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    write_atomic(path, &encode(fingerprint, matrix))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DistanceMatrix {
        DistanceMatrix::from_raw(2, 3, vec![0.0, 1.5, 2.5, 3.5, 4.5, 5.5])
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lhgm-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let dir = tmp_dir("roundtrip");
        let path = cache_path(&dir, 0xdead_beef);
        let m = sample();
        store(&path, 0xdead_beef, &m).unwrap();
        let back = load(&path, 0xdead_beef).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.cols(), 3);
        let bits = |m: &DistanceMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/gt.lhgm"), 1).unwrap_err();
        assert!(matches!(err, CacheError::Io(_)));
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let err = decode(&encode(7, &sample()), 8).unwrap_err();
        assert!(matches!(
            err,
            CacheError::FingerprintMismatch {
                expected: 8,
                found: 7
            }
        ));
    }

    /// Every truncation and every single-bit flip is a typed error — a
    /// flipped distance bit no longer loads as data.
    #[test]
    fn every_truncation_and_bit_flip_errors() {
        let full = encode(3, &sample());
        assert_eq!(full.len(), 24 + 24 + 6 * 8);
        for cut in 0..full.len() {
            let err = decode(&full[..cut], 3).unwrap_err();
            assert!(matches!(err, CacheError::Decode(_)), "cut at {cut}: {err}");
        }
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut bad = full.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode(&bad, 3).is_err(), "flip {byte}.{bit}");
            }
        }
        assert!(decode(&full, 3).is_ok());
    }

    /// A body that passes its checksum is still read field by field:
    /// each truncation, single-bit flip and one-byte extension of a body,
    /// re-framed with a valid checksum, is a typed error or a matrix that
    /// re-encodes to the same bytes — never a panic.
    #[test]
    fn forged_checksummed_bodies_error_or_decode() {
        let full = encode(3, &sample());
        let body = &full[24..];
        let cuts = (0..body.len()).map(|cut| body[..cut].to_vec());
        let flips = (0..body.len() * 8).map(|i| {
            let mut bad = body.to_vec();
            bad[i / 8] ^= 1 << (i % 8);
            bad
        });
        for bad in cuts
            .chain(flips)
            .chain(std::iter::once([body, &[0]].concat()))
        {
            let mut w = FORMAT.writer();
            w.values(&bad, u8::to_le_bytes);
            let file = FORMAT.finish(w);
            if let Ok(m) = decode(&file, 3) {
                assert_eq!(encode(3, &m), file);
            }
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_bytes_rejected() {
        let full = encode(3, &sample());
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode(&bad_magic, 3),
            Err(CacheError::Decode(DecodeError::BadMagic(_)))
        ));
        let mut v1 = full.clone();
        v1[4] = 1;
        assert!(matches!(
            decode(&v1, 3),
            Err(CacheError::Decode(DecodeError::UnsupportedVersion(1)))
        ));
        let mut trailing = full;
        trailing.push(0);
        assert!(matches!(
            decode(&trailing, 3),
            Err(CacheError::Decode(DecodeError::TrailingBytes(1)))
        ));
    }

    #[test]
    fn overflowing_shape_rejected() {
        // rows = cols = 2^62: the product wraps if unchecked, which would
        // bypass the length check and panic in from_raw.
        let mut w = FORMAT.writer();
        w.u64(5);
        w.u64(1 << 62);
        w.u64(1 << 62);
        assert!(matches!(
            decode(&FORMAT.finish(w), 5),
            Err(CacheError::Decode(DecodeError::HeaderOverflow { .. }))
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = CacheError::Decode(DecodeError::Truncated {
            field: "matrix data",
            needed: 40,
            remaining: 8,
        });
        assert!(err.to_string().contains("40"));
        assert!(CacheError::FingerprintMismatch {
            expected: 0xab,
            found: 0xcd
        }
        .to_string()
        .contains("ab"));
    }
}
