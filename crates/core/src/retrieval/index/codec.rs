//! Binary (de)serialization of a built [`IndexedStore`].
//!
//! Wire layout (all little-endian), following the `retrieval::codec`
//! conventions — validate before every read, cross-check structure after:
//!
//! ```text
//! u32 magic "LHIX" | u32 version (= 3)
//! u64 store_len    | store payload    (EmbeddingStore::to_bytes)
//! u64 centroid_len | centroid payload (EmbeddingStore::to_bytes)
//! u64 n_cells
//! per cell: u64 m | m × u32 members | m × f64 dcx
//!           | m × f64 dcx_lo             (version ≥ 3, mix space only)
//! u64 k_landmarks                                   (version ≥ 2)
//! if k > 0: u64 lm_len | landmark payload | n·k × f64 dlx
//! ```
//!
//! Version 2 appended the second-level landmark block
//! ([`super::LandmarkBlock`]); version-1 payloads (no block) still
//! decode, as an index without landmarks. Version 3 adds the geodesic
//! member distances of a [`BoundSpace::ConvexMix`] index after each
//! cell's `dcx` — bytes only a certified `fusion-dist` payload carries;
//! every other payload differs from version 2 in the version word alone.
//! Encoding always writes version 3.
//!
//! The bound space is never on the wire: the decoder runs
//! [`BoundSpace::for_store`] on the decoded store, so the factor
//! certification a mix-space prune rests on is *observed* on the rows
//! that will be served, and whether `dcx_lo` arrays follow is a function
//! of the same rows on both sides. A version-1/2 `fusion-dist` payload
//! carries the fused-kernel `dcx` no bound ever read; when its store
//! certifies, both mix arrays are recomputed with the builder's
//! [`mix_cell`], so the decoded index equals a fresh build.
//!
//! Cell radii are *recomputed* from the decoded `dcx` arrays rather than
//! persisted — one derived quantity fewer to corrupt, and the recompute is
//! the builder's own, so a roundtripped index answers queries
//! bit-identically to the one that was encoded. The probe budget is
//! serving configuration, not index state, and is not persisted.
//!
//! Structural validation on decode: magic and version, nested store
//! payloads (delegated to [`EmbeddingStore::from_bytes`]), centroid
//! row-count/layout consistency with the header, every member id in
//! range, no duplicate members, full coverage (the cells partition
//! exactly the store's rows), and landmark-block consistency (layout
//! matches the store, row count matches the header, `n·k` features, and
//! no block outside a metric space — a bound the probe path could never
//! admissibly use). Truncated or corrupt payloads return a
//! [`StoreDecodeError`], never panic.

use super::super::codec::StoreDecodeError;
use super::super::codec_util::{guard, take_chunk, take_f64_values, take_u32_values, take_u64};
use super::super::store::EmbeddingStore;
use super::bound::BoundSpace;
use super::build::mix_cell;
use super::{IndexCell, IndexedStore, LandmarkBlock};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// `LHIX` in little-endian byte order.
const MAGIC: u32 = u32::from_le_bytes(*b"LHIX");
const VERSION: u32 = 3;
/// First layout with the landmark trailer.
const VERSION_LANDMARKS: u32 = 2;
/// Oldest layout still accepted on decode (no landmark trailer).
const VERSION_MIN: u32 = 1;

/// Reads a nested length-prefixed [`EmbeddingStore`] payload.
fn take_store(data: &mut Bytes, field: &'static str) -> Result<EmbeddingStore, StoreDecodeError> {
    let len = take_u64(data, field)? as usize;
    let chunk = take_chunk(data, field, len)?;
    EmbeddingStore::from_bytes(Bytes::from(chunk))
}

impl IndexedStore {
    /// Compact binary serialization of the store plus its index.
    pub fn to_bytes(&self) -> Bytes {
        let store_payload = self.store.to_bytes();
        let centroid_payload = self.centroids.to_bytes();
        let cell_bytes: usize = self
            .cells
            .iter()
            .map(|c| 8 + c.members.len() * 4 + (c.dcx.len() + c.dcx_lo.len()) * 8)
            .sum();
        let landmark_payload = self.landmarks.as_ref().map(|lm| lm.rows.to_bytes());
        let landmark_bytes = 8
            + landmark_payload.as_ref().map_or(0, |p| 8 + p.len())
            + self.landmarks.as_ref().map_or(0, |lm| lm.dlx.len() * 8);
        let mut buf = BytesMut::with_capacity(
            32 + store_payload.len() + centroid_payload.len() + cell_bytes + landmark_bytes,
        );
        buf.put_u32_le(MAGIC);
        buf.put_u32_le(VERSION);
        for payload in [&store_payload, &centroid_payload] {
            buf.put_u64_le(payload.len() as u64);
            buf.put_slice(payload.as_slice());
        }
        buf.put_u64_le(self.cells.len() as u64);
        for cell in &self.cells {
            buf.put_u64_le(cell.members.len() as u64);
            for &m in &cell.members {
                buf.put_u32_le(m);
            }
            // `dcx_lo` is empty outside the mix space.
            for &d in cell.dcx.iter().chain(&cell.dcx_lo) {
                buf.put_f64_le(d);
            }
        }
        match (&self.landmarks, landmark_payload) {
            (Some(lm), Some(payload)) => {
                buf.put_u64_le(lm.k() as u64);
                buf.put_u64_le(payload.len() as u64);
                buf.put_slice(payload.as_slice());
                for &d in &lm.dlx {
                    buf.put_f64_le(d);
                }
            }
            _ => buf.put_u64_le(0),
        }
        buf.freeze()
    }

    /// Inverse of [`IndexedStore::to_bytes`]. Truncated or structurally
    /// inconsistent payloads return a [`StoreDecodeError`].
    pub fn from_bytes(mut data: Bytes) -> Result<Self, StoreDecodeError> {
        guard(&data, "index magic", 4)?;
        let magic = data.get_u32_le();
        if magic != MAGIC {
            return Err(StoreDecodeError::BadMagic(magic));
        }
        guard(&data, "index version", 4)?;
        let version = data.get_u32_le();
        if !(VERSION_MIN..=VERSION).contains(&version) {
            return Err(StoreDecodeError::UnsupportedVersion(version));
        }
        let store = take_store(&mut data, "index store")?;
        let space = BoundSpace::for_store(&store);
        let centroids = take_store(&mut data, "index centroids")?;
        let n_cells = take_u64(&mut data, "n_cells")? as usize;

        if centroids.len() != n_cells {
            return Err(StoreDecodeError::Inconsistent {
                field: "n_cells",
                expected: n_cells,
                actual: centroids.len(),
            });
        }
        // Centroids must share the store's layout: the query path binds
        // the same kernels against both.
        if centroids.variant() != store.variant()
            || centroids.dim() != store.dim()
            || centroids.beta().to_bits() != store.beta().to_bits()
            || centroids.factor_dim() != store.factor_dim()
        {
            return Err(StoreDecodeError::Inconsistent {
                field: "centroid layout",
                expected: store.dim(),
                actual: centroids.dim(),
            });
        }

        let n = store.len();
        let mut seen = vec![false; n];
        let mut total = 0usize;
        let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
        for j in 0..n_cells {
            let m = take_u64(&mut data, "cell members")? as usize;
            let members = take_u32_values(&mut data, "cell members", m)?;
            let dcx = take_f64_values(&mut data, "cell dcx", m)?;
            for &member in &members {
                let mi = member as usize;
                if mi >= n {
                    return Err(StoreDecodeError::Inconsistent {
                        field: "cell member id",
                        expected: n,
                        actual: mi,
                    });
                }
                if seen[mi] {
                    return Err(StoreDecodeError::Inconsistent {
                        field: "duplicate cell member",
                        expected: 1,
                        actual: 2,
                    });
                }
                seen[mi] = true;
            }
            total += members.len();
            cells.push(match space {
                BoundSpace::ConvexMix { .. } if version >= VERSION => {
                    let dcx_lo = take_f64_values(&mut data, "cell dcx_lo", m)?;
                    IndexCell::mix(members, dcx, dcx_lo)
                }
                BoundSpace::ConvexMix { beta } => mix_cell(&store, &centroids, beta, j, members),
                _ => IndexCell::new(members, dcx),
            });
        }
        if total != n {
            return Err(StoreDecodeError::Inconsistent {
                field: "cell member total",
                expected: n,
                actual: total,
            });
        }
        let landmarks = if version >= VERSION_LANDMARKS {
            let k = take_u64(&mut data, "landmark count")? as usize;
            if k == 0 {
                None
            } else {
                if !space.is_metric() {
                    return Err(StoreDecodeError::Inconsistent {
                        field: "landmark block on non-metric variant",
                        expected: 0,
                        actual: k,
                    });
                }
                let rows = take_store(&mut data, "landmark rows")?;
                if rows.len() != k {
                    return Err(StoreDecodeError::Inconsistent {
                        field: "landmark count",
                        expected: k,
                        actual: rows.len(),
                    });
                }
                if rows.variant() != store.variant()
                    || rows.dim() != store.dim()
                    || rows.beta().to_bits() != store.beta().to_bits()
                    || rows.factor_dim() != store.factor_dim()
                {
                    return Err(StoreDecodeError::Inconsistent {
                        field: "landmark layout",
                        expected: store.dim(),
                        actual: rows.dim(),
                    });
                }
                let count = n.checked_mul(k).ok_or(StoreDecodeError::HeaderOverflow {
                    field: "landmark features",
                })?;
                let dlx = take_f64_values(&mut data, "landmark features", count)?;
                Some(LandmarkBlock { rows, dlx })
            }
        } else {
            None
        };
        if !data.is_empty() {
            return Err(StoreDecodeError::TrailingBytes(data.remaining()));
        }
        Ok(IndexedStore::from_parts(
            store, centroids, cells, landmarks, space,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::store::tests::store_with_rows;
    use super::super::super::store::RetrievalResult;
    use super::super::build::IndexParams;
    use super::*;
    use crate::config::PluginVariant;

    fn built(variant: PluginVariant, cells: usize) -> IndexedStore {
        IndexedStore::build(
            store_with_rows(variant),
            IndexParams {
                n_cells: Some(cells),
                ..IndexParams::default()
            },
        )
    }

    /// [`IndexedStore::from_parts`] in the store's own bound space — the
    /// forged parts below are structurally corrupt, not mis-spaced.
    fn from_parts(
        store: EmbeddingStore,
        centroids: EmbeddingStore,
        cells: Vec<IndexCell>,
        landmarks: Option<LandmarkBlock>,
    ) -> IndexedStore {
        let space = BoundSpace::for_store(&store);
        IndexedStore::from_parts(store, centroids, cells, landmarks, space)
    }

    fn bits(hits: &[RetrievalResult]) -> Vec<(usize, u32)> {
        hits.iter()
            .map(|h| (h.index, h.distance.to_bits()))
            .collect()
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        for variant in PluginVariant::ABLATION {
            for cells in 1..=3 {
                let ix = built(variant, cells);
                let back = IndexedStore::from_bytes(ix.to_bytes()).expect("valid index payload");
                assert_eq!(back, ix, "{} cells={cells}", variant.name());
                let q = store_with_rows(variant);
                for qi in 0..q.len() {
                    assert_eq!(
                        bits(&back.knn(&q, qi, 3)),
                        bits(&ix.knn(&q, qi, 3)),
                        "{} cells={cells} qi={qi}",
                        variant.name()
                    );
                }
            }
        }
    }

    #[test]
    fn empty_index_roundtrips() {
        let s = EmbeddingStore::new(4, PluginVariant::Original, 1.0, None);
        let ix = IndexedStore::with_default_params(s);
        let back = IndexedStore::from_bytes(ix.to_bytes()).expect("valid empty index");
        assert_eq!(back, ix);
        assert_eq!(back.num_cells(), 0);
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        // Fused (version-3 second pivot array, k_landmarks = 0 trailer)
        // and Euclidean (full landmark block) exercise both layouts.
        for variant in [PluginVariant::FusionDist, PluginVariant::Original] {
            let ix = built(variant, 2);
            let full = ix.to_bytes().to_vec();
            for cut in 0..full.len() {
                let err = IndexedStore::from_bytes(Bytes::from(full[..cut].to_vec()));
                assert!(err.is_err(), "cut at {cut} of {} must error", full.len());
            }
            assert!(IndexedStore::from_bytes(Bytes::from(full)).is_ok());
        }
    }

    #[test]
    fn bad_magic_errors() {
        let mut raw = built(PluginVariant::Original, 2).to_bytes().to_vec();
        raw[0] ^= 0xFF;
        let err = IndexedStore::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, StoreDecodeError::BadMagic(_)), "got {err:?}");
    }

    #[test]
    fn unsupported_version_errors() {
        let mut raw = built(PluginVariant::Original, 2).to_bytes().to_vec();
        raw[4] = 99;
        assert_eq!(
            IndexedStore::from_bytes(Bytes::from(raw)),
            Err(StoreDecodeError::UnsupportedVersion(99))
        );
    }

    /// A version-1 payload (no landmark trailer) still decodes, as an
    /// index without the second-level bound — and answers identically to
    /// a landmark-free build.
    #[test]
    fn v1_payload_decodes_without_landmarks() {
        let ix = IndexedStore::build(
            store_with_rows(PluginVariant::Original),
            IndexParams {
                n_cells: Some(2),
                n_landmarks: 0,
                ..IndexParams::default()
            },
        );
        let mut raw = ix.to_bytes().to_vec();
        raw[4] = 1; // version 3 → 1: same bytes outside the mix space
        raw.truncate(raw.len() - 8); // drop the k_landmarks = 0 trailer
        let back = IndexedStore::from_bytes(Bytes::from(raw)).expect("v1 payload");
        assert_eq!(back, ix);
        assert_eq!(back.num_landmarks(), 0);
    }

    /// `built(FusionDist, 2).to_bytes()` as written by the last version-2
    /// encoder (the commit before the mix space): one `dcx` array per
    /// cell, holding fused-kernel distances no bound ever read.
    const V2_FUSED_FIXTURE: &str = "\
        4c48495802000000a10000000000000003000000000000000200000000000000\
        030000803f020000000000000006000000000000000000000000000000000080\
        3f00000000000000000000404009000000000000000000803f00000000000000\
        00d504b53f0000803f00000000cc624a4000000000000040400c000000000000\
        000000803f0000803f0000803f0000803f000000400000803f0000003f000000\
        3f0000003f0000003f00000040000000407d0000000000000002000000000000\
        000200000000000000030000803f020000000000000004000000000000000000\
        0000000040400000003f000000000600000000000000c2624a40000000000000\
        4040bd1b8f3f0000003f0000000008000000000000000000003f0000003f0000\
        0040000000400000c03f0000803f0000403f0000403f02000000000000000100\
        00000000000002000000000000201e1e9e3e0200000000000000000000000100\
        000000000000abb8d03f00000000cad9c23f0000000000000000\
    ";

    /// A version-2 `fusion-dist` payload decodes into the mix space: both
    /// pivot arrays are recomputed from the decoded rows, so the index
    /// equals a fresh build and answers bit-identically to the flat scan.
    #[test]
    fn v2_fused_payload_decodes_to_a_fresh_build() {
        let raw: Vec<u8> = (0..V2_FUSED_FIXTURE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&V2_FUSED_FIXTURE[i..i + 2], 16).expect("hex fixture"))
            .collect();
        assert_eq!(raw[4], 2, "fixture is a version-2 payload");
        let back = IndexedStore::from_bytes(Bytes::from(raw.clone())).expect("v2 payload");
        let fresh = built(PluginVariant::FusionDist, 2);
        assert_eq!(back, fresh);
        assert_eq!(back.bound_space(), BoundSpace::ConvexMix { beta: 1.0 });
        let q = store_with_rows(PluginVariant::FusionDist);
        for qi in 0..q.len() {
            assert_eq!(bits(&back.knn(&q, qi, 3)), bits(&q.knn(&q, qi, 3)));
        }
        // Re-encoding upgrades: version 3 carries the second array.
        let v3 = back.to_bytes().to_vec();
        assert_eq!(v3[4], 3);
        assert_eq!(v3.len(), raw.len() + 8 * q.len());
        // The same rows with the version word flipped to 1 and the
        // landmark trailer dropped are a version-1 payload.
        let mut v1 = raw;
        v1[4] = 1;
        v1.truncate(v1.len() - 8);
        assert_eq!(IndexedStore::from_bytes(Bytes::from(v1)), Ok(fresh));
    }

    /// The space is observed on decode, never read: a version-3 payload
    /// whose store fails certification has no second array to read, and
    /// one forged to claim it (mix layout around a bad factor) is
    /// rejected as malformed rather than served with an unproven bound.
    #[test]
    fn uncertified_fused_payload_decodes_without_a_bound() {
        let mut store = store_with_rows(PluginVariant::FusionDist);
        store.factors[1] = -1.0;
        let params = IndexParams {
            n_cells: Some(2),
            ..IndexParams::default()
        };
        let ix = IndexedStore::build(store.clone(), params);
        assert_eq!(ix.bound_space(), BoundSpace::None);
        let back = IndexedStore::from_bytes(ix.to_bytes()).expect("valid payload");
        assert_eq!(back, ix);
        assert_eq!(back.bound_space(), BoundSpace::None);

        // Forge: the certified index's cells (two arrays each) around the
        // uncertified rows. The decoder expects one array per cell, so
        // the surplus bytes misalign every later field.
        let good = built(PluginVariant::FusionDist, 2);
        let forged = IndexedStore::from_parts(
            store,
            good.centroids.clone(),
            good.cells.clone(),
            None,
            good.bound_space(),
        );
        assert!(IndexedStore::from_bytes(forged.to_bytes()).is_err());
    }

    #[test]
    fn corrupt_landmark_structures_error() {
        // A landmark block on the fused variant, whose space is not a
        // metric: the reverse triangle inequality is not its bound, so
        // the decoder must reject it. The fused payload
        // ends with the `k_landmarks = 0` trailer; forge a nonzero count.
        let mut raw = built(PluginVariant::FusionDist, 2).to_bytes().to_vec();
        let at = raw.len() - 8;
        raw[at..].copy_from_slice(&1u64.to_le_bytes());
        let err = IndexedStore::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent {
                    field: "landmark block on non-metric variant",
                    ..
                }
            ),
            "got {err:?}"
        );

        let valid = built(PluginVariant::Original, 2);
        let (store, centroids, cells) = (
            valid.store.clone(),
            valid.centroids.clone(),
            valid.cells.clone(),
        );
        let lm = valid.landmarks.clone().expect("metric build has landmarks");

        // Landmark rows whose layout disagrees with the store.
        let wrong_layout = from_parts(
            store.clone(),
            centroids.clone(),
            cells.clone(),
            Some(LandmarkBlock {
                rows: store_with_rows(PluginVariant::LorentzCosh),
                dlx: lm.dlx.clone(),
            }),
        );
        let err = IndexedStore::from_bytes(wrong_layout.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent { .. } | StoreDecodeError::BadVariantTag(_)
            ),
            "got {err:?}"
        );

        // Feature matrix not n × k: the trailer is short (truncation) or
        // long (trailing bytes) — both must error, never mis-slice.
        for cut in [lm.dlx.len() - 1, lm.dlx.len() + 1] {
            let mut dlx = lm.dlx.clone();
            dlx.resize(cut, 0.0);
            let bad = from_parts(
                store.clone(),
                centroids.clone(),
                cells.clone(),
                Some(LandmarkBlock {
                    rows: lm.rows.clone(),
                    dlx,
                }),
            );
            let err = IndexedStore::from_bytes(bad.to_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreDecodeError::Truncated { .. } | StoreDecodeError::TrailingBytes(_)
                ),
                "dlx len {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_cell_structures_error() {
        let store = store_with_rows(PluginVariant::Original);
        let centroids = {
            let mut c = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
            c.push(&[0.0, 0.0], None, None);
            c
        };
        // Member id out of range.
        let out_of_range = from_parts(
            store.clone(),
            centroids.clone(),
            vec![IndexCell::new(vec![0, 1, 99], vec![0.0, 1.0, 2.0])],
            None,
        );
        let err = IndexedStore::from_bytes(out_of_range.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent {
                    field: "cell member id",
                    ..
                }
            ),
            "got {err:?}"
        );
        // Duplicate member across cells.
        let duplicated = from_parts(
            store.clone(),
            centroids.clone(),
            vec![IndexCell::new(vec![0, 1, 1], vec![0.0, 1.0, 1.0])],
            None,
        );
        let err = IndexedStore::from_bytes(duplicated.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent {
                    field: "duplicate cell member",
                    ..
                }
            ),
            "got {err:?}"
        );
        // Cells that do not cover every row.
        let incomplete = from_parts(
            store.clone(),
            centroids.clone(),
            vec![IndexCell::new(vec![0, 2], vec![0.0, 1.0])],
            None,
        );
        let err = IndexedStore::from_bytes(incomplete.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent {
                    field: "cell member total",
                    ..
                }
            ),
            "got {err:?}"
        );
        // Centroid layout disagreeing with the store.
        let wrong_layout = from_parts(
            store,
            store_with_rows(PluginVariant::LorentzCosh),
            vec![IndexCell::new(vec![0, 1, 2], vec![0.0, 1.0, 2.0])],
            None,
        );
        let err = IndexedStore::from_bytes(wrong_layout.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreDecodeError::Inconsistent { .. } | StoreDecodeError::BadVariantTag(_)
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn trailing_bytes_error() {
        let mut raw = built(PluginVariant::LorentzVanilla, 2).to_bytes().to_vec();
        raw.push(0);
        assert_eq!(
            IndexedStore::from_bytes(Bytes::from(raw)),
            Err(StoreDecodeError::TrailingBytes(1))
        );
    }
}
