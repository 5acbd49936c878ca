//! Binary (de)serialization of a built [`IndexedStore`].
//!
//! An index payload is one `traj_core::codec` frame (`LHIX`, version 4):
//! magic, version, body length and body checksum, so a flipped bit
//! anywhere — in a member id, a pivot distance, a nested row — is a
//! decode error, never a silently different index. Version 4 is the only
//! one read: an index of any other version is rebuilt from its rows. The
//! body, all little-endian, validated before every read and cross-checked
//! after:
//!
//! ```text
//! u64 store_len    | store payload    (EmbeddingStore::to_bytes)
//! u64 centroid_len | centroid payload (EmbeddingStore::to_bytes)
//! u64 n_cells
//! per cell: u64 m | m × u32 members | m × f64 dcx
//!           | m × f64 dcx_lo             (mix space only)
//! ```
//!
//! The bound space is never on the wire: the decoder runs
//! [`BoundSpace::for_store`] on the decoded store, so the factor
//! certification a mix-space prune rests on is *observed* on the rows
//! that will be served, and whether `dcx_lo` arrays follow is a function
//! of the same rows on both sides. A store whose space cannot prune
//! ([`BoundSpace::None`]) is written without cells, and a payload that
//! carries cells for one is an error.
//!
//! Cell radii are *recomputed* from the decoded `dcx` arrays rather than
//! persisted — one derived quantity fewer to corrupt, and the recompute is
//! the builder's own, so a roundtripped index answers queries
//! bit-identically to the one that was encoded.
//!
//! Structural validation on decode: the frame, nested store payloads
//! (delegated to [`EmbeddingStore::from_bytes`]), centroid
//! row-count/layout consistency with the header, every member id in
//! range, no duplicate members, and full coverage (the cells partition
//! exactly the store's rows — or there are none, for a store that cannot
//! prune). Truncated or corrupt payloads return a [`DecodeError`], never
//! panic.

use super::super::store::EmbeddingStore;
use super::bound::BoundSpace;
use super::{IndexCell, IndexedStore};
use traj_core::codec::{DecodeError, Format};

const FORMAT: Format = Format {
    magic: *b"LHIX",
    version: 4,
};

impl IndexedStore {
    /// Compact binary serialization of the store plus its index.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cell_bytes: usize = self
            .cells
            .iter()
            .map(|c| 8 + c.members.len() * 4 + (c.dcx.len() + c.dcx_lo.len()) * 8)
            .sum();
        let mut w = FORMAT.writer();
        let payloads = self.store.payload_bytes() + self.centroids.payload_bytes();
        w.reserve(256 + payloads + cell_bytes);
        for payload in [&self.store, &self.centroids] {
            w.chunk(payload.encoded_len(), |w| payload.encode(w));
        }
        w.u64(self.cells.len() as u64);
        for cell in &self.cells {
            w.u64(cell.members.len() as u64);
            w.values(&cell.members, u32::to_le_bytes);
            w.values(&cell.dcx, f64::to_le_bytes);
            // Empty outside the mix space.
            w.values(&cell.dcx_lo, f64::to_le_bytes);
        }
        FORMAT.finish(w)
    }

    /// Inverse of [`IndexedStore::to_bytes`]. Truncated or structurally
    /// inconsistent payloads return a [`DecodeError`].
    pub fn from_bytes(payload: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let mut data = FORMAT.unframe(payload.as_ref())?;
        let store = EmbeddingStore::from_bytes(data.chunk("index store")?)?;
        let space = BoundSpace::for_store(&store);
        let centroids = EmbeddingStore::from_bytes(data.chunk("index centroids")?)?;
        let n_cells = data.count("n_cells")?;

        if !space.prunes() && n_cells > 0 {
            return Err(DecodeError::Inconsistent {
                field: "n_cells",
                expected: 0,
                actual: n_cells,
            });
        }
        if centroids.len() != n_cells {
            return Err(DecodeError::Inconsistent {
                field: "n_cells",
                expected: n_cells,
                actual: centroids.len(),
            });
        }
        // Centroids must share the store's layout: the query path binds
        // the same kernels against both.
        if !centroids.same_layout(&store) {
            return Err(DecodeError::Inconsistent {
                field: "centroid layout",
                expected: store.dim(),
                actual: centroids.dim(),
            });
        }

        let n = store.len();
        let mut seen = vec![false; n];
        let mut total = 0usize;
        let mut cells = Vec::with_capacity(n_cells.min(1 << 20));
        for _ in 0..n_cells {
            let m = data.count("cell members")?;
            let members = data.values("cell members", m, u32::from_le_bytes)?;
            let dcx = data.values("cell dcx", m, f64::from_le_bytes)?;
            for &member in &members {
                let mi = member as usize;
                if mi >= n {
                    return Err(DecodeError::Inconsistent {
                        field: "cell member id",
                        expected: n,
                        actual: mi,
                    });
                }
                if seen[mi] {
                    return Err(DecodeError::Inconsistent {
                        field: "duplicate cell member",
                        expected: 1,
                        actual: 2,
                    });
                }
                seen[mi] = true;
            }
            total += members.len();
            cells.push(match space {
                BoundSpace::ConvexMix { .. } => {
                    let dcx_lo = data.values("cell dcx_lo", m, f64::from_le_bytes)?;
                    IndexCell::mix(members, dcx, dcx_lo)
                }
                _ => IndexCell::new(members, dcx),
            });
        }
        if space.prunes() && total != n {
            return Err(DecodeError::Inconsistent {
                field: "cell member total",
                expected: n,
                actual: total,
            });
        }
        data.finish()?;
        Ok(IndexedStore {
            store,
            centroids,
            cells,
            space,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::codec::tests::{forged, framed};
    use super::super::super::store::tests::store_with_rows;
    use super::super::super::store::RetrievalResult;
    use super::super::build::IndexParams;
    use super::*;
    use crate::config::PluginVariant;

    /// Bytes of a frame before its body: magic, version, length, checksum.
    const FRAME_LEN: usize = 24;

    fn built(variant: PluginVariant, cells: usize) -> IndexedStore {
        IndexedStore::build(
            store_with_rows(variant),
            IndexParams {
                n_cells: Some(cells),
            },
        )
    }

    /// `store_with_rows(FusionDist)` with one negative factor: no bound.
    fn uncertified_rows() -> EmbeddingStore {
        let mut store = store_with_rows(PluginVariant::FusionDist);
        store.factors[1] = -1.0;
        store
    }

    /// An index of these parts in the store's own bound space — the
    /// forged parts below are structurally corrupt, not mis-spaced.
    fn from_parts(
        store: EmbeddingStore,
        centroids: EmbeddingStore,
        cells: Vec<IndexCell>,
    ) -> IndexedStore {
        let space = BoundSpace::for_store(&store);
        IndexedStore {
            store,
            centroids,
            cells,
            space,
        }
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
    fn every_truncation_and_bit_flip_of_a_v4_payload_errors() {
        // Fused (version-3 second pivot array) and Euclidean exercise
        // both cell layouts.
        for variant in [PluginVariant::FusionDist, PluginVariant::Original] {
            let ix = built(variant, 2);
            let full = ix.to_bytes();
            for cut in 0..full.len() {
                let err = IndexedStore::from_bytes(&full[..cut]);
                assert!(err.is_err(), "cut at {cut} of {} must error", full.len());
            }
            for byte in 0..full.len() {
                for bit in 0..8 {
                    let mut bad = full.clone();
                    bad[byte] ^= 1 << bit;
                    let err = IndexedStore::from_bytes(bad);
                    assert!(err.is_err(), "flip {byte}.{bit} must error");
                }
            }
            assert!(IndexedStore::from_bytes(full).is_ok());
        }
    }

    /// The experiment behind the frame, kept: a 400-row, 20-cell metric
    /// index, each of three bit positions of every byte after the magic
    /// and version word flipped in turn. Without the frame most of those
    /// payloads decoded — into an index that could answer unlike a flat
    /// scan of its own rows; framed, none does.
    #[test]
    fn no_bit_flip_of_a_400_row_index_decodes() {
        let mut store = EmbeddingStore::new(4, PluginVariant::Original, 1.0, None);
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let mut coord = || {
            z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (z >> 40) as f32 / (1u64 << 24) as f32 * 10.0
        };
        for _ in 0..400 {
            let row = [coord(), coord(), coord(), coord()];
            store.push(&row, None, None);
        }
        let ix = IndexedStore::build(store, IndexParams { n_cells: Some(20) });
        assert_eq!(ix.num_cells(), 20);
        let decoded = |raw: Vec<u8>| {
            let mut count = 0;
            for byte in 8..raw.len() {
                for bit in [0, 3, 6] {
                    let mut bad = raw.clone();
                    bad[byte] ^= 1 << bit;
                    count += IndexedStore::from_bytes(bad).is_ok() as usize;
                }
            }
            count
        };
        let v4 = ix.to_bytes();
        assert_eq!(v4.len(), 11_834);
        assert_eq!(decoded(v4), 0);
    }

    #[test]
    fn bad_magic_errors() {
        let mut raw = built(PluginVariant::Original, 2).to_bytes();
        raw[0] ^= 0xFF;
        let err = IndexedStore::from_bytes(raw).unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic(_)), "got {err:?}");
    }

    /// Only version 4 is read: an older version word in front of a
    /// version-4 body is unsupported, like an unknown one.
    #[test]
    fn unsupported_version_errors() {
        for version in [1, 2, 3, 99] {
            let mut raw = built(PluginVariant::Original, 2).to_bytes();
            raw[4] = version;
            assert_eq!(
                IndexedStore::from_bytes(raw),
                Err(DecodeError::UnsupportedVersion(version.into()))
            );
        }
    }

    /// The space is observed on decode, never read: a store that fails
    /// certification is written without cells and decodes without a
    /// bound, and a payload forged with cells around a bad factor — in
    /// the mix layout or with one array per cell — is rejected as
    /// malformed rather than served with an unproven bound.
    #[test]
    fn uncertified_fused_payload_decodes_without_a_bound() {
        let store = uncertified_rows();
        let ix = IndexedStore::build(store.clone(), IndexParams { n_cells: Some(2) });
        assert_eq!(ix.bound_space(), BoundSpace::None);
        assert_eq!(ix.num_cells(), 0);
        let back = IndexedStore::from_bytes(ix.to_bytes()).expect("valid payload");
        assert_eq!(back, ix);
        assert_eq!(back.bound_space(), BoundSpace::None);

        // Forge: the certified index's cells around the uncertified rows,
        // with both pivot arrays and with the first alone. A store that
        // cannot prune has no cells to read.
        let good = built(PluginVariant::FusionDist, 2);
        let single = good
            .cells
            .iter()
            .map(|c| IndexCell::new(c.members.clone(), c.dcx.clone()))
            .collect();
        let single = from_parts(store.clone(), good.centroids.clone(), single);
        let mix = IndexedStore {
            store,
            space: good.bound_space(),
            ..good
        };
        for forged in [mix, single] {
            assert_eq!(
                IndexedStore::from_bytes(forged.to_bytes()),
                Err(DecodeError::Inconsistent {
                    field: "n_cells",
                    expected: 0,
                    actual: 2
                })
            );
        }

        // A space that can prune may not come without cells.
        let rows = store_with_rows(PluginVariant::Original);
        let bare = from_parts(rows.clone(), rows.empty_like(), Vec::new());
        let err = IndexedStore::from_bytes(bare.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Inconsistent {
                    field: "cell member total",
                    ..
                }
            ),
            "got {err:?}"
        );
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
        );
        let err = IndexedStore::from_bytes(out_of_range.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Inconsistent {
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
        );
        let err = IndexedStore::from_bytes(duplicated.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Inconsistent {
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
        );
        let err = IndexedStore::from_bytes(incomplete.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Inconsistent {
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
        );
        let err = IndexedStore::from_bytes(wrong_layout.to_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Inconsistent { .. } | DecodeError::BadVariantTag(_)
            ),
            "got {err:?}"
        );
    }

    /// A body that passes its checksum is still read field by field: for
    /// every variant, each forged body re-framed with a valid checksum is
    /// a typed error, or an index that re-encodes to the same bytes and
    /// answers a query — never a panic.
    #[test]
    fn forged_checksummed_bodies_error_or_decode() {
        for variant in PluginVariant::ABLATION {
            let raw = built(variant, 2).to_bytes();
            for file in forged(&raw[FRAME_LEN..]).map(|body| framed(FORMAT, &body)) {
                if let Ok(back) = IndexedStore::from_bytes(&file) {
                    assert_eq!(back.to_bytes(), file, "{}", variant.name());
                    if !back.store().is_empty() {
                        back.knn(back.store(), 0, 3);
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut raw = built(PluginVariant::LorentzVanilla, 2).to_bytes();
        raw.push(0);
        assert_eq!(
            IndexedStore::from_bytes(raw),
            Err(DecodeError::TrailingBytes(1))
        );
    }
}
