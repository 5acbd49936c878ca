//! Binary (de)serialization of a built [`IndexedStore`].
//!
//! An index payload is one `traj_core::codec` frame (`LHIX`, version 4):
//! magic, version, body length and body checksum, so a flipped bit
//! anywhere — in a member id, a pivot distance, a nested row — is a
//! decode error, never a silently different index. The body, all
//! little-endian, validated before every read and cross-checked after:
//!
//! ```text
//! u64 store_len    | store payload    (EmbeddingStore::to_bytes)
//! u64 centroid_len | centroid payload (EmbeddingStore::to_bytes)
//! u64 n_cells
//! per cell: u64 m | m × u32 members | m × f64 dcx
//!           | m × f64 dcx_lo             (version ≥ 3, mix space only)
//! u64 k_landmarks (= 0)                  (versions 2 and 3 only)
//! if k > 0: u64 lm_len | lm_len bytes | n·k × f64   (read and skipped)
//! ```
//!
//! Versions 1–3 had no frame: the same body follows a bare magic and
//! version word, and still decodes (unverified — there is no checksum to
//! check). Version 2 appended a second-level landmark block, which the
//! index no longer has (DESIGN.md, "measured and removed"); a version-2/3
//! payload that carries one has its two lengths checked against the
//! remaining bytes and the block skipped, so the decoded index equals a
//! fresh build. Version 1 ends after the cells, and version 4 drops the
//! always-zero count word. Version 3 added the geodesic member distances
//! of a [`BoundSpace::ConvexMix`] index after each cell's `dcx` — bytes
//! only a certified `fusion-dist` payload carries.
//!
//! The bound space is never on the wire: the decoder runs
//! [`BoundSpace::for_store`] on the decoded store, so the factor
//! certification a mix-space prune rests on is *observed* on the rows
//! that will be served, and whether `dcx_lo` arrays follow is a function
//! of the same rows on both sides. A version-1/2 `fusion-dist` payload
//! carries the fused-kernel `dcx` no bound ever read; when its store
//! certifies, both mix arrays are recomputed with the builder's
//! [`mix_cell`], so the decoded index equals a fresh build. A store
//! whose space cannot prune ([`BoundSpace::None`]) is written without
//! cells; an older payload that carries cells for one is validated like
//! any other and its cells dropped — again a fresh build.
//!
//! Cell radii are *recomputed* from the decoded `dcx` arrays rather than
//! persisted — one derived quantity fewer to corrupt, and the recompute is
//! the builder's own, so a roundtripped index answers queries
//! bit-identically to the one that was encoded.
//!
//! Structural validation on decode: the frame, nested store payloads
//! (delegated to [`EmbeddingStore::from_bytes`]), centroid
//! row-count/layout consistency with the header, every member id in
//! range, no duplicate members, full coverage (the cells partition
//! exactly the store's rows — or there are none, for a store that cannot
//! prune), and the lengths inside a skipped landmark block. Truncated or
//! corrupt payloads return a [`StoreDecodeError`], never panic.

use super::super::codec::StoreDecodeError;
use super::super::store::EmbeddingStore;
use super::bound::BoundSpace;
use super::build::mix_cell;
use super::{IndexCell, IndexedStore};
use bytes::Bytes;
use traj_core::codec::Format;

/// `LHIX`: version 4 is framed; versions 1–3 still decode.
const FORMAT: Format = Format {
    magic: *b"LHIX",
    version: 4,
    oldest: 1,
};
/// First layout with the landmark count word (dropped again in 4).
const VERSION_LANDMARKS: u32 = 2;
/// First layout with a cell's second, geodesic pivot array.
const VERSION_MIX: u32 = 3;

impl IndexedStore {
    /// Compact binary serialization of the store plus its index.
    pub fn to_bytes(&self) -> Bytes {
        let cell_bytes: usize = self
            .cells
            .iter()
            .map(|c| 8 + c.members.len() * 4 + (c.dcx.len() + c.dcx_lo.len()) * 8)
            .sum();
        let mut w = FORMAT.writer();
        let payloads = self.store.payload_bytes() + self.centroids.payload_bytes();
        w.reserve(256 + payloads + cell_bytes);
        for payload in [&self.store, &self.centroids] {
            w.chunk(|w| payload.encode(w));
        }
        w.u64(self.cells.len() as u64);
        for cell in &self.cells {
            w.u64(cell.members.len() as u64);
            w.values(&cell.members, u32::to_le_bytes);
            w.values(&cell.dcx, f64::to_le_bytes);
            // Empty outside the mix space.
            w.values(&cell.dcx_lo, f64::to_le_bytes);
        }
        Bytes::from(FORMAT.finish(w))
    }

    /// Inverse of [`IndexedStore::to_bytes`]. Truncated or structurally
    /// inconsistent payloads return a [`StoreDecodeError`].
    pub fn from_bytes(data: Bytes) -> Result<Self, StoreDecodeError> {
        let (version, mut data) = FORMAT.unframe(data.as_slice())?;
        let store = EmbeddingStore::decode(data.chunk("index store")?)?;
        let space = BoundSpace::for_store(&store);
        let centroids = EmbeddingStore::decode(data.chunk("index centroids")?)?;
        let n_cells = data.count("n_cells")?;

        if centroids.len() != n_cells {
            return Err(StoreDecodeError::Inconsistent {
                field: "n_cells",
                expected: n_cells,
                actual: centroids.len(),
            });
        }
        // Centroids must share the store's layout: the query path binds
        // the same kernels against both.
        if !centroids.same_layout(&store) {
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
            let m = data.count("cell members")?;
            let members = data.values("cell members", m, u32::from_le_bytes)?;
            let dcx = data.values("cell dcx", m, f64::from_le_bytes)?;
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
                BoundSpace::ConvexMix { .. } if version >= VERSION_MIX => {
                    let dcx_lo = data.values("cell dcx_lo", m, f64::from_le_bytes)?;
                    IndexCell::mix(members, dcx, dcx_lo)
                }
                BoundSpace::ConvexMix { beta } => mix_cell(&store, &centroids, beta, j, members),
                _ => IndexCell::new(members, dcx),
            });
        }
        // A store that cannot prune may come without cells; cells that
        // are there must cover every row.
        if total != n && (n_cells > 0 || space.prunes()) {
            return Err(StoreDecodeError::Inconsistent {
                field: "cell member total",
                expected: n,
                actual: total,
            });
        }
        if (VERSION_LANDMARKS..FORMAT.version).contains(&version) {
            let k = data.count("landmark count")?;
            if k > 0 {
                let rows_len = data.count("landmark rows")?;
                data.take("landmark rows", rows_len)?;
                let features = n
                    .checked_mul(k)
                    .and_then(|count| count.checked_mul(8))
                    .ok_or(StoreDecodeError::HeaderOverflow {
                        field: "landmark features",
                    })?;
                data.take("landmark features", features)?;
            }
        }
        data.finish()?;
        let (centroids, cells) = if space.prunes() {
            (centroids, cells)
        } else {
            // Cells no bound can skip: what a fresh build leaves out.
            (store.empty_like(), Vec::new())
        };
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

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
            .collect()
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

    /// The same index in the unframed layout of `version` (valid outside
    /// the mix space, or at version 3): magic, version word, the body,
    /// and from version 2 on the zero landmark count word.
    fn legacy(ix: &IndexedStore, version: u32) -> Vec<u8> {
        let mut raw = b"LHIX".to_vec();
        raw.extend_from_slice(&version.to_le_bytes());
        raw.extend_from_slice(&ix.to_bytes().as_slice()[FRAME_LEN..]);
        if version >= VERSION_LANDMARKS {
            raw.extend_from_slice(&0u64.to_le_bytes());
        }
        raw
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_v4_payload_errors() {
        // Fused (version-3 second pivot array) and Euclidean exercise
        // both cell layouts.
        for variant in [PluginVariant::FusionDist, PluginVariant::Original] {
            let ix = built(variant, 2);
            let full = ix.to_bytes().to_vec();
            for cut in 0..full.len() {
                let err = IndexedStore::from_bytes(Bytes::from(full[..cut].to_vec()));
                assert!(err.is_err(), "cut at {cut} of {} must error", full.len());
            }
            for byte in 0..full.len() {
                for bit in 0..8 {
                    let mut bad = full.clone();
                    bad[byte] ^= 1 << bit;
                    let err = IndexedStore::from_bytes(Bytes::from(bad));
                    assert!(err.is_err(), "flip {byte}.{bit} must error");
                }
            }
            assert!(IndexedStore::from_bytes(Bytes::from(full)).is_ok());
        }
    }

    /// The experiment behind the frame, kept: a 400-row, 20-cell metric
    /// index, each of three bit positions of every byte after the magic
    /// and version word flipped in turn. In the unframed version-3 layout
    /// most of those payloads decode — into an index that can answer
    /// unlike a flat scan of its own rows; framed, none does.
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
                    count += IndexedStore::from_bytes(Bytes::from(bad)).is_ok() as usize;
                }
            }
            count
        };
        let v4 = ix.to_bytes().to_vec();
        assert_eq!(v4.len(), 11_834);
        assert_eq!(decoded(v4), 0);
        let v3 = legacy(&ix, 3);
        assert_eq!(v3.len(), 11_826);
        assert!(decoded(v3) > 3 * 11_818 / 2, "unframed flips mostly decode");
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

    /// A version-1 payload (it ends after the cells) still decodes.
    #[test]
    fn v1_payload_decodes() {
        let ix = built(PluginVariant::Original, 2);
        let raw = legacy(&ix, 1);
        assert_eq!(IndexedStore::from_bytes(Bytes::from(raw)), Ok(ix));
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
        let raw = unhex(V2_FUSED_FIXTURE);
        assert_eq!(raw[4], 2, "fixture is a version-2 payload");
        let back = IndexedStore::from_bytes(Bytes::from(raw.clone())).expect("v2 payload");
        let fresh = built(PluginVariant::FusionDist, 2);
        assert_eq!(back, fresh);
        assert_eq!(back.bound_space(), BoundSpace::ConvexMix { beta: 1.0 });
        let q = store_with_rows(PluginVariant::FusionDist);
        for qi in 0..q.len() {
            assert_eq!(bits(&back.knn(&q, qi, 3)), bits(&q.knn(&q, qi, 3)));
        }
        // The nested store payload is byte-identical to today's encoder.
        assert_eq!(fresh.store().to_bytes().as_slice(), &raw[16..16 + 0xa1]);
        // Re-encoding upgrades: version 4 carries the second array, and
        // the frame's two words in place of the landmark count word.
        let v4 = back.to_bytes().to_vec();
        assert_eq!(v4[4], 4);
        assert_eq!(v4.len(), raw.len() + 8 * q.len() + 8);
        // The same rows with the version word flipped to 1 and the
        // landmark trailer dropped are a version-1 payload.
        let mut v1 = raw;
        v1[4] = 1;
        v1.truncate(v1.len() - 8);
        assert_eq!(IndexedStore::from_bytes(Bytes::from(v1)), Ok(fresh));
    }

    /// `to_bytes()` of three indexes as written by the last encoder that
    /// built a landmark block (the commit before the block left):
    /// `built(LorentzCosh, 2)` — a metric index *with* its block (3
    /// landmark rows, 3 × 3 features) —, `built(FusionDist, 2)`, and two
    /// k-means cells over `uncertified_rows()`.
    const V3_METRIC_FIXTURE: &str = "\
        4c48495803000000710000000000000003000000000000000200000000000000\
        020000803f000000000000000006000000000000000000000000000000000080\
        3f00000000000000000000404009000000000000000000803f00000000000000\
        00d504b53f0000803f00000000cc624a40000000000000404000000000000000\
        005d0000000000000002000000000000000200000000000000020000803f0000\
        000000000000040000000000000000000000000040400000003f000000000600\
        000000000000c2624a400000000000004040bd1b8f3f0000003f000000000000\
        000000000000020000000000000001000000000000000200000011d1aaaafeff\
        6f3f02000000000000000000000001000000b67005d22cccde3ff5cb76e7169c\
        d93f030000000000000071000000000000000300000000000000020000000000\
        0000020000803f00000000000000000600000000000000000000000000000000\
        000000000040400000803f0000000009000000000000000000803f0000000000\
        000000c2624a400000000000004040f304b53f0000803f000000000000000000\
        0000000000000000000000d749ed535b18fd3f8a5c7b543634ec3f071a7ad42e\
        34ec3f83bfab9c186d01400000000000000000219942295c18fd3f11d1aaaafe\
        ff6f3fbf06d5631a6d0140\
    ";
    const V3_FUSED_FIXTURE: &str = "\
        4c48495803000000a10000000000000003000000000000000200000000000000\
        030000803f020000000000000006000000000000000000000000000000000080\
        3f00000000000000000000404009000000000000000000803f00000000000000\
        00d504b53f0000803f00000000cc624a4000000000000040400c000000000000\
        000000803f0000803f0000803f0000803f000000400000803f0000003f000000\
        3f0000003f0000003f00000040000000407d0000000000000002000000000000\
        000200000000000000030000803f020000000000000004000000000000000000\
        0000000040400000003f000000000600000000000000c2624a40000000000000\
        4040bd1b8f3f0000003f0000000008000000000000000000003f0000003f0000\
        0040000000400000c03f0000803f0000403f0000403f02000000000000000100\
        00000000000002000000000000000000000011d1aaaafeff6f3f020000000000\
        00000000000001000000000000000000e03f000000000000e03fb67005d22ccc\
        de3ff5cb76e7169cd93f0000000000000000\
    ";
    const V3_UNCERTIFIED_FIXTURE: &str = "\
        4c48495803000000a10000000000000003000000000000000200000000000000\
        030000803f020000000000000006000000000000000000000000000000000080\
        3f00000000000000000000404009000000000000000000803f00000000000000\
        00d504b53f0000803f00000000cc624a4000000000000040400c000000000000\
        000000803f000080bf0000803f0000803f000000400000803f0000003f000000\
        3f0000003f0000003f00000040000000407d0000000000000002000000000000\
        000200000000000000030000803f020000000000000004000000000000000000\
        0000000040400000003f000000000600000000000000c2624a40000000000000\
        4040bd1b8f3f0000003f0000000008000000000000000000003f0000003f0000\
        0040000000400000c03f000000000000403f0000403f02000000000000000100\
        00000000000002000000000000201e1e9e3e0200000000000000000000000100\
        000000000040efc6d33f00000040b31bc53f0000000000000000\
    ";

    /// Old bytes still load: each version-3 payload of the previous
    /// encoder decodes to a value `==` a fresh build of the same rows —
    /// the landmark block skipped, the cells of a store that cannot prune
    /// dropped — and answers bit-identically to the flat scan; every
    /// truncation is an error.
    #[test]
    fn v3_payloads_of_the_previous_encoder_decode_to_a_fresh_build() {
        let params = IndexParams { n_cells: Some(2) };
        for (name, fixture, rows) in [
            (
                "metric + landmark block",
                V3_METRIC_FIXTURE,
                store_with_rows(PluginVariant::LorentzCosh),
            ),
            (
                "certified fused",
                V3_FUSED_FIXTURE,
                store_with_rows(PluginVariant::FusionDist),
            ),
            (
                "uncertifiable fused",
                V3_UNCERTIFIED_FIXTURE,
                uncertified_rows(),
            ),
        ] {
            let raw = unhex(fixture);
            assert_eq!(raw[4], 3, "{name}: fixture is a version-3 payload");
            let back = IndexedStore::from_bytes(Bytes::from(raw.clone())).expect(name);
            let fresh = IndexedStore::build(rows.clone(), params);
            assert_eq!(back, fresh, "{name}");
            for qi in 0..rows.len() {
                assert_eq!(
                    bits(&back.knn(&rows, qi, 3)),
                    bits(&rows.knn(&rows, qi, 3)),
                    "{name} qi={qi}"
                );
            }
            for cut in 0..raw.len() {
                let err = IndexedStore::from_bytes(Bytes::from(raw[..cut].to_vec()));
                assert!(
                    err.is_err(),
                    "{name}: cut at {cut} of {} must error",
                    raw.len()
                );
            }
        }
    }

    /// The skipped landmark block is still length-checked: a forged
    /// count or row-payload length is a decode error, never a panic or a
    /// silently shorter read. Re-encoding drops the block.
    #[test]
    fn forged_lengths_inside_the_skipped_landmark_block_error() {
        let raw = unhex(V3_METRIC_FIXTURE);
        // u64 k = 3 | u64 lm_len = 113 | 113 bytes | 3·3 × f64.
        let (k_at, len_at) = (raw.len() - (16 + 113 + 72), raw.len() - (8 + 113 + 72));
        assert_eq!(raw[k_at..len_at], 3u64.to_le_bytes());
        assert_eq!(raw[len_at..len_at + 8], 113u64.to_le_bytes());
        let forged = |at: usize, value: u64| {
            let mut bad = raw.clone();
            bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
            IndexedStore::from_bytes(Bytes::from(bad)).unwrap_err()
        };
        use StoreDecodeError::{HeaderOverflow, TrailingBytes, Truncated};
        assert!(matches!(forged(k_at, 4), Truncated { .. }));
        assert!(matches!(forged(k_at, 2), TrailingBytes(24)));
        assert!(matches!(forged(k_at, u64::MAX), HeaderOverflow { .. }));
        assert!(matches!(forged(len_at, 114), Truncated { .. }));
        assert!(matches!(forged(len_at, 112), TrailingBytes(1)));
        assert!(matches!(forged(len_at, u64::MAX), Truncated { .. }));
        // A block after a payload that never had one (the fused
        // fixture ends with k = 0): the forged count finds no bytes.
        let mut fused = unhex(V3_FUSED_FIXTURE);
        let at = fused.len() - 8;
        fused[at..].copy_from_slice(&1u64.to_le_bytes());
        let err = IndexedStore::from_bytes(Bytes::from(fused)).unwrap_err();
        assert!(matches!(err, Truncated { .. }), "got {err:?}");

        // Re-encoding drops the block and the count word for the frame's
        // length and checksum.
        let back = IndexedStore::from_bytes(Bytes::from(raw.clone())).expect("valid payload");
        assert_eq!(back.to_bytes().len(), raw.len() - (16 + 113 + 72) + 16);
    }

    /// The space is observed on decode, never read: a store that fails
    /// certification is written without cells and decodes without a
    /// bound, and a payload forged to claim the mix layout around a bad
    /// factor is rejected as malformed rather than served with an
    /// unproven bound.
    #[test]
    fn uncertified_fused_payload_decodes_without_a_bound() {
        let store = uncertified_rows();
        let ix = IndexedStore::build(store.clone(), IndexParams { n_cells: Some(2) });
        assert_eq!(ix.bound_space(), BoundSpace::None);
        assert_eq!(ix.num_cells(), 0);
        let back = IndexedStore::from_bytes(ix.to_bytes()).expect("valid payload");
        assert_eq!(back, ix);
        assert_eq!(back.bound_space(), BoundSpace::None);

        // Forge: the certified index's cells (two arrays each) around the
        // uncertified rows. The decoder expects one array per cell, so
        // the surplus bytes misalign every later field.
        let good = built(PluginVariant::FusionDist, 2);
        let forged = IndexedStore {
            store,
            space: good.bound_space(),
            ..good
        };
        assert!(IndexedStore::from_bytes(forged.to_bytes()).is_err());

        // A space that can prune may not come without cells.
        let rows = store_with_rows(PluginVariant::Original);
        let bare = from_parts(rows.clone(), rows.empty_like(), Vec::new());
        let err = IndexedStore::from_bytes(bare.to_bytes()).unwrap_err();
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
