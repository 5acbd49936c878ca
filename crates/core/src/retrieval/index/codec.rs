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
//! u64 k_landmarks (= 0)                             (version ≥ 2)
//! if k > 0: u64 lm_len | lm_len bytes | n·k × f64   (read and skipped)
//! ```
//!
//! Version 2 appended a second-level landmark block, which the index no
//! longer has (DESIGN.md, "measured and removed"). The encoder still
//! writes version 3 with the count word at 0 — exactly the bytes the
//! previous encoder wrote for an index without a block, so every old
//! reader still reads what this one writes — and the decoder still
//! accepts a version-2/3 payload that carries a block: its two lengths
//! are checked against the remaining bytes and the block is skipped, so
//! the decoded index equals a fresh build. Version-1 payloads end before
//! the count word. Version 3 added the geodesic member distances of a
//! [`BoundSpace::ConvexMix`] index after each cell's `dcx` — bytes only a
//! certified `fusion-dist` payload carries; every other payload differs
//! from version 2 in the version word alone.
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
//! Structural validation on decode: magic and version, nested store
//! payloads (delegated to [`EmbeddingStore::from_bytes`]), centroid
//! row-count/layout consistency with the header, every member id in
//! range, no duplicate members, full coverage (the cells partition
//! exactly the store's rows — or there are none, for a store that cannot
//! prune), and the lengths inside a skipped landmark block. Truncated or
//! corrupt payloads return a [`StoreDecodeError`], never panic.

use super::super::codec::StoreDecodeError;
use super::super::codec_util::{guard, take_chunk, take_f64_values, take_u32_values, take_u64};
use super::super::store::EmbeddingStore;
use super::bound::BoundSpace;
use super::build::mix_cell;
use super::{IndexCell, IndexedStore};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// `LHIX` in little-endian byte order.
const MAGIC: u32 = u32::from_le_bytes(*b"LHIX");
const VERSION: u32 = 3;
/// First layout with the landmark count word.
const VERSION_LANDMARKS: u32 = 2;
/// Oldest layout still accepted on decode (ends after the cells).
const VERSION_MIN: u32 = 1;

/// Reads a nested length-prefixed [`EmbeddingStore`] payload.
fn take_store(data: &mut Bytes, field: &'static str) -> Result<EmbeddingStore, StoreDecodeError> {
    let len = take_u64(data, field)? as usize;
    let chunk = take_chunk(data, field, len)?;
    EmbeddingStore::from_bytes(Bytes::from(chunk))
}

/// Skips `len` bytes after checking they are there.
fn skip(data: &mut Bytes, field: &'static str, len: usize) -> Result<(), StoreDecodeError> {
    guard(data, field, len)?;
    data.advance(len);
    Ok(())
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
        let mut buf =
            BytesMut::with_capacity(40 + store_payload.len() + centroid_payload.len() + cell_bytes);
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
        // `k_landmarks`: always 0 (module docs).
        buf.put_u64_le(0);
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
        // A store that cannot prune may come without cells; cells that
        // are there must cover every row.
        if total != n && (n_cells > 0 || space.prunes()) {
            return Err(StoreDecodeError::Inconsistent {
                field: "cell member total",
                expected: n,
                actual: total,
            });
        }
        if version >= VERSION_LANDMARKS {
            let k = take_u64(&mut data, "landmark count")? as usize;
            if k > 0 {
                let rows_len = take_u64(&mut data, "landmark rows")? as usize;
                skip(&mut data, "landmark rows", rows_len)?;
                let features = n
                    .checked_mul(k)
                    .and_then(|count| count.checked_mul(8))
                    .ok_or(StoreDecodeError::HeaderOverflow {
                        field: "landmark features",
                    })?;
                skip(&mut data, "landmark features", features)?;
            }
        }
        if !data.is_empty() {
            return Err(StoreDecodeError::TrailingBytes(data.remaining()));
        }
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

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        // Fused (version-3 second pivot array) and Euclidean exercise
        // both cell layouts.
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

    /// A version-1 payload (it ends after the cells) still decodes.
    #[test]
    fn v1_payload_decodes() {
        let ix = built(PluginVariant::Original, 2);
        let mut raw = ix.to_bytes().to_vec();
        raw[4] = 1; // version 3 → 1: same bytes outside the mix space
        raw.truncate(raw.len() - 8); // drop the k_landmarks = 0 word
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

        let back = IndexedStore::from_bytes(Bytes::from(raw.clone())).expect("valid payload");
        assert_eq!(back.to_bytes().len(), raw.len() - (8 + 113 + 72));
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
