//! Compact binary (de)serialization of [`EmbeddingStore`] payloads.
//!
//! Wire layout (all little-endian):
//!
//! ```text
//! u64 n | u64 dim | u8 variant | f32 beta | u64 factor_dim
//! u64 eu_len      | eu_len × f32
//! u64 hyper_len   | hyper_len × f32
//! u64 factor_len  | factor_len × f32
//! ```
//!
//! The store payload is a *body*, not a file: it is never written alone,
//! but nested — length-prefixed — inside the `LHIX` index and `LHCP`
//! checkpoint containers, whose `traj_core::codec` frame checksums it
//! along with everything else. Buffers stream as whole byte chunks
//! through the codec's `Reader` / `Writer`. Decoding validates every
//! length against the remaining bytes *before* reading and cross-checks
//! the buffer lengths against `n`/`dim`/`variant`, so truncated or
//! corrupt payloads return a [`DecodeError`] instead of panicking
//! mid-read.

use super::store::EmbeddingStore;
use crate::config::PluginVariant;
use traj_core::codec::{DecodeError, Reader, Writer};

impl EmbeddingStore {
    /// Compact binary serialization (length-prefixed little-endian f32
    /// buffers, streamed as whole byte chunks).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Bytes [`EmbeddingStore::encode`] writes: the 29-byte header, then
    /// three count-prefixed buffers. A container nests the payload under
    /// this length, declared before the payload is written.
    pub(crate) fn encoded_len(&self) -> usize {
        29 + 3 * 8 + self.payload_bytes()
    }

    /// [`EmbeddingStore::to_bytes`] into a writer — how the containers
    /// that nest a payload write it, without a copy.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.reserve(self.payload_bytes() + 64);
        w.u64(self.n as u64);
        w.u64(self.dim as u64);
        w.u8(match self.variant {
            PluginVariant::Original => 0,
            PluginVariant::LorentzVanilla => 1,
            PluginVariant::LorentzCosh => 2,
            PluginVariant::FusionDist => 3,
        });
        w.u32(self.beta.to_bits());
        w.u64(self.factor_dim.unwrap_or(0) as u64);
        for chunk in [&self.eu, &self.hyper, &self.factors] {
            w.f32_chunk(chunk);
        }
    }

    /// Inverse of [`EmbeddingStore::to_bytes`], over an owned or a
    /// borrowed payload (the containers that nest one decode it in place).
    /// Truncated or internally inconsistent payloads return a
    /// [`DecodeError`].
    pub fn from_bytes(payload: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let mut data = Reader::new(payload.as_ref());
        let n = data.count("n")?;
        let dim = data.count("dim")?;
        let variant = match data.u8("variant")? {
            0 => PluginVariant::Original,
            1 => PluginVariant::LorentzVanilla,
            2 => PluginVariant::LorentzCosh,
            3 => PluginVariant::FusionDist,
            tag => return Err(DecodeError::BadVariantTag(tag)),
        };
        let beta = f32::from_bits(data.u32("beta")?);
        let fd = data.count("factor_dim")?;
        let eu = data.f32_chunk("eu")?;
        let hyper = data.f32_chunk("hyper")?;
        let factors = data.f32_chunk("factors")?;
        data.finish()?;

        // A non-fusion store never carries a factor width (the
        // constructor nulls it); reject payloads that claim one. The
        // converse also panics later: a fusion store with rows but no
        // factor width would fail its first kernel bind, so reject that
        // here too (an *empty* fusion store may legitimately have fd=0).
        if !variant.uses_fusion() && fd != 0 {
            return Err(DecodeError::Inconsistent {
                field: "factor_dim",
                expected: 0,
                actual: fd,
            });
        }
        if variant.uses_fusion() && fd == 0 && n > 0 {
            return Err(DecodeError::Inconsistent {
                field: "factor_dim",
                expected: 1,
                actual: 0,
            });
        }

        // Cross-check buffer lengths against the header, with checked
        // arithmetic so absurd header sizes error instead of wrapping
        // past the validation (and then panicking in later accessors).
        let expect = |field: &'static str, a: usize, b: usize| {
            a.checked_mul(b)
                .ok_or(DecodeError::HeaderOverflow { field })
        };
        let checks: [(&'static str, usize, usize); 3] = [
            ("eu", expect("eu", n, dim)?, eu.len()),
            (
                "hyper",
                if variant.uses_hyperbolic() {
                    // n·(dim+1) = n·dim + n, all checked.
                    expect("hyper", n, dim)?
                        .checked_add(n)
                        .ok_or(DecodeError::HeaderOverflow { field: "hyper" })?
                } else {
                    0
                },
                hyper.len(),
            ),
            (
                "factors",
                if variant.uses_fusion() {
                    expect(
                        "factors",
                        n,
                        fd.checked_mul(2)
                            .ok_or(DecodeError::HeaderOverflow { field: "factors" })?,
                    )?
                } else {
                    0
                },
                factors.len(),
            ),
        ];
        for (field, expected, actual) in checks {
            if expected != actual {
                return Err(DecodeError::Inconsistent {
                    field,
                    expected,
                    actual,
                });
            }
        }

        Ok(EmbeddingStore {
            dim,
            variant,
            beta,
            factor_dim: if fd == 0 { None } else { Some(fd) },
            n,
            eu,
            hyper,
            factors,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::store::tests::store_with_rows;
    use super::*;
    use traj_core::codec::Format;

    /// Every truncation of `body`, every single-bit flip of it, and
    /// `body` with one byte appended: what a buggy writer could checksum.
    pub(crate) fn forged(body: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..body.len()).map(|cut| body[..cut].to_vec());
        let flips = (0..body.len() * 8).map(|i| {
            let mut bad = body.to_vec();
            bad[i / 8] ^= 1 << (i % 8);
            bad
        });
        cuts.chain(flips)
            .chain(std::iter::once([body, &[0]].concat()))
    }

    /// `body` as a `format` file whose frame verifies.
    pub(crate) fn framed(format: Format, body: &[u8]) -> Vec<u8> {
        let mut w = format.writer();
        w.values(body, u8::to_le_bytes);
        format.finish(w)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
            .collect()
    }

    /// `store_with_rows(LorentzCosh)` and `store_with_rows(FusionDist)` as
    /// the index and checkpoint files have always nested them.
    const LORENTZ_PAYLOAD: &str = "\
        03000000000000000200000000000000020000803f0000000000000000060000\
        000000000000000000000000000000803f000000000000000000004040090000\
        00000000000000803f0000000000000000d504b53f0000803f00000000cc624a\
        4000000000000040400000000000000000\
    ";
    const FUSED_PAYLOAD: &str = "\
        03000000000000000200000000000000030000803f0200000000000000060000\
        000000000000000000000000000000803f000000000000000000004040090000\
        00000000000000803f0000000000000000d504b53f0000803f00000000cc624a\
        4000000000000040400c000000000000000000803f0000803f0000803f000080\
        3f000000400000803f0000003f0000003f0000003f0000003f00000040000000\
        40\
    ";

    /// The payload's exact bytes: a change to the layout shows here
    /// before it reaches any file that nests one.
    #[test]
    fn payload_bytes_are_pinned() {
        for (variant, hex) in [
            (PluginVariant::LorentzCosh, LORENTZ_PAYLOAD),
            (PluginVariant::FusionDist, FUSED_PAYLOAD),
        ] {
            let store = store_with_rows(variant);
            assert_eq!(store.to_bytes(), unhex(hex), "{}", variant.name());
        }
    }

    #[test]
    fn bytes_roundtrip() {
        for variant in PluginVariant::ABLATION {
            let s = store_with_rows(variant);
            let b = s.to_bytes();
            assert_eq!(b.len(), s.encoded_len(), "{}", variant.name());
            let back = EmbeddingStore::from_bytes(b).expect("valid payload");
            assert_eq!(back, s, "{}", variant.name());
        }
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = EmbeddingStore::new(7, PluginVariant::FusionDist, 2.5, Some(3));
        assert_eq!(s.to_bytes().len(), s.encoded_len());
        let back = EmbeddingStore::from_bytes(s.to_bytes()).expect("valid payload");
        assert_eq!(back, s);
        assert_eq!(back.factor_dim(), Some(3));
    }

    #[test]
    fn every_truncation_errors_instead_of_panicking() {
        let s = store_with_rows(PluginVariant::FusionDist);
        let full = s.to_bytes();
        for cut in 0..full.len() {
            let err = EmbeddingStore::from_bytes(&full[..cut]);
            assert!(err.is_err(), "cut at {cut} of {} must error", full.len());
        }
        // The untruncated payload still decodes.
        assert!(EmbeddingStore::from_bytes(full).is_ok());
    }

    #[test]
    fn bad_variant_tag_errors() {
        let s = store_with_rows(PluginVariant::Original);
        let mut raw = s.to_bytes();
        raw[16] = 9; // the variant byte follows the two u64 header words
        assert_eq!(
            EmbeddingStore::from_bytes(raw),
            Err(DecodeError::BadVariantTag(9))
        );
    }

    #[test]
    fn inconsistent_lengths_error() {
        let s = store_with_rows(PluginVariant::Original);
        let mut raw = s.to_bytes();
        raw[0] = 7; // claim n = 7 while buffers hold 3 rows
        let err = EmbeddingStore::from_bytes(raw).unwrap_err();
        assert!(matches!(err, DecodeError::Inconsistent { field: "eu", .. }));
    }

    #[test]
    fn overflowing_header_sizes_error() {
        // n = dim = 2^32 with three empty buffers: n·dim wraps to 0 on
        // 64-bit if unchecked, which would match the empty `eu` buffer
        // and produce a store whose accessors panic. Must error instead.
        let mut w = Writer::new();
        w.u64(1u64 << 32); // n
        w.u64(1u64 << 32); // dim
        w.u8(0); // Original
        w.u32(1f32.to_bits());
        w.u64(0); // factor_dim
        for _ in 0..3 {
            w.u64(0); // empty eu / hyper / factors
        }
        let res = EmbeddingStore::from_bytes(w.finish());
        assert!(
            matches!(
                res,
                Err(DecodeError::HeaderOverflow { .. }) | Err(DecodeError::Inconsistent { .. })
            ),
            "got {res:?}"
        );
    }

    #[test]
    fn fusion_with_rows_but_no_factor_dim_errors() {
        // variant = FusionDist, n = 1, dim = 2, factor_dim = 0, buffers
        // internally consistent — the length checks alone would accept
        // this, and the resulting store's first kernel bind would panic.
        let mut w = Writer::new();
        w.u64(1); // n
        w.u64(2); // dim
        w.u8(3); // FusionDist
        w.u32(1f32.to_bits());
        w.u64(0); // factor_dim = 0
        for len in [2, 3, 0] {
            w.f32_chunk(&vec![0.5; len]);
        }
        let err = EmbeddingStore::from_bytes(w.finish()).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::Inconsistent {
                field: "factor_dim",
                ..
            }
        ));
    }

    #[test]
    fn nonzero_factor_dim_on_non_fusion_variant_errors() {
        let s = store_with_rows(PluginVariant::Original);
        let mut raw = s.to_bytes();
        raw[21] = 3; // factor_dim u64 follows n, dim, variant, beta
        let err = EmbeddingStore::from_bytes(raw).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Inconsistent {
                field: "factor_dim",
                expected: 0,
                actual: 3
            }
        );
    }

    #[test]
    fn trailing_bytes_error() {
        let s = store_with_rows(PluginVariant::LorentzCosh);
        let mut raw = s.to_bytes();
        raw.push(0);
        assert_eq!(
            EmbeddingStore::from_bytes(raw),
            Err(DecodeError::TrailingBytes(1))
        );
    }
}
