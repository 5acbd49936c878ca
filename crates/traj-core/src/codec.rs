//! One framed container for every file the workspace writes.
//!
//! Five binary formats persist state: the ground-truth matrix cache
//! (`LHGM`, in `traj-dist`), the pivot index (`LHIX`), the serving
//! checkpoint (`LHCP`), the shard manifest (`LHSM`) and the write-ahead
//! log header (`LHWL`, all in `lh-core`). Each is a [`Format`] constant,
//! and a file of a format's current version is one frame:
//!
//! ```text
//! u32 magic | u32 version | u64 body_len | u64 checksum(body) | body
//! ```
//!
//! all little-endian. [`Format::unframe`] is the one place a magic or a
//! version number is checked: it checks the magic, the version, that
//! exactly `body_len` bytes follow, and that they hash to `checksum`, and
//! only then hands the body to the decoder. A format reads exactly the
//! version it writes; any other is [`DecodeError::UnsupportedVersion`],
//! and the upgrade path is to rebuild the file from its source.
//!
//! No single-bit flip of a file decodes: magic, version, length and
//! checksum are each compared for equality, and the checksum (the word
//! step of [`Fnv64`]) folds the body in one 8-byte word at a time through
//! `h ← (h ⊕ w) · p` with `p` odd — a bijection of `h` for a fixed word
//! and of the word for a fixed `h` — so a change confined to one word
//! always changes the result.
//!
//! Around the frame sits what every codec needs: a bounds-checked
//! [`Reader`] (each declared length is checked against the remaining
//! bytes before reading, and size products use checked arithmetic, so a
//! corrupt header errors instead of wrapping past a check), a [`Writer`]
//! that streams buffers as whole byte chunks, one [`DecodeError`], and
//! [`write_atomic`], the one tmp → sync → rename.
//!
//! A frame is written one of two ways, with one header and one checksum:
//! built in memory ([`Format::writer`] then [`Format::finish`]), or —
//! for a file too large to hold twice, such as a serving checkpoint —
//! streamed to its file by [`Format::write_atomic`], which hashes and
//! writes the body a block at a time and fills the header in last. The
//! two give the same bytes.

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of a frame before its body: magic, version, length, checksum.
const FRAME_LEN: usize = 4 + 4 + 8 + 8;

/// Why a binary payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a declared field.
    Truncated {
        /// Which field was being read.
        field: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte (a plugin variant, a log op, an option flag) holds no
    /// known value.
    BadVariantTag(u8),
    /// A length contradicts the header that implies it.
    Inconsistent {
        /// Which field disagreed.
        field: &'static str,
        /// Value the header implies.
        expected: usize,
        /// Value the payload declared.
        actual: usize,
    },
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    /// Header sizes so large their product overflows — no genuine
    /// payload can reach this.
    HeaderOverflow {
        /// Which field's size overflowed.
        field: &'static str,
    },
    /// The file does not start with its format's magic.
    BadMagic(u32),
    /// The file declares a version its format does not read.
    UnsupportedVersion(u32),
    /// A framed body does not hash to the checksum in its frame.
    ChecksumMismatch {
        /// Checksum recorded in the frame.
        expected: u64,
        /// Checksum of the body as read.
        found: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated {
                field,
                needed,
                remaining,
            } => write!(
                f,
                "truncated payload: field `{field}` needs {needed} bytes, {remaining} remain"
            ),
            DecodeError::BadVariantTag(tag) => write!(f, "unknown tag byte {tag}"),
            DecodeError::Inconsistent {
                field,
                expected,
                actual,
            } => write!(
                f,
                "corrupt payload: `{field}` is {actual}, header implies {expected}"
            ),
            DecodeError::TrailingBytes(extra) => {
                write!(f, "corrupt payload: {extra} trailing bytes after decode")
            }
            DecodeError::HeaderOverflow { field } => {
                write!(f, "corrupt payload: header sizes for `{field}` overflow")
            }
            DecodeError::BadMagic(magic) => write!(f, "bad magic {magic:#010x}"),
            DecodeError::UnsupportedVersion(version) => {
                write!(f, "unsupported format version {version}")
            }
            DecodeError::ChecksumMismatch { expected, found } => write!(
                f,
                "corrupt payload: body checksum {found:016x}, frame records {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a, 64-bit: the workspace's one hash, in two step widths.
///
/// * The **byte step** ([`Fnv64::write`], [`Fnv64::hash`]) is FNV-1a
///   proper. WAL record frames and the matrix cache fingerprint use it,
///   so their values are those of every earlier release.
/// * The **word step** applies the same xor-multiply to little-endian
///   8-byte words, the last one zero-padded: one dependent multiply per
///   eight bytes instead of per byte. It is the frame's body checksum;
///   zero padding is harmless there because the frame pins the body
///   length separately.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Byte step: folds `bytes` in one at a time.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// The byte-step hash of `bytes` alone.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::default();
        h.write(bytes);
        h.finish()
    }

    /// Word step over `words`, whose length is a multiple of 8.
    fn write_words(&mut self, words: &[u8]) {
        for word in words.chunks_exact(8) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
        }
    }

    /// Ends a word-step hash with `tail` (under 8 bytes), zero-padded to
    /// one last word when it is not empty.
    fn finish_words(mut self, tail: &[u8]) -> u64 {
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_words(&last);
        }
        self.0
    }

    /// The word-step hash of `body` alone: a frame's checksum.
    fn checksum(body: &[u8]) -> u64 {
        let (words, tail) = body.split_at(body.len() / 8 * 8);
        let mut h = Fnv64::default();
        h.write_words(words);
        h.finish_words(tail)
    }
}

/// One binary file format: its magic and the one version it writes and
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Four ASCII bytes at the start of every file of the format.
    pub magic: [u8; 4],
    /// The version the encoder writes and the decoder reads.
    pub version: u32,
}

impl Format {
    /// A writer whose bytes become the body of one current-version frame,
    /// to be closed by [`Format::finish`].
    pub fn writer(&self) -> Writer {
        let mut w = Writer::new();
        w.bytes(&[0; FRAME_LEN]); // the header, set by `finish`
        w
    }

    /// The frame of a [`Format::writer`]: its bytes, with the header
    /// filled in.
    pub fn finish(&self, w: Writer) -> Vec<u8> {
        let mut buf = w.finish();
        let body = &buf[FRAME_LEN..];
        let header = self.header(body.len() as u64, Fnv64::checksum(body));
        buf[..FRAME_LEN].copy_from_slice(&header);
        buf
    }

    /// Publishes one frame at `path` by [`write_atomic`]'s protocol, with
    /// the body `body` writes streamed to the file instead of built in
    /// memory: the writer hands each block of whole words to the file
    /// and to a running word-step checksum as it fills, and once the body
    /// is done the header is written over the placeholder it began with.
    /// The file is byte for byte what [`Format::finish`] returns for the
    /// same writes, while at most one block is ever held in memory.
    pub fn write_atomic(&self, path: &Path, body: impl FnOnce(&mut Writer)) -> io::Result<()> {
        publish(path, |mut file| {
            file.write_all(&[0; FRAME_LEN])?; // the header, written last
            let mut w = Writer {
                buf: Vec::with_capacity(STREAM_BLOCK + SCRATCH_BYTES),
                sink: Some(Sink {
                    file,
                    sum: Fnv64::default(),
                    written: 0,
                    error: None,
                }),
            };
            body(&mut w);
            let (mut file, len, sum) = w.close()?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&self.header(len, sum))?;
            Ok(file)
        })
    }

    /// The frame header of a body of `len` bytes that hashes to `sum`.
    fn header(&self, len: u64, sum: u64) -> [u8; FRAME_LEN] {
        let mut header = [0; FRAME_LEN];
        header[..4].copy_from_slice(&self.magic);
        header[4..8].copy_from_slice(&self.version.to_le_bytes());
        header[8..16].copy_from_slice(&len.to_le_bytes());
        header[16..].copy_from_slice(&sum.to_le_bytes());
        header
    }

    /// Reads a file that is exactly one frame: a reader over its
    /// verified body.
    pub fn unframe<'a>(&self, data: &'a [u8]) -> Result<Reader<'a>, DecodeError> {
        let mut file = Reader::new(data);
        let body = self.unframe_prefix(&mut file)?;
        file.finish()?;
        Ok(body)
    }

    /// [`Format::unframe`] for a frame at the front of `data` that more
    /// bytes may follow (the WAL's records follow its header): advances
    /// `data` past the frame.
    pub fn unframe_prefix<'a>(&self, data: &mut Reader<'a>) -> Result<Reader<'a>, DecodeError> {
        let magic = data.u32("magic")?;
        if magic != u32::from_le_bytes(self.magic) {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = data.u32("version")?;
        if version != self.version {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let len = data.count("body length")?;
        let expected = data.u64("checksum")?;
        let body = data.take("body", len)?;
        let found = Fnv64::checksum(body);
        if found != expected {
            return Err(DecodeError::ChecksumMismatch { expected, found });
        }
        Ok(Reader::new(body))
    }
}

/// A bounds-checked little-endian cursor over a byte slice. Every read
/// names the field it reads, for the error.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// The next `len` bytes.
    pub fn take(&mut self, field: &'static str, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.data.len() < len {
            return Err(DecodeError::Truncated {
                field,
                needed: len,
                remaining: self.data.len(),
            });
        }
        let (head, rest) = self.data.split_at(len);
        self.data = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self.take(field, N)?.try_into().expect("took N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(field, 1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// A `u64` count or length, as a `usize`.
    pub fn count(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        usize::try_from(self.u64(field)?).map_err(|_| DecodeError::HeaderOverflow { field })
    }

    /// A `u64`-length-prefixed byte chunk (a nested payload).
    pub fn chunk(&mut self, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.count(field)?;
        self.take(field, len)
    }

    /// A `u64`-count-prefixed `f32` buffer.
    pub fn f32_chunk(&mut self, field: &'static str) -> Result<Vec<f32>, DecodeError> {
        let count = self.count(field)?;
        self.values(field, count, f32::from_le_bytes)
    }

    /// `count` values of `W` little-endian bytes each (the caller knows
    /// the count), converted by `from` — e.g. `f64::from_le_bytes`.
    pub fn values<T, const W: usize>(
        &mut self,
        field: &'static str,
        count: usize,
        from: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let len = count
            .checked_mul(W)
            .ok_or(DecodeError::HeaderOverflow { field })?;
        let raw = self.take(field, len)?;
        Ok(raw
            .chunks_exact(W)
            .map(|c| from(c.try_into().expect("chunks_exact(W)")))
            .collect())
    }

    /// Ends the read: every byte must have been consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.data.len() {
            0 => Ok(()),
            extra => Err(DecodeError::TrailingBytes(extra)),
        }
    }
}

/// Bytes a streamed writer holds before it hands them to its file.
const STREAM_BLOCK: usize = 64 * 1024;
/// Stack scratch [`Writer::values`] converts through.
const SCRATCH_BYTES: usize = 16 * 1024;

/// A little-endian byte buffer, bare ([`Writer::new`]), the body of a
/// frame ([`Format::writer`]), or the body of a frame streamed to its
/// file ([`Format::write_atomic`]).
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Where a streamed body goes; `None` in memory.
    sink: Option<Sink>,
}

/// The file behind a streamed [`Writer`].
#[derive(Debug)]
struct Sink {
    file: File,
    /// Word-step checksum of the bytes written so far.
    sum: Fnv64,
    /// Bytes written so far.
    written: u64,
    /// The first write error: later bytes are dropped, and the stream's
    /// close returns it.
    error: Option<io::Error>,
}

impl Writer {
    /// An empty, unframed buffer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Reserves room for `additional` more bytes (a streamed writer never
    /// holds more than a block, and ignores this).
    pub fn reserve(&mut self, additional: usize) {
        if self.sink.is_none() {
            self.buf.reserve(additional);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.sink.is_some() && self.buf.len() >= STREAM_BLOCK {
            self.spill();
        }
    }

    /// Hands the buffer's whole words to the sink — hashed a word at a
    /// time, then written — and keeps the tail of under 8 bytes.
    fn spill(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let whole = self.buf.len() / 8 * 8;
        sink.sum.write_words(&self.buf[..whole]);
        sink.written += whole as u64;
        if sink.error.is_none() {
            sink.error = sink.file.write_all(&self.buf[..whole]).err();
        }
        self.buf.drain(..whole);
    }

    /// Bytes written so far, streamed or buffered.
    fn written(&self) -> u64 {
        self.sink.as_ref().map_or(0, |sink| sink.written) + self.buf.len() as u64
    }

    /// Ends a streamed body: writes the rest and returns the file, the
    /// body's length and its checksum — or the first write error.
    fn close(mut self) -> io::Result<(File, u64, u64)> {
        self.spill();
        let Sink {
            mut file,
            sum,
            written,
            error,
        } = self.sink.take().expect("close ends a streamed writer");
        if let Some(e) = error {
            return Err(e);
        }
        file.write_all(&self.buf)?;
        Ok((
            file,
            written + self.buf.len() as u64,
            sum.finish_words(&self.buf),
        ))
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`-length-prefixed byte chunk (a nested payload) of `len`
    /// bytes that `body` writes in place, so the payload is never built
    /// apart first. The length goes first, so a streamed writer never
    /// looks back; panics if `body` writes any other number of bytes.
    pub fn chunk(&mut self, len: usize, body: impl FnOnce(&mut Writer)) {
        self.u64(len as u64);
        let start = self.written();
        body(self);
        assert_eq!(
            self.written() - start,
            len as u64,
            "a chunk's body must be as long as it declared"
        );
    }

    /// A `u64`-count-prefixed `f32` buffer.
    pub fn f32_chunk(&mut self, vals: &[f32]) {
        self.u64(vals.len() as u64);
        self.values(vals, f32::to_le_bytes);
    }

    /// Values as `W` little-endian bytes each, converted by `to` — e.g.
    /// `f64::to_le_bytes` — and unprefixed. Converted a block at a time
    /// in 16 KiB of stack scratch, then appended: one pass over the
    /// output, where zero-filling it first would take two.
    pub fn values<T: Copy, const W: usize>(&mut self, vals: &[T], to: impl Fn(T) -> [u8; W]) {
        let mut scratch = [0u8; SCRATCH_BYTES];
        for block in vals.chunks(scratch.len() / W) {
            let bytes = &mut scratch[..block.len() * W];
            for (dst, &v) in bytes.chunks_exact_mut(W).zip(block) {
                dst.copy_from_slice(&to(v));
            }
            self.bytes(bytes);
        }
    }

    /// The bytes written (a frame is closed by [`Format::finish`]).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// `write_atomic`'s staging sibling of `path`: `<name>.<pid>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Publishes `bytes` at `path` atomically: writes a sibling
/// `<name>.<pid>.tmp`, syncs it and renames it over `path`, so a reader —
/// or a recovery after a crash at any point — finds the old file or the
/// new one, never a mix. The rename is the last step: `Ok` means `path`
/// holds `bytes`, and `Err` means it still holds what it held before (the
/// sibling is removed). Making the rename itself survive power loss is
/// the caller's choice (a sync of the directory, after this returns).
///
/// The sibling is unique per process, so processes racing on one path
/// (two builders caching one matrix) each rename a complete file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    publish(path, |mut file| {
        file.write_all(bytes)?;
        Ok(file)
    })
}

/// The one tmp → sync → rename: `fill` writes the staging sibling, and
/// the rest is [`write_atomic`]'s contract.
fn publish(path: &Path, fill: impl FnOnce(File) -> io::Result<File>) -> io::Result<()> {
    let tmp = tmp_path(path);
    let published = (|| {
        let file = fill(File::create(&tmp)?)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Format = Format {
        magic: *b"TEST",
        version: 2,
    };

    #[test]
    fn byte_step_matches_published_fnv1a_vectors() {
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv64::hash(b"foobar"));
    }

    #[test]
    fn word_step_zero_pads_the_last_word() {
        let short = b"abcdefghij".to_vec();
        let mut padded = short.clone();
        padded.extend_from_slice(&[0; 6]);
        assert_eq!(
            Fnv64::checksum(&padded),
            Fnv64::checksum(&short),
            "the frame pins the length"
        );
        let mut flipped = short.clone();
        flipped[9] ^= 1;
        assert_ne!(Fnv64::checksum(&flipped), Fnv64::checksum(&short));
    }

    fn sample_frame() -> Vec<u8> {
        let mut w = TEST.writer();
        w.u64(7);
        w.f32_chunk(&[1.5, -0.0, f32::NAN]);
        w.u8(3);
        TEST.finish(w)
    }

    #[test]
    fn frame_roundtrips() {
        let raw = sample_frame();
        assert_eq!(raw.len(), FRAME_LEN + 8 + 8 + 12 + 1);
        let mut body = TEST.unframe(&raw).expect("valid frame");
        assert_eq!(body.u64("n"), Ok(7));
        let vals = body.f32_chunk("vals").expect("vals");
        let bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = [1.5f32, -0.0, f32::NAN]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, want);
        assert_eq!(body.u8("tag"), Ok(3));
        assert_eq!(body.finish(), Ok(()));
    }

    /// Every truncation and every single-bit flip of a current-version
    /// frame is an error: the argument in the module docs, exhaustively.
    #[test]
    fn every_truncation_and_bit_flip_errors() {
        let raw = sample_frame();
        for cut in 0..raw.len() {
            assert!(TEST.unframe(&raw[..cut]).is_err(), "cut at {cut}");
        }
        for byte in 0..raw.len() {
            for bit in 0..8 {
                let mut bad = raw.clone();
                bad[byte] ^= 1 << bit;
                assert!(TEST.unframe(&bad).is_err(), "flip {byte}.{bit}");
            }
        }
        let mut long = raw.clone();
        long.push(0);
        assert_eq!(
            TEST.unframe(&long).unwrap_err(),
            DecodeError::TrailingBytes(1)
        );
    }

    #[test]
    fn each_header_field_has_its_own_error() {
        let raw = sample_frame();
        let with = |at: usize, v: u8| {
            let mut bad = raw.clone();
            bad[at] = v;
            TEST.unframe(&bad).unwrap_err()
        };
        assert!(matches!(with(0, b'X'), DecodeError::BadMagic(_)));
        // Every version but the current one, older ones included.
        for version in [0, 1, 3, 9] {
            assert_eq!(
                with(4, version),
                DecodeError::UnsupportedVersion(version.into())
            );
        }
        assert!(matches!(with(8, 0xff), DecodeError::Truncated { .. }));
        assert!(matches!(
            with(16, !raw[16]),
            DecodeError::ChecksumMismatch { .. }
        ));
        assert!(matches!(
            with(FRAME_LEN, 8),
            DecodeError::ChecksumMismatch { .. }
        ));
    }

    /// A prefix read leaves what follows a frame.
    #[test]
    fn a_prefix_read_stops_at_the_frame() {
        let mut stream = sample_frame();
        stream.extend_from_slice(&[9, 9]);
        let mut data = Reader::new(&stream);
        let body = TEST.unframe_prefix(&mut data).expect("frame");
        assert_eq!((body.remaining(), data.remaining()), (8 + 8 + 12 + 1, 2));
    }

    #[test]
    fn readers_check_lengths_before_reading() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // count · 4 would wrap
        let raw = w.finish();
        assert!(matches!(
            Reader::new(&raw).f32_chunk("vals"),
            Err(DecodeError::HeaderOverflow { .. })
        ));
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32("word"),
            Err(DecodeError::Truncated {
                field: "word",
                needed: 4,
                remaining: 3
            })
        );
        assert!(r.values("f", 1, f64::from_le_bytes).is_err());
        assert!(matches!(
            r.values("ids", usize::MAX, u64::from_le_bytes),
            Err(DecodeError::HeaderOverflow { .. })
        ));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes(3)));
    }

    #[test]
    fn fixed_count_values_roundtrip() {
        let mut w = Writer::new();
        w.values(&[1.5, -2.25, f64::INFINITY], f64::to_le_bytes);
        w.values(&[7, 0, u32::MAX], u32::to_le_bytes);
        w.values(&[u64::MAX, 1], u64::to_le_bytes);
        w.chunk(4, |nested| nested.bytes(b"nest"));
        w.chunk(0, |_| ());
        let raw = w.finish();
        let mut r = Reader::new(&raw);
        let f = r.values("f", 3, f64::from_le_bytes);
        assert_eq!(f, Ok(vec![1.5, -2.25, f64::INFINITY]));
        assert_eq!(
            r.values("u", 3, u32::from_le_bytes),
            Ok(vec![7, 0, u32::MAX])
        );
        assert_eq!(
            r.values("ids", 2, u64::from_le_bytes),
            Ok(vec![u64::MAX, 1])
        );
        assert_eq!(r.chunk("nest"), Ok(&b"nest"[..]));
        assert_eq!(r.chunk("empty"), Ok(&b""[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    /// Writes of every kind, `n` values long: `7 + 4 + n·12` body bytes
    /// plus a nested chunk.
    fn mixed_body(w: &mut Writer, n: usize) {
        w.u8(1);
        w.u32(n as u32);
        w.values(&(0..n as u64).collect::<Vec<_>>(), u64::to_le_bytes);
        w.chunk(n * 4 + 2, |nested| {
            nested.values(&vec![0.5f32; n], f32::to_le_bytes);
            nested.bytes(b"ok");
        });
        w.u8(2);
    }

    /// A streamed frame is the in-memory frame, byte for byte: for an
    /// empty body, bodies that do and do not end on a word, and one that
    /// crosses the stream's block several times (its `n` values take
    /// 12 bytes each, three blocks' worth) with a tail.
    #[test]
    fn a_streamed_frame_is_the_frame_finish_builds() {
        let dir = std::env::temp_dir().join(format!("traj-core-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("frame.bin");
        let bodies: [&dyn Fn(&mut Writer); 5] = [
            &|_| (),
            &|w| w.bytes(b"abcde"),
            &|w| w.u64(7),
            &|w| mixed_body(w, 3),
            &|w| mixed_body(w, STREAM_BLOCK / 4 + 13),
        ];
        for (i, body) in bodies.iter().enumerate() {
            let mut w = TEST.writer();
            body(&mut w);
            let want = TEST.finish(w);
            TEST.write_atomic(&path, body).expect("stream");
            let got = std::fs::read(&path).expect("read");
            assert_eq!(got.len(), want.len(), "body {i}");
            assert!(got == want, "body {i}: streamed bytes differ");
            assert!(TEST.unframe(&got).is_ok(), "body {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "as long as it declared")]
    fn a_chunk_of_another_length_panics() {
        Writer::new().chunk(3, |w| w.u64(1));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_sibling() {
        let dir = std::env::temp_dir().join(format!("traj-core-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join("file.bin");
        write_atomic(&path, b"old").expect("write");
        write_atomic(&path, b"new").expect("replace");
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        let sibling = format!("file.bin.{}.tmp", std::process::id());
        assert_eq!(tmp_path(&path), dir.join(sibling));
        assert!(!tmp_path(&path).exists());

        // A sibling that cannot be created fails the write and leaves the
        // old file in place; so does a rename that cannot replace `path`.
        std::fs::create_dir(tmp_path(&path)).expect("block the sibling");
        assert!(write_atomic(&path, b"newer").is_err());
        assert!(TEST.write_atomic(&path, |w| w.u8(1)).is_err(), "streamed");
        assert_eq!(std::fs::read(&path).expect("read"), b"new");
        std::fs::remove_dir(tmp_path(&path)).expect("unblock");
        let target = dir.join("dir.bin");
        std::fs::create_dir(&target).expect("a directory at the target");
        assert!(write_atomic(&target, b"newer").is_err());
        assert!(target.is_dir() && !tmp_path(&target).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_messages_name_their_field() {
        let err = DecodeError::Truncated {
            field: "hyper",
            needed: 40,
            remaining: 8,
        };
        assert!(err.to_string().contains("hyper"));
        assert!(DecodeError::BadVariantTag(5).to_string().contains('5'));
        assert!(DecodeError::ChecksumMismatch {
            expected: 0xab,
            found: 0xcd
        }
        .to_string()
        .contains("ab"));
    }
}
