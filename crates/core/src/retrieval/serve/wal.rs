//! Crash-safe persistence for the serving tier: write-ahead log plus
//! atomic-rename checkpoints.
//!
//! The durability story mirrors the `matrix/cache` conventions elsewhere
//! in the workspace: little-endian framing, magic + version headers,
//! every declared length validated before reading (via
//! [`codec_util`](super::super::codec_util)), and checkpoint files
//! written to a temporary sibling then atomically renamed into place so a
//! crash never leaves a half-written checkpoint under the real name.
//!
//! # WAL format (`LHWL`, version 1)
//!
//! ```text
//! u32 magic "LHWL" | u32 version | u64 checkpoint_epoch
//! repeated records:
//!   u32 body_len | u64 fnv1a64(body) | body
//! body:
//!   u8 op (1 = upsert, 2 = remove) | u64 id
//!   upsert only: f32-chunk eu | u8 has_hyper [f32-chunk] | u8 has_factors [f32-chunk]
//! ```
//!
//! Replay stops at the first frame that is incomplete or fails its
//! checksum — a torn tail from a crash mid-append — and reports how many
//! bytes it discarded. A frame whose checksum verifies but whose body
//! does not parse is *corruption*, not a torn write, and errors.
//!
//! `checkpoint_epoch` ties a WAL to the checkpoint it extends. A shard's
//! fold first publishes the new checkpoint (tmp + rename), then replaces
//! the WAL, re-logging the writes that landed after its pin. A crash
//! between the two leaves an old WAL whose ops are already folded into
//! the checkpoint — recovery detects the epoch mismatch and discards it
//! instead of double-applying.
//!
//! # Checkpoint format (`LHCP`, version 1)
//!
//! ```text
//! u32 magic "LHCP" | u32 version | u64 epoch | u64 compactions
//! u64 n | n × u64 ids | u64 payload_len | store payload (store codec)
//! ```
//!
//! # Shard manifest format (`LHSM`, version 1)
//!
//! ```text
//! u32 magic "LHSM" | u32 version | u32 shards
//! ```
//!
//! A serving directory holds one manifest naming the shard count plus one
//! `shard-NNNN/` subdirectory per shard, each holding that shard's
//! checkpoint (`serve.ckpt`) and WAL (`serve.wal`). A single store is a
//! one-shard directory: the manifest plus `shard-0000/`. The manifest is
//! authoritative on recovery — the partition function is keyed by the
//! shard count, so opening with a different count would route ids to the
//! wrong shards — and a directory without one (such as the pre-sharding
//! single-store layout, a bare `serve.ckpt` + `serve.wal`) does not
//! recover: it is a typed I/O error.
//!
//! By default appends are flushed to the OS (process-crash-safe) but not
//! fsynced; [`WalFile::set_fsync`] upgrades each append to power-loss
//! durability at the usual throughput cost.

use super::super::codec::StoreDecodeError;
use super::super::codec_util::{guard, put_f32_chunk, take_chunk, take_f32_chunk, take_u64};
use super::super::store::EmbeddingStore;
use super::ServeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

const WAL_MAGIC: u32 = u32::from_le_bytes(*b"LHWL");
const CKPT_MAGIC: u32 = u32::from_le_bytes(*b"LHCP");
const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"LHSM");
const VERSION: u32 = 1;
const OP_UPSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
/// Bytes of framing before a record body: u32 length + u64 checksum.
const FRAME_HEADER: usize = 4 + 8;

/// WAL file name inside a serving directory.
pub(crate) const WAL_FILE: &str = "serve.wal";
/// Checkpoint file name inside a serving directory.
pub(crate) const CKPT_FILE: &str = "serve.ckpt";
/// Shard manifest file name inside a sharded serving directory.
pub(crate) const MANIFEST_FILE: &str = "serve.manifest";

/// Name of shard `s`'s subdirectory inside a sharded serving directory.
pub(crate) fn shard_dir_name(s: usize) -> String {
    format!("shard-{s:04}")
}

/// Writes the shard manifest via tmp + atomic rename.
pub(crate) fn write_manifest(path: &Path, shards: u32) -> Result<(), ServeError> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(MANIFEST_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(shards);
    let tmp = path.with_extension("manifest.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&buf.freeze().to_vec())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates the shard manifest, returning the shard count.
pub(crate) fn read_manifest(path: &Path) -> Result<u32, ServeError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut data = Bytes::from(raw);
    let magic = take_u64_pair_u32(&mut data, "manifest magic")?;
    if magic != MANIFEST_MAGIC {
        return Err(ServeError::Decode(StoreDecodeError::BadMagic(magic)));
    }
    let version = take_u64_pair_u32(&mut data, "manifest version")?;
    if version != VERSION {
        return Err(ServeError::Decode(StoreDecodeError::UnsupportedVersion(
            version,
        )));
    }
    let shards = take_u64_pair_u32(&mut data, "manifest shard count")?;
    if data.remaining() != 0 {
        return Err(ServeError::Decode(StoreDecodeError::TrailingBytes(
            data.remaining(),
        )));
    }
    if shards == 0 {
        return Err(ServeError::Corrupt("manifest names zero shards".into()));
    }
    Ok(shards)
}

/// FNV-1a over a record body — cheap, dependency-free, and plenty to
/// detect the torn tail of a crashed append.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One logical write, as logged and replayed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalOp {
    /// Insert or replace the row for `id`.
    Upsert {
        id: u64,
        eu: Vec<f32>,
        hyper: Option<Vec<f32>>,
        factors: Option<Vec<f32>>,
    },
    /// Remove the row for `id` (a no-op on replay if absent).
    Remove { id: u64 },
}

impl WalOp {
    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            WalOp::Upsert {
                id,
                eu,
                hyper,
                factors,
            } => {
                buf.put_u8(OP_UPSERT);
                buf.put_u64_le(*id);
                put_f32_chunk(&mut buf, eu);
                for part in [hyper, factors] {
                    match part {
                        Some(vals) => {
                            buf.put_u8(1);
                            put_f32_chunk(&mut buf, vals);
                        }
                        None => buf.put_u8(0),
                    }
                }
            }
            WalOp::Remove { id } => {
                buf.put_u8(OP_REMOVE);
                buf.put_u64_le(*id);
            }
        }
        buf.freeze().to_vec()
    }

    fn decode(body: Vec<u8>) -> Result<WalOp, StoreDecodeError> {
        let mut data = Bytes::from(body);
        guard(&data, "wal op tag", 1)?;
        let tag = data.get_u8();
        let id = take_u64(&mut data, "wal op id")?;
        let op = match tag {
            OP_UPSERT => {
                let eu = take_f32_chunk(&mut data, "wal eu row")?;
                let mut optional = |field| -> Result<Option<Vec<f32>>, StoreDecodeError> {
                    guard(&data, field, 1)?;
                    match data.get_u8() {
                        0 => Ok(None),
                        1 => Ok(Some(take_f32_chunk(&mut data, field)?)),
                        other => Err(StoreDecodeError::BadVariantTag(other)),
                    }
                };
                let hyper = optional("wal hyper row")?;
                let factors = optional("wal factor row")?;
                WalOp::Upsert {
                    id,
                    eu,
                    hyper,
                    factors,
                }
            }
            OP_REMOVE => WalOp::Remove { id },
            other => return Err(StoreDecodeError::BadVariantTag(other)),
        };
        if data.remaining() != 0 {
            return Err(StoreDecodeError::TrailingBytes(data.remaining()));
        }
        Ok(op)
    }
}

/// An open write-ahead log positioned at its tail.
#[derive(Debug)]
pub(crate) struct WalFile {
    writer: BufWriter<File>,
    fsync: bool,
}

impl WalFile {
    /// Creates (truncating) a fresh WAL bound to `checkpoint_epoch`.
    pub(crate) fn create(path: &Path, checkpoint_epoch: u64) -> Result<WalFile, ServeError> {
        let mut header = BytesMut::new();
        header.put_u32_le(WAL_MAGIC);
        header.put_u32_le(VERSION);
        header.put_u64_le(checkpoint_epoch);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut writer = BufWriter::new(file);
        writer.write_all(&header.freeze().to_vec())?;
        writer.flush()?;
        Ok(WalFile {
            writer,
            fsync: false,
        })
    }

    /// Opens an existing WAL for appending (after replay).
    fn open_append(path: &Path) -> Result<WalFile, ServeError> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalFile {
            writer: BufWriter::new(file),
            fsync: false,
        })
    }

    /// Whether each append is fsynced (power-loss durable) rather than
    /// just flushed to the OS (process-crash durable).
    pub(crate) fn set_fsync(&mut self, fsync: bool) {
        self.fsync = fsync;
    }

    /// Appends one framed, checksummed record and flushes it.
    pub(crate) fn append(&mut self, op: &WalOp) -> Result<(), ServeError> {
        let body = op.encode();
        let mut frame = BytesMut::new();
        frame.put_u32_le(body.len() as u32);
        frame.put_u64_le(fnv1a64(&body));
        self.writer.write_all(&frame.freeze().to_vec())?;
        self.writer.write_all(&body)?;
        self.writer.flush()?;
        if self.fsync {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }
}

/// Result of replaying a WAL file.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Ops that passed framing + checksum, in append order.
    pub ops: Vec<WalOp>,
    /// The checkpoint epoch the WAL header binds to.
    pub checkpoint_epoch: u64,
    /// Bytes of torn tail discarded (0 after a clean shutdown).
    #[cfg_attr(not(test), allow(dead_code))] // asserted by the wal tests
    pub truncated_bytes: usize,
}

/// Reads and verifies a WAL file, discarding any torn tail, and reopens
/// it for appending. Returns the replay and the reopened handle.
pub(crate) fn replay(path: &Path) -> Result<(WalReplay, WalFile), ServeError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut data = Bytes::from(raw);

    let magic = take_u64_pair_u32(&mut data, "wal magic")?;
    if magic != WAL_MAGIC {
        return Err(ServeError::Decode(StoreDecodeError::BadMagic(magic)));
    }
    let version = take_u64_pair_u32(&mut data, "wal version")?;
    if version != VERSION {
        return Err(ServeError::Decode(StoreDecodeError::UnsupportedVersion(
            version,
        )));
    }
    let checkpoint_epoch =
        take_u64(&mut data, "wal checkpoint epoch").map_err(ServeError::Decode)?;

    let mut ops = Vec::new();
    loop {
        if data.remaining() < FRAME_HEADER {
            break;
        }
        // Peek the frame without consuming, so a torn tail leaves
        // `data.remaining()` as the discard count.
        let head = data.as_slice();
        let body_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        let checksum = u64::from_le_bytes(head[4..12].try_into().expect("12-byte frame header"));
        if data.remaining() < FRAME_HEADER + body_len {
            break;
        }
        let body = &head[FRAME_HEADER..FRAME_HEADER + body_len];
        if fnv1a64(body) != checksum {
            break;
        }
        let body = body.to_vec();
        data.advance(FRAME_HEADER + body_len);
        ops.push(WalOp::decode(body).map_err(|e| {
            ServeError::Corrupt(format!(
                "wal record {} checksummed but unparseable: {e}",
                ops.len()
            ))
        })?);
    }
    let truncated_bytes = data.remaining();

    // Reopen for appending *after* the full read. If a tail was torn we
    // rewrite the verified prefix so the file ends on a frame boundary.
    let wal = if truncated_bytes == 0 {
        WalFile::open_append(path)?
    } else {
        let mut fresh = WalFile::create(path, checkpoint_epoch)?;
        for op in &ops {
            fresh.append(op)?;
        }
        fresh
    };
    let replay = WalReplay {
        ops,
        checkpoint_epoch,
        truncated_bytes,
    };
    Ok((replay, wal))
}

/// Reads a little-endian u32 (helper so header reads share the u64 error
/// plumbing without widening silently).
fn take_u64_pair_u32(data: &mut Bytes, field: &'static str) -> Result<u32, ServeError> {
    guard(data, field, 4).map_err(ServeError::Decode)?;
    Ok(data.get_u32_le())
}

/// A decoded checkpoint: the compacted base plus its ids and counters.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub store: EmbeddingStore,
    pub ids: Vec<u64>,
    pub epoch: u64,
    pub compactions: u64,
}

/// Writes a checkpoint to `path` via a temporary sibling and atomic
/// rename — readers of `path` see either the old checkpoint or the new
/// one, never a torn mix.
pub(crate) fn write_checkpoint(path: &Path, ckpt: &Checkpoint) -> Result<(), ServeError> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(CKPT_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(ckpt.epoch);
    buf.put_u64_le(ckpt.compactions);
    buf.put_u64_le(ckpt.ids.len() as u64);
    for &id in &ckpt.ids {
        buf.put_u64_le(id);
    }
    let payload = ckpt.store.to_bytes().to_vec();
    buf.put_u64_le(payload.len() as u64);
    let tmp = path.with_extension("ckpt.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&buf.freeze().to_vec())?;
    file.write_all(&payload)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads and validates a checkpoint file.
pub(crate) fn read_checkpoint(path: &Path) -> Result<Checkpoint, ServeError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut data = Bytes::from(raw);
    let magic = take_u64_pair_u32(&mut data, "ckpt magic")?;
    if magic != CKPT_MAGIC {
        return Err(ServeError::Decode(StoreDecodeError::BadMagic(magic)));
    }
    let version = take_u64_pair_u32(&mut data, "ckpt version")?;
    if version != VERSION {
        return Err(ServeError::Decode(StoreDecodeError::UnsupportedVersion(
            version,
        )));
    }
    let epoch = take_u64(&mut data, "ckpt epoch").map_err(ServeError::Decode)?;
    let compactions = take_u64(&mut data, "ckpt compactions").map_err(ServeError::Decode)?;
    let n = take_u64(&mut data, "ckpt id count").map_err(ServeError::Decode)? as usize;
    let id_bytes =
        n.checked_mul(8)
            .ok_or(ServeError::Decode(StoreDecodeError::HeaderOverflow {
                field: "ckpt id count",
            }))?;
    let raw_ids = take_chunk(&mut data, "ckpt ids", id_bytes).map_err(ServeError::Decode)?;
    let ids: Vec<u64> = raw_ids
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte id")))
        .collect();
    let payload_len =
        take_u64(&mut data, "ckpt payload length").map_err(ServeError::Decode)? as usize;
    let payload = take_chunk(&mut data, "ckpt payload", payload_len).map_err(ServeError::Decode)?;
    if data.remaining() != 0 {
        return Err(ServeError::Decode(StoreDecodeError::TrailingBytes(
            data.remaining(),
        )));
    }
    let store = EmbeddingStore::from_bytes(Bytes::from(payload)).map_err(ServeError::Decode)?;
    if store.len() != ids.len() {
        return Err(ServeError::Corrupt(format!(
            "checkpoint id/row mismatch: {} ids, {} rows",
            ids.len(),
            store.len()
        )));
    }
    Ok(Checkpoint {
        store,
        ids,
        epoch,
        compactions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lh-serve-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Upsert {
                id: 7,
                eu: vec![1.0, -2.5],
                hyper: Some(vec![1.0, 0.5, 0.25]),
                factors: None,
            },
            WalOp::Remove { id: 7 },
            WalOp::Upsert {
                id: 9,
                eu: vec![f32::NAN, 0.0],
                hyper: None,
                factors: Some(vec![0.1, 0.2, 0.3, 0.4]),
            },
        ]
    }

    fn bits(op: &WalOp) -> Vec<u8> {
        op.encode()
    }

    #[test]
    fn wal_roundtrips_ops() {
        let dir = tmpdir("roundtrip");
        let path = dir.join(WAL_FILE);
        let mut wal = WalFile::create(&path, 3).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        let (replay, _wal) = replay(&path).expect("replay");
        assert_eq!(replay.checkpoint_epoch, 3);
        assert_eq!(replay.truncated_bytes, 0);
        let expect: Vec<Vec<u8>> = sample_ops().iter().map(bits).collect();
        let got: Vec<Vec<u8>> = replay.ops.iter().map(bits).collect();
        assert_eq!(got, expect, "ops replay bit-identically (NaN included)");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_healed() {
        let dir = tmpdir("torn");
        let path = dir.join(WAL_FILE);
        let mut wal = WalFile::create(&path, 0).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        // Tear the last record mid-body.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let (replay1, _wal) = replay(&path).expect("replay torn");
        assert_eq!(replay1.ops.len(), sample_ops().len() - 1);
        assert!(replay1.truncated_bytes > 0);
        // The heal rewrote a clean file: replaying again sees no tear.
        let (replay2, _wal) = replay(&path).expect("replay healed");
        assert_eq!(replay2.truncated_bytes, 0);
        assert_eq!(replay2.ops.len(), replay1.ops.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checksum_stops_replay() {
        let dir = tmpdir("checksum");
        let path = dir.join(WAL_FILE);
        let mut wal = WalFile::create(&path, 0).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        // Flip one byte in the *second* record's body: replay keeps the
        // first record and treats everything from the flip as torn.
        let mut full = std::fs::read(&path).expect("read");
        let first_body = sample_ops()[0].encode().len();
        let second_start = 16 + FRAME_HEADER + first_body + FRAME_HEADER;
        full[second_start] ^= 0xff;
        std::fs::write(&path, &full).expect("corrupt");
        let (replay1, _wal) = replay(&path).expect("replay");
        assert_eq!(replay1.ops.len(), 1);
        assert!(replay1.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrips_atomically() {
        use crate::config::PluginVariant;
        let dir = tmpdir("ckpt");
        let path = dir.join(CKPT_FILE);
        let mut store = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        store.push(&[1.0, 2.0], None, None);
        store.push(&[f32::NAN, -0.0], None, None);
        let ckpt = Checkpoint {
            store: store.clone(),
            ids: vec![10, 20],
            epoch: 5,
            compactions: 2,
        };
        write_checkpoint(&path, &ckpt).expect("write");
        assert!(
            !path.with_extension("ckpt.tmp").exists(),
            "tmp renamed away"
        );
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.epoch, 5);
        assert_eq!(back.compactions, 2);
        assert_eq!(back.ids, vec![10, 20]);
        assert_eq!(
            back.store.to_bytes().to_vec(),
            store.to_bytes().to_vec(),
            "store payload bit-identical through the checkpoint"
        );
        // Truncation errors instead of panicking.
        let full = std::fs::read(&path).expect("read raw");
        std::fs::write(&path, &full[..full.len() - 2]).expect("truncate");
        assert!(read_checkpoint(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
