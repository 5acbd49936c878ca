//! Crash-safe persistence for the serving tier: write-ahead log plus
//! atomic-rename checkpoints.
//!
//! Every file here goes through `traj_core::codec`: a checkpoint and a
//! manifest are each one frame (magic, version, body length, body
//! checksum), a WAL opens with one, and checkpoints and manifests are
//! published with its `write_atomic` (tmp sibling → sync → rename) so a
//! crash never leaves a half-written file under the real name. A flipped
//! bit in any of them is a typed error, never loaded state.
//!
//! # WAL format (`LHWL`, version 2)
//!
//! ```text
//! frame: "LHWL" | 2 | body_len | checksum | body: u64 checkpoint_epoch
//! repeated records:
//!   u32 body_len | u64 fnv1a64(body) | body
//! body:
//!   u8 op (1 = upsert, 2 = remove) | u64 id
//!   upsert only: f32-chunk eu | u8 has_hyper [f32-chunk] | u8 has_factors [f32-chunk]
//! ```
//!
//! Replay stops at the first record frame that is incomplete or fails
//! its checksum — a torn tail from a crash mid-append — and truncates the
//! file to the verified prefix, reporting how many bytes it discarded. An
//! append only ever tears the last frame, so a complete frame that fails
//! its checksum *and* is followed by a complete frame that verifies is
//! *corruption* (a flipped bit mid-log): replay errors and leaves the
//! file untouched rather than drop the acknowledged writes behind it. A bad frame
//! followed only by torn or unverifiable bytes — a zero-filled tail
//! after a torn append, say — stays a torn tail. So does a frame whose
//! *length* word took the flip: the frames behind it are then read at
//! the wrong offsets, none verifies, and the log is cut there. Telling
//! that case apart needs a storage fault injector and is not done yet.
//! A frame whose checksum verifies but whose body does not parse is
//! corruption too, and errors.
//!
//! `checkpoint_epoch` ties a WAL to the checkpoint it extends, and so
//! does its name: a shard's log is `<epoch>.wal` ([`wal_name`]). A fold's
//! install commits in one rename. It first creates the log of the next
//! epoch complete — header plus the writes that landed after its pin,
//! flushed once and, with fsync on, synced — then publishes the new
//! checkpoint: that rename is the commit point. With fsync on, the
//! install then syncs the directory, so the commit survives power loss.
//! Only after that does it delete the previous epoch's log, best effort.
//! Recovery reads the checkpoint, deletes every log of another epoch —
//! an install's log that never committed, or the log a committed one had
//! not yet deleted — and any checkpoint staging sibling, then replays
//! `<checkpoint epoch>.wal`, creating it empty if it is missing. A log
//! whose header names another epoch than its file name is corruption.
//!
//! # Checkpoint format (`LHCP`, version 2)
//!
//! ```text
//! frame: "LHCP" | 2 | body_len | checksum | body:
//!   u64 epoch | u64 compactions | u64 n | n × u64 ids
//!   | u64 payload_len | store payload (store codec)
//! ```
//!
//! # Shard manifest format (`LHSM`, version 3)
//!
//! ```text
//! frame: "LHSM" | 3 | body_len | checksum | body: u32 shards
//! ```
//!
//! Each of the three reads exactly the version it writes; a file of any
//! other version is an `UnsupportedVersion` error, and the store is
//! rebuilt from its source rows.
//!
//! A serving directory holds one manifest naming the shard count plus one
//! `shard-NNNN/` subdirectory per shard, each holding that shard's
//! checkpoint (`serve.ckpt`) and its log (`<epoch>.wal`). A single store
//! is a one-shard directory: the manifest plus `shard-0000/`. The
//! manifest is authoritative on recovery — the partition function is
//! keyed by the shard count, so opening with a different count would
//! route ids to the wrong shards — and a directory without one (such as
//! the pre-sharding single-store layout, a bare `serve.ckpt` +
//! `serve.wal`) does not recover: it is a typed I/O error. Manifest
//! version 2 went with one `serve.wal` per shard, so that layout fails
//! with `UnsupportedVersion` before recovery touches a file.
//!
//! By default appends are flushed to the OS (process-crash-safe) but not
//! fsynced; [`ServingOptions::fsync`](super::ServingOptions::fsync)
//! upgrades each append to power-loss durability at the usual throughput
//! cost.

use super::super::store::EmbeddingStore;
use super::ServeError;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use traj_core::codec::{write_atomic, DecodeError, Fnv64, Format, Reader, Writer};

const WAL: Format = Format {
    magic: *b"LHWL",
    version: 2,
};
const CHECKPOINT: Format = Format {
    magic: *b"LHCP",
    version: 2,
};
const MANIFEST: Format = Format {
    magic: *b"LHSM",
    version: 3,
};
const OP_UPSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// Checkpoint file name inside a serving directory.
pub(crate) const CKPT_FILE: &str = "serve.ckpt";
/// Shard manifest file name inside a sharded serving directory.
pub(crate) const MANIFEST_FILE: &str = "serve.manifest";

/// Name of shard `s`'s subdirectory inside a sharded serving directory.
pub(crate) fn shard_dir_name(s: usize) -> String {
    format!("shard-{s:04}")
}

/// Name of the log that extends checkpoint `epoch`, inside a shard
/// directory.
pub(crate) fn wal_name(epoch: u64) -> String {
    format!("{epoch}.wal")
}

/// The epoch of a log named by [`wal_name`]; `None` for any other name.
fn wal_epoch(name: &str) -> Option<u64> {
    let epoch = name.strip_suffix(".wal")?.parse().ok()?;
    (wal_name(epoch) == name).then_some(epoch)
}

/// Writes the shard manifest atomically.
pub(crate) fn write_manifest(path: &Path, shards: u32) -> Result<(), ServeError> {
    let mut w = MANIFEST.writer();
    w.u32(shards);
    write_atomic(path, &MANIFEST.finish(w))?;
    Ok(())
}

/// Reads and validates the shard manifest, returning the shard count.
pub(crate) fn read_manifest(path: &Path) -> Result<u32, ServeError> {
    decode_manifest(&std::fs::read(path)?)
}

fn decode_manifest(raw: &[u8]) -> Result<u32, ServeError> {
    let mut body = MANIFEST.unframe(raw)?;
    let shards = body.u32("manifest shard count")?;
    body.finish()?;
    if shards == 0 {
        return Err(ServeError::Corrupt("manifest names zero shards".into()));
    }
    Ok(shards)
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
        let mut w = Writer::new();
        match self {
            WalOp::Upsert {
                id,
                eu,
                hyper,
                factors,
            } => {
                w.u8(OP_UPSERT);
                w.u64(*id);
                w.f32_chunk(eu);
                for part in [hyper, factors] {
                    match part {
                        Some(vals) => {
                            w.u8(1);
                            w.f32_chunk(vals);
                        }
                        None => w.u8(0),
                    }
                }
            }
            WalOp::Remove { id } => {
                w.u8(OP_REMOVE);
                w.u64(*id);
            }
        }
        w.finish()
    }

    fn decode(body: &[u8]) -> Result<WalOp, DecodeError> {
        let mut data = Reader::new(body);
        let tag = data.u8("wal op tag")?;
        let id = data.u64("wal op id")?;
        let op = match tag {
            OP_UPSERT => {
                let eu = data.f32_chunk("wal eu row")?;
                let mut optional = |field| -> Result<Option<Vec<f32>>, DecodeError> {
                    match data.u8(field)? {
                        0 => Ok(None),
                        1 => Ok(Some(data.f32_chunk(field)?)),
                        other => Err(DecodeError::BadVariantTag(other)),
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
            other => return Err(DecodeError::BadVariantTag(other)),
        };
        data.finish()?;
        Ok(op)
    }
}

/// An open write-ahead log positioned at its tail.
#[derive(Debug)]
pub(crate) struct WalFile {
    writer: BufWriter<File>,
    fsync: bool,
    path: PathBuf,
}

impl WalFile {
    /// Appends one record and flushes it (and syncs it when fsync is on).
    pub(crate) fn append(&mut self, op: &WalOp) -> Result<(), ServeError> {
        write_record(&mut self.writer, op)?;
        self.writer.flush()?;
        if self.fsync {
            self.writer.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Closes the log and deletes its file, best effort: the log of an
    /// install that did not commit, or the one a commit superseded
    /// (recovery deletes either if this fails).
    pub(crate) fn discard(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes one framed record, checksummed by FNV-1a's byte step.
fn write_record(out: &mut impl Write, op: &WalOp) -> std::io::Result<()> {
    let body = op.encode();
    let mut frame = Writer::new();
    frame.u32(body.len() as u32);
    frame.u64(Fnv64::hash(&body));
    out.write_all(&frame.finish())?;
    out.write_all(&body)
}

/// Creates the log that extends checkpoint `epoch` in `dir`, holding
/// `ops`: written through one buffer and flushed once, then synced when
/// `fsync`. Returns it open for appending. On error the file is removed.
pub(crate) fn create_wal(
    dir: &Path,
    epoch: u64,
    ops: impl IntoIterator<Item = WalOp>,
    fsync: bool,
) -> Result<WalFile, ServeError> {
    let path = dir.join(wal_name(epoch));
    let created = (|| -> Result<WalFile, ServeError> {
        let mut header = WAL.writer();
        header.u64(epoch);
        let mut writer = BufWriter::new(File::create(&path)?);
        writer.write_all(&WAL.finish(header))?;
        for op in ops {
            write_record(&mut writer, &op)?;
        }
        writer.flush()?;
        if fsync {
            writer.get_ref().sync_all()?;
        }
        let path = path.clone();
        Ok(WalFile {
            writer,
            fsync,
            path,
        })
    })();
    if created.is_err() {
        let _ = std::fs::remove_file(&path);
    }
    created
}

/// Opens the log of the shard in `dir` whose checkpoint is at `epoch`,
/// and returns the ops it holds. First deletes what no commit left in
/// force: every other epoch's log and any checkpoint staging sibling (a
/// crash inside `write_atomic`). Then replays `<epoch>.wal` (healing a
/// torn tail), or creates it empty if it is missing. A log whose header
/// names another epoch is corrupt.
pub(crate) fn recover_wal(
    dir: &Path,
    epoch: u64,
    fsync: bool,
) -> Result<(Vec<WalOp>, WalFile), ServeError> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let other_log = wal_epoch(&name).is_some_and(|e| e != epoch);
        if other_log || (name.starts_with(CKPT_FILE) && name.ends_with(".tmp")) {
            std::fs::remove_file(entry.path())?;
        }
    }
    let path = dir.join(wal_name(epoch));
    if !path.try_exists()? {
        return Ok((Vec::new(), create_wal(dir, epoch, [], fsync)?));
    }
    let (replay, mut wal) = replay(&path)?;
    if replay.checkpoint_epoch != epoch {
        return Err(ServeError::Corrupt(format!(
            "log {} is bound to epoch {}",
            wal_name(epoch),
            replay.checkpoint_epoch
        )));
    }
    wal.fsync = fsync;
    Ok((replay.ops, wal))
}

/// A WAL's checkpoint epoch, and a reader over its records.
fn read_header(raw: &[u8]) -> Result<(u64, Reader<'_>), DecodeError> {
    let mut file = Reader::new(raw);
    let mut head = WAL.unframe_prefix(&mut file)?;
    let epoch = head.u64("wal checkpoint epoch")?;
    head.finish()?;
    Ok((epoch, file))
}

/// Result of replaying a WAL file.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Ops that passed framing + checksum, in append order.
    pub ops: Vec<WalOp>,
    /// The checkpoint epoch the WAL header binds to.
    pub checkpoint_epoch: u64,
    /// Bytes of torn tail discarded (0 after a clean shutdown).
    pub truncated_bytes: usize,
}

/// The next record frame of `records`: its body and whether its checksum
/// verifies, or `None` when too few bytes are left for a complete frame.
fn next_frame<'a>(records: &mut Reader<'a>) -> Option<(&'a [u8], bool)> {
    let len = records.u32("wal record length").ok()?;
    let checksum = records.u64("wal record checksum").ok()?;
    let body = records.take("wal record", len as usize).ok()?;
    Some((body, Fnv64::hash(body) == checksum))
}

/// Parses a WAL: its header, then record frames up to the first one that
/// is incomplete or fails its checksum — an error instead when a later
/// complete frame verifies.
fn parse(raw: &[u8]) -> Result<WalReplay, ServeError> {
    let (checkpoint_epoch, mut records) = read_header(raw)?;
    let mut ops = Vec::new();
    loop {
        // Read ahead on a copy, so a torn frame leaves `records` at its
        // start and `remaining()` as the discard count.
        let mut frame = records;
        let Some((body, verified)) = next_frame(&mut frame) else {
            break;
        };
        if !verified {
            let mut rest = frame;
            while let Some((_, later_verified)) = next_frame(&mut rest) {
                if later_verified {
                    return Err(ServeError::Corrupt(format!(
                        "wal record {} fails its checksum but a later record verifies",
                        ops.len()
                    )));
                }
            }
            break;
        }
        records = frame;
        ops.push(WalOp::decode(body).map_err(|e| {
            ServeError::Corrupt(format!(
                "wal record {} checksummed but unparseable: {e}",
                ops.len()
            ))
        })?);
    }
    Ok(WalReplay {
        ops,
        checkpoint_epoch,
        truncated_bytes: records.remaining(),
    })
}

/// Reads and verifies a WAL file, truncates any torn tail so the file
/// ends on a frame boundary, and reopens it for appending. Returns the
/// replay and the reopened handle.
pub(crate) fn replay(path: &Path) -> Result<(WalReplay, WalFile), ServeError> {
    let raw = std::fs::read(path)?;
    let replay = parse(&raw)?;
    let file = OpenOptions::new().append(true).open(path)?;
    if replay.truncated_bytes > 0 {
        file.set_len((raw.len() - replay.truncated_bytes) as u64)?;
    }
    let wal = WalFile {
        writer: BufWriter::new(file),
        fsync: false,
        path: path.to_path_buf(),
    };
    Ok((replay, wal))
}

/// A decoded checkpoint: the compacted base plus its ids and counters.
#[derive(Debug)]
pub(crate) struct Checkpoint {
    pub store: EmbeddingStore,
    pub ids: Vec<u64>,
    pub epoch: u64,
    pub compactions: u64,
}

/// Writes a checkpoint of `store` (rows parallel to `ids`) to `path`
/// atomically — readers of `path` see either the old checkpoint or the
/// new one, never a torn mix. The body is streamed to the file, so the
/// file is never whole in memory.
pub(crate) fn write_checkpoint(
    path: &Path,
    epoch: u64,
    compactions: u64,
    ids: &[u64],
    store: &EmbeddingStore,
) -> Result<(), ServeError> {
    CHECKPOINT.write_atomic(path, |w| {
        w.u64(epoch);
        w.u64(compactions);
        w.u64(ids.len() as u64);
        w.values(ids, u64::to_le_bytes);
        w.chunk(store.encoded_len(), |w| store.encode(w));
    })?;
    Ok(())
}

/// Reads and validates a checkpoint file.
pub(crate) fn read_checkpoint(path: &Path) -> Result<Checkpoint, ServeError> {
    decode_checkpoint(&std::fs::read(path)?)
}

fn decode_checkpoint(raw: &[u8]) -> Result<Checkpoint, ServeError> {
    let mut body = CHECKPOINT.unframe(raw)?;
    let epoch = body.u64("ckpt epoch")?;
    let compactions = body.u64("ckpt compactions")?;
    let n = body.count("ckpt id count")?;
    let ids = body.values("ckpt ids", n, u64::from_le_bytes)?;
    let store = EmbeddingStore::from_bytes(body.chunk("ckpt payload")?)?;
    body.finish()?;
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
    use super::super::super::codec::tests::{forged, framed};
    use super::super::super::store::tests::store_with_rows;
    use super::*;
    use crate::config::PluginVariant;
    use std::path::PathBuf;

    /// Bytes of a frame before its body: magic, version, length, checksum.
    const FRAME_LEN: usize = 24;
    /// Bytes of a version-2 WAL before its first record: the frame plus
    /// the epoch word.
    const WAL_HEADER: usize = FRAME_LEN + 8;
    /// Bytes of framing before a record body: u32 length + u64 checksum.
    const RECORD_HEADER: usize = 4 + 8;

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

    /// A WAL bound to epoch 3 holding `sample_ops()`.
    fn sample_wal(dir: &Path) -> PathBuf {
        create_wal(dir, 3, sample_ops(), false).expect("create");
        dir.join(wal_name(3))
    }

    /// Every truncation of `raw` and every single-bit flip of it fails
    /// to `decode`.
    fn mutate(raw: &[u8], decode: impl Fn(&[u8]) -> bool) {
        for cut in 0..raw.len() {
            assert!(
                !decode(&raw[..cut]),
                "cut at {cut} of {} decoded",
                raw.len()
            );
        }
        for byte in 0..raw.len() {
            for bit in 0..8 {
                let mut bad = raw.to_vec();
                bad[byte] ^= 1 << bit;
                assert!(!decode(&bad), "flip {byte}.{bit} decoded");
            }
        }
    }

    #[test]
    fn wal_roundtrips_ops() {
        let dir = tmpdir("roundtrip");
        let path = sample_wal(&dir);
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
        let path = sample_wal(&dir);
        // Tear the last record mid-body.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() - 3]).expect("tear");
        let (replay1, mut wal) = replay(&path).expect("replay torn");
        assert_eq!(replay1.ops.len(), sample_ops().len() - 1);
        assert!(replay1.truncated_bytes > 0);
        // The heal cut the file back to the verified prefix, and appends
        // land after it.
        wal.append(&WalOp::Remove { id: 1 }).expect("append");
        drop(wal);
        let (replay2, _wal) = replay(&path).expect("replay healed");
        assert_eq!(replay2.truncated_bytes, 0);
        assert_eq!(replay2.ops[..replay1.ops.len()], replay1.ops[..]);
        assert_eq!(replay2.ops.last(), Some(&WalOp::Remove { id: 1 }));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A flipped byte in the *second* of three records is corruption, not
    /// a torn tail: the third record still verifies, so replay errors and
    /// leaves the file as it was instead of cutting two acknowledged
    /// writes.
    #[test]
    fn corrupt_checksum_mid_log_errors_and_keeps_the_file() {
        let dir = tmpdir("checksum");
        let path = sample_wal(&dir);
        let mut full = std::fs::read(&path).expect("read");
        let first_body = sample_ops()[0].encode().len();
        let second_start = WAL_HEADER + RECORD_HEADER + first_body + RECORD_HEADER;
        full[second_start] ^= 0xff;
        std::fs::write(&path, &full).expect("flip");
        let replayed = replay(&path);
        assert!(
            matches!(replayed, Err(ServeError::Corrupt(_))),
            "{replayed:?}"
        );
        assert_eq!(std::fs::read(&path).expect("kept"), full);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn last record followed by zeros (a crash after the file grew
    /// but before the append's bytes landed) is still a torn tail: no
    /// frame after the bad one verifies, so replay keeps the prefix and
    /// cuts the rest.
    #[test]
    fn zero_filled_tail_after_a_torn_record_is_healed() {
        let dir = tmpdir("zero-tail");
        let path = sample_wal(&dir);
        let mut full = std::fs::read(&path).expect("read");
        let last = sample_ops()[2].encode().len();
        let prefix = full.len() - last;
        full[prefix..].fill(0);
        full.extend([0u8; 64]);
        std::fs::write(&path, &full).expect("tear");
        let (replayed, _wal) = replay(&path).expect("replay");
        assert_eq!(replayed.ops, sample_ops()[..2]);
        assert_eq!(
            std::fs::metadata(&path).expect("stat").len() as usize,
            prefix - RECORD_HEADER
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The header of a current WAL is a frame: every truncation of it and
    /// every single-bit flip in it is a typed error — a flipped epoch bit
    /// no longer reads as another epoch. (Record frames past the header
    /// keep the torn-tail rule above.)
    #[test]
    fn every_wal_header_truncation_and_bit_flip_errors() {
        let dir = tmpdir("header");
        let raw = std::fs::read(sample_wal(&dir)).expect("read");
        assert_eq!(&raw[4..8], &2u32.to_le_bytes());
        for cut in 0..WAL_HEADER {
            assert!(parse(&raw[..cut]).is_err(), "cut at {cut}");
        }
        for byte in 0..WAL_HEADER {
            for bit in 0..8 {
                let mut bad = raw.clone();
                bad[byte] ^= 1 << bit;
                assert!(parse(&bad).is_err(), "flip {byte}.{bit}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrips_atomically() {
        let dir = tmpdir("ckpt");
        let path = dir.join(CKPT_FILE);
        let mut store = EmbeddingStore::new(2, PluginVariant::Original, 1.0, None);
        store.push(&[1.0, 2.0], None, None);
        store.push(&[f32::NAN, -0.0], None, None);
        write_checkpoint(&path, 5, 2, &[10, 20], &store).expect("write");
        let mut names = std::fs::read_dir(&dir).expect("list").map(|e| {
            let name = e.expect("entry").file_name();
            name.to_string_lossy().into_owned()
        });
        assert!(
            names.all(|name| !name.ends_with(".tmp")),
            "tmp renamed away"
        );
        let back = read_checkpoint(&path).expect("read");
        assert_eq!(back.epoch, 5);
        assert_eq!(back.compactions, 2);
        assert_eq!(back.ids, vec![10, 20]);
        assert_eq!(
            back.store.to_bytes(),
            store.to_bytes(),
            "store payload bit-identical through the checkpoint"
        );
        // Every truncation and every flipped bit is an error.
        let full = std::fs::read(&path).expect("read raw");
        mutate(&full, |bytes| decode_checkpoint(bytes).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The streamed checkpoint is the file the in-memory frame gave, byte
    /// for byte: for every variant, for an empty store, and for stores
    /// large enough to cross the stream's blocks. (A checkpoint body is
    /// never a whole number of words: the store payload's 29-byte header
    /// is odd and everything else is whole words or `f32`s.)
    #[test]
    fn a_streamed_checkpoint_is_the_in_memory_frame() {
        let dir = tmpdir("streamed");
        let path = dir.join(CKPT_FILE);
        for variant in PluginVariant::ABLATION {
            let fd = variant.uses_fusion().then_some(2);
            let empty = EmbeddingStore::new(2, variant, 1.0, fd);
            let mut big = empty.clone();
            for i in 0..5000 {
                let x = i as f32 * 0.01;
                let (hyper, factors) = ([1.0, x, -x], [x, 0.5, 0.25, x]);
                big.push(
                    &[x, -x],
                    variant.uses_hyperbolic().then_some(&hyper[..]),
                    fd.map(|_| &factors[..]),
                );
            }
            for store in [store_with_rows(variant), empty, big] {
                let ids: Vec<u64> = (0..store.len() as u64).map(|i| i * 7 + 1).collect();
                let mut w = CHECKPOINT.writer();
                w.u64(9);
                w.u64(4);
                w.u64(ids.len() as u64);
                w.values(&ids, u64::to_le_bytes);
                let payload = store.to_bytes();
                w.u64(payload.len() as u64);
                w.values(payload.as_slice(), u8::to_le_bytes);
                let want = CHECKPOINT.finish(w);
                assert_ne!((want.len() - FRAME_LEN) % 8, 0);

                write_checkpoint(&path, 9, 4, &ids, &store).expect("write");
                let got = std::fs::read(&path).expect("read");
                assert!(got == want, "{} n={}", variant.name(), store.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log created with its ops in one write is, byte for byte, the
    /// log those ops appended one at a time give.
    #[test]
    fn a_log_created_whole_is_the_appended_log() {
        let (whole, appended) = (tmpdir("whole"), tmpdir("appended"));
        create_wal(&whole, 3, sample_ops(), false).expect("create");
        let mut wal = create_wal(&appended, 3, [], false).expect("create");
        for op in sample_ops() {
            wal.append(&op).expect("append");
        }
        drop(wal);
        let read = |dir: &Path| std::fs::read(dir.join(wal_name(3))).expect("read");
        assert_eq!(read(&whole), read(&appended));
        std::fs::remove_dir_all(&whole).ok();
        std::fs::remove_dir_all(&appended).ok();
    }

    /// Recovery keeps the checkpoint epoch's log and deletes every other
    /// epoch's and every checkpoint staging sibling; names that are not
    /// a log's stay. A missing log is created empty.
    #[test]
    fn recovery_keeps_only_the_checkpoint_epochs_log() {
        let dir = tmpdir("recover");
        for epoch in [2, 3, 4] {
            create_wal(&dir, epoch, sample_ops(), false).expect("create");
        }
        let keep = ["03.wal", "serve.wal", "notes"];
        for name in keep.iter().chain(&["serve.ckpt.7.tmp"]) {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let (ops, _wal) = recover_wal(&dir, 3, false).expect("recover");
        let expect: Vec<Vec<u8>> = sample_ops().iter().map(bits).collect();
        assert_eq!(ops.iter().map(bits).collect::<Vec<_>>(), expect);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["03.wal", "3.wal", "notes", "serve.wal"]);

        let (ops, _wal) = recover_wal(&dir, 5, false).expect("recover");
        assert!(ops.is_empty());
        let (replayed, _wal) = replay(&dir.join(wal_name(5))).expect("created");
        assert_eq!((replayed.checkpoint_epoch, replayed.ops.len()), (5, 0));
        assert!(!dir.join(wal_name(3)).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A log whose header names another epoch than its file name is a
    /// typed error, and the file stays.
    #[test]
    fn a_log_bound_to_another_epoch_than_its_name_is_corrupt() {
        let dir = tmpdir("misnamed");
        let raw = std::fs::read(sample_wal(&dir)).expect("read");
        std::fs::rename(dir.join(wal_name(3)), dir.join(wal_name(4))).expect("rename");
        let recovered = recover_wal(&dir, 4, false);
        assert!(
            matches!(recovered, Err(ServeError::Corrupt(_))),
            "{recovered:?}"
        );
        assert_eq!(std::fs::read(dir.join(wal_name(4))).expect("kept"), raw);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrips_and_rejects_every_mutation() {
        let dir = tmpdir("manifest");
        let path = dir.join(MANIFEST_FILE);
        write_manifest(&path, 3).expect("write");
        assert_eq!(read_manifest(&path).expect("read"), 3);
        let full = std::fs::read(&path).expect("read raw");
        assert_eq!(full.len(), FRAME_LEN + 4);
        mutate(&full, |bytes| decode_manifest(bytes).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Only the current version is read: a checkpoint, manifest or WAL
    /// whose version word says 1 is unsupported, whatever follows it.
    #[test]
    fn version_1_files_are_unsupported() {
        let dir = tmpdir("v1");
        let ckpt = dir.join(CKPT_FILE);
        let store = store_with_rows(PluginVariant::LorentzCosh);
        write_checkpoint(&ckpt, 5, 2, &[10, 20, 30], &store).expect("write");
        let manifest = dir.join(MANIFEST_FILE);
        write_manifest(&manifest, 3).expect("write");
        let wal = sample_wal(&dir);
        let v1 = |path: &Path| {
            let mut raw = std::fs::read(path).expect("read");
            raw[4..8].copy_from_slice(&1u32.to_le_bytes());
            raw
        };
        let unsupported = |err: ServeError| {
            assert!(
                matches!(err, ServeError::Decode(DecodeError::UnsupportedVersion(1))),
                "{err}"
            );
        };
        unsupported(decode_checkpoint(&v1(&ckpt)).unwrap_err());
        unsupported(decode_manifest(&v1(&manifest)).unwrap_err());
        unsupported(parse(&v1(&wal)).unwrap_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A body that passes its checksum is still read field by field:
    /// every forged checkpoint, manifest and WAL-header body, and every
    /// forged record body behind a valid header, is a typed error or a
    /// decode — never a panic — and a decode re-encodes to the bytes it
    /// came from.
    #[test]
    fn forged_checksummed_bodies_error_or_decode() {
        let dir = tmpdir("forged");
        let ckpt = dir.join(CKPT_FILE);
        let store = store_with_rows(PluginVariant::FusionDist);
        write_checkpoint(&ckpt, 5, 2, &[10, 20, 30], &store).expect("write");
        let raw = std::fs::read(&ckpt).expect("read");
        for file in forged(&raw[FRAME_LEN..]).map(|body| framed(CHECKPOINT, &body)) {
            if let Ok(back) = decode_checkpoint(&file) {
                let again = dir.join("again.ckpt");
                write_checkpoint(&again, back.epoch, back.compactions, &back.ids, &back.store)
                    .expect("rewrite");
                assert_eq!(std::fs::read(&again).expect("read"), file);
            }
        }
        for file in forged(&3u32.to_le_bytes()).map(|body| framed(MANIFEST, &body)) {
            if let Ok(shards) = decode_manifest(&file) {
                assert_eq!(file[FRAME_LEN..], shards.to_le_bytes());
            }
        }

        let raw = std::fs::read(sample_wal(&dir)).expect("read");
        for mut file in forged(&3u64.to_le_bytes()).map(|body| framed(WAL, &body)) {
            file.extend_from_slice(&raw[WAL_HEADER..]);
            if let Ok(replay) = parse(&file) {
                assert_eq!(
                    file[FRAME_LEN..WAL_HEADER],
                    replay.checkpoint_epoch.to_le_bytes()
                );
            }
        }
        for op in sample_ops() {
            for body in forged(&op.encode()) {
                let mut file = raw[..WAL_HEADER].to_vec();
                let mut record = Writer::new();
                record.u32(body.len() as u32);
                record.u64(Fnv64::hash(&body));
                record.values(&body, u8::to_le_bytes);
                file.extend_from_slice(&record.finish());
                match parse(&file) {
                    Ok(replay) => {
                        assert_eq!(replay.ops.iter().map(bits).collect::<Vec<_>>(), [body])
                    }
                    Err(err) => assert!(matches!(err, ServeError::Corrupt(_)), "{err}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
