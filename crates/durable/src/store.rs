//! The segmented, append-only durable checkpoint store.
//!
//! ## On-disk layout
//!
//! A store is one flat directory holding numbered **segment** files plus
//! one **manifest**:
//!
//! ```text
//! seg-000000.ickd   header | frame | frame | ...
//! seg-000001.ickd
//! MANIFEST          the committed frontier (atomically swapped)
//! ```
//!
//! Segment header (10 bytes): magic `ICKD`, format version `u16`,
//! segment index `u32` (all big-endian). Each frame is
//! `len: u32 | crc: u32 | payload`, where `payload` is one checkpoint
//! record's ICKP stream encoded as dedup *parts* (see [`crate::dedup`]:
//! literal bytes, indexed chunks, and back-references to chunks stored
//! by earlier frames) and `crc` is the IEEE CRC-32 of the length bytes
//! followed by the stored payload.
//!
//! The manifest (magic `ICKM`, format v2) carries the record count, the
//! last sequence number, per segment its index and **committed length**
//! — the byte frontier up to which that segment's content has been
//! fsync-acknowledged — plus the lifecycle state: the **retention
//! generation** (bumped by every [`DurableStore::rewrite`]; a non-zero
//! generation relaxes recovery's sequence check from contiguous to
//! strictly increasing, because retention merges leave gaps), the
//! **tags** (label → sequence number restore points), and a count +
//! digest summary of the content-hash chunk index so recovery can verify
//! the index it rebuilds. A trailing CRC-32 covers the whole manifest.
//!
//! ## The append protocol: group commit
//!
//! The write path is a **group-commit batch pipeline**. A batch of one or
//! more records ([`DurableStore::append`] is a batch of one;
//! [`DurableStore::append_batch`] takes many) performs, in order: append
//! every frame to the tail segment (rolling to new segments as the target
//! size is crossed), fsync each touched segment once, write the new
//! manifest to `MANIFEST.tmp`, fsync it, rename it over `MANIFEST`, fsync
//! the directory. Only when the final directory sync returns is the batch
//! *acknowledged* — all of it, atomically: a crash before the manifest
//! swap loses the whole batch (the torn frames beyond the old frontier
//! are truncated by recovery), never part of it. A batch of `n` records
//! in one segment therefore costs 3 fsyncs instead of `3n`
//! ([`IoStats`] exposes the counters the `group_commit` bench reads).
//!
//! The batch is encoded inline: each record is dedup-encoded into parts
//! behind room for the frame header, the header is sealed in place
//! (length, then CRC), and the sealed frames are then written in order.
//! New chunks enter the chunk index *pending* as they are encoded, so
//! later frames of the batch find them with the same single probe; the
//! manifest swap publishes them, and a failed batch rolls them back.
//!
//! The sealed frames ([`SealedBatch`]) are also what a replica stores:
//! [`DurableStore::append_frames`] reads each one with the reader `open`
//! uses (CRC, dedup parts resolved through its own chunk index, one
//! validating scan, sequence check) and then writes its bytes verbatim
//! under the same protocol, so it never encodes a record again.
//!
//! ## Recovery
//!
//! [`DurableStore::open`] treats the manifest as the single source of
//! committed truth. No manifest means nothing was ever acknowledged:
//! leftovers are deleted and a fresh store is initialized. Otherwise the
//! manifest is CRC-validated, orphan files are removed, every segment is
//! truncated back to its committed length (bytes past the frontier are a
//! torn tail from a crash mid-append — expected, and discarded), and the
//! frames inside the frontier are CRC-checked and their streams
//! validated by one scan ([`CheckpointRecord::validate`], whose records
//! keep the object offsets it found, so restore folds them without a
//! second scan and decodes each surviving object once). Any anomaly
//! *inside* the frontier — missing segment, short segment, bad CRC — is
//! real corruption and surfaces as [`DurableError::Corrupt`] rather than
//! being silently dropped.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::collections::BTreeSet;
use std::ops::Range;

use crate::crc::{crc32, Crc32};
use crate::dedup::{ChunkIndex, DedupStats};
use crate::error::DurableError;
use crate::vfs::Vfs;
use ickp_core::{CheckpointRecord, CheckpointStore, CoreError, RecordSink};
use ickp_heap::ClassRegistry;

const SEGMENT_MAGIC: [u8; 4] = *b"ICKD";
const MANIFEST_MAGIC: [u8; 4] = *b"ICKM";

/// On-disk format version shared by segments and the manifest. Version 2
/// (dedup parts inside frames, lifecycle state in the manifest)
/// supersedes version 1; the store neither reads nor writes v1 images.
pub const FORMAT_VERSION: u16 = 2;

/// File name of the manifest.
pub const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// Length of a segment header: magic + version + index.
const SEGMENT_HEADER_LEN: u64 = 10;
/// Length of a frame header: length + CRC.
pub(crate) const FRAME_HEADER_LEN: usize = 8;

/// File name of segment `index`.
pub fn segment_name(index: u32) -> String {
    format!("seg-{index:06}.ickd")
}

/// Tuning knobs for the durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableConfig {
    /// Once a segment's committed length reaches this, the next append
    /// starts a new segment. Small values force frequent rolls (useful in
    /// tests); the default keeps segments around a megabyte.
    pub segment_target_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> DurableConfig {
        DurableConfig { segment_target_bytes: 1 << 20 }
    }
}

/// Cumulative I/O accounting for one store handle.
///
/// Counts what the store asked of its [`Vfs`] since `create`/`open` —
/// recovery work included. The interesting ratio for the group-commit
/// path is [`IoStats::fsyncs`] per record appended: the single-record
/// protocol costs 3 fsyncs per record, a batch amortizes the segment
/// sync and the manifest swap across the whole batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Calls to [`Vfs::sync`] (file fsyncs).
    pub file_syncs: u64,
    /// Calls to [`Vfs::sync_dir`] (directory fsyncs).
    pub dir_syncs: u64,
    /// Calls to [`Vfs::rename`] (every one is a manifest publish).
    pub renames: u64,
    /// Record frames written to segments (appends, batches, rewrites).
    pub frames_written: u64,
    /// Atomic manifest swaps (each one acknowledges a batch, a tag
    /// operation, or a rewrite).
    pub manifest_swaps: u64,
}

impl IoStats {
    /// Total fsync-class operations (file + directory syncs).
    pub fn fsyncs(&self) -> u64 {
        self.file_syncs + self.dir_syncs
    }
}

/// One segment's entry in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegmentEntry {
    index: u32,
    committed_len: u64,
}

/// The committed frontier: what the store acknowledges as durable, plus
/// the lifecycle state (generation, tags, chunk-index summary).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Manifest {
    record_count: u64,
    last_seq: Option<u64>,
    segments: Vec<SegmentEntry>,
    /// Bumped by every [`DurableStore::rewrite`]. Zero means the store
    /// is pure append-only history (contiguous sequence numbers); after
    /// a rewrite, retention merges leave gaps and recovery only checks
    /// that sequence numbers strictly increase.
    generation: u64,
    /// Named restore points: `(label, seq)`, sorted by label.
    tags: Vec<(String, u64)>,
    /// Number of chunks in the content-hash index.
    chunk_count: u64,
    /// Wrapping sum of every indexed chunk's hash (order independent).
    chunk_digest: u64,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let tag_bytes: usize = self.tags.iter().map(|(label, _)| 2 + label.len() + 8).sum();
        let mut out = Vec::with_capacity(27 + self.segments.len() * 12 + 12 + tag_bytes + 16 + 4);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_be_bytes());
        out.extend_from_slice(&self.record_count.to_be_bytes());
        out.push(self.last_seq.is_some() as u8);
        out.extend_from_slice(&self.last_seq.unwrap_or(0).to_be_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_be_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.index.to_be_bytes());
            out.extend_from_slice(&seg.committed_len.to_be_bytes());
        }
        out.extend_from_slice(&self.generation.to_be_bytes());
        out.extend_from_slice(&(self.tags.len() as u32).to_be_bytes());
        for (label, seq) in &self.tags {
            out.extend_from_slice(&(label.len() as u16).to_be_bytes());
            out.extend_from_slice(label.as_bytes());
            out.extend_from_slice(&seq.to_be_bytes());
        }
        out.extend_from_slice(&self.chunk_count.to_be_bytes());
        out.extend_from_slice(&self.chunk_digest.to_be_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_be_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Manifest, DurableError> {
        let corrupt = |offset: u64, what: &str| DurableError::Corrupt {
            file: MANIFEST.to_string(),
            offset,
            what: what.to_string(),
        };
        // magic + version + count + flag + seq + nsegs + generation +
        // ntags + chunk count + chunk digest + crc
        let (body, crc_bytes) = match bytes.split_last_chunk() {
            Some(split) if bytes.len() >= 4 + 2 + 8 + 1 + 8 + 4 + 8 + 4 + 8 + 8 + 4 => split,
            _ => return Err(corrupt(0, "manifest shorter than its fixed header")),
        };
        if crc32(body) != u32::from_be_bytes(*crc_bytes) {
            return Err(corrupt(0, "manifest checksum mismatch"));
        }
        let mut c = Cursor { bytes: body, pos: 0 };
        if c.array() != Ok(MANIFEST_MAGIC) {
            return Err(corrupt(0, "bad manifest magic"));
        }
        if c.u16() != Ok(FORMAT_VERSION) {
            return Err(corrupt(4, "unsupported manifest version"));
        }
        let overrun = |at: usize| corrupt(at as u64, "manifest table overruns the payload");
        let record_count = c.u64().map_err(overrun)?;
        let has_seq = c.array().map_err(overrun)? != [0];
        let seq = c.u64().map_err(overrun)?;
        let nsegs = c.u32().map_err(overrun)? as usize;
        let mut segments = Vec::with_capacity(nsegs.min(1024));
        for _ in 0..nsegs {
            let index = c.u32().map_err(overrun)?;
            let committed_len = c.u64().map_err(overrun)?;
            segments.push(SegmentEntry { index, committed_len });
        }
        let generation = c.u64().map_err(overrun)?;
        let ntags = c.u32().map_err(overrun)? as usize;
        let mut tags = Vec::with_capacity(ntags.min(1024));
        for _ in 0..ntags {
            let label_len = c.u16().map_err(overrun)?;
            let label_at = c.pos;
            let label = std::str::from_utf8(c.take(label_len.into()).map_err(overrun)?)
                .map_err(|_| corrupt(label_at as u64, "tag label is not UTF-8"))?
                .to_string();
            let seq = c.u64().map_err(overrun)?;
            tags.push((label, seq));
        }
        let chunk_count = c.u64().map_err(overrun)?;
        let chunk_digest = c.u64().map_err(overrun)?;
        if c.pos != body.len() {
            return Err(corrupt(c.pos as u64, "manifest has trailing bytes"));
        }
        Ok(Manifest {
            record_count,
            last_seq: has_seq.then_some(seq),
            segments,
            generation,
            tags,
            chunk_count,
            chunk_digest,
        })
    }
}

/// Reads big-endian fields off the front of a byte slice. A read that
/// needs more bytes than remain consumes nothing and returns `Err` with
/// the offset it started at.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], usize> {
        let s = self.bytes.get(self.pos..).and_then(|rest| rest.get(..n)).ok_or(self.pos)?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], usize> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let (head, _) = rest.split_first_chunk().ok_or(self.pos)?;
        self.pos += N;
        Ok(*head)
    }

    fn u16(&mut self) -> Result<u16, usize> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, usize> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, usize> {
        self.array().map(u64::from_be_bytes)
    }
}

/// Refuses a tag label the manifest's `u16` length field cannot carry.
fn check_label(label: &str) -> Result<(), DurableError> {
    if label.len() > usize::from(u16::MAX) {
        return Err(DurableError::LabelTooLong { len: label.len() });
    }
    Ok(())
}

fn segment_header(index: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_be_bytes());
    out.extend_from_slice(&index.to_be_bytes());
    out
}

/// The CRC a frame stores: over its length bytes, then its payload.
fn frame_crc(len: &[u8], payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(len);
    crc.update(payload);
    crc.finish()
}

/// Seals a frame whose first [`FRAME_HEADER_LEN`] bytes are room for
/// its header (as [`ChunkIndex::encode`] leaves them): writes the
/// payload's length and then its [`frame_crc`] there.
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    let len = (payload.len() as u32).to_be_bytes();
    let crc = frame_crc(&len, payload);
    let (len_slot, crc_slot) = header.split_at_mut(4);
    len_slot.copy_from_slice(&len);
    crc_slot.copy_from_slice(&crc.to_be_bytes());
    frame
}

/// Encodes `records` in order as one atomic batch against `chunks`:
/// encode a frame, seal it, repeat. Later frames dedup against the
/// chunks earlier frames added; those stay pending in `chunks` until the
/// caller commits or rolls back the batch.
fn encode_batch(
    chunks: &mut ChunkIndex,
    records: &[CheckpointRecord],
    layouts: &[&[Range<usize>]],
) -> SealedBatch {
    let mut stats = DedupStats::default();
    let frames = records
        .iter()
        .zip(layouts)
        .map(|(record, ranges)| {
            let (stored, frame_stats) = chunks.encode(record.bytes(), ranges);
            stats.absorb(frame_stats);
            seal_frame(stored)
        })
        .collect();
    SealedBatch { frames, stats }
}

/// Reads the frame at `frames`' position back into its record — the one
/// frame reader of `open` and of a replica applying shipped frames. It
/// checks that the frame lies within the bytes and that its CRC holds,
/// resolves its dedup parts through `chunks` (new chunks enter pending),
/// and validates the stream with one scan ([`CheckpointRecord::validate`],
/// everything `decode` checks, no field materialized; the record keeps
/// the object offsets it found, so `restore` folds it without a second
/// scan). `corrupt` names where the bytes came from.
fn read_record(
    chunks: &mut ChunkIndex,
    frames: &mut Cursor<'_>,
    registry: &ClassRegistry,
    corrupt: &impl Fn(u64, String) -> DurableError,
) -> Result<CheckpointRecord, DurableError> {
    let offset = frames.pos;
    let header_overrun =
        |_| corrupt(offset as u64, "frame header overruns the committed length".into());
    let len = frames.array().map_err(header_overrun)?;
    let stored_crc = frames.u32().map_err(header_overrun)?;
    let body_at = frames.pos;
    let stored_payload = frames
        .take(u32::from_be_bytes(len) as usize)
        .map_err(|_| corrupt(offset as u64, "frame body overruns the committed length".into()))?;
    if frame_crc(&len, stored_payload) != stored_crc {
        return Err(corrupt(offset as u64, "frame checksum mismatch".into()));
    }
    let payload = chunks
        .decode(stored_payload)
        .map_err(|(part_at, what)| corrupt((body_at + part_at) as u64, what))?;
    Ok(CheckpointRecord::validate(payload, registry)?)
}

/// Reads frames another store sealed, each slice holding exactly one, as
/// [`read_record`] reads a segment's. Corruption is reported against
/// `shipped frame <i>`, at an offset inside that frame.
fn read_shipped<B: AsRef<[u8]>>(
    chunks: &mut ChunkIndex,
    frames: &[B],
    registry: &ClassRegistry,
) -> Result<Vec<u64>, DurableError> {
    let mut seqs = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().map(AsRef::as_ref).enumerate() {
        let corrupt = |offset: u64, what: String| DurableError::Corrupt {
            file: format!("shipped frame {i}"),
            offset,
            what,
        };
        let mut cursor = Cursor { bytes: frame, pos: 0 };
        seqs.push(read_record(chunks, &mut cursor, registry, &corrupt)?.seq());
        if cursor.pos != frame.len() {
            return Err(corrupt(cursor.pos as u64, "bytes after the end of the frame".into()));
        }
    }
    Ok(seqs)
}

/// Refuses `seqs` unless each is its predecessor plus one, starting
/// right after `last`.
fn check_contiguous(last: Option<u64>, seqs: &[u64]) -> Result<(), DurableError> {
    let mut expected = last.map(|last| last + 1);
    for &got in seqs {
        if let Some(expected) = expected.filter(|&e| e != got) {
            return Err(DurableError::SequenceGap { expected, got });
        }
        expected = Some(got + 1);
    }
    Ok(())
}

/// Refuses a rewrite whose tags carry a label too long, whose `seqs` do
/// not strictly increase, or whose tags name a seq none of them holds;
/// returns the tags sorted by label.
fn check_rewrite(seqs: &[u64], tags: &[(String, u64)]) -> Result<Vec<(String, u64)>, DurableError> {
    for (label, _) in tags {
        check_label(label)?;
    }
    for pair in seqs.windows(2) {
        if let [last, got] = *pair {
            if got <= last {
                return Err(DurableError::SequenceGap { expected: last + 1, got });
            }
        }
    }
    let mut sorted = tags.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, seq) in &sorted {
        if seqs.binary_search(seq).is_err() {
            return Err(DurableError::UnknownSeq(*seq));
        }
    }
    Ok(sorted)
}

/// One batch as the store committed it: its sealed frames, in order,
/// exactly as written to the segments, and its dedup accounting. A
/// replica applies the frames with [`DurableStore::append_frames`] (or
/// [`DurableStore::rewrite_frames`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SealedBatch {
    /// Each record's frame: `len | crc | parts`.
    pub frames: Vec<Vec<u8>>,
    /// The batch's dedup accounting.
    pub stats: DedupStats,
}

/// A crash-safe, segmented, append-only checkpoint store over a [`Vfs`].
///
/// See the module docs for the on-disk format and the protocol. The
/// store owns its filesystem handle; pass `&mut fs` (the [`Vfs`] blanket
/// impl for `&mut F`) to keep ownership outside, as the crash harness
/// does.
#[derive(Debug)]
pub struct DurableStore<F: Vfs> {
    fs: F,
    config: DurableConfig,
    manifest: Manifest,
    /// Set when an append failed partway: the tail segment may hold bytes
    /// past the committed frontier. The next append truncates them first.
    tail_dirty: bool,
    /// The content-hash index over every committed chunk (see
    /// [`crate::dedup`]); mirrors the manifest's count + digest summary.
    chunks: ChunkIndex,
    /// Sequence numbers of the committed records, ascending. Derived
    /// state (recovered from the segments on open) used to validate tags
    /// without re-reading the log.
    seqs: Vec<u64>,
    /// Next segment index to allocate. Monotonic within a process even
    /// across failed rewrites, so a half-written segment file is never
    /// confused with a live one.
    next_segment_index: u32,
    /// I/O accounting since this handle was created/opened.
    io: IoStats,
}

impl<F: Vfs> DurableStore<F> {
    /// A handle with no state yet, before `create` or `open` reads or
    /// writes the directory.
    fn empty(fs: F, config: DurableConfig) -> DurableStore<F> {
        DurableStore {
            fs,
            config,
            manifest: Manifest::default(),
            tail_dirty: false,
            chunks: ChunkIndex::new(),
            seqs: Vec::new(),
            next_segment_index: 0,
            io: IoStats::default(),
        }
    }

    /// Initializes a fresh store in an empty (or leftover-strewn)
    /// directory.
    ///
    /// # Errors
    ///
    /// [`DurableError::AlreadyExists`] if a manifest is present, or
    /// [`DurableError::Fs`] on I/O failure.
    pub fn create(fs: F, config: DurableConfig) -> Result<DurableStore<F>, DurableError> {
        let mut store = DurableStore::empty(fs, config);
        if store.fs.exists(MANIFEST) {
            return Err(DurableError::AlreadyExists);
        }
        store.clear_directory()?;
        store.swap_manifest(Manifest::default())?;
        Ok(store)
    }

    /// Opens an existing store, running crash recovery, and returns it
    /// together with the recovered in-memory [`CheckpointStore`].
    ///
    /// An absent manifest means no checkpoint was ever acknowledged: any
    /// leftover files are deleted and an empty store is initialized.
    ///
    /// # Errors
    ///
    /// * [`DurableError::Corrupt`] for damage inside the committed
    ///   frontier (never auto-repaired).
    /// * [`DurableError::SequenceGap`] if the recovered records are not
    ///   contiguous (generation 0) or not strictly increasing (after a
    ///   rewrite).
    /// * [`DurableError::Fs`] / [`DurableError::Core`] for I/O and decode
    ///   failures.
    pub fn open(
        fs: F,
        config: DurableConfig,
        registry: &ClassRegistry,
    ) -> Result<(DurableStore<F>, CheckpointStore), DurableError> {
        let mut store = DurableStore::empty(fs, config);
        if !store.fs.exists(MANIFEST) {
            store.clear_directory()?;
            store.swap_manifest(Manifest::default())?;
            return Ok((store, CheckpointStore::new()));
        }

        let manifest = Manifest::decode(&store.fs.read(MANIFEST)?)?;

        // Files the manifest does not claim are un-acknowledged debris
        // from a crash (a half-written next segment, a stray tmp file).
        let expected: BTreeSet<String> = manifest
            .segments
            .iter()
            .map(|s| segment_name(s.index))
            .chain([MANIFEST.to_string()])
            .collect();
        let mut removed = false;
        for name in store.fs.list()? {
            if !expected.contains(&name) {
                store.fs.remove(&name)?;
                removed = true;
            }
        }
        if removed {
            store.fs.sync_dir()?;
            store.io.dir_syncs += 1;
        }

        let mut recovered = CheckpointStore::new();
        for seg in &manifest.segments {
            let name = segment_name(seg.index);
            let corrupt = |offset: u64, what: String| DurableError::Corrupt {
                file: name.clone(),
                offset,
                what,
            };
            if !store.fs.exists(&name) {
                return Err(corrupt(0, "segment referenced by the manifest is missing".into()));
            }
            let content = store.fs.read(&name)?;
            let actual = content.len() as u64;
            let Some(committed) =
                usize::try_from(seg.committed_len).ok().and_then(|len| content.get(..len))
            else {
                return Err(corrupt(
                    actual,
                    format!(
                        "segment shorter than its committed length ({actual} < {})",
                        seg.committed_len
                    ),
                ));
            };
            if actual > seg.committed_len {
                // Torn tail beyond the acknowledged frontier: expected
                // after a crash mid-append; cut it off, durably.
                store.fs.truncate(&name, seg.committed_len)?;
                store.fs.sync(&name)?;
                store.io.file_syncs += 1;
            }
            let mut frames = Cursor { bytes: committed, pos: 0 };
            let (Ok(magic), Ok(version), Ok(index)) = (frames.array(), frames.u16(), frames.u32())
            else {
                return Err(corrupt(0, "committed length shorter than the segment header".into()));
            };
            if magic != SEGMENT_MAGIC {
                return Err(corrupt(0, "bad segment magic".into()));
            }
            if version != FORMAT_VERSION {
                return Err(corrupt(4, "unsupported segment version".into()));
            }
            if index != seg.index {
                return Err(corrupt(6, "segment index does not match its manifest entry".into()));
            }

            while frames.pos < committed.len() {
                let record = read_record(&mut store.chunks, &mut frames, registry, &corrupt)?;
                if let Some(last) = recovered.latest() {
                    // Generation 0 is untouched append-only history:
                    // sequence numbers are contiguous. After a rewrite,
                    // retention merges leave gaps; order still holds.
                    if manifest.generation == 0 && record.seq() != last.seq() + 1 {
                        return Err(DurableError::SequenceGap {
                            expected: last.seq() + 1,
                            got: record.seq(),
                        });
                    }
                }
                store.seqs.push(record.seq());
                if manifest.generation == 0 {
                    recovered.push(record)?;
                } else {
                    recovered.push_merged(record)?;
                }
            }
        }

        store.chunks.commit();
        if recovered.len() as u64 != manifest.record_count {
            return Err(DurableError::Corrupt {
                file: MANIFEST.to_string(),
                offset: 0,
                what: format!(
                    "manifest claims {} records but segments hold {}",
                    manifest.record_count,
                    recovered.len()
                ),
            });
        }
        if recovered.latest().map(CheckpointRecord::seq) != manifest.last_seq {
            return Err(DurableError::Corrupt {
                file: MANIFEST.to_string(),
                offset: 0,
                what: "manifest last-seq does not match the recovered records".into(),
            });
        }
        if (store.chunks.count(), store.chunks.digest())
            != (manifest.chunk_count, manifest.chunk_digest)
        {
            return Err(DurableError::Corrupt {
                file: MANIFEST.to_string(),
                offset: 0,
                what: format!(
                    "manifest chunk summary ({}, {:#x}) does not match the rebuilt index \
                     ({}, {:#x})",
                    manifest.chunk_count,
                    manifest.chunk_digest,
                    store.chunks.count(),
                    store.chunks.digest()
                ),
            });
        }
        for (label, seq) in &manifest.tags {
            if store.seqs.binary_search(seq).is_err() {
                return Err(DurableError::Corrupt {
                    file: MANIFEST.to_string(),
                    offset: 0,
                    what: format!("tag {label:?} points at seq {seq}, which holds no record"),
                });
            }
        }

        store.next_segment_index = manifest.segments.iter().map(|s| s.index + 1).max().unwrap_or(0);
        store.manifest = manifest;
        Ok((store, recovered))
    }

    /// Durably appends one checkpoint record.
    ///
    /// On `Ok`, the record and everything before it survive any crash.
    /// On `Err`, the record is *not* acknowledged; the store stays usable
    /// (if the filesystem does) and the next append self-heals any torn
    /// tail the failure left behind.
    ///
    /// # Errors
    ///
    /// [`DurableError::SequenceGap`] if `record` does not extend the
    /// sequence, or [`DurableError::Fs`] on I/O failure.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<(), DurableError> {
        self.append_deduped(record, &[]).map(|_| ())
    }

    /// Durably appends one checkpoint record, deduplicating the given
    /// chunks of its payload against the store's content-hash index.
    ///
    /// `chunk_ranges` names the dedup-candidate slices of
    /// `record.bytes()` — in practice the object records that
    /// [`ickp_core::object_slices`] reports, which re-encode
    /// byte-identically whenever the underlying objects are unchanged.
    /// Chunks whose bytes already live in the store are written as
    /// references; the rest enter the index for later appends. Passing
    /// no ranges makes this exactly [`DurableStore::append`].
    ///
    /// The returned [`DedupStats`] accounts this write; acknowledged
    /// durability is identical to `append` (same I/O sequence, same
    /// manifest commit point).
    ///
    /// # Errors
    ///
    /// As [`DurableStore::append`]. On error nothing is acknowledged and
    /// no chunk enters the index.
    ///
    /// # Panics
    ///
    /// If `chunk_ranges` is not ascending, non-overlapping and within
    /// `record.bytes()`.
    pub fn append_deduped(
        &mut self,
        record: &CheckpointRecord,
        chunk_ranges: &[Range<usize>],
    ) -> Result<DedupStats, DurableError> {
        self.append_batch_inner(std::slice::from_ref(record), &[chunk_ranges]).map(|b| b.stats)
    }

    /// Durably appends a batch of checkpoint records under **one group
    /// commit**: every frame is appended, each touched segment is fsynced
    /// once, and a single manifest swap acknowledges the whole batch
    /// atomically. On `Ok` every record in the batch survives any crash;
    /// on `Err` *none* of them is acknowledged — a crash mid-batch can
    /// never surface part of it (recovery truncates the torn frames back
    /// to the old frontier).
    ///
    /// A batch of `n` records in one segment costs 3 fsyncs where `n`
    /// single appends cost `3n`; see [`DurableStore::io_stats`].
    ///
    /// # Errors
    ///
    /// [`DurableError::SequenceGap`] if the records do not extend the
    /// store's sequence contiguously (each must be its predecessor's
    /// sequence number plus one), or [`DurableError::Fs`] on I/O failure.
    pub fn append_batch(
        &mut self,
        records: &[CheckpointRecord],
    ) -> Result<DedupStats, DurableError> {
        let layouts: Vec<&[Range<usize>]> = vec![&[]; records.len()];
        self.append_batch_inner(records, &layouts).map(|b| b.stats)
    }

    /// [`DurableStore::append_batch`] with dedup: `layouts` gives each
    /// record's chunk ranges, as [`DurableStore::append_deduped`] takes
    /// for a single record. Within the batch, later records also dedup
    /// against the chunks added by earlier records of the *same* batch —
    /// safe because the single manifest swap commits them together, so a
    /// back-reference can never cross an un-acknowledged batch boundary.
    ///
    /// Returns the batch as committed: its sealed frames, which a replica
    /// applies with [`DurableStore::append_frames`], and its accounting.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::append_batch`]. On error nothing is
    /// acknowledged and no chunk enters the index.
    ///
    /// # Panics
    ///
    /// If `layouts.len() != records.len()` or a range set is invalid
    /// (see [`DurableStore::append_deduped`]).
    pub fn append_batch_deduped(
        &mut self,
        records: &[CheckpointRecord],
        layouts: &[Vec<Range<usize>>],
    ) -> Result<SealedBatch, DurableError> {
        assert_eq!(records.len(), layouts.len(), "one chunk layout per record");
        let layouts: Vec<&[Range<usize>]> = layouts.iter().map(Vec::as_slice).collect();
        self.append_batch_inner(records, &layouts)
    }

    /// Durably appends frames another store sealed — a replica applying
    /// the batch its primary committed ([`SealedBatch::frames`]) — under
    /// one group commit, with the same I/O and acknowledgement as
    /// [`DurableStore::append_batch`]. Each frame's bytes are written
    /// verbatim, so the two stores stay byte-identical.
    ///
    /// Before any byte is written, every frame is read as `open` reads a
    /// segment's: its CRC is checked, its dedup parts are resolved
    /// through this store's chunk index, its stream is validated with
    /// [`CheckpointRecord::validate`], and its sequence number must
    /// extend the store's.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] (file `shipped frame <i>`) for a frame
    /// that fails its CRC, does not fill its slice exactly or holds a
    /// malformed or unresolvable part; [`DurableError::Core`] for a
    /// stream that fails validation; otherwise as
    /// [`DurableStore::append_batch`]. On error nothing is acknowledged
    /// and the chunk index is as before.
    pub fn append_frames<B: AsRef<[u8]>>(
        &mut self,
        frames: &[B],
        registry: &ClassRegistry,
    ) -> Result<(), DurableError> {
        let checked = read_shipped(&mut self.chunks, frames, registry)
            .and_then(|seqs| check_contiguous(self.manifest.last_seq, &seqs).map(|()| seqs));
        match checked {
            Ok(seqs) => self.write_batch(frames, &seqs),
            Err(e) => {
                self.chunks.rollback();
                Err(e)
            }
        }
    }

    fn append_batch_inner(
        &mut self,
        records: &[CheckpointRecord],
        layouts: &[&[Range<usize>]],
    ) -> Result<SealedBatch, DurableError> {
        let seqs: Vec<u64> = records.iter().map(CheckpointRecord::seq).collect();
        check_contiguous(self.manifest.last_seq, &seqs)?;
        let batch = encode_batch(&mut self.chunks, records, layouts);
        self.write_batch(&batch.frames, &seqs)?;
        Ok(batch)
    }

    /// Writes sealed `frames`, holding the records `seqs`, as one group
    /// commit, then publishes the chunks they added to the index. On
    /// error the pending chunks are rolled back and the next batch first
    /// truncates whatever the failure left past the frontier.
    fn write_batch<B: AsRef<[u8]>>(
        &mut self,
        frames: &[B],
        seqs: &[u64],
    ) -> Result<(), DurableError> {
        if frames.is_empty() {
            return Ok(());
        }
        match self.try_write_batch(frames, seqs) {
            Ok(()) => {
                // The manifest swap acknowledged the batch: only now may
                // its chunks serve as dedup targets for later batches.
                self.chunks.commit();
                self.seqs.extend_from_slice(seqs);
                Ok(())
            }
            Err(e) => {
                self.chunks.rollback();
                self.tail_dirty = true;
                Err(e)
            }
        }
    }

    fn try_write_batch<B: AsRef<[u8]>>(
        &mut self,
        frames: &[B],
        seqs: &[u64],
    ) -> Result<(), DurableError> {
        if self.tail_dirty {
            // A previous append failed partway; the tail segment may hold
            // bytes past the committed frontier. Cut them before writing.
            if let Some(seg) = self.manifest.segments.last() {
                let name = segment_name(seg.index);
                if self.fs.exists(&name) {
                    self.fs.truncate(&name, seg.committed_len)?;
                }
            }
            self.tail_dirty = false;
        }

        let mut candidate = self.manifest.clone();
        // The segments the batch wrote to, in order (appends only move
        // forward through segments); none is fsynced until all are written.
        let mut touched: Vec<u32> = Vec::new();
        for frame in frames.iter().map(AsRef::as_ref) {
            match candidate.segments.last_mut() {
                Some(seg) if seg.committed_len < self.config.segment_target_bytes => {
                    self.fs.append(&segment_name(seg.index), frame)?;
                    seg.committed_len += frame.len() as u64;
                    if touched.last() != Some(&seg.index) {
                        touched.push(seg.index);
                    }
                }
                // No tail segment yet, or it reached the target size: roll.
                _ => {
                    let index = self.next_segment_index;
                    let mut bytes = segment_header(index);
                    bytes.extend_from_slice(frame);
                    self.fs.write_file(&segment_name(index), &bytes)?;
                    candidate
                        .segments
                        .push(SegmentEntry { index, committed_len: bytes.len() as u64 });
                    self.next_segment_index = index + 1;
                    touched.push(index);
                }
            }
            self.io.frames_written += 1;
        }
        // One fsync per touched segment — the group-commit saving.
        for index in &touched {
            self.fs.sync(&segment_name(*index))?;
            self.io.file_syncs += 1;
        }

        candidate.record_count += frames.len() as u64;
        candidate.last_seq = seqs.last().copied().or(candidate.last_seq);
        candidate.chunk_count = self.chunks.count();
        candidate.chunk_digest = self.chunks.digest();
        self.swap_manifest(candidate)
    }

    /// Atomically publishes `candidate` as the committed frontier:
    /// write-temp, fsync, rename over `MANIFEST`, fsync the directory.
    fn swap_manifest(&mut self, candidate: Manifest) -> Result<(), DurableError> {
        self.fs.write_file(MANIFEST_TMP, &candidate.encode())?;
        self.fs.sync(MANIFEST_TMP)?;
        self.fs.rename(MANIFEST_TMP, MANIFEST)?;
        self.fs.sync_dir()?;
        self.io.file_syncs += 1;
        self.io.dir_syncs += 1;
        self.io.renames += 1;
        self.io.manifest_swaps += 1;
        self.manifest = candidate;
        Ok(())
    }

    /// Deletes every file in the directory (used before initializing a
    /// fresh store: with no manifest, nothing is acknowledged).
    fn clear_directory(&mut self) -> Result<(), DurableError> {
        let names = self.fs.list()?;
        let removed = !names.is_empty();
        for name in names {
            self.fs.remove(&name)?;
        }
        if removed {
            self.fs.sync_dir()?;
            self.io.dir_syncs += 1;
        }
        Ok(())
    }

    /// Durably tags the checkpoint with sequence number `seq` as a named
    /// restore point. An existing tag with the same label moves to the
    /// new sequence number. The tag lands with one atomic manifest swap:
    /// a crash leaves either the old or the new tag set, never a mix.
    ///
    /// # Errors
    ///
    /// [`DurableError::LabelTooLong`] if `label` exceeds `u16::MAX`
    /// bytes, [`DurableError::UnknownSeq`] if no acknowledged record
    /// carries `seq`, or [`DurableError::Fs`] on I/O failure.
    pub fn tag(&mut self, label: &str, seq: u64) -> Result<(), DurableError> {
        check_label(label)?;
        if self.seqs.binary_search(&seq).is_err() {
            return Err(DurableError::UnknownSeq(seq));
        }
        let mut candidate = self.manifest.clone();
        let at = candidate.tags.partition_point(|(l, _)| l.as_str() < label);
        match candidate.tags.get_mut(at) {
            Some((l, pinned)) if l == label => *pinned = seq,
            _ => candidate.tags.insert(at, (label.to_string(), seq)),
        }
        self.swap_manifest(candidate)
    }

    /// Durably removes a named restore point (one atomic manifest swap).
    ///
    /// # Errors
    ///
    /// [`DurableError::UnknownTag`] if no tag carries `label`, or
    /// [`DurableError::Fs`] on I/O failure.
    pub fn remove_tag(&mut self, label: &str) -> Result<(), DurableError> {
        let mut candidate = self.manifest.clone();
        match candidate.tags.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => {
                candidate.tags.remove(i);
            }
            Err(_) => return Err(DurableError::UnknownTag(label.to_string())),
        }
        self.swap_manifest(candidate)
    }

    /// The named restore points, as `(label, seq)` sorted by label.
    pub fn tags(&self) -> &[(String, u64)] {
        &self.manifest.tags
    }

    /// Replaces the entire committed content with `records` — the
    /// lifecycle layer's primitive for retention merges and `reset_to`
    /// rollbacks.
    ///
    /// `layouts` gives each record's dedup chunk ranges (one entry per
    /// record; empty ranges disable dedup for that record), and `tags`
    /// becomes the new tag set. New segments are written under fresh
    /// indices, fsynced, and then a single manifest swap makes them — and
    /// the new tags, generation, and chunk index — current all at once.
    /// The old segments are deleted only after the swap; a crash anywhere
    /// leaves either the old store or the new one (plus unreferenced
    /// files the next open removes), never a mix.
    ///
    /// Bumps the retention generation, which relaxes the recovery-time
    /// sequence check to "strictly increasing" (merged records keep the
    /// *last* sequence number of their group, leaving gaps).
    ///
    /// Returns the new content as written: its sealed frames, which a
    /// replica applies with [`DurableStore::rewrite_frames`], and its
    /// dedup accounting.
    ///
    /// # Errors
    ///
    /// * [`DurableError::SequenceGap`] if `records` is not strictly
    ///   increasing in sequence number.
    /// * [`DurableError::UnknownSeq`] if a tag references a sequence
    ///   number not in `records`.
    /// * [`DurableError::LabelTooLong`] if a tag label exceeds
    ///   `u16::MAX` bytes.
    /// * [`DurableError::Fs`] on I/O failure. Before the manifest swap
    ///   the store is unchanged; after it the rewrite is committed even
    ///   if cleanup of the old segments errors.
    ///
    /// # Panics
    ///
    /// If `layouts.len() != records.len()` or a range set is invalid
    /// (see [`DurableStore::append_deduped`]).
    pub fn rewrite(
        &mut self,
        records: &[CheckpointRecord],
        layouts: &[Vec<Range<usize>>],
        tags: &[(String, u64)],
    ) -> Result<SealedBatch, DurableError> {
        assert_eq!(records.len(), layouts.len(), "one chunk layout per record");
        let seqs: Vec<u64> = records.iter().map(CheckpointRecord::seq).collect();
        let tags = check_rewrite(&seqs, tags)?;
        // Encode everything as one batch against a fresh index.
        let mut fresh = ChunkIndex::new();
        let layouts: Vec<&[Range<usize>]> = layouts.iter().map(Vec::as_slice).collect();
        let batch = encode_batch(&mut fresh, records, &layouts);
        self.install(fresh, &batch.frames, seqs, tags)?;
        Ok(batch)
    }

    /// [`DurableStore::rewrite`] from frames another store sealed — a
    /// replica applying its primary's rewrite ([`SealedBatch::frames`]).
    /// Every frame is read and validated as
    /// [`DurableStore::append_frames`] reads it, against a fresh chunk
    /// index, before any byte is written; the frames are then written
    /// verbatim under the same protocol as `rewrite`.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::append_frames`] for the frames, and as
    /// [`DurableStore::rewrite`] for their sequence numbers and the tags.
    pub fn rewrite_frames<B: AsRef<[u8]>>(
        &mut self,
        frames: &[B],
        tags: &[(String, u64)],
        registry: &ClassRegistry,
    ) -> Result<(), DurableError> {
        let mut fresh = ChunkIndex::new();
        let seqs = read_shipped(&mut fresh, frames, registry)?;
        let tags = check_rewrite(&seqs, tags)?;
        self.install(fresh, frames, seqs, tags)
    }

    /// Makes `frames` (holding the records `seqs`, their chunks pending
    /// in `fresh`) and `tags` the store's whole content: writes the new
    /// segments under indices no live file uses, fsyncs them, swaps the
    /// manifest, then deletes the old segments.
    fn install<B: AsRef<[u8]>>(
        &mut self,
        mut fresh: ChunkIndex,
        frames: &[B],
        seqs: Vec<u64>,
        tags: Vec<(String, u64)>,
    ) -> Result<(), DurableError> {
        fresh.commit();
        let mut segments: Vec<(SegmentEntry, Vec<u8>)> = Vec::new();
        for frame in frames.iter().map(AsRef::as_ref) {
            match segments.last_mut() {
                Some((entry, bytes)) if entry.committed_len < self.config.segment_target_bytes => {
                    bytes.extend_from_slice(frame);
                    entry.committed_len = bytes.len() as u64;
                }
                _ => {
                    let index = self.next_segment_index;
                    self.next_segment_index += 1;
                    let mut bytes = segment_header(index);
                    bytes.extend_from_slice(frame);
                    segments
                        .push((SegmentEntry { index, committed_len: bytes.len() as u64 }, bytes));
                }
            }
        }
        for (entry, bytes) in &segments {
            let name = segment_name(entry.index);
            self.fs.write_file(&name, bytes)?;
            self.fs.sync(&name)?;
            self.io.file_syncs += 1;
        }
        self.io.frames_written += frames.len() as u64;

        let old_segments = self.manifest.segments.clone();
        let candidate = Manifest {
            record_count: frames.len() as u64,
            last_seq: seqs.last().copied(),
            segments: segments.iter().map(|(entry, _)| *entry).collect(),
            generation: self.manifest.generation + 1,
            tags,
            chunk_count: fresh.count(),
            chunk_digest: fresh.digest(),
        };
        self.swap_manifest(candidate)?;
        // Committed: adopt the new in-memory state before cleanup so an
        // error below cannot strand the store mid-transition.
        self.chunks = fresh;
        self.seqs = seqs;
        self.tail_dirty = false;
        let mut removed = false;
        for seg in &old_segments {
            let name = segment_name(seg.index);
            if self.fs.exists(&name) {
                self.fs.remove(&name)?;
                removed = true;
            }
        }
        if removed {
            self.fs.sync_dir()?;
            self.io.dir_syncs += 1;
        }
        Ok(())
    }

    /// Number of acknowledged records.
    pub fn record_count(&self) -> u64 {
        self.manifest.record_count
    }

    /// Sequence number of the last acknowledged record.
    pub fn last_seq(&self) -> Option<u64> {
        self.manifest.last_seq
    }

    /// Number of segments in the committed frontier.
    pub fn segment_count(&self) -> usize {
        self.manifest.segments.len()
    }

    /// Total acknowledged bytes across all segments (headers included).
    pub fn committed_bytes(&self) -> u64 {
        self.manifest.segments.iter().map(|s| s.committed_len).sum()
    }

    /// Retention generation: zero until the first
    /// [`DurableStore::rewrite`], bumped by each one.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// Number of chunks in the content-hash dedup index.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.count()
    }

    /// The dedup index's order-independent summary (the wrapping sum of
    /// its chunk hashes), as the next manifest would record it.
    pub fn chunk_digest(&self) -> u64 {
        self.chunks.digest()
    }

    /// Sequence numbers of the acknowledged records, ascending.
    pub fn seqs(&self) -> &[u64] {
        &self.seqs
    }

    /// I/O accounting since this handle was created or opened — the
    /// counters behind the `group_commit` bench's records-per-fsync
    /// measurement.
    pub fn io_stats(&self) -> IoStats {
        self.io
    }

    /// Consumes the store, returning the filesystem handle.
    pub fn into_fs(self) -> F {
        self.fs
    }
}

/// Lets checkpoint producers ([`Checkpointer`](ickp_core::Checkpointer),
/// the parallel backend's `checkpoint_into`) stream records straight to
/// stable storage. Failures surface as [`CoreError::Storage`].
impl<F: Vfs> RecordSink for DurableStore<F> {
    fn append_record(&mut self, record: CheckpointRecord) -> Result<(), CoreError> {
        self.append(&record).map_err(|e| CoreError::Storage { what: e.to_string() })
    }

    /// Group commit: the whole batch lands under one segment fsync per
    /// touched segment and a single manifest swap, instead of the
    /// default record-at-a-time loop.
    fn append_records(&mut self, records: Vec<CheckpointRecord>) -> Result<(), CoreError> {
        DurableStore::append_batch(self, &records)
            .map(|_| ())
            .map_err(|e| CoreError::Storage { what: e.to_string() })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;
    use ickp_core::{
        compact, restore, verify_restore, CheckpointConfig, Checkpointer, MethodTable,
        RestorePolicy,
    };
    use ickp_heap::{FieldType, Heap, ObjectId, Value};

    fn workload(n: usize) -> (Heap, Vec<ObjectId>, Vec<CheckpointRecord>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut records = Vec::new();
        for i in 0..n {
            heap.set_field(tail, 0, Value::Int(i as i32)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
        }
        (heap, vec![head], records)
    }

    fn tiny() -> DurableConfig {
        // Force a segment roll on nearly every append.
        DurableConfig { segment_target_bytes: 64 }
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let (heap, _, records) = workload(5);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        assert_eq!(store.record_count(), 5);
        assert_eq!(store.last_seq(), Some(4));
        drop(store);

        let (reopened, recovered) =
            DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
        assert_eq!(reopened.record_count(), 5);
        assert_eq!(recovered.len(), 5);
        for (a, b) in records.iter().zip(recovered.records()) {
            assert_eq!(a.seq(), b.seq());
            assert_eq!(a.bytes(), b.bytes());
        }
    }

    #[test]
    fn carried_sequence_number_survives_persistence() {
        // A compacted store's one full record carries the latest sequence
        // number; reopening recovers it by decoding the record bytes.
        let (heap, roots, records) = workload(5);
        let mut chain = CheckpointStore::new();
        for r in records {
            chain.push(r).unwrap();
        }
        let compacted = compact(&chain, heap.registry()).unwrap();
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        store.append(compacted.latest().unwrap()).unwrap();
        drop(store);

        let (reopened, recovered) =
            DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
        assert_eq!(reopened.last_seq(), Some(4));
        assert_eq!(recovered.latest().unwrap().seq(), 4);
        let rebuilt = restore(&recovered, heap.registry(), RestorePolicy::RequireFullBase).unwrap();
        assert_eq!(verify_restore(&heap, &roots, &rebuilt).unwrap(), None);
    }

    #[test]
    fn small_target_rolls_segments() {
        let (heap, _, records) = workload(6);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, tiny()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        assert!(store.segment_count() > 1, "expected rolls, got one segment");
        drop(store);
        let (_, recovered) = DurableStore::open(&mut fs, tiny(), heap.registry()).unwrap();
        assert_eq!(recovered.len(), 6);
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let mut fs = MemFs::new();
        DurableStore::create(&mut fs, tiny()).unwrap();
        assert!(matches!(DurableStore::create(&mut fs, tiny()), Err(DurableError::AlreadyExists)));
    }

    #[test]
    fn open_without_manifest_clears_leftovers() {
        let reg = ClassRegistry::new();
        let mut fs = MemFs::new();
        fs.write_file("seg-000000.ickd", b"debris").unwrap();
        fs.write_file("MANIFEST.tmp", b"more debris").unwrap();
        let (store, recovered) = DurableStore::open(&mut fs, tiny(), &reg).unwrap();
        assert_eq!(recovered.len(), 0);
        assert_eq!(store.record_count(), 0);
        drop(store);
        assert!(!fs.exists("seg-000000.ickd"));
        assert!(!fs.exists("MANIFEST.tmp"));
        assert!(fs.exists(MANIFEST));
    }

    #[test]
    fn sequence_gaps_are_rejected_at_append() {
        let (_, _, records) = workload(3);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, tiny()).unwrap();
        store.append(&records[0]).unwrap();
        let err = store.append(&records[2]).unwrap_err();
        assert_eq!(err, DurableError::SequenceGap { expected: 1, got: 2 });
    }

    #[test]
    fn corruption_inside_the_frontier_is_a_hard_error() {
        let (heap, _, records) = workload(3);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        drop(store);
        // Flip one byte in the middle of the (single) segment.
        let name = segment_name(0);
        let mut content = fs.read(&name).unwrap();
        let mid = content.len() / 2;
        content[mid] ^= 0xFF;
        fs.write_file(&name, &content).unwrap();
        let err = match DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()) {
            Ok(_) => panic!("corruption must not open"),
            Err(e) => e,
        };
        assert!(
            matches!(err, DurableError::Corrupt { .. } | DurableError::Core(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn bytes_past_the_frontier_are_truncated_on_open() {
        let (heap, _, records) = workload(2);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        let committed = store.committed_bytes();
        drop(store);
        // Simulate a torn tail: garbage after the committed frontier.
        fs.append(&segment_name(0), &[0xDE, 0xAD, 0xBE]).unwrap();
        let (reopened, recovered) =
            DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(reopened.committed_bytes(), committed);
        drop(reopened);
        assert_eq!(fs.read(&segment_name(0)).unwrap().len() as u64, committed);
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = Manifest {
            record_count: 7,
            last_seq: Some(6),
            segments: vec![
                SegmentEntry { index: 0, committed_len: 1234 },
                SegmentEntry { index: 1, committed_len: 56 },
            ],
            generation: 3,
            tags: vec![("alpha".into(), 2), ("beta".into(), 6)],
            chunk_count: 42,
            chunk_digest: 0xDEAD_BEEF_1234_5678,
        };
        let bytes = m.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} undetected");
        }
        assert_eq!(Manifest::decode(&Manifest::default().encode()).unwrap(), Manifest::default());
    }

    #[test]
    fn tags_survive_reopen_and_validate_their_seq() {
        let (heap, _, records) = workload(3);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        assert_eq!(store.tag("missing", 9).unwrap_err(), DurableError::UnknownSeq(9));
        store.tag("base", 0).unwrap();
        store.tag("tip", 2).unwrap();
        store.tag("tip", 1).unwrap(); // moving a tag is an upsert
        assert_eq!(store.remove_tag("nope").unwrap_err(), DurableError::UnknownTag("nope".into()));
        drop(store);

        let (mut reopened, _) =
            DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
        assert_eq!(reopened.tags(), &[("base".to_string(), 0), ("tip".to_string(), 1)]);
        reopened.remove_tag("base").unwrap();
        assert_eq!(reopened.tags(), &[("tip".to_string(), 1)]);
    }

    #[test]
    fn oversized_tag_labels_are_refused_and_the_store_still_reopens() {
        let (heap, _, records) = workload(2);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        store.tag("ok", 1).unwrap();
        let swaps = store.io_stats().manifest_swaps;
        let long = "x".repeat(70_000);
        assert_eq!(store.tag(&long, 1).unwrap_err(), DurableError::LabelTooLong { len: 70_000 });
        let err = store.rewrite(&records, &[Vec::new(), Vec::new()], &[(long, 1)]).unwrap_err();
        assert_eq!(err, DurableError::LabelTooLong { len: 70_000 });
        assert_eq!(store.io_stats().manifest_swaps, swaps, "refused before any I/O");
        // The longest label the manifest can carry still round-trips.
        store.tag(&"y".repeat(usize::from(u16::MAX)), 0).unwrap();
        drop(store);

        let (reopened, recovered) =
            DurableStore::open(&mut fs, DurableConfig::default(), heap.registry()).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(reopened.tags().len(), 2);
        assert_eq!(reopened.tags()[0], ("ok".to_string(), 1));
    }

    /// Records whose *head* recurs byte-identically: each round touches
    /// the head with the same value (so it is recorded) while the tail
    /// actually changes. The padding longs make the records large enough
    /// that a 13-byte reference is a clear win.
    fn padded_workload(n: i32) -> (Heap, Vec<CheckpointRecord>) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[
                    ("v", FieldType::Int),
                    ("next", FieldType::Ref(None)),
                    ("p0", FieldType::Long),
                    ("p1", FieldType::Long),
                    ("p2", FieldType::Long),
                    ("p3", FieldType::Long),
                    ("p4", FieldType::Long),
                    ("p5", FieldType::Long),
                ],
            )
            .unwrap();
        let mut heap = Heap::new(reg);
        let tail = heap.alloc(node).unwrap();
        let head = heap.alloc(node).unwrap();
        heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
        let table = MethodTable::derive(heap.registry());
        let mut ckp = Checkpointer::new(CheckpointConfig::incremental());
        let mut records = Vec::new();
        for i in 0..n {
            heap.set_field(head, 0, Value::Int(7)).unwrap();
            heap.set_field(tail, 0, Value::Int(i)).unwrap();
            records.push(ckp.checkpoint(&mut heap, &table, &[head]).unwrap());
        }
        (heap, records)
    }

    #[test]
    fn deduped_appends_shrink_the_store_and_recover_byte_identical() {
        use ickp_core::object_slices;
        let (heap, records) = padded_workload(4);
        let registry = heap.registry();

        // Reference: plain appends.
        let mut plain_fs = MemFs::new();
        let mut plain = DurableStore::create(&mut plain_fs, DurableConfig::default()).unwrap();
        for r in &records {
            plain.append(r).unwrap();
        }
        let plain_bytes = plain.committed_bytes();

        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        let mut saved = 0;
        for r in &records {
            let slices = object_slices(r.bytes(), registry).unwrap();
            let stats = store.append_deduped(r, &slices).unwrap();
            saved += stats.bytes_saved();
        }
        assert!(saved > 0, "identical head records must dedup");
        assert!(store.committed_bytes() < plain_bytes);
        assert!(store.chunk_count() > 0);
        drop(store);

        let (_, recovered) =
            DurableStore::open(&mut fs, DurableConfig::default(), registry).unwrap();
        assert_eq!(recovered.len(), records.len());
        for (a, b) in records.iter().zip(recovered.records()) {
            assert_eq!(a.bytes(), b.bytes(), "dedup must be invisible after recovery");
        }
    }

    #[test]
    fn rewrite_replaces_content_atomically_and_reopens() {
        let (heap, _, records) = workload(5);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, tiny()).unwrap();
        for r in &records {
            store.append(r).unwrap();
        }
        store.tag("keep", 4).unwrap();

        // Retain records 0, 3, 4 (a post-merge shape: gaps allowed).
        let kept: Vec<CheckpointRecord> =
            [0usize, 3, 4].iter().map(|&i| records[i].clone()).collect();
        let layouts = vec![Vec::new(); kept.len()];
        let err = store.rewrite(&kept, &layouts, &[("keep".into(), 2)]).unwrap_err();
        assert_eq!(err, DurableError::UnknownSeq(2));
        store.rewrite(&kept, &layouts, &[("keep".into(), 4)]).unwrap();
        assert_eq!(store.record_count(), 3);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.seqs(), &[0, 3, 4]);
        drop(store);

        let (reopened, recovered) = DurableStore::open(&mut fs, tiny(), heap.registry()).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(reopened.tags(), &[("keep".to_string(), 4)]);
        let seqs: Vec<u64> = recovered.records().iter().map(CheckpointRecord::seq).collect();
        assert_eq!(seqs, vec![0, 3, 4]);
        for (a, b) in kept.iter().zip(recovered.records()) {
            assert_eq!(a.bytes(), b.bytes());
        }
        // And the store still extends normally after a rewrite.
        drop(reopened);
        let mut fs2 = fs;
        let (mut again, _) = DurableStore::open(&mut fs2, tiny(), heap.registry()).unwrap();
        let err = again.append(&records[3]).unwrap_err();
        assert_eq!(err, DurableError::SequenceGap { expected: 5, got: 3 });
    }

    #[test]
    fn rewrite_rejects_unordered_records() {
        let (_, _, records) = workload(3);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, tiny()).unwrap();
        let shuffled = vec![records[1].clone(), records[0].clone()];
        let err = store.rewrite(&shuffled, &[Vec::new(), Vec::new()], &[]).unwrap_err();
        assert_eq!(err, DurableError::SequenceGap { expected: 2, got: 0 });
    }

    #[test]
    fn record_sink_streams_into_the_store() {
        let (heap, _, records) = workload(3);
        let mut fs = MemFs::new();
        let mut store = DurableStore::create(&mut fs, tiny()).unwrap();
        for r in records {
            RecordSink::append_record(&mut store, r).unwrap();
        }
        drop(store);
        let (_, recovered) = DurableStore::open(&mut fs, tiny(), heap.registry()).unwrap();
        assert_eq!(recovered.len(), 3);
    }

    /// A transient I/O error in the middle of a deduplicated batch rolls
    /// back the chunks its frames added: count and digest are as before,
    /// and the retried batch writes exactly the bytes of a store that
    /// never saw the failed attempt.
    #[test]
    fn a_failed_batch_rolls_back_its_chunks_and_the_retry_writes_the_same_bytes() {
        use crate::fail::{FailFs, FaultPlan};
        use ickp_core::object_slices;
        let (heap, records) = padded_workload(6);
        let layouts: Vec<Vec<Range<usize>>> =
            records.iter().map(|r| object_slices(r.bytes(), heap.registry()).unwrap()).collect();
        let (first, second) = ((&records[..3], &layouts[..3]), (&records[3..], &layouts[3..]));

        let mut clean = MemFs::new();
        let mut store = DurableStore::create(&mut clean, DurableConfig::default()).unwrap();
        store.append_batch_deduped(first.0, first.1).unwrap();
        store.append_batch_deduped(second.0, second.1).unwrap();
        drop(store);

        // The second batch's first mutating op appends its first frame;
        // fail the next one, the append of its second frame.
        let mut probe = FailFs::new(FaultPlan::none());
        let mut store = DurableStore::create(&mut probe, DurableConfig::default()).unwrap();
        store.append_batch_deduped(first.0, first.1).unwrap();
        drop(store);
        let mut fs = FailFs::new(FaultPlan::error_at(probe.ops() + 1));
        let mut store = DurableStore::create(&mut fs, DurableConfig::default()).unwrap();
        store.append_batch_deduped(first.0, first.1).unwrap();
        let before = (store.chunk_count(), store.chunk_digest());
        let err = store.append_batch_deduped(second.0, second.1).unwrap_err();
        assert!(matches!(err, DurableError::Fs(_)), "{err}");
        assert_eq!((store.chunk_count(), store.chunk_digest()), before);
        store.append_batch_deduped(second.0, second.1).unwrap();
        assert!(store.chunk_count() > before.0, "the retried batch added its chunks");
        drop(store);

        assert_eq!(fs.list().unwrap(), clean.list().unwrap());
        for name in clean.list().unwrap() {
            assert_eq!(fs.read(&name).unwrap(), clean.read(&name).unwrap(), "{name}");
        }
    }
}
