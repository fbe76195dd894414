//! Content-hash chunk index: store identical object records once.
//!
//! OJXPerf-style replica detection (arXiv 2203.12712) applied to the
//! checkpoint store: each object record inside a checkpoint stream is a
//! pure function of the object's state, so two checkpoints of the same
//! unmodified subtree encode it byte-identically. The durable layer
//! hashes those slices (the *chunks*) and, when an incoming chunk's
//! bytes already live in the store, writes a 13-byte back-reference
//! instead of the bytes.
//!
//! Stored frame payloads are a sequence of **parts**:
//!
//! ```text
//! 0x00 | len: u32 | bytes        glue literal (headers, footers, gaps)
//! 0x02 | len: u32 | bytes        indexed literal — enters the chunk index
//! 0x01 | hash: u64 | len: u32    back-reference to an earlier indexed chunk
//! ```
//!
//! The logical payload — the ICKP stream handed back to recovery — is
//! the concatenation of the literal bytes and the referenced chunks'
//! bytes. References always point backwards (to a chunk indexed by an
//! earlier frame, or earlier in the same frame), so a single in-order
//! scan of the committed frontier rebuilds the index and resolves every
//! reference.
//!
//! Hashing is FNV-1a (64-bit), implemented here because the store takes
//! no dependencies. A hash match alone never dedups: the candidate's
//! bytes are compared against the indexed chunk, and on a collision the
//! chunk is stored as a glue literal. Dedup can therefore never corrupt
//! a payload — a false positive costs bytes, never correctness.
//!
//! The index keeps every chunk's bytes back to back in one arena and
//! maps each hash to an `(offset, len)` span of it, so a chunk costs no
//! allocation of its own. There is one table: the chunks of the batch
//! being written enter it *pending*, with their bytes at the arena's
//! tail, and are published by `commit` after the manifest swap or
//! removed by `rollback` (map entries, arena tail and digest) when the
//! append or the replica's apply fails. Encoding a chunk and resolving a
//! stored part therefore cost one probe and at most one byte comparison
//! each (`IndexOps` counts both).
//!
//! The map hashes its FNV keys with `SeededMix`: one xor with a seed,
//! one multiply, one xor-shift. The seed is drawn once per index from
//! the standard library's random hasher keys, because `open` and a
//! replica index chunks they did not write, and bytes written in advance
//! must not be able to pile them into one bucket. Nothing the index
//! reports depends on the map's order (`count` is a length, `digest` a
//! wrapping sum, and only `rollback` scans it, to drop entries), so the
//! seed reaches no output.

// `decode` reads bytes back from disk and must not panic on them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;

use crate::store::FRAME_HEADER_LEN;

/// Part tag: literal bytes that do not enter the chunk index.
pub(crate) const PART_GLUE: u8 = 0x00;
/// Part tag: back-reference to an indexed chunk (`hash u64 | len u32`).
pub(crate) const PART_REF: u8 = 0x01;
/// Part tag: literal bytes that enter the chunk index.
pub(crate) const PART_CHUNK: u8 = 0x02;

/// Stored size of a back-reference part.
const REF_PART_LEN: usize = 1 + 8 + 4;
/// Stored overhead of a literal part (tag + length).
const LITERAL_OVERHEAD: usize = 1 + 4;

/// FNV-1a, 64-bit: the content hash of the dedup index.
pub fn content_hash(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hasher and `BuildHasher` of the maps keyed by [`content_hash`]
/// values; see the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeededMix {
    seed: u64,
    key: u64,
}

impl BuildHasher for SeededMix {
    type Hasher = SeededMix;

    fn build_hasher(&self) -> SeededMix {
        *self
    }
}

impl Hasher for SeededMix {
    fn write_u64(&mut self, key: u64) {
        self.key = key;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.key = self.key.rotate_left(8) ^ u64::from(b);
        }
    }

    fn finish(&self) -> u64 {
        let x = (self.key ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
}

/// Byte accounting for one deduplicating write (or a whole rewrite).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Logical payload bytes handed to the store.
    pub bytes_in: u64,
    /// Bytes actually stored (part framing included).
    pub bytes_stored: u64,
    /// Chunks the caller offered for dedup.
    pub chunks_total: u64,
    /// Chunks written as back-references instead of bytes.
    pub chunks_deduped: u64,
}

impl DedupStats {
    /// Logical bytes the store did *not* have to write, zero when the
    /// part framing outweighed the references.
    pub fn bytes_saved(&self) -> u64 {
        self.bytes_in.saturating_sub(self.bytes_stored)
    }

    /// Folds another write's accounting into this one.
    pub fn absorb(&mut self, other: DedupStats) {
        self.bytes_in += other.bytes_in;
        self.bytes_stored += other.bytes_stored;
        self.chunks_total += other.chunks_total;
        self.chunks_deduped += other.chunks_deduped;
    }
}

/// How often the index was probed and how many chunk bytes it
/// compared, since it was made: the counts that keep encode and resolve
/// linear in the chunks they see.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IndexOps {
    /// Hash-table lookups (each `entry` or `get` is one).
    pub lookups: u64,
    /// Byte comparisons of a chunk against an indexed one.
    pub compares: u64,
}

/// The in-memory content-hash index over every indexed chunk in the
/// committed frontier, plus the *pending* chunks of the one batch being
/// written. Rebuilt from the segments on open; the manifest carries only
/// a count + digest summary to cross-check the rebuild.
///
/// A new chunk enters the map and the arena as soon as a frame is
/// encoded or resolved, so later frames of the same batch find it with
/// the same single probe as a committed chunk. [`ChunkIndex::commit`]
/// publishes the pending chunks once the batch is acknowledged, and
/// [`ChunkIndex::rollback`] removes them, with the arena bytes and digest
/// they added, when it is not: a failed append must not leave hashes that
/// recovery cannot resolve.
#[derive(Debug)]
pub(crate) struct ChunkIndex {
    /// Hash → `(offset, len)` of the chunk's bytes in `arena`.
    map: HashMap<u64, (usize, usize), SeededMix>,
    /// Every indexed chunk's bytes, back to back, in index order. The
    /// pending chunks are exactly those whose bytes start at or past
    /// `committed.0`.
    arena: Vec<u8>,
    digest: u64,
    /// Arena length and digest at the last commit.
    committed: (usize, u64),
    pub ops: IndexOps,
}

impl ChunkIndex {
    pub fn new() -> ChunkIndex {
        let seed = RandomState::new().build_hasher().finish();
        let map = HashMap::with_hasher(SeededMix { seed, key: 0 });
        ChunkIndex {
            map,
            arena: Vec::new(),
            digest: 0,
            committed: (0, 0),
            ops: IndexOps::default(),
        }
    }

    /// Number of indexed chunks, pending ones included.
    pub fn count(&self) -> u64 {
        self.map.len() as u64
    }

    /// Order-independent summary of the index: the wrapping sum of every
    /// chunk hash, pending ones included. Stored in the manifest so open
    /// can verify the rebuilt index without the manifest growing with
    /// the store.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Encodes `payload` into parts behind [`FRAME_HEADER_LEN`] bytes of
    /// room for the frame header, with its accounting. `ranges` are the
    /// dedup-candidate chunks (the slices `ickp_core::object_slices`
    /// reports); everything between them is glue.
    ///
    /// Each chunk costs one probe of the index and at most one byte
    /// comparison. A chunk the index lacks enters it pending, so a later
    /// frame of the same atomic batch may reference it: the whole batch
    /// commits in one manifest swap, so either every frame of it is
    /// acknowledged (the referenced chunk is inside the frontier, earlier
    /// in the scan order) or none is, and references never cross an
    /// unacknowledged batch boundary.
    ///
    /// # Panics
    ///
    /// If `ranges` are not ascending, non-empty, non-overlapping and in
    /// bounds: the caller hands us slices of a stream it just validated.
    pub fn encode(&mut self, payload: &[u8], ranges: &[Range<usize>]) -> (Vec<u8>, DedupStats) {
        let mut stored = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + LITERAL_OVERHEAD);
        stored.resize(FRAME_HEADER_LEN, 0);
        let mut stats = DedupStats { bytes_in: payload.len() as u64, ..DedupStats::default() };
        let mut cursor = 0usize;
        let glue = |out: &mut Vec<u8>, bytes: &[u8]| {
            out.push(PART_GLUE);
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        };
        for range in ranges {
            let (gap, chunk) = match (payload.get(cursor..range.start), payload.get(range.clone()))
            {
                (Some(gap), Some(chunk)) if !chunk.is_empty() => (gap, chunk),
                _ => panic!("dedup ranges must be ascending, non-overlapping and in bounds"),
            };
            if !gap.is_empty() {
                glue(&mut stored, gap);
            }
            stats.chunks_total += 1;
            let hash = content_hash(chunk);
            self.ops.lookups += 1;
            match self.map.entry(hash) {
                // A hash hit only dedups when the reference is no larger
                // than the chunk and the bytes agree (collision safety).
                Entry::Occupied(slot) => {
                    let &(at, len) = slot.get();
                    let dedups = chunk.len() + LITERAL_OVERHEAD > REF_PART_LEN && {
                        self.ops.compares += 1;
                        self.arena.get(at..at + len) == Some(chunk)
                    };
                    if dedups {
                        stats.chunks_deduped += 1;
                        stored.push(PART_REF);
                        stored.extend_from_slice(&hash.to_be_bytes());
                        stored.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
                    } else {
                        glue(&mut stored, chunk);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert((self.arena.len(), chunk.len()));
                    self.arena.extend_from_slice(chunk);
                    self.digest = self.digest.wrapping_add(hash);
                    stored.push(PART_CHUNK);
                    stored.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
                    stored.extend_from_slice(chunk);
                }
            }
            cursor = range.end;
        }
        if let Some(tail) = payload.get(cursor..).filter(|tail| !tail.is_empty()) {
            glue(&mut stored, tail);
        }
        stats.bytes_stored = (stored.len() - FRAME_HEADER_LEN) as u64;
        (stored, stats)
    }

    /// Publishes the pending chunks: the batch that added them is
    /// acknowledged.
    pub fn commit(&mut self) {
        self.committed = (self.arena.len(), self.digest);
    }

    /// Forgets the pending chunks — the batch that added them failed —
    /// leaving the index as the last [`ChunkIndex::commit`] left it. A
    /// failure path, so it may scan the map: the hot paths keep no list
    /// of what they added.
    pub fn rollback(&mut self) {
        let (committed_len, committed_digest) = self.committed;
        if self.arena.len() > committed_len {
            self.map.retain(|_, &mut (at, _)| at < committed_len);
            self.arena.truncate(committed_len);
        }
        self.digest = committed_digest;
    }

    /// Decodes a stored frame payload back into its logical bytes. Its
    /// indexed chunks enter the index pending as they stream past, so
    /// later frames of the batch resolve references to them; each part
    /// costs at most one probe and one byte comparison. Errors are
    /// `(offset, what)` for the caller to wrap in its corruption type.
    pub fn decode(&mut self, stored: &[u8]) -> Result<Vec<u8>, (usize, String)> {
        let mut payload = Vec::with_capacity(stored.len());
        let mut at = 0usize;
        while at < stored.len() {
            let tag_at = at;
            let [tag] = take(stored, &mut at)?;
            match tag {
                PART_GLUE | PART_CHUNK => {
                    let len = u32::from_be_bytes(take(stored, &mut at)?) as usize;
                    let bytes = stored
                        .get(at..)
                        .and_then(|rest| rest.get(..len))
                        .ok_or_else(|| overrun(at))?;
                    at += len;
                    if tag == PART_CHUNK {
                        // The encoder never indexes an empty chunk, and an
                        // empty one would sit at the arena's committed
                        // end, where `rollback` could not tell it from a
                        // pending one.
                        if bytes.is_empty() {
                            return Err((tag_at, "indexed chunk is empty".to_string()));
                        }
                        let hash = content_hash(bytes);
                        self.ops.lookups += 1;
                        match self.map.entry(hash) {
                            Entry::Occupied(slot) => {
                                let &(start, n) = slot.get();
                                self.ops.compares += 1;
                                if self.arena.get(start..start + n) != Some(bytes) {
                                    return Err((
                                        tag_at,
                                        "indexed chunk collides with an earlier chunk".to_string(),
                                    ));
                                }
                                // A repeat of an indexed chunk still counts
                                // in the digest, so the manifest cross-check
                                // catches a duplicated chunk part.
                                self.digest = self.digest.wrapping_add(hash);
                            }
                            Entry::Vacant(slot) => {
                                slot.insert((self.arena.len(), bytes.len()));
                                self.arena.extend_from_slice(bytes);
                                self.digest = self.digest.wrapping_add(hash);
                            }
                        }
                    }
                    payload.extend_from_slice(bytes);
                }
                PART_REF => {
                    let hash = u64::from_be_bytes(take(stored, &mut at)?);
                    let len = u32::from_be_bytes(take(stored, &mut at)?) as usize;
                    self.ops.lookups += 1;
                    let chunk = self
                        .map
                        .get(&hash)
                        .and_then(|&(start, n)| self.arena.get(start..start + n))
                        .ok_or_else(|| {
                            (tag_at, format!("reference to unknown chunk {hash:#018x}"))
                        })?;
                    if chunk.len() != len {
                        return Err((
                            tag_at,
                            format!(
                                "reference length {len} does not match indexed chunk ({})",
                                chunk.len()
                            ),
                        ));
                    }
                    payload.extend_from_slice(chunk);
                }
                other => return Err((tag_at, format!("invalid frame part tag {other:#x}"))),
            }
        }
        Ok(payload)
    }
}

fn overrun(at: usize) -> (usize, String) {
    (at, "frame part overruns the payload".to_string())
}

/// The `N` bytes of `stored` at `*at`, moving `at` past them.
fn take<const N: usize>(stored: &[u8], at: &mut usize) -> Result<[u8; N], (usize, String)> {
    let bytes = stored.get(*at..).and_then(<[u8]>::first_chunk).ok_or_else(|| overrun(*at))?;
    *at += N;
    Ok(*bytes)
}

#[cfg(test)]
// Single-element `&[range]` literals here really are one-chunk range
// lists, not misread `vec![start; end]`s.
#[allow(clippy::single_range_in_vec_init)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The parts of an encoded frame, without the header room.
    fn parts(stored: &[u8]) -> &[u8] {
        &stored[FRAME_HEADER_LEN..]
    }

    fn round_trip(payload: &[u8], ranges: &[Range<usize>]) {
        let mut writer = ChunkIndex::new();
        let mut reader = ChunkIndex::new();
        let (stored, stats) = writer.encode(payload, ranges);
        writer.commit();
        assert_eq!(reader.decode(parts(&stored)).unwrap(), payload);
        assert_eq!(reader.count(), writer.count());
        assert_eq!(reader.digest(), writer.digest());
        // A second index hashes with another seed, and that changes
        // nothing the store writes or summarizes.
        let mut other = ChunkIndex::new();
        assert_ne!(other.map.hasher().seed, writer.map.hasher().seed);
        assert_eq!(other.encode(payload, ranges), (stored, stats));
        assert_eq!((other.count(), other.digest()), (writer.count(), writer.digest()));
    }

    #[test]
    fn encode_decode_round_trips() {
        round_trip(b"plain payload, no chunks", &[]);
        round_trip(b"", &[]);
        let payload = b"head-AAAAAAAAAAAAAAAA-mid-BBBBBBBBBBBBBBBB-tail";
        round_trip(payload, &[5..21, 26..42]);
        round_trip(payload, &[0..payload.len()]);
        // A repeat within the frame becomes a back-reference.
        round_trip(b"XXXXYYYYYYYYYYYYYYYYZZZZYYYYYYYYYYYYYYYY", &[4..20, 24..40]);
    }

    #[test]
    fn repeated_chunks_become_references() {
        let mut index = ChunkIndex::new();
        let a = b"glue|CHUNKCHUNKCHUNKCHUNKCHUNKCHUNKCHUNKCHUNK|end";
        let (first, stats) = index.encode(a, &[5..45]);
        assert_eq!(stats.chunks_deduped, 0);
        index.commit();
        let (second, stats) = index.encode(a, &[5..45]);
        assert_eq!(stats.chunks_total, 1);
        assert_eq!(stats.chunks_deduped, 1);
        assert!(stats.bytes_stored < stats.bytes_in);
        assert_eq!(index.count(), 1, "a reference adds no chunk");
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&first)).unwrap(), a);
        assert_eq!(reader.decode(parts(&second)).unwrap(), a);
    }

    #[test]
    fn same_frame_repeats_dedup_against_pending_chunks() {
        let mut index = ChunkIndex::new();
        let payload = b"XXXXYYYYYYYYYYYYYYYYZZZZYYYYYYYYYYYYYYYY";
        let (stored, stats) = index.encode(payload, &[4..20, 24..40]);
        assert_eq!(stats.chunks_deduped, 1);
        assert_eq!(index.count(), 1);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&stored)).unwrap(), payload);
    }

    #[test]
    fn later_frames_of_a_batch_dedup_against_pending_chunks() {
        let mut index = ChunkIndex::new();
        let payload = b"....CHUNKCHUNKCHUNKCHUNKCHUNKCHUNK....";
        // Frame 1 of a batch adds the chunk pending; frame 2 of the
        // *same* batch references it without a commit in between.
        let (first, _) = index.encode(payload, &[4..34]);
        let (second, stats) = index.encode(payload, &[4..34]);
        assert_eq!(stats.chunks_deduped, 1);
        assert_eq!(index.count(), 1, "pending chunks are not added twice");
        // An in-order decode (how recovery scans the frontier and how a
        // replica resolves a batch) resolves the intra-batch reference.
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&first)).unwrap(), payload);
        assert_eq!(reader.decode(parts(&second)).unwrap(), payload);
    }

    #[test]
    fn references_resolve_after_the_arena_grows() {
        // The first chunk is indexed while the arena is small; hundreds of
        // later commits reallocate the arena many times over. Spans are
        // offsets, so the old chunk still resolves, on both sides.
        let mut writer = ChunkIndex::new();
        let mut reader = ChunkIndex::new();
        let first = b"the very first chunk, indexed early".to_vec();
        let (stored, _) = writer.encode(&first, &[0..first.len()]);
        writer.commit();
        reader.decode(parts(&stored)).unwrap();
        let early_capacity = writer.arena.capacity();
        for i in 0..500u32 {
            let filler = format!("filler chunk number {i:>8} of many");
            let (stored, _) = writer.encode(filler.as_bytes(), &[0..filler.len()]);
            writer.commit();
            assert_eq!(reader.decode(parts(&stored)).unwrap(), filler.as_bytes());
        }
        assert!(writer.arena.capacity() >= 64 * early_capacity, "the arena grew several times");
        let (again, stats) = writer.encode(&first, &[0..first.len()]);
        assert_eq!(stats.chunks_deduped, 1);
        assert_eq!(reader.decode(parts(&again)).unwrap(), first);
        assert_eq!((reader.count(), reader.digest()), (writer.count(), writer.digest()));
    }

    #[test]
    fn rollback_forgets_pending_chunks() {
        let payload = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop";
        let ranges = [0..16, 16..32];
        let mut index = ChunkIndex::new();
        index.encode(&payload[..16], &[0..16]);
        index.commit();
        let before = (index.count(), index.digest(), index.arena.len());
        // The failed batch adds one chunk and references the committed one.
        let (failed, _) = index.encode(payload, &ranges);
        assert_eq!(index.count(), 2);
        index.rollback();
        assert_eq!((index.count(), index.digest(), index.arena.len()), before);
        // The retried batch encodes exactly as it did the first time.
        assert_eq!(index.encode(payload, &ranges).0, failed);
        // A rollback after a failed decode forgets the chunks it added.
        let mut hostile = vec![PART_CHUNK];
        hostile.extend_from_slice(&16u32.to_be_bytes());
        hostile.extend_from_slice(b"0123456789abcdef");
        hostile.push(PART_REF);
        hostile.extend_from_slice(&42u64.to_be_bytes());
        hostile.extend_from_slice(&16u32.to_be_bytes());
        let mut reader = ChunkIndex::new();
        reader.decode(&hostile).unwrap_err();
        assert_eq!((reader.count(), reader.digest()), (1, content_hash(b"0123456789abcdef")));
        reader.rollback();
        assert_eq!((reader.count(), reader.digest(), reader.arena.len()), (0, 0, 0));
    }

    #[test]
    fn decode_rejects_malformed_parts() {
        let mut reader = ChunkIndex::new();
        assert!(reader.decode(&[0x07]).is_err(), "unknown tag");
        assert!(reader.decode(&[PART_GLUE, 0, 0, 0, 9, b'x']).is_err(), "overrun");
        assert!(reader.decode(&[PART_CHUNK, 0, 0, 0, 0]).is_err(), "empty indexed chunk");
        let mut dangling = vec![PART_REF];
        dangling.extend_from_slice(&42u64.to_be_bytes());
        dangling.extend_from_slice(&4u32.to_be_bytes());
        assert!(reader.decode(&dangling).is_err(), "unknown chunk hash");
    }

    #[test]
    fn tiny_chunks_stay_literal() {
        let mut index = ChunkIndex::new();
        let payload = b"abcdefg";
        index.encode(payload, &[0..7]);
        index.commit();
        // Second write: a 7-byte chunk + 5 framing < 13-byte reference,
        // so dedup would grow the store — keep the literal.
        let (again, stats) = index.encode(payload, &[0..7]);
        assert_eq!(stats.chunks_deduped, 0);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&again)).unwrap(), payload);
    }

    /// Encode and resolve stay linear: at 26k and at 104k chunks, every
    /// chunk costs at most one index probe and one byte comparison, on
    /// the writer and on a replica resolving what it wrote. Half the
    /// chunks repeat an earlier one, so hits and misses are both counted.
    #[test]
    fn encode_and_resolve_probe_each_chunk_once() {
        for chunks in [26_000usize, 104_000] {
            let mut payload = Vec::new();
            let mut ranges = Vec::with_capacity(chunks);
            for i in 0..chunks {
                let start = payload.len();
                payload.extend_from_slice(
                    format!("object record {:>10}", i % (chunks / 2)).as_bytes(),
                );
                ranges.push(start..payload.len());
                payload.push(b'|');
            }
            let mut writer = ChunkIndex::new();
            let (stored, stats) = writer.encode(&payload, &ranges);
            assert_eq!(stats.chunks_deduped as usize, chunks / 2);
            let per_chunk = IndexOps { lookups: chunks as u64, compares: chunks as u64 };
            let within = |ops: IndexOps| {
                ops.lookups <= per_chunk.lookups && ops.compares <= per_chunk.compares
            };
            assert!(within(writer.ops), "{chunks} chunks encoded with {:?}", writer.ops);
            writer.commit();

            let mut replica = ChunkIndex::new();
            assert_eq!(replica.decode(parts(&stored)).unwrap(), payload);
            assert!(within(replica.ops), "{chunks} chunks resolved with {:?}", replica.ops);
            assert_eq!((replica.count(), replica.digest()), (writer.count(), writer.digest()));
        }
    }
}
