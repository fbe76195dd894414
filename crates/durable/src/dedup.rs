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
//! allocation of its own. Its map, and the per-batch map of staged
//! chunks, hash their FNV keys with `SeededMix`: one xor with a seed,
//! one multiply, one xor-shift. The seed is drawn once per index from
//! the standard library's random hasher keys, because `open` indexes
//! chunks read from disk and a store written in advance must not be able
//! to pile them into one bucket. Neither map is ever iterated (`count`
//! is a length, `digest` a wrapping sum), so the seed reaches no output.

// `decode` reads bytes back from disk and must not panic on them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::collections::hash_map::RandomState;
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

/// The chunks staged so far by one uncommitted batch, by hash, borrowed
/// from the batch's records. Built by [`ChunkIndex::batch_map`].
pub(crate) type BatchChunks<'a> = HashMap<u64, &'a [u8], SeededMix>;

/// New indexed chunks as `(hash, bytes)`, in the order they were staged.
pub(crate) type Staged<'a> = Vec<(u64, &'a [u8])>;

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

/// One frame payload encoded into parts, plus the chunks it would add
/// to the index *if* the write is acknowledged. Nothing enters the index
/// until [`ChunkIndex::commit`] — a failed append must not leave hashes
/// that recovery cannot resolve.
pub(crate) struct EncodedPayload<'a> {
    /// Room for the frame header, then the parts.
    pub stored: Vec<u8>,
    pub staged: Staged<'a>,
    pub stats: DedupStats,
}

/// The in-memory content-hash index over every indexed chunk in the
/// committed frontier. Rebuilt from the segments on open; the manifest
/// carries only a count + digest summary to cross-check the rebuild.
#[derive(Debug)]
pub(crate) struct ChunkIndex {
    /// Hash → `(offset, len)` of the chunk's bytes in `arena`.
    map: HashMap<u64, (usize, usize), SeededMix>,
    /// Every indexed chunk's bytes, back to back, in commit order.
    arena: Vec<u8>,
    digest: u64,
}

impl ChunkIndex {
    pub fn new() -> ChunkIndex {
        let seed = RandomState::new().build_hasher().finish();
        let map = HashMap::with_hasher(SeededMix { seed, key: 0 });
        ChunkIndex { map, arena: Vec::new(), digest: 0 }
    }

    /// Number of indexed chunks.
    pub fn count(&self) -> u64 {
        self.map.len() as u64
    }

    /// Order-independent summary of the index: the wrapping sum of every
    /// chunk hash. Stored in the manifest so open can verify the rebuilt
    /// index without the manifest growing with the store.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The bytes of the indexed chunk `hash`.
    fn get(&self, hash: u64) -> Option<&[u8]> {
        let &(at, len) = self.map.get(&hash)?;
        self.arena.get(at..)?.get(..len)
    }

    /// Indexes `bytes` under `hash`, which must not be indexed yet.
    fn insert(&mut self, hash: u64, bytes: &[u8]) {
        self.map.insert(hash, (self.arena.len(), bytes.len()));
        self.arena.extend_from_slice(bytes);
        self.digest = self.digest.wrapping_add(hash);
    }

    /// An empty map for one batch's staged chunks, with this index's seed.
    pub fn batch_map<'a>(&self) -> BatchChunks<'a> {
        HashMap::with_hasher(*self.map.hasher())
    }

    /// Encodes `payload` into parts behind [`FRAME_HEADER_LEN`] bytes of
    /// room for the frame header. `ranges` are the dedup-candidate chunks
    /// (the slices `ickp_core::object_slices` reports); everything
    /// between them is glue.
    ///
    /// `batch` holds the chunks staged by *earlier frames of the same
    /// atomic batch*, and this frame's new chunks join it. A reference may
    /// point at a batch chunk only because the whole batch commits in one
    /// manifest swap — either every frame of the batch is acknowledged
    /// (the referenced chunk is inside the frontier, earlier in the scan
    /// order) or none is. References can therefore never cross an
    /// un-acknowledged batch boundary. Every lookup is one probe of the
    /// index and at most one of `batch`.
    ///
    /// # Panics
    ///
    /// If `ranges` are not ascending, non-empty, non-overlapping and in
    /// bounds: the caller hands us slices of a stream it just validated.
    pub fn encode_batched<'a>(
        &self,
        payload: &'a [u8],
        ranges: &[Range<usize>],
        batch: &mut BatchChunks<'a>,
    ) -> EncodedPayload<'a> {
        let mut stored = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + LITERAL_OVERHEAD);
        stored.resize(FRAME_HEADER_LEN, 0);
        let mut staged = Vec::new();
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
            // Hashes are unique across the index and `batch`: a chunk is
            // staged only when its hash is found in neither.
            match self.get(hash).or_else(|| batch.get(&hash).copied()) {
                // A hash hit only dedups when the bytes agree (collision
                // safety) and the reference is no larger than the chunk.
                Some(existing)
                    if existing == chunk && chunk.len() + LITERAL_OVERHEAD > REF_PART_LEN =>
                {
                    stats.chunks_deduped += 1;
                    stored.push(PART_REF);
                    stored.extend_from_slice(&hash.to_be_bytes());
                    stored.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
                }
                Some(_) => glue(&mut stored, chunk),
                None => {
                    batch.insert(hash, chunk);
                    staged.push((hash, chunk));
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
        EncodedPayload { stored, staged, stats }
    }

    /// Enters an acknowledged batch's staged chunks into the index.
    pub fn commit(&mut self, staged: &[(u64, &[u8])]) {
        self.arena.reserve(staged.iter().map(|(_, bytes)| bytes.len()).sum());
        for &(hash, bytes) in staged {
            self.insert(hash, bytes);
        }
    }

    /// Decodes a stored frame payload back into its logical bytes,
    /// entering indexed chunks as they stream past (recovery path: the
    /// frontier is committed, so inserts are immediate). Errors are
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
                        let hash = content_hash(bytes);
                        match self.get(hash) {
                            Some(existing) if existing != bytes => {
                                return Err((
                                    tag_at,
                                    "indexed chunk collides with an earlier chunk".to_string(),
                                ));
                            }
                            // A repeat of an indexed chunk still counts in
                            // the digest, so the manifest cross-check
                            // catches a duplicated chunk part.
                            Some(_) => self.digest = self.digest.wrapping_add(hash),
                            None => self.insert(hash, bytes),
                        }
                    }
                    payload.extend_from_slice(bytes);
                }
                PART_REF => {
                    let hash = u64::from_be_bytes(take(stored, &mut at)?);
                    let len = u32::from_be_bytes(take(stored, &mut at)?) as usize;
                    let chunk = self.get(hash).ok_or_else(|| {
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

    impl ChunkIndex {
        /// A batch of one.
        fn encode<'a>(&self, payload: &'a [u8], ranges: &[Range<usize>]) -> EncodedPayload<'a> {
            self.encode_batched(payload, ranges, &mut self.batch_map())
        }
    }

    /// The parts of an encoded frame, without the header room.
    fn parts<'e>(enc: &'e EncodedPayload<'_>) -> &'e [u8] {
        &enc.stored[FRAME_HEADER_LEN..]
    }

    fn round_trip(payload: &[u8], ranges: &[Range<usize>]) {
        let mut writer = ChunkIndex::new();
        let mut reader = ChunkIndex::new();
        let enc = writer.encode(payload, ranges);
        writer.commit(&enc.staged);
        assert_eq!(reader.decode(parts(&enc)).unwrap(), payload);
        assert_eq!(reader.count(), writer.count());
        assert_eq!(reader.digest(), writer.digest());
        // A second index hashes with another seed, and that changes
        // nothing the store writes or summarizes.
        let mut other = ChunkIndex::new();
        assert_ne!(other.map.hasher().seed, writer.map.hasher().seed);
        let again = other.encode(payload, ranges);
        other.commit(&again.staged);
        assert_eq!(again.stored, enc.stored);
        assert_eq!(again.stats, enc.stats);
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
        let first = index.encode(a, &[5..45]);
        assert_eq!(first.stats.chunks_deduped, 0);
        index.commit(&first.staged);
        let second = index.encode(a, &[5..45]);
        assert_eq!(second.stats.chunks_total, 1);
        assert_eq!(second.stats.chunks_deduped, 1);
        assert!(second.stats.bytes_stored < second.stats.bytes_in);
        assert!(second.staged.is_empty());
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&first)).unwrap(), a);
        assert_eq!(reader.decode(parts(&second)).unwrap(), a);
    }

    #[test]
    fn same_frame_repeats_dedup_against_staging() {
        let index = ChunkIndex::new();
        let payload = b"XXXXYYYYYYYYYYYYYYYYZZZZYYYYYYYYYYYYYYYY";
        let enc = index.encode(payload, &[4..20, 24..40]);
        assert_eq!(enc.stats.chunks_deduped, 1);
        assert_eq!(enc.staged.len(), 1);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&enc)).unwrap(), payload);
    }

    #[test]
    fn batched_encode_dedups_against_pending_frames() {
        let index = ChunkIndex::new();
        let payload = b"....CHUNKCHUNKCHUNKCHUNKCHUNKCHUNK....";
        // Frame 1 of a batch stages the chunk; frame 2 of the *same*
        // batch references it without committing anything in between.
        let mut batch = index.batch_map();
        let first = index.encode_batched(payload, &[4..34], &mut batch);
        assert_eq!(first.staged.len(), 1);
        let second = index.encode_batched(payload, &[4..34], &mut batch);
        assert_eq!(second.stats.chunks_deduped, 1);
        assert!(second.staged.is_empty(), "pending chunks are not re-staged");
        // An in-order decode (how recovery scans the frontier) resolves
        // the intra-batch reference.
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
        let enc = writer.encode(&first, &[0..first.len()]);
        writer.commit(&enc.staged);
        reader.decode(parts(&enc)).unwrap();
        let early_capacity = writer.arena.capacity();
        for i in 0..500u32 {
            let filler = format!("filler chunk number {i:>8} of many");
            let enc = writer.encode(filler.as_bytes(), &[0..filler.len()]);
            writer.commit(&enc.staged);
            assert_eq!(reader.decode(parts(&enc)).unwrap(), filler.as_bytes());
        }
        assert!(writer.arena.capacity() >= 64 * early_capacity, "the arena grew several times");
        let again = writer.encode(&first, &[0..first.len()]);
        assert_eq!(again.stats.chunks_deduped, 1);
        assert_eq!(reader.decode(parts(&again)).unwrap(), first);
        assert_eq!((reader.count(), reader.digest()), (writer.count(), writer.digest()));
    }

    #[test]
    fn uncommitted_chunks_never_enter_the_index() {
        let index = ChunkIndex::new();
        let enc = index.encode(b"ABCDEFGHIJKLMNOP", &[0..16]);
        drop(enc); // the append "failed": nothing committed
        assert_eq!(index.count(), 0);
        assert_eq!(index.digest(), 0);
    }

    #[test]
    fn decode_rejects_malformed_parts() {
        let mut reader = ChunkIndex::new();
        assert!(reader.decode(&[0x07]).is_err(), "unknown tag");
        assert!(reader.decode(&[PART_GLUE, 0, 0, 0, 9, b'x']).is_err(), "overrun");
        let mut dangling = vec![PART_REF];
        dangling.extend_from_slice(&42u64.to_be_bytes());
        dangling.extend_from_slice(&4u32.to_be_bytes());
        assert!(reader.decode(&dangling).is_err(), "unknown chunk hash");
    }

    #[test]
    fn tiny_chunks_stay_literal() {
        let mut index = ChunkIndex::new();
        let payload = b"abcdefg";
        let enc = index.encode(payload, &[0..7]);
        index.commit(&enc.staged);
        // Second write: a 7-byte chunk + 5 framing < 13-byte reference,
        // so dedup would grow the store — keep the literal.
        let again = index.encode(payload, &[0..7]);
        assert_eq!(again.stats.chunks_deduped, 0);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(parts(&again)).unwrap(), payload);
    }
}
