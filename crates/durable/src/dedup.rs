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

use std::collections::HashMap;
use std::ops::Range;

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
pub(crate) struct EncodedPayload {
    pub stored: Vec<u8>,
    pub staged: Vec<(u64, Vec<u8>)>,
    pub stats: DedupStats,
}

/// The in-memory content-hash index over every indexed chunk in the
/// committed frontier. Rebuilt from the segments on open; the manifest
/// carries only a count + digest summary to cross-check the rebuild.
#[derive(Debug, Default)]
pub(crate) struct ChunkIndex {
    map: HashMap<u64, Vec<u8>>,
    digest: u64,
}

impl ChunkIndex {
    pub fn new() -> ChunkIndex {
        ChunkIndex::default()
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

    /// Encodes `payload` into parts. `ranges` are the dedup-candidate
    /// chunks (ascending, non-overlapping, in bounds — the slices
    /// `ickp_core::object_slices` reports); everything between them is
    /// glue. Panics if `ranges` violates that contract: the caller hands
    /// us slices of a stream it just validated.
    pub fn encode(&self, payload: &[u8], ranges: &[Range<usize>]) -> EncodedPayload {
        self.encode_batched(payload, ranges, &[])
    }

    /// [`ChunkIndex::encode`] with extra dedup context: `pending` holds
    /// the chunks staged by *earlier frames of the same atomic batch*.
    /// A reference may point at a pending chunk only because the whole
    /// batch commits in one manifest swap — either every frame of the
    /// batch is acknowledged (the referenced chunk is inside the
    /// frontier, earlier in the scan order) or none is. References can
    /// therefore never cross an un-acknowledged batch boundary.
    ///
    /// Every lookup is a hash probe: `pending` is indexed once per frame
    /// and this frame's own staged chunks join that index as they are
    /// staged.
    pub fn encode_batched(
        &self,
        payload: &[u8],
        ranges: &[Range<usize>],
        pending: &[(u64, Vec<u8>)],
    ) -> EncodedPayload {
        let mut stored = Vec::with_capacity(payload.len() + LITERAL_OVERHEAD);
        let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
        // Chunks of the uncommitted batch so far: earlier frames' and this
        // frame's. Hashes are unique across it and the index, because a
        // chunk is staged only when its hash is found in neither.
        let mut batch: HashMap<u64, &[u8]> =
            pending.iter().map(|(hash, bytes)| (*hash, bytes.as_slice())).collect();
        let mut stats = DedupStats { bytes_in: payload.len() as u64, ..DedupStats::default() };
        let mut cursor = 0usize;
        let glue = |out: &mut Vec<u8>, bytes: &[u8]| {
            out.push(PART_GLUE);
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(bytes);
        };
        for range in ranges {
            assert!(
                cursor <= range.start && range.start < range.end && range.end <= payload.len(),
                "dedup ranges must be ascending, non-overlapping and in bounds"
            );
            if range.start > cursor {
                glue(&mut stored, &payload[cursor..range.start]);
            }
            let chunk = &payload[range.clone()];
            stats.chunks_total += 1;
            let hash = content_hash(chunk);
            let known: Option<&[u8]> =
                self.map.get(&hash).map(Vec::as_slice).or_else(|| batch.get(&hash).copied());
            match known {
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
                    staged.push((hash, chunk.to_vec()));
                    stored.push(PART_CHUNK);
                    stored.extend_from_slice(&(chunk.len() as u32).to_be_bytes());
                    stored.extend_from_slice(chunk);
                }
            }
            cursor = range.end;
        }
        if cursor < payload.len() {
            glue(&mut stored, &payload[cursor..]);
        }
        stats.bytes_stored = stored.len() as u64;
        EncodedPayload { stored, staged, stats }
    }

    /// Enters an acknowledged write's staged chunks into the index.
    pub fn commit(&mut self, staged: Vec<(u64, Vec<u8>)>) {
        for (hash, bytes) in staged {
            self.digest = self.digest.wrapping_add(hash);
            self.map.insert(hash, bytes);
        }
    }

    /// Decodes a stored frame payload back into its logical bytes,
    /// entering indexed chunks as they stream past (recovery path: the
    /// frontier is committed, so inserts are immediate). Errors are
    /// `(offset, what)` for the caller to wrap in its corruption type.
    pub fn decode(&mut self, stored: &[u8]) -> Result<Vec<u8>, (usize, String)> {
        let mut payload = Vec::with_capacity(stored.len());
        let mut at = 0usize;
        let take = |at: &mut usize, n: usize| -> Result<Range<usize>, (usize, String)> {
            if *at + n > stored.len() {
                return Err((*at, "frame part overruns the payload".to_string()));
            }
            let r = *at..*at + n;
            *at += n;
            Ok(r)
        };
        while at < stored.len() {
            let tag_at = at;
            let tag = stored[take(&mut at, 1)?.start];
            match tag {
                PART_GLUE | PART_CHUNK => {
                    let len =
                        u32::from_be_bytes(stored[take(&mut at, 4)?].try_into().expect("4 bytes"))
                            as usize;
                    let bytes = &stored[take(&mut at, len)?];
                    if tag == PART_CHUNK {
                        let hash = content_hash(bytes);
                        if let Some(existing) = self.map.get(&hash) {
                            if existing != bytes {
                                return Err((
                                    tag_at,
                                    "indexed chunk collides with an earlier chunk".to_string(),
                                ));
                            }
                        }
                        self.digest = self.digest.wrapping_add(hash);
                        self.map.insert(hash, bytes.to_vec());
                    }
                    payload.extend_from_slice(bytes);
                }
                PART_REF => {
                    let hash =
                        u64::from_be_bytes(stored[take(&mut at, 8)?].try_into().expect("8 bytes"));
                    let len =
                        u32::from_be_bytes(stored[take(&mut at, 4)?].try_into().expect("4 bytes"))
                            as usize;
                    let chunk = self.map.get(&hash).ok_or_else(|| {
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

#[cfg(test)]
// Single-element `&[range]` literals here really are one-chunk range
// lists, not misread `vec![start; end]`s.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    fn round_trip(payload: &[u8], ranges: &[Range<usize>]) {
        let mut writer = ChunkIndex::new();
        let mut reader = ChunkIndex::new();
        let enc = writer.encode(payload, ranges);
        writer.commit(enc.staged);
        assert_eq!(reader.decode(&enc.stored).unwrap(), payload);
        assert_eq!(reader.count(), writer.count());
        assert_eq!(reader.digest(), writer.digest());
    }

    #[test]
    fn encode_decode_round_trips() {
        round_trip(b"plain payload, no chunks", &[]);
        round_trip(b"", &[]);
        let payload = b"head-AAAAAAAAAAAAAAAA-mid-BBBBBBBBBBBBBBBB-tail";
        round_trip(payload, &[5..21, 26..42]);
        round_trip(payload, &[0..payload.len()]);
    }

    #[test]
    fn repeated_chunks_become_references() {
        let mut index = ChunkIndex::new();
        let a = b"glue|CHUNKCHUNKCHUNKCHUNKCHUNKCHUNKCHUNKCHUNK|end";
        let first = index.encode(a, &[5..45]);
        assert_eq!(first.stats.chunks_deduped, 0);
        index.commit(first.staged);
        let second = index.encode(a, &[5..45]);
        assert_eq!(second.stats.chunks_total, 1);
        assert_eq!(second.stats.chunks_deduped, 1);
        assert!(second.stats.bytes_stored < second.stats.bytes_in);
        assert!(second.staged.is_empty());
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(&first.stored).unwrap(), a);
        assert_eq!(reader.decode(&second.stored).unwrap(), a);
    }

    #[test]
    fn same_frame_repeats_dedup_against_staging() {
        let index = ChunkIndex::new();
        let payload = b"XXXXYYYYYYYYYYYYYYYYZZZZYYYYYYYYYYYYYYYY";
        let enc = index.encode(payload, &[4..20, 24..40]);
        assert_eq!(enc.stats.chunks_deduped, 1);
        assert_eq!(enc.staged.len(), 1);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(&enc.stored).unwrap(), payload);
    }

    #[test]
    fn batched_encode_dedups_against_pending_frames() {
        let index = ChunkIndex::new();
        let payload = b"....CHUNKCHUNKCHUNKCHUNKCHUNKCHUNK....";
        // Frame 1 of a batch stages the chunk; frame 2 of the *same*
        // batch references it without committing anything in between.
        let first = index.encode_batched(payload, &[4..34], &[]);
        assert_eq!(first.staged.len(), 1);
        let second = index.encode_batched(payload, &[4..34], &first.staged);
        assert_eq!(second.stats.chunks_deduped, 1);
        assert!(second.staged.is_empty(), "pending chunks are not re-staged");
        // An in-order decode (how recovery scans the frontier) resolves
        // the intra-batch reference.
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(&first.stored).unwrap(), payload);
        assert_eq!(reader.decode(&second.stored).unwrap(), payload);
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
        index.commit(enc.staged);
        // Second write: a 7-byte chunk + 5 framing < 13-byte reference,
        // so dedup would grow the store — keep the literal.
        let again = index.encode(payload, &[0..7]);
        assert_eq!(again.stats.chunks_deduped, 0);
        let mut reader = ChunkIndex::new();
        assert_eq!(reader.decode(&again.stored).unwrap(), payload);
    }
}
