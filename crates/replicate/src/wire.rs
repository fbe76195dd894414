//! The replication wire format.
//!
//! Every frame is self-delimiting and CRC-protected, so a follower can
//! reject truncated or bit-flipped frames without trusting the
//! transport:
//!
//! ```text
//! +-------+---------+------+--------+------------------+-------+
//! | magic | version | kind | op_seq | body (kind-dep.) | crc32 |
//! | ICKW  | u16 LE  | u8   | u64 LE |                  | u32 LE|
//! +-------+---------+------+--------+------------------+-------+
//! ```
//!
//! `op_seq` is the primary's monotone replication-operation number; the
//! follower applies op `n+1` only after op `n`, re-acknowledging (and
//! discarding) anything older — which makes duplicated and retransmitted
//! frames idempotent. Checkpoint payloads travel as their *exact*
//! `StreamWriter` bytes, so a shipped record is byte-identical on both
//! nodes and the follower re-derives `seq`/`kind`/roots by scanning the
//! payload it was handed (`ickp_core::CheckpointRecord::validate`).
//!
//! A message is generic over how it holds its payloads: the primary
//! encodes frames from payloads borrowed from its committed records
//! (`WireMessage<&[u8]>`), and [`WireMessage::decode`] hands the follower
//! owned ones (`WireMessage<Vec<u8>>`, the default).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ickp_durable::crc32;

/// Leading magic of every replication frame.
pub const WIRE_MAGIC: [u8; 4] = *b"ICKW";

/// Wire format version.
pub const WIRE_VERSION: u16 = 1;

const KIND_BATCH: u8 = 0x01;
const KIND_TAG: u8 = 0x02;
const KIND_REMOVE_TAG: u8 = 0x03;
const KIND_REWRITE: u8 = 0x04;
const KIND_ACK: u8 = 0x05;

/// One replication frame, decoded; `P` holds each checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage<P = Vec<u8>> {
    /// A committed group-commit batch: the payload bytes of each record,
    /// in sequence order.
    Batch {
        /// Replication operation number.
        op_seq: u64,
        /// Exact `StreamWriter` bytes of each record in the batch.
        payloads: Vec<P>,
    },
    /// Pin `label` to checkpoint `seq`.
    Tag {
        /// Replication operation number.
        op_seq: u64,
        /// Tag label.
        label: String,
        /// Checkpoint sequence number the tag pins.
        seq: u64,
    },
    /// Remove the tag `label`.
    RemoveTag {
        /// Replication operation number.
        op_seq: u64,
        /// Tag label.
        label: String,
    },
    /// Atomically replace the whole store contents (retention merge or
    /// reset): the new record payloads plus the surviving tags.
    Rewrite {
        /// Replication operation number.
        op_seq: u64,
        /// Exact payload bytes of the replacement records.
        payloads: Vec<P>,
        /// Tags surviving the rewrite.
        tags: Vec<(String, u64)>,
    },
    /// Follower → primary: every op up to and including `op_seq` is
    /// durably applied.
    Ack {
        /// Highest durably applied replication operation.
        op_seq: u64,
    },
}

impl<P: AsRef<[u8]>> WireMessage<P> {
    /// The replication operation number this frame carries.
    pub fn op_seq(&self) -> u64 {
        match self {
            WireMessage::Batch { op_seq, .. }
            | WireMessage::Tag { op_seq, .. }
            | WireMessage::RemoveTag { op_seq, .. }
            | WireMessage::Rewrite { op_seq, .. }
            | WireMessage::Ack { op_seq } => *op_seq,
        }
    }

    /// Encodes the frame: header, body, trailing CRC over everything
    /// before it.
    pub fn encode(&self) -> Vec<u8> {
        // Sized once: a batch frame carries whole checkpoints, which a
        // buffer grown by doubling would copy about twice over.
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        let kind = match self {
            WireMessage::Batch { .. } => KIND_BATCH,
            WireMessage::Tag { .. } => KIND_TAG,
            WireMessage::RemoveTag { .. } => KIND_REMOVE_TAG,
            WireMessage::Rewrite { .. } => KIND_REWRITE,
            WireMessage::Ack { .. } => KIND_ACK,
        };
        out.push(kind);
        out.extend_from_slice(&self.op_seq().to_le_bytes());
        match self {
            WireMessage::Batch { payloads, .. } => put_payloads(&mut out, payloads),
            WireMessage::Tag { label, seq, .. } => {
                put_label(&mut out, label);
                out.extend_from_slice(&seq.to_le_bytes());
            }
            WireMessage::RemoveTag { label, .. } => put_label(&mut out, label),
            WireMessage::Rewrite { payloads, tags, .. } => {
                put_payloads(&mut out, payloads);
                out.extend_from_slice(&(tags.len() as u32).to_le_bytes());
                for (label, seq) in tags {
                    put_label(&mut out, label);
                    out.extend_from_slice(&seq.to_le_bytes());
                }
            }
            WireMessage::Ack { .. } => {}
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// The length of the frame [`WireMessage::encode`] writes.
    fn encoded_len(&self) -> usize {
        let payloads = |ps: &[P]| 4 + ps.iter().map(|p| 4 + p.as_ref().len()).sum::<usize>();
        let label = |l: &str| 2 + l.len();
        let body = match self {
            WireMessage::Batch { payloads: ps, .. } => payloads(ps),
            WireMessage::Tag { label: l, .. } => label(l) + 8,
            WireMessage::RemoveTag { label: l, .. } => label(l),
            WireMessage::Rewrite { payloads: ps, tags, .. } => {
                payloads(ps) + 4 + tags.iter().map(|(l, _)| label(l) + 8).sum::<usize>()
            }
            WireMessage::Ack { .. } => 0,
        };
        WIRE_MAGIC.len() + 2 + 1 + 8 + body + 4
    }
}

impl WireMessage {
    /// Decodes and integrity-checks one frame.
    ///
    /// # Errors
    ///
    /// A description of the first malformation found: bad magic or
    /// version, unknown kind, truncation, trailing garbage, or CRC
    /// mismatch.
    pub fn decode(bytes: &[u8]) -> Result<WireMessage, String> {
        let (body, crc_bytes) = match bytes.split_last_chunk() {
            Some(split) if bytes.len() >= 4 + 2 + 1 + 8 + 4 => split,
            _ => return Err(format!("frame too short: {} bytes", bytes.len())),
        };
        let want = u32::from_le_bytes(*crc_bytes);
        let got = crc32(body);
        if want != got {
            return Err(format!("frame crc mismatch: stored {want:#010x}, computed {got:#010x}"));
        }
        let mut c = Cursor { bytes: body, pos: 0 };
        if c.take(4)? != WIRE_MAGIC {
            return Err("bad wire magic".into());
        }
        let version = c.u16()?;
        if version != WIRE_VERSION {
            return Err(format!("wire version {version}, expected {WIRE_VERSION}"));
        }
        let kind = c.u8()?;
        let op_seq = c.u64()?;
        let msg = match kind {
            KIND_BATCH => WireMessage::Batch { op_seq, payloads: c.payloads()? },
            KIND_TAG => {
                let label = c.label()?;
                let seq = c.u64()?;
                WireMessage::Tag { op_seq, label, seq }
            }
            KIND_REMOVE_TAG => WireMessage::RemoveTag { op_seq, label: c.label()? },
            KIND_REWRITE => {
                let payloads = c.payloads()?;
                let ntags = c.u32()? as usize;
                let mut tags = Vec::with_capacity(ntags.min(1024));
                for _ in 0..ntags {
                    let label = c.label()?;
                    let seq = c.u64()?;
                    tags.push((label, seq));
                }
                WireMessage::Rewrite { op_seq, payloads, tags }
            }
            KIND_ACK => WireMessage::Ack { op_seq },
            other => return Err(format!("unknown wire kind {other:#04x}")),
        };
        if c.pos != body.len() {
            return Err(format!("{} trailing bytes after frame body", body.len() - c.pos));
        }
        Ok(msg)
    }
}

fn put_payloads(out: &mut Vec<u8>, payloads: &[impl AsRef<[u8]>]) {
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads.iter().map(AsRef::as_ref) {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
}

/// Labels reach the wire only after the primary's store accepted them,
/// and `DurableStore::tag`/`rewrite` refuse any longer than `u16::MAX`.
fn put_label(out: &mut Vec<u8>, label: &str) {
    out.extend_from_slice(&(label.len() as u16).to_le_bytes());
    out.extend_from_slice(label.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn truncated(&self) -> String {
        format!("frame truncated at offset {}", self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let s = self.bytes.get(self.pos..self.pos + n).ok_or_else(|| self.truncated())?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        let (head, _) = rest.split_first_chunk().ok_or_else(|| self.truncated())?;
        self.pos += N;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.array().map(|[b]| b)
    }

    fn u16(&mut self) -> Result<u16, String> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    fn label(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "label is not utf-8".to_string())
    }

    fn payloads(&mut self) -> Result<Vec<Vec<u8>>, String> {
        let count = self.u32()? as usize;
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let len = self.u32()? as usize;
            out.push(self.take(len)?.to_vec());
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;

    fn roundtrip(msg: WireMessage) {
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(WireMessage::Batch { op_seq: 7, payloads: vec![vec![1, 2, 3], vec![], vec![9]] });
        roundtrip(WireMessage::Tag { op_seq: 8, label: "alpha".into(), seq: 3 });
        roundtrip(WireMessage::RemoveTag { op_seq: 9, label: "alpha".into() });
        roundtrip(WireMessage::Rewrite {
            op_seq: 10,
            payloads: vec![vec![0xFF; 40]],
            tags: vec![("keep".into(), 12), ("base".into(), 4)],
        });
        roundtrip(WireMessage::Ack { op_seq: 11 });
    }

    #[test]
    fn borrowed_payloads_encode_like_owned_ones() {
        let owned = vec![vec![1, 2, 3], vec![], vec![0xFF; 40]];
        let borrowed: Vec<&[u8]> = owned.iter().map(Vec::as_slice).collect();
        let tags = vec![("keep".to_string(), 12)];
        assert_eq!(
            WireMessage::Batch { op_seq: 7, payloads: borrowed.clone() }.encode(),
            WireMessage::Batch { op_seq: 7, payloads: owned.clone() }.encode()
        );
        assert_eq!(
            WireMessage::Rewrite { op_seq: 8, payloads: borrowed, tags: tags.clone() }.encode(),
            WireMessage::Rewrite { op_seq: 8, payloads: owned, tags }.encode()
        );
    }

    #[test]
    fn corruption_is_rejected() {
        let mut bytes =
            WireMessage::<Vec<u8>>::Tag { op_seq: 1, label: "t".into(), seq: 0 }.encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert!(err.contains("crc"), "{err}");
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = WireMessage::<Vec<u8>>::Ack { op_seq: 3 }.encode();
        assert!(WireMessage::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(WireMessage::decode(&[]).is_err());
    }

    #[test]
    fn huge_tag_count_is_rejected_without_preallocating() {
        // A CRC-valid Rewrite frame claiming u32::MAX tags and holding
        // none must fail on the missing bytes, not size a buffer from
        // the claim.
        let mut bytes =
            WireMessage::<Vec<u8>>::Rewrite { op_seq: 1, payloads: vec![], tags: vec![] }.encode();
        bytes.truncate(bytes.len() - 8);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(bytes.len(), 27);
        assert!(WireMessage::decode(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        // Valid body + extra byte + recomputed CRC: structurally sound
        // but longer than the kind says — must be rejected, not ignored.
        let mut bytes = WireMessage::<Vec<u8>>::Ack { op_seq: 3 }.encode();
        bytes.truncate(bytes.len() - 4);
        bytes.push(0xAB);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let err = WireMessage::decode(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
