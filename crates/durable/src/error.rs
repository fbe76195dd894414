//! Error type for the durable store.

use std::error::Error;
use std::fmt;

use crate::vfs::FsError;
use ickp_core::CoreError;

/// Errors surfaced by [`DurableStore`](crate::DurableStore) and the
/// crash harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// The underlying filesystem failed (or was made to fail).
    Fs(FsError),
    /// Data inside the *acknowledged* region failed validation. Unlike a
    /// torn tail — which recovery silently truncates — this is real
    /// corruption and is never repaired automatically.
    Corrupt {
        /// The file the corruption was found in.
        file: String,
        /// Byte offset of the bad frame or header.
        offset: u64,
        /// What went wrong.
        what: String,
    },
    /// Recovered records are not a contiguous sequence.
    SequenceGap {
        /// The sequence number recovery expected next.
        expected: u64,
        /// The sequence number it found.
        got: u64,
    },
    /// A checkpoint-level operation (encode/decode) failed.
    Core(CoreError),
    /// [`DurableStore::create`](crate::DurableStore::create) found an
    /// existing store in the directory.
    AlreadyExists,
    /// A tag or rewrite referenced a sequence number the store holds no
    /// record for.
    UnknownSeq(u64),
    /// A tag operation referenced a label the store does not carry.
    UnknownTag(String),
    /// A tag label is longer than the manifest's 16-bit length field
    /// can carry (`u16::MAX` bytes).
    LabelTooLong {
        /// The label's length in bytes.
        len: usize,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Fs(e) => write!(f, "filesystem: {e}"),
            DurableError::Corrupt { file, offset, what } => {
                write!(f, "corrupt store: {file} at byte {offset}: {what}")
            }
            DurableError::SequenceGap { expected, got } => {
                write!(f, "sequence gap in recovered records: expected seq {expected}, got {got}")
            }
            DurableError::Core(e) => write!(f, "checkpoint: {e}"),
            DurableError::AlreadyExists => write!(f, "a durable store already exists here"),
            DurableError::UnknownSeq(seq) => {
                write!(f, "no checkpoint with sequence number {seq} in the store")
            }
            DurableError::UnknownTag(label) => write!(f, "no tag named {label:?} in the store"),
            DurableError::LabelTooLong { len } => {
                write!(f, "tag label is {len} bytes, the limit is {} bytes", u16::MAX)
            }
        }
    }
}

impl Error for DurableError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DurableError::Fs(e) => Some(e),
            DurableError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FsError> for DurableError {
    fn from(e: FsError) -> DurableError {
        DurableError::Fs(e)
    }
}

impl From<CoreError> for DurableError {
    fn from(e: CoreError) -> DurableError {
        DurableError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<(DurableError, &str)> = vec![
            (DurableError::Fs(FsError::NotFound("x".into())), "filesystem: no such file: x"),
            (
                DurableError::Corrupt {
                    file: "seg-000001.ickd".into(),
                    offset: 10,
                    what: "crc mismatch".into(),
                },
                "corrupt store: seg-000001.ickd at byte 10: crc mismatch",
            ),
            (
                DurableError::SequenceGap { expected: 3, got: 5 },
                "sequence gap in recovered records: expected seq 3, got 5",
            ),
            (DurableError::AlreadyExists, "a durable store already exists here"),
            (DurableError::UnknownSeq(9), "no checkpoint with sequence number 9 in the store"),
            (DurableError::UnknownTag("release".into()), "no tag named \"release\" in the store"),
            (
                DurableError::LabelTooLong { len: 70_000 },
                "tag label is 70000 bytes, the limit is 65535 bytes",
            ),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
        }
    }
}
