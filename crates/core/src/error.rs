//! Error type for checkpointing, encoding, and restore.

use ickp_heap::{HeapError, StableId};
use std::error::Error;
use std::fmt;

/// Errors returned by checkpointing operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying heap access failed.
    Heap(HeapError),
    /// The checkpoint byte stream was malformed.
    Decode {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// Human-readable description of the problem.
        what: String,
    },
    /// A class index in the stream does not exist in the decoding registry.
    UnknownClassIndex(u32),
    /// A recorded field count disagrees with the class layout.
    FieldCountMismatch {
        /// Class name from the decoding registry.
        class: String,
        /// Field count found in the stream.
        recorded: usize,
        /// Field count the layout requires.
        expected: usize,
    },
    /// Restore encountered a reference to a stable id never recorded.
    MissingObject(StableId),
    /// Restore was asked to run on an empty store.
    EmptyStore,
    /// Checkpoint sequence numbers were not contiguous.
    SequenceGap {
        /// The sequence number that was expected next.
        expected: u64,
        /// The sequence number found.
        got: u64,
    },
    /// The stable-storage layer beneath the store failed (I/O error,
    /// detected corruption, or a simulated crash in tests).
    Storage {
        /// Human-readable description of the failure.
        what: String,
    },
    /// The first checkpoint applied during restore was not a full one and
    /// strict mode was requested.
    BaseNotFull,
    /// A specialized plan's guard failed: the object graph no longer has
    /// the shape the plan was compiled for.
    GuardFailed {
        /// What the guard expected.
        expected: String,
        /// What was found instead.
        found: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Heap(e) => write!(f, "heap error: {e}"),
            CoreError::Decode { offset, what } => {
                write!(f, "malformed checkpoint stream at byte {offset}: {what}")
            }
            CoreError::UnknownClassIndex(i) => {
                write!(f, "checkpoint stream names unknown class index {i}")
            }
            CoreError::FieldCountMismatch { class, recorded, expected } => {
                write!(f, "class `{class}` records {recorded} fields but its layout has {expected}")
            }
            CoreError::MissingObject(id) => {
                write!(f, "restore references {id}, which was never recorded")
            }
            CoreError::EmptyStore => write!(f, "checkpoint store is empty"),
            CoreError::SequenceGap { expected, got } => {
                write!(f, "checkpoint sequence gap: expected {expected}, got {got}")
            }
            CoreError::Storage { what } => write!(f, "stable-storage failure: {what}"),
            CoreError::BaseNotFull => {
                write!(f, "first checkpoint in store is not a full checkpoint")
            }
            CoreError::GuardFailed { expected, found } => {
                write!(f, "specialization guard failed: expected {expected}, found {found}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for CoreError {
    fn from(e: HeapError) -> CoreError {
        CoreError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let errors: Vec<CoreError> = vec![
            CoreError::Heap(HeapError::UnknownClassName("X".into())),
            CoreError::Decode { offset: 3, what: "bad tag".into() },
            CoreError::UnknownClassIndex(9),
            CoreError::FieldCountMismatch { class: "X".into(), recorded: 1, expected: 2 },
            CoreError::MissingObject(StableId(4)),
            CoreError::EmptyStore,
            CoreError::SequenceGap { expected: 2, got: 5 },
            CoreError::Storage { what: "disk on fire".into() },
            CoreError::BaseNotFull,
            CoreError::GuardFailed { expected: "BTEntry".into(), found: "null".into() },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
