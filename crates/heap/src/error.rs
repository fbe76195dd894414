//! Error type for heap operations.

use crate::ids::{ClassId, ObjectId};
use crate::value::FieldType;
use std::error::Error;
use std::fmt;

/// Errors returned by class-registry and heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// A class id did not name a class of this registry.
    UnknownClass(ClassId),
    /// A class name was not defined in this registry.
    UnknownClassName(String),
    /// A class with this name was already defined.
    DuplicateClass(String),
    /// A field name collides with an inherited or sibling field.
    DuplicateField {
        /// Class being defined.
        class: String,
        /// Offending field name.
        field: String,
    },
    /// A field name was not found in the class layout.
    UnknownField {
        /// Class that was searched.
        class: String,
        /// Field name that was requested.
        field: String,
    },
    /// A slot index was out of bounds for the object's layout.
    SlotOutOfBounds {
        /// Object whose layout was violated.
        object: ObjectId,
        /// Requested slot.
        slot: usize,
        /// Number of slots in the layout.
        len: usize,
    },
    /// A value of the wrong kind was stored into a typed slot.
    TypeMismatch {
        /// Object being written.
        object: ObjectId,
        /// Slot being written.
        slot: usize,
        /// Declared slot type.
        expected: FieldType,
    },
    /// A reference-typed store violated the slot's class constraint.
    ClassConstraint {
        /// Object being written.
        object: ObjectId,
        /// Slot being written.
        slot: usize,
        /// Required class (the referent must be this class or a subclass).
        expected: ClassId,
        /// Actual class of the referent.
        actual: ClassId,
    },
    /// An object handle was stale (freed, or from another heap) or its slot
    /// was reused by a newer allocation.
    DanglingObject(ObjectId),
    /// A stable id was encountered twice during a restore-style bulk load.
    DuplicateStableId(u64),
    /// An allocation would take a stable id past the 64-bit range: no
    /// stable id follows this one.
    StableIdOverflow(u64),
    /// An allocation's fields would start past the `u32` offsets of the
    /// heap's field arena.
    ArenaFull,
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::UnknownClass(c) => write!(f, "unknown class {c}"),
            HeapError::UnknownClassName(n) => write!(f, "unknown class name `{n}`"),
            HeapError::DuplicateClass(n) => write!(f, "class `{n}` is already defined"),
            HeapError::DuplicateField { class, field } => {
                write!(f, "field `{field}` is already defined in `{class}` or a superclass")
            }
            HeapError::UnknownField { class, field } => {
                write!(f, "class `{class}` has no field `{field}`")
            }
            HeapError::SlotOutOfBounds { object, slot, len } => {
                write!(f, "slot {slot} out of bounds for {object} with {len} fields")
            }
            HeapError::TypeMismatch { object, slot, expected } => {
                write!(f, "value stored in {object} slot {slot} is not of type {expected}")
            }
            HeapError::ClassConstraint { object, slot, expected, actual } => write!(
                f,
                "reference stored in {object} slot {slot} must be a {expected}, got {actual}"
            ),
            HeapError::DanglingObject(o) => write!(f, "dangling object handle {o}"),
            HeapError::DuplicateStableId(id) => write!(f, "stable id {id} used twice"),
            HeapError::StableIdOverflow(id) => {
                write!(f, "stable id {id} is the last one: no stable id follows it")
            }
            HeapError::ArenaFull => write!(f, "the field arena is full: offsets are 32-bit"),
        }
    }
}

impl Error for HeapError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let obj = ObjectId { index: 0, generation: 0 };
        let errors: Vec<HeapError> = vec![
            HeapError::UnknownClass(ClassId(1)),
            HeapError::UnknownClassName("X".into()),
            HeapError::DuplicateClass("X".into()),
            HeapError::DuplicateField { class: "X".into(), field: "f".into() },
            HeapError::UnknownField { class: "X".into(), field: "f".into() },
            HeapError::SlotOutOfBounds { object: obj, slot: 9, len: 2 },
            HeapError::TypeMismatch { object: obj, slot: 0, expected: FieldType::Int },
            HeapError::ClassConstraint {
                object: obj,
                slot: 0,
                expected: ClassId(0),
                actual: ClassId(1),
            },
            HeapError::DanglingObject(obj),
            HeapError::DuplicateStableId(4),
            HeapError::StableIdOverflow(u64::MAX),
            HeapError::ArenaFull,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeapError>();
    }
}
