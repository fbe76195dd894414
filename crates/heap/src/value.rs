//! Field types and runtime values.

use crate::ids::{ClassId, ObjectId};
use std::fmt;

/// The declared type of an object field.
///
/// Mirrors the Java field kinds exercised by the paper's benchmarks: the
/// primitive types written directly into the checkpoint stream, plus
/// reference fields. A reference field may optionally be constrained to a
/// declared class (`Ref(Some(c))` accepts `c` and its subclasses), which is
/// what makes *structure specialization* possible: a shape-static field with
/// a known class can be traversed without consulting the object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 32-bit signed integer (Java `int`).
    Int,
    /// 64-bit signed integer (Java `long`).
    Long,
    /// 64-bit IEEE float (Java `double`).
    Double,
    /// Boolean (Java `boolean`).
    Bool,
    /// Reference to another heap object, possibly `null`.
    ///
    /// `Ref(None)` is an unconstrained reference (Java `Object`);
    /// `Ref(Some(c))` requires the referent to be an instance of class `c`
    /// or one of its subclasses.
    Ref(Option<ClassId>),
}

impl FieldType {
    /// Returns the zero/default value of this type: `0`, `0.0`, `false`, or
    /// a null reference.
    pub fn default_value(self) -> Value {
        match self {
            FieldType::Int => Value::Int(0),
            FieldType::Long => Value::Long(0),
            FieldType::Double => Value::Double(0.0),
            FieldType::Bool => Value::Bool(false),
            FieldType::Ref(_) => Value::Ref(None),
        }
    }

    /// Returns `true` if this is a reference type.
    pub fn is_ref(self) -> bool {
        matches!(self, FieldType::Ref(_))
    }

    /// Returns the number of bytes a value of this type occupies in the
    /// checkpoint stream (references are recorded as the 8-byte stable id of
    /// the referent, or 8 bytes of sentinel for `null`).
    pub fn encoded_size(self) -> usize {
        match self {
            FieldType::Int => 4,
            FieldType::Long | FieldType::Double | FieldType::Ref(_) => 8,
            FieldType::Bool => 1,
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Int => write!(f, "int"),
            FieldType::Long => write!(f, "long"),
            FieldType::Double => write!(f, "double"),
            FieldType::Bool => write!(f, "boolean"),
            FieldType::Ref(None) => write!(f, "Object"),
            FieldType::Ref(Some(c)) => write!(f, "ref<{c}>"),
        }
    }
}

/// A runtime field value stored in a heap object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit signed integer.
    Int(i32),
    /// 64-bit signed integer.
    Long(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Reference (`None` is Java `null`).
    Ref(Option<ObjectId>),
}

impl Value {
    /// Returns `true` if this value inhabits the given declared type,
    /// ignoring the reference class constraint (which requires a registry
    /// and is checked by the heap's write barrier).
    pub fn matches_kind(&self, ty: FieldType) -> bool {
        matches!(
            (self, ty),
            (Value::Int(_), FieldType::Int)
                | (Value::Long(_), FieldType::Long)
                | (Value::Double(_), FieldType::Double)
                | (Value::Bool(_), FieldType::Bool)
                | (Value::Ref(_), FieldType::Ref(_))
        )
    }

    /// Extracts an `i32`, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts an `i64`, if this is a [`Value::Long`].
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Value::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a `bool`, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts the referent, if this is a non-null [`Value::Ref`].
    pub fn as_ref_id(&self) -> Option<ObjectId> {
        match self {
            Value::Ref(r) => *r,
            _ => None,
        }
    }

    /// Returns `true` for `Ref(None)`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Ref(None))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Long(v) => write!(f, "{v}L"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Ref(None) => write!(f, "null"),
            Value::Ref(Some(o)) => write!(f, "{o}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Long(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<Option<ObjectId>> for Value {
    fn from(v: Option<ObjectId>) -> Value {
        Value::Ref(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_their_types() {
        for ty in [
            FieldType::Int,
            FieldType::Long,
            FieldType::Double,
            FieldType::Bool,
            FieldType::Ref(None),
            FieldType::Ref(Some(ClassId(0))),
        ] {
            assert!(ty.default_value().matches_kind(ty), "{ty}");
        }
    }

    #[test]
    fn kind_check_rejects_mismatches() {
        assert!(!Value::Int(1).matches_kind(FieldType::Long));
        assert!(!Value::Bool(true).matches_kind(FieldType::Int));
        assert!(!Value::Ref(None).matches_kind(FieldType::Double));
    }

    #[test]
    fn ref_class_constraint_does_not_affect_kind() {
        assert!(Value::Ref(None).matches_kind(FieldType::Ref(Some(ClassId(3)))));
    }

    #[test]
    fn accessors_extract_only_their_variant() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_long(), None);
        assert_eq!(Value::Long(8).as_long(), Some(8));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Ref(None).is_null());
        assert_eq!(Value::Ref(None).as_ref_id(), None);
    }

    #[test]
    fn encoded_sizes_match_stream_format() {
        assert_eq!(FieldType::Int.encoded_size(), 4);
        assert_eq!(FieldType::Long.encoded_size(), 8);
        assert_eq!(FieldType::Double.encoded_size(), 8);
        assert_eq!(FieldType::Bool.encoded_size(), 1);
        assert_eq!(FieldType::Ref(None).encoded_size(), 8);
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Long(3));
        assert_eq!(Value::from(0.5f64), Value::Double(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(None), Value::Ref(None));
    }
}
