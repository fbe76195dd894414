//! Class definitions and the class registry.
//!
//! Classes have single inheritance. An object's field layout is the
//! concatenation of its superclass chain's fields (root first) followed by
//! its own, so a slot index valid for a class is valid, with the same
//! meaning, for every subclass — exactly the property JVM object layouts
//! have, and the property the specializer relies on when it compiles
//! slot-indexed load/record instructions.

use crate::error::HeapError;
use crate::ids::ClassId;
use crate::value::FieldType;
use std::collections::HashMap;

/// A named, typed field of a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    name: String,
    ty: FieldType,
}

impl FieldDef {
    /// Creates a field definition.
    pub fn new(name: impl Into<String>, ty: FieldType) -> FieldDef {
        FieldDef { name: name.into(), ty }
    }

    /// The field's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field's declared type.
    pub fn ty(&self) -> FieldType {
        self.ty
    }
}

/// An immutable class definition: name, superclass, and flattened layout.
#[derive(Debug, Clone)]
pub struct ClassDef {
    id: ClassId,
    name: String,
    superclass: Option<ClassId>,
    /// Flattened layout: inherited fields first, own fields last.
    layout: Vec<FieldDef>,
    /// Depth in the inheritance tree (root = 0), used for fast subtype tests.
    depth: u32,
}

impl ClassDef {
    /// The class id.
    pub fn id(&self) -> ClassId {
        self.id
    }

    /// The class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The direct superclass, if any.
    pub fn superclass(&self) -> Option<ClassId> {
        self.superclass
    }

    /// The full flattened field layout (inherited first).
    pub fn layout(&self) -> &[FieldDef] {
        &self.layout
    }

    /// The number of field slots an instance of this class has.
    pub fn num_slots(&self) -> usize {
        self.layout.len()
    }

    /// Resolves a field name to its slot index.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownField`] if no field of that name exists
    /// anywhere in the layout.
    pub fn slot_of(&self, field: &str) -> Result<usize, HeapError> {
        self.layout.iter().position(|f| f.name() == field).ok_or_else(|| HeapError::UnknownField {
            class: self.name.clone(),
            field: field.to_string(),
        })
    }

    /// The declared type of a slot.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownField`] if the slot is out of bounds
    /// (the object id is unknown at this level, so the field is reported by
    /// index).
    pub fn slot_type(&self, slot: usize) -> Result<FieldType, HeapError> {
        self.layout.get(slot).map(FieldDef::ty).ok_or_else(|| HeapError::UnknownField {
            class: self.name.clone(),
            field: format!("<slot {slot}>"),
        })
    }

    /// Total encoded size in bytes of one full record of this class's local
    /// state (all slots), as written by the checkpoint stream.
    pub fn encoded_state_size(&self) -> usize {
        self.layout.iter().map(|f| f.ty().encoded_size()).sum()
    }
}

/// The set of classes known to a heap.
///
/// # Example
///
/// ```
/// use ickp_heap::{ClassRegistry, FieldType};
///
/// # fn main() -> Result<(), ickp_heap::HeapError> {
/// let mut reg = ClassRegistry::new();
/// let entry = reg.define("Entry", None, &[])?;
/// let bt_entry = reg.define("BTEntry", Some(entry), &[("bt", FieldType::Ref(None))])?;
/// assert!(reg.is_subclass(bt_entry, entry));
/// assert_eq!(reg.class(bt_entry)?.slot_of("bt")?, 0);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassRegistry {
    classes: Vec<ClassDef>,
    by_name: HashMap<String, ClassId>,
}

impl ClassRegistry {
    /// Creates an empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Defines a new class.
    ///
    /// `fields` lists the fields declared by the class itself; inherited
    /// fields are prepended automatically.
    ///
    /// # Errors
    ///
    /// * [`HeapError::DuplicateClass`] if the name is taken.
    /// * [`HeapError::UnknownClass`] if the superclass id is invalid.
    /// * [`HeapError::DuplicateField`] if a field name collides with an
    ///   inherited or sibling field.
    pub fn define(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        fields: &[(&str, FieldType)],
    ) -> Result<ClassId, HeapError> {
        if self.by_name.contains_key(name) {
            return Err(HeapError::DuplicateClass(name.to_string()));
        }
        let (mut layout, depth) = match superclass {
            Some(sup) => {
                let sup = self.class(sup)?;
                (sup.layout.clone(), sup.depth + 1)
            }
            None => (Vec::new(), 0),
        };
        for (fname, ty) in fields {
            if layout.iter().any(|f| f.name() == *fname) {
                return Err(HeapError::DuplicateField {
                    class: name.to_string(),
                    field: fname.to_string(),
                });
            }
            layout.push(FieldDef::new(*fname, *ty));
        }
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassDef { id, name: name.to_string(), superclass, layout, depth });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks a class up by id.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClass`] for ids not issued by this
    /// registry.
    pub fn class(&self, id: ClassId) -> Result<&ClassDef, HeapError> {
        self.classes.get(id.index()).ok_or(HeapError::UnknownClass(id))
    }

    /// Returns the id for a class name.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClassName`] if undefined.
    pub fn id_of(&self, name: &str) -> Result<ClassId, HeapError> {
        self.by_name.get(name).copied().ok_or_else(|| HeapError::UnknownClassName(name.to_string()))
    }

    /// Tests whether `sub` is `sup` or a (transitive) subclass of it.
    ///
    /// Unknown ids are never subclasses of anything.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes.get(c.index()).and_then(|d| d.superclass);
        }
        false
    }

    /// The number of defined classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Iterates over all class definitions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (ClassRegistry, ClassId, ClassId) {
        let mut reg = ClassRegistry::new();
        let base = reg.define("Entry", None, &[("tag", FieldType::Int)]).unwrap();
        let sub = reg
            .define(
                "BTEntry",
                Some(base),
                &[("bt", FieldType::Ref(None)), ("count", FieldType::Long)],
            )
            .unwrap();
        (reg, base, sub)
    }

    #[test]
    fn layout_flattens_inheritance_root_first() {
        let (reg, _, sub) = registry();
        let def = reg.class(sub).unwrap();
        let names: Vec<&str> = def.layout().iter().map(FieldDef::name).collect();
        assert_eq!(names, ["tag", "bt", "count"]);
        assert_eq!(def.slot_of("tag").unwrap(), 0);
        assert_eq!(def.slot_of("bt").unwrap(), 1);
    }

    #[test]
    fn subclass_slots_are_compatible_with_superclass_slots() {
        let (reg, base, sub) = registry();
        let base_slot = reg.class(base).unwrap().slot_of("tag").unwrap();
        let sub_slot = reg.class(sub).unwrap().slot_of("tag").unwrap();
        assert_eq!(base_slot, sub_slot);
    }

    #[test]
    fn duplicate_class_names_are_rejected() {
        let (mut reg, _, _) = registry();
        assert_eq!(reg.define("Entry", None, &[]), Err(HeapError::DuplicateClass("Entry".into())));
    }

    #[test]
    fn shadowing_an_inherited_field_is_rejected() {
        let (mut reg, base, _) = registry();
        let err = reg.define("Bad", Some(base), &[("tag", FieldType::Int)]).unwrap_err();
        assert!(matches!(err, HeapError::DuplicateField { .. }));
    }

    #[test]
    fn duplicate_own_field_is_rejected() {
        let mut reg = ClassRegistry::new();
        let err =
            reg.define("X", None, &[("a", FieldType::Int), ("a", FieldType::Int)]).unwrap_err();
        assert!(matches!(err, HeapError::DuplicateField { .. }));
    }

    #[test]
    fn subtype_test_walks_the_chain() {
        let (mut reg, base, sub) = registry();
        let subsub = reg.define("ETEntry", Some(sub), &[]).unwrap();
        assert!(reg.is_subclass(subsub, base));
        assert!(reg.is_subclass(subsub, sub));
        assert!(reg.is_subclass(base, base));
        assert!(!reg.is_subclass(base, sub));
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let (reg, _, sub) = registry();
        assert_eq!(reg.id_of("BTEntry").unwrap(), sub);
        assert!(reg.id_of("Nope").is_err());
    }

    #[test]
    fn unknown_ids_error() {
        let (reg, _, _) = registry();
        assert!(reg.class(ClassId(99)).is_err());
        assert!(!reg.is_subclass(ClassId(99), ClassId(0)));
    }

    #[test]
    fn encoded_state_size_sums_field_sizes() {
        let (reg, _, sub) = registry();
        // int(4) + ref(8) + long(8)
        assert_eq!(reg.class(sub).unwrap().encoded_state_size(), 20);
    }

    #[test]
    fn slot_type_reports_out_of_bounds() {
        let (reg, base, _) = registry();
        let def = reg.class(base).unwrap();
        assert_eq!(def.slot_type(0).unwrap(), FieldType::Int);
        assert!(def.slot_type(5).is_err());
    }

    #[test]
    fn registry_iteration_is_in_id_order() {
        let (reg, base, sub) = registry();
        let ids: Vec<ClassId> = reg.iter().map(ClassDef::id).collect();
        assert_eq!(ids, vec![base, sub]);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }
}
