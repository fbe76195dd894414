//! The object arena: allocation, typed field access, and the write barrier.

use crate::class::{ClassDef, ClassRegistry, FieldDef};
use crate::error::HeapError;
use crate::ids::{ClassId, ObjectId, StableId};
use crate::value::{FieldType, Value};

/// Per-object checkpoint metadata: the paper's `CheckpointInfo`.
///
/// Every object carries a unique [`StableId`] (assigned at allocation,
/// preserved by restore) and a `modified` flag. The flag is set by the
/// heap's write barrier on every field store and reset by the incremental
/// checkpointer once the object's state has been recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    stable: StableId,
    modified: bool,
    /// Whether the object currently has an entry in the heap's dirty-set
    /// journal (see [`Heap::journal`]). Kept alongside `modified` so the
    /// clean→dirty transition can deduplicate journal appends in O(1).
    journaled: bool,
}

impl CheckpointInfo {
    /// The object's stable checkpoint identity.
    pub fn stable_id(&self) -> StableId {
        self.stable
    }

    /// Whether the object has been modified since the last reset.
    pub fn modified(&self) -> bool {
        self.modified
    }

    /// Whether the object has an entry in the heap's dirty-set journal for
    /// the current journal epoch.
    pub fn journaled(&self) -> bool {
        self.journaled
    }
}

/// A live heap object, borrowed from its heap: class, checkpoint metadata,
/// and field slots. The fields are a slice of the heap's field arena.
#[derive(Debug, Clone, Copy)]
pub struct Object<'a> {
    class: ClassId,
    info: &'a CheckpointInfo,
    fields: &'a [Value],
}

impl<'a> Object<'a> {
    /// The object's class.
    pub fn class(&self) -> ClassId {
        self.class
    }

    /// The object's checkpoint metadata.
    pub fn info(&self) -> &'a CheckpointInfo {
        self.info
    }

    /// The field slots, in layout order.
    pub fn fields(&self) -> &'a [Value] {
        self.fields
    }
}

/// Cumulative heap activity counters.
///
/// `barrier_marks` counts the stores that actually flipped the modified
/// flag from clean to dirty; `field_writes` counts all stores. The gap
/// between them quantifies the redundant-flag-set cost the paper mentions
/// in §6 ("extra time on every assignment").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of successful allocations.
    pub allocs: u64,
    /// Number of successful frees.
    pub frees: u64,
    /// Number of successful barriered field stores.
    pub field_writes: u64,
    /// Number of barriered stores that transitioned clean → dirty.
    pub barrier_marks: u64,
}

/// One arena slot: a generation, bumped by every free so stale handles
/// are detected, and the live object's entry, if any.
#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    object: Option<Live>,
}

/// A live object's slot entry. Its fields are the class's slot count of
/// values in the field arena, starting at `offset`.
#[derive(Debug, Clone, Copy)]
struct Live {
    class: ClassId,
    offset: u32,
    info: CheckpointInfo,
}

/// The managed object heap.
///
/// Objects are held in slots indexed by [`ObjectId`] (slot + generation,
/// so stale handles are detected). A slot keeps the object's class, its
/// [`CheckpointInfo`] and a `u32` offset into one field arena, a
/// `Vec<Value>` that holds every object's fields back to back in layout
/// order. All objects of a class have the same number of fields, so a
/// freed object's range goes on its class's free list and the next
/// allocation of that class reuses it exactly: the arena never needs
/// compacting, and a range is never reused across classes.
///
/// All mutation goes through [`Heap::set_field`], which implements the
/// write barrier. See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Heap {
    registry: ClassRegistry,
    slots: Vec<Slot>,
    /// Freed slot indices, reused by the next allocation of any class.
    free: Vec<u32>,
    /// Every live object's fields, each at its slot's offset.
    arena: Vec<Value>,
    /// Per class index, the arena offsets of freed objects' field ranges.
    free_ranges: Vec<Vec<u32>>,
    next_stable: u64,
    live: usize,
    stats: HeapStats,
    /// The dirty-set journal: every object that transitioned clean→dirty
    /// since the last [`Heap::finish_journal_epoch`], each at most once
    /// (deduplicated by [`CheckpointInfo::journaled`]). Incremental
    /// checkpointers consume this instead of traversing the whole graph.
    journal: Vec<ObjectId>,
    /// Monotonic count of completed journal epochs.
    journal_epoch: u64,
    /// Number of live objects whose modified flag is currently set.
    ///
    /// Maintained by the write barrier at every clean↔dirty transition so
    /// [`Heap::journal_has_dirty`] is O(1) instead of an O(journal) scan.
    /// Because every modified live object is also journaled (the barrier's
    /// one-directional invariant), `live_dirty > 0` exactly when some
    /// journal entry still refers to a live, modified object.
    live_dirty: usize,
    /// Bumped by every allocation, free, and reference-slot store — i.e.
    /// whenever the object graph's *shape* may have changed. Checkpoint
    /// fast paths cache traversal orders keyed on this counter.
    structure_version: u64,
}

impl Heap {
    /// Creates a heap over the given class registry.
    pub fn new(registry: ClassRegistry) -> Heap {
        Heap {
            registry,
            slots: Vec::new(),
            free: Vec::new(),
            arena: Vec::new(),
            free_ranges: Vec::new(),
            next_stable: 1,
            live: 0,
            stats: HeapStats::default(),
            journal: Vec::new(),
            journal_epoch: 0,
            live_dirty: 0,
            structure_version: 0,
        }
    }

    /// The heap's class registry.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Defines a new class on this heap's registry.
    ///
    /// Delegates to [`ClassRegistry::define`]; see there for errors.
    pub fn define_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        fields: &[(&str, FieldType)],
    ) -> Result<ClassId, HeapError> {
        self.registry.define(name, superclass, fields)
    }

    /// Shorthand for `self.registry().class(id)`.
    pub fn class(&self, id: ClassId) -> Result<&ClassDef, HeapError> {
        self.registry.class(id)
    }

    /// Allocates an instance of `class` with zero-initialized fields.
    ///
    /// The new object is marked **modified** (a fresh object must appear in
    /// the next incremental checkpoint) and given a fresh stable id.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClass`] for a foreign class id, and
    /// [`HeapError::StableIdOverflow`] once the stable ids are used up.
    pub fn alloc(&mut self, class: ClassId) -> Result<ObjectId, HeapError> {
        self.insert(class, None, true)
    }

    /// Allocates an instance of `class` with the given field values
    /// (layout order).
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::alloc`], plus [`HeapError::TypeMismatch`] /
    /// [`HeapError::ClassConstraint`] / [`HeapError::SlotOutOfBounds`] if
    /// `values` does not fit the layout.
    pub fn alloc_with(&mut self, class: ClassId, values: &[Value]) -> Result<ObjectId, HeapError> {
        let num_slots = self.registry.class(class)?.num_slots();
        if values.len() != num_slots {
            return Err(HeapError::SlotOutOfBounds {
                object: ObjectId { index: u32::MAX, generation: 0 },
                slot: values.len(),
                len: num_slots,
            });
        }
        let id = self.alloc(class)?;
        for (slot, v) in values.iter().enumerate() {
            // The object is already marked modified, so going through the
            // barrier is semantically a no-op but keeps checks in one place.
            self.set_field(id, slot, *v)?;
        }
        Ok(id)
    }

    /// Allocates an object with an explicit stable id and modified flag.
    ///
    /// This is the restore path: replaying a checkpoint must materialize
    /// objects under their original identities. The internal stable-id
    /// counter is bumped past `stable` so later fresh allocations cannot
    /// collide.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::UnknownClass`] for a foreign class id, and
    /// [`HeapError::StableIdOverflow`] for `StableId(u64::MAX)`, which
    /// leaves the counter no id to move to.
    pub fn alloc_restored(
        &mut self,
        class: ClassId,
        stable: StableId,
        modified: bool,
    ) -> Result<ObjectId, HeapError> {
        self.insert(class, Some(stable), modified)
    }

    /// Allocates an instance of `class` with zero-initialized fields: in
    /// the class's most recently freed arena range if it has one, else at
    /// the end of the arena.
    fn insert(
        &mut self,
        class: ClassId,
        stable: Option<StableId>,
        modified: bool,
    ) -> Result<ObjectId, HeapError> {
        let layout = self.registry.class(class)?.layout();
        let stable = stable.unwrap_or(StableId(self.next_stable));
        let next_stable = self.next_stable.max(id_after(stable)?);
        let defaults = layout.iter().map(|f| f.ty().default_value());
        let offset = match self.free_ranges.get_mut(class.index()).and_then(Vec::pop) {
            Some(offset) => {
                let start = offset as usize;
                for (field, value) in
                    self.arena[start..start + layout.len()].iter_mut().zip(defaults)
                {
                    *field = value;
                }
                offset
            }
            None => {
                let offset = arena_offset(self.arena.len())?;
                self.arena.extend(defaults);
                offset
            }
        };
        self.next_stable = next_stable;
        let info = CheckpointInfo { stable, modified, journaled: modified };
        let object = Live { class, offset, info };
        let id = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                slot.object = Some(object);
                ObjectId { index, generation: slot.generation }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push(Slot { generation: 0, object: Some(object) });
                ObjectId { index, generation: 0 }
            }
        };
        if modified {
            self.journal.push(id);
            self.live_dirty += 1;
        }
        self.live += 1;
        self.stats.allocs += 1;
        self.structure_version = self.structure_version.wrapping_add(1);
        Ok(id)
    }

    /// Builds a heap of restored objects: the bulk form of
    /// [`Heap::alloc_restored`] followed by [`Heap::set_field_unbarriered`]
    /// on every slot, with every modified flag clear.
    ///
    /// `objects` yields each object's stable id and class in allocation
    /// order, or the error that stops the build; the object at position
    /// `p` lives in slot `p` ([`Heap::handle_at`]). One pass over
    /// `objects` checks every class and stable id, as allocating all
    /// objects before storing any field would, builds every slot and gives
    /// each object its range of the field arena, back to back in position
    /// order. The arena is then reserved once, and `fields` runs once per
    /// position, in order, pushing that object's values in layout order
    /// through a [`FieldWriter`] straight into its range; the writer names
    /// referents by position and gives the object's class layout. Each
    /// value passes the same kind and class-constraint checks as a field
    /// store, and the heap's counters end as if the objects had been
    /// allocated and every slot stored one by one.
    ///
    /// # Errors
    ///
    /// * [`HeapError::UnknownClass`] for a foreign class,
    ///   [`HeapError::StableIdOverflow`] for `StableId(u64::MAX)`, and
    ///   [`HeapError::ArenaFull`] if the fields would not fit the arena.
    /// * The errors of [`Heap::set_field`] for a pushed value that does
    ///   not fit its slot, and [`HeapError::SlotOutOfBounds`] if `fields`
    ///   pushes fewer values than the layout has.
    /// * Whatever `objects` or `fields` returns.
    pub fn materialize<E: From<HeapError>>(
        registry: ClassRegistry,
        objects: impl ExactSizeIterator<Item = Result<(StableId, ClassId), E>>,
        mut fields: impl FnMut(usize, &mut FieldWriter<'_>) -> Result<(), E>,
    ) -> Result<Heap, E> {
        let mut heap = Heap::new(registry);
        heap.slots.reserve_exact(objects.len());
        let mut end = 0;
        for object in objects {
            let (stable, class) = object?;
            let len = heap.registry.class(class)?.num_slots();
            heap.next_stable = heap.next_stable.max(id_after(stable)?);
            let offset = arena_offset(end)?;
            end += len;
            let info = CheckpointInfo { stable, modified: false, journaled: false };
            heap.slots.push(Slot { generation: 0, object: Some(Live { class, offset, info }) });
        }
        heap.arena.reserve_exact(end);
        heap.structure_version = heap.slots.len() as u64;
        let Heap { ref registry, ref slots, ref mut arena, ref mut structure_version, .. } = heap;
        for (index, slot) in slots.iter().enumerate() {
            let Some(live) = &slot.object else { continue };
            let object = ObjectId { index: index as u32, generation: 0 };
            let def = registry.class(live.class)?;
            let start = arena.len();
            let mut out =
                FieldWriter { registry, slots, object, def, arena: &mut *arena, start, refs: 0 };
            fields(index, &mut out)?;
            let refs = out.refs;
            let pushed = arena.len() - start;
            if pushed != def.num_slots() {
                let len = def.num_slots();
                return Err(HeapError::SlotOutOfBounds { object, slot: pushed, len }.into());
            }
            *structure_version = structure_version.wrapping_add(refs);
        }
        heap.live = heap.slots.len();
        heap.stats.allocs = heap.live as u64;
        Ok(heap)
    }

    /// Frees an object, invalidating its handle. Its field range goes on
    /// its class's free list for the next allocation of that class.
    ///
    /// Dangling references *to* the freed object are not chased; reading
    /// them later yields [`HeapError::DanglingObject`], mirroring the
    /// paper's remark that a page may mix live objects with garbage.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn free(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let slot = self
            .slots
            .get_mut(id.index())
            .filter(|s| s.generation == id.generation)
            .ok_or(HeapError::DanglingObject(id))?;
        let object = slot.object.take().ok_or(HeapError::DanglingObject(id))?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        let class = object.class.index();
        if self.free_ranges.len() <= class {
            self.free_ranges.resize_with(class + 1, Vec::new);
        }
        self.free_ranges[class].push(object.offset);
        if object.info.modified {
            self.live_dirty -= 1;
        }
        self.live -= 1;
        self.stats.frees += 1;
        self.structure_version = self.structure_version.wrapping_add(1);
        Ok(())
    }

    fn object_ref(&self, id: ObjectId) -> Result<&Live, HeapError> {
        live_object(&self.slots, id)
    }

    fn object_mut(&mut self, id: ObjectId) -> Result<&mut Live, HeapError> {
        live_object_mut(&mut self.slots, id)
    }

    /// Borrows an object: its slot entry, and its fields as a slice of the
    /// field arena.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn object(&self, id: ObjectId) -> Result<Object<'_>, HeapError> {
        let live = self.object_ref(id)?;
        let start = live.offset as usize;
        let len = self.registry.class(live.class)?.num_slots();
        let fields = &self.arena[start..start + len];
        Ok(Object { class: live.class, info: &live.info, fields })
    }

    /// `true` if the handle refers to a live object.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.object_ref(id).is_ok()
    }

    /// The class of an object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn class_of(&self, id: ObjectId) -> Result<ClassId, HeapError> {
        Ok(self.object_ref(id)?.class)
    }

    /// The stable checkpoint identity of an object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn stable_id(&self, id: ObjectId) -> Result<StableId, HeapError> {
        Ok(self.object_ref(id)?.info.stable)
    }

    /// Reads a field slot.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] or
    /// [`HeapError::SlotOutOfBounds`].
    pub fn field(&self, id: ObjectId, slot: usize) -> Result<Value, HeapError> {
        let fields = self.object(id)?.fields();
        let len = fields.len();
        fields.get(slot).copied().ok_or(HeapError::SlotOutOfBounds { object: id, slot, len })
    }

    /// Reads a field by name (slower; resolves the slot each call).
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::field`], plus [`HeapError::UnknownField`].
    pub fn field_named(&self, id: ObjectId, field: &str) -> Result<Value, HeapError> {
        let class = self.class_of(id)?;
        let slot = self.registry.class(class)?.slot_of(field)?;
        self.field(id, slot)
    }

    /// Stores a field slot through the **write barrier**: the store is
    /// type-checked and the object's modified flag is set.
    ///
    /// This is the analog of the `x = v; info.setModified();` pairs the
    /// paper's preprocessor inserts into every Java setter.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`], [`HeapError::SlotOutOfBounds`],
    /// [`HeapError::TypeMismatch`], or [`HeapError::ClassConstraint`].
    pub fn set_field(&mut self, id: ObjectId, slot: usize, value: Value) -> Result<(), HeapError> {
        self.store(id, slot, value, true)
    }

    /// Stores a field slot *without* touching the modified flag.
    ///
    /// Only the restore path uses this: materializing recorded state must
    /// not make every object look freshly dirty. Normal program mutation
    /// must use [`Heap::set_field`].
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::set_field`].
    pub fn set_field_unbarriered(
        &mut self,
        id: ObjectId,
        slot: usize,
        value: Value,
    ) -> Result<(), HeapError> {
        self.store(id, slot, value, false)
    }

    /// Stores a field by name through the write barrier.
    ///
    /// # Errors
    ///
    /// Fails like [`Heap::set_field`], plus [`HeapError::UnknownField`].
    pub fn set_field_named(
        &mut self,
        id: ObjectId,
        field: &str,
        value: Value,
    ) -> Result<(), HeapError> {
        let class = self.class_of(id)?;
        let slot = self.registry.class(class)?.slot_of(field)?;
        self.set_field(id, slot, value)
    }

    fn store(
        &mut self,
        id: ObjectId,
        slot: usize,
        value: Value,
        barrier: bool,
    ) -> Result<(), HeapError> {
        let def = self.registry.class(self.object_ref(id)?.class)?;
        let class_of = |target| live_object(&self.slots, target).map(|o| o.class);
        let is_ref = check_store(&self.registry, class_of, id, def, slot, value)?.is_ref();
        let obj = live_object_mut(&mut self.slots, id)?;
        self.arena[obj.offset as usize + slot] = value;
        let newly_marked = barrier && !obj.info.modified;
        let newly_journaled = newly_marked && !obj.info.journaled;
        if barrier {
            obj.info.modified = true;
        }
        if newly_journaled {
            obj.info.journaled = true;
            self.journal.push(id);
        }
        if newly_marked {
            self.live_dirty += 1;
        }
        if barrier {
            self.stats.field_writes += 1;
        }
        if newly_marked {
            self.stats.barrier_marks += 1;
        }
        if is_ref {
            // A rewired reference can change what is reachable and in what
            // order, so cached traversal orders must be rebuilt.
            self.structure_version = self.structure_version.wrapping_add(1);
        }
        Ok(())
    }

    /// Whether the object is marked modified.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn is_modified(&self, id: ObjectId) -> Result<bool, HeapError> {
        Ok(self.object_ref(id)?.info.modified)
    }

    /// Explicitly marks an object modified (the paper's `setModified()`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn set_modified(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let info = &mut self.object_mut(id)?.info;
        let newly_marked = !info.modified;
        let newly_journaled = !info.journaled;
        info.modified = true;
        info.journaled = true;
        if newly_marked {
            self.live_dirty += 1;
        }
        if newly_journaled {
            self.journal.push(id);
        }
        Ok(())
    }

    /// Clears an object's modified flag (done by the checkpointer after
    /// recording — the paper's `resetModified()`).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if the handle is stale.
    pub fn reset_modified(&mut self, id: ObjectId) -> Result<(), HeapError> {
        let info = &mut self.object_mut(id)?.info;
        if info.modified {
            info.modified = false;
            self.live_dirty -= 1;
        }
        Ok(())
    }

    /// Marks every live object modified (forces the next incremental
    /// checkpoint to be a full one).
    pub fn mark_all_modified(&mut self) {
        let journal = &mut self.journal;
        let live_dirty = &mut self.live_dirty;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(obj) = &mut slot.object {
                if !obj.info.modified {
                    obj.info.modified = true;
                    *live_dirty += 1;
                }
                if !obj.info.journaled {
                    obj.info.journaled = true;
                    journal.push(ObjectId { index: index as u32, generation: slot.generation });
                }
            }
        }
    }

    /// Clears the modified flag of every live object.
    pub fn reset_all_modified(&mut self) {
        for slot in &mut self.slots {
            if let Some(obj) = &mut slot.object {
                if obj.info.modified {
                    obj.info.modified = false;
                    self.live_dirty -= 1;
                }
            }
        }
    }

    /// The number of arena slots (live or freed). Every slot index from
    /// [`ObjectId::index`] is strictly below this bound, which lets graph
    /// traversals use dense slot-indexed tables instead of hashing — the
    /// parallel checkpointer's shard partitioner depends on it.
    pub fn arena_size(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over the handles of all live objects, in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.object.as_ref().map(|_| ObjectId { index: i as u32, generation: s.generation })
        })
    }

    /// The handle of the live object in arena slot `index`, if any. After
    /// [`Heap::materialize`], slot `p` holds the object built at position
    /// `p`.
    pub fn handle_at(&self, index: usize) -> Option<ObjectId> {
        let slot = self.slots.get(index)?;
        slot.object.as_ref()?;
        Some(ObjectId { index: index as u32, generation: slot.generation })
    }

    /// The number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The dirty-set journal for the current epoch: every object that
    /// transitioned clean→dirty since the last
    /// [`Heap::finish_journal_epoch`], each listed at most once, in the
    /// order the transitions happened. Entries may be stale (the object was
    /// freed since) or refer to objects that have meanwhile been recorded
    /// and reset; consumers must re-check liveness and the modified flag.
    ///
    /// The invariant the write barrier maintains is one-directional: every
    /// *modified* live object has an entry here (so the journal is a sound
    /// membership filter for "what can an incremental checkpoint record"),
    /// but not every entry is still modified.
    pub fn journal(&self) -> &[ObjectId] {
        &self.journal
    }

    /// Number of completed journal epochs (bumped by
    /// [`Heap::finish_journal_epoch`]).
    pub fn journal_epoch(&self) -> u64 {
        self.journal_epoch
    }

    /// A counter that changes whenever the object graph's *shape* may have
    /// changed: any allocation, any free, and any store to a reference
    /// slot (barriered or not). Two observations of the same value around
    /// unchanged roots guarantee an unchanged depth-first traversal order,
    /// which is what lets checkpointers cache and replay traversal orders.
    pub fn structure_version(&self) -> u64 {
        self.structure_version
    }

    /// `true` if any journal entry still refers to a live, modified object
    /// — i.e. the next incremental checkpoint would record something.
    ///
    /// O(1): answered from the barrier-maintained [`Heap::live_dirty`]
    /// counter rather than scanning the journal. The two agree because the
    /// barrier keeps every modified live object journaled.
    pub fn journal_has_dirty(&self) -> bool {
        self.live_dirty > 0
    }

    /// The number of live objects currently marked modified.
    ///
    /// Maintained by the write barrier at every clean↔dirty transition
    /// (allocation, barriered store, [`Heap::set_modified`] /
    /// [`Heap::reset_modified`] and their bulk variants, and frees of dirty
    /// objects). The barrier-coverage auditor's epoch model cross-checks
    /// this counter against a ground-truth scan.
    pub fn live_dirty(&self) -> usize {
        self.live_dirty
    }

    /// The stable id the next fresh allocation will receive.
    ///
    /// Useful for probes that need a collision-free identity for
    /// [`Heap::alloc_restored`].
    pub fn next_stable_id(&self) -> StableId {
        StableId(self.next_stable)
    }

    /// Closes the current journal epoch: drops entries whose object is dead
    /// or no longer modified (clearing their journaled bit so a later
    /// re-dirtying re-journals them), keeps entries that are still dirty,
    /// and bumps the epoch counter. Checkpointers call this after a
    /// successful checkpoint; the retained entries are exactly the dirty
    /// objects the checkpoint did not cover (e.g. currently unreachable
    /// ones). Returns the number of entries carried into the new epoch.
    pub fn finish_journal_epoch(&mut self) -> usize {
        let slots = &mut self.slots;
        self.journal.retain(|id| {
            let obj = slots
                .get_mut(id.index())
                .filter(|s| s.generation == id.generation)
                .and_then(|s| s.object.as_mut());
            match obj {
                Some(obj) if obj.info.modified => true,
                Some(obj) => {
                    obj.info.journaled = false;
                    false
                }
                None => false,
            }
        });
        self.journal_epoch += 1;
        self.journal.len()
    }
}

/// Writes one object's field values into its range of the field arena
/// for [`Heap::materialize`], checking each value as a field store would.
#[derive(Debug)]
pub struct FieldWriter<'a> {
    registry: &'a ClassRegistry,
    /// Every slot being built, by position.
    slots: &'a [Slot],
    object: ObjectId,
    def: &'a ClassDef,
    arena: &'a mut Vec<Value>,
    /// Where the object's range starts in the arena.
    start: usize,
    /// Reference slots written so far.
    refs: u64,
}

impl<'a> FieldWriter<'a> {
    /// The layout of the object being written: the values to push, in
    /// order.
    pub fn layout(&self) -> &'a [FieldDef] {
        self.def.layout()
    }

    /// Appends the value of the next slot in layout order.
    ///
    /// # Errors
    ///
    /// As [`Heap::set_field`] for the same value: the slot must exist, the
    /// kind must match, and a reference must satisfy the slot's class
    /// constraint.
    pub fn push(&mut self, value: Value) -> Result<(), HeapError> {
        let slot = self.arena.len() - self.start;
        let class_of = |target| live_object(self.slots, target).map(|o| o.class);
        let ty = check_store(self.registry, class_of, self.object, self.def, slot, value)?;
        self.refs += u64::from(ty.is_ref());
        self.arena.push(value);
        Ok(())
    }

    /// Appends a reference to the object built at position `referent`.
    ///
    /// # Errors
    ///
    /// As [`FieldWriter::push`], and [`HeapError::DanglingObject`] if no
    /// object is built at `referent`.
    pub fn push_ref(&mut self, referent: usize) -> Result<(), HeapError> {
        let index = u32::try_from(referent).unwrap_or(u32::MAX);
        let handle = ObjectId { index, generation: 0 };
        if referent >= self.slots.len() {
            return Err(HeapError::DanglingObject(handle));
        }
        self.push(Value::Ref(Some(handle)))
    }
}

/// The stable id an allocation moves the counter to once it has used
/// `stable`.
fn id_after(stable: StableId) -> Result<u64, HeapError> {
    stable.0.checked_add(1).ok_or(HeapError::StableIdOverflow(stable.0))
}

/// The arena offset of a range starting `len` values into the arena.
fn arena_offset(len: usize) -> Result<u32, HeapError> {
    u32::try_from(len).map_err(|_| HeapError::ArenaFull)
}

fn live_object_mut(slots: &mut [Slot], id: ObjectId) -> Result<&mut Live, HeapError> {
    slots
        .get_mut(id.index())
        .filter(|s| s.generation == id.generation)
        .and_then(|s| s.object.as_mut())
        .ok_or(HeapError::DanglingObject(id))
}

fn live_object(slots: &[Slot], id: ObjectId) -> Result<&Live, HeapError> {
    slots
        .get(id.index())
        .filter(|s| s.generation == id.generation)
        .and_then(|s| s.object.as_ref())
        .ok_or(HeapError::DanglingObject(id))
}

/// The checks every field store makes before writing `value` into `slot`
/// of `object`, an instance of `def`: the slot exists, the value's kind
/// matches the slot type, and a reference in a class-constrained slot names
/// a live object (`class_of` finds its class) of that class or a subclass.
/// Returns the slot type.
#[inline(always)]
fn check_store(
    registry: &ClassRegistry,
    class_of: impl Fn(ObjectId) -> Result<ClassId, HeapError>,
    object: ObjectId,
    def: &ClassDef,
    slot: usize,
    value: Value,
) -> Result<FieldType, HeapError> {
    let len = def.num_slots();
    let field = def.layout().get(slot);
    let ty = field.ok_or(HeapError::SlotOutOfBounds { object, slot, len })?.ty();
    if !value.matches_kind(ty) {
        return Err(HeapError::TypeMismatch { object, slot, expected: ty });
    }
    if let (FieldType::Ref(Some(expected)), Value::Ref(Some(target))) = (ty, value) {
        let actual = class_of(target)?;
        if !registry.is_subclass(actual, expected) {
            return Err(HeapError::ClassConstraint { object, slot, expected, actual });
        }
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_heap() -> (Heap, ClassId, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define("Node", None, &[("v", FieldType::Int), ("next", FieldType::Ref(None))])
            .unwrap();
        let other = reg.define("Other", None, &[("f", FieldType::Double)]).unwrap();
        (Heap::new(reg), node, other)
    }

    #[test]
    fn alloc_zero_initializes_and_marks_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(0));
        assert_eq!(heap.field(o, 1).unwrap(), Value::Ref(None));
        assert!(heap.is_modified(o).unwrap());
    }

    #[test]
    fn stable_ids_are_unique_and_increasing() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        assert!(heap.stable_id(a).unwrap() < heap.stable_id(b).unwrap());
    }

    #[test]
    fn write_barrier_sets_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field(o, 0, Value::Int(7)).unwrap();
        assert!(heap.is_modified(o).unwrap());
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(7));
    }

    #[test]
    fn unbarriered_store_does_not_set_modified() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field_unbarriered(o, 0, Value::Int(7)).unwrap();
        assert!(!heap.is_modified(o).unwrap());
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(7));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        let err = heap.set_field(o, 0, Value::Bool(true)).unwrap_err();
        assert!(matches!(err, HeapError::TypeMismatch { .. }));
    }

    #[test]
    fn slot_bounds_are_enforced() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        assert!(matches!(heap.field(o, 9), Err(HeapError::SlotOutOfBounds { .. })));
        assert!(matches!(
            heap.set_field(o, 9, Value::Int(0)),
            Err(HeapError::SlotOutOfBounds { .. })
        ));
    }

    #[test]
    fn class_constrained_refs_accept_subclasses_only() {
        let mut reg = ClassRegistry::new();
        let entry = reg.define("Entry", None, &[]).unwrap();
        let bt = reg.define("BTEntry", Some(entry), &[]).unwrap();
        let holder = reg.define("Holder", None, &[("e", FieldType::Ref(Some(entry)))]).unwrap();
        let unrelated = reg.define("Unrelated", None, &[]).unwrap();
        let mut heap = Heap::new(reg);
        let h = heap.alloc(holder).unwrap();
        let b = heap.alloc(bt).unwrap();
        let u = heap.alloc(unrelated).unwrap();
        heap.set_field(h, 0, Value::Ref(Some(b))).unwrap();
        let err = heap.set_field(h, 0, Value::Ref(Some(u))).unwrap_err();
        assert!(matches!(err, HeapError::ClassConstraint { .. }));
        // null always allowed
        heap.set_field(h, 0, Value::Ref(None)).unwrap();
    }

    #[test]
    fn freed_handles_dangle_and_slots_are_reused_with_new_generation() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        assert!(!heap.contains(a));
        assert!(matches!(heap.field(a, 0), Err(HeapError::DanglingObject(_))));
        let b = heap.alloc(node).unwrap();
        assert_eq!(a.index(), b.index());
        assert_ne!(a.generation(), b.generation());
        assert!(heap.contains(b));
    }

    #[test]
    fn freed_field_ranges_are_reused_exactly_and_only_within_their_class() {
        let (mut heap, node, other) = small_heap();
        let classes = [node, other];
        let mut live: Vec<ObjectId> = Vec::new();
        let mut peak = [0usize; 2];
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 5 < 3 || live.is_empty() {
                live.push(heap.alloc(classes[(x >> 8) as usize % 2]).unwrap());
            } else {
                let victim = live.swap_remove((x >> 8) as usize % live.len());
                heap.free(victim).unwrap();
            }
            for (class, peak) in classes.iter().zip(&mut peak) {
                let count = live.iter().filter(|&&id| heap.class_of(id).unwrap() == *class);
                *peak = (*peak).max(count.count());
            }
            // A class appends a range only when all of its ranges are live,
            // so the arena is each class's peak live count times its slot
            // count: no range is leaked, shared or handed to another class.
            let slots = classes.map(|c| heap.class(c).unwrap().num_slots());
            assert_eq!(heap.arena.len(), peak[0] * slots[0] + peak[1] * slots[1]);
            let mut ranges: Vec<(usize, usize)> = live
                .iter()
                .map(|&id| {
                    let entry = heap.object_ref(id).unwrap();
                    let start = entry.offset as usize;
                    (start, start + heap.object(id).unwrap().fields().len())
                })
                .collect();
            ranges.sort_unstable();
            assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0), "live ranges overlap");
        }
        assert!(peak.iter().all(|&p| p > 10), "both classes churned: {peak:?}");
    }

    #[test]
    fn a_reused_range_starts_zeroed() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 0, Value::Int(9)).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        heap.free(a).unwrap();
        let c = heap.alloc(node).unwrap();
        assert_eq!(heap.object(c).unwrap().fields(), [Value::Int(0), Value::Ref(None)]);
        assert_eq!(heap.arena.len(), 4, "a's range was reused");
    }

    #[test]
    fn double_free_is_rejected() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        assert!(matches!(heap.free(a), Err(HeapError::DanglingObject(_))));
    }

    #[test]
    fn alloc_with_validates_arity_and_values() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc_with(node, &[Value::Int(3), Value::Ref(None)]).unwrap();
        assert_eq!(heap.field(o, 0).unwrap(), Value::Int(3));
        assert!(heap.alloc_with(node, &[Value::Int(3)]).is_err());
        assert!(heap.alloc_with(node, &[Value::Bool(true), Value::Ref(None)]).is_err());
    }

    #[test]
    fn alloc_restored_preserves_identity_and_bumps_counter() {
        let (mut heap, node, _) = small_heap();
        let r = heap.alloc_restored(node, StableId(100), false).unwrap();
        assert_eq!(heap.stable_id(r).unwrap(), StableId(100));
        assert!(!heap.is_modified(r).unwrap());
        let fresh = heap.alloc(node).unwrap();
        assert!(heap.stable_id(fresh).unwrap().raw() > 100);
    }

    #[test]
    fn stable_id_counter_refuses_to_wrap() {
        let (mut heap, node, _) = small_heap();
        assert_eq!(
            heap.alloc_restored(node, StableId(u64::MAX), false).unwrap_err(),
            HeapError::StableIdOverflow(u64::MAX)
        );
        assert_eq!(heap.len(), 0, "a refused restore allocates nothing");
        heap.alloc_restored(node, StableId(u64::MAX - 1), false).unwrap();
        assert_eq!(heap.alloc(node).unwrap_err(), HeapError::StableIdOverflow(u64::MAX));
        assert_eq!(heap.len(), 1);
    }

    /// A recorded object: stable id, class, and fields, each a value or
    /// (`Err`) the position of its referent.
    type Spec = (u64, ClassId, Vec<Result<Value, usize>>);

    /// Builds `objects` with [`Heap::materialize`].
    fn materialized(reg: &ClassRegistry, objects: &[Spec]) -> Result<Heap, HeapError> {
        Heap::materialize(
            reg.clone(),
            objects.iter().map(|(s, c, _)| Ok((StableId(*s), *c))),
            |pos, out| {
                for field in &objects[pos].2 {
                    match *field {
                        Ok(value) => out.push(value)?,
                        Err(referent) => out.push_ref(referent)?,
                    }
                }
                Ok::<(), HeapError>(())
            },
        )
    }

    #[test]
    fn materialize_matches_restoring_one_object_and_slot_at_a_time() {
        let (reg, node, other) = {
            let (heap, node, other) = small_heap();
            (heap.registry().clone(), node, other)
        };
        let objects = vec![
            (7, node, vec![Ok(Value::Int(3)), Err(1)]),
            (2, node, vec![Ok(Value::Int(-1)), Ok(Value::Ref(None))]),
            (40, other, vec![Ok(Value::Double(2.5))]),
        ];
        let built = materialized(&reg, &objects).unwrap();

        let mut expected = Heap::new(reg.clone());
        let handles: Vec<ObjectId> = objects
            .iter()
            .map(|(s, c, _)| expected.alloc_restored(*c, StableId(*s), false).unwrap())
            .collect();
        for ((_, _, fields), &handle) in objects.iter().zip(&handles) {
            for (slot, field) in fields.iter().enumerate() {
                let value = field.unwrap_or_else(|p| Value::Ref(Some(handles[p])));
                expected.set_field_unbarriered(handle, slot, value).unwrap();
            }
        }
        for (pos, &handle) in handles.iter().enumerate() {
            assert_eq!(built.handle_at(pos), Some(handle));
            let (a, b) = (built.object(handle).unwrap(), expected.object(handle).unwrap());
            assert_eq!((a.class(), a.info(), a.fields()), (b.class(), b.info(), b.fields()));
        }
        assert_eq!(built.handle_at(3), None);
        assert_eq!(built.len(), expected.len());
        assert_eq!(built.stats(), expected.stats());
        assert_eq!(built.structure_version(), expected.structure_version());
        assert_eq!(built.next_stable_id(), expected.next_stable_id());
        assert!(built.journal().is_empty() && !built.journal_has_dirty());
    }

    #[test]
    fn materialize_keeps_the_store_checks() {
        let mut reg = ClassRegistry::new();
        let entry = reg.define("Entry", None, &[]).unwrap();
        let holder = reg.define("Holder", None, &[("e", FieldType::Ref(Some(entry)))]).unwrap();
        let node = reg.define("Node", None, &[("next", FieldType::Ref(None))]).unwrap();
        let first = ObjectId { index: 0, generation: 0 };
        // A constrained slot naming an object of the wrong class.
        assert_eq!(
            materialized(&reg, &[(1, holder, vec![Err(0)])]).unwrap_err(),
            HeapError::ClassConstraint { object: first, slot: 0, expected: entry, actual: holder }
        );
        // A constrained or unconstrained slot naming a position nothing
        // was built at.
        assert!(matches!(
            materialized(&reg, &[(1, holder, vec![Err(5)])]).unwrap_err(),
            HeapError::DanglingObject(_)
        ));
        assert!(matches!(
            materialized(&reg, &[(1, node, vec![Err(1)])]).unwrap_err(),
            HeapError::DanglingObject(_)
        ));
        assert_eq!(
            materialized(&reg, &[(1, holder, vec![Ok(Value::Int(1))])]).unwrap_err(),
            HeapError::TypeMismatch {
                object: first,
                slot: 0,
                expected: FieldType::Ref(Some(entry))
            }
        );
        assert_eq!(
            materialized(&reg, &[(1, holder, vec![])]).unwrap_err(),
            HeapError::SlotOutOfBounds { object: first, slot: 0, len: 1 }
        );
        assert_eq!(
            materialized(&reg, &[(1, entry, vec![Ok(Value::Int(1))])]).unwrap_err(),
            HeapError::SlotOutOfBounds { object: first, slot: 0, len: 0 }
        );
        assert_eq!(
            materialized(&reg, &[(u64::MAX, entry, vec![])]).unwrap_err(),
            HeapError::StableIdOverflow(u64::MAX)
        );
        assert_eq!(
            materialized(&reg, &[(1, ClassId(9), vec![])]).unwrap_err(),
            HeapError::UnknownClass(ClassId(9))
        );
        materialized(&reg, &[(1, entry, vec![]), (2, holder, vec![Err(0)])]).unwrap();
    }

    #[test]
    fn named_field_access_round_trips() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.set_field_named(o, "v", Value::Int(42)).unwrap();
        assert_eq!(heap.field_named(o, "v").unwrap(), Value::Int(42));
        assert!(heap.field_named(o, "nope").is_err());
    }

    #[test]
    fn mark_and_reset_all_modified() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.reset_all_modified();
        assert!(!heap.is_modified(a).unwrap());
        assert!(!heap.is_modified(b).unwrap());
        heap.mark_all_modified();
        assert!(heap.is_modified(a).unwrap());
        assert!(heap.is_modified(b).unwrap());
    }

    #[test]
    fn stats_track_allocs_writes_and_barrier_transitions() {
        let (mut heap, node, _) = small_heap();
        let o = heap.alloc(node).unwrap();
        heap.reset_modified(o).unwrap();
        heap.set_field(o, 0, Value::Int(1)).unwrap(); // clean -> dirty
        heap.set_field(o, 0, Value::Int(2)).unwrap(); // already dirty
        let s = heap.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.field_writes, 2);
        assert_eq!(s.barrier_marks, 1);
    }

    #[test]
    fn journal_records_each_clean_to_dirty_transition_once() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap(); // fresh => journaled
        let b = heap.alloc(node).unwrap();
        assert_eq!(heap.journal(), &[a, b]);
        heap.reset_all_modified();
        // Still journaled from the allocs: re-dirtying must not duplicate.
        heap.set_field(a, 0, Value::Int(1)).unwrap();
        heap.set_field(a, 0, Value::Int(2)).unwrap();
        heap.set_modified(b).unwrap();
        assert_eq!(heap.journal(), &[a, b]);
        assert!(heap.journal_has_dirty());
    }

    #[test]
    fn finish_journal_epoch_drops_clean_and_dead_entries() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.reset_modified(a).unwrap(); // recorded => clean
        heap.free(b).unwrap(); // dead
        assert_eq!(heap.finish_journal_epoch(), 1, "only the dirty survivor");
        assert_eq!(heap.journal(), &[c]);
        assert_eq!(heap.journal_epoch(), 1);
        // The dropped-but-live entry was un-journaled, so a new transition
        // re-journals it in the new epoch.
        heap.set_field(a, 0, Value::Int(5)).unwrap();
        assert_eq!(heap.journal(), &[c, a]);
    }

    #[test]
    fn journal_tolerates_slot_reuse() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        heap.free(a).unwrap();
        let b = heap.alloc(node).unwrap(); // reuses a's slot, new generation
        assert_eq!(heap.journal(), &[a, b]);
        heap.reset_modified(b).unwrap();
        assert!(!heap.journal_has_dirty(), "stale entry must not read through to b");
        heap.finish_journal_epoch();
        assert!(heap.journal().is_empty());
        assert!(!heap.object(b).unwrap().info().journaled());
    }

    #[test]
    fn mark_all_modified_journals_every_live_object_once() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.reset_all_modified();
        heap.finish_journal_epoch();
        assert!(heap.journal().is_empty());
        heap.mark_all_modified();
        heap.mark_all_modified();
        assert_eq!(heap.journal(), &[a, b]);
    }

    #[test]
    fn live_dirty_counter_tracks_every_transition() {
        let (mut heap, node, _) = small_heap();
        assert_eq!(heap.live_dirty(), 0);
        let a = heap.alloc(node).unwrap(); // fresh => dirty
        let b = heap.alloc(node).unwrap();
        assert_eq!(heap.live_dirty(), 2);
        heap.reset_modified(a).unwrap();
        heap.reset_modified(a).unwrap(); // idempotent
        assert_eq!(heap.live_dirty(), 1);
        heap.set_field(a, 0, Value::Int(1)).unwrap(); // clean -> dirty
        heap.set_field(a, 0, Value::Int(2)).unwrap(); // already dirty
        assert_eq!(heap.live_dirty(), 2);
        heap.free(b).unwrap(); // dirty object freed
        assert_eq!(heap.live_dirty(), 1);
        heap.reset_all_modified();
        assert_eq!(heap.live_dirty(), 0);
        assert!(!heap.journal_has_dirty());
        heap.set_modified(a).unwrap();
        heap.set_modified(a).unwrap(); // idempotent
        assert_eq!(heap.live_dirty(), 1);
        assert!(heap.journal_has_dirty());
        heap.mark_all_modified();
        assert_eq!(heap.live_dirty(), 1, "a was already dirty, b is dead");
        heap.finish_journal_epoch(); // flags untouched
        assert_eq!(heap.live_dirty(), 1);
    }

    #[test]
    fn next_stable_id_is_collision_free_for_restores() {
        let (mut heap, node, _) = small_heap();
        heap.alloc(node).unwrap();
        let next = heap.next_stable_id();
        let r = heap.alloc_restored(node, next, true).unwrap();
        assert_eq!(heap.stable_id(r).unwrap(), next);
        let fresh = heap.alloc(node).unwrap();
        assert!(heap.stable_id(fresh).unwrap() > next);
    }

    #[test]
    fn structure_version_tracks_shape_changes_only() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let v = heap.structure_version();
        heap.set_field(a, 0, Value::Int(1)).unwrap(); // scalar store
        assert_eq!(heap.structure_version(), v, "scalar stores keep the shape");
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap(); // ref store
        assert_ne!(heap.structure_version(), v);
        let v = heap.structure_version();
        heap.free(b).unwrap();
        assert_ne!(heap.structure_version(), v);
        let v = heap.structure_version();
        heap.alloc(node).unwrap();
        assert_ne!(heap.structure_version(), v);
    }

    #[test]
    fn iter_live_skips_freed_objects() {
        let (mut heap, node, _) = small_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.free(b).unwrap();
        let live: Vec<ObjectId> = heap.iter_live().collect();
        assert_eq!(live, vec![a, c]);
        assert_eq!(heap.len(), 2);
        assert!(!heap.is_empty());
    }
}
