//! Object-graph traversal utilities: reachability, acyclicity checks, and
//! shard partitioning for the parallel checkpointer.
//!
//! The paper assumes checkpointed object graphs are acyclic (§2: "we assume
//! that the checkpointed objects do not contain cycles"). The checkpointers
//! in `ickp-core`/`ickp-spec` inherit that assumption; this module provides
//! [`validate_acyclic`] so callers can *check* it instead of diverging, and
//! [`reachable_from`], which the full checkpointer and the restore verifier
//! use to enumerate a compound structure.
//!
//! [`weighted_plan`] is the ownership planner behind
//! `ickp_core::Checkpointer::checkpoint_parallel`: it splits a root set into
//! contiguous shards and assigns every reachable object to exactly one shard
//! (its *owner*), so independent workers can traverse and record disjoint
//! slices of the graph whose concatenation reproduces the sequential
//! traversal exactly. One parallel claim pass at root granularity gives it
//! both the per-root byte weights that place the shard boundaries
//! ([`chunk_bounds_weighted`]) and the shard owners. [`first_touch_plan`]
//! is the sequential oracle it equals, over any hand-built chunking; see
//! the equivalence argument on [`weighted_plan`].

use crate::error::HeapError;
use crate::heap::{Heap, Object};
use crate::ids::ObjectId;
use crate::value::Value;
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// Error produced by graph validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A heap access failed (dangling reference, …).
    Heap(HeapError),
    /// A reference cycle was found through this object.
    Cycle(ObjectId),
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::Heap(e) => write!(f, "heap error during traversal: {e}"),
            ReachError::Cycle(o) => write!(f, "reference cycle through {o}"),
        }
    }
}

impl Error for ReachError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReachError::Heap(e) => Some(e),
            ReachError::Cycle(_) => None,
        }
    }
}

impl From<HeapError> for ReachError {
    fn from(e: HeapError) -> ReachError {
        ReachError::Heap(e)
    }
}

/// Enumerates every object reachable from `roots` (roots included),
/// in depth-first pre-order with duplicates removed.
///
/// Shared subobjects appear once. Cycles do not hang the traversal (a
/// visited set is kept) but are not reported either; use
/// [`validate_acyclic`] first when the acyclicity contract matters.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn reachable_from(heap: &Heap, roots: &[ObjectId]) -> Result<Vec<ObjectId>, HeapError> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut order = Vec::new();
    let mut stack: Vec<ObjectId> = roots.iter().rev().copied().collect();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        order.push(id);
        let obj = heap.object(id)?;
        // Push children in reverse so the first field is visited first.
        for value in obj.fields().iter().rev() {
            if let Value::Ref(Some(child)) = value {
                if !seen.contains(child) {
                    stack.push(*child);
                }
            }
        }
    }
    Ok(order)
}

/// Verifies that the graph reachable from `roots` contains no reference
/// cycle.
///
/// # Errors
///
/// * [`ReachError::Cycle`] naming an object on a cycle.
/// * [`ReachError::Heap`] if a traversed reference dangles.
pub fn validate_acyclic(heap: &Heap, roots: &[ObjectId]) -> Result<(), ReachError> {
    // Iterative three-color DFS.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        Gray,
        Black,
    }
    let mut color: std::collections::HashMap<ObjectId, Color> = std::collections::HashMap::new();
    enum Step {
        Enter(ObjectId),
        Exit(ObjectId),
    }
    let mut stack: Vec<Step> = roots.iter().rev().map(|&r| Step::Enter(r)).collect();
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(id) => match color.get(&id) {
                Some(Color::Gray) => return Err(ReachError::Cycle(id)),
                Some(Color::Black) => {}
                None => {
                    color.insert(id, Color::Gray);
                    stack.push(Step::Exit(id));
                    let obj = heap.object(id)?;
                    for value in obj.fields().iter().rev() {
                        if let Value::Ref(Some(child)) = value {
                            match color.get(child) {
                                Some(Color::Gray) => return Err(ReachError::Cycle(*child)),
                                Some(Color::Black) => {}
                                None => stack.push(Step::Enter(*child)),
                            }
                        }
                    }
                }
            },
            Step::Exit(id) => {
                color.insert(id, Color::Black);
            }
        }
    }
    Ok(())
}

/// A partition of a root set into disjoint ownership shards.
///
/// Produced by [`weighted_plan`] (or by the oracle [`first_touch_plan`]).
/// Shard `i` holds a contiguous slice of the original root order, and
/// every object reachable from the whole root set is owned by exactly one
/// shard: the shard whose roots reach it *first* in the sequential
/// depth-first traversal order. Two invariants follow, and the parallel
/// checkpointer in `ickp-core` relies on both:
///
/// 1. **Prunability** — a traversal from shard `i`'s roots can stop at any
///    object it does not own: everything reachable through a foreign object
///    is owned by an earlier shard (first-touch ownership is closed under
///    reachability).
/// 2. **Order** — concatenating the owned objects of shard `0, 1, …` in
///    each shard's local depth-first order reproduces the global
///    depth-first pre-order over all roots, object for object.
///
/// # Example
///
/// ```
/// use ickp_heap::{weighted_plan, ClassRegistry, FieldType, Heap};
///
/// # fn main() -> Result<(), ickp_heap::HeapError> {
/// let mut reg = ClassRegistry::new();
/// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)])?;
/// let mut heap = Heap::new(reg);
/// let roots: Vec<_> = (0..4).map(|_| heap.alloc(leaf)).collect::<Result<_, _>>()?;
///
/// let plan = weighted_plan(&heap, &roots, 2, 15)?;
/// assert_eq!(plan.num_shards(), 2);
/// assert_eq!(plan.roots(0), &roots[..2]);
/// assert_eq!(plan.roots(1), &roots[2..]);
/// assert_eq!(plan.owner_of(roots[3]), Some(1));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// All chunk roots, concatenated in shard order. Shard `i` is the
    /// range `roots[bounds[i]..bounds[i + 1]]` — ranges over one flat
    /// buffer instead of a `Vec<Vec<ObjectId>>`, so building a plan costs
    /// two allocations regardless of the shard count (the pre-pass runs on
    /// every structure change, so this is a measured hot path — see the
    /// `prepass` microbench).
    roots: Vec<ObjectId>,
    /// Chunk boundaries into `roots`: `bounds.len() == num_shards() + 1`,
    /// `bounds[0] == 0`, strictly increasing.
    bounds: Vec<usize>,
    /// Owner shard per arena slot ([`UNOWNED`] = unreachable). Dense
    /// slot-indexed storage (see [`Heap::arena_size`]) keeps the per-object
    /// ownership test branch-predictable and hash-free, since both the
    /// pre-pass and every parallel worker consult it on each visit.
    owner: Vec<u32>,
    objects: usize,
}

/// Sentinel in [`ShardPlan::owner`] for slots not reachable from the roots.
const UNOWNED: u32 = u32::MAX;

impl ShardPlan {
    /// Number of shards: at most the requested worker count, at most the
    /// number of roots (and 0 for an empty root set).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The roots assigned to `shard`, in original root order.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn roots(&self, shard: usize) -> &[ObjectId] {
        &self.roots[self.bounds[shard]..self.bounds[shard + 1]]
    }

    /// The owner array, indexed by arena slot: `owner_table()[id.index()]`
    /// is the owning shard, or `u32::MAX` for slots not reachable from the
    /// partitioned roots. Exposed so equivalence suites can assert that two
    /// pre-pass implementations computed the *same* ownership, slot for
    /// slot.
    pub fn owner_table(&self) -> &[u32] {
        &self.owner
    }

    /// The shard that owns `id`, or `None` if `id` was not reachable from
    /// the partitioned root set.
    pub fn owner_of(&self, id: ObjectId) -> Option<u32> {
        self.owner.get(id.index()).copied().filter(|&s| s != UNOWNED)
    }

    /// `true` if `shard` owns `id`.
    #[inline]
    pub fn owns(&self, shard: usize, id: ObjectId) -> bool {
        self.owner.get(id.index()) == Some(&(shard as u32))
    }

    /// Total number of owned (= reachable) objects across all shards.
    pub fn num_objects(&self) -> usize {
        self.objects
    }

    /// Owned-object count per shard — the load-balance picture.
    pub fn objects_per_shard(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_shards()];
        for &s in &self.owner {
            if s != UNOWNED {
                counts[s as usize] += 1;
            }
        }
        counts
    }

    /// The one walk of a shard: depth-first from the shard's roots, pruned
    /// at every object another shard owns, calling `visit` once per owned
    /// object in visit order. Returns the number of child references
    /// followed (non-null reference fields of the visited objects,
    /// counted whether or not the child is visited).
    ///
    /// Per object the walk reads the object's slot once, hands the
    /// borrowed [`Object`] to `visit`, then pushes its non-null
    /// references in reverse slot order, so the first field is visited
    /// first. That is the order of `ickp_core`'s derived `fold`: only
    /// reference-typed slots can hold a reference (the write barrier
    /// type-checks every store), and the derived `fold` visits those in
    /// slot order. Children are read straight from the object, with no
    /// per-class dispatch; `visit` decides what to do with each object.
    /// This is the traversal `ickp_core::Checkpointer::checkpoint_parallel`
    /// runs per worker, and [`ShardPlan::shard_preorder`] collects it.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] (as `E`) if a traversed
    /// reference points at a freed object, and the first error `visit`
    /// returns; the walk stops at the first error.
    pub fn walk_shard<E, F>(&self, heap: &Heap, shard: usize, mut visit: F) -> Result<u64, E>
    where
        E: From<HeapError>,
        F: FnMut(ObjectId, &Object) -> Result<(), E>,
    {
        let mut stack: Vec<ObjectId> = self.roots(shard).iter().rev().copied().collect();
        // Dense and slot-indexed like the owner array; only owned slots are
        // ever looked up, so the owner array's length bounds it.
        let mut visited = vec![false; self.owner.len()];
        let mut refs = 0u64;
        while let Some(id) = stack.pop() {
            if !self.owns(shard, id) || std::mem::replace(&mut visited[id.index()], true) {
                continue;
            }
            let obj = heap.object(id)?;
            visit(id, obj)?;
            let before = stack.len();
            for value in obj.fields().iter().rev() {
                if let Value::Ref(Some(child)) = *value {
                    stack.push(child);
                }
            }
            refs += (stack.len() - before) as u64;
        }
        Ok(refs)
    }

    /// The objects `shard` owns, in the order its worker visits (and, for
    /// a full checkpoint, records) them: [`ShardPlan::walk_shard`]
    /// collecting ids.
    ///
    /// This is the per-shard *footprint* of the parallel engine, exposed
    /// so static analyses (the shard audit in `ickp-audit`) and tests can
    /// reason about what each worker may touch without running the
    /// engine. Concatenating the results for shard `0, 1, …` reproduces
    /// the global depth-first pre-order (invariant 2 above).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::DanglingObject`] if a traversed reference
    /// points at a freed object.
    pub fn shard_preorder(&self, heap: &Heap, shard: usize) -> Result<Vec<ObjectId>, HeapError> {
        let mut order = Vec::new();
        self.walk_shard(heap, shard, |id, _| {
            order.push(id);
            Ok::<(), HeapError>(())
        })?;
        Ok(order)
    }
}

/// Computes count-balanced contiguous chunk boundaries over a root slice of
/// length `len`: at most `shards` chunks, the first `len % shards` chunks
/// one root longer. Returns the boundary vector `bounds` with
/// `bounds.len() == chunks + 1`, `bounds[0] == 0`, strictly increasing —
/// chunk `i` is `roots[bounds[i]..bounds[i + 1]]`. An empty root slice
/// yields `[0]` (zero chunks). Contiguity (not round-robin) is what makes
/// shard-order concatenation equal the sequential traversal order, so every
/// shard assignment in this crate goes through this function or its
/// weighted sibling [`chunk_bounds_weighted`].
pub fn chunk_bounds(len: usize, shards: usize) -> Vec<usize> {
    if len == 0 {
        return vec![0];
    }
    let shards = shards.max(1).min(len);
    let base = len / shards;
    let extra = len % shards;
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0);
    let mut next = 0usize;
    for i in 0..shards {
        next += base + usize::from(i < extra);
        bounds.push(next);
    }
    bounds
}

/// Computes **byte-weighted** contiguous chunk boundaries: `weights[i]` is
/// the estimated stream contribution of root `i` (see [`weighted_plan`]),
/// and boundary `j` is placed at the smallest index whose weight prefix sum
/// reaches `j/k` of the total — clamped so every chunk keeps at least one
/// root. Same return convention as [`chunk_bounds`].
///
/// Chunks stay contiguous, so the sequential-order concatenation invariant
/// (and therefore byte-identity of the merged parallel stream) is
/// unaffected; only the *placement* of the cut points changes. With uniform
/// weights this degenerates to exactly [`chunk_bounds`].
pub fn chunk_bounds_weighted(weights: &[u64], shards: usize) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return vec![0];
    }
    let k = shards.max(1).min(n);
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut bounds = Vec::with_capacity(k + 1);
    bounds.push(0);
    let mut prefix: u128 = 0;
    let mut i = 0usize;
    for j in 1..k {
        // Smallest i with prefix(i) >= j * total / k (exact rational
        // comparison), kept inside [prev + 1, n - (k - j)] so all k chunks
        // stay non-empty.
        let min_i = bounds[j - 1] + 1;
        let max_i = n - (k - j);
        while i < max_i && (i < min_i || prefix * (k as u128) < total * (j as u128)) {
            prefix += weights[i] as u128;
            i += 1;
        }
        bounds.push(i);
    }
    bounds.push(n);
    bounds
}

/// Splits `roots` into at most `shards` contiguous, count-balanced chunks
/// (see [`chunk_bounds`]), materialized as owned vectors — the shape
/// [`first_touch_plan`] takes, for callers that build or scramble
/// chunkings by hand (the shard audit, tests).
pub fn chunk_roots(roots: &[ObjectId], shards: usize) -> Vec<Vec<ObjectId>> {
    chunk_bounds(roots.len(), shards).windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect()
}

/// Assigns every object reachable from `chunks` to its **first-touch
/// owner**: the lowest-index chunk whose depth-first traversal reaches it
/// first. This is the sequential ownership oracle: one depth-first
/// traversal per chunk, in chunk order. [`weighted_plan`] computes the
/// same plan for its own contiguous chunks, and callers with a
/// non-contiguous or hand-built chunking (tests, the shard audit) get the
/// deterministic prediction the parallel engine relies on. Empty chunks
/// are kept as empty shards.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a root or a traversed
/// reference points at a freed object or outside the arena.
pub fn first_touch_plan(heap: &Heap, chunks: Vec<Vec<ObjectId>>) -> Result<ShardPlan, HeapError> {
    let mut roots = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    let mut bounds = vec![0];
    for chunk in chunks {
        roots.extend_from_slice(&chunk);
        bounds.push(roots.len());
    }
    check_roots(heap, &roots)?;
    let mut owner: Vec<u32> = vec![UNOWNED; heap.arena_size()];
    let mut objects = 0usize;
    let mut stack: Vec<ObjectId> = Vec::new();
    for (index, window) in bounds.windows(2).enumerate() {
        stack.extend(roots[window[0]..window[1]].iter().rev());
        while let Some(id) = stack.pop() {
            if owner[id.index()] != UNOWNED {
                continue;
            }
            owner[id.index()] = index as u32;
            objects += 1;
            let obj = heap.object(id)?;
            for value in obj.fields().iter().rev() {
                if let Value::Ref(Some(child)) = value {
                    if owner[child.index()] == UNOWNED {
                        stack.push(*child);
                    }
                }
            }
        }
    }
    Ok(ShardPlan { roots, bounds, owner, objects })
}

/// The shard planner: splits `roots` into at most `shards` contiguous
/// chunks of about equal estimated stream bytes, and assigns every
/// reachable object to its first-touch owner chunk. A `shards` value of 0
/// is treated as 1 and the chunk count never exceeds the root count, so
/// [`ShardPlan::num_shards`] may be less than `shards`.
///
/// It makes one reachability traversal, in four steps:
///
/// 1. **Claim.** Each object is claimed for the lowest root index that
///    reaches it: one depth-first claim per root, with the roots split
///    into contiguous bands across the available cores, all racing
///    `fetch_min` on one atomic owner array.
/// 2. **Weigh.** One scan over the live arena credits each claimed object
///    to its root: `overhead_per_object` (the per-record header bytes)
///    plus its class's encoded state size. This is the estimate the
///    shard-imbalance lint (AUD205 in `ickp-audit`) computes per shard, so
///    balancing on it closes that feedback loop.
/// 3. **Cut.** [`chunk_bounds_weighted`] places the chunk boundaries at
///    equal-byte prefix sums of the root weights.
/// 4. **Map.** A root → chunk table turns the root-indexed owner array
///    into the chunk-indexed [`ShardPlan`] owner array.
///
/// **Equivalence with [`first_touch_plan`].** Sequential first-touch
/// ownership equals "lowest-index chunk that can reach the object": chunk
/// *i*'s sequential traversal only skips nodes already owned by chunks
/// `< i`, and first-touch ownership is closed under reachability, so
/// everything behind a skipped node is also owned by an earlier chunk.
/// That reformulation is order-free, which makes step 1 sound with
/// singleton chunks (one per root): a claim for root *r* expands a node
/// only when `fetch_min(r)` observed a previous owner `> r`, and prunes
/// when the previous owner is `<= r` (either root *r* itself already
/// expanded it, or a lower root reaches it — and, along any path from
/// root *r* to a node whose lowest reaching root is *r*, every
/// intermediate node *also* has lowest reaching root *r*, so the pruning
/// never cuts root *r* off from a node it must own). `Relaxed` ordering
/// suffices: a stale high read only causes a redundant push, never a
/// wrong final value, and the spawning scope's join synchronizes the
/// final reads. Step 4 is exact because the chunks are contiguous in root
/// order: if *r* is the lowest root reaching an object and chunk *c*
/// holds *r*, every chunk `< c` holds only roots `< r`, none of which
/// reaches the object, so *c* is the lowest chunk reaching it. The same
/// fact makes step 2's estimate exact: a chunk's byte footprint under
/// first-touch ownership is the sum of its roots' weights. So the result
/// equals `first_touch_plan(heap, chunks)` for the chunks cut at step 3,
/// slot for slot.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a root or a traversed
/// reference points at a freed object or outside the arena. Which claim
/// trips a dangling reference first is schedule-dependent; the error
/// reported is the one from the lowest-indexed failing band.
pub fn weighted_plan(
    heap: &Heap,
    roots: &[ObjectId],
    shards: usize,
    overhead_per_object: u64,
) -> Result<ShardPlan, HeapError> {
    check_roots(heap, roots)?;
    let owner: Vec<AtomicU32> = (0..heap.arena_size()).map(|_| AtomicU32::new(UNOWNED)).collect();
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(roots.len());
    let bands = chunk_bounds(roots.len(), workers);
    std::thread::scope(|scope| {
        let owner = &owner;
        let handles: Vec<_> = bands
            .windows(2)
            .map(|band| {
                let (start, end) = (band[0], band[1]);
                scope.spawn(move || {
                    (start..end).try_for_each(|r| claim_root(heap, owner, roots[r], r as u32))
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("claim worker panicked"))
    })?;

    let mut weights = vec![0u64; roots.len()];
    let mut objects = 0usize;
    // Per-class encoded sizes are pure functions of the layout; memoize by
    // class index so the scan stays O(live objects).
    let mut class_sizes: Vec<Option<u64>> = Vec::new();
    for id in heap.iter_live() {
        let root = owner[id.index()].load(Ordering::Relaxed);
        if root == UNOWNED {
            continue;
        }
        objects += 1;
        let class = heap.class_of(id)?;
        let ci = class.index();
        if ci >= class_sizes.len() {
            class_sizes.resize(ci + 1, None);
        }
        let state = match class_sizes[ci] {
            Some(s) => s,
            None => {
                let s = heap.class(class)?.encoded_state_size() as u64;
                class_sizes[ci] = Some(s);
                s
            }
        };
        weights[root as usize] += overhead_per_object + state;
    }

    let bounds = chunk_bounds_weighted(&weights, shards);
    let mut chunk_of = vec![0u32; roots.len()];
    for (chunk, window) in bounds.windows(2).enumerate() {
        chunk_of[window[0]..window[1]].fill(chunk as u32);
    }
    let owner = owner
        .into_iter()
        .map(|slot| match slot.into_inner() {
            UNOWNED => UNOWNED,
            root => chunk_of[root as usize],
        })
        .collect();
    Ok(ShardPlan { roots: roots.to_vec(), bounds, owner, objects })
}

/// Checks every root through the heap, so a handle that is freed or lies
/// outside the arena is a typed error before any owner array is indexed
/// with it.
fn check_roots(heap: &Heap, roots: &[ObjectId]) -> Result<(), HeapError> {
    roots.iter().try_for_each(|&root| heap.object(root).map(drop))
}

/// Depth-first claim traversal for root `index`: claim each reached node
/// with `fetch_min(index)`, expand it only if the previous owner was
/// higher, and prune wherever a lower (or equal, i.e. already-visited)
/// owner holds the slot. See [`weighted_plan`] for why pruning at
/// lower-owned nodes is safe.
fn claim_root(
    heap: &Heap,
    owner: &[AtomicU32],
    root: ObjectId,
    index: u32,
) -> Result<(), HeapError> {
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if owner[id.index()].fetch_min(index, Ordering::Relaxed) <= index {
            continue;
        }
        let obj = heap.object(id)?;
        for value in obj.fields().iter().rev() {
            if let Value::Ref(Some(child)) = value {
                // A stale high read only costs a redundant push; the claim
                // above re-checks before expanding.
                if owner[child.index()].load(Ordering::Relaxed) > index {
                    stack.push(*child);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;
    use crate::ids::ClassId;
    use crate::value::FieldType;

    fn list_heap() -> (Heap, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[("v", FieldType::Int), ("a", FieldType::Ref(None)), ("b", FieldType::Ref(None))],
            )
            .unwrap();
        (Heap::new(reg), node)
    }

    #[test]
    fn reachability_is_preorder_and_deduplicated() {
        let (mut heap, node) = list_heap();
        let leaf = heap.alloc(node).unwrap();
        let mid = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(mid))).unwrap();
        heap.set_field(root, 2, Value::Ref(Some(leaf))).unwrap();
        heap.set_field(mid, 1, Value::Ref(Some(leaf))).unwrap(); // shared
        let order = reachable_from(&heap, &[root]).unwrap();
        assert_eq!(order, vec![root, mid, leaf]);
    }

    #[test]
    fn multiple_roots_are_all_covered() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let order = reachable_from(&heap, &[a, b]).unwrap();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn dag_sharing_is_not_a_cycle() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(root, 2, Value::Ref(Some(shared))).unwrap();
        validate_acyclic(&heap, &[root]).unwrap();
    }

    #[test]
    fn self_loop_is_detected() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(a))).unwrap();
        assert!(matches!(validate_acyclic(&heap, &[a]), Err(ReachError::Cycle(_))));
    }

    #[test]
    fn long_cycle_is_detected() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        let c = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(b))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(c))).unwrap();
        heap.set_field(c, 1, Value::Ref(Some(a))).unwrap();
        assert!(matches!(validate_acyclic(&heap, &[a]), Err(ReachError::Cycle(_))));
    }

    #[test]
    fn reachable_does_not_hang_on_cycles() {
        let (mut heap, node) = list_heap();
        let a = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(a))).unwrap();
        assert_eq!(reachable_from(&heap, &[a]).unwrap(), vec![a]);
    }

    #[test]
    fn dangling_reference_is_reported() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(reachable_from(&heap, &[root]).is_err());
        assert!(matches!(validate_acyclic(&heap, &[root]), Err(ReachError::Heap(_))));
    }

    /// Builds `n` disjoint two-node chains and returns their heads.
    fn chains(heap: &mut Heap, node: ClassId, n: usize) -> Vec<ObjectId> {
        (0..n)
            .map(|_| {
                let tail = heap.alloc(node).unwrap();
                let head = heap.alloc(node).unwrap();
                heap.set_field(head, 1, Value::Ref(Some(tail))).unwrap();
                head
            })
            .collect()
    }

    /// The count-balanced oracle plan: contiguous chunks by root count.
    fn counted(heap: &Heap, roots: &[ObjectId], shards: usize) -> ShardPlan {
        first_touch_plan(heap, chunk_roots(roots, shards)).unwrap()
    }

    /// The planner with the 15-byte record header the engine passes.
    fn planned(heap: &Heap, roots: &[ObjectId], shards: usize) -> ShardPlan {
        weighted_plan(heap, roots, shards, 15).unwrap()
    }

    #[test]
    fn partition_covers_every_reachable_object_exactly_once() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 8);
        let plan = planned(&heap, &roots, 4);
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.num_objects(), 16);
        assert_eq!(plan.objects_per_shard(), vec![4, 4, 4, 4]);
        for id in reachable_from(&heap, &roots).unwrap() {
            assert!(plan.owner_of(id).is_some());
        }
    }

    #[test]
    fn chunks_are_contiguous_and_balanced() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 7);
        for plan in [counted(&heap, &roots, 3), planned(&heap, &roots, 3)] {
            assert_eq!(plan.roots(0), &roots[0..3]);
            assert_eq!(plan.roots(1), &roots[3..5]);
            assert_eq!(plan.roots(2), &roots[5..7]);
        }
    }

    #[test]
    fn shared_objects_go_to_the_lowest_reaching_shard() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        let plan = planned(&heap, &[a, b], 2);
        assert!(plan.owns(0, a));
        assert!(plan.owns(1, b));
        assert!(plan.owns(0, shared), "first-touch owner is the earlier shard");
        assert!(!plan.owns(1, shared));
    }

    #[test]
    fn shard_concatenation_matches_the_sequential_preorder() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let mut roots = chains(&mut heap, node, 6);
        // Cross-links: root 1 and root 4 both reach `shared`.
        heap.set_field(roots[1], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[4], 2, Value::Ref(Some(shared))).unwrap();
        // A duplicate root exercises within- and across-shard dedup.
        roots.push(roots[0]);

        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in [1, 2, 3, 4, 7] {
            let plan = planned(&heap, &roots, shards);
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                // Local traversal exactly as a parallel worker performs it:
                // depth-first from the shard's roots, pruning at any object
                // the shard does not own.
                let mut stack: Vec<ObjectId> = plan.roots(shard).iter().rev().copied().collect();
                let mut seen = HashSet::new();
                while let Some(id) = stack.pop() {
                    if !plan.owns(shard, id) || !seen.insert(id) {
                        continue;
                    }
                    merged.push(id);
                    let obj = heap.object(id).unwrap();
                    for value in obj.fields().iter().rev() {
                        if let Value::Ref(Some(child)) = value {
                            stack.push(*child);
                        }
                    }
                }
            }
            assert_eq!(merged, sequential, "{shards} shards");
        }
    }

    #[test]
    fn shard_preorder_concatenation_is_the_sequential_preorder() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let roots = chains(&mut heap, node, 5);
        heap.set_field(roots[0], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[3], 2, Value::Ref(Some(shared))).unwrap();
        let sequential = reachable_from(&heap, &roots).unwrap();
        for shards in [1, 2, 3, 5] {
            for plan in [counted(&heap, &roots, shards), planned(&heap, &roots, shards)] {
                let mut merged = Vec::new();
                for shard in 0..plan.num_shards() {
                    let slice = plan.shard_preorder(&heap, shard).unwrap();
                    assert_eq!(slice.len(), plan.objects_per_shard()[shard]);
                    merged.extend(slice);
                }
                assert_eq!(merged, sequential, "{shards} shards");
            }
        }
    }

    #[test]
    fn oracle_accepts_hand_built_chunks() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 7);
        let chunks = chunk_roots(&roots, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.concat(), roots);
        // Non-contiguous hand-built chunks are accepted: first-touch is a
        // property of the chunk order, not of contiguity. Empty chunks
        // stay as empty shards.
        let plan = first_touch_plan(
            &heap,
            vec![vec![roots[4]], vec![], vec![roots[0], roots[2]], vec![roots[4], roots[1]]],
        )
        .unwrap();
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.roots(1), &[] as &[ObjectId]);
        assert_eq!(plan.owner_of(roots[4]), Some(0));
        assert_eq!(plan.owner_of(roots[0]), Some(2));
        assert_eq!(plan.owner_of(roots[1]), Some(3));
        assert_eq!(plan.owner_of(roots[6]), None, "unlisted roots stay unowned");
    }

    #[test]
    fn planner_equals_the_oracle_over_its_own_chunks() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let mut roots = chains(&mut heap, node, 9);
        heap.set_field(roots[1], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[6], 2, Value::Ref(Some(shared))).unwrap();
        roots.push(roots[2]); // duplicate root: cross-shard dedup
        for shards in [0, 1, 2, 3, 4, 8, 100] {
            let plan = planned(&heap, &roots, shards);
            let chunks = (0..plan.num_shards()).map(|s| plan.roots(s).to_vec()).collect();
            assert_eq!(plan, first_touch_plan(&heap, chunks).unwrap(), "{shards} shards");
        }
    }

    #[test]
    fn planner_reports_dangling_references() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        for shards in [1, 2] {
            assert!(matches!(
                weighted_plan(&heap, &[a, b], shards, 15),
                Err(HeapError::DanglingObject(id)) if id == child
            ));
        }
        assert!(first_touch_plan(&heap, chunk_roots(&[a, b], 2)).is_err());
    }

    #[test]
    fn roots_outside_the_arena_are_typed_errors() {
        // A handle allocated in a clone indexes past this heap's arena.
        let (mut heap, node) = list_heap();
        let root = heap.alloc(node).unwrap();
        let foreign = heap.clone().alloc(node).unwrap();
        assert_eq!(foreign.index(), heap.arena_size());
        for roots in [vec![foreign], vec![root, foreign]] {
            assert_eq!(
                first_touch_plan(&heap, vec![roots.clone()]),
                Err(HeapError::DanglingObject(foreign))
            );
            assert_eq!(
                weighted_plan(&heap, &roots, 2, 15),
                Err(HeapError::DanglingObject(foreign))
            );
        }
    }

    #[test]
    fn uniform_weights_reproduce_count_balanced_bounds() {
        for len in [1usize, 2, 3, 7, 8, 40] {
            for shards in [1usize, 2, 3, 4, 8] {
                let weights = vec![37u64; len];
                assert_eq!(
                    chunk_bounds_weighted(&weights, shards),
                    chunk_bounds(len, shards),
                    "{len} roots, {shards} shards"
                );
            }
        }
        assert_eq!(chunk_bounds(0, 4), vec![0]);
        assert_eq!(chunk_bounds_weighted(&[], 4), vec![0]);
    }

    #[test]
    fn weighted_bounds_cut_by_bytes_not_count() {
        // One heavy root up front: by count, 2 shards split 2+2; by weight,
        // the heavy root stands alone.
        assert_eq!(chunk_bounds_weighted(&[100, 1, 1, 1], 2), vec![0, 1, 4]);
        // Heavy tail: the light prefix groups together.
        assert_eq!(chunk_bounds_weighted(&[1, 1, 1, 100], 2), vec![0, 3, 4]);
        // Every chunk keeps at least one root even under extreme skew.
        assert_eq!(chunk_bounds_weighted(&[1000, 0, 0, 0], 4), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shared_subgraphs_weigh_on_the_lowest_root() {
        // Roots a, b, c, d: a and b both reach the chain s → t → u; c and
        // d are leaves. Crediting the chain to a (the lowest root) gives
        // weights 4:1:1:1, so 2 shards cut after a. Crediting it to b, or
        // to both, would cut after b.
        let (mut heap, node) = list_heap();
        let u = heap.alloc(node).unwrap();
        let t = heap.alloc(node).unwrap();
        let s = heap.alloc(node).unwrap();
        heap.set_field(t, 1, Value::Ref(Some(u))).unwrap();
        heap.set_field(s, 1, Value::Ref(Some(t))).unwrap();
        let roots: Vec<ObjectId> = (0..4).map(|_| heap.alloc(node).unwrap()).collect();
        heap.set_field(roots[0], 1, Value::Ref(Some(s))).unwrap();
        heap.set_field(roots[1], 1, Value::Ref(Some(s))).unwrap();
        let plan = planned(&heap, &roots, 2);
        assert_eq!(plan.roots(0), &roots[..1]);
        assert_eq!(plan.objects_per_shard(), vec![4, 3]);
        assert_eq!(plan.num_objects(), reachable_from(&heap, &roots).unwrap().len());
    }

    #[test]
    fn degenerate_shard_counts_are_clamped() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 2);
        for plan in [planned(&heap, &roots, 0), counted(&heap, &roots, 0)] {
            assert_eq!(plan.num_shards(), 1);
        }
        for plan in [planned(&heap, &roots, 9), counted(&heap, &roots, 9)] {
            assert_eq!(plan.num_shards(), 2);
        }
        for empty in [planned(&heap, &[], 4), counted(&heap, &[], 4)] {
            assert_eq!(empty.num_shards(), 0);
            assert_eq!(empty.num_objects(), 0);
        }
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let (mut heap, node) = list_heap();
        let mut head = heap.alloc(node).unwrap();
        for _ in 0..100_000 {
            let next = heap.alloc(node).unwrap();
            heap.set_field(next, 1, Value::Ref(Some(head))).unwrap();
            head = next;
        }
        assert_eq!(reachable_from(&heap, &[head]).unwrap().len(), 100_001);
        validate_acyclic(&heap, &[head]).unwrap();
    }
}
