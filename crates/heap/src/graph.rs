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
//! [`partition_roots`] is the ownership pre-pass behind
//! `ickp_core::Checkpointer::checkpoint_parallel`: it splits a root set into
//! contiguous shards and assigns every reachable object to exactly one shard
//! (its *owner*), so independent workers can traverse and record disjoint
//! slices of the graph whose concatenation reproduces the sequential
//! traversal exactly.
//!
//! The pre-pass itself comes in two interchangeable forms: the sequential
//! oracle ([`first_touch_plan`] / [`partition_roots`]) and a parallel
//! version ([`first_touch_plan_parallel`] / [`partition_roots_parallel`])
//! that computes the *same* plan with per-chunk traversals racing on an
//! atomic owner array — see the equivalence argument on
//! [`first_touch_plan_parallel`]. Chunk boundaries can be placed by root
//! count ([`chunk_bounds`]) or by per-root byte weight
//! ([`chunk_bounds_weighted`], fed by [`root_weights`]); both stay
//! contiguous, so the stream-order invariant is untouched.

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
/// Produced by [`partition_roots`]. Shard `i` holds a contiguous slice of
/// the original root order, and every object reachable from the whole root
/// set is owned by exactly one shard: the shard whose roots reach it
/// *first* in the sequential depth-first traversal order. Two invariants
/// follow, and the parallel checkpointer in `ickp-core` relies on both:
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
/// use ickp_heap::{partition_roots, ClassRegistry, FieldType, Heap};
///
/// # fn main() -> Result<(), ickp_heap::HeapError> {
/// let mut reg = ClassRegistry::new();
/// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)])?;
/// let mut heap = Heap::new(reg);
/// let roots: Vec<_> = (0..4).map(|_| heap.alloc(leaf)).collect::<Result<_, _>>()?;
///
/// let plan = partition_roots(&heap, &roots, 2)?;
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

    /// All chunk roots, concatenated in shard order. For a contiguous
    /// chunking this is the original root set verbatim.
    pub fn all_roots(&self) -> &[ObjectId] {
        &self.roots
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
/// the estimated stream contribution of root `i` (see [`root_weights`]),
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
/// (see [`chunk_bounds`]), materialized as owned vectors. The engine's hot
/// path works on boundary ranges instead; this shape survives for callers
/// that build or scramble chunkings by hand (the shard audit, tests).
pub fn chunk_roots(roots: &[ObjectId], shards: usize) -> Vec<Vec<ObjectId>> {
    chunk_bounds(roots.len(), shards).windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect()
}

/// Splits `roots` into at most `shards` contiguous chunks whose boundaries
/// are placed by the per-root byte estimates `weights` (see
/// [`chunk_bounds_weighted`]), materialized as owned vectors.
///
/// # Panics
///
/// Panics if `weights.len() != roots.len()`.
pub fn chunk_roots_weighted(
    roots: &[ObjectId],
    weights: &[u64],
    shards: usize,
) -> Vec<Vec<ObjectId>> {
    assert_eq!(weights.len(), roots.len(), "one weight per root");
    chunk_bounds_weighted(weights, shards).windows(2).map(|w| roots[w[0]..w[1]].to_vec()).collect()
}

/// Flattens a hand-built chunking into the internal (roots, bounds)
/// representation. Empty chunks are kept (as empty ranges), matching the
/// historical acceptance of arbitrary chunk vectors.
fn flatten_chunks(chunks: Vec<Vec<ObjectId>>) -> (Vec<ObjectId>, Vec<usize>) {
    let mut roots = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    let mut bounds = Vec::with_capacity(chunks.len() + 1);
    bounds.push(0);
    for chunk in chunks {
        roots.extend_from_slice(&chunk);
        bounds.push(roots.len());
    }
    (roots, bounds)
}

/// Assigns every object reachable from `chunks` to its **first-touch
/// owner**: the lowest-index chunk whose depth-first traversal reaches it
/// first. This is the sequential ownership oracle behind
/// [`partition_roots`], exposed separately so callers with a non-contiguous
/// or hand-built chunking (tests, the shard audit) can compute the same
/// deterministic prediction the parallel engine relies on.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points
/// at a freed object.
pub fn first_touch_plan(heap: &Heap, chunks: Vec<Vec<ObjectId>>) -> Result<ShardPlan, HeapError> {
    let (roots, bounds) = flatten_chunks(chunks);
    first_touch_sequential(heap, roots, bounds)
}

/// Computes the same [`ShardPlan`] as [`first_touch_plan`] — same owner
/// array, slot for slot — with one traversal *per chunk* running in
/// parallel, racing on an atomic owner array with `fetch_min`.
///
/// **Equivalence argument.** Sequential first-touch ownership equals
/// "lowest-index chunk that can reach the object": chunk *i*'s sequential
/// traversal only skips nodes already owned by chunks `< i`, and first-touch
/// ownership is closed under reachability, so everything behind a skipped
/// node is also owned by an earlier chunk. That reformulation is
/// order-free, so each chunk can traverse independently and claim nodes
/// with an atomic minimum: a worker for chunk *i* expands a node only when
/// `fetch_min(i)` observed a previous owner `> i`, and prunes when the
/// previous owner is `<= i` (either chunk *i* itself already expanded it,
/// or a lower chunk reaches it — and, along any path from chunk *i*'s roots
/// to a node whose minimum reaching chunk is *i*, every intermediate node
/// *also* has minimum *i*, so the pruning never cuts chunk *i* off from a
/// node it must own). `Relaxed` ordering suffices: a stale high read only
/// causes a redundant push, never a wrong final value, and the spawning
/// scope's join synchronizes the final reads.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object. Which worker trips the error first is
/// schedule-dependent; the error reported is the one from the
/// lowest-indexed failing chunk.
pub fn first_touch_plan_parallel(
    heap: &Heap,
    chunks: Vec<Vec<ObjectId>>,
) -> Result<ShardPlan, HeapError> {
    let (roots, bounds) = flatten_chunks(chunks);
    first_touch_parallel(heap, roots, bounds)
}

/// Splits `roots` into at most `shards` contiguous chunks and assigns every
/// reachable object to its first-touch owner shard.
///
/// The pre-pass is one sequential depth-first traversal (the same order as
/// [`reachable_from`]); an object shared between shards is owned by the
/// lowest-index shard that reaches it, which keeps ownership deterministic
/// and independent of any later parallel execution schedule. A `shards`
/// value of 0 is treated as 1 and the chunk count never exceeds the root
/// count, so [`ShardPlan::num_shards`] may be less than `shards`.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn partition_roots(
    heap: &Heap,
    roots: &[ObjectId],
    shards: usize,
) -> Result<ShardPlan, HeapError> {
    first_touch_sequential(heap, roots.to_vec(), chunk_bounds(roots.len(), shards))
}

/// [`partition_roots`] with the ownership pre-pass run in parallel, one
/// worker per chunk (see [`first_touch_plan_parallel`] for the equivalence
/// argument). Produces the identical [`ShardPlan`].
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn partition_roots_parallel(
    heap: &Heap,
    roots: &[ObjectId],
    shards: usize,
) -> Result<ShardPlan, HeapError> {
    first_touch_parallel(heap, roots.to_vec(), chunk_bounds(roots.len(), shards))
}

/// Splits `roots` into at most `shards` contiguous chunks whose boundaries
/// are placed by the per-root byte estimates `weights` (see
/// [`chunk_bounds_weighted`] and [`root_weights`]), then assigns first-touch
/// ownership with the parallel pre-pass.
///
/// Because the weighted chunks are still contiguous, the resulting plan
/// satisfies the same two invariants as [`partition_roots`] (prunability
/// and sequential-order concatenation) and produces byte-identical merged
/// streams; only the load balance changes.
///
/// # Panics
///
/// Panics if `weights.len() != roots.len()`.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn partition_roots_weighted(
    heap: &Heap,
    roots: &[ObjectId],
    weights: &[u64],
    shards: usize,
) -> Result<ShardPlan, HeapError> {
    assert_eq!(weights.len(), roots.len(), "one weight per root");
    first_touch_parallel(heap, roots.to_vec(), chunk_bounds_weighted(weights, shards))
}

/// The sequential first-touch oracle over the flat (roots, bounds)
/// representation.
fn first_touch_sequential(
    heap: &Heap,
    roots: Vec<ObjectId>,
    bounds: Vec<usize>,
) -> Result<ShardPlan, HeapError> {
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

/// The parallel first-touch pre-pass: one scoped worker per chunk, all
/// racing `fetch_min` claims on a shared atomic owner array.
fn first_touch_parallel(
    heap: &Heap,
    roots: Vec<ObjectId>,
    bounds: Vec<usize>,
) -> Result<ShardPlan, HeapError> {
    let shards = bounds.len() - 1;
    if shards <= 1 {
        // One chunk cannot race with anyone; skip the thread machinery.
        return first_touch_sequential(heap, roots, bounds);
    }
    let owner: Vec<AtomicU32> = (0..heap.arena_size()).map(|_| AtomicU32::new(UNOWNED)).collect();
    let results: Vec<Result<(), HeapError>> = std::thread::scope(|scope| {
        let owner = &owner;
        let roots = &roots;
        let handles: Vec<_> = bounds
            .windows(2)
            .enumerate()
            .map(|(index, window)| {
                let chunk = &roots[window[0]..window[1]];
                scope.spawn(move || claim_chunk(heap, owner, chunk, index as u32))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pre-pass worker panicked")).collect()
    });
    for result in results {
        result?;
    }
    let mut objects = 0usize;
    let owner: Vec<u32> = owner
        .into_iter()
        .map(|slot| {
            let s = slot.into_inner();
            objects += usize::from(s != UNOWNED);
            s
        })
        .collect();
    Ok(ShardPlan { roots, bounds, owner, objects })
}

/// Depth-first claim traversal for one chunk: claim each reached node with
/// `fetch_min(index)`, expand it only if the previous owner was higher, and
/// prune wherever a lower (or equal, i.e. already-visited) owner holds the
/// slot. See [`first_touch_plan_parallel`] for why pruning at lower-owned
/// nodes is safe.
fn claim_chunk(
    heap: &Heap,
    owner: &[AtomicU32],
    chunk: &[ObjectId],
    index: u32,
) -> Result<(), HeapError> {
    let mut stack: Vec<ObjectId> = chunk.iter().rev().copied().collect();
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

/// Estimates, for every root, the number of stream bytes a full checkpoint
/// of the whole root set attributes to that root: each reachable object
/// counts `overhead_per_object` (the per-record header bytes) plus its
/// class's encoded state size, credited to the **lowest-index root** that
/// reaches it.
///
/// First-touch at root granularity makes the estimate *exact* for
/// contiguous chunkings: a chunk's byte footprint under first-touch
/// ownership is precisely the sum of its roots' weights, because "lowest
/// root reaching an object lies in chunk c" and "lowest chunk reaching it
/// is c" coincide when chunks are contiguous in root order. These weights
/// feed [`chunk_bounds_weighted`] / [`partition_roots_weighted`]; the same
/// estimate is what the shard-imbalance lint (AUD205 in `ickp-audit`)
/// computes per shard, so balancing on it closes that feedback loop.
///
/// The per-root ownership pass runs in parallel (contiguous bands of roots
/// across the available cores, same claim algorithm as
/// [`first_touch_plan_parallel`]); the byte summation is one scan over the
/// live arena.
///
/// # Errors
///
/// Returns [`HeapError::DanglingObject`] if a traversed reference points at
/// a freed object.
pub fn root_weights(
    heap: &Heap,
    roots: &[ObjectId],
    overhead_per_object: u64,
) -> Result<Vec<u64>, HeapError> {
    let n = roots.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let owner: Vec<AtomicU32> = (0..heap.arena_size()).map(|_| AtomicU32::new(UNOWNED)).collect();
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(n);
    let bands = chunk_bounds(n, workers);
    let results: Vec<Result<(), HeapError>> = std::thread::scope(|scope| {
        let owner = &owner;
        let handles: Vec<_> = bands
            .windows(2)
            .map(|window| {
                let (start, end) = (window[0], window[1]);
                let band = &roots[start..end];
                scope.spawn(move || {
                    for (offset, root) in band.iter().enumerate() {
                        claim_chunk(
                            heap,
                            owner,
                            std::slice::from_ref(root),
                            (start + offset) as u32,
                        )?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("weight worker panicked")).collect()
    });
    for result in results {
        result?;
    }
    let mut weights = vec![0u64; n];
    // Per-class encoded sizes are pure functions of the layout; memoize by
    // class index so the summation scan stays O(live objects).
    let mut class_sizes: Vec<Option<u64>> = Vec::new();
    for id in heap.iter_live() {
        let root = owner[id.index()].load(Ordering::Relaxed);
        if root == UNOWNED {
            continue;
        }
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
    Ok(weights)
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

    #[test]
    fn partition_covers_every_reachable_object_exactly_once() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 8);
        let plan = partition_roots(&heap, &roots, 4).unwrap();
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
        let plan = partition_roots(&heap, &roots, 3).unwrap();
        assert_eq!(plan.roots(0), &roots[0..3]);
        assert_eq!(plan.roots(1), &roots[3..5]);
        assert_eq!(plan.roots(2), &roots[5..7]);
    }

    #[test]
    fn shared_objects_go_to_the_lowest_reaching_shard() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        let plan = partition_roots(&heap, &[a, b], 2).unwrap();
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
            let plan = partition_roots(&heap, &roots, shards).unwrap();
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
            let plan = partition_roots(&heap, &roots, shards).unwrap();
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                let slice = plan.shard_preorder(&heap, shard).unwrap();
                assert_eq!(slice.len(), plan.objects_per_shard()[shard]);
                merged.extend(slice);
            }
            assert_eq!(merged, sequential, "{shards} shards");
        }
    }

    #[test]
    fn chunking_and_first_touch_compose_to_partition_roots() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 7);
        let chunks = chunk_roots(&roots, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks.concat(), roots);
        let composed = first_touch_plan(&heap, chunks).unwrap();
        let direct = partition_roots(&heap, &roots, 3).unwrap();
        assert_eq!(composed.num_objects(), direct.num_objects());
        for id in reachable_from(&heap, &roots).unwrap() {
            assert_eq!(composed.owner_of(id), direct.owner_of(id));
        }
        // Non-contiguous hand-built chunks are accepted: first-touch is a
        // property of the chunk order, not of contiguity.
        let scrambled = first_touch_plan(&heap, vec![vec![roots[4]], vec![roots[0], roots[2]]]);
        let plan = scrambled.unwrap();
        assert_eq!(plan.num_shards(), 2);
        assert_eq!(plan.owner_of(roots[4]), Some(0));
        assert_eq!(plan.owner_of(roots[0]), Some(1));
        assert_eq!(plan.owner_of(roots[6]), None, "unlisted roots stay unowned");
    }

    #[test]
    fn parallel_plan_equals_the_sequential_oracle() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let mut roots = chains(&mut heap, node, 9);
        heap.set_field(roots[1], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[6], 2, Value::Ref(Some(shared))).unwrap();
        roots.push(roots[2]); // duplicate root: cross-shard dedup
        for shards in [1, 2, 3, 4, 8, 100] {
            let sequential = partition_roots(&heap, &roots, shards).unwrap();
            let parallel = partition_roots_parallel(&heap, &roots, shards).unwrap();
            assert_eq!(parallel, sequential, "{shards} shards");
            assert_eq!(parallel.owner_table(), sequential.owner_table());
        }
    }

    #[test]
    fn parallel_plan_handles_hand_built_chunks() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 6);
        let chunks =
            vec![vec![roots[4]], vec![], vec![roots[0], roots[2]], vec![roots[4], roots[1]]];
        let sequential = first_touch_plan(&heap, chunks.clone()).unwrap();
        let parallel = first_touch_plan_parallel(&heap, chunks).unwrap();
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.num_shards(), 4);
        assert_eq!(parallel.roots(1), &[] as &[ObjectId]);
    }

    #[test]
    fn parallel_partition_reports_dangling_references() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(partition_roots_parallel(&heap, &[a, b], 2).is_err());
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
    fn weighted_partition_keeps_the_sequential_concatenation() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let roots = chains(&mut heap, node, 7);
        heap.set_field(roots[0], 2, Value::Ref(Some(shared))).unwrap();
        heap.set_field(roots[5], 2, Value::Ref(Some(shared))).unwrap();
        let sequential = reachable_from(&heap, &roots).unwrap();
        let weights = root_weights(&heap, &roots, 15).unwrap();
        for shards in [1, 2, 3, 7] {
            let plan = partition_roots_weighted(&heap, &roots, &weights, shards).unwrap();
            let mut merged = Vec::new();
            for shard in 0..plan.num_shards() {
                merged.extend(plan.shard_preorder(&heap, shard).unwrap());
            }
            assert_eq!(merged, sequential, "{shards} shards");
            assert_eq!(plan.all_roots(), &roots[..]);
        }
    }

    #[test]
    fn root_weights_credit_shared_subgraphs_to_the_lowest_root() {
        let (mut heap, node) = list_heap();
        let shared = heap.alloc(node).unwrap();
        let a = heap.alloc(node).unwrap();
        let b = heap.alloc(node).unwrap();
        heap.set_field(a, 1, Value::Ref(Some(shared))).unwrap();
        heap.set_field(b, 1, Value::Ref(Some(shared))).unwrap();
        // Node: int(4) + ref(8) + ref(8) = 20 state bytes; overhead 15.
        let per_object = 15 + 20u64;
        let weights = root_weights(&heap, &[a, b], 15).unwrap();
        assert_eq!(weights, vec![2 * per_object, per_object]);
        // Weights sum to the full-checkpoint footprint: each reachable
        // object counted exactly once.
        let reachable = reachable_from(&heap, &[a, b]).unwrap().len() as u64;
        assert_eq!(weights.iter().sum::<u64>(), reachable * per_object);
    }

    #[test]
    fn degenerate_shard_counts_are_clamped() {
        let (mut heap, node) = list_heap();
        let roots = chains(&mut heap, node, 2);
        assert_eq!(partition_roots(&heap, &roots, 0).unwrap().num_shards(), 1);
        assert_eq!(partition_roots(&heap, &roots, 9).unwrap().num_shards(), 2);
        let empty = partition_roots(&heap, &[], 4).unwrap();
        assert_eq!(empty.num_shards(), 0);
        assert_eq!(empty.num_objects(), 0);
    }

    #[test]
    fn partition_reports_dangling_references() {
        let (mut heap, node) = list_heap();
        let child = heap.alloc(node).unwrap();
        let root = heap.alloc(node).unwrap();
        heap.set_field(root, 1, Value::Ref(Some(child))).unwrap();
        heap.free(child).unwrap();
        assert!(partition_roots(&heap, &[root], 2).is_err());
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
