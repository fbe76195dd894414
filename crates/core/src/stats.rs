//! Instrumentation counters explaining *where* checkpoint time goes.

use std::ops::{Add, AddAssign};

/// Counters accumulated over one checkpoint traversal.
///
/// These are the quantities the paper's specializations attack:
/// `virtual_calls` (eliminated by structure specialization),
/// `flag_tests` and `objects_visited` (eliminated by modification-pattern
/// specialization), and `bytes_written` (the checkpoint size,
/// reduced by incrementality itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Objects reached by the traversal.
    pub objects_visited: u64,
    /// Objects whose state was recorded into the stream.
    pub objects_recorded: u64,
    /// Modified-flag tests performed.
    pub flag_tests: u64,
    /// Dynamic dispatches through the method table (or plan fallbacks):
    /// one per `record` and one per `fold` the generic driver makes. The
    /// sharded engine reads child references straight from each object
    /// and makes no `fold` dispatch, but counts the `fold` the generic
    /// driver would have made for each visited object, so its counters
    /// equal the sequential driver's.
    pub virtual_calls: u64,
    /// Reference edges followed.
    pub refs_followed: u64,
    /// Bytes appended to the checkpoint stream.
    pub bytes_written: u64,
    /// Journal entries that were live, still modified, and reachable —
    /// i.e. dirty objects the journal fast path recorded without
    /// traversing to them. Zero on slow-path checkpoints.
    pub journal_hits: u64,
    /// Reachable objects the journal fast path did *not* visit (the
    /// traversal and flag tests a slow-path checkpoint would have spent on
    /// them). Zero on slow-path checkpoints.
    pub subtrees_pruned: u64,
    /// Capacity (bytes) of the recycled encode buffer this checkpoint
    /// started from, courtesy of the [`BufferPool`](crate::BufferPool);
    /// zero when the stream had to allocate fresh.
    pub bytes_reused: u64,
    /// Bytes the durable layer did *not* have to store for this
    /// checkpoint because identical object records already existed in
    /// the store's content-hash index (see `ickp-durable` dedup). Zero
    /// until the record passes through a deduplicating sink.
    pub bytes_deduped: u64,
}

impl Add for TraversalStats {
    type Output = TraversalStats;

    fn add(self, rhs: TraversalStats) -> TraversalStats {
        TraversalStats {
            objects_visited: self.objects_visited + rhs.objects_visited,
            objects_recorded: self.objects_recorded + rhs.objects_recorded,
            flag_tests: self.flag_tests + rhs.flag_tests,
            virtual_calls: self.virtual_calls + rhs.virtual_calls,
            refs_followed: self.refs_followed + rhs.refs_followed,
            bytes_written: self.bytes_written + rhs.bytes_written,
            journal_hits: self.journal_hits + rhs.journal_hits,
            subtrees_pruned: self.subtrees_pruned + rhs.subtrees_pruned,
            bytes_reused: self.bytes_reused + rhs.bytes_reused,
            bytes_deduped: self.bytes_deduped + rhs.bytes_deduped,
        }
    }
}

impl AddAssign for TraversalStats {
    fn add_assign(&mut self, rhs: TraversalStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_fieldwise() {
        let a = TraversalStats {
            objects_visited: 1,
            objects_recorded: 2,
            flag_tests: 3,
            virtual_calls: 4,
            refs_followed: 5,
            bytes_written: 6,
            journal_hits: 7,
            subtrees_pruned: 8,
            bytes_reused: 9,
            bytes_deduped: 10,
        };
        let b = a;
        let c = a + b;
        assert_eq!(c.objects_visited, 2);
        assert_eq!(c.bytes_written, 12);
        assert_eq!(c.journal_hits, 14);
        assert_eq!(c.subtrees_pruned, 16);
        assert_eq!(c.bytes_reused, 18);
        assert_eq!(c.bytes_deduped, 20);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn default_is_all_zero() {
        let z = TraversalStats::default();
        assert_eq!(z.objects_visited, 0);
        assert_eq!(z + z, z);
    }
}
