//! The [`CheckpointManager`]: policy-driven lifecycle over a
//! [`DurableStore`].

use std::ops::Range;

use crate::retention::RetentionPolicy;
use ickp_core::{
    merge_records, object_slices, restore, CheckpointRecord, CheckpointStore, RestorePolicy,
    RestoredHeap,
};
use ickp_durable::{DedupStats, DurableConfig, DurableError, DurableStore, Vfs};
use ickp_heap::ClassRegistry;

/// Everything the manager needs to know: how the store writes, how much
/// it may keep, and whether to dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleConfig {
    /// Tuning for the underlying [`DurableStore`].
    pub durable: DurableConfig,
    /// The retention policy [`CheckpointManager::maintain`] applies.
    pub policy: RetentionPolicy,
    /// When `true`, appends and rewrites pass each record's object
    /// slices to the store's content-hash dedup.
    pub dedup: bool,
}

impl LifecycleConfig {
    /// Dedup on, default budget — the configuration the operations
    /// guide describes.
    pub fn recommended() -> LifecycleConfig {
        LifecycleConfig {
            durable: DurableConfig::default(),
            policy: RetentionPolicy::default_budget(),
            dedup: true,
        }
    }
}

/// Cumulative counters over one manager's lifetime (not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Records appended through this manager.
    pub appends: u64,
    /// Aggregate dedup accounting across all appends (maintenance
    /// rewrites report their own [`RetentionReport::dedup`]). The
    /// aggregate nets out part-framing overhead, so
    /// [`DedupStats::bytes_saved`] on it is the honest total.
    pub dedup: DedupStats,
    /// [`CheckpointManager::maintain`] calls that actually rewrote.
    pub maintenances: u64,
    /// [`CheckpointManager::reset_to`] calls that rolled back.
    pub resets: u64,
    /// Records folded away by retention merges.
    pub records_merged: u64,
}

/// What one [`CheckpointManager::maintain`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Records in the chain before maintenance.
    pub records_before: u64,
    /// Records in the chain after maintenance.
    pub records_after: u64,
    /// Committed store bytes before maintenance.
    pub bytes_before: u64,
    /// Committed store bytes after maintenance.
    pub bytes_after: u64,
    /// `true` when pinned tags alone exceed the budget (everything else
    /// was folded, but the tag count keeps the chain over budget).
    pub over_budget: bool,
    /// Dedup accounting for the rewrite (zeroes for a no-op).
    pub dedup: DedupStats,
    /// `true` when the chain already satisfied the policy: no I/O done.
    pub noop: bool,
}

/// Policy-driven checkpoint lifecycle over a crash-safe
/// [`DurableStore`]: named restore points, binomial retention, and
/// content-hash dedup, each committed by a single atomic manifest swap.
///
/// The manager mirrors the durable content as an in-memory
/// [`CheckpointStore`] (the *chain*), so restores never re-read disk.
/// Every mutating operation — [`append`](CheckpointManager::append),
/// [`tag`](CheckpointManager::tag),
/// [`maintain`](CheckpointManager::maintain),
/// [`reset_to`](CheckpointManager::reset_to) — has exactly one commit
/// point; a crash anywhere leaves the store at the previous or the next
/// acknowledged state, never between.
#[derive(Debug)]
pub struct CheckpointManager<F: Vfs> {
    store: DurableStore<F>,
    chain: CheckpointStore,
    registry: ClassRegistry,
    config: LifecycleConfig,
    stats: LifecycleStats,
}

impl<F: Vfs> CheckpointManager<F> {
    /// Initializes a manager over a fresh store.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::create`].
    pub fn create(
        fs: F,
        config: LifecycleConfig,
        registry: &ClassRegistry,
    ) -> Result<CheckpointManager<F>, DurableError> {
        let store = DurableStore::create(fs, config.durable)?;
        Ok(CheckpointManager {
            store,
            chain: CheckpointStore::new(),
            registry: registry.clone(),
            config,
            stats: LifecycleStats::default(),
        })
    }

    /// Opens a manager over an existing store, recovering the chain and
    /// the tag set.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::open`].
    pub fn open(
        fs: F,
        config: LifecycleConfig,
        registry: &ClassRegistry,
    ) -> Result<CheckpointManager<F>, DurableError> {
        let (store, chain) = DurableStore::open(fs, config.durable, registry)?;
        Ok(CheckpointManager {
            store,
            chain,
            registry: registry.clone(),
            config,
            stats: LifecycleStats::default(),
        })
    }

    fn layout_of(&self, record: &CheckpointRecord) -> Result<Vec<Range<usize>>, DurableError> {
        if !self.config.dedup {
            return Ok(Vec::new());
        }
        Ok(object_slices(record.bytes(), &self.registry)?)
    }

    /// Durably appends one checkpoint, deduplicating when configured.
    ///
    /// The chain's mirrored copy carries the dedup savings in its
    /// [`TraversalStats::bytes_deduped`](ickp_core::TraversalStats)
    /// counter.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::append_deduped`]; on error nothing (durable or
    /// in-memory) changes.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<DedupStats, DurableError> {
        let layout = self.layout_of(record)?;
        let dedup = self.store.append_deduped(record, &layout)?;
        let mut stats = record.stats();
        stats.bytes_deduped = dedup.bytes_saved();
        self.chain
            .push_merged(CheckpointRecord::from_parts(
                record.seq(),
                record.kind(),
                record.roots().to_vec(),
                record.bytes().to_vec(),
                stats,
            ))
            .map_err(DurableError::Core)?;
        self.stats.appends += 1;
        self.stats.dedup.absorb(dedup);
        Ok(dedup)
    }

    /// Durably tags the chain tip as a named restore point and returns
    /// the tagged sequence number. Tags pin their checkpoint through
    /// retention and can be rolled back to with
    /// [`CheckpointManager::reset_to`].
    ///
    /// # Errors
    ///
    /// [`DurableError::UnknownSeq`] on an empty chain, otherwise as
    /// [`DurableStore::tag`].
    pub fn tag(&mut self, label: &str) -> Result<u64, DurableError> {
        let seq = self.chain.latest().map(CheckpointRecord::seq).ok_or({
            // An empty chain has no tip; seq 0 names what the first
            // append will create.
            DurableError::UnknownSeq(0)
        })?;
        self.store.tag(label, seq)?;
        Ok(seq)
    }

    /// Durably removes a named restore point.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::remove_tag`].
    pub fn remove_tag(&mut self, label: &str) -> Result<(), DurableError> {
        self.store.remove_tag(label)
    }

    /// The named restore points, `(label, seq)` sorted by label.
    pub fn tags(&self) -> &[(String, u64)] {
        self.store.tags()
    }

    fn tag_seq(&self, label: &str) -> Result<u64, DurableError> {
        self.store
            .tags()
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, seq)| *seq)
            .ok_or_else(|| DurableError::UnknownTag(label.to_string()))
    }

    /// Rolls the store back to the named restore point: every record
    /// after the tagged checkpoint is discarded — durably, in one
    /// manifest swap — along with any tags that pointed past it, and the
    /// heap as of the tag is restored and returned.
    ///
    /// The caller owns the volatile side of the rollback: pair this with
    /// [`Checkpointer::rollback`](ickp_core::Checkpointer::rollback)
    /// using [`CheckpointManager::next_seq`] so sequence numbers resume
    /// from the restore point and no stale journal or shard plan
    /// survives.
    ///
    /// # Errors
    ///
    /// [`DurableError::UnknownTag`] for an unknown label, otherwise as
    /// [`DurableStore::rewrite`] / the restore itself.
    pub fn reset_to(&mut self, label: &str) -> Result<RestoredHeap, DurableError> {
        let seq = self.tag_seq(label)?;
        let keep: Vec<CheckpointRecord> =
            self.chain.records().iter().filter(|r| r.seq() <= seq).cloned().collect();
        if keep.len() < self.chain.len() {
            let layouts =
                keep.iter().map(|r| self.layout_of(r)).collect::<Result<Vec<_>, DurableError>>()?;
            let tags: Vec<(String, u64)> =
                self.store.tags().iter().filter(|(_, s)| *s <= seq).cloned().collect();
            self.store.rewrite(&keep, &layouts, &tags)?;
            let mut chain = CheckpointStore::new();
            for r in &keep {
                chain.push_merged(r.clone()).map_err(DurableError::Core)?;
            }
            self.chain = chain;
            self.stats.resets += 1;
        }
        restore(&self.chain, &self.registry, RestorePolicy::Lenient).map_err(DurableError::Core)
    }

    /// Applies the retention policy: folds runs of records between the
    /// policy's kept points (tags pinned, tip always kept) and rewrites
    /// the store in one atomic swap. When the chain already satisfies
    /// the policy this is a no-op with zero I/O.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::rewrite`]; on error before the swap the store
    /// and chain are unchanged.
    pub fn maintain(&mut self) -> Result<RetentionReport, DurableError> {
        let seqs: Vec<u64> = self.chain.records().iter().map(CheckpointRecord::seq).collect();
        let pinned: Vec<u64> = self.store.tags().iter().map(|(_, s)| *s).collect();
        let plan = self.config.policy.plan(&seqs, &pinned);
        let mut report = RetentionReport {
            records_before: self.chain.len() as u64,
            records_after: self.chain.len() as u64,
            bytes_before: self.store.committed_bytes(),
            bytes_after: self.store.committed_bytes(),
            over_budget: plan.over_budget,
            dedup: DedupStats::default(),
            noop: true,
        };
        if plan.is_noop() {
            return Ok(report);
        }

        let mut merged = Vec::with_capacity(plan.groups.len());
        for group in &plan.groups {
            let run = &self.chain.records()[group.clone()];
            if run.len() == 1 {
                merged.push(run[0].clone());
            } else {
                merged.push(merge_records(run, &self.registry).map_err(DurableError::Core)?);
            }
        }
        let layouts =
            merged.iter().map(|r| self.layout_of(r)).collect::<Result<Vec<_>, DurableError>>()?;
        let tags = self.store.tags().to_vec();
        report.dedup = self.store.rewrite(&merged, &layouts, &tags)?;
        let mut chain = CheckpointStore::new();
        for r in &merged {
            chain.push_merged(r.clone()).map_err(DurableError::Core)?;
        }
        self.stats.records_merged += report.records_before - merged.len() as u64;
        self.stats.maintenances += 1;
        self.chain = chain;
        report.records_after = self.chain.len() as u64;
        report.bytes_after = self.store.committed_bytes();
        report.noop = false;
        Ok(report)
    }

    /// Restores the heap as of the chain tip.
    ///
    /// # Errors
    ///
    /// [`DurableError::Core`] if the chain is empty or decoding fails.
    pub fn restore_latest(&self) -> Result<RestoredHeap, DurableError> {
        restore(&self.chain, &self.registry, RestorePolicy::Lenient).map_err(DurableError::Core)
    }

    /// Restores the heap as of a named restore point *without* touching
    /// the store — the read-only sibling of
    /// [`CheckpointManager::reset_to`].
    ///
    /// # Errors
    ///
    /// [`DurableError::UnknownTag`] for an unknown label, or
    /// [`DurableError::Core`] on decode failure.
    pub fn restore_at(&self, label: &str) -> Result<RestoredHeap, DurableError> {
        let seq = self.tag_seq(label)?;
        let mut prefix = CheckpointStore::new();
        for r in self.chain.records().iter().filter(|r| r.seq() <= seq) {
            prefix.push_merged(r.clone()).map_err(DurableError::Core)?;
        }
        restore(&prefix, &self.registry, RestorePolicy::Lenient).map_err(DurableError::Core)
    }

    /// The sequence number the next appended checkpoint must carry —
    /// feed this to [`Checkpointer::set_next_seq`](ickp_core::Checkpointer::set_next_seq)
    /// (or `rollback`) after opening or resetting.
    pub fn next_seq(&self) -> u64 {
        self.chain.latest().map_or(0, |r| r.seq() + 1)
    }

    /// The in-memory mirror of the durable chain.
    pub fn chain(&self) -> &CheckpointStore {
        &self.chain
    }

    /// The underlying durable store (committed bytes, tags, generation,
    /// chunk index size).
    pub fn store(&self) -> &DurableStore<F> {
        &self.store
    }

    /// Cumulative lifecycle counters.
    pub fn stats(&self) -> &LifecycleStats {
        &self.stats
    }

    /// Consumes the manager, returning the filesystem handle.
    pub fn into_fs(self) -> F {
        self.store.into_fs()
    }
}
