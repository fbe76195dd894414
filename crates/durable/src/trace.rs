//! Typed operation tracing: the raw material of the durability auditor.
//!
//! [`TraceVfs`] decorates any [`Vfs`] and records every **mutating**
//! operation — create, append, fsync, rename, directory fsync, truncate,
//! remove — as a typed [`TraceEvent`] carrying the path, the byte range
//! and the operation's index in a (possibly shared) [`OpCounter`] space.
//! The fault-injection layer ([`FailFs`](crate::FailFs)) and the
//! replication transport can write into the same [`TraceLog`], so one
//! trace captures the complete interleaved op stream of a composed
//! system: both nodes' filesystems plus the wire.
//!
//! Two consumers build on the trace:
//!
//! * `ickp-audit`'s `audit_durability` replays the stream through an
//!   explicit persistence model and statically proves the fsync/rename
//!   protocol sound (diagnostics `AUD401`–`AUD408`).
//! * [`crash_classes`] collapses the crash points of a deterministic
//!   workload into **equivalence classes**: two crash indices are
//!   equivalent when they provably leave byte-identical durable
//!   filesystem states, so [`crash_matrix`](crate::crash_matrix) need
//!   only replay the first and last member of each class (its default,
//!   pruned sweep).
//!
//! ## The persistence model (normative)
//!
//! The equivalence proof uses exactly the pessimistic POSIX model
//! [`MemFs`](crate::MemFs) implements (see `docs/FORMAT.md`):
//!
//! * bytes written to a file are **volatile** until a covering
//!   [`Vfs::sync`] on that file;
//! * a rename is **atomic** (never a torn name) but, like creations and
//!   removals, **unordered with respect to a crash** until the parent
//!   directory is fsynced ([`Vfs::sync_dir`]);
//! * a crash *during* an fsync leaves an arbitrary durable prefix of the
//!   pending bytes (deterministically: half, matching
//!   [`FailFs`](crate::FailFs));
//! * every other operation interrupted by a crash simply did not happen.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::fail::OpCounter;
use crate::vfs::{FsError, Vfs};

/// Which node of a (possibly replicated) system performed an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceNode {
    /// A single-node workload (the only node there is).
    Local,
    /// The replication primary.
    Primary,
    /// The replication follower (hot standby).
    Follower,
}

impl fmt::Display for TraceNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceNode::Local => "local",
            TraceNode::Primary => "primary",
            TraceNode::Follower => "follower",
        })
    }
}

/// One typed mutating operation, as the persistence model sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `write_file`: a fresh inode for `path` holding `len` volatile
    /// bytes (any previous durable inode stays reachable until the
    /// directory is synced).
    Create {
        /// The file created or begun to be replaced.
        path: String,
        /// Bytes written.
        len: u64,
    },
    /// `append`: `len` volatile bytes at `offset` (the file's length
    /// before the write).
    Write {
        /// The file appended to.
        path: String,
        /// File length before the write.
        offset: u64,
        /// Bytes appended.
        len: u64,
    },
    /// `sync`: every byte of `path` becomes durable (fsync).
    Fsync {
        /// The file synced.
        path: String,
    },
    /// `rename`: atomic, volatile until the next [`TraceOp::DirFsync`].
    Rename {
        /// Source name.
        from: String,
        /// Destination name (replaced atomically if present).
        to: String,
    },
    /// `sync_dir`: the directory's name set becomes durable.
    DirFsync,
    /// `truncate` to `len` bytes.
    Truncate {
        /// The file truncated.
        path: String,
        /// New length.
        len: u64,
    },
    /// `remove`: volatile until the next [`TraceOp::DirFsync`].
    Remove {
        /// The file removed.
        path: String,
    },
    /// A replication data frame leaving the primary.
    WireSend,
    /// An acknowledgement frame leaving the follower.
    WireAck,
}

impl TraceOp {
    /// The static operation name (matches [`FsError::Injected`]'s `op`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceOp::Create { .. } => "write_file",
            TraceOp::Write { .. } => "append",
            TraceOp::Fsync { .. } => "sync",
            TraceOp::Rename { .. } => "rename",
            TraceOp::DirFsync => "sync_dir",
            TraceOp::Truncate { .. } => "truncate",
            TraceOp::Remove { .. } => "remove",
            TraceOp::WireSend => "wire_send",
            TraceOp::WireAck => "wire_ack",
        }
    }
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::Create { path, len } => write!(f, "create {path:?} ({len} bytes)"),
            TraceOp::Write { path, offset, len } => {
                write!(f, "append {path:?} @{offset}+{len}")
            }
            TraceOp::Fsync { path } => write!(f, "fsync {path:?}"),
            TraceOp::Rename { from, to } => write!(f, "rename {from:?} -> {to:?}"),
            TraceOp::DirFsync => f.write_str("dir-fsync"),
            TraceOp::Truncate { path, len } => write!(f, "truncate {path:?} to {len}"),
            TraceOp::Remove { path } => write!(f, "remove {path:?}"),
            TraceOp::WireSend => f.write_str("wire send (primary -> follower)"),
            TraceOp::WireAck => f.write_str("wire ack (follower -> primary)"),
        }
    }
}

/// One entry of a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A counted mutating operation.
    Op {
        /// The index claimed on the shared [`OpCounter`].
        index: u64,
        /// The node that performed it.
        node: TraceNode,
        /// What it did.
        op: TraceOp,
    },
    /// A client-visible acknowledgement watermark: `records` checkpoint
    /// records are now acknowledged. Markers are positional (they sit
    /// between the counted operations) but claim **no** counter index,
    /// so filesystem op indices line up exactly with
    /// [`FailFs`](crate::FailFs) crash indices.
    ClientAck {
        /// Cumulative acknowledged record count.
        records: u64,
    },
}

/// A shareable, append-only event log. Clones share the same buffer, so
/// one log can collect events from a [`TraceVfs`], a
/// [`FailFs`](crate::FailFs) and a transport at once.
#[derive(Debug, Clone, Default)]
pub struct TraceLog(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Records one counted operation.
    pub fn record(&self, index: u64, node: TraceNode, op: TraceOp) {
        self.0.lock().expect("trace log poisoned").push(TraceEvent::Op { index, node, op });
    }

    /// Records a client-acknowledgement watermark (uncounted marker).
    pub fn client_ack(&self, records: u64) {
        self.0.lock().expect("trace log poisoned").push(TraceEvent::ClientAck { records });
    }

    /// A snapshot of everything recorded so far, with the counter's
    /// current claim count — the input [`audit_durability`] and
    /// [`crash_classes`] consume.
    ///
    /// [`audit_durability`]: https://docs.rs/ickp-audit
    pub fn snapshot(&self, counter: &OpCounter) -> OpTrace {
        OpTrace {
            events: self.0.lock().expect("trace log poisoned").clone(),
            counted: counter.count(),
        }
    }

    /// Number of events recorded so far (ops plus markers).
    pub fn len(&self) -> usize {
        self.0.lock().expect("trace log poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An immutable snapshot of a recorded op stream: the events in order
/// plus the total number of counter indices claimed while recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// The recorded events, in order.
    pub events: Vec<TraceEvent>,
    /// Indices claimed on the shared [`OpCounter`] during the trace. A
    /// sound trace covers `0..counted` exactly once each; a gap means
    /// some layer performed I/O outside the traced op space.
    pub counted: u64,
}

/// A [`Vfs`] decorator that records every mutating operation into a
/// [`TraceLog`], claiming indices on a (possibly shared) [`OpCounter`].
///
/// Tracing is transparent: every operation delegates to the inner
/// filesystem unchanged, reads are not counted (mirroring
/// [`FailFs`](crate::FailFs)), and the decorated filesystem is
/// byte-identical and crash-identical to the bare one (pinned by the
/// `trace_props` property suite).
#[derive(Debug)]
pub struct TraceVfs<F: Vfs> {
    inner: F,
    log: TraceLog,
    counter: OpCounter,
    node: TraceNode,
    /// Shadow file sizes, so append offsets are recorded without reading
    /// the inner filesystem (which may be expensive or absent).
    sizes: BTreeMap<String, u64>,
}

impl<F: Vfs> TraceVfs<F> {
    /// Wraps `inner`, recording into `log` as [`TraceNode::Local`] on a
    /// private counter.
    pub fn new(inner: F, log: TraceLog) -> TraceVfs<F> {
        TraceVfs::with_counter(inner, log, OpCounter::new(), TraceNode::Local)
    }

    /// Wraps `inner`, recording into `log` as `node`, numbering
    /// operations on the given (possibly shared) counter.
    pub fn with_counter(
        inner: F,
        log: TraceLog,
        counter: OpCounter,
        node: TraceNode,
    ) -> TraceVfs<F> {
        TraceVfs { inner, log, counter, node, sizes: BTreeMap::new() }
    }

    /// A handle to this filesystem's operation counter.
    pub fn counter(&self) -> OpCounter {
        self.counter.clone()
    }

    /// The trace log this filesystem records into.
    pub fn log(&self) -> TraceLog {
        self.log.clone()
    }

    /// Consumes the decorator, returning the inner filesystem.
    pub fn into_inner(self) -> F {
        self.inner
    }

    /// The inner filesystem, for inspection.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn trace(&mut self, op: TraceOp) {
        let index = self.counter.next();
        self.log.record(index, self.node, op);
    }
}

impl<F: Vfs> Vfs for TraceVfs<F> {
    fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        self.trace(TraceOp::Create { path: name.to_string(), len: data.len() as u64 });
        let r = self.inner.write_file(name, data);
        if r.is_ok() {
            self.sizes.insert(name.to_string(), data.len() as u64);
        }
        r
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let offset = self.sizes.get(name).copied().unwrap_or(0);
        self.trace(TraceOp::Write { path: name.to_string(), offset, len: data.len() as u64 });
        let r = self.inner.append(name, data);
        if r.is_ok() {
            *self.sizes.entry(name.to_string()).or_insert(0) += data.len() as u64;
        }
        r
    }

    fn sync(&mut self, name: &str) -> Result<(), FsError> {
        self.trace(TraceOp::Fsync { path: name.to_string() });
        self.inner.sync(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        self.trace(TraceOp::Rename { from: from.to_string(), to: to.to_string() });
        let r = self.inner.rename(from, to);
        if r.is_ok() {
            if let Some(len) = self.sizes.remove(from) {
                self.sizes.insert(to.to_string(), len);
            }
        }
        r
    }

    fn sync_dir(&mut self) -> Result<(), FsError> {
        self.trace(TraceOp::DirFsync);
        self.inner.sync_dir()
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), FsError> {
        self.trace(TraceOp::Truncate { path: name.to_string(), len });
        let r = self.inner.truncate(name, len);
        if r.is_ok() {
            if let Some(size) = self.sizes.get_mut(name) {
                *size = (*size).min(len);
            }
        }
        r
    }

    fn remove(&mut self, name: &str) -> Result<(), FsError> {
        self.trace(TraceOp::Remove { path: name.to_string() });
        let r = self.inner.remove(name);
        if r.is_ok() {
            self.sizes.remove(name);
        }
        r
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        self.inner.read(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        self.inner.list()
    }
}

// ------------------------------------------------- crash-state classes

/// One equivalence class of crash points: every index in `indices`
/// provably leaves the same durable filesystem state (byte-identical
/// under the persistence model), so recovery behaves identically at each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashClass {
    /// The class's canonical member (its smallest crash index).
    pub representative: u64,
    /// Every crash index in the class, ascending.
    pub indices: Vec<u64>,
    /// The client-acknowledged record watermark at every index of the
    /// class (from the trace's [`TraceEvent::ClientAck`] markers; 0 if
    /// the workload recorded none). For a sound single-store protocol
    /// this is exactly the record count recovery returns.
    pub recovers_to: u64,
}

/// A symbolic inode: content as (writing-op, length) runs plus the
/// durable prefix length. Runs identify *which operation* produced each
/// byte range, so equal truncated run lists imply byte-identical durable
/// content for a deterministic workload — without the trace having to
/// record the bytes themselves.
#[derive(Debug, Clone, Default)]
struct SymInode {
    runs: Vec<(u64, u64)>,
    synced_len: u64,
}

impl SymInode {
    fn len(&self) -> u64 {
        self.runs.iter().map(|(_, l)| l).sum()
    }

    fn truncate(&mut self, len: u64) {
        let mut total = 0u64;
        self.runs.retain_mut(|(_, l)| {
            if total >= len {
                return false;
            }
            *l = (*l).min(len - total);
            total += *l;
            true
        });
        self.synced_len = self.synced_len.min(self.len());
    }

    /// Serializes the durable prefix (runs up to `synced`) into `key`.
    fn durable_key(&self, synced: u64, key: &mut Vec<u8>) {
        let mut remaining = synced;
        for &(op, len) in &self.runs {
            if remaining == 0 {
                break;
            }
            let take = len.min(remaining);
            key.extend_from_slice(&op.to_le_bytes());
            key.extend_from_slice(&take.to_le_bytes());
            remaining -= take;
        }
    }
}

/// A symbolic [`MemFs`](crate::MemFs): the same durable/volatile split,
/// tracked over op identities instead of bytes.
#[derive(Debug, Clone, Default)]
struct SymFs {
    inodes: Vec<SymInode>,
    namespace: BTreeMap<String, usize>,
    durable_namespace: BTreeMap<String, usize>,
}

impl SymFs {
    fn inode_for(&mut self, path: &str) -> usize {
        match self.namespace.get(path) {
            Some(&idx) => idx,
            None => {
                self.inodes.push(SymInode::default());
                let idx = self.inodes.len() - 1;
                self.namespace.insert(path.to_string(), idx);
                idx
            }
        }
    }

    fn apply(&mut self, index: u64, op: &TraceOp) {
        match op {
            TraceOp::Create { path, len } => {
                self.inodes.push(SymInode { runs: vec![(index, *len)], synced_len: 0 });
                self.namespace.insert(path.clone(), self.inodes.len() - 1);
            }
            TraceOp::Write { path, len, .. } => {
                let idx = self.inode_for(path);
                self.inodes[idx].runs.push((index, *len));
            }
            TraceOp::Fsync { path } => {
                if let Some(&idx) = self.namespace.get(path) {
                    self.inodes[idx].synced_len = self.inodes[idx].len();
                }
            }
            TraceOp::Rename { from, to } => {
                if let Some(idx) = self.namespace.remove(from) {
                    self.namespace.insert(to.clone(), idx);
                }
            }
            TraceOp::DirFsync => self.durable_namespace = self.namespace.clone(),
            TraceOp::Truncate { path, len } => {
                if let Some(&idx) = self.namespace.get(path) {
                    self.inodes[idx].truncate(*len);
                }
            }
            TraceOp::Remove { path } => {
                self.namespace.remove(path);
            }
            TraceOp::WireSend | TraceOp::WireAck => {}
        }
    }

    /// Serializes the durable state — the durable namespace and each
    /// reachable inode's durable content runs — into `key`.
    /// `partial_sync` optionally applies the half-pending partial effect
    /// of an in-flight fsync on one path (the crash-during-fsync rule).
    fn durable_key(&self, partial_sync: Option<&str>, key: &mut Vec<u8>) {
        for (name, &idx) in &self.durable_namespace {
            key.extend_from_slice(name.as_bytes());
            key.push(0);
            let inode = &self.inodes[idx];
            let mut synced = inode.synced_len;
            // An in-flight fsync resolves its path through the volatile
            // namespace; its partial effect is visible here only when
            // that inode is also reachable from the durable namespace.
            if let Some(path) = partial_sync {
                if self.namespace.get(path) == Some(&idx) {
                    synced += (inode.len() - inode.synced_len) / 2;
                }
            }
            inode.durable_key(synced, key);
            key.push(0xFF);
        }
    }
}

/// Collapses the crash points of a recorded trace into equivalence
/// classes of provably identical durable states.
///
/// Crash index `k` means: operations `0..k` took full effect, operation
/// `k` took its partial effect (only an in-flight fsync has one — half
/// the pending bytes become durable; every other interrupted operation
/// simply did not happen), then every volatile byte and name was lost.
/// Two indices land in the same class iff, under that model, they leave
/// the same durable namespace mapping to inodes with identical durable
/// content runs **on every node**, the same acknowledged watermark, and
/// (for wire operations, whose crash kills the sending node) the same
/// victim. Because the workload is deterministic, equal keys imply
/// byte-identical recovered filesystems — replaying one representative
/// per class exercises every distinct recovery the full matrix would.
pub fn crash_classes(trace: &OpTrace) -> Vec<CrashClass> {
    let mut nodes: BTreeMap<TraceNode, SymFs> = BTreeMap::new();
    let mut acked = 0u64;
    let mut by_key: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut classes: Vec<CrashClass> = Vec::new();

    let mut ordered: Vec<(&u64, &TraceNode, &TraceOp)> = Vec::new();
    let mut markers: Vec<(usize, u64)> = Vec::new(); // (position among ops, watermark)
    for event in &trace.events {
        match event {
            TraceEvent::Op { index, node, op } => ordered.push((index, node, op)),
            TraceEvent::ClientAck { records } => markers.push((ordered.len(), *records)),
        }
    }

    let mut marker_cursor = 0usize;
    for (position, (&index, &node, op)) in ordered.iter().enumerate() {
        while marker_cursor < markers.len() && markers[marker_cursor].0 <= position {
            acked = markers[marker_cursor].1;
            marker_cursor += 1;
        }
        nodes.entry(node).or_default();

        // The crash-at-`index` durable state: every node's durable key,
        // with the partial fsync effect applied on the owning node.
        let mut key = Vec::new();
        key.extend_from_slice(&acked.to_le_bytes());
        let victim = match op {
            TraceOp::WireSend | TraceOp::WireAck => Some(node),
            _ => None,
        };
        key.push(match victim {
            None => 0,
            Some(TraceNode::Local) => 1,
            Some(TraceNode::Primary) => 2,
            Some(TraceNode::Follower) => 3,
        });
        for (&n, fs) in &nodes {
            key.push(match n {
                TraceNode::Local => 1,
                TraceNode::Primary => 2,
                TraceNode::Follower => 3,
            });
            let partial = match op {
                TraceOp::Fsync { path } if n == node => Some(path.as_str()),
                _ => None,
            };
            fs.durable_key(partial, &mut key);
        }

        match by_key.get(&key) {
            Some(&slot) => classes[slot].indices.push(index),
            None => {
                by_key.insert(key, classes.len());
                classes.push(CrashClass {
                    representative: index,
                    indices: vec![index],
                    recovers_to: acked,
                });
            }
        }

        nodes.get_mut(&node).expect("inserted above").apply(index, op);
    }

    classes.sort_by_key(|c| c.representative);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;

    #[test]
    fn trace_vfs_records_typed_ops_with_indices() {
        let log = TraceLog::new();
        let mut fs = TraceVfs::new(MemFs::new(), log);
        fs.write_file("a", b"xy").unwrap();
        fs.append("a", b"zw").unwrap();
        fs.sync("a").unwrap();
        fs.rename("a", "b").unwrap();
        fs.sync_dir().unwrap();
        fs.log().client_ack(1);
        fs.truncate("b", 1).unwrap();
        fs.remove("b").unwrap();
        let _ = fs.read("b"); // reads are not counted
        let trace = fs.log().snapshot(&fs.counter());
        assert_eq!(trace.counted, 7);
        let ops: Vec<String> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Op { op, .. } => Some(op.to_string()),
                TraceEvent::ClientAck { .. } => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                "create \"a\" (2 bytes)",
                "append \"a\" @2+2",
                "fsync \"a\"",
                "rename \"a\" -> \"b\"",
                "dir-fsync",
                "truncate \"b\" to 1",
                "remove \"b\"",
            ]
        );
        assert!(trace.events.iter().any(|e| matches!(e, TraceEvent::ClientAck { records: 1 })));
    }

    /// A write-temp + fsync + rename + dir-fsync commit: every crash
    /// point before the dir-fsync completes is one class (the old state),
    /// the first point after it is another.
    #[test]
    fn commit_protocol_collapses_into_two_classes() {
        let log = TraceLog::new();
        let mut fs = TraceVfs::new(MemFs::new(), log);
        // Commit 1: publish "MANIFEST".
        fs.write_file("MANIFEST.tmp", b"v1").unwrap(); // 0
        fs.sync("MANIFEST.tmp").unwrap(); // 1
        fs.rename("MANIFEST.tmp", "MANIFEST").unwrap(); // 2
        fs.sync_dir().unwrap(); // 3
        fs.log().client_ack(1);
        // Commit 2 begins but we only trace its first op.
        fs.write_file("MANIFEST.tmp", b"v2").unwrap(); // 4
        let trace = fs.log().snapshot(&fs.counter());
        let classes = crash_classes(&trace);
        assert_eq!(classes.len(), 2, "{classes:?}");
        assert_eq!(classes[0].indices, vec![0, 1, 2, 3], "pre-commit crashes are one state");
        assert_eq!(classes[0].recovers_to, 0);
        assert_eq!(classes[1].indices, vec![4]);
        assert_eq!(classes[1].recovers_to, 1);
    }

    /// A crash *during* an fsync with >= 2 pending bytes leaves a torn
    /// durable prefix distinct from both neighbours — its own class.
    #[test]
    fn torn_fsync_is_its_own_class() {
        let log = TraceLog::new();
        let mut fs = TraceVfs::new(MemFs::new(), log);
        fs.append("seg", b"AA").unwrap(); // 0
        fs.sync("seg").unwrap(); // 1
        fs.sync_dir().unwrap(); // 2
        fs.append("seg", b"BBBB").unwrap(); // 3: volatile
        fs.sync("seg").unwrap(); // 4: crash here -> 2 of 4 pending bytes land
        fs.append("seg", b"C").unwrap(); // 5
        let trace = fs.log().snapshot(&fs.counter());
        let classes = crash_classes(&trace);
        // Crash at k: ops 0..k applied, op k partial. 0..=2 share the
        // empty durable state (the name publishes only when the dir-fsync
        // *completes*, i.e. from crash point 3 on); the volatile append
        // at 3 changes nothing durable; 4 is the torn half-sync; 5 sees
        // the full sync.
        let of = |k: u64| classes.iter().position(|c| c.indices.contains(&k)).unwrap();
        assert_eq!(of(0), of(1));
        assert_eq!(of(1), of(2), "uncompleted dir-fsync leaves the empty namespace");
        assert_ne!(of(2), of(3), "completed dir-fsync publishes the synced bytes");
        assert_ne!(of(3), of(4), "torn fsync is distinct");
        assert_ne!(of(4), of(5), "completed fsync is distinct from torn");
    }

    /// Truncate-then-rewrite to the same synced length must NOT merge
    /// with the original state: the durable bytes differ even though the
    /// lengths agree.
    #[test]
    fn same_length_different_bytes_do_not_merge() {
        let log = TraceLog::new();
        let mut fs = TraceVfs::new(MemFs::new(), log);
        fs.append("f", b"ABCD").unwrap(); // 0
        fs.sync("f").unwrap(); // 1
        fs.sync_dir().unwrap(); // 2
        fs.truncate("f", 2).unwrap(); // 3
        fs.append("f", b"XY").unwrap(); // 4: same length, different source op
        fs.sync("f").unwrap(); // 5
        fs.sync_dir().unwrap(); // 6
        fs.append("f", b"!").unwrap(); // 7
        let trace = fs.log().snapshot(&fs.counter());
        let classes = crash_classes(&trace);
        let of = |k: u64| classes.iter().position(|c| c.indices.contains(&k)).unwrap();
        // Crash at 7 sees "ABXY" durable (ops 0-truncated + op 4); crash
        // at 3 sees "ABCD". Same length, different run identity.
        assert_ne!(of(3), of(7));
    }
}
