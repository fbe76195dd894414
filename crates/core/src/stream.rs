//! The checkpoint wire format.
//!
//! This is the Rust analog of the paper's `DataOutputStream` composed with a
//! `ByteArrayOutputStream`: an append-only byte sink with fixed-width
//! big-endian primitive writers, plus a decoder used by restore.
//!
//! ## Layout
//!
//! ```text
//! header  := magic "ICKP" | version:u16 | seq:u64 | kind:u8 | nroots:u32 | root_id:u64 *
//! record  := 0x01 | stable:u64 | class:u32 | nfields:u16 | field-bytes (per class layout)
//! footer  := 0xFF | nrecords:u32
//! ```
//!
//! Field encodings follow [`ickp_heap::FieldType::encoded_size`]: `int` 4B,
//! `long`/`double`/`ref` 8B, `boolean` 1B. A reference is the **stable id**
//! of the referent (0 encodes `null`; live stable ids start at 1), which is
//! what lets a sequence of incremental checkpoints be stitched back
//! together by identity.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::ops::Range;

use crate::error::CoreError;
use ickp_heap::{ClassId, ClassRegistry, FieldDef, FieldType, StableId};

/// Magic bytes opening every checkpoint stream.
pub const MAGIC: [u8; 4] = *b"ICKP";
/// Current stream format version.
pub const VERSION: u16 = 1;

const TAG_OBJECT: u8 = 0x01;
const TAG_END: u8 = 0xFF;

/// Bytes of the per-record stream header written by
/// [`StreamWriter::begin_object`]: tag (1), stable id (8), class id (4),
/// field count (2). Static byte estimators — the shard-imbalance lint in
/// `ickp-audit`, the shard planner ([`ickp_heap::weighted_plan`] as
/// invoked by [`crate::plan_shards`]) — add this to each class's encoded
/// state size to predict a record's exact stream footprint.
pub const RECORD_HEADER_BYTES: usize = 1 + 8 + 4 + 2;

/// Whether a checkpoint records everything or only modified objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointKind {
    /// Every reachable object was recorded.
    Full,
    /// Only objects whose modified flag was set were recorded.
    Incremental,
}

impl CheckpointKind {
    fn to_byte(self) -> u8 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::Incremental => 1,
        }
    }

    fn from_byte(b: u8, offset: usize) -> Result<CheckpointKind, CoreError> {
        match b {
            0 => Ok(CheckpointKind::Full),
            1 => Ok(CheckpointKind::Incremental),
            other => Err(CoreError::Decode {
                offset,
                what: format!("invalid checkpoint kind byte {other}"),
            }),
        }
    }
}

/// Append-only encoder for one checkpoint.
///
/// The writer is deliberately minimal — fixed-width appends into a byte
/// vector — because its cost is part of what the paper measures as
/// "recording the local state".
#[derive(Debug)]
pub struct StreamWriter {
    buf: Vec<u8>,
    records: u32,
    finished: bool,
}

impl StreamWriter {
    /// Starts a checkpoint stream with its header.
    pub fn new(seq: u64, kind: CheckpointKind, roots: &[StableId]) -> StreamWriter {
        StreamWriter::with_buffer(Vec::with_capacity(64), seq, kind, roots)
    }

    /// Starts a checkpoint stream reusing an existing allocation, e.g. a
    /// buffer recycled through a [`BufferPool`](crate::BufferPool). The
    /// buffer is cleared (capacity retained) and then written exactly like
    /// [`StreamWriter::new`], so the resulting stream is byte-identical to
    /// a freshly allocated one.
    pub fn with_buffer(
        mut buf: Vec<u8>,
        seq: u64,
        kind: CheckpointKind,
        roots: &[StableId],
    ) -> StreamWriter {
        buf.clear();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_be_bytes());
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.push(kind.to_byte());
        buf.extend_from_slice(&(roots.len() as u32).to_be_bytes());
        for r in roots {
            buf.extend_from_slice(&r.raw().to_be_bytes());
        }
        StreamWriter { buf, records: 0, finished: false }
    }

    /// Opens an object record: stable id, class, declared field count.
    /// The caller then writes exactly the fields of the class layout.
    pub fn begin_object(&mut self, stable: StableId, class: ClassId, nfields: usize) {
        debug_assert!(!self.finished, "write after finish");
        self.buf.push(TAG_OBJECT);
        self.buf.extend_from_slice(&stable.raw().to_be_bytes());
        self.buf.extend_from_slice(&(class.index() as u32).to_be_bytes());
        self.buf.extend_from_slice(&(nfields as u16).to_be_bytes());
        self.records += 1;
    }

    /// Writes a 32-bit integer field.
    #[inline]
    pub fn write_int(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a 64-bit integer field.
    #[inline]
    pub fn write_long(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Writes a double field (bit pattern).
    #[inline]
    pub fn write_double(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_be_bytes());
    }

    /// Writes a boolean field.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a reference field as the referent's stable id (`None` = null).
    #[inline]
    pub fn write_ref(&mut self, v: Option<StableId>) {
        let raw = v.map_or(0, StableId::raw);
        self.buf.extend_from_slice(&raw.to_be_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if only the header has been written and it was empty-rooted.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of object records opened so far.
    pub fn record_count(&self) -> u32 {
        self.records
    }

    /// Closes the stream with its footer and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.push(TAG_END);
        self.buf.extend_from_slice(&self.records.to_be_bytes());
        self.finished = true;
        self.buf
    }

    /// Starts a *shard body*: a headerless record sequence produced by one
    /// worker of the parallel checkpointer. The records are byte-compatible
    /// with the main stream, so a merging writer can splice them in with
    /// [`StreamWriter::append_shard`] and the result is indistinguishable
    /// from a sequentially written stream.
    ///
    /// A shard writer must be closed with [`StreamWriter::finish_shard`]
    /// (never [`StreamWriter::finish`] — a bare body has no header for the
    /// footer to terminate).
    ///
    /// # Example
    ///
    /// ```
    /// use ickp_core::{decode, CheckpointKind, StreamWriter};
    /// use ickp_heap::{ClassRegistry, FieldType, StableId};
    ///
    /// let mut reg = ClassRegistry::new();
    /// let leaf = reg.define("Leaf", None, &[("v", FieldType::Int)]).unwrap();
    ///
    /// let mut shard = StreamWriter::new_shard();
    /// shard.begin_object(StableId(1), leaf, 1);
    /// shard.write_int(7);
    /// let (body, records) = shard.finish_shard();
    ///
    /// let mut merged = StreamWriter::new(0, CheckpointKind::Full, &[]);
    /// merged.append_shard(&body, records);
    /// let decoded = decode(&merged.finish(), &reg).unwrap();
    /// assert_eq!(decoded.objects.len(), 1);
    /// ```
    pub fn new_shard() -> StreamWriter {
        StreamWriter { buf: Vec::with_capacity(64), records: 0, finished: false }
    }

    /// Closes a shard body, returning its raw record bytes and record
    /// count. No footer is appended; the merging stream accounts for the
    /// records via [`StreamWriter::append_shard`].
    pub fn finish_shard(mut self) -> (Vec<u8>, u32) {
        self.finished = true;
        (self.buf, self.records)
    }

    /// Splices `body`, a run of `records` whole object records, into this
    /// stream as if they had been written here directly: a finished shard
    /// body with the count [`StreamWriter::finish_shard`] returned for it,
    /// or object records sliced out of another stream. `records` flows
    /// into this stream's footer.
    pub fn append_shard(&mut self, body: &[u8], records: u32) {
        debug_assert!(!self.finished, "write after finish");
        self.buf.extend_from_slice(body);
        self.records += records;
    }
}

/// A field value as recorded in a checkpoint: like
/// [`ickp_heap::Value`] but with references abstracted to stable ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordedValue {
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// Double.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Reference by stable id (`None` = null).
    Ref(Option<StableId>),
}

/// One decoded object record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedObject {
    /// Stable identity of the recorded object.
    pub stable: StableId,
    /// Class (valid for the registry used to decode).
    pub class: ClassId,
    /// Field values in layout order.
    pub fields: Vec<RecordedValue>,
}

/// A fully decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCheckpoint {
    /// Sequence number within the run.
    pub seq: u64,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Stable ids of the checkpoint roots.
    pub roots: Vec<StableId>,
    /// Recorded objects, in record order.
    pub objects: Vec<RecordedObject>,
}

/// Scans an encoded checkpoint stream and returns the byte range of each
/// object record (tag byte through its last field), in stream order,
/// without materializing any field values.
///
/// This is what content-hash deduplication in `ickp-durable` chunks on:
/// the header (which embeds the sequence number and so never repeats)
/// and the footer stay literal, while each object record — whose bytes
/// are a pure function of the object's identity, class, and field
/// values — is a dedup candidate that recurs byte-identically whenever
/// the same object state is recorded again. The ranges tile the stream
/// exactly: header, then the object ranges back-to-back, then the
/// footer.
///
/// The scan accepts exactly the streams [`decode`] accepts and fails on
/// the others with the same error.
///
/// # Errors
///
/// As [`decode`].
pub fn object_slices(
    bytes: &[u8],
    registry: &ClassRegistry,
) -> Result<Vec<Range<usize>>, CoreError> {
    struct Slices(Vec<Range<usize>>);
    impl Visit for Slices {
        fn end_object(&mut self, _: StableId, _: ClassId, range: Range<usize>) {
            self.0.push(range);
        }
    }
    let mut slices = Slices(Vec::new());
    walk(bytes, registry, &mut slices)?;
    Ok(slices.0)
}

/// Decodes one checkpoint stream against the class registry it was
/// produced with.
///
/// # Errors
///
/// Returns [`CoreError::Decode`] for malformed bytes,
/// [`CoreError::UnknownClassIndex`] for class ids outside the registry, and
/// [`CoreError::FieldCountMismatch`] if a record disagrees with its class
/// layout.
pub fn decode(bytes: &[u8], registry: &ClassRegistry) -> Result<DecodedCheckpoint, CoreError> {
    #[derive(Default)]
    struct Decoder {
        fields: Vec<RecordedValue>,
        objects: Vec<RecordedObject>,
    }
    impl Visit for Decoder {
        fn begin_object(&mut self, nfields: usize) {
            self.fields = Vec::with_capacity(nfields);
        }
        fn field(&mut self, ty: FieldType, bytes: &[u8]) {
            self.fields.extend(read_field(ty, bytes).map(|(value, _)| value));
        }
        fn end_object(&mut self, stable: StableId, class: ClassId, _: Range<usize>) {
            let fields = std::mem::take(&mut self.fields);
            self.objects.push(RecordedObject { stable, class, fields });
        }
    }
    let mut decoder = Decoder::default();
    let header = walk(bytes, registry, &mut decoder)?;
    Ok(DecodedCheckpoint {
        seq: header.seq,
        kind: header.kind,
        roots: header.roots,
        objects: decoder.objects,
    })
}

/// The stable id and class in the header of an object record that [`walk`]
/// validated and reported as a range, or `None` if `object` is shorter
/// than a record header.
pub(crate) fn object_identity(object: &[u8]) -> Option<(StableId, ClassId)> {
    let mut c = Cursor { bytes: object, pos: 1 };
    let stable = StableId(c.u64().ok()?);
    Some((stable, ClassId::from_index(c.u32().ok()? as usize)))
}

/// The fields of a validated object record, decoded in the order of
/// `layout`, its class's layout. The values stop early only where the
/// bytes do not hold the layout, which a record [`walk`] validated
/// against that layout always does.
pub(crate) fn object_fields<'a>(
    object: &'a [u8],
    layout: &'a [FieldDef],
) -> impl Iterator<Item = RecordedValue> + 'a {
    let mut rest = object.get(RECORD_HEADER_BYTES..).unwrap_or_default();
    layout.iter().map_while(move |f| {
        let (value, after) = read_field(f.ty(), rest)?;
        rest = after;
        Some(value)
    })
}

/// The value of a field of type `ty` encoded at the start of `bytes`,
/// and the bytes after it; `None` if `bytes` is too short or holds a
/// boolean byte other than 0 or 1.
fn read_field(ty: FieldType, bytes: &[u8]) -> Option<(RecordedValue, &[u8])> {
    fn split<const N: usize>(bytes: &[u8]) -> Option<([u8; N], &[u8])> {
        bytes.split_first_chunk().map(|(&head, rest)| (head, rest))
    }
    Some(match ty {
        FieldType::Int => {
            split(bytes).map(|(b, rest)| (RecordedValue::Int(i32::from_be_bytes(b)), rest))?
        }
        FieldType::Long => {
            split(bytes).map(|(b, rest)| (RecordedValue::Long(i64::from_be_bytes(b)), rest))?
        }
        FieldType::Double => split(bytes).map(|(b, rest)| {
            (RecordedValue::Double(f64::from_bits(u64::from_be_bytes(b))), rest)
        })?,
        FieldType::Bool => match bytes.split_first()? {
            (0, rest) => (RecordedValue::Bool(false), rest),
            (1, rest) => (RecordedValue::Bool(true), rest),
            _ => return None,
        },
        FieldType::Ref(_) => split(bytes).map(|(b, rest)| {
            let raw = u64::from_be_bytes(b);
            (RecordedValue::Ref((raw != 0).then_some(StableId(raw))), rest)
        })?,
    })
}

/// The number of object records the footer of `bytes` declares, capped
/// by how many record headers fit in `bytes`, so a corrupt footer never
/// sizes a buffer beyond the stream's length.
pub(crate) fn declared_objects(bytes: &[u8]) -> usize {
    let declared = bytes.last_chunk().map_or(0, |&n| u32::from_be_bytes(n) as usize);
    declared.min(bytes.len() / RECORD_HEADER_BYTES)
}

/// What [`walk`] reports while it scans, in stream order: each object
/// record opens, yields its fields, and closes.
pub(crate) trait Visit {
    /// A record with `nfields` fields starts.
    fn begin_object(&mut self, _nfields: usize) {}
    /// The next field of the open record: its type and its validated
    /// encoded bytes.
    fn field(&mut self, _ty: FieldType, _bytes: &[u8]) {}
    /// The open record is complete; `range` is its span in the stream.
    fn end_object(&mut self, stable: StableId, class: ClassId, range: Range<usize>);
}

/// The stream header, as [`walk`] read it.
pub(crate) struct Header {
    pub(crate) seq: u64,
    pub(crate) kind: CheckpointKind,
    pub(crate) roots: Vec<StableId>,
}

/// The one reader of the stream format: checks every byte of `bytes`
/// against the format and the registry's class layouts and reports what
/// it passes to `visit`. [`object_slices`], [`decode`],
/// [`CheckpointRecord::validate`](crate::CheckpointRecord::validate) and
/// [`fold_records`](crate::fold_records) are its views, which is why they
/// accept and reject exactly the same streams.
pub(crate) fn walk(
    bytes: &[u8],
    registry: &ClassRegistry,
    visit: &mut impl Visit,
) -> Result<Header, CoreError> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.array()? != MAGIC {
        return Err(CoreError::Decode { offset: 0, what: "bad magic".into() });
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(CoreError::Decode {
            offset: 4,
            what: format!("unsupported version {version}"),
        });
    }
    let seq = c.u64()?;
    let kind_off = c.pos;
    let kind = CheckpointKind::from_byte(c.u8()?, kind_off)?;
    let nroots = c.u32()? as usize;
    let mut roots = Vec::with_capacity(nroots.min(1024));
    for _ in 0..nroots {
        roots.push(StableId(c.u64()?));
    }
    let mut records = 0usize;
    loop {
        let tag_off = c.pos;
        match c.u8()? {
            TAG_OBJECT => {
                let stable = StableId(c.u64()?);
                let class_index = c.u32()?;
                let class = ClassId::from_index(class_index as usize);
                let def =
                    registry.class(class).map_err(|_| CoreError::UnknownClassIndex(class_index))?;
                let nfields = c.u16()? as usize;
                if nfields != def.num_slots() {
                    return Err(CoreError::FieldCountMismatch {
                        class: def.name().to_string(),
                        recorded: nfields,
                        expected: def.num_slots(),
                    });
                }
                visit.begin_object(nfields);
                for f in def.layout() {
                    let ty = f.ty();
                    let field_off = c.pos;
                    let field = c.take(ty.encoded_size())?;
                    match field.first() {
                        Some(&b) if ty == FieldType::Bool && b > 1 => {
                            return Err(CoreError::Decode {
                                offset: field_off,
                                what: format!("invalid boolean byte {b}"),
                            });
                        }
                        _ => visit.field(ty, field),
                    }
                }
                visit.end_object(stable, class, tag_off..c.pos);
                records += 1;
            }
            TAG_END => {
                let declared = c.u32()? as usize;
                if declared != records {
                    return Err(CoreError::Decode {
                        offset: tag_off,
                        what: format!("footer declares {declared} records, stream has {records}"),
                    });
                }
                if c.pos != bytes.len() {
                    return Err(CoreError::Decode {
                        offset: c.pos,
                        what: "trailing bytes after footer".into(),
                    });
                }
                return Ok(Header { seq, kind, roots });
            }
            other => {
                return Err(CoreError::Decode {
                    offset: tag_off,
                    what: format!("invalid record tag {other:#x}"),
                })
            }
        }
    }
}

/// A read position in a stream. Every read checks the bounds and fails
/// with a [`CoreError::Decode`] at the position it was made.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.end(n))?;
        let taken = self.bytes.get(self.pos..end).ok_or_else(|| self.end(n))?;
        self.pos = end;
        Ok(taken)
    }

    /// The error for a read of `n` bytes that runs past the stream.
    fn end(&self, n: usize) -> CoreError {
        let what = format!("unexpected end of stream (wanted {n} bytes)");
        CoreError::Decode { offset: self.pos, what }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CoreError> {
        let (&array, _) = self.take(N)?.split_first_chunk().ok_or_else(|| self.end(N))?;
        Ok(array)
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        self.array().map(|[b]| b)
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        self.array().map(u64::from_be_bytes)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use ickp_heap::ClassRegistry;

    fn registry() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let node = reg
            .define(
                "Node",
                None,
                &[
                    ("v", FieldType::Int),
                    ("w", FieldType::Long),
                    ("x", FieldType::Double),
                    ("b", FieldType::Bool),
                    ("next", FieldType::Ref(None)),
                ],
            )
            .unwrap();
        (reg, node)
    }

    /// Runs `bytes` through the views of the stream walker, asserting
    /// that the scans accept exactly what `decode` accepts (with equal
    /// header fields and record count) and fail with the same error.
    fn decode_and_scan(bytes: &[u8], reg: &ClassRegistry) -> Result<DecodedCheckpoint, CoreError> {
        let decoded = decode(bytes, reg);
        let validated = crate::CheckpointRecord::validate(bytes.to_vec(), reg);
        match (&decoded, object_slices(bytes, reg), validated) {
            (Ok(d), Ok(slices), Ok(record)) => {
                assert_eq!(
                    (record.seq(), record.kind(), record.roots()),
                    (d.seq, d.kind, &*d.roots)
                );
                assert_eq!(record.object_ranges(), Some(slices.clone()));
                assert_eq!(slices.len(), d.objects.len());
            }
            (Err(want), Err(sliced), Err(validated)) => {
                assert_eq!(&sliced, want);
                assert_eq!(&validated, want);
            }
            (_, sliced, validated) => {
                panic!("decode gave {decoded:?}, the scans {sliced:?} and {validated:?}")
            }
        }
        decoded
    }

    fn sample_stream(node: ClassId) -> Vec<u8> {
        let mut w = StreamWriter::new(3, CheckpointKind::Incremental, &[StableId(1)]);
        w.begin_object(StableId(1), node, 5);
        w.write_int(-7);
        w.write_long(1 << 40);
        w.write_double(2.5);
        w.write_bool(true);
        w.write_ref(Some(StableId(2)));
        w.begin_object(StableId(2), node, 5);
        w.write_int(0);
        w.write_long(0);
        w.write_double(f64::NAN);
        w.write_bool(false);
        w.write_ref(None);
        w.finish()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        let d = decode_and_scan(&bytes, &reg).unwrap();
        assert_eq!(d.seq, 3);
        assert_eq!(d.kind, CheckpointKind::Incremental);
        assert_eq!(d.roots, vec![StableId(1)]);
        assert_eq!(d.objects.len(), 2);
        let first = &d.objects[0];
        assert_eq!(first.stable, StableId(1));
        assert_eq!(first.class, node);
        assert_eq!(first.fields[0], RecordedValue::Int(-7));
        assert_eq!(first.fields[1], RecordedValue::Long(1 << 40));
        assert_eq!(first.fields[2], RecordedValue::Double(2.5));
        assert_eq!(first.fields[3], RecordedValue::Bool(true));
        assert_eq!(first.fields[4], RecordedValue::Ref(Some(StableId(2))));
        match d.objects[1].fields[2] {
            RecordedValue::Double(x) => assert!(x.is_nan()),
            ref other => panic!("expected double, got {other:?}"),
        }
        assert_eq!(d.objects[1].fields[4], RecordedValue::Ref(None));
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let bytes = w.finish();
        let d = decode_and_scan(&bytes, &reg).unwrap();
        assert_eq!(d.kind, CheckpointKind::Full);
        assert!(d.roots.is_empty());
        assert!(d.objects.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        bytes[0] = b'X';
        let err = decode_and_scan(&bytes, &reg).unwrap_err();
        assert!(matches!(err, CoreError::Decode { offset: 0, .. }));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        for cut in 0..bytes.len() {
            assert!(decode_and_scan(&bytes[..cut], &reg).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_class_index_is_rejected() {
        let (reg, _) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), ClassId::from_index(42), 0);
        let bytes = w.finish();
        assert_eq!(decode_and_scan(&bytes, &reg).unwrap_err(), CoreError::UnknownClassIndex(42));
    }

    #[test]
    fn field_count_mismatch_is_rejected() {
        let (reg, node) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), node, 2); // layout has 5
        w.write_int(0);
        w.write_long(0);
        let bytes = w.finish();
        assert!(matches!(
            decode_and_scan(&bytes, &reg).unwrap_err(),
            CoreError::FieldCountMismatch { .. }
        ));
    }

    #[test]
    fn footer_count_mismatch_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        let n = bytes.len();
        bytes[n - 1] = 9; // corrupt declared record count
        assert!(decode_and_scan(&bytes, &reg).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (reg, node) = registry();
        let mut bytes = sample_stream(node);
        bytes.push(0);
        assert!(decode_and_scan(&bytes, &reg).is_err());
    }

    #[test]
    fn invalid_bool_byte_is_rejected() {
        let mut reg = ClassRegistry::new();
        let c = reg.define("B", None, &[("b", FieldType::Bool)]).unwrap();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        w.begin_object(StableId(1), c, 1);
        w.buf.push(7); // invalid boolean encoding
        let bytes = w.finish();
        let err = decode_and_scan(&bytes, &reg).unwrap_err();
        assert_eq!(err, CoreError::Decode { offset: 34, what: "invalid boolean byte 7".into() });
    }

    #[test]
    fn writer_tracks_length_and_record_count() {
        let (_, node) = registry();
        let mut w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let header = w.len();
        assert!(header > 0);
        assert!(!w.is_empty());
        w.begin_object(StableId(1), node, 0);
        assert_eq!(w.record_count(), 1);
        assert!(w.len() > header);
    }

    #[test]
    fn shard_merge_is_byte_identical_to_sequential_writing() {
        let (reg, node) = registry();

        // Sequential reference: both objects written into one stream.
        let sequential = sample_stream(node);

        // Sharded: the same two records written by two independent shard
        // writers, spliced in shard order.
        let mut shard0 = StreamWriter::new_shard();
        shard0.begin_object(StableId(1), node, 5);
        shard0.write_int(-7);
        shard0.write_long(1 << 40);
        shard0.write_double(2.5);
        shard0.write_bool(true);
        shard0.write_ref(Some(StableId(2)));
        let mut shard1 = StreamWriter::new_shard();
        shard1.begin_object(StableId(2), node, 5);
        shard1.write_int(0);
        shard1.write_long(0);
        shard1.write_double(f64::NAN);
        shard1.write_bool(false);
        shard1.write_ref(None);

        let mut merged = StreamWriter::new(3, CheckpointKind::Incremental, &[StableId(1)]);
        for shard in [shard0, shard1] {
            let (body, records) = shard.finish_shard();
            merged.append_shard(&body, records);
        }
        assert_eq!(merged.record_count(), 2);
        assert_eq!(merged.finish(), sequential);
        let _ = reg;
    }

    #[test]
    fn empty_shards_merge_to_an_empty_stream() {
        let (reg, _) = registry();
        let mut merged = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let (body, records) = StreamWriter::new_shard().finish_shard();
        assert!(body.is_empty());
        assert_eq!(records, 0);
        merged.append_shard(&body, records);
        let d = decode(&merged.finish(), &reg).unwrap();
        assert!(d.objects.is_empty());
    }

    #[test]
    fn object_slices_tile_the_stream_exactly() {
        let (reg, node) = registry();
        let bytes = sample_stream(node);
        let slices = object_slices(&bytes, &reg).unwrap();
        assert_eq!(slices.len(), 2);
        // Header (magic, version, seq, kind, one root), objects, footer
        // tile the stream back-to-back.
        assert_eq!(slices[0].start, 4 + 2 + 8 + 1 + 4 + 8);
        assert_eq!(slices[1].start, slices[0].end);
        assert_eq!(slices[1].end, bytes.len() - 5); // footer = tag + u32
                                                    // Each slice decodes as the bytes of exactly that object: slicing
                                                    // the same object's state out of a re-recorded stream is
                                                    // byte-identical (the dedup premise).
        let again = object_slices(&sample_stream(node), &reg).unwrap();
        for (a, b) in slices.iter().zip(&again) {
            assert_eq!(&bytes[a.clone()], &sample_stream(node)[b.clone()]);
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let mut bytes = w.finish();
        bytes[5] = 99; // version low byte
        assert!(decode_and_scan(&bytes, &reg).is_err());
    }

    #[test]
    fn invalid_kind_byte_is_rejected() {
        let (reg, _) = registry();
        let w = StreamWriter::new(0, CheckpointKind::Full, &[]);
        let mut bytes = w.finish();
        bytes[14] = 9; // kind byte (4 magic + 2 version + 8 seq)
        assert!(decode_and_scan(&bytes, &reg).is_err());
    }
}
