//! A block read where it lies.
//!
//! A reader has no use for a built block: a restart applies each attribute
//! to its pane once, a Rocpanda server ships the block on, Rocketeer
//! reduces it. So a block's records are read as a [`BlockView`]: each
//! record's header and payload are windows of the bytes they arrived in (a
//! file image, a message's parts), checked by the one header walk, and the
//! view describes the block ([`BlockDesc`]) straight from them — names,
//! shapes and attribute tables read where they lie, vectors as their
//! little-endian bytes (`Attr::IntVecLe`), payloads by refcount. A view is
//! one allocation, its record table; [`BlockView::to_block`] builds the
//! [`DataBlock`] it describes, for the callers that hold one.
//!
//! Assembly ([`BlockView::assemble`]) is the one in the tree — behind every
//! file read, the two-phase redistribution and the Rocpanda wire — and
//! accepts what a decode into a `DataBlock` accepts: any record the walk
//! passes, attribute keys in any order (read as a map holds them: sorted,
//! the last of a repeated key kept), then this block's `__meta__` first and
//! its members under the group prefix, each name once. Anything else is
//! [`RocError::Corrupt`] — [`RocError::AlreadyExists`] for a repeated
//! member, [`RocError::Mismatch`] for a `block_id` or `window` of the wrong
//! type.

use std::borrow::Cow;

use bytes::Bytes;
use rocio_core::{
    Attr, AttrView, Attrs, BlockDesc, BlockId, Cursor, DType, DataBlock, Dataset, DatasetDesc,
    Result, RocError, SharedArray,
};

use crate::format::{
    check_crc, corrupt_block, extents_of, stored_crc, walk_record_header, Prefix, BLOCK_META,
    CRC_ATTR, MIN_RECORD, RECORD,
};

/// One record read where it lies: its header and its payload, as windows
/// of the bytes they arrived in.
#[derive(Debug, Clone)]
pub struct RecordView {
    /// Marker through `data_len`, as [`walk_record_header`] checked it: a
    /// window of the part it lies in (gathered only when the input cut it).
    head: Bytes,
    payload: Bytes,
    dtype: DType,
    /// The attribute keys ascend strictly, as every encoder writes them, so
    /// the table reads as it lies; otherwise it is read as a map built
    /// entry by entry holds it.
    ascending: bool,
}

impl RecordView {
    /// Read the record at the cursor, advancing it past the record: every
    /// check [`crate::decode_dataset`] makes, in its order — the header
    /// walk, a payload the input holds, a `__crc32__` that is a CRC-32 and,
    /// with `verify_crc`, matches the payload (see
    /// [`crate::decode_dataset`] for when a caller may pass `false`).
    pub fn read(cur: &mut Cursor<'_>, verify_crc: bool) -> Result<RecordView> {
        let mut at_head = cur.clone();
        let start = cur.pos();
        let mut table = TableFacts { last: [0; 32], last_len: None, ascending: true, crc: None };
        let dims = walk_record_header(cur, |key, value| table.attr(key, value))?;
        let head = at_head.take(cur.pos() - start, RECORD)?;
        let payload = cur.take(dims.data_len, RECORD)?;
        let rec = RecordView { head, payload, dtype: dims.dtype, ascending: table.ascending };
        if let Some(crc) = table.crc {
            let stored = stored_crc(rec.name(), crc, &CrcEntry(&rec))?;
            if verify_crc {
                check_crc(rec.name(), stored, &rec.payload)?;
            }
        }
        Ok(rec)
    }

    fn name_len(&self) -> usize {
        usize::from(u16::from_le_bytes([self.head[4], self.head[5]]))
    }

    /// The record's full name.
    pub(crate) fn name(&self) -> &str {
        // The walk refused anything but UTF-8.
        std::str::from_utf8(&self.head[6..6 + self.name_len()]).unwrap_or_default()
    }

    /// The shape as it lies: a little-endian `u64` per dimension.
    fn extents(&self) -> &[u8] {
        let at = 6 + self.name_len() + 2;
        &self.head[at..at + 8 * usize::from(self.head[at - 1])]
    }

    /// The attribute entries, in the order they lie.
    fn entries(&self) -> impl Iterator<Item = (&str, Attr<'_>)> {
        let at = 6 + self.name_len() + 2 + self.extents().len();
        let n = u16::from_le_bytes([self.head[at], self.head[at + 1]]);
        let mut cur = Cursor::from(&self.head[at + 2..self.head.len() - 8]);
        (0..n).map_while(move |_| {
            // Borrowed: the cursor is over one slice.
            let Cow::Borrowed(key) = cur.str16_ref(RECORD).ok()? else {
                return None;
            };
            Some((key, AttrView::read(&mut cur).ok()?.into_attr()?))
        })
    }

    /// The value of attribute `key`, the last one if it repeats.
    fn value(&self, key: &str) -> Option<Attr<'_>> {
        self.entries().filter(|(k, _)| *k == key).last().map(|(_, v)| v)
    }

    /// The dataset the record decodes to, named `name`.
    pub(crate) fn to_dataset(&self, name: &str) -> Result<Dataset> {
        let n_elems = self.payload.len() / self.dtype.size();
        let data = SharedArray::new(self.dtype, n_elems, self.payload.clone())?;
        let mut ds = Dataset::new(name, extents_of(self.extents()).collect(), data)?;
        for (key, value) in self.entries().filter(|(k, _)| *k != CRC_ATTR) {
            ds.attrs.insert(key.to_owned(), value.to_value());
        }
        Ok(ds)
    }
}

/// What the walk of a record's header tells its read of the attribute
/// table, kept on the stack: whether the keys ascend, and the
/// `__crc32__`, as an `Int` if it is one (the last, should it repeat).
struct TableFacts {
    /// The last key walked, while it fits here; after a longer one the
    /// table is read as a map holds it, which is right whatever the order.
    last: [u8; 32],
    last_len: Option<usize>,
    ascending: bool,
    crc: Option<Option<i64>>,
}

impl TableFacts {
    fn attr(&mut self, key: &str, value: &AttrView<'_>) {
        if let Some(n) = self.last_len {
            self.ascending &= self.last.get(..n).is_some_and(|last| last < key.as_bytes());
        }
        self.last_len = Some(match self.last.get_mut(..key.len()) {
            Some(slot) => {
                slot.copy_from_slice(key.as_bytes());
                key.len()
            }
            None => usize::MAX,
        });
        if key == CRC_ATTR {
            self.crc = Some(value.as_int());
        }
    }
}

/// A record's `__crc32__` value, looked up only when an error prints it.
struct CrcEntry<'r>(&'r RecordView);

impl std::fmt::Debug for CrcEntry<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.value(CRC_ATTR) {
            Some(value) => value.fmt(f),
            None => Ok(()),
        }
    }
}

/// A block read where it lies: its records, `__meta__` first, each a
/// [`RecordView`]. See the module docs.
#[derive(Debug, Clone)]
pub struct BlockView {
    id: BlockId,
    records: Vec<RecordView>,
    /// Length of the group prefix its members' names carry.
    prefix_len: usize,
}

impl BlockView {
    /// Assemble a block from its records, `__meta__` first, member names
    /// still carrying the block's group prefix — the one assembly step.
    /// `expected` is the id the caller asked for (`None` on the wire, where
    /// the meta record itself names the block); `capacity` sizes the record
    /// table. Records are taken one at a time, so the first failure, in
    /// record order, is the one reported.
    pub fn assemble(
        expected: Option<BlockId>,
        capacity: usize,
        records: impl IntoIterator<Item = Result<RecordView>>,
    ) -> Result<BlockView> {
        let mut records = records.into_iter();
        let meta = records.next().ok_or_else(|| corrupt_block("no records".into()))??;
        let mismatch = |want: &str, v: Attr<'_>| {
            RocError::Mismatch(format!("expected {want} attr, got {:?}", v.to_value()))
        };
        let id = match meta.value("block_id") {
            None => return Err(RocError::Corrupt("block meta missing id".into())),
            Some(v) => BlockId(v.as_int().ok_or_else(|| mismatch("Int", v))? as u64),
        };
        match meta.value("window") {
            None => return Err(RocError::Corrupt("block meta missing window".into())),
            Some(v) if v.as_str().is_none() => return Err(mismatch("Str", v)),
            Some(_) => {}
        }
        if let Some(want) = expected.filter(|&want| want != id) {
            return Err(corrupt_block(format!("meta id {id} != requested {want}")));
        }
        let prefix = Prefix::new(id);
        let prefix = prefix.as_str();
        if meta.name().strip_prefix(prefix) != Some(BLOCK_META) {
            let got = meta.name();
            return Err(corrupt_block(format!("expected block {id} meta first, got '{got}'")));
        }
        let mut table = Vec::with_capacity(capacity.max(1));
        table.push(meta);
        for rec in records {
            let rec = rec?;
            let Some(member) = rec.name().strip_prefix(prefix) else {
                return Err(corrupt_block(format!("dataset '{}' outside block {id}", rec.name())));
            };
            if table[1..].iter().any(|seen| seen.name() == rec.name()) {
                return Err(RocError::AlreadyExists(format!("dataset '{member}' in block {id}")));
            }
            table.push(rec);
        }
        Ok(BlockView { id, records: table, prefix_len: prefix.len() })
    }

    /// The block whose `n_records` records lie back to back at the cursor —
    /// a Rocpanda `BLOCK` or `READ_BATCH` entry — each verified, the cursor
    /// left past the last. A count the bytes cannot hold sizes nothing.
    pub fn decode(cur: &mut Cursor<'_>, n_records: usize) -> Result<BlockView> {
        let capacity = n_records.min(cur.remaining() / MIN_RECORD);
        BlockView::assemble(None, capacity, (0..n_records).map(|_| RecordView::read(cur, true)))
    }

    /// The [`DataBlock`] the view describes.
    pub fn to_block(&self) -> Result<DataBlock> {
        let mut block = DataBlock::new(self.id, self.window());
        for (key, value) in self.records[0].entries() {
            if let Some(key) = key.strip_prefix("blk:") {
                block.attrs.insert(key.to_owned(), value.to_value());
            }
        }
        for rec in &self.records[1..] {
            block.datasets.push(rec.to_dataset(&rec.name()[self.prefix_len..])?);
        }
        Ok(block)
    }
}

impl BlockDesc for BlockView {
    fn id(&self) -> BlockId {
        self.id
    }

    fn window(&self) -> &str {
        // `assemble` found a `Str`.
        self.records[0].value("window").and_then(|v| v.as_str()).unwrap_or_default()
    }

    fn with_attrs<R>(&self, f: impl FnOnce(Attrs<'_>) -> R) -> R {
        let meta = &self.records[0];
        let block_attrs = meta.entries().filter_map(|(k, v)| Some((k.strip_prefix("blk:")?, v)));
        with_table(block_attrs, meta.ascending, f)
    }

    fn n_datasets(&self) -> usize {
        self.records.len() - 1
    }

    fn for_each_dataset(&self, mut f: impl FnMut(&DatasetDesc<'_>)) {
        let mut shape = [0usize; u8::MAX as usize];
        for rec in &self.records[1..] {
            let rank = rec.extents().len() / 8;
            for (dim, extent) in shape.iter_mut().zip(extents_of(rec.extents())) {
                *dim = extent;
            }
            let attrs = rec.entries().filter(|(k, _)| *k != CRC_ATTR);
            with_table(attrs, rec.ascending, |attrs| {
                f(&DatasetDesc {
                    name: &rec.name()[self.prefix_len..],
                    dtype: rec.dtype,
                    shape: &shape[..rank],
                    attrs,
                    payload: &rec.payload,
                })
            });
        }
    }
}

/// Entries a table holds inline before they spill into a `Vec`: more than
/// any block or dataset a writer of this workspace lays out.
const INLINE_ATTRS: usize = 16;

/// Hand `entries` to `f` as the sorted table a description hands over,
/// from the stack. Entries that do not ascend are read as a map built entry
/// by entry holds them: sorted by key, the last of a repeated key kept.
fn with_table<'t, R>(
    entries: impl Iterator<Item = (&'t str, Attr<'t>)>,
    ascending: bool,
    f: impl FnOnce(Attrs<'_>) -> R,
) -> R {
    let mut inline = [("", Attr::Int(0)); INLINE_ATTRS];
    let (mut spilled, mut len) = (Vec::new(), 0);
    for entry in entries {
        match inline.get_mut(len) {
            Some(slot) => *slot = entry,
            None if spilled.is_empty() => spilled.extend(inline.iter().copied().chain([entry])),
            None => spilled.push(entry),
        }
        len += 1;
    }
    let table = if spilled.is_empty() { &mut inline[..len] } else { &mut spilled[..] };
    if ascending {
        return f(Attrs::Sorted(table));
    }
    // Stable: a repeated key's entries keep their order.
    table.sort_by(|a, b| a.0.cmp(b.0));
    let mut kept = 0;
    for i in 0..table.len() {
        if kept > 0 && table[kept - 1].0 == table[i].0 {
            table[kept - 1] = table[i];
        } else {
            table[kept] = table[i];
            kept += 1;
        }
    }
    f(Attrs::Sorted(&table[..kept]))
}
