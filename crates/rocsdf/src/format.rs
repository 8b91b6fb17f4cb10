//! Binary layout of SDF files.
//!
//! ```text
//! file   := header dataset* index trailer
//! header := "RSDF" version:u16 flags:u16
//! dataset:= "DS00" name_len:u16 name dtype:u8 rank:u8 extent:u64{rank}
//!           n_attrs:u16 (key_len:u16 key attr_value)* data_len:u64 data
//! index  := "IDX0" n:u64 (name_len:u16 name offset:u64 len:u64){n}
//! trailer:= index_offset:u64 "RSDF"
//! ```
//!
//! All integers little-endian. A file is self-describing: decoding needs no
//! external schema. The index enables direct per-dataset access; records
//! are self-delimiting, so a file can also be walked front to back with
//! [`decode_dataset`] alone. One function lays out a record header, one
//! lays a block out as its records ([`encode_block`]), one walks a record
//! header, and a payload is the same little-endian bytes whoever produced
//! it.
//!
//! ## Encoding and decoding
//!
//! A block is laid out once: [`encode_block`] writes its records into one
//! staging buffer with the payloads between them, read from a description
//! of the block (a pane where it lies, a block read where it lies, or a
//! [`DataBlock`](rocio_core::DataBlock)), and every producer starts there.
//! A Rocpanda message puts its routing header in front and leaves the
//! checksums out; a file writer ([`crate::SdfFileWriter::append_block`])
//! has the same pass write each record's `__crc32__` in (see below). The
//! header walk is the one parser of the layout: a record is read where it
//! lies ([`crate::view::RecordView`]; a block of them is a
//! [`crate::view::BlockView`], and [`decode_dataset`] is one record's
//! view, built). So a block travels one way whoever moves it: read as a
//! view, laid out again by the one encoder.
//!
//! ## The payload checksum
//!
//! A file record carries the CRC-32 of its payload as the reserved
//! `__crc32__` Int attribute; [`decode_dataset`] recomputes, compares and
//! strips it, and treats an attribute of that name that is not a CRC-32
//! as corruption. The value is on disk in every snapshot ever written, so
//! it is part of the format: [`crc32`] is free to change *how* it
//! computes (today three interleaved slice-by-8 chains per 768-byte
//! group, recombined through two zero-advance tables, ≈ 3.8 GB/s against
//! 1.5 GB/s for one chain) but never *what* — the polynomial, the
//! initial value and the final inversion are ISO-HDLC's, and the tests
//! hold the kernel to the bit-serial definition at every length around
//! its group boundaries. (`rocio_core::Checksum`, which is compared only
//! within one process, has no such constraint.)

use std::ops::Range;

use bytes::Bytes;
use rocio_core::{
    Attr, AttrView, Attrs, BlockDesc, BlockId, Cursor, DType, Dataset, DatasetDesc, Result,
    RocError, Rope, Segment,
};

use crate::view::RecordView;

/// File magic, also used as the trailer sentinel.
pub const MAGIC: &[u8; 4] = b"RSDF";
/// Dataset record marker.
pub const DS_MARKER: &[u8; 4] = b"DS00";
/// Index marker.
pub const IDX_MARKER: &[u8; 4] = b"IDX0";
/// Current format version.
pub const VERSION: u16 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 8;
/// Size of the fixed trailer in bytes.
pub const TRAILER_LEN: usize = 12;

/// Name of the per-block metadata dataset within a block's group.
pub const BLOCK_META: &str = "__meta__";

/// Reserved attribute carrying the CRC-32 of a dataset's payload.
/// Written by [`crate::writer::SdfFileWriter`], verified and stripped by
/// [`decode_dataset`]; absent on wire messages (the fabric is trusted).
pub const CRC_ATTR: &str = "__crc32__";

/// Slice-by-8 lookup tables for [`crc32`], generated at compile time
/// from the bitwise definition. `CRC_TABLES[j][b]` advances a CRC whose
/// next input byte is `b` with `j` more bytes following in the same
/// 8-byte group.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// Bytes per lane of [`crc32`]'s interleaved body; a payload of at least
/// `3 * CRC_LANE` bytes takes it. Small on purpose: the median lab-scale
/// dataset is 16 KiB and a quarter are under 1 KiB, so at this length
/// 99 % of a snapshot's payload bytes run interleaved, and what is left
/// after the last whole group of three lanes is under 768 bytes.
const CRC_LANE: usize = 256;

/// `CRC_ADVANCE[0]` carries a raw CRC register over `CRC_LANE` zero
/// bytes, `CRC_ADVANCE[1]` over `2 * CRC_LANE`: table `k` of each holds
/// the image of every value of register byte `k`, and the operator is
/// linear over GF(2), so four lookups xor to the image of a register.
const CRC_ADVANCE: [[[u32; 256]; 4]; 2] = build_crc_advance();

const fn build_crc_advance() -> [[[u32; 256]; 4]; 2] {
    // Images of the 32 one-bit registers over one lane of zeros by the
    // byte loop, over two lanes by going round again.
    let mut basis = [[0u32; 32]; 2];
    let mut bit = 0;
    while bit < 32 {
        let mut crc = 1u32 << bit;
        let mut n = 0;
        while n < 2 * CRC_LANE {
            if n == CRC_LANE {
                basis[0][bit] = crc;
            }
            crc = (crc >> 8) ^ CRC_TABLES[0][(crc & 0xFF) as usize];
            n += 1;
        }
        basis[1][bit] = crc;
        bit += 1;
    }
    let mut t = [[[0u32; 256]; 4]; 2];
    let mut span = 0;
    while span < 2 {
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                let mut image = 0;
                let mut j = 0;
                while j < 8 {
                    if b >> j & 1 == 1 {
                        image ^= basis[span][8 * k + j];
                    }
                    j += 1;
                }
                t[span][k][b] = image;
                b += 1;
            }
            k += 1;
        }
        span += 1;
    }
    t
}

/// One slice-by-8 step: the raw register `crc` after the 8 bytes `w`.
#[inline(always)]
fn crc_step8(crc: u32, w: &[u8]) -> u32 {
    let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// The raw register `crc` after the zero bytes `table` stands for.
#[inline(always)]
fn crc_advance(table: &[[u32; 256]; 4], crc: u32) -> u32 {
    table[0][(crc & 0xFF) as usize]
        ^ table[1][((crc >> 8) & 0xFF) as usize]
        ^ table[2][((crc >> 16) & 0xFF) as usize]
        ^ table[3][(crc >> 24) as usize]
}

/// CRC-32 (ISO-HDLC, the zlib polynomial) of `bytes`.
///
/// A slice-by-8 step is one dependent chain of table lookups, a load's
/// latency per 8 bytes however wide the core. So each group of
/// `3 * CRC_LANE` bytes is cut into three lanes `A|B|C` whose chains run
/// side by side in one loop — `A` from the running register, `B` and `C`
/// from zero — and, the register being linear in (state, input), the
/// group's register is `A` advanced over two lanes of zeros, xor `B`
/// advanced over one, xor `C`. What is left after the last whole group
/// takes the single chain, then the byte loop. Same polynomial, same
/// value for every input as the bitwise definition (tested against it
/// below and, in the release profile, at every length around the group
/// boundaries): the kernel may change, a stored `__crc32__` may not.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut groups = bytes.chunks_exact(3 * CRC_LANE);
    for group in &mut groups {
        let (a, rest) = group.split_at(CRC_LANE);
        let (b, c) = rest.split_at(CRC_LANE);
        let (mut cb, mut cc) = (0, 0);
        for ((wa, wb), wc) in a.chunks_exact(8).zip(b.chunks_exact(8)).zip(c.chunks_exact(8)) {
            crc = crc_step8(crc, wa);
            cb = crc_step8(cb, wb);
            cc = crc_step8(cc, wc);
        }
        crc = crc_advance(&CRC_ADVANCE[1], crc) ^ crc_advance(&CRC_ADVANCE[0], cb) ^ cc;
    }
    let mut words = groups.remainder().chunks_exact(8);
    for w in &mut words {
        crc = crc_step8(crc, w);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC-32 of a dataset's payload, computed where the bytes lie.
pub fn payload_crc32(ds: &Dataset) -> u32 {
    crc32(ds.data.bytes())
}

/// Dataset-name prefix for a block's group of datasets (`blk`, at least
/// six digits, `/`), spelled by the encoder's stack `Prefix` and owned.
pub fn block_prefix(id: BlockId) -> String {
    Prefix::new(id).as_str().to_owned()
}

/// Parse a block id out of a prefixed dataset name.
pub(crate) fn parse_block_id(name: &str) -> Option<BlockId> {
    let rest = name.strip_prefix("blk")?;
    let (digits, tail) = rest.split_at(rest.find('/')?);
    if !tail.starts_with('/') {
        return None;
    }
    digits.parse::<u64>().ok().map(BlockId)
}

/// Encode the file header.
pub(crate) fn encode_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out
}

/// Validate a file header.
pub(crate) fn check_header(bytes: &[u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
        return Err(RocError::Corrupt("SDF: bad magic".into()));
    }
    let version = rocio_core::le::u16(&bytes[4..6], "SDF version")?;
    if version != VERSION {
        return Err(RocError::Corrupt(format!(
            "SDF: unsupported version {version}"
        )));
    }
    Ok(())
}

fn put_str16(out: &mut Vec<u8>, s: &str) {
    put_name16(out, &[s]);
}

/// A `u16`-length-prefixed name written in place from its pieces (a block's
/// group prefix and a member name, `blk:` and a block attribute's key).
fn put_name16(out: &mut Vec<u8>, pieces: &[&str]) {
    let len: usize = pieces.iter().map(|p| p.len()).sum();
    out.extend_from_slice(&(len as u16).to_le_bytes());
    for p in pieces {
        out.extend_from_slice(p.as_bytes());
    }
}

fn encode_attr_entry(k: &str, v: Attr<'_>, out: &mut Vec<u8>) {
    put_str16(out, k);
    v.encode(out);
}

/// Lay out the header of `ds`'s record — everything from the `DS00` marker
/// through the `data_len` field — at the end of `head`, under the name
/// `name` spells. `crc` injects a `__crc32__` Int attribute in its sorted
/// position within the attribute table, replacing any existing entry, so
/// the output is byte-identical to encoding a dataset that carried the
/// attribute in its `BTreeMap`.
fn put_record_head(head: &mut Vec<u8>, name: &[&str], ds: &DatasetDesc<'_>, crc: Option<u32>) {
    head.extend_from_slice(DS_MARKER);
    put_name16(head, name);
    head.push(ds.dtype.tag());
    head.push(ds.shape.len() as u8);
    for &e in ds.shape {
        head.extend_from_slice(&(e as u64).to_le_bytes());
    }
    let crc_attr = crc.map(|c| Attr::Int(c as i64));
    let n_attrs = ds.attrs.len()
        + usize::from(crc_attr.is_some() && !ds.attrs.iter().any(|(k, _)| k == CRC_ATTR));
    head.extend_from_slice(&(n_attrs as u16).to_le_bytes());
    let mut pending = crc_attr;
    for (k, v) in ds.attrs.iter() {
        if let Some(c) = pending {
            if k >= CRC_ATTR {
                encode_attr_entry(CRC_ATTR, c, head);
                pending = None;
                if k == CRC_ATTR {
                    continue; // replaced by the computed checksum
                }
            }
        }
        encode_attr_entry(k, v, head);
    }
    if let Some(c) = pending {
        encode_attr_entry(CRC_ATTR, c, head);
    }
    head.extend_from_slice(&(ds.payload.byte_len() as u64).to_le_bytes());
}

/// The length of a record header: marker, name, dtype and rank, extents,
/// attribute count, `attrs` bytes of attribute entries, payload length.
fn head_len(name_len: usize, rank: usize, attrs: usize) -> usize {
    DS_MARKER.len() + 2 + name_len + 2 + 8 * rank + 2 + attrs + 8
}

/// A block's group prefix, spelled on the stack: the one spelling of it;
/// [`block_prefix`] is an owned copy.
pub(crate) struct Prefix {
    buf: [u8; 24],
    len: usize,
}

impl Prefix {
    pub(crate) fn new(id: BlockId) -> Prefix {
        use std::io::Write;
        let mut buf = [0u8; 24];
        let mut rest = &mut buf[..];
        // 3 + at most 20 digits + 1 bytes: the buffer holds every id.
        let _ = write!(rest, "blk{:06}/", id.0);
        let len = 24 - rest.len();
        Prefix { buf, len }
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).unwrap_or_default()
    }
}

/// Encode one standalone dataset record as an `IoSlice`-style segment
/// list: the record *header* as one owned run (`head`, cleared first),
/// then the payload as a [`Segment::Shared`] refcount bump (omitted when
/// empty). `name_override` replaces the dataset's own name; `crc` becomes
/// a `__crc32__` Int attribute at its sorted place, replacing a stored
/// one. The header layout is
/// [`encode_block`]'s, record for record; a block is encoded there.
pub fn encode_dataset_segments(
    ds: &Dataset,
    name_override: Option<&str>,
    crc: Option<u32>,
    mut head: Vec<u8>,
    out: &mut Vec<Segment>,
) {
    head.clear();
    put_record_head(
        &mut head,
        &[name_override.unwrap_or(&ds.name)],
        &ds.desc(),
        crc,
    );
    out.push(Segment::Owned(head));
    if !ds.is_empty() {
        out.push(Segment::Shared(ds.data.bytes().clone()));
    }
}

/// Recycled header buffers for callers that encode record by record
/// ([`encode_dataset_segments`]); a block needs none ([`encode_block`]).
#[derive(Debug, Default)]
pub struct SegmentPool {
    bufs: Vec<Vec<u8>>,
}

impl SegmentPool {
    pub fn new() -> Self {
        SegmentPool::default()
    }

    /// Take a cleared staging buffer (recycled when available).
    pub fn take(&mut self) -> Vec<u8> {
        self.bufs.pop().unwrap_or_default()
    }

    /// Drain a finished segment list, reclaiming its owned buffers and
    /// dropping the shared payload refcounts.
    pub fn recycle(&mut self, segments: &mut Vec<Segment>) {
        for seg in segments.drain(..) {
            if let Segment::Owned(mut run) = seg {
                run.clear();
                self.bufs.push(run);
            }
        }
    }
}

/// Encode a block as its records — the one block encoder, behind the
/// Rocpanda wire, the two writers and the restart replies alike: the
/// block's `__meta__` (no payload; its attributes, in key order, the
/// block's own as `blk:*`, then `block_id`, `n_datasets` and `window`),
/// then every member under the block's group prefix, in order. These are
/// wire records, and no record carries a `__crc32__`: a file writer lays
/// the same records out with their checksums
/// ([`crate::SdfFileWriter::append_block`]).
///
/// The block is read as a description ([`BlockDesc`]): a
/// [`DataBlock`](rocio_core::DataBlock), a block read where it lies
/// ([`crate::BlockView`]) or a pane described where it lies
/// (`roccom::convert::plan`) — the same records either way. `lead`
/// (whatever goes before the records: a message's routing header; nothing
/// for a file) and every header are written into one staging buffer, sized
/// before it is allocated; a payload the description holds already goes in
/// by refcount, and every other one is encoded into one more buffer, the
/// block's payload image. The rope is those two buffers' windows, each
/// member's payload after its header. No name is formatted and no record
/// is built to be encoded.
pub fn encode_block(lead: &[u8], block: &(impl BlockDesc + ?Sized)) -> Rope {
    match lay_out_block(lead, block, false, |_, _| {}) {
        Ok(rope) => rope,
        Err(_) => unreachable!("only a file record is refused"),
    }
}

/// [`encode_block`], and with `crc` the block's *file* records: each
/// carries its payload's CRC-32 as a `__crc32__` Int at its sorted place,
/// computed in the pass that lays the record out — over the held bytes, or
/// over the slice of the payload image just encoded. `record` is told each
/// record's full name, in pieces, and its length, in file order.
///
/// A file record is refused, [`RocError::Corrupt`], when a field cannot
/// hold what it would say (a name or attribute key over its `u16` length,
/// an attribute count with the checksum's over its `u16`, a rank over its
/// `u8`), checked before anything is laid out, or when the description
/// carries a `__crc32__` its payload does not match: the computed value
/// never overwrites a stale one.
pub(crate) fn lay_out_block(
    lead: &[u8],
    block: &(impl BlockDesc + ?Sized),
    crc: bool,
    mut record: impl FnMut(&[&str], usize),
) -> Result<Rope> {
    let prefix = Prefix::new(block.id());
    let prefix = prefix.as_str();
    // The entry a file record adds, unless the description has one: the
    // key and an Int.
    let added = |ds: &DatasetDesc<'_>| usize::from(crc && described_crc(ds).is_none());
    let entry = |key: &str, v: Attr<'_>| 2 + key.len() + v.encoded_size();
    let crc_entry = entry(CRC_ATTR, Attr::Int(0));
    // What `put_record_head` writes for a member, and for the meta: its
    // attributes as `blk:*`, then `block_id`, `n_datasets` and `window`.
    let member_len = |ds: &DatasetDesc<'_>| {
        let attrs = ds.attrs.encoded_size() + added(ds) * crc_entry;
        head_len(prefix.len() + ds.name.len(), ds.shape.len(), attrs)
    };
    let (meta_attrs, n_meta_attrs) = block.with_attrs(|attrs| {
        if crc {
            check_fields(prefix, BLOCK_META, 1, attrs.len() + 4, "blk:", attrs)?;
        }
        Ok((attrs.encoded_size() + "blk:".len() * attrs.len(), attrs.len() + 3))
    })?;
    let meta_attrs = meta_attrs
        + usize::from(crc) * crc_entry
        + entry("block_id", Attr::Int(0))
        + entry("n_datasets", Attr::Int(0))
        + entry("window", Attr::Str(block.window()));
    let meta_len = head_len(prefix.len() + BLOCK_META.len(), 1, meta_attrs);
    let (mut heads, mut image, mut refused) = (lead.len() + meta_len, 0, Ok(()));
    block.for_each_dataset(|ds| {
        heads += member_len(ds);
        if ds.payload.held().is_none() {
            image += ds.payload.byte_len();
        }
        if crc && refused.is_ok() {
            let n_attrs = ds.attrs.len() + added(ds);
            refused = check_fields(prefix, ds.name, ds.shape.len(), n_attrs, "", ds.attrs);
        }
    });
    refused?;
    let mut stage = Vec::with_capacity(heads);
    stage.extend_from_slice(lead);
    stage.extend_from_slice(DS_MARKER);
    put_name16(&mut stage, &[prefix, BLOCK_META]);
    stage.extend_from_slice(&[DType::U8.tag(), 1]);
    stage.extend_from_slice(&0u64.to_le_bytes());
    stage.extend_from_slice(&((n_meta_attrs + usize::from(crc)) as u16).to_le_bytes());
    if crc {
        // `_` sorts before `b`: the checksum of no bytes leads.
        encode_attr_entry(CRC_ATTR, Attr::Int(i64::from(crc32(&[]))), &mut stage);
    }
    block.with_attrs(|attrs| {
        for (k, v) in attrs.iter() {
            put_name16(&mut stage, &["blk:", k]);
            v.encode(&mut stage);
        }
    });
    encode_attr_entry("block_id", Attr::Int(block.id().0 as i64), &mut stage);
    let n_datasets = Attr::Int(block.n_datasets() as i64);
    encode_attr_entry("n_datasets", n_datasets, &mut stage);
    encode_attr_entry("window", Attr::Str(block.window()), &mut stage);
    stage.extend_from_slice(&0u64.to_le_bytes());
    let mut encoded = Vec::with_capacity(image);
    let mut stale = Ok(());
    block.for_each_dataset(|ds| {
        let held = ds.payload.held();
        if held.is_none() {
            ds.payload.encode(&mut encoded);
        }
        let crc = crc.then(|| match held {
            Some(held) => crc32(held),
            None => crc32(&encoded[encoded.len() - ds.payload.byte_len()..]),
        });
        if let (Some(crc), Some(stored)) = (crc, described_crc(ds)) {
            if stored.as_int() != Some(i64::from(crc)) && stale.is_ok() {
                stale = Err(RocError::Corrupt(format!(
                    "SDF: dataset '{prefix}{}' stores {CRC_ATTR} {stored:?}, its payload's is {crc:#x}",
                    ds.name
                )));
            }
        }
        put_record_head(&mut stage, &[prefix, ds.name], ds, crc);
    });
    stale?;
    debug_assert_eq!(
        (stage.len(), encoded.len()),
        (heads, image),
        "sized as written"
    );
    // The header runs: from the start to the end of the first member's
    // header, from there to the end of the next one's, … — each member's
    // payload goes in after its run.
    let stage = Bytes::from(stage);
    let encoded = (image > 0).then(|| Bytes::from(encoded));
    let mut rope = Rope::new();
    rope.reserve(2 * block.n_datasets() + 1);
    record(&[prefix, BLOCK_META], meta_len);
    let (mut run, mut at, mut encoded_at) = (0, lead.len() + meta_len, 0);
    block.for_each_dataset(|ds| {
        let len = ds.payload.byte_len();
        record(&[prefix, ds.name], member_len(ds) + len);
        at += member_len(ds);
        rope.push(stage.slice(run..at));
        run = at;
        if let Some(held) = ds.payload.held() {
            rope.push(held.clone());
        } else if let Some(encoded) = &encoded {
            rope.push(encoded.slice(encoded_at..encoded_at + len));
            encoded_at += len;
        }
    });
    rope.push(stage.slice(run..));
    Ok(rope)
}

/// The `__crc32__` a description carries, if it carries one.
fn described_crc<'a>(ds: &DatasetDesc<'a>) -> Option<Attr<'a>> {
    ds.attrs.iter().find_map(|(k, v)| (k == CRC_ATTR).then_some(v))
}

/// Refuse a file record whose fields cannot hold what they would say: its
/// name (`prefix` + `name`) or an attribute key (`key_prefix` + key) over a
/// `u16` length, `n_attrs` over a `u16` count, `rank` over a `u8`.
fn check_fields(
    prefix: &str,
    name: &str,
    rank: usize,
    n_attrs: usize,
    key_prefix: &str,
    attrs: Attrs<'_>,
) -> Result<()> {
    let key = attrs.iter().map(|(k, _)| key_prefix.len() + k.len()).max();
    let fields = [
        ("name", prefix.len() + name.len(), u16::MAX.into()),
        ("attribute key", key.unwrap_or(0), u16::MAX.into()),
        ("attribute count", n_attrs, u16::MAX.into()),
        ("rank", rank, u8::MAX.into()),
    ];
    match fields.into_iter().find(|&(_, n, max)| n > max) {
        Some((field, n, max)) => Err(RocError::Corrupt(format!(
            "SDF: a dataset of block '{prefix}' needs {n} for its {field}, whose field holds {max}"
        ))),
        None => Ok(()),
    }
}

pub(crate) const RECORD: &str = "SDF record";

/// The shortest record there is: marker, an empty name, dtype, rank 0, no
/// attributes, a payload length. A record count is bounded by the bytes
/// left over this before it sizes anything.
pub(crate) const MIN_RECORD: usize = 4 + 2 + 1 + 1 + 2 + 8;

/// What a record header says of the payload behind it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PayloadDims {
    pub(crate) dtype: DType,
    /// Product of the shape.
    pub(crate) n_elems: usize,
    /// Payload length in bytes: `n_elems * dtype.size()`, as the record's
    /// own `data_len` field must say.
    pub(crate) data_len: usize,
}

/// Walk the record header at the cursor, leaving it on the first payload
/// byte — the one parser of the record layout, behind every record read
/// ([`crate::view::RecordView::read`]) and the reader's partial reads
/// alike. Each attribute entry is handed to `attr` as it is walked: a
/// record read keeps two facts of the table on the stack and then reads
/// the checked header where it lies; a partial read keeps nothing.
///
/// Every length is checked against the input before it shapes a view or
/// an allocation, the extents' product and the payload size are computed
/// overflow-checked, and the `data_len` field must agree with shape and
/// dtype — so corrupt input is [`RocError::Corrupt`], never a panic, an
/// absurd allocation or a payload read under the wrong shape. Input that
/// ends inside the header is reported the same way (partial readers retry
/// with a longer prefix).
pub(crate) fn walk_record_header(
    cur: &mut Cursor<'_>,
    mut attr: impl FnMut(&str, &AttrView<'_>),
) -> Result<PayloadDims> {
    let marker = cur.array::<4>(RECORD)?;
    if &marker != DS_MARKER {
        return Err(RocError::Corrupt(format!(
            "SDF: expected dataset marker at {}, found {:?}",
            cur.pos() - 4,
            marker
        )));
    }
    let name = cur.str16_ref(RECORD)?;
    let dtype = DType::from_tag(cur.u8(RECORD)?)?;
    let rank = cur.u8(RECORD)? as usize;
    let extents = cur.bytes(rank * 8, "SDF u64 field")?;
    let shape = || extents_of(&extents);
    let n_elems = shape().try_fold(1usize, |n, e| n.checked_mul(e));
    let Some((n_elems, want_len)) = n_elems.and_then(|n| Some((n, n.checked_mul(dtype.size())?)))
    else {
        let shape: Vec<usize> = shape().collect();
        return Err(RocError::Corrupt(format!("SDF: dataset '{name}' shape {shape:?} overflows")));
    };
    let n_attrs = cur.u16("SDF attribute count")?;
    for _ in 0..n_attrs {
        let key = cur.str16_ref(RECORD)?;
        attr(&key, &AttrView::read(cur)?);
    }
    let data_len = cur.u64("SDF u64 field")?;
    if data_len != want_len as u64 {
        let shape: Vec<usize> = shape().collect();
        return Err(RocError::Corrupt(format!(
            "SDF: dataset '{name}' payload length {data_len} != shape {shape:?} x {}",
            dtype.name()
        )));
    }
    Ok(PayloadDims { dtype, n_elems, data_len: want_len })
}

/// The shape a header's extent bytes spell.
pub(crate) fn extents_of(extents: &[u8]) -> impl Iterator<Item = usize> + '_ {
    extents.chunks_exact(8).map(|extent| {
        let mut le = [0u8; 8];
        le.copy_from_slice(extent);
        u64::from_le_bytes(le) as usize
    })
}

/// The CRC-32 a record's `__crc32__` attribute stores: an `Int` a `u32`
/// can hold, anything else is corruption.
pub(crate) fn stored_crc(name: &str, int: Option<i64>, attr: &dyn std::fmt::Debug) -> Result<u32> {
    int.and_then(|v| u32::try_from(v).ok()).ok_or_else(|| {
        RocError::Corrupt(format!(
            "SDF: dataset '{name}' has a malformed {CRC_ATTR} attribute ({attr:?})"
        ))
    })
}

pub(crate) fn corrupt_block(what: String) -> RocError {
    RocError::Corrupt(format!("SDF block: {what}"))
}

/// Hold a payload to its record's stored CRC-32.
pub(crate) fn check_crc(name: &str, stored: u32, payload: &[u8]) -> Result<()> {
    let actual = crc32(payload);
    if actual != stored {
        return Err(RocError::Corrupt(format!(
            "SDF: dataset '{name}' payload checksum mismatch \
             (stored {stored:#x}, computed {actual:#x})"
        )));
    }
    Ok(())
}

/// Decode the dataset record at the cursor, advancing it past the record,
/// without copying the payload: the returned dataset's data is a window of
/// the part it lies in (a record of an [`encode_block`] rope has its
/// payload in a part of its own; only a payload cut across parts is
/// gathered). It is the record read where it lies
/// ([`RecordView::read`]), built.
///
/// The window holds a refcount on that part's allocation, so it stays valid
/// after every other handle to the input is dropped — this is how the
/// server's active buffer references message payloads until drain without
/// re-encoding or copying them. A `__crc32__` attribute (file records
/// carry one; wire records do not) is verified against the payload and
/// stripped.
pub fn decode_dataset(cur: &mut Cursor<'_>) -> Result<Dataset> {
    decode_dataset_with(cur, true)
}

/// [`decode_dataset`] of the record at `*pos` of one contiguous buffer,
/// advancing `*pos` past it.
pub fn decode_dataset_shared(bytes: &Bytes, pos: &mut usize) -> Result<Dataset> {
    let mut cur = Cursor::from(bytes);
    cur.skip(*pos, RECORD)?;
    let ds = decode_dataset(&mut cur)?;
    *pos = cur.pos();
    Ok(ds)
}

/// [`decode_dataset`] with the caller choosing whether the payload
/// checksum is recomputed.
///
/// Pass `verify_crc: false` **only** when the same record bytes were
/// already checksum-verified in an immutable image — the reader's
/// open-metadata cache tracks this per record per file generation, so a
/// warm restart re-reading a frozen snapshot skips the CRC pass it
/// already paid (and any rewrite of the path starts a new generation,
/// which verifies afresh). The checksum attribute is stripped — and must
/// be a CRC-32 — either way, so decoded datasets are identical across
/// both modes and damage to the attribute's type tag cannot switch the
/// check off.
pub(crate) fn decode_dataset_with(cur: &mut Cursor<'_>, verify_crc: bool) -> Result<Dataset> {
    let record = RecordView::read(cur, verify_crc)?;
    record.to_dataset(record.name())
}

/// One index entry as a writer keeps it: where the dataset's name lies in
/// the writer's one buffer of names, absolute offset, encoded length.
#[derive(Debug, Clone)]
pub(crate) struct IndexEntry {
    pub(crate) name: Range<usize>,
    pub(crate) offset: u64,
    pub(crate) len: u64,
}

/// Encode the index and trailer given entry list, the buffer its names
/// lie in and the index's own offset in the file.
pub(crate) fn encode_index(entries: &[IndexEntry], names: &str, index_offset: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(IDX_MARKER);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        put_str16(&mut out, &names[e.name.clone()]);
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(MAGIC);
    out
}

/// Decode the trailer (last [`TRAILER_LEN`] bytes): returns the index
/// offset.
pub(crate) fn decode_trailer(trailer: &[u8]) -> Result<u64> {
    if trailer.len() != TRAILER_LEN || &trailer[8..12] != MAGIC {
        return Err(RocError::Corrupt("SDF: bad trailer".into()));
    }
    rocio_core::le::u64(&trailer[..8], "SDF index offset")
}

/// Decode the index region (from its offset up to the trailer) into one
/// entry per record, made by `entry` from where the record's name lies in
/// `bytes` (checked UTF-8), its offset and its length: no name is copied.
pub(crate) fn decode_index<T>(
    bytes: &[u8],
    entry: impl Fn(Range<usize>, u64, u64) -> T,
) -> Result<Vec<T>> {
    let (cur, what) = (&mut Cursor::from(bytes), "SDF index");
    if cur.array::<4>(what)? != *IDX_MARKER {
        return Err(RocError::Corrupt("SDF: bad index marker".into()));
    }
    let n = cur.u64(what)? as usize;
    // Each entry is at least 18 bytes; anything claiming more is corrupt.
    if n > cur.remaining() / 18 {
        return Err(RocError::Corrupt(format!(
            "SDF: index claims {n} entries, larger than the region"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = cur.str16_ref(what)?.len();
        let name = cur.pos() - name..cur.pos();
        entries.push(entry(name, cur.u64(what)?, cur.u64(what)?));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::BlockView;
    use rocio_core::{AttrValue, Checksum, DataBlock};

    fn sample_dataset() -> Dataset {
        Dataset::new("blk000003/pressure", vec![2, 3], vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap()
            .with_attr("units", "Pa")
            .with_attr("step", 50i64)
    }

    /// The record as one flat run of bytes (a test wants to cut and flip).
    fn encode(ds: &Dataset, name: Option<&str>, crc: Option<u32>) -> Vec<u8> {
        let mut segs = Vec::new();
        encode_dataset_segments(ds, name, crc, Vec::new(), &mut segs);
        rocio_core::segments_to_vec(&segs)
    }

    fn decode(enc: &[u8]) -> Result<Dataset> {
        decode_dataset_shared(&Bytes::copy_from_slice(enc), &mut 0)
    }

    #[test]
    fn record_layout_is_pinned_by_value() {
        // The on-disk format, byte for byte: marker, name, dtype tag, rank,
        // extents, attribute table in key order with the injected CRC-32
        // (zlib's, of the 16 payload bytes) in its sorted place, payload
        // length, payload.
        let ds = Dataset::new("p", vec![1, 2], vec![1.0f64, -2.0])
            .unwrap()
            .with_attr("units", "Pa")
            .with_attr("step", 50i64);
        let golden: Vec<u8> = [
            &b"DS00"[..], &[1, 0], b"p", &[4, 2],
            &[1, 0, 0, 0, 0, 0, 0, 0], &[2, 0, 0, 0, 0, 0, 0, 0],
            &[3, 0],
            &[9, 0], b"__crc32__", &[0, 0x7f, 0x0a, 0x1b, 0x96, 0, 0, 0, 0],
            &[4, 0], b"step", &[0, 50, 0, 0, 0, 0, 0, 0, 0],
            &[5, 0], b"units", &[2, 2, 0, 0, 0], b"Pa",
            &[16, 0, 0, 0, 0, 0, 0, 0],
            &[0, 0, 0, 0, 0, 0, 0xf0, 0x3f], &[0, 0, 0, 0, 0, 0, 0, 0xc0],
        ]
        .concat();
        let mut segs = Vec::new();
        encode_dataset_segments(&ds, None, Some(payload_crc32(&ds)), Vec::new(), &mut segs);
        assert_eq!(rocio_core::segments_to_vec(&segs), golden);
        // Header owned, payload by refcount: the very bytes the dataset holds.
        assert!(matches!(&segs[..], [Segment::Owned(_), Segment::Shared(p)]
            if p.as_ptr() == ds.data.bytes().as_ptr()));
        assert_eq!(decode(&golden).unwrap(), ds);
        // A name override relabels without a clone.
        assert_eq!(decode(&encode(&ds, Some("blk000001/p"), None)).unwrap().name, "blk000001/p");
        // An empty payload is no segment at all.
        segs.clear();
        encode_dataset_segments(&Dataset::vector("e", Vec::<u8>::new()), None, None, Vec::new(), &mut segs);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn segment_pool_hands_back_the_header_runs_it_was_given() {
        let mut pool = SegmentPool::new();
        let mut segs = Vec::new();
        encode_dataset_segments(&sample_dataset(), None, None, pool.take(), &mut segs);
        let run = segs[0].as_slice().as_ptr();
        pool.recycle(&mut segs);
        assert!(segs.is_empty());
        let reused = pool.take();
        assert!(reused.is_empty() && reused.as_ptr() == run, "the header run comes back cleared");
        assert!(pool.take().is_empty());
    }

    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference() {
        // ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> = (0u32..4 * 3 * CRC_LANE as u32 + 10)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length mod 8 (the single chain and the byte loop), then
        // every length within 9 of one to four whole groups: the last
        // bytes of a group, the first of the remainder.
        let group = 3 * CRC_LANE;
        let around = (1..=4).flat_map(|k| k * group - 9..=k * group + 9);
        for len in (0..=300).chain(around) {
            assert_eq!(crc32(&data[..len]), crc32_bitwise(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc_advance_tables_equal_that_many_zero_bytes() {
        let zeros = |mut crc: u32, n: usize| {
            for _ in 0..n {
                crc = (crc >> 8) ^ CRC_TABLES[0][(crc & 0xFF) as usize];
            }
            crc
        };
        for (table, n) in CRC_ADVANCE.iter().zip([CRC_LANE, 2 * CRC_LANE]) {
            for (k, images) in table.iter().enumerate() {
                for (b, &image) in images.iter().enumerate() {
                    assert_eq!(image, zeros((b as u32) << (8 * k), n), "{n} zeros, byte {k} = {b}");
                }
            }
            for crc in [0, 1, 0xFFFF_FFFF, 0xCBF4_3926, 0x8000_0000] {
                assert_eq!(crc_advance(table, crc), zeros(crc, n), "{n} zeros from {crc:#x}");
            }
        }
    }

    #[test]
    fn sequence_of_records_round_trips() {
        let a = sample_dataset();
        let b = Dataset::vector("conn", vec![1i32, 2, 3, 4]);
        let buf = Bytes::from([encode(&a, None, None), encode(&b, None, None)].concat());
        let mut pos = 0;
        assert_eq!(decode_dataset_shared(&buf, &mut pos).unwrap(), a);
        assert_eq!(decode_dataset_shared(&buf, &mut pos).unwrap(), b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn corrupt_marker_rejected() {
        let mut enc = encode(&sample_dataset(), None, None);
        enc[0] = b'X';
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn truncated_record_rejected() {
        let enc = encode(&sample_dataset(), None, None);
        for cut in [3, 10, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn header_round_trip() {
        let h = encode_header();
        assert_eq!(h.len(), HEADER_LEN);
        assert!(check_header(&h).is_ok());
        assert!(check_header(b"BAD!").is_err());
        let mut wrong_version = h.clone();
        wrong_version[4] = 99;
        assert!(check_header(&wrong_version).is_err());
    }

    #[test]
    fn index_round_trip() {
        let names = "ablk000001/p";
        let entries = [
            IndexEntry { name: 0..1, offset: 8, len: 100 },
            IndexEntry { name: 1..names.len(), offset: 108, len: 64 },
        ];
        let enc = encode_index(&entries, names, 172);
        let trailer = &enc[enc.len() - TRAILER_LEN..];
        assert_eq!(decode_trailer(trailer).unwrap(), 172);
        let region = &enc[..enc.len() - TRAILER_LEN];
        let idx = decode_index(region, |name, offset, len| (region[name].to_vec(), offset, len));
        let want = entries.map(|e| (names[e.name].as_bytes().to_vec(), e.offset, e.len));
        assert_eq!(idx.unwrap(), want);
    }

    #[test]
    fn trailer_validation() {
        assert!(decode_trailer(&[0u8; 11]).is_err());
        assert!(decode_trailer(&[0u8; 12]).is_err());
    }

    #[test]
    fn block_prefix_and_parse() {
        let p = block_prefix(BlockId(42));
        assert_eq!(p, "blk000042/");
        let widest = block_prefix(BlockId(u64::MAX));
        assert_eq!(widest, format!("blk{}/", u64::MAX));
        assert_eq!(parse_block_id(&format!("{widest}p")), Some(BlockId(u64::MAX)));
        assert_eq!(parse_block_id("blk000042/pressure"), Some(BlockId(42)));
        assert_eq!(parse_block_id("blk123456/__meta__"), Some(BlockId(123456)));
        assert_eq!(parse_block_id("pressure"), None);
        assert_eq!(parse_block_id("blkXXX/p"), None);
    }

    /// The records [`encode_block`] writes for `block`, decoded — `__meta__`
    /// first, members under the block's prefix — as datasets a test can
    /// bend.
    fn records_of(block: &DataBlock) -> Vec<Dataset> {
        let wire = encode_block(&[], block);
        let mut cur = wire.cursor();
        let records = (0..=block.datasets.len()).map(|_| decode_dataset(&mut cur).unwrap()).collect();
        assert_eq!(cur.remaining(), 0);
        records
    }

    #[test]
    fn block_meta_round_trip() {
        let block = DataBlock::new(BlockId(9), "solid")
            .with_dataset(Dataset::vector("disp", vec![0.0f64; 3]))
            .with_attr("material", "propellant")
            .with_attr("level", 2i64)
            .with_attr("t", 0.83f64);
        let meta = &records_of(&block)[0];
        assert_eq!(meta.name, "blk000009/__meta__");
        assert!(meta.is_empty());
        let view = BlockView::decode(&mut encode_block(&[], &block).cursor(), 2).unwrap();
        assert_eq!((view.id(), view.window()), (BlockId(9), "solid"));
        let attrs = view.to_block().unwrap().attrs;
        assert_eq!(attrs["material"].as_str().unwrap(), "propellant");
        assert_eq!(attrs["level"].as_int().unwrap(), 2);
        assert_eq!(attrs["t"].as_float().unwrap(), 0.83);
        assert_eq!(meta.attrs["n_datasets"].as_int().unwrap(), 1);
    }

    #[test]
    fn a_block_is_one_staging_buffer_with_its_payloads_by_refcount() {
        let block = DataBlock::new(BlockId(1_234_567), "fluid")
            .with_dataset(Dataset::vector("p", vec![1.0f64, 2.0]).with_attr("units", "Pa"))
            .with_dataset(Dataset::vector("empty", Vec::<i32>::new()))
            .with_dataset(Dataset::new("v", vec![1, 2], vec![3i64, 4]).unwrap())
            .with_attr("level", 2i64);
        let lead = b"routing".to_vec();
        let wire = encode_block(&lead, &block);
        // Record for record what the record encoder lays out, behind the lead.
        let flat: Vec<u8> = wire.parts().iter().flat_map(|p| p.iter().copied()).collect();
        let mut want = lead;
        for ds in records_of(&block) {
            want.extend(encode(&ds, None, None));
        }
        assert_eq!(flat, want);
        // Header runs are consecutive windows of one buffer; a payload is
        // the dataset's own bytes, and an empty one is no part.
        let [lead_meta_p, p, empty, v_head, v] = wire.parts() else {
            panic!("head, p, empty's head, v's head, v: {:?}", wire.parts().len());
        };
        assert_eq!(p.as_ptr(), block.datasets[0].data.bytes().as_ptr());
        assert_eq!(v.as_ptr(), block.datasets[2].data.bytes().as_ptr());
        assert_eq!(empty.as_ptr(), lead_meta_p[lead_meta_p.len()..].as_ptr());
        assert_eq!(v_head.as_ptr(), empty[empty.len()..].as_ptr());
        // A seven-digit id widens the group prefix.
        assert_eq!(records_of(&block)[1].name, "blk1234567/p");
    }

    #[test]
    fn crc_injection_preserves_attr_sort_order() {
        // '_' (0x5F) sorts between 'Z' and 'a': attributes on both sides
        // of the injected key exercise the merge in all three positions.
        for extra in [vec![], vec!["AAA"], vec!["zzz"], vec!["AAA", "zzz"], vec![CRC_ATTR]] {
            let mut ds = sample_dataset();
            for k in &extra {
                ds.attrs.insert(k.to_string(), AttrValue::Int(7));
            }
            let crc = payload_crc32(&ds);
            let mut stamped = ds.clone();
            stamped
                .attrs
                .insert(CRC_ATTR.to_string(), AttrValue::Int(crc as i64));
            assert_eq!(encode(&ds, None, Some(crc)), encode(&stamped, None, None), "extra attrs {extra:?}");
        }
    }

    #[test]
    fn payload_corruption_is_detected_by_crc() {
        let ds = sample_dataset();
        let mut enc = encode(&ds, None, Some(payload_crc32(&ds)));
        // Flip one byte inside the payload (the record tail).
        let n = enc.len();
        enc[n - 5] ^= 0x10;
        let err = decode(&enc);
        let stored = payload_crc32(&ds);
        let computed = crc32(&enc[n - ds.byte_len()..]);
        let want = format!(
            "SDF: dataset 'blk000003/pressure' payload checksum mismatch \
             (stored {stored:#x}, computed {computed:#x})"
        );
        assert!(matches!(err, Err(RocError::Corrupt(ref m)) if *m == want), "{err:?}");
    }

    #[test]
    fn damaged_crc_attribute_is_corrupt_not_unchecked() {
        let ds = sample_dataset();
        let enc = encode(&ds, None, Some(payload_crc32(&ds)));
        let key = enc
            .windows(CRC_ATTR.len())
            .position(|w| w == CRC_ATTR.as_bytes())
            .expect("record carries the attribute");
        let tag = key + CRC_ATTR.len();
        assert_eq!(enc[tag], AttrValue::Int(0).tag());
        let malformed = |enc: &[u8]| {
            for verify in [true, false] {
                let err = decode_dataset_with(&mut Cursor::from(&Bytes::copy_from_slice(enc)), verify);
                assert!(
                    matches!(err, Err(RocError::Corrupt(ref m)) if m.contains("malformed __crc32__")),
                    "{err:?}"
                );
            }
        };
        // Int → Float: same width, so the record still parses — and used
        // to decode with its payload unchecked.
        let mut retagged = enc.clone();
        retagged[tag] = AttrValue::Float(0.0).tag();
        malformed(&retagged);
        // An Int no CRC-32 can equal.
        let mut wide = enc.clone();
        wide[tag + 5] = 1;
        malformed(&wide);
        let mut negative = enc;
        negative[tag + 8] = 0x80;
        malformed(&negative);
    }

    #[test]
    fn shared_decode_survives_source_handle_drop() {
        let ds = sample_dataset();
        let enc = Bytes::from(encode(&ds, None, None));
        let mut pos = 0;
        let dec = decode_dataset_shared(&enc, &mut pos).unwrap();
        assert_eq!(pos, enc.len());
        let payload = dec.data.bytes().as_ptr_range();
        assert!(enc.as_ptr_range().start < payload.start && payload.end == enc.as_ptr_range().end,
            "decode must be zero-copy");
        drop(enc); // the decoded view must keep the allocation alive
        assert_eq!(dec, ds);
    }

    /// What a record list assembles to: the verdict's kind, and for a block
    /// the view and the block it builds, held to describing the same block
    /// — the same records laid out, the same checksum.
    fn assemble(expected: Option<BlockId>, records: &[Vec<u8>]) -> (&'static str, Option<DataBlock>) {
        let read = records.iter().map(|r| RecordView::read(&mut Cursor::from(&Bytes::copy_from_slice(r)), true));
        let view = match BlockView::assemble(expected, records.len(), read) {
            Ok(view) => view,
            Err(RocError::Corrupt(_)) => return ("Corrupt", None),
            Err(RocError::Mismatch(_)) => return ("Mismatch", None),
            Err(RocError::AlreadyExists(_)) => return ("AlreadyExists", None),
            Err(e) => panic!("{e:?}"),
        };
        let block = view.to_block().unwrap();
        let flat = |rope: Rope| rope.into_bytes().to_vec();
        assert_eq!(flat(encode_block(b"lead", &view)), flat(encode_block(b"lead", &block)));
        assert_eq!(Checksum::of_desc(&view), Checksum::of_block(&block));
        assert_eq!(view.encoded_size(), block.encoded_size());
        ("Ok", Some(block))
    }

    /// Swap the one-byte names of two attribute keys spelled `k_a` and
    /// `k_b` (each a `u16` length then the key) in an encoded record: the
    /// key order no encoder writes.
    fn rename_keys(record: &[u8], (k_a, k_b): (&[u8], &[u8]), (a, b): (u8, u8)) -> Vec<u8> {
        let at = |k: &[u8]| {
            let spelled = [&(k.len() as u16).to_le_bytes()[..], k].concat();
            record.windows(spelled.len()).rposition(|w| w == spelled).unwrap() + 1 + k.len()
        };
        let mut out = record.to_vec();
        (out[at(k_a)], out[at(k_b)]) = (a, b);
        out
    }

    /// The verdicts are those of assembling a `DataBlock` from the decoded
    /// records (`block_from_records`, which the view replaced) on the same
    /// lists, case for case.
    #[test]
    fn block_view_rejects_hostile_record_lists() {
        let block = DataBlock::new(BlockId(9), "solid")
            .with_dataset(Dataset::vector("disp", vec![0.0f64; 3]))
            .with_attr("level", 2i64);
        let record = |ds: &Dataset| encode(ds, None, None);
        let meta_ds = || records_of(&block).remove(0);
        let meta = record(&meta_ds());
        let member_ds = |name: &str| Dataset::vector(name, vec![0.0f64; 3]);
        let member = |name: &str| record(&member_ds(name));
        let disp = member("blk000009/disp");
        assert_eq!(assemble(Some(BlockId(9)), &[meta.clone(), disp.clone()]), ("Ok", Some(block.clone())));
        assert_eq!(assemble(None, &[meta.clone(), disp.clone()]), ("Ok", Some(block.clone())));

        let meta_with = |key: &str, value: AttrValue| record(&meta_ds().with_attr(key, value));
        let meta_without = |key: &str| {
            let mut m = meta_ds();
            m.attrs.remove(key);
            record(&m)
        };
        let mut filed = meta_ds();
        filed.name = "blk000008/__meta__".into();
        let mut with_payload = meta_ds();
        (with_payload.shape, with_payload.data) = (vec![2], vec![7u8, 8].into());
        let right = payload_crc32(&member_ds("x")) as i64;
        let stamped = |crc: AttrValue| record(&member_ds("blk000009/disp").with_attr(CRC_ATTR, crc));
        let (matching, stale, malformed) =
            (stamped(right.into()), stamped((right ^ 1).into()), stamped(0.5f64.into()));
        let a_b = |ds: Dataset| record(&ds.with_attr("a", 1i64).with_attr("b", 2i64));
        let member_a_b = a_b(member_ds("blk000009/disp"));
        let meta_a_b = record(&meta_ds().with_attr("blk:a", 1i64).with_attr("blk:b", 2i64));
        let (descending, repeated) = (
            rename_keys(&member_a_b, (b"a", b"b"), (b'b', b'a')),
            rename_keys(&member_a_b, (b"a", b"b"), (b'a', b'a')),
        );
        let meta_repeated = rename_keys(&meta_a_b, (b"blk:a", b"blk:b"), (b'a', b'a'));
        let meta_twice = record(&Dataset { name: "blk000009/__meta__".into(), ..member_ds("") });
        let long_key = a_b(member_ds("blk000009/disp").with_attr("k".repeat(40), 3i64));
        type Case<'a> = (&'a str, Option<BlockId>, Vec<Vec<u8>>, &'a str);
        let cases: [Case; 23] = [
            ("empty record list", None, vec![], "Corrupt"),
            ("meta with the wrong id", Some(BlockId(8)), vec![meta.clone()], "Corrupt"),
            ("member without the block prefix", None, vec![meta.clone(), member("disp")], "Corrupt"),
            ("member of another block", None, vec![meta.clone(), member("blk000008/disp")], "Corrupt"),
            ("member where the meta belongs", None, vec![disp.clone()], "Corrupt"),
            ("meta filed under another block", None, vec![record(&filed)], "Corrupt"),
            ("a record that fails to decode", None, vec![meta.clone(), b"DS0".to_vec()], "Corrupt"),
            ("a member repeated", None, vec![meta.clone(), disp.clone(), disp.clone()], "AlreadyExists"),
            ("meta whose id is a Str", None, vec![meta_with("block_id", "9".into()), disp.clone()], "Mismatch"),
            ("meta without a window", None, vec![meta_without("window"), disp.clone()], "Corrupt"),
            ("meta whose window is an Int", None, vec![meta_with("window", 3i64.into()), disp.clone()], "Mismatch"),
            ("meta without an id", None, vec![meta_without("block_id"), disp.clone()], "Corrupt"),
            ("meta with a negative id", None, vec![meta_with("block_id", (-1i64).into())], "Corrupt"),
            ("meta that carries a payload", None, vec![record(&with_payload), disp.clone()], "Ok"),
            ("meta with a foreign attribute", None, vec![meta_with("colour", 3i64.into()), disp.clone()], "Ok"),
            ("a matching stored checksum", None, vec![meta.clone(), matching.clone()], "Ok"),
            ("a stale stored checksum", None, vec![meta.clone(), stale.clone()], "Corrupt"),
            ("a checksum that is no Int", None, vec![meta.clone(), malformed.clone()], "Corrupt"),
            ("member keys descending", None, vec![meta.clone(), descending.clone()], "Ok"),
            ("member key repeated", None, vec![meta.clone(), repeated.clone()], "Ok"),
            ("meta key repeated", None, vec![meta_repeated.clone(), disp.clone()], "Ok"),
            ("a second record named as the meta", None, vec![meta.clone(), meta_twice.clone()], "Ok"),
            ("a key longer than the walk keeps", None, vec![meta.clone(), long_key.clone()], "Ok"),
        ];
        for (what, expected, records, verdict) in &cases {
            assert_eq!(assemble(*expected, records).0, *verdict, "{what}");
        }
        // What a map would hold: the last of a repeated key, sorted keys.
        let got = |records: &[&Vec<u8>]| {
            let records: Vec<Vec<u8>> = records.iter().map(|r| r.to_vec()).collect();
            assemble(None, &records).1.unwrap()
        };
        let attrs = |block: DataBlock| format!("{:?} {:?}", block.attrs, block.datasets[0].attrs);
        assert_eq!(attrs(got(&[&meta, &descending])), r#"{"level": Int(2)} {"a": Int(2), "b": Int(1)}"#);
        assert_eq!(attrs(got(&[&meta, &repeated])), r#"{"level": Int(2)} {"a": Int(2)}"#);
        assert_eq!(attrs(got(&[&meta_repeated, &disp])), r#"{"a": Int(2), "level": Int(2)} {}"#);
        // A stored checksum is checked and stripped.
        assert_eq!(got(&[&meta, &matching]), block);
        assert_eq!(got(&[&meta, &meta_twice]).datasets[0].name, "__meta__");
        assert_eq!(got(&[&meta, &long_key]).datasets[0].attrs.len(), 3);
    }

    /// A file record is the wire record with its payload's CRC-32 at its
    /// sorted place — in the meta's table before every key, in a member's
    /// between keys on both sides of it — whether the description carried
    /// none or a matching one, and the writer is told each record's name
    /// and length in file order.
    #[test]
    fn file_records_are_the_wire_records_with_their_checksums() {
        let block = DataBlock::new(BlockId(9), "solid")
            .with_dataset(Dataset::vector("disp", vec![0.5f64; 3]).with_attr("AAA", 1i64).with_attr("zzz", 2i64))
            .with_dataset(Dataset::vector("empty", Vec::<i32>::new()))
            .with_attr("level", 2i64);
        let mut want = Vec::new();
        let mut lens = Vec::new();
        for ds in records_of(&block) {
            let record = encode(&ds, None, Some(payload_crc32(&ds)));
            lens.push((ds.name.clone(), record.len()));
            want.extend(record);
        }
        let mut told = Vec::new();
        let file = lay_out_block(&[], &block, true, |name, len| told.push((name.concat(), len))).unwrap();
        assert_eq!(file.into_bytes(), want);
        assert_eq!(told, lens);
        let mut stamped = block.clone();
        let crc = payload_crc32(&stamped.datasets[0]) as i64;
        stamped.datasets[0].attrs.insert(CRC_ATTR.into(), AttrValue::Int(crc));
        assert_eq!(lay_out_block(&[], &stamped, true, |_, _| {}).unwrap().into_bytes(), want);
        // The wire form is the same records without them.
        let wire: Vec<u8> = records_of(&block).iter().flat_map(|ds| encode(ds, None, None)).collect();
        assert_eq!(encode_block(&[], &block).into_bytes(), wire);
        // A stale or malformed stored checksum is refused, not replaced.
        for stale in [AttrValue::Int(crc ^ 1), AttrValue::Float(0.5), AttrValue::Str("x".into())] {
            stamped.datasets[0].attrs.insert(CRC_ATTR.into(), stale.clone());
            let got = lay_out_block(&[], &stamped, true, |_, _| panic!("nothing is told"));
            assert!(matches!(got, Err(RocError::Corrupt(_))), "{stale:?}: {got:?}");
        }
    }
}
