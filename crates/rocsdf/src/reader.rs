//! Reading SDF files through the storage simulator.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rocio_core::{BlockId, Cursor, DataBlock, Dataset, Result, RocError, SharedArray, SimTime};
use rocstore::SharedFs;

use crate::cost::{LibraryModel, ReadCostModel, ReadStrategy};
use crate::format::{
    check_header, decode_index, decode_trailer, parse_block_id, walk_record_header, PayloadDims,
    Prefix, BLOCK_META, HEADER_LEN, RECORD, TRAILER_LEN,
};
use crate::view::{BlockView, RecordView};

/// One index entry: where its name lies in the index bytes, where its
/// record lies in the file, and whether this file generation's copy of the
/// record has had its payload checksum verified — by any client.
struct Entry {
    name: Range<usize>,
    offset: u64,
    len: u64,
    /// The [`OpenMeta`] and these flags belong to one file generation and
    /// die together when the path is rewritten, so a set flag always
    /// refers to the bytes frozen in the store for that generation — which
    /// is what lets every later read, by this client or another, skip the
    /// CRC pass (host work only; virtual time is never affected): each
    /// record is checked once per file generation, by the first reader,
    /// whether that read assembles the block here or is a two-phase
    /// aggregator's check before it ships the record
    /// ([`SdfFileReader::verify_raw`]). Set only after a successful check.
    verified: AtomicBool,
}

/// One block the index names.
struct IndexedBlock {
    id: BlockId,
    /// The index position of its first record: where it first appears.
    first: usize,
    /// Its picks: a range of [`OpenMeta::picks`] — `None` when no record is
    /// its `__meta__`.
    picks: Option<Range<usize>>,
}

/// The parsed trailer + index of one file generation, held in the file
/// system's metadata cache ([`SharedFs::cache_put`]). The charge is per
/// client: a client's repeat open of an unchanged file is free, and its
/// first open pays its own reads (per-client keying keeps virtual time
/// deterministic — a hit depends only on this client's own open history).
/// The decode and the verified flags are per generation: the first open of
/// a generation by any client builds this, every later one shares it, and
/// any write to the path starts a new one. Every lookup reads it in place.
struct OpenMeta {
    path: Arc<str>,
    /// The index region as read, a window of the extent it was written
    /// in: every entry's name is a range of it.
    index: Bytes,
    entries: Vec<Entry>,
    blocks: Vec<IndexedBlock>,
    /// Every block's records, `__meta__` first, then its members in file
    /// order (wherever they sit relative to the meta or to foreign
    /// records), block after block.
    picks: Vec<usize>,
}

impl OpenMeta {
    /// The open of an index region and its entries: the block table built.
    fn new(path: &str, index: Bytes, entries: Vec<Entry>) -> OpenMeta {
        let (blocks, picks) = index_blocks(&index, &entries);
        OpenMeta { path: path.into(), index, entries, blocks, picks }
    }

    fn name(&self, e: &Entry) -> &str {
        entry_name(&self.index, e)
    }
}

fn entry_name<'i>(index: &'i [u8], e: &Entry) -> &'i str {
    // The index decode refused anything but UTF-8.
    std::str::from_utf8(&index[e.name.clone()]).unwrap_or_default()
}

/// The table of blocks and their picks: each block a record's name parses
/// as ([`parse_block_id`]) is listed at its first appearance, its
/// `__meta__` the last record of that exact name under its group prefix
/// (what a lookup by name finds), its members every other record under the
/// prefix.
fn index_blocks(index: &[u8], entries: &[Entry]) -> (Vec<IndexedBlock>, Vec<usize>) {
    let mut named = Vec::with_capacity(entries.len());
    named.extend(
        (entries.iter().enumerate())
            .filter_map(|(i, e)| Some((parse_block_id(entry_name(index, e))?, i))),
    );
    // By id, then file order: each group's first entry is where the block
    // first appears.
    named.sort_unstable();
    let mut blocks = Vec::with_capacity(named.len());
    let mut picks = Vec::with_capacity(named.len());
    for group in named.chunk_by(|a, b| a.0 == b.0) {
        let (id, first) = group[0];
        let prefix = Prefix::new(id);
        let members = group.iter().filter_map(|&(_, i)| {
            Some((i, entry_name(index, &entries[i]).strip_prefix(prefix.as_str())?))
        });
        let meta = members.clone().filter(|&(_, m)| m == BLOCK_META).last();
        let block_picks = meta.map(|(meta, _)| {
            let start = picks.len();
            picks.push(meta);
            picks.extend(members.map(|(i, _)| i).filter(|&i| i != meta));
            start..picks.len()
        });
        blocks.push(IndexedBlock { id, first, picks: block_picks });
    }
    blocks.sort_unstable_by_key(|block| block.first);
    (blocks, picks)
}

/// How a read turns its ranges into storage accesses: chosen by entry
/// point, or by the caller of [`SdfFileReader::read_blocks_raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// One access per range, in input order: the library's per-dataset
    /// charge (`view_block`, `view_all_blocks`, a Rocpanda restart scan).
    PerRange,
    /// [`ReadCostModel::choose_local`] picks per-range or data sieving
    /// (`view_blocks_sieved`, `read_dataset_strided`).
    Auto,
    /// One covering read per hole-cluster, holes of any size read through:
    /// a two-phase aggregator's file domain.
    Domain,
}

/// An open SDF file being read.
///
/// Opening parses the trailing index (two small reads); each dataset access
/// is charged the library's lookup cost — linear in the file's dataset
/// count for HDF4, which is exactly why restart from dataset-dense Rocpanda
/// files is expensive (Table 1).
pub struct SdfFileReader<'fs> {
    fs: &'fs SharedFs,
    client: u64,
    lib: LibraryModel,
    meta: Arc<OpenMeta>,
}

impl<'fs> SdfFileReader<'fs> {
    /// Open `path` and parse its index. Returns the reader and the virtual
    /// completion time of the open.
    ///
    /// A repeat open of an unchanged file by the same client hits the
    /// metadata cache and completes at `now`, re-paying neither the
    /// header/trailer/index reads nor their virtual time — and allocating
    /// nothing. Any other open makes the charged header, trailer and index
    /// reads, then takes the index another client already decoded from
    /// the same file generation ([`SharedFs::cache_shared`]); only the
    /// first open of a generation decodes it. The generation is read with
    /// the file's size, before the reads, and the result is cached only if
    /// no write has moved it since.
    pub fn open(
        fs: &'fs SharedFs,
        path: &str,
        lib: LibraryModel,
        client: u64,
        now: SimTime,
    ) -> Result<(Self, SimTime)> {
        if let Some(hit) = fs.cache_get(path, client) {
            if let Ok(meta) = hit.downcast::<OpenMeta>() {
                return Ok((SdfFileReader { fs, client, lib, meta }, now));
            }
        }
        let (size, generation) = fs.file_generation(path)?;
        if size < HEADER_LEN + TRAILER_LEN {
            return Err(RocError::Corrupt(format!("SDF '{path}': too short")));
        }
        let (header, t1) = fs.read_shared(path, 0, HEADER_LEN, client, now)?;
        check_header(&header)?;
        let (trailer, t2) = fs.read_shared(path, size - TRAILER_LEN, TRAILER_LEN, client, t1)?;
        let idx_off = decode_trailer(&trailer)? as usize;
        if idx_off < HEADER_LEN || idx_off > size - TRAILER_LEN {
            return Err(RocError::Corrupt(format!(
                "SDF '{path}': index offset {idx_off} out of range"
            )));
        }
        let (index, t3) = fs.read_shared(path, idx_off, size - TRAILER_LEN - idx_off, client, t2)?;
        let shared = fs.cache_shared(path, generation).and_then(|m| m.downcast::<OpenMeta>().ok());
        let meta = match shared {
            Some(meta) => meta,
            None => {
                let entries = decode_index(&index, |name, offset, len| Entry {
                    name,
                    offset,
                    len,
                    verified: AtomicBool::new(false),
                })?;
                Arc::new(OpenMeta::new(path, index, entries))
            }
        };
        fs.cache_put(path, client, generation, Arc::clone(&meta) as rocstore::CacheValue);
        Ok((SdfFileReader { fs, client, lib, meta }, t3))
    }

    fn path(&self) -> &str {
        &self.meta.path
    }

    /// Number of datasets in the file.
    pub fn n_datasets(&self) -> usize {
        self.meta.entries.len()
    }

    /// Whether the file contains a dataset of this name.
    pub fn contains(&self, name: &str) -> bool {
        self.meta.entries.iter().any(|e| self.meta.name(e) == name)
    }

    /// Ids of all blocks stored in the file, in first-appearance order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        self.blocks().collect()
    }

    /// [`SdfFileReader::block_ids`], in first-appearance order, read where
    /// the table lies.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.meta.blocks.iter().map(|b| b.id)
    }

    /// The index entry of dataset `name` (the last, should the index name
    /// it twice).
    fn entry(&self, name: &str) -> Result<&Entry> {
        let entries = &self.meta.entries;
        entries.iter().rev().find(|e| self.meta.name(e) == name).ok_or_else(|| {
            RocError::NotFound(format!("dataset '{name}' in '{}'", self.path()))
        })
    }

    /// The library's per-access lookup cost in this file.
    fn lookup(&self) -> SimTime {
        self.lib.lookup_cost(self.meta.entries.len())
    }

    /// **Pick**: the index positions of block `id`'s records — `__meta__`
    /// first, then its members in file order — out of the block table.
    /// `NotFound` if the meta is absent.
    fn pick(&self, id: BlockId) -> Result<&[usize]> {
        let block = self.meta.blocks.iter().find(|b| b.id == id);
        match block.and_then(|b| b.picks.clone()) {
            Some(picks) => Ok(&self.meta.picks[picks]),
            None => Err(RocError::NotFound(format!(
                "dataset '{}{BLOCK_META}' in '{}'",
                Prefix::new(id).as_str(),
                self.path()
            ))),
        }
    }

    /// **Fetch**: the one place reads reach the store. Returns the pieces
    /// of the file's extents the ranges lie across, range after range,
    /// whatever the strategy ([`SharedFs::read_parts`]);
    /// `lead` is charged before every access the strategy issues.
    fn fetch(
        &self,
        ranges: &[(usize, usize)],
        lead: SimTime,
        how: Fetch,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        let sieve = match how {
            Fetch::PerRange => None,
            Fetch::Domain => Some(usize::MAX),
            Fetch::Auto => {
                // No network attached: strictly per-range vs sieve.
                let model = ReadCostModel::from_disk(self.fs.model()).with_lookup(lead);
                match model.choose_local(ranges).0 {
                    ReadStrategy::Sieve => Some(model.max_gap()),
                    _ => None,
                }
            }
        };
        self.fs.read_parts(self.path(), ranges, lead, sieve, self.client, now)
    }

    /// Fetch the picked records' file extents — blocks' picks, one after
    /// another — the library's lookup charged before every access.
    fn fetch_records(
        &self,
        picks: &[&[usize]],
        how: Fetch,
        now: SimTime,
    ) -> Result<(Vec<Bytes>, SimTime)> {
        let entries = &self.meta.entries;
        let mut extents = Vec::with_capacity(picks.iter().map(|p| p.len()).sum());
        for &i in picks.iter().copied().flatten() {
            extents.push((entries[i].offset as usize, entries[i].len as usize));
        }
        self.fetch(&extents, self.lookup(), how, now)
    }

    /// **Assemble**: cut the picked records out of `records` by their index
    /// lengths, read them where they lie and assemble the block's view.
    /// Each record pays its payload-CRC pass only the first time this file
    /// generation's copy is read; the flag is set after a successful read,
    /// so a corrupt record keeps failing.
    fn assemble(
        &self,
        id: BlockId,
        picks: &[usize],
        records: &mut Cursor<'_>,
    ) -> Result<BlockView> {
        let read = picks.iter().map(|&i| {
            let entry = &self.meta.entries[i];
            let skip = entry.verified.load(Ordering::Relaxed);
            let record = RecordView::read(&mut records.sub(entry.len as usize, RECORD)?, !skip)?;
            entry.verified.store(true, Ordering::Relaxed);
            Ok(record)
        });
        BlockView::assemble(Some(id), picks.len(), read)
    }

    /// Pick and fetch a batch of blocks in one planned request: each
    /// block's picks, and the pieces of all of them in the same order.
    #[allow(clippy::type_complexity)]
    fn fetch_blocks(
        &self,
        ids: &[BlockId],
        how: Fetch,
        now: SimTime,
    ) -> Result<(Vec<&[usize]>, Vec<Bytes>, SimTime)> {
        let mut picks = Vec::with_capacity(ids.len());
        for &id in ids {
            picks.push(self.pick(id)?);
        }
        let (parts, t) = self.fetch_records(&picks, how, now)?;
        Ok((picks, parts, t))
    }

    /// Pick → fetch → assemble for a batch of blocks.
    fn view_blocks(
        &self,
        ids: &[BlockId],
        how: Fetch,
        now: SimTime,
    ) -> Result<(Vec<BlockView>, SimTime)> {
        let (picks, parts, t) = self.fetch_blocks(ids, how, now)?;
        let (mut records, mut views) = (Cursor::new(&parts), Vec::with_capacity(ids.len()));
        for (&id, picks) in ids.iter().zip(picks) {
            views.push(self.assemble(id, picks, &mut records)?);
        }
        Ok((views, t))
    }

    /// Read a whole data block (its `__meta__` plus all member datasets,
    /// names without the group prefix) as a view of zero-copy windows.
    /// Charged the way the library charges it — one lookup and one read
    /// per record, meta first, then members in file order — which is what
    /// the paper's restart figures are calibrated on; the host does one
    /// lock and a binary search per record for the whole block.
    pub fn view_block(&self, id: BlockId, now: SimTime) -> Result<(BlockView, SimTime)> {
        let picks = self.pick(id)?;
        let (parts, t) = self.fetch_records(&[picks], Fetch::PerRange, now)?;
        Ok((self.assemble(id, picks, &mut Cursor::new(&parts))?, t))
    }

    /// [`SdfFileReader::view_block`], built.
    pub fn read_block_shared(&self, id: BlockId, now: SimTime) -> Result<(DataBlock, SimTime)> {
        let (view, t) = self.view_block(id, now)?;
        Ok((view.to_block()?, t))
    }

    /// Read several blocks in one planned batch: the request's record
    /// extents go through the sieve planner together, so blocks that are
    /// near each other in the file share covering reads. Byte-identical
    /// to chaining [`SdfFileReader::view_block`] over `ids`; when the cost
    /// model keeps per-range access the charges are identical too (one
    /// lookup + one read per record, in the same order).
    pub fn view_blocks_sieved(
        &self,
        ids: &[BlockId],
        now: SimTime,
    ) -> Result<(Vec<BlockView>, SimTime)> {
        self.view_blocks(ids, Fetch::Auto, now)
    }

    /// [`SdfFileReader::view_blocks_sieved`], built.
    pub fn read_blocks_sieved(
        &self,
        ids: &[BlockId],
        now: SimTime,
    ) -> Result<(Vec<DataBlock>, SimTime)> {
        let (views, t) = self.view_blocks_sieved(ids, now)?;
        Ok((views.iter().map(BlockView::to_block).collect::<Result<_>>()?, t))
    }

    /// Read every block in the file, charged as a chain of
    /// [`SdfFileReader::view_block`] calls in first-appearance order.
    pub fn view_all_blocks(&self, now: SimTime) -> Result<(Vec<BlockView>, SimTime)> {
        self.view_blocks(&self.block_ids(), Fetch::PerRange, now)
    }

    /// [`SdfFileReader::view_all_blocks`], built.
    pub fn read_all_blocks(&self, now: SimTime) -> Result<(Vec<DataBlock>, SimTime)> {
        let (views, t) = self.view_all_blocks(now)?;
        Ok((views.iter().map(BlockView::to_block).collect::<Result<_>>()?, t))
    }

    /// Read the given blocks' records to ship as they lie, unparsed: the
    /// pieces of the file's extents, block after block, records `__meta__`
    /// first as [`SdfFileReader::record_lens`] cuts them. `how` is the
    /// charge: [`Fetch::Domain`] for a two-phase aggregator's file domain,
    /// [`Fetch::PerRange`] for a Rocpanda server's scan (charged as
    /// chaining [`SdfFileReader::view_block`] over `ids`).
    pub fn read_blocks_raw(&self, ids: &[BlockId], how: Fetch, now: SimTime) -> Result<(Vec<Bytes>, SimTime)> {
        let (_, parts, t) = self.fetch_blocks(ids, how, now)?;
        Ok((parts, t))
    }

    /// Whether every record of block `id` is verified in this file
    /// generation, `records` the cursor at the block's records as
    /// [`SdfFileReader::read_blocks_raw`] returned them. A record not yet
    /// flagged is read with its payload CRC checked, and flagged only if
    /// the read succeeds, as an assembling read flags it; a record that
    /// fails makes the answer `false`, never an error, and whoever applies
    /// the block reports the failure.
    pub fn verify_raw(&self, id: BlockId, records: &Cursor<'_>) -> bool {
        let Ok(picks) = self.pick(id) else {
            return false;
        };
        let mut records = records.clone();
        picks.iter().all(|&i| {
            let entry = &self.meta.entries[i];
            let Ok(mut record) = records.sub(entry.len as usize, RECORD) else {
                return false;
            };
            if entry.verified.load(Ordering::Relaxed) {
                return true;
            }
            let ok = RecordView::read(&mut record, true).is_ok();
            if ok {
                entry.verified.store(true, Ordering::Relaxed);
            }
            ok
        })
    }

    /// The lengths of block `id`'s records, `__meta__` first, as the index
    /// gives them.
    pub fn record_lens(
        &self,
        id: BlockId,
    ) -> Result<impl ExactSizeIterator<Item = usize> + Clone + '_> {
        Ok(self.pick(id)?.iter().map(|&i| self.meta.entries[i].len as usize))
    }

    /// Read and validate a record's header, growing the read until it
    /// parses (the header length is not known until the name/shape/attrs
    /// are seen). Returns the header and its length: the payload's offset
    /// within the record, which must then end where the index says.
    fn read_record_header(
        &self,
        e: &Entry,
        now: SimTime,
    ) -> Result<(PayloadDims, usize, SimTime)> {
        let mut header_guess = 256usize.min(e.len as usize);
        loop {
            let range = (e.offset as usize, header_guess);
            let (parts, t) = self.fetch(&[range], 0.0, Fetch::PerRange, now)?;
            let mut cur = Cursor::new(&parts);
            let header = walk_record_header(&mut cur, |_, _| {});
            let header_len = cur.pos();
            match header {
                Ok(h) if header_len.checked_add(h.data_len) == Some(e.len as usize) => {
                    return Ok((h, header_len, t));
                }
                Ok(h) => {
                    return Err(RocError::Corrupt(format!(
                        "SDF '{}': record at {} is {header_len} + {} bytes, its index entry says {}",
                        self.path(),
                        e.offset,
                        h.data_len,
                        e.len
                    )));
                }
                Err(_) if header_guess < e.len as usize => {
                    header_guess = (header_guess * 2).min(e.len as usize);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Read a strided hyperslab of one dataset by name, without
    /// transferring the whole record: `count` pieces of `block` flat
    /// elements each, the `i`-th starting at element `start + i*stride` —
    /// the ghost-zone/column-slice access pattern (`count = 1` is a plain
    /// contiguous element range). The cost model picks data sieving when
    /// the inter-piece holes are dense enough that covering reads beat
    /// per-piece seeks, and per-range otherwise; either way the returned
    /// dataset (shape `[count, block]`) is byte-identical. A partial read
    /// cannot check the record's payload CRC; the header is held to every
    /// check a whole-record decode makes.
    pub fn read_dataset_strided(
        &self,
        name: &str,
        start: usize,
        count: usize,
        block: usize,
        stride: usize,
        now: SimTime,
    ) -> Result<(Dataset, SimTime)> {
        let e = self.entry(name)?;
        let (header, header_len, t) = self.read_record_header(e, now + self.lookup())?;
        let esize = header.dtype.size();
        // Last element touched and bytes gathered, overflow-checked: the
        // pieces lie inside the payload, so the offsets below cannot wrap.
        let last_end = match count {
            0 => Some(0),
            _ => ((count - 1).checked_mul(stride))
                .and_then(|span| span.checked_add(start)?.checked_add(block)),
        };
        let gathered = count.checked_mul(block).and_then(|n| n.checked_mul(esize));
        let Some(gathered) = gathered.filter(|_| last_end.is_some_and(|end| end <= header.n_elems))
        else {
            return Err(RocError::Mismatch(format!(
                "strided read ({count} x {block} from {start}, stride {stride}) reaches beyond \
                 dataset '{name}' ({} elems)",
                header.n_elems
            )));
        };
        let payload_off = e.offset as usize + header_len;
        let ranges: Vec<(usize, usize)> = (0..count)
            .map(|i| (payload_off + (start + i * stride) * esize, block * esize))
            .collect();
        let (parts, t2) = self.fetch(&ranges, 0.0, Fetch::Auto, t)?;
        let mut buf = Vec::with_capacity(gathered);
        for part in &parts {
            buf.extend_from_slice(part);
        }
        let data = SharedArray::new(header.dtype, count * block, buf.into())?;
        Ok((Dataset::new(name, vec![count, block], data)?, t2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::SdfFileWriter;
    use rocio_core::Checksum;
    use rocstore::FsStats;

    fn write_sample(fs: &SharedFs) -> Vec<DataBlock> {
        let blocks: Vec<DataBlock> = (0..3)
            .map(|i| {
                DataBlock::new(BlockId(i * 7), "fluid")
                    .with_dataset(
                        Dataset::vector("pressure", vec![i as f64; 4 + i as usize])
                            .with_attr("units", "Pa"),
                    )
                    .with_dataset(Dataset::vector("ids", vec![i as i32, 2, 3]))
                    .with_attr("material", "gas")
            })
            .collect();
        let (mut w, mut t) =
            SdfFileWriter::create(fs, "snap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        for b in &blocks {
            t = w.append_block(b, t).unwrap();
        }
        w.finish(t).unwrap();
        blocks
    }

    #[test]
    fn open_reads_index() {
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert_eq!(r.n_datasets(), 9); // 3 blocks x (meta + 2 datasets)
        assert!(t >= 0.0);
        assert!(r.contains("blk000007/pressure"));
        assert!(!r.contains("nope"));
    }

    #[test]
    fn read_block_round_trips_exactly() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        for want in &blocks {
            let (got, _) = r.read_block_shared(want.id, t).unwrap();
            assert_eq!(&got, want, "block {} must round-trip", want.id);
        }
    }

    #[test]
    fn read_all_blocks_in_file_order() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (all, _) = r.read_all_blocks(t).unwrap();
        assert_eq!(all, blocks);
        assert_eq!(
            r.block_ids(),
            vec![BlockId(0), BlockId(7), BlockId(14)]
        );
    }

    #[test]
    fn missing_dataset_is_not_found() {
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert!(matches!(
            r.read_dataset_strided("ghost", 0, 1, 1, 1, t),
            Err(RocError::NotFound(_))
        ));
        for read in [
            r.read_block_shared(BlockId(999), t).err(),
            r.read_blocks_sieved(&[BlockId(0), BlockId(999)], t).err(),
            r.read_blocks_raw(&[BlockId(999)], Fetch::Domain, t).err(),
        ] {
            assert!(matches!(read, Some(RocError::NotFound(_))), "{read:?}");
        }
    }

    #[test]
    fn corrupt_file_rejected_on_open() {
        let fs = SharedFs::ideal();
        fs.create("bad.sdf", 0, 0.0);
        fs.append("bad.sdf", b"not an sdf file at all....", 0, 0.0)
            .unwrap();
        assert!(SdfFileReader::open(&fs, "bad.sdf", LibraryModel::hdf4(), 0, 0.0).is_err());
        assert!(SdfFileReader::open(&fs, "absent.sdf", LibraryModel::hdf4(), 0, 0.0).is_err());
    }

    #[test]
    fn hdf4_lookup_cost_grows_with_file_density() {
        // Same dataset payloads; a dense file must take longer to read one
        // dataset from than a sparse file, on an ideal disk (pure library
        // overhead).
        let fs = SharedFs::ideal();
        for (path, n) in [("sparse.sdf", 10usize), ("dense.sdf", 500)] {
            let (mut w, mut t) =
                SdfFileWriter::create(&fs, path, LibraryModel::hdf4(), 0, 0.0).unwrap();
            for i in 0..n {
                t = w
                    .append_dataset(&Dataset::vector(format!("d{i}"), vec![0.0f64; 8]), t)
                    .unwrap();
            }
            w.finish(t).unwrap();
        }
        let (rs, t1) = SdfFileReader::open(&fs, "sparse.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let (rd, t2) = SdfFileReader::open(&fs, "dense.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let (_, ts) = rs.read_dataset_strided("d5", 0, 1, 8, 8, t1).unwrap();
        let (_, td) = rd.read_dataset_strided("d5", 0, 1, 8, 8, t2).unwrap();
        assert!(td - t2 > ts - t1, "dense lookup {} <= sparse {}", td - t2, ts - t1);
    }

    #[test]
    fn partial_read_matches_full_read() {
        let fs = SharedFs::ideal();
        let values: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        let block = DataBlock::new(BlockId(2), "w")
            .with_dataset(Dataset::vector("series", values.clone()).with_attr("units", "m/s"));
        let (mut w, t) = SdfFileWriter::create(&fs, "p.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "p.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        // `count = 1` of the strided read is the plain contiguous range.
        let range = |start, n| r.read_dataset_strided("blk000002/series", start, 1, n, n, t);
        let (slice, t2) = range(100, 50).unwrap();
        assert!(t2 > t);
        assert_eq!(slice.data.to_typed().as_f64().unwrap(), &values[100..150]);
        // Edges.
        let (head, _) = range(0, 1).unwrap();
        assert_eq!(head.data.to_typed().as_f64().unwrap(), &values[0..1]);
        let (tail, _) = range(999, 1).unwrap();
        assert_eq!(tail.data.to_typed().as_f64().unwrap(), &values[999..]);
        // Out of range and missing name.
        assert!(range(990, 20).is_err());
        assert!(r.read_dataset_strided("ghost", 0, 1, 1, 1, t).is_err());
    }

    #[test]
    fn partial_read_charges_fewer_bytes_than_full() {
        let fs = SharedFs::ideal();
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::vector("big", vec![1.0f64; 100_000]));
        let (mut w, t) = SdfFileWriter::create(&fs, "q.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, _) = SdfFileReader::open(&fs, "q.sdf", LibraryModel::Raw, 1, 0.0).unwrap();
        let after_open = fs.stats().bytes_read;
        r.read_dataset_strided("blk000001/big", 50_000, 1, 10, 10, 0.0).unwrap();
        let after_slice = fs.stats().bytes_read;
        // The slice read moved ~ header + 80 bytes, nowhere near 800 KB.
        assert!(after_slice - after_open < 2048, "read {} bytes", after_slice - after_open);
    }

    /// What a receiver does with the next block of `read_blocks_raw`.
    fn decode_raw(r: &SdfFileReader, id: BlockId, batch: &mut Cursor) -> DataBlock {
        let lens = r.record_lens(id).unwrap().map(Ok);
        BlockView::from_records(id, lens, batch, true).unwrap().to_block().unwrap()
    }

    /// The per-record reference every block read is held to: the
    /// library's one-dataset access (lookup, then one positioned read,
    /// decode) chained over the block's records, meta first.
    fn per_record_reference(r: &SdfFileReader, id: BlockId, now: SimTime) -> (DataBlock, SimTime) {
        let prefix = crate::format::Prefix::new(id).as_str().to_owned();
        let meta = format!("{prefix}{BLOCK_META}");
        let names = r.meta.entries.iter().map(|e| r.meta.name(e));
        let members = names.filter(|n| n.starts_with(&prefix) && *n != meta);
        let mut t = now;
        let mut block = DataBlock::new(id, "");
        for name in std::iter::once(meta.as_str()).chain(members) {
            let e = r.entry(name).unwrap();
            let (bytes, end) =
                r.fs.read_shared(r.path(), e.offset as usize, e.len as usize, r.client, t + r.lookup())
                    .unwrap();
            t = end;
            let ds = crate::format::decode_dataset_shared(&bytes, &mut 0).unwrap();
            match ds.name.strip_prefix(&prefix).unwrap() {
                BLOCK_META => {
                    block.window = ds.attrs["window"].as_str().unwrap().to_owned();
                    let block_attrs = ds.attrs.iter().filter_map(|(k, v)| Some((k.strip_prefix("blk:")?, v)));
                    block.attrs = block_attrs.map(|(k, v)| (k.to_owned(), v.clone())).collect();
                }
                member => block.datasets.push(Dataset { name: member.to_owned(), ..ds }),
            }
        }
        (block, t)
    }

    #[test]
    fn every_read_path_agrees_on_every_layout() {
        // Layouts: what `append_block` writes; a member appended later with
        // a foreign record in between; a member appended *before* the
        // block's `__meta__`. Only the first is writer-producible, but the
        // one pick → fetch → assemble path owes the same answer on all.
        let a = || Dataset::vector("a", vec![1.0f64, 2.0]).with_attr("units", "Pa");
        let x = |name: &str| Dataset::vector(name, vec![3i32, 4, 5]);
        let foreign = || Dataset::vector("unrelated", vec![9i32; 16]);
        let block = |members: Vec<Dataset>| {
            let empty = DataBlock::new(BlockId(4), "w").with_attr("level", 2i64);
            members.into_iter().fold(empty, DataBlock::with_dataset)
        };
        let other = DataBlock::new(BlockId(9), "w").with_dataset(Dataset::vector("a", vec![7u8; 40]));
        type Layout<'a> = (&'a str, DataBlock, Box<dyn Fn(&mut SdfFileWriter) + 'a>);
        let layouts: [Layout; 4] = [
            ("contiguous", block(vec![a(), x("x")]), Box::new(|w| {
                w.append_block(&block(vec![a(), x("x")]), 0.0).unwrap();
            })),
            ("interleaved", block(vec![a(), x("x")]), Box::new(|w| {
                w.append_block(&block(vec![a()]), 0.0).unwrap();
                w.append_dataset(&foreign(), 0.0).unwrap();
                w.append_dataset(&x("blk000004/x"), 0.0).unwrap();
            })),
            ("member-first", block(vec![x("x"), a()]), Box::new(|w| {
                w.append_dataset(&x("blk000004/x"), 0.0).unwrap();
                w.append_dataset(&foreign(), 0.0).unwrap();
                w.append_block(&block(vec![a()]), 0.0).unwrap();
            })),
            // A record whose name parses as block 4's but is not under its
            // group prefix: the block is listed, the record is not its.
            ("respelled", block(vec![a(), x("x")]), Box::new(|w| {
                w.append_dataset(&x("blk4/x"), 0.0).unwrap();
                w.append_block(&block(vec![a(), x("x")]), 0.0).unwrap();
            })),
        ];
        for lib in [LibraryModel::hdf4(), LibraryModel::hdf5(), LibraryModel::Raw] {
            for (layout, want, write_block) in &layouts {
                let build = |fs: &SharedFs| {
                    let (mut w, _) = SdfFileWriter::create(fs, "m.sdf", lib, 0, 0.0).unwrap();
                    write_block(&mut w);
                    w.append_block(&other, 0.0).unwrap();
                    w.finish(0.0).unwrap();
                };
                let (fs, fs_ref) = (SharedFs::turing(), SharedFs::turing());
                build(&fs);
                build(&fs_ref);
                let (r, t) = SdfFileReader::open(&fs, "m.sdf", lib, 1, 0.0).unwrap();
                let (r_ref, t_ref) = SdfFileReader::open(&fs_ref, "m.sdf", lib, 1, 0.0).unwrap();
                assert_eq!(t, t_ref);
                let what = format!("{layout} / {}", lib.name());

                // The PerRange path against the per-record reference:
                // values, completion time and fs stats.
                let (shared, t_shared) = r.read_block_shared(want.id, t).unwrap();
                let (reference, t_reference) = per_record_reference(&r_ref, want.id, t_ref);
                assert_eq!(&shared, want, "{what}");
                assert_eq!(shared, reference, "{what}");
                assert_eq!(t_shared, t_reference, "{what}");
                assert_eq!(fs.stats(), fs_ref.stats(), "{what}");

                // Every other entry point returns the same block.
                let ids = [want.id, other.id];
                let (batch, _) = r.read_blocks_sieved(&ids, t).unwrap();
                assert_eq!(batch, [shared.clone(), other.clone()], "{what}");
                let (all, _) = r.read_all_blocks(t).unwrap();
                assert_eq!(all, batch, "{what}");
                for how in [Fetch::Domain, Fetch::PerRange] {
                    let (raw, _) = r.read_blocks_raw(&ids, how, t).unwrap();
                    let mut batch = Cursor::new(&raw);
                    assert_eq!(decode_raw(&r, want.id, &mut batch), shared, "{what}");
                    assert_eq!(decode_raw(&r, other.id, &mut batch), other, "{what}");
                    assert_eq!(batch.remaining(), 0, "{what}");
                }

                // The views those blocks are built from describe them: the
                // same records laid out, byte for byte, behind a lead, and
                // the same checksum — in every entry point's order.
                let flat = |rope: rocio_core::Rope| rope.into_bytes().to_vec();
                let (view, _) = r.view_block(want.id, t).unwrap();
                let (sieved, _) = r.view_blocks_sieved(&ids, t).unwrap();
                let (every, _) = r.view_all_blocks(t).unwrap();
                let views = std::iter::once(&view).chain(&sieved).chain(&every);
                for (view, block) in views.zip([&shared, &shared, &other, &shared, &other]) {
                    assert_eq!(&view.to_block().unwrap(), block, "{what}");
                    let (laid_out, built) =
                        (crate::encode_block(b"lead", view), crate::encode_block(b"lead", block));
                    assert_eq!(flat(laid_out), flat(built), "{what}");
                    assert_eq!(Checksum::of_desc(view), Checksum::of_block(block), "{what}");
                }
            }
        }
    }

    #[test]
    fn repeat_open_hits_the_metadata_cache() {
        let fs = SharedFs::ideal();
        let blocks = write_sample(&fs);
        let (_, t1) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let read_after_first = fs.stats().bytes_read;
        assert!(t1 > 0.0);
        // Second open by the same client: no reads, no virtual time.
        let (r2, t2) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 5.0).unwrap();
        assert_eq!(t2, 5.0);
        assert_eq!(fs.stats().bytes_read, read_after_first);
        let (got, _) = r2.read_block_shared(blocks[0].id, t2).unwrap();
        assert_eq!(got, blocks[0]);
        // A different client pays for its own open (per-client keying).
        let (_, t3) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 2, 5.0).unwrap();
        assert!(t3 > 5.0);
        assert!(fs.stats().bytes_read > read_after_first);
    }

    #[test]
    fn rewritten_snapshot_invalidates_cached_open() {
        // A new snapshot written to the same path must not be served
        // through the stale cached index.
        let fs = SharedFs::ideal();
        write_sample(&fs);
        let (r1, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        assert_eq!(r1.n_datasets(), 9);
        drop(r1);
        // Overwrite the path with a different, smaller snapshot.
        let block = DataBlock::new(BlockId(0), "fluid")
            .with_dataset(Dataset::vector("pressure", vec![42.0f64; 3]));
        let (mut w, tw) = SdfFileWriter::create(&fs, "snap.sdf", LibraryModel::hdf4(), 0, t).unwrap();
        let tw = w.append_block(&block, tw).unwrap();
        w.finish(tw).unwrap();
        let before = fs.stats().bytes_read;
        let (r2, t2) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, tw).unwrap();
        assert!(t2 > tw, "stale cache served a rewritten file");
        assert!(fs.stats().bytes_read > before);
        assert_eq!(r2.n_datasets(), 2); // meta + pressure
        let (got, _) = r2.read_block_shared(BlockId(0), t2).unwrap();
        assert_eq!(got, block);
    }

    /// Whether dataset `name`'s record is marked verified in the file
    /// generation `r` opened.
    fn verified(r: &SdfFileReader, name: &str) -> bool {
        r.entry(name).unwrap().verified.load(Ordering::Relaxed)
    }

    #[test]
    fn a_second_client_shares_the_decoded_index_and_pays_its_own_reads() {
        let open =
            |fs, client| SdfFileReader::open(fs, "snap.sdf", LibraryModel::hdf4(), client, 0.0).unwrap();
        // The reads and bytes an open of `fs` adds to its stats.
        let reads_since = |fs: &SharedFs, before: FsStats| {
            (fs.stats().read_ops - before.read_ops, fs.stats().bytes_read - before.bytes_read)
        };
        // What a lone client's open costs, on a store of its own.
        let lone = SharedFs::turing();
        write_sample(&lone);
        let before = lone.stats();
        let (_, t_lone) = open(&lone, 2);
        let lone_reads = reads_since(&lone, before);

        let fs = SharedFs::turing();
        let blocks = write_sample(&fs);
        let mut readers = Vec::new();
        for client in [1, 2] {
            let before = fs.stats();
            let (r, t) = open(&fs, client);
            assert_eq!(t.to_bits(), t_lone.to_bits(), "client {client}");
            assert_eq!(reads_since(&fs, before), lone_reads, "client {client} pays its own reads");
            readers.push(r);
        }
        // The second open decoded nothing: it holds the first one's index.
        assert!(Arc::ptr_eq(&readers[0].meta, &readers[1].meta), "the index was decoded twice");
        for r in &readers {
            let (all, _) = r.read_all_blocks(t_lone).unwrap();
            assert_eq!(all, blocks);
        }
        // A repeat open by either client still hits its own entry, free.
        let (again, t) =
            SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 2, 7.0).unwrap();
        assert_eq!(t, 7.0);
        assert!(Arc::ptr_eq(&again.meta, &readers[0].meta));
    }

    #[test]
    fn crc_failure_is_sticky_and_rewrite_reverifies() {
        // The verified-once flags, shared by every client of a file
        // generation, must never mask corruption: a bad record fails on
        // every read by every client (the flag is only set after a
        // successful decode), and rewriting a path starts a new generation
        // whose records every client verifies afresh even though the old
        // image's records had been marked verified.
        let fs = SharedFs::ideal();
        let marker = 1234.5678f64;
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::vector("v", vec![marker; 8]));
        let (mut w, t) =
            SdfFileWriter::create(&fs, "snap.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (image, _) = fs.read_all_shared("snap.sdf", 0, 0.0).unwrap();
        let at = image
            .windows(8)
            .position(|w| w == marker.to_le_bytes())
            .unwrap();
        let mut bad = image.to_vec();
        bad[at] ^= 0x01;
        let open = |path, client, now| {
            SdfFileReader::open(&fs, path, LibraryModel::hdf4(), client, now).unwrap()
        };
        let v = "blk000001/v";

        // Corrupt image: every shared read by every client fails, warm or
        // not, and the bad record is never marked verified.
        fs.create("bad.sdf", 0, 0.0);
        fs.append("bad.sdf", &bad, 0, 0.0).unwrap();
        for client in [1, 2] {
            let (r, t1) = open("bad.sdf", client, 0.0);
            assert!(r.read_block_shared(BlockId(1), t1).is_err(), "client {client}");
            assert!(r.read_block_shared(BlockId(1), t1).is_err(), "failure must be sticky");
            assert!(!verified(&r, v));
        }

        // Good image read warm by client 1: marked verified only after its
        // successful read, and client 2 finds it so. Then the path is
        // rewritten with the corrupt image: the new generation must verify
        // and fail for both clients, not coast on the stale flags.
        let (r1, t2) = open("snap.sdf", 1, 0.0);
        assert!(!verified(&r1, v));
        let (first, _) = r1.read_block_shared(BlockId(1), t2).unwrap();
        assert!(verified(&r1, v));
        let (warm, _) = r1.read_block_shared(BlockId(1), t2).unwrap();
        assert_eq!(first, warm);
        assert_eq!(warm, block);
        let (r2, _) = open("snap.sdf", 2, 0.0);
        assert!(verified(&r2, v), "the generation's flags are shared");
        assert_eq!(r2.read_block_shared(BlockId(1), t2).unwrap().0, block);
        drop((r1, r2));
        fs.create("snap.sdf", 0, 10.0);
        fs.append("snap.sdf", &bad, 0, 10.0).unwrap();
        for client in [1, 2] {
            let (r, t3) = open("snap.sdf", client, 10.0);
            assert!(!verified(&r, v), "client {client} coasts on a stale flag");
            assert!(r.read_block_shared(BlockId(1), t3).is_err(), "client {client}");
        }
    }

    #[test]
    fn strided_read_matches_manual_gather() {
        // Column slice of a [64, 16] array: 64 pieces of 2 elements with
        // stride 16 — dense holes, so on Turing the sieve path runs; on an
        // ideal disk (max_gap 0) the per-range path runs. Same bytes.
        let values: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let want: Vec<f64> = (0..64)
            .flat_map(|r| values[r * 16 + 3..r * 16 + 5].to_vec())
            .collect();
        for fs in [SharedFs::ideal(), SharedFs::turing()] {
            let block = DataBlock::new(BlockId(1), "w").with_dataset(
                Dataset::new("grid", vec![64, 16], values.clone()).unwrap(),
            );
            let (mut w, t) =
                SdfFileWriter::create(&fs, "s.sdf", LibraryModel::hdf4(), 0, 0.0).unwrap();
            let t = w.append_block(&block, t).unwrap();
            w.finish(t).unwrap();
            let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
            let (ds, t2) = r.read_dataset_strided("blk000001/grid", 3, 64, 2, 16, t).unwrap();
            assert!(t2 > t);
            assert_eq!(ds.shape, vec![64, 2]);
            assert_eq!(ds.data.to_typed().as_f64().unwrap(), &want[..]);
            // Degenerate and out-of-range cases.
            let (empty, te) = r.read_dataset_strided("blk000001/grid", 0, 0, 2, 16, t).unwrap();
            assert_eq!(empty.shape, vec![0, 2]);
            // Pays lookup + header read, then transfers nothing.
            assert!(te >= t && te < t2);
            assert!(r.read_dataset_strided("blk000001/grid", 3, 64, 14, 16, t).is_err());
            assert!(r.read_dataset_strided("ghost", 0, 1, 1, 1, t).is_err());
        }
    }

    #[test]
    fn strided_read_trusts_neither_the_record_header_nor_its_own_arguments() {
        // Two blocks in one file, each a [4, 4] grid. Damage the first
        // extent of block 1's record on disk: 8 makes the shape claim twice
        // the payload (a read of "all 32 elements" used to succeed and hand
        // back block 2's record bytes as f64), u64::MAX overflows the
        // extents' product (used to panic).
        let fs = SharedFs::ideal();
        let grid = |id: u64| {
            let ds = Dataset::new("grid", vec![4, 4], vec![id as f64; 16]).unwrap();
            DataBlock::new(BlockId(id), "w").with_dataset(ds)
        };
        let (mut w, t) = SdfFileWriter::create(&fs, "s.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&grid(1), t).unwrap();
        let t = w.append_block(&grid(2), t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::Raw, 1, 0.0).unwrap();
        let name = "blk000001/grid";
        assert_eq!(r.read_dataset_strided(name, 0, 1, 16, 16, t).unwrap().0.len(), 16);
        // Arguments whose arithmetic would wrap are refused, not wrapped.
        for (start, count, block, stride) in
            [(usize::MAX, 1, 1, 1), (0, 2, 1, usize::MAX), (1, 3, usize::MAX, 1), (0, usize::MAX, 2, 0)]
        {
            let got = r.read_dataset_strided(name, start, count, block, stride, t);
            assert!(matches!(got, Err(RocError::Mismatch(_))), "{got:?}");
        }
        // "DS00", name_len:u16, name, dtype:u8, rank:u8, then the extents.
        let extent0 = r.entry(name).unwrap().offset as usize + 6 + name.len() + 2;
        for (bad, whole) in [(8u64, 32), (u64::MAX, 1)] {
            fs.write_at("s.sdf", extent0, &bad.to_le_bytes(), 0, 0.0).unwrap();
            let got = r.read_dataset_strided(name, 0, 1, whole, whole, t);
            assert!(matches!(got, Err(RocError::Corrupt(_))), "extent {bad}: {got:?}");
            let whole_block = r.read_block_shared(BlockId(1), t);
            assert!(matches!(whole_block, Err(RocError::Corrupt(_))), "extent {bad}");
        }
        // So is a self-consistent record shorter than its index entry says:
        // [2, 4], and 64 in `data_len` (after the extents, `n_attrs` and the
        // 20-byte `__crc32__` entry).
        fs.write_at("s.sdf", extent0, &2u64.to_le_bytes(), 0, 0.0).unwrap();
        fs.write_at("s.sdf", extent0 + 16 + 2 + 20, &64u64.to_le_bytes(), 0, 0.0).unwrap();
        let got = r.read_dataset_strided(name, 0, 1, 8, 8, t);
        assert!(matches!(got, Err(RocError::Corrupt(ref m)) if m.contains("index entry")), "{got:?}");
    }

    #[test]
    fn strided_sieve_beats_per_piece_reads_on_dense_holes() {
        let fs = SharedFs::turing();
        let values: Vec<f64> = (0..32_768).map(|i| i as f64).collect();
        let block = DataBlock::new(BlockId(1), "w").with_dataset(
            Dataset::new("grid", vec![256, 128], values.clone()).unwrap(),
        );
        let (mut w, t) = SdfFileWriter::create(&fs, "s.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "s.sdf", LibraryModel::Raw, 1, 0.0).unwrap();
        // One 8-element column from each of 256 rows.
        let (ds, t_strided) = r.read_dataset_strided("blk000001/grid", 0, 256, 8, 128, t).unwrap();
        assert_eq!(ds.shape, vec![256, 8]);
        // Naive: one range read per piece.
        let mut t_naive = t;
        for i in 0..256 {
            let (piece, t2) =
                r.read_dataset_strided("blk000001/grid", i * 128, 1, 8, 8, t_naive).unwrap();
            assert_eq!(piece.data.to_typed().as_f64().unwrap(), &values[i * 128..i * 128 + 8]);
            t_naive = t2;
        }
        assert!(
            (t_strided - t) * 2.0 < t_naive - t,
            "sieved strided read {:.6}s not ≥2x faster than per-piece {:.6}s",
            t_strided - t,
            t_naive - t
        );
    }

    #[test]
    fn blocks_sieved_match_chained_shared_reads() {
        let fs_a = SharedFs::turing();
        let fs_b = SharedFs::turing();
        let blocks = write_sample(&fs_a);
        write_sample(&fs_b);
        let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
        let (ra, ta) = SdfFileReader::open(&fs_a, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (rb, tb) = SdfFileReader::open(&fs_b, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (batch, t_batch) = ra.read_blocks_sieved(&ids, ta).unwrap();
        let mut chained = Vec::new();
        let mut t_chain = tb;
        for &id in &ids {
            let (b, t2) = rb.read_block_shared(id, t_chain).unwrap();
            chained.push(b);
            t_chain = t2;
        }
        assert_eq!(batch, chained);
        assert_eq!(batch, blocks);
        // The batch is never slower; with contiguous neighbouring blocks
        // the sieve merges their records into fewer covering reads.
        assert!(t_batch <= t_chain);
        let (none, t_none) = ra.read_blocks_sieved(&[], ta).unwrap();
        assert!(none.is_empty() && t_none == ta);
    }

    #[test]
    fn blocks_raw_round_trip_through_decode() {
        let fs = SharedFs::turing();
        let blocks = write_sample(&fs);
        let ids: Vec<BlockId> = blocks.iter().map(|b| b.id).collect();
        let (r, t) = SdfFileReader::open(&fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let before = fs.stats();
        let (raw, t2) = r.read_blocks_raw(&ids, Fetch::Domain, t).unwrap();
        assert!(t2 > t);
        // One covering read: all records are contiguous in the file.
        assert_eq!(fs.stats().read_ops, before.read_ops + 1);
        let mut batch = Cursor::new(&raw);
        for want in &blocks {
            // Records are self-describing: meta first, then members.
            assert_eq!(&decode_raw(&r, want.id, &mut batch), want);
        }
        assert_eq!(batch.remaining(), 0);
    }

    /// A per-record raw read is charged tick for tick, op for op, as the
    /// chain of `view_block`s over the same blocks — the paper's restart
    /// access — and reads the same bytes.
    #[test]
    fn a_per_record_raw_read_is_charged_as_chained_block_views() {
        let stores = [SharedFs::turing(), SharedFs::turing()];
        let blocks: Vec<Vec<DataBlock>> = stores.iter().map(write_sample).collect();
        let ids: Vec<BlockId> = blocks[0].iter().map(|b| b.id).collect();
        let open = |fs| SdfFileReader::open(fs, "snap.sdf", LibraryModel::hdf4(), 1, 0.0).unwrap();
        let (r, mut chained) = open(&stores[0]);
        let mut viewed = Vec::new();
        for &id in &ids {
            let (view, t) = r.view_block(id, chained).unwrap();
            viewed.push(view.to_block().unwrap());
            chained = t;
        }
        let (r, t) = open(&stores[1]);
        let (raw, raw_t) = r.read_blocks_raw(&ids, Fetch::PerRange, t).unwrap();
        assert_eq!(raw_t.to_bits(), chained.to_bits());
        assert_eq!(stores[0].stats(), stores[1].stats());
        let mut batch = Cursor::new(&raw);
        let shipped: Vec<DataBlock> = ids.iter().map(|&id| decode_raw(&r, id, &mut batch)).collect();
        assert_eq!(shipped, viewed);
        assert_eq!(viewed, blocks[1]);
    }

    #[test]
    fn big_array_survives() {
        let fs = SharedFs::ideal();
        let big: Vec<f64> = (0..100_000).map(|i| i as f64 * 0.5).collect();
        let block = DataBlock::new(BlockId(1), "w")
            .with_dataset(Dataset::new("v", vec![100, 1000], big).unwrap());
        let (mut w, t) = SdfFileWriter::create(&fs, "big.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let t = w.append_block(&block, t).unwrap();
        w.finish(t).unwrap();
        let (r, t) = SdfFileReader::open(&fs, "big.sdf", LibraryModel::Raw, 0, 0.0).unwrap();
        let (got, _) = r.read_block_shared(BlockId(1), t).unwrap();
        assert_eq!(got, block);
    }
}
